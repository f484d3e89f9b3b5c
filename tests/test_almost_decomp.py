from itertools import combinations

import pytest

from permseq.almost_decomp import (
    Subpatterns,
    _classify,
    _f,
    _grow,
    almost_decomposable,
    check_1342_bound,
    classify_necessary,
    classify_sufficient,
    compat_search,
    compat_table_row,
    corollary_families,
    decomp_form,
    difference_sets,
    f_domain,
    f_map,
    f_tilde,
    theorem_almost_decomp_check,
)
from permseq.enumeration import count_table, generate_avoiders, iter_avoiders_upto, row_differences
from permseq.perms import (
    SYMMETRIES,
    avoids,
    components,
    contains,
    delete,
    direct_sum,
    first_split,
    identity,
    insert_value,
    is_decomposable,
    inv_count,
    inverse,
    parse_basis,
    parse_perm,
    reverse_complement,
    standardize,
)
from permseq.series import overpartition_gf

from oracles import all_perms

P1324 = parse_perm("1324")
P1342 = parse_perm("1342")
P213 = parse_perm("213")


def test_decomp_form():
    form = decomp_form(parse_perm("21453"))
    assert (form.sigma, form.m, form.tau) == (parse_perm("21"), 0, parse_perm("231"))
    assert form.assemble() == parse_perm("21453")
    form = decomp_form(identity(4))
    assert form.assemble() == identity(4)
    with pytest.raises(ValueError):
        decomp_form(parse_perm("321"))
    with pytest.raises(ValueError):
        decomp_form(parse_perm("214365"))  # 21+21+21 contains 1324


def test_f_tilde_examples():
    assert f_tilde(parse_perm("132")) == parse_perm("1243")
    assert f_tilde(identity(5)) == identity(6)
    assert f_tilde(parse_perm("2143")) == parse_perm("21354")


def test_growth_matches_decomp_form():
    # one insertion after the first component against the old rebuild
    # sigma (+) id_{m+1} (+) tau from the decomposition
    seen = 0
    for p, _ in iter_avoiders_upto([P1324], 8, 28):
        if not is_decomposable(p):
            continue
        form = decomp_form(p)
        want = direct_sum(form.sigma, identity(form.m + 1), form.tau)
        assert _grow(p) == want, p
        assert f_tilde(p) == want, p
        seen += 1
    assert seen > 1000


@pytest.mark.parametrize("alternate", (False, True))
def test_f_core_is_none_exactly_off_domain(alternate):
    for pi, k in iter_avoiders_upto([P1324], 8, 28):
        image = _f(pi, alternate)
        assert (image is None) == (not f_domain(pi)), pi
        if image is not None:
            assert len(image) == len(pi) + 1 and inv_count(image) == k, pi


def _f1(q):
    """Case F1 by its definition: delete the first entry, grow the rest,
    put the entry back in front."""
    return insert_value(_grow(delete(q, [q[0]])), 0, q[0])


@pytest.mark.parametrize("alternate", (False, True))
def test_f_cases_are_f1_under_the_symmetries(alternate):
    # f's case Fi is F1 conjugated by the i-th symmetry, which carries the
    # deleted boundary entry to the first entry; and neither boundary pair
    # (first entry and value 1, last entry and value n) decomposes twice
    sigma = dict(zip(("F1", "F2", "F3", "F4"), (fn for _, fn in SYMMETRIES)))
    seen = 0
    for p, _ in iter_avoiders_upto([P1324], 8, 28):
        case = almost_decomposable(p, alternate)
        if case is None:
            continue
        n = len(p)
        s = sigma[case.tag]
        assert _f(p, alternate) == s(_f1(s(p))), p
        assert not (first_split(p, p[0]) < n - 1 and first_split(p, 1) < n - 1), p
        assert not (first_split(p, p[-1]) < n - 1 and first_split(p, n) < n - 1), p
        seen += 1
    assert seen == 5104


def test_almost_decomposable_cases():
    assert almost_decomposable(parse_perm("12")) is None  # decomposable
    case = almost_decomposable(parse_perm("231"))
    assert case.tag == "F2" and case.witness == 1  # deleting value 1 leaves 12
    case = almost_decomposable(parse_perm("34152"))
    assert case.tag == "F3" and case.witness == 2
    case = almost_decomposable(parse_perm("3142"))
    assert case.tag == "F1" and case.witness == 3
    # all four boundary deletions stay indecomposable here
    assert almost_decomposable(parse_perm("42513")) is None


def test_alternate_priority_flag():
    p = parse_perm("34152")
    default = almost_decomposable(p)
    alt = almost_decomposable(p, alternate_priority=True)
    assert default.tag == "F3" and alt.tag == "F3"
    # 2341 admits both a value-1 and a last-entry deletion: priority decides
    q = parse_perm("2341")
    assert almost_decomposable(q).tag == "F2"
    assert almost_decomposable(q, alternate_priority=True).tag == "F3"
    # both dispatches stay within the avoidance class
    for flag in (False, True):
        img = f_map(q, alternate_priority=flag)
        assert len(img) == 5 and avoids(img, [P1324])


def test_f_map_examples():
    assert f_map(parse_perm("34152")) == parse_perm("241563")
    assert f_map(parse_perm("2143")) == f_tilde(parse_perm("2143"))
    with pytest.raises(ValueError):
        f_map(parse_perm("42513"))  # indecomposable, not almost decomposable
    with pytest.raises(ValueError):
        f_map(parse_perm("1324"))


@pytest.mark.parametrize("n", range(1, 9))
def test_f_map_preserves_class(n):
    images = {}
    for p, k in iter_avoiders_upto([P1324], n, n * (n - 1) // 2):
        if len(p) != n or not f_domain(p):
            continue
        img = f_map(p)
        assert len(img) == n + 1
        assert inv_count(img) == k
        assert avoids(img, [P1324])
        images.setdefault(k, set()).add(img)
        # inverse-equivariance of the map
        assert f_map(inverse(p)) == inverse(img)
    # injectivity per inversion count
    count = {}
    for p, k in iter_avoiders_upto([P1324], n, n * (n - 1) // 2):
        if len(p) == n and f_domain(p):
            count[k] = count.get(k, 0) + 1
    for k, c in count.items():
        assert len(images[k]) == c


def test_theorem_almost_decomp():
    report = theorem_almost_decomp_check(8)
    assert [n for n, _ in report] == list(range(1, 9))
    for n, bad in report:
        assert bad == [], n


def test_classification_examples():
    compat4 = {p for p in generate_avoiders([P1324], 4, 6) if not classify_necessary(p)}
    assert compat4 == parse_basis("1432,4231,4321")
    # flanked inversions are flagged through the three-component condition
    assert classify_necessary(parse_perm("1243"))
    assert classify_sufficient(parse_perm("1243"))
    # sufficient implies necessary
    for n in range(3, 7):
        for p in generate_avoiders([P1324], n, n * (n - 1) // 2):
            if len(p) == n and classify_sufficient(p):
                assert classify_necessary(p)


def _symmetry_orbit(p):
    rc = reverse_complement(p)
    return ((p, False), (inverse(p), False), (rc, True), (inverse(rc), True))


def _first_component_starts_with_max(q):
    first = components(q)[0]
    return first[0] == len(first)


def necessary_reference(p):
    """Oracle: the necessary condition as one loop of its own over the orbit,
    reading the body's components off the built deletion."""
    n = len(p)
    for q, is_rc_side in _symmetry_orbit(p):
        comp_q = len(components(q))
        if comp_q >= 3:
            return True
        body = delete(q, [q[0]])
        if len(components(body)) > comp_q:
            return True
        rc_ok = not is_rc_side or q[-1] < n
        if q[0] > 1 and comp_q == 2 and _first_component_starts_with_max(q) and rc_ok:
            return True
        if 1 < q[0] < n and avoids(body, [P213]) and rc_ok:
            return True
    return False


def sufficient_reference(p):
    """Oracle: the sufficient condition as one loop of its own over the orbit."""
    n = len(p)
    for q, is_rc_side in _symmetry_orbit(p):
        comp_q = len(components(q))
        if comp_q >= 3:
            return True
        rc_ok = (not is_rc_side) or q[0] < n - 1
        body = delete(q, [q[0]])
        if q[0] < n and len(components(body)) > comp_q and rc_ok:
            return True
        if q[0] > 1 and comp_q == 2 and _first_component_starts_with_max(q) and rc_ok:
            return True
        if 1 < q[0] < n and avoids(body, [P213]) and rc_ok:
            return True
    return False


@pytest.mark.parametrize("n", range(1, 8))
def test_one_orbit_pass_matches_reference_theorems(n):
    # every pattern, not only the 1324-avoiders the Table 4 rows sum over
    for p in all_perms(n):
        want = (sufficient_reference(p), necessary_reference(p))
        assert _classify(p) == want, p
        assert (classify_sufficient(p), classify_necessary(p)) == want, p


def test_corollary_families():
    for text in ("4231", "4321", "52341", "54321", "1432", "14523"):
        assert corollary_families(parse_perm(text)), text
    assert not corollary_families(parse_perm("34125"))
    # corollary members are never flagged by the necessary conditions
    for text in ("4231", "4321", "52341", "54321", "1432"):
        assert not classify_necessary(parse_perm(text))


def test_compatible_patterns_length_5():
    want = {
        "14523", "14532", "15342", "15423", "15432", "34125",
        "52341", "52431", "53241", "53421", "54231", "54321",
    }
    got = set()
    for v in compat_table_row(5).verdicts:
        if v.verdict.startswith("compatible"):
            got.add("".join(map(str, v.pattern)))
    assert got == want


def test_compat_search_1342_witness():
    verdict = compat_search(P1342)
    assert verdict.verdict == "incompatible-by-witness"
    pi, image = verdict.witness
    assert avoids(pi, [P1324, P1342])
    assert contains(image, P1342)


def test_compat_search_1324_containing():
    assert compat_search(parse_perm("13254")).verdict == "compatible-by-theorem"


def test_verdict_lattice_consistency():
    for n in (3, 4, 5):
        for v in compat_table_row(n).verdicts:
            p = v.pattern
            assert len(p) == n
            if v.verdict == "incompatible-by-theorem":
                assert classify_sufficient(p) and classify_necessary(p)
            elif v.verdict == "incompatible-by-witness":
                assert classify_necessary(p)
                assert not classify_sufficient(p)
            elif v.verdict == "compatible-by-theorem":
                assert not classify_sufficient(p)


TABLE4 = {
    3: (4, 4, 4, 2, 2, 2),
    4: (18, 20, 20, 3, 3, 5),
    5: (87, 91, 91, 12, 12, 16),
    6: (425, 447, 451, 62, 66, 88),
}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_table4_rows_small(n):
    row = compat_table_row(n)
    got = (
        row.sufficient_incompatible,
        row.witness_incompatible,
        row.necessary_incompatible,
        row.necessary_compatible,
        row.witness_compatible,
        row.sufficient_compatible,
    )
    assert got == TABLE4[n]


@pytest.mark.parametrize("alternate", (False, True))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_one_pass_witnesses(n, alternate):
    row = compat_table_row(n, alternate_priority=alternate)
    assert len(row.verdicts) == row.total
    witnessed = [v for v in row.verdicts if v.witness is not None]
    assert len(witnessed) == row.witness_incompatible
    for v in witnessed:
        pi, image = v.witness
        assert n - 1 <= len(pi) <= n + 2, v
        assert avoids(pi, [P1324, v.pattern]), v
        assert f_map(pi, alternate_priority=alternate) == image, v
        assert contains(image, v.pattern), v


def _patterns_of_length(p, n):
    """Oracle: the length-n patterns of p, standardizing every n-subset."""
    return {standardize([p[i] for i in idxs]) for idxs in combinations(range(len(p)), n)}


@pytest.mark.parametrize("alternate", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_subpattern_masks_match_oracle(n, alternate):
    # every pi the one-pass classification reads: its mask, its image's mask
    # and the patterns the image gains, against the subset oracle
    subpatterns = Subpatterns(n)

    def decode(mask):
        return {p for i, p in enumerate(subpatterns.patterns) if mask >> i & 1}

    m_max = n + 2
    for pi, _ in iter_avoiders_upto([P1324], m_max, m_max * (m_max - 1) // 2):
        if not f_domain(pi):
            continue
        image = f_map(pi, alternate_priority=alternate)
        before = _patterns_of_length(pi, n)
        after = _patterns_of_length(image, n)
        gained = subpatterns.gained(pi, image)
        assert decode(subpatterns.mask(pi)) == before, pi
        assert decode(subpatterns.mask(image)) == after, image
        assert len(gained) == len(set(gained))
        assert set(gained) == after - before, pi
    assert len(subpatterns.patterns) == len(set(subpatterns.patterns))


@pytest.mark.parametrize("alternate", (False, True))
@pytest.mark.parametrize("n", (3, 4, pytest.param(5, marks=pytest.mark.slow)))
def test_one_pass_matches_compat_search(n, alternate):
    patterns = [p for p, _ in iter_avoiders_upto([P1324], n, n * (n - 1) // 2) if len(p) == n]
    row = compat_table_row(n, alternate_priority=alternate)
    assert list(row.verdicts) == [compat_search(p, alternate) for p in patterns]


def test_1342_counterexample_structure():
    cex, preserved = check_1342_bound(6)
    assert preserved
    assert any(tuple(p) == (3, 4, 1, 5, 2) for p, _ in cex[5])
    for n, entries in cex.items():
        for p, k in entries:
            assert k >= 2 * n - 5, (p, k)


def test_compatible_pattern_avoidance_preserved():
    compatible = [parse_perm(t) for t in ("1432", "4231", "4321")]
    for pi, _ in iter_avoiders_upto([P1324], 8, 28):
        if not f_domain(pi):
            continue
        img = f_map(pi)
        for p in compatible:
            if not contains(pi, p):
                assert not contains(img, p), (pi, p)


@pytest.mark.parametrize("partner", ("1342", "1432", "4231", "4321"))
def test_half_monotonicity_from_tables(partner):
    t = count_table(parse_basis(f"1324,{partner}"), 14, 14)
    d = row_differences(t)
    for n in range(1, 14):
        for k in range(0, 15):
            if n >= (k + 7) / 2:
                assert d[n - 1][k] >= 0, (partner, n, k)


def test_difference_sets_examples():
    C = overpartition_gf(16)
    for n, k in ((8, 9), (9, 8), (10, 11)):
        r1, r2, r3 = difference_sets(n, k)
        want1 = 2 * C[k - n] if k >= n else 0
        want23 = C[k - n + 1] if k >= n - 1 else 0
        assert len(r1) == want1
        assert len(r2) == want23
        assert len(r3) == want23


def test_difference_sets_empty_below_minimum():
    r1, r2, r3 = difference_sets(8, 5)  # k < n-1
    assert r1 == [] and r2 == [] and r3 == []


def test_difference_total_matches_row_difference():
    t = count_table(parse_basis("1324,1342"), 11, 10)
    d = row_differences(t)
    for n, k in ((8, 8), (9, 9), (10, 10)):
        r1, r2, r3 = difference_sets(n, k)
        assert len(r1) + len(r2) + len(r3) == d[n - 1][k]


@pytest.mark.slow
def test_table4_row_6():
    row = compat_table_row(6)
    got = (
        row.sufficient_incompatible,
        row.witness_incompatible,
        row.necessary_incompatible,
        row.necessary_compatible,
        row.witness_compatible,
        row.sufficient_compatible,
    )
    assert got == TABLE4[6]


@pytest.mark.slow
def test_f_map_injective_n10():
    images = {}
    count = {}
    for p, k in iter_avoiders_upto([P1324], 10, 45):
        if len(p) != 10 or not f_domain(p):
            continue
        images.setdefault(k, set()).add(f_map(p))
        count[k] = count.get(k, 0) + 1
    for k, c in count.items():
        assert len(images[k]) == c
