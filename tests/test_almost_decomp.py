import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from permseq.almost_decomp import (
    MAX_PATTERN_LENGTH,
    Subpatterns,
    _f,
    _split_walk,
    almost_decomposable,
    check_1342_bound,
    classify,
    compat_search,
    compat_table_row,
    corollary_families,
    difference_sets,
    f_domain,
    f_map,
    theorem_almost_decomp_check,
)
from permseq.enumeration import (
    MAX_LENGTH, count_table, generate_avoiders, iter_avoiders_upto, row_differences)
from permseq.perms import (
    SYMMETRIES,
    Perm,
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

from oracles import all_perms, grow

P1324 = parse_perm("1324")
P1342 = parse_perm("1342")
P213 = parse_perm("213")


def test_f_tilde_examples():
    # f on decomposables (the map written f~ in the literature)
    assert f_map(parse_perm("132")) == parse_perm("1243")
    assert f_map(identity(5)) == identity(6)
    assert f_map(parse_perm("2143")) == parse_perm("21354")


def test_growth_matches_decomp_form():
    # a decomposable 1324-avoider is sigma (+) id_m (+) tau with sigma a
    # 132-avoider and tau a 213-avoider; one insertion after the first
    # component rebuilds it as sigma (+) id_{m+1} (+) tau
    seen = 0
    for p, _ in iter_avoiders_upto([P1324], 8, 28):
        if not is_decomposable(p):
            continue
        sigma, *middle, tau = components(p)
        assert all(c == (1,) for c in middle), p
        assert avoids(sigma, [parse_perm("132")]) and avoids(tau, [P213]), p
        want = direct_sum(sigma, identity(len(middle) + 1), tau)
        assert grow(p) == want, p
        assert f_map(p) == want, p
        seen += 1
    assert seen > 1000


def test_f_core_is_none_exactly_off_domain():
    # the byte core on the splits the sweep carries, against the checked API
    seen = 0
    for pi, *splits in _split_walk([P1324], 8, 28):
        image = _f(pi, *splits)
        p = Perm(pi)
        assert (image is None) == (not f_domain(p)), p
        if image is not None:
            assert Perm(image) == f_map(p), p
            assert len(image) == len(pi) + 1 and inv_count(image) == inv_count(p), p
            seen += 1
    assert seen == 7106


def _f1(q):
    """Case F1 by its definition: delete the first entry, grow the rest,
    put the entry back in front."""
    return insert_value(grow(delete(q, [q[0]])), 0, q[0])


def test_f_cases_are_f1_under_the_symmetries():
    # f's case Fi is F1 conjugated by the i-th symmetry, which carries the
    # deleted boundary entry to the first entry; and neither boundary pair
    # (first entry and value 1, last entry and value n) decomposes twice
    sigma = dict(zip(("F1", "F2", "F3", "F4"), (fn for _, fn in SYMMETRIES)))
    seen = 0
    for pi, *splits in _split_walk([P1324], 8, 28):
        p = Perm(pi)
        case = almost_decomposable(p)
        if case is None:
            continue
        n = len(p)
        s = sigma[case.tag]
        assert Perm(_f(pi, *splits)) == s(_f1(s(p))), p
        assert not (first_split(p, p[0]) < n - 1 and first_split(p, 1) < n - 1), p
        assert not (first_split(p, p[-1]) < n - 1 and first_split(p, n) < n - 1), p
        seen += 1
    assert seen == 5104


def _assert_carried_splits(basis, m_max, k_max):
    """The five splits _split_walk carries equal first_split scans at every
    node of the walk, which is the walk of iter_avoiders_upto."""
    walk = _split_walk(basis, m_max, k_max)
    want = iter_avoiders_upto(basis, m_max, k_max)
    for (values, *splits), (p, _) in zip(walk, want, strict=True):
        assert values == bytes(p), p
        scans = [first_split(p)]
        if p:
            scans += [first_split(p, e) for e in (p[0], 1, p[-1], len(p))]
        assert splits == scans, p


def test_carried_splits_match_scans():
    _assert_carried_splits([P1324], 9, 36)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 5).flatmap(lambda m: st.permutations(range(1, m + 1))),
                min_size=1, max_size=3),
       st.integers(1, 7), st.integers(0, 21))
def test_carried_splits_match_scans_on_any_basis(basis, m_max, k_max):
    _assert_carried_splits([Perm(q) for q in basis], m_max, k_max)


def test_almost_decomposable_cases():
    assert almost_decomposable(parse_perm("12")) is None  # decomposable
    case = almost_decomposable(parse_perm("231"))
    assert case.tag == "F2" and case.witness == 1  # deleting value 1 leaves 12
    case = almost_decomposable(parse_perm("34152"))
    assert case.tag == "F3" and case.witness == 2
    case = almost_decomposable(parse_perm("3142"))
    assert case.tag == "F1" and case.witness == 3
    # 2341 admits both a value-1 and a last-entry deletion: value 1 comes first
    case = almost_decomposable(parse_perm("2341"))
    assert case.tag == "F2" and case.witness == 1
    # all four boundary deletions stay indecomposable here
    assert almost_decomposable(parse_perm("42513")) is None
    # the empty permutation has no entry to delete, so f is undefined on it
    assert almost_decomposable(Perm()) is None
    assert f_domain(Perm()) is False


def test_f_map_examples():
    assert f_map(parse_perm("34152")) == parse_perm("241563")
    assert f_map(identity(MAX_LENGTH - 1)) == identity(MAX_LENGTH)
    # the image would pass the byte form's MAX_LENGTH entries
    with pytest.raises(ValueError, match="length 65 exceeds the supported maximum 64"):
        f_map(identity(MAX_LENGTH))
    assert f_map(parse_perm("2143")) == parse_perm("21354")
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
    compat4 = {p for p in generate_avoiders([P1324], 4, 6) if not classify(p)[1]}
    assert compat4 == parse_basis("1432,4231,4321")
    # flanked inversions are flagged through the three-component condition
    assert classify(parse_perm("1243")) == (True, True)
    # sufficient implies necessary
    for n in range(3, 7):
        for p in generate_avoiders([P1324], n, n * (n - 1) // 2):
            sufficient, necessary = classify(p)
            if len(p) == n and sufficient:
                assert necessary


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
        assert classify(p) == want, p


def test_corollary_families():
    for text in ("4231", "4321", "52341", "54321", "1432", "14523"):
        assert corollary_families(parse_perm(text)), text
    assert not corollary_families(parse_perm("34125"))
    # corollary members are never flagged by the necessary conditions
    for text in ("4231", "4321", "52341", "54321", "1432"):
        assert not classify(parse_perm(text))[1]


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
            sufficient, necessary = classify(p)
            if v.verdict == "incompatible-by-theorem":
                assert sufficient and necessary
            elif v.verdict == "incompatible-by-witness":
                assert necessary
                assert not sufficient
            elif v.verdict == "compatible-by-theorem":
                assert not sufficient


TABLE4 = {
    3: (4, 4, 4, 2, 2, 2),
    4: (18, 20, 20, 3, 3, 5),
    5: (87, 91, 91, 12, 12, 16),
    6: (425, 447, 451, 62, 66, 88),
}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_table4_rows_small(n):
    assert compat_table_row(n).columns == TABLE4[n]


def test_empty_pattern_is_rejected_before_any_walk(monkeypatch):
    import permseq.almost_decomp as ad

    # compat_search walks iter_avoiders_upto, compat_table_row _split_walk
    monkeypatch.setattr(ad, "iter_avoiders_upto", None)
    monkeypatch.setattr(ad, "_split_walk", None)
    message = "pattern length must be at least 1, got 0"
    with pytest.raises(ValueError, match=message):
        compat_search(Perm())
    with pytest.raises(ValueError, match=message):
        compat_table_row(0)


def test_pattern_length_past_the_bound_is_rejected(monkeypatch):
    # images reach n + 3 entries, which must stay within MAX_LENGTH
    import permseq.almost_decomp as ad

    monkeypatch.setattr(ad, "_split_walk", None)
    assert MAX_PATTERN_LENGTH + 3 == MAX_LENGTH
    message = f"pattern length must be at most {MAX_PATTERN_LENGTH}, got {MAX_LENGTH - 2}"
    with pytest.raises(ValueError, match=message):
        compat_table_row(MAX_PATTERN_LENGTH + 1)
    with pytest.raises(ValueError, match=message):
        Subpatterns(MAX_PATTERN_LENGTH + 1)
    assert Subpatterns(MAX_PATTERN_LENGTH).mask(identity(MAX_LENGTH)) == 1


@pytest.mark.parametrize("n", (3, 4, 5))
def test_one_pass_witnesses(n):
    row = compat_table_row(n)
    assert len(row.verdicts) == row.total
    witnessed = [v for v in row.verdicts if v.witness is not None]
    assert len(witnessed) == row.witness_incompatible
    for v in witnessed:
        pi, image = v.witness
        assert n - 1 <= len(pi) <= n + 2, v
        assert avoids(pi, [P1324, v.pattern]), v
        assert f_map(pi) == image, v
        assert contains(image, v.pattern), v


def _patterns_of_length(p, n):
    """Oracle: the length-n patterns of p, standardizing every n-subset."""
    return {standardize([p[i] for i in idxs]) for idxs in combinations(range(len(p)), n)}


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_subpattern_masks_match_oracle(n):
    # every pi the one-pass classification reads: its mask, its image's mask
    # and the patterns the image gains, against the subset oracle
    subpatterns = Subpatterns(n)

    def decode(mask):
        return {p for i, p in enumerate(subpatterns.patterns) if mask >> i & 1}

    m_max = n + 2
    for pi, _ in iter_avoiders_upto([P1324], m_max, m_max * (m_max - 1) // 2):
        if not f_domain(pi):
            continue
        image = f_map(pi)
        before = _patterns_of_length(pi, n)
        after = _patterns_of_length(image, n)
        gained = subpatterns.decode(subpatterns.gained_mask(pi, image))
        assert decode(subpatterns.mask(pi)) == before, pi
        assert decode(subpatterns.mask(image)) == after, image
        assert len(gained) == len(set(gained))
        assert set(gained) == after - before, pi
    assert len(subpatterns.patterns) == len(set(subpatterns.patterns))


@st.composite
def run_perms(draw, max_len=9):
    """Permutations of length <= max_len built from runs of consecutive
    values, ascending or descending, so that deletions of value-adjacent
    entries coincide: a random permutation with each entry inflated to one
    run."""
    sizes = []
    for size in draw(st.lists(st.integers(1, 4), max_size=max_len)):
        if sum(sizes) + size > max_len:
            break
        sizes.append(size)
    order = draw(st.permutations(range(len(sizes))))
    falling = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    out = []
    for size, rank, down in zip(sizes, order, falling):
        base = sum(sizes[i] for i in range(len(sizes)) if order[i] < rank)
        run = range(base + 1, base + size + 1)
        out.extend(reversed(run) if down else run)
    return Perm(out)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), run_perms(), run_perms())
@example(1, identity(9), Perm(range(9, 0, -1)))
@example(6, Perm(range(9, 0, -1)), identity(9))
@example(3, identity(2), parse_perm("3412"))
def test_subpattern_masks_on_any_permutation(n, pi, image):
    # any two permutations, as tuple, list or Perm, against the subset oracle
    before = _patterns_of_length(pi, n)
    after = _patterns_of_length(image, n)
    for kind in (tuple, list, Perm):
        subpatterns = Subpatterns(n)
        gained = subpatterns.decode(subpatterns.gained_mask(kind(pi), kind(image)))
        assert len(gained) == len(set(gained)) and set(gained) == after - before
        for p, want in ((pi, before), (image, after)):
            mask = subpatterns.mask(kind(p))
            assert {q for i, q in enumerate(subpatterns.patterns) if mask >> i & 1} == want
        assert all(type(q) is Perm for q in subpatterns.patterns)


def test_subpatterns_length_bound():
    # the translate tables cover the values 0..MAX_LENGTH
    subpatterns = Subpatterns(3)
    longest, too_long = identity(MAX_LENGTH), identity(MAX_LENGTH + 1)
    assert subpatterns.mask(longest) == subpatterns.gained_mask(identity(2), longest) == 1
    for call in (lambda: subpatterns.mask(too_long),
                 lambda: subpatterns.gained_mask(identity(2), too_long),
                 lambda: subpatterns.gained_mask(too_long, identity(3))):
        with pytest.raises(ValueError, match="length 65 exceeds the supported maximum 64"):
            call()


@pytest.mark.parametrize("n", (3, 4, pytest.param(5, marks=pytest.mark.slow)))
def test_one_pass_matches_compat_search(n):
    patterns = [p for p, _ in iter_avoiders_upto([P1324], n, n * (n - 1) // 2) if len(p) == n]
    row = compat_table_row(n)
    assert list(row.verdicts) == [compat_search(p) for p in patterns]


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


IN_RANGE = [(n, k) for n in range(11) for k in range(14) if 2 * n >= k + 7]
OUT_OF_RANGE = [(n, k) for n in range(11) for k in range(14) if 2 * n < k + 7]


def test_difference_set_sizes_in_range():
    assert len(IN_RANGE) == 56
    C = overpartition_gf(14)
    for n, k in IN_RANGE:
        sizes = tuple(map(len, difference_sets(n, k)))
        want23 = C[k - n + 1] if k >= n - 1 else 0
        assert sizes == (2 * C[k - n] if k >= n else 0, want23, want23), (n, k)


def test_difference_sets_out_of_range():
    for n, k in OUT_OF_RANGE:
        with pytest.raises(ValueError, match=r"require n >= \(k\+7\)/2"):
            difference_sets(n, k)
    with pytest.raises(ValueError, match="nonnegative"):
        difference_sets(3, -1)


def test_difference_total_matches_row_difference():
    t = count_table(parse_basis("1324,1342"), 11, 10)
    d = row_differences(t)
    for n, k in ((8, 8), (9, 9), (10, 10)):
        r1, r2, r3 = difference_sets(n, k)
        assert len(r1) + len(r2) + len(r3) == d[n - 1][k]


@pytest.mark.slow
def test_table4_row_6():
    assert compat_table_row(6).columns == TABLE4[6]


@pytest.mark.slow
def test_row_6_matches_compat_search_on_a_sample():
    row = compat_table_row(6)
    for v in random.Random(6).sample(row.verdicts, 20):
        assert compat_search(v.pattern) == v, v.pattern


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
