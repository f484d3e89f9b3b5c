import pytest
from hypothesis import given, settings, strategies as st

from permseq.enumeration import (
    count_table,
    generate_avoiders,
    indecomposables_upto,
    iter_avoiders_upto,
    limit_report,
)
from permseq.golden import GOLDEN_PARTNERS
from permseq.partitions import (
    FAMILY_RULES,
    check_partition,
    family_counts,
    family_partitions,
    family_sides,
    in_family,
    indecomposable_avoiders,
    lambda_map,
    max_distinct_parts_rule,
    partitions_of,
    verify_transfer_213_2431,
)
from permseq.perms import Perm, components, inv_count, is_decomposable, parse_basis, parse_perm
from permseq.series import named_gf

from oracles import (
    lambda_inverse,
    overpartition_merge,
    overpartition_split,
    overpartitions_of,
    partition_count,
    spm_generate,
)

partitions_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)

SPM = FAMILY_RULES["2341"]
STEEP = FAMILY_RULES["3241"]
CONVEX_PENNY = FAMILY_RULES["3412"]
DISTINCT_EXCEPT_SMALLEST = FAMILY_RULES["3421"]
CONVEX_4231 = FAMILY_RULES["4231"]


def test_partitions_of_order_and_count():
    parts = list(partitions_of(5))
    assert parts[0] == (5,)
    assert parts[-1] == (1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    for k in range(12):
        assert len(list(partitions_of(k))) == partition_count(k)


def test_lambda_examples():
    assert lambda_map(parse_perm("21")) == (1,)
    assert lambda_inverse((1,)) == parse_perm("21")
    assert lambda_inverse(()) == Perm((1,))
    with pytest.raises(ValueError):
        lambda_map(parse_perm("12"))  # decomposable
    with pytest.raises(ValueError):
        lambda_map(parse_perm("132"))


@pytest.mark.parametrize("call, message", [
    (lambda: check_partition((2, 0)), r"parts must be positive: \(2, 0\)"),
    (lambda: check_partition((1, 2)), r"parts must be weakly decreasing: \(1, 2\)"),
    # 2413 is indecomposable, but 243 is an occurrence of 132
    (lambda: lambda_map(parse_perm("2413")), "permutation must avoid 132"),
    # the empty permutation has no component, so it is not indecomposable
    (lambda: lambda_map(Perm()), "permutation must be indecomposable"),
    # a part is overlined at its first occurrence only: 2 then 2-bar is not
    (lambda: overpartition_split(((2, False), (2, True))),
     "only the first occurrence of a part may be overlined"),
])
def test_partition_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("k", range(0, 11))
def test_lambda_roundtrip(k):
    for lam in partitions_of(k):
        p = lambda_inverse(lam)
        assert len(components(p)) == 1
        assert inv_count(p) == k
        assert lambda_map(p) == lam
    # and the other direction over enumerated permutations
    for p in indecomposable_avoiders(parse_basis("132"), k):
        assert lambda_inverse(lambda_map(p)) == p


def test_lambda_step_properties():
    # equal adjacent parts <=> ascent; strict drop <=> next entry is one above the part
    for k in range(0, 11):
        for lam in partitions_of(k):
            p = lambda_inverse(lam)
            padded = list(lam) + [0] * (len(p) - len(lam))
            for i in range(len(p) - 1):
                assert (padded[i] == padded[i + 1]) == (p[i] < p[i + 1])
                if padded[i] > padded[i + 1]:
                    assert p[i + 1] == padded[i + 1] + 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))).map(Perm),
        min_size=1, max_size=3,
    ),
    st.integers(0, 8),
)
def test_indecomposable_buckets_match_per_length_filter(patterns, k_max):
    buckets = indecomposables_upto(patterns, k_max)
    assert len(buckets) == k_max + 1
    for k, bucket in enumerate(buckets):
        # one generate_avoiders walk per length, as the buckets were once built
        want = [p for n in range(1, k + 2) for p in generate_avoiders(patterns, n, k)
                if inv_count(p) == k and len(components(p)) == 1]
        assert bucket == want, (patterns, k)
        assert indecomposable_avoiders(patterns, k) == want


@pytest.mark.parametrize("basis_text", [f"1324,{p}" for p in GOLDEN_PARTNERS] + ["1324,231"])
def test_indecomposable_buckets_match_full_walk_filter(basis_text):
    # the pruned walk skips a decomposable prefix only when no indecomposable
    # extension fits the budget; checked exhaustively at every budget k <= 9
    basis = parse_basis(basis_text)
    for k_max in range(10):
        want: list[list[Perm]] = [[] for _ in range(k_max + 1)]
        for p, k in iter_avoiders_upto(basis, k_max + 1, k_max):
            if not is_decomposable(p):
                want[k].append(p)
        want = [sorted(bucket, key=lambda p: (len(p), p)) for bucket in want]
        assert indecomposables_upto(basis, k_max) == want


def test_lambda_bijection_counts():
    for k in range(0, 15):
        assert len(indecomposable_avoiders(parse_basis("132"), k)) == partition_count(k)


def test_spm_examples():
    assert spm_generate(5) == {(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    assert not in_family(SPM, (2, 2, 2))
    assert [len(spm_generate(k)) for k in range(10)] == [1, 1, 2, 2, 4, 5, 6, 9, 13, 15]


@pytest.mark.parametrize("k", range(0, 13))
def test_spm_generation_matches_characterization(k):
    assert spm_generate(k) == {lam for lam in partitions_of(k) if in_family(SPM, lam)}


def test_steep_examples():
    assert in_family(STEEP, (5, 5, 3, 3, 2, 1))
    assert not in_family(STEEP, (3, 2, 2))
    assert not in_family(STEEP, (5, 3, 3, 3, 1))
    assert in_family(STEEP, (7,))
    assert in_family(STEEP, ())
    assert family_counts(STEEP, 9) == [1, 1, 2, 3, 4, 6, 8, 10, 14, 19]


def test_convex_penny_examples():
    assert in_family(CONVEX_PENNY, (4, 1, 1))
    assert in_family(CONVEX_PENNY, (2, 2, 1, 1))
    assert not in_family(CONVEX_PENNY, (3, 3))
    assert in_family(CONVEX_PENNY, ())
    assert family_counts(CONVEX_PENNY, 9) == [1, 1, 2, 3, 4, 7, 9, 13, 17, 25]


def test_distinct_except_smallest_examples():
    assert in_family(DISTINCT_EXCEPT_SMALLEST, (4, 2, 2, 2))
    assert not in_family(DISTINCT_EXCEPT_SMALLEST, (3, 3, 1))
    assert in_family(DISTINCT_EXCEPT_SMALLEST, (7,))
    assert family_counts(DISTINCT_EXCEPT_SMALLEST, 9) == [1, 1, 2, 3, 5, 6, 10, 12, 17, 22]


def test_convex_4231_examples():
    assert not in_family(CONVEX_4231, (4, 1, 1))
    assert in_family(CONVEX_4231, (3, 2, 2, 1))  # all gaps <= 1
    assert family_counts(CONVEX_4231, 10) == [1, 1, 2, 3, 5, 6, 9, 12, 15, 19, 25]


def test_distinct_part_counts():
    # (3, 2, 1) has three distinct parts and (7,) one
    assert in_family(max_distinct_parts_rule(5), (3, 2, 1))
    assert not in_family(max_distinct_parts_rule(4), (3, 2, 1))
    assert in_family(max_distinct_parts_rule(3), (7,))
    assert not in_family(max_distinct_parts_rule(2), (7,))
    assert family_counts(max_distinct_parts_rule(4), 9) == [1, 1, 2, 3, 5, 7, 10, 13, 17, 20]


def test_overpartition_merge_and_split():
    over = overpartition_merge((2,), (1,))
    assert over == ((2, False), (1, True))
    assert overpartition_merge((), ()) == ()
    assert overpartition_split(over) == ((2,), (1,))
    with pytest.raises(ValueError):
        overpartition_merge((2,), (1, 1))


@pytest.mark.parametrize("k", range(0, 11))
def test_overpartition_bijection(k):
    built = set()
    for i in range(k + 1):
        for lam in partitions_of(i):
            for mu in partitions_of(k - i):
                if len(set(mu)) != len(mu):
                    continue
                over = overpartition_merge(lam, mu)
                assert sum(v for v, _ in over) == k
                assert overpartition_split(over) == (lam, mu)
                built.add(over)
    assert built == set(overpartitions_of(k))


def test_overpartition_counts():
    want = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154]
    assert [len(overpartitions_of(k)) for k in range(10)] == want


@pytest.mark.parametrize("partner", sorted(FAMILY_RULES))
def test_verify_family(partner):
    for left, right in family_sides(partner, FAMILY_RULES[partner], 10):
        assert left == right


def test_family_generator_matches_filter():
    # every family rule generates exactly the partitions that `in_family`
    # accepts, at every k <= 30, and as many as the series catalogue counts
    k_max = 30
    everything = [list(partitions_of(k)) for k in range(k_max + 1)]
    for partner, rule in FAMILY_RULES.items():
        got = family_partitions(rule, k_max)
        assert got == [{lam for lam in parts if in_family(rule, lam)}
                       for parts in everything], partner
        sizes = named_gf(f"132,{partner}", k_max).coeffs
        assert tuple(map(len, got)) == sizes, partner
        # a negative k has no partitions, as in indecomposables_upto
        assert family_partitions(rule, -1) == [] == list(family_sides(partner, rule, -1))
    for m in range(2, 7):
        rule = max_distinct_parts_rule(m)
        got = family_partitions(rule, 16)
        assert got == [{lam for lam in parts if in_family(rule, lam)}
                       for parts in everything[:17]], m


def test_verify_transfer():
    assert all(ok for _, ok in verify_transfer_213_2431(9))


def test_verify_family_descending_length_5():
    # the descending pattern of length m corresponds to at most m-2 distinct parts
    for left, right in family_sides("54321", max_distinct_parts_rule(5), 8):
        assert left == right


@pytest.mark.parametrize("partner", ("2341", "3412", "3421", "4231", "4321"))
def test_family_counts_match_limit_values(partner):
    t = count_table(parse_basis(f"132,{partner}"), 16, 10)
    rep = limit_report(t)
    assert None not in rep.m
    assert list(rep.c) == family_counts(FAMILY_RULES[partner], 10)


def test_steep_matches_213_2431_limits():
    t = count_table(parse_basis("213,2431"), 16, 10)
    rep = limit_report(t)
    assert list(rep.c) == family_counts(STEEP, 10)


def test_squaring_relation():
    # c_k(1324, p) is the self-convolution of c_k(132, p)
    for partner in ("2341", "3412", "3421", "4231", "4321"):
        inner = family_counts(FAMILY_RULES[partner], 10)
        t = count_table(parse_basis(f"1324,{partner}"), 16, 8)
        rep = limit_report(t)
        for k in range(9):
            conv = sum(inner[i] * inner[k - i] for i in range(k + 1))
            assert rep.c[k] == conv, (partner, k)


def test_2413_limit_equals_1324_limit():
    t = count_table(parse_basis("1324,2413"), 18, 12)
    t0 = count_table(parse_basis("1324"), 18, 12)
    rep, rep0 = limit_report(t), limit_report(t0)
    assert None not in rep.m + rep0.m
    assert rep.c == rep0.c


# -- the families as index scans over the zero-padded parts -------------

def _at(parts, i):
    return parts[i] if i < len(parts) else 0


def _scan_spm(parts):
    ell = len(parts)
    if any(parts[i] == parts[i + 1] == parts[i + 2] for i in range(ell - 2)):
        return False
    plateaus = [i for i in range(ell) if _at(parts, i) == _at(parts, i + 1)]
    return all(any(_at(parts, i) - _at(parts, i + 1) >= 2 for i in range(a + 1, b))
               for a, b in zip(plateaus, plateaus[1:]))


def _scan_steep(parts):
    values = sorted(set(parts), reverse=True)
    return all(hi - lo >= parts.count(lo) for hi, lo in zip(values, values[1:]))


def _scan_convex_penny(parts):
    seen_plateau = False
    for i in range(len(parts)):
        if seen_plateau and _at(parts, i) - _at(parts, i + 1) >= 2:
            return False
        seen_plateau = seen_plateau or _at(parts, i) == _at(parts, i + 1)
    return True


def _scan_distinct_except_smallest(parts):
    return all(parts.count(v) == 1 for v in parts if v != parts[-1])


def _scan_convex_4231(parts):
    ell = len(parts)
    for i in range(ell):
        if _at(parts, i) - _at(parts, i + 1) >= 2:
            return all(_at(parts, j) > _at(parts, j + 1) for j in range(i + 1, ell))
    return True


def _scan_distinct_parts(parts, m):
    # the descending pattern of length m: at most m - 2 distinct parts
    return len(set(parts)) <= m - 2


SCANS = {
    "2341": _scan_spm,
    "3241": _scan_steep,
    "3412": _scan_convex_penny,
    "3421": _scan_distinct_except_smallest,
    "4231": _scan_convex_4231,
    "4321": lambda parts: _scan_distinct_parts(parts, 4),
}


def _check_against_scans(lam):
    for partner, rule in FAMILY_RULES.items():
        assert in_family(rule, lam) == SCANS[partner](lam), (partner, lam)
    for m in range(2, 7):
        assert in_family(max_distinct_parts_rule(m), lam) == _scan_distinct_parts(lam, m), (m, lam)


def _scan_overpartitions(k):
    out = []
    for lam in partitions_of(k):
        values = sorted(set(lam), reverse=True)
        for mask in range(1 << len(values)):
            lined = {values[i] for i in range(len(values)) if mask >> i & 1}
            out.append(tuple((v, v in lined and v not in lam[:i]) for i, v in enumerate(lam)))
    return out


def test_family_tests_match_index_scans():
    # every family rule, on every partition of k <= 20, against the
    # definitions read index by index
    assert SCANS.keys() == FAMILY_RULES.keys()
    for k in range(21):
        for lam in partitions_of(k):
            _check_against_scans(lam)
        assert overpartitions_of(k) == _scan_overpartitions(k), k


@given(partitions_st)
def test_family_tests_accept_padded_zero_convention(lam):
    # the same comparison on partitions of up to 54, past the exhaustive k
    _check_against_scans(lam)
