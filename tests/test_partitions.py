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
    FAMILY_TESTS,
    check_partition,
    family_counts,
    family_sides,
    indecomposable_avoiders,
    is_convex_4231,
    is_convex_penny,
    is_distinct_except_smallest,
    is_spm,
    is_steep,
    lambda_map,
    max_distinct_parts,
    distinct_part_count,
    partitions_of,
    verify_transfer_213_2431,
)
from permseq.perms import Perm, components, inv_count, is_decomposable, parse_basis, parse_perm

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
    assert not is_spm((2, 2, 2))
    assert [len(spm_generate(k)) for k in range(10)] == [1, 1, 2, 2, 4, 5, 6, 9, 13, 15]


@pytest.mark.parametrize("k", range(0, 13))
def test_spm_generation_matches_characterization(k):
    assert spm_generate(k) == {lam for lam in partitions_of(k) if is_spm(lam)}


def test_steep_examples():
    assert is_steep((5, 5, 3, 3, 2, 1))
    assert not is_steep((3, 2, 2))
    assert not is_steep((5, 3, 3, 3, 1))
    assert is_steep((7,))
    assert is_steep(())
    assert family_counts(is_steep, 9) == [1, 1, 2, 3, 4, 6, 8, 10, 14, 19]


def test_convex_penny_examples():
    assert is_convex_penny((4, 1, 1))
    assert is_convex_penny((2, 2, 1, 1))
    assert not is_convex_penny((3, 3))
    assert is_convex_penny(())
    assert family_counts(is_convex_penny, 9) == [1, 1, 2, 3, 4, 7, 9, 13, 17, 25]


def test_distinct_except_smallest_examples():
    assert is_distinct_except_smallest((4, 2, 2, 2))
    assert not is_distinct_except_smallest((3, 3, 1))
    assert is_distinct_except_smallest((7,))
    assert family_counts(is_distinct_except_smallest, 9) == [1, 1, 2, 3, 5, 6, 10, 12, 17, 22]


def test_convex_4231_examples():
    assert not is_convex_4231((4, 1, 1))
    assert is_convex_4231((3, 2, 2, 1))  # all gaps <= 1
    assert family_counts(is_convex_4231, 10) == [1, 1, 2, 3, 5, 6, 9, 12, 15, 19, 25]


def test_distinct_part_counts():
    assert distinct_part_count((3, 2, 1)) == 3
    assert distinct_part_count((7,)) == 1
    two = max_distinct_parts(4)
    assert family_counts(two, 9) == [1, 1, 2, 3, 5, 7, 10, 13, 17, 20]


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


@pytest.mark.parametrize("partner", sorted(FAMILY_TESTS))
def test_verify_family(partner):
    for left, right in family_sides(partner, FAMILY_TESTS[partner], 10):
        assert left == right


def test_verify_transfer():
    assert all(ok for _, ok in verify_transfer_213_2431(9))


def test_verify_family_descending_length_5():
    # the descending pattern of length m corresponds to at most m-2 distinct parts
    for left, right in family_sides("54321", max_distinct_parts(5), 8):
        assert left == right


@pytest.mark.parametrize("partner", ("2341", "3412", "3421", "4231", "4321"))
def test_family_counts_match_limit_values(partner):
    t = count_table(parse_basis(f"132,{partner}"), 16, 10)
    rep = limit_report(t)
    assert None not in rep.m
    assert list(rep.c) == family_counts(FAMILY_TESTS[partner], 10)


def test_steep_matches_213_2431_limits():
    t = count_table(parse_basis("213,2431"), 16, 10)
    rep = limit_report(t)
    assert list(rep.c) == family_counts(is_steep, 10)


def test_squaring_relation():
    # c_k(1324, p) is the self-convolution of c_k(132, p)
    for partner in ("2341", "3412", "3421", "4231", "4321"):
        inner = family_counts(FAMILY_TESTS[partner], 10)
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


# -- the family tests as index scans over the zero-padded parts ---------

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


def _scan_overpartitions(k):
    out = []
    for lam in partitions_of(k):
        values = sorted(set(lam), reverse=True)
        for mask in range(1 << len(values)):
            lined = {values[i] for i in range(len(values)) if mask >> i & 1}
            out.append(tuple((v, v in lined and v not in lam[:i]) for i, v in enumerate(lam)))
    return out


def test_family_tests_match_index_scans():
    # every partition of k <= 20, against the definitions read index by index
    scans = {
        is_spm: _scan_spm,
        is_steep: _scan_steep,
        is_convex_penny: _scan_convex_penny,
        is_distinct_except_smallest: _scan_distinct_except_smallest,
        is_convex_4231: _scan_convex_4231,
    }
    for k in range(21):
        for lam in partitions_of(k):
            for test, scan in scans.items():
                assert test(lam) == scan(lam), (test.__name__, lam)
            assert distinct_part_count(lam) == len(set(lam))
            assert max_distinct_parts(4)(lam) == (len(set(lam)) <= 2)
        assert overpartitions_of(k) == _scan_overpartitions(k), k


@given(partitions_st)
def test_family_tests_accept_padded_zero_convention(lam):
    # one linear pass; never raises on any valid partition
    for test in FAMILY_TESTS.values():
        assert test(lam) in (True, False)
