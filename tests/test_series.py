import pytest
from hypothesis import given, settings, strategies as st

from permseq.partitions import (
    FAMILY_RULES,
    family_counts,
    partitions_of,
)
from permseq.series import (
    CATALOGUE,
    TruncatedSeries,
    av_1324_1342,
    distinct_parts_gf,
    named_gf,
    one,
    overpartition_gf,
    partition_gf,
    secondary_gf_1342,
    zero,
)

from oracles import overpartitions_of, partition_count

LIMITS = {
    "1324": [1, 2, 5, 10, 20, 36, 65, 110, 185, 300],
    "1324,1243": [1, 1, 2, 3, 5, 7, 11, 15, 22, 30],
    "1324,2143": [1, 2, 4, 6, 10, 14, 22, 30, 44, 60],
    "1324,1342": [1, 2, 4, 8, 14, 24, 40, 64, 100, 154],
    "1324,1432": [1, 2, 5, 9, 17, 27, 46, 69, 108, 158],
    "1324,4231": [1, 2, 5, 10, 20, 34, 59, 96, 151, 230],
    "1324,4321": [1, 2, 5, 10, 20, 36, 63, 104, 167, 256],
    "1324,2341": [1, 2, 5, 8, 16, 26, 42, 66, 104, 156],
    "1324,2413": [1, 2, 5, 10, 20, 36, 65, 110, 185, 300],
    "1324,2431": [1, 2, 5, 10, 19, 34, 59, 97, 158, 250],
    "1324,3412": [1, 2, 5, 10, 18, 34, 57, 96, 154, 246],
    "1324,3421": [1, 2, 5, 10, 20, 34, 61, 98, 159, 246],
    "132,2341": [1, 1, 2, 2, 4, 5, 6, 9, 13, 15],
    "132,3241": [1, 1, 2, 3, 4, 6, 8, 10, 14, 19],
    "132,3412": [1, 1, 2, 3, 4, 7, 9, 13, 17, 25],
    "132,3421": [1, 1, 2, 3, 5, 6, 10, 12, 17, 22],
    "132,4231": [1, 1, 2, 3, 5, 6, 9, 12, 15, 19],
    "132,4321": [1, 1, 2, 3, 5, 7, 10, 13, 17, 20],
}


def test_arithmetic_basics():
    g = one(8).over_one_minus(1)
    assert list(g.coeffs) == [1] * 9
    sq = g * g
    assert list(sq.coeffs) == [k + 1 for k in range(9)]
    assert (g - g).coeffs == zero(8).coeffs
    assert (one(8) + one(8).shift(3)).coeffs[3] == 1
    assert g.shift(2).coeffs[:3] == (0, 0, 1)
    # a shift past the order leaves only zeros, at the same order
    assert TruncatedSeries((1, 2, 3, 4)).shift(5).coeffs == (0, 0, 0, 0)
    assert g.scalar_mul(5).coeffs[4] == 5


@settings(deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=31), st.integers(1, 40))
def test_over_one_minus_divides_by_one_minus(coeffs, i):
    s = TruncatedSeries(tuple(coeffs))
    order = s.order
    quotient = s.over_one_minus(i)
    assert quotient * (one(order) - one(order).shift(i)) == s
    # 1 + x^i + x^(2i) + ..., written out
    geometric = TruncatedSeries(tuple(int(j % i == 0) for j in range(order + 1)))
    assert quotient == s * geometric


def test_over_one_minus_needs_a_positive_exponent():
    for i in (0, -1):
        with pytest.raises(ValueError, match="exponent must be positive"):
            one(5).over_one_minus(i)


def test_mismatched_orders_truncate():
    a = TruncatedSeries((1, 1, 1, 1, 1))
    b = TruncatedSeries((1, 2))
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_partition_gf():
    P = partition_gf(12)
    assert list(P.coeffs) == [partition_count(k) for k in range(13)]
    P2 = P * P
    assert list(P2.coeffs[:10]) == LIMITS["1324"]


def test_distinct_and_overpartition_gfs_vs_enumeration():
    D = distinct_parts_gf(20)
    for k in range(21):
        want = sum(1 for lam in partitions_of(k) if len(set(lam)) == len(lam))
        assert D[k] == want
    O = overpartition_gf(20)
    for k in range(14):
        assert O[k] == len(overpartitions_of(k))


@pytest.mark.parametrize("name,want", sorted(LIMITS.items()))
def test_named_gf_catalogue(name, want):
    series = named_gf(name, 12)
    assert list(series.coeffs[: len(want)]) == want


def test_named_gf_unknown():
    with pytest.raises(ValueError, match="unknown generating function 'nope'; known: 132, "):
        named_gf("nope", 10)


@pytest.mark.parametrize("name", [name for name in CATALOGUE if name not in ("P", "distinct")])
def test_named_gf_any_spelling(name):
    # a basis is looked up by its canonical form, whatever its order and spacing
    want = named_gf(name, 20).coeffs
    patterns = name.split(",")
    for spelling in (",".join(reversed(patterns)), " " + ", ".join(patterns) + " ",
                     " ,".join(reversed(patterns))):
        assert named_gf(spelling, 20).coeffs == want, spelling


def test_named_gf_unknown_basis():
    with pytest.raises(ValueError, match="unknown generating function '1234, 1324'"):
        named_gf("1234, 1324", 10)


def test_named_gf_negative_order():
    for name in CATALOGUE:
        with pytest.raises(ValueError, match="series order must be nonnegative, got -1"):
            named_gf(name, -1)


def test_enumeration_backed_entries_match_family_counts():
    assert list(named_gf("132,3241", 12).coeffs) == family_counts(FAMILY_RULES["3241"], 12)
    steep = named_gf("132,3241", 12)
    assert (partition_gf(12) * steep).coeffs == named_gf("1324,2431", 12).coeffs


def test_closed_forms_match_enumeration_higher_order():
    # the product/double-sum truncations stay exact well past the table range
    for partner in ("2341", "3241", "3412", "3421", "4231", "4321"):
        gf = named_gf(f"132,{partner}", 20)
        assert list(gf.coeffs) == family_counts(FAMILY_RULES[partner], 20), partner
    # the steep DP and the convex-penny closed form, past the benchmark order
    for partner in ("3241", "3412"):
        gf = named_gf(f"132,{partner}", 24)
        assert list(gf.coeffs) == family_counts(FAMILY_RULES[partner], 24), partner


def test_av_1324_1342_values():
    assert av_1324_1342(8, 9) == 134
    assert av_1324_1342(15, 15) == 1464
    assert av_1324_1342(9, 0) == 1
    with pytest.raises(ValueError):
        av_1324_1342(7, 9)  # outside n >= (k+7)/2


@pytest.mark.parametrize("call, message", [
    (lambda: partition_gf(4).shift(-1), "shift must be nonnegative"),
    # n = 5 meets n >= (k+7)/2 for k = -1, so the budget check answers
    (lambda: av_1324_1342(5, -1), "k must be nonnegative"),
])
def test_series_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_secondary_gf_1342():
    s = secondary_gf_1342(10, 16)
    assert all(s[k] == 0 for k in range(9))
    assert list(s.coeffs[9:16]) == [2, 6, 12, 24, 44, 76, 128]
    # the row's first term x^9 lies past order 5
    assert secondary_gf_1342(10, 5).coeffs == (0,) * 6
