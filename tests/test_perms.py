from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from permseq.enumeration import generate_avoiders
from permseq.perms import (
    EMPTY,
    SYMMETRIES,
    Perm,
    avoids,
    complement,
    components,
    contains,
    delete,
    direct_sum,
    first_split,
    format_perm,
    from_lehmer,
    identity,
    insert_value,
    inv_count,
    inverse,
    lehmer_code,
    parse_basis,
    parse_perm,
    pattern_basis,
    reverse,
    reverse_complement,
    skew_sum,
    standardize,
)

from oracles import all_perms

perms_st = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Perm)


def brute_contains(p, q):
    m = len(q)
    return any(
        standardize([p[i] for i in idx]) == tuple(q)
        for idx in combinations(range(len(p)), m)
    )


def test_constructor_rejects_non_permutations():
    with pytest.raises(ValueError):
        Perm((1, 3))
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    assert Perm(()) == EMPTY


def test_parse_and_format():
    assert parse_perm("34152") == Perm((3, 4, 1, 5, 2))
    assert parse_perm("12,11,10,9,8,7,6,5,4,3,2,1") == Perm(range(12, 0, -1))
    assert parse_perm("") == EMPTY
    long = Perm(range(12, 0, -1))
    assert parse_perm(format_perm(long)) == long
    short = Perm((2, 1, 3))
    assert format_perm(short) == "213"


def test_pattern_basis_rules():
    b = pattern_basis(["132", "132", "1324"])
    assert len(b) == 2
    with pytest.raises(ValueError):
        pattern_basis([])
    with pytest.raises(ValueError):
        pattern_basis([""])
    assert parse_basis("1324,231") == {Perm((1, 3, 2, 4)), Perm((2, 3, 1))}


def test_inv_count_examples():
    assert inv_count(parse_perm("1")) == 0
    assert inv_count(parse_perm("21453")) == 3
    assert inv_count(parse_perm("1324")) == 1
    assert inv_count(parse_perm("34152")) == 5


def test_lehmer_examples():
    assert lehmer_code(parse_perm("21")) == (1, 0)
    assert lehmer_code(identity(5)) == (0,) * 5
    assert from_lehmer((2, 1, 0)) == parse_perm("321")
    with pytest.raises(ValueError):
        from_lehmer((3, 0, 0))


@pytest.mark.parametrize("n", range(0, 8))
def test_lehmer_roundtrip_exhaustive(n):
    for p in all_perms(n):
        code = lehmer_code(p)
        assert sum(code) == inv_count(p)
        assert from_lehmer(code) == p


@pytest.mark.slow
def test_lehmer_roundtrip_n8():
    for p in all_perms(8):
        assert from_lehmer(lehmer_code(p)) == p


def test_symmetry_examples():
    assert reverse_complement(parse_perm("1324")) == parse_perm("1324")
    assert inverse(parse_perm("231")) == parse_perm("312")
    assert complement(identity(4)) == reverse(identity(4))


@given(perms_st)
def test_symmetries_preserve_inversions(p):
    k = inv_count(p)
    assert inv_count(inverse(p)) == k
    assert inv_count(reverse_complement(p)) == k


@pytest.mark.parametrize("n", range(7))
def test_symmetries_are_commuting_involutions(n):
    assert [name for name, _ in SYMMETRIES] == [
        "identity", "inverse", "reverse-complement", "inverse-reverse-complement"]
    for _, fn in SYMMETRIES:
        assert fn(parse_perm("1324")) == parse_perm("1324")
    for p in all_perms(n):
        images = [fn(p) for _, fn in SYMMETRIES]
        for (_, fn), q in zip(SYMMETRIES, images):
            assert fn(q) == p and inv_count(q) == inv_count(p)
            for (_, g), r in zip(SYMMETRIES, images):
                assert fn(r) == g(q)
        if n:
            # the entry (1, p[0]) lands at (1, p[0]), (p[0], 1), (n, n+1-p[0])
            # and (n+1-p[0], n): the first entry, value 1, last entry, value n
            same, inv, rc, inv_rc = images
            first = p[0]
            assert same[0] == first
            assert inv[first - 1] == 1
            assert rc[-1] == n + 1 - first
            assert inv_rc[n - first] == n


@given(perms_st)
def test_reverse_and_complement_commute(p):
    assert reverse(complement(p)) == complement(reverse(p)) == reverse_complement(p)


def test_sums():
    s, t = parse_perm("21"), parse_perm("231")
    assert direct_sum(s, t) == parse_perm("21453")
    assert skew_sum(s, t) == parse_perm("54231")
    assert direct_sum(EMPTY, t) == t
    assert direct_sum(t, EMPTY) == t
    assert inv_count(direct_sum(s, t)) == inv_count(s) + inv_count(t)


def test_components():
    assert components(parse_perm("21453")) == [parse_perm("21"), parse_perm("231")]
    assert components(identity(3)) == [Perm((1,))] * 3
    assert components(parse_perm("3142")) == [parse_perm("3142")]
    assert components(EMPTY) == []


@given(perms_st)
def test_components_reassemble(p):
    comps = components(p)
    assert direct_sum(*comps) == p
    assert inv_count(p) + len(comps) >= len(p)


def _first_split_oracle(p, drop=None):
    """The first component's length, read off components() of the built deletion."""
    q = p if drop is None else delete(p, [drop])
    return len(components(q)[0]) if q else 0


def _check_first_split(p):
    assert first_split(p) == _first_split_oracle(p), p
    for e in range(1, len(p) + 1):
        assert first_split(p, e) == _first_split_oracle(p, e), (p, e)


@pytest.mark.parametrize("n", range(0, 8))
def test_first_split_matches_components_exhaustive(n):
    for p in all_perms(n):
        _check_first_split(p)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(Perm))
def test_first_split_matches_components_random(p):
    _check_first_split(p)


def test_first_split_examples():
    p = parse_perm("21453")
    assert first_split(p) == 2
    assert first_split(p, 2) == 1  # 1342
    assert first_split(p, 4) == 2  # 2143
    assert first_split(parse_perm("3142")) == 4
    assert first_split(parse_perm("1")) == 1 and first_split(parse_perm("1"), 1) == 0
    assert first_split(EMPTY) == 0
    with pytest.raises(ValueError):
        first_split(p, 6)


def test_delete():
    assert delete(parse_perm("34152"), {5}) == parse_perm("3412")
    p = parse_perm("34152")
    assert delete(p, set()) == p
    assert delete(p, {1, 2, 3, 4, 5}) == EMPTY
    with pytest.raises(ValueError):
        delete(p, {6})


def test_insert_value_inverts_delete():
    p = parse_perm("3412")
    grown = insert_value(p, 2, 3)
    assert len(grown) == 5
    assert delete(grown, {3}) == p


def test_contains_examples():
    assert contains(parse_perm("241563"), parse_perm("1342"))
    assert contains(parse_perm("34152"), Perm((1,)))
    assert not contains(parse_perm("34152"), parse_perm("1324"))
    assert contains(EMPTY, EMPTY)
    assert not contains(EMPTY, Perm((1,)))


@pytest.mark.parametrize("n", range(0, 7))
def test_contains_matches_bruteforce(n):
    patterns = [q for m in (1, 2, 3, 4) for q in all_perms(m)]
    for p in all_perms(n):
        for q in patterns:
            assert contains(p, q) == brute_contains(p, q), (p, q)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.integers(0, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))),
)
def test_contains_matches_bruteforce_random(p, q):
    # the value-window fill against every subsequence, on lists and on Perms
    want = brute_contains(p, q)
    assert contains(p, q) == want
    assert contains(Perm(p), Perm(q)) == want


@pytest.mark.slow
@pytest.mark.parametrize("n", (7, 8))
def test_contains_matches_bruteforce_large(n):
    # every (p, q) pair; at n = 8 the oracle is the avoider walk (inherited
    # bad-rank masks and the anchored fill, an engine independent of
    # contains), because the subsequence scan takes minutes there
    patterns = [q for m in (3, 4) for q in all_perms(m)]
    for q in patterns:
        if n == 8:
            avoiders = set(generate_avoiders([q], n, n * (n - 1) // 2))
            for p in all_perms(n):
                assert contains(p, q) == (p not in avoiders), (p, q)
        else:
            for p in all_perms(n):
                assert contains(p, q) == brute_contains(p, q), (p, q)


def test_weakly_decreasing_code_iff_avoids_132():
    for n in range(0, 8):
        for p in all_perms(n):
            code = lehmer_code(p)
            weak = all(code[i] >= code[i + 1] for i in range(n - 1))
            assert weak == avoids(p, [parse_perm("132")]), p


def test_identity_pattern_forces_zero():
    # avoiding id_m with k inversions is impossible once n >= k + m
    id3 = identity(3)
    for n in range(3, 9):
        for p in all_perms(n):
            k = inv_count(p)
            if n >= k + 3:
                assert contains(p, id3), p
