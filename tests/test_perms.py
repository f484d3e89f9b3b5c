import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from permseq.enumeration import generate_avoiders
from permseq.perms import (
    EMPTY,
    SYMMETRIES,
    Perm,
    avoids,
    basis_key,
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
    _windows,
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


@given(st.lists(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
                .map(Perm), min_size=1, max_size=3))
def test_basis_key_round_trips(patterns):
    basis = pattern_basis(patterns)
    assert parse_basis(basis_key(basis)) == basis


def test_basis_key_refuses_a_pattern_without_text_form():
    # format_perm writes 10 or more entries with commas, which parse_basis splits
    with pytest.raises(ValueError, match="^pattern 1,2,3,4,5,6,7,8,9,10 has no text form in a basis$"):
        basis_key([identity(10), parse_perm("21")])


def test_inv_count_examples():
    assert inv_count(parse_perm("1")) == 0
    assert inv_count(parse_perm("21453")) == 3
    assert inv_count(parse_perm("1324")) == 1
    assert inv_count(parse_perm("34152")) == 5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), unique=True, max_size=14))
@example([])
def test_inv_count_matches_pair_count(seq):
    # any distinct integers, not only permutations
    assert inv_count(seq) == sum(1 for a, b in combinations(seq, 2) if a > b)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-40, 40), st.integers(-10**12, 10**12)),
                unique=True, max_size=14))
@example([])
@example([0, -1, 5])
def test_lehmer_code_matches_pair_count(seq):
    # any distinct integers: values <= 0, gaps, and spreads too wide for a mask
    want = tuple(sum(1 for b in seq[i + 1:] if b < a) for i, a in enumerate(seq))
    assert lehmer_code(seq) == want
    assert lehmer_code(tuple(seq)) == want


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


def _is_permutation(p):
    return isinstance(p, Perm) and sorted(p) == list(range(1, len(p) + 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), unique=True, max_size=12))
@example([])
def test_standardize_builds_a_permutation(seq):
    # standardize skips Perm's check: its ranks must be 1..n anyway
    p = standardize(seq)
    assert _is_permutation(p)
    assert all((p[i] < p[j]) == (seq[i] < seq[j])
               for i, j in combinations(range(len(seq)), 2))


@settings(max_examples=300, deadline=None)
@given(perms_st, st.data())
def test_insert_value_on_a_perm_builds_a_permutation(p, data):
    # insert_value skips Perm's check on Perm input only
    pos = data.draw(st.integers(0, len(p)))
    value = data.draw(st.integers(1, len(p) + 1))
    grown = insert_value(p, pos, value)
    assert _is_permutation(grown)
    assert grown[pos] == value and delete(grown, {value}) == p
    assert insert_value(list(p), pos, value) == grown


def test_insert_value_checks_other_input():
    for bad in ((1, 3), (2, 2), [0, 1], (1, 2, 5)):
        with pytest.raises(ValueError, match="not a permutation"):
            insert_value(bad, 0, 1)
    with pytest.raises(ValueError, match="position 4 not in 0..2"):
        insert_value(Perm((2, 1)), 4, 1)
    with pytest.raises(ValueError, match="value 4 not in 1..3"):
        insert_value(Perm((2, 1)), 0, 4)


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


_PAIRS_S34 = [(parse_perm("1324"), parse_perm("231"))] + random.Random(31).sample(
    list(combinations([*all_perms(3), *all_perms(4)], 2)), 23)


@pytest.mark.slow
@pytest.mark.parametrize("pair", _PAIRS_S34, ids=lambda pair: basis_key(pair))
def test_avoids_matches_walk_on_two_pattern_bases(pair):
    # every p of length 8 against a two-pattern basis; the oracle is the
    # avoider walk, an engine independent of the mask search
    avoiders = set(generate_avoiders(pair, 8, 28))
    for p in all_perms(8):
        assert avoids(p, pair) == (p in avoiders), (p, pair)


def test_windows_kinds():
    # how later roles read each role's value: 0 never, 1 only as a lower
    # bound, 2 only as an upper bound, 3 both
    assert _windows((1, 3, 2, 4))[2] == (1, 3, 0, 0)
    assert _windows((2, 3, 1))[2] == (3, 0, 0)
    assert _windows((1, 3, 4, 2))[2] == (1, 3, 0, 0)
    assert _windows((3, 2, 1))[2] == (2, 2, 0)
    assert _windows((1, 3, 2, 4))[3] == (-1, 0, 1, 1)


def _walk_verdicts(q, budget):
    """The avoiders of q of lengths 9 and 10 within the budget, and the
    one-rank extensions of the length-9 ones that the walk rejected: both
    read off the avoider walk, whose bad ranks come from the anchored fill,
    not from contains."""
    short = generate_avoiders([q], 9, budget)
    long = set(generate_avoiders([q], 10, budget))
    # appending rank r to a length-9 p adds 10 - r inversions
    rejected = [ext for p in short for r in range(max(1, 10 - budget + inv_count(p)), 11)
                if (ext := insert_value(p, 9, r)) not in long]
    return [*short, *long], rejected


_SAMPLE_S5 = random.Random(18).sample(list(all_perms(5)), 6)


@pytest.mark.parametrize("q", [*all_perms(3), *all_perms(4), *_SAMPLE_S5], ids=format_perm)
def test_contains_exhausts_on_avoiders(q):
    # the search runs dry on every avoider and finds q in every rejected
    # extension; the walk of q's complement, complemented back, covers the
    # avoiders with many inversions (no 123-avoider of length 9 or 10 has
    # 6 or fewer)
    seen = [0, 0]
    for pattern, back in ((q, Perm), (complement(q), complement)):
        avoiders, rejected = _walk_verdicts(pattern, 6)
        for p in avoiders:
            assert not contains(back(p), q), (p, q)
        for p in rejected:
            assert contains(back(p), q), (p, q)
        seen[0] += len(avoiders)
        seen[1] += len(rejected)
    assert min(seen) > 0


def _strip_steps(p, q, picks):
    """p, then p less one entry of its first occurrence of q (found by the
    subsequence scan), and so on until it avoids q, with picks choosing which
    entry: the last step avoids q, the one before contains it."""
    m = len(q)
    while True:
        yield p
        hit = next((idx for idx in combinations(range(len(p)), m)
                    if standardize([p[i] for i in idx]) == q), None)
        if hit is None:
            return
        p = delete(p, [p[hit[picks.draw(st.integers(0, m - 1))]]])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))),
    st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))),
    st.data(),
)
def test_contains_on_random_avoiders(p, q, other, picks):
    # random avoiders of length <= 10, where the search exhausts, against the
    # subsequence scan; a second pattern mixes in contained answers
    q, other = Perm(q), Perm(other)
    *_, p = _strip_steps(Perm(p), q, picks)
    assert not contains(p, q)
    assert contains(p, other) == brute_contains(p, other)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))),
    st.integers(-20, 20),
    st.integers(1, 4),
    st.integers(0, 2),
)
def test_contains_on_unstandardized_sequences(p, q, shift, scale, cut):
    # slices and shifted or spread values, as almost_decomp passes q[1:]
    want = brute_contains(standardize(p[cut:]), standardize(q[cut:]))
    seq = [scale * v + shift for v in p[cut:]]
    pat = [v - shift for v in q[cut:]]
    assert contains(seq, pat) == want
    assert contains(tuple(p[cut:]), tuple(q[cut:])) == want


def _forms(p, draw):
    """p as a Perm, a list, a tuple or bytes, or with its values shifted and
    spread (as almost_decomp passes slices); all are order-isomorphic."""
    kind = draw(st.sampled_from(("perm", "list", "tuple", "bytes", "spread")))
    if kind == "perm":
        return Perm(p)
    if kind == "list":
        return list(p)
    if kind == "tuple":
        return tuple(p)
    if kind == "bytes":
        return bytes(p)
    scale = draw(st.sampled_from((1, 3, 10**9)))
    shift = draw(st.integers(-30, 30))
    return [scale * v + shift for v in p]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 10).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.lists(st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1)))),
             min_size=1, max_size=3),
    st.data(),
)
def test_avoids_matches_bruteforce_on_mixed_bases(p, basis, data):
    # bases of 1-3 patterns of lengths 1-5 share one set of masks: the mask
    # search answers lengths 3 and 4, the backtracking search the rest. The
    # last two steps of stripping p of the first pattern are an avoider, on
    # which that search runs dry before the others, and a near-avoider, whose
    # few occurrences a pruning fault would miss
    basis = [Perm(q) for q in basis]
    for p in [*_strip_steps(Perm(p), basis[0], data)][-2:]:
        want = not any(brute_contains(p, q) for q in basis)
        assert avoids(_forms(p, data.draw), [_forms(q, data.draw) for q in basis]) == want
        assert avoids(p, basis) == want


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
