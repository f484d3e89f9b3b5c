import concurrent.futures
import hashlib
import itertools
import os

import pytest
from hypothesis import example, given, settings, strategies as st

import permseq.enumeration as enumeration
from permseq.enumeration import (
    MAX_LENGTH,
    REPRESENTATIVE_PARTNERS,
    TAIL_WINDOW,
    CountTable,
    _automaton,
    _fill,
    _plan,
    _start,
    _walk,
    count_table,
    diagonal_limit,
    generate_avoiders,
    has_limit_sequence,
    indecomposables_upto,
    iter_avoiders_upto,
    limit_depth,
    limit_report,
    monotonicity_scan,
    row_differences,
    second_differences,
    symmetry_representative,
    zero_row_threshold,
)
from permseq.perms import (
    Perm,
    avoids,
    contains,
    direct_sum,
    first_split,
    identity,
    inv_count,
    inverse,
    parse_basis,
    parse_perm,
    reverse_complement,
    standardize,
)
from permseq.series import av_1324_1342
from permseq.tableio import diffs_to_csv, table_to_csv, table_to_markdown

from oracles import all_perms

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

pattern_st = st.integers(1, 5).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
).map(Perm)
basis_st = st.lists(pattern_st, min_size=1, max_size=3)
# decomposable patterns are the ones the component automaton has to track
DECOMPOSABLE = [parse_perm(q) for q in ("1", "12", "123", "132", "213", "2143", "1324",
                                         "1243", "3214", "12453", "21354", "13254")]
component_basis_st = st.lists(st.one_of(pattern_st, st.sampled_from(DECOMPOSABLE)),
                              min_size=1, max_size=3)


def brute_rows(patterns, n_max, k_max):
    """Table rows built by filtering all of S_n."""
    rows = []
    for n in range(1, n_max + 1):
        row = [0] * (k_max + 1)
        for p in all_perms(n):
            k = inv_count(p)
            if k <= k_max and avoids(p, patterns):
                row[k] += 1
        rows.append(tuple(row))
    return tuple(rows)


def _bad_ranks_brute(tau, patterns, t):
    """Reference for the bad-rank masks: bad[r] for r in 1..t+1.

    tau avoids the patterns, so any occurrence in tau + r uses the new entry.
    """
    assert avoids(tau, patterns), tau
    bad = [False] * (t + 2)
    for r in range(1, t + 2):
        child = [v + 1 if v >= r else v for v in tau] + [r]
        bad[r] = any(contains(child, q) for q in patterns)
    return bad


def _anchored_brute(tau, q, floor):
    """Reference for one fill: the mask of ranks r >= floor such that tau + r
    has an occurrence of q with tau's last entry and the new one as q[-2], q[-1]."""
    t = len(tau)
    ranks = 0
    for r in range(floor, t + 2):
        child = [v + 1 if v >= r else v for v in tau] + [r]
        for rest in itertools.combinations(range(t - 1), len(q) - 2):
            if standardize([child[i] for i in rest] + child[-2:]) == q:
                ranks |= 1 << r
                break
    return ranks


def _walk_tallies(patterns, n_max, k_max):
    """Table rows tallied over every node of the full walk."""
    rows = [[0] * (k_max + 1) for _ in range(n_max)]
    for p, k in iter_avoiders_upto(patterns, n_max, k_max):
        rows[len(p) - 1][k] += 1
    return tuple(tuple(row) for row in rows)


def test_generate_avoiders_examples():
    got = generate_avoiders(parse_basis("132"), 3, 3)
    assert ["".join(map(str, q)) for q in got] == ["123", "213", "231", "312", "321"]
    assert generate_avoiders(parse_basis("1324"), 0, 0) == [Perm(())]
    # a(4,2) = 5 for {1324,1243}; the budget also admits a(4,0)=1, a(4,1)=1
    exact2 = [p for p in generate_avoiders(parse_basis("1324,1243"), 4, 2) if inv_count(p) == 2]
    assert len(exact2) == 5
    assert len(generate_avoiders(parse_basis("1324,1243"), 4, 2)) == 7


def test_generate_avoiders_guards():
    with pytest.raises(ValueError):
        generate_avoiders(parse_basis("21"), 65, 3)
    with pytest.raises(ValueError):
        generate_avoiders(parse_basis("21"), -1, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: generate_avoiders(parse_basis("21"), 3, -1),
     ValueError, "inversion budget must be nonnegative"),
    (lambda: count_table(["1324"], 4, 3).value(5, 0), IndexError, r"cell \(5, 0\) outside table"),
    (lambda: count_table(["1324"], 4, 3).value(4, 4), IndexError, r"cell \(4, 4\) outside table"),
    (lambda: symmetry_representative(["1234", "2143"]),
     ValueError, "expected a pair containing 1324"),
    (lambda: symmetry_representative(["1324", "231"]),
     ValueError, "the partner pattern must have length 4"),
])
def test_enumeration_inputs_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_walk_past_the_length_cap_is_a_value_error():
    # the byte tables stop at MAX_LENGTH, so each walk checks its longest
    # length before the first node; indecomposables_upto walks to k_max + 1
    message = f"length {MAX_LENGTH + 1} exceeds the supported maximum {MAX_LENGTH}"
    for call in (lambda: next(iter_avoiders_upto(["21"], MAX_LENGTH + 1, 0)),
                 lambda: generate_avoiders(["21"], MAX_LENGTH + 1, 0),
                 lambda: indecomposables_upto(["12"], MAX_LENGTH)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert len(list(iter_avoiders_upto(["21"], MAX_LENGTH, 0))) == MAX_LENGTH
    # the descending permutations, the last with 55 <= 63 inversions
    buckets = indecomposables_upto(["12"], MAX_LENGTH - 1)
    assert [(k, bucket) for k, bucket in enumerate(buckets) if bucket] == [
        (n * (n - 1) // 2, [Perm(range(n, 0, -1))]) for n in range(1, 12)]


@pytest.mark.parametrize("n_max, k_max, message", [
    (65, 3, "n_max must be in 1..64"),
    (0, 3, "n_max must be in 1..64"),
    (5, 201, "k_max must be in 0..200"),
    (5, -1, "k_max must be in 0..200"),
])
def test_count_table_bounds(n_max, k_max, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        count_table(["1324"], n_max, k_max)


def test_generate_avoiders_sorted_deterministic():
    out = generate_avoiders(parse_basis("1324,231"), 6, 15)
    assert out == sorted(out)
    assert out == generate_avoiders(parse_basis("1324,231"), 6, 15)


@settings(max_examples=60, deadline=None)
@given(basis_st, st.integers(1, 7), st.integers(0, 21))
def test_generate_avoiders_is_one_length_of_the_stream(basis, n, k_max):
    stream = [p for p, _ in iter_avoiders_upto(basis, n, k_max) if len(p) == n]
    got = generate_avoiders(basis, n, k_max)
    assert got == sorted(stream)
    assert all(type(p) is Perm and inv_count(p) <= k_max and avoids(p, basis) for p in got)


@pytest.mark.parametrize(
    "basis_text",
    ["132", "1324,1243", "1324,1342", "1324,321", "213,231", "1234", "1324,2413"],
)
def test_oracle_equivalence_small(basis_text):
    basis = parse_basis(basis_text)
    for n in range(0, 7):
        kmax = max(0, n * (n - 1) // 2)
        got = generate_avoiders(basis, n, kmax)
        want = sorted(
            p for p in all_perms(n) if avoids(p, basis)
        ) if n else [Perm(())]
        assert got == want


def test_count_table_values():
    t = count_table(parse_basis("1324,1342"), 8, 9)
    assert t.value(5, 3) == 8
    assert t.value(8, 9) == 134
    t2 = count_table(parse_basis("1324,321"), 11, 15)
    assert t2.value(10, 15) == 60
    assert t2.value(11, 15) == 52
    t3 = count_table(parse_basis("1234"), 10, 6)
    for n in range(1, 11):
        for k in range(0, 7):
            if n >= k + 4:
                assert t3.value(n, k) == 0


def test_count_table_row_invariants():
    t = count_table(parse_basis("1324,2341"), 9, 12)
    for n in range(1, 10):
        assert t.value(n, 0) == 1
        for k in range(0, 13):
            if k > n * (n - 1) // 2:
                assert t.value(n, k) == 0


def test_count_table_matches_brute():
    for basis_text in ("1324,4231", "132,3412", "213,2431"):
        basis = parse_basis(basis_text)
        assert count_table(basis, 6, 10).rows == brute_rows(basis, 6, 10)


@settings(max_examples=150, deadline=None)
@given(basis_st, st.integers(1, 7), st.integers(0, 21))
def test_count_table_matches_brute_random(patterns, n_max, k_max):
    assert count_table(patterns, n_max, k_max).rows == brute_rows(patterns, n_max, k_max)


@settings(max_examples=150, deadline=None)
@given(basis_st, st.integers(2, 7), st.integers(0, 21))
def test_inherited_bad_ranks_match_oracle(patterns, n_max, k_max):
    # every node's mask agrees with the brute-force scan at the ranks the
    # walk can still append, those at or above the node's budget floor, and
    # every node the walk yields carries its first split
    basis = frozenset(patterns)
    plans, root = _start(basis)
    for tau, inv, bad, split, _, _ in [root, *_walk(root, plans, n_max, k_max)]:
        # the root's split stays 1, at or above the one rank it appends
        assert split == (first_split(tau) if tau else 1), tau
        if bad is None:
            continue
        t = len(tau)
        want = _bad_ranks_brute(tau, basis, t)
        for r in range(max(1, t + 1 - (k_max - inv)), t + 2):
            assert bool(bad >> r & 1) == want[r], (tau, inv, r)


def _preorder_oracle(patterns, n_max, k_max):
    """(perm, inv) for every avoider of length 1..n_max within the budget, a
    node before its children and the children by ascending appended rank."""
    out = []

    def visit(tau):
        for r in range(1, len(tau) + 2):
            child = tuple(v + 1 if v >= r else v for v in tau) + (r,)
            inv = inv_count(child)
            if inv <= k_max and avoids(child, patterns):
                out.append((Perm(child), inv))
                if len(child) < n_max:
                    visit(child)

    if n_max > 0:
        visit(())
    return out


@settings(max_examples=150, deadline=None)
@given(basis_st, st.integers(0, 7), st.integers(0, 21))
def test_iter_avoiders_upto_matches_preorder_oracle(patterns, n_max, k_max):
    # compat witnesses are the first found in walk order, so the order is pinned
    got = list(iter_avoiders_upto(patterns, n_max, k_max))
    assert got == _preorder_oracle(patterns, n_max, k_max)
    assert all(type(p) is Perm for p, _ in got)


@pytest.mark.parametrize("basis_text, k_max", [("1324", 0), ("1324", 5), ("12", 3)])
def test_iter_avoiders_upto_zero_length_is_empty(basis_text, k_max):
    # the walk descends into every node with a bad mask, and the root has
    # one, so the root's length check alone must stop n_max = 0
    assert next(iter_avoiders_upto(parse_basis(basis_text), 0, k_max), None) is None


@settings(max_examples=120, deadline=None)
@given(component_basis_st, st.integers(1, 9), st.integers(0, 10))
def test_count_table_matches_full_walk_random(patterns, n_max, k_max):
    # the component DP over the pruned walk against every node of the full walk
    assert count_table(patterns, n_max, k_max).rows == _walk_tallies(patterns, n_max, k_max)


@st.composite
def fill_case_st(draw):
    """(q, tau, floor, bad) for one fill: patterns longer than the walk tests
    reach, tau as a tuple or as bytes (the walk's node values), and masks
    holding no, random, all or all but one rank >= floor."""
    q = draw(st.integers(2, 7).flatmap(lambda m: st.permutations(range(1, m + 1))).map(Perm))
    # from one entry too short to hold q's body up to length 9
    t = draw(st.integers(max(1, len(q) - 2), 9))
    form = draw(st.sampled_from([tuple, bytes]))
    tau = form(draw(st.permutations(range(1, t + 1))))
    floor = draw(st.one_of(st.just(1), st.integers(1, t + 1)))
    above = (1 << (t + 2)) - (1 << floor)
    bad = draw(st.integers(0, (1 << (t + 2)) - 1))
    kind = draw(st.sampled_from(["empty", "random", "full", "one short"]))
    if kind == "empty":
        bad &= ~above
    elif kind != "random":
        bad |= above
        if kind == "one short":
            bad &= ~(1 << draw(st.integers(floor, t + 1)))
    return q, tau, floor, bad


@settings(max_examples=400, deadline=None)
@given(fill_case_st())
# role 1 of 1324 fixes the interval; each complete placement backtracks to
# it, so role 0 is never tried again under the same role 1
@example((Perm((1, 3, 2, 4)), (1, 3, 4, 2), 1, 0))
# role 2 of 15243 fixes the interval; roles 1 and 0 only decide whether it
# is ORed in
@example((Perm((1, 5, 2, 4, 3)), (1, 2, 3, 5, 4), 1, 0))
# the anchor of 123 fixes the interval alone, so the first complete
# placement returns
@example((Perm((1, 2, 3)), (1, 2, 4, 3), 1, 0))
# a body of length 1: the anchor alone fixes the interval
@example((Perm((2, 1)), bytes((2, 3, 1)), 1, 0))
# role 0 is the interval's lower end: the lowest value in its window left
# of role 1 bounds the union of its intervals
@example((Perm((1, 3, 2)), bytes((2, 4, 1, 3)), 1, 0))
@example((Perm((2, 1, 4, 3)), bytes((3, 2, 5, 1, 6, 4)), 1, 0))
# role 0 is the interval's upper end: the highest such value bounds it
@example((Perm((3, 1, 2)), bytes((3, 1, 4, 2)), 1, 0))
@example((Perm((3, 1, 4, 2)), bytes((2, 4, 3, 1, 5)), 1, 0))
def test_fill_matches_anchored_oracle(case):
    q, tau, floor, bad = case
    got = _fill(tau, _plan(q), floor, bad)
    below = (1 << floor) - 1
    assert got & below == bad & below
    assert got >> floor == (bad | _anchored_brute(tau, q, floor)) >> floor


@settings(max_examples=100, deadline=None)
@given(component_basis_st, st.integers(1, 8), st.integers(0, 12))
def test_pruned_walk_node_state_matches_oracle(patterns, n_max, k_max):
    # every node of the pruned walk: its first direct-sum split, the tracked
    # patterns it contains, and the masks of the basis and of the tracked
    # patterns it does not yet contain, which only the leaves lack
    basis = frozenset(patterns)
    tracked = _automaton(basis)[0]
    plans_tracked = tuple(_plan(q) for q in tracked)
    plans, root = _start(basis, plans_tracked)
    for tau, inv, bad, split, seen, masks in _walk(root, plans, n_max, k_max):
        t = len(tau)
        assert split == first_split(tau), tau
        # the pruned walk yields only indecomposables at the last length
        # and at the budget
        assert t < n_max and inv < k_max or split == t, tau
        for i, q in enumerate(tracked):
            assert bool(seen >> i & 1) == contains(tau, q), (tau, q)
        # a leaf, at the last length or at the budget, gets no masks
        leaf = t == n_max or inv == k_max
        assert (bad is None) is (masks is None) is leaf, (tau, inv)
        if leaf:
            continue
        floor = max(1, t + 1 - (k_max - inv))
        want = _bad_ranks_brute(tau, basis, t)
        for r in range(floor, t + 2):
            assert bool(bad >> r & 1) == want[r], (tau, r)
        assert [i for i, _, _ in masks] == [i for i in range(len(tracked)) if not seen >> i & 1]
        for i, plan, mask in masks:
            assert plan == plans_tracked[i]
            want = _bad_ranks_brute(tau, [tracked[i]], t)
            for r in range(floor, t + 2):
                assert bool(mask >> r & 1) == want[r], (tau, tracked[i], r)


def test_iter_avoiders_upto_streams(monkeypatch):
    # Av_{<=14}(1324) is far too large to list: the first avoider must come
    # after the root's one child is filled, and reaching length 14 may fill
    # only the children of the nodes on the path there, one level each
    real_fill = enumeration._fill
    calls = 0

    def spy(*args):
        nonlocal calls
        calls += 1
        return real_fill(*args)

    monkeypatch.setattr(enumeration, "_fill", spy)
    walk = iter_avoiders_upto(["1324"], 14, 91)
    assert next(walk) == (Perm((1,)), 0)
    assert calls == 1
    assert [len(p) for p, _ in itertools.islice(walk, 13)] == list(range(2, 15))
    # a length-t node has at most t + 1 children; those at length 14 need no fill
    assert calls <= sum(t + 1 for t in range(13))


@pytest.mark.parametrize("basis_text, n_max, k_max",
                         [("1324", 16, 12), ("1324,2143", 10, 10), ("12453,321", 12, 9)])
def test_count_table_fills_no_budget_leaf(basis_text, n_max, k_max, monkeypatch):
    # a child at the budget has floor len(child) + 1 and is a leaf of the
    # pruned walk, so count_table never fills it
    real_fill = enumeration._fill
    fills = []

    def spy(tau, plan, floor, bad):
        fills.append((len(tau), floor))
        return real_fill(tau, plan, floor, bad)

    monkeypatch.setattr(enumeration, "_fill", spy)
    count_table(parse_basis(basis_text), n_max, k_max)
    assert fills
    assert all(floor <= t for t, floor in fills), max(fills, key=lambda f: f[1] - f[0])


def _lehmer_decode(code):
    """The permutation whose entry i has code[i] smaller entries after it."""
    free = list(range(1, len(code) + 1))
    return Perm(tuple(free.pop(c) for c in code))


def test_walk_reaches_the_length_cap():
    # the full walk appends ranks up to 64, the last entries of the byte
    # tables; a permutation of 64 with at most 2 inversions has a Lehmer code
    # of sum <= 2
    n = MAX_LENGTH
    codes = [[0] * n]
    for i in range(n - 1):
        for c in (1, 2):
            if c <= n - 1 - i:
                code = [0] * n
                code[i] = c
                codes.append(code)
        for j in range(i + 1, n - 1):
            code = [0] * n
            code[i] = code[j] = 1
            codes.append(code)
    assert len(codes) == 1 + (n - 1) + (n - 2) + (n - 1) * (n - 2) // 2
    q = parse_perm("1324")
    want = sorted(p for p in map(_lehmer_decode, codes) if not contains(p, q))
    assert generate_avoiders(["1324"], n, 2) == want
    assert count_table(["1324"], n, 2).rows[n - 1] == (1, 2, 5)


def test_count_table_matches_closed_form_to_n64():
    # only identity components can lengthen a permutation at no cost, so the
    # DP reaches n = 64 from indecomposables of length <= 15
    t = count_table(parse_basis("1324,1342"), 64, 14)
    for n in range(1, 65):
        for k in range(15):
            if n >= (k + 7) / 2:
                assert t.value(n, k) == av_1324_1342(n, k), (n, k)


@pytest.mark.slow
def test_count_table_matches_full_walk_1324():
    assert count_table(parse_basis("1324"), 26, 17).rows == _walk_tallies(["1324"], 26, 17)


def test_catalan_cross_check():
    for q in all_perms(3):
        t = count_table([q], 8, 28)
        for n in range(1, 9):
            assert sum(t.rows[n - 1]) == CATALAN[n], q


def test_threads_match_sequential(monkeypatch):
    # at a threshold of 0 the jobs after the first one that tallies anything
    # go to the pool
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    basis = parse_basis("1324,1243")
    seq = count_table(basis, 9, 10)
    par = count_table(basis, 9, 10, threads=2)
    assert seq.rows == par.rows


@pytest.mark.parametrize(
    "basis_text, n_max, k_max",
    [("1324,1342", 12, 10), ("12,2413", 9, 36), ("21,1324", 7, 4), ("2143,123,1324", 20, 11),
     ("1324", 10, 5), ("1324", 10, 6), ("1324,2143", 9, 6)],
)
def test_pool_jobs_carry_node_state(basis_text, n_max, k_max, monkeypatch):
    # pool jobs start from depth-4 nodes with their inherited masks; with
    # k_max <= 6 some frontier nodes are leaves at the budget, tallied inline
    basis = parse_basis(basis_text)
    rows = count_table(basis, n_max, k_max).rows
    assert count_table(basis, n_max, k_max, threads=2).rows == rows
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    assert count_table(basis, n_max, k_max, threads=2).rows == rows


@pytest.mark.parametrize("threads", [1, 2])
def test_length_5_basis_table_is_pinned(threads, monkeypatch):
    # 21354 = 21 (+) 1 (+) 21 needs the general backtracking fill beside the
    # tracked-sum masks, and its 8,764 indecomposables send 2 threads to the
    # process pool
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    table = count_table(parse_basis("1324,21354"), 20, 14, threads=threads)
    assert hashlib.sha256(table_to_csv(table).encode()).hexdigest() == (
        "78c03efe9cbc95a765332e915319e2502f30f3abb09ed96c1dbb712ac1f8b484")
    assert started == ([] if threads == 1 else [2])


def test_row_differences_examples():
    t = count_table(parse_basis("1324,1243"), 8, 8)
    d = row_differences(t)
    assert d[3 - 1][1] == -1
    assert all(d[n][0] == 0 for n in range(len(d)))
    t2 = count_table(parse_basis("1324,1342"), 9, 9)
    assert row_differences(t2)[8 - 1][8] == 6


def test_second_differences_formula():
    t = count_table(parse_basis("1324,2143"), 8, 8)
    b = second_differences(t)
    for n in range(1, 7):
        for k in range(0, 8):
            want = (t.value(n + 2, k + 1) - t.value(n + 1, k + 1)) - (
                t.value(n + 1, k) - t.value(n, k)
            )
            assert b[n - 1][k] == want


def test_second_differences_constant_table():
    rows = tuple(tuple([3] * 5) for _ in range(6))
    tbl = CountTable(basis=parse_basis("21"), n_max=6, k_max=4, rows=rows)
    assert all(v == 0 for row in second_differences(tbl) for v in row)


def test_tertiary_2143():
    t = count_table(parse_basis("1324,2143"), 15, 15)
    assert diagonal_limit(second_differences(t))[:5] == [-2, 0, 0, 0, 0]


def test_tertiary_2413():
    t = count_table(parse_basis("1324,2413"), 15, 17)
    assert diagonal_limit(second_differences(t))[:5] == [3, 6, 15, 30, 60]


def test_monotonicity_scan():
    t = count_table(parse_basis("1324,321"), 11, 15)
    hits = monotonicity_scan(t)
    assert (10, 15, 60, 52) in hits
    t2 = count_table(parse_basis("1324,1243"), 8, 8)
    hits2 = monotonicity_scan(t2)
    assert hits2[0] == (3, 1, 2, 1)
    t3 = count_table(parse_basis("213"), 10, 12)
    assert monotonicity_scan(t3) == []


def test_limit_report_1243():
    t = count_table(parse_basis("1324,1243"), 18, 12)
    rep = limit_report(t)
    assert None not in rep.m
    assert list(rep.c) == PARTITIONS[:13]


def test_limit_report_2143():
    t = count_table(parse_basis("1324,2143"), 18, 12)
    rep = limit_report(t)
    assert rep.c[0] == 1
    assert all(rep.c[k] == 2 * PARTITIONS[k] for k in range(1, 13))


def test_limit_report_unstable_without_low_inversion_pattern():
    basis = parse_basis("321")
    assert not has_limit_sequence(basis)
    t = count_table(basis, 12, 3)
    rep = limit_report(t)
    assert rep.m[1] is None
    # av_n^1 = n-1 keeps growing
    assert [t.value(n, 1) for n in range(2, 13)] == list(range(1, 12))


def test_zero_row_threshold():
    assert zero_row_threshold(count_table(parse_basis("1243,2134"), 9, 4)) == 4
    # columns k >= 1 that are zero throughout certify nothing
    assert zero_row_threshold(count_table(parse_basis("12,21"), 6, 3)) is None
    assert zero_row_threshold(count_table(parse_basis("123,21"), 6, 0)) is None
    assert zero_row_threshold(count_table(parse_basis("132"), 8, 5)) is None
    assert zero_row_threshold(count_table(parse_basis("1234"), 10, 6)) == 4


def test_has_limit_sequence_criterion():
    assert has_limit_sequence(parse_basis("1324,4321"))
    assert has_limit_sequence(parse_basis("21"))
    assert not has_limit_sequence(parse_basis("321,231"))


def test_secondary_diagonal_1342():
    t = count_table(parse_basis("1324,1342"), 15, 20)
    assert diagonal_limit(row_differences(t))[:7] == [2, 6, 12, 24, 44, 76, 128]


def test_secondary_diagonal_1324_exists():
    t = count_table(parse_basis("1324"), 15, 16)
    got = diagonal_limit(row_differences(t))
    # (4 + 2x) P(x)^2: two removal families of degree n-1 and one of degree n
    assert got[:5] == [4, 10, 24, 50, 100]


def test_diagonal_limit_zero_matrix():
    assert diagonal_limit([[0] * 6 for _ in range(6)]) == []
    # every diagonal of at least TAIL_WINDOW cells stabilizes
    assert diagonal_limit([[1] * 6 for _ in range(6)]) == [1] * 7


# Reference restatements of the table rules, each written from its definition.

def _column(table, k):
    return [table.value(n, k) for n in range(1, table.n_max + 1)]


def _ref_run_from(seq):
    """The least 1-based position from which seq is constant."""
    return min(i for i in range(1, len(seq) + 1) if len(set(seq[i - 1:])) == 1)


def _ref_limit(table):
    cs, ms = [], []
    for k in range(table.k_max + 1):
        col = _column(table, k)
        stable = (len(col) >= TAIL_WINDOW and len(set(col[-TAIL_WINDOW:])) == 1
                  and table.n_max >= limit_depth(table.basis, k))
        cs.append(col[-1])
        ms.append(_ref_run_from(col) if stable else None)
    return cs, ms


def _ref_zero_rows(table):
    shifts = []
    for k in range(1, table.k_max + 1):
        col = _column(table, k)
        if col[-1] != 0 or not any(col):
            return None
        shifts.append(_ref_run_from(col) - k)
    return max(shifts, default=None)


def _ref_second_differences(table):
    a = table.value
    return [[(a(n + 2, k + 1) - a(n + 1, k + 1)) - (a(n + 1, k) - a(n, k))
             for k in range(table.k_max)] for n in range(1, table.n_max - 1)]


def _ref_diagonal(matrix):
    """Stabilized diagonal values (None where not stabilized) by ascending
    k - n, cut to the stretch from the first nonzero value to the next None."""
    values = []
    width = len(matrix[0]) if matrix else 0
    for off in range(-len(matrix), width):
        cells = [matrix[n - 1][n + off] for n in range(1, len(matrix) + 1)
                 if 0 <= n + off < width]
        if len(cells) >= TAIL_WINDOW:
            values.append(cells[-1] if len(set(cells[-TAIL_WINDOW:])) == 1 else None)
    while values and not values[0]:  # leading None and 0 alike
        values.pop(0)
    return values[:values.index(None)] if None in values else values


def _ref_grid(rows, n_rows, k_max, longest):
    """Cells of rows 1..n_rows, blank where k exceeds the inversions of a
    permutation of length longest(n)."""
    head = ["n\\k"] + [str(k) for k in range(k_max + 1)]
    body = [[str(n)] + ["" if k > longest(n) * (longest(n) - 1) // 2 else str(rows[n - 1][k])
                        for k in range(k_max + 1)] for n in range(1, n_rows + 1)]
    return [head] + body


@st.composite
def _tables(draw):
    """Tables whose columns are a random prefix and a constant tail."""
    n_max, k_max = draw(st.integers(1, 9)), draw(st.integers(0, 8))
    cell = st.integers(0, 2) | st.integers(-4, 30)
    cols = []
    for _ in range(k_max + 1):
        tail = draw(st.integers(1, n_max))
        prefix = draw(st.lists(cell, min_size=n_max - tail, max_size=n_max - tail))
        cols.append(prefix + [draw(cell)] * tail)
    basis = parse_basis(draw(st.sampled_from(["12", "21,123", "132", "1324", "1324,1342"])))
    return CountTable(basis=basis, n_max=n_max, k_max=k_max, rows=tuple(zip(*cols)))


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_table_rules_match_reference(table):
    rep = limit_report(table)
    assert (list(rep.c), list(rep.m)) == _ref_limit(table)
    assert zero_row_threshold(table) == _ref_zero_rows(table)
    diffs, second = row_differences(table), second_differences(table)
    assert second == _ref_second_differences(table)
    assert diagonal_limit(diffs) == _ref_diagonal(diffs)
    assert diagonal_limit(second) == _ref_diagonal(second)
    assert diagonal_limit(table.rows) == _ref_diagonal(table.rows)
    counts = _ref_grid(table.rows, table.n_max, table.k_max, lambda n: n)
    assert table_to_csv(table) == "".join(",".join(r) + "\n" for r in counts)
    assert table_to_markdown(table).splitlines() == (
        ["| " + " | ".join(counts[0]) + " |", "|" + "---|" * (table.k_max + 2)]
        + ["| " + " | ".join(r) + " |" for r in counts[1:]])
    # a difference row n spans lengths n and n + 1
    deltas = _ref_grid(diffs, table.n_max - 1, table.k_max, lambda n: n + 1)
    assert diffs_to_csv(table, diffs) == "".join(",".join(r) + "\n" for r in deltas)


def test_prop_identity_flank_zero():
    # av_n^k(id_a + 21, 21 + id_b) = 0 for k >= 1, n >= k + a + b
    for a in range(0, 3):
        for b in range(0, 3):
            left = direct_sum(identity(a), parse_perm("21"))
            right = direct_sum(parse_perm("21"), identity(b))
            t = count_table([left, right], 12, 5)
            for k in range(1, 6):
                for n in range(max(1, k + a + b), 13):
                    assert t.value(n, k) == 0, (a, b, n, k)


def test_remark_1243_2134_zero():
    t = count_table(parse_basis("1243,2134"), 10, 5)
    for k in range(1, 6):
        for n in range(k + 4, 11):
            assert t.value(n, k) == 0


@pytest.mark.parametrize("p_text", ["132", "1324", "1342", "2413"])
def test_inv_wilf_symmetry(p_text):
    p = parse_perm(p_text)
    t = count_table([p], 8, 12)
    for image in (inverse(p), reverse_complement(p)):
        assert count_table([image], 8, 12).rows == t.rows


def test_symmetry_representative_examples():
    pair, how = symmetry_representative(parse_basis("1324,3142"))
    assert pair == parse_basis("1324,2413") and how == "inverse"
    pair, how = symmetry_representative(parse_basis("1324,4312"))
    assert pair == parse_basis("1324,3421") and how == "inverse"
    pair, how = symmetry_representative(parse_basis("1324,2431"))
    assert pair == parse_basis("1324,2431") and how == "identity"


def test_symmetry_representative_covers_s4():
    reps = set()
    for q in all_perms(4):
        if q == parse_perm("1324"):
            continue
        pair, _ = symmetry_representative([parse_perm("1324"), q])
        partner = next(x for x in pair if x != parse_perm("1324"))
        reps.add("".join(map(str, partner)))
    assert reps == set(REPRESENTATIVE_PARTNERS)


@pytest.mark.slow
def test_representative_pairs_have_distinct_limit_sequences():
    seen = {}
    for partner in REPRESENTATIVE_PARTNERS:
        t = count_table(parse_basis(f"1324,{partner}"), 21, 15)
        rep = limit_report(t)
        key = tuple(rep.c)
        assert key not in seen, (partner, seen.get(key))
        seen[key] = partner
