"""Enumeration of pattern avoiders under an inversion budget.

The engine walks the tree whose nodes are exactly the avoiders with at most
k_max inversions: the children of a length-t avoider are obtained by
appending a new last entry of rank r (existing values >= r shift up), which
adds t+1-r inversions. `_walk` is the one walker, a generator over an
explicit stack: it yields the nodes below a given node in preorder,
children in ascending rank order, each as (values, inv, bad, split, seen,
masks). values is the byte form of `perms`, one byte per entry, so a child
is one translate of its parent's values plus one byte. `iter_avoiders_upto`
streams that preorder and `generate_avoiders` keeps one length of it.
`count_table` and `indecomposables_upto` read the pruned walk, which yields
only the part of the tree that leads to indecomposable avoiders;
`count_table` counts the rest by direct sums (below). bad and masks are
None at the leaves, where the walk does not descend: at the last length
and, in the pruned walk, at the budget. A walk past MAX_LENGTH entries is
a ValueError (`perms.check_length`).

Each node carries its bad ranks as a bit mask: bit r is set when appending
rank r would complete an occurrence of a forbidden pattern ending at the new
last position. A child is derived from its parent's mask, not recomputed:

- Inheritance. Let the child append rank r. An occurrence in child + s that
  avoids the child's last entry is, once that entry is deleted, an
  occurrence in parent + s' with s' = s for s <= r and s' = s - 1 for
  s > r, and every such parent occurrence lifts back. So the child's mask
  starts as the parent's with bit r duplicated (bits >= r move up by one).
- Anchored fill. The remaining occurrences use the child's last entry, and
  being the last position before the new one it can only play the last
  body role q[-2]. The fill places the other body roles right to left from
  that fixed anchor, each against its nearest placed neighbours in value.
  The admissible new ranks form one interval fixed by the body roles valued
  q[-1] - 1 and q[-1] + 1; each complete placement ORs it in and
  backtracks to the lowest role that can still change it. For bodies of
  length 2 and 3 (patterns of length 3 and 4) role 0, placed last, is one
  bit-mask query: the values left of role 1 meet role 0's window or not,
  and where role 0 bounds the interval, their lowest or highest value in
  it bounds the union of its intervals. Such a fill needs no loop, or one
  over role 1's positions. Every other body places its roles in one
  iterative backtracking loop over a value array whose two sentinel slots
  stand for "no neighbour below" (0) and "none above" (t+1); a body of
  length 1 is only the anchor, so the loop's first step ORs in its one
  interval and returns. The fill returns as soon as every rank it could
  set already is bad.
- Budget floor. A node of length t with inv inversions only ever appends
  ranks >= t+1-(k_max-inv), and the floor rises strictly from parent to
  child, so ranks below it are never read in its subtree and the fill
  skips them. An interval reaching the floor needs the body role valued
  q[-1] + 1 at or above it, and every role valued q[-1] + 1 + d at least d
  above it (the plan keeps these lifts as offsets to add to the floor),
  which prunes the fill on long, nearly sorted permutations.

Counting tables by components. Every permutation is a unique direct sum
c_1 (+) ... (+) c_m of indecomposables, with inv and length additive, and
an indecomposable with k inversions has length at most k+1. So the table
needs only the indecomposable avoiders with at most k_max inversions, which
the pruned walk finds with two more fields per node:

- First split. Every node of both walks carries split, the length of its
  first component (its length when it is indecomposable). A child
  appending rank r keeps the parent's split if that is below r, and is
  otherwise indecomposable, splitting at its length t+1. A decomposable
  child only becomes indecomposable after some later entry lands at rank
  <= split, which costs at least t+2-split inversions, so the pruned walk
  skips it when inv + t+2-split > k_max, and always at the walk's last
  length. A node at the budget can then only append rank t+2, which gives
  a skipped decomposable child, so it is a leaf: it gets no masks and no
  fill. It is indecomposable too, since a decomposable child at the budget
  is skipped.
- Tracked-pattern masks. An occurrence of an indecomposable pattern lies in
  one component, so a basis pattern q = q_1 (+) ... (+) q_s can only be
  spread over several components through its consecutive sums
  q_j (+) ... (+) q_j'. Each such sum of length >= 2 that is not itself in
  the basis gets its own bad-rank mask, inherited and filled as above, and
  each node a "contains" bit for it; once the bit is set the mask is
  dropped. A node lists (i, plan, mask) for the sums it does not contain
  yet, so its children read their new bits and fill their masks from that
  list alone.

Each indecomposable is tallied by (length, inv, contained tracked sums).
For every decomposable basis pattern, a sequence of components is read by
the greedy prefix automaton: from state j a component moves to the largest
j' such that q_{j+1} (+) ... (+) q_{j'} is contained in it, and reaching s
means q is contained. A DP over (state, n, k) then sums the sequences of
components for every row, so the walk never goes deeper than k_max+1 and
the table costs about the same for any n_max. count_table walks one list
of subtree jobs: the root alone with one worker or a shallow walk, else
the subtrees below depth _SPLIT_DEPTH. It walks them inline while their
tallies project a small table, and only then starts a process pool of
min(threads, CPU count, jobs left) workers for the rest (see
_POOL_MIN_TALLY).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .perms import (
    BYTE,
    INSERT_RANK,
    MAX_LENGTH,
    SYMMETRIES,
    Perm,
    basis_key,
    check_length,
    components,
    direct_sum,
    inv_count,
    parse_perm,
    pattern_basis,
)

MAX_BUDGET = 200

# Identifies the counting engine in cache entries; bump it whenever a change
# could alter a computed table, so that older entries are recomputed.
ENGINE_VERSION = "3"


def check_table_bounds(n_max: int, k_max: int) -> None:
    """Raise ValueError unless count_table supports a table of this size."""
    if not 1 <= n_max <= MAX_LENGTH:
        raise ValueError(f"n_max must be in 1..{MAX_LENGTH}")
    if not 0 <= k_max <= MAX_BUDGET:
        raise ValueError(f"k_max must be in 0..{MAX_BUDGET}")


# -- bad ranks ------------------------------------------------------------

# The floor lift of a role valued below q[-1]: a floor is at most a length
# plus one, so floor + _UNLIFTED is below every value and never binds.
_UNLIFTED = -(1 << 29)


def _plan(q: Sequence[int]):
    """Fill data for a pattern of length >= 2, its body roles placed right to left.

    The fill keeps one value per body role plus two sentinel slots: index m1
    holds 0 ("none below") and m1 + 1 holds t + 1 ("none above"). For role
    j: the slots of the already placed roles (index > j) nearest below and
    above it in value, and its floor lift, an offset such that floor + lift
    is a strict lower bound on its value (_UNLIFTED for roles valued below
    q[-1]). Then the slots bounding the new entry's value from below and
    above, and the role after which that interval is fixed.
    """
    body = tuple(q[:-1])
    m1 = len(body)
    qlast = q[-1]
    below, above, lift = [], [], []
    for j in range(m1):
        later = range(j + 1, m1)
        below.append(max((i for i in later if body[i] < body[j]),
                         key=body.__getitem__, default=m1))
        above.append(min((i for i in later if body[i] > body[j]),
                         key=body.__getitem__, default=m1 + 1))
        # the role valued q[-1] + 1 + d needs a value >= floor + d
        lift.append(body[j] - qlast - 2 if body[j] > qlast else _UNLIFTED)
    lo_role = body.index(qlast - 1) if qlast > 1 else m1
    hi_role = body.index(qlast + 1) if qlast <= m1 else m1 + 1
    decided = min(lo_role, hi_role)
    return m1, tuple(below), tuple(above), tuple(lift), lo_role, hi_role, decided


def _fill(tau, plan, floor, bad):
    """OR into the mask `bad` the ranks >= floor completing an occurrence of
    the planned pattern in which tau's last entry is the last body role.

    tau is a node value (bytes) or a tuple of ints. A complete placement
    ORs in the new entry's interval, fixed by roles lo_role and hi_role.
    Only ranks floor .. t+1 are ever set, so the fill returns as soon as
    they all are.

    A body of length 2 or 3 answers role 0 by one bit-mask query: `left`
    holds the values of the positions left of role 1, one bit fewer per
    position role 1's leftward scan passes, and role 0 is admissible iff
    `left` meets its window. Where role 0 bounds the interval, the lowest
    or highest of those values bounds the union of its intervals. Any other
    body places roles m1-2 .. 0 right to left in one backtracking loop,
    each at the positions left of its successor, and a complete placement
    backtracks to role `decided`: no role below it can change the interval.
    A body of length 1 has no role to place, so the loop starts complete,
    ORs in the anchor's interval and returns, `decided` being the anchor.
    """
    m1, below, above, lift, lo_role, hi_role, decided = plan
    t = len(tau)
    anchor = tau[-1]
    if m1 > t or anchor <= floor + lift[-1]:
        return bad
    full = (1 << (t + 2)) - (1 << floor)
    if bad & full == full:
        return bad
    if 2 <= m1 <= 3:
        # the windows and interval ends that no placed role moves: a slot is
        # the anchor (role m1-1) or a sentinel, 0 below or t+1 above
        lo_fix = anchor + 1 if lo_role == m1 - 1 else 1
        hi_fix = anchor if hi_role == m1 - 1 else t + 1
        b0 = below[0]
        a0 = above[0]
        low0 = anchor if b0 == m1 - 1 else 0
        high0 = anchor if a0 == m1 - 1 else t + 1
        least0 = floor + lift[0]
        # the values of positions 0 .. t-2
        left = (1 << (t + 1)) - 2 - (1 << anchor)
        if m1 == 2:
            low = low0 if low0 > least0 else least0
            cands = (left & ((1 << high0) - 1)) >> (low + 1)
            if not cands:
                return bad
            lo = low + (cands & -cands).bit_length() + 1 if lo_role == 0 else lo_fix
            hi = low + cands.bit_length() if hi_role == 0 else hi_fix
            if lo < floor:
                lo = floor
            if lo <= hi:
                bad |= (1 << (hi + 1)) - (1 << lo)
            return bad
        low1 = anchor if below[1] == 2 else 0
        least = floor + lift[1]
        if low1 < least:
            low1 = least
        high1 = anchor if above[1] == 2 else t + 1
        for p in range(t - 2, 0, -1):
            v = tau[p]
            left ^= 1 << v
            if not low1 < v < high1:
                continue
            low = v if b0 == 1 else low0
            if low < least0:
                low = least0
            high = v if a0 == 1 else high0
            cands = (left & ((1 << high) - 1)) >> (low + 1)
            if not cands:
                continue
            if lo_role == 0:
                lo = low + (cands & -cands).bit_length() + 1
            else:
                lo = v + 1 if lo_role == 1 else lo_fix
            if hi_role == 0:
                hi = low + cands.bit_length()
            else:
                hi = v if hi_role == 1 else hi_fix
            if lo < floor:
                lo = floor
            if lo <= hi:
                bad |= (1 << (hi + 1)) - (1 << lo)
                if bad & full == full:
                    return bad
            if decided == 2:
                return bad
        return bad
    # val[j] is role j's value, with the two sentinel slots; nxt[j] is the
    # next position to try for role j, scanning leftwards. The anchor's slot
    # nxt[-1] is never read, so stepping below role 0 may write it.
    val = [0] * (m1 + 2)
    val[m1 - 1] = anchor
    val[m1 + 1] = t + 1
    nxt = [t - 2] * m1
    last = m1 - 1
    j = m1 - 2
    while True:
        if j < 0:
            lo = val[lo_role] + 1
            if lo < floor:
                lo = floor
            hi = val[hi_role]
            if lo <= hi:
                bad |= (1 << (hi + 1)) - (1 << lo)
                if bad & full == full:
                    return bad
            j = decided
            if j == last:
                return bad
        low = val[below[j]]
        least = floor + lift[j]
        if low < least:
            low = least
        high = val[above[j]]
        p = nxt[j]
        while p >= j:
            v = tau[p]
            if low < v < high:
                break
            p -= 1
        else:
            j += 1
            if j == last:
                return bad
            continue
        val[j] = v
        nxt[j] = p - 1
        j -= 1
        nxt[j] = p - 1


# -- the tree walk --------------------------------------------------------

def _start(basis, tracked=None):
    """Fill plans for the basis and the root node of a walk.

    Rank 1 is bad at the root iff 1 is in the basis. With `tracked` (fill
    plans) the root starts the pruned walk, with an empty mask for every
    tracked pattern.
    """
    plans = [_plan(q) for q in sorted(basis) if len(q) > 1]
    bad = 2 if any(len(q) == 1 for q in basis) else 0
    masks = None if tracked is None else tuple((i, plan, 0) for i, plan in enumerate(tracked))
    # split 1 is at or above the one rank the root appends, so its child,
    # the one-entry node, is indecomposable
    return plans, (b"", 0, bad, 1, 0, masks)


def _children(node, plans, n_max, k_max):
    """The children of a node that has a bad mask, in ascending rank order.

    A node is (values, inv, bad, split, seen, masks), values being the
    byte form (perms.INSERT_RANK); a child's values are its parent's with
    every byte >= r raised by one, then the byte r. split is the length of
    the first direct-sum component, the node's length when it is
    indecomposable. In the full walk, where masks is None, every avoider
    within the budget is a child, with seen = 0. The pruned walk yields only
    the nodes that lead to indecomposable avoiders: bit i of seen is set
    when the node contains tracked pattern i, masks lists (i, plan, mask)
    with its bad-rank mask for every tracked pattern i it does not contain,
    and a decomposable child is skipped when no indecomposable descendant of
    it fits the budget or the length. A child is a leaf, with bad = masks =
    None and no fill, at length n_max and, in the pruned walk, at the
    budget: a leaf there can only append rank t+2, which gives a
    decomposable child that is always skipped.
    """
    tau, inv, bad, split, seen, masks = node
    t = len(tau)
    floor = t + 1 - (k_max - inv)
    if floor < 1:
        floor = 1
    last = t + 1 == n_max
    pruned = masks is not None
    child_seen = 0
    kids = []
    for r in range(floor, t + 2):
        if bad >> r & 1:
            continue
        added = inv + t + 1 - r
        if split < r:
            # the child splits where its parent does; the pruned walk drops
            # it unless a later entry at rank <= split, costing at least
            # t + 2 - split inversions, can still make it indecomposable
            if pruned and (last or added + t + 2 - split > k_max):
                continue
            child_split = split
        else:
            child_split = t + 1
        if pruned:
            child_seen = seen
            for i, _, mask in masks:
                if mask >> r & 1:
                    child_seen |= 1 << i
        child = tau.translate(INSERT_RANK[r]) + BYTE[r]
        child_bad = child_masks = None
        if not last and not (pruned and added == k_max):
            # bits >= r move up one; bit r stays clear, as it was in the parent
            low = (1 << r) - 1
            child_bad = (bad & low) | (bad >> r << (r + 1))
            child_floor = t + 2 - (k_max - added)
            if child_floor < 1:
                child_floor = 1
            for plan in plans:
                child_bad = _fill(child, plan, child_floor, child_bad)
            if pruned:
                # tracked masks: perms.contains per indecomposable was 1.8-2.8x slower (2-core VM)
                # a tracked pattern the child contains needs no mask
                child_masks = []
                for i, plan, mask in masks:
                    if not child_seen >> i & 1:
                        mask = (mask & low) | (mask >> r << (r + 1))
                        child_masks.append((i, plan, _fill(child, plan, child_floor, mask)))
        kids.append((child, added, child_bad, child_split, child_seen, child_masks))
    return kids


def _walk(node, plans, n_max, k_max):
    """Yield every node below `node`, down to length n_max, in preorder.

    Children come in ascending rank order (see _children for the node
    shape; values are bytes, which iter_avoiders_upto and
    indecomposables_upto hand out as Perms), and the walk descends into
    every node that has a bad mask: all but the leaves at length n_max and,
    in the pruned walk, at the budget.
    The stack holds one iterator over the pending siblings per level of the
    current path, never the tree, so the first node arrives at once however
    large the tree is.
    """
    check_length(n_max)
    stack = []
    if len(node[0]) < n_max:
        stack.append(iter(_children(node, plans, n_max, k_max)))
    while stack:
        for node in stack[-1]:
            yield node
            if node[2] is not None:
                stack.append(iter(_children(node, plans, n_max, k_max)))
                break
        else:
            stack.pop()


def generate_avoiders(basis, n: int, k_max: int) -> list[Perm]:
    """All basis-avoiding permutations of length n with at most k_max inversions.

    Deterministic output: sorted lexicographically by one-line notation.
    """
    basis = pattern_basis(basis)
    if n < 0:
        raise ValueError("length must be nonnegative")
    if k_max < 0:
        raise ValueError("inversion budget must be nonnegative")
    if n == 0:
        return [Perm()]
    return sorted(p for p, _ in iter_avoiders_upto(basis, n, k_max) if len(p) == n)


def iter_avoiders_upto(basis, n_max: int, k_max: int):
    """Yield (perm, inv) for every avoider of length 1..n_max with inv <= k_max.

    The order is the walk's preorder, and the walk streams (see _walk).
    """
    plans, root = _start(pattern_basis(basis))
    for vals, inv, _, _, _, _ in _walk(root, plans, n_max, k_max):
        # a rank insertion keeps 1..t a permutation, so skip Perm's check
        yield tuple.__new__(Perm, vals), inv


def indecomposables_upto(basis, k_max: int) -> list[list[Perm]]:
    """[I_0, ..., I_{k_max}]: I_k holds the indecomposable basis-avoiders
    with exactly k inversions, ordered by length, then lexicographically.

    An indecomposable permutation of length n has at least n - 1
    inversions, so one pruned walk to length k_max + 1 fills every bucket.
    """
    plans, root = _start(pattern_basis(basis), ())
    buckets: list[list[Perm]] = [[] for _ in range(k_max + 1)]
    for vals, inv, _, split, _, _ in _walk(root, plans, k_max + 1, k_max):
        if split == len(vals):
            buckets[inv].append(tuple.__new__(Perm, vals))
    for bucket in buckets:
        bucket.sort(key=lambda p: (len(p), p))
    return buckets


# -- the component automaton ----------------------------------------------

def _automaton(basis):
    """(tracked, start, step) for the component sequences of a basis.

    Only a decomposable basis pattern can spread over several components:
    an occurrence of an indecomposable pattern lies inside one component.
    For each decomposable q = q_1 (+) ... (+) q_s, a state holds the
    longest prefix q_1 (+) ... (+) q_j matched so far, and a component takes
    it greedily to the largest j' with q_{j+1} (+) ... (+) q_{j'} contained
    in it. `tracked` lists the consecutive sums a component may or may not
    contain: length >= 2 (it contains every length-1 sum) and not in the
    basis (it contains none of those). step(state, seen) is the state after
    a component that contains exactly the tracked patterns with a bit in
    `seen`, or None once some pattern is complete.
    """
    chains = [c for c in map(components, sorted(basis)) if len(c) > 1]
    sums = {direct_sum(*c[i:j]) for c in chains
            for i in range(len(c)) for j in range(i + 1, len(c) + 1)}
    tracked = sorted(q for q in sums - basis if len(q) > 1)
    index = {q: i for i, q in enumerate(tracked)}
    never = 1 << len(tracked)  # a bit no component's `seen` has
    # needs[c][j][j2]: the seen bits meaning q_{j+1} (+) ... (+) q_{j2} is contained
    needs = []
    for chain in chains:
        rows = []
        for j in range(len(chain)):
            row = {}
            for j2 in range(j + 1, len(chain) + 1):
                q = direct_sum(*chain[j:j2])
                row[j2] = 0 if len(q) == 1 else never if q in basis else 1 << index[q]
            rows.append(row)
        needs.append(rows)

    def step(state, seen):
        out = []
        for rows, j in zip(needs, state):
            row = rows[j]
            j2 = j
            while j2 < len(rows) and seen & row[j2 + 1] == row[j2 + 1]:
                j2 += 1
            if j2 == len(rows):
                return None
            out.append(j2)
        return tuple(out)

    return tracked, (0,) * len(chains), step


def _component_rows(start, step, tally, n_max, k_max):
    """Rows 1..n_max of the table from the class tally of the indecomposables.

    f[state][n] counts the component sequences of total length n that leave
    the automaton in `state`, one count per inversion number. A row over k is
    packed into one integer with `width` bits per inversion number: every
    slot, also the discarded ones above k_max, counts distinct permutations
    of length <= n_max, so it stays below n_max! < 2**width and never carries.
    """
    width = math.factorial(n_max).bit_length()
    kept = (1 << (width * (k_max + 1))) - 1
    moves = {}
    todo = [start]
    while todo:
        state = todo.pop()
        polys = Counter()
        for (length, inv, seen), count in tally.items():
            target = step(state, seen)
            if target is not None:
                polys[target, length] += count << (width * inv)
        moves[state] = sorted(polys.items(), key=lambda item: item[0][1])
        todo.extend({target for target, _ in polys} - moves.keys() - set(todo))
    f = {state: [0] * (n_max + 1) for state in moves}
    f[start][0] = 1
    for n in range(n_max):
        for state, row in f.items():
            src = row[n] & kept
            if not src:
                continue
            for (target, length), poly in moves[state]:
                if n + length > n_max:
                    break
                f[target][n + length] += src * poly
    slot = (1 << width) - 1
    rows = []
    for n in range(1, n_max + 1):
        packed = sum(row[n] & kept for row in f.values())
        rows.append(tuple(packed >> (width * k) & slot for k in range(k_max + 1)))
    return tuple(rows)


# -- counting tables ------------------------------------------------------

@dataclass(frozen=True)
class CountTable:
    """The matrix a(n, k) = av_n^k(basis) for 1 <= n <= n_max, 0 <= k <= k_max."""

    basis: frozenset[Perm]
    n_max: int
    k_max: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        if not (1 <= n <= self.n_max and 0 <= k <= self.k_max):
            raise IndexError(f"cell ({n}, {k}) outside table")
        return self.rows[n - 1][k]

    @property
    def basis_text(self) -> str:
        return basis_key(self.basis)


# Pool jobs are the subtrees below this depth; one worker walks from the root.
_SPLIT_DEPTH = 4

# A table whose jobs project at most this many indecomposables is walked
# inline (see count_table). The pool's workers take 15-20 ms to start on a
# 2-core VM, which the split walk repays only from a few thousand on: {1324}
# at (18, 12) (5,544) takes 0.047 s inline and 0.055 s pooled, at (20, 13)
# (9,456) 0.086 s and 0.080 s. Tallies, unlike the clock, send a table the
# same way on every machine, and job shares are stable across sizes.
_POOL_MIN_TALLY = 5000


def _tally(nodes):
    """Count the indecomposables among pruned-walk nodes by (length, inv, seen)."""
    return Counter((len(vals), inv, seen) for vals, inv, _, split, seen, _ in nodes
                   if split == len(vals))


def _tally_subtree(args):
    node, plans, depth, k_max = args
    return _tally(_walk(node, plans, depth, k_max))


def count_table(basis, n_max: int, k_max: int, threads: int = 1) -> CountTable:
    """Exact table of av_n^k(basis) for n <= n_max, k <= k_max.

    The walk is split into a list of subtree jobs: the root alone with one
    worker or a walk no deeper than _SPLIT_DEPTH, else the subtrees below
    depth _SPLIT_DEPTH. Jobs are walked inline, in order, until the
    indecomposables found so far, times the number of jobs over the jobs
    walked, exceed _POOL_MIN_TALLY; the jobs left go to a process pool of
    min(threads, CPU count, jobs left) workers. The table is the same
    either way.
    """
    basis = pattern_basis(basis)
    check_table_bounds(n_max, k_max)
    patterns, start, step = _automaton(basis)
    tracked = tuple(_plan(q) for q in patterns)
    plans, node = _start(basis, tracked)
    # an indecomposable with at most k_max inversions has length <= k_max + 1
    depth = min(n_max, k_max + 1)
    # the pool starts every worker at once, so never ask for more than the CPUs
    workers = min(threads, os.cpu_count() or 1)
    parts = []
    frontier = [node]
    # one worker walks the root as its one job: depth-4 jobs were 2-9 % slower (2-core VM)
    if workers > 1 and depth > _SPLIT_DEPTH:
        # the levels above the split depth run inline, where the leaves at
        # the budget are tallied and dropped; the rest are the jobs
        for _ in range(_SPLIT_DEPTH):
            frontier = [child for parent in frontier
                        for child in _children(parent, plans, depth, k_max)]
            parts.append(_tally(frontier))
            frontier = [node for node in frontier if node[2] is not None]
    jobs = [(node, plans, depth, k_max) for node in frontier]
    found = walked = 0
    while walked < len(jobs) and found * len(jobs) <= _POOL_MIN_TALLY * walked:
        parts.append(_tally_subtree(jobs[walked]))
        found += parts[-1].total()
        walked += 1
    jobs = jobs[walked:]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts += pool.map(_tally_subtree, jobs, chunksize=1)
    else:
        parts += map(_tally_subtree, jobs)
    tally = Counter()
    for part in parts:
        tally.update(part)
    rows = _component_rows(start, step, tally, n_max, k_max)
    return CountTable(basis=basis, n_max=n_max, k_max=k_max, rows=rows)


def row_differences(table: CountTable) -> list[list[int]]:
    """d(n, k) = a(n+1, k) - a(n, k) for 1 <= n <= n_max - 1 (signed)."""
    return [
        [table.rows[n][k] - table.rows[n - 1][k] for k in range(table.k_max + 1)]
        for n in range(1, table.n_max)
    ]


def second_differences(table: CountTable) -> list[list[int]]:
    """b(n, k) = d(n+1, k+1) - d(n, k) with d the row differences, that is
    (a(n+2, k+1) - a(n+1, k+1)) - (a(n+1, k) - a(n, k)).

    The combination whose diagonals b(n+i, k+i) stabilize when the row
    differences themselves do not.
    """
    d = row_differences(table)
    return [[hi - lo for lo, hi in zip(lo_row, hi_row[1:])]
            for lo_row, hi_row in zip(d, d[1:])]


def monotonicity_scan(table: CountTable) -> list[tuple[int, int, int, int]]:
    """All cells with a(n, k) > a(n+1, k), ordered by (k, n)."""
    hits = []
    for k in range(table.k_max + 1):
        for n in range(1, table.n_max):
            lo, hi = table.rows[n - 1][k], table.rows[n][k]
            if lo > hi:
                hits.append((n, k, lo, hi))
    return hits


def _run_start(seq: Sequence[int]) -> int:
    """Index where the final constant run of seq starts (0 when seq is empty)."""
    start = max(len(seq) - 1, 0)
    while start > 0 and seq[start - 1] == seq[-1]:
        start -= 1
    return start


def zero_row_threshold(table: CountTable) -> int | None:
    """The least c with a(n, k) = 0 for all n >= k + c, 1 <= k <= k_max, in the table.

    None when k_max < 1 or some column k >= 1 is all zero or does not end
    in zero, i.e. when the table certifies no vanishing threshold.
    """
    shifts = []
    for k in range(1, table.k_max + 1):
        col = [row[k] for row in table.rows]
        start = _run_start(col)
        if col[-1] != 0 or start == 0:
            return None
        shifts.append(start + 1 - k)
    return max(shifts) if shifts else None


# -- limit sequences ------------------------------------------------------

def has_limit_sequence(basis) -> bool:
    """Existence criterion: some pattern of the basis has at most one inversion."""
    return any(inv_count(q) <= 1 for q in pattern_basis(basis))


@dataclass(frozen=True)
class LimitReport:
    """Last values c_k per inversion count k, with the threshold m_k from
    which column k is stabilized, or None where it is not."""

    k_max: int
    c: tuple[int, ...]
    m: tuple[int | None, ...]


def limit_depth(basis, k: int) -> int:
    """k + 2 + (longest pattern length): a table this deep in n reaches c_k
    whenever the basis has a limit sequence at all."""
    return k + 2 + max(len(q) for q in pattern_basis(basis))


# Rows (or diagonal cells) that must agree at the end of a column before its
# value counts as stabilized.
TAIL_WINDOW = 3


def limit_report(table: CountTable) -> LimitReport:
    """Detect per-k stabilization of a(n, k) in n.

    A value is declared stabilized only when the last TAIL_WINDOW rows agree
    and n_max is at least limit_depth(basis, k).
    """
    cs, ms = [], []
    for k in range(table.k_max + 1):
        col = [row[k] for row in table.rows]
        start = _run_start(col)
        stable = (len(col) - start >= TAIL_WINDOW
                  and table.n_max >= limit_depth(table.basis, k))
        cs.append(col[-1])
        ms.append(start + 1 if stable else None)
    return LimitReport(k_max=table.k_max, c=tuple(cs), m=tuple(ms))


def diagonal_limit(matrix: Sequence[Sequence[int]]) -> list[int]:
    """The stabilized values of the diagonals m(n, k) with k - n fixed.

    matrix rows are indexed by n = 1.., columns by k = 0..; entries beyond a
    row's nonzero support should simply be present (zeros are fine). A
    diagonal is stabilized when its last TAIL_WINDOW cells agree. Returns
    the values of the stabilized diagonals by ascending k - n, from the
    first nonzero one up to the first diagonal after it that is not
    stabilized (diagonals shorter than TAIL_WINDOW are passed over).
    """
    width = len(matrix[0]) if matrix else 0
    seq: list[int] = []
    for off in range(1 - len(matrix), width):
        cells = [row[n + off] for n, row in enumerate(matrix, 1) if 0 <= n + off < width]
        if len(cells) - _run_start(cells) < TAIL_WINDOW:
            # short diagonals lie only at the two ends, so ending early is safe
            if seq:
                break
        elif seq or cells[-1]:
            seq.append(cells[-1])
    return seq


# -- inv-Wilf symmetry representatives ------------------------------------

# 1234 and the eleven partners of the golden tables, in their order.
REPRESENTATIVE_PARTNERS = (
    "1234", "1243", "2143", "1342", "1432", "4231", "4321",
    "2341", "2413", "2431", "3412", "3421",
)


def symmetry_representative(pair) -> tuple[frozenset[Perm], str]:
    """Map a pair {1324, p} with p in S_4 to its canonical representative.

    The twelve representatives cover all such pairs up to the inversion
    preserving symmetries (perms.SYMMETRIES), each of which fixes 1324.
    """
    pair = pattern_basis(pair)
    anchor = parse_perm("1324")
    if anchor not in pair or len(pair) != 2:
        raise ValueError("expected a pair containing 1324")
    other = next(q for q in pair if q != anchor)
    if len(other) != 4:
        raise ValueError("the partner pattern must have length 4")
    reps = {parse_perm(s) for s in REPRESENTATIVE_PARTNERS}
    for name, fn in SYMMETRIES:
        image = fn(other)
        if image in reps:
            return frozenset({anchor, image}), name
    raise AssertionError(f"no symmetry maps {other} to a representative")
