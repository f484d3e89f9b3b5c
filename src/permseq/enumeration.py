"""Enumeration of pattern avoiders under an inversion budget.

The engine walks the tree whose nodes are exactly the avoiders with at most
k_max inversions: the children of a length-t avoider are obtained by
appending a new last entry of rank r (existing values >= r shift up), which
adds t+1-r inversions. A node is (values, inv, bad, split, seen, m0, m1,
...): values is the byte form of `perms`, one byte per entry, so a child is
one translate of its parent's values plus one byte; bad and split are
described below, and seen and the slots m0, m1, ... belong to the pruned
walk only. There is one walker: the child rule is compiled into one
function per basis and mode (`_walk_kernel`), which expands whole subtrees
on its own stack.

- The full walk's node mode streams every node in preorder, children in
  ascending rank order, for `iter_avoiders_upto`, `generate_avoiders` and
  almost_decomp's split walk.
- The pruned walk yields only the part of the tree that leads to
  indecomposable avoiders. `count_table` tallies its indecomposables by
  class without building its leaves (tally mode, which also cuts the pool
  jobs), then counts the rest by direct sums (below);
  `indecomposables_upto` collects them by inversion number (collect mode).

bad is None at the leaves, where the walk does not descend: at the last
length and, in the pruned walk, at the budget. A walk past MAX_LENGTH
entries is a ValueError (`perms.check_length`), raised before any kernel is
compiled. The tests check the kernels against an interpreted walk that
fills every mask by a backtracking loop.

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
  q[-1] - 1 and q[-1] + 1, and every interval lies in the fill's reach: the
  roles valued between q[-2] and q[-1] need distinct values between the
  anchor's and the new entry's, which puts the new rank at least (or at
  most) a fixed offset from the anchor. A fill returns at once when its
  reach is empty or already all bad. A fill is one block of Python source
  per pattern with its roles written in as constants (`_block`), which the
  compiled walks write into their own functions. Roles m1-2 .. 1 are nested
  loops over positions, each within its nearest placed neighbours in
  value, 0 and t+1 standing for "no neighbour below" and "none above";
  each complete placement ORs in its interval and returns to the lowest
  role that can still change it. Role 0, placed last, is one bit-mask
  query: the values left of role 1 meet role 0's window or not, and where
  role 0 bounds the interval, their lowest or highest value in it bounds
  the union of its intervals. So a body of length 1 or 2 needs no loop,
  one of length 3 one over role 1's positions, and each longer one a loop
  more; past _NESTED loops a block continues in a generated helper
  function, since CPython compiles at most 20 nested loops in one
  function.
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
  child with split s leads to an indecomposable only through a descendant
  that appends a rank <= s, now or after more entries at ranks above s.
  Those entries keep every mask bit <= s (inheritance keeps the bits below
  the appended rank and a fill only adds bits), and the floor only rises.
  So once every rank from the child's floor to s is bad, no descendant is
  indecomposable, and the pruned walk drops the child: it tests the bits
  the child inherits before the fill, and the filled mask after it. The
  interval is empty when the rank s, which costs t+2-s inversions, is over
  the budget. The walk also drops every decomposable child at its last
  length. A node at the budget can then only append rank t+2, which gives
  a dropped decomposable child, so it is a leaf: it gets no masks and no
  fill. It is indecomposable too, since a decomposable child at the budget
  is dropped.
- Tracked-pattern masks. An occurrence of an indecomposable pattern lies in
  one component, so a basis pattern q = q_1 (+) ... (+) q_s can only be
  spread over several components through its consecutive sums
  q_j (+) ... (+) q_j'. Each such sum of length >= 2 that is not itself in
  the basis gets its own bad-rank mask, inherited and filled as above, and
  each node a "contains" bit for it; once the bit is set the mask is
  dropped. A node keeps one slot per sum, None once the sum is contained,
  so its children read their new bits and fill their masks, each with its
  sum's block, from those slots alone.

Each indecomposable is tallied by its class (length, inv, contained tracked
sums). For every decomposable basis pattern, a sequence of components is
read by the greedy prefix automaton: from state j a component moves to the
largest j' such that q_{j+1} (+) ... (+) q_{j'} is contained in it, and
reaching s means q is contained. A DP over (state, n, k) then sums the
sequences of components for every row, so the walk never goes deeper than
k_max+1 and the table costs about the same for any n_max. count_table
makes one tally-walk call from the root: with one worker it walks the
whole table, else it cuts the walk at depth _SPLIT_DEPTH and lists the
nodes there as subtree jobs. The same compiled walk, uncut, runs every
job: inline while their tallies project a small table, and always for the
last job; only then does a process pool of min(threads, CPUs this process
may run on, jobs left) workers take the rest, each worker walking its job
into a tally of its own (see _POOL_MIN_TALLY, _job_counts). The whole
table has one flat tally: class (length, inv, seen) counts at index
((length * (k_max + 1) + inv) << T) | seen, T being the number of tracked
sums, in a list or, past _DENSE_SLOTS slots, an int-keyed dict
(`_new_tally`). The root's call and the inline jobs count into it
directly, the pool's workers send back their nonzero classes, and the DP
decodes each index once.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from typing import Sequence

from .perms import (
    BYTE,
    INSERT_RANK,
    MAX_LENGTH,
    SYMMETRIES,
    _NESTED,
    Perm,
    basis_key,
    check_length,
    components,
    direct_sum,
    inv_count,
    nearest_roles,
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
    above, the role after which that interval is fixed, and the reach: every
    interval lies in anchor + lo_off .. anchor + hi_off. The roles valued
    between q[-2] and q[-1] hold distinct values between the anchor's and the
    new entry's, so one offset is q[-1] - q[-2] (above the anchor) or
    q[-1] - q[-2] + 1 (below it); the other is +-MAX_LENGTH and never binds.
    """
    body = tuple(q[:-1])
    m1 = len(body)
    qlast = q[-1]
    below, above = zip(*(nearest_roles(body, j, range(j + 1, m1)) for j in range(m1)))
    # the role valued q[-1] + 1 + d needs a value >= floor + d
    lift = [v - qlast - 2 if v > qlast else _UNLIFTED for v in body]
    lo_role = body.index(qlast - 1) if qlast > 1 else m1
    hi_role = body.index(qlast + 1) if qlast <= m1 else m1 + 1
    decided = min(lo_role, hi_role)
    if qlast > body[-1]:
        lo_off, hi_off = qlast - body[-1], MAX_LENGTH
    else:
        lo_off, hi_off = -MAX_LENGTH, qlast - body[-1] + 1
    return (m1, below, above, tuple(lift), lo_role, hi_role, decided,
            lo_off, hi_off)


def _plus(name, offset):
    """Source of `name` plus a constant offset."""
    return f"{name} + {offset}" if offset > 0 else f"{name} - {-offset}" if offset else name


def _window(mask, low, high):
    """Source of the bits of `mask` strictly between the values `low` and
    `high` (source too), or of the window alone when mask is None. A mask
    holds no bit 0 and none above t."""
    if high == "t + 1":
        window = None if low == "0" else f"-(2 << {low})"
    elif low == "0":
        window = f"((1 << {high}) - 2)"
    else:
        window = f"((1 << {high}) - (2 << {low}))"
    return mask if window is None else window if mask is None else f"{mask} & {window}"


def _block(plan, name, helpers):
    """Source lines of the fill of one plan, one indent deep in `fill`, with
    the plan's slots and roles written in as constants; `helpers` collects
    the functions they call, named after `name`.

    Roles m1-2 .. 1 are nested loops that scan leftwards from their
    successor, each within its window and its floor lift, and role 0 is one
    bit-mask query: a loop's mask `lf` starts as its successor's and drops
    one value per position it passes, so role 1's holds the values left of
    role 1 (`left` holds those left of the anchor, role 1 for a body of
    length 2), and role 0 is admissible iff that mask meets its window. A
    complete placement ORs in the new entry's interval and returns to role
    `decided`, as the reference loop does. Where role 0 or 1 decides, the
    interval is read after role 0's query, and where role 0 bounds it, the
    lowest or highest value in role 0's window bounds the union of its
    intervals. Where a later role decides, its loop fixes the interval
    before the loops below it run, skips them when the interval is empty or
    already all bad, and they stop at their first complete placement, which
    leaves it all bad. Where the anchor and the sentinels fix it, the
    interval is the reach, and the first placement sets it. Every loop stops
    once the reach is all bad.
    """
    m1, below, above, lift, lo_role, hi_role, decided, lo_off, hi_off = plan
    # slot values as source: role 1 is its scan's v, role j >= 2 is vj
    slot = {m1 - 1: "anchor", m1: "0", m1 + 1: "t + 1",
            **{j: "v" if j == 1 else f"v{j}" for j in range(1, m1 - 1)}}
    # the interval a complete placement ORs in, once a loop role or the anchor fixes it
    fixed = "reach" if decided == m1 - 1 else "iv" if decided > 1 else None

    def emit(out, depth, line):
        out.append("    " * depth + line)

    def floored(out, depth, name, j):
        # role j's strict lower bound: the slot below it, lifted off the floor
        if lift[j] == _UNLIFTED:
            return slot[below[j]]
        emit(out, depth, f"{name} = {_plus('floor', lift[j])}")
        emit(out, depth, f"if {name} < {slot[below[j]]}:")
        emit(out, depth + 1, f"{name} = {slot[below[j]]}")
        return name

    def end(role, lowest):
        if role == 0:
            return "(cands & -cands).bit_length()" if lowest else "cands.bit_length() - 1"
        if role < m1 - 1:
            return f"{slot[role]} + 1" if lowest else slot[role]
        return ends[not lowest]

    def interval(out, depth):
        # lo and hi, the ends of the interval of a complete placement
        emit(out, depth, f"lo = {end(lo_role, True)}")
        if lo_role < m1 - 1:
            emit(out, depth, "if lo < floor:")
            emit(out, depth + 1, "lo = floor")
        emit(out, depth, f"hi = {end(hi_role, False)}")

    def complete(out, depth, looped):
        # a complete placement, inside role 1's loop when `looped`
        if fixed:
            emit(out, depth, f"bad |= {fixed}")
            if looped:
                emit(out, depth, "break")
            return
        interval(out, depth)
        emit(out, depth, "if lo <= hi:")
        emit(out, depth + 1, "bad |= (2 << hi) - (1 << lo)")
        if looped:
            emit(out, depth + 1, "if bad & reach == reach:")
            emit(out, depth + 2, "break")

    def role(j, out, depth, seed, start):
        # role j's loop at `depth` in `out`: its mask starts as `seed`, the
        # values left of its successor, and it scans leftwards from `start`
        pos, lf, v = ("p", "lf", "v") if j == 1 else (f"p{j}", f"lf{j}", f"v{j}")
        emit(out, depth, f"{lf} = {seed}")
        low = floored(out, depth, f"low{j}", j)
        high = slot[above[j]]
        # role 0's window reads no role 1: fixed for the whole scan
        free = j == 1 and below[0] != 1 and above[0] != 1
        if free:
            low0 = floored(out, depth, "low0", 0)
            emit(out, depth, f"win = {_window(None, low0, slot[above[0]])}")
        emit(out, depth, f"for {pos} in range({start}, {j - 1}, -1):")
        depth += 1
        emit(out, depth, f"{v} = tau[{pos}]")
        emit(out, depth, f"{lf} ^= 1 << {v}")
        if low == "0":
            emit(out, depth, f"if {v} >= {high}:")
        elif high == "t + 1":
            emit(out, depth, f"if {v} <= {low}:")
        else:
            emit(out, depth, f"if not {low} < {v} < {high}:")
        emit(out, depth + 1, "continue")
        if j == 1:
            if free:
                # lf only loses bits, so once it misses role 0's fixed window it always will
                emit(out, depth, "cands = lf & win")
                emit(out, depth, "if not cands:")
                emit(out, depth + 1, "break")
            else:
                low0 = floored(out, depth, "low0", 0)
                emit(out, depth, f"cands = {_window('lf', low0, slot[above[0]])}")
                emit(out, depth, "if not cands:")
                emit(out, depth + 1, "continue")
            complete(out, depth, True)
            return
        if j == decided:
            interval(out, depth)
            emit(out, depth, "if lo > hi:")
            emit(out, depth + 1, "continue")
            emit(out, depth, "iv = (2 << hi) - (1 << lo)")
            emit(out, depth, "if bad & iv == iv:")
            emit(out, depth + 1, "continue")
        if (m1 - 1 - j) % _NESTED:
            role(j - 1, out, depth, lf, f"{pos} - 1")
        else:
            # the next role opens a helper function that returns the mask
            helper = f"{name}_{j - 1}"
            args = ", ".join(["tau, t, anchor, floor, bad", *reach_vars,
                              *(["iv"] if fixed == "iv" and decided >= j else []),
                              lf, pos, *(slot[i] for i in range(j, m1 - 1))])
            emit(out, depth, f"bad = {helper}({args})")
            body = [f"def {helper}({args}):"]
            role(j - 1, body, 1, lf, f"{pos} - 1")
            helpers.extend(body + ["    return bad"])
        # back here after a complete placement below role `decided`, which
        # leaves its interval all bad, or once the reach is all bad
        mask = fixed if j < decided else "reach"
        emit(out, depth, f"if bad & {mask} == {mask}:")
        emit(out, depth + 1, "break")

    out = []
    # the reach: lo_off > 0 bounds it from below, else hi_off from above
    if lo_off > 0:
        emit(out, 1, f"r_lo = {_plus('anchor', lo_off)}")
        emit(out, 1, "if r_lo < floor:")
        emit(out, 2, "r_lo = floor")
        emit(out, 1, "if r_lo <= t + 1:")
        emit(out, 2, "reach = (4 << t) - (1 << r_lo)")
        ends = "r_lo", "t + 1"
        reach_vars = "reach", "r_lo"
    else:
        emit(out, 1, f"r_hi = {_plus('anchor', hi_off)}")
        emit(out, 1, "if floor <= r_hi:")
        emit(out, 2, "reach = (2 << r_hi) - (1 << floor)")
        ends = "floor", "r_hi"
        reach_vars = "reach", "r_hi"
    emit(out, 2, "if bad & reach != reach:")
    if m1 > 2:
        role(m1 - 2, out, 3, "left", "t - 2")
    elif m1 == 2:
        low0 = floored(out, 3, "low0", 0)
        emit(out, 3, f"cands = {_window('left', low0, slot[above[0]])}")
        emit(out, 3, "if cands:")
        complete(out, 4, False)
    else:
        complete(out, 3, False)
    return out


# -- the tree walk --------------------------------------------------------

def _start(basis, tracked=()):
    """The plans of a walk and its root node.

    The plans are (basis plans, tracked plans), `tracked` being fill plans.
    The root has the pruned walk's slot shape (values, inv, bad, split,
    seen, m0, m1, ...), with an empty mask for every tracked pattern; the
    full walk takes its first four fields. Rank 1 is bad at the root iff 1
    is in the basis, and split 1 is at or above the one rank the root
    appends, so its child, the one-entry node, is indecomposable.
    """
    plans = tuple(_plan(q) for q in sorted(basis) if len(q) > 1)
    bad = 2 if any(len(q) == 1 for q in basis) else 0
    return (plans, tracked), (b"", 0, bad, 1, 0) + (0,) * len(tracked)


@lru_cache(maxsize=128)
def _walk_kernel(plans, mode):
    """The walk's child rule for the plans (basis plans, tracked plans) from
    `_start`, compiled into one function that expands every node on `stack`
    down to its whole subtree. `mode` picks what it does with the nodes
    below:

    - "tally", walk(stack, n_max, k_max, tally, jobs, cut): the pruned
      walk, counting each indecomposable as `tally[i] += 1`, i being the
      index of its class (length, inv, seen) in a tally from `_new_tally`;
      the number of tracked patterns is written into the source, and a list
      and a dict take the same source. A node popped at length `cut` is
      appended to `jobs` instead of being expanded, so cut = n_max, a
      length at which nothing is pushed, lists no job.
    - "collect", walk(stack, n_max, k_max, out): the pruned walk, appending
      each indecomposable's byte form to `out[inv]` where the tally counts
      it; it builds the leaves and the closed leaves for that.
    - "nodes", walk(stack, n_max, k_max): a generator over the full walk,
      with no pruning. It yields every node it pops as (values, inv, bad,
      split), starting with those on `stack`, and expands all but the
      leaves at length n_max, which it pushes with bad None.

    Every mode loops over the ranks in descending order, so the lowest rank
    pops first: the node walk yields in preorder, children by ascending
    rank, and the tally walk lists its jobs in the order in which expanding
    one level at a time lists them. `generate_avoiders` and the collect
    mode's caller sort what they gather, and a tally does not depend on the
    order.

    The fill block of every basis plan and of every tracked plan is written
    in (`_block`); t in the source is the children's length and floor a
    child's floor, as in a fill. A node on the pruned walk's stack is
    (values, inv, bad, split, seen, m0, m1, ...), with one slot per tracked
    pattern holding its mask, or None once the node contains the pattern.
    Every child of the pruned walk is counted at its parent, and its leaves,
    at length n_max or at the budget, are never pushed. An indecomposable
    child with one inversion left is closed at its parent too: its floor is
    t, so its only children are the leaf at rank t and the decomposable
    child at rank t+1, which is dropped, its floor t+1 being above its split
    t. Its filled bad mask says whether that leaf is live, and only then are
    its tracked masks filled, to read the leaf's seen from bit t. Kernels
    are compiled on first use and cached by their plans and mode, which
    pool jobs carry instead.
    """
    basis_plans, tracked = plans
    bits = len(tracked)

    def sink(base, inv, child):
        # source of one indecomposable child's count at its class index
        # from `base` (see _new_tally), or of its collection: its
        # inversions `inv` and its values `child`
        if mode == "tally":
            return f"tally[({base}) << {bits} | child_seen] += 1" if bits else f"tally[{base}] += 1"
        return f"out[{inv}].append({child})"

    slots = "".join(f", m{i}" for i in range(bits))
    kids = "".join(f", c{i}" for i in range(bits))
    args = {"tally": ", tally, jobs, cut", "nodes": ""}
    lines = [f"def walk(stack, n_max, k_max{args.get(mode, ', out')}):"]
    if mode == "tally":
        lines += ["    width = k_max + 1",
                  "    # base + closed is the class of a closed child's leaf: length t + 1, inv k_max",
                  "    closed = width + k_max"]
    fields = "vals, inv, pbad, split" + ("" if mode == "nodes" else f", seen{slots}")
    lines += ["    while stack:",
              f"        {fields} = {'node = ' if mode == 'nodes' else ''}stack.pop()"]
    if mode == "nodes":
        lines += ["        yield node",
                  "        if pbad is None:",
                  "            continue"]
    lines.append("        t = len(vals) + 1")
    if mode == "tally":
        lines += ["        if t > cut:",
                  f"            jobs.append(({fields}))",
                  "            continue",
                  "        base = t * width"]
    lines += ["        start = t - k_max + inv",
              "        if start < 1:",
              "            start = 1",
              "        last = t == n_max",
              "        for r in range(t, start - 1, -1):",
              "            if pbad >> r & 1:",
              "                continue",
              "            added = inv + t - r"]
    if mode == "nodes":
        lines += ["            child_split = split if split < r else t",
                  "            if last:",
                  "                leaf = vals.translate(INSERT_RANK[r]) + BYTE[r]",
                  "                stack.append((leaf, added, None, child_split))",
                  "                continue"]
    lines += ["            floor = t + 1 - k_max + added",
              "            if floor < 1:",
              "                floor = 1"]
    if mode != "nodes":
        lines += ["            dead = 0",
                  "            if split < r:",
                  "                # see the module docstring",
                  "                if last or floor > split:",
                  "                    continue",
                  "                dead = (2 << split) - (1 << floor)",
                  "                if pbad & dead == dead:",
                  "                    continue",
                  "                child_split = split",
                  "            else:",
                  "                child_split = t",
                  "            child_seen = seen"]
        for i in range(bits):
            lines += [f"            if m{i} is not None and m{i} >> r & 1:",
                      f"                child_seen |= {1 << i}"]
        lines += ["            if last or added == k_max:",
                  "                " + sink("base + added", "added",
                                            "vals.translate(INSERT_RANK[r]) + BYTE[r]"),
                  "                continue"]
    lines += ["            tau = vals.translate(INSERT_RANK[r]) + BYTE[r]",
              "            anchor = r",
              "            kept = (1 << r) - 1",
              "            bad = (pbad & kept) | (pbad >> r << (r + 1))"]
    if any(plan[0] > 1 for plan in basis_plans + tracked):
        lines.append("            left = (2 << t) - 2 - (1 << r)")
    helpers = []
    for i, plan in enumerate(basis_plans):
        lines += ["        " + line for line in _block(plan, f"fill{i}", helpers)]
    if mode == "nodes":
        lines.append("            stack.append((tau, added, bad, child_split))")
    else:
        lines += ["            if dead and bad & dead == dead:",
                  "                continue",
                  "            child_bad = bad",
                  "            close = False",
                  "            if child_split == t:",
                  "                " + sink("base + added", "added", "tau"),
                  "                if added == k_max - 1:",
                  "                    # closed here: its one live child is the leaf at rank t",
                  "                    if bad >> t & 1:",
                  "                        continue",
                  "                    close = True"]
        for i, plan in enumerate(tracked):
            lines += [f"            if child_seen & {1 << i}:",
                      f"                c{i} = None",
                      "            else:",
                      f"                bad = (m{i} & kept) | (m{i} >> r << (r + 1))",
                      *("            " + line for line in _block(plan, f"track{i}", helpers)),
                      f"                c{i} = bad"]
        lines.append("            if close:")
        for i in range(bits):
            lines += [f"                if c{i} is not None and c{i} >> t & 1:",
                      f"                    child_seen |= {1 << i}"]
        lines += ["                " + sink("base + closed", "k_max",
                                            "tau.translate(INSERT_RANK[t]) + BYTE[t]"),
                  "                continue",
                  f"            stack.append((tau, added, child_bad, child_split, child_seen{kids}))"]
    # a file name per mode, so that profilers tell the kernels apart
    name = f"<{mode} walk kernel {hash(plans) & 0xFFFFFFFF:08x}>"
    names = {"INSERT_RANK": INSERT_RANK, "BYTE": BYTE}
    exec(compile("\n".join(lines + helpers), name, "exec"), names)
    return names["walk"]


def _nodes(basis, n_max: int, k_max: int):
    """An iterator over the nodes below the root of the full walk of
    Av_{<=n_max}^{<=k_max}(basis), (values, inv, bad, split) in preorder,
    children by ascending rank: the node kernel (`_walk_kernel`), past the
    root it starts from. It expands one node per step on its own stack, so
    the first node arrives at once however large the tree is."""
    check_length(n_max)
    if n_max < 1:
        return iter(())
    plans, root = _start(pattern_basis(basis))
    nodes = _walk_kernel(plans, "nodes")([root[:4]], n_max, k_max)
    next(nodes)
    return nodes


def generate_avoiders(basis, n: int, k_max: int) -> list[Perm]:
    """All basis-avoiding permutations of length n with at most k_max inversions.

    Sorted by one-line notation: the length-n nodes of the node stream
    (`_nodes`), whose byte forms sort as their Perms do, each converted once.
    """
    basis = pattern_basis(basis)
    if n < 0:
        raise ValueError("length must be nonnegative")
    if k_max < 0:
        raise ValueError("inversion budget must be nonnegative")
    if n == 0:
        return [Perm()]
    found = sorted(vals for vals, _, _, _ in _nodes(basis, n, k_max) if len(vals) == n)
    return [tuple.__new__(Perm, vals) for vals in found]


def iter_avoiders_upto(basis, n_max: int, k_max: int):
    """Yield (perm, inv) for every avoider of length 1..n_max with inv <= k_max.

    The order is the walk's preorder, and the walk streams (see _nodes).
    """
    for vals, inv, _, _ in _nodes(basis, n_max, k_max):
        # a rank insertion keeps 1..t a permutation, so skip Perm's check
        yield tuple.__new__(Perm, vals), inv


def _indecomposable_bytes(basis, k_max: int) -> list[list[bytes]]:
    """[I_0, ..., I_{k_max}] as byte forms in the compiled walk's order.

    An indecomposable permutation of length n has at least n - 1
    inversions, so one collecting pruned walk to length k_max + 1 fills
    every bucket.
    """
    if k_max < 0:
        return []
    check_length(k_max + 1)
    plans, root = _start(pattern_basis(basis))
    buckets = [[] for _ in range(k_max + 1)]
    _walk_kernel(plans, "collect")([root], k_max + 1, k_max, buckets)
    return buckets


def indecomposables_upto(basis, k_max: int) -> list[list[Perm]]:
    """[I_0, ..., I_{k_max}]: I_k holds the indecomposable basis-avoiders
    with exactly k inversions, ordered by length, then lexicographically.

    The buckets are `_indecomposable_bytes`' byte forms, sorted as their
    Perms would be (bytes by value, then stably by length) and converted
    once.
    """
    buckets = _indecomposable_bytes(basis, k_max)
    for bucket in buckets:
        bucket.sort()
        bucket.sort(key=len)
    return [[tuple.__new__(Perm, vals) for vals in bucket] for bucket in buckets]


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


def _component_rows(start, step, tally, bits, n_max, k_max):
    """Rows 1..n_max of the table from the class tally of the indecomposables,
    a tally from `_new_tally` with `bits` tracked patterns.

    f[state][n] counts the component sequences of total length n that leave
    the automaton in `state`, one count per inversion number. A row over k is
    packed into one integer with `width` bits per inversion number: every
    slot, also the discarded ones above k_max, counts distinct permutations
    of length <= n_max, so it stays below n_max! < 2**width and never carries.
    """
    width = math.factorial(n_max).bit_length()
    kept = (1 << (width * (k_max + 1))) - 1
    # the classes sharing a `seen` move every state alike, so step runs once
    # per (state, distinct seen): by_seen[seen][length] is their packed count
    by_seen = {}
    for index, count in _counts(tally):
        length, inv = divmod(index >> bits, k_max + 1)
        seen = index & ((1 << bits) - 1)
        by_length = by_seen.get(seen)
        if by_length is None:
            by_length = by_seen[seen] = [0] * (n_max + 1)
        by_length[length] += count << (width * inv)
    moves = {}
    todo = [start]
    while todo:
        state = todo.pop()
        polys = {}
        for seen, by_length in by_seen.items():
            target = step(state, seen)
            if target is not None:
                row = polys.setdefault(target, [0] * (n_max + 1))
                for length, poly in enumerate(by_length):
                    row[length] += poly
        # by ascending length, which the DP below stops at
        moves[state] = [(target, length, row[length]) for length in range(1, n_max + 1)
                        for target, row in polys.items() if row[length]]
        todo.extend(polys.keys() - moves.keys() - set(todo))
    f = {state: [0] * (n_max + 1) for state in moves}
    f[start][0] = 1
    for n in range(n_max):
        for state, row in f.items():
            src = row[n] & kept
            if not src:
                continue
            for target, length, poly in moves[state]:
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
# 2-core VM, which the split walk repays only from several thousand on, at
# a cost per indecomposable that depends on the basis and on the machine.
# Measured with each job one call of the tally walk into the flat tally,
# best of 16 in each of three runs, threads=2, inline against pooled:
# {1324} at (18, 12) (5,562 indecomposables) 0.008 s and 0.016 s, at (21, 14)
# (15,803) 0.021 s and 0.022 s; {1324,21354} at (20, 14) (8,764) 0.020 s
# and 0.023 s; {1324,1342} at (30, 20) (78,884) 0.120 s and 0.080 s. On
# that VM the crossover lies between about 9,000 and 16,000, while an
# earlier measurement on another saw the pool win at
# (20, 14) (0.046 s and 0.039 s): it moves with the machine more than with
# the walk, so the value stays. Tallies, unlike the clock, send a table the
# same way on every machine, and job shares are stable across sizes.
_POOL_MIN_TALLY = 5000


# count_table's tally is a list while it needs at most this many slots, else
# a dict: {123456789, 213465879} has 20 tracked sums, and at (12, 10) a list
# would take 13 * 11 << 20 slots.
_DENSE_SLOTS = 1 << 20


def _new_tally(depth, k_max, bits):
    """An empty tally of the indecomposables of a walk to length `depth`
    with `bits` tracked patterns, by class (length, inv, seen).

    Class (length, inv, seen) counts at index
    ((length * (k_max + 1) + inv) << bits) | seen, in a list of
    (depth + 1) * (k_max + 1) << bits slots when that is at most
    _DENSE_SLOTS, else in an int-keyed dict that starts every class at 0.
    Both take `tally[i] += count`, so the compiled walk writes either.
    """
    size = (depth + 1) * (k_max + 1) << bits
    return [0] * size if size <= _DENSE_SLOTS else defaultdict(int)


def _counts(tally):
    """The (index, count) pairs of a tally's classes with a nonzero count."""
    if isinstance(tally, list):
        return [(i, tally[i]) for i in compress(range(len(tally)), tally)]
    return list(tally.items())


def _total(tally):
    """The number of indecomposables a tally counts."""
    return sum(tally) if isinstance(tally, list) else sum(tally.values())


def _job_counts(plans, depth, k_max, node):
    """The nonzero (index, count) pairs of one pool job's tally, which is
    all a worker sends back: every indecomposable below node in the pruned
    walk to length depth, counted by one uncut call of the basis's compiled
    tally walk (`_walk_kernel`) into a tally of its own (`_new_tally`)."""
    tally = _new_tally(depth, k_max, len(plans[1]))
    _walk_kernel(plans, "tally")([node], depth, k_max, tally, None, depth)
    return _counts(tally)


def count_table(basis, n_max: int, k_max: int, threads: int = 1) -> CountTable:
    """Exact table of av_n^k(basis) for n <= n_max, k <= k_max.

    One call of the tally walk from the root counts the table: with one
    worker (threads=1, or one CPU this process may run on) all of it, else
    the levels above depth _SPLIT_DEPTH, listing the nodes at that depth
    as subtree jobs (none for a walk no deeper). The same walk, uncut,
    counts the jobs inline, in order, while the indecomposables they found,
    times the number of jobs over the jobs walked, stay at or below
    _POOL_MIN_TALLY, and it always counts the last job itself; the jobs
    left, at least two, go to a process pool of min(threads, CPUs, jobs
    left) workers (`_job_counts`). All of them count into one tally
    (`_new_tally`): the root's call and the inline jobs directly, the
    pool's by merging the nonzero classes each worker sends back. The
    table is the same either way.
    """
    basis = pattern_basis(basis)
    check_table_bounds(n_max, k_max)
    patterns, start, step = _automaton(basis)
    tracked = tuple(_plan(q) for q in patterns)
    plans, root = _start(basis, tracked)
    # an indecomposable with at most k_max inversions has length <= k_max + 1
    depth = min(n_max, k_max + 1)
    bits = len(tracked)
    tally = _new_tally(depth, k_max, bits)
    # the pool starts every worker at once, so never ask for more than the
    # CPUs this process may run on: its affinity set where the platform has one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)
    walk = _walk_kernel(plans, "tally")
    jobs = []
    # one worker walks the whole table uncut: depth-4 jobs were 2-9 % slower (2-core VM)
    walk([root], depth, k_max, tally, jobs, _SPLIT_DEPTH if workers > 1 else depth)
    # the projection counts the jobs' indecomposables, not the levels above
    # them; a pool for the last job alone would only add its workers' start
    above = _total(tally)
    walked = 0
    while walked < len(jobs) and (
            walked == len(jobs) - 1
            or (_total(tally) - above) * len(jobs) <= _POOL_MIN_TALLY * walked):
        walk([jobs[walked]], depth, k_max, tally, None, depth)
        walked += 1
    if walked < len(jobs):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs) - walked)) as pool:
            for counts in pool.map(partial(_job_counts, plans, depth, k_max), jobs[walked:],
                                   chunksize=1):
                for i, count in counts:
                    tally[i] += count
    rows = _component_rows(start, step, tally, bits, n_max, k_max)
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
