"""Brute-force oracles shared by the tests: plain enumerations, inverse
maps and the backtracking searches the engine's answers are checked
against, kept out of the package."""

from functools import lru_cache
from itertools import permutations
from typing import Sequence

from permseq.partitions import Partition, _runs, check_partition, partitions_of
from permseq.perms import Perm, first_split, from_lehmer, insert_value, nearest_roles


def all_perms(n: int):
    """All of S_n in lexicographic order (n should stay small)."""
    for vals in permutations(range(1, n + 1)):
        yield Perm(vals)


def partition_count(k: int) -> int:
    """p(k), by the pentagonal-number recurrence."""
    p = [1] + [0] * k
    for n in range(1, k + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p[k]


def grow(p):
    """sigma (+) id_m (+) tau -> sigma (+) id_{m+1} (+) tau for a decomposable
    Perm p, by one checked insertion right after its first component."""
    split = first_split(p)
    return insert_value(p, split, split + 1)


def lambda_inverse(parts: Sequence[int]) -> Perm:
    """The unique indecomposable 132-avoider whose code is the partition."""
    parts = check_partition(parts)
    if not parts:
        return Perm((1,))
    n = max(v + i for i, v in enumerate(parts, start=1))
    code = list(parts) + [0] * (n - len(parts))
    return from_lehmer(code)


def spm_generate(k: int) -> set[Partition]:
    """SPM(k) by closure under moving a unit from a part to the next one."""
    start: Partition = (k,) if k else ()
    seen = {start}
    frontier = [start]
    while frontier:
        lam = frontier.pop()
        padded = list(lam) + [0]
        for i in range(len(lam)):
            if padded[i] >= padded[i + 1] + 2:
                nxt = padded.copy()
                nxt[i] -= 1
                nxt[i + 1] += 1
                new = tuple(v for v in nxt if v > 0)
                if new not in seen:
                    seen.add(new)
                    frontier.append(new)
    return seen


Overpartition = tuple[tuple[int, bool], ...]


def overpartition_merge(plain: Sequence[int], distinct: Sequence[int]) -> Overpartition:
    """Merge a partition with a distinct-parts partition into an
    overpartition: the distinct parts are overlined, and each overlined part
    precedes the equal plain parts."""
    plain = check_partition(plain)
    distinct = check_partition(distinct)
    if len(set(distinct)) != len(distinct):
        raise ValueError("second partition must have distinct parts")
    merged = [(v, True) for v in distinct] + [(v, False) for v in plain]
    merged.sort(key=lambda pv: (-pv[0], not pv[1]))
    return tuple(merged)


def overpartition_split(over: Overpartition) -> tuple[Partition, Partition]:
    """Inverse of overpartition_merge."""
    check_partition([v for v, _ in over])
    for i, (v, lined) in enumerate(over):
        if lined and i > 0 and over[i - 1][0] == v:
            raise ValueError("only the first occurrence of a part may be overlined")
    plain = tuple(v for v, lined in over if not lined)
    distinct = tuple(v for v, lined in over if lined)
    return plain, distinct


def overpartitions_of(k: int) -> list[Overpartition]:
    """All overpartitions of k: each subset of part values may be overlined
    at its first occurrence."""
    out = []
    for lam in partitions_of(k):
        runs = _runs(lam)
        for mask in range(1 << len(runs)):
            over: list[tuple[int, bool]] = []
            for i, (v, mult) in enumerate(runs):
                over += [(v, bool(mask >> i & 1))] + [(v, False)] * (mult - 1)
            out.append(tuple(over))
    return out


def backtracking_fill(tau, plan, floor, bad):
    """OR into the mask `bad` the ranks >= floor completing an occurrence of
    the planned pattern in which tau's last entry is the last body role.

    tau is a node value (bytes) or a tuple of ints. The fill places roles
    m1-2 .. 0 right to left in one backtracking loop, each at the positions
    left of its successor. A complete placement ORs in the new entry's
    interval, fixed by roles lo_role and hi_role, and backtracks to role
    `decided`: no role below it can change the interval. Only the reach,
    floor .. t+1 cut to the plan's offsets from the anchor, can be set, so
    the fill returns at once when the reach is empty or already all bad.
    Where the anchor alone decides, the interval is the reach, so the first
    complete placement returns; a body of length 1 has no role to place,
    so its loop starts complete.

    The reference for the compiled fill blocks (`enumeration._block`),
    which follow the same placements with the roles written in as
    constants, and the fill of `reference_children`.
    """
    m1, below, above, lift, lo_role, hi_role, decided, lo_off, hi_off = plan
    t = len(tau)
    anchor = tau[-1]
    if m1 > t:
        return bad
    lo = anchor + lo_off
    if lo < floor:
        lo = floor
    hi = anchor + hi_off
    if hi > t + 1:
        hi = t + 1
    if lo > hi:
        return bad
    reach = (2 << hi) - (1 << lo)
    if bad & reach == reach:
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
                if bad & reach == reach:
                    return bad
            # where the anchor decides, the interval is the reach, so the
            # loop has returned: `decided` is a placed role here
            j = decided
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


def _spread(mask, r):
    """A parent's mask as its child appending rank r inherits it: bits >= r
    move up one, and bit r stays clear."""
    return (mask & ((1 << r) - 1)) | (mask >> r << (r + 1))


def reference_children(node, plans, n_max, k_max):
    """The children of a walk node with a bad mask, in ascending rank order.

    The walk's child rule (the `enumeration` module docstring), applied one
    node at a time with every mask filled by `backtracking_fill`: the
    reference for the compiled walks (`enumeration._walk_kernel`), with
    which it shares no generated code. plans are (basis plans, tracked
    plans) from `enumeration._start`, and a node has the compiled walk's
    shape: (values, inv, bad, split) in the full walk, and (values, inv,
    bad, split, seen, m0, m1, ...) in the pruned walk, with one slot per
    tracked plan, None once the node contains its pattern. A child's values
    are its parent's with every entry >= r raised by one, then r. In the
    full walk every avoider within the budget is a child. The pruned walk
    drops a decomposable child at the last length, and once every rank from
    its floor to its split is bad. A leaf, at length n_max and in the
    pruned walk at the budget, has bad and every slot None.
    """
    basis_plans, tracked = plans
    tau, inv, bad, split, *state = node
    pruned = bool(state)
    seen, *masks = state or (0,)
    t = len(tau)
    floor = max(1, t + 1 - (k_max - inv))
    last = t + 1 == n_max
    kids = []
    for r in range(floor, t + 2):
        if bad >> r & 1:
            continue
        added = inv + t + 1 - r
        child_floor = max(1, t + 2 - (k_max - added))
        dead = 0  # the ranks that, all bad, drop a decomposable child
        if split < r:
            if pruned:
                if last or child_floor > split:
                    continue
                dead = (2 << split) - (1 << child_floor)
                if bad & dead == dead:
                    continue
            child_split = split
        else:
            child_split = t + 1
        child_seen = seen
        for i, mask in enumerate(masks):
            if mask is not None and mask >> r & 1:
                child_seen |= 1 << i
        child = bytes(v + 1 if v >= r else v for v in tau) + bytes((r,))
        child_bad = None
        child_masks = [None] * len(masks)
        if not (last or pruned and added == k_max):
            child_bad = _spread(bad, r)
            for plan in basis_plans:
                child_bad = backtracking_fill(child, plan, child_floor, child_bad)
            if dead and child_bad & dead == dead:
                continue
            child_masks = [None if child_seen >> i & 1
                           else backtracking_fill(child, plan, child_floor, _spread(mask, r))
                           for i, (plan, mask) in enumerate(zip(tracked, masks))]
        pruned_fields = (child_seen, *child_masks) if pruned else ()
        kids.append((child, added, child_bad, child_split, *pruned_fields))
    return kids


def reference_walk(node, plans, n_max, k_max):
    """Yield every node below `node`, down to length n_max, in preorder: a
    node before its subtree, children by ascending rank
    (`reference_children`). The walk descends into every node with a bad
    mask."""
    if len(node[0]) < n_max:
        for child in reference_children(node, plans, n_max, k_max):
            yield child
            if child[2] is not None:
                yield from reference_walk(child, plans, n_max, k_max)


def backtracking_search(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff p contains q, by one backtracking search over q's roles.

    Roles are filled left to right. Role j only has to fall strictly between
    the values of its nearest earlier roles below and above it in value: the
    earlier roles are already ordered among themselves, so that window orders
    the new one against all of them.

    Retries are pruned by dominance. When every completion from role j at
    (position i, value v) has failed, a later position leaves the later
    roles fewer places, so a candidate there can only help if they read its
    value less strictly than v. A role that no later role reads (kind 0)
    gives up at once; one read only as a lower bound (kind 1) retries only
    values below v; one read only as an upper bound (kind 2) only values
    above v; one read both ways (kind 3) every candidate. For 1324, role 0
    walks only the left-to-right minima and role 2 stops at its first fit.
    The reference for the compiled containment kernels (`perms._kernel`).
    """
    m = len(q)
    if m == 0:
        return True
    n = len(p)
    if m > n:
        return False
    below, above, kinds, back = search_windows(q if isinstance(q, tuple) else tuple(q))
    # val[j] is role j's value; val[m] and val[m + 1] stand for a missing
    # neighbour below and above. lo[j] < v < hi[j] is role j's window, which
    # narrows on each retry, and nxt[j] the next position to try for it.
    val = [0] * (m + 2)
    val[m] = lo0 = min(p) - 1
    val[m + 1] = hi0 = max(p) + 1
    lo = [lo0] * m
    hi = [hi0] * m
    nxt = [0] * m
    j = 0
    while True:
        a = lo[j]
        b = hi[j]
        i = nxt[j]
        last = n - m + j
        while i <= last:
            v = p[i]
            if a < v < b:
                break
            i += 1
        else:
            # back to the nearest earlier role that can still retry
            j = back[j]
            if j < 0:
                return False
            kind = kinds[j]
            if kind == 1:
                hi[j] = val[j]
            elif kind == 2:
                lo[j] = val[j]
            continue
        if j + 1 == m:
            return True
        val[j] = v
        nxt[j] = i + 1
        j += 1
        nxt[j] = i + 1
        lo[j] = val[below[j]]
        hi[j] = val[above[j]]


@lru_cache(maxsize=4096)
def search_windows(q: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For each role j of q: the earlier role nearest below and nearest above
    it in value (m and m + 1 when there is none), as indices into the value
    list of `backtracking_search`; how later roles read j's value, never
    (0), only as a lower bound (1), only as an upper bound (2) or both (3);
    and the role to retry when j runs out of candidates, the nearest earlier
    one of nonzero kind (-1 when there is none)."""
    m = len(q)
    below, above = zip(*(nearest_roles(q, j, range(j)) for j in range(m)))
    kinds = tuple((j in below) + 2 * (j in above) for j in range(m))
    back = tuple(max((i for i in range(j) if kinds[i]), default=-1) for j in range(m))
    return below, above, kinds, back
