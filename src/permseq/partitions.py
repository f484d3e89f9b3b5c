"""Integer partitions, the Lehmer-code bijection with indecomposable
132-avoiders, and the partition families matching pattern restrictions.

A partition is a tuple of weakly decreasing positive integers; parts beyond
the length count as zero. The family tests all read one run decomposition
of the parts: each distinct value, largest first, with its multiplicity and
its drop to the next smaller value (to zero after the last).
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterator, Sequence

from .perms import (
    Perm,
    avoids,
    from_lehmer,
    inverse,
    is_decomposable,
    lehmer_code,
    parse_perm,
    reverse_complement,
)

Partition = tuple[int, ...]


def check_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def partitions_of(k: int) -> Iterator[Partition]:
    """All partitions of k in reverse-lexicographic order."""
    if k == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first, *rest)

    yield from rec(k, k)


# -- the Lambda bijection -------------------------------------------------

def lambda_map(p: Perm) -> Partition:
    """Lehmer code with trailing zeros removed; defined on indecomposable
    132-avoiders, where it is a partition of inv(p)."""
    if is_decomposable(p):
        raise ValueError("permutation must be indecomposable")
    if not avoids(p, [parse_perm("132")]):
        raise ValueError("permutation must avoid 132")
    code = list(lehmer_code(p))
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


def lambda_inverse(parts: Sequence[int]) -> Perm:
    """The unique indecomposable 132-avoider whose code is the partition."""
    parts = check_partition(parts)
    if not parts:
        return Perm((1,))
    n = max(v + i for i, v in enumerate(parts, start=1))
    code = list(parts) + [0] * (n - len(parts))
    return from_lehmer(code)


def indecomposable_buckets(basis, k_max: int) -> list[list[Perm]]:
    """[I_0(basis), ..., I_{k_max}(basis)] from one pruned walk of the
    indecomposable basis-avoiders with at most k_max inversions.

    I_k(basis) holds the indecomposable basis-avoiders with exactly k
    inversions. Each bucket is ordered by length, then lexicographically.
    """
    from .enumeration import indecomposables_upto

    buckets: list[list[Perm]] = [[] for _ in range(k_max + 1)]
    for p, k in indecomposables_upto(basis, k_max):
        buckets[k].append(p)
    for bucket in buckets:
        bucket.sort(key=lambda p: (len(p), p))
    return buckets


def indecomposable_avoiders(basis, k: int) -> list[Perm]:
    """I_k(basis): indecomposable basis-avoiders with exactly k inversions."""
    return indecomposable_buckets(basis, k)[k] if k >= 0 else []


# -- partition families ---------------------------------------------------

def _runs(parts: Sequence[int]) -> list[tuple[int, int, int]]:
    """(value, multiplicity, drop) for each distinct part, largest first;
    the drop is the gap to the next smaller part, or to zero after the last."""
    runs = [(v, len(list(group))) for v, group in groupby(check_partition(parts))]
    lows = [v for v, _ in runs[1:]] + [0]
    return [(v, mult, v - low) for (v, mult), low in zip(runs, lows)]


def is_spm(parts: Sequence[int]) -> bool:
    """Sand pile model membership: no three equal parts, and between any two
    plateaus there is a drop of at least two."""
    pending = False  # a plateau not yet followed by a drop of two
    for _, mult, drop in _runs(parts):
        if mult > 2 or (mult == 2 and pending):
            return False
        pending = (pending or mult == 2) and drop < 2
    return True


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


def is_steep(parts: Sequence[int]) -> bool:
    """Each gap between consecutive distinct parts is at least the
    multiplicity of the smaller part."""
    runs = _runs(parts)
    return all(drop >= mult for (_, _, drop), (_, mult, _) in zip(runs, runs[1:]))


def is_convex_penny(parts: Sequence[int]) -> bool:
    """No equal adjacent pair strictly before a drop of two or more
    (zero-padded beyond the last part)."""
    plateau = False
    for _, mult, drop in _runs(parts):
        plateau = plateau or mult > 1
        if plateau and drop >= 2:
            return False
    return True


def is_distinct_except_smallest(parts: Sequence[int]) -> bool:
    """All parts except possibly the smallest value have multiplicity one."""
    return all(mult == 1 for _, mult, _ in _runs(parts)[:-1])


def is_convex_4231(parts: Sequence[int]) -> bool:
    """After any drop of two or more, the remaining parts are strictly
    decreasing (down to the final zero)."""
    dropped = False
    for _, mult, drop in _runs(parts):
        if dropped and mult > 1:
            return False
        dropped = dropped or drop >= 2
    return True


def distinct_part_count(parts: Sequence[int]) -> int:
    return len(_runs(parts))


def max_distinct_parts(m: int) -> Callable[[Sequence[int]], bool]:
    """Family test for avoiding the descending pattern of length m."""

    def test(parts: Sequence[int]) -> bool:
        return distinct_part_count(parts) <= m - 2

    return test


# -- overpartitions -------------------------------------------------------

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
    _validate_overpartition(over)
    plain = tuple(v for v, lined in over if not lined)
    distinct = tuple(v for v, lined in over if lined)
    return plain, distinct


def _validate_overpartition(over: Overpartition) -> None:
    vals = [v for v, _ in over]
    check_partition(vals)
    for i, (v, lined) in enumerate(over):
        if lined:
            if i > 0 and over[i - 1][0] == v:
                raise ValueError("only the first occurrence of a part may be overlined")
        if i > 0 and over[i - 1][0] == v and over[i - 1][1] < lined:
            raise ValueError("overlined part must precede equal plain parts")


def overpartitions_of(k: int) -> list[Overpartition]:
    """All overpartitions of k: each subset of part values may be overlined
    at its first occurrence."""
    out = []
    for lam in partitions_of(k):
        runs = _runs(lam)
        for mask in range(1 << len(runs)):
            over: list[tuple[int, bool]] = []
            for i, (v, mult, _) in enumerate(runs):
                over += [(v, bool(mask >> i & 1))] + [(v, False)] * (mult - 1)
            out.append(tuple(over))
    return out


# -- family verification --------------------------------------------------

FAMILY_TESTS: dict[str, Callable[[Sequence[int]], bool]] = {
    "2341": is_spm,
    "3241": is_steep,
    "3412": is_convex_penny,
    "3421": is_distinct_except_smallest,
    "4231": is_convex_4231,
    "4321": max_distinct_parts(4),
}


def family_sides(partner: str, family_test, k_max: int) -> Iterator[tuple[set, set]]:
    """Yield, for k = 0..k_max, Lambda(I_k(132, partner)) and the set of
    partitions of k passing the test.

    Both sides are produced independently: the left from one walk over the
    132- and partner-avoiders, the right by filtering all partitions of k.
    """
    basis = [parse_perm("132"), parse_perm(partner)]
    for k, bucket in enumerate(indecomposable_buckets(basis, k_max)):
        left = {lambda_map(p) for p in bucket}
        right = {lam for lam in partitions_of(k) if family_test(lam)}
        yield left, right


def verify_family(partner: str, family_test, k_max: int) -> list[tuple[int, bool]]:
    """Check Lambda(I_k(132, partner)) == {partitions of k passing the test}
    for every k <= k_max."""
    return [(k, left == right)
            for k, (left, right) in enumerate(family_sides(partner, family_test, k_max))]


def verify_transfer_213_2431(k_max: int) -> list[tuple[int, bool]]:
    """The map p -> rc(inverse(p)) carries I_k(213, 2431) onto I_k(132, 3241)."""
    sources = indecomposable_buckets([parse_perm("213"), parse_perm("2431")], k_max)
    targets = indecomposable_buckets([parse_perm("132"), parse_perm("3241")], k_max)
    return [(k, {reverse_complement(inverse(p)) for p in source} == set(target))
            for k, (source, target) in enumerate(zip(sources, targets))]


def family_counts(test, k_max: int) -> list[int]:
    """Family sizes by filtering every partition of k; a test oracle for the
    closed forms and DPs in `series`, kept here because the benchmark's
    tracing (perfbench/tracing.py) wraps it by name."""
    return [sum(1 for lam in partitions_of(k) if test(lam)) for k in range(k_max + 1)]
