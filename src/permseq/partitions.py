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

from .enumeration import indecomposables_upto
from .perms import (
    Perm,
    avoids,
    inverse,
    is_decomposable,
    lehmer_code,
    parse_perm,
    reverse_complement,
)

Partition = tuple[int, ...]

_P132 = parse_perm("132")


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
    if not p or is_decomposable(p):
        raise ValueError("permutation must be indecomposable")
    if not avoids(p, [_P132]):
        raise ValueError("permutation must avoid 132")
    code = list(lehmer_code(p))
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


def indecomposable_avoiders(basis, k: int) -> list[Perm]:
    """I_k(basis): indecomposable basis-avoiders with exactly k inversions."""
    return indecomposables_upto(basis, k)[k] if k >= 0 else []


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
    basis = [_P132, parse_perm(partner)]
    for k, bucket in enumerate(indecomposables_upto(basis, k_max)):
        left = {lambda_map(p) for p in bucket}
        right = {lam for lam in partitions_of(k) if family_test(lam)}
        yield left, right


def verify_transfer_213_2431(k_max: int) -> list[tuple[int, bool]]:
    """The map p -> rc(inverse(p)) carries I_k(213, 2431) onto I_k(132, 3241)."""
    sources = indecomposables_upto([parse_perm("213"), parse_perm("2431")], k_max)
    targets = indecomposables_upto([_P132, parse_perm("3241")], k_max)
    return [(k, {reverse_complement(inverse(p)) for p in source} == set(target))
            for k, (source, target) in enumerate(zip(sources, targets))]


def family_counts(test, k_max: int) -> list[int]:
    """Family sizes by filtering every partition of k; a test oracle for the
    closed forms and DPs in `series`, kept here because the benchmark's
    tracing (perfbench/tracing.py) wraps it by name."""
    return [sum(1 for lam in partitions_of(k) if test(lam)) for k in range(k_max + 1)]
