"""Integer partitions, the Lehmer-code bijection with indecomposable
132-avoiders, and the partition families matching pattern restrictions.

A partition is a tuple of weakly decreasing positive integers; parts beyond
the length count as zero. Each family is defined once, by a rule that reads
the partition run by run: each distinct value, largest first, with its
multiplicity and its gap below the run above it (to zero after the last).
The same rule generates the family one run at a time (`family_partitions`)
and decides membership of a given partition (`in_family`).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator, Sequence

from .enumeration import _indecomposable_bytes, indecomposables_upto
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

# A family rule (start, step) reads a partition run by run, largest first:
# step(state, gap, mult) is the state after a run of `mult` equal parts
# lying `gap` below the run above it (gap None for the first run), or None
# when no partition that starts with these runs is in the family. The
# partition is in the family when one more step, with mult 0 and the gap
# down to zero (None for the empty partition), is not None. A rule that
# rejects a multiplicity rejects every larger one.


def _runs(parts: Sequence[int]) -> list[tuple[int, int]]:
    """(value, multiplicity) for each distinct part, largest first."""
    return [(v, len(list(group))) for v, group in groupby(check_partition(parts))]


def in_family(rule, parts: Sequence[int]) -> bool:
    """Whether the family rule accepts the partition: its step folded over
    the runs, then the final step down to zero, as `family_partitions`
    accepts a partition it has grown."""
    state, step = rule
    top = None
    for v, mult in _runs(parts):
        state = step(state, None if top is None else top - v, mult)
        if state is None:
            return False
        top = v
    return step(state, top, 0) is not None


def _spm_step(pending, gap, mult):
    # sand pile model: no three equal parts, and a drop of at least two
    # between any two plateaus; pending: a plateau above that no drop of
    # two has followed yet
    pending = pending and gap < 2
    if mult > 2 or (mult == 2 and pending):
        return None
    return pending or mult == 2


def _steep_step(state, gap, mult):
    # every gap is at least the multiplicity of the run below it
    return None if gap is not None and gap < mult else state


def _convex_penny_step(plateau, gap, mult):
    # after two equal parts, every gap (down to zero too) is at most one
    if plateau and gap >= 2:
        return None
    return plateau or mult > 1


def _distinct_except_smallest_step(repeated, gap, mult):
    # a repeated part is the smallest: only the zeros follow it
    return None if repeated and mult else mult > 1


def _convex_4231_step(dropped, gap, mult):
    # after a gap of two or more, every part is distinct
    dropped = dropped or (gap is not None and gap >= 2)
    return None if dropped and mult > 1 else dropped


def max_distinct_parts_rule(m: int):
    """Family rule for avoiding the descending pattern of length m: at most
    m - 2 distinct parts."""

    def step(count, gap, mult):
        count += mult > 0
        return count if count <= m - 2 else None

    return 0, step


FAMILY_RULES = {
    "2341": (False, _spm_step),
    "3241": (0, _steep_step),
    "3412": (False, _convex_penny_step),
    "3421": (False, _distinct_except_smallest_step),
    "4231": (False, _convex_4231_step),
    "4321": max_distinct_parts_rule(4),
}


def family_partitions(rule, k_max: int) -> list[set[Partition]]:
    """[F_0, ..., F_{k_max}]: F_k holds the partitions of k that the family
    rule accepts.

    Runs are added largest first, and a prefix of runs the rule rejects is
    dropped with every partition that extends it, so the cost follows the
    family's size, not the number of partitions.
    """
    if k_max < 0:
        return []
    start, step = rule
    buckets: list[set[Partition]] = [set() for _ in range(k_max + 1)]

    def grow(parts, total, top, state):
        # top: the smallest part so far, None while there is none
        if step(state, top, 0) is not None:
            buckets[total].add(parts)
        room = k_max - total
        for v in range(room if top is None else min(top - 1, room), 0, -1):
            gap = None if top is None else top - v
            for mult in range(1, room // v + 1):
                after = step(state, gap, mult)
                if after is None:
                    break
                grow(parts + (v,) * mult, total + v * mult, v, after)

    grow((), 0, None, start)
    return buckets


def family_sides(partner: str, rule, k_max: int) -> Iterator[tuple[set, set]]:
    """Yield, for k = 0..k_max, Lambda(I_k(132, partner)) and the partitions
    of k that the family rule generates.

    Both sides are produced independently: the left from one collecting
    walk over the 132- and partner-avoiders, the right by
    `family_partitions`. The walk's buckets stay byte forms; each k's
    bucket becomes Perms one at a time for the checked `lambda_map`, and is
    released once its side is built.
    """
    basis = [_P132, parse_perm(partner)]
    right = family_partitions(rule, k_max)
    buckets = _indecomposable_bytes(basis, k_max)
    for k in range(k_max + 1):
        bucket, buckets[k] = buckets[k], None
        # a walk output is a permutation, so skip Perm's check
        yield {lambda_map(tuple.__new__(Perm, vals)) for vals in bucket}, right[k]


def verify_transfer_213_2431(k_max: int) -> list[tuple[int, bool]]:
    """The map p -> rc(inverse(p)) carries I_k(213, 2431) onto I_k(132, 3241)."""
    sources = indecomposables_upto([parse_perm("213"), parse_perm("2431")], k_max)
    targets = indecomposables_upto([_P132, parse_perm("3241")], k_max)
    return [(k, {reverse_complement(inverse(p)) for p in source} == set(target))
            for k, (source, target) in enumerate(zip(sources, targets))]


def family_counts(rule, k_max: int) -> list[int]:
    """Family sizes by filtering every partition of k through `in_family`; a
    test oracle for `family_partitions` and for the closed forms and DPs in
    `series`, kept here because the benchmark's tracing
    (perfbench/tracing.py) wraps it by name."""
    return [sum(1 for lam in partitions_of(k) if in_family(rule, lam))
            for k in range(k_max + 1)]
