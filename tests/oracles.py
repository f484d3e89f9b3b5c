"""Brute-force oracles shared by the tests: plain enumerations and inverse
maps the engine's answers are checked against, kept out of the package."""

from itertools import permutations
from typing import Sequence

from permseq.partitions import Partition, _runs, check_partition, partitions_of
from permseq.perms import Perm, first_split, from_lehmer, insert_value


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
