"""Brute-force oracles shared by the tests: plain enumerations the engine's
answers are checked against, kept out of the package."""

from itertools import permutations

from permseq.perms import Perm


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
