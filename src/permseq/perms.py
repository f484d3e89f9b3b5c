"""Permutation values, statistics, symmetries and pattern containment.

Permutations use one-line notation over 1..n. The empty permutation is a
valid value (length 0); it is the identity for direct sums and shows up in
boundary conventions throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


class Perm(tuple):
    """An immutable permutation of {1..n} in one-line notation."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()):
        vals = tuple(values)
        n = len(vals)
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {vals}")
        return super().__new__(cls, vals)

    def __repr__(self):
        return f"Perm({format_perm(self)!r})" if self else "Perm('')"

    @property
    def n(self) -> int:
        return len(self)


EMPTY = Perm()


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: space-free digits ("34152") or comma-separated ("12,11,10,...")."""
    text = text.strip()
    if not text:
        return EMPTY
    try:
        return Perm(int(tok) for tok in (text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"invalid pattern {text!r}") from None


def format_perm(p: Sequence[int]) -> str:
    """One-line text form; digits for n <= 9, comma-separated beyond."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def pattern_basis(patterns: Iterable[Perm | str]) -> frozenset[Perm]:
    """A deduplicated, nonempty set of forbidden patterns of length >= 1."""
    out = set()
    for p in patterns:
        q = parse_perm(p) if isinstance(p, str) else Perm(p)
        if len(q) == 0:
            raise ValueError("patterns must have length >= 1")
        out.add(q)
    if not out:
        raise ValueError("a pattern basis must be nonempty")
    return frozenset(out)


def parse_basis(text: str) -> frozenset[Perm]:
    """Parse a comma-of-patterns spec like "1324,231". Each token is one pattern."""
    return pattern_basis(tok for tok in text.split(",") if tok.strip())


def basis_key(basis: Iterable[Sequence[int]]) -> str:
    """Canonical text form of a basis, for display and cache keys."""
    return ",".join(sorted((format_perm(p) for p in basis), key=lambda s: (len(s), s)))


# -- statistics ---------------------------------------------------------

def inv_count(p: Sequence[int]) -> int:
    """Number of pairs i < j with p_i > p_j."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def max_inversions(n: int) -> int:
    """The most inversions a permutation of length n has, n(n-1)/2."""
    return n * (n - 1) // 2


def lehmer_code(p: Sequence[int]) -> tuple[int, ...]:
    """Inversion table (b_1..b_n): b_i counts later entries smaller than p_i."""
    n = len(p)
    return tuple(
        sum(1 for j in range(i + 1, n) if p[j] < p[i]) for i in range(n)
    )


def from_lehmer(code: Sequence[int]) -> Perm:
    """Decode an inversion table; rejects out-of-range entries."""
    n = len(code)
    for i, b in enumerate(code):
        if not 0 <= b <= n - 1 - i:
            raise ValueError(f"code entry {b} at position {i + 1} out of range 0..{n - 1 - i}")
    avail = list(range(1, n + 1))
    return Perm(avail.pop(b) for b in code)


# -- symmetries ---------------------------------------------------------

def inverse(p: Sequence[int]) -> Perm:
    n = len(p)
    out = [0] * n
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return Perm(out)


def reverse(p: Sequence[int]) -> Perm:
    return Perm(reversed(p))


def complement(p: Sequence[int]) -> Perm:
    n = len(p)
    return Perm(n + 1 - v for v in p)


def reverse_complement(p: Sequence[int]) -> Perm:
    n = len(p)
    return Perm(n + 1 - v for v in reversed(p))


# The inversion-preserving symmetries, each fixing 1324, as (name, map). The
# maps are commuting involutions; in this order they carry p's first entry
# to the first entry, to the value 1, to the last entry and to the value n.
SYMMETRIES = (
    ("identity", Perm),
    ("inverse", inverse),
    ("reverse-complement", reverse_complement),
    ("inverse-reverse-complement", lambda p: inverse(reverse_complement(p))),
)


# -- sums and components ------------------------------------------------

def direct_sum(*parts: Sequence[int]) -> Perm:
    """Block-diagonal concatenation; the empty permutation acts as identity."""
    out: list[int] = []
    for part in parts:
        base = len(out)
        out.extend(base + v for v in part)
    return Perm(out)


def skew_sum(s: Sequence[int], t: Sequence[int]) -> Perm:
    """Anti-diagonal concatenation: s shifted above t."""
    m = len(t)
    return Perm([m + v for v in s] + list(t))


def identity(n: int) -> Perm:
    return Perm(range(1, n + 1))


def descending(n: int) -> Perm:
    """The reverse identity n, n-1, ..., 1."""
    return Perm(range(n, 0, -1))


def components(p: Sequence[int]) -> list[Perm]:
    """The unique maximal decomposition p = c_1 (+) c_2 (+) ... into indecomposables."""
    out = []
    start = 0
    high = 0
    for i, v in enumerate(p):
        high = max(high, v)
        if high == i + 1:
            out.append(standardize(p[start : i + 1]))
            start = i + 1
    return out


def first_split(p: Sequence[int], drop: int | None = None) -> int:
    """The length of p's first direct-sum component (len(p) if p is
    indecomposable, 0 if empty). With drop=e, the same for p with the value e
    deleted and the rest standardized, read in one prefix-maximum scan
    without building the deletion: e is skipped, entries above it count one
    lower."""
    if drop is None:
        drop = len(p) + 1
    elif not 1 <= drop <= len(p):
        raise ValueError(f"value {drop} not in 1..{len(p)}")
    high = length = 0
    for v in p:
        if v > drop:
            v -= 1
        elif v == drop:
            continue
        length += 1
        if v > high:
            high = v
        if high == length:
            break
    return length


def is_decomposable(p: Sequence[int]) -> bool:
    """True iff p is a direct sum of two nonempty permutations."""
    return first_split(p) < len(p)


def standardize(seq: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to a sequence of distinct numbers."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    out = [0] * len(seq)
    for rank, idx in enumerate(order, start=1):
        out[idx] = rank
    return Perm(out)


def delete(p: Sequence[int], values: Iterable[int]) -> Perm:
    """Remove the entries with the given values and standardize the rest."""
    drop = set(values)
    n = len(p)
    for v in drop:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} not in 1..{n}")
    return standardize([v for v in p if v not in drop])


def insert_value(p: Sequence[int], pos: int, value: int) -> Perm:
    """Insert a new entry at position pos (0-based) with the given new value.

    Existing entries >= value are shifted up by one, so the result has
    length n+1 and deleting `value` from it recovers p.
    """
    n = len(p)
    if not 0 <= pos <= n:
        raise ValueError(f"position {pos} not in 0..{n}")
    if not 1 <= value <= n + 1:
        raise ValueError(f"value {value} not in 1..{n + 1}")
    out = [v + 1 if v >= value else v for v in p]
    out.insert(pos, value)
    return Perm(out)


# -- pattern containment -------------------------------------------------

def contains(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff some subsequence of p is order-isomorphic to q.

    Roles are filled left to right. Role j only has to fall strictly between
    the values of its nearest earlier roles below and above it in value: the
    earlier roles are already ordered among themselves, so that window orders
    the new one against all of them.
    """
    m = len(q)
    if m == 0:
        return True
    n = len(p)
    if m > n:
        return False
    below, above = _windows(q if isinstance(q, tuple) else tuple(q))
    # val[j] is role j's value; val[m] and val[m + 1] stand for a missing
    # neighbour below and above. nxt[j] is the next position to try for role j.
    val = [0] * (m + 2)
    val[m] = min(p) - 1
    val[m + 1] = max(p) + 1
    nxt = [0] * m
    j = 0
    while j >= 0:
        lo = val[below[j]]
        hi = val[above[j]]
        i = nxt[j]
        last = n - m + j
        while i <= last:
            v = p[i]
            if lo < v < hi:
                break
            i += 1
        else:
            j -= 1
            continue
        if j + 1 == m:
            return True
        val[j] = v
        nxt[j] = i + 1
        j += 1
        nxt[j] = i + 1
    return False


@lru_cache(maxsize=4096)
def _windows(q: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each role j of q, the earlier role nearest below and nearest above
    it in value (m and m + 1 when there is none), as indices into the value
    list of `contains`."""
    m = len(q)
    below, above = [], []
    for j in range(m):
        earlier = range(j)
        below.append(max((i for i in earlier if q[i] < q[j]), key=q.__getitem__, default=m))
        above.append(min((i for i in earlier if q[i] > q[j]), key=q.__getitem__, default=m + 1))
    return tuple(below), tuple(above)


def avoids(p: Sequence[int], basis: Iterable[Sequence[int]]) -> bool:
    """True iff p contains no pattern of the basis."""
    return not any(contains(p, q) for q in basis)
