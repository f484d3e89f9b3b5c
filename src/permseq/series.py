"""Exact truncated power series and the limit generating functions.

Coefficients are Python integers, so no overflow is possible; arithmetic is
closed at the truncation order (mismatched orders truncate to the shorter).
Infinite products are truncated at factor index K, since factors beyond x^K
only contribute above the truncation order.

Every catalogue entry is computed without listing partitions, every sum
extends its partial products rather than rebuild them per term, and every
factor 1/(1-x^i) is one pass over the coefficients (`over_one_minus`), not
a multiplication, so a product with P is order passes (`_times_p`):

- products: P, 132 and 1324,1243 (prod 1/(1-x^i)), distinct
  (prod (1+x^i)), 1324,1342 (overpartitions), 1324 and 1324,2413 (P^2),
  1324,2143 (2P - 1);
- closed forms (sums of products): 132,2341 (SPM), 132,3412 (convex
  penny), 132,3421 (distinct except the smallest part), 132,4231 (convex),
  132,4321 (at most two part sizes), 1324,1432 (dividers);
- a transfer DP: 132,3241 (steep partitions);
- the remaining 1324,p entries are squares or products of the above.

`partitions.family_counts`, which filters every partition of k, is kept
only as the test oracle for these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .perms import basis_key, parse_basis


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(k + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(k + 1))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = min(self.order, other.order)
        out = [0] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if a == 0:
                continue
            for j in range(k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def scalar_mul(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * a for a in self.coeffs))

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by x^m."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        k = self.order
        return TruncatedSeries(tuple([0] * min(m, k + 1) + list(self.coeffs[: max(0, k + 1 - m)])))

    def square(self) -> "TruncatedSeries":
        return self * self

    def over_one_minus(self, i: int) -> "TruncatedSeries":
        """Divide by 1 - x^i, in one pass: c[j] += c[j - i] upwards."""
        if i <= 0:
            raise ValueError("exponent must be positive")
        c = list(self.coeffs)
        for j in range(i, len(c)):
            c[j] += c[j - i]
        return TruncatedSeries(tuple(c))


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries((0,) * (order + 1))


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries((1,) + (0,) * order)


def _times_p(s: TruncatedSeries) -> TruncatedSeries:
    """s(x) P(x): s divided by 1 - x^i for i = 1..order."""
    for i in range(1, s.order + 1):
        s = s.over_one_minus(i)
    return s


def partition_gf(order: int) -> TruncatedSeries:
    """P(x) = prod_{i >= 1} 1 / (1 - x^i)."""
    return _times_p(one(order))


def distinct_parts_gf(order: int) -> TruncatedSeries:
    """prod_{i >= 1} (1 + x^i)."""
    return _distinct_prefixes(order)[-1]


def _distinct_prefixes(order: int) -> list[TruncatedSeries]:
    """[prod_{i=1..a} (1 + x^i) for a = 0..order], each extending the last."""
    out = [one(order)]
    for i in range(1, order + 1):
        out.append(out[-1] + out[-1].shift(i))
    return out


def overpartition_gf(order: int) -> TruncatedSeries:
    """prod_{i >= 1} (1 + x^i) / (1 - x^i)."""
    return _times_p(distinct_parts_gf(order))


def _divider_gf(order: int) -> TruncatedSeries:
    """sum_{k >= 0} (k+1) x^k prod_{i=1..k} 1/(1 - x^i)."""
    out = prod = one(order)
    for k in range(1, order + 1):
        prod = prod.over_one_minus(k)
        out = out + prod.shift(k).scalar_mul(k + 1)
    return out


def _convex_partition_gf(order: int) -> TruncatedSeries:
    """Partitions where any drop of two or more is followed by strictly
    decreasing parts: prod(1+x^i) + sum_{a,b} x^{(a+2)(b+1)} prod_{i<=a}(1+x^i) prod_{i<=b}(1+x^i)."""
    prefixes = _distinct_prefixes(order)
    out = prefixes[-1]
    for a in range(0, order - 1):
        inner = zero(order)
        for b in range(0, order // (a + 2)):
            inner = inner + prefixes[b].shift((a + 2) * (b + 1))
        out = out + prefixes[a] * inner
    return out


def _two_sizes_gf(order: int) -> TruncatedSeries:
    """Partitions with at most two distinct part sizes:
    1 + sum_k x^k/(1-x^k) + sum_{k} sum_{i>k} x^{k+i}/((1-x^k)(1-x^i))."""
    out = one(order)
    above = zero(order)  # sum_{i>k} x^i/(1-x^i)
    for k in range(order, 0, -1):
        out = out + (one(order) + above).over_one_minus(k).shift(k)
        above = above + one(order).over_one_minus(k).shift(k)
    return out


def _spm_gf(order: int) -> TruncatedSeries:
    """1 + sum_{k >= 1} x^{k(k+1)/2} prod_{i=1..k} (x + 1/(1-x^i))."""
    out = prod = one(order)
    k = 1
    while k * (k + 1) // 2 <= order:
        prod = prod.shift(1) + prod.over_one_minus(k)
        out = out + prod.shift(k * (k + 1) // 2)
        k += 1
    return out


def _distinct_except_smallest_gf(order: int) -> TruncatedSeries:
    """1 + sum_{k >= 1} x^k/(1-x^k) prod_{i >= k+1} (1 + x^i)."""
    out = suffix = one(order)  # suffix = prod_{i>k} (1 + x^i)
    for k in range(order, 0, -1):
        out = out + suffix.over_one_minus(k).shift(k)
        suffix = suffix + suffix.shift(k)
    return out


def _steep_gf(order: int) -> TruncatedSeries:
    """Steep partitions: each gap between consecutive distinct parts is at
    least the multiplicity of the smaller part.

    A transfer DP over the runs (value v, multiplicity m), smallest value
    first. The state is (weight s, least admissible next value u); the empty
    partition is the state (0, 1), and a run with v >= u moves (s, u) to
    (s + v*m, v + m). Every state reached counts one partition of its weight.
    """
    # ways[s][u] for u <= order + 1, since v*m <= order implies v + m <= order + 1
    ways = [[0] * (order + 2) for _ in range(order + 1)]
    ways[0][1] = 1
    coeffs = [0] * (order + 1)
    for s, row in enumerate(ways):
        for u, w in enumerate(row):
            if not w:
                continue
            coeffs[s] += w
            for v in range(u, order - s + 1):
                for m in range(1, (order - s) // v + 1):
                    ways[s + v * m][v + m] += w
    return TruncatedSeries(tuple(coeffs))


def _penny_gf(order: int) -> TruncatedSeries:
    """Convex-penny partitions: no equal adjacent pair before a drop of two
    or more, the last part dropping to zero.

    Split by a, the value of the first (largest) repeated part. Without one
    the parts are distinct: prod_{i>=1} (1 + x^i). Otherwise the parts above
    a are distinct, and from the plateau at a on every drop is at most one,
    down to zero. So each of a-1, ..., 1 appears and a appears at least
    twice: those forced parts weigh a(a+1)/2 + a, and the rest of the parts
    up to a are free:

        prod(1+x^i) + sum_{a>=1} x^{a + a(a+1)/2} prod_{i<=a} 1/(1-x^i) prod_{i>a} (1+x^i).

    Since (1+x^i)(1-x^i) = 1-x^{2i}, the a-th term is
    x^{a + a(a+1)/2} prod_{i>=1} (1+x^i) prod_{i<=a} 1/(1-x^{2i}).
    """
    out = term = distinct_parts_gf(order)
    a = 1
    while a + a * (a + 1) // 2 <= order:
        term = term.over_one_minus(2 * a)
        out = out + term.shift(a + a * (a + 1) // 2)
        a += 1
    return out


_BASE: dict[str, Callable[[int], TruncatedSeries]] = {
    "P": partition_gf,
    "132": partition_gf,
    "distinct": distinct_parts_gf,
    "132,2341": _spm_gf,
    "132,3241": _steep_gf,
    "132,3412": _penny_gf,
    "132,3421": _distinct_except_smallest_gf,
    "132,4231": _convex_partition_gf,
    "132,4321": _two_sizes_gf,
}

_PAIRS: dict[str, Callable[[int], TruncatedSeries]] = {
    "1324": lambda K: partition_gf(K).square(),
    "1324,1243": partition_gf,
    "1324,2143": lambda K: partition_gf(K).scalar_mul(2) - one(K),
    "1324,1342": overpartition_gf,
    "1324,1432": _divider_gf,
    "1324,4231": lambda K: _convex_partition_gf(K).square(),
    "1324,4321": lambda K: _two_sizes_gf(K).square(),
    "1324,2341": lambda K: _spm_gf(K).square(),
    "1324,2413": lambda K: partition_gf(K).square(),
    "1324,2431": lambda K: _times_p(_steep_gf(K)),
    "1324,3412": lambda K: _penny_gf(K).square(),
    "1324,3421": lambda K: _distinct_except_smallest_gf(K).square(),
}

CATALOGUE = {**_BASE, **_PAIRS}

# The basis names by canonical spelling: basis_key puts 1243 before 1324.
_BY_BASIS = {basis_key(parse_basis(name)): name for name in CATALOGUE if name[0].isdigit()}


def named_gf(name: str, order: int) -> TruncatedSeries:
    """Limit generating function by catalogue name, e.g. "1324,1342"; a
    basis may be spelt in any order and spacing, e.g. "1342, 1324"."""
    key = name.strip()
    try:
        key = _BY_BASIS.get(basis_key(parse_basis(name)), key)
    except ValueError:
        pass
    if key not in CATALOGUE:
        known = ", ".join(sorted(CATALOGUE))
        raise ValueError(f"unknown generating function {name!r}; known: {known}")
    if order < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    return CATALOGUE[key](order)


# -- the 1324,1342 enumeration -------------------------------------------

def secondary_gf_1342(n: int, order: int) -> TruncatedSeries:
    """x^{n-1} (2 + 2x) C_{1324,1342}(x): the stabilized row difference
    av_{n+1}^k - av_n^k of the pair {1324, 1342} for n >= (k+7)/2."""
    over = overpartition_gf(order)
    return (over + over.shift(1)).scalar_mul(2).shift(n - 1)


def av_1324_1342(n: int, k: int) -> int:
    """av_n^k(1324, 1342) from the closed form, valid for n >= (k+7)/2."""
    if n < (k + 7) / 2:
        raise ValueError(f"closed form requires n >= (k+7)/2; got n={n}, k={k}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    base = overpartition_gf(k)
    # (1 - x - x^{n-1}(2+2x)) / (1-x) = 1 - (2x^{n-1} + 2x^n)/(1-x)
    return base[k] - (base.shift(n - 1) + base.shift(n)).scalar_mul(2).over_one_minus(1)[k]
