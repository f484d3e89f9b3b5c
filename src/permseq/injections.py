"""Constructive injections witnessing inversion monotonicity.

The centrepiece maps Av_n^k(1324, 231) into Av_{n+1}^k(1324, 231): append a
point after the reverse identity, insert an identity point into a
decomposable avoider, and otherwise trade the leading descent against an
insertion into the last component. The inverse reads the branch-3 split off
the image (at most two candidates for q), tries one candidate per other
branch, keeps the candidate the forward map sends back to the image, and
raises ValueError on anything that is not an image. Also: the
basis-extension operator that manufactures new inversion-monotone
collections from old ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .perms import (
    Perm,
    avoids,
    components,
    delete,
    direct_sum,
    first_split,
    insert_value,
    inv_count,
    is_decomposable,
    parse_perm,
    pattern_basis,
    standardize,
)

_P231 = parse_perm("231")
_P213 = parse_perm("213")
_CLASS_213_231 = (_P213, _P231)
_BASIS_1324_231 = (parse_perm("1324"), _P231)


# -- the {213, 231} arm lemma ---------------------------------------------

def _require_arm_shape(p: Perm) -> None:
    """Check that p is a nonempty indecomposable {213,231}-avoider. The
    entries above its last entry form the decreasing upper arm; the rest,
    the last entry among them, form the increasing lower arm."""
    if len(p) == 0:
        raise ValueError("permutation must be nonempty")
    if is_decomposable(p):
        raise ValueError(f"{p!r} is decomposable")
    if not avoids(p, _CLASS_213_231):
        raise ValueError(f"{p!r} does not avoid {{213, 231}}")


def lemma_insert(p: Perm, r: int) -> Perm:
    """The unique one-point extension of p adding exactly r inversions while
    staying {213,231}-avoiding, for r in 0..|p|.

    Adding to the lower arm after r upper points creates r inversions;
    adding to the upper arm with r' lower points to its right creates
    a + r' inversions, where a is the upper-arm size. The canonical
    representative inserts at the lowest possible position.
    """
    _require_arm_shape(p)
    n = len(p)
    if not 0 <= r <= n:
        raise ValueError(f"r must be in 0..{n}")
    cut = p[-1]
    uppers = [i for i, v in enumerate(p) if v > cut]
    lowers = [i for i, v in enumerate(p) if v <= cut]
    if r <= len(uppers):
        # lower-arm point right after the r-th upper point, just above the
        # lower-arm values before it
        pos = uppers[r - 1] + 1 if r else 0
        value = max((p[i] for i in lowers if i < pos), default=0) + 1
    else:
        # upper-arm point with r - a lower points from pos on; the upper arm
        # must stay decreasing, so it slots in just above the largest upper
        # to its right (above all lowers otherwise)
        pos = lowers[len(uppers) - r]
        value = max((p[i] for i in uppers if i > pos), default=cut) + 1
    return insert_value(p, pos, value)


def lemma_delete(p: Perm, r: int) -> Perm:
    """The unique one-point deletion of p removing exactly r inversions
    while staying {213,231}-avoiding, for r in 1..|p|-1."""
    _require_arm_shape(p)
    n = len(p)
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}")
    k = inv_count(p)
    found = None
    for v in range(1, n + 1):
        q = delete(p, [v])
        if inv_count(q) == k - r and avoids(q, _CLASS_213_231):
            if found is not None and q != found:
                raise AssertionError(f"deletion from {p!r} losing {r} inversions is not unique")
            found = q
    if found is None:
        raise ValueError(f"no deletion of {p!r} loses exactly {r} inversions")
    return found


# -- the {1324, 231} injection --------------------------------------------

@dataclass(frozen=True)
class Branch3Data:
    """Certificate for the indecomposable branch: leading descent length,
    last-component size, and the unique split ell = q(m+1) - r."""

    ell: int
    m: int
    q: int
    r: int


@dataclass(frozen=True)
class InjectionResult:
    image: Perm
    branch: int  # 1 = reverse identity, 2 = decomposable, 3 = indecomposable
    data: Branch3Data | None = None


def _leading_descent(p: Perm) -> int:
    """Largest ell with p starting n, n-1, ..., n-ell+1."""
    n = len(p)
    ell = 0
    while ell < n and p[ell] == n - ell:
        ell += 1
    return ell


def inject_1324_231_full(p: Perm) -> InjectionResult:
    """Inversion- and avoidance-preserving injection into length n+1.

    Branch 3 (p indecomposable, not the reverse identity): p is a leading
    descent of length ell over a tail c_1 (+) ... (+) c_s with |c_s| = m.
    With q = ceil(ell/(m+1)) and r = q(m+1) - ell, the tail becomes
    rebuilt = c_1 (+) ... (+) lemma_insert(c_s, r); below base =
    |rebuilt| - m - 1 sit c_1..c_{s-1}. The image is the top ell - q values
    descending, then base+q, ..., base+1, then rebuilt with every value
    above base raised by q.
    """
    if not avoids(p, _BASIS_1324_231):
        raise ValueError(f"{p!r} does not avoid {{1324, 231}}")
    n = len(p)
    ell = _leading_descent(p)
    if ell == n:  # the reverse identity, the empty permutation included
        return InjectionResult(direct_sum(p, Perm((1,))), branch=1)
    split = first_split(p)
    if split < n:
        # one identity point right after the first component
        return InjectionResult(insert_value(p, split, split + 1), branch=2)
    *head, last = components(standardize(p[ell:]))
    m = len(last)
    q = -(-ell // (m + 1))
    r = q * (m + 1) - ell
    rebuilt = direct_sum(*head, lemma_insert(last, r))
    base = len(rebuilt) - m - 1
    image = Perm([
        *range(n + 1, n + 1 - ell + q, -1),
        *range(base + q, base, -1),
        *(v + q if v > base else v for v in rebuilt),
    ])
    return InjectionResult(image, branch=3, data=Branch3Data(ell=ell, m=m, q=q, r=r))


def inject_1324_231(p: Perm) -> Perm:
    return inject_1324_231_full(p).image


def inject_1324_231_inverse(sigma: Perm) -> Perm:
    """Invert the injection on any point of its image; raise ValueError on
    every other permutation."""
    for p in _preimage_candidates(sigma):
        if avoids(p, _BASIS_1324_231) and inject_1324_231(p) == sigma:
            return p
    raise ValueError(f"{sigma!r} is not an image of the {{1324, 231}} injection")


def _preimage_candidates(sigma: Perm) -> Iterator[Perm]:
    """Every permutation that the forward map could send to sigma: one per
    branch 1 and 2, then one per branch-3 split q read off sigma."""
    n1 = len(sigma)
    if n1 == 0:
        return
    n = n1 - 1
    yield delete(sigma, [sigma[-1]])  # branch 1 appends a last point
    split = first_split(sigma)
    if split < n1:
        yield delete(sigma, [split + 1])  # branch 2 inserts split + 1
    # branch 3: sigma is the top ell - q values, then base+q, ..., base+1
    # with base + q = sigma[top], then the raised rebuilt tail
    top = _leading_descent(sigma)
    m = n - top - sigma[top] if top < n1 else 0
    if m < 1:
        return
    # r = q*m - top must lie in 0..m: one q, or two when m divides top (the
    # smaller one with r = 0). Only the last q can reach lemma_delete, so a
    # ValueError from it never hides a later candidate.
    for q in range(max(1, -(-top // m)), top // m + 2):
        rest = sigma[top + q:]
        if len(rest) <= m + 1:
            continue  # the tail has no room for a head and a chunk of m + 1
        if sigma[top:top + q] != tuple(range(sigma[top], sigma[top] - q, -1)):
            continue
        rebuilt = standardize(rest)
        chunk = standardize(rebuilt[-m - 1:])
        r = q * m - top
        # lemma_insert(c, 0) puts a new minimum in front of c
        last = delete(chunk, [1]) if r == 0 else lemma_delete(chunk, r)
        tail = direct_sum(standardize(rebuilt[:-m - 1]), last)
        yield Perm([*range(n, n - top - q, -1), *tail])


# -- basis extension -------------------------------------------------------

def basis_extend(basis: Iterable[Perm], direction: str) -> frozenset[Perm]:
    """All one-point extensions of the basis patterns in a fixed spot:
    left/right insert a new first/last entry, up/down a new maximum/minimum.
    """
    basis = pattern_basis(basis)
    if direction == "left":
        return frozenset(insert_value(p, 0, v) for p in basis for v in range(1, len(p) + 2))
    if direction == "right":
        return frozenset(insert_value(p, len(p), v) for p in basis for v in range(1, len(p) + 2))
    if direction == "up":
        return frozenset(insert_value(p, i, len(p) + 1) for p in basis for i in range(len(p) + 1))
    if direction == "down":
        return frozenset(insert_value(p, i, 1) for p in basis for i in range(len(p) + 1))
    raise ValueError(f"unknown direction {direction!r}")


def prepend_min_injection(p: Perm) -> Perm:
    """The trivial injection for patterns that do not start with 1: a new
    minimum in front adds no inversions and cannot start an occurrence."""
    return insert_value(p, 0, 1)


def induced_injection(fn: Callable[[Perm], Perm]) -> Callable[[Perm], Perm]:
    """Lift an injection for Av(basis) to one for Av(basis^left): keep the
    first entry, apply fn to the rest."""

    def g(p: Perm) -> Perm:
        if len(p) == 0:
            return fn(p)
        first = p[0]
        rest = delete(p, [first])
        image = fn(rest)
        return insert_value(image, 0, first)

    return g


# -- generic verification ---------------------------------------------------

@dataclass
class InjectionCheck:
    total: int = 0
    length_ok: bool = True
    inv_ok: bool = True
    avoid_ok: bool = True
    injective: bool = True

    @property
    def ok(self) -> bool:
        return self.length_ok and self.inv_ok and self.avoid_ok and self.injective


def verify_injection(
    domain: Iterable[Perm],
    fn: Callable[[Perm], Perm],
    basis: Iterable[Perm],
) -> InjectionCheck:
    """Check length+1, inversion preservation, avoidance preservation and
    injectivity (per inversion count and length) over the given domain."""
    basis = pattern_basis(basis)
    seen: dict[tuple[int, int], set[Perm]] = {}
    check = InjectionCheck()
    for p in domain:
        image = fn(p)
        check.total += 1
        if len(image) != len(p) + 1:
            check.length_ok = False
        k = inv_count(p)
        if inv_count(image) != k:
            check.inv_ok = False
        if not avoids(image, basis):
            check.avoid_ok = False
        bucket = seen.setdefault((len(p), k), set())
        if image in bucket:
            check.injective = False
        bucket.add(image)
    return check
