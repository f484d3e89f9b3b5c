"""Constructive injections witnessing inversion monotonicity.

The centrepiece maps Av_n^k(1324, 231) into Av_{n+1}^k(1324, 231): append a
point after the reverse identity, insert an identity point into a
decomposable avoider, and otherwise trade the leading descent against an
insertion into the last component. Also: the basis-extension operator that
manufactures new inversion-monotone collections from old ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .perms import (
    Perm,
    avoids,
    components,
    delete,
    descending,
    direct_sum,
    first_split,
    insert_value,
    inv_count,
    is_decomposable,
    parse_perm,
    standardize,
)

_P231 = parse_perm("231")
_P213 = parse_perm("213")
_CLASS_213_231 = (_P213, _P231)
_BASIS_1324_231 = (parse_perm("1324"), _P231)


# -- the {213, 231} arm lemma ---------------------------------------------

@dataclass(frozen=True)
class ArmProfile:
    """Upper/lower arm sizes of an indecomposable {213,231}-avoider.

    Entries above the last one form the decreasing upper arm; the rest,
    including the last entry, form the increasing lower arm.
    """

    upper: int
    lower: int


def arm_profile(p: Perm) -> ArmProfile:
    _require_arm_shape(p)
    cut = p[-1]
    upper = sum(1 for v in p if v > cut)
    return ArmProfile(upper=upper, lower=len(p) - upper)


def _require_arm_shape(p: Perm) -> None:
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
    prof = arm_profile(p)
    if r <= prof.upper:
        # lower-arm point right after the r-th upper point
        uppers_seen = 0
        pos = 0
        for i, v in enumerate(p):
            if v > cut:
                uppers_seen += 1
                if uppers_seen == r:
                    pos = i + 1
                    break
        if r == 0:
            pos = 0
        # value: just above the last lower-arm value before pos
        below = [v for v in p[:pos] if v <= cut]
        value = (max(below) + 1) if below else 1
        return insert_value(p, pos, value)
    # upper-arm point with (r - upper) lower points after it
    want_after = r - prof.upper
    lowers_after = 0
    pos = n
    for i in range(n - 1, -1, -1):
        if p[i] <= cut:
            lowers_after += 1
            if lowers_after == want_after:
                pos = i
                break
    # value: the upper arm must stay decreasing, so slot in just above the
    # largest upper that remains to the right (above all lowers otherwise)
    uppers_after = [v for v in p[pos:] if v > cut]
    value = (max(uppers_after) if uppers_after else cut) + 1
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


def shift_down(p: Perm, value: int, steps: int) -> Perm:
    """Slide a value down `steps` positions in value order: value e goes to
    e - steps, and e-steps..e-1 each move up one."""
    n = len(p)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 1 <= value <= n or value - steps < 1:
        raise ValueError(f"shifting {value} down {steps} leaves 1..{n}")
    return insert_value(delete(p, [value]), p.index(value), value - steps)


def shift_up(p: Perm, value: int, steps: int) -> Perm:
    n = len(p)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 1 <= value <= n or value + steps > n:
        raise ValueError(f"shifting {value} up {steps} leaves 1..{n}")
    return insert_value(delete(p, [value]), p.index(value), value + steps)


def shift_down_many(p: Perm, values: Sequence[int], steps: int) -> Perm:
    """Shift several values down, smallest first."""
    for v in sorted(values):
        p = shift_down(p, v, steps)
        # subsequent values are unaffected: they sit above the shifted range
    return p


def shift_up_many(p: Perm, values: Sequence[int], steps: int) -> Perm:
    """Shift several values up, largest first."""
    for v in sorted(values, reverse=True):
        p = shift_up(p, v, steps)
    return p


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
    """Inversion- and avoidance-preserving injection into length n+1."""
    if not avoids(p, _BASIS_1324_231):
        raise ValueError(f"{p!r} does not avoid {{1324, 231}}")
    n = len(p)
    if p == descending(n):  # includes the empty permutation
        return InjectionResult(direct_sum(p, Perm((1,))), branch=1)
    split = first_split(p)
    if split < n:
        # one identity point right after the first component
        return InjectionResult(insert_value(p, split, split + 1), branch=2)
    ell = _leading_descent(p)
    assert 1 <= ell < n
    tail = standardize(p[ell:])
    tail_comps = components(tail)
    assert len(tail_comps) >= 2
    last = tail_comps[-1]
    m = len(last)
    q, rem = divmod(ell, m + 1)
    if rem:
        q, r = q + 1, m + 1 - rem
    else:
        r = 0
    data = Branch3Data(ell=ell, m=m, q=q, r=r)
    grown = lemma_insert(last, r)
    rebuilt = direct_sum(*tail_comps[:-1], grown)
    image = _attach_descent(rebuilt, ell, n + 1)
    # the last q of the leading descent points are its q smallest values
    shifted = shift_down_many(
        image,
        [n - ell + 2 + i for i in range(q)],
        m + 1,
    )
    return InjectionResult(shifted, branch=3, data=data)


def _attach_descent(tail: Perm, ell: int, total: int) -> Perm:
    """Prepend the descent total, total-1, ..., total-ell+1 to the tail."""
    assert len(tail) + ell == total
    return Perm(list(range(total, total - ell, -1)) + list(tail))


def inject_1324_231(p: Perm) -> Perm:
    return inject_1324_231_full(p).image


def inject_1324_231_inverse(sigma: Perm) -> Perm:
    """Invert the injection on any point of its image."""
    n1 = len(sigma)
    if n1 == 0:
        raise ValueError("the image of the injection is never empty")
    n = n1 - 1
    if sigma == direct_sum(descending(n), Perm((1,))):
        return descending(n)
    comps = components(sigma)
    if len(comps) >= 3:
        # remove the single identity point inserted between first and last
        mid = comps[1:-1]
        assert all(c == (1,) for c in mid), "branch-2 image must have an identity run"
        return direct_sum(comps[0], *[Perm((1,))] * (len(mid) - 1), comps[-1])
    return _invert_branch3(sigma)


def _invert_branch3(sigma: Perm) -> Perm:
    n1 = len(sigma)
    k = inv_count(sigma)
    # ell' = ell - q: least prefix length whose removal leaves a decomposable tail
    ell1 = next(
        e for e in range(n1 - 1)
        if is_decomposable(standardize(sigma[e:]))
    )
    prev = sigma[ell1 - 1] if ell1 > 0 else n1 + 1
    m_plus_1 = n1 - sigma[ell1] - ell1
    m = m_plus_1 - 1
    # the descent is consecutive, so the first shifted entry sits m+2 below
    # its unshifted neighbour
    assert sigma[ell1] == prev - m_plus_1 - 1, "eligible run must start m+2 below the descent"
    # eligible entries: consecutive decreasing run starting at position ell'+1
    q_cap = 1
    while (
        ell1 + q_cap < n1
        and sigma[ell1 + q_cap] == sigma[ell1] - q_cap
    ):
        q_cap += 1
    # The inversion window admits q and q+1 simultaneously when the true
    # insertion had r = 0 (then q+1 poses as r = m); settle the tie by
    # completing each decode and keeping the one the forward map confirms.
    found = None
    for q in range(1, q_cap + 1):
        values = [sigma[ell1 + i] for i in range(q)]
        try:
            lifted = shift_up_many(sigma, values, m_plus_1)
        except ValueError:
            continue
        gain = inv_count(lifted) - k
        if not ell1 + q <= gain <= ell1 + q + m:
            continue
        try:
            candidate = _decode_branch3(lifted, ell1 + q, gain - ell1 - q, m_plus_1)
        except (ValueError, AssertionError):
            continue
        if inject_1324_231_full(candidate).image == sigma:
            assert found is None, f"two preimages for {sigma!r}"
            found = candidate
    if found is None:
        raise ValueError(f"{sigma!r} is not a branch-3 image")
    return found


def _decode_branch3(lifted: Perm, ell: int, r: int, m_plus_1: int) -> Perm:
    tail = standardize(lifted[ell:])
    # the inserted point sits among the last m+1 entries of the tail
    cut = len(tail) - m_plus_1
    head = standardize(tail[:cut])
    chunk = standardize(tail[cut:])
    shrunk = lemma_delete(chunk, r) if r else _delete_zero_gain(chunk)
    rebuilt = direct_sum(head, shrunk)
    return _attach_descent(rebuilt, ell, len(lifted) - 1)


def _delete_zero_gain(chunk: Perm) -> Perm:
    """Remove the unique point whose deletion loses no inversions and leaves
    a {213,231}-avoider (the r = 0 insertion made the chunk decomposable)."""
    k = inv_count(chunk)
    for v in range(1, len(chunk) + 1):
        out = delete(chunk, [v])
        if inv_count(out) == k and avoids(out, _CLASS_213_231) and not is_decomposable(out):
            return out
    raise AssertionError(f"no zero-gain deletion in {chunk!r}")


# -- basis extension -------------------------------------------------------

def basis_extend(basis: Iterable[Perm], direction: str) -> frozenset[Perm]:
    """All one-point extensions of the basis patterns in a fixed spot:
    left/right insert a new first/last entry, up/down a new maximum/minimum.
    """
    from .perms import pattern_basis

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


def induced_injection(
    basis: Iterable[Perm], fn: Callable[[Perm], Perm]
) -> Callable[[Perm], Perm]:
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
    from .perms import pattern_basis

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
