"""The length-increasing, inversion-preserving map f on decomposable and
almost decomposable 1324-avoiders, and the compatibility classification of
companion patterns.

A decomposable 1324-avoider splits as sigma (+) id_m (+) tau with sigma an
indecomposable 132-avoider and tau an indecomposable 213-avoider; f grows
the identity run by one entry right after the first component. An almost
decomposable permutation becomes decomposable after deleting one boundary
entry (first entry, value 1, last entry, or value n); f removes that entry,
grows the run and puts the entry back. Case priority follows the original
definition (first entry, then value 1, then the reverse-complement pair);
the alternate priority is available behind a flag.

The four cases are one case seen through `perms.SYMMETRIES`: with sigma
the entry in the case's position (F1..F4) and F1(q) = q[0] put back in
front of q's grown rest, f(p) = sigma(F1(sigma(p))). `_f` keeps the closed
forms: conjugating measured about 7 % slower on the compat sweep.

Every split question, boundary deletions included, is one
`perms.first_split` scan that builds no deletion. `_case` picks a
permutation's case once; `_f` applies f, or returns None outside the
domain, and is what the sweeps call; `f_map`, `f_domain` and
`almost_decomposable` are the checked entry points. Both classification
theorems are read off one pass over a pattern's orbit under
`perms.SYMMETRIES` (`_classify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perms import (
    SYMMETRIES,
    Perm,
    avoids,
    components,
    contains,
    delete,
    direct_sum,
    first_split,
    identity,
    insert_value,
    inv_count,
    inverse,
    is_decomposable,
    max_inversions,
    parse_perm,
)

_P1324 = parse_perm("1324")
_P1342 = parse_perm("1342")
_P213 = parse_perm("213")


@dataclass(frozen=True)
class DecompForm:
    """sigma (+) id_m (+) tau with the stated avoidance structure."""

    sigma: Perm
    m: int
    tau: Perm

    def assemble(self) -> Perm:
        return direct_sum(self.sigma, identity(self.m), self.tau)


def decomp_form(p: Perm) -> DecompForm:
    """Split a decomposable 1324-avoider into sigma (+) id_m (+) tau."""
    comps = components(p)
    if len(comps) < 2:
        raise ValueError(f"{p!r} is not decomposable")
    sigma, tau = comps[0], comps[-1]
    middle = comps[1:-1]
    if any(c != (1,) for c in middle):
        raise ValueError(f"{p!r} contains 1324: middle components must be trivial")
    form = DecompForm(sigma=sigma, m=len(middle), tau=tau)
    if not avoids(sigma, [parse_perm("132")]) or not avoids(tau, [_P213]):
        raise ValueError(f"{p!r} contains 1324: outer components are not shaped")
    return form


def _grow(p: Sequence[int]) -> Perm:
    """sigma (+) id_m (+) tau -> sigma (+) id_{m+1} (+) tau for a decomposable
    p: the new entry goes right after the first component."""
    split = first_split(p)
    return insert_value(p, split, split + 1)


def f_tilde(p: Perm) -> Perm:
    """Grow the middle identity run of a decomposable 1324-avoider by one."""
    decomp_form(p)
    return _grow(p)


# -- almost decomposability ------------------------------------------------

@dataclass(frozen=True)
class FCase:
    """Which boundary deletion makes the permutation decomposable."""

    tag: str  # F1: first entry, F2: value 1, F3: last entry, F4: value n
    witness: int  # the deleted value


def _case(p: Sequence[int], alternate_priority: bool = False) -> FCase | None:
    """The highest-priority case of an indecomposable p: the first boundary
    deletion in priority order that leaves a direct sum, or None."""
    n = len(p)
    if n < 2:
        return None
    cases = (("F1", p[0]), ("F2", 1), ("F3", p[-1]), ("F4", n))
    if alternate_priority:
        cases = cases[2:] + cases[:2]
    for tag, e in cases:
        if first_split(p, e) < n - 1:
            return FCase(tag=tag, witness=e)
    return None


def almost_decomposable(p: Perm, alternate_priority: bool = False) -> FCase | None:
    """The highest-priority applicable case, or None if p is decomposable
    or not almost decomposable."""
    return None if is_decomposable(p) else _case(p, alternate_priority)


def _f(p: Sequence[int], alternate_priority: bool = False) -> Perm | None:
    """f(p) for a 1324-avoider p, or None when p is neither decomposable nor
    almost decomposable; p's first split and its case are each read once."""
    n = len(p)
    split = first_split(p)
    if split < n:  # decomposable: _grow(p) with the split already read
        return insert_value(p, split, split + 1)
    case = _case(p, alternate_priority)
    if case is None:
        return None
    grown = _grow(delete(p, [case.witness]))
    if case.tag == "F1":
        # keep the first entry, grow the rest
        return insert_value(grown, 0, p[0])
    if case.tag == "F2":
        return insert_value(grown, p.index(1), 1)
    if case.tag == "F3":
        # new last entry one above the old one
        return insert_value(grown, n, p[-1] + 1)
    # F4: new maximum right after the old one
    return insert_value(grown, p.index(n) + 1, n + 1)


def f_map(p: Perm, alternate_priority: bool = False) -> Perm:
    """The injection on decomposable or almost decomposable 1324-avoiders."""
    if not avoids(p, [_P1324]):
        raise ValueError(f"{p!r} contains 1324")
    image = _f(p, alternate_priority)
    if image is None:
        raise ValueError(f"{p!r} is neither decomposable nor almost decomposable")
    return image


def f_domain(p: Perm) -> bool:
    """True iff f_map is defined on p (inside Av(1324))."""
    return is_decomposable(p) or _case(p) is not None


def theorem_almost_decomp_check(n_max: int):
    """Every 1324-avoider with inv <= 2n-7 is decomposable or almost
    decomposable; returns (n, sorted violations) per length, read off one
    walk to the largest bound."""
    from .enumeration import iter_avoiders_upto

    bad: dict[int, list[Perm]] = {n: [] for n in range(1, n_max + 1)}
    for p, k in iter_avoiders_upto([_P1324], n_max, max(2 * n_max - 7, 0)):
        if k <= 2 * len(p) - 7 and not f_domain(p):
            bad[len(p)].append(p)
    return [(n, sorted(bad[n])) for n in bad]


# -- compatibility classification -------------------------------------------

def _classify(p: Perm) -> tuple[bool, bool]:
    """(classify_sufficient(p), classify_necessary(p)) from one pass over
    p's images under perms.SYMMETRIES, the last two being the
    reverse-complement side."""
    n = len(p)
    sufficient = necessary = False
    for i, (_name, symmetry) in enumerate(SYMMETRIES):
        q = symmetry(p)
        is_rc_side = i >= 2
        comp_q = len(components(q))
        if comp_q >= 3:
            return True, True
        split = first_split(q)
        # deleting q[0] splits its component iff the body has more components
        body_splits = first_split(q, q[0]) < split - 1
        # q[1:] is the body: containment ignores standardization
        shaped = (q[0] > 1 and comp_q == 2 and q[0] == split) or (
            1 < q[0] < n and avoids(q[1:], [_P213]))
        # on the reverse-complement side the two theorems bound different ends
        sufficient = sufficient or ((not is_rc_side or q[0] < n - 1)
                                    and (shaped or (q[0] < n and body_splits)))
        necessary = necessary or body_splits or ((not is_rc_side or q[-1] < n) and shaped)
        if sufficient and necessary:
            break
    return sufficient, necessary


def classify_necessary(p: Perm) -> bool:
    """Necessary condition for f-incompatibility: True means p may be
    incompatible, False certifies compatibility.

    On the reverse-complement side of the orbit, the two-component and
    213-avoiding-body conditions additionally require the last entry to be
    below the maximum; this is what the reference classification counts
    use.
    """
    return _classify(p)[1]


def classify_sufficient(p: Perm) -> bool:
    """Sufficient condition for f-incompatibility: True certifies that f
    breaks p-avoidance somewhere."""
    return _classify(p)[0]


def corollary_families(p: Perm) -> bool:
    """Two simple families of compatible patterns: max-first/min-last, and
    1 (+) tau with tau staying indecomposable under two deletions."""
    n = len(p)
    if n >= 1 and p[0] == n and p[-1] == 1:
        return True
    if n >= 4 and p[0] == 1:
        tau = delete(p, [1])
        m = len(tau)
        if (
            not is_decomposable(tau)
            and not first_split(tau, tau[-1]) < m - 1
            and not first_split(tau, m) < m - 1
        ):
            return True
    return False


@dataclass(frozen=True)
class CompatVerdict:
    pattern: Perm
    verdict: str  # incompatible-by-theorem | incompatible-by-witness |
    #               compatible-by-theorem | unknown
    witness: tuple[Perm, Perm] | None = None  # (pi, f(pi)) with f(pi) containing p


def _verdict(p: Perm, witness, sufficient: bool, necessary: bool,
             alternate_priority: bool) -> CompatVerdict:
    """Combine both theorems with the witness search for a 1324-avoider p:
    witness is the (pi, f(pi)) found for p, or None, and sufficient and
    necessary are classify_sufficient(p) and classify_necessary(p).

    The theorems assume the default case priority; with the alternate
    priority only the witness search applies, so verdicts may degrade to
    unknown.
    """
    if not alternate_priority and sufficient:
        return CompatVerdict(p, "incompatible-by-theorem", witness)
    if witness is not None:
        return CompatVerdict(p, "incompatible-by-witness", witness)
    if not alternate_priority and not necessary:
        return CompatVerdict(p, "compatible-by-theorem")
    return CompatVerdict(p, "unknown")


def compat_search(p: Perm, alternate_priority: bool = False) -> CompatVerdict:
    """Classify one pattern, combining both theorems with a finite witness
    search: the first decomposable or almost decomposable pi of length
    |p|-1 .. |p|+2 in the walk order of Av(1324) that avoids p while f(pi)
    contains p. The tests' reference for compat_table_row, kept here because
    the benchmark's tracing (perfbench/tracing.py) wraps it by name.
    """
    from .enumeration import iter_avoiders_upto

    if contains(p, _P1324):
        # containment of 1324 is preserved by the map, so such patterns are
        # always compatible
        return CompatVerdict(p, "compatible-by-theorem")
    n = len(p)
    m_max = n + 2
    witness = None
    for pi, _k in iter_avoiders_upto([_P1324], m_max, max_inversions(m_max)):
        if len(pi) < n - 1 or contains(pi, p):
            continue
        image = _f(pi, alternate_priority)
        if image is not None and contains(image, p):
            witness = (pi, image)
            break
    return _verdict(p, witness, *_classify(p), alternate_priority)


@dataclass(frozen=True)
class CompatCounts:
    """The six classification counts over Av_n(1324) for one length, and
    the verdicts of its patterns in walk order."""

    n: int
    total: int
    sufficient_incompatible: int
    witness_incompatible: int
    necessary_incompatible: int
    necessary_compatible: int
    witness_compatible: int
    sufficient_compatible: int
    verdicts: tuple[CompatVerdict, ...]


class Subpatterns:
    """The length-n patterns contained in permutations, as int bitmasks.

    Bit i stands for patterns[i], the i-th length-n pattern met. The mask
    of p is memoised over one-point deletions: a single bit when
    len(p) == n, 0 when len(p) < n, and otherwise the OR of the masks of p
    with one entry deleted (every length-n pattern of p survives in some
    such deletion, and each deletion's patterns are patterns of p).
    """

    def __init__(self, n: int):
        self.n = n
        self.patterns: list[Perm] = []
        self._masks: dict[tuple[int, ...], int] = {}

    def mask(self, p: Sequence[int]) -> int:
        got = self._masks.get(p)
        if got is None:
            if len(p) < self.n:
                return 0
            if len(p) == self.n:
                got = 1 << len(self.patterns)
                self.patterns.append(Perm(p))
            else:
                got = self._deletions(p)
            self._masks[p] = got
        return got

    def _deletions(self, p: Sequence[int]) -> int:
        """The OR of the masks of p with one entry deleted."""
        got = 0
        for i, v in enumerate(p):
            got |= self.mask(tuple([x - (x > v) for x in p[:i] + p[i + 1:]]))
        return got

    def gained(self, pi: Sequence[int], image: Sequence[int]) -> list[Perm]:
        """The length-n patterns of image that pi does not contain."""
        # f is injective, so no image comes twice: only its deletions' masks
        # are memoised, which keeps the memo to the lengths pi takes
        whole = self._deletions(image) if len(image) > self.n else self.mask(image)
        bits = whole & ~self.mask(pi)
        out = []
        while bits:
            low = bits & -bits
            out.append(self.patterns[low.bit_length() - 1])
            bits ^= low
        return out


def compat_table_row(n: int, alternate_priority: bool = False) -> CompatCounts:
    """Classify every pattern in Av_n(1324) in one pass over Av_{<=n+2}(1324).

    The witness columns reproduce the computational lower/upper bounds: a
    pattern p counts as witness-incompatible when some decomposable or
    almost decomposable pi in Av_m(1324, p), n-1 <= m <= n+2, has f(pi)
    containing p. Every such pi records the length-n patterns its image
    gains, read off as mask(f(pi)) & ~mask(pi) from the Subpatterns
    bitmasks; the first pi in walk order is the witness, the one
    compat_search finds. The walk streams, so only the masks' memo grows
    with n. The theorem columns assume the default priority; the reference
    counts require it.
    """
    from .enumeration import iter_avoiders_upto

    if n < 1:
        raise ValueError(f"pattern length must be at least 1, got {n}")
    patterns: list[Perm] = []
    witnesses: dict[Perm, tuple[Perm, Perm]] = {}
    subpatterns = Subpatterns(n)
    m_max = n + 2
    for pi, _k in iter_avoiders_upto([_P1324], m_max, max_inversions(m_max)):
        m = len(pi)
        if m == n:
            patterns.append(pi)
        if m < n - 1:
            continue
        image = _f(pi, alternate_priority)
        if image is None:
            continue
        for p in subpatterns.gained(pi, image):
            witnesses.setdefault(p, (pi, image))
    theorems = [_classify(p) for p in patterns]
    n_suff = sum(s for s, _ in theorems)
    n_nec = sum(c for _, c in theorems)
    wit = sum(1 for p in patterns if p in witnesses)
    total = len(patterns)
    return CompatCounts(
        n=n,
        total=total,
        sufficient_incompatible=n_suff,
        witness_incompatible=wit,
        necessary_incompatible=n_nec,
        necessary_compatible=total - n_nec,
        witness_compatible=total - wit,
        sufficient_compatible=total - n_suff,
        verdicts=tuple(
            _verdict(p, witnesses.get(p), s, c, alternate_priority)
            for p, (s, c) in zip(patterns, theorems)
        ),
    )


# -- the 1342 companion ------------------------------------------------------

def check_1342_bound(n_max: int):
    """Scan Av_n(1324, 1342) for images containing 1342.

    Returns per-n lists of (pi, inv) whose image contains 1342. All such pi
    have inv >= 2n-5 (the inductive boundary-point bound), and the minimum
    is attained; in particular none appear at inv <= 2n-6. Also checks that
    1342-containment is preserved by the map on (almost) decomposable
    1324-avoiders.
    """
    from .enumeration import iter_avoiders_upto

    counterexamples: dict[int, list[tuple[Perm, int]]] = {n: [] for n in range(1, n_max + 1)}
    preserved = True
    for pi, k in iter_avoiders_upto([_P1324], n_max, max_inversions(n_max)):
        image = _f(pi)
        if image is None:
            continue
        has_before = contains(pi, _P1342)
        has_after = contains(image, _P1342)
        if has_before and not has_after:
            preserved = False
        if not has_before and has_after:
            counterexamples[len(pi)].append((pi, k))
    return counterexamples, preserved


def difference_sets(n: int, k: int):
    """The members of Av_{n+1}^k(1324, 1342) outside the image of f,
    split into the three syntactic families R1, R2, R3.

    R1: first entry n+1 or last entry 1. R2: second entry n+1 (the mirrored
    last-entry-2 case is impossible under 1342-avoidance). R3: inverse of a
    permutation whose body after the first entry has three or more
    components, with first entry ell+1 and last entry ell+2 for ell the
    length of the body's first component (the uninverted case is again
    impossible under 1342-avoidance).
    """
    from .enumeration import generate_avoiders

    basis = [_P1324, _P1342]
    big = [s for s in generate_avoiders(basis, n + 1, k) if inv_count(s) == k]
    # None, for pi outside f's domain, matches no member of big
    image = {_f(pi) for pi in generate_avoiders(basis, n, k) if inv_count(pi) == k}
    rest = [s for s in big if s not in image]
    r1, r2, r3 = [], [], []
    for s in rest:
        if s[0] == n + 1 or s[-1] == 1:
            r1.append(s)
        elif s[1] == n + 1:
            r2.append(s)
        else:
            assert s[-1] != 2, "last entry 2 is impossible under 1342-avoidance"
            assert _r3_shape(s), f"{s!r} escaped the three difference families"
            r3.append(s)
    return r1, r2, r3


def _r3_shape(s: Perm) -> bool:
    # first entry one above, last entry two above the length of the leading
    # component of the doubly-trimmed permutation, with the body splitting
    for tau in (s, inverse(s)):
        trimmed = delete(tau, [tau[0], tau[-1]])
        if not trimmed:
            continue
        ell = first_split(trimmed)
        if tau[0] != ell + 1 or tau[-1] != ell + 2:
            continue
        if not first_split(tau, tau[0]) < len(tau) - 1:
            continue
        if tau == s:
            raise AssertionError(
                "uninverted R3 shape is impossible under 1342-avoidance"
            )
        return True
    return False
