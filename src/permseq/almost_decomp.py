"""The length-increasing, inversion-preserving map f on decomposable and
almost decomposable 1324-avoiders, and the compatibility classification of
companion patterns.

A decomposable 1324-avoider splits as sigma (+) id_m (+) tau with sigma an
indecomposable 132-avoider and tau an indecomposable 213-avoider; f grows
the identity run by one entry right after the first component. An almost
decomposable permutation becomes decomposable after deleting one boundary
entry (first entry, value 1, last entry, or value n); f removes that entry,
grows the run and puts the entry back. Case priority follows the original
definition (first entry, then value 1, then the reverse-complement pair),
the only order for which the classification theorems hold.

The four cases are one case seen through `perms.SYMMETRIES`: with sigma
the entry in the case's position (F1..F4) and F1(q) = q[0] put back in
front of q's grown rest, f(p) = sigma(F1(sigma(p))). `_f` keeps the closed
forms: conjugating was 12-21 % slower on compat_table_row(5..7) (2-core VM).

`_f` is f on the byte form of `perms`, given five split lengths: p's first
split and those of p with its first entry, value 1, last entry or value n
deleted. They decide the case with no scan. A deletion is one
`DELETE_VALUE` translate, and an insertion one `INSERT_RANK` translate
plus a slice. `compat_table_row` reads the five lengths off `_split_walk`,
which takes the first split from the compiled walk of Av(1324) (its node
mode, `enumeration._walk_kernel`) and carries the four deletion lengths
down it from parent to child, so the sweep builds a `Perm` only for its
patterns and their witnesses. The checked `Perm` entry points (`f_map`,
`f_domain`, `almost_decomposable`, and `compat_search`, `check_1342_bound`
and `difference_sets` through `_image`) scan the five with
`perms.first_split` (`_splits`). `classify` reads both classification
theorems off one pass over a pattern's orbit under `perms.SYMMETRIES`.

`compat_table_row` reads the patterns each image gains off `Subpatterns`
bitmasks, memoised by the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .enumeration import _nodes, iter_avoiders_upto
from .perms import (
    BYTE,
    DELETE_VALUE,
    INSERT_RANK,
    MAX_LENGTH,
    SYMMETRIES,
    Perm,
    avoids,
    check_length,
    components,
    contains,
    delete,
    first_split,
    inverse,
    is_decomposable,
    max_inversions,
    parse_perm,
)

_P1324 = parse_perm("1324")
_P1342 = parse_perm("1342")
_P213 = parse_perm("213")


# -- almost decomposability ------------------------------------------------

@dataclass(frozen=True)
class FCase:
    """Which boundary deletion makes the permutation decomposable."""

    tag: str  # F1: first entry, F2: value 1, F3: last entry, F4: value n
    witness: int  # the deleted value


def _splits(p: Sequence[int]) -> tuple[int, int, int, int, int]:
    """The five split lengths `_f` reads, by perms.first_split scans: p's
    first split, then those of p with its first entry, value 1, last entry
    or value n deleted (0 for an empty p)."""
    if not p:
        return 0, 0, 0, 0, 0
    return (first_split(p), first_split(p, p[0]), first_split(p, 1),
            first_split(p, p[-1]), first_split(p, len(p)))


def _grow(p: bytes, split: int) -> bytes:
    """sigma (+) id_m (+) tau -> sigma (+) id_{m+1} (+) tau for a byte form p
    whose first component has length split: the new entry goes right after
    it, and the entries after it move up one."""
    return p[:split] + BYTE[split + 1] + p[split:].translate(INSERT_RANK[split + 1])


def _f(p: bytes, split: int, first: int, one: int, last: int, top: int) -> bytes | None:
    """f(p) for the byte form p of a 1324-avoider, or None when p is neither
    decomposable nor almost decomposable; split, first, one, last and top
    are the split lengths of `_splits`."""
    n = len(p)
    if split < n:
        return _grow(p, split)
    # a boundary deletion leaves n - 1 entries; an empty one splits at 0
    m = n - 1
    if first < m:
        # F1: keep the first entry, grow the rest
        e = p[0]
        return BYTE[e] + _grow(p[1:].translate(DELETE_VALUE[e]), first).translate(INSERT_RANK[e])
    if one < m:
        # F2: value 1 back in its place
        grown = _grow(p.translate(DELETE_VALUE[1], BYTE[1]), one).translate(INSERT_RANK[1])
        i = p.index(1)
        return grown[:i] + BYTE[1] + grown[i:]
    if last < m:
        # F3: new last entry one above the old one
        e = p[-1]
        grown = _grow(p[:-1].translate(DELETE_VALUE[e]), last)
        return grown.translate(INSERT_RANK[e + 1]) + BYTE[e + 1]
    if top < m:
        # F4: new maximum right after the old one
        grown = _grow(p.translate(DELETE_VALUE[n], BYTE[n]), top)
        i = p.index(n) + 1
        return grown[:i] + BYTE[n + 1] + grown[i:]
    return None


def _image(p: Perm) -> Perm | None:
    """f(p) as a Perm for a 1324-avoiding Perm p, or None outside f's domain."""
    check_length(len(p) + 1)
    image = _f(bytes(p), *_splits(p))
    # f maps permutations to permutations: skip Perm's check
    return None if image is None else tuple.__new__(Perm, image)


def almost_decomposable(p: Perm) -> FCase | None:
    """The highest-priority applicable case, or None if p is decomposable
    or not almost decomposable."""
    n = len(p)
    split, *deleted = _splits(p)
    if n < 2 or split < n:
        return None
    for tag, e, s in zip(("F1", "F2", "F3", "F4"), (p[0], 1, p[-1], n), deleted):
        if s < n - 1:
            return FCase(tag=tag, witness=e)
    return None


def f_map(p: Perm) -> Perm:
    """The injection on decomposable or almost decomposable 1324-avoiders;
    on a decomposable one it grows the middle identity run by one."""
    if not avoids(p, [_P1324]):
        raise ValueError(f"{p!r} contains 1324")
    image = _image(p)
    if image is None:
        raise ValueError(f"{p!r} is neither decomposable nor almost decomposable")
    return image


def f_domain(p: Perm) -> bool:
    """True iff f_map is defined on p (inside Av(1324))."""
    split, *deleted = _splits(p)
    return split < len(p) or min(deleted) < len(p) - 1


def _split_walk(basis, m_max: int, k_max: int):
    """Yield (values, split, first, one, last, top) for every node of the
    walk of Av_{<=m_max}^{<=k_max}(basis), in its preorder: values is the
    node's byte form and the rest are its five split lengths (`_splits`).
    The nodes and their splits come from the compiled full walk
    (enumeration._nodes); the four deletion lengths are carried down from
    the parent, not scanned.

    A child of length m appending rank r keeps a split below a cutoff and
    otherwise splits at its full length, the walk's split rule (the
    enumeration module docstring) applied to the child less one entry.
    Deleting the child's
    - last entry: leaves the parent, so the parent's split;
    - value 1: leaves the parent if r = 1, else the parent less its value 1
      with rank r - 1 appended: its split if below r - 1, else m - 1;
    - value m: leaves the parent if r = m, else the parent less its
      maximum with rank r appended: its split if below r, else m - 1;
    - first entry: leaves the parent less its first entry with rank r
      appended, or r - 1 when r is above that entry (the child's first
      entry is then below r): its split if below that rank, else m - 1.
    The deletions of the one-entry node are empty and split at 0, but for
    its children they split at no cutoff.
    """
    # level[t]: the splits of the last node of length t, split first, then
    # those with the first entry, value 1 and value t deleted
    level = [None] * (m_max + 1)
    for values, _, _, split in _nodes(basis, m_max, k_max):
        m = len(values)
        if m == 1:
            level[1] = (split, 2, 2, 2)  # 2: at or above every cutoff of a length-2 child
            yield values, split, 0, 0, 0, 0
            continue
        r = values[-1]
        last, first, one, top = level[m - 1]
        cut = r - 1 if values[0] < r else r
        if first >= cut:
            first = m - 1
        if r == 1:
            one = last
        elif one >= r - 1:
            one = m - 1
        if r == m:
            top = last
        elif top >= r:
            top = m - 1
        level[m] = (split, first, one, top)
        yield values, split, first, one, last, top


def theorem_almost_decomp_check(n_max: int):
    """Every 1324-avoider with inv <= 2n-7 is decomposable or almost
    decomposable; returns (n, sorted violations) per length, read off one
    walk to the largest bound."""
    bad: dict[int, list[Perm]] = {n: [] for n in range(1, n_max + 1)}
    for p, k in iter_avoiders_upto([_P1324], n_max, max(2 * n_max - 7, 0)):
        if k <= 2 * len(p) - 7 and not f_domain(p):
            bad[len(p)].append(p)
    return [(n, sorted(bad[n])) for n in bad]


# -- compatibility classification -------------------------------------------

def classify(p: Perm) -> tuple[bool, bool]:
    """(sufficient, necessary) for f-incompatibility of the pattern p, both
    theorems read off one pass over p's images under perms.SYMMETRIES.

    - Sufficient: True certifies that f breaks p-avoidance somewhere.
    - Necessary: True means p may be incompatible; False certifies
      compatibility. On the reverse-complement side of the orbit (the last
      two symmetries), its two-component and 213-avoiding-body conditions
      additionally require the last entry to be below the maximum; this is
      what the reference classification counts use.

    Every symmetry permutes p's components, so their number is read once.
    """
    n = len(p)
    comps = len(components(p))
    if comps >= 3:
        return True, True
    sufficient = necessary = False
    for i, (_name, symmetry) in enumerate(SYMMETRIES):
        q = symmetry(p)
        is_rc_side = i >= 2
        split = first_split(q)
        # deleting q[0] splits its component iff the body has more components
        body_splits = first_split(q, q[0]) < split - 1
        # q[1:] is the body: containment ignores standardization
        shaped = (q[0] > 1 and comps == 2 and q[0] == split) or (
            1 < q[0] < n and avoids(q[1:], [_P213]))
        # on the reverse-complement side the two theorems bound different ends
        sufficient = sufficient or ((not is_rc_side or q[0] < n - 1)
                                    and (shaped or (q[0] < n and body_splits)))
        necessary = necessary or body_splits or ((not is_rc_side or q[-1] < n) and shaped)
        if sufficient and necessary:
            break
    return sufficient, necessary


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


def _verdict(p: Perm, witness, sufficient: bool, necessary: bool) -> CompatVerdict:
    """Combine both theorems with the witness search for a 1324-avoider p:
    witness is the (pi, f(pi)) found for p, or None, and (sufficient,
    necessary) is classify(p).
    """
    if sufficient:
        return CompatVerdict(p, "incompatible-by-theorem", witness)
    if witness is not None:
        return CompatVerdict(p, "incompatible-by-witness", witness)
    if not necessary:
        return CompatVerdict(p, "compatible-by-theorem")
    return CompatVerdict(p, "unknown")


# The longest pattern the sweep classifies: its walk reaches n + 2 and its
# images n + 3, which stay within MAX_LENGTH and fit Subpatterns' bytes keys.
MAX_PATTERN_LENGTH = MAX_LENGTH - 3


def _check_pattern_length(n: int) -> None:
    """The pattern length check shared by compat_search and Subpatterns,
    which compat_table_row builds before its walk."""
    if n < 1:
        raise ValueError(f"pattern length must be at least 1, got {n}")
    if n > MAX_PATTERN_LENGTH:
        raise ValueError(f"pattern length must be at most {MAX_PATTERN_LENGTH}, got {n}")


def compat_search(p: Perm) -> CompatVerdict:
    """Classify one pattern, combining both theorems with a finite witness
    search: the first decomposable or almost decomposable pi of length
    |p|-1 .. |p|+2 in the walk order of Av(1324) that avoids p while f(pi)
    contains p. The tests' reference for compat_table_row, kept here because
    the benchmark's tracing (perfbench/tracing.py) wraps it by name.
    """
    _check_pattern_length(len(p))
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
        image = _image(pi)
        if image is not None and contains(image, p):
            witness = (pi, image)
            break
    return _verdict(p, witness, *classify(p))


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

    @property
    def columns(self) -> tuple[int, int, int, int, int, int]:
        """The six counts in the paper's Table 4 column order."""
        return (self.sufficient_incompatible, self.witness_incompatible,
                self.necessary_incompatible, self.necessary_compatible,
                self.witness_compatible, self.sufficient_compatible)


class Subpatterns:
    """The length-n patterns contained in permutations, as int bitmasks.

    Bit i stands for patterns[i], the i-th length-n pattern met. The mask
    of p is memoised over one-point deletions: a single bit when
    len(p) == n, 0 when len(p) < n, and otherwise the OR of the masks of p
    with one entry deleted (every length-n pattern of p survives in some
    such deletion, and each deletion's patterns are patterns of p). Deleting
    either of two entries adjacent in position and value gives the same
    permutation, and the second is one memo hit: skipping it saved at most
    a few percent of compat_table_row(4..7) (2-core VM).

    The memo is keyed by p's byte form (`perms`), so deleting a value is
    one bytes.translate. `mask` and `gained_mask` take any sequence and
    check its length; the sweep hands `_gained` its byte forms straight,
    whose n + 3 entries at most stay within MAX_LENGTH
    (`_check_pattern_length`).
    """

    def __init__(self, n: int):
        _check_pattern_length(n)
        self.n = n
        self.patterns: list[Perm] = []
        self._masks: dict[bytes, int] = {}

    def mask(self, p: Sequence[int]) -> int:
        """The mask of p's length-n patterns, for p a tuple, list or Perm."""
        check_length(len(p))
        return self._mask(bytes(p))

    def _mask(self, p: bytes) -> int:
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

    def _deletions(self, p: bytes) -> int:
        """The OR of the masks of p with one entry deleted."""
        got = 0
        # bound as locals: read as globals, they slow the loop
        lower, drop, masks = DELETE_VALUE, BYTE, self._masks
        for v in p:
            q = p.translate(lower[v], drop[v])
            # a memoised mask is never 0: it has at least one pattern
            got |= masks.get(q) or self._mask(q)
        return got

    def gained_mask(self, pi: Sequence[int], image: Sequence[int]) -> int:
        """mask(image) & ~mask(pi), without memoising image itself."""
        check_length(len(pi))
        check_length(len(image))
        return self._gained(bytes(pi), bytes(image))

    def _gained(self, pi: bytes, image: bytes) -> int:
        """gained_mask for byte forms."""
        # f is injective, so no image comes twice: only its deletions' masks
        # are memoised, which keeps the memo to the lengths pi takes
        whole = self._deletions(image) if len(image) > self.n else self._mask(image)
        return whole & ~self._mask(pi)

    def decode(self, bits: int) -> list[Perm]:
        """The patterns whose bits are set in bits, lowest bit first."""
        out = []
        while bits:
            low = bits & -bits
            out.append(self.patterns[low.bit_length() - 1])
            bits ^= low
        return out


def compat_table_row(n: int) -> CompatCounts:
    """Classify every pattern in Av_n(1324) in one pass over Av_{<=n+2}(1324).

    The witness columns reproduce the computational lower/upper bounds: a
    pattern p counts as witness-incompatible when some decomposable or
    almost decomposable pi in Av_m(1324, p), n-1 <= m <= n+2, has f(pi)
    containing p. The length-n patterns each such pi's image gains are
    mask(f(pi)) & ~mask(pi), read off the Subpatterns bitmasks; only those
    no earlier pi gained are decoded, so each pattern is decoded once, with
    its witness: the first pi in walk order that gains it, the one
    compat_search finds. The walk (`_split_walk`) streams byte forms with
    their split lengths, so f is applied with no scan and only the masks'
    memo grows with n.
    """
    patterns: list[Perm] = []
    witnesses: dict[Perm, tuple[Perm, Perm]] = {}
    unwitnessed = -1  # the patterns' bits that no pi has gained yet
    subpatterns = Subpatterns(n)
    gained = subpatterns._gained
    m_max = n + 2
    for pi, split, first, one, last, top in _split_walk([_P1324], m_max, max_inversions(m_max)):
        m = len(pi)
        if m == n:
            # a walk node is a permutation: skip Perm's check
            patterns.append(tuple.__new__(Perm, pi))
        if m < n - 1:
            continue
        image = _f(pi, split, first, one, last, top)
        if image is None:
            continue
        # only the first pi to gain a pattern is its witness
        bits = gained(pi, image) & unwitnessed
        if bits:
            unwitnessed &= ~bits
            witness = (tuple.__new__(Perm, pi), tuple.__new__(Perm, image))
            for p in subpatterns.decode(bits):
                witnesses[p] = witness
    theorems = [classify(p) for p in patterns]
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
            _verdict(p, witnesses.get(p), s, c)
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
    counterexamples: dict[int, list[tuple[Perm, int]]] = {n: [] for n in range(1, n_max + 1)}
    preserved = True
    for pi, k in iter_avoiders_upto([_P1324], n_max, max_inversions(n_max)):
        image = _image(pi)
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
    split into the three syntactic families R1, R2, R3, for n >= (k+7)/2.

    R1: first entry n+1 or last entry 1. R2: second entry n+1 (the mirrored
    last-entry-2 case is impossible under 1342-avoidance). R3: inverse of a
    permutation whose body after the first entry has three or more
    components, with first entry ell+1 and last entry ell+2 for ell the
    length of the body's first component (the uninverted case is again
    impossible under 1342-avoidance). Both lengths come from one walk of
    Av_{<=n+1}^{<=k}(1324, 1342); each family is sorted.
    """
    if 2 * n < k + 7:
        raise ValueError(f"difference sets require n >= (k+7)/2; got n={n}, k={k}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    at_k: dict[int, list[Perm]] = {n: [], n + 1: []}
    for p, inv in iter_avoiders_upto([_P1324, _P1342], n + 1, k):
        if inv == k and len(p) >= n:
            at_k[len(p)].append(p)
    # None, for pi outside f's domain, matches no member of length n + 1
    image = {_image(pi) for pi in at_k[n]}
    r1, r2, r3 = [], [], []
    for s in sorted(at_k[n + 1]):
        if s in image:
            continue
        if s[0] == n + 1 or s[-1] == 1:
            r1.append(s)
        elif s[1] == n + 1:
            r2.append(s)
        elif s[-1] == 2:
            raise ValueError(f"{s!r} ends in 2, which 1342-avoidance rules out")
        elif _r3_shape(s):
            raise ValueError(f"{s!r} has the uninverted R3 shape, "
                             "which 1342-avoidance rules out")
        elif _r3_shape(inverse(s)):
            r3.append(s)
        else:
            raise ValueError(f"{s!r} escaped the three difference families")
    return r1, r2, r3


def _r3_shape(tau: Perm) -> bool:
    """First entry one above, last entry two above the length of the leading
    component of tau with both ends deleted, and the body after the first
    entry splitting."""
    trimmed = delete(tau, [tau[0], tau[-1]])
    return (bool(trimmed) and tau[0] == first_split(trimmed) + 1
            and tau[-1] == tau[0] + 1 and first_split(tau, tau[0]) < len(tau) - 1)
