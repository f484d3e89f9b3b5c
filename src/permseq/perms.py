"""Permutation values, statistics, symmetries and pattern containment.

Permutations use one-line notation over 1..n. The empty permutation is a
valid value (length 0); it is the identity for direct sums and shows up in
boundary conventions throughout the package.

`avoids(p, basis)` calls a kernel compiled for the basis from generated
source (`_kernel`). The kernel builds p's prefix value masks (bit v for
each value v left of a position) once and runs one block per pattern of
length 3 or 4, with the pattern's windows written in as constants: role 0
and the last role are one mask query each, and only the middle roles are
scanned. A pattern of any other length goes through one backtracking
search over its roles (`_search`), pruned by dominance: after a placement
of a role fails, it retries only candidates whose value the later roles
read less strictly (see `_windows`'s kinds). `contains` is the one-pattern
case of `avoids`. `inv_count` is one pass over a mask of the values seen
so far, `lehmer_code` one right-to-left pass over a mask of the later
values.

`Perm(values)` checks that the values are 1..n. Two constructors skip that
check because their result cannot fail it: `standardize` writes the ranks
1..n (`components` and `delete` build through it), and `insert_value` on a
`Perm` shifts the entries at or above the new value up by one.
`insert_value` still checks `pos` and `value`, and checks any input that
is not a `Perm`. The compatibility sweep calls neither: it works on the
byte form below.
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


EMPTY = Perm()


# -- the byte form --------------------------------------------------------

# The byte form of a permutation p is bytes(p), for len(p) <= MAX_LENGTH.
# For 0 <= v <= MAX_LENGTH, b.translate(INSERT_RANK[v]) + BYTE[v] appends
# rank v (bytes >= v move up one), and b.translate(DELETE_VALUE[v], BYTE[v])
# deletes the value v (bytes above it move down one).
MAX_LENGTH = 64

_BYTES = bytes(range(256))
INSERT_RANK = tuple(_BYTES[:v] + _BYTES[v + 1:] + b"\xff" for v in range(MAX_LENGTH + 1))
DELETE_VALUE = tuple(_BYTES[:v + 1] + _BYTES[v:255] for v in range(MAX_LENGTH + 1))
BYTE = tuple(_BYTES[v:v + 1] for v in range(MAX_LENGTH + 1))


def check_length(n: int) -> None:
    """Raise ValueError unless a permutation of length n has a byte form."""
    if n > MAX_LENGTH:
        raise ValueError(f"length {n} exceeds the supported maximum {MAX_LENGTH}")


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
    """Canonical text form of a basis, for display and cache keys, which
    parse_basis reads back. A pattern of 10 or more entries is written with
    commas, which parse_basis would split, so it is a ValueError."""
    texts = sorted((format_perm(p) for p in basis), key=lambda s: (len(s), s))
    for text in texts:
        if "," in text:
            raise ValueError(f"pattern {text} has no text form in a basis")
    return ",".join(texts)


# -- statistics ---------------------------------------------------------

def inv_count(p: Sequence[int]) -> int:
    """Number of pairs i < j with p_i > p_j, counted in one pass over a mask
    of the values seen so far: each value adds the bits above it."""
    seen = 0
    total = 0
    for v in _narrow(p):
        seen |= 1 << v
        total += (seen >> v).bit_count() - 1
    return total


def max_inversions(n: int) -> int:
    """The most inversions a permutation of length n has, n(n-1)/2."""
    return n * (n - 1) // 2


def lehmer_code(p: Sequence[int]) -> tuple[int, ...]:
    """Inversion table (b_1..b_n): b_i counts later entries smaller than p_i,
    read in one right-to-left pass as the bits of the later values' mask
    below p_i."""
    later = 0
    code = []
    for v in reversed(_narrow(p)):
        code.append((later & ((1 << v) - 1)).bit_count())
        later |= 1 << v
    code.reverse()
    return tuple(code)


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
    # the ranks are 1..n by construction: skip Perm's check
    return tuple.__new__(Perm, out)


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
    # inserting into a Perm gives a permutation; any other input is checked
    return tuple.__new__(Perm, out) if isinstance(p, Perm) else Perm(out)


# -- pattern containment -------------------------------------------------

def contains(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff some subsequence of p is order-isomorphic to q: the
    one-pattern case of `avoids`. p and q may be any sequences of distinct
    integers."""
    return not avoids(p, (q,))


def avoids(p: Sequence[int], basis: Iterable[Sequence[int]]) -> bool:
    """True iff p contains no pattern of the basis, answered by the kernel
    compiled for the basis (`_kernel`)."""
    qs = tuple(basis)
    try:
        kernel = _basis_kernel(qs)
    except TypeError:  # a pattern given as a list
        kernel = _basis_kernel(tuple(map(tuple, qs)))
    return kernel(p)


@lru_cache(maxsize=1024)
def _basis_kernel(qs: tuple[Sequence[int], ...]):
    """The kernel of the basis qs, found by its patterns' sorted, distinct
    plans: a basis in any order, as bytes or with shifted or spread values
    shares one."""
    return _kernel(tuple(sorted({_plan(tuple(q)) for q in qs})))


def _narrow(p: Sequence[int]) -> Sequence[int]:
    """p itself when its values lie in 1..4|p| (a Perm's always do), else its
    standardization, so that masks with bit v for value v stay narrow."""
    if isinstance(p, Perm) or not p or 0 < min(p) and max(p) <= 4 * len(p):
        return p
    return standardize(p)


def nearest_roles(q: Sequence[int], j: int, roles: Sequence[int]) -> tuple[int, int]:
    """The role among `roles` nearest below q[j] in value and the one nearest
    above it, as slots of a value list in which m = len(q) and m + 1 stand
    for none below and none above: the windows of the containment kernels
    (`_plan`), `_search` (`_windows`) and the enumeration's anchored fill."""
    m = len(q)
    return (max((i for i in roles if q[i] < q[j]), key=q.__getitem__, default=m),
            min((i for i in roles if q[i] > q[j]), key=q.__getitem__, default=m + 1))


@lru_cache(maxsize=4096)
def _plan(q: tuple[int, ...]) -> tuple[int, ...]:
    """What a containment kernel reads of a pattern q of length m: m, then
    for m = 3 or 4 the windows of its block as the slots of their bounds in
    a value list (roles 0..m-1, then m and m + 1 for none below and none
    above), and for any other m q standardized.

    For m = 3: role 0's window against role 1, `pick`, and role 2's window
    against roles 0 and 1. For m = 4: role 0's and role 3's windows against
    role 1 alone (the filters on role 1), role 2's against role 1, whether
    role 2 lies above role 0, how roles 0 and 3 read role 2 (its kind, as
    in `_windows`), role 0's window against roles 1 and 2, `pick`, and role
    3's window against roles 0..2. `pick` is 1 (2) when role 0 is the last
    role's lower (upper) bound, so that role 0 takes its lowest (highest)
    admissible value, and 0 when the last role does not read role 0.
    """
    m = len(q)
    if not 3 <= m <= 4:
        return (m, *standardize(q))
    last = nearest_roles(q, m - 1, range(m - 1))
    pick = 1 if last[0] == 0 else 2 if last[1] == 0 else 0
    if m == 3:
        return (3, *nearest_roles(q, 0, (1,)), pick, *last)
    first = nearest_roles(q, 0, (1, 2))
    kind2 = (2 in (first[0], last[0])) + 2 * (2 in (first[1], last[1]))
    return (4, *nearest_roles(q, 0, (1,)), *nearest_roles(q, 3, (1,)),
            *nearest_roles(q, 2, (1,)), q[2] > q[0], kind2, *first, pick, *last)


@lru_cache(maxsize=256)
def _kernel(plans: tuple[tuple[int, ...], ...]):
    """avoids(p) for the basis whose sorted, distinct plans are `plans`,
    compiled from generated source on first use.

    p's prefix masks are built once: pre[i] holds bit v for each value v at
    positions < i, so full ^ pre[i + 1], with full = pre[-1], holds those
    right of position i. Each pattern of length 3 or 4 then runs its own
    block with its plan's slots written in as constants, and any other
    pattern calls `_search`. The first occurrence returns False.
    """
    lines = ["def avoids(p):"]
    names = {"_narrow": _narrow, "_search": _search}
    if any(3 <= plan[0] <= 4 for plan in plans):
        lines += ["    p = _narrow(p)", "    n = len(p)", "    pre = [0]", "    full = 0",
                  "    for v in p:", "        full |= 1 << v", "        pre.append(full)"]
    for i, plan in enumerate(plans):
        if plan[0] == 3:
            lines += _block3(plan)
        elif plan[0] == 4:
            lines += _block4(plan)
        else:
            names[f"q{i}"] = plan[1:]
            lines += [f"    if _search(p, q{i}):", "        return False"]
    lines.append("    return True")
    # a file name of its own, so that profilers tell the kernels apart
    name = f"<avoids kernel {hash(plans) & 0xFFFFFFFF:08x}>"
    exec(compile("\n".join(lines), name, "exec"), names)
    return names["avoids"]


def _window(mask: str, low: str, high: str) -> str:
    """Source of the bits of `mask` strictly between the values `low` and
    `high`; "0" and "top" stand for none below and none above, and p's
    masks hold no bit 0 and none at or above top."""
    if high == "top":
        return mask if low == "0" else f"{mask} & -(2 << {low})"
    if low == "0":
        return f"{mask} & ((1 << {high}) - 1)"
    return f"{mask} & ((1 << {high}) - (2 << {low}))"


# the source of the lowest (pick 1) or highest (pick 2) value in cands
_EXTREME = (None, "(cands & -cands).bit_length() - 1", "cands.bit_length() - 1")


def _block3(plan: tuple[int, ...]) -> list[str]:
    """Source lines that find a pattern of length 3: one loop scans role 1.
    Role 0 is one query on the prefix left of it, and where it bounds role 2
    takes its extreme admissible value (see `_plan`), the one that leaves
    role 2 the widest window; role 2 is one query on the suffix right of it."""
    _, l0, h0, pick, l2, h2 = plan
    val = ("v0", "v", None, "0", "top")
    out = ["    for a in range(1, n - 1):",
           "        v = p[a]",
           f"        cands = {_window('pre[a]', val[l0], val[h0])}",
           "        if cands:"]
    if pick:
        out.append(f"            v0 = {_EXTREME[pick]}")
    out += [f"            if {_window('(full ^ pre[a + 1])', val[l2], val[h2])}:",
            "                return False"]
    return out


def _block4(plan: tuple[int, ...]) -> list[str]:
    """Source lines that find a pattern of length 4: a pair loop over roles
    1 and 2 that enters only the role-1 positions whose prefix can still
    hold role 0 and whose suffix can still hold role 3, each read against
    role 1 alone, and takes only role-2 values on the right side of role
    0's lowest or highest candidate. Roles 0 and 3 are then one query each.
    Role 2 retries after a failure as `_search` does: a later position
    leaves role 3 fewer places, so only a value that roles 0 and 3 read
    less strictly can help."""
    _, l01, h01, l31, h31, l2, h2, above0, kind2, l0, h0, pick, l3, h3 = plan
    val = ("v0", "v1", "v", None, "0", "top")
    # role 2 must also clear role 0's extreme candidate, and then role 0's
    # window against roles 1 and 2 is never empty; those candidates lie all
    # on one side of role 1, so the pattern fixes which of the two binds
    if above0:
        lo2, hi2 = "v1" if l2 == 1 and h01 == 1 else _EXTREME[1], val[h2]
    else:
        lo2, hi2 = val[l2], "v1" if h2 == 1 and l01 == 1 else _EXTREME[2]
    out = ["    top = full.bit_length()",
           "    for a in range(1, n - 2):",
           "        v1 = p[a]",
           "        left = pre[a]",
           f"        cands = {_window('left', val[l01], val[h01])}",
           f"        if not cands or not {_window('(full ^ pre[a + 2])', val[l31], val[h31])}:",
           "            continue",
           f"        lo2 = {lo2}",
           f"        hi2 = {hi2}",
           "        for b in range(a + 1, n - 1):",
           "            v = p[b]",
           "            if lo2 < v < hi2:"]
    if pick:
        out += [f"                cands = {_window('left', val[l0], val[h0])}",
                f"                v0 = {_EXTREME[pick]}"]
    out += [f"                if {_window('(full ^ pre[b + 1])', val[l3], val[h3])}:",
            "                    return False"]
    if kind2 != 3:
        out.append("                " + ("break", "hi2 = v", "lo2 = v")[kind2])
    return out


def _search(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff p contains q, by one backtracking search over q's roles.

    Roles are filled left to right. Role j only has to fall strictly between
    the values of its nearest earlier roles below and above it in value: the
    earlier roles are already ordered among themselves, so that window orders
    the new one against all of them.

    Retries are pruned by dominance. When every completion from role j at
    (position i, value v) has failed, a later position leaves the later
    roles fewer places, so a candidate there can only help if they read its
    value less strictly than v. A role that no later role reads (kind 0)
    gives up at once; one read only as a lower bound (kind 1) retries only
    values below v; one read only as an upper bound (kind 2) only values
    above v; one read both ways (kind 3) every candidate. For 1324, role 0
    walks only the left-to-right minima and role 2 stops at its first fit.
    """
    m = len(q)
    if m == 0:
        return True
    n = len(p)
    if m > n:
        return False
    below, above, kinds, back = _windows(q if isinstance(q, tuple) else tuple(q))
    # val[j] is role j's value; val[m] and val[m + 1] stand for a missing
    # neighbour below and above. lo[j] < v < hi[j] is role j's window, which
    # narrows on each retry, and nxt[j] the next position to try for it.
    val = [0] * (m + 2)
    val[m] = lo0 = min(p) - 1
    val[m + 1] = hi0 = max(p) + 1
    lo = [lo0] * m
    hi = [hi0] * m
    nxt = [0] * m
    j = 0
    while True:
        a = lo[j]
        b = hi[j]
        i = nxt[j]
        last = n - m + j
        while i <= last:
            v = p[i]
            if a < v < b:
                break
            i += 1
        else:
            # back to the nearest earlier role that can still retry
            j = back[j]
            if j < 0:
                return False
            kind = kinds[j]
            if kind == 1:
                hi[j] = val[j]
            elif kind == 2:
                lo[j] = val[j]
            continue
        if j + 1 == m:
            return True
        val[j] = v
        nxt[j] = i + 1
        j += 1
        nxt[j] = i + 1
        lo[j] = val[below[j]]
        hi[j] = val[above[j]]


@lru_cache(maxsize=4096)
def _windows(q: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For each role j of q: the earlier role nearest below and nearest above
    it in value (m and m + 1 when there is none), as indices into the value
    list of `contains`; how later roles read j's value, never (0), only as a
    lower bound (1), only as an upper bound (2) or both (3); and the role to
    retry when j runs out of candidates, the nearest earlier one of nonzero
    kind (-1 when there is none)."""
    m = len(q)
    below, above = zip(*(nearest_roles(q, j, range(j)) for j in range(m)))
    kinds = tuple((j in below) + 2 * (j in above) for j in range(m))
    back = tuple(max((i for i in range(j) if kinds[i]), default=-1) for j in range(m))
    return below, above, kinds, back
