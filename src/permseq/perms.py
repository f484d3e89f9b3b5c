"""Permutation values, statistics, symmetries and pattern containment.

Permutations use one-line notation over 1..n. The empty permutation is a
valid value (length 0); it is the identity for direct sums and shows up in
boundary conventions throughout the package.

`avoids(p, basis)` calls a kernel compiled for the basis from generated
source (`_kernel`). The kernel builds p's prefix value masks (bit v for
each value v left of a position) once and runs one block per pattern, of
any length, with the pattern's windows written in as constants (`_block`):
role 0 and the last role are one mask query each, and each middle role is
a loop over its positions, pruned by dominance: after a placement of a
role fails, it retries only candidates whose value the later roles read
less strictly (see `_plan`'s kinds). Past _NESTED loops a block continues
in a generated helper function, since CPython compiles at most 20 nested
loops in one function. `contains` is the one-pattern case of
`avoids`. `inv_count` is one pass over a mask of the values seen so far,
`lehmer_code` one right-to-left pass over a mask of the later values.

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
    (`_plan`) and of the enumeration's anchored fill."""
    m = len(q)
    return (max((i for i in roles if q[i] < q[j]), key=q.__getitem__, default=m),
            min((i for i in roles if q[i] > q[j]), key=q.__getitem__, default=m + 1))


@lru_cache(maxsize=4096)
def _plan(q: tuple[int, ...]) -> tuple:
    """What a containment kernel reads of a pattern q of length m, as slots
    of a value list (roles 0..m-1, then m and m + 1 for none below and none
    above). The search places the middle roles 1..m-2 left to right, then
    reads role 0 off the prefix left of role 1 and the last role off the
    suffix right of role m-2 (see `_block`).

    The plan is m, one record per middle role, role 0's window against the
    middle roles with `pick`, and the last role's window against roles
    0..m-2. `pick` is 1 (2) when role 0 is the last role's lower (upper)
    bound, so that role 0 takes its lowest (highest) admissible value, and
    0 when the last role does not read role 0. Role 1's record holds role
    0's and the last role's windows against role 1 alone, its filters. The
    record of a role j >= 2 holds its window against roles 1..j-1, whether
    it lies above role 0, and its kind: how the roles searched after it (the
    later middle roles, then role 0 and the last role) read its value, never
    (0), only as a lower bound (1), only as an upper bound (2) or both (3).
    A middle role before the last one (m-2) also records the last role's
    window against roles 1..j, its filter; the last one has no record when
    it is role 1. Two entries have one record, role 0's window against role
    1, and fewer have none.
    """
    m = len(q)
    if m < 3:
        return (m, nearest_roles(q, 0, (1,))) if m == 2 else (m,)
    inner = m - 2
    first = nearest_roles(q, 0, range(1, inner + 1))
    last = nearest_roles(q, m - 1, range(m - 1))
    pick = 1 if last[0] == 0 else 2 if last[1] == 0 else 0
    windows = [nearest_roles(q, j, range(1, j)) for j in range(inner + 1)]
    records = []
    if inner > 1:
        records.append((*nearest_roles(q, 0, (1,)), *nearest_roles(q, m - 1, (1,))))
    for j in range(2, inner + 1):
        readers = (*windows[j + 1:], first, last)
        kind = any(j == w[0] for w in readers) + 2 * any(j == w[1] for w in readers)
        record = (*windows[j], q[j] > q[0], kind)
        if j < inner:
            record += nearest_roles(q, m - 1, range(1, j + 1))
        records.append(record)
    return (m, *records, (*first, pick), last)


@lru_cache(maxsize=256)
def _kernel(plans: tuple[tuple, ...]):
    """avoids(p) for the basis whose sorted, distinct plans are `plans`,
    compiled from generated source on first use.

    p's prefix masks are built once: pre[i] holds bit v for each value v at
    positions < i, so full ^ pre[i + 1], with full = pre[-1], holds those
    right of position i. Each pattern then runs its own block (`_block`)
    with its plan's slots written in as constants. The first occurrence
    returns False.
    """
    lines = ["def avoids(p):", "    p = _narrow(p)", "    n = len(p)", "    pre = [0]",
             "    full = 0", "    for v in p:", "        full |= 1 << v", "        pre.append(full)"]
    helpers = []
    for i, plan in enumerate(plans):
        lines += _block(plan, f"find{i}", helpers)
    lines.append("    return True")
    # a file name of its own, so that profilers tell the kernels apart
    name = f"<avoids kernel {hash(plans) & 0xFFFFFFFF:08x}>"
    names = {"_narrow": _narrow}
    exec(compile("\n".join(lines + helpers), name, "exec"), names)
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


def _extreme(pick: int, mask: str) -> str:
    """Source of the lowest (pick 1) or highest (pick 2) value in `mask`."""
    return f"({mask} & -{mask}).bit_length() - 1" if pick == 1 else f"{mask}.bit_length() - 1"


# CPython compiles at most 20 nested loops in one function, so a generated
# block (here and in the enumeration's fill kernels) continues in a helper
# function after every _NESTED role loops. _POSITIONS names the position
# variables of a function's loops.
_NESTED = 12
_POSITIONS = [chr(ord("a") + i) for i in range(_NESTED)]


def _block(plan: tuple, name: str, helpers: list[str]) -> list[str]:
    """Source lines, one indent deep in `avoids`, that return False on an
    occurrence of the planned pattern; `helpers` collects the functions
    they call, named after `name`.

    One loop per middle role scans its positions left to right. Role 1
    enters only the positions whose prefix can still hold role 0 and whose
    suffix can still hold the last role, each read against role 1 alone.
    A role j >= 2 takes only values in its window, and where it lies in the
    same gap between roles 1..j-1 as role 0, on the right side of role 0's
    lowest or highest candidate: then role 0's window against roles 1..j is
    never empty. Role 0's candidate mask is narrowed in a variable per
    role, so a loop that restarts reads its candidates against the roles
    outside it, never a mask that a deeper role narrowed on an earlier
    pass. Once the last middle role is placed, role 0 takes its
    extreme admissible value (see `_plan`'s pick), the one that leaves the
    last role the widest window, and the last role is one query on the
    suffix. A role j >= 2 retries after a failure by dominance: a later
    position leaves the roles after it fewer places, so only a value that
    they read less strictly can help (kind 0 gives up, kind 1 retries only
    lower values, kind 2 only higher ones). Role 1 does not retry: a later
    role 1 leaves role 0 more places. A pattern of two entries scans role 1
    with role 0 as its query, and shorter ones need no scan.
    """
    m = plan[0]
    if m < 3:
        if m == 2:
            low, high = (("v", "0", "top")[slot - 1] for slot in plan[1])
            return ["    for a in range(1, n):", "        v = p[a]",
                    f"        if {_window('pre[a]', low, high)}:", "            return False"]
        # the empty pattern lies in every p, a one-entry one in every nonempty p
        return ["    if full:", "        return False"] if m else ["    return False"]
    (l0, h0, pick), (l_last, h_last) = plan[-2:]
    records = iter(plan[1:-2])
    inner = m - 2
    val = {0: "v0", **{j: f"v{j}" for j in range(1, inner)}, inner: "v", m: "0", m + 1: "top"}
    lines = ["    top = full.bit_length()"] if inner > 1 else []

    def role(j, out, depth, start, found, gap, cands):
        # role j's loop at `depth` in `out`, from the position `start`;
        # `found` is the statement for an occurrence, `gap` role 0's window
        # against roles 1..j-1 and `cands` the name of its candidate mask
        def emit(d, line):
            out.append("    " * (depth + d) + line)

        def suffix(window):
            # the last role's window in the suffix right of the roles after j
            return _window(f"(full ^ pre[{pos} + {rest}])", *map(val.get, window))

        pos = _POSITIONS[(j - 1) % _NESTED]
        rest = m - 1 - j  # the roles right of role j
        # the loops inside role j read its mask each time they restart, after
        # deeper roles wrote theirs, so it has a name of its own; the last two
        # middle roles share one, as no loop restarts between their writes
        mask = "cands" if j >= inner - 1 else f"c{j}"
        if j > 1:
            low, high, above0, kind, *last_j = next(records)
            # where role 0's candidates share role j's gap, their extreme bounds role j
            same = (low, high) == gap
            emit(0, f"lo{j} = {_extreme(1, cands) if same and above0 else val[low]}")
            emit(0, f"hi{j} = {_extreme(2, cands) if same and not above0 else val[high]}")
        emit(0, f"for {pos} in range({start}, n - {rest}):")
        emit(1, f"{val[j]} = p[{pos}]")
        if j == inner == 1:
            emit(1, f"{mask} = {_window(f'pre[{pos}]', val[l0], val[h0])}")
            emit(1, f"if {mask}:")
            d = 2
        elif j == 1:
            l01, h01, *last_j = next(records)
            gap = l01, h01
            emit(1, f"left = pre[{pos}]")
            emit(1, f"{mask} = {_window('left', val[l01], val[h01])}")
            emit(1, f"if not {mask} or not {suffix(last_j)}:")
            emit(2, "continue")
            d = 1
        else:
            emit(1, f"if lo{j} < {val[j]} < hi{j}:")
            d = 2
            if same:
                gap = (gap[0], j) if above0 else (j, gap[1])
            if j < inner:
                if same:
                    emit(d, f"{mask} = {_window('left', val[gap[0]], val[gap[1]])}")
                emit(d, f"if {suffix(last_j)}:")
                d = 3
        if j == 1 or j < inner and same:
            cands = mask
        if j == inner:
            if pick:
                if j > 1:
                    emit(d, f"{mask} = {_window('left', val[l0], val[h0])}")
                emit(d, f"v0 = {_extreme(pick, mask)}")
            emit(d, f"if {suffix((l_last, h_last))}:")
            emit(d + 1, found)
        elif j % _NESTED:
            role(j + 1, out, depth + d, f"{pos} + 1", found, gap, cands)
        else:
            # the next role opens a helper function that returns True on an occurrence
            helper = f"{name}_{j + 1}"
            shared = f"p, n, pre, full, top, left, {cands}"
            placed = ", ".join(val[i] for i in range(1, j + 1))
            emit(d, f"if {helper}({shared}, {pos}, {placed}):")
            emit(d + 1, found)
            body = [f"def {helper}({shared}, at, {placed}):"]
            role(j + 1, body, 1, "at + 1", "return True", gap, cands)
            helpers.extend(body + ["    return False"])
        if j > 1 and kind != 3:
            emit(2, ("break", f"hi{j} = {val[j]}", f"lo{j} = {val[j]}")[kind])

    role(1, lines, 1, "1", "return False", None, None)
    return lines
