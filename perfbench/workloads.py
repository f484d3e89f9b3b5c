"""The four workloads. Each one makes its inputs from the seed, runs one
timed pass of calls into permseq, and then checks what came back against
``reference``.

Sizes are chosen so that one pass takes one to two seconds on a 2-core
machine: a run repeats the pass for its whole measuring time and reports
medians. ``smoke`` shrinks every workload to a toy size for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
from pathlib import Path

import reference as ref
from reference import GOLDEN_N, GOLDEN_PARTNERS

P1324 = "1324"


def _cli(argv: list[str]) -> tuple[int, str]:
    from permseq import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


class Checks:
    """Counts the checks of one pass and keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)
        return ok


# -- symmetries of a pattern, written out for the benchmark -----------------

def _inverse(p: str) -> str:
    pos = {int(c): i + 1 for i, c in enumerate(p)}
    return "".join(str(pos[v]) for v in range(1, len(p) + 1))


def _rc(p: str) -> str:
    n = len(p)
    return "".join(str(n + 1 - int(c)) for c in reversed(p))


# The inversion-preserving symmetries; each fixes 1324.
SYMMETRIES = (
    ("identity", lambda p: p),
    ("inverse", _inverse),
    ("rc", _rc),
    ("inverse-rc", lambda p: _rc(_inverse(p))),
)


# -- golden-tables ------------------------------------------------------------

class GoldenTables:
    """count_table + row_differences for the eleven golden pairs, each pass
    with a seeded choice of symmetric image of every partner."""

    name = "golden-tables"

    def __init__(self, seed: int, smoke: bool, refs: ref.References, workdir: Path) -> None:
        self.n = 5 if smoke else 10
        self.refs = refs
        self.rng = random.Random(seed)
        self.images_by_pass: list[dict[str, str]] = []
        # every cell the tables must return, blank cells counted as 0
        self.expected_nodes = sum(
            refs.golden_cell(p, "counts", n, k) or 0
            for p in GOLDEN_PARTNERS for n in range(1, self.n + 1) for k in range(self.n + 1)
        )

    def plan(self) -> dict:
        return {"n_max": self.n, "k_max": self.n, "images_by_pass": self.images_by_pass}

    def run_pass(self):
        from permseq import enumeration, golden

        choice = {p: SYMMETRIES[self.rng.randrange(len(SYMMETRIES))] for p in GOLDEN_PARTNERS}
        self.images_by_pass.append({p: sym for p, (sym, _) in choice.items()})
        out = []
        for partner in GOLDEN_PARTNERS:
            image = choice[partner][1](partner)
            table = enumeration.count_table([P1324, image], self.n, self.n)
            diffs = enumeration.row_differences(table)
            embedded = {kind: golden.load_golden(partner, kind).cells
                        for kind in ("counts", "diffs")}
            out.append((partner, image, table, diffs, embedded))
        return out

    def check(self, outputs, checks: Checks) -> None:
        n_max = self.n
        for partner, image, table, diffs, embedded in outputs:
            tag = f"1324,{image} (image of {partner})"
            checks.expect((table.n_max, table.k_max) == (n_max, n_max), f"{tag}: table shape")
            for n in range(1, n_max + 1):
                for k in range(n_max + 1):
                    want = self.refs.golden_cell(partner, "counts", n, k)
                    got = table.rows[n - 1][k]
                    checks.expect(got == (want or 0), f"{tag} counts ({n},{k}): {got} != {want}")
            for n in range(1, n_max):
                for k in range(n_max + 1):
                    want = self.refs.golden_cell(partner, "diffs", n, k)
                    got = diffs[n - 1][k]
                    checks.expect(got == (want or 0), f"{tag} diffs ({n},{k}): {got} != {want}")
            for kind in ("counts", "diffs"):
                checks.expect(embedded[kind] == self.refs.golden[(partner, kind)],
                              f"embedded golden {partner} {kind} differs from the reference")


# -- long-perms ---------------------------------------------------------------

class LongPerms:
    """The user-facing commands in process, with a fresh cache per pass: a
    pooled table (a cache miss), three commands that hit the cache, and two
    gf comparisons that compute their own tables."""

    name = "long-perms"
    basis = "1324,1342"

    def __init__(self, seed: int, smoke: bool, refs: ref.References, workdir: Path) -> None:
        self.n, self.k = (8, 5) if smoke else (18, 12)
        self.threads = 2
        self.gf = [("1324,1342", 4), ("1324,2431", 3)] if smoke else \
            [("1324,1342", 11), ("1324,2431", 10)]
        self.refs = refs
        self.workdir = workdir
        rng = random.Random(seed)
        hits = ["diff", "limit", "monotone"]
        rng.shuffle(hits)
        rng.shuffle(self.gf)
        table = ["--basis", self.basis, "--n", str(self.n), "--k", str(self.k),
                 "--threads", str(self.threads)]
        extra = {"limit": ["--secondary", "--tertiary"]}
        self.jobs = [(cmd, [cmd, *table, *extra.get(cmd, [])]) for cmd in ["table", *hits]]
        self.jobs += [(f"gf {name} k={k}", ["gf", "--name", name, "--k", str(k), "--compare-table"])
                      for name, k in self.gf]
        self.passes = 0
        self.over = ref.overpartition_numbers(max(self.k, max(k for _, k in self.gf)) + 1)
        # the reference table: golden cells up to n = 15, the closed form beyond
        self.table = {
            n: [self._ref_cell(n, k) for k in range(self.k + 1)] for n in range(1, self.n + 2)
        }

    def _ref_cell(self, n: int, k: int) -> int:
        if n <= GOLDEN_N:
            return self.refs.golden_cell("1342", "counts", n, k) or 0
        return ref.av_1324_1342(n, k, self.over)

    def plan(self) -> dict:
        return {"job_order": [" ".join(argv) for _, argv in self.jobs]}

    def run_pass(self):
        self.passes += 1
        cache = self.workdir / f"cache-{self.passes}"
        out = {label: _cli([*argv, "--cache-dir", str(cache)]) for label, argv in self.jobs}
        return cache, out

    def cleanup(self, outputs) -> None:
        shutil.rmtree(outputs[0], ignore_errors=True)

    def check(self, outputs, checks: Checks) -> None:
        cache, out = outputs
        n_max, k_max = self.n, self.k
        for job, (rc, _) in out.items():
            checks.expect(rc == 0, f"{job}: exit code {rc}")
        rows = ref.parse_csv(out["table"][1])
        checks.expect(sorted(rows) == list(range(1, n_max + 1)), "table: rows")
        for n in range(1, n_max + 1):
            for k in range(k_max + 1):
                got = rows.get(n, [None] * (k_max + 1))[k]
                want = None if k > n * (n - 1) // 2 else self.table[n][k]
                checks.expect(got == want, f"table ({n},{k}): {got} != {want}")
        rows = ref.parse_csv(out["diff"][1])
        checks.expect(sorted(rows) == list(range(1, n_max)), "diff: rows")
        for n in range(1, n_max):
            for k in range(k_max + 1):
                got = rows.get(n, [None] * (k_max + 1))[k]
                want = None if k > (n + 1) * n // 2 else self.table[n + 1][k] - self.table[n][k]
                checks.expect(got == want, f"diff ({n},{k}): {got} != {want}")
        self._check_limit(out["limit"][1], checks)
        self._check_monotone(out["monotone"][1], checks)
        for name, k in self.gf:
            self._check_gf(name, k, out[f"gf {name} k={k}"], checks)
        cached = sorted(p.name for p in cache.glob("table_*.json"))
        checks.expect(len(cached) == 1 + len(self.gf), f"cache files written: {cached}")

    def _check_limit(self, text: str, checks: Checks) -> None:
        lines = text.splitlines()
        for k in range(self.k + 1):
            line = next((ln for ln in lines if ln.startswith(f"k={k}:")), "")
            if self.n >= k + 6:  # deep enough for the stabilization rule
                col = [self.table[n][k] for n in range(1, self.n + 1)]
                m = self.n
                while m > 1 and col[m - 2] == col[-1]:
                    m -= 1
                want = f"k={k}: c_k={self.over[k]} from n={m}"
            else:
                want = f"k={k}: unstable within range (last value {self.table[self.n][k]})"
            checks.expect(line == want, f"limit: {line!r} != {want!r}")
        secondary = next((ln for ln in lines if ln.startswith("secondary:")), None)
        checks.expect(secondary is not None, "limit: no secondary line")
        # the secondary limit sequence is (2 + 2x) times the overpartition series
        want = [2 * self.over[0]] + [2 * (self.over[i] + self.over[i - 1])
                                     for i in range(1, len(self.over))]
        got = [int(v) for v in (secondary or "").split()[1:]]
        checks.expect(0 < len(got) and got == want[:len(got)], f"secondary {got}")
        checks.expect(any(ln.startswith("tertiary:") for ln in lines), "limit: no tertiary line")

    def _check_monotone(self, text: str, checks: Checks) -> None:
        want = [f"violation at n={n}, k={k}: {self.table[n][k]} > {self.table[n + 1][k]}"
                for k in range(self.k + 1) for n in range(1, self.n)
                if self.table[n][k] > self.table[n + 1][k]]
        if not want:
            want = [f"no violation up to (n={self.n}, k={self.k})"]
        got = [ln for ln in text.splitlines() if ln.startswith(("violation", "no violation"))]
        checks.expect(got == want, f"monotone: {got[:3]} != {want[:3]}")

    def _check_gf(self, name: str, k: int, result: tuple[int, str], checks: Checks) -> None:
        lines = result[1].splitlines()
        coeffs = [int(c) for c in lines[0].split(",")] if lines else []
        checks.expect(len(coeffs) == k + 1, f"gf {name}: {len(coeffs)} coefficients")
        checks.expect(not any("MISMATCH" in ln for ln in lines), f"gf {name}: mismatch lines")
        checks.expect(lines[-1:] == ["series matches stabilized table"], f"gf {name}: verdict")
        if name == "1324,1342":
            want = self.over[:k + 1]
        else:  # the limit c_k equals av_15^k once 15 >= k + 6
            want = [self.refs.golden_cell(name[5:], "counts", GOLDEN_N, j)
                    for j in range(min(k, GOLDEN_N - 6) + 1)]
        checks.expect(coeffs[:len(want)] == want, f"gf {name}: {coeffs} vs {want}")


# -- compat-sweep -------------------------------------------------------------

_ROW_RE = re.compile(r"^\|((?: \d+ \|){7})$")


class CompatSweep:
    """`compat --length n` and compat_table_row, in a seeded job order."""

    name = "compat-sweep"

    def __init__(self, seed: int, smoke: bool, refs: ref.References, workdir: Path) -> None:
        self.jobs = [("compat", 3), ("row", 3)] if smoke else \
            [("compat", 3), ("compat", 4), ("row", 4), ("row", 5)]
        random.Random(seed).shuffle(self.jobs)
        self.refs = refs

    def plan(self) -> dict:
        return {"job_order": [f"{kind} {n}" for kind, n in self.jobs]}

    def run_pass(self):
        from permseq import almost_decomp

        out = []
        for kind, n in self.jobs:
            if kind == "compat":
                out.append((kind, n, _cli(["compat", "--length", str(n)])))
            else:
                out.append((kind, n, almost_decomp.compat_table_row(n)))
        return out

    def check(self, outputs, checks: Checks) -> None:
        for kind, n, result in outputs:
            want = self.refs.table4[n]
            if kind == "row":
                got = (result.sufficient_incompatible, result.witness_incompatible,
                       result.necessary_incompatible, result.necessary_compatible,
                       result.witness_compatible, result.sufficient_compatible)
                checks.expect(got == want, f"compat_table_row({n}) {got} != {want}")
                checks.expect(result.total == self.refs.av1324_sizes[n],
                              f"compat_table_row({n}) total {result.total}")
                continue
            rc, text = result
            checks.expect(rc == 0, f"compat --length {n}: exit code {rc}")
            rows = [m.group(1) for m in map(_ROW_RE.match, text.splitlines()) if m]
            got = tuple(int(v) for v in rows[-1].replace("|", " ").split()) if rows else ()
            checks.expect(got == (n, *want), f"compat --length {n}: row {got} != {want}")
            listed = next((ln for ln in text.splitlines()
                           if ln.startswith(f"compatible patterns of length {n}:")), "")
            compatible = listed.split(":", 1)[-1].split()
            # the verdicts agree with the necessary-compatible column
            checks.expect(len(set(compatible)) == want[3] and all(len(p) == n for p in compatible),
                          f"compat --length {n}: compatible {compatible}")


# -- families -----------------------------------------------------------------

FAMILY_PARTNERS = ("2341", "3241", "3412", "3421", "4231", "4321")
CATALOGUE_NAMES = (
    "P", "132", "distinct",
    "132,2341", "132,3241", "132,3412", "132,3421", "132,4231", "132,4321",
    "1324", "1324,1243", "1324,2143", "1324,1342", "1324,1432", "1324,4231",
    "1324,4321", "1324,2341", "1324,2413", "1324,2431", "1324,3412", "1324,3421",
)
# C_{1324,p} as a product of two 132-family series (the paper's factorisations)
_PRODUCTS = {
    "1324,4231": ("132,4231", "132,4231"),
    "1324,4321": ("132,4321", "132,4321"),
    "1324,2341": ("132,2341", "132,2341"),
    "1324,3412": ("132,3412", "132,3412"),
    "1324,3421": ("132,3421", "132,3421"),
    "1324,2431": ("P", "132,3241"),
}
_BIJECTION_LINE = re.compile(r"^k=(\d+): permutation side (\d+), partition side (\d+) \[(\w+)\]$")


class Families:
    """Partition bijections, the generating-function catalogue and the
    {1324, 231} injection, in a seeded job order."""

    name = "families"
    inject_basis = "1324,231"

    def __init__(self, seed: int, smoke: bool, refs: ref.References, workdir: Path) -> None:
        self.k_bij, self.order, (self.inj_n, self.inj_k) = \
            (4, 8, (5, 5)) if smoke else (10, 28, (10, 11))
        self.jobs = [("bijection", p) for p in FAMILY_PARTNERS] + \
            [("gf", name) for name in CATALOGUE_NAMES] + [("inject", self.inject_basis)]
        random.Random(seed).shuffle(self.jobs)
        self.refs = refs
        p = ref.partition_numbers(self.order)
        self.closed = {
            "P": p, "132": p, "1324,1243": p,
            "distinct": ref.distinct_part_numbers(self.order),
            "1324": ref.convolve(p, p), "1324,2413": ref.convolve(p, p),
            "1324,2143": [2 * v - (i == 0) for i, v in enumerate(p)],
            "1324,1342": ref.overpartition_numbers(self.order),
        }

    def plan(self) -> dict:
        return {"bijection_k": self.k_bij, "gf_order": self.order,
                "inject_domain": f"Av_<={self.inj_n}^<={self.inj_k}({self.inject_basis})",
                "job_order": [f"{kind} {arg}" for kind, arg in self.jobs]}

    def run_pass(self):
        from permseq import enumeration, injections, series

        out = {}
        for kind, arg in self.jobs:
            if kind == "bijection":
                out[(kind, arg)] = _cli(["bijection", "--pattern", arg, "--k", str(self.k_bij)])
            elif kind == "gf":
                out[(kind, arg)] = series.named_gf(arg, self.order).coeffs
            else:
                basis = arg.split(",")
                domain = [p for n in range(self.inj_n + 1)
                          for p in enumeration.generate_avoiders(basis, n, self.inj_k)]
                check = injections.verify_injection(domain, injections.inject_1324_231, basis)
                out[(kind, arg)] = (len(domain), check)
        return out

    def check(self, outputs, checks: Checks) -> None:
        perm_side: dict[str, list[int]] = {}
        for partner in FAMILY_PARTNERS:
            rc, text = outputs[("bijection", partner)]
            checks.expect(rc == 0, f"bijection {partner}: exit code {rc}")
            checks.expect("only from" not in text, f"bijection {partner}: mismatch lines")
            parsed = [m.groups() for m in map(_BIJECTION_LINE.match, text.splitlines()) if m]
            checks.expect([int(g[0]) for g in parsed] == list(range(self.k_bij + 1))
                          and all(g[1] == g[2] and g[3] == "ok" for g in parsed),
                          f"bijection {partner}: per-k lines")
            perm_side[partner] = [int(g[1]) for g in parsed]
        coeffs = {name: list(outputs[("gf", name)]) for name in CATALOGUE_NAMES}
        for name, got in coeffs.items():
            checks.expect(len(got) == self.order + 1, f"gf {name}: length {len(got)}")
            if name in self.closed:
                checks.expect(got == self.closed[name], f"gf {name}: closed form")
            if name.startswith("132,"):
                # coefficient k counts the indecomposable avoiders with k inversions
                side = perm_side[name[4:]]
                checks.expect(got[:len(side)] == side, f"gf {name}: bijection counts")
            if name in _PRODUCTS:
                a, b = _PRODUCTS[name]
                checks.expect(got == ref.convolve(coeffs[a], coeffs[b]), f"gf {name}: product")
            if name.startswith("1324,"):
                want = [self.refs.golden_cell(name[5:], "counts", GOLDEN_N, k)
                        for k in range(min(self.order, GOLDEN_N - 6) + 1)]
                checks.expect(got[:len(want)] == want, f"gf {name}: golden limit")
        size, result = outputs[("inject", self.inject_basis)]
        checks.expect(result.ok and result.total == size, f"verify_injection: {result}")


WORKLOADS = {w.name: w for w in (GoldenTables, LongPerms, CompatSweep, Families)}
