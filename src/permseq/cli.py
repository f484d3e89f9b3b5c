"""Command-line interface: counting tables, golden regression, limit
sequences, compatibility classification, generating functions, bijection
checks and the explicit injection.

Each integer flag owns its bounds (`_int_in`; `--n` in 1..MAX_LENGTH on the
table commands, `--k` in 0..MAX_BUDGET on them and on gf, `--threads` at
least 1, `compat --length` in 1..MAX_LENGTH - 3, `bijection --k` in
0..MAX_LENGTH - 1, since an indecomposable with k inversions has up to k+1
entries), so a value out of range is a usage error naming the flag;
`count_table`, not the CLI, caps `--threads` at the CPUs the process may
run on (its affinity set where the platform has one) and the jobs left.
A cache entry is exactly `table --format json` output, in a file named by
basis, bounds and engine version, so an entry from another engine version
is never read. A request is answered from its exact entry, else sliced from
the smallest readable entry of the same basis and engine version whose
bounds cover it (a cell av_n^k does not depend on the bounds of the table
holding it), else walked, and is then stored under its own name. An entry
that `tableio.table_from_json` rejects, or whose basis or bounds differ
from its name, is skipped silently and never rewritten unless it holds the
requested name. Cache writes go to a temp file that a plain open creates,
so the entry gets the mode the umask gives it, and then one atomic rename.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import threading
from pathlib import Path

from . import __version__
from .enumeration import (
    ENGINE_VERSION,
    MAX_BUDGET,
    MAX_LENGTH,
    CountTable,
    check_table_bounds,
    count_table,
    diagonal_limit,
    limit_depth,
    limit_report,
    monotonicity_scan,
    row_differences,
    second_differences,
    zero_row_threshold,
)
from .perms import basis_key, format_perm, parse_basis, parse_perm
from .tableio import (
    diffs_to_csv,
    diffs_to_json,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)

EXIT_BAD_INPUT = 1
EXIT_GOLDEN_MISMATCH = 2
EXIT_BIJECTION_MISMATCH = 3
EXIT_GF_MISMATCH = 4

CACHE_ENV = "PERMSEQ_CACHE_DIR"


def _read_cached(path: Path, key: str, n_max: int, k_max: int) -> CountTable | None:
    """The table stored at path if it answers exactly this request, else None
    (a missing or unreadable file is a miss)."""
    try:
        table = table_from_json(path.read_text())
    except (OSError, ValueError):
        return None
    return table if (table.basis_text, table.n_max, table.k_max) == (key, n_max, k_max) else None


def _read_covering(cache: Path, stem: str, key: str,
                   n_max: int, k_max: int) -> CountTable | None:
    """The request sliced from the smallest readable entry of its basis
    (file names starting with `stem`) and engine version whose bounds
    cover the request's and differ from them, else None."""
    name = re.compile(rf"{stem}_n([1-9][0-9]*)_k(0|[1-9][0-9]*)_v{ENGINE_VERSION}\.json")
    covering = []
    for path in cache.iterdir():
        match = name.fullmatch(path.name)
        if match:
            n, k = map(int, match.groups())
            if n >= n_max and k >= k_max and (n, k) != (n_max, k_max):
                covering.append((n * (k + 1), n, k, path))
    for _, n, k, path in sorted(covering):
        table = _read_cached(path, key, n, k)
        if table is not None:
            rows = tuple(row[:k_max + 1] for row in table.rows[:n_max])
            return CountTable(table.basis, n_max, k_max, rows)
    return None


def _store(path: Path, table: CountTable) -> None:
    """Writes table as the cache entry at path, computed or sliced alike."""
    # unique to this process and thread, never `table_*.json`; "x" obeys the umask
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(table_to_json(table))
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no temp file behind
        tmp.unlink(missing_ok=True)
        raise


def cached_count_table(basis_text: str, n_max: int, k_max: int,
                       cache_dir: str | None, threads: int = 1) -> CountTable:
    basis = parse_basis(basis_text)
    # an empty flag falls through to the environment; an empty value there means no cache
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return count_table(basis, n_max, k_max, threads=threads)
    check_table_bounds(n_max, k_max)  # before anything is made on disk
    cache = Path(cache_dir)
    if cache.exists() and not cache.is_dir():
        raise ValueError(f"cache directory expected, but {cache_dir} is not a directory")
    cache.mkdir(parents=True, exist_ok=True)
    key = basis_key(basis)
    stem = f"table_{key.replace(',', '-')}"
    path = cache / f"{stem}_n{n_max}_k{k_max}_v{ENGINE_VERSION}.json"
    table = _read_cached(path, key, n_max, k_max)
    if table is not None:
        return table
    table = _read_covering(cache, stem, key, n_max, k_max)
    if table is None:
        table = count_table(basis, n_max, k_max, threads=threads)
    _store(path, table)
    return table


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_table(args) -> int:
    table = cached_count_table(args.basis, args.n, args.k, args.cache_dir, args.threads)
    write = {"csv": table_to_csv, "md": table_to_markdown, "json": table_to_json}[args.format]
    _emit(write(table), args.out)
    return 0


def cmd_diff(args) -> int:
    table = cached_count_table(args.basis, args.n, args.k, args.cache_dir, args.threads)
    write = {"csv": diffs_to_csv, "json": diffs_to_json}[args.format]
    _emit(write(table, row_differences(table)), args.out)
    return 0


def cmd_golden(args) -> int:
    from .golden import check_all, check_partner

    results = check_all(args.threads) if args.all else check_partner(args.partner, args.threads)
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'} 1324,{result.partner} {result.kind}")
        for n, k, want, got in result.mismatches[:10]:
            print(f"  cell (n={n}, k={k}): golden {want!r}, computed {got!r}")
    passed = sum(result.ok for result in results)
    print(f"{passed}/{len(results)} tables match")
    return 0 if passed == len(results) else EXIT_GOLDEN_MISMATCH


def cmd_monotone(args) -> int:
    table = cached_count_table(args.basis, args.n, args.k, args.cache_dir, args.threads)
    hits = monotonicity_scan(table)
    if not hits:
        print(f"no violation up to (n={args.n}, k={args.k})")
    for n, k, a, b in hits:
        print(f"violation at n={n}, k={k}: {a} > {b}")
    c = zero_row_threshold(table)
    if c is not None:
        print(f"zero-row certificate: av_n^k = 0 for 1 <= k <= {table.k_max}, "
              f"n >= k + {c} (within n <= {table.n_max})")
    return 0


def cmd_limit(args) -> int:
    table = cached_count_table(args.basis, args.n, args.k, args.cache_dir, args.threads)
    report = limit_report(table)
    for k in range(report.k_max + 1):
        if report.m[k] is not None:
            print(f"k={k}: c_k={report.c[k]} from n={report.m[k]}")
        else:
            print(f"k={k}: unstable within range (last value {report.c[k]})")
    if args.secondary:
        print("secondary:", " ".join(map(str, diagonal_limit(row_differences(table)))))
    if args.tertiary:
        print("tertiary:", " ".join(map(str, diagonal_limit(second_differences(table)))))
    return 0


def cmd_compat(args) -> int:
    from .almost_decomp import compat_table_row

    n = args.length
    row = compat_table_row(n)
    verdicts = []
    for v in row.verdicts:
        entry = {"pattern": format_perm(v.pattern), "verdict": v.verdict}
        if v.witness is not None:
            pi, image = map(format_perm, v.witness)
            entry["witness"] = {"pi": pi, "image": image}
        verdicts.append(entry)
    if args.out:
        Path(args.out).write_text(json.dumps(verdicts, indent=2) + "\n")
    compatible = [e["pattern"] for e in verdicts if e["verdict"].startswith("compatible")]
    print(f"compatible patterns of length {n}: {' '.join(sorted(compatible))}")
    print()
    print("| n | suff. incompatible | CLB | nec. incompatible "
          "| nec. compatible | CUB | suff. compatible |")
    print("|---|---|---|---|---|---|---|")
    print("| " + " | ".join(map(str, (row.n, *row.columns))) + " |")
    return 0


def cmd_gf(args) -> int:
    from .series import named_gf

    if args.compare_table:
        # the row cap is checked before the series is built
        try:
            basis = parse_basis(args.name)
        except ValueError:
            raise ValueError(f"{args.name!r} is not a pattern basis; nothing to compare") from None
        n_needed = limit_depth(basis, args.k)
        if n_needed > MAX_LENGTH:
            raise ValueError(f"--compare-table needs rows up to k + 2 + longest pattern "
                             f"({n_needed}), above the maximum of {MAX_LENGTH}")
    # an unknown name fails here, before any table or cache write
    series = named_gf(args.name, args.k)
    if args.compare_table:
        # the table comes before any output, so a bad cache path leaves stdout empty
        table = cached_count_table(args.name, n_needed, args.k, args.cache_dir, args.threads)
    print(",".join(str(c) for c in series.coeffs))
    if not args.compare_table:
        return 0
    report = limit_report(table)
    ok = True
    for k in range(args.k + 1):
        if report.m[k] is None or report.c[k] != series[k]:
            ok = False
            status = "unstable-within-range" if report.m[k] is None else "stabilized"
            print(f"MISMATCH at k={k}: series {series[k]}, table {report.c[k]} ({status})")
    print("series matches stabilized table" if ok else "comparison failed")
    return 0 if ok else EXIT_GF_MISMATCH


def cmd_bijection(args) -> int:
    from .partitions import FAMILY_RULES, family_sides
    from .series import named_gf

    partner = args.pattern
    if partner not in FAMILY_RULES:
        raise ValueError(f"no partition family registered for {partner}; "
                         f"known: {', '.join(sorted(FAMILY_RULES))}")
    # the family's size, a third check independent of both sides
    name = f"132,{partner}"
    sizes = named_gf(name, args.k)
    failures = 0
    for k, (left, right) in enumerate(family_sides(partner, FAMILY_RULES[partner], args.k)):
        status = "ok" if left == right else "MISMATCH"
        print(f"k={k}: permutation side {len(left)}, partition side {len(right)} [{status}]")
        for lam in sorted(left - right):
            print(f"  only from permutations: {lam}")
            failures += 1
        for lam in sorted(right - left):
            print(f"  only from partitions:   {lam}")
            failures += 1
        if len(right) != sizes[k]:
            print(f"  partition side {len(right)}, series {name} coefficient {sizes[k]}")
            failures += 1
    return EXIT_BIJECTION_MISMATCH if failures else 0


def cmd_inject(args) -> int:
    from .injections import inject_1324_231_full

    p = parse_perm(args.perm)
    res = inject_1324_231_full(p)
    print(format_perm(res.image))
    if res.data is None:
        print(f"# branch {res.branch}")
    else:
        d = res.data
        print(f"# branch 3: ell={d.ell} m={d.m} q={d.q} r={d.r}")
    return 0


def _int_in(lo: int, hi: int | None = None):
    """An argparse type for an integer in lo..hi, or at least lo when hi is
    None; a non-integer keeps argparse's `invalid int value` message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = "int"  # the type argparse names for a non-integer
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input (one line, exit 1)
    instead of argparse's usage text and exit 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared for the process (each
    build leaves several hundred objects of cyclic garbage)."""
    parser = _Parser(
        prog="permseq",
        description="Pattern-avoiding permutations counted by inversions: "
        "tables, limit sequences, injections and partition bijections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def engine_flags(p, cache=True):
        p.add_argument("--threads", type=_int_in(1), default=1,
                       help="worker processes for the table walk (at most the CPU count)")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help=f"cache directory (or ${CACHE_ENV})")

    def table_flags(p):
        p.add_argument("--basis", required=True,
                       help="comma-separated patterns, e.g. 1324,1342")
        p.add_argument("--n", type=_int_in(1, MAX_LENGTH), required=True)
        p.add_argument("--k", type=_int_in(0, MAX_BUDGET), required=True)
        engine_flags(p)

    p = sub.add_parser("table", help="compute a counting table")
    table_flags(p)
    p.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("diff", help="row differences of a counting table")
    table_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("golden", help="regression against the embedded tables")
    engine_flags(p, cache=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--partner", help="companion pattern, e.g. 1342")
    p.set_defaults(fn=cmd_golden)

    p = sub.add_parser("monotone", help="scan a table for monotonicity violations")
    table_flags(p)
    p.set_defaults(fn=cmd_monotone)

    p = sub.add_parser("limit", help="limit sequence detection")
    table_flags(p)
    p.add_argument("--secondary", action="store_true")
    p.add_argument("--tertiary", action="store_true")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("compat", help="compatibility classification of patterns")
    # almost_decomp.MAX_PATTERN_LENGTH, written out so that building the
    # parser does not import almost_decomp
    p.add_argument("--length", type=_int_in(1, MAX_LENGTH - 3), required=True)
    p.add_argument("--out", help="write verdicts as JSON")
    p.set_defaults(fn=cmd_compat)

    p = sub.add_parser("gf", help="limit generating function coefficients")
    p.add_argument("--name", required=True, help="catalogue name, e.g. 1324,1342")
    p.add_argument("--k", type=_int_in(0, MAX_BUDGET), default=20)
    p.add_argument("--compare-table", action="store_true")
    engine_flags(p)
    p.set_defaults(fn=cmd_gf)

    p = sub.add_parser("bijection", help="partition-family bijection check")
    p.add_argument("--pattern", required=True, help="companion of 132, e.g. 2341")
    p.add_argument("--k", type=_int_in(0, MAX_LENGTH - 1), default=12)
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("inject", help="apply the {1324, 231} injection to one permutation")
    p.add_argument("--perm", required=True)
    p.set_defaults(fn=cmd_inject)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # usage errors, malformed patterns, out-of-range bounds or unusable paths
        print(f"permseq: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
