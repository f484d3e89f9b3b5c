"""Embedded golden tables and the regression check against them.

The golden CSVs are versioned transcriptions of the reference data for the
eleven representative pairs {1324, p}: a counts table (n <= 15, k <= 15)
and a signed first-difference table for each. The check recomputes both
from scratch, prints them as the `table` and `diff` commands do
(tableio), and compares the printed cells with the embedded ones, blanks
included, so a transcription slip and an engine bug cannot hide each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .enumeration import REPRESENTATIVE_PARTNERS, count_table, row_differences
from .perms import parse_basis
from .tableio import csv_to_cells, diffs_to_csv, table_to_csv

GOLDEN_PARTNERS = REPRESENTATIVE_PARTNERS[1:]

N_MAX = 15
K_MAX = 15


@dataclass(frozen=True)
class GoldenTable:
    partner: str
    kind: str  # "counts" | "diffs"
    cells: dict[int, list[int | None]]


@dataclass(frozen=True)
class GoldenResult:
    partner: str
    kind: str
    mismatches: list[tuple[int, int, int | None, int | None]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def load_golden(partner: str, kind: str) -> GoldenTable:
    if partner not in GOLDEN_PARTNERS:
        raise ValueError(f"no golden data for partner {partner!r}; "
                         f"known: {', '.join(GOLDEN_PARTNERS)}")
    if kind not in ("counts", "diffs"):
        raise ValueError(f"kind must be counts or diffs, not {kind!r}")
    name = f"av_1324_{partner}_{kind}.csv"
    text = resources.files("permseq").joinpath("golden", name).read_text()
    return GoldenTable(partner=partner, kind=kind, cells=csv_to_cells(text))


def check_partner(partner: str, threads: int = 1) -> list[GoldenResult]:
    """Recompute the pair's tables and diff them against the golden data,
    which must hold exactly the cells of those tables (else ValueError)."""
    # loaded and shape-checked first, so bad golden data fails before the walk
    goldens = [load_golden(partner, kind) for kind in ("counts", "diffs")]
    for golden, n_rows in zip(goldens, (N_MAX, N_MAX - 1)):
        shape = dict.fromkeys(range(1, n_rows + 1), K_MAX + 1)
        if {n: len(row) for n, row in golden.cells.items()} != shape:
            raise ValueError(f"golden {golden.kind} table of 1324,{partner} must have rows "
                             f"n = 1..{n_rows} of cells k = 0..{K_MAX}")
    table = count_table(parse_basis(f"1324,{partner}"), N_MAX, K_MAX, threads=threads)
    # the cells as `table` and `diff` print them, blank beyond the inversion cap
    printed = (table_to_csv(table), diffs_to_csv(table, row_differences(table)))
    results = []
    for golden, text in zip(goldens, printed):
        got_cells = csv_to_cells(text)
        mism = [(n, k, want, got) for n, want_row in sorted(golden.cells.items())
                for k, (want, got) in enumerate(zip(want_row, got_cells[n])) if want != got]
        results.append(GoldenResult(partner=partner, kind=golden.kind, mismatches=mism))
    return results


def check_all(threads: int = 1) -> list[GoldenResult]:
    """check_partner for every golden partner, in GOLDEN_PARTNERS order."""
    return [r for partner in GOLDEN_PARTNERS for r in check_partner(partner, threads)]
