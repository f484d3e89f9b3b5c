"""Embedded golden tables and the regression check against them.

The golden CSVs are versioned transcriptions of the reference data for the
eleven representative pairs {1324, p}: a counts table (n <= 15, k <= 15)
and a signed first-difference table for each. The check recomputes both
from scratch and compares cell by cell, so a transcription slip and an
engine bug cannot hide each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .enumeration import count_table, row_differences
from .perms import parse_basis
from .tableio import count_cap, csv_to_cells

GOLDEN_PARTNERS = (
    "1243", "2143", "1342", "1432", "4231", "4321",
    "2341", "2413", "2431", "3412", "3421",
)

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
        raise KeyError(f"no golden data for partner {partner!r}")
    if kind not in ("counts", "diffs"):
        raise KeyError(f"kind must be counts or diffs, not {kind!r}")
    name = f"av_1324_{partner}_{kind}.csv"
    text = resources.files("permseq").joinpath("golden", name).read_text()
    return GoldenTable(partner=partner, kind=kind, cells=csv_to_cells(text))


def check_partner(partner: str, threads: int = 1) -> list[GoldenResult]:
    """Recompute the pair's tables and diff them against the golden data."""
    if partner not in GOLDEN_PARTNERS:
        raise ValueError(f"no golden data for partner {partner!r}; "
                         f"known: {', '.join(GOLDEN_PARTNERS)}")
    table = count_table(parse_basis(f"1324,{partner}"), N_MAX, K_MAX, threads=threads)
    diffs = row_differences(table)
    results = []
    # a difference row n spans lengths n and n + 1, so the longer one caps it
    for kind, got_rows, shift in (("counts", table.rows, 0), ("diffs", diffs, 1)):
        golden = load_golden(partner, kind)
        mism: list[tuple[int, int, int | None, int | None]] = []
        for n, want_row in sorted(golden.cells.items()):
            for k, want in enumerate(want_row):
                got = got_rows[n - 1][k]
                if want is None:
                    if k <= count_cap(n + shift) or got != 0:
                        mism.append((n, k, want, got))
                elif got != want:
                    mism.append((n, k, want, got))
        results.append(GoldenResult(partner=partner, kind=kind, mismatches=mism))
    return results


def check_all(threads: int = 1):
    for partner in GOLDEN_PARTNERS:
        yield from check_partner(partner, threads=threads)
