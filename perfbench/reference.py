"""Reference data the benchmark checks permseq's outputs against.

Nothing here imports permseq. The golden tables and the Table 4 rows are
copies kept in ``data/`` (their sources are listed in ``data/SOURCES.md``);
the series below are computed by small, direct recurrences written for the
benchmark alone, so a defect in the package cannot also hide in its check.
"""

from __future__ import annotations

import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

GOLDEN_PARTNERS = (
    "1243", "2143", "1342", "1432", "4231", "4321",
    "2341", "2413", "2431", "3412", "3421",
)
GOLDEN_N = 15  # the golden tables cover 1 <= n <= 15 and 0 <= k <= 15


def parse_csv(text: str) -> dict[int, list[int | None]]:
    """Rows keyed by n; a blank cell (k beyond the row's inversion cap) is None."""
    rows: dict[int, list[int | None]] = {}
    for line in text.strip().splitlines()[1:]:
        first, *cells = line.split(",")
        rows[int(first)] = [int(c) if c else None for c in cells]
    return rows


class References:
    """All reference data, loaded once per process (part of set-up time)."""

    def __init__(self) -> None:
        self.golden = {
            (partner, kind): parse_csv((DATA / "golden" / f"av_1324_{partner}_{kind}.csv").read_text())
            for partner in GOLDEN_PARTNERS
            for kind in ("counts", "diffs")
        }
        paper = json.loads((DATA / "table4.json").read_text())
        self.table4 = {int(n): tuple(row) for n, row in paper["rows"].items()}
        self.av1324_sizes = {int(n): v for n, v in paper["av_n_1324"].items()}

    def golden_cell(self, partner: str, kind: str, n: int, k: int) -> int | None:
        return self.golden[(partner, kind)][n][k]


# -- independent series ----------------------------------------------------

def partition_numbers(order: int) -> list[int]:
    """p(0..order) by the standard coin-change recurrence."""
    p = [1] + [0] * order
    for part in range(1, order + 1):
        for total in range(part, order + 1):
            p[total] += p[total - part]
    return p


def distinct_part_numbers(order: int) -> list[int]:
    """q(0..order): partitions into distinct parts."""
    q = [1] + [0] * order
    for part in range(1, order + 1):
        for total in range(order, part - 1, -1):
            q[total] += q[total - part]
    return q


def overpartition_numbers(order: int) -> list[int]:
    """Overpartitions: the convolution of p and q."""
    return convolve(partition_numbers(order), distinct_part_numbers(order))


def convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two power series, truncated to the shorter one."""
    order = min(len(a), len(b)) - 1
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def av_1324_1342(n: int, k: int, over: list[int]) -> int:
    """av_n^k(1324, 1342) by the paper's closed form, valid for n >= (k+7)/2:
    the coefficient of x^k in C(x) (1 - x - x^{n-1}(2+2x)) / (1-x), with C
    the overpartition series."""
    if 2 * n < k + 7:
        raise ValueError(f"closed form needs n >= (k+7)/2, got n={n}, k={k}")
    return over[k] - 2 * sum(over[: max(0, k - n + 2)]) - 2 * sum(over[: max(0, k - n + 1)])
