"""CSV / Markdown / JSON serialization of counting tables and row differences.

The CSV shape mirrors the reference tables: header ``n\\k,0,1,...,K``, one
row per n, and an empty cell wherever k exceeds the maximal inversion count
n(n-1)/2 (for difference rows, the cap of the longer row applies).
"""

from __future__ import annotations

import json
from typing import Sequence

from .enumeration import CountTable
from .perms import max_inversions, parse_basis


def _grid(rows: Sequence[Sequence[int]], n_rows: int, k_max: int, shift: int = 0):
    """The header and the first n_rows rows as text cells, each row led by its
    n; a cell is blank where k exceeds the cap of length n + shift."""
    ks = range(k_max + 1)
    grid = [["n\\k", *map(str, ks)]]
    for n in range(1, n_rows + 1):
        cap = max_inversions(n + shift)
        grid.append([str(n), *("" if k > cap else str(rows[n - 1][k]) for k in ks)])
    return grid


def _csv(grid) -> str:
    return "".join(",".join(cells) + "\n" for cells in grid)


def table_to_csv(table: CountTable) -> str:
    return _csv(_grid(table.rows, table.n_max, table.k_max))


def diffs_to_csv(table: CountTable, diffs: Sequence[Sequence[int]]) -> str:
    return _csv(_grid(diffs, table.n_max - 1, table.k_max, shift=1))


def diffs_to_json(table: CountTable, diffs: Sequence[Sequence[int]]) -> str:
    return json.dumps({"basis": table.basis_text, "rows": diffs}, indent=2) + "\n"


def csv_to_cells(text: str) -> dict[int, list[int | None]]:
    """Rows keyed by n; blank cells become None."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    out: dict[int, list[int | None]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        out[int(parts[0])] = [None if c == "" else int(c) for c in parts[1:]]
    return out


def table_to_markdown(table: CountTable) -> str:
    grid = _grid(table.rows, table.n_max, table.k_max)
    lines = ["| " + " | ".join(cells) + " |" for cells in grid]
    lines.insert(1, "|" + "---|" * len(grid[0]))
    return "\n".join(lines) + "\n"


def table_to_json(table: CountTable) -> str:
    payload = {
        "basis": table.basis_text,
        "n_max": table.n_max,
        "k_max": table.k_max,
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_from_json(text: str) -> CountTable:
    """The table written by table_to_json. Raises ValueError unless the text
    holds a basis string and n_max rows of k_max + 1 integer cells."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("a stored table is nested too deeply to parse") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("basis"), str):
        raise ValueError("a stored table needs a basis string")
    n_max, k_max, rows = payload.get("n_max"), payload.get("k_max"), payload.get("rows")
    if type(n_max) is not int or type(k_max) is not int:
        raise ValueError("a stored table needs integer n_max and k_max")
    # bool is an int subclass, so cells are checked by exact type
    if not isinstance(rows, list) or len(rows) != n_max or not all(
        isinstance(row, list) and len(row) == k_max + 1 and all(type(v) is int for v in row)
        for row in rows
    ):
        raise ValueError(f"a stored table needs {n_max} rows of {k_max + 1} integers")
    return CountTable(
        basis=parse_basis(payload["basis"]),
        n_max=n_max,
        k_max=k_max,
        rows=tuple(tuple(row) for row in rows),
    )
