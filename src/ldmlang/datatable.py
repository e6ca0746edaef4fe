"""Long-format CSV tables keyed by index columns.

A table holds integer index columns (named after model indices) and float
value columns (named after model variables or inputs). Empty cells and the
literal "NaN" mean missing. One row per index tuple.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIndexTupleError, TableError, UnparseableCellError


@dataclass
class DataTable:
    index_names: tuple[str, ...]
    columns: dict[str, np.ndarray]          # value columns, float64, NaN = missing
    index_rows: np.ndarray                  # (n_rows, n_indices) int64
    path: str | None = None

    def __post_init__(self):
        rows = self.index_rows
        if len(rows) < 2:
            return
        # a stable sort keeps equal tuples in table order, so each repeat
        # follows its first occurrence
        order = (np.lexsort(rows.T[::-1]) if rows.shape[1]
                 else np.arange(len(rows)))
        repeat = np.all(rows[order[1:]] == rows[order[:-1]], axis=1)
        if repeat.any():
            first = rows[order[1:][repeat].min()]
            raise DuplicateIndexTupleError(
                f"duplicate rows for index tuple {tuple(first.tolist())}")

    @property
    def n_rows(self) -> int:
        return self.index_rows.shape[0]

    @property
    def value_names(self) -> tuple[str, ...]:
        return tuple(self.columns.keys())

    def column(self, name: str) -> np.ndarray:
        if name in self.columns:
            return self.columns[name]
        if name in self.index_names:
            return self.index_rows[:, self.index_names.index(name)]
        raise TableError(f"no column named {name!r}")


def read_table(path: str, index_names) -> DataTable:
    """Parse a CSV file; columns named in `index_names` become index columns."""
    index_names = tuple(index_names)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TableError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    idx_cols = [h for h in header if h in index_names]
    val_cols = [h for h in header if h not in index_names]
    missing = [n for n in index_names if n not in header]
    if missing:
        raise TableError(f"{path}: index column(s) {missing} not in header")
    seen = set()
    for h in header:
        if h in seen:
            raise TableError(f"{path}: duplicate column {h!r}")
        seen.add(h)

    n = len(rows) - 1
    idx_data = np.zeros((n, len(idx_cols)), dtype=np.int64)
    val_data = {c: np.full(n, np.nan) for c in val_cols}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TableError(f"{path}: line {r} has {len(row)} cells, expected {len(header)}")
        for c, cell in zip(header, row):
            cell = cell.strip()
            if c in index_names:
                try:
                    idx_data[r - 2, idx_cols.index(c)] = int(cell)
                except ValueError:
                    raise UnparseableCellError(
                        f"{path}: index cell {cell!r} is not an integer",
                        row=r, column=c) from None
            else:
                if cell == "" or cell.lower() == "nan":
                    continue
                try:
                    val_data[c][r - 2] = float(cell)
                except ValueError:
                    raise UnparseableCellError(
                        f"{path}: cell {cell!r} is not a number",
                        row=r, column=c) from None

    table_index_names = tuple(h for h in header if h in index_names)
    return DataTable(index_names=table_index_names, columns=val_data,
                     index_rows=idx_data, path=path)


def make_table(index_names, index_rows, columns) -> DataTable:
    """Build a table in memory (used by simulate and by tests)."""
    index_names = tuple(index_names)
    n = len(index_rows)
    idx = np.asarray(index_rows, dtype=np.int64).reshape(n, len(index_names))
    cols = {name: np.asarray(vals, dtype=float) for name, vals in columns.items()}
    for name, vals in cols.items():
        if vals.shape != (n,):
            raise TableError(f"column {name!r} has {vals.shape[0]} rows, expected {n}")
    return DataTable(index_names=index_names, columns=cols, index_rows=idx)


_CSV_BLOCK = 1024


def _fmt_value(v: float) -> str:
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def _column_text(vals: np.ndarray, fmt) -> list:
    """Cell text of one column block, NaN as an empty cell. Each run of
    equal values is formatted once; 0.0 and -0.0 are different runs, and so
    is each NaN."""
    starts = np.flatnonzero(np.concatenate((
        [True], (vals[1:] != vals[:-1])
        | (np.signbit(vals[1:]) != np.signbit(vals[:-1])))))
    first = vals[starts]
    text = list(map(fmt, first.tolist()))
    for i in np.flatnonzero(first != first):
        text[i] = ""
    if len(text) == len(vals):
        return text
    return np.repeat(np.array(text, dtype=object),
                     np.diff(starts, append=len(vals))).tolist()


def write_csv(table: DataTable, path: str, float_repr: bool = False) -> None:
    """Write a table back to CSV. float_repr forces full-precision floats
    for every value cell (bitwise round-trips)."""
    fmt = repr if float_repr else _fmt_value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(table.index_names)
                                + list(table.value_names))
        # format a block of rows column by column: the speed of whole
        # columns, the memory of a block. The rows are joined as
        # csv.writer would write them: numbers need no quotes, and a row
        # of one empty cell is written as "".
        for lo in range(0, table.n_rows, _CSV_BLOCK):
            rows = slice(lo, lo + _CSV_BLOCK)
            cols = [_column_text(col, str) for col in table.index_rows[rows].T]
            cols += [_column_text(table.columns[name][rows], fmt)
                     for name in table.value_names]
            if len(cols) == 1:
                cols = [[s or '""' for s in cols[0]]]
            lines = (map(",".join, zip(*cols)) if cols
                     else [""] * min(_CSV_BLOCK, table.n_rows - lo))
            fh.write("\r\n".join(lines) + "\r\n")
