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
    """A table's rows: `read_table` and `make_table` check that no index
    tuple repeats; a table built directly must hold unique tuples."""
    index_names: tuple[str, ...]
    columns: dict[str, np.ndarray]          # value columns, float64, NaN = missing
    index_rows: np.ndarray                  # (n_rows, n_indices) int64
    path: str | None = None

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

    _check_unique(idx_data)
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
    _check_unique(idx)
    return DataTable(index_names=index_names, columns=cols, index_rows=idx)


def _check_unique(rows: np.ndarray) -> None:
    """DuplicateIndexTupleError naming the first index tuple that repeats
    an earlier row."""
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


_CSV_BLOCK = 1024
# a column that changes value at no more than one row in _FEW of a block is
# written in runs of equal values
_FEW = 8


def _text(vals: np.ndarray, float_repr: bool) -> list:
    """Cell text of a 1-D array: integers by str; floats by repr, NaN as an
    empty cell, and whole numbers below 2**53 as integers unless
    float_repr."""
    if vals.dtype.kind == "i":
        if not len(vals):
            return []
        lo, hi = int(vals.min()), int(vals.max())
        if hi - lo >= len(vals):
            return list(map(str, vals.tolist()))
        # few distinct values (an index column): format each once
        return np.array(list(map(str, range(lo, hi + 1))),
                        dtype=object)[vals - lo].tolist()
    if float_repr:
        text = list(map(repr, vals.tolist()))
    else:
        whole = (np.abs(vals) < 2**53) & (vals == np.trunc(vals))
        cells = np.empty(len(vals), dtype=object)
        for mask, fmt, vs in ((whole, str, vals[whole].astype(np.int64)),
                              (~whole, repr, vals[~whole])):
            cells[mask] = np.fromiter(map(fmt, vs.tolist()), object, len(vs))
        text = cells.tolist()
    for i in np.flatnonzero(vals != vals).tolist():
        text[i] = ""
    return text


def _block_text(index: np.ndarray, floats: np.ndarray,
                float_repr: bool) -> str:
    """The CSV lines of a block of rows, given as its (columns, rows) index
    values and floats, written as csv.writer would write them: numbers need
    no quotes, and a row of one empty cell is written as "".

    One change mask over all columns finds the columns that change at few
    rows. Each run of adjacent such columns of one kind is formatted and
    joined once per run of equal rows (0.0 and -0.0 differ, and so does
    each NaN); the other columns of each kind are formatted with one map."""
    k, m = index.shape
    width = k + len(floats)
    if not width:
        return "\r\n" * m
    change = np.ones((width, m), dtype=bool)
    change[:k, 1:] = index[:, 1:] != index[:, :-1]
    after, before = floats[:, 1:], floats[:, :-1]
    change[k:, 1:] = ((after != before)
                      | (np.signbit(after) != np.signbit(before)))
    few = (np.count_nonzero(change, axis=1) * _FEW <= m).tolist()
    # the pieces of a line, (piece, first column, end column): runs of
    # adjacent few-change columns of one kind, and each other column alone
    firsts = [j for j in range(width)
              if not (j and j != k and few[j] and few[j - 1])]
    pieces = list(zip(range(len(firsts)), firsts, firsts[1:] + [width]))
    texts = [None] * len(pieces)
    for part, lo, hi in ((index, 0, k), (floats, k, width)):
        alone = [(p, a) for p, a, _ in pieces if lo <= a < hi and not few[a]]
        if alone:
            text = _text(part[[a - lo for _, a in alone]].ravel(), float_repr)
            for i, (p, _) in enumerate(alone):
                texts[p] = text[i * m:(i + 1) * m]
        for p, a, b in pieces:
            if lo <= a < hi and few[a]:
                starts = np.flatnonzero(change[a:b].any(axis=0))
                text = _text(part[a - lo:b - lo, starts].T.ravel(), float_repr)
                # one line piece per start: its b - a cells
                runs = map(",".join, zip(*[iter(text)] * (b - a)))
                texts[p] = []
                for run, n in zip(runs, np.diff(starts, append=m).tolist()):
                    texts[p] += [run] * n
    if width == 1:
        texts[0] = [cell or '""' for cell in texts[0]]
    return "\r\n".join(map(",".join, zip(*texts))) + "\r\n"


def write_csv(table: DataTable, path: str, float_repr: bool = False) -> None:
    """Write a table back to CSV. float_repr forces full-precision floats
    for every value cell (bitwise round-trips). Rows are formatted a block
    at a time: the speed of whole columns, the memory of a block."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(table.index_names)
                                + list(table.value_names))
        for lo in range(0, table.n_rows, _CSV_BLOCK):
            rows = slice(lo, lo + _CSV_BLOCK)
            index = table.index_rows[rows].T
            floats = np.array([table.columns[name][rows]
                               for name in table.value_names],
                              dtype=float).reshape(-1, index.shape[1])
            fh.write(_block_text(index, floats, float_repr))
