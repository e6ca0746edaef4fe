import math

import numpy as np
import pytest

from ldmlang import datatable
from ldmlang.datatable import DataTable, make_table, read_table, write_csv
from ldmlang.errors import (DuplicateIndexTupleError, TableError,
                            UnparseableCellError)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_read_basic(tmp_path):
    path = write(tmp_path, "t,y\n0,1.5\n1,2.5\n2,3.5\n")
    t = read_table(path, ["t"])
    assert t.index_names == ("t",)
    assert np.array_equal(t.index_rows[:, 0], [0, 1, 2])
    assert np.array_equal(t.column("y"), [1.5, 2.5, 3.5])


def test_missing_cells_become_nan(tmp_path):
    path = write(tmp_path, "t,y\n0,1.0\n1,\n2,NaN\n3,nan\n")
    t = read_table(path, ["t"])
    y = t.column("y")
    assert math.isnan(y[1]) and math.isnan(y[2]) and math.isnan(y[3])
    assert y[0] == 1.0


def test_get_by_key(tmp_path):
    path = write(tmp_path, "n,t,y\n0,0,1.0\n0,1,2.0\n1,0,3.0\n")
    t = read_table(path, ["n", "t"])
    assert t.get("y", (1, 0)) == 3.0
    assert math.isnan(t.get("y", (5, 5)))  # absent row reads as missing


def test_unparseable_cell(tmp_path):
    path = write(tmp_path, "t,y\n0,1.0\n1,oops\n")
    with pytest.raises(UnparseableCellError) as exc:
        read_table(path, ["t"])
    assert exc.value.row == 3  # 1-based file line
    assert exc.value.column == "y"


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "t,y\n0,1.0\n1\n")
    with pytest.raises(TableError):
        read_table(path, ["t"])


def test_duplicate_column_rejected(tmp_path):
    path = write(tmp_path, "t,y,y\n0,1.0,2.0\n")
    with pytest.raises(TableError):
        read_table(path, ["t"])


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(TableError):
        read_table(path, ["t"])


def test_duplicate_index_tuple_rejected(tmp_path):
    path = write(tmp_path, "t,y\n0,1.0\n0,2.0\n")
    with pytest.raises(DuplicateIndexTupleError):
        read_table(path, ["t"])


def test_duplicate_index_tuple_names_the_first_repeat():
    # (1, 0) repeats at row 3, before (0, 1) repeats at row 4
    rows = [[0, 1], [1, 0], [0, 0], [1, 0], [0, 1]]
    with pytest.raises(DuplicateIndexTupleError,
                       match=r"index tuple \(1, 0\)$"):
        make_table(("n", "t"), rows, {"y": np.zeros(5)})
    with pytest.raises(DuplicateIndexTupleError, match=r"index tuple \(\)$"):
        make_table((), [(), ()], {"y": [1.0, 2.0]})


def test_row_map_is_built_by_the_first_get():
    t = make_table(("t",), [[2], [0]], {"y": [5.0, 6.0]})
    assert t._row_of is None
    assert t.get("y", (0,)) == 6.0
    assert t._row_of == {(2,): 0, (0,): 1}


def test_write_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    t = make_table(("i", "j"), [[i, -i] for i in range(7)],
                   {"y": np.arange(7) / 3.0, "z": np.arange(7.0)})
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    write_csv(t, str(whole), float_repr=True)
    monkeypatch.setattr(datatable, "_CSV_BLOCK", 3)
    write_csv(t, str(blocks), float_repr=True)
    assert blocks.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 8


def test_write_csv_cell_text(tmp_path):
    y = [0.0, -0.0, 3.0, -7.0, 2.0**53, 0.1, math.inf, math.nan]
    t = make_table(("i",), [[i] for i in range(len(y))], {"y": y})
    path = tmp_path / "out.csv"
    write_csv(t, str(path))
    assert path.read_text() == ("i,y\n0,0\n1,0\n2,3\n3,-7\n"
                                "4,9007199254740992.0\n5,0.1\n6,inf\n7,\n")
    write_csv(t, str(path), float_repr=True)
    assert path.read_text() == ("i,y\n0,0.0\n1,-0.0\n2,3.0\n3,-7.0\n"
                                "4,9007199254740992.0\n5,0.1\n6,inf\n7,\n")


def test_missing_index_column(tmp_path):
    path = write(tmp_path, "t,y\n0,1.0\n")
    with pytest.raises(TableError):
        read_table(path, ["n"])


def test_make_table_and_write_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(5)
    vals[2] = np.nan
    t = make_table(["t"], np.arange(5)[:, None], {"y": vals})
    out = str(tmp_path / "out.csv")
    write_csv(t, out, float_repr=True)
    back = read_table(out, ["t"])
    # bitwise equality via repr round-trip, NaN preserved as missing
    same = (back.column("y") == vals) | (np.isnan(back.column("y"))
                                         & np.isnan(vals))
    assert same.all()


def test_write_compacts_integer_valued_cells(tmp_path):
    t = make_table(["t"], np.arange(3)[:, None], {"y": np.array([1.0, 2.0, 3.5])})
    out = str(tmp_path / "out.csv")
    write_csv(t, out)
    text = open(out).read()
    assert "1.0" not in text.splitlines()[1]
    assert "3.5" in text


def test_index_columns_any_order(tmp_path):
    # index columns may appear anywhere in the header
    path = write(tmp_path, "y,t\n1.0,0\n2.0,1\n")
    t = read_table(path, ["t"])
    assert np.array_equal(t.column("y"), [1.0, 2.0])
    assert np.array_equal(t.index_rows[:, 0], [0, 1])


def test_non_integer_index_rejected(tmp_path):
    path = write(tmp_path, "t,y\n0.5,1.0\n")
    with pytest.raises((TableError, UnparseableCellError)):
        read_table(path, ["t"])
