import csv

import numpy as np
import pytest

from bmb.errors import DataFormatError
from bmb.io import (
    fmt_float,
    read_data_csv,
    read_edges_csv,
    read_json,
    read_kinds_csv,
    read_truth_csv,
    write_data_csv,
    write_edges_csv,
    write_json,
    write_truth_csv,
)
from bmb.linalg import DataMatrix


def test_fmt_float_round_trips():
    for v in [0.1, 1 / 3, 1e-300, 123456.789, -0.0, np.pi]:
        assert float(fmt_float(v)) == v
    assert fmt_float(float("nan")) == "NA"


def test_data_csv_round_trip(tmp_path, gen):
    vals = gen.standard_normal((3, 7))
    vals[1, 2] = np.nan
    dm = DataMatrix(values=vals, names=["a", "b", "c"])
    path = tmp_path / "data.csv"
    write_data_csv(path, dm)
    back = read_data_csv(path)
    assert back.names == ["a", "b", "c"]
    assert np.array_equal(back.values, vals, equal_nan=True)
    # write -> read -> write is byte-identical
    path2 = tmp_path / "again.csv"
    write_data_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_data_csv_malformed(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        read_data_csv(p)
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataFormatError):
        read_data_csv(p)
    p.write_text("a,a\n1,2\n")
    with pytest.raises(DataFormatError):
        read_data_csv(p)
    p.write_text("a,b\n1,zzz\n")
    with pytest.raises(DataFormatError):
        read_data_csv(p)
    p.write_text("a,b\n")
    with pytest.raises(DataFormatError):
        read_data_csv(p)
    with pytest.raises(DataFormatError):
        read_data_csv(tmp_path / "missing.csv")


def test_truth_csv_round_trip(tmp_path, gen):
    blanket = gen.standard_normal((2, 4))
    path = tmp_path / "truth.csv"
    write_truth_csv(path, ["q1", "q2"], ["o1", "o2", "o3", "o4"], blanket)
    qn, on, back = read_truth_csv(path)
    assert qn == ["q1", "q2"] and on == ["o1", "o2", "o3", "o4"]
    assert np.array_equal(back, blanket)
    path2 = tmp_path / "truth2.csv"
    write_truth_csv(path2, qn, on, back)
    assert path.read_bytes() == path2.read_bytes()


def test_truth_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("nope,o1\nq1,0.5\n")
    with pytest.raises(DataFormatError):
        read_truth_csv(p)


def test_edges_csv_round_trip(tmp_path, gen):
    w12 = gen.standard_normal((5, 2, 3))
    path = tmp_path / "edges.csv"
    write_edges_csv(path, ["a", "b"], ["x", "y", "z"], w12)
    qn, on, back = read_edges_csv(path)
    assert qn == ["a", "b"] and on == ["x", "y", "z"]
    assert np.array_equal(back, w12)
    path2 = tmp_path / "edges2.csv"
    write_edges_csv(path2, qn, on, back)
    assert path.read_bytes() == path2.read_bytes()


def test_edges_csv_quotes_names_as_csv_writer_does(tmp_path, gen):
    qn = ["a,b", 'say "hi"']
    on = ["#x", " sp ", "plain"]
    w12 = gen.standard_normal((4, 2, 3))
    w12[1, 0, 2] = -0.0
    path = tmp_path / "edges.csv"
    write_edges_csv(path, qn, on, w12)
    with open(tmp_path / "oracle.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sample", "query", "other", "weight"])
        for s in range(4):
            for i in range(2):
                for j in range(3):
                    w.writerow([s, qn[i], on[j], repr(float(w12[s, i, j]))])
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back_qn, back_on, back = read_edges_csv(path)
    assert back_qn == qn and back_on == on
    assert np.array_equal(back.view(np.int64), w12.view(np.int64))
    path2 = tmp_path / "edges2.csv"
    write_edges_csv(path2, back_qn, back_on, back)
    assert path.read_bytes() == path2.read_bytes()


def test_edges_csv_writes_na_for_nan(tmp_path):
    w12 = np.array([[[1.5, np.nan]]])
    path = tmp_path / "edges.csv"
    write_edges_csv(path, ["a"], ["x", "y"], w12)
    assert path.read_text() == ("sample,query,other,weight\n"
                                "0,a,x,1.5\n0,a,y,NA\n")


def test_edges_csv_weights_parse_as_python_float(tmp_path, gen):
    cells = ["-0.0", "0.0", "1e-300", "-1e-300", "5e-324", "-5e-324",
             "2.2250738585072014e-308", "2.225073858507201e-308", "1e300",
             "-1E300", "1.7976931348623157e308", "0.1", "1", "-7",
             " 3.25 ", "123456789012345678901234567890.5"]
    cells += [repr(v) for v in (gen.standard_normal(48)
                                * 10.0 ** gen.integers(-320, 300, 48)).tolist()]
    path = tmp_path / "edges.csv"
    path.write_text("sample,query,other,weight\n" + "".join(
        f"0,a,o{j},{cell}\n" for j, cell in enumerate(cells)))
    _, on, w12 = read_edges_csv(path)
    assert on == [f"o{j}" for j in range(len(cells))]
    expected = np.array([float(cell) for cell in cells])
    assert np.array_equal(w12[0, 0].view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("body", [
    "0,a,x,1.0\n0,a,y\n",                  # ragged: three fields
    "0,a,x,1.0\n0,a,y,2.0,9\n",            # ragged: five fields
    "0,a,x,1.0\n1.5,a,x,2.0\n",            # fractional sample index
    "0,a,x,1.0\n1.0,a,x,2.0\n",            # sample index not an integer
    "0,a,x,1.0\nz,a,x,2.0\n",              # non-numeric sample index
    "0,a,x,1.0\n0,a,y,NA\n",               # missing weight
    "0,a,x,1.0\n0,a,y,nan\n",              # not-a-number weight
    "0,a,x,1.0\n0,a,y,zzz\n",              # non-numeric weight
    "0,a,x,1.0\n0,a,y,\n",                 # empty weight
    "0,a,x,1.0\n0,a,x,2.0\n",              # duplicate cell
    "0,a,x,1.0\n0,a,y,2.0\n1,a,x,3.0\n",  # missing cell
    "0,a,x,1.0\n0,a,y,2.0\n1,a,x,3.0\n1,a,x,4.0\n",  # both
    "0,a,x,1.0\n-1,a,x,2.0\n",             # negative sample index
    "",                                      # header only
])
def test_edges_csv_rejects_malformed_rows(tmp_path, body):
    p = tmp_path / "e.csv"
    p.write_text("sample,query,other,weight\n" + body)
    with pytest.raises(DataFormatError):
        read_edges_csv(p)


@pytest.mark.parametrize("text", [
    "", "bad,header\n", "sample,query,other\n0,a,x\n",
    "sample,query,other,weight,extra\n0,a,x,1.0,2\n",
    "weight,sample,query,other\n1.0,0,a,x\n",
])
def test_edges_csv_rejects_wrong_header(tmp_path, text):
    p = tmp_path / "e.csv"
    p.write_text(text)
    with pytest.raises(DataFormatError):
        read_edges_csv(p)
    with pytest.raises(DataFormatError):
        read_edges_csv(tmp_path / "missing.csv")


def test_edges_csv_requires_complete_grid(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("sample,query,other,weight\n0,a,x,1.0\n0,a,y,2.0\n"
                 "1,a,x,3.0\n")
    with pytest.raises(DataFormatError):
        read_edges_csv(p)
    p.write_text("sample,query,other,weight\n0,a,x,1.0\n0,a,x,2.0\n")
    with pytest.raises(DataFormatError):
        read_edges_csv(p)
    p.write_text("bad,header\n")
    with pytest.raises(DataFormatError):
        read_edges_csv(p)


def test_kinds_csv(tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("name,kind\nv1,ordinal\nv2,continuous\n")
    assert read_kinds_csv(p) == {"v1": "ordinal", "v2": "continuous"}
    p.write_text("name,kind\nv1,ordinal\nv1,ordinal\n")
    with pytest.raises(DataFormatError):
        read_kinds_csv(p)


def test_json_round_trip(tmp_path):
    obj = {
        "a": 1,
        "b": [1.5, None, "s"],
        "c": {"nested": np.float64(2.5), "n": np.int64(3)},
        "d": np.arange(3),
    }
    path = tmp_path / "x.json"
    write_json(path, obj)
    back = read_json(path)
    assert back == {"a": 1, "b": [1.5, None, "s"],
                    "c": {"nested": 2.5, "n": 3}, "d": [0, 1, 2]}
    with pytest.raises(DataFormatError):
        read_json(tmp_path / "missing.json")
