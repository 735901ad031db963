"""Flat-file formats shared by the CLI subcommands.

One dialect everywhere: UTF-8, comma separator, header row, ``NA`` for
missing cells, and floats printed with ``repr`` so every value survives a
write/read/write round trip byte for byte.  Data files are oriented the
tabular way (rows are observations, columns are variables) and transposed
into :class:`~bmb.linalg.DataMatrix` on load.

The edges file is the one output that grows with q times the samples, so
it is written one sample at a time from whole arrays, with each row's
names quoted once, and read back by two ``np.loadtxt`` passes.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError

if TYPE_CHECKING:
    from .linalg import DataMatrix

_EDGES_HEADER = ["sample", "query", "other", "weight"]

# One edges row as the first read pass parses it.  The names come from the
# second pass; reading them here as one-character placeholders costs little
# and makes loadtxt reject every row that does not have four fields.
_EDGE_ROW = np.dtype([("sample", np.int64), ("query", "U1"),
                      ("other", "U1"), ("weight", np.float64)])


class _Echo:
    """File stand-in whose ``write`` returns what it is given."""

    def write(self, text: str) -> str:
        return text


_ROW = csv.writer(_Echo(), lineterminator="\n")


def csv_row(cells) -> str:
    """One CSV line, newline included, exactly as ``csv.writer`` writes it."""
    return _ROW.writerow(cells)


def fmt_float(v: float) -> str:
    """Shortest decimal string that round-trips, or NA for missing."""
    v = float(v)
    if np.isnan(v):
        return "NA"
    return repr(v)


def fmt_floats(values: np.ndarray) -> list[str]:
    """:func:`fmt_float` of every entry of a 1-d array."""
    cells = list(map(repr, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        cells[k] = "NA"
    return cells


def _parse_float(cell: str, where: str) -> float:
    if cell == "NA" or cell == "":
        return float("nan")
    try:
        return float(cell)
    except ValueError as exc:
        raise DataFormatError(f"{where}: not a number: {cell!r}") from exc


def _open_rows(path: Path) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_data_csv(path: Path, data: DataMatrix) -> None:
    """Write variables-by-observations data as an observations-per-row CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(data.names)
        for obs in data.values.T:
            w.writerow([fmt_float(v) for v in obs])


def read_data_csv(path: Path) -> DataMatrix:
    """Load a data CSV; NA cells become NaN."""
    from .linalg import DataMatrix

    rows = _open_rows(path)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    names = rows[0]
    if len(names) == 0 or any(not n for n in names):
        raise DataFormatError(f"{path}: header has empty variable names")
    if len(set(names)) != len(names):
        raise DataFormatError(f"{path}: duplicate variable names in header")
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no observation rows")
    values = np.empty((len(body), len(names)))
    for i, row in enumerate(body):
        if len(row) != len(names):
            raise DataFormatError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {len(names)}"
            )
        values[i] = [_parse_float(c, f"{path}: row {i + 2}") for c in row]
    return DataMatrix(values=values.T, names=list(names))


def write_truth_csv(path: Path, query_names: list[str],
                    other_names: list[str], blanket: np.ndarray) -> None:
    """Write the signed true blanket as a query-per-row weight matrix."""
    blanket = np.asarray(blanket, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(["query"] + list(other_names))
        for name, row in zip(query_names, blanket):
            w.writerow([name] + [fmt_float(v) for v in row])


def read_truth_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Load truth.csv back into (query names, other names, blanket)."""
    rows = _open_rows(path)
    if not rows or rows[0][:1] != ["query"]:
        raise DataFormatError(f"{path}: expected a header starting with 'query'")
    other_names = rows[0][1:]
    if not other_names:
        raise DataFormatError(f"{path}: no other-variable columns")
    query_names = []
    blanket = np.empty((len(rows) - 1, len(other_names)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(other_names) + 1:
            raise DataFormatError(f"{path}: ragged row {i + 2}")
        query_names.append(row[0])
        blanket[i] = [_parse_float(c, f"{path}: row {i + 2}") for c in row[1:]]
    if not query_names:
        raise DataFormatError(f"{path}: no query rows")
    if not np.all(np.isfinite(blanket)):
        raise DataFormatError(f"{path}: blanket weights must be finite")
    return query_names, other_names, blanket


def write_edges_csv(path: Path, query_names, other_names,
                    w12: np.ndarray) -> None:
    """Write retained blanket draws in long form (sample, query, other, weight).

    Rows run over samples, then query names, then other names.  Each
    sample is formatted from its whole p-by-q array and written as one
    string, so the file is never held in memory at once.
    """
    w12 = np.asarray(w12, dtype=float)
    m, p, q = w12.shape
    names = [csv_row([query_names[i], other_names[j]])[:-1]
             for i in range(p) for j in range(q)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_row(_EDGES_HEADER))
        for s in range(m):
            head = f"{s},"
            fh.write("".join([f"{head}{pair},{cell}\n" for pair, cell
                              in zip(names, fmt_floats(w12[s].ravel()))]))


def _first_appearance(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Distinct names in order of first appearance, and each row's position."""
    names, first, inverse = np.unique(column, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return names[order].tolist(), position[inverse.ravel()]


def _load_rows(path: Path, **kwargs) -> np.ndarray:
    with warnings.catch_warnings():
        # A header-only file; the caller reports it.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", quotechar='"', comments=None,
                          skiprows=1, encoding="utf-8", **kwargs)


def read_edges_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Load edges.csv into (query names, other names, draws of shape m,p,q).

    Variable orders are taken from first appearance; every sample must
    cover the same query-by-other grid exactly once.  One pass reads the
    integer sample index and the weight of every row, a second reads the
    two names.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = fh.readline()
        if header.rstrip("\r\n") != ",".join(_EDGES_HEADER):
            raise DataFormatError(
                f"{path}: expected header {','.join(_EDGES_HEADER)}"
            )
        rows = _load_rows(path, dtype=_EDGE_ROW, ndmin=1)
        pairs = _load_rows(path, usecols=(1, 2), dtype=str, ndmin=2)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if rows.size == 0:
        raise DataFormatError(f"{path}: no edge rows")
    sample, weight = rows["sample"], rows["weight"]
    missing = np.flatnonzero(np.isnan(weight))
    if missing.size:
        raise DataFormatError(
            f"{path}: row {missing[0] + 2}: weight is not a number"
        )
    query_names, qi = _first_appearance(pairs[:, 0])
    other_names, oj = _first_appearance(pairs[:, 1])
    m = int(sample.max()) + 1
    p, q = len(query_names), len(other_names)
    if sample.min() < 0 or sample.size != m * p * q:
        raise DataFormatError(
            f"{path}: expected {m}x{p}x{q} complete grid, got {sample.size} rows"
        )
    w12 = np.full(m * p * q, np.nan)
    w12[(sample * p + qi) * q + oj] = weight
    if np.isnan(w12).any():
        raise DataFormatError(f"{path}: duplicate or missing (sample, edge) cells")
    return query_names, other_names, w12.reshape(m, p, q)


def read_kinds_csv(path: Path) -> dict[str, str]:
    """Load a per-variable kind declaration (columns: name, kind)."""
    rows = _open_rows(path)
    if not rows or rows[0] != ["name", "kind"]:
        raise DataFormatError(f"{path}: expected header name,kind")
    kinds: dict[str, str] = {}
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise DataFormatError(f"{path}: ragged row {i + 2}")
        name, kind = row
        if name in kinds:
            raise DataFormatError(f"{path}: duplicate kind for {name!r}")
        kinds[name] = kind
    return kinds


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2)
        fh.write("\n")


def read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot parse {path}: {exc}") from exc
