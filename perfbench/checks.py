"""Independent checks of the command-line outputs.

Nothing here imports ``bmb``: the edge calls, the score counts, the
autocorrelations and the effective sample sizes are recomputed from the
files the commands wrote and from the generator's own truth file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

LEVEL = 0.85


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_edges(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """edges.csv as (query names, other names, draws of shape m x p x q)."""
    rows = _rows(path)
    if rows[0] != ["sample", "query", "other", "weight"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    body = rows[1:]
    query = list(dict.fromkeys(r[1] for r in body))
    other = list(dict.fromkeys(r[2] for r in body))
    m = int(body[-1][0]) + 1
    if len(body) != m * len(query) * len(other):
        raise ValueError(f"{path}: {len(body)} rows is not a full grid")
    # Rows must come sample-major, then query, then other.
    grid = ([str(s), qn, on] for s in range(m) for qn in query for on in other)
    for k, (row, expect) in enumerate(zip(body, grid)):
        if row[:3] != expect:
            raise ValueError(f"{path}: row {k + 2} is out of order")
    draws = np.array([float(r[3]) for r in body])
    return query, other, draws.reshape(m, len(query), len(other))


def read_truth(path: Path, query: list[str], other: list[str]) -> np.ndarray:
    """The generator's signed blanket, aligned to the given name orders."""
    rows = _rows(path)
    col = {name: j for j, name in enumerate(rows[0][1:])}
    by_query = {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}
    return np.array([[by_query[qn][col[on]] for on in other] for qn in query])


def edge_calls(draws: np.ndarray, level: float = LEVEL):
    """Equal-tailed interval bounds and calls, as ``bmb evaluate`` makes them."""
    alpha = (1.0 - level) / 2.0
    lo, med, hi = np.quantile(draws, [alpha, 0.5, 1.0 - alpha], axis=0)
    included = (lo > 0.0) | (hi < 0.0)
    sign = np.where(med > 0.0, 1.0, -1.0)
    return lo, hi, included, sign


def score_counts(draws: np.ndarray, blanket: np.ndarray) -> dict:
    """Sign-aware counts: an edge is right only if present with its sign."""
    lo, hi, included, sign = edge_calls(draws)
    present = blanket != 0.0
    right = included & present & (sign == np.sign(blanket))
    tp = int(right.sum())
    wrong = int((included & present & ~right).sum())
    return {
        "true_positive": tp,
        "wrong_sign": wrong,
        "spurious": int((included & ~present).sum()),
        "missed": int(present.sum()) - tp,
    }


def fscore(c: dict) -> float:
    inferred = c["true_positive"] + c["wrong_sign"] + c["spurious"]
    true = c["true_positive"] + c["missed"]
    precision = c["true_positive"] / inferred if inferred else 0.0
    recall = c["true_positive"] / true if true else 0.0
    total = precision + recall
    return 2.0 * precision * recall / total if total else 0.0


def zero_coverage(draws: np.ndarray, blanket: np.ndarray) -> float:
    """Share of truly absent edges whose interval covers zero."""
    lo, hi, _, _ = edge_calls(draws)
    absent = blanket == 0.0
    return float(((lo <= 0.0) & (hi >= 0.0))[absent].mean())


def acf_ess(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelations at every lag and Geyer-truncated ESS, per edge.

    Autocovariances are direct sums with the biased 1/m normalization; the
    ESS sums lag pairs (rho_{2k-1} + rho_{2k}) while they stay positive and
    caps the result at m.  Edges are flattened query-major.
    """
    m = draws.shape[0]
    x = draws.reshape(m, -1)
    c = x - x.mean(axis=0)
    acov = np.array([(c[:m - k] * c[k:]).sum(axis=0) for k in range(m)]) / m
    rho = acov / acov[0]
    ess = np.empty(x.shape[1])
    for e in range(x.shape[1]):
        tail = 0.0
        k = 1
        while k + 1 < m:
            pair = rho[k, e] + rho[k + 1, e]
            if pair <= 0.0:
                break
            tail += pair
            k += 2
        ess[e] = min(m, m / max(1.0 + 2.0 * tail, 1e-12))
    return rho.T, ess


def read_diagnostics(path: Path) -> tuple[list[tuple[str, str]], np.ndarray,
                                          np.ndarray]:
    """diagnostics.csv as (edge names, ESS, autocorrelations from lag 1)."""
    rows = _rows(path)
    body = rows[1:]
    names = [(r[0], r[1]) for r in body]
    ess = np.array([float(r[2]) for r in body])
    acf = np.array([[float(v) for v in r[4:]] for r in body])
    return names, ess, acf


def check_diagnostics(diag: Path, query: list[str], other: list[str],
                      draws: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Compare diagnostics.csv with the direct computation; return its ESS."""
    names, ess, acf = read_diagnostics(diag)
    expect = [(qn, on) for qn in query for on in other]
    if names != expect:
        raise AssertionError(f"{diag}: edge rows differ from edges.csv")
    rho, own_ess = acf_ess(draws)
    lags = acf.shape[1]
    if lags != min(50, draws.shape[0] - 1):
        raise AssertionError(f"{diag}: {lags} autocorrelation lags")
    if not np.allclose(acf, rho[:, 1:lags + 1], rtol=rtol, atol=rtol):
        worst = float(np.max(np.abs(acf - rho[:, 1:lags + 1])))
        raise AssertionError(f"{diag}: autocorrelations differ by {worst:.3e}")
    if not np.allclose(ess, own_ess, rtol=rtol, atol=0.0):
        worst = float(np.max(np.abs(ess / own_ess - 1.0)))
        raise AssertionError(f"{diag}: ESS differs by {worst:.3e} relative")
    return ess


def check_score(score_json: Path, draws: np.ndarray,
                blanket: np.ndarray) -> dict:
    """The evaluate command's counts must equal the benchmark's own."""
    with open(score_json, encoding="utf-8") as fh:
        reported = json.load(fh)
    own = score_counts(draws, blanket)
    theirs = {k: reported[k] for k in own}
    if theirs != own:
        raise AssertionError(f"{score_json}: counts {theirs} != own {own}")
    return own
