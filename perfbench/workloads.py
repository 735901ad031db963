"""Workload definitions and the benchmark's own input generator.

The generator uses numpy alone (not ``bmb.synthetic`` or ``bmb simulate``),
so the truth that the correctness checks compare against is one the program
under test did not produce.  Each workload has a fixed graph, drawn once from
its own ``graph_seed``; the ``--seed`` of a run draws the observations and,
on copula-mixed, which cells are missing, and it is also the chain seed
passed to ``bmb``.  Keeping the graph fixed keeps the cost of a sweep, which
depends on the graph through the continued-fraction depth, the same from one
seed to the next.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    p: int                  # query variables, named v0 .. v{p-1}
    q: int                  # other variables
    n: int                  # observations
    graph_seed: int
    k_query: int            # blanket edges per query variable
    weight_lo: float        # |w12| ~ U(weight_lo, weight_hi), random sign
    weight_hi: float
    margin: float           # smallest eigenvalue of the true precision
    burn_in: int
    samples: int
    gamma: float = 200.0
    mixed: bool = False     # continuous / ordinal / 0-1 columns, 5% missing

    @property
    def command(self) -> str:
        return "fit-copula" if self.mixed else "fit"

    @property
    def names(self) -> list[str]:
        return [f"v{i}" for i in range(self.p + self.q)]

    @property
    def query(self) -> list[str]:
        return self.names[:self.p]

    def chain_flags(self, burn_in: int, samples: int) -> list[str]:
        return ["--query", ",".join(self.query), "--gamma", repr(self.gamma),
                "--burn-in", str(burn_in), "--samples", str(samples)]


WORKLOADS = {
    w.name: w for w in (
        # n < q: the dense pq x pq W12 factor is ~90% of a sweep.
        Workload("fit-wide", p=4, q=256, n=150, graph_seed=4256,
                 k_query=6, weight_lo=0.4, weight_hi=0.9, margin=0.3,
                 burn_in=20, samples=100, gamma=30.0),
        # n >= q, near-singular truth: the W11 continued fraction runs
        # 64-100 levels deep and is most of a sweep.
        Workload("fit-deep", p=5, q=45, n=800, graph_seed=545,
                 k_query=2, weight_lo=0.3, weight_hi=1.0, margin=0.1,
                 burn_in=150, samples=450),
        # Rank likelihood on mixed, incomplete data: the latent
        # truncated-normal sweep dominates, and every outer iteration
        # rebuilds the scatter, its validation and the W12 factor.
        Workload("copula-mixed", p=5, q=95, n=300, graph_seed=595,
                 k_query=4, weight_lo=0.4, weight_hi=0.9, margin=0.3,
                 burn_in=20, samples=100, gamma=50.0, mixed=True),
    )
}

# Kinds of the mixed columns, cycled over v0, v1, ...: the 0/1 columns are
# declared ordinal because fit-copula rejects the kind "binary".
MIXED_PATTERN = ("continuous", "ordinal", "continuous", "binary")
ORDINAL_CUTS = np.array([-1.0, -0.3, 0.3, 1.0])
MISSING_SHARE = 0.05


def true_precision(w: Workload) -> np.ndarray:
    """The workload's fixed sparse precision matrix over p + q variables.

    Each query has ``k_query`` neighbours among the others (disjoint draws
    per query, so blankets overlap only by chance), the others form a
    sparse chain, and the diagonal is shifted so the smallest eigenvalue
    equals ``margin``.
    """
    g = np.random.Generator(np.random.PCG64(w.graph_seed))
    d = w.p + w.q
    a = np.zeros((d, d))
    for i in range(w.p):
        nb = w.p + g.choice(w.q, size=w.k_query, replace=False)
        sign = np.where(g.random(w.k_query) < 0.5, 1.0, -1.0)
        a[i, nb] = sign * g.uniform(w.weight_lo, w.weight_hi, w.k_query)
    for j in range(w.p, d - 1):
        if g.random() < 0.5:
            a[j, j + 1] = 0.3 if g.random() < 0.5 else -0.3
    a = a + a.T
    lam_min = float(np.linalg.eigvalsh(a)[0])
    return a + (w.margin - lam_min) * np.eye(d)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def _cell(v: float) -> str:
    return "NA" if np.isnan(v) else repr(float(v))


def write_data(path: Path, names: list[str], values: np.ndarray) -> None:
    """Observations-per-row CSV, floats printed so they round-trip."""
    _write_csv(path, names, ([_cell(v) for v in row] for row in values))


def kinds_of(w: Workload) -> list[str]:
    """Declared kind of each column as the generator made it."""
    if not w.mixed:
        return ["continuous"] * (w.p + w.q)
    return [MIXED_PATTERN[i % len(MIXED_PATTERN)] for i in range(w.p + w.q)]


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write data.csv, truth.csv and (for mixed data) kinds.csv into out.

    Returns a description of what was written.  The same (workload, seed)
    always writes the same bytes.
    """
    out.mkdir(parents=True, exist_ok=True)
    prec = true_precision(w)
    g = np.random.Generator(np.random.PCG64(seed))
    z = g.standard_normal((w.p + w.q, w.n))
    x = np.linalg.solve(np.linalg.cholesky(prec).T, z).T  # n x (p+q)
    kinds = kinds_of(w)
    if w.mixed:
        sd = np.sqrt(np.diag(np.linalg.inv(prec)))
        std = x / sd
        for j, kind in enumerate(kinds):
            if kind == "ordinal":
                x[:, j] = 1.0 + np.searchsorted(ORDINAL_CUTS, std[:, j])
            elif kind == "binary":
                x[:, j] = (std[:, j] > 0.0).astype(float)
        x[g.random(x.shape) < MISSING_SHARE] = np.nan
    names = w.names
    write_data(out / "data.csv", names, x)
    blanket = prec[:w.p, w.p:]
    _write_csv(out / "truth.csv", ["query"] + names[w.p:],
               ([names[i]] + [repr(float(v)) for v in blanket[i]]
                for i in range(w.p)))
    info = {"p": w.p, "q": w.q, "n": w.n, "graph_seed": w.graph_seed,
            "true_edges": int(np.count_nonzero(blanket))}
    if w.mixed:
        declared = ["ordinal" if k == "binary" else k for k in kinds]
        _write_csv(out / "kinds.csv", ["name", "kind"], zip(names, declared))
        info["kinds"] = {k: kinds.count(k) for k in MIXED_PATTERN}
        info["missing_share"] = float(np.isnan(x).mean())
    return info


def monotone_copy(src: Path, dst: Path, kinds: list[str]) -> None:
    """Copy data.csv with every continuous column mapped through exp(x/2).

    The map is strictly increasing; the copy is refused if rounding made
    two distinct values equal or swapped their order, since then the ranks
    would differ and the invariance check would not apply.
    """
    with open(src, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    vals = np.array([[np.nan if c == "NA" else float(c) for c in r]
                     for r in body])
    for j, kind in enumerate(kinds):
        if kind != "continuous":
            continue
        col = vals[:, j]
        obs = ~np.isnan(col)
        new = col.copy()
        new[obs] = np.exp(col[obs] / 2.0)
        order = np.argsort(col[obs], kind="stable")
        distinct = np.diff(col[obs][order]) > 0.0
        if np.any(np.diff(new[obs][order])[distinct] <= 0.0):
            raise ValueError(f"exp(x/2) is not strictly increasing on {header[j]}")
        vals[:, j] = new
    write_data(dst, header, vals)
