"""Gaussian-copula extended-rank-likelihood front end for mixed data.

Observed variables (continuous, or integer-coded ordinal or binary, possibly
with missing cells) are mapped to latent Gaussian rows constrained only by the
within-variable orderings of the observations. The chain alternates three
moves per outer iteration: a truncated-normal Gibbs sweep over the latent
matrix, an inverse-Wishart draw of the full latent covariance (kept in
correlation form for identifiability), and one or more blanket sweeps on
the scatter matrix of the current latents.

Marginal distributions are nuisance parameters here and are never
estimated; only ranks enter, which is what makes the procedure invariant
under strictly increasing transforms of the observed variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstantVariable, DimensionMismatch, InvalidParameter
from .linalg import (PartitionedCov, SpdMatrix, chol_inverse, cholesky,
                     split_query)
from .rng import RngStream, _bartlett_lower, _truncnorm_flat
from .sampler import (BlanketState, ChainConfig, ChainOutput, HyperParams,
                      _drive, build_structured_precision, gibbs_sweep)


@dataclass(frozen=True)
class MixedDataTable:
    """Variables-by-observations table with NaN for missing cells.

    Every variable, whatever its kind, enters only through the ranks of
    its observed values, so the table carries no kinds.
    """

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise InvalidParameter("table must be 2-D with positive shape")
        if len(self.names) != vals.shape[0]:
            raise DimensionMismatch("names must match the variable count")
        if len(set(self.names)) != len(self.names):
            raise InvalidParameter("variable names must be unique")
        for i, name in enumerate(self.names):
            observed = vals[i, ~np.isnan(vals[i])]
            if np.unique(observed).size < 2:
                raise ConstantVariable(
                    f"variable {name!r} has fewer than 2 distinct observed "
                    "values; its latent scale is unidentifiable"
                )

    @property
    def r(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def reordered(self, order: list[int]) -> "MixedDataTable":
        return MixedDataTable(
            values=self.values[order],
            names=tuple(self.names[i] for i in order),
        )


@dataclass(frozen=True)
class _VarLayout:
    """Flattened level-group layout of one variable, for vectorized sweeps.

    ``order`` lists observed cell indices grouped by ascending level;
    ``starts``/``sizes`` delimit the groups inside it. Because the sampler
    keeps groups totally ordered (every latent sits strictly between its
    neighbor groups' extremes), a group's bounds are always the max of the
    group just below and the min of the group just above. The per-parity
    arrays (even-indexed groups vs odd-indexed) are precomputed so a sweep
    can redraw each parity class in one vectorized call: the groups
    (``parity_sel``), their cells (``parity_cells``), each cell's group
    index (``parity_group``) and where each group starts among the cells
    (``parity_starts``).
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    parity_sel: tuple[np.ndarray, np.ndarray]
    parity_cells: tuple[np.ndarray, np.ndarray]
    parity_group: tuple[np.ndarray, np.ndarray]
    parity_starts: tuple[np.ndarray, np.ndarray]

    @property
    def n_groups(self) -> int:
        return self.sizes.size


@dataclass(frozen=True)
class RankBounds:
    """Within-variable ordering constraints, stored structurally.

    For each variable, observation indices are grouped by observed value in
    ascending order (``layouts``); a cell's numeric bounds at any point are
    the max latent over strictly-lower groups and the min over
    strictly-higher groups, evaluated against the current latent matrix.
    Ties impose no mutual constraint, and ``missing`` cells are
    unconstrained.
    """

    missing: tuple[np.ndarray, ...]
    layouts: tuple[_VarLayout, ...]


def compute_bounds(table: MixedDataTable) -> RankBounds:
    """Group each variable's observations by level, ascending.

    One stable sort per variable: within a level, cells keep ascending
    index order.
    """
    missing = []
    layouts = []
    for row in table.values:
        nan = np.isnan(row)
        obs = np.flatnonzero(~nan)
        missing.append(np.flatnonzero(nan))
        order = obs[np.argsort(row[obs], kind="stable")]
        starts = np.unique(row[order], return_index=True)[1]
        sizes = np.diff(starts, append=order.size)
        group = np.repeat(np.arange(sizes.size), sizes)
        sels, cells, groups, pstarts = [], [], [], []
        for parity in (0, 1):
            sel = np.arange(parity, sizes.size, 2)
            mine = group % 2 == parity
            sels.append(sel)
            cells.append(order[mine])
            groups.append(group[mine])
            pstarts.append(np.concatenate(
                [[0], np.cumsum(sizes[sel])[:-1]]).astype(np.intp))
        layouts.append(_VarLayout(
            order=order,
            starts=starts,
            sizes=sizes,
            parity_sel=(sels[0], sels[1]),
            parity_cells=(cells[0], cells[1]),
            parity_group=(groups[0], groups[1]),
            parity_starts=(pstarts[0], pstarts[1]),
        ))
    return RankBounds(missing=tuple(missing), layouts=tuple(layouts))


def init_latent(bounds: RankBounds, n: int) -> np.ndarray:
    """Normal scores of the mid-ranks, 0 for missing cells.

    Returns one latent row per variable over ``n`` observations.  A level
    group at sorted positions ``start + 1`` .. ``start + size`` shares the
    mid-rank ``start + (size + 1) / 2``.
    """
    from scipy.special import ndtri  # only fit-copula loads scipy.special

    x = np.zeros((len(bounds.layouts), n))
    for i, layout in enumerate(bounds.layouts):
        ranks = np.repeat(layout.starts + (layout.sizes + 1) / 2.0,
                          layout.sizes)
        x[i, layout.order] = ndtri(ranks / (layout.order.size + 1.0))
    return x


def sample_latent(x: np.ndarray, sigma: SpdMatrix, bounds: RankBounds,
                  rng: RngStream) -> None:
    """One systematic truncated-normal sweep over the latent rows x, in place.

    Row i's cells are conditionally independent given the other rows, with
    common variance 1/omega_ii and means read off the precision matrix.
    Within a row, level groups are redrawn in two vectorized half-steps
    (even-indexed groups, then odd-indexed): the sampler's invariant keeps
    groups totally ordered, so a group's bounds involve only the adjacent
    groups, which belong to the opposite parity class. Each half-step
    therefore redraws a set of cells that are conditionally independent
    given everything current, with bounds re-evaluated in between.
    """
    r = x.shape[0]
    if sigma.dim != r:
        raise DimensionMismatch("sigma dimension must match variable count")
    omega = chol_inverse(sigma.factor())
    p_mat = omega @ x
    # Rows 0..i of p_mat are not read again in this sweep, so redrawing row
    # i updates only the rows below it, through this buffer.
    update = np.empty_like(x)
    for i in range(r):
        row = x[i]
        w_ii = omega[i, i]
        cond_sd = float(np.sqrt(1.0 / w_ii))
        mean = row - p_mat[i] / w_ii
        old_row = row.copy()
        layout = bounds.layouts[i]
        g_count = layout.n_groups
        if g_count:
            vals = row[layout.order]
            # below[g] is the max of group g - 1 and above[g + 1] the min of
            # group g + 1, with -inf and +inf past the ends.
            below = np.empty(g_count + 1)
            above = np.empty(g_count + 1)
            below[0] = -np.inf
            above[g_count] = np.inf
            gmax, gmin, above_next = below[1:], above[:-1], above[1:]
            np.maximum.reduceat(vals, layout.starts, out=gmax)
            np.minimum.reduceat(vals, layout.starts, out=gmin)
            for parity in (0, 1):
                sel = layout.parity_sel[parity]
                if sel.size == 0:
                    continue
                cells = layout.parity_cells[parity]
                group = layout.parity_group[parity]
                draw = _truncnorm_flat(rng, mean[cells], cond_sd,
                                       below[group], above_next[group])
                row[cells] = draw
                gmax[sel] = np.maximum.reduceat(draw, layout.parity_starts[parity])
                gmin[sel] = np.minimum.reduceat(draw, layout.parity_starts[parity])
        miss = bounds.missing[i]
        if miss.size:
            row[miss] = mean[miss] + cond_sd * rng.gen.standard_normal(miss.size)
        delta = row - old_row
        if i + 1 < r and delta.any():
            rows_below = update[: r - i - 1]
            np.multiply.outer(omega[i + 1:, i], delta, out=rows_below)
            p_mat[i + 1:] += rows_below


@dataclass(frozen=True)
class CopulaConfig:
    """Run-length and prior knobs for the outer copula chain.

    The outer iteration count is the embedded chain schedule's total sweep
    count; the two are deliberately not independent knobs.
    """

    chain: ChainConfig = field(default_factory=ChainConfig)
    inner_sweeps_per_outer: int = 1
    iw_prior_df: float | None = None

    def __post_init__(self):
        if self.inner_sweeps_per_outer < 1:
            raise InvalidParameter("inner_sweeps_per_outer must be >= 1")

    def prior_df(self, r: int) -> float:
        df = self.iw_prior_df if self.iw_prior_df is not None else r + 2.0
        if df <= r - 1:
            raise InvalidParameter(
                f"inverse-Wishart prior df {df} must exceed r-1 = {r - 1}"
            )
        return df


def sample_sigma_full(x: np.ndarray, cfg: CopulaConfig,
                      rng: RngStream) -> tuple[SpdMatrix, np.ndarray]:
    """Conjugate inverse-Wishart draw of the full latent covariance.

    Draws from IW(prior_df + n, I + X X') as the inverse of a Wishart
    variate, and returns it in correlation form along with the diagonal
    scale factors, which the caller must also apply to the latent rows
    (divide row i by factors[i]) to keep the joint state consistent; only
    ranks are identified, so this is pure gauge fixing.
    """
    r, n = x.shape
    df = cfg.prior_df(r) + n
    scale = np.eye(r) + x @ x.T
    l_g = cholesky((scale + scale.T) / 2.0).lower
    # f f' = inv(scale); any square root works for the Bartlett construction
    f = np.linalg.solve(l_g.T, np.eye(r))
    m = f @ _bartlett_lower(rng, df, r)
    wishart_draw = m @ m.T
    sigma = chol_inverse(cholesky((wishart_draw + wishart_draw.T) / 2.0))
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return SpdMatrix(corr), d


def run_copula_chain(table: MixedDataTable, query: list[str],
                     hyper: HyperParams | None = None,
                     cfg: CopulaConfig | None = None,
                     rng: RngStream | None = None) -> ChainOutput:
    """Blanket inference on mixed data through the latent Gaussian layer.

    Runs the same chain driver as :func:`bmb.sampler.run_chain`; each
    iteration first refreshes the latent rows and their correlation, then
    sweeps the blanket against the scatter of the refreshed rows.
    """
    hyper = hyper if hyper is not None else HyperParams()
    cfg = cfg if cfg is not None else CopulaConfig()
    rng = rng if rng is not None else RngStream(cfg.chain.seed)

    query_idx, other_idx = split_query(table.names, query)
    ordered = table.reordered(query_idx + other_idx)
    p = len(query_idx)
    bounds = compute_bounds(ordered)
    x = init_latent(bounds, ordered.n)
    sigma = SpdMatrix(np.eye(ordered.r))

    def step(state: BlanketState, timings: dict) -> tuple[int, PartitionedCov]:
        nonlocal sigma
        t0 = time.perf_counter()
        sample_latent(x, sigma, bounds, rng)
        t1 = time.perf_counter()
        sigma, d = sample_sigma_full(x, cfg, rng)
        np.divide(x, d[:, None], out=x)
        t2 = time.perf_counter()
        timings["latent"] = timings.get("latent", 0.0) + (t1 - t0)
        timings["sigma"] = timings.get("sigma", 0.0) + (t2 - t1)

        # x2 is a view of the latent rows: this iteration's sweeps read it
        # before the next latent sweep rewrites x.
        cov = PartitionedCov.from_rows(x, p, ordered.n, ordered.names[:p],
                                       ordered.names[p:])
        prec = build_structured_precision(cov.s22, cov.x2, p)
        mh = 0
        for _ in range(cfg.inner_sweeps_per_outer):
            mh += gibbs_sweep(rng, state, cov, prec, hyper, cfg.chain, timings)
        return mh, cov

    return _drive(step, p, len(other_idx), hyper.gamma, cfg.chain, "outer")
