"""Blockwise Gibbs sampler for the Markov-blanket precision blocks.

The posterior over the query-variable precision block ``W11`` (p x p), the
cross block ``W12`` (p x q), and the per-entry shrinkage scales ``T`` is
explored with a three-phase sweep:

1. scales   -- conjugate inverse-Gaussian update, one draw per entry,
2. ``W12``  -- a joint Gaussian draw of all p*q entries, by one of two
   exact methods chosen once per chain (see below),
3. ``W11``  -- a matrix generalized-inverse-Gaussian draw via the random
   continued fraction in :func:`bmb.rng.sample_mgig`.

The conditional precision of ``vec(W12)`` is C = inv(W11) (x) K + D with
K = S22 + I and D diagonal.  The dense method factors C through a
structured Cholesky factor (:func:`structured_chol`) that reuses the
factor of K computed once per chain; it costs about (pq)^3/3 + 2pq^3 flop
per draw.  When the scatter comes from n < q columns, S22 = X2 X2', so C
is a block-diagonal matrix plus a rank-pn term, and the low-rank method
draws by perturbation and solves by Woodbury for about p^2 q n^2 +
(pn)^3/3 flop, linear in q.  :func:`build_structured_precision` picks the
cheaper method by these counts.

The remaining block of the full precision matrix (the Schur complement of
``W11``) never has to be sampled: it is independent of the blanket blocks
in the posterior, so the sweep above is a complete sampler for the
quantities of interest.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidParameter
from .linalg import PartitionedCov, _chol_lower, chol_inverse, chol_solve, cholesky
from .rng import MgigParams, RngStream, sample_inverse_gaussian, sample_mgig

logger = logging.getLogger(__name__)

# Entries of W12 are clamped away from zero before the scale update so the
# inverse-Gaussian mean stays finite.
_ABS_W_FLOOR = 1e-12

# Ridge added to W12 (S22+I) W21 when it does not factor, which needs W12 of
# rank below p: always when q < p, or a W12 = 0 from a caller.  A sweep
# draws W12 before W11, so the chain's first W11 draw sees a non-zero W12.
_B_RIDGE = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Shrinkage hyperparameter for the blanket prior.

    ``gamma`` controls the exponential tails of the scale mixture on the
    W12 entries; larger values shrink the off-block entries harder.
    """

    gamma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidParameter(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class ChainConfig:
    """Run-length and tolerance knobs for a single Gibbs chain."""

    burn_in: int = 300
    samples: int = 700
    thin: int = 1
    seed: int = 0
    mgig_tol: float = 1e-9
    mgig_max_iter: int = 100

    def __post_init__(self):
        if self.burn_in < 0:
            raise InvalidParameter("burn_in must be >= 0")
        if self.samples <= 0:
            raise InvalidParameter("samples must be positive")
        if self.thin < 1:
            raise InvalidParameter("thin must be >= 1")
        if self.mgig_tol <= 0 or self.mgig_max_iter < 1:
            raise InvalidParameter("bad continued-fraction settings")

    @property
    def total_sweeps(self) -> int:
        return self.burn_in + self.samples * self.thin


@dataclass
class BlanketState:
    """Current position of one chain: the two blocks plus latent scales."""

    w11: np.ndarray
    w12: np.ndarray
    scales: np.ndarray


def initial_state(p: int, q: int) -> BlanketState:
    """Deterministic starting point: identity block, empty cross block."""
    if p < 1 or q < 1:
        raise InvalidParameter("need at least one query and one other variable")
    return BlanketState(np.eye(p), np.zeros((p, q)), np.ones((p, q)))


@dataclass(frozen=True)
class StructuredPrecision:
    """Per-chain constants for the dense W12 update.

    ``k`` is ``S22 + I`` and never changes within a chain, so its Cholesky
    factor ``l_k`` and that factor's inverse are computed once here and
    reused by every sweep.
    """

    k: np.ndarray
    l_k: np.ndarray
    l_k_inv: np.ndarray

    @property
    def q(self) -> int:
        return self.k.shape[0]

    def quad(self, w12: np.ndarray) -> np.ndarray:
        """``W12 K W21``."""
        return w12 @ self.k @ w12.T


@dataclass(frozen=True)
class LowRankPrecision:
    """Per-chain constants for the low-rank W12 update.

    ``x2`` is the q x n factor with ``S22 = x2 @ x2.T``, so that
    ``K = I + x2 @ x2.T``; nothing q x q is formed.
    """

    x2: np.ndarray

    @property
    def q(self) -> int:
        return self.x2.shape[0]

    def quad(self, w12: np.ndarray) -> np.ndarray:
        """``W12 K W21``, in O(pqn)."""
        t = w12 @ self.x2
        return w12 @ w12.T + t @ t.T


def build_structured_precision(
        s22: np.ndarray, x2: np.ndarray | None = None,
        p: int = 1) -> StructuredPrecision | LowRankPrecision:
    """Per-chain constants for the W12 update of p query variables.

    With ``x2`` (q x n, ``s22 == x2 @ x2.T``) and n < q, the low-rank
    method is used when its flop count, p^2 q n^2 + (pn)^3/3, is below the
    dense method's, (pq)^3/3 + 2pq^3.  Otherwise the dense constants are
    built from ``s22``.
    """
    k = np.asarray(s22, dtype=float)
    q = k.shape[0]
    if x2 is not None:
        n = x2.shape[1]
        dense = (p * q) ** 3 / 3.0 + 2.0 * p * q ** 3
        low_rank = p * p * q * n * n + (p * n) ** 3 / 3.0
        if n < q and low_rank < dense:
            return LowRankPrecision(x2=np.asarray(x2, dtype=float))
    k = (k + k.T) / 2.0 + np.eye(q)
    l_k = _chol_lower(k)
    l_k_inv = solve_triangular(l_k, np.eye(q), lower=True)
    return StructuredPrecision(k=k, l_k=l_k, l_k_inv=l_k_inv)


@dataclass(frozen=True)
class StructuredChol:
    """Cholesky factor of the W12 conditional precision, in two pieces.

    The conditional precision of ``vec(W12, row-major)`` is

        C = inv(W11) (x) K  +  blockdiag(D_1, ..., D_p),

    with K = S22 + I and D_i = diag(1 / scales[i]).  Writing K = L_K L_K',
    congruence by (I (x) L_K) reduces C to a middle matrix whose dense
    Cholesky factor is cheap relative to factoring C directly, because the
    K factor is shared by all p row blocks:

        C = (I (x) L_K) M (I (x) L_K)',   M = inv(W11) (x) I + blockdiag(Dt_i),

    where Dt_i = inv(L_K) D_i inv(L_K)'.  The overall lower factor is
    L = (I (x) L_K) L_M, lower triangular as a product of lower factors.
    For p = 1 it coincides with the dense factor of C by uniqueness.
    """

    l_k: np.ndarray
    l_m: np.ndarray
    p: int
    q: int

    def solve_lower(self, y: np.ndarray) -> np.ndarray:
        """Solve L x = y."""
        blocks = y.reshape(self.p, self.q)
        w = solve_triangular(self.l_k, blocks.T, lower=True).T.reshape(-1)
        return solve_triangular(self.l_m, w, lower=True)

    def solve_upper(self, y: np.ndarray) -> np.ndarray:
        """Solve L' x = y."""
        w = solve_triangular(self.l_m, y, lower=True, trans="T")
        blocks = w.reshape(self.p, self.q)
        out = solve_triangular(self.l_k, blocks.T, lower=True, trans="T").T
        return out.reshape(-1)


def structured_chol(prec: StructuredPrecision, w11: np.ndarray,
                    scales: np.ndarray) -> StructuredChol:
    """Factor the W12 conditional precision for the current (W11, scales)."""
    p = w11.shape[0]
    q = prec.q
    u = chol_inverse(cholesky(w11))
    mid = np.kron(u, np.eye(q))
    inv_scales = 1.0 / scales
    for i in range(p):
        dt = (prec.l_k_inv * inv_scales[i]) @ prec.l_k_inv.T
        mid[i * q:(i + 1) * q, i * q:(i + 1) * q] += dt
    l_m = _chol_lower((mid + mid.T) / 2.0)
    return StructuredChol(l_k=prec.l_k, l_m=l_m, p=p, q=q)


def sample_scales(rng: RngStream, w12: np.ndarray, gamma: float) -> np.ndarray:
    """Conjugate update of the latent scales given the cross block.

    The reciprocal of each scale is inverse-Gaussian with mean
    gamma / |w12_ij| and shape gamma^2.
    """
    absw = np.maximum(np.abs(w12), _ABS_W_FLOOR)
    inv = sample_inverse_gaussian(rng, gamma / absw, gamma * gamma)
    return 1.0 / np.asarray(inv, dtype=float)


def sample_w12(rng: RngStream, prec: StructuredPrecision | LowRankPrecision,
               w11: np.ndarray, scales: np.ndarray,
               s12: np.ndarray) -> np.ndarray:
    """Joint Gaussian draw of the cross block.

    vec(W12, row-major) has precision C (see :class:`StructuredChol`) and
    mean -inv(C) vec(S12, row-major).  The dense method draws p*q standard
    normals, the low-rank method p*q + p*n.
    """
    if isinstance(prec, LowRankPrecision):
        return _sample_w12_low_rank(rng, prec.x2, w11, scales, s12)
    p, q = s12.shape
    factor = structured_chol(prec, w11, scales)
    v = s12.reshape(-1)
    mean = -factor.solve_upper(factor.solve_lower(v))
    z = rng.gen.standard_normal(p * q)
    draw = mean + factor.solve_upper(z)
    return draw.reshape(p, q)


def _sample_w12_low_rank(rng: RngStream, x2: np.ndarray, w11: np.ndarray,
                         scales: np.ndarray, s12: np.ndarray) -> np.ndarray:
    """The W12 draw of :func:`sample_w12` for K = I + x2 x2', x2 q x n.

    With U = inv(W11) = L_U L_U', the precision splits as C = A + F F',
    where A = U (x) I + D is block diagonal in q blocks
    A_j = U + diag(1 / scales[:, j]) (one per column of W12), and
    F = L_U (x) x2.  The perturbation eta = A^(1/2) e1 + F e2 has
    covariance C (Papandreou & Yuille 2010), so inv(C) (eta - vec S12) is
    an exact draw.  The solve is by Woodbury (Bhattacharya, Chakraborty &
    Mallick 2016) through the pn x pn capacitance matrix
    I + F' inv(A) F = I + sum_j G_j (x) x_j x_j', G_j = L_U' inv(A_j) L_U,
    whose (k, l) block is x2' diag(G[:, k, l]) x2.
    """
    p, q = s12.shape
    n = x2.shape[1]
    u = chol_inverse(cholesky(w11))
    l_u = _chol_lower(u)
    a = np.repeat(u[None], q, axis=0)
    diag = np.arange(p)
    a[:, diag, diag] += 1.0 / scales.T
    r_inv = np.linalg.inv(_chol_lower(a))
    r_inv_t = np.swapaxes(r_inv, 1, 2)
    a_inv = r_inv_t @ r_inv
    v = r_inv @ l_u
    g = np.swapaxes(v, 1, 2) @ v

    cap = np.empty((p * n, p * n))
    for k in range(p):
        for l in range(k + 1):
            block = (x2.T * g[:, k, l]) @ x2
            cap[k * n:(k + 1) * n, l * n:(l + 1) * n] = block
            cap[l * n:(l + 1) * n, k * n:(k + 1) * n] = block
    cap[np.arange(p * n), np.arange(p * n)] += 1.0
    l_cap = _chol_lower(cap)

    z = rng.gen.standard_normal(p * q + p * n)
    e1 = z[:p * q].reshape(q, p)
    e2 = z[p * q:].reshape(p, n)
    # y = inv(A) (eta - vec S12), with inv(A) A^(1/2) e1 = R_j^-T e1_j per
    # block.  Arrays of shape (q, p) hold one block of W12 (a column) per row.
    y = _per_block(r_inv_t, e1) + _per_block(a_inv, (l_u @ e2 @ x2.T - s12).T)
    w = solve_triangular(l_cap, (l_u.T @ y.T @ x2).reshape(-1), lower=True)
    w = solve_triangular(l_cap, w, lower=True, trans="T").reshape(p, n)
    return (y - _per_block(a_inv, (l_u @ w @ x2.T).T)).T


def _per_block(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row j of the result is ``m[j] @ v[j]``."""
    return (m @ v[:, :, None])[:, :, 0]


def sample_w11(rng: RngStream, s11: np.ndarray,
               prec: StructuredPrecision | LowRankPrecision, w12: np.ndarray,
               n: int, tol: float = 1e-9,
               max_iter: int = 100) -> tuple[np.ndarray, bool]:
    """Matrix GIG draw of the query block given the cross block.

    The conditional density is det(W11)^(n/2)
    exp(-tr((S11+I) W11 + B inv(W11)) / 2) with B = W12 (S22+I) W21, an
    MGIG law of order -n/2 - 1.  B is only positive semidefinite (rank at
    most min(p, q), and zero when W12 is; a sweep draws W12 first, so the
    chain's W12 is not zero here), so when it does not factor, a tiny
    ridge keeps the parameterization valid without visibly moving the
    draw.  :class:`MgigParams` symmetrizes and factors
    A and B once each, and factors B first, so a B that needs the ridge
    fails before A is factored.

    Returns the draw and whether the MH fallback had to correct it.
    """
    p = w12.shape[0]
    lam = -0.5 * n - 1.0
    a = s11 + np.eye(p)
    b = prec.quad(w12)
    try:
        params = MgigParams(lam=lam, a=a, b=b)
    except InvalidParameter:
        # The order and A = S11 + I are valid by construction, so B failed.
        b = b + (_B_RIDGE * max(1.0, float(np.trace(b)) / p)) * np.eye(p)
        params = MgigParams(lam=lam, a=a, b=b)
    return sample_mgig(rng, params, tol=tol, max_iter=max_iter)


def gibbs_sweep(rng: RngStream, state: BlanketState, cov: PartitionedCov,
                prec: StructuredPrecision | LowRankPrecision,
                hyper: HyperParams,
                config: ChainConfig | None = None,
                timings: dict[str, float] | None = None) -> bool:
    """One full sweep (scales, then W12, then W11), updating state in place.

    Returns True when the W11 draw needed the MH correction.
    """
    cfg = config if config is not None else ChainConfig()
    t0 = time.perf_counter()
    state.scales = sample_scales(rng, state.w12, hyper.gamma)
    t1 = time.perf_counter()
    state.w12 = sample_w12(rng, prec, state.w11, state.scales, cov.s12)
    t2 = time.perf_counter()
    state.w11, mh = sample_w11(
        rng, cov.s11, prec, state.w12, cov.n,
        tol=cfg.mgig_tol, max_iter=cfg.mgig_max_iter,
    )
    t3 = time.perf_counter()
    if timings is not None:
        timings["scales"] = timings.get("scales", 0.0) + (t1 - t0)
        timings["w12"] = timings.get("w12", 0.0) + (t2 - t1)
        timings["w11"] = timings.get("w11", 0.0) + (t3 - t2)
    return mh


def log_posterior_unnorm(state: BlanketState, cov: PartitionedCov,
                         gamma: float) -> float:
    """Unnormalized log posterior of (W11, W12) at fixed scales.

    Used as a trace statistic and for gradient checks; constants and the
    scale-prior terms that do not involve the blocks are dropped.
    """
    a = cov.s11 + np.eye(cov.p)
    k = cov.s22 + np.eye(cov.q)
    factor = cholesky(state.w11)
    terms = 0.5 * cov.n * factor.logdet()
    terms -= 0.5 * float(np.sum(state.w11 * a))
    terms -= float(np.sum(state.w12 * cov.s12))
    w11_inv_w12 = chol_solve(factor, state.w12)
    terms -= 0.5 * float(np.sum(w11_inv_w12 * (state.w12 @ k)))
    terms -= 0.5 * float(np.sum(state.w12 * state.w12 / state.scales))
    return terms


@dataclass
class ChainOutput:
    """Retained draws and bookkeeping from one chain."""

    w11: np.ndarray
    w12: np.ndarray
    log_post: np.ndarray
    mh_corrected: int
    timings: dict[str, float]
    query_names: tuple[str, ...]
    other_names: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return self.w11.shape[0]


def _drive(step: Callable[[BlanketState, dict], tuple[int, PartitionedCov]],
           p: int, q: int, gamma: float, config: ChainConfig,
           unit: str) -> ChainOutput:
    """Iterate ``step`` over the schedule in ``config`` and keep its draws.

    ``step(state, timings)`` is one iteration: it advances the state in
    place, adds its phase times to ``timings``, and returns the number of
    MH-corrected W11 draws and the scatter the state was last swept
    against, which scores a kept draw's log posterior.  ``unit`` names an
    iteration in the progress log.
    """
    state = initial_state(p, q)
    keep = config.samples
    w11_draws = np.empty((keep, p, p))
    w12_draws = np.empty((keep, p, q))
    log_post = np.empty(keep)
    timings: dict[str, float] = {}
    mh_count = 0
    kept = 0
    total = config.total_sweeps
    t_start = time.perf_counter()
    for it in range(1, total + 1):
        mh, cov = step(state, timings)
        mh_count += mh
        after_burn = it - config.burn_in
        if after_burn > 0 and after_burn % config.thin == 0:
            w11_draws[kept] = state.w11
            w12_draws[kept] = state.w12
            log_post[kept] = log_posterior_unnorm(state, cov, gamma)
            kept += 1
        if it % 100 == 0:
            logger.info("%s %d/%d (kept %d, mh %d)", unit, it, total, kept,
                        mh_count)
    timings["total"] = time.perf_counter() - t_start
    return ChainOutput(
        w11=w11_draws, w12=w12_draws, log_post=log_post,
        mh_corrected=mh_count, timings=timings,
        query_names=tuple(cov.query_names), other_names=tuple(cov.other_names),
    )


def run_chain(cov: PartitionedCov, hyper: HyperParams | None = None,
              config: ChainConfig | None = None,
              rng: RngStream | None = None) -> ChainOutput:
    """Run one Gibbs chain against a partitioned scatter matrix."""
    hyper = hyper if hyper is not None else HyperParams()
    config = config if config is not None else ChainConfig()
    rng = rng if rng is not None else RngStream(config.seed)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)

    def step(state: BlanketState, timings: dict) -> tuple[int, PartitionedCov]:
        return gibbs_sweep(rng, state, cov, prec, hyper, config, timings), cov

    return _drive(step, cov.p, cov.q, hyper.gamma, config, "sweep")
