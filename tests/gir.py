"""Joint-distribution consistency harness for the blanket Gibbs sweep.

Compares two estimates of prior expectations of functions of
theta = (w11, w12, scales) for a single query variable (p = 1):

direct arm
    i.i.d. draws of theta from the prior, produced by exact rejection
    sampling (see :func:`draw_prior_core`).

chain arm
    a Markov chain that alternates a synthetic-data draw S | theta with
    one Gibbs sweep theta | S.  The Schur-complement block of the full
    precision matrix is drawn once and then held fixed; because the prior
    factorizes over that block, the stationary marginal of theta is still
    exactly the prior, provided every conditional update in the sweep is
    consistent with the joint density.  Test functions therefore must not
    look at S or at the fixed block.

Any mismatch between a sweep kernel and the joint shows up as drift of
the chain-arm averages away from the direct-arm averages, measured in
units of the combined Monte Carlo standard error.
"""

from __future__ import annotations

import numpy as np

from bmb.linalg import PartitionedCov
from bmb.rng import RngStream, sample_wishart
from bmb.sampler import (
    BlanketState,
    HyperParams,
    build_structured_precision,
    gibbs_sweep,
)

N_FUNCTIONS = 4


def test_functions(w11: np.ndarray, w12: np.ndarray,
                   scales: np.ndarray) -> np.ndarray:
    """Bounded-ish summaries of theta with finite prior variance.

    Accepts batched inputs: w11 of shape (m,), w12 and scales of shape
    (m, q) with q >= 2.  Returns an (m, 4) array.
    """
    return np.column_stack([
        np.log(w11),
        np.tanh(w12[:, 0]),
        np.log1p(w12[:, 0] ** 2 + w12[:, 1] ** 2),
        np.log1p(scales[:, 0] + scales[:, 1]),
    ])


def draw_prior_core(rng: RngStream, q: int, gamma: float,
                    size: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact i.i.d. draws of (w11, scales) from their joint prior, p = 1.

    After integrating the cross block out of the joint density, the
    (w11, scales) marginal is

        exp(-w/2) * w^(q/2) * prod_j (w + t_j)^(-1/2) * exp(-g^2 t_j / 2)

    up to normalization.  Proposing w ~ Exp(1/2) and t_j ~ Exp(g^2/2)
    and accepting with probability prod_j sqrt(w / (w + t_j)) <= 1 is a
    standard rejection scheme for exactly this density; for gamma near 1
    roughly a third of proposals are kept.
    """
    rate_t = gamma * gamma / 2.0
    out_w = np.empty(size)
    out_t = np.empty((size, q))
    have = 0
    while have < size:
        m = max(2 * (size - have), 1024)
        w = rng.gen.exponential(scale=2.0, size=m)
        t = rng.gen.exponential(scale=1.0 / rate_t, size=(m, q))
        accept = np.log(rng.gen.random(m)) < 0.5 * np.sum(
            np.log(w[:, None]) - np.log(w[:, None] + t), axis=1
        )
        w, t = w[accept], t[accept]
        take = min(w.size, size - have)
        out_w[have:have + take] = w[:take]
        out_t[have:have + take] = t[:take]
        have += take
    return out_w, out_t


def draw_prior(rng: RngStream, q: int, gamma: float,
               size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """i.i.d. prior draws of (w11, w12, scales), each batched over size."""
    w11, scales = draw_prior_core(rng, q, gamma, size)
    var = 1.0 / (1.0 / scales + 1.0 / w11[:, None])
    w12 = rng.gen.standard_normal((size, q)) * np.sqrt(var)
    return w11, w12, scales


def direct_arm(rng: RngStream, q: int, gamma: float,
               reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of the test functions under the prior."""
    w11, w12, scales = draw_prior(rng, q, gamma, reps)
    g = test_functions(w11, w12, scales)
    return g.mean(axis=0), g.std(axis=0, ddof=1) / np.sqrt(reps)


def chain_arm(rng: RngStream, q: int, gamma: float, n_obs: int,
              iters: int, n_batches: int = 100,
              data_rows: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Means and batch-means standard errors along the data-augmented chain.

    The chain starts from an exact prior draw, so there is no burn-in to
    discard; autocorrelation is absorbed by the batch-means error bars.
    With ``data_rows`` the scatter is drawn as n_obs Gaussian columns whose
    other-variable rows reach the sweep, so with n_obs < q the W12 draw
    takes the low-rank method; otherwise it is a Wishart draw.
    """
    if iters % n_batches != 0:
        raise ValueError("iters must split evenly into batches")
    w0, x0, t0 = draw_prior(rng, q, gamma, 1)
    state = BlanketState(
        w11=np.array([[w0[0]]]),
        w12=x0[0].reshape(1, q),
        scales=t0[0].reshape(1, q),
    )
    fixed_schur = sample_wishart(rng, q + 1.0, np.eye(q))
    hyper = HyperParams(gamma=gamma)

    g = np.empty((iters, N_FUNCTIONS))
    w_full = np.empty((1 + q, 1 + q))
    for it in range(iters):
        w11 = state.w11[0, 0]
        w12 = state.w12[0]
        w_full[0, 0] = w11
        w_full[0, 1:] = w12
        w_full[1:, 0] = w12
        w_full[1:, 1:] = fixed_schur + np.outer(w12, w12) / w11
        sigma = np.linalg.inv(w_full)
        sigma = (sigma + sigma.T) / 2.0
        if data_rows:
            x = np.linalg.cholesky(sigma) @ rng.gen.standard_normal(
                (1 + q, n_obs))
            cov = PartitionedCov.from_rows(x, 1, n_obs)
        else:
            s = sample_wishart(rng, float(n_obs), sigma)
            cov = PartitionedCov(s[:1, :1], s[:1, 1:], s[1:, 1:], n_obs)
        prec = build_structured_precision(cov.s22, cov.x2, cov.p)
        gibbs_sweep(rng, state, cov, prec, hyper)
        g[it] = test_functions(
            state.w11[:, 0], state.w12, state.scales
        )[0]

    batch_means = g.reshape(n_batches, iters // n_batches,
                            N_FUNCTIONS).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return g.mean(axis=0), se


def consistency_z_scores(seed: int, q: int = 2, gamma: float = 1.0,
                         n_obs: int = 5, reps: int = 20000,
                         iters: int = 20000,
                         data_rows: bool = False) -> np.ndarray:
    """z scores contrasting the direct and chain arms, one per function."""
    rng = RngStream(seed)
    mean_d, se_d = direct_arm(rng, q, gamma, reps)
    mean_c, se_c = chain_arm(rng, q, gamma, n_obs, iters,
                             data_rows=data_rows)
    return (mean_d - mean_c) / np.sqrt(se_d ** 2 + se_c ** 2)
