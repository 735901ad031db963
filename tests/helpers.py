"""Small shared utilities for the test suite."""

import numpy as np


def make_spd(gen, dim, jitter=0.5):
    """Random well-conditioned SPD matrix."""
    a = gen.standard_normal((dim, dim))
    return a @ a.T + (dim * jitter) * np.eye(dim)


def rel_err(approx, exact):
    exact = np.asarray(exact, dtype=float)
    denom = max(float(np.linalg.norm(exact)), 1e-300)
    return float(np.linalg.norm(np.asarray(approx) - exact)) / denom


def ks_distance(draws, cdf):
    """Kolmogorov-Smirnov distance between draws and a callable CDF."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def quadrature_cdf(log_density, lo, hi, m=200001):
    """Trapezoid CDF of an unnormalized log density on [lo, hi]."""
    grid = np.linspace(lo, hi, m)
    dens = np.exp(log_density(grid) - np.max(log_density(grid)))
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(x, grid, cum, left=0.0, right=1.0)

    return cdf


def dense_factor(factor):
    """Materialize the structured factor L = (I (x) L_K) L_M."""
    return np.kron(np.eye(factor.p), factor.l_k) @ factor.l_m


def factor_logdet(factor):
    """log det C = 2 (p log det L_K + log det L_M) of a structured factor."""
    return 2.0 * (factor.p * float(np.sum(np.log(np.diag(factor.l_k))))
                  + float(np.sum(np.log(np.diag(factor.l_m)))))


def rank_groups(layout):
    """A variable's observed cell indices, one array per level, ascending."""
    return np.split(layout.order, layout.starts[1:])


def cell_bounds(bounds, x):
    """Numeric (lo, hi) of every cell of latent rows x, level by level."""
    lo = np.full(x.shape, -np.inf)
    hi = np.full(x.shape, np.inf)
    for i, layout in enumerate(bounds.layouts):
        groups = rank_groups(layout)
        running_max = -np.inf
        for idx in groups:
            lo[i, idx] = running_max
            running_max = max(running_max, float(x[i, idx].max()))
        running_min = np.inf
        for idx in reversed(groups):
            hi[i, idx] = running_min
            running_min = min(running_min, float(x[i, idx].min()))
    return lo, hi


def satisfied_by(bounds, x):
    lo, hi = cell_bounds(bounds, x)
    return bool(np.all((x > lo) & (x < hi)))
