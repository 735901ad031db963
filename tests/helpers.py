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


# Oracles: the truncated-normal sampler, the level grouping and the latent
# sweep as first written (per-level scans, subset-by-subset draws, a rank-1
# update of every row), kept to check the vectorized code bit for bit.

_TAIL_Z = 4.0


def truncated_normal_oracle(rng, mu, sigma, lo, hi):
    """Normal draw(s) on (lo, hi), consuming ``rng`` as the library must."""
    from bmb.errors import EmptyInterval, InvalidParameter

    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lo_in = np.asarray(lo, dtype=float)
    hi_in = np.asarray(hi, dtype=float)
    if np.any(sigma <= 0):
        raise InvalidParameter("sigma must be positive")
    if np.any(~(lo_in < hi_in)):
        raise EmptyInterval("need lo < hi for every cell")
    scalar = mu.ndim == 0 and sigma.ndim == 0 and lo_in.ndim == 0 and hi_in.ndim == 0
    shape = np.broadcast_shapes(mu.shape, sigma.shape, lo_in.shape, hi_in.shape)
    mu, sigma, lo_b, hi_b = np.broadcast_arrays(mu, sigma, lo_in, hi_in)
    a = ((lo_b - mu) / sigma).ravel()
    b = ((hi_b - mu) / sigma).ravel()
    z = np.empty(a.shape)

    flip = b <= 0
    a_w = np.where(flip, -b, a)
    b_w = np.where(flip, -a, b)

    tail_free = (a_w >= _TAIL_Z) & np.isinf(b_w)
    bounded = ~tail_free
    if np.any(bounded):
        z[bounded] = _inverse_cdf_oracle(rng, a_w[bounded], b_w[bounded])
    if np.any(tail_free):
        z[tail_free] = _robert_tail_oracle(rng, a_w[tail_free])
    z = np.where(flip, -z, z)

    x = mu.ravel() + sigma.ravel() * z
    lo_open = np.nextafter(lo_b.ravel(), np.inf)
    hi_open = np.nextafter(hi_b.ravel(), -np.inf)
    x = np.clip(x, lo_open, hi_open)
    x = x.reshape(shape)
    if scalar:
        return float(x)
    return x


def _inverse_cdf_oracle(rng, a, b):
    from scipy.special import ndtr, ndtri

    z = np.empty(a.shape)
    u = rng.gen.random(a.shape)
    right = a >= 0
    if np.any(right):
        ar, br, ur = a[right], b[right], u[right]
        qa = ndtr(-ar)
        qb = np.where(np.isinf(br), 0.0, ndtr(-br))
        degenerate = qa <= 0.0
        mix = qb + ur * (qa - qb)
        with np.errstate(divide="ignore"):
            z_r = -ndtri(mix)
        if np.any(degenerate):
            ad, bd = ar[degenerate], br[degenerate]
            ud = ur[degenerate]
            span = np.where(np.isinf(bd), np.inf, bd - ad)
            cdf_top = np.where(np.isinf(span), 1.0, -np.expm1(-ad * span))
            z_r[degenerate] = ad - np.log1p(-ud * cdf_top) / ad
        z[right] = z_r
    center = ~right
    if np.any(center):
        ac, bc = a[center], b[center]
        pa = ndtr(ac)
        pb = ndtr(bc)
        z[center] = ndtri(pa + u[center] * (pb - pa))
    return z


def _robert_tail_oracle(rng, a):
    out = np.empty(a.shape)
    todo = np.ones(a.shape, dtype=bool)
    alpha = (a + np.sqrt(a**2 + 4.0)) / 2.0
    while np.any(todo):
        m = int(todo.sum())
        cand = a[todo] + rng.gen.exponential(1.0, size=m) / alpha[todo]
        accept = rng.gen.random(m) <= np.exp(-0.5 * (cand - alpha[todo]) ** 2)
        idx = np.flatnonzero(todo)[accept]
        out[idx] = cand[accept]
        todo[idx] = False
    return out


def level_layout_oracle(row):
    """(order, starts, sizes) of one variable by one scan per level."""
    obs = ~np.isnan(row)
    groups = [np.flatnonzero(obs & (row == level))
              for level in np.unique(row[obs])]
    sizes = np.array([g.size for g in groups], dtype=np.intp)
    order = (np.concatenate(groups) if groups
             else np.empty(0, dtype=np.intp))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    return order, starts, sizes


def sample_latent_oracle(x, sigma, bounds, rng):
    """One latent sweep in place, with the per-row rank-1 update of p_mat."""
    from bmb.linalg import chol_inverse

    r = x.shape[0]
    omega = chol_inverse(sigma.factor())
    p_mat = omega @ x
    for i in range(r):
        w_ii = omega[i, i]
        cond_sd = float(np.sqrt(1.0 / w_ii))
        mean = x[i] - p_mat[i] / w_ii
        old_row = x[i].copy()
        layout = bounds.layouts[i]
        groups = rank_groups(layout)
        g_count = len(groups)
        vals = x[i][layout.order]
        gmax = np.maximum.reduceat(vals, layout.starts)
        gmin = np.minimum.reduceat(vals, layout.starts)
        for parity in (0, 1):
            sel = np.arange(parity, g_count, 2)
            if sel.size == 0:
                continue
            sizes = layout.sizes[sel]
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
            cells = np.concatenate([groups[g] for g in sel])
            lo = np.where(sel > 0, gmax[np.maximum(sel - 1, 0)], -np.inf)
            hi = np.where(sel < g_count - 1,
                          gmin[np.minimum(sel + 1, g_count - 1)], np.inf)
            draw = np.asarray(truncated_normal_oracle(
                rng, mean[cells], cond_sd,
                np.repeat(lo, sizes), np.repeat(hi, sizes)))
            x[i, cells] = draw
            gmax[sel] = np.maximum.reduceat(draw, starts)
            gmin[sel] = np.minimum.reduceat(draw, starts)
        miss = bounds.missing[i]
        if miss.size:
            x[i, miss] = mean[miss] + cond_sd * rng.gen.standard_normal(miss.size)
        delta = x[i] - old_row
        if np.any(delta != 0.0):
            p_mat += np.outer(omega[:, i], delta)
