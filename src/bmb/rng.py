"""Seedable random streams and the distribution samplers the chain needs.

The matrix generalized inverse Gaussian (MGIG) sampler is the one
non-standard piece.  Everything here parameterizes the MGIG through the
density

    p(M; lam, A, B)  propto  det(M)^(-lam-1) * exp tr(-(A M + B M^-1) / 2)

on the symmetric positive definite cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    EmptyInterval,
    InvalidDegreesOfFreedom,
    InvalidParameter,
    NonConvergence,
    NotPositiveDefinite,
)
from .linalg import _chol_lower, cholesky, chol_solve

_TAIL_Z = 4.0  # standardized bound beyond which tail strategies kick in


class RngStream:
    """Deterministic random stream with spawnable sub-streams.

    Same seed gives a bit-identical draw sequence on a fixed numpy build.
    ``split(k)`` derives k child streams whose sequences are distinct from
    each other and from the parent's remaining output.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self.gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, k: int) -> list["RngStream"]:
        if k < 1:
            raise InvalidParameter("split count must be >= 1")
        return [RngStream(self.seed, _seq=child) for child in self._seq.spawn(k)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, key={self._seq.spawn_key})"


def sample_wishart(rng: RngStream, df: float, scale: np.ndarray) -> np.ndarray:
    """Wishart draw via the Bartlett decomposition.

    Parameters
    ----------
    rng : RngStream
    df : float
        Degrees of freedom, must exceed dim - 1.
    scale : ndarray
        SPD scale matrix; the draw has mean ``df * scale``.
    """
    scale = np.asarray(scale, dtype=float)
    scale = (scale + scale.T) / 2.0
    d = scale.shape[0]
    if df <= d - 1:
        raise InvalidDegreesOfFreedom(f"df={df} must exceed dim-1={d - 1}")
    lower = cholesky(scale).lower
    a = _bartlett_lower(rng, df, d)
    f = lower @ a
    w = f @ f.T
    return (w + w.T) / 2.0


def _bartlett_lower(rng: RngStream, df: float, d: int) -> np.ndarray:
    a = np.zeros((d, d))
    idx = np.tril_indices(d, k=-1)
    if idx[0].size:
        a[idx] = rng.gen.standard_normal(idx[0].size)
    chis = rng.gen.chisquare(df - np.arange(d))
    np.fill_diagonal(a, np.sqrt(chis))
    return a


def sample_inverse_gaussian(rng: RngStream, mu, shape):
    """Inverse Gaussian draw(s) via the Michael-Schucany-Haas transform.

    ``mu`` and ``shape`` broadcast; the return matches the broadcast shape
    (a float for scalar inputs).  All draws are strictly positive.
    """
    mu = np.asarray(mu, dtype=float)
    shape = np.asarray(shape, dtype=float)
    if np.any(mu <= 0) or np.any(shape <= 0):
        raise InvalidParameter("inverse Gaussian needs mu > 0 and shape > 0")
    out_shape = np.broadcast_shapes(mu.shape, shape.shape)
    nu = rng.gen.standard_normal(out_shape)
    s = mu * nu**2
    # Rearranged to avoid the catastrophic cancellation of the textbook
    # formula at large mu: x = 4 mu lam s / (s + sqrt(s (s + 4 lam)))^2.
    with np.errstate(over="ignore"):
        root = np.sqrt(s * (s + 4.0 * shape))
        big = ~np.isfinite(root)
        if np.any(big):
            root = np.where(big, s * np.sqrt(1.0 + 4.0 * shape / s), root)
    r = s + root
    x = np.where(s > 0, 4.0 * mu * shape * s / r**2, mu)
    u = rng.gen.random(out_shape)
    x = np.where(u <= mu / (mu + x), x, mu**2 / x)
    if x.ndim == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class MgigParams:
    """Order and matrix pair of the MGIG density, checked and factored once.

    ``a`` and ``b`` are symmetrized, and their lower Cholesky factors, the
    check that ``b`` is SPD, are kept for :func:`sample_mgig`.  A positive
    semi-definite ``a`` whose factor fails is only integrable for
    lam > dim - 1; an eigendecomposition checks that, and ``a_lower``
    then factors ``a`` plus a tiny ridge.  Orders 0 <= lam <= dim - 1
    have no continued-fraction route and are rejected.
    """

    lam: float
    a: np.ndarray
    b: np.ndarray
    a_lower: np.ndarray = field(init=False, repr=False, compare=False)
    b_lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        p = a.shape[0]
        if a.shape != (p, p) or b.shape != (p, p):
            raise InvalidParameter("a and b must be square with matching dims")
        lam = float(self.lam)
        if 0.0 <= lam <= p - 1:
            raise InvalidParameter(f"no continued-fraction route for order "
                                   f"{lam} in [0, dim-1 = {p - 1}]")
        a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
        # b first: a caller that retries with a ridged b has not factored a.
        try:
            b_lower = _chol_lower(b)
        except NotPositiveDefinite as exc:
            raise InvalidParameter(f"b must be SPD: {exc}") from exc
        try:
            a_lower = _chol_lower(a)
        except NotPositiveDefinite:
            eig = np.linalg.eigvalsh(a)
            scale = max(float(eig[-1]), 1.0)
            if eig[0] < -1e-10 * scale:
                raise InvalidParameter(
                    f"a has negative eigenvalue {eig[0]:.3e}")
            if eig[0] <= 1e-12 * scale and not lam > p - 1:
                raise InvalidParameter(f"singular a needs order lam > dim-1 "
                                       f"(got lam={lam}, dim={p})")
            a_lower = _ridged_chol(a)
        for name, value in (("lam", lam), ("a", a), ("b", b),
                            ("a_lower", a_lower), ("b_lower", b_lower)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _ridged_chol(m: np.ndarray) -> np.ndarray:
    """Cholesky factor, adding an escalating 1e-12-scale ridge if needed."""
    ridge = 1e-12 * max(1.0, float(np.mean(np.diag(m))))
    for _ in range(8):
        try:
            return _chol_lower(m)
        except NotPositiveDefinite:
            m = m + ridge * np.eye(m.shape[0])
            ridge *= 100.0
    raise NonConvergence("could not regularize matrix to SPD for sampling")


def _mgig_logpdf_unnorm(m: np.ndarray, params: MgigParams) -> float:
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        return -np.inf
    inv = chol_solve(cholesky(m), np.eye(m.shape[0]))
    return (
        (-params.lam - 1.0) * logdet
        - 0.5 * float(np.sum(params.a * m))
        - 0.5 * float(np.sum(params.b * inv))
    )


def _cf_scalar(rng: RngStream, nu: float, a: float, b: float, tol: float,
               max_iter: int) -> tuple[float, bool]:
    """Scalar continued fraction; returns (value, converged)."""
    g11, g12, g21, g22 = 1.0, 0.0, 0.0, 1.0
    prev = None
    level = 0
    chunk = 24
    while level < max_iter:
        take = min(chunk, max_iter - level)
        ya_block = rng.gen.chisquare(nu, size=take) / a
        yb_block = rng.gen.chisquare(nu, size=take) / b
        for j in range(take):
            ya = ya_block[j]
            yb = yb_block[j]
            g11, g12 = g11 + g12 * yb, (g11 + g12 * yb) * ya + g12
            g21, g22 = g21 + g22 * yb, (g21 + g22 * yb) * ya + g22
            norm = max(abs(g11), abs(g12), abs(g21), abs(g22))
            g11, g12, g21, g22 = g11 / norm, g12 / norm, g21 / norm, g22 / norm
            level += 1
            cur = (g11 + g12) / (g21 + g22)
            if prev is not None and abs(cur - prev) <= tol * max(abs(cur), 1e-300):
                return cur, True
            prev = cur
    return prev, False


def _bartlett_block(rng: RngStream, df: float, d: int, m: int) -> np.ndarray:
    """Stack of m Bartlett lower factors, drawn in bulk."""
    a = np.zeros((m, d, d))
    tril = np.tril_indices(d, k=-1)
    if tril[0].size:
        a[:, tril[0], tril[1]] = rng.gen.standard_normal((m, tril[0].size))
    chis = rng.gen.chisquare(df - np.arange(d), size=(m, d))
    a[:, np.arange(d), np.arange(d)] = np.sqrt(chis)
    return a


def _cf_matrix(rng: RngStream, nu: float, fa: np.ndarray, fb: np.ndarray,
               p: int, tol: float, max_iter: int) -> tuple[np.ndarray, bool]:
    """Matrix continued fraction, evaluated backward at doubling depths.

    ``fa`` and ``fb`` satisfy fa @ fa.T = inv(A) and fb @ fb.T = inv(B), so
    each level nests one Wishart(nu, inv(A)) and one Wishart(nu, inv(B))
    summand.  Levels are drawn once and kept; the nest is re-evaluated from
    the inside out whenever the depth doubles, which keeps every
    intermediate an SPD sum (no cancellation as the fraction converges).
    """
    eye = np.eye(p)
    ya_levels = np.empty((0, p, p))
    yb_levels = np.empty((0, p, p))

    def extend(count: int):
        nonlocal ya_levels, yb_levels
        ta = fa @ _bartlett_block(rng, nu, p, count)
        tb = fb @ _bartlett_block(rng, nu, p, count)
        ya_levels = np.concatenate([ya_levels, ta @ ta.transpose(0, 2, 1)])
        yb_levels = np.concatenate([yb_levels, tb @ tb.transpose(0, 2, 1)])

    def evaluate(depth: int) -> np.ndarray:
        z = eye
        for j in range(depth - 1, -1, -1):
            z = np.linalg.inv(ya_levels[j] + z)
            z = np.linalg.inv(yb_levels[j] + z)
            z = (z + z.T) / 2.0
        return z

    extend(1)
    prev = evaluate(1)
    depth = 1
    while depth < max_iter:
        new_depth = min(2 * depth, max_iter)
        extend(new_depth - depth)
        depth = new_depth
        cur = evaluate(depth)
        delta = np.linalg.norm(cur - prev) / max(np.linalg.norm(cur), 1e-300)
        if delta <= tol:
            return cur, True
        prev = cur
    return prev, False


def sample_mgig(
    rng: RngStream,
    params: MgigParams,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> tuple[np.ndarray, bool]:
    """Draw from the MGIG law via a random Wishart continued fraction.

    The fraction alternates Wishart(nu, inv(A)) and Wishart(nu, inv(B))
    summands with nu = 2 lam - dim + 1, the degree for which one double step
    leaves the target law invariant.  Orders with lam < 0 are drawn through
    the inverse parameterization (which restores nu > dim - 1), from the
    factors :class:`MgigParams` computed as its check.  Deepening stops once
    successive evaluations agree to ``tol`` in relative Frobenius norm; if
    ``max_iter`` levels do not converge, one independence Metropolis-Hastings
    step with a moment-matched Wishart proposal corrects the draw.

    Returns
    -------
    (draw, mh_corrected) : (ndarray, bool)
        An SPD matrix and whether the MH fallback had to fire.
    """
    p = params.dim
    invert = params.lam < 0
    lam_cf = p - 1 - params.lam if invert else params.lam
    cf = [(params.a, params.a_lower), (params.b, params.b_lower)]
    (a_cf, a_lower), (b_cf, b_lower) = cf[::-1] if invert else cf

    nu = 2.0 * lam_cf - p + 1.0
    if p == 1:
        val, converged = _cf_scalar(
            rng, nu, float(a_cf[0, 0]), float(b_cf[0, 0]), tol, max_iter
        )
        cur = np.array([[val]])
    else:
        # fa @ fa.T = inv(A) from A = L L', and likewise fb for B.
        fa = solve_triangular(a_lower, np.eye(p), lower=True, trans="T")
        fb = solve_triangular(b_lower, np.eye(p), lower=True, trans="T")
        cur, converged = _cf_matrix(rng, nu, fa, fb, p, tol, max_iter)

    if invert:
        # The factor that inverts the draw is its SPD check: the inverse of
        # an SPD matrix is SPD, so it is not factored a second time.
        try:
            cur = chol_solve(cholesky(cur), np.eye(p))
            cur = (cur + cur.T) / 2.0
        except NotPositiveDefinite:
            converged = False
            cur = None
    elif converged:
        try:
            cholesky(cur)
        except NotPositiveDefinite:
            converged = False

    if converged:
        return cur, False

    if cur is None:
        cur = np.eye(p)
    draw = _mh_correct(rng, cur, params)
    return draw, True


def _mh_correct(rng: RngStream, current: np.ndarray,
                params: MgigParams) -> np.ndarray:
    """One independence MH step with a Wishart proposal centered at current."""
    p = params.dim
    try:
        cholesky(current)
    except NotPositiveDefinite:
        current = np.eye(p)
    df = p + 2.0 + 2.0 * abs(params.lam)
    v_lower = _ridged_chol(current / df)
    v_spd = v_lower @ v_lower.T
    v_factor = cholesky(v_spd)
    prop = sample_wishart(rng, df, v_spd)

    def log_q(m: np.ndarray) -> float:
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0:
            return -np.inf
        tr = float(np.sum(chol_solve(v_factor, m).diagonal()))
        return 0.5 * (df - p - 1.0) * logdet - 0.5 * tr

    log_alpha = (
        _mgig_logpdf_unnorm(prop, params)
        - _mgig_logpdf_unnorm(current, params)
        + log_q(current)
        - log_q(prop)
    )
    out = prop if np.log(rng.gen.random()) < log_alpha else current
    try:
        cholesky(out)
    except NotPositiveDefinite as exc:
        raise NonConvergence(
            "MGIG sampler failed to produce an SPD draw even after the "
            "MH fallback"
        ) from exc
    return out


def sample_truncated_normal(rng: RngStream, mu, sigma, lo, hi):
    """Normal draw(s) conditioned on the interval (lo, hi).

    Central and bounded intervals use inverse-CDF sampling (upper-tail
    coordinates when the interval sits on one side of the mean, so precision
    survives far from zero); one-sided intervals beyond 4 standard
    deviations use Robert's exponential rejection.  Inputs broadcast; the
    result is strictly inside the bounds.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(sigma <= 0):
        raise InvalidParameter("sigma must be positive")
    scalar = mu.ndim == 0 and sigma.ndim == 0 and lo.ndim == 0 and hi.ndim == 0
    mu, sigma, lo, hi = np.broadcast_arrays(mu, sigma, lo, hi)
    x = _truncnorm_flat(rng, mu.ravel(), sigma.ravel(), lo.ravel(),
                        hi.ravel()).reshape(mu.shape)
    if scalar:
        return float(x)
    return x


def _truncnorm_flat(rng: RngStream, mu: np.ndarray, sigma, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Truncated-normal draws on flat arrays; the sampling core.

    ``mu``, ``lo`` and ``hi`` are 1-D arrays of one length and ``sigma`` is
    a positive scalar or such an array; nothing is broadcast or reshaped.
    Raises :class:`EmptyInterval` unless lo < hi in every cell, which also
    rejects NaN bounds.  The bounded cells take one uniform each, then the
    tail cells run Robert's rejection; the result is clipped strictly
    inside (lo, hi).
    """
    if not (lo < hi).all():
        raise EmptyInterval("need lo < hi for every cell")
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    # Intervals below the mean are drawn mirrored, as intervals above it.
    flip = b <= 0
    a_w = np.where(flip, -b, a)
    b_w = np.where(flip, -a, b)
    tail = (a_w >= _TAIL_Z) & np.isinf(b_w)
    if tail.any():
        bounded = ~tail
        z = np.empty(a.shape)
        if bounded.any():
            z[bounded] = _truncnorm_inverse_cdf(rng, a_w[bounded],
                                                b_w[bounded])
        z[tail] = _robert_tail(rng, a_w[tail])
    else:
        z = _truncnorm_inverse_cdf(rng, a_w, b_w)
    np.negative(z, out=z, where=flip)
    x = mu + sigma * z
    np.maximum(x, np.nextafter(lo, np.inf), out=x)
    np.minimum(x, np.nextafter(hi, -np.inf), out=x)
    return x


def _truncnorm_inverse_cdf(rng: RngStream, a: np.ndarray,
                           b: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws on standardized intervals (a, b) with b > 0.

    Intervals with a >= 0 are drawn in upper-tail coordinates, the others
    by the plain CDF; both formulas run over every cell and each cell keeps
    its own.
    """
    # Imported here so that commands other than fit-copula never load
    # scipy.special.
    from scipy.special import ndtr, ndtri

    u = rng.gen.random(a.shape)
    right = a >= 0  # interval on one side: use upper-tail coordinates
    qa = ndtr(-a)
    qb = ndtr(-b)  # exactly 0 for b = +inf
    with np.errstate(divide="ignore"):
        z_r = -ndtri(qb + u * (qa - qb))
    degenerate = qa <= 0.0  # never for a < 0, where qa > 1/2
    if degenerate.any():
        # Beyond ~37 sigma the tail is numerically exponential.
        ad, bd = a[degenerate], b[degenerate]
        ud = u[degenerate]
        span = np.where(np.isinf(bd), np.inf, bd - ad)
        cdf_top = np.where(np.isinf(span), 1.0, -np.expm1(-ad * span))
        z_r[degenerate] = ad - np.log1p(-ud * cdf_top) / ad
    if right.all():
        return z_r
    pa = ndtr(a)
    pb = ndtr(b)
    return np.where(right, z_r, ndtri(pa + u * (pb - pa)))


def _robert_tail(rng: RngStream, a: np.ndarray) -> np.ndarray:
    """Exponential-rejection draws from the standardized tail [a, inf)."""
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
