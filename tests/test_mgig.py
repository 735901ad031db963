import numpy as np
import pytest

from bmb.linalg import _chol_lower
from bmb.rng import MgigParams, RngStream, sample_mgig
from bmb.errors import InvalidParameter
from helpers import ks_distance, make_spd, quadrature_cdf


def _mgig_scalar_cdf(lam, a, b, hi=400.0):
    def logpdf(x):
        with np.errstate(divide="ignore"):
            return (-lam - 1.0) * np.log(x) - 0.5 * (a * x + b / x)

    return quadrature_cdf(logpdf, 1e-9, hi, m=400001)


def test_params_validation():
    with pytest.raises(InvalidParameter):
        MgigParams(lam=1.0, a=np.eye(2), b=np.zeros((2, 2)))
    with pytest.raises(InvalidParameter):
        MgigParams(lam=1.0, a=np.eye(2), b=np.eye(3))
    with pytest.raises(InvalidParameter):
        # a singular, order too small for integrability
        MgigParams(lam=0.5, a=np.zeros((2, 2)), b=np.eye(2))
    ok = MgigParams(lam=2.5, a=np.zeros((2, 2)), b=np.eye(2))
    assert ok.dim == 2
    # The same checks at an order outside the band 0 <= lam <= dim-1.
    with pytest.raises(InvalidParameter, match="b must be SPD"):
        MgigParams(lam=-1.0, a=np.eye(2), b=np.zeros((2, 2)))
    with pytest.raises(InvalidParameter, match="singular a"):
        MgigParams(lam=-1.0, a=np.zeros((2, 2)), b=np.eye(2))
    with pytest.raises(InvalidParameter, match="negative eigenvalue"):
        MgigParams(lam=-1.0, a=np.diag([1.0, -1.0]), b=np.eye(2))


def test_params_symmetrize_and_keep_the_factors_they_check(gen):
    a, b = make_spd(gen, 3), make_spd(gen, 3)
    a_skew = a.copy()
    a_skew[0, 1] += 1e-14
    params = MgigParams(lam=-4.0, a=a_skew, b=b)
    assert np.array_equal(params.a, params.a.T)
    assert np.array_equal(params.a_lower, _chol_lower(params.a))
    assert np.array_equal(params.b_lower, _chol_lower(b))
    # A singular a (allowed for lam > dim-1) is factored with a ridge.
    singular = MgigParams(lam=2.5, a=np.zeros((2, 2)), b=np.eye(2))
    ell = singular.a_lower
    assert np.all(np.diag(ell) > 0)
    assert np.allclose(ell @ ell.T, 0.0, atol=1e-10)


def test_draws_are_spd_and_deterministic(gen):
    params = MgigParams(lam=-4.0, a=make_spd(gen, 3), b=make_spd(gen, 3))
    m1, f1 = sample_mgig(RngStream(11), params)
    m2, _ = sample_mgig(RngStream(11), params)
    assert np.array_equal(m1, m2)
    assert np.all(np.linalg.eigvalsh(m1) > 0)
    assert np.array_equal(m1, m1.T)
    assert isinstance(f1, bool)


def test_dim1_negative_order_matches_quadrature(rng):
    # Fast version of the acceptance check; loose tolerance at 5000 draws.
    lam, a, b = -3.0, 2.0, 1.5
    params = MgigParams(lam=lam, a=np.array([[a]]), b=np.array([[b]]))
    x = np.array([sample_mgig(rng, params)[0][0, 0] for _ in range(5000)])
    assert ks_distance(x, _mgig_scalar_cdf(lam, a, b)) < 0.03


def test_dim1_positive_order_matches_quadrature(rng):
    lam, a, b = 2.0, 1.0, 2.0
    params = MgigParams(lam=lam, a=np.array([[a]]), b=np.array([[b]]))
    x = np.array([sample_mgig(rng, params)[0][0, 0] for _ in range(5000)])
    assert ks_distance(x, _mgig_scalar_cdf(lam, a, b)) < 0.03


def test_inversion_closure_dim1(rng):
    # X ~ MGIG(lam, a, b) implies 1/X ~ MGIG(-lam, b, a) in this convention.
    lam, a, b = -2.0, 1.3, 0.9
    params = MgigParams(lam=lam, a=np.array([[a]]), b=np.array([[b]]))
    inv = np.array([1.0 / sample_mgig(rng, params)[0][0, 0]
                    for _ in range(5000)])
    assert ks_distance(inv, _mgig_scalar_cdf(-lam, b, a)) < 0.03


def test_mid_band_order_is_rejected(gen):
    # No continued-fraction route exists for 0 <= lam <= dim-1.
    for lam, dim in [(0.5, 2), (0.0, 2), (1.0, 2), (2.0, 3), (0.0, 1)]:
        with pytest.raises(InvalidParameter, match="no continued-fraction"):
            MgigParams(lam=lam, a=make_spd(gen, dim), b=make_spd(gen, dim))
    for lam, dim in [(-0.5, 2), (1.5, 2), (-1e-9, 1), (1e-9, 1)]:
        assert MgigParams(lam=lam, a=make_spd(gen, dim),
                          b=make_spd(gen, dim)).dim == dim


def test_matrix_route_mean_against_importance_sampling(gen):
    # Independent dim-2 oracle.  A Wishart(p - 1 - 2 lam, inv(A)) proposal
    # matches both the determinant power and the tr(AX) factor of the
    # target, leaving importance weights exp(-tr(B X^-1)/2) <= 1, so the
    # weighted mean is safe (no unbounded-weight tail risk).
    lam = -3.0
    a, b = make_spd(gen, 2), make_spd(gen, 2)
    params = MgigParams(lam=lam, a=a, b=b)
    rng = RngStream(17)
    cf = np.mean([sample_mgig(rng, params)[0] for _ in range(4000)], axis=0)

    from bmb.rng import sample_wishart

    rng_is = RngStream(123)
    df = 2 - 1 - 2 * lam
    inv_a = np.linalg.inv(a)
    xs = np.stack([sample_wishart(rng_is, df, inv_a) for _ in range(100000)])
    logw = -0.5 * np.einsum("ij,nji->n", b, np.linalg.inv(xs))
    w = np.exp(logw - logw.max())
    ess = w.sum() ** 2 / (w**2).sum()
    assert ess > 10000
    ref = np.einsum("n,nij->ij", w, xs) / w.sum()
    assert np.linalg.norm(cf - ref) / np.linalg.norm(ref) < 0.05
