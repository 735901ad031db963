import numpy as np
import pytest

from bmb.errors import InvalidParameter
from bmb.linalg import partition_scatter, DataMatrix
from bmb.rng import MgigParams, RngStream, sample_mgig
from bmb.sampler import (
    BlanketState,
    ChainConfig,
    HyperParams,
    LowRankPrecision,
    StructuredPrecision,
    build_structured_precision,
    gibbs_sweep,
    initial_state,
    log_posterior_unnorm,
    run_chain,
    sample_scales,
    sample_w11,
    sample_w12,
    structured_chol,
)
from gir import consistency_z_scores
from helpers import dense_factor, factor_logdet, make_spd


def _dense_blanket_precision(w11, k, scales):
    p, q = scales.shape
    return np.kron(np.linalg.inv(w11), k) + np.diag(1.0 / scales.ravel())


def _toy_cov(gen, p=2, q=4, n=30):
    names = [f"v{i}" for i in range(p + q)]
    dm = DataMatrix(values=gen.standard_normal((p + q, n)), names=names)
    return partition_scatter(dm, names[:p], center=False)


def test_hyper_params_validation():
    assert HyperParams(gamma=2.0).gamma == 2.0
    with pytest.raises(InvalidParameter):
        HyperParams(gamma=0.0)
    with pytest.raises(InvalidParameter):
        HyperParams(gamma=np.inf)


def test_chain_config_validation():
    cfg = ChainConfig(burn_in=10, samples=20, thin=2)
    assert cfg.total_sweeps == 50
    with pytest.raises(InvalidParameter):
        ChainConfig(samples=0)
    with pytest.raises(InvalidParameter):
        ChainConfig(burn_in=-1)
    with pytest.raises(InvalidParameter):
        ChainConfig(thin=0)
    with pytest.raises(InvalidParameter):
        ChainConfig(mgig_tol=0.0)


def test_initial_state():
    st = initial_state(2, 5)
    assert np.array_equal(st.w11, np.eye(2))
    assert np.array_equal(st.w12, np.zeros((2, 5)))
    assert np.array_equal(st.scales, np.ones((2, 5)))
    again = initial_state(2, 5)
    again.w12[0, 0] = 3.0
    assert st.w12[0, 0] == 0.0


def test_structured_chol_matches_dense(gen):
    for p, q in [(1, 5), (2, 3), (3, 4)]:
        s22 = make_spd(gen, q)
        prec = build_structured_precision(s22)
        w11 = make_spd(gen, p)
        scales = gen.uniform(0.2, 3.0, size=(p, q))
        fact = structured_chol(prec, w11, scales)
        dense = _dense_blanket_precision(w11, prec.k, scales)
        ell = dense_factor(fact)
        assert np.allclose(ell @ ell.T, dense, rtol=1e-10, atol=1e-10)
        sign, ld = np.linalg.slogdet(dense)
        assert factor_logdet(fact) == pytest.approx(ld, rel=1e-10)


def test_structured_solves_invert_each_other(gen):
    p, q = 2, 4
    prec = build_structured_precision(make_spd(gen, q))
    fact = structured_chol(prec, make_spd(gen, p), gen.uniform(0.5, 2.0, (p, q)))
    y = gen.standard_normal(p * q)
    l = dense_factor(fact)
    assert np.allclose(l @ fact.solve_lower(y), y)
    assert np.allclose(l.T @ fact.solve_upper(y), y)


def test_sample_scales_inverse_gaussian_mean(rng):
    gamma = 1.5
    w = np.full((1, 20000), 0.8)
    t = sample_scales(rng, w, gamma)
    assert np.all(t > 0)
    # 1/t is inverse Gaussian with mean gamma/|w|
    assert (1.0 / t).mean() == pytest.approx(gamma / 0.8, rel=0.02)


def test_sample_w12_moments_match_dense_oracle(gen):
    p, q = 2, 3
    cov = _toy_cov(gen, p, q)
    prec = build_structured_precision(cov.s22)
    w11 = make_spd(gen, p)
    scales = gen.uniform(0.5, 2.0, (p, q))
    rng = RngStream(4)
    draws = np.stack([
        sample_w12(rng, prec, w11, scales, cov.s12) for _ in range(8000)
    ]).reshape(8000, -1)
    c = _dense_blanket_precision(w11, prec.k, scales)
    mean = -np.linalg.solve(c, cov.s12.ravel())
    cvar = np.linalg.inv(c)
    se = np.sqrt(np.diag(cvar) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
    assert np.allclose(np.cov(draws.T), cvar, rtol=0.2, atol=0.02)


def test_low_rank_w12_moments_match_dense_conditional():
    # The criterion 3 oracle for the low-rank draw (n < q).
    gen = np.random.default_rng(212)
    rng = RngStream(313)
    p, q, n, n_draws = 3, 12, 5, 40_000
    cov = _toy_cov(gen, p, q, n)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)
    assert isinstance(prec, LowRankPrecision)
    w11 = make_spd(gen, p)
    scales = gen.uniform(0.3, 2.0, (p, q))
    s12 = gen.standard_normal((p, q))
    c = _dense_blanket_precision(w11, cov.s22 + np.eye(q), scales)
    target = np.linalg.inv(c)
    mean = -target @ s12.ravel()
    draws = np.stack([sample_w12(rng, prec, w11, scales, s12).ravel()
                      for _ in range(n_draws)])
    se_mean = np.sqrt(np.diag(target) / n_draws)
    z_mean = np.max(np.abs(draws.mean(axis=0) - mean) / se_mean)
    se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2)
                     / n_draws)
    z_cov = np.max(np.abs(np.cov(draws.T) - target) / se_cov)
    assert z_mean < 4.0 and z_cov < 4.0, (z_mean, z_cov)


def test_precision_path_follows_the_flop_model(gen):
    # n >= q: the dense path, drawing bitwise what it drew before x2 existed.
    cov = _toy_cov(gen, 2, 6, 30)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)
    assert isinstance(prec, StructuredPrecision)
    w11 = make_spd(gen, 2)
    scales = gen.uniform(0.5, 2.0, (2, 6))
    ref = sample_w12(RngStream(8), build_structured_precision(cov.s22), w11,
                     scales, cov.s12)
    assert np.array_equal(sample_w12(RngStream(8), prec, w11, scales, cov.s12),
                          ref)
    # n < q: the low-rank path, with the same W12 K W21 for the W11 draw.
    cov = _toy_cov(gen, 2, 40, 8)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)
    assert isinstance(prec, LowRankPrecision)
    w12 = gen.standard_normal((2, 40))
    assert np.allclose(prec.quad(w12),
                       build_structured_precision(cov.s22).quad(w12))
    out = run_chain(cov, HyperParams(gamma=2.0),
                    ChainConfig(burn_in=5, samples=10, seed=3))
    assert np.all(np.isfinite(out.w12)) and np.all(np.isfinite(out.log_post))
    # Without x2 the dense path is the only one.
    assert isinstance(build_structured_precision(cov.s22), StructuredPrecision)


def test_low_rank_w12_pins_an_entry_with_a_tiny_scale(gen):
    # A first sweep from W12 = 0 can draw a reciprocal scale of 7.4e13.
    p, q, n = 4, 30, 6
    cov = _toy_cov(gen, p, q, n)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)
    assert isinstance(prec, LowRankPrecision)
    scales = gen.uniform(0.5, 2.0, (p, q))
    scales[1, 7] = 1.0 / 7.4e13
    rng = RngStream(11)
    draws = np.stack([sample_w12(rng, prec, np.eye(p), scales, cov.s12)
                      for _ in range(200)])
    assert np.all(np.isfinite(draws))
    assert np.max(np.abs(draws[:, 1, 7])) < 1e-5
    assert np.std(draws[:, 0, 7]) > 1e-2


def test_low_rank_sweep_prior_chain_consistency():
    # Criterion 4's joint check with n_obs < q, so every sweep runs the
    # low-rank W12 draw and its W12 K W21 in the W11 draw.
    z = consistency_z_scores(seed=315, q=6, gamma=1.0, n_obs=3,
                             reps=20_000, iters=20_000, data_rows=True)
    assert np.max(np.abs(z)) < 4.0, z


def test_sample_w11_collapses_to_wishart_when_w12_zero(gen):
    p, q, n = 2, 3, 12
    cov = _toy_cov(gen, p, q, n)
    prec = build_structured_precision(cov.s22)
    rng = RngStream(9)
    draws = np.stack([
        sample_w11(rng, cov.s11, prec, np.zeros((p, q)), n, 1e-9, 100)[0]
        for _ in range(6000)
    ])
    df = n + p + 1
    sigma = np.linalg.inv(cov.s11 + np.eye(p))
    target = df * sigma
    se = np.sqrt(df * (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma)))
                 / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - target) < 5 * se)


@pytest.mark.parametrize("p, q, n", [(3, 5, 30), (1, 4, 20), (2, 40, 8)])
def test_sample_w11_is_the_public_mgig_route_bitwise(gen, p, q, n):
    # The sweep's W11 draw is sample_mgig on MgigParams(-n/2 - 1, S11 + I, B)
    # from the same stream state, with B = W12 (S22 + I) W21 ridged only
    # when it is singular (W12 = 0).  (2, 40, 8) takes the low-rank B.
    cov = _toy_cov(gen, p, q, n)
    prec = build_structured_precision(cov.s22, cov.x2, cov.p)
    lam = -0.5 * cov.n - 1.0
    a = cov.s11 + np.eye(p)
    w12 = 0.3 * gen.standard_normal((p, q))
    zero = np.zeros((p, q))
    with pytest.raises(InvalidParameter):
        MgigParams(lam=lam, a=a, b=prec.quad(zero))
    for w, b in [(w12, prec.quad(w12)), (zero, 1e-12 * np.eye(p))]:
        rng, rng_ref = RngStream(21), RngStream(21)
        draw, mh = sample_w11(rng, cov.s11, prec, w, cov.n)
        ref, mh_ref = sample_mgig(rng_ref, MgigParams(lam=lam, a=a, b=b))
        assert np.array_equal(draw, ref) and mh == mh_ref
        assert rng.gen.random() == rng_ref.gen.random()


def test_gibbs_sweep_updates_state_and_times_phases(gen, rng):
    cov = _toy_cov(gen)
    prec = build_structured_precision(cov.s22)
    state = initial_state(cov.p, cov.q)
    timings = {}
    mh = gibbs_sweep(rng, state, cov, prec, HyperParams(gamma=1.0),
                     ChainConfig(), timings)
    assert isinstance(mh, bool) or mh in (0, 1)
    assert not np.array_equal(state.w12, np.zeros((cov.p, cov.q)))
    assert np.all(np.linalg.eigvalsh(state.w11) > 0)
    assert set(timings) == {"scales", "w12", "w11"}


def test_log_posterior_gradient_w12(gen):
    cov = _toy_cov(gen)
    state = initial_state(cov.p, cov.q)
    state.w12 = 0.1 * gen.standard_normal((cov.p, cov.q))
    state.w11 = make_spd(gen, cov.p)
    gamma = 1.0
    base = log_posterior_unnorm(state, cov, gamma)
    eps = 1e-6
    for idx in [(0, 0), (1, 2)]:
        bumped = BlanketState(state.w11, state.w12.copy(), state.scales)
        bumped.w12[idx] += eps
        fd = (log_posterior_unnorm(bumped, cov, gamma) - base) / eps
        k = cov.s22 + np.eye(cov.q)
        grad = (
            -cov.s12[idx]
            - (np.linalg.inv(state.w11) @ state.w12 @ k)[idx]
            - state.w12[idx] / state.scales[idx]
        )
        assert fd == pytest.approx(grad, rel=1e-3, abs=1e-4)


def test_run_chain_shapes_and_determinism(gen):
    cov = _toy_cov(gen)
    cfg = ChainConfig(burn_in=20, samples=30, thin=2, seed=5)
    out1 = run_chain(cov, HyperParams(gamma=1.0), cfg)
    out2 = run_chain(cov, HyperParams(gamma=1.0), cfg)
    assert out1.w12.shape == (30, cov.p, cov.q)
    assert out1.w11.shape == (30, cov.p, cov.p)
    assert np.array_equal(out1.w12, out2.w12)
    assert np.array_equal(out1.log_post, out2.log_post)
    assert np.all(np.isfinite(out1.log_post))
    assert out1.n_samples == 30
    assert out1.query_names == tuple(cov.query_names)
    assert "total" in out1.timings
    out3 = run_chain(cov, HyperParams(gamma=1.0),
                     ChainConfig(burn_in=20, samples=30, thin=2, seed=6))
    assert not np.array_equal(out1.w12, out3.w12)


def test_run_chain_thinning_changes_spacing(gen):
    cov = _toy_cov(gen)
    thin1 = run_chain(cov, HyperParams(1.0),
                      ChainConfig(burn_in=0, samples=40, thin=1, seed=2))
    # lag-1 correlation of a well-mixing scalar should drop with thinning
    thin4 = run_chain(cov, HyperParams(1.0),
                      ChainConfig(burn_in=0, samples=40, thin=4, seed=2))
    assert thin1.w12.shape == thin4.w12.shape
