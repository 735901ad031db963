import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from bmb.copula import (
    CopulaConfig,
    MixedDataTable,
    compute_bounds,
    init_latent,
    run_copula_chain,
    sample_latent,
    sample_sigma_full,
)
from bmb.errors import (
    ConstantVariable,
    EmptyQuery,
    InvalidParameter,
    QueryIsEverything,
    UnknownVariable,
)
from bmb.linalg import SpdMatrix
from bmb.rng import RngStream
from bmb.sampler import ChainConfig, HyperParams
from helpers import cell_bounds, satisfied_by


def _table(values, names=None):
    values = np.asarray(values, dtype=float)
    return MixedDataTable(
        values=values,
        names=tuple(names or (f"y{i}" for i in range(values.shape[0]))),
    )


def _init(t):
    return init_latent(compute_bounds(t), t.n)


def test_table_validation():
    with pytest.raises(ConstantVariable):
        _table([[1.0, 1.0, 1.0]])
    with pytest.raises(ConstantVariable):
        _table([[1.0, np.nan, np.nan]])
    with pytest.raises(InvalidParameter):
        _table([[0.0, 1.0], [1.0, 2.0]], names=["a", "a"])
    t = _table([[0.0, 1.0, np.nan]])
    assert t.r == 1 and t.n == 3


def test_bounds_binary_variable():
    # y = (0, 1, 0): the y=1 cell is bounded below by both y=0 latents and
    # unbounded above.
    t = _table([[0.0, 1.0, 0.0]])
    bounds = compute_bounds(t)
    lo, hi = cell_bounds(bounds, np.array([[-0.3, 0.9, 0.1]]))
    assert lo[0, 1] == pytest.approx(0.1)
    assert hi[0, 1] == np.inf
    assert hi[0, 0] == pytest.approx(0.9) and hi[0, 2] == pytest.approx(0.9)
    assert lo[0, 0] == -np.inf


def test_bounds_continuous_three_values():
    t = _table([[3.2, 1.1, 5.0]])
    bounds = compute_bounds(t)
    lo, hi = cell_bounds(bounds, np.array([[0.0, -1.0, 1.0]]))
    # middle-ranked observation is pinched by the other two latents
    assert lo[0, 0] == pytest.approx(-1.0)
    assert hi[0, 0] == pytest.approx(1.0)


def test_bounds_missing_cell_unconstrained():
    t = _table([[1.0, np.nan, 2.0]])
    bounds = compute_bounds(t)
    lo, hi = cell_bounds(bounds, _init(t))
    assert lo[0, 1] == -np.inf and hi[0, 1] == np.inf


def test_init_latent_normal_scores():
    t = _table([[1.0, 2.0, 3.0]])
    x = _init(t)
    assert np.allclose(x[0], ndtri([0.25, 0.5, 0.75]))
    assert np.all(np.diff(x[0]) > 0)
    assert satisfied_by(compute_bounds(t), x)


def test_init_latent_mid_ranks_for_ties():
    t = _table([[5.0, 5.0, 1.0, 9.0]])
    x = _init(t)
    assert x[0, 0] == x[0, 1]
    assert satisfied_by(compute_bounds(t), x)
    # Bitwise the normal scores of scipy's average ranks, ties and NaN too.
    g = np.random.default_rng(4)
    vals = np.vstack([g.integers(0, 2, 300), g.integers(0, 7, 300),
                      g.standard_normal(300), g.integers(0, 40, 300)])
    vals = vals.astype(float)
    vals[g.random(vals.shape) < 0.05] = np.nan
    ref = np.zeros(vals.shape)
    for i, row in enumerate(vals):
        obs = ~np.isnan(row)
        ref[i, obs] = ndtri(rankdata(row[obs]) / (obs.sum() + 1.0))
    assert np.array_equal(_init(_table(vals)), ref)


def test_init_latent_missing_is_zero():
    t = _table([[1.0, np.nan, 2.0]])
    assert _init(t)[0, 1] == 0.0


def test_sample_latent_keeps_bounds(rng):
    g = np.random.default_rng(0)
    vals = np.vstack([
        g.integers(0, 3, size=50).astype(float),
        g.standard_normal(50),
        g.standard_normal(50),
    ])
    vals[2, ::7] = np.nan
    t = _table(vals)
    bounds = compute_bounds(t)
    x = init_latent(bounds, t.n)
    c = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]])
    sigma = SpdMatrix(c)
    for _ in range(25):
        sample_latent(x, sigma, bounds, rng)
        assert satisfied_by(bounds, x)


def test_sample_latent_identity_sigma_unit_conditionals(rng):
    # With sigma = I the missing cells are marginally standard normal.
    vals = np.vstack([np.linspace(0, 1, 400), np.full(400, np.nan)])
    vals[1, :4] = [0.0, 1.0, 2.0, 3.0]
    t = _table(vals)
    bounds = compute_bounds(t)
    x = init_latent(bounds, t.n)
    draws = []
    for _ in range(40):
        sample_latent(x, SpdMatrix(np.eye(2)), bounds, rng)
        draws.append(x[1, 4:].copy())
    pool = np.concatenate(draws)
    assert pool.mean() == pytest.approx(0.0, abs=4 / np.sqrt(pool.size))
    assert pool.std() == pytest.approx(1.0, rel=0.05)


def test_sample_latent_stochastic_ordering_binary(rng):
    g = np.random.default_rng(1)
    z = g.standard_normal(300)
    other = 0.9 * z + np.sqrt(1 - 0.81) * g.standard_normal(300)
    t = _table(np.vstack([(z > 0).astype(float), other]))
    bounds = compute_bounds(t)
    x = init_latent(bounds, t.n)
    sigma = SpdMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
    ones = t.values[0] == 1.0
    m1 = m0 = 0.0
    for _ in range(60):
        sample_latent(x, sigma, bounds, rng)
        m1 += x[0, ones].mean()
        m0 += x[0, ~ones].mean()
    assert m1 / 60 > m0 / 60 + 0.5


def test_sigma_conjugacy_and_correlation_form(rng):
    g = np.random.default_rng(3)
    r, n = 3, 400
    x = g.standard_normal((r, n))
    cfg = CopulaConfig(chain=ChainConfig(seed=0))
    raw = []
    corr = None
    for _ in range(3000):
        corr, d = sample_sigma_full(x, cfg, rng)
        raw.append(corr.values * np.outer(d, d))
    mean = np.mean(raw, axis=0)
    df = cfg.prior_df(r) + n
    scale = np.eye(r) + x @ x.T
    analytic = scale / (df - r - 1)  # inverse-Wishart mean
    se = np.abs(analytic) / np.sqrt(len(raw)) * 3 + 3e-3
    assert np.all(np.abs(mean - analytic) < 5 * se)
    assert np.allclose(np.diag(corr.values), 1.0)
    assert np.all(d > 0)


def test_copula_config_validation():
    with pytest.raises(InvalidParameter):
        CopulaConfig(inner_sweeps_per_outer=0)
    cfg = CopulaConfig(iw_prior_df=2.0)
    with pytest.raises(InvalidParameter):
        cfg.prior_df(5)
    assert CopulaConfig().prior_df(5) == 7.0


def test_run_copula_chain_shapes_and_query_checks(rng):
    g = np.random.default_rng(8)
    vals = g.standard_normal((5, 80))
    t = _table(vals)
    cfg = CopulaConfig(chain=ChainConfig(burn_in=5, samples=10, seed=3))
    out = run_copula_chain(t, ["y0", "y1"], HyperParams(gamma=5.0), cfg)
    assert out.w12.shape == (10, 2, 3)
    assert out.query_names == ("y0", "y1")
    assert "latent" in out.timings and "sigma" in out.timings
    with pytest.raises(UnknownVariable):
        run_copula_chain(t, ["nope"], HyperParams(), cfg)
    with pytest.raises(EmptyQuery):
        run_copula_chain(t, [], HyperParams(), cfg)
    with pytest.raises(QueryIsEverything):
        run_copula_chain(t, [f"y{i}" for i in range(5)], HyperParams(), cfg)


def test_monotone_transform_invariance_small(rng):
    g = np.random.default_rng(12)
    vals = g.standard_normal((4, 60))
    t1 = _table(vals)
    vals2 = vals.copy()
    vals2[1] = np.exp(vals2[1])
    vals2[3] = vals2[3] ** 3
    t2 = _table(vals2)
    cfg = CopulaConfig(chain=ChainConfig(burn_in=3, samples=6, seed=21))
    out1 = run_copula_chain(t1, ["y0"], HyperParams(gamma=2.0), cfg)
    out2 = run_copula_chain(t2, ["y0"], HyperParams(gamma=2.0), cfg)
    assert np.array_equal(out1.w12, out2.w12)
    assert np.array_equal(out1.w11, out2.w11)


def test_label_shift_invariance_for_ordinals(rng):
    g = np.random.default_rng(13)
    codes = g.integers(0, 3, size=(1, 70)).astype(float)
    cont = g.standard_normal((2, 70))
    t1 = _table(np.vstack([cont, codes]))
    t2 = _table(np.vstack([cont, codes * 10 + 10]))
    cfg = CopulaConfig(chain=ChainConfig(burn_in=3, samples=6, seed=2))
    out1 = run_copula_chain(t1, ["y0"], HyperParams(gamma=2.0), cfg)
    out2 = run_copula_chain(t2, ["y0"], HyperParams(gamma=2.0), cfg)
    assert np.array_equal(out1.w12, out2.w12)


def test_copula_handles_missing_cells(rng):
    g = np.random.default_rng(14)
    vals = g.standard_normal((4, 90))
    mask = g.random((4, 90)) < 0.1
    vals[mask] = np.nan
    t = _table(vals)
    cfg = CopulaConfig(chain=ChainConfig(burn_in=5, samples=10, seed=6))
    out = run_copula_chain(t, ["y0"], HyperParams(gamma=5.0), cfg)
    assert np.all(np.isfinite(out.w12))
    assert np.all(np.isfinite(out.log_post))
