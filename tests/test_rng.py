import numpy as np
import pytest
import scipy.stats as stats

from bmb.errors import EmptyInterval, InvalidDegreesOfFreedom, InvalidParameter
from bmb.rng import (
    RngStream,
    _bartlett_block,
    sample_inverse_gaussian,
    sample_truncated_normal,
    sample_wishart,
)
from helpers import make_spd


def test_stream_determinism():
    a = RngStream(7).gen.standard_normal(10)
    b = RngStream(7).gen.standard_normal(10)
    assert np.array_equal(a, b)
    c = RngStream(8).gen.standard_normal(10)
    assert not np.array_equal(a, c)


def test_stream_split_children_are_distinct():
    parent = RngStream(3)
    kids = parent.split(3)
    draws = [k.gen.standard_normal(8) for k in kids]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])
    # splitting again with a fresh parent reproduces the same children
    again = RngStream(3).split(3)
    assert np.array_equal(draws[0], again[0].gen.standard_normal(8))
    with pytest.raises(InvalidParameter):
        parent.split(0)


def test_wishart_mean(rng, gen):
    scale = make_spd(gen, 3)
    df = 7.0
    draws = np.mean([sample_wishart(rng, df, scale) for _ in range(4000)], axis=0)
    se = np.sqrt(df * (scale**2 + np.outer(np.diag(scale), np.diag(scale))) / 4000)
    assert np.all(np.abs(draws - df * scale) < 5 * se)


def test_wishart_df_validation(rng):
    with pytest.raises(InvalidDegreesOfFreedom):
        sample_wishart(rng, 1.5, np.eye(3))


def test_bartlett_block_structure(rng):
    blocks = _bartlett_block(rng, df=9.0, d=4, m=6)
    assert blocks.shape == (6, 4, 4)
    for a in blocks:
        assert np.allclose(a, np.tril(a))
        assert np.all(np.diag(a) > 0)


def test_inverse_gaussian_moments(rng):
    mu, lam = 1.7, 3.1
    x = sample_inverse_gaussian(rng, np.full(60000, mu), lam)
    assert np.all(x > 0)
    assert x.mean() == pytest.approx(mu, rel=0.02)
    assert x.var() == pytest.approx(mu**3 / lam, rel=0.06)


def test_inverse_gaussian_large_mu_stable(rng):
    # The textbook update is cancellation-prone when mu >> shape.
    x = sample_inverse_gaussian(rng, np.full(3000, 1e9), 1.0)
    assert np.all(np.isfinite(x)) and np.all(x > 0)


def test_inverse_gaussian_rejects_bad_params(rng):
    with pytest.raises(InvalidParameter):
        sample_inverse_gaussian(rng, -1.0, 1.0)
    with pytest.raises(InvalidParameter):
        sample_inverse_gaussian(rng, 1.0, 0.0)


def test_truncated_normal_respects_bounds(rng):
    lo = np.array([-1.0, 0.5, -np.inf, 3.0])
    hi = np.array([0.0, 2.0, -2.0, np.inf])
    x = sample_truncated_normal(rng, 0.0, 1.0, lo, hi)
    assert np.all(x > lo) and np.all(x < hi)


def test_truncated_normal_moments_match_scipy(rng):
    a, b = -0.7, 1.4
    x = np.array([sample_truncated_normal(rng, 0.5, 2.0, 0.5 + 2 * a, 0.5 + 2 * b)
                  for _ in range(20000)])
    ref = stats.truncnorm(a, b, loc=0.5, scale=2.0)
    assert x.mean() == pytest.approx(ref.mean(), abs=5 * ref.std() / np.sqrt(x.size))
    assert x.std() == pytest.approx(ref.std(), rel=0.05)


def test_truncated_normal_far_tail(rng):
    # 40 sigma from the mean: naive CDF subtraction returns garbage here.
    x = sample_truncated_normal(rng, 0.0, 1.0, np.full(2000, 40.0), np.inf)
    assert np.all(np.isfinite(x)) and np.all(x > 40.0)
    assert x.mean() == pytest.approx(40.0 + 1.0 / 40.0, rel=0.01)


def test_truncated_normal_input_validation(rng):
    with pytest.raises(InvalidParameter):
        sample_truncated_normal(rng, 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(EmptyInterval):
        sample_truncated_normal(rng, 0.0, 1.0, 2.0, 2.0)
