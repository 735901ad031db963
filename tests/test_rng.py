import numpy as np
import pytest
import scipy.stats as stats

from bmb.errors import EmptyInterval, InvalidDegreesOfFreedom, InvalidParameter
from bmb.rng import (
    RngStream,
    _bartlett_block,
    _truncnorm_flat,
    sample_inverse_gaussian,
    sample_truncated_normal,
    sample_wishart,
)
from helpers import make_spd, truncated_normal_oracle


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


# (mu, lo, hi) per case, sigma 1.5; each case alone and all in one call.
_TRUNCNORM_CASES = {
    "central": (0.3, np.array([-1.0, -0.5, -np.inf]), np.array([2.0, 0.4, 1.0])),
    "above": (0.3, np.array([0.8, 1.5, 2.0]), np.array([np.inf, 4.0, 2.1])),
    "below": (0.3, np.array([-np.inf, -4.0, -1.0]), np.array([-0.9, -2.0, 0.3])),
    "tail": (0.3, np.array([7.0, 9.5, -np.inf, -np.inf]),
             np.array([np.inf, np.inf, -6.5, -12.0])),
    "far": (0.3, np.array([60.3, 60.3, -np.inf]), np.array([61.0, np.inf, -59.7])),
}


def _case_arrays(names):
    lo = np.concatenate([_TRUNCNORM_CASES[n][1] for n in names])
    hi = np.concatenate([_TRUNCNORM_CASES[n][2] for n in names])
    mu = np.concatenate([np.full(_TRUNCNORM_CASES[n][1].size,
                                 _TRUNCNORM_CASES[n][0]) for n in names])
    return np.tile(mu, 40), np.tile(lo, 40), np.tile(hi, 40)


@pytest.mark.parametrize("names", [[n] for n in _TRUNCNORM_CASES]
                         + [list(_TRUNCNORM_CASES)])
def test_truncated_normal_matches_oracle_bitwise(names):
    # Same seed, same draws, same stream state afterwards, through the
    # public function and through the flat kernel with a scalar sigma.
    mu, lo, hi = _case_arrays(names)
    ref_rng, pub_rng, flat_rng = RngStream(77), RngStream(77), RngStream(77)
    ref = truncated_normal_oracle(ref_rng, mu, 1.5, lo, hi)
    pub = sample_truncated_normal(pub_rng, mu, 1.5, lo, hi)
    flat = _truncnorm_flat(flat_rng, mu, 1.5, lo, hi)
    assert np.array_equal(pub, ref) and np.array_equal(flat, ref)
    state = ref_rng.gen.bit_generator.state
    assert pub_rng.gen.bit_generator.state == state
    assert flat_rng.gen.bit_generator.state == state
    assert np.all((ref > lo) & (ref < hi))
    # A 2-D call with array sigma reshapes the same draws.
    sig = np.full(mu.size, 1.5)
    ref2 = truncated_normal_oracle(RngStream(5), mu.reshape(-1, 2), sig.reshape(-1, 2),
                                   lo.reshape(-1, 2), hi.reshape(-1, 2))
    pub2 = sample_truncated_normal(RngStream(5), mu.reshape(-1, 2), sig.reshape(-1, 2),
                                   lo.reshape(-1, 2), hi.reshape(-1, 2))
    assert pub2.shape == ref2.shape and np.array_equal(pub2, ref2)


def test_truncated_normal_scalar_matches_oracle_bitwise():
    ref_rng, pub_rng = RngStream(3), RngStream(3)
    for lo, hi in ((-1.0, 1.0), (5.0, np.inf), (-np.inf, -45.0)):
        ref = truncated_normal_oracle(ref_rng, 0.2, 0.7, lo, hi)
        pub = sample_truncated_normal(pub_rng, 0.2, 0.7, lo, hi)
        assert isinstance(pub, float) and pub == ref
    assert pub_rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state


def test_truncnorm_flat_rejects_empty_and_nan_intervals(rng):
    mu = np.zeros(3)
    with pytest.raises(EmptyInterval):
        _truncnorm_flat(rng, mu, 1.0, np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, 1.0, 3.0]))
    with pytest.raises(EmptyInterval):
        _truncnorm_flat(rng, mu, 1.0, np.array([0.0, np.nan, 2.0]),
                        np.array([1.0, 2.0, 3.0]))
    with pytest.raises(EmptyInterval):
        _truncnorm_flat(rng, mu, 1.0, np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, 2.0, np.nan]))
