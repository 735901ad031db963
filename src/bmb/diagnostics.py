"""Scalar-chain diagnostics: autocorrelation, ESS, and Geweke z-scores.

All functions accept either a plain 1-D array or a :class:`ChainSeries`
wrapper carrying a label. Autocorrelations use the biased (divide by N)
normalization so the sequence is positive semidefinite; the effective
sample size truncates its sum with Geyer's initial-positive-sequence rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConstantSeries, InvalidParameter, LagTooLarge,
                     SeriesTooShort)


@dataclass(frozen=True)
class ChainSeries:
    """One scalar posterior quantity traced across retained sweeps."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float).ravel()
        )
        _validate(self.values)

    def __len__(self) -> int:
        return self.values.size


def _validate(x: np.ndarray) -> None:
    if x.size < 2:
        raise SeriesTooShort(f"need at least 2 points, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("series contains non-finite values")


def _values(s) -> np.ndarray:
    if isinstance(s, ChainSeries):
        return s.values
    x = np.asarray(s, dtype=float).ravel()
    _validate(x)
    return x


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance at all lags via FFT."""
    n = x.size
    centered = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    return acov / n


def _acf_from(acov: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelation at lags 0..max_lag from ``_autocov``'s output."""
    if acov[0] <= 0.0:
        raise ConstantSeries("zero variance, autocorrelation undefined")
    return acov[: max_lag + 1] / acov[0]


def _ess_from(acov: np.ndarray) -> float:
    """Geyer-truncated ESS from ``_autocov``'s output of an N-point series."""
    n = acov.size
    if n < 10:
        raise SeriesTooShort(f"need at least 10 points for ESS, got {n}")
    if acov[0] <= 0.0:
        raise ConstantSeries("zero variance, ESS undefined")
    rho = acov / acov[0]
    # Sum lag pairs (rho_{2k-1} + rho_{2k}) while they stay positive.
    tail = 0.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tail += pair
        k += 2
    tau = 1.0 + 2.0 * tail
    return float(min(n, n / max(tau, 1e-12)))


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag, rho(0) = 1."""
    x = _values(series)
    if max_lag < 0:
        raise InvalidParameter("max_lag must be nonnegative")
    if max_lag >= x.size:
        raise LagTooLarge(
            f"max_lag {max_lag} must be below series length {x.size}"
        )
    return _acf_from(_autocov(x), max_lag)


def effective_sample_size(series) -> float:
    """ESS with Geyer initial-positive-sequence truncation, in (0, N]."""
    return _ess_from(_autocov(_values(series)))


def geweke_z(series, frac_a: float = 0.1, frac_b: float = 0.5) -> float:
    """z-score of mean(first frac_a window) vs mean(last frac_b window).

    Window variances are spectral (sample variance divided by the window's
    effective sample size), so autocorrelated chains are not over-confident.
    """
    x = _values(series)
    if not (0.0 < frac_a < 1.0 and 0.0 < frac_b < 1.0 and frac_a + frac_b <= 1.0):
        raise InvalidParameter("window fractions must be in (0,1) and not overlap")
    n = x.size
    na = int(np.floor(frac_a * n))
    nb = int(np.floor(frac_b * n))
    if na < 10 or nb < 10:
        raise SeriesTooShort(
            f"windows of {na} and {nb} points, both must have >= 10"
        )
    a = x[:na]
    b = x[n - nb:]

    def spectral_var(w: np.ndarray) -> float:
        v = float(w.var(ddof=1))
        if v == 0.0:
            return 0.0
        return v / effective_sample_size(w)

    denom = spectral_var(a) + spectral_var(b)
    diff = float(a.mean() - b.mean())
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float(np.sign(diff)) * np.inf
    return diff / float(np.sqrt(denom))
