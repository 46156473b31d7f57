"""Lognormal percentile→moment formulas, shared across the library.

Percentile-only telemetry (p50/p95/p99 exports) carries no
distribution-free variance information: recovering moments from a handful
of quantiles *requires* a modeling assumption.  This module is the single
home of the library's explicit **lognormal** assumption — positive
support, right skew, moderate tails — used by two consumers:

* :class:`~repro.serving.fleet.admission.KingmanAdmission`, which
  estimates the service-time Cs² from its measured window's p50/p99
  (the formulas historically lived there);
* :class:`~repro.core.sketch.QuantileSketch`, which recovers model
  features and full moment vectors from percentile-only probes.

Under ``X ~ LogNormal(mu, sigma)`` the quantile at level ``p`` is
``exp(mu + z_p * sigma)`` with ``z_p = Phi^-1(p)``, so two percentiles
pin both parameters::

    sigma = ln(p99/p50) / z99          (z99 = Phi^-1(0.99) ~ 2.3263)
    mu    = ln(p50)
    Cs^2  = exp(sigma^2) - 1

With more than two levels, :func:`fit_lognormal` least-squares the line
``ln(q_p) = mu + sigma * z_p`` through all of them — but keeps the exact
p50/p99 closed form when exactly those two levels are available, so the
sketch path is bit-identical to the admission gate's historical math.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import as_float_array
from ..errors import ValidationError
from .moments import MomentVector

__all__ = [
    "Z99",
    "sigma_from_percentiles",
    "cs2_from_percentiles",
    "cs2_from_moments",
    "fit_lognormal",
    "fit_lognormal_rows",
    "lognormal_moments",
    "lognormal_quantile",
    "lognormal_cdf",
]

#: z-score of the 99th percentile of the standard normal, Φ⁻¹(0.99).
#: Hardcoded (scipy.stats.norm.ppf(0.99)) so the admission hot path and
#: the exact two-point fit need no scipy import.
Z99 = 2.3263478740408408

#: Tolerance for matching sketch levels against the canonical 0.5/0.99
#: pair (levels are user-supplied floats; exact ``==`` would be fragile).
_LEVEL_TOL = 1e-9


def sigma_from_percentiles(p50: float, p99: float) -> float:
    """Lognormal shape parameter from the p50/p99 pair.

    ``sigma = ln(p99/p50) / z99`` — the exact closed form when the two
    canonical percentiles are available.
    """
    if not (0.0 < p50 <= p99):
        raise ValidationError(
            f"percentiles must satisfy 0 < p50 <= p99, got p50={p50}, p99={p99}"
        )
    return math.log(p99 / p50) / Z99


def cs2_from_percentiles(p50: float, p99: float) -> float:
    """Cs² from two percentiles under the explicit lognormal assumption.

    Assumes the quantity is log-normal (see the module docstring for why
    the assumption is required and when it is reasonable):
    ``sigma = ln(p99/p50)/z99`` and ``Cs² = exp(sigma²) − 1``.
    """
    sigma_ln = sigma_from_percentiles(p50, p99)
    return math.expm1(sigma_ln * sigma_ln)


def cs2_from_moments(samples) -> float:
    """Textbook Cs² = Var(S)/E[S]² from raw service-time samples."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise ValidationError("cs2_from_moments needs at least two samples")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise ValidationError("service times must have a positive mean")
    return float(arr.var() / (mean * mean))


def _z_scores(levels: np.ndarray) -> np.ndarray:
    """Standard-normal quantiles of the given probability levels."""
    from scipy.special import ndtri

    return np.asarray(ndtri(levels), dtype=np.float64)


def fit_lognormal(levels, values) -> tuple[float, float]:
    """Fit ``(mu, sigma)`` of a lognormal to (level, quantile-value) pairs.

    When the level set contains the canonical 0.5/0.99 pair (within
    tolerance), the exact two-point closed form is used — ``mu =
    ln(p50)``, ``sigma = ln(p99/p50)/z99`` — matching
    :func:`cs2_from_percentiles` (and therefore the admission gate)
    bit for bit.  Otherwise the line ``ln(q_p) = mu + sigma * z_p`` is
    least-squares fitted through all levels.  This is the one-row case
    of :func:`fit_lognormal_rows`.

    ``sigma`` is clamped to be non-negative (quantile values are
    validated monotone upstream, but a flat sketch fits sigma = 0).
    """
    lv = as_float_array(levels, name="levels")
    vals = as_float_array(values, name="values")
    lv = np.atleast_1d(lv)
    vals = np.atleast_1d(vals)
    if lv.shape != vals.shape or lv.ndim != 1:
        raise ValidationError(
            f"levels and values must be matching 1-D arrays, got "
            f"{lv.shape} and {vals.shape}"
        )
    if lv.size < 2:
        raise ValidationError("fit_lognormal needs at least two levels")
    if np.any((lv <= 0.0) | (lv >= 1.0)):
        raise ValidationError("levels must lie strictly inside (0, 1)")
    if np.any(vals <= 0.0):
        raise ValidationError("quantile values must be strictly positive")
    mu, sigma = fit_lognormal_rows(lv[None], vals[None])
    return float(mu[0]), float(sigma[0])


def fit_lognormal_rows(levels: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fit_lognormal` of every row of validated ``(n_rows, n_levels)`` matrices.

    Rows holding the 0.5/0.99 pair take the closed form, per row on Python
    floats (``math.log``, as the admission gate); the rest are least-squares
    fitted together with array operations whose results match one row's.
    """
    hit50 = np.abs(levels - 0.5) < _LEVEL_TOL
    hit99 = np.abs(levels - 0.99) < _LEVEL_TOL
    closed = hit50.any(axis=1) & hit99.any(axis=1)
    mu, sigma = np.empty((2, levels.shape[0]), dtype=np.float64)
    rows = np.flatnonzero(closed)
    p50 = values[rows, hit50[rows].argmax(axis=1)].tolist()
    p99 = values[rows, hit99[rows].argmax(axis=1)].tolist()
    mu[rows] = [math.log(p) for p in p50]
    sigma[rows] = [sigma_from_percentiles(a, b) for a, b in zip(p50, p99)]
    rows = np.flatnonzero(~closed)
    z = _z_scores(levels[rows])
    logv = np.log(values[rows])
    z_mean = z.mean(axis=1, keepdims=True)
    v_mean = logv.mean(axis=1, keepdims=True)
    denom = ((z - z_mean) ** 2).sum(axis=1)
    if np.any(denom <= 0.0):
        raise ValidationError("levels are degenerate: need distinct levels")
    slope = ((z - z_mean) * (logv - v_mean)).sum(axis=1) / denom
    slope = np.where(slope < 0.0, 0.0, slope)  # max(slope, 0.0), row-wise
    sigma[rows] = slope
    mu[rows] = v_mean[:, 0] - slope * z_mean[:, 0]
    return mu, sigma


def lognormal_moments(mu: float, sigma: float) -> MomentVector:
    """First four moments of ``LogNormal(mu, sigma)``.

    Kurtosis follows the library convention (standardized fourth central
    moment; normal = 3, *not* excess).
    """
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    s2 = sigma * sigma
    mean = math.exp(mu + s2 / 2.0)
    omega_m1 = math.expm1(s2)  # exp(sigma^2) - 1
    std = mean * math.sqrt(omega_m1)
    skew = (math.exp(s2) + 2.0) * math.sqrt(omega_m1)
    kurt = (
        math.exp(4.0 * s2) + 2.0 * math.exp(3.0 * s2) + 3.0 * math.exp(2.0 * s2) - 3.0
    )
    return MomentVector(mean, std, skew, kurt)


def lognormal_quantile(level, mu: float, sigma: float) -> np.ndarray:
    """Quantile function of ``LogNormal(mu, sigma)`` at *level* (vectorized)."""
    lv = np.atleast_1d(as_float_array(level, name="level"))
    if np.any((lv <= 0.0) | (lv >= 1.0)):
        raise ValidationError("quantile levels must lie strictly inside (0, 1)")
    return np.exp(mu + _z_scores(lv) * sigma)


def lognormal_cdf(x, mu: float, sigma: float) -> np.ndarray:
    """CDF of ``LogNormal(mu, sigma)`` at *x* (vectorized; 0 for x <= 0)."""
    from scipy.special import ndtr

    xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(xq)
    pos = xq > 0.0
    if sigma <= 0.0:
        # Degenerate point mass at exp(mu).
        return (xq >= math.exp(mu)).astype(np.float64)
    out[pos] = ndtr((np.log(xq[pos]) - mu) / sigma)
    return out
