"""Numerically robust scalar kernels for Gaussian-tail arithmetic.

Everything here works in log domain or in cancellation-free rearrangements so
that downstream channel formulas stay accurate when their arguments scale with
beta * sqrt(chi_tilde), which can reach 1e8.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import erfcx, log_ndtr

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# below this the scaled complementary error function overflows (exp(u^2/2) > 1e308)
_MILLS_PDF_CUTOFF = -26.0
# above this the asymptotic series for mills_ratio(u) - u beats direct subtraction
_MILLS_EXCESS_SERIES_CUTOFF = 50.0


def _apply_scalar_safe(u, fn):
    """Evaluate fn on a float array view of u, returning a scalar for scalar input."""
    arr = np.asarray(u, dtype=float)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def log_gaussian_tail(u):
    """log H(u) where H(u) = integral of the standard normal density over [u, inf).

    Relative accuracy of the log value is ~1e-15 across the full double range;
    u > 0 goes through the scaled complementary error function so the quadratic
    decay never underflows, u <= 0 through the log-CDF complement.
    """

    def _eval(arr):
        out = np.empty_like(arr)
        pos = arr > 0.0
        if np.any(pos):
            up = arr[pos]
            out[pos] = -0.5 * up * up + np.log(0.5 * erfcx(up / _SQRT2))
        if np.any(~pos):
            out[~pos] = log_ndtr(-arr[~pos])
        return out

    return _apply_scalar_safe(u, _eval)


def mills_ratio(u):
    """Inverse Mills ratio phi(u) / H(u); positive, ~ u + 1/u for large u."""

    def _eval(arr):
        out = np.empty_like(arr)
        lo = arr < _MILLS_PDF_CUTOFF
        if np.any(lo):
            # H(u) = 1 within 1e-148 here, so the ratio is the density itself
            v = arr[lo]
            out[lo] = np.exp(-0.5 * v * v - _LOG_SQRT_2PI)
        if np.any(~lo):
            v = arr[~lo]
            out[~lo] = _SQRT_2_OVER_PI / erfcx(v / _SQRT2)
        return out

    return _apply_scalar_safe(u, _eval)


def mills_excess(u):
    """mills_ratio(u) - u without the cancellation the direct difference suffers.

    The direct form loses ~u^2 ulps; past the series cutoff the asymptotic
    expansion 1/u - 2/u^3 + 10/u^5 - 74/u^7 + 706/u^9 is accurate to ~1e-13
    relative, and below it the direct form still carries >= 12 digits.
    """

    def _eval(arr):
        out = np.empty_like(arr)
        hi = arr > _MILLS_EXCESS_SERIES_CUTOFF
        if np.any(hi):
            r = 1.0 / arr[hi]
            r2 = r * r
            out[hi] = r * (1.0 + r2 * (-2.0 + r2 * (10.0 + r2 * (-74.0 + 706.0 * r2))))
        if np.any(~hi):
            v = arr[~hi]
            out[~hi] = mills_ratio(v) - v
        return out

    return _apply_scalar_safe(u, _eval)


@lru_cache(maxsize=None)
def gauss_hermite_dz(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the Gauss-Hermite rule for the measure
    Dz = dz exp(-z^2/2)/sqrt(2 pi); E[f(z)] ~ weights @ f(nodes).

    Exact for polynomials up to degree 2*order - 1; weights renormalized to
    sum to one so that E[1] = 1 holds exactly.
    """
    if not 1 <= order <= 256:
        raise ValueError(f"quadrature order must be in [1, 256], got {order}")
    nodes, weights = hermegauss(order)
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
