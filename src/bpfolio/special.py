"""Numerically robust scalar kernels for Gaussian-tail arithmetic.

Everything here works in log domain or in cancellation-free rearrangements so
that downstream channel formulas stay accurate when their arguments scale with
beta * sqrt(chi_tilde), which can reach 1e8. Each kernel takes a scalar or an
array and, by numpy's 0-d rule, returns a scalar for scalar input.
"""
from __future__ import annotations

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


def log_gaussian_tail(u):
    """log H(u) where H(u) = integral of the standard normal density over [u, inf).

    H(u) is the normal CDF at -u, and scipy's log_ndtr keeps ~1e-15 relative
    accuracy of the log value across the full double range, with no underflow
    of the quadratic decay for large u.
    """
    return log_ndtr(-np.asarray(u, dtype=float))


def mills_ratio(u):
    """Inverse Mills ratio phi(u) / H(u); positive, ~ u + 1/u for large u."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    lo = u < _MILLS_PDF_CUTOFF
    # H(u) = 1 within 1e-148 below the cutoff, so the ratio is the density itself
    out[lo] = np.exp(-0.5 * u[lo] * u[lo] - _LOG_SQRT_2PI)
    out[~lo] = _SQRT_2_OVER_PI / erfcx(u[~lo] / _SQRT2)
    return out[()]


def mills_excess(u):
    """mills_ratio(u) - u without the cancellation the direct difference suffers.

    The direct form loses ~u^2 ulps; past the series cutoff the asymptotic
    expansion 1/u - 2/u^3 + 10/u^5 - 74/u^7 + 706/u^9 is accurate to ~1e-13
    relative, and below it the direct form still carries >= 12 digits.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    hi = u > _MILLS_EXCESS_SERIES_CUTOFF
    r = 1.0 / u[hi]
    r2 = r * r
    out[hi] = r * (1.0 + r2 * (-2.0 + r2 * (10.0 + r2 * (-74.0 + 706.0 * r2))))
    out[~hi] = mills_ratio(u[~hi]) - u[~hi]
    return out[()]


def gauss_hermite_dz(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the Gauss-Hermite rule for the measure
    Dz = dz exp(-z^2/2)/sqrt(2 pi); E[f(z)] ~ weights @ f(nodes).

    Exact for polynomials up to degree 2*order - 1; weights renormalized to
    sum to one so that E[1] = 1 holds exactly.
    """
    if not 1 <= order <= 256:
        raise ValueError(f"quadrature order must be in [1, 256], got {order}")
    nodes, weights = hermegauss(order)
    return nodes, weights / weights.sum()
