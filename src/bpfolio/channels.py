"""Likelihood channels: the cost-dependent map (h_u, chi_tilde_u, beta) -> (m_u, chi_u).

Each channel returns the first two log-partition derivatives of
Z(h) = integral Dz g(z*sqrt(chi_tilde) + h) with g(u) = exp(-beta*R(u)):
m_u = d/dh log Z and chi_u = -d^2/dh^2 log Z. Closed forms cover the
mean-variance and absolute-deviation costs; arbitrary costs go through
adaptive quadrature.
"""
from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar
from scipy.special import erfcx

from .model import CostModel
from .special import log_gaussian_tail, mills_excess

_SQRT2 = np.sqrt(2.0)

# the Gaussian prior on z makes anything beyond this many sigmas from both the
# prior center and the cost minimum numerically zero (exp(-46^2/2) ~ 1e-460)
_WINDOW_MARGIN = 46.0
# log-domain cutoff: contributions below exp(-745) vanish in double precision
_LOG_FLOOR = 745.0


def channel_mean_variance(h, chi_tilde, beta):
    """Closed form for R(u) = u^2/2: m = -beta*h/(1+beta*chi), chi = beta/(1+beta*chi)."""
    h = np.asarray(h, dtype=float)
    chi_tilde = np.asarray(chi_tilde, dtype=float)
    h, chi_tilde = np.broadcast_arrays(h, chi_tilde)
    gain = beta / (1.0 + beta * chi_tilde)
    m_u = -gain * h
    chi_u = gain + np.zeros_like(h)
    if m_u.ndim == 0:
        return float(m_u), float(chi_u)
    return m_u, chi_u


def channel_absolute_deviation(h, chi_tilde, beta):
    """Closed form for R(u) = |u| via Gaussian tails.

    m = beta * tanh(A) with A = beta*h + (log H(u+) - log H(u-))/2 and
    u+- = beta*sqrt(chi) +- h/sqrt(chi); chi = -beta*(1-tanh^2 A)*
    (beta - (mills(u+)+mills(u-))/(2*sqrt(chi))). Both expressions are
    rearranged so the beta-sized cancellations happen in algebra, not in
    floating point: when both tail arguments are positive, A reduces to
    half the log-ratio of scaled complementary error functions, and the
    chi slope keeps only the mills-ratio excess over its argument.
    """
    h = np.asarray(h, dtype=float)
    chi_tilde = np.asarray(chi_tilde, dtype=float)
    h, chi_tilde = np.broadcast_arrays(h, chi_tilde)

    root = np.sqrt(chi_tilde)
    u_plus = beta * root + h / root
    u_minus = beta * root - h / root

    a = np.empty_like(h)
    both = (u_plus > 0.0) & (u_minus > 0.0)
    if np.any(both):
        # beta*h cancels against -(u+^2 - u-^2)/4 exactly, leaving the stable ratio
        a[both] = 0.5 * (
            np.log(erfcx(u_plus[both] / _SQRT2)) - np.log(erfcx(u_minus[both] / _SQRT2))
        )
    rest = ~both
    if np.any(rest):
        a[rest] = beta * h[rest] + 0.5 * (
            log_gaussian_tail(u_plus[rest]) - log_gaussian_tail(u_minus[rest])
        )

    t = np.tanh(a)
    m_u = beta * t
    # beta - (mills(u+)+mills(u-))/(2 root) with (u+ + u-)/(2 root) = beta removed in algebra
    slope = -(mills_excess(u_plus) + mills_excess(u_minus)) / (2.0 * root)
    chi_u = np.maximum(-beta * (1.0 - t * t) * slope, 0.0)
    if m_u.ndim == 0:
        return float(m_u), float(chi_u)
    return m_u, chi_u


def _tilted_moments(h: float, chi_tilde: float, beta: float,
                    cost: Callable, order: int) -> tuple[float, float]:
    """Mean and variance of z under the posterior ~ Dz * exp(-beta*R(z*sqrt(chi)+h)).

    A coarse scan localizes the posterior mode, a bounded 1-d search refines it
    to get the log-domain shift, and adaptive Gauss-Kronrod integration does the
    rest. This stays accurate for kinked costs where a fixed Gauss-Hermite sum
    stalls near 1e-3 relative error.
    """
    root = np.sqrt(chi_tilde)

    def psi(z):
        u = z * root + h
        return -0.5 * np.asarray(z) ** 2 - beta * np.asarray(cost(u), dtype=float)

    center = -h / root  # cost-dominated region for coercive R
    lo = min(0.0, center) - _WINDOW_MARGIN
    hi = max(0.0, center) + _WINDOW_MARGIN
    grid = np.linspace(lo, hi, 8 * order)
    values = psi(grid)
    if not np.all(np.isfinite(values)):
        bad = grid[~np.isfinite(values)][0]
        raise ValueError(
            f"cost function is not finite at u={bad * root + h!r} (node z={bad!r})"
        )

    peak_index = int(np.argmax(values))
    step = grid[1] - grid[0]
    bracket_lo = grid[max(peak_index - 1, 0)]
    bracket_hi = grid[min(peak_index + 1, grid.size - 1)]
    refined = minimize_scalar(
        lambda z: -float(psi(z)),
        bounds=(bracket_lo, bracket_hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    z_star = float(refined.x)
    shift = max(-float(refined.fun), float(values[peak_index]))

    live = values - shift > -_LOG_FLOOR
    a = min(float(grid[live].min()) if np.any(live) else z_star, z_star) - step
    b = max(float(grid[live].max()) if np.any(live) else z_star, z_star) + step

    def weight(z):
        return np.exp(float(psi(z)) - shift)

    opts = {"points": [z_star], "limit": 400, "epsabs": 1e-15, "epsrel": 1e-12}
    with warnings.catch_warnings():
        # tolerances sit at the roundoff floor on purpose; the roundoff
        # warning is expected and the accuracy is checked against closed forms
        warnings.simplefilter("ignore", IntegrationWarning)
        z0 = quad(weight, a, b, **opts)[0]
        z1 = quad(lambda z: z * weight(z), a, b, **opts)[0]
        mean = z1 / z0
        z2c = quad(lambda z: (z - mean) ** 2 * weight(z), a, b, **opts)[0]
        variance = z2c / z0
    return mean, variance


def channel_generic(h, chi_tilde, beta, cost, order: int = 64):
    """Quadrature channel for an arbitrary finite cost R(u).

    Derivatives of log Z are taken through exact moment identities
    (integration by parts), so no derivative of R is ever needed:
    m = E[z]/sqrt(chi) and chi = (1 - Var[z])/chi under the tilted measure.
    """
    if not 16 <= order <= 256:
        raise ValueError(f"generic channel order must be in [16, 256], got {order}")
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    chi_arr = np.broadcast_to(np.asarray(chi_tilde, dtype=float), h_arr.shape)
    m_out = np.empty_like(h_arr)
    chi_out = np.empty_like(h_arr)
    for i in range(h_arr.size):
        mean, variance = _tilted_moments(h_arr.flat[i], chi_arr.flat[i], beta, cost, order)
        root = np.sqrt(chi_arr.flat[i])
        m_out.flat[i] = mean / root
        chi_out.flat[i] = max((1.0 - variance) / chi_arr.flat[i], 0.0)
    if not (np.all(np.isfinite(m_out)) and np.all(np.isfinite(chi_out))):
        raise ValueError("quadrature channel produced non-finite output")
    if np.asarray(h).ndim == 0:
        return float(m_out[0]), float(chi_out[0])
    return m_out, chi_out


def channel_for(model: CostModel) -> Callable:
    """Channel function (h, chi_tilde, beta) -> (m_u, chi_u) for a cost model."""
    if model.kind == "mv":
        return channel_mean_variance
    if model.kind == "ad":
        return channel_absolute_deviation

    def generic(h, chi_tilde, beta):
        return channel_generic(h, chi_tilde, beta, model.cost, model.order)

    return generic
