"""Replica-symmetric order parameters, Marchenko-Pastur moments, annealed costs."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .channels import channel_for
from .model import CostModel, Portfolio, RsSolution
from .special import gauss_hermite_dz

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_FIXED_POINT_DAMPING = 0.5
_FIXED_POINT_CAP = 10_000
_FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralStats:
    """Spectral quantities of the period correlation matrix in the large-N limit."""

    alpha: float
    lambda_minus: float
    lambda_plus: float
    inv_lambda_mean: float
    inv_lambda_sq_mean: float
    q: float
    eps: float


class ReplicaConvergenceError(RuntimeError):
    """The damped replica fixed-point iteration missed its tolerance within
    its iteration cap, as it can near alpha = 1, where it contracts slowly."""


def rs_closed_form_mv(alpha: float, beta: float) -> RsSolution:
    """Exact mean-variance order parameters: q = alpha/(alpha-1), chi = 1/(beta*(alpha-1)).

    A finite alpha <= 1 returns the divergent-phase record (q and chi
    infinite) rather than raising: the divergence is the physical answer there.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if alpha <= 1.0:
        return RsSolution(q=math.inf, chi=math.inf, eta=math.nan, delta=math.nan,
                          alpha=alpha, beta=beta, divergent=True)
    q = alpha / (alpha - 1.0)
    chi = 1.0 / (beta * (alpha - 1.0))
    eta = -math.sqrt(q) / (alpha * chi)
    delta = (q - 1.0) / (alpha * chi * chi)
    return RsSolution(q=q, chi=chi, eta=eta, delta=delta, alpha=alpha, beta=beta)


def rs_fixed_point(alpha: float, beta: float, model: CostModel,
                   order: int = 64) -> RsSolution:
    """Order parameters from the two-equation replica-symmetric fixed point.

    The conditional-mean kernel G(y) = d/dh log int Dz g(z*sqrt(chi)+h) at
    h = y*sqrt(q) is exactly the channel m-function, so the eta and delta
    integrals reuse the channel code path in log domain:
    eta = E_y[y*G(y)], delta = E_y[G(y)^2], with chi = -sqrt(q)/(alpha*eta)
    and q = 1 + alpha*chi^2*delta. Damped iteration starts from the
    mean-variance closed form; a finite alpha <= 1 returns that closed form's
    divergent record, and an iteration that does not settle raises
    ReplicaConvergenceError.
    """
    if order < 32:
        raise ValueError(f"fixed-point quadrature order must be >= 32, got {order}")
    start = rs_closed_form_mv(alpha, beta)
    if start.divergent:
        return start
    y, v = gauss_hermite_dz(order)
    channel = channel_for(model)

    q, chi = start.q, start.chi
    eta = start.eta
    delta = start.delta
    residuals: list[float] = []
    for _ in range(_FIXED_POINT_CAP):
        kernel, _ = channel(y * math.sqrt(q), chi, beta)
        eta = float(v @ (y * kernel))
        delta = float(v @ (kernel * kernel))
        chi_next = -math.sqrt(q) / (alpha * eta)
        q_next = 1.0 + alpha * chi * chi * delta
        residual = max(abs(q_next - q), abs(chi_next - chi))
        residuals.append(residual)
        q = (1.0 - _FIXED_POINT_DAMPING) * q_next + _FIXED_POINT_DAMPING * q
        chi = (1.0 - _FIXED_POINT_DAMPING) * chi_next + _FIXED_POINT_DAMPING * chi
        if residual < _FIXED_POINT_TOL:
            return RsSolution(q=q, chi=chi, eta=eta, delta=delta,
                              alpha=alpha, beta=beta)
    raise ReplicaConvergenceError(
        f"replica fixed point did not converge in {_FIXED_POINT_CAP} iterations; "
        f"last residuals {['%.3e' % r for r in residuals[-5:]]}"
    )


def rs_zero_temperature_ad(alpha: float) -> float:
    """Replica overlap q of the absolute-deviation optimum, the beta -> infinity limit.

    There the channel kernel is the clip -clip(h/chi, -beta, beta), so the
    fixed point has a closed form: the clip level t solves P(|z| <= t) =
    1/alpha, that is t = ndtri(1/2 + 1/(2*alpha)), and
    q = 1/(1 - alpha*E[clip(z, -t, t)^2]) = 1/(2*alpha*t*(phi(t) - t*Phibar(t)))
    for standard normal z. A finite alpha <= 1 gives inf, the divergent phase.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha <= 1.0:
        return math.inf
    t = float(ndtri(0.5 + 0.5 / alpha))
    density = math.exp(-0.5 * t * t) / _SQRT_2PI
    return 1.0 / (2.0 * alpha * t * (density - t * float(ndtr(-t))))


def mp_bulk_expectation(alpha: float, f: Callable[[float], float]) -> float:
    """integral of rho(lambda)*f(lambda) over the bulk support, absolute tolerance 1e-10.

    The substitution lambda = m + r*sin(theta) absorbs the square-root edges,
    leaving a smooth integrand for the adaptive rule. scipy.integrate is
    imported here, so loading the package does not pay for it.
    """
    from scipy.integrate import quad

    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    lo = (1.0 - math.sqrt(alpha)) ** 2
    hi = (1.0 + math.sqrt(alpha)) ** 2
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)

    def integrand(theta: float) -> float:
        lam = mid + rad * math.sin(theta)
        return rad * rad * math.cos(theta) ** 2 * f(lam) / (2.0 * math.pi * lam)

    value, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def marchenko_pastur(alpha: float) -> SpectralStats:
    """Closed-form spectral statistics; inverse moments are infinite for alpha <= 1.

    For alpha <= 1 the spectrum carries an atom at zero, so <1/lambda> and
    <1/lambda^2> diverge and q with them; eps is 0 because a perfect hedge
    exists in that phase.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    lo = (1.0 - math.sqrt(alpha)) ** 2
    hi = (1.0 + math.sqrt(alpha)) ** 2
    if alpha <= 1.0:
        return SpectralStats(alpha=alpha, lambda_minus=lo, lambda_plus=hi,
                             inv_lambda_mean=math.inf, inv_lambda_sq_mean=math.inf,
                             q=math.inf, eps=0.0)
    inv_mean = 1.0 / (alpha - 1.0)
    inv_sq_mean = alpha / (alpha - 1.0) ** 3
    return SpectralStats(
        alpha=alpha,
        lambda_minus=lo,
        lambda_plus=hi,
        inv_lambda_mean=inv_mean,
        inv_lambda_sq_mean=inv_sq_mean,
        q=inv_sq_mean / inv_mean ** 2,
        eps=0.5 / inv_mean,
    )


def annealed_cost(model: str, alpha: float, s: float, gamma: float = None) -> float:
    """Expected per-asset cost of a fixed portfolio with spread s over random returns.

    mv: alpha*s^2/2; ad: 2*alpha*s/sqrt(2*pi); es: min over v >= 0 of
    alpha*(v*gamma + H(v/s)). Its slope alpha*(gamma - phi(v/s)/s) increases
    on v >= 0, so the minimizer is where the density meets gamma, in closed
    form v* = s*sqrt(max(-2*log(gamma*s*sqrt(2*pi)), 0)).
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0 <= s < math.inf:
        raise ValueError("spread s must be nonnegative and finite")
    if model == "mv":
        return 0.5 * alpha * s * s
    if model == "ad":
        return 2.0 * alpha * s / _SQRT_2PI
    if model == "es":
        if gamma is None or not 0 < gamma < math.inf:
            raise ValueError("expected-shortfall cost requires a finite gamma > 0")
        if s == 0.0:
            return 0.0  # limit: v -> 0 kills both terms
        # a sum of logs, because the product gamma*s can under- or overflow
        t_star = math.sqrt(max(-2.0 * (math.log(gamma) + math.log(s) + _LOG_SQRT_2PI), 0.0))
        return alpha * (s * t_star * gamma + float(ndtr(-t_star)))
    raise ValueError(f"unknown annealed cost model {model!r}")


def portfolio_similarity(a: Portfolio, b: Portfolio) -> float:
    """Cosine similarity of two position vectors."""
    va, vb = a.positions, b.positions
    if va.size != vb.size:
        raise ValueError(f"portfolio lengths differ: {va.size} vs {vb.size}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero portfolio")
    return float(va @ vb / (na * nb))
