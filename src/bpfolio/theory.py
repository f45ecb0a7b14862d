"""Replica-symmetric order parameters, Marchenko-Pastur moments, annealed costs."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .channels import channel_for
from .model import CostModel, Portfolio, RsSolution
from .special import gauss_hermite_dz, log_gaussian_tail

_SQRT_2PI = math.sqrt(2.0 * math.pi)
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


def _check_replica_inputs(alpha: float, beta: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")


def rs_closed_form_mv(alpha: float, beta: float) -> RsSolution:
    """Exact mean-variance order parameters: q = alpha/(alpha-1), chi = 1/(beta*(alpha-1)).

    A finite alpha <= 1 returns the divergent-phase record (q and chi
    infinite) rather than raising: the divergence is the physical answer there.
    """
    _check_replica_inputs(alpha, beta)
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
    mean-variance closed form.
    """
    if order < 32:
        raise ValueError(f"fixed-point quadrature order must be >= 32, got {order}")
    _check_replica_inputs(alpha, beta)
    if alpha <= 1.0:
        return RsSolution(q=math.inf, chi=math.inf, eta=math.nan, delta=math.nan,
                          alpha=alpha, beta=beta, divergent=True)
    y, v = gauss_hermite_dz(order)
    channel = channel_for(model)

    start = rs_closed_form_mv(alpha, beta)
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
    raise RuntimeError(
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


def mp_bulk_density(alpha: float, lam) -> np.ndarray:
    """Continuous part of the Marchenko-Pastur density (the alpha<1 atom at 0 is separate)."""
    lam = np.asarray(lam, dtype=float)
    lo = (1.0 - math.sqrt(alpha)) ** 2
    hi = (1.0 + math.sqrt(alpha)) ** 2
    inside = (lam > lo) & (lam < hi)
    out = np.zeros_like(lam)
    out[inside] = np.sqrt((lam[inside] - lo) * (hi - lam[inside])) / (2.0 * np.pi * lam[inside])
    return out


def mp_bulk_expectation(alpha: float, f: Callable[[float], float]) -> float:
    """integral of rho(lambda)*f(lambda) over the bulk support, absolute tolerance 1e-10.

    The substitution lambda = m + r*sin(theta) absorbs the square-root edges,
    leaving a smooth integrand for the adaptive rule.
    """
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


def _golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                        xatol: float) -> float:
    """Deterministic golden-section minimizer for a unimodal function on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def annealed_cost(model: str, alpha: float, s: float, gamma: float = None) -> float:
    """Expected per-asset cost of a fixed portfolio with spread s over random returns.

    mv: alpha*s^2/2; ad: 2*alpha*s/sqrt(2*pi); es: min over v >= 0 of
    alpha*(v*gamma + H(v/s)) by golden-section search (tolerance 1e-12 in v).
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
        log_arg = gamma * _SQRT_2PI * s
        inner = max(2.0 * math.log(1.0 / log_arg) + 1.0, 0.0)
        hi = 20.0 * s * max(1.0, math.sqrt(inner))

        def objective(v: float) -> float:
            return alpha * (v * gamma + math.exp(log_gaussian_tail(v / s)))

        v_star = _golden_section_min(objective, 0.0, hi, xatol=1e-12)
        return min(objective(v_star), objective(0.0))
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
