"""Message-passing iteration: cavity sweeps with self-response corrections,
budget-multiplier closure, damping, and convergence/divergence control."""
from __future__ import annotations

import numpy as np

from .channels import channel_for
from .model import (
    BpConfig,
    BpState,
    CostModel,
    Diagnostics,
    Portfolio,
    ReturnSet,
)

# annealing: one sweep per ladder entry, multiplying beta by 2^(1/128) each
# sweep from 1 up to the top beta, then holding there. Coarser ladders (for
# example doubling with a few hundred sweeps per rung) leave the iterate outside
# the narrowing stability basin of each rung's fixed point and stall at
# percent-level cost error; the fine ramp tracks it adiabatically.
BETA_RAMP_FACTOR = 2.0 ** (1.0 / 128.0)
AD_BETA_TOP = float(2 ** 20)
AD_MAX_SWEEPS = 6000

# at very large beta the |u| fixed point goes locally unstable and the iterate
# orbits it on a small limit cycle instead of settling; the cycle is centered
# on the optimum, so for annealed runs that do not reach tol the reported
# portfolio is the time average of m_w over the hold phase at the top beta,
# after discarding the first AVG_BURN_SWEEPS sweeps of ramp-tracking lag.
AVG_BURN_SWEEPS = 1000

# q_hat beyond this flags the divergent phase (alpha <= 1 or blow-up)
DIVERGENCE_THRESHOLD = 1e6


class DivergenceDetected(RuntimeError):
    """Iteration produced a non-finite or unbounded state (alpha <= 1 phase or blow-up)."""


def default_config(model: CostModel, beta: float = None) -> BpConfig:
    """Solver defaults: single-beta run for smooth costs, annealing ramp for |u|.

    The absolute-deviation optimum needs beta -> infinity; ramping beta a tiny
    factor per sweep keeps the state glued to the moving fixed point all the
    way up. For the mean-variance cost the fixed point is beta-independent, so
    beta=1 is as exact as any other choice and needs no ramp.
    """
    if model.kind == "ad":
        top = float(beta) if beta is not None else AD_BETA_TOP
        if top <= 1.0:
            return BpConfig(beta=top)
        return BpConfig(beta=top, anneal=True, max_sweeps=AD_MAX_SWEEPS)
    if model.kind == "mv":
        # the linear MV iteration contracts to a delta floor near 1e-15, and a
        # loose stop leaves the iterate ~delta/(1-rho) short of the fixed point,
        # which per small components reads as ~1e-6; run it to the floor so the
        # closed-form match holds per component.
        return BpConfig(beta=float(beta) if beta is not None else 1.0, tol=1e-14)
    return BpConfig(beta=float(beta) if beta is not None else 1.0)


def beta_ladder(config: BpConfig) -> list[float]:
    """Betas to walk, one sweep per entry: [beta] without annealing, else from 1
    by BETA_RAMP_FACTOR, clamped to end exactly at beta, where solve holds."""
    if not config.anneal:
        return [config.beta]
    ladder = [1.0]
    while ladder[-1] < config.beta:
        ladder.append(min(ladder[-1] * BETA_RAMP_FACTOR, config.beta))
    return ladder


def init_state(returns: ReturnSet) -> BpState:
    """Budget-feasible uniform start: m_w = chi_w = 1, period side zeroed."""
    n, p = returns.n_assets, returns.n_periods
    return BpState(
        m_w=np.ones(n),
        chi_w=np.ones(n),
        m_u=np.zeros(p),
        chi_u=np.zeros(p),
        m_tilde=0.0,
    )


def period_sweep(state: BpState, returns: ReturnSet, squares: np.ndarray, channel,
                 beta: float, damping: float) -> BpState:
    """Update the period means and variances in place.

    chi_tilde_u = (1/N) sum_k x_k^2 chi_wk and h_u = (1/sqrt N) sum_k x_k m_wk
    minus the self-response term chi_tilde_u * m_u built from the previous
    period means; squares is x*x. channel maps (h, chi_tilde, beta) -> (m, chi).
    """
    x = returns.entries
    n = returns.n_assets
    chi_tilde_u = squares.T @ state.chi_w / n
    h_u = x.T @ state.m_w / np.sqrt(n) - chi_tilde_u * state.m_u
    m_channel, chi_channel = channel(h_u, chi_tilde_u, beta)
    m_u = (1.0 - damping) * m_channel + damping * state.m_u
    if not np.all(np.isfinite(m_u)):
        raise DivergenceDetected("non-finite period means")
    state.m_u = m_u
    state.chi_u = chi_channel
    return state


def asset_sweep(state: BpState, returns: ReturnSet, squares: np.ndarray,
                damping: float) -> BpState:
    """Update the asset means and variances in place, enforcing the budget through m_tilde.

    h_w adds (not subtracts) its self-response term chi_tilde_w * m_wk from the
    previous asset means, and chi_w = 1/chi_tilde_w; squares is x*x. The budget
    multiplier has the closed form m_tilde = (N - sum chi_w h_w)/sum chi_w
    because the mean update is linear in it, and the undamped means
    chi_w * (h_w + m_tilde) then satisfy sum m_w = N exactly.
    """
    x = returns.entries
    n = returns.n_assets
    chi_tilde_w = squares @ state.chi_u / n
    if not np.all(np.isfinite(chi_tilde_w)) or np.any(chi_tilde_w <= 0.0):
        raise DivergenceDetected(
            "nonpositive asset-side cavity variance (alpha <= 1 regime or blow-up)"
        )
    h_w = x @ state.m_u / np.sqrt(n) + chi_tilde_w * state.m_w
    chi_w = 1.0 / chi_tilde_w
    m_tilde = (n - chi_w @ h_w) / chi_w.sum()
    m_target = chi_w * (h_w + m_tilde)
    m_w = (1.0 - damping) * m_target + damping * state.m_w
    if not np.all(np.isfinite(m_w)):
        raise DivergenceDetected("non-finite asset means")
    state.chi_w = chi_w
    state.m_tilde = float(m_tilde)
    state.m_w = m_w
    return state


def observables(portfolio: Portfolio, returns: ReturnSet, model: CostModel):
    """Overlap q_hat = (1/N) sum w^2 and per-asset cost eps_hat = (1/N) sum_mu R(u_mu)."""
    w = portfolio.positions
    n = returns.n_assets
    u = returns.entries.T @ w / np.sqrt(n)
    q_hat = float(w @ w) / n
    eps_hat = float(model.cost_values(u).sum()) / n
    return q_hat, eps_hat


def solve(returns: ReturnSet, model: CostModel, config: BpConfig = None):
    """Iterate period and asset sweeps (walking the beta ladder if configured)
    until the asset means settle, and report the portfolio with diagnostics.

    Each ladder entry gets one sweep pair; the final entry holds until
    convergence or the sweep budget runs out, and is the beta the result is
    reported at. Convergence: max_k |dm_wk| / max(1, |m_wk|) < tol, tested
    once the ladder has been climbed. Divergence (q_hat above
    DIVERGENCE_THRESHOLD, nonpositive cavity variances, or non-finite values)
    marks the run instead of raising; the partial state is returned.

    Reported portfolio: the final m_w when the run converges (an exact fixed
    point) or diverges (partial state, flagged). An annealed run that ends the
    hold phase still above tol reports the burn-in-discarded time average of
    m_w over that phase instead: near the top beta the fixed point loses local
    stability and the iterate circles it, so the instantaneous m_w sits on the
    cycle while the average sits at its center. Every damped iterate satisfies
    the budget exactly, hence so does the average.
    """
    if config is None:
        config = default_config(model)
    x = returns.entries
    squares = x * x
    n = returns.n_assets
    state = init_state(returns)
    channel = channel_for(model)
    ladder = beta_ladder(config)
    ramp_sweeps = len(ladder) - 1  # sweeps before the final beta

    converged = False
    diverged = False
    delta = np.inf
    total = 0
    avg_accum = np.zeros(n)
    avg_count = 0
    try:
        while total < config.max_sweeps:
            beta = ladder[min(total, ramp_sweeps)]
            previous = state.m_w
            period_sweep(state, returns, squares, channel, beta, config.damping)
            asset_sweep(state, returns, squares, config.damping)
            total += 1
            delta = float(np.max(
                np.abs(state.m_w - previous) / np.maximum(1.0, np.abs(state.m_w))
            ))
            q_hat = float(state.m_w @ state.m_w) / n
            if not np.isfinite(q_hat) or q_hat > DIVERGENCE_THRESHOLD:
                raise DivergenceDetected(f"q_hat={q_hat:.3e} beyond threshold")
            if total > ramp_sweeps:
                if delta < config.tol:
                    converged = True
                    break
                if config.anneal and total - ramp_sweeps > AVG_BURN_SWEEPS:
                    avg_accum += state.m_w
                    avg_count += 1
    except DivergenceDetected:
        diverged = True
        converged = False

    if converged or diverged or avg_count == 0:
        positions = state.m_w.copy()
    else:
        positions = avg_accum / avg_count
    portfolio = Portfolio(positions=positions)
    with np.errstate(all="ignore"):
        q_hat, eps_hat = observables(portfolio, returns, model)
    diagnostics = Diagnostics(
        q_hat=q_hat,
        eps_hat=eps_hat,
        converged=converged,
        diverged=diverged,
        sweeps_used=total,
        final_delta=delta,
    )
    return portfolio, diagnostics
