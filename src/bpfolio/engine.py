"""Message-passing iteration: cavity sweeps with self-response corrections,
budget-multiplier closure, damping, and convergence/divergence control."""
from __future__ import annotations

import numpy as np

from .channels import channel_absolute_deviation_max_sum, channel_for
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
    """Solver defaults: single-beta run for smooth costs, a longer budget for |u|.

    The absolute-deviation optimum needs beta -> infinity. Above beta 1 every
    `ad` solve climbs the annealing ramp of beta_ladder, and its budget leaves
    room for that ramp and a hold phase at the top. With no beta (or one of at
    least AD_BETA_TOP) that solve is zero-temperature: it runs the max-sum
    channel on every rung (see zero_temperature). An explicit top below
    AD_BETA_TOP anneals the finite-temperature channel to that beta instead.
    For the mean-variance cost the fixed point is beta-independent, so beta=1
    is as exact as any other choice.
    """
    if model.kind == "ad":
        top = float(beta) if beta is not None else AD_BETA_TOP
        if top <= 1.0:
            return BpConfig(beta=top)
        return BpConfig(beta=top, max_sweeps=AD_MAX_SWEEPS)
    if model.kind == "mv":
        # the linear MV iteration contracts to a delta floor near 1e-15, and a
        # loose stop leaves the iterate ~delta/(1-rho) short of the fixed point,
        # which per small components reads as ~1e-6; run it to the floor so the
        # closed-form match holds per component.
        return BpConfig(beta=float(beta) if beta is not None else 1.0, tol=1e-14)
    return BpConfig(beta=float(beta) if beta is not None else 1.0)


def zero_temperature(model: CostModel, config: BpConfig) -> bool:
    """Whether a solve targets the beta -> infinity absolute-deviation optimum.

    That is an `ad` solve whose top beta is at least AD_BETA_TOP, where the
    finite-temperature channel already sits within 1e-3 of its max-sum limit;
    such a solve runs channel_absolute_deviation_max_sum on every rung, and its
    replica overlap is theory.rs_zero_temperature_ad.
    """
    return model.kind == "ad" and config.beta >= AD_BETA_TOP


def beta_ladder(model: CostModel, config: BpConfig) -> list[float]:
    """Betas to walk, one sweep per entry. An `ad` solve above beta 1 anneals:
    from 1 by BETA_RAMP_FACTOR, clamped to end exactly at beta, where solve
    holds. Every other solve runs at [beta]: a smooth cost needs no ramp to
    reach its fixed point."""
    if model.kind != "ad" or config.beta <= 1.0:
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


# up to this many assets the sweeps weight each edge by its own x_kmu^2; above
# it they take the rank-one closure of RankOneVariances. The closure stands in
# a mean for each sum of N per-edge terms, which few assets cannot supply: over
# 30 draws each at p = 2N and p = 4N, it raised the default `ad` solve's mean
# and worst cost gap to the LP optimum at N <= 16 (the worst fourfold at N = 8,
# p = 2N), was mixed at N = 20 and no worse from N = 24 up.
EDGE_VARIANCE_MAX_ASSETS = 16


class EdgeVariances:
    """Per-edge cavity variances, as message passing derives them:
    chi_tilde_u = (1/N) sum_k x_kmu^2 chi_wk and chi_tilde_w = (1/N) sum_mu
    x_kmu^2 chi_umu, each a dense pass over the stored N x p array x*x."""

    def __init__(self, returns: ReturnSet):
        self.squares = returns.entries * returns.entries
        self.n = returns.n_assets

    def to_periods(self, chi_w: np.ndarray) -> np.ndarray:
        return self.squares.T @ chi_w / self.n

    def to_assets(self, chi_u: np.ndarray) -> np.ndarray:
        return self.squares @ chi_u / self.n


class RankOneVariances:
    """Cavity variances under the rank-one closure x_kmu^2 ~ r_k c_mu / s.

    r holds the row means of x*x, c the column means and s the grand mean, so
    the closure keeps every row sum and column sum of x*x. Then
    chi_tilde_u = c * (r @ chi_w) / (s*N) and chi_tilde_w = r * (c @ chi_u) / (s*N)
    cost O(N + p), and x*x itself is never formed.
    """

    def __init__(self, returns: ReturnSet):
        x = returns.entries
        n, p = x.shape
        r = np.einsum("kt,kt->k", x, x) / p
        self.col = np.einsum("kt,kt->t", x, x) / n
        s = r.mean()
        # x = 0: every cavity variance is 0, as with per-edge x*x
        self.row = r if s == 0.0 else r / (s * n)

    def to_periods(self, chi_w: np.ndarray) -> np.ndarray:
        return self.col * (self.row @ chi_w)

    def to_assets(self, chi_u: np.ndarray) -> np.ndarray:
        return self.row * (self.col @ chi_u)


def cavity_variances(returns: ReturnSet):
    """EdgeVariances up to EDGE_VARIANCE_MAX_ASSETS assets, else RankOneVariances."""
    if returns.n_assets <= EDGE_VARIANCE_MAX_ASSETS:
        return EdgeVariances(returns)
    return RankOneVariances(returns)


def period_sweep(state: BpState, returns: ReturnSet, variances, channel,
                 beta: float, damping: float) -> None:
    """Update the period means and variances in place.

    The cavity variance chi_tilde_u is variances.to_periods(chi_w) (see
    cavity_variances). The field h_u is (1/sqrt N) sum_k x_k m_wk, a dense
    pass over x, minus the self-response term chi_tilde_u * m_u built from the
    previous period means. channel maps (h, chi_tilde, beta) -> (m, chi).
    """
    x = returns.entries
    chi_tilde_u = variances.to_periods(state.chi_w)
    h_u = x.T @ state.m_w / np.sqrt(returns.n_assets) - chi_tilde_u * state.m_u
    m_channel, chi_channel = channel(h_u, chi_tilde_u, beta)
    m_u = (1.0 - damping) * m_channel + damping * state.m_u
    if not np.all(np.isfinite(m_u)):
        raise DivergenceDetected("non-finite period means")
    state.m_u = m_u
    state.chi_u = chi_channel


def asset_sweep(state: BpState, returns: ReturnSet, variances, damping: float) -> None:
    """Update the asset means and variances in place, enforcing the budget through m_tilde.

    The cavity variance chi_tilde_w is variances.to_assets(chi_u), and
    chi_w = 1/chi_tilde_w. The field h_w is (1/sqrt N) sum_mu x_mu m_umu, a
    dense pass over x, plus (not minus) its self-response term
    chi_tilde_w * m_wk from the previous asset means.
    The budget multiplier has the closed form m_tilde = (N - sum chi_w h_w)/sum chi_w
    because the mean update is linear in it, and the undamped means
    chi_w * (h_w + m_tilde) then satisfy sum m_w = N exactly.
    """
    x = returns.entries
    n = returns.n_assets
    chi_tilde_w = variances.to_assets(state.chi_u)
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


def observables(portfolio: Portfolio, returns: ReturnSet, model: CostModel):
    """Overlap q_hat = (1/N) sum w^2 and per-asset cost eps_hat = (1/N) sum_mu R(u_mu)."""
    w = portfolio.positions
    n = returns.n_assets
    u = returns.entries.T @ w / np.sqrt(n)
    q_hat = float(w @ w) / n
    eps_hat = float(model.cost_values(u).sum()) / n
    return q_hat, eps_hat


def solve(returns: ReturnSet, model: CostModel, config: BpConfig = None):
    """Iterate period and asset sweeps (walking the beta ladder of an `ad` solve)
    until the asset means settle, and report the portfolio with diagnostics.

    Each ladder entry gets one sweep pair; the final entry holds until
    convergence or the sweep budget runs out, and is the beta the result is
    reported at. Convergence: max_k |dm_wk| / max(1, |m_wk|) < tol, tested
    once the ladder has been climbed. Divergence (q_hat above
    DIVERGENCE_THRESHOLD, nonpositive cavity variances, or non-finite values)
    marks the run instead of raising; the partial state is returned.

    A zero-temperature solve (see zero_temperature) first runs the max-sum
    `ad` channel in place of channel_for(model), projecting each iterate back
    onto the budget, which the closure alone holds only to roundoff times the
    size of chi_w. The clip gives saturated periods chi_u = 0 exactly, so on
    a few-asset instance a sweep can saturate every period and leave the
    asset side without variance; when that run flags divergence, the solve
    is repeated with the finite-temperature channel, whose result it reports.

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
    if zero_temperature(model, config):
        portfolio, diagnostics = _iterate(returns, model, config, max_sum=True)
        if not diagnostics.diverged:
            return portfolio, diagnostics
    return _iterate(returns, model, config, max_sum=False)


def _iterate(returns: ReturnSet, model: CostModel, config: BpConfig, max_sum: bool):
    """One run of solve: with max_sum, the max-sum `ad` channel and a
    projection onto the budget after every sweep, else channel_for(model)."""
    variances = cavity_variances(returns)
    n = returns.n_assets
    state = init_state(returns)
    channel = channel_absolute_deviation_max_sum if max_sum else channel_for(model)
    ladder = beta_ladder(model, config)
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
            period_sweep(state, returns, variances, channel, beta, config.damping)
            asset_sweep(state, returns, variances, config.damping)
            if max_sum:
                # the max-sum variances have no scale of their own: on small
                # instances chi_w drifts to 1e9 and beyond, where the budget
                # closure keeps only a few digits, so re-impose sum m_w = N
                state.m_w += (n - state.m_w.sum()) / n
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
                if ramp_sweeps > 0 and total - ramp_sweeps > AVG_BURN_SWEEPS:
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
