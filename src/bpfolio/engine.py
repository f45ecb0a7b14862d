"""Message-passing iteration: cavity sweeps with self-response corrections,
budget-multiplier closure, damping, and convergence/divergence control."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channels import channel_absolute_deviation_max_sum, channel_for
from .model import BpConfig, CostModel, Diagnostics, Portfolio, ReturnSet

# finite-temperature annealing: one sweep per ladder entry, multiplying beta
# by 2^(1/128) each sweep from 1 up to the top beta, then holding there.
# Coarser ladders (for example doubling with a few hundred sweeps per rung)
# leave the iterate outside the narrowing stability basin of each rung's fixed
# point and stall at percent-level cost error; the fine ramp tracks it
# adiabatically. The zero-temperature solve has no ladder: the max-sum clip has
# no temperature to track, its beta only bounds |m_u|, and at AD_BETA_TOP that
# bound never binds, so it holds at the top beta from its first sweep.
BETA_RAMP_FACTOR = 2.0 ** (1.0 / 128.0)
AD_BETA_TOP = float(2 ** 20)
AD_MAX_SWEEPS = 6000
ZERO_TEMPERATURE_MAX_SWEEPS = 1500

# at very large beta the |u| fixed point goes locally unstable and the iterate
# orbits it on a small limit cycle instead of settling; the cycle is centered
# on the optimum, so an `ad` run above beta 1 that does not reach tol reports
# the time average of m_w over the hold phase at the top beta, after
# discarding its first sweeps: AVG_BURN_SWEEPS of ramp-tracking lag on the
# ladder, ZERO_TEMPERATURE_BURN_SWEEPS of transient from the uniform start.
AVG_BURN_SWEEPS = 1000
ZERO_TEMPERATURE_BURN_SWEEPS = 250

# q_hat beyond this flags the divergent phase (alpha <= 1 or blow-up)
DIVERGENCE_THRESHOLD = 1e6


def default_config(model: CostModel, beta: float = None) -> BpConfig:
    """Solver defaults: single-beta run for smooth costs, a longer budget for |u|.

    The absolute-deviation optimum needs beta -> infinity. With no beta (or
    one of at least AD_BETA_TOP) the `ad` solve is zero-temperature (see
    zero_temperature): it runs the max-sum channel at that beta from the first
    sweep, for ZERO_TEMPERATURE_MAX_SWEEPS. An explicit beta in
    (1, AD_BETA_TOP) anneals the finite-temperature channel up the ladder of
    beta_ladder, and its AD_MAX_SWEEPS budget leaves room for that ramp and a
    hold phase at the top. For the mean-variance cost the fixed point is
    beta-independent, so beta=1 is as exact as any other choice.
    """
    if model.kind == "ad":
        top = float(beta) if beta is not None else AD_BETA_TOP
        if top <= 1.0:
            return BpConfig(beta=top)
        if top >= AD_BETA_TOP:
            return BpConfig(beta=top, max_sweeps=ZERO_TEMPERATURE_MAX_SWEEPS)
        return BpConfig(beta=top, max_sweeps=AD_MAX_SWEEPS)
    if model.kind == "mv":
        # the linear MV iteration contracts to a delta floor near 1e-15, and a
        # loose stop leaves the iterate ~delta/(1-rho) short of the fixed point,
        # which per small components reads as ~1e-6; run it to the floor so the
        # closed-form match holds per component. Its message passing is AMP for
        # least squares, whose error contracts by d + (1-d)/sqrt(alpha) per
        # sweep at damping d (state evolution), so it runs undamped: at alpha 2
        # it reaches the floor in about 97 sweeps, against 225 at d = 0.5.
        return BpConfig(beta=float(beta) if beta is not None else 1.0, damping=0.0,
                        tol=1e-14)
    return BpConfig(beta=float(beta) if beta is not None else 1.0)


def zero_temperature(model: CostModel, config: BpConfig) -> bool:
    """Whether a solve targets the beta -> infinity absolute-deviation optimum.

    That is an `ad` solve whose top beta is at least AD_BETA_TOP, where the
    finite-temperature channel already sits within 1e-3 of its max-sum limit;
    such a solve runs channel_absolute_deviation_max_sum at that beta from its
    first sweep, with no ladder, and its replica overlap is
    theory.rs_zero_temperature_ad.
    """
    return model.kind == "ad" and config.beta >= AD_BETA_TOP


def beta_ladder(model: CostModel, config: BpConfig) -> list[float]:
    """Betas a finite-temperature run walks, one sweep per entry. An `ad`
    solve above beta 1 anneals: from 1 by BETA_RAMP_FACTOR, clamped to end
    exactly at beta, where solve holds. Every other solve runs at [beta]: a
    smooth cost needs no ramp to reach its fixed point. The zero-temperature
    run does not walk it (see zero_temperature)."""
    if model.kind != "ad" or config.beta <= 1.0:
        return [config.beta]
    ladder = [1.0]
    while ladder[-1] < config.beta:
        ladder.append(min(ladder[-1] * BETA_RAMP_FACTOR, config.beta))
    return ladder


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


def period_sweep(returns: ReturnSet, variances, channel, m_w: np.ndarray,
                 chi_w: np.ndarray, m_u: np.ndarray, beta: float, damping: float):
    """New period means and variances (m_u, chi_u) from the asset side.

    The cavity variance chi_tilde_u is variances.to_periods(chi_w) (see
    cavity_variances). The field h_u is (1/sqrt N) sum_k x_k m_wk, a dense
    pass over x, minus the self-response term chi_tilde_u * m_u built from the
    previous period means. channel maps (h, chi_tilde, beta) -> (m, chi).
    """
    chi_tilde_u = variances.to_periods(chi_w)
    h_u = returns.entries.T @ m_w / np.sqrt(returns.n_assets) - chi_tilde_u * m_u
    m_channel, chi_u = channel(h_u, chi_tilde_u, beta)
    return (1.0 - damping) * m_channel + damping * m_u, chi_u


def asset_sweep(returns: ReturnSet, variances, m_w: np.ndarray, m_u: np.ndarray,
                chi_u: np.ndarray, damping: float):
    """New asset means and variances (m_w, chi_w), enforcing the budget through m_tilde.

    The cavity variance chi_tilde_w is variances.to_assets(chi_u), and
    chi_w = 1/chi_tilde_w. The field h_w is (1/sqrt N) sum_mu x_mu m_umu, a
    dense pass over x, plus (not minus) its self-response term
    chi_tilde_w * m_wk from the previous asset means.
    The budget multiplier has the closed form m_tilde = (N - sum chi_w h_w)/sum chi_w
    because the mean update is linear in it, and the undamped means
    chi_w * (h_w + m_tilde) then satisfy sum m_w = N exactly.
    The returned m_w is always a new array, never the m_w passed in.
    A vanishing cavity variance (the alpha <= 1 phase or a blow-up) gives
    chi_w = inf and non-finite means, without a warning; _iterate reads them
    as divergence.
    """
    n = returns.n_assets
    chi_tilde_w = variances.to_assets(chi_u)
    h_w = returns.entries @ m_u / np.sqrt(n) + chi_tilde_w * m_w
    with np.errstate(divide="ignore", invalid="ignore"):
        chi_w = 1.0 / chi_tilde_w
        m_tilde = (n - chi_w @ h_w) / chi_w.sum()
    m_target = chi_w * (h_w + m_tilde)
    return (1.0 - damping) * m_target + damping * m_w, chi_w


def observables(portfolio: Portfolio, returns: ReturnSet, model: CostModel):
    """Overlap q_hat = (1/N) sum w^2 and per-asset cost eps_hat = (1/N) sum_mu R(u_mu)."""
    w = portfolio.positions
    n = returns.n_assets
    u = returns.entries.T @ w / np.sqrt(n)
    q_hat = float(w @ w) / n
    eps_hat = float(model.cost_values(u).sum()) / n
    return q_hat, eps_hat


def solve(returns: ReturnSet, model: CostModel, config: BpConfig = None):
    """Iterate period and asset sweeps until the asset means settle, and
    report the portfolio with diagnostics.

    A finite-temperature solve walks beta_ladder, one sweep pair per entry;
    the final entry holds until convergence or the sweep budget runs out, and
    is the beta the result is reported at. Convergence: max_k |dm_wk| /
    max(1, |m_wk|) < tol, tested once the ladder has been climbed. Divergence
    (a sweep pair with a non-finite m_w or chi_w, or q_hat not finite or above
    DIVERGENCE_THRESHOLD) ends the run and marks it instead of raising.

    A zero-temperature solve (see zero_temperature) first runs the max-sum
    `ad` channel in place of channel_for(model), at config.beta from the first
    sweep, projecting each iterate back onto the budget, which the closure
    alone holds only to roundoff times the size of chi_w. The clip gives
    saturated periods chi_u = 0 exactly, so on a few-asset instance a sweep
    can saturate every period and leave the asset side without variance; when
    that run flags divergence, the solve is repeated with the
    finite-temperature channel up the ladder to config.beta, with a budget of
    at least AD_MAX_SWEEPS, and reports that run.

    Reported portfolio: the final m_w when the run converges (an exact fixed
    point) or diverges (partial state, flagged: the last finite iterate). An
    `ad` run above beta 1 that ends the hold phase still above tol reports the
    burn-in-discarded time average of m_w over that phase instead: near the
    top beta the fixed point loses local stability and the iterate circles it,
    so the instantaneous m_w sits on the cycle while the average sits at its
    center. Every damped iterate satisfies the budget exactly, hence so does
    the average.
    """
    if config is None:
        config = default_config(model)
    if not zero_temperature(model, config):
        return _iterate(returns, model, config, max_sum=False)
    portfolio, diagnostics = _iterate(returns, model, config, max_sum=True)
    if not diagnostics.diverged:
        return portfolio, diagnostics
    # the ladder needs its own budget: at AD_BETA_TOP it takes 2561 sweeps
    # to climb before the hold phase starts
    fallback = replace(config, max_sweeps=max(config.max_sweeps, AD_MAX_SWEEPS))
    return _iterate(returns, model, fallback, max_sum=False)


def _iterate(returns: ReturnSet, model: CostModel, config: BpConfig, max_sum: bool):
    """One run of solve: with max_sum, the max-sum `ad` channel held at
    config.beta and a projection onto the budget after every sweep, else
    channel_for(model) along beta_ladder. The sweeps only compute; each
    pair is judged here, once. A pair with a non-finite m_w or chi_w entry is
    discarded: the run ends diverged, keeping the previous iterate and delta,
    and the pair is not counted."""
    variances = cavity_variances(returns)
    n = returns.n_assets
    # budget-feasible uniform start; period_sweep sets chi_u before it is read
    m_w, chi_w, m_u = np.ones(n), np.ones(n), np.zeros(returns.n_periods)
    if max_sum:
        channel, ladder = channel_absolute_deviation_max_sum, [config.beta]
        burn_in = ZERO_TEMPERATURE_BURN_SWEEPS
    else:
        channel, ladder = channel_for(model), beta_ladder(model, config)
        # only an annealed run holds on a limit cycle; the others report m_w
        burn_in = AVG_BURN_SWEEPS if len(ladder) > 1 else None
    ramp_sweeps = len(ladder) - 1  # sweeps before the final beta

    converged = False
    diverged = False
    delta = np.inf
    total = 0
    avg_accum = np.zeros(n)
    avg_count = 0
    while total < config.max_sweeps:
        beta = ladder[min(total, ramp_sweeps)]
        m_u, chi_u = period_sweep(returns, variances, channel, m_w, chi_w, m_u,
                                  beta, config.damping)
        swept, chi_w = asset_sweep(returns, variances, m_w, m_u, chi_u, config.damping)
        if not (np.isfinite(swept).all() and np.isfinite(chi_w).all()):
            diverged = True
            break
        # swept is a new array, so previous keeps the old iterate and the
        # projection below may add to m_w in place
        previous, m_w = m_w, swept
        if max_sum:
            # the max-sum variances have no scale of their own: on small
            # instances chi_w drifts to 1e9 and beyond, where the budget
            # closure keeps only a few digits, so re-impose sum m_w = N
            m_w += (n - m_w.sum()) / n
        total += 1
        delta = float(np.max(np.abs(m_w - previous) / np.maximum(1.0, np.abs(m_w))))
        q_hat = float(m_w @ m_w) / n
        if not np.isfinite(q_hat) or q_hat > DIVERGENCE_THRESHOLD:
            diverged = True
            break
        if total > ramp_sweeps:
            if delta < config.tol:
                converged = True
                break
            if burn_in is not None and total - ramp_sweeps > burn_in:
                avg_accum += m_w
                avg_count += 1

    if converged or diverged or avg_count == 0:
        positions = m_w
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
