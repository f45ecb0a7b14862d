"""Message-passing iteration: cavity sweeps with self-response corrections,
budget-multiplier closure, damping, and convergence/divergence control."""
from __future__ import annotations

import math
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

# a sweep pair whose overlap swept @ swept / N is not at most this (NaN, or
# above it) is discarded and ends the run diverged (alpha <= 1 or blow-up)
DIVERGENCE_THRESHOLD = 1e6


def default_config(model: CostModel, beta: float = None) -> BpConfig:
    """Solver defaults: single-beta run for smooth costs, a longer budget for |u|.

    The absolute-deviation optimum needs beta -> infinity. With no beta (or
    one of at least AD_BETA_TOP) the `ad` solve is zero-temperature (see
    zero_temperature): it runs the max-sum channel at that beta from the first
    sweep, for ZERO_TEMPERATURE_MAX_SWEEPS. An explicit beta in
    (1, AD_BETA_TOP) anneals the finite-temperature channel up the ladder of
    beta_ladder, and its AD_MAX_SWEEPS budget leaves room for that ramp and a
    hold phase at the top. The mean-variance optimum does not depend on beta,
    and far from 1 the sweeps lose digits, so `mv` gets beta 1 for any valid beta.
    """
    if model.kind == "ad":
        top = float(beta) if beta is not None else AD_BETA_TOP
        if top <= 1.0:
            return BpConfig(beta=top)
        if top >= AD_BETA_TOP:
            return BpConfig(beta=top, max_sweeps=ZERO_TEMPERATURE_MAX_SWEEPS)
        return BpConfig(beta=top, max_sweeps=AD_MAX_SWEEPS)
    config = BpConfig(beta=float(beta) if beta is not None else 1.0)
    if model.kind == "mv":
        # the linear MV iteration contracts to a delta floor near 1e-15, and a
        # loose stop leaves the iterate ~delta/(1-rho) short of the fixed point,
        # which per small components reads as ~1e-6; run it to the floor so the
        # closed-form match holds per component
        return replace(config, beta=1.0, tol=1e-14)
    return config


def zero_temperature(model: CostModel, config: BpConfig) -> bool:
    """Whether a solve targets the beta -> infinity absolute-deviation optimum.

    That is an `ad` solve whose top beta is at least AD_BETA_TOP, where the
    finite-temperature channel already sits within 1e-3 of its max-sum limit;
    such a solve runs channel_absolute_deviation_max_sum at that beta from its
    first sweep, with no ladder, and its replica overlap and cost are
    theory.rs_zero_temperature_ad.
    """
    return model.kind == "ad" and config.beta >= AD_BETA_TOP


def beta_ladder(model: CostModel, config: BpConfig) -> list[float]:
    """Betas a finite-temperature run walks, one sweep per entry. An `ad`
    solve above beta 1 anneals: from 1 by BETA_RAMP_FACTOR, clamped to end
    exactly at beta, where solve holds. Every other solve runs at [beta]
    ([1.0] for `mv`): a smooth cost needs no ramp to reach its fixed point.
    The zero-temperature run does not walk it (see zero_temperature)."""
    if model.kind != "ad" or config.beta <= 1.0:
        return [1.0 if model.kind == "mv" else config.beta]
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
    x_kmu^2 chi_umu, each a dense pass over the stored N x p array x*x (one
    per instance of a stack)."""

    def __init__(self, x: np.ndarray):
        self.squares = x * x
        self.n = x.shape[-2]

    def to_periods(self, chi_w: np.ndarray) -> np.ndarray:
        return np.matvec(self.squares.mT, chi_w) / self.n

    def to_assets(self, chi_u: np.ndarray) -> np.ndarray:
        return np.matvec(self.squares, chi_u) / self.n


class RankOneVariances:
    """Cavity variances under the rank-one closure x_kmu^2 ~ r_k c_mu / s.

    r holds the row means of x*x, c the column means and s the grand mean, so
    the closure keeps every row sum and column sum of x*x. Then
    chi_tilde_u = c * (r @ chi_w) / (s*N) and chi_tilde_w = r * (c @ chi_u) / (s*N)
    cost O(N + p) per instance, and x*x itself is never formed.
    """

    def __init__(self, x: np.ndarray):
        n, p = x.shape[-2:]
        r = np.einsum("...kt,...kt->...k", x, x) / p
        self.col = np.einsum("...kt,...kt->...t", x, x) / n
        s = r.mean(axis=-1, keepdims=True)
        # x = 0: every cavity variance is 0, as with per-edge x*x
        self.row = np.divide(r, s * n, out=np.zeros_like(r), where=s != 0.0)

    def to_periods(self, chi_w: np.ndarray) -> np.ndarray:
        return self.col * np.vecdot(self.row, chi_w, keepdims=True)

    def to_assets(self, chi_u: np.ndarray) -> np.ndarray:
        return self.row * np.vecdot(self.col, chi_u, keepdims=True)


def cavity_variances(x: np.ndarray):
    """EdgeVariances up to EDGE_VARIANCE_MAX_ASSETS assets, else RankOneVariances."""
    if x.shape[-2] <= EDGE_VARIANCE_MAX_ASSETS:
        return EdgeVariances(x)
    return RankOneVariances(x)


def period_sweep(x: np.ndarray, variances, channel, m_w: np.ndarray,
                 chi_w: np.ndarray, m_u: np.ndarray, beta: float, damping: float):
    """New period means and variances (m_u, chi_u) from the asset side.

    x holds the returns, of shape (..., N, p), and the arrays carry its
    leading axes. Instances stacked on them share one call: its products are
    np.matvec and np.vecdot, one BLAS call per instance, and the rest is
    elementwise or per instance, so each instance gets the bits it gets
    alone. The cavity variance chi_tilde_u is variances.to_periods(chi_w)
    (see cavity_variances). The field h_u is
    (1/sqrt N) sum_k x_k m_wk, a dense pass over x, minus the self-response
    term chi_tilde_u * m_u built from the previous period means. channel maps
    (h, chi_tilde, beta) -> (m, chi) elementwise.
    """
    chi_tilde_u = variances.to_periods(chi_w)
    # in place on the new product: a few small arrays fewer per sweep, same bits
    h_u = np.matvec(x.mT, m_w)
    h_u /= math.sqrt(x.shape[-2])
    h_u -= chi_tilde_u * m_u
    m_channel, chi_u = channel(h_u, chi_tilde_u, beta)
    return (1.0 - damping) * m_channel + damping * m_u, chi_u


def asset_sweep(x: np.ndarray, variances, m_w: np.ndarray, m_u: np.ndarray,
                chi_u: np.ndarray, damping: float):
    """New asset means and variances (m_w, chi_w), enforcing the budget through m_tilde.

    x and the arrays are as in period_sweep. The cavity variance
    chi_tilde_w is variances.to_assets(chi_u), and chi_w = 1/chi_tilde_w. The
    field h_w is (1/sqrt N) sum_mu x_mu m_umu, a dense pass over x, plus (not
    minus) its self-response term chi_tilde_w * m_wk from the previous asset
    means. The budget multiplier has the closed form
    m_tilde = (N - sum chi_w h_w)/sum chi_w, one per instance,
    because the mean update is linear in it, and the undamped means
    chi_w * (h_w + m_tilde) then satisfy sum m_w = N exactly.
    The returned m_w is always a new array, never the m_w passed in.
    A vanishing cavity variance (the alpha <= 1 phase, a blow-up, or a
    subnormal one at a beta near 1e-320) gives chi_w = inf, hence
    m_tilde = NaN and an all-NaN m_w, without a warning;
    _iterate reads its NaN overlap as divergence.
    """
    n = x.shape[-2]
    chi_tilde_w = variances.to_assets(chi_u)
    h_w = np.matvec(x, m_u)
    h_w /= math.sqrt(n)
    h_w += chi_tilde_w * m_w
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        chi_w = 1.0 / chi_tilde_w
        m_tilde = ((n - np.vecdot(chi_w, h_w, keepdims=True))
                   / np.add.reduce(chi_w, axis=-1, keepdims=True))
    # the damped chi_w * (h_w + m_tilde), built in h_w's buffer
    h_w += m_tilde
    h_w *= chi_w
    h_w *= 1.0 - damping
    h_w += damping * m_w
    return h_w, chi_w


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
    (a sweep pair whose overlap is not at most DIVERGENCE_THRESHOLD, see
    _iterate) ends the run and marks it instead of raising.

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
    point) or diverges (partial state, flagged: the last kept iterate, whose
    overlap is within DIVERGENCE_THRESHOLD). An `ad` run above beta 1 that
    ends the hold phase still above tol reports the burn-in-discarded time
    average of m_w over that phase instead: near the top beta the fixed point
    loses local stability and the iterate circles it, so the instantaneous
    m_w sits on the cycle while the average sits at its center. Every damped
    iterate satisfies the budget exactly, hence so does the average.

    It is solve_batch of the one instance.
    """
    (result,) = solve_batch([returns], model, config)
    return result


def solve_batch(instances, model: CostModel, config: BpConfig = None):
    """solve for each ReturnSet in instances, all of one shape, as one stacked
    iteration; returns one (portfolio, diagnostics) per instance, in order.

    The sweeps act on a (B, N, p) stack of the instances' returns through one
    BLAS product per instance and elementwise arithmetic, so each result is
    bitwise the one solve gives its instance alone, whatever else is in the
    batch. A single instance is stacked as a view of its returns, never a
    copy. The zero-temperature runs that diverge are solved again together,
    up the finite-temperature ladder.
    """
    instances = list(instances)
    if config is None:
        config = default_config(model)
    if not zero_temperature(model, config):
        return _iterate(instances, model, config, max_sum=False)
    results = _iterate(instances, model, config, max_sum=True)
    redo = [i for i, (_, diagnostics) in enumerate(results) if diagnostics.diverged]
    if redo:
        # the ladder needs its own budget: at AD_BETA_TOP it takes 2561 sweeps
        # to climb before the hold phase starts
        fallback = replace(config, max_sweeps=max(config.max_sweeps, AD_MAX_SWEEPS))
        redone = _iterate([instances[i] for i in redo], model, fallback, max_sum=False)
        for i, result in zip(redo, redone):
            results[i] = result
    return results


def _keep(kept: np.ndarray, x: np.ndarray, *arrays):
    """The stack of the rows in kept, its cavity variances and each array's kept rows."""
    x = x[kept]
    return (x, cavity_variances(x), *(array[kept] for array in arrays))


def _iterate(instances, model: CostModel, config: BpConfig, max_sum: bool):
    """One run of solve over a batch of instances of one shape: with max_sum,
    the max-sum `ad` channel held at config.beta and a projection onto the
    budget after every sweep, else channel_for(model) along beta_ladder. The
    sweeps only compute; each pair is judged here once per instance, before
    the projection: unless its overlap is at most DIVERGENCE_THRESHOLD (NaN
    when chi_w is not finite, see asset_sweep), it is discarded, uncounted,
    and that instance ends diverged with its last kept iterate and delta.

    Each instance is a row of the stack. A row that converges or diverges
    gets its result and leaves the stack at once, so no row sweeps past its
    end and none sweeps a NaN iterate; the rows still running share the sweep
    count, hence beta and the hold phase, and get theirs when the loop ends.
    """
    if not instances:
        return []
    if len(instances) == 1:
        x = instances[0].entries[None]
    else:
        x = np.stack([returns.entries for returns in instances])
    variances = cavity_variances(x)
    batch, n, p = x.shape
    # budget-feasible uniform start; period_sweep sets chi_u before it is read
    m_w, chi_w, m_u = np.ones((batch, n)), np.ones((batch, n)), np.zeros((batch, p))
    if max_sum:
        channel, ladder = channel_absolute_deviation_max_sum, [config.beta]
        burn_in = ZERO_TEMPERATURE_BURN_SWEEPS
    else:
        channel, ladder = channel_for(model), beta_ladder(model, config)
        # only an annealed run holds on a limit cycle; the others report m_w
        burn_in = AVG_BURN_SWEEPS if len(ladder) > 1 else None
    ramp_sweeps = len(ladder) - 1  # sweeps before the final beta
    # weight of the previous iterate in each mean update. The `mv` message
    # passing is AMP for least squares, whose error contracts by d +
    # (1-d)/sqrt(alpha) per sweep at damping d (state evolution), so it runs
    # undamped: at alpha 2 it reaches the floor in 97 sweeps, against 225 at 0.5
    damping = 0.0 if model.kind == "mv" else 0.5

    results = [None] * batch

    def stop(ended, reported, converged=False, diverged=False):
        """Build the result of each row in ended, reporting its row of reported."""
        for row in np.flatnonzero(ended):
            portfolio = Portfolio(positions=reported[row])
            q_hat, eps_hat = observables(portfolio, instances[rows[row]], model)
            results[rows[row]] = (portfolio, Diagnostics(
                q_hat=q_hat, eps_hat=eps_hat, converged=converged, diverged=diverged,
                sweeps_used=total, final_delta=float(delta[row])))

    rows = np.arange(batch)  # the instance of each row still in the stack
    delta = np.full(batch, np.inf)
    total = 0
    avg_accum = np.zeros((batch, n))
    avg_count = 0
    while rows.size and total < config.max_sweeps:
        beta = ladder[min(total, ramp_sweeps)]
        m_u, chi_u = period_sweep(x, variances, channel, m_w, chi_w, m_u, beta, damping)
        swept, chi_w = asset_sweep(x, variances, m_w, m_u, chi_u, damping)
        squares = np.vecdot(swept, swept)
        # the largest overlap is that of the largest square sum; a NaN fails too
        if not np.maximum.reduce(squares) / n <= DIVERGENCE_THRESHOLD:
            blown = ~(squares / n <= DIVERGENCE_THRESHOLD)
            stop(blown, m_w, diverged=True)
            x, variances, rows, m_w, swept, chi_w, m_u, delta, avg_accum = _keep(
                ~blown, x, rows, m_w, swept, chi_w, m_u, delta, avg_accum)
            if not rows.size:
                break
        if max_sum:
            # the max-sum variances have no scale of their own: on small
            # instances chi_w drifts to 1e9 and beyond, where the budget
            # closure keeps only a few digits, so re-impose sum m_w = N
            swept += (n - np.add.reduce(swept, axis=-1, keepdims=True)) / n
        total += 1
        delta = np.maximum.reduce(np.abs(swept - m_w) / np.maximum(1.0, np.abs(swept)), axis=-1)
        m_w = swept
        if total > ramp_sweeps:
            if np.minimum.reduce(delta) < config.tol:
                done = delta < config.tol
                stop(done, m_w, converged=True)
                x, variances, rows, m_w, chi_w, m_u, delta, avg_accum = _keep(
                    ~done, x, rows, m_w, chi_w, m_u, delta, avg_accum)
            if burn_in is not None and total - ramp_sweeps > burn_in:
                avg_accum += m_w
                avg_count += 1
    # the rows left ran out of sweeps
    stop(np.full(rows.size, True), m_w if avg_count == 0 else avg_accum / avg_count)
    return results
