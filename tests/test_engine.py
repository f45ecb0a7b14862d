"""Tests for the message-passing engine: sweep algebra, solve behavior, invariants."""
import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpfolio import engine
from bpfolio.channels import channel_mean_variance
from bpfolio.engine import (
    AD_BETA_TOP,
    AD_MAX_SWEEPS,
    DIVERGENCE_THRESHOLD,
    EDGE_VARIANCE_MAX_ASSETS,
    EdgeVariances,
    ZERO_TEMPERATURE_MAX_SWEEPS,
    RankOneVariances,
    _iterate,
    asset_sweep,
    beta_ladder,
    cavity_variances,
    default_config,
    observables,
    period_sweep,
    solve,
    solve_batch,
    zero_temperature,
)
from bpfolio.model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    BpConfig,
    Portfolio,
    ReturnSet,
    generate_returns,
    generic_model,
)
from bpfolio.oracles import convex_oracle, exact_mean_variance
from bpfolio.theory import portfolio_similarity

DIAGONAL_2X2 = ReturnSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
CLOSURE_2X2 = RankOneVariances(DIAGONAL_2X2.entries)


def make_state(n, p, m_w=None, chi_w=None, m_u=None, chi_u=None):
    """The sweep arrays (m_w, chi_w, m_u, chi_u): the uniform start where not given."""
    defaults = (np.ones(n), np.ones(n), np.zeros(p), np.zeros(p))
    return tuple(default if value is None else np.asarray(value, dtype=float)
                 for default, value in zip(defaults, (m_w, chi_w, m_u, chi_u)))


class RecordingChannel:
    """Mean-variance channel that keeps the cavity fields it was called with."""

    def __init__(self):
        self.calls = []

    def __call__(self, h, chi_tilde, beta):
        self.calls.append((h, chi_tilde, beta))
        return channel_mean_variance(h, chi_tilde, beta)


class TestDefaultConfig:
    def test_mean_variance_runs_to_the_delta_floor(self):
        config = default_config(MEAN_VARIANCE)
        assert config.beta == 1.0
        assert beta_ladder(MEAN_VARIANCE, config) == [1.0]
        assert config.tol == 1e-14

    def test_mean_variance_is_beta_free(self):
        # the optimum does not depend on beta, so every beta gives the default
        for beta in (7.0, 1e50, 1e-307):
            assert default_config(MEAN_VARIANCE, beta) == default_config(MEAN_VARIANCE)
        with pytest.raises(ValueError, match="beta"):
            default_config(MEAN_VARIANCE, -1.0)

    def test_only_mean_variance_runs_undamped(self, monkeypatch):
        # the engine picks the damping from the model, whatever the config
        received = []

        def recording(*args):
            received.append(args[-1])
            return period_sweep(*args)

        monkeypatch.setattr(engine, "period_sweep", recording)
        rs = generate_returns(4, 12, 0)
        quartic = generic_model(lambda u: u ** 4)
        for model, config, damping in [
                (MEAN_VARIANCE, default_config(MEAN_VARIANCE), 0.0),
                (MEAN_VARIANCE, BpConfig(), 0.0),
                (ABSOLUTE_DEVIATION, default_config(ABSOLUTE_DEVIATION), 0.5),
                (ABSOLUTE_DEVIATION, default_config(ABSOLUTE_DEVIATION, 16.0), 0.5),
                (quartic, default_config(quartic), 0.5)]:
            received.clear()
            solve(rs, model, dataclasses.replace(config, max_sweeps=2))
            assert received == [damping, damping]

    def test_zero_temperature_default_holds_at_the_top_beta(self):
        config = default_config(ABSOLUTE_DEVIATION)
        assert config.beta == AD_BETA_TOP == float(2 ** 20)
        assert config.max_sweeps == ZERO_TEMPERATURE_MAX_SWEEPS == 1500

    def test_finite_temperature_ad_keeps_the_ladder(self):
        config = default_config(ABSOLUTE_DEVIATION, beta=2.0 ** 10)
        ladder = beta_ladder(ABSOLUTE_DEVIATION, config)
        # 1280 geometric steps undershoot the top by rounding, so the clamp
        # appends the exact final beta as entry 1282
        assert len(ladder) == 1282
        assert ladder[-1] == 2.0 ** 10
        assert config.max_sweeps == AD_MAX_SWEEPS > len(ladder)
        # the fallback of a diverged zero-temperature run climbs to 2^20
        assert len(beta_ladder(ABSOLUTE_DEVIATION, default_config(ABSOLUTE_DEVIATION))) == 2562

    def test_zero_temperature_is_the_default_ad_solve(self):
        assert zero_temperature(ABSOLUTE_DEVIATION, default_config(ABSOLUTE_DEVIATION))
        assert zero_temperature(ABSOLUTE_DEVIATION,
                                default_config(ABSOLUTE_DEVIATION, 2.0 * AD_BETA_TOP))
        for beta in (0.5, 16.0, AD_BETA_TOP / 2.0):
            assert not zero_temperature(ABSOLUTE_DEVIATION,
                                        default_config(ABSOLUTE_DEVIATION, beta))
        assert zero_temperature(ABSOLUTE_DEVIATION, BpConfig(beta=AD_BETA_TOP))
        assert not zero_temperature(MEAN_VARIANCE, BpConfig(beta=AD_BETA_TOP))

    def test_absolute_deviation_low_beta_is_plain(self):
        config = default_config(ABSOLUTE_DEVIATION, beta=0.5)
        assert config.beta == 0.5
        assert beta_ladder(ABSOLUTE_DEVIATION, config) == [0.5]

    def test_generic_defaults(self):
        config = default_config(generic_model(lambda u: u ** 4))
        assert config.beta == 1.0
        assert beta_ladder(generic_model(lambda u: u ** 4), config) == [1.0]
        assert config.tol == 1e-10


class TestUniformStart:
    def test_one_sweep_pair_from_the_uniform_start(self):
        # solve starts from m_w = chi_w = 1 and m_u = 0, so one sweep reports
        # exactly the m_w of one sweep pair applied to that start by hand
        n, p = 5, 10
        rs = generate_returns(n, p, 0)
        variances = cavity_variances(rs.entries)
        # the engine runs `mv` undamped at beta 1
        m_u, chi_u = period_sweep(rs.entries, variances, channel_mean_variance, np.ones(n),
                                  np.ones(n), np.zeros(p), 1.0, 0.0)
        m_w, _ = asset_sweep(rs.entries, variances, np.ones(n), m_u, chi_u, 0.0)
        port, diag = solve(rs, MEAN_VARIANCE, BpConfig(max_sweeps=1))
        assert diag.sweeps_used == 1
        assert np.array_equal(port.positions, m_w)


class TestPeriodSweep:
    def test_cavity_fields_from_frozen_asset_means(self):
        # negligible chi_w turns off both the smearing and the self-response,
        # leaving h_u as the scaled per-period portfolio returns
        m_w, chi_w, m_u, _ = make_state(2, 2, m_w=[1.6, 0.4], chi_w=[1e-12, 1e-12])
        channel = RecordingChannel()
        m_u, chi_u = period_sweep(DIAGONAL_2X2.entries, CLOSURE_2X2, channel, m_w, chi_w, m_u,
                                  1.0, 0.0)
        root2 = np.sqrt(2.0)
        (h_u, _, beta), = channel.calls
        assert beta == 1.0
        assert h_u == pytest.approx([1.6 / root2, 0.8 / root2], abs=1e-9)
        assert m_u == pytest.approx([-1.6 / root2, -0.8 / root2], abs=1e-9)
        assert np.all(chi_u > 0.0)

    def test_onsager_term_uses_previous_period_means(self):
        m_w, chi_w, m_u, _ = make_state(2, 2, m_w=[1.6, 0.4], chi_w=[1.0, 1.0], m_u=[1.0, -1.0])
        channel = RecordingChannel()
        period_sweep(DIAGONAL_2X2.entries, CLOSURE_2X2, channel, m_w, chi_w, m_u, 1.0, 0.0)
        root2 = np.sqrt(2.0)
        (h_u, chi_tilde_u, _), = channel.calls
        # chi_tilde_u = (0.5, 2.0); the correction subtracts chi_tilde * old m_u
        assert chi_tilde_u == pytest.approx([0.5, 2.0])
        assert h_u == pytest.approx([1.6 / root2 - 0.5, 0.8 / root2 + 2.0])

    def test_damping_blends_old_and_new(self):
        m_w, chi_w, m_u, _ = make_state(2, 2, m_w=[1.6, 0.4], chi_w=[1e-12, 1e-12],
                                        m_u=[1.0, 1.0])

        def channel(h, chi_tilde, beta):
            return np.array([-1.0, -3.0]), np.zeros(2)

        m_u, _ = period_sweep(DIAGONAL_2X2.entries, CLOSURE_2X2, channel, m_w, chi_w, m_u,
                              1.0, 0.25)
        assert m_u == pytest.approx([0.75 * -1.0 + 0.25 * 1.0, 0.75 * -3.0 + 0.25 * 1.0])


class TestAssetSweep:
    def test_budget_multiplier_closed_form(self):
        root2 = np.sqrt(2.0)
        # per edge, chi_tilde_w = (x*x) @ chi_u / N = (1, 1), so chi_w = (1, 1);
        # h_w = (1, -1) + chi_tilde_w = (2, 0) and m_tilde = (2 - 2) / 2 = 0.
        # The closure's row scales r/(s*N) = (0.2, 0.8) and column means
        # c = (0.5, 2) give chi_tilde_w = r * (c @ chi_u) / (s*N) = (0.4, 1.6),
        # so chi_w = (2.5, 0.625); h_w = (1, -1) + chi_tilde_w = (1.4, 0.6)
        # and m_tilde = (2 - 3.875) / 3.125 = -0.6. Either way the undamped
        # m_w = chi_w * (h_w + m_tilde) is (2, 0).
        for variances, expected_chi_w in [
            (EdgeVariances(DIAGONAL_2X2.entries), [1.0, 1.0]),
            (CLOSURE_2X2, [2.5, 0.625]),
        ]:
            m_w, _, m_u, chi_u = make_state(2, 2, m_u=[root2, -root2 / 2.0], chi_u=[2.0, 0.5])
            m_w, chi_w = asset_sweep(DIAGONAL_2X2.entries, variances, m_w, m_u, chi_u, 0.0)
            assert chi_w == pytest.approx(expected_chi_w)
            assert m_w == pytest.approx([2.0, 0.0])

    def test_budget_held_with_damping(self):
        x = generate_returns(20, 60, 8).entries
        variances = cavity_variances(x)
        m_w, chi_w, m_u, _ = make_state(20, 60)
        for _ in range(50):
            m_u, chi_u = period_sweep(x, variances, channel_mean_variance, m_w, chi_w, m_u,
                                      1.0, 0.5)
            m_w, chi_w = asset_sweep(x, variances, m_w, m_u, chi_u, 0.5)
            assert abs(m_w.sum() - 20.0) <= 1e-9 * 20.0

    def test_vanishing_cavity_variance_gives_non_finite_means_quietly(self):
        # the sweep only computes: the budget closure turns an infinite chi_w
        # into a NaN in every mean, whose NaN overlap _iterate reads as
        # divergence, and no warning reaches stderr on the way
        m_w, _, m_u, chi_u = make_state(2, 2, chi_u=[0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m_w, chi_w = asset_sweep(DIAGONAL_2X2.entries, CLOSURE_2X2, m_w, m_u, chi_u, 0.5)
        assert np.all(np.isnan(m_w))
        assert not np.all(np.isfinite(chi_w))


class TestVarianceClosure:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 7), p=st.integers(1, 9),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_exact_for_rank_one_squares(self, n, p, seed):
        # x = diag(a) S diag(b) with S a +-1 matrix makes x*x = a^2 b^2^T
        # exactly rank one, where the closure must give the per-edge products
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 3.0, n)
        b = rng.uniform(0.1, 3.0, p)
        signs = rng.choice([-1.0, 1.0], size=(n, p))
        x = a[:, None] * signs * b[None, :]
        squares = x * x
        closure = RankOneVariances(x)
        m_w, chi_w, m_u, _ = make_state(n, p, chi_w=rng.uniform(0.1, 2.0, n),
                                        m_w=rng.standard_normal(n))
        channel = RecordingChannel()
        period_sweep(x, closure, channel, m_w, chi_w, m_u, 1.0, 0.5)
        (_, chi_tilde_u, _), = channel.calls
        np.testing.assert_allclose(chi_tilde_u, squares.T @ chi_w / n,
                                   rtol=1e-12, atol=0)
        chi_u = rng.uniform(0.1, 2.0, p)
        _, chi_w = asset_sweep(x, closure, m_w, m_u, chi_u, 0.5)
        np.testing.assert_allclose(1.0 / chi_w, squares @ chi_u / n,
                                   rtol=1e-12, atol=0)


    def test_per_edge_weights_up_to_the_asset_limit(self):
        n = EDGE_VARIANCE_MAX_ASSETS
        assert isinstance(cavity_variances(generate_returns(n, 4 * n, 0).entries),
                          EdgeVariances)
        assert isinstance(cavity_variances(generate_returns(n + 1, 2, 0).entries),
                          RankOneVariances)

class TestObservables:
    def test_uniform_overlap_is_one(self):
        rs = generate_returns(10, 20, 1)
        port = Portfolio(positions=np.ones(10))
        q_hat, _ = observables(port, rs, MEAN_VARIANCE)
        assert q_hat == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_instance_values(self):
        port = Portfolio(positions=np.array([1.6, 0.4]))
        q_hat, eps_mv = observables(port, DIAGONAL_2X2, MEAN_VARIANCE)
        assert q_hat == pytest.approx(1.36, abs=1e-14)
        assert eps_mv == pytest.approx(0.4, abs=1e-14)
        _, eps_ad = observables(port, DIAGONAL_2X2, ABSOLUTE_DEVIATION)
        assert eps_ad == pytest.approx(2.4 / (2.0 * np.sqrt(2.0)), rel=1e-14)


class TestSolveMeanVariance:
    def test_matches_closed_form_across_betas(self):
        rs = generate_returns(50, 150, 2)
        exact = exact_mean_variance(rs)
        # far from 1 a solve at the asked beta loses digits: at 1e45 and 1e50,
        # and at 1e-307, it returned a wrong portfolio flagged converged
        for beta in (1.0, 10.0, 1e3, 1e45, 1e50, 1e-307):
            port, diag = solve(rs, MEAN_VARIANCE, default_config(MEAN_VARIANCE, beta=beta))
            assert diag.converged and not diag.diverged
            rel = np.max(np.abs(port.positions - exact.positions)
                         / np.abs(exact.positions))
            assert rel <= 1e-8

    def test_undamped_default_reaches_the_floor_in_few_sweeps(self):
        # state evolution predicts ln(1e-14)/ln(1/sqrt(2)) = 93 sweeps at
        # alpha 2; at damping 0.5 these instances took 222-226. A config of the
        # caller's own runs undamped too
        for seed in range(5):
            for config in (None, BpConfig(tol=1e-14)):
                _, diag = solve(generate_returns(100, 200, seed), MEAN_VARIANCE, config)
                assert diag.converged and not diag.diverged
                assert diag.sweeps_used <= 130

    def test_marginal_ratio_never_settles(self):
        # p = N instances sit on the phase boundary: the iteration oscillates
        # with slowly growing amplitude instead of converging
        _, diag = solve(DIAGONAL_2X2, MEAN_VARIANCE)
        assert not diag.converged
        assert diag.sweeps_used == default_config(MEAN_VARIANCE).max_sweeps

    def test_undersampled_phase_flags_divergence(self):
        rs = generate_returns(100, 50, 7)
        port, diag = solve(rs, MEAN_VARIANCE)
        assert diag.diverged
        assert not diag.converged
        assert port.n_assets == 100

    def test_permutation_equivariance(self):
        rs = generate_returns(30, 90, 4)
        rng = np.random.default_rng(0)
        perm = rng.permutation(30)
        base, _ = solve(rs, MEAN_VARIANCE)
        permuted, _ = solve(ReturnSet(rs.entries[perm]), MEAN_VARIANCE)
        scale = np.max(np.abs(base.positions))
        assert np.max(np.abs(permuted.positions - base.positions[perm])) <= 1e-9 * scale

    def test_sign_flip_invariance(self):
        rs = generate_returns(25, 75, 9)
        base, _ = solve(rs, MEAN_VARIANCE)
        flipped, _ = solve(ReturnSet(-rs.entries), MEAN_VARIANCE)
        assert np.max(np.abs(flipped.positions - base.positions)) <= 1e-10

    def test_deterministic(self):
        rs = generate_returns(20, 60, 5)
        first, _ = solve(rs, MEAN_VARIANCE)
        second, _ = solve(rs, MEAN_VARIANCE)
        assert np.array_equal(first.positions, second.positions)


class TestSolveAbsoluteDeviation:
    def test_moderate_beta_converges_and_matches_signs(self):
        rs = generate_returns(20, 40, 3)
        port, diag = solve(rs, ABSOLUTE_DEVIATION, default_config(ABSOLUTE_DEVIATION, 16.0))
        assert diag.converged
        assert port.is_feasible(tol=1e-9)

    def test_sign_flip_invariance(self):
        rs = generate_returns(20, 40, 3)
        config = default_config(ABSOLUTE_DEVIATION, 16.0)
        base, _ = solve(rs, ABSOLUTE_DEVIATION, config)
        flipped, _ = solve(ReturnSet(-rs.entries), ABSOLUTE_DEVIATION, config)
        assert np.max(np.abs(flipped.positions - base.positions)) <= 1e-9

    def test_ladder_top_tracks_convex_optimum(self):
        rs = generate_returns(50, 100, 0)
        port, diag = solve(rs, ABSOLUTE_DEVIATION)
        oracle = convex_oracle(rs, ABSOLUTE_DEVIATION)
        _, eps_oracle = observables(oracle, rs, ABSOLUTE_DEVIATION)
        assert not diag.converged  # the top-beta fixed point is orbited, not reached
        assert not diag.diverged
        assert (diag.eps_hat - eps_oracle) / eps_oracle <= 1e-3
        assert portfolio_similarity(port, oracle) >= 0.999

    def test_reported_average_is_exactly_feasible(self):
        rs = generate_returns(20, 40, 1)
        port, diag = solve(rs, ABSOLUTE_DEVIATION)
        assert not diag.converged
        assert abs(port.budget_gap()) <= 1e-10

    def test_default_solve_spends_its_budget_at_the_top_beta(self):
        rs = generate_returns(100, 200, 1)
        port, diag = solve(rs, ABSOLUTE_DEVIATION)
        assert diag.sweeps_used == 1500
        assert not diag.converged
        assert not diag.diverged
        assert abs(port.budget_gap()) <= 1e-9 * rs.n_assets

    def test_deterministic(self):
        rs = generate_returns(16, 32, 2)
        first, _ = solve(rs, ABSOLUTE_DEVIATION)
        second, _ = solve(rs, ABSOLUTE_DEVIATION)
        assert np.array_equal(first.positions, second.positions)


def few_asset_draws():
    """The draws with N in 2..4 among 60 of N in 2..8, p in 3N..5N."""
    rng = np.random.default_rng(8)
    draws = []
    for _ in range(60):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(3 * n, 5 * n + 1))
        x = rng.standard_normal((n, p))
        if n <= 4:
            draws.append(x)
    return draws


class TestSolveAbsoluteDeviationProperties:
    """Invariants of the default (zero-temperature) ad solve on small instances."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_feasible_permutation_equivariant_and_sign_flip_invariant(self, seed, data):
        n = data.draw(st.integers(2, 8), label="n")
        p = data.draw(st.integers(2 * n, 4 * n), label="p")
        x = np.random.default_rng(seed).standard_normal((n, p))
        order = np.array(data.draw(st.permutations(range(n)), label="order"))
        port, diag = solve(ReturnSet(x), ABSOLUTE_DEVIATION)
        # negating every return negates the fields and the clip is odd, so
        # the iteration repeats itself exactly, diverged or not
        flipped, _ = solve(ReturnSet(-x), ABSOLUTE_DEVIATION)
        assert np.array_equal(flipped.positions, port.positions, equal_nan=True)
        if n < 5:
            # below five assets either channel can flag divergence (a partial
            # state promises nothing more), and at finite temperature too,
            # reordering two assets over four periods can move the cost of
            # the hold-phase average by 4% or make the run diverge
            assert diag.diverged or abs(port.budget_gap()) <= 1e-10
            return
        assert not diag.diverged
        assert abs(port.budget_gap()) <= 1e-10
        permuted, permuted_diag = solve(ReturnSet(x[order]), ABSOLUTE_DEVIATION)
        assert not permuted_diag.diverged
        # reordered sums change the roundoff, which the limit cycle at the
        # top beta amplifies, so the hold-phase averages agree only to the
        # cycle's sampling error (at most 0.03 in 60 draws like these)
        assert np.max(np.abs(permuted.positions - port.positions[order])) <= 0.1
        assert permuted_diag.eps_hat == pytest.approx(diag.eps_hat, rel=2e-2)

    def test_small_instances_diverge_no_more_than_at_finite_temperature(self):
        # the finite-temperature ladder to 2^20 flags 7 of these 21 draws,
        # and the max-sum channel alone, which can saturate every period at
        # once, 15
        draws = few_asset_draws()
        assert len(draws) == 21
        diverged = sum(solve(ReturnSet(x), ABSOLUTE_DEVIATION)[1].diverged for x in draws)
        assert diverged <= 7

    def test_diverged_clip_run_falls_back_up_the_ladder(self):
        config = default_config(ABSOLUTE_DEVIATION)
        x = next(x for x in few_asset_draws()
                 if _iterate([ReturnSet(x)], ABSOLUTE_DEVIATION, config,
                             max_sum=True)[0][1].diverged)
        _, diag = solve(ReturnSet(x), ABSOLUTE_DEVIATION)
        # past the 2562 rungs of the ladder to 2^20, so past the clip's budget
        # of 1500 too: the fallback runs with the ladder's own budget
        assert diag.diverged or diag.sweeps_used > 2562

    def test_few_assets_stay_near_the_lp_optimum(self):
        # per-edge variances read a mean relative cost gap of 1.6e-2 and a
        # worst of 3.4e-2 on these ten 8 x 16 draws; the rank-one closure,
        # which few assets cannot support, read 3.3e-2 and 0.14
        gaps = []
        for seed in range(20, 30):
            rs = generate_returns(8, 16, seed)
            _, diag = solve(rs, ABSOLUTE_DEVIATION)
            _, lp_cost = observables(convex_oracle(rs, ABSOLUTE_DEVIATION), rs,
                                     ABSOLUTE_DEVIATION)
            gaps.append((diag.eps_hat - lp_cost) / lp_cost)
        assert np.mean(gaps) <= 2e-2
        assert max(gaps) <= 5e-2


class TestSolveDiagnostics:
    def test_observables_reported_for_the_returned_portfolio(self):
        rs = generate_returns(30, 90, 11)
        port, diag = solve(rs, MEAN_VARIANCE)
        q_hat, eps_hat = observables(port, rs, MEAN_VARIANCE)
        assert diag.q_hat == pytest.approx(q_hat, rel=1e-15)
        assert diag.eps_hat == pytest.approx(eps_hat, rel=1e-15)

    def test_sweep_budget_respected(self):
        rs = generate_returns(30, 90, 11)
        config = BpConfig(max_sweeps=3)
        _, diag = solve(rs, MEAN_VARIANCE, config)
        assert diag.sweeps_used == 3
        assert not diag.converged

    def test_diverged_runs_report_finite_feasible_positions(self):
        # a diverged run reports its last kept iterate, whose overlap is within
        # the threshold and on which the budget closure (and, for the clip,
        # the projection) holds sum m_w = N
        config = default_config(ABSOLUTE_DEVIATION)
        runs = [_iterate([ReturnSet(x)], ABSOLUTE_DEVIATION, config, max_sum=True)[0]
                for x in few_asset_draws()]
        runs = [(port, diag) for port, diag in runs if diag.diverged]
        assert runs
        for model, shape in [(ABSOLUTE_DEVIATION, (100, 50, 0)),
                             (ABSOLUTE_DEVIATION, (100, 90, 0)),
                             (MEAN_VARIANCE, (100, 50, 7)), (MEAN_VARIANCE, (20, 10, 5))]:
            runs.append(solve(generate_returns(*shape), model))
        for port, diag in runs:
            assert diag.diverged
            assert np.all(np.isfinite(port.positions))
            assert abs(port.budget_gap()) <= 1e-9 * port.n_assets
            assert diag.q_hat <= DIVERGENCE_THRESHOLD


def _bits(result):
    """Everything a solve reports, as bytes and exact values."""
    portfolio, diagnostics = result
    values = dataclasses.astuple(diagnostics)
    return (portfolio.positions.tobytes(),
            np.array([v for v in values if isinstance(v, float)]).tobytes(),
            [v for v in values if not isinstance(v, float)])


# the default mv solve, the default (zero-temperature) ad solve and an ad solve
# annealed to beta 4
BATCH_MODELS = {"mv": (MEAN_VARIANCE, None), "ad": (ABSOLUTE_DEVIATION, None),
                "ad-beta-4": (ABSOLUTE_DEVIATION, 4.0)}


class TestSolveBatch:
    """An instance's result does not depend on the batch it is solved in."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 4),
           shape=st.integers(2, 24).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(n - 1, 3 * n))),
           model=st.sampled_from(sorted(BATCH_MODELS)))
    # mv at p = N - 1 diverges; ad on 8 x 7 diverges on the clip and again on
    # the ladder it falls back to; ad at beta 4 on 12 x 30 converges; the last
    # two take per-edge variances (N <= 16)
    @example(seed=0, shape=(20, 19), model="mv")
    @example(seed=5, shape=(8, 7), model="ad")
    @example(seed=1, shape=(12, 30), model="ad-beta-4")
    def test_each_instance_bitwise_as_alone(self, seed, shape, model):
        cost_model, beta = BATCH_MODELS[model]
        config = default_config(cost_model, beta)
        instances = [generate_returns(*shape, seed + i) for i in range(3)]
        together = solve_batch(instances, cost_model, config)
        for returns, result in zip(instances, together):
            assert _bits(result) == _bits(solve(returns, cost_model, config))

    def test_zero_temperature_fallback_bitwise_as_alone(self):
        # of these 3 x 12 draws, two run their 1500 sweeps of the clip and one
        # diverges there, falls back to the ladder and diverges at sweep 3463
        instances = [ReturnSet(x) for x in few_asset_draws() if x.shape == (3, 12)]
        together = solve_batch(instances, ABSOLUTE_DEVIATION)
        assert sorted(d.sweeps_used for _, d in together) == [1500, 1500, 3463]
        for returns, result in zip(instances, together):
            assert _bits(result) == _bits(solve(returns, ABSOLUTE_DEVIATION))

    def test_rows_ending_all_three_ways_bitwise_as_alone(self, monkeypatch):
        # a 6 x 12 draw whose last three assets have no returns leaves the
        # asset side without variance and diverges; the others converge or
        # run out of the 120 sweeps, so the stack shrinks three times
        zeroed = generate_returns(6, 12, 10).entries.copy()
        zeroed[:, 3:] = 0.0
        instances = [generate_returns(6, 12, seed) for seed in range(4)] + [ReturnSet(zeroed)]
        config = dataclasses.replace(default_config(MEAN_VARIANCE), max_sweeps=120)
        stacked = []
        original = engine.period_sweep

        def recording(x, *args):
            stacked.append(x.shape[0])
            return original(x, *args)

        monkeypatch.setattr(engine, "period_sweep", recording)
        together = solve_batch(instances, MEAN_VARIANCE, config)
        assert [(d.converged, d.diverged, d.sweeps_used) for _, d in together] == [
            (False, False, 120), (True, False, 107), (True, False, 116),
            (False, False, 120), (False, True, 18)]
        assert [stacked.count(size) for size in (5, 4, 3, 2)] == [19, 88, 9, 4]
        for returns, result in zip(instances, together):
            assert _bits(result) == _bits(solve(returns, MEAN_VARIANCE, config))

    def test_single_instance_is_stacked_without_a_copy(self, monkeypatch):
        returns = generate_returns(20, 40, 0)
        seen = []
        original = engine.period_sweep

        def recording(x, *args):
            seen.append(x)
            return original(x, *args)

        monkeypatch.setattr(engine, "period_sweep", recording)
        solve(returns, MEAN_VARIANCE, BpConfig(max_sweeps=2))
        assert seen and all(np.shares_memory(x, returns.entries) for x in seen)

    def test_empty_batch(self):
        assert solve_batch([], MEAN_VARIANCE) == []


class TestTracedNames:
    """perfbench/tracer.py's install replaces these engine attributes, and
    traced runs count sweeps and channel calls through them."""

    def test_wrapped_functions_keep_their_signatures(self):
        expected = {
            "solve": ["returns", "model", "config"],
            "period_sweep": ["x", "variances", "channel", "m_w", "chi_w", "m_u",
                             "beta", "damping"],
            "asset_sweep": ["x", "variances", "m_w", "m_u", "chi_u", "damping"],
            "channel_for": ["model"],
        }
        for name, parameters in expected.items():
            assert list(inspect.signature(getattr(engine, name)).parameters) == parameters

    def test_batched_iteration_calls_the_module_globals(self, monkeypatch):
        calls = []
        period_sweep_, channel_for_ = engine.period_sweep, engine.channel_for

        def counted_sweep(*args):
            calls.append("period_sweep")
            return period_sweep_(*args)

        def counted_channel_for(model):
            calls.append("channel_for")
            return channel_for_(model)

        monkeypatch.setattr(engine, "period_sweep", counted_sweep)
        monkeypatch.setattr(engine, "channel_for", counted_channel_for)
        instances = [generate_returns(6, 12, seed) for seed in range(3)]
        results = solve_batch(instances, MEAN_VARIANCE, BpConfig(max_sweeps=5))
        # one stacked sweep per sweep of the batch, not one per instance
        assert calls == ["channel_for"] + ["period_sweep"] * 5
        assert [diagnostics.sweeps_used for _, diagnostics in results] == [5, 5, 5]
