"""Tests for replica order parameters, spectral statistics, and annealed costs."""
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
import scipy.stats

from bpfolio import theory
from bpfolio.channels import channel_absolute_deviation
from bpfolio.cli import _replica_columns
from bpfolio.engine import AD_BETA_TOP, default_config
from bpfolio.model import ABSOLUTE_DEVIATION, MEAN_VARIANCE, Portfolio, generic_model
from bpfolio.special import gauss_legendre_dz
from bpfolio.theory import (
    annealed_cost,
    marchenko_pastur,
    mp_bulk_expectation,
    portfolio_similarity,
    rs_closed_form_mv,
    rs_fixed_point,
    rs_zero_temperature_ad,
)


class TestClosedFormMv:
    def test_reference_point(self):
        solution = rs_closed_form_mv(2.0, 100.0)
        assert solution.q == pytest.approx(2.0, abs=1e-15)
        assert solution.chi == pytest.approx(0.01, abs=1e-15)
        assert not solution.divergent

    def test_alpha_three(self):
        solution = rs_closed_form_mv(3.0, 10.0)
        assert solution.q == pytest.approx(1.5, abs=1e-15)
        assert solution.chi == pytest.approx(0.05, abs=1e-15)

    def test_self_consistency_identities(self):
        s = rs_closed_form_mv(2.5, 7.0)
        assert s.chi == pytest.approx(-math.sqrt(s.q) / (s.alpha * s.eta), rel=1e-12)
        assert s.q == pytest.approx(1.0 + s.alpha * s.chi ** 2 * s.delta, rel=1e-12)

    def test_delta_does_not_cancel_at_large_alpha(self):
        # q - 1 keeps at most one digit here; beta^2*(alpha-1)/alpha loses none
        for alpha in (1e15, 1e20):
            assert rs_closed_form_mv(alpha, 1.0).delta == pytest.approx(1.0 - 1.0 / alpha,
                                                                        rel=1e-15)

    def test_divergent_phase_is_an_answer(self):
        for alpha in (0.5, 1.0):
            solution = rs_closed_form_mv(alpha, 2.0)
            assert solution.divergent
            assert math.isinf(solution.q)
            assert math.isinf(solution.chi)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            rs_closed_form_mv(2.0, 0.0)


class TestFixedPoint:
    def test_mean_variance_reproduces_closed_form(self):
        for alpha in (1.5, 2.0, 3.0, 5.0):
            for beta in (10.0, 100.0):
                numeric = rs_fixed_point(alpha, beta, MEAN_VARIANCE)
                closed = rs_closed_form_mv(alpha, beta)
                assert abs(numeric.q - closed.q) <= 1e-6
                assert abs(numeric.chi - closed.chi) <= 1e-6

    def test_generic_absolute_cost_matches_closed_form_channel(self):
        # the quadrature channel drives the same fixed point as the tail formula
        generic = rs_fixed_point(2.0, 1.0, generic_model(np.abs))
        closed = rs_fixed_point(2.0, 1.0, ABSOLUTE_DEVIATION)
        assert generic.q == pytest.approx(closed.q, rel=1e-9, abs=1e-9)
        assert generic.chi == pytest.approx(closed.chi, rel=1e-9, abs=1e-9)

    def test_solution_satisfies_both_equations(self):
        s = rs_fixed_point(2.0, 50.0, MEAN_VARIANCE)
        assert s.chi == pytest.approx(-math.sqrt(s.q) / (s.alpha * s.eta), rel=1e-7)
        assert s.q == pytest.approx(1.0 + s.alpha * s.chi ** 2 * s.delta, rel=1e-7)

    def test_absolute_deviation_large_beta_saturation(self):
        # as beta grows the kernel saturates to a clipped linear map and the
        # fixed point solves 2*Phi(t) - 1 = 1/alpha with t = beta*chi/sqrt(q)
        # and q = 1/(1 - alpha*(F(t) + 2 t^2 (1-Phi(t)))), F the second moment
        # of a standard Gaussian truncated to [-t, t]
        norm = scipy.stats.norm
        t = norm.ppf(0.75)
        trunc = (2.0 * norm.cdf(t) - 1.0) - 2.0 * t * norm.pdf(t)
        q_limit = 1.0 / (1.0 - 2.0 * (trunc + 2.0 * t * t * (1.0 - norm.cdf(t))))
        solution = rs_fixed_point(2.0, float(2 ** 14), ABSOLUTE_DEVIATION)
        assert solution.q == pytest.approx(q_limit, rel=0.02)
        assert solution.chi * 2 ** 14 == pytest.approx(t * math.sqrt(q_limit), rel=0.02)

    def test_absolute_deviation_chi_scales_inversely_with_beta(self):
        lo = rs_fixed_point(2.0, 256.0, ABSOLUTE_DEVIATION)
        hi = rs_fixed_point(2.0, 1024.0, ABSOLUTE_DEVIATION)
        assert hi.chi == pytest.approx(lo.chi / 4.0, rel=0.05)

    def test_divergent_phase(self):
        solution = rs_fixed_point(0.8, 10.0, MEAN_VARIANCE)
        assert solution.divergent
        assert math.isinf(solution.q)

    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            rs_fixed_point(2.0, -1.0, MEAN_VARIANCE)

    @pytest.mark.parametrize("beta", [1.0, 16.0, 1024.0, 2.0 ** 20])
    def test_absolute_deviation_rule_matches_adaptive_quadrature(self, beta):
        # the eta and delta integrands near a fixed point's (q, chi). The kernel
        # turns flat within sqrt(chi/q) of the clip points, 8e-4 at 2^20, and
        # quad, told only of the clip points, misses that turn: its nodes next
        # to them lie 0.03 apart and agree, and at 2^20 delta came out 7.8e-7
        # high. So quad gets every break as a point and its own error control
        q, chi = 2.5, 1.6 / beta
        clip = beta * chi / math.sqrt(q) + math.sqrt(chi / q) * theory._CLIP_OFFSETS
        breaks = np.concatenate([clip, -clip])
        y, v = gauss_legendre_dz()(breaks)
        kernel, _ = channel_absolute_deviation(y * math.sqrt(q), chi, beta)
        points = breaks[np.abs(breaks) < 14.0]

        def expect(f):
            def integrand(t):
                g = float(channel_absolute_deviation(t * math.sqrt(q), chi, beta)[0])
                return f(t, g) * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            value, _ = scipy.integrate.quad(integrand, -14.0, 14.0, points=points,
                                            epsabs=0.0, epsrel=1e-13, limit=500)
            return value

        assert v @ (y * kernel) == pytest.approx(expect(lambda t, g: t * g), rel=1e-12)
        assert v @ (kernel * kernel) == pytest.approx(expect(lambda t, g: g * g), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
    def test_absolute_deviation_approaches_zero_temperature_as_beta_grows(self, alpha):
        limit = rs_zero_temperature_ad(alpha)[0]
        gaps = [abs(rs_fixed_point(alpha, 2.0 ** k, ABSOLUTE_DEVIATION).q - limit) / limit
                for k in (19, 20, 25, 30)]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        # the finite-temperature gap falls about as 1/beta, and at 2^19 it is
        # still 1.28e-5 at alpha 1.5 and 1.04e-5 at 2, so the band starts at 2^20
        assert max(gaps[1:]) <= 1e-5


def zero_temperature_overlap_by_root(alpha):
    """q at beta -> infinity from a bracketed root of P(|z| <= t) = 1/alpha."""
    norm = scipy.stats.norm
    t = scipy.optimize.brentq(lambda s: (2.0 * norm.cdf(s) - 1.0) - 1.0 / alpha,
                              0.0, 40.0, xtol=1e-15, rtol=1e-15)
    clipped_sq = (2.0 * norm.cdf(t) - 1.0) - 2.0 * t * norm.pdf(t) + 2.0 * t * t * norm.sf(t)
    return 1.0 / (1.0 - alpha * clipped_sq)


def zero_temperature_cost_by_quadrature(alpha):
    """eps at beta -> infinity: alpha times E|u| for the period return u, the
    soft threshold of sqrt(q) z at sqrt(q) t, with E[(|z| - t)_+] by quadrature."""
    norm = scipy.stats.norm
    t = norm.ppf(0.5 + 0.5 / alpha)
    tail, _ = scipy.integrate.quad(lambda z: (z - t) * norm.pdf(z), t, np.inf,
                                   epsabs=1e-14, epsrel=1e-13)
    return alpha * math.sqrt(zero_temperature_overlap_by_root(alpha)) * 2.0 * tail


class TestZeroTemperatureAd:
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 5.0])
    def test_matches_root_finding_reference(self, alpha):
        reference = zero_temperature_overlap_by_root(alpha)
        assert rs_zero_temperature_ad(alpha)[0] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("alpha, value", [
        (1.5, 0.524208), (2.0, 0.940503), (3.0, 1.750691), (5.0, 3.354033)])
    def test_cost_matches_quadrature_reference(self, alpha, value):
        reference = zero_temperature_cost_by_quadrature(alpha)
        assert reference == pytest.approx(value, abs=5e-7)
        assert rs_zero_temperature_ad(alpha)[1] == pytest.approx(reference, rel=1e-10)

    def test_stdlib_closed_form_matches_scipy_on_a_dense_grid(self):
        # the package computes t and Phibar(t) with statistics and math; here
        # the same closed form runs on scipy's ndtri and ndtr
        for alpha in np.geomspace(1.0001, 1e6, 2000):
            t = float(scipy.special.ndtri(0.5 + 0.5 / alpha))
            density = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            reference = 1.0 / (2.0 * alpha * t * (density - t * float(scipy.special.ndtr(-t))))
            assert rs_zero_temperature_ad(alpha)[0] == pytest.approx(reference, rel=1e-12), alpha

    def test_alpha_two_value(self):
        assert rs_zero_temperature_ad(2.0)[0] == pytest.approx(2.485017, abs=5e-7)

    def test_divergent_phase_is_infinite(self):
        for alpha in (-1.0, 0.5, 1.0):
            assert rs_zero_temperature_ad(alpha) == (math.inf, 0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            rs_zero_temperature_ad(alpha)

    def test_is_the_large_beta_limit_of_the_fixed_point(self):
        solution = rs_fixed_point(2.0, AD_BETA_TOP, ABSOLUTE_DEVIATION)
        assert solution.q == pytest.approx(rs_zero_temperature_ad(2.0)[0], rel=1e-3)

    def test_sweep_reference_is_finite_near_alpha_one(self):
        # the fixed point at 2^20 does not converge here, and the column read nan
        q, eps = _replica_columns(ABSOLUTE_DEVIATION, 1.01, default_config(ABSOLUTE_DEVIATION))
        assert math.isfinite(q)
        assert (q, eps) == rs_zero_temperature_ad(1.01)

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second of start-up
        probe = "import sys, bpfolio.theory; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"


class TestMarchenkoPastur:
    def test_alpha_two_closed_forms_exact(self):
        stats = marchenko_pastur(2.0)
        assert stats.inv_lambda_mean == 1.0
        assert stats.inv_lambda_sq_mean == 2.0
        assert stats.q == 2.0
        assert stats.eps == 0.5

    def test_support_edges(self):
        stats = marchenko_pastur(2.0)
        assert stats.lambda_minus == pytest.approx((1.0 - math.sqrt(2.0)) ** 2, rel=1e-15)
        assert stats.lambda_plus == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, rel=1e-15)

    def test_degenerate_phase_moments(self):
        stats = marchenko_pastur(0.5)
        assert math.isinf(stats.inv_lambda_mean)
        assert math.isinf(stats.q)
        assert stats.eps == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            marchenko_pastur(0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0])
    def test_bulk_expectation_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            mp_bulk_expectation(alpha, lambda lam: 1.0)

    def test_bulk_mass(self):
        # alpha > 1: all mass in the bulk; alpha < 1: the rest is the atom at 0
        assert mp_bulk_expectation(2.0, lambda lam: 1.0) == pytest.approx(1.0, abs=1e-9)
        assert mp_bulk_expectation(0.5, lambda lam: 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_bulk_moments_match_closed_forms(self):
        for alpha in (1.5, 2.0, 4.0):
            stats = marchenko_pastur(alpha)
            mean = mp_bulk_expectation(alpha, lambda lam: lam)
            inv_mean = mp_bulk_expectation(alpha, lambda lam: 1.0 / lam)
            inv_sq = mp_bulk_expectation(alpha, lambda lam: 1.0 / lam ** 2)
            assert mean == pytest.approx(alpha, abs=1e-8)
            assert inv_mean == pytest.approx(stats.inv_lambda_mean, abs=1e-8)
            assert inv_sq == pytest.approx(stats.inv_lambda_sq_mean, abs=1e-8)

    def test_empirical_spectrum_agrees(self):
        rng = np.random.default_rng(512)
        n, p = 512, 1024
        x = rng.standard_normal((n, p))
        eigenvalues = np.linalg.eigvalsh(x @ x.T / n)
        assert np.mean(1.0 / eigenvalues) == pytest.approx(1.0, rel=0.02)
        assert np.mean(1.0 / eigenvalues ** 2) == pytest.approx(2.0, rel=0.05)


class TestAnnealedCost:
    def test_mean_variance_formula(self):
        assert annealed_cost("mv", 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert annealed_cost("mv", 3.0, 2.0) == pytest.approx(6.0, abs=1e-14)

    def test_absolute_deviation_formula(self):
        expected = 4.0 / math.sqrt(2.0 * math.pi)
        assert annealed_cost("ad", 2.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_zero_spread_costs_nothing(self):
        assert annealed_cost("mv", 2.0, 0.0) == 0.0
        assert annealed_cost("ad", 2.0, 0.0) == 0.0
        assert annealed_cost("es", 2.0, 0.0, gamma=0.1) == 0.0
        # gamma*s underflows to 0 here; the cost underflows with it, no division by 0
        assert annealed_cost("es", 2.0, 1e-200, gamma=1e-200) == 0.0

    def test_expected_shortfall_large_gamma_caps_at_tail_half(self):
        # when the per-unit charge exceeds the density peak the threshold stays
        # at zero and the cost is alpha * H(0) = alpha/2
        assert annealed_cost("es", 2.0, 1.0, gamma=10.0) == pytest.approx(1.0, rel=1e-10)

    def test_expected_shortfall_against_independent_minimizer(self):
        alpha, s = 2.0, 1.3
        for gamma in (0.3, 0.1, 0.01):
            def objective(v):
                return alpha * (v * gamma + scipy.stats.norm.sf(v / s))
            reference = scipy.optimize.minimize_scalar(
                objective, bounds=(0.0, 50.0), method="bounded",
                options={"xatol": 1e-12}).fun
            value = annealed_cost("es", alpha, s, gamma=gamma)
            assert value == pytest.approx(min(reference, objective(0.0)), rel=1e-9)

    @pytest.mark.parametrize("alpha, s, gamma", [
        (2.0, 1.0, 0.05), (0.5, 1.3, 0.01), (5.0, 0.2, 0.1), (2.0, 1.0, 1e-4),
        (3.0, 2.0, 0.3),  # gamma*s*sqrt(2*pi) >= 1: the minimizer is v = 0
    ])
    def test_expected_shortfall_is_the_grid_minimum(self, alpha, s, gamma):
        v = np.linspace(0.0, 8.0 * s, 800_001)
        grid_min = np.min(alpha * (v * gamma + scipy.special.ndtr(-v / s)))
        value = annealed_cost("es", alpha, s, gamma=gamma)
        assert value <= grid_min * (1.0 + 1e-15)
        assert grid_min - value <= 1e-9

    def test_expected_shortfall_monotone_in_gamma(self):
        costs = [annealed_cost("es", 2.0, 1.0, gamma=g) for g in (0.02, 0.1, 0.5)]
        assert costs[0] < costs[1] < costs[2]

    def test_validation(self):
        with pytest.raises(ValueError, match="spread"):
            annealed_cost("mv", 2.0, -1.0)
        with pytest.raises(ValueError, match="gamma"):
            annealed_cost("es", 2.0, 1.0)
        with pytest.raises(ValueError, match="unknown"):
            annealed_cost("huber", 2.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            annealed_cost("ad", -2.0, 1.0)


class TestPortfolioSimilarity:
    def test_counterexample_pair(self):
        a = Portfolio(positions=np.array([0.0, 2.0]))
        b = Portfolio(positions=np.array([-1.0, 3.0]))
        assert portfolio_similarity(a, b) == pytest.approx(6.0 / (2.0 * math.sqrt(10.0)),
                                                           rel=1e-14)

    def test_identical_is_one(self):
        a = Portfolio(positions=np.array([1.0, 2.0, -3.0, 2.0]))
        assert portfolio_similarity(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_opposite_is_minus_one(self):
        a = Portfolio(positions=np.array([3.0, -1.0]))
        b = Portfolio(positions=np.array([-3.0, 1.0]))
        assert portfolio_similarity(a, b) == pytest.approx(-1.0, abs=1e-15)

    def test_length_mismatch_rejected(self):
        a = Portfolio(positions=np.array([1.0, 1.0]))
        b = Portfolio(positions=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="lengths differ"):
            portfolio_similarity(a, b)

    def test_zero_vector_rejected(self):
        a = Portfolio(positions=np.array([0.0, 0.0]))
        b = Portfolio(positions=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="zero portfolio"):
            portfolio_similarity(a, b)
