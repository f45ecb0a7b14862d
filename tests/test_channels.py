"""Tests for the likelihood channels: closed forms, quadrature route, asymptotics."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpfolio.channels import (
    channel_absolute_deviation,
    channel_absolute_deviation_max_sum,
    channel_for,
    channel_generic,
    channel_mean_variance,
)
from bpfolio.model import ABSOLUTE_DEVIATION, MEAN_VARIANCE, generic_model

BETA_TOP = float(2 ** 20)

FD_H_GRID = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)
FD_CHI_GRID = (0.1, 1.0, 10.0)
FD_BETA_GRID = (1.0, 10.0, 1000.0)


def finite_difference_chi(channel, h, chi_tilde, beta):
    step = 1e-5 * max(1.0, abs(h))
    m_plus, _ = channel(h + step, chi_tilde, beta)
    m_minus, _ = channel(h - step, chi_tilde, beta)
    return -(m_plus - m_minus) / (2.0 * step)


class TestMeanVarianceChannel:
    def test_unit_point(self):
        m, chi = channel_mean_variance(1.0, 1.0, 1.0)
        assert m == pytest.approx(-0.5, abs=1e-15)
        assert chi == pytest.approx(0.5, abs=1e-15)

    def test_zero_field_zero_mean(self):
        m, chi = channel_mean_variance(0.0, 2.0, 3.0)
        assert m == 0.0
        assert chi == pytest.approx(3.0 / 7.0, rel=1e-15)

    def test_large_beta_limit(self):
        # beta -> infinity: m -> -h/chi_tilde, chi -> 1/chi_tilde
        m, chi = channel_mean_variance(2.0, 4.0, BETA_TOP)
        assert m == pytest.approx(-0.5, rel=1e-5)
        assert chi == pytest.approx(0.25, rel=1e-5)

    def test_vectorized(self):
        h = np.array([-1.0, 0.0, 2.0])
        m, chi = channel_mean_variance(h, 1.0, 1.0)
        assert m.shape == h.shape
        assert np.allclose(m, [0.5, 0.0, -1.0])
        assert np.allclose(chi, 0.5)

    def test_chi_matches_finite_difference(self):
        for h in FD_H_GRID:
            for chi_tilde in FD_CHI_GRID:
                for beta in FD_BETA_GRID:
                    _, chi = channel_mean_variance(h, chi_tilde, beta)
                    fd = finite_difference_chi(channel_mean_variance, h, chi_tilde, beta)
                    assert chi == pytest.approx(fd, rel=1e-5, abs=1e-12)


class TestAbsoluteDeviationChannel:
    def test_zero_field_is_odd_center(self):
        m, chi = channel_absolute_deviation(0.0, 1.0, 1.0)
        assert m == 0.0
        assert chi > 0.0

    def test_reference_point(self):
        # frozen from a 60-digit evaluation of the tail-ratio closed form
        m, chi = channel_absolute_deviation(0.5, 1.0, 1.0)
        assert m == pytest.approx(-0.25898144903498571702, rel=1e-13)
        assert chi == pytest.approx(0.50366713574385741182, rel=1e-13)

    def test_odd_even_symmetry(self):
        for h in (0.25, 1.0, 3.0, 40.0):
            for chi_tilde in (0.1, 1.0, 7.0):
                for beta in (1.0, 30.0):
                    m_pos, chi_pos = channel_absolute_deviation(h, chi_tilde, beta)
                    m_neg, chi_neg = channel_absolute_deviation(-h, chi_tilde, beta)
                    assert m_neg == pytest.approx(-m_pos, rel=1e-14, abs=1e-300)
                    assert chi_neg == pytest.approx(chi_pos, rel=1e-14)

    def test_mean_bounded_by_beta(self):
        # strong fields round the bound to exactly beta, weak ones stay inside
        for h, chi_tilde, beta in ((6.0, 0.25, 4.0), (1e6, 1e-6, BETA_TOP)):
            m, _ = channel_absolute_deviation(h, chi_tilde, beta)
            assert abs(m) <= beta
            assert m < 0.0
        m, _ = channel_absolute_deviation(0.1, 1.0, 1.0)
        assert -1.0 < m < 0.0

    def test_saturated_branch_approaches_minus_beta(self):
        # |h| > beta*chi_tilde: the optimum sits on the cost slope, m -> -beta*sign(h)
        m, _ = channel_absolute_deviation(6.0, 0.25, 4.0)
        assert m == pytest.approx(-4.0, rel=1e-2)

    def test_vanishing_smear_gives_sign_rule(self):
        m, _ = channel_absolute_deviation(1.0, 1e-8, 1.0)
        assert m == pytest.approx(-1.0, rel=1e-3)

    def test_large_beta_asymptote(self):
        # interior regime |h| < beta*chi_tilde: m -> -h/chi_tilde, chi -> 1/chi_tilde
        for h in (0.25, 0.5, 1.0, 2.0):
            for chi_tilde in (0.5, 1.0, 2.0):
                m, chi = channel_absolute_deviation(h, chi_tilde, BETA_TOP)
                assert m == pytest.approx(-h / chi_tilde, rel=1e-3)
                assert chi == pytest.approx(1.0 / chi_tilde, rel=1e-3)

    def test_chi_matches_finite_difference(self):
        for h in FD_H_GRID:
            for chi_tilde in FD_CHI_GRID:
                for beta in FD_BETA_GRID:
                    _, chi = channel_absolute_deviation(h, chi_tilde, beta)
                    fd = finite_difference_chi(channel_absolute_deviation, h, chi_tilde, beta)
                    # abs floor covers central-difference cancellation where the
                    # slope is orders below |m| (e.g. chi ~ 3e-8 at h=2, chi_tilde=0.1)
                    assert chi == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_chi_nonnegative_everywhere(self):
        h = np.array([-1e5, -10.0, 0.0, 10.0, 1e5])
        _, chi = channel_absolute_deviation(h, 0.3, 100.0)
        assert np.all(chi >= 0.0)

    def test_vectorized_matches_scalar(self):
        h = np.array([-2.0, 0.5, 3.0])
        m_vec, chi_vec = channel_absolute_deviation(h, 1.5, 2.0)
        for i, value in enumerate(h):
            m, chi = channel_absolute_deviation(float(value), 1.5, 2.0)
            assert m_vec[i] == m
            assert chi_vec[i] == chi


FIELDS = st.floats(-1e3, 1e3)
VARIANCES = st.floats(1e-3, 1e3)
BETAS = st.floats(1e-2, BETA_TOP)


class TestAbsoluteDeviationMaxSumChannel:
    def test_reference_points(self):
        # inside the threshold m = -h/chi_tilde, beyond it m = -beta*sign(h)
        m, chi = channel_absolute_deviation_max_sum(np.array([1.0, -3.0]), 0.5, 4.0)
        assert m.tolist() == [-2.0, 4.0]
        assert chi.tolist() == [2.0, 0.0]

    @settings(derandomize=True, database=None, deadline=None)
    @given(h=FIELDS, chi_tilde=VARIANCES, beta=BETAS)
    def test_bounded_odd_and_nonnegative(self, h, chi_tilde, beta):
        m, chi = channel_absolute_deviation_max_sum(h, chi_tilde, beta)
        m_flip, chi_flip = channel_absolute_deviation_max_sum(-h, chi_tilde, beta)
        assert chi >= 0.0
        assert abs(m) <= beta
        assert m_flip == -m
        assert chi_flip == chi

    @settings(derandomize=True, database=None, deadline=None)
    @given(h=FIELDS, chi_tilde=VARIANCES, beta=BETAS)
    def test_chi_matches_finite_difference_off_the_kink(self, h, chi_tilde, beta):
        step = 1e-6 * max(1.0, abs(h))
        assume(abs(abs(h) - beta * chi_tilde) > 2.0 * step)
        _, chi = channel_absolute_deviation_max_sum(h, chi_tilde, beta)
        fd = finite_difference_chi(channel_absolute_deviation_max_sum, h, chi_tilde, beta)
        assert chi == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @settings(derandomize=True, database=None, deadline=None)
    @given(ratio=st.floats(-3.0, 3.0), chi_tilde=VARIANCES)
    def test_is_the_large_beta_limit_of_the_channel(self, ratio, chi_tilde):
        # criterion 7's asymptote (1e-3), on both sides of the threshold
        # |h| = beta*chi_tilde, away from the sqrt(chi_tilde)-wide crossover;
        # the finite-temperature m = beta*tanh(A) carries a few beta ulps of
        # absolute roundoff, which sets the floor near h = 0
        assume(abs(abs(ratio) - 1.0) > 1e-2)
        h = ratio * BETA_TOP * chi_tilde
        m, chi = channel_absolute_deviation_max_sum(h, chi_tilde, BETA_TOP)
        m_finite, chi_finite = channel_absolute_deviation(h, chi_tilde, BETA_TOP)
        assert m_finite == pytest.approx(m, rel=1e-3, abs=1e-14 * BETA_TOP)
        assert abs(chi_finite - chi) <= 1e-3 / chi_tilde


class TestGenericChannel:
    def test_matches_mean_variance_closed_form(self):
        cost = lambda u: 0.5 * np.asarray(u) ** 2
        for h in (0.0, 0.5, 2.0):
            for chi_tilde in (0.5, 2.0):
                for beta in (1.0, 10.0):
                    m_q, chi_q = channel_generic(h, chi_tilde, beta, cost)
                    m_c, chi_c = channel_mean_variance(h, chi_tilde, beta)
                    assert m_q == pytest.approx(m_c, rel=1e-8, abs=1e-8)
                    assert chi_q == pytest.approx(chi_c, rel=1e-8, abs=1e-8)

    def test_matches_absolute_deviation_closed_form(self):
        cost = lambda u: np.abs(u)
        for h in (0.0, 0.5, 2.0):
            for chi_tilde in (0.5, 2.0):
                for beta in (1.0, 10.0):
                    m_q, chi_q = channel_generic(h, chi_tilde, beta, cost)
                    m_c, chi_c = channel_absolute_deviation(h, chi_tilde, beta)
                    assert m_q == pytest.approx(m_c, rel=1e-8, abs=1e-8)
                    assert chi_q == pytest.approx(chi_c, rel=1e-8, abs=1e-8)

    def test_zero_cost_reduces_to_prior(self):
        cost = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        m, chi = channel_generic(1.7, 2.0, 5.0, cost)
        assert m == pytest.approx(0.0, abs=1e-10)
        assert chi == pytest.approx(0.0, abs=1e-10)

    def test_quartic_cost_finite_difference(self):
        cost = lambda u: 0.25 * np.asarray(u) ** 4

        def channel(h, chi_tilde, beta):
            return channel_generic(h, chi_tilde, beta, cost)

        for h in (0.0, 1.0, -2.0):
            _, chi = channel(h, 1.0, 2.0)
            fd = finite_difference_chi(channel, h, 1.0, 2.0)
            assert chi == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_order_validation(self):
        cost = lambda u: np.abs(u)
        with pytest.raises(ValueError, match="order"):
            channel_generic(0.0, 1.0, 1.0, cost, order=8)
        with pytest.raises(ValueError, match="order"):
            channel_generic(0.0, 1.0, 1.0, cost, order=300)

    def test_non_finite_cost_rejected(self):
        cost = lambda u: np.where(np.asarray(u) < 0.0, np.nan, np.asarray(u))
        with pytest.raises(ValueError, match="not finite"):
            channel_generic(0.0, 1.0, 1.0, cost)

    def test_vector_input(self):
        cost = lambda u: np.abs(u)
        h = np.array([0.0, 1.0])
        m, chi = channel_generic(h, 1.0, 1.0, cost)
        assert m.shape == h.shape
        assert chi.shape == h.shape


class TestChannelDispatch:
    def test_closed_forms_dispatch_directly(self):
        assert channel_for(MEAN_VARIANCE) is channel_mean_variance
        assert channel_for(ABSOLUTE_DEVIATION) is channel_absolute_deviation

    def test_generic_dispatch_binds_cost_and_order(self):
        model = generic_model(lambda u: np.abs(u), order=48)
        channel = channel_for(model)
        m, chi = channel(0.5, 1.0, 1.0)
        m_direct, chi_direct = channel_generic(0.5, 1.0, 1.0, model.cost, order=48)
        assert m == pytest.approx(m_direct, rel=1e-12)
        assert chi == pytest.approx(chi_direct, rel=1e-12)
