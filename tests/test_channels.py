"""Tests for the likelihood channels: closed forms, quadrature route, asymptotics."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpfolio.channels import (
    _WINDOW_MARGIN,
    _adaptive_moments,
    _scan,
    _trapezoid_moments,
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


EVEN_COSTS = {
    "abs": np.abs,
    "quartic": lambda u: 0.25 * u ** 4,
    "huber": lambda u: np.where(np.abs(u) < 1.0, 0.5 * u * u, np.abs(u) - 0.5),
}
GENERIC_FIELDS = st.floats(-30.0, 30.0)
GENERIC_VARIANCES = st.floats(1e-2, 1e2)
GENERIC_BETAS = st.floats(1e-2, 1e3)


class TestGenericChannelKinks:
    """|u| against its closed form at 1e-8, off criterion 7's grid."""

    @pytest.mark.parametrize("h, chi_tilde, beta", [
        # the mode sits on the kink at z = sqrt(10), between two scan points
        (-10.0, 10.0, 1.0),
        # the mode is at z ~ -0.71, the kink at z ~ -2.83
        (2.0, 0.5, 1.0),
        # the kink at z ~ -6.72 falls between a panel end and its outermost
        # node, where the Gauss and Kronrod sums agree without seeing it
        (9.5, 2.0, 3.0),
    ])
    def test_matches_absolute_deviation_closed_form(self, h, chi_tilde, beta):
        m_q, chi_q = channel_generic(h, chi_tilde, beta, np.abs)
        m_c, chi_c = channel_absolute_deviation(h, chi_tilde, beta)
        assert m_q == pytest.approx(m_c, rel=1e-8, abs=1e-8)
        assert chi_q == pytest.approx(chi_c, rel=1e-8, abs=1e-8)


class TestGenericChannelRounding:
    @pytest.mark.parametrize("h, chi_tilde, beta, cost, closed", [
        # psi rounds near 1e-12 relative here: beta*|u| with u = z*sqrt(chi) + h
        # a difference of numbers near 29, and psi near -4200 for the quadratic
        (-29.13, 0.2962, 508.3, np.abs, channel_absolute_deviation),
        (20.35, 0.0393, 102.1, lambda u: 0.5 * u * u, channel_mean_variance),
    ])
    def test_panels_stop_at_the_rounding_of_psi(self, h, chi_tilde, beta, cost, closed):
        # a 1e-14 floor alone splits such panels to the open-panel limit,
        # about 14000 points; the rounding floor stops near 2000
        points = []

        def counted(u):
            points.append(u.size)
            return cost(u)

        m_q, chi_q = channel_generic(h, chi_tilde, beta, counted)
        m_c, chi_c = closed(h, chi_tilde, beta)
        assert sum(points) < 4000
        assert m_q == pytest.approx(m_c, rel=1e-11, abs=1e-11)
        assert chi_q == pytest.approx(chi_c, rel=1e-11, abs=1e-11)


def adaptive_channel(h, chi_tilde, beta, cost, order=64):
    """channel_generic with every element sent through the adaptive stage."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    chi_tilde = np.broadcast_to(np.asarray(chi_tilde, dtype=float), h.shape)
    root = np.sqrt(chi_tilde)
    grid, values = _scan(h, root, beta, cost, order)
    mean, variance = _adaptive_moments(grid, values, root, h, beta, cost)
    return mean / root, np.maximum((1.0 - variance) / chi_tilde, 0.0)


def kink_cell_position(h, chi_tilde, z_kink):
    """Where z_kink falls between two scan points, as a fraction of the step."""
    grid, _ = _scan(np.array([h]), np.sqrt(np.array([chi_tilde])), 1.0, np.abs, 64)
    return ((z_kink - grid[0, 0]) / (grid[0, 1] - grid[0, 0])) % 1.0


HUBER = EVEN_COSTS["huber"]
STAGED_COSTS = {**EVEN_COSTS, "quadratic": lambda u: 0.5 * u * u}
# h = 0 makes the scan grid symmetric, so |u| = 1 at z = +-1/sqrt(chi) is a
# cell midpoint when 1/sqrt(chi) is a whole number k of steps of 92/511
MID_CELL_CHI = (511.0 / (92.0 * 3)) ** 2


class TestGenericChannelStages:
    """The trapezoid stage against the adaptive stage alone."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(points=st.lists(st.tuples(GENERIC_FIELDS, GENERIC_VARIANCES),
                           min_size=1, max_size=6),
           beta=GENERIC_BETAS, cost=st.sampled_from(sorted(STAGED_COSTS)))
    def test_staged_matches_adaptive(self, points, beta, cost):
        h, chi_tilde = (np.array(column) for column in zip(*points))
        m, chi = channel_generic(h, chi_tilde, beta, STAGED_COSTS[cost])
        m_a, chi_a = adaptive_channel(h, chi_tilde, beta, STAGED_COSTS[cost])
        np.testing.assert_allclose(m, m_a, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(chi, chi_a, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("chi_tilde", [0.01, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0])
    def test_mid_cell_kink_at_the_mode(self, chi_tilde, beta):
        # the two trapezoid rules' leading errors tie for a kink at a cell
        # midpoint, and at h = 0 the kink of |u| sits at z = 0, one such point
        assert kink_cell_position(0.0, chi_tilde, 0.0) == pytest.approx(0.5, abs=1e-9)
        m, chi = channel_generic(0.0, chi_tilde, beta, np.abs)
        m_c, chi_c = channel_absolute_deviation(0.0, chi_tilde, beta)
        assert m == pytest.approx(m_c, rel=1e-10, abs=1e-10)
        assert chi == pytest.approx(chi_c, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("h, chi_tilde, z_kink", [
        # |u| = 1 at z = -1, between scan points 255 and 256 of [-48, 46]
        (2.0, 1.0, -1.0),
        (0.0, MID_CELL_CHI, 1.0 / np.sqrt(MID_CELL_CHI)),
    ], ids=["h=2", "h=0"])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_mid_cell_huber_kink(self, h, chi_tilde, z_kink, beta):
        assert kink_cell_position(h, chi_tilde, z_kink) == pytest.approx(0.5, abs=1e-9)
        m, chi = channel_generic(h, chi_tilde, beta, HUBER)
        m_a, chi_a = adaptive_channel(h, chi_tilde, beta, HUBER)
        assert m == pytest.approx(m_a[0], rel=1e-10, abs=1e-10)
        assert chi == pytest.approx(chi_a[0], rel=1e-10, abs=1e-10)


def unfloored_trapezoid_moments(grid, values):
    """The trapezoid stage with a plain exp and a rules matrix built per call."""
    rows = np.arange(grid.shape[0])
    peak = np.argmax(values, axis=1)
    z_hat = grid[rows, peak]
    w = np.exp(values - values[rows, peak][:, None])
    d = grid - z_hat[:, None]
    dw = d * w
    rules = np.zeros((grid.shape[1], 2))
    rules[:, 0] = 1.0
    rules[::2, 1] = 2.0
    (z0, z0_coarse), (z1, z1_coarse), (z2, z2_coarse) = (
        (moment @ rules).T for moment in (w, dw, d * dw))
    offset = z1 / z0
    variance = z2 / z0 - offset * offset
    with np.errstate(divide="ignore", invalid="ignore"):
        offset_coarse = z1_coarse / z0_coarse
        variance_coarse = z2_coarse / z0_coarse - offset_coarse * offset_coarse
    accepted = ((np.abs(z0 - z0_coarse) <= 1e-13 * z0)
                & (np.abs(offset - offset_coarse) <= 1e-13)
                & (np.abs(variance - variance_coarse) <= 1e-13))
    return z_hat + offset, variance, accepted


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


# weights that np.exp would make subnormal (-745 to -708) or 0 (below -745)
# in the scan tails: a narrow quadratic, and kinked costs at large beta
DEEP_TAIL_CASES = [
    (lambda u: 0.5 * u * u, 1e3, 1e-4),
    (lambda u: 0.5 * u * u, 1e4, 1e-4),
    (lambda u: 0.5 * u * u, 1e5, 1e-4),
    (np.abs, 1.0, 1.0),
    (np.abs, 30.0, 0.5),
    (HUBER, 3.0, 2.0),
    (HUBER, 100.0, 0.01),
]


class TestGenericChannelTrapezoidStage:
    """The scan grid and the floored exp of the trapezoid stage keep the old bits."""

    H = np.array([0.0, 0.3, -0.3, 2.0, -7.0, 60.0, -450.0])
    CHI = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2])

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_scan_grid_is_linspace_row_major(self, order):
        # |h|/sqrt(chi) reaches 4.5e4 here, far beyond the 46 margin
        h, chi_tilde = (a.ravel() for a in np.meshgrid(self.H, self.CHI))
        root = np.sqrt(chi_tilde)
        grid, _ = _scan(h, root, 1.0, lambda u: 0.5 * u * u, order)
        center = -h / root
        reference = np.linspace(np.minimum(0.0, center) - _WINDOW_MARGIN,
                                np.maximum(0.0, center) + _WINDOW_MARGIN,
                                8 * order, axis=-1)
        assert np.abs(center).max() > 100.0 * _WINDOW_MARGIN
        assert grid.flags.c_contiguous
        assert same_bits(grid, reference)

    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("cost, beta, chi_tilde", DEEP_TAIL_CASES)
    def test_floored_exp_matches_plain_exp(self, cost, beta, chi_tilde, order):
        h = np.linspace(-3.0, 3.0, 13)
        root = np.full(h.shape, np.sqrt(chi_tilde))
        grid, values = _scan(h, root, beta, cost, order)
        shifted = values - values.max(axis=1)[:, None]
        assert np.any(shifted < -745.0)
        kept = values.copy()
        result = _trapezoid_moments(grid, values)
        assert same_bits(values, kept)
        for got, want in zip(result, unfloored_trapezoid_moments(grid, values)):
            assert same_bits(got, want)

    def test_subnormal_weights_are_covered(self):
        # at least one case sends scan weights into the subnormal range
        subnormal = 0
        for cost, beta, chi_tilde in DEEP_TAIL_CASES:
            h = np.linspace(-3.0, 3.0, 13)
            _, values = _scan(h, np.full(h.shape, np.sqrt(chi_tilde)), beta, cost, 64)
            shifted = values - values.max(axis=1)[:, None]
            subnormal += np.count_nonzero((shifted > -745.0) & (shifted < -708.0))
        assert subnormal > 0

    def test_peak_narrower_than_the_step_is_turned_down(self):
        # every weight but the peak's is floored, so the coarse sum is tiny
        # but positive whichever rule holds the peak
        h = np.linspace(-0.05, 0.05, 9)
        grid, values = _scan(h, np.ones(h.shape), 1e8, lambda u: 0.5 * u * u, 64)
        assert {0, 1} <= set(np.argmax(values, axis=1) % 2)
        with np.errstate(divide="raise", invalid="raise"):
            mean, variance, accepted = _trapezoid_moments(grid, values)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(variance))
        assert not np.any(accepted)

    def test_orders_in_turn_give_the_bits_of_fresh_rules(self):
        # the rules matrix is shared across grid lengths; a call at one order
        # must not leave anything behind for the next
        h = np.linspace(-3.0, 3.0, 13)
        root = np.full(h.shape, 1e-2)
        for order in (16, 64, 16, 256, 64):
            grid, values = _scan(h, root, 1e3, lambda u: 0.5 * u * u, order)
            for got, want in zip(_trapezoid_moments(grid, values),
                                 unfloored_trapezoid_moments(grid, values)):
                assert same_bits(got, want)


class TestGenericChannelCostCalls:
    H = np.linspace(-3.0, 3.0, 16)
    CHI = np.linspace(0.5, 2.0, 16)

    @staticmethod
    def counted(cost, sizes):
        def call(u):
            sizes.append(u.size)
            return cost(u)
        return call

    def test_smooth_cost_is_done_by_the_scan(self):
        sizes = []
        m, chi = channel_generic(self.H, self.CHI, 1.0, self.counted(lambda u: 0.5 * u * u, sizes))
        assert sizes == [16 * 8 * 64]
        m_c, chi_c = channel_mean_variance(self.H, self.CHI, 1.0)
        np.testing.assert_allclose(m, m_c, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(chi, chi_c, rtol=1e-11, atol=1e-11)

    def test_kinked_cost_goes_through_the_adaptive_stage(self):
        sizes = []
        m, chi = channel_generic(self.H, self.CHI, 1.0, self.counted(np.abs, sizes))
        assert len(sizes) > 1
        m_a, chi_a = adaptive_channel(self.H, self.CHI, 1.0, np.abs)
        assert np.array_equal(m, m_a)
        assert np.array_equal(chi, chi_a)


class TestGenericChannelProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(h=GENERIC_FIELDS, chi_tilde=GENERIC_VARIANCES, beta=GENERIC_BETAS,
           cost=st.sampled_from(sorted(EVEN_COSTS)))
    def test_nonnegative_and_odd_for_even_costs(self, h, chi_tilde, beta, cost):
        m, chi = channel_generic(h, chi_tilde, beta, EVEN_COSTS[cost])
        m_flip, chi_flip = channel_generic(-h, chi_tilde, beta, EVEN_COSTS[cost])
        assert chi >= 0.0
        assert chi_flip >= 0.0
        # the scan grids of h and -h mirror each other only up to roundoff
        assert m_flip == pytest.approx(-m, rel=1e-10, abs=1e-10)
        assert chi_flip == pytest.approx(chi, rel=1e-10, abs=1e-10)

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(points=st.lists(st.tuples(GENERIC_FIELDS, GENERIC_VARIANCES),
                           min_size=2, max_size=6),
           beta=GENERIC_BETAS, cost=st.sampled_from(sorted(EVEN_COSTS)))
    def test_vector_call_matches_scalar_calls(self, points, beta, cost):
        # an element's result must not depend on the elements beside it
        h, chi_tilde = (np.array(column) for column in zip(*points))
        m_vec, chi_vec = channel_generic(h, chi_tilde, beta, EVEN_COSTS[cost])
        for i in range(h.size):
            m, chi = channel_generic(h[i], chi_tilde[i], beta, EVEN_COSTS[cost])
            assert m_vec[i] == pytest.approx(m, rel=1e-14, abs=1e-14)
            assert chi_vec[i] == pytest.approx(chi, rel=1e-14, abs=1e-14)

    def test_scalar_cost_is_broadcast(self):
        # a constant cost such as the expression "1" returns a scalar
        m, chi = channel_generic(np.array([0.5, -2.0]), 1.0, 3.0, lambda u: 1.0)
        assert np.allclose(m, 0.0, atol=1e-10)
        assert np.allclose(chi, 0.0, atol=1e-10)


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
