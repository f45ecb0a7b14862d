"""Tests for the Gaussian-tail kernels and the normal-measure quadrature rule."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from bpfolio.special import (
    gauss_hermite_dz,
    log_gaussian_tail,
    mills_excess,
    mills_ratio,
)

# Reference values computed once at 50+ decimal digits with an arbitrary-
# precision evaluation of log(erfc(u/sqrt(2))/2) and frozen here.
LOG_TAIL_REFERENCE = {
    -10.0: -7.6198530241605260659733722826793632676471381517963e-24,
    -1.0: -0.17275377902344988952648317352080073000942629052798,
    0.0: -0.69314718055994530941723212145817656807550013436026,
    1.0: -1.8410216450092635057707830732325290215476719088233,
    5.0: -15.064998393988725736083704791896725605067712625347,
    10.0: -53.231285150512470578347027354131209878916015829586,
    50.0: -1254.8313611394199012541325211142718812465346714789,
    1.0e3: -500007.82669481218430980616754918460823439528672822,
    1.0e6: -500000000014.7344490911699468458882759645118028978,
}

# Same protocol for the inverse Mills ratio phi(u)/H(u).
MILLS_REFERENCE = {
    0.0: 0.797884560802865355879892119869,
    10.0: 10.0980932339625119628436416537,
}


class TestLogGaussianTail:
    @pytest.mark.parametrize("u, expected", sorted(LOG_TAIL_REFERENCE.items()))
    def test_matches_high_precision_reference(self, u, expected):
        assert log_gaussian_tail(u) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        u = np.array([-3.0, 0.0, 4.5, 100.0])
        batch = log_gaussian_tail(u)
        assert batch.shape == u.shape
        for i, value in enumerate(u):
            assert batch[i] == log_gaussian_tail(float(value))

    def test_complement_identity(self):
        # H(u) + H(-u) = 1 wherever both halves are representable
        for u in np.linspace(-8.0, 8.0, 33):
            total = np.exp(log_gaussian_tail(u)) + np.exp(log_gaussian_tail(-u))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_monotone_decreasing(self):
        # strict below u ~ -26 is unrepresentable: log H(-50) = -7.7e-546
        # rounds to -0.0 in double precision, so the far left is only flat
        grid = np.array([-1e6, -50.0, -26.0, -1.0, 0.0, 1.0, 50.0, 1e6])
        values = log_gaussian_tail(grid)
        assert np.all(np.diff(values) <= 0)
        assert np.all(np.diff(values[2:]) < 0)

    def test_scalar_type(self):
        assert isinstance(log_gaussian_tail(1.0), float)


@settings(derandomize=True, database=None, deadline=None)
@given(u=st.floats(-8.0, 25.0), v=st.floats(-20.0, 20.0))
def test_kernels_match_their_erfc_definitions(u, v):
    # log H(u) = log(erfc(u/sqrt(2))/2) holds to the absolute term on [-8, 25],
    # where erfc neither underflows nor rounds to 2; mills(v) = phi(v)/H(v)
    reference = np.log(erfc(u / np.sqrt(2.0)) / 2.0)
    assert log_gaussian_tail(u) == pytest.approx(reference, rel=1e-13, abs=1e-15)
    log_density = -0.5 * v * v - 0.5 * np.log(2.0 * np.pi)
    assert mills_ratio(v) == pytest.approx(np.exp(log_density - log_gaussian_tail(v)),
                                           rel=1e-12)


class TestMillsRatio:
    @pytest.mark.parametrize("u, expected", sorted(MILLS_REFERENCE.items()))
    def test_matches_reference(self, u, expected):
        assert mills_ratio(u) == pytest.approx(expected, rel=1e-12)

    def test_deep_negative_equals_density(self):
        # for u far below zero H(u) = 1 to ~1e-148, so the ratio is phi(u)
        u = -30.0
        phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        assert mills_ratio(u) == pytest.approx(phi, rel=1e-13)

    def test_is_log_tail_negative_derivative(self):
        # d/du log H(u) = -phi(u)/H(u)
        step = 1e-5
        for u in np.linspace(-30.0, 30.0, 25):
            derivative = (log_gaussian_tail(u + step) - log_gaussian_tail(u - step)) / (2 * step)
            assert -derivative == pytest.approx(mills_ratio(u), rel=1e-5)

    def test_positive_everywhere(self):
        # representable range: below u ~ -38 the value phi(u)/H(u) ~ phi(u)
        # underflows to an exact 0.0, the closest double to the true ratio
        grid = np.array([-37.0, -26.5, -25.5, 0.0, 49.5, 50.5, 1e6])
        assert np.all(mills_ratio(grid) > 0)
        assert mills_ratio(-1e3) == 0.0


class TestMillsExcess:
    def test_agrees_with_direct_difference_below_cutoff(self):
        for u in (-5.0, 0.0, 10.0, 49.0):
            assert mills_excess(u) == mills_ratio(u) - u

    def test_series_consistent_with_direct_form_at_crossover(self):
        # at u ~ 60 the direct difference still carries ~10 good digits,
        # enough to validate the asymptotic series route against it
        for u in (55.0, 60.0, 80.0):
            direct = mills_ratio(u) - u
            assert mills_excess(u) == pytest.approx(direct, rel=1e-9)

    def test_decays_like_inverse_argument(self):
        for u in (1e3, 1e6):
            assert mills_excess(u) == pytest.approx(1.0 / u, rel=1e-5)


class TestGaussHermite:
    def test_weights_normalized(self):
        for order in (1, 2, 7, 64, 256):
            _, weights = gauss_hermite_dz(order)
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_order_one_is_mean(self):
        nodes, weights = gauss_hermite_dz(1)
        assert weights @ np.ones(1) == pytest.approx(1.0, abs=1e-15)
        assert weights @ nodes == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_moments(self):
        z, weights = gauss_hermite_dz(64)
        for power, moment in ((0, 1.0), (1, 0.0), (2, 1.0), (3, 0.0),
                              (4, 3.0), (5, 0.0), (6, 15.0)):
            assert weights @ z ** power == pytest.approx(moment, abs=1e-10)

    def test_exact_up_to_polynomial_degree(self):
        # an order-n rule integrates degree 2n-1 exactly; n=2 handles z^3
        nodes, weights = gauss_hermite_dz(2)
        assert weights @ nodes ** 3 == pytest.approx(0.0, abs=1e-13)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gauss_hermite_dz(0)
        with pytest.raises(ValueError):
            gauss_hermite_dz(257)
