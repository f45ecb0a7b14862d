"""Tests for the ground-truth solvers and their agreement with each other."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfolio.engine import observables
from bpfolio.model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    ReturnSet,
    generate_returns,
    generic_model,
)
from bpfolio.oracles import (
    SingularInstanceError,
    ad_two_asset_kinks,
    convex_oracle,
    exact_mean_variance,
)

DIAGONAL_2X2 = ReturnSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
CROSSED_ROWS = ReturnSet(np.array([[1.0, 3.0], [2.0, 1.0]]))


class TestExactMeanVariance:
    def test_diagonal_instance(self):
        # XX^T = diag(1,4): w ~ (1, 1/4) scaled to budget 2 -> (1.6, 0.4)
        port = exact_mean_variance(DIAGONAL_2X2)
        assert port.positions == pytest.approx([1.6, 0.4], abs=1e-12)
        assert port.budget_gap() == pytest.approx(0.0, abs=1e-12)
        assert port.is_feasible(tol=1e-12)

    def test_identity_instance_is_uniform(self):
        port = exact_mean_variance(ReturnSet(np.eye(2)))
        assert port.positions == pytest.approx([1.0, 1.0], abs=1e-13)

    def test_budget_feasible(self):
        port = exact_mean_variance(generate_returns(30, 90, 1))
        assert port.is_feasible(tol=1e-12)

    def test_stationarity(self):
        # at the optimum (XX^T)w is constant across assets
        rs = generate_returns(40, 120, 2)
        port = exact_mean_variance(rs)
        gradient = rs.entries @ (rs.entries.T @ port.positions)
        assert np.ptp(gradient) <= 1e-8 * abs(gradient.mean())

    def test_underdetermined_instance_rejected(self):
        with pytest.raises(SingularInstanceError, match="p=10 < N=20"):
            exact_mean_variance(generate_returns(20, 10, 0))

    def test_rank_deficient_instance_rejected(self):
        row = np.arange(1.0, 7.0)
        with pytest.raises(SingularInstanceError):
            exact_mean_variance(ReturnSet(np.array([row, row, 2 * row])))

    def test_ill_conditioned_instance_rejected(self):
        # full rank, condition ~4e14: Cholesky succeeds and the residual stays
        # near 1e-10, so only the condition check stops it
        rng = np.random.default_rng(0)
        a = rng.standard_normal(50)
        rows = [a, a + 1e-7 * rng.standard_normal(50), rng.standard_normal(50)]
        with pytest.raises(SingularInstanceError, match="condition estimate .* exceeds 1e12"):
            exact_mean_variance(ReturnSet(np.array(rows)))


class TestConvexOracle:
    def test_feasible_by_construction(self):
        rs = generate_returns(25, 50, 4)
        port = convex_oracle(rs, ABSOLUTE_DEVIATION)
        assert port.is_feasible(tol=1e-12)

    def test_absolute_deviation_beats_other_candidates(self):
        rs = generate_returns(30, 60, 5)
        port = convex_oracle(rs, ABSOLUTE_DEVIATION)
        _, eps_opt = observables(port, rs, ABSOLUTE_DEVIATION)
        uniform = exact_mean_variance(rs).positions * 0 + 1.0
        for candidate in (exact_mean_variance(rs).positions, uniform):
            from bpfolio.model import Portfolio
            _, eps_candidate = observables(
                Portfolio(positions=candidate),
                rs, ABSOLUTE_DEVIATION)
            assert eps_opt <= eps_candidate + 1e-9

    def test_agrees_with_kink_enumeration(self):
        rs = generate_returns(2, 6, 5)
        numeric = convex_oracle(rs, ABSOLUTE_DEVIATION)
        exact = ad_two_asset_kinks(rs)
        assert np.max(np.abs(numeric.positions - exact.positions)) <= 1e-10

    def test_rejects_generic_models(self):
        rs = generate_returns(5, 10, 6)
        for model in (MEAN_VARIANCE, generic_model(lambda u: u ** 4)):
            with pytest.raises(ValueError, match="ad cost only.*exact_mean_variance"):
                convex_oracle(rs, model)

    @settings(derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_budget_feasible_and_symmetric(self, seed, data):
        n = data.draw(st.integers(2, 8), label="n")
        p = data.draw(st.integers(n + 1, 3 * n + 1), label="p")
        x = np.random.default_rng(seed).standard_normal((n, p))
        order = np.array(data.draw(st.permutations(range(n)), label="order"))
        port = convex_oracle(ReturnSet(x), ABSOLUTE_DEVIATION)
        assert port.is_feasible(tol=1e-12)
        permuted = convex_oracle(ReturnSet(x[order]), ABSOLUTE_DEVIATION)
        assert np.max(np.abs(permuted.positions - port.positions[order])) <= 1e-10
        flipped = convex_oracle(ReturnSet(-x), ABSOLUTE_DEVIATION)
        assert np.max(np.abs(flipped.positions - port.positions)) <= 1e-10


class TestTwoAssetKinks:
    def test_crossed_rows_optimum(self):
        port = ad_two_asset_kinks(CROSSED_ROWS)
        assert port.positions == pytest.approx([-1.0, 3.0], abs=1e-12)

    def test_crossed_rows_differ_from_mean_variance(self):
        # same instance, different optimizers, genuinely different portfolios
        w_mv = exact_mean_variance(CROSSED_ROWS)
        w_ad = ad_two_asset_kinks(CROSSED_ROWS)
        assert w_mv.positions == pytest.approx([0.0, 2.0], abs=1e-12)
        distance = float(np.linalg.norm(w_mv.positions - w_ad.positions))
        assert distance > 1.0

    def test_flat_stretch_takes_leftmost_kink(self):
        # identity returns make every w1 in [0, 2] optimal; ties resolve left
        port = ad_two_asset_kinks(ReturnSet(np.eye(2)))
        assert port.positions == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_no_kinks_returns_uniform(self):
        port = ad_two_asset_kinks(ReturnSet(np.array([[1.0, 2.0], [1.0, 2.0]])))
        assert port.positions == pytest.approx([1.0, 1.0])

    def test_requires_two_assets(self):
        with pytest.raises(ValueError, match="N=2"):
            ad_two_asset_kinks(generate_returns(3, 6, 0))

    def test_optimum_beats_neighbors(self):
        rs = generate_returns(2, 11, 7)
        port = ad_two_asset_kinks(rs)
        _, eps_best = observables(port, rs, ABSOLUTE_DEVIATION)
        from bpfolio.model import Portfolio
        for shift in (-0.01, 0.01, -1.0, 1.0):
            w1 = port.positions[0] + shift
            neighbor = Portfolio(positions=np.array([w1, 2.0 - w1]))
            _, eps_neighbor = observables(neighbor, rs, ABSOLUTE_DEVIATION)
            assert eps_best <= eps_neighbor + 1e-12
