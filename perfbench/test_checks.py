"""Tests for the benchmark's own reference checkers.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""
import numpy as np
import pytest

import checks

# the hand-checked two-asset instance of `bpfolio ky --counterexample`
COUNTEREXAMPLE = np.array([[1.0, 3.0], [2.0, 1.0]])


def test_lp_reproduces_counterexample_ad_optimum():
    w, cost = checks.ad_lp_optimum(COUNTEREXAMPLE)
    assert w == pytest.approx([-1.0, 3.0], abs=1e-9)
    # |u| = (5, 0)/sqrt(2), averaged over N = 2 assets
    assert cost == pytest.approx(5.0 / (2.0 * np.sqrt(2.0)), rel=1e-12)
    assert checks.ad_cost(COUNTEREXAMPLE, w) == pytest.approx(cost, rel=1e-9)


def test_closed_form_reproduces_counterexample_mv_optimum():
    assert checks.mv_closed_form(COUNTEREXAMPLE) == pytest.approx([0.0, 2.0], abs=1e-12)


def test_zero_temperature_overlap_at_alpha_two():
    assert checks.zero_temperature_ad_overlap(2.0) == pytest.approx(2.4850, abs=5e-5)


def test_lp_beats_uniform_portfolio_on_random_instance():
    x = checks.returns_matrix(0, 10, 20)
    w, cost = checks.ad_lp_optimum(x)
    assert checks.budget_gap(w) <= 1e-9
    assert cost <= checks.ad_cost(x, np.ones(10))


def test_relative_error_floors_small_components():
    reference = np.array([1e-9, 2.0])
    assert checks.relative_component_error([1e-9 + 1e-12, 2.0], reference) == pytest.approx(1e-9)
    assert checks.relative_component_error([1e-9, 2.0 + 2e-8], reference) == pytest.approx(1e-8)
