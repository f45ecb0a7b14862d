"""Independent references for the benchmark's output checks.

Nothing here imports bpfolio: instances are regenerated from the seed with
numpy, the absolute-deviation optimum comes from an LP solved by HiGHS, the
mean-variance optimum from a dense numpy solve, and the zero-temperature
absolute-deviation overlap from its closed form.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.stats import norm


def returns_matrix(seed: int, n_assets: int, n_periods: int) -> np.ndarray:
    """The N x p instance a seed stands for: i.i.d. standard normal entries."""
    return np.random.default_rng(seed).standard_normal((n_assets, n_periods))


def ad_cost(x: np.ndarray, w: np.ndarray) -> float:
    """Per-asset absolute-deviation cost (1/N) sum_mu |u_mu| with u = x^T w / sqrt(N)."""
    n = x.shape[0]
    return float(np.abs(x.T @ w).sum()) / (n * math.sqrt(n))


def ad_lp_optimum(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact absolute-deviation optimum under the budget sum(w) = N.

    Variables (w, t): minimize sum(t)/N subject to -t <= x^T w / sqrt(N) <= t
    and sum(w) = N. Returns the positions and the optimal cost.
    """
    n, p = x.shape
    a = x.T / math.sqrt(n)
    eye = np.eye(p)
    result = linprog(
        c=np.concatenate([np.zeros(n), np.full(p, 1.0 / n)]),
        A_ub=np.block([[a, -eye], [-a, -eye]]),
        b_ub=np.zeros(2 * p),
        A_eq=np.concatenate([np.ones(n), np.zeros(p)])[None, :],
        b_eq=[float(n)],
        bounds=[(None, None)] * n + [(0.0, None)] * p,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"LP reference failed: {result.message}")
    return result.x[:n], float(result.fun)


def mv_closed_form(x: np.ndarray) -> np.ndarray:
    """Minimum-variance positions: solve x x^T y = 1 and scale to w = N y / sum(y)."""
    n = x.shape[0]
    y = np.linalg.solve(x @ x.T, np.ones(n))
    return n * y / y.sum()


def zero_temperature_ad_overlap(alpha: float) -> float:
    """Replica overlap q of the absolute-deviation optimum at beta -> infinity.

    Solve P(|z| <= t) = 1/alpha for the clip point t, then
    q = 1 / (1 - alpha * E[clip(z, -t, t)^2]) for standard normal z.
    """
    if alpha <= 1.0:
        raise ValueError("the overlap is finite only for alpha > 1")
    t = brentq(lambda s: (2.0 * norm.cdf(s) - 1.0) - 1.0 / alpha, 0.0, 40.0,
               xtol=1e-15, rtol=1e-15)
    inside = (2.0 * norm.cdf(t) - 1.0) - 2.0 * t * norm.pdf(t)
    clipped_second_moment = inside + t * t * 2.0 * norm.sf(t)
    return 1.0 / (1.0 - alpha * clipped_second_moment)


def relative_component_error(w, reference, floor: float = 1e-3) -> float:
    """max_k |w_k - ref_k| / max(|ref_k|, floor).

    Positions average 1 under the budget. Among thousands of assets some
    reference component always sits within 1e-4 of zero, where a plain ratio
    grows without bound; the floor holds such a component to floor times the
    relative bound in absolute terms instead.
    """
    w = np.asarray(w, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.maximum(np.abs(reference), floor)
    return float(np.max(np.abs(w - reference) / scale))


def budget_gap(w) -> float:
    """|sum(w) - N| / N for N positions."""
    w = np.asarray(w, dtype=float)
    return abs(float(w.sum()) - w.size) / w.size
