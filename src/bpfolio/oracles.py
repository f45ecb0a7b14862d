"""Ground-truth solvers: closed-form mean-variance, absolute-deviation LP, N=2 kink scan."""
from __future__ import annotations

import numpy as np

from .model import CostModel, Portfolio, ReturnSet


class SingularInstanceError(ValueError):
    """The period correlation matrix is numerically singular (alpha <= 1 or degenerate data)."""


def require_periods(n_assets: int, n_periods: int) -> None:
    """Raise SingularInstanceError when there are fewer periods than assets."""
    if n_periods < n_assets:
        raise SingularInstanceError(
            f"need at least as many periods as assets, got p={n_periods} < N={n_assets}"
        )


def exact_mean_variance(returns: ReturnSet) -> Portfolio:
    """Closed-form minimum-variance portfolio N*(XX^T)^{-1}e / (e^T (XX^T)^{-1} e).

    Solves the linear system instead of forming the inverse, once the
    eigenvalues bound the condition number below 1e12; the residual is checked
    to 1e-10 so ill-conditioning cannot pass silently.
    """
    n = returns.n_assets
    require_periods(n, returns.n_periods)
    x = returns.entries
    correlation = x @ x.T
    eigenvalues = np.linalg.eigvalsh(correlation)  # ascending; cond = max/min for PSD
    condition = eigenvalues[-1] / eigenvalues[0] if eigenvalues[0] > 0.0 else np.inf
    if not np.isfinite(condition) or condition >= 1e12:
        raise SingularInstanceError(
            f"period correlation matrix condition estimate {condition:.3e} exceeds 1e12"
        )
    ones = np.ones(n)
    y = np.linalg.solve(correlation, ones)
    residual = float(np.max(np.abs(correlation @ y - ones)))
    if residual > 1e-10:
        raise SingularInstanceError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 (condition {condition:.3e})"
        )
    positions = n * y / y.sum()
    return Portfolio(positions=positions)


def convex_oracle(returns: ReturnSet, model: CostModel) -> Portfolio:
    """Exact absolute-deviation optimum as one linear program (HiGHS).

    Splitting each period return u = x^T w / sqrt(N) into s+ - s- with
    s+, s- >= 0, the cost sum|u| becomes the LP: min sum(s+ + s-)
    subject to x^T w / sqrt(N) - s+ + s- = 0 and sum(w) = N, with w free.
    Only the ad cost is linear here; mv has the closed form exact_mean_variance.
    scipy.optimize is imported here, so loading the package does not pay for it.
    """
    from scipy.optimize import linprog

    if model.kind != "ad":
        raise ValueError(f"convex oracle solves the ad cost only, got {model.kind!r}; "
                         "use exact_mean_variance for mv")
    x = returns.entries
    n, p = x.shape
    eye = np.eye(p)
    result = linprog(
        c=np.concatenate([np.zeros(n), np.ones(2 * p)]),
        A_eq=np.block([[x.T / np.sqrt(n), -eye, eye],
                       [np.ones(n), np.zeros(2 * p)]]),
        b_eq=np.concatenate([np.zeros(p), [float(n)]]),
        bounds=[(None, None)] * n + [(0.0, None)] * (2 * p),
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"absolute-deviation LP failed: {result.message}")
    return Portfolio(positions=result.x[:n])


def ad_two_asset_kinks(returns: ReturnSet) -> Portfolio:
    """Exact N=2 absolute-deviation optimum by enumerating the kinks in w1.

    With w2 = 2 - w1 the objective is piecewise linear and convex in w1, so the
    minimum sits at a kink (a period whose portfolio return crosses zero).
    Flat optima take the leftmost kink; a kink-free (flat) objective returns
    the uniform portfolio.
    """
    if returns.n_assets != 2:
        raise ValueError(f"kink enumeration requires N=2, got N={returns.n_assets}")
    x = returns.entries
    root2 = np.sqrt(2.0)
    # u_mu(w1) = a_mu * w1 + b_mu
    a = (x[0] - x[1]) / root2
    b = 2.0 * x[1] / root2

    def objective(w1: float) -> float:
        return float(np.abs(a * w1 + b).sum()) / 2.0

    kinks = sorted(-b[a != 0.0] / a[a != 0.0])
    if not kinks:
        return Portfolio(positions=np.array([1.0, 1.0]))
    values = np.array([objective(w1) for w1 in kinks])
    floor = values.min()
    w1_best = min(w1 for w1, value in zip(kinks, values)
                  if value <= floor * (1.0 + 1e-12) + 1e-15)
    return Portfolio(positions=np.array([w1_best, 2.0 - w1_best]))
