"""Ground-truth solvers: closed-form mean-variance, smoothed convex descent, N=2 kink scan."""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .model import CostModel, Portfolio, ReturnSet

_SMOOTHING_LADDER = tuple(10.0 ** -k for k in range(2, 9))  # 1e-2 annealed to 1e-8
_EVAL_CAP = 1_000_000
_FINAL_GTOL = 1e-10  # L-BFGS-B gradient tolerance on the last smoothing rung


class SingularInstanceError(ValueError):
    """The period correlation matrix is numerically singular (alpha <= 1 or degenerate data)."""


class OracleConvergenceError(RuntimeError):
    """Smoothed descent exhausted its evaluation budget; carries the best objective seen."""

    def __init__(self, message: str, best_objective: float):
        super().__init__(message)
        self.best_objective = best_objective


def exact_mean_variance(returns: ReturnSet) -> Portfolio:
    """Closed-form minimum-variance portfolio N*(XX^T)^{-1}e / (e^T (XX^T)^{-1} e).

    Solves the SPD system by Cholesky factorization instead of forming the
    inverse; the residual is checked to 1e-10 so ill-conditioning cannot pass
    silently.
    """
    n = returns.n_assets
    if returns.n_periods < n:
        raise SingularInstanceError(
            f"need at least as many periods as assets, got p={returns.n_periods} < N={n}"
        )
    x = returns.entries
    correlation = x @ x.T
    eigenvalues = np.linalg.eigvalsh(correlation)  # ascending; cond = max/min for PSD
    condition = eigenvalues[-1] / eigenvalues[0] if eigenvalues[0] > 0.0 else np.inf
    if not np.isfinite(condition) or condition >= 1e12:
        raise SingularInstanceError(
            f"period correlation matrix condition estimate {condition:.3e} exceeds 1e12"
        )
    ones = np.ones(n)
    try:
        factor = cho_factor(correlation)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check fires first
        raise SingularInstanceError(f"correlation matrix not positive definite: {exc}")
    y = cho_solve(factor, ones)
    residual = float(np.max(np.abs(correlation @ y - ones)))
    if residual > 1e-10:
        raise SingularInstanceError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 (condition {condition:.3e})"
        )
    positions = n * y / y.sum()
    return Portfolio(positions=positions)


def _smoothed_objective(returns: ReturnSet, model: CostModel, delta: float):
    """Objective (1/N)*sum_mu R(u_mu) and gradient on the budget hyperplane chart.

    The last position is eliminated through the budget constraint, so descent
    iterates are feasible by construction. |u| is smoothed to sqrt(u^2+delta^2).
    """
    x = returns.entries
    n = returns.n_assets
    scale = 1.0 / np.sqrt(n)

    def assemble(free: np.ndarray) -> np.ndarray:
        return np.concatenate([free, [n - free.sum()]])

    def value_and_grad(free: np.ndarray):
        w = assemble(free)
        u = x.T @ w * scale
        if model.kind == "mv":
            value = 0.5 * float(u @ u) / n
            du = u
        elif model.kind == "ad":
            smooth = np.sqrt(u * u + delta * delta)
            value = float(smooth.sum()) / n
            du = u / smooth
        else:
            raise ValueError(f"convex oracle supports mv and ad costs, got {model.kind!r}")
        grad_w = (x @ du) * scale / n
        return value, grad_w[:-1] - grad_w[-1]

    return assemble, value_and_grad


def convex_oracle(returns: ReturnSet, model: CostModel) -> Portfolio:
    """Independent minimizer of the budget-constrained cost by smoothed descent.

    Runs quasi-Newton descent on the constraint chart while annealing the
    absolute-value smoothing from 1e-2 to 1e-8, warm-starting each rung.
    Deterministic; raises OracleConvergenceError if the evaluation budget is
    exhausted before the final rung converges to _FINAL_GTOL.
    """
    n = returns.n_assets
    free = np.ones(n - 1)
    evaluations = 0
    best = np.inf
    ladder = _SMOOTHING_LADDER if model.kind == "ad" else (0.0,)
    assemble = None
    for rung, delta in enumerate(ladder):
        if evaluations >= _EVAL_CAP:
            raise OracleConvergenceError(
                f"evaluation cap {_EVAL_CAP} reached at smoothing {delta:g} "
                f"with best objective {best:.12g}",
                best_objective=best,
            )
        assemble, value_and_grad = _smoothed_objective(returns, model, delta)
        final = rung == len(ladder) - 1
        result = minimize(
            value_and_grad,
            free,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": 20_000,
                "maxfun": _EVAL_CAP - evaluations,
                "ftol": 1e-18,
                "gtol": _FINAL_GTOL if final else 1e-9,
            },
        )
        free = result.x
        evaluations += result.nfev
        best = min(best, float(result.fun))
    if evaluations >= _EVAL_CAP and result.status == 1:
        raise OracleConvergenceError(
            f"evaluation cap {_EVAL_CAP} reached on the final smoothing rung "
            f"with best objective {best:.12g}",
            best_objective=best,
        )
    return Portfolio(positions=assemble(free))


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
