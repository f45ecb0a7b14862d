"""Shared domain types: return sets, portfolios, cost models, solver config and records."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ReturnSet:
    """N x p matrix of per-asset, per-period returns plus derived shape data."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"returns must be a 2-d matrix, got ndim={entries.ndim}")
        n, p = entries.shape
        if n < 2:
            raise ValueError(f"need at least 2 assets, got {n}")
        if p < 1:
            raise ValueError(f"need at least 1 period, got {p}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("returns contain non-finite entries")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_assets(self) -> int:
        return self.entries.shape[0]

    @property
    def n_periods(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Portfolio:
    """Vector of positions (shorts allowed) constrained to sum to N, the number of assets."""

    positions: np.ndarray

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    @property
    def n_assets(self) -> int:
        return self.positions.size

    def budget_gap(self) -> float:
        """Signed violation of the budget constraint, sum(positions) - N."""
        return float(self.positions.sum() - self.n_assets)

    def is_feasible(self, tol: float = 1e-9) -> bool:
        """True when the budget constraint holds within tol * n_assets."""
        return abs(self.budget_gap()) <= tol * self.n_assets


@dataclass(frozen=True)
class CostModel:
    """Per-period cost R(u): mean-variance u^2/2, absolute deviation |u|, or custom."""

    kind: str  # "mv" | "ad" | "generic"
    cost: Optional[Callable[[np.ndarray], np.ndarray]] = None
    order: int = 64  # quadrature resolution for the generic channel

    def __post_init__(self):
        if self.kind not in ("mv", "ad", "generic"):
            raise ValueError(f"unknown cost model kind {self.kind!r}")
        if self.kind == "generic" and self.cost is None:
            raise ValueError("generic cost model requires a cost callable")

    def cost_values(self, u: np.ndarray) -> np.ndarray:
        """R(u) elementwise."""
        u = np.asarray(u, dtype=float)
        if self.kind == "mv":
            return 0.5 * u * u
        if self.kind == "ad":
            return np.abs(u)
        return np.asarray(self.cost(u), dtype=float)


MEAN_VARIANCE = CostModel(kind="mv")
ABSOLUTE_DEVIATION = CostModel(kind="ad")


def generic_model(cost: Callable[[np.ndarray], np.ndarray], order: int = 64) -> CostModel:
    """Cost model wrapping an arbitrary finite scalar cost function."""
    return CostModel(kind="generic", cost=cost, order=order)


@dataclass(frozen=True)
class BpConfig:
    """Iteration controls for the message-passing solver."""

    beta: float = 1.0
    damping: float = 0.5  # weight of the previous iterate in each mean update
    tol: float = 1e-10  # max relative change of m_w declaring convergence
    max_sweeps: int = 5000

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass
class BpState:
    """What one sweep hands the next: asset and period means and variances plus
    the budget multiplier; single-owner mutable during a solve."""

    m_w: np.ndarray
    chi_w: np.ndarray
    m_u: np.ndarray
    chi_u: np.ndarray
    m_tilde: float = 0.0


@dataclass(frozen=True)
class Diagnostics:
    """Observables and status of one solver run."""

    q_hat: float
    eps_hat: float
    converged: bool
    diverged: bool
    sweeps_used: int
    final_delta: float


@dataclass(frozen=True)
class RsSolution:
    """Replica-symmetric order parameters at a given (alpha, beta, model)."""

    q: float
    chi: float
    eta: float
    delta: float
    alpha: float
    beta: float
    divergent: bool = False  # alpha <= 1 has no finite solution; q, chi are inf


def generate_returns(n_assets: int, n_periods: int, seed: int) -> ReturnSet:
    """I.i.d. standard normal returns from numpy's default_rng (PCG64); same seed,
    same matrix, so changing the generator would change every seeded output."""
    if n_assets < 2:
        raise ValueError(f"need at least 2 assets, got {n_assets}")
    if n_periods < 1:
        raise ValueError(f"need at least 1 period, got {n_periods}")
    rng = np.random.default_rng(seed)
    return ReturnSet(rng.standard_normal((n_assets, n_periods)))


class ReturnsParseError(ValueError):
    """Malformed returns file; message carries the row/column location."""


def load_returns(path: str, n_assets: int, center: bool = False) -> ReturnSet:
    """Read one asset per CSV row; p is inferred from the column count.

    np.loadtxt parses the file; when it fails (or warns on an empty file) the
    file is scanned cell by cell instead, which reads whatever float() reads
    and locates a malformed cell or row by its physical line number.
    center=True subtracts per-asset sample means; off by default so file and
    synthetic inputs go through identical arithmetic.
    """
    # a handle, not the path: given a str, np.loadtxt would decompress a .gz
    # name, pick up a missing file's .gz sibling and download a URL
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            entries = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        entries = _scan_returns(path)
    if len(entries) != n_assets:
        raise ReturnsParseError(f"expected {n_assets} asset rows, found {len(entries)}")
    if center:
        entries = entries - entries.mean(axis=1, keepdims=True)
    return ReturnSet(entries)


def _scan_returns(path: str) -> np.ndarray:
    """load_returns' cell-by-cell parse: blank lines are skipped, and a
    non-numeric cell, a ragged row or an empty file raises ReturnsParseError."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for row_index, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            values = []
            for col_index, cell in enumerate(cells, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ReturnsParseError(
                        f"non-numeric cell at row {row_index}, column {col_index}: {cell!r}"
                    ) from None
            if rows and len(values) != len(rows[0]):
                raise ReturnsParseError(
                    f"ragged row at row {row_index}: got {len(values)} columns, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise ReturnsParseError(f"no rows in {path}")
    return np.array(rows, dtype=float)


def save_returns(returns: ReturnSet, path: str) -> None:
    """Write CSV that round-trips bit-exactly through load_returns (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:  # a path ending .gz stays plain text
        np.savetxt(fh, returns.entries, fmt="%.17g", delimiter=",")
