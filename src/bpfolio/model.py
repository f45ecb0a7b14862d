"""Shared domain types: return sets, portfolios, cost models, solver config, and
the records a solve or a replica calculation returns. The solver's iterate is
not among them: engine's solve loop holds it as local arrays."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ReturnSet:
    """N x p matrix of per-asset, per-period returns plus derived shape data."""

    entries: np.ndarray

    def __post_init__(self):
        # a copy, because the caller may write to its array later
        self._adopt(np.array(self.entries, dtype=float))

    @classmethod
    def _take(cls, entries: np.ndarray) -> ReturnSet:
        """A ReturnSet over a float array that nothing else holds, kept
        without the copy __init__ makes; for the package's own loaders."""
        returns = object.__new__(cls)
        returns._adopt(entries)
        return returns

    def _adopt(self, entries: np.ndarray) -> None:
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
    return ReturnSet._take(rng.standard_normal((n_assets, n_periods)))


class ReturnsParseError(ValueError):
    """Malformed returns file; message carries the row/column location."""


def load_returns(path: str, n_assets: int, center: bool = False) -> ReturnSet:
    """Read one asset per CSV row; p is inferred from the column count.

    The file is read once, in binary, and split into lines where text mode
    splits them, so a lone carriage return ends a line too; blank lines are
    skipped. Each stripped row is read as the JSON array b"[" + row + b"]"
    with orjson into an array of min(n_assets, _FIRST_ROWS) rows that doubles
    as rows arrive, up to n_assets, for a file and a pipe alike. A row orjson
    cannot read (a byte outside _NUMBER_BYTES, or a cell such as .5, 1., +1
    or 01, or one that overflows a double) is read cell by cell with float()
    instead. Both give the bits float() gives for every cell, except that
    orjson returns a bare -0 as the integer 0, so zero cells are read again
    with float() to keep their sign. A malformed cell or a ragged row raises
    ReturnsParseError with its physical line number, and so does a file
    with no rows or with a row count other than n_assets.
    center=True subtracts per-asset sample means; off by default so file and
    synthetic inputs go through identical arithmetic.
    """
    import orjson  # here, not at the top: `import bpfolio.cli` does not need it

    with open(path, "rb") as fh:
        entries = None
        rows = 0
        row_index = 0  # physical line number, blank lines included
        for chunk in fh:
            lines = chunk.replace(b"\r\n", b"\n").split(b"\r") if b"\r" in chunk else (chunk,)
            for line in lines:
                row_index += 1
                line = line.strip()
                if not line:
                    continue
                values = None
                if not line.translate(None, _NUMBER_BYTES):
                    try:
                        values = orjson.loads(b"[" + line + b"]")
                    except orjson.JSONDecodeError:
                        pass
                from_json = values is not None
                if not from_json:
                    values = _float_row(line, row_index)
                    if not values:
                        continue
                if entries is None:
                    # doubled as rows arrive, so a too-large n_assets costs
                    # at most twice the rows the input holds, or _FIRST_ROWS
                    entries = np.empty((max(0, min(n_assets, _FIRST_ROWS)), len(values)))
                if len(values) != entries.shape[1]:
                    raise ReturnsParseError(
                        f"ragged row at row {row_index}: got {len(values)} columns, "
                        f"expected {entries.shape[1]}"
                    )
                if rows == len(entries) < n_assets:
                    # in place, by realloc: a copy would free the old block,
                    # which glibc keeps resident once it falls below the mmap
                    # threshold that freeing it raised, so a second solve of a
                    # 2000 x 4000 file in one process peaked at 124 MB, not
                    # 100 MB. No view of entries outlives its statement.
                    entries.resize((min(n_assets, 2 * rows), entries.shape[1]), refcheck=False)
                # rows past n_assets are still read, to locate a fault and to
                # count them
                if rows < len(entries):
                    entries[rows] = values
                    if from_json:
                        zeros = np.flatnonzero(entries[rows] == 0.0)
                        if zeros.size:
                            cells = line.split(b",")
                            entries[rows, zeros] = [float(cells[j]) for j in zeros]
                rows += 1
    if entries is None:
        raise ReturnsParseError(f"no rows in {path}")
    if rows != n_assets:
        raise ReturnsParseError(f"expected {n_assets} asset rows, found {rows}")
    if center:
        entries -= entries.mean(axis=1, keepdims=True)
    return ReturnSet._take(entries)


# rows first allocated for any input, file or pipe
_FIRST_ROWS = 1024

# bytes a row may hold once its ends are stripped: those of JSON numbers, the
# comma, and blanks, which float() strips too. A row with any other byte is
# read with float(), so the JSON literals true, false and null, strings and
# arrays never load as numbers.
_NUMBER_BYTES = b"0123456789.eE+-, \t"


def _float_row(line: bytes, row_index: int) -> list[float]:
    """A row orjson cannot read, decoded as UTF-8, stripped and read cell by
    cell with float(); empty for a row of Unicode blanks."""
    text = line.decode("utf-8").strip()
    if not text:
        return []
    values = []
    for col_index, cell in enumerate(text.split(","), start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise ReturnsParseError(
                f"non-numeric cell at row {row_index}, column {col_index}: {cell!r}"
            ) from None
    return values


def save_returns(returns: ReturnSet, path: str) -> None:
    """Write CSV that round-trips bit-exactly through load_returns (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:  # a path ending .gz stays plain text
        np.savetxt(fh, returns.entries, fmt="%.17g", delimiter=",")
