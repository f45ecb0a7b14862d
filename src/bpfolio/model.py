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
        # a NaN propagates through both reductions; no N x p mask is built
        if not (math.isfinite(entries.min()) and math.isfinite(entries.max())):
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
        return np.broadcast_to(np.asarray(self.cost(u), dtype=float), u.shape)


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
    """Malformed returns file, its message carrying the row/column location, or
    another command-line value the CLI rejects as a usage error."""


def load_returns(path: str, n_assets: int, center: bool = False) -> ReturnSet:
    """Read one asset per CSV row; p is inferred from the column count.

    The file is read in binary and split into lines where text mode splits
    them, so a lone carriage return ends a line too; blank lines are
    skipped. Each stripped row is read as the JSON array b"[" + row + b"]"
    with orjson into an array of min(n_assets, _FIRST_ROWS) rows that doubles
    as rows arrive, up to n_assets, for a file and a pipe alike. A row orjson
    cannot read (a byte outside _NUMBER_BYTES, or a cell such as .5, 1., +1
    or 01, or one that overflows a double) is read cell by cell with float()
    instead. Both give the bits float() gives for every cell, except that
    orjson returns a bare -0 as the integer 0, so zero cells are read again
    with float() to keep their sign. A malformed, non-finite or non-UTF-8
    cell or a ragged row raises ReturnsParseError with its physical line
    number, and so does a file with no rows or with a row count other than
    n_assets.

    A regular file of at least _SPLIT_BYTES (8 MiB) is read in two parts at
    once where os.fork exists and this process may run on two cores or more,
    by its affinity mask and by its cgroup's CPU quota (_cpu_quota): a forked
    child reads the rows after the first line end at or past the middle of
    the file and sends them back over a pipe, while this process reads the
    rows before it. The parts are joined only where both hold rows of one
    width, n_assets in all, and the child sent all of its own. Any other
    split, or a mapping, pipe or fork the system refuses, is read again in
    one pass, which alone raises the errors past this process's part, so a
    large file whose first fault lies past the middle is read about 1.5 times.
    A pipe or other input that is not a regular file is read in one pass.
    Python 3.12 and later warn (DeprecationWarning) at a fork in a process
    that has threads, as OpenBLAS gives this one; the child calls no BLAS.

    center=True subtracts per-asset sample means; off by default so file and
    synthetic inputs go through identical arithmetic.
    """
    # a 1 MiB buffer: at the default 8 KiB, readline rebuilds each long row
    # from many chunks
    with open(path, "rb", buffering=1 << 20) as fh:
        split = _split_point(fh.fileno())
        joined = None if split is None else _read_in_two(fh, split, n_assets)
        if joined is None:
            if split is not None:
                fh.seek(0)
            joined = _read_rows(fh, None, n_assets)
    entries, rows = joined
    if entries is None:
        raise ReturnsParseError(f"no rows in {path}")
    if rows != n_assets:
        raise ReturnsParseError(f"expected {n_assets} asset rows, found {rows}")
    if center:
        entries -= entries.mean(axis=1, keepdims=True)
    return ReturnSet._take(entries)


# rows first allocated for any input, file or pipe
_FIRST_ROWS = 1024

# the smallest regular file that is read in two parts at once. Timed on rows
# of 250 and of 4000 cells, the two parts began to beat one pass at 1-2 MiB,
# and from 8 MiB they won every timing but those of one run in which the
# second core was busy (BENCH_23.json, loader_crossover)
_SPLIT_BYTES = 1 << 23

# bytes a row may hold once its ends are stripped: those of JSON numbers, the
# comma, and blanks, which float() strips too. A row with any other byte is
# read with float(), so the JSON literals true, false and null, strings and
# arrays never load as numbers.
_NUMBER_BYTES = b"0123456789.eE+-, \t"


def _read_rows(handle, end: Optional[int], n_assets: int) -> tuple[Optional[np.ndarray], int]:
    """The rows of a binary input from where handle stands, at a line start,
    through its next `end` bytes, which end at a line start too, or to the
    end of the input when end is None, and their count: an array of at most
    n_assets rows, then spare ones, or None if there are none. Rows past
    n_assets are still read, to locate a fault and to count them. The first
    malformed row raises ReturnsParseError with its physical line, counted from there."""
    import orjson  # here, not at the top: `import bpfolio.cli` does not need it

    entries = None
    rows = 0
    row_index = 0  # physical line number, blank lines included
    position = 0
    for chunk in handle:
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
                raise ReturnsParseError(f"ragged row at row {row_index}: got {len(values)}"
                                        f" columns, expected {entries.shape[1]}")
            if rows == len(entries) < n_assets:
                # in place, by realloc: a copy would free the old block,
                # which glibc keeps resident once it falls below the mmap
                # threshold that freeing it raised, so a second solve of a
                # 2000 x 4000 file in one process peaked at 124 MB, not
                # 100 MB. No view of entries outlives its statement.
                entries.resize((min(n_assets, 2 * rows), entries.shape[1]), refcheck=False)
            if rows < len(entries):
                entries[rows] = values
                if from_json:
                    zeros = np.flatnonzero(entries[rows] == 0.0)
                    if zeros.size:
                        cells = line.split(b",")
                        entries[rows, zeros] = [float(cells[j]) for j in zeros]
            rows += 1
        position += len(chunk)
        if position == end:
            break
    return entries, rows


def _float_row(line: bytes, row_index: int) -> list[float]:
    """A row orjson cannot read, decoded as UTF-8, stripped and read cell by
    cell with float(); empty for a row of Unicode blanks. A cell it cannot
    read raises ReturnsParseError at line `row_index`."""
    try:
        text = line.decode("utf-8").strip()
    except UnicodeDecodeError as error:
        # a comma is one byte in UTF-8, never part of a longer character
        column = line.count(b",", 0, error.start) + 1
        raise ReturnsParseError(f"non-UTF-8 cell at row {row_index}, column {column}:"
                                f" {line.split(b',')[column - 1]!r}") from None
    if not text:
        return []
    values = []
    for col_index, cell in enumerate(text.split(","), start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise ReturnsParseError(f"non-numeric cell at row {row_index},"
                                    f" column {col_index}: {cell!r}") from None
        # only here can a cell read as nan or inf: orjson rejects them
        if not math.isfinite(values[-1]):
            raise ReturnsParseError(f"non-finite cell at row {row_index},"
                                    f" column {col_index}: {cell!r}")
    return values


def _split_point(fd: int) -> Optional[int]:
    """The byte after the first line end at or past the middle of a file,
    where a forked child begins to read it; None for a one-pass read."""
    import os
    import stat

    if not hasattr(os, "fork"):
        return None
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES:
        return None
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if min(cores, _cpu_quota()) < 2:
        return None
    position = info.st_size // 2
    while block := os.pread(fd, 1 << 16, position):
        newline = block.find(b"\n")
        if newline >= 0:
            position += newline + 1
            # no child is started with nothing to read
            return position if position < info.st_size else None
        position += len(block)
    return None


def _cpu_quota(cgroups: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """The CPU time this process's cgroups may use, in cores: the least quota
    of cgroup v2 (cpu.max) or v1 (cpu.cfs_quota_us), inf without one or where
    none can be read."""
    quota = math.inf
    try:
        with open(cgroups) as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return quota
    for _, controllers, group in groups:
        if not controllers:
            files = [f"{root}{group}/cpu.max"]
        elif "cpu" in controllers.split(","):
            files = [f"{root}/cpu{group}/cpu.cfs_quota_us", f"{root}/cpu{group}/cpu.cfs_period_us"]
        else:
            continue
        try:
            words = []
            for name in files:
                with open(name) as fh:
                    words += fh.read().split()
            limit, period = words
            if limit not in ("max", "-1"):
                quota = min(quota, int(limit) / int(period))
        except (OSError, ValueError):
            pass  # no such file, as for the v2 group of a v1 cpu controller
    return quota


def _read_in_two(fh, split: int, n_assets: int) -> Optional[tuple[np.ndarray, int]]:
    """The rows of a whole regular file and their count, n_assets: this
    process reads its rows up to byte `split` while a forked child reads the
    rest (_send_rows). None, for the caller to read the file again in one
    pass, unless both parts hold rows of one width, n_assets in all, and the
    child sent all of its own."""
    import mmap
    import os
    import pickle
    import signal

    try:
        # the child reads through a mapping, since the file offset is shared;
        # mapped before the fork, it costs this process no resident pages
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            read_end, write_end = os.pipe()
            with open(read_end, "rb") as pipe:
                try:
                    pid = os.fork()
                    if pid == 0:
                        _send_rows(mapped, split, n_assets, read_end, write_end)
                finally:
                    os.close(write_end)
                try:
                    entries, rows = _read_rows(fh, split, n_assets)
                    if entries is None:
                        return None
                    # EOFError where the child sent nothing
                    tail_rows, columns = pickle.load(pipe)
                    if columns != entries.shape[1] or rows + tail_rows != n_assets:
                        return None
                    entries.resize((n_assets, columns), refcheck=False)
                    received = memoryview(entries[rows:]).cast("B")
                    if pipe.readinto(received) == len(received):
                        return entries, n_assets
                finally:
                    # it may still be reading or writing
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    except (OSError, EOFError):
        # no mapping, pipe or process to spare, as at a process limit; the
        # one-pass read meets again any fault of the file itself
        pass
    return None


def _send_rows(mapped, split: int, n_assets: int, read_end: int, write_end: int):
    """The child of _read_in_two, which never returns. It reads the rows of
    the mapped file from byte `split`, writes to write_end their pickled
    count and width, then the bytes of the rows it stored, and exits. It
    writes nothing at a fault or where its part holds no rows."""
    import os
    import pickle

    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            mapped.seek(split)
            entries, rows = _read_rows(iter(mapped.readline, b""), None, n_assets)
            if entries is not None:
                pickle.dump((rows, entries.shape[1]), pipe)
                pipe.write(memoryview(entries[:rows]).cast("B"))
    finally:
        os._exit(0)


def save_returns(returns: ReturnSet, path: str) -> None:
    """Write CSV that round-trips bit-exactly through load_returns (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:  # a path ending .gz stays plain text
        np.savetxt(fh, returns.entries, fmt="%.17g", delimiter=",")
