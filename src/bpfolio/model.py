"""Shared domain types: return sets, portfolios, cost models, solver config, and
the records a solve or a replica calculation returns. The solver's iterate is
not among them: engine's solve loop holds it as local arrays."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
    child reads the rows after the first line end at or past the
    middle of the file and sends them back over a pipe, while this process
    reads the rows before it. The array, its bits and every message are
    those of the one-pass read, the first fault in file order included. A
    pipe or other input that is not a regular file is read in one pass.
    Python 3.12 and later warn (DeprecationWarning) at a fork in a process
    that has threads, as OpenBLAS gives this one; the child calls no BLAS.

    center=True subtracts per-asset sample means; off by default so file and
    synthetic inputs go through identical arithmetic.
    """
    # a 1 MiB buffer: at the default 8 KiB, readline rebuilds each long row
    # from many chunks
    with open(path, "rb", buffering=1 << 20) as fh:
        split = _split_point(fh.fileno())
        if split is None:
            part = _read_rows(fh, 0, None, n_assets)
        else:
            part = _read_in_two(fh, split, n_assets)
    if part.fault is not None:
        raise ReturnsParseError(str(part.fault))
    if part.entries is None:
        raise ReturnsParseError(f"no rows in {path}")
    if part.rows != n_assets:
        raise ReturnsParseError(f"expected {n_assets} asset rows, found {part.rows}")
    entries = part.entries
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


class _RowFault(Exception):
    """A malformed row. Its args are the row's physical line, counted from
    where the read began, and the message's text before and after it."""

    def after(self, lines: int) -> _RowFault:
        """The same fault, in a read that began `lines` lines earlier."""
        line, what, detail = self.args
        return _RowFault(lines + line, what, detail)

    def __str__(self):
        line, what, detail = self.args
        return f"{what} at row {line}{detail}"


class _Part(NamedTuple):
    """The rows of a file, or of one part of it, read up to the first fault."""

    entries: Optional[np.ndarray]  # the rows, then spare ones; None if there are none
    rows: int  # rows read, those past n_assets included
    lines: int  # physical lines read, blank ones included
    first_line: int  # the line of the first row, 0 if there is none
    fault: Optional[_RowFault]  # the first malformed row, where the read stopped


def _read_rows(handle, start: int, end: Optional[int], n_assets: int) -> _Part:
    """The rows of a binary input from byte `start`, where handle stands and a
    line begins, to byte `end`, where a line begins too, or to the end of the
    input when end is None. The array stores at most n_assets rows; those past
    them are still read, to locate a fault and to count them."""
    import orjson  # here, not at the top: `import bpfolio.cli` does not need it

    entries = None
    rows = 0
    row_index = 0  # physical line number, blank lines included
    first_line = 0
    position = start
    try:
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
                    first_line = row_index
                if len(values) != entries.shape[1]:
                    raise _RowFault(row_index, "ragged row",
                                    f": got {len(values)} columns, expected {entries.shape[1]}")
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
    except _RowFault as fault:
        return _Part(entries, rows, row_index, first_line, fault)
    return _Part(entries, rows, row_index, first_line, None)


def _float_row(line: bytes, row_index: int) -> list[float]:
    """A row orjson cannot read, decoded as UTF-8, stripped and read cell by
    cell with float(); empty for a row of Unicode blanks."""
    try:
        text = line.decode("utf-8").strip()
    except UnicodeDecodeError as error:
        # a comma is one byte in UTF-8, never part of a longer character
        column = line.count(b",", 0, error.start) + 1
        raise _RowFault(row_index, "non-UTF-8 cell",
                        f", column {column}: {line.split(b',')[column - 1]!r}") from None
    if not text:
        return []
    values = []
    for col_index, cell in enumerate(text.split(","), start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise _RowFault(row_index, "non-numeric cell",
                            f", column {col_index}: {cell!r}") from None
        # only here can a cell read as nan or inf: orjson rejects them
        if not math.isfinite(values[-1]):
            raise _RowFault(row_index, "non-finite cell", f", column {col_index}: {cell!r}")
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


def _read_in_two(fh, split: int, n_assets: int) -> _Part:
    """The _Part of a whole regular file: this process reads its rows up to
    byte `split` while a forked child reads the rest (_send_rows)."""
    import mmap
    import os
    import signal

    # the child reads through a mapping, since the file offset is shared;
    # mapped before the fork, it costs this process no resident pages
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as pipe:
            try:
                pid = os.fork()
                if pid == 0:
                    _send_rows(mapped, split, n_assets, read_end, write_end)
            except OSError:
                # no process to spare, as at a process limit: one pass, then
                return _read_rows(fh, 0, None, n_assets)
            finally:
                os.close(write_end)
            try:
                return _join(_read_rows(fh, 0, split, n_assets), pipe, n_assets)
            finally:
                # it may still be reading, after a fault in this process's part
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _send_rows(mapped, split: int, n_assets: int, read_end: int, write_end: int):
    """The child of _read_in_two, which never returns. It reads the rows of
    the mapped file from byte `split`, writes to write_end their pickled
    _Part, with the column count in place of the array, then the bytes of
    the rows it stored, and exits."""
    import os
    import pickle

    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            mapped.seek(split)
            part = _read_rows(iter(mapped.readline, b""), split, None, n_assets)
            entries = part.entries
            columns = None if entries is None else entries.shape[1]
            pickle.dump((part._replace(entries=None), columns), pipe)
            if entries is not None:
                pipe.write(memoryview(entries[:part.rows]).cast("B"))
    finally:
        os._exit(0)


def _join(head: _Part, pipe, n_assets: int) -> _Part:
    """The whole file's _Part, from this process's part and what the child
    sent to `pipe`. The child numbers its lines from where it began, so its
    fault moves past the lines of this process's part."""
    import pickle

    if head.fault is not None:
        return head
    ended_early = "the child reading the second part of the file ended early"
    try:
        tail, columns = pickle.load(pipe)
    except EOFError:
        raise ChildProcessError(ended_early) from None
    if head.entries is not None and tail.rows and columns != head.entries.shape[1]:
        # the child's first row is ragged against the rows before it
        tail = tail._replace(fault=_RowFault(
            tail.first_line, "ragged row",
            f": got {columns} columns, expected {head.entries.shape[1]}"))
    if tail.fault is not None:
        return head._replace(fault=tail.fault.after(head.lines))
    entries, rows = head.entries, head.rows + tail.rows
    if tail.rows:
        if entries is None:
            entries = np.empty((0, columns))
        # a file of another row count is refused, without these rows
        if rows == n_assets:
            entries.resize((n_assets, columns), refcheck=False)
            received = memoryview(entries[head.rows:]).cast("B")
            if pipe.readinto(received) != len(received):
                raise ChildProcessError(ended_early)
    first_line = head.first_line or tail.first_line and head.lines + tail.first_line
    return _Part(entries, rows, head.lines + tail.lines, first_line, None)


def save_returns(returns: ReturnSet, path: str) -> None:
    """Write CSV that round-trips bit-exactly through load_returns (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:  # a path ending .gz stays plain text
        np.savetxt(fh, returns.entries, fmt="%.17g", delimiter=",")
