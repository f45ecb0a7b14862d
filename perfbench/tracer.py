"""Span tracing of bpfolio's public functions, installed at run time.

The program's source is not touched: `install` replaces module attributes
with wrappers that record one span per call (name, start, end, parent).
Spans are kept in memory and turned into per-layer metrics at the end. A
layer's self time is its span time minus the time of its direct child spans.
"""
from __future__ import annotations

import time

import numpy as np


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """fn wrapped so that every call records a span named name."""
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with each span's self time."""
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        name = table[:, 0].astype(np.int64)
        parent = table[:, 3].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {"name": name, "start": table[:, 1], "end": table[:, 2],
                "parent": parent, "duration": duration, "self": duration - child}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class LayerStats:
    """Calls, total time and self time per span name, optionally by parent name."""

    def __init__(self, tracer: Tracer):
        self._names = tracer.names
        self._columns = tracer.arrays()

    def _select(self, name: str, parent: str | None):
        columns = self._columns
        if name not in self._names:
            return np.zeros(columns["name"].size, dtype=bool)
        mask = columns["name"] == self._names.index(name)
        if parent is not None:
            parents = columns["parent"]
            parent_names = np.where(parents >= 0, columns["name"][parents], -1)
            wanted = self._names.index(parent) if parent in self._names else -2
            mask &= parent_names == wanted
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._select(name, parent).sum())

    def total(self, name: str, parent: str | None = None) -> float:
        return float(self._columns["duration"][self._select(name, parent)].sum())

    def self_time(self, name: str, parent: str | None = None) -> float:
        return float(self._columns["self"][self._select(name, parent)].sum())


def install(tracer: Tracer, cli, engine, channels, theory) -> None:
    """Wrap the public functions each layer exposes, where its callers look them up.

    engine.solve, the sweeps and channel_for are looked up in `engine`; the
    special kernels in `channels`, where the absolute-deviation channel binds
    them; load_returns, generate_returns and generic_model in `cli`;
    rs_fixed_point in `theory`, which `cli` calls through the module.
    """
    wrap = tracer.wrap
    engine.solve = wrap("engine.solve", engine.solve)
    engine.period_sweep = wrap("engine.period_sweep", engine.period_sweep)
    engine.asset_sweep = wrap("engine.asset_sweep", engine.asset_sweep)
    channels.log_gaussian_tail = wrap("special.log_gaussian_tail", channels.log_gaussian_tail)
    channels.mills_excess = wrap("special.mills_excess", channels.mills_excess)
    theory.rs_fixed_point = wrap("theory.rs_fixed_point", theory.rs_fixed_point)
    cli.load_returns = wrap("model.load_returns", cli.load_returns)
    cli.generate_returns = wrap("model.generate_returns", cli.generate_returns)
    cli.main = wrap("cli.main", cli.main)
    cli.run_sweep = wrap("cli.run_sweep", cli.run_sweep)

    channel_for = engine.channel_for

    def traced_channel_for(model):
        traced = wrap("channels.channel", channel_for(model))

        def channel(h, chi_tilde, beta):
            tracer.count("channel_elements", np.size(h))
            return traced(h, chi_tilde, beta)

        return channel

    engine.channel_for = traced_channel_for

    generic_model = cli.generic_model

    def traced_generic_model(cost, order=64):
        def counted_cost(u):
            tracer.count("cost_calls")
            return cost(u)

        return generic_model(counted_cost, order=order)

    cli.generic_model = traced_generic_model


def layer_metrics(tracer: Tracer, n_assets: int, n_periods: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (0 for a layer it never entered)."""
    stats = LayerStats(tracer)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    solves = stats.calls("engine.solve")
    sweeps = stats.calls("engine.period_sweep")
    period_self = stats.self_time("engine.period_sweep")
    asset_self = stats.self_time("engine.asset_sweep")
    channel = "channels.channel"
    special_calls = (stats.calls("special.log_gaussian_tail", channel)
                     + stats.calls("special.mills_excess", channel))
    cli_self = stats.self_time("cli.main") + stats.self_time("cli.run_sweep")
    # four dense passes over an N x p float64 matrix per sweep (x and x*x, both
    # sides); computed from the array sizes, not measured traffic
    matvec_bytes = 32.0 * n_assets * n_periods * sweeps
    return {
        "model.load_returns_s": ratio(stats.total("model.load_returns"),
                                      stats.calls("model.load_returns")),
        "engine.sweeps": ratio(sweeps, solves),
        "engine.sweep_us": 1e6 * ratio(stats.total("engine.solve"), sweeps),
        "engine.period_sweep_us": 1e6 * ratio(period_self, sweeps),
        "engine.asset_sweep_us": 1e6 * ratio(asset_self, sweeps),
        "engine.matvec_gbps": 1e-9 * ratio(matvec_bytes, period_self + asset_self),
        "engine.loop_us": 1e6 * ratio(stats.self_time("engine.solve"), sweeps),
        "channels.channel_us": 1e6 * ratio(stats.self_time(channel), stats.calls(channel)),
        "channels.cost_calls_per_element": ratio(tracer.counts.get("cost_calls", 0),
                                                 tracer.counts.get("channel_elements", 0)),
        "special.log_gaussian_tail_us": 1e6 * ratio(
            stats.self_time("special.log_gaussian_tail", channel),
            stats.calls("special.log_gaussian_tail", channel)),
        "special.mills_excess_us": 1e6 * ratio(
            stats.self_time("special.mills_excess", channel),
            stats.calls("special.mills_excess", channel)),
        "special.calls_per_sweep": ratio(special_calls, sweeps),
        "theory.rs_fixed_point_ms": 1e3 * ratio(stats.total("theory.rs_fixed_point"),
                                                stats.calls("theory.rs_fixed_point")),
        "cli.self_s": ratio(cli_self, solves),
    }
