"""Child process of the benchmark: makes the workload's calls into bpfolio.

It runs whole rounds of the workload's entry-point call until --seconds have
passed, then the package's reference solver, and writes what the calls
returned and how long they took to --out as JSON. With --trace 1 it first
wraps bpfolio's public functions (see tracer.py) and adds per-layer metrics.
The parent (run.py) checks the outputs; this process does nothing but the
program calls, so its peak resident memory is theirs.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import sys
import time

import numpy as np
import scipy

from bpfolio import channels, cli, engine, oracles, theory
from bpfolio.model import ABSOLUTE_DEVIATION, ReturnSet

import tracer as tracing
from workloads import (AD_ALPHA, AD_TRIALS_PER_ROUND, GENERIC_COST, GENERIC_SWEEPS, GENERIC_TOL,
                       SHAPES, instance_seed)

# exact_mean_variance on the 2 x 16 instance takes ~100 us; time many calls
GENERIC_REFERENCE_CALLS = 200


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    except OSError:
        return None
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def ad_round(seed: int, index: int) -> dict:
    n_assets, _ = SHAPES["ad-ensemble"]
    base_seed = instance_seed(seed, index * AD_TRIALS_PER_ROUND)
    csv_text, wall = timed(lambda: cli.run_sweep(
        ABSOLUTE_DEVIATION, [AD_ALPHA], n_assets, AD_TRIALS_PER_ROUND, base_seed))
    return {"wall_s": wall, "instances": AD_TRIALS_PER_ROUND,
            "base_seed": base_seed, "csv": csv_text}


def cli_round(argv: list[str], out_path: str) -> dict:
    code, wall = timed(lambda: cli.main(argv + ["--out", out_path]))
    record = None
    if code == 0:
        with open(out_path, encoding="utf-8") as handle:
            record = json.load(handle)
        os.unlink(out_path)
    return {"wall_s": wall, "instances": 1, "exit_code": code, "record": record}


def workload_round(args, index: int) -> dict:
    if args.workload == "ad-ensemble":
        return ad_round(args.seed, index)
    out_path = os.path.join(os.path.dirname(args.out), f"solve-{args.workload}-{args.seed}.json")
    if args.workload == "mv-csv-large":
        n_assets, _ = SHAPES["mv-csv-large"]
        return cli_round(["solve", "--model", "mv", "--input", args.csv,
                          "--n", str(n_assets)], out_path)
    n_assets, n_periods = SHAPES["generic-expr"]
    return cli_round(["solve", "--model", "generic", "--cost-expr", GENERIC_COST,
                      "--random", "--n", str(n_assets), "--p", str(n_periods),
                      "--seed", str(instance_seed(args.seed)), "--tol", GENERIC_TOL,
                      "--max-sweeps", str(GENERIC_SWEEPS)], out_path)


def reference(args) -> dict:
    """The package's reference solver on the run's first instance.

    It counts as one operation; on the small generic-expr instance it is
    repeated so that the median time is steady, and every repeat must return
    the same positions.
    """
    n_assets, n_periods = SHAPES[args.workload]
    instance = np.random.default_rng(instance_seed(args.seed)).standard_normal(
        (n_assets, n_periods))
    returns = ReturnSet(instance)
    del instance
    if args.workload == "ad-ensemble":
        calls = [lambda: oracles.convex_oracle(returns, ABSOLUTE_DEVIATION)]
    elif args.workload == "mv-csv-large":
        # the CSV holds the same matrix with every digit, so this is the loaded instance
        calls = [lambda: oracles.exact_mean_variance(returns)]
    else:
        calls = [lambda: oracles.exact_mean_variance(returns)] * GENERIC_REFERENCE_CALLS
    walls, outputs = [], []
    for call in calls:
        portfolio, wall = timed(call)
        walls.append(wall)
        outputs.append(portfolio.positions)
    return {"wall_s": walls, "positions": outputs[0].tolist(),
            "repeats_identical": all(np.array_equal(o, outputs[0]) for o in outputs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--csv", help="returns CSV of the mv-csv-large workload")
    parser.add_argument("--out", required=True,
                        help="result JSON; the CLI's outputs and the trace go beside it")
    args = parser.parse_args()
    args.out = os.path.abspath(args.out)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, cli, engine, channels, theory)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(workload_round(args, len(rounds)))
    # the run's whole window: this machine's speed drifts from round to round
    solve_s = sum(r["wall_s"] for r in rounds) / sum(r["instances"] for r in rounds)
    result = {
        "environment": environment(),
        "rounds": rounds,
        "solve_s": solve_s,
        "reference": reference(args),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, *SHAPES[args.workload])
        tracer.save(os.path.join(os.path.dirname(args.out),
                                 f"trace-{args.workload}-{args.seed}.npz"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
