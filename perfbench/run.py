"""bpfolio benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload ad-ensemble --seed 1 --seconds 20 --trace 0

Workloads: ad-ensemble, mv-csv-large, generic-expr (see perfbench/README.md).
The program's calls run in a child process (worker.py); this process makes
the inputs, measures set-up time, checks every output against references
computed apart from the program (checks.py) and prints one JSON object as
its last line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
A record of the run goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from workloads import AD_ALPHA, NAMES, SHAPES, instance_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CACHE = os.path.join(HERE, "cache")

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; start = time.perf_counter(); import bpfolio.cli; "
                "print(time.perf_counter() - start)")
# every run must end within this many seconds
RUN_LIMIT_S = 175.0

# output-check bounds
AD_EXCESS_RANGE = (-1e-9, 1e-3)  # (eps_mean - lp_mean) / lp_mean
AD_Q_VS_LP = 1e-2  # relative gap between the ensemble overlap and the LP optima's
AD_Q_REPLICA_VS_ZERO_T = 1e-3
CONVEX_VS_LP = 1e-6
MV_RELATIVE = 1e-8
GENERIC_ABSOLUTE = 1e-6
BUDGET = 1e-9


class Check:
    """Collects named pass/fail results and the operations that failed them.

    An operation is one instance solved by the entry point or one reference
    call, keyed by the caller; it fails once however many checks it fails.
    """

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self._failed: dict = {}

    def require(self, name: str, passed: bool, detail: str,
                operation=None, operations: int = 1) -> bool:
        self.results.append((name, bool(passed), detail))
        if not passed:
            self._failed[operation if operation is not None else name] = operations
        return bool(passed)

    @property
    def failed_operations(self) -> int:
        return sum(self._failed.values())

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.results)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = RESULTS
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run exceeded its time limit")
    return left


def measure_setup(deadline: float) -> float:
    """Median wall time of `import bpfolio.cli` in fresh interpreters (one warm-up first)."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=remaining(deadline))
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def returns_csv(seed: int) -> str:
    """The mv-csv-large input for a seed, written once and kept until another seed's."""
    path = os.path.join(CACHE, f"returns-{seed}.csv")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE, exist_ok=True)
    for stale in glob.glob(os.path.join(CACHE, "returns-*.csv*")):
        os.unlink(stale)
    x = checks.returns_matrix(instance_seed(seed), *SHAPES["mv-csv-large"])
    partial = path + ".part"
    with open(partial, "w", encoding="utf-8") as handle:
        for row in x.tolist():
            # repr is the shortest text that reads back as the same double
            handle.write(",".join(map(repr, row)))
            handle.write("\n")
    os.replace(partial, path)
    return path


def run_worker(args, csv_path, deadline: float) -> dict:
    out = os.path.join(RESULTS, f"worker-{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.unlink(out)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out]
    if csv_path is not None:
        command += ["--csv", csv_path]
    subprocess.run(command, env=child_env(), check=True, timeout=remaining(deadline))
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.unlink(out)
    return result


def parse_sweep_csv(text: str) -> dict:
    header, row = text.strip().splitlines()[:2]
    return dict(zip(header.split(","), (float(cell) for cell in row.split(","))))


def check_ad(worker: dict, check: Check) -> dict:
    """Ensemble cost against the LP, overlap against the LP optima and replica theory.

    The cost and overlap gates apply to the run's whole ensemble, as in the
    experiment; one instance of 100 x 200 can sit at 5e-4 cost excess.
    """
    n_assets, n_periods = SHAPES["ad-ensemble"]
    zero_t = checks.zero_temperature_ad_overlap(AD_ALPHA)
    rows, lp_costs, lp_overlaps = [], [], []
    for index, round_ in enumerate(worker["rounds"]):
        trials = round_["instances"]
        key = ("round", index)
        row = parse_sweep_csv(round_["csv"])
        check.require("ad.n_diverged", row["n_diverged"] == 0,
                      f"{int(row['n_diverged'])} of {trials}", key, trials)
        replica_gap = abs(row["q_replica"] - zero_t) / zero_t
        check.require("ad.q_replica_vs_zero_temperature",
                      replica_gap <= AD_Q_REPLICA_VS_ZERO_T,
                      f"{row['q_replica']:.6f} vs {zero_t:.6f}: {replica_gap:.2e}", key, trials)
        for trial in range(trials):
            w, cost = checks.ad_lp_optimum(checks.returns_matrix(
                round_["base_seed"] + trial, n_assets, n_periods))
            lp_costs.append(cost)
            lp_overlaps.append(float(w @ w) / n_assets)
        rows.append(row)

    # rounds have equally many trials, so the run's means are means of round means;
    # the pooled variance adds the within-round spread (from each q_se) to the between
    trials = worker["rounds"][0]["instances"]
    total = trials * len(rows)
    eps_mean = float(np.mean([row["eps_mean"] for row in rows]))
    lp_mean = float(np.mean(lp_costs))
    q_means = np.array([row["q_mean"] for row in rows])
    q_ses = np.array([row["q_se"] for row in rows])
    q_mean = float(q_means.mean())
    q_lp = float(np.mean(lp_overlaps))
    excess = (eps_mean - lp_mean) / lp_mean
    low, high = AD_EXCESS_RANGE
    check.require("ad.excess_cost", low <= excess <= high,
                  f"{excess:.3e} in [{low:g}, {high:g}]", "ensemble", total)
    gap = abs(q_mean - q_lp) / q_lp
    check.require("ad.q_vs_lp", gap <= AD_Q_VS_LP, f"{gap:.2e} <= {AD_Q_VS_LP:g}",
                  "ensemble", total)

    first = checks.returns_matrix(worker["rounds"][0]["base_seed"], n_assets, n_periods)
    convex = checks.ad_cost(first, np.array(worker["reference"]["positions"]))
    convex_gap = abs(convex - lp_costs[0]) / lp_costs[0]
    check.require("ad.convex_oracle_vs_lp", convex_gap <= CONVEX_VS_LP,
                  f"{convex_gap:.2e} <= {CONVEX_VS_LP:g}", "reference")
    budget = checks.budget_gap(worker["reference"]["positions"])
    check.require("ad.convex_oracle_budget", budget <= BUDGET,
                  f"{budget:.2e} <= {BUDGET:g}", "reference")

    squares = trials * (trials - 1) * np.sum(q_ses ** 2) + trials * np.sum((q_means - q_mean) ** 2)
    q_se = math.sqrt(squares / (total - 1) / total) if total > 1 else math.nan
    q_replica = rows[0]["q_replica"]
    return {
        "instances": total,
        "excess_cost": excess,
        "q_mean": q_mean,
        "q_se": q_se,
        "q_lp_mean": q_lp,
        "q_replica": q_replica,
        "q_zero_temperature": zero_t,
        # |q_mean - q_replica| in standard errors: recorded, not a gate (see README)
        "q_z": abs(q_mean - q_replica) / q_se if q_se > 0 else math.nan,
    }


def check_positions(name: str, positions, reference, check: Check, relative: bool,
                    operation) -> None:
    if relative:
        error = checks.relative_component_error(positions, reference)
        check.require(f"{name}.relative_error", error <= MV_RELATIVE,
                      f"{error:.2e} <= {MV_RELATIVE:g}", operation)
    else:
        error = float(np.max(np.abs(np.asarray(positions) - reference)))
        check.require(f"{name}.absolute_error", error <= GENERIC_ABSOLUTE,
                      f"{error:.2e} <= {GENERIC_ABSOLUTE:g}", operation)
    gap = checks.budget_gap(positions)
    check.require(f"{name}.budget", gap <= BUDGET, f"{gap:.2e} <= {BUDGET:g}", operation)


def check_closed_form(args, worker: dict, check: Check) -> dict:
    """CLI solves and exact_mean_variance against the numpy closed form."""
    x = checks.returns_matrix(instance_seed(args.seed), *SHAPES[args.workload])
    exact = checks.mv_closed_form(x)
    relative = args.workload == "mv-csv-large"
    costs = []
    for index, round_ in enumerate(worker["rounds"]):
        record = round_["record"]
        # exit code 2 means the solve diverged
        if not check.require("cli.exit_code", round_["exit_code"] == 0,
                             f"exit {round_['exit_code']}", ("round", index)):
            continue
        check_positions("solve", record["positions"], exact, check, relative, ("round", index))
        costs.append(0.5 * float(np.sum((x.T @ np.asarray(record["positions"])) ** 2)))
    reference = worker["reference"]
    check_positions("exact_mean_variance", reference["positions"], exact, check, True,
                    "reference")
    check.require("exact_mean_variance.repeats_identical", reference["repeats_identical"],
                  f"{len(reference['wall_s'])} calls", "reference")
    best = 0.5 * float(np.sum((x.T @ exact) ** 2))
    return {"excess_cost": (np.mean(costs) - best) / best if costs else math.nan}


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SOURCE, "bpfolio", "__init__.py")):
        print(f"perfbench: no bpfolio sources under {SOURCE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    setup_s = None if args.trace else measure_setup(deadline)
    csv_path = returns_csv(args.seed) if args.workload == "mv-csv-large" else None
    worker = run_worker(args, csv_path, deadline)

    check = Check()
    if args.workload == "ad-ensemble":
        summary = check_ad(worker, check)
    else:
        summary = check_closed_form(args, worker, check)
    reference_s = statistics.median(worker["reference"]["wall_s"])
    # one operation per instance solved, plus the reference call
    attempted = sum(r["instances"] for r in worker["rounds"]) + 1

    if args.trace:
        metrics = dict(worker["layers"])
        metrics["oracles.reference_s"] = reference_s
        metrics["accuracy.excess_cost"] = summary["excess_cost"]
        metrics["trace.solve_s"] = worker["solve_s"]
    else:
        metrics = {"setup_s": setup_s, "solve_s": worker["solve_s"],
                   "peak_rss_mb": worker["peak_rss_mb"]}
    spec = benchmark_spec()
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": check.correct,
        "attempted": attempted,
        "failed": check.failed_operations,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "environment": worker["environment"],
        "rounds": len(worker["rounds"]),
        "round_solve_s": [r["wall_s"] / r["instances"] for r in worker["rounds"]],
        "round_sweeps": [r["record"]["sweeps"] for r in worker["rounds"] if r.get("record")],
        "reference_s": reference_s, "summary": summary,
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in check.results],
        "result": result,
    }
    with open(os.path.join(RESULTS, f"record-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for name, passed, detail in check.results:
        print(f"check {name}: {'pass' if passed else 'FAIL'} {detail}".rstrip())
    print("run " + json.dumps({k: record[k] for k in
                               ("git_sha", "environment", "rounds", "reference_s", "summary")}))
    print(json.dumps(result))
    return 0


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
