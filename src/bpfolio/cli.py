"""Command-line front end: single solves, Monte-Carlo alpha sweeps with replica
references, theory queries, and mean-variance vs absolute-deviation comparisons."""
from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import channels, engine, oracles, theory
from .model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    BpConfig,
    CostModel,
    ReturnsParseError,
    ReturnSet,
    generate_returns,
    generic_model,
    load_returns,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2

SWEEP_CSV_HEADER = "alpha,q_mean,q_se,eps_mean,eps_se,q_replica,eps_replica,n_diverged"

# _trials solves as many instances at once as fit in this many bytes of returns
BATCH_BYTES = 32 * 2**20


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1 (2 means divergence here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(args) -> int:
    """--seed, else 0; numpy's generator takes no negative seed."""
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ReturnsParseError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _jsonable(value):
    """JSON-safe copy; non-finite floats become strings so output stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _json_text(record: dict) -> str:
    return json.dumps(_jsonable(record), indent=2)


def _emit(text: str, out_path: str | None) -> None:
    """Print to stdout, or write the file atomically (temp file + rename)."""
    if out_path is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".bpfolio-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        os.replace(tmp_path, out_path)
    except OSError as exc:  # name the target, not the temporary file removed below
        raise OSError(exc.errno, exc.strerror, out_path) from None
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


_COST_FUNCTIONS = {
    "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "log1p": np.log1p, "cosh": np.cosh, "sinh": np.sinh, "tanh": np.tanh,
    "maximum": np.maximum, "minimum": np.minimum, "where": np.where,
    "sign": np.sign,
}
_COST_CONSTANTS = {"pi": np.pi, "e": np.e}
# node types a cost expression may contain: arithmetic, comparisons, calls,
# names and constants (the last three checked further in _check_cost_tree)
_COST_SYNTAX = (
    ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call, ast.Name,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.UAdd, ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _check_cost_tree(tree: ast.Expression) -> str | None:
    """What in the tree a cost expression may not contain, or None when nothing."""
    callees = set()
    for node in ast.walk(tree):
        if not isinstance(node, _COST_SYNTAX):
            return f"{type(node).__name__} syntax"
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _COST_FUNCTIONS):
                return "a call to anything but " + ", ".join(sorted(_COST_FUNCTIONS))
            if node.keywords:
                return "a keyword argument"
            callees.add(node.func)
        elif isinstance(node, ast.Name):
            if node not in callees and node.id != "u" and node.id not in _COST_CONSTANTS:
                return f"the name {node.id!r}"
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                return f"the constant {node.value!r}"
    return None


def _cost_from_expression(expression: str):
    """Cost callable from an arithmetic expression in the scalar/array variable u.

    The expression may use u, pi, e, numeric constants, arithmetic and
    comparison operators and positional calls to the functions in
    _COST_FUNCTIONS, nothing else (no attributes, subscripts, strings or
    lambdas). It is checked on its syntax tree, then compiled once with every
    constant a float, so that constant arithmetic overflows at once instead of
    growing Python integers without bound (9**9**9 would never return).
    """
    try:
        tree = ast.parse(expression, "<cost-expr>", "eval")
    except SyntaxError as exc:
        raise ReturnsParseError(f"--cost-expr {expression!r} is not an expression: "
                                f"{exc.msg}") from None
    reason = _check_cost_tree(tree)
    if reason is not None:
        raise ReturnsParseError(f"--cost-expr {expression!r}: {reason} is not allowed")
    try:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
    except OverflowError as exc:
        raise ReturnsParseError(f"--cost-expr {expression!r}: {exc}") from None
    code = compile(tree, "<cost-expr>", "eval")
    scope = {"__builtins__": {}, **_COST_FUNCTIONS, **_COST_CONSTANTS}

    def cost(u):
        try:
            return eval(code, scope, {"u": u})
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ReturnsParseError(
                f"--cost-expr {expression!r} failed on evaluation: {exc}") from None

    return cost


_MODELS = {"mv": MEAN_VARIANCE, "ad": ABSOLUTE_DEVIATION}


@contextlib.contextmanager
def _user_input():
    """Re-raise a ValueError from inside as ReturnsParseError, the CLI's usage error.

    Wraps only calls whose ValueErrors all come from checking values the user
    gave: load_returns and generate_returns (with ReturnSet), BpConfig,
    oracles.require_periods and theory's functions. Any other ValueError is a
    fault, and main lets it through.
    """
    try:
        yield
    except ValueError as exc:
        raise ReturnsParseError(str(exc)) from None


def _model_from_args(args) -> CostModel:
    if args.model in _MODELS:
        return _MODELS[args.model]
    if args.cost_expr is None:
        raise ReturnsParseError("generic model requires --cost-expr")
    return generic_model(_cost_from_expression(args.cost_expr))


def _config_from_args(args, model: CostModel):
    overrides = {name: getattr(args, name) for name in ("tol", "max_sweeps")
                 if getattr(args, name) is not None}
    with _user_input():
        return dataclasses.replace(engine.default_config(model, args.beta), **overrides)


def _load_instance(args) -> tuple[ReturnSet, int | None]:
    if args.input is not None:
        if args.n is None:
            raise ReturnsParseError("--input requires --n (number of asset rows)")
        with _user_input():
            return load_returns(args.input, args.n, center=args.center), None
    if not args.random:
        raise ReturnsParseError("choose an input: --input FILE or --random")
    if args.n is None or args.p is None:
        raise ReturnsParseError("--random requires --n and --p")
    seed = _seed(args)
    with _user_input():
        return generate_returns(args.n, args.p, seed), seed


def cmd_solve(args) -> tuple[str, int]:
    model = _model_from_args(args)
    returns, seed = _load_instance(args)
    config = _config_from_args(args, model)
    portfolio, diagnostics = engine.solve(returns, model, config)
    record = {
        "seed": seed,
        "n_assets": returns.n_assets,
        "n_periods": returns.n_periods,
        "model": model.kind,
        "q_hat": diagnostics.q_hat,
        "eps_hat": diagnostics.eps_hat,
        "converged": diagnostics.converged,
        "sweeps": diagnostics.sweeps_used,
        "diverged": diagnostics.diverged,
        "final_delta": diagnostics.final_delta,
        "positions": portfolio.positions,
    }
    return _json_text(record), EXIT_DIVERGED if diagnostics.diverged else EXIT_OK


def _mean_and_se(values) -> tuple[float, float]:
    """Mean and standard error; one value has zero error, none gives nan for both."""
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _replica_columns(model: CostModel, alpha: float, config: BpConfig) -> tuple[float, float]:
    """The sweep row's replica (q, eps) for solves run with config: mv's from
    marchenko_pastur, the ad zero-temperature closed forms for a zero-temperature
    solve, else the q of the ad fixed point at config.beta, whose rule splits at the
    clip points (nan where it fails), and eps nan; nan for both for a generic cost."""
    if model.kind == "mv":
        stats = theory.marchenko_pastur(alpha)
        return stats.q, stats.eps
    if model.kind != "ad":
        return math.nan, math.nan
    if engine.zero_temperature(model, config):
        return theory.rs_zero_temperature_ad(alpha)
    try:
        return theory.rs_fixed_point(alpha, config.beta, model).q, math.nan
    except (theory.ReplicaConvergenceError, ValueError):  # no fixed point, or beyond floats
        return math.nan, math.nan


def _trials(model, n_assets, n_periods, trials, base_seed, config=None):
    """Solve an ensemble: for each trial i, yield (returns, portfolio,
    diagnostics) of the n_assets x n_periods instance seeded base_seed + i.

    The trials are drawn and solved in batches of as many instances as fit in
    BATCH_BYTES (at least one), each one engine.solve_batch call, whose
    results do not depend on the batch an instance is solved in."""
    # at least one instance; generate_returns names the error of an empty shape
    size = max(1, BATCH_BYTES // max(1, 8 * n_assets * n_periods))
    for start in range(0, trials, size):
        with _user_input():
            batch = [generate_returns(n_assets, n_periods, base_seed + trial)
                     for trial in range(start, min(start + size, trials))]
        for returns, (portfolio, diagnostics) in zip(
                batch, engine.solve_batch(batch, model, config)):
            yield returns, portfolio, diagnostics


def run_sweep(model: CostModel, alphas, n_assets: int, trials: int, base_seed: int,
              beta: float | None = None) -> str:
    """Monte-Carlo sweep over alpha; returns the CSV text (schema is fixed).

    Each alpha solves instances of round(alpha*n_assets) periods, and its row
    reports the alpha of those instances, periods over assets, and the
    references at that alpha. Per-trial seed is base_seed + trial index.
    Statistics cover non-diverged trials (an absolute-deviation solve above
    beta 1 averages over its hold phase and reports converged=False; at
    N=100, alpha=2 the default solve's cost sat 1.3e-4 above the LP optimum
    on average over 100 draws, 3.7e-4 at worst). The mean-variance
    references are the q and eps of theory.marchenko_pastur. The default
    absolute-deviation sweep (no beta, or one of at least 2^20) is
    zero-temperature: its trials run max-sum BP and its references are the
    closed forms of theory.rs_zero_temperature_ad (q 2.485 and eps 0.9405 at
    alpha=2). An explicit beta below 2^20 solves at finite temperature, and
    its q reference is the replica fixed point at that beta, nan where that
    fixed point does not converge or leaves the float range; its eps has no
    closed form and is reported nan. A generic cost has neither reference,
    so both columns are nan. Fewer than 2 assets or 1 trial, or an invalid
    beta, raise ReturnsParseError (a ValueError).
    """
    if n_assets < 2:
        raise ReturnsParseError(f"need at least 2 assets, got {n_assets}")
    if trials < 1:
        raise ReturnsParseError(f"trials must be at least 1, got {trials}")
    with _user_input():
        config = engine.default_config(model, beta)
    if trials == 1:
        print("warning: trials=1 gives degenerate statistics; "
              "standard errors reported as 0", file=sys.stderr)
    lines = [SWEEP_CSV_HEADER]
    for requested in alphas:
        n_periods = int(round(requested * n_assets))
        alpha = n_periods / n_assets
        solved = [diagnostics for _, _, diagnostics
                  in _trials(model, n_assets, n_periods, trials, base_seed, config)
                  if not diagnostics.diverged]
        q_mean, q_se = _mean_and_se([diagnostics.q_hat for diagnostics in solved])
        eps_mean, eps_se = _mean_and_se([diagnostics.eps_hat for diagnostics in solved])
        q_replica, eps_replica = _replica_columns(model, alpha, config)
        lines.append(
            f"{alpha:.10g},{q_mean:.10g},{q_se:.10g},{eps_mean:.10g},{eps_se:.10g},"
            f"{q_replica:.10g},{eps_replica:.10g},{trials - len(solved)}"
        )
    return "\n".join(lines)


def cmd_sweep(args) -> tuple[str, int]:
    if args.n < 2:  # before the alphas, whose check reads n
        raise ReturnsParseError(f"need at least 2 assets, got {args.n}")
    try:
        alphas = [float(chunk) for chunk in args.alphas.split(",") if chunk]
    except ValueError as exc:
        raise ReturnsParseError(f"--alphas {args.alphas!r}: {exc}") from None
    if not alphas or not all(math.isfinite(a * args.n) and round(a * args.n) > args.n
                             for a in alphas):
        raise ReturnsParseError("sweep alphas must all be finite and exceed 1 "
                                f"as round(alpha*n)/n at n={args.n}")
    return run_sweep(_MODELS[args.model], alphas, args.n, args.trials, _seed(args),
                     beta=args.beta), EXIT_OK


def cmd_theory(args) -> tuple[str, int]:
    with _user_input():
        if args.which == "replica":
            if args.model == "es":
                raise ReturnsParseError(
                    "replica order parameters cover the mv and ad models; "
                    "expected shortfall has only the annealed formula")
            model = _MODELS[args.model]
            if model.kind == "mv":
                solution = theory.rs_closed_form_mv(args.alpha, args.beta)
            else:
                solution = theory.rs_fixed_point(args.alpha, args.beta, model)
            record = dataclasses.asdict(solution)
        elif args.which == "mp":
            record = dataclasses.asdict(theory.marchenko_pastur(args.alpha))
        else:
            record = {
                "model": args.model,
                "alpha": args.alpha,
                "s": args.s,
                "gamma": args.gamma,
                "value": theory.annealed_cost(args.model, args.alpha, args.s,
                                              gamma=args.gamma),
            }
    return _json_text(record), EXIT_OK


_COUNTEREXAMPLE_ROWS = ((1.0, 3.0), (2.0, 1.0))


def cmd_ky(args) -> tuple[str, int]:
    if args.counterexample:
        returns = ReturnSet(np.array(_COUNTEREXAMPLE_ROWS))
        w_mv = oracles.exact_mean_variance(returns)
        w_ad = oracles.ad_two_asset_kinks(returns)
        distance = float(np.linalg.norm(w_mv.positions - w_ad.positions))
        record = {
            "w_mv": w_mv.positions,
            "w_ad": w_ad.positions,
            "equal": bool(distance <= 1e-12),
            "distance": distance,
            "cosine": theory.portfolio_similarity(w_mv, w_ad),
        }
        return _json_text(record), EXIT_OK

    if args.n is None or args.p is None:
        raise ReturnsParseError("random mode requires --n and --p (or use --counterexample)")
    if args.trials < 1:
        raise ReturnsParseError(f"trials must be at least 1, got {args.trials}")
    if 1 <= args.p < args.n:  # below one period, generate_returns names the error
        with _user_input():
            oracles.require_periods(args.n, args.p)
    cosines, q_gaps = [], []
    for returns, w_ad, diagnostics in _trials(ABSOLUTE_DEVIATION, args.n, args.p,
                                              args.trials, _seed(args)):
        w_mv = oracles.exact_mean_variance(returns)
        if not diagnostics.diverged:
            q_mv, _ = engine.observables(w_mv, returns, MEAN_VARIANCE)
            cosines.append(theory.portfolio_similarity(w_mv, w_ad))
            q_gaps.append(abs(q_mv - diagnostics.q_hat))
    mean_cosine, cosine_se = _mean_and_se(cosines)
    record = {
        "trials": args.trials,
        "n_assets": args.n,
        "n_periods": args.p,
        "mean_cosine": mean_cosine,
        "cosine_se": cosine_se,
        "mean_q_gap": _mean_and_se(q_gaps)[0],
        "n_diverged": args.trials - len(cosines),
    }
    return _json_text(record), EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="bpfolio",
                     description="Belief-propagation portfolio solver and experiment harness")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve one instance, emit JSON")
    solve.add_argument("--model", choices=("mv", "ad", "generic"), required=True)
    source = solve.add_mutually_exclusive_group()
    source.add_argument("--input", help="CSV file, one asset row per line")
    source.add_argument("--random", action="store_true", help="draw a seeded Gaussian instance")
    solve.add_argument("--n", type=int, help="number of assets")
    solve.add_argument("--p", type=int, help="number of periods (random mode)")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--beta", type=float, help="inverse temperature "
                       "(mv: beta-free, solved at 1; generic: run value; ad: ladder top, "
                       "default 2^20 and zero-temperature, finite-temperature below 2^20)")
    solve.add_argument("--cost-expr", help="generic cost R(u): arithmetic in u, pi, e and "
                       "the functions " + ", ".join(_COST_FUNCTIONS))
    solve.add_argument("--center", action="store_true",
                       help="subtract per-asset means when loading from file")
    solve.add_argument("--tol", type=float)
    solve.add_argument("--max-sweeps", type=int)
    solve.add_argument("--out", help="write JSON here (atomic) instead of stdout")
    solve.set_defaults(handler=cmd_solve)

    sweep = commands.add_parser("sweep", help="Monte-Carlo alpha sweep, emit CSV")
    sweep.add_argument("--model", choices=("mv", "ad"), required=True)
    sweep.add_argument("--alphas", default="1.5,2,3,5", help="comma-separated, all > 1")
    sweep.add_argument("--n", type=int, default=100, help="assets per instance")
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--seed", type=int, help="per-trial seed is this plus the trial index")
    sweep.add_argument("--beta", type=float)
    sweep.add_argument("--out", help="write CSV here (atomic) instead of stdout")
    sweep.set_defaults(handler=cmd_sweep)

    theory_cmd = commands.add_parser("theory", help="closed-form and numeric predictions")
    theory_cmd.add_argument("which", choices=("replica", "mp", "annealed"))
    theory_cmd.add_argument("--alpha", type=float, required=True)
    theory_cmd.add_argument("--beta", type=float, default=1.0)
    theory_cmd.add_argument("--model", choices=("mv", "ad", "es"), default="mv")
    theory_cmd.add_argument("--s", type=float, default=1.0, help="portfolio spread (annealed)")
    theory_cmd.add_argument("--gamma", type=float, help="expected-shortfall level")
    theory_cmd.add_argument("--out")
    theory_cmd.set_defaults(handler=cmd_theory)

    ky = commands.add_parser("ky", help="compare mean-variance and absolute-deviation optima")
    ky.add_argument("--counterexample", action="store_true",
                    help="run the fixed 2-asset instance with distinct optima")
    ky.add_argument("--n", type=int)
    ky.add_argument("--p", type=int)
    ky.add_argument("--trials", type=int, default=20)
    ky.add_argument("--seed", type=int)
    ky.add_argument("--out")
    ky.set_defaults(handler=cmd_ky)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and on a usage error (1)
        return exc.code
    try:
        text, code = args.handler(args)
        _emit(text, args.out)
        return code
    # errors in what the user gave; any other exception is a fault and shows its traceback
    except (ReturnsParseError, channels.GenericChannelError,
            theory.ReplicaConvergenceError) as exc:
        print(f"bpfolio: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bpfolio: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
