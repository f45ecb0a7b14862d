"""Tests for the command-line harness: contracts, exit codes, golden outputs."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bpfolio import theory
from bpfolio.cli import SWEEP_CSV_HEADER, _replica_overlap, main, run_sweep
from bpfolio.model import ABSOLUTE_DEVIATION, MEAN_VARIANCE, BpConfig, generic_model


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestSolveCommand:
    def test_well_sampled_instance_converges(self, capsys):
        code, record = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "100", "--p", "200",
            "--seed", "7"])
        assert code == 0
        assert record["converged"] is True
        assert record["diverged"] is False
        assert record["seed"] == 7
        assert record["n_assets"] == 100
        assert record["n_periods"] == 200
        assert abs(record["q_hat"] - 2.0) < 0.5
        assert len(record["positions"]) == 100
        assert sum(record["positions"]) == pytest.approx(100.0, abs=1e-6)

    def test_undersampled_instance_exits_two(self, capsys):
        code, record = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "100", "--p", "50",
            "--seed", "7"])
        assert code == 2
        assert record["diverged"] is True

    def test_input_without_n_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("1,2\n3,4\n")
        code = main(["solve", "--model", "mv", "--input", str(path)])
        assert code == 1
        assert "requires --n" in capsys.readouterr().err

    def test_one_row_file_against_one_asset_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("1,2,3\n")
        code = main(["solve", "--model", "mv", "--input", str(path), "--n", "1"])
        assert code == 1
        assert capsys.readouterr().err == "bpfolio: error: need at least 2 assets, got 1\n"

    def test_invalid_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        assert main(["solve", "--model", "mv", "--input", str(path), "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith(
            "bpfolio: error: 'utf-8' codec can't decode byte 0xff")

    def test_no_input_source_is_usage_error(self, capsys):
        assert main(["solve", "--model", "mv"]) == 1

    def test_input_and_random_together_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("1,2\n3,4\n")
        code = main(["solve", "--model", "mv", "--input", str(path), "--n", "2",
                     "--random", "--p", "9"])
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_random_requires_both_dimensions(self, capsys):
        assert main(["solve", "--model", "mv", "--random", "--n", "10"]) == 1

    def test_generic_requires_cost_expression(self, capsys):
        code = main(["solve", "--model", "generic", "--random",
                     "--n", "6", "--p", "12"])
        assert code == 1
        assert "cost-expr" in capsys.readouterr().err

    def test_malformed_cost_expression_is_usage_error(self, capsys):
        code = main(["solve", "--model", "generic", "--cost-expr", "u**",
                     "--random", "--n", "2", "--p", "8"])
        assert code == 1
        assert "bpfolio: error:" in capsys.readouterr().err

    def test_cost_expression_cannot_reach_numpy(self, capsys, tmp_path):
        target = tmp_path / "escaped.txt"
        expression = f"u**2/2 + 0*np.savetxt({str(target)!r}, [1.0])"
        code = main(["solve", "--model", "generic", "--cost-expr", expression,
                     "--random", "--n", "2", "--p", "8"])
        assert code == 1
        assert "bpfolio: error:" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("expression", [
        "().__class__.__base__.__subclasses__()",
        "u + abs.__class__",
        "u[0]",
        "u + len('ab')",
        "(lambda v: v)(u)",
        "abs(u, out=u)",
        "__import__('os').getcwd()",
        "abs",
        "u if u > 0 else -u",
    ])
    def test_cost_expression_outside_the_grammar_is_usage_error(self, capsys, expression):
        code = main(["solve", "--model", "generic", "--cost-expr", expression,
                     "--random", "--n", "2", "--p", "8"])
        assert code == 1
        assert "is not allowed" in capsys.readouterr().err

    def test_cost_expression_failing_on_evaluation_is_usage_error(self, capsys):
        code = main(["solve", "--model", "generic", "--cost-expr", "u**2/2 + 1/0",
                     "--random", "--n", "2", "--p", "8"])
        assert code == 1
        assert "bpfolio: error:" in capsys.readouterr().err

    def test_cost_expression_constant_power_tower_is_usage_error(self):
        # with integer constants 9**9**9 is computed exactly and never returns;
        # the child process and its timeout keep a regression from hanging the suite
        argv = ["solve", "--model", "generic", "--cost-expr", "u**2/2 + 0*9**9**9",
                "--random", "--n", "2", "--p", "8"]
        probe = f"import sys; from bpfolio.cli import main; sys.exit(main({argv!r}))"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1
        assert "bpfolio: error:" in done.stderr
        assert "Traceback" not in done.stderr

    def test_non_finite_tolerance_is_usage_error(self, capsys):
        code = main(["solve", "--model", "mv", "--random", "--n", "10", "--p", "30",
                     "--tol", "nan"])
        assert code == 1
        assert "tol" in capsys.readouterr().err

    def test_generic_expression_matches_builtin_quadratic(self, capsys):
        code_mv, record_mv = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "6", "--p", "18",
            "--seed", "3"])
        code_gen, record_gen = run_json(capsys, [
            "solve", "--model", "generic", "--cost-expr", "u**2/2",
            "--random", "--n", "6", "--p", "18", "--seed", "3"])
        assert code_mv == 0 and code_gen == 0
        assert record_gen["positions"] == pytest.approx(record_mv["positions"],
                                                        abs=1e-6)

    def test_file_input_round_trip(self, capsys, tmp_path):
        from bpfolio.model import generate_returns, save_returns
        rs = generate_returns(10, 30, 5)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        code_file, record_file = run_json(capsys, [
            "solve", "--model", "mv", "--input", str(path), "--n", "10"])
        code_rand, record_rand = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "10", "--p", "30",
            "--seed", "5"])
        assert code_file == 0
        assert record_file["positions"] == record_rand["positions"]
        assert record_file["seed"] is None

    def test_piped_input_matches_file_input(self, tmp_path):
        from bpfolio.model import generate_returns, save_returns
        path = tmp_path / "in.csv"
        save_returns(generate_returns(30, 75, 11), str(path))
        command = [sys.executable, "-m", "bpfolio.cli", "solve", "--model", "mv", "--n", "30"]
        from_file = subprocess.run(command + ["--input", str(path)],
                                   capture_output=True, check=True)
        # a pipe reports size 0, so the loader cannot size its array from it
        piped = subprocess.run(command + ["--input", "/dev/stdin"],
                               input=path.read_bytes(), capture_output=True, check=True)
        assert piped.stdout == from_file.stdout
        assert json.loads(piped.stdout)["n_assets"] == 30

    def test_unknown_model_rejected_by_parser(self, capsys):
        assert main(["solve", "--model", "huber", "--random", "--n", "4", "--p", "8"]) == 1
        assert "invalid choice: 'huber'" in capsys.readouterr().err


class TestSweepCommand:
    def test_schema_and_replica_columns(self, capsys):
        code = main(["sweep", "--model", "mv", "--alphas", "2,3", "--n", "20",
                     "--trials", "2", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["alpha"]) == 2.0
        assert float(row["q_replica"]) == 2.0
        assert float(row["eps_replica"]) == 0.5
        assert int(row["n_diverged"]) == 0

    def test_single_trial_degenerate_statistics(self, capsys):
        code = main(["sweep", "--model", "mv", "--alphas", "2,3", "--n", "20",
                     "--trials", "1", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.err.splitlines()) == 1  # one warning per sweep
        assert "trials=1" in captured.err
        for line in captured.out.strip().splitlines()[1:]:
            row = line.split(",")
            assert float(row[2]) == 0.0  # q_se
            assert float(row[4]) == 0.0  # eps_se

    def test_absolute_deviation_replica_eps_is_nan(self):
        csv_text = run_sweep(ABSOLUTE_DEVIATION, [2.0], 10, 1, 0, beta=4.0)
        row = csv_text.splitlines()[1].split(",")
        assert row[6] == "nan"

    def test_absolute_deviation_replica_q_is_fixed_point_at_solve_beta(self):
        csv_text = run_sweep(ABSOLUTE_DEVIATION, [2.0], 10, 1, 0, beta=4.0)
        row = csv_text.splitlines()[1].split(",")
        expected = theory.rs_fixed_point(2.0, 4.0, ABSOLUTE_DEVIATION).q
        assert row[5] == f"{expected:.10g}"

    def test_unconverged_replica_fixed_point_reports_nan(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise theory.ReplicaConvergenceError("replica fixed point did not converge")

        monkeypatch.setattr(theory, "rs_fixed_point", no_convergence)
        csv_text = run_sweep(ABSOLUTE_DEVIATION, [2.0], 10, 1, 0, beta=4.0)
        assert csv_text.splitlines()[1].split(",")[5] == "nan"

    def test_replica_overlap_lets_other_errors_through(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a convergence failure")

        monkeypatch.setattr(theory, "rs_fixed_point", broken)
        with pytest.raises(RuntimeError, match="not a convergence failure"):
            _replica_overlap(ABSOLUTE_DEVIATION, 2.0, BpConfig(beta=4.0))

    def test_generic_cost_has_no_replica_overlap(self):
        model = generic_model(lambda u: u * u / 2)
        assert math.isnan(_replica_overlap(model, 2.0, BpConfig()))

    def test_alpha_at_or_below_one_rejected(self, capsys):
        assert main(["sweep", "--model", "mv", "--alphas", "0.5,2"]) == 1
        assert main(["sweep", "--model", "mv", "--alphas", "1.0"]) == 1
        # 1.004 * 100 assets rounds to 100 periods: square instances, alpha = 1
        assert main(["sweep", "--model", "mv", "--alphas", "1.004", "--n", "100"]) == 1
        assert capsys.readouterr().err.count("exceed 1") == 3
        assert main(["sweep", "--model", "mv", "--alphas", "2", "--trials", "0"]) == 1
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("model, q_replica, eps_replica", [
        (MEAN_VARIANCE, 10.0 / 3.0, 1.5 / 7.0),
        (ABSOLUTE_DEVIATION, theory.rs_zero_temperature_ad(10.0 / 7.0), math.nan),
    ], ids=["mv", "ad"])
    def test_row_describes_the_solved_instances(self, model, q_replica, eps_replica):
        # 1.5 * 7 assets rounds to 10 periods, so the instances have alpha = 10/7
        row = run_sweep(model, [1.5], 7, 2, 0).splitlines()[1].split(",")
        assert row[0] == f"{10.0 / 7.0:.10g}"
        assert row[5] == f"{q_replica:.10g}"
        assert row[6] == f"{eps_replica:.10g}"

    def test_non_finite_alphas_rejected(self, capsys):
        assert main(["sweep", "--model", "mv", "--alphas", "inf"]) == 1
        assert main(["sweep", "--model", "mv", "--alphas", "2,nan"]) == 1
        assert capsys.readouterr().err.count("must all be finite") == 2

    def test_trial_seeds_are_base_plus_index(self):
        # trials 0 and 1 of base seed 5 equal single trials at seeds 5 and 6
        pair = run_sweep(MEAN_VARIANCE, [2.0], 20, 2, 5)
        first = run_sweep(MEAN_VARIANCE, [2.0], 20, 1, 5)
        second = run_sweep(MEAN_VARIANCE, [2.0], 20, 1, 6)

        def q_mean(text):
            return float(text.splitlines()[1].split(",")[1])

        expected = 0.5 * (q_mean(first) + q_mean(second))
        # the csv rounds to 10 significant digits
        assert q_mean(pair) == pytest.approx(expected, rel=1e-9)


class TestTheoryCommand:
    def test_spectral_moments_golden(self, capsys):
        code, record = run_json(capsys, ["theory", "mp", "--alpha", "2"])
        assert code == 0
        assert record["inv_lambda_mean"] == 1.0
        assert record["inv_lambda_sq_mean"] == 2.0
        assert record["q"] == 2.0
        assert record["eps"] == 0.5

    def test_replica_closed_form_golden(self, capsys):
        code, record = run_json(capsys, [
            "theory", "replica", "--alpha", "3", "--beta", "10", "--model", "mv"])
        assert code == 0
        assert record["q"] == pytest.approx(1.5, abs=1e-12)
        assert record["chi"] == pytest.approx(0.05, abs=1e-12)

    def test_replica_absolute_deviation_runs_fixed_point(self, capsys):
        code, record = run_json(capsys, [
            "theory", "replica", "--alpha", "2", "--beta", "64", "--model", "ad"])
        assert code == 0
        assert record["divergent"] is False
        assert 1.0 < record["q"] < 3.0

    def test_divergent_phase_is_reported_not_raised(self, capsys):
        code, record = run_json(capsys, ["theory", "replica", "--alpha", "0.5"])
        assert code == 0
        assert record["divergent"] is True
        assert record["q"] == "inf"

    def test_annealed_golden(self, capsys):
        code, record = run_json(capsys, [
            "theory", "annealed", "--model", "ad", "--alpha", "2", "--s", "1"])
        assert code == 0
        assert record["value"] == pytest.approx(4.0 / np.sqrt(2.0 * np.pi), rel=1e-10)

    @pytest.mark.parametrize("argv", [
        ["replica", "--alpha", "2", "--beta", "nan", "--model", "ad"],
        ["replica", "--alpha", "2", "--beta", "inf", "--model", "mv"],
        ["replica", "--alpha", "nan"],
        ["mp", "--alpha", "nan"],
        ["annealed", "--alpha", "2", "--model", "es", "--s", "inf", "--gamma", "0.05"],
        ["annealed", "--alpha", "2", "--model", "es", "--s", "nan", "--gamma", "0.05"],
        ["annealed", "--alpha", "2", "--model", "es", "--s", "1", "--gamma", "nan"],
        ["annealed", "--alpha", "-2", "--model", "ad", "--s", "1"],
        ["annealed", "--alpha", "0", "--model", "mv", "--s", "1"],
        # the damped fixed point contracts too slowly here to meet its tolerance
        ["replica", "--alpha", "1.01", "--beta", "1048576", "--model", "ad"],
        # beta*(alpha-1) overflows, so chi would be 0
        ["replica", "--alpha", "1e308", "--beta", "2", "--model", "mv"],
        ["replica", "--alpha", "1e308", "--beta", "2", "--model", "ad"],
        # delta = beta^2*(alpha-1)/alpha overflows
        ["replica", "--alpha", "2", "--beta", "1e300", "--model", "mv"],
        # the channel's log-ratio cancels to 0, and eta with it
        ["replica", "--alpha", "2", "--beta", "1e-20", "--model", "ad"],
    ])
    def test_invalid_inputs_are_usage_errors(self, capsys, argv):
        code = main(["theory", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("bpfolio: error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("alpha, beta", [("2", "1e300"), ("1.5", "1e200")])
    def test_overflowing_replica_kernel_prints_one_error_line(self, alpha, beta):
        # pytest captures warnings in-process, so the child shows what a user
        # sees: the kernel's square overflowed with a numpy RuntimeWarning line
        argv = ["theory", "replica", "--alpha", alpha, "--beta", beta, "--model", "ad"]
        probe = f"import sys; from bpfolio.cli import main; sys.exit(main({argv!r}))"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("bpfolio: error:")

    def test_spectral_moments_at_extreme_alpha(self, capsys):
        # (alpha-1)^3 overflows here, but every reported field is a float
        code, record = run_json(capsys, ["theory", "mp", "--alpha", "1e103"])
        assert code == 0
        assert record["q"] == 1.0
        assert record["eps"] == pytest.approx(5e102, rel=1e-15)
        assert record["inv_lambda_mean"] == pytest.approx(1e-103, rel=1e-15)
        assert record["inv_lambda_sq_mean"] == pytest.approx(1e-206, rel=1e-15)

    def test_replica_rejects_expected_shortfall(self, capsys):
        code = main(["theory", "replica", "--alpha", "2", "--model", "es"])
        assert code == 1
        assert "annealed" in capsys.readouterr().err


class TestKyCommand:
    def test_counterexample_golden(self, capsys):
        code, record = run_json(capsys, ["ky", "--counterexample"])
        assert code == 0
        assert record["w_mv"] == pytest.approx([0.0, 2.0], abs=1e-12)
        assert record["w_ad"] == pytest.approx([-1.0, 3.0], abs=1e-12)
        assert record["equal"] is False
        assert record["distance"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert record["cosine"] == pytest.approx(6.0 / (2.0 * np.sqrt(10.0)), rel=1e-12)

    def test_random_mode_reports_similarity(self, capsys):
        code, record = run_json(capsys, [
            "ky", "--n", "20", "--p", "40", "--trials", "2", "--seed", "0"])
        assert code == 0
        assert record["trials"] == 2
        assert -1.0 <= record["mean_cosine"] <= 1.0
        assert math.isfinite(record["cosine_se"]) and record["cosine_se"] >= 0.0
        assert record["mean_q_gap"] >= 0.0
        assert record["n_diverged"] == 0

    def test_random_mode_requires_dimensions(self, capsys):
        assert main(["ky", "--trials", "2"]) == 1

    def test_random_mode_rejects_fewer_than_one_trial(self, capsys):
        assert main(["ky", "--n", "5", "--p", "10", "--trials", "0"]) == 1
        assert main(["ky", "--n", "5", "--p", "10", "--trials", "-3"]) == 1


def test_import_leaves_integrate_and_optimize_unloaded():
    # scipy.special alone would add about 0.3 s to a 0.2 s start-up, and
    # integrate and optimize more; only finite-temperature ad, the replica fixed
    # point, the es annealed cost and the oracle calls need scipy, and only
    # load_returns needs orjson
    probe = ("import sys, bpfolio.cli; print(*(name in sys.modules for name in "
             "('scipy.integrate', 'scipy.optimize', 'scipy.linalg', 'orjson', "
             "'scipy.special')), any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False False False False False False"


# runs cli.main on each argv of a JSON list in one fresh interpreter, then
# prints the exit codes and whether scipy.special was loaded
SOLVES_THEN_PROBE = """
import contextlib, io, json, sys
from bpfolio import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "special": "scipy.special" in sys.modules}))
"""


def solves_then_probe(argvs):
    done = subprocess.run([sys.executable, "-c", SOLVES_THEN_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_default_solves_leave_scipy_special_unloaded():
    # the benchmark's worker imports the package before its timed rounds, so
    # a default solve that loaded scipy.special would pay its import inside them
    result = solves_then_probe([
        ["solve", "--model", "mv", "--random", "--n", "20", "--p", "40"],
        ["solve", "--model", "ad", "--random", "--n", "20", "--p", "40"],
        ["sweep", "--model", "ad", "--alphas", "1.5,2", "--n", "20", "--trials", "2"],
        ["solve", "--model", "generic", "--cost-expr", "u**2/2", "--random",
         "--n", "4", "--p", "16"],
    ])
    assert result == {"codes": [0, 0, 0, 0], "special": False}


def test_finite_temperature_ad_solve_loads_scipy_special():
    result = solves_then_probe([
        ["solve", "--model", "ad", "--random", "--n", "20", "--p", "40", "--beta", "16"],
    ])
    assert result == {"codes": [0], "special": True}


# perfbench/tracer.py wraps the package's functions by name; this runs it in a
# fresh interpreter (install patches module attributes for good) and reads the
# per-layer metrics one small solve through cli.main leaves behind
TRACED_SOLVE = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import tracer as tracing
from bpfolio import channels, cli, engine, theory
recorder = tracing.Tracer()
tracing.install(recorder, cli, engine, channels, theory)
argv = json.loads(sys.argv[3])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(argv)
n_assets = int(argv[argv.index("--n") + 1])
n_periods = int(argv[argv.index("--p") + 1])
print(json.dumps({"code": code, "record": json.loads(out.getvalue()),
                  "layers": tracing.layer_metrics(recorder, n_assets, n_periods)}))
"""


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "ad", "--random", "--n", "20", "--p", "40"],
    ["solve", "--model", "mv", "--random", "--n", "20", "--p", "40"],
    ["solve", "--model", "generic", "--cost-expr", "u**2/2", "--random",
     "--n", "2", "--p", "16", "--max-sweeps", "20"],
], ids=["ad", "mv", "generic"])
def test_benchmark_tracer_sees_every_layer(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    done = subprocess.run([sys.executable, "-c", TRACED_SOLVE, *paths, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    # each sweep passes through the patched engine.period_sweep exactly once
    assert result["layers"]["engine.sweeps"] == result["record"]["sweeps"] > 0
    assert result["layers"]["cli.self_s"] > 0
    if "generic" in argv:
        assert result["layers"]["channels.cost_calls_per_element"] > 0


class TestSeedEnvironment:
    def test_env_overrides_default_seed_only(self, capsys, monkeypatch):
        monkeypatch.setenv("BPFOLIO_SEED", "123")
        _, from_env = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "10", "--p", "30"])
        _, explicit = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "10", "--p", "30",
            "--seed", "123"])
        assert from_env["seed"] == 123
        assert from_env["positions"] == explicit["positions"]
        _, other = run_json(capsys, [
            "solve", "--model", "mv", "--random", "--n", "10", "--p", "30",
            "--seed", "9"])
        assert other["seed"] == 9

    def test_invalid_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BPFOLIO_SEED", "not-a-number")
        code = main(["solve", "--model", "mv", "--random", "--n", "10", "--p", "30"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--model", "mv", "--random", "--n", "10", "--p", "30"],
        ["sweep", "--model", "mv", "--alphas", "2", "--n", "10", "--trials", "2"],
        ["ky", "--n", "10", "--p", "20", "--trials", "2"],
    ])
    def test_negative_seed_is_usage_error_naming_its_source(self, capsys, monkeypatch, argv):
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "bpfolio: error: --seed must be a non-negative integer, got -1\n")
        monkeypatch.setenv("BPFOLIO_SEED", "-2")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "bpfolio: error: BPFOLIO_SEED must be a non-negative integer, got -2\n")
        # the variable stands in only for a missing --seed
        assert main(argv + ["--seed", "0"]) == 0


class TestOutputFiles:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["theory", "mp", "--alpha", "2"]
        main(argv)
        stdout_text = capsys.readouterr().out
        out_path = tmp_path / "mp.json"
        main(argv + ["--out", str(out_path)])
        assert out_path.read_text() == stdout_text

    def test_no_partial_files_left_behind(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        main(["sweep", "--model", "mv", "--alphas", "2", "--n", "20",
              "--trials", "2", "--seed", "0", "--out", str(out_path)])
        assert out_path.exists()
        leftovers = [name for name in os.listdir(tmp_path) if name != "sweep.csv"]
        assert leftovers == []

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["solve", "--model", "ad", "--random", "--n", "10", "--p", "20",
                "--seed", "4", "--beta", "8"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(argv + ["--out", str(first)])
        main(argv + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
