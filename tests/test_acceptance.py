"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers (use `pytest -s` or `-rA` to see the lines for passing tests too).
Sweep statistics are checked against the package's own replica predictions at
finite alpha: criterion 5c compares the absolute-deviation overlap with the
replica fixed point, and criterion 5b compares the mean-variance vs
absolute-deviation cosine with sqrt(q_mv/q_ad). The mean-variance and
absolute-deviation optima coincide only for population returns, so neither
check uses the mean-variance values for the absolute-deviation cost.
"""
import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from bpfolio.channels import (
    channel_absolute_deviation,
    channel_generic,
    channel_mean_variance,
)
from bpfolio.cli import main, run_sweep
from bpfolio.engine import (
    asset_sweep, cavity_variances, default_config, observables, period_sweep, solve,
)
from bpfolio.model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    BpConfig,
    generate_returns,
)
from bpfolio.oracles import convex_oracle, exact_mean_variance
from bpfolio.special import log_gaussian_tail
from bpfolio.theory import (
    marchenko_pastur,
    mp_bulk_expectation,
    portfolio_similarity,
    rs_closed_form_mv,
    rs_fixed_point,
)


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def parse_sweep(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (float(cell) for cell in line.split(","))))
            for line in lines[1:]]


@pytest.fixture(scope="module")
def mv_sweep():
    start = time.perf_counter()
    csv_text = run_sweep(MEAN_VARIANCE, [1.5, 2.0, 3.0, 5.0], 100, 100, 0)
    elapsed = time.perf_counter() - start
    return parse_sweep(csv_text), elapsed


def test_criterion_1_mv_sweep_overlap_matches_replica(mv_sweep):
    rows, elapsed = mv_sweep
    gaps = [(row["alpha"], abs(row["q_mean"] - row["q_replica"]), 3 * row["q_se"])
            for row in rows]
    passed = all(gap <= band for _, gap, band in gaps) and elapsed < 120.0
    detail = ", ".join(f"alpha={a:g}: |dq|={gap:.4f} vs 3se={band:.4f}"
                       for a, gap, band in gaps)
    report(1, passed, f"{detail}; elapsed {elapsed:.1f}s (limit 120s)")
    for _, gap, band in gaps:
        assert gap <= band
    assert elapsed < 120.0


def test_criterion_2_mv_sweep_cost_matches_replica(mv_sweep):
    rows, _ = mv_sweep
    gaps = [(row["alpha"], abs(row["eps_mean"] - row["eps_replica"]), 3 * row["eps_se"])
            for row in rows]
    passed = all(gap <= band for _, gap, band in gaps)
    detail = ", ".join(f"alpha={a:g}: |deps|={gap:.4f} vs 3se={band:.4f}"
                       for a, gap, band in gaps)
    report(2, passed, detail)
    for _, gap, band in gaps:
        assert gap <= band


def test_criterion_3_mv_portfolio_matches_closed_form():
    worst = 0.0
    for seed in range(20):
        returns = generate_returns(100, 200, seed)
        exact = exact_mean_variance(returns)
        for beta in (1.0, 1e3):
            port, diag = solve(returns, MEAN_VARIANCE,
                               default_config(MEAN_VARIANCE, beta=beta))
            assert diag.converged
            rel = float(np.max(np.abs(port.positions - exact.positions)
                               / np.abs(exact.positions)))
            worst = max(worst, rel)
    passed = worst <= 1e-8
    report(3, passed, f"max relative component error {worst:.3e} (limit 1e-8), "
                      "20 seeds, beta in {1, 1e3}")
    assert worst <= 1e-8


def test_criterion_4_ad_portfolio_tracks_convex_oracle():
    worst_gap = -np.inf
    worst_cos = np.inf
    for seed in range(10):
        returns = generate_returns(50, 100, seed)
        oracle = convex_oracle(returns, ABSOLUTE_DEVIATION)
        _, eps_oracle = observables(oracle, returns, ABSOLUTE_DEVIATION)
        port, diag = solve(returns, ABSOLUTE_DEVIATION)
        assert not diag.diverged
        worst_gap = max(worst_gap, (diag.eps_hat - eps_oracle) / eps_oracle)
        worst_cos = min(worst_cos, portfolio_similarity(port, oracle))
    passed = worst_gap <= 1e-3 and worst_cos >= 0.999
    report(4, passed, f"worst cost gap {worst_gap:.2e} (limit 1e-3), "
                      f"worst cosine {worst_cos:.6f} (limit 0.999), 10 seeds at beta=2^20")
    assert worst_gap <= 1e-3
    assert worst_cos >= 0.999


def test_criterion_5a_counterexample_reports_distinct_optima(capsys):
    code = main(["ky", "--counterexample"])
    record = json.loads(capsys.readouterr().out)
    passed = (code == 0
              and np.allclose(record["w_mv"], [0.0, 2.0], atol=1e-12)
              and np.allclose(record["w_ad"], [-1.0, 3.0], atol=1e-12)
              and record["equal"] is False)
    with capsys.disabled():
        report("5a", passed, f"w_mv={record['w_mv']}, w_ad={record['w_ad']}, "
                             f"equal={record['equal']}")
    assert passed


def test_criterion_5b_random_instances_mean_cosine(capsys):
    code = main(["ky", "--n", "100", "--p", "200", "--trials", "20", "--seed", "3"])
    record = json.loads(capsys.readouterr().out)
    mean_cosine = record["mean_cosine"]
    # the mv residual map is linear (r/alpha), so by Stein's lemma the joint
    # replica fixed point of the two estimators gives the cross overlap
    # (1/N) w_mv.w_ad -> q_mv, and the cosine tends to sqrt(q_mv/q_ad)
    beta = default_config(ABSOLUTE_DEVIATION).beta
    q_mv = rs_closed_form_mv(2.0, beta).q
    q_ad = rs_fixed_point(2.0, beta, ABSOLUTE_DEVIATION).q
    target = math.sqrt(q_mv / q_ad)
    gap = abs(mean_cosine - target)
    band = 3 * record["cosine_se"]
    passed = code == 0 and gap <= band
    with capsys.disabled():
        report("5b", passed,
               f"mean cosine {mean_cosine:.4f} vs sqrt(q_mv/q_ad) {target:.4f} "
               f"within {band:.4f}: gap {gap:.4f}; 20 trials at N=100, alpha=2")
    assert code == 0
    assert gap <= band


def ad_zero_temperature_overlap(alpha):
    # at beta -> infinity the ad kernel is a clipped linear map: the clip
    # level solves P(|z| <= t) = 1/alpha and q = 1/(1 - alpha*E[clip(z,-t,t)^2])
    norm = scipy.stats.norm
    t = norm.ppf(0.5 + 0.5 / alpha)
    clipped_sq = (2.0 * norm.cdf(t) - 1.0) - 2.0 * t * norm.pdf(t) + 2.0 * t * t * norm.sf(t)
    return 1.0 / (1.0 - alpha * clipped_sq)


def test_criterion_5c_ad_sweep_overlap():
    rows = parse_sweep(run_sweep(ABSOLUTE_DEVIATION, [2.0], 100, 100, 0))
    row = rows[0]
    gap = abs(row["q_mean"] - row["q_replica"])
    band = 3 * row["q_se"]
    q_limit = ad_zero_temperature_overlap(2.0)
    replica_gap = abs(row["q_replica"] - q_limit) / q_limit
    passed = gap <= band and replica_gap <= 1e-3
    report("5c", passed,
           f"q_mean {row['q_mean']:.4f} vs q_replica {row['q_replica']:.4f} "
           f"within {band:.4f}: gap {gap:.4f}; q_replica vs zero-temperature "
           f"closed form {q_limit:.4f}: relative gap {replica_gap:.1e} (limit 1e-3)")
    assert replica_gap <= 1e-3
    assert gap <= band


def test_criterion_6_theory_self_consistency():
    solution = rs_fixed_point(2.0, 100.0, MEAN_VARIANCE)
    q_gap = abs(solution.q - 2.0)
    chi_gap = abs(solution.chi - 0.01)
    stats = marchenko_pastur(2.0)
    closed_exact = (stats.inv_lambda_mean == 1.0 and stats.inv_lambda_sq_mean == 2.0
                    and stats.q == 2.0 and stats.eps == 0.5)
    bulk_gaps = (
        abs(mp_bulk_expectation(2.0, lambda lam: 1.0 / lam) - 1.0),
        abs(mp_bulk_expectation(2.0, lambda lam: 1.0 / lam ** 2) - 2.0),
    )
    passed = (q_gap <= 1e-6 and chi_gap <= 1e-6 and closed_exact
              and max(bulk_gaps) <= 1e-8)
    report(6, passed, f"fixed point gaps (q, chi) = ({q_gap:.1e}, {chi_gap:.1e}) "
                      f"(limit 1e-6); closed forms exact: {closed_exact}; "
                      f"bulk integral gaps {max(bulk_gaps):.1e} (limit 1e-8)")
    assert q_gap <= 1e-6 and chi_gap <= 1e-6
    assert closed_exact
    assert max(bulk_gaps) <= 1e-8


def test_criterion_7_channel_properties():
    h_grid = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)
    chi_grid = (0.1, 1.0, 10.0)
    beta_grid = (1.0, 10.0, 1000.0)
    worst_fd = 0.0
    for channel in (channel_mean_variance, channel_absolute_deviation):
        for h in h_grid:
            for chi_tilde in chi_grid:
                for beta in beta_grid:
                    step = 1e-5 * max(1.0, abs(h))
                    m_plus, _ = channel(h + step, chi_tilde, beta)
                    m_minus, _ = channel(h - step, chi_tilde, beta)
                    fd = -(m_plus - m_minus) / (2.0 * step)
                    _, chi = channel(h, chi_tilde, beta)
                    # the 1e-10 floor is the cancellation noise of the central
                    # difference itself where chi is orders below |m|
                    gap = max(abs(chi - fd) - 1e-10, 0.0)
                    worst_fd = max(worst_fd, gap / max(abs(fd), 1e-7))

    worst_quad = 0.0
    quad_costs = {
        "mv": (lambda u: 0.5 * np.asarray(u) ** 2, channel_mean_variance),
        "ad": (lambda u: np.abs(u), channel_absolute_deviation),
    }
    for cost, closed in quad_costs.values():
        for h in (0.0, 0.5, 2.0):
            for chi_tilde in (0.5, 2.0):
                for beta in (1.0, 10.0):
                    m_q, chi_q = channel_generic(h, chi_tilde, beta, cost)
                    m_c, chi_c = closed(h, chi_tilde, beta)
                    worst_quad = max(worst_quad, abs(m_q - m_c), abs(chi_q - chi_c))

    beta_top = float(2 ** 20)
    worst_asym = 0.0
    for h in (0.25, 0.5, 1.0, 2.0):
        for chi_tilde in (0.5, 1.0, 2.0):
            m, _ = channel_absolute_deviation(h, chi_tilde, beta_top)
            worst_asym = max(worst_asym, abs(m + h / chi_tilde) / (h / chi_tilde))

    passed = worst_fd <= 1e-5 and worst_quad <= 1e-8 and worst_asym <= 1e-3
    report(7, passed, f"chi vs finite difference {worst_fd:.1e} (limit 1e-5); "
                      f"quadrature vs closed forms {worst_quad:.1e} (limit 1e-8); "
                      f"large-beta asymptote {worst_asym:.1e} (limit 1e-3)")
    assert worst_fd <= 1e-5
    assert worst_quad <= 1e-8
    assert worst_asym <= 1e-3


def test_criterion_8_log_tail_reference_values():
    reference = {
        -10.0: -7.6198530241605260659733722826793632676471381517963e-24,
        -1.0: -0.17275377902344988952648317352080073000942629052798,
        0.0: -0.69314718055994530941723212145817656807550013436026,
        1.0: -1.8410216450092635057707830732325290215476719088233,
        5.0: -15.064998393988725736083704791896725605067712625347,
        10.0: -53.231285150512470578347027354131209878916015829586,
        50.0: -1254.8313611394199012541325211142718812465346714789,
        1.0e3: -500007.82669481218430980616754918460823439528672822,
        1.0e6: -500000000014.7344490911699468458882759645118028978,
    }
    worst = max(abs(log_gaussian_tail(u) - expected) / abs(expected)
                for u, expected in reference.items())
    passed = worst <= 1e-12
    report(8, passed, f"max relative error {worst:.1e} over 9 reference points "
                      "(limit 1e-12)")
    assert worst <= 1e-12


def test_criterion_9_per_sweep_cost_scales_quadratically():
    # one block of sweeps reads whatever load the host is under, so each size
    # is timed over several blocks, interleaved so that a slow phase hits both
    # sizes, and the medians are compared
    n_blocks = 9
    config = BpConfig()
    instances = []
    for n, seed in ((1000, 0), (2000, 1)):
        x = generate_returns(n, 2 * n, seed).entries
        # the sweep arrays m_w, chi_w, m_u, chi_u, from the uniform start
        state = [np.ones(n), np.ones(n), np.zeros(2 * n), np.zeros(2 * n)]
        instances.append((x, cavity_variances(x), state))

    def per_sweep_seconds(x, variances, state, sweeps):
        m_w, chi_w, m_u, chi_u = state
        start = time.perf_counter()
        for _ in range(sweeps):
            m_u, chi_u = period_sweep(x, variances, channel_mean_variance, m_w, chi_w,
                                      m_u, config.beta, config.damping)
            m_w, chi_w = asset_sweep(x, variances, m_w, m_u, chi_u, config.damping)
        elapsed = time.perf_counter() - start
        state[:] = m_w, chi_w, m_u, chi_u  # the next block resumes from here
        return elapsed / sweeps

    for instance in instances:
        per_sweep_seconds(*instance, 5)  # warm the caches and the BLAS threads
    blocks = ([], [])
    for _ in range(n_blocks):
        for times, instance in zip(blocks, instances):
            times.append(per_sweep_seconds(*instance, 20))
    small, large = (float(np.median(times)) for times in blocks)
    ratio = large / small
    passed = ratio <= 5.0
    report(9, passed, f"median per-sweep {small * 1e3:.2f} ms at N=1000 vs "
                      f"{large * 1e3:.2f} ms at N=2000 over {n_blocks} "
                      f"blocks each: ratio {ratio:.2f} (limit 5)")
    assert ratio <= 5.0
