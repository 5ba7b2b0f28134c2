"""Acceptance battery: ten criteria, each printed with an explicit PASS line.

Criterion 1 normalizes the oracle/Fredholm discrepancy by (1 + I^Q), the
agreement measure used throughout the oracle module's invariants.
"""
import time

import numpy as np
import pytest

from mdqueue import (
    GridField2D,
    GridPath,
    ModelParams,
    ScalingRegime,
    PathEquation,
    ServiceDist,
    build_qp,
    decomposition,
    defect,
    dual_value,
    evaluate_rate,
    flow_balance_residuals,
    forward_q,
    kiefer_energy,
    kiefer_from_sheet,
    lln_check,
    simulate,
    solve_min_norm,
    solve_nonlinear,
    spawn_streams,
)
from mdqueue.grids import LagConv
from mdqueue.sim import lln_sup_stat

from conftest import HORIZON, battery_cases
from reference import equation, kernel_matrix, lln_path

D = ServiceDist.exponential(1.0)


@pytest.fixture(scope="module")
def battery_results():
    """Fredholm solves at N=200, M=32 and oracle solves at N=200 for the standard battery."""
    t0 = time.time()
    out = []
    for beta, q0, q in battery_cases(200):
        eq = equation(q, ModelParams(D, sigma=1.0, beta=beta, q0=q0))
        res = evaluate_rate(q, eq, n_x=32)
        qp_val, _ = solve_min_norm(build_qp(eq, defect(q, eq)))
        out.append((eq, q, res, qp_val))
    return out, time.time() - t0


def test_criterion_1_fredholm_oracle_agreement(battery_results):
    results, elapsed = battery_results
    worst = 0.0
    for eq, _, res, qp_val in results:
        rel = abs(res.rate - qp_val) / (1.0 + res.rate)
        worst = max(worst, rel)
        assert rel <= 0.02, f"beta={eq.pm.beta} q0={eq.pm.q0}: rel={rel:.4f}"
    assert elapsed <= 60.0
    print(f"\nCRITERION 1 PASS: max |I_fredholm - I_oracle|/(1+I) = {worst:.5f} <= 0.02, "
          f"runtime {elapsed:.1f}s <= 60s")


def test_oracle_gap_battery(battery_results):
    # both routes are second order in dt, also where q changes sign inside (0, T)
    results, _ = battery_results
    for eq, _, res, qp_val in results:
        assert abs(qp_val - res.rate) / res.rate <= 1e-3, f"beta={eq.pm.beta} q0={eq.pm.q0}"


def test_criterion_2_saddle_consistency(battery_results):
    results, _ = battery_results
    worst = 0.0
    for eq, _, res, _ in results:
        gap = abs(res.rate - res.dual) / (1.0 + res.rate)
        worst = max(worst, gap)
        assert gap <= 1e-6, f"beta={eq.pm.beta} q0={eq.pm.q0}: saddle gap {gap:.2e}"
    print(f"\nCRITERION 2 PASS: max |I - dual|/(1+I) = {worst:.2e} <= 1e-6")


def test_criterion_3_round_trip_feasibility(battery_results):
    results, _ = battery_results
    worst200 = 0.0
    for eq, q, res, _ in results:
        q_rt = forward_q(res.controls, eq)
        scale = max(1.0, float(np.max(np.abs(q.values))))
        err = float(np.max(np.abs(q_rt.values - q.values))) / scale
        worst200 = max(worst200, err)
        assert err <= 0.03, f"beta={eq.pm.beta} q0={eq.pm.q0}: roundtrip {err:.4f}"
    # refinement check on the first battery case
    t = np.linspace(0.0, HORIZON, 401)
    q4 = GridPath(HORIZON, 0.3 * t * (2.0 - t))
    pm = ModelParams(D, 1.0, 0.5, 0.0)
    eq4 = equation(q4, pm)
    err400 = float(np.max(np.abs(forward_q(evaluate_rate(q4, eq4).controls, eq4).values - q4.values)))
    t2 = np.linspace(0.0, HORIZON, 201)
    q2 = GridPath(HORIZON, 0.3 * t2 * (2.0 - t2))
    eq2 = equation(q2, pm)
    err200 = float(np.max(np.abs(forward_q(evaluate_rate(q2, eq2).controls, eq2).values - q2.values)))
    assert err400 < err200
    print(f"\nCRITERION 3 PASS: max roundtrip rel error {worst200:.4f} <= 0.03 at N=200; "
          f"shrinks {err200:.4f} -> {err400:.4f} at N=400")


def test_criterion_4_exponential_kernel_closed_form():
    pm = ModelParams(D, 1.0, 0.5, 0.0)
    t = np.linspace(0.0, HORIZON, 201)
    s, tt = t[:, None], t[None, :]
    exact = pm.sigma**2 * (pm.mu / 2.0) * (np.exp(-pm.mu * np.abs(s - tt)) + np.exp(-pm.mu * (s + tt)))
    err = float(np.max(np.abs(kernel_matrix(D, pm.sigma, HORIZON, 200) - exact)))
    assert err <= 1e-10
    print(f"\nCRITERION 4 PASS: kernel nodal error {err:.2e} <= 1e-10")


def test_criterion_5_zero_rate_certificate():
    rates = {}
    for beta in (-1.0, 0.0, 1.0):
        eq = PathEquation.from_law(ModelParams(D, 1.0, beta, 0.0), HORIZON, 800)
        rates[beta] = evaluate_rate(lln_path(eq), eq).rate
        assert rates[beta] <= 1e-10, f"beta={beta}: I = {rates[beta]:.2e}"
    print(f"\nCRITERION 5 PASS: LLN-path rates {rates} all <= 1e-10")


def test_criterion_6_renewal_solver():
    errs = {}
    for n in (200, 400):
        dt = HORIZON / n
        # f = 1 > 0 keeps g positive, so the march solves the linear renewal equation
        g = solve_nonlinear(GridPath(HORIZON, np.ones(n + 1)), LagConv.of_law(D, HORIZON, n))
        errs[n] = float(np.max(np.abs(g.values - (1.0 + g.times))))
        limit = (5.0 if n == 200 else 2.5) * dt
        assert errs[n] <= limit, f"N={n}: err {errs[n]:.2e} > {limit:.2e}"
    print(f"\nCRITERION 6 PASS: renewal sup errors {errs} within 5*dt / 2.5*dt")


def test_criterion_7_kiefer_energy_identity():
    b = GridField2D(1.0, np.ones((513, 513)))
    e_k, e_b = kiefer_energy(b)
    rel = abs(e_k - e_b) / e_b
    assert rel <= 1e-3
    k = kiefer_from_sheet(b)
    spot = float(k.values[256, -1])
    assert abs(spot - 0.5 * np.log(2.0)) <= 1e-4
    print(f"\nCRITERION 7 PASS: energy gap {rel:.2e} <= 1e-3; "
          f"k(0.5,1) = {spot:.6f} vs 0.5 ln2 = {0.5 * np.log(2.0):.6f}")


def test_criterion_8_simulator_exactness():
    pm = ModelParams(D, 1.0, 0.5, 0.0)
    eq1, eq2 = (PathEquation.from_law(pm, 2.0, m) for m in (200, 400))
    n_traces = 0
    ratios = []
    for i, n in enumerate((10, 100, 1000)):
        sr = ScalingRegime(n=n, rule=("power", 0.25))
        # 17 + 17 + 16 = 50 traces across the ladder
        reps = 17 if n < 1000 else 16
        for rng in spawn_streams(100 + i, reps):
            tr = simulate(pm, sr, 2.0, rng)
            fb = flow_balance_residuals(tr)
            assert len(fb) == 0 or int(np.max(np.abs(fb))) == 0
            r1 = decomposition(tr, eq1)
            r2 = decomposition(tr, eq2)
            assert r1.sup_residual <= 1e-8 + r1.quadrature_bound
            ratios.append(r2.sup_residual / max(r1.sup_residual, 1e-300))
            n_traces += 1
    assert n_traces == 50
    med = float(np.median(ratios))
    assert med <= 0.75, f"median refinement ratio {med:.3f} not ~1/2"
    print(f"\nCRITERION 8 PASS: flow balance exact on {n_traces} traces; "
          f"median residual ratio under dt-halving {med:.3f}")


def test_criterion_9_lln_trend():
    pm = ModelParams(D, 1.0, 0.5, 0.0)
    t0 = time.time()
    stats = {}
    for i, n in enumerate((100, 1000, 10000)):
        sr = ScalingRegime(n=n, rule=("power", 0.1))
        # each trace is reduced to its statistic as it is simulated
        stats[n] = [lln_sup_stat(simulate(pm, sr, 1.0, rng), mu=1.0, t_max=1.0)
                    for rng in spawn_streams(42 + i, 200)]
    pct, decreasing = lln_check(stats)
    elapsed = time.time() - t0
    assert decreasing, f"percentiles not decreasing: {pct}"
    assert pct[10000] <= 0.05, f"99th pct at n=1e4 is {pct[10000]:.4f} > 0.05"
    assert elapsed <= 300.0
    print(f"\nCRITERION 9 PASS: 99th pct of sup|Ahat/n - mu s| = "
          f"{ {k: round(v, 4) for k, v in pct.items()} }, runtime {elapsed:.1f}s <= 300s")


def test_criterion_10_non_reproducibility_statement():
    from mdqueue.cli import cmd_simulate
    from mdqueue.sim import mc_tail

    doc = mc_tail.__doc__.lower()
    assert "diagnostic" in doc and "monte carlo" in doc
    # the CLI summary carries the same caveat alongside any tail estimates
    import inspect

    src = inspect.getsource(cmd_simulate)
    assert "trend diagnostic only" in src
    print("\nCRITERION 10 PASS: mc_tail and the CLI state that tail estimates are "
          "trend diagnostics with no pass/fail threshold against the rate function")
