import heapq
import logging
import math
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (flow_balance_from_events, heap_start_times, lln_report, lln_sup_stat_with_head, q_values,
                       stable_events, tail_rows, terminal_variance, theta_sums_recursion)
from scipy.stats import kstest

from mdqueue import (
    ModelParams,
    QueueTrace,
    ScalingRegime,
    ServiceDist,
    decomposition,
    flow_balance_residuals,
    lln_check,
    mc_tail,
    simulate,
    spawn_streams,
)
from mdqueue.paths import PathEquation
from mdqueue.sim import _theta_sums, gap_shape, lln_sup_stat, replications, tail_hit


def equation(tr, d, n_steps):
    """The path equation of the law d on the horizon of the trace tr, in n_steps steps."""
    return PathEquation.from_law(ModelParams(d, 1.0, 0.0, 0.0), tr.horizon, n_steps)


def _started_done(tr, t):
    """The departures tau_hat + eta of the started customers at or before each node of t,
    all departures less the initial customers' eta0, as `decomposition` counts them."""
    return np.searchsorted(tr.departures, t, side="right") - np.searchsorted(np.sort(tr.eta0), t, side="right")


def _theta(tr, d, n_steps):
    """The decomposition's Theta term of the trace tr for the law d on n_steps steps of its horizon."""
    t = np.linspace(0.0, tr.horizon, n_steps + 1)
    dt = equation(tr, d, n_steps).dt
    return -_theta_sums(d, t, dt, _started_done(tr, t), tr.tau_hat) / (tr.b * math.sqrt(tr.n))


def model(d, q0=0.0, k=1):
    """The model of the service law d at beta 0.5 with Erlang(k) interarrival gaps: sigma^2 = mu / k."""
    return ModelParams(d, math.sqrt(d.mu / k), 0.5, q0)


LAWS = [
    ServiceDist.exponential(1.0),
    ServiceDist.erlang(3, 3.0),
    ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6]),
]


def test_scaling_regime_values():
    sr = ScalingRegime(n=10000, rule=("power", 0.25))
    assert sr.b == pytest.approx(10.0)
    assert sr.rho(0.5) == pytest.approx(1.0 - 0.5 * 10.0 / 100.0)
    assert sr.arrival_rate(model(ServiceDist.exponential(1.0))) == pytest.approx(10000 * sr.rho(0.5))
    assert sr.condition_value == pytest.approx(1000.0 * 10000 ** (0.01 - 0.5))
    assert sr.scale() == pytest.approx(1000.0)


def test_scaling_regime_validation():
    with pytest.raises(ValueError):
        ScalingRegime(n=10, rule=("power", 0.7))
    with pytest.raises(ValueError):
        ScalingRegime(n=0, rule=("power", 0.25))
    with pytest.raises(ValueError, match="rho_n"):
        ScalingRegime(n=4, rule=("power", 0.49)).rho(2.0)  # rho <= 0
    with pytest.raises(ValueError, match="b_n"):
        ScalingRegime(n=1, rule=("log", 1.0))  # b_1 = ln 1 = 0


def test_overloaded_regime_warns(caplog):
    # replications logs each overloaded rung once, before its first replication; simulate logs nothing
    d = ServiceDist.exponential(1.0)
    regimes = [ScalingRegime(n=n, rule=("power", 0.25)) for n in (10, 100)]
    with caplog.at_level(logging.WARNING, logger="mdqueue.sim"):
        for _ in replications(model(d), regimes, 3, 0, 0.1):
            pass
        assert not caplog.records
        simulate(ModelParams(d, 1.0, -0.5, 0.0), regimes[1], 0.1, np.random.default_rng(0))
        assert not caplog.records
        for _ in replications(ModelParams(d, 1.0, -0.5, 0.0), regimes, 3, 0, 0.1):
            pass
    assert all(r.rho(-0.5) > 1 for r in regimes)
    assert [r.getMessage() for r in caplog.records] == [
        f"rho_n = {sr.rho(-0.5):.4f} > 1 at n = {sr.n}: overloaded regime" for sr in regimes]


def test_arrivals_follow_the_model_beta():
    # the regime carries no beta: the arrival rate is n mu rho_n at the model's, 907 arrivals
    # at beta 0.5 and 998 at beta 0 (rho_n = 1) for n = 1000, T = 1, seed 0
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=1000, rule=("power", 0.25))
    for beta, arrivals in ((0.5, 907), (0.0, 998)):
        tr = simulate(ModelParams(d, 1.0, beta, 0.0), sr, 1.0, np.random.default_rng(0))
        assert len(tr.arrival_times) == arrivals


def test_empty_trace():
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=10, rule=("power", 0.25))
    rng = np.random.default_rng(0)
    tr = simulate(model(d), sr, 0.0, rng)
    assert len(tr.event_times) == 0
    assert len(flow_balance_residuals(tr)) == 0
    rep = decomposition(tr, equation(tr, d, 10))
    assert rep.sup_residual <= 1e-12


def test_flow_balance_exact():
    d = ServiceDist.erlang(2, 2.0)
    for n in (10, 100, 1000):
        sr = ScalingRegime(n=n, rule=("power", 0.25))
        for rng in spawn_streams(11, 3):
            tr = simulate(model(d), sr, 2.0, rng)
            fb = flow_balance_residuals(tr)
            assert np.all(fb == 0)


def test_single_customer_hand_check():
    # n = 1, no initial customers (q0 makes Q0 = 0), one arrival, one departure
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=1, rule=("power", 0.25))
    pm1 = ModelParams(d, 1.0, 0.0, -1.0)  # Q0 = round(1 - 1) = 0
    rng = np.random.default_rng(42)
    tr = simulate(pm1, sr, 50.0, rng)
    assert tr.q0_count == 0
    # every arrival raises Q by 1, every departure lowers it by 1
    steps = np.diff(np.concatenate([[0], q_values(tr)]))
    assert set(steps.tolist()) <= {-1, 1}
    assert np.all(q_values(tr) >= 0)
    # first event is an arrival into the empty system: service starts immediately
    assert tr.event_types[0] == 0
    assert tr.tau_hat[0] == tr.arrival_times[0]


def test_initial_customers_residual_services():
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=50, rule=("power", 0.25))
    rng = np.random.default_rng(1)
    pm = model(d)
    tr = simulate(pm, sr, 1.0, rng)
    assert tr.q0_count == round(50 + pm.q0 * sr.scale())
    assert len(tr.eta0) == min(tr.q0_count, 50)


def test_reproducibility_bit_identical():
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=20, rule=("power", 0.25))
    tr1 = simulate(model(d), sr, 2.0, np.random.default_rng(7))
    tr2 = simulate(model(d), sr, 2.0, np.random.default_rng(7))
    assert np.array_equal(tr1.event_times, tr2.event_times)
    assert np.array_equal(q_values(tr1), q_values(tr2))
    assert np.array_equal(tr1.eta, tr2.eta)


def test_spawn_streams_independent():
    s1 = spawn_streams(5, 3)
    s2 = spawn_streams(5, 3)
    a = [r.random() for r in s1]
    b = [r.random() for r in s2]
    assert a == b  # same seed, same streams
    assert len(set(a)) == 3  # distinct streams differ


def test_mm_n_occupancy_lln():
    # heavily loaded M/M/n: mean number in system over [5, 10] close to n
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=400, rule=("power", 0.25))
    rng = np.random.default_rng(3)
    tr = simulate(model(d), sr, 10.0, rng)
    ts = np.linspace(5.0, 10.0, 200)
    occ = tr.q_at(ts).mean()
    assert abs(occ / sr.n - 1.0) < 0.1


def test_decomposition_residual_small_and_halving():
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=100, rule=("power", 0.25))
    ratios = []
    for rng in spawn_streams(13, 5):
        tr = simulate(model(d), sr, 2.0, rng)
        r1 = decomposition(tr, equation(tr, d, 200))
        r2 = decomposition(tr, equation(tr, d, 400))
        assert r1.sup_residual <= 1e-8 + r1.quadrature_bound
        ratios.append(r2.sup_residual / max(r1.sup_residual, 1e-300))
    assert np.median(ratios) < 0.75


def test_decomposition_theta_martingale_term_centered():
    # Theta averages to ~0 over replications (it is a centered sum)
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=200, rule=("power", 0.25))
    vals = []
    for rng in spawn_streams(17, 40):
        tr = simulate(model(d), sr, 1.0, rng)
        vals.append(_theta(tr, d, 50)[-1])
    vals = np.array(vals)
    assert abs(vals.mean()) < 4 * vals.std() / np.sqrt(len(vals)) + 1e-3


def test_lln_check_trend():
    d = ServiceDist.exponential(1.0)
    stats = {}
    for i, n in enumerate((100, 1000)):
        sr = ScalingRegime(n=n, rule=("power", 0.1))
        stats[n] = [lln_sup_stat(simulate(model(d), sr, 1.0, rng), 1.0, 1.0) for rng in spawn_streams(23 + i, 50)]
    _, decreasing = lln_check(stats)
    assert decreasing


def test_interarrival_ks():
    # the generated arrival process has exponential gaps at rate lambda_n
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=100, rule=("power", 0.25))
    rng = np.random.default_rng(29)
    tr = simulate(model(d), sr, 20.0, rng)
    gaps = np.diff(np.concatenate([[0.0], tr.arrival_times]))
    lam = sr.arrival_rate(model(d))
    assert kstest(gaps * lam, "expon").pvalue > 0.01


def _hits_by_regime(pm, regimes, reps, seed, horizon, event):
    hits = {}
    for sr, _, tr in replications(pm, regimes, reps, seed, horizon):
        hits.setdefault(sr, []).append(tail_hit(tr, event))
    return hits


def test_mc_tail_rows():
    d = ServiceDist.exponential(1.0)
    regimes = [ScalingRegime(n=n, rule=("power", 0.25)) for n in (10, 50)]
    rows = mc_tail(_hits_by_regime(model(d), regimes, reps=40, seed=5, horizon=1.0,
                                   event={"kind": "sup", "t": 1.0, "a": 0.2}))
    assert len(rows) == 2
    for r in rows:
        assert r["reps"] == 40
        if r["censored"]:
            assert r["hits"] == 0 and r["p_hat"] is None
        else:
            assert 0 < r["p_hat"] <= 1
            lo, hi = r["wilson"]
            assert lo <= r["p_hat"] <= hi
            assert r["slope"] == pytest.approx(-np.log(r["p_hat"]) / r["b"]**2)


def test_mc_tail_slope_is_zero_not_negative_zero_when_every_replication_hits():
    # -ln 1 / b^2 is -0.0; every other slope is -ln p_hat / b^2 bit for bit
    regimes = [ScalingRegime(n=n, rule=("power", 0.25)) for n in (10, 100, 1000)]
    rows = mc_tail(dict(zip(regimes, ([True] * 4, [True, False, True, True], [False, True, False, False]))))
    assert [r["p_hat"] for r in rows] == [1.0, 0.75, 0.25]
    assert math.copysign(1.0, rows[0]["slope"]) == 1.0 and rows[0]["slope"] == 0.0
    for r in rows[1:]:
        assert r["slope"] == -math.log(r["p_hat"]) / r["b"]**2


def test_mc_tail_impossible_event_censored():
    d = ServiceDist.exponential(1.0)
    regimes = [ScalingRegime(n=10, rule=("power", 0.25))]
    rows = mc_tail(_hits_by_regime(model(d), regimes, reps=10, seed=5, horizon=1.0,
                                   event={"kind": "terminal", "t": 0.5, "a": 1e9}))
    assert rows[0]["censored"]


@pytest.mark.parametrize("stats, decreasing", [
    ({100: [0.3, 0.1, 0.2, 0.25], 1000: np.array([0.05, 0.02]), 10000: [0.01, 0.004, 0.02]}, True),
    ({10000: [0.01, 0.02], 100: [0.3, 0.1], 1000: [0.05]}, True),
    ({100: [0.2, 0.1]}, True),
    ({100: [0.1, 0.05], 1000: [0.05, 0.1], 10000: [0.01]}, False),
    ({100: [0.3], 1000: [0.1], 10000: [0.2]}, False),
], ids=["decreasing", "keys-out-of-order", "single-rung", "tied-percentiles", "rises"])
def test_lln_check_matches_the_report_reducer(stats, decreasing):
    # the percentiles by n and the trend of the earlier LLNReport, equal ones reading as not decreasing
    pct, got = lln_check(stats)
    want = lln_report(stats)
    assert pct == want.percentiles() and list(pct) == list(stats)
    assert got is want.monotone_decreasing is decreasing


@pytest.mark.parametrize("ns, hits", [
    ((10, 100), ([True] * 4, [True] * 3)),
    ((10, 100), ([False] * 4, [False] * 3)),
    ((50,), ([True, False, True],)),
    ((1000, 10, 100), ([False, True, False, False], [True, True, False], [False] * 5)),
], ids=["every-replication-hits", "none-hits", "single-rung", "rungs-out-of-order"])
def test_mc_tail_matches_the_tail_row_reducer(ns, hits):
    # the rows are the earlier TailRows as dicts, key order and the sign of a zero slope included
    by_regime = dict(zip((ScalingRegime(n=n, rule=("power", 0.25)) for n in ns), hits))
    rows = mc_tail(by_regime)
    want = [asdict(r) for r in tail_rows(by_regime)]
    assert rows == want
    for row, ref in zip(rows, want):
        assert list(row) == list(ref) == ["n", "b", "reps", "hits", "p_hat", "wilson", "slope", "censored"]
        if ref["slope"] is not None:
            assert math.copysign(1.0, row["slope"]) == math.copysign(1.0, ref["slope"])


def test_lln_sup_stat_matches_the_formula_with_mu_tau_0():
    # mu tau_0 is the just-before-jump term of the first start, |0 / n - mu tau_0|, bit for bit
    rng = np.random.default_rng(11)
    traces = [QueueTrace(n=n, b=1.0, q0_count=n, horizon=2.0, arrival_times=np.empty(0), tau_hat=tau,
                         eta=np.ones(len(tau)), eta0=np.empty(0))
              for n, tau in ((7, np.sort(rng.uniform(0.01, 2.0, 50))), (3, np.array([1e-300])),
                             (2, np.array([0.9, 0.95])))]  # at mu = t_max = 1, mu tau_0 is the sup
    d = ServiceDist.exponential(1.0)
    traces += [simulate(model(d, q0), ScalingRegime(n=200, rule=("power", 0.25)), 1.0, rng) for q0 in (-0.5, 0.0, 0.5)]
    for tr in traces:
        assert tr.tau_hat[0] > 0
        # the last t_max is before the first start
        for mu, t_max in ((1.0, 1.0), (1.3, 0.5), (0.7, 2.0), (1.0, tr.tau_hat[0] / 2)):
            assert lln_sup_stat(tr, mu, t_max) == lln_sup_stat_with_head(tr, mu, t_max)
    assert lln_sup_stat(traces[2], 1.0, 1.0) == 0.9


def _old_sup_hits(traces, t_ev, a):
    """The sup-event hit count of the list-based expression mc_tail used before."""
    hits = 0
    for tr in traces:
        scale = tr.b * math.sqrt(tr.n)
        vals = (q_values(tr)[tr.event_times <= t_ev] - tr.n) / scale
        x0 = (tr.q0_count - tr.n) / scale
        hits += bool(max([x0, *vals.tolist()]) >= a)
    return hits


def test_mc_tail_sup_matches_list_max():
    # Q starts at q0_count > n = 10, drops by one at t = 0.5 and at t = 1.0 (two
    # residual services end), then climbs to 15 at t = 1.5 (17 - q0_count arrivals);
    # every start, from the queue or on arrival, is served past the horizon
    def trace(q0_count, tau_hat):
        return QueueTrace(
            n=10, b=1.5, q0_count=q0_count, horizon=2.0, arrival_times=np.full(17 - q0_count, 1.5),
            tau_hat=np.array(tau_hat), eta=np.full(len(tau_hat), 3.0), eta0=np.array([0.5, 1.0] + [3.0] * 8),
        )

    # 14: two of the four queued start at 0.5 and 1.0; 11: the one queued starts at 0.5,
    # and the first arrival at 1.5 on the server idle since 1.0
    traces = [trace(14, [0.5, 1.0]), trace(11, [0.5, 1.5])]
    assert [q_values(tr).tolist() for tr in traces] == [[13, 12, 13, 14, 15], [10, 9, *range(10, 16)]]
    scale = 1.5 * math.sqrt(10)
    cases = [
        (0.2, 4 / scale),  # before the first event: only q0_count counts, and hits exactly
        (0.2, 1 / scale),  # before the first event, hit by both traces
        (1.2, 4 / scale),  # hit only by q0_count = 14
        (1.2, 4 / scale + 1e-12),
        (2.0, 5 / scale),  # hit only by the event at 1.5
        (2.0, 6 / scale),
    ]
    hits = [sum(tail_hit(tr, {"kind": "sup", "t": t, "a": a}) for tr in traces) for t, a in cases]
    assert hits == [_old_sup_hits(traces, t, a) for t, a in cases] == [1, 2, 1, 0, 2, 0]


def test_simulate_rejects_negative_horizon():
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=10, rule=("power", 0.25))
    with pytest.raises(ValueError):
        simulate(model(d), sr, -1.0, np.random.default_rng(0))


@pytest.mark.parametrize("mu_over_sigma2", [1 / 0.7, 501.0, 0.5, 1e-300, 2.5, 2 + 1e-11],
                         ids=["sigma2-0.7mu", "shape-501", "shape-0.5", "shape-1e-300", "shape-2.5", "shape-2+1e-11"])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_simulate_rejects_a_sigma_that_gives_no_integer_gap_shape(d, mu_over_sigma2):
    # the gaps are Erlang(mu / sigma^2): sigma^2 = 0.7 mu, a shape past the largest supported
    # one (500), below 1 (down to 1e-300, which rounds to 0), between integers or 1e-11 off
    # one is a ValueError before any draw, so the stream is untouched; 1e-13 off an integer
    # is that integer
    sr = ScalingRegime(n=10, rule=("power", 0.25))
    rng = np.random.default_rng(0)
    pm = ModelParams(d, math.sqrt(d.mu / mu_over_sigma2), 0.5, 0.0)
    with pytest.raises(ValueError, match=r"mu / sigma\^2 = .* is not an integer in \[1, 500\]"):
        simulate(pm, sr, 1.0, rng)
    assert rng.random() == np.random.default_rng(0).random()
    for k in (1, 2, 500):
        assert gap_shape(ModelParams(d, math.sqrt(d.mu / k * (1 + 1e-13)), 0.5, 0.0)) == k
        assert gap_shape(model(d, k=k)) == k
    assert len(simulate(model(d, k=500), sr, 1.0, rng).arrival_times) > 0


def test_sigma_sets_the_interarrival_gaps():
    # two runs that differ only in sigma draw different arrivals: sigma^2 = mu gives Poisson
    # arrivals, sigma^2 = mu / 2 Erlang(2) gaps of the same mean, ServiceDist.erlang(k, k lam)
    d = ServiceDist.erlang(3, 3.0)
    sr = ScalingRegime(n=1000, rule=("power", 0.25))
    lam = sr.arrival_rate(model(d))
    traces = {k: simulate(model(d, k=k), sr, 1.0, np.random.default_rng(5)) for k in (1, 2)}
    assert len(traces[1].arrival_times) != len(traces[2].arrival_times)
    for k, tr in traces.items():
        rng = np.random.default_rng(5)
        d.sample_equilibrium(rng, size=len(tr.eta0))
        gaps = ServiceDist.erlang(k, k * lam).sample(rng, max(64, int(lam * 1.2) + 64))
        want = np.cumsum(gaps)
        assert np.array_equal(tr.arrival_times, want[want <= 1.0])


def _reference_simulate(pm, sr, horizon, rng, arrival_family):
    """Event-driven GI/GI/n FCFS loop: pop the earlier of the next arrival and
    the next departure, arrivals first on ties; departures tie-break by id.
    Draws eta0, then the arrivals, then one service per entering customer in
    one call, handed out in start order, like `simulate`.  The gaps are
    Erlang(k), k = mu / sigma^2, drawn by `arrival_family`'s generator call."""
    n, d, k = sr.n, pm.law, round(pm.mu / pm.sigma**2)
    q0_count = max(0, int(round(n + pm.q0 * sr.scale())))
    lam = sr.arrival_rate(pm)
    in_service = min(q0_count, n)
    eta0 = np.atleast_1d(d.sample_equilibrium(rng, size=in_service)) if in_service else np.empty(0)
    chunk = max(64, int(lam * horizon * 1.2) + 64)

    def gaps():
        if arrival_family == "exponential":
            return rng.exponential(1.0 / lam, size=chunk)
        return rng.gamma(k, 1.0 / (lam * k), size=chunk)

    arr = np.cumsum(gaps())
    while arr[-1] <= horizon:
        arr = np.concatenate([arr, arr[-1] + np.cumsum(gaps())])
    arrivals = arr[arr <= horizon]
    services = iter(d.sample(rng, size=q0_count - in_service + len(arrivals)).tolist())

    deps = [(float(r), i) for i, r in enumerate(eta0)]
    heapq.heapify(deps)
    busy, waiting, q = in_service, q0_count - in_service, q0_count
    tau_hat, eta, ev = [], [], []

    def start(t):
        s = next(services)
        tau_hat.append(t)
        eta.append(s)
        heapq.heappush(deps, (t + s, in_service + len(tau_hat) - 1))

    ia = 0
    while True:
        t_arr = arrivals[ia] if ia < len(arrivals) else math.inf
        t_dep = deps[0][0] if deps else math.inf
        if min(t_arr, t_dep) > horizon:
            break
        if t_arr <= t_dep:
            q += 1
            if busy < n:
                busy += 1
                start(t_arr)
            else:
                waiting += 1
            ev.append((t_arr, 0, q0_count + ia, q))
            ia += 1
        else:
            t, cid = heapq.heappop(deps)
            q -= 1
            busy -= 1
            if waiting:
                waiting -= 1
                busy += 1
                start(t)
            ev.append((t, 1, cid, q))
    ev_t, ev_type, ev_id, ev_q = zip(*ev) if ev else ((), (), (), ())
    return {
        "arrival_times": arrivals, "tau_hat": np.array(tau_hat), "eta": np.array(eta), "eta0": eta0,
        "event_times": np.array(ev_t), "event_types": np.array(ev_type), "event_ids": np.array(ev_id),
        "q_values": np.array(ev_q),
    }


def _assert_matches_reference(tr, ref):
    """Every field of `_reference_simulate`'s dict equals the trace's, its q_values the queue read off the event list."""
    for name, want in ref.items():
        got = q_values(tr) if name == "q_values" else getattr(tr, name)
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
@pytest.mark.parametrize("n", [1, 3, 50])
def test_simulate_matches_event_driven_reference(d, n):
    # q0 > 0 starts with a queue behind n busy servers; Erlang(2) arrivals
    pm = model(d, 0.8, k=2)
    sr = ScalingRegime(n=n, rule=("power", 0.25))
    for seed in range(5):
        tr = simulate(pm, sr, 3.0, np.random.default_rng(seed))
        ref = _reference_simulate(pm, sr, 3.0, np.random.default_rng(seed), "erlang")
        assert tr.q0_count > n
        assert len(tr.event_times) > 0
        _assert_matches_reference(tr, ref)


# mean 1: a rate-100 branch next to a slow one, so a server that frees up early
# often serves several queued customers in a row
_W_SLOW = 0.99 / (1 / 0.502 - 0.01)
FAST_HYPEREXP = ServiceDist.hyperexponential([1 - _W_SLOW, _W_SLOW], [100.0, 0.502])
KW_LAWS = [pytest.param(d, id=d.family) for d in LAWS] + [pytest.param(FAST_HYPEREXP, id="fast_hyperexponential")]


class _Recorded:
    """A service law that keeps every block of services `simulate` draws: one block,
    one service per entering customer."""

    def __init__(self, d):
        self.d, self.blocks = d, []

    @property
    def mu(self):
        return self.d.mu

    def sample_equilibrium(self, rng, size):
        return self.d.sample_equilibrium(rng, size=size)

    def sample(self, rng, size):
        self.blocks.append(self.d.sample(rng, size=size))
        return self.blocks[-1]


def _simulate_recorded(pm, sr, horizon, rng):
    rec = _Recorded(pm.law)
    return simulate(replace(pm, law=rec), sr, horizon, rng), rec.blocks


def _assert_starts_match_heap(tr, blocks):
    in_service = len(tr.eta0)
    free = np.concatenate([tr.eta0, np.zeros(tr.n - in_service)])
    entries = np.concatenate([np.zeros(tr.q0_count - in_service), tr.arrival_times])
    (services,) = blocks
    assert len(services) == len(entries)
    tau_hat, eta = heap_start_times(free, entries, tr.horizon, services)
    assert tr.tau_hat.dtype == tr.eta.dtype == np.float64
    assert np.array_equal(tr.tau_hat, tau_hat)
    assert np.array_equal(tr.eta, eta)


@pytest.mark.parametrize("q0", [-0.5, 0.0, 0.8, 1.0])
@pytest.mark.parametrize("d", KW_LAWS)
def test_simulate_start_times_match_heap(d, q0):
    # q0 -0.5 leaves servers idle at 0, 0.8 and 1 start with a queue; horizon 0
    # starts only the customers whose servers are free at 0
    pm = model(d, q0)
    for n in (1, 2, 3, 7, 50, 400, 3000):
        sr = ScalingRegime(n=n, rule=("power", 0.25))
        for horizon in (0.0, 0.3, 3.0):
            for seed, k in enumerate([1, 2]):
                rng = np.random.default_rng(seed)
                _assert_starts_match_heap(*_simulate_recorded(model(d, q0, k), sr, horizon, rng))
    # several windows of max(256, 4n) customers, with the free times and
    # departures carried from one to the next
    for n, horizon in [(1, 2000.0), (10, 100.0), (50, 20.0)]:
        sr = ScalingRegime(n=n, rule=("power", 0.25))
        tr, blocks = _simulate_recorded(pm, sr, horizon, np.random.default_rng(2))
        assert len(tr.tau_hat) > 2 * max(256, 4 * n)
        _assert_starts_match_heap(tr, blocks)


@given(
    law=st.sampled_from(LAWS + [FAST_HYPEREXP]),
    n=st.integers(1, 60),
    q0=st.floats(-1.0, 1.5),
    horizon=st.floats(0.0, 5.0),
    k=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_simulate_matches_event_driven_reference_property(law, n, q0, horizon, k, seed):
    pm = model(law, q0, k)
    sr = ScalingRegime(n=n, rule=("power", 0.25))
    tr = simulate(pm, sr, horizon, np.random.default_rng(seed))
    ref = _reference_simulate(pm, sr, horizon, np.random.default_rng(seed), "exponential" if k == 1 else "erlang")
    _assert_matches_reference(tr, ref)


class _UnitServices:
    """Every service and residual service lasts exactly 1."""

    mu = 1.0

    def sample(self, rng, size):
        return np.ones(size)

    sample_equilibrium = sample


class _QuarterGaps:
    """Interarrival gaps of exactly 1/4, so arrivals tie with departures: `gamma` for
    `simulate`, `exponential` for `_reference_simulate`."""

    def gamma(self, shape, scale, size):
        assert shape == 1
        return np.full(size, 0.25)

    def exponential(self, scale, size):
        return np.full(size, 0.25)


def _assert_stable_event_order(tr):
    times, types, ids = stable_events(tr)
    assert np.array_equal(tr.event_times, times)
    assert np.array_equal(tr.event_types, types)
    assert np.array_equal(tr.event_ids, ids)


def test_simulate_ties_match_event_driven_reference(caplog):
    # departures of the 3 initial services, 3 starts from the queue and an
    # arrival all fall at t = 1 and again at t = 2 = horizon
    pm = model(_UnitServices(), 0.8)
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    with caplog.at_level(logging.DEBUG, logger="mdqueue.sim"):
        tr = simulate(pm, sr, 2.0, _QuarterGaps())
        assert "tied event times" not in caplog.text  # simulate sorts nothing
        tr.event_times  # the first read builds the event list
    # the tie sends the event sort to its stable fallback
    assert "tied event times: stable sort" in caplog.text
    ref = _reference_simulate(pm, sr, 2.0, _QuarterGaps(), "exponential")
    assert np.count_nonzero(tr.tau_hat == 2.0) == 3
    _assert_matches_reference(tr, ref)
    _assert_stable_event_order(tr)


def test_flow_balance_exact_at_tied_event_times():
    # the trace above, with four events at t = 1 and four at t = 2: the counts are
    # right-continuous in time, so Q is compared with them after the last event of
    # each time, where it used to be compared after each event ([0 0 0 3 2 1 0 ...])
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    tr = simulate(model(_UnitServices(), 0.8), sr, 2.0, _QuarterGaps())
    assert len(tr.event_times) == 14
    assert np.array_equal(flow_balance_residuals(tr), np.zeros(8, dtype=int))


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_event_order_is_stable_sort(d, n, caplog):
    # untied times: the default sort runs alone and gives the stable sort's order
    sr = ScalingRegime(n=n, rule=("power", 0.25))
    for seed in range(3):
        with caplog.at_level(logging.DEBUG, logger="mdqueue.sim"):
            tr = simulate(model(d), sr, 2.0, np.random.default_rng(seed))
            tr.event_times  # the first read builds the event list
        assert "tied event times" not in caplog.text
        assert len(tr.event_times) > n
        _assert_stable_event_order(tr)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_event_order_is_stable_sort_at_n1e5(d, traces_1e5):
    _assert_stable_event_order(traces_1e5[d.family])


def _assert_tail_hit_matches_event_list(tr, t):
    """tail_hit at t against the event-list expressions: the max of q_values over the
    events by t from q0_count (sup) and q_at(t) (terminal).  Each is hit at its own
    level a and missed just above it, which pins the count tail_hit reaches."""
    scale = tr.b * math.sqrt(tr.n)
    want = {"sup": int(np.max(q_values(tr)[tr.event_times <= t], initial=tr.q0_count)), "terminal": int(tr.q_at(t))}
    for kind, q in want.items():
        a = (q - tr.n) / scale
        assert tail_hit(tr, {"kind": kind, "t": t, "a": a}), (kind, t, q)
        assert not tail_hit(tr, {"kind": kind, "t": t, "a": np.nextafter(a, np.inf)}), (kind, t, q)


@pytest.mark.parametrize("q0", [-0.5, 0.0, 0.8])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_tail_hit_matches_event_list(d, q0):
    pm = model(d, q0)
    for seed, n in enumerate((1, 3, 50, 1000)):
        sr = ScalingRegime(n=n, rule=("power", 0.25))
        tr = simulate(pm, sr, 2.0, np.random.default_rng(seed))
        for t in (0.0, 1.0, 2.0):
            _assert_tail_hit_matches_event_list(tr, t)


def test_tail_hit_matches_event_list_on_ties():
    # at t = 1 and t = 2 an arrival ties with three departures and goes first, so the
    # peak at 1 is the arrival's 9 before they leave: counting the departures at or
    # before an arrival's time, not strictly before it, would miss it
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    tr = simulate(model(_UnitServices(), 0.8), sr, 2.0, _QuarterGaps())
    assert tr.q0_count == 5 and np.max(q_values(tr)[tr.event_times <= 1.0]) == 9
    for t in (0.0, 0.75, 1.0, 2.0):
        _assert_tail_hit_matches_event_list(tr, t)


def test_tail_hit_matches_event_list_past_the_last_departure():
    # a record of arrivals that nobody serves: each arrival lifts Q past every
    # departure there is, which a simulated path with a server never does
    tr = QueueTrace(n=1, b=1.0, q0_count=0, horizon=1.0, arrival_times=np.array([0.25, 0.5, 0.75]),
                    tau_hat=np.empty(0), eta=np.empty(0), eta0=np.empty(0))
    assert q_values(tr).tolist() == [1, 2, 3]
    for t in (0.5, 1.0):
        _assert_tail_hit_matches_event_list(tr, t)


def test_replication_diagnostics_leave_the_event_list_unbuilt():
    d = ServiceDist.erlang(3, 3.0)
    sr = ScalingRegime(n=200, rule=("power", 0.25))
    tr = simulate(model(d), sr, 1.0, np.random.default_rng(4))
    lln_sup_stat(tr, 1.0, 1.0)
    for kind in ("sup", "terminal"):
        tail_hit(tr, {"kind": kind, "t": 1.0, "a": 0.1})
    assert "_events" not in vars(tr)
    times = tr.event_types, tr.event_times
    assert "_events" in vars(tr)
    assert tr.event_times is times[1]  # built once


def _count_traces():
    """(kind, trace) params: a path with ties, one of several start-time windows, one with
    idle servers at 0 and one with a queue at 0, the last three for every law."""
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    yield pytest.param("tied", simulate(model(_UnitServices(), 0.8), sr, 2.0, _QuarterGaps()), id="tied")
    for d in LAWS:
        for kind, n, q0, horizon in (("windows", 10, 0.0, 100.0), ("idle", 50, -0.5, 2.0), ("queued", 50, 0.8, 2.0)):
            sr = ScalingRegime(n=n, rule=("power", 0.25))
            tr = simulate(model(d, q0), sr, horizon, np.random.default_rng(n))
            yield pytest.param(kind, tr, id=f"{kind}-{d.family}")


@pytest.mark.parametrize("kind, tr", list(_count_traces()))
def test_departures_are_the_sorted_departures_by_the_horizon(kind, tr):
    every = np.concatenate([tr.eta0, tr.tau_hat + tr.eta])
    assert np.any(every > tr.horizon)  # some are cut
    want = np.sort(every[every <= tr.horizon])
    assert np.array_equal(tr.departures, want)
    assert tr.departures is tr.departures  # sorted once
    if kind == "windows":
        assert len(tr.tau_hat) > 2 * max(256, 4 * tr.n)
    elif kind == "idle":
        assert tr.q0_count < tr.n
    else:
        assert tr.q0_count > tr.n


@pytest.mark.parametrize("kind, tr", list(_count_traces()))
def test_q_at_matches_the_event_list(kind, tr):
    # the value after the last event at or before t, q0_count before the first
    mid = (tr.event_times[1:] + tr.event_times[:-1]) / 2
    t = np.concatenate([[-1.0, 0.0], tr.event_times, mid, tr.horizon * np.array([1.0, 1.5, 10.0])])
    want = np.concatenate([[tr.q0_count], q_values(tr)])[np.searchsorted(tr.event_times, t, side="right")]
    assert np.array_equal(tr.q_at(t), want)
    assert [tr.q_at(s) for s in t[:50]] == want[:50].tolist()


def _assert_flow_balance_matches_the_event_list(tr):
    # a trace whose starts are wrong, late or one short, has residuals that are not all zero
    traces = [tr, replace(tr, tau_hat=tr.tau_hat + 0.01 * tr.horizon), replace(tr, tau_hat=tr.tau_hat[1:], eta=tr.eta[1:])]
    got = [flow_balance_residuals(trace) for trace in traces]
    assert not any("_events" in vars(trace) for trace in traces[1:])  # counted without the event list
    for g, trace in zip(got, traces):
        assert np.array_equal(g, flow_balance_from_events(trace))
    assert np.any(got[1] != 0) and np.any(got[2] != 0)


@pytest.mark.parametrize("kind, tr", list(_count_traces()))
def test_flow_balance_matches_the_event_list(kind, tr):
    _assert_flow_balance_matches_the_event_list(tr)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_flow_balance_matches_the_event_list_at_n1e5(d, traces_1e5):
    _assert_flow_balance_matches_the_event_list(traces_1e5[d.family])


def test_identity_checks_build_no_event_list_and_bound_their_memory():
    # a replication at n = 1e5 and both identity-check grids: the trace is 3.9 MB and the run
    # peaks near 9.8 MB; an event list built for the flow balance takes it past 14 MB
    pm = model(ServiceDist.exponential(1.0))
    eqs = [PathEquation.from_law(pm, 1.0, m) for m in (200, 400)]
    tracemalloc.start()
    try:
        tr = simulate(pm, ScalingRegime(n=100_000, rule=("power", 0.25)), 1.0, np.random.default_rng(7))
        flow_balance_residuals(tr)
        for eq in eqs:
            decomposition(tr, eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6, f"peak {peak / 1e6:.1f} MB"
    assert "_events" not in vars(tr)


def _dense_theta(trace: QueueTrace, d: ServiceDist, n_steps: int) -> np.ndarray:
    t = np.linspace(0.0, trace.horizon, n_steps + 1)
    tau, served = trace.tau_hat[None, :], trace.eta[None, :]
    started = tau <= t[:, None]
    done = (tau + served) <= t[:, None]
    lag_f = d.cdf(np.maximum(t[:, None] - tau, 0.0))
    return -np.sum(started * (done - lag_f), axis=1) / (trace.b * np.sqrt(trace.n))


@pytest.mark.parametrize(
    "d",
    [pytest.param(d, id=d.family) for d in LAWS]
    + [
        pytest.param(ServiceDist.erlang(5, 5.0), id="erlang5"),
        pytest.param(ServiceDist.hyperexponential([0.1, 0.3, 0.6], [0.25, 1.0, 2.5]), id="hyperexponential3"),
    ],
)
def test_decomposition_theta_matches_dense_formula(d):
    pm = model(d, 0.3)
    sr = ScalingRegime(n=40, rule=("power", 0.25))
    tr = simulate(pm, sr, 2.0, np.random.default_rng(3))
    want = _dense_theta(tr, d, 100)
    assert np.allclose(_theta(tr, d, 100), want, rtol=1e-12, atol=1e-14)


class _ZeroResiduals(_UnitServices):
    """Unit services, but the initially busy servers free up at t = 0."""

    def sample_equilibrium(self, rng, size):
        return np.zeros(size)


@pytest.mark.parametrize("stub", [_UnitServices(), _ZeroResiduals()], ids=["unit", "zero_residual"])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_decomposition_theta_starts_on_nodes(d, stub):
    # every start falls on a node of the 0.25-spaced grid: the queued customers
    # start at t = 0 (zero residuals) or t = 1, and the last at t = 2 = horizon
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    tr = simulate(model(stub, 0.8), sr, 2.0, _QuarterGaps())
    t = np.linspace(0.0, 2.0, 9)
    assert np.all(np.isin(tr.tau_hat, t))
    assert tr.tau_hat[-1] == 2.0
    assert (tr.tau_hat[0] == 0.0) == isinstance(stub, _ZeroResiduals)
    want = _dense_theta(tr, d, 8)
    assert np.allclose(_theta(tr, d, 8), want, rtol=1e-12, atol=1e-14)


def _longdouble_lag_sum(d: ServiceDist, t: float, tau: np.ndarray, eta: np.ndarray) -> float:
    """sum_{tau_j <= t} (1{tau_j + eta_j <= t} - F(t - tau_j)), term by term in long double."""
    started = tau <= t
    x = np.longdouble(t) - tau[started].astype(np.longdouble)
    done = (tau + eta)[started] <= t
    if d.family == "exponential":
        cdf = -np.expm1(-np.longdouble(d.rates[0]) * x)
    elif d.family == "erlang":
        y = np.longdouble(d.rates[0]) * x
        term, surv = np.ones_like(y), np.ones_like(y)
        for m in range(1, d.shape):
            term = term * y / m
            surv = surv + term
        cdf = 1 - np.exp(-y) * surv
    else:
        cdf = sum(np.longdouble(w) * -np.expm1(-np.longdouble(lam) * x) for w, lam in zip(d.weights, d.rates))
    return float(np.sum(done - cdf))


@pytest.fixture(scope="module")
def runs_1e5():
    # one horizon-1 path at n = 1e5 per law, with its service draws; every law
    # in LAWS has mean 1
    sr = ScalingRegime(n=100_000, rule=("power", 0.25))
    return {d.family: _simulate_recorded(model(d), sr, 1.0, np.random.default_rng(8)) for d in LAWS}


@pytest.fixture(scope="module")
def traces_1e5(runs_1e5):
    return {family: tr for family, (tr, _) in runs_1e5.items()}


@pytest.fixture(scope="module")
def fast_queue_1e5():
    # a queue of b_n sqrt(n) ~ 5,600 customers behind the fast hyperexponential
    # law, whose start times take the most passes to settle; returns the run and
    # the seconds simulate took
    sr = ScalingRegime(n=100_000, rule=("power", 0.25))
    t0 = time.perf_counter()
    run = _simulate_recorded(model(FAST_HYPEREXP, 1.0), sr, 1.0, np.random.default_rng(8))
    return run, time.perf_counter() - t0


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_simulate_start_times_match_heap_at_n1e5(d, runs_1e5):
    _assert_starts_match_heap(*runs_1e5[d.family])


def test_simulate_start_times_match_heap_at_n1e5_fast_queue(fast_queue_1e5):
    (tr, blocks), _ = fast_queue_1e5
    assert tr.q0_count - tr.n > 5_000
    _assert_starts_match_heap(tr, blocks)


def test_simulate_n1e5_time_bound(fast_queue_1e5):
    # about 40 passes of one sort each settle the start times in about 0.15 s on
    # a 2-core x86 machine, against 0.23 s for a heap; 1 s is the bound, which a
    # pass count growing with the number of customers would break
    (tr, _), elapsed = fast_queue_1e5
    assert len(tr.tau_hat) > 90_000
    assert elapsed < 1.0, f"simulate at n = 1e5, fast hyperexponential, q0 = 1 took {elapsed:.2f} s"


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_theta_sums_match_longdouble_at_n1e5(d, traces_1e5):
    # the counts cancel against survival sums of order 1e5, so the unscaled
    # sums carry round-off of order 1e-11 (the node-by-node recursion, 1e-10);
    # 1e-10 is the bound
    tr = traces_1e5[d.family]
    t = np.linspace(0.0, 1.0, 401)
    got = _theta_sums(d, t, 1.0 / 400, _started_done(tr, t), tr.tau_hat)
    for i in np.linspace(0, 400, 9).astype(int):
        want = _longdouble_lag_sum(d, t[i], tr.tau_hat, tr.eta)
        assert abs(got[i] - want) <= 1e-10, (i, got[i], want)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_theta_sums_match_node_recursion_at_n1e5(d, traces_1e5):
    # the two differ by round-off of at most 1e-9 in the unscaled sums, so Theta,
    # the sums over b_n sqrt(n) ~ 5,600, agrees to 1e-12
    tr = traces_1e5[d.family]
    scale = tr.b * math.sqrt(tr.n)
    for n_steps in (400, 800):
        t = np.linspace(0.0, 1.0, n_steps + 1)
        got = _theta_sums(d, t, 1.0 / n_steps, _started_done(tr, t), tr.tau_hat)
        want = theta_sums_recursion(d, t, tr.tau_hat, tr.eta)
        assert np.max(np.abs(got - want)) / scale <= 1e-12


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_theta_sums_match_node_recursion_at_horizon_0(d):
    # horizon 0: one node, where the queued customers start on the servers
    # whose residual services are zero
    sr = ScalingRegime(n=3, rule=("power", 0.25))
    tr = simulate(model(_ZeroResiduals(), 0.8), sr, 0.0, _QuarterGaps())
    assert np.array_equal(tr.tau_hat, np.zeros(2))
    t = np.zeros(1)
    got = _theta_sums(d, t, 0.0, _started_done(tr, t), tr.tau_hat)
    assert np.allclose(got, theta_sums_recursion(d, t, tr.tau_hat, tr.eta), rtol=0, atol=1e-12)
    theta = _theta(tr, d, 10)
    assert np.allclose(theta, -got / (tr.b * math.sqrt(tr.n)), rtol=0, atol=1e-12)


def test_decomposition_n1e5_erlang_time_bound(traces_1e5):
    # the phase convolutions cost O(n + k N^2): Erlang(3, 3) at 401 nodes x ~10^5
    # starts takes about 0.01 s on a 2-core x86 machine; 1 s is the bound
    d = LAWS[1]
    tr = traces_1e5[d.family]
    t0 = time.perf_counter()
    rep = decomposition(tr, equation(tr, d, 400))
    elapsed = time.perf_counter() - t0
    assert rep.sup_residual <= 1e-8 + rep.quadrature_bound
    assert elapsed < 1.0, f"Erlang(3, 3) decomposition at n = 1e5, 400 steps took {elapsed:.2f} s"


def test_decomposition_n1e5_time_bound():
    # 401 grid nodes x ~10^5 service starts: the phase convolutions and searchsorted
    # counts take well under a second on a 2-core x86 machine; 10 s is the bound
    d = ServiceDist.exponential(1.0)
    sr = ScalingRegime(n=100_000, rule=("power", 0.25))
    tr = simulate(model(d), sr, 1.0, np.random.default_rng(8))
    assert len(tr.tau_hat) > 50_000
    t0 = time.perf_counter()
    rep = decomposition(tr, equation(tr, d, 400))
    elapsed = time.perf_counter() - t0
    assert rep.sup_residual <= 1e-8 + rep.quadrature_bound
    assert elapsed < 10.0, f"decomposition at n = 1e5, 400 steps took {elapsed:.2f} s"


def test_decomposition_off_the_equation_grid_raises():
    d = ServiceDist.exponential(1.0)
    tr = simulate(model(d), ScalingRegime(n=10, rule=("power", 0.25)), 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not on the grid of its path equation"):
        decomposition(tr, PathEquation.from_law(model(d), 1.0, 10))


@pytest.mark.parametrize("d, k", [pytest.param(d, 1, id=d.family) for d in LAWS]
                         + [pytest.param(LAWS[0], 2, id="exponential-erlang2-gaps")])
def test_simulated_variance_matches_the_zero_mean_gram(d, k):
    # the all-busy regime: at q0 = 2 and beta 0.5 every replication keeps Q_n above n on [0, 1],
    # so q^+ = q, the path equation is linear, and the variance of (Q_n(1) - n) / sqrt(n) tends
    # to v = y^T G y (reference.terminal_variance).  The Gram of controls with zero x-mean (a
    # Brownian bridge and a Kiefer process) gives the queue's v; the free-mean Gram, the
    # functional `rate` minimises, is 11 to 15 standard errors of the sample variance away
    pm = model(d, 2.0, k)
    sr = ScalingRegime(n=2000, rule=("power", 0.25))
    reps = 500
    z = []
    for _, _, tr in replications(pm, [sr], reps, 11, 1.0):
        assert np.min(q_values(tr)) > tr.n
        z.append((tr.q_at(1.0) - tr.n) / math.sqrt(tr.n))
    var = float(np.var(z, ddof=1))
    se = var * math.sqrt(2.0 / (reps - 1))
    assert abs(var - terminal_variance(pm, 1.0, zero_mean=True)) <= 4.0 * se
    assert abs(var - terminal_variance(pm, 1.0, zero_mean=False)) >= 8.0 * se


def test_zero_mean_gram_variance_is_the_mm_n_variance():
    # all-busy M/M/n with Poisson arrivals: Q(t) - Q(0) is the difference of two Poisson counts
    # of rates lam and n mu, so v(t) = (sigma^2 + mu) t = 2t at sigma = mu = 1.  At 400 steps the
    # trapezoid lag's mass 1 + dt^2/12 lifts t = 20 to 40.2
    pm = model(LAWS[0], 2.0)
    for t in (1.0, 5.0, 20.0):
        assert terminal_variance(pm, t, zero_mean=True) == pytest.approx(2.0 * t, rel=0.01)
