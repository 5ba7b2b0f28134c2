import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mdqueue
from mdqueue import GridField2D, GridPath
from mdqueue.cli import main


def _write_q(path, n=200):
    t = np.linspace(0.0, 2.0, n + 1)
    GridPath(2.0, 0.3 * t * (2.0 - t)).to_csv(path)


def _cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "model": {"sigma": 1.0, "beta": 0.5, "q0": 0.0},
    "dist": {"family": "exponential", "rate": 1.0},
}
SIM_OK = {"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25}, "reps": 2, "horizon": 1.0}


def test_rate_zero_path_zero_rate(tmp_path, capsys):
    qp = tmp_path / "q.csv"
    GridPath(2.0, np.zeros(201)).to_csv(qp)
    cfg = _cfg(tmp_path, "c.json", {
        "command": "rate",
        "model": {"sigma": 1.0, "beta": 0.0, "q0": 0.0},
        "dist": {"family": "exponential", "rate": 1.0},
        "io": {"q_csv": "q.csv"},
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["status"] == "ok"
    assert s["rate"] == pytest.approx(0.0, abs=1e-12)
    assert s["version"].startswith("mdqueue-v")


def test_rate_artifacts_roundtrip(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    # p path CSV round-trips bit-exactly through the GridPath reader
    p1 = GridPath.from_csv(out / "pbar.csv")
    p1.to_csv(out / "pbar2.csv")
    assert (out / "pbar.csv").read_bytes() == (out / "pbar2.csv").read_bytes()
    for f in ("h.csv", "w0dot.csv", "wdot.csv", "kdot.csv", "summary.json"):
        assert (out / f).is_file()


def test_rate_independent_of_n_x(tmp_path):
    # the rate, the primal energy and the gap are computed on the t grid; at
    # n_x = 512 the gridded control energy is still 6e-6 below the rate, and
    # summary.json reports that as the x-quadrature error, not as a gap
    _write_q(tmp_path / "q.csv", n=1600)
    s = {}
    for n_x in (32, 512):
        grid = {"horizon": 2.0, "n_steps": 1600, "n_x": n_x}
        cfg = _cfg(tmp_path, f"c{n_x}.json", dict(BASE, command="rate", grid=grid, io={"q_csv": "q.csv"}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / f"out{n_x}"), "--quiet"]) == 0
        s[n_x] = json.loads((tmp_path / f"out{n_x}" / "summary.json").read_text())
    for key in ("rate", "dual", "primal_energy", "duality_gap"):
        assert s[512][key] == s[32][key], key
    assert abs(s[512]["duality_gap"]) <= 1e-12
    assert -1e-5 < s[512]["x_quadrature_error"] < -1e-6


def test_controls_roundtrip_error_reported(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="controls", io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["roundtrip_rel_error"] <= 0.03
    assert (out / "q_roundtrip.csv").is_file()


def test_oracle_check_report(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="oracle-check",
        grid={"horizon": 2.0, "n_steps": 200, "n_x": 32},
        io={"q_csv": "q.csv"},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    for key in ("value", "flagsOn", "flagsOff", "fredholmValue", "relGap", "N"):
        assert key in s
    assert "M" not in s  # n_x sets only the x grid of the control CSVs, which oracle-check does not write
    assert (s["flagsOffRoute"], s["flagsOnRoute"]) == ("pcg", "pcg")
    assert all(isinstance(s[k], int) and 0 < s[k] <= 40 for k in ("flagsOffIterations", "flagsOnIterations"))
    assert s["flagsOn"] >= s["flagsOff"]
    assert s["relGap"] <= 0.02 or abs(s["value"] - s["fredholmValue"]) / (1 + s["fredholmValue"]) <= 0.02


def test_oracle_check_needs_no_grid(tmp_path):
    # the t grid is the q grid, so a grid block that repeats it (the horizon to
    # 1e-9 relative) changes nothing
    _write_q(tmp_path / "q.csv")
    runs = {}
    grid = {"horizon": 2.0 * (1 + 1e-10), "n_steps": 200, "n_x": 5}
    for name, extra in (("grid", {"grid": grid}), ("none", {})):
        cfg = _cfg(tmp_path, f"{name}.json", dict(BASE, command="oracle-check", io={"q_csv": "q.csv"}, **extra))
        assert main(["--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]) == 0
        runs[name] = {f: (tmp_path / name / f).read_bytes() for f in ("summary.json", "oracle.csv")}
    assert runs["grid"] == runs["none"]


def test_fredholm_value_is_the_rate(tmp_path):
    # oracle-check stops the adjoint route at the rate; it is the rate that `rate` reports
    _write_q(tmp_path / "q.csv")
    s = {}
    for command in ("rate", "oracle-check"):
        cfg = _cfg(tmp_path, f"{command}.json", dict(BASE, command=command, io={"q_csv": "q.csv"}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / command), "--quiet"]) == 0
        s[command] = json.loads((tmp_path / command / "summary.json").read_text())
    assert s["oracle-check"]["fredholmValue"] == s["rate"]["rate"]


@pytest.mark.parametrize("command", ["rate", "controls", "oracle-check", "dist-info"])
@pytest.mark.parametrize("grid", [{"horizon": 7.0, "n_steps": 13, "n_x": 5},
                                  {"horizon": 2.0 * (1 + 1e-8), "n_steps": 200},
                                  {"horizon": 2.0, "n_steps": 199}], ids=["both", "horizon", "n_steps"])
def test_grid_not_the_q_grid_exit_2_no_outputs(tmp_path, capsys, command, grid):
    # io.q_csv sets the t grid; a grid block that names another one is a config error.
    # dist-info reads no io.q_csv (nor model), so for it the error is the unread blocks
    _write_q(tmp_path / "q.csv")
    payload = dict(BASE, command=command, grid=grid, io={"q_csv": "q.csv"})
    if command == "dist-info":
        del payload["model"]
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    if command == "dist-info":
        assert "command 'dist-info' does not read ['io.q_csv']" in err
    else:
        assert "does not match io.q_csv" in err


def test_simulate_summary_has_condition_values(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="simulate", seed=9,
        sim={"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25},
             "reps": 10, "horizon": 1.0},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    for row in s["ladder"]:
        n, b = row["n"], row["b"]
        assert row["condition_value"] == pytest.approx(b**3 * n ** (1 / b**2 - 0.5))
    assert (out / "trace_n10.csv").is_file()
    assert (out / "ladder.csv").is_file()


def test_simulate_memory_independent_of_reps(tmp_path):
    # each replication is reduced to its LLN statistic and tail hit as it is simulated, so the
    # traced peak is one n = 10^4 trace (~0.8 MB) and its CSV whatever reps is; a run that keeps
    # every trace peaks about 0.75 MB higher per replication
    def peak_mib(reps, tag):
        cfg = _cfg(tmp_path, f"{tag}.json", dict(
            BASE, command="simulate", seed=3,
            sim={"ladder": [10_000], "b_rule": {"kind": "power", "value": 0.25}, "reps": reps, "horizon": 1.0,
                 "event": {"kind": "sup", "t": 1.0, "a": 0.5}},
        ))
        tracemalloc.start()
        try:
            assert main(["--config", str(cfg), "--out", str(tmp_path / tag), "--quiet"]) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    peak_mib(2, "warm-up")  # the first run includes one-time imports
    few, many = peak_mib(2, "few"), peak_mib(10, "many")
    assert many <= 1.25 * few, f"tracemalloc peak {few:.2f} MiB at reps 2, {many:.2f} MiB at reps 10"


def test_identity_check(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="identity-check", seed=2,
        sim={"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25},
             "reps": 5, "horizon": 1.0, "decomposition_steps": 100},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["flow_balance_max"] == 0
    assert s["all_within_bound"] is True


def test_identity_check_takes_lln_t(tmp_path):
    # simulate alone reads sim.lln_t; identity-check accepts it, as the sim-ladder benchmark passes it
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="identity-check", sim=dict(SIM_OK, lln_t=1.0)))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_kiefer_check(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"command": "kiefer-check", "kiefer": {"m": 128, "n": 128}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["energy_rel_gap"] < 5e-3
    assert s["k_half_T"] == pytest.approx(0.5 * np.log(2.0), abs=1e-3)


def test_dist_info(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"command": "dist-info", "dist": {"family": "erlang", "shape": 2, "rate": 2.0}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["mean"] == pytest.approx(1.0)


@pytest.mark.parametrize("rate", [1e-11, 1e-100])
def test_dist_info_tiny_rate(tmp_path, rate):
    # the tail quantile lies past 1e12: the inverse's bracket grows until it
    # overflows, so no fixed cap turns a valid law into a traceback
    horizons = {}
    for r in (rate, 1.0):
        cfg = _cfg(tmp_path, "c.json", {"command": "dist-info", "dist": {"family": "erlang", "shape": 2, "rate": r}})
        out = tmp_path / f"out{r}"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        horizons[r] = json.loads((out / "summary.json").read_text())["horizon_tail_1e-6"]
    assert horizons[rate] * rate == pytest.approx(horizons[1.0], rel=1e-13)


def _sheet_rows(x, t):
    return [[xi, ti, 1.0] for ti in t for xi in x]


@pytest.mark.parametrize("case", ["x-to-2", "x-squared", "t-from-half", "node-twice", "fourth-column", "q-third-column"])
def test_malformed_grid_csv_exit_2_no_outputs(tmp_path, capsys, case):
    # each file is not one row per node of a uniform grid from 0 (on [0, 1] in x),
    # so reading it as one would give wrong numbers or drop a column with exit 0
    s = np.linspace(0.0, 1.0, 9)
    if case == "q-third-column":
        header, rows = "t,value", [[2.0 * si, 0.0, 0.0] for si in s]
        key, payload = "q_csv", dict(BASE, command="rate", io={"q_csv": "in.csv"})
    else:
        header, rows = "x,t,value", {
            "x-to-2": _sheet_rows(2.0 * s, s),
            "x-squared": _sheet_rows(s**2, s),
            "t-from-half": _sheet_rows(s, 0.5 + 0.5 * s),
            "node-twice": _sheet_rows(s, s),
            "fourth-column": [r + [0.0] for r in _sheet_rows(s, s)],
        }[case]
        if case == "node-twice":
            rows[1] = rows[0]  # node (x_1, t_0) is missing and (x_0, t_0) has two rows
        key, payload = "sheet_csv", {"command": "kiefer-check", "io": {"sheet_csv": "in.csv"}}
    lines = [header] + [",".join(repr(float(v)) for v in r) for r in rows]
    (tmp_path / "in.csv").write_text("\r\n".join(lines) + "\r\n")
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: io.{key}" in capsys.readouterr().err


def test_malformed_json_exit_2_no_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["--config", str(bad), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_unknown_key_exit_2(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", extra_knob=1))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2


@pytest.mark.parametrize(
    "payload, unread",
    [
        (dict(BASE, command="oracle-check", io={"q_csv": "q.csv"}, kiefer={"m": 8}, sim=SIM_OK), "['kiefer', 'sim']"),
        (dict(BASE, command="rate", io={"q_csv": "q.csv"}, sim=SIM_OK), "['sim']"),
        ({"command": "kiefer-check", "io": {"q_csv": "q.csv"}}, "['io.q_csv']"),
        ({"command": "dist-info", "dist": BASE["dist"], "model": BASE["model"]}, "['model']"),
        (dict(BASE, command="simulate", sim=SIM_OK, grid={"horizon": 1.0, "n_steps": 10}), "['grid']"),
        (dict(BASE, command="identity-check", sim=SIM_OK, io={"sheet_csv": "b.csv"}), "['io.sheet_csv']"),
        (dict(BASE, command="identity-check", sim=dict(SIM_OK, event={"kind": "sup", "t": 1.0, "a": 0.5})),
         "['sim.event']"),
        (dict(BASE, command="simulate", sim=dict(SIM_OK, decomposition_steps=50)), "['sim.decomposition_steps']"),
        ({"command": "kiefer-check", "io": {"sheet_csv": "b.csv"}, "kiefer": {"value": 3.0}}, "['kiefer']"),
    ],
    ids=["oracle-check-kiefer-sim", "rate-sim", "kiefer-check-q_csv", "dist-info-model", "simulate-grid",
         "identity-check-sheet_csv", "identity-check-event", "simulate-decomposition_steps",
         "kiefer-check-sheet-and-kiefer"],
)
def test_unread_block_exit_2_no_outputs(tmp_path, capsys, payload, unread):
    # each command's row names the blocks it reads; any other block would be silently ignored
    _write_q(tmp_path / "q.csv")
    GridField2D(1.0, np.ones((3, 3))).to_csv(tmp_path / "b.csv")
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: command {payload['command']!r} does not read {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["rate"], {"a": 1}, None, 7], ids=["list", "object", "null", "number"])
def test_command_not_a_string_exit_2_no_outputs(tmp_path, capsys, command):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error: unknown command" in err and "Traceback" not in err


def test_unknown_command_exit_2(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="frobnicate"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2


def test_missing_q_csv_exit_2(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", io={"q_csv": "missing.csv"}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2


def test_mismatched_q0_exit_2(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", {
        "command": "rate",
        "model": {"sigma": 1.0, "beta": 0.5, "q0": 0.4},  # q.csv starts at 0
        "dist": {"family": "exponential", "rate": 1.0},
        "io": {"q_csv": "q.csv"},
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, sim",
    [
        ("identity-check", dict(SIM_OK, decomposition_steps=0)),
        ("simulate", dict(SIM_OK, arrival={"family": "erlang", "shape": "x"})),
        ("simulate", dict(SIM_OK, arrival={"shape": 0})),
        ("simulate", dict(SIM_OK, ladder=[1], b_rule={"kind": "log", "value": 1.0})),
        ("simulate", dict(SIM_OK, lln_t=1.5)),
        ("simulate", dict(SIM_OK, event={"kind": "sup", "t": 2.0, "a": 0.5})),
        ("simulate", dict(SIM_OK, b_rule={"kind": "power", "value": [0.25]})),
        # b_2 = ln(2) / 32: b^3 n^(1/b^2 - 1/2) overflows, and was written as Infinity
        ("simulate", dict(SIM_OK, ladder=[2], b_rule={"kind": "log", "value": 0.03125})),
    ],
    ids=["decomposition_steps-0", "arrival-shape-str", "arrival-shape-0", "log-rule-b1-zero",
         "lln_t-past-horizon", "event-t-past-horizon", "b-rule-value-list", "condition-value-overflow"],
)
def test_invalid_sim_block_exit_2_no_outputs(tmp_path, capsys, command, sim):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, sim=sim))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: sim" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "identity-check"])
@pytest.mark.parametrize("dist, sim, expected", [
    # n mu rho_n horizon, and beta = 0 gives rho_n = 1: a rate of 10^6 at n = 100 over 4 asks for 4e8,
    # and 100 servers at rate 1 over 10^5 expect the cap itself, a hair more is past it
    ({"family": "exponential", "rate": 1e6}, dict(SIM_OK, ladder=[1, 100], horizon=4.0), 4e8),
    ({"family": "exponential", "rate": 1.0}, dict(SIM_OK, ladder=[100], horizon=1e5), None),
    ({"family": "exponential", "rate": 1.0}, dict(SIM_OK, ladder=[100], horizon=1.0000001e5), 1e7),
], ids=["rate-1e6", "at-cap", "past-cap"])
def test_expected_arrivals_past_the_cap_exit_2_no_outputs(tmp_path, capsys, command, dist, sim, expected):
    # checked on the config alone, so that a broken check allocates nothing: the run is
    # started only once Run has rejected the config
    from mdqueue.cli import MAX_EXPECTED_ARRIVALS, ConfigError, Run

    payload = dict(BASE, command=command, dist=dist, model=dict(BASE["model"], beta=0.0), sim=sim)
    if expected is None:
        run = Run(payload, tmp_path, None)
        (sr,) = run.sim["regimes"]
        assert sr.arrival_rate(run.model.mu) * sim["horizon"] == MAX_EXPECTED_ARRIVALS
        return
    with pytest.raises(ConfigError, match="arrivals per replication") as info:
        Run(payload, tmp_path, None)
    assert f"expects {expected:.3g}" in str(info.value)
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: sim: rung n = " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "identity-check"])
@pytest.mark.parametrize("n", [10**7 + 1, 10**9])
def test_server_count_past_the_cap_exit_2_no_outputs(tmp_path, capsys, command, n):
    # n sizes a replication's server array and equilibrium draw: over a horizon of 1e-9 even
    # 10^9 servers expect about 1 arrival, within the arrival cap, and would ask for gigabytes.
    # Checked on the config alone, so that a broken check allocates nothing: the run is
    # started only once Run has rejected the config, and the cap itself is accepted by Run
    from mdqueue.cli import MAX_SERVERS, ConfigError, Run

    assert MAX_SERVERS == 10**7
    payload = dict(BASE, command=command, sim=dict(SIM_OK, ladder=[10, MAX_SERVERS], horizon=1e-9))
    assert [sr.n for sr in Run(payload, tmp_path, None).sim["regimes"]] == [10, MAX_SERVERS]
    payload = dict(payload, sim=dict(payload["sim"], ladder=[10, n]))
    with pytest.raises(ConfigError, match=f"sim.ladder: server count {n} is more than the 1e\\+07 supported"):
        Run(payload, tmp_path, None)
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: sim.ladder: server count" in capsys.readouterr().err


@pytest.mark.parametrize("command, grids", [("rate", 1), ("controls", 1), ("oracle-check", 1), ("identity-check", 2)])
def test_law_sampled_once_per_grid(tmp_path, monkeypatch, command, grids):
    # PathEquation.from_law is the one sampling of the law on a t grid, shared by every solver
    # of the command: one per command, and identity-check's two grids whatever its ladder and reps
    from collections import Counter

    from mdqueue import ServiceDist
    from mdqueue.grids import LagConv

    calls, of_law = Counter(), LagConv.of_law.__func__
    monkeypatch.setattr(LagConv, "of_law", classmethod(lambda cls, *a: calls.update(["of_law"]) or of_law(cls, *a)))
    # the t grids have 41, or 51 and 101 nodes; ppf's Newton steps and the sampler read at most 33 points
    sizes = {51, 101} if command == "identity-check" else {41}
    for name in ("cdf", "eq_cdf"):
        def counted(self, x, _law=getattr(ServiceDist, name), _name=name):
            calls[_name] += np.size(x) in sizes
            return _law(self, x)
        monkeypatch.setattr(ServiceDist, name, counted)
    _write_q(tmp_path / "q.csv", n=40)
    dist = {"family": "erlang", "shape": 3, "rate": 3.0}
    sim = dict(SIM_OK, ladder=[10, 20, 30], reps=2, decomposition_steps=50)
    payload = dict(BASE, command=command, dist=dist, **({"sim": sim} if command == "identity-check" else
                                                        {"io": {"q_csv": "q.csv"}}))
    assert main(["--config", str(_cfg(tmp_path, "c.json", payload)), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert calls == {"of_law": grids, "cdf": grids, "eq_cdf": grids}


@pytest.mark.parametrize(
    "payload",
    [
        dict(BASE, command="simulate", sim=dict(SIM_OK, reps=True)),
        dict(BASE, command="simulate", sim=dict(SIM_OK, ladder=[True])),
        dict(BASE, command="simulate", sim=SIM_OK, seed=True),
        dict(BASE, command="simulate", sim=dict(SIM_OK, ladder=[10, 10])),
        {"command": "kiefer-check", "kiefer": {"m": 2.7}},
    ],
    ids=["reps-bool", "ladder-bool", "seed-bool", "ladder-repeated-n", "kiefer-m-fraction"],
)
def test_invalid_integer_exit_2_no_outputs(tmp_path, capsys, payload):
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [2.7, True, "3"], ids=["fraction", "bool", "string"])
def test_erlang_shape_not_integer_exit_2_no_outputs(tmp_path, capsys, shape):
    dist = {"family": "erlang", "shape": shape, "rate": 2.0}
    cfg = _cfg(tmp_path, "c.json", {"command": "dist-info", "dist": dist})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: dist: shape must be an integer" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "payload",
    [
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, tolerances={"fredholm": INF}),
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, tolerances={"fredholm": -1}),
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, tolerances={"fredholm": 1e-12}),
        dict(BASE, command="simulate", sim=dict(SIM_OK, horizon=INF)),
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, dist={"family": "exponential", "rate": INF}),
        {"command": "dist-info", "dist": {"family": "exponential", "rate": NAN}},
        {"command": "dist-info", "dist": BASE["dist"], "grid": {"horizon": INF, "n_steps": 10}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": [NAN, 0.8], "rates": [0.4, 1.6]}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [0.4, NAN]}},
        {"command": "dist-info", "dist": {"family": "erlang", "shape": 2, "rate": 1e-308}},
        dict(BASE, command="simulate", sim=dict(SIM_OK, event={"kind": "sup", "t": 0.5, "a": NAN})),
        dict(BASE, command="rate", io={"q_csv": 5}),
        {"command": "dist-info", "dist": {"family": "exponential", "rate": "1"}},
        {"command": "dist-info", "dist": {"family": "exponential", "rate": True}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": ["0.2", "0.8"], "rates": [0.4, 1.6]}},
        {"command": "dist-info", "dist": {"family": "exponential", "rate": [1.0]}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [[0.4], [1.6]]}},
        {"command": "dist-info", "dist": {"family": "exponential", "rate": 10**400}},
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, model=dict(BASE["model"], sigma=1e155)),
        dict(BASE, command="oracle-check", io={"q_csv": "q.csv"}, model=dict(BASE["model"], sigma=1e155)),
    ],
    ids=["fredholm-tol-inf", "fredholm-tol-negative", "tolerances-block", "sim-horizon-inf", "rate-inf", "rate-nan", "grid-horizon-inf",
         "hyperexp-weight-nan", "hyperexp-rate-nan", "erlang-mean-inf", "event-a-nan", "q_csv-not-a-name",
         "rate-str", "rate-bool", "hyperexp-weights-str", "rate-list", "hyperexp-rates-nested", "rate-int-past-float",
         "rate-sigma-square-inf", "oracle-sigma-square-inf"],
)
def test_invalid_value_exit_2_no_outputs(tmp_path, capsys, payload):
    # json.loads reads NaN and +-Infinity; each is a config error, as are a
    # tolerances block (the solvers' stop rules are fixed), a law whose mean
    # overflows, a file name that is not a string, a law parameter that is
    # a string, a bool, a list where a number goes or an integer past the float
    # range, and a sigma whose square overflows
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rate", "oracle-check"])
def test_sigma_square_underflow_exit_0(tmp_path, command):
    # sigma^2 dt = 1e-322 is subnormal, and so is a: the oracle's preconditioner is,
    # to round-off, the diagonal one of the min kernel alone
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, io={"q_csv": "q.csv"},
                                        model=dict(BASE["model"], sigma=1e-160)))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["status"] == "ok"


def _csv_values(out):
    """Every number in the CSV artifacts of out."""
    return np.concatenate([np.loadtxt(f, delimiter=",", skiprows=1).ravel() for f in sorted(out.glob("*.csv"))])


@pytest.mark.parametrize("eps", [1e-155, 1e-160])
@pytest.mark.parametrize("command", ["rate", "controls"])
def test_tiny_forcing_exit_0_with_finite_artifacts(tmp_path, command, eps):
    # h ~ eps: the adjoint CG runs on h scaled by a power of two, so its inner
    # products (~eps^2) do not underflow to 0; the adjoint is eps times the adjoint
    # of eps = 1, and the rate, ~eps^2, is subnormal or 0
    model = {"sigma": 1.0, "beta": 0.0, "q0": 0.0}
    t = np.linspace(0.0, 2.0, 201)
    adjoints, rates = {}, {}
    for scale in (eps, 1.0):
        GridPath(2.0, scale * t * (2.0 - t)).to_csv(tmp_path / f"q{scale}.csv")
        cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, model=model, io={"q_csv": f"q{scale}.csv"}))
        out = tmp_path / f"out{scale}"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["status"] == "ok"
        assert np.all(np.isfinite(_csv_values(out)))
        adjoints[scale], rates[scale] = GridPath.from_csv(out / "pbar.csv").values, s["rate"]
    assert 0.0 <= rates[eps] <= 1e-300 < rates[1.0]
    assert np.allclose(adjoints[eps] / eps, adjoints[1.0], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("eps", [1e-312, 1e-320])
@pytest.mark.parametrize("command", ["rate", "controls", "oracle-check"])
def test_subnormal_path_exit_0_with_finite_artifacts(tmp_path, command, eps):
    # |h| is subnormal, so 1e-12 |h| underflows to 0: the adjoint CG's stop rule is scaled
    # with h, where a stop at 0 ran CG until r . r underflowed and was divided by
    t = np.linspace(0.0, 2.0, 201)
    GridPath(2.0, eps * t * (2.0 - t)).to_csv(tmp_path / "q.csv")
    model = {"sigma": 1.0, "beta": 0.0, "q0": 0.0}
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, model=model, io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "ok" and s.get("rate", s.get("fredholmValue")) == 0.0
    assert all(np.isfinite(v) for v in s.values() if isinstance(v, float))
    if command != "oracle-check":  # oracle.csv holds the summary's floats
        assert np.all(np.isfinite(_csv_values(out)))


@pytest.mark.parametrize("command, shape", [("dist-info", 140), ("dist-info", 170), ("controls", 500), ("rate", 140),
                                            ("dist-info", 500), ("dist-info", 501), ("controls", 501),
                                            ("dist-info", 1000), ("controls", 1000)])
def test_large_erlang_shape_no_traceback(tmp_path, command, shape):
    # y^(k-1) and (k-1)! overflowed in the density: dist-info wrote inf and the
    # tail horizon missed its 1e-6, and controls at k = 500 raised OverflowError.
    # Past shape 500 the cdf's Poisson sum loses e^{-y} to underflow: a config error
    dist = {"family": "erlang", "shape": shape, "rate": float(shape)}
    payload = {"command": "dist-info", "dist": dist}
    if command != "dist-info":
        _write_q(tmp_path / "q.csv")
        payload = dict(BASE, command=command, dist=dist, io={"q_csv": "q.csv"})
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
    if shape > 500:
        assert code == 2 and not out.exists()
        return
    if shape == 500:
        assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert (code, s["status"]) in ((0, "ok"), (1, "numerical-failure"))
    if code == 0:
        assert np.all(np.isfinite(_csv_values(out)))
    if command == "dist-info":
        from mdqueue import ServiceDist

        assert code == 0
        assert ServiceDist.from_spec(dist).cdf(s["horizon_tail_1e-6"]) >= 1.0 - 1e-6


def test_oracle_check_computes_the_defect_once(tmp_path, monkeypatch):
    # the forcing and the QP share the defect of the path
    from mdqueue import cli, fredholm, paths

    calls = []

    def counted(*args):
        calls.append(1)
        return paths.defect(*args)

    for module in (cli, fredholm):
        monkeypatch.setattr(module, "defect", counted)
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="oracle-check", io={"q_csv": "q.csv"}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("amplitude, beta, rate", [(1.0, 0.5, 0.11569), (0.01, 0.0, 5.1363e-6)])
def test_fredholm_tolerance_half_meets_its_residual(tmp_path, amplitude, beta, rate):
    # the adjoint CG stops at the fixed rule residual <= 1e-12 |h|_inf on both
    # paths; on the small hump |h|_inf = 0.006, so a rule relative to
    # max(1, |h|_inf) would stop about 170 times looser
    t = np.linspace(0.0, 2.0, 201)
    GridPath(2.0, amplitude * 0.3 * t * (2.0 - t)).to_csv(tmp_path / "q.csv")
    model = {"sigma": 1.0, "beta": beta, "q0": 0.0}
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", model=model, io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    s = json.loads((out / "summary.json").read_text())
    h = GridPath.from_csv(out / "h.csv").values
    assert s["status"] == "ok"
    assert s["solver"]["iterations"] >= 1
    assert s["solver"]["residual"] <= 1e-12 * np.max(np.abs(h))
    assert s["rate"] == pytest.approx(rate, rel=1e-4)


def test_value_error_in_command_exit_1_with_summary(tmp_path, monkeypatch):
    # a ValueError raised after the config checks is a numerical failure: the
    # files already written stay, and summary.json says what failed
    from mdqueue import cli

    def write_then_fail(run, out):
        (out / "dist.csv").write_text("t\n")
        raise ValueError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "dist-info", cli.COMMANDS["dist-info"]._replace(handler=write_then_fail))
    cfg = _cfg(tmp_path, "c.json", {"command": "dist-info", "dist": BASE["dist"]})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "numerical-failure"
    assert s["error"] == "ValueError: synthetic failure"
    assert (out / "dist.csv").is_file()


def test_numerical_failure_exit_1_with_summary(tmp_path, monkeypatch):
    from mdqueue import cli
    from mdqueue.fredholm import FredholmError

    def boom(*a, **k):
        raise FredholmError("synthetic failure")

    monkeypatch.setattr(cli, "evaluate_rate", boom)
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "numerical-failure"
    assert "FredholmError" in s["error"]


def test_oracle_pcg_cap_exit_1_with_summary(tmp_path, monkeypatch):
    monkeypatch.setattr("mdqueue.oracle._pcg_cap", lambda n: 1)
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="oracle-check", grid={"horizon": 2.0, "n_steps": 200, "n_x": 32}, io={"q_csv": "q.csv"},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "numerical-failure"
    assert s["error"].startswith("FredholmError: oracle PCG: relative residual")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_oracle_pcg_stops_at_once_on_nan(tmp_path):
    # at dt = 2.5, sigma^2 dt overflows the Gram while the adjoint still converges:
    # the oracle PCG meets a NaN residual in its first iterations and stops there,
    # where it used to run all 2N + 200 = 1000
    import re

    t = np.linspace(0.0, 1000.0, 401)
    GridPath(1000.0, 0.3 * np.sin(np.pi * t / 1000.0)).to_csv(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="oracle-check", model={"sigma": 1e154, "beta": 0.0, "q0": 0.0},
                                        grid={"horizon": 1000.0, "n_steps": 400, "n_x": 32}, io={"q_csv": "q.csv"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "numerical-failure"
    iters = re.fullmatch(r"FredholmError: oracle PCG: relative residual nan after (\d+) iterations", s["error"])
    assert iters and int(iters.group(1)) <= 5, s["error"]


def test_unsettled_start_times_exit_1_with_summary(tmp_path, monkeypatch):
    # no pass ever matches the one before it, so simulate runs the w + 1 passes
    # its first window of w customers allows and raises SimulationError
    monkeypatch.setattr(np, "array_equal", lambda a, b: False)
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="simulate", seed=9,
        sim={"ladder": [10], "b_rule": {"kind": "power", "value": 0.25}, "reps": 1, "horizon": 1.0},
    ))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    s = json.loads((out / "summary.json").read_text())
    assert s["status"] == "numerical-failure"
    assert s["error"].startswith("SimulationError: start times of customers 0..")


def test_seed_flag_overrides_config(tmp_path):
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="simulate", seed=1,
        sim={"ladder": [10], "b_rule": {"kind": "power", "value": 0.25}, "reps": 5, "horizon": 1.0},
    ))
    o1, o2, o3 = (tmp_path / d for d in ("o1", "o2", "o3"))
    assert main(["--config", str(cfg), "--out", str(o1), "--quiet"]) == 0
    assert main(["--config", str(cfg), "--out", str(o2), "--quiet", "--seed", "99"]) == 0
    assert main(["--config", str(cfg), "--out", str(o3), "--quiet", "--seed", "99"]) == 0
    t1 = (o1 / "trace_n10.csv").read_bytes()
    t2 = (o2 / "trace_n10.csv").read_bytes()
    t3 = (o3 / "trace_n10.csv").read_bytes()
    assert t2 != t1
    assert t2 == t3


def test_rerun_byte_identical(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", io={"q_csv": "q.csv"}))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(o1), "--quiet"]) == 0
    assert main(["--config", str(cfg), "--out", str(o2), "--quiet"]) == 0
    for f in ("summary.json", "pbar.csv", "h.csv", "kdot.csv"):
        assert (o1 / f).read_bytes() == (o2 / f).read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is for the tests only; importing the CLI must not pull it in
    src = str(Path(mdqueue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, mdqueue.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_oracle_check_loads_no_scipy(tmp_path):
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(
        BASE, command="oracle-check", grid={"horizon": 2.0, "n_steps": 200, "n_x": 32}, io={"q_csv": "q.csv"},
    ))
    src = str(Path(mdqueue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from mdqueue.cli import main; assert main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_NO_SCIPY = """
import json, sys
from importlib.abc import MetaPathFinder


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy refused: {name}")


sys.meta_path.insert(0, RefuseScipy())
from mdqueue.cli import main

out, configs = sys.argv[1], sys.argv[2:]
codes = {c: main(["--config", c, "--out", f"{out}/{i}", "--quiet"]) for i, c in enumerate(configs)}
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # one process, with every scipy import refused, runs all seven commands
    _write_q(tmp_path / "q.csv")
    sim = {"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25}, "reps": 2, "horizon": 1.0}
    payloads = {
        "rate": dict(BASE, command="rate", io={"q_csv": "q.csv"}),
        "controls": dict(BASE, command="controls", io={"q_csv": "q.csv"}),
        "oracle-check": dict(BASE, command="oracle-check", grid={"horizon": 2.0, "n_steps": 200, "n_x": 32},
                             io={"q_csv": "q.csv"}),
        "simulate": dict(BASE, command="simulate", seed=9, sim=sim),
        "identity-check": dict(BASE, command="identity-check", seed=2, sim=dict(sim, decomposition_steps=100)),
        "kiefer-check": {"command": "kiefer-check", "kiefer": {"m": 64, "n": 64}},
        "dist-info": {"command": "dist-info", "dist": {"family": "erlang", "shape": 2, "rate": 2.0}},
    }
    configs = [str(_cfg(tmp_path, f"{name}.json", payload)) for name, payload in payloads.items()]
    src = str(Path(mdqueue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path / "out"), *configs],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["codes"] == {c: 0 for c in configs}
    assert report["scipy"] == []
