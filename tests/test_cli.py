import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdqueue
from mdqueue import GridPath
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
    for key in ("value", "flagsOn", "flagsOff", "fredholmValue", "relGap", "N", "M"):
        assert key in s
    assert (s["flagsOffRoute"], s["flagsOnRoute"]) == ("pcg", "pcg")
    assert all(isinstance(s[k], int) and 0 < s[k] <= 40 for k in ("flagsOffIterations", "flagsOnIterations"))
    assert s["flagsOn"] >= s["flagsOff"]
    assert s["relGap"] <= 0.02 or abs(s["value"] - s["fredholmValue"]) / (1 + s["fredholmValue"]) <= 0.02


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


SIM_OK = {"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25}, "reps": 2, "horizon": 1.0}


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
    ],
    ids=["decomposition_steps-0", "arrival-shape-str", "arrival-shape-0", "log-rule-b1-zero",
         "lln_t-past-horizon", "event-t-past-horizon", "b-rule-value-list"],
)
def test_invalid_sim_block_exit_2_no_outputs(tmp_path, capsys, command, sim):
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command=command, sim=sim))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: sim" in capsys.readouterr().err


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
        dict(BASE, command="simulate", sim=dict(SIM_OK, horizon=INF)),
        dict(BASE, command="rate", io={"q_csv": "q.csv"}, dist={"family": "exponential", "rate": INF}),
        {"command": "dist-info", "dist": {"family": "exponential", "rate": NAN}},
        {"command": "dist-info", "dist": BASE["dist"], "grid": {"horizon": INF, "n_steps": 10}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": [NAN, 0.8], "rates": [0.4, 1.6]}},
        {"command": "dist-info", "dist": {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [0.4, NAN]}},
        dict(BASE, command="simulate", sim=dict(SIM_OK, event={"kind": "sup", "t": 0.5, "a": NAN})),
        dict(BASE, command="rate", io={"q_csv": 5}),
    ],
    ids=["fredholm-tol-inf", "fredholm-tol-negative", "sim-horizon-inf", "rate-inf", "rate-nan", "grid-horizon-inf",
         "hyperexp-weight-nan", "hyperexp-rate-nan", "event-a-nan", "q_csv-not-a-name"],
)
def test_invalid_value_exit_2_no_outputs(tmp_path, capsys, payload):
    # json.loads reads NaN and +-Infinity; each is a config error, as are a
    # tolerance <= 0 and a file name that is not a string
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [1, 100])
def test_fredholm_tolerance_at_least_one_exit_2_no_outputs(tmp_path, capsys, tol):
    # the adjoint solve stops at tol * |h|, where p = 0 already stops it at tol >= 1:
    # on the hump path that was an exit 0 with rate 0.0, and now it is a config error
    _write_q(tmp_path / "q.csv")
    cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", io={"q_csv": "q.csv"}, tolerances={"fredholm": tol}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: tolerances.fredholm must be below 1" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude, beta, rate", [(1.0, 0.5, 0.11569), (0.01, 0.0, 5.1363e-6)])
def test_fredholm_tolerance_half_meets_its_residual(tmp_path, amplitude, beta, rate):
    # a loose tolerance below 1 takes at least one CG step and stops at a residual
    # of at most tol * |h|: on the hump path one step and a rate 2.4% low; a stop at
    # tol * max(1, |h|) took no step on the small hump, where |h| = 0.006, and gave rate 0
    t = np.linspace(0.0, 2.0, 201)
    GridPath(2.0, amplitude * 0.3 * t * (2.0 - t)).to_csv(tmp_path / "q.csv")
    model = {"sigma": 1.0, "beta": beta, "q0": 0.0}
    rates = {}
    for tol in (0.5, 1e-12):
        cfg = _cfg(tmp_path, "c.json", dict(BASE, command="rate", model=model, io={"q_csv": "q.csv"},
                                            tolerances={"fredholm": tol}))
        out = tmp_path / f"out{tol}"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        s = json.loads((out / "summary.json").read_text())
        h = GridPath.from_csv(out / "h.csv").values
        assert s["status"] == "ok"
        assert s["solver"]["iterations"] >= 1
        assert s["solver"]["residual"] <= tol * np.max(np.abs(h))
        rates[tol] = s["rate"]
    assert rates[1e-12] == pytest.approx(rate, rel=1e-4)
    assert 0.9 * rates[1e-12] < rates[0.5] < rates[1e-12]


def test_value_error_in_command_exit_1_with_summary(tmp_path, monkeypatch):
    # a ValueError raised after the config checks is a numerical failure: the
    # files already written stay, and summary.json says what failed
    from mdqueue import cli

    def write_then_fail(run, out):
        (out / "dist.csv").write_text("t\n")
        raise ValueError("synthetic failure")

    monkeypatch.setitem(cli.DISPATCH, "dist-info", write_then_fail)
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
from mdqueue import ModelParams, ServiceDist, min_rate_terminal
from mdqueue.cli import main

out, configs = sys.argv[1], sys.argv[2:]
codes = {c: main(["--config", c, "--out", f"{out}/{i}", "--quiet"]) for i, c in enumerate(configs)}
value = min_rate_terminal(0.5, 2.0, ModelParams(1.0, 1.0, 0.5, 0.0), ServiceDist.exponential(1.0), 2.0, 100).value
print(json.dumps({"codes": codes, "value": value, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # one process, with every scipy import refused, runs all seven commands and min_rate_terminal
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
    assert report["value"] > 0.0
    assert report["scipy"] == []
