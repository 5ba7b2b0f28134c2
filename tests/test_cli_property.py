"""The CLI's contract over configs drawn from the README grammar: exit 0, 1 or
2 and never an exception; exit 2 creates no output directory; exit 1 writes a
summary.json with status numerical-failure.  An input CSV drawn with a defect,
a grid block that is not the grid of q.csv, and a tolerances block are always
exit 2; a grid block that is the grid of q.csv changes no exit code."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqueue.cli import main

# one number in ten is NaN, +-Infinity, 0 or -1, so that whole configs are often valid
NUMBERS = st.integers(0, 9).flatmap(
    lambda k: st.sampled_from([math.nan, math.inf, -math.inf, 0, -1]) if k == 0 else st.floats(1e-3, 4.0))
SIGNED = st.tuples(st.sampled_from([1, -1]), NUMBERS).map(lambda s: s[0] * s[1])

DISTS = st.one_of(
    st.fixed_dictionaries({"family": st.just("exponential"), "rate": NUMBERS}),
    st.fixed_dictionaries({"family": st.just("erlang"), "shape": st.integers(0, 4), "rate": NUMBERS}),
    st.builds(
        lambda w, rates: {"family": "hyperexponential", "weights": [w / 4, 1.0 - w / 4], "rates": rates},
        NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2),
    ),
)
MODELS = st.fixed_dictionaries({"sigma": NUMBERS, "beta": SIGNED, "q0": SIGNED})
GRIDS = st.fixed_dictionaries({"horizon": NUMBERS, "n_steps": st.integers(2, 64)}, optional={"n_x": st.integers(1, 16)})
# the grid block of a config with a q.csv, or None (one time in three): the grid of
# q.csv (half the time), or that grid with its horizon scaled by 1 + rel or its
# n_steps moved by a nonzero step; and its n_x or None
Q_GRIDS = st.integers(0, 2).flatmap(lambda k: st.none() if k == 0 else st.tuples(
    st.sampled_from(["match", "match", "horizon", "n_steps"]), st.floats(1e-8, 1.0),
    st.sampled_from([-2, -1, 1, 7]), st.one_of(st.none(), st.integers(1, 16))))
# a tolerances block about one time in ten, else None: no key of it is read, since the solvers' stop rules are fixed
TOLERANCES = st.integers(0, 9).flatmap(
    lambda k: st.fixed_dictionaries({}, optional={"fredholm": NUMBERS, "renewal": NUMBERS}) if k == 0 else st.none())
SIMS = st.fixed_dictionaries(
    {
        "ladder": st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True),
        "b_rule": st.fixed_dictionaries({"kind": st.sampled_from(["power", "log"]), "value": NUMBERS}),
        "reps": st.integers(1, 3),
        "horizon": NUMBERS,
    },
    optional={
        "arrival": st.fixed_dictionaries({"family": st.sampled_from(["exponential", "erlang"])},
                                         optional={"shape": st.integers(1, 3)}),
        "event": st.fixed_dictionaries({"kind": st.sampled_from(["sup", "terminal"]), "t": NUMBERS, "a": SIGNED}),
        "lln_t": NUMBERS,
    },
)
KIEFER = st.fixed_dictionaries(
    {"m": st.integers(2, 64), "n": st.integers(2, 64)}, optional={"t_horizon": NUMBERS, "value": NUMBERS})
# a defect of an input CSV, or None; "x-end" puts the sheet's x grid on [0, 2]
DEFECTS = ["ragged", "non-uniform", "single-row"]
# the q.csv of a rate, controls or oracle-check config: its horizon, steps and
# amplitude, whether q(0) is the model's q0, and its defect (None half the time)
Q_PATHS = st.tuples(st.floats(1e-3, 4.0), st.integers(2, 64), st.floats(-1.0, 1.0), st.booleans(),
                    st.sampled_from([None, None, None, *DEFECTS]))
# the sheet.csv of a kiefer-check config: its x and t steps and its defect
SHEETS = st.tuples(st.integers(2, 16), st.integers(2, 16), st.sampled_from([None, *DEFECTS, "x-end"]))

PATH_CONFIGS = st.fixed_dictionaries({"command": st.sampled_from(["rate", "controls", "oracle-check"]), "q": Q_PATHS,
                                      "model": MODELS, "dist": DISTS, "q_grid": Q_GRIDS, "tolerances": TOLERANCES})
CONFIGS = st.one_of(
    PATH_CONFIGS,
    st.fixed_dictionaries({"command": st.just("dist-info")}, optional={"dist": DISTS, "grid": GRIDS}),
    st.fixed_dictionaries({"command": st.just("kiefer-check")}, optional={"kiefer": KIEFER, "sheet": SHEETS}),
    st.fixed_dictionaries({"command": st.just("simulate"), "sim": SIMS, "model": MODELS, "dist": DISTS},
                          optional={"seed": st.integers(0, 2**32)}),
)


def _write_rows(path: Path, header: str, rows: list, defect) -> None:
    """The grid file of `rows`, with its last row cut short if defect is "ragged" and
    only its first row if "single-row"."""
    if defect == "ragged":
        rows[-1] = rows[-1][:-1]
    elif defect == "single-row":
        rows = rows[:1]
    lines = [header] + [",".join(repr(float(v)) for v in r) for r in rows]
    path.write_text("\r\n".join(lines) + "\r\n")


def _write_q(path: Path, q, model) -> None:
    horizon, n_steps, amplitude, starts_at_q0, defect = q
    q0 = model.get("q0", 0.0) if starts_at_q0 and model and math.isfinite(model.get("q0", 0.0)) else 0.0
    t = np.linspace(0.0, horizon, n_steps + 1)
    if defect == "non-uniform":
        t = t**2 / horizon
    _write_rows(path, "t,value", [[ti, q0 + amplitude * ti * (horizon - ti)] for ti in t], defect)


def _q_grid(q, q_grid) -> tuple[dict, bool]:
    """The grid block drawn for the q.csv of `q`, and whether it is that file's grid."""
    horizon, n_steps = q[:2]
    kind, rel, step, n_x = q_grid
    grid = {"horizon": horizon * (1.0 + rel) if kind == "horizon" else horizon,
            "n_steps": n_steps + step if kind == "n_steps" else n_steps}
    if n_x is not None:
        grid["n_x"] = n_x
    return grid, kind == "match"


def _run(tmp: Path, cfg: dict, name: str) -> int:
    (tmp / f"{name}.json").write_text(json.dumps(cfg))
    return main(["--config", str(tmp / f"{name}.json"), "--out", str(tmp / name), "--quiet"])


def _write_sheet(path: Path, sheet) -> None:
    m, n, defect = sheet
    s = np.linspace(0.0, 1.0, m + 1)
    x = {"non-uniform": s**2, "x-end": 2.0 * s}.get(defect, s)
    _write_rows(path, "x,t,value", [[xi, ti, xi * ti] for ti in np.linspace(0.0, 1.0, n + 1) for xi in x], defect)


def _check_contract(cfg: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        defect, grid_matches = None, None
        if "q" in cfg:
            q = cfg.pop("q")
            defect = q[-1]
            _write_q(tmp / "q.csv", q, cfg.get("model"))
            cfg["io"] = {"q_csv": "q.csv"}
            q_grid = cfg.pop("q_grid")
            if q_grid is not None:
                cfg["grid"], grid_matches = _q_grid(q, q_grid)
            if cfg["tolerances"] is None:
                del cfg["tolerances"]
        if "sheet" in cfg:
            defect = cfg["sheet"][-1]
            _write_sheet(tmp / "sheet.csv", cfg.pop("sheet"))
            cfg["io"] = {"sheet_csv": "sheet.csv"}
        code = _run(tmp, cfg, "out")
        must_fail = defect is not None or grid_matches is False or "tolerances" in cfg
        assert code in ((2,) if must_fail else (0, 1, 2))
        if code == 2:
            assert not (tmp / "out").exists()
        else:
            status = json.loads((tmp / "out" / "summary.json").read_text())["status"]
            assert status == ("ok" if code == 0 else "numerical-failure")
        if grid_matches and cfg["grid"].get("n_x", 2) >= 2:
            # the q grid named again is no error: the code is the one without the grid block
            del cfg["grid"]
            assert _run(tmp, cfg, "out-no-grid") == code


@settings(max_examples=100, deadline=None)
@given(cfg=CONFIGS)
def test_cli_contract(cfg):
    _check_contract(cfg)


@settings(max_examples=200, deadline=None)
@given(cfg=PATH_CONFIGS)
def test_path_commands_contract(cfg):
    # rate, controls and oracle-check alone, so that their valid configs are drawn often
    _check_contract(cfg)


@settings(max_examples=25, deadline=None)
@given(n_x=st.integers(2, 2048))
def test_rate_independent_of_drawn_n_x(n_x):
    # the rate, the dual and the gap live on the t grid; n_x sets only the x grid of the control CSVs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = {"sigma": 1.0, "beta": 0.5, "q0": 0.0}
        _write_q(tmp / "q.csv", (2.0, 20, 0.3, True, None), model)
        summaries = []
        for name, m in (("ref", 32), ("drawn", n_x)):
            cfg = {"command": "rate", "model": model, "dist": {"family": "exponential", "rate": 1.0},
                   "grid": {"horizon": 2.0, "n_steps": 20, "n_x": m}, "io": {"q_csv": "q.csv"}}
            assert _run(tmp, cfg, name) == 0
            summaries.append(json.loads((tmp / name / "summary.json").read_text()))
        for key in ("rate", "dual", "primal_energy", "duality_gap"):
            assert summaries[1][key] == summaries[0][key], key
