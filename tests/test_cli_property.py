"""The CLI's contract over configs drawn from the README grammar: exit 0, 1 or
2 and never an exception; exit 2 creates no output directory; exit 1 writes a
summary.json with status numerical-failure; exit 0 writes no NaN or infinity in
any artifact.  About one law and one sigma in ten of the path commands and
dist-info, and one law in ten of the sim commands, are drawn at the edge of the
float range; a sim command's extreme law comes with a horizon at which a
replication expects at most 1e5 arrivals, or more than the supported cap.  A
sim command's sigma is sqrt(mu / k), Erlang(k) interarrival gaps, nine times in
ten.  An input CSV drawn with a defect, a grid block that is not the grid of
q.csv, a tolerances block, a block the command does not read, an optional sim
key it does not read, a sim command's sigma that gives no integer gap shape
mu / sigma^2 in [1, 500] and a kiefer block next to a sheet are always exit 2; a
grid block that is the grid of q.csv changes no exit code."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqueue import ModelParams, ServiceDist
from mdqueue.cli import MAX_EXPECTED_ARRIVALS, main
from mdqueue.sim import ScalingRegime


def one_in(n: int, rare, common):
    """`rare` about one time in n, else `common`.  sampled_from draws its index near
    uniformly; an integer drawn to pick the branch is 0 far more often than one time in n."""
    return st.sampled_from([False] * (n - 1) + [True]).flatmap(lambda r: rare if r else common)


# what JSON can put in a number field that is no number
NOT_NUMBERS = st.sampled_from(["1", "", None, True, False, [1.0], [], {}])
# one number in ten is NaN, +-Infinity, 0 or -1 and one in twenty of the rest is
# no number, so that whole configs are often valid
NUMBERS = one_in(10, st.sampled_from([math.nan, math.inf, -math.inf, 0, -1]),
                 one_in(20, NOT_NUMBERS, st.floats(1e-3, 4.0)))
SIGNED = st.tuples(st.sampled_from([1, -1]), NUMBERS).map(lambda s: s[0] * s[1] if type(s[1]) in (int, float) else s[1])


def integers(lo: int, hi: int):
    """An integer in [lo, hi], or one time in twenty no number."""
    return one_in(20, NOT_NUMBERS, st.integers(lo, hi))


DISTS = st.one_of(
    st.fixed_dictionaries({"family": st.just("exponential"), "rate": NUMBERS}),
    st.fixed_dictionaries({"family": st.just("erlang"), "shape": integers(0, 4), "rate": NUMBERS}),
    st.builds(
        lambda w, rates: {"family": "hyperexponential", "rates": rates,
                          "weights": [w / 4, 1.0 - w / 4] if type(w) in (int, float) else [w, 0.8]},
        NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2),
    ),
)
# laws at the edge of the float range: rates log-uniform on [1e-6, 1e6] and Erlang shapes
# up to 1000, past the supported 500
RATES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
EXTREME_DISTS = st.one_of(
    st.fixed_dictionaries({"family": st.just("exponential"), "rate": RATES}),
    st.fixed_dictionaries({"family": st.just("erlang"), "shape": st.integers(1, 1000), "rate": RATES}),
    st.builds(lambda w, rates: {"family": "hyperexponential", "rates": rates, "weights": [w, 1.0 - w]},
              st.floats(0.01, 0.99), st.lists(RATES, min_size=2, max_size=2)),
)
PATH_DISTS = one_in(10, EXTREME_DISTS, DISTS)
# about one sim config in ten takes an extreme law and the arrivals its largest rung expects
# per replication, log-uniform on [1, 1e5], where the run stays fast, or past the cap
ARRIVALS = st.one_of(st.floats(0.0, 5.0), st.floats(math.log10(MAX_EXPECTED_ARRIVALS) + 0.01, 12.0))
SIM_EXTREMES = one_in(10, st.tuples(EXTREME_DISTS, ARRIVALS.map(lambda e: 10.0**e)), st.none())
# sigma log-uniform up to 1e160, past the 1.3e154 where sigma^2 overflows
SIGMAS = one_in(10, st.floats(-3.0, 160.0).map(lambda e: 10.0**e), NUMBERS)
# a sim command's gap shape mu / sigma^2: an integer k in {1, 2, 3} nine times in ten, else one that
# is no integer in [1, 500] (1 / 0.7, 501 or 0.4), or a sigma that is no positive number
SIM_SIGMAS = one_in(10, st.one_of(st.sampled_from([1 / 0.7, 501.0, 0.4]).map(lambda r: ("off", r)),
                                  st.sampled_from([math.nan, 0, -1, "1", None]).map(lambda v: ("sigma", v))),
                    st.integers(1, 3).map(lambda k: ("k", k)))
SIM_MODELS = st.fixed_dictionaries({"sigma": SIM_SIGMAS, "beta": SIGNED, "q0": SIGNED})
PATH_MODELS = st.fixed_dictionaries({"sigma": SIGMAS, "beta": SIGNED, "q0": SIGNED})
GRIDS = st.fixed_dictionaries({"horizon": NUMBERS, "n_steps": integers(2, 64)}, optional={"n_x": integers(1, 16)})
# the grid block of a config with a q.csv, or None (one time in three): the grid of
# q.csv (half the time), or that grid with its horizon scaled by 1 + rel or its
# n_steps moved by a nonzero step; and its n_x or None
Q_GRIDS = st.integers(0, 2).flatmap(lambda k: st.none() if k == 0 else st.tuples(
    st.sampled_from(["match", "match", "horizon", "n_steps"]), st.floats(1e-8, 1.0),
    st.sampled_from([-2, -1, 1, 7]), st.one_of(st.none(), integers(1, 16))))
# a tolerances block about one time in ten, else None: no key of it is read, since the solvers' stop rules are fixed
TOLERANCES = one_in(10, st.fixed_dictionaries({}, optional={"fredholm": NUMBERS, "renewal": NUMBERS}), st.none())
SIMS = st.fixed_dictionaries(
    {
        "ladder": st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True),
        "b_rule": st.fixed_dictionaries({"kind": st.sampled_from(["power", "log"]), "value": NUMBERS}),
        "reps": integers(1, 3),
        "horizon": NUMBERS,
    },
    optional={
        "event": st.fixed_dictionaries({"kind": st.sampled_from(["sup", "terminal"]), "t": NUMBERS, "a": SIGNED}),
        "lln_t": NUMBERS,
        "decomposition_steps": integers(1, 50),
    },
)
KIEFER = st.fixed_dictionaries(
    {"m": integers(2, 64), "n": integers(2, 64)}, optional={"t_horizon": NUMBERS, "value": NUMBERS})
# the blocks and io files each command reads (README, "Config grammar"), and a
# valid instance of each; any other block is exit 2
READS = {
    "rate": {"model", "dist", "grid", "io.q_csv"},
    "controls": {"model", "dist", "grid", "io.q_csv"},
    "oracle-check": {"model", "dist", "grid", "io.q_csv"},
    "simulate": {"model", "dist", "sim"},
    "identity-check": {"model", "dist", "sim"},
    "kiefer-check": {"kiefer", "io.sheet_csv"},
    "dist-info": {"dist", "grid"},
}
BLOCKS = {
    "model": {"sigma": 1.0, "beta": 0.5, "q0": 0.0},
    "dist": {"family": "exponential", "rate": 1.0},
    "grid": {"horizon": 2.0, "n_steps": 8},
    "sim": {"ladder": [10], "b_rule": {"kind": "power", "value": 0.25}, "reps": 1, "horizon": 1.0},
    "kiefer": {"m": 4, "n": 4},
    "io.q_csv": "q.csv",
    "io.sheet_csv": "sheet.csv",
}
# the optional sim key that each sim command does not read, drawn in SIMS for both
SIM_UNREAD = {"simulate": "sim.decomposition_steps", "identity-check": "sim.event"}
# about one time in ten, the index of a block the command does not read among those blocks
UNREAD = one_in(10, st.integers(0, len(BLOCKS)), st.none())
# a defect of an input CSV, or None; "x-end" puts the sheet's x grid on [0, 2]
DEFECTS = ["ragged", "non-uniform", "single-row"]
# the q.csv of a rate, controls or oracle-check config: its horizon, steps and
# amplitude, whether q(0) is the model's q0, and its defect (None half the time)
Q_PATHS = st.tuples(st.floats(1e-3, 4.0), st.integers(2, 64), st.floats(-1.0, 1.0), st.booleans(),
                    st.sampled_from([None, None, None, *DEFECTS]))
# the sheet.csv of a kiefer-check config: its x and t steps and its defect
SHEETS = st.tuples(st.integers(2, 16), st.integers(2, 16), st.sampled_from([None, *DEFECTS, "x-end"]))

PATH_CONFIGS = st.fixed_dictionaries({"command": st.sampled_from(["rate", "controls", "oracle-check"]), "q": Q_PATHS,
                                      "model": PATH_MODELS, "dist": PATH_DISTS, "q_grid": Q_GRIDS,
                                      "tolerances": TOLERANCES, "unread": UNREAD})
CONFIGS = st.one_of(
    PATH_CONFIGS,
    st.fixed_dictionaries({"command": st.just("dist-info"), "unread": UNREAD},
                          optional={"dist": PATH_DISTS, "grid": GRIDS}),
    st.fixed_dictionaries({"command": st.just("kiefer-check"), "unread": UNREAD},
                          optional={"kiefer": KIEFER, "sheet": SHEETS}),
    st.fixed_dictionaries({"command": st.sampled_from(["simulate", "identity-check"]), "sim": SIMS, "model": SIM_MODELS,
                           "dist": DISTS, "extreme": SIM_EXTREMES, "unread": UNREAD},
                          optional={"seed": integers(0, 2**32)}),
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
    q0 = model.get("q0", 0.0) if starts_at_q0 and model else 0.0
    if type(q0) not in (int, float) or not math.isfinite(q0):
        q0 = 0.0
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


def _run(tmp: Path, cfg: dict, name: str, err: io.StringIO | None = None) -> int:
    (tmp / f"{name}.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stderr(err or io.StringIO()):
        return main(["--config", str(tmp / f"{name}.json"), "--out", str(tmp / name), "--quiet"])


def _write_sheet(path: Path, sheet) -> None:
    m, n, defect = sheet
    s = np.linspace(0.0, 1.0, m + 1)
    x = {"non-uniform": s**2, "x-end": 2.0 * s}.get(defect, s)
    _write_rows(path, "x,t,value", [[xi, ti, xi * ti] for ti in np.linspace(0.0, 1.0, n + 1) for xi in x], defect)


def _non_finite(out: Path) -> list:
    """The artifacts under out that hold a NaN or an infinity: a CSV field that parses as
    a float, or a number in a JSON file."""
    def numbers(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            return [v for item in x for v in numbers(item)]
        return [x] if isinstance(x, float) else []

    found = []
    for f in sorted(out.rglob("*")):
        if f.suffix == ".json":
            values = numbers(json.loads(f.read_text()))
        elif f.suffix == ".csv":
            values = []
            for field in f.read_text().replace("\r\n", "\n").replace("\n", ",").split(","):
                with contextlib.suppress(ValueError):
                    values.append(float(field))
        else:
            continue
        if not all(map(math.isfinite, values)):
            found.append(f.name)
    return found


def _expect_arrivals(cfg: dict, arrivals: float) -> None:
    """Scale sim.horizon, and sim.lln_t and sim.event.t with it, so that the largest rung
    expects `arrivals` arrivals per replication, n mu rho_n horizon; a config whose law,
    rungs or horizon give no such count stays as drawn."""
    s = cfg["sim"]
    try:
        pm = ModelParams(ServiceDist.from_spec(cfg["dist"]), 1.0, float(cfg["model"]["beta"]), 0.0)
        rule = (s["b_rule"]["kind"], float(s["b_rule"]["value"]))
        rate = max(ScalingRegime(n, rule).arrival_rate(pm) for n in s["ladder"])
        scale = arrivals / rate / s["horizon"]
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        return
    if not (math.isfinite(scale) and scale > 0):
        return
    s["horizon"] *= scale
    for block, key in ((s, "lln_t"), (s.get("event", {}), "t")):
        if type(block.get(key)) in (int, float):
            block[key] *= scale


def _sim_sigma(cfg: dict) -> bool:
    """Set the drawn sigma of a sim command's model: sqrt(mu / k), mu the drawn law's (1 when it
    is no law), or the drawn value.  Returns whether it gives no integer gap shape in [1, 500]."""
    kind, v = cfg["model"]["sigma"]
    try:
        mu = ServiceDist.from_spec(cfg["dist"]).mu
    except (ValueError, KeyError, TypeError, OverflowError):
        mu = 1.0
    cfg["model"]["sigma"] = v if kind == "sigma" else math.sqrt(mu / v)
    return kind != "k"


def _check_contract(cfg: dict) -> None:
    extreme = cfg.pop("extreme", None)
    if extreme is not None:
        cfg["dist"] = extreme[0]
        _expect_arrivals(cfg, extreme[1])
    sigma_off = _sim_sigma(cfg) if "sim" in cfg else False
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
        # a key the command does not read besides the drawn block: a kiefer block next to the sheet replacing it
        stray = "kiefer" if "sheet" in cfg and "kiefer" in cfg else None
        if "sim" in cfg and SIM_UNREAD[cfg["command"]][4:] in cfg["sim"]:
            stray = SIM_UNREAD[cfg["command"]]
        if "sheet" in cfg:
            defect = cfg["sheet"][-1]
            _write_sheet(tmp / "sheet.csv", cfg.pop("sheet"))
            cfg["io"] = {"sheet_csv": "sheet.csv"}
        unread = cfg.pop("unread")
        if unread is not None:
            choices = sorted(set(BLOCKS) - READS[cfg["command"]])
            unread = choices[unread % len(choices)]
            if unread.startswith("io."):
                cfg.setdefault("io", {})[unread[3:]] = BLOCKS[unread]
            else:
                cfg[unread] = BLOCKS[unread]
        err = io.StringIO()
        code = _run(tmp, cfg, "out", err)
        must_fail = (defect is not None or grid_matches is False or "tolerances" in cfg or unread is not None
                     or stray is not None or sigma_off)
        assert code in ((2,) if must_fail else (0, 1, 2))
        for key in {unread, stray} - {None}:
            assert f"command {cfg['command']!r} does not read" in err.getvalue() and f"'{key}'" in err.getvalue()
        if code == 2:
            assert not (tmp / "out").exists()
        else:
            status = json.loads((tmp / "out" / "summary.json").read_text())["status"]
            assert status == ("ok" if code == 0 else "numerical-failure")
            if code == 0:
                assert _non_finite(tmp / "out") == []
        n_x = cfg["grid"].get("n_x", 2) if grid_matches else None
        if grid_matches and type(n_x) is int and n_x >= 2:
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
