"""The CLI's contract over configs drawn from the README grammar: exit 0, 1 or
2 and never an exception; exit 2 creates no output directory; exit 1 writes a
summary.json with status numerical-failure.  An input CSV drawn with a defect,
a grid block that is not the grid of q.csv, a tolerances block and a block the
command does not read are always exit 2; a grid block that is the grid of
q.csv changes no exit code."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqueue.cli import main


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
MODELS = st.fixed_dictionaries({"sigma": NUMBERS, "beta": SIGNED, "q0": SIGNED})
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
        "arrival": st.fixed_dictionaries({"family": st.sampled_from(["exponential", "erlang"])},
                                         optional={"shape": integers(1, 3)}),
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
                                      "model": MODELS, "dist": DISTS, "q_grid": Q_GRIDS, "tolerances": TOLERANCES,
                                      "unread": UNREAD})
CONFIGS = st.one_of(
    PATH_CONFIGS,
    st.fixed_dictionaries({"command": st.just("dist-info"), "unread": UNREAD}, optional={"dist": DISTS, "grid": GRIDS}),
    st.fixed_dictionaries({"command": st.just("kiefer-check"), "unread": UNREAD},
                          optional={"kiefer": KIEFER, "sheet": SHEETS}),
    st.fixed_dictionaries({"command": st.sampled_from(["simulate", "identity-check"]), "sim": SIMS, "model": MODELS,
                           "dist": DISTS, "unread": UNREAD}, optional={"seed": integers(0, 2**32)}),
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
        must_fail = defect is not None or grid_matches is False or "tolerances" in cfg or unread is not None
        assert code in ((2,) if must_fail else (0, 1, 2))
        if unread is not None:
            assert f"command {cfg['command']!r} does not read" in err.getvalue() and f"'{unread}'" in err.getvalue()
        if code == 2:
            assert not (tmp / "out").exists()
        else:
            status = json.loads((tmp / "out" / "summary.json").read_text())["status"]
            assert status == ("ok" if code == 0 else "numerical-failure")
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
