"""Seeded inputs, command lists and output gates of the three benchmark workloads.

`generate(name, seed, root)` writes a workload's configs and q CSVs under
`root` and returns its command list; the program sees only those files.
`check(cmd, out_dir, exit_code)` reads one command's outputs and returns its
gate results.  Imports numpy, scipy and mdqueue, so callers pin the thread
counts first.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from mdqueue import GridPath

HORIZON = 2.0
N_X = 32

EXP = {"family": "exponential", "rate": 1.0}
ERLANG3 = {"family": "erlang", "shape": 3, "rate": 3.0}
HYPEREXP = {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [0.4, 1.6]}

# Spline templates: the knot values at t = 0.5, 1, 1.5, 2 are drawn uniformly
# within KNOT_JITTER of these, and q(0) = q0 exactly.  The "hump" template
# follows 0.3 t (2 - t); the "rising" one climbs from a deficit into excess.
KNOT_T = (0.5, 1.0, 1.5, 2.0)
TEMPLATES = {
    "hump": {"beta": 0.5, "q0": 0.0, "knots": (0.225, 0.3, 0.225, 0.0)},
    "rising": {"beta": 0.0, "q0": -0.5, "knots": (-0.3, -0.1, 0.1, 0.3)},
}
KNOT_JITTER = 0.05

WORKLOADS = ("adjoint-n1600", "crosscheck-n400", "sim-ladder")

# Gate tolerances; accuracy_ratio is the worst error / tolerance over them.
ROUNDTRIP_TOL = 0.03
DUALITY_TOL = 1e-6
ORACLE_TOL = 0.02


@dataclass
class Command:
    """One CLI invocation: `mdqueue --config <config> --out <out>/<name> --quiet [args]`."""

    name: str
    config: Path
    kind: str
    args: list = field(default_factory=list)

    def argv(self, out_root: Path) -> list:
        return ["--config", str(self.config), "--out", str(out_root / self.name), "--quiet", *self.args]


def spline_path(rng: np.random.Generator, template: str, n_steps: int) -> GridPath:
    spec = TEMPLATES[template]
    knots = np.asarray(spec["knots"]) + rng.uniform(-KNOT_JITTER, KNOT_JITTER, size=len(KNOT_T))
    spline = CubicSpline((0.0, *KNOT_T), (spec["q0"], *knots))
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    values = spline(t)
    values[0] = spec["q0"]
    return GridPath(HORIZON, values)


def _write_config(root: Path, name: str, cfg: dict) -> Path:
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _adjoint(rng, root: Path) -> list:
    n_steps = 1600
    spline_path(rng, "hump", n_steps).to_csv(root / "q_hump.csv")
    model = {"sigma": 1.0, "beta": TEMPLATES["hump"]["beta"], "q0": TEMPLATES["hump"]["q0"]}
    cmds = []
    for law, dist in (("exp", EXP), ("erlang3", ERLANG3), ("hyperexp", HYPEREXP)):
        cfg = {"command": "controls", "model": model, "dist": dist,
               "grid": {"horizon": HORIZON, "n_steps": n_steps, "n_x": N_X},
               "io": {"q_csv": "q_hump.csv"}}
        cmds.append(Command(f"controls-{law}", _write_config(root, f"controls-{law}", cfg), "controls"))
    return cmds


def _crosscheck(rng, root: Path) -> list:
    n_steps = 400
    for template in ("hump", "rising"):
        spline_path(rng, template, n_steps).to_csv(root / f"q_{template}.csv")
    cmds = []
    for template in ("hump", "rising"):
        spec = TEMPLATES[template]
        for sigma in (1.0, 3.0):
            for law, dist in (("exp", EXP), ("erlang3", ERLANG3)):
                name = f"oracle-{template}-s{sigma:g}-{law}"
                cfg = {"command": "oracle-check",
                       "model": {"sigma": sigma, "beta": spec["beta"], "q0": spec["q0"]},
                       "dist": dist, "grid": {"horizon": HORIZON, "n_steps": n_steps, "n_x": N_X},
                       "io": {"q_csv": f"q_{template}.csv"}}
                cmds.append(Command(name, _write_config(root, name, cfg), "oracle-check"))
    return cmds


def _sim(seed: int, root: Path) -> list:
    base = {"model": {"sigma": 1.0, "beta": 0.5, "q0": 0.0}}
    ladder = [1_000, 10_000, 100_000]
    short = [1_000, 4_000]

    def sim_block(ladder_n, reps=1, **extra):
        return dict({"ladder": ladder_n, "b_rule": {"kind": "power", "value": 0.25},
                     "reps": reps, "horizon": 1.0, "lln_t": 1.0}, **extra)

    # simulate takes three replications per rung: with one, the LLN percentile
    # of n = 10^4 is above that of 10^3 for about one seed in fifteen, which
    # fails the lln_monotone_decreasing gate.
    specs = [
        ("simulate-exp", "simulate", EXP,
         sim_block(ladder, reps=3, event={"kind": "sup", "t": 1.0, "a": 0.5})),
        ("identity-exp", "identity-check", EXP, sim_block(ladder)),
        ("identity-erlang3", "identity-check", ERLANG3, sim_block(short)),
        ("identity-hyperexp", "identity-check", HYPEREXP, sim_block(short)),
    ]
    cmds = []
    for name, command, dist, sim in specs:
        cfg = dict(base, command=command, dist=dist, sim=sim)
        cmds.append(Command(name, _write_config(root, name, cfg), command, ["--seed", str(seed)]))
    return cmds


def generate(name: str, seed: int, root: Path) -> list:
    """Write the workload's inputs for `seed` under `root`; return its commands."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "adjoint-n1600":
        return _adjoint(rng, root)
    if name == "crosscheck-n400":
        return _crosscheck(rng, root)
    if name == "sim-ladder":
        return _sim(seed, root)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


@dataclass
class GateResult:
    ok: bool
    ratios: dict  # gate name -> error / tolerance, for gates with a numeric error
    notes: list


def check(cmd: Command, out: Path, exit_code: int | str) -> GateResult:
    """Gates on one command's outputs.  Failure means a non-zero exit (or the
    text of an exception that escaped `main`), a status other than "ok", or a
    failed gate."""
    summary_path = out / "summary.json"
    if exit_code != 0 or not summary_path.is_file():
        return GateResult(False, {}, [f"{cmd.name}: exit {exit_code}"])
    s = json.loads(summary_path.read_text())
    if s.get("status") != "ok":
        return GateResult(False, {}, [f"{cmd.name}: status {s.get('status')!r}: {s.get('error')}"])

    ratios = {}
    flags = {}
    if cmd.kind == "controls":
        ratios["roundtrip_rel_error"] = s["roundtrip_rel_error"] / ROUNDTRIP_TOL
        ratios["duality"] = abs(s["rate"] - s["dual"]) / (1.0 + s["rate"]) / DUALITY_TOL
    elif cmd.kind == "oracle-check":
        ratios["oracle_gap"] = abs(s["value"] - s["fredholmValue"]) / (1.0 + s["fredholmValue"]) / ORACLE_TOL
    elif cmd.kind == "simulate":
        flags["lln_monotone_decreasing"] = s["lln_monotone_decreasing"] is True
    elif cmd.kind == "identity-check":
        flags["flow_balance_max == 0"] = s["flow_balance_max"] == 0
        flags["all_within_bound"] = s["all_within_bound"] is True
        # the same test, row by row, as a ratio: residual / (1e-8 + bound)
        worst = 0.0
        for line in (out / "identity.csv").read_text().splitlines()[1:]:
            _, _, _, resid, _, bound = line.split(",")
            worst = max(worst, float(resid) / (1e-8 + float(bound)))
        ratios["decomposition_residual"] = worst

    notes = [f"{cmd.name}: {gate} failed" for gate, ok in flags.items() if not ok]
    notes += [f"{cmd.name}: {gate} ratio {r:.3g} > 1" for gate, r in ratios.items() if not r <= 1.0]
    return GateResult(not notes, ratios, notes)
