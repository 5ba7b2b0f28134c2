"""Batch command-line front end: JSON config in, JSON summary + CSV artifacts out.

Exit codes: 0 success, 1 numerical failure (a solver residual or check), 2
config error.  Config errors are detected before any artifact is written;
numerical failures still produce a summary.json describing the failure.
Each solver has one fixed stop rule, and the path in io.q_csv sets the t grid.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dist import ServiceDist
from .fredholm import FredholmError, evaluate_rate, forcing, rate_value, solve_p
from .grids import GridField2D, GridPath, write_csv
from .oracle import build_qp, solve_min_norm
from .paths import ModelParams, PathEquation, defect, energy, forward_q, kiefer_energy, kiefer_from_sheet
from .renewal import RenewalConvergenceError
from .sim import (LLN_PERCENTILE, ScalingRegime, SimulationError, decomposition, flow_balance_residuals, gap_shape,
                  lln_check, lln_sup_stat, mc_tail, replications, tail_hit)

log = logging.getLogger(__name__)

# Errors inside a command exit 1 with a summary.json; a ValueError there is an input the config checks let through.
NUMERICAL_ERRORS = (FredholmError, RenewalConvergenceError, SimulationError, FloatingPointError, ValueError)
SIM_OPTIONAL = ("event", "lln_t", "decomposition_steps")  # named sim.<key> in COMMANDS
MAX_EXPECTED_ARRIVALS = 1e7  # n mu rho_n horizon per replication; 1e6 took 0.7 s and 153 MB peak on 2-core x86
MAX_SERVERS = 10**7  # n per rung, which sizes its server array; 1e7 at horizon 1e-9 took 0.2 s and 197 MB peak


class ConfigError(Exception):
    """Anything wrong with the config file or referenced inputs."""


def _version_string() -> str:
    return f"mdqueue-v{__version__}"


def _expect(block: dict, where: str, required: tuple = (), optional: tuple = ()) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    return block


def _number(block: dict, key: str, where: str, default=None):
    """A finite number: bool, NaN, +-Infinity and integers beyond the float range are rejected."""
    v = block.get(key, default)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    return v


def _positive(block: dict, key: str, where: str, default=None) -> float:
    v = float(_number(block, key, where, default))
    if not v > 0:
        raise ConfigError(f"{where}.{key} must be positive, got {v!r}")
    return v


def _integer(block: dict, key: str, where: str, default, minimum: int) -> int:
    """An integer-valued number >= minimum; bool is rejected like any non-number."""
    v = _number(block, key, where, default)
    if not float(v).is_integer() or v < minimum:
        raise ConfigError(f"{where}.{key}: expected an integer >= {minimum}, got {v!r}")
    return int(v)


def _load_csv(io: dict, key: str, cfg_dir: Path, cls):
    """cls.from_csv of the file io[key] names, relative to the config; None when absent."""
    if key not in io:
        return None
    if not isinstance(io[key], str):
        raise ConfigError(f"io.{key}: expected a file name, got {io[key]!r}")
    p = (cfg_dir / io[key]).resolve()
    if not p.is_file():
        raise ConfigError(f"io.{key}: file not found: {p}")
    try:
        return cls.from_csv(p)
    except ValueError as exc:
        raise ConfigError(f"io.{key}: {exc}") from exc


def _table_csv(path: Path, header: str, columns: list) -> None:
    """A small CSV from whole columns, with a comma between each two."""
    pieces = [","] * (2 * len(columns) - 1)
    pieces[::2] = columns
    write_csv(path, header, pieces)


def _sim_settings(s: dict, pm: ModelParams) -> dict:
    """The validated sim block, its ladder as `ScalingRegime`s, each within both caps at the model's beta.
    The model's sigma sets the interarrival gaps, Erlang(mu / sigma^2), so it must give an integer shape."""
    _expect(s, "sim", required=("ladder", "b_rule", "reps", "horizon"), optional=SIM_OPTIONAL)
    ladder = s["ladder"]
    if not (isinstance(ladder, list) and ladder):
        raise ConfigError("sim.ladder: expected a nonempty list of positive integers")
    ladder = [_integer(dict(enumerate(ladder)), i, "sim.ladder", None, 1) for i in range(len(ladder))]
    if len(set(ladder)) != len(ladder):
        # rungs are keyed by n, so a repeated n would silently replace a rung
        raise ConfigError(f"sim.ladder: repeated server counts in {ladder}")
    if max(ladder) > MAX_SERVERS:
        raise ConfigError(f"sim.ladder: server count {max(ladder)} is more than the {MAX_SERVERS:.0e} supported")
    rule = _expect(s["b_rule"], "sim.b_rule", required=("kind", "value"))
    reps = _integer(s, "reps", "sim", None, 1)
    horizon = _positive(s, "horizon", "sim")
    lln_t = float(_number(s, "lln_t", "sim", horizon))
    if not 0 <= lln_t <= horizon:
        raise ConfigError(f"sim.lln_t = {lln_t!r} must lie in [0, sim.horizon]")
    event = None
    if "event" in s:
        e = _expect(s["event"], "sim.event", required=("kind", "t", "a"))
        if e["kind"] not in ("sup", "terminal"):
            raise ConfigError("sim.event.kind must be 'sup' or 'terminal'")
        event = {"kind": e["kind"], "t": float(_number(e, "t", "sim.event")), "a": float(_number(e, "a", "sim.event"))}
        if not 0 <= event["t"] <= horizon:
            raise ConfigError(f"sim.event.t = {event['t']!r} must lie in [0, sim.horizon]")
    try:
        value = float(_number(rule, "value", "sim.b_rule"))
        regimes = [ScalingRegime(n=n, rule=(rule["kind"], value)) for n in ladder]
    except ValueError as exc:
        raise ConfigError(f"sim.b_rule: {exc}") from exc
    try:  # rho_n = 1 - beta b_n / sqrt(n) rests on the model's beta as much as on the b rule
        expected_arrivals = [sr.arrival_rate(pm) * horizon for sr in regimes]
    except ValueError as exc:
        raise ConfigError(f"model.beta = {pm.beta!r} with sim.b_rule: {exc}") from exc
    for sr, expected in zip(regimes, expected_arrivals):
        if not expected <= MAX_EXPECTED_ARRIVALS:  # NaN fails too
            raise ConfigError(f"sim: rung n = {sr.n} expects {expected:.3g} arrivals per replication"
                              f" (n mu rho_n horizon), more than the {MAX_EXPECTED_ARRIVALS:.0e} supported")
    try:
        gap_shape(pm)
    except ValueError as exc:
        raise ConfigError(f"model.sigma = {pm.sigma!r} with mu = {pm.mu!r}: {exc}") from exc
    return {
        "regimes": regimes,
        "reps": reps,
        "horizon": horizon,
        "event": event,
        "lln_t": lln_t,
        "decomposition_steps": _integer(s, "decomposition_steps", "sim", 200, 1),
    }


class Run:
    """Validated config plus loaded inputs; all ConfigError checks happen here.  The command's
    row in COMMANDS is checked first, so each block parsed after it has the blocks its command needs."""

    def __init__(self, cfg: dict, cfg_dir: Path, seed_override: int | None):
        if not isinstance(cfg, dict):
            raise ConfigError("config: expected an object")
        self.command = cfg.get("command")
        # a list or an object is no key of the table, and not hashable either
        if not isinstance(self.command, str) or self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {tuple(COMMANDS)}")
        row = COMMANDS[self.command]
        io = cfg.get("io", {})
        if not isinstance(io, dict):
            raise ConfigError("io: expected an object")
        given = ({k for k in cfg if k not in ("command", "seed", "io")} | {f"io.{k}" for k in io}
                 | {f"sim.{k}" for k in SIM_OPTIONAL if isinstance(cfg.get("sim"), dict) and k in cfg["sim"]})
        takes = [k for k in row.takes if k in given][:1] if row.exclusive else row.takes
        unread, missing = given - set(row.needs) - set(takes), set(row.needs) - given
        if unread:
            raise ConfigError(f"command {self.command!r} does not read {sorted(unread)}; it needs"
                              f" {list(row.needs)} and may take {'one of ' * row.exclusive}{list(row.takes)}")
        if missing:
            raise ConfigError(f"command {self.command!r} requires {sorted(missing)}")

        self.seed = _integer(cfg if seed_override is None else {"seed": seed_override}, "seed", "config", 0, 0)

        try:
            self.dist = ServiceDist.from_spec(cfg["dist"]) if "dist" in cfg else None
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"dist: {exc}") from exc

        self.model = None
        if "model" in cfg:  # every command that reads model needs dist: the model carries the law
            m = _expect(cfg["model"], "model", required=("sigma", "beta", "q0"))
            try:
                self.model = ModelParams(
                    law=self.dist,
                    sigma=float(_number(m, "sigma", "model")),
                    beta=float(_number(m, "beta", "model")),
                    q0=float(_number(m, "q0", "model")),
                )
            except ValueError as exc:
                raise ConfigError(f"model: {exc}") from exc

        self.q_path = q = _load_csv(io, "q_csv", cfg_dir, GridPath)
        self.sheet = _load_csv(io, "sheet_csv", cfg_dir, GridField2D)
        if q is not None and not abs(q.values[0] - self.model.q0) <= 1e-9:
            raise ConfigError(f"q(0) = {q.values[0]} does not match q0 = {self.model.q0}")

        self.grid, g = None, {}
        if "grid" in cfg:
            g = _expect(cfg["grid"], "grid", required=("horizon", "n_steps"), optional=("n_x",))
            self.grid = {"horizon": _positive(g, "horizon", "grid"), "n_steps": _integer(g, "n_steps", "grid", None, 2)}
            # the path sets the t grid: a grid block may only repeat it
            if q is not None and (abs(self.grid["horizon"] / q.horizon - 1) > 1e-9 or self.grid["n_steps"] != q.n_steps):
                raise ConfigError(f"grid {self.grid} does not match io.q_csv: horizon {q.horizon}, n_steps {q.n_steps}")
        self.n_x = _integer(g, "n_x", "grid", 32, 2)

        # every command that reads sim needs model
        self.sim = _sim_settings(cfg["sim"], self.model) if "sim" in cfg else None

        k = _expect(cfg.get("kiefer", {}), "kiefer", optional=("m", "n", "t_horizon", "value"))
        self.kiefer = {
            "m": _integer(k, "m", "kiefer", 512, 2),
            "n": _integer(k, "n", "kiefer", 512, 2),
            "t_horizon": _positive(k, "t_horizon", "kiefer", 1.0),
            "value": float(_number(k, "value", "kiefer", 1.0)),
        }


# -- command implementations ----------------------------------------------


def _rate_artifacts(run: Run, out: Path) -> tuple:
    q = run.q_path
    eq = PathEquation.from_law(run.model, q.horizon, q.n_steps)  # the command's one sampling of the law
    res = evaluate_rate(q, eq, n_x=run.n_x)
    res.adjoint.to_csv(out / "pbar.csv")
    res.forcing.to_csv(out / "h.csv")
    res.controls.w0dot.to_csv(out / "w0dot.csv")
    res.controls.wdot.to_csv(out / "wdot.csv")
    res.controls.kdot.to_csv(out / "kdot.csv")
    summary = {
        "rate": res.rate,
        "dual": res.dual,
        "duality_gap": res.duality_gap,
        "primal_energy": res.primal_energy,
        "x_quadrature_error": energy(res.controls) - res.rate,
        "horizon": q.horizon,
        "n_steps": q.n_steps,
        "truncation_tail_mass": res.diagnostics["truncation_tail_mass"],
        "solver": {k: res.diagnostics[k] for k in ("method", "iterations", "residual")},
    }
    return summary, res, eq


def cmd_rate(run: Run, out: Path) -> dict:
    return _rate_artifacts(run, out)[0]


def cmd_controls(run: Run, out: Path) -> dict:
    summary, res, eq = _rate_artifacts(run, out)
    q_rt = forward_q(res.controls, eq)
    q_rt.to_csv(out / "q_roundtrip.csv")
    scale = max(1.0, float(np.max(np.abs(run.q_path.values))))
    summary["roundtrip_sup_error"] = float(np.max(np.abs(q_rt.values - run.q_path.values)))
    summary["roundtrip_rel_error"] = summary["roundtrip_sup_error"] / scale
    return summary


def cmd_oracle_check(run: Run, out: Path) -> dict:
    q = run.q_path
    eq = PathEquation.from_law(run.model, q.horizon, q.n_steps)
    r = defect(q, eq)  # the constraint right side, and the forcing's antiderivative
    h = forcing(q, r)  # the adjoint route only as far as the rate
    p, _ = solve_p(h, eq, q)
    rate = rate_value(p, h)
    qp = build_qp(eq, r)
    val_off, diag_off = solve_min_norm(qp)
    val_on, diag_on = solve_min_norm(qp, zero_mean=True)
    summary = {
        "value": val_off,
        "flagsOn": val_on,
        "flagsOff": val_off,
        "flagsOnRoute": diag_on["route"],
        "flagsOffRoute": diag_off["route"],
        "flagsOnIterations": diag_on["iterations"],
        "flagsOffIterations": diag_off["iterations"],
        "flagsOnResidual": diag_on["residual"],
        "flagsOffResidual": diag_off["residual"],
        "fredholmValue": rate,
        "relGap": abs(val_off - rate) / max(rate, 1e-12),
        "N": q.n_steps,
    }
    floats = {k: v for k, v in summary.items() if isinstance(v, float)}
    _table_csv(out / "oracle.csv", "quantity,value", [list(floats), list(floats.values())])
    return summary


def _replications(run: Run):
    s = run.sim
    return replications(run.model, s["regimes"], s["reps"], run.seed, s["horizon"])


def cmd_simulate(run: Run, out: Path) -> dict:
    s = run.sim
    # each replication is reduced to its two diagnostics as it is simulated: one trace is alive at a time
    sup_stats, hits = {}, {}
    for sr, rep, tr in _replications(run):
        if rep == 0:
            tr.to_csv(out / f"trace_n{sr.n}.csv")
        sup_stats.setdefault(sr.n, []).append(lln_sup_stat(tr, run.model.mu, s["lln_t"]))
        if s["event"] is not None:
            hits.setdefault(sr, []).append(tail_hit(tr, s["event"]))
        del tr  # before _replications simulates the next one

    pct, decreasing = lln_check(sup_stats)

    ladder = [{"n": sr.n, "b": sr.b, "rho": sr.rho(run.model.beta), "condition_value": sr.condition_value,
               "lln_percentile": pct[sr.n]} for sr in s["regimes"]]
    summary = {
        "reps": s["reps"],
        "horizon": s["horizon"],
        "lln_t": s["lln_t"],
        "lln_percentile_level": LLN_PERCENTILE,
        "lln_monotone_decreasing": decreasing,
        "ladder": ladder,
    }
    if s["event"] is not None:
        summary["tail"] = mc_tail(hits)
        summary["tail_note"] = (
            "trend diagnostic only: moderate-deviations probabilities at realistic "
            "(n, a) are far below Monte Carlo resolution, so no estimate here is "
            "compared against the rate function"
        )

    keys = ("n", "b", "rho", "condition_value", "lln_percentile")
    _table_csv(out / "ladder.csv", ",".join(keys), [[row[k] for row in ladder] for k in keys])
    return summary


def cmd_identity_check(run: Run, out: Path) -> dict:
    s = run.sim
    steps = s["decomposition_steps"]
    # every trace is checked on these two grids, the second one refined
    eqs = [PathEquation.from_law(run.model, s["horizon"], m) for m in (steps, 2 * steps)]
    keys = ("n", "rep", "flow_balance_max", "residual_sup", "residual_sup_refined", "quadrature_bound")
    rows = []
    for sr, rep, tr in _replications(run):
        fb = flow_balance_residuals(tr)
        dec, dec2 = (decomposition(tr, eq) for eq in eqs)
        rows.append(dict(zip(keys, (sr.n, rep, int(np.max(np.abs(fb))) if len(fb) else 0, dec.sup_residual,
                                    dec2.sup_residual, dec.quadrature_bound))))
    _table_csv(out / "identity.csv", ",".join(keys), [[r[k] for r in rows] for k in keys])
    summary = {
        "traces": len(rows),
        "decomposition_steps": steps,
        "flow_balance_max": max(r["flow_balance_max"] for r in rows),
        "residual_sup_max": max(r["residual_sup"] for r in rows),
        "all_within_bound": all(
            r["residual_sup"] <= 1e-8 + r["quadrature_bound"] for r in rows
        ),
        "ladder": [
            {"n": sr.n, "b": sr.b, "condition_value": sr.condition_value} for sr in s["regimes"]
        ],
    }
    return summary


def cmd_kiefer_check(run: Run, out: Path) -> dict:
    k = run.kiefer
    b = run.sheet if run.sheet is not None else GridField2D(k["t_horizon"], np.full((k["m"] + 1, k["n"] + 1), k["value"]))
    kfield = kiefer_from_sheet(b)
    e_k, e_b = kiefer_energy(b)
    kfield.to_csv(out / "kiefer.csv")
    ix = kfield.values.shape[0] // 2
    summary = {
        "sheet_shape": list(b.values.shape),
        "t_horizon": b.t_horizon,
        "energy_kdot": e_k,
        "energy_bdot": e_b,
        "energy_rel_gap": abs(e_k - e_b) / max(e_b, 1e-300),
        "k_half_T": float(kfield.values[ix, -1]),
    }
    return summary


def cmd_dist_info(run: Run, out: Path) -> dict:
    d = run.dist
    T = run.grid["horizon"] if run.grid else d.horizon_for_tail(1e-6)
    n = run.grid["n_steps"] if run.grid else 200
    t = np.linspace(0.0, T, n + 1)
    _table_csv(out / "dist.csv", "t,cdf,pdf,eq_cdf,eq_pdf", [t, d.cdf(t), d.pdf(t), d.eq_cdf(t), d.eq_pdf(t)])
    return {
        "family": d.family,
        "mean": d.mean,
        "mu": d.mu,
        "horizon_tail_1e-6": d.horizon_for_tail(1e-6),
        "table_horizon": T,
    }


class Command(NamedTuple):
    """A command's handler, the blocks, io files and optional sim keys it needs, and those it
    may take besides, of which it reads only the first given when `exclusive`.  Anything
    else is a config error; seed is allowed for every command."""

    handler: Callable[[Run, Path], dict]
    needs: tuple = ()
    takes: tuple = ()
    exclusive: bool = False


# grid.n_x is read only by rate and controls and sim.lln_t only by simulate, but grid.n_x is
# accepted wherever grid is and sim.lln_t by identity-check too: the benchmark's
# crosscheck-n400 and sim-ladder configs pass them to oracle-check and identity-check
COMMANDS = {
    "rate": Command(cmd_rate, ("model", "dist", "io.q_csv"), ("grid",)),
    "controls": Command(cmd_controls, ("model", "dist", "io.q_csv"), ("grid",)),
    "oracle-check": Command(cmd_oracle_check, ("model", "dist", "io.q_csv"), ("grid",)),
    "simulate": Command(cmd_simulate, ("model", "dist", "sim"), ("sim.event", "sim.lln_t")),
    "identity-check": Command(cmd_identity_check, ("model", "dist", "sim"), ("sim.decomposition_steps", "sim.lln_t")),
    # a sheet in io.sheet_csv replaces the constant sheet of the kiefer block
    "kiefer-check": Command(cmd_kiefer_check, (), ("io.sheet_csv", "kiefer"), exclusive=True),
    "dist-info": Command(cmd_dist_info, ("dist",), ("grid",)),
}


def _write_summary(out: Path, summary: dict, quiet: bool) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / "summary.json").write_text(text)
    if not quiet:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mdqueue", description=__doc__)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary on stdout")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO, format="%(message)s")

    cfg_path = Path(args.config)
    try:
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            cfg = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {cfg_path}: {exc}") from exc
        run = Run(cfg, cfg_path.parent, args.seed)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        if not (out.is_dir()):
            raise ConfigError(f"output path is not a directory: {out}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    base = {"command": run.command, "version": _version_string(), "seed": run.seed}
    try:
        summary = COMMANDS[run.command].handler(run, out)
    except NUMERICAL_ERRORS as exc:
        _write_summary(out, dict(base, status="numerical-failure", error=f"{type(exc).__name__}: {exc}"), args.quiet)
        return 1
    _write_summary(out, dict(base, status="ok", **summary), args.quiet)
    return 0


if __name__ == "__main__":
    sys.exit(main())
