"""One fresh benchmark process; run.py starts it with the thread counts pinned.

    python3 perfbench/worker.py setup   --workload W --seed N --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1 --spans FILE

`setup` imports mdqueue and writes the workload's inputs, nothing more; run.py
times it.  `measure` writes the inputs, then runs passes over the workload's
command list through `mdqueue.cli.main` until at least two passes are done and
`--seconds` have passed.  Each pass writes into its own output directory, and
every pass after the first must reproduce the first byte for byte.  With
`--trace 1` the passes alternate untraced and traced, so the tracing overhead
is measured in the same process.  The last stdout line is a JSON report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path set-up above)
import scipy  # noqa: E402

import workloads  # noqa: E402
from mdqueue import cli  # noqa: E402
from tracer import SPANNED, Tracer  # noqa: E402

MIN_PASSES = 2


def _digests(out: Path) -> dict:
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}


def _versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas}


def _layer_metrics(tracer: Tracer, traced_s: list, untraced_s: list, accuracy: float) -> dict:
    """Per-pass layer figures from the traced passes."""
    n = len(traced_s)
    totals = tracer.layer_totals()
    counts = tracer.counts

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return totals.get(name, {}).get("calls", counts[name + ".calls"]) / n

    m = {}
    for name in SPANNED:
        m[name + ".self_s"] = self_s(name)
    for name in ("fredholm.shift_matrix", "paths.energy", "renewal.solve_nonlinear", "grids.conv_trap",
                 "dist.eq_ppf", "dist.ppf", "sim.simulate", "sim.decomposition"):
        m[name + ".calls"] = calls(name)
    solves = counts["fredholm.solve_p.solves"]
    m["fredholm.solve_p.iterations"] = counts["fredholm.solve_p.iterations"] / n
    m["fredholm.solve_p.direct_ratio"] = counts["fredholm.solve_p.direct"] / solves if solves else 0.0
    m["oracle.A_bytes"] = counts["oracle.A_bytes"]
    m["dist.sample_equilibrium.draws"] = counts["dist.sample_equilibrium.draws"] / n
    m["sim.events"] = counts["sim.events"] / n
    sim_self = self_s("sim.simulate")
    m["sim.events_per_s"] = m["sim.events"] / sim_self if sim_self > 0 else 0.0
    m["cli.bytes_written"] = counts["cli.bytes_written"] / n
    m["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    m["check.accuracy_ratio"] = accuracy
    return {name: {"value": value, "unit": _unit(name)} for name, value in m.items()}


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(("_bytes", "bytes_written")):
        return "bytes"
    return "count"


def measure(args) -> dict:
    work = Path(args.work)
    cmds = workloads.generate(args.workload, args.seed, work / "inputs")
    tracer = Tracer() if args.trace else None
    reference = {}  # command name -> digests of its first-pass outputs
    untraced_s, traced_s, cpu_s = [], [], []
    attempted = failed = 0
    ratios, notes = {}, []

    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < args.seconds:
        out = work / f"pass{k}"
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        codes = []
        t0, c0 = time.perf_counter(), time.process_time()
        for cmd in cmds:
            if traced:
                tracer.command = f"pass{k}/{cmd.name}"
            try:
                codes.append(cli.main(cmd.argv(out)))
            except Exception as exc:  # a traceback out of main is a failed command
                codes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        cpu_s.append(time.process_time() - c0)
        if traced:
            tracer.uninstall()
        (traced_s if traced else untraced_s).append(elapsed)

        for cmd, code in zip(cmds, codes):
            attempted += 1
            gate = workloads.check(cmd, out / cmd.name, code)
            for name, r in gate.ratios.items():
                ratios[name] = max(ratios.get(name, 0.0), r)
            digests = _digests(out / cmd.name)
            if k == 0:
                reference[cmd.name] = digests
            elif digests != reference[cmd.name]:
                gate.ok = False
                gate.notes.append(f"{cmd.name}: pass {k} output differs from pass 0")
            failed += not gate.ok
            notes += gate.notes
        if k > 0:
            shutil.rmtree(out)
        k += 1

    accuracy = max(ratios.values(), default=0.0)
    report = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "cpu_s": cpu_s,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "accuracy_ratio": accuracy,
        "gate_ratios": ratios,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.write(Path(args.spans))
        report["layers"] = _layer_metrics(tracer, traced_s, untraced_s, accuracy)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.role == "setup":
        workloads.generate(args.workload, args.seed, Path(args.work))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
