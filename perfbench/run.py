"""mdqueue benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/mdqueue`, not an
installed copy).  Workloads, gates and layer metrics are described in
perfbench/README.md.

--trace 0: time SETUP_REPEATS fresh processes that import mdqueue and write
the workload's inputs (setup_s, their median), then one fresh process that runs
untraced passes over the workload's commands for at least --seconds and at
least two passes (job_s, the median pass; peak_rss_mb, that process's high
water mark).
--trace 1: one fresh process alternating untraced and traced passes; prints
the per-layer metrics and keeps the spans in .perfbench/.

Every process runs with BLAS and OpenMP pinned to THREADS threads, one at a
time.  The line before the result carries the sample lists, gate ratios and
the versions of Python, numpy, scipy and BLAS.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(args: list, env: dict, deadline: float) -> tuple[float, str]:
    """Run perfbench/worker.py to completion; return (wall seconds, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return wall, proc.stdout


def _tail_percentile(samples: list):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = int(100 * (1 - 10 / n))
    return {"p": p, "value": statistics.quantiles(samples, n=100, method="inclusive")[p - 1]}


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "mdqueue" / "__init__.py").is_file():
        raise BenchError(f"no mdqueue sources under {ROOT / 'src'}; run from a source checkout")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: str(THREADS) for v in THREAD_VARS})
    deadline = time.perf_counter() + DEADLINE_S
    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    info = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(), "threads": THREADS}
    try:
        setup_s = []
        if not args.trace:
            for i in range(SETUP_REPEATS):
                wall, _ = _worker(["setup", *common, "--work", str(work / f"setup{i}")], env, deadline)
                setup_s.append(wall)
        spans = base / f"spans-{args.workload}-s{args.seed}.json"
        _, out = _worker(["measure", *common, "--work", str(work / "measure"), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--spans", str(spans)], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])

    info.update(versions=report["versions"], job_s_samples=report["untraced_s"],
                job_s_tail=_tail_percentile(report["untraced_s"]), traced_s_samples=report["traced_s"],
                setup_s_samples=setup_s, accuracy_ratio=report["accuracy_ratio"],
                gate_ratios=report["gate_ratios"], notes=report["notes"], pass_cpu_s_samples=report["cpu_s"])
    if args.trace:
        info["spans"] = str(spans.relative_to(ROOT))
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "job_s": {"value": statistics.median(report["untraced_s"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mdqueue benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
