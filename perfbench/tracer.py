"""Span tracer that wraps mdqueue's public functions from outside the package.

`Tracer.install()` replaces each listed function in every `mdqueue.*` module
namespace that binds it, so internal calls (`evaluate_rate -> assemble_kernel`,
`forward_q -> solve_nonlinear`) are caught too, and replaces the listed
`ServiceDist` methods on the class.  `uninstall()` puts the originals back.

A span is `[name, start, end, parent, command]`; spans stay in memory until
`write()`.  Self time is a span's duration minus its direct children's, which
cover disjoint intervals because the program is single-threaded.
`ServiceDist.cdf`, `pdf` and `eq_cdf` are deliberately not wrapped: they run
about fifty times per equilibrium draw.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _count_solve(counts, args, kwargs, result):
    _, diag = result
    counts["fredholm.solve_p.solves"] += 1
    counts["fredholm.solve_p.iterations"] += diag["iterations"]
    counts["fredholm.solve_p.direct"] += diag["method"] == "direct"


def _count_qp(counts, args, kwargs, result):
    counts["oracle.A_bytes"] = max(counts["oracle.A_bytes"], result.A.nbytes)


def _count_draws(counts, args, kwargs, result):
    counts["dist.sample_equilibrium.draws"] += getattr(result, "size", 1)


def _count_events(counts, args, kwargs, result):
    counts["sim.events"] += len(result.event_times)


def _count_bytes(counts, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    out = Path(argv[argv.index("--out") + 1])
    counts["cli.bytes_written"] += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


# (module, function, spanned, counter).  Unspanned entries only count calls.
FUNCTIONS = [
    ("grids", "conv_trap", True, None),
    ("renewal", "solve_nonlinear", True, None),
    ("paths", "forward_q", True, None),
    ("paths", "partial_cell_weights", True, None),
    ("paths", "energy", False, None),
    ("fredholm", "forcing", True, None),
    ("fredholm", "shift_matrix", True, None),
    ("fredholm", "assemble_kernel", True, None),
    ("fredholm", "solve_p", True, _count_solve),
    ("fredholm", "dual_value", True, None),
    ("fredholm", "recover_controls", True, None),
    ("fredholm", "evaluate_rate", True, None),
    ("oracle", "build_qp", True, _count_qp),
    ("oracle", "solve_min_norm", True, None),
    ("sim", "simulate", True, _count_events),
    ("sim", "flow_balance_residuals", True, None),
    ("sim", "decomposition", True, None),
    ("sim", "lln_check", True, None),
    ("sim", "mc_tail", True, None),
    ("cli", "main", True, _count_bytes),
]
DIST_METHODS = [
    ("sample", True, None),
    ("sample_equilibrium", True, _count_draws),
    ("ppf", False, None),
    ("eq_ppf", False, None),
]


SPANNED = [f"{mod}.{fn}" for mod, fn, spanned, _ in FUNCTIONS if spanned] + [
    f"dist.{meth}" for meth, spanned, _ in DIST_METHODS if spanned]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, spanned, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned_fn(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return spanned_fn

    def install(self):
        import mdqueue.cli  # noqa: F401  (binds every module the CLI calls into)
        from mdqueue.dist import ServiceDist

        modules = [m for key, m in list(sys.modules.items()) if key == "mdqueue" or key.startswith("mdqueue.")]
        for mod_name, fn_name, spanned, counter in FUNCTIONS:
            original = getattr(sys.modules[f"mdqueue.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, spanned, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        for meth, spanned, counter in DIST_METHODS:
            original = ServiceDist.__dict__[meth]
            setattr(ServiceDist, meth, self._wrap(f"dist.{meth}", original, spanned, counter))
            self._restore.append((ServiceDist, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            t = totals[name]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - children
        return dict(totals)

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "command")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "pid": os.getpid()}, fh)
