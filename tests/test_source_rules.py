"""Rules over the package source.  Invariants raise typed errors: an `assert`
vanishes under `python -O`, and a bare RuntimeError or Exception is not in
`cli.NUMERICAL_ERRORS`, so the CLI cannot map it to an exit code.  The one
trapezoid lag convolution, `grids.LagConv`, is the only user of the FFT, and
`paths.PathEquation.from_law` (with the lag dt F'(t_k) of `LagConv.of_law`) the
only place that samples the law on a t grid.  `paths.ModelParams` carries the
service law, whose reciprocal mean is mu, so no function takes a model and a law
side by side; a `PathEquation` carries both, and its lag and Gram operator the
law sampled on its grid, so no function takes two of these either."""
import ast
import re
from dataclasses import fields
from pathlib import Path

import mdqueue
from mdqueue.paths import ModelParams, PathEquation


def test_no_assert_and_no_bare_runtime_error():
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "Exception"):
                    found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    assert found == []


def test_fft_only_in_grids():
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        if path.name != "grids.py":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      if isinstance(node, ast.Attribute) and node.attr == "fft"
                      or isinstance(node, ast.ImportFrom) and "fft" in (node.module or "").split(".")]
    assert found == []


def test_law_lag_only_from_of_law():
    # the solvers and the simulator read F, F0 and F' from PathEquation.from_law and the lag it
    # takes from LagConv.of_law: outside dist.py, which defines the law, no other function
    # evaluates cdf, eq_cdf or pdf (but the dist-info table), and none calls conv_trap
    allowed = {("grids.py", "of_law"), ("paths.py", "from_law"), ("cli.py", "cmd_dist_info")}
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        if path.name == "dist.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and (path.name, f.name) in allowed]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("cdf", "eq_cdf", "pdf",
                                                                                     "conv_trap")
                  and not any(a <= node.lineno <= b for a, b in spans)]
    assert found == []


# each carries the service law: the model its law, the path equation its model, and the lag and the
# Gram operator the law sampled on a grid
CARRIERS_OF_THE_LAW = ("ServiceDist", "ModelParams", "PathEquation", "LagConv", "GramOperator")


def test_no_function_takes_a_model_and_a_law():
    # two carriers of the law passed side by side carry it twice, and nothing would check that
    # they agree
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = f.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                notes = " ".join(ast.unparse(p.annotation) for p in params if p.annotation is not None)
                if sum(bool(re.search(rf"\b{name}\b", notes)) for name in CARRIERS_OF_THE_LAW) > 1:
                    found.append(f"{path.name}:{f.lineno}: {f.name}")
    assert found == []


def test_mu_is_not_a_field_of_the_model():
    # mu is the law's reciprocal mean, read through the model's law; the path equation keeps the model alone
    assert "mu" not in {f.name for f in fields(ModelParams)}
    assert "d" not in {f.name for f in fields(PathEquation)}
