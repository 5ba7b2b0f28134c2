"""Rules over the package source.  Invariants raise typed errors: an `assert`
vanishes under `python -O`, and a bare RuntimeError or Exception is not in
`cli.NUMERICAL_ERRORS`, so the CLI cannot map it to an exit code.  The one
trapezoid lag convolution, `grids.LagConv`, is the only user of the FFT, and
`paths.PathEquation.from_law` (with the lag dt F'(t_k) of `LagConv.of_law`) the
only place that samples the law on a t grid."""
import ast
from pathlib import Path

import mdqueue


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
