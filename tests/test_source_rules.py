"""Rules over the package source.  Invariants raise typed errors: an `assert`
vanishes under `python -O`, and a bare RuntimeError or Exception is not in
`cli.NUMERICAL_ERRORS`, so the CLI cannot map it to an exit code.  The one
trapezoid lag convolution, `grids.LagConv`, is the only user of the FFT."""
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
