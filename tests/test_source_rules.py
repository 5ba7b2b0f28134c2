"""Rules over the package source.  Invariants raise typed errors: an `assert`
vanishes under `python -O`, and a bare RuntimeError or Exception is not in
`cli.NUMERICAL_ERRORS`, so the CLI cannot map it to an exit code.  The one
trapezoid lag convolution, `grids.LagConv`, is the only user of the FFT, `dist`
the only module that draws from a random generator (the simulator's interarrival
gaps are the draws of an Erlang `ServiceDist`), and
`paths.PathEquation.from_law` (with the lag dt F'(t_k) of `LagConv.of_law`) the
only place that samples the law on a t grid.  `paths.ModelParams` carries the
service law, whose reciprocal mean is mu, so no function takes a model and a law
side by side; a `PathEquation` carries both, and its lag and Gram operator the
law sampled on its grid, so no function takes two of these either.  A fact is
stored once: a `ServiceDist`'s family is the name of its phase table, a
`ScalingRegime` reads beta from the model, the simulator reads the arrival
variability from the model's sigma, and a trace's departures are sorted in one
place, `QueueTrace.departures`, from which every count of the queue reads them.
Every CSV artifact is written by `grids.write_csv` from whole columns, and only
`grids` formats a number for it (`float_strs`)."""
import ast
import re
from dataclasses import fields
from pathlib import Path

import mdqueue
from mdqueue.dist import ServiceDist
from mdqueue.paths import ModelParams, PathEquation
from mdqueue.sim import ScalingRegime


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


# the draws of numpy's Generator that the package may make, besides the standard_* family
GENERATOR_DRAWS = ("exponential", "gamma", "choice", "integers", "random", "normal", "uniform")


def test_random_draws_only_in_dist():
    # every random draw goes through a law's phase table, the interarrival gaps' too, so a stream
    # has one definition; a draw elsewhere is a second sampler
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        if path.name != "dist.py":
            found += [f"{path.name}:{node.lineno}: {node.func.attr}"
                      for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and (node.func.attr in GENERATOR_DRAWS or node.func.attr.startswith("standard_"))]
    assert found == []


def test_no_service_dist_method_but_validation_reads_the_family():
    # the methods, validation too, read the phase table (weights, rates, shape); the family only names it
    tree = ast.parse(Path(mdqueue.dist.__file__).read_text())
    (cls,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "ServiceDist"]
    found = [f"{f.name}:{node.lineno}" for f in cls.body if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Attribute) and node.attr == "family"
             and isinstance(node.value, ast.Name) and node.value.id == "self"]
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


def test_family_is_not_a_field_of_the_service_law():
    # the family is the name of the phase table (weights, rates, shape), read off it
    assert "family" not in {f.name for f in fields(ServiceDist)}


def test_beta_is_not_a_field_of_the_regime():
    # rho_n and the arrival rate read beta from the model: the regime is n and the b_n rule
    assert "beta" not in {f.name for f in fields(ScalingRegime)}


def test_no_module_imports_a_private_name_of_another():
    # a name that starts with _ (a dunder such as __version__ aside) belongs to its module: a module
    # that imports one from another shares a helper that no interface states (the oracle once ran
    # the adjoint's bare CG loop)
    found = []
    for path in sorted(Path(mdqueue.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno}: {alias.name}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mdqueue"))
                  for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_departures_are_sorted_in_one_place():
    # in sim.py only the start-time fixed point sorts its pool of free times and departures, the
    # event list sorts the events for the trace file, QueueTrace.departures the departures that q_at,
    # tail_hit and decomposition count, the flow balance the arrivals and departures whose distinct
    # times it counts at, and decomposition only the initial customers' residual services for its X0
    # term (lln_check sorts only the ladder's server counts); any other sort, np.unique and sorted
    # among them, is a second copy of the departures
    path = Path(mdqueue.__file__).parent / "sim.py"
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, ast.FunctionDef):
            found |= {(fn.name, ast.unparse(node)) for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("sort", "argsort", "unique",
                                                                                          "sorted")}
    assert {name for name, _ in found} == {"_start_times", "_events", "departures", "flow_balance_residuals",
                                           "decomposition", "lln_check"}
    assert [call for name, call in found if name == "flow_balance_residuals"] == ["t.sort()"]
    assert [call for name, call in found if name == "decomposition"] == ["np.sort(trace.eta0)"]
    assert [call for name, call in found if name == "lln_check"] == ["sorted(pct)"]


def test_only_grids_formats_a_number_and_write_csv_takes_whole_columns():
    # a module that names float_strs has its own number rule, and a callable passed to write_csv
    # writes its own slices and pieces of rows: each is a second CSV writer
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(mdqueue.__file__).parent.glob("*.py"))}
    functions = {f.name for tree in trees.values() for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    found = [name for name, tree in trees.items() if name != "grids.py"
             and any(isinstance(node, ast.Name) and node.id == "float_strs"
                     or isinstance(node, ast.alias) and node.name == "float_strs" for node in ast.walk(tree))]
    for name, tree in trees.items():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "write_csv"
                  for arg in node.args + [k.value for k in node.keywords] for sub in ast.walk(arg)
                  if isinstance(sub, ast.Lambda) or isinstance(sub, ast.Name) and sub.id in functions]
    assert found == []
