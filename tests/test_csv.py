"""The one CSV writer (`grids.float_strs`, `grids.write_csv`) and the artifacts written
through it against the row-at-a-time `repr` writers of `reference.py`: the same bytes,
in bounded memory."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import reference

import mdqueue
from mdqueue import GridField2D, GridPath, ModelParams, QueueTrace, ScalingRegime, ServiceDist, simulate
from mdqueue.cli import _table_csv, main
from mdqueue.grids import BLOCK_ROWS, float_strs, write_csv

TINY, HUGE = 1e-4, 1e16  # where repr switches to an exponent


def _reprs(a):
    return [repr(x) for x in np.asarray(a, dtype=float).tolist()]


def test_float_strs_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    a = bits.view(np.float64)
    assert float_strs(a) == _reprs(a)


def test_float_strs_between_the_exponent_switches():
    # random bit patterns mostly land outside [1e-4, 1e16), where repr is re-applied;
    # here every value takes orjson's digits as they are
    rng = np.random.default_rng(12)
    a = 10.0 ** rng.uniform(-4.0, 16.0, size=300_000) * rng.choice([-1.0, 1.0], size=300_000)
    short = np.concatenate([np.round(rng.uniform(0.0, 1000.0, size=20_000), k) for k in range(8)])
    a = np.concatenate([a, short, np.arange(-1000.0, 1000.0)])
    assert float_strs(a) == _reprs(a)


def test_float_strs_boundaries():
    edges = []
    for x in (TINY, HUGE, 5e-324, 1.0):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges += [np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max]
    edges += [0.0, np.nan, np.inf]
    a = np.array(edges + [-x for x in edges])
    assert float_strs(a) == _reprs(a)
    assert float_strs(np.array([])) == []
    assert float_strs(np.array([[1e-5, 2.0], [1e16, 0.5]])) == ["1e-05", "2.0", "1e+16", "0.5"]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint64])
def test_float_strs_integers(dtype):
    # an integer array takes orjson's integer digits: str() of each entry, from the
    # dtype's extremes through 0 to the negatives
    info = np.iinfo(dtype)
    a = np.array([info.min, info.min + 1, -1 if info.min else 1, 0, 7, info.max - 1, info.max], dtype=dtype)
    rng = np.random.default_rng(13)
    a = np.concatenate([a, rng.integers(info.min, info.max, size=10_000, dtype=dtype, endpoint=True)])
    assert float_strs(a) == list(map(str, a.tolist()))
    assert float_strs(a[::3]) == list(map(str, a[::3].tolist()))
    assert float_strs(np.array([], dtype=dtype)) == []


def _wide_values(rng, shape):
    """Normal draws scaled over 10^-300..10^300, with zeros and the exponent switches mixed in."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = v.reshape(-1)
    specials = [0.0, -0.0, TINY, -np.nextafter(TINY, 0.0), HUGE, 3.5]
    flat[: len(specials)] = specials[: flat.size]
    return v


def _same_bytes(tmp_path, write, write_ref):
    write(tmp_path / "new.csv")
    write_ref(tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_write_csv_matches_reference(tmp_path, n_rows):
    # each kind of column: float and int64 numbers, arrays of strings (object and unicode), and
    # one string on every row, here as separators of one and of several characters
    rng = np.random.default_rng(n_rows)
    ints = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n_rows, dtype=np.int64, endpoint=True)
    words = np.array(["", "a", "b,c", "déjà"], dtype=object)[rng.integers(0, 4, n_rows)]
    columns = [_wide_values(rng, n_rows), ",", ints, ";;", words, ",", words.astype(str), "|"]
    _same_bytes(tmp_path, lambda p: write_csv(p, "f,i,s", columns, "\r\n"),
                lambda p: reference.csv_file(p, "f,i,s", columns, "\r\n"))


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", "a,b", [np.zeros(3), ",", np.zeros(2)])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n_nodes", [3, 201, BLOCK_ROWS + 1])
def test_gridpath_csv_matches_reference(tmp_path, n_nodes):
    q = GridPath(1.7, _wide_values(np.random.default_rng(n_nodes), n_nodes))
    _same_bytes(tmp_path, q.to_csv, lambda p: reference.path_csv(q, p))


@pytest.mark.parametrize("shape", [(2, 2), (33, 1601)])
def test_field_csv_matches_reference(tmp_path, shape):
    f = GridField2D(3.2, _wide_values(np.random.default_rng(shape[1]), shape))
    _same_bytes(tmp_path, f.to_csv, lambda p: reference.field_csv(f, p))


def _synthetic_trace(n_events, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 2.0, n_events))
    times[: min(n_events, 3)] = [2e-5, 7e-5, 1e-4][: min(n_events, 3)]  # exponent form at early times
    return SimpleNamespace(event_times=times, event_types=rng.integers(0, 2, n_events),
                           event_ids=rng.integers(0, 10 * n_events + 1, n_events))


@pytest.fixture(scope="module")
def trace_1e5():
    pm = ModelParams(ServiceDist.exponential(1.0), sigma=1.0, beta=0.5, q0=0.0)
    sr = ScalingRegime(n=100_000, rule=("power", 0.25))
    return simulate(pm, sr, 1.0, np.random.default_rng(5))


@pytest.mark.parametrize("n_events", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_trace_csv_matches_reference(tmp_path, n_events):
    tr = _synthetic_trace(n_events)
    _same_bytes(tmp_path, lambda p: QueueTrace.to_csv(tr, p), lambda p: reference.trace_csv(tr, p))


def test_trace_csv_matches_reference_n1e5(tmp_path, trace_1e5):
    assert len(trace_1e5.event_times) > 10 * BLOCK_ROWS
    _same_bytes(tmp_path, trace_1e5.to_csv, lambda p: reference.trace_csv(trace_1e5, p))


def _tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_the_block(tmp_path, trace_1e5):
    # the whole-file writers held every row string at once: 32 MiB for this trace
    f = GridField2D(3.2, np.random.default_rng(1).standard_normal((33, 1601)))
    trace_1e5.event_times  # the trace builds its event list on first read: not the writer's memory
    assert _tracemalloc_peak(lambda: trace_1e5.to_csv(tmp_path / "t.csv")) < 4 * 2**20
    assert _tracemalloc_peak(lambda: f.to_csv(tmp_path / "f.csv")) < 4 * 2**20


def test_table_csv_matches_reference(tmp_path):
    rng = np.random.default_rng(4)
    cols = zip(rng.integers(1, 10**6, 40).tolist(), _wide_values(rng, 40).tolist(), rng.uniform(0, 1, 40).tolist())
    rows = [{"n": n, "rep": rep, "flow_balance_max": 0, "residual_sup": r, "residual_sup_refined": r / 3.0,
             "quadrature_bound": b} for rep, (n, r, b) in enumerate(cols)]
    keys = tuple(rows[0])
    _same_bytes(tmp_path, lambda p: _table_csv(p, ",".join(keys), [[r[k] for r in rows] for k in keys]),
                lambda p: reference.identity_csv(rows, p))


def _run(tmp_path, payload):
    (tmp_path / "c.json").write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(tmp_path / "c.json"), "--out", str(out), "--quiet"]) == 0
    return out, json.loads((out / "summary.json").read_text())


def test_dist_info_csv_matches_reference(tmp_path):
    spec = {"family": "hyperexponential", "weights": [0.3, 0.7], "rates": [0.5, 3.0]}
    out, s = _run(tmp_path, {"command": "dist-info", "dist": spec})
    t = np.linspace(0.0, s["table_horizon"], 201)
    reference.dist_csv(ServiceDist.from_spec(spec), t, tmp_path / "ref.csv")
    assert (out / "dist.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_simulate_csvs_match_reference(tmp_path):
    out, s = _run(tmp_path, {
        "command": "simulate", "seed": 3, "model": {"sigma": 1.0, "beta": 0.5, "q0": 0.0},
        "dist": {"family": "exponential", "rate": 1.0},
        "sim": {"ladder": [10, 100], "b_rule": {"kind": "power", "value": 0.25}, "reps": 2, "horizon": 1.0},
    })
    reference.ladder_csv(s["ladder"], tmp_path / "ladder_ref.csv")
    assert (out / "ladder.csv").read_bytes() == (tmp_path / "ladder_ref.csv").read_bytes()


def test_oracle_csv_matches_reference(tmp_path):
    t = np.linspace(0.0, 2.0, 51)
    GridPath(2.0, 0.3 * t * (2.0 - t)).to_csv(tmp_path / "q.csv")
    out, s = _run(tmp_path, {
        "command": "oracle-check", "model": {"sigma": 1.0, "beta": 0.5, "q0": 0.0},
        "dist": {"family": "exponential", "rate": 1.0},
        "grid": {"horizon": 2.0, "n_steps": 50, "n_x": 8}, "io": {"q_csv": "q.csv"},
    })
    in_order = {k: s[k] for k in ("value", "flagsOn", "flagsOff", "flagsOnResidual", "flagsOffResidual",
                                  "fredholmValue", "relGap")}
    reference.oracle_csv(in_order, tmp_path / "ref.csv")
    assert (out / "oracle.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cli_logs_each_artifact_unless_quiet(tmp_path):
    # one INFO line per artifact on stderr: file name, rows and bytes
    cfg = {"command": "dist-info", "dist": {"family": "exponential", "rate": 1.0}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    src = str(Path(mdqueue.__file__).resolve().parents[1])
    stderr = {}
    for flags in ((), ("--quiet",)):
        out = tmp_path / f"out{len(flags)}"
        argv = [sys.executable, "-m", "mdqueue.cli", "--config", str(tmp_path / "c.json"), "--out", str(out), *flags]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 0
        stderr[flags] = proc.stderr
    size = (tmp_path / "out0" / "dist.csv").stat().st_size
    assert stderr[()] == f"dist.csv: 201 rows, {size} bytes\n"
    assert stderr[("--quiet",)] == ""
