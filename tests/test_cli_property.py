"""The CLI's contract over configs drawn from the README grammar: exit 0, 1 or
2 and never an exception; exit 2 creates no output directory; exit 1 writes a
summary.json with status numerical-failure."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqueue import GridPath
from mdqueue.cli import main

# one number in ten is NaN, +-Infinity, 0 or -1, so that whole configs are often valid
NUMBERS = st.integers(0, 9).flatmap(
    lambda k: st.sampled_from([math.nan, math.inf, -math.inf, 0, -1]) if k == 0 else st.floats(1e-3, 4.0))
SIGNED = st.tuples(st.sampled_from([1, -1]), NUMBERS).map(lambda s: s[0] * s[1])

DISTS = st.one_of(
    st.fixed_dictionaries({"family": st.just("exponential"), "rate": NUMBERS}),
    st.fixed_dictionaries({"family": st.just("erlang"), "shape": st.integers(0, 4), "rate": NUMBERS}),
    st.builds(
        lambda w, rates: {"family": "hyperexponential", "weights": [w / 4, 1.0 - w / 4], "rates": rates},
        NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2),
    ),
)
MODELS = st.fixed_dictionaries({"sigma": NUMBERS, "beta": SIGNED, "q0": SIGNED})
GRIDS = st.fixed_dictionaries({"horizon": NUMBERS, "n_steps": st.integers(2, 64)}, optional={"n_x": st.integers(1, 16)})
TOLERANCES = st.fixed_dictionaries({}, optional={"fredholm": NUMBERS, "renewal": NUMBERS})
SIMS = st.fixed_dictionaries(
    {
        "ladder": st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True),
        "b_rule": st.fixed_dictionaries({"kind": st.sampled_from(["power", "log"]), "value": NUMBERS}),
        "reps": st.integers(1, 3),
        "horizon": NUMBERS,
    },
    optional={
        "arrival": st.fixed_dictionaries({"family": st.sampled_from(["exponential", "erlang"])},
                                         optional={"shape": st.integers(1, 3)}),
        "event": st.fixed_dictionaries({"kind": st.sampled_from(["sup", "terminal"]), "t": NUMBERS, "a": SIGNED}),
        "lln_t": NUMBERS,
    },
)
KIEFER = st.fixed_dictionaries(
    {"m": st.integers(2, 64), "n": st.integers(2, 64)}, optional={"t_horizon": NUMBERS, "value": NUMBERS})
# the q.csv of a rate config: its horizon, steps and amplitude, and whether q(0) is the model's q0
Q_PATHS = st.tuples(st.floats(1e-3, 4.0), st.integers(2, 64), st.floats(-1.0, 1.0), st.booleans())

CONFIGS = st.one_of(
    st.fixed_dictionaries({"command": st.just("rate"), "q": Q_PATHS, "model": MODELS, "dist": DISTS},
                          optional={"grid": GRIDS, "tolerances": TOLERANCES}),
    st.fixed_dictionaries({"command": st.just("dist-info")}, optional={"dist": DISTS, "grid": GRIDS}),
    st.fixed_dictionaries({"command": st.just("kiefer-check")}, optional={"kiefer": KIEFER}),
    st.fixed_dictionaries({"command": st.just("simulate"), "sim": SIMS, "model": MODELS, "dist": DISTS},
                          optional={"seed": st.integers(0, 2**32)}),
)


def _write_q(path: Path, q, model) -> None:
    horizon, n_steps, amplitude, starts_at_q0 = q
    q0 = model.get("q0", 0.0) if starts_at_q0 and model and math.isfinite(model.get("q0", 0.0)) else 0.0
    t = np.linspace(0.0, horizon, n_steps + 1)
    GridPath(horizon, q0 + amplitude * t * (horizon - t)).to_csv(path)


@settings(max_examples=100, deadline=None)
@given(cfg=CONFIGS)
def test_cli_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if "q" in cfg:
            _write_q(tmp / "q.csv", cfg.pop("q"), cfg.get("model"))
            cfg["io"] = {"q_csv": "q.csv"}
        (tmp / "c.json").write_text(json.dumps(cfg))
        out = tmp / "out"
        code = main(["--config", str(tmp / "c.json"), "--out", str(out), "--quiet"])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        else:
            status = json.loads((out / "summary.json").read_text())["status"]
            assert status == ("ok" if code == 0 else "numerical-failure")
