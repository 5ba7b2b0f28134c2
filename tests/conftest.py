"""Shared fixtures: the standard exponential test battery and model params, and the
Hypothesis profiles.  The default profile is derandomized, so every property test
draws the same examples on every run; `pytest --hypothesis-profile=explore` draws
new ones at the same counts."""
import numpy as np
import pytest
from hypothesis import settings
from scipy.interpolate import CubicSpline

from mdqueue import GridPath, ModelParams, ServiceDist

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)

HORIZON = 2.0


def battery_cases(n_steps: int = 200):
    """The five (beta, q0, q) combinations used across the acceptance tests.

    The two spline paths interpolate hand-picked knots: one decays from the
    initial excess to zero, the other rises from an initial deficit through
    negative territory into positive.
    """
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    decaying = CubicSpline([0.0, 1.0, 2.0], [0.5, 0.15, 0.0])
    rising = CubicSpline([0.0, 1.0, 2.0], [-0.5, -0.1, 0.3])
    return [
        (0.5, 0.0, GridPath(HORIZON, 0.3 * t * (2.0 - t))),
        (0.0, 0.0, GridPath(HORIZON, 0.2 * np.sin(np.pi * t / 2.0) * t)),
        (1.0, 0.5, GridPath(HORIZON, decaying(t))),
        (-0.5, 0.0, GridPath(HORIZON, 0.3 * t * (2.0 - t))),
        (0.0, -0.5, GridPath(HORIZON, rising(t))),
    ]


@pytest.fixture(scope="session")
def exp1():
    return ServiceDist.exponential(1.0)


@pytest.fixture(scope="session")
def pm_std(exp1):
    return ModelParams(exp1, sigma=1.0, beta=0.5, q0=0.0)


@pytest.fixture(scope="session")
def q_quad():
    t = np.linspace(0.0, HORIZON, 201)
    return GridPath(HORIZON, 0.3 * t * (2.0 - t))
