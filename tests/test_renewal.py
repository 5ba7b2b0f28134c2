import time
import warnings

import numpy as np
import pytest

from mdqueue import GridPath, ServiceDist, solve_nonlinear
from mdqueue.grids import LagConv, conv_trap
from mdqueue.renewal import RenewalConvergenceError

LAWS = {
    "exponential": ServiceDist.exponential(1.0),
    "erlang": ServiceDist.erlang(3, 3.0),
    "hyperexponential": ServiceDist.hyperexponential([0.5, 0.5], [0.5, 2.0]),
}


def lag(d, f):
    """The lag of d on the grid of f."""
    return LagConv.of_law(d, f.horizon, f.n_steps)


def test_linear_constant_forcing_exponential():
    # exponential(1): g = 1 + int g dF has the exact solution g(t) = 1 + t, positive, so g^+ = g
    d = ServiceDist.exponential(1.0)
    for n in (200, 400):
        f = GridPath(2.0, np.ones(n + 1))
        g = solve_nonlinear(f, lag(d, f))
        err = np.max(np.abs(g.values - (1.0 + g.times)))
        assert err <= 2.5 * (2.0 / n)


def test_linear_ramp_forcing_exponential():
    # f(t) = t gives g(t) = t + t^2/2 >= 0 for exponential(1)
    d = ServiceDist.exponential(1.0)
    t = np.linspace(0.0, 2.0, 401)
    f = GridPath(2.0, t.copy())
    g = solve_nonlinear(f, lag(d, f))
    assert np.max(np.abs(g.values - (t + t**2 / 2.0))) < 5e-3


def test_nonlinear_negative_forcing_is_fixed_point():
    # f <= 0 everywhere: g^+ = 0 so g = f exactly
    d = ServiceDist.exponential(1.0)
    f = GridPath(1.0, -np.ones(101))
    g = solve_nonlinear(f, lag(d, f))
    assert np.array_equal(g.values, f.values)


def test_monotone_in_forcing():
    d = ServiceDist.exponential(1.0)
    t = np.linspace(0.0, 2.0, 201)
    f1, f2 = GridPath(2.0, 0.1 + 0.0 * t), GridPath(2.0, 0.2 + 0.0 * t)
    g1 = solve_nonlinear(f1, lag(d, f1))
    g2 = solve_nonlinear(f2, lag(d, f2))
    assert np.all(g2.values >= g1.values - 1e-12)


def test_long_horizon_windowing():
    # F(T) ~ 1 at T = 20: almost all of g comes from the history sum
    d = ServiceDist.exponential(1.0)
    n = 2000
    f = GridPath(20.0, np.ones(n + 1))
    g = solve_nonlinear(f, lag(d, f))
    err = np.max(np.abs(g.values - (1.0 + g.times)))
    assert err < 5 * (20.0 / n)


def test_grid_refinement_converges():
    d = ServiceDist.hyperexponential([0.5, 0.5], [0.5, 2.0])
    errs = []
    for n in (100, 200, 400):
        t = np.linspace(0.0, 2.0, n + 1)
        f = GridPath(2.0, np.cos(t))
        g = solve_nonlinear(f, lag(d, f))
        errs.append(g)
    # compare each to the finest on the coarse nodes
    fine = errs[-1]
    e = [np.max(np.abs(g.values - fine.interp(g.times))) for g in errs[:-1]]
    assert e[1] < e[0]


def test_residual_definition():
    d = ServiceDist.erlang(3, 3.0)
    t = np.linspace(0.0, 2.0, 201)
    f = GridPath(2.0, np.sin(t))
    g = solve_nonlinear(f, lag(d, f))
    res = g.values - f.values - conv_trap(np.maximum(g.values, 0.0), d.pdf(t), f.dt)
    assert np.max(np.abs(res)) < 1e-9


def test_convergence_error_carries_residual():
    err = RenewalConvergenceError(0.5, 12)
    assert err.residual == 0.5
    assert err.iterations == 12
    assert "0.5" in str(err) or "5.000e-01" in str(err)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("crosses_zero", [False, True])
@pytest.mark.parametrize("n", [2, 3, 401])
def test_march_solves_discrete_equations(law, crosses_zero, n):
    # an f that crosses zero takes both closed-form branches; an f >= 0.2 only g_i = c_i / (1 - alpha)
    d = LAWS[law]
    t = np.linspace(0.0, 2.0, n + 1)
    f = GridPath(2.0, np.sin(3.0 * t) + (-0.2 if crosses_zero else 1.2))
    g = solve_nonlinear(f, lag(d, f)).values
    res = np.max(np.abs(g - f.values - conv_trap(np.maximum(g, 0.0), d.pdf(t), f.dt)))
    assert res <= 1e-13 * max(1.0, np.max(np.abs(g)))


def test_march_rejects_alpha_at_least_one_at_once():
    # dt F'(0)/2 = 0.5 * 10 / 2 = 2.5: the node equations have no unique solution
    f = GridPath(1.0, np.ones(3))
    d = ServiceDist.exponential(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RenewalConvergenceError, match=r"dt F'\(0\)/2") as info:
            solve_nonlinear(f, lag(d, f))
    assert info.value.iterations == 0


def test_march_past_the_float_range_raises_typed_error_without_warning():
    # exp(4.5) on [0, 234] in 527 steps: dt F'(0)/2 = 0.999 multiplies g by about 1000 a node, so
    # g passes the float range and inf - inf = NaN in the history sum; the residual rejects it,
    # with no RuntimeWarning
    d = ServiceDist.exponential(4.5)
    f = GridPath(234.0, np.ones(528))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RenewalConvergenceError, match="residual nan"):
            solve_nonlinear(f, lag(d, f))


def test_march_rejects_a_lag_of_another_grid():
    f = GridPath(2.0, np.ones(11))
    other = LagConv.of_law(ServiceDist.exponential(1.0), 2.0, 20)
    with pytest.raises(ValueError, match="does not fit"):
        solve_nonlinear(f, other)


def test_march_long_grid_is_fast():
    d = LAWS["hyperexponential"]
    t = np.linspace(0.0, 2.0, 10_001)
    start = time.perf_counter()
    f = GridPath(2.0, np.sin(3.0 * t) - 0.2)
    solve_nonlinear(f, lag(d, f))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_march_bound_is_relative_to_the_forcing(scale):
    # the march is exact to round-off, which grows with f: at 1e7 its residual of 3.7e-9,
    # about 4e-16 of |g|_inf, failed an absolute bound of 1e-9
    d = ServiceDist.exponential(1.0)
    t = np.linspace(0.0, 2.0, 1601)
    f = GridPath(2.0, scale * np.sin(3.0 * t))
    g = solve_nonlinear(f, lag(d, f)).values
    res = np.max(np.abs(g - f.values - conv_trap(np.maximum(g, 0.0), d.pdf(t), f.dt)))
    assert res <= 1e-13 * np.max(np.abs(g))
