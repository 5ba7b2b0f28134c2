from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from mdqueue import (
    GridField2D,
    GridPath,
    ModelParams,
    ServiceDist,
    energy,
    forward_q,
    kiefer_energy,
    kiefer_from_sheet,
)
from mdqueue.grids import LagConv, conv_trap, cumtrap
from mdqueue.paths import ControlSet, PathEquation, defect, partial_cell_weights
from mdqueue.renewal import solve_nonlinear
from reference import equation, kiefer_energy_columns, kiefer_from_sheet_columns, lln_path, zero_controls

LAWS = [
    ServiceDist.exponential(1.0),
    ServiceDist.erlang(3, 3.0),
    ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6]),
]


def test_energy_zero_controls():
    assert energy(zero_controls(2.0, 50, 16)) == 0.0


def test_energy_constant_controls():
    c = ControlSet(
        w0dot=GridPath(1.0, np.full(11, 2.0)),
        wdot=GridPath(2.0, np.full(21, 3.0)),
        kdot=GridField2D(2.0, np.ones((11, 21))),
    )
    # 1/2 (4*1 + 9*2 + 1*2) = 12
    assert energy(c) == pytest.approx(12.0, abs=1e-12)


def test_controlset_requires_unit_x_interval():
    # the one check of the w0dot grid: a frozen ControlSet cannot leave [0, 1] later,
    # so forward_q and the oracle do not repeat it
    def controls(x_horizon):
        return ControlSet(w0dot=GridPath(x_horizon, np.zeros(5)), wdot=GridPath(1.0, np.zeros(5)),
                          kdot=GridField2D(1.0, np.zeros((5, 5))))

    for x_horizon in (2.0, 0.5, 1.0 + 1e-9, 1.0 - 1e-9):
        with pytest.raises(ValueError, match=r"w0dot must live on \[0, 1\]"):
            controls(x_horizon)
    assert controls(1.0 + 1e-13).w0dot.horizon == 1.0 + 1e-13  # within the 1e-12 tolerance


def test_model_takes_mu_from_its_law():
    # mu is the reciprocal mean of the service law, given once: a second mu can be
    # neither passed nor set, so a model cannot disagree with its own law
    d = ServiceDist.erlang(2, 5.0)
    pm = ModelParams(d, 1.0, 0.5, 0.0)
    assert pm.law is d and pm.mu == d.mu == 2.5
    for call in (lambda: ModelParams(mu=2.0, sigma=1.0, beta=0.5, q0=0.0), lambda: ModelParams(d, 1.0, 0.5, 0.0, mu=2.0),
                 lambda: replace(pm, mu=2.0)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(AttributeError):
        pm.mu = 2.0


def test_partial_cell_weights_quadratic():
    # integrand v(x) = x on [0,1]: weights applied to nodes must give u^2/2
    n = 11
    nodes = np.linspace(0.0, 1.0, n)
    u = np.array([0.0, 0.25, 0.33, 0.8, 1.0])
    w = partial_cell_weights(u, n, 0.1)
    vals = w @ nodes
    assert np.max(np.abs(vals - u**2 / 2.0)) < 1e-14


def test_forward_q_zero_controls_lln(pm_std):
    c = zero_controls(2.0, 200, 16, mu=1.0)
    eq = equation(c.wdot, pm_std)
    q = forward_q(c, eq)
    ref = lln_path(eq)
    assert np.max(np.abs(q.values - ref.values)) < 1e-9
    assert q.values[0] == pytest.approx(pm_std.q0, abs=1e-12)


def test_forward_q_monotone_in_beta(exp1):
    c = zero_controls(2.0, 100, 8)
    q_lo = forward_q(c, equation(c.wdot, ModelParams(exp1, 1.0, -0.5, 0.0)))
    q_hi = forward_q(c, equation(c.wdot, ModelParams(exp1, 1.0, 0.5, 0.0)))
    # larger beta = more spare capacity = lower centered queue
    assert np.all(q_hi.values <= q_lo.values + 1e-12)


def test_forward_q_initial_value(exp1):
    pm = ModelParams(exp1, 1.0, 0.5, -0.3)
    c = zero_controls(2.0, 100, 8)
    q = forward_q(c, equation(c.wdot, pm))
    assert q.values[0] == pytest.approx(-0.3, abs=1e-12)


def test_forward_q_wdot_term_against_quad(exp1):
    # with only wdot = 1 active and beta = q0 = 0:
    # q(t) = sigma int_0^t (1-F(t-s)) ds + int_0^t q^+ dF; for exponential and
    # small t, q stays positive and solves q = sigma F0(t)/mu + int q dF
    pm = ModelParams(exp1, 1.0, 0.0, 0.0)
    n = 400
    c = ControlSet(
        w0dot=GridPath(1.0, np.zeros(9)),
        wdot=GridPath(2.0, np.ones(n + 1)),
        kdot=GridField2D(2.0, np.zeros((9, n + 1))),
    )
    q = forward_q(c, equation(c.wdot, pm))
    # exponential(1): forcing = 1 - e^{-t}; renewal solution of
    # g = (1-e^{-t}) + int g dF is g(t) = t - 1 + e^{-t} + int_0^t (s-1+e^{-s}) ds'... use
    # the known linear-renewal identity g = f + int_0^t f(s) m'(t-s) ds with m'(u) = 1
    t = q.times
    f = 1.0 - np.exp(-t)
    ref = f + np.array([quad(lambda s: 1.0 - np.exp(-s), 0.0, ti)[0] for ti in t])
    assert np.max(np.abs(q.values - ref)) < 5e-4


def _reference_forcing(c, pm):
    """The forward-map forcing by direct quadrature, term by term: the bridge
    integral of w0dot up to F0(t) by partial-cell trapezoid, the arrival term by
    conv_trap, and the kdot term as a partial-cell x-integral up to F(lag) of
    kdot interpolated at mu t, then an outer trapezoid along each anti-diagonal."""
    t, d = c.wdot.times, pm.law
    n, dt = c.wdot.n_steps, c.wdot.dt
    F, F0 = d.cdf(t), d.eq_cdf(t)

    # int_0^{F0(t)} w0dot(x) dx with w0dot linear inside the cell holding F0(t)
    w0, dx = c.w0dot.values, c.w0dot.dt
    y = np.clip(F0, 0.0, 1.0)
    idx = np.minimum((y / dx).astype(int), c.w0dot.n_steps - 1)
    frac = y - idx * dx
    v0, v1 = w0[idx], w0[idx + 1]
    vy = v0 + (v1 - v0) * (frac / dx)
    bridge = cumtrap(w0, dx)[idx] + 0.5 * frac * (v0 + vy)

    arrival = pm.sigma * conv_trap(1.0 - F, c.wdot.values, dt)

    kcols = np.array([np.interp(pm.mu * t, c.kdot.t_grid, row, right=0.0) for row in c.kdot.values])
    P = partial_cell_weights(F, c.kdot.values.shape[0], c.kdot.dx) @ kcols  # P[lag, j]
    kterm = np.zeros(n + 1)
    for i in range(1, n + 1):
        diag = P[i::-1, : i + 1].diagonal()  # P[i - j, j] for j = 0..i
        kterm[i] = pm.mu * (dt * diag.sum() - 0.5 * dt * (P[i, 0] + P[0, i]))
    drift = (1.0 - F) * max(pm.q0, 0.0) - (1.0 - F0) * max(-pm.q0, 0.0) - pm.beta * F0
    return drift + bridge + arrival + kterm


@pytest.mark.parametrize("n_steps", [40, 41])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_forward_q_matches_direct_quadrature(d, n_steps):
    pm = ModelParams(d, 1.5, 0.5, 0.2)
    rng = np.random.default_rng(n_steps)
    c = ControlSet(
        w0dot=GridPath(1.0, rng.standard_normal(9)),
        wdot=GridPath(2.0, rng.standard_normal(n_steps + 1)),
        kdot=GridField2D(pm.mu * 2.0, rng.standard_normal((9, n_steps + 1))),
    )
    ref = solve_nonlinear(GridPath(2.0, _reference_forcing(c, pm)), LagConv.of_law(d, 2.0, n_steps))
    assert np.max(np.abs(forward_q(c, equation(c.wdot, pm)).values - ref.values)) <= 1e-13


def _bad_controls(case):
    c = zero_controls(2.0, 20, 8)
    if case == "w0dot-x-range":
        # ControlSet refuses this grid itself, so no such controls reach forward_q
        return ControlSet(w0dot=GridPath(2.0, np.zeros(9)), wdot=c.wdot, kdot=c.kdot)
    kdot = {
        "kdot-x-nodes": GridField2D(2.0, np.zeros((10, 21))),
        "kdot-t-nodes": GridField2D(2.0, np.zeros((9, 20))),
        "kdot-t-horizon": GridField2D(2.5, np.zeros((9, 21))),
    }[case]
    return ControlSet(w0dot=c.w0dot, wdot=c.wdot, kdot=kdot)


@pytest.mark.parametrize(
    "case", ["kdot-x-nodes", "kdot-t-nodes", "kdot-t-horizon", "w0dot-x-range"]
)
def test_forward_q_rejects_mismatched_grids(pm_std, case):
    with pytest.raises(ValueError):
        forward_q(_bad_controls(case), PathEquation.from_law(pm_std, 2.0, 20))


@pytest.mark.parametrize("horizon, n_steps", [(2.5, 20), (2.0, 21), (2.0 * (1 + 1e-9), 20)])
def test_path_and_controls_off_the_equation_grid_raise(pm_std, horizon, n_steps):
    # the path equation samples the law on one t grid; q and the controls must live on it
    eq = PathEquation.from_law(pm_std, horizon, n_steps)
    t = np.linspace(0.0, 2.0, 21)
    for call in (lambda: defect(GridPath(2.0, t * (2.0 - t)), eq), lambda: forward_q(zero_controls(2.0, 20, 8), eq)):
        with pytest.raises(ValueError, match="not on the grid of its path equation"):
            call()
    # a horizon within round-off of the equation's is its grid
    assert defect(GridPath(2.0 * (1 + 1e-15), t * (2.0 - t)), PathEquation.from_law(pm_std, 2.0, 20))[0] == 0.0


def test_equation_samples_the_law_once(exp1, pm_std):
    # F, F0, the lag and the drift are the law's values on the grid
    eq = PathEquation.from_law(ModelParams(exp1, 1.0, 0.5, 0.3), 2.0, 40)
    t = np.linspace(0.0, 2.0, 41)
    assert np.array_equal(eq.F, exp1.cdf(t)) and np.array_equal(eq.F0, exp1.eq_cdf(t))
    assert np.array_equal(eq.lag.lags, LagConv.of_law(exp1, 2.0, 40).lags)
    assert np.allclose(eq.drift, 0.3 * np.exp(-t) - 0.5 * (1.0 - np.exp(-t)), rtol=0, atol=1e-15)
    assert (eq.n_steps, eq.dt, eq.horizon) == (40, 0.05, 2.0)


def test_kiefer_spot_value():
    # bdot = 1: k(x, t) = t [(1-x) ln(1/(1-x))]; at x=1/2, t=1: 0.5 ln 2
    b = GridField2D(1.0, np.ones((257, 257)))
    k = kiefer_from_sheet(b)
    assert k.values[128, -1] == pytest.approx(0.5 * np.log(2.0), abs=1e-4)


def test_kiefer_transform_profile():
    b = GridField2D(1.0, np.ones((257, 129)))
    k = kiefer_from_sheet(b)
    x = k.x_grid[1:-1]
    ref = (1.0 - x) * (-np.log(1.0 - x))
    assert np.max(np.abs(k.values[1:-1, -1] - ref)) < 5e-4


@pytest.mark.parametrize("shape, t_horizon", [((2, 2), 1.0), ((33, 65), 1.5), ((257, 129), 1.0)])
def test_kiefer_matches_column_at_a_time_reference(shape, t_horizon):
    # one log-grid helper and a 2-D cumtrap give the bits of the column-by-column pipeline
    b = GridField2D(t_horizon, np.random.default_rng(11).standard_normal(shape))
    assert np.array_equal(kiefer_from_sheet(b).values, kiefer_from_sheet_columns(b))
    assert kiefer_energy(b) == kiefer_energy_columns(b)


def test_kiefer_endpoints_zero():
    rng = np.random.default_rng(5)
    b = GridField2D(1.0, rng.standard_normal((65, 65)))
    k = kiefer_from_sheet(b)
    assert np.all(k.values[:, 0] == 0.0)  # k(x, 0) = 0
    assert np.all(k.values[0, :] == 0.0)  # k(0, t) = 0
    assert np.all(k.values[-1, :] == 0.0)  # k(1, t) = 0


def test_kiefer_energy_identity_constant():
    b = GridField2D(1.0, np.ones((513, 513)))
    e_k, e_b = kiefer_energy(b)
    assert e_b == pytest.approx(1.0, abs=1e-12)
    assert abs(e_k - e_b) / e_b <= 1e-3


def test_kiefer_energy_identity_smooth_field():
    # identity holds for any finite-energy sheet, not just constants
    m = 256
    x = np.linspace(0.0, 1.0, m + 1)[:, None]
    t = np.linspace(0.0, 1.0, m + 1)[None, :]
    b = GridField2D(1.0, np.sin(np.pi * x) * (1.0 + t))
    e_k, e_b = kiefer_energy(b)
    assert abs(e_k - e_b) / e_b < 5e-3


def test_kiefer_energy_against_quad():
    # bdot = 1: kdot(x,t) = 1 + ln(1-x); direct dblquad of kdot^2 equals 1
    ref = dblquad(lambda x, t: (1.0 + np.log(1.0 - x)) ** 2, 0.0, 1.0, 0.0, 1.0 - 1e-12)[0]
    assert ref == pytest.approx(1.0, abs=1e-6)
