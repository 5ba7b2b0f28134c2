import time
import warnings

import numpy as np
import pytest

from mdqueue import (
    GridPath,
    ModelParams,
    ServiceDist,
    assemble_kernel,
    dual_value,
    evaluate_rate,
    forcing,
    forward_q,
    rate_value,
    recover_controls,
    solve_p,
)
from mdqueue.fredholm import (
    FredholmError,
    _shift,
    path_derivative,
    shift_matrix,
)
from mdqueue.grids import trap_weights
from mdqueue.paths import PathEquation, defect

from conftest import HORIZON, battery_cases
from reference import equation, kernel_matrix, lln_path, operator_matrix

LAWS = [
    ServiceDist.exponential(1.0),
    ServiceDist.erlang(3, 3.0),
    ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6]),
]


def test_path_derivative_quadratic_exact():
    t = np.linspace(0.0, 2.0, 101)
    q = GridPath(2.0, t**2 - t)
    dq = path_derivative(q)
    assert np.max(np.abs(dq - (2.0 * t - 1.0))) < 1e-10


def test_forcing_rejects_mismatched_q0(exp1):
    pm = ModelParams(exp1, 1.0, 0.0, 0.5)
    q = GridPath(1.0, np.zeros(11))
    with pytest.raises(ValueError, match="q0"):
        forcing(q, defect(q, equation(q, pm)))


def test_forcing_zero_path(exp1):
    # q = 0: the defect is beta F0, so h is its difference quotient, which
    # tends to beta F0' at second order
    pm = ModelParams(exp1, 1.0, 0.7, 0.0)
    errs = []
    for n in (200, 400, 800):
        q = GridPath(2.0, np.zeros(n + 1))
        h = forcing(q, defect(q, equation(q, pm)))
        assert np.max(np.abs(h.values - path_derivative(GridPath(2.0, 0.7 * exp1.eq_cdf(q.times))))) < 1e-12
        errs.append(float(np.max(np.abs(h.values - 0.7 * exp1.eq_pdf(q.times)))))
    assert all(e0 >= 3.5 * e1 for e0, e1 in zip(errs, errs[1:])), errs


def test_exponential_kernel_closed_form(pm_std, exp1):
    t = np.linspace(0.0, HORIZON, 65)
    s, tt = t[:, None], t[None, :]
    exact = 0.5 * (np.exp(-np.abs(s - tt)) + np.exp(-(s + tt)))
    assert np.max(np.abs(kernel_matrix(exp1, pm_std.sigma, HORIZON, 64) - exact)) <= 1e-10


def test_shift_matrix_adjoint_relation(exp1):
    # S* in the trapezoid inner product is the forward convolution
    S = shift_matrix(exp1, 2.0, 40)
    from mdqueue.grids import conv_trap, trap_weights

    w = trap_weights(41, 0.05)
    rng = np.random.default_rng(2)
    p, v = rng.standard_normal(41), rng.standard_normal(41)
    lhs = float((w * v) @ (S @ p))
    rhs = float((w * p) @ ((S.T * w[None, :] / w[:, None]) @ v))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # and the adjoint action is the prefix convolution with F'
    t = np.linspace(0.0, 2.0, 41)
    conv = conv_trap(v, exp1.pdf(t), 0.05)
    adj = (S.T @ (w * v)) / w
    # node 0 differs: the continuum prefix integral is 0 there while the
    # discrete adjoint keeps the diagonal half-weight
    assert np.max(np.abs(adj[1:-1] - conv[1:-1])) < 1e-12


@pytest.mark.parametrize("n_steps", [40, 41, 400, 401])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_shift_operator_matches_dense(d, n_steps):
    # S p, and the operator mu I + sigma^2 (I - S*)(I - S), S* = W^-1 S^T W, against the dense S
    pm = ModelParams(d, 1.5, 0.0, 0.0)
    eq = PathEquation.from_law(pm, HORIZON, n_steps)
    S = shift_matrix(d, HORIZON, n_steps)
    w = trap_weights(n_steps + 1, HORIZON / n_steps)
    rng = np.random.default_rng(n_steps)
    p, v = rng.standard_normal(n_steps + 1), rng.standard_normal(n_steps + 1)
    assert np.max(np.abs(_shift(eq, p) - S @ p)) <= 1e-14
    u = v - S @ v
    dense = pm.mu * v + pm.sigma**2 * (u - (S.T @ (w * u)) / w)
    assert np.max(np.abs(assemble_kernel(eq)(v) - dense)) <= 1e-14


@pytest.mark.parametrize("d", LAWS[1:], ids=lambda d: d.family)
def test_cg_matches_dense_solve_at_large_sigma(d, q_quad):
    # sigma^2 / mu = 9: the fixed-point map p <- (h + K p) / (mu + sigma^2)
    # is not a contraction here, but CG on the SPD form still converges
    pm = ModelParams(d, 3.0, 0.5, 0.0)
    eq = equation(q_quad, pm)
    h = forcing(q_quad, defect(q_quad, eq))
    p, diag = solve_p(h, eq, q_quad)
    A = (pm.mu + pm.sigma**2) * np.eye(len(h.values)) - operator_matrix(d, pm.sigma, HORIZON, q_quad.n_steps)
    assert diag["method"] == "cg"
    assert np.max(np.abs(p.values - np.linalg.solve(A, h.values))) < 1e-8


def test_zero_forcing_gives_zero_adjoint(pm_std):
    zero = GridPath(HORIZON, np.zeros(201))
    p, diag = solve_p(zero, PathEquation.from_law(pm_std, HORIZON, 200), zero)
    assert not np.any(p.values)
    assert diag["iterations"] == 0 and diag["residual"] == 0.0


def test_rate_at_fine_grid(pm_std):
    # N = 10^4 needs no (N+1) x (N+1) array, so it is cheap
    t = np.linspace(0.0, HORIZON, 10_001)
    q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
    t0 = time.perf_counter()
    res = evaluate_rate(q, equation(q, pm_std))
    assert time.perf_counter() - t0 <= 10.0
    assert abs(res.rate - res.dual) / (1.0 + res.rate) <= 1e-10


def test_negative_duality_gap_raises(pm_std, exp1, q_quad, monkeypatch):
    # an adjoint 10% short of the one its residual describes: the gap is
    # -0.09 rate, far past what that residual allows.  At beta = q0 = 0 the forcing
    # is linear in q, so q scaled by c scales the rate and the gap by c^2: the
    # check is relative to them, and an absolute 1e-12 passed the gap of 4.6e-17 at 1e-7
    def short_solve(h, eq, q):
        p, diag = solve_p(h, eq, q)
        return GridPath(p.horizon, 0.9 * p.values), diag

    monkeypatch.setattr("mdqueue.fredholm.solve_p", short_solve)
    pm0 = ModelParams(exp1, 1.0, 0.0, 0.0)
    for pm, c in ((pm_std, 1.0), (pm0, 1.0), (pm0, 1e-3), (pm0, 1e-7)):
        q = GridPath(HORIZON, c * q_quad.values)
        with pytest.raises(FredholmError, match="duality gap"):
            evaluate_rate(q, equation(q, pm))


@pytest.mark.parametrize("case, iters", [("cap", 1), ("nan", 0)])
def test_adjoint_cg_cap_and_nan_raise(pm_std, q_quad, monkeypatch, case, iters):
    # the CG stops at its cap, or at once on a NaN residual, and the driver
    # then raises
    eq = equation(q_quad, pm_std)
    h = forcing(q_quad, defect(q_quad, eq))
    if case == "cap":
        monkeypatch.setattr("mdqueue.fredholm._CG_MAX_ITER", 1)
    else:
        h.values[5] = np.nan
    with pytest.raises(FredholmError, match=rf"adjoint CG: relative residual .* after {iters} iterations"):
        solve_p(h, eq, q_quad)


def test_picard_and_direct_agree(pm_std, exp1, q_quad):
    eq = equation(q_quad, pm_std)
    h = forcing(q_quad, defect(q_quad, eq))
    p_pic, diag = solve_p(h, eq, q_quad)
    A = (pm_std.mu + pm_std.sigma**2) * np.eye(len(h.values)) - operator_matrix(
        exp1, pm_std.sigma, HORIZON, q_quad.n_steps
    )
    p_dir = np.linalg.solve(A, h.values)
    assert np.max(np.abs(p_pic.values - p_dir)) < 1e-8


def test_rate_nonnegative_and_dual_exact(pm_std, q_quad):
    res = evaluate_rate(q_quad, equation(q_quad, pm_std))
    assert res.rate >= 0.0
    assert abs(res.rate - res.dual) <= 1e-10 * (1.0 + res.rate)


def test_rate_sigma_limit(exp1, q_quad):
    # larger sigma means cheaper arrival control, so the rate decreases
    r_small = evaluate_rate(q_quad, equation(q_quad, ModelParams(exp1, 0.5, 0.5, 0.0))).rate
    r_big = evaluate_rate(q_quad, equation(q_quad, ModelParams(exp1, 2.0, 0.5, 0.0))).rate
    assert r_big < r_small


def test_rate_value_negative_raises():
    p = GridPath(1.0, np.array([1.0, 1.0, 1.0]))
    h = GridPath(1.0, np.array([-1.0, -1.0, -1.0]))
    with pytest.raises(FredholmError):
        rate_value(p, h)
    # the clamp is relative to the size of the terms: the same pairing at 1e-100 raises too,
    # where an absolute -1e-10 clamped -1e-200 to 0
    with pytest.raises(FredholmError):
        rate_value(GridPath(1.0, 1e-100 * p.values), GridPath(1.0, 1e-100 * h.values))
    # a NaN pairing fails the same sign check; GridPath itself rejects NaN values
    object.__setattr__(h, "values", np.full(3, np.nan))
    with pytest.raises(FredholmError):
        rate_value(p, h)


def test_rate_value_in_the_normal_range_is_the_sum_at_the_path_scale(pm_std, q_quad):
    # p and h are scaled by powers of two, which is exact here, so the rate is bit for bit the plain sum
    res = evaluate_rate(q_quad, equation(q_quad, pm_std))
    assert res.rate == 0.5 * float(res.adjoint.weights() @ (res.adjoint.values * res.forcing.values))


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_rate_past_the_float_range_raises_without_warnings(scale):
    # p h at the path's scale overflowed, with numpy RuntimeWarnings, to "rate value nan below
    # -inf"; summed at unit scale, the rate is a FredholmError that names the float range
    pm = ModelParams(ServiceDist.erlang(3, 3.0), 1.0, 0.0, 0.0)
    t = np.linspace(0.0, HORIZON, 201)
    q = GridPath(HORIZON, scale * 0.3 * t * (2.0 - t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FredholmError, match="past the float range"):
            evaluate_rate(q, equation(q, pm))


def test_dual_at_perturbed_point_is_lower(pm_std, q_quad):
    # concavity: any perturbation of the adjoint lowers the dual objective
    eq = equation(q_quad, pm_std)
    res = evaluate_rate(q_quad, eq)
    h = res.forcing
    rng = np.random.default_rng(3)
    for _ in range(3):
        pert = GridPath(HORIZON, res.adjoint.values + 0.05 * rng.standard_normal(len(h.values)))
        wdot = recover_controls(pert, eq).wdot
        assert dual_value(pert, h, eq, wdot) <= res.dual + 1e-12


def test_lln_path_zero_rate(exp1):
    for beta in (-1.0, 0.0, 1.0):
        pm = ModelParams(exp1, 1.0, beta, 0.0)
        eq = PathEquation.from_law(pm, HORIZON, 800)
        assert evaluate_rate(lln_path(eq), eq).rate <= 1e-10


def test_roundtrip_battery(exp1):
    for beta, q0, q in battery_cases(200):
        eq = equation(q, ModelParams(exp1, 1.0, beta, q0))
        q_rt = forward_q(evaluate_rate(q, eq).controls, eq)
        scale = max(1.0, float(np.max(np.abs(q.values))))
        assert np.max(np.abs(q_rt.values - q.values)) / scale <= 0.03


@pytest.mark.parametrize("d", LAWS[1:], ids=lambda d: d.family)
def test_roundtrip_battery_non_exponential(d):
    # F0 and F differ for these laws, so w0dot read through F^-1 or kdot
    # through F0^-1 fails here (errors of 0.024 to 0.15); the correct controls
    # give at most 0.0043
    for beta, q0, q in battery_cases(200):
        eq = equation(q, ModelParams(d, 1.0, beta, q0))
        q_rt = forward_q(evaluate_rate(q, eq).controls, eq)
        scale = max(1.0, float(np.max(np.abs(q.values))))
        assert np.max(np.abs(q_rt.values - q.values)) / scale <= 0.01


def test_roundtrip_improves_with_refinement(pm_std):
    errs = []
    for n in (200, 400):
        t = np.linspace(0.0, HORIZON, n + 1)
        q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
        eq = equation(q, pm_std)
        q_rt = forward_q(evaluate_rate(q, eq).controls, eq)
        errs.append(float(np.max(np.abs(q_rt.values - q.values))))
    assert errs[1] < errs[0]


def test_recovered_controls_shapes(pm_std, q_quad):
    eq = PathEquation.from_law(pm_std, HORIZON, 200)
    c = recover_controls(GridPath(HORIZON, np.ones(201)), eq, n_x=16)
    assert c.w0dot.values.shape == (17,)
    assert c.wdot.values.shape == (201,)
    assert c.kdot.values.shape == (17, 201)
    assert c.kdot.t_horizon == pytest.approx(pm_std.mu * HORIZON)


def test_erlang_rate_runs(exp1):
    # non-exponential service exercises the generic quadrature path end to end
    d = ServiceDist.erlang(2, 2.0)
    pm = ModelParams(d, 1.0, 0.5, 0.0)
    t = np.linspace(0.0, 2.0, 201)
    q = GridPath(2.0, 0.3 * t * (2.0 - t))
    res = evaluate_rate(q, equation(q, pm))
    assert res.rate > 0.0
    assert abs(res.rate - res.dual) <= 1e-8 * (1.0 + res.rate)


def test_adjoint_off_the_equation_grid_raises(pm_std, q_quad):
    # the rate and the controls read the law from the equation: q and p must live on its grid
    eq = PathEquation.from_law(pm_std, HORIZON, 100)
    with pytest.raises(ValueError, match="not on the grid of its path equation"):
        evaluate_rate(q_quad, eq)
    with pytest.raises(ValueError, match="not on the grid of its path equation"):
        recover_controls(GridPath(HORIZON, np.ones(201)), eq)
    # the adjoint solve reads the model and the lag from eq, so h must live on its grid: solved
    # with the lag of another horizon in as many steps, the hump path's rate read 0.1374 in place
    # of 0.1157, with no error
    h = GridPath(2 * HORIZON, np.ones(101))
    with pytest.raises(ValueError, match="not on the grid of its path equation"):
        solve_p(h, eq, q_quad)


def test_dual_value_off_the_equation_grid_raises(pm_std):
    # the dual reads mu from eq, so p, h and wdot must live on its grid: an adjoint on [0, 4]
    # against an equation on [0, 2] is refused
    eq = PathEquation.from_law(pm_std, 2.0, 100)
    on, off = GridPath(2.0, np.ones(101)), GridPath(4.0, np.ones(101))
    assert dual_value(on, on, eq, on) == pytest.approx(2.0 - 0.5 * (pm_std.mu * 2.0 + 2.0), abs=1e-14)
    for p, h, wdot in ((off, on, on), (on, off, on), (on, on, off)):
        with pytest.raises(ValueError, match="not on the grid of its path equation"):
            dual_value(p, h, eq, wdot)
