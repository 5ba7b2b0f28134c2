import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqueue import (
    ControlSet,
    GridField2D,
    GridPath,
    ModelParams,
    RenewalConvergenceError,
    ServiceDist,
    build_qp,
    defect,
    evaluate_rate,
    solve_min_norm,
)

from mdqueue.paths import PathEquation, TridiagInverse

from conftest import HORIZON, battery_cases
from reference import continuum_gram, equation, lag_gram, lln_path, min_kernel_min_norm, qp_of

LAWS = [
    ServiceDist.exponential(1.0),
    ServiceDist.erlang(3, 3.0),
    ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6]),
]


def _loop_constraints(pm, d, T, n_steps, n_x, zero_mean):
    """Dense A on an M-node x grid, built node by node from the path equation,
    with the zero-mean rows below the path rows when `zero_mean`, and the
    diagonal of its trapezoid metric W (reference for PathEquation)."""
    from mdqueue.grids import trap_weights
    from mdqueue.paths import partial_cell_weights

    t = np.linspace(0.0, T, n_steps + 1)
    dt, dx = T / n_steps, 1.0 / n_x
    m, n = n_x + 1, n_steps + 1
    P0 = partial_cell_weights(d.eq_cdf(t), m, dx)
    xw = partial_cell_weights(d.cdf(t), m, dx)
    surv = 1.0 - d.cdf(t)
    A = np.zeros((n, m + n + n * m))
    A[:, :m] = P0
    for i in range(1, n):
        for j in range(i + 1):
            tw = dt / 2 if j in (0, i) else dt
            A[i, m + j] = pm.sigma * tw * surv[i - j]
            A[i, m + n + j * m : m + n + (j + 1) * m] = pm.mu * tw * xw[i - j]
    A = A[1:]
    wx, wt = trap_weights(m, dx), trap_weights(n, dt)
    if zero_mean:
        extra = np.zeros((1 + n, A.shape[1]))
        extra[0, :m] = wx
        for j in range(n):
            extra[1 + j, m + n + j * m : m + n + (j + 1) * m] = wx
        A = np.vstack([A, extra])
    return A, np.concatenate([wx, wt, np.kron(pm.mu * wt, wx)])


def _grid_gram(pm, d, T, n_steps, n_x, zero_mean):
    """The Gram A W^-1 A^T of the path rows on the M-node x grid; with
    `zero_mean` its Schur complement G_pp - B Z^-1 B^T on the zero-mean rows."""
    A, w = _loop_constraints(pm, d, T, n_steps, n_x, zero_mean)
    G = (A / w) @ A.T
    if not zero_mean:
        return G
    G_pp, B, Z = G[:n_steps, :n_steps], G[:n_steps, n_steps:], G[n_steps:, n_steps:]
    assert np.array_equal(Z, np.diag(np.diag(Z)))
    return G_pp - (B / np.diag(Z)) @ B.T


def test_zero_rhs_gives_zero(exp1):
    # the LLN path satisfies the path equation with no controls: r = 0, value 0
    pm = ModelParams(exp1, 1.0, 0.5, 0.0)
    q = lln_path(PathEquation.from_law(pm, HORIZON, 200))
    val, _ = solve_min_norm(qp_of(q, pm))
    assert val <= 1e-12


def test_agreement_with_fredholm_battery(exp1):
    for beta, q0, q in battery_cases(200):
        pm = ModelParams(exp1, 1.0, beta, q0)
        rate = evaluate_rate(q, equation(q, pm)).rate
        val, _ = solve_min_norm(qp_of(q, pm))
        assert abs(val - rate) / (1.0 + rate) <= 0.02


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("n_steps", [2, 3, 40, 41])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_lag_constraints_match_dense(d, n_steps, zero_mean):
    pm = ModelParams(d, 1.5, 0.5, 0.0)
    A = PathEquation.from_law(pm, HORIZON, n_steps)
    G_ref = continuum_gram(pm, d, HORIZON, n_steps, zero_mean)
    v = np.random.default_rng(n_steps).standard_normal(n_steps)
    assert np.max(np.abs(A.gram_operator(zero_mean) @ v - G_ref @ v)) <= 1e-12 * np.max(np.abs(G_ref @ v))
    assert np.max(np.abs(lag_gram(A, zero_mean) - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))

    # the dense rows act on the controls packed as (w0dot, wdot, kdot x-major per time node)
    m, n = 9, n_steps + 1
    dense = _loop_constraints(pm, d, HORIZON, n_steps, m - 1, False)[0]
    u = np.random.default_rng(n_steps).standard_normal(dense.shape[1])
    c = ControlSet(GridPath(1.0, u[:m]), GridPath(HORIZON, u[m : m + n]),
                   GridField2D(pm.mu * HORIZON, u[m + n :].reshape(n, m).T))
    assert np.max(np.abs(A @ c - dense @ u)) <= 1e-13 * np.max(np.abs(dense @ u))


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_grid_gram_converges_to_gram(d, zero_mean):
    # the Gram of the forward map's x-grid rows tends to the exact-in-x Gram
    # at first order in dx, so `@` and the Gram describe the same operator
    pm = ModelParams(d, 1.5, 0.5, 0.0)
    G = lag_gram(PathEquation.from_law(pm, HORIZON, 40), zero_mean)
    errs = [np.max(np.abs(_grid_gram(pm, d, HORIZON, 40, m, zero_mean) - G)) / np.max(np.abs(G))
            for m in (8, 16, 32, 64, 128)]
    assert all(e0 >= 1.7 * e1 for e0, e1 in zip(errs, errs[1:])), errs


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("n_steps", [2, 3, 40, 41])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_min_norm_matches_bordered_solve(d, n_steps, zero_mean):
    # the value is the least energy 1/2 r' G^-1 r of the dense continuum Gram
    pm = ModelParams(d, 1.5, 0.5, 0.0)
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    sys_ = qp_of(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm)
    assert len(sys_.r) == n_steps
    val_ref = 0.5 * float(sys_.r @ np.linalg.solve(continuum_gram(pm, d, HORIZON, n_steps, zero_mean), sys_.r))
    val, diag = solve_min_norm(sys_, zero_mean)
    assert diag["route"] == "pcg"
    assert abs(val - val_ref) <= 1e-12 * val_ref


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("n_steps", [41, 200, 400])
@pytest.mark.parametrize("sigma", [0.05, 1.0, 3.0, 10.0, 100.0])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_pcg_matches_cholesky_of_reference_gram(d, sigma, n_steps, zero_mean):
    from scipy.linalg import cho_factor, cho_solve

    pm = ModelParams(d, sigma, 0.5, 0.0)
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    sys_ = qp_of(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm)
    val_ref = 0.5 * float(sys_.r @ cho_solve(cho_factor(lag_gram(sys_.A, zero_mean)), sys_.r))
    val, diag = solve_min_norm(sys_, zero_mean)
    assert diag["residual"] <= 1e-12
    assert abs(val - val_ref) <= 1e-12 * val_ref


PCG_ITERATIONS = 12  # at most 10 were run over the grid of test_pcg_matches_min_kernel_route
MIN_KERNEL_CASES = [(n, sigma) for n in (400, 1600) for sigma in (0.05, 1.0, 3.0, 10.0, 100.0)] + [
    (10_000, sigma) for sigma in (0.05, 1.0, 3.0)]


@pytest.mark.parametrize("n_steps, sigma", MIN_KERNEL_CASES, ids=[f"N{n}-s{s:g}" for n, s in MIN_KERNEL_CASES])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_pcg_matches_min_kernel_route(d, n_steps, sigma):
    # the earlier preconditioner inverted only the min kernel and took up to 483
    # iterations here; the tridiagonal one takes a count that does not grow with sigma
    pm = ModelParams(d, sigma, 0.5, 0.0)
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    sys_ = qp_of(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm)
    for zero_mean in (False, True):
        val, diag = solve_min_norm(sys_, zero_mean)
        val_ref, _ = min_kernel_min_norm(sys_, zero_mean)
        assert abs(val - val_ref) <= 1e-12 * val_ref
        assert diag["iterations"] <= PCG_ITERATIONS


def _dense_tridiag(d_minus, d_plus, e, delta_1, delta_n, n):
    M = np.diag(np.full(n, 0.5 * (d_minus + d_plus))) + e * (np.eye(n, k=1) + np.eye(n, k=-1))
    M[0, 0] += delta_1
    M[-1, -1] += delta_n
    return M


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
@pytest.mark.parametrize("coeffs, a", [
    ((1.0, 1.0, 0.0, 0.0, 0.0), 0.0),  # e = 0: the diagonal m I
    ((1.0, 3.0, 0.5, 0.5, 0.5), None),  # fine grid, a in (0, 1)
    ((1e-40, 1.0, 0.25, 0.25, 0.25), 1.0),  # d_- / d_+ below round-off: a rounds to 1
    ((2.0, 0.5, -0.375, -0.1, 0.25), None),  # coarse grid, a in (-1, 0), a negative corner term
], ids=["a0", "a-mid", "a1", "a-negative"])
def test_tridiag_inverse_matches_dense(coeffs, a, n):
    tri = TridiagInverse.of(*coeffs, n=n)
    if a is not None:
        assert abs(tri.a - a) <= 1e-15
    x = np.random.default_rng(n).standard_normal(n)
    ref = np.linalg.solve(_dense_tridiag(*coeffs, n), x)
    assert np.max(np.abs(tri.solve(x.copy()) / tri.c - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("d, sigma, horizon, a", [
    (ServiceDist.exponential(1.0), 1e-170, HORIZON, 0.0),  # sigma^2 underflows
    (ServiceDist.exponential(1.0), 1.0, HORIZON, None),
    (ServiceDist.erlang(20, 20.0), 1e20, 0.1, 1.0),  # F_1 and m / p below round-off
    (ServiceDist.exponential(1.0), 3.0, 80.0, None),  # dt F'(0) = 2: a < 0
], ids=["a0", "a-mid", "a1", "coarse"])
@pytest.mark.parametrize("n_steps", [2, 7, 40])
def test_precond_is_leading_tridiagonal_of_differenced_gram(d, sigma, horizon, a, n_steps, zero_mean):
    # c^-1 precond is D^T M^-1 D, D the backward difference and M, from the first
    # two lags alone, m I + p R W^-1 R^T, less m R_F W^-1 R_F^T with zero mean
    A = PathEquation.from_law(ModelParams(d, sigma, 0.0, 0.0), horizon, n_steps)
    G = A.gram_operator(zero_mean)
    if a is not None:
        assert abs(G.tri.a - a) <= 1e-15
    n, m, p, F1 = n_steps, A.pm.mu * A.dt, A.pm.sigma * A.pm.sigma * A.dt, A.F[1]
    R, R_F = np.zeros((n, n + 1)), np.zeros((n, n + 1))  # row i - 1 for t_i, column j for t_j
    R[0, 0], R_F[0, 0] = 0.5 * (1.0 - F1), 0.5 * F1
    for i in range(1, n + 1):
        R[i - 1, i] = 0.5
        if i >= 2:
            R[i - 1, i - 1], R_F[i - 1, i - 1] = 0.5 - F1, F1
    w_inv = np.ones(n + 1)
    w_inv[[0, -1]] = 2.0
    M = m * np.eye(n) + p * (R * w_inv) @ R.T - (m * (R_F * w_inv) @ R_F.T if zero_mean else 0.0)
    D = np.eye(n) - np.eye(n, k=-1)
    r = np.random.default_rng(n).standard_normal(n)
    ref = D.T @ np.linalg.solve(M, D @ r)
    assert np.max(np.abs(G.precond(r) / G.tri.c - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e-150, 1e-160])
def test_value_scales_with_the_path(exp1, scale):
    # with beta = q0 = 0 the defect is homogeneous in q, so the value is scale^2
    # times that of q; CG runs on r / |r|, so r . z neither overflows nor underflows
    # (at scale 1e-160 it used to underflow to 0 and divide by it); 1e-322 covers
    # the subnormal spacing of a value near 6e-321
    pm = ModelParams(exp1, 1.0, 0.0, 0.0)
    t = np.linspace(0.0, HORIZON, 201)
    val, _ = solve_min_norm(qp_of(GridPath(HORIZON, t * (2.0 - t)), pm))
    scaled, _ = solve_min_norm(qp_of(GridPath(HORIZON, scale * t * (2.0 - t)), pm))
    assert abs(scaled - scale * scale * val) <= 1e-12 * scale * scale * val + 1e-322


def test_pcg_reports_iterations(pm_std, q_quad, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="mdqueue.oracle"):
        _, diag = solve_min_norm(qp_of(q_quad, pm_std), zero_mean=True)
    assert diag["route"] == "pcg" and 0 < diag["iterations"] <= 40
    assert f"pcg, {diag['iterations']} iterations, relative residual {diag['residual']:.3e}" in caplog.text


def test_pcg_iteration_cap_raises(pm_std, q_quad, monkeypatch):
    from mdqueue.fredholm import FredholmError

    monkeypatch.setattr("mdqueue.oracle._pcg_cap", lambda n: 1)
    with pytest.raises(FredholmError, match="after 1 iterations"):
        solve_min_norm(qp_of(q_quad, pm_std))


def test_zero_mean_solve_memory(pm_std):
    # PCG keeps O(N) vectors and FFT buffers (under 1 MiB); the N x N Gram
    # alone would take 20 MiB
    import tracemalloc

    t = np.linspace(0.0, HORIZON, 1601)
    sys_ = qp_of(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm_std)
    tracemalloc.start()
    try:
        solve_min_norm(sys_, zero_mean=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_constraint_tables_are_small(pm_std):
    t = np.linspace(0.0, HORIZON, 1601)
    sys_ = qp_of(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm_std)
    assert len(sys_.r) == 1600
    assert sys_.A.nbytes < 1_000_000


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_agreement_with_fredholm_fine_grid(d):
    t = np.linspace(0.0, HORIZON, 801)
    q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
    pm = ModelParams(d, 1.0, 0.5, 0.0)
    rate = evaluate_rate(q, equation(q, pm)).rate
    val, _ = solve_min_norm(qp_of(q, pm))
    assert abs(val - rate) / (1.0 + rate) <= 0.02


@pytest.mark.parametrize("sigma", [1.0, 3.0])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_oracle_fredholm_gap_is_second_order(d, sigma):
    # on the hump path both routes are second order in dt, so their gap is too
    pm = ModelParams(d, sigma, 0.5, 0.0)
    gaps = []
    for n in (200, 400, 800):
        t = np.linspace(0.0, HORIZON, n + 1)
        q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
        rate = evaluate_rate(q, equation(q, pm)).rate
        val, _ = solve_min_norm(qp_of(q, pm))
        gaps.append(abs(val - rate) / rate)
    assert all(g0 >= 3.5 * g1 for g0, g1 in zip(gaps, gaps[1:])), gaps


CROSSINGS = {
    "node": (-0.5, lambda t: -0.5 + 0.4 * t),  # zero at the node t = 1.25
    "between-nodes": (-0.5, lambda t: -0.5 + 0.37 * t),
    "downward": (0.3, lambda t: 0.3 - 0.4 * t),
}


@pytest.mark.parametrize("path", list(CROSSINGS))
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_oracle_fredholm_gap_is_second_order_on_crossing_paths(d, path):
    # the forcing differentiates the oracle's defect, so a sign change of q
    # inside (0, T) costs no order
    q0, f = CROSSINGS[path]
    pm = ModelParams(d, 1.0, 0.0, q0)
    gaps = []
    for n in (200, 400, 800):
        q = GridPath(HORIZON, f(np.linspace(0.0, HORIZON, n + 1)))
        val, _ = solve_min_norm(qp_of(q, pm))
        gaps.append(abs(evaluate_rate(q, equation(q, pm)).rate - val) / val)
    assert gaps[0] <= 2e-4
    assert all(g0 >= 3.5 * g1 for g0, g1 in zip(gaps, gaps[1:])), gaps


def test_flags_on_raises_value(pm_std, q_quad):
    off, _ = solve_min_norm(qp_of(q_quad, pm_std))
    on, _ = solve_min_norm(qp_of(q_quad, pm_std), zero_mean=True)
    assert on >= off - 1e-12


def test_refinement_stability(pm_std):
    vals = []
    for n in (100, 200):
        t = np.linspace(0.0, HORIZON, n + 1)
        q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
        v, _ = solve_min_norm(qp_of(q, pm_std))
        vals.append(v)
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.01


def test_repeated_solves_bit_identical(pm_std, q_quad):
    sys_ = qp_of(q_quad, pm_std)
    v1, _ = solve_min_norm(sys_)
    v2, _ = solve_min_norm(sys_)
    assert v1 == v2


def test_build_qp_rejects_wrong_q0(exp1):
    pm = ModelParams(exp1, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        qp_of(GridPath(1.0, np.zeros(11)), pm)


def test_build_qp_nontrivial_first_row_raises_typed_error(pm_std, q_quad, monkeypatch):
    from mdqueue.fredholm import FredholmError
    from mdqueue.grids import LagConv

    class NaNLag:  # a lag whose feedback term is NaN at every node, t = 0 included
        def __matmul__(self, u):
            return np.full(len(u), np.nan)

    monkeypatch.setattr(LagConv, "of_law", classmethod(lambda cls, d, horizon, n_steps: NaNLag()))
    with pytest.raises(FredholmError, match="t = 0"):
        qp_of(q_quad, pm_std)


# paths from q(0) = 0 on [0, HORIZON]: a hump, a rise and a sine that crosses zero
SCALING_PATHS = {
    "hump": lambda t: 0.3 * t * (2.0 - t),
    "rise": lambda t: 0.2 * t * t,
    "crossing": lambda t: 0.4 * np.sin(np.pi * t),
}


@pytest.mark.parametrize("c", [0.1, 7.0])
@pytest.mark.parametrize("path", sorted(SCALING_PATHS))
@pytest.mark.parametrize("sigma", [0.05, 1.0, 100.0])
@pytest.mark.parametrize("d", LAWS, ids=["exp", "erlang3", "hyperexp"])
def test_rate_scales_quadratically(d, sigma, path, c):
    # with beta = q0 = 0 the drift is 0 and the defect is positively homogeneous in q,
    # so I(c q) = c^2 I(q) for c > 0, on the adjoint route and on the oracle's
    pm = ModelParams(d, sigma=sigma, beta=0.0, q0=0.0)
    q = SCALING_PATHS[path](np.linspace(0.0, HORIZON, 101))
    eq = PathEquation.from_law(pm, HORIZON, 100)
    for rate in (lambda v: evaluate_rate(GridPath(HORIZON, v), eq).rate,
                 lambda v: solve_min_norm(qp_of(GridPath(HORIZON, v), pm))[0]):
        base = rate(q)
        assert base > 0.0
        assert abs(rate(c * q) - c * c * base) <= 1e-12 * c * c * base



LLN_LAWS = st.one_of(
    st.floats(0.1, 10.0).map(ServiceDist.exponential),
    st.builds(ServiceDist.erlang, st.integers(1, 7), st.floats(0.1, 10.0)),
    st.builds(lambda w, rates: ServiceDist.hyperexponential([w, 1.0 - w], rates),
              st.floats(0.1, 0.9), st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2)),
)


@settings(max_examples=100, deadline=None)
@given(d=LLN_LAWS, sigma=st.floats(0.05, 100.0), beta=st.floats(-1.0, 1.0), q0=st.floats(-1.0, 1.0),
       horizon=st.floats(0.3, 300.0), n_steps=st.integers(50, 800))
def test_lln_path_has_zero_rate_on_both_routes(d, sigma, beta, q0, horizon, n_steps):
    # criterion 5 drawn over laws, grids and parameters: the zero-control path costs nothing on
    # either route, unless the renewal march cannot solve on the grid, which is a typed error
    eq = PathEquation.from_law(ModelParams(d, sigma, beta, q0), horizon, n_steps)
    try:
        q = lln_path(eq)
    except RenewalConvergenceError:
        return
    bound = 1e-12 * (1.0 + float(np.max(np.abs(q.values))) ** 2)
    assert evaluate_rate(q, eq).rate <= bound
    assert solve_min_norm(build_qp(eq, defect(q, eq)))[0] <= bound
