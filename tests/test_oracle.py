import numpy as np
import pytest

from mdqueue import (
    GridPath,
    ModelParams,
    ServiceDist,
    build_qp,
    evaluate_rate,
    forward_q,
    lln_path,
    min_rate_terminal,
    solve_min_norm,
)

from mdqueue.oracle import LagConstraints

from conftest import HORIZON, battery_cases
from reference import bordered_min_norm

LAWS = [
    ServiceDist.exponential(1.0),
    ServiceDist.erlang(3, 3.0),
    ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6]),
]


def _loop_constraints(pm, d, T, n_steps, n_x, zero_mean):
    """Dense A built node by node from the path equation (reference for LagConstraints)."""
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
    if zero_mean:
        wx = np.full(m, dx)
        wx[0] = wx[-1] = dx / 2
        extra = np.zeros((1 + n, A.shape[1]))
        extra[0, :m] = wx
        for j in range(n):
            extra[1 + j, m + n + j * m : m + n + (j + 1) * m] = wx
        A = np.vstack([A, extra])
    return A


def test_zero_rhs_gives_zero(exp1):
    # the LLN path satisfies the path equation with no controls: r = 0, value 0
    pm = ModelParams(1.0, 1.0, 0.5, 0.0)
    q = lln_path(pm, exp1, HORIZON, 200)
    c, val, _ = solve_min_norm(build_qp(q, pm, exp1, n_x=8))
    assert val <= 1e-12
    assert np.max(np.abs(c.wdot.values)) < 1e-6


def test_constraint_residual_is_path_defect(pm_std, exp1, q_quad):
    # feeding the QP solution through the forward map must reproduce q
    sys_ = build_qp(q_quad, pm_std, exp1, n_x=16)
    c, _, _ = solve_min_norm(sys_)
    assert np.max(np.abs(sys_.A @ np.concatenate(
        [c.w0dot.values, c.wdot.values, c.kdot.values.T.reshape(-1)]
    ) - sys_.r)) < 1e-8
    q_fwd = forward_q(c, pm_std, exp1)
    assert np.max(np.abs(q_fwd.values - q_quad.values)) < 5e-3


def test_agreement_with_fredholm_battery(exp1):
    for beta, q0, q in battery_cases(200):
        pm = ModelParams(1.0, 1.0, beta, q0)
        rate = evaluate_rate(q, pm, exp1).rate
        _, val, _ = solve_min_norm(build_qp(q, pm, exp1, n_x=32))
        assert abs(val - rate) / (1.0 + rate) <= 0.02


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("n_steps", [2, 3, 40, 41])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_lag_constraints_match_dense(d, n_steps, zero_mean):
    pm = ModelParams(d.mu, 1.5, 0.5, 0.0)
    A = LagConstraints.from_law(pm, d, HORIZON, n_steps, 8, zero_mean=zero_mean)
    dense = _loop_constraints(pm, d, HORIZON, n_steps, 8, zero_mean)
    assert A.shape == dense.shape

    G_ref = (dense / A.weights) @ dense.T
    if zero_mean:
        # the path rows' Gram on the complement of the zero-mean rows: G_pp - B Z^-1 B^T
        G_pp, B, Z = G_ref[:n_steps, :n_steps], G_ref[:n_steps, n_steps:], G_ref[n_steps:, n_steps:]
        assert np.array_equal(Z, np.diag(np.diag(Z)))
        G_ref = G_pp - (B / np.diag(Z)) @ B.T
    assert np.max(np.abs(A.gram() - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))

    rng = np.random.default_rng(n_steps)
    u = rng.standard_normal(dense.shape[1])
    lam = rng.standard_normal(dense.shape[0])
    assert np.max(np.abs(A @ u - dense @ u)) <= 1e-13 * np.max(np.abs(dense @ u))
    assert np.max(np.abs(A.rmatvec(lam) - dense.T @ lam)) <= 1e-13 * np.max(np.abs(dense.T @ lam))


@pytest.mark.parametrize("zero_mean", [False, True], ids=["flags-off", "flags-on"])
@pytest.mark.parametrize("n_steps", [2, 3, 40, 41])
@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_min_norm_matches_bordered_solve(d, n_steps, zero_mean):
    pm = ModelParams(d.mu, 1.5, 0.5, 0.0)
    t = np.linspace(0.0, HORIZON, n_steps + 1)
    sys_ = build_qp(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm, d, n_x=8, zero_mean=zero_mean)
    u_ref, val_ref = bordered_min_norm(sys_)
    c, val, route = solve_min_norm(sys_)
    u = np.concatenate([c.w0dot.values, c.wdot.values, c.kdot.values.T.reshape(-1)])
    assert route == "cholesky"
    assert abs(val - val_ref) <= 1e-12 * val_ref
    assert np.max(np.abs(u - u_ref)) <= 1e-9 * np.max(np.abs(u_ref))


def test_regularized_route_reported(pm_std, exp1, q_quad, monkeypatch, caplog):
    import logging

    from mdqueue.grids import trap_weights

    sys_ = build_qp(q_quad, pm_std, exp1, n_x=16, zero_mean=True)
    _, val_chol, route_chol = solve_min_norm(sys_)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic: not positive definite")

    monkeypatch.setattr("scipy.linalg.cho_factor", singular)
    with pytest.warns(UserWarning, match="regularized"), caplog.at_level(logging.INFO, logger="mdqueue.oracle"):
        c, val, route = solve_min_norm(sys_)
    assert (route_chol, route) == ("cholesky", "regularized")
    assert "regularized route" in caplog.text
    assert abs(val - val_chol) <= 1e-9 * val_chol
    wx = trap_weights(17, 1.0 / 16)
    assert abs(wx @ c.w0dot.values) <= 1e-12
    assert np.max(np.abs(wx @ c.kdot.values)) <= 1e-12


def test_zero_mean_solve_memory(pm_std, exp1):
    # the Gram and its Cholesky factor, N x N each, take 39 MiB; a bordered
    # (2N+2)-row Gram with its copies peaks near 235 MiB
    import tracemalloc

    t = np.linspace(0.0, HORIZON, 1601)
    sys_ = build_qp(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm_std, exp1, n_x=32, zero_mean=True)
    tracemalloc.start()
    try:
        solve_min_norm(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * 2**20


def test_constraint_tables_are_small(pm_std, exp1):
    t = np.linspace(0.0, HORIZON, 1601)
    sys_ = build_qp(GridPath(HORIZON, 0.3 * t * (2.0 - t)), pm_std, exp1, n_x=32, zero_mean=True)
    assert sys_.A.shape == (1600 + 1602, 33 + 1601 + 1601 * 33)
    assert sys_.A.nbytes < 1_000_000


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.family)
def test_agreement_with_fredholm_fine_grid(d):
    t = np.linspace(0.0, HORIZON, 801)
    q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
    pm = ModelParams(d.mu, 1.0, 0.5, 0.0)
    rate = evaluate_rate(q, pm, d).rate
    _, val, _ = solve_min_norm(build_qp(q, pm, d, n_x=32))
    assert abs(val - rate) / (1.0 + rate) <= 0.02


def test_flags_on_raises_value(pm_std, exp1, q_quad):
    _, off, _ = solve_min_norm(build_qp(q_quad, pm_std, exp1, n_x=16, zero_mean=False))
    _, on, _ = solve_min_norm(build_qp(q_quad, pm_std, exp1, n_x=16, zero_mean=True))
    assert on >= off - 1e-12


def test_zero_mean_constraints_hold(pm_std, exp1, q_quad):
    from mdqueue.grids import trap_weights

    c, _, _ = solve_min_norm(build_qp(q_quad, pm_std, exp1, n_x=16, zero_mean=True))
    wx = trap_weights(17, 1.0 / 16)
    assert abs(wx @ c.w0dot.values) < 1e-9
    assert np.max(np.abs(wx @ c.kdot.values)) < 1e-9
    assert c.zero_mean_enforced


def test_refinement_stability(pm_std, exp1):
    vals = []
    for n in (100, 200):
        t = np.linspace(0.0, HORIZON, n + 1)
        q = GridPath(HORIZON, 0.3 * t * (2.0 - t))
        _, v, _ = solve_min_norm(build_qp(q, pm_std, exp1, n_x=32))
        vals.append(v)
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.01


def test_repeated_solves_bit_identical(pm_std, exp1, q_quad):
    sys_ = build_qp(q_quad, pm_std, exp1, n_x=8)
    _, v1, _ = solve_min_norm(sys_)
    _, v2, _ = solve_min_norm(sys_)
    assert v1 == v2


def test_build_qp_rejects_wrong_q0(exp1):
    pm = ModelParams(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        build_qp(GridPath(1.0, np.zeros(11)), pm, exp1)


def test_build_qp_nontrivial_first_row_raises_typed_error(exp1, pm_std, q_quad, monkeypatch):
    from mdqueue.fredholm import FredholmError

    monkeypatch.setattr("mdqueue.oracle.conv_trap", lambda a, b, dt: np.full(len(a), np.nan))
    with pytest.raises(FredholmError, match="t = 0"):
        build_qp(q_quad, pm_std, exp1)


def test_min_rate_terminal_monotone_in_level(exp1):
    pm = ModelParams(1.0, 1.0, 0.5, 0.0)
    vals = [
        min_rate_terminal(a, 1.0, pm, exp1, horizon=1.0, n_steps=50, n_x=8).value
        for a in (0.2, 0.4, 0.8)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_min_rate_terminal_hits_target(exp1):
    pm = ModelParams(1.0, 1.0, 0.5, 0.0)
    res = min_rate_terminal(0.4, 1.0, pm, exp1, horizon=1.0, n_steps=50, n_x=8)
    assert res.pattern_stable
    assert res.q.values[-1] == pytest.approx(0.4, abs=1e-8)
    assert res.value > 0.0


def test_min_rate_terminal_dominated_by_path_rate(exp1):
    # the terminal infimum can be no larger than the rate of any path ending at a
    pm = ModelParams(1.0, 1.0, 0.5, 0.0)
    res = min_rate_terminal(0.3, 2.0, pm, exp1, horizon=2.0, n_steps=100, n_x=16)
    t = np.linspace(0.0, 2.0, 201)
    q = GridPath(2.0, 0.15 * t)  # ends at 0.3
    full = evaluate_rate(q, pm, exp1).rate
    assert res.value <= full + 1e-6
