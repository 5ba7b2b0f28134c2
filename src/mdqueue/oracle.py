"""Brute-force rate evaluation: minimum-weighted-norm controls subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .fredholm import FredholmError
from .grids import GridField2D, GridPath, conv_trap, lags, volterra_weights
from .paths import ControlSet, LagConstraints, ModelParams, drift

__all__ = ["LagConstraints", "QPSystem", "build_qp", "solve_min_norm", "min_rate_terminal", "TerminalRateResult"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QPSystem:
    """Stacked affine system A u = r over u = (w0dot nodes, wdot nodes, kdot nodes),
    with strictly positive quadrature weights w defining the objective 1/2 u' W u."""

    A: LagConstraints
    r: np.ndarray
    w: np.ndarray
    n_x: int
    n_steps: int
    horizon: float
    mu: float
    zero_mean_rows: int = 0

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        m, n = self.n_x + 1, self.n_steps + 1
        return slice(0, m), slice(m, m + n), slice(m + n, m + n + m * n)


def build_qp(
    q: GridPath,
    pm: ModelParams,
    d: ServiceDist,
    n_x: int = 32,
    zero_mean: bool = False,
) -> QPSystem:
    """Assemble the affine constraints A u = r whose residual at u is the
    pointwise defect of the path equation (affine in the controls given q)."""
    if abs(q.values[0] - pm.q0) > 1e-9:
        raise ValueError("q(0) must equal q0")
    t = q.times
    qplus = np.maximum(q.values, 0.0)
    r_full = q.values - conv_trap(qplus, d.pdf(t), q.dt) - drift(pm, d, t)
    if not abs(r_full[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r_full[0]!r}")

    A = LagConstraints.from_law(pm, d, q.horizon, q.n_steps, n_x, zero_mean=zero_mean)
    zm_rows = q.n_steps + 2 if zero_mean else 0
    # the trivial t = 0 row is dropped
    r = np.concatenate([r_full[1:], np.zeros(zm_rows)])
    return QPSystem(
        A=A, r=r, w=A.weights, n_x=n_x, n_steps=q.n_steps, horizon=q.horizon, mu=pm.mu, zero_mean_rows=zm_rows
    )


def solve_min_norm(sys: QPSystem) -> tuple[ControlSet, float, str]:
    """Minimum-weighted-norm solution u* = W^-1 A' (A W^-1 A')^-1 r via a
    symmetric positive-definite factorization; value = 1/2 ||u*||_W^2.

    Only the N x N Gram of the path rows is factored (`LagConstraints.gram`).
    With the zero-mean rows it is their Schur complement, so u* is W^-1 A' lam
    over the path rows with the wx-weighted mean then taken out of w0dot and
    of each kdot time slice, the W-orthogonal projection onto those rows.
    The route is "cholesky", or "regularized" when the Gram is numerically
    rank-deficient and a diagonal shift of 1e-12 of its mean diagonal is
    solved instead (with a warning).
    """
    from scipy.linalg import cho_factor, cho_solve

    G = sys.A.gram()
    r = sys.r[: sys.n_steps]
    try:
        lam = cho_solve(cho_factor(G), r)
        route = "cholesky"
    except np.linalg.LinAlgError:
        warnings.warn("constraint Gram matrix rank-deficient; using regularized solve")
        G.flat[:: len(G) + 1] += 1e-12 * np.trace(G) / len(G)
        lam = np.linalg.solve(G, r)
        route = "regularized"
    log.info("min-norm QP (%d path rows, zero mean %s): %s route", len(r), sys.zero_mean_rows > 0, route)
    u = sys.A.rmatvec(np.concatenate([lam, np.zeros(sys.zero_mean_rows)])) / sys.w

    sl0, sl1, slk = sys.slices
    m, n = sys.n_x + 1, sys.n_steps + 1
    w0dot, kdot = u[sl0], u[slk].reshape(n, m)  # views: the projection below also updates u
    if sys.zero_mean_rows:
        wx = sys.w[sl0]
        w0dot -= (wx @ w0dot) / wx.sum()
        kdot -= (kdot @ wx)[:, None] / wx.sum()
    value = 0.5 * float(u @ (sys.w * u))
    controls = ControlSet(
        w0dot=GridPath(1.0, w0dot),
        wdot=GridPath(sys.horizon, u[sl1]),
        kdot=GridField2D(sys.mu * sys.horizon, kdot.T),
        zero_mean_enforced=sys.zero_mean_rows > 0,
    )
    return controls, value, route


@dataclass(frozen=True)
class TerminalRateResult:
    value: float
    pattern_stable: bool
    iterations: int
    q: GridPath


def min_rate_terminal(
    a: float,
    t: float,
    pm: ModelParams,
    d: ServiceDist,
    horizon: float,
    n_steps: int = 100,
    n_x: int = 16,
) -> TerminalRateResult:
    """Experimental: minimum of the control energy over paths with q(t) = a.

    The positive-part feedback is frozen at an assumed sign pattern, making
    the path affine in the controls; the pattern is recomputed from the
    resulting path and the solve repeats until the pattern is stable, for at
    most 30 solves.  The first pattern is the sign of the drift; nodes with
    |q| <= 1e-9 keep their previous label to prevent oscillation.
    """
    from scipy.linalg import solve_triangular

    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    it_idx = int(round(t / dt))
    if not (0 <= it_idx <= n_steps) or abs(times[it_idx] - t) > 1e-9:
        raise ValueError("terminal time t must be a grid node within the horizon")
    base = drift(pm, d, times)

    A = LagConstraints.from_law(pm, d, horizon, n_steps, n_x)  # path response to controls, rows t_1..t_N
    w = A.weights

    # L[i, j] = tw_i[j] F'(t_i - t_j) times the frozen pattern at t_j
    lagged_fprime = volterra_weights(n_steps + 1, dt) * d.pdf(times)[lags(n_steps + 1)]
    pattern = (base > 0).astype(float)
    e_t = np.zeros(n_steps + 1)
    e_t[it_idx] = 1.0

    stable = False
    for iters in range(1, 31):
        # q = (I - L)^{-1} (base + B u), B = A with the zero t = 0 row restored
        I_L = np.eye(n_steps + 1) - lagged_fprime * pattern[None, :]
        m_t = solve_triangular(I_L, e_t, lower=True, trans="T")  # row it_idx of (I - L)^{-1}
        g = A.rmatvec(m_t[1:])  # terminal value as linear functional of u
        rhs = a - float(m_t @ base)
        gw = g / w
        denom = float(g @ gw)
        u = gw * (rhs / denom)
        q_vals = solve_triangular(I_L, base + np.concatenate([[0.0], A @ u]), lower=True)

        new_pattern = pattern.copy()
        mask = np.abs(q_vals) > 1e-9
        new_pattern[mask] = (q_vals[mask] > 0).astype(float)
        if np.array_equal(new_pattern, pattern):
            stable = True
            break
        pattern = new_pattern

    value = 0.5 * float(u @ (w * u))
    return TerminalRateResult(
        value=value, pattern_stable=stable, iterations=iters, q=GridPath(horizon, q_vals)
    )
