"""Brute-force rate evaluation: minimum-weighted-norm controls subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dist import ServiceDist
from .fredholm import FredholmError
from .grids import GridField2D, GridPath, conv_trap, trap_weights
from .paths import ControlSet, ModelParams, partial_cell_weights

__all__ = ["QPSystem", "build_qp", "solve_min_norm", "min_rate_terminal", "TerminalRateResult"]


@dataclass(frozen=True)
class QPSystem:
    """Stacked affine system A u = r over u = (w0dot nodes, wdot nodes, kdot nodes),
    with strictly positive quadrature weights w defining the objective 1/2 u' W u."""

    A: np.ndarray
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


def _control_blocks(pm: ModelParams, d: ServiceDist, T: float, n_steps: int, n_x: int):
    """Rows of the affine control-to-path-defect map at every time node.

    Row i applies to (w0dot, wdot, kdot) the three control terms of the path
    equation at t_i: the bridge integral up to F0(t_i), the convolution with
    the service survival, and the double integral of kdot over the moving
    region {x <= F(t_i - s)}.
    """
    t = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    F = d.cdf(t)
    F0 = d.eq_cdf(t)
    dx = 1.0 / n_x

    A_w0 = partial_cell_weights(F0, n_x + 1, dx)  # (N+1, M+1)

    surv = 1.0 - F
    A_w = np.zeros((n_steps + 1, n_steps + 1))
    for i in range(1, n_steps + 1):
        tw = np.full(i + 1, dt)
        tw[0] = tw[-1] = dt / 2
        A_w[i, : i + 1] = pm.sigma * tw * surv[i::-1]

    # kdot block: column (ix, j) weight mu * tw_j * xw[i-j, ix]
    xw = partial_cell_weights(F, n_x + 1, dx)  # xw[lag] integrates to F(t_lag)
    A_k = np.zeros((n_steps + 1, (n_x + 1) * (n_steps + 1)))
    for i in range(1, n_steps + 1):
        tw = np.full(i + 1, dt)
        tw[0] = tw[-1] = dt / 2
        # kdot stored x-major per time node: u_k[j*(M+1) + ix]
        block = pm.mu * tw[:, None] * xw[i::-1]  # (i+1, M+1): j -> xw[i-j]
        A_k[i, : (i + 1) * (n_x + 1)] = block.reshape(-1)
    return A_w0, A_w, A_k


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
    dt = q.dt
    n_steps = q.n_steps
    F = d.cdf(t)
    F0 = d.eq_cdf(t)

    base = (1.0 - F) * pm.q0_plus - (1.0 - F0) * pm.q0_minus - pm.beta * F0
    qplus = np.maximum(q.values, 0.0)
    r_full = q.values - conv_trap(qplus, d.pdf(t), dt) - base
    if not abs(r_full[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r_full[0]!r}")

    A_w0, A_w, A_k = _control_blocks(pm, d, q.horizon, n_steps, n_x)
    A_full = np.hstack([A_w0, A_w, A_k])

    # drop the trivial t = 0 row
    A = A_full[1:]
    r = r_full[1:]

    wx = trap_weights(n_x + 1, 1.0 / n_x)
    wt = trap_weights(n_steps + 1, dt)
    wtau = trap_weights(n_steps + 1, pm.mu * dt)  # kdot time variable is mu * t
    w_k = (wtau[:, None] * wx[None, :]).reshape(-1)
    w = np.concatenate([wx, wt, w_k])

    zm_rows = 0
    if zero_mean:
        m, n = n_x + 1, n_steps + 1
        extra = []
        row = np.zeros(A.shape[1])
        row[:m] = wx
        extra.append(row)
        for j in range(n):
            row = np.zeros(A.shape[1])
            row[m + n + j * m : m + n + (j + 1) * m] = wx
            extra.append(row)
        A = np.vstack([A, np.array(extra)])
        r = np.concatenate([r, np.zeros(len(extra))])
        zm_rows = len(extra)

    return QPSystem(
        A=A, r=r, w=w, n_x=n_x, n_steps=n_steps, horizon=q.horizon, mu=pm.mu, zero_mean_rows=zm_rows
    )


def solve_min_norm(sys: QPSystem) -> tuple[ControlSet, float]:
    """Minimum-weighted-norm solution u* = W^-1 A' (A W^-1 A')^-1 r via a
    symmetric positive-definite factorization; value = 1/2 ||u*||_W^2."""
    AWinv = sys.A / sys.w[None, :]
    G = AWinv @ sys.A.T
    try:
        lam = cho_solve(cho_factor(G), sys.r)
    except np.linalg.LinAlgError:
        warnings.warn("constraint Gram matrix rank-deficient; using regularized solve")
        reg = 1e-12 * np.trace(G) / G.shape[0]
        lam = np.linalg.solve(G + reg * np.eye(G.shape[0]), sys.r)
    u = AWinv.T @ lam
    value = 0.5 * float(u @ (sys.w * u))

    sl0, sl1, slk = sys.slices
    m, n = sys.n_x + 1, sys.n_steps + 1
    controls = ControlSet(
        w0dot=GridPath(1.0, u[sl0]),
        wdot=GridPath(sys.horizon, u[sl1]),
        kdot=GridField2D(sys.mu * sys.horizon, u[slk].reshape(n, m).T),
        zero_mean_enforced=sys.zero_mean_rows > 0,
    )
    return controls, value


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
    initial_pattern: np.ndarray | None = None,
    max_pattern_iters: int = 30,
) -> TerminalRateResult:
    """Experimental: minimum of the control energy over paths with q(t) = a.

    The positive-part feedback is frozen at an assumed sign pattern, making
    the path affine in the controls; the pattern is recomputed from the
    resulting path and the solve repeats until the pattern is stable.  Nodes
    with |q| <= 1e-9 keep their previous label to prevent oscillation.
    """
    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    it_idx = int(round(t / dt))
    if not (0 <= it_idx <= n_steps) or abs(times[it_idx] - t) > 1e-9:
        raise ValueError("terminal time t must be a grid node within the horizon")
    F = d.cdf(times)
    F0 = d.eq_cdf(times)
    base = (1.0 - F) * pm.q0_plus - (1.0 - F0) * pm.q0_minus - pm.beta * F0

    A_w0, A_w, A_k = _control_blocks(pm, d, horizon, n_steps, n_x)
    B = np.hstack([A_w0, A_w, A_k])  # path response to controls, rows = time nodes

    wx = trap_weights(n_x + 1, 1.0 / n_x)
    wt = trap_weights(n_steps + 1, dt)
    wtau = trap_weights(n_steps + 1, pm.mu * dt)
    w = np.concatenate([wx, wt, (wtau[:, None] * wx[None, :]).reshape(-1)])

    fprime = d.pdf(times)
    pattern = (
        np.asarray(initial_pattern, dtype=float)
        if initial_pattern is not None
        else (base > 0).astype(float)
    )

    u = np.zeros(B.shape[1])
    q_vals = base.copy()
    stable = False
    iters = 0
    for iters in range(1, max_pattern_iters + 1):
        # q = (I - L)^{-1} (base + B u) with L the pattern-frozen convolution
        L = np.zeros((n_steps + 1, n_steps + 1))
        for i in range(1, n_steps + 1):
            tw = np.full(i + 1, dt)
            tw[0] = tw[-1] = dt / 2
            L[i, : i + 1] = tw * pattern[: i + 1] * fprime[i::-1]
        M = np.linalg.inv(np.eye(n_steps + 1) - L)
        g = (M[it_idx] @ B)  # terminal value as linear functional of u
        rhs = a - float(M[it_idx] @ base)
        gw = g / w
        denom = float(g @ gw)
        u = gw * (rhs / denom)
        q_vals = M @ (base + B @ u)

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
