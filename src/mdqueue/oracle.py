"""Brute-force rate evaluation: minimum-weighted-norm controls subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, hankel, solve_triangular, toeplitz

from .dist import ServiceDist
from .fredholm import FredholmError
from .grids import GridField2D, GridPath, conv_trap, trap_weights, volterra_weights
from .paths import ControlSet, ModelParams, partial_cell_weights

__all__ = ["LagConstraints", "QPSystem", "build_qp", "solve_min_norm", "min_rate_terminal", "TerminalRateResult"]


@dataclass(frozen=True)
class LagConstraints:
    """Constraint operator A of the oracle QP, stored by its lag structure.

    Over u = (w0dot nodes, wdot nodes, kdot nodes with kdot stored x-major per
    time node, u_k[j*(M+1) + ix]), row i = 1..N applies the three control terms
    of the path equation at t_i: the bridge integral up to F0(t_i), the
    convolution with the service survival, and the double integral of kdot
    over the moving region {x <= F(t_i - s)}:

        (A u)_i = P0[i] . w0dot + sum_{j<=i} tw_i[j] (sigma surv[i-j] wdot_j
                                                   + mu xw[i-j] . kdot_j),

    with tw_i the Volterra trapezoid weights (`grids.volterra_weights`).  With
    `zero_mean` the rows wx . w0dot = 0 and wx . kdot_j = 0, j = 0..N, follow.
    The objective weights W are trapezoid weights on [0, 1], [0, T] and
    [0, 1] x [0, mu T].  Only O(N M) tables are stored; `toarray()` is the
    dense reference.
    """

    P0: np.ndarray  # (N+1, M+1) partial_cell_weights(F0)
    surv: np.ndarray  # (N+1,) 1 - F(t_l)
    xw: np.ndarray  # (N+1, M+1) partial_cell_weights(F): xw[l] integrates to F(t_l)
    dt: float
    sigma: float
    mu: float
    zero_mean: bool = False

    @classmethod
    def from_law(
        cls, pm: ModelParams, d: ServiceDist, horizon: float, n_steps: int, n_x: int, zero_mean: bool = False
    ) -> "LagConstraints":
        times = np.linspace(0.0, horizon, n_steps + 1)
        F = d.cdf(times)
        dx = 1.0 / n_x
        return cls(
            P0=partial_cell_weights(d.eq_cdf(times), n_x + 1, dx),
            surv=1.0 - F,
            xw=partial_cell_weights(F, n_x + 1, dx),
            dt=horizon / n_steps,
            sigma=pm.sigma,
            mu=pm.mu,
            zero_mean=zero_mean,
        )

    @property
    def shape(self) -> tuple[int, int]:
        n, m = self.xw.shape
        return n - 1 + (1 + n if self.zero_mean else 0), m + n + n * m

    @property
    def nbytes(self) -> int:
        return self.P0.nbytes + self.surv.nbytes + self.xw.nbytes

    def _metric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, m = self.xw.shape
        return trap_weights(m, 1.0 / (m - 1)), trap_weights(n, self.dt), trap_weights(n, self.mu * self.dt)

    @property
    def weights(self) -> np.ndarray:
        """Diagonal of W over u."""
        wx, wt, wtau = self._metric()
        return np.concatenate([wx, wt, (wtau[:, None] * wx[None, :]).reshape(-1)])

    def _lag_values(self) -> np.ndarray:
        """(N+1, M+2) table: column 0 the wdot lag sigma surv, then the kdot lags mu xw."""
        return np.column_stack([self.sigma * self.surv, self.mu * self.xw])

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        n, m = self.xw.shape
        u_w0, u_t = u[:m], np.column_stack([u[m : m + n], u[m + n :].reshape(n, m)])
        nodes = np.arange(n)
        # Y[l, j]: the wdot and kdot terms of time node j at lag l
        Y = self._lag_values() @ u_t.T
        rows = self.P0 @ u_w0 + np.sum(volterra_weights(n, self.dt) * Y[toeplitz(nodes), nodes], axis=1)
        out = rows[1:]
        if self.zero_mean:
            wx = self._metric()[0]
            out = np.concatenate([out, [wx @ u_w0], u_t[:, 1:] @ wx])
        return out

    def rmatvec(self, lam: np.ndarray) -> np.ndarray:
        """A^T lam."""
        n, m = self.xw.shape
        lam_r = np.concatenate([[0.0], lam[: n - 1]])  # the t = 0 row carries no constraint
        nodes = np.arange(n)
        # Hankel-indexed H[j, l] = lam_{j+l} tw_{j+l}[j] (zero for j + l > N)
        H = (lam_r[:, None] * volterra_weights(n, self.dt))[hankel(nodes), nodes[:, None]]
        u_t = H @ self._lag_values()
        u_w0 = self.P0.T @ lam_r
        if self.zero_mean:
            wx = self._metric()[0]
            u_w0 = u_w0 + lam[n - 1] * wx
            u_t[:, 1:] += lam[n:, None] * wx[None, :]
        return np.concatenate([u_w0, u_t[:, 0], u_t[:, 1:].reshape(-1)])

    def toarray(self) -> np.ndarray:
        """Dense A, row by row from the definition (test reference)."""
        n, m = self.xw.shape
        tw = volterra_weights(n, self.dt)
        lagged = tw[:, :, None] * self._lag_values()[toeplitz(np.arange(n))]  # [i, j] at lag |i - j|
        A = np.hstack([self.P0, lagged[:, :, 0], lagged[:, :, 1:].reshape(n, n * m)])[1:]
        if self.zero_mean:
            wx = self._metric()[0]
            zm = np.zeros((1 + n, A.shape[1]))
            zm[0, :m] = wx
            zm[1:, m + n :] = np.kron(np.eye(n), wx)
            A = np.vstack([A, zm])
        return A

    def gram(self) -> np.ndarray:
        """G = A W^-1 A^T assembled from the lag tables in O(N^2 M).

        The wdot and kdot rows give
            G[i, i'] = sum_{j <= min(i, i')} tw_i[j] tw_i'[j] nu_j K[i-j, i'-j],
        with K[l, l'] = sigma^2 surv[l] surv[l'] / dt + mu^2 (xw[l] / wx) . xw[l'] / (mu dt)
        the lag Gram at the interior time weights, and nu_j = 2 at the
        half-weight end nodes j = 0, N, 1 inside.  Interior terms have the
        weight dt^2, so along each diagonal of G the sum is a cumulative sum
        along the matching diagonal of K; the terms j = 0 and j = min(i, i')
        (which covers j = N) are then corrected to their exact weights.
        """
        n, m = self.xw.shape
        wx, wt, wtau = self._metric()
        tw = volterra_weights(n, self.dt)
        K = (self.sigma**2 / wt[1]) * np.outer(self.surv, self.surv) + (self.mu**2 / wtau[1]) * (
            (self.xw / wx) @ self.xw.T
        )
        nu = wt[1] / wt
        # D[i, i + s] = sum_{l <= i} K[l, l + s], the upper triangle only
        D = np.zeros_like(K)
        D[0] = K[0]
        for i in range(1, n):
            D[i, i:] = D[i - 1, i - 1 : -1] + K[i, i:]
        dt2 = self.dt**2
        first = nu[0] * np.outer(tw[:, 0], tw[:, 0]) - dt2  # j = 0
        last = (nu * np.diag(tw))[:, None] * tw.T - dt2  # j = i <= i'
        G = np.triu(dt2 * D + first * K + last * toeplitz(K[0]))
        G = G + np.triu(G, 1).T
        G = (self.P0 / wx) @ self.P0.T + G
        G = G[1:, 1:]
        if not self.zero_mean:
            return G
        # zero-mean rows: their Gram is diagonal, and they meet the path rows
        # through the w0dot mass and the kdot x-integral xw[l] . 1 = F(t_l)
        B = np.zeros((n - 1, 1 + n))
        B[:, 0] = self.P0[1:].sum(axis=1)
        B[:, 1:] = (self.mu / wtau) * tw[1:] * toeplitz(self.xw.sum(axis=1))[1:]
        Z = np.diag(np.concatenate([[wx.sum()], wx.sum() / wtau]))
        return np.block([[G, B], [B.T, Z]])


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
    F = d.cdf(t)
    F0 = d.eq_cdf(t)

    base = (1.0 - F) * pm.q0_plus - (1.0 - F0) * pm.q0_minus - pm.beta * F0
    qplus = np.maximum(q.values, 0.0)
    r_full = q.values - conv_trap(qplus, d.pdf(t), q.dt) - base
    if not abs(r_full[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r_full[0]!r}")

    A = LagConstraints.from_law(pm, d, q.horizon, q.n_steps, n_x, zero_mean=zero_mean)
    zm_rows = q.n_steps + 2 if zero_mean else 0
    # the trivial t = 0 row is dropped
    r = np.concatenate([r_full[1:], np.zeros(zm_rows)])
    return QPSystem(
        A=A, r=r, w=A.weights, n_x=n_x, n_steps=q.n_steps, horizon=q.horizon, mu=pm.mu, zero_mean_rows=zm_rows
    )


def solve_min_norm(sys: QPSystem) -> tuple[ControlSet, float]:
    """Minimum-weighted-norm solution u* = W^-1 A' (A W^-1 A')^-1 r via a
    symmetric positive-definite factorization; value = 1/2 ||u*||_W^2."""
    G = sys.A.gram()
    try:
        lam = cho_solve(cho_factor(G), sys.r)
    except np.linalg.LinAlgError:
        warnings.warn("constraint Gram matrix rank-deficient; using regularized solve")
        reg = 1e-12 * np.trace(G) / G.shape[0]
        lam = np.linalg.solve(G + reg * np.eye(G.shape[0]), sys.r)
    u = sys.A.rmatvec(lam) / sys.w
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
    F0 = d.eq_cdf(times)
    base = (1.0 - d.cdf(times)) * pm.q0_plus - (1.0 - F0) * pm.q0_minus - pm.beta * F0

    A = LagConstraints.from_law(pm, d, horizon, n_steps, n_x)  # path response to controls, rows t_1..t_N
    w = A.weights

    # L[i, j] = tw_i[j] F'(t_i - t_j) times the frozen pattern at t_j
    lagged_fprime = volterra_weights(n_steps + 1, dt) * toeplitz(d.pdf(times))
    pattern = (
        np.asarray(initial_pattern, dtype=float)
        if initial_pattern is not None
        else (base > 0).astype(float)
    )
    e_t = np.zeros(n_steps + 1)
    e_t[it_idx] = 1.0

    u = np.zeros(len(w))
    q_vals = base.copy()
    stable = False
    iters = 0
    for iters in range(1, max_pattern_iters + 1):
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
