"""Control triples, their quadratic energy, the discrete path equation (the one
sampling of the law on a t grid, its drift and its control-to-forcing operator
shared with the QP oracle), its defect, the forward control-to-path map, and the
Kiefer / Brownian-sheet transform with its energy identity."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .grids import GridField2D, GridPath, LagConv, cumtrap, trap_weights
from .renewal import solve_nonlinear

__all__ = [
    "ModelParams",
    "ControlSet",
    "PathEquation",
    "defect",
    "energy",
    "forward_q",
    "kiefer_from_sheet",
    "kiefer_energy",
    "partial_cell_weights",
]


@dataclass(frozen=True)
class ModelParams:
    """Limit-regime parameters: the service law, arrival variability sigma,
    capacity-slack drift beta, initial centered state q0.  The service rate mu
    is the law's reciprocal mean, not a parameter of its own."""

    law: ServiceDist
    sigma: float
    beta: float
    q0: float

    @property
    def mu(self) -> float:
        return self.law.mu

    def __post_init__(self):
        if not (self.mu > 0 and self.sigma > 0):
            raise ValueError("mu and sigma must be strictly positive")
        for v in (self.mu, self.sigma, self.beta, self.q0):
            if not np.isfinite(v):
                raise ValueError("model parameters must be finite")
        if not math.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma = {self.sigma!r} is too large: sigma^2 overflows")


@dataclass(frozen=True)
class ControlSet:
    """Control densities: w0dot on [0,1], wdot on [0,T], kdot on [0,1]x[0,T'].

    The densities themselves are stored (not integrated paths) since the rate
    functional and the path equation consume densities.
    """

    w0dot: GridPath
    wdot: GridPath
    kdot: GridField2D

    def __post_init__(self):
        if abs(self.w0dot.horizon - 1.0) > 1e-12:
            raise ValueError("w0dot must live on [0, 1]")


def energy(c: ControlSet) -> float:
    """Half the summed squared L2 norms of the three densities (trapezoid)."""
    e_w0 = float(c.w0dot.weights() @ c.w0dot.values**2)
    e_w = float(c.wdot.weights() @ c.wdot.values**2)
    e_k = c.kdot.integral_sq()
    return 0.5 * (e_w0 + e_w + e_k)


def partial_cell_weights(upper: np.ndarray, n_nodes: int, dx: float) -> np.ndarray:
    """Nodal weight vectors for int_0^{u} v(x) dx on a uniform grid.

    Full cells below u get trapezoid weights; the cell containing u gets the
    partial-cell trapezoid correction with v linearly interpolated at u.
    Returns an array of shape (len(upper), n_nodes).
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    x_max = (n_nodes - 1) * dx
    u = np.clip(upper, 0.0, x_max)
    m = np.minimum((u / dx).astype(int), n_nodes - 2)
    theta = u / dx - m
    rows = np.arange(len(upper))
    # full-cell trapezoid over nodes 0..m
    out = np.where(np.arange(n_nodes) < m[:, None], dx, 0.0)
    out[:, 0] /= 2.0
    out[rows, m] = np.where(m > 0, dx / 2.0, 0.0)
    out[rows, m] += dx * theta * (2.0 - theta) / 2.0
    out[rows, m + 1] += dx * theta**2 / 2.0
    return out


@dataclass(frozen=True)
class TridiagInverse:
    """c M^-1 for the N x N symmetric tridiagonal M with off-diagonal e and diagonal
    d = (d_- + d_+)/2, d_-+ = d -+ 2e, but for d + delta_1 and d + delta_N in its two
    corners, applied in O(N log N) time with no FFT and no banded solver.  With
    L = I + aZ, Z the lower shift, c (1 + a^2) = d and c a = e,
    M = c L (I + beta g g^T + gamma e_N e_N^T) L^T for g = L^-1 e_1 = ((-a)^i),
    beta = a^2 + delta_1 / c and gamma = delta_N / c, since L g = e_1 and L e_N = e_N.
    So c M^-1 is L^-T, the Woodbury inverse of that rank-2 update of I, and L^-1.
    L^-1 is the product of I - aZ and the I + a^k Z^k, k = 2, 4, 8, ..., exact once
    k reaches N and cut once a^k is below 1e-17, applied as shifted slice updates."""

    a: float  # in [-1, 1]
    c: float  # M^-1 is 1/c times `solve`
    factors: tuple  # (k, b) of L^-1 = prod (I + b Z^k)
    g: np.ndarray  # (N,) L^-1 e_1
    K: tuple  # (K_11, K_12, K_22) of the symmetric C (I + U^T U C)^-1, U = [g, e_N], C = diag(beta, gamma)

    @classmethod
    def of(cls, d_minus: float, d_plus: float, e: float, delta_1: float, delta_n: float, n: int) -> "TridiagInverse":
        # the larger root of c^2 - d c + e^2 = 0, where d^2 - 4 e^2 = d_- d_+ has no
        # cancellation: |a| <= 1, a = 0 where e underflows and |a| = 1 where d_- / d_+ does
        c = 0.25 * (d_minus + d_plus) + 0.5 * math.sqrt(d_minus) * math.sqrt(d_plus)
        a = e / c
        factors, k, b = [(1, -a)], 2, a * a
        while k < n and b >= 1e-17:
            factors.append((k, b))
            k, b = 2 * k, b * b
        g = np.zeros(n)
        g[0] = 1.0
        for k, b in factors:  # L^-1
            g[k:] += b * g[:-k]
        # U^T U = [[g.g, g_N], [g_N, 1]]; I + beta g g^T + gamma e_N e_N^T is positive
        # definite with M, so the determinant of I + U^T U C is positive
        beta, gamma, gg, gn = a * a + delta_1 / c, delta_n / c, float(g @ g), float(g[-1])
        det = (1.0 + gg * beta) * (1.0 + gamma) - gn * gn * beta * gamma
        K = (beta * (1.0 + gamma) / det, -beta * gamma * gn / det, gamma * (1.0 + gg * beta) / det)
        return cls(a, c, tuple(factors), g, K)

    def solve(self, x: np.ndarray) -> np.ndarray:
        """x <- c M^-1 x in place."""
        for k, b in self.factors:  # L^-1
            x[k:] += b * x[:-k]
        t0, t1 = float(self.g @ x), float(x[-1])
        k11, k12, k22 = self.K
        x -= (k11 * t0 + k12 * t1) * self.g
        x[-1] -= k12 * t0 + k22 * t1
        for k, b in self.factors:  # L^-T
            x[:-k] += b * x[k:]
        return x


@dataclass(frozen=True)
class GramOperator:
    """G = A W^-1 A^T of the path rows t_1..t_N of `PathEquation`, applied in
    O(N log N) time and O(N) memory.  F and F0 are nondecreasing with F(0) = 0,
    so the x integrals min(a, b) of the w0dot and kdot rows sum to the min
    kernel a_min(i, i'), a = F0 + mu cumtrap(F), which is L diag(da) L^T for L
    the lower all-ones matrix.  The wdot rows add sigma^2 T_s W^-1 T_s^T,
    s = 1 - F, with T_g the `grids.LagConv` of g.  `zero_mean` takes a b off
    each x integral, so G also loses F0 F0^T + mu T_F W^-1 T_F^T.

    `precond` applies c P for P = D^T M^-1 D, D = L^-1 the backward difference and
    M the leading order in dt of D G D^T, tridiagonal, by `TridiagInverse`.  With
    m = mu dt and p = sigma^2 dt: D a_min D^T is diag(da), about m I.  The rows
    of D T_s are sqrt(dt) sigma (1/2, s_1 - 1/2) on nodes (t_i, t_{i-1}), but
    s_1/2 on t_0 in row 1, plus terms of order dt F' further back, so with W^-1
    doubling the end nodes they give p tridiag(f/2, 1/4 + f^2, f/2), f = s_1 - 1/2,
    but for 1/4 + s_1^2/2 and 1/2 + f^2 in its corners.  Zero mean subtracts
    m F_1^2, half that in the first corner, by the same count on the F lag.  So PCG
    takes a number of iterations that does not grow with sigma, also where dt F'
    is not small.  PCG is blind to the scale c of the preconditioner, and c P r
    has the scale of r, so that r . c P r stays in the float range where
    sigma^2 dt is large."""

    da: np.ndarray  # (N,) increments of a at t_1..t_N, from a_0 = 0
    T: LagConv  # lag columns sqrt(dt) sigma s, then sqrt(dt mu) F with zero mean
    F0: np.ndarray | None  # (N,) F0 at t_1..t_N with zero mean, else None
    tri: TridiagInverse  # c M^-1

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = self.T.rmatvec(np.concatenate([[0.0], v]))  # node t_0 carries no row
        x[0] *= 2.0  # W^-1 at unit step doubles the end rows
        x[-1] *= 2.0
        x[:, 1:] *= -1.0  # the zero-mean lag is subtracted
        out = np.cumsum(self.da * np.cumsum(v[::-1])[::-1])
        out += (self.T @ x)[1:]
        return out if self.F0 is None else out - self.F0 * (self.F0 @ v)

    def precond(self, r: np.ndarray) -> np.ndarray:
        """c P r, a new array."""
        x = r.copy()
        x[1:] -= r[:-1]  # D
        self.tri.solve(x)  # c M^-1
        x[:-1] -= x[1:]  # D^T
        return x


@dataclass(frozen=True)
class PathEquation:
    """The discrete path equation q = drift + T q^+ + A u on the grid t_i = i horizon / N,
    T the `LagConv.of_law` lag of dF and A the control terms.  `from_law` is the one
    place the law is sampled on a t grid; every solver reads F, F0 and T from here.

    Over u = (w0dot nodes, wdot nodes, kdot nodes with kdot stored x-major per
    time node, u_k[j*(M+1) + ix]), row i = 1..N of A applies the three control
    terms of the path equation at t_i: the bridge integral up to F0(t_i), the
    convolution with the service survival, and the double integral of kdot
    over the moving region {x <= F(t_i - s)}:

        (A u)_i = P0[i] . w0dot + sum_{j<=i} tw_i[j] (sigma surv[i-j] wdot_j
                                                   + mu xw[i-j] . kdot_j),

    with P0 and xw the partial-cell weights of F0 and F on the M + 1 x nodes
    of u, and tw_i the Volterra trapezoid weights.  The sum over j is the
    trapezoid prefix convolution of `grids.LagConv`, one per lag column;
    `@` applies it to a `ControlSet` for `forward_q`.  The oracle needs
    only `gram_operator`, exact in x, so it has no x grid.
    """

    pm: ModelParams
    horizon: float
    F0: np.ndarray  # (N+1,) F0(t_i)
    F: np.ndarray  # (N+1,) F(t_i)
    lag: LagConv  # T, of the lag dt F'(t_k)

    @classmethod
    def from_law(cls, pm: ModelParams, horizon: float, n_steps: int) -> "PathEquation":
        t, d = np.linspace(0.0, horizon, n_steps + 1), pm.law
        return cls(pm, horizon, d.eq_cdf(t), d.cdf(t), LagConv.of_law(d, horizon, n_steps))

    @property
    def n_steps(self) -> int:
        return len(self.F) - 1

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def drift(self) -> np.ndarray:
        """The control-free forcing (1-F) q0^+ - (1-F0) q0^- - beta F0 at the nodes."""
        q0, beta = self.pm.q0, self.pm.beta
        return (1.0 - self.F) * max(q0, 0.0) - (1.0 - self.F0) * max(-q0, 0.0) - beta * self.F0

    @property
    def nbytes(self) -> int:  # F0, F and the lag with its spectrum
        return self.F0.nbytes + self.F.nbytes + self.lag.lags.nbytes + self.lag.spectra.nbytes

    def check_grid(self, what: str, horizon: float, n_steps: int | None = None) -> None:
        """ValueError unless [0, horizon] (to 1e-12 relative) in n_steps steps (any when None) is this grid."""
        if not abs(horizon - self.horizon) <= 1e-12 * self.horizon or n_steps not in (None, self.n_steps):
            steps = "" if n_steps is None else f" in {n_steps} steps"
            raise ValueError(f"{what} on [0, {horizon}]{steps} is not on the grid of its path equation,"
                             f" [0, {self.horizon}] in {self.n_steps} steps")

    def __matmul__(self, c: ControlSet) -> np.ndarray:
        m = len(c.w0dot.values)  # x nodes
        dx = 1.0 / (m - 1)
        u_w0, u_t = c.w0dot.values, np.column_stack([c.wdot.values, c.kdot.values.T])
        # (N+1, M+2) lag table: column 0 the wdot lag sigma surv, then the kdot lags mu xw
        L = np.column_stack([self.pm.sigma * (1.0 - self.F), self.pm.mu * partial_cell_weights(self.F, m, dx)])
        rows = partial_cell_weights(self.F0, m, dx) @ u_w0 + self.dt * (LagConv.of(L) @ u_t)
        return rows[1:]

    def gram_operator(self, zero_mean: bool) -> GramOperator:
        """The Gram of the path rows, G = A W^-1 A^T, as a `GramOperator`; `zero_mean`
        restricts it to controls with zero x-mean in w0dot and every kdot time slice."""
        sigma, mu, dt = self.pm.sigma, self.pm.mu, self.dt
        cols = [sigma * (1.0 - self.F)] + ([np.sqrt(mu) * self.F] if zero_mean else [])
        lags = np.sqrt(dt) * np.column_stack(cols)
        a = self.F0 + mu * cumtrap(self.F, dt)
        # the tridiagonal M of `GramOperator`: diagonal m' + p (1/4 + f^2), m' = m (1 - F_1^2)
        # with zero mean and m without, and off-diagonal p f/2, f = 1/2 - F_1, so that
        # d -+ 2e = m' + p F_1^2, m' + p s_1^2; the corners add m F_1^2 / 2 with zero mean,
        # p (1 - 2 F_1^2) / 4 and p / 4
        m, p, F1, s1 = mu * dt, sigma * sigma * dt, self.F[1], 1.0 - self.F[1]
        m_diag = m * (1.0 - F1 * F1) if zero_mean else m
        delta_1 = (0.5 * m * F1 * F1 if zero_mean else 0.0) + 0.25 * p * (1.0 - 2.0 * F1 * F1)
        tri = TridiagInverse.of(m_diag + p * F1 * F1, m_diag + p * s1 * s1, 0.25 * p * (s1 - F1), delta_1, 0.25 * p,
                                len(a) - 1)
        return GramOperator(np.diff(a[1:], prepend=0.0), LagConv.of(lags), self.F0[1:] if zero_mean else None, tri)


def defect(q: GridPath, eq: PathEquation) -> np.ndarray:
    """The path equation's defect with no controls at the nodes of q, q - T q^+ - drift,
    T the lag of eq applied to the nodal values of q^+.  The oracle constrains it;
    the adjoint's forcing is its derivative.  Zero at t = 0 once q(0) = q0, which is
    checked here, as is the grid of q."""
    eq.check_grid("q", q.horizon, q.n_steps)
    if abs(q.values[0] - eq.pm.q0) > 1e-9:
        raise ValueError(f"q(0) = {q.values[0]} does not match q0 = {eq.pm.q0}")
    return q.values - eq.lag @ np.maximum(q.values, 0.0) - eq.drift


def forward_q(c: ControlSet, eq: PathEquation) -> GridPath:
    """Map a control set to the centered queue path q via the nonlinear renewal solve.

    The forcing is the drift plus the control terms of the path equation (the
    bridge term w0(F0(t)), the arrival term int (1-F(t-s)) sigma wdot(s) ds and
    the sequential-empirical term int_0^t int_0^{F(t-s)} kdot(x, mu*s) dx mu ds),
    applied by `eq`, whose Gram the oracle solves with.  The controls must share
    its grids: wdot on the t grid of eq, and kdot on the x nodes of w0dot and the
    time nodes of wdot, over [0, 1] x [0, mu T].
    """
    eq.check_grid("wdot", c.wdot.horizon, c.wdot.n_steps)
    shape = (c.w0dot.n_steps + 1, eq.n_steps + 1)
    if c.kdot.values.shape != shape:
        raise ValueError(f"kdot has shape {c.kdot.values.shape}, expected {shape} from w0dot and wdot")
    t_horizon = eq.pm.mu * eq.horizon
    if abs(c.kdot.t_horizon - t_horizon) > 1e-12 * t_horizon:
        raise ValueError(f"kdot lives on [0, {c.kdot.t_horizon}] in time, expected [0, mu T] = [0, {t_horizon}]")
    forcing = eq.drift + np.concatenate([[0.0], eq @ c])
    return solve_nonlinear(GridPath(eq.horizon, forcing), eq.lag)


def _log_grid(b: GridField2D, u_max: float):
    """Nodes u on [0, u_max], 8 per x cell of b, and x = 1 - e^{-u}."""
    u = np.linspace(0.0, u_max, 8 * (b.values.shape[0] - 1) + 1)
    return u, -np.expm1(-u)


def kiefer_from_sheet(b: GridField2D) -> GridField2D:
    """Solve k(x,t) = -int_0^x k(y,t)/(1-y) dy + b(x,t) for k given the sheet density.

    Uses the explicit solution k(x,t) = (1-x) int_0^x b_y(y,t)/(1-y) dy with
    b_y the x-derivative of the integrated sheet.  The 1/(1-y) weight is
    handled by substituting u = -ln(1-y), on which the integrand is smooth;
    k(1,t) is set to 0, consistent with the x->1 limit for finite-energy
    sheets.  Returns k on the node grid of b.
    """
    u_max = max(4.0, -np.log(max(b.dx, 1e-12)) + 8.0)
    u, xs = _log_grid(b, u_max)

    # b_y(y, t) = int_0^t bdot(y, s) ds, interpolated onto the log-spaced x nodes
    by = np.apply_along_axis(cumtrap, 1, b.values, b.dt)  # (M+1, N+1)
    by_log = np.empty((len(u), by.shape[1]))
    for j in range(by.shape[1]):
        by_log[:, j] = np.interp(xs, b.x_grid, by[:, j])

    # inner integral m(u) = int_0^u b_y(x(v), t) dv, then k = (1-x) * m
    inner = np.apply_along_axis(cumtrap, 0, by_log, u[1] - u[0])
    k_log = (1.0 - xs)[:, None] * inner

    k = np.empty_like(b.values)
    for j in range(by.shape[1]):
        k[:, j] = np.interp(b.x_grid, xs, k_log[:, j])
    k[-1, :] = 0.0
    k[:, 0] = 0.0
    return GridField2D(b.t_horizon, k)


def kiefer_energy(b: GridField2D) -> tuple[float, float]:
    """Energies (integral of kdot^2, integral of bdot^2) for the transform of b.

    kdot(x,t) = bdot(x,t) - int_0^x bdot(y,t)/(1-y) dy; the x-integral of
    kdot^2 is evaluated on the log grid u = -ln(1-x), where the integrand
    (bdot - m)^2 e^{-u} is smooth and the endpoint log singularity of the
    transform carries negligible truncated mass.
    """
    u, xs = _log_grid(b, 30.0)
    du = u[1] - u[0]

    bdot_log = np.empty((len(u), b.values.shape[1]))
    for j in range(b.values.shape[1]):
        bdot_log[:, j] = np.interp(xs, b.x_grid, b.values[:, j])

    m_int = np.apply_along_axis(cumtrap, 0, bdot_log, du)  # int_0^u bdot(x(v),t) dv
    kdot_log = bdot_log - m_int
    wx = trap_weights(len(u), du) * np.exp(-u)
    per_t = wx @ kdot_log**2
    wt = trap_weights(b.values.shape[1], b.dt)
    return float(per_t @ wt), b.integral_sq()
