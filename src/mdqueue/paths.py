"""Control triples, their quadratic energy, the path equation's defect and the
control-to-forcing operator shared with the QP oracle, the forward
control-to-path map, and the Kiefer / Brownian-sheet transform with its energy
identity."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .grids import GridField2D, GridPath, conv_trap, cumtrap, trap_weights
from .renewal import solve_nonlinear

__all__ = [
    "ModelParams",
    "ControlSet",
    "LagConstraints",
    "drift",
    "defect",
    "energy",
    "forward_q",
    "kiefer_from_sheet",
    "kiefer_energy",
    "partial_cell_weights",
]


@dataclass(frozen=True)
class ModelParams:
    """Limit-regime parameters: service rate mu, arrival variability sigma,
    capacity-slack drift beta, initial centered state q0."""

    mu: float
    sigma: float
    beta: float
    q0: float

    def __post_init__(self):
        if not (self.mu > 0 and self.sigma > 0):
            raise ValueError("mu and sigma must be strictly positive")
        for v in (self.mu, self.sigma, self.beta, self.q0):
            if not np.isfinite(v):
                raise ValueError("model parameters must be finite")

    @property
    def q0_plus(self) -> float:
        return max(self.q0, 0.0)

    @property
    def q0_minus(self) -> float:
        return max(-self.q0, 0.0)


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


def zero_controls(T: float, n_steps: int, n_x: int, mu: float = 1.0) -> ControlSet:
    return ControlSet(
        w0dot=GridPath(1.0, np.zeros(n_x + 1)),
        wdot=GridPath(T, np.zeros(n_steps + 1)),
        kdot=GridField2D(mu * T, np.zeros((n_x + 1, n_steps + 1))),
    )


def drift(pm: ModelParams, d: ServiceDist, t: np.ndarray) -> np.ndarray:
    """Control-free forcing of the path equation: (1-F) q0^+ - (1-F0) q0^- - beta F0."""
    F0 = d.eq_cdf(t)
    return (1.0 - d.cdf(t)) * pm.q0_plus - (1.0 - F0) * pm.q0_minus - pm.beta * F0


def defect(q: GridPath, pm: ModelParams, d: ServiceDist) -> np.ndarray:
    """The path equation's defect with no controls at the nodes of q,
    q - int_0^t q^+(s) F'(t-s) ds - drift, the feedback integral by the
    trapezoid rule on the nodal values of q^+.  The oracle constrains it; the
    adjoint's forcing is its derivative.  Zero at t = 0 once q(0) = q0, which
    is checked here."""
    if abs(q.values[0] - pm.q0) > 1e-9:
        raise ValueError(f"q(0) = {q.values[0]} does not match q0 = {pm.q0}")
    t = q.times
    return q.values - conv_trap(np.maximum(q.values, 0.0), d.pdf(t), q.dt) - drift(pm, d, t)


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


def _lag_products(lag_fft: np.ndarray, lags: np.ndarray, u: np.ndarray, n_fft: int) -> np.ndarray:
    """sum_c conv_trap(lags[:, c], u[:, c], 1) by FFT, `lag_fft` the spectra of the lag columns."""
    conv = np.fft.irfft(np.einsum("fc,fc->f", lag_fft, np.fft.rfft(u, n_fft, axis=0)), n_fft)[: len(u)]
    return conv - 0.5 * (u @ lags[0] + lags @ u[0])


@dataclass(frozen=True)
class GramOperator:
    """G = A W^-1 A^T of the path rows t_1..t_N of `LagConstraints`, applied in
    O(N log N) time and O(N) memory.  F and F0 are nondecreasing with F(0) = 0,
    so the x integrals min(a, b) of the w0dot and kdot rows sum to the min
    kernel a_min(i, i'), a = F0 + mu cumtrap(F), which is L diag(da) L^T for L
    the lower all-ones matrix; `min_kernel_solve` applies its inverse.  The wdot
    rows add sigma^2 T_s W^-1 T_s^T, s = 1 - F, with T_g[i, j] = tw_i[j] g(t_i - t_j)
    the trapezoid convolution with g.  `zero_mean` takes a b off each x
    integral, so G also loses F0 F0^T + mu T_F W^-1 T_F^T."""

    da: np.ndarray  # (N,) increments of a at t_1..t_N, from a_0 = 0
    lags: np.ndarray  # (N+1, k) lag columns sqrt(dt) sigma s, then sqrt(dt mu) F with zero mean
    lag_fft: np.ndarray  # their spectra, zero-padded to n_fft >= 2N + 1
    n_fft: int
    F0: np.ndarray | None  # (N,) F0 at t_1..t_N with zero mean, else None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        y = np.concatenate([[0.0], v])  # node t_0 carries no row
        # x = W^-1 T_g^T y: the correlation with g less the trapezoid end terms, doubled at j = 0, N
        corr = np.fft.irfft(self.lag_fft * np.fft.rfft(y[::-1], self.n_fft)[:, None], self.n_fft, axis=0)[len(v) :: -1]
        x = corr - 0.5 * y[:, None] * self.lags[0]
        x[0], x[-1] = corr[0], 2.0 * x[-1]
        x[:, 1:] *= -1.0  # the zero-mean lag is subtracted
        out = np.cumsum(self.da * np.cumsum(v[::-1])[::-1])
        out += _lag_products(self.lag_fft, self.lags, x, self.n_fft)[1:]
        return out if self.F0 is None else out - self.F0 * (self.F0 @ v)

    def min_kernel_solve(self, r: np.ndarray) -> np.ndarray:
        z = np.diff(r, prepend=0.0) / self.da  # a_min^-1 r = L^-T diag(da)^-1 L^-1 r
        z[:-1] -= z[1:]
        return z


@dataclass(frozen=True)
class LagConstraints:
    """The control terms of the path equation as a linear operator A, stored
    by the law at the time nodes.

    Over u = (w0dot nodes, wdot nodes, kdot nodes with kdot stored x-major per
    time node, u_k[j*(M+1) + ix]), row i = 1..N applies the three control terms
    of the path equation at t_i: the bridge integral up to F0(t_i), the
    convolution with the service survival, and the double integral of kdot
    over the moving region {x <= F(t_i - s)}:

        (A u)_i = P0[i] . w0dot + sum_{j<=i} tw_i[j] (sigma surv[i-j] wdot_j
                                                   + mu xw[i-j] . kdot_j),

    with P0 and xw the partial-cell weights of F0 and F on the M + 1 x nodes
    of u, and tw_i the Volterra trapezoid weights.  The sum over j is the
    trapezoid prefix convolution of `grids.conv_trap`, one per lag column;
    `@` applies it by FFT to a `ControlSet` for `forward_q`.  The oracle needs
    only `gram_operator`, exact in x, so it has no x grid.
    """

    F0: np.ndarray  # (N+1,) F0(t_i)
    F: np.ndarray  # (N+1,) F(t_l)
    dt: float
    sigma: float
    mu: float

    @classmethod
    def from_law(cls, pm: ModelParams, d: ServiceDist, horizon: float, n_steps: int):
        t = np.linspace(0.0, horizon, n_steps + 1)
        return cls(F0=d.eq_cdf(t), F=d.cdf(t), dt=horizon / n_steps, sigma=pm.sigma, mu=pm.mu)

    @property
    def nbytes(self) -> int:
        return self.F0.nbytes + self.F.nbytes

    def __matmul__(self, c: ControlSet) -> np.ndarray:
        n, m = len(self.F), len(c.w0dot.values)  # time and x nodes
        dx = 1.0 / (m - 1)
        u_w0, u_t = c.w0dot.values, np.column_stack([c.wdot.values, c.kdot.values.T])
        # (N+1, M+2) lag table: column 0 the wdot lag sigma surv, then the kdot lags mu xw
        L = np.column_stack([self.sigma * (1.0 - self.F), self.mu * partial_cell_weights(self.F, m, dx)])
        n_fft = 1 << (2 * n - 2).bit_length()  # at least 2N + 1: the circular lag products do not wrap
        rows = partial_cell_weights(self.F0, m, dx) @ u_w0 + self.dt * _lag_products(
            np.fft.rfft(L, n_fft, axis=0), L, u_t, n_fft)
        return rows[1:]

    def gram_operator(self, zero_mean: bool) -> GramOperator:
        """The Gram of the path rows, G = A W^-1 A^T, as a `GramOperator`; `zero_mean`
        restricts it to controls with zero x-mean in w0dot and every kdot time slice."""
        cols = [self.sigma * (1.0 - self.F)] + ([np.sqrt(self.mu) * self.F] if zero_mean else [])
        lags = np.sqrt(self.dt) * np.column_stack(cols)
        a = self.F0 + self.mu * cumtrap(self.F, self.dt)
        n_fft = 1 << (2 * len(a) - 2).bit_length()
        F0 = self.F0[1:] if zero_mean else None
        return GramOperator(np.diff(a[1:], prepend=0.0), lags, np.fft.rfft(lags, n_fft, axis=0), n_fft, F0)


def forward_q(c: ControlSet, pm: ModelParams, d: ServiceDist) -> GridPath:
    """Map a control set to the centered queue path q via the nonlinear renewal solve.

    The forcing is the drift plus the control terms of the path equation (the
    bridge term w0(F0(t)), the arrival term int (1-F(t-s)) sigma wdot(s) ds and
    the sequential-empirical term int_0^t int_0^{F(t-s)} kdot(x, mu*s) dx mu ds),
    applied by `LagConstraints`, whose Gram the oracle solves with.  The controls
    must share its grids: kdot on the x nodes of w0dot and the time nodes of wdot, over
    [0, 1] x [0, mu T].
    """
    n_x, n = c.w0dot.n_steps, c.wdot.n_steps
    if c.kdot.values.shape != (n_x + 1, n + 1):
        raise ValueError(f"kdot has shape {c.kdot.values.shape}, expected {(n_x + 1, n + 1)} from w0dot and wdot")
    t_horizon = pm.mu * c.wdot.horizon
    if abs(c.kdot.t_horizon - t_horizon) > 1e-12 * t_horizon:
        raise ValueError(f"kdot lives on [0, {c.kdot.t_horizon}] in time, expected [0, mu T] = [0, {t_horizon}]")
    if abs(c.w0dot.horizon - 1.0) > 1e-12:
        raise ValueError("w0dot must live on [0, 1]")
    A = LagConstraints.from_law(pm, d, c.wdot.horizon, n)
    forcing = drift(pm, d, c.wdot.times) + np.concatenate([[0.0], A @ c])
    return solve_nonlinear(GridPath(c.wdot.horizon, forcing), d)


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
