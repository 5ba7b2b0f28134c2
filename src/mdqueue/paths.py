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
    `@` applies it by FFT for `forward_q`.  The oracle (`build_qp`,
    `min_rate_terminal`) needs only `gram`, whose x integrals are exact, so it
    has no x grid; `zero_mean` restricts that Gram to controls with zero
    x-mean in w0dot and in every kdot time slice.
    """

    F0: np.ndarray  # (N+1,) F0(t_i)
    F: np.ndarray  # (N+1,) F(t_l)
    dt: float
    sigma: float
    mu: float
    zero_mean: bool = False

    @classmethod
    def from_law(
        cls, pm: ModelParams, d: ServiceDist, horizon: float, n_steps: int, zero_mean: bool = False
    ) -> "LagConstraints":
        times = np.linspace(0.0, horizon, n_steps + 1)
        return cls(
            F0=d.eq_cdf(times), F=d.cdf(times), dt=horizon / n_steps, sigma=pm.sigma, mu=pm.mu, zero_mean=zero_mean
        )

    @property
    def nbytes(self) -> int:
        return self.F0.nbytes + self.F.nbytes

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        n = len(self.F)
        m = (len(u) - n) // (n + 1)  # x nodes, from len(u) = m + n + n m
        dx = 1.0 / (m - 1)
        u_w0, u_t = u[:m], np.column_stack([u[m : m + n], u[m + n :].reshape(n, m)])
        # (N+1, M+2) lag table: column 0 the wdot lag sigma surv, then the kdot lags mu xw
        L = np.column_stack([self.sigma * (1.0 - self.F), self.mu * partial_cell_weights(self.F, m, dx)])
        n_fft = 1 << (2 * n - 2).bit_length()  # at least 2N + 1: the circular lag products do not wrap
        # sum over the lag columns c of conv_trap(L[:, c], u_t[:, c], dt)
        spec = np.einsum("fc,fc->f", np.fft.rfft(L, n_fft, axis=0), np.fft.rfft(u_t, n_fft, axis=0))
        conv = np.fft.irfft(spec, n_fft)[:n]
        rows = partial_cell_weights(self.F0, m, dx) @ u_w0 + self.dt * (conv - 0.5 * (u_t @ L[0] + L @ u_t[0]))
        return rows[1:]

    def gram(self) -> np.ndarray:
        """The N x N Gram G = A W^-1 A^T of the path rows t_1..t_N, in O(N^2).

        W is the trapezoid metric in time (on [0, T] for wdot, [0, mu T] for
        kdot) and the exact L2 metric on [0, 1] in x, in which the indicator
        rows have the x integrals m(a, b) = int 1{x <= a} 1{x <= b} dx
        = min(a, b), or min(a, b) - a b with `zero_mean` (the indicators less
        their x-means).  Row pairs give
            G[i, i'] = m(F0_i, F0_i') + sum_{j <= min(i, i')} tw_i[j] tw_i'[j] nu_j K[i-j, i'-j],
        with K = sigma^2 surv surv^T / dt + mu m(F, F^T) / dt the lag Gram at
        the interior time weights and nu_j = 2 at the half-weight end nodes
        j = 0, N, 1 inside.  Interior terms have the weight dt^2, so the sum is
        a cumulative sum along each diagonal of K, which is symmetric.  The end
        terms then take their exact weights: j = 0 adds -dt^2/2 K[i, i']; j = i
        < i' adds -dt^2/2 K[0, i' - i] and j = i = i' adds -3 dt^2/4 K[0, 0],
        or -dt^2/2 K[0, 0] at i = N.
        """
        n = len(self.F)
        F, F0 = self.F, self.F0[1:]
        s = self.sigma / np.sqrt(self.dt) * (1.0 - F)
        c_k = self.mu / self.dt
        # Row a of the N x N arrays below is time node i = a + 1; G is scratch until the diagonal sums.
        k0 = s[0] * s + c_k * (np.minimum(F[0], F) - (F[0] * F if self.zero_mean else 0.0))  # row 0 of K
        K = np.minimum.outer(F[1:], F[1:])
        G = np.empty_like(K)
        if self.zero_mean:
            K -= np.multiply.outer(F[1:], F[1:], out=G)
        K *= c_k
        K += np.multiply.outer(s[1:], s[1:], out=G)
        # G = cumulative sums along the diagonals of K, D[i, i'] = D[i-1, i'-1] + K[i, i'],
        # started from row and column 0 of K
        G[0] = k0[:-1] + K[0]
        G[1:, 0] = k0[1:-1] + K[1:, 0]
        for a in range(1, n - 1):
            np.add(G[a - 1, :-1], K[a, 1:], out=G[a, 1:])
        # end corrections -dt^2/2 (K[i, i'] + K[0, |i' - i|]), the latter a Toeplitz view of k0
        K += np.lib.stride_tricks.sliding_window_view(np.concatenate([k0[-2:0:-1], k0[:-1]]), n - 1)[::-1]
        K *= 0.5
        G -= K
        G *= self.dt**2
        G.flat[: -1 : n] -= 0.25 * self.dt**2 * k0[0]  # diagonal i = i' < N
        G += np.minimum.outer(F0, F0, out=K)  # the w0dot term, into the spent K
        if self.zero_mean:
            G -= np.multiply.outer(F0, F0, out=K)
        return G


def forward_q(c: ControlSet, pm: ModelParams, d: ServiceDist, tol: float = 1e-10) -> GridPath:
    """Map a control set to the centered queue path q via the nonlinear renewal solve.

    The forcing is the drift plus the control terms of the path equation (the
    bridge term w0(F0(t)), the arrival term int (1-F(t-s)) sigma wdot(s) ds and
    the sequential-empirical term int_0^t int_0^{F(t-s)} kdot(x, mu*s) dx mu ds),
    applied by `LagConstraints`, whose Gram the oracle factors.  The controls
    must share its grids: kdot on the x nodes of w0dot and the time nodes of wdot, over
    [0, 1] x [0, mu T].
    """
    n_x, n = c.w0dot.n_steps, c.wdot.n_steps
    if c.kdot.values.shape != (n_x + 1, n + 1):
        raise ValueError(f"kdot has shape {c.kdot.values.shape}, expected {(n_x + 1, n + 1)} from w0dot and wdot")
    t_horizon = pm.mu * c.wdot.horizon
    if abs(c.kdot.t_horizon - t_horizon) > 1e-12 * t_horizon:
        raise ValueError(f"kdot lives on [0, {c.kdot.t_horizon}] in time, expected [0, mu T] = [0, {t_horizon}]")
    if abs(c.w0dot.horizon - 1.0) > 1e-12 or abs(c.kdot.x_max - 1.0) > 1e-12:
        raise ValueError("w0dot and kdot must live on [0, 1] in x")
    A = LagConstraints.from_law(pm, d, c.wdot.horizon, n)
    u = np.concatenate([c.w0dot.values, c.wdot.values, c.kdot.values.T.ravel()])
    forcing = drift(pm, d, c.wdot.times) + np.concatenate([[0.0], A @ u])
    return solve_nonlinear(GridPath(c.wdot.horizon, forcing), d, tol=tol)


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
    return GridField2D(b.t_horizon, k, x_max=b.x_max)


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
