"""Control triples, their quadratic energy, the control-to-forcing operator
shared with the QP oracle, the forward control-to-path map, and the Kiefer /
Brownian-sheet transform with its energy identity."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .grids import GridField2D, GridPath, cumtrap, trap_weights
from .renewal import solve_nonlinear

__all__ = [
    "ModelParams",
    "ControlSet",
    "LagConstraints",
    "drift",
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
    functional and the path equation consume densities.  zero_mean_enforced
    records whether the bridge/Kiefer endpoint constraints (zero x-mean of
    w0dot, and of each kdot time slice) were imposed when the set was built.
    """

    w0dot: GridPath
    wdot: GridPath
    kdot: GridField2D
    zero_mean_enforced: bool = False

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
    by its lag structure.

    Over u = (w0dot nodes, wdot nodes, kdot nodes with kdot stored x-major per
    time node, u_k[j*(M+1) + ix]), row i = 1..N applies the three control terms
    of the path equation at t_i: the bridge integral up to F0(t_i), the
    convolution with the service survival, and the double integral of kdot
    over the moving region {x <= F(t_i - s)}:

        (A u)_i = P0[i] . w0dot + sum_{j<=i} tw_i[j] (sigma surv[i-j] wdot_j
                                                   + mu xw[i-j] . kdot_j),

    with tw_i the Volterra trapezoid weights (`grids.volterra_weights`).  The
    sum over j is the trapezoid prefix convolution of `grids.conv_trap`, one
    per lag column; `@` applies it by FFT and `rmatvec` applies its transpose,
    a correlation, the same way.  With `zero_mean` the rows wx . w0dot = 0 and
    wx . kdot_j = 0, j = 0..N, follow.  The objective weights W are trapezoid
    weights on [0, 1], [0, T] and [0, 1] x [0, mu T].  Only O(N M) tables are
    stored.

    `forward_q` and the oracle (`build_qp`, `min_rate_terminal`) both use this
    operator, so the forward map and the QP share one quadrature.
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

    @property
    def _n_fft(self) -> int:
        """FFT length of at least 2N + 1, so that the circular lag products do not wrap."""
        return 1 << (2 * len(self.surv) - 2).bit_length()

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        n, m = self.xw.shape
        u_w0, u_t = u[:m], np.column_stack([u[m : m + n], u[m + n :].reshape(n, m)])
        L, n_fft = self._lag_values(), self._n_fft
        # sum over the lag columns c of conv_trap(L[:, c], u_t[:, c], dt)
        spec = np.einsum("fc,fc->f", np.fft.rfft(L, n_fft, axis=0), np.fft.rfft(u_t, n_fft, axis=0))
        conv = np.fft.irfft(spec, n_fft)[:n]
        rows = self.P0 @ u_w0 + self.dt * (conv - 0.5 * (u_t @ L[0] + L @ u_t[0]))
        out = rows[1:]
        if self.zero_mean:
            wx = self._metric()[0]
            out = np.concatenate([out, [wx @ u_w0], u_t[:, 1:] @ wx])
        return out

    def rmatvec(self, lam: np.ndarray) -> np.ndarray:
        """A^T lam."""
        n, m = self.xw.shape
        lam_r = np.concatenate([[0.0], lam[: n - 1]])  # the t = 0 row carries no constraint
        L, n_fft = self._lag_values(), self._n_fft
        # corr[j] = sum_l lam_r[j + l] L[l]: the convolution with lam_r reversed, read backwards
        spec = np.fft.rfft(L, n_fft, axis=0) * np.fft.rfft(lam_r[::-1], n_fft)[:, None]
        corr = np.fft.irfft(spec, n_fft, axis=0)[n - 1 :: -1]
        # transpose of the conv_trap end corrections: half weight at j = 0 and j = i
        u_t = self.dt * (corr - 0.5 * lam_r[:, None] * L[0])
        u_t[0] -= 0.5 * self.dt * corr[0]
        u_w0 = self.P0.T @ lam_r
        if self.zero_mean:
            wx = self._metric()[0]
            u_w0 = u_w0 + lam[n - 1] * wx
            u_t[:, 1:] += lam[n:, None] * wx[None, :]
        return np.concatenate([u_w0, u_t[:, 0], u_t[:, 1:].reshape(-1)])

    def gram(self) -> np.ndarray:
        """The N x N Gram G = A W^-1 A^T of the path rows t_1..t_N, in O(N^2 M).

        Row pairs give
            G[i, i'] = P0[i] . P0[i'] / wx + sum_{j <= min(i, i')} tw_i[j] tw_i'[j] nu_j K[i-j, i'-j],
        with K = V V^T the lag Gram at the interior time weights, V the (N+1, M+2)
        table [sigma surv / sqrt(wt_1), mu xw / sqrt(wtau_1 wx)], and nu_j = 2 at
        the half-weight end nodes j = 0, N, 1 inside.  Interior terms have the
        weight dt^2, so the sum is a cumulative sum along each diagonal of K,
        which is symmetric because K is.  The end terms then take their exact
        weights: j = 0 adds -dt^2/2 K[i, i']; j = i < i' adds -dt^2/2 K[0, i' - i]
        and j = i = i' adds -3 dt^2/4 K[0, 0], or -dt^2/2 K[0, 0] at i = N.

        With `zero_mean` this is the Gram of the path rows restricted to the
        W-orthogonal complement of the zero-mean rows: the Schur complement
        G - B Z^-1 B^T of the bordered (2N+2)-row Gram, whose zero-mean block Z
        is diagonal.  Each zero-mean row reads one x slice, so the complement is
        the same formula with every row v of P0 and xw replaced by its
        projection v - (sum v) wx / sum wx.
        """
        n = len(self.surv)
        wx, wt, wtau = self._metric()
        P0, xw = self.P0[1:], self.xw
        if self.zero_mean:
            P0, xw = (v - v.sum(axis=1, keepdims=True) * (wx / wx.sum()) for v in (P0, xw))
        root_wx = np.sqrt(wx)
        V = np.column_stack([self.sigma / np.sqrt(wt[1]) * self.surv, self.mu / np.sqrt(wtau[1]) * xw / root_wx])
        # Row a of the N x N arrays below is time node i = a + 1.
        k0 = V @ V[0]  # row 0 of K
        K = V[1:] @ V[1:].T  # K without row and column 0
        # G = cumulative sums along the diagonals of K, D[i, i'] = D[i-1, i'-1] + K[i, i'],
        # started from row and column 0 of K
        G = np.empty_like(K)
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
        P = P0 / root_wx
        G += np.matmul(P, P.T, out=K)  # the w0dot term, into the spent K
        return G


def forward_q(c: ControlSet, pm: ModelParams, d: ServiceDist, tol: float = 1e-10) -> GridPath:
    """Map a control set to the centered queue path q via the nonlinear renewal solve.

    The forcing is the drift plus the control terms of the path equation (the
    bridge term w0(F0(t)), the arrival term int (1-F(t-s)) sigma wdot(s) ds and
    the sequential-empirical term int_0^t int_0^{F(t-s)} kdot(x, mu*s) dx mu ds),
    applied by the oracle's operator `LagConstraints`.  The controls must share
    its grids: kdot on the x nodes of w0dot and the time nodes of wdot, over
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
    A = LagConstraints.from_law(pm, d, c.wdot.horizon, n, n_x)
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
