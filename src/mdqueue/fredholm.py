"""Adjoint solve for the rate functional: forcing assembly, Fredholm kernel,
matrix-free conjugate-gradient solve, dual value, and recovery of the optimal
controls."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import ServiceDist
from .grids import GridField2D, GridPath, trap_weights
from .paths import ControlSet, ModelParams, defect, drift, energy
from .renewal import solve_nonlinear

__all__ = [
    "ShiftOperator",
    "RateResult",
    "FredholmError",
    "forcing",
    "assemble_kernel",
    "solve_p",
    "rate_value",
    "dual_value",
    "recover_controls",
    "evaluate_rate",
    "lln_path",
    "shift_matrix",
]

_ZERO_CLAMP = 1e-10
_CG_MAX_ITER = 400  # iteration budget of the adjoint CG solve


class FredholmError(RuntimeError):
    """A numerical check of the adjoint solve, the rate or the QP failed."""


def path_derivative(q: GridPath) -> np.ndarray:
    """Central differences with second-order one-sided stencils at the ends."""
    v, dt = q.values, q.dt
    dq = np.empty_like(v)
    dq[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    dq[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
    dq[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
    return dq


def forcing(q: GridPath, pm: ModelParams, d: ServiceDist) -> GridPath:
    """h = r' for the defect r of `paths.defect`, the constraint right side of
    the oracle; in the continuum h(t) = qdot(t) - int_0^t (q^+)'(s) F'(t-s) ds
    + (beta - q0^-) F0'(t)."""
    return GridPath(q.horizon, path_derivative(GridPath(q.horizon, defect(q, pm, d))))


def shift_matrix(d: ServiceDist, T: float, n_steps: int) -> np.ndarray:
    """Dense trapezoid matrix S with (S p)_i = int_{t_i}^T p(u) F'(u - t_i) du.

    The discrete adjoint of S in the trapezoid inner product is the
    convolution int_0^t p(r) F'(t - r) dr, so the Fredholm operator and the
    dual objective built from S are exactly transposes of one another.
    This is the reference that `ShiftOperator` is tested against.
    """
    t = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    lag = t[None, :] - t[:, None]
    S = np.where(lag >= 0, d.pdf(np.abs(lag)), 0.0)
    S *= dt
    idx = np.arange(n_steps + 1)
    S[idx, idx] *= 0.5
    S[:, -1] *= 0.5
    S[-1, -1] = 0.0
    return S


@dataclass(frozen=True)
class ShiftOperator:
    """The matrix of `shift_matrix`, applied by FFT without being formed.

    S_ij = dt F'(t_j - t_i) for j >= i is Toeplitz apart from the trapezoid
    end corrections: half weight on the diagonal and on column N, and a zero
    row N.  S p is a correlation and S^T u a convolution with the lag vector
    g = dt (F'(0)/2, F'(t_1), ..., F'(t_N)), zero-padded to at least 2N + 1
    points so that the circular products do not wrap.
    """

    lag_fft: np.ndarray
    n_fft: int
    weights: np.ndarray

    def _convolve(self, u: np.ndarray) -> np.ndarray:
        """First len(u) entries of the linear convolution g * u."""
        return np.fft.irfft(self.lag_fft * np.fft.rfft(u, self.n_fft), self.n_fft)[: len(u)]

    def apply(self, p: np.ndarray) -> np.ndarray:
        """S p."""
        u = p.copy()
        u[-1] *= 0.5
        out = self._convolve(u[::-1])[::-1]
        out[-1] = 0.0
        return out

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """S* v = S^T (w v) / w, the adjoint in the trapezoid inner product."""
        u = self.weights * v
        u[-1] = 0.0
        out = self._convolve(u)
        out[-1] *= 0.5
        return out / self.weights


def assemble_kernel(d: ServiceDist, T: float, n_steps: int) -> ShiftOperator:
    """The shift operator S on [0, T] that carries the Fredholm kernel
    K(s,t) = sigma^2 (F'(|s-t|) - int_0^{s^t} F'(s-r) F'(t-r) dr).

    The solver applies K as sigma^2 (S + S* - S* S) in the weighted inner
    product, so that the linear system is exactly the stationarity condition
    of the discrete dual objective; K is never formed.
    """
    dt = T / n_steps
    g = dt * d.pdf(np.linspace(0.0, T, n_steps + 1))
    g[0] *= 0.5
    n_fft = 1 << (2 * n_steps).bit_length()
    return ShiftOperator(np.fft.rfft(g, n_fft), n_fft, trap_weights(n_steps + 1, dt))


def solve_p(h: GridPath, S: ShiftOperator, pm: ModelParams, tol: float = 1e-12) -> tuple[GridPath, dict]:
    """Solve (mu + sigma^2) p = h + K p for the adjoint by conjugate gradients.

    The operator mu p + sigma^2 (I - S*)(I - S) p equals (mu + sigma^2) p - K p
    and is symmetric positive definite in the trapezoid inner product
    <x, y>_w = sum w x y, so CG in that inner product converges for every
    mu > 0.  Iteration stops once the sup-norm residual is at most
    tol * |h|_inf, so any tol < 1 takes at least one step on a nonzero forcing;
    a final residual above max(that, 1e-8) is a hard error.
    """
    w = S.weights
    hv = h.values
    target = tol * float(np.max(np.abs(hv)))

    def op(v):
        u = v - S.apply(v)
        return pm.mu * v + pm.sigma**2 * (u - S.adjoint(u))

    p = np.zeros_like(hv)
    r = hv.copy()
    direction = r.copy()
    rr = float(w @ r**2)
    iters = 0
    while np.max(np.abs(r)) > target and iters < _CG_MAX_ITER:
        iters += 1
        Ad = op(direction)
        alpha = rr / float(w @ (direction * Ad))
        p += alpha * direction
        r -= alpha * Ad
        rr, rr_old = float(w @ r**2), rr
        direction = r + (rr / rr_old) * direction

    res = float(np.max(np.abs(op(p) - hv)))
    if not res <= max(target, 1e-8):
        raise FredholmError(f"adjoint residual {res:.3e} exceeds tolerance (method=cg, iters={iters})")
    diag = {"method": "cg", "iterations": iters, "residual": res}
    return GridPath(h.horizon, p), diag


def rate_value(p: GridPath, h: GridPath) -> float:
    """I = 1/2 * int p h dt, clamped to 0 inside [-_ZERO_CLAMP, 0)."""
    val = 0.5 * float(p.weights() @ (p.values * h.values))
    if val < -_ZERO_CLAMP:
        raise FredholmError(f"rate value {val:.3e} below -{_ZERO_CLAMP:.0e}: solver inconsistency")
    return max(val, 0.0)


def dual_value(p: GridPath, h: GridPath, pm: ModelParams, S: ShiftOperator) -> float:
    """Concave dual objective int p h - 1/2 (mu int p^2 + int (sigma p - sigma S p)^2).

    S is the `assemble_kernel` operator on the grid of p; shifts beyond the
    horizon use p = 0.  At the adjoint this equals the rate value by
    construction of the discrete saddle problem.
    """
    w = p.weights()
    pv = p.values
    lin = float(w @ (pv * h.values))
    quad_mu = pm.mu * float(w @ pv**2)
    resid = pm.sigma * (pv - S.apply(pv))
    return lin - 0.5 * (quad_mu + float(w @ resid**2))


def recover_controls(
    p: GridPath, pm: ModelParams, d: ServiceDist, S: ShiftOperator, n_x: int = 32
) -> ControlSet:
    """Optimal controls from the adjoint:

    w0dot(x) = p(F0^{-1}(x)), wdot(t) = sigma (p(t) - int p(t+s) F'(s) ds),
    kdot(x, t) = p(t/mu + F^{-1}(x)); p vanishes beyond the horizon.  S is
    the `assemble_kernel` operator on the grid of p.
    """
    T = p.horizon

    x_nodes = np.linspace(0.0, 1.0, n_x + 1)
    w0 = np.zeros(n_x + 1)
    below = x_nodes < float(d.eq_cdf(T))
    w0[below] = p.interp(d.eq_ppf(x_nodes[below]))
    wdot = pm.sigma * (p.values - S.apply(p.values))

    tau = np.linspace(0.0, pm.mu * T, p.n_steps + 1)
    kdot = np.zeros((n_x + 1, p.n_steps + 1))
    below = x_nodes < float(d.cdf(T))
    args = tau[None, :] / pm.mu + d.ppf(x_nodes[below])[:, None]
    kdot[below] = np.where(args <= T, p.interp(args), 0.0)

    return ControlSet(
        w0dot=GridPath(1.0, w0),
        wdot=GridPath(T, wdot),
        kdot=GridField2D(pm.mu * T, kdot),
    )


def lln_path(pm: ModelParams, d: ServiceDist, T: float, n_steps: int) -> GridPath:
    """Law-of-large-numbers path: the zero-control solution of the path equation."""
    return solve_nonlinear(GridPath(T, drift(pm, d, np.linspace(0.0, T, n_steps + 1))), d)


@dataclass(frozen=True)
class RateResult:
    """Everything the adjoint route produces for one path q."""

    forcing: GridPath
    adjoint: GridPath
    rate: float
    dual: float
    controls: ControlSet
    primal_energy: float
    duality_gap: float
    diagnostics: dict = field(default_factory=dict)


def evaluate_rate(
    q: GridPath,
    pm: ModelParams,
    d: ServiceDist,
    n_x: int = 32,
    tol: float = 1e-12,
) -> RateResult:
    """Full adjoint pipeline: forcing, kernel, adjoint, rate, dual, controls."""
    h = forcing(q, pm, d)
    S = assemble_kernel(d, q.horizon, q.n_steps)
    p, diag = solve_p(h, S, pm, tol=tol)
    rate = rate_value(p, h)
    dual = dual_value(p, h, pm, S)
    controls = recover_controls(p, pm, d, S, n_x=n_x)
    primal = energy(controls)
    gap = primal - rate
    tail_mass = float(1.0 - d.cdf(q.horizon))
    diag = dict(diag, truncation_tail_mass=tail_mass)
    # the rate must be the half pairing, nonnegative, and the gap bounded
    # below by the control-grid quadrature error (O(dx^2 + dt^2)); the
    # negated comparisons also reject NaN
    if not rate >= 0.0:
        raise FredholmError(f"rate {rate} is not nonnegative")
    gap_floor = (1e-8 + (1.0 / n_x) ** 2 + q.dt**2) * (1.0 + abs(rate))
    if not gap >= -gap_floor:
        raise FredholmError(f"duality gap {gap} below -{gap_floor:.2e}")
    return RateResult(
        forcing=h,
        adjoint=p,
        rate=rate,
        dual=dual,
        controls=controls,
        primal_energy=primal,
        duality_gap=gap,
        diagnostics=diag,
    )
