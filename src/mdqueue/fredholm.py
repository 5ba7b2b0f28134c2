"""Adjoint solve for the rate functional: forcing assembly, Fredholm kernel,
matrix-free conjugate-gradient solve, dual value, and recovery of the optimal
controls."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import ServiceDist
from .grids import GridField2D, GridPath, LagConv, trap_weights
from .paths import ControlSet, ModelParams, PathEquation, defect

__all__ = [
    "RateResult",
    "FredholmError",
    "forcing",
    "assemble_kernel",
    "solve_p",
    "rate_value",
    "dual_value",
    "recover_controls",
    "evaluate_rate",
    "shift_matrix",
]

_ZERO_CLAMP = 1e-10
_CG_MAX_ITER = 400  # iteration budget of the adjoint CG solve
_CG_TOL = 1e-12  # the adjoint CG stops at _CG_TOL * |h|_inf


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


def forcing(q: GridPath, r: np.ndarray) -> GridPath:
    """h = r' on the grid of q for its defect r = `paths.defect`, the constraint
    right side of the oracle; in the continuum h(t) = qdot(t) -
    int_0^t (q^+)'(s) F'(t-s) ds + (beta - q0^-) F0'(t)."""
    return GridPath(q.horizon, path_derivative(GridPath(q.horizon, r)))


def shift_matrix(d: ServiceDist, T: float, n_steps: int) -> np.ndarray:
    """Dense trapezoid matrix S with (S p)_i = int_{t_i}^T p(u) F'(u - t_i) du.

    The discrete adjoint of S in the trapezoid inner product is the
    convolution int_0^t p(r) F'(t - r) dr, so the Fredholm operator and the
    dual objective built from S are exactly transposes of one another.
    This is the reference that the adjoint's S p and `assemble_kernel` are tested
    against: S[i, j] is the lag g_{j-i} of `LagConv.of_law` for j >= i.
    """
    idx = np.arange(n_steps + 1)
    S = np.triu(LagConv.of_law(d, T, n_steps).lags[np.abs(idx[None, :] - idx[:, None])])
    S[idx, idx] *= 0.5
    S[:, -1] *= 0.5
    S[-1, -1] = 0.0
    return S


def _shift(eq: PathEquation, p: np.ndarray) -> np.ndarray:
    """S p for the matrix S of `shift_matrix` on the grid of eq, as J T J p, J the reversal of
    the grid and T the lag of eq: T's halved j = i term is S's halved diagonal, its halved
    j = 0 term S's halved column N and its zero row 0 S's zero row N."""
    return (eq.lag @ p[::-1])[::-1]


def assemble_kernel(eq: PathEquation):
    """The Fredholm operator v -> mu v + sigma^2 (u - S* u), u = v - S v, on the grid of eq,
    with S* = W^-1 S^T W its adjoint in the trapezoid inner product of the weights W.  It is
    (mu + sigma^2) v - K v for the kernel
    K(s,t) = sigma^2 (F'(|s-t|) - int_0^{s^t} F'(s-r) F'(t-r) dr),
    applied as sigma^2 (S + S* - S* S) so that the linear system is exactly the stationarity
    condition of the discrete dual objective; K is never formed.
    """
    T, w, mu, s2 = eq.lag, trap_weights(eq.n_steps + 1, eq.dt), eq.pm.mu, eq.pm.sigma**2

    def op(v):
        u = v - _shift(eq, v)
        return mu * v + s2 * (u - T.rmatvec((w * u)[::-1])[::-1] / w)
    return op


def _cg(apply, b, inner, precond, done, cap) -> tuple[np.ndarray, np.ndarray, int]:
    """Preconditioned conjugate gradients for apply(x) = b from x = 0, in the
    inner product inner(u, v), until done(r) or cap iterations.  precond must
    return a new array: r is updated in place.  Returns x, the recurrence
    residual r = b - apply(x) and the iteration count."""
    x = np.zeros_like(b)
    r = b.copy()
    direction = z = precond(r)
    rz, iters = inner(r, z), 0
    while not done(r) and iters < cap:
        iters += 1
        Ad = apply(direction)
        alpha = rz / inner(direction, Ad)
        x += alpha * direction
        r -= alpha * Ad
        z = precond(r)
        rz, rz_old = inner(r, z), rz
        direction = z + (rz / rz_old) * direction
    return x, r, iters


def solve_p(h: GridPath, eq: PathEquation) -> tuple[GridPath, dict]:
    """Solve (mu + sigma^2) p = h + K p for the adjoint on the grid of eq by conjugate gradients.

    The operator of `assemble_kernel`, mu p + sigma^2 (I - S*)(I - S) p, equals
    (mu + sigma^2) p - K p and is symmetric positive definite in the trapezoid inner product
    <x, y>_w = sum w x y, so CG in that inner product converges for every
    mu > 0.  Iteration stops once the sup-norm residual is at most
    1e-12 |h|_inf (a NaN residual stops it at once), relative to |h| alone so
    that a small forcing is solved as closely as a large one; a final residual
    above max(that, 1e-8) is a hard error.  An h off the grid of eq is a ValueError.
    """
    eq.check_grid("h", h.horizon, h.n_steps)
    pm, w, op = eq.pm, trap_weights(eq.n_steps + 1, eq.dt), assemble_kernel(eq)
    h_max = float(np.max(np.abs(h.values)))
    target = _CG_TOL * h_max
    # CG runs on h 2^e with |h 2^e|_inf in [1/2, 1), or smaller by the factor that keeps the
    # operator's coefficients times it below 2^1000, so that its inner products do not
    # underflow for a tiny forcing nor the operator overflow at a huge sigma; a power of
    # two scales every operation exactly; the stop rule, scaled alike, cannot underflow to 0
    e = -math.frexp(h_max)[1] - max(0, math.frexp(max(pm.mu, pm.sigma * pm.sigma))[1] - 1000)
    hv, stop = np.ldexp(h.values, e), _CG_TOL * math.ldexp(h_max, e)

    p, _, iters = _cg(op, hv, lambda u, v: float(w @ (u * v)), np.copy,
                      lambda r: not np.max(np.abs(r)) > stop, _CG_MAX_ITER)
    res = math.ldexp(float(np.max(np.abs(op(p) - hv))), -e)
    p = np.ldexp(p, -e)
    if not res <= max(target, 1e-8):
        raise FredholmError(f"adjoint residual {res:.3e} exceeds tolerance (method=cg, iters={iters})")
    diag = {"method": "cg", "iterations": iters, "residual": res}
    return GridPath(h.horizon, p), diag


def rate_value(p: GridPath, h: GridPath) -> float:
    """I = 1/2 * int p h dt, clamped to 0 inside [-_ZERO_CLAMP, 0); below it, or
    NaN, is a FredholmError."""
    val = 0.5 * float(p.weights() @ (p.values * h.values))
    if not val >= -_ZERO_CLAMP:  # the negated comparison also rejects NaN
        raise FredholmError(f"rate value {val:.3e} below -{_ZERO_CLAMP:.0e}: solver inconsistency")
    return max(val, 0.0)


def dual_value(p: GridPath, h: GridPath, pm: ModelParams, wdot: GridPath) -> float:
    """Concave dual objective int p h - 1/2 (mu int p^2 + int (sigma p - sigma S p)^2).

    wdot is sigma (p - S p), the arrival control `recover_controls` gives for p,
    S the shift of `shift_matrix` on the grid of p; shifts beyond the
    horizon use p = 0.  At the adjoint this equals the rate value by
    construction of the discrete saddle problem.
    """
    w = p.weights()
    pv = p.values
    lin = float(w @ (pv * h.values))
    quad_mu = pm.mu * float(w @ pv**2)
    return lin - 0.5 * (quad_mu + float(w @ wdot.values**2))


def recover_controls(p: GridPath, eq: PathEquation, n_x: int = 32) -> ControlSet:
    """Optimal controls from the adjoint:

    w0dot(x) = p(F0^{-1}(x)), wdot(t) = sigma (p(t) - int p(t+s) F'(s) ds),
    kdot(x, t) = p(t/mu + F^{-1}(x)); p vanishes beyond the horizon.  p lives
    on the grid of eq.
    """
    eq.check_grid("p", p.horizon, p.n_steps)
    pm, d, T = eq.pm, eq.pm.law, p.horizon

    x_nodes = np.linspace(0.0, 1.0, n_x + 1)
    w0 = np.zeros(n_x + 1)
    below = x_nodes < float(eq.F0[-1])
    w0[below] = p.interp(d.eq_ppf(x_nodes[below]))
    wdot = pm.sigma * (p.values - _shift(eq, p.values))

    tau = np.linspace(0.0, pm.mu * T, p.n_steps + 1)
    kdot = np.zeros((n_x + 1, p.n_steps + 1))
    below = x_nodes < float(eq.F[-1])
    args = tau[None, :] / pm.mu + d.ppf(x_nodes[below])[:, None]
    kdot[below] = np.where(args <= T, p.interp(args), 0.0)

    return ControlSet(
        w0dot=GridPath(1.0, w0),
        wdot=GridPath(T, wdot),
        kdot=GridField2D(pm.mu * T, kdot),
    )


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


def evaluate_rate(q: GridPath, eq: PathEquation, n_x: int = 32) -> RateResult:
    """Full adjoint pipeline on the grid of eq: forcing, kernel, adjoint, rate, dual, controls."""
    pm = eq.pm
    h = forcing(q, defect(q, eq))
    p, diag = solve_p(h, eq)
    rate = rate_value(p, h)
    controls = recover_controls(p, eq, n_x=n_x)
    dual = dual_value(p, h, pm, controls.wdot)
    # the control energy exact in x: by x = F0(s) and x = F(s) the w0dot and
    # kdot terms are mu <p, p>_w / 2, so primal - rate = <p, op(p) - h>_w / 2
    w = p.weights()
    primal = 0.5 * (pm.mu * float(w @ p.values**2) + float(w @ controls.wdot.values**2))
    gap = primal - rate
    diag = dict(diag, truncation_tail_mass=float(1.0 - eq.F[-1]))
    # the gap must be within what the solver's residual allows, plus round-off;
    # the negated comparison also rejects NaN
    gap_bound = 0.5 * float(w @ np.abs(p.values)) * diag["residual"] + 1e-12 * (1.0 + rate)
    if not abs(gap) <= gap_bound:
        raise FredholmError(f"duality gap {gap} exceeds the adjoint residual bound {gap_bound:.2e}")
    return RateResult(forcing=h, adjoint=p, rate=rate, dual=dual, controls=controls, primal_energy=primal,
                      duality_gap=gap, diagnostics=diag)
