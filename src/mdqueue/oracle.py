"""Brute-force rate evaluation: the least control energy subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .fredholm import FredholmError
from .grids import GridPath
from .paths import LagConstraints, ModelParams, defect, drift
from .renewal import _solve, _solve_transposed

__all__ = ["LagConstraints", "QPSystem", "build_qp", "solve_min_norm", "min_rate_terminal", "TerminalRateResult"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QPSystem:
    """The constraints A u = r of the minimum-norm QP: one row per time node
    t_1..t_N, r the path defect of q with no controls.  `A.zero_mean` says
    whether the controls must have zero x-mean."""

    A: LagConstraints
    r: np.ndarray


def build_qp(q: GridPath, pm: ModelParams, d: ServiceDist, zero_mean: bool = False) -> QPSystem:
    """Assemble the affine constraints A u = r whose residual at u is the
    pointwise defect of the path equation (affine in the controls given q)."""
    r_full = defect(q, pm, d)
    if not abs(r_full[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r_full[0]!r}")
    # the trivial t = 0 row is dropped
    return QPSystem(A=LagConstraints.from_law(pm, d, q.horizon, q.n_steps, zero_mean=zero_mean), r=r_full[1:])


def _pcg_cap(n: int) -> int:
    """Iteration cap of the oracle's PCG for n path rows (about 430 are run at sigma = 100, n = 400)."""
    return 2 * n + 200


def solve_min_norm(sys: QPSystem) -> tuple[float, dict]:
    """Least control energy min 1/2 ||u||_W^2 subject to A u = r, lam . r / 2
    for G lam = r with G = A W^-1 A' of `LagConstraints.gram_operator`, by CG
    preconditioned with the inverse of G's min kernel until the recurrence
    residual res = r - G lam is at most 1e-12 |r| (past `_pcg_cap` iterations,
    a FredholmError).  The value is the dual objective lam . r - lam . G lam / 2
    = lam . (r + res) / 2, second order in the error of lam.  Returns it and the
    route "pcg", the iterations and |res| / |r|."""
    G = sys.A.gram_operator()
    r_norm = float(np.linalg.norm(sys.r)) or 1.0
    lam, res = np.zeros_like(sys.r), sys.r.copy()
    direction = z = G.min_kernel_solve(res)
    rz, iters = float(res @ z), 0
    while not (rel := float(np.linalg.norm(res)) / r_norm) <= 1e-12:  # NaN runs to the cap
        if iters == _pcg_cap(len(res)):
            raise FredholmError(f"oracle PCG: relative residual {rel:.3e} after {iters} iterations")
        iters += 1
        Gd = G @ direction
        alpha = rz / float(direction @ Gd)
        lam += alpha * direction
        res -= alpha * Gd
        z = G.min_kernel_solve(res)
        rz, rz_old = float(res @ z), rz
        direction = z + (rz / rz_old) * direction
    log.info("min-norm QP (%d path rows, zero mean %s): pcg, %d iterations, relative residual %.3e",
             len(sys.r), sys.A.zero_mean, iters, rel)
    return 0.5 * float(lam @ (sys.r + res)), {"route": "pcg", "iterations": iters, "residual": rel}


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
) -> TerminalRateResult:
    """Experimental: minimum of the control energy over paths with q(t) = a.

    The positive-part feedback is frozen at an assumed sign pattern, making
    the path affine in the controls, q = (I - L)^{-1} (base + [0, A u]).  With
    m the path rows of (I - L)^{-T} e_t and c = a - (I - L)^{-T} e_t . base,
    the least energy is c^2 / (2 m G m) (G = `LagConstraints.gram_operator`) and the
    minimiser moves the path rows by A u = G m c / (m G m).  Both triangular
    solves are the renewal march with the frozen pattern, forward for q and
    backward for m, so a grid with dt F'(0)/2 >= 1 raises
    `RenewalConvergenceError`.  The pattern is recomputed from the resulting
    path and the solve repeats until the pattern is stable, for at most 30
    solves.  The first pattern is the sign of the drift; nodes with
    |q| <= 1e-9 keep their previous label to prevent oscillation.
    """
    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    it_idx = int(round(t / dt))
    if not (0 <= it_idx <= n_steps) or abs(times[it_idx] - t) > 1e-9:
        raise ValueError("terminal time t must be a grid node within the horizon")
    base = drift(pm, d, times)
    G = LagConstraints.from_law(pm, d, horizon, n_steps).gram_operator()
    pattern = base > 0
    e_t = GridPath(horizon, np.arange(n_steps + 1) == it_idx)

    for iters in range(1, 31):
        m_t = _solve_transposed(e_t, d, pattern).values  # row it_idx of (I - L)^{-1}
        c = a - float(m_t @ base)
        Gm = G @ m_t[1:]
        mGm = float(m_t[1:] @ Gm)
        q = _solve(GridPath(horizon, base + np.concatenate([[0.0], Gm * (c / mGm)])), d, pattern)

        new_pattern = np.where(np.abs(q.values) > 1e-9, q.values > 0, pattern)
        stable = np.array_equal(new_pattern, pattern)
        if stable:
            break
        pattern = new_pattern

    return TerminalRateResult(0.5 * c**2 / mGm, stable, iters, q)
