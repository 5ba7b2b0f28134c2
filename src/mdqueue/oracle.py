"""Brute-force rate evaluation: the least control energy subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .fredholm import FredholmError
from .grids import GridPath, lags, volterra_weights
from .paths import LagConstraints, ModelParams, defect, drift

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


def solve_min_norm(sys: QPSystem) -> tuple[float, str]:
    """Least control energy min 1/2 ||u||_W^2 subject to A u = r: with the
    Gram G = A W^-1 A' (`LagConstraints.gram`, exact in x), G lam = r and
    value = 1/2 lam . r.

    The route is "cholesky", or "regularized" when the Gram is numerically
    rank-deficient and a diagonal shift of 1e-12 of its mean diagonal is
    solved instead (with a warning).
    """
    from scipy.linalg import cho_factor, cho_solve

    G = sys.A.gram()
    try:
        lam = cho_solve(cho_factor(G), sys.r)
        route = "cholesky"
    except np.linalg.LinAlgError:
        warnings.warn("constraint Gram matrix rank-deficient; using regularized solve")
        G.flat[:: len(G) + 1] += 1e-12 * np.trace(G) / len(G)
        lam = np.linalg.solve(G, sys.r)
        route = "regularized"
    log.info("min-norm QP (%d path rows, zero mean %s): %s route", len(sys.r), sys.A.zero_mean, route)
    return 0.5 * float(lam @ sys.r), route


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
    the least energy is c^2 / (2 m G m) (G = `LagConstraints.gram`) and the
    minimiser moves the path rows by A u = G m c / (m G m).  The pattern is
    recomputed from the resulting path and the solve repeats until the
    pattern is stable, for at most 30 solves.  The first pattern is the sign
    of the drift; nodes with |q| <= 1e-9 keep their previous label to prevent
    oscillation.
    """
    from scipy.linalg import solve_triangular

    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    it_idx = int(round(t / dt))
    if not (0 <= it_idx <= n_steps) or abs(times[it_idx] - t) > 1e-9:
        raise ValueError("terminal time t must be a grid node within the horizon")
    base = drift(pm, d, times)
    G = LagConstraints.from_law(pm, d, horizon, n_steps).gram()

    # L[i, j] = tw_i[j] F'(t_i - t_j) times the frozen pattern at t_j
    lagged_fprime = volterra_weights(n_steps + 1, dt) * d.pdf(times)[lags(n_steps + 1)]
    pattern = (base > 0).astype(float)
    e_t = np.zeros(n_steps + 1)
    e_t[it_idx] = 1.0

    stable = False
    for iters in range(1, 31):
        I_L = np.eye(n_steps + 1) - lagged_fprime * pattern[None, :]
        m_t = solve_triangular(I_L, e_t, lower=True, trans="T")  # row it_idx of (I - L)^{-1}
        c = a - float(m_t @ base)
        Gm = G @ m_t[1:]
        mGm = float(m_t[1:] @ Gm)
        q_vals = solve_triangular(I_L, base + np.concatenate([[0.0], Gm * (c / mGm)]), lower=True)

        new_pattern = pattern.copy()
        mask = np.abs(q_vals) > 1e-9
        new_pattern[mask] = (q_vals[mask] > 0).astype(float)
        if np.array_equal(new_pattern, pattern):
            stable = True
            break
        pattern = new_pattern

    return TerminalRateResult(
        value=0.5 * c**2 / mGm, pattern_stable=stable, iterations=iters, q=GridPath(horizon, q_vals)
    )
