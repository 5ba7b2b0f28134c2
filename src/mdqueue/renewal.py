"""Exact forward-march solver for the nonlinear renewal equation.

The equation g(t) = f(t) + int_0^t g(t-s)^+ dF(s) is discretised by
the trapezoid rule on the grid of f, with the lag dt F'(t_k) that the caller
passes as a `grids.LagConv` (the `lag` of `paths.PathEquation`), which also
checks the residual.  The discrete system is lower triangular:
the unknown g_i enters its own equation only through the s = 0 term, with
weight alpha = dt F'(0)/2.  So each node solves g_i = c_i + alpha g_i^+ in
closed form, where c_i is the known history sum over nodes 0..i-1:
g_i = c_i / (1 - alpha) if c_i > 0, else g_i = c_i.
One march from node 0 to node N solves the discrete equations to round-off.
alpha >= 1 is an error: the grid is too coarse for the law, and the node
equation then has no solution or two.  A final sup-norm residual of the
discrete equations above 1e-9 |f|_inf is an error: a g within the renewal
bound U(T) |f|_inf has far less round-off; a g past it is the march's growth.

The theory assumes f absolutely continuous; grid samples with jumps are
accepted as-is, at the cost of first-order accuracy near the jump.
"""
from __future__ import annotations

import numpy as np

from .grids import GridPath, LagConv

__all__ = ["solve_nonlinear", "RenewalConvergenceError"]


class RenewalConvergenceError(RuntimeError):
    """Raised when the renewal march cannot solve the discrete equations.

    Carries the sup-norm residual of the discrete equations and the number of
    nodes marched, so callers never act on silently wrong values.
    """

    def __init__(self, residual: float, iterations: int, reason: str | None = None):
        super().__init__(
            reason or f"renewal march residual {residual:.3e} exceeds tolerance after {iterations} nodes"
        )
        self.residual = residual
        self.iterations = iterations


def solve_nonlinear(f: GridPath, lag: LagConv) -> GridPath:
    """Solve g = f + int_0^t g(t-s)^+ dF(s) on the grid of f, lag the `LagConv.of_law` of F there.

    The forward march: node i feeds back g_i where c_i > 0 (the positive part)."""
    n = f.n_steps
    fv = f.values
    w = lag.lags  # dt F'(t_k); the trapezoid halves the end terms
    if w.shape != fv.shape:
        raise ValueError(f"a lag of {len(w)} nodes does not fit the forcing's grid of {n + 1} nodes")
    alpha = 0.5 * float(w[0])
    if not alpha < 1.0:
        raise RenewalConvergenceError(
            float("nan"), 0, f"renewal march impossible: dt F'(0)/2 = {alpha:.3e} >= 1; refine the grid"
        )

    # a = g^+.  c_i = f_i + w_i a_0 / 2 + sum_{j=1}^{i-1} w_{i-j} a_j,
    # and rev[n - k] = w_k makes the history sum one contiguous dot product
    g = np.empty(n + 1)
    a = np.empty(n + 1)
    g[0] = fv[0]
    a[0] = max(fv[0], 0.0)
    known = (fv + 0.5 * w * a[0]).tolist()
    rev = w[::-1].copy()
    # a march that grows past the float range reaches inf - inf = NaN, which the residual rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n + 1):
            c = known[i] + float(a[1:i] @ rev[n - i + 1 : n])
            if c > 0.0:
                g[i] = a[i] = c / (1.0 - alpha)
            else:
                g[i], a[i] = c, 0.0
        residual = float(np.max(np.abs(g - fv - lag @ a)))
    if not residual <= 1e-9 * max(float(np.max(np.abs(fv))), np.finfo(float).tiny):  # NaN fails too
        raise RenewalConvergenceError(residual, n)
    return GridPath(horizon=f.horizon, values=g)

