"""Brute-force rate evaluation: the least control energy subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
from .fredholm import FredholmError, _cg
from .grids import GridPath
from .paths import LagConstraints, ModelParams, defect

__all__ = ["LagConstraints", "QPSystem", "build_qp", "solve_min_norm"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QPSystem:
    """The constraints A u = r of the minimum-norm QP: one row per time node
    t_1..t_N, r the path defect of q with no controls."""

    A: LagConstraints
    r: np.ndarray


def build_qp(q: GridPath, pm: ModelParams, d: ServiceDist) -> QPSystem:
    """Assemble the affine constraints A u = r, whose residual
    at u is the pointwise defect of the path equation (affine in u given q)."""
    r_full = defect(q, pm, d)
    if not abs(r_full[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r_full[0]!r}")
    # the trivial t = 0 row is dropped
    return QPSystem(A=LagConstraints.from_law(pm, d, q.horizon, q.n_steps), r=r_full[1:])


def _pcg_cap(n: int) -> int:
    """Iteration cap of the oracle's PCG for n path rows: 4 to 10 are run at any sigma
    where dt F' is small, and up to about 2n with zero mean where it is not."""
    return 2 * n + 200


def solve_min_norm(sys: QPSystem, zero_mean: bool = False) -> tuple[float, dict]:
    """Least control energy min 1/2 ||u||_W^2 subject to A u = r, over controls
    with zero x-mean when `zero_mean`: lam . r / 2 for G lam = r with
    G = A W^-1 A' of `LagConstraints.gram_operator(zero_mean)`, by CG
    preconditioned with `GramOperator.precond` until the recurrence residual
    res = r - G lam is at most 1e-12 |r| (past `_pcg_cap` iterations, or at a
    NaN residual, a FredholmError).  The value is the dual objective
    lam . r - lam . G lam / 2 = lam . (r + res) / 2, second order in the error
    of lam.  Returns it and the route "pcg", the iterations and |res| / |r|."""
    G = sys.A.gram_operator(zero_mean)
    r_norm = float(np.linalg.norm(sys.r)) or 1.0
    # CG runs on b = r / |r|, whose b . z stays in the float range whatever the scale of r;
    # a NaN residual stops it at once, and fails the check below
    b = sys.r / r_norm
    lam, res, iters = _cg(G.__matmul__, b, lambda u, v: float(u @ v), G.precond,
                          lambda r: not float(np.linalg.norm(r)) > 1e-12, _pcg_cap(len(b)))
    rel = float(np.linalg.norm(res))
    if not rel <= 1e-12:
        raise FredholmError(f"oracle PCG: relative residual {rel:.3e} after {iters} iterations")
    log.info("min-norm QP (%d path rows, zero mean %s): pcg, %d iterations, relative residual %.3e",
             len(sys.r), zero_mean, iters, rel)
    return 0.5 * r_norm * float(lam @ (b + res)) * r_norm, {"route": "pcg", "iterations": iters, "residual": rel}
