"""Brute-force rate evaluation: the least control energy subject to the
discretized path equation.  Exists to cross-check the adjoint route."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fredholm import FredholmError, cg
from .paths import PathEquation

__all__ = ["QPSystem", "build_qp", "solve_min_norm"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QPSystem:
    """The constraints A u = r of the minimum-norm QP: one row per time node
    t_1..t_N, A the control terms of the path equation and r the path defect
    of q with no controls."""

    A: PathEquation
    r: np.ndarray


def build_qp(eq: PathEquation, r: np.ndarray) -> QPSystem:
    """Assemble the affine constraints A u = r, whose residual at u is the
    pointwise defect of the path equation (affine in u given q); r is the
    `paths.defect` of q on the grid of eq."""
    if not abs(r[0]) < 1e-9:
        raise FredholmError(f"t = 0 constraint row is not trivial: residual {r[0]!r}")
    # the trivial t = 0 row is dropped
    return QPSystem(A=eq, r=r[1:])


def _pcg_cap(n: int) -> int:
    """Iteration cap of the oracle's PCG for n path rows: 4 to 10 are run at any sigma
    where dt F' is small, and up to about 2n with zero mean where it is not."""
    return 2 * n + 200


def solve_min_norm(sys: QPSystem, zero_mean: bool = False) -> tuple[float, dict]:
    """Least control energy min 1/2 ||u||_W^2 subject to A u = r, over controls with zero x-mean
    when `zero_mean`: lam . r / 2 for G lam = r, G = A W^-1 A' of `PathEquation.gram_operator`, by
    `fredholm.cg` preconditioned with `GramOperator.precond` within `_pcg_cap` iterations; the value
    is its dual value, lam . (r + res) / 2 at the true residual res.  Returns it and the route
    "pcg", the iterations and |res|_inf / |r|_inf."""
    G = sys.A.gram_operator(zero_mean)
    _, value, diag = cg("oracle PCG", G.__matmul__, sys.r, lambda u, v: float(u @ v), G.precond,
                        _pcg_cap(len(sys.r)))
    log.info("min-norm QP (%d path rows, zero mean %s): pcg, %d iterations, relative residual %.3e",
             len(sys.r), zero_mean, diag["iterations"], diag["residual"])
    return value, {"route": "pcg", "iterations": diag["iterations"], "residual": diag["residual"]}
