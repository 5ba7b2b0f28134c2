"""Moderate-deviations toolkit for many-server GI/GI/n queues.

Evaluates the quadratic rate functional of centered queue paths through an
adjoint (Fredholm) solve, cross-checks it against a direct minimum-norm
quadratic program, and ships an event-driven simulator for the pathwise
decomposition and law-of-large-numbers diagnostics.
"""

from .dist import ServiceDist
from .fredholm import (
    FredholmError,
    RateResult,
    assemble_kernel,
    dual_value,
    evaluate_rate,
    forcing,
    rate_value,
    recover_controls,
    solve_p,
)
from .grids import GridField2D, GridPath, conv_trap, cumtrap, trap_weights
from .oracle import QPSystem, build_qp, solve_min_norm
from .paths import (
    ControlSet,
    ModelParams,
    PathEquation,
    defect,
    energy,
    forward_q,
    kiefer_energy,
    kiefer_from_sheet,
)
from .renewal import RenewalConvergenceError, solve_nonlinear
from .sim import (
    DecompositionReport,
    QueueTrace,
    ScalingRegime,
    SimulationError,
    decomposition,
    flow_balance_residuals,
    lln_check,
    mc_tail,
    simulate,
    spawn_streams,
)

__version__ = "0.1.0"

__all__ = [
    "ServiceDist",
    "GridPath",
    "GridField2D",
    "trap_weights",
    "conv_trap",
    "cumtrap",
    "ModelParams",
    "ControlSet",
    "PathEquation",
    "defect",
    "energy",
    "forward_q",
    "kiefer_from_sheet",
    "kiefer_energy",
    "solve_nonlinear",
    "RenewalConvergenceError",
    "RateResult",
    "FredholmError",
    "forcing",
    "assemble_kernel",
    "solve_p",
    "rate_value",
    "dual_value",
    "recover_controls",
    "evaluate_rate",
    "QPSystem",
    "build_qp",
    "solve_min_norm",
    "ScalingRegime",
    "QueueTrace",
    "DecompositionReport",
    "simulate",
    "flow_balance_residuals",
    "decomposition",
    "lln_check",
    "mc_tail",
    "spawn_streams",
    "SimulationError",
    "__version__",
]
