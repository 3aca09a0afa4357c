"""Constraint dissolving toolkit for manifold-constrained nonlinear
programs: transform, solve, diagnose, benchmark."""

from .bench import load_problem
from .core import (
    ManifoldHandle,
    MultiplierSet,
    PenaltyParams,
    ProblemSpec,
    finite_diff_check,
)
from .diagnostics import (
    check_condition,
    check_licq,
    estimate_constants,
    feasibility,
    kkt_residual,
    make_synthetic_kkt,
    validate_manifold,
)
from .dissolve import a_infinity, apply_A_k, build_cdp, cdp_lagrangian
from .manifolds import GenericManifoldSpec, make_handle
from .solver import AlmOptions, alm_solve_cdp, alm_solve_nlp_direct, lbfgs_minimize

__version__ = "0.1.0"

__all__ = [
    "AlmOptions",
    "GenericManifoldSpec",
    "ManifoldHandle",
    "MultiplierSet",
    "PenaltyParams",
    "ProblemSpec",
    "a_infinity",
    "alm_solve_cdp",
    "alm_solve_nlp_direct",
    "apply_A_k",
    "build_cdp",
    "cdp_lagrangian",
    "check_condition",
    "check_licq",
    "estimate_constants",
    "feasibility",
    "finite_diff_check",
    "kkt_residual",
    "lbfgs_minimize",
    "load_problem",
    "make_handle",
    "make_synthetic_kkt",
    "validate_manifold",
]
