"""Verification engine for implicit shock-wave solution families and
linear superposition in the general heavenly equation."""

from .calculus import (
    FieldSample,
    ResidualReport,
    compat_residuals,
    general_derivatives,
    ghe_residual,
    n_term_balance,
    pairwise_balance,
    reduced_balance,
    shock_derivatives,
)
from .exprdsl import Expr, SmoothFn, differentiate, evaluate, parse
from .fdoracle import certify_sample
from .implicitsolve import (
    BranchPolicy,
    ImplicitRelation,
    RootReport,
    enumerate_roots,
)
from .registry import (
    GeneralSolutionDef,
    SharedProfile,
    ShockSolutionDef,
    build_general_family,
    build_shock_family,
)
from .superpose import verify_theorem

__all__ = [
    "BranchPolicy", "Expr", "FieldSample", "GeneralSolutionDef",
    "ImplicitRelation", "ResidualReport", "RootReport", "SharedProfile",
    "ShockSolutionDef", "SmoothFn", "build_general_family",
    "build_shock_family", "certify_sample", "compat_residuals",
    "differentiate", "enumerate_roots", "evaluate", "general_derivatives",
    "ghe_residual", "n_term_balance", "pairwise_balance", "parse",
    "reduced_balance", "shock_derivatives", "verify_theorem",
]
