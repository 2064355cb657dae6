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
    poisson_bracket,
    reduced_balance,
    shock_derivatives,
)
from .exprdsl import Expr, SmoothFn, differentiate, evaluate, parse
from .fdoracle import certify_sample, fd_partial
from .implicitsolve import (
    BranchPolicy,
    ImplicitRelation,
    RootReport,
    continue_branch,
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
    "continue_branch", "differentiate", "enumerate_roots", "evaluate",
    "fd_partial", "general_derivatives", "ghe_residual", "n_term_balance",
    "pairwise_balance", "parse", "poisson_bracket", "reduced_balance",
    "shock_derivatives", "verify_theorem",
]
