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
    pairwise_balances,
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
    GeneralFamily,
    GeneralSolutionDef,
    SharedProfile,
    ShockFamily,
    ShockSolutionDef,
)
from .superpose import verify_theorem

__all__ = [
    "BranchPolicy", "Expr", "FieldSample", "GeneralFamily",
    "GeneralSolutionDef", "ImplicitRelation", "ResidualReport", "RootReport",
    "SharedProfile", "ShockFamily", "ShockSolutionDef", "SmoothFn",
    "certify_sample", "compat_residuals",
    "differentiate", "enumerate_roots", "evaluate", "general_derivatives",
    "ghe_residual", "n_term_balance", "pairwise_balance",
    "pairwise_balances", "parse", "reduced_balance", "shock_derivatives",
    "verify_theorem",
]
