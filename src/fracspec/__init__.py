"""Eigenvalues and eigenfunctions of fractional boundary value problems.

Two problem variants share one frequency variable rho = lambda^{1/(2 alpha)}:
the rl-bridge problem (integral form: bridge covariance kernel) and the
caputo problem (integral form: Riemann-Liouville kernel). The package
provides matched solvers at three accuracy tiers: closed-form asymptotics,
a corrected Nystrom reference discretization, and secular-equation root
refinement through a half-line integral system, plus a CLI harness that
serializes their comparisons.
"""

from .asymptotics import (
    Order,
    boundary_layer,
    eigenfunction_asymptotic,
    lambda_asymptotic,
    lambda_two_term,
    rho_asymptotic,
    upsilons,
)
from .errors import (
    AccuracyError,
    BracketError,
    ConvergenceError,
    DomainError,
    FracspecError,
)
from .integro import (
    PQRSolution,
    RefinedRoot,
    SecularValue,
    analytic_extend,
    reconstruct_f_exact,
    refine_rho,
    refine_roots,
    secular,
    solve_pqr,
)
from .nystrom import (
    DiscreteSpectrum,
    KernelKind,
    KernelSpec,
    NystromGrid,
    build_grid,
    discretize_and_solve,
    eigenfunction_at,
    kernel_K,
    mercer_trace_gap,
)
from .phase import (
    FractionalOrder,
    PhaseTable,
    Variant,
    b_alpha,
    g0,
    gamma0,
    pv_weight,
    theta0,
    xc0,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BracketError",
    "ConvergenceError",
    "DiscreteSpectrum",
    "DomainError",
    "FracspecError",
    "FractionalOrder",
    "KernelKind",
    "KernelSpec",
    "NystromGrid",
    "Order",
    "PQRSolution",
    "PhaseTable",
    "RefinedRoot",
    "SecularValue",
    "Variant",
    "analytic_extend",
    "b_alpha",
    "boundary_layer",
    "build_grid",
    "discretize_and_solve",
    "eigenfunction_asymptotic",
    "eigenfunction_at",
    "g0",
    "gamma0",
    "kernel_K",
    "lambda_asymptotic",
    "lambda_two_term",
    "mercer_trace_gap",
    "pv_weight",
    "reconstruct_f_exact",
    "refine_rho",
    "refine_roots",
    "rho_asymptotic",
    "secular",
    "solve_pqr",
    "theta0",
    "upsilons",
    "xc0",
    "__version__",
]
