"""Numerical solver and verification suite for the coupled fractional power
system

    (-Laplace)^s u = (v_+)^p,   (-Laplace)^s v = (u_+)^q

on bounded 1D/2D domains with zero exterior condition, where (-Laplace)^s is
the restricted fractional Laplacian.  The package computes positive solution
pairs by a monotone fixed-point map (pq < 1) or a mountain-pass method
(pq > 1, subcritical) with Newton finishing, and verifies the qualitative
theory as quantitative checks: boundary behavior u ~ d^s, the
boundary/interior integral identity whose sign rules out solutions at and
above the critical exponent curve, uniqueness in the sublinear regime, and
the discrete maximum principle.
"""

__version__ = "0.1.0"

from .analysis import (
    AuditReport,
    BoundaryFit,
    RellichReport,
    UniquenessReport,
    boundary_exponent_fit,
    boundary_quotient,
    maximum_principle_audit,
    operator_invariants,
    rellich_residual,
    uniqueness_gap,
)
from .domains import BoundaryTrace, Domain, Grid, boundary_trace, build_grid, interpolate
from .energy import (
    EnergyReport,
    ExponentPair,
    energy,
    energy_gradient,
    energy_value,
    euler_lagrange_residual,
    smoothed_density,
    smoothed_power,
)
from .errors import (
    ConfigurationError,
    FraclaneError,
    NonconvergenceError,
    ResonantProblemError,
)
from .operator import (
    FractionalOperator,
    assemble,
    ball_torsion_constant,
    normalization_constant,
)
from .solvers import (
    SolutionPair,
    SolverConfig,
    initial_guess,
    minimize_sublinear,
    mountain_pass,
    newton_polish,
    recover_v,
    solve_system,
)

__all__ = [
    "__version__",
    "AuditReport", "BoundaryFit", "RellichReport", "UniquenessReport",
    "boundary_exponent_fit", "boundary_quotient",
    "maximum_principle_audit", "operator_invariants", "rellich_residual",
    "uniqueness_gap",
    "BoundaryTrace", "Domain", "Grid", "boundary_trace", "build_grid", "interpolate",
    "EnergyReport", "ExponentPair", "energy", "energy_gradient", "energy_value",
    "euler_lagrange_residual",
    "smoothed_density", "smoothed_power",
    "ConfigurationError", "FraclaneError", "NonconvergenceError", "ResonantProblemError",
    "FractionalOperator", "assemble", "ball_torsion_constant",
    "normalization_constant",
    "SolutionPair", "SolverConfig", "initial_guess", "minimize_sublinear",
    "mountain_pass", "newton_polish", "recover_v", "solve_system",
]
