"""Budgeted transportation solvers: auction-based approximation with certificates.

Maximize edge profits subject to source supplies and per-sink budgets on
price-weighted inflow, optionally with edge capacities.  The solver returns a
(1-epsilon)-approximate flow together with a feasible dual whose value
certifies the gap; everything is exact rational arithmetic by default.
"""

from .certify import Certificate, certify, weak_duality_bound
from .instance import (
    EdgeSpec,
    InstanceDiagnostics,
    Kind,
    ProblemInstance,
    SolverConfig,
    diagnostics,
    generate,
    parse,
    serialize,
)
from .oracle import approx_factor, exact_opt
from .solver import Solution, solve

__all__ = [
    "Certificate",
    "EdgeSpec",
    "InstanceDiagnostics",
    "Kind",
    "ProblemInstance",
    "Solution",
    "SolverConfig",
    "approx_factor",
    "certify",
    "diagnostics",
    "exact_opt",
    "generate",
    "parse",
    "serialize",
    "solve",
    "weak_duality_bound",
]

__version__ = "0.1.0"
