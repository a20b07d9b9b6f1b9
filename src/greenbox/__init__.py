"""greenbox: discrete Green functions of periodic divergence-form operators.

A numerical laboratory for G(x, y) with L = -div(A grad .), A periodic,
coercive and bounded: Q1 assembly on Dirichlet boxes, deterministic Krylov
solvers with a dense oracle, annulus statistics, weak-Lorentz norms,
decay-exponent fits, and the 2D-from-3D dimension-lifting construction.
"""

from . import analysis, lift, verify
from .errors import ConfigError, ConvergenceError, SourcePlacementError
from .fields import (PeriodicField, evaluate, is_symmetric, make_field,
                     transpose_field, verify_coercivity, verify_periodicity)
from .green import (GreenColumn, adjoint_column, domain_growth, green_column,
                    mixed_derivative, nested_grid, normalize_2d)
from .mesh import (BoxGrid, assemble, build_grid, expand_interior,
                   gradient_field, load_delta)
from .sparse import SparseSystem, dense_solve, matvec, solve

__version__ = "0.1.0"

__all__ = [
    "BoxGrid", "ConfigError", "ConvergenceError", "GreenColumn",
    "PeriodicField", "SourcePlacementError", "SparseSystem",
    "adjoint_column", "assemble", "build_grid", "dense_solve",
    "domain_growth", "evaluate", "expand_interior", "gradient_field",
    "green_column", "is_symmetric", "load_delta", "make_field", "matvec",
    "mixed_derivative", "nested_grid", "normalize_2d", "solve",
    "transpose_field", "verify_coercivity", "verify_periodicity",
]
