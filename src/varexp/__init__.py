"""Numerical laboratory for variable-exponent function spaces and the
p(x)-Laplacian: grids and quadrature, Luxemburg norms, dyadic maximal
operators and coverings, energy-minimization solvers, and the estimate
chain from Caccioppoli through good-lambda to higher integrability."""

from . import dyadic, estimates, exponent, grid, operator, solver, varlp
from .grid import Box, CellField, Grid, GridFunction, gradient, integrate

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CellField",
    "Grid",
    "GridFunction",
    "gradient",
    "integrate",
    "grid",
    "exponent",
    "varlp",
    "dyadic",
    "operator",
    "solver",
    "estimates",
    "__version__",
]
