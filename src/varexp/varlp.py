"""Variable-exponent Lebesgue machinery.

The modular of a cell field f over a region is the midpoint quadrature of
|f(x)|^{p(x)} with the exponent interpolated at cell centers.  The
Luxemburg norm is the usual gauge

    ||f|| = inf { lam > 0 : modular(f / lam) <= 1 },

computed by bracketing and bisection; for p+ < infinity the modular at the
returned norm sits on the unit sphere.  decay_weight builds the weight
h(x) = (e + |x|)^{-m} that absorbs far-field error terms in the estimate
chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import Box, CellField, region_weights

__all__ = [
    "LuxemburgResult",
    "modular",
    "luxemburg_norm",
    "decay_weight",
]

_E = math.e


@dataclass
class LuxemburgResult:
    norm: float
    modular_at_norm: float
    bisection_iterations: int


def modular(f: CellField, p: ExponentField, region: Box) -> float:
    """Integral of |f(x)|^{p(x)} over region ∩ domain (midpoint quadrature)."""
    if f.values.ndim != 1:
        raise ValueError("modular expects a scalar cell field")
    if f.grid != p.grid:
        raise ValueError("field and exponent live on different grids")
    w = region_weights(f.grid, region)
    if w.sum() <= 0.0:
        raise ValueError("region outside domain")
    nz = w > 0
    return float(np.sum(w[nz] * np.abs(f.values[nz]) ** p.cell_values[nz]))


def luxemburg_norm(f: CellField, p: ExponentField, region: Box,
                   rel_tol: float = 1e-10) -> LuxemburgResult:
    """Luxemburg gauge by bracketing + bisection on lam -> modular(f/lam).

    The map is continuous and strictly decreasing where f is nonzero, so
    the gauge is the unique root of modular(f/lam) = 1 (or 0 for the zero
    field).  The returned norm is the upper bracket end, which keeps the
    modular at the norm on the <= 1 side of the unit sphere.  Bisection
    stops at relative width ``rel_tol``, or sooner once the bracket ends
    are adjacent floats.
    """
    w = region_weights(f.grid, region)
    if w.sum() <= 0.0:
        raise ValueError("region outside domain")
    nz = (w > 0) & (np.abs(f.values) > 0)
    if not nz.any():
        return LuxemburgResult(0.0, 0.0, 0)
    weights, vals, pc = w[nz], np.abs(f.values[nz]), p.cell_values[nz]

    def rho(lam: float) -> float:
        return float(np.sum(weights * (vals / lam) ** pc))

    hi = float(vals.max())
    it = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        it += 1
        if it > 2000:
            raise ArithmeticError("luxemburg bracketing failed to expand")
    lo = hi
    while rho(lo) <= 1.0:
        lo /= 2.0
        it += 1
        if lo < 1e-300:
            # modular never reaches 1: measure of support below any lam is tiny
            return LuxemburgResult(0.0, rho(hi), it)
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: rel_tol is below one ulp
            break
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        it += 1
    return LuxemburgResult(hi, rho(hi), it)


def decay_weight(grid, m: float | None = None) -> CellField:
    """Cell field h(x) = (e + |x|)^{-m}; integrable over R^n for m > n
    (default m = 2n)."""
    if m is None:
        m = 2.0 * grid.dim
    if m <= grid.dim:
        raise ValueError("decay power m must exceed the dimension")
    r = np.linalg.norm(grid.cell_centers, axis=1)
    return CellField(grid, (_E + r) ** (-m))
