"""Variable-exponent Lebesgue machinery.

The modular of a cell field f over a region is the midpoint quadrature of
|f(x)|^{p(x)} with the exponent interpolated at cell centers.  The
Luxemburg norm is the usual gauge

    ||f|| = inf { lam > 0 : modular(f / lam) <= 1 },

computed by bracketing and bisection; for p+ < infinity the modular at the
returned norm sits on the unit sphere.  The Marcinkiewicz (weak Lebesgue)
functional sup_lam lam |{|f| > lam}|^{1/s} is exact for piecewise-constant
fields: the supremum is attained approaching one of the finitely many
cell values from below.

The remaining checks measure the pointwise key estimate for p(.)-powers of
averages, the variable-exponent Sobolev-Poincare inequality, and the
logarithmic mean bound, each as an EstimateRecord; decay_weight builds the
weight h(x) = (e + |x|)^{-m} that absorbs far-field error terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import (Box, CellField, GridFunction, gradient, integrate,
                   mean_over, overlap_measure, region_weights)
from .records import EstimateRecord

__all__ = [
    "LuxemburgResult",
    "modular",
    "luxemburg_norm",
    "marcinkiewicz_norm",
    "jensen_check",
    "sobolev_poincare_check",
    "log_mean_check",
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


def marcinkiewicz_norm(f: CellField, s: float, region: Box) -> float:
    """sup_lam lam |{|f| > lam} ∩ region|^{1/s}, exact at the value jumps.

    Between jumps the candidate grows in lam, so the supremum is attained
    in the limit lam -> v^- at a distinct cell value v, where the superlevel
    set is {|f| >= v}.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if f.values.ndim != 1:
        raise ValueError("marcinkiewicz_norm expects a scalar cell field")
    w = region_weights(f.grid, region)
    if w.sum() <= 0.0:
        raise ValueError("region outside domain")
    nz = w > 0
    vals, weights = np.abs(f.values[nz]), w[nz]
    if vals.max() == 0.0:
        return 0.0
    order = np.argsort(vals)[::-1]
    v_sorted, w_sorted = vals[order], weights[order]
    cum = np.cumsum(w_sorted)  # measure of {|f| >= v} walking values downward
    # at ties, only the last (full) cumulative weight is the true measure
    keep = np.ones(v_sorted.size, dtype=bool)
    keep[:-1] = v_sorted[:-1] != v_sorted[1:]
    cand = v_sorted[keep] * cum[keep] ** (1.0 / s)
    return float(cand.max())


def jensen_check(f: CellField, Q: Box, p: ExponentField, m: float,
                 x_eval, K1: float = 1.0, beta: float = 1.0) -> EstimateRecord:
    """Pointwise key estimate for the p(x)-power of an average.

    Measures (mean_Q |f|)^{p(x_eval)} against the mean of |f|^{p(.)} over Q
    plus the two decay terms (e+|x_eval|)^{-m} and mean_Q (e+|y|)^{-m}.  The
    side condition mean_Q |f| <= K1 max{1, |Q|^{-beta}} is a hard
    precondition.  When x_eval realizes the farthest point of Q the
    pointwise decay term is dominated by the averaged one and is flagged
    as removable.
    """
    if m <= p.grid.dim:
        raise ValueError("decay power m must exceed the dimension")
    absf = CellField(f.grid, np.abs(f.values))
    mean_abs = mean_over(absf, Q)
    q_measure = overlap_measure(f.grid, Q)
    if mean_abs > K1 * max(1.0, q_measure ** (-beta)):
        raise ValueError("key-estimate precondition failed")
    x_eval = np.asarray(x_eval, dtype=float)
    p_x = float(p.at(x_eval[None, :])[0])
    lhs = mean_abs**p_x

    pc = p.cell_values
    mean_modular = mean_over(CellField(f.grid, np.abs(f.values) ** pc), Q)
    point_decay = (_E + float(np.linalg.norm(x_eval))) ** (-m)
    h = decay_weight(f.grid, m)
    mean_decay = mean_over(h, Q)

    flags = []
    centers = f.grid.cell_centers
    w = region_weights(f.grid, Q)
    sup_norm = float(np.linalg.norm(centers[w > 0], axis=1).max())
    if np.linalg.norm(x_eval) >= sup_norm - 1e-12 * max(1.0, sup_norm):
        flags.append("pointwise-term-removable")

    return EstimateRecord.build(
        "key-estimate", lhs,
        {"mean_modular": mean_modular, "point_decay": point_decay, "mean_decay": mean_decay},
        cube=Q, resolution=f.grid.cells, flags=flags,
    )


def sobolev_poincare_check(f: GridFunction, Q: Box, p: ExponentField,
                           s: float, m: float | None = None) -> EstimateRecord:
    """Variable-exponent Sobolev-Poincare inequality on a cube.

    lhs  = mean_Q (|f - <f>_Q| / R)^{p(.)}       (R = cube side)
    rhs  = (mean_Q |Df|^{p(.)/s})^s + mean_Q h    (h = (e+|x|)^{-m})

    requires 1 <= s < min{n/(n-1), p^-_Q} and m > n (default m = 2n).
    """
    g = f.grid
    n = g.dim
    w = region_weights(g, Q)
    if w.sum() <= 0:
        raise ValueError("region outside domain")
    pc = p.cell_values
    p_minus_q = float(pc[w > 0].min())
    s_cap = min(n / (n - 1.0) if n > 1 else math.inf, p_minus_q)
    if not (1.0 <= s < s_cap):
        raise ValueError(f"s must lie in [1, {s_cap}), got {s}")

    R = Q.side
    fc = g.interpolate(f.values, g.cell_centers)  # (nc, N)
    meas = w.sum()
    mean_f = (w @ fc) / meas
    dev = np.linalg.norm(fc - mean_f, axis=1) / R
    lhs = mean_over(CellField(g, dev**pc), Q)

    df = gradient(f).magnitude()
    rhs1 = mean_over(CellField(g, df ** (pc / s)), Q) ** s
    rhs2 = mean_over(decay_weight(g, m), Q)
    return EstimateRecord.build(
        "sobolev-poincare", lhs, {"gradient_term": rhs1, "decay_term": rhs2},
        cube=Q, resolution=g.cells,
    )


def log_mean_check(f: CellField, Q: Box, s: float) -> EstimateRecord:
    """mean_Q log(e + |f| / mean_Q |f|)^s, which admits a bound c(s)
    independent of f.  Errors when the mean vanishes."""
    if s <= 0:
        raise ValueError("s must be positive")
    absf = CellField(f.grid, np.abs(f.values))
    mean_abs = mean_over(absf, Q)
    if mean_abs <= 0.0:
        raise ValueError("log-mean undefined for a field with zero average")
    val = mean_over(CellField(f.grid, np.log(_E + np.abs(f.values) / mean_abs) ** s), Q)
    # reference scale: the bound is uniform in f once s is fixed
    return EstimateRecord.build(
        "log-mean", val, {"unit": 1.0}, cube=Q, resolution=f.grid.cells,
    )


def decay_weight(grid, m: float | None = None) -> CellField:
    """Cell field h(x) = (e + |x|)^{-m}; integrable over R^n for m > n
    (default m = 2n)."""
    if m is None:
        m = 2.0 * grid.dim
    if m <= grid.dim:
        raise ValueError("decay power m must exceed the dimension")
    r = np.linalg.norm(grid.cell_centers, axis=1)
    return CellField(grid, (_E + r) ** (-m))
