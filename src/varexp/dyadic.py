"""Dyadic lattice, localized maximal operators, and coverings.

The lattice of a root box splits every axis in two per level.  All
estimates run on doubled cubes, so the root must satisfy 2*root inside the
grid domain; then 2Q stays inside the domain for every lattice cube Q.

The localized maximal operator of a cell field f at a cell center x is

    (M*_{root,s} f)(x) = sup over lattice cubes Q with x in closure(Q)
                         of (mean over 2Q of |f|^s)^{1/s},

and zero outside the root.  The lattice is truncated at a maximal level
(default: cubes no smaller than 2 grid cells per axis), which is the
resolution floor of every covering statement here.  The cubes of one level
whose closure holds x form a product over the axes (the cube holding x,
and on each axis its neighbour across a face that x lies on: ties count
on both sides), so the supremum is a per-axis max over the level's table.

Means of one field over the lattice cubes, whether over Q, (3/2)Q or 2Q,
come from one kernel, ``lattice_means``: the mean over scale*Q ∩ domain of
a cell array for every cube of one level at once.  The maximal function,
the covering and its threshold lam0, and the Gehring scan in
``varexp.estimates`` all read their cube means from it.

A covering at height lam = factor * lam0, for a factor >= 1 of lam0 =
mean_{2 root} F, collects the maximal lattice cubes whose doubled-cube
average exceeds lam; each carries the sandwich lam < mean_{2Q} F <= 2^n lam,
obtained from the predecessor cube through 3Q ⊂ 2Q^pre.  Good-lambda
measurement takes its heights as the same factors, and compares the
super-level sets of M*F at kappa*lam against the smallness set of the data
maximal function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Box, CellField, Grid, _interval_overlaps

__all__ = [
    "DyadicCube",
    "CZCover",
    "GoodLambdaResult",
    "dyadic_lattice",
    "lattice_means",
    "default_max_level",
    "default_kappa",
    "maximal_function",
    "covering_threshold",
    "cz_cover",
    "good_lambda_measure",
]


@dataclass(frozen=True)
class DyadicCube:
    root: Box
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.index) != self.root.dim:
            raise ValueError("index dimension mismatch")
        if any(not (0 <= i < 2**self.level) for i in self.index):
            raise ValueError("index out of range for level")

    @property
    def box(self) -> Box:
        sides = self.root.sides / 2**self.level
        lo = np.asarray(self.root.lo) + np.asarray(self.index) * sides
        return Box(tuple(lo), tuple(lo + sides))

    def children(self) -> list["DyadicCube"]:
        out = []
        for bits in itertools.product((0, 1), repeat=self.root.dim):
            idx = tuple(2 * i + b for i, b in zip(self.index, bits))
            out.append(DyadicCube(self.root, self.level + 1, idx))
        return out


def dyadic_lattice(root: Box, max_level: int) -> list[DyadicCube]:
    """All lattice cubes of levels 0..max_level (root first, row-major)."""
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    cubes = []
    for lev in range(max_level + 1):
        for idx in np.ndindex(*([2**lev] * root.dim)):
            cubes.append(DyadicCube(root, lev, tuple(int(i) for i in idx)))
    return cubes


def default_max_level(root: Box, grid: Grid) -> int:
    """Deepest level at which cubes still span >= 2 grid cells per axis."""
    h = grid.cell_size
    lev = min(
        int(math.floor(math.log2(root.sides[k] / (2.0 * h[k]) + 1e-12)))
        for k in range(grid.dim)
    )
    return max(lev, 0)


def default_kappa(c4: float, dim: int) -> float:
    """Good-lambda threshold factor 2^{n+1} c4 from the coercivity constant."""
    return 2.0 ** (dim + 1) * float(c4)


def _require_root(grid: Grid, root: Box) -> None:
    if root.dim != grid.dim:
        raise ValueError("root dimension does not match grid")
    if not grid.domain.contains_box(root.scaled(2.0)):
        raise ValueError("doubled root exits the grid domain")


def lattice_means(values: np.ndarray, grid: Grid, root: Box, level: int,
                  scale: float) -> np.ndarray:
    """Mean of a scalar cell array over scale*Q ∩ domain for every lattice
    cube Q of one level; shape (2^level,)*dim, indexed like ``DyadicCube``.

    Cells count by overlap volume, as in ``grid.integrate``.  The overlap
    weights factor per axis, so the cube sums are one ``tensordot`` per
    axis.
    """
    n_side = 2**level
    sides = root.sides / n_side
    F = np.asarray(values, dtype=float).reshape(grid.cells)
    den = np.ones(())
    for k in range(grid.dim):
        centers = root.lo[k] + sides[k] * (np.arange(n_side) + 0.5)
        half = sides[k] * (scale / 2.0)
        W = _interval_overlaps(grid, k, centers - half, centers + half)
        F = np.tensordot(F, W, axes=([0], [1]))  # cube axis k moves last
        den = np.multiply.outer(den, W.sum(axis=1))
    if np.any(den <= 0.0):
        raise ValueError("region outside domain")
    return F / den


def maximal_function(f: CellField, root: Box, s: float = 1.0,
                     max_level: int | None = None) -> CellField:
    """Localized dyadic maximal function at cell centers; zero off the root.

    For each cell center the supremum runs over all lattice cubes whose
    closure contains it (ties on shared faces considered on both sides),
    of the s-power mean of |f| over the doubled cube.  Those cubes form a
    product over the axes, so each level's ``lattice_means`` table is maxed
    one axis at a time.
    """
    g = f.grid
    _require_root(g, root)
    if s <= 0:
        raise ValueError("s must be positive")
    if f.values.ndim != 1:
        raise ValueError("maximal_function expects a scalar cell field")
    if max_level is None:
        max_level = default_max_level(root, g)
    power = np.abs(f.values) ** s

    centers = [g.axis_coords(k, 0.5) for k in range(g.dim)]
    # the closure is a product over the axes: on axis k, test the root's center
    # with its coordinate k replaced by each cell center's
    pts = [np.where(np.arange(g.dim) == k, x[:, None], root.center) for k, x in enumerate(centers)]
    inside = [np.flatnonzero(root.contains_points(q)) for q in pts]
    best = np.zeros([i.size for i in inside])
    for lev in range(max_level + 1):
        n_side = 2**lev
        sides = root.sides / n_side
        m = lattice_means(power, g, root, lev, 2.0) ** (1.0 / s)
        for k in range(g.dim):
            rel = (centers[k][inside[k]] - root.lo[k]) / sides[k]
            base = np.clip(np.floor(rel).astype(int), 0, n_side - 1)
            frac = rel - base
            ftol = root.tolerance / sides[k]  # face tolerance in fraction units
            below = np.where((frac <= ftol) & (base > 0), base - 1, base)
            above = np.where((frac >= 1.0 - ftol) & (base < n_side - 1), base + 1, base)
            m = np.maximum.reduce([np.take(m, i, axis=k) for i in (base, below, above)])
        best = np.maximum(best, m)
    out = np.zeros(g.cells)
    out[np.ix_(*inside)] = best
    return CellField(g, out.reshape(-1))


@dataclass
class CZCover:
    lam: float
    lambda0: float
    cubes: list[DyadicCube]
    means: list[float]
    max_level: int
    truncated: bool  # some branch hit max_level while still above lam


def covering_threshold(F: CellField, root: Box) -> float:
    """lam0 = mean over 2*root of F, the lowest height a covering admits."""
    return float(lattice_means(F.values, F.grid, root, 0, 2.0).flat[0])


def cz_cover(F: CellField, root: Box, factor: float) -> CZCover:
    """Maximal lattice cubes Q with mean_{2Q} F > lam, for lam = factor *
    lam0 with factor >= 1, down to ``default_max_level``.

    Walks the lattice top-down, descending only through cubes whose doubled
    average is <= lam, so every returned cube is a proper sub-cube whose
    predecessor average is <= lam.  Each cube's average then satisfies the
    sandwich lam < mean_{2Q} F <= 2^n lam, which is checked (RuntimeError).
    """
    g = F.grid
    _require_root(g, root)
    if F.values.ndim != 1 or F.values.min() < 0:
        raise ValueError("covering needs a nonnegative scalar cell field")
    if factor < 1.0:
        raise ValueError("below covering threshold")
    max_level = default_max_level(root, g)
    tables = [lattice_means(F.values, g, root, lev, 2.0) for lev in range(max_level + 1)]
    lambda0 = float(tables[0].flat[0])
    lam = factor * lambda0

    cubes: list[DyadicCube] = []
    means: list[float] = []
    stack = [DyadicCube(root, 0, (0,) * root.dim)]
    while stack:
        q = stack.pop()
        if q.level >= max_level:
            continue
        for child in q.children():
            m = float(tables[child.level][child.index])
            if m > lam:
                cubes.append(child)
                means.append(m)
            else:
                stack.append(child)

    bound = 2.0**g.dim * lam
    for m in means:
        if not lam * (1.0 - 1e-12) < m <= bound * (1.0 + 1e-12):
            raise RuntimeError(f"covering cube mean {m} outside (lam, 2^n lam] = ({lam}, {bound}]")
    truncated = any(q.level == max_level for q in cubes)
    return CZCover(float(lam), float(lambda0), cubes, means, max_level, truncated)


@dataclass
class GoodLambdaResult:
    kappa: float
    m0: float
    lambda0: float
    rows: list[tuple[float, float, float]]  # (epsilon, lam, delta)
    # per row, the cells of {M*F > kappa lam} (a row where it is 0 tested nothing) and of U
    kappa_cells: list[int]
    u_cells: list[int]

    def delta(self, epsilon: float) -> float:
        vals = [d for (e, _, d) in self.rows if e == epsilon]
        return max(vals) if vals else 0.0


def good_lambda_measure(F: CellField, Gh: CellField, root: Box, kappa: float,
                        epsilons, factors, m0: float,
                        max_level: int | None = None) -> GoodLambdaResult:
    """Measure delta(eps, lam) = |U| / |O_lam| over an (eps, lam) table,
    lam = factor * lam0 for each of ``factors``, all at least 1.

    O_lam = {M*F > lam} and U = O_lam ∩ {M*F > kappa lam} ∩ {M*_{m0}(Gh) <= eps lam}.
    kappa must be at least 2^n and every epsilon positive.  delta = 0 when
    O_lam is empty, and also when U is: when {M*F > kappa lam} or
    {M*_{m0}(Gh) <= eps lam} misses O_lam.  A zero row may therefore have
    tested nothing; ``kappa_cells`` counts, per row, the cells of
    {M*F > kappa lam}, and a row where it is 0 is vacuous; ``u_cells``
    counts the cells of U.
    """
    g = F.grid
    _require_root(g, root)
    if kappa < 2.0**g.dim:
        raise ValueError(f"kappa must be >= 2^n = {2.0**g.dim}")
    if F.values.min() < 0:
        raise ValueError("good-lambda needs a nonnegative density F")
    epsilons = [float(e) for e in epsilons]
    if any(e <= 0 for e in epsilons):
        raise ValueError("need epsilon > 0")
    if any(f < 1.0 for f in factors):
        raise ValueError("below covering threshold")
    if max_level is None:
        max_level = default_max_level(root, g)
    mf = maximal_function(F, root, 1.0, max_level).values
    mg = maximal_function(Gh, root, m0, max_level).values
    lam0 = covering_threshold(F, root)
    lambdas = [float(f) * lam0 for f in factors]

    vol = g.cell_volume
    rows, kappa_cells, u_cells = [], [], []
    for eps in epsilons:
        for lam in lambdas:
            o_mask = mf > lam
            high = mf > kappa * lam
            u_mask = o_mask & high & (mg <= eps * lam)
            o_measure = float(o_mask.sum()) * vol
            delta = float(u_mask.sum()) * vol / o_measure if o_measure > 0 else 0.0
            rows.append((eps, lam, delta))
            kappa_cells.append(int(high.sum()))
            u_cells.append(int(u_mask.sum()))
    return GoodLambdaResult(float(kappa), float(m0), float(lam0), rows, kappa_cells, u_cells)
