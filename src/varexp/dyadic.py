"""Dyadic lattice, localized maximal operators, and coverings.

The lattice of a root box splits every axis in two per level.  All
estimates run on doubled cubes, so the root must satisfy 2*root inside the
grid domain; then 2Q stays inside the domain for every lattice cube Q.

The localized maximal operator of a cell field f at a cell center x is

    (M*_{root,s} f)(x) = sup over lattice cubes Q with x in closure(Q)
                         of (mean over 2Q of |f|^s)^{1/s},

and zero outside the root.  The lattice is truncated at a maximal level
(default: cubes no smaller than 2 grid cells per axis), which is the
resolution floor of every covering statement here.

Means of one field over the lattice cubes, whether over Q, (3/2)Q or 2Q,
come from one kernel, ``lattice_means``: the mean over scale*Q ∩ domain of
a cell array for every cube of one level at once.  The maximal function,
the covering and its threshold lam0, and the Gehring scan in
``varexp.estimates`` all read their cube means from it.

A covering at height lam >= lam0 = mean_{2 root} F collects the maximal
lattice cubes whose doubled-cube average exceeds lam; each carries the
sandwich lam < mean_{2Q} F <= 2^n lam, obtained from the predecessor cube
through 3Q ⊂ 2Q^pre.  Good-lambda measurement compares the super-level
sets of M*F at kappa*lam against the smallness set of the data maximal
function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Box, CellField, Grid, _interval_overlaps

__all__ = [
    "DyadicCube",
    "LevelSets",
    "CZCover",
    "GoodLambdaResult",
    "dyadic_lattice",
    "lattice_means",
    "predecessor",
    "default_max_level",
    "default_kappa",
    "maximal_function",
    "level_sets",
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


def predecessor(Q: DyadicCube) -> DyadicCube:
    """Parent cube one level up; the root has no predecessor."""
    if Q.level == 0:
        raise ValueError("root cube has no predecessor")
    return DyadicCube(Q.root, Q.level - 1, tuple(i // 2 for i in Q.index))


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
    of the s-power mean of |f| over the doubled cube.
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
    means = [lattice_means(power, g, root, lev, 2.0) ** (1.0 / s)
             for lev in range(max_level + 1)]

    tol = 1e-12 * max(root.side, 1.0)
    in_root = root.contains_points(g.cell_centers, tol)
    out = np.zeros(g.num_cells)
    pts = g.cell_centers[in_root]
    best = np.zeros(pts.shape[0])
    for lev in range(max_level + 1):
        n_side = 2**lev
        sides = root.sides / n_side
        rel = (pts - np.asarray(root.lo)) / sides
        base = np.clip(np.floor(rel).astype(int), 0, n_side - 1)
        frac = rel - base
        ftol = tol / sides  # face tolerance in fraction units, per axis
        m = means[lev]
        for off in itertools.product((-1, 0, 1), repeat=g.dim):
            offs = np.asarray(off)
            cand = base + offs
            ok = np.ones(pts.shape[0], dtype=bool)
            for k in range(g.dim):
                if off[k] == -1:
                    ok &= (frac[:, k] <= ftol[k]) & (cand[:, k] >= 0)
                elif off[k] == 1:
                    ok &= (frac[:, k] >= 1.0 - ftol[k]) & (cand[:, k] <= n_side - 1)
            if not ok.any():
                continue
            vals = m[tuple(cand[ok].T)] if g.dim > 1 else m[cand[ok, 0]]
            best[ok] = np.maximum(best[ok], vals)
    out[in_root] = best
    return CellField(g, out)


@dataclass
class LevelSets:
    """Cell-center masks of the two good-lambda level sets."""

    lam: float
    kappa: float
    epsilon: float
    o_mask: np.ndarray  # {M* F > lam}
    u_mask: np.ndarray  # {M* F > kappa lam} ∩ {M*_{m0}(Gh) <= eps lam}
    cell_volume: float

    @property
    def o_measure(self) -> float:
        return float(self.o_mask.sum()) * self.cell_volume

    @property
    def u_measure(self) -> float:
        return float(self.u_mask.sum()) * self.cell_volume


def level_sets(F: CellField, Gh: CellField, lam: float, kappa: float,
               epsilon: float, m0: float, root: Box,
               max_level: int | None = None) -> LevelSets:
    """Build the super-level set of M*F and the data-smallness set."""
    if lam <= 0 or kappa < 1.0 or epsilon <= 0:
        raise ValueError("need lam > 0, kappa >= 1, epsilon > 0")
    mf = maximal_function(F, root, 1.0, max_level).values
    mg = maximal_function(Gh, root, m0, max_level).values
    return _build_level_sets(F.grid, mf, mg, lam, kappa, epsilon)


def _build_level_sets(grid: Grid, mf: np.ndarray, mg: np.ndarray,
                      lam: float, kappa: float, epsilon: float) -> LevelSets:
    o_mask = mf > lam
    u_mask = (mf > kappa * lam) & (mg <= epsilon * lam) & o_mask
    return LevelSets(lam, kappa, epsilon, o_mask, u_mask, grid.cell_volume)


@dataclass
class CZCover:
    lam: float
    lambda0: float
    cubes: list[DyadicCube]
    means: list[float]
    max_level: int
    truncated: bool  # some branch hit max_level while still above lam

    def boxes(self) -> list[Box]:
        return [q.box for q in self.cubes]


def covering_threshold(F: CellField, root: Box) -> float:
    """lam0 = mean over 2*root of F, the lowest height a covering admits."""
    return float(lattice_means(F.values, F.grid, root, 0, 2.0).flat[0])


def cz_cover(F: CellField, root: Box, lam: float, lambda0: float | None = None,
             max_level: int | None = None) -> CZCover:
    """Maximal lattice cubes Q with mean_{2Q} F > lam, for lam >= lam0.

    Walks the lattice top-down, descending only through cubes whose doubled
    average is <= lam, so every returned cube is a proper sub-cube whose
    predecessor average is <= lam.  Each cube's average then satisfies the
    sandwich lam < mean_{2Q} F <= 2^n lam, which is checked (RuntimeError).
    """
    g = F.grid
    _require_root(g, root)
    if F.values.ndim != 1 or F.values.min() < 0:
        raise ValueError("covering needs a nonnegative scalar cell field")
    if max_level is None:
        max_level = default_max_level(root, g)
    tables = [lattice_means(F.values, g, root, lev, 2.0) for lev in range(max_level + 1)]
    if lambda0 is None:
        lambda0 = float(tables[0].flat[0])
    if lam < lambda0 * (1.0 - 1e-12):
        raise ValueError("below covering threshold")

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

    def delta(self, epsilon: float) -> float:
        vals = [d for (e, _, d) in self.rows if e == epsilon]
        return max(vals) if vals else 0.0


def good_lambda_measure(F: CellField, Gh: CellField, root: Box, kappa: float,
                        epsilons, lambdas, m0: float,
                        max_level: int | None = None) -> GoodLambdaResult:
    """Measure delta(eps, lam) = |U| / |O_lam| over an (eps, lam) table.

    O_lam = {M*F > lam} and U = {M*F > kappa lam, M*_{m0}(Gh) <= eps lam}.
    kappa must be at least 2^n and every epsilon positive.  Rows with
    empty O_lam report delta = 0.
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
    if max_level is None:
        max_level = default_max_level(root, g)
    mf = maximal_function(F, root, 1.0, max_level).values
    mg = maximal_function(Gh, root, m0, max_level).values
    lam0 = covering_threshold(F, root)

    lambdas = [float(l) for l in lambdas]
    if any(l < lam0 * (1.0 - 1e-12) for l in lambdas):
        raise ValueError("below covering threshold")

    rows = []
    for eps in epsilons:
        for lam in lambdas:
            ls = _build_level_sets(g, mf, mg, lam, kappa, eps)
            delta = ls.u_measure / ls.o_measure if ls.o_measure > 0 else 0.0
            rows.append((eps, lam, delta))
    return GoodLambdaResult(float(kappa), float(m0), float(lam0), rows)
