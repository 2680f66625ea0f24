"""Uniform Cartesian grids, nodal/cell fields, and box quadrature.

Everything downstream computes on these types: scalar or vector fields
sampled at the nodes of a uniform grid over an axis-parallel box, their
multilinear (Q1) interpolants, per-cell gradients evaluated at cell
centers, and midpoint quadrature against arbitrary axis-parallel regions.
Cells that only partially overlap a region count by volume fraction, so
integrals are exactly additive over disjoint regions and monotone under
region inclusion for nonnegative integrands.  A cell's overlap with a box
is the product of its per-axis overlap lengths: ``region_weights`` is their
outer product, and ``integrate`` and ``mean_over`` contract fields with them.

The cell-center gradient B is one operator on the corner table
(``cell_corner_indices``, ``grad_coefs``), applied as 2^dim shifted slices
of the node lattice: ``gradient`` applies B and ``apply_gradient_transpose``
applies B^T (the operator module's energy gradient); the Hessian
B^T (D B), for a block-diagonal D, is taken cell by cell on the same corner
table.  Both kernels add their terms in the order of a row-wise sparse
product, so their results do not depend on how B is stored.

Conventions: dimension is 1, 2, or 3; all per-axis data is ordered
row-major (first axis slowest); node and cell arrays are flat with that
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Box",
    "Grid",
    "GridFunction",
    "CellField",
    "gradient",
    "apply_gradient_transpose",
    "integrate",
    "mean_over",
    "region_weights",
]

# Relative tolerance for "point sits exactly on a face" decisions.
_GEOM_RTOL = 1e-12
# entries of the (points, 2^dim, max(dim, N)) temporaries that ``Grid.interpolate``
# forms at once
_INTERPOLATE_STEP = 1 << 15


def _as_floats(v, dim: int, name: str) -> tuple[float, ...]:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != dim:
        raise ValueError(f"{name} must have {dim} components, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return tuple(float(x) for x in arr)


@dataclass(frozen=True)
class Box:
    """Axis-parallel box given by its lower and upper corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = _as_floats(self.lo, len(tuple(self.lo)), "lo")
        hi = _as_floats(self.hi, len(lo), "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"degenerate box: lo={lo} hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def side(self) -> float:
        """Longest edge; for cubes, the edge length."""
        return float(self.sides.max())

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    def scaled(self, factor: float) -> "Box":
        """Concentric rescaling: same center, sides multiplied by factor."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        c, half = self.center, self.sides * (factor / 2.0)
        return Box(tuple(c - half), tuple(c + half))

    def intersect(self, other: "Box") -> "Box | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(hi <= lo):
            return None
        return Box(tuple(lo), tuple(hi))

    @property
    def tolerance(self) -> float:
        """Face tolerance of closure tests: _GEOM_RTOL times the longest edge
        (or 1, if larger)."""
        return _GEOM_RTOL * max(self.side, 1.0)

    def contains_points(self, points) -> np.ndarray:
        """Closure membership of each row of ``points`` (shape (..., dim)),
        within ``tolerance`` of each face."""
        x = np.asarray(points, dtype=float)
        tol = self.tolerance
        return np.all((x >= np.asarray(self.lo) - tol) & (x <= np.asarray(self.hi) + tol), axis=-1)

    def contains_box(self, other: "Box") -> bool:
        """Closure containment of ``other``, with the tolerance of
        ``contains_points``."""
        return bool(np.all(self.contains_points(np.array([other.lo, other.hi]))))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on an axis-parallel box.

    ``cells`` counts cells per axis (at least 2 each); nodes per axis is
    ``cells + 1``.  The cell size per axis is derived, never stored.
    """

    dim: int
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        origin = _as_floats(self.origin, self.dim, "origin")
        extent = _as_floats(self.extent, self.dim, "extent")
        if any(e <= 0 for e in extent):
            raise ValueError("extent components must be positive")
        cells = tuple(int(c) for c in np.asarray(self.cells).reshape(-1))
        if len(cells) != self.dim:
            raise ValueError(f"cells must have {self.dim} components")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per axis")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "cells", cells)

    # -- derived geometry -------------------------------------------------

    @property
    def cell_size(self) -> np.ndarray:
        return np.asarray(self.extent) / np.asarray(self.cells)

    @property
    def nodes_per_axis(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cells)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_size))

    @property
    def domain(self) -> Box:
        return Box(self.origin, tuple(np.asarray(self.origin) + np.asarray(self.extent)))

    def axis_coords(self, k: int, offset: float) -> np.ndarray:
        """Coordinates origin + h (i + offset) along axis ``k`` for the
        integers i >= 0 with i + offset <= cells[k]: the nodes at offset 0,
        the cell centers at offset 1/2."""
        return self.origin[k] + self.cell_size[k] * np.arange(offset, self.cells[k] + 0.5)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """(num_nodes, dim) coordinates, row-major."""
        axes = [self.axis_coords(k, 0.0) for k in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """(num_cells, dim) cell-center coordinates, row-major."""
        axes = [self.axis_coords(k, 0.5) for k in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    @cached_property
    def corner_bits(self) -> np.ndarray:
        """(2**dim, dim) 0/1 array; row b holds the per-axis corner bits."""
        b = np.arange(2**self.dim)
        return np.stack([(b >> (self.dim - 1 - k)) & 1 for k in range(self.dim)], axis=1)

    @property
    def cell_corner_indices(self) -> np.ndarray:
        """(num_cells, 2**dim) flat node indices of each cell's corners,
        computed on each call: a cell's lowest corner plus each corner's
        offset, both from the row-major node strides."""
        stride = np.cumprod((1,) + self.nodes_per_axis[:0:-1])[::-1]
        first = sum(np.arange(c).reshape((-1,) + (1,) * (self.dim - 1 - k)) * s
                    for k, (c, s) in enumerate(zip(self.cells, stride)))
        return first.reshape(-1, 1) + self.corner_bits @ stride

    @cached_property
    def grad_coefs(self) -> np.ndarray:
        """(2**dim, dim) coefficients of the Q1 cell-center gradient.

        The multilinear interpolant's gradient at the cell center is the
        signed corner average: coefficient ``(2 b_k - 1) / (2^{d-1} h_k)``
        for corner bit ``b_k`` on axis ``k``.
        """
        signs = 2.0 * self.corner_bits - 1.0
        return signs / (2.0 ** (self.dim - 1) * self.cell_size[None, :])

    @cached_property
    def corner_slices(self) -> list[tuple[slice, ...]]:
        """Per corner b, the slice of the node lattice that holds corner b of
        every cell, in row-major cell order."""
        return [tuple(slice(b, b + c) for b, c in zip(bits, self.cells))
                for bits in self.corner_bits]

    @cached_property
    def boundary_node_mask(self) -> np.ndarray:
        """(num_nodes,) bool; True on the topological boundary."""
        mask = np.zeros(self.nodes_per_axis, dtype=bool)
        for k in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[k] = 0
            mask[tuple(sl)] = True
            sl[k] = -1
            mask[tuple(sl)] = True
        return mask.reshape(-1)

    # -- interpolation and extraction -------------------------------------

    def interpolate(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the Q1 interpolant of nodal ``values`` at ``points``.

        ``values`` is (num_nodes, N) or (num_nodes,); ``points`` is (m, dim)
        or one point (dim,), and must lie in the closed domain (coordinates
        are clamped to it).  Returns (m, N).  The points are taken a chunk
        at a time, so the temporaries hold at most ``_INTERPOLATE_STEP``
        entries (one point's, when that is more); each point's arithmetic
        does not depend on the chunk.
        """
        pts = np.asarray(points, dtype=float)
        if pts.shape == (self.dim,):
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be (m, {self.dim}) or ({self.dim},), "
                             f"got {np.shape(points)}")
        vals = np.asarray(values)
        if vals.ndim == 1:
            vals = vals[:, None]
        origin, h, top = np.asarray(self.origin), self.cell_size, np.asarray(self.cells) - 1
        bits = self.corner_bits[None, :, :]
        out = np.empty((len(pts), vals.shape[1]))
        step = max(1, _INTERPOLATE_STEP // (2**self.dim * max(self.dim, vals.shape[1])))
        for lo in range(0, len(pts), step):
            rel = (pts[lo:lo + step] - origin) / h
            idx = np.clip(np.floor(rel).astype(int), 0, top)
            t = np.clip(rel - idx, 0.0, 1.0)  # local coordinates in [0,1]
            corners = idx[:, None, :] + bits
            flat = np.ravel_multi_index(
                tuple(corners[..., k] for k in range(self.dim)), self.nodes_per_axis
            )
            w = np.prod(np.where(bits == 1, t[:, None, :], 1.0 - t[:, None, :]), axis=2)
            out[lo:lo + step] = np.einsum("mc,mcn->mn", w, vals[flat])
        return out


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal field on a grid: (num_nodes, codomain_dim) values, row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.grid.num_nodes:
            raise ValueError(
                f"values must be ({self.grid.num_nodes}, N), got {np.shape(self.values)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def codomain_dim(self) -> int:
        return self.values.shape[1]

    def at(self, points) -> np.ndarray:
        return self.grid.interpolate(self.values, points)


@dataclass(frozen=True, eq=False)
class CellField:
    """Per-cell field: one value (scalar or array) per cell, row-major.

    ``values`` has shape (num_cells, *component_shape); gradients store
    component_shape (N, dim).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.num_cells:
            raise ValueError(
                f"values must have leading dim {self.grid.num_cells}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def component_shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    def magnitude(self) -> np.ndarray:
        """(num_cells,) Euclidean (Frobenius) norm of each cell value."""
        v = self.values.reshape(self.grid.num_cells, -1)
        return np.sqrt(np.einsum("ck,ck->c", v, v))


# -- module operations -----------------------------------------------------


def gradient(u: GridFunction) -> CellField:
    """Per-cell gradient of the Q1 interpolant, evaluated at cell centers:
    B applied to the nodal values, a CellField of shape (num_cells, N, dim).

    Exact for affine fields; for multilinear fields it equals the
    interpolant's derivative at the center (the mixed terms average out
    there).  Each gradient component is the sum over the corners, in corner
    order, of ``grad_coefs[b, k]`` times the corner value.  The coefficient
    is +-w_k, so each term is one shifted slice of w_k * values, added or
    subtracted; (-w) x and -(w x) are the same double.
    """
    grid, N = u.grid, u.codomain_dim
    v = u.values.reshape(grid.nodes_per_axis + (N,))
    w = np.abs(grid.grad_coefs[0])
    up = grid.corner_bits == 1
    first, *rest = grid.corner_slices
    parts = []
    for k in range(grid.dim):
        scaled = w[k] * v
        acc = np.subtract(0.0, scaled[first])  # corner 0 has coefficient -w_k on every axis
        for b, sl in enumerate(rest, start=1):
            if up[b, k]:
                acc += scaled[sl]
            else:
                acc -= scaled[sl]
        parts.append(acc)
    return CellField(grid, np.stack(parts, axis=-1).reshape(grid.num_cells, N, grid.dim))


def apply_gradient_transpose(grid: Grid, f: np.ndarray) -> np.ndarray:
    """B^T applied to cell values ``f`` (num_cells, N, dim): a (num_nodes, N)
    array.

    Each node sums its cells in ascending cell order, and within a cell the
    axes in ascending order, the column order of B; a node's cells ascend
    as its corner number descends.
    """
    N = f.shape[1]
    w = np.abs(grid.grad_coefs[0])
    scaled = [(w[k] * f[:, :, k]).reshape(grid.cells + (N,)) for k in range(grid.dim)]
    up = grid.corner_bits == 1
    out = np.zeros(grid.nodes_per_axis + (N,))
    for b in reversed(range(len(grid.corner_slices))):
        view = out[grid.corner_slices[b]]
        for k in range(grid.dim):
            if up[b, k]:
                view += scaled[k]
            else:
                view -= scaled[k]
    return out.reshape(grid.num_nodes, N)


def _interval_overlaps(grid: Grid, k: int, lo, hi) -> np.ndarray:
    """Overlap lengths of the cells along axis ``k`` with the intervals
    [lo, hi]; shape (*shape(lo), cells[k])."""
    h = grid.cell_size[k]
    left = grid.axis_coords(k, 0.0)[:-1]
    o = np.minimum(left + h, np.asarray(hi)[..., None]) - np.maximum(left, np.asarray(lo)[..., None])
    return np.clip(o, 0.0, h)


def _box_overlaps(grid: Grid, region: Box) -> list[np.ndarray]:
    """Overlap lengths of the cells along each axis with ``region``."""
    if region.dim != grid.dim:
        raise ValueError("region dimension does not match grid")
    return [_interval_overlaps(grid, k, region.lo[k], region.hi[k]) for k in range(grid.dim)]


def region_weights(grid: Grid, region: Box) -> np.ndarray:
    """Flat (num_cells,) quadrature weights: overlap volume of each cell
    with the region, the outer product of the per-axis overlap lengths."""
    w = np.ones(())
    for o in _box_overlaps(grid, region):
        w = np.multiply.outer(w, o)
    return w.reshape(-1)


def integrate(f: CellField, region: Box) -> float:
    """Midpoint-rule integral of a scalar cell field over an axis-parallel
    region; partial cells contribute by overlap volume.

    Raises ValueError("region outside domain") when the overlap is empty.
    """
    vals = f.values
    if vals.ndim != 1:
        raise ValueError("integrate expects a scalar cell field")
    overlaps = _box_overlaps(f.grid, region)
    if not all(o.any() for o in overlaps):
        raise ValueError("region outside domain")
    letters = "ijk"[: f.grid.dim]
    spec = ",".join([letters] + list(letters)) + "->"
    return float(np.einsum(spec, vals.reshape(f.grid.cells), *overlaps))


def mean_over(f: CellField, region: Box) -> float:
    """Average of a scalar cell field over region ∩ grid domain."""
    measure = np.prod([o.sum() for o in _box_overlaps(f.grid, region)])
    return integrate(f, region) / float(measure)
