"""Independent routes for checking varexp's outputs.

Nothing here calls the code under test: fields are read with the
benchmark's own VXF/CSV readers, and gradients, energies, means and
the maximal function are recomputed with plain NumPy from their
definitions (Q1 cell-center gradients, midpoint quadrature with partial
cells by overlap volume, squared-variant energy density).
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np


class Field:
    """A VXF1 file: sample kind, counts per axis, origin, extent, values."""

    def __init__(self, path: Path):
        with open(path, encoding="ascii") as fh:
            head = fh.readline().split()
            body = np.array(fh.read().split(), dtype=float)
        if head[0] != "VXF1":
            raise ValueError(f"{path}: not a VXF1 file")
        dim, codomain = int(head[1]), int(head[2])
        self.kind = head[3]
        self.counts = tuple(int(t) for t in head[4:4 + dim])
        self.origin = tuple(float(t) for t in head[4 + dim:4 + 2 * dim])
        self.extent = tuple(float(t) for t in head[4 + 2 * dim:4 + 3 * dim])
        self.cells = self.counts if self.kind == "cells" else tuple(c - 1 for c in self.counts)
        self.values = body.reshape(-1, codomain)
        if self.values.shape[0] != math.prod(self.counts):
            raise ValueError(f"{path}: value count does not match the header")

    @property
    def h(self) -> np.ndarray:
        return np.asarray(self.extent) / np.asarray(self.cells)

    def array(self) -> np.ndarray:
        """Scalar values shaped by the sample counts."""
        return self.values[:, 0].reshape(self.counts)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_scalars(path: Path) -> dict[str, float]:
    """``name = value`` lines of a report.txt scalar block."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            try:
                out[name.strip()] = float(value)
            except ValueError:
                pass
    return out


# ---------------------------------------------------------------------------
# grid calculus from the definitions

def _pair_mean(a: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * a.ndim
    hi = [slice(None)] * a.ndim
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    return 0.5 * (a[tuple(lo)] + a[tuple(hi)])


def cell_average(nodal: np.ndarray) -> np.ndarray:
    """Mean of the 2^d corner values of every cell."""
    out = nodal
    for k in range(nodal.ndim):
        out = _pair_mean(out, k)
    return out


def q1_gradient(nodal: np.ndarray, h) -> np.ndarray:
    """Gradient of the multilinear interpolant at the cell centers:
    the edge difference along axis k, averaged over the other axes.
    Returns cells shape + (dim,)."""
    comps = []
    for k in range(nodal.ndim):
        g = np.diff(nodal, axis=k) / h[k]
        for j in range(nodal.ndim):
            if j != k:
                g = _pair_mean(g, j)
        comps.append(g)
    return np.stack(comps, axis=-1)


def boundary_mask(shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[k] = 0
        mask[tuple(sl)] = True
        sl[k] = -1
        mask[tuple(sl)] = True
    return mask


def _flux_scale(r2: np.ndarray, q: np.ndarray, gamma: float) -> np.ndarray:
    """a(r) of the squared variant, A(z) = a(|z|) z, from r^2 = |z|^2."""
    if gamma > 0.0:
        return (gamma**2 + r2) ** ((q - 2.0) / 2.0)
    return np.where(r2 > 0, r2, 1.0) ** ((q - 2.0) / 2.0) * (r2 > 0)


def energy(u: np.ndarray, G: np.ndarray, q: np.ndarray, h, gamma: float) -> tuple[float, float]:
    """Squared-variant energy  sum_cells |cell| (phi_q(|Du|) - A(G).Du)
    of a scalar nodal field; returns (J, sum of |terms|) for roundoff."""
    du = q1_gradient(u, h)
    r2 = np.sum(du * du, axis=-1)
    if gamma > 0.0:
        pot = ((gamma**2 + r2) ** (q / 2.0) - gamma**q) / q
    else:
        pot = r2 ** (q / 2.0) / q
    cross = _flux_scale(np.sum(G * G, axis=-1), q, gamma) * np.sum(G * du, axis=-1)
    terms = float(np.prod(h)) * (pot - cross)
    return math.fsum(terms.ravel()), float(np.sum(np.abs(terms)))


def _pad(a: np.ndarray, axis: int, before: int) -> np.ndarray:
    width = [(0, 0)] * a.ndim
    width[axis] = (before, 1 - before)
    return np.pad(a, width)


def energy_gradient(u: np.ndarray, G: np.ndarray, q: np.ndarray, h, gamma: float) -> np.ndarray:
    """Nodal gradient of ``energy``: the adjoint of q1_gradient applied to
    |cell| (A(Du) - A(G))."""
    du = q1_gradient(u, h)
    flux = (_flux_scale(np.sum(du * du, axis=-1), q, gamma)[..., None] * du
            - _flux_scale(np.sum(G * G, axis=-1), q, gamma)[..., None] * G)
    flux *= float(np.prod(h))
    out = np.zeros(u.shape)
    for k in range(u.ndim):
        w = flux[..., k]
        for j in range(u.ndim):
            if j != k:
                w = 0.5 * (_pad(w, j, 1) + _pad(w, j, 0))
        out += (_pad(w, k, 1) - _pad(w, k, 0)) / h[k]
    return out


def minimizer_failures(u: np.ndarray, G: np.ndarray, q: np.ndarray, h, gamma: float,
                       tolerance: float, seed: int) -> list[str]:
    """A solve claiming residual <= tolerance (sup norm of the nodal energy
    gradient over free nodes) must be a discrete minimizer to that
    tolerance.  Checked two ways: the recomputed free-node gradient, and
    the energy along small perturbations of the free nodes, which may drop
    by no more than that residual allows to first order, plus roundoff.
    The perturbations are seeded noise, smooth modes vanishing on the
    boundary, and the steepest-descent direction of the recomputed energy."""
    free = ~boundary_mask(u.shape)
    out = []
    g = np.where(free, energy_gradient(u, G, q, h, gamma), 0.0)
    residual = float(np.abs(g).max())
    if residual > tolerance * (1.0 + 1e-6):
        out.append(f"recomputed residual {residual:.3e} above {tolerance:g}")

    rng = np.random.default_rng([seed, 99])
    xs = np.meshgrid(*[np.linspace(0.0, 1.0, n) for n in u.shape], indexing="ij")
    directions = [rng.normal(size=u.shape) for _ in range(2)]
    directions += [np.prod([np.sin(math.pi * k * x) for k, x in zip(rng.integers(1, 4, u.ndim), xs)],
                           axis=0) for _ in range(2)]
    directions.append(-g)
    J0, mag = energy(u, G, q, h, gamma)
    t = 1e-6 * max(1.0, float(np.abs(u).max()))
    for i, v in enumerate(directions):
        v = np.where(free, v, 0.0)
        if not np.any(v):
            continue
        v *= t / np.abs(v).max()
        allowed = tolerance * float(np.abs(v).sum()) + 1e-14 * mag
        for sign in (1.0, -1.0):
            J1, _ = energy(u + sign * v, G, q, h, gamma)
            if J1 < J0 - allowed:
                out.append(f"energy drops by {J0 - J1:.3e} (allowed {allowed:.3e}) "
                           f"along perturbation {i} sign {sign:+.0f}")
    return out


def overlaps(origin: float, h: float, n: int, lo: float, hi: float) -> np.ndarray:
    """Overlap length of each of n cells on one axis with [lo, hi]."""
    left = origin + h * np.arange(n)
    return np.clip(np.minimum(left + h, hi) - np.maximum(left, lo), 0.0, h)


def box_mean(F: np.ndarray, origin, h, lo, hi) -> float:
    """Mean of a cell field over a box (partial cells by overlap volume)."""
    w = [overlaps(origin[k], h[k], F.shape[k], lo[k], hi[k]) for k in range(F.ndim)]
    weights = w[0]
    for wk in w[1:]:
        weights = np.multiply.outer(weights, wk)
    return float(np.sum(weights * F) / np.sum(weights))


def brute_maximal(F: np.ndarray, origin, h, root_lo, root_hi, max_level: int) -> np.ndarray:
    """Dyadic maximal function by enumerating every lattice cube Q of the
    root down to max_level: at each cell center in the closed root, the
    largest mean of F over 2Q among cubes whose closure holds the center."""
    dim = F.ndim
    root_lo, root_hi = np.asarray(root_lo), np.asarray(root_hi)
    centers = np.stack(np.meshgrid(
        *[origin[k] + h[k] * (np.arange(F.shape[k]) + 0.5) for k in range(dim)],
        indexing="ij"), axis=-1).reshape(-1, dim)
    tol = 1e-12 * max(float((root_hi - root_lo).max()), 1.0)
    best = np.zeros(centers.shape[0])
    for level in range(max_level + 1):
        side = (root_hi - root_lo) / 2**level
        for idx in itertools.product(range(2**level), repeat=dim):
            lo = root_lo + np.asarray(idx) * side
            hi = lo + side
            mean2 = box_mean(F, origin, h, lo - side / 2, hi + side / 2)
            inside = np.all((centers >= lo - tol) & (centers <= hi + tol), axis=1)
            best[inside] = np.maximum(best[inside], mean2)
    return best


def exact_clog_local(p: np.ndarray, h) -> float:
    """max over all node pairs of |1/p(x) - 1/p(y)| log(e + 1/|x - y|) on a
    2-D grid: the log factor is constant per lattice offset, so one sweep
    over offsets (half plane, by symmetry) covers every pair."""
    a = 1.0 / p
    nx, ny = a.shape
    best = 0.0
    for di in range(nx):
        for dj in range(-(ny - 1), ny):
            if di == 0 and dj <= 0:
                continue
            j0, j1 = max(0, -dj), min(ny, ny - dj)
            diff = np.abs(a[di:, j0 + dj:j1 + dj] - a[:nx - di, j0:j1])
            dist = math.hypot(di * h[0], dj * h[1])
            best = max(best, float(diff.max()) * math.log(math.e + 1.0 / dist))
    return best


def bilinear(table: Field, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal 2-D table at points inside it."""
    t = table.array()
    rel = (points - np.asarray(table.origin)) / table.h
    i = np.clip(np.floor(rel).astype(int), 0, np.asarray(table.cells) - 1)
    f = rel - i
    return ((1 - f[:, 0]) * (1 - f[:, 1]) * t[i[:, 0], i[:, 1]]
            + f[:, 0] * (1 - f[:, 1]) * t[i[:, 0] + 1, i[:, 1]]
            + (1 - f[:, 0]) * f[:, 1] * t[i[:, 0], i[:, 1] + 1]
            + f[:, 0] * f[:, 1] * t[i[:, 0] + 1, i[:, 1] + 1])
