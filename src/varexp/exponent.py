"""Variable exponents and their regularity diagnostics.

An exponent is a nodal scalar field p with 1 <= p- <= p+ < infinity.  The
regularity that drives every estimate downstream is log-Holder continuity
of 1/p: the smallest c with

    |1/p(x) - 1/p(y)| <= c / log(e + 1/|x - y|)

together with the decay part |1/p(x) - 1/p_inf| <= c / log(e + |x|).
This module measures that constant on the sampled grid, selects the
comparison exponent p_j = p(y_j) at the farthest point y_j of a cube,
quantifies exponent oscillation over cubes, and reports the vanishing
log-Holder profile (which epsilon is attained at which scales).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dyadic import dyadic_lattice
from .grid import Box, CellField, Grid, GridFunction, mean_over
from .records import EstimateRecord

__all__ = [
    "ExponentField",
    "LogHolderReport",
    "log_holder_constant",
    "select_comparison_exponent",
    "oscillation_average",
    "oscillation_record",
    "vanishing_profile",
]

_E = math.e


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Nodal exponent field with optional far-field target p_inf.

    When ``p_infinity`` is omitted it defaults to the value of p at the
    node of maximal |x| (lexicographic tie-break), which makes the decay
    part of the log-Holder measurement vacuous at that node.
    """

    field: GridFunction
    p_infinity: float | None = None

    def __post_init__(self):
        if self.field.codomain_dim != 1:
            raise ValueError("exponent field must be scalar")
        vals = self.field.values[:, 0]
        if vals.min() < 1.0:
            raise ValueError("exponent values must satisfy p >= 1")
        if self.p_infinity is not None and self.p_infinity < 1.0:
            raise ValueError("p_infinity must be >= 1")

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values[:, 0]

    @property
    def p_minus(self) -> float:
        return float(self.values.min())

    @property
    def p_plus(self) -> float:
        return float(self.values.max())

    @property
    def p_infinity_effective(self) -> float:
        if self.p_infinity is not None:
            return float(self.p_infinity)
        idx = _farthest_node(self.grid.node_coords)
        return float(self.values[idx])

    @property
    def cell_values(self) -> np.ndarray:
        """p at cell centers: the Q1 interpolant there (= corner average)."""
        g = self.grid
        return self.field.values[g.cell_corner_indices, 0].mean(axis=1)

    def at(self, points) -> np.ndarray:
        return self.field.at(points)[:, 0]

    def require_superlinear(self, what: str) -> None:
        if self.p_minus <= 1.0:
            raise ValueError(f"{what} requires p- > 1, got p- = {self.p_minus}")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable, p_infinity: float | None = None) -> "ExponentField":
        return cls(GridFunction.from_function(grid, fn), p_infinity)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ExponentField":
        return cls(GridFunction(grid, np.full(grid.num_nodes, float(value))), float(value))


@dataclass
class LogHolderReport:
    c_log: float
    c_log_local: float
    c_log_decay: float | None
    p_scale_bound: float
    vanishing_profile: list[tuple[float, float | None, float | None]]
    vmo_oscillation: float
    pair_count: int = 0
    subsampled: bool = False


def _farthest_node(coords: np.ndarray) -> int:
    """Index of the node of maximal |x|, ties broken lexicographically."""
    norms2 = np.einsum("nd,nd->n", coords, coords)
    best = norms2.max()
    cand = np.nonzero(norms2 == best)[0]
    if cand.size == 1:
        return int(cand[0])
    order = np.lexsort(tuple(coords[cand, k] for k in range(coords.shape[1] - 1, -1, -1)))
    return int(cand[order[0]])


def _pair_samples(p: ExponentField, pair_budget: int, seed: int):
    """Sampled node pairs: (distance, local modulus, min endpoint norm).

    Takes all pairs when their count fits the budget, otherwise a fixed-seed
    random subsample of ``pair_budget`` pairs.
    """
    coords = p.grid.node_coords
    alpha = 1.0 / p.values
    n = coords.shape[0]
    total = n * (n - 1) // 2
    norms = np.linalg.norm(coords, axis=1)
    if total <= pair_budget:
        ii, jj = np.triu_indices(n, k=1)
        subsampled = False
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=pair_budget)
        jj = rng.integers(0, n - 1, size=pair_budget)
        jj = np.where(jj >= ii, jj + 1, jj)  # exclude the diagonal
        subsampled = True
    d = np.linalg.norm(coords[ii] - coords[jj], axis=1)
    mod = np.abs(alpha[ii] - alpha[jj]) * np.log(_E + 1.0 / d)
    minnorm = np.minimum(norms[ii], norms[jj])
    return d, mod, minnorm, subsampled


def log_holder_constant(p: ExponentField, pair_budget: int = 2_000_000, seed: int = 0,
                        epsilons: Sequence[float] = (0.5, 0.2, 0.1, 0.05),
                        vmo_levels: int = 2) -> LogHolderReport:
    """Measure the log-Holder constant of 1/p on the sampled grid.

    c_log_local is the pairwise maximum of |1/p(x)-1/p(y)| log(e + 1/|x-y|);
    the decay part is measured against p_infinity (or its default).  The
    convenience field p_scale_bound = (p+)^2 c_log bounds the constant of
    the exponent itself rather than of 1/p.
    """
    d, mod, minnorm, subsampled = _pair_samples(p, pair_budget, seed)
    c_local = float(mod.max()) if mod.size else 0.0

    coords = p.grid.node_coords
    norms = np.linalg.norm(coords, axis=1)
    a_inf = 1.0 / p.p_infinity_effective
    dec = np.abs(1.0 / p.values - a_inf) * np.log(_E + norms)
    c_decay = float(dec.max()) if dec.size else 0.0

    c_log = max(c_local, c_decay)
    profile = _vanishing_profile(p, epsilons, d, mod, minnorm)
    return LogHolderReport(
        c_log=c_log,
        c_log_local=c_local,
        c_log_decay=c_decay if p.p_infinity is not None else None,
        p_scale_bound=p.p_plus**2 * c_log,
        vanishing_profile=profile,
        vmo_oscillation=_vmo_oscillation(p, vmo_levels),
        pair_count=int(d.size),
        subsampled=subsampled,
    )


def _vmo_oscillation(p: ExponentField, levels: int) -> float:
    """Oscillation quotient over a small dyadic family of the domain:
    max over cubes of  (mean over Q of |p - p_j|) * log(e + max{1/l, l, |c|}),
    with p_j from the 2Q selection rule of ``select_comparison_exponent``.

    Stays comparable to (p+)^2 c_log for log-Holder exponents regardless of
    cube size or position.
    """
    domain = p.grid.domain
    worst = 0.0
    for q in (c.box for c in dyadic_lattice(domain, levels) if c.level >= 1):
        _, p_j = select_comparison_exponent(q, p)
        osc = _oscillation(q, p, 1.0, p_j)
        ell = q.side
        scale = math.log(_E + max(ell, 1.0 / ell, float(np.linalg.norm(q.center))))
        worst = max(worst, osc * scale)
    return worst


def select_comparison_exponent(Q: Box, p: ExponentField) -> tuple[np.ndarray, float]:
    """Pick y_j in closure(2Q ∩ domain) with |y_j| maximal and p_j = p(y_j).

    Ties in |y| break lexicographically so refinement of the same geometry
    selects the same point.  Errors when 2Q misses the domain entirely.
    """
    region = Q.scaled(2.0).intersect(p.grid.domain)
    if region is None:
        raise ValueError("cube does not intersect the grid domain")
    coords = p.grid.node_coords
    idx = np.nonzero(region.contains_points(coords))[0]
    if idx.size == 0:
        raise ValueError("no grid nodes inside 2Q ∩ domain")
    local = _farthest_node(coords[idx])
    node = idx[local]
    return coords[node].copy(), float(p.values[node])


def _oscillation(Q: Box, p: ExponentField, s: float, p_j: float) -> float:
    dev = CellField(p.grid, np.abs(p.cell_values - p_j) ** s)
    return mean_over(dev, Q) ** (1.0 / s)


def oscillation_average(Q: Box, p: ExponentField, s: float = 1.0) -> float:
    """(mean over Q of |p - p_j|^s)^(1/s) with p_j from the 2Q selection rule."""
    if s < 1.0:
        raise ValueError("s must be >= 1")
    _, p_j = select_comparison_exponent(Q, p)
    return _oscillation(Q, p, s, p_j)


def oscillation_record(Q: Box, p: ExponentField, s: float, c_log: float) -> EstimateRecord:
    """Oscillation vs. the scale bound (p+)^2 c_log / log(e + max{R, 1/R, |c|})."""
    osc = oscillation_average(Q, p, s)
    R = Q.side
    denom = math.log(_E + max(R, 1.0 / R, float(np.linalg.norm(Q.center))))
    bound = p.p_plus**2 * c_log / denom
    return EstimateRecord.build(
        "exponent-oscillation", osc, {"scale_bound": bound},
        cube=Q, resolution=p.grid.cells,
    )


def vanishing_profile(p: ExponentField, epsilons: Sequence[float],
                      pair_budget: int = 2_000_000, seed: int = 0,
                      ) -> list[tuple[float, float | None, float | None]]:
    """For each epsilon, the largest radius r and smallest far-field radius R
    (both grid-quantized) at which the two vanishing log-Holder conditions
    hold for all sampled node pairs.

    r: every pair with |x-y| <= r has modulus <= eps; constant exponents
    attain r = domain diameter.  R: every pair with both endpoints beyond R
    has modulus <= eps and every node beyond R has decay modulus <= eps;
    constant exponents attain R = 0.  ``None`` marks an epsilon unattainable
    at grid resolution.
    """
    d, mod, minnorm, _ = _pair_samples(p, pair_budget, seed)
    return _vanishing_profile(p, epsilons, d, mod, minnorm)


def _vanishing_profile(p: ExponentField, epsilons: Sequence[float], d: np.ndarray,
                       mod: np.ndarray, minnorm: np.ndarray,
                       ) -> list[tuple[float, float | None, float | None]]:
    """vanishing_profile on a pair sample already drawn by _pair_samples."""
    coords = p.grid.node_coords
    norms = np.linalg.norm(coords, axis=1)
    dec = np.abs(1.0 / p.values - 1.0 / p.p_infinity_effective) * np.log(_E + norms)
    diameter = float(np.linalg.norm(p.grid.domain.sides))

    order_d = np.argsort(d, kind="stable")
    d_sorted, mod_by_d = d[order_d], np.maximum.accumulate(mod[order_d])

    # suffix maxima: the far-field conditions apply to nodes/pairs beyond R
    order_n = np.argsort(norms, kind="stable")
    norms_sorted = norms[order_n]
    dec_suffix = np.maximum.accumulate(dec[order_n][::-1])[::-1]
    order_m = np.argsort(minnorm, kind="stable")
    minnorm_sorted = minnorm[order_m]
    mod_suffix = np.maximum.accumulate(mod[order_m][::-1])[::-1]

    def first_true(cond: np.ndarray) -> int | None:
        if cond.size == 0:
            return 0
        k = int(np.argmax(cond))
        return k if cond[k] else None

    out: list[tuple[float, float | None, float | None]] = []
    for eps in epsilons:
        viol = first_true(mod_by_d > eps)  # prefix maxima ascend: first violation
        if viol is None or viol >= d_sorted.size:
            r: float | None = diameter
        else:
            below = d_sorted[d_sorted < d_sorted[viol]]
            r = float(below[-1]) if below.size else None

        k_node = first_true(dec_suffix <= eps)  # suffix maxima descend: first all-clear
        k_pair = first_true(mod_suffix <= eps)
        if k_node is None or k_pair is None:
            R: float | None = None
        else:
            R_node = 0.0 if k_node == 0 else float(norms_sorted[k_node])
            R_pair = 0.0 if k_pair == 0 else float(minnorm_sorted[k_pair])
            R = max(R_node, R_pair)
        out.append((float(eps), r, R))
    return out
