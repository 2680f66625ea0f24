"""Variable exponents and their regularity diagnostics.

An exponent is a nodal scalar field p with 1 <= p- <= p+ < infinity.  The
regularity that drives every estimate downstream is log-Holder continuity
of 1/p: the smallest c with

    |1/p(x) - 1/p(y)| <= c / log(e + 1/|x - y|)

together with the decay part |1/p(x) - 1/p_inf| <= c / log(e + |x|).
This module measures that constant exactly over all node pairs of the
grid, selects the comparison exponent p_j = p(y_j) at the farthest point
y_j of a cube, and reports the VMO oscillation quotient over a dyadic
family of cubes and the vanishing log-Holder profile (which epsilon is
attained at which scales).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import dyadic_lattice
from .grid import Box, CellField, Grid, GridFunction, mean_over

__all__ = [
    "ExponentField",
    "LogHolderReport",
    "log_holder_constant",
    "select_comparison_exponent",
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

    @functools.cached_property
    def cell_values(self) -> np.ndarray:
        """p at cell centers: the Q1 interpolant there (= corner average),
        computed once per field and read-only."""
        g = self.grid
        q = self.field.values[g.cell_corner_indices, 0].mean(axis=1)
        q.flags.writeable = False
        return q

    def at(self, points) -> np.ndarray:
        return self.field.at(points)[:, 0]

    def require_superlinear(self, what: str) -> None:
        if self.p_minus <= 1.0:
            raise ValueError(f"{what} requires p- > 1, got p- = {self.p_minus}")


@dataclass
class LogHolderReport:
    c_log: float
    c_log_local: float
    c_log_decay: float | None
    p_scale_bound: float
    vanishing_profile: list[tuple[float, float | None, float | None]]
    vmo_oscillation: float
    pair_count: int = 0


def _farthest_node(coords: np.ndarray) -> int:
    """Index of the node of maximal |x|, ties broken lexicographically."""
    norms2 = np.einsum("nd,nd->n", coords, coords)
    best = norms2.max()
    cand = np.nonzero(norms2 == best)[0]
    if cand.size == 1:
        return int(cand[0])
    order = np.lexsort(tuple(coords[cand, k] for k in range(coords.shape[1] - 1, -1, -1)))
    return int(cand[order[0]])


def _offset_sweep(p: ExponentField, epsilons: Sequence[float],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node pair visited once, grouped by lattice offset.

    Covers the offsets delta whose first nonzero component is positive.  On
    a uniform grid the log factor log(e + 1/|x - y|) depends only on the
    offset, so one pass per prefix (delta's leading components) handles
    every last-axis offset at once: diff[r, a, b] = |1/p(y) - 1/p(x)| for x
    at last-axis position a of row r and y = x + (prefix, b - a), the
    largest modulus of each offset is a skewed max over the diagonals
    b - a, and memory stays O(rows * n^2) for n nodes on the last axis.
    Returns, per offset in itertools.product order, its length |delta h|
    and the largest modulus over its pairs, and per epsilon the largest
    min(|x|, |y|) over all pairs whose modulus exceeds it (-inf when none
    does).
    """
    g = p.grid
    shape = g.nodes_per_axis
    *lead, n = shape
    alpha = (1.0 / p.values).reshape(shape)
    norms = np.linalg.norm(g.node_coords, axis=1).reshape(shape)
    steps = [(np.arange(1 - m, m) * hk).tolist() for m, hk in zip(shape, g.cell_size)]
    eps = np.asarray(epsilons, dtype=float)
    reach = np.full(eps.size, -np.inf)
    skew = np.arange(n) - np.arange(n)[:, None] + n - 1  # b - a + n - 1 at [a, b]
    dist, top = [], []
    for prefix in itertools.product(*(range(1 - m, m) for m in lead)):
        first = next((d for d in prefix if d), 0)
        if first < 0:
            continue  # the mirror offsets -delta cover these pairs
        lo = tuple(slice(max(0, -d), m - max(0, d)) for d, m in zip(prefix, lead))
        hi = tuple(slice(max(0, d), m - max(0, -d)) for d, m in zip(prefix, lead))
        head = [s[d + m - 1] for s, d, m in zip(steps, prefix, lead)]
        cols = slice(n if first == 0 else 0, 2 * n - 1)  # delta = 0 and its mirrors left out
        length = [math.hypot(*head, s) for s in steps[-1][cols]]
        factor = np.ones(2 * n - 1)
        factor[cols] = [math.log(_E + 1.0 / ell) for ell in length]
        diff = alpha[hi].reshape(-1, 1, n) - alpha[lo].reshape(-1, n, 1)
        np.abs(diff, out=diff)
        if first == 0:
            diff[:, skew < n] = -np.inf  # b <= a: not a pair of this half-space
        by_offset = np.full((n, 2 * n - 1), -np.inf)
        np.put_along_axis(by_offset, skew, diff.max(axis=0), axis=1)
        best = by_offset.max(axis=0)[cols] * factor[cols]  # = max(diff * factor): rounding is monotone
        dist += length
        top += best.tolist()
        live = eps < best.max()
        if live.any():
            nlo, nhi = norms[lo].reshape(-1, n), norms[hi].reshape(-1, n)
            # a bound on min(|x|, |y|) over the pairs: otherwise none can raise reach
            live &= reach < np.minimum(nlo.max(axis=1), nhi.max(axis=1)).max()
            if live.any():
                diff *= factor[skew]
                minnorm = np.minimum(nlo[:, :, None], nhi[:, None, :])
                for i in np.flatnonzero(live):
                    hit = diff > eps[i]
                    if hit.any():
                        reach[i] = max(reach[i], minnorm[hit].max())
    return np.asarray(dist), np.asarray(top), reach


def log_holder_constant(p: ExponentField, seed: int = 0,
                        epsilons: Sequence[float] = (0.5, 0.2, 0.1, 0.05),
                        vmo_levels: int = 2) -> LogHolderReport:
    """Measure the log-Holder constant of 1/p, exact over all node pairs.

    c_log_local is the pairwise maximum of |1/p(x)-1/p(y)| log(e + 1/|x-y|);
    the decay part is measured against p_infinity (or its default).  The
    convenience field p_scale_bound = (p+)^2 c_log bounds the constant of
    the exponent itself rather than of 1/p.  ``seed`` is accepted and
    ignored, since nothing is sampled; callers that pass it (the benchmark's
    library workload among them) keep working.
    """
    sweep = _offset_sweep(p, epsilons)
    c_local = float(sweep[1].max())
    dec = _decay_moduli(p)
    c_decay = float(dec.max())

    c_log = max(c_local, c_decay)
    n = p.grid.num_nodes
    return LogHolderReport(
        c_log=c_log,
        c_log_local=c_local,
        c_log_decay=c_decay if p.p_infinity is not None else None,
        p_scale_bound=p.p_plus**2 * c_log,
        vanishing_profile=_vanishing_profile(p, epsilons, sweep, dec),
        vmo_oscillation=_vmo_oscillation(p, vmo_levels),
        pair_count=n * (n - 1) // 2,
    )


def _decay_moduli(p: ExponentField) -> np.ndarray:
    """|1/p(x) - 1/p_inf| log(e + |x|) at every node."""
    norms = np.linalg.norm(p.grid.node_coords, axis=1)
    return np.abs(1.0 / p.values - 1.0 / p.p_infinity_effective) * np.log(_E + norms)


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
        osc = _oscillation(q, p, p_j)
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


def _oscillation(Q: Box, p: ExponentField, p_j: float) -> float:
    """Mean over Q of |p - p_j|."""
    return mean_over(CellField(p.grid, np.abs(p.cell_values - p_j)), Q)


def vanishing_profile(p: ExponentField, epsilons: Sequence[float],
                      ) -> list[tuple[float, float | None, float | None]]:
    """For each epsilon, the largest radius r and smallest far-field radius R
    (both grid-quantized) at which the two vanishing log-Holder conditions
    hold, exact over all node pairs.

    r: every pair with |x-y| <= r has modulus <= eps; it is the longest
    pair distance strictly below the shortest distance of a pair whose
    modulus exceeds eps, and constant exponents attain r = domain diameter.
    R: every pair with min(|x|, |y|) >= R has modulus <= eps and every node
    with |x| >= R has decay modulus <= eps; it is the larger of the smallest
    pair min-norm and the smallest node norm strictly above those of every
    violating pair and node, and constant exponents attain R = 0.  ``None``
    marks an epsilon unattainable at grid resolution.
    """
    return _vanishing_profile(p, epsilons, _offset_sweep(p, epsilons), _decay_moduli(p))


def _vanishing_profile(p: ExponentField, epsilons: Sequence[float], sweep: tuple,
                       dec: np.ndarray) -> list[tuple[float, float | None, float | None]]:
    """vanishing_profile from a finished offset sweep and the decay moduli."""
    dist, top, reaches = sweep
    norms = np.linalg.norm(p.grid.node_coords, axis=1)
    # every node but the farthest has a partner at least as far out, so the
    # pair min-norms are exactly the sorted node norms without the largest
    pair_norms = np.sort(norms)[:-1]
    diameter = float(np.linalg.norm(p.grid.domain.sides))

    def above(values: np.ndarray, bound: float) -> float | None:
        """Smallest value strictly above bound; 0 when nothing violates."""
        if bound == -np.inf:
            return 0.0
        rest = values[values > bound]
        return float(rest.min()) if rest.size else None

    out: list[tuple[float, float | None, float | None]] = []
    for eps, reach in zip(epsilons, reaches):
        viol = dist[top > eps]
        if viol.size == 0:
            r: float | None = diameter
        else:
            below = dist[dist < viol.min()]
            r = float(below.max()) if below.size else None

        R_node = above(norms, float(norms[dec > eps].max(initial=-np.inf)))
        R_pair = above(pair_norms, float(reach))
        R = None if R_node is None or R_pair is None else max(R_node, R_pair)
        out.append((float(eps), r, R))
    return out
