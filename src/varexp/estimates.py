"""The estimate chain, measured: Caccioppoli, reverse Holder, Gehring
self-improvement and higher integrability.

Each check evaluates both sides of an inequality on concrete solved
instances by quadrature and records the same shape of evidence in an
EstimateRecord: the left-hand side, the named right-hand-side components
and the empirical constant lhs/sum(rhs).  The higher-integrability check
additionally recomputes its left-hand side through the proof's level-set
route: the q-th moment reconstructed from a lambda-sweep of superlevel-set
measures, split at the threshold kappa * lambda0 where the covering
argument takes over from the raw density (below it the set of the density
itself, above it the maximal function's).  The two routes must agree to
sweep accuracy, which is the strongest internal consistency test in the
package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (covering_threshold, default_max_level, lattice_box, lattice_means,
                     maximal_function)
from .exponent import ExponentField
from .grid import (Box, CellField, GridFunction, gradient, integrate, mean_over,
                   region_weights)
from .varlp import decay_weight

__all__ = [
    "EstimateRecord",
    "GehringResult",
    "energy_density",
    "data_density",
    "caccioppoli_check",
    "reverse_holder_check",
    "gehring_scan",
    "higher_integrability_check",
]


@dataclass
class EstimateRecord:
    name: str
    lhs: float
    rhs_components: dict[str, float]
    empirical_constant: float
    cube: Box | None = None
    resolution: tuple[int, ...] = ()
    flags: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, name: str, lhs: float, rhs: dict[str, float], *,
              cube: Box | None = None, resolution: tuple[int, ...] = (),
              flags: list[str] | None = None) -> "EstimateRecord":
        total = float(sum(rhs.values()))
        const = float(lhs) / total if total > 0 else float("inf") if lhs > 0 else 0.0
        return cls(name, float(lhs), {k: float(v) for k, v in rhs.items()},
                   const, cube, tuple(resolution), list(flags or []))

    @property
    def rhs_sum(self) -> float:
        return float(sum(self.rhs_components.values()))


def energy_density(u: GridFunction, p: ExponentField) -> CellField:
    """|Du(x)|^{p(x)} at cell centers."""
    mag = gradient(u).magnitude()
    return CellField(u.grid, mag ** p.cell_values)


def data_density(G: CellField, p: ExponentField, m: float | None = None) -> CellField:
    """|G(x)|^{p(x)} + h(x) with the decay weight h = (e+|x|)^{-m}, m = 2n
    by default."""
    mag = G.magnitude()
    h = decay_weight(G.grid, m)
    return CellField(G.grid, mag ** p.cell_values + h.values)


def caccioppoli_check(u: GridFunction, G: CellField, p: ExponentField,
                      Q: Box) -> EstimateRecord:
    """Energy on Q against the scaled oscillation of u and the data on 2Q:

    integral_Q |Du|^p  vs  integral_{2Q} (|u - <u>_{2Q}| / R)^p
                          + integral_{2Q} |G|^p,   R = side of Q.
    """
    g = u.grid
    pc = p.cell_values
    Q2 = Q.scaled(2.0)
    lhs = integrate(energy_density(u, p), Q)

    fc = sum(u.values[c] for c in g.cell_corner_indices.T) / 2**g.dim  # u at centers, by corners
    w = region_weights(g, Q2)
    mean_u = (w @ fc) / w.sum()
    dev = np.linalg.norm(fc - mean_u, axis=1) / Q.side
    rhs1 = integrate(CellField(g, dev**pc), Q2)
    rhs2 = integrate(CellField(g, G.magnitude() ** pc), Q2)
    return EstimateRecord.build(
        "caccioppoli", lhs, {"oscillation": rhs1, "data": rhs2},
        cube=Q, resolution=g.cells,
    )


def reverse_holder_check(u: GridFunction, G: CellField, p: ExponentField,
                         Q: Box, s: float, m: float | None = None) -> EstimateRecord:
    """Mean energy on Q against the s-lowered mean on 2Q plus data terms:

    mean_Q |Du|^p  vs  (mean_{2Q} |Du|^{p/s})^s + mean_{2Q} |G|^p + mean_{2Q} h.

    requires 1 <= s < min{n/(n-1), p^- on 2Q}.
    """
    g = u.grid
    n = g.dim
    pc = p.cell_values
    Q2 = Q.scaled(2.0)
    w2 = region_weights(g, Q2)
    p_minus_2q = float(pc[w2 > 0].min())
    s_cap = min(n / (n - 1.0) if n > 1 else math.inf, p_minus_2q)
    if not (1.0 <= s < s_cap):
        raise ValueError(f"s must lie in [1, {s_cap}), got {s}")

    mag = gradient(u).magnitude()
    lhs = mean_over(CellField(g, mag ** pc), Q)  # the energy density, Du taken once
    rhs1 = mean_over(CellField(g, mag ** (pc / s)), Q2) ** s
    rhs2 = mean_over(CellField(g, G.magnitude() ** pc), Q2)
    rhs3 = mean_over(decay_weight(g, m), Q2)
    return EstimateRecord.build(
        "reverse-holder", lhs,
        {"lowered_energy": rhs1, "data": rhs2, "decay": rhs3},
        cube=Q, resolution=g.cells,
    )


@dataclass
class GehringResult:
    m0: float
    sigma: float
    mu_grid: list[float]
    cap: float
    cubes_tested: int
    records: list[EstimateRecord]  # per mu of mu_grid, the worst cube's record


def gehring_scan(u: GridFunction, G: CellField, p: ExponentField, root: Box,
                 mu_max: float = 2.0, steps: int = 8, cap: float = 1e3,
                 m: float | None = None) -> GehringResult:
    """Scan the self-improved reverse Holder inequality over mu in (1, mu_max]:

    (mean_Q |Du|^{p mu})^{1/mu}  vs  mean_{2Q} |Du|^p
                                     + (mean_{2Q} (|G|^{p mu} + h^mu))^{1/mu}

    over the dyadic cubes of the root with 2Q inside the root, down to
    ``default_max_level`` (at least level 2).  m0 ends the leading run of
    sampled mu whose worst-cube constant stays at or below the cap: the
    largest mu with every sampled mu up to it passing, or 1 when mu = 1
    fails; sigma = m0^{1/4} is the integrability-transfer exponent.  The
    paper's second Gehring exponent m1 is m0 here, so it is not reported.
    """
    g = u.grid
    n = g.dim
    if mu_max <= 1.0:
        raise ValueError("mu_max must exceed 1")
    pc = p.cell_values
    mag = gradient(u).magnitude()
    gmag = G.magnitude()
    h = decay_weight(g, m).values

    # 2Q spans lattice indices (i - 1/2, i + 3/2) per axis, so it lies in
    # the root exactly for 1 <= i <= 2^L - 2, which no level-1 cube does;
    # cubes in lattice order.
    levels = range(2, max(2, default_max_level(root, g)) + 1)
    index = [(lev, idx) for lev in levels
             for idx in itertools.product(range(1, 2**lev - 1), repeat=n)]

    def means(values: np.ndarray, scale: float) -> np.ndarray:
        return np.concatenate([lattice_means(values, g, root, lev, scale)[(slice(1, -1),) * n]
                               .reshape(-1) for lev in levels])

    mu_grid = list(np.linspace(1.0, mu_max, steps))
    rhs1 = means(mag**pc, 2.0)
    records: list[EstimateRecord] = []
    m0, passing = 1.0, True
    for mu in mu_grid:
        lhs = means(mag ** (pc * mu), 1.0) ** (1.0 / mu)
        rhs2 = means(gmag ** (pc * mu) + h**mu, 2.0) ** (1.0 / mu)
        # rhs2 > 0 because h > 0; argmax takes the first of equal maxima
        i = int(np.argmax(lhs / (rhs1 + rhs2)))
        lev, idx = index[i]
        rec = EstimateRecord.build(
            f"gehring-mu={mu:g}", lhs[i], {"energy": rhs1[i], "data": rhs2[i]},
            cube=lattice_box(root, lev, idx), resolution=g.cells,
        )
        records.append(rec)
        passing = passing and rec.empirical_constant <= cap
        if passing:
            m0 = float(mu)
    return GehringResult(m0, m0 ** 0.25, [float(x) for x in mu_grid], cap, len(index), records)


def _sweep_moment(F: CellField, root: Box, q: float, lam0: float, kappa: float,
                  mstar: np.ndarray, points: int) -> tuple[float, float, float]:
    """q-th moment mean of F over the root via the level-set route.

    Integrates q lam^{q-1} D(lam) over a geometric grid of lambdas running
    from lam0/10 to twice the peak of the maximal function (extended if the
    raw density peaks higher), with D(lam) = |{F > lam} ∩ root| at and below
    the threshold kappa*lam0 and D(lam) = |{M*F > lam}| above it.  The
    threshold itself is a grid point.  Returns (mean moment, head, tail):
    head integrates [0, kappa*lam0] on the route of F, tail integrates from
    kappa*lam0 upward on the route of M*F, its left end included, and the
    moment is their sum.
    """
    g = F.grid
    w = region_weights(g, root)
    measure = w.sum()
    fv = F.values
    vol = g.cell_volume
    fmax = float(fv[w > 0].max())
    if lam0 <= 0.0 or fmax <= 0.0:
        return 0.0, 0.0, 0.0

    thresh = kappa * lam0
    top = 2.0 * max(float(mstar.max()), fmax / 2.0, thresh / 2.0)
    lams = np.geomspace(lam0 / 10.0, top, points)
    at = int(np.searchsorted(lams, thresh))
    if lams[0] < thresh < lams[-1] and lams[at] != thresh:
        lams = np.insert(lams, at, thresh)  # a sorted insert; np.unique loads numpy.ma

    # |{M*F > lam}| for every lam, from one sort: searchsorted(side="right")
    # counts the values <= lam
    above = (mstar.size - np.searchsorted(np.sort(mstar), lams, side="right")) * vol
    head_mask = lams <= thresh
    dvals = above.copy()
    dvals[head_mask] = [float(w[fv > lam].sum()) for lam in lams[head_mask]]
    gvals = q * lams ** (q - 1.0) * dvals
    # D is treated as constant below lam0/10
    head = lams[0] ** q * dvals[0] + float(np.trapezoid(gvals[head_mask], lams[head_mask]))
    # the tail starts at the threshold itself, measured on the maximal-function
    # route, so it is exactly 0 when M*F never exceeds kappa*lam0
    tail_mask = lams >= thresh
    tl = lams[tail_mask]
    tail = float(np.trapezoid(q * tl ** (q - 1.0) * above[tail_mask], tl))
    return (head + tail) / measure, head / measure, tail / measure


def higher_integrability_check(u: GridFunction, G: CellField, p: ExponentField,
                               q: float, root: Box, kappa: float, sweep_points: int = 64,
                               m: float | None = None) -> EstimateRecord:
    """Measured higher integrability of the energy density F = |Du|^{p(.)}:

    (mean_root F^q)^{1/q}  vs  mean_{2 root} F
                               + (mean_{2 root} (|G|^p + h)^q)^{1/q}.

    The left side is computed twice: directly by quadrature, and through
    the level-set reconstruction split at kappa * lambda0 (below: superlevel
    sets of F; above: of the maximal function M*F).  Their relative gap and
    the head/tail split are recorded as flags.  When M*F stays at or below
    kappa * lambda0, the maximal-function route measures only empty sets
    and the flag level-set-tail-unused says so.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    g = u.grid
    p.require_superlinear("higher_integrability_check")
    F = energy_density(u, p)
    root2 = root.scaled(2.0)
    lam0 = covering_threshold(F, root)
    lhs_direct = mean_over(CellField(g, F.values**q), root) ** (1.0 / q)

    mstar = maximal_function(F, root, 1.0).values
    moment, head, tail = _sweep_moment(F, root, q, lam0, kappa, mstar, sweep_points)
    lhs_sweep = moment ** (1.0 / q)
    rel_gap = abs(lhs_sweep - lhs_direct) / lhs_direct if lhs_direct > 0 else 0.0

    rhs1 = lam0
    gh = data_density(G, p, m)
    rhs2 = mean_over(CellField(g, gh.values**q), root2) ** (1.0 / q)
    flags = [
        f"lhs_sweep={lhs_sweep:.12g}",
        f"sweep_rel_gap={rel_gap:.6g}",
        f"head={head:.12g}",
        f"tail={tail:.12g}",
        f"lambda0={lam0:.12g}",
        f"kappa={kappa:g}",
    ]
    if rel_gap > 0.05:
        flags.append("level-set-route-mismatch")
    if mstar.max() <= kappa * lam0:
        flags.append("level-set-tail-unused")
    return EstimateRecord.build(
        f"higher-integrability-q={q:g}", lhs_direct,
        {"mean_energy": rhs1, "data_term": rhs2},
        cube=root, resolution=g.cells, flags=flags,
    )

