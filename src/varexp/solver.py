"""Energy minimization for the p(x)-Laplacian system.

solve_pxlaplace minimizes the convex energy

    J(u) = integral of phi_{p(x)}(|Du|) - A(x, G) : Du

over nodal fields with Dirichlet values on the topological boundary, by
damped inexact Newton iteration (exact Hessian, backtracking line search)
inside a continuation loop over the regularization gamma of the flux, one
stage per entry of _GAMMA_SCHEDULE.  The final stage runs at gamma = 0
when p- >= 2, else at the small positive floor _GAMMA_FLOOR.  Only its
answer is used, so each earlier stage is solved inexactly (Deuflhard,
Newton Methods for Nonlinear Problems, 2004, ch. 5): it stops once its
residual, the sup-norm of the free-node energy gradient, is at most
max(tolerance, _STAGE_REDUCTION * its starting residual), and warm-starts
the next.

The free-dof Hessian is symmetric positive definite (gamma > 0, or
p >= 2) and couples only neighbouring nodes of a box lattice.  The first
Newton system of a solve is factored by SuperLU with diagonal pivots in a
geometric nested-dissection order of the interior nodes (George, SIAM J.
Numer. Anal. 10, 1973), and that first factor is reused as a CG
preconditioner, refactor on a CG miss: each later system, across steps
and gamma stages, is solved inexactly by preconditioned CG (Eisenstat and
Walker, SIAM J. Sci. Comput. 17, 1996; Kelley, Solving Nonlinear Equations
with Newton's Method, 2003, ch. 5), with the Hessian applied matrix-free
as B^T (D B) on the free dofs.  CG stops at the relative residual
eta = min(_FORCING_MAX, 0.9 (res_k / res_{k-1})^2), the residuals of this
and the previous iterate, and at eta = _FORCING_MAX on the first CG step.
When CG has not met eta within _CG_CAP iterations, or its direction is not
finite, the held factor is dropped and the Hessian is assembled and
factored anew; that factor is held in turn.  The rule reads counts only,
never a clock, so a fixed instance gives the same bytes.  When the Newton
direction is unusable (singular factor, indefinite numerics, extreme
diagonal spread) the step falls back to gradient descent.

Near J's rounding floor J + c t slope rounds to J and the Armijo test
cannot tell a decrease from noise, so a trial within _ROUNDING_ULPS ulps
of J is accepted only if it lowers the residual by the factor 1 - c t
(J may then rise by those few ulps); without this guard the search
backtracks to steps that change nothing.  Each stage's steps,
fallbacks, backtracks, guard acceptances, factor reuses, CG iterations,
factorization seconds and fill and stop reason are reported in
StageStats.  Convergence means the final stage's residual is at or below
the tolerance; non-convergence is reported, never raised.

A warm start (nested iteration: Hackbusch, Multi-Grid Methods and
Applications, 1985) takes the initial interior as a near-solution, such as
a coarser solution prolonged onto the grid, and runs the final stage only.
The full schedule would throw the start away, because the gamma = 1 stage
pulls the field far from the answer: on a 128^2 bump instance with p in
[1.3, 3], started from its 64^2 solution, the whole schedule took 19
Newton steps, as many as a cold start, and the final stage alone took 4.

solve_comparison freezes the exponent at the comparison value p_j and
re-solves on the sub-grid of a doubled cube with the ambient solution as
boundary data; comparison_distance integrates the monotonicity pairing
between the two gradients, the quantity every transfer estimate runs on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import Box, CellField, Grid, GridFunction, gradient
from .operator import (FluxParams, _flux_batch, energy, energy_gradient, energy_hessian,
                       hessian_action)

__all__ = [
    "SolveOptions",
    "SolverResult",
    "StageStats",
    "solve_pxlaplace",
    "solve_comparison",
    "comparison_distance",
    "uhlenbeck_check",
    "manufactured_instance",
]


@dataclass
class SolveOptions:
    tolerance: float = 1e-8
    max_iterations: int = 200  # Newton steps per gamma stage


@dataclass
class StageStats:
    """What one gamma stage did and why it stopped.

    ``reason`` is ``tolerance``, ``reduction`` (a non-final stage reached
    ``_STAGE_REDUCTION`` times its starting residual), ``stall`` (no
    line-search trial accepted) or ``cap`` (``max_iterations`` steps).
    ``guarded`` counts steps accepted on their residual because J could not
    resolve them.  ``reuses`` counts steps whose direction CG found on the
    held factor, and ``cg_iterations`` the CG iterations spent, those of
    CG runs that missed ``_CG_CAP`` included.  ``factor_s`` is the time
    spent in SuperLU factorizations and ``fill`` the largest factor's
    nonzero count (L and U together).  Every step is a factored step, a
    reuse or a fallback.
    """
    gamma: float
    steps: int = 0
    fallbacks: int = 0
    backtracks: int = 0
    guarded: int = 0
    reuses: int = 0
    cg_iterations: int = 0
    factor_s: float = 0.0
    fill: int = 0
    residual: float = math.inf
    reason: str = ""


@dataclass
class SolverResult:
    u: GridFunction
    converged: bool
    energy_history: list[tuple[float, float]]  # (gamma, J)
    stages: list[StageStats]  # one per gamma of the schedule
    message: str = ""

    @property
    def iterations(self) -> int:
        """Newton steps over all stages."""
        return sum(s.steps for s in self.stages)

    @property
    def residual(self) -> float:
        return self.stages[-1].residual

    @property
    def gamma_final(self) -> float:
        return self.stages[-1].gamma


_LEAF = 8  # nodes below which a lattice block is not split further
_GAMMA_SCHEDULE = (1.0, 1e-1, 1e-2, 1e-4, 0.0)  # continuation stages
_GAMMA_FLOOR = 1e-8  # least gamma of a stage when p- < 2
_STAGE_REDUCTION = 0.5  # residual factor that ends a non-final gamma stage
_BACKTRACK_SHRINK = 0.5  # line-search step factor per rejected trial
_BACKTRACK_SLOPE = 1e-4  # Armijo sufficient-decrease constant c
_CONDITION_CAP = 1e12  # Hessian diagonal spread above which Newton is not tried
_ROUNDING_ULPS = 4  # |J(trial) - J| within this many ulps of J is unresolved
_CG_CAP = 25  # CG iterations on the held factor before it is refactored
_FORCING_MAX = 1e-3  # largest CG relative residual eta, and eta on the first CG step
_FORCING_SCALE = 0.9  # eta = _FORCING_SCALE (res_k / res_{k-1})^2 below that


def _schedule(p_minus: float) -> tuple[float, ...]:
    """The gamma of each stage, floored at _GAMMA_FLOOR when p- < 2."""
    floor = _GAMMA_FLOOR if p_minus < 2.0 else 0.0
    return tuple(max(g, floor) for g in _GAMMA_SCHEDULE)


def _dissection(shape: tuple[int, ...]) -> np.ndarray:
    """Nested-dissection order of a box lattice of nodes.

    Returns a permutation of the row-major flat indices of ``shape``.  Each
    block with more than ``_LEAF`` nodes is cut by its middle plane across
    the longest axis; the two halves come first, each ordered recursively,
    and the separator plane last, so eliminating in this order keeps the
    fill of a nearest-neighbour operator within the separators.  All blocks
    of one level are cut at once, as arrays of bounds, each with the place
    in the order where its nodes start; the pieces that are not cut further
    (leaves and separators) are then written out row-major.
    """
    lo = np.zeros((1, len(shape)), dtype=np.intp)
    hi = np.array([shape], dtype=np.intp)
    start = np.zeros(1, dtype=np.intp)
    pieces = []  # (lo, hi, start) of the leaves and separators
    while lo.size:
        sides = hi - lo
        leaf = sides.prod(axis=1) <= _LEAF
        pieces.append((lo[leaf], hi[leaf], start[leaf]))
        lo, hi, start, sides = lo[~leaf], hi[~leaf], start[~leaf], sides[~leaf]
        rows = np.arange(len(lo))
        k = sides.argmax(axis=1)  # the first longest axis
        m = lo[rows, k] + sides[rows, k] // 2
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[rows, k], right_lo[rows, k] = m, m + 1
        sep_lo, sep_hi = lo.copy(), hi.copy()
        sep_lo[rows, k], sep_hi[rows, k] = m, m + 1
        n_left = (left_hi - lo).prod(axis=1)
        pieces.append((sep_lo, sep_hi, start + n_left + (hi - right_lo).prod(axis=1)))
        lo, hi = np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])
        start = np.concatenate([start, start + n_left])
    lo, hi, start = (np.concatenate(part) for part in zip(*pieces))
    by_start = np.argsort(start, kind="stable")  # the pieces tile the order end to end
    lo, sides, start = lo[by_start], (hi - lo)[by_start], start[by_start]
    piece = np.repeat(np.arange(len(start)), sides.prod(axis=1))
    rank = np.arange(math.prod(shape)) - start[piece]  # row-major rank within the piece
    out = np.zeros_like(rank)
    stride = 1
    for k in reversed(range(len(shape))):
        side = sides[piece, k]
        out += (lo[piece, k] + rank % side) * stride
        rank //= side
        stride *= shape[k]
    return out


def _free_solve(H, g_free: np.ndarray, stage: StageStats):
    """The SuperLU factor of H and the Newton direction from it; None when
    the factorization is not trustworthy.

    ``H`` is the free-dof Hessian (CSC) already in elimination order, so
    SuperLU keeps that order and pivots on the diagonal.  A zero pivot makes
    SuperLU raise RuntimeError.  The factorization's time and fill are added
    to ``stage``.
    """
    from scipy.sparse.linalg import splu

    diag = H.diagonal()
    if diag.min() <= 0.0 or diag.max() / diag.min() > _CONDITION_CAP:
        return None
    start = time.perf_counter()
    try:
        lu = splu(H, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError:
        return None
    finally:
        stage.factor_s += time.perf_counter() - start
    stage.fill = max(stage.fill, lu.nnz)  # lu.L and lu.U would copy the factors
    d = lu.solve(-g_free)
    if not np.all(np.isfinite(d)):
        return None
    return lu, d


def _free_hessian_action(u: GridFunction, p: ExponentField, params: FluxParams,
                         sel: np.ndarray):
    """The map x -> (B^T (D (B xbar)))[sel]: the free-dof Hessian at u times
    x, where xbar is x scattered onto the free dofs ``sel`` of a zero field."""
    apply = hessian_action(u, p, params)
    full = np.zeros(u.values.size)

    def matvec(x: np.ndarray) -> np.ndarray:
        full[sel] = x
        return apply(full)[sel]

    return matvec


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by einsum: numpy's BLAS dot can spread long vectors over
    threads, which costs more than it saves at these sizes."""
    return float(np.einsum("i,i->", x, y))


def _cg_solve(lu, matvec, g_free: np.ndarray, eta: float,
              stage: StageStats) -> np.ndarray | None:
    """Inexact Newton direction: CG on the free-dof Hessian ``matvec``,
    preconditioned by the held factor ``lu``, from zero to relative
    residual ``eta``.  The residual is tested before each iteration, so a
    residual first met by the last of _CG_CAP iterations counts as a miss;
    a miss, or a direction that is not finite, gives None.  The iterations
    are added to ``stage``."""
    x = np.zeros_like(g_free)
    r = -g_free
    bound = eta * math.sqrt(_dot(r, r))
    s = rho = None  # the search direction and r . z
    for _ in range(_CG_CAP):
        if math.sqrt(_dot(r, r)) < bound:
            return x if np.all(np.isfinite(x)) else None
        z = lu.solve(r)
        rho, previous = _dot(r, z), rho
        s = z if s is None else z + (rho / previous) * s
        q = matvec(s)
        alpha = rho / _dot(s, q)
        x += alpha * s
        r -= alpha * q
        stage.cg_iterations += 1
    return None


def _minimize(u0: GridFunction, G: CellField, p: ExponentField,
              opts: SolveOptions, warm_start: bool = False) -> SolverResult:
    """Dirichlet values on the boundary nodes of u0's grid; the free nodes
    are the interior lattice, which _dissection orders.  A warm start runs
    the final gamma stage only.  The held SuperLU factor lives for this call
    only, and at most one factor is alive at a time."""
    grid = u0.grid
    N = u0.codomain_dim
    interior = tuple(n - 2 for n in grid.nodes_per_axis)
    order = (_dissection(interior)[:, None] * N + np.arange(N)).reshape(-1)
    sel = np.flatnonzero(np.repeat(~grid.boundary_node_mask, N))[order]
    u = u0.values.copy()
    history: list[tuple[float, float]] = []
    stages: list[StageStats] = []
    message = ""
    schedule = _schedule(p.p_minus)
    if warm_start:
        schedule = schedule[-1:]

    def free_gradient(values: np.ndarray, params: FluxParams) -> tuple[np.ndarray, float]:
        """Energy gradient on the free dofs in elimination order, and its sup-norm."""
        g = energy_gradient(GridFunction(grid, values), G, p, params).values.reshape(-1)[sel]
        return g, float(np.abs(g).max()) if g.size else 0.0

    lu = None  # the held factor, reused as the CG preconditioner
    previous = math.inf  # the residual one step back
    cg_taken = False  # the first CG step runs at eta = _FORCING_MAX
    for k, gam in enumerate(schedule):
        params = FluxParams(gam)
        J = energy(GridFunction(grid, u), G, p, params)
        history.append((gam, J))
        g_free, res = free_gradient(u, params)
        last = k == len(schedule) - 1
        target = opts.tolerance if last else max(opts.tolerance, _STAGE_REDUCTION * res)
        stage = StageStats(gam)
        stages.append(stage)
        while True:
            if res <= target:
                stage.reason = "tolerance" if res <= opts.tolerance else "reduction"
                break
            if stage.steps >= opts.max_iterations:
                stage.reason = "cap"
                break
            field = GridFunction(grid, u)
            d = None
            if lu is not None:
                eta = (min(_FORCING_MAX, _FORCING_SCALE * (res / previous) ** 2)
                       if cg_taken else _FORCING_MAX)
                cg_taken = True
                d = _cg_solve(lu, _free_hessian_action(field, p, params, sel), g_free, eta, stage)
                if d is None:
                    lu = None  # dropped before the next factor is made
            reused = d is not None
            if not reused:
                lu, d = _free_solve(energy_hessian(field, p, params)[sel][:, sel].tocsc(),
                                    g_free, stage) or (None, None)
            slope = _dot(g_free, d) if d is not None else 0.0
            if d is None or slope >= 0.0:
                stage.fallbacks += 1
                d = -g_free
                slope = -_dot(g_free, g_free)
            elif reused:
                stage.reuses += 1
            stage.steps += 1
            t = 1.0
            step = None
            while t > 1e-14:
                trial = u.copy()
                trial.reshape(-1)[sel] += t * d
                Jt = energy(GridFunction(grid, trial), G, p, params)
                if Jt <= J + _BACKTRACK_SLOPE * t * slope:
                    step = trial, Jt, free_gradient(trial, params)
                    break
                if abs(Jt - J) <= _ROUNDING_ULPS * np.spacing(abs(J)):
                    # J cannot resolve this trial: demand a residual decrease
                    grad = free_gradient(trial, params)
                    if grad[1] < (1.0 - _BACKTRACK_SLOPE * t) * res:
                        stage.guarded += 1
                        step = trial, Jt, grad
                        break
                stage.backtracks += 1
                t *= _BACKTRACK_SHRINK
            if step is None:
                stage.reason = "stall"
                message = f"line search stalled at gamma={gam:g}"
                break
            previous = res
            u, J, (g_free, res) = step
            history.append((gam, J))
        stage.residual = res

    converged = res <= opts.tolerance
    if not converged and not message:
        message = f"residual {res:.3e} above tolerance {opts.tolerance:g}"
    return SolverResult(GridFunction(grid, u), converged, history, stages, message)


def solve_pxlaplace(G: CellField, p: ExponentField, boundary: GridFunction,
                    grid: Grid | None = None, opts: SolveOptions | None = None,
                    *, warm_start: bool = False) -> SolverResult:
    """Minimize the p(x)-energy with Dirichlet data on the domain boundary.

    ``boundary`` supplies the trace on the topological boundary nodes and
    the initial guess on the interior.  G is the flux data, an (N, d) cell
    field matching the gradient shape.  With ``warm_start`` the interior is
    taken as a near-solution and only the final gamma stage runs; the whole
    schedule would discard it (its gamma = 1 stage moves far from the
    answer).
    """
    opts = opts or SolveOptions()
    if grid is None:
        grid = boundary.grid
    if boundary.grid != grid or G.grid != grid or p.grid != grid:
        raise ValueError("grid mismatch between data, exponent, and boundary")
    p.require_superlinear("solve_pxlaplace")
    N = boundary.codomain_dim
    if G.values.shape != (grid.num_cells, N, grid.dim):
        raise ValueError(f"G must have shape (cells, {N}, {grid.dim})")
    return _minimize(boundary, G, p, opts, warm_start)


def solve_comparison(Qj: Box, u: GridFunction, p_j: float,
                     opts: SolveOptions | None = None) -> SolverResult:
    """Constant-exponent comparison problem on the doubled cube.

    Solves for w with D-energy exponent p_j on the sub-grid induced by 2Qj
    (no re-meshing), with w = u on the sub-grid boundary.  The result's
    field lives on that sub-grid.
    """
    if p_j <= 1.0:
        raise ValueError("comparison exponent must exceed 1")
    opts = opts or SolveOptions()
    sub, node_idx, _ = u.grid.subgrid(Qj.scaled(2.0))
    w0 = GridFunction(sub, u.values[node_idx])
    N = w0.codomain_dim
    G0 = CellField(sub, np.zeros((sub.num_cells, N, sub.dim)))
    p_const = ExponentField.constant(sub, p_j)
    return _minimize(w0, G0, p_const, opts)


def comparison_distance(u: GridFunction, w: GridFunction, Qj: Box,
                        p: ExponentField, params: FluxParams) -> float:
    """mean over 2Qj of (A(x, Du) - A(x, Dw)) : (Du - Dw).

    Nonnegative up to quadrature roundoff by monotonicity of the flux.
    ``w`` must live on the sub-grid of 2Qj extracted from u's grid.
    """
    sub, _, cell_idx = u.grid.subgrid(Qj.scaled(2.0))
    if w.grid != sub:
        raise ValueError("w does not live on the sub-grid of 2Qj")
    du = gradient(u).values[cell_idx]
    dw = gradient(w).values
    q = p.cell_values[cell_idx]
    diff = _flux_batch(du, q, params) - _flux_batch(dw, q, params)
    pairing = np.einsum("cnd,cnd->c", diff, du - dw)
    return float(pairing.mean())


def uhlenbeck_check(w: SolverResult, Qj: Box, p_j: float) -> tuple[float, float, float]:
    """Interior sup bound of the constant-exponent problem.

    Returns (sup over (3/2)Qj of |Dw|, (mean over 2Qj of |Dw|^{p_j})^{1/p_j},
    their ratio).  Affine fields give ratio exactly 1.
    """
    sub = w.u.grid
    dw = gradient(w.u).magnitude()
    mask = Qj.scaled(1.5).contains_points(sub.cell_centers)
    if not mask.any():
        raise ValueError("no cells inside (3/2)Qj")
    sup_inner = float(dw[mask].max())
    mean_term = float((dw**p_j).mean() ** (1.0 / p_j))
    ratio = sup_inner / mean_term if mean_term > 0 else 1.0
    return sup_inner, mean_term, ratio


def _sin_product(x: np.ndarray) -> float:
    return float(np.prod(np.sin(math.pi * np.asarray(x))))


def _sin_product_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    s, c = np.sin(math.pi * x), np.cos(math.pi * x)
    out = np.empty_like(x)
    for k in range(x.size):
        out[k] = math.pi * c[k] * np.prod(np.delete(s, k))
    return out


def _harmonic_separable(dim: int):
    """A separable harmonic function and its gradient (series truncation)."""
    if dim == 1:
        return (lambda x: float(x[0]), lambda x: np.array([1.0]))
    if dim == 2:
        k = math.pi

        def f(x):
            return math.sin(k * x[0]) * math.sinh(k * x[1]) / math.sinh(k)

        def df(x):
            return np.array([
                k * math.cos(k * x[0]) * math.sinh(k * x[1]) / math.sinh(k),
                k * math.sin(k * x[0]) * math.cosh(k * x[1]) / math.sinh(k),
            ])

        return f, df
    k = math.pi
    kz = math.sqrt(2.0) * k

    def f3(x):
        return math.sin(k * x[0]) * math.sin(k * x[1]) * math.sinh(kz * x[2]) / math.sinh(kz)

    def df3(x):
        s0, c0 = math.sin(k * x[0]), math.cos(k * x[0])
        s1, c1 = math.sin(k * x[1]), math.cos(k * x[1])
        sh, ch = math.sinh(kz * x[2]), math.cosh(kz * x[2])
        return np.array([k * c0 * s1 * sh, k * s0 * c1 * sh, kz * s0 * s1 * ch]) / math.sinh(kz)

    return f3, df3


def manufactured_instance(kind: str, grid: Grid, p: ExponentField,
                          ) -> tuple[GridFunction | None, CellField, GridFunction]:
    """Analytic test instances: (u_star, G, boundary).

    matched: u* = product of sin(pi x_k); G samples the analytic gradient
             at cell centers, so u* is the continuum solution for any p.
    linear:  separable harmonic u* (series truncation); with p = 2 the
             discrete solution agrees with a direct linear solve.
    bump:    no u*; G is a localized Gaussian bump along the first axis
             with zero boundary data.
    """
    d = grid.dim
    if kind == "matched":
        u_star = GridFunction.from_function(grid, _sin_product)
        G = CellField(grid, np.stack(
            [_sin_product_grad(x) for x in grid.cell_centers])[:, None, :])
        return u_star, G, u_star
    if kind == "linear":
        f, df = _harmonic_separable(d)
        u_star = GridFunction.from_function(grid, f)
        G = CellField(grid, np.stack([df(x) for x in grid.cell_centers])[:, None, :])
        return u_star, G, u_star
    if kind == "bump":
        c = grid.domain.center
        width = grid.domain.side / 8.0
        vals = np.zeros((grid.num_cells, 1, d))
        r2 = np.sum((grid.cell_centers - c) ** 2, axis=1)
        vals[:, 0, 0] = np.exp(-r2 / width**2)
        G = CellField(grid, vals)
        boundary = GridFunction(grid, np.zeros(grid.num_nodes))
        return None, G, boundary
    raise ValueError(f"unknown manufactured kind: {kind!r}")
