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
Newton system of a solve is factored by a multifrontal Cholesky
factorization (Duff and Reid, ACM TOMS 9, 1983; Liu, SIAM Review 34, 1992)
on a geometric nested-dissection tree of the interior nodes (George, SIAM
J. Numer. Anal. 10, 1973): each front eliminates its block's separator
plane, or the whole block at a leaf, against the block's one-node halo, and
is assembled from the element matrices of its cells and the update
matrices of its children.  The fronts of one dissection depth fall into
shape groups, the fronts with equal pivot and update counts, so no front
is padded.  A front is held as its pivot columns and then the lower
triangle of its update block, both column by column, so an entry's place
is its row plus an offset of its column, and no square frontal matrix is
formed.  The extend-add reads a child's update triangles in place and
sums them in steps of at most _SUM_STEP entries, two gathers and one
np.add.at each, so no index table of a whole triangle is copied.  A group
is factored in batches whose fronts and Schur blocks hold at most _BATCH
entries (or one front), one batched NumPy call per kernel and batch; one
buffer, allocated once per factorization, holds a batch's fronts and its
temporaries.  Each batch's element matrices are formed from the Hessian
coefficients as it is assembled, so the matrices of all cells are never
held at once.  The pivot columns are copied row by row into the front's
solve block, where F21 is read and F11 is overwritten by L11^-1: a pivot
block of more than _CHOLESKY_BLOCK rows is halved recursively in place,
with its temporaries in the batch's workspace, or at the root in the
front's own room, so no pivot block is copied; the Schur product is
formed on the diagonal blocks of the update rows split in two halves and
on the block below them, and taken from the packed triangle, which is then
the update matrix the front passes on; the root, which has no update set,
forms none.  Each group lists its fronts in the order their parents sum
them, by parent group and then parent slot, so each parent batch sums a
run of each child group's update matrices that starts where the last run
ended (Liu, 1992: an update matrix is needed only until its parent has
assembled it).  A depth's update matrices sit in an anonymous mapping of
their own: after each parent batch the whole pages of the runs it summed
go back to the OS, and the mapping is unmapped once the depth above has
summed it all.  On the heap they would stay resident, because glibc keeps
the pages of a freed array.  A depth is solved by one gather, one batched
product per group and one scatter; the tree is built once per solve.
That first factor is reused as a CG preconditioner, refactor on a CG miss:
each later system, across steps and gamma stages, is solved inexactly by
preconditioned CG (Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996;
Kelley, Solving Nonlinear Equations with Newton's Method, 2003, ch. 5),
with the Hessian applied cell by cell on the free dofs, from the same
element coefficients as the factor but without forming the element
matrices.  CG stops at the relative residual
eta = min(_FORCING_MAX, 0.9 (res_k / res_{k-1})^2), the residuals of this
and the previous iterate, and at eta = _FORCING_MAX on the first CG step.
When CG has not met eta within _CG_CAP iterations, or its direction is not
finite, the held factor is dropped and the Hessian is assembled and
factored anew; that factor is held in turn.  The rule reads counts only,
never a clock, so a fixed instance gives the same bytes.  When the Newton
direction is unusable (a pivot block that is not positive definite, a
non-positive or extremely spread diagonal) the step falls back to gradient
descent.

Near J's rounding floor J + c t slope rounds to J and the Armijo test
cannot tell a decrease from noise, so a trial within _ROUNDING_ULPS ulps
of J is accepted only if it lowers the residual by the factor 1 - c t
(J may then rise by those few ulps); without this guard the search
backtracks to steps that change nothing.  Each stage's steps,
fallbacks, backtracks, guard acceptances, factor reuses, CG iterations,
factorization seconds and fill and stop reason are reported in
StageStats.  Convergence means the final stage's residual is at or below
the tolerance; non-convergence is reported, never raised.

A cold solve is a nested iteration (Hackbusch, Multi-Grid Methods and
Applications, 1985) over the grids of _ladder, restricted by _restrict: the
coarsest runs the whole schedule, and each finer level, like a warm call,
starts from the Q1 prolongation of a coarser solution and runs the final
stage only.  The whole schedule would throw that start away, because the
gamma = 1 stage pulls the field far from the answer: on a 128^2 bump
instance with p in [1.3, 3], started from its 64^2 solution, it took 19
Newton steps, as many as a cold start, and the final stage alone took 4.
"""

from __future__ import annotations

import math
import mmap
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exponent import ExponentField
from .grid import CellField, Grid, GridFunction
from .operator import (FluxParams, _ElementMatrices, _energy, _energy_gradient, _flux_batch,
                       _hessian_coefficients, _iterate)

__all__ = [
    "LevelStats",
    "SolverResult",
    "StageStats",
    "solve_pxlaplace",
    "manufactured_instance",
]


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
    spent in Cholesky factorizations, forming the element matrices
    included, and ``fill`` the largest factor's nonzero count, nnz(L): the
    pivot triangle and update rows of each front.
    Every step is a factored step, a reuse or a fallback.
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
class LevelStats:
    """One grid of a solve: its cells, the cells of the grid whose solution
    started it (None when cold), its wall seconds and its gamma stages."""
    cells: tuple[int, ...]
    start: tuple[int, ...] | None
    wall_s: float
    stages: list[StageStats]

    @property
    def iterations(self) -> int:
        return sum(s.steps for s in self.stages)


@dataclass
class SolverResult:
    u: GridFunction  # on the last level's grid
    converged: bool
    energy_history: list[tuple[float, float]]  # (gamma, J), over every level
    levels: list[LevelStats]  # coarsest first
    message: str = ""

    @property
    def stages(self) -> list[StageStats]:
        """The gamma stages of every level, in order."""
        return [s for level in self.levels for s in level.stages]

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


_LEAF = 32  # nodes at or below which a lattice block is not split further
_INVERSE_BLOCK = 16  # order up to which a triangular inverse is one np.linalg.inv
# order up to which a pivot block is factored by np.linalg.cholesky, not halved in place
_CHOLESKY_BLOCK = 4 * _INVERSE_BLOCK
# entries of the fronts and Schur blocks, or of the scatters, formed at once: the
# knee of peak memory against factor time, measured over 2^17 to 2^20 at 128^2
# and 24^3 with square fronts
_BATCH = 1 << 18
_SUM_STEP = _BATCH // 8  # entries of a child's update triangles summed at once
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
_COARSE_CELLS = 8  # least cells per axis of the half grid a cold solve starts on
_NEST_CELLS = 4096  # least cells of a coarse level that halves again (64^2, 16^3)


def _schedule(p_minus: float) -> tuple[float, ...]:
    """The gamma of each stage, floored at _GAMMA_FLOOR when p- < 2."""
    floor = _GAMMA_FLOOR if p_minus < 2.0 else 0.0
    return tuple(max(g, floor) for g in _GAMMA_SCHEDULE)


@dataclass(frozen=True)
class _Dissection:
    """A nested-dissection elimination tree of a box lattice of nodes.

    ``order`` lists the row-major flat node indices in elimination order.
    Front f is the block of nodes [lo[f], hi[f]); it eliminates its
    ``size[f]`` pivots, which sit at ``start[f]`` onwards in the order:
    the separator plane of the block, or every node of a block that is not
    cut.  ``parent`` is -1 at the root.  The fronts of dissection depth k
    are ids first[k] to first[k + 1] - 1, and their parents have depth
    k - 1; the last entry of ``first`` is the front count.
    """
    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    size: np.ndarray
    parent: np.ndarray
    first: tuple[int, ...]


def _dissection(shape: tuple[int, ...]) -> _Dissection:
    """Nested-dissection elimination tree of a box lattice of nodes.

    Each block with more than ``_LEAF`` nodes is cut by its middle plane
    across the longest axis; the two halves come first, each ordered
    recursively, and the separator plane last, so eliminating in this order
    keeps the fill of a nearest-neighbour operator within the separators.
    All blocks of one level are cut at once, as arrays of bounds, each with
    the place in the order where its nodes start; the pivots of each block
    (its separator, or all of it when it is not cut) are then written out
    row-major.
    """
    d = len(shape)
    lo = np.zeros((1, d), dtype=np.intp)
    hi = np.array([shape], dtype=np.intp)
    start = np.zeros(1, dtype=np.intp)
    parent = np.full(1, -1, dtype=np.intp)
    fronts = []  # per level: (lo, hi, pivot lo, pivot hi, pivot start, parent)
    first = [0]
    while lo.size:
        ids = first[-1] + np.arange(len(lo))
        first.append(first[-1] + len(lo))
        sides = hi - lo
        cut = sides.prod(axis=1) > _LEAF
        rows = np.flatnonzero(cut)
        k = sides[rows].argmax(axis=1)  # the first longest axis
        m = lo[rows, k] + sides[rows, k] // 2
        left_hi, right_lo = hi[rows], lo[rows]
        left_hi[np.arange(len(rows)), k], right_lo[np.arange(len(rows)), k] = m, m + 1
        piv_lo, piv_hi, piv_start = lo.copy(), hi.copy(), start.copy()
        piv_lo[rows, k], piv_hi[rows, k] = m, m + 1
        n_left = (left_hi - lo[rows]).prod(axis=1)
        piv_start[rows] += n_left + (hi[rows] - right_lo).prod(axis=1)
        fronts.append((lo, hi, piv_lo, piv_hi, piv_start, parent))
        lo = np.concatenate([lo[rows], right_lo])
        hi = np.concatenate([left_hi, hi[rows]])
        start = np.concatenate([start[rows], start[rows] + n_left])
        parent = np.concatenate([ids[rows], ids[rows]])
        keep = (hi > lo).all(axis=1)  # a side of 2 leaves an empty right half
        lo, hi, start, parent = lo[keep], hi[keep], start[keep], parent[keep]
    lo, hi, piv_lo, piv_hi, piv_start, parent = (np.concatenate(a) for a in zip(*fronts))
    sides = piv_hi - piv_lo
    size = sides.prod(axis=1)
    by_start = np.argsort(piv_start)  # the pivots tile the order end to end
    piece = np.repeat(by_start, size[by_start])
    rank = np.arange(math.prod(shape)) - piv_start[piece]  # row-major rank within the pivots
    order = np.zeros_like(rank)
    stride = 1
    for k in reversed(range(d)):
        side = sides[piece, k]
        order += (piv_lo[piece, k] + rank % side) * stride
        rank //= side
        stride *= shape[k]
    return _Dissection(order, lo, hi, piv_start, size, parent, tuple(first))


def _lower_inverse(L: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The inverses of a stack of lower-triangular matrices, into ``out``,
    by halving: inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].
    NumPy has no triangular solve; this costs a fraction of np.linalg.inv's
    general LU on large fronts."""
    n = L.shape[-1]
    if n <= _INVERSE_BLOCK:
        out[...] = np.linalg.inv(L)
        return out
    h = n // 2
    A = _lower_inverse(L[:, :h, :h], out[:, :h, :h])
    C = _lower_inverse(L[:, h:, h:], out[:, h:, h:])
    out[:, :h, h:] = 0.0
    np.negative(C @ (L[:, h:, :h] @ A), out=out[:, h:, :h])
    return out


def _inverse_cholesky(X: np.ndarray, room: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of each block of a stack X of
    symmetric positive definite matrices, written over X (read from its
    lower triangle) with zeros above the diagonal, by halving: with
    X = [[A, .], [B, C]], A <- L_A^-1, L21 = B L_A^-T, C <- C - L21 L21^T,
    C <- L_C^-1 in turn, and B <- -L_C^-1 L21 L_A^-1.  The temporaries sit
    in ``room``, a flat array of at least len(X) * ceil(n / 2) * n entries
    for blocks of order n, so no block is copied; a block of order
    _CHOLESKY_BLOCK or less is factored by np.linalg.cholesky and inverted
    by _lower_inverse.  Raises LinAlgError when a block is not positive
    definite."""
    nb, n = X.shape[0], X.shape[-1]
    if n <= _CHOLESKY_BLOCK:
        return _lower_inverse(np.linalg.cholesky(X), X)
    h = n // 2
    a = n - h
    A, B, C = X[:, :h, :h], X[:, h:, :h], X[:, h:, h:]
    _inverse_cholesky(A, room)
    L21 = np.matmul(B, A.transpose(0, 2, 1), out=room[:nb * a * h].reshape(nb, a, h))
    rest = room[nb * a * h:]  # the room after L21
    C -= np.matmul(L21, L21.transpose(0, 2, 1), out=rest[:nb * a * a].reshape(nb, a, a))
    _inverse_cholesky(C, rest)
    M = np.matmul(L21, A, out=rest[:nb * a * h].reshape(nb, a, h))
    np.negative(np.matmul(C, M, out=L21), out=B)
    X[:, :h, h:] = 0.0
    return X


@dataclass
class _Group:
    """The fronts of one dissection depth that share a shape: ``p`` pivot
    dofs, then ``u = m - p`` update dofs; the boundary corners of their
    cells point at a dummy place m.  The fronts are listed in the order
    their parents sum them: by the parent's group, then its slot there,
    siblings in tree order.

    ``fronts`` counts them (their pivot and update dofs are in the
    ``_Depth`` tables); ``cells`` are the cells whose element matrices the
    group assembles, ``cell_slot`` the front of each and ``cell_local`` the
    place of each of its dofs in that front, sorted by front.  ``children``
    has, for each group one depth deeper with fronts whose parents are
    here, its index in its depth, those fronts' rows in it (one run), the
    slot of each one's parent here, the place of each of their update dofs
    here and the place in this group's batch of the column of each, sorted
    by parent.

    In a batch a front is ``size`` entries: its p pivot columns of m rows,
    column by column, then the ``tri`` entries of the lower triangle of its
    u x u update block, packed column by column.  Entry (r, c), r >= c,
    sits at r + col[c].
    """
    p: int
    m: int
    fronts: int
    cells: np.ndarray
    cell_slot: np.ndarray
    cell_local: np.ndarray
    children: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list)

    @property
    def tri(self) -> int:
        return (self.m - self.p) * (self.m - self.p + 1) // 2

    @property
    def size(self) -> int:
        return self.m * self.p + self.tri

    @property
    def schur(self) -> int:
        """Entries of a front's Schur blocks, h x h and (u - h) x u, h = u // 2."""
        u = self.m - self.p
        return (u // 2) ** 2 + (u - u // 2) * u

    @cached_property
    def col(self) -> np.ndarray:
        """int32 ``col``, 0 at the dummy m."""
        p, m = self.p, self.m
        c = np.arange(m + 1)
        t = c - p  # the column in the update triangle
        col = np.where(c < p, c * m, m * p + t * (m - p) - t * (t - 1) // 2 - c)
        col[m] = 0
        return col.astype(np.int32)

    @cached_property
    def front_cells(self) -> int:
        """The most cells any one front assembles."""
        return int(np.bincount(self.cell_slot).max()) if len(self.cells) else 0

    @property
    def batch(self) -> int:
        """Fronts factored at once: _BATCH over a front's entries and its
        Schur blocks', or one."""
        return max(1, _BATCH // (self.size + self.schur))

    @property
    def workspace(self) -> int:
        """The entries a batch writes past its fronts: the int32 places and
        bool mask of its cells' element entries, the two int32 index
        arrays of one extend-add step (``_extend_add``), and F11^-1 or the
        Schur blocks, whose room the pivot blocks' temporaries
        (``_inverse_cholesky``) use first."""
        p, u, b = self.p, self.m - self.p, min(self.batch, self.fronts)
        cells = b * self.cell_local.shape[1] ** 2 * self.front_cells
        need = [(cells * 5 + 7) // 8, b * max(p * p, self.schur) if u else 0]
        for _, rows, _, local, _ in self.children:
            tri = local.shape[1] * (local.shape[1] + 1) // 2  # a child's packed update entries
            need.append(min(len(rows), max(1, _SUM_STEP // tri)) * min(tri, _SUM_STEP))
        return max(need)


@dataclass
class _Depth:
    """The fronts of one dissection depth, in shape groups.  ``piv`` lists
    the groups' pivot dofs and ``var`` their pivot and update dofs, front
    by front, one group after the other, so the solve gathers and scatters
    a depth at once; they are the only tables of a front's dofs."""
    groups: list[_Group]
    piv: np.ndarray
    var: np.ndarray


class _Elimination:
    """The multifrontal Cholesky factorization of the free-dof Hessian of a
    grid, set up once per solve (Liu, SIAM Review 34, 1992).

    The free dofs are eliminated in the nested-dissection order of the
    interior nodes (``sel`` maps that order to the nodal dofs).  Front f of
    the tree eliminates its pivots; its update set is its one-node halo of
    free nodes, all of them eliminated later by its ancestors.  Each cell's
    element matrix is assembled into the front that eliminates the cell's
    first free corner, whose pivots and halo hold every free corner of the
    cell.  The fronts are factored one dissection depth at a time, deepest
    first, and within a depth one shape group at a time, so each NumPy call
    covers every front of a group and no front is padded.
    """

    def __init__(self, grid: Grid, N: int):
        interior = tuple(n - 2 for n in grid.nodes_per_axis)
        tree = _dissection(interior)
        n = tree.order.size
        self.n = n * N
        self.sel = np.flatnonzero(np.repeat(~grid.boundary_node_mask, N))[
            (tree.order[:, None] * N + np.arange(N)).reshape(-1)]
        pos = np.full(grid.nodes_per_axis, n)  # elimination position, n off the interior
        pos[(slice(1, -1),) * grid.dim] = np.argsort(tree.order).reshape(interior)

        def place(depth: tuple, row: np.ndarray, q: np.ndarray) -> np.ndarray:
            """Node index of elimination position q among the variables of
            front ``row`` of a depth, given as its fronts' pivot starts,
            sizes and halos: its pivot rank, or the front's pivot count
            plus its halo rank."""
            start, size, halo = depth[:3]
            piv = q - start[row]
            keyed = halo + (n + 1) * np.arange(len(halo))[:, None]  # sorted when flattened
            rank = np.searchsorted(keyed.reshape(-1), q + (n + 1) * row) - halo.shape[1] * row
            return np.where((piv >= 0) & (piv < size[row]), piv, size[row] + rank)

        def dofs(nodes: np.ndarray, missing: int = 0) -> np.ndarray:
            """The N dofs of each node, ``missing`` for nodes that are n."""
            d = np.where(nodes[..., None] < n, nodes[..., None] * N + np.arange(N), missing)
            return d.reshape(*nodes.shape[:-1], nodes.shape[-1] * N)

        corners = pos.reshape(-1)[grid.cell_corner_indices]  # (cells, 2^d)
        by_start = np.argsort(tree.start)  # the front that eliminates each cell's first corner:
        owner = by_start[np.searchsorted(tree.start[by_start], corners.min(axis=1), "right") - 1]
        self.element_dofs = dofs(corners, self.n)

        self.depths, self.nnz = [], 0
        above = None  # (pivot starts, sizes, halos, groups, slots) of the fronts one depth up
        for a, b in zip(tree.first, tree.first[1:]):  # root first
            start, size, halo = tree.start[a:b], tree.size[a:b], self._halos(pos, n, tree, a, b)
            count = (halo < n).sum(axis=1)
            self.nnz += int(np.sum(size * N * (size * N + 1) // 2 + count * N * size * N))
            shapes = sorted(set(zip(size.tolist(), count.tolist())))
            order = np.arange(b - a)  # the fronts in the order their parents sum them
            if above is not None:
                up_group, up_slot = above[3:]
                up = tree.parent[a:b] - (a - len(up_group))  # each front's row in the depth above
                order = np.lexsort((up_slot[up], up_group[up]))  # stable: siblings keep their order
            members = [order[(size[order] == P) & (count[order] == C)] for P, C in shapes]
            group, slot = np.empty(b - a, dtype=np.intp), np.empty(b - a, dtype=np.intp)
            for k, rows in enumerate(members):
                group[rows], slot[rows] = k, np.arange(len(rows))
            cells = np.flatnonzero((owner >= a) & (owner < b))
            groups, piv, var = [], [], []  # per group its (fronts, p) and (fronts, m) dofs
            for k, ((P, C), rows) in enumerate(zip(shapes, members)):
                p, m = P * N, (P + C) * N
                mine = cells[group[owner[cells] - a] == k]
                mine = mine[np.argsort(slot[owner[mine] - a], kind="stable")]  # front by front
                node = place((start, size, halo), np.repeat(owner[mine] - a, corners.shape[1]),
                             corners[mine].reshape(-1)).reshape(corners[mine].shape)
                local = dofs(np.where(corners[mine] < n, node, n), m).astype(np.int32)
                upd = halo[rows, :C]
                piv.append(dofs(start[rows, None] + np.arange(P)))
                var.append(np.concatenate([piv[-1], dofs(upd)], axis=1))
                groups.append(_Group(p, m, len(rows), mine, slot[owner[mine] - a].astype(np.int32),
                                     local))
                if above is not None:  # these fronts' update matrices go to the depth above
                    up_row = up[rows]
                    node = place(above, np.repeat(up_row, C), upd.reshape(-1)).reshape(upd.shape)
                    local = dofs(node).astype(np.int32)
                    for j in sorted(set(up_group[up_row].tolist())):
                        there = np.flatnonzero(up_group[up_row] == j)  # one run, by parent slot
                        parent = self.depths[-1].groups[j]
                        to = up_slot[up_row[there]].astype(np.int32)
                        column = parent.col[local[there]] + to[:, None] * parent.size
                        parent.children.append((k, there, to, local[there], column))
            self.depths.append(_Depth(groups, np.concatenate(piv, axis=None),
                                      np.concatenate(var, axis=None)))
            above = start, size, halo, group, slot
        self.depths.reverse()  # deepest first

    @staticmethod
    def _halos(pos: np.ndarray, n: int, tree: _Dissection, a: int, b: int) -> np.ndarray:
        """The sorted elimination positions of the free one-node halo of
        fronts a to b - 1, padded with n to rows of equal length: those of
        each block grown by one node per side, less the block's own range
        [start + size - volume, start + size)."""
        lo, span = tree.lo[a:b], tree.hi[a:b] - tree.lo[a:b] + 2  # node coordinates
        stride = [math.prod(pos.shape[k + 1:]) for k in range(pos.ndim)]
        at, inside = (lo @ stride).reshape((-1,) + (1,) * pos.ndim), True  # flat node index
        for k, w in enumerate(span.max(axis=0)):
            r = np.arange(w).reshape((-1,) + (1,) * (pos.ndim - 1 - k))
            at = at + r * stride[k]
            inside = inside & (r < span[:, k].reshape((-1,) + (1,) * pos.ndim))
        q = pos.reshape(-1)[at * inside].reshape(len(lo), -1)  # node 0 is off the interior
        end = (tree.start[a:b] + tree.size[a:b])[:, None]
        q[(q < end) & (q >= end - (span - 2).prod(axis=1)[:, None])] = n
        q.sort(axis=1)
        return q[:, :max(int((q < n).sum(axis=1).max()), 1)]

    def _sum_cells(self, values: np.ndarray) -> np.ndarray:
        """Per-cell ``values`` at ``element_dofs`` summed into a vector in
        elimination order; the entries of boundary dofs drop out."""
        return np.bincount(self.element_dofs.reshape(-1), values.reshape(-1),
                           minlength=self.n + 1)[:self.n]

    def diagonal(self, E) -> np.ndarray:
        """The diagonal of the free-dof Hessian in elimination order, from
        element matrices E: an array or ``operator._ElementMatrices``."""
        return self._sum_cells(E.diagonal(axis1=1, axis2=2))

    def matvec(self, C: np.ndarray, w: np.ndarray, s1: np.ndarray, s2: np.ndarray):
        """The map x -> H x for the free-dof Hessian H whose element
        matrices are s1 C + s2 w w^T (``operator._hessian_coefficients``),
        x and H x in elimination order, without forming the matrices.  It
        holds two (cells, 2^dim N) arrays at once: the rank-one term is
        written into the room of the gathered x once C has read it."""
        xe = np.zeros(self.n + 1)  # xe[n] stays 0: boundary dofs read it

        def apply(x: np.ndarray) -> np.ndarray:
            xe[:self.n] = x
            x_cell = xe[self.element_dofs]
            t = s2 * np.einsum("ci,ci->c", x_cell, w)
            y = x_cell @ C
            y *= s1[:, None]
            y += np.multiply(t[:, None], w, out=x_cell)
            return self._sum_cells(y)

        return apply

    def factor(self, E) -> "_Factor":
        """Factor the sum of the element matrices E over the free dofs; E is
        read one batch of cells at a time, as ``E[cells]``.  Raises
        LinAlgError when a front's pivot block is not positive definite.
        Each group hands its update matrices, lower triangles packed column
        by column, with the row and column of each packed entry, to the
        groups one depth up.  A depth's blocks W sit in one buffer, and its
        update triangles in one mapping of their own (``_Stack``): the
        depth above hands their pages back as its batches sum them and
        drops the mapping once its last batch has.  A group is factored
        ``_Group.batch`` fronts at a time; one
        buffer, allocated once per factorization, holds the batch's fronts
        and then its workspace: the index arrays, the pivot blocks'
        temporaries, F11^-1 and the Schur blocks."""
        buffer = np.empty(max(min(g.batch, g.fronts) * g.size + 1 + g.workspace
                              for d in self.depths for g in d.groups))
        # below: per group one depth down, (updates, (rows, columns), stack, first entry in it)
        blocks, below = [], None
        for depth in self.depths:
            here, last = [], depth.groups[-1]
            held = np.empty(sum(g.fronts * g.m * g.p for g in depth.groups))
            stack, at = _Stack(sum(g.fronts * g.tri for g in depth.groups)), 0
            for g in depth.groups:
                nf, p, m, u = g.fronts, g.p, g.m, g.m - g.p
                W, held = held[:nf * m * p].reshape(nf, m, p), held[nf * m * p:]
                U = stack.values[at:at + nf * g.tri].reshape(nf, g.tri)
                tri = _tril(u)
                # the Schur blocks, rows [0, h) x [0, h) and [h, u) x [0, u) for h = u // 2,
                # one after the other: the place in them of each packed entry
                r, h = np.arange(u), u // 2
                schur = np.where(r < h, r * h, r * u - h * (u - h))[tri[0]] + tri[1]
                for f in range(0, nf, g.batch):
                    s = slice(f, min(f + g.batch, nf))
                    n = (s.stop - s.start) * g.size + 1  # the fronts and one junk entry
                    F, work = buffer[:n], buffer[n:]
                    self._assemble(g, s, E, below, F, work)
                    if g is last and s.stop == nf:  # summed in full: dropped before the last
                        below = None  # elimination
                    self._eliminate(g, F[:-1].reshape(-1, g.size), W[s], U[s] if u else None,
                                    schur, work)
                blocks.append(W)
                here.append((U, tri, stack, at))
                at += nf * g.tri
                del schur  # before the next group's table is built
            below = here
        return _Factor(self, blocks)

    @staticmethod
    def _assemble(g: _Group, s: slice, E, below: list, F: np.ndarray, work: np.ndarray) -> None:
        """Into F the fronts ``s`` of a group, laid out as ``_Group`` says,
        and one junk entry: their cells' element matrices plus their
        children's update triangles, from ``below`` (extend-add).  Only
        lower triangles are summed: a child's variables keep their order
        among the parent's, so its triangle lands in the parent's, and an
        element entry above the diagonal, or in the row or column of a
        boundary dof, goes to the junk entry.  ``work`` holds the index
        arrays.  The children's rows run in the order their parents sum
        them, so the update triangles this batch sums from a child group are
        a slice of its rows (``_extend_add``); once they are summed, all of
        that group's rows up to the slice's end are, and their whole pages
        go back to the OS."""
        m, size, col = g.m, g.size, g.col
        junk = len(F) - 1
        F[:] = 0.0
        # int32 places: a batch holds at most max(_BATCH, g.size) + 1 entries
        lo, hi = np.searchsorted(g.cell_slot, (s.start, s.stop))
        if hi > lo:
            local = g.cell_local[lo:hi]
            n = local.size * local.shape[1]
            column = col[local] + ((g.cell_slot[lo:hi] - s.start) * size)[:, None]
            at = work.view(np.int32)[:n].reshape(*local.shape, -1)
            np.add(local[:, :, None], column[:, None, :], out=at)
            upper = work.view(np.bool_)[4 * n:5 * n].reshape(at.shape)
            row = np.where(local < m, local, -1)  # no entry lies in a boundary dof's row
            np.less(row[:, :, None], local[:, None, :], out=upper)
            np.copyto(at, junk, where=upper)
            np.add.at(F, at.reshape(-1), E[g.cells[lo:hi]].reshape(-1))
        for j, rows, slot, local, column in g.children:
            U, (i, k), stack, first = below[j]
            lo, hi = np.searchsorted(slot, (s.start, s.stop))
            if hi == lo:
                continue
            _extend_add(F, U[rows[lo]:rows[hi - 1] + 1], local[lo:hi],
                        column[lo:hi] - s.start * size, i, k, work.view(np.int32))
            # the group's rows before rows[lo] were summed by earlier batches
            stack.release(first, first + rows[lo] * len(i), first + (rows[hi - 1] + 1) * len(i))

    @staticmethod
    def _eliminate(g: _Group, F: np.ndarray, W: np.ndarray, U: np.ndarray | None,
                   schur: np.ndarray, work: np.ndarray) -> None:
        """Partial Cholesky factorization of a batch of fronts F of a group:
        into W the solve blocks [L11^-1; -L21 L11^-1], and into U, when
        given, the packed lower triangles of the update matrices
        F22 - L21 L21^T.  The pivot columns are copied into W row by row
        first, for F11 and F21, and F11 is overwritten there by L11^-1
        (``_inverse_cholesky``), whose temporaries sit in ``work``, or at
        the root in the fronts' own room, dead once copied.  With the
        update rows split in two halves,
        the product K F21^T (K = L21 L11^-1, formed in the pivot columns'
        room) is formed on the two diagonal blocks and the block below
        them, in ``work``, and subtracted from the assembled triangle at
        its entries' places ``schur`` there.  Without U (the root, which has
        no update set) neither F11^-1 nor K is formed."""
        p, m, nb = g.p, g.m, len(F)
        np.copyto(W, F[:, :m * p].reshape(nb, p, m).transpose(0, 2, 1))
        L_inv = _inverse_cholesky(W[:, :p], work if U is not None else F.reshape(-1))
        if U is None:
            return
        u, h = m - p, (m - p) // 2
        F21 = W[:, p:]
        F11_inv = work[:nb * p * p].reshape(nb, p, p)
        np.matmul(L_inv.transpose(0, 2, 1), L_inv, out=F11_inv)
        K = np.matmul(F21, F11_inv, out=F[:, :u * p].reshape(nb, u, p))  # L21 L11^-1 = F21 F11^-1
        S = work[:nb * g.schur].reshape(nb, -1)
        np.matmul(K[:, :h], F21[:, :h].transpose(0, 2, 1), out=S[:, :h * h].reshape(nb, h, h))
        np.matmul(K[:, h:], F21.transpose(0, 2, 1), out=S[:, h * h:].reshape(nb, u - h, u))
        np.negative(K, out=F21)
        np.take(S, schur, axis=1, out=U, mode="clip")  # in range: unbuffered
        np.subtract(F[:, m * p:], U, out=U)


def _tril(u: int) -> tuple[np.ndarray, np.ndarray]:
    """The int32 rows and columns of the lower triangle of a u x u matrix,
    column by column."""
    k = np.repeat(np.arange(u, dtype=np.int32), np.arange(u, 0, -1))
    return np.arange(len(k), dtype=np.int32) - k * (2 * u - k - 1) // 2, k


def _extend_add(F: np.ndarray, U: np.ndarray, local: np.ndarray, column: np.ndarray,
                i: np.ndarray, k: np.ndarray, work: np.ndarray) -> None:
    """Add the packed update triangles U (fronts, tri) of a run of one
    child group's fronts into F: entry q of front f goes to
    local[f, i[q]] + column[f, k[q]].  The entries are added in their
    order, in steps of at most _SUM_STEP entries: whole triangles, or one
    part of one triangle, so each step's int32 places, and their intp
    copies that NumPy makes to index, take at most _SUM_STEP entries.  The
    places sit in ``work``, int32, and U is read in place."""
    fronts, tri = U.shape
    per, part = max(1, _SUM_STEP // tri), min(tri, _SUM_STEP)
    for f in range(0, fronts, per):
        for q in range(0, tri, part):
            rows, cols = slice(f, f + per), slice(q, q + part)
            nr, nq = min(per, fronts - f), min(part, tri - q)
            at, by = work[:2 * nr * nq].reshape(2, nr, nq)
            np.take(local[rows], i[cols], axis=1, out=at, mode="clip")  # in range: unbuffered
            at += np.take(column[rows], k[cols], axis=1, out=by, mode="clip")
            np.add.at(F, at.reshape(-1), U[rows, cols].reshape(-1))  # a view: rows or one part


class _Stack:
    """``entries`` float64 ``values`` in a private anonymous mapping of
    their own, so that the pages handed back leave the process: glibc
    keeps the pages of a freed heap array.  The mapping is unmapped once
    the stack and every view of ``values`` are gone."""

    def __init__(self, entries: int):
        self._map = mmap.mmap(-1, 8 * max(entries, 1), flags=mmap.MAP_PRIVATE)
        self.values = np.frombuffer(self._map, count=entries)

    def release(self, first: int, start: int, stop: int) -> None:
        """Hand back to the OS the whole pages of entries [first, stop),
        all summed and never read again, that hold an entry of
        [start, stop); the pages of [first, start) went with earlier calls.
        A page handed back reads as zeros.  Where mmap has no madvise,
        nothing is handed back."""
        if not hasattr(mmap, "MADV_DONTNEED"):
            return
        page = mmap.PAGESIZE // 8
        lo, hi = max(-(-first // page), start // page) * page, stop // page * page
        if hi > lo:
            self._map.madvise(mmap.MADV_DONTNEED, 8 * lo, 8 * (hi - lo))


class _Factor:
    """L L^T of the free-dof Hessian, front by front: for each group the
    stack W = [L11^-1; -L21 L11^-1], so each triangular solve takes one
    gather, one batched product per group and one scatter per depth."""

    def __init__(self, elim: _Elimination, blocks: list[np.ndarray]):
        self.blocks = blocks
        # each depth's pivot and variable values, front by front, as views per group
        xp = np.empty(max(d.piv.size for d in elim.depths))
        xv = np.empty(max(d.var.size for d in elim.depths))
        self._depths, held = [], iter(blocks)
        for d in elim.depths:
            views, i, j = [], 0, 0
            for g in d.groups:
                W, nf = next(held), g.fronts
                p, v = xp[i:i + nf * g.p], xv[j:j + nf * g.m]
                views.append((W, p.reshape(nf, g.p, 1), v.reshape(nf, g.m, 1),
                              p.reshape(nf, 1, g.p), v.reshape(nf, 1, g.m)))
                i, j = i + nf * g.p, j + nf * g.m
            self._depths.append((d.piv, d.var, xp[:i], xv[:j], views))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(L L^T)^-1 b, b in elimination order."""
        x = np.array(b, dtype=float)
        for piv, var, xp, xv, views in self._depths:
            xp[:] = x[piv]
            for W, p, v, _, _ in views:
                np.matmul(W, p, v)
            x[piv] = 0.0  # replaced by the fronts' pivot values, summed in below
            np.add.at(x, var, xv)
        for piv, var, xp, xv, views in reversed(self._depths):
            xv[:] = x[var]
            for W, _, _, p, v in views:
                np.matmul(v, W, p)
            x[piv] = xp
        return x


def _free_solve(elim: _Elimination, E, g_free: np.ndarray, stage: StageStats):
    """The Cholesky factor of the free-dof Hessian, summed from the element
    matrices E (an array or ``operator._ElementMatrices``), and the Newton
    direction from it; None when the factorization is not trustworthy: a
    non-positive diagonal, a diagonal spread above _CONDITION_CAP, a pivot
    block that is not positive definite, or a direction that is not
    finite.  The factorization's time and its nonzero count are added to
    ``stage``.
    """
    diag = elim.diagonal(E)
    if diag.min() <= 0.0 or diag.max() / diag.min() > _CONDITION_CAP:
        return None
    start = time.perf_counter()
    try:
        factor = elim.factor(E)
    except np.linalg.LinAlgError:
        return None
    finally:
        stage.factor_s += time.perf_counter() - start
    stage.fill = max(stage.fill, elim.nnz)
    d = factor.solve(-g_free)
    if not np.all(np.isfinite(d)):
        return None
    return factor, d


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by einsum: numpy's BLAS dot can spread long vectors over
    threads, which costs more than it saves at these sizes."""
    return float(np.einsum("i,i->", x, y))


def _cg_solve(factor, matvec, g_free: np.ndarray, eta: float,
              stage: StageStats) -> np.ndarray | None:
    """Inexact Newton direction: CG on the free-dof Hessian ``matvec``,
    preconditioned by the held ``factor``, from zero to relative
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
        z = factor.solve(r)
        rho, previous = _dot(r, z), rho
        s = z if s is None else z + (rho / previous) * s
        q = matvec(s)
        alpha = rho / _dot(s, q)
        x += alpha * s
        r -= alpha * q
        stage.cg_iterations += 1
    return None


def solve_pxlaplace(G: CellField, p: ExponentField, boundary: GridFunction, *,
                    tolerance: float = 1e-8, max_iterations: int = 200,
                    coarse: GridFunction | None = None) -> SolverResult:
    """Minimize the p(x)-energy with Dirichlet data on the domain boundary.

    ``boundary`` supplies the trace on the topological boundary nodes and
    the initial guess on the interior; G, p and boundary must share a grid.
    G is the flux data, an (N, d) cell field matching the gradient shape.
    The final gamma stage stops at residual ``tolerance``, and every stage
    after ``max_iterations`` Newton steps.
    A cold call solves the ladder of grids (module docstring).  Given
    ``coarse``, a solution on this grid or a coarser nested grid of its
    domain, only the final gamma stage runs, from its prolongation.  The
    result has one LevelStats per level solved, coarsest first; a level
    that misses the tolerance ends the ladder, and ``u`` is its field.  No
    coarser level's field outlives its prolongation.
    """
    grid = boundary.grid
    if G.grid != grid or p.grid != grid:
        raise ValueError("grid mismatch between data, exponent, and boundary")
    p.require_superlinear("solve_pxlaplace")
    N = boundary.codomain_dim
    if G.values.shape != (grid.num_cells, N, grid.dim):
        raise ValueError(f"G must have shape (cells, {N}, {grid.dim})")
    if coarse is not None and (coarse.grid.domain != grid.domain or coarse.codomain_dim != N):
        raise ValueError("coarse must be a field on the domain and codomain of boundary")
    ladder = [(G, p, boundary)]  # finest first
    if coarse is None:
        for _ in _ladder(grid.cells)[1:]:
            ladder.append(_restrict(*ladder[-1]))
    levels, history = [], []
    while ladder:
        Gl, pl, bl = ladder.pop()
        start = None if coarse is None else coarse.grid.cells
        if coarse is not None:
            # the level's node coordinates are computed, not cached on its
            # grid, so they stay out of its solve's peak memory (0.4 MB at 128^2)
            guess = coarse.grid.interpolate(coarse.values, Grid.node_coords.func(Gl.grid))
            mask = Gl.grid.boundary_node_mask
            guess[mask] = bl.values[mask]
            bl = GridFunction(Gl.grid, guess)
            coarse = res = None  # drop the coarser level before this solve
        res = _solve_level(Gl, pl, bl, tolerance, max_iterations, final_only=start is not None)
        res.levels[0].start = start
        levels += res.levels
        history += res.energy_history
        if not res.converged:
            break
        coarse = res.u
    return SolverResult(res.u, res.converged, history, levels, res.message)


def _restrict(G: CellField, p: ExponentField, boundary: GridFunction):
    """The instance on the half-resolution nested grid, by one route for
    every instance kind: nodal p and boundary values by injection (coarse
    nodes are fine nodes), G as the mean of each coarse cell's 2^d
    children.  Returns (G, p, boundary) there; cell counts must be even."""
    fine = G.grid
    grid = Grid(fine.dim, fine.origin, fine.extent, tuple(c // 2 for c in fine.cells))
    even = (slice(None, None, 2),) * fine.dim

    def inject(values: np.ndarray) -> np.ndarray:
        tail = values.shape[1:]
        return values.reshape(fine.nodes_per_axis + tail)[even].reshape(grid.num_nodes, *tail)

    shape = G.component_shape
    children = G.values.reshape(sum(((c, 2) for c in grid.cells), ()) + shape)
    Gc = children.mean(axis=tuple(range(1, 2 * fine.dim, 2))).reshape(grid.num_cells, *shape)
    return (CellField(grid, Gc), ExponentField(GridFunction(grid, inject(p.values))),
            GridFunction(grid, inject(boundary.values)))


def _ladder(cells: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cell counts of the levels a cold solve of ``cells`` runs, coarsest
    first.  A grid halves while its cell counts are all even and at least
    2 * _COARSE_CELLS: the requested grid whenever it can, a coarse level
    only while it has at least _NEST_CELLS cells (below that, the extra
    level cost more than it saved on the benchmark workloads)."""
    ladder = [tuple(cells)]
    while (all(c % 2 == 0 and c >= 2 * _COARSE_CELLS for c in ladder[-1])
           and (len(ladder) == 1 or int(np.prod(ladder[-1])) >= _NEST_CELLS)):
        ladder.append(tuple(c // 2 for c in ladder[-1]))
    return ladder[::-1]


def _solve_level(G: CellField, p: ExponentField, boundary: GridFunction,
                 tolerance: float, max_iterations: int, final_only: bool) -> SolverResult:
    """One grid's solve from ``boundary``'s interior, through the whole
    gamma schedule or, when ``final_only``, its final stage; one level,
    marked cold.  The elimination tree of the interior nodes is built once
    per call; the held factor lives for this call only, and at most one
    factor is alive at a time."""
    t0 = time.perf_counter()
    grid = boundary.grid
    elim = _Elimination(grid, boundary.codomain_dim)
    sel = elim.sel
    u = boundary.values.copy()
    history: list[tuple[float, float]] = []
    stages: list[StageStats] = []
    message = ""
    schedule = _schedule(p.p_minus)
    if final_only:
        schedule = schedule[-1:]

    def free_gradient(it, ag: np.ndarray, params: FluxParams) -> tuple[np.ndarray, float]:
        """Energy gradient on the free dofs in elimination order, and its sup-norm."""
        g = _energy_gradient(it, ag, p, params).reshape(-1)[sel]
        return g, float(np.abs(g).max()) if g.size else 0.0

    held = None  # the held factor, reused as the CG preconditioner
    previous = math.inf  # the residual one step back
    cg_taken = False  # the first CG step runs at eta = _FORCING_MAX
    it = None  # Du and |Du| of u, taken once per field
    for k, gam in enumerate(schedule):
        params = FluxParams(gam)
        ag = _flux_batch(G.values, p.cell_values, params)  # A(x, G) of this stage
        if it is None:  # the first stage, or a stage after a stall
            it = _iterate(GridFunction(grid, u))
        J = _energy(it, ag, p, params)
        history.append((gam, J))
        g_free, res = free_gradient(it, ag, params)
        last = k == len(schedule) - 1
        target = tolerance if last else max(tolerance, _STAGE_REDUCTION * res)
        stage = StageStats(gam)
        stages.append(stage)
        while True:
            if res <= target:
                stage.reason = "tolerance" if res <= tolerance else "reduction"
                break
            if stage.steps >= max_iterations:
                stage.reason = "cap"
                break
            # one set of coefficients for CG and, on a miss, the refactor
            # Du is not read again at u: it is dropped before the factor is formed
            coefficients, it = _hessian_coefficients(it, p, params), None
            d = None
            if held is not None:
                eta = (min(_FORCING_MAX, _FORCING_SCALE * (res / previous) ** 2)
                       if cg_taken else _FORCING_MAX)
                cg_taken = True
                d = _cg_solve(held, elim.matvec(*coefficients), g_free, eta, stage)
                if d is None:
                    held = None  # dropped before the next factor is made
            reused = d is not None
            if not reused:
                held, d = _free_solve(elim, _ElementMatrices(*coefficients),
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
                trial_it = _iterate(GridFunction(grid, trial))
                Jt = _energy(trial_it, ag, p, params)
                if Jt <= J + _BACKTRACK_SLOPE * t * slope:
                    step = trial, trial_it, Jt, free_gradient(trial_it, ag, params)
                    break
                if abs(Jt - J) <= _ROUNDING_ULPS * np.spacing(abs(J)):
                    # J cannot resolve this trial: demand a residual decrease
                    grad = free_gradient(trial_it, ag, params)
                    if grad[1] < (1.0 - _BACKTRACK_SLOPE * t) * res:
                        stage.guarded += 1
                        step = trial, trial_it, Jt, grad
                        break
                stage.backtracks += 1
                t *= _BACKTRACK_SHRINK
            if step is None:
                stage.reason = "stall"
                message = f"line search stalled at gamma={gam:g}"
                break
            previous = res
            u, it, J, (g_free, res) = step
            del step, trial_it  # ``it`` alone holds Du of u, so that dropping it frees it
            history.append((gam, J))
        stage.residual = res

    converged = res <= tolerance
    if not converged and not message:
        message = f"residual {res:.3e} above tolerance {tolerance:g}"
    level = LevelStats(grid.cells, None, time.perf_counter() - t0, stages)
    return SolverResult(GridFunction(grid, u), converged, history, [level], message)


def _separable(grid: Grid, factors) -> tuple[GridFunction, CellField]:
    """u* = prod_k f_k(x_k) at the nodes and its gradient at the cell
    centers, d_k u* = f_k'(x_k) prod_{j != k} f_j(x_j), from one pair
    (f_k, f_k') of vectorized one-axis functions per axis.  Each product
    runs in axis order."""
    u = math.prod(f(x) for (f, _), x in zip(factors, grid.node_coords.T))
    X = grid.cell_centers.T
    vals = [f(x) for (f, _), x in zip(factors, X)]
    grad = [df(x) * math.prod(vals[:k] + vals[k + 1:])
            for k, ((_, df), x) in enumerate(zip(factors, X))]
    return GridFunction(grid, u), CellField(grid, np.stack(grad, axis=-1)[:, None, :])


def manufactured_instance(kind: str, grid: Grid,
                          ) -> tuple[GridFunction | None, CellField, GridFunction]:
    """Analytic test instances: (u_star, G, boundary).  The boundary field
    carries the trace of u* (zero for bump) and a zero interior, so a solve
    from it starts cold, never at the answer.

    matched: u* = product of sin(pi x_k); G samples the analytic gradient
             at cell centers, so u* is the continuum solution for any p.
    linear:  separable harmonic u*: x in 1-D; else sin(pi x_k) on every
             axis but the last and sinh(kappa x)/sinh(kappa) on the last,
             kappa = pi sqrt(dim - 1).  With p = 2 the discrete solution
             agrees with a direct linear solve.
    bump:    no u*; G is a localized Gaussian bump along the first axis
             with zero boundary data.
    """
    d = grid.dim
    if kind == "bump":
        c = grid.domain.center
        width = grid.domain.side / 8.0
        vals = np.zeros((grid.num_cells, 1, d))
        r2 = np.sum((grid.cell_centers - c) ** 2, axis=1)
        vals[:, 0, 0] = np.exp(-r2 / width**2)
        G = CellField(grid, vals)
        boundary = GridFunction(grid, np.zeros(grid.num_nodes))
        return None, G, boundary
    sine = (lambda x: np.sin(math.pi * x), lambda x: math.pi * np.cos(math.pi * x))
    if kind == "matched":
        factors = [sine] * d
    elif kind == "linear" and d == 1:
        factors = [(lambda x: x, np.ones_like)]
    elif kind == "linear":
        k = math.sqrt(d - 1) * math.pi
        factors = [sine] * (d - 1) + [(lambda x: np.sinh(k * x) / math.sinh(k),
                                       lambda x: k * np.cosh(k * x) / math.sinh(k))]
    else:
        raise ValueError(f"unknown manufactured kind: {kind!r}")
    u_star, G = _separable(grid, factors)
    mask = grid.boundary_node_mask[:, None]
    return u_star, G, GridFunction(grid, np.where(mask, u_star.values, 0.0))
