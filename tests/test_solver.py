"""Energy minimization: the variable-exponent solve, its elimination and
CG linear algebra, nested warm starts, and the manufactured instances."""

import math
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu, spsolve

from varexp import solver
from varexp.exponent import ExponentField
from varexp.grid import CellField, Grid, GridFunction, gradient
from varexp.operator import (FluxParams, _ElementMatrices, _hessian_coefficients, _iterate,
                             energy_gradient, energy_hessian)
from varexp.solver import (
    _dissection,
    _free_solve,
    manufactured_instance,
    solve_pxlaplace,
)

from conftest import assembled_hessian, constant_exponent, constriction


def test_schedule_floor_below_two(monkeypatch):
    assert solver._schedule(2.5)[-1] == 0.0
    assert solver._schedule(1.5)[-1] == solver._GAMMA_FLOOR
    monkeypatch.setattr(solver, "_GAMMA_SCHEDULE", (1.0, 0.0))
    assert solver._schedule(3.0) == (1.0, 0.0)


def test_matched_recovery(matched32):
    res = matched32["result"]
    assert res.converged
    assert res.residual <= 1e-8
    err = np.abs(res.u.values - matched32["u_star"].values).max()
    assert err < 0.05  # discretization error at 32^2, refined case tested in acceptance


def test_energy_history_decreases_within_stage(matched32):
    hist = matched32["result"].energy_history
    assert len(hist) >= 2
    for (g1, j1), (g2, j2) in zip(hist, hist[1:]):
        if g1 == g2:  # line search guarantees descent inside a stage
            assert j2 <= j1 + 1e-12


def test_p2_matches_independent_linear_solve():
    # with p = 2 the energy is quadratic: assemble the normal equations
    # densely from the per-cell gradient coefficients and compare.
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (9, 9))
    p = constant_exponent(g, 2.0)
    u_star, G, boundary = manufactured_instance("linear", g)
    res = solve_pxlaplace(G, p, boundary)
    assert res.converged

    vol = g.cell_volume
    nn = g.num_nodes
    B = np.zeros((g.num_cells, g.dim, nn))
    coefs = g.grad_coefs  # (2^dim, dim), shared by every cell
    for c, corners in enumerate(g.cell_corner_indices):
        B[c][:, corners] = coefs.T
    K = vol * np.einsum("cdi,cdj->ij", B, B)
    rhs = vol * np.einsum("cd,cdi->i", G.values[:, 0, :], B)
    fixed = g.boundary_node_mask
    free = ~fixed
    ub = boundary.values[:, 0]
    sol = ub.copy()
    sol[free] = np.linalg.solve(
        K[np.ix_(free, free)], rhs[free] - K[np.ix_(free, fixed)] @ ub[fixed])
    assert np.abs(res.u.values[:, 0] - sol).max() <= 1e-8


@pytest.mark.parametrize("shape", [
    (1,), (2,), (9,), (16,), (1, 1), (2, 2), (1, 7), (5, 2), (9, 13),
    (1, 1, 1), (2, 2, 2), (3, 1, 5), (7, 6, 5),
])
def test_dissection_is_a_permutation(shape):
    order = _dissection(shape).order
    assert np.array_equal(np.sort(order), np.arange(math.prod(shape)))


def test_dissection_puts_the_separator_last(monkeypatch):
    # 5 x 9 nodes, cut while blocks exceed 8 nodes: the first cut is the
    # middle column across the long axis, the root front's pivots
    monkeypatch.setattr(solver, "_LEAF", 8)
    col = np.arange(5 * 9).reshape(5, 9)[:, 4]
    tree = _dissection((5, 9))
    assert np.array_equal(tree.order[-5:], col)
    assert tree.parent[0] == -1 and tree.start[0] == 40 and tree.size[0] == 5


def _dissection_by_views(shape):
    """The recursive order over moveaxis views that _dissection replaced."""
    out = []

    def split(block):
        if block.size <= solver._LEAF:
            out.append(block.reshape(-1))
            return
        k = int(np.argmax(block.shape))
        m = block.shape[k] // 2
        halves = np.moveaxis(block, k, 0)
        split(np.moveaxis(halves[:m], 0, k))
        split(np.moveaxis(halves[m + 1:], 0, k))
        out.append(halves[m].reshape(-1))

    split(np.arange(math.prod(shape)).reshape(shape))
    return np.concatenate(out)


@pytest.mark.parametrize("shape", [(127, 127), (23, 23, 23), (5, 9), (1,), (2, 3, 4)])
def test_dissection_matches_view_recursion(shape):
    # the same permutation, so every Newton solve is unchanged
    assert np.array_equal(_dissection(shape).order, _dissection_by_views(shape))


def _dissection_by_recursion(shape):
    """The recursive order over block bounds, one call per block, that the
    level-by-level _dissection replaced."""
    index = np.arange(math.prod(shape)).reshape(shape)
    out = []

    def split(lo, hi):
        sides = [b - a for a, b in zip(lo, hi)]
        if math.prod(sides) <= solver._LEAF:
            out.append(index[tuple(map(slice, lo, hi))].reshape(-1))
            return
        k = sides.index(max(sides))
        m = lo[k] + sides[k] // 2

        def cut(bounds, at):
            return bounds[:k] + [at] + bounds[k + 1:]

        split(lo, cut(hi, m))
        split(cut(lo, m + 1), hi)
        out.append(index[tuple(map(slice, cut(lo, m), cut(hi, m + 1)))].reshape(-1))

    split([0] * len(shape), list(shape))
    return np.concatenate(out)


@pytest.mark.parametrize("shape", [
    (1,), (8,), (9,), (30,), (31,), (126,), (127,),
    (3, 3), (4, 5), (8, 8), (9, 2), (17, 16), (62, 62), (63, 63), (126, 127),
    (3, 3, 3), (2, 5, 4), (6, 6, 6), (7, 8, 9), (22, 22, 22), (23, 22, 23),
])
def test_dissection_matches_block_recursion(shape):
    assert np.array_equal(_dissection(shape).order, _dissection_by_recursion(shape))


@pytest.mark.parametrize("shape", [(1,), (66,), (7, 10), (8, 7, 8), (28, 28, 28), (127, 127)])
def test_dissection_depths_are_contiguous_id_ranges(shape):
    # the fronts of each depth are one id range, every front's parent lies
    # in the range just above its own, and the ranges cover every front;
    # (1,) and (127, 127) have leaves at one depth, the others at two
    tree = _dissection(shape)
    first = np.array(tree.first)
    assert first[0] == 0 and first[-1] == len(tree.parent) and np.all(np.diff(first) > 0)
    depth = np.searchsorted(first, np.arange(len(tree.parent)), "right") - 1
    assert tree.parent[0] == -1 and first[1] == 1
    assert np.array_equal(depth[tree.parent[1:]], depth[1:] - 1)


def _free_dofs(grid: Grid, N: int) -> np.ndarray:
    return np.repeat(~grid.boundary_node_mask, N)


def test_newton_step_matches_dense_solve_vector_3d(monkeypatch):
    # one full Newton step of a vector-valued (N = 2) field on a 3-D box:
    # the step on the free dofs, in their natural order, is the dense solve
    # of the free-dof Hessian, so the ordering and dof interleaving cancel
    g = Grid(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (5, 4, 3))
    X = g.node_coords.T
    p = ExponentField(GridFunction(g, 2.0 + 0.5 * np.sin(2 * np.pi * X[0]) * np.cos(np.pi * X[2])))
    rng = np.random.default_rng(5)
    G = CellField(g, rng.normal(size=(g.num_cells, 2, 3)))
    u0 = GridFunction(g, np.where(g.boundary_node_mask[:, None],
                                  rng.normal(size=(g.num_nodes, 2)), 0.0))
    monkeypatch.setattr(solver, "_GAMMA_SCHEDULE", (1.0,))
    res = solve_pxlaplace(G, p, u0, max_iterations=1)
    assert res.iterations == 1

    params = FluxParams(1.0)
    free = _free_dofs(g, 2)
    H = assembled_hessian(u0, p, params).toarray()[np.ix_(free, free)]
    grad = energy_gradient(u0, G, p, params).values.reshape(-1)
    want = np.linalg.solve(H, -grad[free])
    step = (res.u.values - u0.values).reshape(-1)
    np.testing.assert_array_equal(step[~free], 0.0)
    np.testing.assert_allclose(step[free], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_singular_factor_falls_back_to_gradient_descent(monkeypatch):
    # element blocks [[1, 3], [3, 1]] on three 1-D cells sum to the free-dof
    # Hessian [[2, 3], [3, 2]]: its diagonal passes the checks, but it is
    # indefinite, so the Cholesky factorization refuses it and the step runs
    # along the negative gradient
    g = Grid(1, (0.0,), (1.0,), (3,))
    blocks = np.broadcast_to(np.array([[1.0, 3.0], [3.0, 1.0]]), (3, 2, 2))
    stage = solver.StageStats(1.0)
    assert _free_solve(solver._Elimination(g, 1), blocks, np.ones(2), stage) is None
    assert stage.fill == 0

    p = constant_exponent(g, 2.0)
    _, G, bnd = manufactured_instance("linear", g)
    monkeypatch.setattr(solver, "_ElementMatrices", lambda C, w, s1, s2: blocks)
    monkeypatch.setattr(solver, "_GAMMA_SCHEDULE", (1.0,))
    res = solve_pxlaplace(G, p, bnd, max_iterations=1)
    assert res.iterations == 1 and res.stages[0].fallbacks == 1

    free = _free_dofs(g, 1)
    grad = energy_gradient(bnd, G, p, FluxParams(1.0)).values.reshape(-1)[free]
    step = (res.u.values - bnd.values).reshape(-1)[free]
    t = -float(step @ grad) / float(grad @ grad)
    assert 0.0 < t <= 1.0
    np.testing.assert_allclose(step, -t * grad, rtol=1e-12, atol=1e-14)


def _random_lattice_system(cells, N, rng):
    """Random PSD element blocks on a grid of ``cells`` plus a diagonal
    shift: the element matrices and their sum over the free dofs, in the
    elimination's order, as a dense matrix."""
    d = len(cells)
    g = Grid(d, (0.0,) * d, (1.0,) * d, cells)
    k = 2**d * N
    R = rng.normal(size=(g.num_cells, k, k))
    E = R @ R.transpose(0, 2, 1) / k + 0.1 * np.eye(k)
    elim = solver._Elimination(g, N)
    dofs = (g.cell_corner_indices[:, :, None] * N + np.arange(N)).reshape(g.num_cells, -1)
    H = np.zeros((g.num_nodes * N,) * 2)
    np.add.at(H, (dofs[:, :, None], dofs[:, None, :]), E)
    return elim, E, H[np.ix_(elim.sel, elim.sel)]


@pytest.mark.parametrize("cells", [
    (2,), (9,), (67,), (70,), (131,), (3, 3), (8, 11), (12, 11), (17, 16), (24, 25),
    (2, 2, 2), (3, 4, 5), (7, 6, 6), (9, 8, 9), (5, 7, 11), (10, 4, 7),
])
@pytest.mark.parametrize("N", [1, 2])
def test_multifrontal_direction_matches_splu_and_dense_cholesky(cells, N):
    # odd and even sides, single leaves and trees several depths deep (a
    # leaf holds at most _LEAF nodes), with leaves at one depth or, for
    # (67,), (8, 11), (9, 8, 9), (5, 7, 11) and (10, 4, 7), at two; the
    # anisotropic boxes have 3 to 6 front shapes, hence groups, at a depth:
    # the multifrontal solve is SuperLU's and dense Cholesky's to 1e-12
    from scipy import sparse

    rng = np.random.default_rng(sum(cells) * 10 + N)
    elim, E, H = _random_lattice_system(cells, N, rng)
    b = rng.normal(size=len(H))
    got = elim.factor(E).solve(b)
    L = np.linalg.cholesky(H)
    dense = np.linalg.solve(L.T, np.linalg.solve(L, b))
    lu = splu(sparse.csc_matrix(H))
    for want in (lu.solve(b), dense):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(elim.diagonal(E), np.diagonal(H))
    # nnz(L) counts each front's pivot triangle and update rows, no padding
    assert np.count_nonzero(L) <= elim.nnz <= len(H) * (len(H) + 1) // 2
    if cells in ((9, 8, 9), (5, 7, 11), (10, 4, 7)):
        assert max(len(d.groups) for d in elim.depths) >= 3


def _group_dofs(depth):
    """Each group of a depth with its (fronts, p) pivot and (fronts, m - p)
    update dofs, read from the depth's tables, which they fill."""
    i = j = 0
    for gr in depth.groups:
        piv = depth.piv[i:i + gr.fronts * gr.p].reshape(gr.fronts, gr.p)
        var = depth.var[j:j + gr.fronts * gr.m].reshape(gr.fronts, gr.m)
        assert np.array_equal(var[:, :gr.p], piv)
        i, j = i + piv.size, j + var.size
        yield gr, piv, var[:, gr.p:]
    assert (i, j) == (depth.piv.size, depth.var.size)


@pytest.mark.parametrize("cells, N", [
    ((67,), 1), ((24, 25), 2), ((9, 8, 9), 1), ((5, 7, 11), 2), ((10, 4, 7), 2),
])
def test_shape_groups_hold_real_fronts_only(cells, N):
    # no front is padded: a depth's groups hold each of its fronts once, in
    # groups of distinct shapes; every pivot and update entry is a free dof,
    # each free dof is the pivot of one front, a front's update dofs are
    # distinct and come after its pivots; and the factor's blocks hold
    # exactly (pivots + halo) x pivots entries per front, the halo counted
    # from the tree's boxes: the free nodes of the box grown by one node
    # per side, less the box's own
    d = len(cells)
    interior = tuple(c - 1 for c in cells)
    g = Grid(d, (0.0,) * d, (1.0,) * d, cells)
    elim = solver._Elimination(g, N)
    tree = _dissection(interior)
    assert [sum(len(piv) for _, piv, _ in _group_dofs(dp)) for dp in elim.depths] == \
        list(np.diff(tree.first)[::-1])
    piv = np.concatenate([dp.piv for dp in elim.depths])
    assert np.array_equal(np.sort(piv), np.arange(elim.n))
    for dp in elim.depths:
        assert len({(gr.p, gr.m) for gr in dp.groups}) == len(dp.groups)
        for gr, piv, upd in _group_dofs(dp):
            assert piv.shape[1] == gr.p > 0 and upd.shape[1] == gr.m - gr.p
            assert (upd >= 0).all() and (upd < elim.n).all()
            assert all(len(set(row)) == len(row) for row in upd.tolist())
            if gr.m > gr.p:
                assert (upd.min(axis=1) > piv.max(axis=1)).all()
    grown = np.prod(np.minimum(tree.hi + 1, interior) - np.maximum(tree.lo - 1, 0), axis=1)
    halo = grown - np.prod(tree.hi - tree.lo, axis=1)
    want = int(np.sum((tree.size + halo) * N * tree.size * N))
    E = np.broadcast_to(np.eye(2**d * N), (g.num_cells, 2**d * N, 2**d * N))
    assert sum(W.size for W in elim.factor(E).blocks) == want


@pytest.mark.parametrize("cells, N", [((9, 8, 9), 1), ((12, 11), 2), ((131,), 1)])
def test_packed_update_gather_matches_row_loop(cells, N, monkeypatch):
    # each front's update triangle is its assembled triangle less the two
    # Schur blocks gathered by one np.take over a flat index table; it must
    # be, bit for bit, the row-by-row difference it replaced: row r of the
    # update block, columns 0 to r, at their column-by-column packed
    # places, less row r of K F21^T from the diagonal block or the block
    # below it
    rng = np.random.default_rng(sum(cells) * 3 + N)
    elim, E, _ = _random_lattice_system(cells, N, rng)
    eliminate, packed = solver._Elimination._eliminate, []

    def checked(g, F, W, U, schur, work):
        p, u, h = g.p, g.m - g.p, (g.m - g.p) // 2
        assembled = F[:, g.m * p:].copy()
        F21 = F[:, :g.m * p].reshape(len(F), p, g.m)[:, :, p:].transpose(0, 2, 1).copy()
        eliminate(g, F, W, U, schur, work)
        if U is None:
            return
        K = -W[:, p:]
        S1, S2 = K[:, :h] @ F21[:, :h].transpose(0, 2, 1), K[:, h:] @ F21.transpose(0, 2, 1)
        first = np.cumsum([0] + [u - c for c in range(u - 1)])  # each column's diagonal place
        want = np.empty_like(U)
        for r in range(u):
            at = first[:r + 1] + r - np.arange(r + 1)
            want[:, at] = assembled[:, at] - (S1[:, r, :r + 1] if r < h else S2[:, r - h, :r + 1])
        packed.append(U.size)
        assert U.tobytes() == want.tobytes()

    monkeypatch.setattr(solver._Elimination, "_eliminate", staticmethod(checked))
    elim.factor(E)
    assert len(packed) >= sum(len(d.groups) for d in elim.depths) - 1 and sum(packed) > 0


@pytest.mark.parametrize("cells, N", [((9, 8, 9), 1), ((12, 11), 2), ((12, 6, 6), 3)])
def test_fronts_form_no_product_they_do_not_read(cells, N, monkeypatch):
    # each front forms its Schur update K F21^T on its two diagonal blocks
    # and the block below them only, in the first g.schur workspace entries
    # per front, after F11^-1 in the first p^2, which the in-place pivot
    # kernel's temporaries precede: the rest of the workspace, poisoned
    # before the elimination, keeps its poison.  The root, which has no
    # update set, forms neither F11^-1 nor K and writes no workspace entry,
    # its kernel's temporaries included (they sit in the front's own room);
    # its W is L11^-1 alone.  On (12, 6, 6) with N = 3 the root and the
    # depth-1 fronts have 75 pivots, so the kernel halves both.  The solve
    # reads no poison, so the direction is dense Cholesky's
    rng = np.random.default_rng(sum(cells) + N)
    elim, E, H = _random_lattice_system(cells, N, rng)
    eliminate, seen = solver._Elimination._eliminate, []

    def poisoned(g, F, W, U, schur, work):
        used = 0 if U is None else len(F) * max(g.p * g.p, g.schur)
        work[:] = 7.0
        eliminate(g, F, W, U, schur, work)
        seen.append((U is None, work.size - used, bool(np.all(work[used:] == 7.0)), g.p))

    monkeypatch.setattr(solver._Elimination, "_eliminate", staticmethod(poisoned))
    factor = elim.factor(E)
    assert [root for root, _, _, _ in seen].count(True) == 1 and seen[-1][0]
    assert sum(size for _, size, _, _ in seen) > 0
    assert all(kept for _, _, kept, _ in seen), seen
    if cells == (12, 6, 6):  # the kernel halves the root's pivot block and others
        halved = [root for root, _, _, p in seen if p > solver._CHOLESKY_BLOCK]
        assert True in halved and False in halved
    ((root, _, upd),) = _group_dofs(elim.depths[-1])  # no update set: its W is L11^-1 alone
    assert root.m == root.p and upd.size == 0
    assert factor.blocks[-1].shape == (1, root.p, root.p)
    b = rng.normal(size=len(H))
    L = np.linalg.cholesky(H)
    want = np.linalg.solve(L.T, np.linalg.solve(L, b))
    assert np.abs(factor.solve(b) - want).max() <= 1e-12 * np.abs(want).max()


def _spd_stack(rng, blocks: int, n: int) -> np.ndarray:
    M = rng.normal(size=(blocks, n, n))
    return M @ M.transpose(0, 2, 1) / n + np.eye(n)


@pytest.mark.parametrize("n", [1, 16, 63, 64, 65, 127, 200])
@pytest.mark.parametrize("blocks", [1, 3])
def test_inverse_cholesky_matches_numpy(n, blocks):
    # the in-place kernel writes L^-1 of each block's Cholesky factor over
    # the block, to 1e-12 relative of np.linalg.inv(np.linalg.cholesky(A)),
    # with exact zeros above the diagonal, and reads none of its room
    # before writing it (the room is NaN); up to _CHOLESKY_BLOCK it is
    # np.linalg.cholesky and _lower_inverse, bit for bit
    rng = np.random.default_rng(10 * n + blocks)
    A = _spd_stack(rng, blocks, n)
    X = A.copy()
    got = solver._inverse_cholesky(X, np.full(blocks * -(-n // 2) * n, np.nan))
    assert got is X
    want = np.linalg.inv(np.linalg.cholesky(A))
    assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
    above = np.triu_indices(n, 1)
    assert np.all(X[:, above[0], above[1]] == 0.0)
    if n <= solver._CHOLESKY_BLOCK:
        assert X.tobytes() == solver._lower_inverse(np.linalg.cholesky(A), A.copy()).tobytes()


@pytest.mark.parametrize("n", [1, 16, 63, 64, 65, 127, 200])
def test_inverse_cholesky_raises_on_an_indefinite_block(n):
    # the last block of the stack is positive definite but for its last
    # diagonal entry, so only the trailing pivot fails
    A = _spd_stack(np.random.default_rng(n), 3, n)
    A[-1, -1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solver._inverse_cholesky(A, np.empty(3 * -(-n // 2) * n))


def test_inverse_cholesky_allocates_less_than_one_block():
    # the 24^3 root's pivot block, 529 x 529, inverted in place allocates
    # less than one such block beyond its room; np.linalg.cholesky, which
    # writes a new factor, does not
    A = _spd_stack(np.random.default_rng(529), 1, 529)
    room = np.empty(265 * 529)
    peaks = []
    for invert in (lambda X: solver._inverse_cholesky(X, room),
                   lambda X: solver._lower_inverse(np.linalg.cholesky(X), X)):
        X = A.copy()
        tracemalloc.start()
        try:
            invert(X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < A.nbytes <= peaks[1], peaks


@pytest.mark.parametrize("cells, N", [((9, 8, 9), 1), ((12, 11), 2), ((131,), 1)])
def test_extend_add_steps_give_the_same_bytes(cells, N, monkeypatch):
    # with 7 entries a step, each child triangle of the 2-D and 3-D trees
    # (210 to 1176 entries) is summed in parts, the last one short where 7
    # does not divide it, and the 1-D tree's triangles (1 or 3 entries)
    # several to a step, in the same order: the factor's blocks and its
    # solve are the bytes of the default step's, and the solve is
    # SuperLU's to 1e-12
    from scipy import sparse

    rng = np.random.default_rng(sum(cells) + 7 * N)
    elim, E, H = _random_lattice_system(cells, N, rng)
    tri = {len(local[0]) * (len(local[0]) + 1) // 2
           for d in elim.depths for g in d.groups for _, _, _, local, _ in g.children}
    assert any(t % 7 for t in tri)
    b = rng.normal(size=elim.n)
    whole = elim.factor(E)
    monkeypatch.setattr(solver, "_SUM_STEP", 7)
    stepped = elim.factor(E)
    assert [W.tobytes() for W in stepped.blocks] == [W.tobytes() for W in whole.blocks]
    got = stepped.solve(b)
    assert got.tobytes() == whole.solve(b).tobytes()
    want = splu(sparse.csc_matrix(H)).solve(b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_extend_add_allocates_one_step():
    # summing one 529-wide child's packed update triangle (140185 entries)
    # into its parent allocates, outside the buffer, at most 1.5 steps of
    # float64 entries: the intp copies NumPy makes of one step's int32
    # places, never of the child's whole index tables; the sum is that of
    # one np.add.at over every entry, bit for bit
    u = 529
    parent = solver._Group(16, 16 + u, 1, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int32),
                           np.empty((0, 8), dtype=np.int32))
    local = np.arange(16, 16 + u, dtype=np.int32)[None]
    column = parent.col[local]
    i, k = solver._tril(u)
    U = np.random.default_rng(u).normal(size=(1, len(i)))
    F, want = np.zeros(parent.size + 1), np.zeros(parent.size + 1)
    work = np.empty(len(i)).view(np.int32)  # room for the whole triangle's places
    tracemalloc.start()
    try:
        solver._extend_add(F, U, local, column, i, k, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(i) == 140185 and peak <= 1.5 * solver._SUM_STEP * 8, peak
    np.add.at(want, local[0, i] + column[0, k], U[0])
    assert F.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [64, 1 << 16])
def test_small_batches_with_twin_children_match_splu(batch, monkeypatch):
    # with _BATCH monkeypatched small each front is a batch of its own (64)
    # or one of a few (2^16), and a child's update triangle is scattered
    # apart from its sibling's or together with it; on 7^3 interior nodes
    # every split is symmetric, so a parent's two children sit in one
    # group, and N = 3 gives each node three dofs.  The multifrontal solve
    # is SuperLU's and dense Cholesky's to 1e-12
    from scipy import sparse

    monkeypatch.setattr(solver, "_BATCH", batch)
    rng = np.random.default_rng(batch)
    elim, E, H = _random_lattice_system((8, 8, 8), 3, rng)
    twins = [len(set(slot.tolist())) < len(slot)
             for d in elim.depths for g in d.groups for _, _, slot, _, _ in g.children]
    assert any(twins)
    assert (max(g.batch for d in elim.depths for g in d.groups) > 1) == (batch > 64)
    b = rng.normal(size=len(H))
    got = elim.factor(E).solve(b)
    L = np.linalg.cholesky(H)
    dense = np.linalg.solve(L.T, np.linalg.solve(L, b))
    for want in (splu(sparse.csc_matrix(H)).solve(b), dense):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("gamma", [1.0, 1e-8, 0.0])
@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_streamed_element_matrices_give_the_formed_bytes(dim, N, gamma, monkeypatch):
    # the factor forms each batch's element matrices from the Hessian
    # coefficients as it assembles the batch: the diagonal, the factor's
    # blocks and its solve are the bytes of those from energy_hessian's
    # array, at the default batch size and at one that splits every level
    rng = np.random.default_rng(dim + 10 * N)
    g = Grid(dim, (0.0,) * dim, (1.0, 0.7, 1.3)[:dim], ((67,), (12, 11), (6, 5, 7))[dim - 1])
    p_lo = 2.0 if gamma == 0.0 else 1.1  # gamma = 0 needs p >= 2
    p = ExponentField(GridFunction(g, rng.uniform(p_lo, 3.0, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)))
    params = FluxParams(gamma)
    elim = solver._Elimination(g, N)
    streamed = _ElementMatrices(*_hessian_coefficients(_iterate(u), p, params))
    formed = energy_hessian(u, p, params)
    assert elim.diagonal(streamed).tobytes() == elim.diagonal(formed).tobytes()
    with pytest.raises(ValueError):
        streamed.diagonal(axis1=0, axis2=1)
    b = rng.normal(size=elim.n)
    for batch in (solver._BATCH, 64):
        monkeypatch.setattr(solver, "_BATCH", batch)
        got, want = elim.factor(streamed), elim.factor(formed)
        assert [W.tobytes() for W in got.blocks] == [W.tobytes() for W in want.blocks]
        assert got.solve(b).tobytes() == want.solve(b).tobytes()


class _Mappings:
    """Stands in for the mmap module in ``solver`` and watches the update
    stacks it maps: ``mapped`` counts the mappings not yet unmapped,
    ``live`` their bytes not handed back, ``pages[id(m)]`` the pages
    handed back from mapping m and ``handed`` all the bytes handed back.
    ``sample`` is called just before ``live`` changes."""

    PAGESIZE, MAP_PRIVATE, MADV_DONTNEED = mmap.PAGESIZE, mmap.MAP_PRIVATE, mmap.MADV_DONTNEED

    def __init__(self, sample=lambda: None):
        self.mapped = self.live = self.handed = 0
        self.pages = {}
        watch = self

        class Mapping(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                m = super().__new__(cls, *args, **kwargs)
                watch.change(len(m))
                watch.mapped += 1
                watch.pages[id(m)] = set()
                weakref.finalize(m, watch.unmapped, id(m), len(m))
                return m

            def madvise(self, option, start, length):
                size = mmap.PAGESIZE
                assert option == mmap.MADV_DONTNEED and start % size == 0 == length % size
                new = set(range(start // size, (start + length) // size)) - watch.pages[id(self)]
                watch.change(-size * len(new))
                watch.handed += size * len(new)
                watch.pages[id(self)] |= new
                super().madvise(option, start, length)

        self.mmap = Mapping
        self.sample = sample

    def change(self, size: int) -> None:
        self.sample()
        self.live += size

    def unmapped(self, key: int, size: int) -> None:
        self.change(mmap.PAGESIZE * len(self.pages.pop(key)) - size)
        self.mapped -= 1


@pytest.mark.parametrize("cells, N", [((9, 8, 9), 1), ((24, 25), 2), ((5, 7, 11), 1), ((131,), 1)])
def test_child_fronts_are_listed_in_the_order_their_parents_sum_them(cells, N):
    # each group's fronts are sorted by parent group, then parent slot, so
    # each parent batch sums a run of every child group's rows that starts
    # where the runs summed before it end; siblings stay in tree order
    d = len(cells)
    g = Grid(d, (0.0,) * d, (1.0,) * d, cells)
    elim = solver._Elimination(g, N)
    tree = _dissection(tuple(c - 1 for c in cells))
    by_start = np.argsort(tree.start)
    several = False
    for deeper, depth in zip(elim.depths, elim.depths[1:]):
        runs = [[] for _ in deeper.groups]
        for parent in depth.groups:
            for k, rows, slot, _, _ in parent.children:
                runs[k].append((rows, slot))
        for (_, piv, _), run in zip(_group_dofs(deeper), runs):
            several |= len(run) > 1
            assert np.array_equal(np.concatenate([rows for rows, _ in run]), np.arange(len(piv)))
            assert all(np.all(np.diff(slot) >= 0) for _, slot in run)
            # front ids from the first pivot: siblings share a parent and keep their order
            ids = by_start[np.searchsorted(tree.start[by_start], piv[:, 0] // N, "right") - 1]
            assert np.all(np.diff(ids)[np.diff(tree.parent[ids]) == 0] > 0)
    assert several == (cells in ((9, 8, 9), (24, 25)))  # a child group under two parent groups


@pytest.mark.parametrize("cells, N, batch", [
    ((8, 8, 8), 3, 64), ((8, 8, 8), 3, None), ((24, 25), 2, 64), ((24, 25), 2, None),
    ((9, 8, 9), 1, 1 << 12)])
def test_update_pages_leave_once_their_parent_batch_has_summed_them(cells, N, batch, monkeypatch):
    # after each parent batch's extend-add, every whole page of a child
    # group's summed rows, which end where the batch's run ends, has been
    # handed back, and no page that holds an entry not yet summed; at most
    # two stacks are mapped at once (the depth being summed and the depth
    # being formed), and none once the factor returns
    watch = _Mappings()
    monkeypatch.setattr(solver, "mmap", watch)
    if batch:
        monkeypatch.setattr(solver, "_BATCH", batch)
    elim, E, _ = _random_lattice_system(cells, N, np.random.default_rng(len(cells) + N))
    assemble, page, checked = solver._Elimination._assemble, mmap.PAGESIZE // 8, []
    summed = weakref.WeakKeyDictionary()  # per stack, its entries summed so far

    def watched(g, s, E, below, F, work):
        assemble(g, s, E, below, F, work)
        assert watch.mapped <= 2
        runs = []  # per child group: its stack and the run of entries [first, stop) summed so far
        for j, rows, slot, _, _ in g.children:
            U, _, stack, first = below[j]
            done = summed.setdefault(stack, np.zeros(stack.values.size, dtype=bool))
            lo, hi = np.searchsorted(slot, (s.start, s.stop))
            if hi > lo:
                stop = first + (rows[hi - 1] + 1) * U.shape[1]
                done[first + rows[lo] * U.shape[1]:stop] = True
                runs.append((stack, first, stop))
        for stack, first, stop in runs:
            handed = watch.pages[id(stack._map)]
            assert set(range(-(-first // page), stop // page)) <= handed
            assert all(summed[stack][q * page:(q + 1) * page].all() for q in handed)
            checked.append(len(handed))

    monkeypatch.setattr(solver._Elimination, "_assemble", staticmethod(watched))
    elim.factor(E)
    assert watch.mapped == 0 and watch.live == 0
    assert watch.handed > 0 and len(checked) >= len(elim.depths) - 1


@pytest.mark.parametrize("cells, N, batch", [
    ((8, 8, 8), 3, 64), ((8, 8, 8), 3, None), ((24, 25), 2, 64), ((9, 8, 9), 1, 1 << 12)])
def test_pages_handed_back_are_never_read(cells, N, batch, monkeypatch):
    # a page handed back reads as zeros: the factor's blocks and its solve
    # are the bytes of a factor whose release hands nothing back
    watch = _Mappings()
    monkeypatch.setattr(solver, "mmap", watch)
    if batch:
        monkeypatch.setattr(solver, "_BATCH", batch)
    rng = np.random.default_rng(sum(cells) + N)
    elim, E, _ = _random_lattice_system(cells, N, rng)
    b = rng.normal(size=elim.n)
    released = elim.factor(E)
    assert watch.handed > 0
    monkeypatch.setattr(solver._Stack, "release", lambda self, first, start, stop: None)
    kept = elim.factor(E)
    assert [W.tobytes() for W in released.blocks] == [W.tobytes() for W in kept.blocks]
    assert released.solve(b).tobytes() == kept.solve(b).tobytes()


def _cold_solve_peak_and_bound(side: int, buffer, slack: float,
                               monkeypatch) -> tuple[int, float]:
    """The peak of a cold side^3 bump solve at p = 1.5, and the bound
    ``slack`` x (the complete factor W, the two largest adjacent update
    stacks, ``buffer(groups)`` entries and the Hessian coefficients), all
    of them counted unpadded, in bytes.  The peak is of the traced bytes
    plus the update stacks' live bytes, which tracemalloc does not see: the
    traced peak is read, and reset, whenever the live bytes change, so the
    peak of the sum is exact."""
    g = Grid(3, (0.0,) * 3, (1.0,) * 3, (side,) * 3)
    p = constant_exponent(g, 1.5)
    _, G, bnd = manufactured_instance("bump", g)
    depths = solver._Elimination(g, 1).depths  # deepest first; the root has no update
    groups = [gr for d in depths for gr in d.groups]
    W = sum(piv.size * gr.m for d in depths for gr, piv, _ in _group_dofs(d))
    U = [sum(len(piv) * gr.tri for gr, piv, _ in _group_dofs(d)) for d in depths]
    coefficients = g.num_cells * (2**3 + 2)  # w, s1 and s2
    bound = slack * 8 * (W + max(a + b for a, b in zip(U, U[1:])) + buffer(groups) + coefficients)
    peak = 0

    def sample():
        nonlocal peak
        peak = max(peak, tracemalloc.get_traced_memory()[1] + watch.live)
        tracemalloc.reset_peak()

    watch = _Mappings(sample)
    monkeypatch.setattr(solver, "mmap", watch)
    tracemalloc.start()
    try:
        res = solve_pxlaplace(G, p, bnd)
        sample()
    finally:
        tracemalloc.stop()
    assert res.converged, res.message
    assert watch.handed > 0
    return peak, bound


def test_factor_holds_fronts_not_every_element_matrix(monkeypatch):
    # a cold 16^3 solve's peak stays within the complete factor W,
    # the two largest adjacent update stacks, one frontal batch buffer and
    # the Hessian coefficients, with 15 % slack, all of them counted
    # unpadded; holding the element matrices of every cell (2.1 MB here),
    # a 2^20-entry buffer or fronts padded to their depth's largest breaks it
    peak, bound = _cold_solve_peak_and_bound(
        16, lambda groups: max(solver._BATCH, max((gr.m + 1) ** 2 for gr in groups)), 1.15,
        monkeypatch)
    assert peak <= bound, (peak, bound)


def test_factor_holds_pivot_columns_not_square_fronts(monkeypatch):
    # at 24^3 the widest fronts pass _BATCH (the depth-1 fronts have 253
    # pivots and 782 rows), so the batch buffer binds: the peak stays
    # within the bound above with the pivot columns of the widest front
    # (m p entries) for the buffer and 5 % slack.  A frontal buffer of
    # (m + 1)^2 entries, 4.9 MB here, breaks it
    peak, bound = _cold_solve_peak_and_bound(
        24, lambda groups: max(gr.m * gr.p for gr in groups if gr.m * gr.p > solver._BATCH), 1.05,
        monkeypatch)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("dim, lo, side, p_range, p_fn", [
    (2, -2.0, 4.0, (1.3, 3.0),
     lambda x: 2.15 + 0.85 * np.sin(0.5 * np.pi * x[0]) * np.sin(0.5 * np.pi * x[1])),
    (3, 0.0, 1.0, (1.5, 2.5),
     lambda x: 2.0 + 0.5 * np.sin(2 * np.pi * x[0]) * np.sin(np.pi * x[1]) * np.sin(np.pi * x[2])),
], ids=["2d", "3d"])
def test_cold_start_recovery(dim, lo, side, p_range, p_fn):
    # zero interior, boundary data only.  The finer grid has h = 1/8, the
    # resolution at which test_matched_recovery bounds the error by 0.05;
    # between the two grids the order must be >= 1, as in the recovery gate.
    errs = []
    for h in (1 / 4, 1 / 8):
        g = Grid(dim, (lo,) * dim, (side,) * dim, (round(side / h),) * dim)
        p = ExponentField(GridFunction(g, p_fn(g.node_coords.T)))
        assert (p.p_minus, p.p_plus) == pytest.approx(p_range, abs=1e-12)
        u_star, G, bnd = manufactured_instance("matched", g)
        res = solve_pxlaplace(G, p, bnd)
        assert res.converged and res.residual <= 1e-8, res.message
        errs.append(float(np.abs(res.u.values - u_star.values).max()))
    assert errs[1] < 0.05
    assert math.log2(errs[0] / errs[1]) >= 1.0


def test_rounding_floor_stall_is_resolved():
    # J is about 1e6 here, so near the minimizer J + c t slope rounds to J
    # and the Armijo test cannot see a decrease; without the residual guard
    # the final stage backtracks to steps that change nothing until its cap
    # one level: the cold ladder would solve the 256-cell half grid first
    res = solver._solve_level(*constriction(0.6), 1e-8, 200, final_only=False)
    assert res.converged and res.iterations <= 8, res.stages
    assert any(s.guarded for s in res.stages), res.stages


@pytest.mark.parametrize("p_value, budget", [(1.7, 7), (1.3, 21)])
def test_intermediate_stages_are_inexact(p_value, budget):
    # zero data on the boundary, a cold start of one level; only the last
    # stage runs to the tolerance, the earlier ones stop at a residual reduction
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))
    p = constant_exponent(g, p_value)
    _, G, bnd = manufactured_instance("bump", g)
    res = solver._solve_level(G, p, bnd, 1e-8, 200, final_only=False)
    assert res.converged and res.residual <= 1e-8, res.message
    assert res.iterations <= budget, res.stages
    assert [s.gamma for s in res.stages] == list(solver._schedule(p_value))
    assert all(s.reason in ("reduction", "tolerance") for s in res.stages[:-1]), res.stages
    assert res.stages[-1].reason == "tolerance"


def test_solve_validation():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    other = Grid(2, (0.0, 0.0), (1.0, 1.0), (5, 5))
    p = constant_exponent(g, 2.0)
    bnd = GridFunction(g, np.zeros(g.num_nodes))
    G = CellField(g, np.zeros((g.num_cells, 1, 2)))
    with pytest.raises(ValueError, match="grid mismatch"):
        solve_pxlaplace(G, p, GridFunction(other, np.zeros(other.num_nodes)))
    with pytest.raises(ValueError, match="shape"):
        solve_pxlaplace(CellField(g, np.zeros((g.num_cells, 1, 1))), p, bnd)
    with pytest.raises(ValueError, match="p- > 1"):
        solve_pxlaplace(G, constant_exponent(g, 1.0), bnd)
    wide = Grid(2, (0.0, 0.0), (2.0, 1.0), (4, 4))
    with pytest.raises(ValueError, match="coarse"):
        solve_pxlaplace(G, p, bnd, coarse=GridFunction(wide, np.zeros(wide.num_nodes)))


def test_nonconvergence_reported_honestly():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    p = ExponentField(GridFunction(g, 2.0 + 0.4 * np.sin(g.node_coords[:, 0])))
    _, G, bnd = manufactured_instance("matched", g)
    # zero Newton steps leaves the boundary extension untouched, so the
    # residual stays far above any reasonable tolerance
    res = solve_pxlaplace(G, p, bnd, tolerance=1e-8, max_iterations=0)
    assert not res.converged
    assert res.residual > 1e-8
    assert res.message
    # the ladder stops at its first level, the 8^2 half grid, which is last
    assert [lv.cells for lv in res.levels] == [(8, 8)] and res.u.grid.cells == (8, 8)


def test_manufactured_matched_consistency(grid32):
    u_star, G, bnd = manufactured_instance("matched", grid32)
    # boundary carries the exact trace
    mask = grid32.boundary_node_mask
    np.testing.assert_allclose(
        bnd.values[mask], u_star.values[mask], atol=1e-14)
    # G samples the analytic gradient: compare on interior cells against
    # the discrete gradient of u_star (both approximate Du*)
    du = gradient(u_star).values
    assert np.abs(du - G.values).max() < 0.2


def test_manufactured_linear_is_harmonic_on_p2(grid32):
    # the discrete minimizer tracks the separable harmonic u* to
    # discretization error: < 1% relative at h = 1/8 and second order
    errs = {}
    for n in (16, 32):
        g = grid32 if n == 32 else Grid(2, (-2.0, -2.0), (4.0, 4.0), (n, n))
        p = constant_exponent(g, 2.0)
        u_star, G, bnd = manufactured_instance("linear", g)
        res = solve_pxlaplace(G, p, bnd)
        assert res.converged
        errs[n] = np.abs(res.u.values - u_star.values).max()
        scale = np.abs(u_star.values).max()
    assert errs[32] < 0.01 * scale
    assert errs[16] / errs[32] > 3.0


def test_manufactured_bump_shape(grid32):
    u_star, G, bnd = manufactured_instance("bump", grid32)
    assert u_star is None
    assert G.values.shape == (grid32.num_cells, 1, 2)
    np.testing.assert_allclose(bnd.values[grid32.boundary_node_mask], 0.0)
    with pytest.raises(ValueError):
        manufactured_instance("mystery", grid32)


def _sin_product(x):
    return float(np.prod(np.sin(math.pi * np.asarray(x))))


def _sin_product_grad(x):
    s, c = np.sin(math.pi * x), np.cos(math.pi * x)
    return np.array([math.pi * c[k] * np.prod(np.delete(s, k)) for k in range(x.size)])


def _harmonic(x):
    """The separable harmonic u* of the linear instance and its gradient at x."""
    if x.size == 1:
        return float(x[0]), np.array([1.0])
    k = math.pi
    if x.size == 2:
        return (math.sin(k * x[0]) * math.sinh(k * x[1]) / math.sinh(k), np.array([
            k * math.cos(k * x[0]) * math.sinh(k * x[1]) / math.sinh(k),
            k * math.sin(k * x[0]) * math.cosh(k * x[1]) / math.sinh(k)]))
    kz = math.sqrt(2.0) * k
    s0, c0 = math.sin(k * x[0]), math.cos(k * x[0])
    s1, c1 = math.sin(k * x[1]), math.cos(k * x[1])
    sh, ch = math.sinh(kz * x[2]), math.cosh(kz * x[2])
    return (s0 * s1 * sh / math.sinh(kz),
            np.array([k * c0 * s1 * sh, k * s0 * c1 * sh, kz * s0 * s1 * ch]) / math.sinh(kz))


@pytest.mark.parametrize("cells, lo, ext", [
    ((7,), (0.0,), (1.0,)),
    ((5, 4), (0.0, 0.0), (1.0, 1.0)),
    ((9, 6), (0.1, 0.0), (0.8, 1.0)),
    ((5, 4, 3), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    ((4, 6, 5), (0.0, 0.1, 0.0), (0.9, 0.6, 1.0)),
], ids=["1d", "2d", "2d-nonsquare", "3d", "3d-nonsquare"])
def test_manufactured_instances_match_pointwise_closed_forms(cells, lo, ext):
    # the vectorized separable product against one evaluation per node and
    # cell: matched is byte-equal, linear agrees to an ulp or two (libm and
    # NumPy elementary functions may differ in the last bit)
    g = Grid(len(cells), lo, ext, cells)
    u, G, _ = manufactured_instance("matched", g)
    want = np.array([_sin_product(x) for x in g.node_coords])
    assert u.values[:, 0].tobytes() == want.tobytes()
    want = np.stack([_sin_product_grad(x) for x in g.cell_centers])
    assert G.values[:, 0, :].tobytes() == want.tobytes()

    u, G, _ = manufactured_instance("linear", g)
    nodes = [_harmonic(x)[0] for x in g.node_coords]
    grads = np.stack([_harmonic(x)[1] for x in g.cell_centers])
    np.testing.assert_allclose(u.values[:, 0], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(G.values[:, 0, :], grads, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ["matched", "linear", "bump"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_manufactured_boundary_field_starts_cold(kind, dim):
    # the boundary field carries u*'s trace (zero for bump) and a zero
    # interior, so no solve from it starts at the answer
    g = Grid(dim, (-0.3,) * dim, (1.1,) * dim, (6, 5, 4)[:dim])
    u_star, _, bnd = manufactured_instance(kind, g)
    trace = np.zeros((g.num_nodes, 1)) if u_star is None else u_star.values
    mask = g.boundary_node_mask
    assert bnd.values[mask].tobytes() == trace[mask].tobytes()
    assert not bnd.values[~mask].any()
    assert kind == "bump" or trace[~mask].all()  # u* is not zero inside


def _bump_instance(cells):
    """The bump instance on [-2, 2]^d: (grid, G, boundary), zero interior."""
    d = len(cells)
    g = Grid(d, (-2.0,) * d, (4.0,) * d, cells)
    _, G, bnd = manufactured_instance("bump", g)
    return g, G, bnd


def _bump_solve(cells, p_of, coarse=None):
    """The bump instance with p = p_of(grid), solved cold, or warm from the
    solution ``coarse`` on a coarser nested grid."""
    g, G, bnd = _bump_instance(cells)
    p = p_of(g)
    return solve_pxlaplace(G, p, bnd, coarse=coarse), p


# a nodal exponent table in [1.3, 3] on a 4 x 4-cell grid, read by Q1
# interpolation as [exponent] kind = table does
_P_GRID = Grid(2, (-2.0, -2.0), (4.0, 4.0), (4, 4))
_X, _Y = _P_GRID.node_coords.T
_P_TABLE = GridFunction(_P_GRID, 2.15 + 0.85 * np.sin(0.5 * np.pi * _X) * np.cos(0.25 * np.pi * _Y))


@pytest.mark.parametrize("cells, p_of", [
    ((16, 16), lambda g: constant_exponent(g, 1.7)),
    ((16, 16), lambda g: constant_exponent(g, 3.0)),
    ((16, 16), lambda g: ExponentField(GridFunction(g, _P_TABLE.at(g.node_coords)[:, 0]))),
    ((8, 8, 8), lambda g: constant_exponent(g, 1.5)),
], ids=["p1.7", "p3-gamma0", "table", "3d-p1.5"])
def test_warm_start_runs_final_stage_to_the_cold_answer(cells, p_of):
    # nested iteration: the coarse grid is solved cold, its solution is
    # prolonged onto the doubled grid, and the fine solve runs the final
    # gamma stage only.  The zero interior of the bump instance is far from
    # its solution, so neither fine solve starts at the answer.  The cold
    # reference is one level through the whole schedule.
    coarse, _ = _bump_solve(cells, p_of)
    fine = tuple(2 * c for c in cells)
    g, G, bnd = _bump_instance(fine)
    p = p_of(g)
    cold = solver._solve_level(G, p, bnd, 1e-8, 200, final_only=False)
    warm, _ = _bump_solve(fine, p_of, coarse=coarse.u)
    assert coarse.converged and cold.converged, (coarse.message, cold.message)
    assert warm.converged and warm.residual <= 1e-8, warm.message
    assert [(lv.cells, lv.start) for lv in warm.levels] == [(fine, cells)]
    assert [s.gamma for s in warm.stages] == [solver._schedule(p.p_minus)[-1]]
    assert warm.stages[0].reason == "tolerance"
    scale = np.abs(cold.u.values).max()
    assert np.abs(warm.u.values - cold.u.values).max() <= 1e-6 * scale
    assert warm.iterations < cold.iterations, (warm.stages, cold.stages)

    # one level from the same start, not final_only, runs the whole schedule
    guess = coarse.u.grid.interpolate(coarse.u.values, g.node_coords)
    start = GridFunction(g, np.where(g.boundary_node_mask[:, None], bnd.values, guess))
    full = solver._solve_level(G, p, start, 1e-8, 200, final_only=False)
    assert [s.gamma for s in full.stages] == list(solver._schedule(p.p_minus))
    assert full.converged


def test_stage_reports_factorization_time_and_fill(matched32):
    # a step is factored, or a reuse of the held factor, or a fallback;
    # factor_s and fill count the stages' own factorizations only
    stages = matched32["result"].stages
    assert any(s.steps > s.reuses + s.fallbacks for s in stages), stages
    for s in stages:
        if s.steps > s.reuses + s.fallbacks:  # a stage that factored
            assert s.factor_s > 0.0
            # the factors of the 31^2 free nodes hold at least their
            # diagonal, and nested dissection keeps them far from dense
            assert 31**2 <= s.fill < 31**4 // 10
        else:
            assert s.fill == 0, s


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 3), N=st.sampled_from([1, 2]), gamma=st.sampled_from([1.0, 1e-8]),
       data=st.data())
def test_matrix_free_hessian_matches_assembled(dim, N, gamma, data):
    # the reuse steps apply the free-dof Hessian cell by cell from its
    # element coefficients, without forming the element matrices; it must be
    # the product of the SciPy-assembled free block in elimination order
    cells = data.draw(st.tuples(*[st.integers(2, 5)] * dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = Grid(dim, (0.0,) * dim, tuple(rng.uniform(0.5, 2.0, dim)), cells)
    p = ExponentField(GridFunction(g, rng.uniform(1.1, 3.0, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)))
    params = FluxParams(gamma)
    elim = solver._Elimination(g, N)
    sel = elim.sel
    x = rng.normal(size=sel.size)
    want = assembled_hessian(u, p, params)[sel][:, sel] @ x
    got = elim.matvec(*_hessian_coefficients(_iterate(u), p, params))(x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _matvec_reference(elim, C, w, s1, s2, x):
    # the matvec as one expression: four (cells, 2^dim N) arrays at once
    xe = np.zeros(elim.n + 1)
    xe[:elim.n] = x
    x_cell = xe[elim.element_dofs]
    y = s1[:, None] * (x_cell @ C)
    y += (s2 * np.einsum("ci,ci->c", x_cell, w))[:, None] * w
    return elim._sum_cells(y)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 3), N=st.integers(1, 3), data=st.data())
def test_matvec_gives_the_bytes_of_one_expression(dim, N, data):
    # the matvec writes the rank-one term into the room of the gathered x;
    # each entry goes through the same operations as in the one expression
    cells = data.draw(st.tuples(*[st.integers(2, 6)] * dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = Grid(dim, (0.0,) * dim, tuple(rng.uniform(0.5, 2.0, dim)), cells)
    p = ExponentField(GridFunction(g, rng.uniform(1.1, 3.0, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)))
    coefficients = _hessian_coefficients(_iterate(u), p, FluxParams(1e-2))
    elim = solver._Elimination(g, N)
    apply = elim.matvec(*coefficients)
    for _ in range(2):  # the gathered x's room is fresh on every call
        x = rng.normal(size=elim.n)
        assert apply(x).tobytes() == _matvec_reference(elim, *coefficients, x).tobytes()


@pytest.mark.parametrize("N", [1, 2])
def test_matvec_holds_two_cell_arrays(N):
    # at 128^2 one (cells, 4 N) array is 0.5 N MB: a CG matvec allocates
    # two of them plus vectors of cells or dofs, where the one expression
    # takes four
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (128, 128))
    rng = np.random.default_rng(N)
    p = ExponentField(GridFunction(g, rng.uniform(1.3, 2.8, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)))
    C, w, s1, s2 = _hessian_coefficients(_iterate(u), p, FluxParams(1e-2))
    elim = solver._Elimination(g, N)
    apply = elim.matvec(C, w, s1, s2)
    x = rng.normal(size=elim.n)
    tracemalloc.start()
    try:
        apply(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * w.nbytes + 2 * 8 * (g.num_cells + elim.n), peak


def test_held_factor_preconditions_cg():
    # preconditioned by the factor of the very matrix it solves, CG meets
    # any forcing term in one iteration, at the direct solve's answer
    g = Grid(3, (0.0,) * 3, (1.0,) * 3, (6, 5, 4))
    rng = np.random.default_rng(7)
    p = ExponentField(GridFunction(g, rng.uniform(1.3, 2.8, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=g.num_nodes))
    params = FluxParams(1e-2)
    elim = solver._Elimination(g, 1)
    sel = elim.sel
    H = assembled_hessian(u, p, params)[sel][:, sel].tocsc()
    grad = rng.normal(size=sel.size)
    stage = solver.StageStats(params.gamma)
    coefficients = _hessian_coefficients(_iterate(u), p, params)
    d = solver._cg_solve(elim.factor(energy_hessian(u, p, params)),
                         elim.matvec(*coefficients), grad, 1e-12, stage)
    assert stage.cg_iterations == 1
    want = spsolve(H, -grad)
    np.testing.assert_allclose(d, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def _counts(res):
    """Per stage: steps, reuses, fallbacks, CG iterations and fill."""
    return [(s.steps, s.reuses, s.fallbacks, s.cg_iterations, s.fill) for s in res.stages]


def _bump_3d():
    return _bump_solve((8, 8, 8), lambda g: constant_exponent(g, 1.5))[0]


def test_cg_cap_of_one_factors_every_newton_system(monkeypatch):
    # CG cannot meet its forcing term in one iteration, so every reuse misses
    # and the step is factored as before the factor was held; the answers
    # agree within the solver tolerance
    default = _bump_3d()
    assert sum(s.reuses for s in default.stages) > 0, default.stages
    monkeypatch.setattr(solver, "_CG_CAP", 1)
    capped = _bump_3d()
    assert default.converged and capped.converged, capped.message
    for s in capped.stages:
        assert s.reuses == 0 and s.fallbacks == 0, s
        if s.steps:
            assert s.factor_s > 0.0 and s.fill > 0, s
    # every step after the first tried one CG iteration on the held factor
    assert sum(s.cg_iterations for s in capped.stages) == capped.iterations - 1
    scale = np.abs(default.u.values).max()
    assert np.abs(capped.u.values - default.u.values).max() <= 1e-8 * scale


def test_newton_takes_each_fields_gradient_once(monkeypatch):
    # Du of the start and of each line-search trial is taken once: the
    # accepted trial's Du gives its energy gradient, the next stage's energy
    # and the next step's Hessian coefficients, and is never taken again
    from varexp import operator

    seen, gradient = [], operator.gradient

    def counted(u):
        seen.append(u.values.tobytes())
        return gradient(u)

    monkeypatch.setattr(operator, "gradient", counted)
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    _, G, bnd = manufactured_instance("bump", g)
    # one level: the cold ladder takes the gradient of each level's start
    res = solver._solve_level(G, constant_exponent(g, 1.3), bnd, 1e-8, 200, final_only=False)
    assert res.converged, res.message
    trials = sum(s.steps + s.backtracks for s in res.stages)
    assert sum(s.backtracks for s in res.stages) > 0 and len(res.stages) > 1
    assert len(seen) == 1 + trials, (len(seen), trials)
    assert len(set(seen)) == len(seen)


def test_solve_is_repeatable():
    # the held factor and the CG steps leave a fixed instance's bytes fixed
    first, second = _bump_3d(), _bump_3d()
    assert sum(s.reuses for s in first.stages) > 0, first.stages
    assert np.array_equal(first.u.values, second.u.values)
    assert _counts(first) == _counts(second)


def test_reuse_rule_reads_no_clock(monkeypatch):
    # when to reuse the held factor and when to refactor is decided on
    # counts: an erratic clock changes no field and no count
    steady = _bump_3d()
    rng = np.random.default_rng(3)
    monkeypatch.setattr(solver.time, "perf_counter", lambda: float(rng.uniform(-1e6, 1e6)))
    erratic = _bump_3d()
    assert np.array_equal(steady.u.values, erratic.u.values)
    assert _counts(steady) == _counts(erratic)
