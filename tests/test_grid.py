"""Geometry layer: boxes, grids, interpolation, gradients, quadrature."""

import tracemalloc

import numpy as np
import pytest

from varexp import grid as grid_module
from varexp.grid import (
    Box,
    CellField,
    Grid,
    GridFunction,
    apply_gradient_transpose,
    gradient,
    integrate,
    mean_over,
    region_weights,
)


def test_box_geometry():
    b = Box((0.0, 1.0), (2.0, 2.0))
    assert b.dim == 2
    assert np.allclose(b.sides, [2.0, 1.0])
    assert b.side == 2.0
    assert np.allclose(b.center, [1.0, 1.5])


def test_box_scaled_about_center():
    b = Box((0.0,), (1.0,))
    d = b.scaled(2.0)
    assert d.lo == (-0.5,) and d.hi == (1.5,)
    assert b.scaled(0.5).sides == pytest.approx([0.5])


def test_box_contains_and_intersect():
    b = Box((0.0, 0.0), (4.0, 4.0))
    assert b.contains_box(Box((1.0, 1.0), (2.0, 2.0)))
    assert b.contains_box(b)  # closure containment
    assert not b.contains_box(Box((3.0, 3.0), (5.0, 5.0)))
    assert b.contains_points((0.0, 0.0))
    assert not b.contains_points((4.1, 0.0))
    cut = b.intersect(Box((3.0, -1.0), (5.0, 1.0)))
    assert cut.lo == (3.0, 0.0) and cut.hi == (4.0, 1.0)
    assert b.intersect(Box((5.0, 5.0), (6.0, 6.0))) is None


def test_box_contains_points_matches_per_axis_check():
    b = Box((0.0, -1.0), (4.0, 1.0))
    tol = 1e-12 * 4.0  # relative to the longest edge
    pts = np.array([[0.0, 0.0], [4.0 + 0.5 * tol, 1.0], [4.0 + 2 * tol, 0.0],
                    [2.0, -1.0 - 0.5 * tol], [2.0, 1.5], [-1e-9, 0.0]])

    def inside(x, t):  # closure of each axis interval, widened by t
        return all(lo - t <= xk <= hi + t for xk, lo, hi in zip(x, b.lo, b.hi))

    mask = b.contains_points(pts)
    assert mask.tolist() == [True, True, False, True, False, False]
    assert mask.tolist() == [inside(x, tol) for x in pts]
    assert b.contains_points(np.zeros((0, 2))).shape == (0,)


def test_box_degenerate_raises():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def test_grid_counts_and_cells():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 4))
    assert g.nodes_per_axis == (9, 5)
    assert g.num_nodes == 45
    assert g.num_cells == 32
    assert np.allclose(g.cell_size, [0.5, 1.0])
    assert g.cell_volume == pytest.approx(0.5)
    assert g.domain.lo == (-2.0, -2.0) and g.domain.hi == (2.0, 2.0)
    assert Grid(2, (-2, -2), (4, 4), (8, 4)) == g  # integer arguments


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, (0.0, 0.0), (1.0, 1.0), (1, 4))  # too few cells
    with pytest.raises(ValueError):
        Grid(2, (0.0,), (1.0, 1.0), (4, 4))  # origin length


def test_grid_field_equality_and_hash():
    a = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    b = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    assert a == b and hash(a) == hash(b)
    assert a != Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 8))


def test_boundary_node_mask_count():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    mask = g.boundary_node_mask
    assert mask.sum() == g.num_nodes - 3 * 3  # 5x5 nodes, 3x3 interior


def test_interpolate_exact_on_multilinear():
    rng = np.random.default_rng(7)
    g = Grid(2, (-1.0, 0.0), (2.0, 3.0), (5, 4))
    X = g.node_coords.T
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        u = GridFunction(g, a + b * X[0] + c * X[1] + d * X[0] * X[1])
        pts = np.column_stack([rng.uniform(-1, 1, 30), rng.uniform(0, 3, 30)])
        want = a + b * pts[:, 0] + c * pts[:, 1] + d * pts[:, 0] * pts[:, 1]
        np.testing.assert_allclose(u.at(pts)[:, 0], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interpolate_chunks_give_the_same_bytes(dim, monkeypatch):
    # one point a chunk and the default chunk evaluate every point alike
    rng = np.random.default_rng(dim)
    g = Grid(dim, (-1.0,) * dim, (2.0,) * dim, (5, 4, 3)[:dim])
    values = rng.normal(size=(g.num_nodes, 2))
    pts = np.concatenate([g.node_coords, rng.uniform(-1.1, 1.1, (200, dim))])
    whole = g.interpolate(values, pts)
    monkeypatch.setattr(grid_module, "_INTERPOLATE_STEP", 1)
    assert g.interpolate(values, pts).tobytes() == whole.tobytes()


def test_interpolate_temporaries_do_not_grow_with_the_points():
    # beyond its (m, N) result, evaluating 10^5 points allocates a few
    # chunks' temporaries, not arrays of 2^dim entries per point
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    rng = np.random.default_rng(5)
    values = rng.normal(size=g.num_nodes)
    pts = rng.random((10**5, 2))
    tracemalloc.start()
    try:
        out = g.interpolate(values, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (10**5, 1)
    assert peak - out.nbytes <= 6 * 8 * grid_module._INTERPOLATE_STEP, peak


@pytest.mark.parametrize("dim, shape", [(1, (2,)), (1, (3, 2)), (1, (1, 1, 1)), (2, (3,)),
                                        (2, (4, 3)), (2, (2, 2, 2)), (2, ())])
def test_interpolate_rejects_malformed_points(dim, shape):
    # (m, dim) or one point (dim,) only: in 1-D, two points (2,) read as one
    # 2-D point used to give one wrong value
    g = Grid(dim, (0.0,) * dim, (1.0,) * dim, (4,) * dim)
    values = np.arange(g.num_nodes, dtype=float) ** 2
    with pytest.raises(ValueError, match="points must be"):
        g.interpolate(values, np.full(shape, 0.5))


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolate_takes_one_point_or_rows_of_points(dim):
    g = Grid(dim, (0.0,) * dim, (1.0,) * dim, (4,) * dim)
    values = np.arange(g.num_nodes, dtype=float) ** 2
    rows = np.full((3, dim), 0.25)
    assert g.interpolate(values, rows).shape == (3, 1)
    assert g.interpolate(values, rows[0]).tobytes() == g.interpolate(values, rows)[:1].tobytes()
    assert g.interpolate(values, np.empty((0, dim))).shape == (0, 1)


def test_gradient_bilinear_cell_oracle():
    # u = x*y on the unit square: the cell-center gradient of the first
    # cell of a 2x2 grid is (y, x) at (1/4, 1/4).
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (2, 2))
    X = g.node_coords.T
    u = GridFunction(g, X[0] * X[1])
    np.testing.assert_allclose(gradient(u).values[0, 0], [0.25, 0.25], atol=1e-14)


def test_gradient_exact_on_affine():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        g = Grid(dim, (-1.0,) * dim, (2.0,) * dim, (4,) * dim)
        coef = rng.normal(size=dim)
        u = GridFunction(g, coef @ g.node_coords.T + 1.0)
        du = gradient(u).values[:, 0, :]
        np.testing.assert_allclose(du, np.tile(coef, (g.num_cells, 1)), atol=1e-12)


def test_gradient_vector_codomain():
    g = Grid(1, (0.0,), (1.0,), (4,))
    X = g.node_coords.T
    u = GridFunction(g, np.stack([X[0], 2.0 * X[0]], axis=1))
    du = gradient(u).values
    assert du.shape == (4, 2, 1)
    np.testing.assert_allclose(du[:, 0, 0], 1.0)
    np.testing.assert_allclose(du[:, 1, 0], 2.0)


@pytest.mark.parametrize("cells", [(2,), (7,), (3, 4), (6, 5), (2, 3, 4), (5, 4, 3), (3, 3, 3)])
def test_cell_corner_indices_match_cell_loop(cells):
    # the corner table, computed from the row-major node strides, is a loop
    # over the cells that lists each corner by its per-axis node index,
    # corner bits in order: the same int64 entries, odd and even counts
    d = len(cells)
    grid = Grid(d, (0.0,) * d, (1.0,) * d, cells)
    nodes = tuple(c + 1 for c in cells)
    want = []
    for cell in np.ndindex(*cells):
        row = []
        for bits in np.ndindex(*(2,) * d):
            flat = 0
            for k in range(d):
                flat = flat * nodes[k] + cell[k] + bits[k]
            row.append(flat)
        want.append(row)
    got = grid.cell_corner_indices
    assert got.dtype == np.int64 and got.shape == (grid.num_cells, 2**d)
    assert np.array_equal(got, np.array(want, dtype=np.int64))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("grid", [
    Grid(1, (0.5,), (1.5,), (3,)),
    Grid(2, (-1.0, 0.0), (2.0, 0.6), (3, 4)),
    Grid(3, (0.0, -1.0, 0.0), (1.0, 0.5, 2.0), (2, 3, 4)),
])
def test_gradient_kernels_match_csr_and_loop_built_oracle(grid, N):
    # B as a CSR matrix from the corner table equals the dense B the p = 2
    # linear-solve oracles assemble cell by cell; the shifted-slice kernels
    # give the CSR products B u and B^T f to the byte, signed zeros included
    from scipy import sparse

    nc, nb = grid.cell_corner_indices.shape
    data = np.broadcast_to(grid.grad_coefs.T, (nc, grid.dim, nb)).reshape(-1)
    cols = np.broadcast_to(grid.cell_corner_indices[:, None, :], (nc, grid.dim, nb)).reshape(-1)
    B = sparse.csr_matrix((data, cols, np.arange(0, data.size + 1, nb)),
                          shape=(nc * grid.dim, grid.num_nodes))
    dense = np.zeros((nc, grid.dim, grid.num_nodes))
    for c, corners in enumerate(grid.cell_corner_indices):
        dense[c][:, corners] = grid.grad_coefs.T
    np.testing.assert_array_equal(B.toarray(), dense.reshape(-1, grid.num_nodes))

    rng = np.random.default_rng(11)
    u = rng.normal(size=(grid.num_nodes, N))
    f = rng.normal(size=(nc, N, grid.dim))
    u[rng.random(u.shape) < 0.3] = 0.0
    f[rng.random(f.shape) < 0.3] = -0.0
    want = np.ascontiguousarray((B @ u).reshape(nc, grid.dim, N).transpose(0, 2, 1))
    got = gradient(GridFunction(grid, u)).values
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    want_t = B.T @ f.transpose(0, 2, 1).reshape(-1, N)
    got_t = apply_gradient_transpose(grid, f)
    assert np.array_equal(got_t, want_t) and got_t.tobytes() == want_t.tobytes()


def test_region_weights_clip_partial_cells():
    g = Grid(1, (0.0,), (1.0,), (4,))
    w = region_weights(g, Box((0.125,), (0.5,)))
    np.testing.assert_allclose(w, [0.125, 0.25, 0.0, 0.0])
    assert region_weights(g, Box((0.9,), (2.0,))).sum() == pytest.approx(0.1)


def test_integrate_and_mean_closed_forms():
    g = Grid(1, (0.0,), (1.0,), (8,))
    f = CellField(g, g.cell_centers[:, 0])
    # midpoint quadrature is exact for linear integrands
    assert integrate(f, g.domain) == pytest.approx(0.5, abs=1e-15)
    assert mean_over(f, Box((0.0,), (0.5,))) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        mean_over(f, Box((5.0,), (6.0,)))  # region misses the domain


def test_grid_function_shapes():
    g = Grid(1, (0.0,), (1.0,), (4,))
    u = GridFunction(g, np.arange(5.0))
    assert u.values.shape == (5, 1)
    assert u.codomain_dim == 1
    with pytest.raises(ValueError):
        GridFunction(g, np.arange(4.0))  # node count mismatch


def test_cell_field_magnitude():
    g = Grid(1, (0.0,), (1.0,), (4,))
    f = CellField(g, np.full((4, 1, 1), -2.0))
    np.testing.assert_allclose(f.magnitude(), 2.0)
    s = CellField(g, np.array([3.0, -4.0, 0.0, 1.0]))
    np.testing.assert_allclose(s.magnitude(), [3.0, 4.0, 0.0, 1.0])
