"""Shared instances for the test suite.

The session-scoped fixtures hold solved instances that several modules
measure against; solving them once keeps the suite fast.
"""

import itertools

import numpy as np
import pytest

from varexp.exponent import ExponentField
from varexp.grid import Box, CellField, Grid, GridFunction
from varexp.operator import FluxParams, energy_hessian
from varexp.solver import manufactured_instance, solve_pxlaplace


def constant_exponent(grid: Grid, value: float) -> ExponentField:
    """p = value everywhere."""
    return ExponentField(GridFunction(grid, np.full(grid.num_nodes, float(value))))


def smooth_exponent(grid: Grid, amp: float = 0.12) -> ExponentField:
    """Gently oscillating exponent with measured c_log well below 0.1."""
    X = grid.node_coords.T
    return ExponentField(
        GridFunction(grid, 2.0 + amp * np.sin(0.5 * np.pi * X[0]) * np.sin(0.5 * np.pi * X[1])))


def cube_box(root: Box, level: int, index: tuple[int, ...]) -> Box:
    """Cube ``index`` of the level-``level`` dyadic lattice of ``root``: on
    each axis it starts ``index`` edges past the root's lower face, with an
    edge of the root's edge over 2^level."""
    edges = [(b - a) / 2**level for a, b in zip(root.lo, root.hi)]
    lo = [a + i * e for a, i, e in zip(root.lo, index, edges)]
    return Box(tuple(lo), tuple(x + e for x, e in zip(lo, edges)))


def box_mean(f: CellField, box: Box) -> float:
    """Mean of a scalar cell field over box ∩ domain, cell by cell: each
    cell [centre - h/2, centre + h/2] weighs the volume of its intersection
    with the box."""
    g = f.grid
    lo, hi = g.cell_centers - g.cell_size / 2, g.cell_centers + g.cell_size / 2
    w = np.prod(np.clip(np.minimum(hi, box.hi) - np.maximum(lo, box.lo), 0.0, None), axis=1)
    return float(w @ f.values / w.sum())


def lattice_cubes(root: Box, max_level: int) -> list[tuple[int, tuple[int, ...], Box]]:
    """(level, index, box) of every dyadic cube of ``root`` down to
    ``max_level``: levels in order, each level's indices row-major."""
    return [(lev, idx, cube_box(root, lev, idx)) for lev in range(max_level + 1)
            for idx in itertools.product(range(2**lev), repeat=root.dim)]


def constriction(amp: float) -> tuple[CellField, ExponentField, GridFunction]:
    """1D low-exponent strip: the minimizer's flux constancy concentrates
    the gradient inside the strip, an interior energy spike with zero data.

    Returns (G, p, boundary), the arguments of solve_pxlaplace.  J is
    about 1e6 at the minimizer, so the last steps run at J's rounding floor.
    """
    g = Grid(1, (-2.0,), (4.0,), (512,))
    w = 0.04
    p = ExponentField(GridFunction(g, 2.0 - amp * np.exp(-g.node_coords[:, 0] ** 2 / w**2)))
    bnd = GridFunction(g, 2394.0 * np.tanh(g.node_coords[:, 0] * 5.0))
    G = CellField(g, np.zeros((g.num_cells, 1, 1)))
    return G, p, bnd


def assembled_hessian(u: GridFunction, p: ExponentField, params: FluxParams):
    """The Hessian of J over all nodal dofs as a SciPy CSR matrix, summed
    from energy_hessian's element matrices at the dofs of each cell's
    corners (dof = node * N + component)."""
    from scipy import sparse

    E = energy_hessian(u, p, params)
    N = u.codomain_dim
    dofs = (u.grid.cell_corner_indices[:, :, None] * N + np.arange(N)).reshape(len(E), -1)
    rows = np.broadcast_to(dofs[:, :, None], E.shape).reshape(-1)
    cols = np.broadcast_to(dofs[:, None, :], E.shape).reshape(-1)
    n = u.grid.num_nodes * N
    return sparse.csr_matrix((E.reshape(-1), (rows, cols)), shape=(n, n))


def solved_matched(n: int) -> dict:
    grid = Grid(2, (-2.0, -2.0), (4.0, 4.0), (n, n))
    p = smooth_exponent(grid)
    u_star, G, boundary = manufactured_instance("matched", grid)
    result = solve_pxlaplace(G, p, boundary)
    assert result.converged, result.message
    return {"grid": grid, "p": p, "u_star": u_star, "G": G,
            "boundary": boundary, "result": result}


@pytest.fixture(scope="session")
def grid32():
    return Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))


@pytest.fixture(scope="session")
def p_smooth(grid32):
    return smooth_exponent(grid32)


@pytest.fixture(scope="session")
def matched32():
    return solved_matched(32)


@pytest.fixture(scope="session")
def matched64():
    return solved_matched(64)


@pytest.fixture(scope="session")
def affine32(grid32):
    """Affine state with zero data: an exact discrete critical point."""
    X = grid32.node_coords.T
    u = GridFunction(grid32, 3.0 * X[0] - 2.0 * X[1] + 0.5)
    G = CellField(grid32, np.zeros((grid32.num_cells, 1, 2)))
    p = constant_exponent(grid32, 2.0)
    return {"grid": grid32, "u": u, "G": G, "p": p}
