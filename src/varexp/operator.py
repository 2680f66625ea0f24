"""The nonlinearity A(x, z) = |z|^{p(x)-2} z and its regularization.

The flux has the radial form A(z) = a(|z|) z with

    a(r) = (gamma^2 + r^2)^{(q-2)/2},   q = p(x),

which at gamma = 0 is the bare power flux r^{q-2} (with A(0) = 0).  Its
radial potential phi_q, with phi_q'(r) = a(r) r, gives the Dirichlet energy

    J(u) = integral of phi_{p(x)}(|Du|) - A(x, G) : Du

which is smooth and convex for gamma > 0 (and for gamma = 0 when p >= 2),
with exact analytic gradient and Hessian with respect to the nodal values.
Minimizers satisfy the discrete weak form div A(x, Du) = div A(x, G).

D is the grid's sparse gradient matrix B = Grid.gradient_matrix: the energy
gradient is B^T applied to the weighted flux residual, and the Hessian is
B^T (D B) with D block diagonal, one block dA/dz per cell.

coercivity_constant gives the V-coercivity constant c4 of the power flux
exactly, from a 1-D minimization at p- and p+; the good-lambda threshold
kappa = 2^{n+1} c4 is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import CellField, GridFunction, gradient

__all__ = [
    "FluxParams",
    "coercivity_constant",
    "flux",
    "energy",
    "energy_gradient",
    "energy_hessian",
]


@dataclass(frozen=True)
class FluxParams:
    """Regularization gamma >= 0 of A(z) = (gamma^2 + |z|^2)^{(p-2)/2} z."""
    gamma: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def _radial(params: FluxParams, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a(r) such that A(z) = a(|z|) z."""
    g = params.gamma
    q = np.broadcast_to(np.asarray(q, dtype=float), r.shape)
    if g > 0.0:
        return (g * g + r * r) ** ((q - 2.0) / 2.0)
    # gamma = 0: r^{q-2}, with A(0) = 0 by convention
    out = np.zeros_like(r)
    nz = r > 0.0
    out[nz] = r[nz] ** (q[nz] - 2.0)
    out[~nz] = np.where(q[~nz] == 2.0, 1.0, 0.0)
    return out


def _radial_slope(params: FluxParams, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a'(r)/r, the coefficient of z (x) z in dA/dz."""
    g = params.gamma
    q = np.broadcast_to(np.asarray(q, dtype=float), r.shape)
    if g > 0.0:
        return (q - 2.0) * (g * g + r * r) ** ((q - 4.0) / 2.0)
    out = np.zeros_like(r)
    nz = r > 0.0
    out[nz] = (q[nz] - 2.0) * r[nz] ** (q[nz] - 4.0)
    return out


def _magnitude(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...nd,...nd->...", z, z))


def _flux_batch(z: np.ndarray, q: np.ndarray, params: FluxParams) -> np.ndarray:
    """A(z) for a batch: z is (M, N, d), q is (M,)."""
    r = _magnitude(z)
    return _radial(params, r, q)[:, None, None] * z


def flux(x, z, p: ExponentField, params: FluxParams) -> np.ndarray:
    """Pointwise flux A(x, z) with q = p(x) interpolated at x.

    z may be a (d,) vector or an (N, d) matrix; the result has z's shape.
    The flux is exactly 0 at z = 0, also at gamma = 0 with p < 2.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    # one batch row per sample: each z-row is its own argument, not a
    # component block of a single Jacobian
    zz = z[None, None, :] if single else z[:, None, :]
    q = p.at(np.asarray(x, dtype=float)[None, :])
    out = _flux_batch(zz, np.broadcast_to(q, (zz.shape[0],)), params)
    return out[0, 0] if single else out[:, 0, :]


def _potential(params: FluxParams, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """phi_q(r) with phi_q'(r) = a(r) r and phi_q(0) = 0."""
    g = params.gamma
    if g > 0.0:
        return ((g * g + r * r) ** (q / 2.0) - g**q) / q
    return r**q / q


def energy(u: GridFunction, G: CellField, p: ExponentField, params: FluxParams) -> float:
    """J(u) = integral of phi_{p(x)}(|Du|) - A(x, G) : Du."""
    du = gradient(u).values
    q = p.cell_values
    pot = _potential(params, _magnitude(du), q)
    ag = _flux_batch(G.values, q, params)
    cross = np.einsum("cnd,cnd->c", ag, du)
    return float(np.sum(u.grid.cell_volume * (pot - cross)))


def energy_gradient(u: GridFunction, G: CellField, p: ExponentField,
                    params: FluxParams) -> GridFunction:
    """Exact gradient of J with respect to all nodal values, B^T applied to
    the weighted flux residual.

    The residual of the discrete weak form is this gradient restricted to
    the free (non-Dirichlet) nodes.
    """
    grid = u.grid
    du = gradient(u).values
    q = p.cell_values
    res = _flux_batch(du, q, params) - _flux_batch(G.values, q, params)
    res *= grid.cell_volume
    flat = res.transpose(0, 2, 1).reshape(-1, u.codomain_dim)  # rows c * dim + k
    return GridFunction(grid, grid.gradient_matrix.T @ flat)


def energy_hessian(u: GridFunction, p: ExponentField, params: FluxParams):
    """Sparse CSR Hessian B^T (D B) of J over all nodal dofs
    (dof = node * N + component); the data term is linear and drops out.

    D is block diagonal with one (dim N)^2 block a(r) I + (a'(r)/r) z (x) z
    per cell, z = Du there; for N > 1, B acts as kron(B, I_N).  For
    gamma > 0 (or p >= 2) the blocks are positive semidefinite, so the
    assembled matrix is as well.
    """
    from scipy import sparse

    grid = u.grid
    N = u.codomain_dim
    du = gradient(u).values  # (nc, N, d)
    q = p.cell_values
    r = _magnitude(du)
    s1 = _radial(params, r, q) * grid.cell_volume
    s2 = _radial_slope(params, r, q) * grid.cell_volume

    m = grid.dim * N
    z = du.transpose(0, 2, 1).reshape(-1, m)  # (k, n) order of kron(B, I_N) rows
    blocks = s1[:, None, None] * np.eye(m) + s2[:, None, None] * z[:, :, None] * z[:, None, :]
    nc = grid.num_cells
    D = sparse.bsr_matrix((blocks, np.arange(nc), np.arange(nc + 1)), shape=(nc * m, nc * m))
    B = grid.gradient_matrix
    if N > 1:
        B = sparse.kron(B, sparse.identity(N), format="csr")
    return B.T.tocsr() @ (D @ B)


# golden-section search on (0, 1): the step ratio and a fixed step count
# that shrinks the bracket below one ulp of 1
_GOLDEN = (5.0**0.5 - 1.0) / 2.0
_GOLDEN_STEPS = 80


def coercivity_constant(p: ExponentField) -> float:
    """V-coercivity constant c4 of the power flux A(z) = |z|^{p-2} z: the
    smallest c4 with |z|^q <= c4 |xi|^q + c4 (A(z) - A(xi)).(z - xi) for all
    z, xi and every value q of p.

    The ratio is homogeneous and rotation invariant, and its sup is taken at
    xi = s z with s in (0, 1), so c4(q) = 1 / min over s of
    g(s) = s^q + (1 - s^{q-1})(1 - s).  c4 decreases on (1, 2] and increases
    on [2, inf), so the max over p is max(c4(p-), c4(p+)).  g has one
    interior minimum; one vectorized golden-section search of fixed length
    finds both.
    """
    p.require_superlinear("coercivity_constant")
    q = np.array([p.p_minus, p.p_plus])

    def g(s):
        return s**q + (1.0 - s ** (q - 1.0)) * (1.0 - s)

    a, b = np.zeros(2), np.ones(2)
    for _ in range(_GOLDEN_STEPS):
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        left = g(c) < g(d)
        a, b = np.where(left, a, c), np.where(left, d, b)
    return float((1.0 / g(0.5 * (a + b))).max())


# the old name, kept only because perfbench/tracing.py wraps it by name; no
# program code calls it
structure_fit = coercivity_constant
