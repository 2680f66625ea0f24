"""The nonlinearity A(x, z) = |z|^{p(x)-2} z and its regularization.

The flux has the radial form A(z) = a(|z|) z with

    a(r) = (gamma^2 + r^2)^{(q-2)/2},   q = p(x),

which at gamma = 0 is the bare power flux r^{q-2} (with A(0) = 0).  Its
radial potential phi_q, with phi_q'(r) = a(r) r, gives the Dirichlet energy

    J(u) = integral of phi_{p(x)}(|Du|) - A(x, G) : Du

which is smooth and convex for gamma > 0 (and for gamma = 0 when p >= 2),
with exact analytic gradient and Hessian with respect to the nodal values.
Minimizers satisfy the discrete weak form div A(x, Du) = div A(x, G).

D is the grid's cell-center gradient B (``grid.gradient`` and its
transpose): the energy gradient is B^T applied to the weighted flux
residual, and the Hessian is B^T (D B) with D block diagonal, one block
dA/dz per cell.  The Hessian has one definition, cell by cell:
_hessian_coefficients gives each cell's element matrix
B_c^T D_c B_c = s1 C + s2 w w^T as the shared C = (K K^T) (x) I_N and the
per-cell w, s1 and s2, and _ElementMatrices forms the matrices of any
set of cells from them.  energy_hessian forms the matrices of every cell;
the solver forms those of each batch of fronts as it sums them into its
frontal matrices, and its CG applies the same form to a vector on the
cells' free dofs without forming them.

All three read u only through Du and |Du| at the cell centers, taken once
per field by _iterate; the data flux A(x, G) depends on gamma alone.  The
public energy, energy_gradient and energy_hessian take both afresh on each
call.  The solver takes A(x, G) once per gamma stage and Du once per
field it visits: the start and each line-search trial.  The accepted
trial's Du then gives its energy gradient, the next stage's energy and
the next step's Hessian coefficients.

coercivity_constant gives the V-coercivity constant c4 of the power flux
exactly, from a 1-D minimization at p- and p+; the good-lambda threshold
kappa = 2^{n+1} c4 is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponent import ExponentField
from .grid import CellField, Grid, GridFunction, apply_gradient_transpose, gradient

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


@dataclass(frozen=True)
class _Iterate:
    """A nodal field's cell gradient Du, shape (cells, N, d), and |Du|,
    taken once and read by its energy, energy gradient and Hessian
    coefficients at every gamma."""
    grid: Grid
    du: np.ndarray
    r: np.ndarray


def _iterate(u: GridFunction) -> _Iterate:
    du = gradient(u).values
    return _Iterate(u.grid, du, _magnitude(du))


def _energy(it: _Iterate, ag: np.ndarray, p: ExponentField, params: FluxParams) -> float:
    """J at the iterate, given the data flux ag = A(x, G)."""
    pot = _potential(params, it.r, p.cell_values)
    cross = np.einsum("cnd,cnd->c", ag, it.du)
    return float(np.sum(it.grid.cell_volume * (pot - cross)))


def _energy_gradient(it: _Iterate, ag: np.ndarray, p: ExponentField,
                     params: FluxParams) -> np.ndarray:
    """The nodal values of J's gradient at the iterate, given ag = A(x, G)."""
    res = _radial(params, it.r, p.cell_values)[:, None, None] * it.du - ag
    res *= it.grid.cell_volume
    return apply_gradient_transpose(it.grid, res)


def energy(u: GridFunction, G: CellField, p: ExponentField, params: FluxParams) -> float:
    """J(u) = integral of phi_{p(x)}(|Du|) - A(x, G) : Du."""
    return _energy(_iterate(u), _flux_batch(G.values, p.cell_values, params), p, params)


def energy_gradient(u: GridFunction, G: CellField, p: ExponentField,
                    params: FluxParams) -> GridFunction:
    """Exact gradient of J with respect to all nodal values, B^T applied to
    the weighted flux residual.

    The residual of the discrete weak form is this gradient restricted to
    the free (non-Dirichlet) nodes.
    """
    ag = _flux_batch(G.values, p.cell_values, params)
    return GridFunction(u.grid, _energy_gradient(_iterate(u), ag, p, params))


def _hessian_coefficients(it: _Iterate, p: ExponentField, params: FluxParams):
    """The element matrices of the Hessian at the iterate in factored form:
    (C, w, s1, s2) with B_c^T D_c B_c = s1[c] C + s2[c] w[c] w[c]^T.

    D_c = a(r) |cell| I + (a'(r)/r) |cell| z (x) z with z = Du on cell c,
    so C = (K K^T) (x) I_N for the corner coefficients K = ``grad_coefs``,
    w = K z flattened to the dofs (corner b, component n) at index b N + n,
    s1 = a(r) |cell| and s2 = (a'(r)/r) |cell|.
    """
    grid, du, r = it.grid, it.du, it.r
    q = p.cell_values
    s1 = _radial(params, r, q) * grid.cell_volume
    s2 = _radial_slope(params, r, q) * grid.cell_volume
    K = grid.grad_coefs
    C = np.kron(K @ K.T, np.eye(du.shape[1]))
    w = np.einsum("bk,cnk->cbn", K, du).reshape(len(du), -1)
    return C, w, s1, s2


class _ElementMatrices:
    """The element matrices s1 C + s2 w w^T of ``_hessian_coefficients``,
    formed on demand, so a caller holds only the rows it reads.  ``E[cells]``
    gives the matrices of those cells, one product per entry for each term,
    and ``E.diagonal(axis1=1, axis2=2)`` the diagonals of all of them, with
    the same bytes as the diagonals of the formed matrices.  Both read as
    they do on a (cells, 2^dim N, 2^dim N) array."""

    def __init__(self, C: np.ndarray, w: np.ndarray, s1: np.ndarray, s2: np.ndarray):
        self.C, self.w, self.s1, self.s2 = C, w, s1, s2

    def __getitem__(self, cells) -> np.ndarray:
        w = self.w[cells]
        E = np.einsum("ci,cj->cij", w, w)
        E *= self.s2[cells, None, None]
        E += np.multiply.outer(self.s1[cells], self.C)
        return E

    def diagonal(self, axis1: int = 1, axis2: int = 2) -> np.ndarray:
        if (axis1, axis2) != (1, 2):
            raise ValueError("only the diagonals of the cell matrices are defined")
        D = self.w * self.w
        D *= self.s2[:, None]
        D += np.multiply.outer(self.s1, np.diagonal(self.C))
        return D


def energy_hessian(u: GridFunction, p: ExponentField, params: FluxParams) -> np.ndarray:
    """The Hessian of J cell by cell: the element matrices B_c^T D_c B_c,
    shape (cells, 2^dim N, 2^dim N), over the dofs (corner b, component n)
    at index b N + n, corners as in ``cell_corner_indices``.  The data term
    is linear and drops out.

    Each matrix is s1 C + s2 w w^T from ``_hessian_coefficients``, formed by
    ``_ElementMatrices`` over all cells.  Each is exactly symmetric, and for
    gamma > 0 (or p >= 2) positive semidefinite; their sum over the cells
    is the Hessian over all nodal dofs.
    """
    return _ElementMatrices(*_hessian_coefficients(_iterate(u), p, params))[:]


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
