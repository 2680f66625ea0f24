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

structure_fit measures the growth/coercivity/continuity constants of the
flux by seeded random sampling with log-uniform magnitudes, reporting the
sup-residual offsets h1, h2 rather than assuming them zero for gamma > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponent import ExponentField
from .grid import CellField, GridFunction, gradient

__all__ = [
    "FluxParams",
    "StructureFit",
    "flux",
    "structure_fit",
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


@dataclass
class StructureFit:
    c1: float
    c2: float
    c3: float
    c4: float
    h1_sup: float
    h2_sup: float
    samples: int
    worst_case: dict[str, dict] = field(default_factory=dict)

    def kappa(self, dim: int) -> float:
        """Good-lambda threshold factor 2^{n+1} c4."""
        return 2.0 ** (dim + 1) * self.c4


def structure_fit(p: ExponentField, params: FluxParams,
                  sample_budget: int = 20_000, seed: int = 0,
                  codomain_dim: int = 1) -> StructureFit:
    """Fit the structure constants of the flux by random sampling.

    Magnitudes |z|, |xi| are log-uniform in [1e-6, 1e6], directions uniform,
    positions x uniform over the grid domain (paired with positions y for
    the x-continuity constant).  Fitted quantities:

      c1  growth      |A(x,z)| <= c1 |z|^{p(x)-1} + h1       (ratio over |z| >= 1)
      c2  coercivity  A(x,z).z >= c2 |z|^{p(x)}  - h2        (ratio over |z| >= 1)
      c3  x-modulus   |A(x,z)-A(y,z)| <= c3 |p(x)-p(y)| |log|z||
                        (|z|^{p(x)-1} + |z|^{p(y)-1})
      c4  V-coercivity |z|^{p(x)} <= c4 |xi|^{p(x)}
                        + c4 (A(x,z)-A(x,xi)).(z-xi)

    h1, h2 are the sup-residuals of the fitted inequalities over all
    samples (identically 0 for the bare power flux, gamma = 0).  Degenerate
    fits (no admissible sample, e.g. c3 for constant exponents) report 0.
    """
    rng = np.random.default_rng(seed)
    M = int(sample_budget)
    d = p.grid.dim
    N = int(codomain_dim)

    lo = np.asarray(p.grid.domain.lo)
    sides = p.grid.domain.sides
    xs = lo + rng.random((M, d)) * sides
    ys = lo + rng.random((M, d)) * sides
    px, py = p.at(xs), p.at(ys)

    def sample_field() -> np.ndarray:
        v = rng.normal(size=(M, N, d))
        v /= np.maximum(_magnitude(v), 1e-300)[:, None, None]
        return v * 10.0 ** rng.uniform(-6.0, 6.0, size=M)[:, None, None]

    z = sample_field()
    xi = sample_field()
    rz, rxi = _magnitude(z), _magnitude(xi)
    Az = _flux_batch(z, px, params)
    Axi = _flux_batch(xi, px, params)
    Ayz = _flux_batch(z, py, params)

    def witness(ratios: np.ndarray, mask: np.ndarray) -> dict:
        if not mask.any():
            return {}
        idx = int(np.flatnonzero(mask)[np.argmax(ratios[mask])])
        return {"x": xs[idx].tolist(), "p(x)": float(px[idx]),
                "|z|": float(rz[idx]), "|xi|": float(rxi[idx]),
                "ratio": float(ratios[idx])}

    big = rz >= 1.0
    mag_az = _magnitude(Az)
    out: dict[str, dict] = {}

    ratios1 = np.zeros(M)
    ratios1[big] = mag_az[big] / rz[big] ** (px[big] - 1.0)
    c1 = float(ratios1[big].max()) if big.any() else 0.0
    out["c1"] = witness(ratios1, big)
    h1 = float(np.maximum(mag_az - c1 * np.where(rz > 0, rz, 1.0) ** (px - 1.0), 0.0).max())

    inner_zz = np.einsum("cnd,cnd->c", Az, z)
    ratios2 = np.full(M, np.inf)
    ratios2[big] = inner_zz[big] / rz[big] ** px[big]
    c2 = float(ratios2[big].min()) if big.any() else 0.0
    out["c2"] = witness(np.where(big, -ratios2, -np.inf), big)
    h2 = float(np.maximum(c2 * np.where(rz > 0, rz, 1.0) ** px - inner_zz, 0.0).max())

    denom3 = np.abs(px - py) * np.abs(np.log(np.where(rz > 0, rz, 1.0))) * (
        rz ** (px - 1.0) + rz ** (py - 1.0)
    )
    mask3 = denom3 > 1e-300
    ratios3 = np.zeros(M)
    if mask3.any():
        ratios3[mask3] = _magnitude(Az - Ayz)[mask3] / denom3[mask3]
    c3 = float(ratios3.max())
    out["c3"] = witness(ratios3, mask3)

    inner_v = np.einsum("cnd,cnd->c", Az - Axi, z - xi)
    denom4 = rxi**px + inner_v
    mask4 = denom4 > 1e-300
    ratios4 = np.zeros(M)
    ratios4[mask4] = rz[mask4] ** px[mask4] / denom4[mask4]
    c4 = float(ratios4.max()) if mask4.any() else 0.0
    out["c4"] = witness(ratios4, mask4)

    return StructureFit(c1, c2, c3, c4, h1, h2, M, out)
