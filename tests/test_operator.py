"""Flux nonlinearity, energy functional, derivatives, structure constants."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from varexp.exponent import ExponentField
from varexp.grid import CellField, Grid, GridFunction, region_weights
from varexp.operator import (
    FluxParams,
    energy,
    energy_gradient,
    energy_hessian,
    flux,
    structure_fit,
)


def test_flux_params_validation():
    with pytest.raises(ValueError):
        FluxParams(-1.0)


def test_flux_closed_forms():
    g = Grid(1, (0.0,), (1.0,), (4,))
    x = np.array([0.5])
    p3 = ExponentField.constant(g, 3.0)
    # gamma = 0: |z|^{p-2} z
    assert flux(x, np.array([2.0]), p3, FluxParams(0.0)) == pytest.approx(4.0)
    assert flux(x, np.array([0.0]), p3, FluxParams(0.0)) == 0.0
    p2 = ExponentField.constant(g, 2.0)
    np.testing.assert_allclose(
        flux(x, np.array([-1.7]), p2, FluxParams(0.0)), -1.7)
    # gamma > 0: (gamma^2 + |z|^2)^{(p-2)/2} z
    got = flux(x, np.array([2.0]), p3, FluxParams(1.0))
    assert got == pytest.approx(np.sqrt(5.0) * 2.0, rel=1e-13)


def test_flux_batch_shape():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    p = ExponentField.from_function(g, lambda x: 2.0 + x[0])
    z = np.random.default_rng(0).normal(size=(10, 2))
    out = flux(np.array([0.5, 0.5]), z, p, FluxParams(0.0))
    assert out.shape == (10, 2)


def test_energy_closed_form_p2():
    # p = 2, gamma = 0, u affine, G constant: J = |a|^2/2 - G . a
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    p = ExponentField.constant(g, 2.0)
    u = GridFunction.from_function(g, lambda x: 3.0 * x[0] - 1.0 * x[1])
    G = CellField(g, np.tile(np.array([0.5, 2.0]), (g.num_cells, 1, 1)).reshape(g.num_cells, 1, 2))
    J = energy(u, G, p, FluxParams(0.0))
    assert J == pytest.approx(10.0 / 2.0 - (0.5 * 3.0 - 2.0), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for gamma in (0.0, 1.0, 1e-2):
        for p_lo in (1.5, 2.0, 3.0):
            dim = int(rng.integers(1, 3))
            g = Grid(dim, (0.0,) * dim, (1.0,) * dim, (4,) * dim)
            p = ExponentField(
                GridFunction(g, p_lo + rng.uniform(0, 0.5, g.num_nodes)))
            u = GridFunction(g, rng.normal(size=g.num_nodes))
            G = CellField(g, rng.normal(size=(g.num_cells, 1, dim)))
            params = FluxParams(gamma)
            grad = energy_gradient(u, G, p, params).values.ravel()
            v = rng.normal(size=g.num_nodes)
            v /= np.linalg.norm(v)
            eps = 1e-6
            up = GridFunction(g, u.values[:, 0] + eps * v)
            dn = GridFunction(g, u.values[:, 0] - eps * v)
            fd = (energy(up, G, p, params) - energy(dn, G, p, params)) / (2 * eps)
            assert abs(grad @ v - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hessian_matches_gradient_differences(dim, N):
    rng = np.random.default_rng(5)
    g = Grid(dim, (0.0,) * dim, (1.0, 0.7, 1.3)[:dim], (4, 3, 2)[:dim])
    p = ExponentField(GridFunction(g, 2.0 + rng.uniform(0, 1, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)))
    params = FluxParams(1e-1)
    H = energy_hessian(u, p, params)
    v = rng.normal(size=(g.num_nodes, N))
    v /= np.linalg.norm(v)
    eps = 1e-6
    G0 = CellField(g, np.zeros((g.num_cells, N, dim)))
    gp = energy_gradient(GridFunction(g, u.values + eps * v), G0, p, params)
    gm = energy_gradient(GridFunction(g, u.values - eps * v), G0, p, params)
    fd = (gp.values.ravel() - gm.values.ravel()) / (2 * eps)
    np.testing.assert_allclose(H @ v.ravel(), fd, rtol=1e-5, atol=1e-8)


def test_hessian_positive_semidefinite():
    rng = np.random.default_rng(19)
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    p = ExponentField(GridFunction(g, 1.6 + rng.uniform(0, 1.5, g.num_nodes)))
    u = GridFunction(g, rng.normal(size=g.num_nodes))
    H = energy_hessian(u, p, FluxParams(0.5))
    lo = eigsh(H.tocsc(), k=1, which="SA", return_eigenvectors=False)[0]
    assert lo >= -1e-10


def test_monotonicity_of_flux():
    # (A(x,z) - A(x,w)) . (z - w) >= 0 up to roundoff, with and without gamma
    rng = np.random.default_rng(101)
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (4, 4))
    p = ExponentField(GridFunction(g, 1.5 + rng.uniform(0, 1.5, g.num_nodes)))
    for params in (FluxParams(0.0), FluxParams(1.0), FluxParams(1e-2)):
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            z = rng.normal(size=(2000, 2))
            w = rng.normal(size=(2000, 2))
            gap = np.einsum(
                "nd,nd->n",
                flux(x, z, p, params) - flux(x, w, p, params), z - w)
            assert gap.min() >= -1e-12


def test_monotonicity_large_magnitudes_relative():
    # at magnitudes ~1e6 the pairing is positive up to relative roundoff
    rng = np.random.default_rng(3)
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = ExponentField.constant(g, 3.0)
    x = np.array([0.5])
    z = rng.normal(size=(500, 1)) * 10.0 ** rng.uniform(-6, 6, (500, 1))
    w = rng.normal(size=(500, 1)) * 10.0 ** rng.uniform(-6, 6, (500, 1))
    gap = np.einsum("nd,nd->n",
                    flux(x, z, p, FluxParams(0.0)) - flux(x, w, p, FluxParams(0.0)),
                    z - w)
    scale = (np.abs(z) + np.abs(w)).ravel() ** 3
    assert (gap >= -1e-12 * np.maximum(scale, 1.0)).all()


def test_structure_fit_p2_constants():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    p = ExponentField.constant(g, 2.0)
    fit = structure_fit(p, FluxParams(0.0), sample_budget=30_000, seed=0)
    # A(x, z) = z: growth and coercivity ratios are exactly 1
    assert fit.c1 == pytest.approx(1.0, abs=1e-9)
    assert fit.c2 == pytest.approx(1.0, abs=1e-9)
    assert fit.c4 <= 2.0 + 1e-6
    assert fit.kappa(2) == pytest.approx(8.0 * fit.c4)
    assert fit.samples == 30_000
    assert set(fit.worst_case) >= {"c1", "c2", "c3", "c4"}  # witnesses recorded


def test_structure_fit_reproducible():
    g = Grid(1, (-1.0,), (2.0,), (8,))
    p = ExponentField.from_function(g, lambda x: 2.0 + 0.3 * x[0] ** 2)
    a = structure_fit(p, FluxParams(0.0), sample_budget=5000, seed=42)
    b = structure_fit(p, FluxParams(0.0), sample_budget=5000, seed=42)
    assert (a.c1, a.c2, a.c3, a.c4) == (b.c1, b.c2, b.c3, b.c4)
