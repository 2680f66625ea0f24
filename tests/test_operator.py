"""Flux nonlinearity, energy functional, derivatives, structure constants."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from varexp.exponent import ExponentField
from varexp.grid import CellField, Grid, GridFunction, region_weights
from varexp.operator import (
    FluxParams,
    coercivity_constant,
    energy,
    energy_gradient,
    energy_hessian,
    flux,
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


def c4(q: float) -> float:
    g = Grid(1, (0.0,), (1.0,), (2,))
    return coercivity_constant(ExponentField.constant(g, q))


def test_coercivity_constant_p2_closed_form():
    # p = 2: g(s) = s^2 + (1 - s)^2 has its minimum 1/2 at s = 1/2
    assert c4(2.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError, match="p- > 1"):
        c4(1.0)


@pytest.mark.parametrize("q", [1.05, 1.3, 1.7, 2.5, 4.0, 9.0])
def test_coercivity_constant_conjugate_symmetry(q):
    assert c4(q) == pytest.approx(c4(q / (q - 1.0)), rel=1e-10)


def test_coercivity_constant_matches_dense_brute_force():
    # sup of |z|^q / (|xi|^q + (A(z) - A(xi)).(z - xi)) over a dense polar
    # grid of xi at |z| = 1 (the ratio is homogeneous and rotation
    # invariant), with A the library's gamma = 0 flux
    rng = np.random.default_rng(11)
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (2, 2))
    x = np.zeros(2)
    t = np.linspace(1e-4, 1.5, 15_000)
    theta = np.linspace(0.0, np.pi, 91)
    tt, th = (a.ravel() for a in np.meshgrid(t, theta))
    xi = np.stack([tt * np.cos(th), tt * np.sin(th)], axis=1)
    z = np.tile([1.0, 0.0], (xi.shape[0], 1))
    for q in rng.uniform(1.2, 6.0, 4):
        p = ExponentField.constant(g, q)
        gap = np.einsum("nd,nd->n", flux(x, z, p, FluxParams(0.0)) - flux(x, xi, p, FluxParams(0.0)),
                        z - xi)
        brute = float((1.0 / (tt**q + gap)).max())
        exact = coercivity_constant(p)
        assert brute <= exact * (1.0 + 1e-12)
        assert brute == pytest.approx(exact, rel=1e-5), q


def test_coercivity_constant_is_max_over_nodal_values():
    rng = np.random.default_rng(12)
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (6, 6))
    for lo, hi in ((1.2, 1.9), (2.1, 5.0), (1.1, 4.0)):
        p = ExponentField(GridFunction(g, rng.uniform(lo, hi, g.num_nodes)))
        every = max(c4(v) for v in np.unique(p.values))
        assert coercivity_constant(p) == pytest.approx(every, rel=1e-12)


def test_monte_carlo_sampler_never_exceeds_coercivity_constant():
    # the c4 part of the sampler that auto-kappa used before the exact
    # constant, at gamma = 0: log-uniform magnitudes in [1e-6, 1e6], uniform
    # directions and positions; a sampled ratio is a lower bound of the sup
    rng = np.random.default_rng(13)
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (8, 8))
    p = ExponentField(GridFunction(g, 1.3 + rng.uniform(0.0, 2.5, g.num_nodes)))
    M = 20_000
    xs = -1.0 + 2.0 * rng.random((M, 2))
    px = p.at(xs)

    def sample():
        v = rng.normal(size=(M, 2))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v * 10.0 ** rng.uniform(-6.0, 6.0, M)[:, None]

    z, xi = sample(), sample()
    rz, rxi = np.linalg.norm(z, axis=1), np.linalg.norm(xi, axis=1)
    Az, Axi = (rz ** (px - 2.0))[:, None] * z, (rxi ** (px - 2.0))[:, None] * xi
    denom = rxi**px + np.einsum("nd,nd->n", Az - Axi, z - xi)
    ok = denom > 1e-300
    sampled = float((rz[ok] ** px[ok] / denom[ok]).max())
    exact = coercivity_constant(p)
    assert 1.0 < sampled <= exact * (1.0 + 1e-9)
