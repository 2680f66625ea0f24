"""Estimate chain: Caccioppoli, reverse Holder, the Gehring scan, and the
level-set route to higher integrability."""

import itertools

import numpy as np
import pytest

from varexp.dyadic import covering_threshold, default_kappa, default_max_level
from varexp.estimates import (
    caccioppoli_check,
    data_density,
    energy_density,
    gehring_scan,
    higher_integrability_check,
)
from varexp.estimates import reverse_holder_check
from varexp.exponent import ExponentField
from varexp.grid import (Box, CellField, Grid, GridFunction, gradient, integrate, mean_over,
                         region_weights)
from varexp.operator import coercivity_constant
from varexp.solver import manufactured_instance, solve_pxlaplace
from varexp.varlp import decay_weight

from conftest import constant_exponent, lattice_cubes


def flag_value(record, key):
    for f in record.flags:
        if f.startswith(key + "="):
            return float(f.split("=", 1)[1])
    raise AssertionError(f"flag {key} missing from {record.flags}")


def test_energy_density_closed_form(affine32):
    F = energy_density(affine32["u"], affine32["p"])
    np.testing.assert_allclose(F.values, 13.0, rtol=1e-12)  # |(3,-2)|^2


def test_data_density_default_decay(grid32, p_smooth):
    G = CellField(grid32, np.zeros((grid32.num_cells, 1, 2)))
    gh = data_density(G, p_smooth)
    h = decay_weight(grid32, 4.0)  # default m = 2n
    np.testing.assert_allclose(gh.values, h.values, rtol=1e-13)
    gh6 = data_density(G, p_smooth, m=6.0)
    assert (gh6.values <= gh.values).all()


def test_caccioppoli_matches_independent_quadrature(affine32):
    u, G, p = affine32["u"], affine32["G"], affine32["p"]
    g = affine32["grid"]
    Q = Box((-0.5, -0.5), (0.5, 0.5))
    rec = caccioppoli_check(u, G, p, Q)
    # independent replication on cell centers
    w = region_weights(g, Q)
    lhs = float(np.sum(w * 13.0))
    assert rec.lhs == pytest.approx(lhs, rel=1e-12)
    w2 = region_weights(g, Q.scaled(2.0))
    uc = u.at(g.cell_centers)[:, 0]
    ubar = float(np.sum(w2 * uc) / w2.sum())
    osc = float(np.sum(w2 * np.abs((uc - ubar) / Q.side) ** 2))
    assert rec.rhs_components["oscillation"] == pytest.approx(osc, rel=1e-12)
    assert rec.rhs_components["data"] == 0.0
    assert rec.empirical_constant == pytest.approx(lhs / osc, rel=1e-12)


@pytest.mark.parametrize("cells", [(6,), (5, 4), (3, 4, 2)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_caccioppoli_takes_cell_centre_values_as_corner_means(cells, N):
    # u at a cell centre is the mean of the cell's 2^d corner values, summed
    # in corner order (first axis slowest): byte for byte the hand sum below,
    # with no coordinate arithmetic to perturb the 2^-d weights
    dim = len(cells)
    g = Grid(dim, (-1.0,) * dim, (2.0,) * dim, cells)
    rng = np.random.default_rng(sum(cells) + N)
    scale = 10.0 ** rng.uniform(-3, 3, (g.num_nodes, 1))
    u = GridFunction(g, rng.normal(size=(g.num_nodes, N)) * scale)
    p = ExponentField(GridFunction(g, 1.5 + rng.random(g.num_nodes)))
    Q = Box((-0.5,) * dim, (0.5,) * dim)
    fc = np.empty((g.num_cells, N))
    for cell, first in enumerate(itertools.product(*map(range, cells))):
        acc = 0.0
        for bits in itertools.product((0, 1), repeat=dim):
            node = np.ravel_multi_index(tuple(np.add(first, bits)), g.nodes_per_axis)
            acc = acc + u.values[node]
        fc[cell] = acc / 2**dim
    w = region_weights(g, Q.scaled(2.0))
    dev = np.linalg.norm(fc - (w @ fc) / w.sum(), axis=1) / Q.side
    want = integrate(CellField(g, dev**p.cell_values), Q.scaled(2.0))
    rec = caccioppoli_check(u, CellField(g, np.zeros((g.num_cells, N, dim))), p, Q)
    assert rec.rhs_components["oscillation"] == want


def test_caccioppoli_on_solved_instance(matched32):
    rec = caccioppoli_check(
        matched32["result"].u, matched32["G"], matched32["p"],
        Box((-0.5, -0.5), (0.5, 0.5)))
    assert 0.0 < rec.empirical_constant < 50.0


def test_reverse_holder_validation_and_affine(affine32):
    u, G, p = affine32["u"], affine32["G"], affine32["p"]
    Q = Box((-0.5, -0.5), (0.5, 0.5))
    for bad_s in (0.9, 2.0, 3.0):  # cap = min{2, p^-} = 2 in 2D
        with pytest.raises(ValueError):
            reverse_holder_check(u, G, p, Q, bad_s)
    rec = reverse_holder_check(u, G, p, Q, 1.5)
    # constant gradient: the lowered mean is the plain mean
    assert rec.lhs == pytest.approx(13.0, rel=1e-12)
    assert rec.rhs_components["lowered_energy"] == pytest.approx(13.0, rel=1e-12)
    assert rec.empirical_constant <= 1.0


def test_gehring_constant_field_unit_constant(affine32):
    # constant energy density: lhs equals the energy term of the rhs at
    # every mu, so the worst constant sits at (or just below) 1.
    res = gehring_scan(affine32["u"], affine32["G"], affine32["p"],
                       affine32["grid"].domain.scaled(0.5))
    assert res.mu_grid[0] == 1.0
    assert res.records[0].empirical_constant <= 1.0 + 1e-6
    assert res.m0 == 2.0  # every sampled mu verifies under the cap
    assert res.sigma == pytest.approx(res.m0 ** 0.25)
    assert res.cubes_tested > 0
    assert len(res.mu_grid) == len(res.records) == 8


def test_gehring_mu_one_dimensional_bound():
    # mean_Q F <= 2^n mean_{2Q} F is pure measure nesting: the mu = 1
    # constant never exceeds 2^n, whatever the field.
    rng = np.random.default_rng(37)
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    p = constant_exponent(g, 2.0)
    G0 = CellField(g, np.zeros((g.num_cells, 1, 2)))
    for _ in range(5):
        u = GridFunction(g, rng.normal(size=g.num_nodes))
        res = gehring_scan(u, G0, p, g.domain.scaled(0.5), steps=2)
        assert res.records[0].empirical_constant <= 2.0**g.dim + 1e-9


def test_gehring_m0_on_matched(matched32):
    res = gehring_scan(matched32["result"].u, matched32["G"], matched32["p"],
                       matched32["grid"].domain.scaled(0.5))
    assert res.m0 > 1.0
    assert np.isfinite([r.empirical_constant for r in res.records]).all()


def test_gehring_table_monotone_without_data(affine32):
    # with G = 0 and a non-constant gradient the lhs power mean grows in mu
    # while the energy term stays put: worst constants are non-decreasing.
    g = affine32["grid"]
    X = g.node_coords.T
    u = GridFunction(g, np.sin(X[0]) * X[1])
    res = gehring_scan(u, affine32["G"], affine32["p"], g.domain.scaled(0.5))
    consts = [r.empirical_constant for r in res.records]
    assert all(b >= a - 1e-9 for a, b in zip(consts, consts[1:]))


def brute_gehring(u, G, p, root, mu_max=2.0, steps=8, m=None):
    """Reference scan: one mean_over per cube, mu and term; the worst cube
    is the first whose constant strictly exceeds every earlier one."""
    g = u.grid
    m = 2.0 * g.dim if m is None else m
    pc, mag, gmag = p.cell_values, gradient(u).magnitude(), G.magnitude()
    h = decay_weight(g, m).values
    levels = range(1, max(2, default_max_level(root, g)) + 1)
    cubes = [b for lev, _, b in lattice_cubes(root, max(levels))
             if lev in levels and root.contains_box(b.scaled(2.0))]
    energy = CellField(g, mag**pc)
    table, worst_cubes = [], []
    for mu in np.linspace(1.0, mu_max, steps):
        lhs_f = CellField(g, mag ** (pc * mu))
        data_f = CellField(g, gmag ** (pc * mu) + h**mu)
        worst, row, cube = -1.0, None, None
        for qb in cubes:
            lhs = mean_over(lhs_f, qb) ** (1.0 / mu)
            rhs = mean_over(energy, qb.scaled(2.0)) + mean_over(data_f, qb.scaled(2.0)) ** (1.0 / mu)
            if lhs / rhs > worst:
                worst, row, cube = lhs / rhs, (float(mu), lhs, rhs, lhs / rhs), qb
        table.append(row)
        worst_cubes.append(cube)
    return table, worst_cubes, len(cubes)


def test_gehring_scan_matches_per_cube_oracle(matched32):
    rng = np.random.default_rng(41)
    g3 = Grid(3, (-1.0,) * 3, (2.0,) * 3, (8, 8, 8))
    X3 = g3.node_coords.T
    p3 = ExponentField(GridFunction(g3, 1.8 + 0.3 * X3[0] * X3[1]))
    u3 = GridFunction(g3, rng.normal(size=g3.num_nodes))
    G3 = CellField(g3, rng.normal(size=(g3.num_cells, 1, 3)))
    # roots off the symmetry axes of the instances: symmetric cubes tie
    # in exact arithmetic, and rounding would pick the worst one
    cases = [
        (matched32["result"].u, matched32["G"], matched32["p"],
         Box((-0.83, -0.61), (1.17, 1.39)), {}),
        (u3, G3, p3, Box((-0.45,) * 3, (0.55,) * 3), {"steps": 4}),
    ]
    for u, G, p, root, kw in cases:
        res = gehring_scan(u, G, p, root, cap=1.5, **kw)
        table, worst_cubes, count = brute_gehring(u, G, p, root, **kw)
        got = [(mu, r.lhs, r.rhs_sum, r.empirical_constant)
               for mu, r in zip(res.mu_grid, res.records)]
        np.testing.assert_allclose(got, table, rtol=1e-12, atol=0)
        assert [r.cube for r in res.records] == worst_cubes
        assert res.cubes_tested == count
        # m0 ends the leading run of passing mu
        lead = list(itertools.takewhile(lambda row: row[3] <= 1.5, table))
        assert res.m0 == (lead[-1][0] if lead else 1.0)


def test_higher_integrability_level_set_route(matched32):
    kappa = default_kappa(2.0, 2)
    rec = higher_integrability_check(
        matched32["result"].u, matched32["G"], matched32["p"], 2.0,
        matched32["grid"].domain.scaled(0.5), kappa)
    assert rec.empirical_constant > 0.0
    assert flag_value(rec, "sweep_rel_gap") < 0.05
    assert flag_value(rec, "lambda0") > 0.0
    # the reconstruction splits into a head below kappa*lambda0 and a tail
    head, tail = flag_value(rec, "head"), flag_value(rec, "tail")
    lhs_sweep = flag_value(rec, "lhs_sweep")
    assert head >= 0 and tail >= 0
    assert "level-set-route-mismatch" not in rec.flags
    with pytest.raises(ValueError):
        higher_integrability_check(
            matched32["result"].u, matched32["G"], matched32["p"], 0.5,
            matched32["grid"].domain.scaled(0.5), kappa)


def test_higher_integrability_flags_unused_tail():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (64, 64))
    p = constant_exponent(g, 1.7)
    _, G, bnd = manufactured_instance("bump", g)
    res = solve_pxlaplace(G, p, bnd)
    assert res.converged
    root = g.domain.scaled(0.5)
    auto = default_kappa(coercivity_constant(p), 2)  # 16.25
    rec = higher_integrability_check(res.u, G, p, 2.0, root, auto)
    assert "level-set-tail-unused" in rec.flags  # kappa*lambda0 above the peak of M*F
    # the tail starts at kappa*lambda0 on the M*F route, so it is exactly 0
    # here; summing it as total - head left 1.6e-7 and -1.1e-19
    for kappa, points in ((14.0, 64), (15.0, 256)):
        rec = higher_integrability_check(res.u, G, p, 2.0, root, kappa,
                                         sweep_points=points)
        assert "level-set-tail-unused" in rec.flags
        assert "tail=0" in rec.flags
    rec = higher_integrability_check(res.u, G, p, 2.0, root, 10.0)
    assert flag_value(rec, "tail") > 0.0
    assert "level-set-tail-unused" not in rec.flags
    assert "level-set-route-mismatch" not in rec.flags


def test_higher_integrability_lambda0_is_covering_threshold():
    # one route for lambda0: records.csv and goodlambda must agree bit for bit
    g = Grid(2, (-1.7, -2.3), (4.0, 4.0), (32, 32))
    X = g.node_coords.T
    p = ExponentField(GridFunction(g, 1.8 + 0.2 * np.sin(X[0]) * np.cos(X[1])))
    u = GridFunction(g, np.sin(2.0 * X[0]) * np.exp(-X[1] ** 2))
    G = CellField(g, np.zeros((g.num_cells, 1, 2)))
    root = g.domain.scaled(0.5)
    lam0 = covering_threshold(energy_density(u, p), root)
    rec = higher_integrability_check(u, G, p, 2.0, root, 10.0)
    assert rec.rhs_components["mean_energy"] == lam0
    assert f"lambda0={lam0:.12g}" in rec.flags
