"""Exponent fields and the log-Holder machinery."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp.exponent import (
    ExponentField,
    _offset_sweep,
    log_holder_constant,
    select_comparison_exponent,
    vanishing_profile,
)
from varexp.grid import Box, Grid, GridFunction

from conftest import constant_exponent

E = math.e


def test_constant_field_basics():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    p = constant_exponent(g, 2.5)
    assert p.p_minus == p.p_plus == 2.5
    assert p.p_infinity_effective == 2.5
    np.testing.assert_allclose(p.cell_values, 2.5)
    rep = log_holder_constant(p)
    assert rep.c_log == 0.0


def test_validation():
    g = Grid(1, (0.0,), (1.0,), (4,))
    with pytest.raises(ValueError):
        ExponentField(GridFunction(g, np.full(5, 0.9)))  # p < 1
    with pytest.raises(ValueError):
        ExponentField(GridFunction(g, np.full((5, 2), 2.0)))  # not scalar
    with pytest.raises(ValueError):
        ExponentField(GridFunction(g, np.full(5, 2.0)), p_infinity=0.5)
    p1 = ExponentField(GridFunction(g, np.full(5, 1.0)))
    with pytest.raises(ValueError, match="p- > 1"):
        p1.require_superlinear("test")
    constant_exponent(g, 1.5).require_superlinear("test")  # fine


def test_cell_values_are_corner_averages():
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = ExponentField(GridFunction(g, np.array([1.0, 1.0, 1.0, 2.0, 2.0])))
    np.testing.assert_allclose(p.cell_values, [1.0, 1.0, 1.5, 2.0])
    # computed once per field, and read-only, so no caller can change it
    assert p.cell_values is p.cell_values
    with pytest.raises(ValueError):
        p.cell_values[0] = 3.0


def test_three_node_log_holder_oracle():
    # 1/p = (0.5, 0.4, 0.45) at x = 0, 1, 2: the unit-distance pair (0, 1)
    # dominates with modulus 0.1 log(e + 1); with p_inf = 2 the decay part
    # of node 1 gives the same value.
    g = Grid(1, (0.0,), (2.0,), (2,))
    p = ExponentField(GridFunction(g, 1.0 / np.array([0.5, 0.4, 0.45])), 2.0)
    rep = log_holder_constant(p)
    want = 0.1 * math.log(E + 1.0)
    assert rep.c_log_local == pytest.approx(want, rel=1e-12)
    assert rep.c_log_decay == pytest.approx(want, rel=1e-12)
    assert rep.c_log == pytest.approx(want, rel=1e-12)
    assert rep.p_scale_bound == pytest.approx(2.5**2 * want, rel=1e-12)
    assert rep.pair_count == 3


@pytest.mark.parametrize("seed", [500, 100_000])  # nothing is sampled: seed is ignored
def test_report_profile_matches_separate_call(seed):
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (16, 16))
    X = g.node_coords.T
    p = ExponentField(GridFunction(g, 2.0 + 0.3 * np.sin(3.0 * X[0]) * X[1]), p_infinity=2.0)
    eps = (0.5, 0.2, 0.1, 0.05)
    rep = log_holder_constant(p, seed=seed, epsilons=eps)
    assert rep.vanishing_profile == vanishing_profile(p, eps)
    assert rep == log_holder_constant(p, epsilons=eps)


def brute_log_holder(p, epsilons):
    """c_log_local and the vanishing profile from their definitions, over
    every node pair (np.triu_indices).  A pair's distance is its lattice
    offset times h, as in the definitions: coordinate differences round
    differently for pairs of one offset."""
    g = p.grid
    lattice = np.indices(g.nodes_per_axis).reshape(g.dim, -1).T
    ii, jj = np.triu_indices(g.num_nodes, k=1)
    d = np.array([math.hypot(*row) for row in (lattice[jj] - lattice[ii]) * g.cell_size])
    a = 1.0 / p.values
    mod = np.abs(a[ii] - a[jj]) * np.log(E + 1.0 / d)
    norms = np.linalg.norm(g.node_coords, axis=1)
    minnorm = np.minimum(norms[ii], norms[jj])
    dec = np.abs(a - 1.0 / p.p_infinity_effective) * np.log(E + norms)

    def smallest_above(values, violators):
        if violators.size == 0:
            return 0.0
        rest = values[values > violators.max()]
        return float(rest.min()) if rest.size else None

    profile = []
    for eps in epsilons:
        viol = d[mod > eps]
        if viol.size == 0:
            r = float(np.linalg.norm(g.extent))
        else:
            below = d[d < viol.min()]
            r = float(below.max()) if below.size else None
        R_node = smallest_above(norms, norms[dec > eps])
        R_pair = smallest_above(minnorm, minnorm[mod > eps])
        R = None if R_node is None or R_pair is None else max(R_node, R_pair)
        profile.append((eps, r, R))
    return float(mod.max()), profile


def _close(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0))


@st.composite
def exponents(draw):
    dim = draw(st.integers(1, 3))
    top = {1: 40, 2: 9, 3: 4}[dim]
    cells = tuple(draw(st.integers(2, top)) for _ in range(dim))
    origin = tuple(draw(st.floats(-3.0, 1.0)) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 4.0)) for _ in range(dim))
    g = Grid(dim, origin, extent, cells)
    amp, noise = draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 0.15))
    freq = np.array([draw(st.floats(0.0, 6.0)) for _ in range(dim)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = g.node_coords
    values = 2.0 + amp * np.sin(x @ freq) + noise * rng.uniform(-1.0, 1.0, g.num_nodes)
    p_inf = draw(st.none() | st.floats(1.5, 3.0))
    return ExponentField(GridFunction(g, values), p_inf)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(p=exponents(), fractions=st.lists(st.floats(0.02, 1.2), max_size=5))
def test_log_holder_exact_over_all_pairs(p, fractions):
    # epsilons as fractions of the largest modulus reach every regime of r
    # and R: unattainable, grid-quantized, diameter and 0
    c_local = brute_log_holder(p, [])[0]
    epsilons = [f * c_local for f in fractions]
    profile = brute_log_holder(p, epsilons)[1]
    rep = log_holder_constant(p, epsilons=epsilons)
    assert math.isclose(rep.c_log_local, c_local, rel_tol=1e-12, abs_tol=0.0)
    n = p.grid.num_nodes
    assert rep.pair_count == n * (n - 1) // 2
    assert len(rep.vanishing_profile) == len(profile)
    for (eps, r, R), (_, r_want, R_want) in zip(rep.vanishing_profile, profile):
        assert _close(r, r_want), (eps, r, r_want)
        assert _close(R, R_want), (eps, R, R_want)


def offset_loop_sweep(p, epsilons):
    """_offset_sweep as one Python iteration per lattice offset, the loop
    the batched sweep replaced: the same arithmetic, so the same bytes."""
    g = p.grid
    shape = g.nodes_per_axis
    alpha = (1.0 / p.values).reshape(shape)
    norms = np.linalg.norm(g.node_coords, axis=1).reshape(shape)
    h = g.cell_size
    eps = np.asarray(epsilons, dtype=float)
    reach = np.full(eps.size, -np.inf)
    dist, top = [], []
    for delta in itertools.product(*(range(1 - n, n) for n in shape)):
        if next((d for d in delta if d), 0) <= 0:
            continue  # delta = 0, or its mirror -delta covers these pairs
        lo = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(delta, shape))
        hi = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(delta, shape))
        length = math.hypot(*(d * hk for d, hk in zip(delta, h)))
        factor = math.log(E + 1.0 / length)
        diff = np.abs(alpha[hi] - alpha[lo]).ravel()
        dist.append(length)
        top.append(float(diff.max()) * factor)
        live = eps < top[-1]
        if live.any():
            minnorm = np.minimum(norms[lo], norms[hi]).ravel()
            live &= reach < minnorm.max()
            if live.any():
                hit = diff * factor > eps[live, None]
                reach[live] = np.maximum(reach[live], np.where(hit, minnorm, -np.inf).max(axis=1))
    return np.asarray(dist), np.asarray(top), reach


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(p=exponents(), constant=st.booleans())
def test_offset_sweep_matches_offset_loop(p, constant):
    if constant:
        p = constant_exponent(p.grid, 1.8)
    dist, top, _ = offset_loop_sweep(p, [])
    shortest = float(top[dist == dist.min()].max())
    # epsilons that never bind, that bind only down to the shortest offsets,
    # and one that binds at almost every pair
    epsilons = [2.0 * float(top.max()) + 1.0, np.nextafter(shortest, 0.0), 0.5 * shortest, 1e-4]
    want = offset_loop_sweep(p, epsilons)
    got = _offset_sweep(p, epsilons)
    for name, a, b in zip(("dist", "top", "reach"), got, want):
        assert np.array_equal(a, b), name


def test_log_holder_memory_is_o_nodes():
    # sampling 2M pairs took the process from about 38 MB to about 250 MB
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (64, 64))
    X = g.node_coords.T
    p = ExponentField(GridFunction(g, 2.15 + 0.85 * np.sin(2.0 * X[0]) * np.cos(1.5 * X[1])))
    tracemalloc.start()
    try:
        log_holder_constant(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_select_comparison_exponent_farthest_point():
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (8, 8))
    p = ExponentField(GridFunction(g, 2.0 + 0.1 * g.node_coords[:, 0]))
    # selection runs over grid nodes in 2Q; the four corners of 2Q are
    # nodes here, all equidistant, and the lexicographic tie-break picks
    # the smallest.
    y, pj = select_comparison_exponent(Box((-0.25, -0.25), (0.25, 0.25)), p)
    np.testing.assert_allclose(y, [-0.5, -0.5])
    assert pj == pytest.approx(1.95, rel=1e-12)
    # off-center cube with non-node corners: the farthest node wins
    y2, pj2 = select_comparison_exponent(Box((0.25, 0.25), (0.5, 0.5)), p)
    np.testing.assert_allclose(y2, [0.5, 0.5])
    assert pj2 == pytest.approx(2.05, rel=1e-12)


def test_select_comparison_requires_overlap():
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = constant_exponent(g, 2.0)
    with pytest.raises(ValueError):
        select_comparison_exponent(Box((10.0,), (11.0,)), p)


def test_vmo_oscillation_hand_case():
    # p = 2 + x on [0, 1], level-1 cubes [0, 1/2] and [1/2, 1]: p_j is p at
    # the far end of 2Q ∩ [0, 1] (2.75 and 3), the cell means of |p - p_j|
    # are 1/2 and 1/4, and both cubes have scale log(e + max{l, 1/l, |c|})
    # = log(e + 2)
    g = Grid(1, (0.0,), (1.0,), (8,))
    p = ExponentField(GridFunction(g, 2.0 + g.node_coords[:, 0]))
    assert log_holder_constant(p, vmo_levels=1).vmo_oscillation == pytest.approx(
        0.5 * math.log(E + 2.0), rel=1e-14)
    const = constant_exponent(g, 2.0)
    assert log_holder_constant(const, vmo_levels=1).vmo_oscillation == 0.0


def test_vanishing_profile_constant_exponent():
    g = Grid(1, (0.0,), (1.0,), (8,))
    p = constant_exponent(g, 2.0)
    prof = vanishing_profile(p, (0.5, 0.05))
    # constant exponents satisfy both conditions at every scale:
    # r = domain diameter, R = 0
    assert prof == [(0.5, 1.0, 0.0), (0.05, 1.0, 0.0)]


def test_vanishing_profile_unattainable_epsilon():
    g = Grid(1, (0.0,), (2.0,), (2,))
    p = ExponentField(GridFunction(g, 1.0 / np.array([0.5, 0.4, 0.45])), 2.0)
    prof = vanishing_profile(p, (0.5, 0.05))
    eps, r, R = prof[1]
    assert eps == 0.05 and r is None  # neighbour pairs already exceed 0.05
