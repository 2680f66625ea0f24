"""Exponent fields and the log-Holder machinery."""

import math

import numpy as np
import pytest

from varexp.exponent import (
    ExponentField,
    log_holder_constant,
    oscillation_average,
    oscillation_record,
    select_comparison_exponent,
    vanishing_profile,
)
from varexp.grid import Box, Grid, GridFunction

E = math.e


def test_constant_field_basics():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    p = ExponentField.constant(g, 2.5)
    assert p.p_minus == p.p_plus == 2.5
    assert p.p_infinity_effective == 2.5
    np.testing.assert_allclose(p.cell_values, 2.5)
    rep = log_holder_constant(p, pair_budget=5000, seed=0)
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
    ExponentField.constant(g, 1.5).require_superlinear("test")  # fine


def test_cell_values_are_corner_averages():
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = ExponentField(GridFunction(g, np.array([1.0, 1.0, 1.0, 2.0, 2.0])))
    np.testing.assert_allclose(p.cell_values, [1.0, 1.0, 1.5, 2.0])


def test_three_node_log_holder_oracle():
    # 1/p = (0.5, 0.4, 0.45) at x = 0, 1, 2: the unit-distance pair (0, 1)
    # dominates with modulus 0.1 log(e + 1); with p_inf = 2 the decay part
    # of node 1 gives the same value.
    g = Grid(1, (0.0,), (2.0,), (2,))
    p = ExponentField(GridFunction(g, 1.0 / np.array([0.5, 0.4, 0.45])), 2.0)
    rep = log_holder_constant(p, pair_budget=10_000, seed=0)
    want = 0.1 * math.log(E + 1.0)
    assert rep.c_log_local == pytest.approx(want, rel=1e-12)
    assert rep.c_log_decay == pytest.approx(want, rel=1e-12)
    assert rep.c_log == pytest.approx(want, rel=1e-12)
    assert rep.p_scale_bound == pytest.approx(2.5**2 * want, rel=1e-12)
    assert rep.pair_count == 3 and not rep.subsampled


def test_log_holder_subsampling_flag():
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    p = ExponentField.from_function(g, lambda x: 2.0 + 0.1 * x[0])
    rep = log_holder_constant(p, pair_budget=500, seed=1)
    assert rep.subsampled and rep.pair_count <= 500
    assert rep.c_log >= 0.0


@pytest.mark.parametrize("budget", [500, 100_000])  # subsampled, all pairs
def test_report_profile_matches_separate_call(budget):
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (16, 16))
    p = ExponentField.from_function(
        g, lambda x: 2.0 + 0.3 * np.sin(3.0 * x[0]) * x[1], p_infinity=2.0)
    eps = (0.5, 0.2, 0.1, 0.05)
    rep = log_holder_constant(p, pair_budget=budget, seed=3, epsilons=eps)
    assert rep.vanishing_profile == vanishing_profile(p, eps, pair_budget=budget, seed=3)


def test_select_comparison_exponent_farthest_point():
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (8, 8))
    p = ExponentField.from_function(g, lambda x: 2.0 + 0.1 * x[0])
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
    p = ExponentField.constant(g, 2.0)
    with pytest.raises(ValueError):
        select_comparison_exponent(Box((10.0,), (11.0,)), p)


def test_oscillation_average():
    g = Grid(1, (0.0,), (1.0,), (8,))
    const = ExponentField.constant(g, 2.0)
    assert oscillation_average(g.domain, const) == 0.0
    lin = ExponentField.from_function(g, lambda x: 2.0 + x[0])
    assert oscillation_average(g.domain, lin) > 0.0
    with pytest.raises(ValueError):
        oscillation_average(g.domain, lin, s=0.5)


def test_oscillation_record_scale_bound():
    g = Grid(1, (0.0,), (1.0,), (8,))
    p = ExponentField.from_function(g, lambda x: 2.0 + 0.1 * x[0])
    c_log = log_holder_constant(p, pair_budget=10_000, seed=0).c_log
    rec = oscillation_record(Box((0.25,), (0.75,)), p, 1.0, c_log)
    assert rec.lhs == pytest.approx(oscillation_average(Box((0.25,), (0.75,)), p))
    R = 0.5
    denom = math.log(E + max(R, 1.0 / R, 0.5))
    assert rec.rhs_components["scale_bound"] == pytest.approx(
        p.p_plus**2 * c_log / denom)


def test_vanishing_profile_constant_exponent():
    g = Grid(1, (0.0,), (1.0,), (8,))
    p = ExponentField.constant(g, 2.0)
    prof = vanishing_profile(p, (0.5, 0.05), pair_budget=5000, seed=1)
    # constant exponents satisfy both conditions at every scale:
    # r = domain diameter, R = 0
    assert prof == [(0.5, 1.0, 0.0), (0.05, 1.0, 0.0)]


def test_vanishing_profile_unattainable_epsilon():
    g = Grid(1, (0.0,), (2.0,), (2,))
    p = ExponentField(GridFunction(g, 1.0 / np.array([0.5, 0.4, 0.45])), 2.0)
    prof = vanishing_profile(p, (0.5, 0.05), pair_budget=5000, seed=0)
    eps, r, R = prof[1]
    assert eps == 0.05 and r is None  # neighbour pairs already exceed 0.05
