"""Variable-exponent Lebesgue machinery: modular, Luxemburg gauge and the
decay weight."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp.exponent import ExponentField
from varexp.grid import Box, CellField, Grid, GridFunction, region_weights
from varexp.varlp import decay_weight, luxemburg_norm, modular

from conftest import constant_exponent

E = math.e


def random_grid(rng):
    dim = int(rng.integers(1, 3))
    cells = tuple(int(rng.integers(3, 9)) for _ in range(dim))
    origin = tuple(rng.uniform(-1, 0, dim))
    extent = tuple(rng.uniform(1, 3, dim))
    return Grid(dim, origin, extent, cells)


def test_modular_constant_exponent_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_grid(rng)
        f = CellField(g, rng.normal(size=g.num_cells))
        q = rng.uniform(1.0, 5.0)
        p = constant_exponent(g, q)
        w = region_weights(g, g.domain)
        want = float(np.sum(w * np.abs(f.values) ** q))
        assert modular(f, p, g.domain) == pytest.approx(want, rel=1e-13)


def test_luxemburg_constant_exponent_matches_lp_norm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_grid(rng)
        f = CellField(g, rng.normal(size=g.num_cells) * rng.uniform(0.1, 10))
        q = rng.uniform(1.05, 5.0)
        p = constant_exponent(g, q)
        res = luxemburg_norm(f, p, g.domain)
        w = region_weights(g, g.domain)
        want = float(np.sum(w * np.abs(f.values) ** q)) ** (1.0 / q)
        assert res.norm == pytest.approx(want, rel=1e-10)
        assert res.modular_at_norm <= 1.0 + 1e-12
        assert abs(res.modular_at_norm - 1.0) <= 1e-8


def test_luxemburg_two_exponent_hand_case():
    # |f| = 2 on two quarter-measure regions, p = 1 on one and p = 2 on the
    # other: modular(f/lam) = 1/(2 lam) + 1/lam^2 = 1 at lam = (1+sqrt17)/4.
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = ExponentField(GridFunction(g, np.array([1.0, 1.0, 1.0, 2.0, 2.0])))
    f = CellField(g, np.array([0.0, 2.0, 0.0, 2.0]))
    res = luxemburg_norm(f, p, g.domain)
    assert res.norm == pytest.approx((1.0 + math.sqrt(17.0)) / 4.0, abs=1e-8)


def test_luxemburg_overflowing_gauge_raises():
    # the gauge of |f| = 1e308 over (-1, 1)^2 at p = 2 is 2e308: the
    # bracket's upper end overflows to inf, where the modular is 0, and
    # halving inf never gets below it again
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (4, 4))
    p = constant_exponent(g, 2.0)
    with pytest.raises(ArithmeticError, match="float range"):
        luxemburg_norm(CellField(g, np.full(g.num_cells, 1e308)), p, g.domain)


def test_luxemburg_zero_field():
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = constant_exponent(g, 2.0)
    res = luxemburg_norm(CellField(g, np.zeros(4)), p, g.domain)
    assert res.norm == 0.0 and res.modular_at_norm == 0.0


def test_luxemburg_homogeneity_and_monotonicity():
    rng = np.random.default_rng(5)
    g = Grid(2, (0.0, 0.0), (1.0, 1.0), (6, 6))
    p = ExponentField(GridFunction(g, 2.0 + g.node_coords[:, 0]))
    for _ in range(10):
        vals = rng.normal(size=g.num_cells)
        f = CellField(g, vals)
        c = rng.uniform(0.1, 10.0)
        n1 = luxemburg_norm(f, p, g.domain).norm
        nc = luxemburg_norm(CellField(g, c * vals), p, g.domain).norm
        assert nc == pytest.approx(c * n1, rel=1e-9)
        # |f| <= |g| pointwise implies norm(f) <= norm(g)
        bigger = CellField(g, vals * rng.uniform(1.0, 2.0, g.num_cells))
        assert n1 <= luxemburg_norm(bigger, p, g.domain).norm + 1e-12


@st.composite
def luxemburg_cases(draw):
    """A 1-D or 2-D grid, an exponent in [1.05, 4] and a field with zeros."""
    dim = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(2, {1: 30, 2: 8}[dim])) for _ in range(dim))
    g = Grid(dim, (0.0,) * dim, tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim)), cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = ExponentField(GridFunction(g, rng.uniform(1.05, draw(st.floats(1.05, 4.0)), g.num_nodes)))
    vals = rng.normal(size=g.num_cells) * draw(st.floats(1e-3, 1e3))
    vals[rng.uniform(size=g.num_cells) < draw(st.floats(0.0, 0.5))] = 0.0
    return g, p, vals, rng


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=luxemburg_cases(), c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
def test_luxemburg_homogeneity_and_monotonicity_fuzzed(case, c):
    # the norm is the upper end of a bisection bracket of relative width
    # 1e-10 around the root, so each comparison allows that width twice
    g, p, vals, rng = case
    n1 = luxemburg_norm(CellField(g, vals), p, g.domain).norm
    nc = luxemburg_norm(CellField(g, c * vals), p, g.domain).norm
    assert math.isclose(nc, abs(c) * n1, rel_tol=2e-10, abs_tol=0.0)
    bigger = luxemburg_norm(CellField(g, vals * rng.uniform(1.0, 2.0, g.num_cells)),
                            p, g.domain).norm
    assert n1 <= bigger * (1.0 + 2e-10)


@st.composite
def lp_cases(draw):
    """A 1-D to 3-D grid, a field with zeros and a box that meets the
    domain: inside it, across its faces or around it."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.integers(2, {1: 30, 2: 8, 3: 4}[dim])) for _ in range(dim))
    origin = tuple(draw(st.floats(-2.0, 1.0)) for _ in range(dim))
    extent = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    g = Grid(dim, origin, extent, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=g.num_cells) * draw(st.floats(1e-3, 1e3))
    vals[rng.uniform(size=g.num_cells) < draw(st.floats(0.0, 0.5))] = 0.0
    lo = [o + e * draw(st.floats(-0.5, 0.9)) for o, e in zip(origin, extent)]
    hi = [max(a, o) + e * draw(st.floats(0.05, 1.5)) for a, o, e in zip(lo, origin, extent)]
    return g, CellField(g, vals), Box(tuple(lo), tuple(hi))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=lp_cases(), q=st.floats(1.0, 5.0))
def test_luxemburg_constant_exponent_is_the_lp_norm_fuzzed(case, q):
    # for constant p the gauge is the closed form (sum w |f|^p)^{1/p} over
    # the region; the norm is the upper end of a bracket of relative width
    # 1e-10 around the root, so it may sit that far above, plus rounding
    g, f, region = case
    w = region_weights(g, region)
    want = float(np.sum(w * np.abs(f.values) ** q)) ** (1.0 / q)
    res = luxemburg_norm(f, constant_exponent(g, q), region)
    assert math.isclose(res.norm, want, rel_tol=2e-10, abs_tol=0.0)
    assert res.modular_at_norm <= 1.0


def test_luxemburg_region_outside_domain_raises():
    g = Grid(1, (0.0,), (1.0,), (4,))
    p = constant_exponent(g, 2.0)
    with pytest.raises(ValueError):
        luxemburg_norm(CellField(g, np.ones(4)), p, Box((5.0,), (6.0,)))


def test_decay_weight_oracle():
    # cell center placed at |x| = e^2 - e gives (e + |x|)^{-4} = e^{-8}
    x0 = E**2 - E
    g = Grid(1, (x0 - 0.25,), (1.0,), (2,))
    h = decay_weight(g, 4.0)
    assert h.values[0] == pytest.approx(math.exp(-8.0), rel=1e-13)
    with pytest.raises(ValueError):
        decay_weight(g, 1.0)  # m must exceed the dimension
