"""Dyadic lattice, localized maximal operator, covering, and good-lambda.

The maximal/covering oracles here are independent brute-force loops over
all lattice cubes, compared against the production implementations.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import dyadic
from varexp.dyadic import (
    DyadicCube,
    cz_cover,
    default_kappa,
    default_max_level,
    dyadic_lattice,
    good_lambda_measure,
    lattice_means,
    maximal_function,
)
from varexp.grid import Box, CellField, Grid, integrate, mean_over, region_weights


def brute_maximal(f, root, s, max_level):
    """Reference maximal function: loop over all cubes per cell center."""
    g = f.grid
    cubes = dyadic_lattice(root, max_level)
    tol = 1e-12 * max(root.side, 1.0)
    out = np.zeros(g.num_cells)
    lo, hi = np.asarray(root.lo), np.asarray(root.hi)
    power = np.abs(f.values) ** s
    for i, x in enumerate(g.cell_centers):
        if not (np.all(x >= lo - tol) and np.all(x <= hi + tol)):
            continue
        best = 0.0
        for q in cubes:
            b = q.box
            if np.all(x >= np.asarray(b.lo) - tol) and np.all(x <= np.asarray(b.hi) + tol):
                b2 = b.scaled(2.0)
                m = integrate(CellField(g, power), b2) / region_weights(g, b2).sum()
                best = max(best, m ** (1.0 / s))
        out[i] = best
    return out


def offset_loop_maximal(f, root, s, max_level):
    """Reference maximal function: each cell center in the root tries every
    one of the 3^d neighbour offsets of the cube holding it, keeping the
    cubes whose closure holds the center (ties on faces on both sides).
    Same lattice means and tie arithmetic as ``maximal_function``, so the
    two must agree exactly."""
    g = f.grid
    power = np.abs(f.values) ** s
    means = [lattice_means(power, g, root, lev, 2.0) ** (1.0 / s)
             for lev in range(max_level + 1)]
    tol = 1e-12 * max(root.side, 1.0)
    in_root = root.contains_points(g.cell_centers)  # the same tol
    out = np.zeros(g.num_cells)
    pts = g.cell_centers[in_root]
    best = np.zeros(pts.shape[0])
    for lev in range(max_level + 1):
        n_side = 2**lev
        sides = root.sides / n_side
        rel = (pts - np.asarray(root.lo)) / sides
        base = np.clip(np.floor(rel).astype(int), 0, n_side - 1)
        frac = rel - base
        ftol = tol / sides
        for off in itertools.product((-1, 0, 1), repeat=g.dim):
            cand = base + np.asarray(off)
            ok = np.ones(pts.shape[0], dtype=bool)
            for k in range(g.dim):
                if off[k] == -1:
                    ok &= (frac[:, k] <= ftol[k]) & (cand[:, k] >= 0)
                elif off[k] == 1:
                    ok &= (frac[:, k] >= 1.0 - ftol[k]) & (cand[:, k] <= n_side - 1)
            if ok.any():
                best[ok] = np.maximum(best[ok], means[lev][tuple(cand[ok].T)])
    out[in_root] = best
    return out


def test_lattice_counts():
    root2 = Box((0.0, 0.0), (1.0, 1.0))
    assert [len(dyadic_lattice(root2, d)) for d in (0, 1, 3)] == [1, 5, 85]
    root1 = Box((0.0,), (1.0,))
    assert [len(dyadic_lattice(root1, d)) for d in (0, 1, 3)] == [1, 3, 15]


def test_cube_geometry_and_children():
    root = Box((0.0, 0.0), (2.0, 2.0))
    q = DyadicCube(root, 1, (1, 0))
    assert q.box.lo == (1.0, 0.0) and q.box.hi == (2.0, 1.0)
    kids = q.children()
    assert len(kids) == 4
    assert sum(np.prod(k.box.sides) for k in kids) == pytest.approx(np.prod(q.box.sides))
    for k in kids:
        assert k.level == 2 and tuple(i // 2 for i in k.index) == q.index


def test_cube_validation():
    root = Box((0.0,), (1.0,))
    with pytest.raises(ValueError):
        DyadicCube(root, 1, (2,))  # index out of range


def test_default_max_level_resolves_to_cell_pairs():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))
    # root of 16 cells per side: the deepest default cube spans 2 cells
    assert default_max_level(g.domain.scaled(0.5), g) == 3
    g8 = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    assert default_max_level(g8.domain.scaled(0.5), g8) == 1


def test_maximal_function_equals_brute_force():
    rng = np.random.default_rng(2)
    for dim, cells in ((1, (16,)), (2, (8, 8))):
        g = Grid(dim, (-2.0,) * dim, (4.0,) * dim, cells)
        root = g.domain.scaled(0.5)
        for s in (1.0, 1.5):
            f = CellField(g, rng.uniform(0.0, 5.0, g.num_cells))
            got = maximal_function(f, root, s).values
            want = brute_maximal(f, root, s, default_max_level(root, g))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim,cells", [(1, (16,)), (2, (16, 8)), (3, (8, 8, 4))])
def test_maximal_function_equals_offset_loop(dim, cells):
    g = Grid(dim, (-2.0,) * dim, (4.0,) * dim, cells)
    # the second root's faces, and those of its cubes down to one cell
    # wide, pass through cell centers: the tie rule takes both sides
    q = np.asarray(cells) // 4
    lo = np.asarray(g.origin) + (q + 0.5) * g.cell_size
    roots = [
        Box((-0.93,) + (-0.71,) * (dim - 1), (0.61,) + (0.83,) * (dim - 1)),  # off the lattice
        Box(tuple(lo), tuple(lo + q * g.cell_size)),
        g.domain.scaled(0.5),
    ]
    rng = np.random.default_rng(11)
    for root in roots:
        for s in (1.0, 1.5):
            f = CellField(g, rng.uniform(-2.0, 5.0, g.num_cells))
            for max_level in range(3):
                got = maximal_function(f, root, s, max_level).values
                np.testing.assert_array_equal(got, offset_loop_maximal(f, root, s, max_level))


def test_lattice_means_match_mean_over():
    # roots off the cell lattice, so every cube edge cuts cells; at scale 2
    # some doubled cubes leave the domain and are averaged over the overlap
    rng = np.random.default_rng(5)
    for dim, cells, levels in ((1, (19,), 4), (2, (12, 10), 3), (3, (7, 6, 5), 2)):
        g = Grid(dim, (-1.0,) * dim, (2.0,) * dim, cells)
        root = Box((-0.93,) + (-0.71,) * (dim - 1), (0.61,) + (0.83,) * (dim - 1))
        f = CellField(g, rng.uniform(0.0, 3.0, g.num_cells))
        for scale in (1.0, 1.5, 2.0):
            for lev in range(levels + 1):
                got = lattice_means(f.values, g, root, lev, scale)
                assert got.shape == (2**lev,) * dim
                want = [mean_over(f, DyadicCube(root, lev, idx).box.scaled(scale))
                        for idx in np.ndindex(got.shape)]
                np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="outside domain"):
        lattice_means(f.values, g, Box((5.0,) * 3, (6.0,) * 3), 0, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_maximal_function_matches_brute_force_on_random_grids(dim, data):
    top = {1: 12, 2: 7, 3: 4}[dim]
    cells = tuple(data.draw(st.integers(2, top)) for _ in range(dim))
    origin = tuple(data.draw(st.floats(-3.0, 3.0)) for _ in range(dim))
    extent = tuple(data.draw(st.floats(0.5, 4.0)) for _ in range(dim))
    g = Grid(dim, origin, extent, cells)
    # a cube root whose double fits the domain: side <= half the shortest edge
    side = data.draw(st.floats(0.05, 1.0)) * min(extent) / 2.0
    lo = tuple(o + side / 2.0 + data.draw(st.floats(0.0, 1.0)) * (e - 2.0 * side)
               for o, e in zip(origin, extent))
    root = Box(lo, tuple(a + side for a in lo))
    s = data.draw(st.sampled_from((1.0, 1.5, 2.0)))
    max_level = data.draw(st.integers(0, 3 if dim < 3 else 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = CellField(g, rng.uniform(-2.0, 5.0, g.num_cells))
    got = maximal_function(f, root, s, max_level).values
    want = brute_maximal(f, root, s, max_level)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_maximal_function_zero_off_root():
    g = Grid(1, (-2.0,), (4.0,), (16,))
    root = g.domain.scaled(0.25)
    f = CellField(g, np.ones(16))
    mf = maximal_function(f, root, 1.0).values
    outside = ~((g.cell_centers[:, 0] >= root.lo[0]) & (g.cell_centers[:, 0] <= root.hi[0]))
    assert (mf[outside] == 0.0).all()
    assert (mf[~outside] > 0.0).all()


def test_maximal_function_validation():
    g = Grid(1, (-2.0,), (4.0,), (16,))
    f = CellField(g, np.ones(16))
    with pytest.raises(ValueError, match="doubled root"):
        maximal_function(f, g.domain, 1.0)  # 2*root exits the domain
    with pytest.raises(ValueError):
        maximal_function(f, g.domain.scaled(0.5), 0.0)


def test_cz_cover_sandwich_disjoint_and_covers():
    rng = np.random.default_rng(9)
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    root = g.domain.scaled(0.5)
    n = g.dim
    for _ in range(25):
        f = CellField(g, rng.uniform(0.0, 1.0, g.num_cells) ** 2)
        lam0 = mean_over(f, root.scaled(2.0))
        lam = lam0 * rng.uniform(1.0, 4.0)
        cover = cz_cover(f, root, lam)
        seen = set()
        for q in cover.cubes:
            m2 = mean_over(f, q.box.scaled(2.0))
            assert lam < m2 <= 2.0**n * lam * (1 + 1e-12)
            assert q.level > 0  # proper sub-cubes
            # disjoint: dyadic cubes of one tree intersect only by nesting
            for lev, idx in seen:
                if lev <= q.level:
                    assert tuple(i >> (q.level - lev) for i in q.index) != idx
            seen.add((q.level, q.index))
        # the cover catches the superlevel set of the maximal function
        mf = maximal_function(f, root, 1.0).values
        hot = np.flatnonzero(mf > lam * (1 + 1e-9))
        for i in hot:
            x = g.cell_centers[i]
            assert any(q.box.scaled(1.0 + 1e-12).contains_points(x) for q in cover.cubes)


def test_cz_cover_sandwich_violation_raises(monkeypatch):
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    f = CellField(g, np.ones(g.num_cells))
    root = g.domain.scaled(0.5)
    real = dyadic.lattice_means

    def broken(values, grid, root, level, scale):
        out = real(values, grid, root, level, scale)
        if level == 1:
            out[0, 0] = 5.0  # above 2^n lam = 4 for lam = lam0 = 1
        return out

    monkeypatch.setattr(dyadic, "lattice_means", broken)
    with pytest.raises(RuntimeError, match="2\\^n lam"):
        cz_cover(f, root, 1.0)


def test_cz_cover_below_threshold_raises():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    f = CellField(g, np.ones(g.num_cells))
    root = g.domain.scaled(0.5)
    lam0 = mean_over(f, root.scaled(2.0))
    with pytest.raises(ValueError, match="covering threshold"):
        cz_cover(f, root, 0.5 * lam0)


def test_good_lambda_epsilon_monotone_and_bounds():
    rng = np.random.default_rng(29)
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    root = g.domain.scaled(0.5)
    eps = (0.4, 0.2, 0.1, 0.05)
    for _ in range(10):
        F = CellField(g, rng.uniform(0, 1, g.num_cells) ** 4)
        Gh = CellField(g, rng.uniform(0, 1, g.num_cells) ** 4)
        lam0 = mean_over(F, root.scaled(2.0))
        res = good_lambda_measure(F, Gh, root, 4.5, eps, [lam0, 2 * lam0], 1.5)
        deltas = [res.delta(e) for e in eps]
        assert all(0.0 <= d <= 1.0 for d in deltas)
        # U shrinks as epsilon decreases
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))
        for (_, _, d), k, u in zip(res.rows, res.kappa_cells, res.u_cells):
            assert 0.0 <= d <= 1.0
            # U lies in {M*F > kappa lam}, and delta is 0 exactly where U is empty
            assert 0 <= u <= k and (u == 0) == (d == 0.0)


def test_good_lambda_empty_superlevel_reports_zero():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    root = g.domain.scaled(0.5)
    F = CellField(g, np.ones(g.num_cells))
    Gh = CellField(g, np.zeros(g.num_cells))
    res = good_lambda_measure(F, Gh, root, 4.0, (0.1,), [1e9], 1.5)
    assert res.delta(0.1) == 0.0


def test_good_lambda_kappa_guard():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    root = g.domain.scaled(0.5)
    F = CellField(g, np.ones(g.num_cells))
    with pytest.raises(ValueError, match="2\\^n"):
        good_lambda_measure(F, F, root, 2.0, (0.1,), [1.0], 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        good_lambda_measure(CellField(g, -F.values), F, root, 4.0, (0.1,), [1.0], 1.5)


@pytest.mark.parametrize("epsilons", [(-0.4, 0.0), (0.1, 0.0), (-0.1,)])
def test_good_lambda_rejects_nonpositive_epsilon(epsilons):
    # eps <= 0 would make every U empty and report delta = 0
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    F = CellField(g, np.ones(g.num_cells))
    with pytest.raises(ValueError, match="epsilon > 0"):
        good_lambda_measure(F, F, g.domain.scaled(0.5), 4.0, epsilons, [1.0], 1.5)


def test_default_kappa_formula():
    assert default_kappa(1.0, 2) == 8.0
    assert default_kappa(2.5, 1) == 10.0
    assert default_kappa(1.967, 3) == pytest.approx(16 * 1.967)
