"""Dyadic lattice, localized maximal operator, covering, and good-lambda.

The maximal/covering oracles here are independent brute-force loops over
all lattice cubes, compared against the production implementations.  The
maximal oracle lists its cubes through conftest's own lattice arithmetic;
the covering's reference is the stopping-time walk down the cube tree.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import dyadic
from varexp.dyadic import (
    covering_threshold,
    cz_cover,
    default_kappa,
    default_max_level,
    good_lambda_measure,
    lattice_box,
    lattice_means,
    maximal_function,
)
from varexp.grid import Box, CellField, Grid, integrate, mean_over, region_weights

from conftest import cube_box, lattice_cubes


def brute_maximal(f, root, s, max_level):
    """Reference maximal function: loop over all cubes per cell center."""
    g = f.grid
    cubes = [b for _, _, b in lattice_cubes(root, max_level)]
    tol = 1e-12 * max(root.side, 1.0)
    out = np.zeros(g.num_cells)
    lo, hi = np.asarray(root.lo), np.asarray(root.hi)
    power = np.abs(f.values) ** s
    for i, x in enumerate(g.cell_centers):
        if not (np.all(x >= lo - tol) and np.all(x <= hi + tol)):
            continue
        best = 0.0
        for b in cubes:
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
    tol = root.tolerance
    in_root = root.contains_points(g.cell_centers)
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
    # the 2^{level n} cubes of a level tile the root: every point of the
    # root's interior lies inside exactly one of them
    rng = np.random.default_rng(3)
    for root in (Box((0.0,), (1.0,)), Box((-0.7, 0.2), (0.5, 1.4)),
                 Box((-0.93, -0.71, 0.1), (0.61, 0.83, 1.64))):
        pts = np.asarray(root.lo) + rng.uniform(0.0, 1.0, (200, root.dim)) * root.sides
        for lev in range(4):
            boxes = [lattice_box(root, lev, idx)
                     for idx in itertools.product(range(2**lev), repeat=root.dim)]
            assert len(boxes) == 2 ** (lev * root.dim)
            assert all(root.contains_box(b) for b in boxes)
            assert sum(np.prod(b.sides) for b in boxes) == pytest.approx(np.prod(root.sides))
            inside = [(pts > b.lo) & (pts < b.hi) for b in boxes]
            np.testing.assert_array_equal(sum(np.all(m, axis=1) for m in inside), 1)


def test_cube_geometry_and_children():
    root = Box((0.0, 0.0), (2.0, 2.0))
    q = lattice_box(root, 1, (1, 0))
    assert q.lo == (1.0, 0.0) and q.hi == (2.0, 1.0)
    # cell (level + 1, 2 index + bits) of the next table nests in cell
    # (level, index): the 2^n children tile their parent
    kids = [lattice_box(root, 2, (2 + a, b)) for a, b in itertools.product((0, 1), repeat=2)]
    assert all(q.contains_box(k) for k in kids)
    assert sum(np.prod(k.sides) for k in kids) == pytest.approx(np.prod(q.sides))
    # the lattice's arithmetic, cube by cube, to the byte
    root = Box((-0.93, -0.71, 0.1), (0.61, 0.83, 1.64))
    for lev, idx, box in lattice_cubes(root, 3):
        assert lattice_box(root, lev, idx) == box


def test_cube_validation():
    root = Box((0.0,), (1.0,))
    for level, index in ((1, (2,)), (1, (-1,)), (0, (0, 0)), (-1, (0,))):
        with pytest.raises(ValueError, match="no lattice cube"):
            lattice_box(root, level, index)


def test_default_max_level_resolves_to_cell_pairs():
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))
    # root of 16 cells per side: the deepest default cube spans 2 cells
    assert default_max_level(g.domain.scaled(0.5), g) == 3
    g8 = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    assert default_max_level(g8.domain.scaled(0.5), g8) == 1


def face_roots(g: Grid) -> list[tuple[Box, np.ndarray]]:
    """Roots on the grid [-2, 2]^dim of n cells per axis whose lower face on
    axis 0 and upper face on the last axis sit a few tolerances from a row of
    cell centers, each with the mask of the cells in its closure: moved
    outward past the rows, or inward by half the tolerance, the rows are in
    it; inward by twice the tolerance, they are not."""
    n = g.cells[0]
    h, i, j = 4.0 / n, n // 4, n - 1 - n // 4
    lo, hi = [-2.0 + h * (i + 0.5)] * g.dim, [-2.0 + h * (j + 0.5)] * g.dim
    tol = Box(tuple(lo), tuple(hi)).tolerance
    idx = np.indices(g.cells).reshape(g.dim, -1)
    block = np.all((idx >= i) & (idx <= j), axis=0)
    out = []
    for shift in (-2.0, -0.5, 0.5, 2.0):  # inward by shift tolerances
        a, b = list(lo), list(hi)
        a[0] += shift * tol
        b[-1] -= shift * tol
        out.append((Box(tuple(a), tuple(b)),
                    block & ((shift <= 1.0) | (idx[0] != i) & (idx[-1] != j))))
    return out


def test_maximal_function_equals_brute_force():
    # on the half-size root, and on roots whose faces sit within or beyond
    # the tolerance of a row of cell centers: the maximal function is
    # nonzero exactly on the root's closure as contains_points has it
    rng = np.random.default_rng(2)
    for dim, cells in ((1, (16,)), (2, (8, 8))):
        g = Grid(dim, (-2.0,) * dim, (4.0,) * dim, cells)
        half = g.domain.scaled(0.5)
        roots = [(half, half.contains_points(g.cell_centers))] + face_roots(g)
        for s in (1.0, 1.5):
            f = CellField(g, rng.uniform(0.0, 5.0, g.num_cells))
            for root, closure in roots:
                assert np.array_equal(root.contains_points(g.cell_centers), closure)
                got = maximal_function(f, root, s).values
                want = brute_maximal(f, root, s, default_max_level(root, g))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                assert np.array_equal(got > 0.0, closure)


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
                want = [mean_over(f, lattice_box(root, lev, idx).scaled(scale))
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


def walk_cover(F, root, factor):
    """Reference covering: the stopping-time walk from the root, descending
    through cubes whose doubled mean is <= lam down to the default level.
    Returns lam, the selected (level, index, mean) and whether one of them
    sits at the deepest level."""
    g = F.grid
    max_level = default_max_level(root, g)
    tables = [lattice_means(F.values, g, root, lev, 2.0) for lev in range(max_level + 1)]
    lam = factor * float(tables[0].flat[0])
    found, stack = [], [(0, (0,) * g.dim)]
    while stack:
        lev, idx = stack.pop()
        if lev == max_level:
            continue
        for bits in itertools.product((0, 1), repeat=g.dim):
            child = tuple(2 * i + b for i, b in zip(idx, bits))
            m = float(tables[lev + 1][child])
            if m > lam:
                found.append((lev + 1, child, m))
            else:
                stack.append((lev + 1, child))
    return lam, found, any(lev == max_level for lev, _, _ in found)


def test_cz_cover_sandwich_disjoint_and_covers():
    rng = np.random.default_rng(9)
    # a few hot cells on three draws of four, so that covers stop above the
    # deepest level as well as at it
    hot = np.random.default_rng(10)
    for cells in ((16, 16), (64,), (16, 16, 16)):
        n = len(cells)
        g = Grid(n, (-2.0,) * n, (4.0,) * n, cells)
        root = g.domain.scaled(0.5)
        truncated = set()
        for draw in range(25):
            v = rng.uniform(0.0, 1.0, g.num_cells) ** 2
            factor = rng.uniform(1.0, 4.0)
            v[hot.integers(0, g.num_cells, draw % 4)] += hot.uniform(0.0, 8.0 * 4.0**n)
            f = CellField(g, v)
            cover = cz_cover(f, root, factor)
            lam0 = covering_threshold(f, root)
            assert cover.lambda0 == lam0 and cover.lam == factor * lam0  # to the byte
            assert lam0 == pytest.approx(mean_over(f, root.scaled(2.0)), rel=1e-12)
            lam = cover.lam
            # the stopping-time walk selects the same cubes, means and truncation
            walk_lam, walked, walk_truncated = walk_cover(f, root, factor)
            assert walk_lam == lam and cover.max_level == default_max_level(root, g)
            got = sorted((lev, idx, m) for (lev, idx), m in zip(cover.cubes, cover.means))
            assert got == sorted(walked) and cover.truncated == walk_truncated
            if cover.cubes:
                truncated.add(cover.truncated)
            seen = set()
            for lev, idx in cover.cubes:
                m2 = mean_over(f, cube_box(root, lev, idx).scaled(2.0))
                assert lam < m2 <= 2.0**n * lam * (1 + 1e-12)
                assert lev > 0  # proper sub-cubes
                # disjoint: dyadic cubes of one tree intersect only by nesting
                for lev2, idx2 in seen:
                    if lev2 <= lev:
                        assert tuple(i >> (lev - lev2) for i in idx) != idx2
                seen.add((lev, idx))
            # the cover catches the superlevel set of the maximal function
            mf = maximal_function(f, root, 1.0).values
            x = g.cell_centers[mf > lam * (1 + 1e-9)]
            caught = np.zeros(len(x), dtype=bool)
            for lev, idx in cover.cubes:
                caught |= cube_box(root, lev, idx).scaled(1.0 + 1e-12).contains_points(x)
            assert caught.all()
        assert truncated == {False, True}


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
    # heights are factors of lam0, at least 1: a factor even one ulp below 1
    # raises, in the covering and in the good-lambda table alike
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    f = CellField(g, np.ones(g.num_cells))
    root = g.domain.scaled(0.5)
    for factor in (0.5, np.nextafter(1.0, 0.0)):
        with pytest.raises(ValueError, match="below covering threshold"):
            cz_cover(f, root, factor)
        with pytest.raises(ValueError, match="below covering threshold"):
            good_lambda_measure(f, f, root, 4.0, (0.1,), [2.0, factor], 1.5)
    assert cz_cover(f, root, 1.0).lam == covering_threshold(f, root)


def test_good_lambda_epsilon_monotone_and_bounds():
    rng = np.random.default_rng(29)
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
    root = g.domain.scaled(0.5)
    eps = (0.4, 0.2, 0.1, 0.05)
    for _ in range(10):
        F = CellField(g, rng.uniform(0, 1, g.num_cells) ** 4)
        Gh = CellField(g, rng.uniform(0, 1, g.num_cells) ** 4)
        res = good_lambda_measure(F, Gh, root, 4.5, eps, [1.0, 2.0], 1.5)
        # the rows report absolute heights: factor * lam0, to the byte
        lam0 = covering_threshold(F, root)
        assert res.lambda0 == lam0
        assert [lam for _, lam, _ in res.rows] == [1.0 * lam0, 2.0 * lam0] * len(eps)
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
