"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test states its numeric contract up front and fails loudly when the
measured quantity drifts.  Runtime budgets are asserted where the contract
pins one.  Reference quantities are computed by independent routes inside
the tests (closed forms, brute-force enumerations, dense linear algebra),
never by calling the code path under test twice.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from varexp.cli import main, read_field, read_pgm, write_field, write_pgm
from varexp.dyadic import (
    cz_cover,
    default_kappa,
    good_lambda_measure,
    maximal_function,
)
from varexp.estimates import (
    caccioppoli_check,
    data_density,
    energy_density,
    gehring_scan,
    higher_integrability_check,
    reverse_holder_check,
)
from varexp.exponent import ExponentField, log_holder_constant
from varexp.grid import (
    Box,
    CellField,
    Grid,
    GridFunction,
    integrate,
    mean_over,
    region_weights,
)
from varexp.operator import FluxParams, coercivity_constant, energy, energy_gradient, flux
from varexp.solver import manufactured_instance, solve_pxlaplace
from varexp.varlp import luxemburg_norm, modular

from conftest import constant_exponent, constriction, cube_box, lattice_cubes, solved_matched


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


# -- 1: Luxemburg norm against constant-exponent closed forms ---------------

def test_acceptance_luxemburg_norms():
    with budget(10.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            cells = tuple(int(rng.integers(3, 11)) for _ in range(dim))
            g = Grid(dim, tuple(rng.uniform(-1, 0, dim)),
                     tuple(rng.uniform(1, 3, dim)), cells)
            q = float(rng.uniform(1.05, 6.0))
            p = constant_exponent(g, q)
            f = CellField(g, rng.normal(size=g.num_cells) * 10.0 ** rng.uniform(-2, 2))
            res = luxemburg_norm(f, p, g.domain)
            w = region_weights(g, g.domain)
            closed = float(np.sum(w * np.abs(f.values) ** q)) ** (1.0 / q)
            assert abs(res.norm - closed) <= 1e-9 * closed
            # the gauge normalizes the modular to 1 from below
            assert abs(modular(CellField(g, f.values / res.norm), p, g.domain) - 1.0) <= 1e-8

        # hand-computable two-exponent case: quarter measures with values 2
        # under p = 1 and p = 2 give modular(f/lam) = 1/(2 lam) + 1/lam^2,
        # whose unit root is lam = (1 + sqrt(17))/4
        g = Grid(1, (0.0,), (1.0,), (4,))
        p = ExponentField(GridFunction(g, np.array([1.0, 1.0, 1.0, 2.0, 2.0])))
        f = CellField(g, np.array([0.0, 2.0, 0.0, 2.0]))
        got = luxemburg_norm(f, p, g.domain).norm
        assert abs(got - (1.0 + math.sqrt(17.0)) / 4.0) <= 1e-8


# -- 2: maximal operator and covering against brute force -------------------

def brute_maximal(f, root, max_level):
    g = f.grid
    tol = 1e-12 * max(root.side, 1.0)
    boxes = [b for _, _, b in lattice_cubes(root, max_level)]
    absf = CellField(g, np.abs(f.values))
    means = np.array([
        integrate(absf, b2) / region_weights(g, b2).sum()
        for b2 in (b.scaled(2.0) for b in boxes)])
    los = np.array([b.lo for b in boxes])
    his = np.array([b.hi for b in boxes])
    x = g.cell_centers
    # closed-box membership, faces on both sides (matches the tie rule)
    inside = ((x[:, None, :] >= los[None] - tol).all(-1)
              & (x[:, None, :] <= his[None] + tol).all(-1))
    out = np.where(inside, means[None, :], 0.0).max(axis=1)
    in_root = ((x >= np.asarray(root.lo) - tol).all(-1)
               & (x <= np.asarray(root.hi) + tol).all(-1))
    return np.where(in_root, out, 0.0)


def test_acceptance_maximal_and_covering():
    with budget(60.0):
        rng = np.random.default_rng(7)
        # exact brute-force agreement on grids up to 32^2, lattice depth 5
        for cells in ((32,), (16, 16), (32, 32)):
            dim = len(cells)
            g = Grid(dim, (-2.0,) * dim, (4.0,) * dim, cells)
            root = g.domain.scaled(0.5)
            f = CellField(g, rng.uniform(0.0, 3.0, g.num_cells))
            got = maximal_function(f, root, 1.0, max_level=5).values
            want = brute_maximal(f, root, 5)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

        # covering sandwich on 500 random (F, lambda) pairs
        g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (16, 16))
        root = g.domain.scaled(0.5)
        n = g.dim
        for _ in range(500):
            F = CellField(g, rng.uniform(0.0, 1.0, g.num_cells) ** rng.uniform(1, 3))
            cover = cz_cover(F, root, float(rng.uniform(1.0, 5.0)))  # lam = factor * lam0
            lam = cover.lam
            for lev, idx in cover.cubes:
                m2 = mean_over(F, cube_box(root, lev, idx).scaled(2.0))
                assert lam < m2 <= 2.0**n * lam * (1.0 + 1e-12)


# -- 3: solver recovery, convergence order, and the linear oracle -----------

def test_acceptance_solver_recovery(matched32, matched64):
    with budget(300.0):
        errs = {}
        for inst in (solved_matched(16), matched32, matched64):
            res = inst["result"]
            assert res.converged and res.residual <= 1e-8
            n = inst["grid"].cells[0]
            errs[n] = float(np.abs(res.u.values - inst["u_star"].values).max())
        rate_coarse = math.log2(errs[16] / errs[32])
        rate_fine = math.log2(errs[32] / errs[64])
        assert rate_coarse >= 1.0 and rate_fine >= 1.0  # observed ~2

        # p == 2 reduces to a linear problem; solve it densely and compare
        g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))
        p = constant_exponent(g, 2.0)
        u_star, G, boundary = manufactured_instance("linear", g)
        res = solve_pxlaplace(G, p, boundary)
        assert res.converged
        B = np.zeros((g.num_cells, g.dim, g.num_nodes))
        coefs = g.grad_coefs
        for c, corners in enumerate(g.cell_corner_indices):
            B[c][:, corners] = coefs.T
        K = g.cell_volume * np.einsum("cdi,cdj->ij", B, B)
        rhs = g.cell_volume * np.einsum("cd,cdi->i", G.values[:, 0, :], B)
        fixed = g.boundary_node_mask
        free = ~fixed
        sol = boundary.values[:, 0].copy()
        sol[free] = np.linalg.solve(
            K[np.ix_(free, free)], rhs[free] - K[np.ix_(free, fixed)] @ sol[fixed])
        assert np.abs(res.u.values[:, 0] - sol).max() <= 1e-8


# -- 4: energy gradient against central finite differences ------------------

def test_acceptance_energy_gradient_fd():
    with budget(30.0):
        rng = np.random.default_rng(404)
        count = 0
        for p_lo in (1.5, 2.0, 3.0):
            for gamma in (1.0, 1e-2):
                for _ in range(9 if count < 48 else 2):
                    dim = int(rng.integers(1, 3))
                    g = Grid(dim, (0.0,) * dim, (1.0,) * dim, (4,) * dim)
                    p = ExponentField(
                        GridFunction(g, p_lo + rng.uniform(0, 0.4, g.num_nodes)))
                    u = GridFunction(g, rng.normal(size=g.num_nodes))
                    G = CellField(g, rng.normal(size=(g.num_cells, 1, dim)))
                    params = FluxParams(gamma)
                    grad = energy_gradient(u, G, p, params).values.ravel()
                    v = rng.normal(size=g.num_nodes)
                    v /= np.linalg.norm(v)
                    eps = 1e-6
                    jp = energy(GridFunction(g, u.values[:, 0] + eps * v), G, p, params)
                    jm = energy(GridFunction(g, u.values[:, 0] - eps * v), G, p, params)
                    fd = (jp - jm) / (2.0 * eps)
                    assert abs(grad @ v - fd) < 1e-5 * max(1.0, abs(fd))
                    count += 1
        assert count >= 50


# -- 5: monotonicity of the flux and the p == 2 structure constant ----------

def test_acceptance_monotonicity_and_c4():
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (8, 8))
    rng = np.random.default_rng(55)
    p = ExponentField(GridFunction(g, 1.5 + rng.uniform(0, 1.5, g.num_nodes)))
    total = 0
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        z = rng.normal(size=(100_000, 2))
        w = rng.normal(size=(100_000, 2))
        gap = np.einsum(
            "nd,nd->n",
            flux(x, z, p, FluxParams(0.0)) - flux(x, w, p, FluxParams(0.0)),
            z - w)
        worst = min(worst, float(gap.min()))
        total += z.shape[0]
    assert total == 1_000_000
    assert worst >= -1e-12

    p2 = constant_exponent(g, 2.0)
    assert coercivity_constant(p2) <= 2.0 + 1e-6


# -- 6: estimate chain stability across refinement and cube size ------------

def test_acceptance_estimate_chain_stability(matched32, matched64):
    with budget(600.0):
        kappa = 16.0
        consts = {"caccioppoli": [], "reverse-holder": [], "higher-integrability": []}
        for inst in (matched32, matched64):
            u, G, p = inst["result"].u, inst["G"], inst["p"]
            for side in (1.0, 2.0):
                Q = Box((-side / 2, -side / 2), (side / 2, side / 2))
                consts["caccioppoli"].append(
                    caccioppoli_check(u, G, p, Q).empirical_constant)
                consts["reverse-holder"].append(
                    reverse_holder_check(u, G, p, Q, 1.5).empirical_constant)
                consts["higher-integrability"].append(
                    higher_integrability_check(
                        u, G, p, 2.0, Q, kappa).empirical_constant)
        for name, vals in consts.items():
            assert all(np.isfinite(v) and v > 0 for v in vals), (name, vals)
            assert max(vals) / min(vals) <= 2.0, (name, vals)


# -- 7: level-set reconstruction of the q-moment -----------------------------

def test_acceptance_level_set_moments(matched32):
    u, G, p = matched32["result"].u, matched32["G"], matched32["p"]
    root = matched32["grid"].domain.scaled(0.5)
    for q in (1.5, 2.0, 3.0):
        rec = higher_integrability_check(u, G, p, q, root, 16.0)
        gap = next(float(f.split("=", 1)[1]) for f in rec.flags
                   if f.startswith("sweep_rel_gap="))
        assert gap <= 0.05, (q, gap)


# -- 8: good-lambda occupancy decay -----------------------------------------

def solved_constriction(amp):
    G, p, bnd = constriction(amp)
    res = solve_pxlaplace(G, p, bnd)
    assert res.converged
    return bnd.grid, p, res, G


def test_acceptance_good_lambda_trend():
    epsilons = (0.4, 0.2, 0.1, 0.05)  # decreasing 4-point sweep
    deltas = {}
    for amp in (0.5, 0.25):
        g, p, res, G = solved_constriction(amp)
        F = energy_density(res.u, p)
        Gh = data_density(G, p)
        root = g.domain.scaled(0.5)
        kappa = default_kappa(coercivity_constant(p), g.dim)  # 2^{n+1} c4
        gl = good_lambda_measure(F, Gh, root, kappa, epsilons, [1.0, 2.0], 1.5)  # lam0, 2 lam0
        ds = [gl.delta(e) for e in epsilons]
        # non-increasing along the epsilon sweep
        assert all(a >= b - 1e-15 for a, b in zip(ds, ds[1:])), ds
        deltas[amp] = max(ds)
    # halving the oscillation amplitude shrinks the occupancy
    assert deltas[0.5] > 0.0
    assert deltas[0.25] < deltas[0.5]


def test_good_lambda_kappa_set_counted_where_delta_is_positive():
    # gate 8's instance is the one that tests something: every row with
    # delta > 0 has cells in {M*F > kappa lam}, and each row's count is
    # that set's size under the brute-force maximal function
    g, p, res, G = solved_constriction(0.5)
    F = energy_density(res.u, p)
    root = g.domain.scaled(0.5)
    kappa = default_kappa(coercivity_constant(p), g.dim)
    gl = good_lambda_measure(F, data_density(G, p), root, kappa, (0.4, 0.05),
                             [1.0, 2.0], 1.5, max_level=5)
    mf = brute_maximal(F, root, 5)
    assert any(d > 0.0 for _, _, d in gl.rows), gl.rows
    for (_, lam, d), n in zip(gl.rows, gl.kappa_cells):
        assert n == np.count_nonzero(mf > kappa * lam)
        assert n > 0 or d == 0.0


# -- 9: Gehring exponent improvement ------------------------------------------

def test_acceptance_gehring_exponent(matched32):
    # constant-exponent instance
    g = matched32["grid"]
    p2 = constant_exponent(g, 2.0)
    u_star, G, bnd = manufactured_instance("matched", g)
    res = solve_pxlaplace(G, p2, bnd)
    assert res.converged
    scan = gehring_scan(res.u, G, p2, g.domain.scaled(0.5))
    assert scan.m0 > 1.0

    # smooth variable exponent with measured c_log at most 0.1
    p = matched32["p"]
    rep = log_holder_constant(p)
    assert rep.c_log <= 0.1
    scan_var = gehring_scan(matched32["result"].u, matched32["G"], p,
                            g.domain.scaled(0.5))
    assert scan_var.m0 > 1.0


# -- 10: CLI round trips, determinism, denoising ------------------------------

CFG = """
[run]
seed = 31
[grid]
dim = 2
origin = -2 -2
extent = 4 4
cells = 12 12
[exponent]
kind = constant
value = 2.2
[data]
instance = matched
"""


def test_acceptance_cli_determinism_and_formats(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out / "v")]) == 0
        blobs.append((out / "solve.csv").read_bytes()
                     + (out / "v" / "records.csv").read_bytes()
                     + (out / "solution.vxf").read_bytes())
    assert blobs[0] == blobs[1]  # identical config: identical bytes

    # field files survive a round trip losslessly
    g = Grid(2, (-1.0, -1.0), (2.0, 2.0), (7, 5))
    rng = np.random.default_rng(8)
    u = GridFunction(g, rng.normal(size=(g.num_nodes, 1)))
    write_field(tmp_path / "u.vxf", u)
    back = read_field(tmp_path / "u.vxf")
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)


def test_acceptance_cli_denoise(tmp_path):
    rng = np.random.default_rng(99)
    H, W = 24, 32
    clean = np.zeros((H, W))
    clean[:, W // 2:] = 180.0
    clean[:, : W // 2] = 40.0
    noisy = np.clip(np.rint(clean + rng.normal(0, 12, (H, W))), 0, 255).astype(int)
    write_pgm(tmp_path / "in.pgm", noisy)
    cfg = tmp_path / "d.cfg"
    cfg.write_text("[run]\nseed = 4\n[denoise]\nimage = in.pgm\nstrength = 3\n"
                   "p_min = 1.4\np_max = 2.0\n")
    out = tmp_path / "out"
    assert main(["denoise", "--config", str(cfg), "--out", str(out)]) == 0
    den, _, _ = read_pgm(out / "denoised.pgm")

    # the step edge stays within one pixel of the true jump (interior rows;
    # the clamped boundary ring keeps its noise by construction)
    true_edge = W // 2 - 1  # argmax of |column difference| in the clean image
    for r in range(2, H - 2):
        jumps = np.abs(np.diff(den[r].astype(float)))[2 : W - 3]
        edge = int(np.argmax(jumps)) + 2
        assert abs(edge - true_edge) <= 1, (r, edge)

    # flat-region variance drops by at least half, measured off the edge
    # and off the clamped ring
    rows = slice(4, H - 4)
    for cols in (slice(4, W // 2 - 3), slice(W // 2 + 3, W - 4)):
        before = float(np.var(noisy[rows, cols].astype(float)))
        after = float(np.var(den[rows, cols].astype(float)))
        assert after <= 0.5 * before, (cols, before, after)
