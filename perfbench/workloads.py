"""The three workloads: their operations and the checks on their outputs.

A workload is a session of operations run in order, one round at a time.
A CLI operation is one ``varexp`` command in its own process; a library
operation is one call into varexp in the benchmark's own process, timed
without the untimed preparation of its arguments.  Every check reads the
program's output files with the benchmark's own readers and compares them
with a route that does not go through the code under test (oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracle


@dataclass
class Op:
    name: str
    argv: list[str] | None = None  # varexp command line for a CLI operation
    prepare: Callable[[Path], Callable[[], object]] | None = None  # library operation


@dataclass
class Session:
    ops: list[Op]
    # check(rd, ok, results): failures found in one round's outputs; ``ok``
    # names the operations that completed, whose outputs are checked, and
    # ``results`` holds the library calls' return values
    check: Callable[[Path, set[str], dict], list[str]]


def _cli(command: str, config: Path) -> Op:
    return Op(command, argv=[command, "--config", str(config)])


def _bump(inp: dict) -> np.ndarray:
    """G of the bump instance: a Gaussian of width side/8 around the domain
    center in the first component, zero in the others."""
    origin, extent, cells = inp["origin"], inp["extent"], inp["cells"]
    pts = gen.mesh(origin, extent, cells, centered=True)
    center = np.asarray(origin) + np.asarray(extent) / 2.0
    width = max(extent) / 8.0
    G = np.zeros(pts.shape)
    G[:, 0] = np.exp(-np.sum((pts - center) ** 2, axis=1) / width**2)
    return G.reshape(tuple(cells) + (len(cells),))


def _nodes(cells) -> tuple[int, ...]:
    return tuple(c + 1 for c in cells)


def _cold_solve(rd: Path, G: np.ndarray, q: np.ndarray, boundary: np.ndarray,
                seed: int) -> tuple[list[str], oracle.Field]:
    """Every cold solve: exact boundary values, residual at or below the
    tolerance, and a discrete minimizer under seeded perturbations."""
    fails = []
    metrics = {r["metric"]: float(r["value"]) for r in oracle.read_csv(rd / "solve.csv")}
    if metrics.get("converged") != 1.0 or not metrics["residual"] <= gen.TOLERANCE:
        fails.append(f"solve: residual {metrics.get('residual')} above {gen.TOLERANCE}")
    sol = oracle.Field(rd / "solution.vxf")
    u = sol.array()
    mask = oracle.boundary_mask(u.shape)
    if not np.array_equal(u[mask], boundary[mask]):
        fails.append("solve: boundary nodes differ from the prescribed data")
    fails += ["solve: " + f for f in oracle.minimizer_failures(
        u, G, q, sol.h, metrics["gamma_final"], gen.TOLERANCE, seed)]
    return fails, sol


# ---------------------------------------------------------------------------
# chain-2d

def chain_2d(work: Path, seed: int) -> Session:
    inp = gen.chain_2d(work, seed)
    ops = [_cli(c, inp["config"]) for c in ("solve", "verify", "gehring", "goodlambda")]
    return Session(ops, partial(_check_chain, inp, seed))


def _check_chain(inp: dict, seed: int, rd: Path, ok: set[str], results) -> list[str]:
    from varexp.dyadic import maximal_function
    from varexp.grid import Box, CellField, Grid

    if "solve" not in ok:
        return []
    cells = inp["cells"]
    q = np.full(cells, inp["p"])
    fails, sol = _cold_solve(rd / "solve", _bump(inp), q, np.zeros(_nodes(cells)), seed)
    h = sol.h
    F = np.linalg.norm(oracle.q1_gradient(sol.array(), h), axis=-1) ** inp["p"]
    center = np.asarray(inp["origin"]) + np.asarray(inp["extent"]) / 2.0
    root_lo, root_hi = center - np.asarray(inp["extent"]) / 4, center + np.asarray(inp["extent"]) / 4
    dim = len(cells)

    # M*F against a brute-force enumeration of the lattice
    level = int(math.floor(min(math.log2((root_hi[k] - root_lo[k]) / (2 * h[k]) + 1e-12)
                               for k in range(dim))))
    want = oracle.brute_maximal(F, inp["origin"], h, root_lo, root_hi, level)
    grid = Grid(dim, inp["origin"], inp["extent"], cells)
    got = maximal_function(CellField(grid, F.reshape(-1)), Box(tuple(root_lo), tuple(root_hi))).values
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        fails.append(f"M*F differs from brute force by {np.abs(got - want).max():.3e}")

    if "verify" in ok:
        rows = oracle.read_csv(rd / "verify" / "records.csv")
        hi = next(r for r in rows if r["name"].startswith("higher-integrability"))
        qexp = float(hi["name"].split("=", 1)[1])
        direct = oracle.box_mean(F**qexp, inp["origin"], h, root_lo, root_hi) ** (1.0 / qexp)
        if not math.isclose(float(hi["lhs"]), direct, rel_tol=1e-9):
            fails.append(f"verify: higher-integrability lhs {hi['lhs']} != quadrature {direct!r}")

    if "gehring" in ok:
        m0 = oracle.read_scalars(rd / "gehring" / "report.txt")["m0"]
        rows = oracle.read_csv(rd / "gehring" / "gehring.csv")
        first = next(r for r in rows if float(r["mu"]) == 1.0)
        if not m0 > 1.0:
            fails.append(f"gehring: m0 = {m0} not above 1")
        if not float(first["constant"]) <= 2.0**dim:
            fails.append(f"gehring: mu = 1 constant {first['constant']} above 2^n")

    if "goodlambda" in ok:
        rows = oracle.read_csv(rd / "goodlambda" / "goodlambda.csv")
        table: dict[float, list[tuple[float, float]]] = {}
        for r in rows:
            d = float(r["delta"])
            if not 0.0 <= d <= 1.0:
                fails.append(f"goodlambda: delta {d} outside [0, 1]")
            table.setdefault(float(r["lambda"]), []).append((float(r["epsilon"]), d))
        for lam, pairs in table.items():
            ds = [d for _, d in sorted(pairs, reverse=True)]
            if any(b > a for a, b in zip(ds, ds[1:])):
                fails.append(f"goodlambda: delta grows as epsilon shrinks at lambda {lam}")
    return fails


# ---------------------------------------------------------------------------
# varp-2d

def varp_2d(work: Path, seed: int) -> Session:
    from varexp import exponent, varlp
    from varexp.exponent import ExponentField
    from varexp.grid import CellField, Grid, GridFunction

    inp = gen.varp_2d(work, seed)
    grid = Grid(2, inp["origin"], inp["extent"], inp["cells"])
    coarse = Grid(2, inp["origin"], inp["extent"], inp["sweep_cells"])

    def log_holder(rd: Path):
        p = ExponentField(GridFunction(coarse, _table_at(inp, inp["sweep_cells"]).reshape(-1)))
        return lambda: exponent.log_holder_constant(p, seed=seed)

    def luxemburg(rd: Path):
        p = oracle.Field(rd / "solve" / "exponent.vxf")
        sol = oracle.Field(rd / "solve" / "solution.vxf")
        du = np.linalg.norm(oracle.q1_gradient(sol.array(), sol.h), axis=-1)
        f, pf = CellField(grid, du.reshape(-1)), ExponentField(GridFunction(grid, p.values))
        return lambda: varlp.luxemburg_norm(f, pf, grid.domain)

    # commands first: a child started while this process holds the library
    # calls' memory would report that memory as its own peak (see run.py)
    ops = [_cli("solve", inp["config"]), _cli("sweep", inp["sweep_config"]),
           Op("log_holder", prepare=log_holder), Op("luxemburg", prepare=luxemburg)]
    return Session(ops, partial(_check_varp, inp, seed))


def _table_at(inp: dict, cells) -> np.ndarray:
    """The exponent table interpolated onto the nodes of a grid."""
    nodes = gen.mesh(inp["origin"], inp["extent"], cells, centered=False)
    return oracle.bilinear(oracle.Field(inp["table"]), nodes).reshape(_nodes(cells))


def _check_varp(inp: dict, seed: int, rd: Path, ok: set[str], results) -> list[str]:
    fails: list[str] = []
    if "log_holder" in ok:
        p = _table_at(inp, inp["sweep_cells"])
        h = np.asarray(inp["extent"]) / np.asarray(inp["sweep_cells"])
        exact = oracle.exact_clog_local(p, h)
        got = results["log_holder"].c_log_local
        if not 0.0 < got <= exact * (1.0 + 1e-9):
            fails.append(f"log_holder: sampled c_log_local {got!r} above exact {exact!r}")
    if "solve" in ok:
        p = _table_at(inp, inp["cells"])
        written = oracle.Field(rd / "solve" / "exponent.vxf").array()
        if not np.allclose(written, p, rtol=0.0, atol=1e-12):
            fails.append("solve: exponent.vxf differs from the interpolated table")
        f, sol = _cold_solve(rd / "solve", _bump(inp), oracle.cell_average(p),
                             np.zeros(p.shape), seed)
        fails += f
        if "luxemburg" in ok:
            du = np.linalg.norm(oracle.q1_gradient(sol.array(), sol.h), axis=-1)
            norm = results["luxemburg"].norm
            mod = float(np.prod(sol.h)) * float(np.sum((du / norm) ** oracle.cell_average(written)))
            if not 1.0 - 1e-8 <= mod <= 1.0:
                fails.append(f"luxemburg: modular at the norm is {mod!r}, not in [1 - 1e-8, 1]")

    if "sweep" in ok:
        rows = oracle.read_csv(rd / "sweep" / "sweep.csv")
        coarse, fine = "x".join(str(c) for c in inp["sweep_cells"]), "x".join(
            str(2 * c) for c in inp["sweep_cells"])
        ref = [r for r in rows if r["axis"] == "refinement"]
        for name in sorted({r["name"] for r in ref}):
            c = {r["setting"]: float(r["constant"]) for r in ref if r["name"] == name}
            a, b = c.get(coarse, 0.0), c.get(fine, 0.0)
            if not (a > 0 and b > 0 and max(a, b) <= 2.0 * min(a, b)):
                fails.append(f"sweep: {name} constants {a} at {coarse} and {b} at {fine}")

    return fails


# ---------------------------------------------------------------------------
# cold-3d

COLD_SUP_ERROR = 0.05  # sup |u - u*| bound at 24^3; measured 0.02


def cold_3d(work: Path, seed: int) -> Session:
    inp = gen.cold_3d(work, seed)
    return Session([_cli("solve", inp["config"])], partial(_check_cold, inp, seed))


def _check_cold(inp: dict, seed: int, rd: Path, ok: set[str], results) -> list[str]:
    if "solve" not in ok:
        return []
    shape = _nodes(inp["cells"])
    G = inp["g"].reshape(tuple(inp["cells"]) + (3,))
    q = oracle.cell_average(inp["p"].reshape(shape))
    fails, sol = _cold_solve(rd / "solve", G, q, inp["boundary"].reshape(shape), seed)
    err = float(np.abs(sol.values[:, 0] - inp["u_star"]).max())
    if not err < COLD_SUP_ERROR:
        fails.append(f"solve: sup error {err:.4f} against the closed form, bound {COLD_SUP_ERROR}")
    return fails


WORKLOADS = {"chain-2d": chain_2d, "varp-2d": varp_2d, "cold-3d": cold_3d}
