"""Seeded inputs for the three workloads: configs and VXF fields.

Everything the program reads is written here, from the workload seed
alone, with the benchmark's own writers.  The VXF layout is the documented
text format (header line, then one value per line, 17 significant digits),
so the program parses these files exactly as it parses its own output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from oracle import boundary_mask

# Grid sizes and solver settings are fixed per workload; the seed moves
# only what leaves the amount of work unchanged (see README.md).
CHAIN_CELLS = 128
VARP_CELLS = 128  # the solve; sweep and log_holder_constant run from 64^2
VARP_SWEEP_CELLS = 64
VARP_TABLE_CELLS = 16
VARP_P = (1.3, 3.0)
COLD_CELLS = 24
COLD_P = (1.5, 2.5)
TOLERANCE = 1e-8


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_vxf(path: Path, kind: str, counts, origin, extent, values: np.ndarray) -> None:
    """Write a VXF1 field: ``values`` is (samples, codomain), row-major."""
    vals = np.asarray(values, dtype=float)
    vals = vals.reshape(vals.shape[0], -1)
    head = " ".join(["VXF1", str(len(counts)), str(vals.shape[1]), kind]
                    + [str(c) for c in counts] + [fmt(v) for v in origin]
                    + [fmt(v) for v in extent])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head + "\n")
        fh.writelines(fmt(v) + "\n" for v in vals.ravel())


def mesh(origin, extent, cells, centered: bool) -> np.ndarray:
    """(samples, dim) node coordinates, or cell centers when ``centered``,
    row-major (first axis slowest)."""
    axes = [o + (e / c) * (np.arange(c) + 0.5 if centered else np.arange(c + 1))
            for o, e, c in zip(origin, extent, cells)]
    m = np.meshgrid(*axes, indexing="ij")
    return np.stack(m, axis=-1).reshape(-1, len(cells))


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        for k, v in keys.items():
            if isinstance(v, (tuple, list)):
                v = " ".join(fmt(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = fmt(v)
            lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def plane_waves(pts: np.ndarray, waves) -> np.ndarray:
    """Sum of amp * sin(k * x.direction + phase) over ``waves``, rescaled
    to [0, 1] over ``pts``."""
    total = sum(amp * np.sin(k * (pts @ np.asarray(direction)) + phase)
                for amp, direction, k, phase in waves)
    return (total - total.min()) / (total.max() - total.min())


def seeded_waves(rng: np.random.Generator, dim: int, span: float) -> list:
    """Two plane waves of about one period per ``span``, with seeded
    directions, wave numbers and phases."""
    waves = []
    for amp in (1.0, 0.5):
        v = rng.normal(size=dim)
        k = 2.0 * math.pi / span * rng.uniform(0.7, 1.0)
        waves.append((amp, v / np.linalg.norm(v), k, rng.uniform(0.0, 2.0 * math.pi)))
    return waves


# ---------------------------------------------------------------------------
# chain-2d: bump instance at p = 1.7 on a seeded translate of [-2, 2]^2.
# The translate leaves every Newton system unchanged up to the position of
# the decay weight, so the seed varies outputs without varying the work.

def chain_2d(work: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    origin = tuple(-2.0 + rng.uniform(-0.25, 0.25, 2))
    extent = (4.0, 4.0)
    cfg = work / "chain.cfg"
    write_config(cfg, {
        "run": {"seed": seed},
        "grid": {"dim": 2, "origin": origin, "extent": extent,
                 "cells": (CHAIN_CELLS, CHAIN_CELLS)},
        "exponent": {"kind": "constant", "value": 1.7},
        "data": {"instance": "bump"},
        "solver": {"tolerance": TOLERANCE},
    })
    return {"config": cfg, "origin": origin, "extent": extent,
            "cells": (CHAIN_CELLS, CHAIN_CELLS), "p": 1.7}


# ---------------------------------------------------------------------------
# varp-2d: smooth p in [1.3, 3] as a coarse VXF table and a bump instance.
# The exponent pattern is fixed: the Newton step count of the cold solve
# depends strongly on where p is low (16 to 34 steps over eight seeded
# patterns), which would swamp the timing.  The seed moves the
# structure-fit sampling of auto-kappa and the pair sampling of
# log_holder_constant.

def _direction(degrees: float) -> tuple[float, float]:
    return math.cos(math.radians(degrees)), math.sin(math.radians(degrees))


# amplitude, direction, wave number, phase
VARP_WAVES = [(1.0, _direction(145.5), 1.3, 1.74), (0.5, _direction(-29.8), 1.14, 5.5)]


def varp_2d(work: Path, seed: int) -> dict:
    origin, extent = (-2.0, -2.0), (4.0, 4.0)
    tcounts = (VARP_TABLE_CELLS, VARP_TABLE_CELLS)
    tnodes = tuple(c + 1 for c in tcounts)
    unit = plane_waves(mesh(origin, extent, tcounts, centered=False), VARP_WAVES)
    table = VARP_P[0] + (VARP_P[1] - VARP_P[0]) * unit
    table_path = work / "exponent_table.vxf"
    write_vxf(table_path, "nodes", tnodes, origin, extent, table[:, None])

    configs = {}
    for name, cells in (("solve", VARP_CELLS), ("sweep", VARP_SWEEP_CELLS)):
        configs[name] = work / f"varp-{name}.cfg"
        write_config(configs[name], {
            "run": {"seed": seed},
            "grid": {"dim": 2, "origin": origin, "extent": extent, "cells": (cells, cells)},
            "exponent": {"kind": "table", "path": table_path.name},
            "data": {"instance": "bump"},
            "solver": {"tolerance": TOLERANCE},
            "sweep": {"refinements": 1, "sizes": (1.0, 2.0), "amplitudes": (1.0, 0.5)},
        })

    return {"config": configs["solve"], "sweep_config": configs["sweep"],
            "origin": origin, "extent": extent,
            "cells": (VARP_CELLS, VARP_CELLS), "sweep_cells": (VARP_SWEEP_CELLS, VARP_SWEEP_CELLS),
            "table": table_path}


# ---------------------------------------------------------------------------
# cold-3d: the matched closed form u* = prod sin(pi x_k) as a `files`
# instance on [-1, 1]^3, with exact boundary values, zero interior and a
# seeded smooth p in [1.5, 2.5] on the grid.

def matched(pts: np.ndarray) -> np.ndarray:
    return np.prod(np.sin(math.pi * pts), axis=1)


def matched_gradient(pts: np.ndarray) -> np.ndarray:
    s, c = np.sin(math.pi * pts), np.cos(math.pi * pts)
    out = np.empty_like(pts)
    for k in range(pts.shape[1]):
        out[:, k] = math.pi * c[:, k] * np.prod(np.delete(s, k, axis=1), axis=1)
    return out


def cold_3d(work: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    origin, extent = (-1.0, -1.0, -1.0), (2.0, 2.0, 2.0)
    cells = (COLD_CELLS,) * 3
    nodes = tuple(c + 1 for c in cells)
    node_pts = mesh(origin, extent, cells, centered=False)
    u_star = matched(node_pts)
    boundary = np.where(boundary_mask(nodes).reshape(-1), u_star, 0.0)
    g = matched_gradient(mesh(origin, extent, cells, centered=True))
    p = COLD_P[0] + (COLD_P[1] - COLD_P[0]) * plane_waves(node_pts, seeded_waves(rng, 3, 2.0))

    paths = {name: work / f"{name}.vxf" for name in ("g", "boundary", "exponent")}
    write_vxf(paths["g"], "cells", cells, origin, extent, g)
    write_vxf(paths["boundary"], "nodes", nodes, origin, extent, boundary[:, None])
    write_vxf(paths["exponent"], "nodes", nodes, origin, extent, p[:, None])
    cfg = work / "cold.cfg"
    write_config(cfg, {
        "run": {"seed": seed},
        "grid": {"dim": 3, "origin": origin, "extent": extent, "cells": cells},
        "exponent": {"kind": "file", "path": paths["exponent"].name},
        "data": {"instance": "files", "g": paths["g"].name,
                 "boundary": paths["boundary"].name},
        "solver": {"tolerance": TOLERANCE},
    })
    return {"config": cfg, "origin": origin, "extent": extent, "cells": cells,
            "u_star": u_star, "boundary": boundary, "g": g, "p": p}
