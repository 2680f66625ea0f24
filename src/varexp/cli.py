"""Command-line front end: configs, field-file I/O, reports, denoising.

Usage:
    varexp <command> --config <path> [--out <dir>] [--seed <int>]

Commands:
    solve       solve the configured instance, emit solution/exponent fields
    verify      Caccioppoli, reverse Holder, and higher-integrability records
    gehring     self-improvement scan, m0 and the mu ratio table
    goodlambda  delta(epsilon, lambda) occupancy table
    sweep       refinement / root-size / oscillation-amplitude sweeps
    denoise     variable-exponent image smoothing demo (PGM in, PGM out)

Exit codes: 0 success, 1 configuration or input error, 2 solver
non-convergence.

Config files are flat ``key = value`` text with ``[section]`` headers.
Unknown sections or keys are errors.  All keys, with defaults:

    [run]       seed = 0; out = varexp-out
    [grid]      dim = 2; origin = -1 -1; extent = 2 2; cells = 32 32
    [exponent]  kind = constant | table | file; value = 2.0 (constant);
                path = <vxf file> (table: nodal scalar on its own grid,
                interpolated; file: nodal scalar on the exact grid);
                p_infinity = <float> (optional)
    [data]      instance = matched | linear | bump | files;
                g = <vxf cell field> and boundary = <vxf nodal field>
                (files only)
    [solver]    tolerance = 1e-8; max_iterations = 200;
                variant = squared | power | shifted; gamma = 1.0
    [estimates] q = 2.0; kappa = auto | <float>; epsilons = 0.4 0.2 0.1 0.05;
                lambda_factors = 1 2 4; lambda_count = 64; m = auto | <float>;
                m0 = 1.5; mu_max = 2.0; steps = 8; cap = 1e3; root_scale = 0.5
    [sweep]     refinements = 1; sizes = 0.5 1 (absolute root side lengths,
                doubled roots must fit in the domain); amplitudes = 1 0.5
    [denoise]   image = <pgm>; strength = 3.0; p_min = 1.4; p_max = 2.0;
                iterations = 100

Field files ("VXF1") are text: a header line

    VXF1 <dim> <codomain> <nodes|cells> <counts per axis> <origin> <extent>

followed by one value per line, row-major over samples then components,
printed with 17 significant digits so reads reproduce writes exactly.
Images are 8-bit PGM, both P2 (ASCII) and P5 (binary).

CSV reports are deterministic for a fixed config and seed (no timestamps;
provenance lives in report.txt).  Columns per command:

    solve.csv      metric,value
    records.csv    name,cube,resolution,lhs,rhs_sum,constant,components,flags
    gehring.csv    mu,lhs,rhs,constant
    goodlambda.csv epsilon,lambda,delta
    sweep.csv      axis,setting,name,lhs,rhs_sum,constant
    denoise.csv    metric,value
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import default_kappa, good_lambda_measure
from .estimates import (EstimateRecord, caccioppoli_check, data_density,
                        energy_density, gehring_scan,
                        higher_integrability_check, reverse_holder_check)
from .exponent import ExponentField
from .grid import Box, CellField, Grid, GridFunction, gradient, mean_over
from .operator import FluxParams, structure_fit
from .solver import SolveOptions, SolverResult, manufactured_instance, solve_pxlaplace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "load_config",
    "read_field",
    "write_field",
    "read_pgm",
    "write_pgm",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2

_COMMANDS = ("solve", "verify", "gehring", "goodlambda", "sweep", "denoise")


class ConfigError(Exception):
    """Invalid configuration or unreadable input, named by field."""


class NonConvergence(Exception):
    """The solver failed to reach its residual tolerance."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration

_SCHEMA = {
    "run": {"seed", "out"},
    "grid": {"dim", "origin", "extent", "cells"},
    "exponent": {"kind", "value", "path", "p_infinity"},
    "data": {"instance", "g", "boundary"},
    "solver": {"tolerance", "max_iterations", "variant", "gamma"},
    "estimates": {"q", "kappa", "epsilons", "lambda_factors", "lambda_count",
                  "m", "m0", "mu_max", "steps", "cap", "root_scale"},
    "sweep": {"refinements", "sizes", "amplitudes"},
    "denoise": {"image", "strength", "p_min", "p_max", "iterations"},
}


@dataclass
class ExperimentConfig:
    command: str
    config_path: Path
    config_hash: str
    seed: int = 0
    out: Path = Path("varexp-out")
    # grid
    dim: int = 2
    origin: tuple[float, ...] = (-1.0, -1.0)
    extent: tuple[float, ...] = (2.0, 2.0)
    cells: tuple[int, ...] = (32, 32)
    # exponent
    exponent_kind: str = "constant"
    exponent_value: float = 2.0
    exponent_path: str | None = None
    p_infinity: float | None = None
    # data
    instance: str = "matched"
    g_path: str | None = None
    boundary_path: str | None = None
    # solver
    tolerance: float = 1e-8
    max_iterations: int = 200
    variant: str = "squared"
    gamma: float = 1.0
    # estimates
    q: float = 2.0
    kappa: float | None = None  # None = auto (2^{n+1} c4 from the structure fit)
    epsilons: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    lambda_factors: tuple[float, ...] = (1.0, 2.0, 4.0)
    lambda_count: int = 64
    m: float | None = None  # None = auto (2n)
    m0: float = 1.5
    mu_max: float = 2.0
    steps: int = 8
    cap: float = 1e3
    root_scale: float = 0.5
    # sweep
    refinements: int = 1
    sizes: tuple[float, ...] = (0.5, 1.0)
    amplitudes: tuple[float, ...] = (1.0, 0.5)
    # denoise
    image: str | None = None
    strength: float = 3.0
    p_min: float = 1.4
    p_max: float = 2.0
    iterations: int = 100

    def flux_params(self) -> FluxParams:
        return FluxParams(self.gamma, self.variant)

    def solve_options(self) -> SolveOptions:
        return SolveOptions(tolerance=self.tolerance,
                            max_iterations=self.max_iterations,
                            variant=self.variant)


class _Parsed:
    """Typed access to one config file with field-named errors."""

    def __init__(self, path: Path):
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",))
        cp.optionxform = str  # keys are case-sensitive
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        for sec in cp.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown section [{sec}]")
            for key in cp[sec]:
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"unknown key [{sec}] {key}")
        self.cp = cp

    def _raw(self, sec: str, key: str) -> str | None:
        if self.cp.has_option(sec, key):
            return self.cp.get(sec, key).strip()
        return None

    def str_(self, sec: str, key: str, default: str | None) -> str | None:
        v = self._raw(sec, key)
        return default if v is None else v

    def float_(self, sec: str, key: str, default: float | None) -> float | None:
        v = self._raw(sec, key)
        if v is None:
            return default
        try:
            return float(v)
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {key}: not a number: {v!r}") from exc

    def int_(self, sec: str, key: str, default: int) -> int:
        v = self._raw(sec, key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {key}: not an integer: {v!r}") from exc

    def floats(self, sec: str, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        v = self._raw(sec, key)
        if v is None:
            return default
        try:
            return tuple(float(t) for t in v.split())
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {key}: not a number list: {v!r}") from exc

    def ints(self, sec: str, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        v = self._raw(sec, key)
        if v is None:
            return default
        try:
            return tuple(int(t) for t in v.split())
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {key}: not an integer list: {v!r}") from exc

    def auto_float(self, sec: str, key: str) -> float | None:
        """A float or the literal 'auto' (returned as None)."""
        v = self._raw(sec, key)
        if v is None or v == "auto":
            return None
        try:
            return float(v)
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {key}: expected a number or 'auto': {v!r}") from exc


def load_config(command: str, path: str | Path, out: str | None = None,
                seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; CLI flags override file values."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {_COMMANDS}")
    path = Path(path)
    pc = _Parsed(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    cfg = ExperimentConfig(command=command, config_path=path, config_hash=digest)

    cfg.seed = pc.int_("run", "seed", cfg.seed) if seed is None else int(seed)
    cfg.out = Path(pc.str_("run", "out", str(cfg.out)) if out is None else out)

    cfg.dim = pc.int_("grid", "dim", cfg.dim)
    if cfg.dim not in (1, 2, 3):
        raise ConfigError(f"[grid] dim: must be 1, 2 or 3, got {cfg.dim}")
    dflt = {1: ((-1.0,), (2.0,), (32,)), 2: (cfg.origin, cfg.extent, cfg.cells),
            3: ((-1.0,) * 3, (2.0,) * 3, (8,) * 3)}[cfg.dim]
    cfg.origin = pc.floats("grid", "origin", dflt[0])
    cfg.extent = pc.floats("grid", "extent", dflt[1])
    cfg.cells = pc.ints("grid", "cells", dflt[2])
    for key, val in (("origin", cfg.origin), ("extent", cfg.extent), ("cells", cfg.cells)):
        if len(val) != cfg.dim:
            raise ConfigError(f"[grid] {key}: expected {cfg.dim} entries, got {len(val)}")
    if any(e <= 0 for e in cfg.extent):
        raise ConfigError("[grid] extent: entries must be positive")
    if any(c < 2 for c in cfg.cells):
        raise ConfigError("[grid] cells: at least 2 cells per axis")

    cfg.exponent_kind = pc.str_("exponent", "kind", cfg.exponent_kind)
    if cfg.exponent_kind not in ("constant", "table", "file"):
        raise ConfigError(f"[exponent] kind: unknown kind {cfg.exponent_kind!r}")
    cfg.exponent_value = pc.float_("exponent", "value", cfg.exponent_value)
    cfg.exponent_path = pc.str_("exponent", "path", None)
    cfg.p_infinity = pc.float_("exponent", "p_infinity", None)
    if cfg.exponent_kind != "constant" and cfg.exponent_path is None:
        raise ConfigError(f"[exponent] path: required for kind = {cfg.exponent_kind}")

    cfg.instance = pc.str_("data", "instance", cfg.instance)
    if cfg.instance not in ("matched", "linear", "bump", "files"):
        raise ConfigError(f"[data] instance: unknown instance {cfg.instance!r}")
    cfg.g_path = pc.str_("data", "g", None)
    cfg.boundary_path = pc.str_("data", "boundary", None)
    if cfg.instance == "files" and (cfg.g_path is None or cfg.boundary_path is None):
        raise ConfigError("[data] g and boundary: required for instance = files")

    cfg.tolerance = pc.float_("solver", "tolerance", cfg.tolerance)
    cfg.max_iterations = pc.int_("solver", "max_iterations", cfg.max_iterations)
    cfg.variant = pc.str_("solver", "variant", cfg.variant)
    if cfg.variant not in ("power", "shifted", "squared"):
        raise ConfigError(f"[solver] variant: unknown variant {cfg.variant!r}")
    cfg.gamma = pc.float_("solver", "gamma", cfg.gamma)
    if cfg.gamma < 0:
        raise ConfigError("[solver] gamma: must be nonnegative")

    cfg.q = pc.float_("estimates", "q", cfg.q)
    if cfg.q < 1:
        raise ConfigError("[estimates] q: must be >= 1")
    cfg.kappa = pc.auto_float("estimates", "kappa")
    cfg.epsilons = pc.floats("estimates", "epsilons", cfg.epsilons)
    cfg.lambda_factors = pc.floats("estimates", "lambda_factors", cfg.lambda_factors)
    if any(f < 1 for f in cfg.lambda_factors):
        raise ConfigError("[estimates] lambda_factors: factors must be >= 1")
    cfg.lambda_count = pc.int_("estimates", "lambda_count", cfg.lambda_count)
    cfg.m = pc.auto_float("estimates", "m")
    cfg.m0 = pc.float_("estimates", "m0", cfg.m0)
    cfg.mu_max = pc.float_("estimates", "mu_max", cfg.mu_max)
    cfg.steps = pc.int_("estimates", "steps", cfg.steps)
    cfg.cap = pc.float_("estimates", "cap", cfg.cap)
    cfg.root_scale = pc.float_("estimates", "root_scale", cfg.root_scale)
    if not 0 < cfg.root_scale <= 0.5:
        raise ConfigError("[estimates] root_scale: must lie in (0, 0.5] so the "
                          "doubled root stays inside the domain")

    cfg.refinements = pc.int_("sweep", "refinements", cfg.refinements)
    cfg.sizes = pc.floats("sweep", "sizes", cfg.sizes)
    cfg.amplitudes = pc.floats("sweep", "amplitudes", cfg.amplitudes)

    cfg.image = pc.str_("denoise", "image", None)
    cfg.strength = pc.float_("denoise", "strength", cfg.strength)
    cfg.p_min = pc.float_("denoise", "p_min", cfg.p_min)
    cfg.p_max = pc.float_("denoise", "p_max", cfg.p_max)
    cfg.iterations = pc.int_("denoise", "iterations", cfg.iterations)
    if cfg.command == "denoise":
        if cfg.image is None:
            raise ConfigError("[denoise] image: required for the denoise command")
        if cfg.p_min <= 1:
            raise ConfigError("[denoise] p_min: must exceed 1")
        if cfg.p_max < cfg.p_min:
            raise ConfigError("[denoise] p_max: must be >= p_min")
        if cfg.strength < 0:
            raise ConfigError("[denoise] strength: must be nonnegative")

    # file references are relative to the config file, not the process cwd
    base = path.parent
    for attr in ("exponent_path", "g_path", "boundary_path", "image"):
        val = getattr(cfg, attr)
        if val is not None and not Path(val).is_absolute():
            setattr(cfg, attr, str(base / val))
    return cfg


# ---------------------------------------------------------------------------
# field files (VXF1) and PGM images

def write_field(path: str | Path, field: GridFunction | CellField) -> None:
    """Write a nodal or cell field as VXF1 text (17 significant digits).

    Component shapes flatten to a single codomain column count; nested
    shapes such as gradient (N, dim) blocks come back two-dimensional.
    """
    grid = field.grid
    if isinstance(field, GridFunction):
        kind, count, counts = "nodes", grid.num_nodes, grid.nodes_per_axis
    elif isinstance(field, CellField):
        kind, count, counts = "cells", grid.num_cells, grid.cells
    else:
        raise TypeError(f"expected GridFunction or CellField, got {type(field)!r}")
    vals = field.values.reshape(count, -1)
    head = " ".join([
        "VXF1", str(grid.dim), str(vals.shape[1]), kind,
        " ".join(str(c) for c in counts),
        " ".join(_fmt(v) for v in grid.origin),
        " ".join(_fmt(v) for v in grid.extent),
    ])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head + "\n")
        fh.writelines(_fmt(v) + "\n" for v in vals.ravel())


def read_field(path: str | Path) -> GridFunction | CellField:
    """Read a VXF1 field file back as a GridFunction or CellField."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"field file not found: {path}")
    with open(path, encoding="ascii") as fh:
        head = fh.readline().split()
        body = fh.read().split()
    try:
        if head[0] != "VXF1":
            raise ValueError(f"bad magic {head[0]!r}")
        dim, codomain = int(head[1]), int(head[2])
        kind = head[3]
        if kind not in ("nodes", "cells"):
            raise ValueError(f"bad sample kind {kind!r}")
        rest = head[4:]
        if len(rest) != 3 * dim:
            raise ValueError("header counts/origin/extent truncated")
        counts = tuple(int(t) for t in rest[:dim])
        origin = tuple(float(t) for t in rest[dim:2 * dim])
        extent = tuple(float(t) for t in rest[2 * dim:])
        cells = tuple(c - 1 for c in counts) if kind == "nodes" else counts
        grid = Grid(dim, origin, extent, cells)
        expect = (grid.num_nodes if kind == "nodes" else grid.num_cells) * codomain
        if len(body) != expect:
            raise ValueError(f"expected {expect} values, found {len(body)}")
        vals = np.asarray([float(t) for t in body]).reshape(-1, codomain)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite values")
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"invalid VXF1 file {path}: {exc}") from exc
    return GridFunction(grid, vals) if kind == "nodes" else CellField(grid, vals)


def read_pgm(path: str | Path) -> tuple[np.ndarray, int, str]:
    """Read an 8-bit PGM image; returns (array (rows, cols), maxval, magic)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"image not found: {path}")
    data = path.read_bytes()

    # tokenize the header: whitespace-separated, '#' comments to end of line
    tokens, i = [], 0
    while len(tokens) < 4 and i < len(data):
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    try:
        magic = tokens[0].decode("ascii")
        if magic not in ("P2", "P5"):
            raise ValueError(f"unsupported magic {magic!r}")
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if not (0 < maxval <= 255):
            raise ValueError(f"maxval {maxval} outside 8-bit range")
        if magic == "P5":
            i += 1  # single whitespace byte after maxval
            raster = np.frombuffer(data[i:i + rows * cols], dtype=np.uint8)
            if raster.size != rows * cols:
                raise ValueError("truncated raster")
        else:
            raster = np.asarray([int(t) for t in data[i:].split()], dtype=np.int64)
            if raster.size != rows * cols:
                raise ValueError(f"expected {rows * cols} pixels, found {raster.size}")
        if raster.max(initial=0) > maxval:
            raise ValueError("pixel above maxval")
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid PGM file {path}: {exc}") from exc
    return raster.reshape(rows, cols).astype(np.uint8), maxval, magic


def write_pgm(path: str | Path, img: np.ndarray, maxval: int = 255,
              magic: str = "P5") -> None:
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    head = f"{magic}\n{img.shape[1]} {img.shape[0]}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        if magic == "P5":
            fh.write(img.tobytes())
        elif magic == "P2":
            fh.write("\n".join(" ".join(str(v) for v in row) for row in img).encode("ascii"))
            fh.write(b"\n")
        else:
            raise ValueError(f"unsupported magic {magic!r}")


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    command: str
    provenance: dict[str, str]
    records: list = field(default_factory=list)
    scalars: list[tuple[str, float]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def write_text(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"varexp {self.command} report\n")
            for k, v in self.provenance.items():
                fh.write(f"{k} = {v}\n")
            fh.write("\n")
            for name, value in self.scalars:
                fh.write(f"{name} = {_fmt(value)}\n")
            if self.scalars:
                fh.write("\n")
            for rec in self.records:
                fh.write(_record_text(rec))
            for line in self.lines:
                fh.write(line + "\n")


def _record_text(rec: EstimateRecord) -> str:
    comps = ", ".join(f"{k} = {_fmt(v)}" for k, v in rec.rhs_components.items())
    flags = f"  flags: {'; '.join(rec.flags)}\n" if rec.flags else ""
    return (f"[{rec.name}] cube {_cube_str(rec.cube)} at {rec.resolution}\n"
            f"  lhs = {_fmt(rec.lhs)}  rhs = {_fmt(rec.rhs_sum)}  "
            f"constant = {_fmt(rec.empirical_constant)}\n"
            f"  rhs components: {comps}\n{flags}")


def _cube_str(cube: Box | None) -> str:
    if cube is None:
        return "-"
    lo = " ".join(_fmt(v) for v in cube.lo)
    hi = " ".join(_fmt(v) for v in cube.hi)
    return f"({lo}) to ({hi})"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _record_row(rec: EstimateRecord) -> list[str]:
    comps = ";".join(f"{k}={_fmt(v)}" for k, v in rec.rhs_components.items())
    return [rec.name, _cube_str(rec.cube), "x".join(str(c) for c in rec.resolution),
            _fmt(rec.lhs), _fmt(rec.rhs_sum), _fmt(rec.empirical_constant),
            comps, ";".join(rec.flags)]


_RECORD_COLUMNS = ["name", "cube", "resolution", "lhs", "rhs_sum", "constant",
                   "components", "flags"]


def _provenance(cfg: ExperimentConfig) -> dict[str, str]:
    import scipy
    return {
        "config": str(cfg.config_path),
        "config_sha256": cfg.config_hash,
        "command": cfg.command,
        "seed": str(cfg.seed),
        "versions": f"varexp {__version__}, numpy {np.__version__}, scipy {scipy.__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# instance construction

def _build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(cfg.dim, cfg.origin, cfg.extent, cfg.cells)


def _build_exponent(cfg: ExperimentConfig, grid: Grid) -> ExponentField:
    if cfg.exponent_kind == "constant":
        pf = GridFunction(grid, np.full(grid.num_nodes, float(cfg.exponent_value)))
        return ExponentField(pf, cfg.p_infinity)
    fld = read_field(cfg.exponent_path)
    if not isinstance(fld, GridFunction) or fld.codomain_dim != 1:
        raise ConfigError(f"[exponent] path: {cfg.exponent_path} must hold a nodal scalar")
    if cfg.exponent_kind == "file":
        if fld.grid != grid:
            raise ConfigError("[exponent] path: field grid does not match [grid] "
                              "(use kind = table for interpolation)")
        nodal = fld.values[:, 0]
    else:  # table: multilinear interpolation onto the target nodes
        nodal = fld.at(grid.node_coords)[:, 0]
    if nodal.min() <= 1.0:
        raise ConfigError("[exponent] values must exceed 1 everywhere")
    return ExponentField(GridFunction(grid, nodal), cfg.p_infinity)


def _build_instance(cfg: ExperimentConfig, grid: Grid, p: ExponentField):
    """Returns (u_star or None, G, boundary)."""
    if cfg.instance == "files":
        g_fld = read_field(cfg.g_path)
        if not isinstance(g_fld, CellField) or g_fld.grid != grid:
            raise ConfigError(f"[data] g: {cfg.g_path} must hold a cell field on [grid]")
        g_vals = g_fld.values.reshape(grid.num_cells, -1)
        if g_vals.shape[1] % grid.dim != 0:
            raise ConfigError(f"[data] g: codomain {g_vals.shape[1]} is not a "
                              f"multiple of dim {grid.dim}")
        N = g_vals.shape[1] // grid.dim
        G = CellField(grid, g_vals.reshape(grid.num_cells, N, grid.dim))
        b_fld = read_field(cfg.boundary_path)
        if not isinstance(b_fld, GridFunction) or b_fld.grid != grid:
            raise ConfigError(f"[data] boundary: {cfg.boundary_path} must hold a "
                              "nodal field on [grid]")
        if b_fld.codomain_dim != N:
            raise ConfigError(f"[data] boundary: codomain {b_fld.codomain_dim} != {N}")
        return None, G, b_fld
    return manufactured_instance(cfg.instance, grid, p)


def _solve(cfg: ExperimentConfig, grid: Grid, p: ExponentField,
           G: CellField, boundary: GridFunction) -> SolverResult:
    result = solve_pxlaplace(G, p, boundary, grid, cfg.solve_options())
    if not result.converged:
        raise NonConvergence(result.message or "solver did not converge")
    return result


def _resolve_kappa(cfg: ExperimentConfig, p: ExponentField) -> float:
    if cfg.kappa is not None:
        return cfg.kappa
    fit = structure_fit(p, cfg.flux_params(), seed=cfg.seed)
    return default_kappa(fit.c4, p.grid.dim)


def _root(cfg: ExperimentConfig, grid: Grid) -> Box:
    return grid.domain.scaled(cfg.root_scale)


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(cfg: ExperimentConfig, rep: Report) -> None:
    grid = _build_grid(cfg)
    p = _build_exponent(cfg, grid)
    u_star, G, boundary = _build_instance(cfg, grid, p)
    res = _solve(cfg, grid, p, G, boundary)
    write_field(cfg.out / "solution.vxf", res.u)
    write_field(cfg.out / "exponent.vxf", p.field)
    ed = energy_density(res.u, p)
    rep.scalars += [("residual", res.residual), ("iterations", res.iterations),
                    ("converged", 1.0), ("gamma_final", res.gamma_final),
                    ("energy_mean", mean_over(ed, grid.domain))]
    if u_star is not None:
        rep.scalars.append(("sup_error_vs_reference",
                            float(np.abs(res.u.values - u_star.values).max())))
    _write_csv(cfg.out / "solve.csv", ["metric", "value"],
               [[k, _fmt(v)] for k, v in rep.scalars])


def _cmd_verify(cfg: ExperimentConfig, rep: Report) -> None:
    grid = _build_grid(cfg)
    p = _build_exponent(cfg, grid)
    _, G, boundary = _build_instance(cfg, grid, p)
    res = _solve(cfg, grid, p, G, boundary)
    root = _root(cfg, grid)
    kappa = _resolve_kappa(cfg, p)

    pc = p.cell_values
    n = grid.dim
    s_cap = min(n / (n - 1.0) if n > 1 else np.inf, float(pc.min()))
    s = 0.5 * (1.0 + s_cap)
    rep.records = [
        caccioppoli_check(res.u, G, p, root),
        reverse_holder_check(res.u, G, p, root, s, m=cfg.m),
        higher_integrability_check(res.u, G, p, cfg.q, root, kappa,
                                   cfg.epsilons[0], cfg.m0,
                                   sweep_points=cfg.lambda_count, m=cfg.m),
    ]
    rep.scalars = [("kappa", kappa), ("s", s), ("residual", res.residual)]
    _write_csv(cfg.out / "records.csv", _RECORD_COLUMNS,
               [_record_row(r) for r in rep.records])


def _cmd_gehring(cfg: ExperimentConfig, rep: Report) -> None:
    grid = _build_grid(cfg)
    p = _build_exponent(cfg, grid)
    _, G, boundary = _build_instance(cfg, grid, p)
    res = _solve(cfg, grid, p, G, boundary)
    root = _root(cfg, grid)
    gr = gehring_scan(res.u, G, p, root, mu_max=cfg.mu_max, steps=cfg.steps,
                      cap=cfg.cap, m=cfg.m)
    rep.scalars = [("m0", gr.m0), ("m1", gr.m1), ("sigma", gr.sigma),
                   ("cap", gr.cap), ("cubes_tested", gr.cubes_tested)]
    rep.records = list(gr.records)
    _write_csv(cfg.out / "gehring.csv", ["mu", "lhs", "rhs", "constant"],
               [[_fmt(mu), _fmt(lhs), _fmt(rhs), _fmt(c)]
                for mu, lhs, rhs, c in gr.ratio_table])


def _cmd_goodlambda(cfg: ExperimentConfig, rep: Report) -> None:
    grid = _build_grid(cfg)
    p = _build_exponent(cfg, grid)
    _, G, boundary = _build_instance(cfg, grid, p)
    res = _solve(cfg, grid, p, G, boundary)
    root = _root(cfg, grid)
    kappa = _resolve_kappa(cfg, p)
    F = energy_density(res.u, p)
    Gh = data_density(G, p, cfg.m)
    lam0 = mean_over(F, root.scaled(2.0))
    lambdas = [f * lam0 for f in cfg.lambda_factors]
    gl = good_lambda_measure(F, Gh, root, kappa, cfg.epsilons, lambdas, cfg.m0)
    rep.scalars = [("kappa", kappa), ("m0", cfg.m0), ("lambda0", gl.lambda0)]
    rep.lines = [f"delta(eps = {_fmt(e)}, lam = {_fmt(l)}) = {_fmt(d)}"
                 for e, l, d in gl.rows]
    _write_csv(cfg.out / "goodlambda.csv", ["epsilon", "lambda", "delta"],
               [[_fmt(e), _fmt(l), _fmt(d)] for e, l, d in gl.rows])


def _sweep_instance(cfg: ExperimentConfig, grid: Grid, p: ExponentField,
                    root: Box, kappa: float) -> list[EstimateRecord]:
    _, G, boundary = _build_instance(cfg, grid, p)
    res = _solve(cfg, grid, p, G, boundary)
    return [
        caccioppoli_check(res.u, G, p, root),
        higher_integrability_check(res.u, G, p, cfg.q, root, kappa,
                                   cfg.epsilons[0], cfg.m0,
                                   sweep_points=cfg.lambda_count, m=cfg.m),
    ]


def _cmd_sweep(cfg: ExperimentConfig, rep: Report) -> None:
    base = _build_grid(cfg)
    p0 = _build_exponent(cfg, base)
    kappa = _resolve_kappa(cfg, p0)
    rows: list[list[str]] = []

    def add(axis: str, setting: str, recs: list[EstimateRecord]) -> None:
        for r in recs:
            rows.append([axis, setting, r.name, _fmt(r.lhs), _fmt(r.rhs_sum),
                         _fmt(r.empirical_constant)])
        rep.records.extend(recs)

    for level in range(cfg.refinements + 1):
        cells = tuple(c * 2**level for c in cfg.cells)
        grid = Grid(cfg.dim, cfg.origin, cfg.extent, cells)
        p = _build_exponent(cfg, grid)
        add("refinement", "x".join(str(c) for c in cells),
            _sweep_instance(cfg, grid, p, _root(cfg, grid), kappa))

    for size in cfg.sizes:
        root = Box(tuple(c - size / 2 for c in base.domain.center),
                   tuple(c + size / 2 for c in base.domain.center))
        add("size", _fmt(size), _sweep_instance(cfg, base, p0, root, kappa))

    mean_p = float(p0.values.mean())
    for t in cfg.amplitudes:
        vals = mean_p + t * (p0.values - mean_p)
        pt = ExponentField(GridFunction(base, vals), cfg.p_infinity)
        _, G, boundary = _build_instance(cfg, base, pt)
        res = _solve(cfg, base, pt, G, boundary)
        F = energy_density(res.u, pt)
        Gh = data_density(G, pt, cfg.m)
        root = _root(cfg, base)
        lam0 = mean_over(F, root.scaled(2.0))
        gl = good_lambda_measure(F, Gh, root, kappa,
                                 cfg.epsilons, [cfg.lambda_factors[0] * lam0], cfg.m0)
        for e, lam, d in gl.rows:
            rows.append(["amplitude", _fmt(t), f"delta(eps={_fmt(e)})",
                         _fmt(d), "", ""])

    _write_csv(cfg.out / "sweep.csv",
               ["axis", "setting", "name", "lhs", "rhs_sum", "constant"], rows)


def _cmd_denoise(cfg: ExperimentConfig, rep: Report) -> None:
    img, maxval, magic = read_pgm(cfg.image)
    rows, cols = img.shape
    if rows < 3 or cols < 3:
        raise ConfigError(f"[denoise] image: {cfg.image} too small ({rows}x{cols})")
    from scipy.ndimage import gaussian_filter

    grid = Grid(2, (0.0, 0.0), (float(rows - 1), float(cols - 1)), (rows - 1, cols - 1))
    u0 = GridFunction(grid, img.astype(float).ravel() / maxval)

    # edge detector: small smoothed gradient -> p_max (diffusion),
    # large -> p_min (total-variation-like)
    smooth = gaussian_filter(img.astype(float) / maxval, sigma=1.5)
    gr, gc = np.gradient(smooth)
    gsq = (gr**2 + gc**2).ravel()
    p_vals = cfg.p_min + (cfg.p_max - cfg.p_min) / (1.0 + cfg.strength * gsq)
    p = ExponentField(GridFunction(grid, np.clip(p_vals, cfg.p_min, cfg.p_max)))

    # flux data: gradient of a Gaussian-smoothed copy, blur growing with
    # strength; strength 0 reproduces the input exactly
    sigma = cfg.strength / 2.0
    if sigma > 0:
        target = gaussian_filter(img.astype(float) / maxval, sigma=sigma).ravel()
    else:
        target = u0.values[:, 0].copy()
    G = gradient(GridFunction(grid, target))
    opts = SolveOptions(tolerance=cfg.tolerance, max_iterations=cfg.iterations,
                        variant=cfg.variant)
    res = solve_pxlaplace(G, p, u0, grid, opts)
    if not res.converged:
        raise NonConvergence(res.message or "denoise solve did not converge")

    out_img = np.clip(np.rint(res.u.values.reshape(rows, cols) * maxval),
                      0, maxval).astype(np.uint8)
    write_pgm(cfg.out / "denoised.pgm", out_img, maxval, magic)
    write_field(cfg.out / "exponent.vxf", p.field)
    rep.scalars = [
        ("residual", res.residual), ("iterations", res.iterations),
        ("strength", cfg.strength), ("blur_sigma", sigma),
        ("p_min_used", float(p.values.min())), ("p_max_used", float(p.values.max())),
        ("mean_abs_change", float(np.abs(out_img.astype(float) - img).mean())),
    ]
    _write_csv(cfg.out / "denoise.csv", ["metric", "value"],
               [[k, _fmt(v)] for k, v in rep.scalars])


_RUNNERS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "gehring": _cmd_gehring,
    "goodlambda": _cmd_goodlambda,
    "sweep": _cmd_sweep,
    "denoise": _cmd_denoise,
}


def run(cfg: ExperimentConfig) -> Report:
    """Execute the configured command; writes reports under cfg.out."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    rep = Report(cfg.command, _provenance(cfg))
    try:
        _RUNNERS[cfg.command](cfg, rep)
    except ValueError as exc:
        # library-level precondition violations are configuration errors
        raise ConfigError(str(exc)) from exc
    rep.write_text(cfg.out / "report.txt")
    return rep


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code.

    The default argparse exit code (2) is reserved here for solver
    non-convergence, so command-line mistakes must not collide with it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: config error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    ap = _Parser(
        prog="varexp",
        description="variable-exponent energy experiments and reports")
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("--config", required=True, help="experiment config file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="random seed override")
    ns = ap.parse_args(argv)
    try:
        cfg = load_config(ns.command, ns.config, out=ns.out, seed=ns.seed)
        run(cfg)
    except ConfigError as exc:
        print(f"varexp: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"varexp: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
