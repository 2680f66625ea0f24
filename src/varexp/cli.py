"""Command-line front end: configs, field-file I/O, reports, denoising.

Usage:
    varexp <command> --config <path> [--out <dir>]

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
Unknown sections or keys are errors.  All keys, with defaults, kinds and
per-key rules (rendered from the ExperimentConfig fields at import):

    {config keys}

Field files ("VXF1") are text: a header line

    VXF1 <dim> <codomain> <nodes|cells> <counts per axis> <origin> <extent>

followed by the values, row-major over samples then components, written
one per line with 17 significant digits so reads reproduce writes exactly.
A read takes any rectangular body: every non-blank line holds the same
number of values, blank lines are skipped, and there are no comments.
Images are 8-bit PGM, both P2 (ASCII) and P5 (binary).

CSV reports are deterministic for a fixed config (no timestamps;
provenance lives in report.txt, written however a run ends).  Its
``checks`` block gives each check a command ran a line: how many of its
rows tested something, and the rows under each ``_REASONS`` entry that
did not.  It ends with the lines of each solve level: a head naming its
grid and how it started, cold or warm from a coarser grid, its Newton
steps, wall seconds and residual, then one line per gamma stage with
Newton steps, fallbacks, backtracks, guarded steps, factor reuses and CG
iterations, factorization seconds and fill (the nonzero count of the
Cholesky factor L), residual and stop reason.
A cold solve runs a ladder of nested grids (``solver.solve_pxlaplace``),
whose coarsest level starts from the injected interior: the image for
denoise, its boundary trace and a zero interior for a closed-form instance
(matched, linear, bump), never u*, and the boundary file's for a files
instance.  Columns per command:

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
import importlib
import os
import sys
import warnings
from dataclasses import Field, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import GoodLambdaResult, default_kappa, good_lambda_measure
from .estimates import (EstimateRecord, _s_cap, caccioppoli_check, data_density,
                        energy_density, gehring_scan,
                        higher_integrability_check, reverse_holder_check)
from .exponent import ExponentField
from .grid import Box, CellField, Grid, GridFunction, gradient, mean_over
from .operator import coercivity_constant
from .solver import SolverResult, manufactured_instance, solve_pxlaplace

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


class ConfigError(Exception):
    """Invalid configuration or unreadable input, named by field."""


class NonConvergence(Exception):
    """The solver failed to reach its residual tolerance."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration: each key is one ExperimentConfig field declared by ``_key``.
# Parsing, the allowed sections and keys, path resolution and the key listing
# in the module docstring all walk ``_config_keys()``.

# kind -> (what a value of that kind is, parser of the value text); every
# number read must also be finite and every list non-empty
_KINDS = {
    "int": ("an integer", int),
    "float": ("a finite number", float),
    "str": ("a word", str),
    "path": ("a file path, relative to the config file", str),
    "floats": ("a non-empty list of finite numbers", lambda v: tuple(map(float, v.split()))),
    "ints": ("a non-empty list of integers", lambda v: tuple(map(int, v.split()))),
    "auto": ("'auto' or a finite number", lambda v: None if v == "auto" else float(v)),
}


def _key(section: str, kind: str, default, doc: str, rule=None, key: str | None = None):
    """A config key.  ``rule`` is a (test, message) pair that each value read
    from a file (each entry of a list) must pass; ``key`` overrides the name."""
    return field(default=default, metadata={
        "section": section, "key": key, "kind": kind, "doc": doc, "rule": rule})


def _one_of(*choices):
    return (lambda v: v in choices, "one of " + " | ".join(map(str, choices)))


def _at_least(bound: float):
    return (lambda v: v >= bound, f"must be >= {bound:g}")


def _above(bound: float):
    return (lambda v: v > bound, f"must exceed {bound:g}")


@dataclass
class ExperimentConfig:
    command: str
    config_path: Path
    config_hash: str
    seed: int = _key("run", "int", 0, "recorded in report.txt; nothing in varexp is random")
    out: Path = _key("run", "str", Path("varexp-out"),
                     "output directory, relative to the working directory, not to the "
                     "config file; --out overrides")
    dim: int = _key("grid", "int", 2, "space dimension", _one_of(1, 2, 3))
    # the grid defaults are 2-D; other dims repeat the first entry per axis
    origin: tuple[float, ...] = _key("grid", "floats", (-1.0, -1.0), "lower domain corner")
    extent: tuple[float, ...] = _key("grid", "floats", (2.0, 2.0), "domain side lengths",
                                     _above(0))
    cells: tuple[int, ...] = _key("grid", "ints", (32, 32), "cells per axis (8 in 3-D)",
                                  _at_least(2))
    exponent_kind: str = _key("exponent", "str", "constant", "p = value, a VXF table or a VXF file",
                              _one_of("constant", "table", "file"), key="kind")
    exponent_value: float = _key("exponent", "float", 2.0, "p for kind = constant",
                                 _above(1), key="value")
    exponent_path: str | None = _key("exponent", "path", None,
                                     "VXF nodal p: any grid for table, [grid] for file", key="path")
    instance: str = _key("data", "str", "matched", "closed-form instance, or VXF files",
                         _one_of("matched", "linear", "bump", "files"))
    g_path: str | None = _key("data", "path", None, "VXF cell field G (files)", key="g")
    boundary_path: str | None = _key("data", "path", None, "VXF nodal boundary values (files)",
                                     key="boundary")
    tolerance: float = _key("solver", "float", 1e-8,
                            "residual at which the final gamma stage stops", _above(0))
    max_iterations: int = _key("solver", "int", 200, "Newton step cap per gamma stage",
                               _at_least(0))
    q: float = _key("estimates", "float", 2.0, "higher-integrability exponent", _at_least(1))
    kappa: float | None = _key("estimates", "auto", None,
                               "good-lambda factor, at least 2^dim; auto: 2^(n+1) c4, with c4 "
                               "the exact coercivity constant of the power flux over p- and p+")
    epsilons: tuple[float, ...] = _key("estimates", "floats", (0.4, 0.2, 0.1, 0.05),
                                       "good-lambda epsilons, all used by goodlambda and by "
                                       "each sweep amplitude row",
                                       _above(0))
    lambda_factors: tuple[float, ...] = _key("estimates", "floats", (1.0, 2.0, 4.0),
                                             "good-lambda lambdas over lambda0; sweep: the first",
                                             _at_least(1))
    lambda_count: int = _key("estimates", "int", 64, "level-set sweep points", _at_least(1))
    m: float | None = _key("estimates", "auto", None,
                           "decay power of (e+|x|)^-m, above dim; auto = 2n")
    m0: float = _key("estimates", "float", 1.5, "power of the data maximal function", _above(0))
    mu_max: float = _key("estimates", "float", 2.0, "largest Gehring exponent scanned", _above(1))
    steps: int = _key("estimates", "int", 8, "Gehring exponents scanned", _at_least(2))
    cap: float = _key("estimates", "float", 1e3, "largest Gehring constant counted toward m0")
    root_scale: float = _key("estimates", "float", 0.5, "root side over domain side",
                             (lambda v: 0 < v <= 0.5, "must lie in (0, 0.5] so the "
                              "doubled root stays inside the domain"))
    refinements: int = _key("sweep", "int", 1, "grid doublings after the base grid",
                            _at_least(0))
    sizes: tuple[float, ...] = _key("sweep", "floats", (0.5, 1.0),
                                    "absolute root side lengths; doubled roots must fit the domain",
                                    _above(0))
    amplitudes: tuple[float, ...] = _key("sweep", "floats", (1.0, 0.5),
                                         "t in mean p + t (p - mean p); p- must stay above 1")
    image: str | None = _key("denoise", "path", None, "input PGM; required by denoise")
    strength: float = _key("denoise", "float", 3.0, "smoothing strength; 0 keeps the input",
                           _at_least(0))
    p_min: float = _key("denoise", "float", 1.4, "exponent at strong edges", _above(1))
    p_max: float = _key("denoise", "float", 2.0, "exponent on flat regions")


def _config_keys() -> dict[tuple[str, str], Field]:
    """(section, key) -> field, in declaration order."""
    return {(f.metadata["section"], f.metadata["key"] or f.name): f
            for f in fields(ExperimentConfig) if f.metadata}


def _key_listing() -> str:
    lines = []
    for (section, key), f in _config_keys().items():
        meta, d = f.metadata, f.default
        shown = " ".join(map(str, d)) if isinstance(d, tuple) else "-" if d is None else str(d)
        rule = f"; {meta['rule'][1]}" if meta["rule"] else ""
        lines.append(f"    [{section}] {key} = {'auto' if meta['kind'] == 'auto' else shown}  "
                     f"({meta['kind']}{rule})\n        {meta['doc']}")
    return "\n".join(lines + [""] + [f"    {k:<7} {what}" for k, (what, _) in _KINDS.items()])


if __doc__:
    __doc__ = __doc__.replace("    {config keys}", _key_listing())


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data`` from the interpreter's builtin
    module, ``_sha2`` (Python 3.12+) or ``_sha256``, as ``random`` takes its
    sha512; ``hashlib`` is the last resort, because it loads OpenSSL's
    libcrypto (3.5 MB of resident memory) for this one digest."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass
    return importlib.import_module("hashlib").sha256(data).hexdigest()


def load_config(command: str, path: str | Path, out: str | None = None) -> ExperimentConfig:
    """Parse and validate a config file; CLI flags override file values."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {_COMMANDS}")
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # default_section="": [DEFAULT] is an ordinary (and so unknown) section
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="",
                                   comment_prefixes=("#",), inline_comment_prefixes=("#",))
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(path.read_text(encoding="utf-8"), str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    table = _config_keys()
    values = {}
    for sec in cp.sections():
        if sec not in {s for s, _ in table}:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp[sec].items():
            if (sec, key) not in table:
                raise ConfigError(f"unknown key [{sec}] {key}")
            f = table[sec, key]
            kind, rule = f.metadata["kind"], f.metadata["rule"]
            what, parse = _KINDS[kind]
            try:
                value = parse(raw)
                items = value if isinstance(value, tuple) else [value]
                if not items or not all(np.isfinite(x) for x in items if isinstance(x, float)):
                    raise ValueError(raw)
            except ValueError as exc:
                raise ConfigError(f"[{sec}] {key}: expected {what}, got {raw!r}") from exc
            if rule and not all(map(rule[0], items)):
                raise ConfigError(f"[{sec}] {key}: {rule[1]}, got {raw!r}")
            if kind == "path" and not Path(value).is_absolute():
                value = str(path.parent / value)  # not relative to the process cwd
            values[f.name] = value
    cfg = ExperimentConfig(command, path, _sha256_hex(path.read_bytes()), **values)

    # rules that involve more than one key, or a CLI flag
    cfg.out = Path(cfg.out if out is None else out)
    for name in ("origin", "extent", "cells"):
        given = getattr(cfg, name)
        if name not in values:
            setattr(cfg, name, (8 if name == "cells" and cfg.dim == 3 else given[0],) * cfg.dim)
        elif len(given) != cfg.dim:
            raise ConfigError(f"[grid] {name}: expected {cfg.dim} entries, got {len(given)}")
    if cfg.m is not None and cfg.m <= cfg.dim:
        raise ConfigError(f"[estimates] m: must exceed dim = {cfg.dim}, got {cfg.m:g}")
    if cfg.kappa is not None and cfg.kappa < 2**cfg.dim:
        raise ConfigError(f"[estimates] kappa: must be >= 2^dim = {2**cfg.dim}, got {cfg.kappa:g}")
    if cfg.exponent_kind != "constant" and cfg.exponent_path is None:
        raise ConfigError(f"[exponent] path: required for kind = {cfg.exponent_kind}")
    if cfg.instance == "files" and (cfg.g_path is None or cfg.boundary_path is None):
        raise ConfigError("[data] g and boundary: required for instance = files")
    if cfg.command == "sweep" and cfg.refinements > 0 and (
            cfg.instance == "files" or cfg.exponent_kind == "file"):
        raise ConfigError("[sweep] refinements: must be 0 with instance = files or "
                          "exponent kind = file, since a field file holds one grid")
    if cfg.command == "sweep":
        for size in cfg.sizes:
            try:  # the root of _cmd_sweep's size row; a box must be finite and not flat
                domain = Grid(cfg.dim, cfg.origin, cfg.extent, cfg.cells).domain
                fits = domain.contains_box(_size_root(domain, size).scaled(2.0))
            except ValueError as exc:
                raise ConfigError(f"[sweep] sizes: {exc}, got size {size:g}") from exc
            if not fits:
                raise ConfigError(f"[sweep] sizes: the doubled root (side {2 * size:g}) must "
                                  f"fit the domain (extent {' '.join(map(_fmt, cfg.extent))}), "
                                  f"got size {size:g}")
    if cfg.command == "denoise":
        if cfg.image is None:
            raise ConfigError("[denoise] image: required for the denoise command")
        if cfg.p_max < cfg.p_min:
            raise ConfigError("[denoise] p_max: must be >= p_min")
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
    body = vals.ravel().tolist()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head + "\n")
        fh.write(("%.17g\n" * len(body)) % tuple(body))  # as _fmt, in one call


def read_field(path: str | Path) -> GridFunction | CellField:
    """Read a VXF1 field file back as a GridFunction or CellField.

    The body is parsed straight into floats: its rows must all hold the
    same number of values, blank lines are skipped and nothing is a
    comment."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"field file not found: {path}")
    try:
        with open(path, encoding="ascii") as fh:
            head = fh.readline().split()
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
            with warnings.catch_warnings():  # an empty body fails the count check
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                vals = np.loadtxt(fh, comments=None, ndmin=1)
        if vals.size != expect:
            raise ValueError(f"expected {expect} values, found {vals.size}")
        vals = vals.reshape(-1, codomain)
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
        if rows <= 0 or cols <= 0:
            raise ValueError(f"image size {cols} x {rows} is not positive")
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
        if raster.min() < 0 or raster.max() > maxval:
            raise ValueError("pixel outside [0, maxval]")
    except (ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"invalid PGM file {path}: {exc}") from exc
    return raster.reshape(rows, cols).astype(np.uint8), maxval, magic


def write_pgm(path: str | Path, img: np.ndarray, maxval: int = 255,
              magic: str = "P5") -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    # read_pgm's checks, before the file is opened and the uint8 cast wraps 300 to 44
    if magic not in ("P2", "P5"):
        raise ValueError(f"unsupported magic {magic!r}")
    if not (0 < maxval <= 255):
        raise ValueError(f"maxval {maxval} outside 8-bit range")
    if img.min() < 0 or img.max() > maxval:
        raise ValueError("pixel outside [0, maxval]")
    img = img.astype(np.uint8)
    head = f"{magic}\n{img.shape[1]} {img.shape[0]}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        if magic == "P5":
            fh.write(img.tobytes())
        else:
            fh.write("\n".join(" ".join(str(v) for v in row) for row in img).encode("ascii"))
            fh.write(b"\n")


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    command: str
    provenance: dict[str, str]
    records: list = field(default_factory=list)
    scalars: list[tuple[str, float]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    checks: list[tuple[str, object]] = field(default_factory=list)  # (name, result) per check

    def write_text(self, path: Path) -> None:
        scalars = [f"{k} = {_fmt(v)}\n" for k, v in self.scalars]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"varexp {self.command} report\n")
            fh.writelines([f"{k} = {v}\n" for k, v in self.provenance.items()] + ["\n"])
            fh.writelines(scalars + ["\n"] * bool(scalars))
            fh.writelines([_record_text(rec) for rec in self.records]
                          + [line + "\n" for line in self.lines])


def _record_text(rec: EstimateRecord) -> str:
    comps = ", ".join(f"{k} = {_fmt(v)}" for k, v in rec.rhs_components.items())
    flags = f"  flags: {'; '.join(rec.flags)}\n" if rec.flags else ""
    return (f"[{rec.name}] cube {_cube_str(rec.cube)} at {rec.resolution}\n"
            f"  lhs = {_fmt(rec.lhs)}  rhs = {_fmt(rec.rhs_sum)}  "
            f"constant = {_fmt(rec.empirical_constant)}\n"
            f"  rhs components: {comps}\n{flags}")


def _cells_str(cells: tuple[int, ...]) -> str:
    return "x".join(str(c) for c in cells)


def _cube_str(cube: Box) -> str:
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
    return [rec.name, _cube_str(rec.cube), _cells_str(rec.resolution),
            _fmt(rec.lhs), _fmt(rec.rhs_sum), _fmt(rec.empirical_constant),
            comps, ";".join(rec.flags)]


def _blas() -> str:
    """The BLAS NumPy was built against and the threads it runs, by
    OpenBLAS's rule: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the
    CPUs this process may use.  The dense kernels round differently at
    different thread counts, so the bytes of a solve depend on both."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # no build record in this NumPy
        name = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    else:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count())
    return f"blas {name}, threads {threads}"


def _provenance(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        "config": str(cfg.config_path),
        "config_sha256": cfg.config_hash,
        "command": cfg.command,
        "seed": str(cfg.seed),
        "versions": f"varexp {__version__}, numpy {np.__version__}, {_blas()}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# why a check's row tested nothing; a row's status is the first that holds, else tested
_REASONS = {
    "vacuous": lambda row: row.get("kappa_cells") == 0,  # no cell has M*F > kappa lam
    "u-empty": lambda row: row.get("u_cells") == 0,  # but none has M*G <= eps lam: U is empty
    "censored": lambda row: "mu_grid" in row and row["m0"] == row["mu_grid"][-1],  # m0 is a floor
    "tail-unused": lambda row: "level-set-tail-unused" in row.get("flags", ()),
    "route-mismatch": lambda row: "level-set-route-mismatch" in row.get("flags", ()),
}


def _checks_block(checks: list[tuple[str, object]]) -> list[str]:
    """The checks block of report.txt: of each (name, result) a command ran,
    a good-lambda table, Gehring scan or estimate record, one line that counts
    the rows tested and lists the rest under their reasons.  No " = " in it."""
    lines = ["checks"]
    for name, res in checks:
        rows = [("", vars(res))]  # (label, facts); one row's facts are its result's fields
        if isinstance(res, GoodLambdaResult):
            rows = [(f"(eps {_fmt(e)}, lam {_fmt(lam)})", {"kappa_cells": k, "u_cells": u})
                    for (e, lam, _), k, u in zip(res.rows, res.kappa_cells, res.u_cells)]
        status = [next((why for why, holds in _REASONS.items() if holds(facts)), "tested")
                  for _, facts in rows]
        reasons = [f"{why} in {', '.join(lab for (lab, _), s in zip(rows, status) if s == why)}"
                   if rows[0][0] else why for why in _REASONS if why in status]
        lines.append(f"  {name}: {status.count('tested')} of {len(rows)} rows tested; "
                     f"{'; '.join(reasons or ['tested'])}")
    return lines if checks else []


# ---------------------------------------------------------------------------
# instance construction

def _build_exponent(cfg: ExperimentConfig, grid: Grid) -> ExponentField:
    if cfg.exponent_kind == "constant":
        pf = GridFunction(grid, np.full(grid.num_nodes, float(cfg.exponent_value)))
        return ExponentField(pf)
    fld = read_field(cfg.exponent_path)
    if not isinstance(fld, GridFunction) or fld.codomain_dim != 1:
        raise ConfigError(f"[exponent] path: {cfg.exponent_path} must hold a nodal scalar")
    if cfg.exponent_kind == "file":
        if fld.grid != grid:
            raise ConfigError("[exponent] path: field grid does not match [grid] "
                              "(use kind = table for interpolation)")
        nodal = fld.values[:, 0]
    else:  # table: multilinear interpolation onto the target nodes, which it must cover
        if not fld.grid.domain.contains_box(grid.domain):
            raise ConfigError(f"[exponent] path: the table {cfg.exponent_path} must cover the "
                              "[grid] domain, since interpolation does not extrapolate")
        nodal = fld.at(grid.node_coords)[:, 0]
    if nodal.min() <= 1.0:
        raise ConfigError("[exponent] values must exceed 1 everywhere")
    return ExponentField(GridFunction(grid, nodal))


def _build_instance(cfg: ExperimentConfig, grid: Grid):
    """Returns (u_star or None, G, boundary).  The boundary field's interior
    is the solve's starting guess: zero for a manufactured instance, the
    boundary file's interior for files."""
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
    return manufactured_instance(cfg.instance, grid)


def _solve(cfg: ExperimentConfig, rep: Report, grid: Grid | None = None,
           p: ExponentField | None = None, coarse: GridFunction | None = None,
           label: str = ""):
    """Solve the configured instance, on the configured grid and exponent
    unless given, cold or from ``coarse`` (see ``solve_pxlaplace``); returns
    (grid, p, u_star or None, G, result)."""
    if grid is None:
        grid = Grid(cfg.dim, cfg.origin, cfg.extent, cfg.cells)
        p = _build_exponent(cfg, grid)
    u_star, G, boundary = _build_instance(cfg, grid)
    res = solve_pxlaplace(G, p, boundary, tolerance=cfg.tolerance,
                          max_iterations=cfg.max_iterations, coarse=coarse)
    _report_solve(rep, res, label)
    return grid, p, u_star, G, res


def _report_solve(rep: Report, res: SolverResult, label: str = "") -> None:
    """For each level of a solve, a report head naming its grid (and
    ``label``), start, Newton steps, wall seconds and residual, then one
    line per gamma stage; these lines hold no ' = ', so the scalar block
    parses alone.  A miss raises NonConvergence naming the last level's
    grid."""
    for level in res.levels:
        what = _cells_str(level.cells) + label
        start = "cold" if level.start is None else f"warm from {_cells_str(level.start)}"
        rep.lines.append(f"solve {what}, {start}: {level.iterations} steps, wall "
                         f"{level.wall_s:.3g} s, residual {_fmt(level.stages[-1].residual)}")
        rep.lines += [f"stage gamma {s.gamma:g}: {s.steps} steps, {s.fallbacks} fallbacks, "
                      f"{s.backtracks} backtracks, {s.guarded} guarded, "
                      f"{s.reuses} reuses, {s.cg_iterations} cg iterations, "
                      f"factor {s.factor_s:.3g} s, fill {s.fill}, "
                      f"residual {_fmt(s.residual)}, stop {s.reason}" for s in level.stages]
    if not res.converged:  # the last level is the one that missed
        raise NonConvergence(f"solve {what}: {res.message or 'solver did not converge'}")


def _resolve_kappa(cfg: ExperimentConfig, p: ExponentField) -> float:
    if cfg.kappa is not None:
        return cfg.kappa
    return default_kappa(coercivity_constant(p), p.grid.dim)


def _root(cfg: ExperimentConfig, grid: Grid) -> Box:
    return grid.domain.scaled(cfg.root_scale)


def _size_root(domain: Box, size: float) -> Box:
    """The cube of side ``size`` at the centre of the domain: a sweep size row's root."""
    return Box(tuple(c - size / 2 for c in domain.center),
               tuple(c + size / 2 for c in domain.center))


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(cfg: ExperimentConfig, rep: Report) -> None:
    grid, p, u_star, G, res = _solve(cfg, rep)
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
    grid, p, _, G, res = _solve(cfg, rep)
    root = _root(cfg, grid)
    kappa = _resolve_kappa(cfg, p)
    s = 0.5 * (1.0 + _s_cap(grid.dim, float(p.cell_values.min())))  # halfway to its cap
    rep.records = [
        caccioppoli_check(res.u, G, p, root),
        reverse_holder_check(res.u, G, p, root, s, m=cfg.m),
        higher_integrability_check(res.u, G, p, cfg.q, root, kappa,
                                   sweep_points=cfg.lambda_count, m=cfg.m),
    ]
    rep.checks += [(r.name, r) for r in rep.records]
    rep.scalars = [("kappa", kappa), ("s", s), ("residual", res.residual)]
    _write_csv(cfg.out / "records.csv", ["name", "cube", "resolution", "lhs", "rhs_sum",
                                         "constant", "components", "flags"],
               [_record_row(r) for r in rep.records])


def _cmd_gehring(cfg: ExperimentConfig, rep: Report) -> None:
    grid, p, _, G, res = _solve(cfg, rep)
    root = _root(cfg, grid)
    gr = gehring_scan(res.u, G, p, root, mu_max=cfg.mu_max, steps=cfg.steps,
                      cap=cfg.cap, m=cfg.m)
    rep.scalars = [("m0", gr.m0), ("sigma", gr.sigma), ("cap", gr.cap),
                   ("cubes_tested", gr.cubes_tested)]
    rep.records = list(gr.records)
    rep.checks.append(("gehring", gr))
    _write_csv(cfg.out / "gehring.csv", ["mu", "lhs", "rhs", "constant"],
               [[_fmt(mu), _fmt(r.lhs), _fmt(r.rhs_sum), _fmt(r.empirical_constant)]
                for mu, r in zip(gr.mu_grid, gr.records)])


def _cmd_goodlambda(cfg: ExperimentConfig, rep: Report) -> None:
    grid, p, _, G, res = _solve(cfg, rep)
    root = _root(cfg, grid)
    kappa = _resolve_kappa(cfg, p)
    gl = good_lambda_measure(energy_density(res.u, p), data_density(G, p, cfg.m), root,
                             kappa, cfg.epsilons, cfg.lambda_factors, cfg.m0)
    rep.scalars = [("kappa", kappa), ("m0", cfg.m0), ("lambda0", gl.lambda0)] + [
        (f"delta(eps = {_fmt(e)}, lam = {_fmt(l)})", d) for e, l, d in gl.rows]
    rep.checks.append(("good-lambda", gl))
    _write_csv(cfg.out / "goodlambda.csv", ["epsilon", "lambda", "delta"],
               [[_fmt(e), _fmt(l), _fmt(d)] for e, l, d in gl.rows])


def _cmd_sweep(cfg: ExperimentConfig, rep: Report) -> None:
    base = Grid(cfg.dim, cfg.origin, cfg.extent, cfg.cells)
    p0 = _build_exponent(cfg, base)
    mean_p = float(p0.values.mean())
    amplitudes = []  # (t, mean p + t (p - mean p)), each checked before the first solve
    for t in cfg.amplitudes:
        values = mean_p + t * (p0.values - mean_p)
        if values.min() <= 1.0:
            raise ConfigError(f"[sweep] amplitudes: t = {_fmt(t)} gives p- = "
                              f"{_fmt(values.min())}, which must exceed 1")
        amplitudes.append((t, ExponentField(GridFunction(base, values))))
    kappa = _resolve_kappa(cfg, p0)
    rows: list[list[str]] = []
    solved: dict[tuple[Grid, bytes], tuple[CellField, SolverResult]] = {}

    def solve(grid: Grid, p: ExponentField, label: str = "",
              coarse: GridFunction | None = None) -> tuple[CellField, SolverResult]:
        # refinement 0, every root size and often amplitude 1 are one
        # instance: solve each distinct grid and p (by its bytes) once
        key = (grid, p.values.tobytes())
        if key not in solved:
            solved[key] = _solve(cfg, rep, grid, p, coarse, label)[3:5]
        return solved[key]

    measured: dict[tuple[Grid, bytes, Box], list] = {}

    def add(axis: str, setting: str, grid: Grid, p: ExponentField, root: Box,
            coarse: GridFunction | None = None) -> GridFunction:
        G, res = solve(grid, p, coarse=coarse)
        # a size row's root can be a refinement row's on the same solve:
        # measure each solve and root once, and report it on both rows
        key = (grid, p.values.tobytes(), root)
        if key not in measured:
            measured[key] = [
                caccioppoli_check(res.u, G, p, root),
                higher_integrability_check(res.u, G, p, cfg.q, root, kappa,
                                           sweep_points=cfg.lambda_count, m=cfg.m)]
        recs = measured[key]
        for r in recs:
            rows.append([axis, setting, r.name, _fmt(r.lhs), _fmt(r.rhs_sum),
                         _fmt(r.empirical_constant)])
            rep.checks.append((f"{axis} {setting} {r.name}", r))
        rep.records.extend(recs)
        return res.u

    # nested iteration: each finer level warm-starts from the one before
    # (the base level, cold, starts from its own half grid when it has one)
    coarse = None
    for level in range(cfg.refinements + 1):
        grid = Grid(cfg.dim, cfg.origin, cfg.extent, tuple(c * 2**level for c in cfg.cells))
        p = p0 if level == 0 else _build_exponent(cfg, grid)  # level 0 is the base grid
        coarse = add("refinement", _cells_str(grid.cells), grid, p, _root(cfg, grid), coarse)

    for size in cfg.sizes:
        add("size", _fmt(size), base, p0, _size_root(base.domain, size))

    root = _root(cfg, base)
    for t, pt in amplitudes:
        G, res = solve(base, pt, f" at amplitude {_fmt(t)}")
        gl = good_lambda_measure(energy_density(res.u, pt), data_density(G, pt, cfg.m), root,
                                 kappa, cfg.epsilons, cfg.lambda_factors[:1], cfg.m0)
        for e, _, d in gl.rows:
            rows.append(["amplitude", _fmt(t), f"delta(eps={_fmt(e)})", _fmt(d), "", ""])
        rep.checks.append((f"amplitude {_fmt(t)} good-lambda", gl))

    _write_csv(cfg.out / "sweep.csv",
               ["axis", "setting", "name", "lhs", "rhs_sum", "constant"], rows)


def _gaussian_filter(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of a 2-D image as scipy.ndimage.gaussian_filter
    does it with its defaults: a 1-D correlation along axis 0, then along
    axis 1, with the weights exp(-x^2 / (2 sigma^2)) for |x| <= the radius
    int(4 sigma + 0.5), normalized to sum 1, and the 'reflect' boundary
    (d c b a | a b c d | d c b a), reflected again where the radius is
    longer than the image.  Each output is w_0 times the centre plus
    w_j times the sum of its two neighbours at distance j, j ascending.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    out = img
    for axis in range(2):
        n = out.shape[axis]
        at = np.arange(-r, n + r) % (2 * n)
        line = np.moveaxis(np.take(out, np.where(at < n, at, 2 * n - 1 - at), axis=axis), axis, 0)
        acc = w[r] * line[r:r + n]
        for j in range(1, r + 1):
            acc += w[r + j] * (line[r + j:r + j + n] + line[r - j:r - j + n])
        out = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(out)


def _cmd_denoise(cfg: ExperimentConfig, rep: Report) -> None:
    img, maxval, magic = read_pgm(cfg.image)
    rows, cols = img.shape
    if rows < 3 or cols < 3:
        raise ConfigError(f"[denoise] image: {cfg.image} too small ({rows}x{cols})")

    grid = Grid(2, (0.0, 0.0), (float(rows - 1), float(cols - 1)), (rows - 1, cols - 1))
    u0 = GridFunction(grid, img.astype(float).ravel() / maxval)

    # edge detector: small smoothed gradient -> p_max (diffusion),
    # large -> p_min (total-variation-like)
    smooth = _gaussian_filter(img.astype(float) / maxval, 1.5)
    gr, gc = np.gradient(smooth)
    gsq = (gr**2 + gc**2).ravel()
    p_vals = cfg.p_min + (cfg.p_max - cfg.p_min) / (1.0 + cfg.strength * gsq)
    p = ExponentField(GridFunction(grid, np.clip(p_vals, cfg.p_min, cfg.p_max)))

    # flux data: gradient of a Gaussian-smoothed copy, blur growing with
    # strength; strength 0 reproduces the input exactly
    sigma = cfg.strength / 2.0
    if sigma > 0:
        target = _gaussian_filter(img.astype(float) / maxval, sigma).ravel()
    else:
        target = u0.values[:, 0].copy()
    G = gradient(GridFunction(grid, target))
    # a cold solve whose interior starts from the image, not from a zero
    # interior: on each half grid, from the injected image
    res = solve_pxlaplace(G, p, u0, tolerance=cfg.tolerance, max_iterations=cfg.max_iterations)
    _report_solve(rep, res)

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
_COMMANDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> Report:
    """Execute the configured command; writes reports under cfg.out."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    rep = Report(cfg.command, _provenance(cfg))
    try:
        _RUNNERS[cfg.command](cfg, rep)
    except ValueError as exc:
        # library-level precondition violations are configuration errors
        raise ConfigError(str(exc)) from exc
    finally:  # however the run ends: a missed solve's lines show where it stalled
        rep.lines[:0] = _checks_block(rep.checks)  # ahead of the solve lines
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
    ns = ap.parse_args(argv)
    try:
        cfg = load_config(ns.command, ns.config, out=ns.out)
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
