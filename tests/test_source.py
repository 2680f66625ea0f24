"""Source-level rules for the package."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import varexp
from varexp.cli import ExperimentConfig, write_field
from varexp.grid import Grid, GridFunction
from varexp.solver import manufactured_instance


def test_no_assert_statements_in_package():
    # invariants must be explicit checks that raise: `python -O` strips asserts
    found = []
    for path in sorted(Path(varexp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/varexp: {found}"


_COORDS = {"node_coords", "cell_centers"}


def _coordinate_loops(tree: ast.Module) -> list[int]:
    """Lines of the for loops and comprehensions that iterate over an
    attribute named node_coords or cell_centers, directly or as an argument
    of the call they iterate over (``enumerate(g.cell_centers)``)."""
    def is_coords(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in _COORDS

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            it = node.iter
            if is_coords(it) or isinstance(it, ast.Call) and any(map(is_coords, it.args)):
                lines.append(it.lineno)
    return lines


def test_no_loop_over_coordinates_in_package():
    # a field on the grid is evaluated on whole coordinate arrays: one Python
    # call per node or cell made building the matched instance take 0.64 s
    # at 128^2, more than the solve of that grid's own level
    found = []
    for path in sorted(Path(varexp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _coordinate_loops(tree)]
    assert not found, f"loops over grid coordinates in src/varexp: {found}"


_RANDOM = {"random", "default_rng", "numpy.random"}


def _uses_random(node: ast.AST) -> bool:
    """np.random / default_rng / rng.random, or an import of random,
    numpy.random or one of their names."""
    if isinstance(node, ast.Attribute):
        return node.attr in _RANDOM
    if isinstance(node, ast.Name):
        return node.id == "default_rng"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "random" or a.name in _RANDOM for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module in _RANDOM
                or node.module == "numpy" and any(a.name in _RANDOM for a in node.names))
    return False


def test_nothing_random_in_package():
    # nothing is sampled, so a fixed config alone fixes the output bytes
    found = []
    for path in sorted(Path(varexp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _uses_random(node)]
    assert not found, f"random sampling in src/varexp: {found}"


_SOLVE_2D = """
[grid]
dim = 2
origin = -2 -2
extent = 4 4
cells = 16 16
[exponent]
kind = constant
value = 1.7
[data]
instance = bump
"""

_SOLVE_3D = """
[grid]
dim = 3
origin = -1 -1 -1
extent = 2 2 2
cells = 6 6 6
[exponent]
kind = constant
value = 2.5
[data]
instance = matched
"""


def test_import_loads_no_scipy(tmp_path):
    # scipy costs every command its import time, and varexp does not depend
    # on it: neither the import of the package and the CLI nor a solve (2-D
    # nested, 3-D cold, 3-D read from field files) or a verify run loads any
    # scipy module.  Nor do they load numpy.ma, which np.unique imports and
    # which costs 15-21 ms
    env = dict(os.environ, PYTHONPATH=str(Path(varexp.__file__).parents[1]))
    loaded = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m.split('.')[:2] == ['numpy', 'ma']))")
    g = Grid(3, (-1.0,) * 3, (2.0,) * 3, (6, 6, 6))
    _, G, bnd = manufactured_instance("matched", g)
    write_field(tmp_path / "g.vxf", G)
    write_field(tmp_path / "b.vxf", bnd)
    write_field(tmp_path / "p.vxf", GridFunction(g, np.full(g.num_nodes, 2.5)))
    files_3d = (_SOLVE_3D.replace("kind = constant\nvalue = 2.5", "kind = file\npath = p.vxf")
                .replace("instance = matched", "instance = files\ng = g.vxf\nboundary = b.vxf"))
    assert files_3d.count(".vxf") == 3
    runs = [("import", "import sys, varexp, varexp.cli; " + loaded)]
    for command, config in (("solve", _SOLVE_2D), ("verify", _SOLVE_2D), ("solve", _SOLVE_3D),
                            ("solve", files_3d)):
        cfg = tmp_path / f"{command}-{len(runs)}.cfg"
        cfg.write_text(config)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]
        runs.append((cfg.stem, f"import sys; from varexp.cli import main; "
                               f"assert main({argv!r}) == 0; " + loaded))
    for name, code in runs:
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]", name


def test_config_digest_loads_no_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto, 3.5 MB of resident memory, for one
    # sha256 of the config file: load_config and a solve take the digest
    # from the interpreter's builtin sha256 module and never import
    # _hashlib, and the digest in the config and the report is hashlib's
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(_SOLVE_2D)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(varexp.__file__).parents[1]))
    code = (f"import sys; from varexp.cli import load_config, main; "
            f"print(load_config('solve', {str(cfg)!r}).config_hash); "
            f"assert main(['solve', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0; "
            f"print('_hashlib' in sys.modules)")
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    want = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert got == [want, "False"]
    assert f"config_sha256 = {want}" in (out / "report.txt").read_text().splitlines()


def test_traced_benchmark_still_runs(tmp_path):
    # perfbench/tracing.py wraps varexp's functions by module and name and
    # reads solve_pxlaplace's arguments: a traced solve must still run, give
    # every per-layer metric BENCHMARK.json names, and count the Newton
    # steps solve.csv reports, as perfbench/run.py checks
    root = Path(varexp.__file__).parents[2]
    bench = root / "perfbench"
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(_SOLVE_2D)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(bench)]),
               PERFBENCH_SPANS=str(spans))
    subprocess.run([sys.executable, str(bench / "traced_cli.py"), "solve", "--config", str(cfg),
                    "--out", str(tmp_path / "out")], env=env, capture_output=True, check=True)
    spec = importlib.util.spec_from_file_location("tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = tracing.layer_metrics([json.loads(spans.read_text())], names)
    rows = (tmp_path / "out" / "solve.csv").read_text().splitlines()
    steps = dict(row.split(",") for row in rows[1:])["iterations"]
    assert metrics["solver.solve_pxlaplace.calls"] == 1
    assert metrics["solver.newton_steps"] == float(steps) > 0


def test_third_party_imports_are_declared_dependencies():
    # every module src/varexp imports from outside the standard library and
    # the package must be a runtime dependency in pyproject.toml; test-only
    # oracles such as scipy stay out of the package
    tomllib = pytest.importorskip("tomllib")
    pkg = Path(varexp.__file__).parent
    project = tomllib.loads((pkg.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~ \[;]", d, maxsplit=1)[0].lower() for d in project["dependencies"]}
    undeclared = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "varexp" and top not in declared:
                    undeclared.append(f"{path.name}:{node.lineno} {name}")
    assert not undeclared, f"imports not in pyproject dependencies: {undeclared}"


def test_every_config_key_is_read():
    # a key that no code reads feeds nothing: each ExperimentConfig key field
    # must be loaded as an attribute of the config (``cfg.x`` or ``self.x``)
    # somewhere in cli.py; the declaration in the class body is not a read
    path = Path(varexp.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in ("cfg", "self")}
    keys = [f.name for f in fields(ExperimentConfig) if f.metadata]
    unread = [k for k in keys if k not in read]
    assert keys and not unread, f"config keys never read in cli.py: {unread}"


def test_cli_solves_through_the_solver_api():
    # one route for a solve: cli.py takes from the solver only the names of
    # solver.__all__, never the module itself, and prolongs no field (no
    # .interpolate( call), so a second, private ladder cannot grow back there
    pkg = Path(varexp.__file__).parent
    tree = ast.parse((pkg / "cli.py").read_text())
    public = set(_assigned_literal(ast.parse((pkg / "solver.py").read_text()), "__all__"))
    imported, modules = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("solver", "varexp.solver"):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "varexp"):
            modules += [a.name for a in node.names if a.name == "solver"]
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names if a.name == "varexp.solver"]
    assert "solve_pxlaplace" in imported and imported <= public, imported - public
    assert not modules
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "interpolate"]
    assert not calls, f"cli.py calls .interpolate( at lines {calls}"


def _uses(tree: ast.Module, name: str) -> list[int]:
    """Lines of the module that load ``name``, as a name or an attribute,
    or import it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)]


def test_only_grid_reads_the_face_tolerance():
    # the closure tolerance has one owner: modules outside grid.py take it
    # from Box.tolerance, so a maximal function cannot drift from
    # contains_points on which cell centers lie in the root
    found = []
    for path in sorted(Path(varexp.__file__).parent.glob("*.py")):
        if path.name != "grid.py":
            found += [f"{path.name}:{n}" for n in _uses(ast.parse(path.read_text()), "_GEOM_RTOL")]
    assert not found, f"_GEOM_RTOL read outside grid.py: {found}"


def test_cli_leaves_lambda0_to_the_dyadic_layer():
    # good-lambda heights are factors of lambda0, which good_lambda_measure
    # and cz_cover form themselves: cli.py never computes lambda0
    path = Path(varexp.__file__).parent / "cli.py"
    found = _uses(ast.parse(path.read_text()), "covering_threshold")
    assert not found, f"cli.py uses covering_threshold at lines {found}"


# Public functions and methods that no command, module or benchmark reaches
# yet, kept on purpose.  An entry that becomes reached must leave this table.
_UNREACHED_BY_DESIGN = {
    "modular": "acceptance gate 1 checks the Luxemburg norm against it",
    "flux": "acceptance gate 5 checks flux monotonicity through it",
    "GoodLambdaResult.delta": "acceptance gate 8 reads the occupancy decay delta(eps), "
                              "the max over the lambda sweep, through it",
}


def _assigned_literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _public(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The module's public functions and the public methods of its public
    classes (those in ``__all__``), by name: ``f`` or ``Class.method``."""
    names = _assigned_literal(tree, "__all__") or []
    public = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in names:
            public[top.name] = top
        elif isinstance(top, ast.ClassDef) and top.name in names:
            public |= {f"{top.name}.{node.name}": node for node in top.body
                       if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    return public


def _reached(loads, public: set[str], roots: set[str]) -> set[str]:
    """The roots, and every public function or method loaded outside its own
    body by code that does not sit in the body of an unreached one.  Loads
    are names, with attributes written ``.name``: a function ``f`` is loaded
    as ``f`` or ``.f``, a method only as ``.m``, which reaches every public
    method so called."""
    reached = set(roots)
    while True:
        new = {q for q in public - reached for name, owner in loads
               if name in (q, "." + q.rpartition(".")[2]) and owner != q
               and (owner is None or owner in reached)}
        if not new:
            return reached
        reached |= new


def _script_loads(tree: ast.Module) -> list[tuple[str, None]]:
    """Names a benchmark script takes from varexp: imported from a varexp
    module, or loaded as an attribute (``mod.f`` or ``obj.m``, as ``.f`` and
    ``.m``).  A bare local name such as a variable ``flux`` is not a use of
    ``operator.flux``."""
    loads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "varexp":
            loads += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append(("." + node.attr, None))
    return loads


def _module_loads(tree: ast.Module, public: dict[str, ast.FunctionDef]):
    """Every name loaded in a package module, ``f`` or ``.f`` for the
    attribute of ``x.f``, with the public function or method whose body
    holds the load, or None."""
    owners = {id(node): name for name, node in public.items()}
    loads = []

    def visit(node: ast.AST, owner: str | None) -> None:
        owner = owners.get(id(node), owner)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node.id, owner))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append(("." + node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return loads


def test_every_public_function_is_reached():
    # a routine in __all__, or a public method of a class in __all__, that
    # only tests call is dead surface: each must be loaded by name (``f``,
    # ``mod.f`` or ``obj.f``) in src/varexp, outside its own body and outside
    # the bodies of unreached public routines, or be imported from varexp or
    # loaded as an attribute by perfbench/*.py; a varexp entry of
    # perfbench/tracing.py's TARGETS counts too
    pkg = Path(varexp.__file__).parent
    bench = pkg.parents[1] / "perfbench"
    modules = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(pkg.glob("*.py"))]
    scripts = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(bench.glob("*.py"))]
    loads = []  # (loaded name, public routine whose body holds the load, or None)
    for tree in scripts:
        loads += _script_loads(tree)
    public = set()
    for tree in modules:
        defs = _public(tree)
        public |= set(defs)
        loads += _module_loads(tree, defs)
    tracing = ast.parse((bench / "tracing.py").read_text())
    traced = {attr for mod, attr, _ in _assigned_literal(tracing, "TARGETS")
              if mod.split(".")[0] == "varexp"}
    exempt = set(_UNREACHED_BY_DESIGN)
    unreached = public - _reached(loads, public, traced | exempt)
    assert not unreached, f"public routines nothing but tests reach: {sorted(unreached)}"
    stale = exempt - (public - _reached(loads, public, traced))
    assert not stale, f"exempt but reached or gone, drop from the table: {sorted(stale)}"


# Optional parameters of public routines that no command, module or
# benchmark sets, kept on purpose.  An entry that becomes set must leave
# this table.
_UNSET_BY_DESIGN = {
    "good_lambda_measure.max_level": "acceptance gate 8 measures the occupancy decay at lattice "
                                     "level 5, below the default floor of its 512-cell grid",
}


def _optional(node: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each parameter of ``node`` that has a default, with the position a
    call passes it at, or None when it is keyword-only; a method's
    positions start after self."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = {arg.arg: i - method for i, arg in enumerate(positional) if i >= first}
    out |= {arg.arg: None for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return out


def _calls(tree: ast.Module) -> list[tuple[str, float, set[str]]]:
    """Every call of the module: the callee, ``f`` or ``.f`` for ``x.f(``,
    the number of positional arguments and the keyword names; a ``*``
    argument passes every position and a ``**`` argument every keyword
    (the name ``**``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else "." + f.attr if isinstance(
                f, ast.Attribute) else None
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            out.append((name, math.inf if starred else len(node.args),
                        {k.arg or "**" for k in node.keywords}))
    return out


def test_every_optional_parameter_is_set():
    # an option that only tests set is dead surface: each parameter with a
    # default of a public routine (as in test_every_public_function_is_reached)
    # must be passed, at its position or by keyword, by some call in
    # src/varexp or perfbench/*.py, or sit in _UNSET_BY_DESIGN with its reason
    pkg = Path(varexp.__file__).parent
    bench = pkg.parents[1] / "perfbench"
    modules = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(pkg.glob("*.py"))]
    scripts = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(bench.glob("*.py"))]
    calls = [c for tree in modules + scripts for c in _calls(tree)]
    unset = set()
    for tree in modules:
        for q, node in _public(tree).items():
            method = "." in q
            names = {"." + q.rpartition(".")[2]} if method else {q, "." + q}
            seen = [(npos, kws) for name, npos, kws in calls if name in names]
            unset |= {f"{q}.{param}" for param, pos in _optional(node, method).items()
                      if not any(param in kws or "**" in kws or pos is not None and pos < npos
                                 for npos, kws in seen)}
    exempt = set(_UNSET_BY_DESIGN)
    assert not unset - exempt, f"options nothing but tests set: {sorted(unset - exempt)}"
    stale = exempt - unset
    assert not stale, f"exempt but set or gone, drop from the table: {sorted(stale)}"
