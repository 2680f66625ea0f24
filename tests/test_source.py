"""Source-level rules for the package."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import varexp
from varexp.cli import ExperimentConfig


def test_no_assert_statements_in_package():
    # invariants must be explicit checks that raise: `python -O` strips asserts
    found = []
    for path in sorted(Path(varexp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/varexp: {found}"


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


def test_import_loads_no_scipy():
    # scipy costs every command its import time: the package and the CLI
    # import it only inside the functions that use it
    code = ("import sys, varexp, varexp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(varexp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
