"""Source-level rules for the package."""

import ast
from pathlib import Path

import varexp


def test_no_assert_statements_in_package():
    # invariants must be explicit checks that raise: `python -O` strips asserts
    found = []
    for path in sorted(Path(varexp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/varexp: {found}"
