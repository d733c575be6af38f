"""Source-level rules for the library package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "macpolar"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant enforced by
    # one silently disappears: the library raises typed errors instead.
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
