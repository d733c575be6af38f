"""Source-level rules for the library package and the scripts that use it."""

import ast
import importlib
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


def test_scripts_import_only_names_that_exist():
    # The benchmark harness and the demos import library names inside
    # functions and at top level; an API removal must not break them
    # silently (`bench/run.py --calibrate`, for one, runs outside pytest).
    root = PACKAGE.parents[1]
    scripts = [root / "bench" / "run.py", root / "bench" / "workloads.py",
               *sorted((root / "demos").glob("*.py"))]
    checked, missing = 0, []
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "macpolar"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}:{node.lineno}: "
                                   f"{node.module}.{alias.name}")
    assert checked >= 10
    assert missing == []
