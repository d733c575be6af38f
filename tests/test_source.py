"""Source-level rules for the library package and the scripts that use it."""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def test_library_imports_no_private_names_from_sibling_modules():
    # A `_`-prefixed name is its module's own business; a sibling that
    # needs it shares a decision that belongs to one owner.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "macpolar"):
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_every_private_helper_has_a_library_caller():
    # A `_`-prefixed module-level function or class that no other part of
    # the library names is kept alive by its tests alone.
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and top.name.startswith("_") and not top.name.startswith("__")):
                defined[top.name] = f"{path.name}:{top.lineno}"
            # Names used inside a definition's own body do not count for it.
            own = getattr(top, "name", None)
            named |= {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(top)
                      if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert defined
    assert sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in named) == []


def test_only_jsonio_reads_files():
    # File formats have one owner: a module that opens a file or parses
    # JSON itself keeps a second reader with its own number rule.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "jsonio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr == "load"
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_polarize_names_the_branch_view():
    # `CodeSpec.branches` builds one object per branch; the library works
    # on the columns, so the view stays off every other module.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "polarize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {"Name": "id", "alias": "name", "Attribute": "attr"}
            name = getattr(node, names.get(type(node).__name__, ""), None)
            if name == "BranchCode" or (isinstance(node, ast.Attribute) and name == "branches"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert found == []


def test_codec_builds_generators_at_one_call_site():
    # `simulate` output is fixed by which stream, keyed (stream, seed), draws
    # each symbol and uniform, and at which offset; one owner of that rule
    # keeps a second draw path from drifting away from it.
    path = PACKAGE / "codec.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bit_generators = {"PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
    calls = [(getattr(node.func, "attr", None) or getattr(node.func, "id", None),
              f"codec.py:{node.lineno}")
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert len([site for name, site in calls if name in bit_generators]) == 1, calls
    assert [site for name, site in calls if name == "default_rng"] == []


def python_blocks(markdown: str):
    """Bodies of the ```python fenced blocks of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.M | re.S)


def test_scripts_import_only_names_that_exist():
    # The benchmark harness, the demos and the README's Python examples
    # import library names inside functions and at top level; an API
    # removal must not break them silently (`bench/run.py --calibrate`, for
    # one, runs outside pytest).
    root = PACKAGE.parents[1]
    scripts = [root / "bench" / "run.py", root / "bench" / "workloads.py",
               *sorted((root / "demos").glob("*.py"))]
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in scripts]
    blocks = python_blocks((root / "README.md").read_text(encoding="utf-8"))
    assert blocks
    sources += [(f"README.md python block {i}", block)
                for i, block in enumerate(blocks, 1)]
    checked, missing = 0, []
    for name, source in sources:
        tree = ast.parse(source, filename=name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "macpolar"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{name}:{node.lineno}: "
                                   f"{node.module}.{alias.name}")
    assert checked >= 10
    assert missing == []


def run_python(args, cwd):
    """Run the interpreter on the library in `src`; the finished process."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_readme_commands_run(tmp_path):
    # Checking imports alone lets a renamed report field break the
    # documented commands silently, so they are run: every Python block,
    # and the one-liners that reproduce criterion 8's two fractions.
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = python_blocks(readme)
    assert blocks
    for i, block in enumerate(blocks, 1):
        run = run_python(["-c", block], tmp_path)
        assert run.returncode == 0, f"README.md python block {i}: {run.stderr}"
    one_liners = re.findall(r'`python -c "(.*?)"`', readme, flags=re.S)
    printed = []
    for code in one_liners:
        run = run_python(["-c", code], tmp_path)
        assert run.returncode == 0, f"{code}: {run.stderr}"
        printed.append(run.stdout.strip())
    assert printed == ["0.81884765625", "0.90155029296875"]


def test_every_command_handler_is_one_table_entry():
    # cli.COMMANDS declares each subcommand once, with its options, and
    # one helper registers them for the full parser and for the parser of
    # a single command alike: every `cmd_*` function handles exactly one
    # entry, and `add_argument` and `set_defaults` are each called once.
    from macpolar import cli

    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = sorted(top.name for top in tree.body
                     if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_"))
    handlers = [handler for _, handler, _ in cli.COMMANDS.values()]
    assert defined and sorted(h.__name__ for h in handlers) == defined
    assert all(getattr(cli, h.__name__) is h for h in handlers)
    calls = [node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert calls.count("set_defaults") == 1
    assert calls.count("add_argument") == 1
    # Both calls sit in one helper, and both parsers are built through it.
    functions = {top.name: {node.func.attr if isinstance(node.func, ast.Attribute)
                            else getattr(node.func, "id", None)
                            for node in ast.walk(top) if isinstance(node, ast.Call)}
                 for top in tree.body if isinstance(top, ast.FunctionDef)}
    helpers = [name for name, called in functions.items()
               if {"add_argument", "set_defaults"} <= called]
    assert len(helpers) == 1
    assert [name for name, called in functions.items() if helpers[0] in called] \
        == ["build_parser", "parse_args"]
