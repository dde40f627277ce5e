"""Invariants of the package source, read with ``ast``: Python version, reachability, one opener, one JSON reader,
one producer of outcome strings, one kind table."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "satqlink"

# `import satqlink` runs __init__; the console script in pyproject.toml is satqlink.cli:entry
ENTRY_MODULES = ("__init__", "cli")

# calls that open a file or read or write one whole: open, io.open, os.open, Path.open, Path.read_text, ...
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module) -> set[str]:
    """The satqlink modules a module imports anywhere in its body; the package imports itself relatively."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else (alias.name for alias in node.names))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    # requires-python is ">=3.10": no syntax of a later version
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_imported_from_the_package_or_the_console_script():
    graph = {path.stem: _package_imports(_tree(path)) for path in SRC.glob("*.py")}
    reached, todo = set(), list(ENTRY_MODULES)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph[name])
    assert sorted(graph.keys() - reached) == []


def test_only_the_text_io_helper_opens_files():
    openers = set()
    for path in SRC.glob("*.py"):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in FILE_CALLS:
                        openers.add((path.name, getattr(top, "name", None), node.lineno))
    assert {(module, where) for module, where, _ in openers} == {("passes.py", "_text_io")}, sorted(openers)


def test_only_the_json_object_helper_parses_json():
    # one reader cites every JSON error: the spec, the manifest and the round log all go through it
    parsers = set()
    for path in SRC.glob("*.py"):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("loads", "load"):
                    parsers.add((path.name, getattr(top, "name", None), node.lineno))
    assert {(module, where) for module, where, _ in parsers} == {("passes.py", "_json_object")}, sorted(parsers)


def test_only_analytics_applies_the_drift_bound():
    # the engine's round model lives in analytics' kernels: the simulator reads _eligible, not the bound
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_drift_bound":
                callers.add((path.name, node.lineno))
    assert {module for module, _ in callers} == {"analytics.py"}, sorted(callers)


def test_frozen_fields_are_set_only_in_post_init():
    # a frozen config changes through replace(), never behind its back: object.__setattr__ only builds one
    setters = set()
    for path in SRC.glob("*.py"):
        scope = {}
        for node in ast.walk(_tree(path)):  # breadth first: an inner function overrides the one around it
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(node), node.name))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                setters.add((path.name, scope.get(node), node.lineno))
    assert {where for _, where, _ in setters} == {"__post_init__"}, sorted(setters)


def test_only_draw_builds_outcome_strings():
    # one producer of outcome strings: both run paths capture through _draw, the event loop only counts
    callers = set()
    for path in SRC.glob("*.py"):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_outcome_chars":
                    callers.add((path.name, getattr(top, "name", None), node.lineno))
    assert {(module, where) for module, where, _ in callers} == {("sim.py", "_draw")}, sorted(callers)


def test_only_passes_imports_numbers():
    # one kind table: every field's declared type is checked by passes._kind_fault, which alone needs numbers
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
                if "numbers" in names:
                    importers.add((path.name, node.lineno))
    assert {module for module, _ in importers} == {"passes.py"}, sorted(importers)
