"""Source-level rules for the library: no `assert`, no rational arithmetic, no orphans.

Invariants are raised as typed exceptions so that `python -O` cannot skip
them, and all arithmetic is on integers (a matrix has integer entries),
so the `fractions` module is never imported.  The matrix
modules keep no module-level caches: a `weylgroup.Representation` owns
the matrices of one spec and is dropped with it.  A private module-level
helper that nothing else in the library mentions is dead code.  The
matrix modules stay independent of the decision paths: they import
neither `integral` nor `center`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "weylconj").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_fractions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            offences.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Import):
            offences += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "fractions"
            ]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "fractions":
                offences.append(f"line {node.lineno}: from {node.module} import")
    assert offences == []


@pytest.mark.parametrize("name", ["exactmat.py", "weylgroup.py"])
def test_no_module_level_caches_in_matrix_modules(name):
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            offences += [
                f"line {node.lineno}: from functools import {alias.name}"
                for alias in node.names
                if alias.name in ("lru_cache", "cache")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            offences.append(f"line {node.lineno}: functools.{node.attr}")
    assert offences == []


@pytest.mark.parametrize("name", ["exactmat.py", "weylgroup.py"])
def test_matrix_modules_import_no_decision_path(name):
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            if not node.module:  # `from . import integral`
                imported |= {alias.name for alias in node.names}
    assert imported & {"integral", "center"} == set()


def test_no_orphaned_private_helpers():
    # a module-level `_name` def or class that no other top-level statement
    # of the library mentions has outlived its last caller
    defined: list[tuple[str, str, int]] = []
    mentions: dict[str, set[tuple[str, int]]] = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((stmt.name, path.name, stmt.lineno))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                mentions.setdefault(name, set()).add((path.name, stmt.lineno))
    orphans = [
        f"{module}:{line}: {name}"
        for name, module, line in defined
        if not mentions.get(name, set()) - {(module, line)}
    ]
    assert orphans == []
