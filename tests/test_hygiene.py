"""Source-level rules for the library: no `assert`, no rational arithmetic, no orphans.

Invariants are raised as typed exceptions so that `python -O` cannot skip
them, and all arithmetic is on integers (a matrix has integer entries),
so the `fractions` module is never imported.  The matrix
modules keep no module-level caches: a `weylgroup.Representation` owns
the matrices of one spec and is dropped with it.  A private module-level
helper that nothing else in the library mentions is dead code.  The
matrix modules stay independent of the decision paths: they import
neither `integral` nor `center`.

The library keeps only what its callers reach.  Every def in
`src/weylconj` (functions, classes, methods) must be reached by a chain
of name reads from a root: `cli.main`, the statements at the top level
of each library module other than defs, and the whole of every
`scripts/*.py` and `perfbench/*.py`.  The closure is static and by name:
a reached body reads a name as a bare name or an attribute, and every
def of that name is reached; a dunder method is reached with its class.
An import binds a name but reads none, and the package `__init__` is not
a root.  `UNREACHED` names each exception and what will reach it; an
entry goes when that lands.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "weylconj").glob("*.py"))
# Whole files that call into the library; perfbench's own tests are not among them.
CALLERS = [*sorted((REPO / "scripts").glob("*.py")), *sorted((REPO / "perfbench").glob("*.py"))]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ITEMS_5_AND_9 = "ROADMAP items 5 (collections onto the center) and 9 (kernel elements in W)"
# The defs no root reaches, each with what will reach it.
UNREACHED = {
    "center.kernel_exponents": ITEMS_5_AND_9,
    "center.in_row_space": ITEMS_5_AND_9,
    "center.NotIntegral": ITEMS_5_AND_9,
    "center.SmithDecomposition.saturation_index": ITEMS_5_AND_9,
    "semilattice.PairIncidence.pair_sums": ITEMS_5_AND_9,
    "integral.is_integral": ITEMS_5_AND_9,
    "weylgroup.reflection": "perfbench/trace.py wraps it through a TARGETS string; "
    "ROADMAP item 14 moves it to tests/",
    "corpus.reference_corpus": "the test corpus: tests/ and perfbench/tests import it",
    "corpus._pool": "reference_corpus",
    "corpus._pick": "reference_corpus",
    "cli._Parser.error": "argparse calls it",
}


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


def _reads(node: ast.AST) -> set[str]:
    """The names a subtree reads, as bare names or attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def unreached_defs(modules: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """Qualified names of the library defs that no root reaches (module docstring)."""
    defs: dict[str, tuple[str, str | None, set[str]]] = {}  # name, owning class, reads
    reads = set().union(*map(_reads, callers))

    def add(node, qualname: str, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            own = [*node.decorator_list, *node.bases, *node.keywords]
            own += [stmt for stmt in node.body if not isinstance(stmt, DEFS)]
            defs[qualname] = (node.name, owner, set().union(*map(_reads, own)))
            for stmt in node.body:
                if isinstance(stmt, DEFS):
                    add(stmt, f"{qualname}.{stmt.name}", qualname)
        else:
            defs[qualname] = (node.name, owner, _reads(node))

    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, DEFS):
                add(stmt, f"{module}.{stmt.name}", None)
            else:
                reads |= _reads(stmt)
    reached = {"cli.main"}
    reads |= defs["cli.main"][2]
    grown = True
    while grown:
        grown = False
        for qualname, (name, owner, body) in defs.items():
            dunder = name.startswith("__") and name.endswith("__")
            if qualname not in reached and (name in reads or (dunder and owner in reached)):
                reached.add(qualname)
                reads |= body
                grown = True
    return defs.keys() - reached


def gate_offences(unreached: set[str], allowed: dict[str, str]) -> list[str]:
    """An unreached def the allowlist does not name, then an entry for a reached def."""
    return [f"{q}: no root reaches it" for q in sorted(unreached - allowed.keys())] + [
        f"{q}: reached now, drop its entry" for q in sorted(allowed.keys() - unreached)
    ]


LIBRARY = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in SOURCES
    if path.name != "__init__.py"
}
CALLER_TREES = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in CALLERS]


def test_every_library_def_is_reached():
    assert gate_offences(unreached_defs(LIBRARY, CALLER_TREES), UNREACHED) == []


def test_gate_names_a_planted_def():
    # an import binds `reference_corpus` and an unreached body reads it: neither reaches it
    planted = ast.parse(
        "from .corpus import reference_corpus\n"
        "def planted():\n"
        "    return reference_corpus()\n"
    )
    unreached = unreached_defs({**LIBRARY, "planted": planted}, CALLER_TREES)
    assert gate_offences(unreached, UNREACHED) == ["planted.planted: no root reaches it"]


@pytest.mark.parametrize("entry", sorted(UNREACHED))
def test_gate_fails_without_an_allowlist_entry(entry):
    allowed = {q: why for q, why in UNREACHED.items() if q != entry}
    unreached = unreached_defs(LIBRARY, CALLER_TREES)
    assert gate_offences(unreached, allowed) == [f"{entry}: no root reaches it"]
