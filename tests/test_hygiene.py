"""Source-level rules for the library: no `assert`, no rational arithmetic.

Invariants are raised as typed exceptions so that `python -O` cannot skip
them, and all arithmetic is on integers (a matrix is integers over one
denominator), so the `fractions` module is never imported.
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
