"""Source-level contracts of the package."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "rankdec").glob("*.py"))


def test_sources_found():
    assert SRC


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.stem)
def test_no_assert_statement(path):
    # guards must raise a typed error: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"
