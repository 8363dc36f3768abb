"""Properties of the package source itself."""
import ast
from pathlib import Path

import linvar

SOURCES = sorted(Path(linvar.__file__).resolve().parent.glob("*.py"))


def test_no_assert_in_the_sources():
    """python -O strips assert statements, so no check in the package may
    be one: each must raise an error of its own."""
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
