"""Result checks in the library must survive `python -O`, which strips
`assert` statements; they raise typed errors instead."""

import ast
from pathlib import Path

import tropicurve

SOURCES = sorted(Path(tropicurve.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
