"""The package source keeps every check under python -O: no assert
statement in src/hopfrb, whose checks raise explicit errors instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfrb"


def test_the_package_has_no_assert_statement():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
