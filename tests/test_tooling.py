"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sofic_lab"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a guard written as one vanishes
    # from optimized runs; every check in the library must raise explicitly
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
