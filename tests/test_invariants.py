"""Invariants in the package raise instead of asserting, so they still hold
under `python -O`, which strips every `assert` statement."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clkset"


def test_no_assert_statements_in_package():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
