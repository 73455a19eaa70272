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


def test_linalg_and_scheme_do_not_import_fractions():
    # rank, kernel, eigenspace and row-space answers come from integer rows
    # and the certified RREF; Fraction arithmetic stays in the test oracles
    found = []
    for name in ("linalg.py", "scheme.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno}" for a in node.names if a.name.split(".")[0] == "fractions"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
                found.append(f"{name}:{node.lineno}")
    assert found == []
