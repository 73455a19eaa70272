"""Source invariants of the package.  Invariants raise instead of asserting,
so they still hold under `python -O`, which strips every `assert`
statement; no Fraction arithmetic enters the integer modules; no float
touches a decision; one module lays out the free columns of the RREF."""

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
    # rank and kernel answers come from the certified integer RREF, spectral
    # answers from integer identities; Fraction arithmetic stays in the test
    # oracles
    found = []
    for name in ("linalg.py", "scheme.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno}" for a in node.names if a.name.split(".")[0] == "fractions"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
                found.append(f"{name}:{node.lineno}")
    assert found == []


# the two timing fields, which record wall time and decide nothing
FLOAT_DEFAULTS = {("CheckResult", "seconds"), ("SearchStats", "wall_seconds")}


def test_no_float_in_package():
    # no math.inf, float(...) call or float literal, apart from FLOAT_DEFAULTS
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(stmt.value)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and (cls.name, stmt.target.id) in FLOAT_DEFAULTS
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (
                    isinstance(node, ast.Attribute)
                    and node.attr == "inf"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                )
                or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_scheme_reads_the_incidence_rref():
    # the battery and the search read the free columns through the bundle's
    # LinearTerms, so one module is in charge of how they are laid out
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scheme.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "incidence_rref"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
