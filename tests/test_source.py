"""Source-level invariants of the package."""

import ast
from pathlib import Path

import kummer_spin

SRC = Path(kummer_spin.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_group_and_algebra_layers_are_integer_only():
    # their inverses come from structural identities, not rational elimination
    found = []
    for name in ("clifford.py", "triality.py", "stabilizer.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if names & {"RatMatrix", "to_rat"}:
                found.append("%s:%d" % (name, node.lineno))
    assert found == []
