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


def test_only_matrix_base_defines_matmul_and_apply():
    # the benchmark's tracer wraps _Matrix.__matmul__ and _Matrix.apply; an
    # override or a second kernel in exact.py would escape its counts
    path = SRC / "exact.py"
    found = []
    for parent in ast.walk(ast.parse(path.read_text(), str(path))):
        body = getattr(parent, "body", None)
        for node in body if isinstance(body, list) else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            owner = getattr(parent, "name", type(parent).__name__)
            found += [(owner, n) for n in names if n in ("__matmul__", "apply")]
    assert sorted(found) == [("_Matrix", "__matmul__"), ("_Matrix", "apply")]
