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


# rational elimination, the conversions around it and RatMatrix itself
# stay in exact.py; weil.py holds J and the Kahler Gram as integer
# numerators over a positive den
EXACT_ONLY = frozenset({"rref", "rational_kernel", "to_rat", "to_int", "solve",
                        "is_integral"})
RAT_MATRIX_HOMES = frozenset({"exact.py"})


def _rational_uses(tree, module):
    """Lines of tree that name what module may not: EXACT_ONLY outside
    exact.py, RatMatrix outside RAT_MATRIX_HOMES."""
    banned = set() if module == "exact.py" else set(EXACT_ONLY)
    if module not in RAT_MATRIX_HOMES:
        banned.add("RatMatrix")
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        if names & banned:
            yield node.lineno


def test_rational_elimination_lives_in_exact():
    # inverses, kernels and positive bases elsewhere come from integer
    # elimination or structural identities
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, n) for n in _rational_uses(tree, path.name)]
    assert found == []


def test_rational_guard_sees_rational_elimination():
    for text in ("m.to_rat().inverse()", "RatMatrix(rows).rref()",
                 "from .exact import RatMatrix", "from .exact import rational_kernel",
                 "a.solve(b)", "inv.to_int()", "inv.is_integral()"):
        assert set(_rational_uses(ast.parse(text), "lattice.py")) == {1}, text
    assert set(_rational_uses(ast.parse("RatMatrix._wrap(rows)"), "weil.py")) == {1}
    assert list(_rational_uses(ast.parse("m.to_rat().rref()"), "exact.py")) == []
    for text in ("m.echelon()", "m.kernel()", "g.inverse()", "m.rank()"):
        assert list(_rational_uses(ast.parse(text), "lattice.py")) == [], text
    assert set(_rational_uses(ast.parse("m.to_rat()"), "weil.py")) == {1}


# a bounded search that runs out ends the run with exit 2: only the
# sampler (a rejected draw), the backtracking (a dead branch) and the CLI
# catch SearchExhausted, or a base class of it
EXHAUSTED_CATCHERS = frozenset({("lattice.py", "sample_accepted"),
                                ("weil.py", "find_orthogonal_square_vectors"),
                                ("cli.py", "main")})
CATCHES_EXHAUSTED = frozenset({"SearchExhausted", "RuntimeError", "Exception",
                               "BaseException"})


def _exhausted_catches(tree):
    """(top-level function, line) of each except clause of tree that
    catches SearchExhausted."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                names = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(node.type)} if node.type else {"Exception"}
                if names & CATCHES_EXHAUSTED:
                    yield getattr(top, "name", None), node.lineno


def test_search_exhausted_is_caught_only_where_it_ends():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, owner, line)
                  for owner, line in _exhausted_catches(tree)]
    assert [f for f in found if f[:2] not in EXHAUSTED_CATCHERS] == []
    assert {f[:2] for f in found} == EXHAUSTED_CATCHERS


def test_exhausted_guard_sees_a_catch():
    body = "def suite_weil():\n    try:\n        pass\n    %s\n        pass\n"
    for clause in ("except weil_mod.SearchExhausted:",
                   "except SearchExhausted as exc:",
                   "except (ValueError, lattice.SearchExhausted):",
                   "except RuntimeError:", "except Exception:", "except:"):
        assert list(_exhausted_catches(ast.parse(body % clause))) \
            == [("suite_weil", 4)], clause
    for clause in ("except ValueError:", "except cl.NotInCliffordGroup:"):
        assert list(_exhausted_catches(ast.parse(body % clause))) == [], clause


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


def _uses_offset(expr):
    # the literal 8 or 16 itself, or a sum or difference with it
    if isinstance(expr, ast.Constant):
        return type(expr.value) is int and expr.value in (8, 16)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        return _uses_offset(expr.left) or _uses_offset(expr.right)
    return False


def _layout_literals(tree):
    """Subscripts and slices that use 8 or 16 as an index or offset, and
    sequence displays repeated 24 times: reads of the V + S- + S+ layout."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            parts = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            parts = [p for part in parts for p in (
                (part.lower, part.upper) if isinstance(part, ast.Slice) else (part,))]
            if any(p is not None and _uses_offset(p) for p in parts):
                yield node.lineno
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(isinstance(s, (ast.List, ast.Tuple)) for s in sides) and any(
                    isinstance(s, ast.Constant) and s.value == 24 for s in sides):
                yield node.lineno


def test_block_layout_lives_in_triality():
    # V at 0, S- at 8, S+ at 16: other modules read blocks through
    # triality's offsets and the matrix block helpers
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "triality.py":
            tree = ast.parse(path.read_text(), str(path))
            found += ["%s:%d" % (path.name, n) for n in _layout_literals(tree)]
    assert found == []


def test_layout_guard_sees_hand_written_layout():
    samples = ("m[16 + i, 16 + j]", "a[8:16]", "image[0:16]", "rows[8 + i][j]",
               "tt[16, 16]", "[0] * 24", "(0,) * 24", "row[j:j + 8]")
    for text in samples:
        assert list(_layout_literals(ast.parse(text))) == [1], text
    for text in ("m[S_PLUS + i, j]", "x[4 + t]", "[0] * 16", "range(8)",
                 "g[rng.randrange(8)]", "a[:k]"):
        assert list(_layout_literals(ast.parse(text))) == [], text
