"""Exact linear algebra: SNF, kernels, square certification."""

import random
from fractions import Fraction

import pytest

from kummer_spin.exact import (
    IntMatrix,
    RatMatrix,
    integer_kernel,
    is_primitive,
    is_rational_square,
    primitive_vector,
    rational_kernel,
    smith_normal_form,
)


def test_matmul_and_identity():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a @ IntMatrix.identity(2) == a
    assert (a @ a).data == ((7, 10), (15, 22))
    assert a.transpose().data == ((1, 3), (2, 4))
    assert (a - a).is_zero()


def naive_product(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def naive_apply(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def random_rows(rng, kind, nr, nc, entry):
    if kind == "signed_permutation":
        perm = rng.sample(range(nc), nc)
        return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(nc)]
                for i in range(nr)]
    density = {"dense": 1.0, "sparse": 0.15, "zero": 0.0}[kind]
    return [[entry() if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)]


@pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
def test_products_match_naive_triple_loop(cls):
    # the zero-skipping kernel against the definition: equal values, and
    # entries of the matrix's own domain (a zero product included)
    rng = random.Random(8128 if cls is IntMatrix else 496)
    if cls is IntMatrix:
        def entry():
            return rng.choice((1, -1, rng.randint(-9, 9)))
        domain = int
    else:
        def entry():
            return rng.choice((1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
        domain = Fraction
    kinds = ("dense", "sparse", "signed_permutation", "zero")
    for _ in range(300):
        ka, kb = rng.choice(kinds), rng.choice(kinds)
        n = rng.randint(1, 9)
        if "signed_permutation" in (ka, kb):
            nr = nc = n
        else:
            nr, nc = rng.choice(((1, rng.randint(1, 9)), (rng.randint(1, 9), 1),
                                 (rng.randint(1, 9), rng.randint(1, 9))))
        a = cls(random_rows(rng, ka, nr, n, entry))
        b = cls(random_rows(rng, kb, n, nc, entry))
        prod = a @ b
        assert (prod.rows, prod.cols) == (nr, nc)
        assert prod.data == naive_product(a.data, b.data)
        assert all(type(x) is domain for row in prod.data for x in row)
        # apply: Fractions unless both the matrix and the vector are integral
        ints = tuple(rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n))
        fracs = tuple(Fraction(rng.choice((0, 0, rng.randint(-9, 9))), rng.randint(1, 4))
                      for _ in range(n))
        for v in (ints, fracs, (Fraction(0),) * n):
            out = a.apply(v)
            assert out == naive_apply(a.data, v)
            want = int if cls is IntMatrix and v is ints else Fraction
            assert all(type(x) is want for x in out)


def test_mixed_domain_product_raises_type_error():
    i2 = IntMatrix([[1, 0], [0, 1]])
    r2 = RatMatrix([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(TypeError):
        i2 @ r2
    with pytest.raises(TypeError):
        r2 @ i2
    assert i2 @ i2 == i2 and r2 @ r2 == RatMatrix([[Fraction(1, 4), 0], [0, 1]])


def test_mixed_domain_sum_and_non_integral_scale_raise():
    i2 = IntMatrix([[1, 0], [0, 1]])
    r2 = RatMatrix([[Fraction(1, 2), 0], [0, 1]])
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(i2, r2)
        with pytest.raises(TypeError):
            op(r2, i2)
    assert i2 + i2 == IntMatrix([[2, 0], [0, 2]]) and (r2 - r2).is_zero()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).scale(Fraction(1, 3))
    with pytest.raises(TypeError):
        IntMatrix([[1, 2]]).scale(0.5)
    doubled = IntMatrix([[1, 2]]).scale(Fraction(2))
    assert doubled == IntMatrix([[2, 4]]) and type(doubled[0, 1]) is int
    assert r2.scale(2) == RatMatrix([[1, 0], [0, 2]])


def test_det_int_and_rat():
    a = IntMatrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    assert a.det() == 2 * (1 * 1 - 0 * 3) - 0 + 1 * (1 * 3 - 0)
    r = RatMatrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    assert r.det() == Fraction(1, 6) - 1


def test_rat_inverse_and_solve():
    r = RatMatrix([[2, 1], [1, 1]])
    inv = r.inverse()
    assert (r @ inv).is_identity()
    x = r.solve((3, 2))
    assert tuple(r.apply(x)) == (3, 2)
    with pytest.raises(ValueError):
        RatMatrix([[1, 1], [1, 1]]).inverse()


def test_snf_diag_2_3():
    # diag(2,3) has factors (1,6)
    snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert snf.invariant_factors == (1, 6)
    assert snf.left @ snf.matrix @ snf.right == snf.diagonal()


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(4))
    assert snf.invariant_factors == (1, 1, 1, 1)


def test_snf_random_matrices():
    # transforms unimodular and reproduce the diagonal exactly
    rng = random.Random(1729)
    for _ in range(200):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        snf = smith_normal_form(a)
        assert snf.left @ a @ snf.right == snf.diagonal()
        assert abs(snf.left.det()) == 1
        assert abs(snf.right.det()) == 1
        f = snf.invariant_factors
        assert all(x >= 0 for x in f)
        for x, y in zip(f, f[1:]):
            assert y == 0 or (x != 0 and y % x == 0)


def test_rational_kernel_trivial_cases():
    assert len(rational_kernel(RatMatrix([[0, 0], [0, 0]]))) == 2
    assert rational_kernel(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_rational_kernel_exactness():
    rng = random.Random(55)
    for _ in range(50):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        a = RatMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        basis = rational_kernel(a)
        for v in basis:
            assert all(x == 0 for x in a.apply(v))
        assert len(basis) + a.rank() == a.cols


def test_integer_kernel_saturated():
    a = IntMatrix([[2, 4, 6]])
    basis = integer_kernel(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in a.apply(v))
    # saturation: the primitive kernel vector (1,-2,1) lies in the span
    m = RatMatrix([[Fraction(basis[0][i]), Fraction(basis[1][i]), Fraction(v)]
                   for i, v in enumerate((1, -2, 1))])
    assert m.rank() == 2


def fraction_rref(rows):
    """Reference Gauss-Jordan elimination on Fractions: the nonzero rows
    of the reduced row echelon form and the pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[:len(pivots)]], pivots


def check_int_elimination(rows):
    a = IntMatrix(rows)
    reduced, pivots = fraction_rref(rows)
    got, got_pivots = a.echelon()
    assert got_pivots == pivots
    assert all(type(x) is int for row in got for x in row)
    assert [tuple(Fraction(x, row[c]) for x in row)
            for row, c in zip(got, pivots)] == reduced
    assert a.rank() == len(pivots)
    kernel = a.kernel()
    assert kernel == [primitive_vector(v) for v in rational_kernel(a)]
    for v in kernel:
        assert not any(a.apply(v))


def test_int_elimination_matches_fraction_oracles():
    rng = random.Random(1968)
    cases = [[[0, 0, 0], [0, 0, 0]], [[0]], [[3, -6, 9, 0]], [[0, 0, 5]],
             [[2], [0], [-4]], [[0], [0]], [[2, 1], [1, 1]],
             [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
             [[int(i == j) for j in range(5)] for i in range(5)]]
    for _ in range(80):
        # products through k columns: singular whenever k < min(nr, nc)
        nr, nc, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        right = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))
                  for _ in range(nc)] for _ in range(k)]
        cases.append([list(row) for row in naive_product(left, right)])
    for rows in cases:
        check_int_elimination(rows)


def test_int_elimination_on_wedge4_of_a_stabilizer_generator():
    from kummer_spin.cayley import wedge4_matrix
    from kummer_spin.stabilizer import stabilizer_v_actions

    g = stabilizer_v_actions(3, 14, random.Random(7))[-1]
    diff = wedge4_matrix(g) - IntMatrix.identity(70)
    check_int_elimination(diff.data)
    assert 0 < diff.rank() < 70


def test_int_elimination_matches_sympy():
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    entries = st.one_of(st.just(0), st.integers(-6, 6))
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    matrices = shapes.flatmap(lambda s: st.lists(
        st.lists(entries, min_size=s[1], max_size=s[1]),
        min_size=s[0], max_size=s[0]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(matrices)
    def check(rows):
        a = IntMatrix(rows)
        oracle = sympy.Matrix(rows)
        assert a.rank() == oracle.rank()
        assert a.kernel() == [
            primitive_vector([Fraction(int(x.p), int(x.q)) for x in v])
            for v in oracle.nullspace()]

    check()


def fraction_det(rows):
    """Reference determinant by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_det_matches_fraction_elimination():
    rng = random.Random(1849)
    cases = [[[0]], [[-5]], [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[0, 1], [1, 0]],
             [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2, 1], [0, 3, 1], [4, 5, 6]]]
    for _ in range(80):
        # products through k columns: singular whenever k < n
        n, k = rng.randint(1, 7), rng.randint(1, 7)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        right = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))
                  for _ in range(n)] for _ in range(k)]
        cases.append([list(row) for row in naive_product(left, right)])
    for rows in cases:
        det = IntMatrix(rows).det()
        assert type(det) is int and det == fraction_det(rows)


def test_det_and_snf_match_sympy():
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    from sympy.matrices.normalforms import invariant_factors

    entries = st.one_of(st.just(0), st.integers(-6, 6))

    def matrices(nr, nc):
        return st.lists(st.lists(entries, min_size=nc, max_size=nc),
                        min_size=nr, max_size=nr)

    def low_rank(nr, nc):
        # a product through fewer columns than the smaller side is singular
        return st.integers(1, max(1, min(nr, nc) - 1)).flatmap(
            lambda k: st.tuples(matrices(nr, k), matrices(k, nc))).map(
            lambda ab: [list(row) for row in naive_product(*ab)])

    def shaped(nr, nc):
        return st.one_of(matrices(nr, nc), low_rank(nr, nc))

    sides = st.integers(1, 6)
    squares = sides.flatmap(lambda n: shaped(n, n))
    rectangles = st.tuples(sides, sides).flatmap(lambda s: shaped(*s))
    run = settings(max_examples=150, deadline=None, derandomize=True, database=None)

    @run
    @given(squares)
    @example([[0]])
    @example([[0, 0, 0]] * 3)
    @example([[1, 2], [2, 4]])
    def check_det(rows):
        det = IntMatrix(rows).det()
        assert det == sympy.Matrix(rows).det() == fraction_det(rows)

    @run
    @given(rectangles)
    @example([[0, 0], [0, 0]])
    @example([[2, 4, -6]])
    @example([[4], [-6], [0]])
    @example([[1, 2], [2, 4], [3, 6]])
    def check_snf(rows):
        oracle = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        factors = smith_normal_form(IntMatrix(rows)).invariant_factors
        assert factors == tuple(int(f) for f in oracle)

    check_det()
    check_snf()


def test_is_rational_square():
    ok, w = is_rational_square(Fraction(9, 4))
    assert ok and w == Fraction(3, 2)
    ok, w = is_rational_square(2)
    assert not ok and w is None
    with pytest.raises(ValueError):
        is_rational_square(0)
    # d^4 a^2 b^2 for d=6, a=4, b=-10
    d, a, b = 6, 4, -10
    ok, w = is_rational_square(Fraction(d ** 4 * a ** 2 * b ** 2))
    assert ok and w * w == d ** 4 * a ** 2 * b ** 2


def test_is_primitive():
    assert is_primitive((3, 5))
    assert not is_primitive((2, 4, 6))


def naive_block(rows, i, j, nr, nc):
    return tuple(tuple(rows[i + a][j + b] for b in range(nc)) for a in range(nr))


def naive_block_diagonal(blocks, zero):
    height = sum(len(b) for b in blocks)
    width = sum(len(b[0]) for b in blocks)
    out = [[zero] * width for _ in range(height)]
    top = left = 0
    for b in blocks:
        for a, row in enumerate(b):
            for c, x in enumerate(row):
                out[top + a][left + c] = x
        top += len(b)
        left += len(b[0])
    return tuple(map(tuple, out))


@pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
def test_block_matches_naive_loops(cls):
    rng = random.Random(5)
    for nr, nc in ((1, 1), (1, 7), (7, 1), (3, 5), (6, 6)):
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if cls is RatMatrix:
            rows = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in rows]
        m = cls(rows)
        for _ in range(20):
            i, j = rng.randrange(nr), rng.randrange(nc)
            h, w = rng.randint(1, nr - i), rng.randint(1, nc - j)
            got = m.block(i, j, h, w)
            assert type(got) is cls
            assert (got.rows, got.cols) == (h, w)
            assert got.data == naive_block(rows, i, j, h, w)
        assert m.block(0, 0, nr, nc) == m
        for bad in ((0, 0, nr + 1, 1), (0, 0, 1, nc + 1), (-1, 0, 1, 1),
                    (0, nc, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0)):
            with pytest.raises(ValueError):
                m.block(*bad)


@pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
def test_block_diagonal_matches_naive_loops(cls):
    rng = random.Random(6)
    for shapes in (((1, 1),), ((1, 4), (3, 1)), ((2, 3), (1, 1), (4, 2)),
                   ((8, 8), (8, 8), (8, 8))):
        raw = [[[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
               for r, c in shapes]
        blocks = [cls(b) for b in raw]
        got = cls.block_diagonal(*blocks)
        assert type(got) is cls
        assert got.data == naive_block_diagonal(
            [b.data for b in blocks], cls._zero)
        # each block reads back from its diagonal position
        top = left = 0
        for b in blocks:
            assert got.block(top, left, b.rows, b.cols) == b
            top += b.rows
            left += b.cols
    with pytest.raises(ValueError):
        cls.block_diagonal()


def test_block_diagonal_rejects_mixed_domains():
    with pytest.raises(TypeError):
        IntMatrix.block_diagonal(IntMatrix([[1]]), RatMatrix([[1]]))
    with pytest.raises(TypeError):
        RatMatrix.block_diagonal(IntMatrix([[1]]))
