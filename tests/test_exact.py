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
    rational_kernel,
    smith_normal_form,
)


def test_matmul_and_identity():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a @ IntMatrix.identity(2) == a
    assert (a @ a).data == ((7, 10), (15, 22))
    assert a.transpose().data == ((1, 3), (2, 4))
    assert (a - a).is_zero()


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
