"""Chern-character calculus and the invariant degree-four class."""

import random
from fractions import Fraction

import pytest

from kummer_spin.cayley import (
    ALPHA,
    BETA,
    C1_P,
    GAMMA,
    WEDGE4_SUBSETS,
    ExtRingElement,
    c2_end,
    c2_end_via_kappa,
    cayley_class,
    ext_to_wedge4,
    fm_class,
    invariant_rank,
    kappa2,
    proportional,
    wedge4_matrix,
)
from kummer_spin.exact import IntMatrix
from kummer_spin.stabilizer import (
    stabilizer_v_actions,
    wh_stabilizer_v_actions,
)


def test_ext_ring_product_signs():
    e1, e2 = ExtRingElement.generator(0), ExtRingElement.generator(1)
    assert e1 * e2 == (e2 * e1).scale(-1)
    assert (e1 * e1).is_zero()
    # alpha^2 = 2 sum_{i<j} e_i f_i e_j f_j
    sq = ALPHA * ALPHA
    expected = ExtRingElement()
    gens = [(ExtRingElement.generator(i), ExtRingElement.generator(4 + i))
            for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            expected = expected + (gens[i][0] * gens[i][1]
                                   * gens[j][0] * gens[j][1]).scale(2)
    assert sq == expected


def test_exp_additivity_on_even_classes():
    rng = random.Random(12)
    for _ in range(10):
        a = ExtRingElement({(1 << i) | (1 << j): rng.randint(-3, 3)
                            for i in range(4) for j in range(4, 8)})
        b = ExtRingElement({(1 << i) | (1 << j): rng.randint(-3, 3)
                            for i in range(4) for j in range(4, 8)})
        assert a.exp() * b.exp() == (a + b).exp()


def test_fm_class_chern_character():
    for n in (1, 2, 3, 5):
        ch = -fm_class(n)
        # degrees 0..4 of -ch: 2n + n c1 + (n/2) c1^2 - n^2 beta - gamma
        assert ch.graded_part(0) == ExtRingElement.scalar(2 * n)
        assert ch.graded_part(2) == C1_P.scale(n)
        expected4 = (C1_P * C1_P).scale(Fraction(n, 2)) \
            - BETA.scale(n * n) - GAMMA
        assert ch.graded_part(4) == expected4


def test_kappa2_of_fm_class():
    for n in (2, 3, 4):
        b = -fm_class(n)
        expected = (C1_P * C1_P).scale(Fraction(n, 4)) \
            - BETA.scale(n * n) - GAMMA
        assert kappa2(b) == expected


def test_kappa2_kills_line_bundles():
    rng = random.Random(21)
    for _ in range(10):
        c1 = ExtRingElement({(1 << i) | (1 << j): rng.randint(-2, 2)
                             for i in range(4) for j in range(4, 8)})
        line = c1.exp()
        assert kappa2(line).is_zero()
        assert c2_end(line).is_zero()


def test_kappa2_scaling_consistency():
    for m in (2, 3, -2):
        scaled = (-fm_class(3)).scale(m)
        # direct expansion oracle: recompute from the definition, rank 6m
        twist = scaled.graded_part(2).scale(Fraction(-1, 6 * m)).exp()
        expected = (scaled * twist).graded_part(4)
        assert kappa2(scaled) == expected


def test_c2_end_of_fm_class():
    for n in range(2, 9):
        b = -fm_class(n)
        expected = -(C1_P * C1_P).scale(n * n) \
            + BETA.scale(4 * n ** 3) + GAMMA.scale(4 * n)
        assert c2_end(b) == expected
        assert c2_end_via_kappa(b) == expected  # dual-route oracle


def test_c2_end_dual_route_on_random_classes():
    rng = random.Random(55)
    for _ in range(10):
        c1 = ExtRingElement({(1 << i) | (1 << j): rng.randint(-2, 2)
                             for i in range(4) for j in range(4, 8)})
        r = rng.randint(1, 5)
        ch = ExtRingElement.scalar(r) + c1 \
            + (c1 * c1).scale(Fraction(1, 2)) \
            + BETA.scale(rng.randint(-3, 3)) + GAMMA.scale(rng.randint(-3, 3))
        assert c2_end(ch) == c2_end_via_kappa(ch)


def test_degree_checks_raise_value_error():
    e1 = ExtRingElement.generator(0)
    # a Chern character of rank 0 has no kappa class and no c2 of End
    for bad in (e1.dual, e1.exp, lambda: ext_to_wedge4(ALPHA),
                lambda: kappa2(BETA), lambda: c2_end(GAMMA)):
        with pytest.raises(ValueError):
            bad()


def test_cayley_class_values():
    c3 = cayley_class(3)
    expected = ext_to_wedge4((ALPHA * ALPHA).scale(-9)
                             + BETA.scale(108) + GAMMA.scale(12))
    assert c3 == expected
    with pytest.raises(ValueError):
        cayley_class(1)


def test_cayley_class_matches_c2_end():
    for n in range(2, 9):
        got = ext_to_wedge4(c2_end(-fm_class(n)))
        assert got == cayley_class(n)


def test_wedge4_matrix_functorial():
    rng = random.Random(61)
    a = IntMatrix([[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)])
    b = IntMatrix([[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)])
    assert wedge4_matrix(a @ b) == wedge4_matrix(a) @ wedge4_matrix(b)
    assert wedge4_matrix(IntMatrix.identity(8)).is_identity()


def test_wedge4_matrix_entries_are_4x4_minors():
    rng = random.Random(62)
    for _ in range(20):
        m8 = IntMatrix([[rng.randint(-5, 5) for _ in range(8)]
                        for _ in range(8)])
        w4 = wedge4_matrix(m8)
        for _ in range(50):
            r, c = rng.randrange(70), rng.randrange(70)
            minor = IntMatrix([[m8[i, j] for j in WEDGE4_SUBSETS[c]]
                               for i in WEDGE4_SUBSETS[r]])
            assert w4[r, c] == minor.det()


def test_invariant_rank_identity_only():
    rank, basis = invariant_rank([IntMatrix.identity(8)])
    assert rank == 70
    assert basis == [tuple(int(i == j) for i in range(70))
                     for j in range(70)]


def test_invariant_rank_rejects_class_outside_fixed_space():
    # wedge4 of diag(-1, 1, ..., 1) negates exactly the subsets holding 0
    flip = IntMatrix.diagonal([-1] + [1] * 7)
    inside = tuple(int(i == 69) for i in range(70))
    assert invariant_rank([flip], expect_contains=inside)[0] == 35
    with pytest.raises(ValueError):
        invariant_rank([flip], expect_contains=cayley_class(3))


def test_invariant_rank_w_only():
    n = 3
    rng = random.Random(100)
    actions = stabilizer_v_actions(n, 24, rng)
    rank, basis = invariant_rank(actions, expect_contains=cayley_class(n))
    assert rank == 1
    assert proportional(basis[0], cayley_class(n))


def test_invariant_rank_w_and_h():
    n = 3
    rng = random.Random(200)
    h6 = (1, 0, 0, 0, 0, 1)  # int(A^2) = 2
    actions = wh_stabilizer_v_actions(n, h6, 20, rng)
    rank, basis = invariant_rank(actions, expect_contains=cayley_class(n))
    assert rank == 3
    # reduced echelon form with pivots taken from the last coordinate
    pivots = [max(i for i, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(pivots)
    for k, b in enumerate(basis):
        assert [b[p] for p in pivots] == [int(j == k) for j in range(rank)]


def test_stacked_kernel_matches_incremental():
    # the one-shot stacked kernel of (wedge4(g) - id) rows agrees with the
    # incremental intersection
    from kummer_spin.exact import RatMatrix, rational_kernel
    from kummer_spin.cayley import wedge4_matrix

    rng = random.Random(300)
    actions = stabilizer_v_actions(3, 14, rng)[:4]
    stacked_rows = []
    for m8 in actions:
        diff = wedge4_matrix(m8) - IntMatrix.identity(70)
        stacked_rows.extend(list(diff.data))
    stacked_kernel = rational_kernel(RatMatrix(stacked_rows))
    rank, basis = invariant_rank(actions)
    assert len(stacked_kernel) == rank
    joint = RatMatrix([list(v) for v in stacked_kernel]
                      + [list(v) for v in basis])
    assert joint.rank() == rank


def test_cayley_fixed_by_sampled_words():
    rng = random.Random(400)
    n = 4
    actions = stabilizer_v_actions(n, 12, rng)
    c = cayley_class(n)
    checked = 0
    while checked < 50:
        a = rng.choice(actions)
        b = rng.choice(actions)
        w4 = wedge4_matrix(a @ b)
        assert tuple(w4.apply(c)) == tuple(c)
        checked += 1
