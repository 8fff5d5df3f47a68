"""Lattices, reflections, and the det / chi / ort characters."""

import random

import pytest

from kummer_spin.exact import IntMatrix
from kummer_spin.lattice import (
    IntLattice,
    LatticeIsometry,
    chi_character,
    det_character,
    discriminant_group,
    ort_character,
    orthogonal_complement_basis,
    reflection,
    signed_reflection,
    sublattice,
)


def hyperbolic(copies):
    # U^copies: unit pairings between coordinates 2k and 2k+1
    n = 2 * copies
    return IntLattice([[int(i // 2 == j // 2 and i != j) for j in range(n)]
                       for i in range(n)], "U")


def test_pairing_hyperbolic():
    u = hyperbolic(1)
    assert u.pairing((1, 0), (0, 1)) == 1
    assert u.square((1, 1)) == 2
    assert u.square((1, -1)) == -2
    assert u.pairing((3, 5), (0, 0)) == 0


def test_reflection_swaps_hyperbolic_basis():
    u = hyperbolic(1)
    r = reflection(u, (1, -1))  # u = f - g has square -2
    assert r.apply((1, 0)) == (0, 1)
    assert r.apply((0, 1)) == (1, 0)
    assert (r @ r).matrix.is_identity()


def test_reflection_fixes_orthogonal_vectors():
    lat = hyperbolic(2)
    u = (1, 1, 0, 0)  # square 2
    r = reflection(lat, u)
    x = (0, 0, 2, 5)  # orthogonal to u
    assert r.apply(x) == x
    assert r.apply(u) == (-1, -1, 0, 0)


def test_signed_reflection_sign():
    lat = hyperbolic(1)
    plus = (1, 1)
    minus = (1, -1)
    assert signed_reflection(lat, plus).matrix == reflection(lat, plus).matrix.scale(-1)
    assert signed_reflection(lat, minus).matrix == reflection(lat, minus).matrix


def test_reflection_rejects_wrong_square():
    lat = hyperbolic(1)
    with pytest.raises(ValueError):
        reflection(lat, (2, 1))  # square 4


def test_random_reflections_are_involutive_isometries():
    # R_u^2 = id and R_u fixes u-perp pointwise, 100 random +-2 vectors in U^4
    lat = hyperbolic(4)
    rng = random.Random(7)
    found = 0
    while found < 100:
        u = tuple(rng.randint(-4, 4) for _ in range(8))
        if lat.square(u) not in (2, -2):
            continue
        found += 1
        r = reflection(lat, u)
        assert (r @ r).matrix.is_identity()
        assert r.matrix.transpose() @ lat.gram @ r.matrix == lat.gram
        for v in orthogonal_complement_basis(lat, [u]):
            assert r.apply(v) == tuple(v)


def test_det_character_values():
    # det(r_u) = (u,u)/2 on an odd-rank lattice (rank 7 in the application)
    lat = IntLattice([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0],
                      [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, -6]])
    rng = random.Random(11)
    seen = {2: 0, -2: 0}
    while min(seen.values()) < 10:
        u = tuple(rng.randint(-3, 3) for _ in range(5))
        uu = lat.square(u)
        if uu not in (2, -2):
            continue
        seen[uu] += 1
        r = signed_reflection(lat, u)
        assert det_character(r) == uu // 2
    assert det_character(LatticeIsometry(lat, IntMatrix.identity(5))) == 1


def test_discriminant_group_orders():
    assert discriminant_group(hyperbolic(1)).is_trivial()
    neg2k = IntLattice([[-6]])
    d = discriminant_group(neg2k)
    assert d.order == 6 and d.factors == (6,)
    # lifts pair integrally against the lattice
    for lift in d.lifts:
        pairing = sum(a * b for a, b in zip(neg2k.gram.apply(lift), (1,)))
        assert pairing.denominator == 1


def test_discriminant_group_is_computed_once_per_lattice():
    lat = IntLattice([[-6]])
    assert discriminant_group(lat) is discriminant_group(lat)
    assert discriminant_group(IntLattice([[-6]])) is not discriminant_group(lat)


def test_chi_character_on_rank_one():
    lat = IntLattice([[-4]])
    minus = LatticeIsometry(lat, [[-1]])
    ident = LatticeIsometry(lat, [[1]])
    assert chi_character(lat, minus) == -1
    assert chi_character(lat, ident) == 1


def test_chi_and_det_on_perp_lattice():
    # rank-3 lattice diag(2, -2, -2k): reflections act by +-1 on the
    # discriminant group with chi(r_u) = -(u,u)/2
    for k in (2, 3, 5):
        lat = IntLattice([[2, 0, 0], [0, -2, 0], [0, 0, -2 * k]])
        for u, uu in (((1, 0, 0), 2), ((0, 1, 0), -2)):
            r = signed_reflection(lat, u)
            assert det_character(r) == uu // 2
            assert chi_character(lat, r) == -uu // 2
            assert det_character(r) * chi_character(lat, r) == -1


def test_ort_character_minus_id():
    lat = hyperbolic(4)  # signature (4,4)
    minus = LatticeIsometry(lat, IntMatrix.identity(8).scale(-1))
    assert ort_character(lat, minus) == 1  # det of -id on a rank-4 space


def test_ort_multiplicative_and_basis_independent():
    lat = hyperbolic(4)
    rng = random.Random(23)
    # an alternative positive basis: e_i + f_i pattern scaled
    alt = [
        (1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 2, 2),
    ]
    words = []
    for _ in range(50):
        g = LatticeIsometry(lat, IntMatrix.identity(8))
        for _ in range(rng.randint(1, 4)):
            while True:
                u = tuple(rng.randint(-3, 3) for _ in range(8))
                if lat.square(u) in (2, -2):
                    break
            g = g @ reflection(lat, u)
        words.append(g)
    for g in words:
        assert ort_character(lat, g) == _rational_ort(lat, alt, g)
    for _ in range(20):
        a = rng.choice(words)
        b = rng.choice(words)
        assert ort_character(lat, a @ b) == ort_character(lat, a) * ort_character(lat, b)


def test_sublattice_and_complement():
    lat = hyperbolic(2)
    w = (1, -3, 0, 0)  # square -6
    basis = orthogonal_complement_basis(lat, [w])
    assert len(basis) == 3
    for v in basis:
        assert lat.pairing(w, v) == 0
    sub = sublattice(lat, basis, label="w-perp")
    assert sub.rank == 3
    assert abs(sub.gram.det()) == 6  # disc of w-perp in unimodular = |w^2|


def test_lattice_json_roundtrip():
    lat = hyperbolic(2)
    again = IntLattice.from_json(lat.to_json())
    assert again.gram == lat.gram
    v = lat.vector((1, 2, 3, 4))
    assert v.to_json() == [1, 2, 3, 4]


def test_ort_of_negative_vector_reflection():
    # reflecting in a negative-square vector preserves the positive cone
    lat = hyperbolic(4)
    rng = random.Random(37)
    checked = {2: 0, -2: 0}
    while min(checked.values()) < 10:
        u = tuple(rng.randint(-3, 3) for _ in range(8))
        uu = lat.square(u)
        if uu not in (2, -2):
            continue
        checked[uu] += 1
        expected = 1 if uu == -2 else -1
        assert ort_character(lat, reflection(lat, u)) == expected


def _rational_ort(lattice, basis, g):
    """ort by the rational projection onto a rational positive basis:
    the sign of det((B^T G B)^-1 B^T G M B)."""
    from kummer_spin.exact import RatMatrix

    gramp_inv = RatMatrix([[lattice.pairing(u, v) for v in basis]
                           for u in basis]).inverse()
    m = g.matrix.to_rat()
    cols = [gramp_inv.apply([lattice.pairing(u, m.apply(v)) for u in basis])
            for v in basis]
    return 1 if RatMatrix(list(zip(*cols))).det() > 0 else -1


def _random_isometry(lat, rng, bound):
    g = LatticeIsometry(lat, IntMatrix.identity(lat.rank))
    for _ in range(rng.randint(1, 4)):
        while True:
            u = tuple(rng.randint(-bound, bound) for _ in range(lat.rank))
            if lat.square(u) in (2, -2):
                break
        g = g @ reflection(lat, u)
    return g


def test_ort_character_matches_rational_projection():
    from kummer_spin.lattice import _diagonalize
    from kummer_spin.stabilizer import bbf_lattice

    rng = random.Random(289)
    signs = set()
    for lat in (hyperbolic(4), bbf_lattice(3), bbf_lattice(4), bbf_lattice(5)):
        assert all(isinstance(x, int) for v in lat.positive_basis() for x in v)
        basis = [v for v in _diagonalize(lat) if lat.square(v) > 0]
        for _ in range(15):
            g = _random_isometry(lat, rng, 2)
            got = ort_character(lat, g)
            assert got == _rational_ort(lat, basis, g)
            signs.add(got)
    assert signs == {1, -1}


def test_diagonalize_gives_orthogonal_primitive_integer_vectors():
    from math import gcd

    from kummer_spin.lattice import _diagonalize
    from kummer_spin.stabilizer import bbf_lattice
    from kummer_spin.triality import SPLUS_LATTICE

    # (lattice, positive inertia); U^k is all-isotropic on the unit
    # vectors, so it takes the pair branch
    cases = [(bbf_lattice(n), 3) for n in (2, 3, 4, 5)]
    cases += [(SPLUS_LATTICE, 4), (IntLattice([[2, 1, 0], [1, -4, 0], [0, 0, 6]]), 2)]
    cases += [(hyperbolic(k), k) for k in (1, 2, 3, 4)]
    for lat, positive in cases:
        basis = _diagonalize(lat)
        assert len(basis) == lat.rank
        assert IntMatrix(basis).det() != 0
        assert all(type(x) is int for v in basis for x in v)
        assert all(gcd(*v) == 1 for v in basis)
        assert all(lat.square(v) != 0 for v in basis)
        assert all(lat.pairing(u, v) == 0
                   for i, u in enumerate(basis) for v in basis[i + 1:])
        assert sum(lat.square(v) > 0 for v in basis) == positive
        assert lat.positive_basis() == tuple(v for v in basis if lat.square(v) > 0)


def test_diagonalize_stops_at_the_degenerate_remainder():
    from kummer_spin.lattice import _diagonalize

    assert _diagonalize(IntLattice([[0, 0], [0, 0]])) == []
    assert _diagonalize(IntLattice([[2, 0], [0, 0]])) == [(1, 0)]
    assert IntLattice([[0, 0], [0, -2]]).positive_basis() == ()


def test_isometry_inverse_matches_rational_inverse():
    from kummer_spin.exact import RatMatrix
    from kummer_spin.stabilizer import bbf_lattice, sample_generators

    rng = random.Random(1101)
    isometries = [_random_isometry(lat, rng, 2) for lat in
                  (hyperbolic(1), hyperbolic(4), bbf_lattice(3), bbf_lattice(5))
                  for _ in range(10)]
    isometries += [g.perp_action() for n in (3, 4) for g in sample_generators(n, 10, rng)]
    for g in isometries:
        inv = g.inverse()
        expected = RatMatrix(g.matrix.data).inverse()
        assert inv.matrix == IntMatrix(expected.data)
        assert inv.lattice is g.lattice
        assert (g @ inv).matrix.is_identity()


def test_isometry_inverse_rejects_non_unimodular_matrices():
    # the zero form is preserved by every matrix
    zero = IntLattice([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="not integral"):
        LatticeIsometry(zero, [[2, 0], [0, 1]]).inverse()
    with pytest.raises(ValueError, match="not integral"):
        LatticeIsometry(zero, [[1, 1], [1, -1]]).inverse()
    with pytest.raises(ValueError, match="singular"):
        LatticeIsometry(zero, [[1, 2], [2, 4]]).inverse()


def test_discriminant_lifts_match_inverse_gram():
    from fractions import Fraction

    from kummer_spin.exact import smith_normal_form
    from kummer_spin.stabilizer import bbf_lattice

    lattices = [bbf_lattice(n) for n in (2, 3, 4, 5)]
    lattices += [IntLattice([[-6]]), IntLattice([[2, 1, 0], [1, -4, 0], [0, 0, 6]])]
    for lat in lattices:
        snf = smith_normal_form(lat.gram)
        gram_inv = lat.gram.to_rat().inverse()
        left_inv = snf.left.to_rat().inverse()
        expected = []
        for k, f in enumerate(snf.invariant_factors):
            if f > 1:
                e = tuple(Fraction(int(i == k)) for i in range(lat.rank))
                expected.append(gram_inv.apply(left_inv.apply(e)))
        assert discriminant_group(lat).lifts == tuple(expected)


def _pairing_reflection(lattice, u):
    """Reference reflection matrix, built column by column with one
    pairing per basis vector."""
    n = lattice.rank
    uu = lattice.square(u)
    cols = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        coef = 2 * lattice.pairing(e, u) // uu
        cols.append(tuple(e[i] - coef * u[i] for i in range(n)))
    return IntMatrix(list(zip(*cols)))


def test_reflection_matches_per_basis_pairing_formula():
    from kummer_spin.clifford import splus_lattice, v_lattice
    from kummer_spin.lattice import sample_accepted
    from kummer_spin.stabilizer import bbf_lattice

    rng = random.Random(1818)
    lattices = [v_lattice(), splus_lattice(), hyperbolic(4)] \
        + [bbf_lattice(n) for n in (3, 4, 5)]
    signs = set()
    for lat in lattices:
        for u in sample_accepted(
                lambda _: tuple(rng.randint(-2, 2) for _ in range(lat.rank)),
                lambda u: lat.square(u) in (2, -2), 20, "square +-2 vectors",
                20000):
            signs.add(lat.square(u))
            assert reflection(lat, u).matrix == _pairing_reflection(lat, u)
    assert signs == {2, -2}
