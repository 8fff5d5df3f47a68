"""Stabilizer generators, the mod-n representation, cokernels, characters."""

import random

import pytest

from kummer_spin.exact import IntMatrix, is_primitive
from kummer_spin.lattice import (SearchExhausted, chi_character, det_character,
                                 discriminant_group)
from kummer_spin.stabilizer import (
    ELEMENTARY_SL4,
    StabilizerGenerator,
    alpha_tilde_generator,
    bbf_lattice,
    det_chi_report,
    find_h2_with_square,
    gamma_w_cokernel,
    h2_square,
    h2_wedge,
    minus_one_generator,
    mod_n_rep,
    pair_reflection_generator,
    random_pair_reflection,
    random_sl4,
    s_n,
    sample_generators,
    sl4_generator,
    tau_tilde_generator,
    word_generator,
)
from kummer_spin.triality import ax_element, splus_block


def test_bbf_lattice_signature_and_disc():
    for n in (3, 4, 5):
        lat = bbf_lattice(n)
        assert lat.rank == 7
        assert len(lat.positive_basis()) == 3  # signature (3,4)
        assert discriminant_group(lat).order == 2 * n


def test_sl4_identity_and_elementary():
    g = sl4_generator(IntMatrix.identity(4), 3)
    assert g.ax.matrix.is_identity()
    for n in (3, 4, 5):
        m = ELEMENTARY_SL4[0]
        g = sl4_generator(m, n)
        sn = s_n(n)
        assert splus_block(g.ax.apply(ax_element(s_plus=sn))) == sn
        assert g.ax.is_algebra_automorphism()


def test_sl4_rejects_wrong_det():
    m = IntMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        sl4_generator(m, 3)


def test_sl4_acts_by_isometries_on_h2():
    rng = random.Random(6)
    lat = bbf_lattice(3)
    for _ in range(5):
        g = sl4_generator(random_sl4(rng), 3)
        iso = g.perp_action()  # constructor verifies the isometry property
        assert det_character(iso) in (1, -1)


def test_pair_reflection_generator():
    n = 3
    a = (1, 0, 0, 0, 0, 2)  # int(A^2) = 4 = 2n - 2
    assert h2_square(a) == 4
    g = pair_reflection_generator(a, (2, 0, 0, 0, 0, 1), n)
    assert g.kind == "pair_reflection"
    # A1 = A2 gives the identity on the complement
    g2 = pair_reflection_generator(a, a, n)
    assert g2.perp_action().matrix.is_identity()
    lat = bbf_lattice(n)
    iso = g.perp_action()
    assert det_character(iso) * chi_character(lat, iso) == 1


def test_pair_reflection_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pair_reflection_generator((1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 2), 3)
    with pytest.raises(ValueError):
        pair_reflection_generator((2, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 2), 3)


def test_mod_n_rep_of_sl4_is_the_matrix():
    rng = random.Random(15)
    for n in (3, 4, 5):
        m = random_sl4(rng)
        g = sl4_generator(m, n)
        rep = mod_n_rep(g)
        assert rep.data == tuple(tuple(x % n for x in row) for row in m.data)


def test_mod_n_rep_of_alpha_tilde_is_minus_id():
    for n in (3, 5):
        rep = mod_n_rep(alpha_tilde_generator(n))
        assert rep.data == tuple(
            tuple((-1 if i == j else 0) % n for j in range(4)) for i in range(4))


def test_mod_n_rep_identity():
    g = sl4_generator(IntMatrix.identity(4), 4)
    rep = mod_n_rep(g)
    assert rep.data == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def test_mod_n_rep_homomorphism():
    rng = random.Random(19)
    n = 5
    gens = sample_generators(n, 10, rng)
    for _ in range(100):
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = word_generator([a, b], n)
        assert mod_n_rep(ab) == mod_n_rep(a) @ mod_n_rep(b)


def test_gamma_w_cokernel_s_n():
    for n in range(2, 9):
        factors, got_n = gamma_w_cokernel(s_n(n))
        assert got_n == n
        assert factors == (1, 1, 1, 1, n, n, n, n)
    factors, _ = gamma_w_cokernel(s_n(1))
    assert factors == (1,) * 8  # trivial cokernel


def test_gamma_w_cokernel_other_primitive_classes():
    rng = random.Random(33)
    found = 0
    while found < 5:
        w = tuple(rng.randint(-3, 3) for _ in range(8))
        from math import gcd

        from kummer_spin.clifford import splus_pairing

        ww = splus_pairing(w, w)
        if ww >= -2 or gcd(*w) != 1:
            continue
        found += 1
        n = -ww // 2
        factors, got_n = gamma_w_cokernel(w)
        assert got_n == n
        assert factors == (1, 1, 1, 1, n, n, n, n)


def test_gamma_w_rejects_imprimitive():
    with pytest.raises(ValueError):
        gamma_w_cokernel(tuple(2 * x for x in s_n(3)))


def test_det_chi_report():
    for n in (3, 4, 5):
        rows = det_chi_report(n, sample_count=8, seed=0)
        assert [row[0] for row in rows] == [
            "reflection_characters", "generators_in_kernel",
            "tau_tilde_involution", "disc_group_order"]
        assert all(ok for _name, _ref, ok, _detail in rows), rows
        assert rows[1][3] == "det*chi = +1 on 8 generator images"
        # computed order 2n; the open question: the alternative formula
        # 2dim+2 gives 4n-2, which disagrees for n != 3
        assert rows[3][3].startswith(
            "computed %d; alternative formula 2dim+2 gives %d ("
            % (2 * n, 4 * n - 2))


def test_tau_tilde_perp_action():
    n = 4
    tt = tau_tilde_generator(n).perp_action()
    assert tt.apply((1, 0, 0, 0, 0, 0, 0)) == (-1, 0, 0, 0, 0, 0, 0)
    for k in range(1, 7):
        e = tuple(int(i == k) for i in range(7))
        assert tt.apply(e) == e


def test_generator_word_still_fixes_s_n():
    rng = random.Random(77)
    n = 3
    gens = sample_generators(n, 6, rng)
    w = word_generator(gens, n)
    assert isinstance(w, StabilizerGenerator)
    sn = s_n(n)
    assert splus_block(w.ax.apply(ax_element(s_plus=sn))) == sn


def test_minus_one_generator_matches_grading_involution():
    # the only nontrivial central element in the stabilizer: trivial on the
    # complement, -1 on V and S-; both kind names realize the same element
    g = minus_one_generator(5)
    assert g.perp_action().matrix.is_identity()
    assert g.ax == alpha_tilde_generator(5).ax
    assert mod_n_rep(g).data == tuple(
        tuple((-1 if i == j else 0) % 5 for j in range(4)) for i in range(4))


def test_find_h2_with_square_deterministic():
    rng1 = random.Random(5)
    rng2 = random.Random(5)
    a1 = find_h2_with_square(6, rng1)
    a2 = find_h2_with_square(6, rng2)
    assert a1 == a2
    assert h2_square(a1) == 6


def _loop_find_h2_with_square(target, rng):
    # the hand-written loop that find_h2_with_square replaced
    b = 3
    for attempt in range(10000):
        a = tuple(rng.randint(-b, b) for _ in range(6))
        if any(a) and h2_square(a) == target and is_primitive(a):
            return a
        if attempt % 1000 == 999:
            b += 1
    raise SearchExhausted("no degree-two class of square %d found" % target)


def _loop_find_orthogonal_class(square, h6, rng):
    # the hand-written loop that find_h2_with_square(orthogonal_to=h6) replaced
    b = 3
    for attempt in range(20000):
        a = tuple(rng.randint(-b, b) for _ in range(6))
        if any(a) and h2_square(a) == square and h2_wedge(a, h6) == 0 \
                and is_primitive(a):
            return a
        if attempt % 2000 == 1999:
            b += 1
    raise SearchExhausted("no orthogonal degree-two class of square %d" % square)


def _seeded_outcome(search, seed):
    """The value of a search on Random(seed), or None when it runs out,
    with the generator's state afterwards."""
    rng = random.Random(seed)
    try:
        value = search(rng)
    except SearchExhausted:
        value = None
    return value, rng.getstate()


def test_find_h2_with_square_draws_as_the_loops_did():
    # squares 2n - 2 for n = 2..6, some that need a widened box (58 plain,
    # 38, 58 and 118 orthogonal) and two that run out (498 both ways)
    plain = [(2 * n - 2, range(4)) for n in range(2, 7)] \
        + [(58, range(3)), (498, range(1))]
    orthogonal = [(2 * n - 2, h6, range(3)) for n in range(2, 7)
                  for h6 in ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0))] \
        + [(38, (0, 1, 0, 0, 1, 0), range(2))] \
        + [(t, (1, 0, 0, 0, 0, 1), range(1)) for t in (58, 118, 498)]
    found = []
    for target, seeds in plain:
        for seed in seeds:
            old = _seeded_outcome(
                lambda rng: _loop_find_h2_with_square(target, rng), seed)
            assert _seeded_outcome(
                lambda rng: find_h2_with_square(target, rng), seed) == old
            found.append(old[0])
    for target, h6, seeds in orthogonal:
        for seed in seeds:
            old = _seeded_outcome(
                lambda rng: _loop_find_orthogonal_class(target, h6, rng), seed)
            assert _seeded_outcome(lambda rng: find_h2_with_square(
                target, rng, orthogonal_to=h6), seed) == old
            found.append(old[0])
    assert found.count(None) == 2


def test_random_pair_reflection_draws_two_classes_in_turn():
    for n, h6 in ((3, None), (4, (1, 0, 0, 0, 0, 1))):
        rng, ref = random.Random(8), random.Random(8)
        g = random_pair_reflection(n, rng, orthogonal_to=h6)
        a1 = find_h2_with_square(2 * n - 2, ref, h6)
        a2 = find_h2_with_square(2 * n - 2, ref, h6)
        assert (g.kind, g.data) == ("pair_reflection", (a1, a2))
        assert rng.getstate() == ref.getstate()


def test_perp_discriminant_group_is_cyclic():
    from kummer_spin.lattice import discriminant_group

    for n in (3, 4, 5):
        disc = discriminant_group(bbf_lattice(n))
        assert disc.factors == (2 * n,)


def test_spin_kind_words_stay_orientation_preserving():
    from kummer_spin.lattice import ort_character

    rng = random.Random(808)
    n = 4
    lat = bbf_lattice(n)
    gens = [g for g in sample_generators(n, 10, rng)
            if g.kind in ("sl4", "pair_reflection")]
    for _ in range(10):
        word = word_generator([rng.choice(gens), rng.choice(gens)], n)
        assert ort_character(lat, word.perp_action()) == 1


def test_generator_product_twist_matches_orientation():
    rng = random.Random(909)
    n = 3
    for g in sample_generators(n, 8, rng):
        assert g.ax.product_twist() == g.orientation_sign()
        assert g.ax.is_algebra_automorphism() == (g.ax.product_twist() == 1)


def test_sl4_dual_block_is_rational_inverse_transpose():
    rng = random.Random(147)
    for _ in range(12):
        m = random_sl4(rng, length=5)
        v = sl4_generator(m, 3).v_matrix()
        dual = IntMatrix([[v[4 + i, 4 + j] for j in range(4)] for i in range(4)])
        assert dual == m.to_rat().inverse().transpose().to_int()


def test_bivector_transvection_matches_rational_adjugate():
    from kummer_spin.stabilizer import _bivector_matrix, bivector_transvection

    rng = random.Random(382)
    pfaffian_signs = set()
    done = 0
    while done < 40:
        h6 = tuple(rng.randint(-3, 3) for _ in range(6))
        if h2_square(h6) == 0:
            continue
        done += 1
        pfaffian_signs.add(h2_square(h6) > 0)
        v = tuple(rng.randint(-2, 2) for _ in range(4))
        b = _bivector_matrix(h6)
        adj = b.to_rat().inverse().scale(b.det()).to_int()
        cv = adj.apply(v)
        expected = IntMatrix([[int(i == j) - v[i] * cv[j] for j in range(4)]
                              for i in range(4)])
        assert bivector_transvection(h6, v) == expected
    assert pfaffian_signs == {True, False}


def test_bbf_lattice_built_once_per_n():
    for n in (2, 3, 4, 5):
        assert bbf_lattice(n) is bbf_lattice(n)
    assert bbf_lattice(3) is not bbf_lattice(4)
