"""Polarizations, complex structures, complex multiplication,
and the trivial-discriminant certificate."""

import random
from fractions import Fraction
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from kummer_spin import weil as weil_mod
from kummer_spin.clifford import (
    V_GRAM,
    clifford_embed,
    mukai_triple,
    SMINUS_MASKS,
    pairing_s,
    splus_pairing,
    v_pairing,
)
from kummer_spin.exact import (IntMatrix, RatMatrix, clear_denominators,
                                primitive_vector)
from kummer_spin.lattice import orthogonal_complement_basis
from kummer_spin.stabilizer import wh_stabilizer_v_actions, sl4_generator, random_sl4
from kummer_spin.triality import ax_element, multiplication_operator
from kummer_spin.weil import (
    SPLUS,
    SearchExhausted,
    anticommute_check,
    find_orthogonal_square_vectors,
    hermitian_and_discriminant,
    hermitian_sesquilinear_check,
    j_ell,
    kahler_metric,
    random_weil_pair,
    spin_wh_commutant_check,
    weil_multiplication_check,
    weil_structure,
    _square_candidates,
)

S3 = mukai_triple(1, [0] * 6, -3)
H_CANON = mukai_triple(0, (1, 0, 0, 0, 0, 1), 0)  # int(A^2) = 2, square -2


def sminus_embed(v8):
    out = [0] * 16
    for m, x in zip(SMINUS_MASKS, v8):
        out[m] = x
    return tuple(out)


def test_weil_structure_basic():
    ws = weil_structure(S3, H_CANON)
    assert (ws.n, ws.k, ws.d) == (3, 1, 3)
    sq = ws.theta_prime @ ws.theta_prime
    assert sq == IntMatrix.identity(8).scale(-3)
    # anti-self-duality on basis pairs: (T'x, y) = -(x, T'y)
    from kummer_spin.clifford import v_pairing

    for i in range(8):
        for j in range(8):
            x = tuple(int(a == i) for a in range(8))
            y = tuple(int(a == j) for a in range(8))
            assert v_pairing(ws.theta_prime.apply(x), y) == \
                -v_pairing(x, ws.theta_prime.apply(y))


def test_weil_structure_zero_h():
    ws = weil_structure(S3, (0,) * 8)
    assert ws.d == 0
    assert ws.theta_prime.is_zero()


def test_weil_structure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        weil_structure(S3, mukai_triple(1, [0] * 6, 1))  # not orthogonal
    with pytest.raises(ValueError):
        weil_structure(mukai_triple(1, [0] * 6, 1), H_CANON)  # positive square


def test_j_ell_squares_to_minus_one():
    u1 = H_CANON
    u2 = mukai_triple(1, [0] * 6, 1 + 0)  # (1,0,1) has square +2: invalid
    with pytest.raises(ValueError):
        j_ell(u1, u2)
    # a valid orthogonal pair of -2 classes
    v1 = mukai_triple(0, (1, 0, 0, 0, 0, 1), 0)
    v2 = mukai_triple(0, (0, 1, 0, 0, 1, 0), 0)  # int = 2(-c13 c24): need +2
    assert splus_pairing(v2, v2) == 2  # wrong sign: square +2
    v2 = mukai_triple(0, (0, 1, 0, 0, -1, 0), 0)
    assert splus_pairing(v2, v2) == -2
    assert splus_pairing(v1, v2) == 0
    j = j_ell(v1, v2)
    assert j.den == 1
    assert (j.num @ j.num).scale(-1).is_identity()
    # swapping the plane basis negates the structure
    j_swapped = j_ell(v2, v1)
    assert j_swapped.den == 1
    assert j_swapped.num == j.num.scale(-1)


def test_j_ell_rational_coordinates():
    v1 = tuple(Fraction(x, 1) for x in mukai_triple(0, (1, 0, 0, 0, 0, 1), 0))
    # a rational -2 vector: (3/5) * (0, A, 0) with int(A^2) = 2 * 25 / 9: use
    # instead a genuinely fractional combination with square -2
    v2 = tuple(Fraction(x, 2) for x in mukai_triple(0, (0, 2, 0, 0, -2, 0), 0))
    j = j_ell(v1, v2)
    assert (j.num @ j.num).scale(-1) == IntMatrix.identity(8).scale(j.den ** 2)


def test_kahler_metric_definite():
    ws = weil_structure(S3, H_CANON)
    u1 = mukai_triple(0, (0, 1, 0, 0, -1, 0), 0)
    u2 = mukai_triple(0, (0, 0, 1, 1, 0, 0), 0)
    assert splus_pairing(u2, u2) == -2
    assert splus_pairing(u1, u2) == 0
    assert all(splus_pairing(u, c) == 0 for u in (u1, u2) for c in (S3, H_CANON))
    g, sign = kahler_metric(ws, j_ell(u1, u2))
    assert sign in (1, -1)
    assert g.transpose() == g
    # h -> -h flips the sign of the metric
    ws_neg = weil_structure(S3, tuple(-x for x in H_CANON))
    g2, sign2 = kahler_metric(ws_neg, j_ell(u1, u2))
    assert g2 == g.scale(-1)
    assert sign2 == -sign


def test_kahler_positivity_model_basis():
    # gamma = product of the four unit-square classes e_i - e_i* pairs to +1
    # against each degree-one generator
    gamma = IntMatrix.identity(16)
    for i in range(4):
        v = tuple((1 if k == i else 0) - (1 if k == i + 4 else 0)
                  for k in range(8))
        gamma = gamma @ clifford_embed(v)
    for i in range(4):
        vi = [0] * 8
        vi[i] = 1
        s = sminus_embed(tuple(vi))
        img = tuple(gamma.apply(s))
        assert pairing_s(img, s) == 1


def test_anticommuting_structures_share_metric():
    rng = random.Random(3)
    w = S3
    h, h_prime, f = find_orthogonal_square_vectors([w], (-2, -2, -2), rng)
    anticommute, metrics_equal = anticommute_check(w, h, h_prime, f)
    assert anticommute
    assert metrics_equal


def test_weil_multiplication():
    ws = weil_structure(S3, H_CANON)
    assert weil_multiplication_check(ws, 1, 0)
    assert weil_multiplication_check(ws, 0, 1)
    assert weil_multiplication_check(ws, 2, 1)  # norm 4 + 3 = 7
    rng = random.Random(14)
    for _ in range(20):
        assert weil_multiplication_check(ws, rng.randint(-5, 5), rng.randint(-5, 5))


def test_hermitian_sesquilinear():
    ws = weil_structure(S3, H_CANON)
    assert hermitian_sesquilinear_check(ws, random.Random(7))


def test_theta_prime_squares_on_samples():
    rng = random.Random(70)
    for _ in range(50):
        w, h = random_weil_pair(rng)
        ws = weil_structure(w, h)
        sq = ws.theta_prime @ ws.theta_prime
        assert sq == IntMatrix.identity(8).scale(-ws.d)


def test_discriminant_certificate():
    rng = random.Random(11)
    ws = weil_structure(S3, H_CANON)
    cert = hermitian_and_discriminant(ws, rng)
    assert all(cert.checks.values()), cert.checks
    assert cert.root is not None
    assert cert.root * cert.root == cert.det_psi


def test_discriminant_certificate_sampled_pairs():
    rng = random.Random(5)
    done = 0
    while done < 3:
        w, h = random_weil_pair(rng, n_max=6, k_max=6)
        ws = weil_structure(w, h)
        if ws.d == 0:
            continue
        try:
            cert = hermitian_and_discriminant(ws, rng)
        except SearchExhausted:
            continue
        assert all(cert.checks.values()), (w, h, cert.checks)
        done += 1


def test_spin_wh_commutant():
    rng = random.Random(21)
    ws = weil_structure(S3, H_CANON)
    actions = wh_stabilizer_v_actions(3, (1, 0, 0, 0, 0, 1), 6, rng)
    assert all(spin_wh_commutant_check(actions, ws))
    # negative control: a generator moving h fails the preservation
    bad = sl4_generator(random_sl4(random.Random(1), length=4), 3).v_matrix()
    results = spin_wh_commutant_check([bad], ws)
    assert results == [False]


def test_j_commutes_with_theta_prime_when_orthogonal():
    ws = weil_structure(S3, H_CANON)
    u1 = mukai_triple(0, (0, 1, 0, 0, -1, 0), 0)
    u2 = mukai_triple(0, (0, 0, 1, 1, 0, 0), 0)
    j = j_ell(u1, u2)
    assert j.num @ ws.theta_prime == ws.theta_prime @ j.num


def test_anticommute_rejects_degenerate_input():
    rng = random.Random(3)
    h, h_prime, f = find_orthogonal_square_vectors([S3], (-2, -2, -2), rng)
    with pytest.raises(ValueError):
        anticommute_check(S3, h, h, f)  # repeated period plane


def test_theta_equivariance_under_stabilizer():
    # for g fixing w, the polarization transforms by conjugation:
    # theta'_{g(h)} = P theta'_h P^-1 with P the rank-8 action
    from kummer_spin.stabilizer import sample_generators

    rng = random.Random(31)
    w = S3
    gens = [g for g in sample_generators(3, 8, rng)
            if g.kind in ("sl4", "pair_reflection")]
    from kummer_spin.clifford import splus_lattice
    from kummer_spin.lattice import orthogonal_complement_basis

    basis7 = orthogonal_complement_basis(splus_lattice(), [w])
    for g in gens:
        p = g.v_matrix()
        splus8 = g.splus_matrix()
        for _ in range(3):
            coeffs = [rng.randint(-2, 2) for _ in range(7)]
            h = tuple(sum(c * b[i] for c, b in zip(coeffs, basis7))
                      for i in range(8))
            if splus_pairing(h, h) >= 0:
                continue
            ws = weil_structure(w, h)
            gh = splus8.apply(h)
            ws_g = weil_structure(w, gh)
            assert ws_g.theta_prime @ p == p @ ws.theta_prime


def test_hermitian_nondegenerate():
    ws = weil_structure(S3, H_CANON)
    # real and imaginary parts both nondegenerate 8x8 realizations
    assert (ws.theta_form.det()) != 0
    from kummer_spin.clifford import V_GRAM

    assert V_GRAM.det() != 0


def test_random_weil_pair_is_bounded():
    # no primitive negative class has n = -w^2/2 <= 0
    with pytest.raises(SearchExhausted):
        random_weil_pair(random.Random(0), n_max=0)


def _loop_random_weil_pair(rng, n_max=None, k_max=None):
    # the nested hand-written loops that random_weil_pair replaced
    for _ in range(1000):
        w = tuple(rng.randint(-2, 2) for _ in range(8))
        if not any(w):
            continue
        g = gcd(*w)
        w = tuple(x // g for x in w)
        ww = splus_pairing(w, w)
        if ww >= 0:
            continue
        n = -ww // 2
        if n_max is not None and n > n_max:
            continue
        basis = orthogonal_complement_basis(SPLUS, [w])
        for _ in range(200):
            c = tuple(rng.randint(-2, 2) for _ in range(len(basis)))
            if not any(c):
                continue
            h = tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(8))
            g = gcd(*h)
            h = tuple(x // g for x in h)
            hh = splus_pairing(h, h)
            if hh >= 0:
                continue
            k = -hh // 2
            if k_max is not None and k > k_max:
                continue
            return w, h
    raise SearchExhausted("no admissible pair in 1000 draws")


def _loop_pick_pair(plane_a, plane_b, ws):
    # the hand-written loop that weil._pick_pair replaced
    p, q = plane_a
    candidates = [p, q, tuple(x + y for x, y in zip(p, q)),
                  tuple(x - y for x, y in zip(p, q)),
                  tuple(x + 2 * y for x, y in zip(p, q))]
    for cand in candidates:
        a = primitive_vector(cand)
        try:
            b = weil_mod._orthogonal_partner(a, plane_b, ws.theta_prime)
        except SearchExhausted:
            continue
        if v_pairing(a, b) != 0:
            return a, b
    raise SearchExhausted("no nondegenerate pair in the plane product")


def _outcome(search, *args):
    """The value of a search, or None when it runs out."""
    try:
        return search(*args)
    except SearchExhausted:
        return None


def test_random_weil_pair_draws_as_the_loops_did():
    # n_max = 0 runs out on w; n_max = 1, k_max = 0 runs out on every
    # inner search for h, which counts as a rejected w
    for n_max, k_max, seeds in ((None, None, range(12)), (6, 6, range(12)),
                                (None, 6, range(4)), (6, None, range(4)),
                                (0, None, range(2)), (1, 0, range(1))):
        for seed in seeds:
            rng_old, rng_new = random.Random(seed), random.Random(seed)
            old = _outcome(_loop_random_weil_pair, rng_old, n_max, k_max)
            assert _outcome(random_weil_pair, rng_new, n_max, k_max) == old
            assert rng_new.getstate() == rng_old.getstate()
            assert (old is None) == (n_max in (0, 1))


def test_pick_pair_matches_the_loop(monkeypatch):
    calls = []
    pick = weil_mod._pick_pair

    def recording(plane_a, plane_b, ws):
        calls.append((plane_a, plane_b, ws))
        return pick(plane_a, plane_b, ws)

    monkeypatch.setattr(weil_mod, "_pick_pair", recording)
    for seed in range(3):
        rng = random.Random(seed)
        hermitian_and_discriminant(
            weil_structure(*random_weil_pair(rng, n_max=6, k_max=6)), rng)
    # random planes; planes whose every partner is zero (plane_a lies in
    # the V-orthogonal of theta'(plane_b)); planes with one such vector;
    # and planes (p, q) where p has a partner b with (p, b) = 0 and q has
    # none, so that only the third candidate p + q is accepted
    rng = random.Random(7)
    ws = calls[0][2]
    for _ in range(20):
        plane_b = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(2)]
        plane_a = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(2)]
        rows = [V_GRAM.apply(ws.theta_prime.apply(v)) for v in plane_b]
        no_partner = IntMatrix(rows).kernel()
        r, s = plane_b
        p = next(v for v in IntMatrix([rows[0], V_GRAM.apply(r)]).kernel()
                 if v_pairing(v, ws.theta_prime.apply(s)))
        q = next(v for v in no_partner if v_pairing(v, r))
        calls += [(plane_a, plane_b, ws), (no_partner[:2], plane_b, ws),
                  ((no_partner[0], plane_a[0]), plane_b, ws),
                  ((p, q), plane_b, ws)]
    outcomes = [_outcome(_loop_pick_pair, *call) for call in calls]
    assert [_outcome(pick, *call) for call in calls] == outcomes
    assert outcomes.count(None) == 20


def test_suite_weil_builds_from_s_n(monkeypatch):
    # the report shows no n (its bytes are alike for n = 3, 4, 5), so
    # check on the calls that suite_weil(n=k) works from s_n(k)
    from kummer_spin import stabilizer, suites

    calls = []

    def recorder(name, fn):
        def wrapped(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(weil_mod, "weil_structure",
                        recorder("weil_structure", weil_mod.weil_structure))
    monkeypatch.setattr(stabilizer, "wh_stabilizer_v_actions", recorder(
        "wh_stabilizer_v_actions", stabilizer.wh_stabilizer_v_actions))
    for k in (3, 4, 5):
        calls.clear()
        assert suites.suite_weil(n=k).ok
        assert calls[0] == ("weil_structure", (stabilizer.s_n(k), H_CANON))
        (actions,) = [args for name, args in calls
                      if name == "wh_stabilizer_v_actions"]
        assert actions[:3] == (k, H_CANON[1:7], 5)


def _cube_walk(basis, max_bound):
    """(c, c^T G c) in the order of the cube walk that _square_candidates
    made before its shell search: for b = 1..max_bound, every c of the
    cube [-b, b]^r with max|c| = b and a positive leading coordinate."""
    gram = [[splus_pairing(u, v) for v in basis] for u in basis]
    r = len(basis)
    for b in range(1, max_bound + 1):
        for c in product(range(-b, b + 1), repeat=r):
            if not any(c) or max(abs(x) for x in c) != b:
                continue
            if next(x for x in c if x) < 0:
                continue
            yield c, sum(c[i] * gram[i][j] * c[j]
                         for i in range(r) for j in range(r))


def _reference_candidates(walk, basis, target, limit):
    hits = [c for c, square in walk if square == target][:limit]
    return [tuple(sum(x * v[i] for x, v in zip(c, basis)) for i in range(8))
            for c in hits]


def _unit(i):
    return tuple(int(i == j) for j in range(8))


def test_square_candidates_match_cube_walk():
    rng = random.Random(1401)
    bases = []
    for k in range(5):
        constraints = [tuple(rng.randint(-2, 2) for _ in range(8))
                       for _ in range(k)]
        bases.append(orthogonal_complement_basis(SPLUS, constraints)
                     if constraints else [_unit(i) for i in range(8)])
    # e_0 pairs only with e_7: the last Gram diagonal is 0 (linear case)
    bases.append([_unit(3), _unit(4), _unit(7), _unit(0)])
    bases.append([(0, 1, 0, 0, 0, 0, 1, 0)])  # rank 1, square -2
    bases.append([_unit(0)])  # rank 1, isotropic
    assert [len(b) for b in bases] == [8, 7, 6, 5, 4, 4, 1, 1]
    cut = found = 0
    for basis in bases:
        # the cube walk is (2b+1)^r: keep the reference cheap on wide bases
        max_bound = {8: 1, 7: 2}.get(len(basis), 3)
        walk = list(_cube_walk(basis, max_bound))
        for target in (2, -2, 4, -4, 0, -6):
            for limit in (1, 12, 10 ** 6):
                got = _square_candidates(basis, target, limit, max_bound)
                assert got == _reference_candidates(walk, basis, target, limit), \
                    (basis, target, limit)
                cut += limit == 12 and len(got) == 12
                found += len(got)
    assert cut > 10 and found > 1000  # the cut-off and the lists are real


def _reference_composite(u1, u2):
    """m_u1 m_u2 on V from classes of ints or Fractions, by rational
    products of the S- -> V block of u1 and the V -> S- block of u2."""
    def block(u, rows, cols):
        m = multiplication_operator(ax_element(s_plus=[Fraction(x) for x in u]))
        return RatMatrix([[m[i, j] for j in cols] for i in rows])

    v, sminus = range(8), range(8, 16)
    return block(u1, v, sminus) @ block(u2, sminus, v)


def _reference_j(u1, u2):
    """J of a pair of -2 classes, with J^2 = -1 checked."""
    j = _reference_composite(u1, u2)
    assert j @ j == RatMatrix.identity(8).scale(-1)
    return j


def _reference_kahler(ws, j):
    """The Gram J^T Theta and its sign from rational leading minors, for J
    the rational matrix of _reference_j."""
    g = j.transpose() @ ws.theta_form.to_rat()
    assert g.transpose() == g
    for sign in (1, -1):
        if all(RatMatrix([row[:k] for row in g.scale(sign).data[:k]]).det() > 0
               for k in range(1, 9)):
            return g, sign
    return g, 0


def test_kahler_metric_and_j_match_rational_oracle():
    # one pair with denominators: u1 = (0, 1/2, 0, 0, 0, 0, 2, 0)
    triples = [((1, 0, 0, 0, 0, 0, 0, -3), (0, 0, 1, 0, 0, -1, 0, 0),
                (0, Fraction(1, 2), 0, 0, 0, 0, 2, 0), (0, 0, 0, 1, 1, 0, 0, 0))]
    rng = random.Random(1402)
    while len(triples) < 7:
        w, h = random_weil_pair(rng, n_max=6, k_max=6)
        if weil_structure(w, h).d == 0:
            continue
        try:
            u1, u2 = find_orthogonal_square_vectors([w, h], (-2, -2), rng)
        except SearchExhausted:
            continue
        triples.append((w, h, u1, u2))
    signs = set()
    for w, h, u1, u2 in triples:
        ws = weil_structure(w, h)
        for a, b in ((u1, u2), (u2, u1)):
            j = j_ell(a, b)
            reference = _reference_j(a, b)
            assert j.den > 0
            assert j.num == reference.scale(j.den)
            g, sign = kahler_metric(ws, j)
            g_ref, sign_ref = _reference_kahler(ws, reference)
            assert (g, sign) == (g_ref.scale(j.den), sign_ref)
            signs.add(sign)
    assert signs == {1, -1}


def test_theta_prime_and_j_are_one_composite():
    # theta' = m_w m_h and den * J = m_p1 m_p2 on the cleared numerators,
    # on seeded pairs and on the pair with denominators
    rng = random.Random(1403)
    pairs = [(S3, H_CANON)] + [random_weil_pair(rng, n_max=6, k_max=6)
                               for _ in range(6)]
    for w, h in pairs:
        composite = weil_mod._composite(w, h)
        assert composite == _reference_composite(w, h)
        assert weil_structure(w, h).theta_prime == composite
    planes = [((0, Fraction(1, 2), 0, 0, 0, 0, 2, 0), (0, 0, 0, 1, 1, 0, 0, 0))]
    while len(planes) < 6:
        w, h = random_weil_pair(rng, n_max=6, k_max=6)
        try:
            planes.append(find_orthogonal_square_vectors([w, h], (-2, -2), rng))
        except SearchExhausted:
            continue
    for u1, u2 in planes:
        (p1, q1), (p2, q2) = map(clear_denominators, (u1, u2))
        j = j_ell(u1, u2)
        assert j.num == weil_mod._composite(p1, p2)
        assert j.den == q1 * q2
    assert j_ell(*planes[0]).den == 2
    with pytest.raises(ValueError, match="must be orthogonal"):
        weil_mod._composite(S3, mukai_triple(1, [0] * 6, 1))


def test_isotropic_plane_of_a_non_isotropic_class_is_a_fault():
    # a class of square 2 has no kernel: a structural fault, not a draw
    # to reject
    z = (0, 1, 0, 0, 0, 0, -1, 0)
    assert splus_pairing(z, z) == 2
    with pytest.raises(ValueError, match="4-dimensional"):
        weil_mod._isotropic_plane(z)


def test_intersection_of_wrong_dimension_is_not_a_rejected_draw(monkeypatch):
    # a 3-dimensional intersection ends the run with the ValueError
    # instead of being retried and reported as an exhausted search
    from kummer_spin import cli

    def three_rows(space_a, space_b):
        return [tuple(int(i == k) for i in range(8)) for k in range(3)]

    monkeypatch.setattr(weil_mod, "_intersect", three_rows)
    with pytest.raises(ValueError, match="2-dimensional"):
        cli.main(["verify", "discriminant"])


def test_kahler_metric_rejects_plane_not_orthogonal_to_classes():
    ws = weil_structure(S3, H_CANON)
    u2 = mukai_triple(0, (0, 1, 0, 0, -1, 0), 0)
    j = j_ell(H_CANON, u2)  # a valid structure whose plane contains h
    with pytest.raises(ValueError, match="orthogonal to both classes"):
        kahler_metric(ws, j)


def test_kahler_metric_rejects_indefinite_numerator():
    ws = weil_structure(S3, H_CANON)
    u1 = mukai_triple(0, (0, 1, 0, 0, -1, 0), 0)
    u2 = mukai_triple(0, (0, 0, 1, 1, 0, 0), 0)
    kahler_metric(ws, j_ell(u1, u2))  # the plane itself is admissible
    # num = theta' gives num^T Theta = (theta'^2)^T V_GRAM = -3 V_GRAM:
    # symmetric, of signature (4, 4)
    stand_in = SimpleNamespace(u1=u1, u2=u2, num=ws.theta_prime, den=1)
    with pytest.raises(ValueError, match="indefinite"):
        kahler_metric(ws, stand_in)
