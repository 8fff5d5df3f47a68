"""The 24-dimensional algebra, its multiplication, and the order-3 symmetry."""

import random

import pytest

from kummer_spin.clifford import (
    SMINUS_MASKS,
    SPLUS_MASKS,
    clifford_embed,
    degree,
    mukai_triple,
    splus_pairing,
    v_pairing,
)
from kummer_spin import fm
from kummer_spin.exact import IntMatrix
from kummer_spin.triality import (
    AX_GRAM,
    AXAutomorphism,
    alpha_tilde_element,
    ax_element,
    ax_product,
    build_j,
    m_tilde,
    m_tilde_pair,
    minus_one,
    mu_tilde,
    multiplication_operator,
    outer_j,
    splus_block,
    tau_tilde,
)

SN3 = mukai_triple(1, [0] * 6, -3)


def unit24(j):
    return tuple(int(i == j) for i in range(24))


def v_block(a):
    return a[0:8]


def sminus_block(a):
    return a[8:16]


def embed(masks, v8):
    out = [0] * 16
    for m, x in zip(masks, v8):
        out[m] = x
    return tuple(out)


def coords(masks, spinor):
    # the coordinates on masks of a spinor supported there
    if any(spinor[m] for m in range(16) if m not in masks):
        raise ValueError("spinor has entries off the given masks")
    return tuple(spinor[m] for m in masks)


def test_same_summand_products_vanish():
    rng = random.Random(2)
    for lo in (0, 8, 16):
        a = [0] * 24
        b = [0] * 24
        for i in range(8):
            a[lo + i] = rng.randint(-4, 4)
            b[lo + i] = rng.randint(-4, 4)
        assert all(x == 0 for x in ax_product(tuple(a), tuple(b)))


def test_product_is_commutative():
    rng = random.Random(4)
    for _ in range(30):
        a = tuple(rng.randint(-3, 3) for _ in range(24))
        b = tuple(rng.randint(-3, 3) for _ in range(24))
        assert ax_product(a, b) == ax_product(b, a)


def test_multiplication_by_s_n_on_v():
    # s_n . (w, theta) lands in S- as w + n PD^-1(theta): for theta = e_j*
    # the H^3 part is -n D_{e_j*}([pt])
    n = 3
    a = ax_element(s_plus=SN3)
    w = ax_element(v=(0, 1, 0, 0, 0, 0, 0, 0))  # e2
    out = ax_product(a, w)
    assert v_block(out) == (0,) * 8 and splus_block(out) == (0,) * 8
    assert sminus_block(out) == (0, 1, 0, 0, 0, 0, 0, 0)
    theta = ax_element(v=(0, 0, 0, 0, 1, 0, 0, 0))  # e1*
    out = ax_product(a, theta)
    # D_{e1*}(pt) = e2^e3^e4 (mask 14, S- coordinate index 7)
    assert sminus_block(out) == (0, 0, 0, 0, 0, 0, 0, -n)


def test_multiplication_by_s_n_on_s_minus_is_adjoint():
    # s_n . (w, beta) = (-n w, -PD(beta)) in V
    n = 3
    a = ax_element(s_plus=SN3)
    for j in range(4):
        w = [0] * 8
        w[j] = 1
        out = ax_product(a, ax_element(s_minus=tuple(w)))
        expected = [0] * 8
        expected[j] = -n
        assert v_block(out) == tuple(expected)
    # beta = e2^e3^e4 = PD-dual pairing -(PD beta) = theta with sign
    beta = (0, 0, 0, 0, 0, 0, 0, 1)  # H^3 coordinate e2^e3^e4
    out = ax_product(a, ax_element(s_minus=beta))
    vb = v_block(out)
    assert vb[0:4] == (0, 0, 0, 0)
    # PD(e2e3e4) = sum_x int e2e3e4^x: nonzero only against e1 with sign -1
    assert vb[4:8] == (1, 0, 0, 0)
    # adjointness on random pairs: (x . s_n, t)_{S-} = (x, s_n . t)_V
    rng = random.Random(9)
    from kummer_spin.clifford import SMINUS_GRAM

    for _ in range(50):
        x = tuple(rng.randint(-3, 3) for _ in range(8))
        t = tuple(rng.randint(-3, 3) for _ in range(8))
        left_elt = ax_product(ax_element(s_plus=SN3), ax_element(v=x))
        left = sum(a_ * b_ for a_, b_ in
                   zip(SMINUS_GRAM.apply(sminus_block(left_elt)), t))
        right_elt = ax_product(ax_element(s_plus=SN3), ax_element(s_minus=t))
        right = v_pairing(x, v_block(right_elt))
        assert left == right


def test_anticommutator_law_on_v_plus_sminus():
    rng = random.Random(13)
    for _ in range(100):
        y1 = tuple(rng.randint(-3, 3) for _ in range(8))
        y2 = tuple(rng.randint(-3, 3) for _ in range(8))
        m1 = multiplication_operator(ax_element(s_plus=y1))
        m2 = multiplication_operator(ax_element(s_plus=y2))
        anti = m1 @ m2 + m2 @ m1
        pairing = splus_pairing(y1, y2)
        for i in range(16):
            for j in range(16):
                expected = pairing if i == j else 0
                assert anti[i, j] == expected
        # m_y^2 = Q(y) id on V + S-
        sq = m1 @ m1
        q = splus_pairing(y1, y1) // 2
        for i in range(16):
            for j in range(16):
                assert sq[i, j] == (q if i == j else 0)


def test_mu_tilde_of_minus_one_and_alpha_tilde():
    assert mu_tilde(IntMatrix.identity(16).scale(-1)) == minus_one()
    at = alpha_tilde_element()
    assert at == IntMatrix.diagonal([(-1) ** degree(m) for m in range(16)])
    mat = mu_tilde(at).matrix
    for i in range(8):
        assert mat[i, i] == -1          # -1 on V
        assert mat[8 + i, 8 + i] == -1  # -1 on S-
        assert mat[16 + i, 16 + i] == 1  # identity on S+
    assert sum(abs(mat[i, j]) for i in range(24) for j in range(24)) == 24


def test_mu_tilde_spin_element_is_algebra_automorphism():
    v = (1, 0, 0, 0, -1, 0, 0, 0)   # Q = -1
    w = (0, 1, 0, 0, 0, -1, 0, 0)   # Q = -1
    g = clifford_embed(v) @ clifford_embed(w)
    aut = mu_tilde(g)
    assert aut.is_algebra_automorphism()
    assert aut.is_isometry()
    assert aut.block_permutation() == {"V": "V", "S-": "S-", "S+": "S+"}


def test_build_j_order_three_isometry_automorphism():
    j = build_j()
    j3 = j @ j @ j
    assert j3.matrix.is_identity()
    assert j.is_isometry()
    assert j.is_algebra_automorphism()
    assert j.block_permutation() == {"V": "S+", "S+": "S-", "S-": "V"}


def test_j_conjugation_identity_on_v_basis():
    # multiplication by J(x) equals J . (mult by x) . J^-1, basis x in V
    j = build_j()
    jinv = j.inverse()
    for k in range(8):
        x = ax_element(v=tuple(int(i == k) for i in range(8)))
        lhs = multiplication_operator(tuple(j.apply(x)))
        rhs = j.matrix.to_rat() @ multiplication_operator(x).to_rat() @ jinv.matrix.to_rat()
        assert lhs.to_rat() == rhs


def test_inverse_matches_rational_elimination():
    rng = random.Random(71)
    bundles = [fm.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
               for _ in range(5)]
    cases = ([build_j(), fm.transform_ax()]
             + [fm.phi_f_ax(b) for b in bundles]
             + [tau_tilde(), m_tilde_pair(mukai_triple(1, [0] * 6, 1),
                                          mukai_triple(1, [0] * 6, -1))])
    for a in cases:
        inv = a.inverse()
        assert inv.matrix == a.matrix.to_rat().inverse().to_int()
        assert (a @ inv).matrix.is_identity()


def test_inverse_rejects_non_adjoint_matrix():
    with pytest.raises(ValueError):
        AXAutomorphism(IntMatrix.diagonal([2] + [1] * 23)).inverse()


def test_ax_element_rejects_short_block():
    with pytest.raises(ValueError):
        ax_element(v=(0,) * 7)


def test_outer_j_of_minus_one():
    got = outer_j(IntMatrix.identity(16).scale(-1))
    mat = got.matrix
    for i in range(8):
        assert mat[i, i] == -1           # -1 on V
        assert mat[8 + i, 8 + i] == -1   # -1 on S-
        assert mat[16 + i, 16 + i] == 1  # identity on S+
    assert got.is_isometry()


def test_outer_j_cubes_to_identity():
    rng = random.Random(31)
    j = build_j()
    count = 0
    while count < 20:
        vs = []
        while len(vs) < 2:
            v = tuple(rng.randint(-2, 2) for _ in range(8))
            if v_pairing(v, v) == -2:
                vs.append(v)
        g = clifford_embed(vs[0]) @ clifford_embed(vs[1])
        count += 1
        first = outer_j(g, j)
        assert first.is_isometry()
        # three conjugations return to mu(g)
        jinv = j.inverse()
        conj3 = j @ (j @ (j @ mu_tilde(g) @ jinv) @ jinv) @ jinv
        assert conj3 == mu_tilde(g)


def test_m_tilde_pair_v_restriction():
    s1 = mukai_triple(1, [0] * 6, -1)
    s2 = mukai_triple(1, [0] * 6, 1)
    pair = m_tilde_pair(s2, s1)
    mat = pair.matrix
    for i in range(4):
        assert mat[i, i] == 1
        assert mat[4 + i, 4 + i] == -1
    for i in range(8):
        for j in range(8):
            if i != j:
                assert mat[i, j] == 0
    # S+ action is the composite of the two commuting reflections: (r,H,t) -> (-r,H,-t)
    assert mat[16, 16] == -1 and mat[23, 23] == -1
    for i in range(1, 7):
        assert mat[16 + i, 16 + i] == 1


def test_m_tilde_squares_to_identity():
    s = mukai_triple(1, [0] * 6, 1)
    m = m_tilde(s)
    assert (m @ m).matrix.is_identity()


def test_m_tilde_pair_rejects_bad_squares():
    with pytest.raises(ValueError):
        m_tilde_pair(mukai_triple(1, [0] * 6, -2), mukai_triple(1, [0] * 6, 1))


def test_tau_tilde_grading_action():
    tt = tau_tilde().matrix
    # S+ block: degrees (0, 2...2, 4) -> signs (+, -, ..., -, +)
    assert tt[16, 16] == 1 and tt[23, 23] == 1
    for i in range(1, 7):
        assert tt[16 + i, 16 + i] == -1
    # S- block: degrees (1,1,1,1,3,3,3,3) -> signs (+,+,+,+,-,-,-,-)
    for i in range(4):
        assert tt[8 + i, 8 + i] == 1
        assert tt[12 + i, 12 + i] == -1
    # V block: (w, theta) -> (w, -theta); not the identity
    for i in range(4):
        assert tt[i, i] == 1
        assert tt[4 + i, 4 + i] == -1
    # off-diagonal zero
    assert sum(abs(tt[i, j]) for i in range(24) for j in range(24)) == 24
    # fixes s_n in S+
    sn = ax_element(s_plus=SN3)
    assert tau_tilde().apply(sn) == sn


def test_m_tilde_pair_isometry_flags():
    # t = (1, A, 3) has square 2n - int(A^2) = 6 - 4 = 2 for int(A^2) = 4
    plus_pair = m_tilde_pair(mukai_triple(1, (1, 0, 0, 0, 0, 2), 3),
                             mukai_triple(1, (2, 0, 0, 0, 0, 1), 3))
    # both squares +2: Spin case, isometry of the full algebra
    assert plus_pair.is_isometry()
    assert plus_pair.is_algebra_automorphism()
    mixed = m_tilde_pair(mukai_triple(1, [0] * 6, 1), mukai_triple(1, [0] * 6, -1))
    # mixed signs reverse the V + S- pairing: not an isometry of the algebra
    assert not mixed.is_isometry()


def test_j_stability_of_spin_image():
    rng = random.Random(47)
    j = build_j()
    for _ in range(5):
        vs = []
        while len(vs) < 4:
            v = tuple(rng.randint(-2, 2) for _ in range(8))
            if v_pairing(v, v) == 2:
                vs.append(v)
        g = clifford_embed(vs[0]) @ clifford_embed(vs[1]) \
            @ clifford_embed(vs[2]) @ clifford_embed(vs[3])
        conj = j.inverse() @ mu_tilde(g) @ j
        assert conj.block_permutation() == {"V": "V", "S-": "S-", "S+": "S+"}


def test_mixed_pair_squares_to_identity():
    # orthogonal classes of squares +2 and -2: the multiplication
    # anticommutator vanishes and the pair element is an involution
    s1 = mukai_triple(1, [0] * 6, 1)    # square +2
    s2 = mukai_triple(1, [0] * 6, -1)   # square -2
    assert splus_pairing(s1, s2) == 0
    m1 = multiplication_operator(ax_element(s_plus=s1))
    m2 = multiplication_operator(ax_element(s_plus=s2))
    assert (m1 @ m2 + m2 @ m1).is_zero()
    pair = m_tilde_pair(s1, s2)
    assert (pair @ pair).matrix.is_identity()


def test_ax_automorphism_json():
    j = build_j()
    body = j.to_json()
    assert body["isometry"] is True
    assert body["algebra_automorphism"] is True
    assert body["block_permutation"] == {"V": "S+", "S+": "S-", "S-": "V"}
    assert len(body["matrix"]) == 24 and len(body["matrix"][0]) == 24


def test_adjoint_inverse_relation_for_mixed_pair():
    # the composite with swapped factors is minus the inverse of the
    # original composite (and equals minus the original, by anticommuting)
    s1 = mukai_triple(1, [0] * 6, -1)
    s2 = mukai_triple(1, [0] * 6, 1)
    m1 = multiplication_operator(ax_element(s_plus=s1))
    m2 = multiplication_operator(ax_element(s_plus=s2))
    comp12 = IntMatrix([[  # V block of m_{s1} o m_{s2}
        (m1 @ m2)[i, j] for j in range(8)] for i in range(8)])
    comp21 = IntMatrix([[(m2 @ m1)[i, j] for j in range(8)] for i in range(8)])
    inv21 = comp21.to_rat().inverse()
    assert comp12.to_rat() == inv21.scale(-1)
    assert comp12 == comp21.scale(-1)


def test_product_twist_values():
    # spin elements preserve the product fully; the grading-involution
    # composite with a mixed pair twists exactly the V x S- component
    j = build_j()
    assert j.product_twist() == 1
    assert tau_tilde().product_twist() == -1
    mixed = m_tilde_pair(mukai_triple(1, [0] * 6, 1),
                         mukai_triple(1, [0] * 6, -1))
    assert mixed.product_twist() == -1


def _reference_ax_product(a, b):
    """The product by its definition: Clifford action of V on the spinor
    halves, and S+ x S- -> V through (result, x)_V = (x . sp, sm)_S."""
    from kummer_spin.clifford import act_vector, pairing_s, splus_embed

    def splus_times_sminus(sp, sm):
        phi = [pairing_s(act_vector(unit24(k)[:8], splus_embed(sp)),
                         embed(SMINUS_MASKS, sm)) for k in range(8)]
        return phi[4:8] + phi[0:4]  # G^-1 for the hyperbolic V-Gram

    av, am, ap = v_block(a), sminus_block(a), splus_block(a)
    bv, bm, bp = v_block(b), sminus_block(b), splus_block(b)
    minus = [x + y for x, y in zip(
        coords(SMINUS_MASKS, act_vector(av, splus_embed(bp))),
        coords(SMINUS_MASKS, act_vector(bv, splus_embed(ap))))]
    plus = [x + y for x, y in zip(
        coords(SPLUS_MASKS, act_vector(av, embed(SMINUS_MASKS, bm))),
        coords(SPLUS_MASKS, act_vector(bv, embed(SMINUS_MASKS, am))))]
    vec = [x + y for x, y in zip(splus_times_sminus(ap, bm),
                                 splus_times_sminus(bp, am))]
    return tuple(vec + minus + plus)


def test_product_table_shape():
    from kummer_spin.triality import PRODUCT_TABLE

    assert len(PRODUCT_TABLE) == 192
    assert len({(i, j) for i, j, _k, _s in PRODUCT_TABLE}) == 192
    assert all(s in (1, -1) for *_ijk, s in PRODUCT_TABLE)


def test_ax_product_matches_definition():
    for i in range(24):
        for j in range(24):
            assert ax_product(unit24(i), unit24(j)) \
                == _reference_ax_product(unit24(i), unit24(j))
    rng = random.Random(191)
    for _ in range(200):
        a = tuple(rng.randint(-4, 4) for _ in range(24))
        b = tuple(rng.randint(-4, 4) for _ in range(24))
        assert ax_product(a, b) == _reference_ax_product(a, b)
        cols = [_reference_ax_product(a, unit24(j)) for j in range(24)]
        assert multiplication_operator(a) == IntMatrix(list(zip(*cols)))


# --- the block layout: one assembly, multiplication blocks, reflections ----

def _old_ax_rows(v8, s16):
    """The hand-written assembly mu_tilde and transform_ax used to share:
    v8 on V, s16 permuted to SMINUS_MASKS + SPLUS_MASKS on S- + S+."""
    rows = [[0] * 24 for _ in range(24)]
    for i in range(8):
        for j in range(8):
            rows[i][j] = v8[i, j]
    perm = SMINUS_MASKS + SPLUS_MASKS
    for i in range(16):
        for j in range(16):
            rows[8 + i][8 + j] = s16[perm[i], perm[j]]
    return IntMatrix(rows)


def _old_splus_reflection(y):
    """R_y on S+ from the pairing, for (y, y) = +-2."""
    yy = splus_pairing(y, y)
    if yy not in (2, -2):
        raise ValueError("S+ reflection needs square +-2, got %s" % (yy,))
    cols = []
    for j in range(8):
        e = tuple(int(i == j) for i in range(8))
        coef = 2 * splus_pairing(e, y) // yy
        cols.append(tuple(e[i] - coef * y[i] for i in range(8)))
    return IntMatrix(list(zip(*cols)))


def _old_m_tilde(y):
    mult = multiplication_operator(ax_element(s_plus=y))
    refl = _old_splus_reflection(y)
    rows = [list(row) for row in mult.data]
    for i in range(8):
        for j in range(8):
            rows[16 + i][16 + j] = -refl[i, j]
    return IntMatrix(rows)


def _square_two_classes(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        y = tuple(rng.randint(-2, 2) for _ in range(8))
        if splus_pairing(y, y) in (2, -2):
            out.append(y)
    return out


def test_layout_constants_and_gram():
    from kummer_spin.clifford import SMINUS_GRAM, SPLUS_GRAM, V_GRAM
    from kummer_spin.triality import S_MINUS, S_PLUS, V

    assert (V, S_MINUS, S_PLUS) == (0, 8, 16)
    for lo, gram in ((V, V_GRAM), (S_MINUS, SMINUS_GRAM), (S_PLUS, SPLUS_GRAM)):
        assert AX_GRAM.block(lo, lo, 8, 8) == gram
        for other in {V, S_MINUS, S_PLUS} - {lo}:
            assert AX_GRAM.block(lo, other, 8, 8).is_zero()
    assert splus_block(tuple(range(24))) == tuple(range(16, 24))


def test_ax_matrix_matches_hand_assembly():
    from kummer_spin.clifford import group_flags, wedge_matrix
    from kummer_spin.triality import ax_matrix

    rng = random.Random(17)
    for _ in range(10):
        v8 = IntMatrix([[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)])
        s16 = IntMatrix([[rng.randint(-3, 3) for _ in range(16)]
                         for _ in range(16)])
        assert ax_matrix(v8, s16).matrix == _old_ax_rows(v8, s16)
    # mu_tilde on Spin elements: a vector product and tensorizations
    x = clifford_embed((1, 0, 0, 0, 1, 0, 0, 0)) \
        @ clifford_embed((0, 1, 0, 0, 0, 1, 0, 0))
    elements = [x, alpha_tilde_element(), IntMatrix.identity(16).scale(-1)]
    for _ in range(5):
        bundle = fm.LineBundleClass(tuple(rng.randint(-2, 2) for _ in range(6)))
        elements.append(wedge_matrix(bundle.chern_character()))
    for x in elements:
        flags = group_flags(x)
        assert mu_tilde(x, flags).matrix == _old_ax_rows(flags.rho, x)
    assert fm.transform_ax().matrix == _old_ax_rows(
        fm.varphi_matrix(), fm.transform_matrix())


def test_multiplication_block_is_a_slice_of_the_operator():
    from kummer_spin.triality import S_MINUS, S_PLUS, V, multiplication_block

    rng = random.Random(23)
    for _ in range(20):
        y = tuple(rng.randint(-3, 3) for _ in range(8))
        full = multiplication_operator(ax_element(s_plus=y)).data
        for i in (V, S_MINUS, S_PLUS):
            for j in (V, S_MINUS, S_PLUS):
                got = multiplication_block(y, i, j)
                assert got.data == tuple(row[j:j + 8] for row in full[i:i + 8])


def test_lattice_reflection_matches_splus_formula():
    from kummer_spin.lattice import reflection
    from kummer_spin.triality import SPLUS_LATTICE

    for y in _square_two_classes(29, 50):
        assert reflection(SPLUS_LATTICE, y).matrix == _old_splus_reflection(y)
        assert m_tilde(y).matrix == _old_m_tilde(y)
    four = mukai_triple(1, (1, 0, 0, 0, 0, 0), 2)
    assert splus_pairing(four, four) == 4
    with pytest.raises(ValueError):
        reflection(SPLUS_LATTICE, four)
    with pytest.raises(ValueError):
        m_tilde(four)


def test_one_splus_lattice_instance():
    from kummer_spin import lattice, stabilizer, triality, weil

    assert weil.SPLUS is stabilizer.SPLUS_LATTICE is triality.SPLUS_LATTICE
    assert weil.SearchExhausted is stabilizer.SearchExhausted \
        is lattice.SearchExhausted


def _old_product_twist(aut):
    """The product twist by 300 ax_product pairs on unit vectors."""
    images = [aut.matrix.column(j) for j in range(24)]
    twist = None
    for i in range(24):
        for j in range(i, 24):
            left = tuple(aut.apply(ax_product(unit24(i), unit24(j))))
            right = tuple(ax_product(images[i], images[j]))
            if not any(left) and not any(right):
                continue
            if left == right:
                eps = 1
            elif left == tuple(-x for x in right):
                eps = -1
            else:
                return None
            if {i // 8, j // 8} == {0, 1}:
                if twist is None:
                    twist = eps
                elif twist != eps:
                    return None
            elif eps != 1:
                return None
    return 1 if twist is None else twist


def test_product_twist_matches_unit_vector_loop():
    from kummer_spin import stabilizer

    plus, minus = mukai_triple(1, [0] * 6, 1), mukai_triple(1, [0] * 6, -1)
    auts = [build_j(), tau_tilde(), fm.transform_ax(), m_tilde_pair(plus, minus),
            m_tilde_pair(plus, plus), minus_one()]
    auts += [g.ax for g in stabilizer.sample_generators(
        3, 10, random.Random("twist"))]
    j = build_j().matrix
    for r, c in ((0, 0), (3, 17), (12, 5), (20, 20)):
        rows = [list(row) for row in j.data]
        rows[r][c] = -rows[r][c] if rows[r][c] else 1
        auts.append(AXAutomorphism(rows))
    # flip the sign of the whole S- block: the V x S- component twists
    auts.append(AXAutomorphism(
        IntMatrix.diagonal((1,) * 8 + (-1,) * 8 + (1,) * 8) @ j))
    seen = set()
    for aut in auts:
        got = AXAutomorphism(aut.matrix)._product_twist()
        assert got == _old_product_twist(aut)
        seen.add(got)
    assert seen == {1, -1, None}
