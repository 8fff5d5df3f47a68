"""Clifford algebra on the rank-16 spinor module: relations, monomials,
tau/alpha, group membership, spinor pairing."""

import random

import pytest

from kummer_spin.clifford import (
    ALL,
    GEN_MATRICES,
    NotInCliffordGroup,
    act_vector,
    alpha,
    clifford_embed,
    degree,
    group_flags,
    monomial_decompose,
    monomial_matrix,
    monomial_rank,
    monomial_recompose,
    mukai_triple,
    SMINUS_GRAM,
    pairing_s,
    splus_embed,
    splus_lattice,
    splus_pairing,
    tau,
    tau_degree_sign,
    v_lattice,
    v_pairing,
    wedge_matrix,
)
from kummer_spin import clifford as cl
from kummer_spin.exact import IntMatrix
from kummer_spin.lattice import IntLattice, reflection
from kummer_spin.suites import suite_clifford


E1 = (1, 0, 0, 0, 0, 0, 0, 0)
E1S = (0, 0, 0, 0, 1, 0, 0, 0)


def basis_vector(k):
    return tuple(int(i == k) for i in range(8))


def test_act_vector_wedge_and_contract():
    one = tuple(int(m == 0) for m in range(16))
    assert act_vector(E1, one) == tuple(int(m == 1) for m in range(16))
    e12 = tuple(int(m == 0b0011) for m in range(16))
    assert act_vector(E1S, e12) == tuple(int(m == 0b0010) for m in range(16))


def test_contraction_of_point_class():
    pt = tuple(int(m == ALL) for m in range(16))
    out = act_vector(E1S, pt)
    assert out == tuple(int(m == 0b1110) for m in range(16))
    # PD(e2^e3^e4) pairs to -1 against e1 (and 0 against e2,e3,e4)
    for j in range(4):
        ej = tuple(int(m == 1 << j) for m in range(16))
        integral = sum(
            out[a] * ej[ALL ^ a] * _merge(a, ALL ^ a) for a in range(16)
        )
        assert integral == (-1 if j == 0 else 0)


def _merge(a, b):
    from kummer_spin.clifford import merge_sign

    return merge_sign(a, b)


def test_clifford_relation_all_basis_pairs():
    for i in range(8):
        for j in range(8):
            vi, vj = basis_vector(i), basis_vector(j)
            anti = GEN_MATRICES[i] @ GEN_MATRICES[j] + GEN_MATRICES[j] @ GEN_MATRICES[i]
            expected = IntMatrix.identity(16).scale(v_pairing(vi, vj))
            assert anti == expected


def test_clifford_relation_random_vectors():
    rng = random.Random(3)
    for _ in range(1000):
        v = tuple(rng.randint(-5, 5) for _ in range(8))
        w = tuple(rng.randint(-5, 5) for _ in range(8))
        mv, mw = clifford_embed(v), clifford_embed(w)
        anti = mv @ mw + mw @ mv
        assert anti == IntMatrix.identity(16).scale(v_pairing(v, w))


def test_isotropic_square_and_unit_square():
    assert (clifford_embed(E1) @ clifford_embed(E1)).is_zero()
    x1 = tuple(a + b for a, b in zip(E1, E1S))
    m = clifford_embed(x1)
    assert (m @ m).is_identity()


def test_monomial_rank_full():
    assert monomial_rank() == 256


def test_monomial_decompose_basics():
    ident = IntMatrix.identity(16)
    coeffs = monomial_decompose(ident)
    assert coeffs[0] == 1 and all(c == 0 for m, c in enumerate(coeffs) if m != 0)
    coeffs = monomial_decompose(GEN_MATRICES[0])
    assert coeffs[1] == 1 and sum(abs(c) for c in coeffs) == 1


def test_monomial_roundtrip_random_products():
    rng = random.Random(17)
    for _ in range(100):
        x = IntMatrix.identity(16)
        for _ in range(5):
            x = x @ GEN_MATRICES[rng.randrange(8)]
        coeffs = monomial_decompose(x)
        assert monomial_recompose(coeffs) == x


def test_tau_on_spinor_subalgebra():
    # the embedding of H^* sends the subset monomial to the product of its
    # wedge generators; tau multiplies degree i by (-1)^(i(i-1)/2)
    for mask in range(16):
        x = monomial_matrix(mask)  # wedge-only monomial
        assert tau(x) == x.scale(tau_degree_sign(degree(mask)))


def test_tau_fixes_vectors_and_antimultiplies():
    rng = random.Random(5)
    for k in range(8):
        assert tau(GEN_MATRICES[k]) == GEN_MATRICES[k]
    m1, m2 = GEN_MATRICES[0], GEN_MATRICES[1]
    assert tau(m1 @ m2) == m2 @ m1
    assert tau(m1 @ m2) == (m1 @ m2).scale(-1)
    for _ in range(100):
        x = clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        y = clifford_embed(tuple(rng.randint(-3, 3) for _ in range(8)))
        assert tau(x @ y) == tau(y) @ tau(x)
        assert tau(tau(x @ y)) == x @ y
        assert alpha(x @ y) == alpha(x) @ alpha(y)
        assert alpha(alpha(x @ y)) == x @ y


@pytest.fixture(scope="module")
def reversed_monomials():
    """Sparse entries of each monomial with its factor order reversed."""
    rev = [IntMatrix.identity(16)]
    for m in range(1, 256):
        high = m.bit_length() - 1
        rev.append(GEN_MATRICES[high] @ rev[m ^ (1 << high)])
    return [[(i, j, r.data[i][j]) for i in range(16) for j in range(16)
             if r.data[i][j]] for r in rev]


def _reference_tau(x, rev):
    """tau by definition: reverse every monomial of x's decomposition."""
    rows = [[0] * 16 for _ in range(16)]
    for m, c in enumerate(monomial_decompose(x)):
        if c:
            for i, j, val in rev[m]:
                rows[i][j] += c * val
    return IntMatrix(rows)


def test_tau_matches_reversed_monomials(reversed_monomials):
    for m in range(256):
        x = monomial_matrix(m)
        assert tau(x) == _reference_tau(x, reversed_monomials)
    rng = random.Random(2024)
    for _ in range(100):
        x = IntMatrix([[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)])
        assert tau(x) == _reference_tau(x, reversed_monomials)


def test_wrong_tau_sign_fails_clifford_suite(monkeypatch):
    signs = list(cl._TAU_SIGN)
    signs[3] = -signs[3]
    monkeypatch.setattr(cl, "_TAU_SIGN", tuple(signs))
    status = {c.name: c.status for c in suite_clifford(seed=0).checks}
    assert status["tau_grading"] == "fail"
    assert status["tau_alpha_laws"] == "fail"


def test_group_flags_vector_cases():
    # v with Q(v) = -1 lies in Pin and -rho(v) is the reflection by v
    vlat = v_lattice()
    v = tuple(a - b for a, b in zip(E1, E1S))  # Q = -1
    flags = group_flags(clifford_embed(v))
    assert flags.in_pin and not flags.in_spin and flags.parity == "odd"
    refl = reflection(vlat, v)
    assert flags.rho.scale(-1) == refl.matrix

    # x1 = e1 + e1*: N = +1, x x* = -1: in G0 but not Pin
    x1 = tuple(a + b for a, b in zip(E1, E1S))
    flags = group_flags(clifford_embed(x1))
    assert flags.norm == 1 and flags.orientation == -1
    assert flags.in_g0 and not flags.in_pin

    # product of two Q = -1 vectors lies in Spin
    w = (0, 1, 0, 0, 0, -1, 0, 0)
    assert v_pairing(w, w) == -2
    prod = clifford_embed(v) @ clifford_embed(w)
    flags = group_flags(prod)
    assert flags.in_spin


def test_group_flags_rejects_non_group_elements():
    x = IntMatrix.identity(16)
    rows = [list(r) for r in x.data]
    rows[0][5] = 1  # breaks V-stabilization but keeps invertibility
    with pytest.raises(NotInCliffordGroup):
        group_flags(IntMatrix(rows))


def test_group_flags_rejects_conjugation_leaving_v():
    # x = 2 + w with w the product of the six orthogonal vectors
    # e_i +- e_i* (i < 3): x x* is a nonzero scalar, but w anticommutes
    # with e_1, so x e_1 x^-1 is not a vector
    w = IntMatrix.identity(16)
    for i in range(3):
        for s in (1, -1):
            v = [0] * 8
            v[i], v[4 + i] = 1, s
            w = w @ clifford_embed(tuple(v))
    with pytest.raises(NotInCliffordGroup, match="does not stabilize V"):
        group_flags(IntMatrix.identity(16).scale(2) + w)


def test_minus_rho_reproduces_reflections():
    vlat = v_lattice()
    rng = random.Random(29)
    found = 0
    while found < 100:
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        if v_pairing(v, v) not in (2, -2):
            continue
        found += 1
        flags = group_flags(clifford_embed(v))
        assert flags.rho.scale(-1) == reflection(vlat, v).matrix


def test_pairing_s_values():
    for n in (1, 3, 5):
        sn = splus_embed(mukai_triple(1, [0] * 6, -n))
        assert pairing_s(sn, sn) == -2 * n
    one = splus_embed(mukai_triple(1, [0] * 6, 0))
    pt = splus_embed(mukai_triple(0, [0] * 6, 1))
    assert pairing_s(one, pt) == 1
    assert pairing_s(pt, one) == 1


def test_pairing_s_isometry_scaling():
    # (v s, v t)_S = Q(v) (s,t)_S
    rng = random.Random(41)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        s = tuple(rng.randint(-4, 4) for _ in range(16))
        t = tuple(rng.randint(-4, 4) for _ in range(16))
        q, rem = divmod(v_pairing(v, v), 2)
        assert rem == 0
        assert pairing_s(act_vector(v, s), act_vector(v, t)) == q * pairing_s(s, t)


def test_even_odd_grams_unimodular_even():
    for lat in (splus_lattice(), IntLattice(SMINUS_GRAM, label="S-")):
        assert abs(lat.gram.det()) == 1
        assert lat.is_even()
    # (s_n, s_n)_{S+} = -2n in the 8-dim coordinates
    sn = mukai_triple(1, [0] * 6, -5)
    assert splus_pairing(sn, sn) == -10


def test_norm_and_ort_multiplicative_on_samples():
    rng = random.Random(99)
    elements = []
    while len(elements) < 40:
        x = IntMatrix.identity(16)
        for _ in range(rng.randint(1, 3)):
            while True:
                v = tuple(rng.randint(-2, 2) for _ in range(8))
                if v_pairing(v, v) in (2, -2):
                    break
            x = x @ clifford_embed(v)
        elements.append(x)
    for _ in range(60):
        a = rng.choice(elements)
        b = rng.choice(elements)
        fa, fb, fab = group_flags(a), group_flags(b), group_flags(a @ b)
        assert fab.norm == fa.norm * fb.norm
        assert fab.orientation == fa.orientation * fb.orientation


def test_v_pairing_example():
    # x = (e1, 0), y = (0, e1*): the hyperbolic pairing gives 1
    x = (1, 0, 0, 0, 0, 0, 0, 0)
    y = (0, 0, 0, 0, 1, 0, 0, 0)
    assert v_pairing(x, y) == 1
    assert v_lattice().pairing(x, y) == 1


def test_json_helpers():
    from kummer_spin.clifford import clifford_to_json, spinor_to_json

    s = splus_embed(mukai_triple(1, [0] * 6, -2))
    assert spinor_to_json(s) == list(s)
    body = clifford_to_json(GEN_MATRICES[0])
    assert len(body) == 16 and len(body[0]) == 16


def test_spin_elements_have_trivial_norm():
    # kernel of the norm character contains the even unit-square products
    rng = random.Random(404)
    for _ in range(20):
        vs = []
        while len(vs) < 2:
            v = tuple(rng.randint(-2, 2) for _ in range(8))
            if v_pairing(v, v) == -2:
                vs.append(v)
        flags = group_flags(clifford_embed(vs[0]) @ clifford_embed(vs[1]))
        assert flags.in_spin and flags.norm == 1


def test_group_flags_rational_inverse_path():
    # 2*Id stabilizes V by conjugation but is not a unit of the integral
    # algebra: x x* = 4, and rho comes from x e_k x* divided exactly by 4
    x = IntMatrix.identity(16).scale(2)
    flags = group_flags(x)
    assert flags.in_g
    assert flags.norm is None and flags.orientation is None
    assert flags.rho == IntMatrix.identity(8)
    assert not flags.in_pin and not flags.in_g0


def _rational_rho(x):
    """rho(x) by rational conjugation: column k is x e_k x^-1 read in V,
    with x^-1 = inv / den for an integer matrix inv."""
    from fractions import Fraction
    from math import lcm

    inv = x.to_rat().inverse()
    den = lcm(*(q.denominator for row in inv.data for q in row))
    inv = IntMatrix(inv.scale(den).data)
    cols = []
    for k in range(8):
        y = x @ GEN_MATRICES[k] @ inv
        w = cl._extract_vector(y)
        assert y == clifford_embed(w)
        cols.append(tuple(Fraction(a, den) for a in w))
    return IntMatrix(list(zip(*cols)))


def test_group_flags_rho_matches_rational_conjugation():
    rng = random.Random(313)
    cases = [IntMatrix.identity(16).scale(2),
             clifford_embed((3, 0, 0, 0, -3, 0, 0, 0))]  # 3v with Q(v) = -1
    while len(cases) < 40:
        x = IntMatrix.identity(16).scale(rng.choice((1, -1, 2)))
        for _ in range(rng.randint(1, 4)):
            while True:
                v = tuple(rng.randint(-2, 2) for _ in range(8))
                if v_pairing(v, v) in (2, -2):
                    break
            x = x @ clifford_embed(v)
        cases.append(x)
    for x in cases:
        assert group_flags(x).rho == _rational_rho(x)


def test_group_flags_non_integral_rho_raises_value_error():
    # v = e1 + 2 e1* has (v,v) = 4: rho(v) is minus the reflection
    # x -> x - (x,v)/2 v, which is not integral on e1*
    x = clifford_embed((1, 0, 0, 0, 2, 0, 0, 0))
    with pytest.raises(ValueError) as info:
        group_flags(x)
    assert not isinstance(info.value, NotInCliffordGroup)


def test_group_flags_rejects_zero_or_non_scalar_norm():
    # an isotropic vector has x x* = 0; a generic matrix has x x* not scalar
    rng = random.Random(61)
    dense = IntMatrix([[rng.randint(-2, 2) for _ in range(16)] for _ in range(16)])
    for x in (clifford_embed(E1), dense):
        with pytest.raises(NotInCliffordGroup, match="nonzero scalar"):
            group_flags(x)


# --- unfused reference implementations for group_flags and parity_of -------

def _ref_mul_gen_right(x, k):
    """x @ GEN_MATRICES[k] by columns, as group_flags formed x e_k."""
    n = x.rows
    cols = [[0] * n for _ in range(16)]
    for r, c, s in cl.GEN_ENTRIES[k]:
        for i in range(n):
            cols[c][i] += s * x.data[i][r]
    return IntMatrix(list(zip(*cols)))


def _ref_parity_of(x):
    """Parity read off the block structure, entry by entry."""
    even = odd = True
    for i in range(16):
        for j in range(16):
            if x.data[i][j]:
                if degree(i) & 1 != degree(j) & 1:
                    even = False
                else:
                    odd = False
    if even:
        return "even"
    return "odd" if odd else None


def _ref_scalar_of(x):
    c = x.data[0][0]
    if any(x.data[i][j] != (c if i == j else 0)
           for i in range(16) for j in range(16)):
        return None
    return c


def _ref_extract_vector(y):
    a = [y.data[1 << i][0] for i in range(4)]
    b = [(-1 if j & 1 else 1) * y.data[ALL ^ (1 << j)][ALL] for j in range(4)]
    return tuple(a) + tuple(b)


def _ref_group_flags(x):
    """group_flags with each conjugate formed as (x e_k) @ x*."""
    xs = cl.star(x)
    c = _ref_scalar_of(x @ xs)
    if not c:
        raise NotInCliffordGroup("x x* is not a nonzero scalar")
    norm = _ref_scalar_of(x @ alpha(xs))
    par = _ref_parity_of(x)
    rho_cols = []
    for k in range(8):
        y = _ref_mul_gen_right(x, k) @ xs
        w = _ref_extract_vector(y)
        if clifford_embed(w) != y:
            raise NotInCliffordGroup("conjugation does not stabilize V")
        if any(a % c for a in w):
            raise ValueError("rho(x) not integral")
        rho_cols.append(tuple(a // c for a in w))
    rho = IntMatrix(list(zip(*rho_cols)))
    in_pin = c == 1
    return cl.GroupFlags(True, in_pin, in_pin and par == "even", norm == 1,
                         norm, c, par, rho)


def _flags_or_error(fn, x):
    try:
        f = fn(x)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(getattr(f, name) for name in cl.GroupFlags.__slots__)


def _group_flags_cases():
    from kummer_spin.fm import LineBundleClass
    from kummer_spin.stabilizer import _wedge_powers, random_sl4
    from kummer_spin.triality import alpha_tilde_element

    rng = random.Random(1818)
    vectors = []
    while len(vectors) < 50:
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        if v_pairing(v, v) in (2, -2):
            vectors.append(clifford_embed(v))
    cases = list(vectors)
    cases += [vectors[i] @ vectors[i + 1] for i in range(0, 20, 2)]
    cases += [wedge_matrix(LineBundleClass(
        [rng.randint(-3, 3) for _ in range(6)]).chern_character())
        for _ in range(10)]
    cases += [_wedge_powers(random_sl4(rng)) for _ in range(10)]
    cases.append(alpha_tilde_element())
    # outside the Clifford group, or with rho not integral
    for x in cases[:10] + cases[60:70]:
        rows = [list(r) for r in x.data]
        rows[rng.randrange(16)][rng.randrange(16)] += 1
        cases.append(IntMatrix(rows))
    w = IntMatrix.identity(16)
    for i in range(3):
        for s in (1, -1):
            v = [0] * 8
            v[i], v[4 + i] = 1, s
            w = w @ clifford_embed(tuple(v))
    cases.append(IntMatrix.identity(16).scale(2) + w)  # does not stabilize V
    cases += [IntMatrix.identity(16).scale(2), clifford_embed(E1),
              clifford_embed((1, 0, 0, 0, 2, 0, 0, 0))]
    return cases


def test_group_flags_matches_unfused_products():
    outcomes = set()
    for x in _group_flags_cases():
        got = _flags_or_error(group_flags, x)
        assert got == _flags_or_error(_ref_group_flags, x)
        outcomes.add(got[1] if len(got) == 2 else got[6])
    # every branch is met: both parities, both raising messages, and
    # the non-integral rho
    assert {"even", "odd", "x x* is not a nonzero scalar",
            "conjugation does not stabilize V",
            "rho(x) not integral"} <= outcomes


def test_parity_of_matches_block_loop():
    rng = random.Random(77)
    even = [IntMatrix.identity(16), GEN_MATRICES[0] @ GEN_MATRICES[5],
            wedge_matrix(tuple(rng.randint(-2, 2) if degree(m) % 2 == 0 else 0
                               for m in range(16)))]
    odd = [GEN_MATRICES[k] for k in range(8)] \
        + [clifford_embed(tuple(rng.randint(-2, 2) for _ in range(8)))]
    mixed = [even[0] + odd[0], even[1] + odd[-1],
             IntMatrix([[rng.randint(-1, 1) for _ in range(16)] for _ in range(16)])]
    zero = IntMatrix([[0] * 16 for _ in range(16)])
    for x, want in ([(x, "even") for x in even] + [(x, "odd") for x in odd]
                    + [(x, None) for x in mixed] + [(zero, "even")]):
        assert cl.parity_of(x) == _ref_parity_of(x) == want
