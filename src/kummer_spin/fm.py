"""Cohomological actions of derived-category auto-equivalences.

Tensorization by a line bundle acts on the spinor module by wedge
multiplication with the exponential Chern class; the transform with the
normalized dual-pair kernel acts by graded signed duality into the dual
surface's cohomology.  The dual surface is purely symbolic: a second copy
of the exterior algebra on the dual basis, glued to the first by the
degree-respecting duality isomorphism.
"""

from .clifford import (
    ALL,
    PAIRS,
    SMINUS_MASKS,
    act_vector,
    clifford_embed,
    degree,
    group_flags,
    merge_sign,
    mukai_triple,
    pairing_s,
    wedge_matrix,
)
from .exact import IntMatrix
from .lattice import reflection
from .stabilizer import h2_square, h2_wedge
from .triality import (S_MINUS, S_PLUS, SPLUS_LATTICE, V, ax_element,
                       ax_matrix, m_tilde, mu_tilde, splus_block)


class LineBundleClass:
    """A line bundle on the surface, known through its first Chern class
    (six integers over the degree-two monomial basis)."""

    __slots__ = ("c1",)

    def __init__(self, c1):
        c1 = tuple(int(c) for c in c1)
        if len(c1) != 6:
            raise ValueError("c1 needs 6 coordinates")
        self.c1 = c1

    def c1_spinor(self):
        out = [0] * 16
        for (i, j), c in zip(PAIRS, self.c1):
            out[(1 << i) | (1 << j)] = c
        return tuple(out)

    def c1_square_half(self):
        """The integer (c1.c1)/2 = c12 c34 - c13 c24 + c14 c23."""
        return h2_square(self.c1) // 2

    def chern_character(self):
        """(1, c1, c1^2/2) as a 16-coordinate even spinor."""
        out = list(self.c1_spinor())
        out[0] = 1
        out[ALL] = self.c1_square_half()
        return tuple(out)

    def mukai_vector(self):
        return mukai_triple(1, self.c1, self.c1_square_half())

    def dual_surface_bundle(self):
        """The associated bundle on the dual surface, with first Chern
        class iota(PD(c1))."""
        img = iota_pd(self.c1_spinor())
        c1 = tuple(img[(1 << i) | (1 << j)] for i, j in PAIRS)
        return LineBundleClass(c1)


def iota_pd(spinor):
    """iota . PD: send the subset class to its complement, with the sign of
    the Poincare pairing, landing in the dual surface's coordinates."""
    out = [0] * 16
    for a in range(16):
        if spinor[a]:
            out[ALL ^ a] += spinor[a] * merge_sign(a, ALL ^ a)
    return tuple(out)


def iota_pd_matrix():
    rows = [[0] * 16 for _ in range(16)]
    for a in range(16):
        rows[ALL ^ a][a] = merge_sign(a, ALL ^ a)
    return IntMatrix._wrap(rows)


def transform_matrix():
    """The 16x16 graded map from the surface's cohomology to the dual's:
    (-1)^(i(i+1)/2) iota . PD on degree i."""
    rows = [[0] * 16 for _ in range(16)]
    for a in range(16):
        d = degree(a)
        sign = -1 if (d * (d + 1) // 2) & 1 else 1
        rows[ALL ^ a][a] = sign * merge_sign(a, ALL ^ a)
    return IntMatrix._wrap(rows)


def varphi_matrix():
    """The induced isomorphism between the two hyperbolic rank-8 modules:
    (w, theta) -> -(iota(theta), dual-inverse(w))."""
    rows = [[0] * 8 for _ in range(8)]
    for i in range(4):
        rows[4 + i][i] = -1  # e_i -> -(0, f_i*)
        rows[i][4 + i] = -1  # e_i* -> -(f_i, 0)
    return IntMatrix._wrap(rows)


def transform_ax():
    """The combined isometry of the two 24-dimensional algebras."""
    return ax_matrix(varphi_matrix(), transform_matrix())


def phi_f_spinor(bundle):
    """Multiplication by the exponential Chern class: the Spin element of
    tensorization on the 16-dimensional module."""
    return wedge_matrix(bundle.chern_character())


def phi_f_ax(bundle):
    """Tensorization acting on the 24-dimensional algebra."""
    x = phi_f_spinor(bundle)
    flags = group_flags(x)
    if not flags.in_spin:
        raise ValueError("tensorization class is not a Spin element")
    return mu_tilde(x, flags)


def contract_h1dual(theta_index, c1_spinor):
    """D_{e_j*} of a degree-two class, as an H^1 vector (4 coords)."""
    image = act_vector(tuple(int(k == 4 + theta_index) for k in range(8)), c1_spinor)
    return tuple(image[1 << i] for i in range(4))


def verify_phi_p_identities():
    """The duality bookkeeping checks; returns a list of (name, ok, detail)."""
    checks = []
    phi = transform_matrix()
    ipd = iota_pd_matrix()

    # iota(PD(e1)) = f2 ^ f3 ^ f4
    e1 = tuple(int(m == 1) for m in range(16))
    got = ipd.apply(e1)
    expected = tuple(int(m == 0b1110) for m in range(16))
    checks.append(("iota_pd_of_e1", got == expected, "iota(PD(e1)) = f2^f3^f4"))

    # integral compatibility: int_X a^b = int_Xhat iota(PD a)^iota(PD b)
    ok = True
    for a in range(16):
        b = ALL ^ a
        lhs = merge_sign(a, b)
        ia = iota_pd(tuple(int(m == a) for m in range(16)))
        ib = iota_pd(tuple(int(m == b) for m in range(16)))
        rhs = sum(ia[x] * ib[ALL ^ x] * merge_sign(x, ALL ^ x) for x in range(16))
        if lhs != rhs:
            ok = False
    checks.append(("pushforward_respects_integrals", ok,
                   "all complementary basis pairs"))

    # isometry of the spinor pairing on all basis pairs
    ok = True
    for a in range(16):
        for b in range(16):
            sa = tuple(int(m == a) for m in range(16))
            sb = tuple(int(m == b) for m in range(16))
            if pairing_s(sa, sb) != pairing_s(phi.apply(sa), phi.apply(sb)):
                ok = False
    checks.append(("transform_is_isometry", ok, "256 basis pairs"))

    # PD-hat^-1 (iota*)^-1 theta = (-1)^j iota(PD theta) on each degree
    ok = True
    for a in range(16):
        j = degree(a)
        # (iota*)^-1 sends the subset class of X to the dual-basis functional
        # on the dual surface; PD-hat^-1 of that functional is the class
        # pairing to 1 against the subset, i.e. sign-adjusted complement.
        lhs = [0] * 16
        comp = ALL ^ a
        lhs[comp] = merge_sign(comp, a)  # int_Xhat lhs ^ f_a = 1
        rhs = iota_pd(tuple(int(m == a) for m in range(16)))
        sign = -1 if j & 1 else 1
        if tuple(lhs) != tuple(x * sign for x in rhs):
            ok = False
    checks.append(("two_dualities_compare", ok, "all basis classes, each degree"))
    return checks


def verify_equivariance():
    """Conjugating the module action by the transform realizes the induced
    map on the rank-8 module: 8 exact 16x16 identities.  The transform is
    a signed permutation, so its transpose is its inverse (checked)."""
    phi = transform_matrix()
    phi_inv = phi.transpose()
    if not (phi @ phi_inv).is_identity():
        raise ValueError("transform is not inverted by its transpose")
    var = varphi_matrix()
    results = []
    for k in range(8):
        v = tuple(int(i == k) for i in range(8))
        lhs = clifford_embed(var.apply(v))
        rhs = phi @ clifford_embed(v) @ phi_inv
        results.append(lhs == rhs)
    return results


def derivation_conjugation_identity():
    """iota(PD(beta ^ theta)) = D_{dual theta}(iota(PD beta)) for all
    degree-two beta and degree-one theta basis classes."""
    ok = True
    for i, j in PAIRS:
        beta_mask = (1 << i) | (1 << j)
        beta = tuple(int(m == beta_mask) for m in range(16))
        for t in range(4):
            # beta ^ theta in X, theta the t-th degree-one generator
            wedge = [0] * 16
            if not beta_mask & (1 << t):
                wedge[beta_mask | (1 << t)] = merge_sign(beta_mask, 1 << t)
            lhs = iota_pd(tuple(wedge))
            # D over the dual surface: contraction by the dual functional of e_t
            img = iota_pd(beta)
            rhs = act_vector(tuple(int(k == 4 + t) for k in range(8)), img)
            if tuple(lhs) != tuple(rhs):
                ok = False
    return ok


def hat_c1_consistency(bundle):
    """c1 of the dual-surface bundle equals iota(PD(c1)); computed from the
    degree-two part of the transformed exponential Chern class."""
    phi = transform_matrix()
    ch = bundle.chern_character()
    transformed = phi.apply(ch)
    minus_h2 = [0] * 16
    for i, j in PAIRS:
        mask = (1 << i) | (1 << j)
        minus_h2[mask] = -transformed[mask]
    return tuple(minus_h2) == iota_pd(bundle.c1_spinor())


S_PLUS_ONE_ONE = mukai_triple(1, [0] * 6, 1)
_PHI_P = transform_ax()
_PHI_P_INV = _PHI_P.inverse()
_M_S = m_tilde(S_PLUS_ONE_ONE)
_R_S = reflection(SPLUS_LATTICE, S_PLUS_ONE_ONE).matrix


def reflection_lift_identities(bundle1, bundle2):
    """The exact 24x24 identities tying the transform, tensorization, and
    the square +-2 multiplication elements; returns (name, ok) pairs."""
    s, phi_p, phi_p_inv, m_s = S_PLUS_ONE_ONE, _PHI_P, _PHI_P_INV, _M_S
    phi_f1 = phi_f_ax(bundle1)
    phi_f1_inv = phi_f1.inverse()
    phi_f2_inv = phi_f_ax(bundle2).inverse()
    phi_f1hat = phi_f_ax(bundle1.dual_surface_bundle())
    phi_f2hat = phi_f_ax(bundle2.dual_surface_bundle())
    results = []

    # (a) the round-trip composite equals m~_s . m~_{phi_F(s)}
    composite = phi_p_inv @ phi_f1hat @ phi_p @ phi_f1_inv
    fs = splus_of_ax(phi_f1, s)
    m_fs = m_tilde(fs)
    rhs = m_s @ m_fs
    results.append(("eq-product-of-two-reflections-via-FM", composite == rhs))

    # S+ restriction of (a) is the product of the two reflections
    r_fs = reflection(SPLUS_LATTICE, fs).matrix
    ok = composite.matrix.block(S_PLUS, S_PLUS, 8, 8) == _R_S @ r_fs
    results.append(("eq-product-acts-by-two-reflections-on-S-plus", ok))

    # (b) conjugating m~ by the transform / by tensorization
    lhs = phi_p_inv @ m_s @ phi_p
    results.append(("eq-conjugation-of-m-s-by-phi-P", lhs == m_s))
    lhs = phi_f1 @ m_s @ phi_f1_inv
    results.append(("eq-conjugation-of-m-s-by-phi-F", lhs == m_fs))

    # (c) the two-bundle composite maps to m~_{F2^-1(s)} . m~_{F1^-1(s)}
    comp = (phi_f2_inv @ phi_p_inv @ phi_f2hat
            @ phi_f1hat.inverse() @ phi_p @ phi_f1)
    rhs = m_tilde(splus_of_ax(phi_f2_inv, s)) \
        @ m_tilde(splus_of_ax(phi_f1_inv, s))
    results.append(("eq-reflections-in-two-line-bundles", comp == rhs))

    results.append(("eq-c1-of-dual-bundle", hat_c1_consistency(bundle1)))
    return results


def splus_of_ax(aut, splus_vec):
    """Apply an algebra automorphism to an even-half vector."""
    image = aut.apply(ax_element(s_plus=splus_vec))
    if any(image[:S_PLUS]):
        raise ValueError("automorphism does not preserve S+")
    return splus_block(image)


def verify_phi_f_action(bundle):
    """Tensorization's block actions match the closed formulas, computed
    from c1 alone; returns (name, ok) pairs."""
    aut = phi_f_ax(bundle)
    c1, c1_spinor, half = bundle.c1, bundle.c1_spinor(), bundle.c1_square_half()
    results = []

    # S+: (r,H,s) -> (r, H + r c1, s + r c1^2/2 + H ^ c1)
    ok = True
    for j in range(8):
        basis = tuple(int(i == j) for i in range(8))
        r, h, s = basis[0], basis[1:7], basis[7]
        expected = ((r,) + tuple(x + r * c for x, c in zip(h, c1))
                    + (s + r * half + h2_wedge(h, c1),))
        if splus_of_ax(aut, basis) != expected:
            ok = False
    results.append(("phi-F-on-S-plus", ok))

    # V: (w, theta) -> (w - D_theta(c1), theta)
    ok = True
    v = aut.matrix.block(V, V, 8, 8)
    for t in range(4):
        dtheta = contract_h1dual(t, c1_spinor)
        expected = tuple(-x for x in dtheta) + tuple(int(i == t) for i in range(4))
        if v.column(4 + t) != expected:
            ok = False
        if v.column(t) != tuple(int(i == t) for i in range(8)):
            ok = False
    results.append(("phi-F-on-V", ok))

    # S-: (w, w') -> (w, w' + c1 ^ w)
    ok = True
    s_minus = aut.matrix.block(S_MINUS, S_MINUS, 8, 8)
    for t in range(4):
        bit = 1 << t
        expected = tuple(int(m == bit) for m in SMINUS_MASKS[:4]) + tuple(
            c1_spinor[m ^ bit] * merge_sign(m ^ bit, bit) if m & bit else 0
            for m in SMINUS_MASKS[4:])
        if s_minus.column(t) != expected:
            ok = False
    results.append(("phi-F-on-S-minus", ok))
    return results
