"""The 24-dimensional commutative algebra on V + S- + S+ and its symmetries.

This module owns the block layout of a 24-vector: V at index V = 0, S- at
S_MINUS = 8 and S+ at S_PLUS = 16, each block 8 wide, with the spinor
coordinates in the order SMINUS_MASKS + SPLUS_MASKS.
The product multiplies V against the spinor halves by Clifford action and
pairs S+ against S- into V through the V-pairing; squares of a single
summand vanish.  The order-3 automorphism permuting the summands is built
from a fixed +2 class in S+ and a fixed unit vector in V.
"""

from .clifford import (
    ALL,
    GEN_ENTRIES,
    SMINUS_GRAM,
    SPLUS_GRAM,
    V_GRAM,
    _TAU_SIGN,
    clifford_embed,
    group_flags,
    mukai_triple,
    splus_lattice,
    splus_pairing,
    SPLUS_MASKS,
    SMINUS_MASKS,
)
from .exact import IntMatrix
from .lattice import reflection

V, S_MINUS, S_PLUS = 0, 8, 16
_S_PERM = SMINUS_MASKS + SPLUS_MASKS  # A_X spinor coordinate order: S- then S+

AX_GRAM = IntMatrix.block_diagonal(V_GRAM, SMINUS_GRAM, SPLUS_GRAM)
# AX_GRAM as a signed permutation: row j is g e_k for (k, g) = _GRAM_PERM[j]
_GRAM_PERM = tuple(next((k, g) for k, g in enumerate(row) if g) for row in AX_GRAM.data)
SPLUS_LATTICE = splus_lattice()  # one instance, one positive_basis cache


def ax_element(v=None, s_minus=None, s_plus=None):
    """Assemble a 24-vector from its three 8-dimensional blocks."""
    v = tuple(v) if v is not None else (0,) * 8
    s_minus = tuple(s_minus) if s_minus is not None else (0,) * 8
    s_plus = tuple(s_plus) if s_plus is not None else (0,) * 8
    if not len(v) == len(s_minus) == len(s_plus) == 8:
        raise ValueError("each block of an A_X element needs 8 entries")
    return v + s_minus + s_plus


def splus_block(a):
    return a[S_PLUS:S_PLUS + 8]


def _product_table():
    """The nonzero products of basis vectors, (i, j, k, s) for
    e_i e_j = s e_k.  V times a spinor half is the Clifford action of the
    generator entries; S+ times S- lands in V through the V-pairing:
    (e_k c, ALL^r)_S = s _TAU_SIGN[r] for the entry (r, c, s) of generator
    k, and the hyperbolic V-Gram sends the k-th pairing to index k+4 mod 8.
    """
    minus = {m: S_MINUS + i for i, m in enumerate(SMINUS_MASKS)}
    plus = {m: S_PLUS + i for i, m in enumerate(SPLUS_MASKS)}
    table = []
    for k, entries in enumerate(GEN_ENTRIES):
        for r, c, s in entries:
            if c in plus:
                products = ((k, plus[c], minus[r], s),
                            (plus[c], minus[ALL ^ r], (k + 4) % 8,
                             s * _TAU_SIGN[r]))
            else:
                products = ((k, minus[c], plus[r], s),)
            for i, j, out, sign in products:
                table += [(i, j, out, sign), (j, i, out, sign)]
    return tuple(table)


PRODUCT_TABLE = _product_table()
_PRODUCTS = {(i, j): (k, s) for i, j, k, s in PRODUCT_TABLE}


def ax_product(a, b):
    """The commutative product on V + S- + S+."""
    out = [0] * 24
    for i, j, k, s in PRODUCT_TABLE:
        if a[i] and b[j]:
            out[k] += s * a[i] * b[j]
    return tuple(out)


def multiplication_operator(a):
    """24x24 matrix of multiplication by the element a in the algebra."""
    rows = [[0] * 24 for _ in range(24)]
    for i, j, k, s in PRODUCT_TABLE:
        if a[i]:
            rows[k][j] += s * a[i]
    return IntMatrix._wrap(rows)


def multiplication_block(y, i, j):
    """The 8x8 block at block offsets (i, j) of multiplication by the
    even-half class y: (S_MINUS, V) maps V -> S-, (V, S_MINUS) maps S- -> V."""
    return multiplication_operator(ax_element(s_plus=y)).block(i, j, 8, 8)


class AXAutomorphism:
    """A linear automorphism of the 24-dimensional algebra with verified
    structural flags; the matrix is integral."""

    __slots__ = ("matrix", "_flags")

    def __init__(self, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        if matrix.rows != 24 or matrix.cols != 24:
            raise ValueError("expected a 24x24 matrix")
        self.matrix = matrix
        self._flags = {}

    def __matmul__(self, other):
        return AXAutomorphism(self.matrix @ other.matrix)

    def __eq__(self, other):
        return self.matrix == other.matrix

    def apply(self, a):
        return self.matrix.apply(a)

    def inverse(self):
        """The inverse as an adjoint under G = AX_GRAM, a symmetric signed
        permutation with G.G = I: with H = M^T G M, the inverse is
        H M^T G, since (H M^T G) M = H.H = I whenever H is an involution.
        An isometry has H = G, so its inverse is G M^T G; the sign-reversing
        elements (tau_tilde, m_tilde of a -2 class, a mixed m_tilde_pair)
        have H = G negated on V + S-.  M @ inverse == I is checked exactly;
        ValueError when it fails."""
        m = self.matrix
        # M^T G = (G M)^T, and row j of G M is g times row k of M
        mtg = IntMatrix._wrap(zip(*([g * x for x in m.data[k]] for k, g in _GRAM_PERM)))
        inv = mtg @ m @ mtg
        if not (m @ inv).is_identity():
            raise ValueError("matrix is not inverted by its Gram adjoint")
        return AXAutomorphism(inv)

    def is_isometry(self):
        if "isometry" not in self._flags:
            m = self.matrix
            self._flags["isometry"] = m.transpose() @ AX_GRAM @ m == AX_GRAM
        return self._flags["isometry"]

    def is_algebra_automorphism(self):
        """Exhaustive check of f(a.b) = f(a).f(b) on all 24x24 basis pairs."""
        return self.product_twist() == 1

    def product_twist(self):
        """+1 for a full algebra automorphism; -1 when the product is
        preserved except for a sign on the V x S- -> S+ component (the
        component defined through the pairing on V + S-, which scales by
        the even-half norm of sign-reversing elements); None otherwise.
        Checked on all 24x24 basis pairs."""
        if "twist" not in self._flags:
            self._flags["twist"] = self._product_twist()
        return self._flags["twist"]

    def _product_twist(self):
        # f(e_i e_j) = s M[:, k] for the table entry (i, j, k, s); a zero
        # product reads as 0 e_0
        images = [self.matrix.column(j) for j in range(24)]
        twist = None
        for i in range(24):
            for j in range(i, 24):
                k, s = _PRODUCTS.get((i, j), (0, 0))
                left = tuple(s * x for x in images[k])
                right = ax_product(images[i], images[j])
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

    def block_permutation(self):
        """Which summand each of V, S-, S+ maps into, or None if mixing."""
        names = ("V", "S-", "S+")
        spans = ((0, 8), (8, 16), (16, 24))
        out = []
        for lo, hi in spans:
            targets = set()
            for j in range(lo, hi):
                col = self.matrix.column(j)
                for i in range(24):
                    if col[i]:
                        targets.add(i // 8)
            if len(targets) != 1:
                return None
            out.append(names[targets.pop()])
        return dict(zip(names, out))

    def to_json(self):
        return {
            "matrix": [[str(x) for x in row] for row in self.matrix.data],
            "isometry": self.is_isometry(),
            "algebra_automorphism": self.is_algebra_automorphism(),
            "block_permutation": self.block_permutation(),
        }


def mu_tilde(x, flags=None):
    """The action of an even-norm-kernel Clifford element on the algebra:
    conjugation on V, module action on the spinor halves."""
    if flags is None:
        flags = group_flags(x)
    if flags.norm != 1:
        raise ValueError("element is not in the kernel of the norm character")
    return ax_matrix(flags.rho, x)


def ax_matrix(v8, s16):
    """The automorphism acting by the 8x8 matrix v8 on V and by the 16x16
    spinor-module matrix s16 (indexed by masks) on S- + S+."""
    spin = IntMatrix._wrap([s16[a, b] for b in _S_PERM] for a in _S_PERM)
    return AXAutomorphism(IntMatrix.block_diagonal(v8, spin))


def m_tilde(y):
    """The Pin-type element of a square +-2 class y in S+: multiplication
    by y on V + S-, minus the reflection in y on S+.  Multiplication by y
    vanishes on S+ and lands in V + S-, so the two parts are blocks."""
    y = tuple(y)
    mult = multiplication_operator(ax_element(s_plus=y)).block(V, V, 16, 16)
    refl = reflection(SPLUS_LATTICE, y).matrix
    return AXAutomorphism(IntMatrix.block_diagonal(mult, refl.scale(-1)))


def m_tilde_pair(y1, y2):
    """m_tilde(y1) . m_tilde(y2): multiplication composition on V + S-,
    product of the two reflections on S+.

    Equal-sign squares give an isometry of the algebra (the Spin case);
    mixed signs reverse the sign of the pairing on V + S-.
    """
    s1 = splus_pairing(y1, y1)
    s2 = splus_pairing(y2, y2)
    if s1 not in (2, -2) or s2 not in (2, -2):
        raise ValueError("pair classes must have square +-2")
    return m_tilde(tuple(y1)) @ m_tilde(tuple(y2))


def minus_one():
    """mu-tilde of -1: identity on V, -1 on the spinor halves."""
    return AXAutomorphism(IntMatrix.diagonal((1,) * 8 + (-1,) * 16))


def alpha_tilde_element():
    """The central Spin element acting as the parity operator on spinors:
    the product over i of (1 - 2 e_i e_i*)."""
    x = IntMatrix.identity(16)
    for i in range(4):
        wedge = clifford_embed(tuple(int(k == i) for k in range(8)))
        contract = clifford_embed(tuple(int(k == i + 4) for k in range(8)))
        x = x @ (IntMatrix.identity(16) - (wedge @ contract).scale(2))
    return x


def tau_tilde():
    """The involution -alpha~ . m~_{s1 s2} with s1 = (1,0,-1), s2 = (1,0,1);
    acts on both spinor halves by the grading signs of the main
    anti-automorphism, and nontrivially on V."""
    s1 = mukai_triple(1, [0] * 6, -1)
    s2 = mukai_triple(1, [0] * 6, 1)
    minus_alpha = alpha_tilde_element().scale(-1)
    return mu_tilde(minus_alpha) @ m_tilde_pair(s1, s2)


def build_j():
    """The order-3 algebra automorphism with J(V) = S+, J(S+) = S-,
    J(S-) = V, from the +2 class u1 = (1,0,1) and the unit vector
    x1 = e1 + e1*.

    The intermediate map is exactly m_tilde(u1): Clifford action on u1
    from V to S-, product by u1 from S- to V, minus the reflection on S+.
    """
    t = m_tilde(mukai_triple(1, [0] * 6, 1))
    x1 = (1, 0, 0, 0, 1, 0, 0, 0)
    mu_x1 = mu_tilde(clifford_embed(x1))
    return AXAutomorphism(mu_x1.matrix @ t.matrix)


def outer_j(x, j=None):
    """The outer triality twist on a Spin element, realized by conjugating
    its algebra action with the order-3 automorphism.

    The direction is fixed so that the twist of -1 is the central element
    acting as the identity on S+ and by -1 on V + S- (the grading
    involution goes to the twist of -id); with J(V) = S+ this is
    J mu(g) J^-1.  The conjugate must again lie in the Spin image: it has
    to preserve all three summands and the product; violations are
    internal errors."""
    if j is None:
        j = build_j()
    flags = group_flags(x)
    if not flags.in_spin:
        raise ValueError("outer triality twist needs a Spin element")
    conj = j @ mu_tilde(x, flags) @ j.inverse()
    if conj.block_permutation() != {"V": "V", "S-": "S-", "S+": "S+"}:
        raise ValueError("triality conjugate does not preserve the summands")
    if not conj.is_algebra_automorphism():
        raise ValueError("triality conjugate is not an algebra automorphism")
    return conj
