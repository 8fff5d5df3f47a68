"""Generators of the even-half stabilizer of the class (1,0,-n) and their
character content.

An SL4 block embeds through the functorial wedge action on the spinor
module; reflection pairs in square +2 classes (1, A, n) come from the
24-dimensional algebra; the grading involution and the central elements
complete the generator kinds.  The induced action on the rank-7
orthogonal complement carries the sign convention of the second-cohomology
lattice (positive part of rank 3), with an extra global sign for
orientation-reversing elements.
"""

import random
from functools import cache
from math import gcd

from .clifford import (
    PAIRS,
    group_flags,
    mukai_triple,
    splus_pairing,
)
from .exact import IntMatrix, is_primitive, smith_normal_form
from .lattice import (
    IntLattice,
    LatticeIsometry,
    SearchExhausted,  # re-exported: the searches here raise it
    chi_character,
    det_character,
    discriminant_group,
    ort_character,
    sample_accepted,
    signed_reflection,
)
from .triality import (
    S_MINUS,
    S_PLUS,
    SPLUS_LATTICE,
    V,
    AXAutomorphism,
    alpha_tilde_element,
    ax_element,
    m_tilde_pair,
    mu_tilde,
    multiplication_operator,
    splus_block,
    tau_tilde,
)

# conventions self-test: (s_n, s_n)_{S+} = -2n and ((1,A,n),(1,A,n))_{S+}
# = 2n - int(A^2), pinning the sign relating the two pairings
_sn5 = mukai_triple(1, [0] * 6, -5)
if splus_pairing(_sn5, _sn5) != -10:
    raise ValueError("(s_n, s_n) is not -2n")
_t = mukai_triple(1, (1, 0, 0, 0, 0, 1), 2)  # int(A^2) = 2, n = 2
if splus_pairing(_t, _t) != 2 * 2 - 2:
    raise ValueError("((1,A,n),(1,A,n)) is not 2n - int(A^2)")
del _sn5, _t


def s_n(n):
    return mukai_triple(1, [0] * 6, -n)


def h2_wedge(a, b):
    """int(A ^ B) for two degree-two classes in lex-pair coordinates."""
    return (a[0] * b[5] + a[5] * b[0]) - (a[1] * b[4] + a[4] * b[1]) \
        + (a[2] * b[3] + a[3] * b[2])


def h2_square(a6):
    """int(A ^ A) for a degree-two class with six lex-pair coordinates."""
    return h2_wedge(a6, a6)


def perp_basis(n):
    """Integral basis of the orthogonal complement of (1,0,-n):
    (1,0,n) followed by the six degree-two classes."""
    basis = [mukai_triple(1, [0] * 6, n)]
    for k in range(6):
        h = [0] * 6
        h[k] = 1
        basis.append(mukai_triple(0, h, 0))
    return basis


@cache
def bbf_lattice(n):
    """The rank-7 lattice of the orthogonal complement with the
    second-cohomology sign (positive part of rank 3): minus the ambient
    even-half pairing.  Cached: one instance and positive basis per n."""
    basis = perp_basis(n)
    gram = [[-splus_pairing(u, v) for v in basis] for u in basis]
    return IntLattice(gram, label="H2(n=%d)" % n)


def perp_coords(vec8, n):
    """Coordinates of an even-half vector in the perp basis; raises if the
    vector is not orthogonal to (1,0,-n)."""
    r = vec8[0]
    if vec8[7] != r * n:
        raise ValueError("vector is not orthogonal to (1,0,-n)")
    return (r,) + tuple(vec8[1:7])


class StabilizerGenerator:
    """A generator of the even-half stabilizer with its algebra realization
    and the induced isometry of the rank-7 complement."""

    __slots__ = ("kind", "data", "n", "ax", "_perp")

    def __init__(self, kind, data, n, ax):
        self.kind = kind
        self.data = data
        self.n = n
        self.ax = ax
        self._perp = None
        sn = s_n(n)
        image = splus_block(ax.apply(ax_element(s_plus=sn)))
        if tuple(image) != tuple(sn):
            raise ValueError("%s realization does not fix (1,0,-%d)" % (kind, n))

    def splus_matrix(self):
        return self.ax.matrix.block(S_PLUS, S_PLUS, 8, 8)

    def v_matrix(self):
        return self.ax.matrix.block(V, V, 8, 8)

    def orientation_sign(self):
        """ort of the even-half action (positive part of rank 4);
        -1 exactly off the Spin subgroup."""
        iso = LatticeIsometry(SPLUS_LATTICE, self.splus_matrix())
        return ort_character(SPLUS_LATTICE, iso)

    def perp_action(self):
        """The induced isometry of the rank-7 second-cohomology lattice:
        the restriction of the even-half action, globally negated for
        orientation-reversing elements."""
        if self._perp is None:
            eps = self.orientation_sign()
            m8 = self.splus_matrix()
            lat = bbf_lattice(self.n)
            cols = []
            for b in perp_basis(self.n):
                img = m8.apply(b)
                cols.append(perp_coords(tuple(eps * x for x in img), self.n))
            self._perp = LatticeIsometry(lat, IntMatrix(list(zip(*cols))))
        return self._perp


def sl4_generator(m, n):
    """Wedge-functorial action of a determinant-one 4x4 integer matrix;
    fixes (1,0,0) and (0,0,1), hence every (1,0,-n)."""
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    if m.det() != 1:
        raise ValueError("sl4 generator needs determinant 1")
    s16 = _wedge_powers(m)
    flags = group_flags(s16)
    if not flags.in_spin:
        raise ValueError("wedge action is not a Spin element")
    # the dual block is the inverse transpose of M: read it off rho, certify
    dual = flags.rho.block(4, 4, 4, 4)
    if flags.rho != IntMatrix.block_diagonal(m, dual) \
            or not (m.transpose() @ dual).is_identity():
        raise ValueError("conjugation action differs from M + dual")
    return StabilizerGenerator("sl4", m, n, mu_tilde(s16, flags))


def _wedge_powers(m):
    from itertools import combinations

    rows = [[0] * 16 for _ in range(16)]
    rows[0][0] = 1
    for k in range(1, 5):
        for cols in combinations(range(4), k):
            bmask = sum(1 << c for c in cols)
            for rws in combinations(range(4), k):
                amask = sum(1 << r for r in rws)
                sub = IntMatrix._wrap([[m[i, j] for j in cols] for i in rws])
                rows[amask][bmask] = sub.det()
    return IntMatrix._wrap(rows)


def pair_reflection_generator(a1, a2, n):
    """The product of the two reflections in t_i = (1, A_i, n), realized on
    the 24-dimensional algebra; requires int(A_i^2) = 2n-2 with A_i
    primitive, so each t_i has square +2."""
    for a in (a1, a2):
        if h2_square(a) != 2 * n - 2:
            raise ValueError("need int(A^2) = 2n-2 = %d, got %d"
                             % (2 * n - 2, h2_square(a)))
        if not is_primitive(a):
            raise ValueError("A must be primitive")
    t1 = mukai_triple(1, a1, n)
    t2 = mukai_triple(1, a2, n)
    if splus_pairing(t1, t1) != 2 or splus_pairing(t2, t2) != 2:
        raise ValueError("(1, A, n) does not have square +2")
    return StabilizerGenerator("pair_reflection", (tuple(a1), tuple(a2)), n,
                               m_tilde_pair(t1, t2))


def h2_pair_generator(c1, c2, n):
    """Product of two reflections in degree-two classes of equal square
    +-2; fixes (1,0,-n) since degree-two classes are orthogonal to it."""
    s1 = -h2_square(c1)
    s2 = -h2_square(c2)
    if s1 not in (2, -2) or s1 != s2:
        raise ValueError("need equal even-half squares +-2")
    y1 = mukai_triple(0, c1, 0)
    y2 = mukai_triple(0, c2, 0)
    return StabilizerGenerator("h2_pair", (tuple(c1), tuple(c2)), n,
                               m_tilde_pair(y1, y2))


def tau_tilde_generator(n):
    return StabilizerGenerator("tilde_tau", None, n, tau_tilde())


def alpha_tilde_generator(n):
    """The grading involution: -1 on V and S-, identity on S+."""
    return StabilizerGenerator("tilde_alpha", None, n,
                               mu_tilde(alpha_tilde_element()))


def minus_one_generator(n):
    """-1 of the even-half spin group: identity standard action on S+,
    -1 on V + S-.  The same algebra element as the grading involution,
    reached from the other side of the triality identification (the
    center of the full spin image meets the stabilizer in exactly this
    involution: the other central elements negate (1,0,-n))."""
    return StabilizerGenerator("minus_one", None, n, AXAutomorphism(
        IntMatrix.diagonal((-1,) * 16 + (1,) * 8)))


def word_generator(parts, n):
    """Product of already-built generators, as a single generator."""
    ax = parts[0].ax
    for p in parts[1:]:
        ax = ax @ p.ax
    return StabilizerGenerator("word", tuple(p.kind for p in parts), n, ax)


# --- mod n representation ---------------------------------------------------

class ModNMatrix:
    """4x4 matrix over Z/n, invertible."""

    __slots__ = ("n", "data")

    def __init__(self, n, data):
        self.n = n
        self.data = tuple(tuple(x % n for x in row) for row in data)
        det = IntMatrix(self.data).det() % n
        if gcd(det, n) != 1:
            raise ValueError("matrix is not invertible mod %d" % n)

    def __eq__(self, other):
        return isinstance(other, ModNMatrix) and self.n == other.n \
            and self.data == other.data

    def __matmul__(self, other):
        prod = IntMatrix(self.data) @ IntMatrix(other.data)
        return ModNMatrix(self.n, prod.data)

    def __repr__(self):
        return "ModNMatrix(%d, %r)" % (self.n, [list(r) for r in self.data])


def mod_n_rep(gen):
    """Reduce the rank-8 action mod n, check that the dual summand is
    invariant, and return the induced map on the quotient."""
    n = gen.n
    v = gen.v_matrix()
    if any(x % n for row in v.block(0, 4, 4, 4).data for x in row):
        raise ValueError("dual summand is not invariant mod %d "
                         "(element does not stabilize the class)" % n)
    return ModNMatrix(n, v.block(0, 0, 4, 4).data)


# --- cokernel of multiplication by a primitive negative class ---------------

def gamma_w_cokernel(w):
    """Invariant factors of multiplication V -> S- by a primitive even-half
    class w of square -2n, plus the -n identity law of the adjoint
    composite.  Returns (factors, n)."""
    w = tuple(w)
    ww = splus_pairing(w, w)
    if ww >= 0 or ww % 2 != 0:
        raise ValueError("class must have negative even square")
    n = -ww // 2
    if not is_primitive(w):
        raise ValueError("class must be primitive")
    mult = multiplication_operator(ax_element(s_plus=w))
    m_w = mult.block(S_MINUS, V, 8, 8)
    m_w_dag = mult.block(V, S_MINUS, 8, 8)
    if m_w_dag @ m_w != IntMatrix.identity(8).scale(-n):
        raise ValueError("adjoint composite is not multiplication by -n")
    snf = smith_normal_form(m_w)
    return snf.invariant_factors, n


# --- deterministic sampling --------------------------------------------------

def _elementary_sl4():
    out = []
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            for s in (1, -1):
                m = [[int(a == b) for b in range(4)] for a in range(4)]
                m[i][j] = s
                out.append(IntMatrix(m))
    return tuple(out)


ELEMENTARY_SL4 = _elementary_sl4()


def random_sl4(rng, length=3):
    m = IntMatrix.identity(4)
    for _ in range(length):
        m = m @ rng.choice(ELEMENTARY_SL4)
    return m


def find_h2_with_square(target, rng, orthogonal_to=None):
    """A primitive degree-two class A with int(A^2) = target, wedging to
    zero with orthogonal_to when given, by seeded bounded search: 10000
    draws (20000 with orthogonal_to) from a coordinate box that widens by
    one every tenth of them."""
    cap = 10000 if orthogonal_to is None else 20000

    def draw(i):
        b = 3 + i // (cap // 10)
        return tuple(rng.randint(-b, b) for _ in range(6))

    def accept(a):
        return any(a) and h2_square(a) == target and is_primitive(a) and (
            orthogonal_to is None or h2_wedge(a, orthogonal_to) == 0)

    (a,) = sample_accepted(draw, accept, 1, "%sdegree-two classes of square %d"
                           % ("" if orthogonal_to is None else "orthogonal ",
                              target), cap)
    return a


def random_pair_reflection(n, rng, orthogonal_to=None):
    """pair_reflection_generator on two classes of square 2n-2 (wedging to
    zero with orthogonal_to when given), drawn in turn by
    find_h2_with_square."""
    a1 = find_h2_with_square(2 * n - 2, rng, orthogonal_to)
    a2 = find_h2_with_square(2 * n - 2, rng, orthogonal_to)
    return pair_reflection_generator(a1, a2, n)


def sample_generators(n, count, rng):
    """A deterministic list of stabilizer generators, cycling through the
    kinds sl4, pair_reflection, tilde_tau, tilde_alpha and minus_one."""
    kinds = (lambda: sl4_generator(random_sl4(rng), n),
             lambda: random_pair_reflection(n, rng),
             lambda: tau_tilde_generator(n), lambda: alpha_tilde_generator(n),
             lambda: minus_one_generator(n))
    return [kinds[k % len(kinds)]() for k in range(count)]


def _bivector_matrix(h6):
    """Antisymmetric 4x4 coefficient matrix of a degree-two class."""
    b = [[0] * 4 for _ in range(4)]
    for (i, j), c in zip(PAIRS, h6):
        b[i][j] = c
        b[j][i] = -c
    return IntMatrix(b)


def bivector_transvection(h6, v):
    """A determinant-one matrix fixing the degree-two class under the wedge
    action: x -> x - (x^T adj(B) v) v with B the class's coefficient
    matrix."""
    b = _bivector_matrix(h6)
    det = b.det()
    if det == 0:
        raise ValueError("degenerate degree-two class")
    # adj(B) = -Pf(B) B(*h), with Pf(B) = int(h^2)/2 and *h the Hodge dual
    hodge = (h6[5], -h6[4], h6[3], h6[2], -h6[1], h6[0])
    adj = _bivector_matrix(hodge).scale(-h2_square(h6) // 2)
    if b @ adj != IntMatrix.identity(4).scale(det):
        raise ValueError("adjugate certificate failed")
    cv = adj.apply(v)
    rows = [[int(i == j) - v[i] * cv[j] for j in range(4)] for i in range(4)]
    m = IntMatrix(rows)
    if m.det() != 1:
        raise ValueError("transvection does not have determinant 1")
    return m


def stabilizer_v_actions(n, count, rng):
    """V-action matrices of a generating sample of the stabilizer's spin
    part: elementary SL4 embeds, random SL4 words, and +2 pair
    reflections."""
    out = []
    for m in ELEMENTARY_SL4[:12]:
        out.append(sl4_generator(m, n).v_matrix())
    while len(out) < count:
        if len(out) % 2 == 0:
            out.append(sl4_generator(random_sl4(rng), n).v_matrix())
        else:
            out.append(random_pair_reflection(n, rng).v_matrix())
    return out


def wh_stabilizer_v_actions(n, h6, count, rng):
    """V-actions of elements stabilizing both (1,0,-n) and the degree-two
    class: bivector-fixing transvections plus reflection pairs orthogonal
    to the class."""
    h6 = tuple(h6)
    hvec = mukai_triple(0, h6, 0)
    out = []
    while len(out) < count:
        if len(out) % 3 != 2:
            (v,) = sample_accepted(
                lambda _: tuple(rng.randint(-2, 2) for _ in range(4)), any, 1,
                "nonzero transvection vectors", 20000)
            g = sl4_generator(bivector_transvection(h6, v), n)
        else:
            g = random_pair_reflection(n, rng, orthogonal_to=h6)
        image = splus_block(g.ax.apply(ax_element(s_plus=hvec)))
        if tuple(image) != tuple(hvec):
            raise ValueError("generator moves the polarization")
        out.append(g.v_matrix())
    return out


def det_chi_report(n, sample_count, seed):
    """The character suite's rows (name, ref, ok, detail): reflection
    character identities, generator det*chi values, the grading
    involution's induced action, and the discriminant-group order of the
    complement."""
    rng = random.Random("detchi:%d:%d" % (n, seed))
    lat = bbf_lattice(n)
    disc = discriminant_group(lat)
    # raw reflections: det(r_u) = (u,u)/2, chi(r_u) = -(u,u)/2
    reflections_ok = True
    for coords in sample_accepted(
            lambda _: tuple(rng.randint(-3, 3) for _ in range(7)),
            lambda c: lat.square(c) in (2, -2), 50, "square +-2 classes",
            20000):
        uu = lat.square(coords)
        r = signed_reflection(lat, coords)
        if det_character(r) != uu // 2 \
                or chi_character(lat, r) != -uu // 2:
            reflections_ok = False
    # generated stabilizer elements: fix s_n, det*chi = +1 on the complement
    gens = sample_generators(n, sample_count, rng)
    generators_ok = True
    for g in gens:
        iso = g.perp_action()
        if det_character(iso) * chi_character(lat, iso) != 1:
            generators_ok = False
    # the grading involution fixes degree two and negates (1,0,n)
    tt = tau_tilde_generator(n).perp_action()
    e0 = tuple(int(i == 0) for i in range(7))
    fixes_h2 = all(tt.apply(tuple(int(i == k) for i in range(7)))
                   == tuple(int(i == k) for i in range(7)) for k in range(1, 7))
    negates = tt.apply(e0) == tuple(-x for x in e0)
    tau_tilde_ok = fixes_h2 and negates and det_character(tt) == -1 \
        and det_character(tt) * chi_character(lat, tt) == 1
    formula = 2 * (2 * n - 2) + 2
    return [
        ("reflection_characters", "eq-residue-character", reflections_ok,
         "det(r_u)=(u,u)/2 and chi(r_u)=-(u,u)/2 on 50 samples"),
        ("generators_in_kernel", "thm-Mon-2", generators_ok,
         "det*chi = +1 on %d generator images" % len(gens)),
        ("tau_tilde_involution", "thm-Mon-2", tau_tilde_ok,
         "fixes degree two, negates (1,0,n), det=-1"),
        ("disc_group_order", "eq-residue-character", True,
         "computed %d; alternative formula 2dim+2 gives %d (%s)"
         % (disc.order, formula, "agree" if disc.order == formula
            else "disagree; computed order reported")),
    ]
