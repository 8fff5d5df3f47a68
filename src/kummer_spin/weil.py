"""Polarization forms, exact complex structures, complex multiplication,
and the constructive trivial-discriminant certificate.

A pair (w, h) of orthogonal negative classes in the even half gives an
integral endomorphism of the rank-8 module squaring to -d (d = nk); pairs
of orthogonal -2 classes give exact complex structures; together they
produce Kahler-definite symmetric forms, the norm-compatible action of
the imaginary quadratic order, and an H-orthogonal basis certifying that
the Hermitian determinant is a rational square.
"""

from fractions import Fraction

from .clifford import splus_lattice, splus_pairing, v_pairing, V_GRAM
from .exact import (
    IntMatrix,
    RatMatrix,
    clear_denominators,
    in_span,
    is_rational_square,
    primitive_vector,
    rational_kernel,
    vector_gcd,
)
from .lattice import orthogonal_complement_basis
from .triality import ax_element, m_tilde_pair, multiplication_operator

SPLUS = splus_lattice()


class SearchExhausted(RuntimeError):
    """The bounded search did not find the required configuration; a
    report-level condition, not a failure of the underlying theory."""


def _v_block(mat24):
    return IntMatrix([[mat24[i, j] for j in range(8)] for i in range(8)])


def _mult_v_to_sminus(y):
    """The V -> S- block of multiplication by an even-half class."""
    m = multiplication_operator(ax_element(s_plus=y))
    return IntMatrix([[m[8 + i, j] for j in range(8)] for i in range(8)])


def _mult_sminus_to_v(y):
    m = multiplication_operator(ax_element(s_plus=y))
    return IntMatrix([[m[i, 8 + j] for j in range(8)] for i in range(8)])


class WeilStructure:
    """The endomorphism package of an orthogonal pair of negative
    even-half classes."""

    __slots__ = ("w", "h", "n", "k", "d", "theta_prime", "theta_form")

    def __init__(self, w, h):
        w = tuple(int(x) for x in w)
        h = tuple(int(x) for x in h)
        ww = splus_pairing(w, w)
        hh = splus_pairing(h, h)
        if splus_pairing(w, h) != 0:
            raise ValueError("classes must be orthogonal")
        if ww >= 0 or hh > 0:
            raise ValueError("classes must have negative square")
        self.w = w
        self.h = h
        self.n = -ww // 2
        self.k = -hh // 2
        self.d = self.n * self.k
        self.theta_prime = _mult_sminus_to_v(w) @ _mult_v_to_sminus(h)
        sq = self.theta_prime @ self.theta_prime
        if sq != IntMatrix.identity(8).scale(-self.d):
            raise ValueError("theta' does not square to -d")
        self.theta_form = self.theta_prime.transpose() @ V_GRAM
        if self.theta_form.transpose() != self.theta_form.scale(-1):
            raise ValueError("polarization form is not alternating")

    def theta(self, x, y):
        """Theta_h(x, y) = (theta'(x), y)_V."""
        tx = self.theta_prime.apply(x)
        return v_pairing(tx, y)

    def hermitian(self, x, y):
        """H(x,y) = d (x,y) + sqrt(-d) (theta'(x), y), returned as the
        rational pair (real, imaginary-coefficient)."""
        return Fraction(self.d) * v_pairing(x, y), self.theta(x, y)


def weil_structure(w, h):
    return WeilStructure(w, h)


class ComplexStructureJ:
    """An exact complex structure on the rank-8 module from an orthogonal
    pair of rational classes of square -2."""

    __slots__ = ("u1", "u2", "matrix")

    def __init__(self, u1, u2):
        u1 = tuple(Fraction(x) for x in u1)
        u2 = tuple(Fraction(x) for x in u2)
        if splus_pairing(u1, u1) != -2 or splus_pairing(u2, u2) != -2:
            raise ValueError("plane basis classes must have square -2")
        if splus_pairing(u1, u2) != 0:
            raise ValueError("plane basis classes must be orthogonal")
        self.u1 = u1
        self.u2 = u2
        p1, q1 = clear_denominators(u1)
        p2, q2 = clear_denominators(u2)
        m1 = _mult_sminus_to_v(p1) @ _mult_v_to_sminus(p2)
        self.matrix = m1.to_rat().scale(Fraction(1, q1 * q2))
        if self.matrix @ self.matrix != RatMatrix.identity(8).scale(-1):
            raise ValueError("J^2 != -1")


def j_ell(u1, u2):
    return ComplexStructureJ(u1, u2)


def kahler_metric(ws, j):
    """g(x,y) = Theta_h(J x, y); returns (gram, sign) with sign +1 for
    positive definite and -1 for negative definite.

    Requires the plane of J orthogonal to both classes of the structure;
    raises ValueError when g is indefinite (incompatible inputs)."""
    for u in (j.u1, j.u2):
        if splus_pairing(u, ws.w) != 0 or splus_pairing(u, ws.h) != 0:
            raise ValueError("period plane must be orthogonal to both classes")
    t = ws.theta_form.to_rat()
    g = j.matrix.transpose() @ t
    if g.transpose() != g:
        raise ValueError("metric is not symmetric")
    for sign in (1, -1):
        ok = True
        for k in range(1, 9):
            minor = RatMatrix([row[:k] for row in g.scale(sign).data[:k]]).det()
            if minor <= 0:
                ok = False
                break
        if ok:
            return g, sign
    raise ValueError("metric is indefinite")


def anticommute_check(w, h, h_prime, f):
    """For pairwise orthogonal -2 classes h, h', f orthogonal to w:
    the complex structures of the planes (h', f) and (f, h) anticommute
    and produce the same metric for their respective structures.

    Returns (anticommute, metrics_equal).  Degenerate inputs (a repeated
    period, non-orthogonal classes) are rejected."""
    triple = (tuple(h), tuple(h_prime), tuple(f))
    for i in range(3):
        for j in range(i + 1, 3):
            if splus_pairing(triple[i], triple[j]) != 0:
                raise ValueError("classes must be pairwise orthogonal")
    ws = WeilStructure(w, h)
    ws_prime = WeilStructure(w, h_prime)
    j = j_ell(h_prime, f)
    j_prime = j_ell(f, h)
    lhs = j.matrix @ j_prime.matrix + j_prime.matrix @ j.matrix
    anticommute = lhs.is_zero()
    g1, _ = kahler_metric(ws, j)
    g2, _ = kahler_metric(ws_prime, j_prime)
    return anticommute, g1 == g2


def weil_multiplication_check(ws, a, b):
    """lambda = a + b sqrt(-d) acts with lambda* Theta = Nm(lambda) Theta."""
    lam = IntMatrix.identity(8).scale(a) + ws.theta_prime.scale(b)
    lhs = lam.transpose() @ ws.theta_form @ lam
    norm = a * a + b * b * ws.d
    return lhs == ws.theta_form.scale(norm)


def hermitian_sesquilinear_check(ws, rng, samples=20):
    """H(lambda x, y) = conj(lambda) H(x, y) on random vectors."""
    for _ in range(samples):
        x = tuple(rng.randint(-3, 3) for _ in range(8))
        y = tuple(rng.randint(-3, 3) for _ in range(8))
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        lam_x = tuple(a * xi + b * ti for xi, ti
                      in zip(x, ws.theta_prime.apply(x)))
        re1, im1 = ws.hermitian(lam_x, y)
        re0, im0 = ws.hermitian(x, y)
        # (a - b sqrt(-d)) (re0 + sqrt(-d) im0)
        re2 = a * re0 + b * ws.d * im0
        im2 = a * im0 - b * re0
        if (re1, im1) != (re2, im2):
            return False
    return True


# --- bounded searches ---------------------------------------------------------

def _square_candidates(basis, target, limit, max_bound=3):
    """Short coefficient vectors with the prescribed square, enumerated by
    growing coordinate bound (shortest first, deterministic).  Only one of
    each +-c pair is returned: squares are sign-invariant."""
    from itertools import product

    gram = _sub_gram(basis)
    r = gram.rows
    out = []
    for b in range(1, max_bound + 1):
        for c in product(range(-b, b + 1), repeat=r):
            if not any(c) or max(abs(x) for x in c) != b:
                continue
            for x in c:
                if x:
                    leading = x
                    break
            if leading < 0:
                continue
            s = 0
            for i in range(r):
                if c[i]:
                    gi = gram.data[i]
                    s += c[i] * sum(gi[j] * c[j] for j in range(r))
            if s == target:
                out.append(_combine(basis, c))
                if len(out) >= limit:
                    return out
    return out


def _sub_gram(basis):
    return IntMatrix([[splus_pairing(u, v) for v in basis] for u in basis])


def _combine(basis, coeffs):
    return tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(8))


def find_orthogonal_square_vectors(constraints, squares, rng=None,
                                   per_level=12, budget=300):
    """Integer even-half vectors v_1, v_2, ... orthogonal to the given
    constraint vectors and to each other, with the prescribed squares.

    Backtracking over bounded shortest-first candidate lists; a seed, when
    given, shuffles each level's list for sampling variety.  Raises
    SearchExhausted when the bounded search fails."""
    visits = [0]

    def rec(found):
        if len(found) == len(squares):
            return found
        visits[0] += 1
        if visits[0] > budget:
            raise SearchExhausted("search budget exhausted")
        basis = orthogonal_complement_basis(SPLUS, list(constraints) + found)
        candidates = _square_candidates(basis, squares[len(found)], per_level)
        if rng is not None:
            rng.shuffle(candidates)
        for cand in candidates:
            try:
                return rec(found + [cand])
            except SearchExhausted:
                if visits[0] > budget:
                    raise
                continue
        raise SearchExhausted("no vector of square %d in the complement"
                              % squares[len(found)])

    return rec([])


def random_weil_pair(rng, n_max=None, k_max=None, bound=2):
    """A seeded pair (w, h) of orthogonal primitive negative classes;
    SearchExhausted after 1000 drawn classes w."""
    for _ in range(1000):
        w = tuple(rng.randint(-bound, bound) for _ in range(8))
        if not any(w):
            continue
        g = vector_gcd(w)
        w = tuple(x // g for x in w)
        ww = splus_pairing(w, w)
        if ww >= 0:
            continue
        n = -ww // 2
        if n_max is not None and n > n_max:
            continue
        basis = orthogonal_complement_basis(SPLUS, [w])
        for _ in range(200):
            c = tuple(rng.randint(-bound, bound) for _ in range(len(basis)))
            if not any(c):
                continue
            h = _combine(basis, c)
            g = vector_gcd(h)
            h = tuple(x // g for x in h)
            hh = splus_pairing(h, h)
            if hh >= 0:
                continue
            k = -hh // 2
            if k_max is not None and k > k_max:
                continue
            return w, h
    raise SearchExhausted("no admissible pair in 1000 draws")


# --- the trivial-discriminant certificate ------------------------------------

class DiscriminantCertificate:
    """The constructive H-orthogonal basis and the square witness."""

    __slots__ = ("ws", "quadruple", "planes", "basis", "det_psi", "root",
                 "checks")

    def __init__(self, ws, quadruple, planes, basis, det_psi, root, checks):
        self.ws = ws
        self.quadruple = quadruple
        self.planes = planes
        self.basis = basis
        self.det_psi = det_psi
        self.root = root
        self.checks = checks

    def to_json(self):
        return {
            "w": list(self.ws.w),
            "h": list(self.ws.h),
            "d": self.ws.d,
            "quadruple": [list(v) for v in self.quadruple],
            "basis": [[str(c) for c in v] for v in self.basis],
            "det_psi": str(self.det_psi),
            "square_root_witness": str(self.root),
            "checks": self.checks,
        }


def _isotropic_plane(z):
    """The rank-4 rational kernel of multiplication V -> S- by an isotropic
    even-half class."""
    m = _mult_v_to_sminus(z)
    basis = rational_kernel(m.to_rat())
    if len(basis) != 4:
        raise SearchExhausted("isotropic class kernel is not 4-dimensional")
    return basis


def _intersect(space_a, space_b):
    """Basis of the intersection of two rational coordinate subspaces."""
    rows = [list(v) for v in space_a] + [list(v) for v in space_b]
    m = RatMatrix(rows)
    rel = rational_kernel(m.transpose())
    out = []
    for r in rel:
        vec = [Fraction(0)] * 8
        for c, v in zip(r[:len(space_a)], space_a):
            for i in range(8):
                vec[i] += c * v[i]
        out.append(tuple(vec))
    if not out:
        return []
    reduced, _ = RatMatrix(out).rref()
    return [tuple(r) for r in reduced.data if any(x != 0 for x in r)]


def _orthogonal_partner(a, plane, theta_prime):
    """b in the plane with (a, theta'(b)) = 0, as an integer vector."""
    r, s = plane[0], plane[1]
    tr = theta_prime.apply(r)
    ts = theta_prime.apply(s)
    lam = v_pairing(a, ts)
    mu = -v_pairing(a, tr)
    b = tuple(lam * ri + mu * si for ri, si in zip(r, s))
    if all(x == 0 for x in b):
        raise SearchExhausted("degenerate orthogonal partner")
    return primitive_vector(b)


def hermitian_and_discriminant(ws, rng):
    """The constructive basis of the trivial-discriminant proof.

    Finds a quadruple of squares (2,-2,2,-2) pairwise orthogonal inside
    the joint complement, builds the four isotropic-plane intersections as
    joint eigenspaces of the two involutions, picks the H-orthogonal basis
    and certifies det(Psi) = d^4 (x1,x1)^2 (x3,x3)^2 is a rational square.
    """
    e1, f1, e2, f2 = find_orthogonal_square_vectors(
        [ws.w, ws.h], (2, -2, 2, -2), rng)
    z1 = tuple(a - b for a, b in zip(e1, f1))
    z2 = tuple(a + b for a, b in zip(e1, f1))
    y1 = tuple(a - b for a, b in zip(e2, f2))
    y2 = tuple(a + b for a, b in zip(e2, f2))
    checks = {}

    lz = [_isotropic_plane(z1), _isotropic_plane(z2)]
    ly = [_isotropic_plane(y1), _isotropic_plane(y2)]
    planes = {}
    for i in (0, 1):
        for jj in (0, 1):
            inter = _intersect(lz[i], ly[jj])
            if len(inter) != 2:
                raise SearchExhausted("plane intersection is not 2-dimensional")
            planes[(i, jj)] = inter

    checks["planes_theta_invariant"] = all(
        in_span(ws.theta_prime.apply(v), planes[key])
        for key in planes for v in planes[key])

    # the two involutions: eta_i = m-pair of (e_i, f_i); squares to the
    # identity and reverses the sign of the V-pairing
    eta_checks = []
    for (e, f) in ((e1, f1), (e2, f2)):
        eta = m_tilde_pair(e, f)
        sq = eta @ eta
        v = _v_block(eta.matrix)
        eta_checks.append(
            sq.matrix.is_identity()
            and v.transpose() @ V_GRAM @ v == V_GRAM.scale(-1)
            and v @ ws.theta_prime == ws.theta_prime @ v)
    checks["eta_involutions"] = all(eta_checks)

    # joint eigencharacters of the two involutions on the four planes
    eta_v = [_v_block(m_tilde_pair(e1, f1).matrix),
             _v_block(m_tilde_pair(e2, f2).matrix)]
    signs = {}
    ok = True
    for key, plane in planes.items():
        pair = []
        for ev in eta_v:
            vals = set()
            for v in plane:
                img = ev.apply(v)
                for eps in (1, -1):
                    if tuple(img) == tuple(Fraction(eps) * x for x in v):
                        vals.add(eps)
            if len(vals) != 1:
                ok = False
                pair.append(0)
            else:
                pair.append(vals.pop())
        signs[key] = tuple(pair)
    checks["four_distinct_characters"] = ok and len(set(signs.values())) == 4

    a = _pick_pair(planes[(0, 0)], planes[(1, 1)], ws)
    ap = _pick_pair(planes[(0, 1)], planes[(1, 0)], ws)
    x1 = tuple(p + q for p, q in zip(a[0], a[1]))
    x2 = tuple(p - q for p, q in zip(a[0], a[1]))
    x3 = tuple(p + q for p, q in zip(ap[0], ap[1]))
    x4 = tuple(p - q for p, q in zip(ap[0], ap[1]))
    basis = (x1, x2, x3, x4)

    herm_ok = True
    for i in range(4):
        for jj in range(4):
            if i == jj:
                continue
            re, im = ws.hermitian(basis[i], basis[jj])
            if re != 0 or im != 0:
                herm_ok = False
    checks["basis_h_orthogonal"] = herm_ok

    det_psi = Fraction(1)
    for x in basis:
        re, im = ws.hermitian(x, x)
        if im != 0:
            raise ValueError("H(x, x) is not real")
        det_psi *= re
    expected = Fraction(ws.d) ** 4 * v_pairing(x1, x1) ** 2 * v_pairing(x3, x3) ** 2
    checks["det_formula"] = det_psi == expected
    ok, root = is_rational_square(det_psi)
    checks["det_is_rational_square"] = ok
    return DiscriminantCertificate(ws, (e1, f1, e2, f2), planes, basis,
                                   det_psi, root, checks)


def _pick_pair(plane_a, plane_b, ws):
    """a in the first plane, b in the second with (a,b) != 0 and
    (a, theta'(b)) = 0."""
    p, q = plane_a
    candidates = [p, q, tuple(x + y for x, y in zip(p, q)),
                  tuple(x - y for x, y in zip(p, q)),
                  tuple(x + 2 * y for x, y in zip(p, q))]
    for cand in candidates:
        a = primitive_vector(cand)
        try:
            b = _orthogonal_partner(a, plane_b, ws.theta_prime)
        except SearchExhausted:
            continue
        if v_pairing(a, b) != 0:
            return a, b
    raise SearchExhausted("no nondegenerate pair in the plane product")


def spin_wh_commutant_check(v_actions, ws):
    """Each rank-8 action must commute with theta' and preserve both parts
    of the Hermitian form; returns a list of booleans."""
    out = []
    t = ws.theta_form
    for m in v_actions:
        commutes = m @ ws.theta_prime == ws.theta_prime @ m
        real_ok = m.transpose() @ V_GRAM @ m == V_GRAM
        imag_ok = m.transpose() @ t @ m == t
        out.append(commutes and real_ok and imag_ok)
    return out
