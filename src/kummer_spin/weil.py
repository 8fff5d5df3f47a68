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
from math import gcd, isqrt

from .clifford import SPLUS_GRAM, V_GRAM, splus_pairing, v_pairing
from .exact import (IntMatrix, clear_denominators, in_span, is_rational_square,
                    primitive_vector)
from .lattice import (SearchExhausted, orthogonal_complement_basis,
                      sample_accepted)
from .triality import (SPLUS_LATTICE as SPLUS, S_MINUS, V, m_tilde_pair,
                       multiplication_block)


def _composite(u, v):
    """The Clifford product m_u m_v on V of two orthogonal integer
    even-half classes, certified to square to -(u,u)(v,v)/4 (an integer:
    the even half is an even lattice)."""
    if splus_pairing(u, v) != 0:
        raise ValueError("classes must be orthogonal")
    m = multiplication_block(u, V, S_MINUS) @ multiplication_block(v, S_MINUS, V)
    square = splus_pairing(u, u) * splus_pairing(v, v) // 4
    if m @ m != IntMatrix.identity(8).scale(-square):
        raise ValueError("m_u m_v does not square to -(u,u)(v,v)/4")
    return m


class WeilStructure:
    """The endomorphism package of an orthogonal pair of negative
    even-half classes."""

    __slots__ = ("w", "h", "n", "k", "d", "theta_prime", "theta_form")

    def __init__(self, w, h):
        w = tuple(int(x) for x in w)
        h = tuple(int(x) for x in h)
        self.theta_prime = _composite(w, h)
        ww = splus_pairing(w, w)
        hh = splus_pairing(h, h)
        if ww >= 0 or hh > 0:
            raise ValueError("classes must have negative square")
        self.w = w
        self.h = h
        self.n = -ww // 2
        self.k = -hh // 2
        self.d = self.n * self.k
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
    pair of rational classes of square -2 (ints or Fractions), held as the
    integer matrix num over the positive integer den: J = num / den."""

    __slots__ = ("u1", "u2", "num", "den")

    def __init__(self, u1, u2):
        self.u1 = u1 = tuple(u1)
        self.u2 = u2 = tuple(u2)
        p1, q1 = clear_denominators(u1)
        p2, q2 = clear_denominators(u2)
        if (splus_pairing(p1, p1) != -2 * q1 * q1
                or splus_pairing(p2, p2) != -2 * q2 * q2):
            raise ValueError("plane basis classes must have square -2")
        # num^2 = -(p1,p1)(p2,p2)/4 = -den^2, so J^2 = -1
        self.num = _composite(p1, p2)
        self.den = q1 * q2


def j_ell(u1, u2):
    return ComplexStructureJ(u1, u2)


def kahler_metric(ws, j):
    """g(x,y) = Theta_h(J x, y); returns (den * g, sign): the integer Gram
    num^T Theta of g times the positive den of J, and sign +1 for positive
    definite and -1 for negative definite.

    Requires the plane of J orthogonal to both classes of the structure;
    raises ValueError when g is indefinite (incompatible inputs).  As den
    is positive, the leading minors of den * g have the signs of those of
    g."""
    for u in (j.u1, j.u2):
        if splus_pairing(u, ws.w) != 0 or splus_pairing(u, ws.h) != 0:
            raise ValueError("period plane must be orthogonal to both classes")
    g = j.num.transpose() @ ws.theta_form
    if not g.is_symmetric():
        raise ValueError("metric is not symmetric")
    minors = [g.block(0, 0, k, k).det() for k in range(1, 9)]
    for sign in (1, -1):
        if all(sign ** k * m > 0 for k, m in enumerate(minors, 1)):
            return g, sign
    raise ValueError("metric is indefinite")


def anticommute_check(w, h, h_prime, f):
    """For pairwise orthogonal -2 classes h, h', f orthogonal to w:
    the complex structures of the planes (h', f) and (f, h) anticommute
    and produce the same metric for their respective structures.

    Returns (anticommute, metrics_equal).  Degenerate inputs (a repeated
    period, non-orthogonal classes) are rejected."""
    if splus_pairing(h, h_prime) or splus_pairing(h, f) or splus_pairing(h_prime, f):
        raise ValueError("classes must be pairwise orthogonal")
    ws = WeilStructure(w, h)
    ws_prime = WeilStructure(w, h_prime)
    j = j_ell(h_prime, f)
    j_prime = j_ell(f, h)
    # the denominators are positive scalars, so the numerators decide
    anticommute = (j.num @ j_prime.num + j_prime.num @ j.num).is_zero()
    g1, _ = kahler_metric(ws, j)
    g2, _ = kahler_metric(ws_prime, j_prime)
    return anticommute, g1.scale(j_prime.den) == g2.scale(j.den)


def weil_multiplication_check(ws, a, b):
    """lambda = a + b sqrt(-d) acts with lambda* Theta = Nm(lambda) Theta."""
    lam = IntMatrix.identity(8).scale(a) + ws.theta_prime.scale(b)
    lhs = lam.transpose() @ ws.theta_form @ lam
    norm = a * a + b * b * ws.d
    return lhs == ws.theta_form.scale(norm)


def hermitian_sesquilinear_check(ws, rng):
    """H(lambda x, y) = conj(lambda) H(x, y) on 20 random vectors."""
    for _ in range(20):
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
    each +-c pair is returned, the one with positive leading coordinate:
    squares are sign-invariant.

    For each bound b the vectors of the shell max|c| = b come in
    lexicographic order: the leading coordinates run depth-first with
    q = c^T G c and the pairings (G c)_j kept up to date, and the last
    coordinate solves a x^2 + 2 L x + q = target exactly."""
    m = IntMatrix._wrap(basis)
    gram = (m @ SPLUS_GRAM @ m.transpose()).data
    last = len(gram) - 1
    out = []

    def walk(b, c, q, pair, shell):
        # c holds the coordinates set so far, pair[i] = (G c)_{len(c) + i}
        k = len(c)
        if k == last:
            for x in _roots(gram[k][k], pair[0], q - target, b):
                if (shell or abs(x) == b) and (x > 0 or any(c)):
                    out.append(_combine(basis, c + (x,)))
                    if len(out) >= limit:
                        return True
            return False
        row = gram[k][k:]
        for v in range(-b if any(c) else 0, b + 1):
            if walk(b, c + (v,), q + v * (2 * pair[0] + v * row[0]),
                    [p + v * g for p, g in zip(pair[1:], row[1:])],
                    shell or abs(v) == b):
                return True
        return False

    for b in range(1, max_bound + 1):
        if walk(b, (), 0, [0] * (last + 1), False):
            break
    return out


def _roots(a, m, c, bound):
    """Integers x in [-bound, bound] with a x^2 + 2 m x + c = 0, ascending."""
    if a == 0:
        if m == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        x, rem = divmod(-c, 2 * m)
        return (x,) if rem == 0 and -bound <= x <= bound else ()
    disc = m * m - a * c
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    roots = {x for x, rem in (divmod(-m - s, a), divmod(-m + s, a)) if rem == 0}
    return sorted(x for x in roots if -bound <= x <= bound)


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


def _negative_class(v, bound):
    """The primitive part of a nonzero v when its square vv is negative
    with -vv // 2 <= bound (no limit when bound is None); else None."""
    if not any(v):
        return None
    g = gcd(*v)
    v = tuple(x // g for x in v)
    vv = splus_pairing(v, v)
    return v if vv < 0 and (bound is None or -vv // 2 <= bound) else None


def random_weil_pair(rng, n_max=None, k_max=None):
    """A seeded pair (w, h) of orthogonal primitive negative classes:
    1000 drawn classes w, then 200 drawn h orthogonal to each."""
    def draw_pair(_):
        w = _negative_class(tuple(rng.randint(-2, 2) for _ in range(8)), n_max)
        if w is None:
            return None
        basis = orthogonal_complement_basis(SPLUS, [w])
        (h,) = sample_accepted(lambda _: _negative_class(_combine(
            basis, [rng.randint(-2, 2) for _ in basis]), k_max),
            bool, 1, "negative classes orthogonal to w", 200)
        return w, h

    return sample_accepted(draw_pair, bool, 1, "admissible (w, h) pairs",
                           1000)[0]


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


def _isotropic_plane(z):
    """The rank-4 kernel of multiplication V -> S- by an isotropic
    even-half class, as primitive integer vectors.  A nonzero null
    half-spinor of Spin(4,4) is pure, so any other rank is a fault."""
    basis = multiplication_block(z, S_MINUS, V).kernel()
    if len(basis) != 4:
        raise ValueError("isotropic class kernel is not 4-dimensional")
    return basis


def _intersect(space_a, space_b):
    """RREF rows (Fractions) of the intersection of two integer-spanned spaces."""
    rel = IntMatrix._wrap([*space_a, *space_b]).transpose().kernel()
    out = [_combine(space_a, r[:len(space_a)]) for r in rel]
    if not out:
        return []
    rows, pivots = IntMatrix._wrap(out).echelon()
    return [tuple(Fraction(x, row[c]) for x in row)
            for row, c in zip(rows, pivots)]


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
    checks = {}

    # the planes of the isotropic classes e - f and e + f of each pair: two
    # orthogonal independent pure spinors of one chirality meet in a plane
    lz, ly = ([_isotropic_plane(tuple(a + s * b for a, b in zip(e, f)))
               for s in (-1, 1)] for e, f in ((e1, f1), (e2, f2)))
    planes = {}
    for i in (0, 1):
        for jj in (0, 1):
            inter = _intersect(lz[i], ly[jj])
            if len(inter) != 2:
                raise ValueError("plane intersection is not 2-dimensional")
            planes[(i, jj)] = inter

    checks["planes_theta_invariant"] = all(
        in_span(ws.theta_prime.apply(v), planes[key])
        for key in planes for v in planes[key])

    # the two involutions: eta_i = m-pair of (e_i, f_i); squares to the
    # identity and reverses the sign of the V-pairing
    etas = [m_tilde_pair(e1, f1), m_tilde_pair(e2, f2)]
    eta_v = [eta.matrix.block(V, V, 8, 8) for eta in etas]
    checks["eta_involutions"] = all(
        (eta @ eta).matrix.is_identity()
        and v.transpose() @ V_GRAM @ v == V_GRAM.scale(-1)
        and v @ ws.theta_prime == ws.theta_prime @ v
        for eta, v in zip(etas, eta_v))

    # joint eigencharacters of the two involutions on the four planes: the
    # signs eps with eta v = eps v for some v of the plane, scaled to integers
    signs = []
    for plane in planes.values():
        vs = [primitive_vector(v) for v in plane]
        signs.append(tuple(frozenset(
            eps for v, img in zip(vs, map(ev.apply, vs))
            for eps in (1, -1) if img == tuple(eps * x for x in v))
            for ev in eta_v))
    checks["four_distinct_characters"] = (
        all(len(s) == 1 for pair in signs for s in pair)
        and len(set(signs)) == 4)

    a = _pick_pair(planes[(0, 0)], planes[(1, 1)], ws)
    ap = _pick_pair(planes[(0, 1)], planes[(1, 0)], ws)
    basis = tuple(tuple(p + s * q for p, q in zip(*pair))
                  for pair in (a, ap) for s in (1, -1))
    x1, x3 = basis[0], basis[2]

    checks["basis_h_orthogonal"] = all(
        ws.hermitian(x, y) == (0, 0)
        for i, x in enumerate(basis) for jj, y in enumerate(basis) if i != jj)

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
    (a, theta'(b)) = 0.

    The partner b(a) is linear in a, so (a, b(a)) is a binary quadratic
    form on the first plane: when it vanishes (or b does) at p, q and
    p + q it vanishes on the whole plane, and no further draw can help."""
    p, q = plane_a

    def draw(i):
        s, t = ((1, 0), (0, 1), (1, 1))[i]
        a = primitive_vector(tuple(s * x + t * y for x, y in zip(p, q)))
        return a, _orthogonal_partner(a, plane_b, ws.theta_prime)

    return sample_accepted(draw, lambda ab: v_pairing(*ab) != 0, 1,
                           "nondegenerate pairs in the plane product", 3)[0]


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
