"""Chern-character calculus on the product of the surface with its dual,
and the invariant degree-four class of the stabilizer.

The graded ring is the exterior algebra over Q on eight odd generators
(four from each factor); classes of K-theory objects are recorded by
their total Chern character, whose degree-zero part is the rank.  The
distinguished degree-four class is matched against the second Chern class
of the endomorphism bundle of the transform of a dual ideal-sheaf class,
and its invariance is certified by exact kernel computations on the
70-dimensional fourth wedge power of the rank-8 module.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from .clifford import degree, merge_sign
from .exact import IntMatrix, in_span, primitive_vector


class ExtRingElement:
    """Element of the exterior algebra on e1..e4, f1..f4 over Q, stored as
    a sparse mask -> coefficient mapping."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[m] = c

    @classmethod
    def scalar(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def generator(cls, i):
        return cls({1 << i: Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return ExtRingElement(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, ExtRingElement):
            return self.scale(other)
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                if a & b:
                    continue
                m = a | b
                v = out.get(m, Fraction(0)) + ca * cb * merge_sign(a, b)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return ExtRingElement(out)

    __rmul__ = __mul__

    def scale(self, k):
        return ExtRingElement({m: c * Fraction(k) for m, c in self.coeffs.items()})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, ExtRingElement) and self.coeffs == other.coeffs

    def graded_part(self, d):
        return ExtRingElement({m: c for m, c in self.coeffs.items()
                               if degree(m) == d})

    def is_zero(self):
        return not self.coeffs

    def dual(self):
        """Sign-alternating class: (-1)^k on degree 2k (odd parts negated
        degree-halved convention is irrelevant: only even classes occur)."""
        out = {}
        for m, c in self.coeffs.items():
            d = degree(m)
            if d % 2:
                raise ValueError("dual of an odd class is not used here")
            out[m] = c if (d // 2) % 2 == 0 else -c
        return ExtRingElement(out)

    def exp(self):
        """Exponential of a nilpotent even element of degree >= 2."""
        if not all(degree(m) >= 2 and degree(m) % 2 == 0
                   for m in self.coeffs):
            raise ValueError("exp needs even positive degree")
        total = ExtRingElement.scalar(1)
        power = ExtRingElement.scalar(1)
        k = 1
        while True:
            power = power * self
            if power.is_zero():
                break
            total = total + power.scale(Fraction(1, factorial(k)))
            k += 1
        return total

    def __repr__(self):
        return "ExtRingElement(%r)" % (self.coeffs,)


E = tuple(ExtRingElement.generator(i) for i in range(4))
F = tuple(ExtRingElement.generator(4 + i) for i in range(4))

# the three distinguished degree-four building blocks
ALPHA = sum((E[i] * F[i] for i in range(4)), ExtRingElement())
BETA = E[0] * E[1] * E[2] * E[3]          # point class of the first factor
GAMMA = F[0] * F[1] * F[2] * F[3]         # point class of the second factor
C1_P = ALPHA                               # first Chern class of the kernel


def fm_class(n):
    """The Chern character of the transform of the dual ideal-sheaf class:
    -n [O] + [fiber class of the second factor] - n [kernel bundle]
    + n^2 [fiber class of the first factor]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (ExtRingElement.scalar(-n) + GAMMA - C1_P.exp().scale(n)
            + BETA.scale(n * n))


def kappa2(ch):
    """Degree-four part of ch exp(-c1/rank) for a Chern character ch."""
    rank = ch.coeffs.get(0, 0)
    if rank == 0:
        raise ValueError("kappa needs nonzero rank")
    twist = ch.graded_part(2).scale(Fraction(-1, rank)).exp()
    return (ch * twist).graded_part(4)


def c2_end(ch):
    """Second Chern class of the endomorphism class of the K-class with
    Chern character ch: minus the degree-four part of ch times its dual
    (the first Chern class of the endomorphism class vanishes)."""
    if ch.coeffs.get(0, 0) == 0:
        raise ValueError("c2 of endomorphisms needs nonzero rank")
    end = ch * ch.dual()
    if not end.graded_part(2).is_zero():
        raise ValueError("first Chern class of the endomorphisms is nonzero")
    return -end.graded_part(4)


def c2_end_via_kappa(ch):
    """The same class through the kappa route: -2 rank kappa2(ch)."""
    return kappa2(ch).scale(-2 * ch.coeffs.get(0, 0))


# --- the invariant class in the fourth wedge power ---------------------------

WEDGE4_SUBSETS = tuple(combinations(range(8), 4))
WEDGE4_INDEX = {s: i for i, s in enumerate(WEDGE4_SUBSETS)}


def ext_to_wedge4(elt):
    """Coordinates of a degree-four element over the 70 sorted subsets."""
    out = [Fraction(0)] * 70
    for m, c in elt.coeffs.items():
        if degree(m) != 4:
            raise ValueError("class is not of pure degree four")
        subset = tuple(i for i in range(8) if m & (1 << i))
        out[WEDGE4_INDEX[subset]] = c
    return tuple(out)


def cayley_class(big_n):
    """-N^2 alpha^2 + 4 N^3 beta + 4 N gamma as a 70-coordinate vector,
    N = half the negated square of the stabilized class."""
    if big_n < 2:
        raise ValueError("parameter must be at least 2")
    elt = (ALPHA * ALPHA).scale(-big_n * big_n) \
        + BETA.scale(4 * big_n ** 3) + GAMMA.scale(4 * big_n)
    return ext_to_wedge4(elt)


# A 4x4 minor is the Laplace sum along its first two rows: over the six
# splits of its columns into halves (combinations order, signs + - + + - +),
# the top rows' 2x2 minor on one half times the bottom rows' on the other.
_PAIRS = tuple(combinations(range(8), 2))
_PAIR_INDEX = {p: i for i, p in enumerate(_PAIRS)}
_ROW_HALVES = tuple((_PAIR_INDEX[s[:2]], _PAIR_INDEX[s[2:]])
                    for s in WEDGE4_SUBSETS)
_COLUMN_SPLITS = tuple(
    tuple(_PAIR_INDEX[half] for a, b in combinations(range(4), 2)
          for half in ((s[a], s[b]),
                       tuple(c for c in s if c not in (s[a], s[b]))))
    for s in WEDGE4_SUBSETS)


def wedge4_matrix(m8):
    """The induced 70x70 integer matrix of an 8x8 matrix on the fourth
    wedge power (4x4 minors), built from the table of its 2x2 minors."""
    m = m8.data
    minors = [[m[i][k] * m[j][l] - m[i][l] * m[j][k] for k, l in _PAIRS]
              for i, j in _PAIRS]
    rows = []
    for top, bottom in _ROW_HALVES:
        u, v = minors[top], minors[bottom]
        rows.append(tuple(
            u[p0] * v[q0] - u[p1] * v[q1] + u[p2] * v[q2]
            + u[p3] * v[q3] - u[p4] * v[q4] + u[p5] * v[q5]
            for p0, q0, p1, q1, p2, q2, p3, q3, p4, q4, p5, q5
            in _COLUMN_SPLITS))
    return IntMatrix._wrap(rows)


def invariant_rank(v_actions, expect_contains=None):
    """Exact rank and basis of the joint fixed space of the fourth wedge
    powers of the given 8x8 actions.

    Returns (rank, basis), the basis a list of 70-coordinate tuples of
    Fractions in reduced echelon form with pivots taken from the last
    coordinate: each vector's last nonzero coordinate is 1 and is 0 in
    the others, which are sorted by it (a rank-1 basis ends in 1).

    The first action cuts the full space by ker(wedge4(g) - id); each
    later action cuts the current basis.  That working basis is kept
    integral and primitive, so images and recombinations run on ints."""
    basis = None
    for m8 in v_actions:
        if basis == []:
            break
        diff = wedge4_matrix(m8) - IntMatrix.identity(70)
        if basis is None:
            basis = diff.kernel()
            continue
        # kernel of the 70 x len(basis) map expressed in the current basis
        columns = IntMatrix._wrap(zip(*basis))
        basis = [primitive_vector(columns.apply(v)) for v in (diff @ columns).kernel()]
    if basis is None:
        basis = [tuple(int(i == j) for i in range(70)) for j in range(70)]
    if expect_contains is not None and not in_span(expect_contains, basis):
        raise ValueError("expected class missing from the fixed space")
    if not basis:
        return 0, []
    rows, pivots = IntMatrix._wrap([b[::-1] for b in basis]).echelon()
    return len(basis), [tuple(Fraction(x, row[c]) for x in reversed(row))
                        for row, c in zip(reversed(rows), reversed(pivots))]


def proportional(u, v):
    """Whether two vectors are nonzero rational multiples of each other."""
    return any(u) and any(v) and in_span(v, [u])
