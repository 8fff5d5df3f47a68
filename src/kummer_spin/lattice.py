"""Integer lattices with symmetric bilinear forms.

Reflections in square +-2 vectors, the determinant / discriminant-sign /
orientation characters of their isometries, and discriminant groups
computed from Smith normal form of the Gram matrix.
"""

from fractions import Fraction

from .exact import IntMatrix, integer_kernel, primitive_vector, smith_normal_form


class SearchExhausted(RuntimeError):
    """A bounded search for lattice vectors found nothing: a report-level
    condition, not a failure of the underlying theory."""


def sample_accepted(draw, accept, count, what, cap):
    """The first count (at least one) values of draw(i), i < cap, that
    accept takes, in draw order; a draw that raises SearchExhausted is
    rejected.  Raises SearchExhausted when cap draws yield fewer."""
    out = []
    for i in range(cap):
        try:
            value = draw(i)
        except SearchExhausted:
            continue
        if accept(value):
            out.append(value)
            if len(out) == count:
                return out
    raise SearchExhausted("%s: fewer than %d in %d draws" % (what, count, cap))


class IntLattice:
    """A free Z-module of finite rank with a symmetric Gram matrix."""

    def __init__(self, gram, label=""):
        if not isinstance(gram, IntMatrix):
            gram = IntMatrix(gram)
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.rank = gram.rows
        self.gram = gram
        self.label = label
        self._positive_basis = None

    def pairing(self, x, y):
        x = _coords(x, self.rank)
        y = _coords(y, self.rank)
        gy = self.gram.apply(y)
        return sum(a * b for a, b in zip(x, gy))

    def square(self, x):
        return self.pairing(x, x)

    def is_even(self):
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def vector(self, coords):
        return LatticeVector(self, coords)

    def to_json(self):
        return {"label": self.label, "gram": [list(r) for r in self.gram.data]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["gram"], obj.get("label", ""))

    def positive_basis(self):
        """A fixed basis of a maximal positive-definite subspace, as
        primitive integral vectors.

        Computed once per lattice by integer Gram-Schmidt, so that the
        orientation character is deterministic.
        """
        if self._positive_basis is None:
            self._positive_basis = tuple(
                v for v in _diagonalize(self) if self.square(v) > 0)
        return self._positive_basis

    def __repr__(self):
        return "IntLattice(rank=%d, label=%r)" % (self.rank, self.label)


class LatticeVector:
    """Integer coordinate vector attached to its lattice."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != lattice.rank:
            raise ValueError("coordinate length != lattice rank")
        self.lattice = lattice
        self.coords = coords

    def square(self):
        return self.lattice.square(self.coords)

    def __eq__(self, other):
        return (isinstance(other, LatticeVector)
                and self.lattice is other.lattice
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.lattice), self.coords))

    def __repr__(self):
        return "LatticeVector(%r)" % (self.coords,)

    def to_json(self):
        return list(self.coords)


class LatticeIsometry:
    """An integer matrix M with M^T G M == G for the lattice's Gram G."""

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        if matrix.transpose() @ lattice.gram @ matrix != lattice.gram:
            raise ValueError("matrix does not preserve the bilinear form")
        self.lattice = lattice
        self.matrix = matrix

    def __matmul__(self, other):
        if other.lattice is not self.lattice:
            raise ValueError("isometries of different lattices")
        return LatticeIsometry(self.lattice, self.matrix @ other.matrix)

    def __eq__(self, other):
        return isinstance(other, LatticeIsometry) and self.matrix == other.matrix

    def apply(self, vec):
        return self.matrix.apply(_coords(vec, self.lattice.rank))

    def det(self):
        return self.matrix.det()

    def inverse(self):
        """M^-1 read off the echelon form of [M | I]: row r over its pivot."""
        n = self.lattice.rank
        eye = IntMatrix.identity(n).data
        aug = IntMatrix._wrap(row + e for row, e in zip(self.matrix.data, eye))
        rows, pivots = aug.echelon()
        if pivots != list(range(n)):
            raise ValueError("isometry is singular")
        inv = []
        for r, row in enumerate(rows):
            if any(x % row[r] for x in row[n:]):
                raise ValueError("inverse is not integral")
            inv.append([x // row[r] for x in row[n:]])
        return LatticeIsometry(self.lattice, IntMatrix._wrap(inv))


def _coords(x, rank):
    if isinstance(x, LatticeVector):
        x = x.coords
    x = tuple(x)
    if len(x) != rank:
        raise ValueError("coordinate length != lattice rank")
    return x


def _diagonalize(lattice):
    """Primitive integer vectors on which the form is diagonal and nonzero
    (for a nondegenerate form), by Gram-Schmidt on integer vectors: the
    pivot v is taken from the working basis, and every other b becomes
    the primitive vector on (v,v) b - (b,v) v, so the rest stay
    independent."""
    n = lattice.rank
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out = []
    while basis:
        k = next((i for i, b in enumerate(basis) if lattice.square(b)), None)
        if k is None:
            # all isotropic: b_i + b_j has square 2 (b_i, b_j) for some pair
            pair = next(((i, j) for i in range(len(basis))
                         for j in range(i + 1, len(basis))
                         if lattice.pairing(basis[i], basis[j])), None)
            if pair is None:
                break  # degenerate remainder
            k, j = pair
            basis[k] = primitive_vector(tuple(a + b for a, b in zip(basis[k], basis[j])))
        v = basis.pop(k)
        out.append(v)
        vv = lattice.square(v)
        for i, b in enumerate(basis):
            bv = lattice.pairing(b, v)
            basis[i] = primitive_vector(tuple(vv * x - bv * y for x, y in zip(b, v)))
    return out


def reflection(lattice, u):
    """R_u(x) = x - 2 (x,u)/(u,u) u, for (u,u) = +-2 on an even lattice."""
    u = _coords(u, lattice.rank)
    gu = lattice.gram.apply(u)
    uu = sum(a * b for a, b in zip(u, gu))
    if uu not in (2, -2):
        raise ValueError("reflection needs (u,u) = +-2, got %d" % uu)
    if not lattice.is_even():
        raise ValueError("reflection formula requires an even lattice")
    # R = I - u (2 Gu/(u,u))^T, as (e_j,u) = (Gu)_j; 2/(u,u) = +-1
    coef = [2 * x // uu for x in gu]
    n = lattice.rank
    mat = IntMatrix([int(i == j) - u[i] * coef[j] for j in range(n)] for i in range(n))
    return LatticeIsometry(lattice, mat)


def signed_reflection(lattice, u):
    """r_u = ((u,u)/-2) R_u; the reflection itself for -2 vectors,
    minus the reflection for +2 vectors."""
    u = _coords(u, lattice.rank)
    uu = lattice.square(u)
    r = reflection(lattice, u)
    return LatticeIsometry(lattice, r.matrix.scale(uu // -2))


def det_character(g):
    d = g.det()
    if d not in (1, -1):
        raise ValueError("isometry determinant %d is not +-1" % d)
    return d


class DiscriminantGroup:
    """L*/L for a nondegenerate lattice, with generator lifts in L* ⊗ Q."""

    __slots__ = ("lattice", "factors", "lifts", "order")

    def __init__(self, lattice, factors, lifts):
        self.lattice = lattice
        self.factors = tuple(factors)
        self.lifts = tuple(lifts)
        self.order = 1
        for f in self.factors:
            self.order *= f

    def is_trivial(self):
        return self.order == 1


def discriminant_group(lattice):
    """Invariant factors and generator lifts of L*/L from SNF of the Gram."""
    det = lattice.gram.det()
    if det == 0:
        raise ValueError("degenerate Gram matrix")
    snf = smith_normal_form(lattice.gram)
    # left G right = D gives G^-1 left^-1 = right D^-1: the lift
    # G^-1 left^-1 e_k is column k of right divided by f_k
    factors = []
    lifts = []
    for k, f in enumerate(snf.invariant_factors):
        if f > 1:
            factors.append(f)
            lifts.append(tuple(Fraction(x, f) for x in snf.right.column(k)))
    group = DiscriminantGroup(lattice, factors, lifts)
    if group.order != abs(det):
        raise ValueError("discriminant group order is not |det|")
    return group


def chi_character(lattice, g, disc=None):
    """The sign by which the isometry g acts on L*/L.

    Raises if the action is not multiplication by +-1 (the character is
    only defined on the relevant reflection group).
    """
    if disc is None:
        disc = discriminant_group(lattice)
    if disc.is_trivial():
        return 1
    for eps in (1, -1):
        ok = True
        for lift in disc.lifts:
            image = g.matrix.apply(lift)
            if any((a - eps * b).denominator != 1 for a, b in zip(image, lift)):
                ok = False
                break
        if ok:
            return eps
    raise ValueError("isometry does not act by +-1 on the discriminant group")


def ort_character(lattice, g):
    """Orientation character: sign of det of (project to P) o g restricted
    to a maximal positive-definite subspace P.  Independent of the choice
    of P's basis.

    With B a basis of P in integral columns, that map has the matrix
    (B^T G B)^-1 B^T G M B, and det(B^T G B) > 0, so the sign is that of
    the integer det(B^T G M B)."""
    basis = lattice.positive_basis()
    if not basis:
        return 1
    images = [g.matrix.apply(v) for v in basis]
    d = IntMatrix([[lattice.pairing(u, w) for w in images] for u in basis]).det()
    if d == 0:
        raise ValueError("degenerate projection; not an isometry?")
    return 1 if d > 0 else -1


def orthogonal_complement_basis(lattice, vectors):
    """Integral basis of the sublattice orthogonal to the given vectors."""
    rows = [lattice.gram.apply(_coords(v, lattice.rank)) for v in vectors]
    return integer_kernel(IntMatrix(rows))


def sublattice(lattice, basis_vectors, label=""):
    """The lattice on the given independent vectors with restricted form."""
    g = [[lattice.pairing(u, v) for v in basis_vectors] for u in basis_vectors]
    return IntLattice(g, label)
