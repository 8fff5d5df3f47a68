"""Exact integer and rational linear algebra on small matrices.

Everything here is arbitrary-precision: entries are Python ints or
fractions.Fraction, never floats.  Matrices are immutable after
construction and all operations return fresh values.  They are stored
densely, but most operands (Clifford elements, automorphisms of the
24-dimensional algebra) are signed permutations or close to them, so
products and matrix-vector products skip zero entries.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from operator import add, sub


def _as_int(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError("entry %r is not an integer" % (x,))
        return x.numerator
    raise TypeError("integer entry expected, got %r" % (x,))


def _as_frac(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("rational entry expected, got %r" % (x,))


class _Matrix:
    """Shared matrix plumbing; subclasses fix the entry domain and its zero."""

    __slots__ = ("rows", "cols", "data")
    _cast = None
    _zero = None

    def __init__(self, data):
        cast = type(self)._cast
        rows = tuple(tuple(cast(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.data = rows

    @classmethod
    def _wrap(cls, rows):
        """Internal fast path, unchecked: rows must be nonempty, of equal
        positive length, with entries in the right domain."""
        obj = object.__new__(cls)
        obj.data = rows = tuple(map(tuple, rows))
        obj.rows = len(rows)
        obj.cols = len(rows[0])
        return obj

    @classmethod
    def identity(cls, n):
        return cls.diagonal((1,) * n)

    @classmethod
    def diagonal(cls, entries):
        if not entries:
            raise ValueError("matrix dimensions must be positive")
        zeros = (cls._zero,) * len(entries)
        return cls._wrap(zeros[:i] + (cls._cast(x),) + zeros[i + 1:]
                         for i, x in enumerate(entries))

    @classmethod
    def block_diagonal(cls, *blocks):
        """The matrix with the given blocks along its diagonal, zero elsewhere."""
        if not blocks:
            raise ValueError("matrix dimensions must be positive")
        if any(type(b) is not cls for b in blocks):
            raise TypeError("block_diagonal needs %s blocks" % cls.__name__)
        width = sum(b.cols for b in blocks)
        rows, left = [], 0
        for b in blocks:
            before = (cls._zero,) * left
            after = (cls._zero,) * (width - left - b.cols)
            rows += [before + row + after for row in b.data]
            left += b.cols
        return cls._wrap(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def block(self, i, j, rows, cols):
        """The rows x cols submatrix whose top left entry is (i, j)."""
        if not (0 <= i and 0 < rows and i + rows <= self.rows
                and 0 <= j and 0 < cols and j + cols <= self.cols):
            raise ValueError("block out of range")
        return type(self)._wrap(row[j:j + cols] for row in self.data[i:i + rows])

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        return isinstance(other, _Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, [list(r) for r in self.data])

    def __add__(self, other):
        self._check_same_shape(other)
        return type(self)._wrap(map(add, ra, rb) for ra, rb in zip(self.data, other.data))

    def __sub__(self, other):
        self._check_same_shape(other)
        return type(self)._wrap(map(sub, ra, rb) for ra, rb in zip(self.data, other.data))

    def __matmul__(self, other):
        """Row i of the product is the combination of the rows of other
        with the entries of row i of self as coefficients: zero entries
        are skipped, and +1 or -1 adds or subtracts the row."""
        if type(other) is not type(self):
            raise TypeError("cannot multiply %s by %s"
                            % (type(self).__name__, type(other).__name__))
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        zero_row = (self._zero,) * other.cols
        out = []
        for row in self.data:
            acc = None
            for c, brow in compress(zip(row, other.data), row):
                if acc is None:
                    acc = brow if c == 1 else [c * b for b in brow]
                elif c == 1:
                    acc = list(map(add, acc, brow))
                elif c == -1:
                    acc = list(map(sub, acc, brow))
                else:
                    acc = [a + c * b for a, b in zip(acc, brow)]
            out.append(zero_row if acc is None else acc)
        return type(self)._wrap(out)

    def scale(self, k):
        k = self._cast(k)
        return type(self)._wrap([k * a for a in row] for row in self.data)

    def transpose(self):
        return type(self)._wrap(zip(*self.data))

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple; zero entries of
        the vector are skipped.  Entries are Fractions when the matrix or
        the vector holds any, ints otherwise."""
        if len(vec) != self.cols:
            raise ValueError("vector length %d != %d columns" % (len(vec), self.cols))
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        zero = RatMatrix._zero if Fraction in map(type, vec) else self._zero
        return tuple(sum((row[j] * x for j, x in nonzero), zero) for row in self.data)

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows) for j in range(i))

    def is_identity(self):
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def det(self):
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0 * prev
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                    if isinstance(num, int):
                        m[i][j] = num // prev
                    else:
                        m[i][j] = num / prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def _check_same_shape(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


class IntMatrix(_Matrix):
    """Dense matrix over the integers."""

    __slots__ = ()
    _cast = staticmethod(_as_int)
    _zero = 0

    def to_rat(self):
        return RatMatrix(self.data)

    def echelon(self):
        """Fraction-free Gauss-Jordan with row-gcd reduction (not Bareiss's
        exact division); returns (rows, pivot columns).  Each pivot row is
        zero in every other pivot column, so row r over its pivot is row r
        of the reduced row echelon form."""
        m = [list(row) for row in self.data]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow, p = m[r], m[r][c]
            for i, row in enumerate(m):
                f = row[c]
                if f and i != r:
                    row = [p * a - f * b for a, b in zip(row, prow)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
        return [tuple(row) for row in m[:len(pivots)]], pivots

    def kernel(self):
        """Basis of ker(self): per non-pivot column f, the primitive integer
        vector positive at f and zero at the other non-pivot columns.  This
        is primitive_vector of each vector of rational_kernel, in order."""
        rows, pivots = self.echelon()
        big = lcm(*(row[c] for row, c in zip(rows, pivots)))
        basis = []
        for f in sorted(set(range(self.cols)).difference(pivots)):
            v = [0] * self.cols
            v[f] = big
            for row, c in zip(rows, pivots):
                v[c] = -row[f] * (big // row[c])
            g = gcd(*v)
            basis.append(tuple(x // g for x in v))
        return basis

    def rank(self):
        return len(self.echelon()[1])


class RatMatrix(_Matrix):
    """Dense matrix over the rationals (entries normalized Fractions)."""

    __slots__ = ()
    _cast = staticmethod(_as_frac)
    _zero = Fraction(0)

    def to_int(self):
        return IntMatrix(self.data)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = [list(row) for row in self.data]
        nrows, ncols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(ncols):
            pr = None
            for i in range(r, nrows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return RatMatrix(m), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(self.data)]
        reduced, pivots = RatMatrix(aug).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix([row[n:] for row in reduced.data])

    def solve(self, rhs):
        """Solve self @ x = rhs exactly; raises on inconsistent/singular systems."""
        n = self.rows
        if len(rhs) != n:
            raise ValueError("rhs length mismatch")
        aug = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(self.data)]
        reduced, pivots = RatMatrix(aug).rref()
        if self.cols in pivots:
            raise ValueError("inconsistent system")
        x = [Fraction(0)] * self.cols
        for r, c in enumerate(pivots):
            x[c] = reduced.data[r][self.cols]
        for i in range(len(pivots), n):
            if reduced.data[i][self.cols] != 0:
                raise ValueError("inconsistent system")
        if len(pivots) < self.cols:
            raise ValueError("underdetermined system")
        return tuple(x)


def rational_kernel(a):
    """Exact basis of ker(a) for a RatMatrix (or IntMatrix), as coordinate tuples.

    The returned vectors satisfy a @ v = 0 exactly;
    len(basis) + rank(a) == a.cols.
    """
    if isinstance(a, IntMatrix):
        a = a.to_rat()
    reduced, pivots = a.rref()
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.data[r][fc]
        basis.append(tuple(v))
    return basis


def in_span(vec, basis):
    """Whether vec lies in the span of the independent vectors in basis."""
    rows = [primitive_vector(v) for v in (*basis, vec)]
    return IntMatrix(rows).rank() == len(basis)


class SmithForm:
    """Decomposition left @ a @ right == diagonal(invariant_factors)."""

    __slots__ = ("matrix", "left", "right", "invariant_factors")

    def __init__(self, matrix, left, right, invariant_factors):
        self.matrix = matrix
        self.left = left
        self.right = right
        self.invariant_factors = tuple(invariant_factors)

    def diagonal(self):
        d = [[0] * self.matrix.cols for _ in range(self.matrix.rows)]
        for k, f in enumerate(self.invariant_factors):
            d[k][k] = f
        return IntMatrix(d)


def _ext_gcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b == g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(a):
    """Smith normal form with unimodular transforms.

    Pivot-minimizing elimination with Bezout 2x2 blocks (one gcd step
    clears an entry, which keeps intermediate entries tame); the
    invariant factors are nonnegative and satisfy d1 | d2 | ... .
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    nr, nc = a.rows, a.cols
    w = [list(row) for row in a.data]
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        w[i], w[j] = w[j], w[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def clear_in_column(k, i):
        # make w[i][k] == 0 via a unimodular op on rows k and i
        aa, bb = w[k][k], w[i][k]
        if bb % aa == 0:
            q = bb // aa
            w[i] = [x - q * y for x, y in zip(w[i], w[k])]
            left[i] = [x - q * y for x, y in zip(left[i], left[k])]
        else:
            g, s, t = _ext_gcd(aa, bb)
            u, v = aa // g, bb // g
            wk, wi = w[k], w[i]
            w[k] = [s * x + t * y for x, y in zip(wk, wi)]
            w[i] = [u * y - v * x for x, y in zip(wk, wi)]
            lk, li = left[k], left[i]
            left[k] = [s * x + t * y for x, y in zip(lk, li)]
            left[i] = [u * y - v * x for x, y in zip(lk, li)]

    def clear_in_row(k, j):
        # make w[k][j] == 0 via a unimodular op on columns k and j
        aa, bb = w[k][k], w[k][j]
        if bb % aa == 0:
            q = bb // aa
            for row in w:
                row[j] -= q * row[k]
            for row in right:
                row[j] -= q * row[k]
        else:
            g, s, t = _ext_gcd(aa, bb)
            u, v = aa // g, bb // g
            for row in w:
                ck, cj = row[k], row[j]
                row[k] = s * ck + t * cj
                row[j] = u * cj - v * ck
            for row in right:
                ck, cj = row[k], row[j]
                row[k] = s * ck + t * cj
                row[j] = u * cj - v * ck

    for k in range(min(nr, nc)):
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if w[i][j] != 0 and (piv is None or abs(w[i][j]) < abs(w[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            for i in range(k + 1, nr):
                if w[i][k] != 0:
                    clear_in_column(k, i)
            for j in range(k + 1, nc):
                if w[k][j] != 0:
                    clear_in_row(k, j)
            # column ops can refill column k; loop until both are clear
            if any(w[i][k] != 0 for i in range(k + 1, nr)):
                continue
            if any(w[k][j] != 0 for j in range(k + 1, nc)):
                continue
            culprit = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if w[i][j] % w[k][k] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            w[k] = [x + y for x, y in zip(w[k], w[culprit])]
            left[k] = [x + y for x, y in zip(left[k], left[culprit])]
    for k in range(min(nr, nc)):
        if w[k][k] < 0:
            w[k] = [-x for x in w[k]]
            left[k] = [-x for x in left[k]]
    lm, rm = IntMatrix(left), IntMatrix(right)
    factors = [w[k][k] for k in range(min(nr, nc))]
    result = SmithForm(a, lm, rm, factors)
    if lm @ a @ rm != result.diagonal():
        raise ValueError("SNF transform check failed")
    if abs(lm.det()) != 1 or abs(rm.det()) != 1:
        raise ValueError("SNF transforms not unimodular")
    for x, y in zip(factors, factors[1:]):
        if y != 0 and (x == 0 or y % x != 0):
            raise ValueError("divisibility chain broken")
    return result


def integer_kernel(a):
    """Basis (tuples of ints) of the full integral kernel {x : a @ x == 0}."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    snf = smith_normal_form(a)
    basis = []
    for j in range(a.cols):
        if j >= len(snf.invariant_factors) or snf.invariant_factors[j] == 0:
            basis.append(snf.right.column(j))
    return basis


def is_rational_square(q):
    """Whether q is a square in Q*; returns (bool, witness root or None)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no well-defined square class here")
    if q < 0:
        return False, None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return True, Fraction(rn, rd)
    return False, None


def clear_denominators(vec):
    """(ints, den): the integer vector den * vec, den the least common
    denominator of the rational vector."""
    den = lcm(*(x.denominator for x in vec))
    return tuple(x.numerator * (den // x.denominator) for x in vec), den


def primitive_vector(vec):
    """The primitive integer vector on the ray of a rational vector."""
    ints, _ = clear_denominators(vec)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else ints


def is_primitive(vec):
    return gcd(*vec) == 1
