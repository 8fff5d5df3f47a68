"""The rank-16 spinor module and the integral Clifford algebra acting on it.

The spinor module S is the exterior algebra on four degree-one generators,
with coordinates indexed by subset bitmasks 0..15 (bit i = generator i+1
present, degree = popcount).  V is rank 8 with hyperbolic pairing between
the wedge generators (indices 0..3) and the contraction generators
(indices 4..7).  The algebra map sends a V-vector to wedge + contraction
operators; products of the 8 generator matrices over subsets give the 256
monomial basis of C(V) = End(S).
"""

from operator import add, sub

from .exact import IntMatrix
from .lattice import IntLattice

ALL = 15  # full subset {1,2,3,4}
_ZERO_ROW = (0,) * 16


def degree(mask):
    return bin(mask).count("1")


def _sign_below(mask, i):
    """(-1)^(number of set bits of mask below i)."""
    return -1 if degree(mask & ((1 << i) - 1)) & 1 else 1


def _gen_entries(k):
    """Sparse entries (row, col, sign) of the k-th generator matrix.

    Both kinds toggle bit k mod 4: k in 0..3 wedges by generator k (the
    bit is clear in the column), k in 4..7 contracts by the dual
    generator k-4 (the bit is set in the column).
    """
    i = k % 4
    return tuple((m ^ (1 << i), m, _sign_below(m, i))
                 for m in range(16) if (m >> i & 1) == (k >= 4))


GEN_ENTRIES = tuple(_gen_entries(k) for k in range(8))


def _entries_to_matrix(entries):
    rows = [[0] * 16 for _ in range(16)]
    for r, c, s in entries:
        rows[r][c] = s
    return IntMatrix._wrap(rows)


GEN_MATRICES = tuple(_entries_to_matrix(e) for e in GEN_ENTRIES)

V_GRAM = IntMatrix([[0] * 4 + [int(i == j) for j in range(4)] for i in range(4)]
                   + [[int(i == j) for j in range(4)] + [0] * 4 for i in range(4)])


def v_lattice():
    return IntLattice(V_GRAM, label="V")


def v_pairing(v, w):
    gw = V_GRAM.apply(w)
    return sum(a * b for a, b in zip(v, gw))


def act_vector(v, spinor):
    """Apply the Clifford action of v in V (8 coords) to a spinor (16 coords)."""
    out = [0] * 16
    for k, coef in enumerate(v):
        if coef:
            for r, c, s in GEN_ENTRIES[k]:
                out[r] += coef * s * spinor[c]
    return tuple(out)


def clifford_embed(v):
    """The 16x16 matrix of Clifford multiplication by v in V."""
    rows = [[0] * 16 for _ in range(16)]
    for k, coef in enumerate(v):
        if coef:
            for r, c, s in GEN_ENTRIES[k]:
                rows[r][c] += coef * s
    return IntMatrix._wrap(rows)


def wedge_matrix(spinor):
    """The 16x16 matrix of left wedge multiplication by a spinor."""
    rows = [[0] * 16 for _ in range(16)]
    for a in range(16):
        if spinor[a] == 0:
            continue
        for b in range(16):
            if a & b:
                continue
            rows[a | b][b] += spinor[a] * merge_sign(a, b)
    return IntMatrix._wrap(rows)


def merge_sign(a, b):
    """Sign of sorting the concatenation of disjoint subsets a then b."""
    sign = 1
    while b:
        low = b & -b
        b ^= low
        if degree(a & -(low << 1)) & 1:  # members of a above this bit
            sign = -sign
    return sign


def tau_degree_sign(d):
    return -1 if (d * (d - 1) // 2) & 1 else 1


def pairing_s(s, t):
    """(s,t)_S: integrate tau(s) wedge t over the surface."""
    total = 0
    for a in range(16):
        if s[a]:
            b = ALL ^ a
            if t[b]:
                total += tau_degree_sign(degree(a)) * s[a] * t[b] * merge_sign(a, b)
    return total


# --- even/odd coordinate systems -------------------------------------------

# S+ ordered (H^0, H^2 in lex pair order, H^4); S- ordered (H^1, H^3 lex)
SPLUS_MASKS = (0, 0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 0b1111)
SMINUS_MASKS = (1, 2, 4, 8, 0b0111, 0b1011, 0b1101, 0b1110)
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))  # H^2 lex order


def mukai_triple(r, h2, s):
    """S+ 8-vector from (rank, six H^2 coordinates, H^4 coefficient)."""
    return (int(r),) + tuple(int(c) for c in h2) + (int(s),)


def splus_embed(v8):
    out = [0] * 16
    for i, m in enumerate(SPLUS_MASKS):
        out[m] = v8[i]
    return tuple(out)


def _gram_from_masks(masks):
    g = []
    for a in masks:
        row = []
        for b in masks:
            sa = [0] * 16
            sa[a] = 1
            sb = [0] * 16
            sb[b] = 1
            row.append(pairing_s(sa, sb))
        g.append(row)
    return IntMatrix(g)


SPLUS_GRAM = _gram_from_masks(SPLUS_MASKS)
SMINUS_GRAM = _gram_from_masks(SMINUS_MASKS)


def splus_lattice():
    return IntLattice(SPLUS_GRAM, label="S+")


def splus_pairing(x, y):
    gy = SPLUS_GRAM.apply(y)
    return sum(a * b for a, b in zip(x, gy))


# --- monomial basis of C(V) -------------------------------------------------

_MON = None
_MON_SPARSE = None
_DECOMP_ORDER = None


def _tables():
    global _MON, _MON_SPARSE, _DECOMP_ORDER
    if _MON is not None:
        return
    mon = [IntMatrix.identity(16)]
    for m in range(1, 256):
        high = m.bit_length() - 1
        mon.append(_gen_product(mon[m ^ (1 << high)].data, high, mon[0].data))
    _MON = tuple(mon)
    sparse = []
    for m in range(256):
        entries = []
        for i in range(16):
            row = mon[m].data[i]
            for j in range(16):
                if row[j]:
                    entries.append((i, j, row[j]))
        sparse.append(tuple(entries))
    _MON_SPARSE = tuple(sparse)
    _DECOMP_ORDER = tuple(sorted(range(256),
                                 key=lambda m: degree((m & 15) & (m >> 4))))


def monomial_matrix(mask):
    """Matrix of the monomial: generators of the subset multiplied in
    increasing index order."""
    _tables()
    return _MON[mask]


def monomial_decompose(x):
    """The 256 integer coefficients of x over the monomial basis.

    Exact and unique; the residue after peeling all monomials must vanish
    (C(V) = End(S) is an isomorphism over Z).
    """
    _tables()
    rem = [list(row) for row in x.data]
    coeffs = [0] * 256
    for m in _DECOMP_ORDER:
        a = m & 15
        b = m >> 4
        pivot = _MON[m].data[a][b]
        c = rem[a][b] * pivot  # pivot is +-1
        if c:
            coeffs[m] = c
            for i, j, val in _MON_SPARSE[m]:
                rem[i][j] -= c * val
    if any(any(row) for row in rem):
        raise ValueError("non-integral monomial decomposition")
    return tuple(coeffs)


def monomial_recompose(coeffs):
    _tables()
    rows = [[0] * 16 for _ in range(16)]
    for m, c in enumerate(coeffs):
        if c:
            for i, j, val in _MON_SPARSE[m]:
                rows[i][j] += c * val
    return IntMatrix._wrap(rows)


def monomial_rank():
    """Exact rank of the 256 vectorized monomial matrices.

    Certifies rank 256 by exhibiting a permuted-triangular structure with
    unit diagonal: position (i,j) is assigned to the monomial with wedge
    set i and contraction set j; each monomial has entry +-1 at its own
    position, and its other entries sit at positions whose assigned
    monomial has strictly larger wedge/contraction overlap.  Sorting rows
    and columns by overlap therefore gives a triangular integer matrix
    with unit diagonal, which is unimodular, so the rank is full.
    """
    _tables()
    for m in range(256):
        a, b = m & 15, m >> 4
        own = degree(a & b)
        if _MON[m].data[a][b] not in (1, -1):
            return -1
        for i, j, _val in _MON_SPARSE[m]:
            if (i, j) == (a, b):
                continue
            if degree(i & j) <= own:
                return -1
    return 256


# s_a with pairing_s(e_a, e_(ALL^a)) = s_a: the Gram B of pairing_s is the
# symmetric signed complement permutation B[a][ALL^a] = s_a, and B.B = I
_TAU_SIGN = tuple(tau_degree_sign(degree(a)) * merge_sign(a, ALL ^ a)
                  for a in range(16))


def tau(x):
    """Main anti-automorphism, reversing every monomial's factor order.

    It is the adjoint under the spinor pairing, (tau(x) s, t)_S =
    (s, x t)_S, so tau(x) = B x^T B with B the Gram of pairing_s; entrywise
    tau(x)[i][j] = s_i s_j x[ALL^j][ALL^i]."""
    s, d = _TAU_SIGN, x.data
    return IntMatrix._wrap(
        [s[i] * s[j] * d[ALL ^ j][ALL ^ i] for j in range(16)] for i in range(16))


_PARITY_SIGN = tuple((-1) ** degree(m) for m in range(16))


def alpha(x):
    """Main involution: conjugation by the parity operator."""
    return IntMatrix._wrap(
        [_PARITY_SIGN[i] * _PARITY_SIGN[j] * x.data[i][j] for j in range(16)]
        for i in range(16))


def star(x):
    """Clifford conjugation, the composite of tau and alpha."""
    return tau(alpha(x))


def parity_of(x):
    """'even' or 'odd' as x preserves or swaps S+ and S- (alpha(x) = +-x;
    the zero matrix counts as even), None otherwise."""
    ax = alpha(x)
    if ax == x:
        return "even"
    if ax == x.scale(-1):
        return "odd"
    return None


def _scalar_of(x):
    """c if x == c*I, else None."""
    c = x.data[0][0]
    return c if x == IntMatrix.diagonal((c,) * 16) else None


class NotInCliffordGroup(ValueError):
    """Conjugation by the element does not stabilize V."""


class GroupFlags:
    """Verified membership flags of an invertible Clifford element.

    norm and orientation are +-1 when the respective scalar tests hold and
    None otherwise."""

    __slots__ = ("in_g", "in_pin", "in_spin", "in_g0",
                 "norm", "orientation", "parity", "rho")

    def __init__(self, in_g, in_pin, in_spin, in_g0, norm, orientation, parity, rho):
        self.in_g = in_g
        self.in_pin = in_pin
        self.in_spin = in_spin
        self.in_g0 = in_g0
        self.norm = norm if norm in (1, -1) else None
        self.orientation = orientation if orientation in (1, -1) else None
        self.parity = parity
        self.rho = rho
        if in_spin and not (in_pin and parity == "even"):
            raise ValueError("Spin element must be an even Pin element")
        if in_pin and not in_g:
            raise ValueError("Pin element must lie in the Clifford group")


def _gen_product(xd, k, zd):
    """x e_k z from the rows of x and of the 16x16 z: row i is the sum of
    s x[i][r] z[c] over the entries (r, c, s) of generator k."""
    out = []
    for xrow in xd:
        acc = None
        for r, c, s in GEN_ENTRIES[k]:
            a = s * xrow[r]
            if not a:
                continue
            zrow = zd[c]
            if acc is None:
                acc = zrow if a == 1 else [a * b for b in zrow]
            elif a == 1:
                acc = list(map(add, acc, zrow))
            elif a == -1:
                acc = list(map(sub, acc, zrow))
            else:
                acc = [p + a * b for p, b in zip(acc, zrow)]
        out.append(_ZERO_ROW if acc is None else acc)
    return IntMatrix._wrap(out)


def group_flags(x):
    """Membership tests for the Clifford group tower and the standard
    representation rho(x): v -> x v x^-1 as an 8x8 integer matrix.

    A Clifford-group element is a scalar times a product of vectors, so
    x x* is a nonzero scalar c and x^-1 = x* / c: rho(x) e_k is x e_k x*
    divided exactly by c.  Raises NotInCliffordGroup if x x* is not a
    nonzero scalar or conjugation by x does not stabilize V, and
    ValueError if rho(x) is not integral.
    """
    xs = star(x)
    c = _scalar_of(x @ xs)
    if not c:
        raise NotInCliffordGroup("x x* is not a nonzero scalar")
    norm = _scalar_of(x @ alpha(xs))  # tau(x) = alpha(star(x))
    par = parity_of(x)
    rho_cols = []
    xd, xsd = x.data, xs.data
    for k in range(8):
        y = _gen_product(xd, k, xsd)
        w = _extract_vector(y)
        if clifford_embed(w) != y:
            raise NotInCliffordGroup("conjugation does not stabilize V")
        if any(a % c for a in w):
            raise ValueError("rho(x) not integral")
        rho_cols.append(tuple(a // c for a in w))
    rho = IntMatrix._wrap(zip(*rho_cols))
    in_pin = c == 1
    in_spin = in_pin and par == "even"
    return GroupFlags(True, in_pin, in_spin, norm == 1, norm, c, par, rho)


def _extract_vector(y):
    """Read off w with m(w) == y from the characteristic columns; the
    sign (-1)^j comes from contracting the top class."""
    d = y.data
    return (tuple(d[1 << i][0] for i in range(4))
            + tuple((-1) ** j * d[ALL ^ (1 << j)][ALL] for j in range(4)))


def spinor_to_json(s):
    return list(s)


def clifford_to_json(x):
    return [list(row) for row in x.data]
