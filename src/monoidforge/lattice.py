"""Exact linear algebra: Smith normal form with transforms, integer kernels
and solves (with torsion congruences), subgroup shapes, facet normals of
rational cones, rational feasibility, the non-negative integer solve (an
adapter over the membership engine of monoid.py), and field elimination:
Echelon, a reduced column echelon form grown one column at a time, is the
one elimination kernel; field_eliminate runs it over the columns of a
matrix to give its rank, a kernel basis and a solution for every
right-hand side passed with it.

Integer and rational arithmetic is arbitrary-precision Python int /
Fraction; Echelon computes with the elements and operations of a
rings.Ring field.  Matrices are plain lists of lists.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, mod as _mod, mul as _mul, neg as _neg, sub as _sub

from .rings import QQ


def xgcd(a, b):
    """(g, x, y) with g = gcd(a,b) = x*a + y*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def smith_normal_form(m):
    """Smith normal form with unimodular transforms.

    Returns (U, D, V) with U*m*V = D, D diagonal with a divisibility chain
    d1 | d2 | ..., and det(U), det(V) in {1, -1}.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    D = [list(r) for r in m]
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        Dd, Ds = D[dst], D[src]
        for t in range(cols):
            Dd[t] += q * Ds[t]
        Ud, Us = U[dst], U[src]
        for t in range(rows):
            Ud[t] += q * Us[t]

    def add_col(dst, src, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def gcd_rows(i, j):
        # replace rows (i, j) so that D[i][k*] = gcd and D[j][k*] = 0 at the
        # current pivot column; full-row unimodular transform
        a, b = D[i][piv_col], D[j][piv_col]
        g, x, y = xgcd(a, b)
        bg, ag = -(b // g), a // g
        for M, width in ((D, cols), (U, rows)):
            ri, rj = M[i], M[j]
            for t in range(width):
                u, v = ri[t], rj[t]
                ri[t] = x * u + y * v
                rj[t] = bg * u + ag * v

    def gcd_cols(i, j):
        a, b = D[piv_row][i], D[piv_row][j]
        g, x, y = xgcd(a, b)
        bg, ag = -(b // g), a // g
        for M in (D, V):
            for r in M:
                u, v = r[i], r[j]
                r[i] = x * u + y * v
                r[j] = bg * u + ag * v

    def negate_row(i):
        for t in range(cols):
            D[i][t] = -D[i][t]
        for t in range(rows):
            U[i][t] = -U[i][t]

    k = 0
    while k < min(rows, cols):
        piv = None
        for i in range(k, rows):
            for j in range(k, cols):
                if D[i][j] and (piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            swap_rows(k, piv[0])
        if piv[1] != k:
            swap_cols(k, piv[1])
        piv_row = piv_col = k
        while True:
            for i in range(k + 1, rows):
                if D[i][k]:
                    if D[i][k] % D[k][k] == 0:
                        add_row(i, k, -(D[i][k] // D[k][k]))
                    else:
                        gcd_rows(k, i)
            for j in range(k + 1, cols):
                if D[k][j]:
                    if D[k][j] % D[k][k] == 0:
                        add_col(j, k, -(D[k][j] // D[k][k]))
                    else:
                        gcd_cols(k, j)
            if all(D[i][k] == 0 for i in range(k + 1, rows)) and all(
                D[k][j] == 0 for j in range(k + 1, cols)
            ):
                break
        k += 1

    r = min(rows, cols)
    for i in range(r):
        if D[i][i] < 0:
            negate_row(i)

    # enforce the divisibility chain: zeros last, then fix adjacent pairs
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10000:
            raise RuntimeError("smith_normal_form failed to converge")
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a == 0 and b != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
            elif a and b and b % a != 0:
                # fold column i+1 into column i and re-clear the 2x2 block
                add_col(i, i + 1, 1)
                piv_row = piv_col = i
                gcd_rows(i, i + 1)
                if D[i][i]:
                    q = D[i][i + 1] // D[i][i]
                    add_col(i + 1, i, -q)
                if D[i][i] < 0:
                    negate_row(i)
                if D[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return U, D, V


def diagonal_of(D):
    r = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(r)]


def integer_kernel(m):
    """Basis (list of int tuples) of the right kernel {x : m x = 0} over Z."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [tuple(1 if i == j else 0 for i in range(cols)) for j in range(cols)]
    U, D, V = smith_normal_form(m)
    diag = diagonal_of(D)
    basis = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(tuple(V[i][j] for i in range(cols)))
    return basis


def solve_integer(m, b):
    """One integer solution x of m x = b, or None."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return tuple([0] * cols)
    return solve_smith(smith_normal_form(m), b)


def solve_smith(snf, b):
    """solve_integer for a matrix given by its Smith form (U, D, V).

    U is multiplied only by the nonzero entries of b and V only by the
    nonzero entries of y = D^-1 U b."""
    U, D, V = snf
    nz = [(j, x) for j, x in enumerate(b) if x]
    diag = diagonal_of(D)
    ynz = []
    for i, row in enumerate(U):
        ci = sum(row[j] * x for j, x in nz)
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            if ci:
                ynz.append((i, ci // d))
    return tuple(sum(row[i] * y for i, y in ynz) for row in V)


def rank_of(m):
    if not m or not m[0]:
        return 0
    _, D, _ = smith_normal_form(m)
    return sum(1 for d in diagonal_of(D) if d != 0)


def primitive(vec):
    """vec divided by the gcd of its entries (0 vector unchanged)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


class Record:
    """Base of the plain result records.

    A record lists its fields in _fields, in the order of its __init__;
    repr prints Name(field=value, ...), and two records are equal when they
    are of the same class with equal fields.  Records are mutable, so they
    are unhashable.
    """

    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class AbelianGroupShape(Record):
    """Z^free_rank x prod Z/d_i, each d_i >= 2.

    Canonical shapes (outputs of subgroup_shape) carry a divisibility chain
    d_1 | d_2 | ...; ambient coordinate frames may use any moduli.  A shape
    is an interning key: it is immutable, and eq and hash are those of
    (free_rank, torsion).
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        if any(d < 2 for d in torsion):
            raise ValueError("torsion invariants must be >= 2")
        setattr_ = object.__setattr__
        setattr_(self, "free_rank", free_rank)
        setattr_(self, "torsion", torsion)
        setattr_(self, "_dim", free_rank + len(torsion))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def is_canonical_chain(self):
        return all(b % a == 0 for a, b in zip(self.torsion, self.torsion[1:]))

    @property
    def dim(self):
        return self._dim

    def _length_error(self, vec):
        return ValueError(f"element length {len(vec)} != ambient dim {self._dim}")

    def reduce(self, vec):
        vec = tuple(vec)
        if len(vec) != self._dim:
            raise self._length_error(vec)
        if not self.torsion:
            return vec
        r = self.free_rank
        return vec[:r] + tuple(map(_mod, vec[r:], self.torsion))

    def zero(self):
        return (0,) * self._dim

    # add, sub, neg and scale make one pass and reduce only the torsion
    # coordinates of the result; map would silently truncate a vector of the
    # wrong length, so the lengths are checked first

    def add(self, a, b):
        if len(a) != self._dim or len(b) != self._dim:
            raise self._length_error(b if len(a) == self._dim else a)
        if not self.torsion:
            return tuple(map(_add, a, b))
        r = self.free_rank
        tail = map(_add, a[r:], b[r:])
        return tuple(map(_add, a[:r], b[:r])) + tuple(map(_mod, tail, self.torsion))

    def sub(self, a, b):
        if len(a) != self._dim or len(b) != self._dim:
            raise self._length_error(b if len(a) == self._dim else a)
        if not self.torsion:
            return tuple(map(_sub, a, b))
        r = self.free_rank
        tail = map(_sub, a[r:], b[r:])
        return tuple(map(_sub, a[:r], b[:r])) + tuple(map(_mod, tail, self.torsion))

    def neg(self, a):
        if len(a) != self._dim:
            raise self._length_error(a)
        if not self.torsion:
            return tuple(map(_neg, a))
        r = self.free_rank
        return tuple(map(_neg, a[:r])) + tuple(map(_mod, map(_neg, a[r:]), self.torsion))

    def scale(self, n, a):
        if len(a) != self._dim:
            raise self._length_error(a)
        if not self.torsion:
            return tuple([n * x for x in a])
        r = self.free_rank
        tail = [n * x % d for x, d in zip(a[r:], self.torsion)]
        return tuple([n * x for x in a[:r]]) + tuple(tail)

    def torsion_part(self, a):
        return tuple(a[self.free_rank :])

    def torsion_elements(self):
        """All elements of the full ambient torsion component."""
        out = [()]
        for d in self.torsion:
            out = [t + (c,) for t in out for c in range(d)]
        return [self.zero()[: self.free_rank] + t for t in out]


def _congruence_matrix(generators, ambient):
    """Matrix A and extra columns for torsion moduli: solving A*(c, k) = target
    encodes sum c_i g_i = target in Z^r x prod Z/d_j exactly."""
    r = ambient.free_rank
    tors = ambient.torsion
    s = len(generators)
    rows = []
    for i in range(r):
        rows.append([g[i] for g in generators] + [0] * len(tors))
    for j, d in enumerate(tors):
        row = [g[r + j] for g in generators]
        row += [d if t == j else 0 for t in range(len(tors))]
        rows.append(row)
    return rows, s


def element_in_subgroup(target, generators, ambient):
    """Integer coefficients c with sum c_i g_i = target in the ambient group,
    or None if target is outside the generated subgroup."""
    if not generators:
        return () if tuple(target) == ambient.zero() else None
    m, s = _congruence_matrix(generators, ambient)
    sol = solve_integer(m, list(target))
    if sol is None:
        return None
    return tuple(sol[:s])


def subgroup_kernel(generators, ambient):
    """Basis of {c in Z^s : sum c_i g_i = 0 in ambient}."""
    if not generators:
        return []
    m, s = _congruence_matrix(generators, ambient)
    ker = integer_kernel(m)
    basis = []
    seen = set()
    for v in ker:
        c = tuple(v[:s])
        if any(c) and c not in seen:
            seen.add(c)
            basis.append(c)
    return basis


def subgroup_shape(generators, ambient):
    """Rank and invariant factors of the subgroup generated inside ambient.

    The subgroup is Z^s / K where K is the relation lattice; its shape is read
    off the Smith form of a matrix whose columns span K.
    """
    for g in generators:
        if len(g) != ambient.dim:
            raise ValueError("generator dimension mismatch")
    s = len(generators)
    if s == 0:
        return AbelianGroupShape(0, ())
    rel = subgroup_kernel(generators, ambient)
    if not rel:
        return AbelianGroupShape(s, ())
    mat = [[v[i] for v in rel] for i in range(s)]  # columns = relations
    _, D, _ = smith_normal_form(mat)
    diag = [d for d in diagonal_of(D) if d != 0]
    free = s - len(diag)
    torsion = tuple(d for d in diag if d > 1)
    shape = AbelianGroupShape(free, torsion)
    assert shape.is_canonical_chain()
    return shape


# ---------------------------------------------------------------------------
# cone facets


def _dot(u, v):
    return sum(map(_mul, u, v))


def _combine(a, x, b, y):
    """primitive(a * x - b * y) for integer vectors x, y."""
    return primitive([a * s - b * t for s, t in zip(x, y)])


def double_description(vectors, dim):
    """The dual cone {n in Q^dim : v . n >= 0 for every v of vectors}, by
    Motzkin's double description over exact integers, one constraint at a
    time.

    Returns (lineality, rays, pivots): a basis of the lineality space, the
    primitive extreme rays modulo it, and the indices of the vectors that
    met the lineality of the constraints before them (the first vector of
    each new rank, a basis of their span).  The lineality space is the
    orthogonal complement of that span, so it is empty exactly when the
    vectors span Q^dim; the rays are then the inward facet normals of
    cone(vectors), and in general the facet normals of the cone inside its
    span, each up to a vector of the lineality.

    Start from the lineality basis e_1 ... e_dim.  A constraint v that is
    nonzero on some lineality vector l turns l, oriented so that v . l > 0,
    into a ray, and combines every other lineality vector and every ray
    with l so that v vanishes on it.  Otherwise the rays with v . r >= 0
    stay, and each adjacent pair of a positive and a negative ray gives the
    combination on which v vanishes.  Two rays are adjacent when no third
    ray is tight on every constraint tight on both; the tight constraints
    of each ray are kept as a bitset.
    """
    lin = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays = []  # (ray, bitset of the constraints vanishing on it)
    pivots = []
    done = 0  # bitset of the constraints added so far
    for idx, v in enumerate(vectors):
        bit = 1 << idx
        vals = [_dot(v, l) for l in lin]
        p = next((i for i, x in enumerate(vals) if x), None)
        if p is not None:
            l0, a0 = lin.pop(p), vals.pop(p)
            if a0 < 0:
                l0, a0 = tuple(-x for x in l0), -a0
            lin = [_combine(a0, l, x, l0) if x else l for l, x in zip(lin, vals)]
            moved = []
            for r, m in rays:
                x = _dot(v, r)
                moved.append((_combine(a0, r, x, l0) if x else r, m | bit))
            rays = moved
            rays.append((l0, done))
            pivots.append(idx)
        else:
            pos, neg, kept = [], [], []
            for r, m in rays:
                x = _dot(v, r)
                if x > 0:
                    pos.append((r, m, x))
                    kept.append((r, m))
                elif x < 0:
                    neg.append((r, m, x))
                else:
                    kept.append((r, m | bit))
            if neg:
                # a pair spans a 2-face only if the constraints tight on
                # both have rank dim - len(lin) - 2
                need = dim - len(lin) - 2
                masks = [m for _, m in rays]
                for r, mr, x in pos:
                    for s, ms, y in neg:
                        z = mr & ms
                        if z.bit_count() < need:
                            continue
                        if any(t & z == z and t != mr and t != ms for t in masks):
                            continue
                        kept.append((_combine(x, s, y, r), z | bit))
            rays = kept
        done |= bit
    return lin, [r for r, _ in rays], pivots


def facet_normals(vectors, dim):
    """Primitive inward facet normals of cone(vectors), full-dimensional in
    Z^dim, sorted: the extreme rays of the dual cone, by double description.
    A cone that does not span Z^dim raises ValueError."""
    lin, rays, _ = double_description([v for v in vectors if any(v)], dim)
    if lin:
        raise ValueError(f"facet_normals needs a cone spanning Z^{dim}")
    return sorted(rays)


# ---------------------------------------------------------------------------
# rational feasibility (Fourier-Motzkin)


FM_MAX_CONSTRAINTS = 4000


def nonneg_rational_feasible(generators, target):
    """Whether sum c_i g_i = target admits a rational solution with all c_i >= 0.

    Only the free coordinates of the ambient are constrained (a valid
    relaxation when torsion rows are dropped by the caller).  Returns True
    or False; an elimination that holds more than FM_MAX_CONSTRAINTS
    constraints after some step raises ValueError, so an inconclusive
    search is never read as "no".
    """
    s = len(generators)
    if s == 0:
        return all(x == 0 for x in target)
    # constraints as (coeffs over c, const) meaning coeffs . c <= const
    cons = []
    dim = len(target)
    for j in range(dim):
        row = [Fraction(g[j]) for g in generators]
        cons.append((row, Fraction(target[j])))
        cons.append(([-x for x in row], -Fraction(target[j])))
    for i in range(s):
        row = [Fraction(0)] * s
        row[i] = Fraction(-1)
        cons.append((row, Fraction(0)))
    for var in range(s):
        pos, neg, zero = [], [], []
        for coeffs, c in cons:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, c))
            elif a < 0:
                neg.append((coeffs, c))
            else:
                zero.append((coeffs, c))
        new = zero
        for pc, pconst in pos:
            for nc, nconst in neg:
                a, b = pc[var], -nc[var]
                coeffs = [b * x + a * y for x, y in zip(pc, nc)]
                coeffs[var] = Fraction(0)
                new.append((coeffs, b * pconst + a * nconst))
        # prune duplicates to keep FM from blowing up at desk scale
        seen = {}
        pruned = []
        for coeffs, c in new:
            key = tuple(coeffs)
            if key in seen:
                if c < seen[key][1]:
                    pruned[seen[key][0]] = (coeffs, c)
                    seen[key] = (seen[key][0], c)
            else:
                seen[key] = (len(pruned), c)
                pruned.append((coeffs, c))
        cons = pruned
        if len(cons) > FM_MAX_CONSTRAINTS:
            raise ValueError(
                f"Fourier-Motzkin elimination exceeds {FM_MAX_CONSTRAINTS} constraints"
            )
    return all(c >= 0 for _, c in cons)


# ---------------------------------------------------------------------------
# non-negative integer feasibility


class SolveResult(Record):
    """Outcome of a non-negative integer feasibility search."""

    _fields = ("status", "coeffs", "note")

    def __init__(self, status, coeffs=None, note=""):
        self.status = status  # "witness" | "no"
        self.coeffs = coeffs
        self.note = note

    @property
    def is_witness(self):
        return self.status == "witness"


def grading_for(generators, ambient):
    """A covector w on the free coordinates with w(g) >= 1 for every generator,
    or None when no strictly positive grading exists (non-positive cone or a
    pure-torsion generator)."""
    r = ambient.free_rank
    frees = [tuple(g[:r]) for g in generators]
    if any(not any(f) and any(g) for f, g in zip(frees, generators)):
        return None
    nonzero = [f for f in frees if any(f)]
    if not nonzero:
        return (0,) * r
    # one double description of the cone in Z^r: the pivots are a basis of
    # the span, and a ray n gives the facet normal (n . b_j)_j in the
    # coordinates of the pivots b_j, whatever its part in the lineality
    # (the orthogonal complement of the span).  Their sum w_span is > 0 on
    # a generator exactly when some ray is.
    _, rays, pivots = double_description(nonzero, r)
    if not all(any(_dot(n, f) > 0 for n in rays) for f in nonzero):
        return None
    basis = [nonzero[j] for j in pivots]
    span_rank = len(basis)
    normals = [primitive([_dot(n, b) for b in basis]) for n in rays]
    w_span = [sum(n[i] for n in normals) for i in range(span_rank)]
    # pull w back to an integer covector on Z^r: w(x) = w_span . coords(x);
    # only values on the generator span matter, so solve for an integer row.
    bmat = [[b[i] for b in basis] for i in range(r)]  # columns = pivots
    w = _covector_from_span(bmat, w_span, r, span_rank)
    if w is None:
        return None
    if any(sum(wc * fc for wc, fc in zip(w, f)) < 1 for f in nonzero):
        return None
    return tuple(w)


def fast_zero(R):
    """The zero of R for comparisons: a falsy zero (0, Fraction(0)) is
    compared as the int 0, which is equal and much cheaper for Fractions."""
    return R.zero() or 0


def axpy(R, acc, c, vec, zero=None):
    """acc += c * vec over the ring R for sparse vectors (dicts key ->
    nonzero entry), dropping the entries that become zero.  zero, when
    given, is fast_zero(R)."""
    if zero is None:
        zero = fast_zero(R)
    add, mul = R.add, R.mul
    for k, a in vec.items():
        x = add(acc[k], mul(c, a)) if k in acc else mul(c, a)
        if x == zero:
            del acc[k]
        else:
            acc[k] = x


class Echelon:
    """Reduced column echelon form over a field, grown one column at a time:
    the one elimination kernel of the package.

    A column is a sparse vector (dict row -> entry) inserted under an id.
    A column in the span of the pivot columns inserted before it is not
    kept: insert returns its unique expression in them (dict id ->
    coefficient), a kernel relation.  Any other column becomes a pivot.
    Each pivot vector has a 1 on its own pivot row (left implicit) and 0 on
    the other pivot rows, and is stored with its expression in the pivot
    columns, so solve reads off the unique expression of a vector in the
    span of all pivots.  Rows and ids may be any hashable values.
    """

    def __init__(self, R):
        self.R = R
        self._zero = fast_zero(R)
        self._vecs = []  # pivot i: reduced vector off its pivot row
        self._exprs = []  # pivot i: that vector in the pivot columns
        self._pivot = {}  # pivot row -> i

    @property
    def rank(self):
        return len(self._vecs)

    def _reduce(self, vec):
        """(rest, expr) with vec = rest + sum expr[j] * column j; rest is 0 on
        every pivot row."""
        zero = self._zero
        rest = {k: c for k, c in vec.items() if c != zero}
        expr = {}
        for k, c in vec.items():
            i = self._pivot.get(k)
            if i is None or c == zero:
                continue
            # reduced pivot vectors vanish on the other pivot rows, so the
            # pivot-row entries of rest stay those of vec until cleared here
            del rest[k]
            axpy(self.R, rest, self.R.neg(c), self._vecs[i], zero)
            axpy(self.R, expr, c, self._exprs[i], zero)
        return rest, expr

    def insert(self, cid, vec):
        """Insert column cid; its expression in the earlier pivot columns
        when it lies in their span (the column is then dropped), else None
        (it is a new pivot)."""
        rest, expr = self._reduce(vec)
        if not rest:
            return expr
        R = self.R
        p = next(iter(rest))
        inv = R.inv(rest.pop(p))
        v = {k: R.mul(inv, c) for k, c in rest.items()}
        # the pivot vector is inv * (column cid - sum expr[j] * column j)
        e = {j: R.neg(R.mul(inv, a)) for j, a in expr.items()}
        e[cid] = inv
        for i, w in enumerate(self._vecs):
            f = w.pop(p, None)
            if f is not None:
                neg_f = R.neg(f)
                axpy(R, w, neg_f, v, self._zero)
                axpy(R, self._exprs[i], neg_f, e, self._zero)
        self._pivot[p] = len(self._vecs)
        self._vecs.append(v)
        self._exprs.append(e)
        return None

    def solve(self, vec):
        """The unique expression of vec in the pivot columns (dict id ->
        coefficient), or None when vec is outside their span."""
        rest, expr = self._reduce(vec)
        return None if rest else expr


def field_eliminate(R, A, rhs=()):
    """Elimination of [A | right-hand sides] over the field R, once for all
    of them, by inserting the columns of A into an Echelon in order.

    Returns (rank, kernel, solutions): a basis of {x : A x = 0}, one tuple per
    free column in order (1 there, 0 on the other free columns, minus the
    unique expression of that column in the earlier pivot columns), and for
    each right-hand side b the solution of A x = b with every free unknown 0,
    or None when A x = b is inconsistent.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    zero, one, neg = R.zero(), R.one(), R.neg
    E = Echelon(R)
    kernel = []
    for c in range(cols):
        expr = E.insert(c, {i: A[i][c] for i in range(rows)})
        if expr is not None:
            v = [zero] * cols
            v[c] = one
            for j, a in expr.items():
                v[j] = neg(a)
            kernel.append(tuple(v))
    solutions = []
    for b in rhs:
        expr = E.solve({i: b[i] for i in range(rows)})
        if expr is None:
            solutions.append(None)
            continue
        x = [zero] * cols
        for j, a in expr.items():
            x[j] = a
        solutions.append(tuple(x))
    return E.rank, kernel, solutions


def solve_rational(mat, b):
    """Rational solution of mat x = b (columns unknowns), or None."""
    return field_eliminate(QQ, mat, [b])[2][0]


def clear_denominators(vec):
    """(N, N * vec) for a rational vector, N the lcm of its denominators."""
    N = lcm(*(x.denominator for x in vec))
    return N, tuple(x.numerator * (N // x.denominator) for x in vec)


def _covector_from_span(basis_mat, w_span, r, span_rank):
    """Integer covector w on Z^r with w(basis_j) proportional to w_span_j
    (positive scaling), via a rational solve cleared of denominators."""
    bt = [[basis_mat[i][j] for i in range(r)] for j in range(span_rank)]
    sol = solve_rational(bt, list(w_span))
    if sol is None:
        return None
    return clear_denominators(sol)[1]


def nonneg_solve(target, generators, ambient):
    """Exact search for c in Z_+^s with sum c_i g_i = target.

    An adapter over the membership engine of monoid.member: the answer is
    "witness", with coefficients in the caller's generator order, or "no",
    which is a proof.
    """
    from .monoid import CancellativeMonoid, member

    M = CancellativeMonoid(ambient, generators)
    res = member(M, target)
    if not res.is_yes:
        return SolveResult("no", note=res.note)
    first = {}
    for j, g in enumerate(generators):
        first.setdefault(ambient.reduce(g), j)
    coeffs = [0] * len(generators)
    for g, c in zip(M.generators, res.witness):
        coeffs[first[g]] = c
    return SolveResult("witness", tuple(coeffs))
