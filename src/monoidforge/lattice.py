"""Exact linear algebra: Smith normal form with transforms, integer kernels,
solves and inverses (with torsion congruences), subgroup shapes, facet
normals of rational cones, rational feasibility, the non-negative integer
solve (an adapter over the membership engine of monoid.py), and field
elimination (field_eliminate: one Gauss-Jordan reduction of a matrix over
any field gives its rank, a kernel basis and a solution for every
right-hand side passed with it).

Integer and rational arithmetic is arbitrary-precision Python int /
Fraction; field_eliminate computes with the elements and operations of a
rings.Ring field.  Matrices are plain lists of lists.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

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


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def det(m):
    """Determinant by fraction-free expansion; only used on small matrices."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


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
    """solve_integer for a matrix given by its Smith form (U, D, V)."""
    U, D, V = snf
    c = mat_vec(U, list(b))
    cols = len(V)
    y = [0] * cols
    diag = diagonal_of(D)
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            y[i] = ci // d
    return tuple(mat_vec(V, y))


def unimodular_inverse(m):
    """Inverse of a square integer matrix of determinant +-1, from one Smith
    form: U m V = I gives m^-1 = V U."""
    U, D, V = smith_normal_form(m)
    if any(D[i][i] != 1 for i in range(len(D))):
        raise ValueError("matrix is not unimodular")
    return mat_mul(V, U)


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


@dataclass(frozen=True)
class AbelianGroupShape:
    """Z^free_rank x prod Z/d_i, each d_i >= 2.

    Canonical shapes (outputs of subgroup_shape) carry a divisibility chain
    d_1 | d_2 | ...; ambient coordinate frames may use any moduli.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion invariants must be >= 2")

    def is_canonical_chain(self):
        return all(b % a == 0 for a, b in zip(self.torsion, self.torsion[1:]))

    @property
    def dim(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, vec):
        vec = tuple(vec)
        if len(vec) != self.dim:
            raise ValueError(f"element length {len(vec)} != ambient dim {self.dim}")
        r = self.free_rank
        return vec[:r] + tuple(v % d for v, d in zip(vec[r:], self.torsion))

    def zero(self):
        return (0,) * self.dim

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce(tuple(-x for x in a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, n, a):
        return self.reduce(tuple(n * x for x in a))

    def free_part(self, a):
        return tuple(a[: self.free_rank])

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


def facet_normals(vectors, dim):
    """Primitive inward facet normals of cone(vectors), full-dimensional in Z^dim.

    Exhaustive over (dim-1)-subsets of the generators: every facet of a
    full-dimensional cone is spanned by generators lying on it.  Vectors with
    mixed signs on a candidate hyperplane reject it.
    """
    vecs = [tuple(v) for v in vectors if any(v)]
    if dim == 0:
        return []
    if dim == 1:
        signs = {1 if v[0] > 0 else -1 for v in vecs}
        if signs == {1}:
            return [(1,)]
        if signs == {-1}:
            return [(-1,)]
        return []  # cone is all of R
    found = set()
    for subset in combinations(range(len(vecs)), dim - 1):
        # dim - 1 rows leave dim - rank kernel vectors: exactly one when the
        # subset spans a hyperplane
        ker = integer_kernel([list(vecs[i]) for i in subset])
        if len(ker) != 1:
            continue
        n = primitive(ker[0])
        vals = [sum(a * b for a, b in zip(n, v)) for v in vecs]
        if all(x >= 0 for x in vals):
            found.add(n)
        elif all(x <= 0 for x in vals):
            found.add(tuple(-x for x in n))
    return sorted(found)


def cone_is_pointed(vectors, dim):
    normals = facet_normals(vectors, dim)
    if dim == 0:
        return True
    if not normals:
        return False
    return rank_of([list(n) for n in normals]) == dim


# ---------------------------------------------------------------------------
# rational feasibility (Fourier-Motzkin)


def nonneg_rational_feasible(generators, target, max_constraints=4000):
    """Whether sum c_i g_i = target admits a rational solution with all c_i >= 0.

    Only the free coordinates of the ambient are constrained (a valid
    relaxation when torsion rows are dropped by the caller).  Returns True,
    False, or None when the elimination exceeds max_constraints.
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
        if len(cons) > max_constraints:
            return None
    return all(c >= 0 for _, c in cons)


# ---------------------------------------------------------------------------
# non-negative integer feasibility


@dataclass
class SolveResult:
    """Outcome of a non-negative integer feasibility search."""

    status: str  # "witness" | "no"
    coeffs: tuple = None
    note: str = ""

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
    # one elimination with the free parts as columns and as right-hand
    # sides: free unknowns are set to 0, so a column's own solution has a 1
    # there exactly when it is a pivot.  The pivots are a basis of the span
    # (the first column of each new rank), and the solutions restricted to
    # them are coordinates in which the cone is full-dimensional.
    mat = [[f[i] for f in nonzero] for i in range(r)]
    _, _, sols = field_eliminate(QQ, mat, nonzero)
    pivots = [j for j, x in enumerate(sols) if x[j] == 1]
    span_rank = len(pivots)
    coords = [tuple(x[j] for j in pivots) for x in sols]
    normals = facet_normals_rational(coords, span_rank)
    w_span = [sum(n[i] for n in normals) for i in range(span_rank)]
    if any(sum(ws * c for ws, c in zip(w_span, f)) <= 0 for f in coords):
        return None
    # pull w back to an integer covector on Z^r: w(x) = w_span . coords(x);
    # only values on the generator span matter, so solve for an integer row.
    basis = [[row[j] for j in pivots] for row in mat]  # columns = pivots
    w = _covector_from_span(basis, w_span, r, span_rank)
    if w is None:
        return None
    if any(sum(wc * fc for wc, fc in zip(w, f)) < 1 for f in nonzero):
        return None
    return tuple(w)


def field_eliminate(R, A, rhs=()):
    """Gauss-Jordan elimination of [A | right-hand sides] over the field R,
    once for all of them.

    Returns (rank, kernel, solutions): a basis of {x : A x = 0}, one tuple per
    free column in order (1 there, 0 on the other free columns, minus that
    column of the reduced form on the pivots), and for each right-hand side
    b the solution of A x = b with every free unknown 0, or None when A x = b
    is inconsistent.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    zero, mul, sub = R.zero(), R.mul, R.sub
    M = [list(A[i]) + [b[i] for b in rhs] for i in range(rows)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        for p in range(r, rows):
            if M[p][c] != zero:
                break
        else:
            continue
        M[r], M[p] = M[p], M[r]
        inv = R.inv(M[r][c])
        Mr = M[r] = [mul(inv, x) for x in M[r]]
        for i in range(rows):
            f = M[i][c]
            if i != r and f != zero:
                M[i] = [sub(x, mul(f, y)) for x, y in zip(M[i], Mr)]
        pivots.append(c)
    rank = len(pivots)
    kernel = []
    one, neg = R.one(), R.neg
    for fc in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[fc] = one
        for i, c in enumerate(pivots):
            v[c] = neg(M[i][fc])
        kernel.append(tuple(v))
    solutions = []
    for k in range(cols, cols + len(rhs)):
        if any(M[i][k] != zero for i in range(rank, rows)):
            solutions.append(None)
            continue
        x = [zero] * cols
        for i, c in enumerate(pivots):
            x[c] = M[i][k]
        solutions.append(tuple(x))
    return rank, kernel, solutions


def solve_rational(mat, b):
    """Rational solution of mat x = b (columns unknowns), or None."""
    return field_eliminate(QQ, mat, [b])[2][0]


def clear_denominators(vec):
    """(N, N * vec) for a rational vector, N the lcm of its denominators."""
    N = lcm(*(x.denominator for x in vec))
    return N, tuple(x.numerator * (N // x.denominator) for x in vec)


def facet_normals_rational(vectors, dim):
    """facet_normals for vectors with Fraction entries (cleared to ints)."""
    return facet_normals([clear_denominators(v)[1] for v in vectors], dim)


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
