import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoidforge.lattice import (
    AbelianGroupShape,
    _covector_from_span,
    clear_denominators,
    diagonal_of,
    double_description,
    element_in_subgroup,
    facet_normals,
    field_eliminate,
    grading_for,
    integer_kernel,
    mat_mul,
    nonneg_rational_feasible,
    nonneg_solve,
    primitive,
    rank_of,
    smith_normal_form,
    solve_integer,
    solve_smith,
    subgroup_shape,
)
from monoidforge.rings import QQ


def smith_invariants_oracle(m):
    """Independent invariant-factor oracle via sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    facs = [int(x) for x in invariant_factors(Matrix(m)) if int(x) != 0]
    return [abs(x) for x in facs]


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


def cone_is_pointed(vectors, dim):
    normals = facet_normals(vectors, dim)
    if dim == 0:
        return True
    if not normals:
        return False
    return rank_of([list(n) for n in normals]) == dim


def check_snf(m):
    U, D, V = smith_normal_form(m)
    assert mat_mul(mat_mul(U, m), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    r = min(len(m), len(m[0]))
    diag = [D[i][i] for i in range(r)]
    for i in range(r):
        for j in range(len(m[0]) if m else 0):
            if i != j:
                assert D[i][j] == 0
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert diag == nz + [0] * (len(diag) - len(nz))
    return diag


def test_snf_given_examples():
    # diag(2,3) has invariant factors (1, 6)
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]
    # identity stays trivial
    diag = check_snf([[1, 0], [0, 1]])
    assert diag == [1, 1]
    # single row gcd
    diag = check_snf([[2, 4]])
    assert diag == [2]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random(rows, cols, data):
    m = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    diag = check_snf(m)
    assert [d for d in diag if d] == smith_invariants_oracle(m)


def test_kernel_and_solve():
    m = [[2, 4]]
    ker = integer_kernel(m)
    assert len(ker) == 1
    assert primitive(ker[0]) in [(-2, 1), (2, -1)]
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_integer([[2]], [3]) is None
    assert solve_integer([[2, 3]], [1]) in [(-1, 1), (2, -1)] or sum(
        a * b for a, b in zip(solve_integer([[2, 3]], [1]), (2, 3))
    ) == 1


def test_subgroup_shape_examples():
    z = AbelianGroupShape(1)
    assert subgroup_shape([(2,), (3,)], z) == AbelianGroupShape(1, ())
    zxz2 = AbelianGroupShape(1, (2,))
    got = subgroup_shape([(1, 0), (0, 1)], zxz2)
    assert got == AbelianGroupShape(1, (2,))
    assert subgroup_shape([], z) == AbelianGroupShape(0, ())
    # <(1,1)> in Z x Z/2 is infinite cyclic: k(1,1) = 0 forces k = 0
    assert subgroup_shape([(1, 1)], zxz2) == AbelianGroupShape(1, ())
    # <(1,0),(1,1)> contains (0,1), so torsion [2] appears
    assert subgroup_shape([(1, 0), (1, 1)], zxz2) == AbelianGroupShape(1, (2,))


def brute_membership(target, gens, ambient, cap):
    """Enumeration oracle: all coefficient vectors with entries <= cap."""
    for coeffs in product(range(cap + 1), repeat=len(gens)):
        acc = ambient.zero()
        for c, g in zip(coeffs, gens):
            acc = ambient.add(acc, ambient.scale(c, g))
        if acc == ambient.reduce(target):
            return coeffs
    return None


def test_nonneg_solve_examples():
    z = AbelianGroupShape(1)
    res = nonneg_solve((7,), [(2,), (3,)], z)
    assert res.is_witness
    # the enumeration oracle agrees
    assert brute_membership((7,), [(2,), (3,)], z, 4) is not None
    assert res.coeffs == (2, 1)

    res = nonneg_solve((1,), [(2,), (3,)], z)
    assert res.status == "no"
    assert brute_membership((1,), [(2,), (3,)], z, 4) is None

    res = nonneg_solve((0,), [(2,), (3,)], z)
    assert res.is_witness and res.coeffs == (0, 0)


def test_nonneg_solve_torsion():
    zxz2 = AbelianGroupShape(1, (2,))
    gens = [(1, 0), (1, 1)]
    res = nonneg_solve((2, 1), gens, zxz2)
    assert res.is_witness
    assert res.coeffs == (1, 1) or brute_membership((2, 1), gens, zxz2, 3)


def test_nonneg_solve_nonpositive():
    z = AbelianGroupShape(1)
    res = nonneg_solve((-1,), [(1,), (-1,)], z)
    assert res.is_witness and res.coeffs == (0, 1)
    z2 = AbelianGroupShape(2)
    res = nonneg_solve((-3, 0), [(1, 0), (-1, 0), (0, 1)], z2)
    assert res.is_witness


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nonneg_solve_matches_enumeration(data):
    rank = data.draw(st.integers(1, 2))
    amb = AbelianGroupShape(rank)
    ngen = data.draw(st.integers(1, 3))
    gens = [
        tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
        for _ in range(ngen)
    ]
    if not any(any(g) for g in gens):
        return
    target = tuple(data.draw(st.integers(0, 8)) for _ in range(rank))
    res = nonneg_solve(target, gens, amb)
    oracle = brute_membership(target, gens, amb, 10)
    if res.is_witness:
        assert oracle is not None
        acc = amb.zero()
        for c, g in zip(res.coeffs, gens):
            acc = amb.add(acc, amb.scale(c, g))
        assert acc == amb.reduce(target)
    elif res.status == "no":
        assert oracle is None


def exhaustive_facet_oracle(vectors, dim, box=None):
    """All primitive inward normals found by scanning a covector box.

    Any facet normal is a primitive kernel vector of dim-1 generators, so its
    entries are bounded by (dim-1)! * max_entry^(dim-1).
    """
    import math

    if box is None:
        m = max(abs(x) for v in vectors for x in v)
        box = math.factorial(dim - 1) * m ** (dim - 1)
    out = set()
    for cand in product(range(-box, box + 1), repeat=dim):
        if not any(cand):
            continue
        vals = [sum(a * b for a, b in zip(cand, v)) for v in vectors]
        if all(x >= 0 for x in vals) and any(x == 0 for x in vals):
            n = primitive(cand)
            # keep only supporting hyperplanes of full facet dimension
            on = [list(v) for v, x in zip(vectors, vals) if x == 0]
            if on and rank_of(on) == dim - 1:
                out.add(n)
    return out


def test_facet_normals_examples():
    assert set(facet_normals([(1, 0), (0, 1)], 2)) == {(1, 0), (0, 1)}
    assert set(facet_normals([(1, 0), (1, 1), (1, 2)], 2)) == {(0, 1), (2, -1)}
    assert facet_normals([(2,), (3,)], 1) == [(1,)]
    assert facet_normals([(1,), (-1,)], 1) == []
    assert cone_is_pointed([(1, 0), (0, 1)], 2)
    assert not cone_is_pointed([(1, 0), (-1, 0), (0, 1)], 2)


def test_facet_normals_against_oracle():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.choice([2, 3])
        gens = []
        while len(gens) < dim or rank_of([list(g) for g in gens]) < dim:
            gens = [
                tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(dim + rng.randint(0, 2))
            ]
            gens = [g for g in gens if any(g)]
        got = set(facet_normals(gens, dim))
        want = exhaustive_facet_oracle(gens, dim)
        assert got == want, (gens, got, want)


def _subset_facet_oracle(vectors, dim):
    """facet_normals as it was before double description, verbatim.

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


def _random_cone(rng, dim):
    """Generators of a random full-dimensional cone in Z^dim: pointed or
    not, with repeated, zero and negative generators."""
    lo = rng.choice([-3, -1, 0, 0])
    n = dim + rng.randint(0, 4 if dim < 5 else 3)
    while True:
        gens = [tuple(rng.randint(lo, 3) for _ in range(dim)) for _ in range(n)]
        if rng.random() < 0.3:
            gens.append(gens[0])
        if rng.random() < 0.25:
            # a line in the cone
            gens.append(tuple(-x for x in gens[-1]))
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens)), (0,) * dim)
        if rank_of([list(g) for g in gens]) == dim:
            return gens


def test_facet_engine_matches_subset_search():
    rng = random.Random(12)
    pointed = {True: 0, False: 0}
    for dim in range(1, 7):
        for _ in range(60 if dim < 5 else 20):
            gens = _random_cone(rng, dim)
            got = facet_normals(gens, dim)
            assert got == _subset_facet_oracle(gens, dim), (dim, gens)
            if dim > 1:
                pointed[cone_is_pointed(gens, dim)] += 1
    assert min(pointed.values()) > 20, pointed


def test_facet_engine_on_moment_curves():
    for n in range(3, 16):
        gens = [(1, i, i * i) for i in range(n)]
        assert facet_normals(gens, 3) == _subset_facet_oracle(gens, 3)
    for n in range(4, 10):
        gens = [(1, i, i * i, i ** 3) for i in range(n)]
        got = facet_normals(gens, 4)
        assert got == _subset_facet_oracle(gens, 4)
        # a cyclic polytope with n vertices in dimension 3 has 2n - 4 facets
        assert len(got) == 2 * n - 4


@st.composite
def full_cones(draw):
    dim = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=dim, max_size=dim + 4))
    assume(rank_of([list(g) for g in gens]) == dim)
    return gens, dim


@settings(max_examples=150, deadline=None)
@given(full_cones())
def test_facet_engine_hypothesis(case):
    gens, dim = case
    assert facet_normals(gens, dim) == _subset_facet_oracle(gens, dim)


def test_double_description_of_lower_rank_cones():
    # the cone of (1,1,0), (1,-1,0), (2,0,0): a wedge in the plane x3 = 0
    lin, rays, pivots = double_description([(1, 1, 0), (1, -1, 0), (2, 0, 0)], 3)
    assert pivots == [0, 1]
    assert [sum(a * b for a, b in zip(l, (1, 1, 0))) for l in lin] == [0]
    assert [sum(a * b for a, b in zip(l, (1, -1, 0))) for l in lin] == [0]
    # two facets, normal to (1,1,0) and (1,-1,0) inside the plane
    assert len(rays) == 2
    for n in rays:
        vals = [sum(a * b for a, b in zip(n, v)) for v in [(1, 1, 0), (1, -1, 0)]]
        assert min(vals) == 0 and max(vals) > 0
    with pytest.raises(ValueError):
        facet_normals([(1, 1, 0), (1, -1, 0)], 3)
    with pytest.raises(ValueError):
        facet_normals([], 2)
    assert facet_normals([], 0) == []


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
FACET_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "facet_golden.json")

FACET_COUNT = """
import json, sys
import monoidforge.lattice as lat

calls = [0]
snf = lat.smith_normal_form

def counted(*args):
    calls[0] += 1
    return snf(*args)

lat.smith_normal_form = counted
case = json.load(open(sys.argv[1]))
normals = lat.facet_normals([tuple(g) for g in case["generators"]], case["dim"])
print(json.dumps({"smith_normal_form": calls[0], "normals": normals}))
"""


def test_facet_engine_has_no_subset_wall():
    """40 generators in dimension 5 (C(40, 4) = 91,390 subsets, each with a
    Smith form, for the subset search): no Smith form at all in a fresh
    process, and the facets that _subset_facet_oracle recorded for them in
    tests/data/facet_golden.json."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", FACET_COUNT, FACET_GOLDEN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(FACET_GOLDEN) as f:
        want = json.load(f)["normals"]
    assert report == {"smith_normal_form": 0, "normals": want}


def test_grading_for():
    z2 = AbelianGroupShape(2)
    w = grading_for([(1, 0), (1, 1), (1, 2)], z2)
    assert w is not None
    assert all(w[0] * g[0] + w[1] * g[1] >= 1 for g in [(1, 0), (1, 1), (1, 2)])
    assert grading_for([(1, 0), (-1, 0)], AbelianGroupShape(2)) is None
    zxz2 = AbelianGroupShape(1, (2,))
    assert grading_for([(0, 1)], zxz2) is None


def unimodular_inverse(m):
    """Inverse of a square integer matrix of determinant +-1, from one Smith
    form: U m V = I gives m^-1 = V U."""
    U, D, V = smith_normal_form(m)
    if any(D[i][i] != 1 for i in range(len(D))):
        raise ValueError("matrix is not unimodular")
    return mat_mul(V, U)


def test_smith_columns_give_inverse_columns():
    """U A V = D gives A V = U^-1 D: column j of A V is d_j times column j
    of U^-1 (the torsion-quotient basis), and column j of U^-1 is column j
    of A V divided by d_j (the conductor's 1-unit generators)."""
    rng = random.Random(11)
    for trial in range(200):
        rows = rng.randint(1, 4)
        if trial % 2:
            # triangular relations with diagonal p and extra columns: full
            # row rank, so every elementary divisor is nonzero
            p = rng.choice([2, 3, 5])
            A = [[p if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(rows)]
                 for i in range(rows)]
            extra = rng.randint(0, 2)
            for row in A:
                row.extend(rng.randint(-4, 4) for _ in range(extra))
        else:
            cols = rng.randint(1, 4)
            A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_normal_form(A)
        u_inv = unimodular_inverse(U)
        AV = mat_mul(A, V)
        diag = diagonal_of(D)
        if trial % 2:
            assert all(diag), A
        for j, d in enumerate(diag):
            assert [AV[i][j] for i in range(rows)] == [u_inv[i][j] * d for i in range(rows)]
            if d:
                assert all(AV[i][j] % d == 0 for i in range(rows))
                assert [AV[i][j] // d for i in range(rows)] == [u_inv[i][j] for i in range(rows)]


def facet_normals_rational(vectors, dim):
    """facet_normals for vectors with Fraction entries (cleared to ints),
    by the subset search."""
    return _subset_facet_oracle([clear_denominators(v)[1] for v in vectors], dim)


def grading_for_oracle(generators, ambient):
    """grading_for as it was before one elimination replaced its rank_of
    calls: a greedy basis of the span, then coordinates against it."""
    r = ambient.free_rank
    frees = [tuple(g[:r]) for g in generators]
    if any(not any(f) and any(g) for f, g in zip(frees, generators)):
        return None
    nonzero = [f for f in frees if any(f)]
    if not nonzero:
        return (0,) * r
    span_rank = rank_of([list(f) for f in nonzero])
    basis = []
    for f in nonzero:
        if rank_of([list(b) for b in basis] + [list(f)]) > len(basis):
            basis.append(f)
    mat = [[b[i] for b in basis] for i in range(r)]
    _, _, coords = field_eliminate(QQ, mat, nonzero)
    if None in coords:
        return None
    normals = facet_normals_rational(coords, span_rank)
    if normals is None:
        return None
    w_span = [sum(n[i] for n in normals) for i in range(span_rank)]
    if any(sum(ws * c for ws, c in zip(w_span, f)) <= 0 for f in coords):
        return None
    w = _covector_from_span(mat, w_span, r, span_rank)
    if w is None:
        return None
    if any(sum(wc * fc for wc, fc in zip(w, f)) < 1 for f in nonzero):
        return None
    return tuple(w)


def test_grading_for_against_oracle():
    rng = random.Random(5)
    for _ in range(400):
        r = rng.randint(1, 3)
        torsion = rng.choice([(), (2,), (3,), (2, 3)])
        amb = AbelianGroupShape(r, torsion)
        lo = rng.choice([-2, 0])
        gens = []
        for _ in range(rng.randint(1, 5)):
            if gens and rng.random() < 0.25:
                # the same free part again, with another torsion part
                free = gens[rng.randrange(len(gens))][:r]
            else:
                free = tuple(rng.randint(lo, 3) for _ in range(r))
            gens.append(tuple(free) + tuple(rng.randrange(d) for d in torsion))
        assert grading_for(gens, amb) == grading_for_oracle(gens, amb), (amb, gens)


def grading_for_elimination_oracle(generators, ambient):
    """grading_for as it was before double description, verbatim: one
    elimination for the pivots and span coordinates, then a second facet
    search over those coordinates."""
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


def test_grading_for_against_elimination_oracle():
    """Ambients with torsion, spans of lower rank inside Z^r (generators
    drawn from a random sublattice), mixed signs and repeated free parts."""
    rng = random.Random(21)
    lower = 0
    for _ in range(600):
        r = rng.randint(1, 4)
        torsion = rng.choice([(), (2,), (3,), (2, 4)])
        amb = AbelianGroupShape(r, torsion)
        k = rng.randint(1, r)
        frame = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
        lo = rng.choice([-2, 0, 0])
        gens = []
        for _ in range(rng.randint(1, 6)):
            if gens and rng.random() < 0.2:
                free = gens[rng.randrange(len(gens))][:r]
            else:
                c = [rng.randint(lo, 3) for _ in range(k)]
                free = tuple(sum(ci * row[t] for ci, row in zip(c, frame)) for t in range(r))
            gens.append(tuple(free) + tuple(rng.randrange(d) for d in torsion))
        want = grading_for_elimination_oracle(gens, amb)
        assert grading_for(gens, amb) == want, (amb, gens)
        frees = [list(g[:r]) for g in gens if any(g[:r])]
        lower += want is not None and frees != [] and rank_of(frees) < r
    assert lower > 50, lower


def test_rational_feasibility():
    assert nonneg_rational_feasible([(2,), (3,)], [7]) is True
    assert nonneg_rational_feasible([(2,), (3,)], [-1]) is False
    assert nonneg_rational_feasible([(1, 1), (1, -1)], [0, 5]) is False


def test_rational_feasibility_past_the_constraint_cap_raises(monkeypatch):
    """An elimination that outgrows the cap is inconclusive: it raises
    instead of returning a value a caller could read as "no"."""
    import monoidforge.lattice as lattice

    gens, target = [(1, 0), (0, 1), (1, 1), (1, 2)], [3, 4]
    assert nonneg_rational_feasible(gens, target) is True
    monkeypatch.setattr(lattice, "FM_MAX_CONSTRAINTS", 3)
    with pytest.raises(ValueError, match="exceeds 3 constraints"):
        nonneg_rational_feasible(gens, target)


def oracle_solve_smith(snf, b):
    """solve_smith as it stood with two dense matrix-vector products."""
    mat_vec = lambda a, v: [sum(c * x for c, x in zip(row, v)) for row in a]
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


def test_solve_smith_sparse_products_match_dense_oracle():
    """Random matrices (rank-deficient a third of the time) with dense
    right-hand sides, images m x of sparse x, and sparse targets, many of
    them outside the lattice."""
    rng = random.Random(5)
    solved = 0
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -4]) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.33:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1 % rows])]
        snf = smith_normal_form(m)
        x0 = [rng.choice([0, 0, 0, 1, -2]) for _ in range(cols)]
        targets = [
            [rng.randint(-5, 5) for _ in range(rows)],
            [sum(a * x for a, x in zip(row, x0)) for row in m],
            [rng.choice([0, 0, 0, 0, 1, -3]) for _ in range(rows)],
            [0] * rows,
        ]
        for b in targets:
            x = solve_smith(snf, b)
            assert x == oracle_solve_smith(snf, b)
            if x is not None:
                solved += 1
                assert [sum(a * v for a, v in zip(row, x)) for row in m] == b
    assert solved > 300


def reduce_based(shape):
    """The group operations as reduce of the coordinatewise result."""
    return {
        "add": lambda a, b: shape.reduce(tuple(x + y for x, y in zip(a, b))),
        "sub": lambda a, b: shape.reduce(tuple(x - y for x, y in zip(a, b))),
        "neg": lambda a: shape.reduce(tuple(-x for x in a)),
        "scale": lambda n, a: shape.reduce(tuple(n * x for x in a)),
    }


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(2, 6), max_size=2),
    st.data(),
)
def test_group_operations_match_reduce(free_rank, torsion, data):
    shape = AbelianGroupShape(free_rank, tuple(torsion))
    vec = st.tuples(*[st.integers(-9, 9)] * shape.dim)
    a, b = data.draw(vec), data.draw(vec)
    n = data.draw(st.integers(-4, 4))
    want = reduce_based(shape)
    # raw vectors as well as reduced ones
    for x, y in ((a, b), (shape.reduce(a), shape.reduce(b))):
        assert shape.add(x, y) == want["add"](x, y)
        assert shape.sub(x, y) == want["sub"](x, y)
        assert shape.neg(x) == want["neg"](x)
        assert shape.scale(n, x) == want["scale"](n, x)
        assert shape.sub(x, y) == shape.add(x, shape.neg(y))
        assert type(shape.add(x, y)) is tuple
    short, long_ = a[:-1], a + (1,)
    for bad in ([short, a], [a, short], [long_, a], [a, long_]):
        if len(bad[0]) != len(bad[1]):
            with pytest.raises(ValueError):
                shape.add(*bad)
            with pytest.raises(ValueError):
                shape.sub(*bad)
    for bad in (short, long_):
        if len(bad) != shape.dim:
            with pytest.raises(ValueError):
                shape.neg(bad)
            with pytest.raises(ValueError):
                shape.scale(n, bad)


def test_group_shape_identity_is_its_fields():
    """eq, hash and repr (the interning keys) see only free_rank and torsion."""
    a, b = AbelianGroupShape(2, (2,)), AbelianGroupShape(2, (2,))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((2, (2,)))
    assert repr(a) == "AbelianGroupShape(free_rank=2, torsion=(2,))"
    assert a != AbelianGroupShape(3) and AbelianGroupShape(3).dim == a.dim == 3
