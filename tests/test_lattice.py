import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from monoidforge.lattice import (
    AbelianGroupShape,
    _covector_from_span,
    cone_is_pointed,
    det,
    diagonal_of,
    element_in_subgroup,
    facet_normals,
    facet_normals_rational,
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
    subgroup_shape,
    unimodular_inverse,
)
from monoidforge.rings import QQ


def smith_invariants_oracle(m):
    """Independent invariant-factor oracle via sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    facs = [int(x) for x in invariant_factors(Matrix(m)) if int(x) != 0]
    return [abs(x) for x in facs]


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


def test_grading_for():
    z2 = AbelianGroupShape(2)
    w = grading_for([(1, 0), (1, 1), (1, 2)], z2)
    assert w is not None
    assert all(w[0] * g[0] + w[1] * g[1] >= 1 for g in [(1, 0), (1, 1), (1, 2)])
    assert grading_for([(1, 0), (-1, 0)], AbelianGroupShape(2)) is None
    zxz2 = AbelianGroupShape(1, (2,))
    assert grading_for([(0, 1)], zxz2) is None


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


def test_rational_feasibility():
    assert nonneg_rational_feasible([(2,), (3,)], [7]) is True
    assert nonneg_rational_feasible([(2,), (3,)], [-1]) is False
    assert nonneg_rational_feasible([(1, 1), (1, -1)], [0, 5]) is False
