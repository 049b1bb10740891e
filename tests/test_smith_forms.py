"""One Smith form per lattice question, against the routes it replaced.

`saturate_cone_lattice_oracle` is the former `closure._saturate_cone_lattice`
and `negation_oracle` the former `monoid.UnitQuotient._negation`, kept
verbatim apart from their names: the first tests the span with `rank_of`,
reads the facets off a second double description and lifts the Hilbert
basis of the pointed quotient through `unimodular_inverse` (now in
tests/test_lattice.py); the second tests each subset's rank with `rank_of`
before its rational solve.  The new code must give the same output, in the
same order, on seeded random cones of dimension 1-4 (spanning or not,
pointed or not) and on seeded random unit sets, with and without torsion.
`in_gp_oracle` and `gp_shape_oracle` are the former gp(M) routes, through
the torsion quotient and through `integer_kernel`; `in_gp` and `gp_shape`,
which share one Smith form, must agree with them on seeded random monoids.

The count test pins how many Smith forms a torsion quotient, two
normalizations and the gp(M) questions of a monoid take, so that a second Smith form for a question one already
answers cannot come back unnoticed.
"""

import random
import sys
from itertools import combinations

import pytest

from monoidforge import lattice, monoid
from monoidforge.closure import _hilbert_basis, _saturate_cone_lattice, hilbert_basis, normalize
from monoidforge.lattice import (
    AbelianGroupShape,
    _congruence_matrix,
    _dot,
    clear_denominators,
    diagonal_of,
    facet_normals,
    integer_kernel,
    rank_of,
    smith_normal_form,
    solve_rational,
    solve_smith,
)
from monoidforge.monoid import CancellativeMonoid, TorsionQuotient, _combine, _torsion_order
from test_lattice import unimodular_inverse


def saturate_cone_lattice_oracle(vectors, dim):
    """Generators of cone(vectors) cap Z^dim: Hilbert basis when the cone is
    pointed, otherwise a lattice basis of the (saturated) lineality part plus
    lifted Hilbert basis generators of the pointed quotient.  Cones that do
    not span Z^dim are first coordinatized in the saturated span lattice."""
    vectors = [tuple(v) for v in vectors if any(v)]
    if dim == 0 or not vectors:
        return []
    d = rank_of([list(v) for v in vectors])
    if d < dim:
        perp = integer_kernel([list(v) for v in vectors])
        span_basis = integer_kernel([list(p) for p in perp])
        assert len(span_basis) == d
        bmat = [[span_basis[j][i] for j in range(d)] for i in range(dim)]
        bsnf = smith_normal_form(bmat)
        coords = []
        for v in vectors:
            c = solve_smith(bsnf, v)
            assert c is not None, "vector escapes the saturated span lattice"
            coords.append(c)
        inner = saturate_cone_lattice_oracle(coords, d)
        return [
            tuple(sum(bmat[i][j] * h[j] for j in range(d)) for i in range(dim))
            for h in inner
        ]
    normals = facet_normals(vectors, dim)
    # the lineality space is the face on every facet, spanned by the
    # vectors on it, so the cone is pointed when no vector lies on it
    if not any(all(_dot(n, v) == 0 for n in normals) for v in vectors):
        return _hilbert_basis(sorted(set(vectors)), dim, normals)
    if normals:
        lin_basis = integer_kernel([list(n) for n in normals])
    else:
        lin_basis = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    k = len(lin_basis)
    A = [[lin_basis[t][i] for t in range(k)] for i in range(dim)]
    U, D, V = smith_normal_form(A)
    # the lineality lattice is saturated (an integer kernel), so the last
    # dim-k Smith coordinates give the quotient lattice Z^{dim-k}
    proj = lambda v: tuple(sum(U[i][t] * v[t] for t in range(dim)) for i in range(k, dim))
    img = [proj(g) for g in vectors]
    hb_q = hilbert_basis([v for v in img if any(v)], dim - k) if dim - k else []
    Uinv = unimodular_inverse(U)
    lifts = []
    for h in hb_q:
        full = [0] * k + list(h)
        lifts.append(tuple(sum(Uinv[i][t] * full[t] for t in range(dim)) for i in range(dim)))
    return (
        lifts
        + [tuple(b) for b in lin_basis]
        + [tuple(-x for x in b) for b in lin_basis]
    )


def negation_oracle(self, j):
    """Non-negative coefficients over the generators that sum to -g_j,
    for the unit generator g_j.

    -g_j lies in the cone of the unit generators (a linear space), so by
    Caratheodory -N g_j = sum a_i g_i on the free parts, for N > 0, a_i
    >= 0 and linearly independent g_i, found by exact rational solves.
    t = N g_j + sum a_i g_i is then torsion, of order T, and
    -g_j = (T N - 1) g_j + sum T a_i g_i.
    """
    amb = self.M.ambient
    gens = self.M.generators
    k = amb.free_rank
    target = [-x for x in gens[j][:k]]
    span = rank_of([list(gens[i][:k]) for i in self.units])
    for size in range(span + 1):
        for subset in combinations(self.units, size):
            mat = [[gens[i][t] for i in subset] for t in range(k)]
            if size and rank_of(mat) < size:
                continue
            q = solve_rational(mat, target)
            if q is None or any(x < 0 for x in q):
                continue
            N, scaled = clear_denominators(q)
            coeffs = [0] * len(gens)
            coeffs[j] = N
            for i, x in zip(subset, scaled):
                coeffs[i] += x
            T = _torsion_order(_combine(coeffs, gens, amb), amb)
            coeffs = [T * c for c in coeffs]
            coeffs[j] -= 1
            if _combine(coeffs, gens, amb) != amb.neg(gens[j]):
                raise RuntimeError(f"negation of unit generator {gens[j]} does not verify")
            return coeffs
    raise RuntimeError(f"generator {gens[j]} is not a unit of {self.M!r}")


def random_cone(rng, dim):
    """Vectors in Z^dim: a random cone, pushed into a lower-rank lattice or
    given a lineality (a vector with its negative) half of the time each."""
    s = rng.randint(1, dim + 2)
    vecs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(s)]
    if dim > 1 and rng.random() < 0.5:
        # the image of Z^r under a random dim x r matrix, r < dim
        r = rng.randint(1, dim - 1)
        B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(dim)]
        vecs = [[sum(B[i][t] * v[t] for t in range(r)) for i in range(dim)] for v in vecs]
    if rng.random() < 0.5:
        v = rng.choice(vecs)
        vecs.append([-x for x in v])
    return [tuple(v) for v in vecs]


def random_unit_monoid(rng):
    """A monoid whose unit generators u_1 ... u_m, w sum to 0 with positive
    coefficients (w = -(c_1 u_1 + ... + c_m u_m)), plus a few more random
    generators, in Z^n or Z^n x Z/d."""
    n = rng.randint(1, 3)
    amb = AbelianGroupShape(n, rng.choice([(), (2,), (3,)]))
    units = [[rng.randint(-2, 2) for _ in range(amb.dim)] for _ in range(rng.randint(1, 3))]
    w = [0] * amb.dim
    for u in units:
        c = rng.randint(1, 2)
        w = [x - c * y for x, y in zip(w, u)]
    gens = units + [w]
    gens += [[rng.randint(-1, 2) for _ in range(amb.dim)] for _ in range(rng.randint(0, 2))]
    return CancellativeMonoid(amb, gens)


def test_one_smith_form_routes_match_the_oracles():
    rng = random.Random(1601)
    seen = {"non-spanning": 0, "non-pointed": 0, "lifted": 0, "negations": 0}
    for trial in range(240):
        dim = 1 + trial % 4
        vecs = random_cone(rng, dim)
        got = _saturate_cone_lattice(vecs, dim)
        assert got == saturate_cone_lattice_oracle(vecs, dim), (vecs, dim)
        nonzero = [list(v) for v in vecs if any(v)]
        if nonzero and rank_of(nonzero) < dim:
            seen["non-spanning"] += 1
        lineality = [g for g in got if tuple(-x for x in g) in got]
        seen["non-pointed"] += bool(lineality)
        seen["lifted"] += bool(lineality) and len(got) > len(lineality)
    for _ in range(120):
        M = random_unit_monoid(rng)
        if not M.unit_generators():
            continue
        uq = M.unit_quotient()
        for j in uq.units:
            assert uq._negation(j) == negation_oracle(uq, j), (M, j)
            seen["negations"] += 1
    assert seen["non-spanning"] >= 40 and seen["non-pointed"] >= 40, seen
    assert seen["lifted"] >= 20, seen
    assert seen["negations"] >= 100, seen


Z2 = AbelianGroupShape(2)
Z3 = AbelianGroupShape(3)


def gp_questions():
    """in_gp before and after gp_shape on one monoid with torsion; no
    torsion quotient is built."""
    M = CancellativeMonoid(AbelianGroupShape(1, (2, 4)), [(1, 1, 2), (2, 0, 0)])
    assert [M.in_gp(x) for x in [(3, 1, 2), (3, 0, 0), (0, 0, 2)]] == [True, False, False]
    assert M.gp_shape() == AbelianGroupShape(1, ())
    assert M.in_gp((-1, 1, 2)) and not M.in_gp((1, 0, 0))
    assert "tq" not in M._cache


def in_gp_oracle(M, a):
    """The former CancellativeMonoid.in_gp: project the free part of a into
    gp(Mbar), subtract the section of the projection and solve the rest
    against the generators of t(M) and the torsion moduli."""
    amb = M.ambient
    k = amb.free_rank
    tq = TorsionQuotient(M)
    a = amb.reduce(a)
    try:
        t = amb.sub(a, tq.section(tq.project(a)))
    except ValueError:
        return False
    if any(t[:k]):
        return False
    if not amb.torsion:
        return True
    n = len(amb.torsion)
    cols = [list(g[k:]) for g in tq._tgens]
    cols += [[d if i == j else 0 for i in range(n)] for j, d in enumerate(amb.torsion)]
    snf = smith_normal_form([[c[i] for c in cols] for i in range(n)])
    return solve_smith(snf, list(t[k:])) is not None


def gp_shape_oracle(M):
    """The former subgroup_shape: the relation lattice from integer_kernel
    of the congruence matrix, then the Smith form of its basis."""
    s = len(M.generators)
    if s == 0:
        return AbelianGroupShape(0, ())
    m, _ = _congruence_matrix(M.generators, M.ambient)
    rel = sorted({v[:s] for v in integer_kernel(m) if any(v[:s])})
    if not rel:
        return AbelianGroupShape(s, ())
    diag = [d for d in diagonal_of(smith_normal_form([list(c) for c in zip(*rel)])[1]) if d]
    return AbelianGroupShape(s - len(diag), tuple(d for d in diag if d > 1))


def test_gp_membership_and_shape_match_the_torsion_quotient_route(monkeypatch):
    """in_gp and gp_shape against the former routes on seeded random
    monoids of rank 0-3 with moduli 2, 3, 4 and 6, the empty monoid
    included; neither builds a torsion quotient."""
    monkeypatch.setattr(monoid, "_INTERN", {})
    rng = random.Random(2903)
    seen = {"rank 0": 0, "empty": 0, "torsion": 0, "yes": 0, "no": 0}
    for _ in range(150):
        r = rng.randint(0, 3)
        tor = tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(0, 2)))
        amb = AbelianGroupShape(r, tor)
        gens = [
            tuple([rng.randint(-2, 3) for _ in range(r)] + [rng.randrange(d) for d in tor])
            for _ in range(rng.randint(0, 4))
        ]
        M = CancellativeMonoid(amb, gens)
        for _ in range(16):
            a = tuple([rng.randint(-4, 4) for _ in range(r)] + [rng.randrange(d) for d in tor])
            got = M.in_gp(a)
            assert got == in_gp_oracle(M, a), (M, a)
            seen["yes" if got else "no"] += 1
        assert M.gp_shape() == gp_shape_oracle(M), M
        assert "tq" not in M._cache
        seen["rank 0"] += r == 0
        seen["empty"] += not M.generators
        seen["torsion"] += bool(tor)
    assert min(seen.values()) >= 10, seen


def count_smith_forms(monkeypatch, run):
    """The Smith forms run makes on fresh monoids: smith_normal_form is
    wrapped wherever a monoidforge module binds it, and the interned
    monoids, which hold every cache, are set aside."""
    monkeypatch.setattr(monoid, "_INTERN", {})
    calls = []
    snf = lattice.smith_normal_form
    counted = lambda m: calls.append(m) or snf(m)
    for name, mod in list(sys.modules.items()):
        if name.startswith("monoidforge"):
            for key, value in list(vars(mod).items()):
                if value is snf:
                    monkeypatch.setattr(mod, key, counted)
    run()
    return len(calls)


@pytest.mark.parametrize(
    "run, want",
    [
        # the Smith form of the free parts gives the basis, the sections and
        # every projection
        pytest.param(
            lambda: TorsionQuotient(
                CancellativeMonoid(AbelianGroupShape(1, (2,)), [(2, 1), (3, 0), (5, 1)])
            ),
            1,
            id="torsion-quotient",
        ),
        # the kernel of the facet normals and the Smith form of the lineality
        # basis, one parallelepiped for the Hilbert basis of the quotient
        # and the unit quotient behind minimalize; _negation takes none
        pytest.param(
            lambda: normalize(CancellativeMonoid(Z2, [(1, 0), (-1, 0), (0, 1)])),
            4,
            id="normalize-lineality",
        ),
        # two kernels and the Smith form of the span basis, then one
        # parallelepiped of the index-2 simplex
        pytest.param(
            lambda: normalize(CancellativeMonoid(Z3, [(1, 1, 0), (1, -1, 0), (1, 0, 0)])),
            4,
            id="normalize-non-spanning",
        ),
        # one Smith form of [generators | torsion moduli] answers every
        # in_gp and gives gp_shape the relation lattice, whose Smith form
        # reads the invariants
        pytest.param(gp_questions, 2, id="gp-membership-and-shape"),
    ],
)
def test_smith_form_counts(monkeypatch, run, want):
    assert count_smith_forms(monkeypatch, run) == want
