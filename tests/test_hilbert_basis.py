"""Hilbert bases from a pulling triangulation against the former box scan.

`_box_scan_hilbert_oracle` is the former `closure._hilbert_basis` with its
`_cone_points_up_to`, kept verbatim: every lattice point of the cone up to
the Caratheodory degree, then a quadratic reducibility test.  The new code
must return the same sorted basis on seeded random cones (with repeated,
non-primitive and non-extreme generators), on the cones over (1,0,0),
(1,k,0), (1,0,k), (1,k,k-1), on moment curves and on hypothesis cones.

The oracle takes 1.4-36 s on the k = 12 cone and on the moment curves
(1,i,i^2,i^3) with 5, 6 and 7 generators, so their bases were computed once
by it into tests/data/hilbert_golden.json.  Regenerate (only when the
list of cones changes) with
    PYTHONPATH=src python tests/test_hilbert_basis.py
"""

import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings

from monoidforge.closure import (
    _bits,
    _extreme_rays,
    _pulling_triangulation,
    hilbert_basis,
)
from monoidforge.lattice import (
    Echelon,
    facet_normals,
    primitive,
    rank_of,
)
from monoidforge.rings import QQ

from helpers import run_fresh
from test_lattice import full_cones

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "hilbert_golden.json")


def _box_scan_hilbert_oracle(gens, dim, normals):
    """hilbert_basis of the sorted distinct nonzero gens, given the facet
    normals of their cone."""
    if rank_of([list(n) for n in normals]) != dim:
        raise ValueError("hilbert_basis requires a pointed cone")
    w = tuple(sum(n[j] for n in normals) for j in range(dim))
    wdeg = lambda v: sum(a * b for a, b in zip(w, v))
    degs = {g: wdeg(g) for g in gens}
    assert all(d >= 1 for d in degs.values())
    # the largest degree sum of an independent generator subset: every
    # degree is positive and linear independence is a matroid, so a basis
    # taken greedily in descending degree attains it
    E = Echelon(QQ)
    B = 0
    for g in sorted(gens, key=degs.get, reverse=True):
        if E.insert(g, dict(enumerate(g))) is None:
            B += degs[g]
            if E.rank == dim:
                break
    points = _cone_points_up_to(gens, normals, w, B, dim)
    pset = set(points)
    by_degree = sorted(points, key=wdeg)
    basis = []
    for x in by_degree:
        dx = wdeg(x)
        reducible = False
        for y in by_degree:
            dy = wdeg(y)
            if 2 * dy > dx:
                break
            diff = tuple(a - b for a, b in zip(x, y))
            if diff != x and any(diff) and diff in pset:
                reducible = True
                break
        if not reducible:
            basis.append(x)
    return sorted(basis)


def _cone_points_up_to(gens, normals, w, B, dim):
    """Nonzero lattice points x with normals.x >= 0 and 1 <= w.x <= B."""
    # convex-hull coordinate bounds: x in conv{ (B/w(g)) g } scaled over [0,1]
    los, his = [], []
    for j in range(dim):
        vals = [Fraction(B * g[j], sum(a * b for a, b in zip(w, g))) for g in gens]
        los.append(min(min(vals), Fraction(0)))
        his.append(max(max(vals), Fraction(0)))
    lo = [int(x.__floor__()) for x in los]
    hi = [int(x.__ceil__()) for x in his]
    rows = [tuple(n) for n in normals] + [tuple(-c for c in w)]
    consts = [0] * len(normals) + [-B]  # row . x >= const
    out = []
    x = [0] * dim

    def rec(j):
        if j == dim:
            v = tuple(x)
            if any(v) and all(
                sum(a * b for a, b in zip(n, v)) >= 0 for n in normals
            ):
                d = sum(a * b for a, b in zip(w, v))
                if 1 <= d <= B:
                    out.append(v)
            return
        for val in range(lo[j], hi[j] + 1):
            x[j] = val
            feasible = True
            for row, cst in zip(rows, consts):
                part = sum(row[t] * x[t] for t in range(j + 1))
                rest = sum(
                    row[t] * (hi[t] if row[t] > 0 else lo[t]) for t in range(j + 1, dim)
                )
                if part + rest < cst:
                    feasible = False
                    break
            if feasible:
                rec(j + 1)
        x[j] = 0

    rec(0)
    return out


def oracle(gens, dim):
    """The box-scan Hilbert basis, with hilbert_basis's input handling."""
    gens = sorted({tuple(g) for g in gens if any(g)})
    return _box_scan_hilbert_oracle(gens, dim, facet_normals(gens, dim))


def oracle_box_points(gens, dim):
    """The number of points of the box the oracle scans, as it computes it."""
    gens = sorted({tuple(g) for g in gens if any(g)})
    normals = facet_normals(gens, dim)
    w = tuple(sum(n[j] for n in normals) for j in range(dim))
    degs = {g: sum(a * b for a, b in zip(w, g)) for g in gens}
    E = Echelon(QQ)
    B = 0
    for g in sorted(gens, key=degs.get, reverse=True):
        if E.insert(g, dict(enumerate(g))) is None:
            B += degs[g]
    size = 1
    for j in range(dim):
        vals = [Fraction(B * g[j], degs[g]) for g in gens] + [Fraction(0)]
        size *= int(max(vals).__ceil__()) - int(min(vals).__floor__()) + 1
    return size


def is_pointed(gens, dim):
    normals = facet_normals(gens, dim)
    return bool(normals) and rank_of([list(n) for n in normals]) == dim


def k_family(k):
    return [(1, 0, 0), (1, k, 0), (1, 0, k), (1, k, k - 1)]


def seeded_cone(rng):
    """A cone of dimension 1-4, its entries small enough for the oracle,
    sometimes with a repeated generator, a non-primitive multiple or the
    sum of two generators (not extreme unless the two span one ray)."""
    dim = rng.randint(1, 4)
    n = dim + rng.randint(0, 3)
    if dim == 1:
        sign = rng.choice([1, -1])
        gens = [(sign * rng.randint(1, 7),) for _ in range(n)]
    elif dim == 2:
        gens = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(n)]
    elif dim == 3:
        lo, hi = rng.choice([(-1, 1), (0, 2)])
        gens = [tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(n)]
    elif rng.random() < 0.25:
        gens = [(1,) + tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(n)]
    else:
        gens = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(n)]
    gens = [g for g in gens if any(g)]
    if len(gens) >= 2:
        a, b = rng.sample(gens, 2)
        extra = rng.choice(["repeat", "multiple", "sum", None])
        if extra == "repeat":
            gens.append(a)
        elif extra == "multiple":
            gens.append(tuple(rng.choice([2, 3]) * x for x in a))
        elif extra == "sum":
            gens.append(tuple(x + y for x, y in zip(a, b)))
    return gens, dim


def check_triangulation(gens, dim, basis):
    """Every simplex of the triangulation has dim linearly independent
    extreme rays, the simplices use exactly the extreme rays, and every
    generator and basis element lies in the cone of some simplex."""
    normals = facet_normals(gens, dim)
    rays, facet_rays = _extreme_rays(sorted(set(gens)), normals)
    # a primitive generator spans an extreme ray exactly when the normals
    # vanishing on it have rank dim - 1
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    want = sorted(
        {
            primitive(g)
            for g in gens
            if rank_of([list(n) for n in normals if not dot(n, g)]) == dim - 1
        }
    )
    assert rays == want, (gens, rays, want)
    simplices = _pulling_triangulation(facet_rays, len(rays), dim)
    used = 0
    inverses = []
    for s in simplices:
        cols = [rays[i] for i in _bits(s)]
        assert len(cols) == dim and rank_of([list(c) for c in cols]) == dim, (gens, cols)
        used |= s
        inverses.append(_inverse([[c[i] for c in cols] for i in range(dim)]))
    assert used == (1 << len(rays)) - 1, (gens, rays, simplices)
    for x in list(gens) + list(basis):
        assert any(all(dot(row, x) >= 0 for row in inv) for inv in inverses), (gens, x)


def _inverse(m):
    """Inverse of an invertible square integer matrix over Q, by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return [row[n:] for row in a]


def test_seeded_cones_match_the_box_scan():
    rng = random.Random(1515)
    pointed = refused = 0
    dims = [0] * 5
    while pointed < 320:
        gens, dim = seeded_cone(rng)
        if not gens or rank_of([list(g) for g in gens]) < dim:
            continue
        if not is_pointed(gens, dim):
            with pytest.raises(ValueError):
                hilbert_basis(gens, dim)
            refused += 1
            continue
        got = hilbert_basis(gens, dim)
        assert got == oracle(gens, dim), (gens, dim)
        check_triangulation(gens, dim, got)
        pointed += 1
        dims[dim] += 1
    assert min(dims[1:]) >= 50, dims
    assert refused >= 20, refused


def test_k_family_matches_the_box_scan():
    for k in range(1, 9):
        got = hilbert_basis(k_family(k), 3)
        assert got == oracle(k_family(k), 3), k
        check_triangulation(k_family(k), 3, got)


def test_moment_curves_match_the_box_scan():
    for n in range(3, 11):
        gens = [(1, i, i * i) for i in range(n)]
        got = hilbert_basis(gens, 3)
        assert got == oracle(gens, 3), n
        check_triangulation(gens, 3, got)
    gens = [(1, i, i * i, i**3) for i in range(4)]
    got = hilbert_basis(gens, 4)
    assert got == oracle(gens, 4)
    check_triangulation(gens, 4, got)


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_recorded_oracle_bases():
    # the k = 12 cone and the cubic moment curves with 5-7 generators
    for case in _golden():
        gens = [tuple(g) for g in case["gens"]]
        got = hilbert_basis(gens, case["dim"])
        assert [list(h) for h in got] == case["basis"], case["name"]
        check_triangulation(gens, case["dim"], got)


def test_k12_basis_in_a_fresh_process():
    (case,) = [c for c in _golden() if c["name"] == "k=12"]
    assert len(case["basis"]) == 157
    code = (
        "import json\n"
        "from monoidforge.closure import hilbert_basis\n"
        f"print(json.dumps([list(h) for h in hilbert_basis({case['gens']!r}, 3)]))\n"
    )
    out = run_fresh(["-c", code], check=True).stdout
    assert json.loads(out) == case["basis"]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(full_cones())
def test_hypothesis_pointed_cones_match_the_box_scan(case):
    gens, dim = case
    assume(is_pointed(gens, dim))
    # the oracle scans every point of its box; larger boxes are left to the
    # seeded families above
    assume(oracle_box_points(gens, dim) <= 20000)
    assert hilbert_basis(gens, dim) == oracle(gens, dim)


def test_cones_that_are_not_pointed_are_refused():
    for gens, dim in [
        ([(1,), (-1,)], 1),
        ([(1, 0), (-1, 0), (0, 1)], 2),
        ([(1, 0), (0, 1), (-1, -1)], 2),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], 3),
    ]:
        with pytest.raises(ValueError):
            hilbert_basis(gens, dim)
        with pytest.raises(ValueError):
            oracle(gens, dim)


def regenerate():
    cases = [("k=12", k_family(12), 3)] + [
        (f"(1,i,i^2,i^3), n={n}", [(1, i, i * i, i**3) for i in range(n)], 4) for n in (5, 6, 7)
    ]
    out = [
        {"name": name, "gens": [list(g) for g in gens], "dim": dim,
         "basis": [list(h) for h in oracle(gens, dim)]}
        for name, gens, dim in cases
    ]
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
