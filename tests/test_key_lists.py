"""One key list per (monoid, weight function): monoid_keys_by_weight keeps
the list of the largest bound asked, each key with its level, and answers a
smaller bound off the levels.  The enumeration it replaced, which searched
or scanned again for every bound, is kept here verbatim as the oracle.

For every algebra class (CancellativeAlgebra, PcAlgebra,
MonomialQuotientAlgebra, MonomialSubsetAlgebra) and every path (the
canonical grading, a scaled custom weight, a custom weight <= 0 on a
generator of a graded monoid, monoids with units with and without a custom
weight), keys_upto(d) must equal the oracle for every d <= B, whether d
comes after keys_upto(B) in ascending, descending or shuffled order, or
grows past the cached bound.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from monoidforge import algebra, monoid
from monoidforge.algebra import (
    CancellativeAlgebra,
    MonomialQuotientAlgebra,
    MonomialSubsetAlgebra,
    PcAlgebra,
)
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, PcMonoid
from monoidforge.rings import GF
from monoidforge.squares import build_torsion_splitting, verify_cartesian

B = 6
F2 = GF(2)


# ---------------------------------------------------------------------------
# oracle: the enumeration before key lists were kept, verbatim


def monoid_keys_by_weight(M, weight_fn, bound):
    """Monoid elements with weight_fn <= bound.

    When M carries its canonical grading, any other monoid-linear weight w
    satisfies deg <= (max_g deg(g)/w(g)) * w on all of M, so a scaled slice
    enumeration covers the window; otherwise the box-scan filtration is used.
    """
    from math import ceil

    if M.grading() is not None:
        if weight_fn is None:
            return M._slice_data(bound).elements(bound)
        factor = 1
        for g in M.generators:
            wg = weight_fn(g)
            if wg <= 0:
                factor = None
                break
            factor = max(factor, ceil(M.degree(g) / wg))
        if factor is not None:
            top = bound * factor
            return [k for k in M._slice_data(top).elements(top) if weight_fn(k) <= bound]
    jump = M.filtration_weight if weight_fn is None else weight_fn
    return [k for k in M.filtered_elements(bound) if jump(k) <= bound]


# ---------------------------------------------------------------------------
# cases: a fresh algebra on fresh caches each time


def reset_caches():
    monoid._INTERN.clear()


Z1, Z2 = AbelianGroupShape(1), AbelianGroupShape(2)
Z1T2, Z2T2 = AbelianGroupShape(1, (2,)), AbelianGroupShape(2, (2,))

# (name, ambient, generators, weight function or None)
MONOIDS = [
    ("cusp canonical", Z1, [(2,), (3,)], None),
    ("plane canonical", Z2, [(1, 0), (0, 1), (1, 1)], None),
    ("torsion canonical", Z1T2, [(1, 0), (1, 1)], None),
    ("cusp scaled", Z1, [(2,), (3,)], lambda k: 2 * k[0]),
    ("plane scaled", Z2, [(1, 0), (1, 2)], lambda k: k[0] + k[1]),
    ("torsion scaled", Z2T2, [(1, 0, 1), (0, 1, 0), (1, 1, 1)], lambda k: 3 * k[0] + k[1]),
    ("plane weight 0 on a generator", Z2, [(1, 0), (0, 1)], lambda k: k[0]),
    ("plane weight < 0 on a generator", Z2, [(1, 0), (1, 1)], lambda k: 2 * k[0] - k[1]),
    ("units", Z2, [(1, 0), (-1, 0), (0, 1)], None),
    ("units weight", Z2, [(1, 0), (-1, 0), (0, 1)], lambda k: k[1]),
    ("torsion units", Z1T2, [(1, 0), (-1, 0), (0, 1)], None),
]


def cancellative(amb, gens, w):
    return CancellativeAlgebra(CancellativeMonoid(amb, gens), F2, weight_fn=w)


def pc(amb, gens, w):
    M = CancellativeMonoid(amb, gens)
    return PcAlgebra(PcMonoid(M, [M.generators[1]]), F2, weight_fn=w)


def quotient(amb, gens, w):
    M = CancellativeMonoid(amb, gens)
    return MonomialQuotientAlgebra(M, F2, lambda k: sum(map(abs, k)) % 3 == 2, "Q", weight_fn=w)


def subset(amb, gens, w):
    ambient = CancellativeAlgebra(CancellativeMonoid(amb, gens), F2, weight_fn=w)
    return MonomialSubsetAlgebra(ambient, lambda k: k[0] % 2 == 0, "S")


ALGEBRAS = [cancellative, pc, quotient, subset]


def expected(make, case, bounds):
    """keys_upto(d) of a fresh algebra for each d, with the oracle
    enumeration in place of monoid_keys_by_weight."""
    _, amb, gens, w = case
    saved = algebra.monoid_keys_by_weight
    algebra.monoid_keys_by_weight = monoid_keys_by_weight
    try:
        reset_caches()
        alg = make(amb, gens, w)
        return {d: alg.keys_upto(d) for d in bounds}
    finally:
        algebra.monoid_keys_by_weight = saved
        reset_caches()


def fresh(make, case):
    _, amb, gens, w = case
    reset_caches()
    return make(amb, gens, w)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", MONOIDS, ids=lambda c: c[0])
def test_key_lists_match_oracle_in_every_order(make, case):
    bounds = list(range(-1, B + 3))
    want = expected(make, case, bounds)
    shuffled = list(range(B + 1))
    random.Random(B).shuffle(shuffled)
    for order in (range(B + 1), range(B, -1, -1), shuffled):
        alg = fresh(make, case)
        assert alg.keys_upto(B) == want[B]
        for d in order:
            assert alg.keys_upto(d) == want[d], (case[0], d)
        # past the cached bound: the list is computed again and replaces it
        assert alg.keys_upto(B + 2) == want[B + 2]
        assert alg.keys_upto(B + 1) == want[B + 1]
        assert alg.keys_upto(-1) == want[-1]
    # growing one bound at a time, as an unprimed walk asks
    alg = fresh(make, case)
    for d in range(B + 1):
        assert alg.keys_upto(d) == want[d], (case[0], d)


def test_box_scan_levels_are_exact_where_the_weight_alone_is_not():
    """On a monoid with units and the weight k -> k[1], keys of small weight
    but large filtration weight enter only at the bound their box scan
    reaches them: reading a smaller bound off the weight alone would list
    (-5, 0) at bound 0."""
    case = MONOIDS[9]
    want = expected(cancellative, case, range(B + 1))
    alg = fresh(cancellative, case)
    alg.keys_upto(B)
    assert (-5, 0) in alg.keys_upto(B) and (-5, 0) not in alg.keys_upto(0)
    assert [alg.keys_upto(d) for d in range(B + 1)] == [want[d] for d in range(B + 1)]


def test_one_search_per_monoid_and_weight(monkeypatch):
    """After keys_upto(B), every smaller bound of every algebra on the same
    monoid and weight reads the kept list: no search and no box scan."""
    searches, scans = [], []
    build = monoid.GradedSlice.__init__
    monkeypatch.setattr(
        monoid.GradedSlice, "__init__", lambda S, M, b: searches.append(b) or build(S, M, b)
    )
    scan = CancellativeMonoid.filtered_elements
    monkeypatch.setattr(
        CancellativeMonoid, "filtered_elements", lambda M, b: scans.append(b) or scan(M, b)
    )
    for case in (MONOIDS[1], MONOIDS[4], MONOIDS[9]):
        _, amb, gens, w = case
        reset_caches()
        algs = [make(amb, gens, w) for make in (cancellative, quotient, subset)]
        algs[0].keys_upto(B)
        searches.clear()
        scans.clear()
        for alg in algs:
            for d in range(B, -1, -1):
                alg.keys_upto(d)
        assert searches == [] and scans == [], case[0]
    reset_caches()


@st.composite
def graded_cases(draw):
    r = draw(st.integers(1, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    amb = AbelianGroupShape(r, torsion)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    free = st.tuples(*[st.integers(0, 2)] * r).filter(any)
    gens = draw(st.lists(st.tuples(free, tors).map(lambda p: p[0] + p[1]), min_size=1, max_size=3))
    cover = draw(st.tuples(*[st.integers(-1, 3)] * r))
    weight = None if not any(cover) else (lambda k: sum(c * x for c, x in zip(cover, k)))
    return ("hypothesis", amb, gens, weight)


@settings(max_examples=40, deadline=None)
@given(graded_cases(), st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_key_lists_match_oracle_on_random_monoids(case, calls):
    want = expected(cancellative, case, range(6))
    alg = fresh(cancellative, case)
    for d in calls:
        assert alg.keys_upto(d) == want[d], (case, d)
    reset_caches()


TORSION_SPLITTING = """
import json, sys
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid
from monoidforge.rings import GF
from monoidforge.squares import build_torsion_splitting, verify_cartesian
L = CancellativeMonoid(AbelianGroupShape(1), [(1,)])
squares = build_torsion_splitting(L, [2], GF(int(sys.argv[1])))
print(json.dumps([verify_cartesian(sq, 10).to_json() for sq in squares], sort_keys=True))
"""


def test_torsion_splitting_rebuilds_keep_one_key_list_per_monoid():
    """Key lists do not depend on the ring, and the torsion-splitting
    weights are the same functions on every build over the same S, so
    rebuilding the pair over F2 and F3 leaves one list on each corner
    monoid; the certificate is the one a fresh process gives."""
    reset_caches()
    L = CancellativeMonoid(Z1, [(1,)])
    for q in (2, 3, 2, 3):
        squares = build_torsion_splitting(L, [2], GF(q))
        got = json.dumps([verify_cartesian(sq, 10).to_json() for sq in squares], sort_keys=True)
    counts = {
        name: len(squares[0].corner(name).algebra.M._cache.get("key_lists", {}))
        for name in ("A2", "B1", "B2")
    }
    assert counts["A2"] == counts["B1"] == 1 and counts["B2"] <= 1, counts
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh_run = subprocess.run(
        [sys.executable, "-c", TORSION_SPLITTING, "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert fresh_run.returncode == 0, fresh_run.stderr
    assert got == fresh_run.stdout.strip()
    reset_caches()
