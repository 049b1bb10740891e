"""The packed slice engine (`monoid.GradedSlice`) against the tuple search it
replaced.

`oracle_slice_data` is the former `CancellativeMonoid._slice_data` and
`oracle_ideal_generators` the former `ideals._predicate_ideal_generators`,
copied verbatim: a breadth-first search over ambient tuples, and ideal
lookups by tuple subtraction in its map.  Neither can alias one element onto
another, so they decide what every packed lookup must answer.
"""

import json
import os
import subprocess
import sys
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from helpers import slice_get, witness_mask
from monoidforge import cones, monoid
from monoidforge.ideals import (
    CertificationError,
    MonoidIdeal,
    _face_index_at_least,
    _outside_face,
    _radical_candidate,
    _support_generators,
    ideal_filtration,
    is_prime,
    prime_decomposition,
    radical,
)
from monoidforge.cones import face_lattice
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import (
    CancellativeMonoid,
    GradedSlice,
    UnitQuotient,
    _irreducible_generators,
    member,
)


def oracle_slice_data(self, bound):
    """Map element -> (witness, degree) covering every monoid element of
    degree <= bound, from one breadth-first search started at 0.

    The witness of an element is the first path the search reaches it
    by: the factorization with the fewest generators, and among those
    the lexicographically largest coefficient vector.  Every path to an
    element stays below its degree, so the witness does not depend on
    the bound.  A cached slice that covers bound is returned as it is;
    otherwise the search runs again from 0 and replaces it, so the
    answer never depends on earlier calls.
    """
    cached = self._cache.get("slice")
    if cached is not None and cached[0] >= bound:
        return cached[1]
    if self.grading() is None:
        raise ValueError("slice enumeration needs a positive monoid")
    amb = self.ambient
    gens = self.generators
    degs = [self.degree(g) for g in gens]
    frontier = {amb.zero(): ((0,) * len(gens), 0)}
    seen = dict(frontier)
    while frontier:
        new = {}
        for el, (coeffs, d) in frontier.items():
            for i, g in enumerate(gens):
                nd = d + degs[i]
                if nd <= bound:
                    nxt = amb.add(el, g)
                    if nxt not in seen and nxt not in new:
                        wit = list(coeffs)
                        wit[i] += 1
                        new[nxt] = (tuple(wit), nd)
        seen.update(new)
        frontier = new
    self._cache["slice"] = (bound, seen)
    return seen


def oracle_ideal_generators(host, pred, bound):
    """Minimal elements of {x in M : pred(x, witness)} on the degree <= bound
    slice, certified by a lookahead window: every predicate element one
    generator band above the bound must already reduce to the found
    generators.

    One slice of degree bound + band answers every membership question of
    the search by lookup: each difference x - g it forms has degree at most
    deg(x), and the slice holds every element of M up to its bound.  pred is
    called with an element and its slice witness, at most once per element.
    """
    if host.grading() is None:  # before degree() raises a different message
        raise ValueError("slice enumeration needs a positive monoid")
    amb = host.ambient
    gens = host.generators
    band = max((host.degree(g) for g in gens), default=1)
    top = bound + band
    data = host._slice_data(top)
    known = {}

    def holds(x):
        ok = known.get(x)
        if ok is None:
            ok = known[x] = pred(x, data[x][0])
        return ok

    mins, lookahead = [], []
    for x in sorted(data):
        d = data[x][1]
        if d > top or not any(x):
            continue
        if d > bound:
            lookahead.append(x)
        elif holds(x) and not any(
            y in data and holds(y) for y in (amb.sub(x, g) for g in gens)
        ):
            mins.append(x)
    for x in lookahead:
        if holds(x) and not _generated_by(amb, data, mins, x):
            raise CertificationError(
                f"ideal generator stream not stabilized within degree {bound}: "
                f"element {x} above the bound is not generated"
            )
    return mins


def _generated_by(amb, data, ideal_gens, x):
    """x in the ideal generated by ideal_gens, decided on a slice map that
    covers the degree of x (every x - g in M has degree <= deg(x))."""
    return any(amb.sub(x, g) in data for g in ideal_gens)


class OracleHost:
    """What the oracles read of a monoid, with a slice cache of its own."""

    def __init__(self, M):
        self.ambient, self.generators, self._cache = M.ambient, M.generators, {}
        self.grading, self.degree = M.grading, M.degree

    _slice_data = oracle_slice_data


def oracle(M, bound):
    return OracleHost(M)._slice_data(bound)


def reach(M, bound):
    """The box of a bound-slice: |x_t| <= bound * max_g |g_t|."""
    r = M.ambient.free_rank
    return [bound * max(abs(g[t]) for g in M.generators) for t in range(r)]


def unit(amb, t, c=1):
    return tuple(c if i == t else 0 for i in range(amb.dim))


def plus(amb, x, *vs):
    for v in vs:
        x = amb.add(x, v)
    return x


TORSIONS = [(), (2,), (3,), (2, 4)]


@st.composite
def positive_monoids(draw, max_rank=4):
    r = draw(st.integers(1, max_rank))
    torsion = draw(st.sampled_from(TORSIONS))
    amb = AbelianGroupShape(r, torsion)
    free = st.tuples(*[st.integers(-1, 2)] * r).filter(any)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(st.tuples(free, tors).map(lambda p: p[0] + p[1]), min_size=1, max_size=4))
    M = CancellativeMonoid(amb, gens)
    assume(M.grading() is not None)
    return M


@settings(max_examples=120, deadline=None)
@given(positive_monoids(), st.integers(0, 12))
def test_packed_search_matches_tuple_oracle(M, bound):
    want = oracle(M, bound)
    assume(len(want) <= 4000)
    S = GradedSlice(M, bound)
    # the same elements, first reached in the same order, with the same
    # witnesses and degrees
    assert [S.element(k) for k in S.entries] == list(want)
    assert [(S.witness(k), S.degree(k)) for k in S.entries] == list(want.values())
    assert all(S.key(x) == k for k, x in zip(S.entries, want))
    # sorting keys sorts the tuples
    assert [S.element(k) for k in sorted(S.entries)] == sorted(want)
    for b in {0, bound // 2, bound}:
        inside = sorted((x, w) for x, (w, d) in want.items() if d <= b)
        assert S.elements(b) == [x for x, _ in inside]
        assert list(S.witnesses(b).items()) == inside


def probes(M, bound, elements):
    """Elements around the box of the bound-slice: one step past it on each
    coordinate, coordinates of +-10^6, and x + c (e_t - R e_{t+1}) for slice
    elements x, which an unchecked mixed-radix packing with radix R >=
    2 * reach + 1 in coordinate t + 1 would send to the key of x."""
    amb = M.ambient
    r = amb.free_rank
    box = reach(M, bound)
    out = []
    for t in range(r):
        for sign in (1, -1):
            out.append(unit(amb, t, sign * (box[t] + 1)))
            out.append(unit(amb, t, sign * 10**6))
            for x in elements[:3] + elements[-3:]:
                out.append(plus(amb, x, unit(amb, t, sign * (box[t] + 1 - sign * x[t]))))
    for t in range(r - 1):
        for radix in {2 * box[t + 1] + 1, 4 * box[t + 1] + 1, 6 * box[t + 1] + 1}:
            for c in (1, -1, 10**6):
                for x in elements[:3] + elements[-3:]:
                    out.append(plus(amb, x, unit(amb, t, c), unit(amb, t + 1, -c * radix)))
    for j, d in enumerate(amb.torsion):
        # a torsion coordinate that wraps around, and a free one past the box
        for x in elements[:3]:
            out.append(plus(amb, x, unit(amb, r + j, d - 1)))
            if r:
                out.append(plus(amb, x, unit(amb, r + j, 1), unit(amb, r - 1, box[r - 1] + 1)))
    return [amb.reduce(y) for y in out]


def heavy(M, bound, elements):
    """Points of the box of the bound-slice with degree in (bound, 3 bound]:
    slice elements moved along a coordinate t, in the direction in which
    the degree w_t x_t rises, as far as the box allows, each also with a
    torsion coordinate turned.  The guard of the degree slack must reject
    their keys without matching another element."""
    amb = M.ambient
    r = amb.free_rank
    w = M.grading()
    box = reach(M, bound)
    out = []
    for x in elements[:6] + elements[-6:]:
        for t in range(r):
            if not w[t]:
                continue
            step = unit(amb, t, 1 if w[t] > 0 else -1)
            y = amb.add(x, step)
            while abs(y[t]) <= box[t] and M.degree(y) <= 3 * bound:
                if M.degree(y) > bound:
                    out.append(y)
                    out += [plus(amb, y, unit(amb, r + j)) for j in range(len(amb.torsion))]
                y = amb.add(y, step)
    return [amb.reduce(y) for y in out]


@settings(max_examples=80, deadline=None)
@given(positive_monoids(max_rank=3), st.integers(0, 6))
def test_lookups_never_alias(M, bound):
    amb = M.ambient
    want = oracle(M, bound)
    assume(len(want) <= 600)
    S = GradedSlice(M, bound)
    elements = sorted(want)
    targets = probes(M, bound, elements)
    r, box = amb.free_rank, reach(M, bound)
    corners = [  # where |deg| is largest on the box
        amb.reduce(tuple(c * e for c, e in zip(signs, box)) + (0,) * len(amb.torsion))
        for signs in product((-1, 1), repeat=r)
    ]
    for y in targets + elements + heavy(M, bound, elements) + corners:
        assert slice_get(S, y) == want.get(y, (None,))[0], y
        k = S.key(y)
        if k is not None:  # the slack field neither borrows nor carries
            assert (S.element(k), S.degree(k)) == (y, M.degree(y)), y
    # x - v for every slice element x, the box edge included, and v among
    # the generators, the slice elements and the probes
    vs = list(M.generators) + elements[:4] + elements[-4:] + targets[::3]
    for v in vs:
        minus = S.minus([v])
        for x in elements:
            assert S.generated(S.key(x), minus) == (amb.sub(x, v) in want), (x, v)


EDGE_MONOIDS = [
    (AbelianGroupShape(2), [(1, 0), (0, 1)]),
    (AbelianGroupShape(2), [(1, -2), (1, 0), (1, 2)]),
    (AbelianGroupShape(2), [(1, 3), (1, -3), (1, 0)]),
    (AbelianGroupShape(3), [(1, 0, -1), (1, 0, 1), (1, 1, 0), (1, -1, 0)]),
    (AbelianGroupShape(2, (2,)), [(1, 0, 1), (1, 2, 0), (2, 1, 0), (0, 3, 1)]),
    (AbelianGroupShape(1, (2, 4)), [(1, 1, 3), (1, 0, 1), (2, 1, 2)]),
]


def test_member_never_aliases():
    """member on a cached slice: every target of degree in 1..bound is
    decided by the tuple oracle, past the box and far outside it too."""
    for amb, gens in EDGE_MONOIDS:
        M = CancellativeMonoid(amb, gens)
        bound = 6
        M._slice_data(bound)
        want = oracle(M, bound)
        elements = sorted(want)
        r = amb.free_rank
        w = M.grading()
        far = []
        if r >= 2:  # a direction of degree 0, so the degree stays small
            kernel = tuple(w[1] if t == 0 else -w[0] if t == 1 else 0 for t in range(amb.dim))
            far = [amb.add(x, amb.scale(c, kernel)) for x in elements[:5] for c in (10**6, -(10**6))]
        checked = 0
        for y in probes(M, bound, elements) + far:
            if 0 < M.degree(y) <= bound:
                res = member(M, y)
                assert res.is_yes == (y in want), (gens, y)
                if res.is_yes:
                    assert res.witness == want[y][0]
                checked += 1
        assert checked, gens


def test_irreducible_generators_never_alias():
    """g - h of two generators may leave the box of the slice up to the
    largest generator degree (here every generator has degree 1, so the
    box is one generator wide)."""
    cases = EDGE_MONOIDS + [
        (AbelianGroupShape(2), [(1, 4), (1, -4), (2, 0), (1, 0)]),
        (AbelianGroupShape(1, (3,)), [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]),
        (AbelianGroupShape(2, (2,)), [(1, 5, 1), (1, -5, 1), (2, 0, 0), (2, 0, 1)]),
    ]
    for amb, gens in cases:
        M = CancellativeMonoid(amb, gens)
        degs = [M.degree(g) for g in M.generators]
        want = oracle(M, max(degs))
        irreducible = [
            g for g, d in zip(M.generators, degs)
            if not any(e < d and amb.sub(g, h) in want for h, e in zip(M.generators, degs))
        ]
        assert _irreducible_generators(M) == irreducible, gens


def test_ideal_lookups_never_alias():
    """Ideal generator searches, prime tests and certificates on hosts with
    mixed signs and torsion, for ideals with generators far outside the box
    of the slices they are looked up in."""
    for amb, gens in EDGE_MONOIDS:
        host = CancellativeMonoid(amb, gens)
        g0, g1 = host.generators[0], host.generators[-1]
        far = plus(amb, g0, *[g1] * 14)
        I = MonoidIdeal(host, [g0, far])
        cone = cones._cone_of(host)
        for test in [_radical_candidate(host, I.generators)] + [
            _outside_face(host, f) for f in face_lattice(host)[1:]
        ] + [_face_index_at_least(host, 1)]:
            got = _support_generators(host, test)

            def pred(x, witness):
                return test(witness_mask(cone, witness))

            assert got == oracle_ideal_generators(OracleHost(host), pred, 8), gens
        rad = radical(I, degree_bound=8)
        dec = prime_decomposition(rad.ideal, degree_bound=8)
        for P, _, _ in dec.primes:
            inside = plus(amb, P.generators[0], *[g1] * 14)
            assert is_prime(MonoidIdeal(host, list(P.generators) + [inside]))
        # a far redundant generator in the certified ideal itself
        wide = MonoidIdeal(host, list(rad.ideal.generators) + [plus(amb, far, g0)])
        wide_dec = prime_decomposition(wide, degree_bound=8)
        assert wide_dec.to_json()["primes"] == dec.to_json()["primes"]
        assert len(ideal_filtration(host, degree_bound=8)) == len(face_lattice(host))


def test_unit_negations_are_computed_on_first_use(monkeypatch):
    """A monoid with units that is only projected, or that answers "no",
    computes no negation; a lift with a negative unit coefficient computes
    each one it needs once."""
    calls = []
    negation = UnitQuotient._negation
    monkeypatch.setattr(
        UnitQuotient, "_negation", lambda self, j: calls.append(j) or negation(self, j)
    )
    monoid._INTERN.clear()
    amb = AbelianGroupShape(2)
    M = CancellativeMonoid(amb, [(1, 0), (-1, 0), (0, 1), (1, 1)])
    uq = M.unit_quotient()
    uq.project((5, 3))
    assert not member(M, (0, -1)).is_yes
    assert not member(M, (4, -2)).is_yes
    assert monoid.minimalize(M).generators == ((-1, 0), (1, 0), (1, 1))
    assert calls == []
    assert member(M, (-3, 2)).is_yes
    assert member(M, (-7, 1)).is_yes
    assert member(M, (6, 1)).is_yes
    assert len(calls) == len(set(calls)) >= 1


SLICE_SEARCH_COUNT = """
import json
from monoidforge import monoid
from monoidforge.ideals import MonoidIdeal, prime_decomposition
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid

searches = []
build = monoid.GradedSlice.__init__
monoid.GradedSlice.__init__ = lambda self, M, bound: searches.append(bound) or build(self, M, bound)
M = CancellativeMonoid(AbelianGroupShape(3), [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
dec = prime_decomposition(MonoidIdeal(M, [(1, 0, 1), (0, 1, 1)]))
print(json.dumps({"searches": searches, "primes": [list(map(list, p.generators)) for p, _, _ in dec.primes]}))
"""


def test_prime_decomposition_slice_searches_in_a_fresh_process():
    """One prime decomposition in a fresh process runs one slice search, of
    degree max(bound, 2 * the definitional bound of is_prime), before its
    first membership question; every later lookup reads it.  The generators
    come from supports and read no slice of their own (one of degree
    bound + band before)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(monoid.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SLICE_SEARCH_COUNT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"searches": [12], "primes": [[[0, 1, 1], [1, 0, 1]]]}


SLICE_MEMORY = """
import json
import tracemalloc
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, GradedSlice

M = CancellativeMonoid(AbelianGroupShape(4), [(1, i, i * i, i ** 3) for i in range(6)])
M.grading()
tracemalloc.start()
S = GradedSlice(M, 150)
print(json.dumps({"elements": len(S.entries), "bytes": tracemalloc.get_traced_memory()[0]}))
"""


def test_slice_holds_a_back_pointer_per_element_in_a_fresh_process():
    """A slice keeps one generator index per element, not a witness tuple
    and a degree: the 11,925 elements of degree <= 150 on the moment curve
    <(1, i, i^2, i^3) : i < 6> hold fewer than 180 traced bytes each (a
    witness tuple per element held about 240)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(monoid.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SLICE_MEMORY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["elements"] == 11925
    assert report["bytes"] < 180 * report["elements"], report
