"""The generator search of the ideal layer against its former per-element
form, the facet masks read off slice witnesses against the projection to
the torsion quotient, and a ceiling on membership calls.

`oracle_predicate_ideal_generators` and the `oracle_*` predicates are the
former `ideals._predicate_ideal_generators` and the predicates of `radical`,
`prime_decomposition` and `ideal_filtration`, copied verbatim: each
difference is decided by `member` and each facet mask by `tq.project`.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from monoidforge import ideals, monoid
from monoidforge.closure import seminormalize
from monoidforge.cones import _cone_of, face_lattice, face_locate
from monoidforge.ideals import (
    CertificationError,
    MonoidIdeal,
    _face_index_at_least,
    _faces_avoiding,
    _outside_face,
    _predicate_ideal_generators,
    _radical_candidate,
    ideal_filtration,
    prime_decomposition,
)
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, ideal_contains, member, smash

Z2P_GENS = [(1, 0), (0, 1)]


def oracle_predicate_ideal_generators(host, pred, bound):
    """Minimal elements of {x in M : pred(x)} on the degree <= bound slice,
    certified by a lookahead window: every predicate element one generator
    band above the bound must already reduce to the found generators."""
    amb = host.ambient
    elems = [x for x in sorted(host.slice(bound)) if any(x) and pred(x)]
    mins = []
    for x in elems:
        reducible = False
        for g in host.generators:
            y = amb.sub(x, g)
            if member(host, y).is_yes and pred(y):
                reducible = True
                break
        if not reducible:
            mins.append(x)
    band = max((host.degree(g) for g in host.generators), default=1)
    lookahead = [
        x
        for x in sorted(host.slice(bound + band))
        if any(x) and host.degree(x) > bound and pred(x)
    ]
    for x in lookahead:
        if not ideal_contains(host, mins, x).is_yes:
            raise CertificationError(
                f"ideal generator stream not stabilized within degree {bound}: "
                f"element {x} above the bound is not generated"
            )
    return mins


def oracle_in_candidate(host, ideal_gens):
    cone = _cone_of(host)
    avoid = [f.normal_mask for f in _faces_avoiding(host, ideal_gens)]

    def in_candidate(x):
        if not member(host, x).is_yes:
            return False
        v = cone.vanishing_mask(cone.tq.project(x))
        return not any(v & need == need for need in avoid)

    return in_candidate


def oracle_outside_face(host, face):
    cone = _cone_of(host)

    def outside_face(x, need=face.normal_mask):
        return cone.vanishing_mask(cone.tq.project(x)) & need != need

    return outside_face


def oracle_at_least_k(M, k):
    def at_least_k(x, k=k):
        return face_locate(M, x).index >= k

    return at_least_k


def outcome(search, host, pred, bound):
    try:
        return ("generators", search(host, pred, bound))
    except CertificationError as exc:
        return ("CertificationError", str(exc))


@st.composite
def positive_monoids(draw):
    r = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    amb = AbelianGroupShape(r, torsion)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    free = st.tuples(*[st.integers(0, 2)] * r).filter(any)
    gens = draw(st.lists(st.tuples(free, tors).map(lambda p: p[0] + p[1]), min_size=1, max_size=4))
    return CancellativeMonoid(amb, gens)


@settings(max_examples=60, deadline=None)
@given(positive_monoids(), st.integers(1, 5), st.data())
def test_generator_search_matches_oracle(host, bound, data):
    def compare(new_pred, old_pred):
        got = outcome(_predicate_ideal_generators, host, new_pred, bound)
        want = outcome(oracle_predicate_ideal_generators, host, old_pred, bound)
        assert got == want

    amb, gens = host.ambient, host.generators
    coeffs = st.tuples(*[st.integers(0, 2)] * len(gens)).filter(any)
    ideal_gens = []
    for c in data.draw(st.lists(coeffs, min_size=1, max_size=3)):
        x = amb.zero()
        for n, g in zip(c, gens):
            x = amb.add(x, amb.scale(n, g))
        ideal_gens.append(x)
    I = MonoidIdeal(host, ideal_gens)
    # radical candidate, prime (outside a face), filtration (face index >= k)
    compare(_radical_candidate(host, I.generators), oracle_in_candidate(host, I.generators))
    faces = face_lattice(host)
    for f in faces:
        compare(_outside_face(host, f), oracle_outside_face(host, f))
    for k in range(1, len(faces)):
        compare(_face_index_at_least(host, k), oracle_at_least_k(host, k))
    # a predicate that ignores the witness, as the radical's fallback does
    compare(lambda x, witness: I.member(x).is_yes, lambda x: I.member(x).is_yes)


def torsion_host(gens, n):
    L = seminormalize(CancellativeMonoid(AbelianGroupShape(len(gens[0])), gens)).monoid
    return smash(L, CancellativeMonoid(AbelianGroupShape(0, (n,)), [(1,)]))


def assert_masks_match_projection(host, bound):
    cone = _cone_of(host)
    for x, witness in host.slice(bound).items():
        mask = cone.witness_mask(witness)
        assert mask == cone.vanishing_mask(cone.tq.project(x)), (host, x, witness)
        assert cone.face_of(mask) is face_locate(host, x)


def test_witness_masks_on_torsion_hosts():
    for gens, n in (([(1,)], 2), ([(1, 0), (1, 2)], 2), ([(2, 0), (1, 1), (0, 2)], 3)):
        assert_masks_match_projection(torsion_host(gens, n), 6)


@settings(max_examples=60, deadline=None)
@given(positive_monoids())
def test_witness_masks_match_projection(host):
    assert_masks_match_projection(host, 6)


def test_prime_decomposition_member_calls_have_a_ceiling(monkeypatch):
    """Z+^3 with I = (1,1,1), three primes: 24 member calls with the slice
    lookups, 384 when the definitional scan of is_prime called member for
    every pair, 4774 when every difference of the generator search and of
    the intersection certificate went through member."""
    calls = []
    original = monoid.member

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("monoidforge") and getattr(module, "member", None) is original:
            monkeypatch.setattr(module, "member", counted)
    host = CancellativeMonoid(AbelianGroupShape(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    dec = prime_decomposition(MonoidIdeal(host, [(1, 1, 1)]))
    assert len(dec.primes) == 3
    assert ideals.member is counted
    assert 0 < len(calls) <= 100, len(calls)


def test_intersection_certificate_rejects_a_wrong_decomposition(monkeypatch):
    """(2,0) in Z+^2 is not radical; let it through the radical test and the
    one prime avoiding it, {a >= 1}, contains (1,0), which (2,0) does not."""
    monkeypatch.setattr(ideals, "is_radical", lambda I, bound: True)
    host = CancellativeMonoid(AbelianGroupShape(2), Z2P_GENS)
    with pytest.raises(CertificationError, match=r"intersection certificate fails at \(1, 0\)"):
        prime_decomposition(MonoidIdeal(host, [(2, 0)]))


def test_filtration_certificate_rejects_missing_generators(monkeypatch):
    """Drop the first generator of every I_k: I_1 of Z+^2 loses (0,1)."""
    search = ideals._predicate_ideal_generators
    monkeypatch.setattr(
        ideals, "_predicate_ideal_generators", lambda *args: search(*args)[1:]
    )
    host = CancellativeMonoid(AbelianGroupShape(2), Z2P_GENS)
    with pytest.raises(CertificationError, match=r"filtration certificate fails at \(0, 1\) for k=1"):
        ideal_filtration(host)
