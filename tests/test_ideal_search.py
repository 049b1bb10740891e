"""The generator search of the ideal layer against its former per-element
form and against brute force over generator subsets, the facet masks
(`RationalCone.element_mask` and `helpers.witness_mask`) against the mask of the
projection to the torsion quotient (`helpers.vanishing_mask`), on positive
hosts, hosts with torsion and hosts with units, and a ceiling on
membership calls.

`oracle_predicate_ideal_generators` and the `oracle_*` predicates are the
former `ideals._predicate_ideal_generators` and the predicates of `radical`,
`prime_decomposition` and `ideal_filtration`, copied verbatim: each
difference is decided by `member` and each facet mask by `tq.project`.
`oracle_subset_generators` is the support argument with no pruning: the
minimal elements among the predicate's sums over every generator subset.
"""

import json
import sys
from itertools import combinations, count, product

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import run_fresh, vanishing_mask, witness_mask
from monoidforge import ideals, monoid
from monoidforge.closure import seminormalize
from monoidforge.cones import _cone_of, face_lattice, face_locate
from monoidforge.ideals import (
    CertificationError,
    MonoidIdeal,
    _face_index_at_least,
    _faces_avoiding,
    _outside_face,
    _radical_candidate,
    _support_generators,
    ideal_filtration,
    prime_decomposition,
    radical,
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
        v = vanishing_mask(cone, cone.tq.project(x))
        return not any(v & need == need for need in avoid)

    return in_candidate


def oracle_outside_face(host, face):
    cone = _cone_of(host)

    def outside_face(x, need=face.normal_mask):
        return vanishing_mask(cone, cone.tq.project(x)) & need != need

    return outside_face


def oracle_at_least_k(M, k):
    def at_least_k(x, k=k):
        return face_locate(M, x).index >= k

    return at_least_k


def oracle_subset_generators(host, pred):
    """Minimal elements of {sum of S : S a nonempty generator subset, pred}:
    c is dropped when c - d lies in the host for another such sum d."""
    amb, gens = host.ambient, host.generators
    sums = set()
    for n in range(1, len(gens) + 1):
        for subset in combinations(gens, n):
            x = amb.zero()
            for g in subset:
                x = amb.add(x, g)
            if pred(x):
                sums.add(x)
    return sorted(
        c for c in sums if not any(d != c and member(host, amb.sub(c, d)).is_yes for d in sums)
    )


def outcome(search, *args):
    try:
        return ("generators", search(*args))
    except CertificationError as exc:
        return ("CertificationError", str(exc))


@st.composite
def positive_monoids(draw, max_rank=3):
    r = draw(st.integers(1, max_rank))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    amb = AbelianGroupShape(r, torsion)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    free = st.tuples(*[st.integers(0, 2)] * r).filter(any)
    gens = draw(st.lists(st.tuples(free, tors).map(lambda p: p[0] + p[1]), min_size=1, max_size=4))
    return CancellativeMonoid(amb, gens)


@settings(max_examples=60, deadline=None)
@given(positive_monoids(), st.integers(1, 5), st.data())
def test_generator_search_matches_oracle(host, bound, data):
    """The mask tests' generators are exact: they equal the subset oracle,
    and the former search at bound sum deg(g), above which no minimal
    generator lies (each is the sum of a generator subset).

    Where the former search decides at the drawn bound, it gives the exact
    generators of degree <= bound, and the same answer whenever no exact
    generator lies above its lookahead window; one that does is missed, as
    in I_3 of <(0,1),(2,0)> at bound 1 (see the test below).  Where it
    raises, the exact search still answers."""
    degree = host.degree
    total = sum(degree(g) for g in host.generators)
    band = max(degree(g) for g in host.generators)

    def compare(new_test, old_pred):
        got = outcome(_support_generators, host, new_test)
        assert got[0] == "generators"
        exact = got[1]
        assert exact == oracle_subset_generators(host, old_pred)
        assert got == outcome(oracle_predicate_ideal_generators, host, old_pred, total)
        want = outcome(oracle_predicate_ideal_generators, host, old_pred, bound)
        if want[0] == "generators":
            assert want[1] == [g for g in exact if degree(g) <= bound]
            if all(degree(g) <= bound + band for g in exact):
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


def test_lookahead_missed_a_generator_that_supports_find():
    """In <(0,1),(2,0)>, graded by (1,2), I_3 (the interior) is generated by
    (2,1) of degree 4.  At bound 1 the former search saw nothing in its
    lookahead window (degrees 2-3) and returned no generator; the support
    search finds (2,1) at every bound."""
    host = CancellativeMonoid(AbelianGroupShape(2), [(0, 1), (2, 0)])
    assert oracle_predicate_ideal_generators(host, oracle_at_least_k(host, 3), 1) == []
    chain = ideal_filtration(host, degree_bound=1)
    assert [list(f.generators) for f in chain] == [[(0, 0)], [(0, 1), (2, 0)], [(0, 1)], [(2, 1)]]


P066 = [(1, 1, 0), (1, 2, 0), (1, 2, 2), (2, 0, 2)]
P2 = [(0, 1, 2), (1, 2, 2), (2, 0, 0), (2, 1, 0)]


def test_radical_once_bounded_equals_the_former_search_at_bound_24():
    """The radical of <(1,1,0),(3,2,4)> in p066 failed its lookahead at
    bounds 12 and 16; the former search decides it at 24."""
    host = CancellativeMonoid(AbelianGroupShape(3), P066)
    I = MonoidIdeal(host, [(1, 1, 0), (3, 2, 4)])
    want = oracle_predicate_ideal_generators(host, oracle_in_candidate(host, I.generators), 24)
    for bound in (12, 16, 24):
        res = radical(I, bound)
        assert list(res.ideal.generators) == want == [(1, 1, 0), (3, 2, 2), (3, 2, 4)]
        assert res.bound == bound and res.method == "faces"


def run_p2_cli(tmp_path, action, *options):
    """The JSON results of `monoidforge ideal ACTION p2.json OPTIONS`, in a
    fresh process."""
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"ambient": {"rank": 3, "torsion": []}, "generators": P2}))
    argv = ["-m", "monoidforge.cli", "--format", "json", "ideal", action, str(path), *options]
    proc = run_fresh(argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["results"]


def test_cli_radical_of_p2_equals_the_former_search_at_bound_40(tmp_path):
    """`ideal radical p2.json --ideal [[3,3,2]]` exited 1 at the default
    bound 12; the former search decides it at 40."""
    host = CancellativeMonoid(AbelianGroupShape(3), P2)
    want = oracle_predicate_ideal_generators(host, oracle_in_candidate(host, [(3, 3, 2)]), 40)
    out = run_p2_cli(tmp_path, "radical", "--ideal", "[[3,3,2]]")
    assert out["generators"] == [list(g) for g in want] == [[2, 2, 2], [3, 2, 2], [3, 3, 2]]
    assert out["bound"] == 12


def test_cli_filtration_of_p2_equals_the_former_search_at_bound_40(tmp_path):
    """`ideal filtration p2.json` exited 1 at the default bound 12; the
    former search decides every I_k at 40."""
    host = CancellativeMonoid(AbelianGroupShape(3), P2)
    chain = run_p2_cli(tmp_path, "filtration")["chain"]
    assert len(chain) == len(face_lattice(host))
    for k, level in enumerate(chain[1:], 1):
        want = oracle_predicate_ideal_generators(host, oracle_at_least_k(host, k), 40)
        assert level == {"k": k, "generators": [list(g) for g in want], "degree_bound": 12}


def torsion_host(gens, n):
    L = seminormalize(CancellativeMonoid(AbelianGroupShape(len(gens[0])), gens)).monoid
    return smash(L, CancellativeMonoid(AbelianGroupShape(0, (n,)), [(1,)]))


def assert_masks_match_projection(host, bound):
    """The element mask, read on ambient coordinates, equals the mask of
    the projection to gp(Mbar) and the mask of the witness, at every slice
    element."""
    cone = _cone_of(host)
    for x, witness in host.slice(bound).items():
        mask = witness_mask(cone, witness)
        assert mask == vanishing_mask(cone, cone.tq.project(x)), (host, x, witness)
        assert cone.element_mask(x) == mask, (host, x)
        assert cone.face_of(mask) is face_locate(host, x)


def test_witness_masks_on_torsion_hosts():
    for gens, n in (([(1,)], 2), ([(1, 0), (1, 2)], 2), ([(2, 0), (1, 1), (0, 2)], 3)):
        assert_masks_match_projection(torsion_host(gens, n), 6)


@settings(max_examples=60, deadline=None)
@given(positive_monoids())
def test_witness_masks_match_projection(host):
    assert_masks_match_projection(host, 6)


UNIT_HOSTS = [
    (AbelianGroupShape(2), [(1, 0), (-1, 0), (0, 1)]),
    (AbelianGroupShape(2, (2,)), [(1, 0, 1), (-1, 0, 1), (0, 1, 0)]),
    (AbelianGroupShape(3), [(1, 1, 0), (-1, -1, 0), (0, 1, 2), (2, 0, 1), (0, 0, 1)]),
    (AbelianGroupShape(2, (3,)), [(0, 0, 1), (1, 0, 0), (1, 2, 2), (0, 1, 1)]),
    (AbelianGroupShape(1, (2,)), [(2, 0), (-3, 0), (0, 1)]),
]


@pytest.mark.parametrize("amb, gens", UNIT_HOSTS)
def test_element_masks_on_hosts_with_units(amb, gens):
    """On hosts with units, where no slice exists, the element mask of every
    sum of at most three generators equals the mask of its projection, of
    its coefficient vector and of the witness member lifts for it."""
    host = CancellativeMonoid(amb, gens)
    assert host.grading() is None
    cone = _cone_of(host)
    n = len(host.generators)
    for coeffs in product(range(3), repeat=n):
        if sum(coeffs) > 3:
            continue
        x = amb.zero()
        for c, g in zip(coeffs, host.generators):
            x = amb.add(x, amb.scale(c, g))
        mask = cone.element_mask(x)
        assert mask == vanishing_mask(cone, cone.tq.project(x)), (gens, x)
        assert mask == witness_mask(cone, coeffs), (gens, x, coeffs)
        assert mask == witness_mask(cone, member(host, x).witness), (gens, x)
        assert cone.face_of(mask) is face_locate(host, x)


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
    monkeypatch.setattr(ideals, "is_radical", lambda I: True)
    host = CancellativeMonoid(AbelianGroupShape(2), Z2P_GENS)
    with pytest.raises(CertificationError, match=r"intersection certificate fails at \(1, 0\)"):
        prime_decomposition(MonoidIdeal(host, [(2, 0)]))


def test_support_search_refuses_past_its_limit(monkeypatch):
    """A support search that would grow past the limit raises, naming the
    count.  The interior ideal of Z+^3 grows its three single supports
    first, and is generated by the sum of all three."""
    monkeypatch.setattr(ideals, "_SUPPORT_LIMIT", 2)
    host = CancellativeMonoid(AbelianGroupShape(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    at_least = _face_index_at_least(host, len(face_lattice(host)) - 1)
    with pytest.raises(ValueError, match=r"ideal support enumeration too large: 3 supports"):
        _support_generators(host, at_least)
    monkeypatch.setattr(ideals, "_SUPPORT_LIMIT", 100000)
    assert _support_generators(host, at_least) == [(1, 1, 1)]


def test_filtration_certificate_rejects_missing_generators(monkeypatch):
    """Drop the first generator of every I_k: I_1 of Z+^2 loses (0,1)."""
    search = ideals._support_generators
    monkeypatch.setattr(ideals, "_support_generators", lambda *args: search(*args)[1:])
    host = CancellativeMonoid(AbelianGroupShape(2), Z2P_GENS)
    with pytest.raises(CertificationError, match=r"filtration certificate fails at \(0, 1\) for k=1"):
        ideal_filtration(host)


def oracle_power_in_ideal(I, x):
    """The former `ideals._power_in_ideal` with its cap removed."""
    amb = I.host.ambient
    for n in count(1):
        if I.member(amb.scale(n, x)).is_yes:
            return n


@settings(max_examples=40, deadline=None)
@given(positive_monoids(max_rank=2), st.data())
def test_least_power_matches_the_unbounded_loop(host, data):
    """Each power certificate of the radical is the least n with n*g in I,
    for ideals generated by multiples k*g of monoid elements, k <= 120.
    Rank 3 is left out: a power that misses I can exhaust a facet
    interval of about n^3 elements."""
    amb, gens = host.ambient, host.generators
    support = st.lists(st.sampled_from(gens), min_size=1, unique=True)
    ideal_gens = []
    for s, k in data.draw(st.lists(st.tuples(support, st.integers(1, 120)), min_size=1, max_size=2)):
        x = amb.zero()
        for g in s:
            x = amb.add(x, g)
        ideal_gens.append(amb.scale(k, x))
    I = MonoidIdeal(host, ideal_gens)
    res = radical(I)
    assert res.method == "faces"
    for g in res.ideal.generators:
        n = res.power_certificates[g]
        event(f"least power {'<= 2' if n <= 2 else '<= 64' if n <= 64 else '> 64'}")
        assert n == oracle_power_in_ideal(I, g), (g, I.generators)


PAST_THE_FORMER_CAP = [
    # (ambient, monoid generators, I, sqrt(I), power certificates)
    (AbelianGroupShape(1), [(1,)], [(100,)], [(1,)], {(1,): 100}),
    (
        AbelianGroupShape(1, (2,)), [(1, 0), (1, 1)], [(100, 0)],
        [(1, 0), (1, 1)], {(1, 0): 100, (1, 1): 100},
    ),
    (AbelianGroupShape(2), [(2, 0), (1, 1), (0, 2)], [(80, 80)], [(1, 1)], {(1, 1): 80}),
]


def monoid_file(tmp_path, amb, gens):
    path = tmp_path / "m.json"
    ambient = {"rank": amb.free_rank, "torsion": list(amb.torsion)}
    path.write_text(json.dumps({"ambient": ambient, "generators": gens}))
    return str(path)


@pytest.mark.parametrize("amb, gens, ideal, want, certs", PAST_THE_FORMER_CAP)
def test_radicals_past_the_former_power_cap(tmp_path, amb, gens, ideal, want, certs):
    """Each certificate exceeds the former cap of 64 powers, past which
    radical fell back to a slice search that answered (2), ((2,0),(2,1))
    and (2,2), labelled "slice"."""
    res = radical(MonoidIdeal(CancellativeMonoid(amb, gens), ideal))
    assert list(res.ideal.generators) == want
    assert res.power_certificates == certs and res.method == "faces"
    proc = run_fresh([
        "-m", "monoidforge.cli", "--format", "json", "ideal", "radical",
        monoid_file(tmp_path, amb, gens), "--ideal", json.dumps(ideal),
    ], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"] == res.to_json()


def test_cli_radical_and_primes_of_100_in_n(tmp_path):
    """`ideal radical` of (100) in N prints the radical (1); `ideal primes`
    refuses (100), naming that radical."""
    path = monoid_file(tmp_path, AbelianGroupShape(1), [(1,)])
    proc = run_fresh(["-m", "monoidforge.cli", "--format", "json", "ideal", "radical", path,
                      "--ideal", "[[100]]"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"generators":[[1]]' in proc.stdout and '"method":"faces"' in proc.stdout
    proc = run_fresh(["-m", "monoidforge.cli", "ideal", "primes", path, "--ideal", "[[100]]"],
                     timeout=120)
    assert proc.returncode == 2
    assert "its radical is generated by [[1]]" in proc.stderr
