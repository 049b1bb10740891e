"""The acceptance suite: one callable per criterion, each exhaustive at its
declared bound, plus the selftest runner used by the CLI.

Randomized criteria use a fixed seed so runs are reproducible; every check
is exact (integer/field arithmetic only) and failures carry the offending
instance.
"""

import random
import time
from itertools import product

from .rings import GF
from .lattice import AbelianGroupShape, Record, nonneg_rational_feasible, rank_of
from .monoid import CancellativeMonoid, is_positive, is_torsion_free, member, smash
from .cones import face_lattice
from .closure import (
    _face_pieces,
    _in_piece,
    is_seminormal,
    normalize,
    seminormalize,
)
from .ideals import MonoidIdeal, ideal_filtration, prime_decomposition, radical
from .algebra import CancellativeAlgebra, is_invertible
from .squares import (
    build_face_filtration,
    build_pc,
    build_positive_split,
    build_prime_intersection,
    build_seminormal_step,
    build_torsion_splitting,
    corrupt_square,
    verify_cartesian,
    verify_reduced_iso,
)
from .conductor import NumericalSemigroup, picard_by_patching, sk0_vanishing_certificate

Z1 = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)
Z3 = AbelianGroupShape(3)


class CriterionResult(Record):
    _fields = ("ident", "description", "passed", "detail", "elapsed")

    def __init__(self, ident, description, passed, detail, elapsed):
        self.ident = ident
        self.description = description
        self.passed = passed
        self.detail = detail
        self.elapsed = elapsed

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.ident:2d} ({self.elapsed:6.2f}s): {self.description} -- {self.detail}"


def _run(ident, description, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except Exception as e:  # noqa: BLE001 - the suite reports, never raises
        detail = f"{type(e).__name__}: {e}"
        passed = False
    return CriterionResult(ident, description, passed, str(detail), time.perf_counter() - t0)


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


def _random_positive_monoid(rng, rank, max_entry=2, n_gens=None):
    while True:
        n = n_gens or rng.randint(rank, rank + 2)
        gens = [
            tuple(rng.randint(0, max_entry) for _ in range(rank)) for _ in range(n)
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            return M(AbelianGroupShape(rank), gens)


def criterion_1():
    m23 = M(Z1, [(2,), (3,)])
    res = seminormalize(m23)
    assert res.monoid.generators == ((1,),), res.monoid.generators
    assert not is_seminormal(m23)
    return "sn(<2,3>) = Z_+, is_seminormal(<2,3>) = False"


def _brute_saturation_oracle(gens, dim, box):
    """Brute-force lattice-point oracle: cone points in a box, minimalized by
    decomposition testing."""
    pts = []
    for v in product(range(box + 1), repeat=dim):
        if any(v) and nonneg_rational_feasible(gens, list(v)):
            pts.append(v)
    pset = set(pts)
    mins = []
    for x in pts:
        if not any(
            tuple(a - b for a, b in zip(x, y)) in pset and any(y) and y != x
            for y in pts
        ):
            mins.append(x)
    return sorted(mins)


def criterion_2():
    m = M(Z2, [(1, 0), (1, 2)])
    nres = normalize(m)
    assert nres.added == [(1, 1)], nres.added
    sres = seminormalize(m)
    assert sres.added == [], sres.added
    oracle = _brute_saturation_oracle([(1, 0), (1, 2)], 2, 5)
    assert sorted(nres.monoid.generators) == oracle, (nres.monoid.generators, oracle)
    return "normalize adds exactly (1,1); seminormalize adds nothing; oracle agrees"


def _exhaustive_facet_oracle(gens, dim):
    """The primitive vectors n of the box |n_i| <= (dim-1)! m^(dim-1)
    (m the largest generator entry) with n . g >= 0 on every generator and
    = 0 on a set of generators of rank dim - 1: the inward facet normals.

    Each prefix of dim - 1 coordinates fixes the part of every generator
    value it contributes, and the last coordinate runs only over the
    interval where every value is >= 0.  The rank of each tight generator
    set is computed once."""
    import math

    from .lattice import primitive

    m = max(abs(x) for v in gens for x in v)
    box = math.factorial(max(dim - 1, 1)) * m ** max(dim - 1, 1)
    last = [v[-1] for v in gens]
    ranks = {}
    out = set()
    for prefix in product(range(-box, box + 1), repeat=dim - 1):
        parts = [sum(a * b for a, b in zip(prefix, v)) for v in gens]
        lo, hi = -box, box
        for p, c in zip(parts, last):  # p + c * t >= 0
            if c > 0:
                lo = max(lo, -(p // c))
            elif c < 0:
                hi = min(hi, p // -c)
            elif p < 0:
                hi = lo - 1
        for t in range(lo, hi + 1):
            tight = tuple(j for j, (p, c) in enumerate(zip(parts, last)) if p + c * t == 0)
            if not tight or (not t and not any(prefix)):
                continue
            r = ranks.get(tight)
            if r is None:
                r = ranks[tight] = rank_of([list(gens[j]) for j in tight])
            if r == dim - 1:
                out.add(primitive(prefix + (t,)))
    return out


def criterion_3():
    faces = face_lattice(M(Z2, [(1, 0), (0, 1)]))
    assert len(faces) == 4
    assert [f.dim for f in faces] == sorted(f.dim for f in faces)
    rng = random.Random(303)
    from .lattice import facet_normals

    count = 0
    while count < 30:
        dim = rng.choice([2, 3])
        gens = [
            tuple(rng.randint(0, 2) for _ in range(dim))
            for _ in range(dim + rng.randint(0, 2))
        ]
        gens = sorted({g for g in gens if any(g)})
        if rank_of([list(g) for g in gens]) < dim:
            continue
        got = set(facet_normals(gens, dim))
        want = _exhaustive_facet_oracle(gens, dim)
        assert got == want, (gens, got, want)
        count += 1
    return "Z_+^2 face lattice and 30 random cones match the exhaustive oracle"


def criterion_4():
    rng = random.Random(404)
    pairs = 0
    t0 = time.perf_counter()
    while pairs < 200:
        rank = rng.choice([1, 1, 2, 2, 2, 3])
        m = _random_positive_monoid(rng, rank)
        n = normalize(m).monoid
        extra = [g for g in n.generators if not member(m, g).is_yes]
        sub = [g for g in extra if rng.random() < 0.6]
        mp = CancellativeMonoid(m.ambient, list(m.generators) + sub)
        # (1) cancellative by construction (submonoid of the ambient group)
        assert isinstance(mp, CancellativeMonoid)
        # (2) torsion-free persists
        assert is_torsion_free(m) and is_torsion_free(mp)
        # (3) positive torsion-free persists
        assert is_positive(m) and is_positive(mp)
        # (4) positivity persists inside sn(M)
        snm = seminormalize(m).monoid
        if all(member(snm, g).is_yes for g in mp.generators):
            assert is_positive(mp)
        pairs += 1
    return f"200 intermediate-monoid pairs verified in {time.perf_counter() - t0:.1f}s"


def criterion_5():
    rng = random.Random(505)
    done = 0
    while done < 50:
        use_torsion = rng.random() < 0.4
        if use_torsion:
            rank = rng.choice([1, 2])
            L = _random_positive_monoid(rng, rank)
            Lsn = seminormalize(L).monoid
            tor = M(AbelianGroupShape(0, (rng.choice([2, 3]),)), [(1,)])
            m = smash(Lsn, tor)
            m = seminormalize(m).monoid
        else:
            rank = rng.choice([1, 2, 2, 3])
            m = seminormalize(_random_positive_monoid(rng, rank)).monoid
        bound = 10
        pieces = _face_pieces(m)
        tq = m.torsion_quotient()
        for x in sorted(m.slice(bound)):
            v = tq.project(x)
            hits = sum(_in_piece(nNF, v) for _, nNF in pieces)
            assert hits == 1, (m, x, hits)
        done += 1
    return "50 seminormal monoids: every bounded element lies in exactly one piece"


def criterion_6():
    targets = [
        M(Z2, [(1, 0), (0, 1)]),
        M(Z1, [(2,), (3,)]),
        smash(M(Z1, [(1,)]), M(AbelianGroupShape(0, (2,)), [(1,)])),
    ]
    for m in targets:
        chain = ideal_filtration(m, degree_bound=10)
        amb = m.ambient
        for k, I in enumerate(chain):
            # exact ideal test on generators: g + (monoid generator) stays in
            for g in I.generators:
                for h in m.generators:
                    assert I.member(amb.add(g, h)).is_yes, (k, g, h)
        # I_1 = M \ {0}
        if len(chain) > 1:
            for x in sorted(m.slice(6)):
                want = any(x)
                assert chain[1].member(x).is_yes == want, x
    return "filtrations on Z_+^2, <2,3>, Z_+ smash Z/2 pass the exact ideal test"


def criterion_7():
    t0 = time.perf_counter()
    dec = prime_decomposition(MonoidIdeal(M(Z2, [(1, 0), (0, 1)]), [(1, 1)]), 12)
    gen_sets = sorted(tuple(sorted(P.minimal_generators())) for P, _, _ in dec.primes)
    assert gen_sets == [((0, 1),), ((1, 0),)], gen_sets
    rng = random.Random(707)
    done = 0
    while done < 30:
        rank = rng.choice([1, 2, 2, 3])
        host = _random_positive_monoid(rng, rank)
        pool = sorted(host.slice(4))
        igens = [x for x in pool if any(x) and rng.random() < 0.4]
        if not igens:
            continue
        I = MonoidIdeal(host, igens)
        if not I.is_proper():
            continue
        R = radical(I, degree_bound=12)
        dec = prime_decomposition(
            MonoidIdeal(host, R.ideal.generators), degree_bound=12
        )
        assert dec.primes
        done += 1
    return f"30 radical ideals decomposed and certified to degree 12 in {time.perf_counter() - t0:.1f}s"


def criterion_8():
    rng = random.Random(808)
    done = 0
    while done < 50:
        rank = rng.choice([1, 2])
        host = _random_positive_monoid(rng, rank)
        pool = sorted(host.slice(4))
        igens = [x for x in pool if any(x) and rng.random() < 0.5]
        if not igens:
            continue
        I = MonoidIdeal(host, igens)
        if not I.is_proper():
            continue
        rad = radical(I, degree_bound=10).ideal
        support_pool = [x for x in sorted(host.slice(5)) if rad.member(x).is_yes]
        if not support_pool:
            continue
        q = rng.choice([2, 3])
        F = GF(q)
        alg = CancellativeAlgebra(host, F)
        supp = rng.sample(support_pool, min(len(support_pool), rng.randint(1, 3)))
        coeffs = [rng.randrange(1, q) for _ in supp]
        u = alg.elem(list(zip(supp, coeffs)))
        if u.is_zero():
            continue
        power = alg.one()
        found = None
        for m_exp in range(1, 65):
            power = power * u
            if all(I.member(k).is_yes for k in power.coeffs):
                found = m_exp
                break
        assert found is not None, (host.generators, igens, supp)
        done += 1
    return "50 elements of R[sqrt(I)] have a power in R[I] with exponent <= 64"


def _six_square_instances(q):
    R = GF(q)
    out = []
    m23 = M(Z1, [(2,), (3,)])
    out.append(("seminormal-step", build_seminormal_step(m23, (1,), R)))
    mixed = M(Z2, [(1, 0), (-1, 0), (0, 1)])
    out.append(("positive-split", build_positive_split(mixed, R)))
    z2p = M(Z2, [(1, 0), (0, 1)])
    out.append(("pc", build_pc(z2p, [(1, 1)], R)))
    sq, _ = build_face_filtration(z2p, 2, R, kernel_bound=10)
    out.append(("face-filtration", sq))
    s1, s2 = build_torsion_splitting(M(Z1, [(1,)]), [2], R)
    out.append(("torsion-splitting-1", s1))
    out.append(("torsion-splitting-2", s2))
    out.append(
        ("prime-intersection", build_prime_intersection(z2p, [(1, 0)], [(0, 1)], R))
    )
    return out


def criterion_9():
    t0 = time.perf_counter()
    for q in (2, 3):
        for kind, sq in _six_square_instances(q):
            rep = verify_cartesian(sq, degree_bound=10)
            assert rep.ok, (q, kind, rep.note)
    # the pinned B corner: F2[t^2, t^3 - t]
    _, s2 = build_torsion_splitting(M(Z1, [(1,)]), [2], GF(2))
    basis3 = s2.corner("B2").basis_upto(3)
    got = sorted(tuple(sorted(e.coeffs)) for e in basis3)
    want = sorted([((0, 0),), ((0, 2),), ((0, 1), (0, 3))])
    assert got == want, got
    # negative control
    bad = corrupt_square(build_pc(M(Z2, [(1, 0), (0, 1)]), [(1, 1)], GF(2)))
    rep = verify_cartesian(bad, degree_bound=8)
    assert not rep.ok and (rep.witness is not None or rep.note)
    return f"all six builders Cartesian at bound 10 over F2/F3 in {time.perf_counter() - t0:.1f}s; corrupted control fails"


def criterion_10():
    for q in (2, 3, 5):
        R = GF(q)
        sq = build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), R)
        assert verify_reduced_iso(sq, degree_bound=10).ok, q
        sq2 = build_seminormal_step(M(Z1, [(4,), (5,), (6,), (7,)]), (2,), R)
        assert verify_reduced_iso(sq2, degree_bound=10).ok, q
    return "(A/I)_red = (B/I)_red for <2,3> and <4,5,6,7> over F_2, F_3, F_5"


def criterion_11():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5):
        res = picard_by_patching(NumericalSemigroup([2, 3]), q)
        assert res.order == q, (q, res.order)
    for q in (2, 3):
        res = picard_by_patching(NumericalSemigroup([3, 4, 5]), q)
        assert res.order == q * q, (q, res.order)
    assert picard_by_patching(NumericalSemigroup([1]), 3).order == 1
    return f"Pic orders q, q^2, 1 as required ({time.perf_counter() - t0:.1f}s)"


def criterion_12():
    for gens in ([2, 3], [2, 5], [3, 4, 5]):
        for q in (2, 3):
            cert = sk0_vanishing_certificate(NumericalSemigroup(gens), q)
            assert len(cert.slots) == 6
            for name, value, reason, detail in cert.slots:
                assert reason, f"slot {name} lacks a justification"
                if value == "0":
                    assert reason.strip(), name
            assert cert.verdict.startswith("SK0")
    return "six-term certificates complete for <2,3>, <2,5>, <3,4,5> over F2/F3"


def criterion_13():
    rng = random.Random(1313)
    hosts = []
    while len(hosts) < 10:
        rank = rng.choice([1, 2, 2, 3])
        m = _random_positive_monoid(rng, rank)
        hosts.append(m)
    checked = 0
    for m in hosts:
        q = rng.choice([2, 3, 5])
        F = GF(q)
        alg = CancellativeAlgebra(m, F)
        keys = alg.keys_upto(6)
        for _ in range(10):
            size = rng.randint(1, 3)
            supp = rng.sample(keys, min(size, len(keys)))
            coeffs = [rng.randrange(1, q) for _ in supp]
            u = alg.elem(list(zip(supp, coeffs)))
            if u.is_zero():
                continue
            ok, inv, why = is_invertible(u, window=6)
            # positive host: units are exactly unit scalars
            is_scalar = list(u.coeffs) == [alg.zero_key()]
            assert ok == is_scalar, (m.generators, u, why)
            if ok:
                assert (u * inv) == alg.one()
            checked += 1
    assert checked >= 90
    return f"{checked} random elements: invertible iff unit-coefficient monomial"


CRITERIA = [
    (1, "sn(<2,3>) = Z_+ and <2,3> is not seminormal", criterion_1),
    (2, "normalize/seminormalize of <(1,0),(1,2)> against the brute-force oracle", criterion_2),
    (3, "face lattices match the exhaustive facet oracle (30 random cones)", criterion_3),
    (4, "intermediate-monoid lemma suite on 200 random pairs", criterion_4),
    (5, "disjoint face-piece decomposition for 50 random seminormal monoids", criterion_5),
    (6, "face filtrations pass the exact ideal test; I_1 = M\\{0}", criterion_6),
    (7, "prime decompositions certified to degree 12 on 30 radical ideals", criterion_7),
    (8, "powers of R[sqrt(I)] elements land in R[I] with exponent <= 64", criterion_8),
    (9, "all six Milnor squares Cartesian at bound 10 over F2/F3 + negative control", criterion_9),
    (10, "reduced-quotient isomorphism for seminormal steps over F_q", criterion_10),
    (11, "Picard orders via conductor-square patching", criterion_11),
    (12, "SK0 vanishing certificates with justified slots", criterion_12),
    (13, "unit descriptions agree with exact invertibility search", criterion_13),
]

QUICK = (1, 2, 3, 6, 10, 11, 12)


def run_selftest(quick=False):
    results = []
    for ident, desc, fn in CRITERIA:
        if quick and ident not in QUICK:
            continue
        results.append(_run(ident, desc, fn))
    return results
