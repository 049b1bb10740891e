"""Monoid ideals: primes, radicals, prime decomposition of radical ideals,
and the face filtration of positive seminormal monoids.  The ideals
themselves are monoid.MonoidIdeal, with its exact membership, which the
quotients N/I and I_* hold as well.

Every derived ideal is certified on an explicit bounded slice; certification
failures raise, naming the offending element, rather than returning silently.
"""

from .lattice import Record
from .monoid import Membership, MonoidIdeal, PcMonoid, member, units_submonoid
from .cones import _cone_of, face_lattice, face_locate, face_submonoid
from .closure import is_seminormal


class CertificationError(RuntimeError):
    """A bounded certificate could not be established."""


def _faces_avoiding(host, ideal_gens):
    """Faces F of the cone with M cap pi^{-1}(F) disjoint from the ideal:
    exactly those containing no ideal generator (extremality pushes any
    deeper intersection down to a generator)."""
    cone = _cone_of(host)
    faces = face_lattice(host)
    gen_vanish = [cone.vanishing_mask(cone.tq.project(g)) for g in ideal_gens]
    return [
        f for f in faces if not any(v & f.normal_mask == f.normal_mask for v in gen_vanish)
    ]


def is_prime(I, definitional_bound=3):
    """Complement-is-a-submonoid test, decided exactly through the face
    geometry: prime iff no ideal generator maps into the minimal face
    spanned by the non-ideal monoid generators.

    The face decision is exact (the complement of a prime is an extremal
    submonoid, hence a face preimage); a bounded definitional scan double
    checks a positive answer.  Violations of non-primes can sit arbitrarily
    deep, so the scan is only ever a consistency check, never the decision.
    """
    if not I.is_proper():
        raise ValueError("is_prime requires a proper ideal (got I = M)")
    host = I.host
    cone = _cone_of(host)
    vanish = cone.all_facets
    for g, v in zip(host.generators, cone.host_masks):
        if not I.member(g).is_yes:
            vanish &= v
    for g in I.generators:
        if cone.vanishing_mask(cone.tq.project(g)) & vanish == vanish:
            return False
    if definitional_bound and host.grading() is not None:
        # one slice covers every sum x + y of the scan, so membership is a
        # lookup of its differences with the ideal generators
        amb = host.ambient
        data = host._slice_data(2 * definitional_bound)
        minus = data.minus(I.generators)
        out = [data.element(x) for x in data.sorted_keys(definitional_bound)
               if not data.generated(x, minus)]
        for x in out:
            for y in out:
                if data.generated(data.key(amb.add(x, y)), minus):
                    raise AssertionError(
                        f"face test claims prime but {x} + {y} lies in the ideal"
                    )
    return True


def _predicate_ideal_generators(host, pred, bound):
    """Minimal elements of {x in M : pred(x, witness)} on the degree <= bound
    slice, certified by a lookahead window: every predicate element one
    generator band above the bound must already reduce to the found
    generators.

    One slice of degree bound + band answers every membership question of
    the search by lookup: each difference x - g it forms has degree at most
    deg(x), and the slice holds every element of M up to its bound.  pred is
    called with an element and its slice witness, at most once per element;
    a predicate marked witness_only (see _mask_predicate) gets None for the
    element, which is then never unpacked from its key.
    """
    if host.grading() is None:  # before degree() raises a different message
        raise ValueError("slice enumeration needs a positive monoid")
    gens = host.generators
    band = max((host.degree(g) for g in gens), default=1)
    top = bound + band
    data = host._slice_data(top)
    entries = data.entries
    steps = data.minus(gens)
    known = {}
    unpack = not getattr(pred, "witness_only", False)

    def holds(x):
        ok = known.get(x)
        if ok is None:
            ok = known[x] = pred(data.element(x) if unpack else None, entries[x][0])
        return ok

    mins, lookahead = [], []
    for x in data.sorted_keys(top):
        if x == data.zero:
            continue
        if entries[x][1] > bound:
            lookahead.append(x)
        elif holds(x) and not any(holds(y) for y in data.below(x, steps)):
            mins.append(x)
    found = [data.element(x) for x in mins]
    minus = data.minus(found)
    for x in lookahead:
        if holds(x) and not data.generated(x, minus):
            raise CertificationError(
                f"ideal generator stream not stabilized within degree {bound}: "
                f"element {data.element(x)} above the bound is not generated"
            )
    return found


def _mask_predicate(host, test):
    """The predicate test(mask) on elements of host, where mask is the bitset
    of facets vanishing at the image of the element, read off its witness
    alone."""
    cone = _cone_of(host)

    def pred(x, witness):
        return test(cone.witness_mask(witness))

    pred.witness_only = True
    return pred


def _radical_candidate(host, ideal_gens):
    """In every face-complement prime containing the ideal: no face avoiding
    the ideal contains the element."""
    avoid = [f.normal_mask for f in _faces_avoiding(host, ideal_gens)]
    return _mask_predicate(host, lambda v: not any(v & need == need for need in avoid))


def _outside_face(host, face):
    """Outside the face submonoid: some facet of the face is positive."""
    need = face.normal_mask
    return _mask_predicate(host, lambda v: v & need != need)


def _face_index_at_least(host, k):
    """The face whose relative interior holds the element has index >= k."""
    cone = _cone_of(host)
    return _mask_predicate(host, lambda v: cone.face_of(v).index >= k)


class RadicalResult(Record):
    _fields = ("ideal", "method", "bound", "power_certificates")

    def __init__(self, ideal, method, bound, power_certificates):
        self.ideal = ideal
        self.method = method  # "faces" | "slice"
        self.bound = bound
        self.power_certificates = power_certificates

    def to_json(self):
        return {
            "generators": [list(g) for g in self.ideal.generators],
            "method": self.method,
            "bound": self.bound,
            "power_certificates": {
                str(list(g)): n for g, n in sorted(self.power_certificates.items())
            },
        }


def radical(I, degree_bound=12, power_bound=64):
    """sqrt(I) = {x : nx in I for some n > 0}.

    Candidate: intersection of the face-complement primes containing I; it
    always contains sqrt(I).  Generator-level power certificates (n*g in I)
    then force candidate subset sqrt(I) globally, since n(g+m) = ng + nm
    stays in I + M.  If a certificate fails (possible only for torsion hosts,
    where the face argument is not a theorem), a direct bounded-slice
    construction is used and reported as such.
    """
    if I.pc_host is not None:
        inner = MonoidIdeal(I.host, I.generators)
        res = radical(inner, degree_bound, power_bound)
        wrapped = MonoidIdeal(I.pc_host, res.ideal.generators)
        return RadicalResult(wrapped, res.method, res.bound, res.power_certificates)
    host = I.host
    if not I.is_proper():
        raise ValueError("radical requires a proper ideal")
    if I.is_empty():
        return RadicalResult(MonoidIdeal(host, []), "faces", degree_bound, {})
    in_candidate = _radical_candidate(host, I.generators)
    gens = _predicate_ideal_generators(host, in_candidate, degree_bound)
    certs = {}
    ok = True
    for g in gens:
        n = _power_in_ideal(I, g, power_bound)
        if n is None:
            ok = False
            break
        certs[g] = n
    if ok:
        for g in I.generators:
            assert in_candidate(g, member(host, g).witness), (
                f"ideal generator {g} escapes its own radical"
            )
        return RadicalResult(MonoidIdeal(host, gens), "faces", degree_bound, certs)
    # fallback: direct bounded construction {x : nx in I, n <= power_bound}
    def by_power(x, witness):
        return member(host, x).is_yes and _power_in_ideal(I, x, power_bound) is not None

    gens = _predicate_ideal_generators(host, by_power, degree_bound)
    certs = {g: _power_in_ideal(I, g, power_bound) for g in gens}
    if any(n is None for n in certs.values()):
        bad = next(g for g, n in certs.items() if n is None)
        raise CertificationError(f"radical certification failed for element {bad}")
    return RadicalResult(MonoidIdeal(host, gens), "slice", degree_bound, certs)


def _power_in_ideal(I, x, power_bound):
    amb = I.host.ambient
    for n in range(1, power_bound + 1):
        if I.member(amb.scale(n, x)).is_yes:
            return n
    return None


def is_radical(I, degree_bound=12):
    return radical(I, degree_bound).ideal.same_as(I)


class PrimeDecomposition(Record):
    _fields = ("ideal", "primes", "degree_bound", "irredundancy_witnesses")

    def __init__(self, ideal, primes, degree_bound, irredundancy_witnesses=None):
        self.ideal = ideal
        self.primes = primes  # of (MonoidIdeal, complement CancellativeMonoid, Face)
        self.degree_bound = degree_bound
        self.irredundancy_witnesses = (
            {} if irredundancy_witnesses is None else irredundancy_witnesses
        )

    def to_json(self):
        return {
            "ideal": self.ideal.to_json(),
            "primes": [
                {
                    "generators": [list(g) for g in p.generators],
                    "complement_generators": [list(g) for g in c.generators],
                    "face": f.to_json(),
                }
                for p, c, f in self.primes
            ],
            "degree_bound": self.degree_bound,
        }


def prime_decomposition(I, degree_bound=12):
    """Write a proper radical ideal as an irredundant intersection of primes:
    complements of the maximal face submonoids disjoint from I, certified
    exhaustively on the bounded slice."""
    host = I.host
    inner = MonoidIdeal(host, I.generators)
    if not inner.is_proper():
        raise ValueError("prime_decomposition requires a proper ideal")
    if not is_radical(inner, degree_bound):
        raise ValueError("prime_decomposition requires a radical ideal")
    avoid = _faces_avoiding(host, inner.generators)
    maximal = [
        f
        for f in avoid
        if not any(
            g.gen_mask != f.gen_mask and g.contains_face(f) for g in avoid
        )
    ]
    primes = []
    for f in maximal:
        comp = face_submonoid(host, f)
        pgens = _predicate_ideal_generators(host, _outside_face(host, f), degree_bound)
        P = MonoidIdeal(host, pgens)
        if not is_prime(P):
            raise CertificationError(f"face complement for face {f.index} is not prime")
        primes.append((P, comp, f))
    # exhaustive certificate on the slice: intersection of primes equals I
    amb = host.ambient
    data = host._slice_data(degree_bound)
    prime_minus = [data.minus(P.generators) for P, _, _ in primes]
    ideal_minus = data.minus(inner.generators)
    for x in data.sorted_keys(degree_bound):
        in_all = all(data.generated(x, minus) for minus in prime_minus)
        in_ideal = data.generated(x, ideal_minus)
        if in_all != in_ideal:
            raise CertificationError(
                f"intersection certificate fails at {data.element(x)}: "
                f"in all primes={in_all}, in ideal={in_ideal}"
            )
    witnesses = {}
    for i, (_, comp, f) in enumerate(primes):
        s = amb.zero()
        for g in comp.generators:
            s = amb.add(s, g)
        witnesses[i] = s  # lies in every other prime but not in this one
    return PrimeDecomposition(inner, primes, degree_bound, witnesses)


class FiltrationIdeal(Record):
    """I_k: elements whose face index is at least k, with certified
    generators; membership is decided by face location."""

    _fields = ("host", "k", "ideal", "degree_bound")

    def __init__(self, host, k, ideal, degree_bound):
        self.host = host
        self.k = k
        self.ideal = ideal
        self.degree_bound = degree_bound

    def member(self, x):
        if not member(self.host, x).is_yes:
            return Membership("no")
        return Membership(
            "yes" if face_locate(self.host, x).index >= self.k else "no"
        )

    @property
    def generators(self):
        return self.ideal.generators

    def to_json(self):
        return {
            "k": self.k,
            "generators": [list(g) for g in self.generators],
            "degree_bound": self.degree_bound,
        }


def ideal_filtration(M, degree_bound=12, require_seminormal=False):
    """The chain I_0 = M >= I_1 = M\\{0} >= ... >= I_r of face-filtration
    ideals of a positive cancellative monoid.

    Face location makes the chain well-defined for any positive host (the
    index is monotone under addition since a proper face has strictly
    smaller dimension); seminormality, which the interior-piece description
    needs, is only enforced on request.
    """
    if units_submonoid(M):
        raise ValueError("ideal_filtration requires a positive monoid")
    if require_seminormal and not is_seminormal(M):
        raise ValueError("ideal_filtration requires a seminormal monoid")
    faces = face_lattice(M)
    r = len(faces) - 1
    chain = []
    for k in range(r + 1):
        if k == 0:
            chain.append(
                FiltrationIdeal(M, 0, MonoidIdeal(M, [M.ambient.zero()]), degree_bound)
            )
            continue

        at_least_k = _face_index_at_least(M, k)
        gens = _predicate_ideal_generators(M, at_least_k, degree_bound)
        ideal = MonoidIdeal(M, gens)
        # certify on the slice: the generated ideal matches the predicate
        data = M._slice_data(degree_bound)
        minus = data.minus(ideal.generators)
        for x in data.sorted_keys(degree_bound):
            want = x != data.zero and at_least_k(None, data.entries[x][0])
            got = data.generated(x, minus)
            if want != got:
                raise CertificationError(
                    f"filtration certificate fails at {data.element(x)} for k={k}"
                )
        chain.append(FiltrationIdeal(M, k, ideal, degree_bound))
    # I_1 = M \ {0}: its generators are exactly the monoid generators
    if r >= 1:
        one = set(chain[1].generators)
        assert one == set(
            MonoidIdeal(M, list(M.generators)).minimal_generators()
        ), "I_1 is not the maximal ideal"
    return chain


def prime_pullback(Mpc, P):
    """Pull a prime of N/I0 back to a prime of N containing I0."""
    if not isinstance(Mpc, PcMonoid):
        raise ValueError("prime_pullback expects a pc monoid host")
    if Mpc.is_singleton():
        raise ValueError("the singleton quotient has no proper prime ideals")
    base = Mpc.base
    gens = list(P.generators) + list(Mpc.collapse_gens)
    pulled = MonoidIdeal(base, gens)
    if not pulled.is_proper():
        raise ValueError("pullback is not proper")
    if not is_prime(pulled):
        raise ValueError("input ideal is not prime (pullback fails the face test)")
    return pulled
