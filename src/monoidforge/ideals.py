"""Monoid ideals: primes, radicals, prime decomposition of radical ideals,
and the face filtration of positive seminormal monoids.  The ideals
themselves are monoid.MonoidIdeal, with its exact membership, which the
quotients N/I and I_* hold as well.

The radical, the face-complement primes and the filtration ideals are
exact: each is cut out by the facets vanishing at an element, so its
generators are sums of generator supports (_support_generators) and no
degree bound enters them; the power certificates of the radical are the
least powers, with no cap.  The degree bound limits only the slice
certificates (intersection, filtration, the definitional scan of
is_prime); certification failures raise, naming the offending element,
rather than returning silently.
"""

from .lattice import Record
from .monoid import Membership, MonoidIdeal, PcMonoid, member, units_submonoid
from .cones import _cone_of, face_lattice, face_submonoid
from .closure import is_seminormal


class CertificationError(RuntimeError):
    """A bounded certificate could not be established."""


# bound of is_prime's definitional scan; prime_decomposition reads one slice
# that covers it
_DEFINITIONAL_BOUND = 3
# supports the exact generator search may grow before it refuses
_SUPPORT_LIMIT = 100000


def _faces_avoiding(host, ideal_gens):
    """Faces F of the cone with M cap pi^{-1}(F) disjoint from the ideal:
    exactly those containing no ideal generator (extremality pushes any
    deeper intersection down to a generator)."""
    cone = _cone_of(host)
    faces = face_lattice(host)
    gen_vanish = list(map(cone.element_mask, ideal_gens))
    return [
        f for f in faces if not any(v & f.normal_mask == f.normal_mask for v in gen_vanish)
    ]


def is_prime(I, definitional_bound=_DEFINITIONAL_BOUND):
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
        if cone.element_mask(g) & vanish == vanish:
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


def _support_generators(host, test):
    """Minimal generators of {x in M : test(mask(x))} for a positive monoid
    M, sorted, where mask(x) is the bitset of facets vanishing at the image
    of x and test holds on every submask of a mask it holds on (so the set
    is an ideal).  Exact: no degree bound enters.

    mask(x) is the AND of the generator masks over the support of any
    factorization of x, so x lies in the ideal exactly when the sum of its
    support does, and the ideal is generated by the sums over the minimal
    supports S with test(mask(S)).  Grown in index order, a minimal support
    shrinks the mask at every step (a generator that does not is redundant),
    so supports grow one size at a time and only by such generators; one
    that passes is kept and none of its supersets is.  A sum c is dropped
    when c - d lies in M for another sum d, which leaves the unique minimal
    generating set of a positive monoid's ideal.
    """
    if host.grading() is None:
        raise ValueError("slice enumeration needs a positive monoid")
    cone = _cone_of(host)
    amb, gens, masks = host.ambient, host.generators, cone.host_masks
    verdict = {}
    kept, frontier, grown = [], [(0, cone.all_facets, 0)], 0
    while frontier:
        nxt = []
        for support, mask, start in frontier:
            for i in range(start, len(gens)):
                m = mask & masks[i]
                if m == mask:
                    continue
                s = support | 1 << i
                ok = verdict.get(m)
                if ok is None:
                    ok = verdict[m] = test(m)
                if not ok:
                    nxt.append((s, m, i + 1))
                elif not any(k & s == k for k, _ in kept):
                    kept.append((s, m))
        grown += len(nxt)
        if grown > _SUPPORT_LIMIT:
            raise ValueError(f"ideal support enumeration too large: {grown} supports")
        frontier = nxt
    sums = {}
    for s, m in kept:
        c = amb.zero()
        for i, g in enumerate(gens):
            if s >> i & 1:
                c = amb.add(c, g)
        sums[c] = (host.degree(c), m)
    # c - d in M makes deg d < deg c and mask(c) a submask of mask(d)
    found = []
    for c, (dc, mc) in sums.items():
        if not any(
            dd < dc and mc & md == mc and member(host, amb.sub(c, d)).is_yes
            for d, (dd, md) in sums.items()
        ):
            found.append(c)
    return sorted(found)


def _radical_candidate(host, ideal_gens):
    """Mask test (see _support_generators), as are the two below: in every
    face-complement prime containing the ideal, i.e. no face avoiding the
    ideal contains the element."""
    avoid = [f.normal_mask for f in _faces_avoiding(host, ideal_gens)]
    return lambda v: not any(v & need == need for need in avoid)


def _outside_face(host, face):
    """Outside the face submonoid: some facet of the face is positive."""
    need = face.normal_mask
    return lambda v: v & need != need


def _face_index_at_least(host, k):
    """The face whose relative interior holds the element has index >= k."""
    cone = _cone_of(host)
    return lambda v: cone.face_of(v).index >= k


class RadicalResult(Record):
    _fields = ("ideal", "method", "bound", "power_certificates")

    def __init__(self, ideal, method, bound, power_certificates):
        self.ideal = ideal
        self.method = method  # always "faces": the candidate is the radical
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


def radical(I, degree_bound=12):
    """sqrt(I) = {x : nx in I for some n > 0}, exactly.

    Candidate: the intersection of the face-complement primes containing I,
    i.e. the elements x whose face F (the least face holding x) holds an
    element y of I; it always contains sqrt(I).  Its generators are exact,
    from generator supports (_support_generators).  The candidate equals
    sqrt(I) for every finitely generated cancellative monoid, torsion
    included: the elements of M that become units in the localization M_x
    form a face of M holding x, so they hold y, and -y + nx lies in M for
    some n; then nx lies in y + M, inside I (Bruns-Gubeladze, Polytopes,
    Rings, and K-Theory, ch. 2).  So each candidate generator g has a least
    power certificate n with n*g in I (_least_power_in_ideal), and these
    force the candidate inside sqrt(I), since n(g+m) = ng + nm stays in
    I + M.  degree_bound does not enter; it is reported.
    """
    if I.pc_host is not None:
        inner = MonoidIdeal(I.host, I.generators)
        res = radical(inner, degree_bound)
        wrapped = MonoidIdeal(I.pc_host, res.ideal.generators)
        return RadicalResult(wrapped, res.method, res.bound, res.power_certificates)
    host = I.host
    if not I.is_proper():
        raise ValueError("radical requires a proper ideal")
    if I.is_empty():
        return RadicalResult(MonoidIdeal(host, []), "faces", degree_bound, {})
    in_candidate = _radical_candidate(host, I.generators)
    gens = _support_generators(host, in_candidate)
    certs = {g: _least_power_in_ideal(I, g) for g in gens}
    cone = _cone_of(host)
    for g in I.generators:
        assert in_candidate(cone.element_mask(g)), (
            f"ideal generator {g} escapes its own radical"
        )
    return RadicalResult(MonoidIdeal(host, gens), "faces", degree_bound, certs)


def _least_power_in_ideal(I, x):
    """The least n > 0 with n*x in I, for x in sqrt(I) (so such an n exists,
    see radical).  n*x in I implies (n+1)*x in I, as x lies in M, so
    doubling finds a power in I and bisection the least one below it."""
    amb = I.host.ambient

    def inside(n):
        return I.member(amb.scale(n, x)).is_yes

    hi = 1
    while not inside(hi):
        hi *= 2
    lo = hi // 2  # 0, or a power known to lie outside I
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


def is_radical(I):
    return radical(I).ideal.same_as(I)


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
    complements of the maximal face submonoids disjoint from I.  The prime
    generators are exact (generator supports); the intersection is
    certified exhaustively on the degree_bound slice.  One slice, covering
    that certificate and the definitional scan of is_prime, is read before
    either, so every membership question up to its degree is a lookup."""
    host = I.host
    inner = MonoidIdeal(host, I.generators)
    if not inner.is_proper():
        raise ValueError("prime_decomposition requires a proper ideal")
    host._slice_data(max(degree_bound, 2 * _DEFINITIONAL_BOUND))
    if not is_radical(inner):
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
        pgens = _support_generators(host, _outside_face(host, f))
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
        cone = _cone_of(self.host)
        return Membership(
            "yes" if cone.face_of(cone.element_mask(x)).index >= self.k else "no"
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
    needs, is only enforced on request.  The generators of each I_k are
    exact (generator supports); degree_bound bounds the slice on which the
    generated ideal is checked against face location.
    """
    if units_submonoid(M):
        raise ValueError("ideal_filtration requires a positive monoid")
    if require_seminormal and not is_seminormal(M):
        raise ValueError("ideal_filtration requires a seminormal monoid")
    cone = _cone_of(M)
    r = len(face_lattice(M)) - 1
    # the slice that certifies every level, with the facet mask of each key
    data = M._slice_data(degree_bound)
    keys = data.sorted_keys(degree_bound)
    masks = [cone.element_mask(data.element(x)) for x in keys]
    chain = []
    for k in range(r + 1):
        if k == 0:
            chain.append(
                FiltrationIdeal(M, 0, MonoidIdeal(M, [M.ambient.zero()]), degree_bound)
            )
            continue

        at_least_k = _face_index_at_least(M, k)
        gens = _support_generators(M, at_least_k)
        ideal = MonoidIdeal(M, gens)
        # certify on the slice: the generated ideal matches the predicate
        minus = data.minus(ideal.generators)
        for x, mask in zip(keys, masks):
            want = x != data.zero and at_least_k(mask)
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
