"""Conductor squares of numerical semigroup rings over finite fields:
unit groups and Picard groups from a presentation of the 1-unit filtration,
and SK0 vanishing certificates with justified slots.

The conductor square is A = F_q[S] inside B = F_q[t] with conductor ideal
t^c B, c the least integer with c + Z_+ inside S.  Both quotient corners are
finite local rings R with R^x = F_q^x x U_1, U_1 the units with constant
term 1.  U_1 is presented as Z^N / L by the generators 1 + b t^e of the
filtration layers and one relation per generator, found by a layer-by-layer
discrete log; every group in sight is read off one Smith normal form, and
the presentation is certified (the discrete logs reach 1 and the index of L
is |U_1|), never asserted.  The cost is polynomial in c log q; no q^c
element table is built.

Scope: dimension-one semigroup rings only, where the conductor square
collapses Pic to a finite unit-coset computation; projective-curve factors
(sheaf cohomology) are out of charter and certificates stop at the affine
corners.
"""

from itertools import product
from math import gcd, prod

from .rings import GF, _power, factorize
from .algebra import field_solve
from .lattice import Record, diagonal_of, mat_mul, smith_normal_form, solve_smith


class NumericalSemigroup:
    """Cofinite submonoid of Z_+ given by coprime generators."""

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or any(g <= 0 for g in gens):
            raise ValueError("generators must be positive integers")
        g = gcd(*gens)
        if g != 1:
            raise ValueError(f"generators must be coprime (gcd = {g})")
        self.generators = tuple(gens)
        a = gens[0]
        reachable = [True]  # reachable[n]: n is a sum of generators
        bound = a
        # grow until a full window of length min(gens) is reachable
        while True:
            for n in range(len(reachable), bound + 1):
                reachable.append(any(reachable[n - g] for g in gens if g <= n))
            start = next((c for c in range(bound - a + 2) if all(reachable[c : c + a])), None)
            if start is not None:
                break
            bound *= 2
        self.gaps = tuple(n for n in range(start) if not reachable[n])
        self.frobenius = max(self.gaps) if self.gaps else -1
        self.conductor = self.frobenius + 1
        self._members = reachable

    def contains(self, n):
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return self._members[n]

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"

    def to_json(self):
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "frobenius": self.frobenius,
            "conductor": self.conductor,
        }


class FiniteRingData:
    """F_q[S]/t^c or F_q[t]/t^c as a table ring on a finite exponent set."""

    def __init__(self, field_, exponents, c, label):
        self.field = field_
        self.exponents = tuple(sorted(exponents))
        self.c = c
        self.label = label
        self._pos = {e: i for i, e in enumerate(self.exponents)}

    def elements(self):
        F = self.field
        for coeffs in product(F.elements(), repeat=len(self.exponents)):
            yield coeffs

    def zero(self):
        return (self.field.zero(),) * len(self.exponents)

    def one(self):
        F = self.field
        return tuple(
            F.one() if e == 0 else F.zero() for e in self.exponents
        )

    def add(self, u, v):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(u, v))

    def mul(self, u, v):
        F = self.field
        zero = F.zero()
        pos = self._pos
        out = [zero] * len(self.exponents)
        vs = [(e, b) for e, b in zip(self.exponents, v) if b != zero]
        for e1, a in zip(self.exponents, u):
            if a == zero:
                continue
            for e2, b in vs:
                e = e1 + e2
                if e >= self.c:
                    break  # the exponents ascend
                k = pos.get(e)
                assert k is not None, "exponent set not closed under addition"
                out[k] = F.add(out[k], F.mul(a, b))
        return tuple(out)

    def pow(self, u, n):
        return _power(self.mul, self.one(), u, n)

    def constant_term(self, u):
        for e, a in zip(self.exponents, u):
            if e == 0:
                return a
        return self.field.zero()

    def units(self):
        """All invertible elements with verified inverses: the exhaustive
        oracle for ``unit_group``, q^#exponents elements.

        The ring is local (positive part nilpotent since t^c = 0), so the
        units are exactly the elements with nonzero constant term; each gets
        its inverse certified by an exact linear solve.
        """
        out = {}
        F = self.field
        for u in self.elements():
            if F.is_zero(self.constant_term(u)):
                continue
            v = self._inverse(u)
            assert v is not None, f"unit candidate {u} has no inverse"
            out[u] = v
        return out

    def _inverse(self, u):
        F = self.field
        n = len(self.exponents)
        cols = []
        basis = []
        for j in range(n):
            e = [F.zero()] * n
            e[j] = F.one()
            basis.append(tuple(e))
            cols.append(self.mul(u, basis[j]))
        A = [[cols[j][i] for j in range(n)] for i in range(n)]
        b = list(self.one())
        sol = field_solve(F, A, b)
        if sol is None:
            return None
        v = tuple(sol)
        return v if self.mul(u, v) == self.one() else None


class AbelianGroupData(Record):
    _fields = ("order", "invariants", "generators", "note")

    def __init__(self, order, invariants, generators, note=""):
        self.order = order
        self.invariants = invariants  # divisor chain d1 | d2 | ...
        self.generators = generators  # witness generating set with element orders
        self.note = note

    def to_json(self):
        return {
            "order": self.order,
            "invariant_factors": list(self.invariants),
            "witness_generators": [
                {"element": repr(g), "order": o} for g, o in self.generators
            ],
            "note": self.note,
        }


def abelian_structure(elements, mul, one):
    """Invariant factors of a finite abelian group by exact order counting,
    plus a witness generating set found by greedy coset closure: the exhaustive
    oracle that the presentation path is tested against.

    For each prime p, #{x : x^{p^j} = e} = p^{sum_i min(lam_i, j)} determines
    the p-type lam; the divisor chain aligns the largest exponents across
    primes.
    """
    els = list(elements)
    n = len(els)
    fac = factorize(n) if n > 1 else {}

    def order(x):
        e = n
        for p in fac:
            while e % p == 0 and _power(mul, one, x, e // p) == one:
                e //= p
        return e

    orders = {x: order(x) for x in els}
    chains = {}
    for p in fac:
        ms = [0]
        j = 1
        while True:
            cnt = sum(1 for x in els if (p**j) % orders[x] == 0)
            m = 0
            c = cnt
            while c > 1:
                assert c % p == 0, "order count is not a p-power"
                c //= p
                m += 1
            ms.append(m)
            if m == ms[-2]:
                break
            j += 1
        conj = [ms[j] - ms[j - 1] for j in range(1, len(ms))]  # #parts >= j
        lam = []
        i = 1
        while True:
            li = sum(1 for cnt in conj if cnt >= i)
            if li == 0:
                break
            lam.append(li)
            i += 1
        chains[p] = sorted(lam, reverse=True)
    width = max((len(v) for v in chains.values()), default=0)
    invs = []
    for i in range(width):
        d = 1
        for p, lam in chains.items():
            if i < len(lam):
                d *= p ** lam[i]
        invs.append(d)
    # largest-first above; report the ascending divisor chain
    invs = tuple(sorted(d for d in invs if d > 1))
    assert prod(invs) == n, (invs, n)
    for a, b in zip(invs, invs[1:]):
        assert b % a == 0
    gens = []
    closure = {one}
    for x in sorted(els, key=lambda x: (-orders[x], x)):
        if x in closure:
            continue
        gens.append((x, orders[x]))
        # <closure, x> is the union of the cosets x^k * closure, each of
        # which lies inside closure or is disjoint from it
        coset = list(closure)
        while True:
            coset = [mul(x, y) for y in coset]
            if coset[0] in closure:
                break
            closure.update(coset)
        if len(closure) == n:
            break
    assert len(closure) == n
    return AbelianGroupData(n, invs, gens)


def _has_order(n, trivial):
    """Whether an element has order exactly n, given trivial(k) <=> x^k = 1."""
    return trivial(n) and not any(trivial(n // ell) for ell in factorize(n))


def _primitive_element(F):
    """A generator of the cyclic group F_q^x, found by checking orders."""
    one = F.one()
    for a in F.elements():
        if not F.is_zero(a) and _has_order(
            F.q - 1, lambda k: _power(F.mul, one, a, k) == one
        ):
            return a


def _one_unit_generators(ring):
    """The generators g_{e,j} = 1 + b_j t^e of the 1-units, layer by layer:
    e runs over the positive exponents and b_j over the F_p-basis
    1, x, ..., x^(k-1) of F_q = F_p[x]/(f).  Returns (position of t^e, j, g)."""
    F = ring.field
    basis = [1] if F.k == 1 else [
        tuple(int(i == j) for i in range(F.k)) for j in range(F.k)
    ]
    one = ring.one()
    out = []
    for pos, e in enumerate(ring.exponents):
        if e > 0:
            for j, b in enumerate(basis):
                g = list(one)
                g[pos] = b
                out.append((pos, j, tuple(g)))
    return out


class OneUnitPresentation:
    """U_1 = {u : u(0) = 1} of a table ring as Z^N / L.

    The layers U_e = 1 + t^e R of the filtration have quotients
    U_e / U_e' = (F_q, +) through the t^e coefficient, so the N generators
    g_i = 1 + b_j t^e generate U_1 and ``dlog`` writes any 1-unit as a
    product of them, one layer at a time.  Relation column i is
    p e_i - dlog(g_i^p).  g_i^p = 1 + b^p t^(pe) lies in a higher layer, so
    the relation matrix is triangular with diagonal p and L has index
    p^N = q^(#E - 1) = |U_1|: a lattice of index |U_1| inside the kernel of
    the surjection Z^N -> U_1 is the whole kernel.
    """

    def __init__(self, ring):
        self.ring = ring
        self.p = ring.field.p
        gens = _one_unit_generators(ring)
        self.gens = [g for _, _, g in gens]
        self._slots = [(pos, j) for pos, j, _ in gens]
        # g_i^exponent = 1 for every 1-unit (p-th powers climb the filtration)
        e_min = ring.exponents[gens[0][0]] if gens else ring.c
        self.exponent = 1
        while self.exponent * e_min < ring.c:
            self.exponent *= self.p
        self._inv = [ring.pow(g, self.exponent - 1) for g in self.gens]
        one = ring.one()
        assert all(ring.mul(g, h) == one for g, h in zip(self.gens, self._inv))
        self.order = self.p ** len(self.gens)
        self.relations = []
        for i, g in enumerate(self.gens):
            col = [-n for n in self.dlog(ring.pow(g, self.p))]
            col[i] += self.p
            self.relations.append(col)

    def dlog(self, x):
        """Exponents n with x = prod g_i^(n_i), 0 <= n_i < p; asserts that x
        is a 1-unit by reaching 1."""
        ring = self.ring
        single = ring.field.k == 1
        n = [0] * len(self.gens)
        # dividing by g_i^a changes only coordinate j of the t^e coefficient
        # and higher layers, so each coordinate is read when its turn comes
        for i, (pos, j) in enumerate(self._slots):
            a = x[pos] if single else x[pos][j]
            if a:
                n[i] = a
                x = ring.mul(x, ring.pow(self._inv[i], a))
        assert x == ring.one(), "discrete log did not reach 1"
        return n

    def element(self, exps):
        """prod g_i^(exps_i) for integer exponents of any sign; a factor
        with exponent divisible by self.exponent is one and is skipped."""
        ring = self.ring
        out = ring.one()
        for g, n in zip(self.gens, exps):
            n %= self.exponent
            if n:
                out = ring.mul(out, ring.pow(g, n))
        return out

    def quotient(self, extra=()):
        """Z^N / (L + the extra columns) from one Smith form U m V = D:
        the invariant factors d > 1, each with the 1-unit named by its
        column of U^-1, and the Smith form.

        m V = U^-1 D, so column i of U^-1 is column i of m V divided by d_i;
        the relation columns are triangular with diagonal p, so m has full
        row rank and every d_i is nonzero."""
        n = len(self.gens)
        cols = self.relations + list(extra)
        if n == 0:
            return [], None
        m = [[col[i] for col in cols] for i in range(n)]
        snf = smith_normal_form(m)
        _, D, V = snf
        mv = mat_mul(m, V)
        factors = [
            (d, self.element([row[i] // d for row in mv]))
            for i, d in enumerate(diagonal_of(D))
            if d > 1
        ]
        return factors, snf


def unit_group(ring_data):
    """R^x = F_q^x x U_1 from the filtration presentation of U_1.

    The invariant factors of U_1 come off the Smith form of its relations,
    whose determinant is checked against |U_1| = q^(#E - 1); q - 1, prime to
    p, merges into the largest factor with a primitive element of F_q.  Each
    witness generator's order is checked by powering in R.
    """
    ring = ring_data
    F = ring.field
    one = ring.one()
    pres = OneUnitPresentation(ring)
    factors, _ = pres.quotient()
    assert prod(d for d, _ in factors) == pres.order
    zeta = list(one)
    zeta[0] = _primitive_element(F)
    zeta = tuple(zeta)
    if factors:
        d, w = factors[-1]
        factors[-1] = (d * (F.q - 1), ring.mul(w, zeta))
    elif F.q > 2:
        factors = [(F.q - 1, zeta)]
    for d, w in factors:
        assert _has_order(d, lambda k: ring.pow(w, k) == one), (w, d)
    order = (F.q - 1) * pres.order
    note = (
        f"filtration presentation of {ring.label}: F{F.q}^x x U_1, "
        f"{len(pres.gens)} generators 1 + b t^e, |U_1| = {pres.order} "
        f"certified by the Smith form; witness orders checked by powering"
    )
    return AbelianGroupData(
        order, tuple(d for d, _ in factors), [(w, d) for d, w in factors], note
    )


class ConductorData(Record):
    _fields = ("semigroup", "q", "conductor_exponent", "a_mod", "b_mod")

    def __init__(self, semigroup, q, conductor_exponent, a_mod, b_mod):
        self.semigroup = semigroup
        self.q = q
        self.conductor_exponent = conductor_exponent
        self.a_mod = a_mod  # A / t^c
        self.b_mod = b_mod  # B / t^c

    def to_json(self):
        return {
            "semigroup": self.semigroup.to_json(),
            "q": self.q,
            "conductor_exponent": self.conductor_exponent,
            "A_mod_c_basis": [f"t^{e}" for e in self.a_mod.exponents],
            "B_mod_c_basis": [f"t^{e}" for e in self.b_mod.exponents],
        }


def conductor_data(S, q):
    """Corners of the conductor square F_q[S] -> F_q[t] with ideal t^c."""
    if q > 32:
        raise ValueError("supported fields have q <= 32")
    F = GF(q)
    c = S.conductor
    a_exp = [s for s in range(c) if S.contains(s)]
    b_exp = list(range(c))
    return ConductorData(
        S,
        q,
        c,
        FiniteRingData(F, a_exp, c, f"F{q}[S]/t^{c}"),
        FiniteRingData(F, b_exp, c, f"F{q}[t]/t^{c}"),
    )


class PicardResult(Record):
    _fields = ("semigroup", "q", "order", "invariants", "reasons", "witness")

    def __init__(self, semigroup, q, order, invariants, reasons, witness=None):
        self.semigroup = semigroup
        self.q = q
        self.order = order
        self.invariants = invariants
        self.reasons = reasons
        self.witness = witness  # AbelianGroupData

    def to_json(self):
        return {
            "semigroup": list(self.semigroup.generators),
            "q": self.q,
            "picard_order": self.order,
            "invariant_factors": list(self.invariants),
            "reasons": self.reasons,
        }


def picard_by_patching(S, q):
    """Pic(F_q[S]) = (B/c)^x / <image of B^x, image of (A/c)^x> through the
    conductor square.

    The constants F_q^x lie in both images, so Pic = U_1(B/c) / image of
    U_1(A/c): the Smith form of B's relation columns next to the discrete
    logs of A's generators 1 + b t^s, s in S, 0 < s < c.  The order is
    checked against |U_1(B/c)| / |U_1(A/c)| (A/c -> B/c is injective), and
    each witness coset's order by powering and membership in the image.
    """
    data = conductor_data(S, q)
    reasons = {
        "Pic(B)": "zero: B = F_q[t] is a polynomial ring over a field (PID)",
        "Pic(A/c)": "zero: A/c is a finite local ring",
        "mechanism": "units Mayer-Vietoris segment of the conductor square",
    }
    if data.conductor_exponent == 0:
        return PicardResult(S, q, 1, (), {**reasons, "degenerate": "A = B"})
    bm = data.b_mod
    am = data.a_mod
    F = bm.field
    pres = OneUnitPresentation(bm)

    def embed(u):  # A/c -> B/c
        out = [F.zero()] * len(bm.exponents)
        for e, a in zip(am.exponents, u):
            out[bm._pos[e]] = a
        return tuple(out)

    image = [pres.dlog(embed(g)) for _, _, g in _one_unit_generators(am)]
    factors, snf = pres.quotient(image)
    order = prod(d for d, _ in factors)
    assert order * q ** (len(am.exponents) - 1) == pres.order

    def in_image(x):
        return solve_smith(snf, pres.dlog(x)) is not None

    for d, w in factors:
        assert _has_order(d, lambda k: in_image(bm.pow(w, k))), (w, d)
    witness = AbelianGroupData(
        order,
        tuple(d for d, _ in factors),
        [(w, d) for d, w in factors],
        f"coset representatives in U_1({bm.label}); orders checked in the quotient",
    )
    return PicardResult(S, q, order, witness.invariants, reasons, witness)


class SK0Certificate(Record):
    _fields = ("semigroup", "q", "slots", "verdict", "exactness_note")

    def __init__(self, semigroup, q, slots, verdict, exactness_note):
        self.semigroup = semigroup
        self.q = q
        self.slots = slots  # six (name, value, reason-tag, detail)
        self.verdict = verdict
        self.exactness_note = exactness_note

    def to_json(self):
        return {
            "semigroup": list(self.semigroup.generators),
            "q": self.q,
            "slots": [
                {"term": n, "value": v, "reason": r, "detail": d}
                for n, v, r, d in self.slots
            ],
            "verdict": self.verdict,
            "exactness": self.exactness_note,
        }


def sk0_vanishing_certificate(S, q):
    """Instantiate the six-term SK1/SK0 sequence of the conductor square and
    conclude SK0(F_q[S]) = 0; every zero slot carries its reason tag."""
    data = conductor_data(S, q)
    c = data.conductor_exponent
    A = f"F{q}[S]"
    B = f"F{q}[t]"
    Ac = f"F{q}[S]/t^{c}"
    Bc = f"F{q}[t]/t^{c}"
    if c == 0:
        slots = [
            (f"SK1({A})", "0", "polynomial-ring", "S = Z_+, A = B = F_q[t]"),
            (f"SK1({B}) + SK1({Ac})", "0", "polynomial-ring", "degenerate square"),
            (f"SK1({Bc})", "0", "field", "zero conductor: quotient is trivial"),
            (f"SK0({A})", "0", "polynomial-ring", "A = F_q[t]"),
            (f"SK0({B}) + SK0({Ac})", "0", "polynomial-ring", "degenerate square"),
            (f"SK0({Bc})", "0", "field", "zero conductor: quotient is trivial"),
        ]
        return SK0Certificate(
            S, q, slots, f"SK0({A}) = 0",
            "degenerate conductor square: A = B is a polynomial ring",
        )
    # the two finite corners are local: computed, not asserted
    au = unit_group(data.a_mod)
    bu = unit_group(data.b_mod)
    slots = [
        (
            f"SK1({A})",
            "not required",
            "cited hypothesis",
            "leftmost term; exactness at SK0(A) does not use it",
        ),
        (
            f"SK1({B}) + SK1({Ac})",
            "0",
            "polynomial-ring, local-ring",
            f"SK1 of F_q[t] vanishes (Bass); {Ac} is a finite local ring "
            f"(unit group computed: order {au.order}, invariants {list(au.invariants)})",
        ),
        (
            f"SK1({Bc})",
            "0",
            "local-ring",
            f"finite local ring; unit group computed: order {bu.order}, "
            f"invariants {list(bu.invariants)}",
        ),
        (
            f"SK0({A})",
            "0 (concluded)",
            "computed-finite",
            "squeezed between the two adjacent zero slots by exactness",
        ),
        (
            f"SK0({B}) + SK0({Ac})",
            "0",
            "polynomial-ring, local-ring",
            "projective modules over F_q[t] and over a local ring are free",
        ),
        (f"SK0({Bc})", "0", "local-ring", "projective modules over a local ring are free"),
    ]
    note = (
        "exactness at SK0(A): the incoming map from SK1(B/c) = 0 kills the "
        "kernel and the outgoing map lands in SK0(B) + SK0(A/c) = 0"
    )
    return SK0Certificate(S, q, slots, f"SK0({A}) = 0", note)
