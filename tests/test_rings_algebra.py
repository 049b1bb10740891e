import random
from itertools import product

import pytest

from monoidforge.rings import GF, QQ, ZZ, GaloisField, IntegerModRing, ring_from_name
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, PcMonoid, member, smash
from monoidforge.algebra import (
    CancellativeAlgebra,
    HostMismatch,
    MonoidAlgebraBase,
    MonomialQuotientAlgebra,
    PcAlgebra,
    MonomialSubsetAlgebra,
    is_domain_verdict,
    is_invertible,
    is_reduced_verdict,
    monoid_keys_by_weight,
    truncate,
    units_description,
)

Z = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


def test_ring_axioms_random():
    rng = random.Random(2)
    for R in (ZZ, QQ, IntegerModRing(6), GF(4), GF(9), GF(27), GF(5)):
        if R.finite:
            pool = R.elements()
        else:
            pool = [R.from_int(rng.randint(-5, 5)) for _ in range(8)]
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
            assert R.add(a, R.neg(a)) == R.zero()
            assert R.mul(a, R.one()) == a


def test_gf_field_structure():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32):
        F = GF(q)
        els = F.elements()
        assert len(els) == q
        for a in els:
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one()
    with pytest.raises(ValueError):
        GF(6)


def test_ring_from_name():
    assert ring_from_name("Z") is ZZ
    assert ring_from_name("F9") == GF(9)
    assert ring_from_name("Z/6") == IntegerModRing(6)


def test_algebra_mul_examples():
    # x^2 * x^3 = x^5 in F2[<2,3>]
    A = CancellativeAlgebra(M(Z, [(2,), (3,)]), GF(2))
    assert A.monomial((2,)) * A.monomial((3,)) == A.monomial((5,))
    # in Z+^2/<(1,1)>: x_(1,0) * x_(0,1) = 0
    Q = PcMonoid(M(Z2, [(1, 0), (0, 1)]), [(1, 1)])
    B = PcAlgebra(Q, GF(2))
    assert (B.monomial((1, 0)) * B.monomial((0, 1))).is_zero()
    # 1 * u = u
    u = B.monomial((2, 0)) + B.monomial((0, 1))
    assert B.one() * u == u
    with pytest.raises(HostMismatch):
        A.one() + B.one()


def test_pc_singleton_algebra():
    Q = PcMonoid(M(Z, [(1,)]), [(0,)])
    A = PcAlgebra(Q, GF(3))
    assert A.keys_upto(5) == [(0,)]
    assert A.one() * A.one() == A.one()


def test_truncate():
    A = CancellativeAlgebra(M(Z2, [(1, 0), (0, 1)]), QQ)
    u = A.monomial((0, 0)) + A.monomial((1, 2)) + A.monomial((3, 3))
    assert truncate(u, 0) == A.monomial((0, 0))
    assert truncate(u, 99) == u
    assert truncate(u, 3).support() == [(0, 0), (1, 2)]
    zfull = CancellativeAlgebra(M(Z, [(1,), (-1,)]), QQ)
    with pytest.raises(ValueError):
        truncate(zfull.one(), 2)


def test_is_reduced_examples():
    assert is_reduced_verdict(GF(2), M(Z, [(2,), (3,)])).is_yes
    sm = smash(M(Z, [(1,)]), M(AbelianGroupShape(0, (2,)), [(1,)]))
    v = is_reduced_verdict(GF(2), sm)
    assert v.value == "no"
    w = v.witness
    assert (w * w).is_zero() and not w.is_zero()
    # (x_(1,0) + x_(1,1))^2 = 0 over F2
    A = CancellativeAlgebra(sm, GF(2))
    u = A.monomial((1, 0)) + A.monomial((1, 1))
    assert (u * u).is_zero()
    # Q[cancellative torsion M] is reduced by the Q criterion
    v2 = is_reduced_verdict(QQ, sm)
    assert v2.is_yes and "Q subset R" in v2.basis
    # non-reduced base ring
    assert is_reduced_verdict(IntegerModRing(4), M(Z, [(1,)])).value == "no"


def test_is_domain_examples():
    assert is_domain_verdict(GF(2), M(Z2, [(1, 0), (0, 1)])).is_yes
    assert is_domain_verdict(IntegerModRing(4), M(Z, [(1,)])).value == "no"
    Q = PcMonoid(M(Z2, [(1, 0), (0, 1)]), [(1, 1)])
    v = is_domain_verdict(GF(2), Q)
    assert v.value == "no"
    u, w = v.witness
    assert (u * w).is_zero()
    sm = smash(M(Z, [(1,)]), M(AbelianGroupShape(0, (2,)), [(1,)]))
    vt = is_domain_verdict(GF(3), sm)
    assert vt.value == "no"
    u, w = vt.witness
    assert (u * w).is_zero() and not u.is_zero() and not w.is_zero()


def test_units_description_and_invertibility():
    # F5[Z+]^x = F5^x
    A = CancellativeAlgebra(M(Z, [(1,)]), GF(5))
    d = units_description(GF(5), M(Z, [(1,)]))
    assert d.unit_monoid_generators == []
    ok, inv, why = is_invertible(A.monomial((0,), 2))
    assert ok and (A.monomial((0,), 2) * inv) == A.one()
    ok, _, _ = is_invertible(A.monomial((1,)))
    assert not ok
    ok, _, _ = is_invertible(A.one() + A.monomial((1,)))
    assert not ok
    # F3[Z]^x = {c t^n}
    zfull = M(Z, [(1,), (-1,)])
    B = CancellativeAlgebra(zfull, GF(3))
    d2 = units_description(GF(3), zfull)
    assert set(d2.unit_monoid_generators) == {(1,), (-1,)}
    ok, inv, _ = is_invertible(B.monomial((3,), 2))
    assert ok and (B.monomial((3,), 2) * inv) == B.one()
    ok, _, why = is_invertible(B.monomial((0,)) + B.monomial((1,)), window=5)
    assert not ok and "window" in why
    # F2[<2,3>]^x = {1}
    C = CancellativeAlgebra(M(Z, [(2,), (3,)]), GF(2))
    ok, inv, _ = is_invertible(C.one())
    assert ok
    ok, _, _ = is_invertible(C.monomial((2,)))
    assert not ok


def test_monomial_subset_algebra():
    A = CancellativeAlgebra(M(Z2, [(1, 0), (0, 1)]), GF(2))
    Ist = MonomialSubsetAlgebra(
        A, lambda k: k == (0, 0) or (k[0] >= 1 and k[1] >= 1), "I*"
    )
    keys = Ist.keys_upto(3)
    assert (0, 0) in keys and (1, 1) in keys and (1, 0) not in keys
    u = Ist.monomial((1, 1))
    assert (u * u).support() == [(2, 2)]


def test_parse_element_literal():
    from monoidforge.algebra import parse_element_literal

    A = CancellativeAlgebra(M(Z2, [(1, 0), (0, 1)]), GF(5))
    u = parse_element_literal(A, "2*x[1,0]+x[0,3]")
    assert u == A.monomial((1, 0), 2) + A.monomial((0, 3))
    assert parse_element_literal(A, "1") == A.one()
    assert parse_element_literal(A, "x[2,2]") == A.monomial((2, 2))
    assert parse_element_literal(A, "3*x[1,1]-x[1,1]") == A.monomial((1, 1), 2)
    with pytest.raises(ValueError):
        parse_element_literal(A, "x[-1,0]")
    with pytest.raises(ValueError):
        parse_element_literal(A, "x[1,0]+oops")
    # exponent vectors may hold negative entries; malformed terms still fail
    L = CancellativeAlgebra(M(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)]), QQ)
    assert parse_element_literal(L, "x[-1,0]") == L.monomial((-1, 0))
    assert parse_element_literal(L, "2*x[1,-1]-x[0,1]") == (
        L.monomial((1, -1), 2) - L.monomial((0, 1))
    )
    assert parse_element_literal(L, "-x[-2,3]+1") == L.one() - L.monomial((-2, 3))
    for bad in ("x[1", "x[1,,2]", "2**x[1]", "x[1,-]", "3["):
        with pytest.raises(ValueError):
            parse_element_literal(L, bad)


def test_parse_element_literal_rejects_a_sign_without_a_term():
    """Over F5 these read as 1, 4, 4 and 1 + x while a sign that no term
    follows was dropped; a literal whose terms do not cover its whole text
    is rejected."""
    from monoidforge.algebra import parse_element_literal

    A = CancellativeAlgebra(M(Z, [(1,)]), GF(5))
    for bad in ("1+", "--1", "+-1", "1++x[1]"):
        with pytest.raises(ValueError, match="sign without a term"):
            parse_element_literal(A, bad)
    assert parse_element_literal(A, "+1-x[1]") == A.one() - A.monomial((1,))


def test_associativity_random():
    rng = random.Random(8)
    A = CancellativeAlgebra(M(Z2, [(1, 0), (0, 1), (1, 1)]), GF(3))
    keys = A.keys_upto(3)
    for _ in range(25):
        us = []
        for _ in range(3):
            pairs = [(rng.choice(keys), rng.randint(0, 2)) for _ in range(3)]
            us.append(A.elem(pairs))
        u, v, w = us
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


# ---------------------------------------------------------------------------
# the three monomial hosts as they were before they became one
# MonomialQuotientAlgebra, kept word for word as oracles


class ParentCancellativeAlgebra(MonoidAlgebraBase):
    def __init__(self, M, ring, weight_fn=None):
        self.M = M
        self.ring = ring
        self.name = f"M{list(M.generators)}"
        self._custom = weight_fn
        if weight_fn is not None:
            self._weight = weight_fn
        elif M.grading() is not None:
            self._weight = M.degree
        else:
            self._weight = M.filtration_weight

    def weight(self, key):
        return self._weight(key)

    def add_keys(self, a, b):
        return self.M.ambient.add(a, b)

    def zero_key(self):
        return self.M.ambient.zero()

    def keys_upto(self, bound):
        return monoid_keys_by_weight(self.M, self._custom, bound)

    def contains_key(self, key):
        return member(self.M, key).is_yes


class ParentPcAlgebra(MonoidAlgebraBase):
    """R[N/I] = R[N]/R[I]; for proper nonempty I the collapsed class acts as
    zero, and for I = N the quotient is the singleton monoid with algebra R."""

    def __init__(self, Q, ring, weight_fn=None):
        self.Q = Q
        self.ring = ring
        self.singleton = Q.is_singleton() if Q.has_collapse else False
        self.name = f"M{list(Q.base.generators)}/I{list(Q.collapse_gens)}"
        base = Q.base
        self._custom = weight_fn
        if weight_fn is not None:
            self._weight = weight_fn
        elif base.grading() is not None:
            self._weight = base.degree
        else:
            self._weight = base.filtration_weight

    def weight(self, key):
        return 0 if self.singleton else self._weight(key)

    def add_keys(self, a, b):
        if self.singleton:
            return self.Q.base.ambient.zero()
        s = self.Q.base.ambient.add(a, b)
        if self.Q.has_collapse and self.Q.collapsed(s):
            return None
        return s

    def zero_key(self):
        return self.Q.base.ambient.zero()

    def keys_upto(self, bound):
        if self.singleton:
            return [self.zero_key()]
        keys = monoid_keys_by_weight(self.Q.base, self._custom, bound)
        return sorted(k for k in keys if not (self.Q.has_collapse and self.Q.collapsed(k)))

    def contains_key(self, key):
        if self.singleton:
            return key == self.zero_key()
        return self.Q.member(key).is_yes


class ParentMonomialQuotientAlgebra(MonoidAlgebraBase):
    """R[M]/(monomial ideal given by a kill predicate): keys are the
    surviving monomials, products falling into the ideal die."""

    def __init__(self, M, ring, kill_pred, name, weight_fn=None):
        self.M = M
        self.ring = ring
        self._kill = kill_pred
        self.name = name
        self._custom = weight_fn
        if weight_fn is not None:
            self._weight = weight_fn
        elif M.grading() is not None:
            self._weight = M.degree
        else:
            self._weight = M.filtration_weight

    def weight(self, key):
        return self._weight(key)

    def add_keys(self, a, b):
        s = self.M.ambient.add(a, b)
        return None if self._kill(s) else s

    def zero_key(self):
        return self.M.ambient.zero()

    def keys_upto(self, bound):
        keys = monoid_keys_by_weight(self.M, self._custom, bound)
        return [k for k in keys if not self._kill(k)]

    def contains_key(self, key):
        return member(self.M, key).is_yes and not self._kill(key)


def _oracle_cases():
    """(oracle, merged) host pairs on seeded monoids: positive ones, ones
    with units and ones with torsion; PcMonoid quotients by an empty ideal,
    a proper ideal and I = N; with and without a custom weight; over F2
    and Q."""
    rng = random.Random(1709)
    Z2T = AbelianGroupShape(1, (2,))
    monoids = [
        M(Z2, [(1, 0), (0, 1)]),
        M(Z, [(2,), (3,)]),
        M(Z2, [(1, 0), (1, 1), (1, 2)]),
        M(Z2, [(1, 0), (-1, 0), (0, 1)]),
        M(Z, [(1,), (-1,)]),
        M(Z2T, [(1, 0), (1, 1)]),
        M(Z2T, [(1, 0), (0, 1)]),
    ]
    while len(monoids) < 11:
        gens = sorted({(rng.randint(-1, 2), rng.randint(0, 2)) for _ in range(3)} - {(0, 0)})
        if gens:
            monoids.append(M(Z2, gens))
    out = []
    for i, N in enumerate(monoids):
        R = (GF(2), QQ)[i % 2]
        r = N.ambient.free_rank
        custom = lambda k, r=r: sum((j + 2) * abs(x) for j, x in enumerate(k[:r]))
        zero = N.ambient.zero()
        big = N.ambient.add(N.generators[0], N.generators[-1])
        kill = lambda k, big=big, N=N: member(N, N.ambient.sub(k, big)).is_yes
        for w in (None, custom):
            out.append((ParentCancellativeAlgebra(N, R, w), CancellativeAlgebra(N, R, w)))
            out.append((
                ParentMonomialQuotientAlgebra(N, R, kill, "N/big", w),
                MonomialQuotientAlgebra(N, R, kill, "N/big", w),
            ))
            for ideal in ([], [big], [zero]):
                Q = PcMonoid(N, ideal)
                out.append((ParentPcAlgebra(Q, R, w), PcAlgebra(Q, R, w)))
    return out


def _box(amb, radius=3):
    ranges = [range(-radius, radius + 1)] * amb.free_rank + [range(n) for n in amb.torsion]
    return list(product(*ranges))


def test_merged_hosts_match_the_parent_hosts():
    kinds = set()
    for old, new in _oracle_cases():
        assert new.name == old.name and new.zero_key() == old.zero_key()
        for d in range(9):
            keys = new.keys_upto(d)
            assert keys == old.keys_upto(d), (old, d)
            assert [new.weight(k) for k in keys] == [old.weight(k) for k in keys], (old, d)
        keys = keys[:24]
        for a in keys:
            for b in keys:
                assert new.add_keys(a, b) == old.add_keys(a, b), (old, a, b)
        host = new.M
        for k in keys + _box(host.ambient):
            assert new.contains_key(k) == old.contains_key(k), (old, k)
        if isinstance(old, ParentPcAlgebra) and old.singleton:
            # the one intended difference: a negative bound lists nothing,
            # as for every other host
            assert old.keys_upto(-1) == [old.zero_key()]
            assert new.keys_upto(-1) == []
            kinds.add("singleton")
        else:
            assert new.keys_upto(-1) == old.keys_upto(-1) == []
        kinds.add(("positive" if host.grading() is not None else "units", host.ambient.torsion != ()))
        kinds.add(("custom" if new._custom else "default", new.ring.kind))
    assert {("positive", False), ("positive", True), ("units", False), ("units", True)} <= kinds
    assert {("custom", "F2"), ("custom", "Q"), ("default", "F2"), ("default", "Q"), "singleton"} <= kinds


def test_negative_power_raises():
    A = CancellativeAlgebra(M(Z, [(1,)]), QQ)
    u = A.one() + A.monomial((1,))
    assert u ** 0 == A.one() and u ** 2 == u * u
    with pytest.raises(ValueError):
        u ** -1


def test_truncate_on_a_quotient_host():
    N = M(Z2, [(1, 0), (0, 1)])
    A = MonomialQuotientAlgebra(N, GF(2), lambda k: k[0] >= 2, "N/x^2")
    u = A.one() + A.monomial((1, 3))
    assert truncate(u, 2) == A.one()
