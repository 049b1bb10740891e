import json
import os
import random
import re
from math import gcd

import pytest

from monoidforge.conductor import (
    NumericalSemigroup,
    abelian_structure,
    conductor_data,
    picard_by_patching,
    sk0_vanishing_certificate,
    unit_group,
)
from monoidforge.rings import GF, factorize

HERE = os.path.dirname(os.path.abspath(__file__))


def test_numerical_semigroup_basics():
    s23 = NumericalSemigroup([2, 3])
    assert s23.gaps == (1,)
    assert s23.frobenius == 1
    assert s23.conductor == 2
    s345 = NumericalSemigroup([3, 4, 5])
    assert s345.gaps == (1, 2)
    assert s345.conductor == 3
    s25 = NumericalSemigroup([2, 5])
    assert s25.gaps == (1, 3)
    assert s25.conductor == 4
    zp = NumericalSemigroup([1])
    assert zp.gaps == () and zp.conductor == 0
    # classic non-pairwise-coprime case
    s = NumericalSemigroup([6, 10, 15])
    assert s.frobenius == 29
    with pytest.raises(ValueError):
        NumericalSemigroup([2, 4])


def brute_gaps(gens, bound=200):
    reach = {0}
    for _ in range(bound):
        reach |= {x + g for x in reach for g in gens if x + g <= bound}
    return [n for n in range(bound - max(gens)) if n not in reach]


def test_gaps_against_bruteforce():
    for gens in ([2, 3], [3, 4, 5], [2, 5], [4, 5, 6, 7], [3, 7], [6, 10, 15]):
        S = NumericalSemigroup(gens)
        assert list(S.gaps) == brute_gaps(gens)


class FixpointSemigroup:
    """The former NumericalSemigroup constructor, word for word but for its
    name: a fixpoint over sorted(reachable) per bound, and the gcd by a
    loop.  The oracle of the one-pass construction."""

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or any(g <= 0 for g in gens):
            raise ValueError("generators must be positive integers")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise ValueError(f"generators must be coprime (gcd = {g})")
        self.generators = tuple(gens)
        a = gens[0]
        reachable = {0}
        bound = a
        # grow until a full window of length min(gens) is reachable
        while True:
            changed = True
            while changed:
                changed = False
                for x in sorted(reachable):
                    for g in gens:
                        y = x + g
                        if y <= bound and y not in reachable:
                            reachable.add(y)
                            changed = True
            start = None
            for c in range(0, bound - a + 2):
                if all((c + i) in reachable for i in range(a)):
                    start = c
                    break
            if start is not None:
                break
            bound *= 2
        self.gaps = tuple(n for n in range(start) if n not in reachable)
        self.frobenius = max(self.gaps) if self.gaps else -1
        self.conductor = self.frobenius + 1
        self._members = reachable

    def contains(self, n):
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return n in self._members


def test_one_pass_semigroup_matches_the_fixpoint():
    rng = random.Random(1903)
    cases = [[1], [6, 10, 15], [2, 3], [1, 7], [9, 7, 7]]
    while len(cases) < 600:
        cases.append([rng.randint(1, 30) for _ in range(rng.randint(1, 4))])
    coprime = 0
    for gens in cases:
        try:
            old = FixpointSemigroup(gens)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                NumericalSemigroup(gens)
            continue
        coprime += 1
        new = NumericalSemigroup(gens)
        assert new.to_json() == {
            "generators": list(old.generators),
            "gaps": list(old.gaps),
            "frobenius": old.frobenius,
            "conductor": old.conductor,
        }, gens
        for n in range(-2, new.conductor + 3):
            assert new.contains(n) == old.contains(n), (gens, n)
    assert coprime >= 300
    for bad in ([], [0, 1], [-2, 3]):
        with pytest.raises(ValueError, match="^generators must be positive integers$"):
            NumericalSemigroup(bad)


def test_conductor_data_examples():
    d = conductor_data(NumericalSemigroup([2, 3]), 2)
    assert d.conductor_exponent == 2
    assert d.a_mod.exponents == (0,)
    assert d.b_mod.exponents == (0, 1)
    d2 = conductor_data(NumericalSemigroup([3, 4, 5]), 3)
    assert d2.conductor_exponent == 3
    assert d2.a_mod.exponents == (0,)


def test_unit_group_examples():
    # (F2[t]/t^2)^x = Z/2
    d = conductor_data(NumericalSemigroup([2, 3]), 2)
    g = unit_group(d.b_mod)
    assert g.order == 2 and g.invariants == (2,)
    # (F5[t]/t^2)^x = Z/4 x Z/5
    d5 = conductor_data(NumericalSemigroup([2, 3]), 5)
    g5 = unit_group(d5.b_mod)
    # cyclic of order 20 = Z/4 x Z/5: invariant chain is (20,)
    assert g5.order == 20 and g5.invariants == (20,)
    # F_q^x cyclic of order q-1
    d9 = conductor_data(NumericalSemigroup([2, 3]), 9)
    ga = unit_group(d9.a_mod)
    assert ga.order == 8 and ga.invariants == (8,)


def test_abelian_structure_known_groups():
    # Z/2 x Z/4 via modular addition encoded multiplicatively
    els = [(a, b) for a in range(2) for b in range(4)]
    mul = lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)
    d = abelian_structure(els, mul, (0, 0))
    assert d.invariants == (2, 4)
    els3 = [(a, b) for a in range(3) for b in range(3)]
    mul3 = lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)
    assert abelian_structure(els3, mul3, (0, 0)).invariants == (3, 3)


def test_picard_orders_23():
    for q in (2, 3, 4, 5):
        res = picard_by_patching(NumericalSemigroup([2, 3]), q)
        assert res.order == q, (q, res.order)
        # additive group of F_q: elementary abelian p-group
        from monoidforge.rings import factorize

        (p, k), = factorize(q).items()
        assert res.invariants == (p,) * k


def test_picard_orders_345():
    for q in (2, 3):
        res = picard_by_patching(NumericalSemigroup([3, 4, 5]), q)
        assert res.order == q * q, (q, res.order)


def test_picard_trivial_for_zplus():
    res = picard_by_patching(NumericalSemigroup([1]), 5)
    assert res.order == 1


def test_sk0_certificates():
    for gens in ([2, 3], [2, 5], [3, 4, 5]):
        for q in (2, 3):
            cert = sk0_vanishing_certificate(NumericalSemigroup(gens), q)
            assert cert.verdict.startswith("SK0")
            assert len(cert.slots) == 6
            for name, value, reason, detail in cert.slots:
                if value == "0":
                    assert reason, f"unjustified zero in slot {name}"
    cert = sk0_vanishing_certificate(NumericalSemigroup([1]), 2)
    assert "degenerate" in cert.exactness_note


def test_unsupported_q():
    with pytest.raises(ValueError):
        conductor_data(NumericalSemigroup([2, 3]), 64)
    with pytest.raises(ValueError):
        picard_by_patching(NumericalSemigroup([2, 3]), 6)


def exhaustive_picard(S, q):
    """Pic(F_q[S]) by coset enumeration over all q^c elements of B/c and
    abelian_structure: the oracle for the filtration presentation."""
    data = conductor_data(S, q)
    bm, am = data.b_mod, data.a_mod
    F = bm.field
    gens = [
        tuple(cst if e == 0 else F.zero() for e in bm.exponents)
        for cst in F.elements()
        if not F.is_zero(cst)
    ]
    a_pos = {e: i for i, e in enumerate(am.exponents)}
    for u in am.units():
        gens.append(tuple(u[a_pos[e]] if e in a_pos else F.zero() for e in bm.exponents))
    H = {bm.one()}
    work = [bm.one()]
    while work:
        h = work.pop()
        for g in gens:
            x = bm.mul(h, g)
            if x not in H:
                H.add(x)
                work.append(x)
    # canonical coset representative of every unit, one coset at a time
    rep = {}
    for u in bm.units():
        if u not in rep:
            coset = [bm.mul(u, h) for h in H]
            r = min(coset)
            rep.update((x, r) for x in coset)
    cosets = sorted(set(rep.values()))
    return abelian_structure(cosets, lambda a, b: rep[bm.mul(a, b)], rep[bm.one()]), H


ORACLE_SEMIGROUPS = ([2, 3], [2, 5], [2, 7], [3, 4, 5], [4, 5, 6, 7], [2, 9], [3, 5])
ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def oracle_cases():
    for gens in ORACLE_SEMIGROUPS:
        S = NumericalSemigroup(gens)
        for q in ORACLE_FIELDS:
            if q ** S.conductor <= 729:
                yield S, q


def has_order(n, trivial):
    """Whether x has order exactly n, given trivial(k) <=> x^k = 1."""
    return trivial(n) and not any(trivial(n // ell) for ell in factorize(n))


def test_picard_and_unit_groups_against_exhaustive_oracle():
    for S, q in oracle_cases():
        want, H = exhaustive_picard(S, q)
        got = picard_by_patching(S, q)
        assert (got.order, got.invariants) == (want.order, want.invariants), (S, q)
        data = conductor_data(S, q)
        # each witness coset has exactly its stated order in (B/c)^x / H
        for w, d in got.witness.generators:
            assert has_order(d, lambda k: data.b_mod.pow(w, k) in H), (S, q, w, d)
        for ring in (data.a_mod, data.b_mod):
            ug = unit_group(ring)
            oracle = abelian_structure(list(ring.units()), ring.mul, ring.one())
            assert (ug.order, ug.invariants) == (oracle.order, oracle.invariants), ring.label
            assert [d for _, d in ug.generators] == list(ug.invariants)
            for w, d in ug.generators:
                assert has_order(d, lambda k: ring.pow(w, k) == ring.one()), (ring.label, w, d)


def test_picard_past_the_enumeration_wall():
    for gens, q in (([3, 5], 3), ([3, 5], 5), ([5, 7], 2), ([4, 7], 9)):
        S = NumericalSemigroup(gens)
        c = S.conductor
        assert picard_by_patching(S, q).order == q ** len(S.gaps), (gens, q)
        assert unit_group(conductor_data(S, q).b_mod).order == (q - 1) * q ** (c - 1)


def test_canonical_json_matches_golden_fixture():
    """pic and sk0cert canonical JSON of the benchmark's 20 conductor cases,
    recorded from the exhaustive implementation, reproduced byte for byte."""
    with open(os.path.join(HERE, "data", "conductor_golden.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 20

    def canon(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    for key, want in golden.items():
        gens, q = key.split(" q")
        S = NumericalSemigroup([int(g) for g in gens.split(",")])
        assert canon(picard_by_patching(S, int(q)).to_json()) == want["pic"], key
        assert canon(sk0_vanishing_certificate(S, int(q)).to_json()) == want["sk0cert"], key
