import random
from itertools import product

import pytest

from monoidforge.lattice import AbelianGroupShape, solve_integer
from monoidforge.monoid import (
    COLLAPSED,
    CancellativeMonoid,
    PcMonoid,
    ideal_contains,
    is_positive,
    is_torsion_free,
    member,
    minimalize,
    quotient_by_ideal,
    rank,
    smash,
    star_submonoid,
    units_submonoid,
)

Z = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)
ZxZ2 = AbelianGroupShape(1, (2,))


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


def enumerate_monoid(Mon, cap_coeff):
    """Oracle: every non-negative generator combination with coefficients <= cap."""
    out = set()
    for coeffs in product(range(cap_coeff + 1), repeat=len(Mon.generators)):
        acc = Mon.ambient.zero()
        for c, g in zip(coeffs, Mon.generators):
            acc = Mon.ambient.add(acc, Mon.ambient.scale(c, g))
        out.add(acc)
    return out


def test_member_examples():
    m23 = M(Z, [(2,), (3,)])
    assert member(m23, (5,)).is_yes
    assert member(m23, (1,)).status == "no"
    z2p = M(Z2, [(1, 0), (0, 1)])
    assert member(z2p, (3, 4)).is_yes
    sm = M(ZxZ2, [(1, 0), (1, 1)])
    res = member(sm, (2, 1))
    assert res.is_yes
    # the witness re-verifies by substitution
    acc = ZxZ2.zero()
    for c, g in zip(res.witness, sm.generators):
        acc = ZxZ2.add(acc, ZxZ2.scale(c, g))
    assert acc == (2, 1)


def test_member_matches_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        gens = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
        if not any(any(g) for g in gens):
            continue
        Mon = M(Z2, gens)
        oracle = enumerate_monoid(Mon, 6)
        for x in product(range(7), repeat=2):
            got = member(Mon, x)
            want = x in oracle or x == (0, 0)
            # the oracle cap can miss deep elements; only check its positives
            if want:
                assert got.is_yes, (gens, x)
            elif got.is_yes:
                acc = (0, 0)
                for c, g in zip(got.witness, Mon.generators):
                    acc = Z2.add(acc, Z2.scale(c, g))
                assert acc == x


def test_units_and_positivity():
    assert units_submonoid(M(Z2, [(1, 0), (0, 1)])) == []
    assert is_positive(M(Z, [(2,), (3,)]))
    zfull = M(Z, [(1,), (-1,)])
    assert not is_positive(zfull)
    assert set(units_submonoid(zfull)) == {(1,), (-1,)}
    mixed = M(Z2, [(1, 0), (-1, 0), (0, 1)])
    assert set(units_submonoid(mixed)) == {(1, 0), (-1, 0)}
    # a in U(M) iff member(a) and member(-a), both ways, on a slice
    for x in product(range(-2, 3), repeat=2):
        in_u = member(mixed, x).is_yes and member(mixed, Z2.neg(x)).is_yes
        assert in_u == (x[1] == 0)


def test_torsion_free_and_rank():
    assert is_torsion_free(M(Z, [(2,), (3,)]))
    assert rank(M(Z, [(2,), (3,)])) == 1
    assert is_torsion_free(M(Z2, [(1, 0), (0, 1)]))
    assert rank(M(Z2, [(1, 0), (0, 1)])) == 2
    # gp(<(1,0),(1,1)>) = Z x Z/2 has torsion
    assert not is_torsion_free(M(ZxZ2, [(1, 0), (1, 1)]))
    # but gp(<(1,1)>) alone is infinite cyclic
    assert is_torsion_free(M(ZxZ2, [(1, 1)]))
    assert rank(M(ZxZ2, [(2, 1)])) == 1


def test_torsion_quotient():
    m = M(ZxZ2, [(1, 0), (1, 1)])
    tq = m.torsion_quotient()
    assert tq.Mbar.generators == ((1,),)
    assert sorted(tq.torsion_elements) == [(0, 0), (0, 1)]
    for g in m.generators:
        v = tq.project(g)
        assert tq.project(tq.section(v)) == v
    m2 = M(ZxZ2, [(2, 1), (3, 0)])
    assert m2.torsion_quotient().Mbar.generators == ((2,), (3,))
    tf = M(Z2, [(1, 0), (1, 2)])
    tq2 = tf.torsion_quotient()
    assert tq2.rank == 2
    # torsion-free monoid: the section inverts the projection on a slice
    for el in tf.slice(6):
        assert len(tq2.project(el)) == 2
        assert tq2.section(tq2.project(el)) == el


def test_project_matches_solve_integer():
    # the stored Smith form gives the same coordinates as a fresh solve
    for m in (M(Z2, [(1, 0), (1, 2)]), M(ZxZ2, [(2, 1), (3, 0), (5, 1)])):
        tq = m.torsion_quotient()
        k = m.ambient.free_rank
        for el in sorted(m.slice(6)):
            assert tq.project(el) == solve_integer(tq._bmat, list(el[:k]))
    with pytest.raises(ValueError):
        M(Z2, [(2, 0), (0, 2)]).torsion_quotient().project((1, 0))


def classes_slice(q, bound):
    """Non-collapsed classes of grading degree <= bound."""
    return sorted(el for el in q.base.slice(bound) if not q.collapsed(el))


def test_quotient_by_ideal():
    n = M(Z2, [(1, 0), (0, 1)])
    q = quotient_by_ideal(n, [(1, 1)])
    assert q.collapsed((2, 3))
    assert not q.collapsed((3, 0))
    assert q.add((1, 0), (0, 1)) == COLLAPSED
    assert q.add((1, 0), (2, 0)) == (3, 0)
    # classes on a slice: axes plus the collapsed class
    cls = classes_slice(q, 4)
    assert all(x == 0 or y == 0 for x, y in cls)
    # empty ideal: plain monoid
    q0 = quotient_by_ideal(n, [])
    assert not q0.has_collapse
    # I = N: singleton
    q1 = quotient_by_ideal(M(Z, [(1,)]), [(0,)])
    assert q1.is_singleton()


def test_quotient_epimorphism_on_slice():
    n = M(Z2, [(1, 0), (0, 1)])
    q = quotient_by_ideal(n, [(1, 1)])
    for x in product(range(4), repeat=2):
        for y in product(range(4), repeat=2):
            lhs = q.add(x, y) if not (q.collapsed(x) or q.collapsed(y)) else COLLAPSED
            s = Z2.add(x, y)
            rhs = COLLAPSED if q.collapsed(s) else s
            if q.collapsed(x) or q.collapsed(y):
                assert rhs == COLLAPSED  # ideal property
            assert lhs == rhs


def test_star_submonoid():
    # max ideal of Z_+
    zp = M(Z, [(1,)])
    s = star_submonoid(zp, [(1,)])
    gens, complete = s.generators_up_to(8)
    assert gens == [(1,)]
    assert complete
    # I = <(1,1)> in Z_+^2 is not finitely generated as I_*
    n = M(Z2, [(1, 0), (0, 1)])
    s2 = star_submonoid(n, [(1, 1)])
    gens2, complete2 = s2.generators_up_to(8)
    assert (1, 1) in gens2 and (1, 2) in gens2 and (2, 1) in gens2
    assert (1, 3) in gens2 and (3, 1) in gens2  # the stream keeps producing
    assert not complete2
    assert s2.contains((2, 3)).is_yes
    assert not s2.contains((3, 0)).is_yes
    assert s2.contains((0, 0)).is_yes
    # empty ideal: {0}
    s3 = star_submonoid(n, [])
    assert not s3.contains((1, 0)).is_yes


def test_smash():
    zp = M(Z, [(1,)])
    trivial = M(AbelianGroupShape(0), [])
    assert smash(zp, trivial).generators == ((1,),)
    z2grp = M(AbelianGroupShape(0, (2,)), [(1,)])
    sm = smash(zp, z2grp)
    assert set(sm.generators) == {(1, 0), (1, 1)}
    assert smash(trivial, z2grp).generators == ()
    # definitional set equality on a box
    box = {
        (a, t)
        for a in range(7)
        for t in range(2)
        if not (a == 0 and t != 0)
    }
    got = {el for el in sm.slice(6)}
    assert got == {x for x in box if x[0] <= 6}
    with pytest.raises(ValueError):
        smash(zp, zp)


def test_minimalize():
    m = minimalize(M(Z, [(2,), (3,), (5,)]))
    assert m.generators == ((2,), (3,))


def test_ideal_contains_examples():
    n = M(Z2, [(1, 0), (0, 1)])
    assert ideal_contains(n, [(1, 1)], (2, 3)).is_yes
    assert not ideal_contains(n, [(1, 1)], (3, 0)).is_yes
    m23 = M(Z, [(2,), (3,)])
    assert ideal_contains(m23, [(2,)], (7,)).is_yes
