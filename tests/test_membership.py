"""Exact membership on monoids with units, against independent oracles.

The oracles never call the membership engine: sums of generators with small
coefficients are enumerated directly, and unit generators are recognised by
Fourier-Motzkin feasibility of -g in the rational cone of the free parts
(g is a unit exactly when -g lies in that cone).
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from monoidforge.lattice import AbelianGroupShape, nonneg_rational_feasible, nonneg_solve
from monoidforge.monoid import CancellativeMonoid, member, smash, units_submonoid

COEFF_CAP = 3


def combine(coeffs, gens, amb):
    acc = amb.zero()
    for c, g in zip(coeffs, gens):
        assert c >= 0
        acc = amb.add(acc, amb.scale(c, g))
    return acc


def small_sums(M, cap=COEFF_CAP):
    """Every sum of the generators with coefficients <= cap."""
    amb = M.ambient
    sums = {amb.zero()}
    for g in M.generators:
        multiples = [amb.scale(c, g) for c in range(cap + 1)]
        sums = {amb.add(x, m) for x in sums for m in multiples}
    return sums


def rational_unit_oracle(M, g):
    r = M.ambient.free_rank
    frees = [h[:r] for h in M.generators]
    return nonneg_rational_feasible(frees, [-x for x in g[:r]])


def check_yes(M, x):
    res = member(M, x)
    assert res.is_yes, (M, x, res)
    assert combine(res.witness, M.generators, M.ambient) == M.ambient.reduce(x)


def check_monoid(M, targets):
    amb = M.ambient
    sums = small_sums(M)
    for x in sums:
        check_yes(M, x)
    r = amb.free_rank
    for x in targets:
        res = member(M, x)
        if res.is_yes:
            assert combine(res.witness, M.generators, amb) == amb.reduce(x)
        else:
            assert amb.reduce(x) not in sums
        if nonneg_rational_feasible([g[:r] for g in M.generators], list(x[:r])) is False:
            assert not res.is_yes
    units = set(units_submonoid(M))
    for g in M.generators:
        neg = member(M, amb.neg(g))
        assert (g in units) == neg.is_yes
        assert (g in units) == rational_unit_oracle(M, g)
        if neg.is_yes:
            assert combine(neg.witness, M.generators, amb) == amb.neg(g)


def vec(r, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * r)


@st.composite
def torsion_monoids(draw):
    """smash(L, Z/d) for a positive L and d in {2, 3}, its torsion made units."""
    r = draw(st.integers(1, 2))
    gens = draw(st.lists(vec(r, 0, 2).filter(any), min_size=1, max_size=3))
    L = CancellativeMonoid(AbelianGroupShape(r), gens)
    d = draw(st.sampled_from([2, 3]))
    S = smash(L, CancellativeMonoid(AbelianGroupShape(0, (d,)), [(1,)]))
    return CancellativeMonoid(S.ambient, list(S.generators) + [(0,) * r + (1,)])


@st.composite
def mixed_unit_monoids(draw):
    """Random generators in Z^2 or Z^3 plus a pair +-v of units."""
    r = draw(st.integers(2, 3))
    gens = draw(st.lists(vec(r, -1, 2), min_size=1, max_size=3))
    v = draw(vec(r, -2, 2).filter(any))
    return CancellativeMonoid(AbelianGroupShape(r), gens + [v, tuple(-x for x in v)])


@settings(max_examples=25, deadline=None)
@given(torsion_monoids(), st.data())
def test_torsion_units_against_oracles(M, data):
    r = M.ambient.free_rank
    targets = data.draw(st.lists(vec(r + 1, -3, 4), max_size=12))
    check_monoid(M, [M.ambient.reduce(x) for x in targets])


@settings(max_examples=25, deadline=None)
@given(mixed_unit_monoids(), st.data())
def test_mixed_units_against_oracles(M, data):
    r = M.ambient.free_rank
    targets = data.draw(st.lists(vec(r, -3, 3), max_size=12))
    check_monoid(M, targets)


def test_mixed_unit_examples():
    Z2 = AbelianGroupShape(2)
    mixed = CancellativeMonoid(Z2, [(1, 0), (-1, 0), (0, 1)])
    check_monoid(mixed, list(product(range(-3, 4), repeat=2)))
    for x in product(range(-3, 4), repeat=2):
        assert member(mixed, x).is_yes == (x[1] >= 0)
    # units (1, 0, 1) and (-1, 0, 1) in Z^2 x Z/2: their group misses (1, 0, 0)
    ZxZ2 = AbelianGroupShape(2, (2,))
    tors = CancellativeMonoid(ZxZ2, [(1, 0, 1), (-1, 0, 1), (0, 1, 0)])
    assert set(units_submonoid(tors)) == {(1, 0, 1), (-1, 0, 1)}
    assert member(tors, (0, 0, 0)).is_yes
    assert member(tors, (2, 3, 0)).is_yes
    assert not member(tors, (1, 3, 0)).is_yes
    check_monoid(tors, [(a, b, t) for a in range(-2, 3) for b in range(3) for t in range(2)])
    # the whole group as a monoid: every element, with a verified witness
    full = CancellativeMonoid(AbelianGroupShape(1), [(2,), (-3,)])
    for x in range(-6, 7):
        check_yes(full, (x,))
    assert nonneg_solve((1,), [(-3,), (2,), (2,)], AbelianGroupShape(1)).is_witness


# The membership calls that exhausted the old kernel-box search (recorded in
# the units-session benchmark pool as "probe00" to "probe03"); every one is
# an exact "no".
PROBES = [
    (AbelianGroupShape(2, (2,)),
     [(0, 0, 1), (1, 1, 0), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1)],
     (1, 0, 0)),
    (AbelianGroupShape(3),
     [(-1, -1, 1), (0, -1, 2), (1, 1, -1), (1, 1, 2), (2, 0, 1), (2, 2, 1)],
     (0, 0, 1)),
    (AbelianGroupShape(3),
     [(-1, -1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 1, 0), (2, 0, 1)],
     (0, -1, 1)),
    (AbelianGroupShape(3),
     [(-1, 1, 0), (0, 1, 1), (0, 1, 2), (1, -1, 0), (1, 2, 0), (2, 0, 1)],
     (0, 1, 0)),
]


def test_recorded_probes_are_decided():
    for amb, gens, x in PROBES:
        M = CancellativeMonoid(amb, gens)
        assert member(M, x).status == "no", (gens, x)
        assert x not in small_sums(M, 2)
        assert nonneg_solve(x, gens, amb).status == "no"
