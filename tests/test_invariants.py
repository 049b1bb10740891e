"""Cross-module structural invariants: the exact-sequence shadow of the face
filtration, the interior identity for seminormal face pieces, face-type
classification of primes, and quotient-map behavior on squares."""

import random
from itertools import combinations

import pytest

from monoidforge.rings import GF
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, member, smash
from monoidforge.cones import bar_face_submonoid, face_lattice, interior_member
from monoidforge.closure import normalize_in_gp, seminormalize
from monoidforge.ideals import MonoidIdeal, is_prime
from monoidforge.squares import (
    build_face_filtration,
    build_pc,
    build_positive_split,
    build_seminormal_step,
    quotient_map_apply,
)
from helpers import vanishing_set, verify_leg_surjective

Z1 = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


def test_mon_exact_sequence():
    """0 -> R[I_{k-1}/I_k] -> R[M/I_k] -> R[M/I_{k-1}] -> 0 on graded pieces:
    the kernel of the second map has exactly the first module's monomial
    basis, and the second map hits every target monomial."""
    m = M(Z2, [(1, 0), (0, 1)])
    for k in (1, 2, 3, 4):
        sq, cert = build_face_filtration(m, k, GF(2), kernel_bound=8)
        piece = sq.corner("A1").algebra
        Ak = sq.corner("A2").algebra
        Akm1 = sq.corner("B2").algebra
        right = sq.maps["right"]
        for d in range(9):
            kernel_keys = {
                key for key in Ak.keys_upto(d) if right(Ak.monomial(key)).is_zero()
            }
            piece_keys = {key for key in piece.keys_upto(d) if any(key)}
            assert kernel_keys == piece_keys, (k, d)
            hit = {
                key
                for src in Ak.keys_upto(d)
                for key in right(Ak.monomial(src)).coeffs
            }
            assert hit >= set(Akm1.keys_upto(d)), (k, d)


def test_interior_identity_for_seminormal_pieces():
    """Int(n(Mbar cap F)) = Int(Mbar cap F) for seminormal M, on slices."""
    rng = random.Random(77)
    done = 0
    while done < 8:
        gens = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        m = seminormalize(M(Z2, gens)).monoid
        for f in face_lattice(m):
            NF = bar_face_submonoid(m, f)
            nNF = normalize_in_gp(NF).monoid
            if not nNF.generators:
                continue
            for v in sorted(nNF.slice(8)):
                in_closed = interior_member(nNF, v)
                if member(NF, v).is_yes:
                    assert in_closed == interior_member(NF, v), (gens, f.index, v)
                elif in_closed:
                    # an interior point of the normalization that is missing
                    # from the face monoid would break the identity
                    raise AssertionError((gens, f.index, v))
        done += 1


def enumerate_small_ideals(host, bound, max_gens=2):
    pool = [x for x in sorted(host.slice(bound)) if any(x)]
    for r in range(1, max_gens + 1):
        for gens in combinations(pool, r):
            yield MonoidIdeal(host, list(gens))


def test_primes_are_face_complements():
    """Every prime of a small cancellative monoid arises as the complement of
    a face submonoid: definitional primality scan agrees with the face test
    over an exhaustive family of small ideals."""
    host = M(Z2, [(1, 0), (0, 1)])
    faces = face_lattice(host)
    face_complement_gen_sets = set()
    for f in faces:
        comp = {g for g in host.generators}
        keep = {
            g
            for g in host.generators
            if not set(_vanish(host, g)) >= set(f.normal_indices)
        }
        face_complement_gen_sets.add(frozenset(keep))
    for I in enumerate_small_ideals(host, 2):
        if not I.is_proper():
            continue
        got = is_prime(I)
        want = _definitional_prime(I, 5)
        assert got == want, I
        if got:
            outside = frozenset(
                g for g in host.generators if not I.member(g).is_yes
            )
            assert outside in face_complement_gen_sets


def _vanish(host, g):
    from monoidforge.cones import _cone_of

    cone = _cone_of(host)
    return vanishing_set(cone, cone.tq.project(g))


def _definitional_prime(I, bound):
    host = I.host
    for x in host.slice(bound):
        for y in host.slice(bound):
            s = host.ambient.add(x, y)
            if I.member(s).is_yes and not (I.member(x).is_yes or I.member(y).is_yes):
                return False
    return True


def test_mbar_prop_4_on_boxes():
    """If Int(N) meets Mbar cap F, then N lies inside Mbar cap F (random
    submonoids, bounded boxes)."""
    rng = random.Random(99)
    m = M(Z2, [(1, 0), (0, 1), (1, 1)])
    faces = face_lattice(m)
    for _ in range(20):
        gens = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        N = M(Z2, gens)
        for f in faces:
            NF = bar_face_submonoid(m, f)
            hit = False
            for v in sorted(N.slice(6)):
                if any(v) and interior_member(N, v) and member(NF, v).is_yes:
                    hit = True
                    break
            if hit:
                for v in sorted(N.slice(6)):
                    assert member(NF, v).is_yes, (gens, f.index, v)


def test_quotient_map_apply_examples():
    # augmentation k[M] -> k kills positive monomials
    m23 = M(Z1, [(2,), (3,)])
    sq = build_pc(m23, [(2,), (3,)], GF(2))
    A2 = sq.corner("A2").algebra
    img = quotient_map_apply(sq, "right", A2.monomial((2,)))
    assert img.is_zero()
    img0 = quotient_map_apply(sq, "right", A2.one())
    assert not img0.is_zero()
    # k[N] -> k[N/I] collapses I-supported terms
    z2p = M(Z2, [(1, 0), (0, 1)])
    sq2 = build_pc(z2p, [(1, 1)], GF(3))
    A2 = sq2.corner("A2").algebra
    u = A2.monomial((1, 1)) + A2.monomial((2, 0))
    img = quotient_map_apply(sq2, "right", u)
    assert img.support() == [(2, 0)]
    # seminormal-step inclusion preserves supports
    sq3 = build_seminormal_step(m23, (1,), GF(2))
    A = sq3.corner("A1").algebra
    u = A.monomial((2,)) + A.monomial((3,))
    assert quotient_map_apply(sq3, "top", u).support() == [(2,), (3,)]
    with pytest.raises(ValueError):
        quotient_map_apply(sq3, "sideways", u)


def test_surjective_leg_declarations():
    z2p = M(Z2, [(1, 0), (0, 1)])
    sq = build_pc(z2p, [(1, 1)], GF(2))
    for leg in sq.surjective_legs:
        ok, _ = verify_leg_surjective(sq, leg, 6)
        assert ok
    sq2 = build_positive_split(M(Z1, [(1,), (-1,)]), GF(2))
    for leg in sq2.surjective_legs:
        ok, _ = verify_leg_surjective(sq2, leg, 5)
        assert ok
