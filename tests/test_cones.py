import random
from itertools import product

import pytest

from monoidforge.lattice import AbelianGroupShape, primitive, rank_of
from monoidforge.monoid import CancellativeMonoid, member, smash
from monoidforge.cones import (
    RationalCone,
    _cone_of,
    bar_face_submonoid,
    face_lattice,
    face_locate,
    face_submonoid,
    interior_member,
    is_extremal,
)
from helpers import interior_member_definitional, pointed, vanishing_set

Z = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


def test_face_lattice_z2plus():
    faces = face_lattice(M(Z2, [(1, 0), (0, 1)]))
    assert len(faces) == 4
    assert [f.dim for f in faces] == [0, 1, 1, 2]
    assert faces[0].rays == ()
    assert faces[-1].dim == 2
    # dimension-nondecreasing order and inclusion structure
    assert faces[-1].contains_face(faces[1])
    assert faces[1].contains_face(faces[0])


def test_face_lattice_numerical():
    faces = face_lattice(M(Z, [(2,), (3,)]))
    assert len(faces) == 2
    assert [f.dim for f in faces] == [0, 1]


def test_face_lattice_with_interior_generator():
    faces = face_lattice(M(Z2, [(1, 0), (1, 1), (1, 2)]))
    assert len(faces) == 4
    rays = [f.rays for f in faces if f.dim == 1]
    assert sorted(rays) == [((1, 0),), ((1, 2),)]


def test_face_lattice_torsion_host():
    sm = M(AbelianGroupShape(1, (2,)), [(1, 0), (1, 1)])
    faces = face_lattice(sm)
    assert [f.dim for f in faces] == [0, 1]


def exhaustive_face_oracle(gens, dim):
    """Faces as generator subsets, via the exhaustive covector scan."""
    import math

    m = max(abs(x) for v in gens for x in v)
    box = math.factorial(max(dim - 1, 1)) * m ** max(dim - 1, 1) + 1
    face_sets = {frozenset(range(len(gens)))}  # the full cone
    for cand in product(range(-box, box + 1), repeat=dim):
        if not any(cand):
            continue
        vals = [sum(a * b for a, b in zip(cand, v)) for v in gens]
        if all(x >= 0 for x in vals):
            face_sets.add(frozenset(i for i, x in enumerate(vals) if x == 0))
    return face_sets


def test_face_lattice_matches_oracle():
    rng = random.Random(11)
    for _ in range(12):
        dim = rng.choice([2, 3])
        gens = []
        while rank_of([list(g) for g in gens]) < dim:
            gens = [
                tuple(rng.randint(0, 2) for _ in range(dim))
                for _ in range(dim + rng.randint(0, 1))
            ]
            gens = [g for g in gens if any(g)]
        Mon = M(AbelianGroupShape(dim), gens)
        got = {frozenset(f.gen_indices) for f in face_lattice(Mon)}
        bar = list(Mon.torsion_quotient().Mbar.generators)
        want = exhaustive_face_oracle(bar, dim)
        assert got == want, (gens, got, want)


def subset_search_faces(cone):
    """The faces of a cone by trying every subset of its facets, as
    (index, dim, rays, gen_indices, normal_indices) in face-lattice order."""
    from itertools import combinations

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    gens, normals = cone.bar_gens, cone.normals
    seen = set()
    for size in range(len(normals) + 1):
        for subset in combinations(range(len(normals)), size):
            seen.add(
                tuple(
                    j
                    for j, g in enumerate(gens)
                    if all(dot(normals[i], g) == 0 for i in subset)
                )
            )
    faces = []
    for gi in seen:
        ni = tuple(
            i
            for i in range(len(normals))
            if all(dot(normals[i], gens[j]) == 0 for j in gi)
        )
        dim = rank_of([list(gens[j]) for j in gi])
        rays = tuple(sorted({primitive(gens[j]) for j in gi}))
        faces.append((dim, rays, gi, ni))
    faces.sort(key=lambda t: (t[0], t[1]))
    return [(idx,) + t for idx, t in enumerate(faces)]


def random_cone_monoid(rng):
    """A monoid of rank 2 to 4 with generator entries <= 3, sometimes with a
    torsion host, an interior generator, a repeated ray or a unit."""
    dim = rng.randint(2, 4)
    torsion = rng.choice([(), (), (2,), (3,)])
    amb = AbelianGroupShape(dim, torsion)
    gens = []
    while rank_of([list(g[:dim]) for g in gens]) < dim:
        gens = [
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(dim + rng.randint(0, 3))
        ]
        gens = [g for g in gens if any(g)]
    a, b = rng.sample(gens, 2)
    extra = rng.choice(["interior", "repeat", "unit", None])
    if extra == "interior":
        gens.append(tuple(x + y for x, y in zip(a, b)))
    elif extra == "repeat":
        gens.append(tuple(2 * x for x in a))
    elif extra == "unit":
        gens.append(tuple(-x for x in a))
    gens = [g + tuple(rng.randrange(t) for t in torsion) for g in gens]
    return M(amb, gens)


def test_faces_match_subset_search():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        Mon = random_cone_monoid(rng)
        cone = RationalCone(Mon)
        if len(cone.normals) > 12:
            continue
        got = [
            (f.index, f.dim, f.rays, f.gen_indices, f.normal_indices)
            for f in cone.faces()
        ]
        assert got == subset_search_faces(cone), Mon.generators
        for f in cone.faces():
            for g in cone.faces():
                assert f.contains_face(g) == (set(g.gen_indices) <= set(f.gen_indices))
        checked += 1


@pytest.mark.parametrize(
    "gens, counts",
    [
        ([(1, i, i * i) for i in range(22)], [1, 22, 22, 1]),
        ([(1, i, i * i) for i in range(30)], [1, 30, 30, 1]),
        ([(1, i, i * i, i**3) for i in range(10)], [1, 10, 24, 16, 1]),
    ],
)
def test_face_counts_beyond_subset_search(gens, counts):
    # 22 and 30 facets: 2^#facets subsets would not finish
    dim = len(gens[0])
    faces = face_lattice(M(AbelianGroupShape(dim), gens))
    assert len(faces) == sum(counts)
    assert [sum(1 for f in faces if f.dim == d) for d in range(dim + 1)] == counts


def test_interior_examples():
    z2p = M(Z2, [(1, 0), (0, 1)])
    assert not interior_member(z2p, (1, 0))
    assert interior_member(z2p, (1, 1))
    m23 = M(Z, [(2,), (3,)])
    assert interior_member(m23, (2,))
    assert interior_member_definitional(m23, (2,))
    # sum of all generators is interior
    for Mon in (z2p, m23, M(Z2, [(1, 0), (1, 2)])):
        s = Mon.ambient.zero()
        for g in Mon.generators:
            s = Mon.ambient.add(s, g)
        assert interior_member(Mon, s)
    with pytest.raises(ValueError):
        interior_member(z2p, (-1, 0))


def test_interior_matches_definitional():
    rng = random.Random(5)
    for _ in range(8):
        gens = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        if rank_of([list(g) for g in gens]) == 0:
            continue
        Mon = M(Z2, gens)
        for el in sorted(Mon.slice(6)):
            assert interior_member(Mon, el) == interior_member_definitional(Mon, el), (
                gens,
                el,
            )


def test_face_locate():
    z2p = M(Z2, [(1, 0), (0, 1)])
    faces = face_lattice(z2p)
    assert face_locate(z2p, (0, 0)).index == 0
    f = face_locate(z2p, (3, 0))
    assert f.dim == 1 and f.rays == ((1, 0),)
    assert face_locate(z2p, (2, 5)).dim == 2


def test_face_locate_partition():
    rng = random.Random(13)
    for _ in range(6):
        gens = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        Mon = M(Z2, gens)
        faces = face_lattice(Mon)
        cone = _cone_of(Mon)
        for el in sorted(Mon.slice(8)):
            f = face_locate(Mon, el)
            # the located face is the one cut out by exactly the facets
            # vanishing at the projection, and no other face has that set
            vanish = vanishing_set(cone, cone.tq.project(el))
            assert vanish == f.normal_indices, (gens, el)
            assert [g.index for g in faces if g.normal_indices == vanish] == [f.index]


def test_is_extremal_examples():
    z2p = M(Z2, [(1, 0), (0, 1)])
    ok, wit, _ = is_extremal(z2p, z2p.generators)
    assert ok and wit == ("functional", (0, 0))
    ok, wit, _ = is_extremal(z2p, [(0, 1)])
    assert ok
    kind, w = wit
    assert w[0] > 0 and w[1] == 0
    ok, wit, pair = is_extremal(z2p, [(1, 1)])
    assert not ok
    assert pair is not None
    a, b = pair
    s = Z2.add(a, b)
    assert member(M(Z2, [(1, 1)]), s).is_yes
    assert not member(M(Z2, [(1, 1)]), a).is_yes


def test_is_extremal_torsion():
    sm = smash(M(Z, [(1,)]), M(AbelianGroupShape(0, (2,)), [(1,)]))
    # {0} is extremal in positive monoids
    ok, wit, _ = is_extremal(sm, [])
    assert ok
    # full monoid extremal
    ok, _, _ = is_extremal(sm, sm.generators)
    assert ok
    # the pure (k,0) part misses (1,1) whose double lands inside: not extremal
    ok, _, pair = is_extremal(sm, [(1, 0)])
    assert not ok


def test_face_submonoids():
    z2p = M(Z2, [(1, 0), (1, 1), (1, 2)])
    faces = face_lattice(z2p)
    edge = [f for f in faces if f.dim == 1][0]
    sub = face_submonoid(z2p, edge)
    bar = bar_face_submonoid(z2p, edge)
    assert len(sub.generators) == 1
    assert len(bar.generators) == 1
    # extremality of every face piece
    for f in faces:
        ok, _, _ = is_extremal(z2p, face_submonoid(z2p, f).generators)
        assert ok


def test_face_dims_match_rank_of():
    # faces() reads each dimension off the face lattice; the rank of the
    # generators on the face is the oracle
    cones = [[(1, i, i * i) for i in range(n)] for n in range(3, 12)]
    cones += [[(1, i, i * i, i**3) for i in range(n)] for n in range(4, 9)]
    rng = random.Random(1516)
    while len(cones) < 14 + 300:
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 3))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            cones.append(gens)
    n_pointed = 0
    for gens in cones:
        Mon = M(AbelianGroupShape(len(gens[0])), gens)
        cone = RationalCone(Mon)
        n_pointed += pointed(cone)
        for f in cone.faces():
            assert f.dim == rank_of([list(cone.bar_gens[j]) for j in f.gen_indices]), (
                gens,
                f,
            )
    assert 50 < n_pointed < len(cones) - 50, n_pointed
