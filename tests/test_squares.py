import pytest

from monoidforge.algebra import AlgebraElement
from monoidforge.rings import GF, QQ, ZZ, IntegerModRing
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid
from monoidforge.squares import (
    _Coordinates,
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
from helpers import (
    build_prime_intersection_from_radical,
    verify_leg_surjective,
    verify_split_section,
)

Z = AbelianGroupShape(1)
Z2 = AbelianGroupShape(2)


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


M23 = None
Z2P = None


def setup_module():
    global M23, Z2P
    M23 = M(Z, [(2,), (3,)])
    Z2P = M(Z2, [(1, 0), (0, 1)])


def test_seminormal_step_cusp():
    for R in (GF(2), GF(5), QQ, ZZ):
        sq = build_seminormal_step(M23, (1,), R)
        rep = verify_cartesian(sq, degree_bound=8)
        assert rep.ok, rep.note
        ok, _ = verify_leg_surjective(sq, "right", 6)
        assert ok
    with pytest.raises(ValueError):
        build_seminormal_step(M(Z2, [(1, 0), (1, 2)]), (1, 1), GF(2))


def test_seminormal_step_4567():
    sq = build_seminormal_step(M(Z, [(4,), (5,), (6,), (7,)]), (2,), GF(2))
    assert verify_cartesian(sq, degree_bound=10).ok


def test_reduced_iso():
    for q in (2, 5):
        sq = build_seminormal_step(M23, (1,), GF(q))
        rep = verify_reduced_iso(sq, degree_bound=8)
        assert rep.ok
        # reduced classes: only the constants survive at low degrees
        assert rep.per_degree[0]["reduced_classes"] == 1
    sq = build_seminormal_step(M(Z, [(4,), (5,), (6,), (7,)]), (2,), GF(3))
    assert verify_reduced_iso(sq, degree_bound=8).ok


def test_positive_split_degenerate_and_mixed():
    # trivial units: the square degenerates but stays Cartesian
    sq = build_positive_split(Z2P, GF(2))
    assert verify_cartesian(sq, degree_bound=5).ok
    # M = Z: N_* = {0}
    zfull = M(Z, [(1,), (-1,)])
    sq2 = build_positive_split(zfull, GF(3))
    assert verify_cartesian(sq2, degree_bound=4).ok
    assert verify_split_section(sq2, 4)[0]
    # M = Z x Z_+
    mixed = M(Z2, [(1, 0), (-1, 0), (0, 1)])
    sq3 = build_positive_split(mixed, GF(2))
    assert verify_cartesian(sq3, degree_bound=4).ok
    assert verify_split_section(sq3, 4)[0]
    assert set(map(tuple, sq3.description["unit_generators"])) == {(1, 0), (-1, 0)}


def test_pc_square():
    sq = build_pc(Z2P, [(1, 1)], GF(2))
    assert verify_cartesian(sq, degree_bound=8).ok
    ok, _ = verify_leg_surjective(sq, "right", 6)
    assert ok
    # empty ideal degenerates
    sq0 = build_pc(Z2P, [], GF(3))
    assert verify_cartesian(sq0, degree_bound=5).ok
    # I = N: bottom-right is R via the singleton monoid
    sq1 = build_pc(M(Z, [(1,)]), [(0,)], GF(2))
    assert verify_cartesian(sq1, degree_bound=5).ok
    assert sq1.corner("B2").algebra.keys_upto(4) == [(0,)]


def test_face_filtration_squares():
    for k in (1, 2, 3, 4):
        sq, cert = build_face_filtration(Z2P, k, GF(2), kernel_bound=8)
        assert verify_cartesian(sq, degree_bound=8).ok, k
        assert cert[-1]["degree"] == 8
    # at k = r + 1 = 4 the kernel is the full interior {(a,b): a,b >= 1}
    sq, cert = build_face_filtration(Z2P, 4, GF(3), kernel_bound=6)
    piece = sq.corner("A1").algebra
    keys = [k for k in piece.keys_upto(4) if any(k)]
    assert keys and all(a >= 1 and b >= 1 for a, b in keys)
    # at k = 2 the kernel is the first ray piece (lex order: ray (0,1))
    sq2, _ = build_face_filtration(Z2P, 2, GF(3), kernel_bound=6)
    keys2 = [k for k in sq2.corner("A1").algebra.keys_upto(4) if any(k)]
    assert keys2 and all(a == 0 and b >= 1 for a, b in keys2)


def test_face_filtration_torsion():
    from monoidforge.monoid import smash

    sm = smash(M(Z, [(1,)]), M(AbelianGroupShape(0, (2,)), [(1,)]))
    sq, cert = build_face_filtration(sm, 2, GF(2), kernel_bound=6)
    assert verify_cartesian(sq, degree_bound=6).ok
    # the kernel at level 2 carries the torsion factor
    piece = sq.corner("A1").algebra
    assert (1, 0) in piece.keys_upto(3) and (1, 1) in piece.keys_upto(3)


def test_prime_intersection_square():
    sq = build_prime_intersection(Z2P, [(1, 0)], [(0, 1)], GF(2))
    assert verify_cartesian(sq, degree_bound=8).ok
    for leg in ("right", "bottom"):
        ok, _ = verify_leg_surjective(sq, leg, 6)
        assert ok
    # degenerate p = q
    sqd = build_prime_intersection(Z2P, [(1, 0)], [(1, 0)], GF(3))
    assert verify_cartesian(sqd, degree_bound=5).ok
    with pytest.raises(ValueError):
        build_prime_intersection(Z2P, [(1, 1)], [(0, 1)], GF(2))


def test_prime_intersection_from_radical():
    sq = build_prime_intersection_from_radical(Z2P, [(1, 1)], GF(2))
    assert verify_cartesian(sq, degree_bound=6).ok
    # a monoid with a unique proper prime cannot split
    with pytest.raises(ValueError):
        build_prime_intersection_from_radical(M23, [(2,), (3,)], GF(2))


def test_torsion_splitting_pair():
    zp = M(Z, [(1,)])
    sq1, sq2 = build_torsion_splitting(zp, [2], GF(2))
    rep1 = verify_cartesian(sq1, degree_bound=8)
    assert rep1.ok, rep1.note
    rep2 = verify_cartesian(sq2, degree_bound=8)
    assert rep2.ok, rep2.note
    ok, _ = verify_leg_surjective(sq1, "bottom", 5, slack=1)
    assert ok
    # B corner basis at degree 3 over F2: 1, t^2, t^3 - t
    bb = sq2.corner("B2").basis_upto(3)
    reprs = sorted(repr(e) for e in bb)
    assert len(bb) == 3


def test_torsion_splitting_n3_and_rank2():
    sq1, sq2 = build_torsion_splitting(M(Z, [(1,)]), [3], GF(3))
    assert verify_cartesian(sq1, degree_bound=7).ok
    assert verify_cartesian(sq2, degree_bound=7).ok
    sq1, sq2 = build_torsion_splitting(Z2P, [3], GF(2))
    assert verify_cartesian(sq1, degree_bound=5).ok
    assert verify_cartesian(sq2, degree_bound=5).ok
    # degenerate L = 0
    sq1, sq2 = build_torsion_splitting(M(Z, []), [2], GF(2))
    assert verify_cartesian(sq1, degree_bound=5).ok
    assert verify_cartesian(sq2, degree_bound=5).ok


def test_torsion_splitting_two_factors():
    zp = M(Z, [(1,)])
    for n_list, q in ([[2, 2], 2], [[2, 3], 3]):
        s1, s2 = build_torsion_splitting(zp, n_list, GF(q))
        assert verify_cartesian(s1, degree_bound=5).ok, n_list
        assert verify_cartesian(s2, degree_bound=5).ok, n_list


def test_torsion_splitting_preconditions():
    with pytest.raises(ValueError):
        build_torsion_splitting(M(Z, [(1,), (-1,)]), [2], GF(2))
    with pytest.raises(ValueError):
        build_torsion_splitting(M23, [2], GF(2))  # not normal


def test_negative_control():
    sq = build_pc(Z2P, [(1, 1)], GF(2))
    bad = corrupt_square(sq)
    rep = verify_cartesian(bad, degree_bound=6)
    assert not rep.ok
    assert rep.witness is not None or rep.note


def test_infinite_ring_paths():
    sq = build_pc(Z2P, [(1, 1)], ZZ)
    rep = verify_cartesian(sq, degree_bound=6)
    assert rep.ok and rep.per_degree[-1].get("lattice_rank") is not None
    sq2 = build_pc(Z2P, [(1, 1)], QQ)
    assert verify_cartesian(sq2, degree_bound=6).ok
    sq3 = build_pc(Z2P, [(1, 1)], IntegerModRing(6))
    rep3 = verify_cartesian(sq3, degree_bound=5)
    assert rep3.ok and rep3.per_degree[-1].get("universal")


def test_elementwise_counts_reported():
    sq = build_seminormal_step(M23, (1,), GF(2))
    rep = verify_cartesian(sq, degree_bound=6, elementwise_budget=4096)
    assert any("elementwise" in e for e in rep.per_degree)


def test_integer_coordinates_of_single_monomials():
    """Over Z a single-monomial basis element b*x spans the multiples of b*x:
    the walk's coordinates divide exactly when b | c and reject the target
    otherwise, as the solve does once a binomial joins the basis."""

    def el(coeffs):
        return AlgebraElement(None, coeffs)

    x, y = (1, 0), (0, 1)
    two_x, three_x = el({x: 2}), el({x: 3})
    co = _Coordinates(ZZ)
    assert co.add(0, two_x)
    assert co.express(two_x) == {0: 1}
    assert co.express(el({x: -6})) == {0: -3}
    assert co.express(three_x) is None
    # a binomial turns the lookup into a solve over Q with integral answers
    binomial = el({x: 1, y: 1})
    assert co.add(1, binomial)
    assert co.express(two_x) == {0: 1}
    assert co.express(three_x) is None
    # Z/6 is neither a field nor Z: its lookup still rejects, and a span
    # basis that needs a solve is refused
    co6 = _Coordinates(IntegerModRing(6))
    assert co6.add(0, el({x: 2}))
    assert co6.express(el({x: 4})) is None
    with pytest.raises(ValueError, match="span corners over Z/6 are not supported"):
        co6.add(1, binomial)


def test_listed_keys_skip_the_membership_check(monkeypatch):
    # keys listed by keys_upto become monomials without a second member
    # call; the same walk with every monomial checked gives the same reports
    from monoidforge import monoid
    from monoidforge.acceptance import _six_square_instances
    from monoidforge.algebra import CancellativeAlgebra, MonoidAlgebraBase

    real = monoid._graded_member
    calls = []
    monkeypatch.setattr(monoid, "_graded_member", lambda M, a: calls.append(a) or real(M, a))

    def walk():
        calls.clear()
        reports = [
            verify_cartesian(sq, degree_bound=10).to_json() for _, sq in _six_square_instances(2)
        ]
        return reports, len(calls)

    listed, listed_calls = walk()

    def checked(self, key, coeff=1):
        if not self.contains_key(key):
            raise ValueError(key)
        return self.elem([(key, coeff)])

    monkeypatch.setattr(MonoidAlgebraBase, "_listed_monomial", checked)
    rechecked, rechecked_calls = walk()
    assert listed == rechecked
    assert listed_calls < rechecked_calls, (listed_calls, rechecked_calls)
    with pytest.raises(ValueError):
        CancellativeAlgebra(M23, GF(2)).monomial((1,))
