"""One holder of ideal generators, and gp(M) membership from the torsion
quotient.

`MonoidIdeal` holds the generators of I behind N/I (`PcMonoid`), I_*
(`StarSubmonoid`) and the pc square.  `ParentPcMonoid`,
`ParentStarSubmonoid` and `parent_validate_ideal` are the former classes
that held their own generators, kept word for word but for their names as
oracles.  `parent_element_in_subgroup` is the former
`lattice.element_in_subgroup`, word for word but for its name, which ran
one Smith form per call; it is the oracle of `CancellativeMonoid.in_gp`,
which now reads the splitting of the torsion quotient.
"""

import json
import random
from itertools import product

import pytest

from helpers import run_fresh
from monoidforge.lattice import AbelianGroupShape, _congruence_matrix, solve_integer
from monoidforge.monoid import (
    COLLAPSED,
    CancellativeMonoid,
    Membership,
    PcMonoid,
    StarSubmonoid,
    ideal_contains,
    member,
    minimalize,
)
from monoidforge.rings import GF
from monoidforge.squares import build_seminormal_step


# ---------------------------------------------------------------------------
# oracles: the parent's holders of ideal generators


def parent_validate_ideal(host, ideal_gens):
    for g in ideal_gens:
        res = member(host, g)
        if not res.is_yes:
            raise ValueError(f"ideal generator {g} is not an element of the host monoid")


class ParentPcMonoid:
    """Quotient N/I of a cancellative monoid by a finitely generated ideal.

    Elements are base elements outside I, plus the single collapsed class
    (present iff I is nonempty).  Addition lands on the class as soon as the
    base sum falls into I.
    """

    def __init__(self, base, collapse_gens=()):
        parent_validate_ideal(base, collapse_gens)
        self.base = base
        self.collapse_gens = tuple(sorted({base.ambient.reduce(g) for g in collapse_gens}))

    @property
    def has_collapse(self):
        return bool(self.collapse_gens)

    def is_singleton(self):
        """Whether I = N, i.e. the quotient is the constant singleton monoid."""
        return self.has_collapse and ideal_contains(self.base, self.collapse_gens, self.base.zero()).is_yes

    def collapsed(self, x):
        if not self.has_collapse:
            return False
        return ideal_contains(self.base, self.collapse_gens, x).is_yes

    def member(self, x):
        """Membership of an ambient element as a non-collapsed class."""
        res = member(self.base, x)
        if not res.is_yes:
            return res
        if self.collapsed(x):
            return Membership("no", note="element collapsed to the basepoint class")
        return res

    def add(self, x, y):
        """Addition of classes; returns COLLAPSED when the sum lands in I."""
        if x == COLLAPSED or y == COLLAPSED:
            return COLLAPSED
        s = self.base.ambient.add(x, y)
        return COLLAPSED if self.collapsed(s) else s

    def __eq__(self, other):
        return (
            isinstance(other, ParentPcMonoid)
            and self.base == other.base
            and self.collapse_gens == other.collapse_gens
        )

    def __hash__(self):
        return hash((self.base, self.collapse_gens))

    def __repr__(self):
        return f"PcMonoid({self.base!r}, collapse={list(self.collapse_gens)})"


class ParentStarSubmonoid:
    """I_* = I cup {0} as a submonoid of the host.

    Not finitely generated in general; exposes exact membership, graded
    slices, and minimal generators up to a degree bound with an honest
    completeness flag.
    """

    def __init__(self, host, ideal_gens):
        parent_validate_ideal(host, ideal_gens)
        self.host = host
        self.ideal_gens = tuple(sorted({host.ambient.reduce(g) for g in ideal_gens}))

    def contains(self, x):
        x = self.host.ambient.reduce(x)
        if x == self.host.ambient.zero():
            return Membership("yes", ())
        return ideal_contains(self.host, self.ideal_gens, x)

    def slice_elements(self, bound):
        """Ideal elements of grading degree <= bound (0 excluded)."""
        return sorted(
            el
            for el in self.host.slice(bound)
            if any(el) and ideal_contains(self.host, self.ideal_gens, el).is_yes
        )

    def generators_up_to(self, bound):
        """Minimal monoid generators of I_* with degree <= bound.

        Returns (generators, complete): x is kept iff x in I \\ (I + I); the
        flag is False when a minimal element appears in the top degree band,
        i.e. the stream has not visibly stabilized within the bound.
        """
        elems = self.slice_elements(bound)
        eset = set(elems)
        amb = self.host.ambient
        mins = []
        for x in elems:
            reducible = False
            for g in self.ideal_gens:
                for h in self.ideal_gens:
                    rest = amb.sub(amb.sub(x, g), h)
                    if member(self.host, rest).is_yes:
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                mins.append(x)
        band = max((self.host.degree(g) for g in self.host.generators), default=1)
        complete = all(self.host.degree(x) <= bound - band for x in mins)
        return mins, complete


def parent_element_in_subgroup(target, generators, ambient):
    """Integer coefficients c with sum c_i g_i = target in the ambient group,
    or None if target is outside the generated subgroup."""
    if not generators:
        return () if tuple(target) == ambient.zero() else None
    m, s = _congruence_matrix(generators, ambient)
    sol = solve_integer(m, list(target))
    if sol is None:
        return None
    return tuple(sol[:s])


# ---------------------------------------------------------------------------
# N/I and I_* against the parent's holders


def _hosts():
    """Positive hosts, torsion hosts and hosts with units, a few seeded."""
    Z, Z2 = AbelianGroupShape(1), AbelianGroupShape(2)
    ZxZ2, ZxZ3 = AbelianGroupShape(1, (2,)), AbelianGroupShape(1, (3,))
    hosts = [
        CancellativeMonoid(Z2, [(1, 0), (0, 1)]),
        CancellativeMonoid(Z, [(2,), (3,)]),
        CancellativeMonoid(Z2, [(1, 0), (1, 1), (1, 2)]),
        CancellativeMonoid(ZxZ2, [(1, 0), (1, 1)]),
        CancellativeMonoid(ZxZ3, [(1, 1), (2, 0)]),
        CancellativeMonoid(ZxZ2, [(1, 0), (0, 1)]),
        CancellativeMonoid(Z2, [(1, 0), (-1, 0), (0, 1)]),
        CancellativeMonoid(Z, [(1,), (-1,)]),
    ]
    rng = random.Random(1901)
    while len(hosts) < 14:
        gens = sorted({(rng.randint(-1, 2), rng.randint(0, 2)) for _ in range(3)} - {(0, 0)})
        if gens:
            hosts.append(CancellativeMonoid(Z2, gens))
    return hosts


def _ideals(N):
    """The empty ideal, proper ones (when N is not a group) and I = N."""
    amb = N.ambient
    units = set(N.unit_generators())
    plain = [g for g in N.generators if g not in units] or N.generators
    g0, g1 = plain[0], plain[-1]
    big = amb.add(g0, g1)
    return [[], [big], [amb.scale(2, g1), big, g0], [amb.zero()], [g1, amb.zero()]]


def _box(amb, radius=2):
    ranges = [range(-radius, radius + 1)] * amb.free_rank + [range(n) for n in amb.torsion]
    return list(product(*ranges))


def _outside(N):
    """An element of the ambient that is not in N, or None when N is the
    whole group."""
    return next((x for x in _box(N.ambient, 3) if not member(N, x).is_yes), None)


def test_ideal_holders_match_the_parent_holders():
    kinds, refused = set(), 0
    for N in _hosts():
        positive = N.grading() is not None
        box = _box(N.ambient)
        for gens in _ideals(N):
            old, new = ParentPcMonoid(N, gens), PcMonoid(N, gens)
            assert new.collapse_gens == old.collapse_gens == new.ideal.generators
            assert new.has_collapse == old.has_collapse
            assert new.is_singleton() == old.is_singleton()
            assert repr(new) == repr(old)
            for x in box:
                assert new.collapsed(x) == old.collapsed(x), (N, gens, x)
                assert new.member(x) == old.member(x), (N, gens, x)
            for x in box[:12] + [COLLAPSED]:
                for y in box[:12] + [COLLAPSED]:
                    assert new.add(x, y) == old.add(x, y), (N, gens, x, y)
            old_s, new_s = ParentStarSubmonoid(N, gens), StarSubmonoid(N, gens)
            assert new_s.ideal_gens == old_s.ideal_gens == new_s.ideal.generators
            for x in box:
                assert new_s.contains(x) == old_s.contains(x), (N, gens, x)
            if positive:
                band = max(N.degree(g) for g in N.generators)
                ideal_degrees = [N.degree(g) for g in new_s.ideal.minimal_generators()]
                for bound in (0, 3, 6):
                    assert new_s.slice_elements(bound) == old_s.slice_elements(bound)
                    new_gens, new_flag = new_s.generators_up_to(bound)
                    old_gens, old_flag = old_s.generators_up_to(bound)
                    if not new_s.ideal.is_proper():
                        # I = N makes I_* = N, generated by its irreducibles,
                        # where the parent listed none and called that complete
                        assert old_gens == [] and old_flag
                        old_gens = [g for g in minimalize(N).generators if N.degree(g) <= bound]
                        old_flag = all(N.degree(g) <= bound - band for g in old_gens)
                    assert new_gens == old_gens
                    # the parent's flag also claimed a list complete that
                    # missed a minimal generator of I above the top band
                    assert new_flag == (old_flag and all(d <= bound - band for d in ideal_degrees))
            kinds.add((
                "positive" if positive else "units",
                bool(N.ambient.torsion),
                "empty" if not gens else "full" if old.is_singleton() else "proper",
            ))
        bad = _outside(N)
        if bad is None:
            continue
        refused += 1
        for holder, oracle in ((PcMonoid, ParentPcMonoid), (StarSubmonoid, ParentStarSubmonoid)):
            with pytest.raises(ValueError) as got:
                holder(N, [N.generators[0], bad])
            with pytest.raises(ValueError) as want:
                oracle(N, [N.generators[0], bad])
            assert str(got.value) == str(want.value)
    for kind in ("positive", "units"):
        for torsion in (False, True):
            for ideal in ("empty", "proper", "full"):
                assert (kind, torsion, ideal) in kinds, (kind, torsion, ideal)
    assert refused >= 10


# ---------------------------------------------------------------------------
# gp(M) membership from the torsion quotient


def _seeded_monoids(rng, count):
    """Monoids with torsion, with units and with no generators."""
    shapes = [
        AbelianGroupShape(0, (2,)),
        AbelianGroupShape(0, (2, 3)),
        AbelianGroupShape(1),
        AbelianGroupShape(1, (2,)),
        AbelianGroupShape(1, (4,)),
        AbelianGroupShape(2),
        AbelianGroupShape(2, (2,)),
        AbelianGroupShape(2, (3,)),
        AbelianGroupShape(3),
    ]
    out = []
    while len(out) < count:
        amb = rng.choice(shapes)
        gens = [
            tuple(rng.randint(-2, 3) for _ in range(amb.free_rank))
            + tuple(rng.randrange(d) for d in amb.torsion)
            for _ in range(rng.randint(0, 4))
        ]
        out.append(CancellativeMonoid(amb, gens))
    return out


def test_in_gp_matches_the_subgroup_solve():
    rng = random.Random(1902)
    seen = {"torsion": 0, "units": 0, "empty": 0, "yes": 0, "no": 0}
    monoids = _seeded_monoids(rng, 420)
    for M in monoids:
        amb, gens = M.ambient, list(M.generators)
        queries = [
            tuple(rng.randint(-4, 4) for _ in range(amb.free_rank))
            + tuple(rng.randrange(d) for d in amb.torsion)
            for _ in range(8)
        ]
        for _ in range(4):
            acc = amb.zero()
            for g in gens:
                acc = amb.add(acc, amb.scale(rng.randint(-3, 3), g))
            queries.append(acc)
        for a in queries:
            want = parent_element_in_subgroup(amb.reduce(a), gens, amb) is not None
            assert M.in_gp(a) == want, (M, a)
            seen["yes" if want else "no"] += 1
        seen["torsion"] += bool(M.gp_shape().torsion)
        seen["units"] += M.grading() is None and bool(gens)
        seen["empty"] += not gens
    assert len(monoids) >= 400
    assert min(seen.values()) >= 40, seen


def test_seminormal_step_refuses_an_element_outside_gp(tmp_path):
    """<2> in Z with a = 1: a is not in M, and not in gp(M) = 2Z."""
    m = CancellativeMonoid(AbelianGroupShape(1), [(2,)])
    with pytest.raises(ValueError, match=r"^\(1,\) is not in gp\(M\)$"):
        build_seminormal_step(m, (1,), GF(2))
    path = tmp_path / "even.json"
    path.write_text(json.dumps({"ambient": {"rank": 1, "torsion": []}, "generators": [[2]]}))
    proc = run_fresh(
        ["-m", "monoidforge.cli", "square", "build", "seminormal-step",
         str(path), "--element", "1", "--ring", "F2"],
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout
    assert "is not in gp(M)" in proc.stderr


# ---------------------------------------------------------------------------
# the pc square asks one cached question


PC_SQUARE_COUNT = """
import json
import sys

import monoidforge.monoid as mm
from monoidforge.lattice import AbelianGroupShape
from monoidforge.rings import GF
from monoidforge.squares import build_pc, verify_cartesian

calls = [0]
original = mm.member


def counted(*args):
    calls[0] += 1
    return original(*args)


for name, module in list(sys.modules.items()):
    if name.startswith("monoidforge") and getattr(module, "member", None) is original:
        module.member = counted
N = mm.CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (0, 1)])
square = build_pc(N, [(1, 1), (2, 0)], GF(2))
build = calls[0]
report = verify_cartesian(square, degree_bound=10)
print(json.dumps({"build": build, "verify": calls[0] - build, "cartesian": report.ok}))
"""


def test_member_calls_of_one_pc_square_in_a_fresh_process():
    """The pc square of Z_+^2 with I = ((1,1),(2,0)) over F2: building it
    checks the two generators and asks whether I = N; verifying it to
    bound 10 asks "key in I" once per key, for the I_* corner and the
    right leg together.  Holding I twice, with an uncached right leg, made
    6 and 237 calls."""
    proc = run_fresh(["-c", PC_SQUARE_COUNT], timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"build": 4, "verify": 87, "cartesian": True}
