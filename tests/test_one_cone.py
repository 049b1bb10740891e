"""One cone per monoid: the double description that `grading()` runs is the
only one, and every facet and unit question reads it through
`CancellativeMonoid.cone()`.

The former paths stay here as oracles: the facet normals of the cone of
Mbar by a second double description (`lattice.facet_normals` on the
generators of the torsion quotient), and the unit rule read on those
normals.
"""

import json

from hypothesis import given, settings, strategies as st

from helpers import run_fresh
from monoidforge.cones import RationalCone
from monoidforge.lattice import AbelianGroupShape, _dot, facet_normals
from monoidforge.monoid import CancellativeMonoid


ONE_CONE = """
import json
from monoidforge import closure, lattice, monoid
from monoidforge.cones import face_lattice
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, member, units_submonoid

calls = {"double_description": 0, "TorsionQuotient": 0}
dd = lattice.double_description


def counted_dd(*args):
    calls["double_description"] += 1
    return dd(*args)


lattice.double_description = closure.double_description = counted_dd
tq_init = monoid.TorsionQuotient.__init__


def counted_tq(self, M):
    calls["TorsionQuotient"] += 1
    tq_init(self, M)


monoid.TorsionQuotient.__init__ = counted_tq
M = CancellativeMonoid(AbelianGroupShape(2, (2,)), [(1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 0)])
assert M.grading() is not None
faces = len(face_lattice(M))
assert M.unit_generators() == ()
assert member(M, (7, 5, 1)).is_yes and "slice" not in M._cache
positive = dict(calls)
calls.update({k: 0 for k in calls})
U = CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (-1, 0), (0, 1)])
units = units_submonoid(U)
print(json.dumps({"positive": positive, "faces": faces, "units": dict(calls), "unit_gens": units}))
"""


def test_one_double_description_per_monoid():
    """On a fresh positive monoid with torsion, the grading, the face
    lattice, the units and a membership query past the slice share one
    double description (two before: the face lattice ran its own on the
    torsion quotient).  The units of <(1,0),(-1,0),(0,1)> are read off the
    cone without a torsion quotient (one before)."""
    proc = run_fresh(["-c", ONE_CONE], timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["positive"]["double_description"] == 1, got
    assert got["faces"] == 4
    assert got["units"]["TorsionQuotient"] == 0, got
    assert got["unit_gens"] == [[-1, 0], [1, 0]]


def former_unit_generators(M):
    """CancellativeMonoid.unit_generators before one cone: the generators
    whose images in Mbar every facet normal of Mbar's cone vanishes on,
    read only when M has no positive grading."""
    if M.grading() is not None:
        return ()
    tq = M.torsion_quotient()
    normals = facet_normals(list(tq.Mbar.generators), tq.rank)
    return tuple(
        g for g in M.generators if not any(_dot(n, tq.project(g)) for n in normals)
    )


@st.composite
def monoids(draw):
    """Positive, unit-bearing and Z/2 or Z/3 torsion monoids of rank 1-3,
    with pure-torsion generators among them."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    low = draw(st.sampled_from([0, -2]))
    amb = AbelianGroupShape(rank, torsion)
    entry = st.tuples(
        *[st.integers(low, 2)] * rank, *[st.integers(0, d - 1) for d in torsion]
    )
    pure = st.tuples(*[st.just(0)] * rank, *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(entry | pure if torsion else entry, min_size=1, max_size=5))
    return CancellativeMonoid(amb, gens)


@settings(max_examples=200, deadline=None)
@given(monoids())
def test_cone_readers_match_the_former_paths(M):
    """The facet normals of the cone of Mbar, converted from M.cone(), are
    those of a second double description on the torsion quotient, and the
    unit generators are those of the former rule."""
    tq = M.torsion_quotient()
    assert RationalCone(M).normals == facet_normals(list(tq.Mbar.generators), tq.rank), M
    assert M.unit_generators() == former_unit_generators(M), M
