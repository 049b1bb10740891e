"""A slice hit of `member`, and a "yes" of `MonoidIdeal.member`, walks its
witness back only when `.witness` is first read.  Counted in a fresh
process, where nothing else has walked back a witness or built a slice:
face and interior queries and `is_yes` walk back nothing, the first witness
read walks back once and gives the slice's witness, and a lazy answer
prints and compares as the eager one.  The unit-quotient path lifts every
witness, so it answers eagerly.  `ideal_filtration` certifies each level on
the facet masks of the slice elements and walks back no witness at all.
"""

import json
import os

from helpers import run_fresh, witness_mask
from monoidforge.cones import _cone_of, face_lattice
from monoidforge.ideals import (
    FiltrationIdeal,
    _face_index_at_least,
    _support_generators,
    ideal_filtration,
)
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, MonoidIdeal, smash

SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
from helpers import slice_get
from monoidforge import monoid
from monoidforge.cones import face_lattice, face_locate, interior_member
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, Membership, member

walks = [0]
real = monoid._walk_back


def counted(*args):
    walks[0] += 1
    return real(*args)


monoid._walk_back = counted
out = {}

M = CancellativeMonoid(AbelianGroupShape(3), [(1, 1, 0), (1, 2, 0), (1, 2, 2), (2, 0, 2)])
data = M._slice_data(40)
face_lattice(M)
xs = [x for x in data.elements(40) if any(x)]
for x in xs:
    interior_member(M, x)
    face_locate(M, x)
    assert member(M, x).is_yes and member(M, x)
out["queries"] = len(xs)
out["walks_unread"] = walks[0]

checked = 0
for x in xs[::7]:
    before = walks[0]
    res = member(M, x)
    assert walks[0] == before
    w = res.witness
    assert walks[0] == before + 1
    assert res.witness is w and walks[0] == before + 1
    assert w == slice_get(data, x)
    eager = Membership("yes", w)
    lazy = member(M, x)
    assert repr(lazy) == repr(eager), (repr(lazy), repr(eager))
    assert member(M, x) == eager and eager == member(M, x)
    assert not member(M, x) != eager and not eager != member(M, x)
    assert member(M, x) == member(M, x)
    other = Membership("yes", tuple(c + 1 for c in w))
    assert member(M, x) != other and other != member(M, x)
    assert member(M, x) != Membership("no") and Membership("no") != member(M, x)
    checked += 1
out["checked"] = checked

U = CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (-1, 0), (0, 1), (1, 2)])
uq = U.unit_quotient()
uq.quotient._slice_data(12)
kinds, unit_walks = set(), []
for y in range(1, 8):
    before = walks[0]
    res = member(U, (3, y))
    unit_walks.append(walks[0] - before)
    kinds.add(type(res).__name__)
    before = walks[0]
    assert res.witness is not None and walks[0] == before
out["unit_kinds"] = sorted(kinds)
out["unit_walks"] = unit_walks
print(json.dumps(out))
"""


def test_slice_hits_walk_back_only_when_the_witness_is_read():
    proc = run_fresh(["-c", SCRIPT, os.path.dirname(os.path.abspath(__file__))], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["queries"] > 50 and out["checked"] > 5, out
    assert out["walks_unread"] == 0, out
    # every unit-path answer is a plain Membership, its witness walked back
    # once in M/U and lifted
    assert out["unit_kinds"] == ["Membership"], out
    assert out["unit_walks"] == [1] * 7, out


IDEAL_SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
from monoidforge import monoid
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, MonoidIdeal, member

walks = [0]
real = monoid._walk_back


def counted(*args):
    walks[0] += 1
    return real(*args)


monoid._walk_back = counted
M = CancellativeMonoid(AbelianGroupShape(2, (2,)), [(1, 0, 0), (1, 1, 1), (1, 3, 0), (2, 1, 0)])
data = M._slice_data(20)
ideal = MonoidIdeal(M, [(2, 1, 1), (3, 3, 0)])
hits = []
for x in data.elements(20):
    res = ideal.member(x)
    if res.is_yes:
        hits.append((x, res))
out = {"hits": len(hits), "walks_unread": walks[0]}
reads, pairs_ok = 0, True
for x, res in hits:
    before = walks[0]
    g, w = res.witness
    y = M.ambient.sub(x, g)
    reads += walks[0] - before
    pairs_ok &= any(y) == (walks[0] == before + 1)
    pairs_ok &= res.witness == (g, member(M, y).witness)
out["walks_read"] = reads
out["pairs_ok"] = pairs_ok
out["nonzero_rests"] = sum(1 for x, res in hits if any(M.ambient.sub(x, res.witness[0])))
print(json.dumps(out))
"""


def test_ideal_slice_hits_walk_back_only_when_the_witness_is_read():
    """A "yes" of MonoidIdeal.member whose x - g is a slice hit walks back
    nothing until .witness is read; the pair read is (g, the witness of
    member(host, x - g)), and reading it walks back once (none for x = g)."""
    proc = run_fresh(["-c", IDEAL_SCRIPT, os.path.dirname(os.path.abspath(__file__))], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["hits"] > 20, out
    assert out["walks_unread"] == 0, out
    assert out["pairs_ok"], out
    assert out["walks_read"] == out["nonzero_rests"] > 20, out


FILTRATION_SCRIPT = r"""
import json
import sys

from monoidforge import monoid
from monoidforge.ideals import ideal_filtration
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid

walks = [0]
real = monoid._walk_back


def counted(*args):
    walks[0] += 1
    return real(*args)


monoid._walk_back = counted
out = []
for rank, torsion, gens in json.loads(sys.argv[1]):
    M = CancellativeMonoid(AbelianGroupShape(rank, tuple(torsion)), [tuple(g) for g in gens])
    before = walks[0]
    chain = ideal_filtration(M, 10)
    out.append({"walks": walks[0] - before, "chain": [f.to_json() for f in chain]})
print(json.dumps(out))
"""

FILTRATION_HOSTS = [
    CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (0, 1)]),
    CancellativeMonoid(AbelianGroupShape(1), [(2,), (3,)]),
    smash(
        CancellativeMonoid(AbelianGroupShape(1), [(1,)]),
        CancellativeMonoid(AbelianGroupShape(0, (2,)), [(1,)]),
    ),
    CancellativeMonoid(AbelianGroupShape(3), [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]),
]


def filtration_oracle(M, bound):
    """ideal_filtration with its former certification loop: the facet mask
    of every slice element is read off its walked-back witness
    (helpers.witness_mask) at every level."""
    cone = _cone_of(M)
    chain = [FiltrationIdeal(M, 0, MonoidIdeal(M, [M.ambient.zero()]), bound)]
    data = M._slice_data(bound)
    for k in range(1, len(face_lattice(M))):
        at_least_k = _face_index_at_least(M, k)
        ideal = MonoidIdeal(M, _support_generators(M, at_least_k))
        minus = data.minus(ideal.generators)
        for x in data.sorted_keys(bound):
            want = x != data.zero and at_least_k(witness_mask(cone, data.witness(x)))
            assert want == data.generated(x, minus), (M, k, data.element(x))
        chain.append(FiltrationIdeal(M, k, ideal, bound))
    return chain


def test_ideal_filtration_walks_back_no_witness():
    """In a fresh process, the filtration of Z+^2, <2,3>, Z+ smash Z/2 and a
    rank-3 cone at bound 10 walks back no witness, and each chain is the
    one the witness-mask certification gives."""
    hosts = [
        [M.ambient.free_rank, list(M.ambient.torsion), [list(g) for g in M.generators]]
        for M in FILTRATION_HOSTS
    ]
    proc = run_fresh(["-c", FILTRATION_SCRIPT, json.dumps(hosts)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [host["walks"] for host in out] == [0] * len(FILTRATION_HOSTS), out
    for M, host in zip(FILTRATION_HOSTS, out):
        want = [f.to_json() for f in filtration_oracle(M, 10)]
        assert host["chain"] == want, M
        assert [f.to_json() for f in ideal_filtration(M, 10)] == want, M
    assert [len(host["chain"]) for host in out] == [4, 2, 2, 10], out
