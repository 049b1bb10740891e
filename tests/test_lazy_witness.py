"""A slice hit of `member`, and a "yes" of `MonoidIdeal.member`, walks its
witness back only when `.witness` is first read.  Counted in a fresh
process, where nothing else has walked back a witness or built a slice:
face and interior queries and `is_yes` walk back nothing, the first witness
read walks back once and gives the slice's witness, and a lazy answer
prints and compares as the eager one.  The unit-quotient path lifts every
witness, so it answers eagerly.
"""

import json
import os

from helpers import run_fresh

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
