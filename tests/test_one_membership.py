"""Face-filtration ideals and interior pieces ask `member` at most once per
query and read the face from `_cone_of(M).element_mask(x)`.

The oracles are the public two-step answers: membership, then
`face_locate` (which asks `member` again) for `FiltrationIdeal.member`, and
membership, then `interior_member` for `closure._in_piece` and the interior
slices of `sn_face_structure`.  A fresh process counts the calls of
`monoid._graded_member` on <(1,0),(1,1),(1,2)>.
"""

import json
from itertools import product

import pytest

from helpers import run_fresh
from monoidforge import closure
from monoidforge.cones import face_locate, interior_member
from monoidforge.ideals import ideal_filtration
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, member

Z2, Z3 = AbelianGroupShape(2), AbelianGroupShape(3)
Z1T2 = AbelianGroupShape(1, (2,))

HOSTS = [
    (Z2, [(1, 0), (1, 1), (1, 2)]),
    (Z2, [(2, 0), (1, 1), (0, 2)]),
    (Z2, [(1, 0), (1, 2), (2, 1)]),
    (Z3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    (Z1T2, [(1, 0), (1, 1)]),
]


def box(amb, reach=4):
    """Every ambient element with free entries in [-1, reach] and any
    torsion part: members and non-members alike."""
    free = product(range(-1, reach + 1), repeat=amb.free_rank)
    tors = list(product(*[range(n) for n in amb.torsion]))
    return [f + t for f in free for t in tors]


def in_filtration(M, k, x):
    if not member(M, x).is_yes:
        return False
    return face_locate(M, x).index >= k


@pytest.mark.parametrize("amb, gens", HOSTS)
def test_filtration_membership_matches_face_locate(amb, gens):
    M = CancellativeMonoid(amb, gens)
    for ideal in ideal_filtration(M):
        for x in box(amb):
            got = ideal.member(x)
            assert got.is_yes == in_filtration(M, ideal.k, x), (gens, ideal.k, x)


@pytest.mark.parametrize("amb, gens", HOSTS)
def test_interior_pieces_match_interior_member(amb, gens):
    M = CancellativeMonoid(amb, gens)
    for _, nNF in closure._face_pieces(M):
        for v in box(nNF.ambient):
            want = (not any(v) if not nNF.generators
                    else member(nNF, v).is_yes and interior_member(nNF, v))
            assert closure._in_piece(nNF, v) == want, (gens, nNF.generators, v)


def test_sn_face_structure_on_the_filtration_hosts():
    """The subgroups T_F of a torsion host and of torsion-free hosts (every
    T_F is {0}) are those the interior slices give."""
    for amb, gens in HOSTS:
        st = closure.sn_face_structure(CancellativeMonoid(amb, gens))
        zero = amb.zero()
        if not amb.torsion:
            assert all(ts == [zero] for ts in st.subgroups.values()), gens
        assert all(st.report.values()), gens


COUNT = """
import json
from itertools import product
from monoidforge import closure, monoid
from monoidforge.ideals import ideal_filtration
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid

calls = [0]
real = monoid._graded_member


def counted(M, a):
    calls[0] += 1
    return real(M, a)


monoid._graded_member = counted
M = CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (1, 1), (1, 2)])
chain = ideal_filtration(M)
queries = [(x, y) for x in range(5) for y in range(-1, 9)]
per_query = []
for ideal in chain:
    for x in queries:
        before = calls[0]
        ideal.member(x)
        per_query.append(calls[0] - before)
pieces = closure._face_pieces(M)
per_piece = []
for _, nNF in pieces:
    for v in product(range(-1, 4), repeat=nNF.ambient.free_rank):
        before = calls[0]
        closure._in_piece(nNF, v)
        per_piece.append(calls[0] - before)
print(json.dumps({"filtration": sorted(set(per_query)), "pieces": sorted(set(per_piece)),
                  "queries": len(per_query), "piece_queries": len(per_piece)}))
"""


def test_one_graded_membership_per_query_in_a_fresh_process():
    """FiltrationIdeal.member makes one _graded_member call per query (a
    member took two before: member, then face_locate), and _in_piece at
    most one (none on the trivial piece)."""
    proc = run_fresh(["-c", COUNT], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["queries"] >= 100 and out["piece_queries"] > 10, out
    assert out["filtration"] == [1], out
    assert set(out["pieces"]) <= {0, 1} and 1 in out["pieces"], out
