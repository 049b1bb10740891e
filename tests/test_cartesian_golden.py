"""Canonical CartesianReport JSON of the criterion-9 squares, the pc squares
over Z, Q and Z/6, the seminormal step with its elementwise fiber check and
their negative controls, reproduced byte for byte from
tests/data/cartesian_golden.json.

The corrupted controls fail on injectivity or commutation and pin the
witness read off the (top, left) kernel basis; the shrunk controls drop the
first top-left basis element, so (top, left) stays injective and the check
fails on the fiber dimension with the first fiber basis vector outside its
image (often not the first fiber basis vector).

Regenerate (only when a report is meant to change) with
    PYTHONPATH=src python tests/test_cartesian_golden.py
"""

import copy
import json
import os

from monoidforge.acceptance import _six_square_instances
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid
from monoidforge.rings import GF, QQ, ZZ, IntegerModRing
from monoidforge.squares import (
    Corner,
    build_pc,
    build_seminormal_step,
    build_torsion_splitting,
    corrupt_square,
    verify_cartesian,
    verify_reduced_iso,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cartesian_golden.json")
BOUND = 6


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def shrunk_square(square):
    """The square with the first basis element of each top-left truncation
    of positive degree dropped."""
    bad = copy.copy(square)
    A1 = square.corner("A1")
    bad.corners = dict(square.corners)
    bad.corners["A1"] = Corner(
        A1.name + "-shrunk",
        ambient=A1.ambient,
        basis_fn=lambda d: A1.basis_upto(d)[1:] if d else A1.basis_upto(d),
    )
    return bad


def cartesian_reports():
    """name -> canonical JSON of one report."""
    out = {}

    def record(name, square, **kw):
        out[name] = canon(verify_cartesian(square, degree_bound=BOUND, **kw).to_json())

    Z1, Z2 = AbelianGroupShape(1), AbelianGroupShape(2)
    for q in (2, 3, 4, 5):
        for kind, sq in _six_square_instances(q):
            record(f"F{q} {kind}", sq)
            record(f"F{q} {kind} corrupted", corrupt_square(sq))
            record(f"F{q} {kind} shrunk", shrunk_square(sq))
    z2p = CancellativeMonoid(Z2, [(1, 0), (0, 1)])
    for R in (ZZ, QQ, IntegerModRing(6)):
        sq = build_pc(z2p, [(1, 1)], R)
        record(f"{R.kind} pc", sq)
        record(f"{R.kind} pc corrupted", corrupt_square(sq))
        record(f"{R.kind} pc shrunk", shrunk_square(sq))
    zp = CancellativeMonoid(Z1, [(1,)])
    for R in (ZZ, QQ):
        for i, sq in enumerate(build_torsion_splitting(zp, [2], R)):
            record(f"{R.kind} torsion-splitting-{i + 1}", sq)
            record(f"{R.kind} torsion-splitting-{i + 1} shrunk", shrunk_square(sq))
    m23 = CancellativeMonoid(Z1, [(2,), (3,)])
    for R in (GF(2), GF(3), GF(4), GF(5), QQ, ZZ):
        sq = build_seminormal_step(m23, (1,), R)
        record(f"{R.kind} seminormal-step elementwise", sq, elementwise_budget=4096)
        record(f"{R.kind} seminormal-step elementwise shrunk", shrunk_square(sq),
               elementwise_budget=4096)
        if R.is_field() and R.finite:
            out[f"{R.kind} seminormal-step reduced-iso"] = canon(
                verify_reduced_iso(sq, degree_bound=BOUND).to_json()
            )
    return out


def test_cartesian_reports_match_golden_fixture():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = cartesian_reports()
    assert sorted(got) == sorted(golden)
    for name, want in golden.items():
        assert got[name] == want, name


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(cartesian_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
