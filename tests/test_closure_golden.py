"""Canonical JSON of minimalize, smash, normalize, normalize_in_gp and
seminormalize over a fixed list of monoids, reproduced byte for byte from
tests/data/closure_golden.json.

The list covers positive monoids from the acceptance suite's range (rank
1-3, entries <= 2, 2-5 generators), the torsion monoids smash(sn(L), Z/d)
of acceptance criterion 5 and the same monoids with their torsion made
units, mixed-unit monoids such as <(1,0),(-1,0),(0,1)> (among them
several generators with one image in M/U(M) and cones that are a whole
lattice), and the examples of tests/test_monoid.py.  A refusal is recorded
as its exception class and message.

Regenerate (only when an answer is meant to change) with
    PYTHONPATH=src python tests/test_closure_golden.py
"""

import json
import os
import random

from monoidforge.closure import normalize, normalize_in_gp, seminormalize
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, minimalize, smash

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "closure_golden.json")


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _M(rank, gens, torsion=()):
    return CancellativeMonoid(AbelianGroupShape(rank, tuple(torsion)), [tuple(g) for g in gens])


def _cyclic(d):
    return _M(0, [(1,)], (d,))


def _random_positive(rng, rank):
    """A positive monoid drawn as acceptance._random_positive_monoid draws it."""
    while True:
        n = rng.randint(rank, rank + 2)
        gens = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(n)]
        gens = [g for g in gens if any(g)]
        if gens:
            return _M(rank, gens)


def monoids():
    """name -> (monoid, whether to record smash(monoid, Z/2))."""
    out = {}

    def add(label, m, with_smash=False):
        key = f"{label} {m.ambient.free_rank} {list(m.ambient.torsion)} {[list(g) for g in m.generators]}"
        out[key] = (m, with_smash)

    rng = random.Random(1010)
    for i in range(30):
        add("positive", _random_positive(rng, rng.choice([1, 1, 2, 2, 2, 3])), i < 8)
    for _ in range(10):
        L = seminormalize(_random_positive(rng, rng.choice([1, 2]))).monoid
        S = smash(L, _cyclic(rng.choice([2, 3])))
        add("torsion", S)
        r = S.ambient.free_rank
        add("torsion made units", _M(r, list(S.generators) + [(0,) * r + (1,)], S.ambient.torsion))
    for _ in range(14):
        rank = rng.choice([2, 2, 3])
        gens = list(_random_positive(rng, rank).generators)
        v = tuple(rng.randint(-1, 1) for _ in range(rank))
        if not any(v):
            v = (1,) + (0,) * (rank - 1)
        gens += [v, tuple(-x for x in v)]
        if rng.random() < 0.5:
            # a second generator over the same image in M/U(M)
            gens.append(tuple(a + b for a, b in zip(gens[0], v)))
        add("mixed", _M(rank, gens))
    # fixed mixed-unit shapes: a whole line, a whole lattice, repeated images
    add("mixed", _M(2, [(1, 0), (-1, 0), (0, 1)]))
    add("mixed", _M(2, [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)]))
    add("mixed", _M(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]))
    add("mixed", _M(1, [(1,), (-1,), (2,), (-3,)]))
    add("mixed", _M(2, [(2, 0), (-2, 0), (1, 1), (3, 1)]))
    add("mixed torsion", _M(1, [(0, 1), (1, 0), (1, 1), (2, 1)], (2,)))
    add("mixed torsion", _M(1, [(1, 0), (-1, 0), (1, 1)], (3,)))
    # the examples of tests/test_monoid.py
    Z, Z2, ZxZ2 = (1, ()), (2, ()), (1, (2,))
    for (rank, tor), gens in [
        (Z, [(2,), (3,)]),
        (Z, [(2,), (3,), (5,)]),
        (Z, [(1,)]),
        (Z, [(1,), (-1,)]),
        (Z2, [(1, 0), (0, 1)]),
        (Z2, [(1, 0), (1, 2)]),
        (Z2, [(2, 0), (0, 2)]),
        (Z2, [(1, 0), (-1, 0), (0, 1)]),
        (ZxZ2, [(1, 0), (1, 1)]),
        (ZxZ2, [(2, 1), (3, 0)]),
        (ZxZ2, [(2, 1), (3, 0), (5, 1)]),
        (ZxZ2, [(1, 1)]),
        (ZxZ2, [(2, 1)]),
    ]:
        add("example", _M(rank, gens, tor), True)
    add("example", _M(0, [], ()), True)
    return out


def _answer(fn):
    try:
        return fn()
    except (ValueError, RuntimeError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _gens(m):
    return [list(g) for g in m.generators]


def closure_reports():
    """name -> canonical JSON of one answer (or of its refusal)."""
    out = {}
    for name, (m, with_smash) in monoids().items():
        out[f"{name} minimalize"] = canon(_answer(lambda: _gens(minimalize(m))))
        out[f"{name} normalize"] = canon(_answer(lambda: normalize(m).to_json()))
        out[f"{name} normalize_in_gp"] = canon(_answer(lambda: normalize_in_gp(m).to_json()))
        out[f"{name} seminormalize"] = canon(_answer(lambda: seminormalize(m).to_json()))
        if with_smash:
            for d in (2, 3):
                out[f"{name} smash Z/{d}"] = canon(_answer(lambda: _gens(smash(m, _cyclic(d)))))
    return out


def test_closure_reports_match_golden_fixture():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = closure_reports()
    assert sorted(got) == sorted(golden)
    for name, want in golden.items():
        assert got[name] == want, name


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(closure_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
