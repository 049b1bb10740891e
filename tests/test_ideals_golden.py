"""Canonical JSON of radical, prime_decomposition and ideal_filtration over a
fixed list of monoids and ideals, reproduced byte for byte from
tests/data/ideals_golden.json.

The list covers numerical semigroups, rank 2 and rank 3 positive monoids
(among them the costliest blocks of the positive-session benchmark pool),
torsion hosts smash(L, Z/n), a pc host, a host with units, and small
degree bounds.  The generators of radicals, primes and filtration ideals
come from generator supports, so no bound makes their search fail; a small
bound only shrinks the slices of the certificates, and is reported.  A
refusal is recorded as its exception class and message.

Regenerate (only when an answer is meant to change) with
    PYTHONPATH=src python tests/test_ideals_golden.py
"""

import json
import os

from monoidforge.closure import seminormalize
from monoidforge.ideals import (
    MonoidIdeal,
    ideal_filtration,
    prime_decomposition,
    radical,
)
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, PcMonoid, smash

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "ideals_golden.json")


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _M(rank, gens, torsion=()):
    return CancellativeMonoid(AbelianGroupShape(rank, tuple(torsion)), [tuple(g) for g in gens])


def _torsion_host(gens, n):
    L = seminormalize(_M(len(gens[0]), gens)).monoid
    return smash(L, _M(0, [(1,)], (n,)))


def hosts():
    """name -> (monoid, [ideal generator lists])."""
    return {
        "<2,3>": (_M(1, [(2,), (3,)]), [[(2,)], [(3,)], [(2,), (3,)], [(4,), (9,)]]),
        "<3,4,5>": (_M(1, [(3,), (4,), (5,)]), [[(4,)], [(6,), (10,)]]),
        "Z+^2": (
            _M(2, [(1, 0), (0, 1)]),
            [[(1, 1)], [(2, 0)], [(1, 0)], [(2, 1), (1, 2)], [(1, 0), (0, 1)]],
        ),
        "<(1,0),(1,2),(2,1)>": (
            _M(2, [(1, 0), (1, 2), (2, 1)]),
            [[(1, 2), (2, 1)], [(1, 0)], [(3, 3)]],
        ),
        "<(0,1),(1,2),(2,0)>": (_M(2, [(0, 1), (1, 2), (2, 0)]), [[(1, 2), (2, 1)], [(2, 0)]]),
        "<(1,0),(1,1),(1,2)>": (_M(2, [(1, 0), (1, 1), (1, 2)]), [[(1, 1)], [(2, 1)]]),
        "r3 core a": (
            _M(3, [(0, 1, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2)]),
            [[(0, 1, 2), (1, 1, 1)], [(2, 1, 1)]],
        ),
        "r3 core b": (_M(3, [(0, 0, 1), (1, 1, 2), (2, 1, 0), (2, 1, 1)]), [[(2, 1, 0)]]),
        "r3 core c": (_M(3, [(1, 0, 1), (1, 1, 1), (1, 2, 0), (2, 2, 1)]), [[(1, 1, 1)]]),
        "r3 a": (_M(3, [(0, 1, 1), (1, 1, 0), (1, 1, 2), (2, 1, 1)]), [[(2, 2, 2)], [(1, 1, 0)]]),
        "r3 b": (
            _M(3, [(1, 1, 0), (2, 0, 0), (2, 0, 1), (2, 2, 2)]),
            [[(1, 1, 0), (4, 2, 2)], [(2, 0, 0)]],
        ),
        "r3 c": (_M(3, [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 2, 2)]), [[(1, 2, 1)], [(1, 1, 0)]]),
        "Z+^3": (_M(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), [[(1, 1, 1)], [(1, 1, 0), (0, 1, 1)]]),
        "Z+ smash Z/2": (_torsion_host([(1,)], 2), [[(1, 0)], [(1, 1)], [(2, 0)]]),
        "sn<(1,0),(1,2)> smash Z/2": (
            _torsion_host([(1, 0), (1, 2)], 2),
            [[(1, 0, 0)], [(2, 2, 1)], [(1, 2, 1), (1, 0, 1)]],
        ),
        "sn<(2,0),(1,1),(0,2)> smash Z/3": (
            _torsion_host([(2, 0), (1, 1), (0, 2)], 3),
            [[(1, 1, 0)], [(2, 0, 1)]],
        ),
    }


def _answer(fn):
    try:
        return fn()
    except (ValueError, RuntimeError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _decomposition_json(I, bound):
    dec = prime_decomposition(I, bound)
    out = dec.to_json()
    out["irredundancy_witnesses"] = {
        str(i): list(w) for i, w in sorted(dec.irredundancy_witnesses.items())
    }
    return out


def ideal_reports():
    """name -> canonical JSON of one answer (or of its refusal)."""
    out = {}
    for name, (host, ideals) in hosts().items():
        for bound in (12, 3):
            chain = _answer(lambda: [f.to_json() for f in ideal_filtration(host, bound)])
            out[f"{name} filtration bound={bound}"] = canon(chain)
        for gens in ideals:
            key = f"{name} I={[list(g) for g in gens]}"
            I = MonoidIdeal(host, gens)
            for bound in (12, 2):
                out[f"{key} radical bound={bound}"] = canon(
                    _answer(lambda: radical(I, bound).to_json())
                )
                out[f"{key} primes bound={bound}"] = canon(
                    _answer(lambda: _decomposition_json(I, bound))
                )
    # a host with units: every answer is a refusal
    units = _M(2, [(1, 0), (-1, 0), (0, 1)])
    I = MonoidIdeal(units, [(0, 1)])
    out["units host filtration"] = canon(_answer(lambda: ideal_filtration(units)))
    out["units host radical"] = canon(_answer(lambda: radical(I).to_json()))
    out["units host primes"] = canon(_answer(lambda: _decomposition_json(I, 12)))
    q = PcMonoid(_M(2, [(1, 0), (0, 1)]), [(2, 2)])
    for gens in ([(1, 0)], [(1, 1)]):
        I = MonoidIdeal(q, gens)
        key = f"Z+^2/(2,2) I={[list(g) for g in gens]}"
        out[f"{key} radical bound=12"] = canon(_answer(lambda: radical(I).to_json()))
        out[f"{key} primes bound=12"] = canon(_answer(lambda: _decomposition_json(I, 12)))
    return out


def test_ideal_reports_match_golden_fixture():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = ideal_reports()
    assert sorted(got) == sorted(golden)
    for name, want in golden.items():
        assert got[name] == want, name


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(ideal_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
