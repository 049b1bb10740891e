"""`_minimalize_generators` against the greedy loop it replaced.

`_greedy_oracle` is that loop, kept verbatim: it tests each generator
against a new monoid of the others and restarts after every removal.  The
fast function must return exactly its list, and raise exactly its exception
types, on positive monoids with and without torsion, pure-torsion and
mixed-unit generator sets, several generators over one image in M/U(M),
cones that are a whole lattice, and zero and repeated generators.

A count taken in a fresh process, where the interning table starts empty,
guards against closures that build a monoid per generator again: only unit
generators are still tested against a monoid of the other units.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, _minimalize_generators, member


def _greedy_oracle(gens, ambient):
    """Drop generators that are non-negative combinations of the others."""
    gens = sorted({ambient.reduce(g) for g in gens if any(ambient.reduce(g))})
    kept = list(gens)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            if not others:
                continue
            res = member(CancellativeMonoid(ambient, others), g)
            if res.is_yes:
                kept = others
                changed = True
                break
    return kept


def _outcome(fn, gens, ambient):
    try:
        return fn(list(gens), ambient)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)


def _agree(gens, ambient):
    want = _outcome(_greedy_oracle, gens, ambient)
    got = _outcome(_minimalize_generators, gens, ambient)
    assert got == want, (ambient, gens, got, want)


def _random_case(rng):
    """A random generator list of one of the covered kinds."""
    kind = rng.choice(["positive", "positive", "torsion", "pure torsion", "mixed", "mixed", "lattice"])
    rank = rng.choice([1, 2, 2, 3])
    torsion = () if kind in ("positive", "mixed", "lattice") else (rng.choice([2, 3, 4]),)
    if kind == "pure torsion":
        rank = rng.choice([0, 1])
        torsion = rng.choice([(2,), (3,), (2, 2), (2, 3)])
    amb = AbelianGroupShape(rank, torsion)
    lo = -2 if kind in ("mixed", "lattice") else 0

    def draw():
        free = [rng.randint(lo, 2) for _ in range(rank)]
        if kind == "pure torsion":
            free = [0] * rank
        return tuple(free) + tuple(rng.randrange(d) for d in torsion)

    gens = [draw() for _ in range(rng.randint(1, 5))]
    if kind == "mixed":
        # a unit pair, and sometimes a second generator over one image in M/U
        v = draw()
        gens += [v, amb.neg(v)]
        if rng.random() < 0.5:
            gens.append(amb.add(gens[0], v))
    if kind == "lattice":
        for i in range(rank):
            e = tuple(1 if j == i else 0 for j in range(rank))
            gens.append(e if rng.random() < 0.5 else tuple(-x for x in e))
        gens.append(tuple(-sum(g[j] for g in gens[-rank:]) for j in range(rank)))
    if rng.random() < 0.3:
        gens.append(amb.zero())
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    return gens, amb


def test_examples_agree_with_greedy_loop():
    Z, Z2, ZxZ2 = AbelianGroupShape(1), AbelianGroupShape(2), AbelianGroupShape(1, (2,))
    cases = [
        ([(2,), (3,), (5,)], Z),
        ([(1, 0), (-1, 0), (0, 1)], Z2),
        ([(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)], Z2),
        ([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)], Z2),
        ([(1,), (-1,), (2,), (-3,)], Z),
        ([(0, 1), (1, 0), (1, 1), (2, 1)], ZxZ2),
        ([(0,), (2,), (2,), (4,)], Z),
        ([(0, 0)], Z2),
        ([], Z2),
        ([(1,), (2,)], AbelianGroupShape(0, (3,))),
    ]
    for gens, amb in cases:
        _agree(gens, amb)
    assert _minimalize_generators([(1, 0), (-1, 0), (0, 1)], Z2) == [(-1, 0), (0, 1), (1, 0)]
    # the last generator of each image in M/U is the one kept
    assert _minimalize_generators([(0, 1), (1, 1), (1, 0), (-1, 0)], Z2) == [(-1, 0), (1, 0), (1, 1)]


def test_seeded_random_inputs_agree_with_greedy_loop():
    rng = random.Random(1001)
    for _ in range(250):
        _agree(*_random_case(rng))


@st.composite
def generator_sets(draw):
    rank = draw(st.integers(0, 3))
    torsion = draw(st.sampled_from([(), (), (2,), (3,), (2, 2)]))
    if rank + len(torsion) == 0:
        rank = 1
    amb = AbelianGroupShape(rank, torsion)
    coords = [st.integers(-2, 2)] * rank + [st.integers(0, d - 1) for d in torsion]
    gens = draw(st.lists(st.tuples(*coords), min_size=0, max_size=5))
    return gens, amb


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_hypothesis_inputs_agree_with_greedy_loop(case):
    _agree(*case)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

SCRIPT = """
import json, sys
import monoidforge.monoid as mm
from monoidforge.closure import normalize, seminormalize
from monoidforge.lattice import AbelianGroupShape

calls = [0]
grading_for = mm.grading_for

def counted(*args):
    calls[0] += 1
    return grading_for(*args)

mm.grading_for = counted
rank, gens = json.loads(sys.argv[1])
m = mm.CancellativeMonoid(AbelianGroupShape(rank), [tuple(g) for g in gens])
before = len(mm._INTERN)
normalize(m)
seminormalize(m)
print(json.dumps({"interned": len(mm._INTERN) - before, "grading_for": calls[0]}))
"""


def _counts(rank, gens):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([rank, gens])],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "rank, gens, want",
    [
        # normal with units: M/U(M), the result, and one candidate monoid per
        # unit generator, <(1,0)> and <(-1,0)> (the greedy loop built 12
        # monoids and searched 10 gradings)
        (2, [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)], {"interned": 4, "grading_for": 4}),
        # positive: the union and the result of normalize (adding (0,0,1) and
        # (0,1,0)), the one stage and the result of seminormalize (adding
        # (0,1,0)); the greedy loop built 24 monoids and searched 24 gradings
        (3, [(1, 0, 0), (0, 2, 0), (0, 3, 0), (1, 1, 2), (0, 0, 2)], {"interned": 4, "grading_for": 4}),
    ],
)
def test_closures_build_no_candidate_monoid_per_generator(rank, gens, want):
    assert _counts(rank, gens) == want
