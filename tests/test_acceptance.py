"""Acceptance gate: every criterion at its stated bound, one line each.

Criteria with a stated wall-clock limit assert it (generously interpreted
for slow CI machines by a 3x factor); everything mathematical is exact.
"""

import json
import random
import time
from itertools import product

import pytest

from helpers import run_fresh
from monoidforge.acceptance import CRITERIA, _exhaustive_facet_oracle, run_selftest
from monoidforge.lattice import primitive, rank_of

TIME_LIMITS = {1: 1.0, 2: 5.0, 4: 60.0, 7: 120.0, 9: 120.0, 11: 5.0}
SLACK = 3.0


@pytest.mark.parametrize("ident,description,fn", CRITERIA, ids=[f"criterion_{i}" for i, _, _ in CRITERIA])
def test_criterion(ident, description, fn, capsys):
    t0 = time.perf_counter()
    detail = fn()
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\n[PASS] criterion {ident:2d} ({elapsed:6.2f}s): {description} -- {detail}")
    if ident in TIME_LIMITS:
        assert elapsed < TIME_LIMITS[ident] * SLACK, (
            f"criterion {ident} took {elapsed:.1f}s, stated limit {TIME_LIMITS[ident]}s"
        )


def test_selftest_runner_all_pass():
    results = run_selftest(quick=True)
    assert all(r.passed for r in results)
    assert {r.ident for r in results} == {1, 2, 3, 6, 10, 11, 12}


def test_full_selftest_under_five_minutes():
    """The full selftest in a fresh process, so it pays the import and every
    cold cache, as `monoidforge selftest` does."""
    t0 = time.perf_counter()
    proc = run_fresh(["-m", "monoidforge.cli", "selftest"], timeout=600)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["results"]["all_passed"], proc.stdout
    assert len(report["results"]["criteria"]) == len(CRITERIA)
    assert elapsed < 300, f"full selftest took {elapsed:.0f}s in a fresh process"


def _plain_facet_scan(gens, dim):
    """The exhaustive facet oracle as one rank test per candidate of the
    whole box, the form _exhaustive_facet_oracle prunes."""
    import math

    m = max(abs(x) for v in gens for x in v)
    box = math.factorial(max(dim - 1, 1)) * m ** max(dim - 1, 1)
    out = set()
    for cand in product(range(-box, box + 1), repeat=dim):
        if not any(cand):
            continue
        vals = [sum(a * b for a, b in zip(cand, v)) for v in gens]
        if all(x >= 0 for x in vals) and any(x == 0 for x in vals):
            on = [list(v) for v, x in zip(gens, vals) if x == 0]
            if on and rank_of(on) == dim - 1:
                out.add(primitive(cand))
    return out


def test_exhaustive_facet_oracle_matches_the_plain_scan():
    # the 30 cones of criterion 3, drawn as it draws them
    rng = random.Random(303)
    count = 0
    while count < 30:
        dim = rng.choice([2, 3])
        gens = [
            tuple(rng.randint(0, 2) for _ in range(dim))
            for _ in range(dim + rng.randint(0, 2))
        ]
        gens = sorted({g for g in gens if any(g)})
        if rank_of([list(g) for g in gens]) < dim:
            continue
        assert _exhaustive_facet_oracle(gens, dim) == _plain_facet_scan(gens, dim), gens
        count += 1
    # cones of dim 2-4 with negative entries, spanning or not
    rng = random.Random(1517)
    for _ in range(36):
        dim = rng.randint(2, 4)
        top = {2: 3, 3: 2, 4: 1}[dim]
        gens = [
            tuple(rng.randint(-top, top) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 3))
        ]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (dim - 1)]
        assert _exhaustive_facet_oracle(gens, dim) == _plain_facet_scan(gens, dim), gens
