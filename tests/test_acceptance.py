"""Acceptance gate: every criterion at its stated bound, one line each.

Criteria with a stated wall-clock limit assert it (generously interpreted
for slow CI machines by a 3x factor); everything mathematical is exact.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import monoidforge
from monoidforge.acceptance import CRITERIA, run_selftest

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
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(monoidforge.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "monoidforge.cli", "selftest"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["results"]["all_passed"], proc.stdout
    assert len(report["results"]["criteria"]) == len(CRITERIA)
    assert elapsed < 300, f"full selftest took {elapsed:.0f}s in a fresh process"
