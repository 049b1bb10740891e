"""The benchmark's API sessions run clean from this checkout.

`perfbench/run.py` exits with code 1 when a session child fails: an
exception inside one timed operation is counted as an outcome, so a child
fails only while it builds its inputs or checks its answers.  Each session
here is a fresh `perfbench/session.py` process with the environment the
benchmark gives its children (`session.cli_env`: this checkout's `src`,
PYTHONHASHSEED=0, no membership-budget override), at three seeds.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SESSION = os.path.join(ROOT, "perfbench", "session.py")


@pytest.mark.parametrize("seed", [1601, 7, 42])
@pytest.mark.parametrize("workload", ["positive-session", "units-session", "squares-conductor"])
def test_session_exits_clean(workload, seed):
    env = dict(os.environ)
    env.pop("MONOIDFORGE_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, SESSION, "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["mismatches"] == []
    assert report["problems"] == []
    assert report["outcomes"]["error"] == 0, report["outcomes"]
