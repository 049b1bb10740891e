import json
import os
import subprocess
import sys

import pytest

from helpers import run_fresh

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CUSP = {"ambient": {"rank": 1, "torsion": []}, "generators": [[2], [3]]}
Z2P = {"ambient": {"rank": 2, "torsion": []}, "generators": [[1, 0], [0, 1]]}
SMASH = {"ambient": {"rank": 1, "torsion": [2]}, "generators": [[1, 0], [1, 1]]}
PC = {
    "ambient": {"rank": 2, "torsion": []},
    "generators": [[1, 0], [0, 1]],
    "collapse": {"generators": [[1, 1]]},
}


def run_cli(args, files=None, tmp_path=None):
    paths = {}
    if files:
        for name, data in files.items():
            p = tmp_path / name
            p.write_text(json.dumps(data))
            paths[name] = str(p)
        args = [paths.get(a, a) for a in args]
    return run_fresh(["-m", "monoidforge.cli", *args], timeout=300)


def test_analyze_cusp(tmp_path):
    proc = run_cli(["analyze", "cusp.json"], {"cusp.json": CUSP}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    r = out["results"]
    assert r["cancellative"] and r["torsion_free"] and r["positive"]
    assert r["rank"] == 1
    assert not r["seminormal"] and not r["normal"]


def test_analyze_pc(tmp_path):
    proc = run_cli(["analyze", "pc.json"], {"pc.json": PC}, tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["results"]["partially_cancellative"]
    assert not out["results"]["cancellative"]


def test_faces_z2(tmp_path):
    proc = run_cli(["faces", "z2.json"], {"z2.json": Z2P}, tmp_path)
    out = json.loads(proc.stdout)
    assert len(out["results"]["faces"]) == 4


def test_normalize_and_seminormalize(tmp_path):
    proc = run_cli(["normalize", "cusp.json"], {"cusp.json": CUSP}, tmp_path)
    out = json.loads(proc.stdout)
    assert out["results"]["added"] == [[1]]
    proc = run_cli(["seminormalize", "cusp.json"], {"cusp.json": CUSP}, tmp_path)
    out = json.loads(proc.stdout)
    assert out["results"]["added"] == [[1]]


def test_interior_exit_codes(tmp_path):
    proc = run_cli(
        ["interior", "z2.json", "--element", "1,1"], {"z2.json": Z2P}, tmp_path
    )
    assert proc.returncode == 0
    proc = run_cli(
        ["interior", "z2.json", "--element", "1,0"], {"z2.json": Z2P}, tmp_path
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["results"]["interior"] is False


def test_budget_is_accepted_and_ignored(tmp_path):
    mixed = {"ambient": {"rank": 2, "torsion": []}, "generators": [[1, 0], [-1, 0], [0, 1]]}
    args = ["interior", "mixed.json", "--element=-3,1"]
    plain = run_cli(args, {"mixed.json": mixed}, tmp_path)
    budgeted = run_cli(["--budget", "1", *args], {"mixed.json": mixed}, tmp_path)
    assert plain.returncode == budgeted.returncode == 0, plain.stderr
    assert plain.stdout == budgeted.stdout
    assert json.loads(plain.stdout)["results"]["interior"] is True


def test_ideal_commands(tmp_path):
    proc = run_cli(
        ["ideal", "radical", "z2.json", "--ideal", "[[2,0]]"],
        {"z2.json": Z2P},
        tmp_path,
    )
    out = json.loads(proc.stdout)
    assert out["results"]["generators"] == [[1, 0]]
    proc = run_cli(
        ["ideal", "primes", "z2.json", "--ideal", "[[1,1]]", "--degree-bound", "10"],
        {"z2.json": Z2P},
        tmp_path,
    )
    out = json.loads(proc.stdout)
    assert len(out["results"]["primes"]) == 2
    proc = run_cli(["ideal", "filtration", "z2.json"], {"z2.json": Z2P}, tmp_path)
    out = json.loads(proc.stdout)
    assert len(out["results"]["chain"]) == 4


def test_square_command(tmp_path):
    proc = run_cli(
        [
            "square", "build", "seminormal-step", "cusp.json",
            "--element", "1", "--ring", "F2", "--verify",
            "--degree-bound", "6", "--reduced-iso",
        ],
        {"cusp.json": CUSP},
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    sq = out["results"]["squares"][0]
    assert sq["verification"]["cartesian"] is True
    assert out["results"]["reduced_iso"]["isomorphism"] is True


def test_square_apply_with_a_negative_exponent(tmp_path):
    """--apply parses exponent vectors with negative entries: the R[M]
    corner of the positive-split square of <(1,0),(-1,0),(0,1)> holds the
    key (-1,0), a unit, which the right leg keeps."""
    units = {"ambient": {"rank": 2, "torsion": []}, "generators": [[1, 0], [-1, 0], [0, 1]]}
    proc = run_cli(
        ["square", "build", "positive-split", "u.json", "--ring", "F2",
         "--apply", "right:x[-1,0]"],
        {"u.json": units},
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["apply"]["image"] == "1*x[-1, 0]"


def test_square_apply_with_a_dangling_sign_is_a_usage_error(tmp_path):
    """An --apply literal with a sign that no term follows exits 2."""
    proc = run_cli(
        ["square", "build", "seminormal-step", "cusp.json", "--element", "1",
         "--ring", "F5", "--apply", "top:1+"],
        {"cusp.json": CUSP},
        tmp_path,
    )
    assert proc.returncode == 2, proc.stdout
    assert "sign without a term" in proc.stderr


def test_square_negative_degree_bound_is_a_usage_error(tmp_path):
    """A negative bound checks no truncation: it exits 2 instead of
    reporting a vacuous Cartesian square or isomorphism."""
    base = ["square", "build", "seminormal-step", "cusp.json", "--element", "1", "--ring", "F2"]
    for extra in (["--verify"], ["--reduced-iso"]):
        proc = run_cli(base + extra + ["--degree-bound", "-1"], {"cusp.json": CUSP}, tmp_path)
        assert proc.returncode == 2, (extra, proc.stdout)
        assert "degree bound must be >= 0, got -1" in proc.stderr
        assert proc.stdout == ""
    proc = run_cli(
        ["square", "build", "face-filtration", "z2.json", "--k", "2", "--ring", "F2",
         "--degree-bound", "-1"],
        {"z2.json": Z2P},
        tmp_path,
    )
    assert proc.returncode == 2 and "degree bound must be >= 0" in proc.stderr


def test_square_torsion_pair(tmp_path):
    zp = {"ambient": {"rank": 1, "torsion": []}, "generators": [[1]]}
    proc = run_cli(
        [
            "square", "build", "torsion-splitting", "zp.json",
            "--n-list", "2", "--ring", "F2", "--verify", "--degree-bound", "6",
        ],
        {"zp.json": zp},
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["results"]["squares"]) == 2
    assert all(s["verification"]["cartesian"] for s in out["results"]["squares"])


def test_pic_and_sk0(tmp_path):
    proc = run_cli(["pic", "--semigroup", "2,3", "--q", "5"])
    out = json.loads(proc.stdout)
    assert out["results"]["picard_order"] == 5
    proc = run_cli(["sk0cert", "--semigroup", "3,4,5", "--q", "3"])
    out = json.loads(proc.stdout)
    assert out["results"]["verdict"].startswith("SK0")
    assert len(out["results"]["slots"]) == 6


def test_pic_past_the_enumeration_wall():
    # <3,5>: gaps 1, 2, 4, 7 and q^c = 3^8 = 6561 elements of B/c
    proc = run_cli(["pic", "--semigroup", "3,5", "--q", "3"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["picard_order"] == 81


def test_usage_errors(tmp_path):
    # unknown flag
    proc = run_cli(["faces", "--bogus"])
    assert proc.returncode == 2
    # malformed JSON reports a position
    p = tmp_path / "bad.json"
    p.write_text('{"ambient": {"rank": 1')
    proc = run_cli(["analyze", str(p)])
    assert proc.returncode == 2
    assert "position" in proc.stderr
    # missing required option
    proc = run_cli(["ideal", "radical", "z2.json"], {"z2.json": Z2P}, tmp_path)
    assert proc.returncode == 2


def test_json_determinism(tmp_path):
    a = run_cli(["faces", "z2.json"], {"z2.json": Z2P}, tmp_path)
    b = run_cli(["faces", "z2.json"], {"z2.json": Z2P}, tmp_path)
    assert a.stdout == b.stdout


def test_text_format(tmp_path):
    proc = run_cli(
        ["--format", "text", "analyze", "cusp.json"], {"cusp.json": CUSP}, tmp_path
    )
    assert proc.returncode == 0
    assert "elapsed" in proc.stdout
    assert "cancellative" in proc.stdout


def test_cli_import_loads_no_dataclasses_and_every_module():
    """A cold CLI process pays for what importing monoidforge.cli loads:
    dataclasses (with inspect, dis, ast and tokenize behind it) stays out,
    and every monoidforge module is loaded up front, so tracing sees them
    all.  Run without site so nothing but the import loads modules."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import monoidforge.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert {m for m in loaded if m.startswith("monoidforge")} == {
        "monoidforge",
        *(
            f"monoidforge.{m}"
            for m in (
                "acceptance", "algebra", "cli", "closure", "conductor", "cones",
                "ideals", "lattice", "monoid", "rings", "squares",
            )
        ),
    }
