"""monoidforge benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs cold sessions of workload W (each a fresh child process, one at a
time) for about S seconds and prints, as the last line of stdout, one JSON
object with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it describe the run (environment, sample counts, failures).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import bisect
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from session import cli_env  # noqa: E402

SETUPS_PER_SESSION = 2  # set-up-only processes before each session
# Timings are scaled to a machine on which one run of the reference loop
# (session.reference_ms) takes REF_MS: each time is multiplied by REF_MS
# over the mean of the reference timings taken while it ran.  REF_MS is the
# loop's median time inside sessions on a 2-vCPU Xeon VM with Python 3.11.
REF_MS = 0.45
MIN_OP_SAMPLES = 110  # leaves at least ten beyond the p90
RUN_CAP_S = 120  # no new session starts after this
DEADLINE_S = 170  # a child still running then is killed and the run fails
START = time.perf_counter()


def child(workload, seed, env, *flags):
    """Run one session process (in its own process group, so a CLI process
    it started goes with it) and return its JSON report."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "session.py"),
         "--workload", workload, "--seed", str(seed), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - START)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("session child did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"session child failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "monoidforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest()[:16],
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def percentile(values, q, half_width=2.5):
    """The q-th percentile as the mean of the values ranked within
    half_width percentage points of it: one order statistic jumps between
    operations where the distribution is steep, this mean moves less."""
    s = sorted(values)
    lo = max(0, round((q - half_width) / 100 * len(s)))
    hi = min(len(s), max(lo + 1, round((q + half_width) / 100 * len(s))))
    return statistics.fmean(s[lo:hi])


def run_sessions(workload, seed, seconds, env, traced_pattern, setups=None):
    """Sessions back to back while the next one would end less than half a
    session past the measuring time, so that runs take --seconds on
    average; each entry of traced_pattern (cycled) says whether that
    session is traced.  When a setups list is given, set-up-only processes
    run before each session and their reports are appended to it."""
    reports = []
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        if setups is not None:
            setups += [child(workload, seed, env, "--setup-only")
                       for _ in range(SETUPS_PER_SESSION)]
        trace = traced_pattern[len(reports) % len(traced_pattern)]
        rep = child(workload, seed, env, *(["--trace"] if trace else []))
        rep["traced"] = trace
        reports.append(rep)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = (len(reports) >= len(traced_pattern)
                  and sum(len(r["ops_ms"]) for r in reports) >= MIN_OP_SAMPLES)
        if enough and (elapsed + statistics.median(durations) / 2 > seconds
                       or time.perf_counter() - START > RUN_CAP_S):
            return reports


def check_reports(reports):
    """Correctness across sessions: no recorded answer contradicted, no
    oracle complaint, and every session of the run gave the same answers."""
    problems = []
    for r in reports:
        problems += [f"answer differs from the seed record: {k}" for k in r["mismatches"]]
        problems += r["problems"]
    if len({r["answers"] for r in reports}) > 1:
        problems.append("sessions on the same inputs gave different answers"
                        " (traced and untraced runs included)")
    return problems


def reference_during(ref, starts, t0, t1):
    """Mean reference timing over [t0, t1]: of the samples started inside
    it, or, when none was (a short operation), of the last one before and
    the first one after.  ref holds the [start, end, ms] samples, starts
    their start times."""
    lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
    if lo == hi:
        lo, hi = max(lo - 1, 0), hi + 1
    return statistics.fmean(ms for _, _, ms in ref[lo:hi])


def scaled_ops(report):
    """The session's operation times (ms) at the reference speed."""
    ref = report["ref"]
    starts = [s for s, _, _ in ref]
    return [ms * REF_MS / reference_during(ref, starts, t0, t0 + ms / 1e3)
            for t0, ms in zip(report["ops_start_s"], report["ops_ms"])]


def scaled_setup(report):
    """Set-up time (s) at the reference speed."""
    ref = report["ref"]
    return report["setup_s"] * REF_MS / reference_during(
        ref, [s for s, _, _ in ref], 0.0, report["setup_s"])


def end_to_end(reports, setups):
    """End-to-end metrics from the sessions' and the set-up-only processes'
    reports, with the raw (unscaled) medians for the description line."""
    scaled = [scaled_ops(r) for r in reports]
    ops = [ms for s in scaled for ms in s]
    raw_ops = [ms for r in reports for ms in r["ops_ms"]]
    counts = {k: sum(r["outcomes"][k] for r in reports) for k in ("decided", "bounded", "error")}
    attempted = len(ops)
    metrics = {
        "wall_s": (statistics.median(sum(s) for s in scaled) / 1e3, "s"),
        "setup_s": (statistics.median(scaled_setup(r) for r in setups + reports), "s"),
        "op_p50_ms": (percentile(ops, 50), "ms"),
        "op_p90_ms": (percentile(ops, 90), "ms"),
        "decided_frac": (counts["decided"] / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }
    ref = [ms for r in reports for _, _, ms in r["ref"]]
    detail = {
        "sessions": len(reports),
        "operations_per_session": attempted // len(reports),
        "op_samples": attempted,
        "samples_beyond_p90": sum(1 for ms in ops if ms > metrics["op_p90_ms"][0]),
        "setup_samples": len(setups) + len(reports),
        "outcomes": counts,
        "fail_frac": f"{counts['bounded'] + counts['error']}/{attempted}",
        "reference_ms": {"median": statistics.median(ref), "min": min(ref), "scaled_to": REF_MS},
        "unscaled": {
            "wall_s": statistics.median(r["wall_s"] for r in reports),
            "setup_s": statistics.median(r["setup_s"] for r in setups + reports),
            "op_p50_ms": percentile(raw_ops, 50),
            "op_p90_ms": percentile(raw_ops, 90),
        },
    }
    return metrics, counts, detail


def per_layer(reports):
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    metrics = {}
    total_self = 0.0
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = (med(lambda r: r["trace"]["calls"].get(name, 0)), "count")
        self_s = med(lambda r: r["trace"]["self_s"].get(name, 0.0))
        metrics[f"{name}.self_s"] = (self_s, "s")
        total_self += self_s

    def count(key):
        return med(lambda r: r["trace"]["counts"].get(key, 0))

    for key in tracing.counted_names():
        metrics[f"{key}.calls"] = (count(key), "count")
    solve = {k: count(f"lattice.nonneg_solve.{k}") for k in ("witness", "no", "inconclusive")}
    for k, v in solve.items():
        metrics[f"lattice.nonneg_solve.{k}"] = (v, "count")
    solve_calls = metrics["lattice.nonneg_solve.calls"][0]
    metrics["lattice.nonneg_solve.decided_frac"] = (
        (solve["witness"] + solve["no"]) / solve_calls if solve_calls else 0.0, "ratio")
    for k in ("yes", "no", "inconclusive", "general_path"):
        metrics[f"monoid.member.{k}"] = (count(f"monoid.member.{k}"), "count")
    metrics["monoid.interned"] = (med(lambda r: r["extra"]["interned"]), "count")
    faces, subsets = count("cones.faces.count"), count("cones.faces.subsets")
    metrics["cones.faces.count"] = (faces, "count")
    metrics["cones.faces.subsets"] = (subsets, "count")
    metrics["cones.faces_per_subset"] = (faces / subsets if subsets else 0.0, "ratio")
    metrics["ideals.certification_errors"] = (count("ideals.certification_errors"), "count")
    metrics["squares.verify_cartesian.degrees"] = (
        count("squares.verify_cartesian.degrees"), "count")
    order = count("conductor.pic.order_sum")
    metrics["conductor.pic_enumerated_per_order"] = (
        count("conductor.pic.enumerated") / order if order else 0.0, "ratio")
    import_s = med(lambda r: r["extra"].get("import_s", 0.0))
    metrics["cli.import_s"] = (import_s, "s")
    traced_wall = med(lambda r: r["wall_s"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    metrics["bench.self_s"] = (traced_wall - total_self - import_s, "s")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "monoidforge", "__init__.py")):
        sys.stderr.write("error: monoidforge sources not found under src/\n")
        return 2
    for d in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(d, quiet=1):
            sys.stderr.write(f"error: byte-compiling {d} failed\n")
            return 2
    env = cli_env(ROOT)

    if args.trace:
        reports = run_sessions(args.workload, args.seed, args.seconds, env, (False, True))
        _, counts, detail = end_to_end([r for r in reports if not r["traced"]], [])
        metrics = per_layer(reports)
    else:
        setups = []
        reports = run_sessions(args.workload, args.seed, args.seconds, env, (False,), setups)
        metrics, counts, detail = end_to_end(reports, setups)

    problems = check_reports(reports)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **environment(), **detail, "problems": problems[:20]}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(counts.values()),
        "failed": counts["error"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
