"""One cold session: a fresh process imports monoidforge, generates the
seeded inputs, runs every operation of the session once, in order, and
prints one JSON line with its timings, outcomes and checks.

    python3 perfbench/session.py --workload W --seed N [--trace] [--setup-only]

``run.py`` starts this as a child process; run it by hand to look at a
single session.
"""

import gc
import os
import signal
import time

T_START = time.perf_counter()
REF_PERIOD_S = 0.02  # how often the speed of the machine is sampled


_REF_LIST = list(range(100000))  # about 3.6 MB, beyond the CPU's fast caches
_REF_MOD = 3 ** 300


def reference_ms():
    """One timing of a fixed pure-Python loop, the kind of work monoidforge
    does: scattered reads from a large list, big-integer products, short
    tuples; about 0.4 ms.  The garbage collector is off meanwhile, so the
    timing does not grow with the heap the session has built."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    data, n = _REF_LIST, len(_REF_LIST)
    acc, x, j = 0, 7, 0
    for i in range(250):
        j = (j * 1103515245 + 12345) % n
        acc += data[j]
        x = (x * x + i) % _REF_MOD
        t = (i % 7, i % 11)
        acc += t[0] * t[1]
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt * 1e3


class SpeedProbe:
    """Times the reference loop every REF_PERIOD_S, from a timer signal,
    for the whole life of the process, so that each operation and the
    set-up can be set against the speed of the machine while they ran (on
    a shared host it changes many times a second).  Samples are
    [start, end, ms], times in seconds from the start of the process."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        ms = reference_ms()
        self.samples.append([t0 - T_START, time.perf_counter() - T_START, ms])

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.samples

    def busy_s(self, t0, n0):
        """Time the probe took since time t0, given n0 = the sample count
        taken just before: what an operation timed from t0 must not count."""
        since = t0 - T_START
        return sum(max(0.0, end - max(start, since)) for start, end, _ in self.samples[n0:])


if __name__ == "__main__":
    # One CPU for the session and the CLI processes it starts, the CPU whose
    # speed the probe samples; the probe starts first thing, so that set-up
    # is sampled too.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    PROBE = SpeedProbe()
else:
    PROBE = None

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CLI_REPORTS = "perfbench/_work/cli-reports"


def cli_env(root):
    """Child environment: the package from this checkout, a pinned hash
    seed, and no membership-budget override."""
    env = dict(os.environ)
    env.pop("MONOIDFORGE_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(root, env, argv, trace=False, report_out=None):
    """One `monoidforge --format json ...` invocation in a fresh process:
    `python3 -m monoidforge.cli`, or through clishim.py, which writes its
    report to report_out, when that is given."""
    if report_out is not None:
        cmd = [sys.executable, os.path.join(HERE, "clishim.py"), report_out]
        cmd += ["--trace"] if trace else []
    else:
        cmd = [sys.executable, "-m", "monoidforge.cli"]
    proc = subprocess.run(
        cmd + ["--format", "json"] + list(argv),
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_pool(workload):
    with open(os.path.join(HERE, "pool", f"{workload}.json")) as fh:
        return json.load(fh)


def _merge(total, part):
    for section in ("calls", "self_s", "counts"):
        for k, v in part[section].items():
            total[section][k] = total[section].get(k, 0) + v


def run_api_session(mf, session, tracer):
    blocks = [wl.Block(mf, b) for b, _ in session]
    setup_s = time.perf_counter() - T_START - PROBE.busy_s(T_START, 0)
    if tracer is not None:
        tracing.install(tracer)
    records = []
    start = time.perf_counter()
    for (spec, ops), block in zip(session, blocks):
        for op in ops:
            n0 = len(PROBE.samples)
            t0 = time.perf_counter()
            try:
                res, err = wl.call(block, op), None
            except Exception as e:  # noqa: BLE001 - an outcome to classify
                res, err = None, e
            dt = time.perf_counter() - t0 - PROBE.busy_s(t0, n0)
            records.append((op, spec, res, err, t0, dt))
    wall_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = []
    for op, spec, res, err, t0, dt in records:
        out = wl.outcome(op["kind"], res, err)
        problems = []
        if out["outcome"] == "decided":
            monoids = spec.get("monoids", {})
            problems = oracles.check(op["kind"], op["args"], monoids.get, res)
        results.append((op, out, t0, dt, problems))
    extra = {"interned": len(sys.modules["monoidforge.monoid"]._INTERN)}
    return setup_s, wall_s, peak, results, extra


def run_cli_session(session, files, tracer):
    wl.write_cli_files(ROOT, files)
    setup_s = time.perf_counter() - T_START - PROBE.busy_s(T_START, 0)
    env = cli_env(ROOT)
    report_dir = os.path.join(ROOT, CLI_REPORTS)
    os.makedirs(report_dir, exist_ok=True)
    records = []
    start = time.perf_counter()
    for i, (spec, ops) in enumerate(session):
        for op in ops:
            argv = op["args"]["argv"]
            out_path = os.path.join(report_dir, f"cli-{i}.json")
            n0 = len(PROBE.samples)
            t0 = time.perf_counter()
            code, stdout, stderr = run_cli(ROOT, env, argv, tracer is not None, out_path)
            dt = time.perf_counter() - t0 - PROBE.busy_s(t0, n0)
            records.append((op, code, stdout, stderr, t0, dt, out_path))
    wall_s = time.perf_counter() - start
    peak = 0.0
    results = []
    extra = {"interned": 0, "import_s": 0.0}
    summary = {"calls": {}, "self_s": {}, "counts": {}}
    for op, code, stdout, stderr, t0, dt, out_path in records:
        out = wl.cli_outcome(code, stdout, stderr)
        problems = []
        if out["outcome"] == "decided":
            problems = oracles.check_cli(op["args"]["argv"], stdout)
        results.append((op, out, t0, dt, problems))
        if not os.path.exists(out_path):
            continue  # the process died before its report; counted as an error
        with open(out_path) as fh:
            part = json.load(fh)
        os.remove(out_path)
        peak = max(peak, part["peak_rss_mb"])
        if tracer is not None:
            _merge(summary, part["summary"])
            extra["import_s"] += part["import_s"]
            extra["interned"] = max(extra["interned"], part["interned"])
    if tracer is not None:
        tracer.cli_summary = summary
    return setup_s, wall_s, peak, results, extra


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "cli-cold":
        import monoidforge.cli  # noqa: F401 - the import every CLI call pays
    import monoidforge as mf

    pool = load_pool(args.workload)
    session = wl.select(args.workload, pool, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if args.setup_only:
        if args.workload == "cli-cold":
            wl.write_cli_files(ROOT, pool["files"])
        else:
            [wl.Block(mf, b) for b, _ in session]
        setup_s = time.perf_counter() - T_START - PROBE.busy_s(T_START, 0)
        # at least one sample after set-up, to set it against
        n0 = len(PROBE.samples)
        while len(PROBE.samples) == n0:
            reference_ms()
        print(json.dumps({"setup_s": setup_s, "ref": PROBE.stop()}))
        return
    if args.workload == "cli-cold":
        setup_s, wall_s, peak, results, extra = run_cli_session(session, pool["files"], tracer)
    else:
        setup_s, wall_s, peak, results, extra = run_api_session(mf, session, tracer)
    ref = PROBE.stop()

    counts = {"decided": 0, "bounded": 0, "error": 0}
    mismatches, problems, answers = [], [], hashlib.sha256()
    for op, out, t0, dt, probs in results:
        counts[out["outcome"]] += 1
        answers.update(f"{op['key']}={out['answer'] or out['outcome']};".encode())
        if (out["outcome"] == "decided" and op["outcome"] == "decided"
                and out["answer"] != op["answer"]):
            mismatches.append(op["key"])
        problems += probs
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
        "ops_ms": [dt * 1e3 for _, _, _, dt, _ in results],
        "ops_start_s": [t0 - T_START for _, _, t0, _, _ in results],
        "ref": ref,
        "outcomes": counts,
        "mismatches": mismatches,
        "problems": problems,
        "answers": answers.hexdigest(),
        "extra": extra,
    }
    if tracer is not None:
        report["trace"] = getattr(tracer, "cli_summary", None) or tracer.summary()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
