"""CLI entry of the cli-cold sessions:
`python3 perfbench/clishim.py OUT.json [--trace] <monoidforge args>`.

Runs the CLI's own ``main`` on the arguments, as `python3 -m
monoidforge.cli` does, and when the process ends writes to OUT.json the
import time of monoidforge.cli, the process's peak resident memory and,
with --trace, the summary of the benchmark's spans (installed after the
import).  The peak is VmHWM, which starts afresh at exec, where ru_maxrss
would count the image of the session process that started this one.
Stdout and the exit code are the CLI's.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    t0 = time.perf_counter()
    import monoidforge.cli as cli

    report = {"import_s": time.perf_counter() - t0}
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        report["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            report["summary"] = tracer.summary()
            report["interned"] = len(sys.modules["monoidforge.monoid"]._INTERN)
        with open(out_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
