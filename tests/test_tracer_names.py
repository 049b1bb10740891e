"""Every function the benchmark's tracer wraps by name still exists.

perfbench/tracing.py resolves each LAYERS and COUNTED entry with a bare
getattr when a traced run starts, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` and nothing else; this test catches that.  The
tracer module is loaded from its file and only read, never installed.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = 0
    for table in (tracing.LAYERS, tracing.COUNTED):
        for layer, dotted_names in table.items():
            module = importlib.import_module(f"monoidforge.{layer}")
            for dotted in dotted_names:
                _, attr, fn = tracing._resolve(module, dotted)
                assert callable(fn), f"{layer}.{dotted}"
                assert attr == dotted.split(".")[-1]
                names += 1
    assert names == len(tracing.span_names()) + len(tracing.counted_names())


# installs the tracer, so it runs in a process of its own
SPAN_PROBE = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import monoidforge
from monoidforge.algebra import CancellativeAlgebra, MonomialQuotientAlgebra, PcAlgebra
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, PcMonoid
from monoidforge.rings import GF
spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.install(tracing.Tracer())
N = CancellativeMonoid(AbelianGroupShape(2), [(1, 0), (0, 1)])
for host in (
    CancellativeAlgebra(N, GF(2)),
    PcAlgebra(PcMonoid(N, [(1, 1)]), GF(2)),
    MonomialQuotientAlgebra(N, GF(2), lambda k: k[0] >= 2, "N/x^2"),
):
    host.keys_upto(3)
print(json.dumps(tracer.summary()["calls"]))
"""


def test_keys_upto_span_covers_cancellative_hosts_only():
    """The span algebra.CancellativeAlgebra.keys_upto is patched on that
    class alone: PcAlgebra and MonomialQuotientAlgebra share its keys_upto
    through their common base but must not count as calls of it."""
    proc = subprocess.run(
        [sys.executable, "-c", SPAN_PROBE, SRC, TRACING],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["algebra.CancellativeAlgebra.keys_upto"] == 1
