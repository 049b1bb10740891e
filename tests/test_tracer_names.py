"""Every function the benchmark's tracer wraps by name still exists.

perfbench/tracing.py resolves each LAYERS and COUNTED entry with a bare
getattr when a traced run starts, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` and nothing else; this test catches that.  The
tracer module is loaded from its file and only read, never installed.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")


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
