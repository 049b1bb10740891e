"""Spans around the public functions of each monoidforge module, installed
from outside the package.

``install`` wraps every listed function and rebinds the wrapper under every
name that refers to the original in any loaded ``monoidforge`` module:
``from .monoid import member`` gives ``closure``, ``cones``, ``ideals``,
``algebra`` and ``squares`` their own binding, and patching
``monoid.member`` alone would miss those callers.  Methods are patched on
their class.

Spans are kept in memory as (name, start, end, parent) and turned into
per-function call counts and self times (duration minus the time covered
by child spans) when the session ends.
"""

import functools
import sys
import time

LAYERS = {
    "lattice": ["smith_normal_form", "solve_integer", "integer_kernel", "facet_normals",
                "grading_for", "nonneg_rational_feasible", "nonneg_solve"],
    "monoid": ["member", "units_submonoid", "minimalize", "smash", "CancellativeMonoid.slice"],
    "cones": ["face_lattice", "face_locate", "interior_member", "is_extremal"],
    "closure": ["normalize", "normalize_in_gp", "seminormalize", "hilbert_basis"],
    "ideals": ["radical", "prime_decomposition", "is_prime", "ideal_filtration"],
    "algebra": ["AlgebraElement.__mul__", "CancellativeAlgebra.keys_upto", "field_solve",
                "is_invertible"],
    "squares": ["build_seminormal_step", "build_positive_split", "build_pc",
                "build_face_filtration", "build_torsion_splitting", "build_prime_intersection",
                "verify_cartesian", "verify_reduced_iso", "Corner.basis_upto"],
    "conductor": ["conductor_data", "unit_group", "abelian_structure", "picard_by_patching",
                  "sk0_vanishing_certificate", "FiniteRingData.units"],
    "cli": ["main", "load_monoid", "emit"],
}
# called too often for a span each; counted only
COUNTED = {"rings": ["GaloisField.mul"]}

# extra counts, summed over a session
EXTRA_COUNTS = [
    "lattice.nonneg_solve.witness", "lattice.nonneg_solve.no",
    "lattice.nonneg_solve.inconclusive",
    "monoid.member.yes", "monoid.member.no", "monoid.member.inconclusive",
    "monoid.member.general_path",
    "cones.faces.count", "cones.faces.subsets",
    "ideals.certification_errors",
    "squares.verify_cartesian.degrees",
    "conductor.pic.enumerated", "conductor.pic.order_sum",
]


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def counted_names():
    return [f"{layer}.{fn}" for layer, fns in COUNTED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(EXTRA_COUNTS + counted_names(), 0)

    def summary(self):
        """Per-function calls and self seconds, plus the extra counts."""
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts)}


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, dotted.split(".")[-1], obj


# spans whose result feeds an extra count
_AFTER = {"lattice.nonneg_solve", "monoid.member", "cones.face_lattice",
          "squares.verify_cartesian", "conductor.picard_by_patching"}


def _after(tracer, name, result):
    """Outcome counts that need the result of a call."""
    c = tracer.counts
    if name == "lattice.nonneg_solve":
        c[f"lattice.nonneg_solve.{result.status}"] += 1
    elif name == "monoid.member":
        c[f"monoid.member.{result.status}"] += 1
    elif name == "cones.face_lattice":
        c["cones.faces.count"] += len(result)
    elif name == "squares.verify_cartesian":
        c["squares.verify_cartesian.degrees"] += len(result.per_degree)
    elif name == "conductor.picard_by_patching":
        c["conductor.pic.order_sum"] += result.order
        c["conductor.pic.enumerated"] += result.q ** result.semigroup.conductor


def package_modules():
    """The loaded monoidforge modules by name."""
    return {name: m for name, m in sys.modules.items()
            if m is not None and (name == "monoidforge" or name.startswith("monoidforge."))}


def rebind(original, replacement, modules):
    """Point every module-level name bound to original at replacement."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer):
    """Wrap the listed functions of every loaded monoidforge module."""
    mods = package_modules()
    perf = time.perf_counter
    spans, stack = tracer.spans, tracer.stack
    cert_error = mods["monoidforge.ideals"].CertificationError
    cones_mod = mods["monoidforge.cones"]

    def span_wrapper(name, fn):
        is_solve = name == "lattice.nonneg_solve"
        is_ideals = name.startswith("ideals.")
        is_faces = name == "cones.face_lattice"
        has_after = name in _AFTER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_solve and parent >= 0 and spans[parent][0] == "monoid.member":
                tracer.counts["monoid.member.general_path"] += 1
            idx = len(spans)
            rec = [name, perf(), 0.0, parent]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except cert_error:
                if is_ideals and not any(spans[i][0].startswith("ideals.") for i in stack[:-1]):
                    tracer.counts["ideals.certification_errors"] += 1
                raise
            finally:
                rec[2] = perf()
                stack.pop()
            if has_after:
                _after(tracer, name, result)
            if is_faces:
                cone = cones_mod._CONES.get(args[0])
                if cone is not None:
                    tracer.counts["cones.faces.subsets"] += 2 ** len(cone.normals)
            return result

        return wrapper

    def count_wrapper(name, fn):
        counts = tracer.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for table, make in ((LAYERS, span_wrapper), (COUNTED, count_wrapper)):
        for layer, fns in table.items():
            home = mods.get(f"monoidforge.{layer}")
            if home is None:
                continue
            for dotted in fns:
                owner, attr, original = _resolve(home, dotted)
                wrapped = make(f"{layer}.{dotted}", original)
                if "." in dotted:
                    setattr(owner, attr, wrapped)
                else:
                    rebind(original, wrapped, mods.values())
    return tracer
