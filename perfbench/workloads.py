"""Workload definitions: the operation pools, the seeded choice of one
session from a pool, and the execution of a single operation.

A pool is the fixed set of every operation a workload can run.  It is
built once by ``record.py`` and stored, with the canonical answer of every
operation at the recording commit, in ``pool/<workload>.json``.  A session
is the list of operations one cold process runs; ``select`` draws it from
the pool with the workload seed, so any seed gives a session whose answers
are all on record.

Operations are grouped in blocks that share a monoid (or a square, or a
semigroup) and run in order, as a user analysing one object would.
"""

import hashlib
import json
import os
import random
import re

CLI_WORK = "perfbench/_work/cli"

WORKLOADS = ("positive-session", "units-session", "squares-conductor", "cli-cold")

# Failures in the sense of the benchmark: bounded or refused answers.  Any
# other exception is an error of the program.
BOUNDED_EXCEPTIONS = ("InconclusiveError", "CertificationError", "ValueError")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:20]


def op_key(block_id, kind, args):
    return f"{block_id}:{kind}:{canonical_json(args)}"


# ---------------------------------------------------------------------------
# session selection


# Blocks of a class are sorted by their cost at the recording commit and cut
# into chunks of this size (or of these sizes, in turn, for a tuple); the
# seed picks one block of each chunk, so a session costs about the same for
# every seed while its inputs vary.  Classes not listed (and the "core"
# blocks, the costliest ones) run whole.  The budget probes of units-session
# are the torsion one (1.4 s), always run, and one of the three mixed-unit
# ones (2.0 s each).
CHUNKS = {
    "positive-session": {"random": 2, "moment": 3},
    "units-session": {"probe": (1, 3)},
    "cli-cold": {"light": 3},
}


def chunks(blocks, size):
    """Cut blocks into chunks of size blocks, or of the sizes of a tuple."""
    if isinstance(size, int):
        return [blocks[i:i + size] for i in range(0, len(blocks), size)]
    out, i = [], 0
    for n in size:
        out.append(blocks[i:i + n])
        i += n
    assert i == len(blocks), "chunk sizes must cover the class"
    return out


def block_cost(block):
    return sum(op["seed_ms"] for op in block["ops"])


def select(workload, pool, seed):
    """The seeded session: a list of (block, [ops]) in run order."""
    rng = random.Random(f"{workload}/{seed}")
    classes = {}
    for b in pool["blocks"]:
        classes.setdefault(b["cls"], []).append(b)
    chosen = []
    for cls in sorted(classes):
        size = next((n for p, n in CHUNKS.get(workload, {}).items() if cls.startswith(p)), 1)
        group = sorted(classes[cls], key=lambda b: (block_cost(b), b["id"]))
        chosen += [rng.choice(chunk) for chunk in chunks(group, size)]
    rng.shuffle(chosen)
    if workload == "units-session":
        return _sample_queries(rng, chosen)
    return [(b, b["ops"]) for b in chosen]


def _sample_queries(rng, blocks):
    """Half of the membership queries of the torsion and mixed-unit blocks,
    drawn within each stratum of (block class, recorded outcome), so the
    share of bounded answers is the pool's share in every session."""
    strata = {}
    for b in blocks:
        if b["cls"] != "probe":
            for op in b["ops"]:
                if op["kind"] == "member":
                    strata.setdefault((b["cls"], op["outcome"]), []).append(op["key"])
    keep = set()
    for key in sorted(strata):
        keys = strata[key]
        keep.update(rng.sample(keys, (len(keys) + 1) // 2))
    return [
        (b, [op for op in b["ops"]
             if op["kind"] != "member" or b["cls"] == "probe" or op["key"] in keep])
        for b in blocks
    ]


# ---------------------------------------------------------------------------
# building the objects a block works on


def make_monoid(mf, spec):
    amb = mf.AbelianGroupShape(spec["rank"], tuple(spec.get("torsion", ())))
    return mf.CancellativeMonoid(amb, [tuple(g) for g in spec["gens"]])


def _square_instance(mf, name, ring_name):
    """The Milnor-square instances of the acceptance suite, by name."""
    R = mf.ring_from_name(ring_name)
    M = mf.CancellativeMonoid
    Z1, Z2 = mf.AbelianGroupShape(1), mf.AbelianGroupShape(2)
    z2p = M(Z2, [(1, 0), (0, 1)])
    if name == "seminormal-step":
        return mf.build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), R)
    if name == "positive-split":
        return mf.build_positive_split(M(Z2, [(1, 0), (-1, 0), (0, 1)]), R)
    if name == "pc":
        return mf.build_pc(z2p, [(1, 1)], R)
    if name == "face-filtration":
        return mf.build_face_filtration(z2p, 2, R, kernel_bound=10)[0]
    if name in ("torsion-splitting-1", "torsion-splitting-2"):
        pair = mf.build_torsion_splitting(M(Z1, [(1,)]), [2], R)
        return pair[0] if name.endswith("1") else pair[1]
    if name == "prime-intersection":
        return mf.build_prime_intersection(z2p, [(1, 0)], [(0, 1)], R)
    raise NotImplementedError(f"unknown square instance {name!r}")


# ---------------------------------------------------------------------------
# running one operation


class Block:
    """Objects shared by the operations of one block."""

    def __init__(self, mf, spec):
        self.mf = mf
        self.monoids = {
            name: make_monoid(mf, s) for name, s in spec.get("monoids", {}).items()
        }
        self.square = None


def call(block, op):
    """Make the public call of one operation; returns its raw result."""
    mf = block.mf
    kind, a = op["kind"], op["args"]
    M = block.monoids.get(a.get("on", "M"))
    if kind == "normalize":
        return mf.normalize(M)
    if kind == "normalize_in_gp":
        return mf.normalize_in_gp(M)
    if kind == "seminormalize":
        return mf.seminormalize(M)
    if kind == "face_lattice":
        return mf.face_lattice(M)
    if kind == "member":
        return mf.member(M, tuple(a["x"]))
    if kind == "interior_member":
        return mf.interior_member(M, tuple(a["x"]))
    if kind == "face_locate":
        return mf.face_locate(M, tuple(a["x"]))
    if kind == "is_extremal":
        return mf.is_extremal(M, [tuple(g) for g in a["gens"]])
    if kind == "units_submonoid":
        return mf.units_submonoid(M)
    if kind == "radical":
        return mf.radical(mf.MonoidIdeal(M, [tuple(g) for g in a["ideal"]]))
    if kind == "prime_decomposition":
        return mf.prime_decomposition(mf.MonoidIdeal(M, [tuple(g) for g in a["ideal"]]))
    if kind == "smash":
        T = mf.CancellativeMonoid(mf.AbelianGroupShape(0, (a["d"],)), [(1,)])
        return mf.smash(block.monoids["L"], T)
    if kind == "build":
        block.square = _square_instance(mf, a["square"], a["ring"])
        return block.square
    if kind == "verify_cartesian":
        return mf.verify_cartesian(block.square, degree_bound=a["bound"])
    if kind == "verify_corrupt":
        return mf.verify_cartesian(mf.corrupt_square(block.square), degree_bound=a["bound"])
    if kind == "verify_reduced_iso":
        return mf.verify_reduced_iso(block.square, degree_bound=a["bound"])
    if kind == "picard_by_patching":
        return mf.picard_by_patching(mf.NumericalSemigroup(a["S"]), a["q"])
    if kind == "sk0_vanishing_certificate":
        return mf.sk0_vanishing_certificate(mf.NumericalSemigroup(a["S"]), a["q"])
    if kind == "conductor_data":
        return mf.conductor_data(mf.NumericalSemigroup(a["S"]), a["q"])
    raise NotImplementedError(f"unknown operation kind {kind!r}")


def _gens(gs):
    return sorted(list(g) for g in gs)


def answer(kind, res):
    """Canonical, witness-free form of a decided answer; None when the
    result is a bounded non-answer ("inconclusive")."""
    if kind in ("normalize", "normalize_in_gp", "seminormalize"):
        return {"generators": _gens(res.monoid.generators), "added": _gens(res.added)}
    if kind == "face_lattice":
        return [[f.dim, [list(r) for r in f.rays]] for f in res]
    if kind == "member":
        return None if res.status == "inconclusive" else res.status
    if kind in ("interior_member",):
        return bool(res)
    if kind == "face_locate":
        return res.to_json()
    if kind == "is_extremal":
        return bool(res[0])
    if kind == "units_submonoid":
        return _gens(res)
    if kind == "radical":
        return {"generators": _gens(res.ideal.generators), "method": res.method, "bound": res.bound}
    if kind == "prime_decomposition":
        return res.to_json()
    if kind == "smash":
        return {"rank": res.ambient.free_rank, "torsion": list(res.ambient.torsion),
                "generators": _gens(res.generators)}
    if kind == "build":
        return {"kind": res.kind, "corners": {k: c.name for k, c in sorted(res.corners.items())}}
    if kind in ("verify_cartesian", "verify_corrupt"):
        return {"ok": res.ok, "method": res.method, "per_degree": res.per_degree}
    if kind == "verify_reduced_iso":
        return res.to_json()
    if kind == "picard_by_patching":
        return {"order": res.order, "invariants": list(res.invariants)}
    if kind in ("sk0_vanishing_certificate", "conductor_data"):
        return res.to_json()
    raise NotImplementedError(f"unknown operation kind {kind!r}")


def outcome(kind, res, err):
    """Outcome record of one operation: decided (with the answer digest),
    bounded (an inconclusive answer or a documented refusal), or error."""
    if err is not None:
        name = type(err).__name__
        kind_ = "bounded" if name in BOUNDED_EXCEPTIONS else "error"
        return {"outcome": kind_, "answer": None, "error": name}
    ans = answer(kind, res)
    if ans is None:
        return {"outcome": "bounded", "answer": None}
    return {"outcome": "decided", "answer": digest(ans)}


# ---------------------------------------------------------------------------
# the CLI workload

# selftest lines and details carry wall-clock times
_TIMES = re.compile(r"\d+\.\d+s\b")


def cli_outcome(code, stdout, stderr):
    """Exit 0/1 with a JSON report is a decided answer; the digest covers
    the exit code and the stdout bytes (selftest timings masked).  Exit 3
    (inconclusive), a certification failure and a usage refusal are bounded
    outcomes; anything else, such as a traceback, is an error."""
    if code in (0, 1) and stdout.strip():
        text = _TIMES.sub("<t>s", stdout)
        return {"outcome": "decided", "answer": digest([code, text]), "exit": code}
    if code in (2, 3) or stderr.startswith(("certification failure:", "inconclusive:")):
        return {"outcome": "bounded", "answer": None, "exit": code}
    return {"outcome": "error", "answer": None, "exit": code}


def write_cli_files(root, files):
    """Write the monoid files the CLI invocations read (relative paths, so
    the recorded stdout bytes do not depend on where the checkout lives)."""
    for name, data in files.items():
        path = os.path.join(root, CLI_WORK, f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(canonical_json(data) + "\n")
