"""Build the operation pools and record every answer at the current commit.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/pool/<workload>.json``: the blocks of operations a
session can draw from, each operation with its recorded outcome
("decided" or "bounded"), the digest of its canonical answer, and the time
it took here (informational only).  Inputs come from fixed generator seeds,
so re-running this at the same commit rewrites the same pools and answers.
"""

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import monoidforge as mf  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from session import cli_env, run_cli  # noqa: E402


def spec_of(M):
    return {
        "rank": M.ambient.free_rank,
        "torsion": list(M.ambient.torsion),
        "gens": sorted(list(g) for g in M.generators),
    }


def op(kind, **args):
    return {"kind": kind, "args": args}


def random_positive_gens(rng, rank, lo=2, hi=5, min_gens=2):
    """The acceptance suite's range: lo..hi draws with entries 0..2, kept
    once at least min_gens distinct nonzero vectors remain."""
    while True:
        n = rng.randint(lo, hi)
        gens = {tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(n)}
        gens = sorted(list(g) for g in gens if any(g))
        if len(gens) >= min_gens:
            return gens


def distinct(draw, n):
    """n distinct draws (fewer when the draws keep repeating)."""
    out = []
    for _ in range(20 * n):
        x = draw()
        if x not in out:
            out.append(x)
            if len(out) == n:
                break
    return out


def combo(rng, gens, k):
    x = [0] * len(gens[0])
    for _ in range(k):
        g = rng.choice(gens)
        x = [a + b for a, b in zip(x, g)]
    return x


def radical_gens(M, ideal):
    """Generators of the radical (the input of prime_decomposition), or None
    when its certification fails; the radical operation records that."""
    try:
        rad = mf.radical(mf.MonoidIdeal(M, [tuple(g) for g in ideal]))
    except mf.CertificationError:
        return None
    return sorted(list(g) for g in rad.ideal.generators)


# ---------------------------------------------------------------------------
# pools


def positive_pool():
    rng = random.Random(1001)
    blocks = []
    for i in range(96):
        rank = rng.choice([1, 2, 2, 2, 3, 3])
        gens = random_positive_gens(rng, rank)
        M = mf.CancellativeMonoid(mf.AbelianGroupShape(rank), gens)
        spec = spec_of(M)
        members = distinct(lambda: combo(rng, spec["gens"], rng.randint(2, 4)), 2)
        nonmembers = []
        for _ in range(40):
            x = [rng.randint(0, 3) for _ in range(rank)]
            if any(x) and x not in nonmembers and not oracles.graded_reachable(spec, x):
                nonmembers.append(x)
                if len(nonmembers) == 2:
                    break
        ideal = [combo(rng, spec["gens"], rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        ops = [op("normalize"), op("seminormalize"), op("face_lattice")]
        ops += [op("member", x=x) for x in members + nonmembers]
        ops += [op("interior_member", x=x) for x in members]
        ops += [op("face_locate", x=x) for x in members]
        ops.append(op("radical", ideal=ideal))
        rad = radical_gens(M, ideal)
        if rad is not None:
            ops.append(op("prime_decomposition", ideal=rad))
        if i % 4 == 0:
            sub = rng.sample(spec["gens"], rng.randint(1, min(2, len(spec["gens"]))))
            ops += [op("normalize_in_gp"), op("is_extremal", gens=sorted(sub))]
        blocks.append({"id": f"p{i:03d}", "cls": f"random-r{rank}", "monoids": {"M": spec}, "ops": ops})
    for rank, sizes in ((3, range(8, 16)), (4, range(6, 10))):
        for n in sizes:
            for v in range(3):
                # shifted points i = v..v+n-1: the same cone up to a
                # rational change of coordinates, with other entries
                pts = list(range(v, v + n))
                gens = [[i ** j for j in range(rank)] for i in pts]
                elems = [combo(rng, gens, 2)]
                # rank generators spread along the curve: no facet holds
                # them all, so their sum is interior
                spread = [gens[k * (n - 1) // (rank - 1)] for k in range(rank)]
                interior = [sum(c) for c in zip(*spread)]
                ops = [op("face_lattice")]
                for x in elems + [interior]:
                    ops += [op("face_locate", x=x), op("interior_member", x=x)]
                blocks.append({
                    "id": f"m{rank}-{n:02d}-{v}", "cls": f"moment{rank - 1}-n{n:02d}",
                    "monoids": {"M": {"rank": rank, "torsion": [], "gens": gens}}, "ops": ops,
                })
    return blocks


def budget_probes(fn, *args):
    """The membership calls fn makes that exhaust the search budget, as
    (monoid, element) pairs.  Every module's binding of `member` is
    watched, as in tracing.install."""
    probes = []
    original = mf.monoid.member

    def spy(M, a, budget=None):
        res = original(M, a, budget)
        if res.status == "inconclusive":
            probes.append((M, a))
        return res

    mods = tracing.package_modules().values()
    tracing.rebind(original, spy, mods)
    try:
        fn(*args)
    except (mf.InconclusiveError, ValueError):
        pass  # bounded outcomes; the probes are what is wanted here
    finally:
        tracing.rebind(spy, original, mods)
    return probes


def budgeted(kinds, M, on, probes):
    """The ops of these kinds on M; an operation that exhausts the search
    budget (7-18 s for some closures) is replaced by the first
    budget-exhausting membership call it makes, collected in probes."""
    fns = {"normalize": mf.normalize, "units_submonoid": mf.units_submonoid}
    found = budget_probes(fns[kinds[0]], M)
    if not found:
        return [op(k, on=on) for k in kinds]
    V, g = found[0]
    probes.setdefault((wl.canonical_json(spec_of(V)), tuple(g)), (V, g))
    return []


def units_pool():
    rng = random.Random(2002)
    blocks, probes = [], {}
    for i in range(24):
        rank = rng.choice([1, 2])
        L = mf.CancellativeMonoid(
            mf.AbelianGroupShape(rank), random_positive_gens(rng, rank, lo=rank, hi=rank + 2, min_gens=1)
        )
        Lsn = mf.seminormalize(L).monoid
        d = rng.choice([2, 3])
        S = mf.smash(Lsn, mf.CancellativeMonoid(mf.AbelianGroupShape(0, (d,)), [(1,)]))
        s_spec = spec_of(S)
        u_spec = dict(s_spec, gens=sorted(s_spec["gens"] + [[0] * rank + [1]]))
        s_members = distinct(lambda: combo(rng, s_spec["gens"], rng.randint(2, 3)), 2)
        queries = distinct(
            lambda: [rng.randint(-1, 2) for _ in range(rank)] + [rng.randrange(d)], 6)
        ops = [op("smash", on="L", d=d)]
        ops += budgeted(["normalize", "seminormalize"], S, "S", probes)
        ops.append(op("face_lattice", on="S"))
        ops += [op("member", on="S", x=x) for x in s_members]
        U = wl.make_monoid(mf, u_spec)
        ops += budgeted(["units_submonoid"], U, "U", probes)
        ops += [op("member", on="U", x=x) for x in queries]
        blocks.append({
            "id": f"t{i:02d}", "cls": "torsion",
            "monoids": {"L": spec_of(Lsn), "S": s_spec, "U": u_spec}, "ops": ops,
        })
    for i in range(24):
        rank = rng.choice([2, 2, 3])
        gens = random_positive_gens(rng, rank, lo=2, hi=3)
        v = [0] * rank
        while not any(v):
            v = [rng.randint(-1, 1) for _ in range(rank)]
        gens = sorted({tuple(g) for g in gens} | {tuple(v), tuple(-x for x in v)})
        spec = {"rank": rank, "torsion": [], "gens": [list(g) for g in gens]}
        M = wl.make_monoid(mf, spec)
        queries = distinct(lambda: [rng.randint(-2, 2) for _ in range(rank)], 6)
        ops = budgeted(["units_submonoid"], M, "M", probes)
        ops += budgeted(["normalize", "seminormalize"], M, "M", probes)
        ops.append(op("face_lattice"))
        ops += [op("member", x=x) for x in queries]
        blocks.append({"id": f"x{i:02d}", "cls": "mixed", "monoids": {"M": spec}, "ops": ops})
    for j, (V, g) in enumerate(probes.values()):
        blocks.append({"id": f"probe{j:02d}", "cls": "probe",
                       "monoids": {"M": spec_of(V)}, "ops": [op("member", x=list(g))]})
    return blocks


SQUARES = ("seminormal-step", "positive-split", "pc", "face-filtration",
           "torsion-splitting-1", "torsion-splitting-2", "prime-intersection")
SEMIGROUPS = ([2, 3], [2, 5], [2, 7], [3, 4, 5], [4, 5, 6, 7], [2, 9])
FIELDS = (2, 3, 4, 5, 7, 8, 9)


# squares-conductor runs this whole list in every session (the seed only
# sets the order).  Left out, because each takes 0.7-10 s and would make a
# session long: positive-split over F3, F4, F5 and Z, torsion-splitting-1
# over Z, torsion-splitting-2 over F4, and the conductor cases with
# q^c > 128 other than the four kept below (they keep the conductor half
# above a third of the session).
SQUARES_LEFT_OUT = {("positive-split", "F3"), ("positive-split", "F4"),
                    ("positive-split", "F5"), ("positive-split", "Z"),
                    ("torsion-splitting-1", "Z"), ("torsion-splitting-2", "F4")}
LARGE_CONDUCTOR_CASES = {((2, 5), 4), ((2, 7), 3), ((3, 4, 5), 9), ((2, 9), 2)}


def squares_conductor_pool():
    blocks = []
    for name in SQUARES:
        for ring in ("F2", "F3", "F4", "F5", "Z"):
            if (name, ring) in SQUARES_LEFT_OUT:
                continue
            ops = [op("build", square=name, ring=ring), op("verify_cartesian", bound=10)]
            if ring != "Z":
                ops.append(op("verify_corrupt", bound=10))
            if name == "seminormal-step":
                ops.append(op("verify_reduced_iso", bound=10))
            blocks.append({"id": f"sq-{name}-{ring}", "cls": "square", "ops": ops})
    for gens in SEMIGROUPS:
        c = mf.NumericalSemigroup(gens).conductor
        for q in FIELDS:
            if q ** c > 128 and (tuple(gens), q) not in LARGE_CONDUCTOR_CASES:
                continue
            ops = [op("conductor_data", S=gens, q=q), op("picard_by_patching", S=gens, q=q)]
            if q <= 5:
                ops.append(op("sk0_vanishing_certificate", S=gens, q=q))
            blocks.append({
                "id": f"pic-{'-'.join(map(str, gens))}-q{q}", "cls": "conductor", "ops": ops,
            })
    return blocks


def cli_pool():
    """CLI invocations over a small set of monoid files (written at set-up)."""
    rng = random.Random(4004)
    files = {}
    blocks = []

    def add_file(name, spec):
        files[name] = {"ambient": {"rank": spec["rank"], "torsion": spec.get("torsion", [])},
                       "generators": spec["gens"]}
        return f"{wl.CLI_WORK}/{name}.json"

    def add(argv):
        blocks.append({"id": f"c{len(blocks):03d}", "cls": "light", "ops": [op("cli", argv=argv)]})

    for i in range(9):
        rank = [2, 2, 3][i % 3]
        gens = random_positive_gens(rng, rank)
        M = mf.CancellativeMonoid(mf.AbelianGroupShape(rank), gens)
        spec = spec_of(M)
        path = add_file(f"p{i}", spec)
        add(["analyze", path])
        add(["normalize", path])
        add(["seminormalize", path])
        add(["faces", path])
        x = combo(rng, spec["gens"], 3)
        add(["interior", path, "--element", ",".join(map(str, x))])
        ideal = [combo(rng, spec["gens"], rng.randint(1, 2))]
        add(["ideal", "radical", path, "--ideal", wl.canonical_json(ideal)])
        rad = radical_gens(M, ideal)
        if rad is not None:
            add(["ideal", "primes", path, "--ideal", wl.canonical_json(rad)])
        add(["ideal", "filtration", path])
    sq_files = {
        "n23": {"rank": 1, "gens": [[2], [3]]},
        "z2p": {"rank": 2, "gens": [[0, 1], [1, 0]]},
        "zp": {"rank": 1, "gens": [[1]]},
    }
    paths = {k: add_file(k, v) for k, v in sq_files.items()}
    # the heavier squares and conductor cases belong to squares-conductor;
    # here each call costs about as much as the import it pays
    for ring in ("F2", "F3", "Z"):
        base = ["square", "build"]
        tail = ["--ring", ring, "--verify"]
        add(base + ["seminormal-step", paths["n23"]] + tail)
        add(base + ["face-filtration", paths["z2p"], "--k", "2"] + tail)
        add(base + ["prime-intersection", paths["z2p"], "--p", "[[1,0]]",
                    "--q-ideal", "[[0,1]]"] + tail)
        if ring != "Z":
            add(base + ["pc", paths["z2p"], "--ideal", "[[1,1]]"] + tail)
            add(base + ["torsion-splitting", paths["zp"], "--n-list", "2"] + tail)
    for gens in SEMIGROUPS:
        c = mf.NumericalSemigroup(gens).conductor
        for q in FIELDS:
            if q ** c <= 81:
                sg = ",".join(map(str, gens))
                add(["pic", "--semigroup", sg, "--q", str(q)])
                if q <= 5:
                    add(["sk0cert", "--semigroup", sg, "--q", str(q)])
    add(["selftest", "--quick"])
    return blocks, files


# ---------------------------------------------------------------------------
# recording


def record_block(block):
    ops = []
    if block["ops"][0]["kind"] == "cli":
        env = cli_env(ROOT)
        for o in block["ops"]:
            t0 = time.perf_counter()
            code, out, err = run_cli(ROOT, env, o["args"]["argv"], trace=False)
            ms = (time.perf_counter() - t0) * 1e3
            ops.append(dict(o, **wl.cli_outcome(code, out, err), seed_ms=round(ms, 4)))
        return ops
    b = wl.Block(mf, block)
    for o in block["ops"]:
        t0 = time.perf_counter()
        try:
            res = wl.call(b, o)
            err = None
        except Exception as e:  # noqa: BLE001 - recorded as the outcome
            res, err = None, e
        ms = (time.perf_counter() - t0) * 1e3
        ops.append(dict(o, **wl.outcome(o["kind"], res, err), seed_ms=round(ms, 4)))
    return ops


def write_pool(path, pool):
    """Canonical JSON with one block per line, for readable diffs."""
    head = {k: v for k, v in pool.items() if k != "blocks"}
    lines = [wl.canonical_json(b) for b in pool["blocks"]]
    with open(path, "w") as fh:
        fh.write(wl.canonical_json(head)[:-1] + ',"blocks":[\n' + ",\n".join(lines) + "\n]}\n")


# workload: (class prefix, number of its costliest blocks made "core")
CORE = {"positive-session": ("random", 4), "cli-cold": ("light", 8)}


def main(argv):
    names = argv or list(wl.WORKLOADS)
    pools = {
        "positive-session": lambda: (positive_pool(), None),
        "units-session": lambda: (units_pool(), None),
        "squares-conductor": lambda: (squares_conductor_pool(), None),
        "cli-cold": cli_pool,
    }
    for name in names:
        t0 = time.perf_counter()
        blocks, files = pools[name]()
        if files:
            wl.write_cli_files(ROOT, files)
        for block in blocks:
            block["ops"] = record_block(block)
            for o in block["ops"]:
                o["key"] = wl.op_key(block["id"], o["kind"], o["args"])
        if name in CORE:
            # the costliest blocks run in every session, so whether the seed
            # draws them does not move the session's cost or its p90
            prefix, count = CORE[name]
            pick = [b for b in blocks if b["cls"].startswith(prefix)]
            for b in sorted(pick, key=wl.block_cost)[-count:]:
                b["cls"] = "core"
        pool = {"workload": name, "blocks": blocks}
        if files:
            pool["files"] = files
        write_pool(os.path.join(HERE, "pool", f"{name}.json"), pool)
        n = sum(len(b["ops"]) for b in blocks)
        print(f"{name}: {len(blocks)} blocks, {n} operations, {time.perf_counter() - t0:.1f}s",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
