"""Independent checks of the answers a session gets back.

None of these call into monoidforge's algorithms: memberships are
re-derived by plain enumeration, face lattices by an exhaustive search for
facet normals, Picard orders from the gap count.  Each check returns a list
of problems; an empty list means the answer passed.
"""

import json
from fractions import Fraction
from itertools import product
from math import factorial


def _reduce(x, rank, torsion):
    return tuple(x[:rank]) + tuple(v % d for v, d in zip(x[rank:], torsion))


def _combine(coeffs, gens, rank, torsion):
    acc = [0] * (rank + len(torsion))
    for c, g in zip(coeffs, gens):
        if c < 0:
            return None
        for i, v in enumerate(g):
            acc[i] += c * v
    return _reduce(acc, rank, torsion)


def graded_reachable(spec, x):
    """Membership of x by enumeration of generator sums, for monoids whose
    generators have non-negative free parts of positive total (the total is
    then a grading).  None when the monoid is not of that kind."""
    r, tor = spec["rank"], tuple(spec.get("torsion", ()))
    gens = [tuple(g) for g in spec["gens"]]
    if not gens or any(min(g[:r], default=0) < 0 or sum(g[:r]) <= 0 for g in gens):
        return None
    target = _reduce(x, r, tor)
    if min(target[:r], default=0) < 0:
        return False
    zero = (0,) * len(target)
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for y in frontier:
            for g in gens:
                z = _reduce([a + b for a, b in zip(y, g)], r, tor)
                if z not in seen and all(a <= b for a, b in zip(z[:r], target[:r])):
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return target in seen


def _rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


EXHAUSTIVE_BOX = 8


def exhaustive_faces(rays):
    """Face lattice of the full-dimensional cone over rays, as a set of
    (dim, frozenset of rays), from facet normals found by exhaustive search
    in a box (Cramer's rule bounds a primitive facet normal by
    (d-1)! * max|entry|^(d-1)).  None when the box would be too large."""
    d = len(rays[0])
    m = max(abs(x) for r in rays for x in r)
    box = factorial(max(d - 1, 1)) * m ** max(d - 1, 1)
    if box > EXHAUSTIVE_BOX:
        return None
    facets = set()
    for cand in product(range(-box, box + 1), repeat=d):
        if not any(cand):
            continue
        vals = [sum(a * b for a, b in zip(cand, r)) for r in rays]
        if min(vals) < 0:
            continue
        on = [r for r, v in zip(rays, vals) if v == 0]
        if _rank(on) == d - 1:
            facets.add(frozenset(on))
    faces = {frozenset(rays)}
    frontier = set(faces)
    while frontier:
        new = set()
        for f in frontier:
            for g in facets:
                h = f & g
                if h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    return {(_rank(list(f)) if f else 0, f) for f in faces}


def check_face_lattice(faces):
    top = faces[-1]
    rays = [tuple(r) for r in top.rays]
    if top.dim == 0 or not rays or top.dim > 3:
        return []
    want = exhaustive_faces(rays)
    if want is None:
        return []
    got = {(f.dim, frozenset(tuple(r) for r in f.rays)) for f in faces}
    if got != want:
        return [f"face lattice differs from the exhaustive oracle on rays {rays}"]
    return []


def _gaps(gens):
    """Gaps of the numerical semigroup, by enumeration up to max(gens)^2,
    which lies above its Frobenius number."""
    bound = max(gens) * max(gens)
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(n >= g and reach[n - g] for g in gens)
    return [n for n in range(bound + 1) if not reach[n]]


def check(kind, args, spec_of, result):
    """Problems with one decided result.  spec_of(name) gives the monoid
    spec the operation ran on."""
    if kind == "member":
        spec = spec_of(args.get("on", "M"))
        r, tor = spec["rank"], tuple(spec.get("torsion", ()))
        x = _reduce(args["x"], r, tor)
        if result.status == "yes":
            if _combine(result.witness, spec["gens"], r, tor) != x:
                return [f"member {list(x)}: witness {result.witness} does not sum to it"]
        elif result.status == "no" and graded_reachable(spec, x):
            return [f"member {list(x)}: 'no' but the graded enumeration reaches it"]
        return []
    if kind in ("normalize", "normalize_in_gp"):
        spec = spec_of(args.get("on", "M"))
        r, tor = spec["rank"], tuple(spec.get("torsion", ()))
        out = []
        for a, cert in result.certificates.items():
            n = cert["multiple"]
            if _combine(cert["witness"], spec["gens"], r, tor) != _reduce([n * v for v in a], r, tor):
                out.append(f"{kind}: certificate for {list(a)} does not verify")
        return out
    if kind == "seminormalize":
        spec = spec_of(args.get("on", "M"))
        r, tor = spec["rank"], tuple(spec.get("torsion", ()))
        out = []
        for a, cert in result.certificates.items():
            stage = cert["stage_generators"]
            for k, key in ((2, "double_witness"), (3, "triple_witness")):
                if _combine(cert[key], stage, r, tor) != _reduce([k * v for v in a], r, tor):
                    out.append(f"seminormalize: {key} for {list(a)} does not verify")
        return out
    if kind == "face_lattice":
        return check_face_lattice(result)
    if kind == "radical":
        spec = spec_of(args.get("on", "M"))
        ideal = [tuple(g) for g in args["ideal"]]
        out = []
        for g, n in result.power_certificates.items():
            ng = [n * v for v in g]
            if not any(graded_reachable(spec, [a - b for a, b in zip(ng, h)]) for h in ideal):
                out.append(f"radical: {n}*{list(g)} is not in the ideal")
        return out
    if kind in ("verify_cartesian", "verify_reduced_iso"):
        return [] if result.ok else [f"{kind}: a genuine square failed verification"]
    if kind == "verify_corrupt":
        return [] if not result.ok else ["corrupt_square control verified as Cartesian"]
    if kind == "picard_by_patching":
        want = args["q"] ** len(_gaps(args["S"]))
        return [] if result.order == want else [
            f"|Pic| = {result.order} for {args['S']} over F{args['q']}, want q^#gaps = {want}"]
    if kind == "sk0_vanishing_certificate":
        if len(result.slots) != 6 or not all(reason for _, _, reason, _ in result.slots):
            return ["sk0 certificate lacks a justified six-term sequence"]
        return [] if result.verdict.startswith("SK0") else ["sk0 certificate has no verdict"]
    return []


def check_cli(argv, stdout):
    """Problems with the JSON a CLI invocation printed."""
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"{' '.join(argv)}: no JSON report on stdout"]
    res = report.get("results", {})
    if argv[0] == "pic":
        gens = [int(v) for v in argv[argv.index("--semigroup") + 1].split(",")]
        q = int(argv[argv.index("--q") + 1])
        if res.get("picard_order") != q ** len(_gaps(gens)):
            return [f"{' '.join(argv)}: |Pic| differs from q^#gaps"]
    if argv[0] == "square":
        if not all(s.get("verification", {}).get("cartesian") for s in res.get("squares", [])):
            return [f"{' '.join(argv)}: a genuine square failed verification"]
    if argv[0] == "selftest" and not res.get("all_passed"):
        return ["selftest --quick reports a failed criterion"]
    return []
