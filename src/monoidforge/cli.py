"""Batch command-line surface: analyze, closures, faces, ideals, Milnor
squares, conductor-square Picard/SK0, and the acceptance selftest.

Exit codes: 0 success, 1 mathematical negative (with witness), 2 usage
error; 3 (inconclusive) is reserved and no longer returned, since
membership is exact.  JSON output is canonical (sorted keys,
fixed separators) and omits wall-clock timing so identical inputs produce
byte-identical bytes; timing appears in text mode only.
"""

import argparse
import json
import sys
import time

from .lattice import AbelianGroupShape
from .monoid import (
    CancellativeMonoid,
    PcMonoid,
    is_torsion_free,
    member,
    rank,
    units_submonoid,
)
from .cones import face_lattice, face_locate, interior_member
from .closure import is_normal, is_seminormal, normalize, seminormalize
from .ideals import (
    CertificationError,
    MonoidIdeal,
    ideal_filtration,
    prime_decomposition,
    radical,
)
from .rings import ring_from_name
from .squares import (
    build_face_filtration,
    build_pc,
    build_positive_split,
    build_prime_intersection,
    build_seminormal_step,
    build_torsion_splitting,
    verify_cartesian,
    verify_reduced_iso,
)
from .conductor import NumericalSemigroup, picard_by_patching, sk0_vanishing_certificate
from .acceptance import run_selftest

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3  # reserved: membership is exact, nothing returns it


class UsageError(Exception):
    pass


def load_monoid(path):
    """Parse the monoid JSON schema; malformed input reports its position."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(
            f"malformed monoid JSON in {path} at position {e.pos} "
            f"(line {e.lineno}, column {e.colno}): {e.msg}"
        ) from e
    return monoid_from_json(data)


def monoid_from_json(data):
    try:
        amb = AbelianGroupShape(
            int(data["ambient"]["rank"]),
            tuple(int(d) for d in data["ambient"].get("torsion", [])),
        )
        gens = [tuple(int(x) for x in g) for g in data["generators"]]
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"invalid monoid schema: {e}") from e
    base = CancellativeMonoid(amb, gens)
    if "collapse" in data and data["collapse"] is not None:
        cgens = [tuple(int(x) for x in g) for g in data["collapse"]["generators"]]
        return PcMonoid(base, cgens)
    return base


def monoid_to_json(m):
    if isinstance(m, PcMonoid):
        out = monoid_to_json(m.base)
        out["collapse"] = {"generators": sorted(list(g) for g in m.collapse_gens)}
        return out
    return {
        "ambient": {"rank": m.ambient.free_rank, "torsion": list(m.ambient.torsion)},
        "generators": sorted(list(g) for g in m.generators),
    }


def parse_vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise UsageError(f"invalid element {text!r}: comma-separated integers expected") from e


def parse_gen_list(text):
    try:
        data = json.loads(text)
        return [tuple(int(x) for x in g) for g in data]
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise UsageError(f"invalid generator list {text!r}: JSON like [[1,1]] expected") from e


def emit(report, fmt, elapsed):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_text(report)
        sys.stdout.write(f"elapsed: {elapsed:.3f}s\n")


def _emit_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                sys.stdout.write(f"{pad}{k}:\n")
                _emit_text(v, indent + 1)
            else:
                sys.stdout.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + 1)
            else:
                sys.stdout.write(f"{pad}- {v}\n")
    else:
        sys.stdout.write(f"{pad}{obj}\n")


def cmd_analyze(args):
    m = load_monoid(args.monoid)
    if isinstance(m, PcMonoid):
        base = m.base
        results = {
            "partially_cancellative": True,
            "cancellative": not m.has_collapse,
            "collapse_generators": sorted(list(g) for g in m.collapse_gens),
            "singleton_quotient": m.is_singleton(),
            "base_rank": rank(base),
            "base_torsion_free": is_torsion_free(base),
        }
        return {"results": results}, EXIT_OK
    units = units_submonoid(m)
    results = {
        "cancellative": True,
        "torsion_free": is_torsion_free(m),
        "positive": not units,
        "unit_generators": sorted(list(g) for g in units),
        "rank": rank(m),
        "gp_torsion": list(m.gp_shape().torsion),
        "normal": is_normal(m),
        "seminormal": is_seminormal(m),
    }
    return {"results": results}, EXIT_OK


def _require_cancellative(m, what):
    if isinstance(m, PcMonoid):
        raise UsageError(f"{what} requires a cancellative monoid (no collapse block)")
    return m


def cmd_normalize(args):
    m = _require_cancellative(load_monoid(args.monoid), "normalize")
    res = normalize(m)
    return {"results": res.to_json()}, EXIT_OK


def cmd_seminormalize(args):
    m = _require_cancellative(load_monoid(args.monoid), "seminormalize")
    res = seminormalize(m)
    return {"results": res.to_json()}, EXIT_OK


def cmd_faces(args):
    m = _require_cancellative(load_monoid(args.monoid), "faces")
    faces = face_lattice(m)
    return {"results": {"faces": [f.to_json() for f in faces]}}, EXIT_OK


def cmd_interior(args):
    m = _require_cancellative(load_monoid(args.monoid), "interior")
    a = parse_vector(args.element)
    res = member(m, a)
    if not res.is_yes:
        raise UsageError(f"element {list(a)} is not in the monoid")
    inside = interior_member(m, a)
    face = face_locate(m, a)
    report = {
        "results": {
            "element": list(a),
            "interior": inside,
            "face": face.to_json(),
        }
    }
    return report, EXIT_OK if inside else EXIT_NEGATIVE


def cmd_ideal(args):
    m = _require_cancellative(load_monoid(args.monoid), "ideal operations")
    bound = args.degree_bound
    if args.action == "filtration":
        chain = ideal_filtration(m, degree_bound=bound)
        return {
            "results": {
                "chain": [I.to_json() for I in chain],
                "degree_bound": bound,
            }
        }, EXIT_OK
    if not args.ideal:
        raise UsageError(f"--ideal is required for 'ideal {args.action}'")
    gens = parse_gen_list(args.ideal)
    I = MonoidIdeal(m, gens)
    if args.action == "radical":
        res = radical(I, degree_bound=bound)
        return {"results": res.to_json()}, EXIT_OK
    if args.action == "primes":
        R = radical(I, degree_bound=bound)
        if not R.ideal.same_as(I):
            raise UsageError(
                "ideal is not radical; its radical is generated by "
                f"{sorted(list(g) for g in R.ideal.generators)}"
            )
        dec = prime_decomposition(I, degree_bound=bound)
        return {"results": dec.to_json()}, EXIT_OK
    raise UsageError(f"unknown ideal action {args.action!r}")


def cmd_square(args):
    R = ring_from_name(args.ring)
    kind = args.kind
    squares = []
    extra = {}
    if kind == "seminormal-step":
        m = _require_cancellative(load_monoid(args.monoid), "seminormal-step")
        if args.element is None:
            from .closure import find_subintegral_element

            a = find_subintegral_element(m)
            if a is None:
                raise UsageError("monoid is seminormal: no valid subintegral element")
        else:
            a = parse_vector(args.element)
        squares.append(build_seminormal_step(m, a, R))
        if args.reduced_iso:
            rep = verify_reduced_iso(squares[0], degree_bound=args.degree_bound)
            extra["reduced_iso"] = rep.to_json()
    elif kind == "positive-split":
        m = _require_cancellative(load_monoid(args.monoid), "positive-split")
        squares.append(build_positive_split(m, R))
    elif kind == "pc":
        m = _require_cancellative(load_monoid(args.monoid), "pc square")
        gens = parse_gen_list(args.ideal) if args.ideal else []
        squares.append(build_pc(m, gens, R))
    elif kind == "face-filtration":
        m = _require_cancellative(load_monoid(args.monoid), "face filtration")
        if args.k is None:
            raise UsageError("--k is required for face-filtration squares")
        sq, cert = build_face_filtration(m, args.k, R, kernel_bound=args.degree_bound)
        squares.append(sq)
        extra["kernel_certificate"] = cert
    elif kind == "torsion-splitting":
        m = _require_cancellative(load_monoid(args.monoid), "torsion splitting")
        if not args.n_list:
            raise UsageError("--n-list is required for torsion-splitting squares")
        n_list = [int(x) for x in args.n_list.split(",")]
        squares.extend(build_torsion_splitting(m, n_list, R))
    elif kind == "prime-intersection":
        m = _require_cancellative(load_monoid(args.monoid), "prime intersection")
        if not (args.p and args.q_ideal):
            raise UsageError("--p and --q-ideal are required")
        squares.append(
            build_prime_intersection(
                m, parse_gen_list(args.p), parse_gen_list(args.q_ideal), R
            )
        )
    else:
        raise UsageError(f"unknown square kind {kind!r}")

    results = {"kind": kind, "ring": args.ring, "squares": []}
    results.update(extra)
    code = EXIT_OK
    for sq in squares:
        entry = {"corners": {k: c.name for k, c in sq.corners.items()}}
        entry["description"] = {
            k: v for k, v in sq.description.items() if isinstance(v, (str, int, list, dict))
        }
        if args.verify:
            rep = verify_cartesian(sq, degree_bound=args.degree_bound)
            entry["verification"] = rep.to_json()
            if not rep.ok:
                code = EXIT_NEGATIVE
        results["squares"].append(entry)
    if args.apply:
        from .algebra import parse_element_literal
        from .squares import quotient_map_apply

        try:
            leg, literal = args.apply.split(":", 1)
        except ValueError as e:
            raise UsageError("--apply expects LEG:ELEMENT, e.g. right:2*x[1,1]") from e
        src = {"top": "A1", "left": "A1", "right": "A2", "bottom": "B1"}.get(leg)
        if src is None:
            raise UsageError(f"unknown leg {leg!r}")
        corner = squares[0].corner(src)
        if corner.algebra is None:
            raise UsageError("element literals require a monomial corner")
        u = parse_element_literal(corner.algebra, literal)
        img = quotient_map_apply(squares[0], leg, u)
        results["apply"] = {"leg": leg, "input": repr(u), "image": repr(img)}
    return {"results": results}, code


def cmd_pic(args):
    S = NumericalSemigroup([int(x) for x in args.semigroup.split(",")])
    res = picard_by_patching(S, args.q)
    return {"results": res.to_json()}, EXIT_OK


def cmd_sk0cert(args):
    S = NumericalSemigroup([int(x) for x in args.semigroup.split(",")])
    cert = sk0_vanishing_certificate(S, args.q)
    return {"results": cert.to_json()}, EXIT_OK


def cmd_selftest(args):
    results = run_selftest(quick=args.quick)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    ok = all(r.passed for r in results)
    report = {
        "results": {
            "criteria": [
                {
                    "id": r.ident,
                    "description": r.description,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            "all_passed": ok,
        }
    }
    return report, EXIT_OK if ok else EXIT_NEGATIVE


COMMANDS = {
    "analyze": cmd_analyze,
    "normalize": cmd_normalize,
    "seminormalize": cmd_seminormalize,
    "faces": cmd_faces,
    "interior": cmd_interior,
    "ideal": cmd_ideal,
    "square": cmd_square,
    "pic": cmd_pic,
    "sk0cert": cmd_sk0cert,
    "selftest": cmd_selftest,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="monoidforge",
        description="exact computations on finitely generated commutative monoids",
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--budget", type=int, default=None,
                   help="accepted and ignored: membership is exact and takes no budget")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="structural report for a monoid file")
    sp.add_argument("monoid")
    sp = sub.add_parser("normalize", help="normalization with certificates")
    sp.add_argument("monoid")
    sp = sub.add_parser("seminormalize", help="seminormalization with certificates")
    sp.add_argument("monoid")
    sp = sub.add_parser("faces", help="face lattice of the cone")
    sp.add_argument("monoid")
    sp = sub.add_parser("interior", help="interior membership and face location")
    sp.add_argument("monoid")
    sp.add_argument("--element", required=True, help="comma-separated coordinates")
    sp = sub.add_parser("ideal", help="radical / primes / filtration")
    sp.add_argument("action", choices=["radical", "primes", "filtration"])
    sp.add_argument("monoid")
    sp.add_argument("--ideal", help="ideal generators as JSON, e.g. [[1,1]]")
    sp.add_argument("--degree-bound", type=int, default=12)
    sp = sub.add_parser("square", help="build and verify a Milnor square")
    square_sub = sp.add_subparsers(dest="square_action", required=True)
    sp = square_sub.add_parser("build", help="construct a square and optionally verify it")
    sp.add_argument("kind", choices=[
        "seminormal-step", "positive-split", "pc", "face-filtration",
        "torsion-splitting", "prime-intersection",
    ])
    sp.add_argument("monoid")
    sp.add_argument("--ring", default="F2")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--degree-bound", type=int, default=10)
    sp.add_argument("--element", help="subintegral element for seminormal-step")
    sp.add_argument("--ideal", help="ideal generators (pc square)")
    sp.add_argument("--k", type=int, help="filtration level")
    sp.add_argument("--n-list", help="torsion orders, e.g. 2 or 2,3")
    sp.add_argument("--p", help="prime ideal generators (JSON)")
    sp.add_argument("--q-ideal", help="radical ideal generators (JSON)")
    sp.add_argument("--reduced-iso", action="store_true",
                    help="also verify the reduced-quotient isomorphism")
    sp.add_argument("--apply", help="apply a leg to an element literal, LEG:c1*x[a1]+c2*x[a2]")
    sp = sub.add_parser("pic", help="Picard group of F_q[S] by conductor patching")
    sp.add_argument("--semigroup", required=True, help="e.g. 2,3")
    sp.add_argument("--q", type=int, required=True)
    sp = sub.add_parser("sk0cert", help="SK0 vanishing certificate")
    sp.add_argument("--semigroup", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--quick", action="store_true")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    fn = COMMANDS[args.command]
    try:
        report, code = fn(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except CertificationError as e:
        sys.stderr.write(f"certification failure: {e}\n")
        return EXIT_NEGATIVE
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    skip = {"command", "format", "budget"}
    inputs = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    full = {
        "command": args.command,
        "inputs": inputs,
        "exit_status": code,
        **report,
    }
    if args.command != "selftest":
        emit(full, args.format, time.perf_counter() - t0)
    elif args.format == "json":
        emit(full, "json", time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
