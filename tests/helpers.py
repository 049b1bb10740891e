"""Checks that only the tests use: definitional cross-checks and square
properties that no program path needs, kept out of the package, and the
runner of the tests that need a fresh process."""

import os
import subprocess
import sys

import monoidforge
from monoidforge.cones import _bits
from monoidforge.ideals import MonoidIdeal, _support_generators, prime_decomposition
from monoidforge.lattice import _dot, rank_of
from monoidforge.monoid import member
from monoidforge.squares import build_prime_intersection


SRC = os.path.dirname(os.path.dirname(os.path.abspath(monoidforge.__file__)))


def run_fresh(args, timeout=None, check=False):
    """`python ARGS` in a fresh process that imports this monoidforge: its
    source directory goes first on PYTHONPATH.  Returns the completed
    process, with stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout, check=check,
    )


def slice_get(data, a):
    """The witness of the reduced element a in the GradedSlice data, or None
    when a is not in the slice: the oracle of the slice witness."""
    k = data.key(a)
    return data.witness(k) if k in data.entries else None


def pointed(cone):
    """Whether a RationalCone is pointed: its facet normals span its space."""
    if cone.dim == 0:
        return True
    return rank_of([list(n) for n in cone.normals]) == cone.dim


def vanishing_mask(cone, v):
    """Bitset of the facet normals of a RationalCone vanishing at the point
    v (Mbar coords): the oracle of RationalCone.element_mask on project(x)."""
    m = 0
    for i, n in enumerate(cone.normals):
        if _dot(n, v) == 0:
            m |= 1 << i
    return m


def witness_mask(cone, witness):
    """The element mask of the element with coefficient vector witness
    over M.generators: the facets vanishing on every generator it uses.
    Exact, since a ray n has n . x = sum c_i n . g_i with every term >= 0;
    the oracle of RationalCone.element_mask on slice elements."""
    m = cone.all_facets
    for c, v in zip(witness, cone.host_masks):
        if c:
            m &= v
    return m


def vanishing_set(cone, v):
    """Indices of the facet normals of a RationalCone vanishing at the point
    v (Mbar coords)."""
    return _bits(vanishing_mask(cone, v))


def interior_member_definitional(M, a, n_bound=24):
    """Swan's definitional search, used as a cross-check: for every generator
    b find n <= n_bound and c in M with n*a = b + c."""
    amb = M.ambient
    a = amb.reduce(a)
    for b in M.generators:
        ok = False
        for n in range(1, n_bound + 1):
            c = amb.sub(amb.scale(n, a), b)
            if member(M, c).is_yes:
                ok = True
                break
        if not ok:
            return False
    return True


def verify_leg_surjective(square, leg, degree_bound, slack=0):
    """Key-level surjectivity of a declared leg on truncations: every basis
    key of the target is hit by a source key of weight <= degree + slack."""
    src_name, dst_name = {"right": ("A2", "B2"), "bottom": ("B1", "B2")}[leg]
    src, dst = square.corner(src_name), square.corner(dst_name)
    fn = square.maps[leg]
    for d in range(degree_bound + 1):
        targets = {k for e in dst.basis_upto(d) for k in e.coeffs}
        hit = set()
        for e in src.basis_upto(d + slack):
            hit.update(fn(e).coeffs.keys())
        if not targets <= hit:
            return False, sorted(targets - hit)[0]
    return True, None


def verify_split_section(square, degree_bound=8):
    """The recorded section composed with the surjective leg is the identity
    on truncations."""
    section = square.description["split_section"]
    right = square.maps["right"]
    B2 = square.corner("B2")
    for e in B2.basis_upto(degree_bound):
        if right(section(e)) != e:
            return False, e
    return True, None


def build_prime_intersection_from_radical(N, ideal_gens, R, degree_bound=10):
    """MT-4 split of a radical ideal: I = p1 cap (p2 cap ... cap pr) with the
    primes from its decomposition; needs at least two primes."""
    dec = prime_decomposition(MonoidIdeal(N, ideal_gens), degree_bound)
    if len(dec.primes) < 2:
        raise ValueError(
            "the radical ideal is prime: the intersection square needs two primes"
        )
    p = list(dec.primes[0][0].generators)
    rest = [f.normal_mask for _, _, f in dec.primes[1:]]
    # q = intersection of the remaining primes: outside every remaining face
    qgens = _support_generators(N, lambda v: all(v & need != need for need in rest))
    return build_prime_intersection(N, p, qgens, R, degree_bound)
