"""Normalization and seminormalization of cancellative monoids, Hilbert
bases of pointed cones, and the per-face subgroup structure of the
seminormalization of torsion monoids.

Every closure result carries certificates: for n(M), a verified multiple
n*a in M per added generator; for sn(M), verified memberships of 2a and 3a
at the adjunction stage.
"""

from itertools import product
from operator import ge

from .lattice import (
    AbelianGroupShape,
    Record,
    _dot,
    double_description,
    facet_normals,
    field_eliminate,
    integer_kernel,
    primitive,
    smith_normal_form,
    solve_smith,
)
from .rings import QQ
from .monoid import CancellativeMonoid, member, minimalize, units_submonoid
from .cones import _bits, bar_face_submonoid, face_lattice, interior_member


class ClosureResult(Record):
    _fields = ("monoid", "added", "certificates", "kind")

    def __init__(self, monoid, added, certificates, kind):
        self.monoid = monoid
        self.added = added
        self.certificates = certificates
        self.kind = kind

    @property
    def added_nothing(self):
        return not self.added

    def to_json(self):
        return {
            "kind": self.kind,
            "generators": [list(g) for g in self.monoid.generators],
            "added": [list(a) for a in self.added],
            "certificates": {
                str(list(a)): cert for a, cert in sorted(self.certificates.items())
            },
        }


def hilbert_basis(gens, dim):
    """Hilbert basis of the pointed full-dimensional cone spanned by gens in
    Z^dim: the unique minimal generating set of cone cap Z^dim, sorted.

    The primal algorithm of Normaliz (Bruns-Ichim 2010): a pulling
    triangulation of the cone on its extreme rays, the lattice points of
    the fundamental parallelepiped of each simplicial cone as candidates
    together with the extreme rays, and a reduction of the candidates in
    degree order.  A cone that is not pointed raises ValueError.
    """
    gens = sorted({tuple(g) for g in gens if any(g)})
    if dim == 0 or not gens:
        return []
    return _hilbert_basis(gens, dim, facet_normals(gens, dim))


def _hilbert_basis(gens, dim, normals):
    """hilbert_basis of the sorted distinct nonzero gens, given the facet
    normals of their cone.

    Every cone point x lies in a simplicial cone of the triangulation, so
    x = p + sum n_i v_i with p in the simplex's half-open parallelepiped
    and n_i >= 0; an irreducible x is therefore a ray v_i or a point p.
    Among those candidates, taken in degree order, x is reducible exactly
    when x - h lies in the cone for a kept h of at most half its degree:
    the summand of least degree of any decomposition into irreducibles
    is such an h.
    """
    rays, facet_rays = _extreme_rays(gens, normals)
    cands = set(rays)
    for simplex in _pulling_triangulation(facet_rays, len(rays), dim):
        cands.update(_parallelepiped_points([rays[i] for i in _bits(simplex)]))
    w = tuple(map(sum, zip(*normals)))
    kept = []  # (degree, facet values, point) of the basis so far
    for dx, x in sorted((_dot(w, x), x) for x in cands):
        vx = [_dot(n, x) for n in normals]
        reducible = False
        for dh, vh, _ in kept:
            if 2 * dh > dx:
                break
            if all(map(ge, vx, vh)):
                reducible = True
                break
        if not reducible:
            kept.append((dx, vx, x))
    return sorted(x for _, _, x in kept)


def _extreme_rays(gens, normals):
    """The primitive extreme rays of the cone of gens, sorted, and for each
    facet the bitset of the rays on it.

    A generator's tight set (the facets vanishing on it) is maximal exactly
    when it spans an extreme ray.  A generator tight on every facet lies in
    the lineality space, so the cone is not pointed."""
    full = (1 << len(normals)) - 1
    tight = {}
    for g in gens:
        m = 0
        for i, n in enumerate(normals):
            if not _dot(n, g):
                m |= 1 << i
        if m == full:
            raise ValueError("hilbert_basis requires a pointed cone")
        tight.setdefault(primitive(g), m)
    masks = set(tight.values())
    rays = sorted(
        r for r, m in tight.items() if not any(o != m and o & m == m for o in masks)
    )
    facet_rays = [0] * len(normals)
    for j, r in enumerate(rays):
        for i in _bits(tight[r]):
            facet_rays[i] |= 1 << j
    return rays, facet_rays


def _pulling_triangulation(facet_rays, nrays, dim):
    """The simplices, as bitsets of ray indices, of the pulling
    triangulation of a pointed cone of dimension dim given the rays on each
    facet.

    A face is the set of rays on it.  A face with as many rays as its
    dimension is a simplex; otherwise its first ray is coned over the
    triangulations of its facets that miss that ray.  The facets of a face
    F are the maximal sets among F & facet_rays[i] other than F, each of
    dimension one less."""
    memo = {}

    def triangulate(F, d):
        if F.bit_count() == d:
            return [F]
        got = memo.get(F)
        if got is None:
            low = F & -F
            meets = {F & fr for fr in facet_rays} - {F}
            got = memo[F] = [
                s | low
                for G in meets
                if not G & low and not any(G != H and G & H == G for H in meets)
                for s in triangulate(G, d - 1)
            ]
        return got

    return triangulate((1 << nrays) - 1, dim)


def _parallelepiped_points(cols):
    """The nonzero lattice points sum lam_i cols[i], 0 <= lam_i < 1, of the
    simplicial cone over the linearly independent integer vectors cols.

    With V the matrix of columns cols and U V W = D its Smith form, the
    points U^-1 k (0 <= k_j < d_j) represent Z^d / V Z^d, and
    V^-1 U^-1 k = W D^-1 k, so the point of the class of k is
    V ((W D^-1 k) mod 1).  There are |det| - 1 = d_1 ... d_n - 1 of them;
    the simplex is unimodular, with none, exactly when the last elementary
    divisor d_n (a multiple of every d_j) is 1."""
    d = len(cols)
    V = [[c[i] for c in cols] for i in range(d)]
    _, D, W = smith_normal_form(V)
    diag = [D[j][j] for j in range(d)]
    N = diag[-1]
    if N == 1:
        return []
    orders = [diag[j] for j in range(d) if diag[j] > 1]
    steps = [[W[i][j] * (N // diag[j]) for i in range(d)] for j in range(d) if diag[j] > 1]
    out = []
    for ks in product(*map(range, orders)):
        lam = [sum(k * s[i] for k, s in zip(ks, steps)) % N for i in range(d)]
        if any(lam):
            out.append(tuple(_dot(row, lam) // N for row in V))
    return out


def _saturate_cone_lattice(vectors, dim):
    """Generators of cone(vectors) cap Z^dim: Hilbert basis when the cone is
    pointed, otherwise a lattice basis of the (saturated) lineality part plus
    lifted Hilbert basis generators of the pointed quotient.  Cones that do
    not span Z^dim are first coordinatized in the saturated span lattice."""
    vectors = [tuple(v) for v in vectors if any(v)]
    if dim == 0 or not vectors:
        return []
    # the lineality is empty exactly when the vectors span Z^dim
    lin, rays, _ = double_description(vectors, dim)
    if lin:
        d = dim - len(lin)
        perp = integer_kernel([list(v) for v in vectors])
        span_basis = integer_kernel([list(p) for p in perp])
        assert len(span_basis) == d
        bmat = [[span_basis[j][i] for j in range(d)] for i in range(dim)]
        bsnf = smith_normal_form(bmat)
        coords = []
        for v in vectors:
            c = solve_smith(bsnf, v)
            assert c is not None, "vector escapes the saturated span lattice"
            coords.append(c)
        inner = _saturate_cone_lattice(coords, d)
        return [
            tuple(sum(bmat[i][j] * h[j] for j in range(d)) for i in range(dim))
            for h in inner
        ]
    normals = sorted(rays)
    # the lineality space is the face on every facet, spanned by the
    # vectors on it, so the cone is pointed when no vector lies on it
    if not any(all(_dot(n, v) == 0 for n in normals) for v in vectors):
        return _hilbert_basis(sorted(set(vectors)), dim, normals)
    if normals:
        lin_basis = integer_kernel([list(n) for n in normals])
    else:
        lin_basis = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    k = len(lin_basis)
    A = [[lin_basis[t][i] for t in range(k)] for i in range(dim)]
    U, D, V = smith_normal_form(A)
    # the lineality lattice is saturated (an integer kernel), so the last
    # dim-k Smith coordinates give the quotient lattice Z^{dim-k}
    proj = lambda v: tuple(sum(U[i][t] * v[t] for t in range(dim)) for i in range(k, dim))
    img = [proj(g) for g in vectors]
    hb_q = hilbert_basis([v for v in img if any(v)], dim - k) if dim - k else []
    # U is unimodular, so U x = (0, h) has the integer solution U^-1 (0, h)
    lifts = []
    for x in field_eliminate(QQ, U, [[0] * k + list(h) for h in hb_q])[2]:
        if any(c.denominator != 1 for c in x):
            raise RuntimeError("lift through a non-unimodular Smith transform")
        lifts.append(tuple(map(int, x)))
    return (
        lifts
        + [tuple(b) for b in lin_basis]
        + [tuple(-x for x in b) for b in lin_basis]
    )


def normalize(M):
    """Spec closure: all ambient elements with a positive multiple in M.

    The free part is the cone of M saturated in the full ambient lattice (the
    acceptance semantics: normalize(<(1,0),(1,2)>) adds (1,1)); every ambient
    torsion translate then also acquires a multiple in M, so the closure
    carries the whole ambient torsion component (in particular the torsion
    subgroup of gp(M)).  Certificates record a verified multiple per added
    generator.  The gp(M)-internal textbook notion is normalize_in_gp.
    """
    cached = M._cache.get("normalize")
    if cached is not None:
        return cached
    amb = M.ambient
    k = amb.free_rank
    frees = [g[:k] for g in M.generators]
    sat = _saturate_cone_lattice(frees, k)
    new_gens = [tuple(v) + (0,) * len(amb.torsion) for v in sat]
    if M.generators:
        new_gens += [t for t in amb.torsion_elements() if any(t)]
    closed = minimalize(CancellativeMonoid(amb, list(M.generators) + new_gens))
    res = ClosureResult(closed, *_closure_delta(M, closed), "normalization")
    M._cache["normalize"] = res
    return res


def normalize_in_gp(M):
    """The classical normalization n(M) = {a in gp(M) : na in M}, computed in
    the coordinates of gp(Mbar) and saturated over the torsion subgroup of
    gp(M) only."""
    cached = M._cache.get("normalize_in_gp")
    if cached is not None:
        return cached
    amb = M.ambient
    tq = M.torsion_quotient()
    sat = _saturate_cone_lattice(list(tq.Mbar.generators), tq.rank)
    new_gens = [tq.section(v) for v in sat]
    new_gens += [t for t in tq.torsion_elements if any(t)]
    closed = minimalize(CancellativeMonoid(amb, list(M.generators) + new_gens))
    res = ClosureResult(closed, *_closure_delta(M, closed), "normalization-in-gp")
    M._cache["normalize_in_gp"] = res
    return res


def _closure_delta(M, closed):
    added, certs = [], {}
    for g in closed.generators:
        if member(M, g).is_yes:
            continue
        added.append(g)
        certs[g] = _multiple_certificate(M, g)
    return sorted(added), certs


def _multiple_certificate(M, a, cap=1000):
    amb = M.ambient
    for n in range(1, cap + 1):
        res = member(M, amb.scale(n, a))
        if res.is_yes:
            return {"multiple": n, "witness": list(res.witness)}
    raise RuntimeError(f"no multiple of {a} found in M within {cap}: budget exhausted")


def is_normal(M):
    return normalize(M).added_nothing


def _sn_candidate_pool(M):
    """Candidates for subintegral adjunction: Hilbert-basis generators of the
    saturated free cone plus all its elements of degree <= 2 * (max generator
    degree), crossed with every ambient torsion translate.  A superset of the
    paper's pool is harmless: any a passing the 2a,3a test satisfies
    a = 3a - 2a in gp of the current stage."""
    amb = M.ambient
    k = amb.free_rank
    nmon = normalize(M).monoid
    F = CancellativeMonoid(
        AbelianGroupShape(k), [g[:k] for g in nmon.generators if any(g[:k])]
    )
    if not F.generators:
        pool_free = [()] if k == 0 else [(0,) * k]
    else:
        bound = 2 * max(
            (F.degree(g[:k]) for g in M.generators if any(g[:k])), default=1
        )
        pool_free = sorted(set(F.slice(bound)) | set(F.generators))
    tors = amb.torsion_elements()
    out = []
    for v in pool_free:
        base = tuple(v) + (0,) * len(amb.torsion)
        for t in tors:
            out.append(amb.add(amb.reduce(base), t))
    return sorted(set(out))


def seminormalize(M):
    """sn(M): least intermediate monoid closed under adjoining a with
    2a, 3a already present; fixpoint iteration over the candidate pool.

    Each pass tests the candidates in pool order against the current stage
    and adjoins every one whose 2a and 3a lie in it; the fixpoint stops
    after a pass that adjoins nothing, so no pass runs twice.  Stages only
    grow, so a candidate is tested until it lies in a stage and then
    dropped.  The first adjunction is tested on M itself.

    Raises for monoids that are neither positive nor already normal (the
    fixpoint pool is grading-bounded).
    """
    cached = M._cache.get("seminormalize")
    if cached is not None:
        return cached
    nres = normalize(M)
    if nres.added_nothing:
        res = ClosureResult(M, [], {}, "seminormalization")
        M._cache["seminormalize"] = res
        return res
    if units_submonoid(M):
        raise ValueError(
            "seminormalization implemented for positive monoids "
            "(non-positive inputs are supported only when already normal)"
        )
    amb = M.ambient
    pool = _sn_candidate_pool(M)
    current = M
    added, certs = [], {}
    while True:
        rest, before = [], len(added)
        for a in pool:
            if member(current, a).is_yes:
                continue
            r2 = member(current, amb.scale(2, a))
            r3 = member(current, amb.scale(3, a)) if r2.is_yes else r2
            if not r3.is_yes:
                rest.append(a)
                continue
            certs[a] = {
                "double_witness": list(r2.witness),
                "triple_witness": list(r3.witness),
                "stage_generators": [list(g) for g in current.generators],
            }
            added.append(a)
            current = CancellativeMonoid(amb, list(current.generators) + [a])
        if len(added) == before:
            break
        pool = rest
    final = minimalize(current)
    res = ClosureResult(final, sorted(added), certs, "seminormalization")
    M._cache["seminormalize"] = res
    return res


def is_seminormal(M):
    return seminormalize(M).added_nothing


def find_subintegral_element(M):
    """Some a in gp(M) \\ M with 2a, 3a in M, or None when M is seminormal:
    the first element that seminormalize adjoins, which it tests on M
    itself (the CLI's `square build seminormal-step` without --element)."""
    return next(iter(seminormalize(M).certificates), None)


# ---------------------------------------------------------------------------
# Gubeladze face structure of sn(M) for torsion monoids


class SnFaceStructure(Record):
    _fields = ("monoid", "sn", "faces", "subgroups", "slice_bound", "report")

    def __init__(self, monoid, sn, faces, subgroups, slice_bound, report=None):
        self.monoid = monoid
        self.sn = sn
        self.faces = faces
        self.subgroups = subgroups  # face index -> sorted list of torsion elements
        self.slice_bound = slice_bound
        self.report = {} if report is None else report

    def to_json(self):
        return {
            "faces": [f.to_json() for f in self.faces],
            "torsion_subgroups": {
                str(i): [list(t) for t in ts] for i, ts in sorted(self.subgroups.items())
            },
            "slice_bound": self.slice_bound,
            "checks": self.report,
        }


def sn_face_structure(M, slice_bound=None):
    """Extract the per-face torsion subgroups T_F with sn(M) equal to the
    union of Int(n(Mbar cap F)) x T_F, verifying the subgroup property,
    monotonicity, the full-cone value t(M), and the union equality on a
    bounded slice.  Positive cancellative hosts only."""
    if units_submonoid(M):
        raise ValueError("sn_face_structure requires a positive monoid")
    amb = M.ambient
    snres = seminormalize(M)
    S = snres.monoid
    tq = M.torsion_quotient()
    faces = face_lattice(M)
    t_elems = tq.torsion_elements
    if slice_bound is None:
        slice_bound = 2 * max((S.degree(g) for g in S.generators), default=1) + 2

    # per-face normalizations (in Mbar coordinates) and their interior slices
    pieces = _face_pieces(M)
    piece = {}
    for f, nNF in pieces:
        if not nNF.generators:
            piece[f.index] = (nNF, [nNF.ambient.zero()])
            continue
        bound = max(
            slice_bound, sum(nNF.degree(g) for g in nNF.generators)
        )
        interior = [
            v for v in sorted(nNF.slice(bound)) if interior_member(nNF, v)
        ]
        piece[f.index] = (nNF, interior)

    subgroups = {}
    for f in faces:
        nNF, interior = piece[f.index]
        ts = []
        for t in t_elems:
            if any(member(S, amb.add(tq.section(v), t)).is_yes for v in interior):
                ts.append(t)
        subgroups[f.index] = sorted(ts)

    report = {"subgroup": True, "monotone": True, "full_cone": True, "union": True}
    # subgroup property
    for i, ts in subgroups.items():
        tset = set(ts)
        if amb.zero() not in tset:
            raise RuntimeError(f"T_F misses 0 on face {i}")
        for a in ts:
            if amb.neg(a) not in tset:
                raise RuntimeError(f"T_F not closed under negation on face {i}")
            for b in ts:
                if amb.add(a, b) not in tset:
                    raise RuntimeError(f"T_F not closed under addition on face {i}")
    # monotonicity along face inclusion
    for f in faces:
        for g in faces:
            if g.contains_face(f) and not set(subgroups[f.index]) <= set(subgroups[g.index]):
                raise RuntimeError(f"T_F monotonicity fails: {f.index} into {g.index}")
    # full cone carries the whole torsion subgroup
    if set(subgroups[faces[-1].index]) != set(t_elems):
        raise RuntimeError("T at the full cone is not all of t(M)")
    # union equality on the bounded slice, both inclusions
    sslice = sorted(S.slice(slice_bound))
    for x in sslice:
        v = tq.project(x)
        f = next((f for f, nNF in pieces if _in_piece(nNF, v)), None)
        if f is None:
            raise RuntimeError(f"sn element {x} lies in no face piece (pool too small?)")
        tpart = amb.sub(x, tq.section(v))
        if tpart not in set(subgroups[f.index]):
            raise RuntimeError(f"torsion part of {x} escapes T_F on face {f.index}")
    for f in faces:
        nNF, interior = piece[f.index]
        for v in interior:
            if nNF.generators and nNF.degree(v) > slice_bound:
                continue
            for t in subgroups[f.index]:
                el = amb.add(tq.section(v), t)
                if not member(S, el).is_yes:
                    raise RuntimeError(
                        f"piece element {el} of face {f.index} is missing from sn(M)"
                    )
    return SnFaceStructure(M, S, faces, subgroups, slice_bound, report)


def _face_pieces(M):
    """(face, n(Mbar cap F)) for every face of M, in face-lattice order: the
    pieces Int(n(Mbar cap F)) of the face decomposition."""
    return [(f, normalize_in_gp(bar_face_submonoid(M, f)).monoid) for f in face_lattice(M)]


def _in_piece(nNF, v):
    """Whether v (in Mbar coordinates) lies in the piece Int(nNF)."""
    if not nNF.generators:
        return not any(v)
    return member(nNF, v).is_yes and interior_member(nNF, v)
