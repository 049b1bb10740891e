"""Rational cone of a monoid, its face lattice, extremal submonoids,
interiors, and the disjoint face-interior decomposition.

All face data lives in the coordinates of gp(Mbar) = Z^r supplied by the
torsion quotient; torsion is projected away first and reattached by callers.
"""

from .lattice import primitive, rank_of
from .monoid import CancellativeMonoid, member


class Face:
    """A face of the cone R+Mbar: cut out by a subset of facet equalities."""

    def __init__(self, index, normal_indices, gen_indices, rays, dim):
        self.index = index
        self.normal_indices = normal_indices  # facets vanishing on the face
        self.gen_indices = gen_indices  # Mbar generators lying on the face
        self.rays = rays  # primitive generator vectors on the face
        self.dim = dim

    def __repr__(self):
        return f"Face(#{self.index}, dim={self.dim}, rays={list(self.rays)})"

    def contains_face(self, other):
        return set(other.gen_indices) <= set(self.gen_indices)

    def to_json(self):
        return {"index": self.index, "dim": self.dim, "rays": [list(r) for r in self.rays]}


class RationalCone:
    """Cone of Mbar with mutually consistent ray and facet descriptions."""

    def __init__(self, M):
        self.M = M
        self.tq = M.torsion_quotient()
        self.dim = self.tq.rank
        self.bar_gens = list(self.tq.Mbar.generators)
        self.rays = sorted({primitive(g) for g in self.bar_gens})
        self.normals = M.cone_normals()
        self._check_duality()

    def _check_duality(self):
        for n in self.normals:
            vals = [sum(a * b for a, b in zip(n, g)) for g in self.bar_gens]
            assert all(v >= 0 for v in vals), "facet normal negative on a generator"
            on = [list(g) for g, v in zip(self.bar_gens, vals) if v == 0]
            assert rank_of(on) == self.dim - 1, "facet not supported by generators"

    def pointed(self):
        if self.dim == 0:
            return True
        return rank_of([list(n) for n in self.normals]) == self.dim

    def vanishing_set(self, v):
        """Indices of facet normals vanishing at the point v (Mbar coords)."""
        return tuple(
            i
            for i, n in enumerate(self.normals)
            if sum(a * b for a, b in zip(n, v)) == 0
        )

    def faces(self):
        """All faces, dimension-sorted; ties broken lex on sorted ray lists.

        Every face of a polyhedral cone is an intersection of facets, and for
        a generator description it is determined by the generators on it.
        """
        if hasattr(self, "_faces"):
            return self._faces
        from itertools import combinations

        seen = set()
        nf = len(self.normals)
        for size in range(nf + 1):
            for subset in combinations(range(nf), size):
                gi = tuple(
                    j
                    for j, g in enumerate(self.bar_gens)
                    if all(
                        sum(a * b for a, b in zip(self.normals[i], g)) == 0
                        for i in subset
                    )
                )
                seen.add(gi)
        faces = []
        for gi in seen:
            # canonical normal set: everything vanishing on the face
            subset = tuple(
                i
                for i in range(nf)
                if all(
                    sum(a * b for a, b in zip(self.normals[i], self.bar_gens[j])) == 0
                    for j in gi
                )
            )
            gens_on = [list(self.bar_gens[j]) for j in gi]
            dim = rank_of(gens_on)
            rays = sorted({primitive(self.bar_gens[j]) for j in gi})
            faces.append((dim, rays, gi, subset))
        faces.sort(key=lambda t: (t[0], t[1]))
        self._faces = [
            Face(idx, tuple(subset), gi, tuple(rays), dim)
            for idx, (dim, rays, gi, subset) in enumerate(faces)
        ]
        return self._faces


def face_lattice(M):
    """Ordered face list of R+Mbar; F0 is the minimal face, last is the cone."""
    cone = _cone_of(M)
    faces = cone.faces()
    return faces


_CONES = {}


def _cone_of(M):
    cone = _CONES.get(M)
    if cone is None:
        cone = RationalCone(M)
        _CONES[M] = cone
    return cone


def face_locate(M, a):
    """The unique face whose relative interior contains the image of a."""
    res = member(M, a)
    if not res.is_yes:
        raise ValueError(f"{a} is not an element of the monoid")
    cone = _cone_of(M)
    v = cone.tq.project(a)
    vanish = set(cone.vanishing_set(v))
    gi = tuple(
        j
        for j, g in enumerate(cone.bar_gens)
        if all(sum(x * y for x, y in zip(cone.normals[i], g)) == 0 for i in vanish)
    )
    for f in cone.faces():
        if f.gen_indices == gi:
            return f
    raise AssertionError("vanishing set does not match any enumerated face")


def interior_member(M, a):
    """Swan interior: every generator divides some multiple of a.

    Decided by face geometry (no facet of R+Mbar vanishes at the image of a);
    equivalent to the definitional form for elements of M.
    """
    res = member(M, a)
    if not res.is_yes:
        raise ValueError(f"{a} is not an element of the monoid")
    cone = _cone_of(M)
    v = cone.tq.project(a)
    return len(cone.vanishing_set(v)) == 0


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


def face_submonoid(M, face):
    """M cap pi^{-1}(face) as a submonoid of M (ambient coordinates)."""
    cone = _cone_of(M)
    gens = [
        g
        for g in M.generators
        if set(cone.vanishing_set(cone.tq.project(g))) >= set(face.normal_indices)
    ]
    return CancellativeMonoid(M.ambient, gens)


def bar_face_submonoid(M, face):
    """Mbar cap face as a monoid in gp(Mbar) coordinates."""
    cone = _cone_of(M)
    gens = [cone.bar_gens[j] for j in face.gen_indices]
    return CancellativeMonoid(cone.tq.Mbar.ambient, gens)


def is_extremal(M, e_gens):
    """Extremality of the submonoid generated by e_gens, with a witness.

    Returns (flag, witness, counterexample): witness is a functional
    phi(x) = w . project(x) vanishing exactly on the extremal submonoid;
    counterexample is a pair (a, b) with a + b in E but a not in E when one
    is found within the search slice.
    """
    amb = M.ambient
    e_gens = [amb.reduce(g) for g in e_gens]
    for g in e_gens:
        if not member(M, g).is_yes:
            raise ValueError(f"submonoid generator {g} is not in the host monoid")
    cone = _cone_of(M)
    # minimal face containing all generator images
    vanish = set(range(len(cone.normals)))
    for g in e_gens:
        vanish &= set(cone.vanishing_set(cone.tq.project(g)))
    face_gens = [
        g
        for g in M.generators
        if set(cone.vanishing_set(cone.tq.project(g))) >= vanish
    ]
    E = CancellativeMonoid(amb, e_gens)
    extremal = True
    offender = None
    for g in face_gens:
        if not member(E, g).is_yes:
            extremal = False
            offender = g
            break
    if extremal:
        w = [0] * cone.dim
        for i in vanish:
            w = [a + b for a, b in zip(w, cone.normals[i])]
        w = tuple(w)
        # verify the witness: zero on E generators, positive elsewhere
        for g in e_gens:
            assert _phi(cone, w, g) == 0
        for g in M.generators:
            val = _phi(cone, w, g)
            assert val >= 0
            if set(cone.vanishing_set(cone.tq.project(g))) >= vanish:
                assert val == 0
            else:
                assert val > 0
        return True, ("functional", w), None
    # hunt a definitional counterexample: a + b in E with a outside E
    pair = None
    if M.grading() is not None:
        bound = 2 * max((M.degree(g) for g in M.generators), default=1) + 2
        eslice = E.slice(bound) if e_gens else {amb.zero(): ()}
        for e in sorted(eslice):
            rest = amb.sub(e, offender)
            if member(M, rest).is_yes:
                pair = (offender, rest)
                break
    return False, None, pair


def _phi(cone, w, x):
    v = cone.tq.project(x)
    return sum(a * b for a, b in zip(w, v))
