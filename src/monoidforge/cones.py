"""Rational cone of a monoid, its face lattice, extremal submonoids,
interiors, and the disjoint face-interior decomposition.

All face data lives in the coordinates of gp(Mbar) = Z^r supplied by the
torsion quotient; torsion is projected away first and reattached by callers.
Which facets vanish at an element of gp(M) is read on its ambient
coordinates (RationalCone.element_mask), with no projection.
"""

from operator import itemgetter, mul

from .lattice import primitive, rank_of
from .monoid import CancellativeMonoid, _dot, member


class Face:
    """A face of the cone R+Mbar: cut out by a subset of facet equalities."""

    def __init__(self, index, normal_indices, gen_indices, rays, dim):
        self.index = index
        self.normal_indices = normal_indices  # facets vanishing on the face
        self.gen_indices = gen_indices  # Mbar generators lying on the face
        self.rays = rays  # primitive generator vectors on the face
        self.dim = dim
        # the same two sets as bitsets: bit i of normal_mask is facet i,
        # bit j of gen_mask is bar generator j
        self.normal_mask = _mask(normal_indices)
        self.gen_mask = _mask(gen_indices)

    def __repr__(self):
        return f"Face(#{self.index}, dim={self.dim}, rays={list(self.rays)})"

    def contains_face(self, other):
        return other.gen_mask & self.gen_mask == other.gen_mask

    def to_json(self):
        return {"index": self.index, "dim": self.dim, "rays": [list(r) for r in self.rays]}


def _mask(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class RationalCone:
    """Cone of Mbar with mutually consistent ray and facet descriptions.

    The facet normals are the rays n of M.cone() read on the basis s_j of
    gp(Mbar) = Z^r that the torsion quotient's section lifts: a generator
    with image v has free part sum v_j s_j, so n . g = (n . s_j)_j . v.

    The rays of M.cone() behind the normals, covectors on the ambient free
    coordinates, are kept in the order of the sorted normals, and
    element_mask reads the facets vanishing at an element of gp(M) off
    them, with no projection.
    The generator-facet incidence is kept once as integer bitsets:
    ``gen_mask[j]`` holds the facets vanishing on bar generator j and
    ``facet_mask[i]`` the bar generators lying on facet i.  Every face query
    is answered from these masks.
    """

    def __init__(self, M):
        self.M = M
        self.tq = M.torsion_quotient()
        self.dim = self.tq.rank
        self.bar_gens = list(self.tq.Mbar.generators)
        self.rays = sorted({primitive(g) for g in self.bar_gens})
        sections = self.tq._sections
        facets = sorted(
            ((primitive([_dot(n, s) for s in sections]), n) for n in M.cone()[1]),
            key=itemgetter(0),
        )
        self.normals = [normal for normal, _ in facets]
        self._covectors = [(1 << i, n) for i, (_, n) in enumerate(facets)]
        self.all_facets = (1 << len(self.normals)) - 1
        self.all_gens = (1 << len(self.bar_gens)) - 1
        self.gen_mask = [0] * len(self.bar_gens)
        self.facet_mask = [0] * len(self.normals)
        for i, n in enumerate(self.normals):
            for j, g in enumerate(self.bar_gens):
                val = _dot(n, g)
                assert val >= 0, "facet normal negative on a generator"
                if val == 0:
                    self.gen_mask[j] |= 1 << i
                    self.facet_mask[i] |= 1 << j
            on = [list(self.bar_gens[j]) for j in _bits(self.facet_mask[i])]
            assert rank_of(on) == self.dim - 1, "facet not supported by generators"
        # element masks of the host's own generators, in M.generators order
        self.host_masks = list(map(self.element_mask, M.generators))
        self._face_at = {}  # element mask -> face, filled by face_of

    def element_mask(self, x):
        """Bitset of the facets vanishing at the element x of gp(M): bit i is
        set when the ray n_i of M.cone() behind normals[i] has n_i . x = 0
        on the free coordinates.  Exact: for x in gp(M),
        n_i . x = c_i (normals[i] . project(x)) with c_i > 0, the gcd that
        primitive divides out."""
        m = 0
        for bit, n in self._covectors:
            if not sum(map(mul, n, x)):
                m |= bit
        return m

    def faces(self):
        """All faces, dimension-sorted; ties broken lex on sorted ray lists.

        Every face of a polyhedral cone is an intersection of facets, and for
        a generator description it is determined by the generators on it.
        The generator sets of all intersections of facets are the closure of
        the full set under intersection with each facet's generator set, so
        the cost is #faces x #facets mask operations.

        The face lattice is graded, so the dimension of a face is the
        cone's dimension less the length of the longest chain of strict
        superfaces above it.  Every facet of a face G is G cut by a facet
        of the cone, so taking faces in order of decreasing generator count
        and G & facet one step below G gives that length.
        """
        if hasattr(self, "_faces"):
            return self._faces
        depth = {self.all_gens: 0}
        frontier = [self.all_gens]
        while frontier:
            nxt = []
            for gm in frontier:
                for fm in self.facet_mask:
                    h = gm & fm
                    if h not in depth:
                        depth[h] = 0
                        nxt.append(h)
            frontier = nxt
        order = sorted(depth, key=int.bit_count, reverse=True)
        for gm in order:
            below = depth[gm] + 1
            for fm in self.facet_mask:
                h = gm & fm
                if h != gm and depth[h] < below:
                    depth[h] = below
        faces = []
        for gm in order:
            gi = _bits(gm)
            # canonical normal set: everything vanishing on the face
            nm = self.all_facets
            for j in gi:
                nm &= self.gen_mask[j]
            dim = self.dim - depth[gm]
            rays = sorted({primitive(self.bar_gens[j]) for j in gi})
            faces.append((dim, rays, gi, _bits(nm)))
        faces.sort(key=lambda t: (t[0], t[1]))
        self._faces = [
            Face(idx, subset, gi, tuple(rays), dim)
            for idx, (dim, rays, gi, subset) in enumerate(faces)
        ]
        self._face_by_gens = {f.gen_mask: f for f in self._faces}
        return self._faces

    def face_of(self, mask):
        """The face whose relative interior contains the points at which
        exactly the facets of mask vanish: the one whose generators are
        those on every such facet.  Kept per mask; the mask of a point is
        the normal mask of its face, so there are at most #faces of them."""
        face = self._face_at.get(mask)
        if face is None:
            gm = self.all_gens
            for i in _bits(mask):
                gm &= self.facet_mask[i]
            self.faces()
            face = self._face_at[mask] = self._face_by_gens[gm]
        return face


def face_lattice(M):
    """Ordered face list of R+Mbar; F0 is the minimal face, last is the cone."""
    return _cone_of(M).faces()


class _CONES:
    """_CONES.get(M) is the RationalCone in M's cache, or None: the name
    perfbench/tracing.py reads, holding no state of its own."""

    @staticmethod
    def get(M):
        return M._cache.get("rational_cone")


def _cone_of(M):
    cone = _CONES.get(M)
    if cone is None:
        cone = M._cache["rational_cone"] = RationalCone(M)
    return cone


def face_locate(M, a):
    """The unique face whose relative interior contains the image of a."""
    if not member(M, a).is_yes:
        raise ValueError(f"{a} is not an element of the monoid")
    cone = _cone_of(M)
    return cone.face_of(cone.element_mask(a))


def interior_member(M, a):
    """Swan interior: every generator divides some multiple of a.

    Decided by face geometry (no facet of R+Mbar vanishes at the image of a);
    equivalent to the definitional form for elements of M.
    """
    if not member(M, a).is_yes:
        raise ValueError(f"{a} is not an element of the monoid")
    return _cone_of(M).element_mask(a) == 0


def face_submonoid(M, face):
    """M cap pi^{-1}(face) as a submonoid of M (ambient coordinates)."""
    cone = _cone_of(M)
    need = face.normal_mask
    gens = [g for g, v in zip(M.generators, cone.host_masks) if v & need == need]
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
    vanish = cone.all_facets
    for g in e_gens:
        vanish &= cone.element_mask(g)
    on_face = [v & vanish == vanish for v in cone.host_masks]
    face_gens = [g for g, on in zip(M.generators, on_face) if on]
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
        for i in _bits(vanish):
            w = [a + b for a, b in zip(w, cone.normals[i])]
        w = tuple(w)
        # verify the witness: zero on E generators, positive elsewhere
        for g in e_gens:
            assert _phi(cone, w, g) == 0
        for g, on in zip(M.generators, on_face):
            val = _phi(cone, w, g)
            assert val >= 0
            if on:
                assert val == 0
            else:
                assert val > 0
        return True, ("functional", w), None
    # hunt a definitional counterexample: a + b in E with a outside E
    pair = None
    if M.grading() is not None:
        bound = 2 * max((M.degree(g) for g in M.generators), default=1) + 2
        elems = E._slice_data(bound).elements(bound) if e_gens else [amb.zero()]
        for e in elems:
            rest = amb.sub(e, offender)
            if member(M, rest).is_yes:
                pair = (offender, rest)
                break
    return False, None, pair


def _phi(cone, w, x):
    return _dot(w, cone.tq.project(x))
