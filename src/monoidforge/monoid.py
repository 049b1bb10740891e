"""Cancellative monoids with torsion, partially cancellative quotients, and
their structural operations.

Monoid elements are reduced tuples over the ambient group Z^r x prod Z/d_i;
the ambient AbelianGroupShape does their coordinate arithmetic.  Membership
is exact and always ends.  A positive monoid is searched through a strictly
positive grading, slice by slice; a slice (GradedSlice) packs its elements
into integer keys, on which adding a generator is one integer addition.  A
monoid M with units U = U(M) is reduced to the positive monoid M/U inside
G/U: a lies in M exactly when its image lies in M/U, and a witness found
there is lifted back to M through the unit generators (UnitQuotient).
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd
from operator import mul

from .lattice import (
    AbelianGroupShape,
    clear_denominators,
    diagonal_of,
    element_in_subgroup,
    facet_normals,
    grading_for,
    mat_mul,
    rank_of,
    smith_normal_form,
    solve_rational,
    solve_smith,
    subgroup_shape,
)


class InconclusiveError(Exception):
    """Kept for compatibility: membership is exact and nothing raises this."""


@dataclass
class Membership:
    status: str  # "yes" | "no"
    witness: tuple = None
    note: str = ""

    @property
    def is_yes(self):
        return self.status == "yes"

    def __bool__(self):
        return self.is_yes


_INTERN = {}


class CancellativeMonoid:
    """Finitely generated submonoid of Z^r x (finite abelian group).

    Instances are interned on (ambient, generators) so per-monoid caches
    (slices, gradings, quotients) are shared.
    """

    def __new__(cls, ambient, generators):
        gens = tuple(sorted({ambient.reduce(g) for g in generators if any(ambient.reduce(g))}))
        key = (ambient, gens)
        inst = _INTERN.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.ambient = ambient
        inst.generators = gens
        inst._cache = {}
        _INTERN[key] = inst
        return inst

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CancellativeMonoid)
            and (self.ambient, self.generators) == (other.ambient, other.generators)
        )

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __repr__(self):
        return f"CancellativeMonoid({self.ambient.free_rank},{self.ambient.torsion},gens={list(self.generators)})"

    def zero(self):
        return self.ambient.zero()

    # -- group completion ---------------------------------------------------

    def gp_shape(self):
        if "gp_shape" not in self._cache:
            self._cache["gp_shape"] = subgroup_shape(list(self.generators), self.ambient)
        return self._cache["gp_shape"]

    def in_gp(self, a):
        """Whether a lies in gp(M) inside the ambient group."""
        return element_in_subgroup(self.ambient.reduce(a), list(self.generators), self.ambient) is not None

    # -- grading and slices --------------------------------------------------

    def grading(self):
        """Strictly positive integer grading covector, or None."""
        if "grading" not in self._cache:
            self._cache["grading"] = grading_for(list(self.generators), self.ambient)
        return self._cache["grading"]

    def degree(self, a):
        w = self.grading()
        if w is None:
            raise ValueError("monoid admits no strictly positive grading")
        return sum(map(mul, w, a))  # w covers the free coordinates only

    def _slice_data(self, bound):
        """The GradedSlice of every monoid element of degree <= bound, from
        one breadth-first search started at 0.

        The witness of an element is the first path the search reaches it
        by: the factorization with the fewest generators, and among those
        the lexicographically largest coefficient vector.  Every path to an
        element stays below its degree, so the witness does not depend on
        the bound.  A cached slice that covers bound is returned as it is;
        otherwise the search runs again from 0 and replaces it, so the
        answer never depends on earlier calls.
        """
        cached = self._cache.get("slice")
        if cached is not None and cached.bound >= bound:
            return cached
        if self.grading() is None:
            raise ValueError("slice enumeration needs a positive monoid")
        data = self._cache["slice"] = GradedSlice(self, bound)
        return data

    def slice(self, bound):
        """All monoid elements of grading degree <= bound, mapped to a witness
        coefficient vector over the generators, in sorted order.  Positive
        monoids only."""
        return self._slice_data(bound).witnesses(bound)

    def filtration_weight(self, a):
        """Subadditive weight usable on non-positive hosts: sum of |free coords|."""
        r = self.ambient.free_rank
        return sum(abs(x) for x in a[:r])

    def filtered_elements(self, bound):
        """All monoid elements with filtration weight <= bound (exact, via an
        ambient box scan plus membership); intended for small ranks."""
        r = self.ambient.free_rank
        if r > 3:
            raise ValueError("filtered enumeration limited to rank <= 3 ambients")
        out = []
        tor = self.ambient.torsion_elements()
        for free in product(range(-bound, bound + 1), repeat=r):
            if sum(abs(x) for x in free) > bound:
                continue
            for t in tor:
                el = self.ambient.reduce(free + t[r:])
                if member(self, el).is_yes:
                    out.append(el)
        return sorted(set(out))

    # -- torsion quotient, cone and units -------------------------------------

    def torsion_quotient(self):
        if "tq" not in self._cache:
            self._cache["tq"] = TorsionQuotient(self)
        return self._cache["tq"]

    def cone_normals(self):
        """Primitive inward facet normals of the cone of Mbar (coordinates of
        gp(Mbar) = Z^r); none when the cone is a linear space."""
        if "normals" not in self._cache:
            tq = self.torsion_quotient()
            self._cache["normals"] = facet_normals(list(tq.Mbar.generators), tq.rank)
        return self._cache["normals"]

    def unit_generators(self):
        """The generators that are units, from cone geometry: g is a unit
        exactly when every facet normal of the cone of Mbar vanishes on the
        image of g (the image lies in the lineality space).  A positively
        graded monoid has none."""
        if "units" not in self._cache:
            units = ()
            if self.grading() is None:
                normals = self.cone_normals()
                images = self.torsion_quotient()._bar_images
                units = tuple(
                    g for g, v in zip(self.generators, images)
                    if not any(_dot(n, v) for n in normals)
                )
            self._cache["units"] = units
        return self._cache["units"]

    def unit_quotient(self):
        """M/U(M) with the lift of its witnesses; monoids with units only."""
        if "uq" not in self._cache:
            self._cache["uq"] = UnitQuotient(self)
        return self._cache["uq"]


class GradedSlice:
    """The elements of degree <= bound of a positive monoid M, each with its
    witness and degree, on packed integer keys.

    An element of degree <= bound is a sum of at most bound generators
    (every generator has degree >= 1), so its free coordinates lie in the
    box |x_t| <= e_t = bound * max_g |g_t|.  A key packs the free
    coordinates, offset by 3 e_t, in mixed radix 6 e_t + 1 (the first
    coordinate most significant), followed by one index of the torsion
    coordinates (mixed radix over the moduli).  Keys sort as the tuples do.
    Adding or subtracting a fixed element v is one integer addition of a
    shift that depends only on the torsion index: key + shift[key % order].
    That is exact for every slice element x and every v with |v_t| <= 2 e_t,
    since x + v then stays in the key box |x_t| <= 3 e_t; an element with a
    larger coordinate is never the difference of two slice elements.
    Queries from outside pack through key(), which answers None for an
    element outside the box instead of wrapping it onto another key.

    entries maps each key to (witness, degree), in the order the search
    first reached it.
    """

    def __init__(self, M, bound):
        amb = M.ambient
        gens = M.generators
        r = amb.free_rank
        self.bound = bound
        self._rank = r
        reach = max(bound, 0)
        self._reach = [reach * max((abs(g[t]) for g in gens), default=0) for t in range(r)]
        self._torsion = amb.torsion
        self._torsion_tuples = list(product(*(range(d) for d in amb.torsion)))
        self.order = len(self._torsion_tuples)
        places, place = [], self.order
        for e in reversed(self._reach):
            places.append(place)
            place *= 6 * e + 1
        self._places = places[::-1]
        self.zero = sum(3 * e * p for e, p in zip(self._reach, self._places))
        self.entries = _graded_search(
            bound, [M.degree(g) for g in gens], [self._shift(g) for g in gens], self.zero, self.order
        )
        self._sorted = self._elements = None

    def _torsion_index(self, tors):
        t = 0
        for x, d in zip(tors, self._torsion):
            t = t * d + x
        return t

    def _shift(self, v):
        """Per torsion index, what adding the reduced element v adds to a key."""
        free = sum(map(mul, v, self._places))
        tv = v[self._rank:]
        return [
            free + self._torsion_index([(a + b) % d for a, b, d in zip(t, tv, self._torsion)]) - i
            for i, t in enumerate(self._torsion_tuples)
        ]

    def key(self, a):
        """The key of the reduced element a, or None when a lies outside the
        box, where no slice element lies."""
        k = self.zero
        for x, e, p in zip(a, self._reach, self._places):
            if not -e <= x <= e:
                return None
            k += x * p
        if self.order > 1:
            k += self._torsion_index(a[self._rank:])
        return k

    def get(self, a):
        """(witness, degree) of the reduced element a, or None when a is not
        in the slice."""
        k = self.key(a)
        return None if k is None else self.entries.get(k)

    def element(self, key):
        """The ambient element of a key."""
        f, t = divmod(key, self.order)
        free = []
        for e in reversed(self._reach):
            f, c = divmod(f, 6 * e + 1)
            free.append(c - 3 * e)
        return tuple(free[::-1]) + self._torsion_tuples[t]

    def minus(self, vs):
        """The shifts that subtract each reduced element v of vs from a slice
        key: key + shift[key % order].  A v with a coordinate beyond twice
        the box is left out, since it is never the difference of two slice
        elements."""
        r = self._rank
        return [
            self._shift(tuple(-x for x in v[:r]) + tuple(-x % d for x, d in zip(v[r:], self._torsion)))
            for v in vs
            if all(-2 * e <= x <= 2 * e for x, e in zip(v, self._reach))
        ]

    def below(self, key, shifts):
        """The slice keys among key - v, for the v of shifts (from minus) in
        their order; key is a slice key or a key from key()."""
        entries, t = self.entries, key % self.order
        return [y for y in (key + s[t] for s in shifts) if y in entries]

    def generated(self, key, shifts):
        """Whether key - v is a slice element for some v of shifts."""
        entries, t = self.entries, key % self.order
        return any(key + s[t] in entries for s in shifts)

    def _in_order(self):
        """The keys sorted and their degrees, sorted once per slice."""
        if self._sorted is None:
            entries = self.entries
            keys = sorted(entries)
            self._sorted = keys, [entries[k][1] for k in keys]
        return self._sorted

    def sorted_keys(self, bound):
        """The keys of degree <= bound, sorted."""
        keys, degs = self._in_order()
        return [k for k, d in zip(keys, degs) if d <= bound]

    def _unpacked(self):
        """The sorted keys, their elements and degrees; every element is
        unpacked once per slice."""
        keys, degs = self._in_order()
        if self._elements is None:
            self._elements = [self.element(k) for k in keys]
        return keys, self._elements, degs

    def elements(self, bound):
        """The elements of degree <= bound, sorted."""
        _, elements, degs = self._unpacked()
        return [x for x, d in zip(elements, degs) if d <= bound]

    def witnesses(self, bound):
        """Element -> witness for the elements of degree <= bound, sorted."""
        entries = self.entries
        return {x: entries[k][0] for k, x, d in zip(*self._unpacked()) if d <= bound}


def _graded_search(bound, degs, shifts, zero, order):
    """Key -> (witness, degree) for every sum of generators of degree <=
    bound, breadth first from zero, in the order first reached."""
    wit = (0,) * len(degs)
    entries = {zero: (wit, 0)}
    frontier = [(zero, wit, 0)]
    moves = list(zip(range(len(degs)), degs, shifts))
    while frontier:
        new = []
        for key, coeffs, d in frontier:
            t = key % order
            for i, dg, shift in moves:
                nd = d + dg
                if nd <= bound:
                    nxt = key + shift[t]
                    if nxt not in entries:
                        wit = list(coeffs)
                        wit[i] += 1
                        wit = tuple(wit)
                        entries[nxt] = (wit, nd)
                        new.append((nxt, wit, nd))
        frontier = new
    return entries


class TorsionQuotient:
    """Mbar = image of M in gp(M)/t(M), coordinatized as Z^r, with an explicit
    splitting gp(M) = gp(Mbar) x t(M)."""

    def __init__(self, M):
        self.M = M
        amb = M.ambient
        k = amb.free_rank
        gens = list(M.generators)
        frees = [list(g[:k]) for g in gens]
        if not gens:
            self.rank = 0
            self.Mbar = CancellativeMonoid(AbelianGroupShape(0), [])
            self._bar_images = []
            self._basis = []
            self._sections = []
            self.torsion_elements = [amb.zero()]
            return
        # lattice spanned by the free parts, basis from the Smith form
        A = [[frees[j][i] for j in range(len(gens))] for i in range(k)]  # k x s
        U, D, V = smith_normal_form(A)
        diag = diagonal_of(D)
        r = sum(1 for d in diag if d)
        # U A V = D: column j of A V is d_j times column j of U^{-1}, and the
        # first r of them are a basis of the lattice
        AV = mat_mul(A, V)
        basis = [tuple(AV[i][j] for i in range(k)) for j in range(r)]
        self.rank = r
        self._basis = basis
        bmat = [[basis[j][i] for j in range(r)] for i in range(k)]  # k x r
        self._bmat = bmat
        # one Smith form of the basis matrix serves every projection
        self._bsnf = smith_normal_form(bmat) if r else None
        bar_gens = [self.project(g) for g in gens]
        self._bar_images = bar_gens
        self.Mbar = CancellativeMonoid(AbelianGroupShape(r), bar_gens)
        # section: write each basis vector as an integer combination of the
        # generators' free parts, then lift with the full torsion data
        sections = []
        for b in basis:
            c = solve_smith((U, D, V), b)
            assert c is not None
            lift = amb.zero()
            for ci, g in zip(c, gens):
                lift = amb.add(lift, amb.scale(ci, g))
            sections.append(lift)
        self._sections = sections
        # t(M) = gp(M) cap torsion, generated by g - section(project(g))
        tgens = []
        for g in gens:
            t = amb.sub(g, self.section(self.project(g)))
            assert not any(t[:k])
            tgens.append(t)
        self.torsion_elements = _group_closure(tgens, amb)

    def project(self, a):
        """Coordinates of a's free part in gp(Mbar) = Z^r."""
        if not self.rank:
            return ()
        c = solve_smith(self._bsnf, a[: self.M.ambient.free_rank])
        if c is None:
            raise ValueError(f"{a} has free part outside the generator lattice")
        return c

    def section(self, v):
        """Splitting gp(Mbar) -> gp(M); project(section(v)) == v."""
        amb = self.M.ambient
        out = amb.zero()
        for c, s in zip(v, self._sections):
            out = amb.add(out, amb.scale(c, s))
        return out

    def torsion_shape(self):
        return subgroup_shape(
            [t for t in self.torsion_elements if any(t)] or [],
            self.M.ambient,
        )


class UnitQuotient:
    """The positive monoid M/U inside G/U, for M with unit group U = U(M) in
    the ambient group G, and the lift of its witnesses back to M.

    U is generated as a group by the unit generators.  Coordinates of G/U
    come from one Smith form P B Q = D of B = [unit generators | torsion
    moduli]: x maps to the rows of P x, the rows with a zero elementary
    divisor as they are (free part) and those with a divisor d > 1 mod d.
    a lies in M exactly when its image lies in M/U; M/U is positive, so its
    graded slices decide that.
    """

    def __init__(self, M):
        amb = M.ambient
        n, k = amb.dim, amb.free_rank
        gens = M.generators
        self.M = M
        unit_set = set(M.unit_generators())
        self.units = [i for i, g in enumerate(gens) if g in unit_set]
        if not self.units:
            raise RuntimeError(f"{M!r} has no positive grading and no unit generator")
        cols = [list(gens[i]) for i in self.units]
        cols += [[d if t == k + j else 0 for t in range(n)] for j, d in enumerate(amb.torsion)]
        self._snf = smith_normal_form([[c[t] for c in cols] for t in range(n)])
        P, D, _ = self._snf
        diag = diagonal_of(D)
        r = sum(1 for d in diag if d)
        self._free_rows = P[r:]
        self._torsion_rows = [(P[i], d) for i, d in enumerate(diag[:r]) if d > 1]
        self.ambient = AbelianGroupShape(n - r, tuple(d for _, d in self._torsion_rows))
        first = {}
        for i, g in enumerate(gens):
            if g not in unit_set:
                first.setdefault(self.project(g), i)
        self.quotient = CancellativeMonoid(self.ambient, list(first))
        if self.quotient.grading() is None:
            raise RuntimeError(f"M/U of {M!r} admits no positive grading")
        self._lift_index = [first[v] for v in self.quotient.generators]
        self._negations = {}  # unit generator index -> _negation, on first use

    def project(self, x):
        """Coordinates of the image of x in G/U."""
        return tuple(_dot(row, x) for row in self._free_rows) + tuple(
            _dot(row, x) % d for row, d in self._torsion_rows
        )

    def _negation(self, j):
        """Non-negative coefficients over the generators that sum to -g_j,
        for the unit generator g_j.

        -g_j lies in the cone of the unit generators (a linear space), so by
        Caratheodory -N g_j = sum a_i g_i on the free parts, for N > 0, a_i
        >= 0 and linearly independent g_i, found by exact rational solves.
        t = N g_j + sum a_i g_i is then torsion, of order T, and
        -g_j = (T N - 1) g_j + sum T a_i g_i.
        """
        amb = self.M.ambient
        gens = self.M.generators
        k = amb.free_rank
        target = [-x for x in gens[j][:k]]
        span = rank_of([list(gens[i][:k]) for i in self.units])
        for size in range(span + 1):
            for subset in combinations(self.units, size):
                mat = [[gens[i][t] for i in subset] for t in range(k)]
                if size and rank_of(mat) < size:
                    continue
                q = solve_rational(mat, target)
                if q is None or any(x < 0 for x in q):
                    continue
                N, scaled = clear_denominators(q)
                coeffs = [0] * len(gens)
                coeffs[j] = N
                for i, x in zip(subset, scaled):
                    coeffs[i] += x
                T = _torsion_order(_combine(coeffs, gens, amb), amb)
                coeffs = [T * c for c in coeffs]
                coeffs[j] -= 1
                if _combine(coeffs, gens, amb) != amb.neg(gens[j]):
                    raise RuntimeError(f"negation of unit generator {gens[j]} does not verify")
                return coeffs
        raise RuntimeError(f"generator {gens[j]} is not a unit of {self.M!r}")

    def lift(self, a, witness):
        """A witness over the generators of M for a, from a witness over the
        generators of M/U for its image; checked in the ambient group."""
        amb = self.M.ambient
        gens = self.M.generators
        coeffs = [0] * len(gens)
        for i, c in zip(self._lift_index, witness):
            coeffs[i] += c
        # the rest h lies in U: solve for its unit coefficients and replace
        # each negative one by the stored non-negative form of the negation
        h = amb.sub(a, _combine(coeffs, gens, amb))
        z = solve_smith(self._snf, h)
        if z is None:
            raise RuntimeError(f"{a} and its lifted witness differ outside U")
        for j, e in zip(self.units, z):
            if e >= 0:
                coeffs[j] += e
            else:
                neg = self._negations.get(j)
                if neg is None:
                    neg = self._negations[j] = self._negation(j)
                for i, c in enumerate(neg):
                    coeffs[i] -= e * c
        if _combine(coeffs, gens, amb) != a:
            raise RuntimeError(f"lifted witness for {a} does not verify")
        return tuple(coeffs)


def _dot(u, v):
    return sum(map(mul, u, v))


def _combine(coeffs, gens, ambient):
    """sum c_i g_i in the ambient group."""
    acc = [0] * ambient.dim
    for c, g in zip(coeffs, gens):
        if c:
            for t, x in enumerate(g):
                acc[t] += c * x
    return ambient.reduce(acc)


def _torsion_order(t, ambient):
    """Order of an element with zero free part."""
    order = 1
    for x, d in zip(ambient.torsion_part(t), ambient.torsion):
        o = d // gcd(x, d)
        order = order * o // gcd(order, o)
    return order


def _group_closure(gens, ambient):
    """All elements of the finite group generated by gens (must be torsion)."""
    elems = {ambient.zero()}
    frontier = [ambient.zero()]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                for h in (g, ambient.neg(g)):
                    x = ambient.add(e, h)
                    if x not in elems:
                        if any(x[: ambient.free_rank]):
                            raise ValueError("non-torsion element in torsion closure")
                        elems.add(x)
                        new.append(x)
        frontier = new
        if len(elems) > 100000:
            raise ValueError("torsion closure too large")
    return sorted(elems)


# ---------------------------------------------------------------------------
# membership and unit groups


def member(M, a):
    """Exact membership of a in M, with a witness over M.generators.

    Positive monoids are searched through their grading, slice by slice:
    a is looked up in the slice up to its degree, after a range check that
    answers "no" for an element outside the box of the slice.  A monoid with
    units answers through the positive monoid M/U(M), and its witness is
    lifted back to M and checked in the ambient group.  The answer is "yes"
    with a witness, or "no", which is a proof.

    The witness depends only on (M, a).  On a positive monoid it is the
    factorization with the fewest generators, and among those the
    lexicographically largest coefficient vector; on a monoid with units it
    is that factorization in M/U(M), lifted.
    """
    amb = M.ambient
    a = amb.reduce(a)
    if M.grading() is not None:
        return _graded_member(M, a)
    uq = M.unit_quotient()
    res = _graded_member(uq.quotient, uq.project(a))
    if not res.is_yes:
        return Membership("no", note=f"image outside M/U: {res.note}")
    return Membership("yes", uq.lift(a, res.witness))


def _graded_member(M, a):
    """Membership of a reduced element in a positive monoid, by its slice."""
    amb = M.ambient
    if a == amb.zero():
        return Membership("yes", (0,) * len(M.generators))
    if not M.generators:
        return Membership("no", note="trivial monoid")
    d = M.degree(a)
    if d <= 0:
        return Membership("no", note="nonpositive grading degree")
    hit = M._slice_data(d).get(a)
    if hit is not None:
        return Membership("yes", hit[0])
    return Membership("no", note=f"exhausted graded slice to degree {d}")


def units_submonoid(M):
    """Generators of U(M): the monoid generators whose images lie in the
    lineality space of the cone (every unit is a non-negative combination of
    these)."""
    return list(M.unit_generators())


def is_positive(M):
    return not units_submonoid(M)


def is_torsion_free(M):
    return not M.gp_shape().torsion


def rank(M):
    return M.gp_shape().free_rank


def torsion_quotient(M):
    """Mbar with projection/section data; see TorsionQuotient."""
    return M.torsion_quotient()


# ---------------------------------------------------------------------------
# ideals as raw generator data (the ideals module wraps this)


def ideal_contains(host, ideal_gens, x):
    """x in the ideal generated by ideal_gens: exists g with x - g in host."""
    amb = host.ambient
    x = amb.reduce(x)
    for g in ideal_gens:
        res = member(host, amb.sub(x, g))
        if res.is_yes:
            return Membership("yes", (g, res.witness))
    return Membership("no")


def validate_ideal(host, ideal_gens):
    for g in ideal_gens:
        res = member(host, g)
        if not res.is_yes:
            raise ValueError(f"ideal generator {g} is not an element of the host monoid")


# ---------------------------------------------------------------------------
# partially cancellative monoids


COLLAPSED = "*"  # the single absorbing class of a pc monoid


class PcMonoid:
    """Quotient N/I of a cancellative monoid by a finitely generated ideal.

    Elements are base elements outside I, plus the single collapsed class
    (present iff I is nonempty).  Addition lands on the class as soon as the
    base sum falls into I.
    """

    def __init__(self, base, collapse_gens=()):
        validate_ideal(base, collapse_gens)
        self.base = base
        self.collapse_gens = tuple(sorted({base.ambient.reduce(g) for g in collapse_gens}))

    @property
    def has_collapse(self):
        return bool(self.collapse_gens)

    def is_singleton(self):
        """Whether I = N, i.e. the quotient is the constant singleton monoid."""
        return self.has_collapse and ideal_contains(self.base, self.collapse_gens, self.base.zero()).is_yes

    def collapsed(self, x):
        if not self.has_collapse:
            return False
        return ideal_contains(self.base, self.collapse_gens, x).is_yes

    def member(self, x):
        """Membership of an ambient element as a non-collapsed class."""
        res = member(self.base, x)
        if not res.is_yes:
            return res
        if self.collapsed(x):
            return Membership("no", note="element collapsed to the basepoint class")
        return res

    def add(self, x, y):
        """Addition of classes; returns COLLAPSED when the sum lands in I."""
        if x == COLLAPSED or y == COLLAPSED:
            return COLLAPSED
        s = self.base.ambient.add(x, y)
        return COLLAPSED if self.collapsed(s) else s

    def __eq__(self, other):
        return (
            isinstance(other, PcMonoid)
            and self.base == other.base
            and self.collapse_gens == other.collapse_gens
        )

    def __hash__(self):
        return hash((self.base, self.collapse_gens))

    def __repr__(self):
        return f"PcMonoid({self.base!r}, collapse={list(self.collapse_gens)})"


def quotient_by_ideal(N, ideal_gens):
    """N/I with the unique addition rule collapsing I to one class."""
    return PcMonoid(N, ideal_gens)


# ---------------------------------------------------------------------------
# derived monoids


class StarSubmonoid:
    """I_* = I cup {0} as a submonoid of the host.

    Not finitely generated in general; exposes exact membership, graded
    slices, and minimal generators up to a degree bound with an honest
    completeness flag.
    """

    def __init__(self, host, ideal_gens):
        validate_ideal(host, ideal_gens)
        self.host = host
        self.ideal_gens = tuple(sorted({host.ambient.reduce(g) for g in ideal_gens}))

    def contains(self, x):
        x = self.host.ambient.reduce(x)
        if x == self.host.ambient.zero():
            return Membership("yes", ())
        return ideal_contains(self.host, self.ideal_gens, x)

    def slice_elements(self, bound):
        """Ideal elements of grading degree <= bound (0 excluded)."""
        return sorted(
            el
            for el in self.host.slice(bound)
            if any(el) and ideal_contains(self.host, self.ideal_gens, el).is_yes
        )

    def generators_up_to(self, bound):
        """Minimal monoid generators of I_* with degree <= bound.

        Returns (generators, complete): x is kept iff x in I \\ (I + I); the
        flag is False when a minimal element appears in the top degree band,
        i.e. the stream has not visibly stabilized within the bound.
        """
        elems = self.slice_elements(bound)
        eset = set(elems)
        amb = self.host.ambient
        mins = []
        for x in elems:
            reducible = False
            for g in self.ideal_gens:
                for h in self.ideal_gens:
                    rest = amb.sub(amb.sub(x, g), h)
                    if member(self.host, rest).is_yes:
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                mins.append(x)
        band = max((self.host.degree(g) for g in self.host.generators), default=1)
        complete = all(self.host.degree(x) <= bound - band for x in mins)
        return mins, complete


def star_submonoid(ideal_host, ideal_gens):
    return StarSubmonoid(ideal_host, ideal_gens)


def smash(L, N):
    """L smash N: pairs (l, n) with l = 0 forcing n = 0.

    Finitely generated iff N is finite (all elements torsion) or L is
    trivial; raises otherwise.  Generators: (g, n) over L-generators g and all
    n in N, minimalized by _minimalize_generators: the irreducibles when L is
    positive, otherwise the greedy loop's set.
    """
    ambL, ambN = L.ambient, N.ambient
    amb = AbelianGroupShape(ambL.free_rank + ambN.free_rank, ambL.torsion + ambN.torsion)

    def pair(l, n):
        return (
            l[: ambL.free_rank]
            + n[: ambN.free_rank]
            + l[ambL.free_rank :]
            + n[ambN.free_rank :]
        )

    if not L.generators:
        return CancellativeMonoid(amb, [])
    if not N.generators:
        return CancellativeMonoid(amb, [pair(g, ambN.zero()) for g in L.generators])
    # need every element of N; only finite N qualifies
    n_shape = subgroup_shape(list(N.generators), ambN)
    if n_shape.free_rank:
        raise ValueError(
            "smash generators are only finite when the second factor is a finite "
            "torsion monoid; L smash N is not finitely generated here"
        )
    # N is a finite group, so the monoid its generators generate is the group
    n_elems = _group_closure(list(N.generators), ambN)
    gens = [pair(g, n) for g in L.generators for n in n_elems]
    return CancellativeMonoid(amb, _minimalize_generators(gens, amb))


def _minimalize_generators(gens, ambient):
    """A minimal generating set of M = <gens>, sorted: the generators that a
    pass in sorted order keeps when it drops each generator lying in the
    monoid of the generators still kept.

    This is the list of the greedy loop that restarts after every removal:
    dropping a redundant generator leaves M, U = U(M) and M/U as they are,
    and a generator outside the monoid of the others stays outside once
    more are dropped.  A unit is a sum of units only, so units and
    non-units are decided apart:

    - M positive: the result is the unique minimal generating set, the
      irreducibles of M, read off one slice of M;
    - non-units of M with units: g is redundant exactly when its image in
      M/U is reducible or another kept non-unit has the same image, so the
      last generator of each irreducible image of M/U is kept;
    - units: each unit is tested against the monoid of the other kept
      units.
    """
    gens = sorted({ambient.reduce(g) for g in gens if any(ambient.reduce(g))})
    M = CancellativeMonoid(ambient, gens)
    if M.grading() is not None:
        return _irreducible_generators(M)
    uq = M.unit_quotient()
    irreducible = set(_irreducible_generators(uq.quotient))
    unit_set = set(M.unit_generators())
    last = {}
    for g in gens:
        if g not in unit_set:
            last[uq.project(g)] = g
    kept = [g for v, g in last.items() if v in irreducible]
    units = [g for g in gens if g in unit_set]
    for g in list(units):
        others = [h for h in units if h != g]
        if others and member(CancellativeMonoid(ambient, others), g).is_yes:
            units = others
    return sorted(kept + units)


def _irreducible_generators(M):
    """The generators g of the positive monoid M with g - h outside M for
    every other generator h, in order: its irreducibles.  One slice up to
    the largest generator degree holds every g - h of positive degree."""
    gens = M.generators
    if not gens:
        return []
    amb = M.ambient
    degs = [M.degree(g) for g in gens]
    data = M._slice_data(max(degs))
    return [
        g for g, d in zip(gens, degs)
        if not any(e < d and data.get(amb.sub(g, h)) for h, e in zip(gens, degs))
    ]


def minimalize(M):
    """The same monoid presented by a minimal generating set: for positive M
    its irreducibles, the only one; with units, the set the greedy loop over
    the sorted generators keeps (see _minimalize_generators)."""
    return CancellativeMonoid(M.ambient, _minimalize_generators(list(M.generators), M.ambient))
