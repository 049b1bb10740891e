"""Cancellative monoids with torsion, their ideals, partially cancellative
quotients, and their structural operations.

Monoid elements are reduced tuples over the ambient group Z^r x prod Z/d_i;
the ambient AbelianGroupShape does their coordinate arithmetic.  Membership
is exact and always ends.  A positive monoid enumerates its elements through
a strictly positive grading, slice by slice (GradedSlice); membership past
the cached slice searches only the facet interval of the query
(FacetInterval).  Both key elements by packed integers, guarded fields (a
degree slack, facet slacks) over a torsion index, so one breadth-first
search (_search) with a back-pointer per key serves both, and one walk-back
(_walk_back) rebuilds a witness.  A
monoid M with units U = U(M) is reduced to the positive monoid M/U inside
G/U: a lies in M exactly when its image lies in M/U, and a witness found
there is lifted back to M through the unit generators (UnitQuotient).
Membership in gp(M) is one solve against the Smith form of [generators |
torsion moduli] that M keeps.  MonoidIdeal is the one holder of ideal
generators: the quotient N/I (PcMonoid), I_* (StarSubmonoid) and the
ideals module each hold one and ask it.
"""

from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod
from operator import ge, lshift, mul

from .lattice import (
    AbelianGroupShape,
    Record,
    _congruence_matrix,
    _dot,
    _shape_from_smith,
    clear_denominators,
    diagonal_of,
    field_eliminate,
    grading_for,
    smith_normal_form,
    solve_smith,
)
from .rings import QQ


class InconclusiveError(Exception):
    """Kept for compatibility: membership is exact and nothing raises this."""


class Membership(Record):
    """The answer to "is a in M?": "yes" with a witness over the generators,
    or "no", which is a proof, with a note.  A "yes" made by _deferred
    holds the function that computes its witness and calls it on the first
    read of .witness, since most callers read only is_yes; repr and == read
    the witness, so a deferred answer prints and compares as the eager one."""

    _fields = ("status", "witness", "note")
    _make = None

    def __init__(self, status, witness=None, note=""):
        self.status = status  # "yes" | "no"
        self._witness = witness
        self.note = note

    @classmethod
    def _deferred(cls, make):
        """A "yes" whose witness is make(), computed on first read."""
        res = cls.__new__(cls)
        res.status, res.note, res._make = "yes", "", make
        return res

    @property
    def witness(self):
        if self._make is not None:
            self._witness, self._make = self._make(), None
        return self._witness

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
            self._cache["gp_shape"] = _shape_from_smith(self._gp_smith(), len(self.generators))
        return self._cache["gp_shape"]

    def in_gp(self, a):
        """Whether a lies in gp(M) inside the ambient group: whether
        sum c_i g_i + sum e_j d_j u_j = a has an integer solution over the
        generators g_i and the torsion moduli d_j, one solve against the
        Smith form that gp_shape reads too."""
        return solve_smith(self._gp_smith(), list(self.ambient.reduce(a))) is not None

    def _gp_smith(self):
        """The Smith form of [generators | torsion moduli], kept."""
        if "gp_smith" not in self._cache:
            m, _ = _congruence_matrix(self.generators, self.ambient)
            self._cache["gp_smith"] = smith_normal_form(m)
        return self._cache["gp_smith"]

    # -- grading and slices --------------------------------------------------

    def grading(self):
        """Strictly positive integer grading covector, or None."""
        if "grading" not in self._cache:
            w, lin, rays = grading_for(list(self.generators), self.ambient)
            self._cache["grading"] = w
            self._cache["cone"] = lin, rays
        return self._cache["grading"]

    def cone(self):
        """(lineality, rays) of the cone of the free parts, from the one
        double description that grading() runs (see lattice.grading_for).
        The units, the facet interval, the faces and normalize read it."""
        self.grading()
        return self._cache["cone"]

    def degree(self, a):
        w = self.grading()
        if w is None:
            raise ValueError("monoid admits no strictly positive grading")
        return sum(map(mul, w, a))  # w covers the free coordinates only

    def _slice_data(self, bound):
        """The GradedSlice of every monoid element of degree <= bound, from
        one breadth-first search started at 0, for the callers that
        enumerate: the ideals, the key lists, the closures and
        _irreducible_generators.  member reads a cached slice but never
        grows one; past its bound it searches an interval instead.

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

    def unit_generators(self):
        """The generators that are units, from cone geometry: g is a unit
        exactly when every facet normal of the cone vanishes on the free
        part of g (its image lies in the lineality space).  A pure-torsion
        generator is one; a positively graded monoid has none."""
        if "units" not in self._cache:
            _, rays = self.cone()
            self._cache["units"] = tuple(
                g for g in self.generators if not any(_dot(n, g) for n in rays)
            )
        return self._cache["units"]

    def unit_quotient(self):
        """M/U(M) with the lift of its witnesses; monoids with units only."""
        if "uq" not in self._cache:
            self._cache["uq"] = UnitQuotient(self)
        return self._cache["uq"]


class GradedSlice:
    """The elements of degree <= bound of a positive monoid M on packed
    integer keys, each with the back-pointer its witness is rebuilt from.

    An element of degree <= bound is a sum of at most bound generators
    (each of degree >= 1), so its free coordinates lie in the box |x_t| <=
    e_t = bound * max_g |g_t|.  A key holds, from the top, the free
    coordinates offset by 3 e_t in mixed radix 6 e_t + 1 (the first most
    significant), the degree slack bound - deg(x) in a field with a guard
    bit on top, and the torsion index in the low tbits bits, as in
    FacetInterval.  The slack is a function of the free part, so keys sort
    as the tuples do, and key(a) stays one linear expression: -w_t is
    folded into the place of x_t.  The field is wider than any |slack| on
    the key box |x_t| <= 3 e_t or one generator step past the slice, so it
    neither borrows nor carries there, and its guard is set exactly when
    the degree is at most the bound.  Adding or subtracting a fixed element
    v is one addition of a shift that depends only on the torsion index:
    key + shift[key & tmask].  That is exact for a slice element x and
    |v_t| <= 2 e_t, since x + v stays in the key box; an element with a
    larger coordinate is never the difference of two slice elements.
    key(a) gives the key of the reduced element a, or None outside the box,
    where no slice element lies, instead of wrapping it onto another key.

    entries maps each key, in the order _search first reached it, to the
    index of the generator of that step (-1 for 0); witness(key) walks the
    steps back and degree(key) reads the slack.
    """

    def __init__(self, M, bound):
        amb, gens, w = M.ambient, M.generators, M.grading()
        r, tor = amb.free_rank, amb.torsion
        self.bound = bound
        self._rank, self._torsion = r, tor
        reach = max(bound, 0)
        self._reach = [reach * max((abs(g[t]) for g in gens), default=0) for t in range(r)]
        self._radix = [6 * e + 1 for e in self._reach]
        self._torsion_tuples = list(product(*(range(d) for d in tor)))
        tb = (len(self._torsion_tuples) - 1).bit_length()
        # |deg| <= 3 * spread on the key box, and a step from the slice
        # lowers the slack by at most the largest generator degree
        spread = sum(abs(c) * e for c, e in zip(w, self._reach))
        sb = (abs(bound) + 3 * spread + max(map(M.degree, gens), default=0)).bit_length()
        self._tbits, self._tmask, self._low = tb, (1 << tb) - 1, sb + 1 + tb
        self._guard, self._field, self._top = 1 << sb + tb, (2 << sb) - 1, (1 << sb) + bound
        places = [prod(self._radix[t + 1:]) << self._low for t in range(r)]
        self._places = [p - (c << tb) for p, c in zip(places, w)]
        self.zero = sum(3 * e * p for e, p in zip(self._reach, places)) + (self._top << tb)
        self.key = _key_function(r, len(tor))(
            self.zero, *(-e for e in self._reach), *self._reach, *self._places,
            *(prod(tor[j + 1:]) for j in range(len(tor))),
        )
        self._steps = list(map(self._shift, gens))
        self.entries = _search(self.zero, list(enumerate(self._steps)), self._guard, self._tmask)
        self._back = self._sorted = self._elements = None

    def _shift(self, v):
        """Per torsion index, what adding the reduced element v adds to a key."""
        return _torsion_shifts(v[self._rank:], self._torsion, -sum(map(mul, v, self._places)))

    def witness(self, key):
        """The witness of the element of a slice key: the path the search
        first reached it by, walked back."""
        if self._back is None:
            self._back = _inverse_shifts(self._steps, self._tmask)
        return _walk_back(self.entries, key, self._back, self._tmask)

    def degree(self, key):
        """The degree of the element of a key in the slice's box."""
        return self._top - (key >> self._tbits & self._field)

    def element(self, key):
        """The ambient element of a key."""
        f, free = key >> self._low, []
        for e, n in zip(reversed(self._reach), reversed(self._radix)):
            f, c = divmod(f, n)
            free.append(c - 3 * e)
        return tuple(free[::-1]) + self._torsion_tuples[key & self._tmask]

    def minus(self, vs):
        """The shifts that subtract each reduced element v of vs from a slice
        key: key + shift[key & tmask].  A v with a coordinate beyond twice
        the box is left out, since it is never the difference of two slice
        elements."""
        vs = [v for v in vs if all(-2 * e <= x <= 2 * e for x, e in zip(v, self._reach))]
        return _inverse_shifts(list(map(self._shift, vs)), self._tmask)

    def generated(self, key, shifts):
        """Whether key - v is a slice element for some v of shifts."""
        entries, t = self.entries, key & self._tmask
        return any(key + s[t] in entries for s in shifts)

    def _in_order(self):
        """The keys sorted and their degrees, sorted once per slice."""
        if self._sorted is None:
            keys = sorted(self.entries)
            self._sorted = keys, list(map(self.degree, keys))
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
        return self.elements_and_degrees(bound)[0]

    def elements_and_degrees(self, bound):
        """The elements of degree <= bound, sorted, and their degrees."""
        _, elements, degs = self._unpacked()
        keep = [i for i, d in enumerate(degs) if d <= bound]
        return [elements[i] for i in keep], [degs[i] for i in keep]

    def witnesses(self, bound):
        """Element -> witness for the elements of degree <= bound, sorted."""
        return {x: self.witness(k) for k, x, d in zip(*self._unpacked()) if d <= bound}


@lru_cache(maxsize=None)
def _key_function(rank, ntorsion):
    """A maker of GradedSlice.key for ambients of this shape.

    make(zero, -e_1..-e_rank, e_1..e_rank, p_1..p_rank, q_1..q_ntorsion)
    returns the function that unpacks a reduced element into locals, checks
    |x_t| <= e_t and returns zero + sum x_t p_t + sum y_j q_j, or None.
    The source is written and compiled once per shape: a loop over the
    coordinates costs about three times as much per call.
    """
    xs = [f"x{t}" for t in range(rank)]
    ys = [f"y{j}" for j in range(ntorsion)]
    ls = [f"l{t}" for t in range(rank)]
    es = [f"e{t}" for t in range(rank)]
    ps = [f"p{t}" for t in range(rank)]
    qs = [f"q{j}" for j in range(ntorsion)]
    box = " and ".join(f"{l} <= {x} <= {e}" for l, x, e in zip(ls, xs, es)) or "True"
    total = " + ".join(["zero"] + [f"{x} * {p}" for x, p in zip(xs + ys, ps + qs)])
    src = (
        f"def make({', '.join(['zero'] + ls + es + ps + qs)}):\n"
        f"    def key(a):\n"
        f"        ({''.join(v + ', ' for v in xs + ys)}) = a\n"
        f"        if {box}:\n"
        f"            return {total}\n"
        f"        return None\n"
        f"    return key\n"
    )
    scope = {}
    exec(compile(src, f"<GradedSlice.key rank {rank} torsion {ntorsion}>", "exec"), scope)
    return scope["make"]


class TorsionQuotient:
    """Mbar = image of M in gp(M)/t(M), coordinatized as Z^r, with an explicit
    splitting gp(M) = gp(Mbar) x t(M)."""

    def __init__(self, M):
        self.M = M
        amb = M.ambient
        k = amb.free_rank
        gens = list(M.generators)
        frees = [list(g[:k]) for g in gens]
        self._tgens = []
        self._elements = None
        if not gens:
            self.rank = 0
            self.Mbar = CancellativeMonoid(AbelianGroupShape(0), [])
            self._sections = []
            return
        # lattice spanned by the free parts, basis from the Smith form
        A = [[frees[j][i] for j in range(len(gens))] for i in range(k)]  # k x s
        U, D, V = smith_normal_form(A)
        diag = diagonal_of(D)
        r = sum(1 for d in diag if d)
        # U A V = D: column j of A V is d_j times column j of U^{-1}, and the
        # first r of them are a basis of the lattice
        self.rank = r
        self._U = U
        self._diag = diag[:r]
        self.Mbar = CancellativeMonoid(AbelianGroupShape(r), [self.project(g) for g in gens])
        # section: basis vector j is A times column j of V, so it lifts to
        # the combination of the generators, torsion data included, with
        # the coefficients of that column
        self._sections = [_combine([row[j] for row in V], gens, amb) for j in range(r)]
        # t(M) = gp(M) cap torsion, generated by g - section(project(g))
        for g in gens:
            t = amb.sub(g, self.section(self.project(g)))
            assert not any(t[:k])
            self._tgens.append(t)

    @property
    def torsion_elements(self):
        """Every element of t(M), sorted, listed on first use: only the
        closures read the list, and it can be too large to list."""
        if self._elements is None:
            self._elements = _group_closure(self._tgens, self.M.ambient)
        return self._elements

    def project(self, a):
        """Coordinates of a's free part x in gp(Mbar) = Z^r.  The basis
        vectors are d_j U^-1 e_j, so these are the (U x)_j / d_j; x is outside
        the lattice when some d_j does not divide (U x)_j or a row of U past
        the rank is nonzero on x."""
        if not self.rank:
            return ()
        x = a[: self.M.ambient.free_rank]
        ux = [_dot(row, x) for row in self._U]
        if any(ux[self.rank :]) or any(y % d for y, d in zip(ux, self._diag)):
            raise ValueError(f"{a} has free part outside the generator lattice")
        return tuple(y // d for y, d in zip(ux, self._diag))

    def section(self, v):
        """Splitting gp(Mbar) -> gp(M); project(section(v)) == v."""
        return _combine(v, self._sections, self.M.ambient)


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
        gens = M.generators
        self.M = M
        unit_set = set(M.unit_generators())
        self.units = [i for i, g in enumerate(gens) if g in unit_set]
        if not self.units:
            raise RuntimeError(f"{M!r} has no positive grading and no unit generator")
        self._snf = smith_normal_form(_congruence_matrix([gens[i] for i in self.units], amb)[0])
        P, D, _ = self._snf
        diag = diagonal_of(D)
        r = sum(1 for d in diag if d)
        self._free_rows = P[r:]
        self._torsion_rows = [(P[i], d) for i, d in enumerate(diag[:r]) if d > 1]
        self.ambient = AbelianGroupShape(amb.dim - r, tuple(d for _, d in self._torsion_rows))
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
        return tuple(
            [_dot(row, x) for row in self._free_rows]
            + [_dot(row, x) % d for row, d in self._torsion_rows]
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
        span = field_eliminate(QQ, [[gens[i][t] for i in self.units] for t in range(k)])[0]
        for size in range(span + 1):
            for subset in combinations(self.units, size):
                mat = [[gens[i][t] for i in subset] for t in range(k)]
                rank, _, (q,) = field_eliminate(QQ, mat, [target])
                if rank < size or q is None or any(x < 0 for x in q):
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

    A positive monoid looks a up in its cached slice when that covers
    deg(a), and otherwise searches the facet interval of a (FacetInterval),
    which grows no slice; both give the same witness.  A slice hit is a
    deferred Membership that walks its witness back only when .witness is
    first read; an interval search walks it back at once, and its answers
    are memoized (FacetInterval.member).  A monoid with units answers
    through the positive monoid M/U(M), and every "yes" there is lifted
    back to M at once and checked in the ambient group.  The answer is
    "yes" with a witness, or "no", which is a proof.

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
    """Membership of a reduced element in the positive monoid M: a lookup
    in the cached slice when it covers deg(a), otherwise the interval
    search of M's FacetInterval, made on first use.  A slice hit defers the
    walk back of its witness."""
    amb = M.ambient
    if a == amb.zero():
        return Membership("yes", (0,) * len(M.generators))
    if not M.generators:
        return Membership("no", note="trivial monoid")
    cache = M._cache
    cached = cache.get("slice")
    if cached is not None:
        # a key in the slice has degree <= its bound, so a hit needs no degree
        key = cached.key(a)
        if key in cached.entries:
            return Membership._deferred(lambda: cached.witness(key))
        if cached.bound >= M.degree(a):
            return Membership("no", note=f"not in the graded slice of degree {cached.bound}")
    interval = cache.get("interval")
    if interval is None:
        interval = cache["interval"] = FacetInterval(M)
    return interval.member(a)


class FacetInterval:
    """Membership in a positive monoid M by a breadth-first search over the
    interval {p in M : n.p <= n.a for every facet normal n} of the target a,
    with the normals and the lineality of M.cone().  A target off the span
    of the generators (some lineality vector is nonzero on it) or outside
    their cone is not in M.

    Every prefix p of a factorization of a has a - p in M, so the interval
    holds every path to a; the search (_search, the slice's) takes the
    generators in the same order and stops at the first reach of a, so the
    path it records, walked back by _walk_back, is the slice's witness.
    The grading is a positive multiple of the sum of the normals
    on the span, so the interval lies in the slice of degree deg(a).

    An element p is keyed by its slacks n_i.(a - p), which fix its free part
    inside the span, packed into fields with a guard bit on top of each,
    followed by its torsion index (mixed radix over the moduli, the last
    one fastest) in the low tbits bits.  Each field is at least as wide as
    n_i.g for every generator g and as n_i.a; the widths only grow, from
    one target to the next.  Subtracting the packed values F of a generator
    from a key with every guard set then borrows across no field, and the
    step stays in the interval exactly when every guard is still set.  A
    generator that does not fit at p = 0 never fits, so it is left out.  a
    is reached at slack 0 with its own torsion index; the walk back adds F
    again and turns the torsion index back.  Answers are kept per
    target, since interior_member and face_locate ask again what member
    asked; the memo is emptied when it holds ANSWERS_KEPT of them, so an
    interned monoid keeps no more than that.
    """

    ANSWERS_KEPT = 1024

    def __init__(self, M):
        amb = M.ambient
        self._lin, self._normals = M.cone()
        self._gens = M.generators
        self._values = [[_dot(n, g) for n in self._normals] for g in self._gens]
        self._rank, self._torsion = amb.free_rank, amb.torsion
        self._tplaces = [prod(amb.torsion[j + 1:]) for j in range(len(amb.torsion))]
        self._tbits = (prod(amb.torsion) - 1).bit_length()
        self._widths = [max(v).bit_length() for v in zip(*self._values)]
        self._pack()
        self._answers = {}

    def _pack(self):
        """Field offsets, the guard bits, each generator's packed facet
        values for the present widths and the shifts of one step by it per
        torsion index (one shift, -F, without torsion)."""
        self._offsets, guard, off = [], 0, 0
        for w in self._widths:
            self._offsets.append(off)
            guard |= 1 << (off + w)
            off += w + 1
        self._limits = [1 << w for w in self._widths]
        tb = self._tbits
        self._guard = guard << tb
        self._packed = [
            sum(v << o for v, o in zip(vals, self._offsets)) << tb for vals in self._values
        ]
        r = self._rank
        self._shifts = [
            _torsion_shifts(g[r:], self._torsion, f) for g, f in zip(self._gens, self._packed)
        ]
        self._back = None

    def member(self, a):
        """The Membership of the nonzero reduced element a, memoized."""
        res = self._answers.get(a)
        if res is None:
            if len(self._answers) >= self.ANSWERS_KEPT:
                self._answers.clear()
            wit = self._witness(a)
            res = self._answers[a] = (
                Membership("no", note="no path to the element inside its facet interval")
                if wit is None else Membership("yes", wit)
            )
        return res

    def _witness(self, a):
        """The slice witness of a over the generators of M, or None when a
        is not in M."""
        if self._lin and any(_dot(l, a) for l in self._lin):
            return None
        top = [_dot(n, a) for n in self._normals]
        if min(top) < 0:
            return None
        if any(map(ge, top, self._limits)):
            self._widths = [max(w, s.bit_length()) for s, w in zip(top, self._widths)]
            self._pack()
        tb, guard, r = self._tbits, self._guard, self._rank
        tmask = (1 << tb) - 1
        start = sum(map(lshift, top, self._offsets)) << tb | guard
        goal = guard | sum(map(mul, a[r:], self._tplaces))
        moves = [(i, sh) for i, sh in enumerate(self._shifts) if (start + sh[0]) & guard == guard]
        seen = _search(start, moves, guard, tmask, goal)
        if goal not in seen:
            return None
        if self._back is None:
            self._back = _inverse_shifts(self._shifts, tmask)
        return _walk_back(seen, goal, self._back, tmask)


def _search(start, moves, guard, tmask, goal=None):
    """Key -> index of the generator of the step that first reached it (-1
    for start), breadth first from start in the order first reached, up to
    the first reach of goal if one is given.  A move (index, shifts) adds
    shifts[key & tmask] and is kept while every guard bit is set."""
    seen = {start: -1}
    frontier = [start]
    while frontier:
        new = []
        for key in frontier:
            t = key & tmask
            for i, shifts in moves:
                nxt = key + shifts[t]
                if nxt & guard == guard and nxt not in seen:
                    seen[nxt] = i
                    if nxt == goal:
                        return seen
                    new.append(nxt)
        frontier = new
    return seen


def _inverse_shifts(tables, tmask):
    """The tables of the steps back.  A step by table s from torsion index
    t lands on index (t + s[t]) & tmask, since s[t] changes the rest of the
    key by a multiple of tmask + 1; the step back from there adds -s[t]."""
    back = [table[:] for table in tables]
    for table, inv in zip(tables, back):
        for t, s in enumerate(table):
            inv[(t + s) & tmask] = -s
    return back


def _walk_back(seen, key, back, tmask):
    """The coefficient vector of the path _search recorded to key, undone
    step by step through back, the _inverse_shifts of its tables (one per
    generator)."""
    coeffs = [0] * len(back)
    i = seen[key]
    while i >= 0:
        coeffs[i] += 1
        key += back[i][key & tmask]
        i = seen[key]
    return tuple(coeffs)


def _torsion_shifts(v, torsion, f):
    """Per torsion index t, what adding a reduced torsion part v and
    subtracting f from the rest of a key adds to a key whose low part holds
    t: the index moves to that of t + v.  The one torsion table of both
    engines: a GradedSlice step adds the packed free part and degree slack
    of a generator (f is their negative), a FacetInterval step subtracts
    its packed facet values; _inverse_shifts turns them into the steps
    back."""
    table = [0]
    for c, d in zip(v, torsion):
        turned = list(range(c, d)) + list(range(c))
        table = [x * d + y for x in table for y in turned]
    return [u - t - f for t, u in enumerate(table)]


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
# ideals: one MonoidIdeal holds the generators behind N/I, I_* and the
# ideals module


def ideal_contains(host, ideal_gens, x):
    """x in the ideal generated by ideal_gens: exists g with x - g in host.
    A "yes" defers its witness, the pair (g, witness of x - g)."""
    amb = host.ambient
    x = amb.reduce(x)
    for g in ideal_gens:
        res = member(host, amb.sub(x, g))
        if res.is_yes:
            return Membership._deferred(lambda: (g, res.witness))
    return Membership("no")


class MonoidIdeal:
    """Finitely generated ideal of a cancellative or pc monoid.

    pc-hosted ideals are represented by their pullback to the base monoid
    (generators plus the collapse generators), which restores exactness;
    host is always the cancellative monoid, and the constructor checks
    that every generator lies in it.
    """

    def __init__(self, host, generators):
        if isinstance(host, PcMonoid):
            self.pc_host = host
            base = host.base
            gens = list(generators) + list(host.collapse_gens)
        else:
            self.pc_host = None
            base = host
            gens = list(generators)
        for g in gens:
            if not member(base, g).is_yes:
                raise ValueError(f"ideal generator {g} is not an element of the host monoid")
        self.host = base
        self.generators = tuple(sorted({base.ambient.reduce(g) for g in gens}))

    def member(self, x):
        return ideal_contains(self.host, self.generators, x)

    def is_empty(self):
        return not self.generators

    def is_proper(self):
        return not self.member(self.host.ambient.zero()).is_yes

    def contains_ideal(self, other):
        """other subset self, exactly (generator-level)."""
        return all(self.member(g).is_yes for g in other.generators)

    def same_as(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def minimal_generators(self):
        """Generators that are not reachable from the others: the unique
        minimal generating set of a generated ideal is a subset of any
        generating set."""
        keep = []
        for g in self.generators:
            others = [h for h in self.generators if h != g]
            if not ideal_contains(self.host, others, g).is_yes:
                keep.append(g)
        return keep

    def __repr__(self):
        return f"MonoidIdeal(gens={list(self.generators)})"

    def to_json(self):
        return {"generators": [list(g) for g in self.generators]}


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
        self.base = base
        self.ideal = MonoidIdeal(base, collapse_gens)
        self.collapse_gens = self.ideal.generators

    @property
    def has_collapse(self):
        return bool(self.collapse_gens)

    def is_singleton(self):
        """Whether I = N, i.e. the quotient is the constant singleton monoid."""
        return not self.ideal.is_proper()

    def collapsed(self, x):
        return self.ideal.member(x).is_yes

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
    slices, and minimal generators up to a degree bound with a flag that
    is True only when the list has visibly stabilized.
    """

    def __init__(self, host, ideal_gens):
        self.host = host
        self.ideal = MonoidIdeal(host, ideal_gens)
        self.ideal_gens = self.ideal.generators

    def contains(self, x):
        x = self.host.ambient.reduce(x)
        if x == self.host.ambient.zero():
            return Membership("yes", ())
        return self.ideal.member(x)

    def slice_elements(self, bound):
        """Ideal elements of grading degree <= bound (0 excluded)."""
        elements = self.host._slice_data(bound).elements(bound)
        return [el for el in elements if any(el) and self.ideal.member(el).is_yes]

    def generators_up_to(self, bound):
        """Minimal monoid generators of I_* with degree <= bound.

        Returns (generators, complete): for a proper I, x is kept iff x in
        I \\ (I + I); for I = M (0 in I), I_* = M and the generators are
        the irreducibles of M.  The flag is False when a minimal element of
        I_* or of I (which is one of I_*, as I + I lies in I + (M \\ 0)) is
        in the top degree band or above, i.e. the stream has not visibly
        stabilized within the bound.
        """
        host, amb = self.host, self.host.ambient
        if self.ideal.is_proper():
            mins = [
                x for x in self.slice_elements(bound)
                if not any(
                    member(host, amb.sub(amb.sub(x, g), h)).is_yes
                    for g, h in product(self.ideal_gens, repeat=2)
                )
            ]
        else:
            mins = [g for g in _irreducible_generators(host) if host.degree(g) <= bound]
        band = max((self.host.degree(g) for g in self.host.generators), default=1)
        tops = mins + self.ideal.minimal_generators()
        complete = all(self.host.degree(x) <= bound - band for x in tops)
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
    if any(any(g[: ambN.free_rank]) for g in N.generators):
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
        if not any(e < d and data.key(amb.sub(g, h)) in data.entries for h, e in zip(gens, degs))
    ]


def minimalize(M):
    """The same monoid presented by a minimal generating set: for positive M
    its irreducibles, the only one; with units, the set the greedy loop over
    the sorted generators keeps (see _minimalize_generators)."""
    return CancellativeMonoid(M.ambient, _minimalize_generators(list(M.generators), M.ambient))
