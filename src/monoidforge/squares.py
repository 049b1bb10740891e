"""The six Milnor/conductor square constructions and their machine
verification.

A square holds four graded/filtered corners (monomial algebras or explicit
spans inside an ambient algebra) and four maps; verify_cartesian checks, per
truncation up to the bound and in one walk over the degrees, that the
top-left corner is exactly the fiber product of the two legs: exact linear
algebra over finite fields and Q (complete by linearity), a lattice
certificate over Z (integral lifts of the fiber relations, or a saturation
check by one Smith form once a relation is not integral), and a full
elementwise fiber enumeration whenever the fiber size fits the budget.  The
walk is the only check: it restarts where a truncation does not contain
the one before it, and walks a failing degree again as one whole
truncation to name its witness.
"""

import copy
from functools import cache
from itertools import product

from .lattice import (
    AbelianGroupShape,
    Echelon,
    Record,
    axpy,
    diagonal_of,
    fast_zero,
    smith_normal_form,
)
from .monoid import CancellativeMonoid, PcMonoid, member, smash, units_submonoid
from .cones import face_lattice, face_locate
from .closure import is_normal, is_seminormal
from .ideals import MonoidIdeal, is_prime, is_radical, radical
from .rings import QQ
from .algebra import (
    AlgebraElement,
    CancellativeAlgebra,
    LinearWeight,
    MonomialQuotientAlgebra,
    MonomialSubsetAlgebra,
    PcAlgebra,
    _default_weight,
    monoid_keys_by_weight,
)


class Corner:
    """A graded/filtered corner: either a monomial algebra (basis = monomial
    keys) or an explicit span of elements of an ambient algebra."""

    def __init__(self, name, algebra=None, ambient=None, basis_fn=None):
        self.name = name
        self.algebra = algebra
        self.ambient = ambient if ambient is not None else algebra
        self._basis_fn = basis_fn

    @property
    def monomial(self):
        return self._basis_fn is None

    def basis_upto(self, d):
        if self.monomial:
            return [self.algebra._listed_monomial(k) for k in self.algebra.keys_upto(d)]
        return self._basis_fn(d)

    def ring(self):
        return self.ambient.ring


class MilnorSquare(Record):
    _fields = ("kind", "corners", "maps", "surjective_legs", "ring", "description")

    def __init__(self, kind, corners, maps, surjective_legs, ring, description=None):
        self.kind = kind
        self.corners = corners  # "A1","A2","B1","B2" -> Corner
        self.maps = maps  # "top","left","right","bottom" -> callable Element -> Element
        self.surjective_legs = surjective_legs  # subset of ("right", "bottom")
        self.ring = ring
        self.description = {} if description is None else description

    def corner(self, name):
        return self.corners[name]


class CartesianReport(Record):
    _fields = ("ok", "degree_bound", "ring_kind", "method", "per_degree", "witness", "note")

    def __init__(self, ok, degree_bound, ring_kind, method, per_degree, witness=None, note=""):
        self.ok = ok
        self.degree_bound = degree_bound
        self.ring_kind = ring_kind
        self.method = method
        self.per_degree = per_degree
        self.witness = witness
        self.note = note

    def to_json(self):
        return {
            "cartesian": self.ok,
            "degree_bound": self.degree_bound,
            "ring": self.ring_kind,
            "method": self.method,
            "per_degree": self.per_degree,
            "witness": None if self.witness is None else repr(self.witness),
            "note": self.note,
        }


def make_key_map(dst_algebra, key_fn):
    """Linear extension of key -> key | None into dst.  key_fn must be pure:
    the image of each key is computed once and kept."""
    R = dst_algebra.ring
    zero = fast_zero(R)
    images = {}

    def fn(elem):
        out = {}
        for k, c in elem.coeffs.items():
            kk = images.get(k, images)
            if kk is images:
                kk = images[k] = key_fn(k)
            if kk is None:
                continue
            if kk in out:
                out[kk] = R.add(out[kk], c)
            else:
                out[kk] = c
        if zero in out.values():
            out = {k: c for k, c in out.items() if c != zero}
        return AlgebraElement(dst_algebra, out)

    return fn


# ---------------------------------------------------------------------------
# verification core


def verify_cartesian(square, degree_bound=10, elementwise_budget=512):
    """Exhaustive per-truncation Cartesian check with failure witnesses.

    Per truncation: commutation on the A1 basis; injectivity of (top, left);
    fiber-product dimension/lattice equality (complete by linearity, no
    sampling); and, over finite rings whenever the fiber size is within the
    budget, a literal enumeration of every fiber element with its unique
    lift re-verified through the maps.

    The truncations are walked once (_CartesianWalk): at degree d only the
    basis elements that first appear in truncation d are processed.  Each
    is mapped by its legs once, checked for commutation and containment
    once, and becomes one column of one of two echelons carried forward
    from degree to degree: [right | -bottom], whose kernel relations extend
    a nested fiber basis, and (top, left), whose rank decides injectivity.
    Each fiber element is enumerated, lifted and re-checked once, at the
    degree where it first appears.  Over Z, rank and injectivity are read
    over Q.  While the fiber relations are integral they are a Z-basis of
    the kernel lattice, which then equals the image lattice when every
    relation has an integral lift; once one is not integral, the lattices
    are equal when the image lattice is saturated.  A check thus costs
    about as much as its last truncation alone.

    The walk restarts from its numbered basis elements and their images
    when a truncation does not contain the one before it, and when a degree
    fails after its new elements commute and are contained: that degree is
    then walked again as one whole truncation, which is the check of that
    truncation on its own, so the report names its witness.  A corner
    whose basis repeats an element, or a span corner A2 or B1 whose basis
    is linearly dependent, raises ValueError, and so does a negative
    degree bound.

    Each corner's algebra, a span corner's through its ambient, is asked
    for its keys up to the bound once, before the walk.  Its monoid keeps
    that one key list with the level of each key
    (algebra.monoid_keys_by_weight), so no truncation searches the monoid
    again.  A monomial corner reads the list by level: each degree hands
    the walk only its new keys, and the algebra's predicates run only on
    the levels the walk reaches.  A span corner calls its basis function
    at every degree.  Fiber elements are enumerated with the lift and its
    two wanted images kept as running sums, which change by stored
    multiples of one relation's images per changed coefficient; every lift
    is still mapped by top and left, once, and compared with both.
    """
    _check_bound(degree_bound)
    R = square.ring
    walk = _CartesianWalk(square, degree_bound, elementwise_budget)
    per_degree = []
    for d in range(degree_bound + 1):
        entry, failure = walk.step(d)
        if failure is not None:
            method, witness, note = failure
            return CartesianReport(
                False, degree_bound, R.kind, method, per_degree,
                witness=witness, note=note,
            )
        per_degree.append(entry)
    return CartesianReport(True, degree_bound, R.kind, "exact", per_degree)


def _check_bound(bound):
    if bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")


def _kernel_vector(F, j, expr):
    """Column j minus its expression in the earlier columns: 1 at j."""
    v = {k: F.neg(a) for k, a in expr.items()}
    v[j] = F.one()
    return v


class _Truncations:
    """The truncations of one corner up to a bound, asked for degree by
    degree from 0.  Each basis element is built once and numbered in order
    of first appearance.  A monomial corner reads its monoid's key list by
    level: degree d keeps the keys of level d that the algebra keeps, so its
    predicates run on the levels reached, and its truncations are nested.
    A span corner calls its basis function at every degree, and its
    elements are keyed by their coefficients."""

    def __init__(self, name, corner, bound):
        self.name = name
        self.corner = corner
        self.elems = []
        self._prev = set()  # the numbers of the last span truncation
        self._number = {}
        # a span corner's basis function reads the list of its ambient
        keys, levels = corner.ambient.keys_and_levels(bound)
        if corner.monomial:
            self._levels = [[] for _ in range(bound + 1)]
            for k, level in zip(keys, levels):
                if level <= bound:
                    self._levels[max(level, 0)].append(k)
            self._reached = -1

    def upto(self, d):
        """(numbers of the basis of truncation d, in its order; those not
        in the truncation asked for before; whether that one lies in it).
        A span basis that repeats an element raises ValueError."""
        c = self.corner
        if c.monomial:
            alg, start = c.algebra, len(self.elems)
            for level in range(self._reached + 1, d + 1):
                self.elems += [alg._listed_monomial(k) for k in self._levels[level] if alg.keeps(k)]
            self._reached = max(self._reached, d)
            return range(len(self.elems)), range(start, len(self.elems)), True
        out = []
        for e in c.basis_upto(d):
            s = frozenset(e.coeffs.items())
            n = self._number.get(s)
            if n is None:
                n = self._number[s] = len(self.elems)
                self.elems.append(e)
            out.append(n)
        now = set(out)
        if len(now) != len(out):
            raise ValueError(
                f"corner {self.name} ({c.name}) repeats a basis element at degree {d}"
            )
        prev, self._prev = self._prev, now
        return out, [n for n in out if n not in prev], prev <= now

    def combine(self, coeffs, size):
        """The element sum coeffs[n] * basis element n, or None for an empty
        truncation (size 0)."""
        if not size:
            return None
        algebra, out = self.elems[0].algebra, {}
        for n, c in coeffs.items():
            axpy(algebra.ring, out, c, self.elems[n].coeffs)
        return AlgebraElement(algebra, out)


class _Coordinates:
    """Coordinates in the growing basis of one corner: a lookup while every
    basis element is a single monomial with a key of its own, then one
    solve in an Echelon of the basis (over Q with integral coordinates for
    Z).  The coordinates are unique, so a target is expressed once, at the
    degree where it first appears."""

    def __init__(self, R):
        self.R = R
        self.single = True
        self._pos = {}  # key -> (number, coefficient) while single
        self._added = []
        self._echelon = None

    def add(self, n, elem):
        """Append basis element n; False when the basis becomes linearly
        dependent.  A basis that needs a solve over a ring other than a
        field or Z raises ValueError."""
        self._added.append((n, elem))
        if self.single:
            if len(elem.coeffs) == 1:
                ((k, c),) = elem.coeffs.items()
                if k not in self._pos:
                    self._pos[k] = (n, c)
                    return True
            R = self.R
            if not (R.is_field() or R.kind == "Z"):
                raise ValueError(
                    f"span corners over {R.kind} are not supported; use a field, Q, or Z"
                )
            self.single = False
            self._echelon = Echelon(R if R.is_field() else QQ)
            return all(
                self._echelon.insert(m, b.coeffs) is None for m, b in self._added
            )
        return self._echelon.insert(n, elem.coeffs) is None

    def express(self, target):
        """{basis number: coefficient} for target, or None when it is
        outside the span (outside the lattice over Z)."""
        R = self.R
        if self.single:
            one, coords = R.one(), {}
            for k, c in target.coeffs.items():
                if k not in self._pos:
                    return None
                j, b = self._pos[k]
                if b == one:
                    coords[j] = c
                elif R.is_field():
                    coords[j] = R.mul(c, R.inv(b))
                elif R.kind == "Z" and c % b == 0:
                    coords[j] = c // b
                else:
                    return None
            return coords
        coords = self._echelon.solve(target.coeffs)
        if coords is None or R.is_field():
            return coords
        if any(a.denominator != 1 for a in coords.values()):
            return None
        return {j: int(a) for j, a in coords.items()}


class _CartesianWalk:
    """State of verify_cartesian carried from one degree to the next."""

    def __init__(self, square, degree_bound, elementwise_budget):
        self.square = square
        self.R = R = square.ring
        self.budget = elementwise_budget
        self.field = R.is_field()
        self.corners = [
            _Truncations(n, square.corner(n), degree_bound) for n in ("A1", "A2", "B1")
        ]
        self.top, self.left, self.right, self.bottom = {}, {}, {}, {}
        if not self.field:
            if R.kind.startswith("Z/"):
                half = R.n // 2
                self.to_int = lambda x: int(x) - R.n if int(x) > half else int(x)
            else:
                self.to_int = int
        self._restart()

    def _restart(self):
        """Clear all that was walked but the numbered basis elements and
        their images: the next degree is walked as one whole truncation."""
        R = self.R
        F = R if self.field else QQ
        self.cleared = True
        self.coords = (_Coordinates(R), _Coordinates(R))  # A2, B1
        # [right | -bottom], columns ("a", A2 number) and ("b", B1 number);
        # (top, left), columns A1 numbers, rows the columns of the first
        self.big = Echelon(F)
        self.lam = Echelon(F)
        self.b2_keys = set()
        self.relations = []  # nested fiber basis: kernel relations of big
        self.lifts = []  # lifts of the first relations through (top, left)
        self.enumerated = None  # relations whose span has been enumerated
        self.big_cols, self.lam_cols = {}, {}  # over Z: column -> {row: int}
        self.saturate = False  # over Z: some fiber relation is not integral

    def map_basis(self, ids):
        """Apply the legs to the basis elements of a truncation that have no
        images yet."""
        maps = self.square.maps
        for T, i, legs in zip(
            self.corners, ids,
            (("top", "left"), ("right",), ("bottom",)),
        ):
            for leg in legs:
                imgs = getattr(self, leg)
                for n in i:
                    if n not in imgs:
                        imgs[n] = maps[leg](T.elems[n])

    def step(self, d):
        """(entry, None) for degree d, or (None, (method, witness, note))
        for its first failure."""
        ids, new, nested = zip(*(T.upto(d) for T in self.corners))
        if not all(nested):
            self._restart()
        cleared = self.cleared
        entry, failure = self._walk(d, ids, ids if cleared else new)
        if failure and not cleared and failure[0] not in ("commute", "containment"):
            self._restart()
            entry, failure = self._walk(d, ids, ids)
        return entry, failure

    def _walk(self, d, ids, new):
        """Degree d from the basis elements new (not walked yet): (entry,
        None), or (None, (method, witness, note)) for the first failure."""
        R, right, bottom = self.R, self.square.maps["right"], self.square.maps["bottom"]
        A1, A2, B1 = self.corners
        new1, new2, new1p = new
        self.cleared = False
        self.map_basis(new)
        for n in new1:
            if right(self.top[n]) != bottom(self.left[n]):
                return None, ("commute", A1.elems[n], f"square does not commute at degree {d}")
        cols = {n: {} for n in new1}
        for name, T, ns, coords, imgs, prefix, what in (
            ("A2", A2, new2, self.coords[0], self.top, "a", "top image leaves the A2"),
            ("B1", B1, new1p, self.coords[1], self.left, "b", "left image leaves the B1"),
        ):
            for n in ns:
                if not coords.add(n, T.elems[n]):
                    raise ValueError(
                        f"span corner {name} ({T.corner.name}) has a linearly "
                        f"dependent basis at degree {d}"
                    )
            for n in new1:
                x = coords.express(imgs[n])
                if x is None:
                    return None, ("containment", imgs[n], f"{what} truncation at degree {d}")
                for j, c in x.items():
                    cols[n][(prefix, j)] = c
        n1, n2, n1p = (len(i) for i in ids)
        for n in new2:
            self.b2_keys.update(self.right[n].coeffs)
        for n in new1p:
            self.b2_keys.update(self.bottom[n].coeffs)
        entry = {"degree": d, "dims": {
            "A1": n1, "A2": n2, "B1": n1p, "B2_keys": len(self.b2_keys)}}
        big = [(("a", n), dict(self.right[n].coeffs)) for n in new2]
        big += [(("b", n), {k: R.neg(c) for k, c in self.bottom[n].coeffs.items()})
                for n in new1p]
        lam = [(n, cols[n]) for n in new1]
        lattice = lambda note: (None, ("lattice", None, f"{note} at degree {d}"))
        if not self.field:
            try:
                big = [(j, self._to_ints(col)) for j, col in big]
                lam = [(n, self._to_ints(col)) for n, col in lam]
            except (TypeError, ValueError):
                return lattice("non-integer matrix in lattice mode")
        F = self.big.R
        for j, col in big:
            expr = self.big.insert(j, col)
            if expr is not None:
                rel = _kernel_vector(F, j, expr)
                self.relations.append(rel)
                if not self.field and any(a.denominator != 1 for a in rel.values()):
                    self.saturate = True
        for n, col in lam:
            expr = self.lam.insert(n, col)
            if expr is not None:
                if not self.field:
                    return lattice("(top,left) has an integer kernel")
                return None, (
                    "injectivity", A1.combine(_kernel_vector(F, n, expr), n1),
                    f"(top,left) kernel is nontrivial at degree {d}",
                )
        fp_dim = len(self.relations)
        if fp_dim != n1:
            if not self.field:
                return lattice(f"kernel lattice rank {fp_dim} != dim A1 = {n1}")
            rel = self._unlifted()  # a fiber vector outside the image, if any
            return None, (
                "dimension", None if rel is None else self._pair(rel, n2, n1p),
                f"fiber dimension {fp_dim} != dim A1 = {n1} at degree {d}",
            )
        if self.field:
            entry["fiber_dim"] = fp_dim
            if R.finite and R.size() ** fp_dim <= self.budget:
                rel = self._unlifted()
                if rel is not None:
                    witness = self._pair(rel, n2, n1p)
                else:
                    witness = self._new_fiber_elements(ids)
                if witness is not None:
                    return None, (
                        "elementwise", witness,
                        f"fiber element without a verified lift at degree {d}",
                    )
                entry["elementwise"] = R.size() ** fp_dim
            return entry, None
        self.big_cols.update(big)
        self.lam_cols.update(lam)
        note = self._lattice_failure(ids, lam)
        if note is not None:
            return lattice(note)
        entry["lattice_rank"] = n1
        if R.kind.startswith("Z/"):
            entry["universal"] = True
        return entry, None

    def _to_ints(self, col):
        """The integer (balanced, for Z/n) lifts of the entries of col."""
        out = {}
        for k, c in col.items():
            x = self.to_int(c)
            if x:
                out[k] = x
        return out

    def _pair(self, v, n2, n1p):
        """The A2 and B1 elements of a vector v of [right | -bottom]."""
        A2, B1 = self.corners[1:]
        return (
            A2.combine({n: a for (s, n), a in v.items() if s == "a"}, n2),
            B1.combine({n: a for (s, n), a in v.items() if s == "b"}, n1p),
        )

    def _unlifted(self):
        """Lift each fiber relation not lifted yet through (top, left), once;
        the first relation outside the image, or None."""
        for rel in self.relations[len(self.lifts):]:
            x = self.lam.solve(rel)
            if x is None:
                return rel
            self.lifts.append(x)
        return None

    def _lattice_failure(self, ids, lam):
        """Over Z (and lifted Z/n), given injectivity and equal ranks: why
        the image lattice I of (top, left) differs from the kernel lattice K
        of [right | -bottom], or None when they are equal.

        The new image columns must lie in K.  While the fiber relations are
        integral they are a Z-basis of K (each is 1 on its own dependent
        column and 0 on the others), so K lies in I exactly when each
        relation has an integral lift, checked once per relation.  Once one
        is not integral, I, inside K and of the same rank, equals K (which
        is saturated) exactly when I is saturated: every Smith invariant of
        (top, left) is 1, one Smith form per degree.  For Z/n the Smith
        diagonal of [right | -bottom] must lie in {0, 1}."""
        for _, col in lam:
            acc = {}
            for j, a in col.items():
                for k, b in self.big_cols[j].items():
                    acc[k] = acc.get(k, 0) + a * b
            if any(acc.values()):
                return "image column escapes the kernel lattice"
        cols = [("a", n) for n in ids[1]] + [("b", n) for n in ids[2]]
        if self.saturate:
            lam_i = [[self.lam_cols[n].get(j, 0) for n in ids[0]] for j in cols]
            _, D, _ = smith_normal_form(lam_i)
            equal = all(abs(x) == 1 for x in diagonal_of(D))
        else:
            done = len(self.lifts)
            equal = self._unlifted() is None and all(
                a.denominator == 1 for x in self.lifts[done:] for a in x.values()
            )
        if not equal:
            return "kernel vector not in the image lattice"
        if self.R.kind.startswith("Z/"):
            keys = sorted(self.b2_keys)
            big_i = [[self.big_cols[j].get(k, 0) for j in cols] for k in keys]
            _, D, _ = smith_normal_form(big_i)
            if any(x not in (0, 1) for x in diagonal_of(D)):
                return "Smith diagonal not in {0,1}: no base-change certificate"
        return None

    def _new_fiber_elements(self, ids):
        """Enumerate the fiber elements that are new at this degree (all of
        them the first time), each a combination of the fiber relations,
        lift it as the same combination of their lifts and re-check the lift
        through the maps; the A2 and B1 elements of the first that fails, or
        None.

        The coefficient vectors run in the order of product(R.elements()),
        the new relations' coefficients fastest.  The lift and the A2 and B1
        elements it must map to are running sums: when coefficient j
        changes by delta, relation j's lift and its A2 and B1 parts times
        delta are added.  Those scaled parts are computed once per relation
        and nonzero delta, on first use, and the changes between consecutive
        coefficient vectors of the new relations are found once, so a step
        only looks up and adds, and the ring multiplications do not grow
        with the number of fiber elements."""
        R, sq = self.R, self.square
        A1, A2, B1 = self.corners
        n1, n2, n1p = (len(i) for i in ids)
        old, f = self.enumerated, len(self.relations)
        self.enumerated = f
        if not n1:  # an empty A1 truncation has no lift to check
            return None
        zero, elems = R.zero(), R.elements()
        if old is None:
            old, fresh = 0, list(product(elems, repeat=f))
        else:
            fresh = [c for c in product(elems, repeat=f - old)
                     if any(x != zero for x in c)]
            if not fresh:
                return None
        parts = []  # per relation: its lift, A2 part and B1 part
        for rel, x in zip(self.relations, self.lifts):
            a2, b1 = self._pair(rel, n2, n1p)
            parts.append((A1.combine(x, n1).coeffs,
                          {} if a2 is None else a2.coeffs, {} if b1 is None else b1.coeffs))
        sums = ({}, {}, {})
        digits = [zero] * f
        # the wanted images hold the running sums themselves: they are read
        # only by the comparisons, and returned as they stand on a failure
        want_a2 = None if not n2 else AlgebraElement(A2.elems[0].algebra, sums[1])
        want_b1 = None if not n1p else AlgebraElement(B1.elems[0].algebra, sums[2])
        top, left, A1alg = sq.maps["top"], sq.maps["left"], A1.elems[0].algebra
        fz, add, sub = fast_zero(R), R.add, R.sub
        scaled = [{} for _ in range(f)]  # relation j: delta -> its parts times delta

        def change(j, delta):
            s = scaled[j].get(delta)
            if s is None:
                s = scaled[j][delta] = [{} for _ in parts[j]]
                for acc, vec in zip(s, parts[j]):
                    axpy(R, acc, delta, vec, fz)
            for acc, vec in zip(sums, s):
                for k, x in vec.items():
                    if k in acc:
                        x = add(acc[k], x)
                        if x == fz:
                            del acc[k]
                            continue
                    acc[k] = x

        def move(start, coeffs):
            for j, c in enumerate(coeffs, start):
                if c != digits[j]:
                    change(j, sub(c, digits[j]))
                    digits[j] = c

        # the changes from each coefficient vector of the new relations to
        # the next, as (relation, delta)
        steps = [()] + [[(j, sub(b, a)) for j, (a, b) in enumerate(zip(s, t), old) if a != b]
                        for s, t in zip(fresh, fresh[1:])]
        for head in product(elems, repeat=old):
            move(0, head)
            move(old, fresh[0])
            for changes in steps:
                for j, delta in changes:
                    change(j, delta)
                lift = AlgebraElement(A1alg, dict(sums[0]))
                if top(lift) != want_a2 or left(lift) != want_b1:
                    return want_a2, want_b1
            digits[old:] = fresh[-1]
        return None


def quotient_map_apply(square, leg, u):
    """Apply one of the four legs of a square to an algebra element."""
    if leg not in square.maps:
        raise ValueError(f"unknown leg {leg!r}; expected top/left/right/bottom")
    return square.maps[leg](u)


# ---------------------------------------------------------------------------
# builders


def _trivial_algebra(R):
    T = CancellativeMonoid(AbelianGroupShape(0), [])
    return CancellativeAlgebra(T, R)


def build_seminormal_step(M, a, R):
    """Conductor square of the elementary subintegral extension
    R[M] subset R[M<a>], conductor generated by the monomials at 2a and 3a."""
    amb = M.ambient
    a = amb.reduce(a)
    if member(M, a).is_yes:
        raise ValueError(f"{a} already lies in M: no subintegral step")
    if not M.in_gp(a):
        raise ValueError(f"{a} is not in gp(M)")
    two, three = amb.scale(2, a), amb.scale(3, a)
    if not (member(M, two).is_yes and member(M, three).is_yes):
        raise ValueError(f"2a or 3a escapes M for a = {a}")
    Mb = CancellativeMonoid(amb, list(M.generators) + [a])
    if Mb.grading() is None:
        raise ValueError("seminormal step requires a positive extension")
    w = Mb.degree

    @cache
    def in_conductor(key):
        return member(Mb, amb.sub(key, two)).is_yes or member(Mb, amb.sub(key, three)).is_yes

    A = CancellativeAlgebra(M, R, weight_fn=w)
    B = CancellativeAlgebra(Mb, R)
    AmodI = MonomialQuotientAlgebra(M, R, in_conductor, "A/I", weight_fn=w)
    BmodI = MonomialQuotientAlgebra(Mb, R, in_conductor, "B/I")
    corners = {
        "A1": Corner("A", algebra=A),
        "A2": Corner("B", algebra=B),
        "B1": Corner("A/I", algebra=AmodI),
        "B2": Corner("B/I", algebra=BmodI),
    }
    maps = {
        "top": make_key_map(B, lambda k: k),
        "left": make_key_map(AmodI, lambda k: None if in_conductor(k) else k),
        "right": make_key_map(BmodI, lambda k: None if in_conductor(k) else k),
        "bottom": make_key_map(BmodI, lambda k: k),
    }
    return MilnorSquare(
        "seminormal-step",
        corners,
        maps,
        ("right",),
        R,
        description={
            "monoid": [list(g) for g in M.generators],
            "element": list(a),
            "conductor": [list(two), list(three)],
        },
    )


def build_positive_split(M, R):
    """Split square peeling the unit group off: corners R[N_*], R[M], R,
    R[U(M)] with N = M minus its units."""
    amb = M.ambient
    ugens = units_submonoid(M)
    U = CancellativeMonoid(amb, ugens + [amb.neg(g) for g in ugens])

    @cache
    def is_unit_key(key):
        return member(M, amb.neg(key)).is_yes

    w = M.filtration_weight
    Malg = CancellativeAlgebra(M, R, weight_fn=w)
    Ualg = CancellativeAlgebra(U, R, weight_fn=w)
    Nstar = MonomialSubsetAlgebra(
        Malg, lambda k: k == amb.zero() or not is_unit_key(k), "N*"
    )
    Ralg = _trivial_algebra(R)
    corners = {
        "A1": Corner("R[N*]", algebra=Nstar),
        "A2": Corner("R[M]", algebra=Malg),
        "B1": Corner("R", algebra=Ralg),
        "B2": Corner("R[U]", algebra=Ualg),
    }
    zero0 = Ralg.zero_key()
    maps = {
        "top": make_key_map(Malg, lambda k: k),
        "left": make_key_map(Ralg, lambda k: zero0 if k == amb.zero() else None),
        "right": make_key_map(Ualg, lambda k: k if is_unit_key(k) else None),
        "bottom": make_key_map(Ualg, lambda k: U.ambient.zero()),
    }
    square = MilnorSquare(
        "positive-split",
        corners,
        maps,
        ("right",),
        R,
        description={"unit_generators": [list(g) for g in ugens]},
    )
    section = make_key_map(Malg, lambda k: k)  # R[U] -> R[M]
    square.description["split_section"] = section
    return square


def build_pc(N, ideal_gens, R):
    """The pc square: corners R[I_*], R[N], R, R[N/I]."""
    amb = N.ambient
    Q = PcMonoid(N, ideal_gens)
    Nalg = CancellativeAlgebra(N, R)
    Qalg = PcAlgebra(Q, R)
    in_ideal = cache(Q.collapsed)
    Istar = MonomialSubsetAlgebra(Nalg, lambda k: k == amb.zero() or in_ideal(k), "I*")
    Ralg = _trivial_algebra(R)
    zero0 = Ralg.zero_key()
    if Qalg.singleton:
        # I = N: the quotient is the singleton monoid, the right leg is the
        # total augmentation, and the left leg must match it
        right = make_key_map(Qalg, lambda k: amb.zero())
        left = make_key_map(Ralg, lambda k: zero0)
    else:
        right = make_key_map(Qalg, lambda k: None if in_ideal(k) else k)
        left = make_key_map(Ralg, lambda k: zero0 if k == amb.zero() else None)
    corners = {
        "A1": Corner("R[I*]", algebra=Istar),
        "A2": Corner("R[N]", algebra=Nalg),
        "B1": Corner("R", algebra=Ralg),
        "B2": Corner("R[N/I]", algebra=Qalg),
    }
    maps = {
        "top": make_key_map(Nalg, lambda k: k),
        "left": left,
        "right": right,
        "bottom": make_key_map(Qalg, lambda k: Qalg.zero_key()),
    }
    return MilnorSquare(
        "pc",
        corners,
        maps,
        ("right",),
        R,
        description={"ideal": [list(g) for g in ideal_gens]},
    )


def build_face_filtration(M, k, R, kernel_bound=10):
    """Face-filtration square at level k: corners R[(piece at F_{k-1})_*],
    A_k = R[M/I_k], R, A_{k-1}, with the kernel of the connecting map
    certified to be the span of the face piece, degree by degree."""
    _check_bound(kernel_bound)
    if units_submonoid(M):
        raise ValueError("face filtration requires a positive monoid")
    if not is_seminormal(M):
        raise ValueError("face filtration requires a seminormal monoid")
    faces = face_lattice(M)
    r = len(faces) - 1
    if not 1 <= k <= r + 1:
        raise ValueError(f"k must be in 1..{r + 1}")

    @cache
    def loc(key):
        return face_locate(M, key).index

    Malg = CancellativeAlgebra(M, R)
    Ak = MonomialQuotientAlgebra(M, R, lambda key: loc(key) >= k, f"A_{k}")
    Akm1 = MonomialQuotientAlgebra(
        M, R, lambda key: loc(key) >= k - 1 and any(key), f"A_{k - 1}"
    )
    piece = MonomialSubsetAlgebra(
        Malg, lambda key: not any(key) or loc(key) == k - 1, f"piece_{k - 1}"
    )
    Ralg = _trivial_algebra(R)
    zero0 = Ralg.zero_key()
    # note: for k = 1 the piece at F_0 is {0} and A_1 is R
    corners = {
        "A1": Corner("R[piece_*]", algebra=piece),
        "A2": Corner(f"A_{k}", algebra=Ak),
        "B1": Corner("R", algebra=Ralg),
        "B2": Corner(f"A_{k - 1}", algebra=Akm1),
    }
    maps = {
        "top": make_key_map(Ak, lambda key: key if not any(key) or loc(key) < k else None),
        "left": make_key_map(Ralg, lambda key: zero0 if not any(key) else None),
        "right": make_key_map(
            Akm1, lambda key: key if not any(key) or loc(key) < k - 1 else None
        ),
        "bottom": make_key_map(Akm1, lambda key: Akm1.zero_key()),
    }
    square = MilnorSquare(
        "face-filtration",
        corners,
        maps,
        ("right",),
        R,
        description={"k": k, "faces": [f.to_json() for f in faces]},
    )
    certificate = _kernel_certificate(square, piece, Ak, kernel_bound)
    return square, certificate


def _first_difference(a, b, bound):
    """The least degree at which the truncations of two maps key -> weight
    differ (truncation d holds the keys of weight <= d), or bound + 1."""
    return min(
        (min(w for w in (a.get(k), b.get(k)) if w is not None)
         for k in a.keys() | b.keys() if a.get(k) != b.get(k)),
        default=bound + 1,
    )


def _upto(weights, d):
    """The keys of weight <= d of a map key -> weight."""
    return {k for k, w in weights.items() if w <= d}


def _kernel_certificate(square, piece, Ak, bound):
    """ker(phi_k) per degree equals the monomial span of the face piece.
    Each key up to the bound is mapped once; truncation d holds the keys of
    weight <= d."""
    right = square.maps["right"]
    piece_keys = {k: piece.weight(k) for k in piece.keys_upto(bound) if any(k)}
    killed = {k: Ak.weight(k) for k in Ak.keys_upto(bound)
              if right(Ak._listed_monomial(k)).is_zero()}
    bad = _first_difference(killed, piece_keys, bound)
    if bad <= bound:
        raise AssertionError(
            f"kernel monomials {sorted(_upto(killed, bad))} differ from the face piece "
            f"{sorted(_upto(piece_keys, bad))} at degree {bad}"
        )
    return [{"degree": d, "kernel_monomials": len(_upto(killed, d))} for d in range(bound + 1)]


def build_prime_intersection(N, p_gens, q_gens, R, degree_bound=10):
    """MT-4 square: corners R[N]/R[I], R[N]/R[q], R[N]/R[p], R[N]/R[L] for a
    prime p, radical q, I = p cap q, L = p cup q; the right leg splits via
    R[N']/R[S] with N' = N minus p."""
    P = MonoidIdeal(N, p_gens)
    Qd = MonoidIdeal(N, q_gens)
    if not is_prime(P):
        raise ValueError("first ideal must be prime")
    if not is_radical(Qd):
        raise ValueError("second ideal must be radical")

    @cache
    def in_p(key):
        return P.member(key).is_yes

    @cache
    def in_q(key):
        return Qd.member(key).is_yes

    def in_i(key):
        return in_p(key) and in_q(key)

    def in_l(key):
        return in_p(key) or in_q(key)

    if in_i(N.ambient.zero()):
        raise ValueError("p cap q must be proper")
    NI = MonomialQuotientAlgebra(N, R, in_i, "N/I")
    NQ = MonomialQuotientAlgebra(N, R, in_q, "N/q")
    NP = MonomialQuotientAlgebra(N, R, in_p, "N/p")
    NL = MonomialQuotientAlgebra(N, R, in_l, "N/L")
    corners = {
        "A1": Corner("R[N]/R[I]", algebra=NI),
        "A2": Corner("R[N]/R[q]", algebra=NQ),
        "B1": Corner("R[N]/R[p]", algebra=NP),
        "B2": Corner("R[N]/R[L]", algebra=NL),
    }
    maps = {
        "top": make_key_map(NQ, lambda k: None if in_q(k) else k),
        "left": make_key_map(NP, lambda k: None if in_p(k) else k),
        "right": make_key_map(NL, lambda k: None if in_l(k) else k),
        "bottom": make_key_map(NL, lambda k: None if in_l(k) else k),
    }
    square = MilnorSquare(
        "prime-intersection",
        corners,
        maps,
        ("right", "bottom"),
        R,
        description={"p": [list(g) for g in p_gens], "q": [list(g) for g in q_gens]},
    )
    # split witness: N' = N \ p is a submonoid; R[N']/R[S] -> R[N]/R[L] is an
    # isomorphism and the section lands in R[N]/R[q]; each key up to the
    # bound is read once, and truncation d holds the keys of weight <= d
    nprime_gens = [g for g in N.generators if not in_p(g)]
    Nprime = CancellativeMonoid(N.ambient, nprime_gens)
    nl_keys = NL.keys_upto(degree_bound)
    lhs = {k: NL.weight(k) for k in nl_keys}
    wp = _default_weight(Nprime)
    rhs = {k: wp(k) for k in monoid_keys_by_weight(Nprime, None, degree_bound) if not in_q(k)}
    d = _first_difference(lhs, rhs, degree_bound)
    if d <= degree_bound:
        raise AssertionError(
            f"N\\L and N'\\S disagree at degree {d}: "
            f"{sorted(_upto(lhs, d) ^ _upto(rhs, d))[:3]}"
        )
    section = make_key_map(NQ, lambda k: k)
    square.description["split_section"] = section
    for key in sorted(nl_keys, key=lhs.__getitem__):  # by degree, then in order
        e = NL._listed_monomial(key)
        if square.maps["right"](section(e)) != e:
            raise AssertionError(f"split section fails at {key}")
    return square


def torsion_group_monoid(n_list):
    amb = AbelianGroupShape(0, tuple(n_list))
    gens = [tuple(1 if i == j else 0 for i in range(len(n_list))) for j in range(len(n_list))]
    return CancellativeMonoid(amb, gens)


def build_torsion_splitting(L, n_list, R):
    """Gubeladze's pair of torsion-splitting squares.

    First square: Lambda (realized as A + B inside R[Z+][L x prod_{i<m}]),
    R[L smash prod_i Z/n_i], R[Z+][L smash prod_{i<m} Z/n_i], and
    R[Z/n_m][L smash prod_{i<m} Z/n_i] with pi: t -> x.  Second square:
    A = R[(L smash Z+) smash prod_{i<m} Z/n_i] (realized as the span of
    1 and the monomials with nonzero L part; the pullback computation shows
    no extra R[Z/n_m] coefficient factor can embed), Lambda, R, and
    B = R[t^n, t^{n+1}-t, ..., t^{2n-1}-t^{n-1}].
    """
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if units_submonoid(L):
        raise ValueError("L must be positive")
    if L.ambient.torsion:
        raise ValueError("L must live in a torsion-free ambient")
    if not is_normal(L):
        raise ValueError("L must be normal")
    n = n_list[-1]
    prev = tuple(n_list[:-1])
    p = L.ambient.free_rank
    S_prev = smash(L, torsion_group_monoid(prev)) if prev else L
    # coordinate layouts ------------------------------------------------
    #   A2/B2: Z^p  x prod_{i<m} Z/n_i x Z/n_m   (A2 = L smash the product)
    #   B1:    Z^p x Z(t)  x prod_{i<m} Z/n_i
    A2mon = smash(L, torsion_group_monoid(tuple(n_list)))
    amb_b1 = AbelianGroupShape(p + 1, prev)
    sprev_gens = list(S_prev.generators)  # tuples: free p + torsion prev
    b1_gens = [tuple(g[:p]) + (0,) + tuple(g[p:]) for g in sprev_gens]
    b1_gens.append(tuple([0] * p) + (1,) + (0,) * len(prev))
    B1mon = CancellativeMonoid(amb_b1, b1_gens)
    b2_gens = [tuple(g[:p]) + tuple(g[p:]) + (0,) for g in sprev_gens]
    b2_gens.append(tuple([0] * p) + (0,) * len(prev) + (1,))
    B2mon = CancellativeMonoid(A2mon.ambient, b2_gens)

    # the degree of the S_prev part, and for B1 the t-exponent added
    w_a2 = LinearWeight(S_prev.grading())
    w_b1 = LinearWeight(S_prev.grading() + (1,))
    A2alg = CancellativeAlgebra(A2mon, R, weight_fn=w_a2)
    B1alg = CancellativeAlgebra(B1mon, R, weight_fn=w_b1)
    B2alg = CancellativeAlgebra(B2mon, R, weight_fn=w_a2)

    def pi_key(key):  # B1 -> A2, B2: t-exponent reduced mod n into the last slot
        return key[:p] + key[p + 1 :] + (key[p] % n,)

    lambda_to_a2 = make_key_map(A2alg, pi_key)

    def j_monomials(d):  # monomials with nonzero L part, in B1 coords
        return [B1alg._listed_monomial(key) for key in B1alg.keys_upto(d) if any(key[:p])]

    def b_basis(d):  # t^(jn) and the binomials t^(k+n) - t^k, n not dividing k
        # every power of t lies in B1: t is one of its generators
        out = []
        tkey = lambda j: (0,) * p + (j,) + (0,) * len(prev)
        j = 0
        while j * n <= d:
            out.append(B1alg._listed_monomial(tkey(j * n)))
            j += 1
        for k in range(1, d - n + 1):
            if k % n:
                out.append(B1alg._listed_monomial(tkey(k + n)) - B1alg._listed_monomial(tkey(k)))
        return out

    # Lambda corner: span of J-monomials plus the B-binomials in B1 coords
    def lambda_basis(d):
        return j_monomials(d) + b_basis(d)

    def top_fn(elem):  # Lambda -> A2: sum the t-exponents by residue class
        out = lambda_to_a2(elem)
        for key in out.coeffs:
            # pure-t mass in a nonzero residue class cannot survive for
            # elements of Lambda; surviving mass flags a non-member
            if not any(key[:p]) and any(key[p:]):
                raise AssertionError(f"element leaves Lambda: class {key} survives")
        return out

    LambdaC = Corner("Lambda", ambient=B1alg, basis_fn=lambda_basis)
    square1 = MilnorSquare(
        "torsion-splitting-1",
        {
            "A1": LambdaC,
            "A2": Corner("R[L x T]", algebra=A2alg),
            "B1": Corner("R[t][S]", algebra=B1alg),
            "B2": Corner("R[Z/n][S]", algebra=B2alg),
        },
        {
            "top": top_fn,
            "left": lambda e: e,
            "right": make_key_map(B2alg, lambda k: k),
            "bottom": make_key_map(B2alg, pi_key),
        },
        ("bottom",),
        R,
        description={"n_list": list(n_list), "m": len(n_list)},
    )

    # second square: A = span(1, J) inside Lambda; B = R[t^n, t^{n+1}-t, ...]
    def a_basis(d):
        return [B1alg.one()] + j_monomials(d)

    Ralg = _trivial_algebra(R)
    zero0, zero_b1 = Ralg.zero_key(), B1alg.zero_key()
    square2 = MilnorSquare(
        "torsion-splitting-2",
        {
            "A1": Corner("R[(L x Z+) x T']", ambient=B1alg, basis_fn=a_basis),
            "A2": LambdaC,
            "B1": Corner("R", algebra=Ralg),
            "B2": Corner("B", ambient=B1alg, basis_fn=b_basis),
        },
        {
            "top": lambda e: e,
            "left": make_key_map(Ralg, lambda k: zero0 if k == zero_b1 else None),
            # Lambda -> B: drop monomials with nonzero L part
            "right": make_key_map(B1alg, lambda k: None if any(k[:p]) else k),
            "bottom": make_key_map(B1alg, lambda k: zero_b1),
        },
        ("right",),
        R,
        description={"n_list": list(n_list), "B": f"R[t^{n}, t^{n+1}-t, ...]"},
    )
    return square1, square2


def corrupt_square(square):
    """Negative control: zero the top map on one nonzero monomial of the
    top-left corner, breaking the fiber-product property with a witness."""

    bad = copy.copy(square)
    bad.maps = dict(square.maps)
    orig = square.maps["top"]
    target_key = None
    for e in square.corner("A1").basis_upto(8):
        if len(e.coeffs) == 1:
            (k,) = e.coeffs
            # a monomial the top map already kills would make the
            # corruption a no-op; pick one with a surviving image
            if any(k) and not orig(e).is_zero():
                target_key = k
                break
    if target_key is None:
        raise ValueError("no nonzero monomial with nonzero image to corrupt")

    def corrupted(elem):
        if target_key in elem.coeffs:
            stripped = AlgebraElement(
                elem.algebra, {k: c for k, c in elem.coeffs.items() if k != target_key}
            )
            return orig(stripped)
        return orig(elem)

    bad.maps["top"] = corrupted
    bad.kind = square.kind + "-corrupted"
    bad.description = dict(square.description)
    bad.description["corrupted_monomial"] = list(target_key)
    return bad


# ---------------------------------------------------------------------------
# reduced-quotient isomorphism for seminormal-step squares


class ReducedIsoReport(Record):
    _fields = ("ok", "degree_bound", "per_degree", "nil_generators_a", "nil_generators_b")

    def __init__(self, ok, degree_bound, per_degree, nil_generators_a, nil_generators_b):
        self.ok = ok
        self.degree_bound = degree_bound
        self.per_degree = per_degree
        self.nil_generators_a = nil_generators_a
        self.nil_generators_b = nil_generators_b

    def to_json(self):
        return {
            "isomorphism": self.ok,
            "degree_bound": self.degree_bound,
            "per_degree": self.per_degree,
        }


def verify_reduced_iso(square, degree_bound=10):
    """(A/I)_red -> (B/I)_red is an isomorphism: the non-nilpotent monomials
    of the two quotient corners agree degree by degree, and the induced map
    is the identity on them.  Nilpotency of a monomial class is decided
    exactly through the certified radical of the conductor ideal.  Each key
    up to the bound is classified once; truncation d holds the keys of
    weight <= d."""
    if square.kind != "seminormal-step":
        raise ValueError("verify_reduced_iso applies to seminormal-step squares")
    _check_bound(degree_bound)
    desc = square.description
    Malg = square.corner("A1").algebra
    Balg = square.corner("A2").algebra
    M, Mb = Malg.M, Balg.M
    two, three = tuple(desc["conductor"][0]), tuple(desc["conductor"][1])
    EA = MonoidIdeal(M, [two, three])
    EB = MonoidIdeal(Mb, [two, three])
    radA = radical(EA)
    radB = radical(EB)
    AmodI = square.corner("B1").algebra
    BmodI = square.corner("B2").algebra
    # reduced classes by weight; a key in both corners has the same weight
    a_red = {k: AmodI.weight(k) for k in AmodI.keys_upto(degree_bound)
             if not radA.ideal.member(k).is_yes}
    b_red = {k: BmodI.weight(k) for k in BmodI.keys_upto(degree_bound)
             if not radB.ideal.member(k).is_yes}
    first_bad = _first_difference(a_red, b_red, degree_bound)
    per_degree = [
        {"degree": d, "reduced_classes": len(_upto(a_red, d))}
        for d in range(min(first_bad, degree_bound + 1))
    ]
    if first_bad <= degree_bound:
        return ReducedIsoReport(False, degree_bound, per_degree, [], [])
    return ReducedIsoReport(
        True,
        degree_bound,
        per_degree,
        [list(g) for g in radA.ideal.generators],
        [list(g) for g in radB.ideal.generators],
    )
