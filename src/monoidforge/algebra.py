"""Exact arithmetic in monoid algebras R[M] as finitely supported coefficient
maps, graded/filtered truncations, and the reducedness/domain/units verdicts.

Hosts:
  * MonomialQuotientAlgebra -- R[M]/(the monomials a kill predicate names)
                          for a cancellative M; CancellativeAlgebra (R[M],
                          no predicate) and PcAlgebra (R[N/I] = R[N]/R[I],
                          R itself for I = N) only name it;
  * MonomialSubsetAlgebra -- the span of a sum-closed monomial subset,
                          asserted on every product, used for I_* and
                          face-interior corners.

Elements never store zero coefficients; all verification is on bounded
truncations with the bound reported.
"""

from .lattice import Record, field_eliminate
from .monoid import PcMonoid, member, units_submonoid
from .monoid import is_torsion_free as monoid_is_torsion_free


class HostMismatch(ValueError):
    pass


class MonoidAlgebraBase:
    ring = None
    name = "?"

    def weight(self, key):
        raise NotImplementedError

    def add_keys(self, a, b):
        """Key of the product monomial, or None when the product dies."""
        raise NotImplementedError

    def zero_key(self):
        raise NotImplementedError

    def keys_upto(self, bound):
        raise NotImplementedError

    def contains_key(self, key):
        raise NotImplementedError

    def elem(self, pairs):
        out = {}
        R = self.ring
        for key, c in pairs:
            if isinstance(c, int):
                c = R.from_int(c)
            if key in out:
                out[key] = R.add(out[key], c)
            else:
                out[key] = c
        return AlgebraElement(self, {k: c for k, c in out.items() if not R.is_zero(c)})

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return self.elem([(self.zero_key(), 1)])

    def monomial(self, key, coeff=1):
        if not self.contains_key(key):
            raise ValueError(f"{key} is not a monomial key of {self.name}")
        return self._listed_monomial(key, coeff)

    def _listed_monomial(self, key, coeff=1):
        """monomial without the membership check, for a key that keys_upto
        of this algebra has listed."""
        return self.elem([(key, coeff)])

    def __repr__(self):
        return f"{self.ring.kind}[{self.name}]"


def monoid_keys_by_weight(M, weight_fn, bound):
    """Monoid elements with weight_fn <= bound, sorted; weight_fn None is
    the canonical degree of a positive M, else the filtration weight.

    One key list per weight function is kept in M._cache: the list of the
    largest bound asked so far, each key with its level, the least bound
    whose list holds it.  A smaller bound is read off the levels in the same
    order; a larger one computes the list again and replaces it, so the
    answer never depends on earlier calls.  A negative bound lists nothing.
    """
    if bound < 0:
        return []
    lists = M._cache.setdefault("key_lists", {})
    cached = lists.get(weight_fn)
    if cached is None or cached[0] < bound:
        cached = lists[weight_fn] = (bound, *_keys_and_levels(M, weight_fn, bound))
    _, keys, levels = cached
    return [k for k, level in zip(keys, levels) if level <= bound]


def _keys_and_levels(M, weight_fn, bound):
    """The sorted key list of bound and the level of each key.

    When M carries its canonical grading, any other monoid-linear weight w
    with w(g) > 0 on every generator satisfies deg <= factor * w on all of
    M, factor = max_g deg(g)/w(g) rounded up, so the slice to degree
    bound * factor covers the window; a key is listed at b when w <= b and
    deg <= b * factor, so its level is the larger of w and deg/factor
    rounded up (w itself for a monoid-linear w).  Otherwise the box scan of
    filtration weight <= bound is filtered by the weight, and the level is
    the larger of the two.
    """
    from math import ceil

    if M.grading() is not None:
        if weight_fn is None:
            return M._slice_data(bound).elements_and_degrees(bound)
        factor = 1
        for g in M.generators:
            wg = weight_fn(g)
            if wg <= 0:
                factor = None
                break
            factor = max(factor, ceil(M.degree(g) / wg))
        if factor is not None:
            keys, levels = [], []
            for k, deg in zip(*M._slice_data(bound * factor).elements_and_degrees(bound * factor)):
                w = weight_fn(k)
                if w <= bound:
                    keys.append(k)
                    levels.append(max(w, -(-deg // factor)))
            return keys, levels
    fw = M.filtration_weight
    jump = fw if weight_fn is None else weight_fn
    keys, levels = [], []
    for k in M.filtered_elements(bound):
        level = max(jump(k), fw(k))
        if level <= bound:
            keys.append(k)
            levels.append(level)
    return keys, levels


def _default_weight(M):
    """The canonical degree of a positive M, else the filtration weight."""
    return M.degree if M.grading() is not None else M.filtration_weight


class MonomialQuotientAlgebra(MonoidAlgebraBase):
    """R[M]/(monomial ideal given by a kill predicate): keys are the
    surviving monomials, products falling into the ideal die.  With no kill
    predicate this is R[M] itself."""

    def __init__(self, M, ring, kill_pred, name, weight_fn=None):
        self.M = M
        self.ring = ring
        self._kill = kill_pred
        self.name = name
        self._custom = weight_fn
        self._weight = weight_fn or _default_weight(M)

    def weight(self, key):
        return self._weight(key)

    def add_keys(self, a, b):
        s = self.M.ambient.add(a, b)
        return s if self._kill is None or not self._kill(s) else None

    def zero_key(self):
        return self.M.ambient.zero()

    def keys_upto(self, bound):
        keys = monoid_keys_by_weight(self.M, self._custom, bound)
        return keys if self._kill is None else [k for k in keys if not self._kill(k)]

    def contains_key(self, key):
        return member(self.M, key).is_yes and (self._kill is None or not self._kill(key))


class CancellativeAlgebra(MonomialQuotientAlgebra):
    """R[M] for a cancellative monoid M."""

    def __init__(self, M, ring, weight_fn=None):
        super().__init__(M, ring, None, f"M{list(M.generators)}", weight_fn)


class PcAlgebra(MonomialQuotientAlgebra):
    """R[N/I] = R[N]/R[I]; for proper nonempty I the collapsed class acts as
    zero, and for I = N the quotient is the singleton monoid with algebra R."""

    def __init__(self, Q, ring, weight_fn=None):
        self.Q = Q
        self.singleton = Q.is_singleton()
        if self.singleton:
            zero = Q.base.ambient.zero()
            kill = lambda key: key != zero
        else:
            kill = Q.collapsed if Q.has_collapse else None
        name = f"M{list(Q.base.generators)}/I{list(Q.collapse_gens)}"
        super().__init__(Q.base, ring, kill, name, weight_fn)


class MonomialSubsetAlgebra(MonoidAlgebraBase):
    """Span of a sum-closed set of monomials of an ambient cancellative
    algebra (I cup {0}, face-interior pieces, ...)."""

    def __init__(self, ambient_algebra, contains_fn, name):
        self.ambient = ambient_algebra
        self.ring = ambient_algebra.ring
        self._contains = contains_fn
        self.name = name

    def weight(self, key):
        return self.ambient.weight(key)

    def add_keys(self, a, b):
        s = self.ambient.add_keys(a, b)
        assert s is None or self._contains(s), "monomial subset not sum-closed"
        return s

    def zero_key(self):
        return self.ambient.zero_key()

    def keys_upto(self, bound):
        return [k for k in self.ambient.keys_upto(bound) if self._contains(k)]

    def contains_key(self, key):
        return self.ambient.contains_key(key) and self._contains(key)


class AlgebraElement:
    """Finitely supported coefficient map on the host's monomial keys."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return max((self.algebra.weight(k) for k in self.coeffs), default=0)

    def _check(self, other):
        if self.algebra is not other.algebra:
            if (
                not isinstance(other, AlgebraElement)
                or self.algebra.ring != other.algebra.ring
                or self.algebra.name != other.algebra.name
            ):
                raise HostMismatch("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        R = self.algebra.ring
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if k in out:
                s = R.add(out[k], c)
                if R.is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = c
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        R = self.algebra.ring
        return AlgebraElement(self.algebra, {k: R.neg(c) for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        R = self.algebra.ring
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = self.algebra.add_keys(k1, k2)
                if k is None:
                    continue
                c = R.mul(c1, c2)
                if k in out:
                    out[k] = R.add(out[k], c)
                else:
                    out[k] = c
        return AlgebraElement(
            self.algebra, {k: c for k, c in out.items() if not R.is_zero(c)}
        )

    def scale(self, c):
        R = self.algebra.ring
        if isinstance(c, int):
            c = R.from_int(c)
        out = {}
        for k, v in self.coeffs.items():
            p = R.mul(c, v)
            if not R.is_zero(p):
                out[k] = p
        return AlgebraElement(self.algebra, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative power {n} of a monoid algebra element")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __repr__(self):
        R = self.algebra.ring
        if not self.coeffs:
            return "0"
        return " + ".join(f"{R.fmt(c)}*x{list(k)}" for k, c in sorted(self.coeffs.items()))

    def truncate_to(self, d):
        return AlgebraElement(
            self.algebra,
            {k: c for k, c in self.coeffs.items() if self.algebra.weight(k) <= d},
        )


def parse_element_literal(algebra, text):
    """Parse 'c1*x[a1]+c2*x[a2]' with exponent vectors, e.g.
    '2*x[1,0]+x[0,3]' or '1' or 'x[2]' or '-x[-1,0]'.  Coefficients are
    integers mapped into the ring; missing coefficients default to 1.  A
    literal whose terms do not cover its whole text, such as '1+', '--1'
    or '1++x[1]', raises ValueError."""
    import re

    pairs = []
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty element literal")
    # split on + and - outside brackets while keeping signs, so that an
    # exponent vector may hold negative entries
    tokens = re.findall(r"[+-]?(?:\[[^\]]*\]|[^+-])+", text)
    if "".join(tokens) != text:
        raise ValueError(f"sign without a term in element literal {text!r}")
    for tok in tokens:
        m = re.fullmatch(r"([+-]?\d*)\*?(?:x\[(-?\d+(?:,-?\d+)*)\])?", tok)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"bad term {tok!r} in element literal")
        coeff_text, expo_text = m.group(1), m.group(2)
        if coeff_text in ("", "+"):
            coeff = 1
        elif coeff_text == "-":
            coeff = -1
        else:
            coeff = int(coeff_text)
        if expo_text is None:
            key = algebra.zero_key()
        else:
            key = tuple(int(x) for x in expo_text.split(","))
        if not algebra.contains_key(key):
            raise ValueError(f"{list(key)} is not a monomial key of the algebra")
        pairs.append((key, coeff))
    return algebra.elem(pairs)


def truncate(u, d):
    """Drop support above degree d; requires a positive host grading."""
    M = getattr(u.algebra, "M", None)
    if M is None or M.grading() is None:
        raise ValueError("truncate requires a host with a strictly positive grading")
    return u.truncate_to(d)


# ---------------------------------------------------------------------------
# structural verdicts


class Verdict(Record):
    _fields = ("value", "basis", "witness", "search_bounds")

    def __init__(self, value, basis, witness=None, search_bounds=None):
        self.value = value  # "yes" | "no" | "unknown"
        self.basis = basis  # "criterion: ..." or "empirical: ..."
        self.witness = witness
        self.search_bounds = search_bounds

    @property
    def is_yes(self):
        return self.value == "yes"


def _host_monoid_facts(host):
    if isinstance(host, PcMonoid):
        cancellative = not host.has_collapse
        tf = monoid_is_torsion_free(host.base) if cancellative else None
        return cancellative, tf, host
    return True, monoid_is_torsion_free(host), host


def is_reduced_verdict(ring, host, support_cap=3, degree_cap=8):
    """Reducedness of R[host]: the BG criteria where they apply, otherwise an
    exhaustive nilpotent search over small supports, never contradicting a
    criterion verdict."""
    cancellative, tf, _ = _host_monoid_facts(host)
    bounds = {"support": support_cap, "degree": degree_cap}
    if cancellative and tf and ring.is_reduced():
        v = Verdict("yes", "criterion: R reduced and M cancellative torsion-free")
        w = _nilpotent_search(ring, host, support_cap, degree_cap)
        if w is not None:
            raise AssertionError(f"criterion contradicted by nilpotent {w}")
        v.search_bounds = bounds
        return v
    if cancellative and ring.kind == "Q":
        v = Verdict("yes", "criterion: Q subset R, R reduced, M cancellative")
        v.search_bounds = bounds
        return v
    if not ring.is_reduced():
        n = _ring_nilpotent(ring)
        return Verdict("no", "criterion: R is not reduced", witness=n, search_bounds=bounds)
    w = _nilpotent_search(ring, host, support_cap, degree_cap)
    if w is not None:
        return Verdict("no", "empirical: nilpotent found", witness=w, search_bounds=bounds)
    return Verdict(
        "unknown",
        f"empirical: no nilpotent with support <= {support_cap}, degree <= {degree_cap}",
        search_bounds=bounds,
    )


def _ring_nilpotent(ring):
    for a in ring.elements():
        if ring.is_zero(a):
            continue
        p = a
        for _ in range(40):
            p = ring.mul(p, a)
            if ring.is_zero(p):
                return a
    return None


def _algebra_of(ring, host):
    if isinstance(host, PcMonoid):
        return PcAlgebra(host, ring)
    return CancellativeAlgebra(host, ring)


def _small_elements(alg, support_cap, degree_cap, coeff_pool=None):
    """Deterministic stream of nonzero elements with bounded support/degree."""
    from itertools import combinations, product

    keys = [k for k in alg.keys_upto(degree_cap)]
    R = alg.ring
    if coeff_pool is None:
        if R.finite and R.size() <= 5:
            coeff_pool = [c for c in R.elements() if not R.is_zero(c)]
        else:
            coeff_pool = [R.one(), R.neg(R.one())]
            coeff_pool = [c for c in coeff_pool if not R.is_zero(c)]
            if len(set(coeff_pool)) < len(coeff_pool):
                coeff_pool = [R.one()]
    for size in range(1, support_cap + 1):
        for supp in combinations(keys, size):
            for cs in product(coeff_pool, repeat=size):
                yield alg.elem(list(zip(supp, cs)))


def _nilpotent_search(ring, host, support_cap, degree_cap, power_cap=16):
    alg = _algebra_of(ring, host)
    for u in _small_elements(alg, support_cap, degree_cap):
        if u.is_zero():
            continue
        p = u
        for _ in range(power_cap):
            p = p * u
            if p.is_zero():
                return u
            if p.degree() > 4 * degree_cap:
                break
    return None


def is_domain_verdict(ring, host, support_cap=2, degree_cap=5):
    """Integral-domain verdict: the BG iff-criterion for cancellative hosts,
    plus a zero-divisor search on truncations."""
    cancellative, tf, _ = _host_monoid_facts(host)
    bounds = {"support": support_cap, "degree": degree_cap}
    if not ring.is_domain():
        a = _ring_zero_divisor(ring)
        return Verdict("no", "criterion: R is not a domain", witness=a, search_bounds=bounds)
    if cancellative:
        if tf:
            return Verdict(
                "yes",
                "criterion: R domain and M cancellative torsion-free",
                search_bounds=bounds,
            )
        w = _torsion_zero_divisor(ring, host if not isinstance(host, PcMonoid) else host.base)
        return Verdict(
            "no",
            "criterion: M cancellative with torsion is never a domain host",
            witness=w,
            search_bounds=bounds,
        )
    pair = _zero_divisor_search(ring, host, support_cap, degree_cap)
    if pair is not None:
        return Verdict("no", "empirical: zero divisors found", witness=pair, search_bounds=bounds)
    return Verdict(
        "unknown",
        f"empirical: no zero divisors with support <= {support_cap}, degree <= {degree_cap}",
        search_bounds=bounds,
    )


def _ring_zero_divisor(ring):
    for a in ring.elements():
        if ring.is_zero(a):
            continue
        for b in ring.elements():
            if not ring.is_zero(b) and ring.is_zero(ring.mul(a, b)):
                return (a, b)
    return None


def _torsion_zero_divisor(ring, M):
    """(x_a - x_b) * sum x_{ia + (n-1-i)b} = x_na - x_nb = 0 when na = nb."""
    alg = CancellativeAlgebra(M, ring)
    amb = M.ambient
    els = sorted(M.slice(6)) if M.grading() is not None else M.filtered_elements(4)
    for a in els:
        for b in els:
            if a >= b:
                continue
            for n in range(2, 13):
                if amb.scale(n, a) == amb.scale(n, b):
                    u = alg.monomial(a) - alg.monomial(b)
                    v = alg.zero()
                    for i in range(n):
                        k = amb.add(amb.scale(i, a), amb.scale(n - 1 - i, b))
                        v = v + alg.monomial(k)
                    if not u.is_zero() and not v.is_zero() and (u * v).is_zero():
                        return (u, v)
    return None


def _zero_divisor_search(ring, host, support_cap, degree_cap):
    alg = _algebra_of(ring, host)
    pool = list(_small_elements(alg, support_cap, degree_cap))
    for u in pool:
        if u.is_zero():
            continue
        for v in pool:
            if v.is_zero():
                continue
            if (u * v).is_zero():
                return (u, v)
    return None


# ---------------------------------------------------------------------------
# unit groups of reduced monoid algebras over fields


class UnitsDescription(Record):
    _fields = ("field_kind", "unit_monoid_generators", "note")

    def __init__(self, field_kind, unit_monoid_generators, note):
        self.field_kind = field_kind
        self.unit_monoid_generators = unit_monoid_generators  # generators of U(M)
        self.note = note

    def to_json(self):
        return {
            "scalars": f"{self.field_kind}^x",
            "unit_monomial_generators": [list(g) for g in self.unit_monoid_generators],
            "note": self.note,
        }


def units_description(field, M):
    """Units of a reduced k[M]: {c * x_u : c in k^x, u in U(M)}."""
    if not field.is_field():
        raise ValueError("units_description requires a field")
    verdict = is_reduced_verdict(field, M)
    if verdict.value == "no":
        raise ValueError("units_description requires a reduced monoid algebra")
    ugens = units_submonoid(M)
    return UnitsDescription(
        field.kind,
        ugens,
        "units are unit-coefficient monomials on the unit group of M",
    )


def is_invertible(u, window=6):
    """Exact invertibility of u on a bounded window.

    Monomials with unit coefficient on the unit group invert exactly.  For a
    positive host with reduced algebra, non-monomials are proven
    non-invertible (grading argument).  Otherwise an exact linear solve
    searches a degree window and the outcome carries the window.
    """
    alg = u.algebra
    R = alg.ring
    if u.is_zero():
        return False, None, "zero"
    M = alg.M if isinstance(alg, CancellativeAlgebra) else None
    if len(u.coeffs) == 1:
        (k, c), = u.coeffs.items()
        if not R.is_unit(c):
            return False, None, "non-unit coefficient"
        if M is not None:
            res = member(M, M.ambient.neg(k))
            if res.is_yes:
                inv = alg.monomial(M.ambient.neg(k), R.inv(c))
                assert (u * inv) == alg.one()
                return True, inv, "monomial on the unit group"
            return False, None, "monomial outside the unit group"
        if alg.weight(k) == 0 and k == alg.zero_key():
            return True, alg.monomial(k, R.inv(c)), "scalar"
        return False, None, "positive-degree monomial"
    if M is not None and M.grading() is not None:
        return False, None, "non-monomial in a positively graded reduced algebra"
    # bounded linear solve for u * v = 1
    inv = _solve_inverse(u, window)
    if inv is not None:
        return True, inv, f"inverse found in window {window}"
    return False, None, f"no inverse within degree window {window}"


def _solve_inverse(u, window):
    alg = u.algebra
    R = alg.ring
    if not R.is_field():
        raise ValueError("window inversion implemented over fields")
    keys = list(alg.keys_upto(window))
    idx = {k: i for i, k in enumerate(keys)}
    # equations indexed by product keys
    rows = {}
    for j, k in enumerate(keys):
        for ku, cu in u.coeffs.items():
            kk = alg.add_keys(ku, k)
            if kk is None:
                continue
            rows.setdefault(kk, {})[j] = R.add(rows.get(kk, {}).get(j, R.zero()), cu)
    eq_keys = sorted(rows)
    A = [[rows[ek].get(j, R.zero()) for j in range(len(keys))] for ek in eq_keys]
    b = [R.one() if ek == alg.zero_key() else R.zero() for ek in eq_keys]
    sol = field_solve(R, A, b)
    if sol is None:
        return None
    v = alg.elem(list(zip(keys, sol)))
    if (u * v) == alg.one():
        return v
    return None


def field_solve(R, A, b):
    """One solution of A x = b over the field R, or None."""
    return field_eliminate(R, A, [b])[2][0]
