"""The six Milnor/conductor square constructions and their machine
verification.

A square holds four graded/filtered corners (monomial algebras or explicit
spans inside an ambient algebra) and four maps; verify_cartesian checks, per
truncation up to the bound, that the top-left corner is exactly the fiber
product of the two legs: exact linear algebra over finite fields and Q
(complete by linearity), a Smith-form lattice certificate over Z, and a full
elementwise fiber enumeration whenever the fiber size fits the budget.
"""

from dataclasses import dataclass, field

from .lattice import (
    AbelianGroupShape,
    diagonal_of,
    field_eliminate,
    integer_kernel,
    smith_normal_form,
    solve_smith,
)
from .monoid import CancellativeMonoid, PcMonoid, member, units_submonoid
from .cones import face_lattice, face_locate
from .closure import is_normal, is_seminormal
from .ideals import MonoidIdeal, _predicate_ideal_generators, is_prime, is_radical, radical
from .algebra import (
    AlgebraElement,
    CancellativeAlgebra,
    MonomialQuotientAlgebra,
    MonomialSubsetAlgebra,
    PcAlgebra,
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
            return [self.algebra.monomial(k) for k in self.algebra.keys_upto(d)]
        return self._basis_fn(d)

    def ring(self):
        return self.ambient.ring


@dataclass
class MilnorSquare:
    kind: str
    corners: dict  # "A1","A2","B1","B2" -> Corner
    maps: dict  # "top","left","right","bottom" -> callable Element -> Element
    surjective_legs: tuple  # subset of ("right", "bottom")
    ring: object
    description: dict = field(default_factory=dict)

    def corner(self, name):
        return self.corners[name]


@dataclass
class CartesianReport:
    ok: bool
    degree_bound: int
    ring_kind: str
    method: str
    per_degree: list
    witness: object = None
    note: str = ""

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
    """Linear extension of key -> key | None into dst."""

    def fn(elem):
        R = dst_algebra.ring
        out = {}
        for k, c in elem.coeffs.items():
            kk = key_fn(k)
            if kk is None:
                continue
            if kk in out:
                out[kk] = R.add(out[kk], c)
            else:
                out[kk] = c
        return AlgebraElement(
            dst_algebra, {k: c for k, c in out.items() if not R.is_zero(c)}
        )

    return fn


# ---------------------------------------------------------------------------
# verification core


def _key_index(elements):
    keys = set()
    for e in elements:
        keys.update(e.coeffs)
    return {k: i for i, k in enumerate(sorted(keys))}


def _as_column(elem, index, R):
    col = [R.zero()] * len(index)
    for k, c in elem.coeffs.items():
        col[index[k]] = c
    return col


def _express_in_basis(targets, basis, R):
    """Coordinates of each target in the span of basis, or (None, witness).

    Fast path when the basis consists of distinct single-key monomials (all
    corners except the explicit spans); otherwise an exact solve over the
    field / Z.
    """
    single = all(len(b.coeffs) == 1 for b in basis)
    keys = [next(iter(b.coeffs)) for b in basis] if single else None
    if single and len(set(keys)) == len(keys):
        pos = {k: j for j, k in enumerate(keys)}
        coords = []
        for t in targets:
            row = [R.zero()] * len(basis)
            ok = True
            for k, c in t.coeffs.items():
                if k not in pos:
                    ok = False
                    break
                j = pos[k]
                bcoeff = basis[j].coeffs[k]
                if bcoeff == R.one():
                    row[j] = c
                elif R.is_field():
                    row[j] = R.mul(c, R.inv(bcoeff))
                else:
                    ok = False
                    break
            if not ok:
                return None, t
            coords.append(row)
        return coords, None
    index = _key_index(list(basis) + list(targets))
    rows = len(index)
    cols = len(basis)
    A = [[R.zero()] * cols for _ in range(rows)]
    for j, b in enumerate(basis):
        for k, c in b.coeffs.items():
            A[index[k]][j] = c
    tvs = [_as_column(t, index, R) for t in targets]
    if R.is_field():
        sols = field_eliminate(R, A, tvs)[2]
    elif R.kind == "Z":
        snf = smith_normal_form(A)
        sols = [solve_smith(snf, tv) for tv in tvs]
    else:
        raise ValueError(
            f"span corners over {R.kind} are not supported; use a field, Q, or Z"
        )
    for t, sol in zip(targets, sols):
        if sol is None:
            return None, t
    return sols, None


def verify_cartesian(square, degree_bound=10, elementwise_budget=512):
    """Exhaustive per-truncation Cartesian check with failure witnesses.

    Per truncation: commutation on the A1 basis; injectivity of (top, left);
    fiber-product dimension/lattice equality (complete by linearity, no
    sampling); and, over finite rings whenever the fiber size is within the
    budget, a literal enumeration of every fiber element with its unique
    lift re-verified through the maps.
    """
    R = square.ring
    per_degree = []
    A1, A2, B1, B2 = (square.corner(n) for n in ("A1", "A2", "B1", "B2"))
    top, left, right, bottom = (
        square.maps[n] for n in ("top", "left", "right", "bottom")
    )
    for d in range(degree_bound + 1):
        a1b = A1.basis_upto(d)
        a2b = A2.basis_upto(d)
        b1b = B1.basis_upto(d)
        for e in a1b:
            if right(top(e)) != bottom(left(e)):
                return CartesianReport(
                    False, degree_bound, R.kind, "commute", per_degree,
                    witness=e, note=f"square does not commute at degree {d}",
                )
        tX, wit = _express_in_basis([top(e) for e in a1b], a2b, R)
        if tX is None:
            return CartesianReport(
                False, degree_bound, R.kind, "containment", per_degree,
                witness=wit, note=f"top image leaves the A2 truncation at degree {d}",
            )
        lY, wit = _express_in_basis([left(e) for e in a1b], b1b, R)
        if lY is None:
            return CartesianReport(
                False, degree_bound, R.kind, "containment", per_degree,
                witness=wit, note=f"left image leaves the B1 truncation at degree {d}",
            )
        right_imgs = [right(e) for e in a2b]
        bottom_imgs = [bottom(e) for e in b1b]
        index = _key_index(right_imgs + bottom_imgs)
        rows = len(index)
        n2, n1p, n1 = len(a2b), len(b1b), len(a1b)
        big = [[R.zero()] * (n2 + n1p) for _ in range(rows)]
        for j, e in enumerate(right_imgs):
            for k, c in e.coeffs.items():
                big[index[k]][j] = c
        for j, e in enumerate(bottom_imgs):
            for k, c in e.coeffs.items():
                big[index[k]][n2 + j] = R.neg(c)
        # columns of the combined (top, left) map, in basis coordinates
        lam_cols = [list(x) + list(y) for x, y in zip(tX, lY)]  # one per A1 basis el
        inj_mat = [[lam_cols[i][j] for i in range(n1)] for j in range(n2 + n1p)]
        entry = {"degree": d, "dims": {"A1": n1, "A2": n2, "B1": n1p, "B2_keys": rows}}
        if R.is_field():
            rank_big, ker_big, _ = field_eliminate(R, big)
            # one elimination of (top, left) gives its kernel and the lifts
            # of the fiber basis
            _, ker_inj, lifts = field_eliminate(R, inj_mat, ker_big)
            if ker_inj:
                w = _combine(a1b, ker_inj[0])
                return CartesianReport(
                    False, degree_bound, R.kind, "injectivity", per_degree,
                    witness=w, note=f"(top,left) kernel is nontrivial at degree {d}",
                )
            fp_dim = (n2 + n1p) - rank_big
            if fp_dim != n1:
                # a fiber vector outside the image of (top, left), if any
                wvec = next((v for v, x in zip(ker_big, lifts) if x is None), None)
                w = None
                if wvec is not None:
                    w = (_combine(a2b, wvec[:n2]), _combine(b1b, wvec[n2:]))
                return CartesianReport(
                    False, degree_bound, R.kind, "dimension", per_degree,
                    witness=w,
                    note=f"fiber dimension {fp_dim} != dim A1 = {n1} at degree {d}",
                )
            entry["fiber_dim"] = fp_dim
            if R.finite and R.size() ** fp_dim <= elementwise_budget:
                res = _elementwise_fiber_check(
                    R, ker_big, lifts, a1b, a2b, b1b, (top, left)
                )
                if res is not True:
                    return CartesianReport(
                        False, degree_bound, R.kind, "elementwise", per_degree,
                        witness=res,
                        note=f"fiber element without a verified lift at degree {d}",
                    )
                entry["elementwise"] = R.size() ** fp_dim
        else:
            ok, note, extra = _integer_lattice_check(big, lam_cols, n1, R)
            if not ok:
                return CartesianReport(
                    False, degree_bound, R.kind, "lattice", per_degree,
                    witness=None, note=f"{note} at degree {d}",
                )
            entry.update(extra)
        per_degree.append(entry)
    return CartesianReport(True, degree_bound, R.kind, "exact", per_degree)


def _combine(basis, coeffs):
    if not basis:
        return None
    out = basis[0].algebra.zero() if hasattr(basis[0], "algebra") else None
    for b, c in zip(basis, coeffs):
        out = out + b.scale(c)
    return out


def _elementwise_fiber_check(R, ker_big, lifts, a1b, a2b, b1b, legs):
    """Enumerate every fiber element, lift it through (top, left), and
    re-verify the lift at the element level; True or a witness pair.

    (top, left) is injective here, so the lift of a fiber element is the
    same combination of the fiber basis lifts as the element is of the
    basis."""
    from itertools import product

    top, left = legs
    n2 = len(a2b)
    pair = lambda v: (_combine(a2b, v[:n2]), _combine(b1b, v[n2:]))
    for v, x in zip(ker_big, lifts):
        if x is None:
            return pair(v)
    zero = R.zero()
    dim, n1 = n2 + len(b1b), len(a1b)
    for combo in product(R.elements(), repeat=len(ker_big)):
        v = [zero] * dim
        sol = [zero] * n1
        for c, kvec, x in zip(combo, ker_big, lifts):
            if c == zero:
                continue
            for j in range(dim):
                v[j] = R.add(v[j], R.mul(c, kvec[j]))
            for j in range(n1):
                sol[j] = R.add(sol[j], R.mul(c, x[j]))
        lift = _combine(a1b, sol)
        want_a2, want_b1 = pair(v)
        if lift is not None and (top(lift) != want_a2 or left(lift) != want_b1):
            return (want_a2, want_b1)
    return True


def _integer_lattice_check(big, lam_cols, n1, R):
    """Z (and lifted Z/n) certificate: the image lattice of (top,left) equals
    the kernel lattice of [Psi|-Beta]; for Z/n the Smith diagonal must lie in
    {0,1}, so the pullback base-changes to every coefficient ring."""
    if R.kind.startswith("Z/"):
        # balanced integer lift: faithful for the unit-coefficient maps the
        # builders produce, and any valid lift certifies the reduction
        half = R.n // 2
        lift = lambda x: int(x) - R.n if int(x) > half else int(x)
    else:
        lift = int
    try:
        big_i = [[lift(x) for x in row] for row in big]
        lam_i = [[lift(x) for x in col] for col in lam_cols]
    except (TypeError, ValueError):
        return False, "non-integer matrix in lattice mode", {}
    dim = len(big_i[0]) if big_i else (len(lam_i[0]) if lam_i else 0)
    ker = integer_kernel(big_i) if big_i else [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]
    if n1:
        inj_ker = integer_kernel([[lam_i[i][j] for i in range(n1)] for j in range(dim)])
        if inj_ker:
            return False, "(top,left) has an integer kernel", {}
    if len(ker) != n1:
        return False, f"kernel lattice rank {len(ker)} != dim A1 = {n1}", {}
    ksnf = smith_normal_form([[ker[t][j] for t in range(len(ker))] for j in range(dim)])
    isnf = smith_normal_form([[lam_i[t][j] for t in range(n1)] for j in range(dim)])
    for col in lam_i:
        if solve_smith(ksnf, col) is None:
            return False, "image column escapes the kernel lattice", {}
    for kv in ker:
        if solve_smith(isnf, kv) is None:
            return False, "kernel vector not in the image lattice", {}
    extra = {"lattice_rank": n1}
    if R.kind.startswith("Z/"):
        _, D, _ = smith_normal_form(big_i)
        if any(x not in (0, 1) for x in diagonal_of(D)):
            return False, "Smith diagonal not in {0,1}: no base-change certificate", {}
        extra["universal"] = True
    return True, "", extra


def quotient_map_apply(square, leg, u):
    """Apply one of the four legs of a square to an algebra element."""
    if leg not in square.maps:
        raise ValueError(f"unknown leg {leg!r}; expected top/left/right/bottom")
    return square.maps[leg](u)


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


# ---------------------------------------------------------------------------
# builders


def _shared_weight(M):
    if M.grading() is not None:
        return M.degree
    return M.filtration_weight


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

    def in_conductor(key):
        return (
            member(Mb, amb.sub(key, two)).is_yes
            or member(Mb, amb.sub(key, three)).is_yes
        )

    A = CancellativeAlgebra(M, R, weight_fn=w)
    B = CancellativeAlgebra(Mb, R, weight_fn=w)
    AmodI = MonomialQuotientAlgebra(M, R, in_conductor, "A/I", weight_fn=w)
    BmodI = MonomialQuotientAlgebra(Mb, R, in_conductor, "B/I", weight_fn=w)
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
    unit_cache = {}

    def is_unit_key(key):
        if key not in unit_cache:
            unit_cache[key] = member(M, amb.neg(key)).is_yes
        return unit_cache[key]

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


def build_pc(N, ideal_gens, R):
    """The pc square: corners R[I_*], R[N], R, R[N/I]."""
    amb = N.ambient
    Q = PcMonoid(N, ideal_gens)
    w = _shared_weight(N)
    Nalg = CancellativeAlgebra(N, R, weight_fn=w)
    Qalg = PcAlgebra(Q, R, weight_fn=w)
    I = MonoidIdeal(N, list(ideal_gens))
    istar_cache = {}

    def in_star(key):
        if key not in istar_cache:
            istar_cache[key] = key == amb.zero() or I.member(key).is_yes
        return istar_cache[key]

    Istar = MonomialSubsetAlgebra(Nalg, in_star, "I*")
    Ralg = _trivial_algebra(R)
    zero0 = Ralg.zero_key()
    if Qalg.singleton:
        # I = N: the quotient is the singleton monoid, the right leg is the
        # total augmentation, and the left leg must match it
        right = make_key_map(Qalg, lambda k: amb.zero())
        left = make_key_map(Ralg, lambda k: zero0)
    else:
        right = make_key_map(
            Qalg, lambda k: None if (Q.has_collapse and Q.collapsed(k)) else k
        )
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
    if units_submonoid(M):
        raise ValueError("face filtration requires a positive monoid")
    if not is_seminormal(M):
        raise ValueError("face filtration requires a seminormal monoid")
    faces = face_lattice(M)
    r = len(faces) - 1
    if not 1 <= k <= r + 1:
        raise ValueError(f"k must be in 1..{r + 1}")
    w = M.degree
    locate_cache = {}

    def loc(key):
        if key not in locate_cache:
            locate_cache[key] = face_locate(M, key).index
        return locate_cache[key]

    Malg = CancellativeAlgebra(M, R, weight_fn=w)
    Ak = MonomialQuotientAlgebra(M, R, lambda key: loc(key) >= k, f"A_{k}", weight_fn=w)
    Akm1 = MonomialQuotientAlgebra(
        M, R, lambda key: loc(key) >= k - 1 and any(key), f"A_{k - 1}", weight_fn=w
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


def _kernel_certificate(square, piece, Ak, bound):
    """ker(phi_k) per degree equals the monomial span of the face piece."""
    R = square.ring
    right = square.maps["right"]
    out = []
    for d in range(bound + 1):
        piece_keys = {k for k in piece.keys_upto(d) if any(k)}
        killed = set()
        for key in Ak.keys_upto(d):
            img = right(Ak.monomial(key))
            if img.is_zero():
                killed.add(key)
        if killed != piece_keys:
            raise AssertionError(
                f"kernel monomials {sorted(killed)} differ from the face piece "
                f"{sorted(piece_keys)} at degree {d}"
            )
        out.append({"degree": d, "kernel_monomials": len(killed)})
    return out


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
    w = _shared_weight(N)

    def in_p(key):
        return P.member(key).is_yes

    def in_q(key):
        return Qd.member(key).is_yes

    def in_i(key):
        return in_p(key) and in_q(key)

    def in_l(key):
        return in_p(key) or in_q(key)

    if in_i(N.ambient.zero()):
        raise ValueError("p cap q must be proper")
    NI = MonomialQuotientAlgebra(N, R, in_i, "N/I", weight_fn=w)
    NQ = MonomialQuotientAlgebra(N, R, in_q, "N/q", weight_fn=w)
    NP = MonomialQuotientAlgebra(N, R, in_p, "N/p", weight_fn=w)
    NL = MonomialQuotientAlgebra(N, R, in_l, "N/L", weight_fn=w)
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
    # isomorphism and the section lands in R[N]/R[q]
    nprime_gens = [g for g in N.generators if not in_p(g)]
    Nprime = CancellativeMonoid(N.ambient, nprime_gens)
    for d in range(degree_bound + 1):
        lhs = {k for k in NL.keys_upto(d)}
        rhs = {
            k
            for k in (Nprime.slice(d) if Nprime.grading() is not None else Nprime.filtered_elements(d))
            if not in_q(k)
        }
        if lhs != rhs:
            raise AssertionError(
                f"N\\L and N'\\S disagree at degree {d}: {sorted(lhs ^ rhs)[:3]}"
            )
    section = make_key_map(NQ, lambda k: k)
    square.description["split_section"] = section
    for d in range(degree_bound + 1):
        for key in NL.keys_upto(d):
            e = NL.monomial(key)
            if square.maps["right"](section(e)) != e:
                raise AssertionError(f"split section fails at {key}")
    return square


def build_prime_intersection_from_radical(N, ideal_gens, R, degree_bound=10):
    """MT-4 split of a radical ideal: I = p1 cap (p2 cap ... cap pr) with the
    primes from its decomposition; needs at least two primes."""
    from .ideals import prime_decomposition

    dec = prime_decomposition(MonoidIdeal(N, ideal_gens), degree_bound)
    if len(dec.primes) < 2:
        raise ValueError(
            "the radical ideal is prime: the intersection square needs two primes"
        )
    p = list(dec.primes[0][0].generators)
    rest = dec.primes[1:]
    # q = intersection of the remaining primes, as a generated ideal
    def in_rest(key):
        return all(P.member(key).is_yes for P, _, _ in rest)

    qgens = _predicate_ideal_generators(N, in_rest, degree_bound)
    return build_prime_intersection(N, p, qgens, R, degree_bound)


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
    if units_submonoid(L) or L.ambient.torsion or not is_normal(L):
        if units_submonoid(L):
            raise ValueError("L must be positive")
        if L.ambient.torsion:
            raise ValueError("L must live in a torsion-free ambient")
        raise ValueError("L must be normal")
    n = n_list[-1]
    prev = tuple(n_list[:-1])
    p = L.ambient.free_rank
    from .monoid import smash

    S_prev = smash(L, torsion_group_monoid(prev)) if prev else L
    # coordinate layouts ------------------------------------------------
    #   A2/B2: Z^p  x prod_{i<m} Z/n_i x Z/n_m   (B2 = full product monoid)
    #   B1:    Z^p x Z(t)  x prod_{i<m} Z/n_i
    amb_a2 = AbelianGroupShape(p, prev + (n,))
    amb_b1 = AbelianGroupShape(p + 1, prev)
    amb_b2 = amb_a2

    full = smash(L, torsion_group_monoid(tuple(n_list)))

    A2mon = CancellativeMonoid(amb_a2, [g for g in full.generators])
    sprev_gens = list(S_prev.generators)  # tuples: free p + torsion prev
    b1_gens = [tuple(g[:p]) + (0,) + tuple(g[p:]) for g in sprev_gens]
    b1_gens.append(tuple([0] * p) + (1,) + (0,) * len(prev))
    B1mon = CancellativeMonoid(amb_b1, b1_gens)
    b2_gens = [tuple(g[:p]) + tuple(g[p:]) + (0,) for g in sprev_gens]
    b2_gens.append(tuple([0] * p) + (0,) * len(prev) + (1,))
    B2mon = CancellativeMonoid(amb_b2, b2_gens)

    wS = S_prev.degree if S_prev.generators else (lambda k: 0)

    def w_b1(key):
        l_part = key[:p]
        t_part = key[p]
        g_part = key[p + 1 :]
        return t_part + (wS(tuple(l_part) + tuple(g_part)) if S_prev.generators else 0)

    def w_a2(key):
        return wS(tuple(key[:p]) + tuple(key[p : p + len(prev)])) if S_prev.generators else 0

    A2alg = CancellativeAlgebra(A2mon, R, weight_fn=w_a2)
    B1alg = CancellativeAlgebra(B1mon, R, weight_fn=w_b1)
    B2alg = CancellativeAlgebra(B2mon, R, weight_fn=w_a2)

    def rho_key(key):  # A2 -> B2: identity on coordinates
        return key

    def pi_key(key):  # B1 -> B2: t-exponent reduced mod n into the last slot
        l = key[:p]
        t = key[p]
        g = key[p + 1 :]
        return tuple(l) + tuple(g) + (t % n,)

    rho = make_key_map(B2alg, rho_key)
    pi = make_key_map(B2alg, pi_key)

    def j_monomials(d):  # monomials with nonzero L part, in B1 coords
        return [B1alg.monomial(key) for key in B1alg.keys_upto(d) if any(key[:p])]

    def b_basis(d):  # t^(jn) and the binomials t^(k+n) - t^k, n not dividing k
        out = []
        tkey = lambda j: (0,) * p + (j,) + (0,) * len(prev)
        j = 0
        while j * n <= d:
            out.append(B1alg.monomial(tkey(j * n)))
            j += 1
        for k in range(1, d - n + 1):
            if k % n:
                out.append(B1alg.monomial(tkey(k + n)) - B1alg.monomial(tkey(k)))
        return out

    # Lambda corner: span of J-monomials plus the B-binomials in B1 coords
    def lambda_basis(d):
        return j_monomials(d) + b_basis(d)

    def top_fn(elem):  # Lambda -> A2: sum the t-exponents by residue class
        out = {}
        for key, c in elem.coeffs.items():
            l, t, g = key[:p], key[p], key[p + 1 :]
            tgt = tuple(l) + tuple(g) + (t % n,)
            out[tgt] = R.add(out[tgt], c) if tgt in out else c
        cleaned = {}
        for key, c in out.items():
            if R.is_zero(c):
                continue
            # pure-t mass in a nonzero residue class cannot survive for
            # elements of Lambda; surviving mass flags a non-member
            if not any(key[:p]) and any(key[p:]):
                raise AssertionError(f"element leaves Lambda: class {key} survives")
            cleaned[key] = c
        return AlgebraElement(A2alg, cleaned)

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
            "right": rho,
            "bottom": pi,
        },
        ("bottom",),
        R,
        description={"n_list": list(n_list), "m": len(n_list)},
    )

    # second square: A = span(1, J) inside Lambda; B = R[t^n, t^{n+1}-t, ...]
    def a_basis(d):
        return [B1alg.one()] + j_monomials(d)

    def kill_j(elem):  # Lambda -> B: drop monomials with nonzero L part
        out = {k: c for k, c in elem.coeffs.items() if not any(k[:p])}
        return AlgebraElement(B1alg, out)

    Ralg = _trivial_algebra(R)
    zero0 = Ralg.zero_key()

    def a_to_r(elem):
        c = elem.coeffs.get(B1alg.zero_key())
        if c is None:
            return Ralg.zero()
        return Ralg.elem([(zero0, c)])

    def r_to_b(elem):
        c = elem.coeffs.get(zero0)
        if c is None:
            return B1alg.zero()
        return B1alg.elem([(B1alg.zero_key(), c)])

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
            "left": a_to_r,
            "right": kill_j,
            "bottom": r_to_b,
        },
        ("right",),
        R,
        description={"n_list": list(n_list), "B": f"R[t^{n}, t^{n+1}-t, ...]"},
    )
    return square1, square2


def corrupt_square(square):
    """Negative control: zero the top map on one nonzero monomial of the
    top-left corner, breaking the fiber-product property with a witness."""
    import copy

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


@dataclass
class ReducedIsoReport:
    ok: bool
    degree_bound: int
    per_degree: list
    nil_generators_a: list
    nil_generators_b: list

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
    exactly through the certified radical of the conductor ideal."""
    if square.kind != "seminormal-step":
        raise ValueError("verify_reduced_iso applies to seminormal-step squares")
    desc = square.description
    Malg = square.corner("A1").algebra
    Balg = square.corner("A2").algebra
    M, Mb = Malg.M, Balg.M
    two, three = tuple(desc["conductor"][0]), tuple(desc["conductor"][1])
    EA = MonoidIdeal(M, [two, three])
    EB = MonoidIdeal(Mb, [two, three])
    radA = radical(EA, degree_bound=max(degree_bound, 12))
    radB = radical(EB, degree_bound=max(degree_bound, 12))
    AmodI = square.corner("B1").algebra
    BmodI = square.corner("B2").algebra
    per_degree = []
    for d in range(degree_bound + 1):
        a_alive = set(AmodI.keys_upto(d))
        b_alive = set(BmodI.keys_upto(d))
        a_red = {k for k in a_alive if not radA.ideal.member(k).is_yes}
        b_red = {k for k in b_alive if not radB.ideal.member(k).is_yes}
        if a_red != b_red:
            return ReducedIsoReport(False, degree_bound, per_degree, [], [])
        per_degree.append({"degree": d, "reduced_classes": len(a_red)})
    return ReducedIsoReport(
        True,
        degree_bound,
        per_degree,
        [list(g) for g in radA.ideal.generators],
        [list(g) for g in radB.ideal.generators],
    )
