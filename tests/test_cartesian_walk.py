"""verify_cartesian walks the truncations once; the per-truncation check it
replaced is kept here verbatim as the oracle (verify_cartesian, _combine,
_elementwise_fiber_check, _key_index, _as_column, _express_in_basis and
_integer_lattice_check below, as they stood before the walk), and so are
the per-degree verify_reduced_iso, the fiber enumeration that summed every
combination of the fiber relations afresh (_new_fiber_elements) and the
face-filtration kernel certificate that re-mapped every truncation
(_kernel_certificate).

Every canonical report must agree at bound 10: the six builders over F2,
F3, F4, F5, Q, Z and Z/6 (a ValueError counts as an answer), their
corrupt_square controls, "shrunk" controls whose top-left or top-right
truncations are not nested (the walk restarts there), a square whose
commutation first fails at degree 2, one whose top map is wrong only on a
fiber element that is not a basis element (only the elementwise enumeration
sees it), and elementwise budgets 0, 512 and 4096; over Z also two
hand-made squares whose fiber relations are not integral (one Cartesian, one
whose image lattice has index 2), one with integral relations and an
index-2 image, and two whose relations stop being integral at degree 1, so
the walk switches from relation lifts to the saturation check.  A counting
test pins that each fiber element is lifted and re-checked through the top
map once over the whole walk, and a spy on top that the running-sum
enumeration passes top the same lifts in the same order as the old one.  A
span corner whose basis repeats an element or is linearly dependent is
refused with a ValueError, and so is a negative degree bound.  A
fresh-process test pins the slice searches and box scans of one
verification.
"""

import copy
import json
import re
from itertools import product

import pytest

from helpers import run_fresh
from monoidforge import algebra, squares
from monoidforge.algebra import (
    AlgebraElement,
    CancellativeAlgebra,
    MonomialQuotientAlgebra,
    MonomialSubsetAlgebra,
)
from monoidforge.ideals import MonoidIdeal, radical
from monoidforge.lattice import (
    AbelianGroupShape,
    axpy,
    diagonal_of,
    field_eliminate,
    integer_kernel,
    smith_normal_form,
    solve_smith,
)
from monoidforge.monoid import CancellativeMonoid
from monoidforge.rings import GF, QQ, ZZ, IntegerModRing
from monoidforge.squares import (
    CartesianReport,
    Corner,
    MilnorSquare,
    ReducedIsoReport,
    build_face_filtration,
    build_pc,
    build_positive_split,
    build_prime_intersection,
    build_seminormal_step,
    build_torsion_splitting,
    corrupt_square,
)

BOUND = 10
RINGS = [GF(2), GF(3), GF(4), GF(5), QQ, ZZ, IntegerModRing(6)]


# ---------------------------------------------------------------------------
# oracle: the per-truncation check, verbatim


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
                elif R.kind == "Z" and c % bcoeff == 0:
                    row[j] = c // bcoeff
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


def _new_fiber_elements(self, ids):
    """Enumerate the fiber elements that are new at this degree (all of
    them the first time), each a combination of the fiber relations,
    lift it as the same combination of their lifts and re-check the lift
    through the maps; the A2 and B1 elements of the first that fails, or
    None."""
    R, sq = self.R, self.square
    A1 = self.corners[0]
    n1, n2, n1p = (len(i) for i in ids)
    rels, lifts = self.relations, self.lifts
    old, f = self.enumerated, len(rels)
    self.enumerated = f
    zero, elems = R.zero(), R.elements()
    if old is None:
        old, fresh = 0, list(product(elems, repeat=f))
    else:
        fresh = [c for c in product(elems, repeat=f - old)
                 if any(x != zero for x in c)]
    top, left = sq.maps["top"], sq.maps["left"]
    for head in product(elems, repeat=old):
        for tail in fresh:
            v, sol = {}, {}
            for c, rel, x in zip(head + tail, rels, lifts):
                if c != zero:
                    axpy(R, v, c, rel)
                    axpy(R, sol, c, x)
            lift = A1.combine(sol, n1)
            want_a2, want_b1 = self._pair(v, n2, n1p)
            if lift is not None and (top(lift) != want_a2 or left(lift) != want_b1):
                return want_a2, want_b1
    return None


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


# ---------------------------------------------------------------------------
# squares


def M(amb, gens):
    return CancellativeMonoid(amb, gens)


Z1, Z2 = AbelianGroupShape(1), AbelianGroupShape(2)


def six_squares(R):
    """The acceptance suite's instances of the six builders over R."""
    z2p = M(Z2, [(1, 0), (0, 1)])
    s1, s2 = build_torsion_splitting(M(Z1, [(1,)]), [2], R)
    return [
        ("seminormal-step", build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), R)),
        ("positive-split", build_positive_split(M(Z2, [(1, 0), (-1, 0), (0, 1)]), R)),
        ("pc", build_pc(z2p, [(1, 1)], R)),
        ("face-filtration", build_face_filtration(z2p, 2, R, kernel_bound=BOUND)[0]),
        ("torsion-splitting-1", s1),
        ("torsion-splitting-2", s2),
        ("prime-intersection", build_prime_intersection(z2p, [(1, 0)], [(0, 1)], R)),
    ]


def shrunk_square(square, name="A1"):
    """The truncations of corner name of positive degree lose their first
    basis element, so truncation d - 1 is not contained in truncation d."""
    bad = copy.copy(square)
    corner = square.corner(name)
    bad.corners = dict(square.corners)
    bad.corners[name] = Corner(
        corner.name + "-shrunk",
        ambient=corner.ambient,
        basis_fn=lambda d: corner.basis_upto(d)[1:] if d else corner.basis_upto(d),
    )
    return bad


def late_noncommuting(square, key):
    """The left leg also sends the monomial at key to 1 in R: linear, but
    the square stops commuting at the degree of key."""
    bad = copy.copy(square)
    bad.maps = dict(square.maps)
    left, B1 = square.maps["left"], square.corner("B1").algebra
    bad.maps["left"] = lambda e: (
        left(e) + B1.elem([(B1.zero_key(), e.coeffs[key])]) if key in e.coeffs else left(e)
    )
    return bad


def wrong_on(square, element):
    """The top leg is wrong on one element of A1 only (not linear): every
    basis check passes and only the fiber enumeration can see it."""
    bad = copy.copy(square)
    bad.maps = dict(square.maps)
    top = square.maps["top"]
    bad.maps["top"] = lambda e: top(e) + top(e) if e == element else top(e)
    return bad


def canon(square, **kw):
    """Canonical report JSON of the walk and of the oracle."""
    out = []
    for check in (squares.verify_cartesian, verify_cartesian):
        try:
            rep = check(square, degree_bound=BOUND, **kw).to_json()
        except ValueError as exc:
            rep = {"error": f"ValueError: {exc}"}
        out.append(json.dumps(rep, sort_keys=True, separators=(",", ":")))
    return out


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.kind)
def test_walk_matches_oracle_on_six_squares_and_controls(R):
    for kind, sq in six_squares(R):
        walk, oracle = canon(sq)
        assert walk == oracle, (kind, walk, oracle)
        for name, control in (
            ("corrupted", corrupt_square),
            ("shrunk", shrunk_square),
            # a walk that kept the dropped A2 element would still find the
            # top image of the constant inside A2
            ("shrunk A2", lambda sq: shrunk_square(sq, "A2")),
        ):
            walk, oracle = canon(control(sq))
            assert walk == oracle, (kind, name, walk, oracle)


@pytest.mark.parametrize(
    "q, budget", [(2, 0), (3, 0), (4, 0), (5, 0), (2, 4096), (4, 4096)]
)
def test_walk_matches_oracle_for_elementwise_budgets(q, budget):
    for kind, sq in six_squares(GF(q)):
        walk, oracle = canon(sq, elementwise_budget=budget)
        assert walk == oracle, (kind, budget, walk, oracle)
    sq = build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), GF(q))
    walk, oracle = canon(shrunk_square(sq), elementwise_budget=budget)
    assert walk == oracle


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.kind)
def test_commutation_first_failing_at_degree_two(R):
    sq = late_noncommuting(build_pc(M(Z2, [(1, 0), (0, 1)]), [(1, 1)], R), (1, 1))
    walk, oracle = canon(sq)
    assert walk == oracle
    rep = json.loads(walk)
    assert rep["method"] == "commute" and len(rep["per_degree"]) == 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fiber_element_that_is_not_a_basis_element(q):
    sq = build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), GF(q))
    A = sq.corner("A1").algebra
    bad = wrong_on(sq, A.elem([((0,), 1), ((2,), 1)]))
    walk, oracle = canon(bad, elementwise_budget=4096)
    assert walk == oracle
    rep = json.loads(walk)
    assert rep["method"] == "elementwise" and len(rep["per_degree"]) == 2


def counted(square):
    """The square with its top leg counting its calls."""
    out = copy.copy(square)
    out.maps = dict(square.maps)
    top, calls = square.maps["top"], [0]

    def counting(e):
        calls[0] += 1
        return top(e)

    out.maps["top"] = counting
    return out, calls


@pytest.mark.parametrize("q", [2, 4, 5])
def test_each_fiber_element_is_checked_once(q):
    """top runs once per A1 basis element (its image) and once per fiber
    element (the re-check of its lift), fiber elements counted up to the
    last degree within the budget; the oracle checks every truncation's
    fiber again."""
    for kind, sq in six_squares(GF(q)):
        sq, calls = counted(sq)
        rep = squares.verify_cartesian(sq, degree_bound=BOUND, elementwise_budget=4096)
        assert rep.ok, kind
        checked = [e["elementwise"] for e in rep.per_degree if "elementwise" in e]
        assert calls[0] == rep.per_degree[-1]["dims"]["A1"] + max(checked, default=0), kind


def scaled_square(r, t, s_):
    """Over Z: A1 = A2 = Z[x], B1 = B2 = Z; top multiplies by t, left takes
    s_ times the constant term, right r times the constant term, bottom is
    the identity.  The fiber is {(a, b) : r a_0 = b}; it is the image of
    (top, left) exactly when t = 1 and s_ = r."""
    R = ZZ
    Zx = CancellativeAlgebra(M(Z1, [(1,)]), R)
    Rz = CancellativeAlgebra(M(AbelianGroupShape(0), []), R)
    zero1, zero0 = (0,), ()

    def const(e, c):
        x = e.coeffs.get(zero1)
        return Rz.elem([(zero0, c * x)]) if x else Rz.zero()

    corners = {
        "A1": Corner("Z[x]", algebra=Zx),
        "A2": Corner("Z[x]", algebra=Zx),
        "B1": Corner("Z", algebra=Rz),
        "B2": Corner("Z", algebra=Rz),
    }
    maps = {
        "top": lambda e: e.scale(t),
        "left": lambda e: const(e, s_),
        "right": lambda e: const(e, r),
        "bottom": lambda e: e,
    }
    return MilnorSquare("scaled", corners, maps, ("bottom",), R)


@pytest.mark.parametrize("r, t, s_", [(2, 1, 2), (2, 2, 4), (1, 2, 2), (1, 1, 1)])
def test_integer_lattices_with_and_without_an_integral_fiber_basis(r, t, s_):
    walk, oracle = canon(scaled_square(r, t, s_))
    assert walk == oracle
    assert json.loads(walk)["cartesian"] == (t == 1 and s_ == r)


def test_reduced_iso_per_degree_matches_oracle():
    m23 = M(Z1, [(2,), (3,)])
    m4567 = M(Z1, [(4,), (5,), (6,), (7,)])
    for q in (2, 3, 5):
        for sq in (build_seminormal_step(m23, (1,), GF(q)),
                   build_seminormal_step(m4567, (2,), GF(q))):
            for bound in (0, 6, 10):
                got = squares.verify_reduced_iso(sq, degree_bound=bound).to_json()
                assert got == verify_reduced_iso(sq, degree_bound=bound).to_json()
    # a B/I corner that kills everything: the classes differ at degree 0
    sq = build_seminormal_step(m23, (1,), GF(2))
    bad = copy.copy(sq)
    bad.corners = dict(sq.corners)
    Mb = sq.corner("A2").algebra.M
    bad.corners["B2"] = Corner(
        "B/B", algebra=MonomialQuotientAlgebra(Mb, GF(2), lambda k: True, "B/B")
    )
    got = squares.verify_reduced_iso(bad, degree_bound=6)
    assert got.to_json() == verify_reduced_iso(bad, degree_bound=6).to_json()
    assert not got.ok and got.per_degree == []


def diagonal_square(c, t, s_):
    """Over Z: all four corners Z[x]; on x^k top multiplies by t(k), left by
    s_(k), right by c(k), and bottom is the identity.  At degree k the
    fiber is {(a x^k, b x^k) : c(k) a = b}; its relation over Q is integral
    exactly when c(k) = 1 or -1, and the square is Cartesian exactly when
    every t(k) is 1 or -1 (commutation needs s_(k) = c(k) t(k))."""
    Zx = CancellativeAlgebra(M(Z1, [(1,)]), ZZ)

    def times(f):
        return lambda e: AlgebraElement(Zx, {k: f(k[0]) * a for k, a in e.coeffs.items()})

    corners = {n: Corner("Z[x]", algebra=Zx) for n in ("A1", "A2", "B1", "B2")}
    maps = {"top": times(t), "left": times(s_), "right": times(c), "bottom": lambda e: e}
    return MilnorSquare("diagonal", corners, maps, ("bottom",), ZZ)


@pytest.mark.parametrize("index", [1, 2])
def test_integer_relations_that_stop_being_integral(index, monkeypatch):
    """c = 1 at degree 0 and 2 above: the walk lifts the degree-0 relation
    and from degree 1 on decides the lattices by one Smith form per degree.
    With index 2 the image lattice at degree 2 has index 2 in the fiber, and
    degree 2 takes a second Smith form when it is walked again whole."""
    c = lambda k: 1 if k == 0 else 2
    t = lambda k: index if k == 2 else 1
    sq = diagonal_square(c, t, lambda k: c(k) * t(k))
    walk, oracle = canon(sq)
    assert walk == oracle
    rep = json.loads(walk)
    assert rep["cartesian"] == (index == 1)
    if index == 2:
        assert rep["note"] == "kernel vector not in the image lattice at degree 2"
    calls = []
    snf = squares.smith_normal_form
    monkeypatch.setattr(squares, "smith_normal_form", lambda m: calls.append(m) or snf(m))
    squares.verify_cartesian(sq, degree_bound=BOUND)
    assert len(calls) == (BOUND if index == 1 else 3)


def malformed(square, name, extra):
    """The square with span corner name, whose basis gains extra(basis) from
    degree 1 on."""
    bad = copy.copy(square)
    corner = square.corner(name)
    bad.corners = dict(square.corners)
    bad.corners[name] = Corner(
        corner.name + "-malformed",
        ambient=corner.ambient,
        basis_fn=lambda d: corner.basis_upto(d) + (extra(corner.basis_upto(d)) if d else []),
    )
    return bad


@pytest.mark.parametrize("R", [GF(3), ZZ], ids=lambda R: R.kind)
@pytest.mark.parametrize("name", ["A2", "B1"])
def test_malformed_span_basis_is_refused(R, name):
    """A repeated basis element, or 2 times the first one, in the A2 (R[N])
    or B1 (R) corner of a pc square: the oracle returns a report, the walk
    refuses the basis, naming the corner and the degree."""
    sq = build_pc(M(Z2, [(1, 0), (0, 1)]), [(1, 1)], R)
    corner = re.escape(f"{name} ({sq.corner(name).name}-malformed)")
    for extra, what in (
        (lambda b: b[:1], "repeats a basis element"),
        (lambda b: [b[0].scale(2)], "has a linearly dependent basis"),
    ):
        bad = malformed(sq, name, extra)
        assert isinstance(verify_cartesian(bad, degree_bound=3), CartesianReport)
        with pytest.raises(ValueError, match=rf"corner {corner} {what} at degree 1$"):
            squares.verify_cartesian(bad, degree_bound=3)


def test_oracle_integer_coordinates_of_single_monomials():
    """The oracle's _express_in_basis over Z divides a single-monomial
    target exactly when the basis coefficient divides it, as the general
    solve does once a binomial joins the basis; over Z/6 it rejects."""

    def el(coeffs):
        return AlgebraElement(None, coeffs)

    x, y = (1, 0), (0, 1)
    two_x, three_x, four_x = el({x: 2}), el({x: 3}), el({x: 4})
    assert _express_in_basis([two_x], [two_x], ZZ) == ([[1]], None)
    assert _express_in_basis([four_x], [el({x: -2})], ZZ) == ([[-2]], None)
    assert _express_in_basis([three_x], [two_x], ZZ) == (None, three_x)
    binomial = el({x: 1, y: 1})
    coords, wit = _express_in_basis([two_x], [two_x, binomial], ZZ)
    assert wit is None and [int(c) for c in coords[0]] == [1, 0]
    assert _express_in_basis([three_x], [two_x, binomial], ZZ)[0] is None
    Z6 = IntegerModRing(6)
    assert _express_in_basis([el({x: 4})], [el({x: 2})], Z6)[0] is None


def top_calls(square, **kw):
    """The canonical report of the walk and the lifts it passes to top, in
    order, as coefficient maps."""
    spied = copy.copy(square)
    spied.maps = dict(square.maps)
    top, seen = square.maps["top"], []

    def spy(e):
        seen.append(dict(e.coeffs))
        return top(e)

    spied.maps["top"] = spy
    rep = squares.verify_cartesian(spied, degree_bound=BOUND, **kw).to_json()
    return json.dumps(rep, sort_keys=True, separators=(",", ":")), seen


def wrong_on_squares(R):
    """Squares whose top leg is wrong on one fiber element that is not a
    basis element of A1."""
    semi = build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), R)
    A = semi.corner("A1").algebra
    pc = build_pc(M(Z2, [(1, 0), (0, 1)]), [(1, 1)], R)
    I = pc.corner("A1").algebra
    return [
        ("seminormal-step", wrong_on(semi, A.elem([((0,), 1), ((2,), 1)]))),
        ("seminormal-step late", wrong_on(semi, A.elem([((2,), 1), ((3,), 1), ((5,), 1)]))),
        ("pc", wrong_on(pc, I.elem([((0, 0), 1), ((1, 1), 1)]))),
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_incremental_enumeration_passes_the_same_lifts_to_top(q, monkeypatch):
    """The walk's running-sum enumeration hands top the same lifts in the
    same order as the enumeration that summed every combination afresh, and
    a wrong square fails with the same witness."""
    wrong = wrong_on_squares(GF(q))
    cases = six_squares(GF(q)) + wrong
    got = [top_calls(sq, elementwise_budget=4096) for _, sq in cases]
    monkeypatch.setattr(squares._CartesianWalk, "_new_fiber_elements", _new_fiber_elements)
    want = [top_calls(sq, elementwise_budget=4096) for _, sq in cases]
    for (kind, _), g, w in zip(cases, got, want):
        assert g[0] == w[0], kind
        assert g[1] == w[1], kind
    for (kind, _), (report, _) in zip(wrong, got[-len(wrong):]):
        assert json.loads(report)["method"] == "elementwise", kind


def test_negative_degree_bound_is_refused(monkeypatch):
    """A negative bound has no truncation to check: it is refused before any
    key list is asked for, not answered with an empty "yes"."""
    sq = build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), GF(2))
    calls = []
    keys = algebra.monoid_keys_by_weight
    monkeypatch.setattr(
        algebra, "monoid_keys_by_weight", lambda M, w, b: calls.append(b) or keys(M, w, b)
    )
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
        squares.verify_cartesian(sq, degree_bound=-1)
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
        squares.verify_reduced_iso(sq, degree_bound=-1)
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -2"):
        build_face_filtration(M(Z2, [(1, 0), (0, 1)]), 2, GF(2), kernel_bound=-2)
    assert calls == []
    assert squares.verify_cartesian(sq, degree_bound=0).ok
    assert squares.verify_reduced_iso(sq, degree_bound=0).ok


FACE_CASES = [
    (Z2, [(1, 0), (0, 1)], 1),
    (Z2, [(1, 0), (0, 1)], 2),
    (Z2, [(1, 0), (0, 1)], 3),
    (Z2, [(2, 0), (1, 1), (0, 2)], 2),
    (AbelianGroupShape(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
]


def assertion_text(fn, *args):
    with pytest.raises(AssertionError) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize("amb, gens, k", FACE_CASES)
def test_kernel_certificate_matches_oracle(amb, gens, k):
    """The face-filtration certificate maps each key once and reads every
    degree off the weights: the same per-degree entries as the certificate
    that re-mapped every truncation, and on a wrong leg or a wrong piece
    the same first degree and monomials in its AssertionError."""
    sq, cert = build_face_filtration(M(amb, gens), k, GF(2), kernel_bound=BOUND)
    piece, Ak = sq.corner("A1").algebra, sq.corner("A2").algebra
    assert cert == _kernel_certificate(sq, piece, Ak, BOUND)
    # each control differs from the piece at two keys, the last one of the
    # highest degree: the error names the lower degree
    extra = [key for key in Ak.keys_upto(BOUND) if any(key) and key not in piece.keys_upto(BOUND)]
    for key in extra[:: max(1, len(extra) // 3)]:
        bad = copy.copy(sq)
        bad.maps = dict(sq.maps)
        right, killed = sq.maps["right"], {key, extra[-1]}
        bad.maps["right"] = lambda e, right=right, killed=killed: (
            e.algebra.zero() if killed & e.coeffs.keys() else right(e)
        )
        assert assertion_text(squares._kernel_certificate, bad, piece, Ak, BOUND) == (
            assertion_text(_kernel_certificate, bad, piece, Ak, BOUND)
        )
    pieces = [key for key in piece.keys_upto(BOUND) if any(key)]
    for key in pieces[:: max(1, len(pieces) // 3)]:
        thin = MonomialSubsetAlgebra(piece, lambda x, gone={key, pieces[-1]}: x not in gone, "thin")
        assert assertion_text(squares._kernel_certificate, sq, thin, Ak, BOUND) == (
            assertion_text(_kernel_certificate, sq, thin, Ak, BOUND)
        )


VERIFY_SEARCH_COUNT = """
import json
import sys

from monoidforge import monoid, squares
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid as M
from monoidforge.rings import GF

Z1, Z2 = AbelianGroupShape(1), AbelianGroupShape(2)
which = sys.argv[1]
if which == "seminormal-step":
    sq, bound = squares.build_seminormal_step(M(Z1, [(2,), (3,)]), (1,), GF(2)), 10
elif which == "torsion-splitting-1":
    sq, bound = squares.build_torsion_splitting(M(Z1, [(1,)]), [2], GF(2))[0], 10
elif which == "torsion-splitting-2":
    sq, bound = squares.build_torsion_splitting(M(Z1, [(1,)]), [2], GF(2))[1], 10
elif which == "face-filtration":
    sq, bound = squares.build_face_filtration(M(Z2, [(1, 0), (0, 1)]), 2, GF(2))[0], 10
else:
    sq, bound = squares.build_positive_split(M(Z2, [(1, 0), (-1, 0), (0, 1)]), GF(3)), 6
counts = {"searches": 0, "scans": 0}
search = monoid._graded_search
scan = M.filtered_elements


def counted_search(*args):
    counts["searches"] += 1
    return search(*args)


def counted_scan(self, bound):
    counts["scans"] += 1
    return scan(self, bound)


monoid._graded_search = counted_search
M.filtered_elements = counted_scan
ok = squares.verify_cartesian(sq, degree_bound=bound).ok
print(json.dumps({"ok": ok, **counts}))
"""


@pytest.mark.parametrize("kind, searches, scans", [
    ("seminormal-step", 2, 0),
    ("torsion-splitting-1", 2, 0),
    ("torsion-splitting-2", 2, 0),
    ("face-filtration", 1, 0),
    ("positive-split", 1, 1),
])
def test_slice_searches_of_one_verification_in_a_fresh_process(kind, searches, scans):
    """One verify_cartesian after the build, in a fresh process: each
    monoid and weight of the monomial corners is searched (or box-scanned)
    once, at the bound, and every truncation reads that list.  The
    seminormal step searches <2,3> and <1,2,3> (at degree 10 each instead of
    at every degree: 18 searches before), the first torsion-splitting square
    its two monomial corners (20 before, the span corner reads the B1 list),
    the second one the B1 algebra under its span corners and the trivial
    monoid of R (12 before, when only monomial corners were prefetched),
    the face filtration only the trivial monoid of R (its two monoid corners
    read the list its kernel certificate built: 11 before), and the positive
    split of <(1,0),(-1,0),(0,1)> scans its box once (14 before); its one
    search is a slice of M/U(M) that a corner lists (seven before, when
    membership grew the slices of M/U(M) instead of searching an
    interval)."""
    proc = run_fresh(["-c", VERIFY_SEARCH_COUNT, kind], timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"ok": True, "searches": searches, "scans": scans}
