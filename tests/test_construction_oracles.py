"""The closure and square constructions against the loops they replaced.

`seminormalize_oracle`, `find_subintegral_element_oracle` and
`build_torsion_splitting_oracle` (with its `_torsion_weights_oracle`) are
the earlier functions, kept word for word but for their names and caches:
the oracle fixpoint keeps no cache, so it never returns the fast result,
and the oracle weights are memoized under a key of their own.  The oracle
fixpoint re-tests every pool element against every stage and then runs its
last pass again as a safety net; the oracle squares hand-write five legs
that are key maps now.

The fast functions must give the same closure JSON and the same
subintegral element on seeded positive and torsion monoids, and the same
verification report and the same image, coefficient for coefficient and in
order, of every basis element under every leg on every listed square.  A
count taken in a fresh process pins the membership calls of one
seminormalization.
"""

import json
import random

import pytest

from helpers import run_fresh
from monoidforge.algebra import AlgebraElement, CancellativeAlgebra
from monoidforge.closure import (
    ClosureResult,
    _sn_candidate_pool,
    find_subintegral_element,
    is_normal,
    is_seminormal,
    normalize,
    seminormalize,
)
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import (
    CancellativeMonoid,
    member,
    minimalize,
    smash,
    units_submonoid,
)
from monoidforge.rings import GF, QQ
from monoidforge.squares import (
    Corner,
    MilnorSquare,
    _trivial_algebra,
    build_torsion_splitting,
    make_key_map,
    torsion_group_monoid,
    verify_cartesian,
)


def seminormalize_oracle(M):
    """sn(M): least intermediate monoid closed under adjoining a with
    2a, 3a already present; fixpoint iteration over the candidate pool.

    Raises for monoids that are neither positive nor already normal (the
    fixpoint pool is grading-bounded).
    """
    nres = normalize(M)
    if nres.added_nothing:
        res = ClosureResult(M, [], {}, "seminormalization")
        return res
    if units_submonoid(M):
        raise ValueError(
            "seminormalization implemented for positive monoids "
            "(non-positive inputs are supported only when already normal)"
        )
    pool = _sn_candidate_pool(M)
    current = M
    added, certs = [], {}
    changed = True
    while changed:
        changed = False
        for a in pool:
            if member(current, a).is_yes:
                continue
            amb = M.ambient
            r2 = member(current, amb.scale(2, a))
            r3 = member(current, amb.scale(3, a))
            if r2.is_yes and r3.is_yes:
                certs[a] = {
                    "double_witness": list(r2.witness),
                    "triple_witness": list(r3.witness),
                    "stage_generators": [list(g) for g in current.generators],
                }
                added.append(a)
                current = CancellativeMonoid(amb, list(current.generators) + [a])
                changed = True
    # safety net: no pool candidate remains adjoinable.  It reads only
    # membership, so it runs on the last stage, whose caches are warm; the
    # minimalized monoid is the same set.
    for a in pool:
        if not member(current, a).is_yes:
            amb = M.ambient
            if member(current, amb.scale(2, a)).is_yes and member(current, amb.scale(3, a)).is_yes:
                raise RuntimeError(
                    f"seminormalization candidate pool too small: {a} is still "
                    "adjoinable after the fixpoint"
                )
    final = minimalize(current)
    res = ClosureResult(final, sorted(added), certs, "seminormalization")
    return res


def find_subintegral_element_oracle(M):
    """Some a in gp(M) \\ M with 2a, 3a in M, or None when M is seminormal."""
    if is_seminormal(M):
        return None
    for a in _sn_candidate_pool(M):
        if member(M, a).is_yes:
            continue
        if member(M, M.ambient.scale(2, a)).is_yes and member(
            M, M.ambient.scale(3, a)
        ).is_yes:
            return a
    return None


def _torsion_weights_oracle(S_prev, p, prev):
    """The weights (w_a2, w_b1) of the torsion-splitting corners over S_prev.

    monoid_keys_by_weight keeps one key list per weight function, and key
    lists do not depend on the ring, so every build over the same S_prev
    gets the same two functions, kept in S_prev's cache: a rebuild, over
    any ring, reuses the lists of the first build.
    """
    memo = S_prev._cache.setdefault("torsion_weights_oracle", {})
    if (p, prev) in memo:
        return memo[p, prev]
    wS = S_prev.degree if S_prev.generators else (lambda k: 0)

    def w_b1(key):
        l_part = key[:p]
        t_part = key[p]
        g_part = key[p + 1 :]
        return t_part + (wS(tuple(l_part) + tuple(g_part)) if S_prev.generators else 0)

    def w_a2(key):
        return wS(tuple(key[:p]) + tuple(key[p : p + len(prev)])) if S_prev.generators else 0

    memo[p, prev] = w_a2, w_b1
    return w_a2, w_b1



def build_torsion_splitting_oracle(L, n_list, R):
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

    w_a2, w_b1 = _torsion_weights_oracle(S_prev, p, prev)
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
        return [B1alg._listed_monomial(key) for key in B1alg.keys_upto(d) if any(key[:p])]

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




# ---------------------------------------------------------------------------
# seminormalization


def _random_positive_monoid(rng, rank, max_entry):
    """rank to rank + 2 nonzero generators with entries in 0..max_entry.
    The draws include <(0,2,3),(1,0,0),(3,0,2),(3,2,0),(3,3,0)>, whose
    seminormalization took minutes while membership grew graded slices; on
    interval searches the oracle fixpoint takes most of this test's time
    on it."""
    while True:
        gens = [
            tuple(rng.randint(0, max_entry) for _ in range(rank))
            for _ in range(rng.randint(rank, rank + 2))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            return CancellativeMonoid(AbelianGroupShape(rank), gens)


def _seeded_monoids():
    """300 positive monoids of rank 1-3 with entries up to 3, then 60
    torsion monoids sn(L) smash Z/2 or Z/3 over positive L of rank 1-2."""
    rng = random.Random(1801)
    out = [_random_positive_monoid(rng, rng.choice([1, 2, 3]), 3) for _ in range(300)]
    for _ in range(60):
        L = _random_positive_monoid(rng, rng.choice([1, 2]), 3)
        tor = torsion_group_monoid([rng.choice([2, 3])])
        out.append(smash(seminormalize_oracle(L).monoid, tor))
    return out


def test_seminormalize_and_subintegral_element_match_the_oracles():
    """The torsion monoids are seminormal, so on them the fixpoint runs
    over a torsion ambient and adjoins nothing whenever M is not normal."""
    nontrivial = torsion_passes = 0
    for m in _seeded_monoids():
        want = seminormalize_oracle(m)
        assert seminormalize(m).to_json() == want.to_json(), m
        a = find_subintegral_element(m)
        assert a == find_subintegral_element_oracle(m), m
        nontrivial += a is not None
        torsion_passes += bool(m.ambient.torsion) and not is_normal(m)
    assert nontrivial > 50 and torsion_passes > 5, (nontrivial, torsion_passes)


SEMINORMALIZE_COUNT = """
import json
import monoidforge.closure as cl
import monoidforge.monoid as mm
from monoidforge.lattice import AbelianGroupShape

calls = [0]
member = cl.member


def counted(*args):
    calls[0] += 1
    return member(*args)


m = mm.CancellativeMonoid(
    AbelianGroupShape(3),
    [(2, 0, 0), (0, 3, 0), (1, 1, 0), (0, 0, 2), (1, 0, 1), (0, 2, 3)],
)
cl.normalize(m)
cl.member = counted
before = len(mm._INTERN)
res = cl.seminormalize(m)
print(json.dumps({
    "member": calls[0], "interned": len(mm._INTERN) - before, "added": len(res.added),
}))
"""


def test_member_calls_of_one_seminormalization_in_a_fresh_process():
    """seminormalize of <(2,0,0),(0,3,0),(1,1,0),(0,0,2),(1,0,1),(0,2,3)>
    after its normalization: 22 stages and the minimalized result are
    interned, and each candidate is tested (a, then 2a, then 3a) until it
    lies in a stage.  The oracle fixpoint, which tests the whole pool
    against every stage and its last pass twice, makes 1,867 calls."""
    proc = run_fresh(["-c", SEMINORMALIZE_COUNT], timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"member": 740, "interned": 23, "added": 22}


# ---------------------------------------------------------------------------
# torsion-splitting squares

HOSTS = {
    "Z+": (1, [(1,)]),
    "Z+^2": (2, [(1, 0), (0, 1)]),
    "<(1,0),(1,1),(1,2)>": (2, [(1, 0), (1, 1), (1, 2)]),
}
LEGS = (("A1", ("top", "left")), ("A2", ("right",)), ("B1", ("bottom",)), ("B2", ()))


def _legs_on_bases(sq, bound):
    """Every basis element up to the bound of each corner with its image
    under each leg out of it: keys, coefficients in order, and weights."""
    def terms(e):
        return e.algebra.M, [(k, c, e.algebra.weight(k)) for k, c in e.coeffs.items()]

    return [
        (name, terms(e), [(leg, terms(sq.maps[leg](e))) for leg in legs])
        for name, legs in LEGS
        for e in sq.corner(name).basis_upto(bound)
    ]


@pytest.mark.parametrize("ring", ["F2", "F3", "Q"])
@pytest.mark.parametrize("n_list", [[2], [3], [2, 2], [2, 3]], ids=str)
@pytest.mark.parametrize("host", list(HOSTS))
def test_torsion_splitting_matches_the_oracle(host, n_list, ring):
    rank, gens = HOSTS[host]
    L = CancellativeMonoid(AbelianGroupShape(rank), gens)
    R = QQ if ring == "Q" else GF(int(ring[1:]))
    got = build_torsion_splitting(L, n_list, R)
    want = build_torsion_splitting_oracle(L, n_list, R)
    for sq, sq_want in zip(got, want):
        assert sq.kind == sq_want.kind
        assert sq.description == sq_want.description
        assert _legs_on_bases(sq, 4) == _legs_on_bases(sq_want, 4)
        assert verify_cartesian(sq, degree_bound=5).to_json() == (
            verify_cartesian(sq_want, degree_bound=5).to_json()
        )
    # a pure-t monomial in a nonzero residue class is not in Lambda
    B1alg = got[0].corner("B1").algebra
    t1 = B1alg.monomial((0,) * rank + (1,) + (0,) * (len(n_list) - 1))
    messages = []
    for sq in (got[0], want[0]):
        with pytest.raises(AssertionError) as info:
            sq.maps["top"](t1)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "element leaves Lambda" in messages[0]
