"""The fast paths of verify_cartesian against the plain code they replaced.

- `make_key_map` keeps the image of each key; its oracle is the plain
  linear extension, kept here verbatim, over F2, F4, F5, Z, Q and Z/6, on
  elements whose keys merge and cancel.
- Monomial corners read their truncations by level off the kept key list;
  the oracle is `keys_upto(d)`, for every d up to the bound, on every host
  kind of `test_key_lists` (monoids with units included).  The algebra's
  predicates run only on the levels asked for.
- Fiber steps add stored multiples of the relations: a fresh process counts
  the ring multiplications of the enumeration of an F4 square.
"""

import json
import random

import pytest

from helpers import run_fresh
from monoidforge.algebra import AlgebraElement, CancellativeAlgebra, MonomialQuotientAlgebra
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid
from monoidforge.rings import GF, QQ, ZZ, IntegerModRing
from monoidforge.squares import Corner, _Truncations, make_key_map

from test_key_lists import ALGEBRAS, MONOIDS, fresh, reset_caches

Z2 = AbelianGroupShape(2)


def plain_key_map(dst_algebra, key_fn):
    """Linear extension of key -> key | None into dst (the former
    make_key_map)."""

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


RINGS = [GF(2), GF(4), GF(5), ZZ, QQ, IntegerModRing(6)]

KEY_FNS = [
    ("identity", lambda k: k),
    ("parity", lambda k: (k[0] % 2, k[1] % 2)),  # merges four classes
    ("drop odd", lambda k: None if k[0] % 2 else (k[0] // 2, k[1])),
    ("to the origin", lambda k: (0, 0)),
    ("sum", lambda k: None if k == (3, 3) else (k[0] + k[1], 0)),
]


def coefficients(R, rng):
    if R.finite:
        return [c for c in R.elements() if not R.is_zero(c)]
    return [R.from_int(n) for n in (-3, -2, -1, 1, 2, 5) + (rng.randint(6, 99),)]


def elements(R, A, rng):
    """Random elements of A over the box [0, 3]^2, and elements that cancel
    under every merging key map: c x^k - c x^k' with k, k' of equal parity
    and equal sum, and a ring's worth of coefficients adding up to 0 on one
    key class."""
    keys = [(i, j) for i in range(4) for j in range(4)]
    cs = coefficients(R, rng)
    out = []
    for size in (0, 1, 2, 3, 5, 8, 16):
        for _ in range(6):
            support = rng.sample(keys, size)
            out.append(AlgebraElement(A, {k: rng.choice(cs) for k in support}))
    for c in cs:
        out.append(AlgebraElement(A, {(0, 2): c, (2, 0): R.neg(c)}))
        out.append(AlgebraElement(A, {(1, 1): c, (3, 3): R.neg(c), (2, 0): c}))
    total = {}
    for k, c in zip([(0, 0), (2, 0), (0, 2), (2, 2)], cs * 4):
        total[k] = c
    out.append(AlgebraElement(A, total))
    return out


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.kind)
def test_key_map_matches_the_plain_linear_extension(R):
    rng = random.Random(R.kind)
    A = CancellativeAlgebra(CancellativeMonoid(Z2, [(1, 0), (0, 1)]), R)
    merged = cancelled = 0
    for name, key_fn in KEY_FNS:
        fast, plain = make_key_map(A, key_fn), plain_key_map(A, key_fn)
        for e in elements(R, A, rng):
            want = plain(e)
            for _ in range(2):  # the second time from the kept images
                got = fast(e)
                assert got.algebra is A
                assert got.coeffs == want.coeffs, (name, e)
                assert not any(R.is_zero(c) for c in got.coeffs.values()), (name, e)
            images = [key_fn(k) for k in e.coeffs if key_fn(k) is not None]
            merged += len(set(images)) < len(images)
            cancelled += len(want.coeffs) < len(set(images))
    assert merged > 20 and cancelled > 5, (merged, cancelled)


def test_each_key_image_is_computed_once():
    rng = random.Random(6)
    R = GF(4)
    A = CancellativeAlgebra(CancellativeMonoid(Z2, [(1, 0), (0, 1)]), R)
    asked = []

    def key_fn(k):
        asked.append(k)
        return (k[0] % 2, k[1])

    fn = make_key_map(A, key_fn)
    seen = set()
    for e in elements(R, A, rng) * 3:
        fn(e)
        seen.update(e.coeffs)
    assert sorted(asked) == sorted(seen)


# ---------------------------------------------------------------------------
# truncations by level


def level_read(alg, bound):
    """The key lists of truncations 0..bound of a monomial corner on alg as
    the walk reads them, and the keys each degree adds."""
    T = _Truncations("A1", Corner("c", algebra=alg), bound)
    out = []
    for d in range(bound + 1):
        ids, new, nested = T.upto(d)
        assert nested and list(new) == list(range(len(ids) - len(new), len(ids)))
        out.append(([next(iter(T.elems[n].coeffs)) for n in ids],
                    [next(iter(T.elems[n].coeffs)) for n in new]))
    return out


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", MONOIDS, ids=lambda c: c[0])
def test_level_read_truncations_equal_keys_upto(make, case):
    B = 6
    got = level_read(fresh(make, case), B)
    alg = fresh(make, case)
    prev = []
    for d, (keys, new) in enumerate(got):
        want = alg.keys_upto(d)
        assert sorted(keys) == sorted(want) and len(keys) == len(want), (case[0], d)
        assert keys == prev + new, (case[0], d)
        # a degree's new keys come in the order of keys_upto
        assert new == [k for k in want if k in set(new)], (case[0], d)
        prev = keys
    reset_caches()


def test_predicates_run_only_on_the_levels_reached():
    """A walk that stops at degree 1 asks the kill predicate about the keys
    of level <= 1 only, although the corner's list runs to the bound."""
    reset_caches()
    M = CancellativeMonoid(Z2, [(1, 0), (0, 1), (1, 1)])
    asked = []
    alg = MonomialQuotientAlgebra(M, GF(2), lambda k: asked.append(k) or k == (1, 1), "Q")
    T = _Truncations("A2", Corner("c", algebra=alg), 10)
    T.upto(0)
    T.upto(1)
    low = {k for k in CancellativeAlgebra(M, GF(2)).keys_upto(1)}
    assert sorted(asked) == sorted(low)
    assert len(M._cache["key_lists"][None][1]) > 3 * len(low)
    reset_caches()


# ---------------------------------------------------------------------------
# fiber steps


MUL_COUNT = """
import json
from monoidforge import squares
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid
from monoidforge.rings import GF, GaloisField

counts = {"mul": 0, "on": False}
real_mul = GaloisField.mul


def mul(self, a, b):
    counts["mul"] += counts["on"]
    return real_mul(self, a, b)


GaloisField.mul = mul
real_enum = squares._CartesianWalk._new_fiber_elements


def enum(self, ids):
    counts["on"] = True
    try:
        return real_enum(self, ids)
    finally:
        counts["on"] = False


squares._CartesianWalk._new_fiber_elements = enum
out = {}
for budget in (256, 4096):
    M = CancellativeMonoid(AbelianGroupShape(1), [(2,), (3,)])
    sq = squares.build_seminormal_step(M, (1,), GF(4))
    counts["mul"] = 0
    rep = squares.verify_cartesian(sq, degree_bound=10, elementwise_budget=budget)
    checked = [e["elementwise"] for e in rep.per_degree if "elementwise" in e]
    out[budget] = {"ok": rep.ok, "fiber": max(checked), "mul": counts["mul"],
                   "relations": rep.per_degree[-1]["fiber_dim"]}
print(json.dumps(out))
"""


def test_fiber_enumeration_multiplies_per_relation_not_per_element():
    """Over F4, raising the budget from 256 to 4096 enumerates 16 times the
    fiber elements (dimension 4 to 6), while the ring multiplications of
    the enumeration stay below one per 16 fiber elements and less than
    double (they were about three per fiber element, 762 and 11862, when
    every step multiplied its relation's parts)."""
    proc = run_fresh(["-c", MUL_COUNT], timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    small, large = out["256"], out["4096"]
    assert small["ok"] and large["ok"], out
    assert (small["fiber"], large["fiber"]) == (256, 4096), out
    assert large["mul"] < large["fiber"] / 16, out
    assert large["mul"] < 2 * small["mul"], out
