"""Witnesses depend only on the monoid and the element, never on which
earlier calls filled the caches.

A fresh answer is taken after clearing the interning cache
(`monoid._INTERN`, which holds every per-monoid cache); a warmed one after
other queries on the same monoid.  On positive monoids the witness is also checked against a
brute-force rule: the factorization with the fewest generators, and among
those the lexicographically largest coefficient vector.
"""

import contextlib
import io
import json
from itertools import product

from hypothesis import given, settings, strategies as st

from monoidforge import cli, monoid
from monoidforge.lattice import AbelianGroupShape
from monoidforge.monoid import CancellativeMonoid, member

BRUTE_CAP = 4


def reset_caches():
    monoid._INTERN.clear()


def fresh_witness(amb, gens, x):
    reset_caches()
    return member(CancellativeMonoid(amb, gens), x).witness


def combine(coeffs, gens, amb):
    acc = amb.zero()
    for c, g in zip(coeffs, gens):
        acc = amb.add(acc, amb.scale(c, g))
    return acc


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_witness(M, x, cap=BRUTE_CAP):
    """Fewest generators, then the lexicographically largest coefficients."""
    for total in range(cap + 1):
        hits = [
            c for c in compositions(total, len(M.generators))
            if combine(c, M.generators, M.ambient) == x
        ]
        if hits:
            return max(hits)
    return None


def test_roadmap_example_in_both_orders():
    amb = AbelianGroupShape(2)
    gens = [(0, 3), (2, 1), (2, 2), (4, 0)]
    assert fresh_witness(amb, gens, (14, 7)) == (2, 1, 0, 3)
    reset_caches()
    M = CancellativeMonoid(amb, gens)
    assert member(M, (4, 2)).is_yes
    assert member(M, (14, 7)).witness == (2, 1, 0, 3)


@st.composite
def positive_monoids(draw):
    r = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    amb = AbelianGroupShape(r, torsion)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    free = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    gens = draw(st.lists(st.tuples(free, tors).map(lambda p: p[0] + p[1]), min_size=1, max_size=4))
    return amb, gens


@settings(max_examples=100, deadline=None)
@given(positive_monoids(), st.data())
def test_witnesses_do_not_depend_on_query_order(monoid_data, data):
    amb, gens = monoid_data
    M = CancellativeMonoid(amb, gens)
    n = len(M.generators)
    coeffs = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=2, max_size=6))
    targets = [combine(c, M.generators, amb) for c in coeffs]
    order = data.draw(st.permutations(targets))
    reset_caches()
    M = CancellativeMonoid(amb, gens)
    warmed = {x: member(M, x).witness for x in order}
    for x in targets:
        wit = fresh_witness(amb, gens, x)
        assert warmed[x] == wit, (gens, x, order)
        M = CancellativeMonoid(amb, gens)
        assert combine(wit, M.generators, amb) == x
        if sum(wit) <= BRUTE_CAP:
            assert wit == brute_witness(M, x), (gens, x)


def test_lifted_witness_with_units_does_not_depend_on_history():
    amb = AbelianGroupShape(2)
    gens = [(1, 0), (-1, 0), (0, 1), (1, 2)]
    targets = [(5, 7), (-3, 9), (0, 12), (-8, 1)]
    fresh = {x: fresh_witness(amb, gens, x) for x in targets}
    reset_caches()
    M = CancellativeMonoid(amb, gens)
    for x in [(0, 1), (2, 3), (-1, 20)]:
        assert member(M, x).is_yes
    for x in targets:
        wit = member(M, x).witness
        assert wit == fresh[x], x
        assert combine(wit, M.generators, amb) == x


MONOID_FILES = {
    "roadmap.json": {"ambient": {"rank": 2, "torsion": []},
                     "generators": [[0, 3], [2, 1], [2, 2], [4, 0]]},
    "torsion.json": {"ambient": {"rank": 2, "torsion": [2]},
                     "generators": [[1, 0, 1], [1, 2, 0], [2, 1, 0], [0, 3, 1]]},
}
# (an ideal for radical, a radical ideal for primes) per file
IDEALS = {
    "roadmap.json": ("[[4,2]]", "[[2,1],[2,2]]"),
    "torsion.json": ("[[2,2,1]]", "[[1,2,0],[1,3,0],[2,1,0]]"),
}


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0, argv
    return buf.getvalue()


def report_commands(path, name):
    return [
        ["analyze", path],
        ["normalize", path],
        ["seminormalize", path],
        ["faces", path],
        ["ideal", "radical", path, "--ideal", IDEALS[name][0]],
        ["ideal", "primes", path, "--ideal", IDEALS[name][1], "--degree-bound", "8"],
        ["ideal", "filtration", path],
    ]


def test_cli_reports_are_the_same_cold_and_warmed(tmp_path):
    paths = {}
    for name, data in MONOID_FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(json.dumps(data))
    cold = {}
    for name, path in paths.items():
        for argv in report_commands(path, name):
            reset_caches()
            cold[name, tuple(argv)] = cli_stdout(argv)
    reset_caches()
    for name, path in paths.items():
        data = MONOID_FILES[name]
        amb = AbelianGroupShape(data["ambient"]["rank"], tuple(data["ambient"]["torsion"]))
        M = CancellativeMonoid(amb, [tuple(g) for g in data["generators"]])
        for c in product(range(0, 9, 4), repeat=len(M.generators)):
            member(M, combine(c, M.generators, amb))
        inner = combine([1] * len(M.generators), M.generators, amb)
        cli_stdout(["interior", path, "--element", ",".join(map(str, inner))])
    for name, path in reversed(list(paths.items())):
        for argv in reversed(report_commands(path, name)):
            assert cli_stdout(argv) == cold[name, tuple(argv)], argv
