"""lattice.field_eliminate against the two field-elimination loops it
replaced, kept here verbatim as the oracle: the single right-hand-side solve
(formerly algebra.field_solve) and the rank/kernel routine (formerly
squares._field_rank_kernel)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from monoidforge.algebra import field_solve
from monoidforge.lattice import field_eliminate, solve_rational
from monoidforge.rings import GF, QQ


def oracle_field_solve(R, A, b):
    """One solution of A x = b over the field R, or None."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(A[i]) + [b[i]] for i in range(rows)]
    piv = []
    r = 0
    for c in range(cols):
        p = None
        for i in range(r, rows):
            if not R.is_zero(M[i][c]):
                p = i
                break
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = R.inv(M[r][c])
        M[r] = [R.mul(inv, x) for x in M[r]]
        for i in range(rows):
            if i != r and not R.is_zero(M[i][c]):
                f = M[i][c]
                M[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(M[i], M[r])]
        piv.append(c)
        r += 1
    for i in range(r, rows):
        if not R.is_zero(M[i][cols]):
            return None
    x = [R.zero()] * cols
    for i, c in enumerate(piv):
        x[c] = M[i][cols]
    return x


def oracle_rank_kernel(R, A):
    """(rank, kernel basis as column tuples) of A over the field R."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(r) for r in A]
    piv_of_col = [None] * cols
    r = 0
    for c in range(cols):
        p = None
        for i in range(r, rows):
            if not R.is_zero(M[i][c]):
                p = i
                break
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = R.inv(M[r][c])
        M[r] = [R.mul(inv, x) for x in M[r]]
        for i in range(rows):
            if i != r and not R.is_zero(M[i][c]):
                f = M[i][c]
                M[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(M[i], M[r])]
        piv_of_col[c] = r
        r += 1
    kernel = []
    free_cols = [c for c in range(cols) if piv_of_col[c] is None]
    for fc in free_cols:
        v = [R.zero()] * cols
        v[fc] = R.one()
        for c in range(cols):
            if piv_of_col[c] is not None:
                v[c] = R.neg(M[piv_of_col[c]][fc])
        kernel.append(tuple(v))
    return r, kernel


FIELDS = [GF(2), GF(4), GF(5), QQ]


def field_elements(R):
    if R is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.sampled_from(R.elements())


@st.composite
def systems(draw):
    """A field, a 0-6 x 0-6 matrix (low rank half of the time, so that many
    right-hand sides are inconsistent), and up to four right-hand sides: the
    image of a drawn vector under A, or a drawn vector."""
    R = draw(st.sampled_from(FIELDS))
    elem = field_elements(R)
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6)) if rows else 0
    A = [[draw(elem) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # repeat a combination of earlier rows: rank below the row count
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c = draw(elem)
        A[-1] = [R.add(x, R.mul(c, y)) for x, y in zip(A[i], A[j])]
    rhs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x = [draw(elem) for _ in range(cols)]
            rhs.append([_dot(R, row, x) for row in A])
        else:
            rhs.append([draw(elem) for _ in range(rows)])
    return R, A, rhs


def _dot(R, row, x):
    acc = R.zero()
    for a, b in zip(row, x):
        acc = R.add(acc, R.mul(a, b))
    return acc


@settings(max_examples=300, deadline=None)
@given(systems())
def test_field_eliminate_matches_oracle(system):
    R, A, rhs = system
    rank, kernel, sols = field_eliminate(R, A, rhs)
    assert (rank, kernel) == oracle_rank_kernel(R, A)
    assert len(sols) == len(rhs)
    for b, x in zip(rhs, sols):
        want = oracle_field_solve(R, A, b)
        assert x == (None if want is None else tuple(want))
        assert field_solve(R, A, b) == x
        if x is not None:
            assert [_dot(R, row, x) for row in A] == list(b)
    for v in kernel:
        assert all(_dot(R, row, v) == R.zero() for row in A)
    cols = len(A[0]) if A else 0
    assert rank + len(kernel) == cols


def test_inconsistent_and_consistent_right_hand_sides():
    R = GF(5)
    A = [[1, 2], [2, 4]]  # rank 1
    rank, kernel, sols = field_eliminate(R, A, [[1, 2], [1, 3], [0, 0]])
    assert rank == 1 and kernel == [(3, 1)]
    assert sols == [(1, 0), None, (0, 0)]


def test_solve_rational_is_elimination_over_q():
    assert solve_rational([[2, 0], [0, 3]], [1, 1]) == (Fraction(1, 2), Fraction(1, 3))
    assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_rational([[1, 1]], [4]) == (4, 0)
