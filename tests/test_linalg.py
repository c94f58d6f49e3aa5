import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import linalg
from torelli.linalg import invert_fraction_matrix, kernel_basis


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The dense product, one sum per entry; the group code multiplies
    sparse columns instead, and the tests check it against this."""
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_equal(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


# ---------------------------------------------------------------------------
# the independent reference: a dense fraction-free (Bareiss) kernel, with
# Cramer's rule for the back-substitution


def _bareiss_echelon(rows):
    """Fraction-free row echelon form; returns (rows, pivot (row, col) list)."""
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0])
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            # Bareiss update: the division by the previous pivot is exact;
            # the columns before c are already zero below the pivot row
            a[i] = row[:c] + [(x * piv - f * y) // prev for x, y in zip(row[c:], top[c:])]
        prev = piv
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return a, pivots


def _clear_denominators(m):
    rows = []
    for row in m:
        lcm = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * lcm) for x in row])
    return rows


def bareiss_kernel_basis(m):
    """Basis of the right kernel over Q, one vector per free column, with a 1
    at it and 0 at the other free columns.  By Cramer's rule it is integral
    once scaled by the last Bareiss pivot D, the determinant of the pivot
    minor, so the back-substitution runs on the integers D*x, every division
    exact, and divides by D only at the end."""
    a, pivots = _bareiss_echelon(_clear_denominators(m))
    ncols = len(a[0])
    pivot_cols = {c for _, c in pivots}
    d = a[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        y = [0] * ncols
        y[f] = d
        for k in range(len(pivots) - 1, -1, -1):
            i, pc = pivots[k]
            row = a[i]
            s = row[f] * d + sum(row[c2] * y[c2] for _, c2 in pivots[k + 1 :])
            y[pc], rem = divmod(-s, row[pc])
            assert not rem, "Cramer's rule makes the scaled kernel vector integral"
        basis.append([Fraction(v, d) for v in y])
    return basis


def rank(m):
    """Rank over Q, by the reference's fraction-free echelon form."""
    return len(_bareiss_echelon(_clear_denominators(m))[1]) if m else 0


def _random_rational_matrix(rng, rows, cols):
    """Mostly small integers and fractions, with zero rows and repeated or
    combined rows, so that ranks fall short."""
    entry = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))  # noqa: E731
    m = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15 or not m and kind < 0.3:
            m.append([Fraction(0)] * cols)
        elif kind < 0.35 and m:
            a, b = rng.choice(m), rng.choice(m)
            x, y = entry(), entry()
            m.append([x * u + y * v for u, v in zip(a, b)])
        else:
            m.append([entry() if rng.random() < 0.7 else Fraction(0) for _ in range(cols)])
    return m


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_transpose(a) == [[1, 3], [2, 4]]
    assert mat_sub(a, a) == [[0, 0], [0, 0]]
    assert mat_equal(identity_matrix(2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        mat_mul(a, [[1, 2]])


def test_inverse_round_trip():
    a = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    inv = invert_fraction_matrix(a)
    assert mat_equal(mat_mul(a, inv), identity_matrix(2))
    assert mat_equal(mat_mul(inv, a), identity_matrix(2))
    assert invert_fraction_matrix([]) == []
    # random rational matrices that the reference finds invertible
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = _random_rational_matrix(rng, n, n)
        if rank(a) == n:
            inv = invert_fraction_matrix(a)
            assert all(isinstance(x, Fraction) for row in inv for x in row)
            assert mat_equal(mat_mul(a, inv), identity_matrix(n))
            assert mat_equal(mat_mul(inv, a), identity_matrix(n))


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        invert_fraction_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    # random rational matrices that the reference finds singular
    rng = random.Random(20261020)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a = _random_rational_matrix(rng, n, n)
        if rank(a) < n:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                invert_fraction_matrix(a)
    assert singular > 20


def test_kernel_frozen():
    # rank 1, kernel dim 2
    m = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m)
    assert rank(m) == 1


def test_kernel_trivial():
    assert kernel_basis(identity_matrix(3)) == []
    assert rank(identity_matrix(3)) == 3


def test_kernel_accepts_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(x * y for x, y in zip(row, v)) == 0


def test_kernel_random_cross_check():
    # kernel dimension must equal #columns - rank, and every basis vector
    # must be annihilated exactly
    rng = random.Random(20240817)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # independence: stacking the basis as rows must have full rank
        if basis:
            assert rank(basis) == len(basis)


def test_kernel_rejects_empty():
    with pytest.raises(ValueError):
        kernel_basis([])



def test_kernel_basis_matches_the_bareiss_reference():
    # the normalized kernel basis is unique, so the sparse elimination and
    # the dense Bareiss route give the same vectors, in the same order
    rng = random.Random(20261019)
    shapes = [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(240)]
    for rows, cols in shapes:
        m = _random_rational_matrix(rng, rows, cols)
        basis = kernel_basis(m)
        assert basis == bareiss_kernel_basis(m)
        assert len(basis) == cols - rank(m)
        # integer input gives the same basis
        ints = _clear_denominators(m)
        assert kernel_basis(ints) == basis
    assert kernel_basis([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis([[0], [0]]) == [[1]]
    assert kernel_basis([[0], [3]]) == []


# -- the same properties on drawn matrices: int or Fraction entries, with
# zero rows and rows that combine earlier ones, so that singular matrices
# and negative or non-unit pivots all occur

_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 6))),
)


@st.composite
def _matrices(draw, square=False):
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    m = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("dense", "dense", "dense", "zero", "combination")))
        if kind == "zero":
            m.append([draw(st.sampled_from((0, Fraction(0))))] * cols)
        elif kind == "combination" and m:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            x, y = draw(_entries), draw(_entries)
            m.append([x * u + y * v for u, v in zip(a, b)])
        else:
            m.append([draw(_entries) for _ in range(cols)])
    return m


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rational_pivot_rows_are_primitive_integer_rows(m):
    pivots = linalg._rational_echelon(m)
    assert len(pivots) == rank(m)
    for c, row in pivots.items():
        assert min(row) == c and all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_kernel_basis_matches_the_reference_on_drawn_matrices(m):
    basis = kernel_basis(m)
    assert basis == bareiss_kernel_basis(m)
    assert all(type(x) is Fraction for v in basis for x in v)


@settings(max_examples=300, deadline=None)
@given(_matrices(square=True))
def test_inverse_on_drawn_matrices(a):
    n = len(a)
    if rank(a) < n:
        with pytest.raises(ValueError, match="singular matrix"):
            invert_fraction_matrix(a)
        return
    inv = invert_fraction_matrix(a)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert mat_equal(mat_mul(a, inv), identity_matrix(n))
