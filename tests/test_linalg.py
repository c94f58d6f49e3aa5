import random
from fractions import Fraction

import pytest

from torelli.linalg import (
    _bareiss_echelon,
    _clear_denominators,
    identity_matrix,
    invert_fraction_matrix,
    kernel_basis,
    mat_equal,
    mat_mul,
    mat_transpose,
)


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rank(m):
    """Rank over Q, by the fraction-free echelon form of the library."""
    rows = _clear_denominators(m)
    return len(_bareiss_echelon(rows)[1]) if rows else 0


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


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        invert_fraction_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


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

