"""Exact integer and rational matrix helpers.

Matrices are lists (or tuples) of rows.  Kernels are computed fraction-free
(Bareiss), so every intermediate entry is an integer minor and every division
is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt] for row in a
    ]


def invert_fraction_matrix(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises on a singular input."""
    n = len(a)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Fraction-free row echelon form; returns (rows, pivot (row, col) list)."""
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0])
    prev = 1
    r = 0
    pivots: list[tuple[int, int]] = []
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


def _clear_denominators(m: Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    rows = []
    for row in m:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        rows.append([int(x * lcm) if isinstance(x, Fraction) else x * lcm for x in row])
    return rows


def kernel_basis(m: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, one vector per free column.

    The vector of free column f has a 1 at f and 0 at the other free columns.
    By Cramer's rule it is integral once scaled by the last Bareiss pivot D,
    the determinant of the pivot minor, so the back-substitution runs on the
    integers D*x, every division exact, and divides by D only at the end.
    """
    rows = _clear_denominators(m)
    if not rows:
        raise ValueError("kernel of an empty matrix is undefined")
    a, pivots = _bareiss_echelon(rows)
    ncols = len(a[0])
    pivot_cols = {c for _, c in pivots}
    d = a[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    basis: list[list[Fraction]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        y = [0] * ncols
        y[f] = d
        for k in range(len(pivots) - 1, -1, -1):
            i, pc = pivots[k]
            row = a[i]
            s = row[f] * d
            for _, c2 in pivots[k + 1 :]:
                if row[c2] and y[c2]:
                    s += row[c2] * y[c2]
            y[pc], rem = divmod(-s, row[pc])
            if rem:
                raise AssertionError("Cramer's rule makes the scaled kernel vector integral")
        basis.append([Fraction(v, d) for v in y])
    return basis

