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


def mat_transpose(a: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def mat_sub(a: Matrix, b: Matrix) -> list[list[int]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_equal(a: Matrix, b: Matrix) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


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
    """Basis of the right kernel over Q, one vector per free column."""
    rows = _clear_denominators(m)
    if not rows:
        raise ValueError("kernel of an empty matrix is undefined")
    a, pivots = _bareiss_echelon(rows)
    ncols = len(a[0])
    pivot_cols = {c for _, c in pivots}
    basis: list[list[Fraction]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, pc in reversed(pivots):
            s = Fraction(0)
            for j, c2 in pivots:
                if c2 > pc and a[i][c2] and x[c2]:
                    s += a[i][c2] * x[c2]
            if f > pc and a[i][f]:
                s += a[i][f]
            x[pc] = -s / a[i][pc]
        basis.append(x)
    return basis


def rank(m: Sequence[Sequence[int | Fraction]]) -> int:
    rows = _clear_denominators(m)
    if not rows:
        return 0
    _, pivots = _bareiss_echelon(rows)
    return len(pivots)


def independent_rows(m: Sequence[Sequence[int | Fraction]]) -> list[int]:
    """Indices of the rows that lie outside the span of the rows before them,
    over Q: the pivot columns of the echelon form of the transpose."""
    rows = _clear_denominators(m)
    if not rows:
        return []
    _, pivots = _bareiss_echelon(mat_transpose(rows))
    return [c for _, c in pivots]
