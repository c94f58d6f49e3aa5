"""Exact integer and rational matrix helpers, on one sparse elimination.

Matrices are lists (or tuples) of rows.  `_insert_row` reduces sparse rows
into an echelon form whose pivot rows are monic modulo a prime p, and over Q,
when p is 0, primitive integer rows that a row is reduced against by
cross-multiplication (E. H. Bareiss, Math. Comp. 22, 1968); `_kernel_vectors`
reads the kernel off it.  The invariant oracle runs it modulo p and over Q;
`kernel_basis` and `invert_fraction_matrix` run it over Q, and build a
`Fraction` only for each entry they return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Column = dict[int, int]  # sparse column: row index -> nonzero entry


def _cross(row: Column, q: int, f: int) -> int:
    """Scale the row by q / g in place, g = gcd(q, f), and return f / g: that
    multiple of a pivot row with pivot q then cancels the entry f."""
    g = math.gcd(q, f)
    if q != g:
        for k in row:
            row[k] *= q // g
    return f // g


def _insert_row(pivots: dict[int, Column], row: Column, p: int) -> None:
    """Reduce a row against the pivot rows (none with an entry left of its
    pivot) and keep what is left as a new pivot row: modulo p, monic, with
    entries reduced only once they lead; or over Q, divided by its content."""
    row = dict(row)
    while row:
        c = min(row)
        f = row.pop(c) % p if p else row.pop(c)
        if not f:
            continue
        pivot_row = pivots.get(c)
        if pivot_row is None:
            unit = pow(f, -1, p) if p else math.gcd(f, *row.values())
            new = {c: 1 if p else f // unit}
            for k, x in row.items():
                x = x * unit % p if p else x // unit
                if x:
                    new[k] = x
            pivots[c] = new
            return
        if not p:
            f = _cross(row, pivot_row[c], f)
        get = row.get
        for k, y in pivot_row.items():
            if k != c:
                row[k] = get(k, 0) - f * y


def _kernel_vectors(pivots: dict[int, Column], size: int, p: int) -> list[Column]:
    """One kernel vector per free column, in column order: 1 there, 0 on the
    other free columns, read off the reduced echelon form, modulo p or over Q
    when p is 0, dividing by a row's pivot only as each entry is returned."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # the pivot rows to the right are already reduced: own pivot plus free columns
        for k in [k for k in row if k != c and k in pivots]:
            f = row.pop(k)
            if not p:
                f = _cross(row, pivots[k][k], f)
            for j, y in pivots[k].items():
                if j != k:
                    x = row.get(j, 0) - f * y
                    x = x % p if p else x
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
    vectors = {f: {f: 1} for f in range(size) if f not in pivots}
    for c, row in pivots.items():
        for k, x in row.items():
            if k != c:
                vectors[k][c] = -x % p if p else Fraction(-x, row[c])
    return list(vectors.values())


def _rational_echelon(rows) -> dict[int, Column]:
    """The echelon form over Q of int or Fraction rows, cleared of denominators."""
    pivots: dict[int, Column] = {}
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        _insert_row(pivots, {j: x.numerator * (scale // x.denominator) for j, x in enumerate(row) if x}, 0)
    return pivots


def kernel_basis(m: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, one vector per free column: 1 there
    and 0 at the other free columns."""
    if not m:
        raise ValueError("kernel of an empty matrix is undefined")
    size = len(m[0])
    vectors = _kernel_vectors(_rational_echelon(m), size, 0)
    return [[Fraction(v.get(j, 0)) for j in range(size)] for v in vectors]


def invert_fraction_matrix(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse; raises on a singular input.  The pivots of [a | -I] lie
    in its first n columns exactly when a is invertible, and then the kernel
    vector of free column n + j is (a^-1 e_j, e_j)."""
    n = len(a)
    pivots = _rational_echelon([*row] + [-int(i == j) for j in range(n)] for i, row in enumerate(a))
    if max(pivots, default=-1) >= n:
        raise ValueError("singular matrix")
    vectors, zero = _kernel_vectors(pivots, 2 * n, 0), Fraction(0)
    return [[v.get(i, zero) for v in vectors] for i in range(n)]
