"""Exact integer and rational matrix helpers, on one sparse elimination.

Matrices are lists (or tuples) of rows.  `_insert_row` reduces sparse rows
into an echelon form whose pivot rows are monic, modulo a prime p or over Q
when p is 0, and `_kernel_vectors` reads the kernel off it.  The invariant
oracle runs it modulo p and over Q; `kernel_basis` and
`invert_fraction_matrix` run it over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Column = dict[int, int]  # sparse column: row index -> nonzero entry


def _insert_row(pivots: dict[int, Column], row: Column, p: int) -> None:
    """Reduce a row against the pivot rows (each monic in its pivot column,
    with no entry to the left of it) and keep it as a new pivot row if
    anything is left: modulo p, or over Q when p is 0.  Modulo p, entries are
    reduced only once they lead."""
    row = dict(row)
    while row:
        c = min(row)
        f = row.pop(c) % p if p else row.pop(c)
        if not f:
            continue
        pivot_row = pivots.get(c)
        if pivot_row is None:
            inverse = pow(f, -1, p) if p else 1 / Fraction(f)
            new = {c: 1}
            for k, x in row.items():
                x = x * inverse % p if p else x * inverse
                if x:
                    new[k] = x
            pivots[c] = new
            return
        get = row.get
        for k, y in pivot_row.items():
            if k != c:
                row[k] = get(k, 0) - f * y


def _kernel_vectors(pivots: dict[int, Column], size: int, p: int) -> list[Column]:
    """One kernel vector per free column, in column order: 1 there, 0 on the
    other free columns, read off the reduced echelon form, modulo p or over Q
    when p is 0."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # the pivot rows to the right are already reduced: own pivot plus free columns
        for k in [k for k in row if k != c and k in pivots]:
            f = row.pop(k)
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
                vectors[k][c] = -x % p if p else -x
    return list(vectors.values())


def _rational_echelon(rows) -> dict[int, Column]:
    pivots: dict[int, Column] = {}
    for row in rows:
        _insert_row(pivots, {j: x for j, x in enumerate(row) if x}, 0)
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
    """Exact inverse; raises on a singular input.  The pivots of [a | I] lie
    in its first n columns exactly when a is invertible, and then the kernel
    vector of free column n + j is (-a^-1 e_j, e_j)."""
    n = len(a)
    pivots = _rational_echelon([*row] + [int(i == j) for j in range(n)] for i, row in enumerate(a))
    if max(pivots, default=-1) >= n:
        raise ValueError("singular matrix")
    vectors = _kernel_vectors(pivots, 2 * n, 0)
    return [[Fraction(-v.get(i, 0)) for v in vectors] for i in range(n)]
