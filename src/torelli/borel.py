"""Exact root-system combinatorics behind the stability constants.

For the symplectic family C_g the positive roots are a_i + a_j, a_i - a_j
(i < j) and 2a_i, with half-sum rho = sum (g-i+1) a_i; for the split
orthogonal family D_g they are a_i +- a_j (i < j) with rho = sum (g-i) a_i.
The constant attached to a weight mu is the largest q <= qmax such that
rho - mu - eta is a nonzero nonnegative combination of simple roots for every
sum eta of q distinct positive roots; the constant of the k-th tensor power
of the defining representation is the minimum over its weights, the integer
vectors mu with |mu|_1 <= k and |mu|_1 = k mod 2.  Only that minimum is
computed here; the per-weight constant is the reference in tests/test_borel.py.

The sums eta are not enumerated.  The simple-root coordinates f_r are linear,
so f_r(rho - mu - eta) >= 0 for every eta exactly when f_r(rho - mu) is at
least the sum of the q largest values of f_r on the positive roots.  Once
every coordinate passes, rho - mu - eta can vanish only when eta is a sum of
q roots of the greatest height, and only those sums are listed.

Nor are the weights of the tensor power: the smallest f_r(rho - mu) over
them is f_r(rho) - k max_i |f_r(e_i)|, so one scan over q decides them all.
At k = 0 and every rank up to 32, the sums of greatest height that the scan
can list number at most 10 per degree (tests/test_borel.py).

All of it is integer arithmetic.  Roots, simple roots and rho are integer
vectors, and the coordinate rows are the inverse simple-root matrix scaled
by L, the lcm of its denominators.  So every coordinate, top sum and height
is L times its rational value, an integer, and since L > 0 every comparison
between them is the same as between the rational values.  Every positive
root has at most two nonzero entries, and the tables take the coordinates
of the roots from those alone.  `root_system` builds every table once, as
a field of the record, and caches the record per family and rank.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .linalg import invert_fraction_matrix

Vector = tuple[int, ...]


def _top_sums(values: Iterable[int]) -> tuple[int, ...]:
    """t[q] = the sum of the q largest values, for q = 0 .. len(values)."""
    return tuple(itertools.accumulate(sorted(values, reverse=True), initial=0))


class RootSystem(NamedTuple):
    """A root system and its coordinate tables, all built by `root_system`.

    coordinate_rows: the rows f_r of the inverse simple-root matrix, scaled
    by L, the lcm of its denominators, so that f_r(v) is L times the
    coefficient of the r-th simple root in v; coordinate_columns[i][r] =
    f_r(e_i); root_values[r][j] = f_r of the j-th positive root, and
    root_heights[j] its height, the sum of its coordinates; top_sums[r][q]:
    the largest value of f_r on a sum of q distinct positive roots, which is
    the sum of its q largest values on them; top_heights[q] the same for
    the height."""

    family: str  # "C" | "D"
    g: int
    positive_roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    rho: Vector
    coordinate_rows: tuple[Vector, ...]
    coordinate_columns: tuple[Vector, ...]
    rho_coordinates: Vector
    root_values: tuple[Vector, ...]
    root_heights: Vector
    top_sums: tuple[tuple[int, ...], ...]
    top_heights: tuple[int, ...]

    def coordinates(self, v: Sequence[int | Fraction]) -> list[int | Fraction]:
        """[f_r(v) for each r], one column per nonzero entry of v."""
        out = [0] * self.g
        for x, column in zip(v, self.coordinate_columns):
            if x:
                out = [a + x * c for a, c in zip(out, column)]
        return out


@lru_cache(maxsize=None)
def root_system(family: str, g: int) -> RootSystem:
    if g < 2:
        raise ValueError("rank must be at least 2")
    if family not in ("C", "D"):
        raise ValueError("family must be 'C' or 'D'")

    def root(i: int, j: int, sign: int) -> Vector:
        """a_i + sign a_j."""
        v = [0] * g
        v[i] += 1
        v[j] += sign
        return tuple(v)

    pairs = [(i, j, sign) for i in range(g) for j in range(i + 1, g) for sign in (1, -1)]
    simple = tuple(root(i, i + 1, -1) for i in range(g - 1))
    if family == "C":
        pairs += [(i, i, 1) for i in range(g)]
        simple += (root(g - 1, g - 1, 1),)
        rho = tuple(g - i for i in range(g))
        expected = g * g
    else:
        simple += (root(g - 2, g - 1, 1),)
        rho = tuple(g - i - 1 for i in range(g))
        expected = g * (g - 1)
    positive = tuple(root(*pair) for pair in pairs)
    if len(positive) != expected:
        raise AssertionError("positive root count mismatch")
    double_rho = tuple(2 * x for x in rho)
    if tuple(map(sum, zip(*positive))) != double_rho:
        raise AssertionError("2*rho must equal the sum of the positive roots")
    inverse = invert_fraction_matrix([[root[i] for root in simple] for i in range(g)])
    scale = math.lcm(*(x.denominator for row in inverse for x in row))
    rows = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in inverse)
    columns = tuple(zip(*rows))
    # f(a_i + sign a_j) = f(e_i) + sign f(e_j), and f(2 a_i) = 2 f(e_i)
    values = [tuple(map(add if sign > 0 else sub, columns[i], columns[j])) for i, j, sign in pairs]
    heights = tuple(map(sum, values))
    root_values = tuple(zip(*values))
    rho_coordinates = tuple(sum(map(mul, row, rho)) for row in rows)
    top_sums, top_heights = tuple(map(_top_sums, root_values)), _top_sums(heights)
    rs = RootSystem(
        family, g, positive, simple, rho, rows, columns, rho_coordinates, root_values, heights, top_sums, top_heights
    )
    for root in positive:
        if not is_positive_combination(root, rs):
            raise AssertionError("positive root outside the simple cone")
    return rs


def is_positive_combination(v: Sequence[int | Fraction], rs: RootSystem) -> bool:
    """True when v is nonzero and a nonnegative rational combination of the
    simple roots."""
    return any(v) and min(rs.coordinates(v)) >= 0


# not called here, where no sum of roots is listed but the tallest; kept
# importable because bench/layers.py traces calls at this name
def weights_of_exterior_power(rs: RootSystem, q: int) -> Iterator[Vector]:
    """Sums of q distinct positive roots (with repetition of values allowed)."""
    if q < 0:
        raise ValueError("exterior power degree must be nonnegative")
    if q > len(rs.positive_roots):
        return
    zero = (0,) * rs.g
    for subset in itertools.combinations(rs.positive_roots, q):
        yield tuple(map(sum, zip(*subset))) if subset else zero


def tallest_root_sums(rs: RootSystem, q: int) -> Iterator[Vector]:
    """The sums of q distinct positive roots whose height is top_heights[q],
    the greatest: every root above the q-th largest height h, and each choice
    of the rest among the roots at height h."""
    if q == 0:
        yield (0,) * rs.g
        return
    h = rs.top_heights[q] - rs.top_heights[q - 1]
    above = [root for root, height in zip(rs.positive_roots, rs.root_heights) if height > h]
    tied = [root for root, height in zip(rs.positive_roots, rs.root_heights) if height == h]
    base = tuple(map(sum, zip(*above))) if above else (0,) * rs.g
    for subset in itertools.combinations(tied, q - len(above)):
        yield tuple(map(sum, zip(base, *subset)))


class BorelConstant(NamedTuple):
    """value=None: the cone test fails even with no roots subtracted.
    capped=True: the test still passed at the search cap, so the true
    constant is at least value."""

    value: int | None
    capped: bool = False

    def meets(self, bound: int) -> bool:
        return self.value is not None and self.value >= bound


def _scan(rs: RootSystem, qmax: int, fails: Callable[[int], bool]) -> BorelConstant:
    """The largest q <= qmax with no failing degree q' <= q.  The scan
    ascends and stops at the first failing q': above the positive root count
    the per-degree test is vacuously true, so a descending scan would skip
    over genuine failures."""
    best: int | None = None
    for q in range(min(qmax, len(rs.positive_roots)) + 1):
        if fails(q):
            break
        best = q
    else:  # the degrees above the positive root count pass vacuously
        best = qmax
    if best is None:
        return BorelConstant(None)
    return BorelConstant(best, capped=(best == qmax))


def borel_constant_rep(rs: RootSystem, k: int, qmax: int) -> BorelConstant:
    """The constant of the k-th tensor power of the defining representation:
    the minimum of the per-weight constants over its weights, with no weight
    listed.

    It is one less than the first degree q that some weight fails.  f_r is
    linear, and a weight mu = +-k e_i reaches its largest value k |f_r(e_i)|
    on them, so every weight passes the coordinate test at q when each
    f_r(rho) - k max_i |f_r(e_i)| reaches top_sums[r][q].  Then a weight mu
    fails q only when rho - mu is a sum eta of q distinct positive roots,
    where every f_r(eta) is its largest, top_sums[r][q], so eta has the
    greatest height of any q roots; those sums are listed, asking whether
    rho - eta is a weight.
    """
    if k < 0 or qmax < 0:
        raise ValueError("k and qmax must be nonnegative")
    lows = [v - k * max(map(abs, row)) for v, row in zip(rs.rho_coordinates, rs.coordinate_rows)]

    def is_weight(v: Vector) -> bool:
        size = sum(map(abs, v))
        return size <= k and (k - size) % 2 == 0

    def fails(q: int) -> bool:
        if any(low < top[q] for low, top in zip(lows, rs.top_sums)):
            return True
        return any(is_weight(tuple(r - e for r, e in zip(rs.rho, eta))) for eta in tallest_root_sums(rs, q))

    return _scan(rs, qmax, fails)


def representation_bound(family: str, g: int, k: int) -> int:
    """The proved lower bound for the constant of the k-th tensor power."""
    if family == "C":
        return g - 1 - k
    if family == "D":
        return g - 2 - k
    raise ValueError("family must be 'C' or 'D'")


def lform_inequality_check(g: int, k: int, q: int) -> bool:
    """Exact evaluation of the dominance certificate
    (g-k-q-1) a_1 + sum_{i=2}^{g} (g-i+1) a_i - sum_{i=2}^{q} a_i > 0
    at a_1 = R, a_j = R^{-j} with R = 2^{10g}, times R^g so that every term
    is an integer."""
    if g < 2 or k < 0 or not (0 <= q < g):
        raise ValueError("need g >= 2, k >= 0 and 0 <= q < g")
    r = 2 ** (10 * g)
    expr = (g - k - q - 1) * r ** (g + 1)
    expr += sum((g - i + 1) * r ** (g - i) for i in range(2, g + 1))
    expr -= sum(r ** (g - i) for i in range(2, q + 1))
    return expr > 0
