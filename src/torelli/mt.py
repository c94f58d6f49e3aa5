"""Stable cohomology series for block-diffeomorphism and Torelli-type rings.

Ring generators are indexed by multi-indices over the cover index set
I = {ceil((n+1)/4), ..., n}: a multi-index i with total weight
w(i) = 4 * sum_j i_j * j contributes a lambda-generator of degree w(i) - 2n
whenever w(i) > 2n, and a mu-generator of degree w(i) whenever w(i) > 0.
All series are free graded-commutative on the surviving generators, so they
are computed from the number of generators in each degree.  Those numbers
are themselves coefficients of a free series, prod_{j in I} 1/(1 - x^{4j}),
so no generator is listed.  `mt_generators` still lists them one by one; the
tests compare the series with a convolution over that list.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .graded import HilbertSeries, free_graded_commutative_series
from .lclasses import cover_generator_index_set


class KappaGenerator(
    NamedTuple(
        "KappaGenerator",
        [
            ("n", int),
            ("exponents", tuple[int, ...]),  # aligned with cover_generator_index_set(n)
            ("with_euler", bool),  # True for mu-generators (Euler-twisted), False for lambda
        ],
    )
):
    """A lambda- or mu-generator indexed by a multi-index over the cover set."""

    __slots__ = ()

    def __new__(cls, n: int, exponents: tuple[int, ...], with_euler: bool) -> KappaGenerator:
        self = super().__new__(cls, n, exponents, with_euler)
        if len(exponents) != len(cover_generator_index_set(n)):
            raise ValueError("exponent vector does not match the index set")
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        if with_euler:
            if self.weight() <= 0:
                raise ValueError("mu-generators need positive weight")
        else:
            if self.weight() <= 2 * n:
                raise ValueError("lambda-generators need weight above 2n")
        return self

    def weight(self) -> int:
        return 4 * sum(
            e * j for e, j in zip(self.exponents, cover_generator_index_set(self.n))
        )

    @property
    def degree(self) -> int:
        w = self.weight()
        return w if self.with_euler else w - 2 * self.n

    @property
    def size(self) -> int:
        """Number of L-factors |i| in the multi-index."""
        return sum(self.exponents)

    @property
    def label(self) -> str:
        kind = "mu" if self.with_euler else "lambda"
        return f"{kind}[{','.join(str(e) for e in self.exponents)}]"


def _multi_indices(index_set: range, max_weight: int):
    """All exponent tuples over index_set with weight 4*sum(e*j) <= max_weight,
    in lexicographic order."""
    indices = list(index_set)

    def rec(pos: int, budget: int, prefix: tuple[int, ...]):
        if pos == len(indices):
            yield prefix
            return
        j = indices[pos]
        for e in range(budget // (4 * j) + 1):
            yield from rec(pos + 1, budget - 4 * j * e, prefix + (e,))

    yield from rec(0, max_weight, ())


def mt_generators(n: int, max_degree: int) -> list[KappaGenerator]:
    """All lambda- and mu-generators of degree between 1 and max_degree."""
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    index_set = cover_generator_index_set(n)
    gens: list[KappaGenerator] = []
    for exps in _multi_indices(index_set, max_degree + 2 * n):
        w = 4 * sum(e * j for e, j in zip(exps, index_set))
        if w > 2 * n and w - 2 * n <= max_degree:
            gens.append(KappaGenerator(n, exps, with_euler=False))
        if 0 < w <= max_degree:
            gens.append(KappaGenerator(n, exps, with_euler=True))
    gens.sort(key=lambda g: (g.degree, g.with_euler, g.exponents))
    return gens


def _kappa_degree_counts(n: int, max_degree: int) -> dict[int, int]:
    """Number of lambda- and mu-generators in each degree 1..max_degree.

    The multi-indices of weight w are counted by the coefficient c[w] of
    prod_{j in I} 1/(1 - x^{4j}); degree d has c[d + 2n] lambda-generators
    and c[d] mu-generators.
    """
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    c = free_graded_commutative_series(
        ((4 * j, 1) for j in cover_generator_index_set(n)), max_degree + 2 * n
    ).coefficients
    return dict(zip(range(1, max_degree + 1), map(add, c[1 : max_degree + 1], c[2 * n + 1 :])))


def mt_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the full stable block-diffeomorphism cohomology ring."""
    counts = _kappa_degree_counts(n, max_degree)
    return free_graded_commutative_series(counts.items(), max_degree)


def torelli_invariant_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the quotient dropping every lambda-generator with |i| = 1."""
    counts = _kappa_degree_counts(n, max_degree)
    # the lambda-generators with |i| = 1 sit one in each single-L degree
    for d in kappa_l_generator_degrees(n):
        if d <= max_degree:
            counts[d] -= 1
    return free_graded_commutative_series(counts.items(), max_degree)


def kappa_ll_pairs(n: int, max_degree: int) -> list[tuple[int, int, int]]:
    """(a, b, degree) for the kappa classes of L_a L_b with
    ceil((n+1)/4) <= a <= b and degree 4(a+b) - 2n in (0, max_degree].

    b is not capped at n, the end of the cover index set: x = 4a - n,
    y = 4b - n maps these pairs one to one onto `stable_pair_degrees`, the
    pairs of degrees of the free model's P, which has a generator in every
    degree 4m - n > 0 with no upper end.
    """
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    top = (max_degree + 2 * n) // 4  # the largest a + b of degree <= max_degree
    return [
        (a, b, 4 * (a + b) - 2 * n)
        for a in range(cover_generator_index_set(n).start, top // 2 + 1)
        for b in range(a, top - a + 1)
        if 4 * (a + b) > 2 * n
    ]


def pair_degree_counts(n: int, max_degree: int) -> list[tuple[int, int]]:
    """(degree, count) for every degree in 1..max_degree that
    `kappa_ll_pairs`, and so `stable_pair_degrees`, reach.

    A degree d comes from the pairs a <= b with a + b = s = (d + 2n)/4 and
    a >= floor(n/4) + 1, the first index of both lists; there are
    floor(s/2) - floor(n/4) of them, when that is positive and s is an integer.
    """
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    counts = []
    for d in range(-2 * n % 4 or 4, max_degree + 1, 4):
        count = (d + 2 * n) // 8 - n // 4
        if count > 0:
            counts.append((d, count))
    return counts


def kappa_ll_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the polynomial ring on the kappa classes of L_a L_b."""
    return free_graded_commutative_series(pair_degree_counts(n, max_degree), max_degree)


def kappa_l_generator_degrees(n: int) -> list[int]:
    """Positive degrees 4i - 2n of the single-L kappa classes, i in the
    cover index set."""
    return [4 * i - 2 * n for i in cover_generator_index_set(n) if 4 * i > 2 * n]


def stable_range(g: int, n: int) -> int | None:
    """Largest C >= 0 with 2C <= g - 3 and 2n >= max(2C + 7, 3C + 4).

    Returns None when no admissible C exists (g < 3 or 2n < 7).
    """
    if g < 1 or n < 1:
        raise ValueError("need g >= 1 and n >= 1")
    if g < 3 or 2 * n < 7:
        return None
    by_genus = (g - 3) // 2
    by_dim = min((2 * n - 7) // 2, (2 * n - 4) // 3)
    return min(by_genus, by_dim)
