"""Hirzebruch multiplicative sequences and the L-class generator algebra.

The multiplicative sequence attached to an even power series f(x) is the
weight-4i part K_i of prod_k f(x_k) over formal roots, written in the
elementary symmetric functions p_j of the u_k = x_k^2 (weight 4j).  It is
computed without the roots, from one identity used both ways: the log
derivative D of A = 1 + a_1 t + a_2 t^2 + ... (t A'/A = sum_m D_m t^m) turns
products into sums, and the exp step i a_i = sum_{m <= i} D_m a_{i-m}
recovers A.  With log f = sum_m c_m u^m, the product has log derivative
m c_m P_m, where (-1)^{m-1} P_m, the power sums of the u_k up to sign, is
the log derivative of the total class 1 + p_1 t + p_2 t^2 + ... (Newton's
identities).  The work grows with the number of partitions of i, not with
the monomials in i roots, and one call yields K_0..K_count.

The Pontryagin classes in terms of the L-classes run the same steps
backwards: the log derivative of 1 + L_1 t + L_2 t^2 + ..., divided by
m c_m (a nonzero multiple of the Bernoulli number B_2m), is that of the
total Pontryagin class, with no triangular inversion and no substitution.
All polynomials of one call share one variable tuple (p_1..p_count or
L_1..L_count), so their sums and products need no realignment.

The coefficients of x/tanh(x) come from the Bernoulli-number recurrence;
the test suite checks them against sinh/cosh power-series division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graded import HilbertSeries, WeightedPolynomial, free_graded_commutative_series


# ---------------------------------------------------------------------------
# coefficients of x/tanh(x)


@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_count with B_1 = -1/2."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    b: list[Fraction] = []
    for m in range(count + 1):
        if m == 0:
            b.append(Fraction(1))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return tuple(b)


def x_over_tanh_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients of u^j in x/tanh(x) with u = x^2, via Bernoulli numbers."""
    bern = bernoulli_numbers(2 * order)
    return tuple(
        bern[2 * j] * Fraction(4) ** j / math.factorial(2 * j)
        for j in range(order + 1)
    )


# ---------------------------------------------------------------------------
# multiplicative sequences


def _log_derivative(a: list) -> list:
    """D with t (log A)' = sum_m D_m t^m for A = sum_j a_j t^j, a_0 = 1:
    D_0 = 0 and D_m = m a_m - sum_{0<k<m} D_k a_{m-k}.  The a_j are Fractions
    or polynomials over one shared variable tuple."""
    d = [a[0] * 0]
    for m in range(1, len(a)):
        acc = a[m] * m
        for k in range(1, m):
            acc = acc - d[k] * a[m - k]
        d.append(acc)
    return d


def _exp_from_derivative(d: list, one) -> list:
    """a with a_0 = one and t (log A)' = sum_m d_m t^m, from
    i a_i = sum_{0<m<=i} d_m a_{i-m}; the inverse of `_log_derivative`."""
    a = [one]
    for i in range(1, len(d)):
        acc = one * 0
        for m in range(1, i + 1):
            acc = acc + d[m] * a[i - m]
        a.append(acc * Fraction(1, i))
    return a


def _weight_four_ring(symbol: str, count: int) -> list[WeightedPolynomial]:
    """1 and symbol_1..symbol_count, symbol_j of weight 4j, over one shared
    variable tuple."""
    return WeightedPolynomial.generators(
        [(f"{symbol}_{j}", 4 * j) for j in range(1, count + 1)]
    )


def multiplicative_sequence(
    coefficients: tuple[Fraction, ...], count: int
) -> list[WeightedPolynomial]:
    """K_0 .. K_count of the even series with the given u-coefficients.

    ``coefficients[j]`` is the u^j coefficient (u = x^2) and must start with 1.
    K_i is returned in Pontryagin variables p_1..p_count, with p_j of weight
    4j; only p_1..p_i occur in it.  K is the exp of the termwise product of
    two log derivatives, m c_m of the coefficients and (-1)^{m-1} P_m of the
    total class.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not coefficients or coefficients[0] != 1:
        raise ValueError("the series must have constant term 1")
    a = list(coefficients[: count + 1])
    a += [Fraction(0)] * (count + 1 - len(a))
    dc = _log_derivative(a)
    e = _weight_four_ring("p", count)
    de = _log_derivative(e)
    return _exp_from_derivative(
        [de[0]] + [de[m] * ((-1) ** (m - 1) * dc[m]) for m in range(1, count + 1)],
        e[0],
    )


@lru_cache(maxsize=None)
def l_classes(count: int, hat: bool = False) -> tuple[WeightedPolynomial, ...]:
    """L_0 .. L_count in p_1..p_count, from one multiplicative sequence; with
    ``hat``, the classes of (x/2)/tanh(x/2), L-hat_i = 2^{-2i} L_i."""
    coefficients = x_over_tanh_coefficients(count)
    if hat:
        coefficients = tuple(a / Fraction(4) ** j for j, a in enumerate(coefficients))
    return tuple(multiplicative_sequence(coefficients, count))


@lru_cache(maxsize=None)
def p_classes_in_l(count: int) -> tuple[WeightedPolynomial, ...]:
    """p_0 .. p_count in L_1..L_count: `multiplicative_sequence` backwards,
    the exp of the log derivative m c_m P_m of the total L-class times
    (-1)^{m-1} / (m c_m)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    dc = _log_derivative(list(x_over_tanh_coefficients(count)))
    big_l = _weight_four_ring("L", count)
    dl = _log_derivative(big_l)
    return tuple(
        _exp_from_derivative(
            [dl[0]] + [dl[m] * ((-1) ** (m - 1) / dc[m]) for m in range(1, count + 1)],
            big_l[0],
        )
    )


def l_polynomial(i: int) -> WeightedPolynomial:
    """Hirzebruch L_i, the weight-4i class of x/tanh(x), in p_1..p_i."""
    return l_classes(i, False)[i]


def l_hat_polynomial(i: int) -> WeightedPolynomial:
    """The weight-4i class of (x/2)/tanh(x/2); equals 2^{-2i} L_i."""
    return l_classes(i, True)[i]


def p_in_terms_of_l(i: int) -> WeightedPolynomial:
    """p_i as a polynomial in L_1..L_i."""
    if i < 1:
        raise ValueError("index must be positive")
    return p_classes_in_l(i)[i]


# ---------------------------------------------------------------------------
# generator bookkeeping for the n-connected cover of BSO(2n)


def cover_generator_index_set(n: int) -> range:
    """Indices i with ceil((n+1)/4) <= i <= n."""
    if n < 1:
        raise ValueError("half-dimension n must be positive")
    return range(-((n + 1) // -4), n + 1)


def bso_cover_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the free module on L_i (i in the cover index set) and one
    Euler-type generator of degree 2n whose square is decomposable."""
    polynomial = free_graded_commutative_series(
        ((4 * j, 1) for j in cover_generator_index_set(n)),
        max_degree,
    )
    # rank-two module over the polynomial part: 1 and the Euler-type class
    euler = [int(t == 0 or t == 2 * n) for t in range(max_degree + 1)]
    return polynomial * HilbertSeries(tuple(euler))


def ko_target_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the rational KO-theoretic target ring.

    Polynomial generators sit in degrees 4i for n even, and in one degree per
    residue 2 mod 4 for n odd.
    """
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    first = 4 if n % 2 == 0 else 2
    return free_graded_commutative_series(
        ((d, 1) for d in range(first, max_degree + 1, 4)),
        max_degree,
    )


class IndexMapEntry(
    NamedTuple(
        "IndexMapEntry",
        [
            ("source_label", str),
            ("source_degree", int),
            ("scalar", Fraction),
            ("target_label", str),
            ("target_degree", int),
        ],
    )
):
    __slots__ = ()

    def __new__(
        cls,
        source_label: str,
        source_degree: int,
        scalar: Fraction,
        target_label: str,
        target_degree: int,
    ) -> IndexMapEntry:
        if source_degree != target_degree:
            raise ValueError("index map entries must preserve degree")
        return super().__new__(
            cls, source_label, source_degree, scalar, target_label, target_degree
        )


class IndexGeneratorMap(NamedTuple):
    n: int
    parity: str  # "even" | "odd"
    entries: tuple[IndexMapEntry, ...]


def index_generator_map(n: int) -> IndexGeneratorMap:
    """Action of the family index map on ring generators.

    For n = 2m the degree-4i generator goes to (-1/4)^i kappa_{L_{i+m}}; for
    n = 2m+1 the degree-(4i-2) generator goes to (1/2)^{2i-1} kappa_{L_{i+m}}.
    Entries stop once the L-index leaves the cover index set.
    """
    if n < 1:
        raise ValueError("half-dimension n must be positive")
    m = n // 2
    entries = []
    if n % 2 == 0:
        for i in range(1, n - m + 1):
            entries.append(
                IndexMapEntry(
                    source_label=f"ph_{i}",
                    source_degree=4 * i,
                    scalar=Fraction(-1, 4) ** i,
                    target_label=f"kappa_L{i + m}",
                    target_degree=4 * (i + m) - 2 * n,
                )
            )
        return IndexGeneratorMap(n, "even", tuple(entries))
    for i in range(1, n - m + 1):
        entries.append(
            IndexMapEntry(
                source_label=f"qh_{i}",
                source_degree=4 * i - 2,
                scalar=Fraction(1, 2) ** (2 * i - 1),
                target_label=f"kappa_L{i + m}",
                target_degree=4 * (i + m) - 2 * n,
            )
        )
    return IndexGeneratorMap(n, "odd", tuple(entries))
