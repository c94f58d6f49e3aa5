"""Hirzebruch multiplicative sequences and the L-class generator algebra.

The multiplicative sequence attached to an even power series f(x) is the
weight-4i part K_i of prod_k f(x_k) over formal roots, written in the
elementary symmetric functions p_j of the u_k = x_k^2 (weight 4j).  It is
computed without the roots: with log f = sum_m c_m u^m, the product is
exp(sum_m c_m P_m), where the power sums P_m of the u_k come from Newton's
identities in the p_j, and the exponential is taken one weight at a time.
The work grows with the number of partitions of i, not with the monomials in
i roots.  One call yields K_0..K_count, so a request for every class up to
an index runs the recurrence once.  Everything is exact.

The Pontryagin classes in terms of the L-classes run the same steps
backwards.  The log of the total class 1 + L_1 + L_2 + ... is
sum_m c_m P_m, and no c_m vanishes (c_m is a nonzero multiple of the
Bernoulli number B_2m), so each power sum is P_m = l_m / c_m, where l_m is
the weight-4m part of that log.  Newton's identities
i p_i = sum_{m <= i} (-1)^{m-1} p_{i-m} P_m then give p_1..p_count in one
pass, with no triangular inversion and no substitution.  All polynomials of
one call share one variable tuple (p_1..p_count or L_1..L_count), so their
sums and products need no realignment.

The coefficients of x/tanh(x) come from the Bernoulli-number recurrence;
the test suite checks them against sinh/cosh power-series division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


def _series_log(a: list[Fraction]) -> list[Fraction]:
    """c with log(sum_j a_j u^j) = sum_{m>=1} c_m u^m, truncated at len(a); a_0 = 1."""
    c = [Fraction(0)] * len(a)
    for m in range(1, len(a)):
        c[m] = a[m] - sum((k * c[k] * a[m - k] for k in range(1, m)), Fraction(0)) / m
    return c


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
    4j; only p_1..p_i occur in it.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not coefficients or coefficients[0] != 1:
        raise ValueError("the series must have constant term 1")
    a = list(coefficients[: count + 1])
    a += [Fraction(0)] * (count + 1 - len(a))
    c = _series_log(a)
    e = _weight_four_ring("p", count)
    zero = e[0] * 0
    # power sums P_m of the formal roots u_k = x_k^2 in their elementary
    # symmetric functions e_j = p_j, by Newton's identities:
    # P_m = e_1 P_{m-1} - e_2 P_{m-2} + ... + (-1)^{m-1} m e_m
    power_sums = [zero]
    for m in range(1, count + 1):
        acc = e[m] * ((-1) ** (m - 1) * m)
        for j in range(1, m):
            term = e[j] * power_sums[m - j]
            acc = acc + term if j % 2 else acc - term
        power_sums.append(acc)
    # prod_k f(u_k) = exp(S) with S = sum_m c_m P_m; its weight-4i part K_i
    # satisfies i K_i = sum_{m <= i} m c_m P_m K_{i-m}
    scaled = [power_sums[m] * (m * c[m]) for m in range(count + 1)]
    sequence = [e[0]]
    for i in range(1, count + 1):
        acc = zero
        for m in range(1, i + 1):
            if c[m]:
                acc = acc + scaled[m] * sequence[i - m]
        sequence.append(acc * Fraction(1, i))
    return sequence


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
    """p_0 .. p_count in L_1..L_count, by the log of the total L-class.

    log(1 + L_1 + L_2 + ...) = sum_m c_m P_m, with c the log of the x/tanh(x)
    coefficients (no c_m is zero), so the power sums are P_m = l_m / c_m for
    l_m the weight-4m part of the log.  Newton's identities
    i p_i = sum_{m <= i} (-1)^{m-1} p_{i-m} P_m then give every p_i.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    c = _series_log(list(x_over_tanh_coefficients(count)))
    big_l = _weight_four_ring("L", count)
    zero = big_l[0] * 0
    # D_m = m l_m, from the log derivative: D_m = m L_m - sum_{k<m} D_k L_{m-k}
    logs = [zero]
    for m in range(1, count + 1):
        acc = big_l[m] * m
        for k in range(1, m):
            acc = acc - logs[k] * big_l[m - k]
        logs.append(acc)
    # (-1)^{m-1} P_m, the signed terms of Newton's identities
    signed = [zero] + [
        logs[m] * ((-1) ** (m - 1) / (m * c[m])) for m in range(1, count + 1)
    ]
    p = [big_l[0]]
    for i in range(1, count + 1):
        acc = zero
        for m in range(1, i + 1):
            acc = acc + p[i - m] * signed[m]
        p.append(acc * Fraction(1, i))
    return tuple(p)


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


@dataclass(frozen=True)
class IndexMapEntry:
    source_label: str
    source_degree: int
    scalar: Fraction
    target_label: str
    target_degree: int

    def __post_init__(self) -> None:
        if self.source_degree != self.target_degree:
            raise ValueError("index map entries must preserve degree")


@dataclass(frozen=True)
class IndexGeneratorMap:
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
