"""Hirzebruch multiplicative sequences and the L-class generator algebra.

The multiplicative sequence attached to an even power series f(x) is the
weight-4i part K_i of prod_k f(x_k) over formal roots, written in the
elementary symmetric functions p_j of the u_k = x_k^2 (weight 4j).  It is
computed without the roots, from one identity used both ways: the log
derivative D of A = 1 + a_1 t + a_2 t^2 + ... (t A'/A = sum_m D_m t^m) turns
products into sums, and the exp step i a_i = sum_{m <= i} D_m a_{i-m}
recovers A.  With log f = sum_m c_m u^m, the product has log derivative
r_m Q_m with r_m = (-1)^{m-1} m c_m, where Q_m = (-1)^{m-1} P_m, the power
sums of the u_k up to sign, is the log derivative of the total class
1 + p_1 t + p_2 t^2 + ... (Newton's identities).  The work grows with the
number of partitions of i, not with the monomials in i roots, and one call
yields K_0..K_count.

The Pontryagin classes in terms of the L-classes run the same steps
backwards: the log derivative of 1 + L_1 t + L_2 t^2 + ..., divided by
r_m (a nonzero multiple of the Bernoulli number B_2m), is that of the total
Pontryagin class, with no triangular inversion and no substitution.

Both run on integers, from the Bernoulli numerators (m+1)! B_m on.  The
log derivative runs on the integers a_j lam^j, lam the lcm of the
denominators, so each scalar r_m is a reduced pair of integers.  Q_m has
integer coefficients, and each a_i is an integer term dict over the one
variable tuple (p_1..p_count or L_1..L_count) with one denominator.  Only
the coefficients `multiplicative_sequence` takes and the classes it
returns hold Fractions: each class becomes a `WeightedPolynomial` once.

The coefficients of x/tanh(x) come from the Bernoulli-number recurrence;
the test suite checks them against sinh/cosh power-series division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graded import WeightedPolynomial


# ---------------------------------------------------------------------------
# coefficients of x/tanh(x)


@lru_cache(maxsize=None)
def _bernoulli_numerators(count: int) -> tuple[int, ...]:
    """(m+1)! B_m for m = 0 .. count, B_1 = -1/2, from sum_{j <= m} C(m+1, j)
    B_j = 0: by von Staudt-Clausen the denominator of B_m is a product of
    primes p <= m + 1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    beta = [1]
    for m in range(1, count + 1):
        total = sum(math.comb(m + 1, j) * math.perm(m + 1, m - j) * b for j, b in enumerate(beta) if b)
        beta.append(-total // (m + 1))
    return tuple(beta)


def _x_over_tanh_pairs(order: int, hat: bool = False) -> list[tuple[int, int]]:
    """The u^j coefficients B_2j 4^j / (2j)! of x/tanh(x), u = x^2, as reduced
    pairs; with ``hat`` those of (x/2)/tanh(x/2), B_2j / (2j)!."""
    beta, f = _bernoulli_numerators(2 * order), math.factorial
    return [_reduced(beta[2 * j] << (0 if hat else 2 * j), f(2 * j + 1) * f(2 * j)) for j in range(order + 1)]


def x_over_tanh_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients of u^j in x/tanh(x) with u = x^2, via Bernoulli numbers."""
    return tuple(Fraction(n, d) for n, d in _x_over_tanh_pairs(order))


# ---------------------------------------------------------------------------
# multiplicative sequences


def _log_derivative(a: list) -> list:
    """D with t (log A)' = sum_m D_m t^m for A = sum_j a_j t^j, a_0 = 1:
    D_0 = 0 and D_m = m a_m - sum_{0<k<m} D_k a_{m-k}."""
    d = [a[0] * 0]
    for m in range(1, len(a)):
        acc = a[m] * m
        for k in range(1, m):
            acc = acc - d[k] * a[m - k]
        d.append(acc)
    return d


def _scaled_log_derivative(pairs: list[tuple[int, int]], count: int) -> tuple[list[int], list[int]]:
    """lam^m and D_m lam^m for m <= count, D the log derivative of the series
    with u^j coefficient n_j / d_j and lam the lcm of the d_j: D_m lam^m is
    `_log_derivative` of the integers a_j lam^j."""
    lam = math.lcm(*(d for _, d in pairs))
    powers = [lam**j for j in range(count + 1)]
    scaled = [n * p // d for (n, d), p in zip(pairs, powers)]
    return powers, _log_derivative(scaled + [0] * (count + 1 - len(scaled)))


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n / d as a pair in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


def _exp_of_scaled_newton(symbol: str, scalars: list[tuple[int, int]]) -> list[WeightedPolynomial]:
    """a_0 = 1, a_1 .. a_count with t (log A)' = sum_m r_m Q_m t^m for the
    scalars r_m = n_m / s_m, as pairs (n_m, s_m), Q_m the log derivative of
    1 + e_1 t + e_2 t^2 + ... with e_j = symbol_j: Q_m = m e_m - sum_{0<k<m}
    Q_k e_{m-k}, where each product only shifts an exponent.  With D the lcm
    of the s_m d_{i-m}, the exp step on numerators N_j = d_j a_j is a_i =
    sum_m n_m (D / (s_m d_{i-m})) Q_m N_{i-m} / (i D).  An exponent vector e
    is keyed as the bytes e_k of an integer: no exponent of a weight at most
    4 count exceeds count < 256, so a product adds keys without carries."""
    count = len(scalars)
    if count > 255:
        raise ValueError("count must be below 256")
    variables = tuple(sorted((f"{symbol}_{j}", 4 * j) for j in range(1, count + 1)))
    place = {name: 256**k for k, (name, _) in enumerate(variables)}
    unit = [0] + [place[f"{symbol}_{j}"] for j in range(1, count + 1)]
    q: list[dict[int, int]] = [{}]
    for m in range(1, count + 1):
        acc = {unit[m]: m}
        for k in range(1, m):
            for key, c in q[k].items():
                key += unit[m - k]
                acc[key] = acc.get(key, 0) - c
        q.append(acc)
    numerators = [{0: 1}]
    denominators = [1]
    for i in range(1, count + 1):
        ratios = [(n, s * d) for (n, s), d in zip(scalars, denominators[::-1])]
        common = math.lcm(*(den for _, den in ratios))
        acc = {}
        for m, (n, den) in enumerate(ratios, 1):
            factor = n * (common // den)
            for ka, ca in q[m].items():
                ca *= factor
                for kb, cb in numerators[i - m].items():
                    kb += ka
                    acc[kb] = acc.get(kb, 0) + ca * cb
        acc = {key: c for key, c in acc.items() if c}
        divisor = math.gcd(i * common, *acc.values())
        numerators.append({key: c // divisor for key, c in acc.items()})
        denominators.append(i * common // divisor)
    return [
        WeightedPolynomial._aligned(
            variables,
            {tuple(key.to_bytes(count, "little")): Fraction(c, d) for key, c in terms.items()},
        )
        for terms, d in zip(numerators, denominators)
    ]


def multiplicative_sequence(
    coefficients: tuple[Fraction, ...], count: int
) -> list[WeightedPolynomial]:
    """K_0 .. K_count of the even series with the given u-coefficients.

    ``coefficients[j]`` is the u^j coefficient (u = x^2) and must start with 1.
    K_i is returned in Pontryagin variables p_1..p_count, with p_j of weight
    4j; only p_1..p_i occur in it.  K is the exp of the termwise product of
    two log derivatives, m c_m of the coefficients and Q_m of the total
    class.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not coefficients or coefficients[0] != 1:
        raise ValueError("the series must have constant term 1")
    pairs = [(x.numerator, x.denominator) for x in map(Fraction, coefficients[: count + 1])]
    powers, d = _scaled_log_derivative(pairs, count)
    return _exp_of_scaled_newton("p", [_reduced((-1) ** (m - 1) * d[m], powers[m]) for m in range(1, count + 1)])


@lru_cache(maxsize=None)
def l_classes(count: int, hat: bool = False) -> tuple[WeightedPolynomial, ...]:
    """L_0 .. L_count in p_1..p_count, from one multiplicative sequence; with
    ``hat``, the classes of (x/2)/tanh(x/2), L-hat_i = 2^{-2i} L_i."""
    coefficients = tuple(Fraction(n, d) for n, d in _x_over_tanh_pairs(count, hat))
    return tuple(multiplicative_sequence(coefficients, count))


@lru_cache(maxsize=None)
def p_classes_in_l(count: int) -> tuple[WeightedPolynomial, ...]:
    """p_0 .. p_count in L_1..L_count: `multiplicative_sequence` backwards,
    the exp of the log derivative Q_m of the total L-class times
    (-1)^{m-1} / (m c_m)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    powers, d = _scaled_log_derivative(_x_over_tanh_pairs(count), count)
    return tuple(_exp_of_scaled_newton("L", [_reduced((-1) ** (m - 1) * powers[m], d[m]) for m in range(1, count + 1)]))


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
    m, odd = divmod(n, 2)
    # the degree-(4i - shift) generator has scalar lead * ratio^i, and
    # (1/2)^{2i-1} = 2 (1/4)^i
    label, shift, lead, ratio = ("qh", 2, 2, Fraction(1, 4)) if odd else ("ph", 0, 1, Fraction(-1, 4))
    entries = tuple(
        IndexMapEntry(f"{label}_{i}", 4 * i - shift, lead * ratio**i, f"kappa_L{i + m}", 4 * (i + m) - 2 * n)
        for i in range(1, n - m + 1)
    )
    return IndexGeneratorMap(n, ("even", "odd")[odd], entries)
