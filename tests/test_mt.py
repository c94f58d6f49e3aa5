"""Stable series bookkeeping: generator enumeration, quotients, ranges."""

from collections import Counter

import pytest

from torelli.graded import free_graded_commutative_series, series_pointwise_equal
from torelli.invariants import stable_invariant_series, stable_pair_degrees
from torelli.lclasses import cover_generator_index_set, index_generator_map
from torelli.mt import (
    KappaGenerator,
    kappa_l_generator_degrees,
    kappa_ll_pairs,
    kappa_ll_series,
    mt_generators,
    mt_series,
    pair_degree_counts,
    stable_range,
    torelli_invariant_series,
)


def _expected_generator_count(n, degree):
    # independent enumeration: count multi-indices over the cover index set
    # contributing a lambda generator (weight = degree + 2n) or a mu
    # generator (weight = degree), weights positive multiples of 4
    indices = list(cover_generator_index_set(n))

    def count_weight(w):
        # unbounded knapsack over the index values, one pass per value
        if w <= 0 or w % 4 != 0:
            return 0
        target = w // 4
        ways = [0] * (target + 1)
        ways[0] = 1
        for j in indices:
            for t in range(j, target + 1):
                ways[t] += ways[t - j]
        return ways[target]

    # lambda generators carry weight degree + 2n, mu generators weight degree
    return count_weight(degree + 2 * n) + count_weight(degree)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_generator_counts_match_enumeration(n):
    gens = mt_generators(n, 16)
    for degree in range(1, 17):
        got = sum(1 for g in gens if g.degree == degree)
        assert got == _expected_generator_count(n, degree)


def test_generators_frozen_small():
    labelled = [(g.label, g.degree) for g in mt_generators(3, 4)]
    assert labelled == [
        ("lambda[0,1,0]", 2),
        ("lambda[2,0,0]", 2),
        ("mu[1,0,0]", 4),
    ]


def test_kappa_generator_validation():
    KappaGenerator(3, (2, 0, 0), with_euler=False)  # weight 8 > 6
    with pytest.raises(ValueError):
        KappaGenerator(3, (1, 0, 0), with_euler=False)  # weight 4 <= 6
    with pytest.raises(ValueError):
        KappaGenerator(3, (0, 0, 0), with_euler=True)  # weight 0
    with pytest.raises(ValueError):
        KappaGenerator(3, (1, 0), with_euler=True)  # wrong index set length


def convolve_per_generator(degrees, max_degree):
    """The free series one generator at a time: a geometric factor
    1/(1 - q^d) for each even degree d, a factor 1 + q^d for each odd one."""
    c = [1] + [0] * max_degree
    for d in degrees:
        if d % 2 == 0:
            for i in range(d, max_degree + 1):
                c[i] += c[i - d]
        else:
            for i in range(max_degree, d - 1, -1):
                c[i] += c[i - d]
    return tuple(c)


@pytest.mark.parametrize("n", range(1, 9))
def test_series_match_the_per_generator_convolution(n):
    # 10 and 16 are single-L degrees at n = 5 and n = 8
    for max_degree in (0, 1, 7, 10, 16, 23, 40):
        gens = mt_generators(n, max_degree)
        assert mt_series(n, max_degree).coefficients == convolve_per_generator(
            [g.degree for g in gens], max_degree
        )
        assert torelli_invariant_series(n, max_degree).coefficients == (
            convolve_per_generator(
                [g.degree for g in gens if g.with_euler or g.size >= 2], max_degree
            )
        )
        pairs = kappa_ll_pairs(n, max_degree)
        assert kappa_ll_series(n, max_degree).coefficients == convolve_per_generator(
            [degree for _, _, degree in pairs], max_degree
        )
        omegas = stable_pair_degrees(n, max_degree)
        assert stable_invariant_series(n, max_degree).coefficients == (
            convolve_per_generator([x + y for x, y in omegas], max_degree)
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 30, 340])
def test_pair_degree_counts_match_both_pair_lists(n):
    for max_degree in (0, 1, 2, 7, 40, 101, 1000):
        counts = dict(pair_degree_counts(n, max_degree))
        assert counts == Counter(degree for _, _, degree in kappa_ll_pairs(n, max_degree))
        assert counts == Counter(x + y for x, y in stable_pair_degrees(n, max_degree))
        assert sorted(counts) == [d for d, _ in pair_degree_counts(n, max_degree)]


def test_pair_degree_counts_reject_bad_input():
    for n, max_degree in ((0, 5), (3, -1)):
        with pytest.raises(ValueError):
            pair_degree_counts(n, max_degree)


def test_mt_series_frozen():
    assert mt_series(3, 4).coefficients == (1, 0, 2, 0, 4)
    assert mt_series(2, 8).coefficients == (1, 0, 0, 0, 3, 0, 0, 0, 10)
    assert mt_series(4, 10).coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0)


def test_torelli_series_frozen():
    assert torelli_invariant_series(3, 4).coefficients == (1, 0, 1, 0, 2)
    assert torelli_invariant_series(4, 10).coefficients == (
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0,
    )


def _truncated_product(a, b):
    """The coefficients of the product of two series, up to the shorter."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b))))


def test_torelli_quotient_divides_out_single_l_generators():
    # the full ring is the invariant ring times a polynomial factor on the
    # dropped generators, which all sit in even degree
    for n in (2, 3, 4, 5):
        dropped = [d for d in kappa_l_generator_degrees(n) if d <= 14]
        assert all(d % 2 == 0 for d in dropped)
        factor = free_graded_commutative_series(((d, 1) for d in dropped), 14)
        product = _truncated_product(torelli_invariant_series(n, 14).coefficients, factor.coefficients)
        assert product == mt_series(n, 14).coefficients


def test_kappa_ll_pairs_frozen():
    assert kappa_ll_pairs(3, 8) == [(1, 1, 2), (1, 2, 6)]
    assert kappa_ll_series(3, 8).coefficients == (1, 0, 1, 0, 1, 0, 2, 0, 2)
    assert kappa_ll_series(8, 12).coefficients == (
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
    )


def test_kappa_ll_pairs_stay_in_index_set():
    for n in (3, 4, 8, 13):
        lo = cover_generator_index_set(n).start
        for a, b, degree in kappa_ll_pairs(n, 40):
            assert lo <= a <= b
            assert degree == 4 * (a + b) - 2 * n > 0


@pytest.mark.parametrize("n", [1, 3, 4, 8, 13, 30])
def test_kappa_ll_pairs_biject_onto_stable_pairs(n):
    # past 4(ceil((n+1)/4) + n + 1) - 2n, the first degree with b > n
    lo = cover_generator_index_set(n).start
    max_degree = 4 * (lo + n + 1) - 2 * n + 12
    pairs = kappa_ll_pairs(n, max_degree)
    assert any(b > n for _, b, _ in pairs)
    image = [(4 * a - n, 4 * b - n) for a, b, _ in pairs]
    assert image == stable_pair_degrees(n, max_degree)
    assert [degree for _, _, degree in pairs] == [x + y for x, y in image]


def test_reconciliation_in_the_stable_window():
    # the invariant ring and the pair ring agree in degrees <= min(C, n-3)
    for n in (8, 12, 17, 24):
        c = stable_range(1000, n)
        assert c is not None
        window = min(c, n - 3)
        a = torelli_invariant_series(n, window)
        b = kappa_ll_series(n, window)
        assert series_pointwise_equal(a, b, window)


def test_low_dimensional_failure_is_detected():
    # regression guard: at n = 3 the two series first part ways in degree 4
    a = torelli_invariant_series(3, 4)
    b = kappa_ll_series(3, 4)
    assert series_pointwise_equal(a, b, 3)
    assert a[4] == 2 and b[4] == 1


def test_single_l_degrees():
    assert kappa_l_generator_degrees(5) == [2, 6, 10]
    assert kappa_l_generator_degrees(4) == [4, 8]
    assert kappa_l_generator_degrees(2) == [4]


@pytest.mark.parametrize("n", range(4, 10))
def test_index_map_targets_are_the_single_l_degrees(n):
    targets = [e.target_degree for e in index_generator_map(n).entries]
    assert targets == kappa_l_generator_degrees(n)


def test_stable_range_frozen():
    assert stable_range(25, 23) == 11
    assert stable_range(7, 5) == 1
    assert stable_range(3, 3) is None  # dimension too small
    assert stable_range(2, 23) is None  # genus too small
    assert stable_range(3, 4) == 0
    assert stable_range(100, 8) == 4
    assert stable_range(5, 100) == 1
    with pytest.raises(ValueError):
        stable_range(0, 5)


def test_stable_range_definition():
    # largest C with 2C <= g-3, 2n >= 2C+7 and 2n >= 3C+4
    for g in range(3, 30, 5):
        for n in range(4, 30, 5):
            c = stable_range(g, n)
            if c is None:
                continue
            assert 2 * c <= g - 3
            assert 2 * n >= 2 * c + 7
            assert 2 * n >= 3 * c + 4
            bigger = c + 1
            assert (
                2 * bigger > g - 3
                or 2 * n < 2 * bigger + 7
                or 2 * n < 3 * bigger + 4
            )
