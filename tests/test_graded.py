import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torelli.graded import (
    HilbertSeries,
    WeightedPolynomial,
    format_polynomial,
    free_graded_commutative_series,
    series_pointwise_equal,
)
from torelli.invariants import go_shifted_degrees
from torelli.mt import _kappa_degree_counts, pair_degree_counts

from test_mt import convolve_per_generator


def times_one_minus(series, degree):
    """series times the polynomial 1 - q^degree, truncated; a negative
    coefficient, where the factor does not divide, is refused by
    HilbertSeries."""
    c = list(series.coefficients)
    for i in range(len(c) - 1, degree - 1, -1):
        c[i] -= c[i - degree]
    return HilbertSeries(tuple(c))


def test_free_series_rejects_bad_pairs():
    with pytest.raises(ValueError):
        free_graded_commutative_series([(0, 1)], 4)
    with pytest.raises(ValueError):
        free_graded_commutative_series([(3, -1)], 4)
    # also past the truncation, where the pair adds nothing
    with pytest.raises(ValueError):
        free_graded_commutative_series([(9, -1)], 4)
    with pytest.raises(ValueError):
        free_graded_commutative_series([(2, 1)], -1)


def test_series_validation():
    with pytest.raises(ValueError):
        HilbertSeries(())
    with pytest.raises(ValueError):
        HilbertSeries((2, 1))
    with pytest.raises(ValueError):
        HilbertSeries((1, -1))


def test_free_series_small_frozen():
    # one even generator of degree 2: 1/(1-q^2)
    even = free_graded_commutative_series([(2, 1)], 7)
    assert even.coefficients == (1, 0, 1, 0, 1, 0, 1, 0)
    # one odd generator of degree 3: 1 + q^3
    odd = free_graded_commutative_series([(3, 1)], 7)
    assert odd.coefficients == (1, 0, 0, 1, 0, 0, 0, 0)
    both = free_graded_commutative_series([(2, 1), (3, 1)], 7)
    assert both.coefficients == (1, 0, 1, 1, 1, 1, 1, 1)
    # two odd generators of degree 3: (1 + q^3)^2, and a count of 0
    # adds nothing
    twice = free_graded_commutative_series([(3, 2), (1, 0)], 7)
    assert twice.coefficients == (1, 0, 0, 2, 0, 0, 1, 0)


def _brute_force_series(degrees, max_degree):
    # direct monomial enumeration, one generator per entry of degrees; odd
    # generators are square-zero
    counts = [0] * (max_degree + 1)

    def rec(pos, total):
        if total > max_degree:
            return
        if pos == len(degrees):
            counts[total] += 1
            return
        d = degrees[pos]
        top = 1 if d % 2 else max_degree
        e = 0
        while total + e * d <= max_degree and e <= top:
            rec(pos + 1, total + e * d)
            e += 1

    rec(0, 0)
    return tuple(counts)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=3)),
        min_size=0,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=12),
)
# odd degrees with 2d past the truncation, and a degree listed twice
@example([(7, 2), (5, 3), (2, 2)], 12)
@example([(3, 2), (3, 1), (4, 2)], 12)
# degrees sharing an odd factor, so that m_18 goes negative (step 3); sharing
# the factor 2 (step 2); all past the truncation; all counts 0; truncation 0
@example([(3, 1), (9, 2)], 30)
@example([(2, 2), (6, 1), (10, 3)], 24)
@example([(13, 2)], 12)
@example([(4, 0), (6, 0)], 12)
@example([(1, 2), (4, 1)], 0)
def test_free_series_matches_enumeration(pairs, max_degree):
    series = free_graded_commutative_series(pairs, max_degree)
    degrees = [d for d, count in pairs for _ in range(count)]
    assert series.coefficients == _brute_force_series(degrees, max_degree)


@pytest.mark.parametrize(
    "counts, max_degree",
    [
        # the series of the theoremB job, the counts behind the torelli and
        # mt jobs at n = 24 (both in multiples of 4), and the free model on
        # the odd degrees 4m - 9, whose m_d are nonzero in every degree
        (pair_degree_counts(340, 1000), 1000),
        (sorted(_kappa_degree_counts(24, 220).items()), 220),
        ([(d, 4) for d in go_shifted_degrees(9, 400)], 400),
    ],
)
def test_free_series_matches_the_per_generator_convolution_at_bench_size(counts, max_degree):
    degrees = [d for d, count in counts for _ in range(count)]
    assert free_graded_commutative_series(counts, max_degree).coefficients == (
        convolve_per_generator(degrees, max_degree)
    )


def euler_transform_by_loop(multiplicities, max_degree):
    """The Euler transform n a_n = sum_{k <= n} b_k a_{n-k} summed over the
    whole range for each n: the O((D/s)^2) route that the halving replaced,
    kept as its reference."""
    m = [0] * (max_degree + 1)
    for degree, count in multiplicities:
        if degree <= max_degree:
            m[degree] += count
            if degree % 2 and 2 * degree <= max_degree:
                m[2 * degree] -= count
    step = gcd(*(d for d, c in enumerate(m) if c)) or max_degree + 1
    top = max_degree // step
    b = [0] * (top + 1)
    for e in range(1, top + 1):
        if m[e * step]:
            for k in range(e, top + 1, e):
                b[k] += e * m[e * step]
    a = [1]
    for n in range(1, top + 1):
        a.append(sum(map(operator.mul, b[1 : n + 1], a[n - 1 :: -1])) // n)
    s = [0] * (max_degree + 1)
    s[::step] = a
    return tuple(s)


@st.composite
def _degree_counts(draw):
    # degrees in multiples of a step, odd ones included, so that some m_{2d}
    # and b_k go negative; counts from 0 to 10^6
    step = draw(st.sampled_from([1, 1, 2, 3, 4]))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60).map(lambda d: d * step),
                st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6)),
            ),
            max_size=6,
        )
    )
    return pairs


@settings(max_examples=200, deadline=None)
@given(_degree_counts(), st.integers(min_value=0, max_value=400))
# a_1..a_96 in one run solved term by term, and a_1..a_97, the shortest
# that splits
@example([(1, 1)], 96)
@example([(1, 1)], 97)
@example([(3, 5), (1, 2), (2, 1000000)], 96)
@example([(3, 5), (1, 2), (2, 1000000)], 97)
# negative b past the split, at step 3
@example([(3, 1000000), (9, 7), (15, 0)], 400)
# every count 0; and a_1..a_59 all 0 at step 1, so that the first left
# halves sum to 0
@example([(4, 0), (6, 0)], 400)
@example([(60, 3), (61, 1000000)], 400)
def test_free_series_matches_the_whole_range_loop(pairs, max_degree):
    assert free_graded_commutative_series(pairs, max_degree).coefficients == (
        euler_transform_by_loop(pairs, max_degree)
    )


def test_free_series_matches_the_whole_range_loop_at_the_cap():
    # the theoremB-series request at the series cap: 1497 terms in steps of 4
    counts = pair_degree_counts(8, 5984)
    assert free_graded_commutative_series(counts, 5984).coefficients == (
        euler_transform_by_loop(counts, 5984)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=6),
)
def test_even_factor_cancels(degrees, extra):
    # adding an even generator of degree d then multiplying by (1 - q^d)
    # recovers the original series
    pairs = [(d, 1) for d in degrees]
    base = free_graded_commutative_series(pairs, 12)
    bigger = free_graded_commutative_series(pairs + [(2 * extra, 1)], 12)
    assert times_one_minus(bigger, 2 * extra) == base


def test_times_one_minus_rejects_non_divisible():
    s = free_graded_commutative_series([(3, 1)], 6)
    with pytest.raises(ValueError):
        times_one_minus(s, 3)  # (1+q^3)(1-q^3) has a negative coefficient at 6


def test_pointwise_equal_range_checked():
    a = HilbertSeries((1, 2))
    b = HilbertSeries((1, 2, 3))
    assert series_pointwise_equal(a, b, 1)
    with pytest.raises(ValueError):
        series_pointwise_equal(a, b, 2)


# ---------------------------------------------------------------------------
# weighted polynomials


def _xy():
    return (
        WeightedPolynomial.variable("x", 2),
        WeightedPolynomial.variable("y", 4),
    )


def test_polynomial_arithmetic():
    x, y = _xy()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    q = x * x + y
    assert q.is_homogeneous()
    assert q.weighted_degree() == 4
    assert (q - q).is_zero()
    assert q.coefficient({"x": 2}) == 1
    assert q.coefficient({"y": 1}) == 1
    assert q.coefficient({"x": 1}) == 0


def test_homogeneous_part_and_degrees():
    x, y = _xy()
    p = x ** 3 + y + x
    assert p.weighted_degrees() == {2, 6, 4}
    assert p.homogeneous_part(6) == x ** 3
    assert p.homogeneous_part(4) == y
    assert p.homogeneous_part(8).is_zero()
    with pytest.raises(ValueError):
        p.weighted_degree()


def generators(variables):
    """The constant 1 and then each variable in the order given, all over
    the one shared variable tuple, so that sums and products among them
    need no realignment."""
    width = len(variables)
    return [
        WeightedPolynomial(variables, {tuple(int(k == j) for k in range(width)): 1})
        for j in range(-1, width)
    ]


def _poly(monomials, ring):
    """sum of c * x^a y^b z^c over ring = (1, x, y, z)."""
    one, x, y, z = ring
    out = one * 0
    for c, a, b, e in monomials:
        out = out + x ** a * y ** b * z ** e * Fraction(c, 3)
    return out


_monomials = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(_monomials, _monomials)
@example([(1, 1, 0, 0), (1, 0, 1, 0)], [(1, 1, 0, 0), (-1, 0, 1, 0)])
def test_shared_variable_tuple_matches_merged_route(left, right):
    # generators() puts every operand on one variable tuple, so sums and
    # products skip the merge; one variable at a time takes the merging route
    shared = generators([("x", 2), ("y", 4), ("z", 6)])
    merged = (WeightedPolynomial.constant(1),) + _xy() + (WeightedPolynomial.variable("z", 6),)
    a, b = _poly(left, shared), _poly(right, shared)
    a_m, b_m = _poly(left, merged), _poly(right, merged)
    assert a.variables == shared[0].variables
    for got, want in (
        (a + b, a_m + b_m),
        (a - b, a_m - b_m),
        (a * b, a_m * b_m),
        (a * 0, a_m * 0),
    ):
        assert got == want
        assert format_polynomial(got) == format_polynomial(want)
        assert got.variables == shared[0].variables
        assert all(got.terms.values())  # cancelled terms are dropped


def test_generators_order_and_weights():
    one, y, x = generators([("y", 4), ("x", 2)])
    assert one == 1
    assert (x, y) == _xy()
    assert one.variables == x.variables == y.variables == (("x", 2), ("y", 4))


def test_weight_conflict_rejected():
    x = WeightedPolynomial.variable("x", 2)
    also_x = WeightedPolynomial.variable("x", 4)
    with pytest.raises(ValueError):
        x + also_x


def test_substitute_checks_weights():
    x, y = _xy()
    p = y + x * x
    image = WeightedPolynomial.variable("z", 2)
    assert p.substitute({"x": image, "y": image * image}) == 2 * image ** 2
    with pytest.raises(ValueError):
        p.substitute({"x": image, "y": image})  # wrong weight for y
    with pytest.raises(ValueError):
        p.substitute({"x": image})  # y has no image
    assert p.substitute({"x": 0, "y": image * image}) == image ** 2


def test_polynomial_not_hashable():
    x, _ = _xy()
    with pytest.raises(TypeError):
        hash(x)


def test_format_polynomial_renders_constants_as_fractions():
    assert format_polynomial(WeightedPolynomial.constant(3)) == "3/1"
    assert format_polynomial(WeightedPolynomial.constant(Fraction(-7, 2))) == "-7/2"
    assert format_polynomial(WeightedPolynomial.constant(Fraction(0))) == "0/1"
    assert format_polynomial(WeightedPolynomial((("x", 1),), {(1,): 0})) == "0/1"


def test_format_polynomial_deterministic():
    x, y = _xy()
    p = y * Fraction(-1, 3) + x * x * 2
    assert format_polynomial(p) == "-1/3*y + 2/1*x^2"
    assert format_polynomial(WeightedPolynomial.zero()) == "0/1"
