"""L-class engine tests.

The library builds multiplicative sequences from one log derivative and one
exp: the log derivative of the product is that of the coefficient series
times that of the total Pontryagin class (Newton's identities).  The oracle here takes the
classical route instead: expand the product over formal even roots and
eliminate through elementary symmetric functions.  Its cost grows about
sevenfold per index, so it stops at index 7; beyond it the classes are
checked by evaluation at the elementary symmetric functions of rational
roots.  Frozen values pin the classical low-degree classes.

The library inverts the L-classes by the same two steps backwards; the oracle here is triangular inversion, solving L_i for its
p_i term and substituting the lower p_j(L) into the rest.

The library runs both on integer numerators.  A third route runs the same
log derivative and exp steps on `WeightedPolynomial` coefficients, in
Fractions throughout, and must give equal classes at every count.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.graded import WeightedPolynomial, format_polynomial
from torelli.lclasses import (
    IndexMapEntry,
    _bernoulli_numerators,
    cover_generator_index_set,
    index_generator_map,
    l_classes,
    l_hat_polynomial,
    l_polynomial,
    multiplicative_sequence,
    p_classes_in_l,
    p_in_terms_of_l,
    x_over_tanh_coefficients,
    _log_derivative,
)

from test_graded import generators


# ---------------------------------------------------------------------------
# oracle: x/tanh(x) by power-series division


def _series_divide(num, den):
    if den[0] == 0:
        raise ValueError("division by a series with zero constant term")
    out = []
    for n in range(len(num)):
        acc = num[n]
        for k in range(n):
            acc -= out[k] * den[n - k]
        out.append(acc / den[0])
    return out


def x_over_tanh_by_division(order):
    """The coefficients of u^j in x/tanh(x), u = x^2, by sinh/cosh
    power-series division only."""
    sinh_over_x = [Fraction(1, math.factorial(2 * j + 1)) for j in range(order + 1)]
    cosh = [Fraction(1, math.factorial(2 * j)) for j in range(order + 1)]
    tanh_over_x = _series_divide(sinh_over_x, cosh)
    one = [Fraction(int(j == 0)) for j in range(order + 1)]
    return tuple(_series_divide(one, tanh_over_x))


# ---------------------------------------------------------------------------
# oracle: expansion over formal roots

CHERN_ROOT_LIMIT = 7


def _conjugate_partition(parts):
    nonzero = [p for p in parts if p]
    if not nonzero:
        return ()
    return tuple(
        sum(1 for p in nonzero if p >= j) for j in range(1, nonzero[0] + 1)
    )


def _expand_elementary_product(parts, nvars):
    # monomials of e_{parts[0]} e_{parts[1]} ... in nvars variables
    prod = {(0,) * nvars: 1}
    for level in parts:
        nxt = {}
        for exps, c in prod.items():
            for subset in itertools.combinations(range(nvars), level):
                key = list(exps)
                for k in subset:
                    key[k] += 1
                key = tuple(key)
                nxt[key] = nxt.get(key, 0) + c
        prod = nxt
    return prod


def _to_elementary(part, nvars):
    """A symmetric polynomial as a polynomial in e_1..e_nvars, by
    leading-monomial elimination: the lex-largest exponent vector of a
    symmetric polynomial is a partition, and it is the leading term of the
    elementary product indexed by its conjugate."""
    work = {k: v for k, v in part.items() if v}
    out = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        assert all(lead[i] >= lead[i + 1] for i in range(len(lead) - 1))
        conj = _conjugate_partition(lead)
        key = [0] * nvars
        for p in conj:
            key[p - 1] += 1
        out[tuple(key)] = out.get(tuple(key), Fraction(0)) + coeff
        for exps, c in _expand_elementary_product(conj, nvars).items():
            got = work.get(exps, Fraction(0)) - coeff * c
            if got:
                work[exps] = got
            else:
                work.pop(exps, None)
    return {k: v for k, v in out.items() if v}


def sequence_by_chern_roots(coefficients, count):
    """K_0..K_count of the even series, by expanding prod_k f(x_k) over count
    formal roots; the weight-i part in the u_k = x_k^2 is rewritten in the
    elementary symmetric functions p_j."""
    assert count <= CHERN_ROOT_LIMIT, "the root expansion grows about 7x per index"
    n = count
    prod = {(0,) * n: Fraction(1)}
    for k in range(n):
        nxt = {}
        for exps, c in prod.items():
            total = sum(exps)
            for j, aj in enumerate(coefficients[: n + 1]):
                if total + j > n:
                    break
                key = exps[:k] + (j,) + exps[k + 1 :]
                nxt[key] = nxt.get(key, Fraction(0)) + c * aj
        prod = {e: c for e, c in nxt.items() if c}
    variables = tuple((f"p_{j}", 4 * j) for j in range(1, n + 1))
    sequence = [WeightedPolynomial.constant(1)]
    for i in range(1, n + 1):
        layer = {exps: c for exps, c in prod.items() if sum(exps) == i}
        sequence.append(WeightedPolynomial(variables, _to_elementary(layer, n)))
    return sequence


def _p(i):
    return WeightedPolynomial.variable(f"p_{i}", 4 * i)


def test_two_routes_agree_up_to_six():
    coeffs = x_over_tanh_coefficients(6)
    oracle = sequence_by_chern_roots(coeffs, 6)
    for i in range(7):
        assert l_polynomial(i) == oracle[i]


def test_routes_agree_on_a_second_series():
    # a(u) = 1 + u has K_i = p_i on the nose, for both constructions
    coeffs = (Fraction(1), Fraction(1))
    roots = sequence_by_chern_roots(coeffs, 4)
    newton = multiplicative_sequence(coeffs, 4)
    for i in range(1, 5):
        assert roots[i] == _p(i)
        assert newton[i] == _p(i)


def test_routes_agree_on_a_dense_series():
    # every coefficient nonzero, so no term of either expansion drops out
    coeffs = (Fraction(1),) + tuple(Fraction((-1) ** j * (j + 2), j + 1) for j in range(1, 6))
    assert multiplicative_sequence(coeffs, 5) == sequence_by_chern_roots(coeffs, 5)


def _evaluate(poly, values):
    """poly at p_j = values[j]."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = c
        for (name, _), e in zip(poly.variables, exps):
            term *= values[int(name.split("_")[1])] ** e
        total += term
    return total


def _product_coefficient(a, roots, i):
    """The t^i coefficient of prod_k f(t u_k), f(u) = sum_j a_j u^j, as a
    univariate series in t."""
    prod = [Fraction(1)] + [Fraction(0)] * i
    for u in roots:
        factor = [a[j] * u ** j for j in range(i + 1)]
        prod = [sum(prod[m] * factor[n - m] for m in range(n + 1)) for n in range(i + 1)]
    return prod[i]


@pytest.mark.parametrize("i", [10, 12])
def test_classes_beyond_the_oracle_by_evaluation(i):
    # p_j = e_j(u) at i rational roots u_k; K_i(e(u)) is then the weight-i
    # part of prod_k f(u_k), the t^i coefficient of prod_k f(t u_k)
    roots = [Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(i)]
    elementary = [Fraction(1)] + [Fraction(0)] * i
    for u in roots:
        elementary = [elementary[0]] + [
            elementary[j] + u * elementary[j - 1] for j in range(1, i + 1)
        ]
    a = x_over_tanh_by_division(i)
    a_hat = tuple(x / Fraction(4) ** j for j, x in enumerate(a))
    assert _evaluate(l_polynomial(i), elementary) == _product_coefficient(a, roots, i)
    assert _evaluate(l_hat_polynomial(i), elementary) == _product_coefficient(
        a_hat, roots, i
    )


# ---------------------------------------------------------------------------
# coefficient series


def bernoulli_numbers(count):
    """B_0 .. B_count with B_1 = -1/2, from the library's numerators
    (m+1)! B_m."""
    return tuple(Fraction(b, math.factorial(m + 1)) for m, b in enumerate(_bernoulli_numerators(count)))


def test_bernoulli_frozen():
    b = bernoulli_numbers(12)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)
    assert b[10] == Fraction(5, 66)
    assert b[12] == Fraction(-691, 2730)
    assert all(b[k] == 0 for k in (3, 5, 7, 9, 11))


def test_x_over_tanh_frozen():
    a = x_over_tanh_coefficients(5)
    assert a == (
        Fraction(1),
        Fraction(1, 3),
        Fraction(-1, 45),
        Fraction(2, 945),
        Fraction(-1, 4725),
        Fraction(2, 93555),
    )


def test_x_over_tanh_division_route_matches():
    # sinh/cosh power-series division vs the Bernoulli recurrence
    assert x_over_tanh_by_division(8) == x_over_tanh_coefficients(8)


# ---------------------------------------------------------------------------
# frozen classes


def test_l_polynomials_frozen():
    assert l_polynomial(0) == WeightedPolynomial.constant(1)
    assert l_polynomial(1) == _p(1) * Fraction(1, 3)
    assert l_polynomial(2) == (_p(2) * 7 - _p(1) ** 2) * Fraction(1, 45)
    assert l_polynomial(3) == (
        _p(3) * 62 - _p(1) * _p(2) * 13 + _p(1) ** 3 * 2
    ) * Fraction(1, 945)
    assert l_polynomial(4) == (
        _p(4) * 381
        - _p(1) * _p(3) * 71
        - _p(2) ** 2 * 19
        + _p(1) ** 2 * _p(2) * 22
        - _p(1) ** 4 * 3
    ) * Fraction(1, 14175)


def test_l_class_rendering():
    assert format_polynomial(l_polynomial(1)) == "1/3*p_1"
    assert format_polynomial(l_polynomial(2)) == "7/45*p_2 + -1/45*p_1^2"


@pytest.mark.parametrize("i", range(9))
def test_hat_identity(i):
    # L_i = 2^{2i} * Lhat_i, exactly
    assert l_polynomial(i) == l_hat_polynomial(i) * Fraction(4) ** i


@pytest.mark.parametrize("i", range(1, 13))
def test_top_coefficient_nonzero(i):
    # makes the triangular inversion well defined
    assert l_polynomial(i).coefficient({f"p_{i}": 1}) != 0


@lru_cache(maxsize=None)
def p_by_inversion(i):
    """p_i in L_1..L_i by triangular inversion: L_i = lead * p_i + rest(p_1..p_{i-1}),
    so p_i = (L_i - rest(p_1(L), .., p_{i-1}(L))) / lead."""
    lp = l_polynomial(i)
    lead = lp.coefficient({f"p_{i}": 1})
    rest = lp - lead * _p(i)
    images = {f"p_{j}": p_by_inversion(j) for j in range(1, i)}
    images[f"p_{i}"] = WeightedPolynomial.zero()  # rest has no p_i
    l_i = WeightedPolynomial.variable(f"L_{i}", 4 * i)
    return (l_i - rest.substitute(images)) * (Fraction(1) / lead)


@pytest.mark.parametrize("i", range(1, 13))
def test_p_from_l_matches_triangular_inversion(i):
    got = p_in_terms_of_l(i)
    assert got == p_by_inversion(i)
    assert format_polynomial(got) == format_polynomial(p_by_inversion(i))
    assert p_classes_in_l(12)[i] == got


def test_log_coefficients_closed_form():
    # log(x/tanh x) = log cosh x - log(sinh x / x) = sum c_m u^m; the log
    # derivative is m c_m, the inversion divides by every one of them, and
    # B_{2m} != 0 keeps them all nonzero
    d = _log_derivative(list(x_over_tanh_coefficients(12)))
    b = bernoulli_numbers(24)
    assert d[0] == 0
    for m in range(1, 13):
        assert d[m] == Fraction(4**m * (4**m - 2)) * b[2 * m] / (2 * math.factorial(2 * m))
        assert d[m] != 0


# ---------------------------------------------------------------------------
# oracle: the log derivative and exp steps on polynomial coefficients


def _exp_from_derivative(d, one):
    """a with a_0 = one and t (log A)' = sum_m d_m t^m, from
    i a_i = sum_{0<m<=i} d_m a_{i-m}; the inverse of `_log_derivative`."""
    a = [one]
    for i in range(1, len(d)):
        acc = one * 0
        for m in range(1, i + 1):
            acc = acc + d[m] * a[i - m]
        a.append(acc * Fraction(1, i))
    return a


def exp_of_scaled_log_derivative(symbol, scalars):
    """1 + a_1 t + ... whose log derivative is scalars[m] times that of
    1 + symbol_1 t + symbol_2 t^2 + ..., by polynomial products over one
    shared variable tuple."""
    count = len(scalars) - 1
    e = generators([(f"{symbol}_{j}", 4 * j) for j in range(1, count + 1)])
    de = _log_derivative(e)
    return _exp_from_derivative([de[0]] + [de[m] * scalars[m] for m in range(1, count + 1)], e[0])


def l_classes_by_polynomials(count, hat):
    a = x_over_tanh_coefficients(count)
    if hat:
        a = tuple(x / Fraction(4) ** j for j, x in enumerate(a))
    dc = _log_derivative(list(a))
    return exp_of_scaled_log_derivative("p", [0] + [(-1) ** (m - 1) * dc[m] for m in range(1, count + 1)])


def p_classes_by_polynomials(count):
    dc = _log_derivative(list(x_over_tanh_coefficients(count)))
    return exp_of_scaled_log_derivative("L", [0] + [(-1) ** (m - 1) / dc[m] for m in range(1, count + 1)])


@pytest.mark.parametrize("count", range(13))
def test_integer_route_matches_the_polynomial_route(count):
    for got, want in (
        (l_classes(count), l_classes_by_polynomials(count, False)),
        (l_classes(count, True), l_classes_by_polynomials(count, True)),
        (p_classes_in_l(count), p_classes_by_polynomials(count)),
    ):
        assert len(got) == len(want) == count + 1
        for k, expected in zip(got, want):
            assert k.variables == expected.variables
            assert k == expected
            assert format_polynomial(k) == format_polynomial(expected)
            assert all(type(c) is Fraction for c in k.terms.values())


def test_classes_need_no_polynomial_products(monkeypatch):
    # the classes are built from integer term dicts, never by
    # WeightedPolynomial.mul; clear the caches so that they are recomputed
    want = (l_classes(12), l_classes(12, True), p_classes_in_l(12))

    def refuse(*args, **kwargs):
        raise AssertionError("WeightedPolynomial.mul called")

    monkeypatch.setattr(WeightedPolynomial, "mul", refuse)
    l_classes.cache_clear()
    p_classes_in_l.cache_clear()
    got = (l_classes(12), l_classes(12, True), p_classes_in_l(12))
    for classes, expected in zip(got, want):
        assert classes is not expected
        assert list(classes) == list(expected)


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
)


def test_classes_need_no_fraction_arithmetic(monkeypatch):
    # from the Bernoulli numerators to the exp step everything runs on
    # integers: Fractions are only built and compared
    want = (l_classes(12), l_classes(12, True), p_classes_in_l(12))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    with monkeypatch.context() as patch:
        for name in _FRACTION_ARITHMETIC:
            patch.setattr(Fraction, name, refuse)
        with pytest.raises(AssertionError):
            Fraction(1, 3) + 1
        l_classes.cache_clear()
        p_classes_in_l.cache_clear()
        got = (l_classes(12), l_classes(12, True), p_classes_in_l(12))
    for classes, expected in zip(got, want):
        assert classes is not expected
        assert list(classes) == list(expected)


# even series with constant term 1: signed rational coefficients, zeros
# among them, denominators up to 10^6, fewer or more terms than the count
_random_series = st.tuples(
    st.integers(0, 8),
    st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(-1000, 1000, max_denominator=10**6)),
        max_size=9,
    ),
)


@settings(max_examples=60, deadline=None)
@given(_random_series)
def test_random_series_match_both_oracles(drawn):
    # the lcm scaling of the log derivative on series other than x/tanh(x)
    count, tail = drawn
    coefficients = (Fraction(1), *tail)
    got = multiplicative_sequence(coefficients, count)
    a = list(coefficients[: count + 1]) + [Fraction(0)] * (count + 1 - len(coefficients))
    dc = _log_derivative(a)
    assert got == exp_of_scaled_log_derivative("p", [0] + [(-1) ** (m - 1) * dc[m] for m in range(1, count + 1)])
    if count <= 5:
        assert got == sequence_by_chern_roots(coefficients, count)


def test_log_derivative_and_exp_are_inverse():
    # scalars: exp of u is sum u^i / i!, whose log derivative is u
    assert _log_derivative([Fraction(1, math.factorial(i)) for i in range(8)]) == [0, 1] + [0] * 6
    assert _exp_from_derivative([0, 1] + [0] * 6, Fraction(1)) == [
        Fraction(1, math.factorial(i)) for i in range(8)
    ]
    # polynomials over one shared tuple: 1 + e_1 t + e_2 t^2 + ... round trips
    e = generators([(f"e_{j}", j) for j in range(1, 7)])
    d = _log_derivative(e)
    assert d[0].is_zero() and d[1] == e[1]
    assert d[2] == e[2] * 2 - e[1] * e[1]  # -P_2 = 2 e_2 - e_1^2
    assert _exp_from_derivative(d, e[0]) == e


@pytest.mark.parametrize("hat", [False, True])
def test_one_sequence_per_request(hat):
    # the tuple a request formats equals the top class of the sequence
    # computed for that index alone
    coefficients = x_over_tanh_coefficients(12)
    if hat:
        coefficients = tuple(a / Fraction(4) ** j for j, a in enumerate(coefficients))
    classes = l_classes(12, hat)
    assert len(classes) == 13
    assert len({k.variables for k in classes}) == 1  # one shared tuple
    for i in range(13):
        alone = multiplicative_sequence(coefficients[: i + 1], i)[i]
        assert classes[i] == alone
        assert format_polynomial(classes[i]) == format_polynomial(alone)


def test_p_from_l_frozen():
    l1 = WeightedPolynomial.variable("L_1", 4)
    l2 = WeightedPolynomial.variable("L_2", 8)
    assert p_in_terms_of_l(1) == l1 * 3
    assert p_in_terms_of_l(2) == (l2 * 45 + l1 ** 2 * 9) * Fraction(1, 7)


@pytest.mark.parametrize("i", range(1, 7))
def test_p_from_l_round_trip(i):
    # substituting L_j -> L_j(p) back into p_i(L) recovers the variable p_i
    images = {f"L_{j}": l_polynomial(j) for j in range(1, i + 1)}
    assert p_in_terms_of_l(i).substitute(images) == _p(i)


@pytest.mark.parametrize("i", range(1, 7))
def test_l_in_terms_of_p_round_trip(i):
    images = {f"p_{j}": p_in_terms_of_l(j) for j in range(1, i + 1)}
    assert l_polynomial(i).substitute(images) == WeightedPolynomial.variable(
        f"L_{i}", 4 * i
    )


def test_whitney_multiplicativity_on_split_data():
    # total L of a direct sum is the product of total L-classes; evaluated
    # on concrete rational Pontryagin vectors to stay in one variable set
    count = 5
    left = [Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(0), Fraction(7)]
    right = [Fraction(1), Fraction(-3, 2), Fraction(4), Fraction(1, 5), Fraction(2), Fraction(0)]
    total = [
        sum(left[i] * right[m - i] for i in range(m + 1)) for m in range(count + 1)
    ]

    def evaluate(values):
        seq = multiplicative_sequence(x_over_tanh_coefficients(count), count)
        out = [Fraction(0)] * (count + 1)
        for i in range(count + 1):
            poly = seq[i]
            for exps, c in poly.terms.items():
                term = c
                for (name, _), e in zip(poly.variables, exps):
                    term *= values[int(name.split("_")[1])] ** e
                out[i] += term
        return out

    kl, kr, kt = evaluate(left), evaluate(right), evaluate(total)
    for m in range(count + 1):
        assert kt[m] == sum(kl[i] * kr[m - i] for i in range(m + 1))


def test_multiplicative_sequence_rejects_bad_series():
    with pytest.raises(ValueError):
        multiplicative_sequence((Fraction(2),), 3)
    with pytest.raises(ValueError):
        multiplicative_sequence((Fraction(1),), -1)
    # exponents are packed one byte each
    with pytest.raises(ValueError):
        multiplicative_sequence((Fraction(1),), 256)


# ---------------------------------------------------------------------------
# cover generators and the index map


def test_cover_index_set():
    assert list(cover_generator_index_set(1)) == [1]
    assert list(cover_generator_index_set(3)) == [1, 2, 3]
    assert list(cover_generator_index_set(4)) == [2, 3, 4]
    assert list(cover_generator_index_set(7)) == [2, 3, 4, 5, 6, 7]
    assert list(cover_generator_index_set(8)) == [3, 4, 5, 6, 7, 8]


def test_index_map_frozen_even():
    entries = index_generator_map(4).entries
    assert [(e.source_label, e.scalar, e.target_label) for e in entries] == [
        ("ph_1", Fraction(-1, 4), "kappa_L3"),
        ("ph_2", Fraction(1, 16), "kappa_L4"),
    ]
    assert [e.source_degree for e in entries] == [4, 8]


def test_index_map_frozen_odd():
    entries = index_generator_map(5).entries
    assert [(e.source_label, e.scalar, e.target_label) for e in entries] == [
        ("qh_1", Fraction(1, 2), "kappa_L3"),
        ("qh_2", Fraction(1, 8), "kappa_L4"),
        ("qh_3", Fraction(1, 32), "kappa_L5"),
    ]
    assert [e.source_degree for e in entries] == [2, 6, 10]


@pytest.mark.parametrize("n", range(1, 41))
def test_index_map_source_degrees(n):
    # n = 2m: ph_i in degree 4i with scalar (-1/4)^i; n = 2m + 1: qh_i in
    # degree 4i - 2 with scalar (1/2)^{2i-1}; both to kappa_{L_{i+m}}, in
    # degree 4(i + m) - 2n, for i = 1 .. n - m
    gm = index_generator_map(n)
    m = n // 2
    assert len(gm.entries) == n - m
    for i, e in enumerate(gm.entries, 1):
        if n % 2 == 0:
            assert (e.source_label, e.source_degree, e.scalar) == (f"ph_{i}", 4 * i, Fraction(-1, 4) ** i)
        else:
            assert (e.source_label, e.source_degree, e.scalar) == (f"qh_{i}", 4 * i - 2, Fraction(1, 2) ** (2 * i - 1))
        assert type(e.scalar) is Fraction
        assert e.target_label == f"kappa_L{i + m}"
        assert e.target_degree == 4 * (i + m) - 2 * n == e.source_degree
    assert gm.parity == ("even" if n % 2 == 0 else "odd")


def test_index_map_entry_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        IndexMapEntry("ph_1", 4, Fraction(1), "kappa_L9", 8)
