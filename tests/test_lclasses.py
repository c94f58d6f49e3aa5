"""L-class engine tests.

The library builds multiplicative sequences from power sums: the log of the
coefficient series, Newton's identities, then exp.  The oracle here takes the
classical route instead: expand the product over formal even roots and
eliminate through elementary symmetric functions.  Its cost grows about
sevenfold per index, so it stops at index 7; beyond it the classes are
checked by evaluation at the elementary symmetric functions of rational
roots.  Frozen values pin the classical low-degree classes.

The library inverts the L-classes by the log of the total class and Newton's
identities; the oracle here is triangular inversion, solving L_i for its
p_i term and substituting the lower p_j(L) into the rest.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from torelli.graded import WeightedPolynomial, format_polynomial
from torelli.lclasses import (
    IndexMapEntry,
    bernoulli_numbers,
    bso_cover_series,
    cover_generator_index_set,
    index_generator_map,
    ko_target_series,
    l_classes,
    l_hat_polynomial,
    l_polynomial,
    multiplicative_sequence,
    p_classes_in_l,
    p_in_terms_of_l,
    x_over_tanh_by_division,
    x_over_tanh_coefficients,
    _series_log,
)


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
    # log(x/tanh x) = log cosh x - log(sinh x / x); the route divides by
    # every c_m, and B_{2m} != 0 keeps them all nonzero
    c = _series_log(list(x_over_tanh_coefficients(12)))
    b = bernoulli_numbers(24)
    for m in range(1, 13):
        assert c[m] == Fraction(4**m * (4**m - 2)) * b[2 * m] / (2 * m * math.factorial(2 * m))
        assert c[m] != 0


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


# ---------------------------------------------------------------------------
# cover generators, target series, index map


def test_cover_index_set():
    assert list(cover_generator_index_set(1)) == [1]
    assert list(cover_generator_index_set(3)) == [1, 2, 3]
    assert list(cover_generator_index_set(4)) == [2, 3, 4]
    assert list(cover_generator_index_set(7)) == [2, 3, 4, 5, 6, 7]
    assert list(cover_generator_index_set(8)) == [3, 4, 5, 6, 7, 8]


def _count_cover_monomials(n, max_degree):
    # direct enumeration: monomials in the L_j (degree 4j, j in the index
    # set) times an optional square-zero class of degree 2n
    degrees = [4 * j for j in cover_generator_index_set(n)]
    counts = [0] * (max_degree + 1)

    def rec(pos, total):
        if total > max_degree:
            return
        if pos == len(degrees):
            counts[total] += 1
            if total + 2 * n <= max_degree:
                counts[total + 2 * n] += 1
            return
        t = total
        while t <= max_degree:
            rec(pos + 1, t)
            t += degrees[pos]

    rec(0, 0)
    return tuple(counts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_bso_cover_series_vs_enumeration(n):
    assert bso_cover_series(n, 20).coefficients == _count_cover_monomials(n, 20)


def test_bso_cover_series_frozen():
    assert bso_cover_series(3, 8).coefficients == (1, 0, 0, 0, 1, 0, 1, 0, 2)
    assert bso_cover_series(4, 12).coefficients == (
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1,
    )


def test_ko_target_series_frozen():
    # generator degrees: 4, 8, 12, ... for n even; 2, 6, 10, ... for n odd
    assert ko_target_series(4, 12).coefficients == (
        1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3,
    )
    assert ko_target_series(3, 8).coefficients == (1, 0, 1, 0, 1, 0, 2, 0, 2)


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


@pytest.mark.parametrize("n", range(4, 10))
def test_index_map_source_degrees(n):
    gm = index_generator_map(n)
    step = 4 if n % 2 == 0 else 4
    first = 4 if n % 2 == 0 else 2
    expected = [first + step * (i - 1) for i in range(1, len(gm.entries) + 1)]
    assert [e.source_degree for e in gm.entries] == expected
    assert gm.parity == ("even" if n % 2 == 0 else "odd")


def test_index_map_entry_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        IndexMapEntry("ph_1", 4, Fraction(1), "kappa_L9", 8)
