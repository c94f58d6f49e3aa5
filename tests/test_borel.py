"""Root systems, cone membership, stability constants.

The library decides each degree q by the q largest values of every
simple-root coordinate on the positive roots, all in integers scaled by the
lcm of the inverse simple-root matrix's denominators.  The oracle here is
the exhaustive route: test the cone membership of rho - mu - eta for every
sum eta of q distinct positive roots, by the unscaled Fraction inverse.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

import torelli.borel
from torelli.linalg import invert_fraction_matrix
from torelli.borel import (
    BorelConstant,
    borel_constant_mu,
    borel_constant_rep,
    is_positive_combination,
    lform_inequality_check,
    representation_bound,
    root_system,
    tensor_weight_count,
    weights_of_exterior_power,
    weights_of_tensor_power,
)


def _f(*xs):
    return tuple(Fraction(x) for x in xs)


def test_c_family_data():
    rs = root_system("C", 2)
    assert len(rs.positive_roots) == 4
    assert set(rs.positive_roots) == {_f(1, 1), _f(1, -1), _f(2, 0), _f(0, 2)}
    assert rs.simple_roots == (_f(1, -1), _f(0, 2))
    assert rs.rho == _f(2, 1)
    assert root_system("C", 3).rho == _f(3, 2, 1)
    assert len(root_system("C", 3).positive_roots) == 9


def test_d_family_data():
    rs = root_system("D", 3)
    assert len(rs.positive_roots) == 6
    assert rs.rho == _f(2, 1, 0)
    assert rs.simple_roots == (_f(1, -1, 0), _f(0, 1, -1), _f(0, 1, 1))
    assert len(root_system("D", 4).positive_roots) == 12


@lru_cache(maxsize=None)
def _fraction_inverse(rs):
    """The inverse of the matrix whose columns are the simple roots, unscaled:
    row r gives the coefficient of the r-th simple root."""
    columns = [[Fraction(root[i]) for root in rs.simple_roots] for i in range(rs.g)]
    return invert_fraction_matrix(columns)


@pytest.mark.parametrize("family", ["C", "D"])
def test_coordinate_rows_are_the_scaled_inverse(family):
    # f_r(simple root s) = L if r = s else 0, with L the lcm of the
    # denominators of the unscaled inverse; L = 2 in both families
    for g in range(2, 13):
        rs = root_system(family, g)
        scale = math.lcm(*(x.denominator for row in _fraction_inverse(rs) for x in row))
        assert scale == 2
        product = [
            [sum(f * x for f, x in zip(row, root)) for root in rs.simple_roots]
            for row in rs.coordinate_rows
        ]
        assert product == [[scale * (r == s) for s in range(g)] for r in range(g)]


@pytest.mark.parametrize("family", ["C", "D"])
@pytest.mark.parametrize("g", [2, 3, 7])
def test_tables_hold_only_integers(family, g):
    rs = root_system(family, g)
    rows = (
        *rs.positive_roots,
        *rs.simple_roots,
        rs.rho,
        *rs.coordinate_rows,
        rs.rho_coordinates,
        *rs.top_sums,
        rs.top_heights,
        *weights_of_tensor_power(rs, 2),
        *weights_of_exterior_power(rs, 2),
    )
    assert all(type(x) is int for row in rows for x in row)


def test_rho_is_half_sum():
    for family, g in (("C", 2), ("C", 4), ("D", 3), ("D", 5)):
        rs = root_system(family, g)
        total = [Fraction(0)] * g
        for root in rs.positive_roots:
            total = [a + b for a, b in zip(total, root)]
        assert tuple(x / 2 for x in total) == rs.rho


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        root_system("B", 3)
    with pytest.raises(ValueError):
        root_system("C", 1)


def test_cone_membership():
    rs = root_system("C", 2)
    assert is_positive_combination(_f(1, -1), rs)  # a simple root
    assert is_positive_combination(_f(1, 0), rs)  # (1,-1)/1 + (0,2)/2
    assert is_positive_combination(_f(2, 1), rs)
    assert not is_positive_combination(_f(0, 0), rs)  # zero excluded
    assert not is_positive_combination(_f(-1, 0), rs)
    assert is_positive_combination(_f(0, 1), rs)  # 0*(1,-1) + (0,2)/2


def test_exterior_weights_count():
    rs = root_system("C", 2)
    for q in range(6):
        weights = list(weights_of_exterior_power(rs, q))
        expected = [1, 4, 6, 4, 1, 0][q]  # C(4, q), empty past the root count
        assert len(weights) == expected
    assert list(weights_of_exterior_power(rs, 0)) == [_f(0, 0)]


def test_tensor_weights():
    rs = root_system("C", 2)
    assert len(weights_of_tensor_power(rs, 0)) == 1
    assert len(weights_of_tensor_power(rs, 1)) == 4
    # k=2: 0, +-2e_i, +-e_1 +- e_2 -> 9 distinct values
    assert len(weights_of_tensor_power(rs, 2)) == 9
    assert _f(0, 0) in weights_of_tensor_power(rs, 2)


def test_constant_for_zero_weight():
    rs = root_system("C", 2)
    got = borel_constant_mu(rs, (0, 0), 5)
    assert got == BorelConstant(1, capped=False)
    # capped when the scan stops at qmax while still passing
    assert borel_constant_mu(rs, (0, 0), 1) == BorelConstant(1, capped=True)
    assert borel_constant_mu(rs, (0, 0), 0) == BorelConstant(0, capped=True)


def test_constant_none_when_even_zero_fails():
    rs = root_system("C", 2)
    assert borel_constant_mu(rs, rs.rho, 3) == BorelConstant(None)
    assert not BorelConstant(None).meets(0)


def test_vacuous_degrees_do_not_inflate_the_constant():
    # q above the positive root count passes vacuously; the reported value
    # must still reflect the smallest failing degree
    rs = root_system("C", 2)
    assert borel_constant_mu(rs, (1, 0), 9) == BorelConstant(0, capped=False)


def test_rep_constant_frozen():
    assert borel_constant_rep(root_system("C", 2), 0, 4).value == 1
    assert borel_constant_rep(root_system("C", 3), 1, 3).value == 1
    assert borel_constant_rep(root_system("D", 3), 0, 3).value == 1
    assert borel_constant_rep(root_system("D", 4), 1, 3).value == 2


def test_rep_constant_meets_bound_small():
    for family, g, k in (("C", 2, 0), ("C", 2, 1), ("C", 3, 0), ("D", 3, 0)):
        rs = root_system(family, g)
        bound = representation_bound(family, g, k)
        qmax = max(bound, 0) + 1
        assert borel_constant_rep(rs, k, qmax).meets(bound)


def test_representation_bound():
    assert representation_bound("C", 5, 2) == 2
    assert representation_bound("D", 5, 2) == 1
    with pytest.raises(ValueError):
        representation_bound("E", 5, 2)


def test_lform_true_within_range():
    for g in (2, 5, 9):
        for k in (0, 1, 3):
            for q in range(0, min(g - 1 - k, g - 1) + 1):
                assert lform_inequality_check(g, k, q)


def test_lform_false_just_past_the_bound():
    # at q = g - k the leading coefficient turns negative and the small
    # corrections cannot rescue it
    assert lform_inequality_check(6, 2, 3)  # q = g-1-k passes
    assert not lform_inequality_check(6, 2, 4)
    assert not lform_inequality_check(6, 2, 5)


def test_lform_domain_checked():
    with pytest.raises(ValueError):
        lform_inequality_check(1, 0, 0)
    with pytest.raises(ValueError):
        lform_inequality_check(4, -1, 0)
    with pytest.raises(ValueError):
        lform_inequality_check(4, 0, 4)  # q must stay below g


def test_constant_monotone_in_qmax():
    rs = root_system("C", 3)
    values = [borel_constant_mu(rs, (1, 0, 0), qmax).value for qmax in range(5)]
    assert values == sorted(values)
    # once uncapped, raising qmax does not change the value
    uncapped = [
        borel_constant_mu(rs, (1, 0, 0), qmax)
        for qmax in range(5)
        if not borel_constant_mu(rs, (1, 0, 0), qmax).capped
    ]
    assert len({c.value for c in uncapped}) <= 1


def test_rep_constant_non_increasing_in_k():
    # every weight of V^(x)k is a weight of V^(x)(k+2): add a root and its
    # negative; the minimum over a larger weight set can only shrink
    for family, g in (("C", 2), ("D", 3)):
        rs = root_system(family, g)
        values = [borel_constant_rep(rs, k, 4).value for k in (0, 2)]
        assert values[1] is not None
        assert values[1] <= values[0]


# ---------------------------------------------------------------------------
# oracle: the exhaustive scan over sums of q distinct positive roots


@lru_cache(maxsize=None)
def _root_sums(rs, q):
    # the distinct values; many q-subsets share a sum
    return frozenset(weights_of_exterior_power(rs, q))


def _in_cone(v, rs):
    """v is nonzero and every simple-root coefficient of it is nonnegative."""
    return any(v) and all(sum(f * x for f, x in zip(row, v)) >= 0 for row in _fraction_inverse(rs))


@lru_cache(maxsize=None)
def _degree_passes(rs, base, q):
    return all(_in_cone(tuple(b - e for b, e in zip(base, eta)), rs) for eta in _root_sums(rs, q))


def constant_by_scan(rs, mu, qmax):
    """borel_constant_mu by testing every eta of every degree q <= qmax."""
    base = tuple(r - Fraction(m) for r, m in zip(rs.rho, mu))
    best = None
    for q in range(qmax + 1):
        if not _degree_passes(rs, base, q):
            break
        best = q
    if best is None:
        return BorelConstant(None)
    return BorelConstant(best, capped=(best == qmax))


@pytest.mark.parametrize("family", ["C", "D"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_top_q_test_matches_the_scan(family, g):
    # 2 families x 3 ranks x k <= 2 x qmax <= 4: 90 cases, each compared at
    # every weight of the tensor power and for the minimum over them
    rs = root_system(family, g)
    for k in range(3):
        for qmax in range(5):
            scanned = [constant_by_scan(rs, mu, qmax) for mu in weights_of_tensor_power(rs, k)]
            for mu, expected in zip(weights_of_tensor_power(rs, k), scanned):
                assert borel_constant_mu(rs, mu, qmax) == expected, (k, qmax, mu)
            got = borel_constant_rep(rs, k, qmax)
            if any(c.value is None for c in scanned):
                assert got == BorelConstant(None)
            else:
                low = min(c.value for c in scanned)
                assert got == BorelConstant(low, capped=all(c.capped for c in scanned) and low == qmax)


@pytest.mark.parametrize("family, g", [("C", 2), ("C", 4), ("D", 3), ("D", 4)])
def test_boundary_case_lists_the_root_sums(family, g, monkeypatch):
    # mu = rho - theta, theta the highest root: theta maximises every
    # simple-root coordinate, so at q = 1 every row is tight and eta = theta
    # leaves rho - mu - eta = 0; only the listed sums can show it
    rs = root_system(family, g)
    theta = [Fraction(0)] * g
    if family == "C":
        theta[0] = Fraction(2)
    else:
        theta[0] = theta[1] = Fraction(1)
    assert tuple(theta) in rs.positive_roots
    mu = tuple(r - t for r, t in zip(rs.rho, theta))
    listed = []

    def recording(rs_, q):
        listed.append(q)
        return weights_of_exterior_power(rs_, q)

    monkeypatch.setattr(torelli.borel, "weights_of_exterior_power", recording)
    assert borel_constant_mu(rs, mu, 3) == BorelConstant(0)
    assert listed == [1]
    monkeypatch.undo()
    assert constant_by_scan(rs, mu, 3) == BorelConstant(0)


def test_degrees_past_the_root_count_pass_vacuously():
    # D_2 has the 2 positive roots a_1 +- a_2; rho - mu = 4 a_1 stays in the
    # cone after subtracting both, and every degree above 2 has no eta
    rs = root_system("D", 2)
    mu = (Fraction(-3), Fraction(0))
    assert borel_constant_mu(rs, mu, 7) == BorelConstant(7, capped=True)
    assert constant_by_scan(rs, mu, 7) == BorelConstant(7, capped=True)


@pytest.mark.parametrize("g", range(2, 6))
def test_tensor_weight_count_matches_the_list(g):
    for k in range(5):
        assert tensor_weight_count(g, k) == len(weights_of_tensor_power(root_system("C", g), k))
