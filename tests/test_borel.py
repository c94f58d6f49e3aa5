"""Root systems, cone membership, stability constants.

The library decides each degree q by the q largest values of every
simple-root coordinate on the positive roots, all in integers scaled by the
lcm of the inverse simple-root matrix's denominators.  The oracle here is
the exhaustive route: test the cone membership of rho - mu - eta for every
sum eta of q distinct positive roots, by the unscaled Fraction inverse.

The constant of a tensor power is decided by the library in one scan, with
no weight listed; the reference here lists the weights and takes the
minimum of the per-weight constants, each decided by the top-q test of
`borel_constant_mu` and checked in turn against the exhaustive scan.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

import torelli.borel
from torelli.linalg import invert_fraction_matrix
from torelli.borel import (
    BorelConstant,
    _scan,
    borel_constant_rep,
    is_positive_combination,
    lform_inequality_check,
    representation_bound,
    root_system,
    tallest_root_sums,
    weights_of_exterior_power,
)


def weights_of_tensor_power(rs, k):
    """Deduplicated sums of k elements of {+-a_1, ..., +-a_g}: the integer
    vectors whose absolute values sum to at most k, with the parity of k.
    Listed coordinate by coordinate, so the work is linear in their number."""
    if k < 0:
        raise ValueError("tensor power degree must be nonnegative")
    partial = [((), 0)]  # (prefix, its |.|_1)
    for _ in range(rs.g - 1):
        partial = [
            (prefix + (x,), used + abs(x))
            for prefix, used in partial
            for x in range(used - k, k - used + 1)
        ]
    weights = []
    for prefix, used in partial:
        left = k - used  # the last entry takes |x| <= left with |x| = left mod 2
        weights.extend(prefix + (x,) for x in range(-left, left + 1, 2))
    return sorted(weights)


def tensor_weight_count(g, k):
    """The number of weights `weights_of_tensor_power` lists at rank g,
    without listing them.  They are the v in Z^g with |v_1| + ... + |v_g| at
    most k and of the parity of k, counted by the coefficient of x^k in
    (1 + x)^(g-1) / (1 - x)^(g+1)."""
    if g < 1 or k < 0:
        raise ValueError("need g >= 1 and k >= 0")
    return sum(
        math.comb(g - 1, j) * math.comb(k - j + g, g) for j in range(min(g - 1, k) + 1)
    )


def borel_constant_mu(rs, mu, qmax):
    """Largest q <= qmax such that every q' <= q passes the cone test for all
    eta summing q' distinct positive roots.

    Degree q passes when every coordinate f_r of rho - mu reaches the sum of
    the q largest values of f_r on the positive roots and rho - mu is none of
    the sums eta; those are listed only when the height of rho - mu is the sum
    of the q largest root heights, the one case where it can be one of them.
    The sums are looked up on the module, so a test can record the listing.
    """
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    values = [a - b for a, b in zip(rs.rho_coordinates, rs.coordinates(mu))]  # f_r(rho - mu)
    height = sum(values)
    base = tuple(r - m for r, m in zip(rs.rho, mu))

    def fails(q):
        if any(v < top[q] for v, top in zip(values, rs.top_sums)):
            return True
        return height == rs.top_heights[q] and base in torelli.borel.weights_of_exterior_power(rs, q)

    return _scan(rs, qmax, fails)


def constant_by_weights(rs, k, qmax):
    """borel_constant_rep as the minimum of borel_constant_mu over the listed
    weights of the tensor power."""
    best = None
    all_capped = True
    for mu in weights_of_tensor_power(rs, k):
        c = borel_constant_mu(rs, mu, qmax)
        if c.value is None:
            return BorelConstant(None)
        if best is None or c.value < best:
            best = c.value
        all_capped = all_capped and c.capped
    return BorelConstant(best, capped=all_capped and best == qmax)


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
        *rs.coordinate_columns,
        *rs.root_values,
        rs.root_heights,
        *rs.top_sums,
        rs.top_heights,
        *weights_of_tensor_power(rs, 2),
        *weights_of_exterior_power(rs, 2),
        *tallest_root_sums(rs, 2),
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


# ---------------------------------------------------------------------------
# the whole representation in one scan, against the listed weights


def _roots(family, g):
    return len(root_system(family, g).positive_roots)


@pytest.mark.parametrize(
    "family, g",
    [(family, g) for family in "CD" for g in range(2, 9)],
    ids=lambda x: str(x),
)
def test_scan_matches_the_weight_minimum(family, g):
    # every k <= 4 and qmax up to two past the positive root count; from
    # g = 6 on, the degrees between g + 2 and the root count are thinned,
    # since the constant is below g there and they are decided alike
    rs = root_system(family, g)
    top = _roots(family, g) + 2
    qmaxes = range(top + 1) if g < 6 else [*range(g + 3), *range(g + 3, top - 2, 5), *range(top - 2, top + 1)]
    for k in range(5):
        for qmax in sorted(set(qmaxes)):
            assert borel_constant_rep(rs, k, qmax) == constant_by_weights(rs, k, qmax), (k, qmax)


def _coordinate_scan(rs, k, qmax):
    """The scan with the coordinate test alone: what the library would
    answer without the sums of greatest height."""
    lows = [v - k * max(map(abs, row)) for v, row in zip(rs.rho_coordinates, rs.coordinate_rows)]
    best = None
    for q in range(min(qmax, len(rs.positive_roots)) + 1):
        if any(low < top[q] for low, top in zip(lows, rs.top_sums)):
            break
        best = q
    else:
        best = qmax
    return best


@pytest.mark.parametrize("g, value", [(2, None), (3, 0)])
def test_boundary_case_of_the_whole_representation(g, value):
    # at D_2 and D_3 with k = 1 every coordinate passes the first failing
    # degree, and only a sum of greatest height shows the failure: rho - mu
    # is such a sum for a weight mu; at D_2 that is rho itself, at q = 0
    rs = root_system("D", g)
    qmax = _roots("D", g) + 2
    expected = constant_by_weights(rs, 1, qmax)
    assert expected == BorelConstant(value)
    assert borel_constant_rep(rs, 1, qmax) == expected
    failing = 0 if value is None else value + 1
    assert _coordinate_scan(rs, 1, qmax) >= failing
    assert any(sum(abs(r - e) for r, e in zip(rs.rho, eta)) == 1 for eta in tallest_root_sums(rs, failing))


@pytest.mark.parametrize("family, g", [("C", 3), ("D", 3), ("C", 5), ("D", 6)])
def test_tallest_root_sums_are_the_sums_of_greatest_height(family, g):
    rs = root_system(family, g)
    height = dict(zip(rs.positive_roots, rs.root_heights))
    for q in range(min(len(rs.positive_roots), 6) + 1):
        tallest = sorted(
            tuple(map(sum, zip((0,) * g, *subset)))
            for subset in itertools.combinations(rs.positive_roots, q)
            if sum(height[root] for root in subset) == rs.top_heights[q]
        )
        assert sorted(tallest_root_sums(rs, q)) == tallest, q


@pytest.mark.parametrize("family", ["C", "D"])
def test_tie_listing_is_small_at_every_rank(family):
    # a scan lists the sums of greatest height of degree q only once every
    # coordinate has passed at q and below; the coordinate test at k = 0
    # passes whatever passes at a larger k, so the degrees bounded here are
    # all that a scan at any k can reach, and at most 10 sums are listed in
    # each of them
    largest = 0
    for g in range(2, 33):
        rs = root_system(family, g)
        for q in range(len(rs.positive_roots) + 1):
            if any(v < top[q] for v, top in zip(rs.rho_coordinates, rs.top_sums)):
                break
            largest = max(largest, sum(1 for _ in tallest_root_sums(rs, q)))
    assert largest <= 10


def test_scan_rejects_negative_sizes():
    rs = root_system("C", 3)
    with pytest.raises(ValueError):
        borel_constant_rep(rs, -1, 3)
    with pytest.raises(ValueError):
        borel_constant_rep(rs, 1, -1)
