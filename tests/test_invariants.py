"""Closed-form counts and the exact invariant oracle.

Small graded pieces only; the heavyweight tensor-power cases live in the
acceptance suite.

The seeded word sampler that the generator-kernel oracle replaced lives here,
over lists, as an independent route: `sampled_invariant_dim` intersects the
fixed subspaces of dense piece matrices of pseudo-random words until the
dimension survives three consecutive samples.  Every sample lies in the
group the generators generate, so it never counts fewer invariants than the
oracle.
"""

import bisect
import collections
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torelli.mt
from torelli import invariants, linalg
from torelli.cli import run
from torelli.graded import free_graded_commutative_series
from torelli.mt import pair_degree_counts
from torelli.groups import (
    GammaType,
    Generator,
    form_for_kind,
    listed_generators,
    monomial_moves,
    sample_group_element,
)
from torelli.invariants import (
    REQUEST_WORK_CAP,
    WORK_CAP,
    OracleCapExceeded,
    GradedVCopies,
    OracleResult,
    _allocations,
    brute_force_invariant_dim,
    gamma_kind_for_oracle,
    go_shifted_degrees,
    invariant_crosscheck,
    matchings_count,
    piece_dimension,
    shifted_pair_counts,
    stable_invariant_series,
    stable_pair_degrees,
    two_part_partitions,
)

from test_groups import _closure, _n_columns, generator_matrices, signed_permutation, transvection
from test_linalg import bareiss_kernel_basis, identity_matrix, mat_mul, mat_sub, mat_transpose


# ---------------------------------------------------------------------------
# the homotopy bookkeeping behind the shifted degrees: the reference for
# `go_shifted_degrees`


def go_homotopy_rank(k):
    """Rank of the rational homotopy of G/O in degree k."""
    return 1 if k > 0 and k % 4 == 0 else 0


def mapping_space_homotopy(n, g, k):
    """(multiplicity of V, trivial multiplicity, total rank) of the degree-k
    rational homotopy of the stabilized mapping space."""
    if n < 1 or g < 0 or k < 0:
        raise ValueError("need n >= 1, g >= 0 and k >= 0")
    mult_v = go_homotopy_rank(k + n)
    mult_trivial = go_homotopy_rank(k + 2 * n)
    return (mult_v, mult_trivial, 2 * g * mult_v + mult_trivial)


def test_go_homotopy_rank():
    ranks = [go_homotopy_rank(k) for k in range(13)]
    assert ranks == [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_mapping_space_homotopy_frozen():
    assert mapping_space_homotopy(4, 2, 4) == (1, 1, 5)
    assert mapping_space_homotopy(4, 2, 2) == (0, 0, 0)
    assert mapping_space_homotopy(3, 1, 1) == (1, 0, 2)
    assert mapping_space_homotopy(3, 0, 1) == (1, 0, 0)  # g = 0 keeps only the trivial part
    with pytest.raises(ValueError):
        mapping_space_homotopy(0, 1, 1)
    with pytest.raises(ValueError):
        mapping_space_homotopy(3, -1, 1)


def test_shifted_degrees():
    assert go_shifted_degrees(3, 12) == [1, 5, 9]
    assert go_shifted_degrees(8, 17) == [4, 8, 12, 16]
    assert go_shifted_degrees(9, 12) == [3, 7, 11]
    assert go_shifted_degrees(3, 0) == []


@pytest.mark.parametrize("n", range(1, 21))
def test_shifted_degrees_are_the_homotopy_of_v(n):
    # the copies of V in the free model sit in the degrees k where the
    # stabilized mapping space has rational homotopy of V-multiplicity 1
    expected = [k for k in range(1, 61) if mapping_space_homotopy(n, 1, k)[0] == 1]
    assert go_shifted_degrees(n, 60) == expected


def test_model_series_frozen():
    # the free algebra on 2g copies of each shifted degree, degree by degree
    for n, g, max_degree, expected in (
        (3, 1, 6, (1, 2, 1, 0, 0, 2, 4)),
        (9, 2, 12, (1, 0, 0, 4, 0, 0, 6, 4, 0, 4, 16, 4, 1)),
    ):
        copies = GradedVCopies(g, tuple(go_shifted_degrees(n, max_degree)))
        assert tuple(piece_dimension(copies, d) for d in range(max_degree + 1)) == expected


def test_stable_pairs_and_series_frozen():
    assert stable_pair_degrees(8, 16) == [(4, 4), (4, 8), (4, 12), (8, 8)]
    assert stable_invariant_series(8, 12).coefficients == (
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
    )
    assert stable_invariant_series(40, 16)[16] == 3


def test_two_part_partitions():
    assert [two_part_partitions(i) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("i", range(2, 16))
def test_two_part_partitions_count_generators(i):
    # degree-4i generators of the stable ring at n = 32 are the pairs
    # (4s, 4t) with s <= t and s + t = i
    pairs = stable_pair_degrees(32, 64)
    got = sum(1 for x, y in pairs if x + y == 4 * i)
    assert got == two_part_partitions(i)


def test_matchings_count():
    assert [matchings_count(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]
    with pytest.raises(ValueError):
        matchings_count(-1)


# ---------------------------------------------------------------------------
# oracle


def test_copies_validated():
    with pytest.raises(ValueError):
        GradedVCopies(0, (2,))
    with pytest.raises(ValueError):
        GradedVCopies(1, (0,))


def test_piece_dimensions():
    even = GradedVCopies(2, (2,))
    assert piece_dimension(even, 2) == 4  # Sym^1
    assert piece_dimension(even, 4) == 10  # Sym^2 of a 4-dim space
    assert piece_dimension(even, 3) == 0  # no allocation
    odd = GradedVCopies(2, (1,))
    assert piece_dimension(odd, 2) == math.comb(4, 2)
    assert piece_dimension(odd, 5) == 0  # exterior power past the dimension
    mixed = GradedVCopies(1, (1, 3))
    assert piece_dimension(mixed, 4) == 4  # V tensor V
    # degrees given as a list are kept as a tuple, which the cache can hash
    assert piece_dimension(GradedVCopies(1, [2]), 4) == 3


def allocations_by_recursion(copies, degree):
    """Every exponent tuple with sum m_i * d_i = degree, by a plain recursion
    over the copies that visits every prefix, completing or not."""
    dim = 2 * copies.g
    degs = copies.copy_degrees

    def rec(pos, remaining, prefix):
        if pos == len(degs):
            if remaining == 0:
                yield prefix
            return
        d = degs[pos]
        top = min(remaining // d, dim) if d % 2 else remaining // d
        for m in range(top + 1):
            yield from rec(pos + 1, remaining - m * d, prefix + (m,))

    yield from rec(0, degree, ())


def test_pruned_allocations_match_the_full_enumeration():
    rng = random.Random(20261018)
    for _ in range(60):
        g = rng.randint(1, 3)
        copies = GradedVCopies(g, tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 5))))
        series = free_graded_commutative_series(((d, 2 * g) for d in copies.copy_degrees), 24)
        for degree in range(25):
            expected = list(allocations_by_recursion(copies, degree))
            assert list(_allocations(copies, degree)) == expected
            blocks = sum(
                math.prod(
                    math.comb(2 * g, m) if d % 2 else math.comb(2 * g + m - 1, m)
                    for m, d in zip(alloc, copies.copy_degrees)
                )
                for alloc in expected
            )
            assert piece_dimension(copies, degree) == blocks == series[degree]


def test_allocations_over_many_copies():
    # 1500 copies, as in crosscheck-sec6 --n 8 --maxdeg 6000: deeper than
    # the interpreter's recursion limit
    copies = GradedVCopies(1, tuple(range(4, 6004, 4)))
    allocs = list(_allocations(copies, 8))
    assert allocs == [(0, 1) + (0,) * 1498, (2,) + (0,) * 1499]
    assert piece_dimension(copies, 8) == 2 + 3


@pytest.mark.parametrize("kind", ["sp", "o"])
def test_tail_dimensions_once_per_request(monkeypatch, kind):
    # the route's piece dimension, its allocations, its work and the CLI's
    # piece column read one table, of tuples, so that none of them can
    # change it for the others; and the pieces of a crosscheck read the
    # table of its top degree, built once per window of its caps'
    # pre-check, not once per piece
    built, build = [], invariants._tail_table

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(invariants, "_tail_table", counted)
    monkeypatch.setattr(invariants, "_TABLES", {})
    argv = ["invariant-oracle", "--type", kind, "--g", "1", "--degrees", "1,3,9,27", "--deg", "40"]
    assert run(argv, out=io.StringIO()) == 0
    copies = GradedVCopies(1, (1, 3, 9, 27))
    assert built == [(copies, 40)]
    tails = invariants._tail_dimensions(copies, 40)
    assert isinstance(tails, tuple) and all(isinstance(tail, tuple) for tail in tails)
    built.clear()
    n = 8 if kind == "o" else 9
    argv = ["crosscheck-sec6", "--n", str(n), "--g", "1", "--maxdeg", "80", "--oracle"]
    assert run(argv, out=io.StringIO()) == 0
    copies = GradedVCopies(1, tuple(go_shifted_degrees(n, 80)))
    assert built == [(copies, 64), (copies, 80)]


def test_orbit_work_is_a_unit_per_piece_element():
    # 2g(g + 1) per element for the orthogonal kind, 8(g + 8) for the
    # symplectic kind, in every degree, on random copy lists
    rng = random.Random(22)
    for g in range(1, 11):
        for _ in range(4):
            copies = GradedVCopies(g, tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 5))))
            degree = rng.randint(0, 30)
            for kind, unit in ((GammaType.ORTHOGONAL, 2 * g * (g + 1)), (GammaType.SYMPLECTIC, 8 * (g + 8))):
                works = invariants._orbit_work(kind, copies, degree)
                assert works == tuple(unit * piece_dimension(copies, e) for e in range(degree + 1))


def _dim(kind, g, degrees, degree):
    return brute_force_invariant_dim(kind, GradedVCopies(g, degrees), degree).dimension


def test_symmetric_square_invariants():
    # one even copy in degree 2, invariants in degree 4
    for g, expected in ((2, 1), (3, 1)):
        assert _dim(GammaType.ORTHOGONAL, g, (2,), 4) == expected
    # the rank-one orthogonal group is too small to cut down to the form
    assert _dim(GammaType.ORTHOGONAL, 1, (2,), 4) == 2
    # no symmetric invariant on the symplectic side
    assert _dim(GammaType.SYMPLECTIC, 2, (2,), 4) == 0


def test_exterior_square_invariants():
    assert _dim(GammaType.SYMPLECTIC, 2, (1,), 2) == 1


def test_tensor_square_invariants():
    # distinct copy degrees single out V tensor V inside the free algebra
    assert _dim(GammaType.SYMPLECTIC, 1, (1, 3), 4) == matchings_count(2)
    assert _dim(GammaType.ORTHOGONAL, 2, (2, 4), 6) == 1


def test_pieces_the_sampler_got_wrong():
    # O_{1,1}(Z) on Sym^6 (+) Sym^4 (x) V (+) ... : the character average over
    # its four elements is 9, where even words in swap and -I gave 16
    assert _dim(GammaType.ORTHOGONAL, 1, (2, 4), 12) == 9
    # Lambda^4 V of O_{2,2}(Z) is the determinant, odd under swap
    assert _dim(GammaType.ORTHOGONAL, 2, (1,), 4) == 0
    # SL_2 on V^(x)6: the Catalan number 5
    assert _dim(GammaType.SYMPLECTIC, 1, (1, 3, 9, 27, 81, 243), 364) == 5


def test_history_has_one_entry_per_generator():
    # dim V^H, then one entry per kept transvection, T_x1 and T_{x1 + y2}
    copies = GradedVCopies(2, (1,))
    result = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 2)
    assert len(result.history) == 1 + len(kept_generators(GammaType.SYMPLECTIC, 2)) == 3
    assert result.history[-1] == result.dimension == 1
    assert all(x >= y for x, y in zip((piece_dimension(copies, 2),) + result.history, result.history))
    assert result.route == "modp"


def test_oracle_setup_asserts_the_weight_premises(monkeypatch):
    # the matrix facts that put every invariant in V_0 are checked on the
    # listed generators, before any piece is counted
    sp, o = listed_generators(GammaType.SYMPLECTIC, 2), listed_generators(GammaType.ORTHOGONAL, 2)
    square = tuple(tuple(int(r == c or (r, c) in ((0, 1), (1, 2))) for c in range(4)) for r in range(4))
    n = _n_columns(square)
    assert not _squares_to_zero(sparse_columns(square)) and invariants._product_sum([(1, n, n)])
    for kind, generators, message in (
        # a unipotent s with (s - 1)^2 != 0 in the place of T_x1
        (GammaType.SYMPLECTIC, (Generator(n, None),) + sp[1:], r"\(s - 1\)\^2"),
        # T_x2 in the place of T_x1, so that [N_x1, N_y1] is not listed
        (GammaType.SYMPLECTIC, (sp[1], sp[1]) + sp[2:], "bracket"),
        # E_12 in the place of E_21
        (GammaType.ORTHOGONAL, o[:5] + (o[4],) + o[6:], "bracket"),
        # the swap of the first pair left out
        (GammaType.ORTHOGONAL, o[1:], "swap of the first pair"),
    ):
        monkeypatch.setattr(invariants, "listed_generators", lambda kind, g, listed=generators: listed)
        with pytest.raises(AssertionError, match=message):
            invariants._oracle_setup.__wrapped__(kind, 2)


def test_empty_piece_short_circuits():
    result = brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(1, (2,)), 3)
    assert result.dimension == 0 and result.history == ()


# ---------------------------------------------------------------------------
# the sampled route: seeded words, dense piece matrices, exact kernels


def _power_matrix(a, m, exterior):
    """Dense Sym^m(a), or Lambda^m(a) when exterior, on sorted index tuples."""
    dim = len(a)
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(combos(range(dim), m))
    index = {b: i for i, b in enumerate(basis)}
    out = [[0] * len(basis) for _ in basis]
    for col, src in enumerate(basis):
        expansion = {(): 1}
        for j in src:
            nxt = {}
            for mono, c in expansion.items():
                for i in range(dim):
                    if a[i][j] and not (exterior and i in mono):
                        sign = -1 if exterior and sum(1 for t in mono if t > i) % 2 else 1
                        key = tuple(sorted(mono + (i,)))
                        nxt[key] = nxt.get(key, 0) + sign * c * a[i][j]
            expansion = nxt
        for mono, c in expansion.items():
            out[index[mono]][col] = c
    return out


# ---------------------------------------------------------------------------
# the expansions the oracle replaced, kept as its references: the power
# columns of a matrix by the multinomial expansion of every basis element,
# the image of a block element as the full tensor product of its factors'
# images, the image of a vector applied one factor at a time, and the moves
# on the full block as Kronecker products of the permuted index tuples of
# each factor


@lru_cache(maxsize=4096)
def _shares(column, k):
    """The terms of (sum x e_i)^k over a column's entries (i, x): the pairs
    (i, t > 0) of each way of sharing k among them, and its coefficient."""
    (i, x), rest = column[0], column[1:]
    if not rest:
        return [(((i, k),) * (k > 0), x**k)]
    return [
        (((i, t),) * (t > 0) + shares, math.comb(k, t) * x**t * c)
        for t in range(k + 1)
        for shares, c in _shares(rest, k - t)
    ]


def _monomial_image(a, mono, exterior):
    """The image of a basis element of Sym^m, or (exterior) Lambda^m, given
    by its exponent vector, under the matrix with sparse columns a: e_j^k
    goes to the k-th power of column j, and a wedge factor sorted into place
    passes every larger index."""
    expansion = {(0,) * len(mono): 1}
    for j, k in enumerate(mono):
        if not k:
            continue
        nxt = {}
        for shares, y in _shares(a[j], k):
            for term, c in expansion.items():
                key = list(term)
                c *= y
                for i, t in shares:
                    if exterior and key[i]:
                        c = 0
                    elif exterior and sum(key[i + 1 :]) % 2:
                        c = -c
                    key[i] += t
                if c:
                    nxt[tuple(key)] = nxt.get(tuple(key), 0) + c
        expansion = nxt
    return {term: c for term, c in expansion.items() if c}


def _block_apply(action, factors, vector):
    """The image of a vector on the block of the factors, keyed by block
    element, under a matrix given as (sparse columns, caches of monomial
    images, None when fixed), applied one factor at a time: the block matrix
    is the product of the actions on each factor, so the work adds over the
    factors rather than multiplying."""
    a, cache = action
    for f, (m, exterior) in enumerate(factors):
        image = dict(vector)
        for element, c in vector.items():
            mono = element[f]
            if mono not in cache[exterior]:
                part = _monomial_image(a, mono, exterior)
                cache[exterior][mono] = None if part == {mono: 1} else part
            part = cache[exterior][mono]
            if part is not None and c:
                image[element] -= c
                for b, x in part.items():
                    key = element[:f] + (b,) + element[f + 1 :]
                    image[key] = image.get(key, 0) + c * x
        vector = image
    return {key: c for key, c in vector.items() if c}


def sparse_columns(a):
    """The nonzero entries (i, x) of each column of a."""
    return [tuple((i, row[j]) for i, row in enumerate(a) if row[j]) for j in range(len(a))]


def _squares_to_zero(a):
    """Whether (a - 1)^2 = 0, for a by its sparse columns: a a e_j - 2 a e_j
    + e_j = 0 for every column j that a moves."""
    for j, column in enumerate(a):
        if column != ((j, 1),):
            image = {j: 1}
            for k, y in column:
                image[k] = image.get(k, 0) - 2 * y
                for i, x in a[k]:
                    image[i] = image.get(i, 0) + x * y
            if any(image.values()):
                return False
    return True


@lru_cache(maxsize=64)
def _exponent_vectors(dim, m, exterior):
    """The basis of Sym^m, or (exterior) Lambda^m, of a dim-dimensional space
    as exponent vectors, in the order of their sorted index tuples."""
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    return tuple(tuple(map(b.count, range(dim))) for b in combos(range(dim), m))


@lru_cache(maxsize=None)
def _power_columns(a, m, exterior):
    """Sparse columns of Lambda^m(a) (exterior) or Sym^m(a), on the basis of
    `_exponent_vectors`; a is a tuple of rows, and the columns are shared by
    every piece that asks for them."""
    basis = _exponent_vectors(len(a), m, exterior)
    index = {b: i for i, b in enumerate(basis)}
    columns = sparse_columns(a)
    return [{index[b]: c for b, c in _monomial_image(columns, src, exterior).items()} for src in basis]


def _block_image(columns, factors, element):
    """The image of a block element, one exponent vector per factor, under
    the matrix with sparse columns columns: the tensor product of the images
    of its factors."""
    image = {(): 1}
    for (m, exterior), mono in zip(factors, element):
        part = _monomial_image(columns, mono, exterior)
        image = {key + (b,): c * x for key, c in image.items() for b, x in part.items()}
    return image


def _is_fixed(column, vector):
    """Exact check of M v = v for M given by column(c), its column c."""
    image = {}
    for c, x in vector.items():
        for r, y in column(c).items():
            image[r] = image.get(r, 0) + x * y
    return {r: x for r, x in image.items() if x} == vector


def _signed_matrix(move):
    """The matrix of a signed permutation given by (image, sign) of each
    basis vector."""
    out = [[0] * len(move) for _ in move]
    for c, (r, x) in enumerate(move):
        out[r][c] = x
    return tuple(map(tuple, out))


def _powers(g):
    """(m, exterior) of Lambda^m for m <= 2g and Sym^m for m <= 5."""
    return [(m, True) for m in range(2 * g + 1)] + [(m, False) for m in range(6)]


@pytest.mark.parametrize("kind", [GammaType.SYMPLECTIC, GammaType.ORTHOGONAL, GammaType.THETA])
def test_power_columns_match_the_dense_powers(kind):
    # every generator at g = 1..3, on Lambda^m and on Sym^m up to m = 5
    for g in (1, 2, 3):
        for a in generator_matrices(kind, g):
            for m, exterior in _powers(g):
                dense = _power_matrix(a, m, exterior)
                columns = _power_columns(a, m, exterior)
                assert [{r: row[c] for r, row in enumerate(dense) if row[c]} for c in range(len(dense))] == columns


@lru_cache(maxsize=256)
def _permuted(move, m, exterior):
    """The image index and sign of each basis element of Sym^m, or (exterior)
    Lambda^m, on the basis of `_exponent_vectors`, under a signed permutation
    given by the (image, sign) of each basis vector: a sorted index tuple
    goes to the sorted tuple of the images, times their signs and, for a
    wedge, the sign of the sort, which inserts each image in turn past the
    larger ones before it.  Elements that the move leaves alone stay."""
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(combos(range(len(move)), m))
    index = {b: k for k, b in enumerate(basis)}
    target = [i for i, _ in move]
    negative = [x < 0 for _, x in move]
    touched = [x < 0 or i != j for j, (i, x) in enumerate(move)]
    images, signs = list(range(len(basis))), [1] * len(basis)
    for k, b in enumerate(basis):
        if any(map(touched.__getitem__, b)):
            odd = sum(map(negative.__getitem__, b))
            image = [] if exterior else sorted(map(target.__getitem__, b))
            for i in map(target.__getitem__, b) if exterior else ():
                at = bisect.bisect(image, i)
                odd += len(image) - at
                image.insert(at, i)
            images[k] = index[tuple(image)]
            signs[k] = -1 if odd % 2 else 1
    return images, signs


def _signed_block(moves, factors):
    """Each signed permutation of moves on the block of the factors, as image
    and sign lists: the Kronecker product of its `_permuted` factors, the
    first outermost."""
    out = []
    for move in moves:
        image, sign = [0], [1]
        for m, exterior in factors:
            part_image, part_sign = _permuted(move, m, exterior)
            image = [r * len(part_image) + s for r in image for s in part_image]
            sign = [x * y for x in sign for y in part_sign]
        out.append((image, sign))
    return out


def _all_moves(g):
    """Every signed generator of each kind and every move at genus g."""
    moves = {signed_permutation(a) for kind in GammaType for a in generator_matrices(kind, g)} - {None}
    return moves | {move for kind in (GammaType.SYMPLECTIC, GammaType.ORTHOGONAL) for move in monomial_moves(kind, g)}


@pytest.mark.parametrize("g", (1, 2, 3))
def test_permutation_path_matches_the_power_columns(g):
    # every signed generator of each kind and every move, on Lambda^m and
    # on Sym^m up to m = 5: the image and sign of each basis element, and
    # the permuted index tuples and their signs, are the one entry of each
    # power column
    moves = _all_moves(g)
    assert len(moves) > g + 1
    for move in moves:
        for m, exterior in _powers(g):
            columns = _power_columns(_signed_matrix(move), m, exterior)
            basis = _exponent_vectors(2 * g, m, exterior)
            index = {mono: k for k, mono in enumerate(basis)}
            images = [invariants._signed_image(move, mono, exterior) for mono in basis]
            assert [{index[image]: sign} for image, sign in images] == columns
            images, signs = _permuted(move, m, exterior)
            assert [{r: x} for r, x in zip(images, signs)] == columns


def block_weight(element, g):
    """Per hyperbolic pair, the x_i factors minus the y_i factors of a block
    element, one exponent vector per factor."""
    return tuple(sum(mono[i] - mono[g + i] for mono in element) for i in range(g))


def _random_factors(rng, g):
    """Up to four factors (m, exterior), Lambda^{2g} and Lambda^0 included,
    whose block has at most 3000 elements."""
    while True:
        factors = []
        for _ in range(rng.randint(0, 4)):
            exterior = rng.random() < 0.5
            factors.append((rng.randint(0, 2 * g) if exterior else rng.randint(0, 4), exterior))
        sizes = [math.comb(2 * g, m) if exterior else math.comb(2 * g + m - 1, m) for m, exterior in factors]
        if math.prod(sizes) <= 3000:
            return factors


def test_weight_zero_enumeration_matches_the_filtered_product():
    # random blocks, the empty one and those with Lambda^{2g} or odd total
    # degree among them: the weight-0 elements come in the order of the
    # product
    rng = random.Random(20261019)
    seen = set()
    for _ in range(400):
        g = rng.randint(1, 3)
        factors = _random_factors(rng, g)
        product = list(itertools.product(*[_exponent_vectors(2 * g, m, exterior) for m, exterior in factors]))
        expected = [element for element in product if not any(block_weight(element, g))]
        assert invariants._block(g, {}, factors) == expected
        seen.add((not factors, (2 * g, True) in factors, sum(m for m, _ in factors) % 2, bool(expected)))
    assert {(True, False, 0, True), (False, True, 0, True), (False, False, 1, False)} <= seen


@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_weight_zero_single_factors(g):
    # C(m/2 + g - 1, g - 1) elements of Sym^m and C(g, m/2) of Lambda^m
    for m in range(13):
        expected = math.comb(m // 2 + g - 1, g - 1) if m % 2 == 0 else 0
        assert len(invariants._block(g, {}, [(m, False)])) == expected
    for m in range(2 * g + 1):
        expected = math.comb(g, m // 2) if m % 2 == 0 else 0
        assert len(invariants._block(g, {}, [(m, True)])) == expected


@pytest.mark.parametrize("exterior", [False, True], ids=["sym", "ext"])
@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_weights_are_those_of_the_listed_basis(g, exterior):
    # the weight rule against the weights of every basis element, and each
    # weight's monomials against the basis elements of that weight
    for m in range(9):
        basis = _exponent_vectors(2 * g, m, exterior)
        by_weight = collections.defaultdict(list)
        for mono in basis:
            by_weight[tuple(x - y for x, y in zip(mono[:g], mono[g:]))].append(mono)
        weights = invariants._weights(g, m, exterior)
        assert len(weights) == len(set(weights)) and set(weights) == set(by_weight), m
        for w in weights:
            assert invariants._weight_monomials(g, m, exterior, w) == by_weight[w], (m, w)


def _reference_orbit_sums(size, moved):
    """The sums of the orbits, up to sign, of size basis elements under the
    signed permutations moved, as image and sign lists, that no element of
    the group they generate negates: the (element, sign) pairs that each
    root reaches, kept when no element comes with both signs."""
    seen, sums = set(), []
    for root in range(size):
        if root in seen:
            continue
        signed, frontier = {(root, 1)}, [(root, 1)]
        while frontier:
            b, x = frontier.pop()
            for image, sign in moved:
                if (image[b], sign[b] * x) not in signed:
                    signed.add((image[b], sign[b] * x))
                    frontier.append((image[b], sign[b] * x))
        seen |= {b for b, _ in signed}
        if len(signed) == len(dict(signed)):
            sums.append(dict(signed))
    return sums


def test_move_images_match_the_kronecker_products():
    # random blocks under one to three random moves, each applied by the
    # walk one factor at a time: the orbit sums it keeps, with their signs,
    # are those of the Kronecker products of the permuted index tuples on
    # the full block, restricted to the weight-0 elements; orbits are kept
    # and dropped, and kept ones carry both signs
    rng = random.Random(20261020)
    kept = dropped = negative = 0
    for _ in range(300):
        g = rng.randint(1, 3)
        factors = _random_factors(rng, g)
        moves = rng.sample(sorted(_all_moves(g)), rng.randint(1, 3))
        product = list(itertools.product(*[_exponent_vectors(2 * g, m, exterior) for m, exterior in factors]))
        elements = invariants._block(g, {}, factors)
        index = {element: b for b, element in enumerate(product)}
        at = {index[element]: k for k, element in enumerate(elements)}
        moved = [([at[image[b]] for b in at], [sign[b] for b in at]) for image, sign in _signed_block(moves, factors)]
        sums = invariants._orbit_sums(factors, elements, moves, {})
        assert sums == _reference_orbit_sums(len(elements), moved)
        kept += len(sums)
        dropped += len(elements) - sum(map(len, sums))
        negative += any(-1 in column.values() for column in sums)
    assert kept and dropped and negative


def test_factor_wise_image_matches_the_tensor_product():
    # random integer vectors on blocks of up to 6 factors, under every kind
    # of listed generator: applying the generator one factor at a time gives
    # the image that the full tensor product of each element's factors does
    rng = random.Random(20261019)
    fixed = 0
    for _ in range(300):
        g = rng.randint(1, 3)
        a = rng.choice(generator_matrices(rng.choice((GammaType.SYMPLECTIC, GammaType.ORTHOGONAL)), g))
        factors = []
        for _ in range(rng.randint(1, 6)):
            exterior = rng.random() < 0.5
            factors.append((rng.randint(1, min(3, 2 * g) if exterior else 3), exterior))
        bases = [_exponent_vectors(2 * g, m, exterior) for m, exterior in factors]
        vector = {tuple(map(rng.choice, bases)): rng.randint(-3, 3) for _ in range(rng.randint(1, 6))}
        vector = {element: c for element, c in vector.items() if c}
        expected = {}
        columns = sparse_columns(a)
        for element, c in vector.items():
            for key, x in _block_image(columns, factors, element).items():
                expected[key] = expected.get(key, 0) + c * x
        expected = {key: x for key, x in expected.items() if x}
        assert _block_apply((columns, ({}, {})), factors, vector) == expected
        fixed += expected == vector
    # both outcomes of the exact check occur
    assert 0 < fixed < 300


def kept_derivations(kind, g):
    """Each kept generator with the oracle's derivation of N = s - 1, in the
    order of `_oracle_setup`'s derivations; every listed signed permutation
    is among the setup's moves, whose orbit sums certify it."""
    generators = generator_matrices(kind, g)
    moves, _, _, derivations = invariants._oracle_setup(kind, g)
    kept = kept_generators(kind, g)
    assert [n for n, _ in derivations] == [_n_columns(a) for a in kept]
    assert {signed_permutation(a) for a in generators} - {None} <= set(moves)
    return list(zip(kept, derivations))


@pytest.mark.parametrize("kind", [GammaType.SYMPLECTIC, GammaType.ORTHOGONAL])
@pytest.mark.parametrize("g", (1, 2, 3))
def test_listed_moves_leave_the_monomial_subgroup_alone(kind, g):
    # the setup's moves, every listed signed permutation among them, generate
    # the group that `monomial_moves` alone does, of order 4^g g!, so the
    # orbits and the first history entry dim (V_0)^H stay those of H
    moves = invariants._oracle_setup(kind, g)[0]
    assert set(monomial_moves(kind, g)) <= set(moves)
    group = _closure(monomial_moves(kind, g))
    assert len(group) == 4**g * math.factorial(g)
    assert _closure(moves) == group


def test_kept_orbit_sums_are_fixed_by_every_listed_signed_permutation():
    # random blocks at g = 1..3 for both kinds: every orbit sum that the
    # oracle keeps is its own image, applied one factor at a time, under each
    # listed signed permutation; some orbits are dropped
    rng = random.Random(20261020)
    kept = dropped = 0
    for _ in range(200):
        g = rng.randint(1, 3)
        kind = rng.choice((GammaType.SYMPLECTIC, GammaType.ORTHOGONAL))
        factors = _random_factors(rng, g)
        elements = invariants._block(g, {}, factors)
        sums = invariants._orbit_sums(factors, elements, invariants._oracle_setup(kind, g)[0], {})
        signed = [a for a in generator_matrices(kind, g) if signed_permutation(a)]
        for column in sums:
            vector = {elements[b]: x for b, x in column.items()}
            for a in signed:
                assert _block_apply((sparse_columns(a), ({}, {})), factors, vector) == vector
        kept += len(sums)
        dropped += len(elements) - sum(map(len, sums))
    assert kept and dropped


def test_negated_orbit_is_dropped():
    # Lambda^{2g} V is one weight-0 element, the determinant: the swap of the
    # first pair negates it under o, and J fixes it under sp
    for g in (1, 2, 3):
        for kind, expected in ((GammaType.ORTHOGONAL, []), (GammaType.SYMPLECTIC, [{0: 1}])):
            factors = [(2 * g, True)]
            elements = invariants._block(g, {}, factors)
            assert len(elements) == 1
            assert invariants._orbit_sums(factors, elements, invariants._oracle_setup(kind, g)[0], {}) == expected
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(2, (1,)), 4) == (0, (0, 0), "modp")


def oracle_lifts(kind, g, factors):
    """The block elements of the factors, their orbit sums and the lifted
    kernel vectors, on the orbit sums, that the oracle checks there; none
    for the orthogonal kind at g = 1, where no block is listed."""
    moves, _, _, derivations = invariants._oracle_setup(kind, g)
    elements = invariants._block(g, {}, factors)
    sums = invariants._orbit_sums(factors, elements, moves, {})
    lifts = []

    def record(vector, p, lift=invariants._lift):
        lifts.append(lift(vector, p))
        return lifts[-1]

    if derivations:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(invariants, "_lift", record)
            invariants._orbit_block(g, moves, {}, {}, derivations, factors)
    return elements, sums, [c for c in lifts if c is not None]


def row_check(derivation, factors, elements, columns, c):
    """The oracle's exact check of c: sum_k row[k] c_k = 0 over the integers
    for every row of the derivation on the columns, sparse vectors on the
    elements of the block of the factors."""
    rows = invariants._derivation_rows(factors, elements, columns, derivation)
    return not any(sum(x * c.get(k, 0) for k, x in row.items()) for row in rows.values())


def _combination(elements, columns, c):
    """sum_k c_k columns[k], keyed by block element."""
    v = collections.Counter()
    for k, x in c.items():
        for b, e in columns[k].items():
            v[elements[b]] += x * e
    return {element: x for element, x in v.items() if x}


def test_row_check_matches_the_reference_image():
    # the kept derivations of both kinds at g = 1..3: the row check of c is
    # whether the reference image rho(s) v, applied one factor at a time,
    # equals v = sum_k c_k columns[k]; on random combinations of random
    # integer vectors over blocks of up to 6 factors, as above, and on the
    # lifts that the oracle checks on random blocks, most of them
    # invariants.  A lift that passes is fixed by every listed generator:
    # the conjugacy claim that `_oracle_setup` asserts carries the check to
    # the unipotents that are not kept
    rng = random.Random(20261019)
    actions = {}
    verdicts = {True: 0, False: 0}
    moved_and_fixed = certified = 0
    for _ in range(300):
        g = rng.randint(1, 3)
        factors = []
        for _ in range(rng.randint(1, 6)):
            exterior = rng.random() < 0.5
            factors.append((rng.randint(1, min(3, 2 * g) if exterior else 3), exterior))
        bases = [_exponent_vectors(2 * g, m, exterior) for m, exterior in factors]
        elements = list({tuple(map(rng.choice, bases)) for _ in range(rng.randint(1, 6))})
        columns = [
            {b: rng.randint(-3, 3) for b in rng.sample(range(len(elements)), rng.randint(1, len(elements)))}
            for _ in range(rng.randint(1, 3))
        ]
        cases = [(factors, elements, columns, {k: rng.randint(-2, 2) for k in range(len(columns))})]
        block = _random_factors(rng, g)
        kind = rng.choice((GammaType.SYMPLECTIC, GammaType.ORTHOGONAL))
        block_elements, sums, lifts = oracle_lifts(kind, g, block)
        cases += [(block, block_elements, sums, c) for c in lifts]
        for case_kind in (GammaType.SYMPLECTIC, GammaType.ORTHOGONAL):
            for a, derivation in kept_derivations(case_kind, g):
                action = actions.setdefault(a, (sparse_columns(a), ({}, {})))
                for case in cases:
                    v = _combination(*case[1:])
                    verdict = row_check(derivation, *case)
                    assert verdict == (_block_apply(action, case[0], v) == v)
                    verdicts[verdict] += 1
                    moved_and_fixed += verdict and any(
                        _block_apply(action, case[0], {element: 1}) != {element: 1} for element in v
                    )
        for c in lifts:
            if all(row_check(derivation, block, block_elements, sums, c) for _, derivation in kept_derivations(kind, g)):
                v = _combination(block_elements, sums, c)
                for a in generator_matrices(kind, g):
                    action = actions.setdefault(a, (sparse_columns(a), ({}, {})))
                    assert _block_apply(action, block, v) == v
                certified += 1
    # both outcomes occur, some vectors are fixed although the generator
    # moves one of their elements, and some lifts are certified
    assert verdicts[True] and verdicts[False] and moved_and_fixed and certified


def derivation_by_positions(n, mono, exterior):
    """The derivation that the matrix n induces, on a basis element given by
    its sorted index tuple: the sum over the positions of the tuple of the
    tuple with that entry j replaced by each i, times n[i][j], sorted back,
    with the sign of the sort on Lambda^m."""
    image = {}
    for pos, j in enumerate(mono):
        for i, row in enumerate(n):
            seq, x = mono[:pos] + (i,) + mono[pos + 1 :], row[j]
            if x and exterior:
                x = 0 if len(set(seq)) < len(seq) else x * (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))
            if x:
                key = tuple(sorted(seq))
                image[key] = image.get(key, 0) + x
    return {key: c for key, c in image.items() if c}


def test_derivation_image_matches_the_positions():
    rng = random.Random(20261018)
    for _ in range(20):
        dim = rng.choice((4, 6))
        n = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)] for _ in range(dim)]
        for exterior, top in ((True, dim), (False, 4)):
            combos = itertools.combinations if exterior else itertools.combinations_with_replacement
            for m in range(top + 1):
                for mono in combos(range(dim), m):
                    image = invariants._derivation_image(
                        list(enumerate(sparse_columns(n))), tuple(map(mono.count, range(dim))), exterior
                    )
                    expected = derivation_by_positions(n, mono, exterior)
                    assert image == {tuple(map(key.count, range(dim))): c for key, c in expected.items()}


def piece_matrix(a, copies, degree):
    """The block-diagonal action of a on the degree piece, as a dense list."""
    blocks = []
    for alloc in _allocations(copies, degree):
        block = [[1]]
        for m, d in zip(alloc, copies.copy_degrees):
            if m:
                part = _power_matrix(a, m, d % 2 == 1)
                block = [[x * y for x in left for y in right] for left in block for right in part]
        blocks.append(block)
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at : at + len(row)] = row
        at += len(block)
    return out


def _integral(v):
    scale = math.lcm(*(Fraction(x).denominator for x in v))
    return [int(x * scale) for x in v]


def restrict_fixed(basis, m):
    """An integer basis of the vectors in the span of basis (None: the whole
    space) that the matrix m fixes, by the test-side Bareiss kernel, apart
    from the oracle's elimination."""
    mi = mat_sub(m, identity_matrix(len(m)))
    if basis is None:
        return [_integral(v) for v in bareiss_kernel_basis(mi)]
    if not basis:
        return []
    coefficients = bareiss_kernel_basis(mat_mul(mi, mat_transpose(basis)))
    return [
        [sum(c * v[i] for c, v in zip(_integral(coeffs), basis)) for i in range(len(m))]
        for coeffs in coefficients
    ]


def sampled_invariant_dim(kind, copies, degree, seed, max_samples=24, word_length=10):
    """(dimension, history) of the subspace fixed by seeded words in the
    generators, stopping once three samples leave the dimension unchanged."""
    if piece_dimension(copies, degree) == 0:
        return 0, []
    rng = random.Random(seed)
    basis = None
    history = []
    streak = 0
    for _ in range(max_samples):
        a = sample_group_element(kind, copies.g, rng.getrandbits(64), word_length)
        basis = restrict_fixed(basis, piece_matrix(a, copies, degree))
        streak = streak + 1 if history and len(basis) == history[-1] else 1
        history.append(len(basis))
        if streak >= 3 or not basis:
            break
    return len(basis), history


def finite_group_count(group, copies, degree):
    """Invariant dimension of a finite group: its average character."""
    total = sum(sum(row[i] for i, row in enumerate(piece_matrix(a, copies, degree))) for a in group)
    assert total % len(group) == 0
    return total // len(group)


def test_history_is_non_increasing():
    copies = GradedVCopies(2, (1,))
    dim, history = sampled_invariant_dim(GammaType.SYMPLECTIC, copies, 2, seed=9)
    assert history
    assert dim == history[-1] == 1
    assert all(x >= y for x, y in zip(history, history[1:]))


def test_fixed_subspace_order_independent():
    copies = GradedVCopies(2, (2,))
    mats = [piece_matrix(sample_group_element(GammaType.ORTHOGONAL, 2, seed), copies, 4) for seed in range(4)]
    dims = []
    for order in (mats, mats[::-1]):
        basis = None
        for m in order:
            basis = restrict_fixed(basis, m)
        dims.append(len(basis))
    assert dims == [1, 1]


def test_oracle_counts_the_finite_orthogonal_group():
    from test_groups import orthogonal_rank_one_group

    group = orthogonal_rank_one_group()
    for degrees, degree in (((2,), 4), ((2, 4), 12), ((1, 3), 4)):
        copies = GradedVCopies(1, degrees)
        expected = finite_group_count(group, copies, degree)
        assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, degree).dimension == expected


@pytest.mark.parametrize("degree", range(17))
def test_sampled_route_matches_oracle_on_crosscheck_pieces(degree):
    # the pieces of `crosscheck-sec6 --n 8 --g 2 --maxdeg 16 --oracle`, with
    # the per-degree seeds that command used to draw at its default seed 0
    copies = GradedVCopies(2, tuple(go_shifted_degrees(8, 16)))
    kind = gamma_kind_for_oracle(8)
    sampled, _ = sampled_invariant_dim(kind, copies, degree, seed=degree)
    # samples lie in the generated group, so they fix at least its invariants;
    # at g = 2 they cut down to exactly those
    assert sampled == brute_force_invariant_dim(kind, copies, degree).dimension


def test_seed_independence():
    tables = []
    for seed in ("1", "2"):
        out = io.StringIO()
        argv = ["invariant-oracle", "--type", "o", "--g", "2", "--degrees", "1", "--deg", "4", "--seed", seed]
        assert run(argv, out=out) == 0
        envelope = json.loads(out.getvalue())
        assert envelope["parameters"]["seed"] == int(seed)
        tables.append(envelope["table"])
    assert tables[0] == tables[1] == [{"dimension": 0, "history": "0 0", "piece": 1, "route": "modp"}]


# ---------------------------------------------------------------------------
# the full-kernel route: the rows of rho(s) - 1 for every listed s, an
# independent reference for both kinds


def _kron_columns(factors):
    """Sparse columns of the Kronecker product, the first factor outermost."""
    columns = [{0: 1}]
    for part in factors:
        size = len(part)
        columns = [
            {r * size + s: x * y for r, x in left.items() for s, y in right.items()}
            for left in columns
            for right in part
        ]
    return columns


def _rows_minus_identity(columns, keep):
    """The nonzero rows of M - 1 on the basis vectors keep, as sparse rows on
    their places in keep, for M given by its columns: their kernel is the
    vectors in the span of keep that M fixes."""
    rows = {}
    for k, c in enumerate(keep):
        for r, x in columns[c].items():
            rows.setdefault(r, {})[k] = x
        row = rows.setdefault(c, {})
        x = row.get(k, 0) - 1
        if x:
            row[k] = x
        else:
            row.pop(k, None)
    return [row for row in rows.values() if row]


def _fixed_by_columns(generator_columns, vector):
    return all(_is_fixed(columns.__getitem__, vector) for columns in generator_columns)


def _block_kernel_history(generator_columns):
    """Joint-kernel dimension of M - 1 after each generator M of one block,
    given by its sparse columns; whether the certificate failed: False when
    every kernel vector modulo PRIME lifts to one every M fixes, else True,
    with the elimination rerun over Q; and the kernel vectors, lifted or over
    Q."""
    size, p = len(generator_columns[0]), invariants.PRIME
    rows_of = partial(_rows_minus_identity, keep=range(size))
    history, pivots = invariants._echelon_history(generator_columns, rows_of, size, p)
    vectors = []
    for vector in linalg._kernel_vectors(pivots, size, p) if history[-1] else ():
        lifted = invariants._lift(vector, p)
        if lifted is None or not _fixed_by_columns(generator_columns, lifted):
            history, pivots = invariants._echelon_history(generator_columns, rows_of, size, 0)
            return history, True, linalg._kernel_vectors(pivots, size, 0) if history[-1] else []
        vectors.append(lifted)
    return history, False, vectors


def kept_generators(kind, g):
    """The listed unipotent generators whose derivations the oracle
    eliminates, one per H-conjugacy class: the first for the orthogonal
    kind, T_x1 and, at g >= 2, T_{x1 + y2} for the symplectic kind."""
    generators = generator_matrices(kind, g)
    if kind is GammaType.ORTHOGONAL:
        return [a for a in generators if signed_permutation(a) is None][:1]
    form = form_for_kind(kind, g)
    vectors = [[int(i == 0) for i in range(2 * g)]] + [[int(i in (0, g + 1)) for i in range(2 * g)]] * (g > 1)
    kept = [tuple(map(tuple, transvection(v, form))) for v in vectors]
    assert all(a in generators for a in kept)
    return kept


def kernel_invariant_dim(kind, copies, degree):
    """The count as the joint kernel of rho(s) - 1, block by block, over the
    oracle's moves, then its kept generators, then every other listed
    generator, on the whole block: the last entry is the count of the
    generated group, and the route is that of this reference's own
    certificate.  With it, the history of the same elimination on the
    weight-0 basis vectors (on all of them for the orthogonal kind at g = 1)
    after the last move and after each kept generator, the entries the oracle
    reports; and the kernel vectors on the whole blocks, by block element."""
    g = copies.g
    moves = [_signed_matrix(move) for move in monomial_moves(kind, g)]
    first = moves + kept_generators(kind, g)
    generators = first + [a for a in generator_matrices(kind, g) if a not in first]
    zero = kind is GammaType.SYMPLECTIC or g > 1
    history = [0] * len(generators) if piece_dimension(copies, degree) else []
    restricted = history[len(moves) - 1 : len(first)]
    vectors, rational = [], False
    for alloc in _allocations(copies, degree):
        factors = [(m, d % 2 == 1) for m, d in zip(alloc, copies.copy_degrees) if m]
        bases = [_exponent_vectors(2 * g, m, exterior) for m, exterior in factors]
        elements = list(itertools.product(*bases))
        columns = [_kron_columns([_power_columns(a, m, exterior) for m, exterior in factors]) for a in generators]
        block_history, block_rational, block_vectors = _block_kernel_history(columns)
        keep = [b for b, element in enumerate(elements) if not (zero and any(block_weight(element, g)))]
        rows_of = partial(_rows_minus_identity, keep=keep)
        block_restricted = invariants._echelon_history(columns[: len(first)], rows_of, len(keep), invariants.PRIME)[0]
        block_restricted = block_restricted[len(moves) - 1 :]
        history = [h + b for h, b in zip(history, block_history)]
        restricted = [h + b for h, b in zip(restricted, block_restricted)]
        rational |= block_rational
        vectors += [{elements[b]: x for b, x in vector.items()} for vector in block_vectors]
    count = OracleResult(history[-1] if history else 0, tuple(history), "rational" if rational else "modp")
    return count, tuple(restricted), vectors


def _sparse_product(a, b):
    """The product of sparse matrices given as {row: {column: entry}}."""
    out = {}
    for r, row in a.items():
        acc = {}
        for k, x in row.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: x for c, x in acc.items() if x}
        if acc:
            out[r] = acc
    return out


# blocks, as factors (m, exterior), on which a transvection's action is
# compared with the exponential of its derivation: Sym^m, Lambda^m, mixed
TRANSVECTION_BLOCKS = (
    [[(m, False)] for m in range(6)]
    + [[(m, True)] for m in range(1, 7)]
    + [[(2, False), (1, True)], [(1, True), (2, False), (1, True)], [(1, False), (2, True)]]
)


@pytest.mark.parametrize("g", (1, 2, 3))
def test_transvections_act_as_the_exponential_of_their_derivation(g):
    # every listed symplectic generator but J is a transvection T, and every
    # listed orthogonal generator that is not a signed permutation is an
    # E_ij (none at g = 1); for each such s, N = s - 1 squares to 0, and
    # rho(s) = exp(D_N), exactly: so rho(s) - 1 = D_N U with U = 1 + D_N/2!
    # + ... invertible, the rows of D_N have the kernel of rho(s) - 1, and the
    # exact check's D_N v = 0 is rho(s) v = v
    generators = generator_matrices(GammaType.SYMPLECTIC, g)
    assert [a for a in generators if signed_permutation(a)] == [generators[-1]]
    orthogonal = [a for a in generator_matrices(GammaType.ORTHOGONAL, g) if signed_permutation(a) is None]
    assert len(orthogonal) == g * (g - 1)
    for a in generators[:-1] + tuple(orthogonal):
        n = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert any(map(any, n)) and not any(map(any, mat_mul(n, n)))
        assert _squares_to_zero(sparse_columns(a))
        derivation = (_n_columns(a), ({}, {}))
        assert not invariants._product_sum([(1, derivation[0], derivation[0])])
        for factors in TRANSVECTION_BLOCKS:
            if any(exterior and m > 2 * g for m, exterior in factors):
                continue
            elements = list(itertools.product(*[_exponent_vectors(2 * g, *factor) for factor in factors]))
            index = {element: b for b, element in enumerate(elements)}
            columns = [{b: 1} for b in range(len(elements))]
            rows = invariants._derivation_rows(factors, elements, columns, derivation)
            d = {index[element]: row for element, row in rows.items()}
            exp, term, j = {}, {b: {b: Fraction(1)} for b in range(len(elements))}, 0
            while term:
                for r, row in term.items():
                    for c, x in row.items():
                        exp[r, c] = exp.get((r, c), 0) + x
                j += 1
                term = {r: {c: x / j for c, x in row.items()} for r, row in _sparse_product(d, term).items()}
            rho = _kron_columns([_power_columns(a, m, exterior) for m, exterior in factors])
            assert {key: x for key, x in exp.items() if x} == {(r, c): x for c, col in enumerate(rho) for r, x in col.items()}


# the largest piece dimension the comparisons with the full-kernel reference
# reach, the symplectic kind's former cap
REFERENCE_PIECE_DIM = 4096


def crosscheck_pieces(n, g):
    """The pieces of `crosscheck-sec6 --n n --g g --oracle` up to the degree
    below its first piece above REFERENCE_PIECE_DIM."""
    top = 0
    while piece_dimension(GradedVCopies(g, tuple(go_shifted_degrees(n, top + 1))), top + 1) <= REFERENCE_PIECE_DIM:
        top += 1
    return [(g, tuple(go_shifted_degrees(n, top)), degree) for degree in range(top + 1)]


# (kind, g, copy degrees, degree) of each piece acceptance criterion 6 checks
CRITERION_6_PIECES = (
    (GammaType.ORTHOGONAL, 1, (2,), 4),
    (GammaType.ORTHOGONAL, 2, (2,), 4),
    (GammaType.ORTHOGONAL, 3, (2,), 4),
    (GammaType.SYMPLECTIC, 1, (1,), 2),
    (GammaType.SYMPLECTIC, 2, (1,), 2),
    (GammaType.SYMPLECTIC, 1, (1, 3), 4),
    (GammaType.SYMPLECTIC, 2, (1, 5), 6),
    (GammaType.SYMPLECTIC, 2, (1, 5, 25, 125), 156),
    (GammaType.SYMPLECTIC, 1, (1, 3, 9, 27), 40),
)


# (g, copy degrees, degree) of the symplectic pieces both routes count: those
# of criterion 6, of `crosscheck-sec6 --n 9` and `--n 11` at g = 1..3 up to
# REFERENCE_PIECE_DIM, and pieces with even copies
SYMPLECTIC_PIECES = (
    [piece[1:] for piece in CRITERION_6_PIECES if piece[0] is GammaType.SYMPLECTIC]
    + [piece for n in (9, 11) for g in (1, 2, 3) for piece in crosscheck_pieces(n, g)]
    + [(1, (2, 4), degree) for degree in range(41)]
    + [(2, (1, 2), degree) for degree in range(21)]
)


@pytest.mark.parametrize("g, degrees, degree", SYMPLECTIC_PIECES)
def test_symplectic_route_matches_the_full_kernel(g, degrees, degree):
    # the dimension and route of the reference over every listed generator,
    # and its history after the moves and each kept transvection: the orbit
    # sums under the moves span the joint kernel of their rho(h) - 1, and
    # rho(T) - 1 and the derivation of T - 1 have the same rows up to an
    # invertible factor, modulo PRIME too
    copies = GradedVCopies(g, degrees)
    result = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, degree)
    reference, history, vectors = kernel_invariant_dim(GammaType.SYMPLECTIC, copies, degree)
    assert result.history == history
    assert result.dimension == reference.dimension == len(vectors)
    assert result.route == reference.route == "modp"
    # every invariant of the whole block lies in V_0
    assert not any(any(block_weight(element, g)) for vector in vectors for element in vector)


# ---------------------------------------------------------------------------
# the certificate


def test_rational_reconstruction_round_trip():
    p = invariants.PRIME
    bound = math.isqrt(p // 2)
    for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 12), Fraction(bound, bound - 1)):
        residue = q.numerator * pow(q.denominator, -1, p) % p
        assert invariants.rational_reconstruction(residue, p) == (q.numerator, q.denominator)


def test_rational_reconstruction_none():
    # modulo 13 the bound is 2: 0, +-1, +-2 and +-1/2 are 0, 1, 12, 2, 11, 7
    # and 6; no fraction that small is 5 mod 13.  Each comes back as the
    # reduced pair (n, d), d > 0
    assert [invariants.rational_reconstruction(a, 13) for a in (0, 1, 12, 2, 11, 7, 6)] == [
        (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
    ]
    assert [a for a in range(13) if invariants.rational_reconstruction(a, 13) is None] == [3, 4, 5, 8, 9, 10]


# (kind, g, copy degrees, degree) of the squares of the orthogonal form,
# Sym^4 V at g = 2 and 3
SQUARED_FORMS = ((GammaType.ORTHOGONAL, 2, (2,), 8), (GammaType.ORTHOGONAL, 3, (2,), 8))


def test_tiny_prime_falls_back_to_rational(monkeypatch):
    pieces = CRITERION_6_PIECES + SQUARED_FORMS
    exact = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in pieces}
    assert [result.route for result in exact.values()] == ["modp"] * 11
    # on V_0, Sym^2 V keeps only the form x_1 y_1 + x_2 y_2 (+ x_3 y_3),
    # whose entries 1 lift even modulo 2; the square of the form has the
    # entry 2 on x_1 y_1 x_2 y_2, which vanishes modulo 2, so Sym^4 V at g = 2
    # and 3 fails its certificate; on the two largest symplectic tensor powers
    # the kernel modulo 2 is larger than over Q.  The signs of an orbit sum
    # are exact, so the smaller invariants lift even modulo 2
    monkeypatch.setattr(invariants, "PRIME", 2)
    fallback = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in pieces}
    assert {piece for piece, result in fallback.items() if result.route == "rational"} == set(
        CRITERION_6_PIECES[7:] + SQUARED_FORMS
    )
    for piece, result in fallback.items():
        assert result.dimension == exact[piece].dimension
        if result.route == "rational":
            # the elimination over Q gives the exact history
            assert result.history == exact[piece].history


def test_failed_lift_falls_back_to_rational(monkeypatch):
    # one generator M with M - 1 = [[1, -3], [0, 0]]: its kernel is spanned
    # by (3, 1), and modulo 5 no fraction n/d with |n|, d <= 1 is 3
    columns = [{0: 2}, {0: -3, 1: 1}]
    assert _block_kernel_history([columns]) == ([1], False, [{0: 3, 1: 1}])
    monkeypatch.setattr(invariants, "PRIME", 5)
    assert invariants.rational_reconstruction(3, 5) is None
    assert _block_kernel_history([columns]) == ([1], True, [{0: 3, 1: 1}])


def test_symplectic_certificate_falls_back_to_rational(monkeypatch):
    # Sym^4 V at g = 2: V_0^H is spanned by the orbit sum x_1^2 y_1^2 +
    # x_2^2 y_2^2, and the derivations take each y_i^2 to 2 x_i y_i and the
    # like, which vanish modulo 2, so the kernel modulo 2 does not shrink to
    # 0 and its vector fails the exact check; the rerun over Q gives the
    # exact history, where the elimination modulo 2 reads 1 1 1
    copies = GradedVCopies(2, (2,))
    exact = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 8)
    assert exact == (0, (1, 0, 0), "modp")
    monkeypatch.setattr(invariants, "PRIME", 2)
    assert brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 8) == exact._replace(route="rational")


# (g, copy degrees, degree) of the orthogonal pieces both routes count: those
# of criterion 6, of `crosscheck-sec6 --n 8 --g 2 --maxdeg 16`, of O_{1,1}(Z)
# in test_oracle_counts_the_finite_orthogonal_group, and Sym^m V at g = 2..4
# up to m = 16 within REFERENCE_PIECE_DIM
ORTHOGONAL_PIECES = (
    [piece[1:] for piece in CRITERION_6_PIECES if piece[0] is GammaType.ORTHOGONAL]
    + [(2, tuple(go_shifted_degrees(8, 16)), degree) for degree in range(17)]
    + [(1, (2,), 4), (1, (2, 4), 12), (1, (1, 3), 4)]
    + [
        (g, (2,), 2 * m)
        for g in (2, 3, 4)
        for m in range(16 + 1)
        if math.comb(2 * g + m - 1, m) <= REFERENCE_PIECE_DIM
    ]
)


@pytest.mark.parametrize("g, degrees, degree", ORTHOGONAL_PIECES)
def test_orbit_route_matches_the_full_kernel(g, degrees, degree):
    copies = GradedVCopies(g, degrees)
    result = brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, degree)
    reference, history, vectors = kernel_invariant_dim(GammaType.ORTHOGONAL, copies, degree)
    assert result.route == reference.route == "modp"
    assert result.dimension == reference.dimension == len(vectors)
    assert result.history == history
    # at g >= 2 every invariant of the whole block lies in V_0
    outside = any(any(block_weight(element, g)) for vector in vectors for element in vector)
    assert not outside or g == 1
    piece = piece_dimension(copies, degree)
    assert len(result.history) == (0 if not piece else 1 if g == 1 else 2)
    assert all(x >= y for x, y in zip((piece,) + result.history, result.history))
    assert result.history[-1:] in ((), (result.dimension,))


def test_rank_one_orthogonal_invariant_outside_weight_zero():
    # O_{1,1}(Z) is finite, and x^2 + y^2 in Sym^2 V is an invariant of weight
    # +-2, so at g = 1 the orthogonal kind is counted by Molien's formula,
    # not on V_0
    copies = GradedVCopies(1, (2,))
    reference, history, vectors = kernel_invariant_dim(GammaType.ORTHOGONAL, copies, 4)
    assert reference.dimension == 2 and history == (2,)
    assert any(any(block_weight(element, 1)) for vector in vectors for element in vector)
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 4) == (2, (2,), "modp")



def _kept_twice(kind, g):
    """The listed generators with T_x2 in the place of T_{x1 + y2}, which
    stays listed after it: the setup keeps T_x1 and T_x2, one class twice."""
    generators = listed_generators(kind, g)
    return generators[: 2 * g] + (generators[1],) + generators[2 * g :]


@pytest.mark.parametrize(
    "kind, g, listed, moves",
    [
        (GammaType.SYMPLECTIC, 2, _kept_twice, monomial_moves),
        # the swap and sign flip of the first pair alone: no h takes E_12 to E_21
        (GammaType.ORTHOGONAL, 2, listed_generators, lambda kind, g: monomial_moves(kind, g)[:2]),
        # the transvection along x_1 + x_2 + x_3 appended
        (
            GammaType.SYMPLECTIC,
            3,
            lambda kind, g: listed_generators(kind, g)
            + (Generator(_n_columns(transvection([1, 1, 1, 0, 0, 0], form_for_kind(kind, g))), None),),
            monomial_moves,
        ),
    ],
    ids=["sp-kept-twice", "o-without-pair-permutations", "sp-x1+x2+x3"],
)
def test_setup_rejects_a_listed_unipotent_outside_the_kept_classes(monkeypatch, kind, g, listed, moves):
    # the conjugacy claim, that every listed unipotent is +- a conjugate of
    # a kept one under H, is asserted by the setup before any block is
    # counted; without it a kept derivation too few would raise the count
    monkeypatch.setattr(invariants, "listed_generators", listed)
    monkeypatch.setattr(invariants, "monomial_moves", moves)
    monkeypatch.setattr(invariants, "_oracle_setup", invariants._oracle_setup.__wrapped__)
    monkeypatch.setattr(invariants, "_orbit_block", lambda *args: pytest.fail("a block was counted"))
    with pytest.raises(AssertionError, match="not \\+-conjugate to a kept one"):
        brute_force_invariant_dim(kind, GradedVCopies(g, (2,)), 8)


@pytest.mark.parametrize("kind, processed", [(GammaType.ORTHOGONAL, 36), (GammaType.SYMPLECTIC, 216)])
def test_conjugacy_closure_stops_once_every_listed_unipotent_is_reached(monkeypatch, kind, processed):
    # at g = 10 the H-orbit of the kept N, with N and -N as one key, has 180
    # keys for o (360 conjugates) and 380 for sp; the setup asks for
    # monomial_moves once, the closure runs through them once for each key
    # that it processes, and it stops when the last listed N, or -N, has
    # been reached
    calls, passes = [], []

    class Counted(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    def counted(kind, g):
        calls.append((kind, g))
        return Counted(monomial_moves(kind, g))

    monkeypatch.setattr(invariants, "monomial_moves", counted)
    invariants._oracle_setup.__wrapped__(kind, 10)
    assert len(calls) == 1 and len(passes) == processed


def test_a_lift_that_fails_its_rows_reruns_over_q(monkeypatch):
    # Sym^4 V at g = 2: a lift with one entry off by 1 is not annihilated by
    # the rows of E_12, so the block is eliminated again over Q, exactly
    copies = GradedVCopies(2, (2,))
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8) == (1, (2, 1), "modp")
    lift = invariants._lift

    def off_by_one(vector, p):
        c = lift(vector, p)
        return {**c, min(c): c[min(c)] + 1}

    monkeypatch.setattr(invariants, "_oracle_setup", invariants._oracle_setup.__wrapped__)
    monkeypatch.setattr(invariants, "_lift", off_by_one)
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8) == (1, (2, 1), "rational")


def test_orbit_certificate_falls_back_to_rational(monkeypatch):
    # Sym^4 V at g = 2: its invariant q^2 has the entry 2 on x_1 y_1 x_2 y_2,
    # which vanishes modulo 2
    copies = GradedVCopies(2, (2,))
    exact = brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8)
    assert exact == (1, (2, 1), "modp")
    monkeypatch.setattr(invariants, "PRIME", 2)
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8) == (1, (2, 1), "rational")


def rank_one_molien_series(copy_degrees, top):
    """Invariant counts of O_{1,1}(Z) = {+-I, +-swap} on the free model, up
    to degree top, by Molien's formula: the average over the four elements
    of prod 1/det(1 - q^d h) over even copies and prod det(1 + q^d h) over
    odd ones.  The eigenvalues are (1, 1) for I, (-1, -1) for -I and (1, -1)
    for either swap."""
    total = [0] * (top + 1)
    for eigenvalues, weight in (((1, 1), 1), ((-1, -1), 1), ((1, -1), 2)):
        series = [1] + [0] * top
        for d in copy_degrees:
            for sign in eigenvalues:
                if d % 2:  # times 1 + sign q^d
                    for e in range(top, d - 1, -1):
                        series[e] += sign * series[e - d]
                else:  # divided by 1 - sign q^d
                    for e in range(d, top + 1):
                        series[e] += sign * series[e - d]
        total = [t + weight * x for t, x in zip(total, series)]
    assert all(t % 4 == 0 for t in total)
    return [t // 4 for t in total]


def test_orbit_route_reach():
    # pieces the exponent and basis caps refused although they are quick
    started = time.perf_counter()
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(1, (2,)), 40) == (11, (11,), "modp")
    report = invariant_crosscheck(10, 1, 40, with_oracle=True)
    assert list(report.oracle) == rank_one_molien_series(go_shifted_degrees(10, 40), 40)
    report = invariant_crosscheck(8, 2, 36, with_oracle=True)
    assert all(report.agree) and report.oracle[36] == 20
    assert time.perf_counter() - started < 2
    # n = 8, g = 3 up to degree 40 passes the pre-check alone: its top piece
    # has 81816 dimensions and takes seconds to count, and the request sums
    # under the request cap, 24 times the pieces' dimensions
    copies = GradedVCopies(3, tuple(go_shifted_degrees(8, 40)))
    works = invariants._orbit_work(GammaType.ORTHOGONAL, copies, 40)
    assert max(works) == works[40] <= WORK_CAP
    assert sum(works) == 24 * sum(piece_dimension(copies, d) for d in range(41)) == 3452400 <= REQUEST_WORK_CAP
    assert piece_dimension(copies, 40) == 81816
    # the largest symplectic g = 1 request the summed cap accepts at n = 9
    copies = GradedVCopies(1, tuple(go_shifted_degrees(9, 114)))
    works = invariants._orbit_work(GammaType.SYMPLECTIC, copies, 114)
    assert sum(works[:114]) == 4711464 <= REQUEST_WORK_CAP < sum(works) == 5063112


def _no_block(*args):
    raise AssertionError("a block was listed")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_rank_one_orthogonal_count_matches_molien_and_the_full_kernel(degrees):
    # random copy lists at g = 1, in every degree up to 30: the route's count
    # is the test-side Molien series, with its eigenvalues written in, and on
    # pieces within REFERENCE_PIECE_DIM the full kernel on whole blocks; and
    # no block is listed
    copies = GradedVCopies(1, tuple(degrees))
    series = rank_one_molien_series(copies.copy_degrees, 30)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_block", _no_block)
        for degree in range(31):
            piece = piece_dimension(copies, degree)
            result = brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, degree)
            assert result == (series[degree], (series[degree],) if piece else (), "modp")
            if piece <= REFERENCE_PIECE_DIM:
                reference, history, _ = kernel_invariant_dim(GammaType.ORTHOGONAL, copies, degree)
                assert (reference.dimension, reference.route, history) == (result.dimension, "modp", result.history)


def test_rank_one_orthogonal_route_asserts_the_group_order(monkeypatch):
    # the count is a mean over the group that the listed moves generate:
    # without the sign flip they generate {I, swap}, of order 2, and the
    # route stops rather than count
    swap, flip = listed_generators(GammaType.ORTHOGONAL, 1)
    assert flip.move == ((0, -1), (1, -1))
    monkeypatch.setattr(invariants, "listed_generators", lambda kind, g: (swap,))
    with pytest.raises(AssertionError, match="order 4"):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(1, (2,)), 4)


def test_oracle_rejects_bad_requests():
    copies = GradedVCopies(2, (2,))
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.THETA, copies, 4)
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, -1)
    # Sym^15 of a 6-dimensional copy: the orthogonal work counts 2g(g + 1)
    # 15504 visits, the symplectic work 8(g + 8) 15504, both inside the cap,
    # and Sym^30, 24 times C(35, 5) = 324632, is above it
    assert invariants._orbit_work(GammaType.ORTHOGONAL, GradedVCopies(3, (2,)), 30)[30] == 24 * 15504
    assert invariants._orbit_work(GammaType.SYMPLECTIC, GradedVCopies(3, (2,)), 30)[30] == 88 * 15504
    with pytest.raises(OracleCapExceeded, match=f"orbit-route work {24 * 324632} > cap {WORK_CAP}"):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(3, (2,)), 60)


def test_oracle_caps_the_piece_not_the_symmetric_exponent():
    # the symplectic route builds no power of a transvection, so a high
    # symmetric power inside the work cap runs: Sym^17 and Sym^26 V at
    # g = 2 (1140 and 3654 dimensions), Sym^500 V at g = 1, Sym^15 V at g = 3
    for g, degree in ((2, 34), (2, 52), (1, 1000), (3, 30)):
        assert brute_force_invariant_dim(GammaType.SYMPLECTIC, GradedVCopies(g, (2,)), degree).dimension == 0
    # a piece above the cap names it: Sym^20 V at g = 3, 88 times 53130
    with pytest.raises(OracleCapExceeded, match=f"orbit-route work 4675440 > cap {WORK_CAP}"):
        brute_force_invariant_dim(GammaType.SYMPLECTIC, GradedVCopies(3, (2,)), 40)
    # Sym^16 V under O_{1,1}(Z) = {+-I, +-swap} has one invariant per orbit
    # {x^a y^b, x^b y^a}; and odd copies carry no symmetric power
    copies = GradedVCopies(1, (2,))
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 32).dimension == 9
    odd = GradedVCopies(1, (1, 3, 9, 27, 81, 243))
    assert brute_force_invariant_dim(GammaType.SYMPLECTIC, odd, 364).dimension == 5


def test_oracle_kind_by_parity():
    assert gamma_kind_for_oracle(8) is GammaType.ORTHOGONAL
    assert gamma_kind_for_oracle(9) is GammaType.SYMPLECTIC


# ---------------------------------------------------------------------------
# crosscheck report


def test_crosscheck_counts_agree():
    report = invariant_crosscheck(8, 3, 12)
    assert all(report.agree)
    assert len(report.stable) == len(report.ring) == len(report.oracle) == 13
    assert report.oracle == (None,) * 13
    assert report.stable[8] == 1
    assert report.ring[8] == 1


def test_crosscheck_with_oracle_small():
    report = invariant_crosscheck(8, 2, 4, with_oracle=True)
    assert all(report.agree)
    assert report.oracle[0] == 1
    assert report.oracle[4] == 0


@pytest.mark.parametrize("n", [8, 9, 10, 11, 20, 37])
def test_shifted_pair_counts_match_the_pair_list(n):
    for max_degree in (0, 3, 16, 61, 300):
        listed = collections.Counter(x + y for x, y in stable_pair_degrees(n, max_degree))
        assert shifted_pair_counts(n, max_degree) == sorted(listed.items())


def _mutant(counts):
    """One more generator in the first degree that has one."""
    (d, c), *rest = counts
    return [(d, c + 1), *rest]


@pytest.mark.parametrize("side", ["stable", "ring"])
@pytest.mark.parametrize("n", [8, 9, 14])
def test_crosscheck_catches_a_wrong_count_on_either_side(side, n, monkeypatch):
    # each side's count feeds its own series once they differ, so a wrong
    # count shows from its first degree on
    first = pair_degree_counts(n, 60)[0][0]
    if side == "stable":
        counts = shifted_pair_counts
        monkeypatch.setattr(invariants, "shifted_pair_counts", lambda *a: _mutant(counts(*a)))
    else:
        # the ring's series and the count compared with it read one name
        counts = pair_degree_counts
        for module in (invariants, torelli.mt):
            monkeypatch.setattr(module, "pair_degree_counts", lambda *a: _mutant(counts(*a)))
    report = invariant_crosscheck(n, 2, 60)
    assert report.agree[:first] == [True] * first
    assert report.agree[first] is False and not all(report.agree)
    mutated = getattr(report, side)
    other = report.ring if side == "stable" else report.stable
    assert mutated[first] == other[first] + 1
    monkeypatch.undo()
    assert all(invariant_crosscheck(n, 2, 60).agree)


def test_crosscheck_checks_every_piece_before_any_work():
    # the first piece whose work is above the cap: for n = 9 in degree 16 at
    # g = 10, 144 times 22800; for n = 8 in degree 44 at g = 3, 24 times
    # 178794; and for n = 10 in degree 100 at g = 1
    assert piece_dimension(GradedVCopies(10, tuple(go_shifted_degrees(9, 16))), 16) == 22800
    assert piece_dimension(GradedVCopies(3, tuple(go_shifted_degrees(8, 44))), 44) == 178794
    for n, g, maxdeg, message in (
        (9, 10, 5000, f"orbit-route work {144 * 22800} > cap {WORK_CAP}"),
        (8, 3, 6000, f"orbit-route work {24 * 178794} > cap {WORK_CAP}"),
        (10, 1, 5000, f"orbit-route work 2542440 > cap {WORK_CAP}"),
        # every piece is under the cap, and the 100 of them sum above the
        # request's
        (10, 1, 99, f"orbit-route work 13196312 summed up to degree 99 > cap {REQUEST_WORK_CAP}"),
        # and the same on the symplectic side
        (9, 1, 114, f"orbit-route work 5063112 summed up to degree 114 > cap {REQUEST_WORK_CAP}"),
        (11, 1, 103, f"orbit-route work 5289912 summed up to degree 103 > cap {REQUEST_WORK_CAP}"),
    ):
        started = time.perf_counter()
        with pytest.raises(OracleCapExceeded, match=message):
            invariant_crosscheck(n, g, maxdeg, with_oracle=True)
        assert time.perf_counter() - started < 0.5
        # without the oracle there is no cap to meet
        assert all(invariant_crosscheck(n, g, min(maxdeg, 200)).agree)


def test_crosscheck_window_requires_large_n():
    with pytest.raises(ValueError):
        invariant_crosscheck(7, 2, 8)
    with pytest.raises(ValueError):
        invariant_crosscheck(8, 0, 8)
