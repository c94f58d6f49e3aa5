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

import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest

from torelli import invariants
from torelli.cli import run
from torelli.graded import free_graded_commutative_series
from torelli.groups import GammaType, group_generators, sample_group_element
from torelli.invariants import (
    WORK_CAP,
    OracleCapExceeded,
    GradedVCopies,
    _allocations,
    brute_force_invariant_dim,
    gamma_kind_for_oracle,
    go_homotopy_rank,
    go_shifted_degrees,
    invariant_crosscheck,
    mapping_space_homotopy,
    matchings_count,
    piece_dimension,
    stable_invariant_series,
    stable_pair_degrees,
    torelli_model_series,
    two_part_partitions,
)
from torelli.linalg import identity_matrix, kernel_basis, mat_mul

from test_linalg import mat_sub, mat_transpose


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


def test_model_series_frozen():
    assert torelli_model_series(3, 1, 6).coefficients == (1, 2, 1, 0, 0, 2, 4)
    assert torelli_model_series(9, 2, 12).coefficients == (
        1, 0, 0, 4, 0, 0, 6, 4, 0, 4, 16, 4, 1,
    )
    assert torelli_model_series(3, 0, 4).coefficients == (1, 0, 0, 0, 0)


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
def test_tail_dimensions_once_per_request(kind):
    # the route's piece dimension, its allocations (and for the orthogonal
    # kind its work count) and the CLI's piece column read one cached table,
    # of tuples, so that none of them can change it for the others
    invariants._tail_dimensions.cache_clear()
    argv = ["invariant-oracle", "--type", kind, "--g", "1", "--degrees", "1,3,9,27", "--deg", "40"]
    assert run(argv, out=io.StringIO()) == 0
    assert invariants._tail_dimensions.cache_info().misses == 1
    tails = invariants._tail_dimensions(GradedVCopies(1, (1, 3, 9, 27)), 40)
    assert isinstance(tails, tuple) and all(isinstance(tail, tuple) for tail in tails)


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
    copies = GradedVCopies(2, (1,))
    result = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 2)
    assert len(result.history) == len(invariants.group_generators(GammaType.SYMPLECTIC, 2))
    assert result.history[-1] == result.dimension == 1
    assert all(x >= y for x, y in zip((piece_dimension(copies, 2),) + result.history, result.history))
    assert result.route == "modp"


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


@pytest.mark.parametrize("kind", [GammaType.SYMPLECTIC, GammaType.ORTHOGONAL, GammaType.THETA])
def test_power_columns_match_the_dense_powers(kind):
    # every generator at g = 1..3, on Lambda^m and on Sym^m up to m = 5
    for g in (1, 2, 3):
        for a in group_generators(kind, g):
            for m, exterior in [(m, True) for m in range(2 * g + 1)] + [(m, False) for m in range(6)]:
                dense = _power_matrix(a, m, exterior)
                columns = invariants._power_columns(a, m, exterior)
                assert [{r: row[c] for r, row in enumerate(dense) if row[c]} for c in range(len(dense))] == columns


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
                        list(enumerate(invariants._sparse_columns(n))), tuple(map(mono.count, range(dim))), exterior
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
    space) that the matrix m fixes."""
    mi = mat_sub(m, identity_matrix(len(m)))
    if basis is None:
        return [_integral(v) for v in kernel_basis(mi)]
    if not basis:
        return []
    coefficients = kernel_basis(mat_mul(mi, mat_transpose(basis)))
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
    assert tables[0] == tables[1] == [{"dimension": 0, "history": "0 0", "piece": 1, "route": "orbit"}]


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


def _rows_minus_identity(columns):
    """The nonzero rows of M - 1, as sparse rows, for M given by its columns."""
    rows = [{} for _ in columns]
    for c, col in enumerate(columns):
        for r, x in col.items():
            rows[r][c] = x
    for r, row in enumerate(rows):
        x = row.get(r, 0) - 1
        if x:
            row[r] = x
        else:
            row.pop(r, None)
    return [row for row in rows if row]


def _fixed_by_columns(generator_columns, vector):
    return all(invariants._is_fixed(columns.__getitem__, vector) for columns in generator_columns)


def _block_kernel_history(generator_columns):
    """Joint-kernel dimension of M - 1 after each generator M of one block,
    given by its sparse columns, and the route that certified it: "modp"
    when every kernel vector modulo PRIME lifts to one every M fixes, else
    "rational", with the elimination rerun over Q."""
    size, p = len(generator_columns[0]), invariants.PRIME
    history, pivots = invariants._echelon_history(generator_columns, _rows_minus_identity, size, p)
    for vector in invariants._kernel_mod_p(pivots, size, p) if history[-1] else ():
        lifted = invariants._lift(vector, p)
        if lifted is None or not _fixed_by_columns(generator_columns, lifted):
            return invariants._echelon_history(generator_columns, _rows_minus_identity, size, 0)[0], "rational"
    return history, "modp"


def _kernel_block(generators, powers, factors):
    """`_block_kernel_history` on the block of the factors (m, exterior),
    each generator's columns the kron of its power columns, which powers
    caches."""
    for k, a in enumerate(generators):
        for m, exterior in factors:
            if (k, m, exterior) not in powers:
                powers[k, m, exterior] = invariants._power_columns(a, m, exterior)
    return _block_kernel_history(
        [_kron_columns([powers[k, m, exterior] for m, exterior in factors]) for k in range(len(generators))]
    )


def kernel_invariant_dim(kind, copies, degree):
    """The count as the joint kernel of rho(s) - 1 over every listed s, block
    by block, with the oracle's history and route."""
    generators = group_generators(kind, copies.g)
    history = [0] * len(generators) if piece_dimension(copies, degree) else []
    return invariants._count(copies, degree, history, "modp", partial(_kernel_block, generators, {}))


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
    # every listed generator but J is a transvection T, N = T - 1 squares to
    # 0, and rho(T) = exp(D_N), exactly: so rho(T) - 1 = D_N U with U = 1 +
    # D_N/2! + ... invertible, and the symplectic route's rows of D_N have the
    # kernel of rho(T) - 1
    generators = group_generators(GammaType.SYMPLECTIC, g)
    assert [a for a in generators if invariants._is_signed(a)] == [generators[-1]]
    for a in generators[:-1]:
        n = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert any(map(any, n)) and not any(map(any, mat_mul(n, n)))
        derivation = invariants._derivation(a)
        for factors in TRANSVECTION_BLOCKS:
            if any(exterior and m > 2 * g for m, exterior in factors):
                continue
            elements = invariants._block_elements(g, factors)
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
            rho = _kron_columns([invariants._power_columns(a, m, exterior) for m, exterior in factors])
            assert {key: x for key, x in exp.items() if x} == {(r, c): x for c, col in enumerate(rho) for r, x in col.items()}


def crosscheck_pieces(n, g):
    """The pieces of `crosscheck-sec6 --n n --g g --oracle` at the largest
    maxdeg it accepts, the degree below its first piece above the basis cap."""
    top = 0
    while piece_dimension(GradedVCopies(g, tuple(go_shifted_degrees(n, top + 1))), top + 1) <= invariants.BASIS_CAP:
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
# the basis cap, and pieces with even copies
SYMPLECTIC_PIECES = (
    [piece[1:] for piece in CRITERION_6_PIECES if piece[0] is GammaType.SYMPLECTIC]
    + [piece for n in (9, 11) for g in (1, 2, 3) for piece in crosscheck_pieces(n, g)]
    + [(1, (2, 4), degree) for degree in range(41)]
    + [(2, (1, 2), degree) for degree in range(21)]
)


@pytest.mark.parametrize("g, degrees, degree", SYMPLECTIC_PIECES)
def test_symplectic_route_matches_the_full_kernel(g, degrees, degree):
    # the same dimension, history and route: rho(s) - 1 and the derivation
    # of s - 1 have the same rows up to an invertible factor, modulo PRIME too
    copies = GradedVCopies(g, degrees)
    result = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, degree)
    assert result == kernel_invariant_dim(GammaType.SYMPLECTIC, copies, degree)
    assert result.route == "modp"


# ---------------------------------------------------------------------------
# the certificate


def test_rational_reconstruction_round_trip():
    p = invariants.PRIME
    bound = math.isqrt(p // 2)
    for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 12), Fraction(bound, bound - 1)):
        residue = q.numerator * pow(q.denominator, -1, p) % p
        assert invariants.rational_reconstruction(residue, p) == q


def test_rational_reconstruction_none():
    # modulo 13 the bound is 2: 0, +-1, +-2 and +-1/2 are 0, 1, 12, 2, 11, 7
    # and 6; no fraction that small is 5 mod 13
    assert [invariants.rational_reconstruction(a, 13) for a in (0, 1, 12, 2, 11, 7, 6)] == [
        Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2),
    ]
    assert [a for a in range(13) if invariants.rational_reconstruction(a, 13) is None] == [3, 4, 5, 8, 9, 10]


def test_tiny_prime_falls_back_to_rational(monkeypatch):
    exact = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in CRITERION_6_PIECES}
    assert [result.route for result in exact.values()] == ["orbit"] * 3 + ["modp"] * 6
    # modulo 2 only 0 and 1 lift, so every invariant with a -1 entry fails
    # its exact check: the symplectic tensor powers below; and the derivation
    # takes x_1^2 + y_1^2 + x_2^2 + y_2^2 to 2 x_1 x_2 - 2 y_1 y_2, which
    # vanishes modulo 2, so at g = 2 and 3 a sum of squares fails as well
    monkeypatch.setattr(invariants, "PRIME", 2)
    fallback = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in CRITERION_6_PIECES}
    assert {piece for piece, result in fallback.items() if result.route.endswith("rational")} == set(
        CRITERION_6_PIECES[1:3] + CRITERION_6_PIECES[5:]
    )
    for piece, result in fallback.items():
        assert result.dimension == exact[piece].dimension
        if result.route.endswith("rational"):
            # the elimination over Q gives the exact history
            assert result.history == exact[piece].history


def test_failed_lift_falls_back_to_rational(monkeypatch):
    # one generator M with M - 1 = [[1, -3], [0, 0]]: its kernel is spanned
    # by (3, 1), and modulo 5 no fraction n/d with |n|, d <= 1 is 3
    columns = [{0: 2}, {0: -3, 1: 1}]
    assert _block_kernel_history([columns]) == ([1], "modp")
    monkeypatch.setattr(invariants, "PRIME", 5)
    assert invariants.rational_reconstruction(3, 5) is None
    assert _block_kernel_history([columns]) == ([1], "rational")


def test_symplectic_certificate_falls_back_to_rational(monkeypatch):
    # Sym^2 V at g = 2: the derivations take x_i^2 to 2 x_i y_i and the like,
    # which vanish modulo 2, so the kernel modulo 2 does not shrink to 0 and
    # its vectors fail the exact check; the rerun over Q gives the exact
    # history, where the elimination modulo 2 reads 7 5 4 4 4 4 2
    copies = GradedVCopies(2, (2,))
    exact = brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 4)
    assert exact == (0, (6, 3, 1, 0, 0, 0, 0), "modp")
    monkeypatch.setattr(invariants, "PRIME", 2)
    assert brute_force_invariant_dim(GammaType.SYMPLECTIC, copies, 4) == exact._replace(route="rational")


# (g, copy degrees, degree) of the orthogonal pieces both routes count: those
# of criterion 6, of `crosscheck-sec6 --n 8 --g 2 --maxdeg 16`, of O_{1,1}(Z)
# in test_oracle_counts_the_finite_orthogonal_group, and Sym^m V at g = 2..4
# up to m = 16 inside the basis cap
ORTHOGONAL_PIECES = (
    [piece[1:] for piece in CRITERION_6_PIECES if piece[0] is GammaType.ORTHOGONAL]
    + [(2, tuple(go_shifted_degrees(8, 16)), degree) for degree in range(17)]
    + [(1, (2,), 4), (1, (2, 4), 12), (1, (1, 3), 4)]
    + [
        (g, (2,), 2 * m)
        for g in (2, 3, 4)
        for m in range(16 + 1)
        if math.comb(2 * g + m - 1, m) <= invariants.BASIS_CAP
    ]
)


@pytest.mark.parametrize("g, degrees, degree", ORTHOGONAL_PIECES)
def test_orbit_route_matches_the_full_kernel(g, degrees, degree):
    copies = GradedVCopies(g, degrees)
    result = brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, degree)
    assert result.route == "orbit"
    assert result.dimension == kernel_invariant_dim(GammaType.ORTHOGONAL, copies, degree).dimension
    piece = piece_dimension(copies, degree)
    assert len(result.history) == (0 if not piece else 1 if g == 1 else 2)
    assert all(x >= y for x, y in zip((piece,) + result.history, result.history))
    assert result.history[-1:] in ((), (result.dimension,))


def test_orbit_certificate_falls_back_to_rational(monkeypatch):
    # Sym^4 V at g = 2: its invariant q^2 has the entry 2 on x_1 y_1 x_2 y_2,
    # which vanishes modulo 2
    copies = GradedVCopies(2, (2,))
    exact = brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8)
    assert exact == (1, (6, 1), "orbit")
    monkeypatch.setattr(invariants, "PRIME", 2)
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 8) == (1, (6, 1), "orbit-rational")


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
    assert brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(1, (2,)), 40) == (11, (11,), "orbit")
    report = invariant_crosscheck(10, 1, 40, with_oracle=True)
    assert [row.oracle_count for row in report.rows] == rank_one_molien_series(go_shifted_degrees(10, 40), 40)
    report = invariant_crosscheck(8, 2, 36, with_oracle=True)
    assert report.all_agree and report.rows[36].oracle_count == 20
    assert time.perf_counter() - started < 2
    # n = 8, g = 3 up to degree 40 passes the pre-check alone: its top piece
    # has 81816 dimensions and takes seconds to count
    copies = GradedVCopies(3, tuple(go_shifted_degrees(8, 40)))
    assert max(invariants._orbit_work(copies, 40)) == invariants._orbit_work(copies, 40)[40] <= WORK_CAP
    assert piece_dimension(copies, 40) == 81816


def test_oracle_rejects_bad_requests():
    copies = GradedVCopies(2, (2,))
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.THETA, copies, 4)
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, -1)
    # Sym^15 of a 6-dimensional copy: 15504 > 4096 on the symplectic route;
    # the orbit route counts 2g(g + 1) 15504 visits plus C(22, 7) = 170544
    # image terms, inside its cap, and Sym^30 is above it
    with pytest.raises(OracleCapExceeded, match="dimension 15504 > cap 4096"):
        brute_force_invariant_dim(GammaType.SYMPLECTIC, GradedVCopies(3, (2,)), 30)
    assert invariants._orbit_work(GradedVCopies(3, (2,)), 30)[30] == 24 * 15504 + 170544
    with pytest.raises(OracleCapExceeded, match=f"orbit-route work 18086640 > cap {WORK_CAP}"):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, GradedVCopies(3, (2,)), 60)


def test_oracle_caps_the_piece_not_the_symmetric_exponent():
    # the symplectic route builds no power of a transvection, so a high
    # symmetric power inside the basis cap runs: Sym^17 and Sym^26 V at
    # g = 2 (1140 and 3654 dimensions), Sym^500 V at g = 1
    for g, degree in ((2, 34), (2, 52), (1, 1000)):
        assert brute_force_invariant_dim(GammaType.SYMPLECTIC, GradedVCopies(g, (2,)), degree).dimension == 0
    # a piece above the cap names it
    with pytest.raises(OracleCapExceeded, match="dimension 53130 > cap 4096"):
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
    assert report.all_agree
    assert [row.degree for row in report.rows] == list(range(13))
    assert all(row.oracle_count is None for row in report.rows)
    assert report.rows[8].stable_count == 1
    assert report.rows[8].ring_count == 1


def test_crosscheck_with_oracle_small():
    report = invariant_crosscheck(8, 2, 4, with_oracle=True)
    assert report.all_agree
    assert report.rows[0].oracle_count == 1
    assert report.rows[4].oracle_count == 0


def test_crosscheck_checks_every_piece_before_any_work():
    # n = 9: the first piece above the basis cap is in degree 114; n = 8 and
    # 10: the orbit route, whose work is above its cap first in degree 44 at
    # g = 3 and in degree 100 at g = 1
    assert piece_dimension(GradedVCopies(1, tuple(go_shifted_degrees(9, 114))), 114) == 4884
    for n, g, maxdeg, message in (
        (9, 1, 5000, "dimension 4884 > cap 4096"),
        (8, 3, 6000, f"orbit-route work 5311472 > cap {WORK_CAP}"),
        (10, 1, 5000, f"orbit-route work 2542440 > cap {WORK_CAP}"),
    ):
        started = time.perf_counter()
        with pytest.raises(OracleCapExceeded, match=message):
            invariant_crosscheck(n, g, maxdeg, with_oracle=True)
        assert time.perf_counter() - started < 0.5
        # without the oracle there is no cap to meet
        assert invariant_crosscheck(n, g, min(maxdeg, 200)).all_agree


def test_crosscheck_window_requires_large_n():
    with pytest.raises(ValueError):
        invariant_crosscheck(7, 2, 8)
    with pytest.raises(ValueError):
        invariant_crosscheck(8, 0, 8)
