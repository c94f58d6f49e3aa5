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
from fractions import Fraction

import pytest

from torelli import invariants
from torelli.cli import run
from torelli.groups import GammaType, sample_group_element
from torelli.invariants import (
    BasisCapExceeded,
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
from torelli.linalg import identity_matrix, kernel_basis, mat_mul, mat_sub, mat_transpose


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
    assert tables[0] == tables[1] == [{"dimension": 0, "history": "0 0 0 0 0 0 0", "piece": 1, "route": "modp"}]


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


def test_tiny_prime_falls_back_to_bareiss(monkeypatch):
    exact = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in CRITERION_6_PIECES}
    assert all(result.route == "modp" for result in exact.values())
    # modulo 2 only 0 and 1 lift, so every invariant with a -1 entry fails
    # its exact check: the symplectic tensor powers below
    monkeypatch.setattr(invariants, "PRIME", 2)
    fallback = {piece: brute_force_invariant_dim(piece[0], GradedVCopies(*piece[1:3]), piece[3]) for piece in CRITERION_6_PIECES}
    assert {piece for piece, result in fallback.items() if result.route == "bareiss"} == set(CRITERION_6_PIECES[5:])
    for piece, result in fallback.items():
        assert result.dimension == exact[piece].dimension
        if result.route == "bareiss":
            # the exact echelon's history is over Q
            assert result.history == exact[piece].history


def test_oracle_rejects_bad_requests():
    copies = GradedVCopies(2, (2,))
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.THETA, copies, 4)
    with pytest.raises(ValueError):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, -1)
    with pytest.raises(BasisCapExceeded):
        brute_force_invariant_dim(GammaType.ORTHOGONAL, copies, 40, basis_cap=100)


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


def test_crosscheck_window_requires_large_n():
    with pytest.raises(ValueError):
        invariant_crosscheck(7, 2, 8)
    with pytest.raises(ValueError):
        invariant_crosscheck(8, 0, 8)
