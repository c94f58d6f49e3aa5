import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import groups
from torelli.cli import GENUS_CAP
from torelli.groups import (
    GammaType,
    Generator,
    GroupForm,
    QuadraticModulus,
    form_for_kind,
    intersection_pairing,
    is_in_group,
    listed_generators,
    monomial_moves,
    move_words,
    preserves_quadratic,
    quadratic_modulus,
    quadratic_refinement,
    sample_group_element,
)

from test_linalg import identity_matrix, mat_mul, mat_transpose


def test_form_matrices():
    assert GroupForm(1, -1).matrix == [[0, 1], [-1, 0]]
    assert GroupForm(2, 1).matrix == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    with pytest.raises(ValueError):
        GroupForm(0, 1)
    with pytest.raises(ValueError):
        GroupForm(1, 2)


def test_membership():
    sp = GroupForm(2, -1)
    assert is_in_group(sp.matrix, sp)  # J itself
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert is_in_group(identity, sp)
    not_member = [row[:] for row in identity]
    not_member[0][1] = 1  # x_1 -> x_1, x_2 -> x_1 + x_2 skews the pairing
    assert not is_in_group(not_member, sp)
    with pytest.raises(ValueError):
        is_in_group(identity, GroupForm(3, -1))


def dense_is_in_group(a, form):
    """A^T J A = J by two dense products: the check that is_in_group's
    sparse one replaced, kept as its oracle."""
    j = form.matrix
    return mat_mul(mat_mul(mat_transpose(a), j), a) == j


def _n_columns(a):
    """N = a - 1 by its nonzero sparse columns (j, ((i, N_ij), ...))."""
    n = [[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(a)]
    columns = [(j, tuple((i, row[j]) for i, row in enumerate(n) if row[j])) for j in range(len(a))]
    return tuple((j, column) for j, column in columns if column)


def test_form_identity_on_n_matches_dense_products():
    # A^T J A = J read as N^T J + J N + N^T J N = 0 on the nonzero entries
    # (i, j, N_ij) of N = A - 1, against the dense products: sparse
    # perturbations of I and of random signed permutations, g <= 4, both
    # forms.  Members come from the
    # perturbations that are transvections, the listed E_ij and the signed
    # permutations that keep the hyperbolic pairs, with matching signs;
    # non-members from the rest
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for _ in range(2400):
        g = rng.randint(1, 4)
        size, form = 2 * g, GroupForm(g, rng.choice((1, -1)))
        images = list(range(size))
        base = rng.random()
        if base < 0.3:  # a pair-preserving signed permutation, each pair possibly swapped
            pairs = rng.sample(range(g), g)
            for i, p in enumerate(pairs):
                swap = rng.random() < 0.5
                images[i], images[g + i] = (g + p, p) if swap else (p, g + p)
            signs = [rng.choice((1, -1)) for _ in range(size)]
        elif base < 0.5:
            rng.shuffle(images)
            signs = [rng.choice((1, -1)) for _ in range(size)]
        else:
            signs = [1] * size
        a = [[0] * size for _ in range(size)]
        for c, r in enumerate(images):
            a[r][c] = signs[c]
        perturb = rng.random()
        if perturb < 0.3:  # times a transvection
            v = [rng.choice((0, 0, 1, -1, 2)) for _ in range(size)]
            a = mat_mul(a, transvection(v, form))
        elif perturb < 0.45 and g > 1:  # times an E_ij
            i, j = rng.sample(range(g), 2)
            e = identity_matrix(size)
            e[j][i], e[g + i][g + j] = 1, -1
            a = mat_mul(a, e)
        elif perturb < 0.85:
            for _ in range(rng.randint(1, 3)):
                a[rng.randrange(size)][rng.randrange(size)] += rng.choice((-2, -1, 1, 2))
        expected = dense_is_in_group(a, form)
        entries = [(i, j, x) for j, column in _n_columns(a) for i, x in column]
        assert groups._preserves_form(entries, form) is expected
        assert is_in_group(a, form) is expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 400


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_pair_check_matches_dense_products_on_every_signed_permutation(g, sign):
    # every permutation of the 2g basis vectors with every sign pattern,
    # against the dense A^T J A = J; for A = P D, with D the diagonal of
    # signs, that is D (P^T J P) D, entry (c, d) of P^T J P times s_c s_d
    size, form = 2 * g, GroupForm(g, sign)
    j, members = form.matrix, 0
    for images in itertools.permutations(range(size)):
        p = [[int(images[c] == r) for c in range(size)] for r in range(size)]
        m = mat_mul(mat_mul(mat_transpose(p), j), p)
        for signs in itertools.product((1, -1), repeat=size):
            expected = all(signs[c] * signs[d] * m[c][d] == j[c][d] for c in range(size) for d in range(size))
            assert groups._moves_form(tuple(zip(images, signs)), form) is expected
            members += expected
    # pair permutations, a swap or not within each pair, and a sign on each
    # x_c that fixes the one on its partner
    assert members == math.factorial(g) * 4**g


@pytest.mark.parametrize("kind", list(GammaType))
def test_pair_check_rejects_wrong_lengths_and_repeated_images(kind):
    form = form_for_kind(kind, 2)
    j_move = tuple(((c + 2) % 4, 1 if c >= 2 else form.sign) for c in range(4))
    assert groups._moves_form(j_move, form)
    # too short, too long, and x_1 and x_2 both on the pair of x_1
    for move in (j_move[:3], j_move + ((0, 1),), ((2, 1), (2, 1), (0, form.sign), (0, form.sign))):
        assert not groups._moves_form(move, form)


def _mutated(monkeypatch, mutate):
    """Route every generator that `listed_generators` builds through mutate,
    which takes and returns (n, move)."""
    build = groups.Generator
    monkeypatch.setattr(groups, "Generator", lambda n, move: build(*mutate(n, move)))


@pytest.mark.parametrize(
    "kind, g, target, mutant",
    [
        # the swap of the first pair, with y_1 sent to -x_1
        (GammaType.ORTHOGONAL, 2, ((2, 1), (1, 1), (0, 1), (3, 1)), ((2, 1), (1, 1), (0, -1), (3, 1))),
        # J with x_1 sent to +y_1
        (GammaType.SYMPLECTIC, 2, ((2, -1), (3, -1), (0, 1), (1, 1)), ((2, 1), (3, -1), (0, 1), (1, 1))),
        (GammaType.THETA, 1, ((1, -1), (0, 1)), ((1, -1), (0, -1))),
    ],
    ids=["o-swap", "sp-J", "theta-J"],
)
def test_a_signed_permutation_with_a_wrong_sign_is_rejected(monkeypatch, kind, g, target, mutant):
    assert Generator((), target) in listed_generators.__wrapped__(kind, g)
    _mutated(monkeypatch, lambda n, move: (n, mutant if move == target else move))
    with pytest.raises(AssertionError, match="generator fails the defining equation"):
        listed_generators.__wrapped__(kind, g)


@pytest.mark.parametrize("kind", [GammaType.SYMPLECTIC, GammaType.THETA, GammaType.ORTHOGONAL])
def test_a_unipotent_with_one_entry_changed_is_rejected(monkeypatch, kind):
    # the last entry of the first listed N with more than one entry, negated:
    # T_{x1 + y2} for sp and theta, E_12 for o.  (1 + cN is in the group for
    # every c when N has one entry, as T_x1's does)
    unipotents = [s.n for s in listed_generators.__wrapped__(kind, 2) if s.move is None]
    first = next(n for n in unipotents if sum(len(column) for _, column in n) > 1)
    *rest, (j, column) = first
    changed = (*rest, (j, column[:-1] + ((column[-1][0], -column[-1][1]),)))
    _mutated(monkeypatch, lambda n, move: (changed if n == first else n, move))
    with pytest.raises(AssertionError, match="generator fails the defining equation"):
        listed_generators.__wrapped__(kind, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_membership_matches_dense_products(data):
    # group elements of either kind against either form, with or without
    # one entry moved, and matrices of small random entries
    g = data.draw(st.integers(1, 3))
    form = GroupForm(g, data.draw(st.sampled_from((1, -1))))
    kind = data.draw(st.sampled_from(list(GammaType)))
    a = sample_group_element(kind, g, data.draw(st.integers(0, 99)), data.draw(st.integers(0, 6)))
    edit = data.draw(st.sampled_from(("none", "entry", "random")))
    if edit == "entry":
        r, c = data.draw(st.integers(0, 2 * g - 1)), data.draw(st.integers(0, 2 * g - 1))
        a[r][c] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    elif edit == "random":
        row = st.lists(st.integers(-1, 1), min_size=2 * g, max_size=2 * g)
        a = data.draw(st.lists(row, min_size=2 * g, max_size=2 * g))
    assert is_in_group(a, form) == dense_is_in_group(a, form)


def test_modulus_and_type_tables():
    assert quadratic_modulus(2) is QuadraticModulus.INTEGERS
    assert quadratic_modulus(4) is QuadraticModulus.INTEGERS
    assert quadratic_modulus(1) is QuadraticModulus.TRIVIAL
    assert quadratic_modulus(3) is QuadraticModulus.TRIVIAL
    assert quadratic_modulus(7) is QuadraticModulus.TRIVIAL
    assert quadratic_modulus(5) is QuadraticModulus.MOD2
    assert quadratic_modulus(9) is QuadraticModulus.MOD2
    assert form_for_kind(GammaType.ORTHOGONAL, 2).sign == 1
    assert form_for_kind(GammaType.THETA, 2).sign == -1


def test_refinement_values():
    # q(a_1..a_g, b_1..b_g) = sum a_i b_i, then reduced
    assert quadratic_refinement([1, 2, 3, 4], 2) == 1 * 3 + 2 * 4
    assert quadratic_refinement([1, 2, 3, 4], 5) == 11 % 2
    assert quadratic_refinement([1, 2, 3, 4], 3) == 0
    assert quadratic_refinement([1, 0, 1, 0], 5) == 1
    with pytest.raises(ValueError):
        quadratic_refinement([1, 2, 3], 2)


def test_intersection_pairing_rejects_mismatched_lengths():
    # v^T J w with J = [[0, I], [s I, 0]]: s = +1 for n even, -1 for n odd
    assert intersection_pairing([1, 2, 3, 4], [5, 6, 7, 8], 2) == 1 * 7 + 2 * 8 + 3 * 5 + 4 * 6
    assert intersection_pairing([1, 2, 3, 4], [5, 6, 7, 8], 3) == 1 * 7 + 2 * 8 - 3 * 5 - 4 * 6
    # vectors of different lengths, of odd length or empty have no pairing
    for v, w in (([1, 0, 0, 1], [0, 1]), ([0, 1], [1, 0, 0, 1]), ([1, 2, 3], [1, 2, 3]), ([], [])):
        with pytest.raises(ValueError, match="lengths"):
            intersection_pairing(v, w, 2)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_refinement_pairing_relation(n):
    # q(v+w) - q(v) - q(w) = I(v, w) modulo the subgroup for n
    rng = random.Random(97 + n)
    modulus = quadratic_modulus(n)
    for _ in range(100):
        g = rng.randrange(1, 4)
        v = [rng.randrange(-5, 6) for _ in range(2 * g)]
        w = [rng.randrange(-5, 6) for _ in range(2 * g)]
        vw = [a + b for a, b in zip(v, w)]
        gap = (
            quadratic_refinement(vw, n)
            - quadratic_refinement(v, n)
            - quadratic_refinement(w, n)
            - intersection_pairing(v, w, n)
        )
        if modulus is QuadraticModulus.INTEGERS:
            assert gap == 0
        elif modulus is QuadraticModulus.MOD2:
            assert gap % 2 == 0
        # TRIVIAL: nothing to check, any integer is allowed


def transvection(v, form):
    """w -> w + <w, v> v built densely, column by column, each pairing a
    full sum against the dense form matrix."""
    size = 2 * form.g
    j = form.matrix
    cols = []
    for c in range(size):
        pairing = sum(j[c][k] * v[k] for k in range(size))
        cols.append([int(c == r) + pairing * v[r] for r in range(size)])
    return mat_transpose(cols)


def test_transvection_frozen():
    t = transvection((1, 1), GroupForm(1, -1))
    assert t == [[2, -1], [1, 0]]
    assert is_in_group(t, GroupForm(1, -1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transvection_matches_the_dense_pairing(data):
    # sparse vectors like the generators' and dense ones, against either
    # form: the N = T - 1 that the generator list is built from
    g = data.draw(st.integers(1, 4))
    form = GroupForm(g, data.draw(st.sampled_from((1, -1))))
    v = data.draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=2 * g, max_size=2 * g))
    t = transvection(v, form)
    assert groups._transvection({k: x for k, x in enumerate(v) if x}, form) == _n_columns(t)
    if form.sign == -1:
        assert is_in_group(t, form)


def test_transvection_with_odd_refinement_preserves_mod2():
    # v = x_1 + y_1 has q(v) = 1; its transvection fixes q mod 2
    t = transvection((1, 1), GroupForm(1, -1))
    assert preserves_quadratic(t, 5, 1)


@pytest.mark.parametrize("n,expected", [(1, True), (3, True), (7, True), (5, False), (9, False), (11, False)])
def test_basis_transvection_rejected_exactly_for_mod2(n, expected):
    # q(x_1) = 0, so t_{x_1} moves the refinement by the pairing with x_1;
    # that is invisible when the subgroup is all of Z and fatal when it is 2Z
    t = transvection((1, 0), GroupForm(1, -1))
    assert preserves_quadratic(t, n, 1) is expected


def test_preserves_quadratic_needs_group_membership():
    t = transvection((1, 0), GroupForm(1, -1))  # symplectic, not orthogonal
    with pytest.raises(ValueError):
        preserves_quadratic(t, 2, 1)


@lru_cache(maxsize=None)
def generator_matrices(kind, g):
    """The matrices of `listed_generators`, as tuples of rows: the identity,
    by its columns, times each listed generator."""
    identity = groups._identity_columns(2 * g)
    return tuple(tuple(zip(*groups._times(identity, s))) for s in listed_generators(kind, g))


def test_generator_counts_and_membership():
    assert len(generator_matrices(GammaType.SYMPLECTIC, 2)) == 7
    assert len(generator_matrices(GammaType.ORTHOGONAL, 2)) == 7
    assert len(generator_matrices(GammaType.THETA, 2)) == 8
    for kind in GammaType:
        for g in (1, 2, 3, 4):
            form = form_for_kind(kind, g)
            for m in generator_matrices(kind, g):
                assert dense_is_in_group([list(r) for r in m], form)


def signed_permutation(a):
    """The (image index, sign) of each basis vector under a, or None when a
    is not a signed permutation."""
    out = []
    for column in zip(*a):
        nonzero = [(r, x) for r, x in enumerate(column) if x]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            return None
        out.append(nonzero[0])
    return tuple(out) if len({r for r, _ in out}) == len(out) else None


def dense_group_generators(kind, g):
    """The generator list built densely, matrix by matrix, with dense
    squares for theta: the construction that the sparse list replaced."""
    form = form_for_kind(kind, g)
    size = 2 * g
    gens = []
    if kind in (GammaType.SYMPLECTIC, GammaType.THETA):
        for i in range(size):
            gens.append(transvection([int(k == i) for k in range(size)], form))
        for i in range(g):
            for j in range(g):
                if i != j:
                    gens.append(transvection([int(k in (i, g + j)) for k in range(size)], form))
        gens.append(form.matrix)
        if kind is GammaType.THETA:
            squares = [mat_mul(m, m) for m in gens]
            gens = [
                m
                for m in gens + squares
                if all(sum(m[i][c] * m[g + i][c] for i in range(g)) % 2 == 0 for c in range(size))
            ]
    else:
        for i in range(g):
            # swap within the i-th hyperbolic pair
            m = identity_matrix(size)
            m[i][i] = m[g + i][g + i] = 0
            m[i][g + i] = m[g + i][i] = 1
            gens.append(m)
            # sign flip on the i-th pair
            m = identity_matrix(size)
            m[i][i] = m[g + i][g + i] = -1
            gens.append(m)
        for i in range(g):
            for j in range(g):
                if i != j:
                    # x_i -> x_i + x_j, y_j -> y_j - y_i
                    m = identity_matrix(size)
                    m[j][i] = 1
                    m[g + i][g + j] = -1
                    gens.append(m)
        for i in range(g):
            for j in range(i + 1, g):
                m = [[0] * size for _ in range(size)]
                perm = list(range(size))
                perm[i], perm[j] = perm[j], perm[i]
                perm[g + i], perm[g + j] = perm[g + j], perm[g + i]
                for c, r in enumerate(perm):
                    m[r][c] = 1
                gens.append(m)
    return tuple(tuple(map(tuple, m)) for m in gens)


@pytest.mark.parametrize("g", range(1, GENUS_CAP + 1))
def test_sparse_list_matches_the_dense_construction(g):
    # entry for entry, and each listed generator is the signed permutation
    # or the N = A - 1 of its dense matrix
    for kind in GammaType:
        dense = dense_group_generators(kind, g)
        assert generator_matrices(kind, g) == dense
        for s, a in zip(listed_generators(kind, g), dense, strict=True):
            move = signed_permutation(a)
            assert s == (((), move) if move else (_n_columns(a), None))


def test_sparse_products_match_the_dense_ones():
    # right multiplication by each listed generator and by its inverse, 1 -
    # N for 1 + N and the transpose for a signed permutation, on the
    # columns of a matrix of distinct entries
    for kind in GammaType:
        for g in (1, 2, 3):
            size = 2 * g
            b = [[r * size + c + 1 for c in range(size)] for r in range(size)]
            for s, a in zip(listed_generators(kind, g), generator_matrices(kind, g)):
                inverse = mat_transpose(a) if s.move else [[2 * (r == c) - x for c, x in enumerate(row)] for r, row in enumerate(a)]
                assert mat_mul(a, inverse) == identity_matrix(size)
                assert mat_transpose(groups._times(mat_transpose(b), s)) == mat_mul(b, a)
                assert mat_transpose(groups._times(mat_transpose(b), s, -1)) == mat_mul(b, inverse)


def test_sampling_matches_the_dense_words():
    # the sampled element, multiplied out on sparse generators, is the dense
    # product of the generators that the seeded draws pick
    for kind in GammaType:
        for g in (1, 2, 3, 5):
            gens = generator_matrices(kind, g)
            for seed in range(3):
                for length in (0, 1, 7, 40):
                    rng = random.Random(seed)
                    out = identity_matrix(2 * g)
                    for _ in range(length):
                        out = mat_mul(out, gens[rng.randrange(len(gens))])
                    assert sample_group_element(kind, g, seed, length) == out


def orthogonal_rank_one_group():
    """Every integer A = [[a, b], [c, d]] with A^T J A = J, J = [[0, 1], [1, 0]].

    The equation reads 2ac = 0, 2bd = 0 and ad + bc = 1.  If a != 0 then
    c = 0, ad = 1 and b = 0; otherwise bc = 1 and d = 0.  Either way every
    entry lies in {-1, 0, 1}, so searching that box finds all of O_{1,1}(Z).
    """
    j = ((0, 1), (1, 0))
    out = set()
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4):
        m = ((a, b), (c, d))
        if _product(_product(((a, c), (b, d)), j), m) == j:
            out.add(m)
    return out


def _product(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def test_orthogonal_rank_one_generators_give_the_whole_group():
    group = orthogonal_rank_one_group()
    assert group == {
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, -1), (-1, 0)),
    }
    # closing the generator list under multiplication reaches every element,
    # so word samples range over all of O_{1,1}(Z), not a proper subgroup
    gens = generator_matrices(GammaType.ORTHOGONAL, 1)
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        frontier = {_product(x, s) for x in frontier for s in gens} - closure
        closure |= frontier
    assert closure == group


def _matrix_of_images(images, signs=None):
    """The matrix sending basis vector c to signs[c] times basis vector images[c]."""
    m = [[0] * len(images) for _ in images]
    for c, r in enumerate(images):
        m[r][c] = signs[c] if signs else 1
    return m


@pytest.mark.parametrize("g", range(2, GENUS_CAP + 1))
def test_orthogonal_generators_outside_h_are_conjugate_to_the_first(g):
    # the orbit route of the invariant oracle rests on these facts: the
    # signed permutations of the list are the swaps, sign flips and pair
    # permutations, and those that move x_1 generate them; every other
    # generator is h s h^-1 for s the first of them and h a product of
    # listed pair permutations; and s - 1 squares to 0
    size = 2 * g
    gens = [[list(row) for row in a] for a in generator_matrices(GammaType.ORTHOGONAL, g)]
    swaps, flips, pairs = {}, {}, {}
    for i in range(g):
        images = list(range(size))
        images[i], images[g + i] = g + i, i
        swaps[i] = _matrix_of_images(images)
        flips[i] = _matrix_of_images(range(size), [-1 if c % g == i else 1 for c in range(size)])
        for j in range(i + 1, g):
            images = list(range(size))
            images[i], images[j], images[g + i], images[g + j] = j, i, g + j, g + i
            pairs[i, j] = pairs[j, i] = _matrix_of_images(images)
    signed = [a for a in gens if all(sorted(map(abs, row)) == [0] * (size - 1) + [1] for row in a)]
    expected = list(swaps.values()) + list(flips.values()) + [pairs[i, j] for i, j in pairs if i < j]
    assert sorted(signed) == sorted(expected)
    for i in range(1, g):
        conj = pairs[0, i]
        assert mat_mul(mat_mul(conj, swaps[0]), conj) == swaps[i]
        assert mat_mul(mat_mul(conj, flips[0]), conj) == flips[i]
        for j in range(i + 1, g):
            assert mat_mul(mat_mul(conj, pairs[0, j]), conj) == pairs[i, j]
    others = [a for a in gens if a not in signed]
    assert len(others) == g * (g - 1)
    s = others[0]
    identity = [[int(r == c) for c in range(size)] for r in range(size)]
    n = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(s, identity)]
    assert mat_mul(n, n) == [[0] * size for _ in range(size)]
    for a in others:
        # x_i -> x_i + x_j and y_j -> y_j - y_i for the (j, i) entry 1
        ((j, i),) = [(r, c) for r in range(g) for c in range(g) if r != c and a[r][c]]
        # (0 i) sends pair 0 to i; (k j) then sends the image k of pair 1 to j
        first = pairs[0, i] if i else identity
        k = 0 if i == 1 else 1
        second = pairs[k, j] if k != j else identity
        h, h_inverse = mat_mul(second, first), mat_mul(first, second)
        assert mat_mul(mat_mul(h, s), h_inverse) == a


def _symplectic_generator_inverse(a):
    """J^3 for the signed generator J, 2 - T for a transvection T."""
    if signed_permutation(a):
        return mat_mul(mat_mul(a, a), a)
    return [[2 * (r == c) - x for c, x in enumerate(row)] for r, row in enumerate(a)]


def _stated_moves(g):
    """R_1 and P_12, ..., P_1g as the images and signs their words are
    stated to give: R_1 takes (x_1, y_1) to (y_1, -x_1); P_1j takes x_1 to
    y_j, y_j to x_1, x_j to -y_1 and y_1 to -x_j."""
    size = 2 * g
    rotation = list(range(size)), [1] * size
    rotation[0][0], rotation[0][g], rotation[1][g] = g, 0, -1
    moves = [rotation]
    for j in range(1, g):
        images, signs = list(range(size)), [1] * size
        images[0], images[g + j], images[j], images[g] = g + j, 0, g, j
        signs[j] = signs[g] = -1
        moves.append((images, signs))
    return [_matrix_of_images(images, signs) for images, signs in moves]


@pytest.mark.parametrize("g", range(1, GENUS_CAP + 1))
def test_move_words_multiply_out_to_their_signed_permutations(g):
    # each word, multiplied out densely over the listed generators and
    # their inverses, is the move it is stated to be, and the oracle's moves
    # are these products
    gens = [[list(row) for row in a] for a in generator_matrices(GammaType.SYMPLECTIC, g)]
    identity = [[int(r == c) for c in range(2 * g)] for r in range(2 * g)]
    products = []
    for word in move_words(g):
        out = identity
        for k, exponent in word:
            inverse = _symplectic_generator_inverse(gens[k])
            assert mat_mul(gens[k], inverse) == identity
            out = mat_mul(out, gens[k] if exponent > 0 else inverse)
        products.append(out)
    assert products == _stated_moves(g)
    assert [_matrix_of_images(*zip(*move)) for move in monomial_moves(GammaType.SYMPLECTIC, g)] == products


def _compose(p, q):
    """The signed permutation p q, each given by (image, sign) per basis vector."""
    return tuple((p[r][0], p[r][1] * x) for r, x in q)


def _closure(moves):
    """The group that the signed permutations moves generate, by products."""
    group, frontier = set(moves), set(moves)
    while frontier:
        frontier = {_compose(h, move) for h in frontier for move in moves} - group
        group |= frontier
    return group


@pytest.mark.parametrize("g", (1, 2, 3))
def test_moves_generate_the_monomial_subgroup(g):
    # by enumeration: the moves generate a group of order 4^g g!, the
    # signed permutations that preserve the form and the hyperbolic pairs,
    # and it contains J
    group = _closure(monomial_moves(GammaType.SYMPLECTIC, g))
    assert len(group) == 4**g * math.factorial(g)
    form = GroupForm(g, -1)
    for h in group:
        assert is_in_group(_matrix_of_images(*zip(*h)), form)
        assert all(h[i][0] % g == h[g + i][0] % g for i in range(g))
    assert signed_permutation(form.matrix) in group


def _h_orbit(moves, v):
    """Each vector that products of the moves reach from v, with such a
    product h, as (image, sign) per basis vector, by breadth-first search."""
    identity = tuple((c, 1) for c in range(len(v)))
    found = {v: identity}
    frontier = [v]
    while frontier:
        reached = []
        for w in frontier:
            for move in moves:
                u = [0] * len(v)
                for c, x in enumerate(w):
                    if x:
                        r, sign = move[c]
                        u[r] = sign * x
                u = tuple(u)
                if u not in found:
                    found[u] = _compose(move, found[w])
                    reached.append(u)
        frontier = reached
    return found


@pytest.mark.parametrize("g", range(1, GENUS_CAP + 1))
def test_symplectic_transvections_are_conjugate_to_the_kept_ones(g):
    # the oracle eliminates T_x1 and, at g >= 2, T_{x1 + y2} alone: every
    # listed transvection T_u is h T h^-1 = T_{hu} for one of them and an
    # explicit product h of the moves, found by searching the orbit of its
    # vector; the only other listed generator is J
    size = 2 * g
    form = GroupForm(g, -1)
    gens = [[list(row) for row in a] for a in generator_matrices(GammaType.SYMPLECTIC, g)]
    kept = [tuple(int(i == 0) for i in range(size))] + [tuple(int(i in (0, g + 1)) for i in range(size))] * (g > 1)
    moves = monomial_moves(GammaType.SYMPLECTIC, g)
    orbits = [(transvection(v, form), _h_orbit(moves, v)) for v in kept]
    assert gens[-1] == form.matrix
    for a in gens[:-1]:
        # T_u - 1 has rank one, with u (up to sign) as its nonzero columns
        n = [[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(a)]
        u = tuple(next(col for col in zip(*n) if any(col)))
        u = tuple(x // max(map(abs, u)) for x in u)
        assert transvection(u, form) == a
        ((t, orbit),) = [(t, orbit) for t, orbit in orbits if u in orbit]
        h = _matrix_of_images(*zip(*orbit[u]))
        assert mat_mul(mat_mul(h, t), mat_transpose(h)) == a


def _closure_mod(gens, p):
    """The image modulo p of the group the integer matrices ``gens`` generate,
    by breadth-first closure under right multiplication; matrices are
    flattened row by row."""
    size = len(gens[0])
    flat = [tuple(x % p for row in m for x in row) for m in gens]
    # the nonzero entries of each generator's columns
    columns = [
        [[(k, s[k * size + j]) for k in range(size) if s[k * size + j]] for j in range(size)]
        for s in flat
    ]
    seen = set(flat)
    frontier = list(seen)
    while frontier:
        found = []
        for x in frontier:
            rows = [x[i * size:(i + 1) * size] for i in range(size)]
            for cols in columns:
                y = tuple(sum(r[k] * v for k, v in c) % p for r in rows for c in cols)
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return seen


@pytest.mark.parametrize("p, index", [(3, 1), (5, 2)])
def test_split_orthogonal_generators_modulo_p(p, index):
    # the split O_4(F_q) has order 2 q^2 (q^2 - 1)^2.  Modulo 3 the O_{2,2}
    # generators reach all of it; modulo 5 half of it, as the spinor norm
    # predicts: an integral automorphism has spinor norm +-1 modulo
    # squares, and -1 is a square modulo 5.  Neither proves or refutes
    # generation of O_{2,2}(Z) (O'Meara, Introduction to Quadratic Forms).
    order = 2 * p**2 * (p**2 - 1) ** 2
    assert len(_closure_mod(generator_matrices(GammaType.ORTHOGONAL, 2), p)) == order // index


def _echelon_mod(matrix, p):
    """Pivot columns of a matrix over F_p, and its determinant when it is
    square (0 when singular), by Gaussian elimination."""
    rows = [[x % p for x in row] for row in matrix]
    pivots, det = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            det = 0
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            det = -det
        det = det * rows[r][c] % p
        inverse = pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inverse % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, det % p


def _spinor_norm_is_square(a, p):
    """Whether the spinor norm of the O_{g,g} matrix a, reduced modulo the
    odd prime p, is a square in F_p.

    Zassenhaus's formula: the spinor norm is the discriminant of the Wall
    form [u, v] = B(x, v), u = (1 - a)x, on im(1 - a), where B(x, y) = x^T J y;
    a reflection in v then has spinor norm Q(v) = B(v, v) / 2.  The images
    u_k of the pivot columns c_k of 1 - a span im(1 - a), and
    [u_k, u_l] = (J (1 - a))[c_k][c_l]."""
    size = len(a)
    one_minus_a = [[int(r == c) - a[r][c] for c in range(size)] for r in range(size)]
    pivots, _ = _echelon_mod(one_minus_a, p)
    j_one_minus_a = _product(GroupForm(size // 2, 1).matrix, one_minus_a)
    _, discriminant = _echelon_mod([[j_one_minus_a[c][d] for d in pivots] for c in pivots], p)
    assert discriminant, "the Wall form is nondegenerate"
    return pow(discriminant, (p - 1) // 2, p) == 1


@pytest.mark.parametrize("p, all_square", [(3, False), (5, True)])
def test_spinor_norms_of_split_orthogonal_generators_modulo_p(p, all_square):
    # the spinor norm of an integral automorphism is +-1 modulo squares.
    # -1 = 2^2 modulo 5, so every generator lies in the index-2 kernel of
    # the spinor norm, and so does the image above (14400 of 28800).  -1 is
    # no square modulo 3: the swap e_1 <-> f_1 is the reflection in
    # e_1 - f_1, of spinor norm Q(e_1 - f_1) = -1, and the image is all of
    # O_4(F_3)
    gens = generator_matrices(GammaType.ORTHOGONAL, 2)
    squares = [_spinor_norm_is_square(a, p) for a in gens]
    assert all(squares) is all_square
    assert squares[0] is all_square  # the swap e_1 <-> f_1
    # the formula is a homomorphism to F_p^* modulo squares
    for a, a_square in zip(gens, squares):
        for b, b_square in zip(gens, squares):
            assert _spinor_norm_is_square(_product(a, b), p) is (a_square == b_square)


def test_theta_generators_preserve_refinement():
    for g in (1, 2, 3):
        for m in generator_matrices(GammaType.THETA, g):
            assert preserves_quadratic([list(r) for r in m], 5, g)


def test_sampling_deterministic_and_frozen():
    a = sample_group_element(GammaType.SYMPLECTIC, 2, 7)
    assert a == sample_group_element(GammaType.SYMPLECTIC, 2, 7)
    assert a == [[-1, 2, -3, 0], [0, 1, 0, 0], [-1, 4, -4, 0], [-2, 3, -4, 1]]
    assert sample_group_element(GammaType.ORTHOGONAL, 2, 11) == [
        [3, 2, 0, 0],
        [-1, -1, 0, 0],
        [0, 0, 1, -1],
        [0, 0, 2, -3],
    ]
    assert sample_group_element(GammaType.THETA, 1, 3, 6) == [[-7, -4], [2, 1]]


def test_sampling_valid_and_varied():
    for kind in GammaType:
        for g in (1, 2, 3):
            form = form_for_kind(kind, g)
            seen = set()
            for seed in range(20):
                a = sample_group_element(kind, g, seed)
                assert is_in_group(a, form)
                seen.add(tuple(tuple(r) for r in a))
            if kind is GammaType.ORTHOGONAL and g == 1:
                # the split orthogonal group over Z is finite of order 4 here
                assert 2 <= len(seen) <= 4
            else:
                assert len(seen) >= 10  # words of length 10 rarely collide


def test_theta_samples_preserve_refinement():
    for seed in range(10):
        a = sample_group_element(GammaType.THETA, 2, seed)
        assert preserves_quadratic(a, 5, 2)


def test_word_length_zero_is_identity():
    a = sample_group_element(GammaType.SYMPLECTIC, 2, 0, word_length=0)
    assert a == [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        sample_group_element(GammaType.SYMPLECTIC, 2, 0, word_length=-1)
