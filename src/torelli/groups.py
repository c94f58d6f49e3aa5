"""Arithmetic symplectic, split orthogonal, and theta-type groups.

Basis convention: coordinates (a_1..a_g, b_1..b_g) against a hyperbolic basis
x_1..x_g, y_1..y_g, with the pairing matrix J = [[0, I], [s*I, 0]] for
s = +1 (orthogonal) or s = -1 (symplectic).  Membership is the exact integer
identity A^T J A = J, read on the nonzero entries of N = A - 1 as N^T J +
J N + N^T J N = 0: J is a signed permutation, so each costs one row of N; a
signed permutation A, listed by the image and sign of each basis vector, is
checked pair by pair.  A unipotent 1 + N is listed by the columns of N, and
products are taken on columns.  The quadratic refinement of a vector is
q(v) = sum a_i b_i, read modulo the dimension-dependent subgroup: 0 for n
even, all of Z for n in {1, 3, 7}, and 2Z otherwise.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

Matrix = Sequence[Sequence[int]]


class GammaType(Enum):
    ORTHOGONAL = "o"
    SYMPLECTIC = "sp"
    THETA = "theta"


class QuadraticModulus(Enum):
    INTEGERS = "0"  # refinement subgroup 0: values live in Z
    TRIVIAL = "Z"  # subgroup Z: the refinement carries no information
    MOD2 = "2Z"  # subgroup 2Z: values live in Z/2


class GroupForm(NamedTuple("GroupForm", [("g", int), ("sign", int)])):
    """The form J of genus g; sign +1 is orthogonal, -1 symplectic."""

    __slots__ = ()

    def __new__(cls, g: int, sign: int) -> GroupForm:
        if g < 1:
            raise ValueError("genus must be positive")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, g, sign)

    @property
    def matrix(self) -> list[list[int]]:
        g = self.g
        j = [[0] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            j[i][g + i] = 1
            j[g + i][i] = self.sign
        return j


def quadratic_modulus(n: int) -> QuadraticModulus:
    if n < 1:
        raise ValueError("half-dimension n must be positive")
    if n % 2 == 0:
        return QuadraticModulus.INTEGERS
    if n in (1, 3, 7):
        return QuadraticModulus.TRIVIAL
    return QuadraticModulus.MOD2


def form_for_kind(kind: GammaType, g: int) -> GroupForm:
    return GroupForm(g, 1 if kind is GammaType.ORTHOGONAL else -1)


def _preserves_form(n: Sequence[tuple[int, int, int]], form: GroupForm) -> bool:
    """Exact check of A^T J A = J, for N = A - 1 by its nonzero entries (i,
    j, N_ij): that is N^T J + J N + N^T J N = 0.  J is a signed permutation,
    J[r][pi(r)] = sigma(r) with pi(r) = r +- g, so each N_ij gives sigma(i)
    N_ij to (N^T J)[j][pi(i)], sigma(pi(i)) N_ij to (J N)[pi(i)][j] and
    sigma(i) N_ij times row pi(i) of N to row j of N^T J N."""
    g = form.g
    rows: dict = {}
    for i, j, x in n:
        rows.setdefault(i, []).append((j, x))
    defect: dict = {}
    for i, j, x in n:
        t = i + g if i < g else i - g
        x_j = x if i < g else form.sign * x
        defect[j, t] = defect.get((j, t), 0) + x_j
        defect[t, j] = defect.get((t, j), 0) + (x if t < g else form.sign * x)
        for k, z in rows.get(t, ()):
            defect[j, k] = defect.get((j, k), 0) + x_j * z
    return not any(defect.values())


def _moves_form(move: Move, form: GroupForm) -> bool:
    """A^T J A = J, exactly, for a signed permutation A by its `Move`: basis
    vectors pair nonzero only within a hyperbolic pair, so that is a
    permutation of the images that takes each pair (x_c, y_c) to a pair, with
    sign product 1 when x_c lands on an x, or sigma when it lands on a y."""
    g, size = form.g, 2 * form.g
    return sorted(r for r, _ in move) == list(range(size)) and all(
        move[g + c][0] == (r + g) % size and x * move[g + c][1] == (1 if r < g else form.sign)
        for c, (r, x) in enumerate(move[:g])
    )


def is_in_group(a: Matrix, form: GroupForm) -> bool:
    """Exact check of A^T J A = J, on the nonzeros of N = A - 1."""
    size = 2 * form.g
    if len(a) != size or any(len(row) != size for row in a):
        raise ValueError("matrix size does not match the form")
    n = [(i, j, x - (i == j)) for i, row in enumerate(a) for j, x in enumerate(row) if x != (i == j)]
    return _preserves_form(n, form)


def _reduce(value: int, modulus: QuadraticModulus) -> int:
    if modulus is QuadraticModulus.INTEGERS:
        return value
    if modulus is QuadraticModulus.TRIVIAL:
        return 0
    return value % 2


def quadratic_refinement(v: Sequence[int], n: int) -> int:
    """q(v) = sum a_i b_i for v = (a_1..a_g, b_1..b_g), reduced for n."""
    if len(v) % 2 != 0 or not v:
        raise ValueError("vector length must be even and positive")
    g = len(v) // 2
    return _reduce(sum(v[i] * v[g + i] for i in range(g)), quadratic_modulus(n))


def intersection_pairing(v: Sequence[int], w: Sequence[int], n: int) -> int:
    """<v, w> = v^T J w for the form of n: orthogonal for n even, symplectic
    for n odd."""
    if len(v) != len(w) or len(v) % 2 != 0 or not v:
        raise ValueError("vector lengths must be equal, even and positive")
    form = GroupForm(len(v) // 2, 1 if n % 2 == 0 else -1)
    j = form.matrix
    return sum(v[i] * j[i][k] * w[k] for i in range(len(v)) for k in range(len(w)))


def preserves_quadratic(a: Matrix, n: int, g: int) -> bool:
    """True when A fixes the quadratic refinement modulo the subgroup for n.

    A must respect the pairing for this n (symplectic for n odd, orthogonal
    for n even); otherwise a ValueError is raised.  Vanishing on the images
    of the hyperbolic basis suffices because the pairing controls all
    cross terms.
    """
    form = GroupForm(g, 1 if n % 2 == 0 else -1)
    if not is_in_group(a, form):
        raise ValueError("matrix does not preserve the pairing")
    return _columns_refine_to_zero([dict(enumerate(column)) for column in zip(*a)], g, quadratic_modulus(n))


def _columns_refine_to_zero(columns: Iterable[dict[int, int]], g: int, modulus: QuadraticModulus) -> bool:
    """True when every column {row: entry} of A, the image of a hyperbolic
    basis vector, has refinement 0 modulo the subgroup."""
    return all(
        _reduce(sum(x * column.get(g + i, 0) for i, x in column.items() if i < g), modulus) == 0
        for column in columns
    )


# ---------------------------------------------------------------------------
# generator sets and deterministic sampling

# the nonzero sparse columns (j, ((i, entry), ...)) of a matrix, both in
# increasing order, and a signed permutation by the (image, sign) of each
# basis vector
Columns = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
Move = tuple[tuple[int, int], ...]


class Generator(NamedTuple):
    """A listed generator: a unipotent 1 + N, by the `Columns` of N, with
    move None; or a signed permutation, by its `Move`, with n empty."""

    n: Columns
    move: Move | None


def _transvection(v: dict[int, int], form: GroupForm) -> Columns:
    """N = T - 1 for the transvection T: w -> w + <w, v> v, v by its nonzero
    entries.  Row c of J has its one nonzero sigma(c) in column pi(c) = c +-
    g, so N has the columns c = pi^-1(k) over the nonzeros v_k of v, each
    sigma(c) v_k v."""
    g, size = form.g, 2 * form.g
    support = sorted(v.items())
    columns = {(k + g) % size: x if k >= g else form.sign * x for k, x in support}
    return tuple((c, tuple((r, x * y) for r, y in support)) for c, x in sorted(columns.items()))


@lru_cache(maxsize=None)
def listed_generators(kind: GammaType, g: int) -> tuple[Generator, ...]:
    """A fixed, deterministic generator list; every element is verified
    against the defining equation, a unipotent on the entries of its N and a
    signed permutation pair by pair (and the quadratic filter for theta)."""
    form = form_for_kind(kind, g)
    size = 2 * g
    if kind in (GammaType.SYMPLECTIC, GammaType.THETA):
        vectors = [{i: 1} for i in range(size)] + [{i: 1, g + j: 1} for i in range(g) for j in range(g) if i != j]
        # J sends x_i to s y_i and y_i to x_i
        j_move = tuple(((c + g) % size, 1 if c >= g else form.sign) for c in range(size))
        gens = [Generator(_transvection(v, form), None) for v in vectors] + [Generator((), j_move)]
        if kind is GammaType.THETA:
            # (1 + N)^2 = 1 + 2N, as N^2 = 0: no row that N fills is a column
            # that it moves
            if any(i in dict(s.n) for s in gens for _, column in s.n for i, _ in column):
                raise AssertionError("a listed transvection has N^2 != 0")
            squares = [
                Generator((), tuple((s.move[r][0], x * s.move[r][1]) for r, x in s.move))
                if s.move
                else Generator(tuple((j, tuple((i, 2 * x) for i, x in column)) for j, column in s.n), None)
                for s in gens
            ]
            # 1 + N has the column e_j + N_j at each j that N moves, N_jj = 0;
            # a signed permutation has one nonzero per column, refining to 0
            mod2 = QuadraticModulus.MOD2
            gens = [s for s in gens + squares if _columns_refine_to_zero([{j: 1, **dict(c)} for j, c in s.n], g, mod2)]
    else:
        gens, identity = [], [(c, 1) for c in range(size)]
        for i in range(g):
            # the swap within the i-th hyperbolic pair, and the sign flip on it
            swap, flip = list(identity), list(identity)
            swap[i], swap[g + i] = (g + i, 1), (i, 1)
            flip[i], flip[g + i] = (i, -1), (g + i, -1)
            gens += [Generator((), tuple(swap)), Generator((), tuple(flip))]
        # x_i -> x_i + x_j, y_j -> y_j - y_i
        gens += [Generator(((i, ((j, 1),)), (g + j, ((g + i, -1),))), None) for i in range(g) for j in range(g) if i != j]
        for i, j in itertools.combinations(range(g), 2):
            move = list(identity)
            move[i], move[j], move[g + i], move[g + j] = (j, 1), (i, 1), (g + j, 1), (g + i, 1)
            gens.append(Generator((), tuple(move)))
    if not all(
        _moves_form(s.move, form) if s.move else _preserves_form([(i, j, x) for j, c in s.n for i, x in c], form)
        for s in gens
    ):
        raise AssertionError("generator fails the defining equation")
    return tuple(gens)


def move_words(g: int) -> list[tuple[tuple[int, int], ...]]:
    """Words for R_1 and P_12, ..., P_1g in `listed_generators(SYMPLECTIC, g)`:
    pairs (generator index, exponent +-1), multiplied left to right.  R_1 =
    T_x1 T_y1 T_x1 takes (x_1, y_1) to (y_1, -x_1); P_1j takes x_1 to y_j, y_j
    to x_1, x_j to -y_1 and y_1 to -x_j.  Together they generate the monomial
    subgroup (Z/4)^g x| S_g of Sp_2g(Z), which contains J."""

    def pair(i: int, j: int) -> int:  # the index of T_{x_i + y_j}
        return 2 * g + i * (g - 1) + j - (j > i)

    return [((0, 1), (g, 1), (0, 1))] + [
        ((0, 1), (g + j, 1), (pair(0, j), -1), (pair(j, 0), 1), (0, 1), (g + j, 1), (pair(j, 0), 1))
        for j in range(1, g)
    ]


def _identity_columns(size: int) -> list[list[int]]:
    return [[0] * c + [1] + [0] * (size - 1 - c) for c in range(size)]


def _times(out: list[list[int]], s: Generator, exponent: int = 1) -> list[list[int]]:
    """The columns of A s^exponent, for A by its columns out and exponent
    +-1.  Times 1 + N, a column j that N moves gains the columns of A times
    N's column j, and (1 + N)^-1 = 1 - N; times a signed permutation, the
    columns move with their signs, and its inverse is its transpose."""
    if s.move is None:
        product = list(out)
        for j, column in s.n:
            for i, x in column:
                x *= exponent
                product[j] = [u + x * v for u, v in zip(product[j], out[i])]
        return product
    images = s.move if exponent > 0 else [image for _, image in sorted((r, (c, x)) for c, (r, x) in enumerate(s.move))]
    return [out[r] if x == 1 else [x * y for y in out[r]] for r, x in images]


@lru_cache(maxsize=None)
def monomial_moves(kind: GammaType, g: int) -> tuple[Move, ...]:
    """Signed permutations that generate a monomial subgroup H of the group
    `listed_generators(kind, g)` generates, for the orthogonal or the
    symplectic kind.  For the orthogonal kind they are the listed ones that
    move x_1: the first pair's swap and sign flip and the pair permutations
    that move it.  For the symplectic kind they are the words of
    `move_words`, multiplied out over the listed generators and their
    inverses (1 - N for 1 + N, the transpose for a signed permutation) and
    asserted to be signed permutations, so that H lies in the generated
    group."""
    gens = listed_generators(kind, g)
    if kind is GammaType.ORTHOGONAL:
        return tuple(s.move for s in gens if s.move and s.move[0] != (0, 1))
    moves, identity = [], _identity_columns(2 * g)
    for word in move_words(g):
        columns = identity
        for k, exponent in word:
            columns = _times(columns, gens[k], exponent)
        entries = [[(r, x) for r, x in enumerate(column) if x] for column in columns]
        move = tuple(column[0] for column in entries if len(column) == 1)
        if len(move) < 2 * g or {x * x for _, x in move} != {1} or len(dict(move)) < 2 * g:
            raise AssertionError("a move's word is not a signed permutation")
        moves.append(move)
    return tuple(moves)


def sample_group_element(
    kind: GammaType, g: int, seed: int, word_length: int = 10
) -> list[list[int]]:
    """Deterministic pseudo-random product of word_length generators, on
    its columns by `_times`."""
    if word_length < 0:
        raise ValueError("word length must be nonnegative")
    gens = listed_generators(kind, g)
    rng = random.Random(seed)
    out = _identity_columns(2 * g)
    for _ in range(word_length):
        out = _times(out, gens[rng.randrange(len(gens))])
    a = [list(row) for row in zip(*out)]
    if not is_in_group(a, form_for_kind(kind, g)):
        raise AssertionError("sampled element fails the defining equation")
    return a
