"""Arithmetic symplectic, split orthogonal, and theta-type groups.

Basis convention: coordinates (a_1..a_g, b_1..b_g) against a hyperbolic basis
x_1..x_g, y_1..y_g, with the pairing matrix J = [[0, I], [s*I, 0]] for
s = +1 (orthogonal) or s = -1 (symplectic).  Membership is the exact integer
identity A^T J A = J.  The quadratic refinement of a vector is
q(v) = sum a_i b_i, read modulo the dimension-dependent subgroup: 0 for n
even, all of Z for n in {1, 3, 7}, and 2Z otherwise.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .linalg import identity_matrix, mat_mul

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


def gamma_type(n: int) -> GammaType:
    if n % 2 == 0:
        return GammaType.ORTHOGONAL
    if n in (1, 3, 7):
        return GammaType.SYMPLECTIC
    return GammaType.THETA


def form_for_kind(kind: GammaType, g: int) -> GroupForm:
    return GroupForm(g, 1 if kind is GammaType.ORTHOGONAL else -1)


def is_in_group(a: Matrix, form: GroupForm) -> bool:
    """Exact check of A^T J A = J.  J is a signed permutation, J[r][pi(r)]
    = sigma(r), so row i of A^T J A is the sum, over the nonzeros A[r][i] of
    column i of A, of sigma(r) * A[r][i] times row pi(r) of A."""
    size = 2 * form.g
    if len(a) != size or any(len(row) != size for row in a):
        raise ValueError("matrix size does not match the form")
    j = form.matrix
    signed = [next((c, x) for c, x in enumerate(row) if x) for row in j]
    for i in range(size):
        image = [0] * size
        for r, row in enumerate(a):
            if row[i]:
                c, sign = signed[r]
                image = [u + sign * row[i] * v for u, v in zip(image, a[c])]
        if image != j[i]:
            return False
    return True


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
    return _columns_refine_to_zero(a, g, quadratic_modulus(n))


def _columns_refine_to_zero(a: Matrix, g: int, modulus: QuadraticModulus) -> bool:
    """True when every column of A, the image of a hyperbolic basis vector,
    has refinement 0 modulo the subgroup."""
    return all(
        _reduce(sum(a[i][col] * a[g + i][col] for i in range(g)), modulus) == 0
        for col in range(2 * g)
    )


# ---------------------------------------------------------------------------
# generator sets and deterministic sampling


def _basis_vector(size: int, idx: int, sign: int = 1) -> list[int]:
    v = [0] * size
    v[idx] = sign
    return v


def transvection(v: Sequence[int], form: GroupForm) -> list[list[int]]:
    """w -> w + <w, v> v; lands in the group for the symplectic form."""
    size = 2 * form.g
    j = form.matrix
    cols = []
    for c in range(size):
        pairing = sum(j[c][k] * v[k] for k in range(size))
        cols.append([int(c == r) + pairing * v[r] for r in range(size)])
    return [[cols[c][r] for c in range(size)] for r in range(size)]


@lru_cache(maxsize=None)
def group_generators(kind: GammaType, g: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """A fixed, deterministic generator list; every element is verified
    against the defining equation (and the quadratic filter for theta)."""
    form = form_for_kind(kind, g)
    size = 2 * g
    gens: list[list[list[int]]] = []
    if kind in (GammaType.SYMPLECTIC, GammaType.THETA):
        for i in range(size):
            gens.append(transvection(_basis_vector(size, i), form))
        for i in range(g):
            for j in range(g):
                if i != j:
                    v = _basis_vector(size, i)
                    v[g + j] = 1
                    gens.append(transvection(v, form))
        jmat = form.matrix
        gens.append(jmat)
        if kind is GammaType.THETA:
            squares = [mat_mul(m, m) for m in gens]
            gens = [
                m
                for m in gens + squares
                if _columns_refine_to_zero(m, g, QuadraticModulus.MOD2)
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
        if g >= 2:
            for i in range(g):
                for j in range(i + 1, g):
                    m = [[0] * size for _ in range(size)]
                    perm = list(range(size))
                    perm[i], perm[j] = perm[j], perm[i]
                    perm[g + i], perm[g + j] = perm[g + j], perm[g + i]
                    for c, r in enumerate(perm):
                        m[r][c] = 1
                    gens.append(m)
    for m in gens:
        if not is_in_group(m, form):
            raise AssertionError("generator fails the defining equation")
    return tuple(tuple(tuple(row) for row in m) for m in gens)


def sample_group_element(
    kind: GammaType, g: int, seed: int, word_length: int = 10
) -> list[list[int]]:
    """Deterministic pseudo-random product of word_length generators."""
    if word_length < 0:
        raise ValueError("word length must be nonnegative")
    gens = group_generators(kind, g)
    rng = random.Random(seed)
    out = identity_matrix(2 * g)
    for _ in range(word_length):
        out = mat_mul(out, gens[rng.randrange(len(gens))])
    form = form_for_kind(kind, g)
    if not is_in_group(out, form):
        raise AssertionError("sampled element fails the defining equation")
    return out
