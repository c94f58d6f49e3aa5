"""Invariant-dimension counts: closed forms and an exact group oracle.

The free model for the Torelli-type cohomology is S[V (x) P], where V is the
2g-dimensional defining representation and P has one generator in each
positive degree 4m - n; the arithmetic-invariant counterpart is a polynomial
ring on classes omega_{x,y} indexed by unordered pairs of those degrees.

The oracle computes, exactly, the dimension of the subspace of a degree-d
graded piece (symmetric powers on even copies, exterior powers on odd
copies) fixed by the group that `listed_generators` generates, read from
that sparse list (N = s - 1 by its columns, signed permutations by their
images): no sampling, no seed and no stopping rule.  The group preserves
each allocation block (one exponent per copy), so the count is taken block
by block.

Both kinds take one route, orbit sums as in the Reynolds operator method of
Derksen-Kemper and Sturmfels, then derivation rows.  The signed permutations
of `monomial_moves` (for the orthogonal kind the listed ones that move x_1;
for the symplectic kind R_1 and the P_1j, products of listed generators
along fixed words) generate a finite group H inside the generated group,
which permutes the block's basis up to sign, so V^H is spanned by the sums
of the orbits that no element of H negates.  Every other listed generator s
is unipotent: N = s - 1 squares to 0, so rho(s) = exp(D) for the derivation
D that N induces, and rho(s) - 1 = D U, with U = 1 + D/2! + ... invertible
over Q and modulo PRIME (D^j = 0 past the degree, at most 2000).  So the
rows of D on the orbit sums, at most two terms per copy, have the kernel of
rho(s) - 1, and they are eliminated modulo PRIME, by the sparse echelon of
`linalg`, for one s per H-conjugacy class, since h s h^-1 fixes an
H-invariant vector exactly when s does: T_x1 and T_{x1 + y2} (T_x1 alone at
g = 1) for the symplectic kind, the first s for the orthogonal kind.

All of this runs on V_0, the weight-0 elements of each block, where the
weight of a monomial counts, per hyperbolic pair, its x_i factors minus its
y_i factors: every invariant v lies in V_0.  By the step above, D_N v = 0
for every listed unipotent 1 + N, hence D_[N,M] v = 0.  For the symplectic
kind T_xi and T_yi are listed, and [N_xi, N_yi] = +-h_i with h_i = diag(+1
on x_i, -1 on y_i); D_hi multiplies a monomial by its weight w_i, so every
w_i is 0.  For the orthogonal kind at g >= 2 the listed E_ij (x_i -> x_i +
x_j, y_j -> y_j - y_i) give [N_ij, N_ji] = h_j - h_i, so all w_i are equal,
and the listed swap of the first pair takes weight (c, ..., c) to (-c, c,
..., c), which forces c = 0.  H preserves V_0, so (V_0)^H is spanned by the
weight-0 orbit sums.  `_oracle_setup` asserts these matrix facts.

The count is certified over Q from both sides:

- upper bound: a rank modulo p is at most the rank over Q, so the rational
  kernel is no larger than the kernel modulo p;
- lower bound: each kernel vector modulo p has a unit entry on its own free
  column and zeros on the other free columns; it is lifted to Q by rational
  reconstruction and checked exactly, over the integers, to be fixed by every
  listed generator s.  A signed permutation (J, -I, the swaps) must take each
  block element to one that carries the same coefficient times its sign.  A
  unipotent s = 1 + N must give D_N v = 0, the criterion the elimination
  uses: rho(s) - 1 = D_N U with U invertible, so over Q that is rho(s) v = v.
  Both act one factor at a time, D_N with one term per factor and entry of N.
  Lifted vectors that pass are independent invariants.

When a lift fails, or a lifted vector fails its check, the same elimination
runs again over Q, and the route reads "rational".  Its kernel vectors are
checked in the same way, so a wrong conjugacy claim raises AssertionError
rather than change the count.

For the orthogonal kind at g = 1 the generated group is the finite
O_{1,1}(Z) = {+-I, +-swap}, not a Zariski-dense lattice, and its counts
exceed the stable ones: Sym^2 V has the two invariants xy and x^2 + y^2,
the second of weight +-2, so the route keeps the whole block there.

Before any block is listed, a piece must meet a cap on its work, a unit per
element of the whole piece, read off the series that gives its dimension.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial
from operator import add, neg, sub
from typing import Callable, NamedTuple, Sequence

from .graded import free_graded_commutative_series
from .groups import GammaType, listed_generators, monomial_moves
from .linalg import Column, _insert_row, _kernel_vectors
# the series of the polynomial ring on omega_{x,y}, degree x + y, is that of
# the kappa classes of L_a L_b, by x = 4a - n and y = 4b - n; the diagonal
# omega_{x,x} are kept in the odd case, where the symmetric square of an odd
# copy realizes the alternating pairing
from .mt import kappa_ll_series as stable_invariant_series
from .mt import pair_degree_counts

# not used by the oracle, which samples nothing; kept importable here because
# bench/layers.py traces calls at these names
from .groups import is_in_group, sample_group_element  # noqa: F401
from .linalg import kernel_basis  # noqa: F401

# the oracle's modulus, 2^31 - 1; rational reconstruction recovers entries
# n/d with |n|, d <= 32767
PRIME = 2_147_483_647

# the a-priori cap on `_orbit_work`, for both kinds; the slowest pieces
# found inside it take 0.4-0.5 s in process: degree 120 on the 30 copies of
# crosscheck-sec6 --n 8 --g 1 --maxdeg 120 (o, 589128 dimensions, whole
# blocks at g = 1) and degree 32 on the copies 2, 4, 6, 8 at g = 2 (o); the
# slowest sp piece found, degree 70 at --n 9 --g 2, takes 0.16-0.19 s
WORK_CAP = 2_500_000
# the cap on that work summed over the pieces of one crosscheck request; the
# slowest requests found inside it take 0.3-0.6 s (--n 8 --g 1 --maxdeg 115,
# 4.8 million), 0.25-0.45 s (--n 10 --g 2 --maxdeg 41, 4.3 million) and
# 0.13-0.18 s (--n 11 --g 1 --maxdeg 102, 5.0 million)
REQUEST_WORK_CAP = 5_000_000


class OracleCapExceeded(ValueError):
    """A requested graded piece is above one of the oracle's caps."""


# ---------------------------------------------------------------------------
# closed forms


def go_shifted_degrees(n: int, max_degree: int) -> list[int]:
    """Positive degrees 4m - n up to max_degree."""
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    out = []
    m = 1
    while 4 * m - n <= max_degree:
        if 4 * m - n > 0:
            out.append(4 * m - n)
        m += 1
    return out


def stable_pair_degrees(n: int, max_degree: int) -> list[tuple[int, int]]:
    """Unordered pairs (x, y), x <= y, of shifted degrees with x + y <= max_degree."""
    degrees = go_shifted_degrees(n, max_degree)
    return [
        (x, y)
        for i, x in enumerate(degrees)
        for y in degrees[i:]
        if x + y <= max_degree
    ]


def shifted_pair_counts(n: int, max_degree: int) -> list[tuple[int, int]]:
    """(degree, count) of the unordered pairs x <= y of `go_shifted_degrees`
    with x + y = degree, for every degree in 1..max_degree they reach.

    The pairs of degree d are the x <= d // 2 in the list with d - x in it,
    counted by bisection.  The list steps by 4 up to max_degree, and d - x
    lies between x and d, so d - x is in it for one such x exactly when it
    is for all of them, the first x included: the degrees reached are the
    sums of the first entry and an entry.  `stable_pair_degrees` lists the
    same pairs one by one, which is quadratic in max_degree.
    """
    degrees = go_shifted_degrees(n, max_degree)
    counts = []
    for y in degrees:
        d = degrees[0] + y
        if d > max_degree:
            break
        counts.append((d, bisect_right(degrees, d // 2)))
    return counts


def two_part_partitions(i: int) -> int:
    """Partitions of i into exactly two positive parts."""
    return i // 2 if i >= 2 else 0


def matchings_count(k: int) -> int:
    """Perfect matchings of k points: (k-1)!! for k even, 0 for k odd."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2 == 1:
        return 0
    out = 1
    for odd in range(1, k, 2):
        out *= odd
    return out


# ---------------------------------------------------------------------------
# exact generator-kernel oracle


class GradedVCopies(
    NamedTuple("GradedVCopies", [("g", int), ("copy_degrees", tuple[int, ...])])
):
    """2g-dimensional copies of the defining representation, one per listed
    degree; parity of a copy is the parity of its degree."""

    __slots__ = ()

    def __new__(cls, g: int, copy_degrees: tuple[int, ...]) -> GradedVCopies:
        if g < 1:
            raise ValueError("g must be positive")
        if any(d < 1 for d in copy_degrees):
            raise ValueError("copy degrees must be positive")
        return super().__new__(cls, g, tuple(copy_degrees))


# the table of the largest degree asked for, for each of the last 16 copy
# lists: a request reads it for its piece dimension, allocations, work and
# the CLI's piece column, and the pieces of a crosscheck read the table of
# its top degree, since entries up to a degree do not depend on the truncation
_TABLES: dict = {}


def _tail_table(copies: GradedVCopies, degree: int) -> tuple[tuple[int, ...], ...]:
    """tails[i][e]: the dimension of the degree-e piece on the copies from
    the i-th on, for e <= degree (the last entry: 1 in degree 0 only).  A copy
    of odd degree d multiplies the series by (1 + q^d)^{2g}, its exterior
    powers, and one of even degree d by 1/(1 - q^d)^{2g}, its symmetric
    powers: 2g passes of a running sum with step d, taken downwards for the
    product and upwards for the quotient.  Tuples, since callers share
    them."""
    tail = [1] + [0] * degree
    tails = [tail]
    for d in reversed(copies.copy_degrees):
        if d <= degree:
            tail = list(tail)
            steps = range(degree, d - 1, -1) if d % 2 else range(d, degree + 1)
            for _ in range(2 * copies.g):
                for e in steps:
                    tail[e] += tail[e - d]
        tails.append(tail)
    return tuple(map(tuple, reversed(tails)))


def _tail_dimensions(copies: GradedVCopies, degree: int) -> tuple[tuple[int, ...], ...]:
    """The `_tail_table` of the copies up to degree, or the one built for a
    larger degree."""
    top, table = _TABLES.pop(copies, (-1, None))
    if top < degree:
        top, table = degree, _tail_table(copies, degree)
    _TABLES[copies] = top, table
    if len(_TABLES) > 16:
        del _TABLES[next(iter(_TABLES))]
    return table


def _orbit_work(kind: GammaType, copies: GradedVCopies, degree: int) -> tuple[int, ...]:
    """The oracle's work in each degree up to degree, counted a priori: a
    unit per element of the whole piece, 2g(g + 1) for the orthogonal kind
    (2g exponents by each of the g + 1 moves) and 8(g + 8) for the
    symplectic kind (a visit by each of the g moves and about eight more for
    the rows, the elimination and the exact check; a visit is 8 units, about
    as long as the orthogonal kind's unit takes)."""
    g = copies.g
    unit = 8 * (g + 8) if kind is GammaType.SYMPLECTIC else 2 * g * (g + 1)
    return tuple(unit * x for x in _tail_dimensions(copies, degree)[0][: degree + 1])


def _allocations(copies: GradedVCopies, degree: int):
    """Exponent tuples m with sum m_i * d_i = degree, in lexicographic order;
    exterior copies are capped at dimension 2g.  A prefix is extended only
    when the copies after it can make up the rest of the degree, so every
    prefix visited completes; once nothing remains, only zeros do."""
    dim = 2 * copies.g
    degs = copies.copy_degrees
    tails = _tail_dimensions(copies, degree)
    stack = [((), degree)] if tails[0][degree] else []
    while stack:
        prefix, remaining = stack.pop()
        pos = len(prefix)
        if not remaining:
            yield prefix + (0,) * (len(degs) - pos)
            continue
        d = degs[pos]
        top = min(remaining // d, dim) if d % 2 else remaining // d
        # pushed largest first, so popped smallest first
        stack.extend(
            (prefix + (m,), remaining - m * d)
            for m in range(top, -1, -1)
            if tails[pos + 1][remaining - m * d]
        )


def piece_dimension(copies: GradedVCopies, degree: int) -> int:
    return _tail_dimensions(copies, degree)[0][degree] if degree >= 0 else 0


def _check_work_cap(work: int) -> None:
    if work > WORK_CAP:
        raise OracleCapExceeded(f"orbit-route work {work} > cap {WORK_CAP}")


@lru_cache(maxsize=64)
def _exponent_vectors(dim: int, m: int, exterior: bool) -> tuple[tuple[int, ...], ...]:
    """The basis of Sym^m, or (exterior) Lambda^m, of a dim-dimensional space
    as exponent vectors, in the order of their sorted index tuples."""
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    return tuple(tuple(map(b.count, range(dim))) for b in combos(range(dim), m))


def rational_reconstruction(a: int, p: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= sqrt(p / 2) and n = a * d mod p, or
    None when there is none (it is unique when it exists)."""
    bound = math.isqrt(p // 2)
    r0, r1 = p, a % p
    t0, t1 = 0, 1
    # invariant: r_i = t_i * a mod p
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(vector: Column, p: int) -> Column | None:
    """An integer vector congruent, up to a unit, to the mod-p vector, by
    rational reconstruction of each entry; None if an entry has no lift."""
    lifted = {}
    for k, x in vector.items():
        q = rational_reconstruction(x, p)
        if q is None:
            return None
        lifted[k] = q
    scale = math.lcm(*(q.denominator for q in lifted.values()))
    return {k: int(q * scale) for k, q in lifted.items()}


def _echelon_history(groups, rows_of: Callable, size: int, p: int) -> tuple[list[int], dict]:
    """The kernel dimension, on size columns, after the rows_of(group) of
    each group, modulo p or, when p is 0, over Q; and the echelon form."""
    pivots: dict[int, Column] = {}
    history = []
    for group in groups:
        if len(pivots) < size:
            for row in rows_of(group):
                _insert_row(pivots, row, p)
        history.append(size - len(pivots))
    return history, pivots


class OracleResult(NamedTuple):
    """A certified invariant dimension.

    history[0] is dim (V_0)^H, or dim V^H for the orthogonal kind at g = 1,
    and history[k] the dimension of that space & ker(s - 1) jointly over the
    first k eliminated generators s, each summed over allocation blocks: one
    entry for T_x1 and, at g >= 2, one for T_{x1 + y2} for the symplectic
    kind, one for s at g >= 2 for the orthogonal kind.  A block contributes its kernel modulo PRIME, an upper
    bound that the certificate makes exact at the last entry, on route
    "modp"; route is "rational" when some block failed the certificate and
    was eliminated, and certified, again over Q.
    """

    dimension: int
    history: tuple[int, ...]
    route: str


@lru_cache(maxsize=64)
def _weights(g: int, m: int, exterior: bool) -> tuple[tuple[int, ...], ...]:
    """The weights of the basis of Sym^m, or (exterior) Lambda^m, of V: per
    hyperbolic pair, the x_i exponent minus the y_i exponent."""
    return tuple({tuple(map(sub, e[:g], e[g:])) for e in _exponent_vectors(2 * g, m, exterior)})


def _weight_monomials(g: int, m: int, exterior: bool, weight: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The basis elements of Sym^m, or (exterior) Lambda^m, of the weight, in
    the order of `_exponent_vectors`: pair i carries max(w_i, 0) x_i and
    max(-w_i, 0) y_i, and the rest of the degree goes in whole pairs x_i y_i,
    any pairs for Sym^m and distinct ones of weight 0 for Lambda^m."""
    s, odd = divmod(m - sum(map(abs, weight)), 2)
    if odd or s < 0 or exterior and max(map(abs, weight), default=0) > 1:
        return []
    base = [max(w, 0) for w in weight] + [max(-w, 0) for w in weight]
    out = []
    free = [i for i, w in enumerate(weight) if not w] if exterior else range(g)
    for pairs in (itertools.combinations if exterior else itertools.combinations_with_replacement)(free, s):
        mono = list(base)
        for i in pairs:
            mono[i] += 1
            mono[g + i] += 1
        out.append(tuple(mono))
    return out


def _signed_image(move: tuple[tuple[int, int], ...], mono: tuple[int, ...], exterior: bool) -> tuple[tuple, int]:
    """The image and sign of a basis element of Sym^m, or (exterior)
    Lambda^m, by its exponent vector, under a signed permutation given by
    the (image, sign) of each basis vector: each e_j goes to its image,
    times its sign, and a wedge takes the sign of the sort of the images."""
    image, targets, odd = [0] * len(mono), [], 0
    for (i, x), k in zip(move, mono):
        if k:
            image[i] = k
            targets.append(i)
            odd += k if x < 0 else 0
    if exterior:
        odd += sum(a > b for a, b in itertools.combinations(targets, 2))
    return tuple(image), -1 if odd % 2 else 1


def _group(g: int, moves, groups: dict, m: int, exterior: bool, weight) -> tuple:
    """The basis elements of Sym^m, or (exterior) Lambda^m, of the weight (all
    of them when it is None); their ids, then the ids of their images under
    each move; and the signs of those images.  Cached in groups, which
    numbers the monomials of each power as they come, so that a whole basis
    gets the indices of its order."""
    key = (m, exterior, weight)
    if key not in groups:
        monos = _exponent_vectors(2 * g, m, exterior) if weight is None else _weight_monomials(g, m, exterior, weight)
        ids = groups.setdefault((m, exterior), {})
        columns, signs = [[ids.setdefault(mono, len(ids)) for mono in monos]], []
        for move in moves:
            images = [_signed_image(move, mono, exterior) for mono in monos]
            columns.append([ids.setdefault(image, len(ids)) for image, _ in images])
            signs.append([sign for _, sign in images])
        groups[key] = monos, columns, signs
    return groups[key]


def _block(g: int, moves, groups: dict, factors, zero: bool) -> tuple[list[tuple], list]:
    """The basis elements of the block of the factors (m, exterior), one
    exponent vector per factor, all of them or (zero) those of weight 0, in
    the order of the product, the first factor outermost; and each move on
    them as image index and sign lists.  Each element carries, a factor at a
    time, a code (size times the code before, plus the monomial's id: on the
    whole block, its index), the codes of its images and their signs.  For
    weight 0, every factor but the last ranges over its monomials grouped by
    weight, pruned by the |w|_1 that the later factors can still cancel, and
    the last takes the opposite weight; the codes then place the images."""
    sizes = [math.comb(2 * g, m) if exterior else math.comb(2 * g + m - 1, m) for m, exterior in factors]
    if not zero:
        whole = [_group(g, moves, groups, m, exterior, None) for m, exterior in factors]
        images, signs = [[0]] * len(moves), [[1]] * len(moves)
        for (_, parts, part_signs), size in zip(whole, sizes):
            images = [[c * size + r for c in image for r in part] for image, part in zip(images, parts[1:])]
            signs = [[s * y for s in sign for y in part] for sign, part in zip(signs, part_signs)]
        return list(itertools.product(*(group[0] for group in whole))), list(zip(images, signs))
    reach = [min(m, 2 * g - m) if exterior else m for m, exterior in factors]
    states = {(0,) * g: ([()], [[0]] * (1 + len(moves)), [[1]] * len(moves))}
    for f, ((m, exterior), size) in enumerate(zip(factors, sizes)):
        l1 = sum(reach[f + 1 :])
        weights = _weights(g, m, exterior) if f < len(factors) - 1 else ()
        gathered: dict = {}  # target weight -> the states and groups that reach it
        for weight, state in states.items():
            if f == len(factors) - 1:
                targets = [((0,) * g, tuple(map(neg, weight)))]
            else:  # the weights w of the factor whose sum t with weight can still cancel
                sums = [(tuple(map(add, weight, w)), w) for w in weights]
                targets = [(t, w) for t, w in sums if sum(map(abs, t)) <= l1]
            for target, w in targets:
                gathered.setdefault(target, []).append((state, _group(g, moves, groups, m, exterior, w)))
        states = {
            target: (
                [p + (mono,) for (elements, _, _), (monos, _, _) in pairs for p in elements for mono in monos],
                [
                    [c * size + r for (_, codes, _), (_, ids, _) in pairs for c in codes[i] for r in ids[i]]
                    for i in range(1 + len(moves))
                ],
                [
                    [s * y for (_, _, signs), (_, _, more) in pairs for s in signs[i] for y in more[i]]
                    for i in range(len(moves))
                ],
            )
            for target, pairs in gathered.items()
        }
    elements, columns, signs = states.get((0,) * g, ([], [[]] * (1 + len(moves)), [[]] * len(moves)))
    # the order of the product is the reverse order of the exponent vectors
    order = sorted(range(len(elements)), key=elements.__getitem__, reverse=True)
    index = {columns[0][b]: k for k, b in enumerate(order)}
    images = [[index[column[b]] for b in order] for column in columns[1:]]
    return [elements[b] for b in order], list(zip(images, ([sign[b] for b in order] for sign in signs)))


def _derivation_image(n, mono: tuple[int, ...], exterior: bool) -> dict[tuple[int, ...], int]:
    """The image of a basis element of Sym^m, or (exterior) Lambda^m, given
    by its exponent vector, under the derivation that a matrix induces, given
    by sparse columns (j, column) that include its nonzero ones: each e_j in
    turn goes to the matrix times e_j."""
    image: dict[tuple[int, ...], int] = {}
    for j, column in n:
        k = mono[j]
        for i, x in column if k else ():
            if exterior and mono[i] and i != j:
                continue
            # e_i takes the place of e_j and passes the wedge factors between
            if exterior and sum(mono[min(i, j) + 1 : max(i, j)]) % 2:
                x = -x
            key = mono[:j] + (k - 1,) + mono[j + 1 :]
            key = key[:i] + (key[i] + 1,) + key[i + 1 :]
            image[key] = image.get(key, 0) + k * x
    return {key: c for key, c in image.items() if c}


def _derivation_rows(factors, elements, columns: Sequence[Column], derivation) -> dict[tuple, Column]:
    """The derivation (N, caches) of N, by its nonzero sparse columns, on the
    block of the factors, on columns, sparse vectors on its elements: each
    element's row {column index: entry}; caches keeps each monomial's image."""
    n, cache = derivation
    rows: dict[tuple, Column] = {}
    for k, column in enumerate(columns):
        for b, e in column.items():
            element = elements[b]
            for f, (m, exterior) in enumerate(factors):
                mono = element[f]
                if mono not in cache[exterior]:
                    cache[exterior][mono] = _derivation_image(n, mono, exterior)
                for image, x in cache[exterior][mono].items():
                    row = rows.setdefault(element[:f] + (image,) + element[f + 1 :], {})
                    row[k] = row.get(k, 0) + e * x
    return rows


def _fixed_by_derivation(derivation, factors, elements, vectors: Sequence[Column]) -> bool:
    """Whether D_N v = 0 for the derivation (N, caches) of N = s - 1 and
    each vector, sparse on the block elements of the factors: over Q that is
    rho(s) v = v when N^2 = 0."""
    rows = _derivation_rows(factors, elements, vectors, derivation)
    return not any(x for row in rows.values() for x in row.values())


def _fixed_by_move(move, cache: dict, factors, elements, vectors: Sequence[Column]) -> bool:
    """Whether the signed permutation move, by the (image, sign) of each basis
    vector, fixes each vector, sparse on the block elements of the factors:
    each element's image must carry the element's coefficient times the
    sign.  cache keeps each factor monomial's `_signed_image`."""
    for vector in vectors:
        keyed = {elements[b]: x for b, x in vector.items()}
        for element, x in keyed.items():
            image = []
            for mono, (_, exterior) in zip(element, factors):
                if (mono, exterior) not in cache:
                    cache[mono, exterior] = _signed_image(move, mono, exterior)
                part, sign = cache[mono, exterior]
                image.append(part)
                x *= sign
            if keyed.get(tuple(image)) != x:
                return False
    return True


def _orbit_sums(size: int, moves: Sequence[tuple[list[int], list[int]]]) -> list[Column]:
    """A basis of the block vectors that the signed permutations moves, given
    as (image, sign) lists, fix: the sums of the orbits, up to sign, of the
    basis elements that reach none with both signs, which some element of
    the group they generate would negate."""
    sign = [0] * size
    sums = []
    for root in range(size):
        if sign[root]:
            continue
        sign[root], orbit, live = 1, [root], True
        for b in orbit:
            for image, move_sign in moves:
                c, x = image[b], move_sign[b] * sign[b]
                if not sign[c]:
                    sign[c] = x
                    orbit.append(c)
                live = live and sign[c] == x
        if live:
            sums.append({b: sign[b] for b in orbit})
    return sums


def _orbit_block(g: int, zero: bool, moves, groups, blocks, checks, derivations, factors) -> tuple[list[int], bool]:
    """[dim V^H, then dim V^H & ker(s - 1) jointly over each s in turn whose
    derivation is listed] on V, the block of the factors or (zero) its
    weight-0 part; whether it was rerun.  The `_echelon_history` of the
    derivation rows on the orbit sums runs modulo PRIME, and again over Q
    unless every kernel vector lifts and, combined into a vector on the
    block elements, passes every check in checks; the rational kernel
    vectors must pass them too.  The rank mod p is at most the rank over Q,
    so the last entry bounds the rational kernel from above; verified kernel
    vectors bound it from below.  Kept in blocks by PRIME and the factors: a
    block depends on its copies only through (m, exterior)."""
    key = (PRIME, tuple(factors))
    if key not in blocks:
        elements, moved = _block(g, moves, groups, factors, zero)
        sums = _orbit_sums(len(elements), moved)
        history, p = [], PRIME
        if derivations:
            rows_of = lambda n: _derivation_rows(factors, elements, sums, n).values()  # noqa: E731
            for p in (PRIME, 0):
                history, pivots = _echelon_history(derivations, rows_of, len(sums), p)
                # None marks a vector with an entry that has no lift
                vectors = [_lift(v, p) if p else v for v in _kernel_vectors(pivots, len(sums), p)] if history[-1] else []
                if None in vectors:
                    continue
                vectors = [{b: c * e for k, c in v.items() for b, e in sums[k].items()} for v in vectors]
                if not vectors or all(check(factors, elements, vectors) for check in checks):
                    break
            else:
                raise AssertionError("a rational kernel vector is not fixed by every listed generator")
        blocks[key] = [len(sums)] + history, not p
    return blocks[key]


def brute_force_invariant_dim(
    kind: GammaType,
    copies: GradedVCopies,
    degree: int,
) -> OracleResult:
    """Exact dimension of the invariants, in the degree piece, of the group
    that `listed_generators(kind, copies.g)` generates, by orbit sums and
    derivation rows (see the module docstring).

    For the orthogonal kind at g = 1 that is the finite O_{1,1}(Z) of order
    4, whose Sym^2 V invariants are 2-dimensional, not the stable count 1.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if kind is GammaType.THETA:
        raise ValueError("the oracle covers the symplectic or orthogonal group")
    _check_work_cap(_orbit_work(kind, copies, degree)[degree])
    setup = _oracle_setup(kind, copies.g)
    history = [0] * (1 + len(setup[-1])) if piece_dimension(copies, degree) else []
    rational = False
    for alloc in _allocations(copies, degree):
        factors = [(m, d % 2 == 1) for m, d in zip(alloc, copies.copy_degrees) if m]
        block_history, block_rational = _orbit_block(copies.g, *setup, factors)
        history = [h + b for h, b in zip(history, block_history)]
        rational |= block_rational
    return OracleResult(history[-1] if history else 0, tuple(history), "rational" if rational else "modp")


def _product_sum(terms) -> dict:
    """The sum of x N M over the terms (x, N, M), for matrices by their
    nonzero sparse columns (j, column), as {(row, column): entry}."""
    out: dict = {}
    for x, n, m in terms:
        left = dict(n)
        for j, column in m:
            for k, y in column:
                for i, u in left.get(k, ()):
                    out[i, j] = out.get((i, j), 0) + x * u * y
    return {key: u for key, u in out.items() if u}


@lru_cache(maxsize=4)
def _oracle_setup(kind: GammaType, g: int) -> tuple:
    """Whether the route keeps to weight 0, after asserting the matrix facts
    that allow it (see the module docstring) on N = s - 1 for each listed
    unipotent s; the moves; a cache of their images and one of block
    counts; the exact check of each listed generator, D_N v = 0 for a
    unipotent s and the signed images of a signed permutation, each with a
    cache of its monomial images; and the derivations, N with those caches,
    of one unipotent generator per H-conjugacy class, the same objects as
    the check's, so that both share their caches.  The pieces of one genus
    share them."""
    generators = listed_generators(kind, g)
    n = [s.n for s in generators if s.move is None]
    if kind is GammaType.SYMPLECTIC:  # [N_xi, N_yi] = +-h_i; the T_{e_i} are listed first
        brackets = [(n[i], n[g + i], {(i, i): 1, (g + i, g + i): -1}) for i in range(g)]
    else:  # [N_ij, N_ji] = +-(h_i - h_j); the E_ij are listed in the order of (i, j)
        index = {pair: k for k, pair in enumerate((i, j) for i in range(g) for j in range(g) if i != j)}
        brackets = [
            (n[k], n[index[j, i]], {(i, i): 1, (g + i, g + i): -1, (j, j): -1, (g + j, g + j): 1})
            for (i, j), k in index.items()
        ]
        swap = [(c, 1) for c in range(2 * g)]
        swap[0], swap[g] = (g, 1), (0, 1)
        if g > 1 and tuple(swap) not in [s.move for s in generators]:
            raise AssertionError("the swap of the first pair is not listed")
    if any(_product_sum([(1, a, a)]) for a in n):
        raise AssertionError("a listed unipotent generator s has (s - 1)^2 != 0")
    if any(_product_sum([(1, a, b), (-1, b, a)]) not in (h, {key: -x for key, x in h.items()}) for a, b, h in brackets):
        raise AssertionError("a bracket of listed unipotent generators is not +-h_i or +-(h_i - h_j)")
    derivations = [(a, ({}, {})) for a in n]
    checks = [partial(_fixed_by_derivation, d) for d in derivations]
    checks += [partial(_fixed_by_move, s.move, {}) for s in generators if s.move]
    # the first s; or T_x1 and T_{x1 + y2}, listed after the 2g T_{e_i}
    kept = derivations[:1] + (derivations[2 * g : 2 * g + 1] if kind is GammaType.SYMPLECTIC else [])
    zero = kind is GammaType.SYMPLECTIC or g > 1
    return zero, monomial_moves(kind, g), {}, {}, checks, kept


# ---------------------------------------------------------------------------
# crosscheck report


class InvariantReport(NamedTuple):
    """Per-degree columns, from degree 0: the stable invariant count, the
    pair-class ring count, and the oracle's count, None without the oracle."""

    n: int
    g: int
    stable: tuple[int, ...]
    ring: tuple[int, ...]
    oracle: tuple[int | None, ...]

    @property
    def agree(self) -> list[bool]:
        """Per degree: the two series agree, and so does the oracle if run."""
        return [s == r and o in (None, s) for s, r, o in zip(self.stable, self.ring, self.oracle)]


def invariant_crosscheck(
    n: int,
    g: int,
    max_degree: int,
    with_oracle: bool = False,
) -> InvariantReport:
    """Per-degree comparison of the stable invariant count, the pair-class
    ring count, and (optionally) the oracle on the free model, whose caps
    every piece and the sum over the pieces of the request meet before any
    work."""
    if n < 8:
        raise ValueError("the comparison window needs n >= 8")
    if g < 1 or max_degree < 0:
        raise ValueError("need g >= 1 and max_degree >= 0")
    oracle: tuple[int | None, ...] = (None,) * (max_degree + 1)
    if with_oracle:
        copies = GradedVCopies(g, tuple(go_shifted_degrees(n, max_degree)))
        kind = gamma_kind_for_oracle(n)
        # a count up to a lower degree agrees with the whole request's, so
        # a window that doubles meets the first piece above the cap at about
        # the cost of counting up to it
        top = 64
        while True:
            window = min(top, max_degree)
            works = _orbit_work(kind, copies, window)
            for work in works:
                _check_work_cap(work)
            if sum(works) > REQUEST_WORK_CAP:
                raise OracleCapExceeded(
                    f"orbit-route work {sum(works)} summed up to degree {window} > cap {REQUEST_WORK_CAP}"
                )
            if top >= max_degree:
                break
            top *= 2
        oracle = tuple(brute_force_invariant_dim(kind, copies, d).dimension for d in range(max_degree + 1))
    # the generators are counted per degree twice: the pairs of shifted
    # degrees here, and the pairs a <= b of cover indices from which the
    # ring's series is built; by the bijection x = 4a - n, y = 4b - n the
    # counts are equal, and then one series fills both columns
    ring = stable_invariant_series(n, max_degree).coefficients
    counts = shifted_pair_counts(n, max_degree)
    if counts == pair_degree_counts(n, max_degree):
        stable = ring
    else:
        stable = free_graded_commutative_series(counts, max_degree).coefficients
    return InvariantReport(n, g, stable, ring, oracle)


def gamma_kind_for_oracle(n: int) -> GammaType:
    """The oracle's group: orthogonal for n even, symplectic for n odd."""
    return GammaType.ORTHOGONAL if n % 2 == 0 else GammaType.SYMPLECTIC
