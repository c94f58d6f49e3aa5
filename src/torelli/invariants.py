"""Invariant-dimension counts: closed forms and an exact group oracle.

The free model for the Torelli-type cohomology is S[V (x) P], where V is the
2g-dimensional defining representation and P has one generator in each
positive degree 4m - n; the arithmetic-invariant counterpart is a polynomial
ring on classes omega_{x,y} indexed by unordered pairs of those degrees.

The oracle computes, exactly, the dimension of the subspace of a degree-d
graded piece (symmetric powers on even copies, exterior powers on odd
copies) fixed by the group that `group_generators` generates: no sampling,
no seed and no stopping rule.  The group preserves each allocation block (one
exponent per copy), so the count is taken block by block, and certified over
Q from both sides:

- upper bound: a rank modulo p is at most the rank over Q, so the rational
  kernel is no larger than the kernel modulo p;
- lower bound: each kernel vector modulo p has a unit entry on its own free
  column and zeros on the other free columns; it is lifted to Q by rational
  reconstruction and checked exactly, over the integers, to be fixed by every
  listed generator.  Lifted vectors that pass are independent invariants.

When a lift fails, or a lifted vector fails its check, the same elimination
runs again over Q, and the route reads "rational" or "orbit-rational".

The symplectic kind's route ("modp") feeds the rows of each listed
generator s in turn into a sparse echelon form modulo PRIME, whose kernel
is then the joint kernel of rho(s) - 1 so far.  J, a signed permutation,
gives the two-entry rows of rho(J) - 1.  Every other s is a transvection:
N = s - 1 squares to 0, so rho(s) = exp(D) for the derivation D that N
induces, and rho(s) - 1 = D U, with U = 1 + D/2! + ... invertible over Q
and modulo PRIME (D^j = 0 past the degree, at most 2000).  So s gives the
rows of D, at most two terms per copy, where those of rho(s) - 1 fill in.

The orthogonal kind's route ("orbit") uses orbit sums, as in the Reynolds
operator method of Derksen-Kemper and Sturmfels.  The listed signed
permutations (swaps, sign flips, pair permutations) generate a finite group
H that permutes the block's basis up to sign, so V^H is spanned by the sums
of the orbits that no element of H negates.  Every other generator is
H-conjugate to s, the first of them, so the invariants are V^H & ker(s - 1).
s - 1 squares to 0, so it is log s: the derivation it induces has the kernel
of s - 1 over Q, and its rows on the orbit sums are the ones eliminated.  A
wrong conjugacy claim would fail the certificate, not change the count.

For the orthogonal kind at g = 1 the generated group is the finite
O_{1,1}(Z) = {+-I, +-swap}, not a Zariski-dense lattice, and its counts
exceed the stable ones: Sym^2 V has the two invariants xy and x^2 + y^2
rather than the form alone.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .graded import HilbertSeries, free_graded_commutative_series
from .groups import GammaType, group_generators
from .mt import pair_degree_counts

# not used by the oracle, which samples nothing; kept importable here because
# bench/layers.py traces calls at these names
from .groups import is_in_group, sample_group_element  # noqa: F401
from .linalg import kernel_basis  # noqa: F401

# the oracle's modulus, 2^31 - 1; rational reconstruction recovers entries
# n/d with |n|, d <= 32767
PRIME = 2_147_483_647

# the symplectic route's a-priori cap on the piece dimension, the number of
# columns it eliminates on; the slowest pieces inside it take about 2 s
# (Lambda^4 V at g = 9, under 90 transvections)
BASIS_CAP = 4096
# the orbit route's a-priori cap on `_orbit_work`; the slowest pieces inside
# it take about 3.3 s (Sym^12 V at g = 4)
WORK_CAP = 2_500_000


class OracleCapExceeded(ValueError):
    """A requested graded piece is above one of the oracle's caps."""


# ---------------------------------------------------------------------------
# closed forms


def go_homotopy_rank(k: int) -> int:
    """Rank of the rational homotopy of G/O in degree k."""
    return 1 if k > 0 and k % 4 == 0 else 0


def mapping_space_homotopy(n: int, g: int, k: int) -> tuple[int, int, int]:
    """(multiplicity of V, trivial multiplicity, total rank) of the degree-k
    rational homotopy of the stabilized mapping space."""
    if n < 1 or g < 0 or k < 0:
        raise ValueError("need n >= 1, g >= 0 and k >= 0")
    mult_v = go_homotopy_rank(k + n)
    mult_trivial = go_homotopy_rank(k + 2 * n)
    return (mult_v, mult_trivial, 2 * g * mult_v + mult_trivial)


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


def torelli_model_series(n: int, g: int, max_degree: int) -> HilbertSeries:
    """Series of the free algebra on 2g copies of each shifted degree."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    return free_graded_commutative_series(
        ((d, 2 * g) for d in go_shifted_degrees(n, max_degree)), max_degree
    )


def stable_pair_degrees(n: int, max_degree: int) -> list[tuple[int, int]]:
    """Unordered pairs (x, y), x <= y, of shifted degrees with x + y <= max_degree."""
    degrees = go_shifted_degrees(n, max_degree)
    return [
        (x, y)
        for i, x in enumerate(degrees)
        for y in degrees[i:]
        if x + y <= max_degree
    ]


def stable_invariant_series(n: int, max_degree: int) -> HilbertSeries:
    """Series of the polynomial ring on omega_{x,y}, degree x + y.

    The diagonal generators omega_{x,x} are retained in the odd case: the
    symmetric square of an odd copy realizes the alternating pairing.
    """
    return free_graded_commutative_series(pair_degree_counts(n, max_degree), max_degree)


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


# an oracle request reads the same table three or four times: its piece
# dimension, its allocations, the CLI's piece column and the orbit work
@lru_cache(maxsize=8)
def _tail_dimensions(copies: GradedVCopies, degree: int) -> tuple[tuple[int, ...], ...]:
    """tails[i][e]: the dimension of the degree-e piece on the copies from
    the i-th on, for e <= degree (the last entry: 1 in degree 0 only).  A copy
    of odd degree d multiplies the series by (1 + q^d)^{2g}, its exterior
    powers, and one of even degree d by 1/(1 - q^d)^{2g}, its symmetric
    powers: 2g passes of a running sum with step d, taken downwards for the
    product and upwards for the quotient.  Cached, so tuples that no caller
    can change."""
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


def _orbit_work(copies: GradedVCopies, degree: int) -> list[int]:
    """The orbit route's work in each degree up to degree, counted a priori:
    the monomials visited, 2g exponents by each of the g + 1 moves, plus the
    nonzeros of the images under s, which the exact check touches.  s moves
    x_1 to x_1 + x_2 and y_2 to y_2 - y_1, so on an even copy x_1^a y_2^b has
    (a + 1)(b + 1) terms, counted by 1/(1 - q^d)^{2g+2}, and an odd copy is
    bounded by (1 + 2q^d)^2 (1 + q^d)^{2g-2}.  At g = 1 there is no s."""
    g = copies.g
    images = [int(g > 1)] + [0] * degree
    for d in copies.copy_degrees:
        steps = range(degree, d - 1, -1) if d % 2 else range(d, degree + 1)
        for weight in [2, 2] + [1] * (2 * g - 2) if d % 2 else [1] * (2 * g + 2):
            for e in steps:
                images[e] += weight * images[e - d]
    pieces = _tail_dimensions(copies, degree)[0]
    return [2 * g * (g + 1) * x + y for x, y in zip(pieces, images)]


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


def _check_basis_cap(size: int) -> None:
    if size > BASIS_CAP:
        raise OracleCapExceeded(f"graded piece has dimension {size} > cap {BASIS_CAP}")


def _check_work_cap(work: int) -> None:
    if work > WORK_CAP:
        raise OracleCapExceeded(f"orbit-route work {work} > cap {WORK_CAP}")


Column = dict[int, int]  # sparse column: row index -> nonzero entry


def _sparse_columns(a: Sequence[Sequence[int]]) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero entries (i, x) of each column of a."""
    return [tuple((i, row[j]) for i, row in enumerate(a) if row[j]) for j in range(len(a))]


@lru_cache(maxsize=64)
def _exponent_vectors(dim: int, m: int, exterior: bool) -> tuple[tuple[int, ...], ...]:
    """The basis of Sym^m, or (exterior) Lambda^m, of a dim-dimensional space
    as exponent vectors, in the order of their sorted index tuples."""
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    return tuple(tuple(map(b.count, range(dim))) for b in combos(range(dim), m))


@lru_cache(maxsize=4096)
def _shares(column: tuple[tuple[int, int], ...], k: int) -> list[tuple[tuple, int]]:
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


def _monomial_image(a, mono: tuple[int, ...], exterior: bool) -> dict[tuple[int, ...], int]:
    """The image of a basis element of Sym^m, or (exterior) Lambda^m, given
    by its exponent vector, under the matrix with sparse columns a: e_j^k
    goes to the k-th power of column j, and a wedge factor sorted into place
    passes every larger index."""
    expansion = {(0,) * len(mono): 1}
    for j, k in enumerate(mono):
        if not k:
            continue
        nxt: dict[tuple[int, ...], int] = {}
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


def _power_columns(a: Sequence[Sequence[int]], m: int, exterior: bool) -> list[Column]:
    """Sparse columns of Lambda^m(a) (exterior) or Sym^m(a), on the basis of
    `_exponent_vectors`."""
    basis = _exponent_vectors(len(a), m, exterior)
    index = {b: i for i, b in enumerate(basis)}
    columns = _sparse_columns(a)
    return [{index[b]: c for b, c in _monomial_image(columns, src, exterior).items()} for src in basis]


def _signed_kron(factors: Sequence[Sequence[Column]]) -> tuple[list[int], list[int]]:
    """The Kronecker product of signed permutations, each given by its sparse
    columns of one entry: the image and the sign of each basis element, the
    first factor outermost."""
    image, sign = [0], [1]
    for part in factors:
        pairs = [next(iter(column.items())) for column in part]
        image = [r * len(part) + s for r in image for s, _ in pairs]
        sign = [x * y for x in sign for _, y in pairs]
    return image, sign


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


def _insert_row(pivots: dict[int, Column], row: Column, p: int) -> None:
    """Reduce a row against the pivot rows (each monic in its pivot column,
    with no entry to the left of it) and keep it as a new pivot row if
    anything is left: modulo p, or over Q when p is 0.  Modulo p, entries are
    reduced only once they lead."""
    row = dict(row)
    while row:
        c = min(row)
        f = row.pop(c) % p if p else row.pop(c)
        if not f:
            continue
        pivot_row = pivots.get(c)
        if pivot_row is None:
            inverse = pow(f, -1, p) if p else 1 / Fraction(f)
            new = {c: 1}
            for k, x in row.items():
                x = x * inverse % p if p else x * inverse
                if x:
                    new[k] = x
            pivots[c] = new
            return
        get = row.get
        for k, y in pivot_row.items():
            if k != c:
                row[k] = get(k, 0) - f * y


def _kernel_mod_p(pivots: dict[int, Column], size: int, p: int) -> list[Column]:
    """One kernel vector per free column: 1 there, 0 on the other free
    columns, read off the reduced echelon form."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # the pivot rows to the right are already reduced: own pivot plus free columns
        for k in [k for k in row if k != c and k in pivots]:
            f = row.pop(k)
            for j, y in pivots[k].items():
                if j != k:
                    x = (row.get(j, 0) - f * y) % p
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
    vectors = {f: {f: 1} for f in range(size) if f not in pivots}
    for c, row in pivots.items():
        for k, x in row.items():
            if k != c:
                vectors[k][c] = -x % p
    return list(vectors.values())


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


def _is_fixed(column: Callable[..., dict], vector: dict) -> bool:
    """Exact check of M v = v for M given by column(c), its column c."""
    image: dict = {}
    for c, x in vector.items():
        for r, y in column(c).items():
            image[r] = image.get(r, 0) + x * y
    return {r: x for r, x in image.items() if x} == vector


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


def _certified_history(groups, rows_of, elements, columns, factors, actions) -> tuple[list[int], bool]:
    """`_echelon_history` on columns, sparse vectors on the block elements of
    the factors, modulo PRIME when every kernel vector lifts to one whose
    combination of columns every `_action` fixes, checked exactly on its
    support, and else over Q; and whether it took the rerun.  The rank mod p
    is at most the rank over Q, so the last entry bounds the rational kernel
    from above; verified lifts bound it from below."""
    p, size = PRIME, len(columns)
    history, pivots = _echelon_history(groups, rows_of, size, p)
    for vector in _kernel_mod_p(pivots, size, p) if history[-1] else ():
        lifted = _lift(vector, p)  # None when an entry has no lift
        invariant = lifted and {elements[b]: c * e for k, c in lifted.items() for b, e in columns[k].items()}
        if not invariant or not all(_is_fixed(partial(_block_image, a, factors), invariant) for a in actions):
            return _echelon_history(groups, rows_of, size, 0)[0], True
    return history, False


class OracleResult(NamedTuple):
    """A certified invariant dimension.

    On the symplectic route, history[k] is the dimension, summed over
    allocation blocks, of the joint kernel of rho(s) - 1 over the first k + 1
    generators s; on the orbit route it is (dim V^H, dim V^H & ker(s - 1)),
    or (dim V^H) at g = 1.  A block contributes its kernel modulo PRIME, an
    upper bound that the certificate makes exact at the last entry, on route
    "modp" or "orbit"; route is "rational" or "orbit-rational" when some
    block failed the certificate and was eliminated again over Q.
    """

    dimension: int
    history: tuple[int, ...]
    route: str


def _count(copies: GradedVCopies, degree: int, history: list[int], exact: str, solve) -> OracleResult:
    """The histories that solve(factors) gives on each allocation block,
    added to history; the route is exact unless some block's is not."""
    route = exact
    for alloc in _allocations(copies, degree):
        block_history, block_route = solve([(m, d % 2 == 1) for m, d in zip(alloc, copies.copy_degrees) if m])
        history = [h + b for h, b in zip(history, block_history)]
        if block_route != exact:
            route = block_route
    return OracleResult(history[-1] if history else 0, tuple(history), route)


def _is_signed(a) -> bool:
    return all(sum(map(bool, row)) == 1 for row in a)


def _action(a) -> tuple:
    """The matrix a by its sparse columns, with empty caches of its images
    of symmetric and of exterior monomials."""
    return _sparse_columns(a), ({}, {})


def _derivation(a) -> tuple:
    """`_action` of N = a - 1, its columns as (j, column) for the nonzero ones;
    the derivation N induces is log a when N^2 = 0."""
    n = _sparse_columns([[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(a)])
    return [(j, column) for j, column in enumerate(n) if column], ({}, {})


def _block_elements(g: int, factors) -> list[tuple]:
    """The basis of the block of the factors (m, exterior), one exponent
    vector per factor, the first factor outermost."""
    return list(itertools.product(*[_exponent_vectors(2 * g, *factor) for factor in factors]))


def _signed_block(moves, factors, powers: dict) -> list[tuple[list[int], list[int]]]:
    """Each signed permutation of moves on the block of the factors, as
    image and sign lists (`_signed_kron`); powers caches its power columns."""
    for k, a in enumerate(moves):
        for m, exterior in factors:
            if (k, m, exterior) not in powers:
                powers[k, m, exterior] = _power_columns(a, m, exterior)
    return [_signed_kron([powers[k, m, exterior] for m, exterior in factors]) for k in range(len(moves))]


def _block_image(action, factors, element) -> dict:
    """The image of a block element, one exponent vector per factor, under
    an `_action`; its caches keep each monomial's image."""
    a, cache = action
    image: dict = {(): 1}
    for (m, exterior), mono in zip(factors, element):
        if mono not in cache[exterior]:
            cache[exterior][mono] = _monomial_image(a, mono, exterior)
        image = {key + (b,): c * x for key, c in image.items() for b, x in cache[exterior][mono].items()}
    return image


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
    """The derivation of a `_derivation` on the block of the factors, on
    columns, sparse vectors on its elements: each element's row {column
    index: entry}; derivation caches each factor monomial's image."""
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


def _symplectic_block(g: int, generators, derivations, actions, powers: dict, factors) -> tuple[list[int], str]:
    """The joint kernel of rho(s) - 1 on the block of the factors after each
    listed generator s, and the route: the rows of derivations[k] for a
    transvection, and for J (None there), which takes b to sign(b) e_pi(b),
    the rows e_pi(b) - sign(b) e_b; powers caches J's power columns."""
    elements = _block_elements(g, factors)
    columns = [{b: 1} for b in range(len(elements))]

    def rows_of(k: int) -> Iterable[Column]:
        if derivations[k] is not None:
            return _derivation_rows(factors, elements, columns, derivations[k]).values()
        image, sign = _signed_block([generators[k]], factors, powers.setdefault(k, {}))[0]
        return [{b: -x, c: 1} if c != b else {b: 1 - x} for b, (c, x) in enumerate(zip(image, sign))]

    history, rational = _certified_history(range(len(generators)), rows_of, elements, columns, factors, actions)
    return history, "rational" if rational else "modp"


def _symplectic_invariant_dim(copies: GradedVCopies, degree: int) -> OracleResult:
    """The symplectic kind's count, generator by generator."""
    size = piece_dimension(copies, degree)
    _check_basis_cap(size)
    generators = group_generators(GammaType.SYMPLECTIC, copies.g)
    derivations = [None if _is_signed(a) else _derivation(a) for a in generators]
    actions = [_action(a) for a in generators]
    solve = partial(_symplectic_block, copies.g, generators, derivations, actions, {})
    return _count(copies, degree, [0] * len(generators) if size else [], "modp", solve)


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


def _orbit_block(g: int, moves, actions, derivation, powers: dict, factors) -> tuple[list[int], str]:
    """[dim V^H, dim V^H & ker(s - 1)] on the block of the factors, or
    [dim V^H] when derivation, that of s - 1, is None; and the route."""
    elements = _block_elements(g, factors)
    sums = _orbit_sums(len(elements), _signed_block(moves, factors, powers))
    if derivation is None:
        return [len(sums)], "orbit"
    rows = _derivation_rows(factors, elements, sums, derivation)
    history, rational = _certified_history([rows], dict.values, elements, sums, factors, actions)
    return [len(sums)] + history, "orbit-rational" if rational else "orbit"


def _orbit_invariant_dim(copies: GradedVCopies, degree: int) -> OracleResult:
    """The orthogonal kind's count by orbit sums.  The moves, the listed
    signed permutations that move x_1, generate H: their pair permutations
    conjugate the first pair's swap and flip to every other pair's.  The
    rows are those of the derivation of s - 1 on the orbit sums; at g = 1
    there is no s and every generator is a move."""
    _check_work_cap(_orbit_work(copies, degree)[degree])
    generators = group_generators(GammaType.ORTHOGONAL, copies.g)
    signed = [a for a in generators if _is_signed(a)]
    moves = [a for a in signed if a[0][0] != 1]
    s = next((a for a in generators if a not in signed), None)
    actions = [_action(a) for a in generators]
    history = [0] * (1 if s is None else 2) if piece_dimension(copies, degree) else []
    solve = partial(_orbit_block, copies.g, moves, actions, None if s is None else _derivation(s), {})
    return _count(copies, degree, history, "orbit", solve)


def brute_force_invariant_dim(
    kind: GammaType,
    copies: GradedVCopies,
    degree: int,
) -> OracleResult:
    """Exact dimension of the invariants, in the degree piece, of the group
    that `group_generators(kind, copies.g)` generates.

    For the orthogonal kind at g = 1 that is the finite O_{1,1}(Z) of order
    4, whose Sym^2 V invariants are 2-dimensional, not the stable count 1.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if kind is GammaType.THETA:
        raise ValueError("the oracle covers the symplectic or orthogonal group")
    if kind is GammaType.ORTHOGONAL:
        return _orbit_invariant_dim(copies, degree)
    return _symplectic_invariant_dim(copies, degree)


# ---------------------------------------------------------------------------
# crosscheck report


class ReportRow(NamedTuple):
    degree: int
    stable_count: int
    ring_count: int
    oracle_count: int | None

    @property
    def agree(self) -> bool:
        if self.stable_count != self.ring_count:
            return False
        return self.oracle_count is None or self.oracle_count == self.stable_count


class InvariantReport(NamedTuple):
    n: int
    g: int
    rows: tuple[ReportRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)


def invariant_crosscheck(
    n: int,
    g: int,
    max_degree: int,
    with_oracle: bool = False,
) -> InvariantReport:
    """Per-degree comparison of the stable invariant count, the pair-class
    ring count, and (optionally) the oracle on the free model, whose caps
    every piece meets before any work."""
    if n < 8:
        raise ValueError("the comparison window needs n >= 8")
    if g < 1 or max_degree < 0:
        raise ValueError("need g >= 1 and max_degree >= 0")
    # looked up at call time, at the name bench/layers.py traces
    from .mt import kappa_ll_series

    copies = GradedVCopies(g, tuple(go_shifted_degrees(n, max_degree)))
    kind = gamma_kind_for_oracle(n)
    if with_oracle:
        # a count up to a lower degree agrees with the whole request's, so
        # a window that doubles meets the first piece above the cap at about
        # the cost of counting up to it
        top = 64
        while True:
            if kind is GammaType.ORTHOGONAL:
                for work in _orbit_work(copies, min(top, max_degree)):
                    _check_work_cap(work)
            else:
                for size in _tail_dimensions(copies, min(top, max_degree))[0]:
                    _check_basis_cap(size)
            if top >= max_degree:
                break
            top *= 2
    stable = stable_invariant_series(n, max_degree)
    ring = kappa_ll_series(n, max_degree)
    rows = []
    for d in range(max_degree + 1):
        oracle = None
        if with_oracle:
            oracle = brute_force_invariant_dim(kind, copies, d).dimension
        rows.append(ReportRow(d, stable[d], ring[d], oracle))
    return InvariantReport(n, g, tuple(rows))


def gamma_kind_for_oracle(n: int) -> GammaType:
    """The oracle's group: orthogonal for n even, symplectic for n odd."""
    return GammaType.ORTHOGONAL if n % 2 == 0 else GammaType.SYMPLECTIC
