"""Invariant-dimension counts: closed forms and an exact group oracle.

The free model for the Torelli-type cohomology is S[V (x) P], where V is the
2g-dimensional defining representation and P has one generator in each
positive degree 4m - n; the arithmetic-invariant counterpart is a polynomial
ring on classes omega_{x,y} indexed by unordered pairs of those degrees.

The oracle computes, exactly, the dimension of the subspace of a degree-d
graded piece (symmetric powers on even copies, exterior powers on odd
copies) fixed by the group that `group_generators` generates.  A vector is
fixed by that group exactly when every generator fixes it, so the count is
the dimension of the joint kernel of rho(s) - 1 over the fixed generator
list: no sampling, no seed and no stopping rule.  The group preserves each
allocation block (one exponent per copy), so the kernel is taken block by
block and no block-diagonal matrix is built.

Within a block, each generator's matrix is built as sparse columns (the
symmetric or exterior power of the generator on each copy, Kronecker-combined
across copies), and the rows of rho(s) - 1 go, one generator at a time, into
a sparse echelon form modulo the prime PRIME.  The count is certified over Q
from both sides:

- upper bound: a rank modulo p is at most the rank over Q, so the rational
  kernel is no larger than the kernel modulo p;
- lower bound: each kernel vector modulo p has a unit entry on its own free
  column and zeros on the other free columns; it is lifted to Q by rational
  reconstruction and checked exactly, over the integers, to be fixed by every
  generator.  Lifted vectors that pass are independent rational invariants.

When a lift fails, or a lifted vector fails its check, the same sparse
elimination runs again over Q, where it is exact by construction, and the
answer reports route "rational" instead of "modp".

For the orthogonal kind at g = 1 the generated group is the finite
O_{1,1}(Z) = {+-I, +-swap}, not a Zariski-dense lattice, and its counts
exceed the stable ones: Sym^2 V has the two invariants xy and x^2 + y^2
rather than the form alone.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

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

# the oracle's a-priori caps: the piece dimension, and the largest symmetric
# exponent deg // d at the least even copy degree d, whose power columns alone
# outgrow the piece (Sym^16 V at g = 2 takes about 1.5 s, Sym^26 V 36 s)
BASIS_CAP = 4096
EXPONENT_CAP = 16


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
        return super().__new__(cls, g, copy_degrees)


def _tail_dimensions(copies: GradedVCopies, degree: int) -> list[list[int]]:
    """tails[i][e]: the dimension of the degree-e piece on the copies from
    the i-th on, for e <= degree (the last entry: 1 in degree 0 only).  A copy
    of odd degree d multiplies the series by (1 + q^d)^{2g}, its exterior
    powers, and one of even degree d by 1/(1 - q^d)^{2g}, its symmetric
    powers: 2g passes of a running sum with step d, taken downwards for the
    product and upwards for the quotient."""
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
    return tails[::-1]


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


def _check_exponent_cap(copies: GradedVCopies, degree: int) -> None:
    even = [d for d in copies.copy_degrees if d % 2 == 0]
    if even and degree // min(even) > EXPONENT_CAP:
        raise OracleCapExceeded(
            f"symmetric exponent {degree} // {min(even)} = {degree // min(even)} "
            f"> cap {EXPONENT_CAP}"
        )


Column = dict[int, int]  # sparse column: row index -> nonzero entry


def _power_columns(a: Sequence[Sequence[int]], m: int, exterior: bool) -> list[Column]:
    """Sparse columns of Lambda^m(a) (exterior) or Sym^m(a), on the basis of
    sorted index tuples in lexicographic order."""
    dim = len(a)
    combos = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(combos(range(dim), m))
    index = {b: i for i, b in enumerate(basis)}
    nonzero = [[(i, a[i][j]) for i in range(dim) if a[i][j]] for j in range(dim)]
    columns = []
    for src in basis:
        expansion: dict[tuple[int, ...], int] = {(): 1}
        for j in src:
            nxt: dict[tuple[int, ...], int] = {}
            for mono, c in expansion.items():
                for i, x in nonzero[j]:
                    if exterior:
                        if i in mono:
                            continue
                        # sorting e_i into place passes every larger index
                        if sum(1 for t in mono if t > i) % 2:
                            x = -x
                    key = tuple(sorted(mono + (i,)))
                    nxt[key] = nxt.get(key, 0) + c * x
            expansion = nxt
        columns.append({index[mono]: c for mono, c in expansion.items() if c})
    return columns


def _kron_columns(factors: Sequence[Sequence[Column]]) -> list[Column]:
    """Sparse columns of the Kronecker product, the first factor outermost."""
    columns: list[Column] = [{0: 1}]
    for part in factors:
        size = len(part)
        columns = [
            {r * size + s: x * y for r, x in left.items() for s, y in right.items()}
            for left in columns
            for right in part
        ]
    return columns


def _rows_minus_identity(columns: Sequence[Column]) -> list[Column]:
    """The nonzero rows of M - 1, as sparse rows, for M given by its columns."""
    rows: list[Column] = [{} for _ in columns]
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


def _is_fixed(columns: Sequence[Column], vector: Column) -> bool:
    """Exact check of M v = v for M given by its columns."""
    image: Column = {}
    for c, x in vector.items():
        for r, y in columns[c].items():
            image[r] = image.get(r, 0) + x * y
    return {r: x for r, x in image.items() if x} == vector


def _echelon_history(
    generator_columns: Sequence[Sequence[Column]], p: int
) -> tuple[list[int], dict[int, Column]]:
    """Joint-kernel dimension of M - 1 after each generator M of one block,
    modulo p or, when p is 0, over Q; and the echelon form it ends with."""
    size = len(generator_columns[0])
    pivots: dict[int, Column] = {}
    history = []
    for columns in generator_columns:
        if len(pivots) < size:
            for row in _rows_minus_identity(columns):
                _insert_row(pivots, row, p)
        history.append(size - len(pivots))
    return history, pivots


def _block_kernel_history(generator_columns: Sequence[Sequence[Column]]) -> tuple[list[int], str]:
    """Joint-kernel dimension of M - 1 after each generator M of one block,
    and the route that certified it ("modp" or "rational")."""
    p = PRIME
    history, pivots = _echelon_history(generator_columns, p)
    # the rank mod p is at most the rank over Q, so history[-1] bounds the
    # rational kernel from above; verified lifts bound it from below
    if history[-1] == 0:
        return history, "modp"
    for vector in _kernel_mod_p(pivots, len(generator_columns[0]), p):
        lifted = _lift(vector, p)
        if lifted is None or not all(_is_fixed(columns, lifted) for columns in generator_columns):
            return _echelon_history(generator_columns, 0)[0], "rational"
    return history, "modp"


class OracleResult(NamedTuple):
    """A certified invariant dimension.

    history[k] is the dimension, summed over allocation blocks, of the joint
    kernel of rho(s) - 1 over the first k + 1 generators s.  A block on route
    "modp" contributes its kernel modulo PRIME, an upper bound on the rational
    one that the certificate makes exact at the last generator; a block on
    route "rational" contributes the kernel over Q.  route is "rational" when
    some block failed the certificate and was eliminated again over Q, else
    "modp".
    """

    dimension: int
    history: tuple[int, ...]
    route: str


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
    size = piece_dimension(copies, degree)
    _check_basis_cap(size)
    _check_exponent_cap(copies, degree)
    generators = group_generators(kind, copies.g)
    history = [0] * len(generators) if size else []
    route = "modp"
    powers: dict[tuple[int, int, bool], list[Column]] = {}
    for alloc in _allocations(copies, degree):
        factors = [(m, d % 2 == 1) for m, d in zip(alloc, copies.copy_degrees) if m]
        generator_columns = []
        for k, a in enumerate(generators):
            for m, exterior in factors:
                if (k, m, exterior) not in powers:
                    powers[k, m, exterior] = _power_columns(a, m, exterior)
            generator_columns.append(
                _kron_columns([powers[k, m, exterior] for m, exterior in factors])
            )
        block_history, block_route = _block_kernel_history(generator_columns)
        history = [h + b for h, b in zip(history, block_history)]
        if block_route == "rational":
            route = "rational"
    return OracleResult(history[-1] if history else 0, tuple(history), route)


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
    every piece meets before any work: first the basis cap, then the
    exponent cap, which is largest in the top degree."""
    if n < 8:
        raise ValueError("the comparison window needs n >= 8")
    if g < 1 or max_degree < 0:
        raise ValueError("need g >= 1 and max_degree >= 0")
    # looked up at call time, at the name bench/layers.py traces
    from .mt import kappa_ll_series

    copies = GradedVCopies(g, tuple(go_shifted_degrees(n, max_degree)))
    if with_oracle:
        # a count up to a lower degree agrees with the whole request's, so
        # a window that doubles meets the first piece above the cap at about
        # the cost of counting up to it
        top = 64
        while True:
            for size in _tail_dimensions(copies, min(top, max_degree))[0]:
                _check_basis_cap(size)
            if top >= max_degree:
                break
            top *= 2
        _check_exponent_cap(copies, max_degree)
    stable = stable_invariant_series(n, max_degree)
    ring = kappa_ll_series(n, max_degree)
    kind = gamma_kind_for_oracle(n)
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
