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

When a lift fails, the block is recounted exactly from the fraction-free
(Bareiss) echelon form of its stacked integer rows, and the answer reports
route "bareiss" instead of "modp".

For the orthogonal kind at g = 1 the generated group is the finite
O_{1,1}(Z) = {+-I, +-swap}, not a Zariski-dense lattice, and its counts
exceed the stable ones: Sym^2 V has the two invariants xy and x^2 + y^2
rather than the form alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graded import HilbertSeries, free_graded_commutative_series
from .groups import GammaType, group_generators
from .linalg import independent_rows
from .mt import pair_degree_counts

# not used by the oracle, which samples nothing; kept importable here because
# bench/layers.py traces calls at these names
from .groups import is_in_group, sample_group_element  # noqa: F401
from .linalg import kernel_basis  # noqa: F401

# the oracle's modulus, 2^31 - 1; rational reconstruction recovers entries
# n/d with |n|, d <= 32767
PRIME = 2_147_483_647


class BasisCapExceeded(ValueError):
    """The requested graded piece is larger than the configured cap."""


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


@dataclass(frozen=True)
class GradedVCopies:
    """2g-dimensional copies of the defining representation, one per listed
    degree; parity of a copy is the parity of its degree."""

    g: int
    copy_degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError("g must be positive")
        if any(d < 1 for d in self.copy_degrees):
            raise ValueError("copy degrees must be positive")


def _allocations(copies: GradedVCopies, degree: int):
    """Exponent tuples m with sum m_i * d_i = degree; exterior copies are
    capped at dimension 2g."""
    dim = 2 * copies.g
    degs = copies.copy_degrees

    def rec(pos: int, remaining: int, prefix: tuple[int, ...]):
        if pos == len(degs):
            if remaining == 0:
                yield prefix
            return
        d = degs[pos]
        cap = remaining // d
        if d % 2 == 1:
            cap = min(cap, dim)
        for m in range(cap + 1):
            yield from rec(pos + 1, remaining - m * d, prefix + (m,))

    yield from rec(0, degree, ())


def piece_dimension(copies: GradedVCopies, degree: int) -> int:
    dim = 2 * copies.g
    total = 0
    for alloc in _allocations(copies, degree):
        block = 1
        for m, d in zip(alloc, copies.copy_degrees):
            block *= math.comb(dim, m) if d % 2 == 1 else math.comb(dim + m - 1, m)
        total += block
    return total


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


def _insert_mod_p(pivots: dict[int, Column], row: Column, p: int) -> None:
    """Reduce a row modulo p against the pivot rows (each monic in its pivot
    column, with no entry to the left of it) and keep it as a new pivot row
    if anything is left.  Entries are reduced mod p only once they lead."""
    row = dict(row)
    while row:
        c = min(row)
        f = row.pop(c) % p
        if not f:
            continue
        pivot_row = pivots.get(c)
        if pivot_row is None:
            inverse = pow(f, -1, p)
            new = {c: 1}
            for k, x in row.items():
                x = x * inverse % p
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


def _block_kernel_history(generator_columns: Sequence[Sequence[Column]]) -> tuple[list[int], str]:
    """Joint-kernel dimension of M - 1 after each generator M of one block,
    and the route that certified it ("modp" or "bareiss")."""
    size = len(generator_columns[0])
    p = PRIME
    pivots: dict[int, Column] = {}
    history = []
    for columns in generator_columns:
        if len(pivots) < size:
            for row in _rows_minus_identity(columns):
                _insert_mod_p(pivots, row, p)
        history.append(size - len(pivots))
    # the rank mod p is at most the rank over Q, so history[-1] bounds the
    # rational kernel from above; verified lifts bound it from below
    if history[-1] == 0:
        return history, "modp"
    for vector in _kernel_mod_p(pivots, size, p):
        lifted = _lift(vector, p)
        if lifted is None or not all(_is_fixed(columns, lifted) for columns in generator_columns):
            return _bareiss_history(generator_columns), "bareiss"
    return history, "modp"


def _bareiss_history(generator_columns: Sequence[Sequence[Column]]) -> list[int]:
    """The same history exactly over Q, from the fraction-free echelon form of
    the stacked integer rows of M - 1, generator by generator."""
    size = len(generator_columns[0])
    stacked: list[list[int]] = []
    owner: list[int] = []
    for k, columns in enumerate(generator_columns):
        for row in _rows_minus_identity(columns):
            stacked.append([row.get(c, 0) for c in range(size)])
            owner.append(k)
    ranks = [0] * len(generator_columns)
    for i in independent_rows(stacked):
        ranks[owner[i]] += 1
    return [size - r for r in itertools.accumulate(ranks)]


@dataclass(frozen=True)
class OracleResult:
    """A certified invariant dimension.

    history[k] is the dimension, summed over allocation blocks, of the joint
    kernel of rho(s) - 1 over the first k + 1 generators s.  A block on route
    "modp" contributes its kernel modulo PRIME, an upper bound on the rational
    one that the certificate makes exact at the last generator; a block on
    route "bareiss" contributes the rational kernel.  route is "bareiss" when
    some block needed the exact echelon, else "modp".
    """

    dimension: int
    history: tuple[int, ...]
    route: str


def brute_force_invariant_dim(
    kind: GammaType,
    copies: GradedVCopies,
    degree: int,
    basis_cap: int = 4096,
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
    if size > basis_cap:
        raise BasisCapExceeded(f"graded piece has dimension {size} > cap {basis_cap}")
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
        if block_route == "bareiss":
            route = "bareiss"
    return OracleResult(history[-1] if history else 0, tuple(history), route)


# ---------------------------------------------------------------------------
# crosscheck report


@dataclass(frozen=True)
class ReportRow:
    degree: int
    stable_count: int
    ring_count: int
    oracle_count: int | None

    @property
    def agree(self) -> bool:
        if self.stable_count != self.ring_count:
            return False
        return self.oracle_count is None or self.oracle_count == self.stable_count


@dataclass(frozen=True)
class InvariantReport:
    n: int
    g: int
    rows: tuple[ReportRow, ...]
    note: str

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)


def invariant_crosscheck(
    n: int,
    g: int,
    max_degree: int,
    with_oracle: bool = False,
    basis_cap: int = 4096,
) -> InvariantReport:
    """Per-degree comparison of the stable invariant count, the pair-class
    ring count, and (optionally) the brute-force oracle on the free model."""
    if n < 8:
        raise ValueError("the comparison window needs n >= 8")
    if g < 1 or max_degree < 0:
        raise ValueError("need g >= 1 and max_degree >= 0")
    # looked up at call time, at the name bench/layers.py traces
    from .mt import kappa_ll_series

    stable = stable_invariant_series(n, max_degree)
    ring = kappa_ll_series(n, max_degree)
    copies = GradedVCopies(g, tuple(go_shifted_degrees(n, max_degree)))
    kind = gamma_kind_for_oracle(n)
    rows = []
    for d in range(max_degree + 1):
        oracle = None
        if with_oracle:
            oracle = brute_force_invariant_dim(
                kind, copies, d, basis_cap=basis_cap
            ).dimension
        rows.append(ReportRow(d, stable[d], ring[d], oracle))
    note = (
        "stable and pair-ring counts agree identically at every truncation; "
        "the oracle bounds the algebraic invariants from above and matches "
        "them once g is large against the weight"
    )
    return InvariantReport(n, g, tuple(rows), note)


def gamma_kind_for_oracle(n: int) -> GammaType:
    """The oracle's group: orthogonal for n even, symplectic for n odd."""
    return GammaType.ORTHOGONAL if n % 2 == 0 else GammaType.SYMPLECTIC
