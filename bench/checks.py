"""Independent checkers for the tables the benchmark's jobs print.

Nothing here imports ``torelli``.  Each checker recomputes what a printed
table must say from the mathematics, by a route of its own, and returns a
list of mismatches ``(where, expected, printed)``; an empty list means the
table is right.

- Invariant counts: the SL_2 weight count at g = 1 (symplectic), the
  character average over the enumerated O_{1,1}(Z) at g = 1 (orthogonal),
  classical first-fundamental-theorem counts at g >= 2, and monomials in the
  pairings omega_{x,y} for the crosscheck.
- L-classes: evaluation at p_j = e_j(u) against prod_k f(t u_k), with f built
  from Bernoulli numbers made here by the Akiyama-Tanigawa algorithm, and the
  signature of CP^{2i}.
- Borel constants: the closed-form bound and an exhaustive scan over the
  distinct sums of q positive roots, in simple-root coordinates solved in
  closed form.
- Series: generator multiplicities counted from the paper's generator
  description, expanded by the Euler transform.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

Mismatch = tuple[str, object, object]


# ---------------------------------------------------------------------------
# graded pieces of copies of V


def allocations(g: int, degrees: tuple[int, ...], deg: int):
    """Exponent tuples m with sum m_i * d_i = deg; an odd copy (exterior
    power) holds at most 2g vectors."""
    out = []
    for ms in itertools.product(
        *[
            range(min(deg // d, 2 * g if d % 2 else deg // d) + 1)
            for d in degrees
        ]
    ):
        if sum(m * d for m, d in zip(ms, degrees)) == deg:
            out.append(ms)
    return out


def piece_dimension(g: int, degrees: tuple[int, ...], deg: int) -> int:
    dim = 2 * g
    total = 0
    for ms in allocations(g, degrees, deg):
        total += math.prod(
            math.comb(dim, m) if d % 2 else math.comb(dim + m - 1, m)
            for m, d in zip(ms, degrees)
        )
    return total


def _laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def sl2_invariant_count(degrees: tuple[int, ...], deg: int) -> int:
    """Invariants of SL_2 (and of the Zariski-dense SL_2(Z)) in the piece:
    [z^0] - [z^2] of its character, V having weights z and 1/z."""
    total: dict[int, int] = {}
    for ms in allocations(1, degrees, deg):
        char = {0: 1}
        for m, d in zip(ms, degrees):
            if d % 2:  # exterior power of a 2-dimensional space
                factor = {0: 1} if m != 1 else {1: 1, -1: 1}
            else:
                factor = {m - 2 * i: 1 for i in range(m + 1)}
            char = _laurent_mul(char, factor)
        for e, c in char.items():
            total[e] = total.get(e, 0) + c
    return total.get(0, 0) - total.get(2, 0)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def orthogonal_group_rank_one() -> list[list[list[int]]]:
    """Every A with A^T J A = J, J = [[0, 1], [1, 0]], by enumeration.

    The entries of such an A lie in {-1, 0, 1}: the columns are isotropic
    and pair to 1, so each column is (a, 0) or (0, a) up to order with a a
    unit.
    """
    j = [[0, 1], [1, 0]]
    found = []
    for entries in itertools.product((-1, 0, 1), repeat=4):
        a = [list(entries[:2]), list(entries[2:])]
        at = [list(col) for col in zip(*a)]
        if _matmul(_matmul(at, j), a) == j:
            found.append(a)
    return found


def _power_sums(a, upto: int) -> list[int]:
    """tr(A^k) for k = 0..upto."""
    n = len(a)
    out = [n]
    p = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(upto):
        p = _matmul(p, a)
        out.append(sum(p[i][i] for i in range(n)))
    return out


def _sym_ext_characters(traces: list[int], upto: int) -> tuple[list[Fraction], list[Fraction]]:
    """Characters of Sym^m and Lambda^m (m <= upto) from tr(A^k), by Newton."""
    h = [Fraction(1)]
    e = [Fraction(1)]
    for m in range(1, upto + 1):
        h.append(sum(traces[k] * h[m - k] for k in range(1, m + 1)) / m)
        e.append(sum((-1) ** (k - 1) * traces[k] * e[m - k] for k in range(1, m + 1)) / m)
    return h, e


def finite_group_invariant_count(group, g: int, degrees: tuple[int, ...], deg: int) -> int:
    """(1/|G|) * sum over G of the piece's character, for a finite group G
    of 2g x 2g matrices."""
    allocs = allocations(g, degrees, deg)
    top = max((max(ms) for ms in allocs if ms), default=0)
    total = Fraction(0)
    for a in group:
        h, e = _sym_ext_characters(_power_sums(a, top), top)
        for ms in allocs:
            total += math.prod(
                (e[m] if d % 2 else h[m]) for m, d in zip(ms, degrees)
            )
    count = total / len(group)
    if count.denominator != 1:
        raise AssertionError("a character average must be an integer")
    return int(count)


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (so (-1)!! = 1)."""
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def classical_invariant_count(kind: str, g: int, degrees: tuple[int, ...], deg: int) -> int | None:
    """The invariant count of a single-allocation piece at g >= 2, when a
    classical closed form applies; None otherwise.

    - Sym^k V: under O_{g,g}(Z), 1 for even k (powers of the form), else 0;
      under Sp_{2g}(Z), 0 for k >= 1 (Sym^k V is irreducible).
    - Lambda^k V: under Sp_{2g}(Z), 1 for even k (powers of the form);
      under O_{g,g}(Z), 0 for 1 <= k <= 2g (Lambda^{2g} V is the
      determinant, and the group contains the swap of determinant -1).
    - V^{(x) 2m} under Sp_{2g}(Z) with g >= m: (2m-1)!! perfect matchings,
      linearly independent there; odd tensor powers have none.
    """
    allocs = allocations(g, degrees, deg)
    if len(allocs) != 1:
        return None
    factors = [(m, d % 2) for m, d in zip(allocs[0], degrees) if m]
    if not factors:
        return 1
    if len(factors) == 1:
        k, odd = factors[0]
        if odd:
            return (1 if k % 2 == 0 else 0) if kind == "sp" else 0
        return (1 if k % 2 == 0 else 0) if kind == "o" else 0
    if kind == "sp" and all(m == 1 for m, _ in factors):
        r = len(factors)
        if r % 2:
            return 0
        if g >= r // 2:
            return double_factorial(r - 1)
    return None


def expected_oracle_count(kind: str, g: int, degrees: tuple[int, ...], deg: int) -> int | None:
    """The independent count for an invariant-oracle piece, or None."""
    if g == 1 and kind == "sp":
        return sl2_invariant_count(degrees, deg)
    if g == 1 and kind == "o":
        return finite_group_invariant_count(orthogonal_group_rank_one(), 1, degrees, deg)
    return classical_invariant_count(kind, g, degrees, deg)


def check_invariant_oracle(params: dict, table: list[dict]) -> list[Mismatch]:
    kind, g, deg = params["type"], params["g"], params["deg"]
    degrees = tuple(int(x) for x in params["degrees"].split(","))
    expected = expected_oracle_count(kind, g, degrees, deg)
    if expected is None:
        raise ValueError(f"no independent count for {kind} g={g} {degrees} deg {deg}")
    if len(table) != 1:
        return [("rows", 1, len(table))]
    row = table[0]
    out: list[Mismatch] = []
    piece = piece_dimension(g, degrees, deg)
    if row["piece"] != piece:
        out.append(("piece", piece, row["piece"]))
    if row["dimension"] != expected:
        out.append(("dimension", expected, row["dimension"]))
    history = [int(x) for x in row["history"].split()] if row["history"] else []
    if piece and (
        not history
        or history[-1] != row["dimension"]
        or any(b > a for a, b in zip([piece] + history, history))
    ):
        out.append(("history", f"nonincreasing from {piece}, ending at the dimension", row["history"]))
    return out


# ---------------------------------------------------------------------------
# series: generator multiplicities and the Euler transform


def euler_transform(multiplicity: dict[int, int], maxdeg: int) -> list[int]:
    """Coefficients of prod_e (1 - t^e)^(-m_e) up to t^maxdeg.

    With b_k = sum_{e | k} e * m_e, the coefficients satisfy
    n c_n = sum_{k=1}^{n} b_k c_{n-k}.  A negative m_e divides by (1 - t^e).
    """
    b = [0] * (maxdeg + 1)
    for e, m in multiplicity.items():
        for k in range(e, maxdeg + 1, e):
            b[k] += e * m
    ks = [k for k in range(1, maxdeg + 1) if b[k]]
    c = [1] + [0] * maxdeg
    for n in range(1, maxdeg + 1):
        acc = 0
        for k in ks:
            if k > n:
                break
            acc += b[k] * c[n - k]
        if acc % n:
            raise AssertionError("Euler transform must stay integral")
        c[n] = acc // n
    return c


def free_series(degrees: dict[int, int], maxdeg: int) -> list[int]:
    """Series of the free graded-commutative algebra with degrees[d]
    generators in degree d: polynomial in even degrees, exterior in odd."""
    mult: dict[int, int] = {}
    for d, m in degrees.items():
        if d > maxdeg or not m:
            continue
        mult[d] = mult.get(d, 0) + m
        if d % 2:  # 1 + t^d = (1 - t^{2d}) / (1 - t^d)
            mult[2 * d] = mult.get(2 * d, 0) - m
    return euler_transform(mult, maxdeg)


def cover_index_start(n: int) -> int:
    """ceil((n + 1) / 4), the least index of the n-connected cover."""
    return (n + 4) // 4


def disputed_degree(n: int) -> int:
    """4(ceil((n+1)/4) + n + 1) - 2n, the least degree of a kappa_{L_a L_b}
    with b > n.  `mt.kappa_ll_pairs` says b lies in the cover index set,
    which ends at n, but its loop never caps b; the two readings agree
    below this degree only."""
    return 4 * (cover_index_start(n) + n + 1) - 2 * n


def pairing_degrees(n: int, maxdeg: int) -> dict[int, int]:
    """Generators omega_{x,y}, x <= y shifted degrees 4m - n > 0, of degree
    x + y; the same as kappa_{L_a L_b} with a <= b, a >= ceil((n+1)/4),
    of degree 4(a + b) - 2n.  Only below `disputed_degree(n)`."""
    if maxdeg >= disputed_degree(n):
        raise ValueError(f"at n = {n} the pairing count is in question from degree {disputed_degree(n)} on")
    shifted = range((-n) % 4 or 4, maxdeg + 1, 4)
    out: dict[int, int] = {}
    for i, x in enumerate(shifted):
        for y in shifted[i:]:
            if x + y > maxdeg:
                break
            out[x + y] = out.get(x + y, 0) + 1
    return out


def pairing_series(n: int, maxdeg: int) -> list[int]:
    return free_series(pairing_degrees(n, maxdeg), maxdeg)


def _restricted_partitions(lo: int, hi: int, top: int) -> list[int]:
    """P[s]: multisets of parts from lo..hi summing to s, s <= top."""
    p = [1] + [0] * top
    for part in range(lo, hi + 1):
        for s in range(part, top + 1):
            p[s] += p[s - part]
    return p


def kappa_ring_degrees(n: int, maxdeg: int, torelli: bool) -> dict[int, int]:
    """Generators of the stable block-diffeomorphism ring: one lambda of
    degree w - 2n (w > 2n) and one mu of degree w (w > 0) per multi-index
    over lo..n of weight w = 4 * (sum of its parts).  The Torelli quotient
    drops the lambdas of single-part multi-indices."""
    lo = cover_index_start(n)
    top = (maxdeg + 2 * n) // 4
    parts = _restricted_partitions(lo, n, top)
    out: dict[int, int] = {}
    for s in range(1, top + 1):
        w = 4 * s
        count = parts[s]
        if w > 2 * n and w - 2 * n <= maxdeg:
            lam = count - (1 if torelli and lo <= s <= n else 0)
            out[w - 2 * n] = out.get(w - 2 * n, 0) + lam
        if w <= maxdeg:
            out[w] = out.get(w, 0) + count
    return out


def _compare_series(label: str, expected: list[int], printed: list[int]) -> list[Mismatch]:
    if len(expected) != len(printed):
        return [(f"{label} length", len(expected), len(printed))]
    for d, (a, b) in enumerate(zip(expected, printed)):
        if a != b:
            return [(f"{label}[{d}]", a, b)]
    return []


def _series_column(table: list[dict], column: str = "coefficient") -> list[int]:
    if [row["degree"] for row in table] != list(range(len(table))):
        raise ValueError("series rows must run over degrees 0, 1, 2, ...")
    return [row[column] for row in table]


def check_theorem_b_series(params: dict, table: list[dict]) -> list[Mismatch]:
    expected = pairing_series(params["n"], params["maxdeg"])
    return _compare_series("coefficient", expected, _series_column(table))


def check_kappa_ring_series(params: dict, table: list[dict], torelli: bool) -> list[Mismatch]:
    n, maxdeg = params["n"], params["maxdeg"]
    printed = _series_column(table)
    out = _compare_series(
        "coefficient", free_series(kappa_ring_degrees(n, maxdeg, torelli), maxdeg), printed
    )
    if torelli:
        # below degree n + 1 every generator is a kappa_{L_a L_b}: the
        # lambdas of three or more parts and all mus start above n
        window = min(n, maxdeg)
        out += _compare_series(
            "window vs theoremB", pairing_series(n, window), printed[: window + 1]
        )
    return out


def check_crosscheck(params: dict, table: list[dict]) -> list[Mismatch]:
    n, g, maxdeg = params["n"], params["g"], params["maxdeg"]
    counts = pairing_series(n, maxdeg)
    out = _compare_series("stable", counts, _series_column(table, "stable"))
    out += _compare_series("ring", counts, _series_column(table, "ring"))
    if params["oracle"]:
        copies = sum(1 for x in range(1, maxdeg + 1) if (x + n) % 4 == 0)
        if copies > 2 * g:
            raise ValueError("the pairing count is the oracle's count only with at most 2g copies")
        out += _compare_series("oracle", counts, _series_column(table, "oracle"))
    elif any(row["oracle"] is not None for row in table):
        out.append(("oracle", None, "values"))
    for row in table:
        agree = row["stable"] == row["ring"] and row["oracle"] in (None, row["stable"])
        if row["agree"] is not agree:
            out.append((f"agree[{row['degree']}]", agree, row["agree"]))
    return out


# ---------------------------------------------------------------------------
# L-classes


def bernoulli(count: int) -> list[Fraction]:
    """B_0..B_count by the Akiyama-Tanigawa algorithm (B_1 = +1/2; only the
    even-index values are used)."""
    out = []
    row: list[Fraction] = []
    for m in range(count + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def x_over_tanh(order: int, hat: bool) -> list[Fraction]:
    """u^j coefficients (u = x^2) of x/tanh(x), or of (x/2)/tanh(x/2)."""
    b = bernoulli(2 * order)
    coeffs = [b[2 * j] * 4**j / math.factorial(2 * j) for j in range(order + 1)]
    return [c / 4**j for j, c in enumerate(coeffs)] if hat else coeffs


def parse_polynomial(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """'7/45*p_2 + -1/45*p_1^2' -> {(('p_2', 1),): 7/45, (('p_1', 2),): -1/45}."""
    if text == "0/1":
        return {}
    out: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for piece in text.split(" + "):
        coeff, *factors = piece.split("*")
        mono = []
        for f in factors:
            name, _, exp = f.partition("^")
            mono.append((name, int(exp) if exp else 1))
        out[tuple(sorted(mono))] = Fraction(coeff)
    return out


def evaluate(poly: dict, values: dict[str, Fraction]) -> Fraction:
    return sum(
        (c * math.prod(values[name] ** e for name, e in mono) for mono, c in poly.items()),
        Fraction(0),
    )


def _index(name: str, prefix: str) -> int:
    if not name.startswith(prefix):
        raise ValueError(f"unexpected variable {name!r}")
    return int(name[len(prefix):])


def elementary(u: list[Fraction]) -> list[Fraction]:
    """e_0..e_len(u) of u."""
    e = [Fraction(1)] + [Fraction(0)] * len(u)
    for x in u:
        for j in range(len(u), 0, -1):
            e[j] += e[j - 1] * x
    return e


def genus_values(f: list[Fraction], u: list[Fraction]) -> list[Fraction]:
    """t^i coefficients of prod_k f(t u_k), i = 0..len(f)-1."""
    top = len(f) - 1
    prod = [Fraction(1)] + [Fraction(0)] * top
    for x in u:
        factor = [c * x**j for j, c in enumerate(f)]
        prod = [sum(prod[i] * factor[n - i] for i in range(n + 1)) for n in range(top + 1)]
    return prod


def sample_roots(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for _ in range(count)]


def _homogeneity(poly: dict, prefix: str, i: int) -> list[Mismatch]:
    for mono in poly:
        if sum(_index(name, prefix) * e for name, e in mono) != i:
            return [(f"weight of a monomial of row {i}", 4 * i, mono)]
    return []


def check_l_class(params: dict, table: list[dict], rng: random.Random) -> list[Mismatch]:
    upto, hat = params["upto"], params["hat"]
    if [row["i"] for row in table] != list(range(upto + 1)):
        return [("rows", list(range(upto + 1)), [row["i"] for row in table])]
    f = x_over_tanh(upto, hat)
    points = [sample_roots(rng, upto) for _ in range(2)]
    out: list[Mismatch] = []
    for row in table:
        i = row["i"]
        poly = parse_polynomial(row["class"])
        out += _homogeneity(poly, "p_", i)
        for u in points:
            e = elementary(u)
            got = evaluate(poly, {f"p_{j}": e[j] for j in range(1, upto + 1)})
            want = genus_values(f, u)[i]
            if got != want:
                out.append((f"L_{i} at p = e(u)", want, got))
        # total Pontryagin class of CP^{2i} is (1 + x^2)^{2i+1}
        cp = evaluate(poly, {f"p_{j}": Fraction(math.comb(2 * i + 1, j)) for j in range(1, upto + 1)})
        signature = Fraction(1, 4**i) if hat else Fraction(1)
        if cp != signature:
            out.append((f"L_{i}(CP^{2 * i})", signature, cp))
    return out


def check_p_from_l(params: dict, table: list[dict], rng: random.Random) -> list[Mismatch]:
    upto = params["upto"]
    if [row["i"] for row in table] != list(range(1, upto + 1)):
        return [("rows", list(range(1, upto + 1)), [row["i"] for row in table])]
    f = x_over_tanh(upto, False)
    out: list[Mismatch] = []
    for _ in range(2):
        u = sample_roots(rng, upto)
        l_values = genus_values(f, u)
        e = elementary(u)
        for row in table:
            i = row["i"]
            poly = parse_polynomial(row["polynomial"])
            out += _homogeneity(poly, "L_", i)
            got = evaluate(poly, {f"L_{j}": l_values[j] for j in range(1, upto + 1)})
            if got != e[i]:
                out.append((f"p_{i} at L = L(e(u))", e[i], got))
    return out


# ---------------------------------------------------------------------------
# Borel stability constants


def positive_roots(family: str, g: int) -> list[tuple[int, ...]]:
    def vec(pairs):
        v = [0] * g
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    roots = [vec([(i, 1), (j, s)]) for i in range(g) for j in range(i + 1, g) for s in (1, -1)]
    if family == "C":
        roots += [vec([(i, 2)]) for i in range(g)]
    return roots


def simple_coordinates(family: str, v: tuple[int, ...]) -> list[Fraction]:
    """Coefficients of v on the simple roots a_i - a_{i+1} and 2a_g (C) or
    a_{g-1} + a_g (D), solved in closed form from the partial sums."""
    g = len(v)
    partial = list(itertools.accumulate(v))
    if family == "C":
        return [Fraction(s) for s in partial[: g - 1]] + [Fraction(partial[-1], 2)]
    head = [Fraction(s) for s in partial[: g - 2]]
    s = partial[g - 2]
    return head + [Fraction(s - v[-1], 2), Fraction(s + v[-1], 2)]


def in_open_cone(family: str, v: tuple[int, ...]) -> bool:
    """Nonzero and a nonnegative combination of the simple roots."""
    return any(v) and all(c >= 0 for c in simple_coordinates(family, v))


def borel_scan(family: str, g: int, k: int, qmax: int) -> tuple[int | None, bool]:
    """(constant, capped) by exhaustive scan: for every weight mu of V^{(x)k}
    the largest q <= qmax such that rho - mu - eta lies in the cone for all
    sums eta of q' <= q distinct positive roots; the minimum over mu."""
    roots = positive_roots(family, g)
    rho2 = [sum(col) for col in zip(*roots)]
    if any(x % 2 for x in rho2):
        raise AssertionError("twice rho has even entries in types C and D")
    rho = tuple(x // 2 for x in rho2)
    sums: list[set[tuple[int, ...]]] = [{(0,) * g}] + [set() for _ in range(qmax)]
    for r in roots:
        for q in range(qmax, 0, -1):
            sums[q] |= {tuple(a + b for a, b in zip(s, r)) for s in sums[q - 1]}
    steps = [tuple(s * int(i == j) for j in range(g)) for i in range(g) for s in (1, -1)]
    weights = {(0,) * g}
    for _ in range(k):
        weights = {tuple(a + b for a, b in zip(w, s)) for w in weights for s in steps}
    best: int | None = None
    for mu in weights:
        base = tuple(r - m for r, m in zip(rho, mu))
        reached = None
        for q in range(qmax + 1):
            if not all(in_open_cone(family, tuple(b - e for b, e in zip(base, eta))) for eta in sums[q]):
                break
            reached = q
        if reached is None:
            return None, False
        best = reached if best is None else min(best, reached)
    return best, best == qmax


def check_borel_constant(params: dict, table: list[dict]) -> list[Mismatch]:
    family, g, k, qmax = params["family"], params["g"], params["k"], params["qmax"]
    if len(table) != 1:
        return [("rows", 1, len(table))]
    row = table[0]
    bound = g - 1 - k if family == "C" else g - 2 - k
    c, capped = borel_scan(family, g, k, qmax)
    want = {"bound": bound, "c": c, "capped": capped, "bound_met": c is not None and c >= bound}
    out = [(key, want[key], row[key]) for key in sorted(want) if row[key] != want[key]]
    if not want["bound_met"]:
        out.append(("c meets the bound", bound, c))
    return out
