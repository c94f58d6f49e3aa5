"""Truncated Hilbert series and exact weighted polynomial arithmetic.

Everything here is exact: series coefficients are Python integers and
polynomial coefficients are ``fractions.Fraction``.  A free graded-commutative
algebra contributes a factor 1/(1 - q^d) per even generator of degree d and
(1 + q^d) per odd generator, so its series depends only on how many
generators sit in each degree: callers pass those counts as (degree, count)
pairs, never the generators themselves.  Series are always truncated at an
explicit maximal degree.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

# the longest run of the Euler transform solved term by term
_RUN = 96


class HilbertSeries:
    """Coefficients of a truncated Hilbert series, indices 0..max_degree.

    An immutable value: equal coefficients compare and hash equal.  Not a
    tuple, because indexing means degree lookup here and a series must
    start with 1."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        if not coefficients:
            raise ValueError("series needs at least the degree-0 coefficient")
        if min(coefficients) < 0:
            raise ValueError("series coefficients must be nonnegative")
        if coefficients[0] != 1:
            raise ValueError("an algebra series starts with coefficient 1")
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.coefficients,))

    def __repr__(self) -> str:
        return f"HilbertSeries(coefficients={self.coefficients!r})"

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, degree: int) -> int:
        return self.coefficients[degree]


def free_graded_commutative_series(
    multiplicities: Iterable[tuple[int, int]], max_degree: int
) -> HilbertSeries:
    """Hilbert series of the free graded-commutative algebra with ``count``
    generators of degree ``degree`` for each ``(degree, count)`` pair.

    The series is prod_d (1 - q^d)^(-m_d).  An odd degree d with count m adds
    m to m_d and -m to m_{2d}, because 1 + q^d = (1 - q^{2d}) / (1 - q^d).
    With s the gcd of the degrees whose m_d is nonzero, the product is a
    series in t = q^s, expanded by the Euler transform n a_n = sum_{k <= n}
    b_k a_{n-k} with b_k = sum_{e | k} e m_{es}, for truncation D up to
    N = D/s.  The sums are solved online by halves: a run of at most
    ``_RUN`` a's is solved term by term; a longer run solves its left half,
    adds all the left terms to the sums of its right half at once, then
    solves the right half.  The a's are nonnegative, so each of the two
    products, by the positive and by the negative parts of b, has digits of
    at most (sum of the left a's) * max|b|, and is exact as one integer
    product on those digits packed at a width that holds that bound:
    O(M(N) log N) steps for M(N) the cost of such a product.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    m = [0] * (max_degree + 1)
    for degree, count in multiplicities:
        if degree < 1 or count < 0:
            raise ValueError(
                f"need degree >= 1 and count >= 0, got degree {degree} and count {count}"
            )
        if degree <= max_degree:
            m[degree] += count
            if degree % 2 and 2 * degree <= max_degree:
                m[2 * degree] -= count
    # with no generator below the truncation, a step past it leaves only a_0
    step = gcd(*(d for d, c in enumerate(m) if c)) or max_degree + 1
    top = max_degree // step
    b = [0] * (top + 1)
    for e in range(1, top + 1):
        if m[e * step]:
            for k in range(e, top + 1, e):
                b[k] += e * m[e * step]
    a = [1]
    # sums[n] holds b_n a_0 and the terms of every a solved in an earlier run
    sums, tail = b.copy(), b[1:]
    # the positive and the negative part of b, if a run splits
    parts = [[max(sign * x, 0) for x in b] for sign in (1, -1)] if top > _RUN else []

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _RUN:
            for n in range(lo, hi):
                a.append((sums[n] + sum(map(operator.mul, tail, a[: lo - 1 : -1]))) // n)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        left = a[lo:mid]
        # a digit is at most sum(left) * max|b|, and no packed a or b is more
        width = (max(1, sum(left)) * max(1, *map(abs, b[: hi - lo]))).bit_length() // 8 + 1
        packed = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in left), "little")
        for sign, part in zip((1, -1), parts):
            window = part[: hi - lo]
            if not any(window):
                continue
            product = packed * int.from_bytes(b"".join(x.to_bytes(width, "little") for x in window), "little")
            digits = product.to_bytes(width * (mid - lo + hi - lo), "little")
            for n in range(mid, hi):
                t = width * (n - lo)
                sums[n] += sign * int.from_bytes(digits[t : t + width], "little")
        solve(mid, hi)

    solve(1, top + 1)
    s = [0] * (max_degree + 1)
    s[::step] = a
    return HilbertSeries(tuple(s))


def series_pointwise_equal(a: HilbertSeries, b: HilbertSeries, up_to: int) -> bool:
    if up_to < 0:
        raise ValueError("comparison range must be nonnegative")
    if up_to > a.max_degree or up_to > b.max_degree:
        raise ValueError("comparison range exceeds a series truncation")
    return a.coefficients[: up_to + 1] == b.coefficients[: up_to + 1]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


class WeightedPolynomial:
    """Sparse polynomial over Q in named variables carrying positive weights.

    Terms map exponent vectors (aligned with the sorted variable tuple) to
    nonzero Fractions.  Variable order is lexicographic on the symbol; that
    ordering is canonicalization only and carries no semantic weight.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[tuple[str, int]],
        terms: Mapping[tuple[int, ...], Scalar],
    ) -> None:
        vs = tuple(sorted(variables))
        names = [v[0] for v in vs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable symbol")
        if any(w < 1 for _, w in vs):
            raise ValueError("variable weights must be positive")
        order = {name: i for i, (name, _) in enumerate(vs)}
        src_order = [order[name] for name, _ in variables]
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(vs):
                raise ValueError("exponent vector length mismatch")
            c = _as_fraction(coeff)
            if c == 0:
                continue
            aligned = [0] * len(vs)
            for pos, e in enumerate(exps):
                if e < 0:
                    raise ValueError("negative exponent")
                aligned[src_order[pos]] = e
            key = tuple(aligned)
            got = clean.get(key, Fraction(0)) + c
            if got:
                clean[key] = got
            else:
                clean.pop(key, None)
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _aligned(
        cls, variables: tuple[tuple[str, int], ...], terms: dict[tuple[int, ...], Fraction]
    ) -> "WeightedPolynomial":
        """Wrap terms already keyed on the sorted ``variables``, with nonzero
        Fraction coefficients, without checking or realigning them."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "WeightedPolynomial":
        v = _as_fraction(value)
        return cls((), {(): v} if v else {})

    @classmethod
    def zero(cls) -> "WeightedPolynomial":
        return cls((), {})

    @classmethod
    def variable(cls, name: str, weight: int) -> "WeightedPolynomial":
        return cls(((name, weight),), {(1,): Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degrees(self) -> set[int]:
        weights = [w for _, w in self.variables]
        return {
            sum(e * w for e, w in zip(exps, weights)) for exps in self.terms
        }

    def is_homogeneous(self) -> bool:
        return len(self.weighted_degrees()) <= 1

    def weighted_degree(self) -> int:
        degs = self.weighted_degrees()
        if len(degs) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degs.pop()

    def homogeneous_part(self, weight: int) -> "WeightedPolynomial":
        weights = [w for _, w in self.variables]
        kept = {
            exps: c
            for exps, c in self.terms.items()
            if sum(e * w for e, w in zip(exps, weights)) == weight
        }
        return WeightedPolynomial(self.variables, kept)

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        exps = [0] * len(self.variables)
        names = {name: i for i, (name, _) in enumerate(self.variables)}
        for name, e in monomial.items():
            if name not in names:
                return Fraction(0)
            exps[names[name]] = e
        return self.terms.get(tuple(exps), Fraction(0))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _merge_variables(
        a: "WeightedPolynomial", b: "WeightedPolynomial"
    ) -> tuple[tuple[tuple[str, int], ...], list[int], list[int]]:
        table: dict[str, int] = {}
        for name, w in a.variables:
            table[name] = w
        for name, w in b.variables:
            if table.get(name, w) != w:
                raise ValueError(f"variable {name!r} carries conflicting weights")
            table[name] = w
        merged = tuple(sorted(table.items()))
        pos = {name: i for i, (name, _) in enumerate(merged)}
        amap = [pos[name] for name, _ in a.variables]
        bmap = [pos[name] for name, _ in b.variables]
        return merged, amap, bmap

    def _lift(self, merged, mapping) -> dict[tuple[int, ...], Fraction]:
        width = len(merged)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            key = [0] * width
            for pos, e in enumerate(exps):
                key[mapping[pos]] = e
            out[tuple(key)] = c
        return out

    def __add__(self, other) -> "WeightedPolynomial":
        if isinstance(other, (int, Fraction)):
            other = WeightedPolynomial.constant(other)
        if self.variables == other.variables:
            merged, terms, bterms = self.variables, dict(self.terms), other.terms
        else:
            merged, amap, bmap = self._merge_variables(self, other)
            terms, bterms = self._lift(merged, amap), other._lift(merged, bmap)
        for key, c in bterms.items():
            got = terms.get(key)
            got = c if got is None else got + c
            if got:
                terms[key] = got
            else:
                del terms[key]
        return WeightedPolynomial._aligned(merged, terms)

    __radd__ = __add__

    def __neg__(self) -> "WeightedPolynomial":
        return WeightedPolynomial._aligned(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other) -> "WeightedPolynomial":
        if isinstance(other, (int, Fraction)):
            other = WeightedPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "WeightedPolynomial":
        return (-self) + other

    def mul(self, other) -> "WeightedPolynomial":
        """Product."""
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            terms = {e: c * v for e, v in self.terms.items()} if c else {}
            return WeightedPolynomial._aligned(self.variables, terms)
        if self.variables == other.variables:
            merged, aterms, bterms = self.variables, self.terms, other.terms
        else:
            merged, amap, bmap = self._merge_variables(self, other)
            aterms, bterms = self._lift(merged, amap), other._lift(merged, bmap)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in aterms.items():
            for eb, cb in bterms.items():
                key = tuple(map(operator.add, ea, eb))
                got = out.get(key)
                out[key] = ca * cb if got is None else got + ca * cb
        return WeightedPolynomial._aligned(
            merged, {e: c for e, c in out.items() if c}
        )

    def __mul__(self, other) -> "WeightedPolynomial":
        return self.mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WeightedPolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = WeightedPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WeightedPolynomial.constant(other)
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        merged, amap, bmap = self._merge_variables(self, other)
        return self._lift(merged, amap) == other._lift(merged, bmap)

    def __hash__(self):
        raise TypeError("WeightedPolynomial is not hashable")

    # -- substitution ---------------------------------------------------

    def substitute(
        self, images: Mapping[str, Union["WeightedPolynomial", Scalar]]
    ) -> "WeightedPolynomial":
        """Replace every variable by its image.

        Each variable must be mapped, and each nonzero image must be
        homogeneous of exactly the variable's weight.
        """
        prepared: dict[str, WeightedPolynomial] = {}
        for name, weight in self.variables:
            if name not in images:
                raise ValueError(f"no image given for variable {name!r}")
            img = images[name]
            if isinstance(img, (int, Fraction)):
                img = WeightedPolynomial.constant(img)
            if not img.is_zero() and img.weighted_degrees() != {weight}:
                raise ValueError(
                    f"image of {name!r} is not homogeneous of weight {weight}"
                )
            prepared[name] = img
        out = WeightedPolynomial.zero()
        for exps, c in self.terms.items():
            term = WeightedPolynomial.constant(c)
            for (name, _), e in zip(self.variables, exps):
                if e:
                    term = term * (prepared[name] ** e)
            out = out + term
        return out

    # -- rendering ------------------------------------------------------

    def __repr__(self) -> str:
        return f"WeightedPolynomial({format_polynomial(self)!r})"


def format_polynomial(poly: WeightedPolynomial) -> str:
    """Deterministic rendering, each coefficient as "num/den"; monomials
    sorted lexicographically."""
    if poly.is_zero():
        return "0/1"
    names = [name for name, _ in poly.variables]
    pieces = []
    for exps, c in sorted(poly.terms.items()):
        factors = [f"{c.numerator}/{c.denominator}"]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)
