"""Closed-form counts and exact truncated exponential generating series.

Covers: factorization counts in cyclic groups, the refined comparison
formula that reduces connected counts in G(r,s,n) to connected counts
in S_n, and the series identities that package the same reduction as a
product of exponential generating functions (including the classical
long-cycle formulas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import Options, DEFAULT_OPTIONS, connected_from_all, count_connected_enum
from .errors import ConsistencyError, ValidationError
from .groups import (
    GroupElement,
    GroupParams,
    entry_product,
    permutation_part,
)
from .indexing import GroupIndexer


def cyclic_count(q: int, t: int, m: int) -> int:
    """Number of ways to write the t-th power of a fixed generator of a
    cyclic group of order q as an ordered product of m nontrivial elements."""
    if q < 1:
        raise ValidationError("cyclic group order must be positive")
    if not 0 <= t < q:
        raise ValidationError(f"target exponent {t} out of range [0,{q})")
    if m < 0:
        raise ValidationError("m must be nonnegative")
    if q == 1:
        return 1 if m == 0 else 0
    base, rem = divmod((q - 1) ** m - (-1) ** m, q)
    if rem:
        raise ConsistencyError(f"(q-1)^m - (-1)^m not divisible by q={q} at m={m}")
    if t == 0:
        base += (-1) ** m
    return base


@dataclass(frozen=True)
class EgfSeries:
    """Truncated exponential generating series with exact rational
    coefficients: sum of coeffs[m] * x^m for m <= order, where
    coeffs[m] = (count at m) / m!."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValidationError(f"series order must be nonnegative, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValidationError("coefficient array must have length order+1")

    @classmethod
    def from_coeffs(cls, coeffs, order: int) -> "EgfSeries":
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def constant(cls, value, order: int) -> "EgfSeries":
        return cls.from_coeffs([Fraction(value)], order)

    def coefficient(self, m: int) -> Fraction:
        if not 0 <= m <= self.order:
            raise ValidationError(f"coefficient index {m} beyond order {self.order}")
        return self.coeffs[m]

    def count(self, m: int) -> int:
        """m! times the m-th coefficient; must be an integer."""
        value = self.coefficient(m) * math.factorial(m)
        if value.denominator != 1:
            raise ConsistencyError(f"count at m={m} is not integral: {value}")
        return value.numerator

    def counts(self) -> list[int]:
        return [self.count(m) for m in range(self.order + 1)]

    def _binop(self, other, op):
        if self.order != other.order:
            raise ValidationError("series orders differ")
        return EgfSeries(
            self.order, tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other) -> "EgfSeries":
        if isinstance(other, EgfSeries):
            if self.order != other.order:
                raise ValidationError("series orders differ")
            out = [Fraction(0)] * (self.order + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return EgfSeries(self.order, tuple(out))
        scalar = Fraction(other)
        return EgfSeries(self.order, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "EgfSeries":
        if k < 0:
            raise ValidationError("negative series powers unsupported")
        result = EgfSeries.constant(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale_argument(self, a) -> "EgfSeries":
        """Substitute x -> a*x."""
        a = Fraction(a)
        return EgfSeries(
            self.order, tuple(c * a**m for m, c in enumerate(self.coeffs))
        )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "egf": [str(c) for c in self.coeffs],
            "counts": [str(v) for v in self.counts()],
        }


def exp_series(a, order: int) -> EgfSeries:
    """Truncation of exp(a*x)."""
    a = Fraction(a)
    coeffs = []
    power = Fraction(1)
    for m in range(order + 1):
        coeffs.append(power / math.factorial(m))
        power *= a
    return EgfSeries(order, tuple(coeffs))


def cyclic_series(q: int, t: int, order: int) -> EgfSeries:
    """EGF of cyclic-group factorization counts for the t-th target:
    ((exp((q-1)x) - exp(-x)) / q, plus exp(-x) when the target is trivial."""
    if q < 1 or not 0 <= t < q:
        raise ValidationError(f"bad cyclic series arguments q={q}, t={t}")
    series = (exp_series(q - 1, order) - exp_series(-1, order)) * Fraction(1, q)
    if t == 0:
        series = series + exp_series(-1, order)
    return series


def sn_connected_series(
    w: GroupElement, order: int, opts: Options = DEFAULT_OPTIONS
) -> EgfSeries:
    """EGF of connected counts of the permutation part, in S_n."""
    base = permutation_part(w)
    coeffs = [
        Fraction(connected_from_all(base, m, opts), math.factorial(m))
        for m in range(order + 1)
    ]
    return EgfSeries(order, tuple(coeffs))


def comparison_refined(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected refined count computed from the S_n connected count:
    r^(m1-n+1) * n^m2 * C(m1+m2, m1) * (cyclic count at m2) * (S_n count at m1).

    Evaluated in exact integers; when m1 < n-1 the division by r^(n-1-m1)
    must be exact, and a remainder would indicate a bug and raises."""
    if m1 < 0 or m2 < 0:
        raise ValidationError("m1 and m2 must be nonnegative")
    p = w.params
    sn_count = connected_from_all(permutation_part(w), m1, opts)
    if sn_count == 0:
        return 0
    value = (
        p.n**m2
        * math.comb(m1 + m2, m1)
        * cyclic_count(p.q, entry_product(w), m2)
        * sn_count
    )
    shift = m1 - p.n + 1
    if shift >= 0:
        return value * p.r**shift
    quotient, remainder = divmod(value, p.r**-shift)
    if remainder:
        raise ConsistencyError(
            f"comparison value for m1={m1}, m2={m2} is not integral: "
            f"{Fraction(value, p.r**-shift)}"
        )
    return quotient


def comparison_total(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """Connected count at m as the sum of refined comparisons over splits."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    return sum(comparison_refined(w, m1, m - m1, opts) for m1 in range(m + 1))


def connected_series(
    w: GroupElement, order: int, opts: Options = DEFAULT_OPTIONS
) -> EgfSeries:
    """EGF of connected counts of w, as the rescaled product of the cyclic
    series and the S_n connected series."""
    p = w.params
    cyc = cyclic_series(p.q, entry_product(w), order).scale_argument(p.n)
    sn = sn_connected_series(w, order, opts).scale_argument(p.r)
    return cyc * sn * Fraction(1, p.r ** (p.n - 1))


def sn_long_cycle_series(n: int, order: int) -> EgfSeries:
    """Classical EGF for factoring a long cycle of S_n into transpositions:
    (exp(nx/2) - exp(-nx/2))^(n-1) / n!."""
    if n < 1:
        raise ValidationError("n must be positive")
    half = Fraction(n, 2)
    core = exp_series(half, order) - exp_series(-half, order)
    return core ** (n - 1) * Fraction(1, math.factorial(n))


def long_cycle_series(params: GroupParams, t: int, order: int) -> EgfSeries:
    """EGF for factoring an element over a long cycle in G(r,s,n), with entry
    product given by exponent t; all such factorizations are connected."""
    cyc = cyclic_series(params.q, t, order).scale_argument(params.n)
    half = Fraction(params.r * params.n, 2)
    core = exp_series(half, order) - exp_series(-half, order)
    scale = Fraction(1, math.factorial(params.n) * params.r ** (params.n - 1))
    return cyc * core ** (params.n - 1) * scale


@dataclass(frozen=True)
class ComparisonMismatch:
    element: GroupElement
    m1: int
    m2: int
    formula: int
    enumeration: int


def comparison_mismatches(
    params: GroupParams, max_m: int, opts: Options = DEFAULT_OPTIONS
) -> tuple[int, list[ComparisonMismatch]]:
    """Exhaustively compare the refined comparison formula against the
    connected oracle (the component-partition DP behind
    `count_connected_enum`) for every element of the group and every split
    with m1+m2 <= max_m.  Returns (number of checks, mismatches)."""
    if max_m < 0:
        raise ValidationError("max_m must be nonnegative")
    indexer = GroupIndexer(params)
    checks = 0
    bad: list[ComparisonMismatch] = []
    for w in indexer:
        for m in range(max_m + 1):
            for m1 in range(m + 1):
                m2 = m - m1
                formula = comparison_refined(w, m1, m2, opts)
                enum = count_connected_enum(w, m1, m2, opts)
                checks += 1
                if formula != enum:
                    bad.append(ComparisonMismatch(w, m1, m2, formula, enum))
    return checks, bad
