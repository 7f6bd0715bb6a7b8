"""Closed-form counts and exact truncated exponential generating series.

Covers: factorization counts in cyclic groups, the refined comparison
formula that reduces connected counts in G(r,s,n) to connected counts
in S_n, and the series identities that package the same reduction as a
product of exponential generating functions (including the classical
long-cycle formulas).

The S_n connected counts come from `counting.connected_totals` as one
row for every m up to the order or m asked, so no function here loops
over m asking for one count at a time.  `reflfact.counting` is loaded
only by the functions that count, which read its public names on it
at call time, so the closed forms and the long-cycle series load no
counting code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .groups import (
    GroupElement,
    GroupParams,
    _Frozen,
    _set,
    entry_product,
    json_count,
    json_int,
    permutation_part,
)


def _cyclic_target(q: int, t: int) -> tuple[int, int]:
    """(q, t), each read by `json_int`, if q >= 1 is a cyclic group's
    order and 0 <= t < q the exponent of its target."""
    q, t = json_int(q), json_int(t)
    if q < 1:
        raise ValidationError("cyclic group order must be positive")
    if not 0 <= t < q:
        raise ValidationError(f"target exponent {t} out of range [0,{q})")
    return q, t


def cyclic_count(q: int, t: int, m: int) -> int:
    """Number of ways to write the t-th power of a fixed generator of a
    cyclic group of order q as an ordered product of m nontrivial elements."""
    q, t = _cyclic_target(q, t)
    json_count(m, "m")
    if q == 1:
        return 1 if m == 0 else 0
    base, rem = divmod((q - 1) ** m - (-1) ** m, q)
    if rem:
        raise ConsistencyError(f"(q-1)^m - (-1)^m not divisible by q={q} at m={m}")
    if t == 0:
        base += (-1) ** m
    return base


def _rational(value, name: str) -> Fraction:
    """`value` as a Fraction, if it is an int or a Fraction: a bool, float
    or str is not read as the number it equals.  The one rule for a
    series scalar and a polynomial coefficient; `name` names the value in
    the refusal."""
    if value.__class__ not in (int, Fraction):
        raise ValidationError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


class EgfSeries(_Frozen):
    """Truncated exponential generating series with exact rational
    coefficients: sum of coeffs[m] * x^m for m <= order, where
    coeffs[m] = (count at m) / m!, each an int or a Fraction, kept as a
    tuple."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        json_count(order, "series order")
        try:
            coeffs = tuple(coeffs)
        except TypeError as exc:
            raise ValidationError(f"coefficients must be a sequence, got {coeffs!r}") from exc
        if len(coeffs) != order + 1:
            raise ValidationError("coefficient array must have length order+1")
        if not {int, Fraction}.issuperset(map(type, coeffs)):
            raise ValidationError(f"series coefficients must be ints or Fractions: {coeffs}")
        _set(self, "order", order)
        _set(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value, order: int) -> "EgfSeries":
        value, order = _rational(value, "series scalar"), json_count(order, "series order")
        return cls(order, [value] + [Fraction(0)] * order)

    def coefficient(self, m: int) -> Fraction:
        if not 0 <= json_int(m) <= self.order:
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
        if not isinstance(other, EgfSeries):
            raise ValidationError(f"a series adds and subtracts series only, got {other!r}")
        if self.order != other.order:
            raise ValidationError("series orders differ")
        return EgfSeries(self.order, [op(a, b) for a, b in zip(self.coeffs, other.coeffs)])

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
            return EgfSeries(self.order, out)
        scalar = _rational(other, "series scalar")
        return EgfSeries(self.order, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "EgfSeries":
        if json_int(k) < 0:
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
        a = _rational(a, "series scalar")
        return EgfSeries(self.order, [c * a**m for m, c in enumerate(self.coeffs)])

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "egf": [str(c) for c in self.coeffs],
            "counts": [str(v) for v in self.counts()],
        }


def exp_series(a, order: int) -> EgfSeries:
    """Truncation of exp(a*x)."""
    a, order = _rational(a, "series scalar"), json_count(order, "series order")
    coeffs = []
    power = Fraction(1)
    for m in range(order + 1):
        coeffs.append(power / math.factorial(m))
        power *= a
    return EgfSeries(order, coeffs)


def cyclic_series(q: int, t: int, order: int) -> EgfSeries:
    """EGF of cyclic-group factorization counts for the t-th target:
    ((exp((q-1)x) - exp(-x)) / q, plus exp(-x) when the target is trivial."""
    q, t = _cyclic_target(q, t)
    series = (exp_series(q - 1, order) - exp_series(-1, order)) * Fraction(1, q)
    if t == 0:
        series = series + exp_series(-1, order)
    return series


def _sn_connected(w: GroupElement, order: int, max_dp_cells: int | None) -> list[int]:
    """The S_n row every comparison reads for the G(r,s,n) element w: the
    connected counts of its permutation part at m = 0..order, by
    inversion (`counting.connected_totals`)."""
    from . import counting

    return counting.connected_totals(permutation_part(w), order, max_dp_cells)


def sn_connected_series(w: GroupElement, order: int, max_dp_cells: int | None = None) -> EgfSeries:
    """EGF of connected counts of the permutation part, in S_n."""
    counts = _sn_connected(w, order, max_dp_cells)
    coeffs = [Fraction(count, math.factorial(m)) for m, count in enumerate(counts)]
    return EgfSeries(order, coeffs)


def comparison_refined(
    w: GroupElement, m1: int, m2: int, max_dp_cells: int | None = None
) -> int:
    """Connected refined count computed from the S_n connected count:
    r^(m1-n+1) * n^m2 * C(m1+m2, m1) * (cyclic count at m2) * (S_n count at m1).

    Evaluated in exact integers; when m1 < n-1 the division by r^(n-1-m1)
    must be exact, and a remainder would indicate a bug and raises."""
    m1, m2 = json_count(m1, "m1"), json_count(m2, "m2")
    sn_count = _sn_connected(w, m1, max_dp_cells)[m1]
    return _comparison(w.params, entry_product(w), m1, m2, sn_count)


def _comparison(p: GroupParams, t: int, m1: int, m2: int, sn_count: int) -> int:
    """comparison_refined's value in G(r,s,n) = p for an element with
    entry-product exponent t whose permutation part has S_n connected
    count sn_count at m1."""
    if sn_count == 0:
        return 0
    value = p.n**m2 * math.comb(m1 + m2, m1) * cyclic_count(p.q, t, m2) * sn_count
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


def comparison_total(w: GroupElement, m: int, max_dp_cells: int | None = None) -> int:
    """Connected count at m as the sum of refined comparisons over splits."""
    json_count(m, "m")
    sn = _sn_connected(w, m, max_dp_cells)
    t = entry_product(w)
    return sum(_comparison(w.params, t, m1, m - m1, sn[m1]) for m1 in range(m + 1))


def _comparison_series(p: GroupParams, t: int, sn: EgfSeries) -> EgfSeries:
    """The comparison formula as a series in G(r,s,n) = p, for entry-product
    exponent t: the cyclic series at n*x times the S_n series `sn` at r*x,
    divided by r^(n-1)."""
    cyc = cyclic_series(p.q, t, sn.order).scale_argument(p.n)
    return cyc * sn.scale_argument(p.r) * Fraction(1, p.r ** (p.n - 1))


def connected_series(w: GroupElement, order: int, max_dp_cells: int | None = None) -> EgfSeries:
    """EGF of connected counts of w, as the rescaled product of the cyclic
    series and the S_n connected series."""
    sn = sn_connected_series(w, order, max_dp_cells)
    return _comparison_series(w.params, entry_product(w), sn)


def sn_long_cycle_series(n: int, order: int) -> EgfSeries:
    """Classical EGF for factoring a long cycle of S_n into transpositions:
    (exp(nx/2) - exp(-nx/2))^(n-1) / n!."""
    if json_int(n) < 1:
        raise ValidationError("n must be positive")
    half = Fraction(n, 2)
    core = exp_series(half, order) - exp_series(-half, order)
    return core ** (n - 1) * Fraction(1, math.factorial(n))


def long_cycle_series(params: GroupParams, t: int, order: int) -> EgfSeries:
    """EGF for factoring an element over a long cycle in G(r,s,n), with entry
    product given by exponent t; all such factorizations are connected."""
    return _comparison_series(params, t, sn_long_cycle_series(params.n, order))


class ComparisonMismatch(_Frozen):
    """A split (m1, m2) at which the comparison formula and the connected
    oracle disagree on `element` and on every element of its class, of
    `class_size` elements: the formula gives the int `formula`, the
    oracle the int `enumeration`."""

    __slots__ = _fields = ("element", "class_size", "m1", "m2", "formula", "enumeration")


def comparison_mismatches(
    params: GroupParams, max_m: int, max_dp_cells: int | None = None
) -> tuple[int, list[ComparisonMismatch]]:
    """Exhaustively compare the refined comparison formula against the
    connected oracle (the orbit DP behind `count_connected_enum`) for
    every element of the group and every split with m1+m2 <= max_m.
    Returns (number of element checks, mismatches), the mismatches by
    class in the class graph's key order, then by m, then by m1.

    Both sides are class functions, so the sweep goes over the
    G(r,1,n)-conjugacy classes, the keys of the group's class graph, and
    a check of one class stands for |class| element checks; the classes
    and their sizes come from `counting.class_sizes`, which checks the
    budget and that the sizes sum to the group order.  Each class is
    read once, on one representative: its entry product, the row of S_n
    connected counts of its permutation part for m1 <= max_m and the
    oracle's rows by m2; every split is then evaluated by the arithmetic
    of `comparison_refined`.  A mismatch names the representative."""
    from . import counting
    from .indexing import class_representative

    json_count(max_m, "max_m")
    checks = 0
    bad: list[ComparisonMismatch] = []
    for key, size in counting.class_sizes(params, max_m, max_dp_cells).items():
        w = class_representative(params, key)
        t = entry_product(w)
        sn = _sn_connected(w, max_m, max_dp_cells)
        for m, row in enumerate(counting.connected_rows(w, max_m, max_dp_cells)):
            for m1 in range(m + 1):
                m2 = m - m1
                formula = _comparison(params, t, m1, m2, sn[m1])
                if formula != row[m2]:
                    bad.append(ComparisonMismatch(w, size, m1, m2, formula, row[m2]))
        checks += size * (max_m + 1) * (max_m + 2) // 2
    return checks, bad
