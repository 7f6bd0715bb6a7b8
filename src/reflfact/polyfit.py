"""Recovery of the symmetric polynomials behind connected counts, by
exact interpolation.

Fixing a genus parameter g and a cycle count ell, connected counts
across all groups G(r,s,n) and all cycle types with ell parts are a
fixed combinatorial prefactor times the evaluation of one symmetric
polynomial (one per value of the entry-product indicator) at the cycle
type.  This module normalizes measured counts, fits those polynomials
in the monomial symmetric basis by solving an exact linear system,
checks the degree window, and predicts counts at unseen group sizes.
The solve is fraction-free: each row is scaled to integers and reduced
by Bareiss elimination, so no gcd is taken until the solution and the
reported residuals are built.

Two candidate normalizations are implemented, because they differ in
whether the fitted coefficients can be independent of n:

* "printed":  count / ( m!/r^(n-1) * prod n_i^(n_i+1)/n_i! )
* "derived":  count / ( m! * r^(m-n+1) * prod n_i^(n_i+1)/n_i! )

The two agree at r = 1.  Which one actually yields n-independent
coefficients is decided empirically by `normalization_verdict`.

Each input has one reader: `parse_genus` the genus, `_cycle_count` ell,
`GroupParams` the pair (r, s), `_product_class` the entry-product class,
`prefactor` the normalization, `json_count` a sample's count and
`_point` the point a polynomial is evaluated at.  `_basis_value` gives
the basis values of both a fit's rows and `SymmetricLaurentPoly.evaluate`,
so a prediction evaluates exactly the functions that were fitted.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .counting import connected_from_all
from .errors import (
    ConsistencyError,
    FitInconsistencyError,
    UnderdeterminedFitError,
    ValidationError,
)
from .groups import CycleType, GroupElement, GroupParams, _Frozen, json_count, json_int
from .indexing import class_representative
from .series import _rational, cyclic_count

NORMALIZATIONS = ("printed", "derived")

# Sentinel basis function: coefficient of 1/(x_1 + ... + x_ell), the
# standard convention for the (g, ell) = (0, 2) case where no Laurent
# polynomial has the required degree.
INV_SUM = "inv_sum"


class SymmetricLaurentPoly(_Frozen):
    """Symmetric function stored in the monomial symmetric basis.

    `terms` is a tuple of (exponent vector, coefficient) pairs: sorted-
    descending exponent vectors (length nvars, possibly negative entries)
    with rational coefficients.  The optional `inv_sum_coeff` adds
    c/(x_1+...+x_nvars); it is used only by the unstable two-cycle
    convention.
    """

    __slots__ = _fields = ("nvars", "terms", "inv_sum_coeff")
    _defaults = {"inv_sum_coeff": Fraction(0)}

    @classmethod
    def from_dict(
        cls, nvars: int, terms: dict, inv_sum_coeff=Fraction(0)
    ) -> "SymmetricLaurentPoly":
        """The polynomial of the {exponent vector: coefficient} terms, by
        the value rules: nvars is read by `_cycle_count`, terms only as a
        mapping, each exponent vector only as a sequence and each of its
        exponents by `json_int`, and each coefficient, as inv_sum_coeff,
        only as an int or a Fraction.  A zero coefficient is dropped
        before its exponent vector is read."""
        nvars = _cycle_count(nvars)
        inv_sum_coeff = _rational(inv_sum_coeff, "inv_sum_coeff")
        if not isinstance(terms, Mapping):
            raise ValidationError(f"terms must map exponent vectors to coefficients, got {terms!r}")
        clean = []
        for exps, coeff in terms.items():
            coeff = _rational(coeff, "coefficient")
            if not coeff:
                continue
            if not isinstance(exps, Sequence):
                raise ValidationError(f"exponent vector must be a sequence, got {exps!r}")
            exps = tuple(map(json_int, exps))
            if len(exps) != nvars:
                raise ValidationError(f"exponent vector {exps} must have {nvars} entries")
            if tuple(sorted(exps, reverse=True)) != exps:
                raise ValidationError(f"exponent vector {exps} must be sorted descending")
            clean.append((exps, coeff))
        clean.sort()
        return cls(nvars, tuple(clean), inv_sum_coeff)

    def term_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms and not self.inv_sum_coeff

    def degrees(self) -> list[int]:
        degs = [sum(exps) for exps, _ in self.terms]
        if self.inv_sum_coeff:
            degs.append(-1)
        return degs

    def evaluate(self, point: Sequence) -> Fraction:
        xs = _point(point, self.nvars, f"polynomial has {self.nvars} variables")
        terms = (*self.terms, (INV_SUM, self.inv_sum_coeff))
        try:  # each term's basis value, as a fit's row holds it
            return sum((c * _basis_value(fn, xs) for fn, c in terms if c), Fraction(0))
        except ZeroDivisionError as exc:
            raise ValidationError("cannot evaluate negative powers at zero") from exc

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exponents": list(exps), "coefficient": str(coeff)}
                for exps, coeff in self.terms
            ],
            "inv_sum_coefficient": str(self.inv_sum_coeff),
        }


def _point(point, size: int, expected: str) -> list[Fraction]:
    """`point` as Fractions, if it is a sequence of `size` numbers, each an
    int or a Fraction: a str is no such sequence, and a bool, str or float
    entry is not read as a number.  The one reader of a point a polynomial
    is evaluated at; `expected` ends the refusal of a point of another
    length."""
    try:
        xs = list(point)
    except TypeError:
        xs = None
    if xs is None or isinstance(point, (str, bytes)) or any(
        x.__class__ not in (int, Fraction) for x in xs
    ):
        raise ValidationError(f"point must be a sequence of numbers, got {point!r}")
    if len(xs) != size:
        raise ValidationError(f"point has {len(xs)} entries, {expected}")
    return [Fraction(x) for x in xs]


def _monomial_value(exps: tuple[int, ...], xs: Sequence):
    """Monomial symmetric function m_exps evaluated at xs: the sum of the
    distinct monomials with this exponent multiset.  An int at int xs
    when no exponent is negative; xs must be Fractions when one is."""
    return sum(math.prod(map(pow, xs, arr)) for arr in _arrangements(exps))


@functools.lru_cache(maxsize=1024)
def _arrangements(exps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of the exponent multiset `exps`, each once:
    every distinct value in turn first, then the orderings of the rest."""
    if not exps:
        return ((),)
    out = []
    for e in dict.fromkeys(exps):
        i = exps.index(e)
        out.extend((e,) + tail for tail in _arrangements(exps[:i] + exps[i + 1:]))
    return tuple(out)


def parse_genus(g) -> Fraction:
    """g, a number or its text as `fit --g` takes it, as a Fraction: a
    nonnegative integer or half-integer."""
    try:
        genus = Fraction(g)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad genus {g!r}: {exc}") from exc
    if genus.numerator < 0 or genus.denominator > 2:
        raise ValidationError("genus must be a nonnegative integer or half-integer")
    return genus


def genus_window(g, ell: int) -> tuple[Fraction, Fraction]:
    """Closed interval of allowed total degrees: [2g-3+ell, 3g-3+ell]."""
    g = parse_genus(g)
    return 2 * g - 3 + ell, 3 * g - 3 + ell


def degree_window_check(poly: SymmetricLaurentPoly, g, ell: int) -> bool:
    """Whether every nonzero term's total degree lies in the genus window."""
    lo, hi = genus_window(g, ell)
    return all(lo <= d <= hi for d in poly.degrees())


def _cycle_count(ell) -> int:
    """`ell` if it is a positive int, as `json_int` reads one: the one rule
    for the number of cycles of the cycle types a fit is over."""
    if json_int(ell) < 1:
        raise ValidationError(f"ell must be positive, got {ell}")
    return ell


def tuple_length_for(g, n: int, ell: int) -> int:
    """The factorization length m = 2g + n + ell - 2 with genus g on an
    n-element group with ell cycles; n is an int, as `json_int` reads one."""
    genus = parse_genus(g)
    m = 2 * genus.numerator // genus.denominator + json_int(n) + _cycle_count(ell) - 2
    if m < 0:
        raise ValidationError(f"no valid tuple length for g={g}, n={n}, ell={ell}")
    return m


def prefactor(m: int, r: int, n: int, normalization: str) -> Fraction:
    if normalization == "printed":
        return Fraction(math.factorial(m), r ** (n - 1))
    if normalization == "derived":
        return Fraction(math.factorial(m)) * Fraction(r) ** (m - n + 1)
    raise ValidationError(f"unknown normalization {normalization!r}")


def cycle_type_factor(ctype: CycleType) -> Fraction:
    """prod n_i^(n_i+1)/n_i! over the parts, one Fraction of two products."""
    num = den = 1
    for part in ctype.parts:
        num *= part ** (part + 1)
        den *= math.factorial(part)
    return Fraction(num, den)


def _scale(m: int, r: int, ctype: CycleType, normalization: str) -> Fraction:
    """What a connected count at m over `ctype` is divided by."""
    return prefactor(m, r, ctype.n, normalization) * cycle_type_factor(ctype)


def elsv_normalize(
    count: int, m: int, ctype: CycleType, normalization: str, params: GroupParams
) -> Fraction:
    """Divide a connected count by its combinatorial prefactor, leaving the
    value of the symmetric polynomial at the cycle type."""
    json_count(m, "m")
    return count / _scale(m, params.r, ctype, normalization)


# ---------------------------------------------------------------------------
# Basis construction and the exact linear solve


def _partitions_at_most(total: int, parts: int) -> list[tuple[int, ...]]:
    """Partitions of `total` into at most `parts` parts, as descending
    tuples padded with zeros to length `parts`."""
    out = []

    def rec(remaining, maxpart, acc):
        if len(acc) == parts:
            if remaining == 0:
                out.append(tuple(acc))
            return
        if remaining == 0:
            out.append(tuple(acc) + (0,) * (parts - len(acc)))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(total, total if total else 1, [])
    return out


def basis_functions(g, ell: int):
    """Basis in which the degree-window polynomial is fitted: monomial
    symmetric functions for stable windows, Laurent monomials for
    one-variable negative windows, and the inverse-sum convention for
    the (0,2) case: with ell >= 1, a window below zero is one of these
    two."""
    lo_f, hi_f = genus_window(g, _cycle_count(ell))
    lo, hi = math.ceil(lo_f), math.floor(hi_f)
    if hi < 0:
        if ell == 1:
            return [(d,) for d in range(lo, hi + 1)]
        return [INV_SUM]  # (g, ell) = (0, 2)
    basis = []
    for d in range(max(lo, 0), hi + 1):
        basis.extend(_partitions_at_most(d, ell))
    return basis


def _system(basis, samples) -> tuple[list[list], list]:
    """The rows and right-hand side that fit `samples` in `basis`."""
    rows = [[_basis_value(fn, sample.ctype.parts) for fn in basis] for sample in samples]
    return rows, [sample.normalized for sample in samples]


def _basis_value(fn, point: Sequence):
    """The basis function at `point`; at an integer point an int, unless
    fn is INV_SUM or has a negative exponent."""
    if fn == INV_SUM:
        return Fraction(1, sum(point))
    if fn and min(fn) < 0:
        point = [Fraction(x) for x in point]
    return _monomial_value(fn, point)


def _exact_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ConsistencyError("fraction-free elimination left a remainder")
    return q


def _solve_exact(rows: list[list], rhs: list):
    """Solve an overdetermined exact linear system of ints and Fractions.

    Each row and its right-hand side are scaled by the lcm of their
    denominators and reduced by fraction-free (Bareiss) elimination: a
    step on pivot p sets each entry x of a row below to
    (p*x - a*y) / prev, with a the row's pivot-column entry, y the pivot
    row's entry and prev the last pivot; the division is exact, and a
    remainder raises ConsistencyError.  Each column's pivot is the first
    row in `order` with a nonzero entry, and scaling keeps every zero, so
    the rank and training rows are those of elimination over the
    rationals.  Back-substitution gives numerators N over one
    denominator D; a holdout row R, B is checked as the integer R.N - B*D.

    Returns (solution, training_rows, holdout_residuals).  Raises
    UnderdeterminedFitError when the rows do not pin down every
    coefficient and FitInconsistencyError when no solution exists.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    scales = []
    scaled = []
    for row, b in zip(rows, rhs):
        scale = math.lcm(b.denominator, *(x.denominator for x in row))
        scales.append(scale)
        scaled.append([x.numerator * (scale // x.denominator) for x in (*row, b)])
    aug = [row[:] for row in scaled]
    order = list(range(nrows))
    prev = 1
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[order[i]][col]), None)
        if pivot is None:
            continue
        order[rank], order[pivot] = order[pivot], order[rank]
        prow = aug[order[rank]]
        p = prow[col]
        tail = prow[col + 1:]
        for i in order[rank + 1:]:
            row = aug[i]
            a = row[col]
            row[col + 1:] = [
                _exact_quotient(p * x - a * y, prev) for x, y in zip(row[col + 1:], tail)
            ]
        prev = p
        rank += 1
        if rank == min(nrows, ncols):
            break
    if rank < ncols:
        raise UnderdeterminedFitError(
            f"system of {nrows} samples determines only {rank} of {ncols} coefficients"
        )
    # every column is a pivot: row order[k] solves for column k
    denom = prev
    nums = [0] * ncols
    for k in reversed(range(ncols)):
        row = aug[order[k]]
        rest = sum(row[j] * nums[j] for j in range(k + 1, ncols))
        nums[k] = _exact_quotient(denom * row[ncols] - rest, row[k])
    solution = [Fraction(num, denom) for num in nums]
    training = tuple(sorted(order[:rank]))
    residuals = []
    inconsistent = []
    for i in sorted(order[rank:]):
        row = scaled[i]
        excess = sum(x * num for x, num in zip(row, nums)) - row[ncols] * denom
        res = Fraction(excess, scales[i] * denom)
        residuals.append(res)
        if res:
            inconsistent.append((i, res))
    if inconsistent:
        detail = ", ".join(f"sample {i}: residual {res}" for i, res in inconsistent)
        raise FitInconsistencyError(f"no exact fit: {detail}")
    return solution, training, tuple(residuals)


def _poly_from_solution(ell: int, basis, solution) -> SymmetricLaurentPoly:
    terms = {}
    inv_sum = Fraction(0)
    for fn, coeff in zip(basis, solution):
        if fn == INV_SUM:
            inv_sum += coeff
        elif coeff:
            terms[fn] = coeff
    return SymmetricLaurentPoly.from_dict(ell, terms, inv_sum)


# ---------------------------------------------------------------------------
# Fit reports


class FitSample(_Frozen):
    """One fitted point: the count of an element of cycle type `ctype` in
    S_n (or G(r,s,n)) at m factors, and that count `normalized`."""

    __slots__ = _fields = ("ctype", "n", "m", "count", "normalized")

    def to_json(self) -> dict:
        return {
            "cycle_type": list(self.ctype.parts),
            "n": self.n,
            "m": self.m,
            "count": str(self.count),
            "normalized": str(self.normalized),
        }


class FitReport(_Frozen):
    """One fit at genus `g` (a Fraction) and `ell` cycles over G(r,s,n)
    under `normalization`; `trivial_product` is None for plain S_n fits.
    `polynomial` solves the samples at `training_indices`, the rest leave
    `holdout_residuals`, and `window_ok` says its degrees lie in `window`."""

    __slots__ = _fields = (
        "g",
        "ell",
        "r",
        "s",
        "trivial_product",
        "normalization",
        "polynomial",
        "window",
        "window_ok",
        "samples",
        "training_indices",
        "holdout_residuals",
    )

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(sorted({s.n for s in self.samples}))

    def to_json(self) -> dict:
        return {
            "g": str(self.g),
            "ell": self.ell,
            "r": self.r,
            "s": self.s,
            "trivial_product": self.trivial_product,
            "normalization": self.normalization,
            "polynomial": self.polynomial.to_json(),
            "window": [str(self.window[0]), str(self.window[1])],
            "window_ok": self.window_ok,
            "samples": [s.to_json() for s in self.samples],
            "training_indices": list(self.training_indices),
            "holdout_residuals": [str(x) for x in self.holdout_residuals],
            "n_values": list(self.n_values),
        }


def _prepare_samples(g, ell, r, normalization, samples) -> list[FitSample]:
    prepared = []
    for ctype, count in samples:
        if ctype.ell != ell:
            raise ValidationError(
                f"cycle type {ctype.parts} has {ctype.ell} parts, expected {ell}"
            )
        m = tuple_length_for(g, ctype.n, ell)
        normalized = json_count(count, "count") / _scale(m, r, ctype, normalization)
        prepared.append(FitSample(ctype, ctype.n, m, count, normalized))
    return prepared


def _fit(g, ell, r, s, trivial_product, normalization, prepared) -> FitReport:
    if not prepared:
        raise ValidationError("no samples to fit")
    basis = basis_functions(g, ell)
    solution, training, residuals = _solve_exact(*_system(basis, prepared))
    poly = _poly_from_solution(ell, basis, solution)
    return FitReport(
        g=g,
        ell=ell,
        r=r,
        s=s,
        trivial_product=trivial_product,
        normalization=normalization,
        polynomial=poly,
        window=genus_window(g, ell),
        window_ok=degree_window_check(poly, g, ell),
        samples=tuple(prepared),
        training_indices=training,
        holdout_residuals=residuals,
    )


def fit_sn_polynomial(g, ell: int, samples) -> FitReport:
    """Fit the symmetric-group polynomial from (CycleType, connected count)
    samples.  The two normalizations coincide at r = 1."""
    g = parse_genus(g)
    if g.denominator != 1:
        raise ValidationError("symmetric-group fits need integer genus")
    prepared = _prepare_samples(g, ell, 1, "printed", samples)
    return _fit(g, ell, 1, 1, None, "printed", prepared)


def fit_grsn_polynomial(
    g,
    ell: int,
    trivial_product: bool,
    r: int,
    s: int,
    normalization: str,
    samples,
) -> FitReport:
    """Fit one of the two polynomials for G(r,s,n) under the chosen
    normalization from (CycleType, n, connected count) samples.

    Samples must span at least two distinct n; when per-n data is
    individually consistent but no single coefficient vector fits all n,
    the raised error says so explicitly (the normalization hides an
    n-dependence)."""
    g = parse_genus(g)
    _product_class(GroupParams(r, s, 1), trivial_product)
    pairs = []
    for ctype, n, count in samples:
        if ctype.n != n:
            raise ValidationError(f"cycle type {ctype.parts} does not sum to n={n}")
        pairs.append((ctype, count))
    n_seen = sorted({ctype.n for ctype, _ in pairs})
    if len(n_seen) < 2:
        raise ValidationError(f"samples must span at least two distinct n, got n={n_seen}")
    prepared = _prepare_samples(g, ell, r, normalization, pairs)
    try:
        return _fit(g, ell, r, s, trivial_product, normalization, prepared)
    except FitInconsistencyError as exc:
        if _consistent_per_n(g, ell, prepared):
            raise FitInconsistencyError(
                f"normalization {normalization!r} yields n-dependent coefficients "
                f"for g={g}, ell={ell}, (r,s)=({r},{s}): {exc}"
            ) from exc
        raise


def _consistent_per_n(g, ell, prepared) -> bool:
    basis = basis_functions(g, ell)
    by_n: dict[int, list[FitSample]] = {}
    for sample in prepared:
        by_n.setdefault(sample.n, []).append(sample)
    for group in by_n.values():
        try:
            _solve_exact(*_system(basis, group))
        except UnderdeterminedFitError:
            continue
        except FitInconsistencyError:
            return False
    return True


def predict_connected_count(
    report: FitReport, ctype: CycleType, params: GroupParams, trivial_product, m: int
) -> int:
    """Evaluate a fitted polynomial and restore the prefactor, yielding the
    predicted connected count; must come out a nonnegative integer."""
    if ctype.ell != report.ell:
        raise ValidationError(
            f"cycle type has {ctype.ell} parts, report is for ell={report.ell}"
        )
    if (params.r, params.s) != (report.r, report.s):
        raise ValidationError("group parameters do not match the report")
    if ctype.n != params.n:
        raise ValidationError(f"cycle type sums to {ctype.n}, group has n={params.n}")
    if report.trivial_product is not None:
        if trivial_product != report.trivial_product:
            raise ValidationError("entry-product class does not match the report")
        _product_class(params, trivial_product)
    if json_count(m, "m") != tuple_length_for(report.g, ctype.n, report.ell):
        raise ValidationError(
            f"m={m} inconsistent with g={report.g}, n={ctype.n}, ell={report.ell}"
        )
    value = report.polynomial.evaluate(ctype.parts) * _scale(
        m, report.r, ctype, report.normalization
    )
    if value.denominator != 1 or value < 0:
        raise ConsistencyError(f"prediction is not a nonnegative integer: {value}")
    return value.numerator


# ---------------------------------------------------------------------------
# Sample generation straight from the counting machinery


def _product_class(params: GroupParams, trivial_product: bool) -> int:
    """The class's target exponent t in Z_(r/s), 0 if `trivial_product`
    else 1: a bool, as `CountKey` reads `connected`."""
    if trivial_product.__class__ is not bool:
        raise ValidationError(f"expected true or false, got {trivial_product!r}")
    if not trivial_product and params.q < 2:
        raise ValidationError("nontrivial entry product impossible when r == s")
    return 0 if trivial_product else 1


def canonical_element(
    params: GroupParams, ctype: CycleType, trivial_product: bool
) -> GroupElement:
    """Deterministic representative with the given underlying cycle type and
    entry-product class: `indexing.class_representative` of the cycles in
    increasing length, all of color 0 except (for the nontrivial class)
    the first, of color s, so the exponents are zero except one s on the
    first vertex."""
    if ctype.n != params.n:
        raise ValidationError(f"cycle type sums to {ctype.n}, group has n={params.n}")
    pairs = [(length, 0) for length in sorted(ctype.parts)]
    if _product_class(params, trivial_product):
        pairs[0] = (pairs[0][0], params.s)
    return class_representative(params, pairs)


def partitions_into(n: int, parts: int) -> list[tuple[int, ...]]:
    """Partitions of n into exactly `parts` positive parts, descending."""
    if n < parts:
        return []
    return [
        tuple(x + 1 for x in p) for p in _partitions_at_most(n - parts, parts)
    ]


def _n_values(n_values) -> list[int]:
    """The sample sizes, sorted: one n at least, each read by `json_int`,
    none repeated, since a repeated n would only check a sample against
    itself and no n would fit nothing."""
    n_values = [json_int(n) for n in n_values]
    if not n_values:
        raise ValidationError("n_values must hold at least one n")
    if len(set(n_values)) < len(n_values):
        raise ValidationError(f"repeated n in {n_values}")
    return sorted(n_values)


def collect_samples(
    r: int,
    s: int,
    g,
    ell: int,
    trivial_product: bool,
    n_values: Sequence[int],
    max_dp_cells: int | None = None,
) -> list[tuple[CycleType, int, int]]:
    """Measure connected counts for every cycle type with `ell` parts at each
    requested n, using the canonical representative of each class.  An
    empty or repeated n_values is refused by `_n_values` before any
    count."""
    _cycle_count(ell)
    g = parse_genus(g)
    _product_class(GroupParams(r, s, 1), trivial_product)
    out = []
    for n in _n_values(n_values):
        if n < ell:
            raise ValidationError(f"n={n} is smaller than ell={ell}")
        params = GroupParams(r, s, n)
        m = tuple_length_for(g, n, ell)
        for parts in partitions_into(n, ell):
            ctype = CycleType(parts)
            w = canonical_element(params, ctype, trivial_product)
            count = connected_from_all(w, m, max_dp_cells)
            out.append((ctype, n, count))
    return out


class NormalizationVerdict(_Frozen):
    """Outcome of fitting under both normalizations at several n:
    `reports` maps (normalization, trivial_product) to a FitReport,
    `failures` maps it to the error of a fit that failed, and `winners`
    names the normalizations that fit every class."""

    __slots__ = _fields = (
        "g", "ell", "r", "s", "n_values", "reports", "failures", "winners"
    )

    def to_json(self) -> dict:
        return {
            "g": str(self.g),
            "ell": self.ell,
            "r": self.r,
            "s": self.s,
            "n_values": list(self.n_values),
            "fits": {
                f"{norm}/trivial={triv}": report.to_json()
                for (norm, triv), report in self.reports.items()
            },
            "failures": {
                f"{norm}/trivial={triv}": msg
                for (norm, triv), msg in self.failures.items()
            },
            "winners": list(self.winners),
        }


def normalization_verdict(
    g,
    ell: int,
    r: int,
    s: int,
    n_values: Sequence[int],
    max_dp_cells: int | None = None,
) -> NormalizationVerdict:
    """Decide empirically which prefactor yields n-independent coefficients:
    fit both product classes under both normalizations and record which
    normalizations fit all available data exactly."""
    g = parse_genus(g)
    n_values = tuple(_n_values(n_values))
    classes = [True] + ([False] if GroupParams(r, s, 1).q >= 2 else [])
    reports: dict = {}
    failures: dict = {}
    for trivial in classes:
        samples = collect_samples(r, s, g, ell, trivial, n_values, max_dp_cells)
        for norm in NORMALIZATIONS:
            try:
                reports[(norm, trivial)] = fit_grsn_polynomial(
                    g, ell, trivial, r, s, norm, samples
                )
            except (FitInconsistencyError, UnderdeterminedFitError, ValidationError) as exc:
                failures[(norm, trivial)] = str(exc)
    winners = tuple(
        norm
        for norm in NORMALIZATIONS
        if all((norm, trivial) in reports for trivial in classes)
    )
    return NormalizationVerdict(g, ell, r, s, n_values, reports, failures, winners)


def grsn_pvalue_from_sn_expansion(
    g, ell: int, r: int, s: int, trivial_product: bool, sn_polys: dict, point
) -> Fraction:
    """Evaluate the predicted G(r,s,n) polynomial as the explicit linear
    combination of symmetric-group polynomials of lower genus: the sum over
    loop counts j of r^(-j) * (cyclic count at j)/j! * (sum of point)^j
    times the genus-(g - j/2) symmetric-group polynomial.

    `sn_polys` maps integer genus to fitted S_n polynomials.  Terms whose
    inner genus is negative or half-integer vanish (no symmetric-group data
    at that parity)."""
    g = parse_genus(g)
    params = GroupParams(r, s, 1)
    t = _product_class(params, trivial_product)
    xs = _point(point, _cycle_count(ell), f"expected ell={ell}")
    xsum = sum(xs)
    total = Fraction(0)
    for j in range(int(2 * g) + 1):
        inner = g - Fraction(j, 2)
        if inner.denominator != 1 or inner < 0:
            continue
        inner_poly = sn_polys.get(int(inner))
        if inner_poly is None:
            raise ValidationError(f"missing symmetric-group polynomial for genus {inner}")
        total += (
            Fraction(1, r**j)
            * Fraction(cyclic_count(params.q, t, j), math.factorial(j))
            * xsum**j
            * inner_poly.evaluate(xs)
        )
    return total
