"""Polynomial recovery: normalization, exact fits, predictions, windows."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from reflfact import GroupElement, GroupParams, identity
from reflfact.counting import connected_from_all
from reflfact.errors import (
    ConsistencyError,
    FitInconsistencyError,
    UnderdeterminedFitError,
    ValidationError,
)
from reflfact.groups import CycleType, cycle_type, entry_product
from reflfact.polyfit import (
    INV_SUM,
    FitReport,
    SymmetricLaurentPoly,
    _basis_value,
    _exact_quotient,
    _monomial_value,
    _solve_exact,
    basis_functions,
    canonical_element,
    collect_samples,
    degree_window_check,
    elsv_normalize,
    fit_grsn_polynomial,
    fit_sn_polynomial,
    genus_window,
    grsn_pvalue_from_sn_expansion,
    normalization_verdict,
    parse_genus,
    partitions_into,
    predict_connected_count,
    prefactor,
    tuple_length_for,
)

from conftest import all_elements, fraction_solve_exact


def long_cycle(n: int, r: int = 1, s: int = 1) -> GroupElement:
    p = GroupParams(r, s, n)
    return GroupElement(p, tuple(list(range(2, n + 1)) + [1]), (0,) * n)


def minimal_cycle_samples(n_values):
    out = []
    for n in n_values:
        w = long_cycle(n)
        out.append((CycleType((n,)), connected_from_all(w, n - 1)))
    return out


def test_elsv_normalize_examples():
    # minimal long-cycle counts give 1/n^2 under either prefactor at r=1
    for n in (2, 3, 4, 5):
        count = connected_from_all(long_cycle(n), n - 1)
        assert count == n ** (n - 2)
        for norm in ("printed", "derived"):
            value = elsv_normalize(
                count, n - 1, CycleType((n,)), norm, GroupParams(1, 1, n)
            )
            assert value == Fraction(1, n**2)
    p2 = GroupParams(1, 1, 2)
    assert connected_from_all(identity(p2), 2) == 1
    assert elsv_normalize(1, 2, CycleType((1, 1)), "printed", p2) == Fraction(1, 2)
    p3 = GroupParams(1, 1, 3)
    assert elsv_normalize(24, 4, CycleType((1, 1, 1)), "printed", p3) == 1


def test_prefactors_agree_at_r_one():
    for m, n in ((3, 2), (5, 4)):
        assert prefactor(m, 1, n, "printed") == prefactor(m, 1, n, "derived")
    assert prefactor(3, 2, 2, "printed") == Fraction(6, 2)
    assert prefactor(3, 2, 2, "derived") == 6 * 2**2


def test_genus_one_fit():
    samples = []
    for n in (2, 3):
        m = tuple_length_for(1, n, 1)
        samples.append((CycleType((n,)), connected_from_all(long_cycle(n), m)))
    assert [count for _, count in samples] == [1, 27]
    report = fit_sn_polynomial(1, 1, samples)
    assert report.polynomial.term_dict() == {
        (0,): Fraction(-1, 24),
        (1,): Fraction(1, 24),
    }
    assert report.window == (0, 1)
    assert report.window_ok
    assert all(res == 0 for res in report.holdout_residuals)


def test_genus_zero_three_cycles_fit():
    p3 = GroupParams(1, 1, 3)
    samples = [(CycleType((1, 1, 1)), connected_from_all(identity(p3), 4))]
    report = fit_sn_polynomial(0, 3, samples)
    assert report.polynomial.term_dict() == {(0, 0, 0): Fraction(1)}
    assert report.window == (0, 0) and report.window_ok


def test_unstable_conventions():
    report = fit_sn_polynomial(0, 1, minimal_cycle_samples((2, 3, 4, 5)))
    assert report.polynomial.term_dict() == {(-2,): Fraction(1)}
    assert report.window == (-2, -2) and report.window_ok
    assert report.holdout_residuals == (0, 0, 0)

    # two-part genus-zero counts fit the inverse-sum convention with c = 1
    samples = []
    for parts in ((1, 1), (2, 1), (2, 2), (3, 1)):
        ctype = CycleType(parts)
        n = ctype.n
        w = canonical_element(GroupParams(1, 1, n), ctype, True)
        samples.append((ctype, connected_from_all(w, tuple_length_for(0, n, 2))))
    report02 = fit_sn_polynomial(0, 2, samples)
    assert report02.polynomial.terms == ()
    assert report02.polynomial.inv_sum_coeff == 1
    assert degree_window_check(report02.polynomial, 0, 2)


def test_predictions():
    report = fit_sn_polynomial(1, 1, [
        (CycleType((2,)), 1),
        (CycleType((3,)), 27),
    ])
    p4 = GroupParams(1, 1, 4)
    predicted = predict_connected_count(report, CycleType((4,)), p4, None, 5)
    assert predicted == connected_from_all(long_cycle(4), 5) == 640

    report01 = fit_sn_polynomial(0, 1, minimal_cycle_samples((2, 3, 4)))
    assert (
        predict_connected_count(
            report01, CycleType((5,)), GroupParams(1, 1, 5), None, 4
        )
        == 125
    )
    # training points reproduce exactly
    assert (
        predict_connected_count(report, CycleType((3,)), GroupParams(1, 1, 3), None, 4)
        == 27
    )
    with pytest.raises(ValidationError):
        predict_connected_count(report, CycleType((4,)), p4, None, 6)  # m mismatch


def test_degree_window_check_counterexample():
    poly = SymmetricLaurentPoly.from_dict(1, {(2,): Fraction(1)})
    assert not degree_window_check(poly, 1, 1)  # window [0, 1]
    assert degree_window_check(poly, Fraction(3, 2), 1)  # window [1, 3/2]


def test_basis_functions_windows():
    assert basis_functions(1, 1) == [(0,), (1,)]
    assert basis_functions(0, 3) == [(0, 0, 0)]
    assert basis_functions(0, 1) == [(-2,)]
    assert basis_functions(Fraction(1, 2), 1) == [(-1,)]
    from reflfact.polyfit import INV_SUM

    assert basis_functions(0, 2) == [INV_SUM]
    assert basis_functions(0, 4) == [(1, 0, 0, 0)]  # window [1, 1]


def test_symmetric_poly_evaluation():
    poly = SymmetricLaurentPoly.from_dict(
        2, {(2, 0): Fraction(1), (1, 1): Fraction(3)}
    )
    # m_(2,0) = x^2 + y^2, m_(1,1) = xy
    assert poly.evaluate((2, 3)) == 4 + 9 + 3 * 6
    assert poly.evaluate((3, 2)) == poly.evaluate((2, 3))
    inv = SymmetricLaurentPoly.from_dict(2, {}, inv_sum_coeff=Fraction(1))
    assert inv.evaluate((2, 3)) == Fraction(1, 5)
    with pytest.raises(ValidationError):
        poly.evaluate((1, 2, 3))


def test_grsn_fit_r2s2():
    # no diagonal reflections: the minimal long-cycle counts match the
    # symmetric-group shape after the derived rescaling
    samples = collect_samples(2, 2, 0, 1, True, (2, 3))
    report = fit_grsn_polynomial(0, 1, True, 2, 2, "derived", samples)
    assert report.polynomial.term_dict() == {(-2,): Fraction(1)}
    held_out = collect_samples(2, 2, 0, 1, True, (4,))
    (ctype, n, count) = held_out[0]
    assert (
        predict_connected_count(
            report, ctype, GroupParams(2, 2, n), True, tuple_length_for(0, n, 1)
        )
        == count
    )


def test_grsn_fits_by_product_class():
    # at (r,s) = (2,1) the two entry-product classes give different data
    for trivial, expected in ((True, {(-2,): Fraction(1)}), (False, {})):
        samples = collect_samples(2, 1, 0, 1, trivial, (2, 3, 4))
        report = fit_grsn_polynomial(0, 1, trivial, 2, 1, "derived", samples)
        assert report.polynomial.term_dict() == expected
        assert report.window_ok


def test_grsn_single_n_rejected():
    samples = collect_samples(2, 1, 0, 1, True, (3,))
    with pytest.raises(ValidationError):
        fit_grsn_polynomial(0, 1, True, 2, 1, "derived", samples)


def test_printed_normalization_flagged_as_n_dependent():
    samples = collect_samples(2, 1, 1, 1, True, (2, 3, 4))
    with pytest.raises(FitInconsistencyError) as err:
        fit_grsn_polynomial(1, 1, True, 2, 1, "printed", samples)
    assert "n-dependent" in str(err.value)


def test_underdetermined_fit():
    with pytest.raises(UnderdeterminedFitError):
        fit_sn_polynomial(1, 1, [(CycleType((3,)), 27)])


def test_half_integer_genus_fit():
    # odd tuple lengths need diagonal factors; genus comes out half-integer
    samples = collect_samples(2, 1, Fraction(1, 2), 1, False, (2, 3, 4))
    report = fit_grsn_polynomial(Fraction(1, 2), 1, False, 2, 1, "derived", samples)
    assert report.polynomial.term_dict() == {(-1,): Fraction(1, 2)}
    assert report.window == (Fraction(-1), Fraction(-1, 2))
    assert report.window_ok
    trivial = collect_samples(2, 1, Fraction(1, 2), 1, True, (2, 3, 4))
    report1 = fit_grsn_polynomial(Fraction(1, 2), 1, True, 2, 1, "derived", trivial)
    assert report1.polynomial.is_zero()


def test_normalization_verdict_criterion_shape():
    verdict = normalization_verdict(1, 1, 2, 1, (2, 3, 4))
    assert verdict.winners == ("derived",)
    assert ("printed", True) in verdict.failures
    report = verdict.reports[("derived", True)]
    assert report.polynomial.term_dict() == {
        (0,): Fraction(1, 12),
        (1,): Fraction(1, 24),
    }
    assert verdict.to_json()["winners"] == ["derived"]


def test_expansion_consistency_with_sn_polynomials():
    # the fitted G(r,s,.) polynomial equals the loop-count expansion over
    # fitted symmetric-group polynomials of lower genus
    sn_polys = {
        0: fit_sn_polynomial(0, 1, minimal_cycle_samples((2, 3, 4))).polynomial,
        1: fit_sn_polynomial(
            1, 1, [(CycleType((2,)), 1), (CycleType((3,)), 27)]
        ).polynomial,
    }
    for r, s in ((2, 1), (3, 1), (2, 2)):
        for trivial in (True, False):
            if r == s and not trivial:
                continue
            samples = collect_samples(r, s, 1, 1, trivial, (2, 3, 4))
            report = fit_grsn_polynomial(1, 1, trivial, r, s, "derived", samples)
            for x in (2, 3, 5, 7, 11):
                assert report.polynomial.evaluate((x,)) == grsn_pvalue_from_sn_expansion(
                    1, 1, r, s, trivial, sn_polys, (x,)
                )


def test_genus_two_fit_predicts_unseen_n():
    samples = []
    for n in (2, 3, 4):
        m = tuple_length_for(2, n, 1)
        w = canonical_element(GroupParams(1, 1, n), CycleType((n,)), True)
        samples.append((CycleType((n,)), connected_from_all(w, m)))
    report = fit_sn_polynomial(2, 1, samples)
    assert report.window == (2, 4) and report.window_ok
    m5 = tuple_length_for(2, 5, 1)
    w5 = canonical_element(GroupParams(1, 1, 5), CycleType((5,)), True)
    predicted = predict_connected_count(
        report, CycleType((5,)), GroupParams(1, 1, 5), None, m5
    )
    assert predicted == connected_from_all(w5, m5) == 1640625


def test_two_cycle_genus_one_fit_predicts_unseen_types():
    samples = []
    for n in (2, 3, 4):
        m = tuple_length_for(1, n, 2)
        for parts in partitions_into(n, 2):
            ctype = CycleType(parts)
            w = canonical_element(GroupParams(1, 1, n), ctype, True)
            samples.append((ctype, connected_from_all(w, m)))
    report = fit_sn_polynomial(1, 2, samples)
    assert report.window_ok
    assert all(res == 0 for res in report.holdout_residuals)
    m5 = tuple_length_for(1, 5, 2)
    for parts, expected in (((4, 1), 143360), ((3, 2), 158760)):
        ctype = CycleType(parts)
        w = canonical_element(GroupParams(1, 1, 5), ctype, True)
        assert connected_from_all(w, m5) == expected
        assert (
            predict_connected_count(report, ctype, GroupParams(1, 1, 5), None, m5)
            == expected
        )


def test_expansion_consistency_genus_two():
    sn_polys = {
        0: fit_sn_polynomial(0, 1, minimal_cycle_samples((2, 3, 4))).polynomial,
        1: fit_sn_polynomial(
            1, 1, [(CycleType((2,)), 1), (CycleType((3,)), 27)]
        ).polynomial,
    }
    g2_samples = []
    for n in (2, 3, 4):
        m = tuple_length_for(2, n, 1)
        w = canonical_element(GroupParams(1, 1, n), CycleType((n,)), True)
        g2_samples.append((CycleType((n,)), connected_from_all(w, m)))
    sn_polys[2] = fit_sn_polynomial(2, 1, g2_samples).polynomial
    for r, s in ((2, 1), (2, 2)):
        samples = collect_samples(r, s, 2, 1, True, (2, 3, 4))
        report = fit_grsn_polynomial(2, 1, True, r, s, "derived", samples)
        for x in (2, 3, 5, 7):
            assert report.polynomial.evaluate((x,)) == grsn_pvalue_from_sn_expansion(
                2, 1, r, s, True, sn_polys, (x,)
            )


def test_count_depends_only_on_type_and_product_class():
    # exhaustive check on small groups that the connected count is a
    # function of (cycle type, entry-product class)
    for r, s, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)):
        p = GroupParams(r, s, n)
        for m in range(4):
            seen = {}
            for w in all_elements(p):
                key = (cycle_type(w).parts, entry_product(w) == 0)
                value = connected_from_all(w, m)
                if key in seen:
                    assert seen[key] == value, (r, s, n, m, key)
                else:
                    seen[key] = value


def test_canonical_element():
    p = GroupParams(2, 1, 5)
    w = canonical_element(p, CycleType((3, 2)), True)
    assert cycle_type(w) == CycleType((3, 2))
    assert entry_product(w) == 0
    w0 = canonical_element(p, CycleType((3, 2)), False)
    assert entry_product(w0) != 0
    with pytest.raises(ValidationError):
        canonical_element(GroupParams(2, 2, 4), CycleType((4,)), False)


def test_partitions_into():
    assert partitions_into(4, 2) == [(3, 1), (2, 2)]
    assert partitions_into(3, 3) == [(1, 1, 1)]
    assert partitions_into(2, 3) == []


@pytest.mark.parametrize(
    "g,n_values,expected",
    [
        # <tau_4>_2, -<lambda_1 tau_3>_2 and the lambda_g constant b_2
        (
            2, range(2, 10),
            {(4,): Fraction(1, 1152), (3,): Fraction(-1, 480), (2,): Fraction(7, 5760)},
        ),
        # <tau_7>_3 and -b_3
        (3, range(2, 15), {(7,): Fraction(1, 82944), (4,): Fraction(-31, 967680)}),
        # <tau_2 tau_0>_1 = <tau_1 tau_1>_1 on m_(2,0) and m_(1,1), and -b_1
        (
            1, range(2, 9),
            {(2, 0): Fraction(1, 24), (1, 1): Fraction(1, 24), (1, 0): Fraction(-1, 24)},
        ),
    ],
)
def test_one_cycle_fits_match_elsv_end_coefficients(g, n_values, expected):
    # ell is the length of the exponent vectors of the expected terms
    ell = len(next(iter(expected)))
    samples = collect_samples(1, 1, g, ell, True, list(n_values))
    report = fit_sn_polynomial(g, ell, [(ctype, count) for ctype, _, count in samples])
    assert report.window_ok
    assert all(res == 0 for res in report.holdout_residuals)
    terms = report.polynomial.term_dict()
    assert {exps: terms[exps] for exps in expected} == expected


def _permutation_monomial(exps, xs):
    """m_exps at xs summed over the set of all permutations of exps."""
    return sum(
        math.prod(x**e for x, e in zip(xs, arrangement))
        for arrangement in set(itertools.permutations(exps))
    )


def test_monomial_values_match_the_permutation_sum():
    # every basis function with ell <= 5, at integer points and, where an
    # exponent is negative, at rational points
    for ell in range(1, 6):
        for twice_g in range(0, 7):
            try:
                basis = basis_functions(Fraction(twice_g, 2), ell)
            except ValidationError:
                continue
            points = [tuple(range(2, 2 + ell)), (3,) * ell, tuple(range(ell + 4, 4, -1))]
            for fn in basis:
                if fn == INV_SUM:
                    continue
                for point in points:
                    xs = [Fraction(x) for x in point] if min(fn) < 0 else point
                    assert _monomial_value(fn, xs) == _permutation_monomial(fn, xs), (fn, point)
                    assert _basis_value(fn, point) == _permutation_monomial(fn, xs)


def _random_system(rng: random.Random, kind: str):
    """Rows and right-hand sides of one seeded system of the given kind.

    Entries are small ints, many of them zero, and rationals; "basis" rows
    are basis-function values (INV_SUM, negative exponents, monomials) at
    two-part cycle types.  A "deficient" system has a zero column or a
    column that repeats another, or fewer rows than columns; an
    "inconsistent" one has one right-hand side moved off the solution."""
    if kind == "basis":
        basis = rng.sample([INV_SUM, (0, -1), (-1, -1), (-1, -2), (0, 0), (1, 0), (1, 1), (2, 0)], 4)
        points = [(a, b) for a in range(1, 8) for b in range(1, a + 1)]
        rows = [[_basis_value(fn, pt) for fn in basis] for pt in rng.sample(points, rng.randint(3, 8))]
        ncols = len(basis)
    else:
        ncols = rng.randint(2 if kind == "deficient" else 1, 5)
        nrows = rng.randint(ncols - 1 if kind == "deficient" else ncols, ncols + 4)
        pool = [0, 0, 0, 1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4)]
        rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        if kind == "deficient":
            dead, copy = rng.sample(range(ncols), 2)
            factor = rng.choice([0, 2])
            for row in rows:
                row[dead] = factor * row[copy]
    truth = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ncols)]
    rhs = [sum((x * t for x, t in zip(row, truth)), Fraction(0)) for row in rows]
    if kind == "inconsistent" or kind == "basis" and rng.random() < 0.3:
        rhs[rng.randrange(len(rhs))] += Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return rows, rhs


def _outcome(solve, rows, rhs):
    try:
        solution, training, residuals = solve(rows, rhs)
    except (FitInconsistencyError, UnderdeterminedFitError) as exc:
        return type(exc), str(exc)
    return solution, training, residuals


@pytest.mark.parametrize("kind", ["overdetermined", "deficient", "inconsistent", "basis"])
def test_fraction_free_solve_matches_gauss_jordan(kind):
    rng = random.Random(f"solve-{kind}")
    outcomes = set()
    for _ in range(300):
        rows, rhs = _random_system(rng, kind)
        expected = _outcome(
            fraction_solve_exact, [[Fraction(x) for x in row] for row in rows], rhs
        )
        assert _outcome(_solve_exact, rows, rhs) == expected, (rows, rhs)
        outcomes.add(expected[0] if isinstance(expected[0], type) else "solved")
    # each kind reaches the outcome it is drawn for
    want = {
        "overdetermined": "solved",
        "deficient": UnderdeterminedFitError,
        "inconsistent": FitInconsistencyError,
        "basis": "solved",
    }[kind]
    assert want in outcomes


def test_inexact_division_is_a_consistency_error():
    assert _exact_quotient(-12, 4) == -3
    with pytest.raises(ConsistencyError):
        _exact_quotient(7, 2)


def test_genus_rule_is_one_function():
    assert parse_genus("3/2") == Fraction(3, 2) and parse_genus(2) == 2
    for bad, message in (
        ("one", "bad genus 'one'"), ("1/0", "bad genus"), (None, "bad genus"),
        (-1, "nonnegative integer or half-integer"), ("1/3", "nonnegative integer"),
    ):
        with pytest.raises(ValidationError, match=message):
            parse_genus(bad)
        with pytest.raises(ValidationError, match=message):
            fit_sn_polynomial(bad, 1, [(CycleType((2,)), 1)])
        with pytest.raises(ValidationError, match=message):
            fit_grsn_polynomial(bad, 1, True, 2, 1, "derived", [])
    with pytest.raises(ValidationError, match="need integer genus"):
        fit_sn_polynomial(Fraction(1, 2), 1, [(CycleType((2,)), 1)])


def test_laurent_polynomials_refuse_malformed_terms():
    with pytest.raises(ValidationError, match=r"\(1,\) must have 2 entries"):
        SymmetricLaurentPoly.from_dict(2, {(1,): 1})
    with pytest.raises(ValidationError, match="must be sorted descending"):
        SymmetricLaurentPoly.from_dict(2, {(0, 1): 1})
    # a zero coefficient is dropped before its exponent vector is read
    poly = SymmetricLaurentPoly.from_dict(2, {(0, 1): 0, (1,): Fraction(0), (1, 0): 2})
    assert poly.terms == (((1, 0), Fraction(2)),)
    assert poly.evaluate((0, 3)) == 6  # 2 * (x + y); no negative power, so 0 is a point
    for poly in (
        SymmetricLaurentPoly.from_dict(1, {(-2,): 1}),
        SymmetricLaurentPoly.from_dict(2, {(1, 1): 1}, inv_sum_coeff=1),
    ):
        with pytest.raises(ValidationError, match="negative powers at zero"):
            poly.evaluate((0,) * poly.nvars)


def test_normalization_helpers_refuse_what_names_no_count():
    for g, n, ell in ((Fraction(1, 3), 3, 1), (0, 1, 0)):  # 2g not an int; m = -1
        with pytest.raises(ValidationError, match="no valid tuple length"):
            tuple_length_for(g, n, ell)
    with pytest.raises(ValidationError, match="unknown normalization 'other'"):
        prefactor(3, 2, 2, "other")
    with pytest.raises(ValidationError, match="m must be nonnegative"):
        elsv_normalize(1, -1, CycleType((2,)), "printed", GroupParams(1, 1, 2))


@pytest.mark.parametrize(
    "function, args",
    [
        pytest.param(function, args, id=f"{function.__name__}{args}")
        for function, args in (
            (tuple_length_for, (1, 3.0, 1)),
            (tuple_length_for, (1, True, 1)),
            (tuple_length_for, (1, 3, 1.0)),
            (basis_functions, (1, 2.0)),
            (basis_functions, (1, True)),
            (collect_samples, (1, 1, 0, True, True, [2, 3])),
        )
    ],
)
def test_n_and_ell_are_read_by_the_value_rules(function, args):
    # a bool or a float is refused, not taken for the int it equals
    with pytest.raises(ValidationError, match="^expected an integer, got (True|1.0|2.0|3.0)$"):
        function(*args)


def test_basis_functions_refuse_empty_and_unconventional_windows():
    for g, ell in ((Fraction(1, 4), 1), (-1, 3)):  # ceil(lo) > floor(hi)
        with pytest.raises(ValidationError, match="empty degree window"):
            basis_functions(g, ell)
    # a window below zero other than the conventions of (g, 1) and (0, 2)
    # needs ell < 1, which names no cycle type
    for g, ell in ((0, 0), (Fraction(1, 2), 0), (1, 0), (1, -1)):
        with pytest.raises(ValidationError, match="ell must be positive"):
            basis_functions(g, ell)


def test_fits_refuse_samples_that_do_not_match():
    with pytest.raises(ValidationError, match=r"\(1, 1\) has 2 parts, expected 1"):
        fit_sn_polynomial(1, 1, [(CycleType((1, 1)), 1)])
    with pytest.raises(ValidationError, match="no samples to fit"):
        fit_sn_polynomial(1, 1, [])
    samples = collect_samples(2, 1, 0, 1, True, (2, 3))
    with pytest.raises(ValidationError, match="unknown normalization 'other'"):
        fit_grsn_polynomial(0, 1, True, 2, 1, "other", samples)
    (ctype, _, count) = samples[0]
    with pytest.raises(ValidationError, match=r"\(2,\) does not sum to n=3"):
        fit_grsn_polynomial(0, 1, True, 2, 1, "derived", [(ctype, 3, count), *samples])


def test_fit_inconsistent_within_one_n_is_not_blamed_on_the_normalization():
    # two counts for one cycle type at n = 2: no coefficient fits that n
    # alone, so the error is the plain one, not "n-dependent"
    samples = collect_samples(2, 1, 0, 1, True, (2, 3))
    (ctype, n, count) = samples[0]
    with pytest.raises(FitInconsistencyError, match="no exact fit") as err:
        fit_grsn_polynomial(0, 1, True, 2, 1, "derived", [*samples, (ctype, n, count + 1)])
    assert "n-dependent" not in str(err.value)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda report: predict_connected_count(
                report, CycleType((5,)), GroupParams(1, 1, 3), None, 4
            ),
            "^cycle type sums to 5, group has n=3$",
            id="5-cycle in S_3",
        ),
        pytest.param(
            lambda report: predict_connected_count(
                report, CycleType((2,)), GroupParams(1, 1, 2), None, True
            ),
            "^expected an integer, got True$",
            id="m=True",
        ),
        pytest.param(
            lambda report: predict_connected_count(
                report, CycleType((8,)), GroupParams(1, 1, 8), None, 7.0
            ),
            "^expected an integer, got 7.0$",
            id="m=7.0",
        ),
        pytest.param(
            lambda report: grsn_pvalue_from_sn_expansion(-1, 1, 2, 1, True, {}, (2,)),
            "^genus must be a nonnegative integer or half-integer$",
            id="genus -1",
        ),
        pytest.param(
            lambda report: grsn_pvalue_from_sn_expansion(
                Fraction(1, 3), 1, 2, 1, True, {}, (2,)
            ),
            "^genus must be a nonnegative integer or half-integer$",
            id="genus 1/3",
        ),
        pytest.param(
            lambda report: grsn_pvalue_from_sn_expansion("x", 1, 2, 1, True, {}, (2,)),
            "^bad genus 'x'",
            id="genus 'x'",
        ),
    ],
)
def test_predictions_and_expansions_read_their_inputs_by_the_value_rules(call, message):
    # each of these once answered (S_5's count for the 5-cycle, m = 1 for
    # True, 0 for a genus outside the window) or raised a bare error
    report = fit_sn_polynomial(0, 1, minimal_cycle_samples((2, 3, 4)))
    with pytest.raises(ValidationError, match=message):
        call(report)


def test_predictions_refuse_what_the_report_does_not_cover():
    samples = collect_samples(2, 2, 0, 1, True, (2, 3))
    report = fit_grsn_polynomial(0, 1, True, 2, 2, "derived", samples)
    ctype, p4, m = CycleType((4,)), GroupParams(2, 2, 4), tuple_length_for(0, 4, 1)
    assert predict_connected_count(report, ctype, p4, True, m) > 0
    for args, message in (
        ((CycleType((2, 2)), p4, True, m), "has 2 parts, report is for ell=1"),
        ((ctype, GroupParams(2, 1, 4), True, m), "group parameters do not match"),
        ((ctype, p4, False, m), "entry-product class does not match"),
        ((ctype, p4, True, m + 1), f"m={m + 1} inconsistent with g=0, n=4, ell=1"),
    ):
        with pytest.raises(ValidationError, match=message):
            predict_connected_count(report, *args)
    fields = {f: getattr(report, f) for f in FitReport._fields}
    for coeff in (Fraction(1, 7), Fraction(-1)):  # not an integer; negative
        poly = SymmetricLaurentPoly.from_dict(1, {(-2,): coeff})
        with pytest.raises(ConsistencyError, match="not a nonnegative integer"):
            predict_connected_count(FitReport(**{**fields, "polynomial": poly}), ctype, p4, True, m)


def test_sampling_refuses_groups_too_small_for_the_cycle_type():
    with pytest.raises(ValidationError, match="sums to 2, group has n=3"):
        canonical_element(GroupParams(1, 1, 3), CycleType((2,)), True)
    with pytest.raises(ValidationError, match="n=2 is smaller than ell=3"):
        collect_samples(1, 1, 0, 3, True, (2,))


def test_expansion_refuses_a_missing_class_or_polynomial():
    with pytest.raises(ValidationError, match="impossible when r == s"):
        grsn_pvalue_from_sn_expansion(1, 1, 2, 2, False, {}, (2,))
    with pytest.raises(ValidationError, match="missing symmetric-group polynomial for genus 1"):
        grsn_pvalue_from_sn_expansion(1, 1, 2, 1, True, {}, (2,))
