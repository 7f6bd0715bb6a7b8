"""Closed forms and generating series against brute force and the DP."""

import itertools
import math
from fractions import Fraction

import pytest

from reflfact import (
    ConsistencyError,
    GroupElement,
    GroupParams,
    ResourceLimitError,
    ValidationError,
    identity,
)
from reflfact import _kernels_pure, counting
from reflfact._kernels_pure import _reversed_classes
from reflfact.counting import _class_size, connected_from_all, count_all, count_connected_enum
from reflfact.indexing import class_key
from reflfact.series import (
    EgfSeries,
    comparison_mismatches,
    comparison_refined,
    comparison_total,
    connected_series,
    cyclic_count,
    cyclic_series,
    exp_series,
    long_cycle_series,
    sn_connected_series,
    sn_long_cycle_series,
)

from conftest import all_elements, element_comparison_mismatches


def brute_cyclic(q: int, t: int, m: int) -> int:
    """Oracle: count tuples of nonzero residues mod q summing to t."""
    if q == 1:
        return 1 if m == 0 else 0
    count = 0
    for tup in itertools.product(range(1, q), repeat=m):
        if sum(tup) % q == t:
            count += 1
    return count


def test_cyclic_count_examples():
    assert cyclic_count(2, 0, 4) == 1
    assert cyclic_count(2, 1, 3) == 1
    assert cyclic_count(3, 1, 2) == 1
    for q in (2, 3, 5):
        assert cyclic_count(q, 0, 0) == 1
        for t in range(1, q):
            assert cyclic_count(q, t, 0) == 0
    assert cyclic_count(1, 0, 0) == 1
    assert cyclic_count(1, 0, 3) == 0


def test_cyclic_count_brute_force():
    for q in range(2, 7):
        for t in range(q):
            for m in range(7):
                assert cyclic_count(q, t, m) == brute_cyclic(q, t, m)


def test_cyclic_count_recursion():
    # f_m = (q-1)^(m-1) - f_(m-1)
    for q in range(2, 9):
        for t in range(q):
            for m in range(1, 13):
                assert cyclic_count(q, t, m) == (q - 1) ** (m - 1) - cyclic_count(
                    q, t, m - 1
                )


def test_cyclic_count_validation():
    with pytest.raises(ValidationError):
        cyclic_count(2, 2, 1)
    with pytest.raises(ValidationError):
        cyclic_count(0, 0, 1)
    with pytest.raises(ValidationError):
        cyclic_count(2, 0, -1)


@pytest.mark.parametrize(
    "function, args",
    [
        pytest.param(function, args, id=f"{function.__name__}{args}")
        for function, args in (
            (cyclic_count, (2.0, 0, 2)),
            (cyclic_count, (True, 0, 2)),
            (cyclic_count, (3, True, 2)),
            (cyclic_series, (2.0, 0, 2)),
            (cyclic_series, (3, True, 2)),
            (cyclic_series, (2, 0, 2.0)),
            (sn_long_cycle_series, (3.0, 2)),
            (sn_long_cycle_series, (True, 2)),
            (sn_long_cycle_series, (3, 2.0)),
            (long_cycle_series, (GroupParams(2, 1, 3), True, 2)),
            (long_cycle_series, (GroupParams(2, 1, 3), 0, 2.0)),
            (exp_series, (1, 2.0)),
        )
    ],
)
def test_closed_forms_read_their_arguments_by_the_value_rules(function, args):
    # a bool or a float in an int argument is refused, not coerced
    with pytest.raises(ValidationError, match="expected an integer, got (True|2.0|3.0)"):
        function(*args)


def test_egf_arithmetic():
    e = exp_series(1, 6)
    assert (e * exp_series(-1, 6)).coeffs == EgfSeries.constant(1, 6).coeffs
    assert (e - e).counts() == [0] * 7
    assert (e**2).coeffs == exp_series(2, 6).coeffs
    assert e.scale_argument(3).coeffs == exp_series(3, 6).coeffs
    with pytest.raises(ValidationError):
        e + exp_series(1, 5)


def test_comparison_refined_examples():
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    assert comparison_refined(w, 1, 1) == 4 == count_connected_enum(w, 1, 1)
    # one-vertex groups reduce to the cyclic count
    p1 = GroupParams(6, 2, 1)
    zeta = GroupElement(p1, (1,), (2,))
    for m2 in range(6):
        assert comparison_refined(zeta, 0, m2) == cyclic_count(3, 1, m2)
    p22 = GroupParams(2, 2, 2)
    swap = GroupElement(p22, (2, 1), (0, 0))
    assert comparison_refined(swap, 1, 0) == 1


def test_comparison_total_examples():
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    assert comparison_total(w, 2) == 4
    assert comparison_refined(w, 2, 0) == 0 == comparison_refined(w, 0, 2)
    p22 = GroupParams(2, 2, 2)
    swap = GroupElement(p22, (2, 1), (0, 0))
    assert comparison_total(swap, 1) == 1
    assert comparison_total(swap, 0) == 0


COMPARISON_GROUPS = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (6, 2, 2), (2, 1, 3), (4, 4, 3)]


@pytest.mark.parametrize("r,s,n", COMPARISON_GROUPS)
def test_comparison_formula_exhaustive_spot(r, s, n):
    checks, mismatches = comparison_mismatches(GroupParams(r, s, n), 3)
    assert checks > 0 and mismatches == []


@pytest.mark.parametrize("r,s,n,max_m", [g + (4,) for g in COMPARISON_GROUPS] + [(6, 2, 3, 4)])
def test_class_sweep_matches_element_sweep(r, s, n, max_m):
    params = GroupParams(r, s, n)
    checks, mismatches = comparison_mismatches(params, max_m)
    assert (checks, mismatches) == element_comparison_mismatches(params, max_m)
    assert checks == params.group_order() * (max_m + 1) * (max_m + 2) // 2


def test_comparison_mismatches_checks_every_element_and_split_in_order(monkeypatch):
    params = GroupParams(6, 2, 2)
    keys = _reversed_classes(*params.triple)[0][0]
    order = [(key, m1, m - m1) for key in keys for m in range(5) for m1 in range(m + 1)]
    assert comparison_mismatches(params, 4) == (params.group_order() * 15, [])
    # with an oracle that always disagrees, every check is a mismatch: one
    # per class and split, in key order, then by m, then by m1
    monkeypatch.setattr(
        counting, "connected_rows",
        lambda w, max_m, max_dp_cells: [
            [comparison_refined(w, m - m2, m2, max_dp_cells) + 1 for m2 in range(m + 1)]
            for m in range(max_m + 1)
        ],
    )
    checks, bad = comparison_mismatches(params, 4)
    assert checks == params.group_order() * 15 == 36 * 15
    assert [(class_key(b.element.perm, b.element.exps, 6), b.m1, b.m2) for b in bad] == order
    assert all(b.enumeration == b.formula + 1 for b in bad)
    assert [b.class_size for b in bad] == [_class_size(params, key) for key, _, _ in order]
    # each class mismatch, expanded to the elements of its class, gives
    # exactly the element sweep's mismatches
    ref_checks, ref_bad = element_comparison_mismatches(params, 4)
    by_class: dict = {}
    for w in all_elements(params):
        by_class.setdefault(class_key(w.perm, w.exps, 6), []).append(w)
    expanded = [
        (w, b.m1, b.m2, b.formula, b.enumeration)
        for b in bad
        for w in by_class[class_key(b.element.perm, b.element.exps, 6)]
    ]
    assert ref_checks == checks == len(expanded) == len(set(expanded))
    assert set(expanded) == {(b.element, b.m1, b.m2, b.formula, b.enumeration) for b in ref_bad}


def test_comparison_sweep_refuses_classes_that_miss_elements(monkeypatch):
    params = GroupParams(3, 1, 2)
    (keys, back), merged = _reversed_classes(*params.triple)
    monkeypatch.setattr(
        _kernels_pure, "_reversed_classes", lambda r, s, n: ((keys[:-1], back), merged)
    )
    with pytest.raises(ConsistencyError, match="classes of G.* hold \\d+ elements, not 18"):
        comparison_mismatches(params, 2)


def test_comparison_sweep_checks_the_budget_before_the_class_search(monkeypatch):
    def search(r, s, n):
        raise AssertionError("the class graph was searched")

    monkeypatch.setattr(_kernels_pure, "_reversed_classes", search)
    with pytest.raises(ResourceLimitError, match="connected DP"):
        comparison_mismatches(GroupParams(2, 1, 3), 3, max_dp_cells=10)


def test_series_read_each_group_once_per_row(monkeypatch):
    # the identity of G(2,1,20) at m = 38 reads the totals of S_1..S_20,
    # more groups than the cache keeps: one row of S_n connected counts
    # runs each group's class DP once, where one call per m rebuilt the
    # groups the cache dropped between calls
    w = identity(GroupParams(2, 1, 20))
    original = _kernels_pure.dp_total
    built = []

    def recording(r, s, n, rounds, m):
        built.append(n)
        return original(r, s, n, rounds, m)

    monkeypatch.setattr(_kernels_pure, "dp_total", recording)
    for call in (sn_connected_series, comparison_total):
        counting.clear_caches()
        built.clear()
        call(w, 38)
        assert sorted(built) == list(range(1, 21)), call.__name__
    counting.clear_caches()


def test_comparison_refined_rejects_an_inexact_division(monkeypatch):
    # r^(m1-n+1) with m1 < n-1 divides; a value r^2 does not divide raises
    w = GroupElement(GroupParams(2, 1, 3), (2, 3, 1), (0, 0, 0))
    monkeypatch.setattr(counting, "connected_totals", lambda w, m, max_dp_cells: [1] * (m + 1))
    with pytest.raises(ConsistencyError, match="m1=0, m2=0 is not integral: 1/4$"):
        comparison_refined(w, 0, 0)
    assert comparison_refined(w, 2, 0) == 1  # 2^0 * 1


def test_negative_sizes_rejected():
    w = GroupElement(GroupParams(2, 1, 3), (2, 3, 1), (0, 1, 1))
    for call in (
        lambda: comparison_total(w, -1),
        lambda: comparison_mismatches(w.params, -1),
        lambda: connected_series(w, -1),
        lambda: cyclic_series(2, 0, -1),
        lambda: sn_long_cycle_series(3, -1),
        lambda: long_cycle_series(w.params, 0, -1),
        lambda: exp_series(1, -1),
        lambda: EgfSeries(-1, ()),
    ):
        with pytest.raises(ValidationError, match="nonnegative"):
            call()


def test_cyclic_series_matches_counts():
    for q in (1, 2, 3, 6):
        for t in range(q):
            series = cyclic_series(q, t, 10)
            for m in range(11):
                assert series.count(m) == cyclic_count(q, t, m)
    # cosh pattern at q=2, t=0
    assert cyclic_series(2, 0, 6).counts() == [1, 0, 1, 0, 1, 0, 1]
    assert cyclic_series(1, 0, 5).counts() == [1, 0, 0, 0, 0, 0]
    assert cyclic_series(3, 1, 5).count(0) == 0


def test_connected_series_matches_comparison_total():
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    series = connected_series(w, 6)
    assert series.counts()[:5] == [0, 0, 4, 0, 64]
    for m in range(7):
        assert series.count(m) == comparison_total(w, m)
    one = connected_series(identity(GroupParams(1, 1, 1)), 5)
    assert one.counts() == [1, 0, 0, 0, 0, 0]


def test_connected_series_reduces_to_sn():
    p = GroupParams(1, 1, 3)
    w = GroupElement(p, (2, 3, 1), (0, 0, 0))
    series = connected_series(w, 6)
    for m in range(7):
        assert series.count(m) == connected_from_all(w, m)


def test_sn_long_cycle_series_against_dp():
    for n, order in ((3, 8), (4, 8)):
        p = GroupParams(1, 1, n)
        cyc = GroupElement(p, tuple(list(range(2, n + 1)) + [1]), (0,) * n)
        series = sn_long_cycle_series(n, order)
        for m in range(order + 1):
            assert series.count(m) == count_all(cyc, m)
    assert sn_long_cycle_series(3, 4).counts() == [0, 0, 3, 0, 27]
    assert sn_long_cycle_series(2, 5).counts() == [0, 1, 0, 1, 0, 1]
    assert sn_long_cycle_series(1, 3).counts() == [1, 0, 0, 0]


def test_long_cycle_series_reduces_to_sn():
    assert (
        long_cycle_series(GroupParams(1, 1, 4), 0, 8).coeffs
        == sn_long_cycle_series(4, 8).coeffs
    )


@pytest.mark.parametrize(
    "r,s,n,max_m", [(2, 1, 2, 6), (2, 2, 2, 6), (2, 2, 3, 6)]
)
def test_long_cycle_series_against_dp(r, s, n, max_m):
    p = GroupParams(r, s, n)
    perm = tuple(list(range(2, n + 1)) + [1])
    for t in range(p.q):
        # representative over the long cycle with entry-product exponent t
        exps = [0] * n
        exps[0] = (t * s) % r
        w = GroupElement(p, perm, tuple(exps))
        series = long_cycle_series(p, t, max_m)
        for m in range(max_m + 1):
            assert series.count(m) == count_all(w, m)
            # long cycles admit a single partition: everything is connected
            assert series.count(m) == connected_from_all(w, m)


def test_long_cycle_closed_form_g222():
    counts = long_cycle_series(GroupParams(2, 2, 2), 0, 7).counts()
    for m in range(8):
        assert counts[m] == (2 ** (m - 1) if m % 2 == 1 else 0)


def test_long_cycle_equals_connected_series_specialization():
    # the long-cycle series is the connected series with the classical
    # one-cycle factor substituted
    for r, s, n in ((2, 1, 2), (2, 2, 3), (3, 1, 2)):
        p = GroupParams(r, s, n)
        lhs = long_cycle_series(p, 0, 6)
        rhs = (
            cyclic_series(p.q, 0, 6).scale_argument(n)
            * sn_long_cycle_series(n, 6).scale_argument(r)
            * Fraction(1, r ** (n - 1))
        )
        assert lhs.coeffs == rhs.coeffs


def test_series_denominators_divide_factorials():
    for series, _ in (
        (cyclic_series(3, 1, 8), "cyclic"),
        (sn_long_cycle_series(4, 8), "long cycle"),
        (long_cycle_series(GroupParams(6, 2, 2), 1, 8), "grsn"),
    ):
        for m, coeff in enumerate(series.coeffs):
            assert math.factorial(m) % coeff.denominator == 0


def test_exhaustive_series_consistency_small():
    # connected series coefficients equal the refined-comparison sums for
    # every element of a small group
    p = GroupParams(2, 2, 2)
    for w in all_elements(p):
        series = connected_series(w, 5)
        for m in range(6):
            assert series.count(m) == comparison_total(w, m)


@pytest.mark.parametrize("r,s,n", [(2, 1, 8), (6, 2, 5), (1, 1, 10)])
def test_long_cycle_series_against_class_dp_beyond_dense_reach(r, s, n):
    # |G| * (m + 1) exceeds the default DP cell budget on G(2,1,8) and
    # S_10; the class DP holds one cell per colored cycle type instead
    p = GroupParams(r, s, n)
    w = GroupElement(p, tuple(list(range(2, n + 1)) + [1]), (0,) * n)
    series = long_cycle_series(p, 0, n + 3)
    for m in range(n + 4):
        assert count_all(w, m) == series.count(m)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda e: e.coefficient(True), id="coefficient(True)"),
        pytest.param(lambda e: e.coefficient(2.0), id="coefficient(2.0)"),
        pytest.param(lambda e: e.count(2.0), id="count(2.0)"),
        pytest.param(lambda e: e**2.0, id="pow(2.0)"),
        pytest.param(lambda e: EgfSeries.constant(1, 2.0), id="constant(1, 2.0)"),
    ],
)
def test_series_read_their_ints_by_the_value_rules(call):
    # coefficient(True) would read coefficient 1, the others fail on a float
    with pytest.raises(ValidationError, match="^expected an integer, got (True|2.0)$"):
        call(exp_series(1, 3))


SCALAR_RULE = "^series scalar must be an int or a Fraction, got "


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda e: EgfSeries.constant(True, 2), "True$", id="constant(True)"),
        pytest.param(lambda e: EgfSeries.constant("x", 2), "'x'$", id="constant('x')"),
        pytest.param(lambda e: exp_series("1/2", 2), "'1/2'$", id="exp_series('1/2')"),
        pytest.param(lambda e: exp_series(0.5, 2), r"0\.5$", id="exp_series(0.5)"),
        pytest.param(lambda e: e * 1.5, r"1\.5$", id="series * 1.5"),
        pytest.param(lambda e: 1.5 * e, r"1\.5$", id="1.5 * series"),
        pytest.param(lambda e: e * True, "True$", id="series * True"),
        pytest.param(lambda e: e * "2", "'2'$", id="series * '2'"),
        pytest.param(lambda e: e.scale_argument(2.0), r"2\.0$", id="scale_argument(2.0)"),
        pytest.param(lambda e: e.scale_argument(True), "True$", id="scale_argument(True)"),
    ],
)
def test_series_read_their_scalars_by_the_value_rules(call, message):
    # each once answered as the number it equals (True as 1, '1/2' as
    # 1/2, 1.5 as 3/2) or raised a bare ValueError
    with pytest.raises(ValidationError, match=SCALAR_RULE + message):
        call(exp_series(1, 3))


def test_series_add_and_subtract_series_only():
    e = exp_series(1, 3)
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        for other in (1, Fraction(1, 2)):
            with pytest.raises(ValidationError, match="adds and subtracts series only"):
                combine(e, other)
    half = EgfSeries.constant(Fraction(1, 2), 3)
    assert e * 2 == 2 * e == e * Fraction(2) == e + e
    assert (e * Fraction(1, 2)).coeffs == (e - half * e).coeffs


def test_series_refuse_malformed_arguments():
    e = exp_series(1, 3)
    with pytest.raises(ValidationError, match="length order\\+1"):
        EgfSeries(2, (Fraction(1),))
    for m in (-1, 4):
        with pytest.raises(ValidationError, match=f"index {m} beyond order 3"):
            e.coefficient(m)
    with pytest.raises(ConsistencyError, match="count at m=1 is not integral: 1/2"):
        EgfSeries(1, (Fraction(0), Fraction(1, 2))).count(1)
    for combine in (lambda a, b: a * b, lambda a, b: a - b, lambda a, b: a + b):
        with pytest.raises(ValidationError, match="orders differ"):
            combine(e, exp_series(1, 2))
    with pytest.raises(ValidationError, match="negative series powers"):
        e ** -1
    for q, t, message in (
        (2, 2, "target exponent 2 out of range \\[0,2\\)"),
        (2, -1, "target exponent -1 out of range \\[0,2\\)"),
        (0, 0, "cyclic group order must be positive"),
    ):
        with pytest.raises(ValidationError, match=message):
            cyclic_series(q, t, 3)
    for n in (0, -2):
        with pytest.raises(ValidationError, match="n must be positive"):
            sn_long_cycle_series(n, 3)
    w = GroupElement(GroupParams(2, 1, 2), (2, 1), (0, 1))
    for m1, m2, name in ((-1, 0, "m1"), (0, -1, "m2")):
        with pytest.raises(ValidationError, match=f"{name} must be nonnegative"):
            comparison_refined(w, m1, m2)


def test_comparison_refined_divides_exactly_below_n_minus_one(monkeypatch):
    # S_n counts vanish for m1 < n-1, so only a wrong count reaches the
    # division by r^(n-1-m1): a multiple of it divides exactly
    w = GroupElement(GroupParams(2, 1, 3), (2, 3, 1), (0, 0, 0))
    monkeypatch.setattr(counting, "connected_totals", lambda w, m, max_dp_cells: [8] * (m + 1))
    assert comparison_refined(w, 0, 0) == 2  # 8 / 2^2
    assert comparison_refined(w, 1, 0) == 4  # 8 / 2
