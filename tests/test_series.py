"""Closed forms and generating series against brute force and the DP."""

import itertools
import math
from fractions import Fraction

import pytest

from reflfact import ConsistencyError, GroupElement, GroupParams, ValidationError, identity
from reflfact import series
from reflfact.counting import connected_from_all, count_all, count_connected_enum
from reflfact.indexing import GroupIndexer
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
    sn_long_cycle_series,
)

from conftest import all_elements


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


def test_comparison_mismatches_checks_every_element_and_split_in_order(monkeypatch):
    params = GroupParams(6, 2, 2)
    indexer = GroupIndexer(params)
    order = [
        (indexer.element_at(i), m1, m - m1)
        for i in range(indexer.size)
        for m in range(5)
        for m1 in range(m + 1)
    ]
    assert comparison_mismatches(params, 4) == (len(order), [])
    # with an oracle that always disagrees, every check is a mismatch, in
    # the order the checks ran
    monkeypatch.setattr(
        series, "count_connected_enum",
        lambda w, m1, m2, opts: comparison_refined(w, m1, m2, opts) + 1,
    )
    checks, bad = comparison_mismatches(params, 4)
    assert checks == len(order) == 36 * 15
    assert [(b.element, b.m1, b.m2) for b in bad] == order
    assert all(b.enumeration == b.formula + 1 for b in bad)


def test_comparison_refined_rejects_an_inexact_division(monkeypatch):
    # r^(m1-n+1) with m1 < n-1 divides; a value r^2 does not divide raises
    w = GroupElement(GroupParams(2, 1, 3), (2, 3, 1), (0, 0, 0))
    monkeypatch.setattr(series, "connected_from_all", lambda w, m, opts: 1)
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
