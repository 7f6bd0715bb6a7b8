"""Acceptance suite: ten exact criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Every comparison is exact integer/rational equality; there
are no tolerances anywhere.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from reflfact import (
    DecoratedGraph,
    GroupElement,
    GroupParams,
    all_walks,
    evaluate_by_walks,
    graph_of_tuple,
    identity,
    walk_weight,
)
from reflfact.counting import (
    connected_from_all,
    count_all,
    count_all_by_enum,
    count_connected_enum,
    count_refined,
)
from reflfact.groups import CycleType
from reflfact.polyfit import (
    canonical_element,
    collect_samples,
    degree_window_check,
    fit_grsn_polynomial,
    fit_sn_polynomial,
    normalization_verdict,
    predict_connected_count,
    tuple_length_for,
)
from reflfact.series import (
    comparison_mismatches,
    comparison_total,
    connected_series,
    cyclic_count,
    long_cycle_series,
    sn_long_cycle_series,
)

from conftest import (
    all_elements,
    all_from_connected,
    fold_product,
    populate_connected_table,
    random_tuple,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


RANDOM_TUPLE_CONFIGS = [(1, 1, 4), (2, 1, 3), (6, 2, 3), (4, 4, 3)]
EXHAUSTIVE_COUNT_GROUPS = [(1, 1, 3), (2, 1, 2), (2, 2, 2)]
COMPARISON_GROUPS = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (6, 2, 2)]
DEEP_COMPARISON_GROUPS = [(6, 2, 3), (4, 2, 3)]  # at m <= 6
WIDE_COMPARISON_GROUPS = [(6, 2, 5), (4, 1, 6), (2, 1, 8)]  # at m <= 8


def _random_graphs(per_config: int, max_len: int = 8, seed: int = 20240501):
    rng = random.Random(seed)
    for r, s, n in RANDOM_TUPLE_CONFIGS:
        params = GroupParams(r, s, n)
        for _ in range(per_config):
            refs = random_tuple(params, rng.randrange(0, max_len + 1), rng)
            yield params, refs, graph_of_tuple(refs, params=params)


def test_criterion_1_walk_calculus_reference_example():
    with criterion(1, "reference seven-edge graph: walks, weights, evaluation"):
        params = GroupParams(6, 2, 4)
        graph = DecoratedGraph(
            params,
            ((3, 4, 5), (2, 3, 0), (4, 4, 2), (1, 2, 1), (3, 4, 3), (1, 3, 4), (1, 1, 1)),
        )
        walks = all_walks(graph)
        assert [(w.start, w.end) for w in walks] == [(1, 2), (2, 4), (3, 1), (4, 3)]
        assert [[s[0] for s in w.steps] for w in walks] == [
            [3],
            [1, 4],
            [0, 2, 4, 5, 6],
            [0, 1, 3, 5],
        ]
        assert [walk_weight(graph, w) for w in walks] == [1, 3, 4, -2]
        element = evaluate_by_walks(graph)
        assert element.perm == (2, 4, 1, 3)
        assert element.exps == (1, 3, 4, 4)


def test_criterion_2_walk_evaluation_equals_product():
    with criterion(2, "10^4 random tuples: walk evaluation equals direct product"):
        checked = 0
        for params, refs, graph in _random_graphs(per_config=2500):
            assert evaluate_by_walks(graph) == fold_product(refs, params)
            checked += 1
        assert checked >= 10**4


def test_criterion_3_each_directed_edge_on_one_walk():
    with criterion(3, "10^4 random graphs: every directed edge on exactly one walk"):
        checked = 0
        for params, refs, graph in _random_graphs(per_config=2500):
            seen = {}
            for walk in all_walks(graph):
                for step in walk.steps:
                    assert step not in seen
                    seen[step] = walk.start
            for idx, (i, j, _) in enumerate(graph.edges):
                if i == j:
                    assert (idx, i, i) in seen
                else:
                    assert (idx, i, j) in seen and (idx, j, i) in seen
            checked += 1
        assert checked >= 10**4


def test_criterion_4_counting_consistency():
    with criterion(4, "refined counts sum to totals; class DP equals connected DP (m <= 5)"):
        for r, s, n in EXHAUSTIVE_COUNT_GROUPS:
            params = GroupParams(r, s, n)
            for w in all_elements(params):
                for m in range(6):
                    total = count_all(w, m)
                    refined = [count_refined(w, m - m2, m2) for m2 in range(m + 1)]
                    assert sum(refined) == total
                    assert count_all_by_enum(w, m) == total
                    enum_refined = [
                        count_connected_enum(w, m - m2, m2) for m2 in range(m + 1)
                    ]
                    assert all(c <= t for c, t in zip(enum_refined, refined))


def test_criterion_5_comparison_formula_desk_scale():
    with criterion(
        5,
        "comparison formula equals the connected DP on four groups (m <= 5), "
        "on G(6,2,3), G(4,2,3) (m <= 6) and on G(6,2,5), G(4,1,6), G(2,1,8) (m <= 8)",
    ):
        for r, s, n in COMPARISON_GROUPS:
            checks, mismatches = comparison_mismatches(GroupParams(r, s, n), 5)
            assert mismatches == [], (r, s, n, mismatches[:3])
            assert checks == GroupParams(r, s, n).group_order() * 21
        for r, s, n in DEEP_COMPARISON_GROUPS:
            checks, mismatches = comparison_mismatches(GroupParams(r, s, n), 6)
            assert mismatches == [], (r, s, n, mismatches[:3])
            assert checks == GroupParams(r, s, n).group_order() * 28
        for r, s, n in WIDE_COMPARISON_GROUPS:
            checks, mismatches = comparison_mismatches(GroupParams(r, s, n), 8)
            assert mismatches == [], (r, s, n, mismatches[:3])
            assert checks == GroupParams(r, s, n).group_order() * 45


def test_criterion_6_partition_roundtrip():
    with criterion(6, "connected->all reassembly returns the DP totals (m <= 5)"):
        for r, s, n in EXHAUSTIVE_COUNT_GROUPS:
            params = GroupParams(r, s, n)
            for w in all_elements(params):
                table = populate_connected_table(w, 5)
                for m in range(6):
                    assert all_from_connected(w, m, table) == count_all(w, m)


def test_criterion_7_cyclic_closed_form():
    with criterion(7, "cyclic closed form vs brute force (q <= 6, m <= 10) + recursion"):
        for q in range(1, 7):
            # exhaustive tuple enumeration for short lengths
            for m in range(5 if q > 4 else 7):
                by_target = [0] * q
                for tup in itertools.product(range(1, q), repeat=m):
                    by_target[sum(tup) % q] += 1
                for t in range(q):
                    assert cyclic_count(q, t, m) == by_target[t]
            # independent convolution DP for the full range
            vec = [1] + [0] * (q - 1)
            for m in range(1, 11):
                vec = [
                    sum(vec[(t - k) % q] for k in range(1, q)) for t in range(q)
                ]
                for t in range(q):
                    assert cyclic_count(q, t, m) == vec[t]
        for q in range(2, 9):
            for t in range(q):
                for m in range(1, 13):
                    assert cyclic_count(q, t, m) == (q - 1) ** (m - 1) - cyclic_count(
                        q, t, m - 1
                    )


def test_criterion_8_series_identities():
    with criterion(8, "series identities match sums and DP counts"):
        # connected series coefficients vs refined-comparison sums, m <= 8
        for r, s, n in COMPARISON_GROUPS:
            params = GroupParams(r, s, n)
            for w in all_elements(params):
                series = connected_series(w, 8)
                for m in range(9):
                    assert series.count(m) == comparison_total(w, m)
        # classical long-cycle series vs DP in S_3 and S_4, m <= 8
        for n in (3, 4):
            params = GroupParams(1, 1, n)
            cyc = GroupElement(params, tuple(list(range(2, n + 1)) + [1]), (0,) * n)
            series = sn_long_cycle_series(n, 8)
            for m in range(9):
                assert series.count(m) == count_all(cyc, m)
        assert sn_long_cycle_series(3, 4).count(2) == 3
        assert sn_long_cycle_series(3, 4).count(4) == 27
        # long-cycle series in G(2,1,2) and G(2,2,3) vs DP, m <= 6
        for r, s, n in ((2, 1, 2), (2, 2, 3)):
            params = GroupParams(r, s, n)
            perm = tuple(list(range(2, n + 1)) + [1])
            for t in range(params.q):
                exps = [0] * n
                exps[0] = (t * s) % r
                w = GroupElement(params, perm, tuple(exps))
                series = long_cycle_series(params, t, 6)
                for m in range(7):
                    count = count_all(w, m)
                    assert series.count(m) == count
                    # long-cycle factorizations are all connected
                    assert connected_from_all(w, m) == count


def test_criterion_9_polynomiality():
    with criterion(9, "polynomial fits, predictions, and degree windows"):
        accepted = []

        # genus-one single-cycle polynomial from n in {2, 3}
        samples = []
        for n in (2, 3):
            w = canonical_element(GroupParams(1, 1, n), CycleType((n,)), True)
            samples.append((CycleType((n,)), connected_from_all(w, n + 1)))
        report11 = fit_sn_polynomial(1, 1, samples)
        assert report11.polynomial.term_dict() == {
            (0,): Fraction(-1, 24),
            (1,): Fraction(1, 24),
        }
        accepted.append(report11)

        # prediction at the next group size, verified against the DP
        w4 = canonical_element(GroupParams(1, 1, 4), CycleType((4,)), True)
        dp_value = connected_from_all(w4, 5)
        predicted = predict_connected_count(
            report11, CycleType((4,)), GroupParams(1, 1, 4), None, 5
        )
        assert predicted == dp_value == 640

        # three-fixed-point genus-zero constant
        id3 = identity(GroupParams(1, 1, 3))
        report03 = fit_sn_polynomial(
            0, 3, [(CycleType((1, 1, 1)), connected_from_all(id3, 4))]
        )
        assert report03.polynomial.term_dict() == {(0, 0, 0): Fraction(1)}
        accepted.append(report03)

        # minimal long-cycle counts via the one-cycle convention, n <= 5
        minimal_samples = []
        for n in (2, 3, 4, 5):
            w = canonical_element(GroupParams(1, 1, n), CycleType((n,)), True)
            count = connected_from_all(w, n - 1)
            assert count == n ** (n - 2)
            minimal_samples.append((CycleType((n,)), count))
        report01 = fit_sn_polynomial(0, 1, minimal_samples)
        assert report01.polynomial.term_dict() == {(-2,): Fraction(1)}
        assert report01.holdout_residuals == (0, 0, 0)
        accepted.append(report01)

        # G(2,2,n) and G(2,1,n): train at two n, predict a third exactly
        for r, s in ((2, 2), (2, 1)):
            train = collect_samples(r, s, 0, 1, True, (2, 3))
            report = fit_grsn_polynomial(0, 1, True, r, s, "derived", train)
            ((ctype, n, count),) = collect_samples(r, s, 0, 1, True, (4,))
            assert (
                predict_connected_count(
                    report, ctype, GroupParams(r, s, n), True,
                    tuple_length_for(0, n, 1),
                )
                == count
            )
            accepted.append(report)

        for report in accepted:
            assert degree_window_check(report.polynomial, report.g, report.ell)
            assert report.window_ok


def test_criterion_10_normalization_verdict():
    with criterion(10, "normalization verdict at >= 3 group sizes per configuration"):
        winners_seen = set()
        for g, ell in ((0, 1), (0, 2), (1, 1)):
            for r, s in ((2, 1), (2, 2), (3, 1)):
                n_values = tuple(range(max(ell, 2), max(ell, 2) + 3))
                verdict = normalization_verdict(g, ell, r, s, n_values)
                assert len(verdict.n_values) >= 3
                assert verdict.winners, (
                    f"no normalization fits g={g}, ell={ell}, (r,s)=({r},{s}): "
                    f"{verdict.failures}"
                )
                winners_seen.update(verdict.winners)
                for report in verdict.reports.values():
                    assert all(res == 0 for res in report.holdout_residuals)
                    assert report.window_ok or report.polynomial.is_zero()
        # one prefactor choice succeeds uniformly: the derived one
        assert "derived" in winners_seen
