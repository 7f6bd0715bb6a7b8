"""Counting routes: DP, enumeration, partition inversion, and their
cross-checks.  The in-file brute force is the independent oracle."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from reflfact import (
    ConsistencyError,
    GroupElement,
    GroupParams,
    ResourceLimitError,
    ValidationError,
    cycle_type,
    graph_of_tuple,
    identity,
    is_connected,
    reflections,
)
from reflfact.counting import (
    CountKey,
    CountTable,
    class_sizes,
    clear_caches,
    connected_from_all,
    connected_totals,
    count_all,
    count_all_by_enum,
    count_connected_enum,
    count_connected_total_enum,
    count_refined,
)
from reflfact import _kernels_pure, counting
from reflfact._kernels_pure import enum_bucketed
from reflfact.indexing import GroupIndexer, class_count, class_key, class_representative

from conftest import (
    CONFIGS,
    MissingCountError,
    all_elements,
    all_from_connected,
    encode_reflections,
    fold_product,
    partition_connected,
    populate_connected_table,
)


def brute_counts(w: GroupElement, m: int):
    """Oracle: iterate every tuple in R^m; returns dicts keyed by m2."""
    p = w.params
    pool = reflections(p)
    total = {}
    conn = {}
    for tup in itertools.product(pool, repeat=m):
        if fold_product(tup, p) != w:
            continue
        m2 = sum(1 for ref in tup if ref.is_diagonal)
        total[m2] = total.get(m2, 0) + 1
        if is_connected(graph_of_tuple(tup, params=p)):
            conn[m2] = conn.get(m2, 0) + 1
    return total, conn


def test_count_all_examples():
    p = GroupParams(1, 1, 3)
    three_cycle = GroupElement(p, (2, 3, 1), (0, 0, 0))
    assert count_all(three_cycle, 2) == 3
    assert count_all(identity(p), 0) == 1
    assert count_all(three_cycle, 0) == 0
    p2 = GroupParams(1, 1, 2)
    assert count_all(identity(p2), 1) == 0


def test_count_refined_examples():
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    assert count_refined(w, 1, 1) == 4
    assert count_refined(identity(p), 0, 0) == 1
    assert count_refined(w, 0, 0) == 0
    # r == s means no diagonal reflections at all
    p22 = GroupParams(2, 2, 2)
    assert count_refined(identity(p22), 0, 2) == 0
    assert count_refined(identity(p22), 2, 1) == 0


def test_count_connected_examples():
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    assert count_connected_enum(w, 1, 1) == 4
    p3 = GroupParams(1, 1, 3)
    three_cycle = GroupElement(p3, (2, 3, 1), (0, 0, 0))
    assert count_connected_enum(three_cycle, 2, 0) == 3
    assert count_connected_enum(identity(p3), 0, 0) == 0
    assert count_connected_enum(identity(GroupParams(1, 1, 1)), 0, 0) == 1


def test_connected_from_all_examples():
    p3 = GroupParams(1, 1, 3)
    assert count_all(identity(p3), 4) == 27
    assert connected_from_all(identity(p3), 4) == 24
    p2 = GroupParams(1, 1, 2)
    assert connected_from_all(identity(p2), 2) == 1
    # single-cycle elements admit one partition, so nothing is subtracted
    three_cycle = GroupElement(p3, (2, 3, 1), (0, 0, 0))
    for m in range(5):
        assert connected_from_all(three_cycle, m) == count_all(three_cycle, m)


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3), (4, 2, 3)])
def test_block_recursion_matches_partition_sweep(r, s, n):
    # every class, at m <= 6; in G(6,2,3) and G(4,2,3) the mod-s filter
    # drops blocks, such as a cycle of color 1 on its own
    clear_caches()
    params = GroupParams(r, s, n)
    memo: dict = {}
    for key in _kernels_pure._classes(r, s, n)[0]:
        w = class_representative(params, key)
        for m in range(7):
            assert connected_from_all(w, m) == partition_connected(w, m, memo), (key, m)
    clear_caches()


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_connected_totals_read_the_inversion_row(r, s, n):
    # one row per call equals the counts one m at a time, on every class,
    # whether the row or the single counts fill the memo first
    params = GroupParams(r, s, n)
    elements = [class_representative(params, key) for key in _kernels_pure._classes(r, s, n)[0]]
    clear_caches()
    for w in elements:
        assert connected_totals(w, 6) == [connected_from_all(w, m) for m in range(7)]
    clear_caches()
    for w in elements:
        singles = [connected_from_all(w, m) for m in range(7)]
        assert [connected_totals(w, m) for m in range(7)] == [singles[: m + 1] for m in range(7)]
    clear_caches()


def test_connected_totals_returns_a_copy_of_the_memo():
    clear_caches()
    w = identity(GroupParams(2, 1, 3))
    row = connected_totals(w, 6)
    expected = list(row)
    row[4] += 1
    row.append(0)
    del row[0]
    assert connected_totals(w, 6) == expected
    assert [connected_from_all(w, m) for m in range(7)] == expected
    clear_caches()


def test_class_sizes_cover_the_group_in_class_graph_order():
    for r, s, n in CONFIGS:
        params = GroupParams(r, s, n)
        sizes = class_sizes(params, 2)
        assert list(sizes) == _kernels_pure._classes(r, s, n)[0]
        assert sum(sizes.values()) == params.group_order()
        by_class: dict = {}
        for w in all_elements(params):
            key = class_key(w.perm, w.exps, r)
            by_class[key] = by_class.get(key, 0) + 1
        assert by_class == sizes


def test_inversion_of_identities_at_genus_zero():
    # a connected factorization of the identity of S_n into 2n-2
    # transpositions is a genus-0 cover: (2n-2)! * n^(n-3) of them
    # (Hurwitz; Goulden-Jackson 1997), 22! * 12^9 for S_12, with no DP
    # on this side
    clear_caches()
    for n in range(1, 13):
        w = identity(GroupParams(1, 1, n))
        expected = Fraction(math.factorial(2 * n - 2)) * Fraction(n) ** (n - 3)
        assert connected_from_all(w, 2 * n - 2) == expected, n
    clear_caches()


def test_inversion_of_the_s9_identity_at_genus_one():
    # 18 transpositions: the genus-1 count, which the genus-1 Hurwitz
    # formula (Vakil 2001) gives as well
    clear_caches()
    assert connected_from_all(identity(GroupParams(1, 1, 9)), 18) == 28229781504707887104000
    clear_caches()


def test_inversion_builds_each_group_once(monkeypatch):
    # the identity of S_20 reads the totals of S_1..S_20, more groups than
    # the cache keeps: each is held for the whole call, not rebuilt
    clear_caches()
    built = []
    original = _kernels_pure.dp_total

    def recording(r, s, n, rounds, m):
        built.append(n)
        return original(r, s, n, rounds, m)

    monkeypatch.setattr(_kernels_pure, "dp_total", recording)
    w = identity(GroupParams(1, 1, 20))
    value = connected_from_all(w, 38)
    assert sorted(built) == list(range(1, 21))
    assert list(counting._cache)[-1] == (1, 1, 20)  # kept though read first
    assert connected_from_all(w, 38) == value and len(built) == 20  # a memo hit
    clear_caches()


def test_inversion_memo_is_bounded_by_the_rounds():
    # per group, no more counts than the class DP's rounds beside them:
    # one list per class, each no longer than the rounds
    clear_caches()
    connected_from_all(identity(GroupParams(1, 1, 9)), 18)
    assert sorted(triple[2] for triple in counting._cache) == list(range(1, 10))
    for triple, record in counting._cache.items():
        memo, rounds = record["connected_from_all"], record["dp_total"]
        assert len(rounds) == 19, triple
        assert len(memo) <= record["class_count"], triple
        assert all(len(counts) <= len(rounds) for counts in memo.values()), triple
    clear_caches()


def test_all_from_connected_roundtrip_examples():
    p2 = GroupParams(1, 1, 2)
    table = populate_connected_table(identity(p2), 2)
    assert all_from_connected(identity(p2), 2, table) == 1 == count_all(identity(p2), 2)
    assert all_from_connected(identity(p2), 0, table) == 1
    p3 = GroupParams(1, 1, 3)
    table3 = populate_connected_table(identity(p3), 4)
    assert all_from_connected(identity(p3), 4, table3) == 27


def test_all_from_connected_missing_entry():
    p2 = GroupParams(1, 1, 2)
    with pytest.raises(MissingCountError):
        all_from_connected(identity(p2), 2, CountTable())


EXHAUSTIVE_GROUPS = [(1, 1, 3), (2, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize("r,s,n", EXHAUSTIVE_GROUPS)
def test_dp_matches_brute_force(r, s, n):
    p = GroupParams(r, s, n)
    max_m = 3
    for w in all_elements(p):
        for m in range(max_m + 1):
            total, conn = brute_counts(w, m)
            assert count_all(w, m) == sum(total.values())
            for m2 in range(m + 1):
                assert count_refined(w, m - m2, m2) == total.get(m2, 0)
                assert count_connected_enum(w, m - m2, m2) == conn.get(m2, 0)


# groups with diagonal reflections and 1 < s < r, where the refined class
# DP carries m2 through both kinds of moves
DIAGONAL_GROUPS = [(6, 2, 2), (4, 2, 3)]
REFINED_MAX_M = {(2, 1, 2): 6, (6, 2, 2): 4, (4, 2, 3): 4}


@pytest.mark.parametrize("r,s,n", EXHAUSTIVE_GROUPS + DIAGONAL_GROUPS)
def test_refined_sums_and_enum_agree_exhaustive(r, s, n):
    p = GroupParams(r, s, n)
    max_m = REFINED_MAX_M.get((r, s, n), 5)
    refl = encode_reflections(p)
    indexer = GroupIndexer(p)
    for m in range(max_m + 1):
        enum_total, _ = enum_bucketed(r, s, n, refl, m)
        for w in all_elements(p):
            g = indexer.index_of(w)
            refined = [count_refined(w, m - m2, m2) for m2 in range(m + 1)]
            assert refined == [enum_total[m2][g] for m2 in range(m + 1)]
            assert sum(refined) == count_all(w, m)
            assert count_all_by_enum(w, m) == count_all(w, m)


def test_refined_sum_spot_checks_random():
    rng = random.Random(77)
    from conftest import random_element

    for r, s, n in ((6, 2, 2), (4, 4, 3), (3, 1, 3)):
        p = GroupParams(r, s, n)
        for _ in range(5):
            w = random_element(p, rng)
            m = rng.randrange(0, 4)
            refined_sum = sum(count_refined(w, m - m2, m2) for m2 in range(m + 1))
            assert refined_sum == count_all(w, m)


@pytest.mark.parametrize("r,s,n", EXHAUSTIVE_GROUPS)
def test_inversion_matches_enumeration_exhaustive(r, s, n):
    p = GroupParams(r, s, n)
    for w in all_elements(p):
        for m in range(6):
            assert connected_from_all(w, m) == count_connected_total_enum(w, m)


@pytest.mark.parametrize("r,s,n", EXHAUSTIVE_GROUPS)
def test_roundtrip_exhaustive(r, s, n):
    p = GroupParams(r, s, n)
    for w in all_elements(p):
        table = populate_connected_table(w, 5)
        for m in range(6):
            assert all_from_connected(w, m, table) == count_all(w, m)


def test_parity_vanishing_sn():
    for n in (2, 3, 4):
        p = GroupParams(1, 1, n)
        for w in all_elements(p):
            drop = n - cycle_type(w).ell
            for m in range(6):
                if (m - drop) % 2 != 0:
                    assert count_all(w, m) == 0


def test_resource_limits():
    p = GroupParams(6, 2, 4)
    w = identity(p)
    tiny = 10
    with pytest.raises(ResourceLimitError):
        count_all(w, 3, tiny)
    with pytest.raises(ResourceLimitError):
        count_connected_enum(w, 2, 1, tiny)


def test_connected_dp_budget_bounds_live_states():
    # S_4 has no diagonal reflections, so each state orbit holds one slot
    # per round.  Its 14 orbits are the multisets of blocks, each block a
    # cycle type of its size (1 + 2 + 3 + 5 types of size 1..4): rounds
    # 0..3 keep 14 * 4 = 56 cells.  55 is refused while the orbit graph
    # is searched (55 // 4 = 13 orbits), 56 runs.
    clear_caches()
    w = identity(GroupParams(1, 1, 4))
    with pytest.raises(ResourceLimitError, match=r"up to m=3 needs at least 56 cells \(limit 55\)$"):
        count_connected_total_enum(w, 3, max_dp_cells=55)
    assert "orbits" not in counting._cache[(1, 1, 4)]
    assert count_connected_total_enum(w, 3, max_dp_cells=56) == connected_from_all(w, 3)
    assert len(counting._cache[(1, 1, 4)]["orbits"][0]) == 14
    clear_caches()


def test_orbit_search_refused_by_the_class_count(monkeypatch):
    # every class key is a one-block orbit: S_10's 42 classes keep
    # 42 * 3 = 126 cells over rounds 0..2, over a budget of 100, so no
    # orbit search starts
    clear_caches()

    def orbit_graph_ran(*args):
        raise AssertionError(f"orbit_graph{args} ran")

    monkeypatch.setattr(_kernels_pure, "orbit_graph", orbit_graph_ran)
    w = identity(GroupParams(1, 1, 10))
    for query in (
        lambda: count_connected_total_enum(w, 2, 100),
        lambda: count_all_by_enum(w, 2, 100),
        lambda: class_sizes(w.params, 2, 100),
    ):
        with pytest.raises(ResourceLimitError, match="up to m=2 needs at least 126 cells"):
            query()
    clear_caches()


def test_count_refused_before_the_classes_are_counted(monkeypatch):
    # S_2000 has at least 2^61 classes, as 62 * 63 / 2 <= 2000: every count
    # at m = 1 keeps 2 slots per class or orbit, over the default budget
    # before class_count, a DP in O(n^2) steps, would run
    clear_caches()

    def class_count_ran(params):
        raise AssertionError(f"class_count({params}) ran")

    monkeypatch.setattr(counting, "class_count", class_count_ran)
    w = identity(GroupParams(1, 1, 2000))
    for query in (
        lambda: count_all(w, 1),
        lambda: count_refined(w, 1, 0),
        lambda: count_connected_total_enum(w, 1),
        lambda: connected_from_all(w, 1),
    ):
        with pytest.raises(ResourceLimitError, match=f"up to m=1 needs at least {2**62} cells"):
            query()
    assert (1, 1, 2000) not in counting._cache


def test_refused_extension_keeps_cached_rounds(monkeypatch):
    clear_caches()
    w = identity(GroupParams(1, 1, 4))
    assert count_connected_total_enum(w, 2) == connected_from_all(w, 2)
    kept = counting._cache[(1, 1, 4)]["dp_orbits"]
    given = []
    original = _kernels_pure.dp_orbits

    def recording(*args):
        # the class DP of connected_from_all runs dp_orbits too: record
        # only the connected DP's calls, on the group's orbit graph
        if args[0] is counting._cache[(1, 1, 4)]["orbits"]:
            given.append(args[1])
        return original(*args)

    monkeypatch.setattr(_kernels_pure, "dp_orbits", recording)
    # refused by the budget check before any round runs
    with pytest.raises(ResourceLimitError, match="connected DP over .* up to m=3 needs 56 cells"):
        count_connected_total_enum(w, 3, max_dp_cells=55)
    assert count_connected_total_enum(w, 2) == connected_from_all(w, 2)  # no kernel call
    assert given == []
    assert count_connected_total_enum(w, 3, max_dp_cells=56) == connected_from_all(w, 3)
    assert len(given) == 1 and given[0] is kept and len(kept) == 3
    clear_caches()


def test_orbit_mass_that_does_not_divide_raises(monkeypatch):
    # a one-block orbit mass is |class(w)| times w's count: the 3-cycles
    # of S_3 form a class of 2, so a mass of 1 is a bug, not a count
    clear_caches()
    w = GroupElement(GroupParams(1, 1, 3), (2, 3, 1), (0, 0, 0))

    def ones(graph, rounds, m):
        return [dict.fromkeys(graph[0], [1])] * (m + 1)

    monkeypatch.setattr(_kernels_pure, "dp_orbits", ones)
    with pytest.raises(ConsistencyError, match="orbit mass 1 not divisible by 2"):
        count_connected_total_enum(w, 2)
    with pytest.raises(ConsistencyError, match="not divisible by 2"):
        count_all_by_enum(w, 2)
    clear_caches()


def test_refined_budget_counts_kept_rounds():
    # the refined DP keeps rounds 0..3 with j+1 diagonal-count rows in round
    # j, 10 rows of classes in all; the total DP keeps 4
    clear_caches()
    p = GroupParams(2, 1, 3)
    w = identity(p)
    cells = class_count(p) * 10
    with pytest.raises(ResourceLimitError):
        count_refined(w, 2, 1, max_dp_cells=cells - 1)
    refined = [count_refined(w, 3 - m2, m2, max_dp_cells=cells) for m2 in range(4)]
    assert sum(refined) == count_all(w, 3, max_dp_cells=cells - 1)
    clear_caches()


def test_connected_dp_beyond_enumeration_reach():
    # 24^8 (about 1.1e11) tuples: out of enumeration's reach, default budgets
    p = GroupParams(6, 2, 3)
    for w in all_elements(p):
        assert count_connected_total_enum(w, 8) == connected_from_all(w, 8)


ROUND_QUERIES = {
    "dp_total": count_all,
    "dp_refined": lambda w, m: [count_refined(w, m - m2, m2) for m2 in range(m + 1)],
    "dp_orbits": count_connected_total_enum,
}


@pytest.mark.parametrize("kernel", sorted(ROUND_QUERIES))
def test_total_dp_extends_cached_rounds(monkeypatch, kernel):
    # connected_from_all and comparison_mismatches ask for m = 0, 1, 2, ...
    # in turn: each round of each kernel over the group is computed once,
    # not again for every larger m
    p = GroupParams(2, 1, 3)
    query = ROUND_QUERIES[kernel]
    elements = list(all_elements(p))
    expected = []
    for m in range(6):
        clear_caches()
        expected.append([query(w, m) for w in elements])
    clear_caches()
    # a class kernel takes and returns (graphs, rounds); dp_orbits the rounds
    classes = kernel != "dp_orbits"
    if classes:
        group, state = (p.r, p.s, p.n), (None, None)
    else:
        group, state = (_kernels_pure.orbit_graph(p.r, p.s, p.n, 10**7),), None
    full = getattr(_kernels_pure, kernel)(*group, state, 5)
    full = full[1] if classes else full
    built = []
    original = getattr(_kernels_pure, kernel)

    def recording(*args):
        result = original(*args)
        built.extend(result[1] if classes else result)
        return result

    monkeypatch.setattr(_kernels_pure, kernel, recording)
    for m in range(6):
        assert [query(w, m) for w in elements] == expected[m]
    distinct = list({id(table): table for table in built}.values())
    assert distinct == full
    clear_caches()


def test_refined_dp_keeps_one_row_without_diagonal_reflections():
    # S_4 has no diagonal reflections: the refined DP keeps the m2 = 0 slot
    # only, 5 classes * 41 rounds = 205 cells at m = 40, as the total DP
    clear_caches()
    p = GroupParams(1, 1, 4)
    w = identity(p)
    _, rounds = _kernels_pure.dp_refined(1, 1, 4, (None, None), 6)
    assert [len(table) for table in rounds] == [class_count(p)] * 7
    assert all(len(slots) == 1 for table in rounds for slots in table.values())
    assert rounds == _kernels_pure.dp_total(1, 1, 4, (None, None), 6)[1]
    cells = class_count(p) * 41
    with pytest.raises(ResourceLimitError):
        count_refined(w, 40, 0, max_dp_cells=cells - 1)
    assert count_refined(w, 40, 0, max_dp_cells=cells) == count_all(w, 40)
    assert count_refined(w, 38, 2) == count_refined(w, 0, 4) == 0
    for v in all_elements(GroupParams(1, 1, 3)):
        total, _ = brute_counts(v, 3)
        assert [count_refined(v, 3 - m2, m2) for m2 in range(4)] == [total.get(0, 0), 0, 0, 0]
    clear_caches()


@pytest.mark.parametrize("r,s,n,m", [(1, 1, 8, 10), (3, 3, 4, 6)])
def test_groups_without_diagonal_reflections_keep_one_class_table(r, s, n, m):
    # with r = s every refined count is a total at m2 = 0: count_refined
    # reads the dp_total rounds, and the record keeps no second, equal table
    clear_caches()
    p = GroupParams(r, s, n)
    elements = [class_representative(p, key) for key in _kernels_pure._classes(r, s, n)[0]]
    totals = {w: [count_all(w, j) for j in range(m + 1)] for w in elements}
    for w in elements:
        for j in range(m + 1):
            expected = [totals[w][j]] + [0] * j
            assert [count_refined(w, j - m2, m2) for m2 in range(j + 1)] == expected
    assert "dp_refined" not in counting._cache[p.triple]
    clear_caches()


def test_cache_evicts_the_least_recently_used_group():
    clear_caches()
    groups = [GroupParams(1, 1, n) for n in range(1, 9)]
    groups += [GroupParams(2, 1, n) for n in range(1, 6)]
    groups += [GroupParams(3, 1, n) for n in range(1, 5)]
    assert len(set(groups)) == 17
    for p in groups[:16]:
        count_all(identity(p), 1)
    count_all(identity(groups[0]), 1)  # the oldest becomes the most recent
    count_all(identity(groups[16]), 1)  # a 17th group drops groups[1]
    assert list(counting._cache) == [p.triple for p in groups[2:16] + [groups[0], groups[16]]]
    # two groups alternating, as S_n and G(r,s,n) do in comparison_mismatches
    for _ in range(3):
        count_all(identity(groups[9]), 1)
        connected_from_all(identity(GroupParams(1, 1, 6)), 1)
    assert list(counting._cache)[-2:] == [groups[9].triple, (1, 1, 6)]
    assert len(counting._cache) == 16
    clear_caches()


def test_a_hot_record_keeps_its_class_graph(monkeypatch):
    # a group's class graphs live in its record, so a record that hits keep
    # fresh also keeps its graphs: extending its rounds searches no graph,
    # while 16 other groups pass through the cache
    clear_caches()
    searches = []
    original = _kernels_pure._classes

    def recording(r, s, n):
        searches.append((r, s, n))
        return original(r, s, n)

    monkeypatch.setattr(_kernels_pure, "_classes", recording)
    hot = identity(GroupParams(2, 1, 4))
    others = [GroupParams(1, 1, n) for n in range(1, 9)]
    others += [GroupParams(r, s, n) for r, s in ((3, 1), (4, 2)) for n in range(1, 5)]
    assert len(others) == 16
    value = count_all(hot, 2)
    for p in others:
        count_all(identity(p), 1)
        assert count_all(hot, 2) == value
    count_all(hot, 3)
    assert searches.count((2, 1, 4)) == 1
    clear_caches()  # no graph survives anywhere else
    count_all(hot, 3)
    assert searches.count((2, 1, 4)) == 2
    clear_caches()


def test_concurrent_counts_agree_with_one_thread():
    # 4 threads count over 18 groups, more than the cache's 16, so records
    # are evicted and replaced while other threads read them; every kernel
    # runs, the orbit DP up to n = 4, where its graph builds in a millisecond
    ws = [identity(GroupParams(r, 1, n)) for r in (1, 2) for n in range(1, 10)]
    queries = [
        lambda w: count_all(w, 2),
        lambda w: connected_from_all(w, 2),
        *(lambda w, m2=m2: count_refined(w, 2 - m2, m2) for m2 in range(3)),
        lambda w: count_connected_total_enum(w, 2),
    ]
    jobs = [(w, query) for w in ws for query in queries[: 6 if w.params.n <= 4 else 5]]
    clear_caches()
    expected = [query(w) for w, query in jobs]
    picks = [random.Random(seed).choices(range(len(jobs)), k=800) for seed in range(4)]
    got = [[] for _ in picks]

    def run(i):
        for j in picks[i]:
            w, query = jobs[j]
            try:
                got[i].append(query(w))
            except Exception as exc:
                got[i].append(exc)

    interval = sys.getswitchinterval()
    clear_caches()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(picks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        clear_caches()
    wrong = [
        (jobs[j][0].params, j, value)
        for pick, values in zip(picks, got)
        for j, value in zip(pick, values)
        if value != expected[j]
    ]
    assert wrong == [] and list(map(len, got)) == [800] * 4


def test_warm_cache_never_bypasses_the_budget():
    clear_caches()
    p = GroupParams(2, 1, 3)
    w = identity(p)
    classes = class_count(p)
    total, inverted = count_all(w, 3), connected_from_all(w, 3)
    refined = [count_refined(w, 3 - m2, m2) for m2 in range(4)]
    connected = count_connected_total_enum(w, 3)
    split = [count_connected_enum(w, 3 - m2, m2) for m2 in range(4)]
    # the connected DP's rounds 0..3: state orbits times j+1 slots in round j
    dp_cells = len(counting._cache[p.triple]["orbits"][0]) * 10
    # every answer at m = 3 is cached now; each is still refused beyond
    # the cells it needs: 4 rounds of classes, 10 rows for refined counts,
    # and 10 slots of state orbits
    for cells, query in (
        (4 * classes, lambda budget: count_all(w, 3, budget)),
        (4 * classes, lambda budget: connected_from_all(w, 3, budget)),
        (10 * classes, lambda budget: count_refined(w, 2, 1, budget)),
        (dp_cells, lambda budget: count_connected_total_enum(w, 3, budget)),
        (dp_cells, lambda budget: count_connected_enum(w, 2, 1, budget)),
    ):
        with pytest.raises(ResourceLimitError):
            query(cells - 1)
        query(cells)
    assert count_all(w, 3) == total and connected_from_all(w, 3) == inverted
    assert [count_refined(w, 3 - m2, m2) for m2 in range(4)] == refined
    assert count_connected_total_enum(w, 3) == connected
    assert [count_connected_enum(w, 3 - m2, m2) for m2 in range(4)] == split
    # a cold cache refuses the same budget
    clear_caches()
    with pytest.raises(ResourceLimitError):
        count_connected_total_enum(w, 3, max_dp_cells=dp_cells - 1)
    assert count_connected_total_enum(w, 3, max_dp_cells=dp_cells) == connected
    clear_caches()


def test_negative_m_rejected():
    p = GroupParams(1, 1, 2)
    with pytest.raises(ValidationError):
        count_all(identity(p), -1)
    with pytest.raises(ValidationError):
        count_refined(identity(p), -1, 0)


def _factor_count_entry_points():
    """name -> a call of one entry point that reads the factor count v."""
    from reflfact.polyfit import elsv_normalize
    from reflfact.series import (
        EgfSeries,
        comparison_mismatches,
        comparison_refined,
        comparison_total,
        cyclic_count,
    )

    w = GroupElement(GroupParams(2, 1, 2), (2, 1), (0, 1))
    ctype = cycle_type(w)
    return {
        "count_all": lambda v: count_all(w, v),
        "count_refined m1": lambda v: count_refined(w, v, 0),
        "count_refined m2": lambda v: count_refined(w, 1, v),
        "connected_rows max_m": lambda v: counting.connected_rows(w, v),
        "connected_rows min_m": lambda v: counting.connected_rows(w, 2, min_m=v),
        "class_sizes": lambda v: class_sizes(w.params, v),
        "count_all_by_enum": lambda v: count_all_by_enum(w, v),
        "count_connected_enum m1": lambda v: count_connected_enum(w, v, 0),
        "count_connected_enum m2": lambda v: count_connected_enum(w, 1, v),
        "count_connected_total_enum": lambda v: count_connected_total_enum(w, v),
        "connected_from_all": lambda v: connected_from_all(w, v),
        "connected_totals": lambda v: connected_totals(w, v),
        "comparison_refined m1": lambda v: comparison_refined(w, v, 0),
        "comparison_refined m2": lambda v: comparison_refined(w, 1, v),
        "comparison_total": lambda v: comparison_total(w, v),
        "comparison_mismatches": lambda v: comparison_mismatches(w.params, v),
        "cyclic_count": lambda v: cyclic_count(3, 0, v),
        "EgfSeries order": lambda v: EgfSeries(v, (Fraction(1),) * 2),
        "elsv_normalize": lambda v: elsv_normalize(4, v, ctype, "derived", w.params),
        "CountKey m1": lambda v: CountKey(w, v, None, False),
        "CountKey m1 of a split": lambda v: CountKey(w, v, 0, True),
        "CountKey m2": lambda v: CountKey(w, 1, v, True),
        "Options max_dp_cells": lambda v: count_all(w, 2, max_dp_cells=v),
        "CountTable.insert": lambda v: CountTable().insert(CountKey(w, 1, None, False), v, "dp"),
    }


@pytest.mark.parametrize("value", [True, 2.0, -1], ids=repr)
@pytest.mark.parametrize("entry", sorted(_factor_count_entry_points()))
def test_factor_counts_are_read_by_one_rule(entry, value):
    # a bool or a float is not read as the int it equals, and a negative
    # count is refused, with the one message of `json_count`
    says = "nonnegative" if value == -1 else "expected an integer"
    with pytest.raises(ValidationError, match=says):
        _factor_count_entry_points()[entry](value)
    clear_caches()


def _budget_entry_points():
    """name -> (an entry point that counts, its arguments before the budget)."""
    from reflfact import polyfit, series

    w = GroupElement(GroupParams(2, 1, 2), (2, 1), (0, 1))
    return {
        "count_all": (count_all, (w, 2)),
        "count_refined": (count_refined, (w, 1, 1)),
        "connected_rows": (counting.connected_rows, (w, 2)),
        "class_sizes": (class_sizes, (w.params, 2)),
        "count_all_by_enum": (count_all_by_enum, (w, 2)),
        "count_connected_enum": (count_connected_enum, (w, 1, 1)),
        "count_connected_total_enum": (count_connected_total_enum, (w, 2)),
        "connected_totals": (connected_totals, (w, 2)),
        "connected_from_all": (connected_from_all, (w, 2)),
        "sn_connected_series": (series.sn_connected_series, (w, 2)),
        "comparison_refined": (series.comparison_refined, (w, 1, 1)),
        "comparison_total": (series.comparison_total, (w, 2)),
        "connected_series": (series.connected_series, (w, 2)),
        "comparison_mismatches": (series.comparison_mismatches, (w.params, 2)),
        "collect_samples": (polyfit.collect_samples, (2, 1, 0, 1, True, (2, 3))),
        "normalization_verdict": (polyfit.normalization_verdict, (0, 1, 2, 1, (2, 3))),
    }


@pytest.mark.parametrize("entry", sorted(_budget_entry_points()))
def test_the_budget_is_read_by_every_entry_point(entry):
    # max_dp_cells is a plain int: None is the default budget, a bool or a
    # float is not read as the int it equals, a negative budget is refused
    # with the one message of `json_count`, and one too small is a
    # resource refusal that names it
    call, args = _budget_entry_points()[entry]
    assert call(*args, max_dp_cells=None) == call(*args)
    for value, says in (
        (True, "^expected an integer, got True$"),
        (1.5, "^expected an integer, got 1.5$"),
        (2.0, "^expected an integer, got 2.0$"),
        (-1, "^max_dp_cells must be nonnegative, got -1$"),
    ):
        with pytest.raises(ValidationError, match=says):
            call(*args, max_dp_cells=value)
    with pytest.raises(ResourceLimitError, match=r"cells \(limit 1\)$"):
        call(*args, max_dp_cells=1)
    clear_caches()


def test_count_table_insert_refuses_what_a_load_would(tmp_path):
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    key = CountKey(w, 1, 1, True)
    table = CountTable()
    for value, provenance in ((True, "dp"), (3.0, "dp"), (-1, "dp"), (3, 1), (3, None)):
        with pytest.raises(ValidationError):
            table.insert(key, value, provenance)
    with pytest.raises(ValidationError, match="count key"):
        table.insert(key.to_json(), 3, "dp")
    assert len(table) == 0
    # whatever the library inserts, a save writes and a load reads back
    big = 7**6000  # past the interpreter's int/str digit limit
    table.insert(key, 4, "enumeration")
    table.insert(key, 4, "closed-form")
    table.insert(CountKey(w, 2, None, True), 4, "inversion")
    table.insert(CountKey(identity(p), 0, None, False), 1, "dp")
    table.insert(CountKey(identity(p), 9000, 0, False), big, "dp")
    path = tmp_path / "cache.jsonl"
    table.save(path)
    assert CountTable.load(path).entries == table.entries
    path.write_text("\n" + path.read_text().replace("\n", "\n\n"))  # blank lines are skipped
    assert CountTable.load(path).entries == table.entries


def test_pure_fallback_beyond_int64():
    # counts overflow 64 bits; the class DP counts in Python ints and the
    # values must match a raw transfer computation
    clear_caches()
    p = GroupParams(2, 1, 2)
    from reflfact import multiply, reflections

    refl_elements = [ref.to_element() for ref in reflections(p)]
    vec = {identity(p): 1}
    m = 80
    for _ in range(m):
        nxt = {}
        for g, c in vec.items():
            for ref in refl_elements:
                key = multiply(ref, g)
                nxt[key] = nxt.get(key, 0) + c
        vec = nxt
    expected = vec[identity(p)]
    assert expected > 2**63
    assert count_all(identity(p), m) == expected
    clear_caches()


def test_count_table_concurrent_inserts():
    import threading

    p = GroupParams(1, 1, 2)
    table = CountTable()
    keys = [CountKey(identity(p), m1=j, m2=None, connected=False) for j in range(50)]

    def writer():
        for j, key in enumerate(keys):
            table.insert(key, j, "dp")

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(table) == 50
    assert all(table.get(key) == j for j, key in enumerate(keys))


def test_count_table_conflicts_and_provenance():
    p = GroupParams(1, 1, 2)
    key = CountKey(identity(p), m1=2, m2=None, connected=False)
    table = CountTable()
    table.insert(key, 1, "dp")
    table.insert(key, 1, "enumeration")  # equal values merge provenances
    assert table.provenances(key) == {"dp", "enumeration"}
    from reflfact.errors import ConsistencyError

    with pytest.raises(ConsistencyError):
        table.insert(key, 2, "inversion")


def test_count_table_file_roundtrip(tmp_path):
    p = GroupParams(2, 1, 2)
    w = GroupElement(p, (2, 1), (0, 1))
    table = CountTable()
    table.insert(CountKey(w, 1, 1, False), 4, "dp")
    table.insert(CountKey(w, 1, 1, True), 4, "enumeration")
    # a count of more digits than Python converts to and from str by
    # default, under that default, which save and load leave as it is
    table.insert(CountKey(w, 9, 0, False), 10**5000, "dp")
    path = tmp_path / "cache.jsonl"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        table.save(path)
        loaded = CountTable.load(path)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert f'"value": "1{"0" * 5000}"' in path.read_text()
    assert loaded.entries.keys() == table.entries.keys()
    assert all(loaded.get(k) == table.get(k) for k in table.entries)
    # byte-stable modulo record order: a second save is identical
    second = tmp_path / "cache2.jsonl"
    loaded.save(second)
    assert path.read_text() == second.read_text()


def test_count_table_load_refuses_coerced_key_fields(tmp_path):
    p = GroupParams(2, 1, 2)
    key = CountKey(GroupElement(p, (2, 1), (0, 1)), 1, 1, False).to_json()
    path = tmp_path / "cache.jsonl"
    for field, value in (
        ("r", 2.0), ("n", "2"), ("m1", True), ("m2", 1.0), ("perm", [2, 1.0]),
        ("exps", "01"), ("connected", "false"), ("connected", 0),
    ):
        record = {"key": {**key, field: value}, "value": "4", "provenance": "dp"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="bad record"):
            CountTable.load(path)
    # the value is read only as the string of ASCII digits that a save
    # writes, and the provenance only as a string (the 3-cycle of S_3 at
    # m = 2, whose count is 3)
    key = CountKey(GroupElement(GroupParams(1, 1, 3), (2, 3, 1), (0, 0, 0)), 2, None, False)
    good = {"key": key.to_json(), "value": "3", "provenance": "dp"}
    path.write_text(json.dumps(good) + "\n")
    assert CountTable.load(path).get(key) == 3
    for field, value in (
        ("value", 7.9), ("value", True), ("value", 3), ("value", "1_0"), ("value", " 4 "),
        ("value", "+6"), ("value", "\u0663"), ("value", ""), ("provenance", 7),
    ):
        path.write_text(json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ValidationError, match="bad record"):
            CountTable.load(path)


def test_count_table_load_refuses_keys_that_name_no_count(tmp_path):
    # a key is read by the rule of `GroupElement.from_json`, and its
    # factor counts must be nonnegative
    good = {
        "key": CountKey(identity(GroupParams(2, 2, 2)), 0, None, False).to_json(),
        "value": "1", "provenance": "dp",
    }
    path = tmp_path / "cache.jsonl"
    for field, value in (
        ("perm", [1, 1]), ("r", 0), ("exps", [0, 1]), ("m1", -1), ("m2", -1),
    ):
        bad = {**good, "key": {**good["key"], field: value}}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError, match=r"cache\.jsonl:2: bad record"):
            CountTable.load(path)


def test_count_table_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    p = GroupParams(1, 1, 2)
    path = tmp_path / "cache.jsonl"
    previous = CountTable()
    previous.insert(CountKey(identity(p), 0, None, False), 1, "dp")
    previous.save(path)
    before = path.read_bytes()
    table = CountTable()
    table.insert(CountKey(identity(p), 1, None, False), 0, "dp")

    # the append writes part of its bytes, then fails
    real_write = os.write

    def write_fails(fd, data):
        real_write(fd, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", write_fails)
    with pytest.raises(ValidationError, match="disk full"):
        table.save(path)
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cache.jsonl", "cache.jsonl.lock"]


def test_count_table_saves_merge(tmp_path):
    p = GroupParams(1, 1, 2)
    path = tmp_path / "cache.jsonl"
    first, second = CountTable(), CountTable()  # both loaded before either saves
    first.insert(CountKey(identity(p), 0, None, False), 1, "dp")
    second.insert(CountKey(identity(p), 2, None, False), 1, "dp")
    first.save(path)
    second.save(path)
    assert len(CountTable.load(path)) == 2


def test_count_table_save_of_nothing_new_leaves_file(tmp_path):
    p = GroupParams(1, 1, 2)
    path = tmp_path / "cache.jsonl"
    table = CountTable()
    table.insert(CountKey(identity(p), 0, None, False), 1, "dp")
    table.insert(CountKey(identity(p), 2, None, False), 1, "dp")
    table.save(path)
    before = os.stat(path)
    for same in (table, CountTable.load(path), CountTable()):
        same.save(path)  # no record is new: the file is not opened to write
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    CountTable().save(tmp_path / "none.jsonl")
    assert not (tmp_path / "none.jsonl").exists()


_SAVE_KEYS = """
import sys
from reflfact import GroupParams, identity
from reflfact.counting import CountKey, CountTable
path, first = sys.argv[1], int(sys.argv[2])
w = identity(GroupParams(1, 1, 2))
sys.stdin.readline()  # both start together
for m in range(first, first + 20):
    table = CountTable()
    table.insert(CountKey(w, m, None, False), 1 - m % 2, "dp")
    table.save(path)
"""


def test_count_table_concurrent_saves_keep_every_key(tmp_path):
    path = tmp_path / "cache.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    procs = [
        subprocess.Popen([sys.executable, "-c", _SAVE_KEYS, str(path), str(first)],
                         env=env, stdin=subprocess.PIPE)
        for first in (0, 20)
    ]
    for proc in procs:
        proc.stdin.write(b"go\n")
        proc.stdin.flush()
    for proc in procs:
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    table = CountTable.load(path)
    assert sorted(key.m1 for key in table.entries) == list(range(40))
    assert all(table.get(key) == 1 - key.m1 % 2 for key in table.entries)


def test_count_table_save_conflict_keeps_file(tmp_path):
    from reflfact.errors import CacheConflictError

    p = GroupParams(1, 1, 2)
    key = CountKey(identity(p), 2, None, False)
    path = tmp_path / "cache.jsonl"
    first, second = CountTable(), CountTable()
    first.insert(key, 1, "dp")
    second.insert(key, 2, "dp")
    first.save(path)
    before = path.read_text()
    with pytest.raises(CacheConflictError):
        second.save(path)
    assert path.read_text() == before


def test_count_table_load_conflict(tmp_path):
    from reflfact.errors import CacheConflictError

    p = GroupParams(1, 1, 2)
    key = CountKey(identity(p), 2, None, False)
    path = tmp_path / "bad.jsonl"
    good = CountTable()
    good.insert(key, 1, "dp")
    good.save(path)
    import json

    record = {
        "key": key.to_json(),
        "value": "7",
        "provenance": "enumeration",
        "tool_version": "0",
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(CacheConflictError):
        CountTable.load(path)
