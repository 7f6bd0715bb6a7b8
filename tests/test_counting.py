"""Counting routes: DP, enumeration, partition inversion, and their
cross-checks.  The in-file brute force is the independent oracle."""

import itertools
import random

import pytest

from reflfact import (
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
    Options,
    all_from_connected,
    clear_caches,
    connected_from_all,
    count_all,
    count_all_by_enum,
    count_connected_enum,
    count_connected_total_enum,
    count_refined,
    populate_connected_table,
)
from reflfact import _kernels_pure, counting
from reflfact._kernels_pure import enum_bucketed
from reflfact.indexing import GroupIndexer, class_count
from reflfact.kernels import encode_reflections

from conftest import all_elements, fold_product


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


def test_all_from_connected_roundtrip_examples():
    p2 = GroupParams(1, 1, 2)
    table = populate_connected_table(identity(p2), 2)
    assert all_from_connected(identity(p2), 2, table) == 1 == count_all(identity(p2), 2)
    assert all_from_connected(identity(p2), 0, table) == 1
    p3 = GroupParams(1, 1, 3)
    table3 = populate_connected_table(identity(p3), 4)
    assert all_from_connected(identity(p3), 4, table3) == 27


def test_all_from_connected_missing_entry():
    from reflfact.errors import MissingCountError

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
    tiny = Options(max_dp_cells=10)
    with pytest.raises(ResourceLimitError):
        count_all(w, 3, tiny)
    with pytest.raises(ResourceLimitError):
        count_connected_enum(w, 2, 1, tiny)


def test_connected_dp_budget_bounds_live_states():
    # S_4 has no diagonal reflections, so each live state holds one slot:
    # rounds 0..3 keep 1 + 6 + 17 + 30 = 54 cells
    clear_caches()
    w = identity(GroupParams(1, 1, 4))
    with pytest.raises(ResourceLimitError):
        count_connected_total_enum(w, 3, Options(max_dp_cells=53))
    assert count_connected_total_enum(w, 3, Options(max_dp_cells=54)) == connected_from_all(w, 3)
    clear_caches()


def test_refused_extension_keeps_cached_rounds(monkeypatch):
    clear_caches()
    w = identity(GroupParams(1, 1, 4))
    assert count_connected_total_enum(w, 2) == connected_from_all(w, 2)
    given = []
    original = _kernels_pure.dp_components

    def recording(*args):
        given.append(args[-1])
        return original(*args)

    monkeypatch.setattr(_kernels_pure, "dp_components", recording)
    with pytest.raises(ResourceLimitError):
        count_connected_total_enum(w, 3, Options(max_dp_cells=53))
    assert count_connected_total_enum(w, 2) == connected_from_all(w, 2)  # no kernel call
    assert count_connected_total_enum(w, 3, Options(max_dp_cells=54)) == connected_from_all(w, 3)
    assert len(given) == 2 and given[1] is given[0] and len(given[0]) == 3
    clear_caches()


def test_refined_budget_counts_kept_rounds():
    # the refined DP keeps rounds 0..3 with j+1 diagonal-count rows in round
    # j, 10 rows of classes in all; the total DP keeps 4
    clear_caches()
    p = GroupParams(2, 1, 3)
    w = identity(p)
    cells = class_count(p) * 10
    with pytest.raises(ResourceLimitError):
        count_refined(w, 2, 1, Options(max_dp_cells=cells - 1))
    refined = [count_refined(w, 3 - m2, m2, Options(max_dp_cells=cells)) for m2 in range(4)]
    assert sum(refined) == count_all(w, 3, Options(max_dp_cells=cells - 1))
    clear_caches()


def test_connected_dp_beyond_enumeration_reach():
    # 24^8 (about 1.1e11) tuples: out of enumeration's reach, default budgets
    p = GroupParams(6, 2, 3)
    for w in all_elements(p):
        assert count_connected_total_enum(w, 8) == connected_from_all(w, 8)


ROUND_QUERIES = {
    "dp_total": count_all,
    "dp_refined": lambda w, m: [count_refined(w, m - m2, m2) for m2 in range(m + 1)],
    "dp_components": count_connected_total_enum,
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
    budget = (10**7,) if kernel == "dp_components" else ()
    full = getattr(_kernels_pure, kernel)(p.r, p.s, p.n, encode_reflections(p), 5, *budget)
    built = []
    original = getattr(_kernels_pure, kernel)

    def recording(*args):
        rounds = original(*args)
        built.extend(rounds)
        return rounds

    monkeypatch.setattr(_kernels_pure, kernel, recording)
    for m in range(6):
        assert [query(w, m) for w in elements] == expected[m]
    distinct = list({id(table): table for table in built}.values())
    assert distinct == full
    clear_caches()


def test_refined_dp_keeps_one_row_without_diagonal_reflections():
    # S_4 has no diagonal reflections: the refined DP keeps the m2 = 0 row
    # only, 5 classes * 41 rounds = 205 cells at m = 40, as the total DP
    clear_caches()
    p = GroupParams(1, 1, 4)
    w = identity(p)
    refl = encode_reflections(p)
    rounds = _kernels_pure.dp_refined(1, 1, 4, refl, 6)
    assert [len(rows) for rows in rounds] == [1] * 7
    assert [rows[0] for rows in rounds] == _kernels_pure.dp_total(1, 1, 4, refl, 6)
    cells = class_count(p) * 41
    with pytest.raises(ResourceLimitError):
        count_refined(w, 40, 0, Options(max_dp_cells=cells - 1))
    assert count_refined(w, 40, 0, Options(max_dp_cells=cells)) == count_all(w, 40)
    assert count_refined(w, 38, 2) == count_refined(w, 0, 4) == 0
    for v in all_elements(GroupParams(1, 1, 3)):
        total, _ = brute_counts(v, 3)
        assert [count_refined(v, 3 - m2, m2) for m2 in range(4)] == [total.get(0, 0), 0, 0, 0]
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


def test_warm_cache_never_bypasses_the_budget():
    clear_caches()
    p = GroupParams(2, 1, 3)
    w = identity(p)
    classes = class_count(p)
    total, inverted = count_all(w, 3), connected_from_all(w, 3)
    refined = [count_refined(w, 3 - m2, m2) for m2 in range(4)]
    # every answer at m = 3 is cached now; each is still refused beyond
    # the cells it needs: 4 rounds of classes, and 10 rows for refined counts
    for cells, query in (
        (4 * classes, lambda opts: count_all(w, 3, opts)),
        (4 * classes, lambda opts: connected_from_all(w, 3, opts)),
        (10 * classes, lambda opts: count_refined(w, 2, 1, opts)),
    ):
        with pytest.raises(ResourceLimitError):
            query(Options(max_dp_cells=cells - 1))
        query(Options(max_dp_cells=cells))
    assert count_all(w, 3) == total and connected_from_all(w, 3) == inverted
    assert [count_refined(w, 3 - m2, m2) for m2 in range(4)] == refined
    clear_caches()


def test_negative_m_rejected():
    p = GroupParams(1, 1, 2)
    with pytest.raises(ValidationError):
        count_all(identity(p), -1)
    with pytest.raises(ValidationError):
        count_refined(identity(p), -1, 0)


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
    keys = [CountKey.of(identity(p), m1=j, m2=None, connected=False) for j in range(50)]

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
    key = CountKey.of(identity(p), m1=2, m2=None, connected=False)
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
    table.insert(CountKey.of(w, 1, 1, False), 4, "dp")
    table.insert(CountKey.of(w, 1, 1, True), 4, "enumeration")
    path = tmp_path / "cache.jsonl"
    table.save(path)
    loaded = CountTable.load(path)
    assert loaded.entries.keys() == table.entries.keys()
    assert all(loaded.get(k) == table.get(k) for k in table.entries)
    # byte-stable modulo record order: a second save is identical
    second = tmp_path / "cache2.jsonl"
    loaded.save(second)
    assert path.read_text() == second.read_text()


def test_count_table_failed_save_keeps_previous_file(tmp_path):
    p = GroupParams(1, 1, 2)
    path = tmp_path / "cache.jsonl"
    previous = CountTable()
    previous.insert(CountKey.of(identity(p), 0, None, False), 1, "dp")
    previous.save(path)
    before = path.read_text()
    table = CountTable()
    table.insert(CountKey.of(identity(p), 1, None, False), 0, "dp")
    # the second record's provenance is not JSON: the save fails after
    # the first record was written
    table.entries[CountKey.of(identity(p), 2, None, False)] = (1, {object()})
    with pytest.raises(TypeError):
        table.save(path)
    assert path.read_text() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cache.jsonl", "cache.jsonl.lock"]


def test_count_table_saves_merge(tmp_path):
    p = GroupParams(1, 1, 2)
    path = tmp_path / "cache.jsonl"
    first, second = CountTable(), CountTable()  # both loaded before either saves
    first.insert(CountKey.of(identity(p), 0, None, False), 1, "dp")
    second.insert(CountKey.of(identity(p), 2, None, False), 1, "dp")
    first.save(path)
    second.save(path)
    assert len(CountTable.load(path)) == 2


def test_count_table_save_conflict_keeps_file(tmp_path):
    from reflfact.errors import CacheConflictError

    p = GroupParams(1, 1, 2)
    key = CountKey.of(identity(p), 2, None, False)
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
    key = CountKey.of(identity(p), 2, None, False)
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
