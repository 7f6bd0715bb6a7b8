"""Indexing round trips; the class DP covers every class; the connected
DP over component partitions agrees bit for bit with tuple enumeration."""

import pytest

from reflfact.groups import GroupParams, permutation_cycles
from reflfact._kernels_pure import dp_components, dp_total, enum_bucketed
from reflfact.indexing import GroupIndexer, class_count, class_key, perm_rank, perm_unrank
from reflfact.kernels import encode_reflections

from conftest import all_elements, dense_tables

CONFIGS = [
    (1, 1, 1),
    (6, 2, 1),
    (1, 1, 3),
    (2, 1, 2),
    (2, 2, 2),
    (3, 1, 2),
    (6, 2, 2),
    (2, 1, 3),
    (4, 4, 3),
]

def test_perm_rank_roundtrip():
    import itertools

    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        ranks = [perm_rank(list(p)) for p in perms]
        assert sorted(ranks) == list(range(len(perms)))
        for p, rank in zip(perms, ranks):
            assert perm_unrank(rank, n) == list(p)


def test_group_indexer_bijection():
    for r, s, n in CONFIGS:
        params = GroupParams(r, s, n)
        indexer = GroupIndexer(params)
        assert indexer.size == params.group_order()
        seen = set()
        for w in all_elements(params):
            idx = indexer.index_of(w)
            assert 0 <= idx < indexer.size
            assert indexer.element_at(idx) == w
            seen.add(idx)
        assert len(seen) == indexer.size
        assert indexer.element_at(0).is_identity()


@pytest.mark.parametrize(
    "r,s,n", CONFIGS + [(6, 2, 3), (4, 2, 3), (2, 2, 4), (2, 1, 1), (4, 2, 1)]
)
def test_iteration_is_index_order(r, s, n):
    # the streamed sweep yields exactly the elements element_at gives, in order
    indexer = GroupIndexer(GroupParams(r, s, n))
    assert list(indexer) == [indexer.element_at(i) for i in range(indexer.size)]


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3), (2, 1, 4)])
def test_class_key_is_the_colored_cycle_type(r, s, n):
    for w in all_elements(GroupParams(r, s, n)):
        cycles = permutation_cycles(w)
        expected = sorted((len(c), sum(w.exps[v - 1] for v in c) % r) for c in cycles)
        assert class_key(w.perm, w.exps, r) == tuple(expected)


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_class_dp_covers_every_colored_cycle_type(r, s, n):
    params = GroupParams(r, s, n)
    keys = {class_key(w.perm, w.exps, r) for w in all_elements(params)}
    assert len(keys) == class_count(params)
    assert set(dp_total(r, s, n, encode_reflections(params), 0)[0]) == keys


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_connected_dp_matches_enumeration(r, s, n):
    params = GroupParams(r, s, n)
    refl = encode_reflections(params)
    rounds = dp_components(r, s, n, refl, 3, 10**6)
    for m in range(4):
        assert dense_tables(params, rounds[m], m) == enum_bucketed(r, s, n, refl, m)


def test_enum_m0_slice_convention():
    refl = encode_reflections(GroupParams(2, 1, 2))
    total, conn = enum_bucketed(2, 1, 2, refl, 0)
    assert total[0][0] == 1 and sum(map(sum, conn)) == 0
