"""Indexing round trips; class representatives invert class keys; the
cut-and-join class and orbit graphs equal the ones group multiplication
gives; the class DP covers every class, its class graph holds for every
element of each class, and its rounds summed over the group count every
tuple once; the element-level connected DP over component partitions
(the orbit DP's reference) agrees bit for bit with tuple enumeration."""

import math

import pytest

from reflfact.groups import GroupParams, multiply, permutation_cycles, reflections
from reflfact._kernels_pure import _classes, dp_refined, dp_total, enum_bucketed, orbit_graph
from reflfact.counting import _class_size
from reflfact.indexing import (
    GroupIndexer,
    class_count,
    class_key,
    class_representative,
    perm_rank,
    perm_unrank,
)

from conftest import (
    CONFIGS,
    all_elements,
    dense_tables,
    dp_components,
    element_search,
    encode_reflections,
)

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


def _by_key(keys, moves):
    """A graph as a map from key to its sorted moves (target key, swaps,
    diagonals), free of the order the search found the keys in."""
    return {
        key: sorted((keys[o], swaps, diags) for o, swaps, diags in row)
        for key, row in zip(keys, moves)
    }


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3), (4, 2, 3), (2, 1, 4), (3, 1, 3)])
def test_cut_and_join_graphs_match_element_search(r, s, n):
    # the counting rules on cycle types against real group multiplication
    refl = encode_reflections(GroupParams(r, s, n))
    classes, moves = _classes(r, s, n)
    keys = [(key,) for key in classes]
    expected = element_search(r, s, n, refl, (0,) * n)
    assert keys[0] == expected[0][0] and _by_key(keys, moves) == _by_key(*expected)
    keys, moves = orbit_graph(r, s, n, math.inf)
    expected = element_search(r, s, n, refl, tuple(range(n)))
    assert keys[0] == expected[0][0] and _by_key(keys, moves) == _by_key(*expected)


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3), (2, 1, 4)])
def test_class_key_is_the_colored_cycle_type(r, s, n):
    for w in all_elements(GroupParams(r, s, n)):
        cycles = permutation_cycles(w)
        expected = sorted((len(c), sum(w.exps[v - 1] for v in c) % r) for c in cycles)
        assert class_key(w.perm, w.exps, r) == tuple(expected)


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_class_representative_inverts_class_key(r, s, n):
    params = GroupParams(r, s, n)
    for key in _classes(r, s, n)[0]:
        rep = class_representative(params, key)  # validated on construction
        assert rep.params == params and class_key(rep.perm, rep.exps, r) == key


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3)])
def test_class_dp_covers_every_colored_cycle_type(r, s, n):
    params = GroupParams(r, s, n)
    elements = list(all_elements(params))
    keys = {class_key(w.perm, w.exps, r) for w in elements}
    assert len(keys) == class_count(params)
    assert set(dp_total(r, s, n, None, 0)[0]) == keys
    # the class graph's moves hold for every element of each class, not
    # only for the representative the search found
    classes, moves = _classes(r, s, n)
    index = {key: c for c, key in enumerate(classes)}
    refl = [(t.to_element(), t.is_diagonal) for t in reflections(params)]
    for g in elements:
        counts: dict = {}
        for t, is_diag in refl:
            tg = multiply(t, g)
            counts.setdefault(index[class_key(tg.perm, tg.exps, r)], [0, 0])[is_diag] += 1
        row = moves[index[class_key(g.perm, g.exps, r)]]
        assert counts == {c2: [swaps, diags] for c2, swaps, diags in row}, g


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3), (2, 1, 6)])
def test_class_dp_rounds_sum_over_the_group(r, s, n):
    # every j-tuple has one product: summed over the group, round j counts
    # |R|^j tuples, and C(j, m2) * swaps^(j-m2) * diagonals^m2 of them hold
    # m2 diagonal factors (G(2,1,6) is out of enumeration's reach)
    params = GroupParams(r, s, n)
    refl = encode_reflections(params)
    diagonals = sum(is_diag for is_diag, _, _, _ in refl)
    swaps = len(refl) - diagonals
    size = {key: _class_size(params, key) for key in _classes(r, s, n)[0]}
    totals, refined = dp_total(r, s, n, None, 6), dp_refined(r, s, n, None, 6)
    for j in range(7):
        assert sum(size[key] * slots[0] for key, slots in totals[j].items()) == len(refl) ** j
        for m2 in range(j + 1):
            held = sum(
                size[key] * slots[m2] for key, slots in refined[j].items() if m2 < len(slots)
            )
            assert held == math.comb(j, m2) * swaps ** (j - m2) * diagonals**m2, (j, m2)


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_connected_dp_matches_enumeration(r, s, n):
    params = GroupParams(r, s, n)
    refl = encode_reflections(params)
    rounds = dp_components(r, s, n, refl, 3)
    for m in range(4):
        assert dense_tables(params, rounds[m], m) == enum_bucketed(r, s, n, refl, m)


def test_enum_m0_slice_convention():
    refl = encode_reflections(GroupParams(2, 1, 2))
    total, conn = enum_bucketed(2, 1, 2, refl, 0)
    assert total[0][0] == 1 and sum(map(sum, conn)) == 0
