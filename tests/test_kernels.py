"""Indexing round trips; class representatives invert class keys; the
cut-and-join class and orbit graphs equal the ones group multiplication
gives; the class DP covers every class, its class graph holds for every
element of each class, and its rounds summed over the group count every
tuple once; the element-level connected DP over component partitions
(the orbit DP's reference) agrees bit for bit with tuple enumeration."""

import math

import pytest

from reflfact import ValidationError
from reflfact.groups import (
    GroupElement,
    GroupParams,
    identity,
    multiply,
    permutation_cycles,
    reflections,
)
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


def test_group_indexer_refuses_other_groups_and_indices_out_of_range():
    indexer = GroupIndexer(GroupParams(2, 1, 3))
    for params in (GroupParams(4, 1, 3), GroupParams(2, 1, 5), GroupParams(2, 2, 3)):
        with pytest.raises(ValidationError, match="is not in the indexed group"):
            indexer.index_of(identity(params))
        with pytest.raises(ValidationError, match="is not in the indexed group"):
            indexer.index_of(GroupIndexer(params).element_at(23))
    for index in (-1, 48, 10**6, True, 1.0):
        with pytest.raises(ValidationError, match=f"^index {index!r} out of range 0..47$"):
            indexer.element_at(index)
    assert indexer.index_of(indexer.element_at(47)) == 47


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_sweep_yields_checked_elements_of_int_tuples(r, s, n):
    # the sweep pairs parts it checked once: each pair is what the full
    # check builds
    params = GroupParams(r, s, n)
    count = 0
    for w in GroupIndexer(params):
        assert w == GroupElement(w.params, w.perm, w.exps)
        assert w.params is params
        assert type(w.perm) is tuple and type(w.exps) is tuple
        assert {type(x) for x in w.perm + w.exps} == {int}
        count += 1
    assert count == params.group_order()


@pytest.mark.parametrize(
    "bad,message",
    [((0, 0, 2), "exponents must lie in"), ((0, 0, -1), "exponents must lie in"),
     ((0, 0, 1), "exponent sum 1 not divisible by s=2"), ((0, 0, 1.0), "exponents must lie in")],
)
def test_sweep_checks_every_exponent_vector_before_its_first_element(monkeypatch, bad, message):
    indexer = GroupIndexer(GroupParams(2, 2, 3))
    unrank = indexer._exps_unrank
    last = indexer.exp_block - 1  # the last vector of the block is the bad one
    monkeypatch.setattr(indexer, "_exps_unrank", lambda i: bad if i == last else unrank(i))
    sweep = iter(indexer)
    with pytest.raises(ValidationError, match=message):
        next(sweep)


def test_sweep_checks_every_permutation(monkeypatch):
    import types

    import reflfact.indexing

    def permutations(ident):
        yield ident
        yield (1, 1, 3)

    fake = types.SimpleNamespace(permutations=permutations)
    monkeypatch.setattr(reflfact.indexing, "itertools", fake)
    indexer = GroupIndexer(GroupParams(2, 1, 3))
    sweep = iter(indexer)
    assert [next(sweep) for _ in range(indexer.exp_block)] == [
        indexer.element_at(i) for i in range(indexer.exp_block)
    ]
    with pytest.raises(ValidationError, match=r"^perm is not a bijection of 1..3: \(1, 1, 3\)$"):
        next(sweep)


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


@pytest.mark.parametrize(
    "r,s,n,keys,moves",
    [
        (
            1, 1, 4,
            [
                ((1, 0), (1, 0), (1, 0), (1, 0)),
                ((1, 0), (1, 0), (2, 0)),
                ((2, 0), (2, 0)),
                ((1, 0), (3, 0)),
                ((4, 0),),
            ],
            [
                [(1, 6, 0)],
                [(2, 1, 0), (3, 4, 0), (0, 1, 0)],
                [(4, 4, 0), (1, 2, 0)],
                [(4, 3, 0), (1, 3, 0)],
                [(3, 4, 0), (2, 2, 0)],
            ],
        ),
        (
            2, 1, 2,
            [((1, 0), (1, 0)), ((2, 0),), ((1, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 1),)],
            [
                [(1, 2, 0), (2, 0, 2)],
                [(0, 1, 0), (3, 1, 0), (4, 0, 2)],
                [(4, 2, 0), (3, 0, 1), (0, 0, 1)],
                [(1, 2, 0), (2, 0, 2)],
                [(2, 2, 0), (1, 0, 2)],
            ],
        ),
    ],
)
def test_class_graph_keeps_its_order(r, s, n, keys, moves):
    # class_sizes and verify-comparison's mismatches follow this order: the
    # classes as the search finds them, each row's targets as first reached
    assert _classes(r, s, n) == (keys, moves)


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


@pytest.mark.parametrize("triple,key", [
    ((1, 1, 3), [(0, 0)] * 3),  # three empty cycles would lay out the identity
    ((1, 1, 5), [(-1, 0), (4, 0)]),  # a negative length would lay out a 1-cycle
    ((2, 1, 3), "ab"),
    ((2, 1, 3), [(1, 0, 0), (2, 0)]),
    ((2, 1, 3), [3]),
    ((2, 1, 3), [(True, 0), (2, 0)]),
    ((2, 1, 3), [(10**12, 0)]),  # refused before a cycle of that length is laid out
    ((2, 1, 3), [(1, 0), (2, 2)]),
    ((2, 2, 3), [(1, 0), (2, 1)]),
])
def test_class_representative_refuses_a_key_naming_no_class(triple, key):
    with pytest.raises(ValidationError):
        class_representative(GroupParams(*triple), key)


@pytest.mark.parametrize("r,s,n", CONFIGS + [(6, 2, 3)])
def test_class_dp_covers_every_colored_cycle_type(r, s, n):
    params = GroupParams(r, s, n)
    elements = list(all_elements(params))
    keys = {class_key(w.perm, w.exps, r) for w in elements}
    assert len(keys) == class_count(params)
    assert set(dp_total(r, s, n, (None, None), 0)[1][0]) == keys
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
    totals = dp_total(r, s, n, (None, None), 6)[1]
    refined = dp_refined(r, s, n, (None, None), 6)[1]
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
