"""Indexing round trips; enumeration backend parity: pure and compiled
kernels must agree bit for bit, and slice-partitioned enumeration must
sum to the full run.  The DP has only the pure class kernels."""

import random

import pytest

from reflfact.groups import GroupParams
from reflfact._kernels_pure import dp_total
from reflfact.indexing import GroupIndexer, class_count, class_key, perm_rank, perm_unrank
from reflfact.kernels import available_backends, encode_reflections, get_backend

from conftest import all_elements

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

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(), reason="compiled kernels not built"
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


@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_class_dp_covers_every_colored_cycle_type(r, s, n):
    params = GroupParams(r, s, n)
    keys = {class_key(w.perm, w.exps, r) for w in all_elements(params)}
    assert len(keys) == class_count(params)
    assert set(dp_total(r, s, n, encode_reflections(params), 0)[0]) == keys


@needs_compiled
@pytest.mark.parametrize("r,s,n", CONFIGS)
def test_backend_parity(r, s, n):
    pure = get_backend("pure")
    compiled = get_backend("compiled")
    params = GroupParams(r, s, n)
    refl = encode_reflections(params)
    for m in range(4):
        assert pure.enum_bucketed(r, s, n, refl, m, 0, len(refl)) == tuple(
            compiled.enum_bucketed(r, s, n, refl, m, 0, len(refl))
        )


@needs_compiled
def test_enum_slices_sum_to_full():
    rng = random.Random(5)
    pure = get_backend("pure")
    compiled = get_backend("compiled")
    for r, s, n in ((2, 1, 2), (6, 2, 2), (2, 1, 3)):
        params = GroupParams(r, s, n)
        refl = encode_reflections(params)
        m = 3
        full_total, full_conn = pure.enum_bucketed(r, s, n, refl, m, 0, len(refl))
        cut = rng.randrange(1, len(refl))
        for backend in (pure, compiled):
            t1, c1 = backend.enum_bucketed(r, s, n, refl, m, 0, cut)
            t2, c2 = backend.enum_bucketed(r, s, n, refl, m, cut, len(refl))
            total = [[a + b for a, b in zip(x, y)] for x, y in zip(t1, t2)]
            conn = [[a + b for a, b in zip(x, y)] for x, y in zip(c1, c2)]
            assert total == full_total
            assert conn == full_conn


def test_enum_m0_slice_convention():
    pure = get_backend("pure")
    refl = encode_reflections(GroupParams(2, 1, 2))
    total, conn = pure.enum_bucketed(2, 1, 2, refl, 0, 0, len(refl))
    assert total[0][0] == 1 and sum(map(sum, conn)) == 0
    total2, _ = pure.enum_bucketed(2, 1, 2, refl, 0, 2, len(refl))
    assert sum(map(sum, total2)) == 0  # empty tuple belongs to the first slice
