"""Differential tests over randomly drawn groups: the element-level
connected DP equals tuple enumeration, the orbit DP equals the
element-level DP, and on every element each count agrees across its
independent routes (class DP, orbit DP, partition inversion and the
comparison formula) and with itself whether the cache is cold or
warm; the same on representatives of groups whose orbit graphs only the
cut-and-join search reaches in a test."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflfact.counting import (
    clear_caches,
    connected_from_all,
    connected_rows,
    count_all,
    count_all_by_enum,
    count_connected_enum,
    count_connected_total_enum,
    count_refined,
)
from reflfact.groups import GroupElement, GroupParams
from reflfact.indexing import GroupIndexer, class_key
from reflfact._kernels_pure import enum_bucketed
from reflfact.series import comparison_refined

from conftest import CONFIGS, all_elements, dense_tables, dp_components, encode_reflections

SMALL_GROUPS = [
    (r, s, n)
    for r in range(1, 7)
    for s in range(1, r + 1)
    if r % s == 0
    for n in range(1, 6)
    if GroupParams(r, s, n).group_order() <= 200
]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 4))
def test_routes_agree(group, m):
    r, s, n = group
    params = GroupParams(r, s, n)
    refl = encode_reflections(params)
    states = dp_components(r, s, n, refl, m)[m]
    assert dense_tables(params, states, m) == enum_bucketed(r, s, n, refl, m)
    for w in all_elements(params):
        assert count_all(w, m) == count_all_by_enum(w, m)
        assert connected_from_all(w, m) == count_connected_total_enum(w, m)
        for m2 in range(m + 1):
            assert comparison_refined(w, m - m2, m2) == count_connected_enum(w, m - m2, m2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 5))
def test_orbit_dp_matches_element_dp(group, m):
    # per element and per m2: the one-block orbit's mass over |class(w)|
    # is the element-level DP's one-block state, and the orbits of w's
    # class hold its states under every partition
    r, s, n = group
    params = GroupParams(r, s, n)
    total, conn = dense_tables(params, dp_components(r, s, n, encode_reflections(params), m)[m], m)
    indexer = GroupIndexer(params)
    for w in all_elements(params):
        g = indexer.index_of(w)
        assert [count_connected_enum(w, m - m2, m2) for m2 in range(m + 1)] == [
            row[g] for row in conn
        ]
        assert count_all_by_enum(w, m) == sum(row[g] for row in total)


LARGER_GROUPS = [(6, 2, 3), (2, 1, 5), (3, 1, 4)]  # 648, 3840 and 1944 elements


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(LARGER_GROUPS), st.integers(0, 6), st.integers(0, 10**6))
def test_orbit_dp_on_larger_groups(group, m, index):
    # beyond the element-level DP's reach in a test: the orbit DP against
    # the comparison formula per m2, and against inversion in total
    params = GroupParams(*group)
    indexer = GroupIndexer(params)
    w = indexer.element_at(index % indexer.size)
    for m2 in range(m + 1):
        assert count_connected_enum(w, m - m2, m2) == comparison_refined(w, m - m2, m2)
    assert count_connected_total_enum(w, m) == connected_from_all(w, m)


# (group, cycle lengths, color of the first cycle or the exponent vector):
# the identity, a long cycle, a transposition and an (n-2)-cycle of
# G(4,1,6) (10146 orbits) and G(6,2,5), five cycle types of G(2,1,8) and
# its identity, and an element each of S_8 and G(3,3,4), which have no
# diagonal reflections
REPRESENTATIVES = [
    *(((4, 1, 6), lengths, color) for lengths, color in (
        ((1,) * 6, 0), ((6,), 1), ((2, 1, 1, 1, 1), 3), ((4, 1, 1), 2),
    )),
    *(((6, 2, 5), lengths, color) for lengths, color in (
        ((1,) * 5, 0), ((5,), 2), ((2, 1, 1, 1), 4), ((3, 1, 1), 0),
    )),
    *(((2, 1, 8), lengths, color) for lengths, color in (
        ((8,), 1), ((7, 1), 0), ((6, 2), 1), ((4, 4), 0), ((3, 3, 2), 1), ((1,) * 8, 0),
    )),
    ((1, 1, 8), (3, 2, 1, 1, 1), 0),
    ((3, 3, 4), (2, 2), (1, 2, 0, 0)),
]


@pytest.mark.parametrize("group,lengths,color", REPRESENTATIVES)
def test_orbit_dp_on_representatives_of_larger_groups(group, lengths, color):
    # for m <= 8, the orbit DP against inversion in total and against the
    # comparison formula per m2
    perm, start = [], 1
    for length in lengths:
        perm += [*range(start + 1, start + length), start]
        start += length
    exps = color if isinstance(color, tuple) else (color,) + (0,) * (len(perm) - 1)
    w = GroupElement(GroupParams(*group), tuple(perm), exps)
    for m, row in enumerate(connected_rows(w, 8)):
        assert sum(row) == connected_from_all(w, m)
        assert row == [comparison_refined(w, m - m2, m2) for m2 in range(m + 1)]


SWEEP_LIMIT = 2**15  # elements checked per group


@pytest.mark.parametrize(
    "group",
    sorted({
        *CONFIGS,
        *(group for group, _, _ in REPRESENTATIVES),
        (1, 1, 5), (2, 1, 6), (3, 1, 4), (6, 2, 3), (2, 2, 4), (3, 3, 3), (6, 3, 3),
    }),
    ids=lambda group: "G(%d,%d,%d)" % group,
)
def test_the_sweep_fills_every_class_key_by_the_one_rule(group):
    # the sweep colors each cycle's vertex set once and keys each tuple of
    # cycle colors once per permutation: every key it fills (read from the
    # slot, which no lazy read has filled) is the one computed from scratch.
    # G(4,1,6), G(6,2,5) and G(2,1,8) hold more than SWEEP_LIMIT elements
    # and are checked on the first SWEEP_LIMIT, whole permutations' blocks
    params = GroupParams(*group)
    swept = 0
    for w in itertools.islice(GroupIndexer(params), SWEEP_LIMIT):
        assert w._key == class_key(w.perm, w.exps, params.r), w
        swept += 1
    assert swept == min(params.group_order(), SWEEP_LIMIT)


def _answers(w, m):
    return (
        count_all(w, m),
        [count_refined(w, m - m2, m2) for m2 in range(m + 1)],
        connected_from_all(w, m),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 4), st.integers(0, 2))
def test_warm_answers_equal_cold(group, m, ahead):
    # cold: each element on an empty cache; warm: after a sweep of the
    # whole group at m + ahead, and again after an unrelated group
    elements = list(all_elements(GroupParams(*group)))
    cold = []
    for w in elements:
        clear_caches()
        cold.append(_answers(w, m))
    clear_caches()
    for w in elements:
        _answers(w, m + ahead)
    assert [_answers(w, m) for w in elements] == cold
    _answers(next(all_elements(GroupParams(2, 1, 3))), m)
    assert [_answers(w, m) for w in reversed(elements)] == cold[::-1]
    clear_caches()
