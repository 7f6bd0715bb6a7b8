"""Differential tests over randomly drawn small groups: the connected DP
equals tuple enumeration, and on every element each count agrees across
its independent routes (class DP, connected DP, partition inversion and
the comparison formula) and with itself whether the cache is cold or
warm."""

from hypothesis import given, settings
from hypothesis import strategies as st

from reflfact.counting import (
    clear_caches,
    connected_from_all,
    count_all,
    count_all_by_enum,
    count_connected_enum,
    count_connected_total_enum,
    count_refined,
)
from reflfact.groups import GroupParams
from reflfact.kernels import encode_reflections
from reflfact.series import comparison_refined
from reflfact._kernels_pure import dp_components, enum_bucketed

from conftest import all_elements, dense_tables

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
    states = dp_components(r, s, n, refl, m, 10**7)[m]
    assert dense_tables(params, states, m) == enum_bucketed(r, s, n, refl, m)
    for w in all_elements(params):
        assert count_all(w, m) == count_all_by_enum(w, m)
        assert connected_from_all(w, m) == count_connected_total_enum(w, m)
        for m2 in range(m + 1):
            assert comparison_refined(w, m - m2, m2) == count_connected_enum(w, m - m2, m2)


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
