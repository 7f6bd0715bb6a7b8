"""Exact factorization counts: total, refined by diagonal-factor count,
and connected.

Three independent routes are implemented and cross-checked in tests:

* dynamic programming over colored cycle types (total and refined
  counts): every count is constant on G(r,1,n)-conjugacy classes, so
  the tables hold one cell per class and round, not per element;
* a DP over G(r,1,n)-orbits of (product, component partition) states,
  which merges the vertices each swap factor joins (the trusted oracle
  for connected counts): an orbit's mass, divided by the size of the
  element's class, is the count of one state;
* inversion of the disjoint-block product formula, which expresses
  total counts as binomial convolutions of connected counts over the
  blocks of the element: the exponential formula, recursing on the block
  that holds the first cycle of the colored cycle type, takes each
  block as a sub-multiset of the cycles and reads the class DP's totals
  only, so it never runs the orbit DP, lists set partitions or builds a
  group element.

Both connected routes answer a whole row: `connected_rows` gives the
orbit DP's counts by m2 for each m up to max_m, m+1 of them in every
group (zeros past m2 = 0 without diagonal reflections), and
`connected_totals` the inversion's counts for m = 0..max_m, so no
caller loops over m asking for one count at a time (each such call
reads every smaller group the element's blocks need, which the cache
may have dropped).

Both DPs are `_kernels_pure.dp_orbits` over a graph of colored cycle
types, built by the cut-and-join rules, never from group elements; every
kept round maps a key to its counts by m2.  One cache, `_cache`, holds
all group state: class and orbit graphs, every DP's rounds, which a
count at a larger m extends, and the inversion's memo.  It keeps every
group until a kernel run would leave it over that count's budget in
round cells (not graphs or the memo), and is then emptied first.  Only
`_keep` writes it, and it inserts or empties; nothing a record holds
changes once stored: a longer list replaces a shorter one, and of two
threads that both search a group's class graphs, equal ones, the last
write wins.  A count reads only what `_rounds` handed it, so threads may
count at once under the GIL with no lock.  Every entry point given an
element reads its class key from the element, `GroupElement.class_key`,
which an element computes once and a whole-group sweep fills, so a
cached count is a key lookup.

Every entry point that counts takes `max_dp_cells`, the cells a DP's
kept rounds may hold, which `_rounds` reads by `groups.cell_budget`
(None for DEFAULT_MAX_DP_CELLS, re-exported here) before it reads the
cache; every count is checked against it before it is answered or a
round runs, and one that a lower bound on the classes already puts
over it before the classes are counted.  The persistent count table,
`CountKey` and `CountTable`, lives in `reflfact.counttable`, which
loads no kernel; both are re-exported here.  All counts are
arbitrary-precision integers.
"""

from __future__ import annotations

import math
from itertools import chain, groupby, product

from . import _kernels_pure
from .counttable import CountKey, CountTable  # noqa: F401  (re-exported)
from .errors import ConsistencyError, ResourceLimitError
from .groups import DEFAULT_MAX_DP_CELLS  # noqa: F401  (re-exported)
from .groups import GroupElement, GroupParams, cell_budget, json_count
from .indexing import class_count


# GroupParams.triple -> {name: what that function keeps of the group}: the
# rounds of each `_kernels_pure` kernel, their cells under "cells", and
# connected_from_all's memo (a class key's connected counts for m = 0, 1,
# ..., no more than the rounds of dp_total beside it); the class kernels'
# graphs under "classes", the connected DP's under "orbits"; the class count.
_cache: dict = {}


def clear_caches() -> None:
    _cache.clear()


def _refusal(kernel: str, params: GroupParams, m: int, cells, limit: int):
    what = {"dp_orbits": "connected DP", "dp_refined": "refined class DP"}.get(kernel, "class DP")
    return ResourceLimitError(
        f"{what} over {params} up to m={m} needs {cells} cells (limit {limit})"
    )


def _keep(triple, record: dict, limit: int) -> None:
    """Store `record` under `triple`, first emptying the cache if the other
    records' round cells and its own would exceed `limit`."""
    # summed over a copy, which no other thread's insert can change midway
    held = sum(sum(other["cells"].values()) for t, other in list(_cache.items()) if t != triple)
    if held + sum(record["cells"].values()) > limit:
        _cache.clear()
    _cache[triple] = record


def _record(params: GroupParams, m: int, kernel: str, slots: int, limit: int) -> dict:
    """A new cache record for the group, for `_rounds` to store: its class
    count, and no kernel's rounds or cells yet.  Refused before the classes
    are counted when a lower bound on them (and so on the orbits) needs
    more cells than `limit`, at `slots` cells a class."""
    # G(r,s,n) has 2^(k-1) classes or more, for the largest k with
    # k(k+1)/2 <= n: each subset of {2..k}, padded with 1s, is a cycle type
    least = 2 ** ((math.isqrt(8 * params.n + 1) - 1) // 2 - 1) * slots
    if least > limit:
        raise _refusal(kernel, params, m, f"at least {least}", limit)
    return {"class_count": class_count(params), "cells": {}}


def _orbit_count(record: dict, params: GroupParams, m: int, slots: int, limit: int) -> int:
    """The number of state orbits in the group's orbit graph, which is
    built on first use: every class key is a one-block orbit, so the
    search is refused before it starts when the classes alone need more
    cells than `limit`, at `slots` cells an orbit, and as soon as the
    orbits found do."""
    if "orbits" not in record:
        most, classes = limit // slots, record["class_count"]
        graph = classes <= most and _kernels_pure.orbit_graph(*params.triple, most)
        if not graph:
            least = max(classes, most + 1) * slots
            raise _refusal("dp_orbits", params, m, f"at least {least}", limit)
        record["orbits"] = graph
    return len(record["orbits"][0])


def _rounds(
    params: GroupParams, m: int, kernel: str, max_dp_cells: int | None, with_record: bool = False
):
    """Rounds 0..m (or more) of the `_kernels_pure` kernel named `kernel`
    over the group, kept under that name in the group's record, and first
    the record if `with_record`.  The caller reads only what it is handed,
    which no thread changes.  The cells the kernel keeps up to m are
    checked against the budget, read by `cell_budget`, before the rounds
    are read or run: per class, or per state orbit for the connected DP,
    one slot in each of rounds 0..m, or j+1 in round j for the refined and
    connected DPs in a group with diagonal reflections.  So a hit costs one
    cache get and one budget compare, and writes nothing.  A new record is
    refused by `_record`'s lower bound, and the orbit graph is built by
    `_orbit_count`.  A kernel run replaces rounds that stop short of m by a
    longer list (a slower thread may put a shorter one back), keeps it with
    the class graphs it searched and its cells in the record, and hands
    the record to `_keep`; a refused count runs no round and stores
    nothing.  The kernel is looked up at call time, so a rebinding is seen."""
    limit = cell_budget(max_dp_cells)
    slots = m + 1
    if kernel != "dp_total" and params.q > 1:
        slots = slots * (m + 2) // 2
    record = _cache.get(params.triple) or _record(params, m, kernel, slots, limit)
    if kernel == "dp_orbits":
        units = _orbit_count(record, params, m, slots, limit)
    else:
        units = record["class_count"]
    if units * slots > limit:
        raise _refusal(kernel, params, m, units * slots, limit)
    rounds = record.get(kernel)
    if rounds is None or len(rounds) <= m:
        run = getattr(_kernels_pure, kernel)
        if kernel == "dp_orbits":
            rounds = record[kernel] = run(record["orbits"], rounds, m)
        else:
            graphs, rounds = run(*params.triple, (record.get("classes"), rounds), m)
            record["classes"], record[kernel] = graphs, rounds
        record["cells"] = {**record["cells"], kernel: units * slots}
        _keep(params.triple, record, limit)
    return (record, rounds) if with_record else rounds


def count_all(w: GroupElement, m: int, max_dp_cells: int | None = None) -> int:
    """Number of m-tuples of reflections multiplying to w."""
    json_count(m, "m")
    return _rounds(w.params, m, "dp_total", max_dp_cells)[m][w.class_key][0]


def count_refined(w: GroupElement, m1: int, m2: int, max_dp_cells: int | None = None) -> int:
    """Number of (m1+m2)-tuples multiplying to w with exactly m2 diagonal
    factors (and m1 swap factors)."""
    m1, m2 = json_count(m1, "m1"), json_count(m2, "m2")
    # a group without diagonal reflections has the m2 = 0 slot only: the totals
    kernel = "dp_refined" if w.params.q > 1 else "dp_total"
    slots = _rounds(w.params, m1 + m2, kernel, max_dp_cells)[m1 + m2][w.class_key]
    return slots[m2] if m2 < len(slots) else 0


def _class_size(params: GroupParams, key) -> int:
    """|class| in G(r,1,n) of the colored cycle type key:
    r^n * n! / prod over (L, c) of m_(L,c)! * (r*L)^m_(L,c), where
    m_(L,c) is the number of cycles of length L and color c."""
    r = params.r
    size = r**params.n * math.factorial(params.n)
    for (length, _), cycles in groupby(key):
        mult = len(list(cycles))
        size //= math.factorial(mult) * (r * length) ** mult
    return size


def _per_element(masses, size: int, key, m: int) -> list[int]:
    """Orbit masses at m, each divided by `size`, the number of elements
    in the class key; the division is exact, and a remainder would
    indicate a bug and raises."""
    counts = []
    for mass in masses:
        count, remainder = divmod(mass, size)
        if remainder:
            raise ConsistencyError(
                f"count of {key} at m={m}: orbit mass {mass} not divisible by {size}"
            )
        counts.append(count)
    return counts


def connected_rows(
    w: GroupElement, max_m: int, max_dp_cells: int | None = None, min_m: int = 0
) -> list[list[int]]:
    """The rows for m = min_m..max_m of the connected counts of w by m2,
    by the orbit DP: the one-block orbit's mass divided by |class(w)|.
    Row m has m+1 entries, m2 = 0..m, in every group."""
    min_m, max_m = json_count(min_m, "min_m"), json_count(max_m, "max_m")
    key = w.class_key
    size = _class_size(w.params, key)
    rounds = _rounds(w.params, max_m, "dp_orbits", max_dp_cells)
    rows = [
        _per_element(rounds[m].get((key,), []), size, key, m) for m in range(min_m, max_m + 1)
    ]
    for m, row in enumerate(rows, min_m):
        row += [0] * (m + 1 - len(row))  # no orbit, or no diagonal reflections
    return rows


def class_sizes(params: GroupParams, max_m: int, max_dp_cells: int | None = None) -> dict:
    """{class key: |class|} over the G(r,1,n)-conjugacy classes of
    G(r,s,n) = params, in the class graph's key order, for a sweep that
    reads `connected_rows` up to max_m.  The orbit DP's budget is checked
    first, and its rounds run: its graph has an orbit for every class, so
    the budget bounds the class search too.  Class sizes that do not sum
    to the group order raise ConsistencyError."""
    record, _ = _rounds(params, json_count(max_m, "max_m"), "dp_orbits", max_dp_cells, True)
    if "classes" not in record:  # searched as a class kernel would, and kept for it
        record["classes"] = _kernels_pure._reversed_classes(*params.triple)
    sizes = {key: _class_size(params, key) for key in record["classes"][0][0]}
    if sum(sizes.values()) != params.group_order():
        raise ConsistencyError(
            f"the {len(sizes)} classes of {params} hold {sum(sizes.values())} elements, "
            f"not {params.group_order()}"
        )
    return sizes


def count_all_by_enum(w: GroupElement, m: int, max_dp_cells: int | None = None) -> int:
    """count_all recomputed by the orbit DP (cross-check path): the
    masses of every orbit whose merged blocks equal w's colored cycle
    type, over |class(w)|."""
    json_count(m, "m")
    key = w.class_key
    masses = _rounds(w.params, m, "dp_orbits", max_dp_cells)[m]
    merged = {orbit: tuple(sorted(chain.from_iterable(orbit))) for orbit in masses}
    mass = sum(sum(counts) for orbit, counts in masses.items() if merged[orbit] == key)
    (count,) = _per_element((mass,), _class_size(w.params, key), key, m)
    return count


def count_connected_enum(
    w: GroupElement, m1: int, m2: int, max_dp_cells: int | None = None
) -> int:
    """Connected refined count by the orbit DP: the trusted oracle."""
    m1, m2 = json_count(m1, "m1"), json_count(m2, "m2")
    return connected_rows(w, m1 + m2, max_dp_cells, min_m=m1 + m2)[0][m2]


def count_connected_total_enum(
    w: GroupElement, m: int, max_dp_cells: int | None = None
) -> int:
    """Connected count over all diagonal/swap splits, by the orbit DP."""
    json_count(m, "m")
    (row,) = connected_rows(w, m, max_dp_cells, min_m=m)
    return sum(row)


def _binomial_convolve(a: list[int], b: list[int], m: int) -> list[int]:
    """c[j] = sum over j1 of C(j, j1) a[j1] b[j-j1], truncated at m."""
    return [
        sum(math.comb(j, j1) * a[j1] * b[j - j1] for j1 in range(j + 1) if a[j1] and b[j - j1])
        for j in range(m + 1)
    ]


def connected_totals(w: GroupElement, max_m: int, max_dp_cells: int | None = None) -> list[int]:
    """The connected counts of w for m = 0..max_m, by inverting the block
    product formula (see `connected_from_all`): one row, read with one
    inversion, as `connected_rows` reads the orbit DP's.  A copy of the
    memo's counts, so the caller may change it."""
    return _invert(w, max_m, max_dp_cells)[: max_m + 1]


def connected_from_all(w: GroupElement, m: int, max_dp_cells: int | None = None) -> int:
    """Connected count obtained by inverting the block product formula:
    subtract, from the total count, every way of splitting the element into
    two or more independent blocks with connected factorizations.  The
    connected count is a class function too, so each group's memo maps a
    colored cycle type to its counts for m = 0, 1, ..., which a call at a
    larger m replaces with a longer list; a caller that needs several m
    asks `connected_totals` once."""
    return _invert(w, m, max_dp_cells)[m]


def _invert(w: GroupElement, m: int, max_dp_cells: int | None) -> list[int]:
    """The inversion memo's list of w's connected counts for m' = 0, 1,
    ..., m or beyond; callers must not change it.

    The recursion on the block B that holds the first cycle c1 of a class
    key (the exponential formula): the connected counts of the key are its
    class-DP totals minus, over every proper B, ways(B) times the binomial
    convolution of B's connected counts with the totals of the complement.
    B is c1 plus a sub-multiset of the other cycles, chosen in prod over
    cycle types of C(mult, k) ways, and a B whose colors do not sum to 0
    mod s has no factorization of its own.  Every group G(r,s,k) the
    recursion reads, w's own first, is held from its first use to the end
    of the call as the record and rounds `_rounds` handed over, so its
    budget is checked once and neither the cache nor another thread can
    drop or shorten it midway; a budget that empties the cache drops the memo."""
    json_count(m, "m")
    p = w.params
    held: dict = {}

    def group(n: int) -> tuple:
        """G(r,s,n)'s inversion memo and dp_total rounds 0..m (or more)."""
        if n not in held:
            sub = p if n == p.n else GroupParams(p.r, p.s, n)  # p is checked already
            record, rounds = _rounds(sub, m, "dp_total", max_dp_cells, True)
            held[n] = record.setdefault("connected_from_all", {}), rounds
        return held[n]

    def connected(key, n: int) -> list[int]:
        memo, rounds = group(n)
        counts = memo.get(key, [])
        start = len(counts)
        if start > m:
            return counts
        new = [rounds[j][key][0] for j in range(start, m + 1)]
        types = [(cycle, len(list(same))) for cycle, same in groupby(key[1:])]
        for taken in product(*(range(mult + 1) for _, mult in types)):
            block, rest, ways = key[:1], (), 1
            for (cycle, mult), k in zip(types, taken):
                block += (cycle,) * k
                rest += (cycle,) * (mult - k)
                ways *= math.comb(mult, k)
            if not rest or sum(color for _, color in block) % p.s:
                continue  # B is the whole key, or has no factorization
            size = sum(length for length, _ in block)
            inner = connected(block, size)
            rest_rounds = group(n - size)[1]
            outer = [rest_rounds[j][rest][0] for j in range(m + 1)]
            joined = _binomial_convolve(inner, outer, m)
            for j in range(start, m + 1):
                new[j - start] -= ways * joined[j]
        counts = memo[key] = counts + new
        return counts

    return connected(w.class_key, p.n)
