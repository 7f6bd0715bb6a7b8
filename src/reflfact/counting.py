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
orbit DP's counts by m2 for each m up to max_m, and `connected_totals`
the inversion's counts for m = 0..max_m, so no caller loops over m
asking for one count at a time (each such call reads every smaller
group the element's blocks need, which the cache may have dropped).

Both DPs are `_kernels_pure.dp_orbits` over a graph of colored cycle
types, which `_kernels_pure` builds by the cut-and-join rules and never
from group elements; every kept round maps a key to its counts by m2.
One cache holds, for the 16 groups used most recently, the rounds 0..m
of every DP, which a count at a larger m extends from the last one, the
orbit graph, and the inversion's memo, which holds no more counts than
the class DP's rounds beside it.  `Options.max_dp_cells` bounds
the cells a DP's kept rounds hold; every count checks it before it reads
the cache or runs a round, and one that a lower bound on the classes
already puts over it before the classes are counted.  The persistent
count table, `CountKey` and `CountTable`, lives in
`reflfact.counttable`, which loads no kernel; both are re-exported here.
All counts are arbitrary-precision integers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import chain, groupby, product

from . import _kernels_pure
from .counttable import CountKey, CountTable  # noqa: F401  (re-exported)
from .errors import ConsistencyError, ResourceLimitError
from .groups import GroupElement, GroupParams, _Frozen, _set, json_count
from .indexing import class_count, class_key

DEFAULT_MAX_DP_CELLS = 5 * 10**7


class Options(_Frozen):
    """Execution knobs shared by the counting entry points: a count whose
    kernel would keep more than max_dp_cells cells is refused instead of
    attempted.  max_dp_cells must be a nonnegative int."""

    __slots__ = _fields = ("max_dp_cells",)

    def __init__(self, max_dp_cells: int = DEFAULT_MAX_DP_CELLS):
        _set(self, "max_dp_cells", json_count(max_dp_cells, "max_dp_cells"))


DEFAULT_OPTIONS = Options()


# GroupParams.triple -> {name: what that function keeps of the group}: the
# rounds of each `_kernels_pure` kernel and connected_from_all's memo (a
# class key's connected counts for m = 0, 1, ..., no more than the rounds
# of dp_total beside it); also what the budget checks read: the group's
# class count, and under "orbits" the connected DP's orbit graph.  Least
# recently used group first.
_cache: OrderedDict = OrderedDict()
_CACHE_SLOTS = 16


def clear_caches() -> None:
    _kernels_pure._reversed_classes.cache_clear()
    _cache.clear()


def _refusal(kernel: str, params: GroupParams, m: int, cells, opts: Options):
    what = {"dp_orbits": "connected DP", "dp_refined": "refined class DP"}.get(kernel, "class DP")
    return ResourceLimitError(
        f"{what} over {params} up to m={m} needs {cells} cells (limit {opts.max_dp_cells})"
    )


def _keep(triple, record: dict) -> None:
    """Make `record` the cache's most recently used, under `triple`; beyond
    _CACHE_SLOTS groups the least recently used one is dropped."""
    _cache[triple] = record
    _cache.move_to_end(triple)
    if len(_cache) > _CACHE_SLOTS:
        _cache.popitem(last=False)


def _rounds(params: GroupParams, m: int, kernel: str, opts: Options) -> list:
    """Rounds 0..m (or more) of the `_kernels_pure` kernel named `kernel`
    over the group, kept under that name in the group's record, which
    every cached count is read from.  The record becomes the most
    recently used (see `_keep`), and the cells the kernel keeps up to m
    are checked against the budget first: per class, or per state orbit
    for the connected DP, one slot in each of rounds 0..m, or j+1 in
    round j for the refined and connected DPs in a group with diagonal
    reflections.
    A new record is refused before the classes are counted when a lower
    bound on them (and so on the orbits) exceeds the budget.  The orbit
    graph is built here on first use: every class key is a one-block
    orbit, so the search is refused before it starts when the classes
    alone need more cells, and as soon as the orbits found do.  Cached
    rounds that stop short of m are extended from the last one; a
    refused count runs no round and leaves them as they were.  The
    kernel is looked up at call time, so a rebinding of the module's
    name is seen."""
    slots = m + 1  # per class or orbit, over rounds 0..m
    if kernel != "dp_total" and params.q > 1:
        slots = slots * (m + 2) // 2
    record = _cache.get(params.triple)
    if record is None:
        # G(r,s,n) has 2^(k-1) classes or more, for the largest k with
        # k(k+1)/2 <= n: each subset of {2..k}, padded with 1s, is a cycle type
        least = 2 ** ((math.isqrt(8 * params.n + 1) - 1) // 2 - 1) * slots
        if least > opts.max_dp_cells:
            raise _refusal(kernel, params, m, f"at least {least}", opts)
        record = {"class_count": class_count(params)}
        _keep(params.triple, record)
    else:
        _cache.move_to_end(params.triple)
    group, cells = params.triple, record["class_count"] * slots
    if kernel == "dp_orbits":
        if "orbits" not in record:
            if cells > opts.max_dp_cells:
                raise _refusal(kernel, params, m, f"at least {cells}", opts)
            budget = opts.max_dp_cells // slots
            record["orbits"] = _kernels_pure.orbit_graph(*params.triple, budget)
        group = (record["orbits"],)
        cells = len(record["orbits"][0]) * slots
    if cells > opts.max_dp_cells:
        raise _refusal(kernel, params, m, cells, opts)
    rounds = record.get(kernel)
    if rounds is None or len(rounds) <= m:
        rounds = record[kernel] = getattr(_kernels_pure, kernel)(*group, rounds, m)
    return rounds


def count_all(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """Number of m-tuples of reflections multiplying to w."""
    json_count(m, "m")
    p = w.params
    return _rounds(p, m, "dp_total", opts)[m][class_key(w.perm, w.exps, p.r)][0]


def count_refined(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Number of (m1+m2)-tuples multiplying to w with exactly m2 diagonal
    factors (and m1 swap factors)."""
    m1, m2 = json_count(m1, "m1"), json_count(m2, "m2")
    rounds = _rounds(w.params, m1 + m2, "dp_refined", opts)
    # a group without diagonal reflections keeps the m2 = 0 slot only
    slots = rounds[m1 + m2][class_key(w.perm, w.exps, w.params.r)]
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
    w: GroupElement, max_m: int, opts: Options = DEFAULT_OPTIONS, min_m: int = 0
) -> list[list[int]]:
    """The rows for m = min_m..max_m of the connected counts of w by m2,
    by the orbit DP: the one-block orbit's mass divided by |class(w)|.
    Row m has m+1 entries, or one (m2 = 0) when the group has no
    diagonal reflections."""
    min_m, max_m = json_count(min_m, "min_m"), json_count(max_m, "max_m")
    key = class_key(w.perm, w.exps, w.params.r)
    size = _class_size(w.params, key)
    rounds = _rounds(w.params, max_m, "dp_orbits", opts)
    return [
        _per_element(rounds[m].get((key,), []), size, key, m) for m in range(min_m, max_m + 1)
    ]


def class_sizes(params: GroupParams, max_m: int, opts: Options = DEFAULT_OPTIONS) -> dict:
    """{class key: |class|} over the G(r,1,n)-conjugacy classes of
    G(r,s,n) = params, in the class graph's key order, for a sweep that
    reads `connected_rows` up to max_m.  The orbit DP's budget is checked
    first, and its rounds run: its graph has an orbit for every class, so
    the budget bounds the class search too.  Class sizes that do not sum
    to the group order raise ConsistencyError."""
    _rounds(params, json_count(max_m, "max_m"), "dp_orbits", opts)
    keys = _kernels_pure._reversed_classes(*params.triple)[0][0]
    sizes = {key: _class_size(params, key) for key in keys}
    if sum(sizes.values()) != params.group_order():
        raise ConsistencyError(
            f"the {len(keys)} classes of {params} hold {sum(sizes.values())} elements, "
            f"not {params.group_order()}"
        )
    return sizes


def count_all_by_enum(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """count_all recomputed by the orbit DP (cross-check path): the
    masses of every orbit whose merged blocks equal w's colored cycle
    type, over |class(w)|."""
    json_count(m, "m")
    key = class_key(w.perm, w.exps, w.params.r)
    masses = _rounds(w.params, m, "dp_orbits", opts)[m]
    merged = {orbit: tuple(sorted(chain.from_iterable(orbit))) for orbit in masses}
    mass = sum(sum(counts) for orbit, counts in masses.items() if merged[orbit] == key)
    (count,) = _per_element((mass,), _class_size(w.params, key), key, m)
    return count


def count_connected_enum(
    w: GroupElement, m1: int, m2: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected refined count by the orbit DP: the trusted oracle."""
    m1, m2 = json_count(m1, "m1"), json_count(m2, "m2")
    (row,) = connected_rows(w, m1 + m2, opts, min_m=m1 + m2)
    return row[m2] if m2 < len(row) else 0


def count_connected_total_enum(
    w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS
) -> int:
    """Connected count over all diagonal/swap splits, by the orbit DP."""
    json_count(m, "m")
    (row,) = connected_rows(w, m, opts, min_m=m)
    return sum(row)


def _binomial_convolve(a: list[int], b: list[int], m: int) -> list[int]:
    """c[j] = sum over j1 of C(j, j1) a[j1] b[j-j1], truncated at m."""
    out = [0] * (m + 1)
    for j in range(m + 1):
        out[j] = sum(
            math.comb(j, j1) * a[j1] * b[j - j1]
            for j1 in range(j + 1)
            if a[j1] and b[j - j1]
        )
    return out


def connected_totals(w: GroupElement, max_m: int, opts: Options = DEFAULT_OPTIONS) -> list[int]:
    """The connected counts of w for m = 0..max_m, by inverting the block
    product formula (see `connected_from_all`): one row, read with one
    inversion, as `connected_rows` reads the orbit DP's.  A copy of the
    memo's counts, so the caller may change it."""
    return _invert(w, max_m, opts)[: max_m + 1]


def connected_from_all(w: GroupElement, m: int, opts: Options = DEFAULT_OPTIONS) -> int:
    """Connected count obtained by inverting the block product formula:
    subtract, from the total count, every way of splitting the element into
    two or more independent blocks with connected factorizations.  The
    connected count is a class function too, so each group's memo maps a
    colored cycle type to its counts for m = 0, 1, ..., which a call at a
    larger m extends in place; a caller that needs several m asks
    `connected_totals` once."""
    return _invert(w, m, opts)[m]


def _invert(w: GroupElement, m: int, opts: Options) -> list[int]:
    """The inversion memo's list of w's connected counts for m' = 0, 1,
    ..., extended in place to m or beyond; callers must not change it.

    The recursion on the block B that holds the first cycle c1 of a class
    key (the exponential formula): the connected counts of the key are its
    class-DP totals minus, over every proper B, ways(B) times the binomial
    convolution of B's connected counts with the totals of the complement.
    B is c1 plus a sub-multiset of the other cycles, chosen in prod over
    cycle types of C(mult, k) ways, and a B whose colors do not sum to 0
    mod s has no factorization of its own.  Every group G(r,s,k) the
    recursion reads, w's own first, is held from its first use to the end
    of the call, so its budget is checked once and the cache cannot drop
    it midway; w's group is then made the cache's newest again."""
    json_count(m, "m")
    p = w.params
    r, s = p.r, p.s
    held: dict = {}

    def group(n: int) -> dict:
        """The cache record of G(r,s,n), with dp_total rounds 0..m and an
        inversion memo."""
        if n not in held:
            sub = p if n == p.n else GroupParams(r, s, n)  # p is checked already
            _rounds(sub, m, "dp_total", opts)
            held[n] = _cache[sub.triple]  # _rounds has just made it the newest
            held[n].setdefault("connected_from_all", {})
        return held[n]

    def connected(key, n: int) -> list[int]:
        record = group(n)
        rounds = record["dp_total"]
        counts = record["connected_from_all"].setdefault(key, [])
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
            if not rest or sum(color for _, color in block) % s:
                continue  # B is the whole key, or has no factorization
            size = sum(length for length, _ in block)
            inner = connected(block, size)
            rest_rounds = group(n - size)["dp_total"]
            outer = [rest_rounds[j][rest][0] for j in range(m + 1)]
            joined = _binomial_convolve(inner, outer, m)
            for j in range(start, m + 1):
                new[j - start] -= ways * joined[j]
        counts.extend(new)
        return counts

    counts = connected(class_key(w.perm, w.exps, r), p.n)
    _keep(p.triple, held[p.n])
    return counts
