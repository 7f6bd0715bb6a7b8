"""Shared fixtures: the reference seven-edge graph, small-group helpers,
the element-level connected DP that the orbit DP is checked against, the
element-level search that the cut-and-join graphs are checked against,
the element-level comparison sweep that the class sweep is checked
against, the set-partition inversion that the block recursion of
`counting.connected_from_all` is checked against, the set-partition
reassembly of total counts from connected ones, and the Gauss-Jordan
solve over the rationals that the fraction-free solve of `polyfit` is
checked against."""

import itertools
import random
from fractions import Fraction
from operator import add

import pytest

from reflfact import (
    DecoratedGraph,
    GroupElement,
    GroupParams,
    Reflection,
    identity,
    multiply,
    reflections,
)
from reflfact import counting
from reflfact.counttable import CountKey, CountTable
from reflfact.errors import FitInconsistencyError, UnderdeterminedFitError, ValidationError
from reflfact.groups import entry_product, partitions, permutation_part
from reflfact.indexing import GroupIndexer, class_key
from reflfact.series import ComparisonMismatch, _comparison, _sn_connected

# small groups, among them groups with s > 1 and with one vertex, that
# the kernel tests and the inversion's agreement test sweep
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


@pytest.fixture(scope="session")
def reference_graph() -> DecoratedGraph:
    """Seven ordered labeled edges on four vertices in G(6,2,4); exercises
    swaps, self-edges, repeated endpoints, and both walk directions."""
    params = GroupParams(6, 2, 4)
    return DecoratedGraph(
        params,
        (
            (3, 4, 5),
            (2, 3, 0),
            (4, 4, 2),
            (1, 2, 1),
            (3, 4, 3),
            (1, 3, 4),
            (1, 1, 1),
        ),
    )


@pytest.fixture(scope="session")
def reference_tuple(reference_graph):
    p = reference_graph.params
    return [
        Reflection(p, 3, 4, 5),
        Reflection(p, 2, 3, 0),
        Reflection(p, 4, 4, 2),
        Reflection(p, 1, 2, 1),
        Reflection(p, 3, 4, 3),
        Reflection(p, 1, 3, 4),
        Reflection(p, 1, 1, 1),
    ]


def random_element(params: GroupParams, rng: random.Random) -> GroupElement:
    perm = list(range(1, params.n + 1))
    rng.shuffle(perm)
    exps = [rng.randrange(params.r) for _ in range(params.n - 1)]
    # fix the last exponent so the sum is divisible by s
    free = rng.randrange(params.q)
    exps.append(free * params.s + (-sum(exps)) % params.s)
    return GroupElement(params, tuple(perm), tuple(exps))


def random_tuple(params: GroupParams, length: int, rng: random.Random):
    pool = reflections(params)
    return [rng.choice(pool) for _ in range(length)]


def fold_product(refs, params):
    acc = identity(params)
    for ref in refs:
        acc = multiply(ref.to_element(), acc)
    return acc


def all_elements(params: GroupParams):
    """Exhaustive group enumeration, independent of the indexing module."""
    n, r, s = params.n, params.r, params.s
    for perm in itertools.permutations(range(1, n + 1)):
        for exps in itertools.product(range(r), repeat=n):
            if sum(exps) % s == 0:
                yield GroupElement(params, perm, exps)


def dp_components(r, s, n, refl, m):
    """rounds[j] = {(perm0, exps, labels): counts by m2} for j <= m: the
    element-level connected DP, the reference the orbit DP in
    `reflfact._kernels_pure` is tested against.

    A state is the product so far (perm0, exps) together with the
    partition of the vertices into the components the swap factors have
    joined, as labels[v] = least vertex of v's component; the tuples
    whose swap factors join every vertex end in the one-block state,
    labels (0,)*n.  A state counts its tuples by m2, the number of
    diagonal factors, in j+1 slots at round j, or in one slot when the
    group has no diagonal reflections."""
    diagonal = any(is_diag for is_diag, _, _, _ in refl)
    rounds = [{(tuple(range(n)), (0,) * n, tuple(range(n))): [1]}]
    for _ in range(m):
        nxt: dict = {}
        for (perm0, exps, labels), counts in rounds[-1].items():
            same, shifted = (counts + [0], [0] + counts) if diagonal else (counts, None)
            for is_diag, a, b, k in refl:
                ia = perm0.index(a)
                new_exps = list(exps)
                if is_diag:
                    new_exps[ia] = (new_exps[ia] + s * k) % r
                    key = (perm0, tuple(new_exps), labels)
                    moved = shifted
                else:
                    ib = perm0.index(b)
                    new_perm = list(perm0)
                    new_perm[ia], new_perm[ib] = b, a
                    new_exps[ia] = (new_exps[ia] + k) % r
                    new_exps[ib] = (new_exps[ib] - k) % r
                    keep, drop = sorted((labels[a], labels[b]))
                    new_labels = labels if keep == drop else tuple(
                        keep if x == drop else x for x in labels
                    )
                    key = (tuple(new_perm), tuple(new_exps), new_labels)
                    moved = same
                old = nxt.get(key)
                nxt[key] = moved if old is None else list(map(add, old, moved))
        rounds.append(nxt)
    return rounds


def dense_tables(params: GroupParams, states: dict, m: int):
    """(total, conn) dense over the group, as `enum_bucketed` returns them
    for m factors, from round m of `dp_components`: total sums a
    product's states over every partition, conn takes the one-block
    state."""
    indexer = GroupIndexer(params)
    total = [[0] * indexer.size for _ in range(m + 1)]
    conn = [[0] * indexer.size for _ in range(m + 1)]
    for (perm0, exps, labels), counts in states.items():
        g = indexer.rank(perm0, exps)
        connected = max(labels) == 0
        for m2, c in enumerate(counts):
            total[m2][g] += c
            if connected:
                conn[m2][g] += c
    return total, conn


def encode_reflections(params: GroupParams) -> list[tuple[int, int, int, int]]:
    """Reflections in canonical order as (is_diag, a, b, k), 0-based: the
    form `dp_components`, `element_search` and `enum_bucketed` take."""
    return [
        (1 if ref.is_diagonal else 0, ref.i - 1, ref.j - 1, ref.k)
        for ref in reflections(params)
    ]


def _orbit_key(perm0, exps, labels, r):
    """The orbit of the state (perm0, exps, labels) under G(r,1,n): the
    sorted tuple, over the blocks of labels, of each block's colored
    cycle type.  Every cycle lies inside one block, since only swap
    factors move vertices and each one joins the blocks it touches, so
    the key is a complete conjugacy invariant."""
    blocks: dict = {}
    seen = [False] * len(perm0)
    for start in range(len(perm0)):
        if seen[start]:
            continue
        length, color, i = 0, 0, start
        while not seen[i]:
            seen[i] = True
            length += 1
            color += exps[i]
            i = perm0[i]
        blocks.setdefault(labels[start], []).append((length, color % r))
    return tuple(sorted(tuple(sorted(cycles)) for cycles in blocks.values()))


def element_search(r, s, n, refl, labels):
    """The graph (keys, moves) that `reflfact._kernels_pure._search` builds
    from cycle types, found instead by multiplying group elements: a
    breadth-first search over states (perm0, exps, labels) from the
    identity, labels[v] being the least vertex of v's block, with each
    state named by `_orbit_key`; moves[o] lists (o2, swaps, diagonals),
    the swap and diagonal reflections taking one representative of o
    into o2.  labels (0,)*n gives the class graph and tuple(range(n))
    the orbit graph."""
    reps = [(tuple(range(n)), (0,) * n, labels)]
    keys = [_orbit_key(*reps[0], r)]
    index = {keys[0]: 0}
    moves = []
    for perm0, exps, labels in reps:  # grows while it is walked
        counts: dict = {}
        for is_diag, a, b, k in refl:
            ia = perm0.index(a)
            new_exps = list(exps)
            if is_diag:
                new_exps[ia] = (new_exps[ia] + s * k) % r
                new_perm, new_labels = perm0, labels
            else:
                ib = perm0.index(b)
                new_perm = list(perm0)
                new_perm[ia], new_perm[ib] = b, a
                new_exps[ia] = (new_exps[ia] + k) % r
                new_exps[ib] = (new_exps[ib] - k) % r
                la, lb = labels[a], labels[b]
                new_labels = labels if la == lb else tuple(
                    min(la, lb) if x in (la, lb) else x for x in labels
                )
            key = _orbit_key(new_perm, new_exps, new_labels, r)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                reps.append((tuple(new_perm), tuple(new_exps), new_labels))
            counts.setdefault(index[key], [0, 0])[is_diag] += 1
        moves.append([(o, swaps, diags) for o, (swaps, diags) in counts.items()])
    return keys, moves


def element_comparison_mismatches(params: GroupParams, max_m: int):
    """`series.comparison_mismatches` as an element-level sweep, the
    reference the class sweep is tested against: every element in
    `GroupIndexer` order is checked at every split with m1+m2 <= max_m.
    Returns (number of checks, mismatches), the mismatches by element in
    index order, then by m, then by m1, each of class size 1: it stands
    for its element only."""
    checks = 0
    bad = []
    for w in GroupIndexer(params):
        t = entry_product(w)
        sn = _sn_connected(permutation_part(w), max_m, None)
        for m, row in enumerate(counting.connected_rows(w, max_m, None)):
            for m1 in range(m + 1):
                m2 = m - m1
                formula = _comparison(params, t, m1, m2, sn[m1])
                enum = row[m2]
                checks += 1
                if formula != enum:
                    bad.append(ComparisonMismatch(w, 1, m1, m2, formula, enum))
    return checks, bad


def partition_connected(w: GroupElement, m: int, memo: dict) -> int:
    """The connected count of w at m by the set-partition sweep, the
    reference `counting.connected_from_all` is tested against: the
    class-DP total minus, for every partition of w's cycles into two or
    more blocks (`groups.partitions`, which drops a block whose colors do
    not sum to 0 mod s), the binomial convolution of the blocks'
    connected counts, each block relabelled into G(r,s,|block|).  memo
    maps (group, class key, m) to the counts found so far."""
    p = w.params
    key = (p.triple, class_key(w.perm, w.exps, p.r), m)
    if key not in memo:
        value = counting.count_all(w, m)
        for part in partitions(w):
            if len(part.blocks) < 2:
                continue
            acc = [1] + [0] * m
            for block in part.blocks:
                sub = relabel_to_dense(w, block)
                vec = [partition_connected(sub, j, memo) for j in range(m + 1)]
                acc = counting._binomial_convolve(acc, vec, m)
            value -= acc[m]
        memo[key] = value
    return memo[key]


class MissingCountError(ValidationError, KeyError):
    """A count table lacks an entry the caller declared it would supply."""


def relabel_to_dense(w: GroupElement, block) -> GroupElement:
    """Restrict w to an invariant block and relabel its vertices to 1..|block|
    in increasing order, producing an element of G(r, s, |block|)."""
    block_sorted = sorted(block)
    new_index = {v: i + 1 for i, v in enumerate(block_sorted)}
    params = GroupParams(w.params.r, w.params.s, len(block_sorted))
    perm = []
    exps = []
    for v in block_sorted:
        img = w.perm[v - 1]
        if img not in new_index:
            raise ValidationError(f"block {block} not invariant at vertex {v}")
        perm.append(new_index[img])
        exps.append(w.exps[v - 1])
    return GroupElement(params, tuple(perm), tuple(exps))


def all_from_connected(w: GroupElement, m: int, table: CountTable) -> int:
    """Reassemble the total count from connected counts: sum over all
    partitions of w and all factor-count splits across blocks, weighted by
    the multinomial number of interleavings."""
    result = 0
    for part in partitions(w):
        acc = [1 if j == 0 else 0 for j in range(m + 1)]
        for block in part.blocks:
            sub = relabel_to_dense(w, block)
            vec = []
            for j in range(m + 1):
                key = CountKey(sub, m1=j, m2=None, connected=True)
                value = table.get(key)
                if value is None:
                    raise MissingCountError(f"table missing {key}")
                vec.append(value)
            acc = counting._binomial_convolve(acc, vec, m)
        result += acc[m]
    return result


def populate_connected_table(w: GroupElement, max_m: int) -> CountTable:
    """Connected counts for every dense sub-block of w up to max_m, as
    needed by all_from_connected."""
    table = CountTable()
    seen = set()
    for part in partitions(w):
        for block in part.blocks:
            sub = relabel_to_dense(w, block)
            if sub in seen:
                continue
            seen.add(sub)
            for j, count in enumerate(counting.connected_totals(sub, max_m)):
                table.insert(CountKey(sub, m1=j, m2=None, connected=True), count, "inversion")
    return table


def fraction_solve_exact(rows, rhs):
    """`polyfit._solve_exact` as Gauss-Jordan elimination in Fractions, the
    reference the fraction-free solve is tested against.

    Returns (solution, training_rows, holdout_residuals).  Raises
    UnderdeterminedFitError when the rows do not pin down every
    coefficient and FitInconsistencyError when no solution exists.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    order = list(range(nrows))
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next(
            (i for i in range(rank, nrows) if aug[order[i]][col] != 0), None
        )
        if pivot is None:
            continue
        order[rank], order[pivot] = order[pivot], order[rank]
        prow = aug[order[rank]]
        for i in range(nrows):
            if i == rank:
                continue
            row = aug[order[i]]
            if row[col] != 0:
                factor = row[col] / prow[col]
                for c in range(col, ncols + 1):
                    row[c] -= factor * prow[c]
        pivots.append(col)
        rank += 1
        if rank == min(nrows, ncols):
            break
    if rank < ncols:
        raise UnderdeterminedFitError(
            f"system of {nrows} samples determines only {rank} of {ncols} coefficients"
        )
    solution = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        prow = aug[order[k]]
        solution[col] = prow[ncols] / prow[col]
    training = tuple(sorted(order[:rank]))
    residuals = []
    inconsistent = []
    for i in range(nrows):
        if i in training:
            continue
        res = sum(rows[i][c] * solution[c] for c in range(ncols)) - rhs[i]
        residuals.append(res)
        if res != 0:
            inconsistent.append((i, res))
    if inconsistent:
        detail = ", ".join(f"sample {i}: residual {res}" for i, res in inconsistent)
        raise FitInconsistencyError(f"no exact fit: {detail}")
    return solution, training, tuple(residuals)
