"""Pure-Python kernels: the class-level DP over colored cycle types, the
connected DP over G(r,1,n)-orbits of (product, component partition)
states, and the exhaustive tuple enumeration that tests check the
connected DP against.

One breadth-first search from the identity, `_search`, builds both DPs'
graphs, and one round loop, `dp_orbits`, steps every DP.  From one
block the search finds the class graph of the G(r,1,n)-conjugacy
classes of G(r,s,n), named by `reflfact.indexing.class_key`; run over
it reversed, the class DPs map class keys to per-element counts.  From
n one-vertex blocks it finds the orbit graph; the connected DP maps
orbit keys to orbit masses, the counts of (tuple, state) pairs over the
whole orbit, which `reflfact.counting` divides by the size of the
element's class.  Each round maps keys to counts by m2.  The
enumeration fills tables dense over the group, indexed by
`reflfact.indexing.GroupIndexer`.  Counts here are Python ints, so
these kernels never overflow.

Kernels take reflections as `encode_reflections` gives them:
(is_diag, a, b, k) with 0-based a <= b.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ResourceLimitError
from .groups import GroupParams, reflections
from .indexing import GroupIndexer


def encode_reflections(params: GroupParams) -> list[tuple[int, int, int, int]]:
    """Reflections in canonical order as (is_diag, a, b, k), 0-based."""
    return [
        (1 if ref.is_diagonal else 0, ref.i - 1, ref.j - 1, ref.k)
        for ref in reflections(params)
    ]


def _classes(r, s, n, refl):
    """The colored cycle types of G(r,s,n), in the order a breadth-first
    search from the identity finds them, and the class graph: moves[c]
    lists (c2, swaps, diagonals), the numbers of swap and of diagonal
    reflections t with t*g in class c2, for one representative g of c.
    This is the orbit graph of the states with one block, which no swap
    factor splits or joins, so each orbit key is (class key,)."""
    keys, moves = _search(r, s, n, refl, (0,) * n, math.inf)
    return [key for (key,) in keys], moves


@lru_cache(maxsize=16)
def _reversed_classes(r, s, n, refl):
    """`_classes`' graph with each move (c2, swaps, diagonals) of c turned
    into a move (c, ...) of c2, as it is and with swaps + diagonals
    counted as swaps: one graph when the group has no diagonal
    reflections.  Memoized per group, so `refl` is passed as a tuple."""
    keys, moves = _classes(r, s, n, refl)
    back, merged = [[] for _ in keys], [[] for _ in keys]
    for c, row in enumerate(moves):
        for c2, swaps, diags in row:
            back[c2].append((c, swaps, diags))
            merged[c2].append((c, swaps + diags, 0))
    return (keys, back), (keys, back if merged == back else merged)


def dp_total(r, s, n, refl, m, rounds=None):
    """rounds[j][key] = (N_j(key),), the number of j-tuples of reflections
    whose product (rightmost factor applied first) has colored cycle
    type key, for j <= m.  R is closed under inverses, so
    N_j(g) = sum over t in R of N_(j-1)(t*g): `dp_orbits` over the
    reversed class graph, with each move's swaps and diagonals in one
    slot."""
    return dp_orbits(_reversed_classes(r, s, n, tuple(refl))[1], m, rounds)


def dp_refined(r, s, n, refl, m, rounds=None):
    """rounds[j][key][m2] for j <= m: the j-tuples whose product has
    colored cycle type key and which hold m2 diagonal factors, by
    `dp_orbits` as in `dp_total`; one slot when the group has no
    diagonal reflections."""
    return dp_orbits(_reversed_classes(r, s, n, tuple(refl))[0], m, rounds)


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
    if len(blocks) == 1:  # as in every class-graph state: no blocks to sort
        (cycles,) = blocks.values()
        return (tuple(sorted(cycles)),)
    return tuple(sorted(tuple(sorted(cycles)) for cycles in blocks.values()))


def _search(r, s, n, refl, labels, max_orbits):
    """The G(r,1,n)-orbits of the states reached from (identity, labels),
    in the order a breadth-first search finds them, named by
    `_orbit_key`, and the orbit graph: moves[o] lists (o2, swaps,
    diagonals), the numbers of swap and of diagonal reflections t that
    take one representative state of o into o2.

    A state is a product (perm0, exps) together with a partition of the
    vertices into blocks, as labels[v] = least vertex of v's block; a
    swap factor joins the blocks of the two vertices it moves.
    Conjugating a state by G(r,1,n) permutes R, so any representative
    will do.  ResourceLimitError is raised as soon as more than
    max_orbits orbits are found."""
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
                if len(keys) > max_orbits:
                    raise ResourceLimitError(
                        f"connected DP over {GroupParams(r, s, n)} finds more than "
                        f"{max_orbits} state orbits, the most the cell budget allows"
                    )
            counts.setdefault(index[key], [0, 0])[is_diag] += 1
        moves.append([(o, swaps, diags) for o, (swaps, diags) in counts.items()])
    return keys, moves


def orbit_graph(r, s, n, refl, max_orbits):
    """`_search` from n one-vertex blocks: the blocks of a state are the
    components its swap factors have joined."""
    return _search(r, s, n, refl, tuple(range(n)), max_orbits)


def dp_orbits(graph, m, rounds=None):
    """The round loop of every DP here, over a graph (keys, moves) as
    `_search` gives it: rounds[j][key] = F_j(key), a tuple by m2 for
    j <= m, where F_0 is 1 at keys[0] and F_j(o2)[m2] sums, over the
    moves (o2, swaps, diagonals) of each o, swaps * F_(j-1)(o)[m2] +
    diagonals * F_(j-1)(o)[m2-1].  Round j has j+1 slots per key, or
    one when no move counts a diagonal.  On `orbit_graph`'s graph F_j(o)
    counts (tuple, state) pairs with the state in o: the orbit's size
    times the tuples reaching one of its states.  Given the rounds of an
    earlier call (at least round 0), only the rounds after its last are
    computed; the list returned holds the earlier round tables as they
    were."""
    keys, moves = graph
    diagonal = any(diags for row in moves for _, _, diags in row)
    rounds = list(rounds or [dict(zip(keys, [(1,)] + [(0,)] * (len(keys) - 1)))])
    cur = list(rounds[-1].values())
    for j in range(len(rounds), m + 1):
        zero = (0,) * (j + 1 if diagonal else 1)
        nxt = [zero] * len(keys)  # a key no move reaches keeps this one tuple
        for counts, row in zip(cur, moves):
            if not any(counts):
                continue
            slots = list(enumerate(counts))
            for o, swaps, diags in row:
                target = nxt[o]
                if target is zero:
                    target = nxt[o] = list(zero)
                for i, c in slots:
                    target[i] += swaps * c
                    if diags:
                        target[i + 1] += diags * c
        # kept as tuples, which the cyclic GC stops scanning; lists it would not
        rounds.append(dict(zip(keys, map(tuple, nxt))))
        cur = nxt
    return rounds


def enum_bucketed(r, s, n, refl, m):
    """Enumerate all m-tuples: the reference the connected DP is tested
    against.

    Returns (total, conn): total[m2][g] counts tuples with product g and
    m2 diagonal factors; conn additionally requires the tuple's graph to
    be connected on all n vertices.
    """
    from .unionfind import RollbackUnionFind  # a test reference; counting never loads it

    indexer = GroupIndexer(GroupParams(r, s, n))
    total = [[0] * indexer.size for _ in range(m + 1)]
    conn = [[0] * indexer.size for _ in range(m + 1)]
    uf = RollbackUnionFind(n)
    perm0 = list(range(n))
    invperm = list(range(n))
    exps = [0] * n

    def rec(level: int, m2: int) -> None:
        if level == m:
            g = indexer.rank(perm0, exps)
            total[m2][g] += 1
            if uf.components == 1:
                conn[m2][g] += 1
            return
        for is_diag, a, b, k in refl:
            if is_diag:
                ia = invperm[a]
                exps[ia] = (exps[ia] + s * k) % r
                rec(level + 1, m2 + 1)
                exps[ia] = (exps[ia] - s * k) % r
            else:
                ia, ib = invperm[a], invperm[b]
                perm0[ia], perm0[ib] = b, a
                invperm[a], invperm[b] = ib, ia
                exps[ia] = (exps[ia] + k) % r
                exps[ib] = (exps[ib] - k) % r
                uf.union(a, b)
                rec(level + 1, m2)
                uf.undo()
                exps[ib] = (exps[ib] + k) % r
                exps[ia] = (exps[ia] - k) % r
                invperm[a], invperm[b] = ia, ib
                perm0[ia], perm0[ib] = a, b
            # product and union-find state fully restored here

    rec(0, 0)
    return total, conn
