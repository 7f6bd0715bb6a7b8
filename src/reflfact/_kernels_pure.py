"""Pure-Python kernels: the class-level DP over colored cycle types, the
connected DP over G(r,1,n)-orbits of (product, component partition)
states, and the exhaustive tuple enumeration that tests check the
connected DP against.

One breadth-first search, `_search`, builds both DPs' graphs from cycle
types, never from group elements.  A state is a sorted tuple of blocks,
each block a colored cycle type: a sorted tuple of (length, color)
pairs.  `_search` walks a state's cycles block by block and gives each
cycle's moves: a join of (L1, c1) with each later cycle (L2, c2) into
(L1+L2, c1+c2), by r*L1*L2 swaps, which merges the two blocks when the
cycles lie in different ones; a cut of (L, c) into (i, d) and
(L-i, c-d), for each d mod r, by L swaps when 2i < L and L/2 when
2i = L; a diagonal move of (L, c) to (L, c+s*k), for k in [1, r/s), by
L diagonals.  From one block of n fixed points the search finds the
class graph of the G(r,1,n)-conjugacy classes of G(r,s,n), named by
`reflfact.groups.class_key`; run over it reversed, the class DPs map
class keys to per-element counts.  From n one-point blocks, the
components the swap factors have joined, it finds the orbit graph; the
connected DP maps orbit keys to orbit masses, the counts of (tuple,
state) pairs over the whole orbit, which `reflfact.counting` divides by
the size of the element's class.  One round loop, `dp_orbits`, steps
every DP; each round maps keys to counts by m2.  The enumeration fills
tables dense over the group, indexed by `reflfact.indexing.GroupIndexer`,
and passes each tuple's components down its recursion as a tuple of
labels, the least vertex of each vertex's component.
Counts here are Python ints, so these kernels never overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .groups import GroupParams
from .indexing import GroupIndexer


def _search(r, s, n, start, max_orbits):
    """The states reached from `start`, in the order a breadth-first search
    finds them, and the graph: moves[o] lists (o2, swaps, diagonals), the
    swap and diagonal reflections that take any member of the orbit o
    into o2 (conjugation permutes R); None as soon as more than max_orbits
    states are found."""
    keys, index, moves = [start], {start: 0}, []
    for key in keys:  # grows while it is walked
        found = []
        for b, block in enumerate(key):
            others = key[:b] + key[b + 1 :]
            for x, (length, color) in enumerate(block):
                rest = block[:x] + block[x + 1 :]
                for b2 in range(b, len(key)):  # a join with each later cycle:
                    if b2 == b:  # in this block, the joined cycle replaces both
                        pool, outside, first = rest, others, x
                    else:  # in a later block, the two blocks merge
                        pool, first = rest + key[b2], len(rest)
                        outside = others[: b2 - 1] + others[b2:]
                    for y in range(first, len(pool)):
                        length2, color2 = pool[y]
                        joined = (length + length2, (color + color2) % r)
                        block2 = tuple(sorted(pool[:y] + pool[y + 1 :] + (joined,)))
                        found.append((outside + (block2,), r * length * length2, 0))
                for i in range(1, length // 2 + 1):
                    swaps = length if 2 * i < length else i
                    for d in range(r):
                        cut = rest + ((i, d), (length - i, (color - d) % r))
                        found.append((others + (tuple(sorted(cut)),), swaps, 0))
                for d in range(s, r, s):  # a diagonal turns a color by a multiple of s
                    turned = rest + ((length, (color + d) % r),)
                    found.append((others + (tuple(sorted(turned)),), 0, length))
        counts: dict = {}
        for target, swaps, diags in found:
            target = tuple(sorted(target))
            o = index.get(target)
            if o is None:
                o = index[target] = len(keys)
                keys.append(target)
                if len(keys) > max_orbits:
                    return None
            row = counts.setdefault(o, [0, 0])
            row[0] += swaps
            row[1] += diags
        moves.append([(o, swaps, diags) for o, (swaps, diags) in counts.items()])
    return keys, moves


def _classes(r, s, n):
    """The colored cycle types of G(r,s,n), in the order `_search` finds
    them from one block of n fixed points, and the class graph: moves[c]
    lists (c2, swaps, diagonals), the numbers of swap and of diagonal
    reflections t with t*g in class c2, for any g in class c.  No swap
    splits or joins the one block, so each state is (class key,)."""
    keys, moves = _search(r, s, n, (((1, 0),) * n,), math.inf)
    return [key for (key,) in keys], moves


@lru_cache(maxsize=16)
def _reversed_classes(r, s, n):
    """`_classes`' graph with each move (c2, swaps, diagonals) of c turned
    into a move (c, ...) of c2, as it is and with swaps + diagonals
    counted as swaps.  A group without diagonal reflections (r = s) has
    no diagonal moves, so both are one graph.  Memoized per group."""
    keys, moves = _classes(r, s, n)
    back = [[] for _ in keys]
    for c, row in enumerate(moves):
        for c2, swaps, diags in row:
            back[c2].append((c, swaps, diags))
    if r == s:
        return (keys, back), (keys, back)
    merged = [[(c, swaps + diags, 0) for c, swaps, diags in row] for row in back]
    return (keys, back), (keys, merged)


# Each kernel takes the earlier rounds before m, so m is the fifth argument
# of dp_total and dp_refined, where perfbench's tracer reads it by position.


def dp_total(r, s, n, rounds, m):
    """rounds[j][key] = (N_j(key),), the number of j-tuples of reflections
    whose product (rightmost factor applied first) has colored cycle
    type key, for j <= m.  R is closed under inverses, so
    N_j(g) = sum over t in R of N_(j-1)(t*g): `dp_orbits` over the
    reversed class graph, with each move's swaps and diagonals in one
    slot, extending `rounds` as it does."""
    return dp_orbits(_reversed_classes(r, s, n)[1], rounds, m)


def dp_refined(r, s, n, rounds, m):
    """rounds[j][key][m2] for j <= m: the j-tuples whose product has
    colored cycle type key and which hold m2 diagonal factors, by
    `dp_orbits` as in `dp_total`; one slot when the group has no
    diagonal reflections."""
    return dp_orbits(_reversed_classes(r, s, n)[0], rounds, m)


def orbit_graph(r, s, n, max_orbits):
    """`_search` from n one-point blocks: the blocks of a state are the
    components its swap factors have joined, and a connected tuple ends
    in a one-block state.  None when it finds more than max_orbits."""
    return _search(r, s, n, (((1, 0),),) * n, max_orbits)


def dp_orbits(graph, rounds, m):
    """The round loop of every DP here, over a graph (keys, moves) as
    `_search` gives it: rounds[j][key] = F_j(key), a tuple by m2 for
    j <= m, where F_0 is 1 at keys[0] and F_j(o2)[m2] sums, over the
    moves (o2, swaps, diagonals) of each o, swaps * F_(j-1)(o)[m2] +
    diagonals * F_(j-1)(o)[m2-1].  Round j has j+1 slots per key, or
    one when no move counts a diagonal.  On `orbit_graph`'s graph F_j(o)
    counts (tuple, state) pairs with the state in o: the orbit's size
    times the tuples reaching one of its states.  Given the rounds of an
    earlier call instead of None, only the rounds after its last are
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
    """Enumerate all m-tuples of the reflections refl, each given as
    (is_diag, a, b, k) with 0-based a <= b: the reference the connected
    DP is tested against.

    Returns (total, conn): total[m2][g] counts tuples with product g and
    m2 diagonal factors; conn additionally requires the tuple's graph to
    be connected on all n vertices.  The recursion passes down the
    components the swap factors so far have joined, as labels[v] = least
    vertex of v's component: the graph is connected when every label is 0.
    """
    indexer = GroupIndexer(GroupParams(r, s, n))
    total = [[0] * indexer.size for _ in range(m + 1)]
    conn = [[0] * indexer.size for _ in range(m + 1)]
    perm0 = list(range(n))
    invperm = list(range(n))
    exps = [0] * n

    def rec(level: int, m2: int, labels: tuple) -> None:
        if level == m:
            g = indexer.rank(perm0, exps)
            total[m2][g] += 1
            if not any(labels):
                conn[m2][g] += 1
            return
        for is_diag, a, b, k in refl:
            if is_diag:
                ia = invperm[a]
                exps[ia] = (exps[ia] + s * k) % r
                rec(level + 1, m2 + 1, labels)
                exps[ia] = (exps[ia] - s * k) % r
            else:
                ia, ib = invperm[a], invperm[b]
                perm0[ia], perm0[ib] = b, a
                invperm[a], invperm[b] = ib, ia
                exps[ia] = (exps[ia] + k) % r
                exps[ib] = (exps[ib] - k) % r
                keep, drop = sorted((labels[a], labels[b]))
                joined = labels if keep == drop else tuple(
                    keep if x == drop else x for x in labels
                )
                rec(level + 1, m2, joined)
                exps[ib] = (exps[ib] + k) % r
                exps[ia] = (exps[ia] - k) % r
                invperm[a], invperm[b] = ia, ib
                perm0[ia], perm0[ib] = a, b
            # the product is restored here; labels was never changed

    rec(0, 0, tuple(range(n)))
    return total, conn
