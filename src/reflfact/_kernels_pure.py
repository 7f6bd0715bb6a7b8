"""Pure-Python kernels: the class-level DP over colored cycle types, the
connected DP over (product, component partition) states, and the
exhaustive tuple enumeration that tests check the connected DP against.

The class DP works on the G(r,1,n)-conjugacy classes of G(r,s,n), named
by `reflfact.indexing.class_key`; its tables map class keys to counts.
The connected DP's tables map its live states to counts.  Both DPs
return their rounds 0..m, and given the rounds of an earlier call they
compute only the rounds after its last.  The enumeration fills tables
dense over the group, indexed by `reflfact.indexing.GroupIndexer`.
Counts here are Python ints, so these kernels never overflow.

Reflections are passed as (is_diag, a, b, k) with 0-based a <= b.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import ResourceLimitError
from .groups import GroupParams
from .indexing import GroupIndexer, class_key
from .unionfind import RollbackUnionFind


@lru_cache(maxsize=16)
def _classes(r, s, n, refl):
    """The colored cycle types of G(r,s,n), in the order a breadth-first
    search from the identity finds them, and the class graph: moves[c]
    lists (c2, swaps, diagonals), the numbers of swap and of diagonal
    reflections t with t*g in class c2, for one representative g of c.
    Conjugating g by G(r,1,n) permutes R, so any representative will do.
    Memoized per group, so `refl` is passed as a tuple."""
    acts = []
    for (is_diag, a, b, k) in refl:
        perm = list(range(1, n + 1))
        exps = [0] * n
        if is_diag:
            exps[a] = (s * k) % r
        else:
            perm[a], perm[b] = b + 1, a + 1
            exps[a] = k
            exps[b] = (-k) % r
        acts.append((is_diag, perm, exps))
    reps = [(list(range(1, n + 1)), [0] * n)]
    keys = [class_key(*reps[0], r)]
    index = {keys[0]: 0}
    moves = []
    for perm, exps in reps:  # grows while it is walked
        counts: dict = {}
        for is_diag, tperm, texps in acts:
            nperm = [tperm[v - 1] for v in perm]
            nexps = [(exps[i] + texps[perm[i] - 1]) % r for i in range(n)]
            key = class_key(nperm, nexps, r)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                reps.append((nperm, nexps))
            counts.setdefault(index[key], [0, 0])[is_diag] += 1
        moves.append([(c, swaps, diags) for c, (swaps, diags) in counts.items()])
    return keys, moves


def dp_total(r, s, n, refl, m, rounds=None):
    """rounds[j][key] = number of j-tuples of reflections whose product
    (rightmost factor applied first) has colored cycle type key, j <= m.

    R is closed under inverses, so N_j(g) = sum over t in R of
    N_(j-1)(t*g), read off the class graph.  Given the rounds of an
    earlier call (at least round 0), only the rounds after its last are
    computed; the list returned holds the earlier round tables as they
    were."""
    keys, moves = _classes(r, s, n, tuple(refl))
    rounds = list(rounds or [dict(zip(keys, [1] + [0] * (len(keys) - 1)))])
    cur = list(rounds[-1].values())
    for _ in range(len(rounds), m + 1):
        cur = [sum((swaps + diags) * cur[c] for c, swaps, diags in row) for row in moves]
        rounds.append(dict(zip(keys, cur)))
    return rounds


def dp_refined(r, s, n, refl, m, rounds=None):
    """rounds[j][m2][key] for j <= m: the j-tuples whose product has
    colored cycle type key and which hold m2 diagonal factors, so round j
    has j+1 rows, or only the m2 = 0 row when the group has no diagonal
    reflections.  Earlier rounds are extended as in `dp_total`."""
    keys, moves = _classes(r, s, n, tuple(refl))
    zero = [0] * len(keys)
    diagonal = any(is_diag for is_diag, _, _, _ in refl)
    rounds = list(rounds or [[dict(zip(keys, [1] + zero[1:]))]])
    cur = [list(row.values()) for row in rounds[-1]]
    for _ in range(len(rounds), m + 1):
        cur = [
            [sum(swaps * same[c] + diags * less[c] for c, swaps, diags in row)
             for row in moves]
            for same, less in zip(cur + [zero] if diagonal else cur, [zero] + cur)
        ]
        rounds.append([dict(zip(keys, row)) for row in cur])
    return rounds


def dp_components(r, s, n, refl, m, max_cells, rounds=None):
    """rounds[j] = {(perm0, exps, labels): counts by m2} for j <= m: the
    live states after j factors, by a forward DP that applies one more
    factor per round.

    A state is the product so far (perm0, exps) together with the
    partition of the vertices into the components the swap factors have
    joined, as labels[v] = least vertex of v's component; the tuples
    whose swap factors join every vertex end in the one-block state,
    labels (0,)*n.  A state counts its tuples by m2, the number of
    diagonal factors, in j+1 slots at round j, or in one slot when the
    group has no diagonal reflections.  Earlier rounds are extended as
    in `dp_total`.  When the kept rounds would hold more than max_cells
    states times slots, ResourceLimitError is raised and the rounds
    given are left as they were.
    """
    diagonal = any(is_diag for is_diag, _, _, _ in refl)
    rounds = list(rounds or [{(tuple(range(n)), (0,) * n, tuple(range(n))): [1]}])
    held = sum(len(states) * (j + 1 if diagonal else 1) for j, states in enumerate(rounds))
    cur = rounds[-1]
    for j in range(len(rounds), m + 1):
        slots = j + 1 if diagonal else 1
        nxt: dict = {}
        for (perm0, exps, labels), counts in cur.items():
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
            if held + len(nxt) * slots > max_cells:
                raise ResourceLimitError(
                    f"connected DP over {GroupParams(r, s, n)} up to round {j} "
                    f"holds {held + len(nxt) * slots} cells (limit {max_cells})"
                )
        held += len(nxt) * slots
        rounds.append(nxt)
        cur = nxt
    return rounds


def enum_bucketed(r, s, n, refl, m):
    """Enumerate all m-tuples: the reference `dp_components` is tested
    against.

    Returns (total, conn): total[m2][g] counts tuples with product g and
    m2 diagonal factors; conn additionally requires the tuple's graph to
    be connected on all n vertices.
    """
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
