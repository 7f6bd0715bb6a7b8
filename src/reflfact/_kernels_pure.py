"""Pure-Python kernels: the class-level DP over colored cycle types and
the exhaustive tuple enumeration.

The DP works on the G(r,1,n)-conjugacy classes of G(r,s,n), named by
`reflfact.indexing.class_key`; its tables map class keys to counts.  The
enumeration fills tables dense over the group, indexed exactly as in
`reflfact.indexing`; the compiled extension (_ckernels) implements the
same `enum_bucketed` and `reflfact.kernels` picks one at import time.
Counts here are Python ints, so these kernels never overflow.

Reflections are passed as (is_diag, a, b, k) with 0-based a <= b.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .indexing import class_key
from .unionfind import RollbackUnionFind

BACKEND_NAME = "pure"


def _sizes(r: int, s: int, n: int) -> tuple[int, int, int]:
    q = r // s
    exp_block = r ** (n - 1) * q
    return q, exp_block, factorial(n) * exp_block


def _encode(perm0, exps, r, s, q, exp_block, n) -> int:
    rank = 0
    for i in range(n):
        pi = perm0[i]
        smaller = 0
        for j in range(i + 1, n):
            if perm0[j] < pi:
                smaller += 1
        rank = rank * (n - i) + smaller
    x = 0
    for i in range(n - 2, -1, -1):
        x = x * r + exps[i]
    return rank * exp_block + x * q + exps[n - 1] // s


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


def dp_total(r, s, n, refl, m):
    """rounds[j][key] = number of j-tuples of reflections whose product
    (rightmost factor applied first) has colored cycle type key, j <= m.

    R is closed under inverses, so N_j(g) = sum over t in R of
    N_(j-1)(t*g), read off the class graph."""
    keys, moves = _classes(r, s, n, tuple(refl))
    cur = [1] + [0] * (len(keys) - 1)
    rounds = [cur]
    for _ in range(m):
        cur = [sum((swaps + diags) * cur[c] for c, swaps, diags in row) for row in moves]
        rounds.append(cur)
    return [dict(zip(keys, row)) for row in rounds]


def dp_refined(r, s, n, refl, m):
    """table[m2][key] at round m, where m2 counts the diagonal factors used."""
    keys, moves = _classes(r, s, n, tuple(refl))
    zero = [0] * len(keys)
    cur = [[1] + zero[1:]] + [zero] * m
    for _ in range(m):
        cur = [
            [sum(swaps * same[c] + diags * less[c] for c, swaps, diags in row)
             for row in moves]
            for same, less in zip(cur, [zero] + cur[:-1])
        ]
    return [dict(zip(keys, row)) for row in cur]


def enum_bucketed(r, s, n, refl, m, lo, hi):
    """Enumerate all m-tuples whose first factor index lies in [lo, hi).

    Returns (total, conn): total[m2][g] counts tuples with product g and
    m2 diagonal factors; conn additionally requires the tuple's graph to
    be connected on all n vertices.  For m == 0 the empty tuple is
    attributed to the slice containing index 0.
    """
    q, exp_block, size = _sizes(r, s, n)
    total = [[0] * size for _ in range(m + 1)]
    conn = [[0] * size for _ in range(m + 1)]
    if m == 0:
        if lo == 0:
            total[0][0] = 1
            if n == 1:
                conn[0][0] = 1
        return total, conn

    uf = RollbackUnionFind(n)
    perm0 = list(range(n))
    invperm = list(range(n))
    exps = [0] * n

    def rec(level: int, m2: int) -> None:
        if level == m:
            g = _encode(perm0, exps, r, s, q, exp_block, n)
            total[m2][g] += 1
            if uf.components == 1:
                conn[m2][g] += 1
            return
        choices = range(lo, hi) if level == 0 else range(len(refl))
        for t in choices:
            is_diag, a, b, k = refl[t]
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
