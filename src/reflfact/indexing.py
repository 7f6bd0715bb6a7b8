"""Indexing of G(r,s,n): a perfect rank/unrank of the elements, which
serves the whole-group sweeps of the tests and the benchmark and the
dense tables of the tuple-enumeration reference, and colored cycle
types, which name the conjugacy classes the counts are tabled over.

The index is perm_rank * E + exps_rank, where perm_rank is the Lehmer
rank of the permutation and E = r^(n-1) * (r/s) counts the admissible
exponent vectors: the first n-1 exponents are free digits base r and
the last is determined mod s by the zero-sum constraint, leaving a free
quotient digit in [0, r/s).

The colored cycle type of an element, `class_key` (whose rule lives in
`reflfact.groups`, re-exported here), is the sorted tuple of (cycle
length, sum of the exponents on the cycle mod r) pairs.  It names the
element's G(r,1,n)-conjugacy class; the reflection set of G(r,s,n) is
stable under that conjugation, so every factorization count is constant
on these classes, and `class_representative` gives one element of each.
An element keeps its class key once computed.  The whole-group sweep,
`iter(GroupIndexer(params))`, fills the key of every element it yields
at the cost of one tuple and one dict lookup: it finds each
permutation's cycles once, colors each cycle's vertex set under every
exponent vector of the block once per sweep (a table of at most
(2^n - 1) * E ints, freed when the sweep ends), and runs `class_key`
once per sequence of cycle lengths and tuple of cycle colors.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .groups import GroupElement, GroupParams, class_key, json_int, permutation_cycles


def perm_rank(perm0: list[int]) -> int:
    """Lehmer rank of a 0-based permutation (lexicographic)."""
    n = len(perm0)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if perm0[j] < perm0[i])
        rank = rank * (n - i) + smaller
    return rank


def perm_unrank(rank: int, n: int) -> list[int]:
    digits = []
    for base in range(1, n + 1):
        digits.append(rank % base)
        rank //= base
    digits.reverse()
    pool = list(range(n))
    return [pool.pop(d) for d in digits]


class GroupIndexer:
    """Bijection between G(r,s,n) and range(group order)."""

    def __init__(self, params: GroupParams):
        self.params = params
        self.exp_block = params.r ** (params.n - 1) * params.q
        self.size = params.group_order()

    def _exps_rank(self, exps) -> int:
        r, q = self.params.r, self.params.q
        x = 0
        for e in reversed(exps[:-1]):
            x = x * r + e
        return x * q + exps[-1] // self.params.s

    def _exps_unrank(self, rank: int) -> list[int]:
        r, s, q, n = self.params.r, self.params.s, self.params.q, self.params.n
        c = rank % q
        rank //= q
        exps = []
        for _ in range(n - 1):
            exps.append(rank % r)
            rank //= r
        exps.append(c * s + (-sum(exps)) % s)
        return exps

    def rank(self, perm0, exps) -> int:
        """Index of the element with 0-based permutation perm0."""
        return perm_rank(perm0) * self.exp_block + self._exps_rank(exps)

    def index_of(self, element: GroupElement) -> int:
        if element.params != self.params:
            raise ValidationError(
                f"element of {element.params} is not in the indexed group {self.params}"
            )
        return self.rank([p - 1 for p in element.perm], element.exps)

    def element_at(self, index: int) -> GroupElement:
        # a bool or float would pass the compare as the int it equals
        if index.__class__ is not int or not 0 <= index < self.size:
            raise ValidationError(f"index {index!r} out of range 0..{self.size - 1}")
        pr, er = divmod(index, self.exp_block)
        perm0 = perm_unrank(pr, self.params.n)
        exps = self._exps_unrank(er)
        return GroupElement(
            self.params, tuple(p + 1 for p in perm0), tuple(exps)
        )

    def __iter__(self):
        """The elements in index order: permutations in lexicographic
        (Lehmer) order, and under each one the exponent vectors in
        `_exps_unrank` order, listed once.  Each part is checked once, by
        building an element from it (the exponent vectors all before the
        first element is yielded), and the checked parts are paired with
        their class key.  The key depends only on the cycle lengths, in
        the order of their least vertices, and the cycles' colors, so
        `class_key` runs once per sweep for each such pair, at most
        r(1+r)^(n-1) times, and a cycle's colors under the whole block
        are found once per vertex set, at most 2^n - 1 lists of E ints.
        This generator alone holds both tables, so they are freed when
        the sweep ends; each element costs one tuple and one dict
        lookup."""
        params = self.params
        n, r = params.n, params.r
        ident = tuple(range(1, n + 1))
        block = [
            GroupElement(params, ident, self._exps_unrank(i)).exps
            for i in range(self.exp_block)
        ]
        zeros = (0,) * n
        pair = GroupElement._from_checked_parts
        colors = {}  # vertex set -> its color under each exponent vector of block
        keys = {}  # cycle lengths -> {their colors -> class key}
        for perm in itertools.permutations(ident):
            w = GroupElement(params, perm, zeros)
            perm, cycles = w.perm, permutation_cycles(w)
            columns = []
            for cycle in cycles:
                column = colors.get(vertices := frozenset(cycle))
                if column is None:
                    column = colors[vertices] = [
                        sum(exps[v - 1] for v in cycle) % r for exps in block
                    ]
                columns.append(column)
            shape = keys.setdefault(tuple(map(len, cycles)), {})
            for exps, coloring in zip(block, zip(*columns)):
                key = shape.get(coloring)
                if key is None:
                    key = shape[coloring] = class_key(perm, exps, r)
                yield pair(params, perm, exps, key)


def class_representative(params: GroupParams, key) -> GroupElement:
    """An element of G(r,s,n) = params with colored cycle type key, the
    inverse of `class_key`: the cycles laid out on consecutive vertices
    v+1 -> v+2 -> ... -> v+L -> v+1, each cycle's color on its first
    vertex.  A key that names no class of the group raises
    ValidationError: each pair is read by `json_int`, each length must fit
    in what is left of n, and `GroupElement` checks the colors and n."""
    perm, exps = [], []
    for pair in key:
        try:
            length, color = map(json_int, pair)
        except (TypeError, ValueError) as exc:  # a ValidationError too
            raise ValidationError(f"class key {key!r}: {pair!r} is no (length, color)") from exc
        v = len(perm) + 1
        if not 0 < length <= params.n + 1 - v:
            raise ValidationError(f"class key {key!r}: lengths must be >= 1 and sum to {params.n}")
        perm += range(v + 1, v + length)
        perm.append(v)
        exps += [color] + [0] * (length - 1)
    return GroupElement(params, tuple(perm), tuple(exps))


def class_count(params: GroupParams) -> int:
    """Number of colored cycle types in G(r,s,n): multisets of (length,
    color) pairs with lengths summing to n and colors summing to 0 mod s."""
    r, s, n = params.r, params.s, params.n
    # ways[k][c]: multisets of total length k whose colors sum to c mod s
    ways = [[1] + [0] * (s - 1)] + [[0] * s for _ in range(n)]
    for length in range(1, n + 1):
        for color in range(r):
            for k in range(length, n + 1):
                for c, w in enumerate(ways[k - length]):
                    ways[k][(c + color) % s] += w
    return ways[n][0]
