"""Indexing of G(r,s,n): a perfect rank/unrank of the elements, which
serves the whole-group sweeps of the tests and the benchmark and the
dense tables of the tuple-enumeration reference, and colored cycle
types, which name the conjugacy classes the counts are tabled over.

The index is perm_rank * E + exps_rank, where perm_rank is the Lehmer
rank of the permutation and E = r^(n-1) * (r/s) counts the admissible
exponent vectors: the first n-1 exponents are free digits base r and
the last is determined mod s by the zero-sum constraint, leaving a free
quotient digit in [0, r/s).

The colored cycle type of an element is the sorted tuple of (cycle
length, sum of the exponents on the cycle mod r) pairs.  It names the
element's G(r,1,n)-conjugacy class; the reflection set of G(r,s,n) is
stable under that conjugation, so every factorization count is constant
on these classes, and `class_representative` gives one element of each.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import ValidationError
from .groups import GroupElement, GroupParams


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
        self.q = params.q
        self.exp_block = params.r ** (params.n - 1) * self.q
        self.size = math.factorial(params.n) * self.exp_block

    def _exps_rank(self, exps) -> int:
        r, q = self.params.r, self.q
        x = 0
        for e in reversed(exps[:-1]):
            x = x * r + e
        return x * q + exps[-1] // self.params.s

    def _exps_unrank(self, rank: int) -> list[int]:
        r, s, q, n = self.params.r, self.params.s, self.q, self.params.n
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
        first element is yielded), and the checked parts are paired."""
        params = self.params
        n = params.n
        ident = tuple(range(1, n + 1))
        block = [
            GroupElement(params, ident, self._exps_unrank(i)).exps
            for i in range(self.exp_block)
        ]
        zeros = (0,) * n
        pair = GroupElement._from_checked_parts
        for perm in itertools.permutations(ident):
            perm = GroupElement(params, perm, zeros).perm
            for exps in block:
                yield pair(params, perm, exps)


def class_key(perm, exps, r: int) -> tuple[tuple[int, int], ...]:
    """Colored cycle type of the element (perm, exps), perm a 1-based
    permutation."""
    seen = [False] * len(perm)
    key = []
    for start, i in enumerate(perm):
        if seen[start]:
            continue
        length, color = 1, exps[start]
        i -= 1
        while i != start:
            seen[i] = True
            length += 1
            color += exps[i]
            i = perm[i] - 1
        key.append((length, color % r))
    key.sort()
    return tuple(key)


def class_representative(params: GroupParams, key) -> GroupElement:
    """An element of G(r,s,n) = params with colored cycle type key, the
    inverse of `class_key`: the cycles laid out on consecutive vertices
    v+1 -> v+2 -> ... -> v+L -> v+1, each cycle's color on its first
    vertex.  A key that names no class of the group is refused by
    `GroupElement`'s validation."""
    perm, exps = [], []
    for length, color in key:
        v = len(perm) + 1
        perm += range(v + 1, v + length)
        perm.append(v)
        exps += [color] + [0] * (length - 1)
    return GroupElement(params, tuple(perm), tuple(exps))


@functools.lru_cache(maxsize=64)
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
