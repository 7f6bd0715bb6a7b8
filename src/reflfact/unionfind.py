"""Two disjoint-set variants: a plain one and one supporting rollback.

The rollback variant deliberately skips path compression so that every
union can be undone in O(1); it is what the tuple-enumeration DFS (the
test reference for the connected DP) uses.
"""

from __future__ import annotations


class UnionFind:
    """Union by size with path compression; elements are 0..size-1."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size
        self.components = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


class RollbackUnionFind:
    """Union by size without compression; unions undo in LIFO order."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size
        self.components = size
        self._trail: list[int] = []  # attached roots, -1 for no-op unions

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._trail.append(-1)
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        self._trail.append(rb)

    def undo(self) -> None:
        rb = self._trail.pop()
        if rb < 0:
            return
        ra = self.parent[rb]
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]
        self.components += 1
