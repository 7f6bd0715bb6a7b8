"""The disjoint-set forest of the package, with rollback.

It skips path compression so that every union can be undone in O(1):
the tuple-enumeration DFS (the test reference for the connected DP)
undoes each union as it backtracks, and `graphs.is_connected` only
unions.  One union-find serves both.
"""

from __future__ import annotations


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
