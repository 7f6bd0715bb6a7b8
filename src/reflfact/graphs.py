"""Decorated multigraphs encoding reflection tuples, and their edge walks.

A tuple of m reflections is the same data as a graph with m ordered,
labeled edges on vertices 1..n: a swap becomes an edge {i,j} carrying
its twist label, a diagonal becomes a self-edge {i,i} carrying its
label.  Walking the edges in order from each vertex recovers how the
product of the tuple acts on each basis vector: the walk's endpoint is
the image vertex and the walk's signed label sum is the exponent.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .errors import ConsistencyError, ValidationError
from .groups import (
    GroupElement,
    GroupParams,
    Reflection,
    _Frozen,
    _set,
    json_int,
    product,
)


class DecoratedGraph(_Frozen):
    """Ordered labeled multigraph; edges are (i, j, label) with i <= j,
    each given as a list or tuple of three entries, checked as the
    `Reflection` it encodes and kept as a tuple."""

    __slots__ = _fields = ("params", "edges")

    def __init__(self, params: GroupParams, edges: tuple[tuple[int, int, int], ...]):
        checked = []
        for idx, edge in enumerate(edges):
            if not isinstance(edge, (list, tuple)) or len(edge) != 3:
                raise ValidationError(f"edge {idx}: expected [i, j, k], got {edge!r}")
            try:
                ref = Reflection(params, *edge)
            except ValidationError as exc:
                raise ValidationError(f"edge {idx}: {exc}") from exc
            checked.append((ref.i, ref.j, ref.k))
        _set(self, "params", params)
        _set(self, "edges", tuple(checked))

    def __len__(self) -> int:
        return len(self.edges)

    def to_json(self) -> dict:
        return {
            "r": self.params.r,
            "s": self.params.s,
            "n": self.params.n,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DecoratedGraph":
        try:
            params = GroupParams(*(data[name] for name in ("r", "s", "n")))
            edges = tuple(data["edges"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from exc
        return cls(params, edges)


class Walk(_Frozen):
    """A directed edge walk from vertex `start`; `steps` are (edge index,
    tail, head) with strictly increasing edge indices."""

    __slots__ = _fields = ("start", "steps")

    @property
    def end(self) -> int:
        return self.steps[-1][2] if self.steps else self.start


def graph_of_tuple(
    refs: Sequence[Reflection], params: GroupParams | None = None
) -> DecoratedGraph:
    """Encode a reflection tuple as its decorated graph (edge order = tuple order)."""
    if not refs:
        if params is None:
            raise ValidationError("empty tuple needs explicit group parameters")
        return DecoratedGraph(params, ())
    params = refs[0].params
    edges = []
    for ref in refs:
        if ref.params != params:
            raise ValidationError("reflections in a tuple must share parameters")
        edges.append((ref.i, ref.j, ref.k))
    return DecoratedGraph(params, tuple(edges))


def tuple_of_graph(graph: DecoratedGraph) -> list[Reflection]:
    """Decode a decorated graph back into its reflection tuple."""
    return [Reflection(graph.params, i, j, k) for (i, j, k) in graph.edges]


def _incidence(graph: DecoratedGraph) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(graph.params.n + 1)]
    for idx, (i, j, _) in enumerate(graph.edges):
        inc[i].append(idx)
        if j != i:
            inc[j].append(idx)
    return inc


def ordered_walk(graph: DecoratedGraph, start: int, _inc=None) -> Walk:
    """The maximal walk from `start` that takes, at each vertex, the next
    incident edge in edge order after the previous step."""
    if not 1 <= json_int(start) <= graph.params.n:
        raise ValidationError(f"vertex {start} out of range 1..{graph.params.n}")
    inc = _inc if _inc is not None else _incidence(graph)
    steps = []
    vertex = start
    last = -1
    while True:
        pos = bisect_right(inc[vertex], last)
        if pos == len(inc[vertex]):
            break
        idx = inc[vertex][pos]
        i, j, _ = graph.edges[idx]
        nxt = j if vertex == i else i
        steps.append((idx, vertex, nxt))
        vertex = nxt
        last = idx
    return Walk(start, tuple(steps))


def all_walks(graph: DecoratedGraph) -> list[Walk]:
    inc = _incidence(graph)
    return [ordered_walk(graph, i, inc) for i in range(1, graph.params.n + 1)]


def step_weight(graph: DecoratedGraph, step: tuple[int, int, int]) -> int:
    """Signed label of one directed edge: +label up, -label down, s*label loop."""
    idx, tail, head = step
    label = graph.edges[idx][2]
    if head > tail:
        return label
    if head < tail:
        return -label
    return graph.params.s * label


def walk_weight(graph: DecoratedGraph, walk: Walk) -> int:
    """Sum of signed step labels; not reduced mod r."""
    return sum(step_weight(graph, st) for st in walk.steps)


def evaluate_by_walks(graph: DecoratedGraph) -> GroupElement:
    """The product element read off walk endpoints and walk weights."""
    r = graph.params.r
    perm = []
    exps = []
    for walk in all_walks(graph):
        perm.append(walk.end)
        exps.append(walk_weight(graph, walk) % r)
    return GroupElement(graph.params, tuple(perm), tuple(exps))


def evaluate(graph: DecoratedGraph) -> GroupElement:
    """Product of the graph's reflection tuple, rightmost factor first.

    The walk-based evaluation is recomputed and must agree; this keeps
    the walk calculus permanently cross-checked.
    """
    result = product((ref.to_element() for ref in tuple_of_graph(graph)), graph.params)
    if result != evaluate_by_walks(graph):
        raise ConsistencyError("walk evaluation disagrees with product")
    return result


def is_connected(graph: DecoratedGraph) -> bool:
    """Whether the underlying multigraph on all n vertices is connected: a
    search from vertex 1 along the edges reaches every vertex."""
    neighbours: list[list[int]] = [[] for _ in range(graph.params.n + 1)]
    for (i, j, _) in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen, reached = {1}, [1]
    for vertex in reached:  # grows while it is walked
        for other in neighbours[vertex]:
            if other not in seen:
                seen.add(other)
                reached.append(other)
    return len(reached) == graph.params.n
