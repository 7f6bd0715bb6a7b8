"""Graph encoding of tuples, ordered edge walks, weights, evaluation,
and connectivity."""

import itertools
import json
import random
import re

import pytest

from reflfact import (
    ConsistencyError,
    DecoratedGraph,
    GroupParams,
    Reflection,
    ValidationError,
    all_walks,
    entry_product,
    evaluate,
    evaluate_by_walks,
    graph_of_tuple,
    is_connected,
    ordered_walk,
    tuple_of_graph,
    walk_weight,
)
from reflfact.cli import main
from reflfact.errors import EXIT_VALIDATION

from conftest import fold_product, random_tuple

RANDOM_CONFIGS = [(1, 1, 4), (2, 1, 3), (6, 2, 3), (4, 4, 3)]


def test_reference_tuple_to_graph(reference_graph, reference_tuple):
    assert graph_of_tuple(reference_tuple) == reference_graph
    assert tuple_of_graph(reference_graph) == reference_tuple


def test_empty_and_single_edges():
    p = GroupParams(6, 2, 4)
    empty = graph_of_tuple([], params=p)
    assert empty.edges == () and len(empty) == 0
    from reflfact import Reflection

    tau = Reflection(p, 1, 1, 1)  # scales v_1 by zeta_6^2
    g = graph_of_tuple([tau])
    assert g.edges == ((1, 1, 1),) and len(g) == 1


def test_graph_of_tuple_refusals():
    with pytest.raises(ValidationError, match="^empty tuple needs explicit group parameters$"):
        graph_of_tuple([])
    mixed = [Reflection(GroupParams(2, 1, 3), 1, 2, 0), Reflection(GroupParams(2, 2, 3), 1, 2, 0)]
    for refs in (mixed, mixed[::-1]):
        with pytest.raises(ValidationError, match="^reflections in a tuple must share parameters$"):
            graph_of_tuple(refs)


def test_ordered_walk_refuses_a_vertex_out_of_range():
    g = DecoratedGraph(GroupParams(2, 1, 3), ((1, 2, 1),))
    for start in (0, 4, -1):
        with pytest.raises(ValidationError, match=f"^vertex {start} out of range 1..3$"):
            ordered_walk(g, start)
    for start in (True, 1.0):  # not taken for vertex 1
        with pytest.raises(ValidationError, match=f"^expected an integer, got {start}$"):
            ordered_walk(g, start)


def test_evaluate_raises_when_the_walks_disagree_with_the_product(monkeypatch, reference_graph):
    import reflfact.graphs

    product_value = evaluate(reference_graph)
    monkeypatch.setattr(
        reflfact.graphs, "evaluate_by_walks", lambda graph: product_value.inverse()
    )
    with pytest.raises(ConsistencyError, match="^walk evaluation disagrees with product$"):
        evaluate(reference_graph)


def test_graph_label_validation():
    p = GroupParams(6, 2, 4)
    with pytest.raises(ValidationError):
        DecoratedGraph(p, ((1, 1, 3),))  # self-edge label must be < r/s
    with pytest.raises(ValidationError):
        DecoratedGraph(p, ((1, 2, 6),))  # edge label must be < r
    with pytest.raises(ValidationError):
        DecoratedGraph(GroupParams(2, 2, 2), ((1, 1, 1),))  # no self-edges at r=s


def test_graph_edges_need_three_entries(capsys):
    # refused before the entries are unpacked into a reflection; a tuple
    # edge, as graph_of_tuple passes it, is accepted like a list
    p = GroupParams(2, 1, 3)
    assert DecoratedGraph(p, ([1, 2, 1],)) == DecoratedGraph(p, ((1, 2, 1),))
    for edge in ([1, 2], (1, 2, 1, 0), 5):
        message = f"edge 0: expected [i, j, k], got {edge!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DecoratedGraph(p, (edge,))
    for edge in ([1, 2], [1, 2, 1, 0], 5, "121"):
        graph = {"r": 2, "s": 1, "n": 3, "edges": [[1, 2, 1], edge]}
        assert main(["walks", "--graph", json.dumps(graph)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert not captured.out
        assert f"edge 1: expected [i, j, k], got {edge!r}" in captured.err


@pytest.mark.parametrize("r, s, n", [(1, 1, 2), (2, 2, 2), (6, 2, 3)])
def test_graph_edges_follow_the_reflection_rule(capsys, r, s, n):
    # an edge is refused exactly when the reflection it encodes is, and
    # `walks` exits 3 on each refused edge
    p = GroupParams(r, s, n)
    for i, j, k in itertools.product(range(n + 2), range(n + 2), range(-1, r + 1)):
        try:
            Reflection(p, i, j, k)
        except ValidationError:
            with pytest.raises(ValidationError, match="edge 0"):
                DecoratedGraph(p, ((i, j, k),))
            graph = {"r": r, "s": s, "n": n, "edges": [[i, j, k]]}
            assert main(["walks", "--graph", json.dumps(graph)]) == EXIT_VALIDATION
            assert not capsys.readouterr().out
        else:
            assert DecoratedGraph(p, ((i, j, k),)).edges == ((i, j, k),)


def test_reference_walks(reference_graph):
    w3 = ordered_walk(reference_graph, 3)
    assert [step[0] for step in w3.steps] == [0, 2, 4, 5, 6]
    assert [step[2] for step in w3.steps] == [4, 4, 3, 1, 1]
    assert w3.end == 1

    w1 = ordered_walk(reference_graph, 1)
    assert [step[0] for step in w1.steps] == [3]
    assert w1.end == 2

    w2 = ordered_walk(reference_graph, 2)
    assert [(s[0], s[2]) for s in w2.steps] == [(1, 3), (4, 4)]

    w4 = ordered_walk(reference_graph, 4)
    assert [(s[0], s[2]) for s in w4.steps] == [(0, 3), (1, 2), (3, 1), (5, 3)]


def test_reference_weights(reference_graph):
    weights = [walk_weight(reference_graph, w) for w in all_walks(reference_graph)]
    assert weights == [1, 3, 4, -2]


def test_trivial_walk():
    p = GroupParams(2, 1, 3)
    g = DecoratedGraph(p, ())
    w = ordered_walk(g, 2)
    assert w.steps == () and w.start == w.end == 2
    assert walk_weight(g, w) == 0


def test_reference_evaluation(reference_graph):
    w = evaluate(reference_graph)
    assert w.perm == (2, 4, 1, 3)
    assert w.exps == (1, 3, 4, 4)
    assert evaluate_by_walks(reference_graph) == w


def test_evaluate_edge_cases():
    p = GroupParams(2, 1, 3)
    assert evaluate(DecoratedGraph(p, ())).is_identity()
    p2 = GroupParams(4, 1, 2)
    g = DecoratedGraph(p2, ((1, 2, 3),))
    from reflfact import Reflection

    assert evaluate(g) == Reflection(p2, 1, 2, 3).to_element()


def test_tuple_graph_bijection_random():
    rng = random.Random(11)
    for r, s, n in RANDOM_CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(50):
            refs = random_tuple(p, rng.randrange(0, 8), rng)
            g = graph_of_tuple(refs, params=p)
            assert tuple_of_graph(g) == refs
            assert graph_of_tuple(tuple_of_graph(g), params=p) == g


def test_walk_evaluation_matches_product_random():
    rng = random.Random(12)
    for r, s, n in RANDOM_CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(120):
            refs = random_tuple(p, rng.randrange(0, 9), rng)
            g = graph_of_tuple(refs, params=p)
            assert evaluate_by_walks(g) == fold_product(refs, p)


def test_each_directed_edge_on_exactly_one_walk_random():
    rng = random.Random(13)
    for r, s, n in RANDOM_CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(120):
            refs = random_tuple(p, rng.randrange(0, 9), rng)
            g = graph_of_tuple(refs, params=p)
            seen = {}
            for walk in all_walks(g):
                for (idx, tail, head) in walk.steps:
                    key = (idx, tail, head)
                    assert key not in seen, "directed edge reused across walks"
                    seen[key] = walk.start
            for idx, (i, j, _) in enumerate(g.edges):
                if i == j:
                    directions = [(idx, i, i)]
                else:
                    directions = [(idx, i, j), (idx, j, i)]
                walks_hit = [seen.get(d) for d in directions]
                assert all(w is not None for w in walks_hit)
                if i != j:
                    assert walks_hit[0] != walks_hit[1]


def test_weight_sum_law_random():
    # sum of walk weights = s * (entry product exponent) mod r
    rng = random.Random(14)
    for r, s, n in RANDOM_CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(80):
            refs = random_tuple(p, rng.randrange(0, 9), rng)
            g = graph_of_tuple(refs, params=p)
            w = evaluate(g)
            total = sum(walk_weight(g, walk) for walk in all_walks(g))
            assert total % r == (s * entry_product(w)) % r


def test_connectivity_examples(reference_graph):
    assert is_connected(reference_graph)
    assert not is_connected(DecoratedGraph(GroupParams(2, 1, 2), ()))
    assert is_connected(DecoratedGraph(GroupParams(2, 1, 1), ()))


def _path(vertices):
    return [(min(a, b), max(a, b), 0) for a, b in zip(vertices, vertices[1:])]


def _star(vertices):
    return [(min(vertices[0], b), max(vertices[0], b), 0) for b in vertices[1:]]


def test_connectivity_of_long_paths_and_large_stars():
    # 5000 vertices, in both orders: the search is linear in the edges
    n = 5000
    p = GroupParams(1, 1, n)
    for vertices in (list(range(1, n + 1)), list(range(n, 0, -1))):
        for shape in (_path, _star):
            assert is_connected(DecoratedGraph(p, tuple(shape(vertices))))
            pieces = shape(vertices[: n // 2]) + shape(vertices[n // 2 :])
            assert not is_connected(DecoratedGraph(p, tuple(pieces)))


def test_connectivity_equals_orbit_transitivity():
    # connectivity of the graph == the projected swaps act transitively
    rng = random.Random(15)
    for r, s, n in RANDOM_CONFIGS:
        p = GroupParams(r, s, n)
        for _ in range(100):
            refs = random_tuple(p, rng.randrange(0, 7), rng)
            g = graph_of_tuple(refs, params=p)
            orbit = {1}
            frontier = [1]
            while frontier:
                v = frontier.pop()
                for ref in refs:
                    if ref.is_diagonal:
                        continue
                    image = {ref.i: ref.j, ref.j: ref.i}.get(v)
                    if image is not None and image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            assert is_connected(g) == (len(orbit) == n)


def test_graph_json_roundtrip(reference_graph):
    data = json.loads(json.dumps(reference_graph.to_json()))
    assert DecoratedGraph.from_json(data) == reference_graph
    assert data["edges"][0] == [3, 4, 5]  # order significant
    with pytest.raises(ValidationError):
        DecoratedGraph.from_json({"r": 2, "s": 1, "edges": []})
