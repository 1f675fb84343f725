import math
import random
from itertools import combinations

import pytest

from magsets import (
    DuplicatePairError,
    OrientedGraph,
    OutOfRangeError,
    SelfLoopError,
    UndirectedGraph,
    UNREACHABLE,
    find_shortest_cycle,
)
from magsets.families import cycle_c0, directed_path

from helpers import (
    distance_avoiding_arc,
    distances_from_avoiding_arc,
    distances_from_avoiding_edge,
    random_connected_oriented,
)


def test_validation_rejects_bad_arcs():
    with pytest.raises(SelfLoopError):
        OrientedGraph(3, ((1, 1),))
    with pytest.raises(DuplicatePairError):
        OrientedGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(DuplicatePairError):
        OrientedGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(OutOfRangeError):
        OrientedGraph(3, ((0, 3),))


def test_negative_vertex_count_rejected():
    for graph_type in (OrientedGraph, UndirectedGraph):
        with pytest.raises(OutOfRangeError):
            graph_type(-1, ())


def test_arcs_are_canonically_ordered():
    g = OrientedGraph(4, ((3, 2), (0, 1), (2, 0)))
    assert g.arcs == ((0, 1), (2, 0), (3, 2))
    # reversing a direction keeps the arc's position in the order
    h = OrientedGraph(4, ((2, 3), (1, 0), (0, 2)))
    assert h.arcs == ((1, 0), (0, 2), (2, 3))


def test_distances_on_directed_path():
    g = directed_path(5)
    assert g.distance(0, 4) == 4
    assert g.distance(4, 0) == UNREACHABLE
    assert UNREACHABLE > 10**9  # saturating sentinel


def test_distance_avoiding_arc_on_cycle():
    g = cycle_c0(5)
    assert g.distance(0, 3) == 3
    # removing the arc 2->3 forces the long way round, which does not exist
    a = g.arc_index(2, 3)
    assert distance_avoiding_arc(g, 0, 3, a) == UNREACHABLE
    assert distance_avoiding_arc(g, 0, 2, a) == 2


def test_distances_from_avoiding_arc_matches_pointwise():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_oriented(rng, 6)
        for a in range(min(3, g.m)):
            row = distances_from_avoiding_arc(g, 2 % g.n, a)
            for v in range(g.n):
                assert row[v] == distance_avoiding_arc(g, 2 % g.n, v, a)


def test_sources_and_sinks():
    g = directed_path(4)
    sources, sinks = g.sources_and_sinks()
    assert sources == frozenset({0}) and sinks == frozenset({3})
    c = cycle_c0(4)
    assert c.sources_and_sinks() == (frozenset(), frozenset())


def test_components_and_reverse():
    g = OrientedGraph(5, ((0, 1), (2, 3)))
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert not g.is_weakly_connected()
    r = g.reverse()
    assert set(r.arcs) == {(1, 0), (3, 2)}
    assert r.reverse().arcs == g.arcs


def test_underlying_and_bipartition():
    g = cycle_c0(6)
    G = g.underlying()
    parts = G.bipartition()
    assert parts is not None
    a, b = parts
    assert a | b == frozenset(range(6)) and not (a & b)
    assert UndirectedGraph(3, ((0, 1), (1, 2), (0, 2))).bipartition() is None


def test_shortest_path_counts():
    # two parallel length-2 routes from 0 to 3
    g = OrientedGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    sigma = g.shortest_path_counts(0)
    assert sigma[3] == 2 and sigma[1] == sigma[2] == 1


def _girth(G):
    """The girth by the deletion oracle: an edge (u, v) on a cycle closes
    one of length d(u, v) + 1 once it is removed; UNREACHABLE if acyclic."""
    return min((distances_from_avoiding_edge(G, u, e)[v] + 1 for e, (u, v) in enumerate(G.edges)),
               default=UNREACHABLE)


def test_find_shortest_cycle():
    assert find_shortest_cycle(UndirectedGraph(4, ((0, 1), (1, 2), (2, 3)))) is None
    cyc = find_shortest_cycle(UndirectedGraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))))
    assert cyc is not None and len(cyc) == 3 and set(cyc) == {0, 1, 2}
    graphs = []
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        graphs += [UndirectedGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))
                   for bits in range(1 << len(pairs))]
    rng = random.Random(11)
    for _ in range(200):  # disconnected when the sample misses a spanning tree
        n = rng.randint(3, 12)
        pairs = list(combinations(range(n), 2))
        graphs.append(UndirectedGraph(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))))
    for G in graphs:
        girth = _girth(G)
        cyc = find_shortest_cycle(G)
        if cyc is None:
            assert girth == UNREACHABLE
            continue
        assert len(set(cyc)) == len(cyc) == girth >= 3
        edge_set = {frozenset(e) for e in G.edges}
        # consecutive vertices are adjacent, and no other two of them are
        for i, j in combinations(range(len(cyc)), 2):
            assert (frozenset((cyc[i], cyc[j])) in edge_set) == ((j - i) % len(cyc) in (1, len(cyc) - 1))


def test_unreachable_is_infinite():
    assert math.isinf(UNREACHABLE)
