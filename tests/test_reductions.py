import random
from itertools import combinations

import pytest

from magsets import (
    BadParamError,
    BudgetExceededError,
    InvalidInstanceError,
    Nae3SatInstance,
    TooManyEdgesError,
    UndirectedGraph,
    VertexCoverInstance,
    brute_nae3sat,
    brute_vertex_cover,
    extract_nae_assignment,
    extract_vertex_cover,
    is_mag_set,
    min_mag_set,
    mag_plus_at_least_n,
    nae3sat_to_graph,
    parse_nae3sat,
    spectrum,
    orient,
    vc_to_mag_instance,
    verify_nae_reduction,
    verify_vc_reduction,
    write_nae3sat,
)

from helpers import random_connected_undirected


def all_monotone_instances(num_vars, num_clauses):
    clauses = list(combinations(range(num_vars), 3))
    for combo in combinations(clauses, num_clauses):
        phi = Nae3SatInstance(num_vars, tuple(frozenset(c) for c in combo))
        if len({v for c in combo for v in c}) == num_vars:
            yield phi


def test_nae_graph_counts():
    phi = Nae3SatInstance(4, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))
    art = nae3sat_to_graph(phi)
    n, m = phi.num_vars, len(phi.clauses)
    assert art.graph.n == n + 3 * m
    assert art.graph.m == 6 * m
    assert art.roles[0] == "x1" and art.roles[n] == "c1,1"


def test_nae_round_trip_format():
    phi = Nae3SatInstance(5, (frozenset({0, 1, 4}), frozenset({1, 2, 3})))
    assert parse_nae3sat(write_nae3sat(phi)) == phi


def test_nae_reduction_iff_small():
    # every monotone instance with at most two clauses (all are satisfiable)
    count = 0
    for m in (1, 2):
        for phi in all_monotone_instances(3 * m, m):
            assert verify_nae_reduction(phi)
            count += 1
    assert count > 0


def test_nae_assignment_extraction():
    phi = Nae3SatInstance(4, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))
    art = nae3sat_to_graph(phi)
    G = art.graph
    # find any orientation realizing mag = n and read an assignment off it
    for mask in range(1 << G.m):
        g = orient(G, mask)
        if min_mag_set(g).size == G.n:
            assignment = extract_nae_assignment(phi, g)
            for clause in phi.clauses:
                values = {assignment[v] for v in clause}
                assert values == {True, False}
            break
    else:
        pytest.fail("no extremal orientation found")


def test_nae_unsatisfiable_oracle():
    # the Fano-plane instance is the smallest classic monotone NAE-unsat case
    fano = Nae3SatInstance(
        7,
        tuple(
            frozenset(c)
            for c in [
                (0, 1, 2), (0, 3, 4), (0, 5, 6),
                (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
            ]
        ),
    )
    assert not brute_nae3sat(fano)
    assert brute_nae3sat(Nae3SatInstance(3, (frozenset({0, 1, 2}),)))


def test_nae_negative_edge_cap_rejected():
    # a negative cap is a bad parameter, not a cap that the gadget exceeds
    phi = Nae3SatInstance(3, (frozenset({0, 1, 2}),))
    with pytest.raises(BadParamError):
        verify_nae_reduction(phi, max_edges=-1)
    assert verify_nae_reduction(phi, max_edges=6)


def test_nae_edge_cap_applies_per_component():
    # four disjoint clauses: 24 gadget edges in four components of 6 edges,
    # each within the default cap of 20; a cap below 6 rejects a component
    phi = Nae3SatInstance(12, tuple(frozenset({3 * i, 3 * i + 1, 3 * i + 2}) for i in range(4)))
    assert nae3sat_to_graph(phi).graph.m == 24
    assert verify_nae_reduction(phi)
    assert verify_nae_reduction(phi, max_edges=6)
    with pytest.raises(TooManyEdgesError):
        verify_nae_reduction(phi, max_edges=5)


def test_nae_requires_all_variables_used():
    phi = Nae3SatInstance(5, (frozenset({0, 1, 2}),))
    with pytest.raises(InvalidInstanceError):
        verify_nae_reduction(phi)


def test_vc_instance_counts():
    G = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    inst = VertexCoverInstance(G, 2)
    art = vc_to_mag_instance(inst)
    n, m = G.n, G.m
    assert art.graph.n == 4 * n + 3 * m
    assert art.graph.m == 3 * n + 6 * m  # three arcs per vertex, six per edge
    assert art.target == inst.k + 2 * n + 2 * m


def test_vc_gadget_is_acyclic_and_forced():
    from magsets import forced_vertices

    G = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    art = vc_to_mag_instance(VertexCoverInstance(G, 2))
    g = art.graph
    # no directed cycles: every arc goes from a lower to a higher layer
    assert g.sources_and_sinks() != (frozenset(), frozenset())
    forced = forced_vertices(g).vertices
    assert art.forced_roles <= forced


def test_vc_forced_set_monitors_with_cover():
    G = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    inst = VertexCoverInstance(G, 2)
    art = vc_to_mag_instance(inst)
    has_cover, cover = brute_vertex_cover(inst)
    assert has_cover
    c0 = art.graph.n - G.n  # c-block offset: last n vertices mirror V(G)
    candidate = set(art.forced_roles) | {c0 + v for v in cover}
    assert is_mag_set(art.graph, candidate)[0]
    assert len(candidate) <= art.target


def test_vc_reduction_iff_random():
    rng = random.Random(53)
    for _ in range(6):
        G = random_connected_undirected(rng, 5, extra=2)
        for k in (0, 1, 2, 3):
            assert verify_vc_reduction(VertexCoverInstance(G, k))


def test_vc_verdict_needs_a_decided_search():
    # on P5 the gadget's mag is 20; one search node leaves a 21-vertex
    # cover, which decides the target 21 (k = 3) but not 20 (k = 2)
    G = UndirectedGraph(5, ((0, 1), (0, 2), (1, 4), (2, 3)))
    assert verify_vc_reduction(VertexCoverInstance(G, 2))
    with pytest.raises(BudgetExceededError):
        verify_vc_reduction(VertexCoverInstance(G, 2), max_nodes=1)
    assert verify_vc_reduction(VertexCoverInstance(G, 3), max_nodes=1)


def test_vc_extraction_round_trip():
    rng = random.Random(59)
    for _ in range(4):
        G = random_connected_undirected(rng, 5, extra=1)
        k = len(brute_vertex_cover(VertexCoverInstance(G, G.n))[1])
        inst = VertexCoverInstance(G, k)
        art = vc_to_mag_instance(inst)
        res = min_mag_set(art.graph)
        assert res.size <= art.target
        cover = extract_vertex_cover(inst, art, res.coverage)
        assert len(cover) <= k
        assert all(u in cover or v in cover for u, v in G.edges)


def test_brute_vertex_cover_minimality():
    G = UndirectedGraph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    ok, cover = brute_vertex_cover(VertexCoverInstance(G, 2))
    assert ok and set(cover) == {0, 3}
    ok, _ = brute_vertex_cover(VertexCoverInstance(G, 1))
    assert not ok
