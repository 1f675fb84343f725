import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsets import (
    BadParamError,
    OrientedGraph,
    UndirectedGraph,
    VertexCoverInstance,
    forced_vertices,
    is_mag_set,
    mag_lower_bound,
    min_mag_set,
    min_meg_set,
    orient,
    parse_edge_list,
    spectrum,
    verify_vc_reduction,
)
from magsets.cover import greedy_cover, solve_cover_branch_bound, solve_cover_sweep, sweeps
from magsets.families import (
    cycle_c0,
    cycle_c1,
    cycle_c2,
    cycle_c3,
    directed_path,
    flipped_tournament,
    transitive_tournament,
)

import helpers
from helpers import (
    brute_min_mag,
    cycle_with_chord,
    mag_problem,
    random_connected_oriented,
    random_connected_undirected,
    random_oriented,
)


def test_empty_and_trivial():
    res = min_mag_set(OrientedGraph(3, ()))
    assert res.size == 0 and res.witness == ()
    res = min_mag_set(OrientedGraph(2, ((0, 1),)))
    assert res.size == 2 and set(res.witness) == {0, 1}


def test_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected_oriented(rng, 6)
        size, _ = brute_min_mag(g)
        res = min_mag_set(g)
        assert res.optimal and res.size == size
        assert is_mag_set(g, res.witness)[0]


def test_strategies_agree():
    # both engines on each graph's forced, bounded cover problem
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_oriented(rng, 7)
        forced = forced_vertices(g).vertices
        problem = mag_problem(g, forced, mag_lower_bound(g, forced))
        sweep, bnb = solve_cover_sweep(problem), solve_cover_branch_bound(problem)
        assert sweep.optimal and bnb.optimal
        assert sweep.size == bnb.size == min_mag_set(g).size
        assert is_mag_set(g, sweep.witness)[0] and is_mag_set(g, bnb.witness)[0]


@pytest.mark.parametrize("engine, max_nodes", [("sweep", 1), ("bnb", 1), ("bnb", 10_000_000)])
def test_pair_rows_built_once_per_solve(monkeypatch, engine, max_nodes):
    # each case reads the pair table in the search and in the greedy: a
    # search out of budget falls back on the greedy, branch-and-bound starts
    # from it; the table is built once, from the kernel rows
    from magsets import solver

    calls = []
    pair_table = solver._pair_table
    monkeypatch.setattr(solver, "_pair_table", lambda rows: calls.append(rows) or pair_table(rows))
    if engine == "sweep":
        g = random_connected_oriented(random.Random(1), 10, p=0.4)
    else:
        g = cycle_with_chord(30, 15)
    assert sweeps(g.n, len(forced_vertices(g).vertices)) == (engine == "sweep")
    res = min_mag_set(g, max_nodes=max_nodes)
    assert res.optimal == (max_nodes > 1)
    assert is_mag_set(g, res.witness)[0]
    assert len(calls) == 1


# (size, nodes, optimal, witness) under a 20,000-node budget for random
# orientations of connected 40-vertex, 70-edge graphs, as the search that
# enters every node found them: a change in search order moves a node count,
# or the best cover held when the budget runs out
GOLDEN_SEARCHES = {
    0: (23, 89, True, (0, 4, 5, 7, 11, 12, 14, 15, 16, 17, 18, 22, 23, 24, 25, 26, 30, 31,
                       32, 33, 34, 36, 39)),
    2: (23, 549, True, (0, 2, 3, 5, 6, 8, 10, 11, 13, 14, 15, 18, 21, 23, 26, 27, 28, 29, 31,
                        34, 36, 37, 39)),
    187: (18, 923, True, (0, 3, 7, 9, 11, 12, 14, 16, 22, 24, 26, 29, 30, 32, 34, 35, 38, 39)),
    91: (17, 1089, True, (4, 5, 8, 9, 10, 12, 15, 16, 18, 19, 22, 23, 24, 30, 32, 33, 35)),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEARCHES))
def test_golden_node_counts(seed):
    rng = random.Random(seed)
    G = random_connected_undirected(rng, 40, extra=31)
    g = orient(G, rng.getrandbits(G.m))
    res = min_mag_set(g, max_nodes=20_000)
    # every seed leaves more than 15 vertices free, so every one branches
    # and bounds; seeds 0 and 2 leave at most 24, which the sweep took once
    # (11,379 nodes to 23, and out of budget at 25)
    assert g.n - len(res.forced) > 15 and (g.n - len(res.forced) <= 24) == (seed in (0, 2))
    assert (res.size, res.nodes, res.optimal, res.witness) == GOLDEN_SEARCHES[seed]
    assert is_mag_set(g, res.witness)[0]


@pytest.mark.parametrize("seed", [0, 2, 187, 91])
def test_branch_bound_matches_reference_on_golden_graphs(seed):
    # the property tests stop at 14 vertices; on these 40-vertex searches the
    # reference, which enters every node and ORs each set's rows, stops at
    # the same node with the same cover held, at the start and at the end
    rng = random.Random(seed)
    G = random_connected_undirected(rng, 40, extra=31)
    g = orient(G, rng.getrandbits(G.m))
    forced = forced_vertices(g).vertices
    problem = mag_problem(g, forced, mag_lower_bound(g, forced))
    known = greedy_cover(problem)
    whole = helpers.solve_cover_branch_bound(problem, 20_000, known)
    assert (whole.size, whole.nodes, whole.optimal, whole.witness) == GOLDEN_SEARCHES[seed]
    total = whole.nodes
    for budget in (1, 2, total - 1, total):
        assert solve_cover_branch_bound(problem, budget, known) == helpers.solve_cover_branch_bound(
            problem, budget, known
        )


BENCH = Path(__file__).parents[1] / "bench"


# the search pool under its node budget, with exclusion branching, the
# cut at a node with an uncoverable target, branch-and-bound above 15 free
# vertices and its stop at the lower bound: how many members are proven
# optimal, and the nodes of all of them together
SEARCH_POOL_PROVEN, SEARCH_POOL_NODES = 319, 193_260
# the members that the reference's sweep regime still sweeps, which the
# exact-match clause checks: none, since every member has at least 16
# free vertices and so is searched by branch-and-bound
SEARCH_POOL_SWEPT = 0


def test_search_pool_matches_reference(monkeypatch):
    # ``bench/reference.json`` holds each member's node count, optimality and
    # size from the search without exclusion branching, which swept at most
    # 24 free vertices: a member the sweep still searches matches it, every
    # member it proves is proven at the same size, and none takes more nodes
    # or returns a larger cover
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    reference = json.loads((BENCH / "reference.json").read_text())["search"]
    pool = workloads.search_pool()
    assert sorted(pool) == sorted(reference) and len(pool) == 320
    proven = nodes = swept = 0
    for key, text in pool.items():
        entry = reference[key]
        assert workloads.digest(text) == entry["digest"]
        g = parse_edge_list(text)
        res = min_mag_set(g, max_nodes=workloads.SEARCH_BUDGET)
        if entry["regime"] == "sweep" and sweeps(g.n, len(res.forced)):
            assert (res.nodes, res.optimal, res.size) == (entry["nodes"], entry["optimal"], entry["size"])
            swept += 1
        assert res.nodes <= entry["nodes"] and res.size <= entry["size"], key
        if entry["optimal"]:
            assert res.optimal and res.size == entry["size"], key
        proven += res.optimal
        nodes += res.nodes
    assert (proven, nodes) == (SEARCH_POOL_PROVEN, SEARCH_POOL_NODES)
    assert swept == SEARCH_POOL_SWEPT


def test_component_additivity():
    rng = random.Random(31)
    for _ in range(15):
        g = random_oriented(rng, 8, p=0.25)
        res = min_mag_set(g)
        pieces = sum(
            min_mag_set(sub).size for sub in _induced_components(g)
        )
        assert res.size == pieces
        assert is_mag_set(g, res.witness)[0] or g.m == 0


def _induced_components(g):
    for comp in g.components():
        verts = sorted(comp)
        local = {v: i for i, v in enumerate(verts)}
        yield OrientedGraph(
            len(verts), tuple((local[u], local[v]) for u, v in g.arcs if u in comp)
        )


def test_coverage_certificate_is_valid():
    rng = random.Random(41)
    for _ in range(15):
        g = random_connected_oriented(rng, 6)
        res = min_mag_set(g)
        assert set(res.coverage) == set(range(g.m))
        from magsets import pair_monitors

        for a, (x, y) in res.coverage.items():
            assert x in res.witness and y in res.witness
            assert pair_monitors(g, x, y, a)


def test_greedy_is_valid_upper_bound():
    rng = random.Random(47)
    for _ in range(25):
        g = random_connected_oriented(rng, 7)
        witness = greedy_cover(mag_problem(g, forced_vertices(g).vertices, 0))
        assert is_mag_set(g, witness)[0]
        assert len(witness) >= min_mag_set(g).size


def test_budget_exhaustion_degrades_gracefully():
    g = random_connected_oriented(random.Random(1), 10, p=0.4)
    res = min_mag_set(g, max_nodes=1)
    assert not res.optimal
    assert is_mag_set(g, res.witness)[0]
    assert len(res.forced) <= res.lower <= min_mag_set(g).size


P5 = UndirectedGraph(5, ((0, 1), (0, 2), (1, 4), (2, 3)))
ONE_VERTEX = UndirectedGraph(1, ())


@pytest.mark.parametrize("solve, arg", [
    (min_mag_set, cycle_c0(5)),
    (min_mag_set, OrientedGraph(3, ())),
    (min_mag_set, OrientedGraph(1, ())),
    (min_meg_set, P5),
    (min_meg_set, ONE_VERTEX),
    (spectrum, P5),
    (spectrum, ONE_VERTEX),
    (verify_vc_reduction, VertexCoverInstance(P5, 2)),
    (verify_vc_reduction, VertexCoverInstance(ONE_VERTEX, 0)),
], ids=["mag", "mag-arcless", "mag-one-vertex", "meg", "meg-one-vertex", "spectrum",
        "spectrum-one-vertex", "vc", "vc-one-vertex"])
def test_zero_budget_rejected(solve, arg):
    # a budget must allow one node, whichever path the solve takes, even on
    # an input that needs no search
    with pytest.raises(BadParamError, match="node budget must be positive"):
        solve(arg, max_nodes=0)


def test_covering_forced_set_builds_only_its_rows(monkeypatch):
    # the forced ends of a directed path cover every arc: the solve builds
    # their two kernel rows only, the certificate reads them, and it enters
    # no search node, whether the engine would sweep (P_7) or branch over
    # the free vertices (P_28, 26 of them)
    from magsets import monitoring

    sources = []
    row = monitoring._sole_route_row
    monkeypatch.setattr(monitoring, "_sole_route_row", lambda adj, x: sources.append(x) or row(adj, x))
    for n in (7, 28):
        sources.clear()
        res = min_mag_set(directed_path(n))
        assert (res.size, res.witness, res.optimal, res.nodes, res.lower) == (2, (0, n - 1), True, 0, 2)
        assert res.coverage == {a: (0, n - 1) for a in range(n - 1)}
        assert sorted(sources) == [0, n - 1]


def test_cycle_closed_forms():
    for n in range(3, 10):
        assert min_mag_set(cycle_c0(n)).size == 2
    for n in range(4, 11, 2):
        assert min_mag_set(cycle_c1(n)).size == 4
    for n in range(3, 10):
        for d in range(1, n):
            if 2 * d != n:
                assert min_mag_set(cycle_c2(n, d)).size == 3
    for n in range(6, 11):
        g = cycle_c3(n, [0, n // 2])
        sources, sinks = g.sources_and_sinks()
        assert len(sources) == len(sinks) == 2
        assert min_mag_set(g).size == 4


def test_tournament_band():
    for n in range(3, 8):
        assert min_mag_set(transitive_tournament(n)).size == n
        res = min_mag_set(flipped_tournament(n))
        assert res.size == n - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**15 - 1), st.integers(3, 6))
def test_forced_subset_of_witness(bits, n):
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arcs = []
    for idx, (i, j) in enumerate(slots):
        if bits >> idx & 1:
            arcs.append((i, j) if bits >> (idx + 15) & 1 else (j, i))
    g = OrientedGraph(n, tuple(arcs))
    res = min_mag_set(g)
    assert res.forced <= set(res.witness)
    assert is_mag_set(g, res.witness)[0] or g.m == 0
