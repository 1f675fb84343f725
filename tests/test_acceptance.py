"""Acceptance suite: ten end-to-end checks, one printed PASS line each.

Every expected value is either a closed form verified exactly or is
cross-checked against an independent brute-force oracle; nothing here
trusts the solver under test to judge itself.
"""
import io
import json
import random
import sys
import time
from itertools import combinations

import pytest

from magsets import (
    Nae3SatInstance,
    OrientedGraph,
    UndirectedGraph,
    VertexCoverInstance,
    brute_nae3sat,
    brute_vertex_cover,
    extract_vertex_cover,
    forced_vertices,
    is_extremal,
    is_mag_set,
    mag_plus_at_least_n,
    min_mag_set,
    min_meg_set,
    monitors_directed,
    monitors_directed_by_counting,
    orient,
    spectrum,
    vc_to_mag_instance,
    verify_nae_reduction,
    verify_vc_reduction,
    write_edge_list,
)
from magsets.cli import main as cli_main
from magsets.families import (
    construction_gj,
    cycle_c0,
    cycle_c1,
    cycle_c2,
    cycle_c3,
    directed_path,
    flipped_tournament,
    rooted_tree_orientation,
    transitive_tournament,
)
from magsets.errors import BadParamError

from helpers import (
    all_oriented_graphs,
    brute_min_mag,
    random_connected_oriented,
    random_oriented,
    random_tree,
)


def _cli_json(argv, stdin_text):
    """Drive the CLI entry point exactly as a shell pipe would."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        rc = cli_main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    assert rc == 0, f"cli exited {rc}"
    return json.loads(out)


def _report(label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def test_c01_cycle_closed_forms():
    """Oriented-cycle minimums through the CLI: 2 / 4 / 3 / #extremes."""
    started = time.perf_counter()
    cases = 0
    for n in range(3, 10):
        expect = {cycle_c0(n): 2}
        if n % 2 == 0:
            expect[cycle_c1(n)] = 4
        for d in range(1, n):
            if 2 * d != n:
                expect[cycle_c2(n, d)] = 3
        for k in range(2, n // 2 + 1):
            for srcs in combinations(range(n), k):
                try:
                    g = cycle_c3(n, list(srcs))
                except BadParamError:
                    continue
                sources, sinks = g.sources_and_sinks()
                expect[g] = len(sources) + len(sinks)
        for g, want in expect.items():
            report = _cli_json(["mag", "-"], write_edge_list(g))
            assert report["result"]["size"] == want, (n, g.arcs, want)
            cases += 1
    assert cases >= 50
    _report("criterion 1: cycle orientation closed forms", started, 10)


def test_c02_cycle_spectra():
    """Spectrum of the undirected cycle through the CLI."""
    started = time.perf_counter()
    for n in range(3, 11):
        C = UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        report = _cli_json(["spectrum", "-", "--threads", "1"], write_edge_list(C))
        res = report["result"]
        expected = {3} | {2 * k for k in range(1, n // 2 + 1)}
        assert set(res["spectrum"]) == expected, n
        assert res["mag_minus"] == 2
        if n == 3:
            assert res["mag_plus"] == 3
        elif n % 2 == 0:
            assert res["mag_plus"] == n
        else:
            assert res["mag_plus"] == n - 1
    _report("criterion 2: cycle spectra", started, 120)


def test_c03_trees():
    """Oriented trees: the unique minimum is the source/sink set."""
    started = time.perf_counter()
    rng = random.Random(0)
    for _ in range(200):
        T = random_tree(rng, rng.randint(4, 12))
        for _ in range(5):
            g = orient(T, rng.getrandbits(T.m))
            sources, sinks = g.sources_and_sinks()
            res = min_mag_set(g)
            assert res.size == len(sources) + len(sinks)
            assert set(res.witness) == sources | sinks
        # rooting at a leaf: the minimum equals the leaf count
        degree = [0] * T.n
        for u, v in T.edges:
            degree[u] += 1
            degree[v] += 1
        leaves = [v for v in range(T.n) if degree[v] == 1]
        rooted = rooted_tree_orientation(T, leaves[0])
        assert min_mag_set(rooted).size == len(leaves)
    _report("criterion 3: oriented trees", started, 60)


def test_c04_tournaments():
    """All tournaments sit in the band {n-1, n}; both ends are attained."""
    started = time.perf_counter()
    for n in range(3, 6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            arcs = tuple(
                (i, j) if mask >> idx & 1 else (j, i)
                for idx, (i, j) in enumerate(slots)
            )
            size = min_mag_set(OrientedGraph(n, arcs)).size
            assert size in (n - 1, n), arcs
    rng = random.Random(0)
    for _ in range(200):
        n = 6
        arcs = tuple(
            (i, j) if rng.random() < 0.5 else (j, i)
            for i, j in combinations(range(n), 2)
        )
        assert min_mag_set(OrientedGraph(n, arcs)).size in (n - 1, n)
    for n in range(3, 7):
        assert min_mag_set(transitive_tournament(n)).size == n
        f = flipped_tournament(n)
        assert min_mag_set(f).size == n - 1
        assert is_mag_set(f, range(n - 1))[0]  # the first n-1 vertices suffice
    _report("criterion 4: tournament band", started, 180)


def test_c05_extremal_characterization():
    """The local extremality test agrees with exact size everywhere."""
    started = time.perf_counter()
    checked = 0
    for n in range(2, 6):
        for g in all_oriented_graphs(n):
            if g.m == 0 or not g.is_weakly_connected():
                continue
            # mag < n iff dropping some single vertex still monitors all arcs
            has_smaller = any(
                is_mag_set(g, [u for u in range(n) if u != v])[0]
                for v in range(n)
            )
            assert is_extremal(g)[0] == (not has_smaller), g.arcs
            checked += 1
    rng = random.Random(0)
    for _ in range(500):
        g = random_connected_oriented(rng, rng.randint(2, 7))
        full = min_mag_set(g).size == g.n
        assert is_extremal(g)[0] == full, g.arcs
        # the spectrum scan's n - 1 ceiling rests on this
        assert (len(forced_vertices(g).vertices) == g.n) == full, g.arcs
    assert checked > 40000
    _report("criterion 5: extremal characterization", started, 300)


def test_c06_gap_construction():
    """The hub-and-pendant family separates meg from the orientation minimum."""
    started = time.perf_counter()
    for j in (1, 2):
        G = construction_gj(j)
        sp = spectrum(G)
        meg = min_meg_set(G).size
        assert sp.mag_minus == j + 3
        assert meg == j + 2
        assert meg < sp.mag_minus
    _report("criterion 6: meg < mag over all orientations", started, 60)


def _random_connected_bipartite(rng, max_edges=14):
    # a random tree is connected and bipartite; pad with cross-class edges
    n = rng.randint(5, 10)
    T = random_tree(rng, n)
    parts = T.bipartition()
    a, b = parts
    edges = set(T.edges)
    candidates = [
        (min(u, v), max(u, v)) for u in sorted(a) for v in sorted(b)
        if (min(u, v), max(u, v)) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates:
        if len(edges) >= max_edges or rng.random() < 0.5:
            break
        edges.add(e)
    return UndirectedGraph(n, tuple(sorted(edges)))


def test_c07_bipartite_maximum():
    """Bipartite graphs always admit an orientation of maximum mag."""
    started = time.perf_counter()
    rng = random.Random(0)
    graphs = [_random_connected_bipartite(rng) for _ in range(50)]
    for G in graphs:
        assert G.bipartition() is not None
        assert mag_plus_at_least_n(G)
    for G in sorted(graphs, key=lambda G: G.m)[:10]:
        assert spectrum(G).mag_plus == G.n
    _report("criterion 7: bipartite maximum orientation", started, 120)


def _all_small_nae_instances():
    """Every monotone instance with <= 2 clauses whose variables are 0..n-1."""
    for n in range(3, 7):
        triples = list(combinations(range(n), 3))
        if n == 3:
            yield Nae3SatInstance(3, (frozenset(triples[0]),))
        for c1, c2 in combinations(triples, 2):
            if len(set(c1) | set(c2)) == n:
                yield Nae3SatInstance(n, (frozenset(c1), frozenset(c2)))


def test_c08_nae_reduction():
    """Gadget orientability to mag = n matches brute NAE satisfiability."""
    started = time.perf_counter()
    count = sat_seen = 0
    for phi in _all_small_nae_instances():
        assert verify_nae_reduction(phi), phi
        if brute_nae3sat(phi):
            sat_seen += 1
        count += 1
    assert count == 32 and sat_seen == count  # 1 + 6 + 15 + 10 instances
    # with <= 2 three-variable clauses every instance is satisfiable (pick a
    # shared variable true and any other false, or one mixed pick per clause),
    # so the unsatisfiable side is exercised through the assignment oracle on
    # the smallest non-2-colorable triple system: the 7-point projective plane
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
    _report("criterion 8: NAE gadget equivalence", started, 300)


def test_c09_vertex_cover_reduction():
    """Gadget threshold matches brute vertex cover; a cover is extractable."""
    started = time.perf_counter()
    inputs = [
        UndirectedGraph(2, ((0, 1),)),
        UndirectedGraph(3, ((0, 1), (1, 2))),
        UndirectedGraph(3, ((0, 1), (1, 2), (0, 2))),
        UndirectedGraph(4, ((0, 1), (1, 2), (2, 3))),
    ]
    for G in inputs:
        for k in range(G.n + 1):
            assert verify_vc_reduction(VertexCoverInstance(G, k)), (G.edges, k)
    triangle = inputs[2]
    inst = VertexCoverInstance(triangle, 2)
    art = vc_to_mag_instance(inst)
    res = min_mag_set(art.graph)
    assert res.optimal and res.size <= art.target
    cover = extract_vertex_cover(inst, art, res.coverage)
    assert len(cover) <= 2
    assert all(u in cover or v in cover for u, v in triangle.edges)
    _report("criterion 9: vertex-cover gadget equivalence", started, 300)


def test_c10_property_suite():
    """Randomized cross-checks against independent oracles; zero violations."""
    started = time.perf_counter()
    rng = random.Random(0)
    cases = 0

    # forcing soundness: forced vertices appear in every minimum MAG-set
    for _ in range(250):
        g = random_connected_oriented(rng, rng.randint(3, 7))
        forced = forced_vertices(g).vertices
        size, _ = brute_min_mag(g)
        for combo in combinations(range(g.n), size):
            if is_mag_set(g, combo)[0]:
                assert forced <= set(combo), g.arcs
        cases += 1

    # deletion test vs shortest-path counting
    for _ in range(300):
        g = random_connected_oriented(rng, rng.randint(4, 10))
        for _ in range(10):
            a = rng.randrange(g.m)
            x = rng.randrange(g.n)
            y = rng.randrange(g.n)
            if x == y:
                continue
            assert monitors_directed(g, x, y, a) == monitors_directed_by_counting(g, x, y, a)
        cases += 1

    # reversing every arc preserves mag
    for _ in range(200):
        g = random_connected_oriented(rng, rng.randint(3, 7))
        assert min_mag_set(g).size == min_mag_set(g.reverse()).size
        cases += 1

    # additivity over weakly connected components
    for _ in range(100):
        g = random_oriented(rng, rng.randint(8, 10), p=0.15)
        total = 0
        for comp in g.components():
            verts = sorted(comp)
            local = {v: i for i, v in enumerate(verts)}
            sub = OrientedGraph(
                len(verts), tuple((local[u], local[v]) for u, v in g.arcs if u in comp)
            )
            total += min_mag_set(sub).size
        assert min_mag_set(g).size == total
        cases += 1

    # solver vs exhaustive subset oracle
    for _ in range(200):
        g = random_connected_oriented(rng, rng.randint(3, 8))
        assert min_mag_set(g).size == brute_min_mag(g)[0]
        cases += 1

    assert cases >= 1000
    _report("criterion 10: randomized property suite", started, 600)
