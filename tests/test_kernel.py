"""The shortest-path-DAG monitoring kernel and the set check against the
deletion and path-counting oracles; the bitset forcing rules, the trusted
orientation, the solve's certificate, the parallel spectrum and the cover
searches against their references; MEG optimality by exhaustion and its
flag, the per-component certificate of disconnected graphs, the shared
budget fallback and CLI input handling."""
import copy
import dataclasses
import io
import json
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsets import (
    BadParamError,
    MagResult,
    OrientedGraph,
    UndirectedGraph,
    edge_monitors_undirected,
    forced_vertices,
    is_extremal,
    is_mag_set,
    mag_lower_bound,
    min_mag_set,
    min_meg_set,
    monitors_directed,
    monitors_directed_by_counting,
    orient,
    pair_table,
    spectrum,
    write_edge_list,
)
from magsets import monitoring
from magsets.cli import build_parser, main
from magsets.cover import (
    CoverProblem,
    greedy_cover,
    solve_cover_branch_bound,
    solve_cover_sweep,
    sweeps,
)
from magsets.families import directed_path

import helpers
from helpers import (
    cycle_with_chord,
    deletion_arc_pairs,
    deletion_pair_table,
    mag_problem,
    random_connected_undirected,
    random_oriented,
    set_forced_reasons,
    set_is_extremal,
    undirected_deletion_pair_table,
)


@st.composite
def oriented_graphs(draw, max_n: int = 12) -> OrientedGraph:
    """Any oriented graph on at most ``max_n`` vertices: each vertex pair is
    absent, forward or backward, so arcless and disconnected graphs occur."""
    n = draw(st.integers(0, max_n))
    slots = list(combinations(range(n), 2))
    states = draw(st.lists(st.integers(0, 2), min_size=len(slots), max_size=len(slots)))
    arcs = [(i, j) if s == 1 else (j, i) for (i, j), s in zip(slots, states) if s]
    return OrientedGraph(n, tuple(arcs))


def _answers(g: OrientedGraph) -> list[tuple[bool, bool]]:
    return [
        (monitors_directed(g, x, y, a), monitors_directed_by_counting(g, x, y, a))
        for x in range(g.n)
        for y in range(g.n)
        if x != y
        for a in range(g.m)
    ]


def test_unreachable_compared_by_value_after_pickle():
    g = OrientedGraph(4, ((0, 1), (2, 1), (2, 3)))
    assert g.distance(0, 3) == float("inf")  # fills the distance cache
    h = pickle.loads(pickle.dumps(g))
    assert not any(monitors_directed_by_counting(h, 0, 3, a) for a in range(h.m))


@settings(max_examples=40, deadline=None)
@given(oriented_graphs(max_n=7))
def test_monitoring_survives_pickle_and_deepcopy(g):
    before = _answers(g)
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert _answers(h) == before
        assert pair_table(h) == pair_table(g)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_matrix_matches_deletion_oracle(g):
    assert pair_table(g) == deletion_pair_table(g)


def _counting_pair_table(g: OrientedGraph) -> list[list[int]]:
    """``table[x][y]``: the arcs that the path-counting test puts on every
    shortest x->y or y->x path."""
    def monitors(x: int, y: int, a: int) -> bool:
        return monitors_directed_by_counting(g, x, y, a) or monitors_directed_by_counting(g, y, x, a)

    return [
        [sum(1 << a for a in range(g.m) if x != y and monitors(x, y, a)) for y in range(g.n)]
        for x in range(g.n)
    ]


@settings(max_examples=30, deadline=None)
@given(oriented_graphs(max_n=9))
def test_matrix_matches_counting_oracle(g):
    assert pair_table(g) == _counting_pair_table(g)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_undirected_masks_match_deletion_oracle(g):
    G = g.underlying()
    table = pair_table(G)
    assert table == undirected_deletion_pair_table(G)
    for x, y in combinations(range(G.n), 2):
        for e in range(G.m):
            assert edge_monitors_undirected(G, x, y, e) == bool(table[x][y] >> e & 1)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs(), st.data())
def test_is_mag_set_uncovered_matches_deletion_oracle(g, data):
    keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    inside = {v for v, k in enumerate(keep) if k}
    members = data.draw(st.permutations(sorted(inside)))  # in any order
    uncovered = frozenset(
        a for a, pairs in enumerate(deletion_arc_pairs(g)) if not any({x, y} <= inside for x, y in pairs)
    )
    for vertices in (members, tuple(members), iter(members)):  # read once, in any form
        assert is_mag_set(g, vertices) == (not uncovered, uncovered)


def test_is_mag_set_builds_only_its_rows(monkeypatch):
    # the two ends of the 600-vertex directed path monitor every arc:
    # checking them builds their two kernel rows, not the whole table's 600
    sources = []
    row = monitoring._sole_route_row
    monkeypatch.setattr(monitoring, "_sole_route_row", lambda adj, x: sources.append(x) or row(adj, x))
    assert is_mag_set(directed_path(600), (0, 599)) == (True, frozenset())
    assert sorted(sources) == [0, 599]


C8_CHORD = UndirectedGraph(8, tuple((i, (i + 1) % 8) for i in range(8)) + ((0, 4),))


def _is_meg_set(G: UndirectedGraph, witness) -> bool:
    table = undirected_deletion_pair_table(G)
    covered = 0
    for x, y in combinations(sorted(witness), 2):
        covered |= table[x][y]
    return covered == (1 << G.m) - 1


def test_meg_reports_unproven_answer():
    res = min_meg_set(C8_CHORD, max_nodes=1)
    assert not res.optimal and res.size < 8 and res.size == len(res.witness)
    assert _is_meg_set(C8_CHORD, res.witness)
    res = min_meg_set(C8_CHORD)
    assert res.optimal and res.size == 4 and res.nodes > 0


def test_meg_branch_and_bound_starts_from_the_greedy():
    # more than 24 free vertices, above the sweep's 15, so the search is
    # branch-and-bound, and it starts from the greedy cover, as a MAG search
    # does: the reference search from that greedy, on the deletion oracle's
    # pair table, takes the same nodes to the same witness
    for seed in (0, 4, 16, 18, 23, 24):
        G = random_connected_undirected(random.Random(seed), 40, extra=5)
        forced = frozenset(v for v in range(G.n) if G.degree(v) == 1)
        assert G.n - len(forced) > 24
        problem = CoverProblem(G.n, (1 << G.m) - 1, undirected_deletion_pair_table(G), forced, max(2, len(forced)))
        expected = helpers.solve_cover_branch_bound(problem, upper_witness=greedy_cover(problem))
        res = min_meg_set(G)
        assert res.optimal and expected.optimal
        assert (res.size, res.witness, res.nodes) == (expected.size, expected.witness, expected.nodes)


def test_meg_is_optimal_by_exhaustion():
    # the smallest vertex set whose pairs cover every edge of the deletion
    # oracle's table, tried size by size over every vertex set
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 8)
        G = random_connected_undirected(rng, n, extra=rng.randint(0, 6))
        res = min_meg_set(G)
        assert res.optimal and _is_meg_set(G, res.witness) and res.size == len(res.witness)
        smallest = next(k for k in range(n + 1) if any(_is_meg_set(G, s) for s in combinations(range(n), k)))
        assert res.size == smallest


def test_budget_fallback_keeps_greedy_on_both_strategies():
    for n, sweep in [(8, True), (30, False)]:
        g = cycle_with_chord(n, n // 2)
        forced = forced_vertices(g).vertices
        greedy = greedy_cover(mag_problem(g, forced, 0))
        assert len(greedy) == 3 and sweeps(g.n, len(forced)) == sweep
        res = min_mag_set(g, max_nodes=1)
        assert not res.optimal and res.witness == tuple(sorted(greedy))


def _run(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", stdin)
    rc = main(argv)
    return rc, capsys.readouterr()


def test_meg_cli_flags_unproven(capsys, monkeypatch):
    text = write_edge_list(C8_CHORD)
    rc, out = _run(capsys, monkeypatch, ["meg", "-", "--budget", "1"], io.StringIO(text))
    assert rc == 3
    result = json.loads(out.out)["result"]
    assert result["optimal"] is False and result["size"] < 8
    assert _is_meg_set(C8_CHORD, result["witness"])
    rc, out = _run(capsys, monkeypatch, ["meg", "-"], io.StringIO(text))
    assert rc == 0 and json.loads(out.out)["result"] == {
        "size": 4,
        "witness": [0, 1, 3, 6],
        "optimal": True,
    }


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe")
    rc, out = _run(capsys, monkeypatch, ["mag", str(path)], io.StringIO(""))
    assert rc == 2 and "UTF-8" in out.err
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    rc, out = _run(capsys, monkeypatch, ["mag", "-"], stdin)
    assert rc == 2 and "UTF-8" in out.err


def test_spectrum_runs_serial_by_default():
    assert build_parser().parse_args(["spectrum", "-"]).threads == 1


# ---------------------------------------------------------------------------
# Fast paths against their references


@settings(max_examples=150, deadline=None)
@given(oriented_graphs())
def test_bitset_forcing_matches_set_oracle(g):
    reasons = {v: (rule.value, wit) for v, (rule, wit) in forced_vertices(g).reasons.items()}
    assert reasons == set_forced_reasons(g)
    assert forced_vertices(g).vertices == frozenset(reasons)
    if g.is_weakly_connected():
        assert is_extremal(g) == set_is_extremal(g)


@settings(max_examples=100, deadline=None)
@given(oriented_graphs(max_n=8), st.integers(1, 3), st.randoms(use_true_random=False))
def test_isolated_vertices_are_not_forced(g, extra, rnd):
    """Forcing is sound with vertices that have no arcs: the forced set lies
    inside the witness, and the lower bound does not pass the optimum."""
    n = g.n + extra
    label = list(range(n))
    rnd.shuffle(label)
    g = OrientedGraph(n, tuple((label[u], label[v]) for u, v in g.arcs))
    res = min_mag_set(g)
    assert res.optimal
    assert forced_vertices(g).vertices <= set(res.witness)
    assert mag_lower_bound(g) <= res.size


def test_lone_vertex_is_not_extremal():
    assert is_extremal(OrientedGraph(1, ())) == (False, 0)
    assert is_extremal(OrientedGraph(0, ())) == (True, None)
    assert forced_vertices(OrientedGraph(3, ((0, 1),))).vertices == {0, 1}


@st.composite
def orientations(draw, max_n: int = 10):
    """An undirected graph (any edge set on at most ``max_n`` vertices,
    given in any order) and one orientation mask of it."""
    n = draw(st.integers(0, max_n))
    slots = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    edges = [(j, i) if draw(st.booleans()) else (i, j) for (i, j), k in zip(slots, keep) if k]
    edges = draw(st.permutations(edges))
    G = UndirectedGraph(n, tuple(edges))
    return G, draw(st.integers(0, (1 << G.m) - 1))


@settings(max_examples=100, deadline=None)
@given(orientations())
def test_orient_equals_validated_graph(case):
    G, mask = case
    arcs = tuple((v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(G.edges))
    g = orient(G, mask)
    assert g == OrientedGraph(G.n, arcs)
    assert pickle.loads(pickle.dumps(g)) == g


def _eager_certificate(g: OrientedGraph, witness) -> dict[int, tuple[int, int]]:
    """Per arc, the first witness pair in lexicographic order whose
    deletion-oracle mask holds it."""
    table = deletion_pair_table(g)
    cert: dict[int, tuple[int, int]] = {}
    for x, y in combinations(sorted(witness), 2):
        for a in range(g.m):
            if a not in cert and table[x][y] >> a & 1:
                cert[a] = (x, y)
    return cert


@settings(max_examples=60, deadline=None)
@given(oriented_graphs(max_n=8))
def test_coverage_equals_deletion_certificate_and_survives_pickling(g):
    res = min_mag_set(g)
    unread = pickle.loads(pickle.dumps(res))
    want = _eager_certificate(g, res.witness)
    assert set(want) == set(range(g.m))
    assert res.coverage == want
    assert unread.coverage == want  # a pickled result carries its certificate
    assert pickle.loads(pickle.dumps(res)).coverage == want
    assert unread == res


def test_mag_result_is_plain_record():
    # a result holds its answer and certificate only: no graph, no kernel
    # rows, nothing built after the solve
    assert [f.name for f in dataclasses.fields(MagResult)] == [
        "size", "witness", "forced", "optimal", "nodes", "lower", "coverage"
    ]


def test_disconnected_coverage_builds_only_component_rows(monkeypatch):
    # 40 interleaved directed paths i -> 40 + i -> 80 + i and a 6-cycle with
    # a chord: each component is solved and certified from its own rows, so
    # no kernel row spans the whole graph
    paths = [(i, 40 + i) for i in range(40)] + [(40 + i, 80 + i) for i in range(40)]
    cycle = [(120 + i, 120 + (i + 1) % 6) for i in range(6)] + [(120, 123)]
    g = OrientedGraph(126, tuple(paths + cycle))
    lengths = []
    row = monitoring._sole_route_row
    monkeypatch.setattr(monitoring, "_sole_route_row", lambda adj, x: lengths.append(len(adj)) or row(adj, x))
    res = min_mag_set(g)
    assert res.coverage == _eager_certificate(g, res.witness)
    assert set(res.coverage) == set(range(g.m))
    assert lengths and max(lengths) <= 6


def test_disconnected_coverage_matches_deletion_oracle():
    rng = random.Random(61)
    tried = 0
    while tried < 25:
        g = random_oriented(rng, rng.randint(8, 14), p=0.2)
        if sum(len(comp) > 1 for comp in g.components()) < 2:
            continue  # fewer than two components with arcs
        tried += 1
        res = min_mag_set(g)
        assert res.optimal and is_mag_set(g, res.witness)[0]
        assert res.coverage == _eager_certificate(g, res.witness)
        assert set(res.coverage) == set(range(g.m))


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_serial_spectrum_equals_pool(seed):
    rng = random.Random(seed)
    G = random_connected_undirected(rng, rng.randint(5, 6), extra=rng.randint(2, 3))
    assert G.m >= 6  # large enough for the pool to be used
    assert spectrum(G, threads=2) == spectrum(G)


def test_pool_with_early_exit_is_rejected(capsys, monkeypatch):
    G = UndirectedGraph(6, tuple((i, (i + 1) % 6) for i in range(6)))
    for flags in ({"stop_at_two": True}, {"stop_at_n": True}):
        with pytest.raises(BadParamError):
            spectrum(G, threads=2, **flags)
        assert spectrum(G, **flags).spectrum <= spectrum(G).spectrum
    rc, out = _run(
        capsys, monkeypatch, ["spectrum", "-", "--threads", "2", "--stop-at-two"],
        io.StringIO(write_edge_list(G)),
    )
    assert rc == 1 and out.out == "" and "serial" in out.err


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert build_parser() is build_parser()
    text = write_edge_list(UndirectedGraph(5, tuple((i, (i + 1) % 5) for i in range(5))))
    runs = [
        ["spectrum", "-", "--stop-at-two", "--budget", "5000"],
        ["spectrum", "-"],
        ["spectrum", "-", "--stop-at-two", "--budget", "5000"],
    ]
    results = []
    for argv in runs:
        rc, out = _run(capsys, monkeypatch, argv, io.StringIO(text))
        assert rc == 0
        results.append(json.loads(out.out)["result"])
    assert results[0] == results[2] != results[1]
    assert results[1]["spectrum"] == [2, 3, 4]
    args = build_parser().parse_args(["spectrum", "-"])
    assert not args.stop_at_two and args.budget == 10_000_000


@st.composite
def cover_problems(draw) -> CoverProblem:
    """The MAG cover problem of a sparse or dense random oriented graph with
    arcs on at most 14 vertices, seeded with its forced set or not."""
    n = draw(st.integers(2, 14))
    p = draw(st.sampled_from((0.2, 0.3, 0.5, 0.8)))
    g = random_oriented(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)
    assume(g.m > 0)
    forced = forced_vertices(g).vertices if draw(st.booleans()) else frozenset()
    lower = draw(st.sampled_from((0, 2, len(forced))))
    return mag_problem(g, forced, lower)


@settings(max_examples=150, deadline=None)
@given(cover_problems(), st.data())
def test_cover_searches_match_reference(problem, data):
    # a budget one short of the reference's node count stops the search on
    # its last node, a drawn one anywhere: a leaf left uncounted, or counted
    # after its cover test, changes the node count or the best cover held
    # when the budget runs out
    searches = [
        (solve_cover_sweep, helpers.solve_cover_sweep, ()),
        (solve_cover_branch_bound, helpers.solve_cover_branch_bound, ()),
        (solve_cover_branch_bound, helpers.solve_cover_branch_bound, (greedy_cover(problem),)),
    ]
    for fast, reference, known in searches:
        total = reference(problem, 10_000_000, *known).nodes
        if total <= 300:  # a small search is stopped at every node
            budgets = set(range(1, total + 2))
        else:
            budgets = {1, total - 1, total, 10_000_000}
            budgets.add(data.draw(st.integers(1, total + 1)))
        for budget in sorted(budgets):
            assert fast(problem, budget, *known) == reference(problem, budget, *known)


@settings(max_examples=200, deadline=None)
@given(cover_problems(), st.booleans(), st.data())
def test_exclusion_branching_is_exact(problem, from_greedy, data):
    # the search that bans a vertex once a child adding it has returned
    # enters a subsequence of the nodes of the search that bans nothing,
    # with the same best cover at every node they share: the same size as
    # it and as brute force, the same witness, and no more nodes; under a
    # budget it holds a cover no larger, the same one when both prove it
    known = (greedy_cover(problem),) if from_greedy else ()
    banned = solve_cover_branch_bound(problem, 10_000_000, *known)
    plain = helpers.solve_cover_branch_bound(problem, 10_000_000, *known, exclusion=False)
    assert banned.optimal and plain.optimal
    assert banned.size == plain.size == helpers.brute_min_cover(problem)
    assert banned.witness == plain.witness
    assert banned.nodes <= plain.nodes
    budget = data.draw(st.integers(1, max(plain.nodes, 1)))
    banned = solve_cover_branch_bound(problem, budget, *known)
    plain = helpers.solve_cover_branch_bound(problem, budget, *known, exclusion=False)
    assert banned.size <= plain.size
    if plain.optimal:
        assert banned.optimal and banned.witness == plain.witness


@settings(max_examples=200, deadline=None)
@given(cover_problems(), st.booleans(), st.data())
def test_lower_bound_stop_is_exact(problem, from_greedy, data):
    # a cover of max(bound, |F|) vertices is optimal: the search that
    # returns one it starts from after no node, and ends at the first one
    # it finds, returns the witness of the search that goes on, in no more
    # nodes.  Under a budget it either proves that witness or stops on the
    # same node as the search that goes on, holding the same cover.  A bound
    # of the optimum, or one below, lets the search meet it in a cover found
    # below the root as well
    optimum = helpers.brute_min_cover(problem)
    bound = data.draw(st.sampled_from((problem.lower_bound, optimum - 1, optimum)))
    problem = dataclasses.replace(problem, lower_bound=bound)
    known = (greedy_cover(problem),) if from_greedy else ()
    stopped = solve_cover_branch_bound(problem, 10_000_000, *known)
    plain = helpers.solve_cover_branch_bound(problem, 10_000_000, *known, stop=False)
    assert stopped.optimal and plain.optimal
    assert (stopped.size, stopped.witness) == (plain.size, plain.witness) and stopped.size == optimum
    assert stopped.nodes <= plain.nodes
    witness = stopped.witness
    budget = data.draw(st.integers(1, plain.nodes))
    stopped = solve_cover_branch_bound(problem, budget, *known)
    assert stopped == helpers.solve_cover_branch_bound(problem, budget, *known)
    if stopped.optimal:
        assert stopped.witness == witness
    else:
        assert stopped == helpers.solve_cover_branch_bound(problem, budget, *known, stop=False)


@st.composite
def random_row_problems(draw) -> CoverProblem:
    """A cover problem on at most 30 vertices with random pair masks over
    at most 40 targets (every target some pair's), and a random forced set."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(2, 30)
    width = rng.randint(1, 40)
    density = rng.choice((0.02, 0.1, 0.3))
    rows = [[0] * n for _ in range(n)]
    for x, y in combinations(range(n), 2):
        mask = sum(1 << t for t in range(width) if rng.random() < density)
        rows[x][y] = rows[y][x] = mask
    full = 0
    for row in rows:
        for mask in row:
            full |= mask
    assume(full)
    forced = frozenset(v for v in range(n) if rng.random() < 0.2)
    return CoverProblem(n, full, rows, forced)


@settings(max_examples=300, deadline=None)
@given(random_row_problems())
def test_greedy_matches_list_greedy(problem):
    # the running gain list picks what re-ORing each candidate's rows
    # against a list of chosen vertices picks, ties to the lowest index
    assert greedy_cover(problem) == helpers.greedy_cover(problem)


@settings(max_examples=100, deadline=None)
@given(random_row_problems(), st.data())
def test_branch_bound_matches_reference_on_random_rows(problem, data):
    # random masks on up to 30 vertices give the leaves of a node two short
    # longer pair lists than the MAG problems do, with a leaf vertex that
    # several pairs reach tested once; every budget drawn stops the search on
    # the reference's node, holding the reference's cover.  The forced set
    # mostly covers some targets but not all: the search orders only the
    # ones it leaves uncovered, the reference every target, so this also
    # checks that they keep their relative order
    known = greedy_cover(problem)
    budgets = {1, 2_000, data.draw(st.integers(1, 2_000))}
    for budget in sorted(budgets):
        assert solve_cover_branch_bound(problem, budget, known) == helpers.solve_cover_branch_bound(
            problem, budget, known
        )


def test_branch_bound_optimum_first_reached_as_a_pair_leaf():
    # here branch-and-bound first reaches its optimum, 6 of the 10 vertices,
    # as a child adding two vertices to a node three short of the bound:
    # a leaf entered like any other child, counted and then tested; every
    # budget must stop on the reference's node, holding the reference's cover
    problem = mag_problem(random_oriented(random.Random(224), 10, 0.2), frozenset(), 0)
    for known in ((), (greedy_cover(problem),)):
        whole = helpers.solve_cover_branch_bound(problem, 10_000_000, *known)
        assert (whole.size, whole.optimal) == (6, True)
        for budget in range(1, whole.nodes + 2):
            got = solve_cover_branch_bound(problem, budget, *known)
            assert got == helpers.solve_cover_branch_bound(problem, budget, *known)


@settings(max_examples=100, deadline=None)
@given(cover_problems(), st.data())
def test_sweep_stop_and_budget_report_the_level_reached(problem, data):
    # a sweep searches each level below ``stop`` in full and then gives up,
    # so its nodes are those of the levels below; a budget that runs out in
    # level k reports k, the least size a cover can still have
    whole = solve_cover_sweep(problem)
    if whole.nodes == 0:
        return  # the forced set covers: no level is searched
    assert solve_cover_sweep(problem, stop=whole.size + 1) == whole
    start = max(problem.lower_bound, len(problem.forced))
    below = {}  # level -> nodes of the levels below it
    for k in range(start, whole.size + 1):
        gave_up = solve_cover_sweep(problem, stop=k)
        assert (gave_up.size, gave_up.optimal, gave_up.lower) == (problem.n, False, k)
        below[k] = gave_up.nodes
    budgets = {1, whole.nodes - 1, data.draw(st.integers(1, whole.nodes))} - {0, whole.nodes}
    for budget in budgets:
        out = solve_cover_sweep(problem, budget)
        assert not out.optimal
        assert out.lower == max(k for k, nodes in below.items() if nodes <= budget)
