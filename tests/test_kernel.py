"""The shortest-path-DAG monitoring kernel against the deletion and
path-counting oracles; the MEG optimality flag, the shared budget
fallback and CLI input handling."""
import copy
import io
import json
import pickle
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from magsets import (
    OrientedGraph,
    SolverConfig,
    Strategy,
    UndirectedGraph,
    edge_monitors_undirected,
    greedy_mag_set,
    min_mag_set,
    min_meg_set,
    monitor_matrix,
    monitors_directed,
    monitors_directed_by_counting,
    write_edge_list,
)
from magsets.cli import build_parser, main
from magsets.monitoring import undirected_monitor_pair_masks

from helpers import deletion_pair_masks, undirected_deletion_pair_masks


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
        assert monitor_matrix(h) == monitor_matrix(g)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_matrix_matches_deletion_oracle(g):
    assert list(monitor_matrix(g).pair_arcs) == deletion_pair_masks(g)


@settings(max_examples=30, deadline=None)
@given(oriented_graphs(max_n=9))
def test_matrix_matches_counting_oracle(g):
    mat = monitor_matrix(g)
    for p, (x, y) in enumerate(mat.pairs):
        for a in range(g.m):
            counted = monitors_directed_by_counting(g, x, y, a) or monitors_directed_by_counting(
                g, y, x, a
            )
            assert bool(mat.pair_arcs[p] >> a & 1) == counted


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_undirected_masks_match_deletion_oracle(g):
    G = g.underlying()
    masks = undirected_monitor_pair_masks(G)
    assert masks == undirected_deletion_pair_masks(G)
    for p, (x, y) in enumerate(combinations(range(G.n), 2)):
        for e in range(G.m):
            assert edge_monitors_undirected(G, x, y, e) == bool(masks[p] >> e & 1)


C8_CHORD = UndirectedGraph(8, tuple((i, (i + 1) % 8) for i in range(8)) + ((0, 4),))


def test_meg_reports_unproven_answer():
    res = min_meg_set(C8_CHORD, max_nodes=1)
    assert not res.optimal and res.size == 8
    res = min_meg_set(C8_CHORD)
    assert res.optimal and res.size == 4 and res.nodes > 0


def test_budget_fallback_keeps_greedy_on_both_strategies():
    g = OrientedGraph(8, tuple((i, (i + 1) % 8) for i in range(8)) + ((0, 4),))
    greedy = greedy_mag_set(g)
    assert len(greedy) < g.n
    for strategy in (Strategy.CARDINALITY_SWEEP, Strategy.BRANCH_AND_BOUND):
        res = min_mag_set(g, SolverConfig(max_nodes=1, strategy=strategy))
        assert not res.optimal and res.size <= len(greedy)


def _run(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", stdin)
    rc = main(argv)
    return rc, capsys.readouterr()


def test_meg_cli_flags_unproven(capsys, monkeypatch):
    text = write_edge_list(C8_CHORD)
    rc, out = _run(capsys, monkeypatch, ["meg", "-", "--budget", "1"], io.StringIO(text))
    assert rc == 3
    result = json.loads(out.out)["result"]
    assert result["optimal"] is False and result["size"] == 8
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
