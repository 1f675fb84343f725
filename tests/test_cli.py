import json

import pytest

from magsets import parse_edge_list
from magsets.cli import build_parser, main

from helpers import scan_work

C6_UNDIRECTED = "undirected 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
P4_DIRECTED = "directed 4 3\n0 1\n1 2\n2 3\n"


def run(capsys, monkeypatch, argv, stdin=""):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, monkeypatch, argv, stdin=""):
    rc, out, err = run(capsys, monkeypatch, argv, stdin)
    return rc, json.loads(out), err


def test_mag_json_report(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["mag", "-"], P4_DIRECTED)
    assert rc == 0
    assert report["schema"] == 1 and report["command"] == "mag"
    assert report["result"]["size"] == 2
    assert report["result"]["witness"] == [0, 3]
    assert report["result"]["optimal"] is True
    assert len(report["input_digest"]) == 16
    assert report["wall_time"] >= 0


ENVELOPE = ["schema", "command", "input_digest", "result", "stats", "wall_time"]


@pytest.mark.parametrize("argv, text", [
    (["mag", "-"], P4_DIRECTED),
    (["meg", "-"], C6_UNDIRECTED),
    (["spectrum", "-"], C6_UNDIRECTED),
    (["extremal", "-"], P4_DIRECTED),
    (["extremal", "-"], C6_UNDIRECTED),
    (["forced", "-"], P4_DIRECTED),
    (["verify", "nae", "-"], "p nae3 3 1\n1 2 3 0\n"),
    (["verify", "vc", "-", "--k", "1"], "undirected 3 3\n0 1\n1 2\n0 2\n"),
    (["verify", "family", "--max-n", "3"], None),
    (["verify", "thm32", "--samples", "2", "--max-n", "3"], None),
])
def test_report_envelope(capsys, monkeypatch, argv, text):
    # every JSON command prints the same six keys; checks without an input
    # digest the empty text
    import hashlib

    rc, out, _ = run(capsys, monkeypatch, argv, text or "unread\n")
    report = json.loads(out)
    assert rc == 0 and list(report) == ENVELOPE
    assert report["command"] == argv[0] and isinstance(report["stats"], dict)
    assert report["input_digest"] == hashlib.sha256((text or "").encode()).hexdigest()[:16]


def test_mag_reads_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text(P4_DIRECTED)
    rc, report, _ = run_json(capsys, monkeypatch, ["mag", str(path)])
    assert rc == 0 and report["result"]["size"] == 2


def test_mag_search_result(capsys, monkeypatch):
    # nothing is forced, so the report is the sweep's witness and node count
    c8_chord = "directed 8 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n0 4\n"
    rc, report, _ = run_json(capsys, monkeypatch, ["mag", "-"], c8_chord)
    assert rc == 0
    assert (report["result"]["witness"], report["stats"]["nodes"]) == ([0, 1, 4], 31)


def test_mag_arcless_builds_no_rows(capsys, monkeypatch):
    # an empty witness certifies nothing: the report is built without
    # touching the graph's per-vertex tables
    def no_rows(*args):
        raise AssertionError("kernel rows built for an arcless graph")

    monkeypatch.setattr("magsets.solver._route_rows", no_rows)
    rc, report, _ = run_json(capsys, monkeypatch, ["mag", "-"], "directed 5 0\n")
    assert rc == 0
    assert report["result"] == {"size": 0, "witness": [], "forced": [], "coverage": {}, "optimal": True}


def test_meg_command(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["meg", "-"], C6_UNDIRECTED)
    assert rc == 0 and report["result"]["size"] == 3


def test_spectrum_command(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["spectrum", "-", "--threads", "1"], C6_UNDIRECTED)
    assert rc == 0
    assert report["result"]["spectrum"] == [2, 3, 4, 6]
    assert report["result"]["gap"] == 4
    assert len(report["result"]["witness_min"]) == 6
    assert report["result"]["complete"] is True
    # the scan's work: every mask is scanned, but only the least of each
    # orbit under the 12 automorphisms of C6 and reversal is looked at, and
    # of those one needs no search
    canonical, forced, _, searched, completed = scan_work(parse_edge_list(C6_UNDIRECTED))
    assert report["stats"] == {
        "masks_scanned": 32, "masks_symmetric": 32 - len(canonical),
        "masks_forced": len(forced), "masks_searched": len(searched), "full_matrices": len(completed),
    } == {
        "masks_scanned": 32, "masks_symmetric": 24, "masks_forced": 8, "masks_searched": 7, "full_matrices": 4,
    }
    # a stopped scan is marked: its mag-minus 5 is not the full scan's 4
    text = "undirected 6 6\n0 1\n1 2\n1 3\n1 5\n2 4\n2 5\n"
    rc, report, _ = run_json(capsys, monkeypatch, ["spectrum", "-", "--stop-at-n"], text)
    assert rc == 0
    assert (report["result"]["mag_minus"], report["result"]["complete"]) == (5, False)
    rc, report, _ = run_json(capsys, monkeypatch, ["spectrum", "-"], text)
    assert (report["result"]["mag_minus"], report["result"]["complete"]) == (4, True)


@pytest.mark.parametrize("argv", [
    ["spectrum", "-", "--threads", "0"],
    ["spectrum", "-", "--threads", "-3"],
    ["spectrum", "-", "--max-edges", "-1"],
    ["extremal", "-", "--max-edges", "-1"],
    ["mag", "-", "--budget", "0"],
    ["meg", "-", "--budget", "-1"],
    ["spectrum", "-", "--budget", "0"],
    ["verify", "vc", "-", "--budget", "0"],
    ["verify", "thm32", "--max-n", "1"],
    ["verify", "thm32", "--max-n", "0"],
    ["verify", "thm32", "--max-n", "-3"],
    ["verify", "family", "--max-n", "2"],
    ["verify", "family", "--max-n", "0"],
    ["verify", "thm32", "--samples", "0"],
    ["verify", "thm32", "--samples", "-5"],
    ["reduce", "vertexcover", "-", "--k", "-1"],
    ["verify", "vc", "-", "--k", "-1"],
    ["reduce", "vertexcover", "-", "--k", "7"],
    ["verify", "vc", "-", "--k", "7"],
    ["reduce", "nae3sat", "-", "--k", "99"],
])
def test_bad_threads_and_edge_cap_exit_2(capsys, monkeypatch, argv):
    # a worker count below 1 does not mean a serial scan, a negative edge
    # cap is not a cap that the graph exceeds, a budget below 1 allows no
    # search node, thm32 draws graphs of 2 to --max-n vertices and family
    # checks n = 3 up, no samples check nothing, a cover has no negative
    # size nor more vertices than the graph's 6, and a NAE-3SAT gadget has
    # no cover size to take
    with pytest.raises(SystemExit) as exc:
        run(capsys, monkeypatch, argv, C6_UNDIRECTED)
    assert exc.value.code == 2
    message = "unrecognized arguments: --k 99" if argv[1] == "nae3sat" else "must be at least"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce vertexcover", "verify vc"])
def test_disconnected_vertex_cover_instance_exits_1(capsys, monkeypatch, command):
    # a --k within [0, n] is a good flag: the instance itself is rejected
    rc, out, err = run(capsys, monkeypatch, [*command.split(), "-", "--k", "2"], "undirected 4 2\n0 1\n2 3\n")
    assert rc == 1 and out == ""
    assert err == "error: vertex cover instance must be connected\n"


def test_extremal_both_input_kinds(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["extremal", "-"], P4_DIRECTED)
    assert rc == 0 and report["result"]["extremal"] is False
    assert report["result"]["counterexample"] is not None
    rc, report, _ = run_json(capsys, monkeypatch, ["extremal", "-"], C6_UNDIRECTED)
    assert rc == 0 and report["result"]["mag_plus_is_n"] is True


def test_forced_command(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["forced", "-"], P4_DIRECTED)
    assert rc == 0
    assert report["result"]["forced"] == [0, 3]
    assert report["result"]["reasons"]["0"]["rule"] == "source"


def test_forced_skips_a_vertex_with_no_arcs(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["forced", "-"], "directed 3 1\n0 1\n")
    assert rc == 0 and report["result"]["forced"] == [0, 1]


def test_family_emits_parseable_edge_list(capsys, monkeypatch):
    rc, out, _ = run(capsys, monkeypatch, ["family", "cycle", "--n", "6", "--kind", "C1"])
    assert rc == 0
    from magsets import parse_edge_list

    g = parse_edge_list(out)
    assert g.n == 6 and g.m == 6


@pytest.mark.parametrize("flags, message", [
    (["--pattern", "a,b"], "argument --pattern: must be comma-separated integers, got 'a,b'"),
    (["--pattern", ""], "argument --pattern: must be comma-separated integers, got ''"),
    (["--pattern", "0,,3"], "argument --pattern: must be comma-separated integers, got '0,,3'"),
    (["--pattern", "0,3", "--sinks", "x"], "argument --sinks: must be comma-separated integers, got 'x'"),
    (["--pattern=-1,3"], "argument --pattern: positions are 0-based, got -1 in '-1,3'"),
    (["--pattern", "0,3", "--sinks=2,-5"], "argument --sinks: positions are 0-based, got -5 in '2,-5'"),
])
def test_family_bad_positions_exit_2(capsys, monkeypatch, flags, message):
    with pytest.raises(SystemExit) as exc:
        run(capsys, monkeypatch, ["family", "cycle", "--n", "6", "--kind", "C3", *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("kind, flags, flag", [
    ("C0", ["--d", "3"], "--d"),
    ("C3", ["--d", "3", "--pattern", "0,3"], "--d"),
    ("C0", ["--pattern", "1,3"], "--pattern"),
    ("C1", ["--pattern", "1,3"], "--pattern"),
    ("C2", ["--d", "2", "--pattern", "1,3"], "--pattern"),
    ("C0", ["--sinks", "2"], "--sinks"),
    ("C1", ["--sinks", "2"], "--sinks"),
    ("C2", ["--d", "2", "--sinks", "2"], "--sinks"),
])
def test_family_cycle_flag_its_class_does_not_read_exits_2(capsys, monkeypatch, kind, flags, flag):
    with pytest.raises(SystemExit) as exc:
        run(capsys, monkeypatch, ["family", "cycle", "--n", "6", "--kind", kind, *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"argument {flag}: class {kind} does not take it" in out.err


def test_family_positions_give_the_cycle(capsys, monkeypatch):
    # sources at 0 and 3, and the sinks by default just before the next
    # source, which are the sinks given on the second call
    c3 = "directed 6 6\n0 1\n0 5\n1 2\n3 2\n3 4\n4 5\n"
    for flags in (["--pattern", "0,3"], ["--pattern", "0, 3", "--sinks", "2,5"]):
        rc, out, err = run(capsys, monkeypatch, ["family", "cycle", "--n", "6", "--kind", "C3", *flags])
        assert (rc, out, err) == (0, c3, "")


def test_each_family_kind_builds_its_graph(capsys, monkeypatch):
    import magsets as ms

    tree = ms.UndirectedGraph(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)))
    c5_with_tail = ms.UndirectedGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)))
    cases = [
        (["path", "--n", "4"], None, ms.directed_path(4)),
        (["tournament", "--n", "4"], None, ms.transitive_tournament(4)),
        (["flipped-tournament", "--n", "4"], None, ms.flipped_tournament(4)),
        (["cycle", "--n", "7", "--kind", "C2", "--d", "2"], None, ms.cycle_orientation(7, "C2", d=2)),
        (["gj", "--j", "2"], None, ms.construction_gj(2)),
        (["rooted-tree", "--root", "1"], tree, ms.rooted_tree_orientation(tree, 1)),
        (["bipartite"], tree, ms.bipartite_extremal_orientation(tree)),
        (["girth"], c5_with_tail, ms.girth_alternating_orientation(c5_with_tail)),
    ]
    for flags, G, want in cases:
        stdin = ms.write_edge_list(G) if G else ""
        assert run(capsys, monkeypatch, ["family", *flags], stdin) == (0, ms.write_edge_list(want), "")


def test_family_dot_output(capsys, monkeypatch):
    rc, out, _ = run(capsys, monkeypatch, ["family", "tournament", "--n", "4", "--format", "dot"])
    assert rc == 0 and out.startswith("digraph")


def test_pipe_family_into_mag(capsys, monkeypatch):
    rc, out, _ = run(capsys, monkeypatch, ["family", "path", "--n", "5"])
    rc, report, _ = run_json(capsys, monkeypatch, ["mag", "-"], out)
    assert rc == 0 and report["result"]["size"] == 2


def test_reduce_nae_roles(capsys, monkeypatch):
    cnf = "p nae3 3 1\n1 2 3 0\n"
    rc, out, _ = run(capsys, monkeypatch, ["reduce", "nae3sat", "-"], cnf)
    assert rc == 0
    assert "# role 0 x1" in out and "# role 3 c1,1" in out
    from magsets import parse_edge_list

    assert parse_edge_list(out).m == 6


def test_reduce_vertexcover_target(capsys, monkeypatch):
    tri = "undirected 3 3\n0 1\n1 2\n0 2\n"
    rc, out, _ = run(capsys, monkeypatch, ["reduce", "vertexcover", "-", "--k", "2"], tri)
    assert rc == 0 and "# target 14" in out  # k + 2n + 2m = 2 + 6 + 6


def test_verify_nae(capsys, monkeypatch):
    cnf = "p nae3 3 1\n1 2 3 0\n"
    rc, report, _ = run_json(capsys, monkeypatch, ["verify", "nae", "-"], cnf)
    assert rc == 0 and report["result"]["verified"] is True


def test_verify_vc(capsys, monkeypatch):
    tri = "undirected 3 3\n0 1\n1 2\n0 2\n"
    rc, report, _ = run_json(capsys, monkeypatch, ["verify", "vc", "-", "--k", "1"], tri)
    assert rc == 0 and report["result"]["verified"] is True
    # on P5 at k = 2 the gadget's mag meets the target; one search node
    # leaves a cover above it, which decides nothing
    p5 = "undirected 5 4\n0 1\n0 2\n1 4\n2 3\n"
    rc, report, _ = run_json(capsys, monkeypatch, ["verify", "vc", "-", "--k", "2"], p5)
    assert rc == 0 and report["result"]["verified"] is True
    rc, out, err = run(capsys, monkeypatch, ["verify", "vc", "-", "--k", "2", "--budget", "1"], p5)
    assert rc == 3 and out == "" and "budget" in err


def test_verify_family_sweep(capsys, monkeypatch):
    rc, report, _ = run_json(capsys, monkeypatch, ["verify", "family", "--max-n", "5"])
    assert rc == 0 and report["result"]["verified"] is True


def test_verify_thm32_sweep(capsys, monkeypatch):
    rc, report, _ = run_json(
        capsys, monkeypatch, ["verify", "thm32", "--samples", "10", "--max-n", "5", "--seed", "3"]
    )
    assert rc == 0 and report["result"]["verified"] is True


def test_export_dot(capsys, monkeypatch):
    rc, out, _ = run(capsys, monkeypatch, ["export-dot", "-"], P4_DIRECTED)
    assert rc == 0 and "0 -> 1" in out


def test_parse_error_exit_code(capsys, monkeypatch):
    rc, out, err = run(capsys, monkeypatch, ["mag", "-"], "nonsense\n")
    assert rc == 2 and "error" in err


def test_edge_cap_exit_code(capsys, monkeypatch):
    edges = "\n".join(f"{i} {i + 1}" for i in range(21))
    text = f"undirected 22 21\n{edges}\n"
    rc, out, err = run(capsys, monkeypatch, ["spectrum", "-"], text)
    assert rc == 3


def test_budget_exit_code(capsys, monkeypatch):
    import random

    from magsets import write_edge_list

    from helpers import random_connected_oriented

    g = random_connected_oriented(random.Random(0), 10, p=0.5)
    rc, report, _ = run_json(
        capsys, monkeypatch, ["mag", "-", "--budget", "1"], write_edge_list(g)
    )
    assert rc == 3
    assert report["result"]["optimal"] is False


@pytest.mark.parametrize("command, kind", [
    ("mag", "directed"),
    ("meg", "undirected"),
    ("spectrum", "undirected"),
    ("extremal", "directed"),
    ("extremal", "undirected"),
    ("forced", "directed"),
    ("verify vc", "undirected"),
    ("export-dot", "directed"),
    ("export-dot", "undirected"),
])
def test_negative_vertex_count_exit_code(capsys, monkeypatch, command, kind):
    rc, out, err = run(capsys, monkeypatch, [*command.split(), "-"], f"{kind} -1 0\n")
    assert rc == 2 and out == ""
    assert "vertex count must be non-negative" in err


@pytest.mark.parametrize("command, message", [
    ("spectrum", "spectrum requires a connected graph"),
    ("meg", "MEG solver requires a connected graph"),
    ("extremal", "requires a connected graph"),
])
def test_huge_edgeless_graph_is_rejected_at_once(capsys, monkeypatch, command, message):
    # fewer than n - 1 edges cannot connect n vertices, so the connectivity
    # check answers without allocating per-vertex lists for n = 10^12
    import time

    started = time.perf_counter()
    rc, out, err = run(capsys, monkeypatch, [command, "-"], f"undirected {10**12} 0\n")
    assert time.perf_counter() - started < 1
    assert rc == 1 and out == "" and message in err


# the arguments each command reads, and one value for each; no command
# reads --strategy, so every command must reject it
READS = {
    "mag": {"input", "--budget"},
    "meg": {"input", "--budget"},
    "spectrum": {"input", "--budget", "--max-edges", "--threads"},
    "extremal": {"input", "--max-edges"},
    "forced": {"input"},
    "family path": {"--n", "--format"},
    "family tournament": {"--n", "--format"},
    "family flipped-tournament": {"--n", "--format"},
    "family cycle": {"--n", "--kind", "--d", "--pattern", "--sinks", "--format"},
    "family gj": {"--j", "--format"},
    "family rooted-tree": {"--input", "--root", "--format"},
    "family bipartite": {"--input", "--format"},
    "family girth": {"--input", "--format"},
    "verify nae": {"input", "--max-edges"},
    "verify vc": {"input", "--budget"},
    "verify family": {"--budget", "--max-n"},
    "verify thm32": {"--budget", "--max-n", "--seed"},
    "export-dot": {"input"},
}
VALUES = {
    "--budget": "5", "--strategy": "bnb", "--max-edges": "9", "--threads": "2", "--seed": "3",
    "--max-n": "4", "--format": "dot", "--n": "6", "--kind": "C2", "--d": "2", "--pattern": "0,3",
    "--sinks": "2,5", "--j": "3", "--input": "g.txt", "--root": "1",
}
# the argv shapes of the benchmark's ops
BENCHMARK_ARGV = {
    "mag": ["mag", "op.txt", "--budget", "20000"],
    "meg": ["meg", "op.txt", "--budget", "20000"],
    "spectrum": ["spectrum", "op.txt", "--budget", "20000", "--threads", "1"],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_only_the_flags_it_reads(command):
    parser = build_parser()
    head = command.split()
    if "input" in READS[command]:
        assert parser.parse_args(head + ["g.txt"]).input == "g.txt"
        head.append("-")
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(head + ["-"])
        assert exc.value.code == 2
    for flag, value in VALUES.items():
        if flag in READS[command]:
            got = getattr(parser.parse_args(head + [flag, value]), flag[2:].replace("-", "_"))
            assert (",".join(map(str, got)) if isinstance(got, list) else str(got)) == value
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(head + [flag, value])
            assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(head + ["--json"])
    assert exc.value.code == 2
    if command in BENCHMARK_ARGV:
        args = parser.parse_args(BENCHMARK_ARGV[command])
        assert (args.input, args.budget) == ("op.txt", 20000)
