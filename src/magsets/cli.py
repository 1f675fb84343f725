"""Command-line surface: reproducible, machine-readable output.

Commands emitting graphs (``family``, ``reduce``) print edge-list text so
they compose with the analysis commands over pipes; analysis commands emit
a single JSON run report.  Exit codes: 0 done exactly, 2 parse error,
3 budget or cap exceeded, 1 other input errors.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import NoReturn, Optional

from . import __version__
from .cover import DEFAULT_BUDGET
from .digraph import OrientedGraph, UndirectedGraph
from .errors import (
    BudgetExceededError,
    GraphError,
    ParseError,
    TooLargeError,
    TooManyEdgesError,
)
from .families import (
    bipartite_extremal_orientation,
    construction_gj,
    cycle_orientation,
    directed_path,
    flipped_tournament,
    girth_alternating_orientation,
    rooted_tree_orientation,
    transitive_tournament,
)
from .formats import parse_edge_list, to_dot, write_edge_list
from .monitoring import forced_vertices, is_extremal
from .reductions import (
    VertexCoverInstance,
    nae3sat_to_graph,
    parse_nae3sat,
    vc_to_mag_instance,
    verify_nae_reduction,
    verify_vc_reduction,
)
from .solver import min_mag_set, min_meg_set
from .spectrum import DEFAULT_EDGE_CAP, mag_plus_at_least_n, spectrum

SCHEMA = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> str:
    source = "standard input" if path == "-" else path
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not valid UTF-8: {exc}") from exc


def _json_command(cmd):
    """A command printing one JSON run report.  ``cmd(args, text)`` gets the
    text of ``args.input`` (``""`` for a command without input) and returns
    (result, stats, exit code); the report is timed from before the read to
    just before it is printed."""

    @functools.wraps(cmd)
    def run(args: argparse.Namespace) -> int:
        started = time.perf_counter()
        text = _read_input(args.input) if "input" in args else ""
        result, stats, code = cmd(args, text)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "input_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
            "result": result,
            "stats": stats,
            "wall_time": round(time.perf_counter() - started, 6),
        }
        json.dump(report, sys.stdout, separators=(",", ":"))
        sys.stdout.write("\n")
        return code

    return run


def _graph(text: str, kind: type):
    """The edge list ``text``, which must parse to a graph of ``kind``."""
    graph = parse_edge_list(text)
    if not isinstance(graph, kind):
        raise ParseError(f"{'a directed' if kind is OrientedGraph else 'an undirected'} edge list is required")
    return graph


def _print_graph(args: argparse.Namespace, graph, comments: list[str]) -> int:
    """Print ``graph`` in ``args.format`` and return the exit code, 0."""
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        sys.stdout.write(write_edge_list(graph, trailing_comments=comments))
    return 0


def _vc_instance(args: argparse.Namespace, G: UndirectedGraph) -> VertexCoverInstance:
    """The vertex-cover instance (G, --k).  A --k above n is a bad flag, as
    a negative one is, so it exits 2 through the command's parser."""
    if args.k > G.n:
        args.usage_error(f"argument --k: must be at least 0 and at most n = {G.n}, got {args.k}")
    return VertexCoverInstance(G, args.k)


@_json_command
def cmd_mag(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    res = min_mag_set(_graph(text, OrientedGraph), args.budget)
    result = {
        "size": res.size,
        "witness": list(res.witness),
        "forced": sorted(res.forced),
        "coverage": {str(a): list(pair) for a, pair in sorted(res.coverage.items())},
        "optimal": res.optimal,
    }
    return result, {"nodes": res.nodes}, 0 if res.optimal else EXIT_BUDGET


@_json_command
def cmd_meg(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    res = min_meg_set(_graph(text, UndirectedGraph), args.budget)
    result = {"size": res.size, "witness": list(res.witness), "optimal": res.optimal}
    return result, {"nodes": res.nodes}, 0 if res.optimal else EXIT_BUDGET


@_json_command
def cmd_spectrum(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    G = _graph(text, UndirectedGraph)
    sp = spectrum(G, args.budget, max_edges=args.max_edges, threads=args.threads,
                  stop_at_two=args.stop_at_two, stop_at_n=args.stop_at_n)
    result = {
        "mag_minus": sp.mag_minus,
        "mag_plus": sp.mag_plus,
        "spectrum": sorted(sp.spectrum),
        "gap": sp.gap,
        "witness_min": sp.witness_min_bits(G.m),
        "witness_max": sp.witness_max_bits(G.m),
        "complete": sp.complete,
    }
    return result, sp.counts, 0


@_json_command
def cmd_extremal(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    graph = parse_edge_list(text)
    if isinstance(graph, OrientedGraph):
        ok, counterexample = is_extremal(graph)
        result = {"extremal": ok, "counterexample": counterexample}
    else:
        result = {"mag_plus_is_n": mag_plus_at_least_n(graph, max_edges=args.max_edges)}
    return result, {}, 0


@_json_command
def cmd_forced(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    report = forced_vertices(_graph(text, OrientedGraph))
    reasons = {str(v): {"rule": rule.value, "witness": wit} for v, (rule, wit) in sorted(report.reasons.items())}
    return {"forced": sorted(report.vertices), "reasons": reasons}, {}, 0


def cmd_family(args: argparse.Namespace) -> int:
    return _print_graph(args, args.build(args), [])


def _undirected_input(args: argparse.Namespace) -> UndirectedGraph:
    return _graph(_read_input(args.input), UndirectedGraph)


def cmd_reduce(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    if args.problem == "nae3sat":
        art = nae3sat_to_graph(parse_nae3sat(text))
    else:
        art = vc_to_mag_instance(_vc_instance(args, _graph(text, UndirectedGraph)))
    comments = [f"role {v} {label}" for v, label in sorted(art.roles.items())]
    if art.target is not None:
        comments.append(f"target {art.target}")
    return _print_graph(args, art.graph, comments)


@_json_command
def cmd_verify(args: argparse.Namespace, text: str) -> tuple[dict, dict, int]:
    if args.check == "nae":
        result = {"verified": verify_nae_reduction(parse_nae3sat(text), max_edges=args.max_edges)}
    elif args.check == "vc":
        result = {"verified": verify_vc_reduction(_vc_instance(args, _graph(text, UndirectedGraph)), args.budget)}
    else:
        failures = _verify_family_forms(args) if args.check == "family" else _verify_extremal_random(args)
        result = {"verified": not failures, "failures": failures}
    return result, {}, 0 if result["verified"] else 1


def _verify_family_forms(args: argparse.Namespace) -> list[str]:
    """Closed-form spot checks for every generated family at small sizes."""
    from .families import cycle_c0, cycle_c1, cycle_c2, cycle_c3

    failures = []

    def check(label: str, got: int, want: int) -> None:
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    for n in range(3, args.max_n + 1):
        check(f"C_{n}^0", min_mag_set(cycle_c0(n), args.budget).size, 2)
        if n % 2 == 0:
            check(f"C_{n}^1", min_mag_set(cycle_c1(n), args.budget).size, 4)
        for d in range(1, n):
            if 2 * d != n:
                check(f"C_{n}^2(d={d})", min_mag_set(cycle_c2(n, d), args.budget).size, 3)
        if n >= 5:
            g = cycle_c3(n, [0, 2])
            src, snk = g.sources_and_sinks()
            check(f"C_{n}^3", min_mag_set(g, args.budget).size, len(src) + len(snk))
    for n in range(3, args.max_n + 1):
        check(f"transitive K_{n}", min_mag_set(transitive_tournament(n), args.budget).size, n)
        check(f"flipped K_{n}", min_mag_set(flipped_tournament(n), args.budget).size, n - 1)
        check(f"directed P_{n}", min_mag_set(directed_path(n), args.budget).size, 2)
    return failures


def _verify_extremal_random(args: argparse.Namespace) -> list[str]:
    """Random weakly connected digraphs: extremal test vs exact size."""
    import random

    rng = random.Random(args.seed)
    failures = []
    done = 0
    while done < args.samples:
        n = rng.randint(2, args.max_n)
        arcs = []
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.random()
                if r < 1 / 3:
                    arcs.append((i, j))
                elif r < 2 / 3:
                    arcs.append((j, i))
        g = OrientedGraph(n, tuple(arcs))
        if g.m == 0 or not g.is_weakly_connected():
            continue
        done += 1
        if is_extremal(g)[0] != (min_mag_set(g, args.budget).size == g.n):
            failures.append(f"mismatch on arcs={g.arcs}")
    return failures


def cmd_export_dot(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    sys.stdout.write(to_dot(parse_edge_list(text)))
    return 0


def _int_at_least(least: int):
    """An argparse type: an int no smaller than ``least``, else exit 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message for a non-int
    return parse


def _int_list(text: str) -> list[int]:
    """An argparse type: comma-separated 0-based positions, else exit 2."""
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    for v in values:
        if v < 0:
            raise argparse.ArgumentTypeError(f"positions are 0-based, got {v} in {text!r}")
    return values


# each optional flag of family cycle, and the --kind classes that read it
_CYCLE_FLAGS = {"d": ("C1", "C2"), "pattern": ("C3",), "sinks": ("C3",)}


def _cycle(args: argparse.Namespace) -> OrientedGraph:
    """The --kind class of the cycle on --n vertices; a flag the class does
    not read exits 2."""
    for flag, kinds in _CYCLE_FLAGS.items():
        if getattr(args, flag) is not None and args.kind not in kinds:
            args.usage_error(f"argument --{flag}: class {args.kind} does not take it")
    return cycle_orientation(args.n, args.kind, d=args.d, sources=args.pattern, sinks=args.sinks)


# the arguments shared by the commands; each command takes the ones it reads
_OPTIONS = {
    "input": dict(nargs="?", default="-", help="input file or '-' for stdin"),
    "--budget": dict(type=_int_at_least(1), default=DEFAULT_BUDGET, help="search-node budget"),
    "--max-edges": dict(type=_int_at_least(0), default=DEFAULT_EDGE_CAP, help="orientation-enumeration cap"),
    "--threads": dict(type=_int_at_least(1), default=1, help="spectrum worker processes (1 = serial)"),
    "--seed": dict(type=int, default=0),
    "--max-n": dict(type=_int_at_least(2), default=7, help="largest n checked"),
    "--k": dict(type=_int_at_least(0), default=0, help="vertex-cover budget"),
    "--format": dict(choices=["edgelist", "dot"], default="edgelist"),
    "--n": dict(type=int, default=0, help="vertex count"),
    "--input": dict(default="-", help="undirected edge list file or '-' for stdin"),
}


def _add_common(p: argparse.ArgumentParser, *options: str) -> None:
    for option in options:
        p.add_argument(option, **_OPTIONS[option])


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` reuses it."""
    parser = argparse.ArgumentParser(prog="magsets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mag", help="exact minimum MAG-set of an oriented graph")
    _add_common(p, "input", "--budget")
    p.set_defaults(func=cmd_mag)

    p = sub.add_parser("meg", help="exact minimum MEG-set of an undirected graph")
    _add_common(p, "input", "--budget")
    p.set_defaults(func=cmd_meg)

    p = sub.add_parser("spectrum", help="mag over all orientations of an undirected graph")
    _add_common(p, "input", "--budget", "--max-edges", "--threads")
    p.add_argument("--stop-at-two", action="store_true", help="early exit once mag 2 is found")
    p.add_argument("--stop-at-n", action="store_true", help="early exit once mag n is found")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("extremal", help="extremal test (directed) or orientability to mag=n (undirected)")
    _add_common(p, "input", "--max-edges")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("forced", help="vertices provably in every MAG-set")
    _add_common(p, "input")
    p.set_defaults(func=cmd_forced)

    p = sub.add_parser("family", help="emit a generated family member as an edge list")
    p.set_defaults(func=cmd_family)
    kinds = p.add_subparsers(dest="family", required=True)
    for kind, build, text in (("path", directed_path, "the directed path"),
                              ("tournament", transitive_tournament, "the transitive tournament"),
                              ("flipped-tournament", flipped_tournament, "the flipped tournament")):
        c = kinds.add_parser(kind, help=f"{text} on --n vertices")
        _add_common(c, "--n", "--format")
        c.set_defaults(build=lambda a, build=build: build(a.n))
    c = kinds.add_parser("cycle", help="one of the four orientation classes of the cycle")
    _add_common(c, "--n", "--format")
    c.add_argument("--kind", default="C0", choices=["C0", "C1", "C2", "C3"], help="cycle orientation class")
    c.add_argument("--d", type=int, default=None, help="distance from the source to the sink (class C2)")
    c.add_argument("--pattern", type=_int_list, default=None, help="comma-separated source positions (class C3)")
    c.add_argument("--sinks", type=_int_list, default=None, help="comma-separated sink positions (class C3)")
    c.set_defaults(build=_cycle, usage_error=c.error)
    c = kinds.add_parser("gj", help="the construction G_j")
    c.add_argument("--j", type=int, default=1)
    _add_common(c, "--format")
    c.set_defaults(build=lambda a: construction_gj(a.j))
    c = kinds.add_parser("rooted-tree", help="a tree with every arc away from --root")
    _add_common(c, "--input", "--format")
    c.add_argument("--root", type=int, default=0)
    c.set_defaults(build=lambda a: rooted_tree_orientation(_undirected_input(a), a.root))
    for kind, build, text in (("bipartite", bipartite_extremal_orientation, "every arc from one part to the other"),
                              ("girth", girth_alternating_orientation, "a shortest cycle alternating sources and sinks")):
        c = kinds.add_parser(kind, help=text)
        _add_common(c, "--input", "--format")
        c.set_defaults(build=lambda a, build=build: build(_undirected_input(a)))

    p = sub.add_parser("reduce", help="emit a hardness gadget as an edge list with role comments")
    p.set_defaults(func=cmd_reduce)
    problems = p.add_subparsers(dest="problem", required=True)
    c = problems.add_parser("nae3sat", help="NAE-3SAT gadget of a formula")
    _add_common(c, "input", "--format")
    c = problems.add_parser("vertexcover", help="vertex-cover gadget of a graph and --k")
    _add_common(c, "input", "--k", "--format")
    c.set_defaults(usage_error=c.error)

    p = sub.add_parser("verify", help="cross-check a reduction or closed form against oracles")
    p.set_defaults(func=cmd_verify)
    checks = p.add_subparsers(dest="check", required=True)
    c = checks.add_parser("nae", help="NAE-3SAT gadget against brute force")
    _add_common(c, "input", "--max-edges")
    c = checks.add_parser("vc", help="vertex-cover gadget against brute force")
    _add_common(c, "input", "--budget", "--k")
    c.set_defaults(usage_error=c.error)
    c = checks.add_parser("family", help="closed forms of the generated families")
    _add_common(c, "--budget")
    # every family starts at n = 3, so a smaller cap would check nothing
    c.add_argument("--max-n", **{**_OPTIONS["--max-n"], "type": _int_at_least(3)})
    c = checks.add_parser("thm32", help="extremal test against exact size on random digraphs")
    _add_common(c, "--budget", "--max-n", "--seed")
    c.add_argument("--samples", type=_int_at_least(1), default=100, help="random samples")

    p = sub.add_parser("export-dot", help="re-emit any edge list as DOT")
    _add_common(p, "input")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_BUDGET if isinstance(exc, (BudgetExceededError, TooManyEdgesError, TooLargeError)) else 1


def entrypoint() -> NoReturn:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
