"""Edge-list text format and DOT export.

Format (bit-exact): first line ``directed <n> <m>`` or ``undirected <n> <m>``,
then m lines ``<u> <v>`` with 0-based integers separated by one space.
Lines starting with ``#`` are comments and may appear anywhere.
"""
from __future__ import annotations

from typing import Union

from .digraph import OrientedGraph, UndirectedGraph
from .errors import GraphError, ParseError

Graph = Union[OrientedGraph, UndirectedGraph]


def parse_edge_list(text: str) -> Graph:
    """Parse either graph flavor from edge-list text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] not in ("directed", "undirected"):
        raise ParseError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError(f"bad header counts: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line: {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad edge line: {ln!r}") from None
    try:
        if header[0] == "directed":
            return OrientedGraph(n, tuple(pairs))
        return UndirectedGraph(n, tuple(pairs))
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def write_edge_list(g: Graph, trailing_comments: list[str] | None = None) -> str:
    """Serialize a graph to canonical edge-list text."""
    if isinstance(g, OrientedGraph):
        lines = [f"directed {g.n} {g.m}"]
        lines += [f"{u} {v}" for u, v in g.arcs]
    else:
        lines = [f"undirected {g.n} {g.m}"]
        lines += [f"{u} {v}" for u, v in g.edges]
    for comment in trailing_comments or []:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """DOT export with numeric node ids."""
    if isinstance(g, OrientedGraph):
        lines = ["digraph {"]
        lines += [f"  {u} -> {v};" for u, v in g.arcs]
    else:
        lines = ["graph {"]
        lines += [f"  {u} -- {v};" for u, v in g.edges]
    for v in range(g.n):
        deg_zero = not (g.out_neighbors[v] or g.in_neighbors[v]) if isinstance(g, OrientedGraph) else not g.neighbors[v]
        if deg_zero:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
