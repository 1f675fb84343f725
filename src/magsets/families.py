"""Generators for the analyzed graph families and named orientations.

Vertex numbering is fixed per family so closed-form results map to indices
deterministically; cycle vertices 0..n-1 stand for v1..vn.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .digraph import OrientedGraph, UndirectedGraph, _bfs, find_shortest_cycle
from .errors import AcyclicError, BadParamError, NotATreeError, NotBipartiteError


def directed_path(n: int) -> OrientedGraph:
    """The path v1 -> v2 -> ... -> vn."""
    if n < 1:
        raise BadParamError("path needs n >= 1")
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_c0(n: int) -> OrientedGraph:
    """The cycle oriented all one way: no sources, no sinks."""
    if n < 3:
        raise BadParamError("cycle needs n >= 3")
    return OrientedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def cycle_c1(n: int) -> OrientedGraph:
    """Even cycle with one source v1 and one sink v_{n/2+1} at distance n/2."""
    if n < 4 or n % 2:
        raise BadParamError("this class needs an even n >= 4")
    return _cycle_one_source_sink(n, n // 2)


def cycle_c2(n: int, d: int) -> OrientedGraph:
    """Cycle with one source v1 and one sink v_{d+1}, d != n/2."""
    if n < 3:
        raise BadParamError("cycle needs n >= 3")
    if not (1 <= d <= n - 1) or 2 * d == n:
        raise BadParamError(f"d must be in [1, {n - 1}] and differ from n/2")
    return _cycle_one_source_sink(n, d)


def _cycle_one_source_sink(n: int, d: int) -> OrientedGraph:
    arcs = [(i, i + 1) for i in range(d)]  # forward chain v1..v_{d+1}
    arcs += [(j + 1, j) for j in range(d, n - 1)]  # backward chain v_n..v_{d+2}
    arcs.append((0, n - 1))
    return OrientedGraph(n, tuple(arcs))


def cycle_c3(
    n: int, sources: Sequence[int], sinks: Optional[Sequence[int]] = None
) -> OrientedGraph:
    """Cycle with the given sources (>= 2) and sinks alternating with them.

    When ``sinks`` is omitted each sink is placed just before the next
    source going around the cycle, which requires consecutive sources to be
    non-adjacent.  Every edge is oriented away from its preceding source
    (equivalently, toward its preceding sink).
    """
    if n < 4:
        raise BadParamError("more than one source and sink needs n >= 4")
    src = sorted(set(sources))
    if len(src) != len(sources) or len(src) < 2:
        raise BadParamError("need at least two distinct sources")
    if any(not 0 <= s < n for s in src):
        raise BadParamError("source position out of range")
    if sinks is None:
        snk = sorted((src[(i + 1) % len(src)] - 1) % n for i in range(len(src)))
    else:
        snk = sorted(set(sinks))
        if len(snk) != len(sinks) or len(snk) != len(src):
            raise BadParamError("sinks must be distinct and match the source count")
        if any(not 0 <= t < n for t in snk):
            raise BadParamError("sink position out of range")
    if set(src) & set(snk):
        raise BadParamError("a vertex cannot be both source and sink")
    extremes = sorted([(p, "src") for p in src] + [(p, "snk") for p in snk])
    for i, (_, role) in enumerate(extremes):
        if role == extremes[(i + 1) % len(extremes)][1]:
            raise BadParamError("sources and sinks must alternate around the cycle")
    role_at = dict(extremes)
    arcs = []
    for p in range(n):
        # find the nearest extreme at position <= p (cyclically)
        q = p
        while q not in role_at:
            q = (q - 1) % n
        arcs.append((p, (p + 1) % n) if role_at[q] == "src" else ((p + 1) % n, p))
    return OrientedGraph(n, tuple(arcs))


def cycle_orientation(
    n: int,
    kind: str,
    d: Optional[int] = None,
    sources: Optional[Sequence[int]] = None,
    sinks: Optional[Sequence[int]] = None,
) -> OrientedGraph:
    """Dispatch over the four orientation classes of the cycle."""
    kind = kind.upper()
    if kind == "C0":
        return cycle_c0(n)
    if kind == "C1":
        if d is not None and 2 * d != n:
            raise BadParamError("this class fixes d = n/2")
        return cycle_c1(n)
    if kind == "C2":
        if d is None:
            raise BadParamError("d is required for this class")
        return cycle_c2(n, d)
    if kind == "C3":
        if sources is None:
            raise BadParamError("a source-position pattern is required for this class")
        return cycle_c3(n, sources, sinks)
    raise BadParamError(f"unknown cycle class {kind!r}")


def rooted_tree_orientation(T: UndirectedGraph, root: int) -> OrientedGraph:
    """All arcs directed away from the root."""
    if not (0 <= root < T.n):
        raise BadParamError(f"root {root} out of range")
    if T.m != T.n - 1 or not T.is_connected():
        raise NotATreeError("input is not a tree")
    parent = _bfs(T.neighbors, root)[1]
    return OrientedGraph(T.n, tuple((p, w) for w, p in enumerate(parent) if p != -1))


def transitive_tournament(n: int) -> OrientedGraph:
    """Arcs (i, j) for all i < j."""
    if n < 1:
        raise BadParamError("tournament needs n >= 1")
    return OrientedGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def flipped_tournament(n: int) -> OrientedGraph:
    """The transitive tournament with the arcs into the last vertex
    reversed, except the one from v_{n-1}; its mag is n - 1."""
    if n < 3:
        raise BadParamError("flipped tournament needs n >= 3")
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n - 1)]
    arcs += [(n - 1, i) for i in range(n - 2)]
    arcs.append((n - 2, n - 1))
    return OrientedGraph(n, tuple(arcs))


def construction_gj(j: int) -> UndirectedGraph:
    """Path x'-x-y-y' with j extra vertices z_i adjacent to both x and y,
    each carrying a pendant z'_i.

    Indices: x'=0, x=1, y=2, y'=3, z_i=4+2i, z'_i=5+2i.
    """
    if j < 1:
        raise BadParamError("construction needs j >= 1")
    edges = [(0, 1), (1, 2), (2, 3)]
    for i in range(j):
        z, zp = 4 + 2 * i, 5 + 2 * i
        edges += [(1, z), (2, z), (z, zp)]
    return UndirectedGraph(4 + 2 * j, tuple(edges))


def bipartite_extremal_orientation(
    G: UndirectedGraph, parts: Optional[tuple[frozenset[int], frozenset[int]]] = None
) -> OrientedGraph:
    """All arcs from part A to part B: every vertex is a source or sink."""
    if parts is None:
        parts = G.bipartition()
        if parts is None:
            raise NotBipartiteError("graph is not bipartite")
    a, b = parts
    if a & b or (a | b) != frozenset(range(G.n)):
        raise NotBipartiteError("parts do not partition the vertices")
    if any(u in a and v in a or u in b and v in b for u, v in G.edges):
        raise NotBipartiteError("an edge stays within one part")
    arcs = [(u, v) if u in a else (v, u) for u, v in G.edges]
    return OrientedGraph(G.n, tuple(arcs))


def girth_alternating_orientation(G: UndirectedGraph) -> OrientedGraph:
    """Orientation making the vertices of one shortest cycle alternately
    sources and sinks (except at most one vertex when the girth is odd).

    Edges incident to a cycle vertex labeled source point outward, those
    incident to a sink point inward; all remaining edges run from the lower
    index to the higher.
    """
    cycle = find_shortest_cycle(G)
    if cycle is None:
        raise AcyclicError("graph contains no cycle")
    role: dict[int, str] = {}
    g = len(cycle)
    for i, v in enumerate(cycle):
        if g % 2 and i == g - 1:
            continue  # the one unconstrained vertex on an odd cycle
        role[v] = "src" if i % 2 == 0 else "snk"
    arcs = []
    for u, v in G.edges:
        if role.get(u) == "src" or role.get(v) == "snk":
            arcs.append((u, v))
        elif role.get(u) == "snk" or role.get(v) == "src":
            arcs.append((v, u))
        else:
            arcs.append((u, v))
    return OrientedGraph(G.n, tuple(arcs))
