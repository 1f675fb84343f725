"""Core graph representations and shortest-path machinery.

Vertices are dense integers ``0..n-1``.  Both graph types are immutable
after construction; all queries are pure and safe to share across
concurrent readers.  Distances are unweighted hop counts computed by BFS,
with unreachability encoded by the :data:`UNREACHABLE` sentinel (which
compares greater than every finite distance and saturates under addition).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    DuplicatePairError,
    OutOfRangeError,
    SelfLoopError,
)

UNREACHABLE = float("inf")


def _check_vertex(v: int, n: int) -> None:
    if not (0 <= v < n):
        raise OutOfRangeError(f"vertex {v} out of range [0, {n})")


def _bfs(adj: Sequence[Sequence[int]], source: int) -> tuple[list[float], list[int]]:
    """Single-source hop distances over an adjacency list, and the BFS tree:
    ``parent[v]`` is the vertex v was first reached from, taking neighbours
    in adjacency order, and -1 for the source and the vertices it does not
    reach."""
    dist: list[float] = [UNREACHABLE] * len(adj)
    parent = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                parent[w] = u
                queue.append(w)
    return dist, parent


def _check_links(
    n: int, links: Sequence[tuple[int, int]], duplicate_message: str
) -> set[tuple[int, int]]:
    """The links as pairs (min, max), after checking that ``n`` is
    non-negative and that each link joins two distinct vertices of
    ``0..n-1`` on a pair no earlier link joins (else ``duplicate_message``,
    formatted with the pair)."""
    if n < 0:
        raise OutOfRangeError("vertex count must be non-negative")
    pairs = set()
    for u, v in links:
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pair = (min(u, v), max(u, v))
        if pair in pairs:
            raise DuplicatePairError(duplicate_message.format(pair))
        pairs.add(pair)
    return pairs


def _arc_sort_key(arc: tuple[int, int]) -> tuple[int, int, int]:
    # Canonical order: lexicographic by unordered pair, forward before
    # backward, so arc indices line up with edge indices after orienting.
    u, v = arc
    return (min(u, v), max(u, v), 0 if u < v else 1)


@dataclass(frozen=True)
class OrientedGraph:
    """A simple digraph with at most one arc per unordered vertex pair.

    ``arcs`` is stored in canonical sorted order with stable indices
    ``0..m-1``.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_links(self.n, self.arcs, "both directions (or duplicates) of pair {}")
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs, key=_arc_sort_key)))

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def _arc_index(self) -> dict[tuple[int, int], int]:
        return {arc: i for i, arc in enumerate(self.arcs)}

    def arc_index(self, u: int, v: int) -> int:
        """Index of arc (u, v) in the canonical ordering."""
        try:
            return self._arc_index[(u, v)]
        except KeyError:
            raise OutOfRangeError(f"no arc ({u}, {v})") from None

    @cached_property
    def out_links(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its out-arcs as (head, 1 << arc index) pairs: the
        adjacency the monitoring kernel walks.  Shared by every caller, so
        read-only (lists, since copying them into tuples costs a solve
        about 5 %)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for a, (u, v) in enumerate(self.arcs):
            adj[u].append((v, 1 << a))
        return adj

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def _dist(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(_bfs(self.out_neighbors, s)[0]) for s in range(self.n))

    def distance(self, x: int, y: int) -> float:
        """Hop count of a shortest directed x->y path, or UNREACHABLE."""
        _check_vertex(x, self.n)
        _check_vertex(y, self.n)
        return self._dist[x][y]

    def sources_and_sinks(self) -> tuple[frozenset[int], frozenset[int]]:
        """({u : no in-arcs}, {u : no out-arcs}); isolated vertices are both."""
        sources = frozenset(u for u in range(self.n) if not self.in_neighbors[u])
        sinks = frozenset(u for u in range(self.n) if not self.out_neighbors[u])
        return sources, sinks

    def components(self) -> list[frozenset[int]]:
        """Weakly connected components, each sorted by least vertex."""
        return _components(self.n, self.arcs)

    def is_weakly_connected(self) -> bool:
        # fewer than n - 1 arcs cannot connect n vertices: no lists for a huge n
        return self.m >= self.n - 1 and len(self.components()) <= 1

    def underlying(self) -> "UndirectedGraph":
        """Forget arc directions."""
        return UndirectedGraph(self.n, tuple((min(u, v), max(u, v)) for u, v in self.arcs))

    def reverse(self) -> "OrientedGraph":
        """The graph with every arc flipped."""
        return OrientedGraph(self.n, tuple((v, u) for u, v in self.arcs))

    def shortest_path_counts(self, x: int) -> list[int]:
        """Number of shortest directed paths from x to every vertex."""
        _check_vertex(x, self.n)
        dist = self._dist[x]
        sigma = [0] * self.n
        sigma[x] = 1
        for v in sorted((v for v in range(self.n) if dist[v] != UNREACHABLE), key=lambda v: dist[v]):
            if v == x:
                continue
            sigma[v] = sum(sigma[u] for u in self.in_neighbors[v] if dist[u] + 1 == dist[v])
        return sigma


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph with canonically ordered edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = _check_links(self.n, self.edges, "duplicate edge {}")
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def edge_index(self, u: int, v: int) -> int:
        try:
            return self._edge_index[(min(u, v), max(u, v))]
        except KeyError:
            raise OutOfRangeError(f"no edge {{{u}, {v}}}") from None

    @cached_property
    def out_links(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its edges as (neighbour, 1 << edge index) pairs, each
        edge seen from both ends under one bit: the adjacency the monitoring
        kernel walks, as in :attr:`OrientedGraph.out_links`, and read-only
        for the same reason."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, 1 << e))
            adj[v].append((u, 1 << e))
        return adj

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    def degree(self, v: int) -> int:
        _check_vertex(v, self.n)
        return len(self.neighbors[v])

    @cached_property
    def _dist(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(_bfs(self.neighbors, s)[0]) for s in range(self.n))

    def distance(self, x: int, y: int) -> float:
        _check_vertex(x, self.n)
        _check_vertex(y, self.n)
        return self._dist[x][y]

    def components(self) -> list[frozenset[int]]:
        return _components(self.n, self.edges)

    def is_connected(self) -> bool:
        # fewer than n - 1 edges cannot connect n vertices: no lists for a huge n
        return self.m >= self.n - 1 and len(self.components()) <= 1

    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """A 2-coloring (A, B) with every edge crossing, or None.

        Vertices of color 0 in each component (by least vertex) go to A,
        so the result is deterministic.
        """
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.neighbors[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        a = frozenset(v for v in range(self.n) if color[v] == 0)
        b = frozenset(v for v in range(self.n) if color[v] == 1)
        return a, b


def _components(n: int, links: Sequence[tuple[int, int]]) -> list[frozenset[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def _split(
    n: int, links: Sequence[tuple[int, int]], comps: Sequence[frozenset[int]]
) -> list[tuple[list[int], list[tuple[int, int]], list[int]]]:
    """Per component of ``comps`` (a partition of ``0..n-1`` no link crosses):
    its vertices in increasing order, its links relabeled to positions in
    that list, and their ids in ``links``; relabeling keeps both orders."""
    parts = [(sorted(comp), [], []) for comp in comps]
    part_of, label = [0] * n, [0] * n
    for p, (verts, _, _) in enumerate(parts):
        for i, v in enumerate(verts):
            part_of[v], label[v] = p, i
    for a, (u, v) in enumerate(links):
        _, local, ids = parts[part_of[u]]
        local.append((label[u], label[v]))
        ids.append(a)
    return parts


def find_shortest_cycle(g: UndirectedGraph) -> Optional[list[int]]:
    """One chordless cycle of length equal to the girth, or None if acyclic.

    From each root, a non-tree edge (u, v) of its BFS tree closes the walk
    root..u, v..root of length dist(u) + dist(v) + 1.  Every such walk holds
    a cycle no longer than itself: the two tree paths part at their last
    common vertex, which is neither u nor v (else (u, v) would be a tree
    edge), and close a simple cycle with (u, v).  A root on a shortest cycle
    C sees such a walk no longer than C: the tree lacks some edge of C, and
    each end of it is no farther from the root than along C.  So the least
    walk over all roots has the girth's length, and is itself a simple
    cycle: its paths meet only at the root, or a shorter cycle would exist.
    A shortest cycle has no chord.  The first least walk, roots in order
    and each root's edges in order, is built at the end.
    """
    best, best_len = None, UNREACHABLE
    for root in range(g.n):
        dist, parent = _bfs(g.neighbors, root)
        for u, v in g.edges:
            length = dist[u] + dist[v] + 1
            if length < best_len and parent[u] != v and parent[v] != u:
                best, best_len = (parent, u, v), length
    if best is None:
        return None
    parent, u, v = best
    up_u, up_v = [u], [v]  # each end's tree path up to the root
    for path in (up_u, up_v):
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
    return up_u + up_v[-2::-1]
