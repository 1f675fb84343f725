"""Exact minimum MAG-sets of oriented graphs and MEG-sets of undirected
graphs: both are covers by vertex pairs of the monitoring kernel's table.

Both are solved by one search of a connected graph (`_solve_connected`),
which differs between them only in its links, its forced set and its lower
bound.  Disconnected oriented inputs are split into weakly connected
components (`digraph._split`), solved independently, and the witnesses
unioned: a pair of vertices in different components monitors nothing, so
the problem is additive.  The certificate is built with each solve, from
its kernel rows, so a result is plain data and keeps no graph or rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cover import DEFAULT_BUDGET, CoverProblem, CoverSolution, check_budget, solve_cover
from .digraph import OrientedGraph, UndirectedGraph, _split
from .errors import DisconnectedInputError
from .monitoring import LinkAdjacency, Rows, _pair_table, _route_rows, _set_coverage, forced_vertices


@dataclass(frozen=True)
class MagResult:
    """Certified optimum: size, one witness, the forced seed, and (in
    ``coverage``) per arc one monitoring pair drawn from the witness.
    ``lower`` is a proven lower bound on mag, equal to ``size`` when
    ``optimal``."""

    size: int
    witness: tuple[int, ...]
    forced: frozenset[int]
    optimal: bool
    nodes: int
    lower: int
    coverage: dict[int, tuple[int, int]] = field(repr=False, hash=False)


def mag_lower_bound(g: OrientedGraph, forced: Optional[frozenset[int]] = None) -> int:
    """A valid lower bound: 2 when arcs exist, n-1 on complete underlying
    graphs (tournaments), and the forced-set size."""
    if g.m == 0:
        return 0
    if forced is None:
        forced = forced_vertices(g).vertices
    return max(_mag_floor(g.n, g.m), len(forced))


def _mag_floor(n: int, m: int) -> int:
    """mag of a graph on n vertices and m >= 1 arcs is at least 2, and at
    least n - 1 when the underlying graph is complete (tournaments)."""
    return max(2, n - 1) if m == n * (n - 1) // 2 else 2


def _solve_connected(
    n: int, m: int, adj: LinkAdjacency, forced: frozenset[int], lower: int,
    max_nodes: int = DEFAULT_BUDGET, stop: Optional[int] = None,
) -> tuple[CoverSolution, Rows]:
    """The cover solution, and the kernel rows built, of the connected graph
    on n vertices and m links with out-links ``adj`` (arcs, or undirected
    edges seen from both ends): bound by ``lower`` and searched from the
    caller's forced set F, which is in every MAG-set (or MEG-set), within
    ``max_nodes`` search nodes and with ``stop`` as in :func:`solve_cover`.
    The search's first level is F alone, which needs only F's own kernel
    rows, so those are built first: when the pairs inside F cover every
    link, F is the optimum, and when a sweep would give up right after F,
    nothing more is needed.  Otherwise the rows are completed into the pair
    table and handed to :func:`solve_cover`."""
    full = (1 << m) - 1
    rows = _route_rows(adj, forced, [None] * n)
    k = len(forced)
    if k >= lower:
        covered = 0
        for x in forced:
            row_x = rows[x]
            for y in forced:
                covered |= row_x[y]
        if covered == full:
            return CoverSolution(k, tuple(sorted(forced)), True, 0, k), rows
        if stop == k + 1:
            # the sweep's result when it gives up after one node, F itself
            return CoverSolution(n, tuple(range(n)), False, 1, stop), rows
    problem = CoverProblem(n, full, _pair_table(_route_rows(adj, range(n), rows)), forced, lower)
    return solve_cover(problem, max_nodes, stop=stop), rows


def min_mag_set(g: OrientedGraph, max_nodes: int = DEFAULT_BUDGET) -> MagResult:
    """Exact minimum MAG-set with certificate, searched within ``max_nodes``
    nodes; deterministic for a fixed budget.  A graph with no arcs has mag 0
    and an empty witness.  A disconnected graph gets the budget once per
    weakly connected component, and ``nodes`` is their sum."""
    check_budget(max_nodes)
    if g.m == 0:
        return MagResult(0, (), frozenset(), True, 0, 0, {})
    comps = g.components()
    if len(comps) == 1:
        return _min_mag_connected(g, max_nodes)
    size = 0
    witness: list[int] = []
    forced_all: set[int] = set()
    optimal = True
    nodes = lower = 0
    coverage: dict[int, tuple[int, int]] = {}
    for verts, arcs, arc_ids in _split(g.n, g.arcs, comps):
        if not arcs:
            continue  # an isolated vertex: no arc to monitor, none needed
        res = _min_mag_connected(OrientedGraph(len(verts), tuple(arcs)), max_nodes)
        size += res.size
        witness.extend(verts[v] for v in res.witness)
        forced_all.update(verts[v] for v in res.forced)
        optimal = optimal and res.optimal
        nodes += res.nodes
        lower += res.lower
        # the relabeling keeps vertex and arc order: the part's first pairs are the graph's
        coverage.update((arc_ids[a], (verts[x], verts[y])) for a, (x, y) in res.coverage.items())
    return MagResult(size, tuple(sorted(witness)), frozenset(forced_all), optimal, nodes, lower, coverage)


def _min_mag_connected(g: OrientedGraph, max_nodes: int) -> MagResult:
    """:func:`min_mag_set` of a weakly connected graph with arcs."""
    forced = forced_vertices(g).vertices
    lower = mag_lower_bound(g, forced)
    sol, rows = _solve_connected(g.n, g.m, g.out_links, forced, lower, max_nodes)
    coverage = _set_coverage(g.out_links, g.m, list(sol.witness), rows)[0]
    return MagResult(sol.size, sol.witness, forced, sol.optimal, sol.nodes, sol.lower, coverage)


@dataclass(frozen=True)
class MegResult:
    """Minimum MEG-set size and one witness; ``optimal`` is False when the
    node budget ran out before the size was proven."""

    size: int
    witness: tuple[int, ...]
    optimal: bool
    nodes: int


def min_meg_set(G: UndirectedGraph, max_nodes: int = DEFAULT_BUDGET) -> MegResult:
    """Exact minimum monitoring edge-geodetic set of a connected graph,
    searched within ``max_nodes`` nodes.

    The search of :func:`min_mag_set` over the kernel of the undirected
    links, seeded with all degree-1 vertices, which belong to every
    MEG-set, and bounded below by 2 and by their number.
    """
    check_budget(max_nodes)
    if not G.is_connected():
        raise DisconnectedInputError("MEG solver requires a connected graph")
    if G.m == 0:
        return MegResult(0, (), True, 0)
    forced = frozenset(v for v in range(G.n) if G.degree(v) == 1)
    sol = _solve_connected(G.n, G.m, G.out_links, forced, max(2, len(forced)), max_nodes)[0]
    return MegResult(sol.size, sol.witness, sol.optimal, sol.nodes)
