"""Exact minimum MAG-set computation plus a greedy upper-bound heuristic.

Disconnected inputs are decomposed into weakly connected components,
solved independently, and the witnesses unioned: a pair of vertices in
different components monitors nothing, so the problem is additive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .cover import CoverProblem, Strategy, greedy_cover, pair_rank, solve_cover
from .digraph import OrientedGraph
from .monitoring import MonitorMatrix, forced_vertices, monitor_matrix


@dataclass(frozen=True)
class SolverConfig:
    max_nodes: int = 10_000_000
    strategy: Strategy = Strategy.AUTO


@dataclass(frozen=True)
class MagResult:
    """Certified optimum: size, one witness, the forced seed, and (in
    ``coverage``) per arc one monitoring pair drawn from the witness."""

    size: int
    witness: tuple[int, ...]
    forced: frozenset[int]
    optimal: bool
    nodes: int
    # keyword-only, so a call with the positional fields of the eager
    # certificate (``coverage`` before ``optimal``) fails loudly
    _graph: OrientedGraph = field(repr=False, kw_only=True)
    _matrix: Optional[MonitorMatrix] = field(default=None, repr=False, compare=False, kw_only=True)

    @cached_property
    def coverage(self) -> dict[int, tuple[int, int]]:
        """Per arc, the lexicographically first witness pair monitoring it;
        built on first access from the matrix of the solve."""
        matrix = self._matrix if self._matrix is not None else monitor_matrix(self._graph)
        cert: dict[int, tuple[int, int]] = {}
        left = (1 << matrix.m) - 1
        members = sorted(self.witness)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                new = matrix.pair_arcs[pair_rank(matrix.n, x, y)] & left
                left ^= new
                while new:
                    low = new & -new
                    cert[low.bit_length() - 1] = (x, y)
                    new ^= low
        return cert


def greedy_mag_set(g: OrientedGraph) -> frozenset[int]:
    """A valid MAG-set: forced seed, then repeatedly the vertex covering the
    most new arcs (ties to the lowest index)."""
    if g.m == 0:
        return frozenset()
    matrix = monitor_matrix(g)
    problem = CoverProblem(g.n, (1 << g.m) - 1, matrix.pair_arcs, forced_vertices(g).vertices)
    return frozenset(greedy_cover(problem))


def mag_lower_bound(g: OrientedGraph, forced: Optional[frozenset[int]] = None) -> int:
    """A valid lower bound: 2 when arcs exist, n-1 on complete underlying
    graphs (tournaments), and the forced-set size."""
    if g.m == 0:
        return 0
    bound = 2
    if g.n >= 2 and g.m == g.n * (g.n - 1) // 2:
        bound = max(bound, g.n - 1)
    if forced is None:
        forced = forced_vertices(g).vertices
    return max(bound, len(forced))


def _solve_connected(g: OrientedGraph, cfg: SolverConfig, forced: frozenset[int]) -> MagResult:
    """Build the matrix once, then bound and search from the caller's forced
    set; the greedy cover is built only if the search asks for it."""
    matrix = monitor_matrix(g)
    problem = CoverProblem(
        n=g.n,
        full_mask=(1 << g.m) - 1,
        pair_masks=matrix.pair_arcs,
        forced=forced,
        lower_bound=mag_lower_bound(g, forced),
    )
    solution = solve_cover(problem, max_nodes=cfg.max_nodes, strategy=cfg.strategy)
    return MagResult(
        solution.size, solution.witness, forced, solution.optimal, solution.nodes,
        _graph=g, _matrix=matrix,
    )


def min_mag_set(g: OrientedGraph, cfg: Optional[SolverConfig] = None) -> MagResult:
    """Exact minimum MAG-set with certificate; deterministic for a fixed
    config.  A graph with no arcs has mag 0 and an empty witness."""
    cfg = cfg or SolverConfig()
    if g.m == 0:
        return MagResult(0, (), frozenset(), True, 0, _graph=g)
    comps = g.components()
    if len(comps) == 1:
        return _solve_connected(g, cfg, forced_vertices(g).vertices)
    # solve per component and merge through the vertex relabeling; pairs
    # across components monitor nothing, so the coverage of the merged
    # witness is that of the whole graph's matrix
    size = 0
    witness: list[int] = []
    forced_all: set[int] = set()
    optimal = True
    nodes = 0
    for comp in comps:
        verts = sorted(comp)
        local = {v: i for i, v in enumerate(verts)}
        sub_arcs = [(local[u], local[v]) for u, v in g.arcs if u in comp]
        sub = OrientedGraph(len(verts), tuple(sub_arcs))
        res = min_mag_set(sub, cfg)
        size += res.size
        witness.extend(verts[v] for v in res.witness)
        forced_all.update(verts[v] for v in res.forced)
        optimal = optimal and res.optimal
        nodes += res.nodes
    return MagResult(size, tuple(sorted(witness)), frozenset(forced_all), optimal, nodes, _graph=g)
