"""Exact minimum MAG-set computation plus a greedy upper-bound heuristic.

Disconnected inputs are decomposed into weakly connected components,
solved independently, and the witnesses unioned: a pair of vertices in
different components monitors nothing, so the problem is additive.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cover import CoverProblem, CoverSolution, pair_rank, pair_rows, solve_cover
from .digraph import OrientedGraph
from .monitoring import MonitorMatrix, forced_vertices, monitor_matrix


class Strategy(Enum):
    AUTO = "auto"
    CARDINALITY_SWEEP = "sweep"
    BRANCH_AND_BOUND = "bnb"


@dataclass(frozen=True)
class SolverConfig:
    max_nodes: int = 10_000_000
    strategy: Strategy = Strategy.AUTO
    use_forcing: bool = True


@dataclass(frozen=True)
class MagResult:
    """Certified optimum: size, one witness, the forced seed, and per arc
    one monitoring pair drawn from the witness."""

    size: int
    witness: tuple[int, ...]
    forced: frozenset[int]
    coverage: dict[int, tuple[int, int]]
    optimal: bool
    nodes: int


def greedy_mag_set(
    g: OrientedGraph,
    matrix: Optional[MonitorMatrix] = None,
    forced: Optional[frozenset[int]] = None,
) -> frozenset[int]:
    """A valid MAG-set: forced seed, then repeatedly the vertex covering the
    most new arcs (ties to the lowest index)."""
    if g.m == 0:
        return frozenset()
    if matrix is None:
        matrix = monitor_matrix(g)
    if forced is None:
        forced = forced_vertices(g).vertices
    rows = pair_rows(g.n, matrix.pair_arcs)
    chosen = sorted(forced)
    full = (1 << g.m) - 1
    cov = 0
    for i, x in enumerate(chosen):
        row_x = rows[x]
        for y in chosen[i + 1 :]:
            cov |= row_x[y]
    while cov != full or len(chosen) < 2:
        best_v, best_gain = -1, -1
        for v in range(g.n):
            if v in chosen:
                continue
            gain_mask = 0
            row_v = rows[v]
            for c in chosen:
                gain_mask |= row_v[c]
            gain = (gain_mask & ~cov).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        row_v = rows[best_v]
        for c in chosen:
            cov |= row_v[c]
        chosen.append(best_v)
        chosen.sort()
    return frozenset(chosen)


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


def _solve_connected(
    g: OrientedGraph, cfg: SolverConfig
) -> tuple[CoverSolution, frozenset[int], MonitorMatrix]:
    """Build the matrix and the forced set once, then bound, greedy and search."""
    matrix = monitor_matrix(g)
    seed = forced_vertices(g).vertices
    forced = seed if cfg.use_forcing else frozenset()
    problem = CoverProblem(
        n=g.n,
        full_mask=(1 << g.m) - 1,
        pair_masks=matrix.pair_arcs,
        forced=forced,
        lower_bound=mag_lower_bound(g, seed) if cfg.use_forcing else 2,
    )
    greedy = tuple(sorted(greedy_mag_set(g, matrix, seed)))
    solution = solve_cover(
        problem, max_nodes=cfg.max_nodes, strategy=cfg.strategy.value, upper_witness=greedy
    )
    return solution, forced, matrix


def _coverage_certificate(
    g: OrientedGraph, witness: tuple[int, ...], matrix: MonitorMatrix
) -> dict[int, tuple[int, int]]:
    """Per arc, the lexicographically first witness pair monitoring it."""
    cert: dict[int, tuple[int, int]] = {}
    left = (1 << g.m) - 1
    members = sorted(witness)
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            new = matrix.pair_arcs[pair_rank(g.n, x, y)] & left
            left ^= new
            while new:
                low = new & -new
                cert[low.bit_length() - 1] = (x, y)
                new ^= low
    return cert


def min_mag_set(g: OrientedGraph, cfg: Optional[SolverConfig] = None) -> MagResult:
    """Exact minimum MAG-set with certificate; deterministic for a fixed
    config.  A graph with no arcs has mag 0 and an empty witness."""
    cfg = cfg or SolverConfig()
    if g.m == 0:
        return MagResult(0, (), frozenset(), {}, True, 0)
    comps = g.components()
    if len(comps) == 1:
        solution, forced, matrix = _solve_connected(g, cfg)
        cert = _coverage_certificate(g, solution.witness, matrix)
        return MagResult(
            solution.size, solution.witness, forced, cert, solution.optimal, solution.nodes
        )
    # solve per component and merge through the vertex relabeling
    size = 0
    witness: list[int] = []
    forced_all: set[int] = set()
    coverage: dict[int, tuple[int, int]] = {}
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
        for a, (x, y) in res.coverage.items():
            au, av = sub.arcs[a]
            coverage[g.arc_index(verts[au], verts[av])] = (verts[x], verts[y])
        optimal = optimal and res.optimal
        nodes += res.nodes
    return MagResult(size, tuple(sorted(witness)), frozenset(forced_all), coverage, optimal, nodes)
