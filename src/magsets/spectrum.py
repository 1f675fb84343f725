"""Orientation enumeration: spectrum, extremes, and witnesses.

An orientation of an undirected graph is encoded by a bitmask with one bit
per edge index: bit 0 means the arc runs (min, max), bit 1 the reverse.
Reversing every arc preserves mag (monitoring checks both directions), so
the enumeration evaluates only the masks with the top bit clear.  Each is
the smaller mask of its reversal pair, so the first one scanned to attain a
value is the smallest of all 2^m masks that attain it: its witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .digraph import OrientedGraph, UndirectedGraph
from .errors import (
    BadParamError,
    BudgetExceededError,
    DisconnectedInputError,
    TooManyEdgesError,
    WidthMismatchError,
)
from .monitoring import is_extremal
from .solver import SolverConfig, _solve_connected, min_mag_set

DEFAULT_EDGE_CAP = 20


@dataclass(frozen=True)
class SpectrumResult:
    mag_minus: int
    mag_plus: int
    spectrum: frozenset[int]
    gap: int
    witness_min: int
    witness_max: int

    def witness_min_bits(self, m: int) -> str:
        """Bitstring in edge-index order, leftmost = edge 0."""
        return format(self.witness_min, f"0{m}b")[::-1] if m else ""

    def witness_max_bits(self, m: int) -> str:
        return format(self.witness_max, f"0{m}b")[::-1] if m else ""


def orient(G: UndirectedGraph, mask: int) -> OrientedGraph:
    """The orientation encoded by ``mask``; arc indices align with edge
    indices."""
    if not (0 <= mask < 1 << G.m):
        raise WidthMismatchError(f"mask {mask} does not fit {G.m} edge bits")
    # G's edges are valid and sorted, so the arcs are already canonical
    arcs = tuple((v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(G.edges))
    return OrientedGraph._canonical(G.n, arcs)


def _scan_masks(
    G: UndirectedGraph,
    lo: int,
    hi: int,
    cfg: SolverConfig,
    stop_at_two: bool = False,
    stop_at_n: bool = False,
) -> dict[int, int]:
    """Evaluate the masks in [lo, hi), each the smaller of its reversal
    pair; map mag value -> first attaining mask.  Stops early once mag 2
    (``stop_at_two``) or mag n (``stop_at_n``) is attained."""
    # G is connected, so each orientation is weakly connected and needs no
    # split into components; without arcs (one vertex at most) the general
    # solve gives mag 0, where the connected one would force the vertex
    solve = _solve_connected if G.m else min_mag_set
    best: dict[int, int] = {}
    for mask in range(lo, hi):
        res = solve(orient(G, mask), cfg)
        if not res.optimal:
            raise BudgetExceededError("solver budget exhausted during spectrum scan")
        best.setdefault(res.size, mask)
        if (stop_at_two and 2 in best) or (stop_at_n and G.n in best):
            break
    return best


def spectrum(
    G: UndirectedGraph,
    cfg: Optional[SolverConfig] = None,
    max_edges: int = DEFAULT_EDGE_CAP,
    threads: int = 1,
    stop_at_two: bool = False,
    stop_at_n: bool = False,
) -> SpectrumResult:
    """Exact spectrum over all 2^m orientations of a connected graph.

    ``stop_at_two`` / ``stop_at_n`` allow early exit once the trivial
    extreme for mag-minus / mag-plus has been reached (off by default so
    the full spectrum is the canonical output).  They need the serial scan:
    combined with ``threads > 1`` they raise :class:`BadParamError`.
    """
    if not G.is_connected():
        raise DisconnectedInputError("spectrum requires a connected graph")
    if G.m > max_edges:
        raise TooManyEdgesError(f"{G.m} edges exceeds the cap of {max_edges}")
    if threads > 1 and (stop_at_two or stop_at_n):
        raise BadParamError("early exit (stop at mag 2 or n) needs a serial scan: use 1 thread")
    cfg = cfg or SolverConfig()
    total = 1 << max(G.m - 1, 0)  # the masks with the top bit clear
    if threads > 1 and G.m >= 6:
        # imported here: multiprocessing and its imports add ~2.5 MB of resident
        # memory that a serial scan never needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(32, total // (threads * 8))
        los = range(0, total, chunk)
        his = [min(lo + chunk, total) for lo in los]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(partial(_scan_masks, G, cfg=cfg), los, his))
        best: dict[int, int] = {}
        for part in parts:  # in mask order
            for val, mask in part.items():
                best.setdefault(val, mask)
    else:
        best = _scan_masks(G, 0, total, cfg, stop_at_two, stop_at_n)
    values = frozenset(best)
    mag_minus, mag_plus = min(values), max(values)
    return SpectrumResult(
        mag_minus=mag_minus,
        mag_plus=mag_plus,
        spectrum=values,
        gap=mag_plus - mag_minus,
        witness_min=best[mag_minus],
        witness_max=best[mag_plus],
    )


def mag_plus_at_least_n(G: UndirectedGraph, max_edges: int = DEFAULT_EDGE_CAP) -> bool:
    """Whether some orientation of connected G is MAG-extremal (mag = n).

    Bipartite graphs with an edge short-circuit to True: orienting every
    edge from one part to the other makes all vertices sources or sinks.
    Otherwise orientations are enumerated with an extremal test and early
    exit on the first success.
    """
    if not G.is_connected():
        raise DisconnectedInputError("requires a connected graph")
    if G.m == 0:
        # a lone vertex has mag 0 != 1
        return G.n == 0
    if G.bipartition() is not None:
        return True
    if G.m > max_edges:
        raise TooManyEdgesError(f"{G.m} edges exceeds the cap of {max_edges}")
    for mask in range(1 << (G.m - 1)):  # is_extremal is reversal-invariant
        if is_extremal(orient(G, mask))[0]:
            return True
    return False
