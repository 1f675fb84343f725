"""Orientation enumeration: spectrum, extremes, and witnesses.

An orientation of an undirected graph is encoded by a bitmask with one bit
per edge index: bit 0 means the arc runs (min, max), bit 1 the reverse.
Reversing every arc preserves mag (monitoring checks both directions), so
the enumeration evaluates only the masks with the top bit clear.  Each is
the smaller mask of its reversal pair, so the first one scanned to attain a
value is the smallest of all 2^m masks that attain it: its witness.

The output is only the set of values and the witnesses, so a mask is
solved only when its value could be new.  Its lower bound is the number of
sources and sinks, read off the mask, or its forced set; its upper bound is
n - 1 unless the forced set is all of V, in which case mag = n exactly.  A
mask whose bounds allow only values with an earlier witness is skipped.
This is exact: the skipped mask's value is already in the spectrum with a
smaller witness.  It holds per pool chunk too, since each chunk skips only
on its own earlier masks and the merge keeps mask order.
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
from .monitoring import forced_vertices, is_extremal
from .solver import SolverConfig, _solve_connected, mag_lower_bound

DEFAULT_EDGE_CAP = 20


@dataclass(frozen=True)
class SpectrumResult:
    """The values of mag over all orientations, the extremes, and per
    extreme its first attaining mask.  ``complete`` is False when a stop
    flag ended the scan: then only the extreme it stopped at and that
    extreme's witness are exact."""

    mag_minus: int
    mag_plus: int
    spectrum: frozenset[int]
    gap: int
    witness_min: int
    witness_max: int
    complete: bool

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
) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """Scan the masks in [lo, hi), each the smaller of its reversal pair.

    Returns the map mag value -> first attaining mask, and each mask whose
    solve ran out of budget as (mask, lower, upper) bounds on its value.
    A mask whose bounds allow only values already mapped is skipped, since
    its value has an earlier witness.  The bounds are tried cheapest first:
    the sources and sinks read off the mask, then the forced set (all of V
    exactly when mag = n, so otherwise mag <= n - 1).  Stops early once mag
    2 (``stop_at_two``) or mag n (``stop_at_n``) is attained; a stop fires
    on a new value, which is never skipped.
    """
    n = G.n
    if not G.m:
        # at most one vertex: mag 0, where the connected solve would force it
        return {0: 0}, []
    # per vertex, its edges and those where it is the larger end: under
    # ``mask``, (mask ^ high) & inc holds the edges entering the vertex
    inc, high = [0] * n, [0] * n
    for i, (u, v) in enumerate(G.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
        high[v] |= 1 << i
    ends_of = list(zip(inc, high))
    floor = max(2, n - 1) if G.m == n * (n - 1) // 2 else 2  # tournaments: n - 1
    best: dict[int, int] = {}
    pending: list[tuple[int, int, int]] = []
    top = n + 1  # every value in [top, n] has a witness
    for mask in range(lo, hi):
        if top <= n:
            ends = 0
            for iv, hv in ends_of:
                x = (mask ^ hv) & iv
                if not x or x == iv:
                    ends += 1
            if max(floor, ends) >= top:
                continue
        g = orient(G, mask)
        forced = forced_vertices(g).vertices
        if len(forced) == n:
            size = n
        else:
            lower = mag_lower_bound(g, forced)
            if all(v in best for v in range(lower, n)):
                continue
            res = _solve_connected(g, cfg, forced)
            if not res.optimal:
                pending.append((mask, lower, min(res.size, n - 1)))
                continue
            size = res.size
        if size not in best:
            best[size] = mask
            while top - 1 in best:
                top -= 1
            if (stop_at_two and size == 2) or (stop_at_n and size == n):
                break
    return best, pending


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
    the full spectrum is the canonical output); the result then has
    ``complete`` false.  They need the serial scan: combined with
    ``threads > 1`` they raise :class:`BadParamError`.  An orientation
    whose solve runs out of budget raises :class:`BudgetExceededError`
    only when its value could be one without an earlier witness, so the
    outcome is the same for any worker count.
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
        pending: list[tuple[int, int, int]] = []
        for part, part_pending in parts:  # in mask order
            for val, mask in part.items():
                best.setdefault(val, mask)
            pending.extend(part_pending)
    else:
        best, pending = _scan_masks(G, 0, total, cfg, stop_at_two, stop_at_n)
    for mask, lower, upper in pending:
        if any(best.get(v, total) > mask for v in range(lower, upper + 1)):
            raise BudgetExceededError("solver budget exhausted during spectrum scan")
    values = frozenset(best)
    mag_minus, mag_plus = min(values), max(values)
    return SpectrumResult(
        mag_minus=mag_minus,
        mag_plus=mag_plus,
        spectrum=values,
        gap=mag_plus - mag_minus,
        witness_min=best[mag_minus],
        witness_max=best[mag_plus],
        complete=not ((stop_at_two and 2 in best) or (stop_at_n and G.n in best)),
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
