"""Orientation enumeration: spectrum, extremes, and witnesses.

An orientation of an undirected graph is encoded by a bitmask with one bit
per edge index: bit 0 means the arc runs (min, max), bit 1 the reverse.
Reversing every arc preserves mag (monitoring checks both directions), and
so does relabelling by an automorphism of G: both act on the masks, and
every mask in an orbit of the group they generate has the same mag.  The
enumeration scans the masks with the top bit clear (the smaller of each
reversal pair) and skips a mask when some automorphism, with or without
reversal, maps it to a smaller one.  The least mask of an orbit is never
skipped, so the first mask scanned to attain a value is the least of all
2^m masks that attain it: its witness.  The skip needs no group structure,
so keeping only some of the automorphisms keeps it exact.

The output is only the set of values and the witnesses, so each mask costs
only what can decide whether its value could be new (the tiers of
:func:`_scan_masks`).  No orientation is built: each tier, the search
included, reads per-graph tables indexed by the mask.  A mask skipped or
given up on has its value in a range whose every value has an earlier
witness, so the values, extremes and witnesses are those of a full scan.
This holds per pool chunk too: a chunk skips by value only on its own
earlier masks, by symmetry only a mask whose least orbit mate some chunk
scans, and the merge keeps mask order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .cover import DEFAULT_BUDGET, check_budget
from .digraph import OrientedGraph, UndirectedGraph, _bfs
from .errors import (
    BadParamError,
    BudgetExceededError,
    DisconnectedInputError,
    TooManyEdgesError,
    WidthMismatchError,
)
from .monitoring import _first_unbypassed, _forced_reasons
from .solver import _mag_floor, _solve_connected

DEFAULT_EDGE_CAP = 20


@dataclass(frozen=True)
class SpectrumResult:
    """The values of mag over all orientations, the extremes, and per
    extreme its first attaining mask.  ``complete`` is False when a stop
    flag ended the scan: then only the extreme it stopped at and that
    extreme's witness are exact.  ``counts`` holds the scan's work, summed
    over pool chunks: the masks scanned, those of them skipped by symmetry,
    those that reached forcing or the extremal test, those searched, and
    the full matrices built.  It depends on the worker count, so equality
    ignores it."""

    mag_minus: int
    mag_plus: int
    spectrum: frozenset[int]
    gap: int
    witness_min: int
    witness_max: int
    complete: bool
    counts: dict[str, int] = field(default_factory=dict, compare=False)

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
    arcs = tuple((v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(G.edges))
    return OrientedGraph(G.n, arcs)


# the most automorphisms the scan tests a mask against; a subset keeps the
# skip exact, and this bounds the test's cost on a large group
_MAX_SYMMETRIES = 128

# each automorphism maps a mask through one table per chunk of this many edges
_SYM_CHUNK = 6

# an automorphism's action on masks: the bits it flips, and per chunk of
# edge bits a table of their images
Symmetry = tuple[int, tuple[list[int], ...]]


def _automorphisms(G: UndirectedGraph) -> Iterator[tuple[int, ...]]:
    """Every vertex permutation that maps G's edges onto its edges, by
    backtracking over the vertices in breadth-first order from vertex 0: a
    vertex goes only to an unused vertex of its degree whose neighbours
    among the used vertices are the images of its placed neighbours (so a
    neighbour of the first one's image).  The search keeps a stack with,
    per placed vertex, its untried images and the vertices used before it:
    recursion would go one level per vertex, past the interpreter's limit
    on a graph of about a thousand vertices."""
    n, nbs = G.n, G.neighbors
    if not n:
        yield ()
        return
    adj = [sum(1 << w for w in nb) for nb in nbs]
    degree = [len(nb) for nb in nbs]
    order = sorted(range(n), key=_bfs(nbs, 0)[0].__getitem__)
    rank = {v: k for k, v in enumerate(order)}
    # per vertex in order, its neighbours placed before it
    back = [[u for u in nbs[v] if rank[u] < k] for k, v in enumerate(order)]
    image = [0] * n
    stack: list[tuple[Iterator[int], int]] = []
    k = used = 0
    while True:
        if k == n:
            yield tuple(image)
        else:
            placed = [image[u] for u in back[k]]
            mask = sum([1 << w for w in placed])
            d = degree[order[k]]
            images = [w for w in (nbs[placed[0]] if placed else range(n))
                      if not used >> w & 1 and adj[w] & used == mask and degree[w] == d]
            stack.append((iter(images), used))
        while stack:  # the next untried image on the deepest level that has one
            untried, used = stack[-1]
            w = next(untried, None)
            if w is not None:
                break
            stack.pop()
        else:
            return
        k = len(stack)
        image[order[k - 1]] = w
        used |= 1 << w


def _mask_symmetries(G: UndirectedGraph) -> list[Symmetry]:
    """The action on masks of at most ``_MAX_SYMMETRIES`` automorphisms
    other than the identity.  Edge i = (u, v) goes to edge j = {p(u), p(v)},
    and its bit flips when p(u) > p(v), so the image of a mask is the flip
    mask XOR each chunk's table entry."""
    identity = tuple(range(G.n))
    index = {e: i for i, e in enumerate(G.edges)}
    symmetries = []
    for p in islice((p for p in _automorphisms(G) if p != identity), _MAX_SYMMETRIES):
        flip = 0
        images = []
        for u, v in G.edges:
            a, b = p[u], p[v]
            j = index[(a, b) if a < b else (b, a)]
            flip |= (a > b) << j
            images.append(1 << j)
        tables = []
        for c in range(0, G.m, _SYM_CHUNK):
            table = [0]
            for bit in images[c : c + _SYM_CHUNK]:  # the patterns with this bit set follow
                table += [image | bit for image in table]
            tables.append(table)
        symmetries.append((flip, tuple(tables)))
    return symmetries


def _canonical_masks(symmetries: Sequence[Symmetry], m: int, lo: int, hi: int) -> Iterator[int]:
    """The masks in [lo, hi), all with the top bit clear, that no symmetry
    maps to a smaller mask once the image is reversed to clear its top bit.
    Each block of 2^_SYM_CHUNK masks shares the image of its high bits, so
    a mask costs one table entry per symmetry."""
    full = (1 << m) - 1
    block = 1 << _SYM_CHUNK
    for base in range(lo - lo % block, hi, block):
        highs = []
        for flip, tables in symmetries:
            for c in range(1, len(tables)):
                flip ^= tables[c][base >> c * _SYM_CHUNK & block - 1]
            highs.append((flip, tables[0]))
        for mask in range(max(lo, base), min(hi, base + block)):
            low = mask - base
            for high, table in highs:
                image = high ^ table[low]
                if image < mask or image ^ full < mask:
                    break
            else:
                yield mask


# a vertex's edges are split into chunks of at most this many, each with a
# table over its 2^_CHUNK orientations, so the tables stay small on any degree
_CHUNK = 8


def _neighbourhood_lookup(G: UndirectedGraph) -> Callable[[int], Iterator[tuple]]:
    """Per-graph tables giving, for any mask, every vertex's in- and
    out-neighbour masks and lists (increasing, since a vertex's edges in
    index order lead to increasing neighbours) and its out-links, the
    adjacency the monitoring kernel walks (arc index = edge index), without
    building the orientation.  A vertex with several chunks ORs their masks
    and joins their lists in chunk order."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for i, (u, v) in enumerate(G.edges):
        incident[u].append((i, v))
        incident[v].append((i, u))
    # per chunk and pattern: in- and out-neighbour masks, in- and
    # out-neighbour lists, out-links (head, 1 << arc index)
    first: list[tuple[int, dict[int, tuple]]] = []
    rest: list[tuple[int, int, dict[int, tuple]]] = []
    for v, edges in enumerate(incident):
        for c in range(0, max(len(edges), 1), _CHUNK):
            chunk = edges[c : c + _CHUNK]
            table: dict[int, tuple] = {}
            for pattern in range(1 << len(chunk)):
                key = in_mask = out_mask = 0
                in_list, out_list, links = [], [], []
                for j, (i, w) in enumerate(chunk):
                    reversed_ = pattern >> j & 1
                    key |= reversed_ << i
                    # bit i set reverses edge i to run from its larger end
                    if reversed_ == (v < w):
                        in_mask |= 1 << w
                        in_list.append(w)
                    else:
                        out_mask |= 1 << w
                        out_list.append(w)
                        links.append((w, 1 << i))
                table[key] = (in_mask, out_mask, tuple(in_list), tuple(out_list), tuple(links))
            chunk_mask = sum(1 << i for i, _ in chunk)
            if c:
                rest.append((v, chunk_mask, table))
            else:
                first.append((chunk_mask, table))

    def lookup(mask: int) -> Iterator[tuple]:
        """(ins, outs, in_list, out_list, out_links) of the orientation
        ``mask``."""
        nb = [table[mask & chunk_mask] for chunk_mask, table in first]
        for v, chunk_mask, table in rest:
            ins, outs, in_list, out_list, links = table[mask & chunk_mask]
            a, b, c, d, e = nb[v]
            nb[v] = (a | ins, b | outs, c + in_list, d + out_list, e + links)
        return zip(*nb)

    return lookup


def _end_count(G: UndirectedGraph) -> Callable[[int], int]:
    """The number of sources and sinks of any orientation, from one table
    per chunk of _CHUNK edge bits over the chunk's orientations.  Bit v of
    an entry is set when v has no in-arc among the chunk's edges, bit n + v
    when it has no out-arc, so the AND of the chunks' entries has one bit
    per source and one per sink."""
    n = G.n
    tables = []
    for c in range(0, G.m, _CHUNK):
        table = [(1 << 2 * n) - 1]
        for u, w in G.edges[c : c + _CHUNK]:  # the patterns with this edge's bit set follow
            forward, backward = ~(1 << w | 1 << n + u), ~(1 << u | 1 << n + w)
            table = [t & forward for t in table] + [t & backward for t in table]
        tables.append((c, table))

    def count(mask: int) -> int:
        ends = -1
        for shift, table in tables:
            ends &= table[mask >> shift & (1 << _CHUNK) - 1]
        return ends.bit_count()

    return count


def _scan_masks(
    G: UndirectedGraph,
    symmetries: Sequence[Symmetry],
    lo: int,
    hi: int,
    max_nodes: int = DEFAULT_BUDGET,
    stop_at_two: bool = False,
    stop_at_n: bool = False,
) -> tuple[dict[int, int], list[tuple[int, int, int]], dict[str, int]]:
    """Scan the masks in [lo, hi), each the smaller of its reversal pair,
    that are the least of their orbit under ``symmetries`` (see
    :func:`_canonical_masks`): a mask skipped has the value of a smaller
    mask in its orbit, and the least of the orbit is not skipped.

    Returns the map mag value -> first attaining mask; each mask whose
    solve ran out of budget, as (mask, lower, upper) bounds on its value;
    and the work counts.  A value at least ``top`` (all of [top, n] has a
    witness) or in [``ceil``, n - 1] (all of it has one) cannot be new, and
    each tier stops at the first bound that puts the mask's value there:

    1. mag is at least the number of sources and sinks (n - 1 on a complete
       graph), read from per-graph tables with no orientation built: skip
       when that is at least ``top``.  Only then are the mask's
       neighbourhoods read, from per-graph tables as well.
    2. The forced set F is all of V exactly when mag = n, that is, when
       every vertex is a source, a sink or bypassed (the extremal
       characterization).  When tier 1 leaves room only for mag = n, that
       test alone decides, stopping at the first vertex that fails it.
       Otherwise mag is in [max(2 or n - 1, |F|), n - 1] unless F = V.
       Once n has a witness, forcing stops when |F| reaches ``ceil``: the
       mask is then skipped, whatever the rest of F.
    3. Search, giving up before level ``ceil``: no cover below it puts mag
       in [ceil, n - 1].  The search works from the mask alone, with the
       out-links from the same tables as the kernel's adjacency: no
       orientation is built.  A search out of budget reports the level it
       reached as its lower bound, so a pool chunk, which has seen less and
       gives up later, leaves a pending range that the merge judges as the
       serial scan would.

    Stops early once mag 2 (``stop_at_two``) or mag n (``stop_at_n``) is
    attained; a stop fires on a new value, which is never skipped.
    """
    n = G.n
    if not G.m:
        # at most one vertex: mag 0, where the connected solve would force it
        return {0: 0}, [], dict(masks_scanned=1, masks_symmetric=0, masks_forced=0,
                                masks_searched=0, full_matrices=0)
    lookup, end_count = _neighbourhood_lookup(G), _end_count(G)
    floor = _mag_floor(n, G.m)
    best: dict[int, int] = {}
    pending: list[tuple[int, int, int]] = []
    top, ceil = n + 1, n
    limit = None  # forcing stops at ``ceil`` once n has a witness
    canonical = forced_count = searched = matrices = 0
    for mask in _canonical_masks(symmetries, G.m, lo, hi):
        canonical += 1
        low = max(floor, end_count(mask))
        if low >= top:
            continue
        forced_count += 1
        ins, outs, in_list, out_list, links = lookup(mask)
        if low >= ceil:
            # only mag = n can be new, and that is the extremal test
            if _first_unbypassed(ins, outs, in_list, out_list) is not None:
                continue
            size = n
        elif len(reasons := _forced_reasons(ins, outs, in_list, out_list, limit)) == n:
            size = n
        else:
            lower = max(floor, len(reasons))
            if ceil <= lower:
                continue
            searched += 1
            res, rows = _solve_connected(n, G.m, links, frozenset(reasons), lower, max_nodes, stop=ceil)
            matrices += None not in rows  # the forced rows did not settle it
            if not res.optimal:
                upper = min(res.size, n - 1)
                if not all(v in best for v in range(res.lower, upper + 1)):
                    pending.append((mask, res.lower, upper))
                continue
            size = res.size
        if size not in best:
            best[size] = mask
            while top - 1 in best:
                top -= 1
            while ceil - 1 in best:
                ceil -= 1
            if top <= n:
                limit = ceil
            if (stop_at_two and size == 2) or (stop_at_n and size == n):
                hi = mask + 1
                break
    counts = dict(masks_scanned=hi - lo, masks_symmetric=hi - lo - canonical,
                  masks_forced=forced_count, masks_searched=searched, full_matrices=matrices)
    return best, pending, counts


def spectrum(
    G: UndirectedGraph,
    max_nodes: int = DEFAULT_BUDGET,
    max_edges: int = DEFAULT_EDGE_CAP,
    threads: int = 1,
    stop_at_two: bool = False,
    stop_at_n: bool = False,
) -> SpectrumResult:
    """Exact spectrum over all 2^m orientations of a connected graph, each
    orientation searched within ``max_nodes`` nodes.

    ``stop_at_two`` / ``stop_at_n`` allow early exit once the trivial
    extreme for mag-minus / mag-plus has been reached (off by default so
    the full spectrum is the canonical output); the result then has
    ``complete`` false.  They need the serial scan: combined with
    ``threads > 1`` they raise :class:`BadParamError`.  An orientation
    whose solve runs out of budget raises :class:`BudgetExceededError`
    only when its value could be one without an earlier witness, so the
    outcome is the same for any worker count.
    """
    check_budget(max_nodes)
    if threads < 1:
        raise BadParamError(f"need at least 1 thread, got {threads}")
    if max_edges < 0:
        raise BadParamError(f"the edge cap must be non-negative, got {max_edges}")
    if not G.is_connected():
        raise DisconnectedInputError("spectrum requires a connected graph")
    if G.m > max_edges:
        raise TooManyEdgesError(f"{G.m} edges exceeds the cap of {max_edges}")
    if threads > 1 and (stop_at_two or stop_at_n):
        raise BadParamError("early exit (stop at mag 2 or n) needs a serial scan: use 1 thread")
    total = 1 << max(G.m - 1, 0)  # the masks with the top bit clear
    symmetries = _mask_symmetries(G)
    if threads > 1 and G.m >= 6:
        # imported here: multiprocessing and its imports add ~2.5 MB of resident
        # memory that a serial scan never needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(32, total // (threads * 8))
        los = range(0, total, chunk)
        his = [min(lo + chunk, total) for lo in los]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(partial(_scan_masks, G, symmetries, max_nodes=max_nodes), los, his))
        best: dict[int, int] = {}
        pending: list[tuple[int, int, int]] = []
        for part, part_pending, _ in parts:  # in mask order
            for val, mask in part.items():
                best.setdefault(val, mask)
            pending.extend(part_pending)
        counts = {key: sum(part[2][key] for part in parts) for key in parts[0][2]}
    else:
        best, pending, counts = _scan_masks(G, symmetries, 0, total, max_nodes, stop_at_two, stop_at_n)
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
        counts=counts,
    )


def mag_plus_at_least_n(G: UndirectedGraph, max_edges: int = DEFAULT_EDGE_CAP) -> bool:
    """Whether some orientation of connected G is MAG-extremal (mag = n).

    Bipartite graphs with an edge short-circuit to True: orienting every
    edge from one part to the other makes all vertices sources or sinks.
    Otherwise the scan's masks are enumerated, their neighbourhoods read
    from the scan's tables, until one passes the extremal test: every
    vertex a source, a sink, or bypassed.  The test is invariant under
    reversal and automorphisms, so one mask per orbit decides it.  The
    first 2^_SYM_CHUNK masks are tested as they come, and the symmetries
    are built only when none of them passes.
    """
    if max_edges < 0:
        raise BadParamError(f"the edge cap must be non-negative, got {max_edges}")
    if not G.is_connected():
        raise DisconnectedInputError("requires a connected graph")
    if G.m == 0:
        # a lone vertex has mag 0 != 1
        return G.n == 0
    if G.bipartition() is not None:
        return True
    if G.m > max_edges:
        raise TooManyEdgesError(f"{G.m} edges exceeds the cap of {max_edges}")
    lookup = _neighbourhood_lookup(G)

    def any_extremal(masks: Iterable[int]) -> bool:
        return any(_first_unbypassed(*islice(lookup(mask), 4)) is None for mask in masks)

    total = 1 << (G.m - 1)
    head = min(total, 1 << _SYM_CHUNK)
    if any_extremal(range(head)):
        return True
    return total > head and any_extremal(_canonical_masks(_mask_symmetries(G), G.m, head, total))
