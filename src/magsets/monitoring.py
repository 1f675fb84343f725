"""The monitoring relation, forced-vertex rules, and the extremal test.

A pair {x, y} monitors arc a when a lies on every shortest directed path
x->y or on every shortest directed path y->x.  One kernel answers this for
every pair at once.  For a source x let N_x(y) be the set of arcs on every
shortest x->y path; over the BFS levels from x it satisfies

    N_x(x) = {},   N_x(y) = intersection over the shortest-path predecessors
                            u of y of (N_x(u) + {(u, y)}),

the recurrence behind Brandes' betweenness algorithm.  The kernel keeps
N_x(y) as an int bitset over arc indices, so one BFS per source builds a
whole row, and the mask of the pair {x, y} is N_x(y) | N_y(x): the rows
and their transpose give the symmetric pair table (`pair_table`) that the
cover engine searches.  The undirected (MEG) relation is the same kernel
walking `UndirectedGraph.out_links`, where each edge is seen from both ends
under one shared bit.  Checking a given set (`is_mag_set`) needs only the
rows of its own vertices.  The path-counting test
(`monitors_directed_by_counting`) is kept as an independent cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .digraph import UNREACHABLE, OrientedGraph, UndirectedGraph
from .errors import DisconnectedInputError, EqualVerticesError, OutOfRangeError

# Per vertex, its (neighbor, link bit) pairs: a graph's ``out_links``, the
# out-arcs of an oriented graph or the edges of an undirected one.
LinkAdjacency = Sequence[Sequence[tuple[int, int]]]
# Per vertex, its in- or out-neighbours as a bitmask, or as a list in
# increasing order: the neighbourhoods the forcing rules read.
Masks = Sequence[int]
Lists = Sequence[Sequence[int]]


def _sole_route_row(adj: LinkAdjacency, x: int) -> list[int]:
    """N_x(y) for every y: the bitmask of links on every shortest x->y path;
    0 when y is x or unreachable from x."""
    level = [-1] * len(adj)
    need = [0] * len(adj)
    level[x] = 0
    frontier = [x]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            nu = need[u]
            for w, bit in adj[u]:
                lw = level[w]
                if lw < 0:
                    level[w] = d
                    need[w] = nu | bit
                    nxt.append(w)
                elif lw == d:
                    need[w] &= nu | bit
        frontier = nxt
    return need


def _pair_table(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """N_x(y) | N_y(x) for every x and y (0 when x = y), from the rows N_x
    of every source x: the symmetric table a :class:`CoverProblem` holds."""
    n = len(rows)
    table = [[0] * n for _ in range(n)]
    for x, row_x in enumerate(rows):
        table_x = table[x]
        for y in range(x + 1, n):
            table_x[y] = table[y][x] = row_x[y] | rows[y][x]
    return table


def _check_query(n: int, x: int, y: int, link: int, links: int, what: str) -> None:
    if x == y:
        raise EqualVerticesError("x and y must be distinct")
    for v in (x, y):
        if not (0 <= v < n):
            raise OutOfRangeError(f"vertex {v} out of range [0, {n})")
    if not (0 <= link < links):
        raise OutOfRangeError(f"{what} index {link} out of range [0, {links})")


def monitors_directed(g: OrientedGraph, x: int, y: int, a: int) -> bool:
    """True iff arc ``a`` lies on every shortest directed x->y path."""
    _check_query(g.n, x, y, a, g.m, "arc")
    return bool(_sole_route_row(g.out_links, x)[y] >> a & 1)


def monitors_directed_by_counting(g: OrientedGraph, x: int, y: int, a: int) -> bool:
    """Independent test: a=(u,v) is on all shortest x->y paths iff
    d(x,u) + 1 + d(v,y) = d(x,y) and sigma(x,u) * sigma(v,y) = sigma(x,y)."""
    if x == y:
        raise EqualVerticesError("x and y must be distinct")
    if not (0 <= a < g.m):
        raise OutOfRangeError(f"arc index {a} out of range")
    u, v = g.arcs[a]
    d = g.distance(x, y)
    if d == UNREACHABLE:
        return False
    if g.distance(x, u) + 1 + g.distance(v, y) != d:
        return False
    sx = g.shortest_path_counts(x)
    sv = g.shortest_path_counts(v)
    return sx[u] * sv[y] == sx[y]


def pair_monitors(g: OrientedGraph, x: int, y: int, a: int) -> bool:
    """True iff {x, y} monitors arc ``a`` in either direction."""
    return monitors_directed(g, x, y, a) or monitors_directed(g, y, x, a)


# per source x, its kernel row N_x, or None where it is not built yet
Rows = list[Optional[list[int]]]


def _route_rows(adj: LinkAdjacency, sources: Iterable[int], rows: Rows) -> Rows:
    """Build into ``rows`` the kernel row N_x over the out-links ``adj`` of
    each source x it lacks, one BFS each, and return it."""
    for x in sources:
        if rows[x] is None:
            rows[x] = _sole_route_row(adj, x)
    return rows


def pair_table(g: OrientedGraph | UndirectedGraph) -> list[list[int]]:
    """``table[x][y]``: the bitmask of the arcs (or, undirected, the edges)
    that the pair {x, y} monitors; symmetric, with a zero diagonal.  One
    kernel BFS per source, over ``g.out_links``."""
    return _pair_table([_sole_route_row(g.out_links, x) for x in range(g.n)])


def _set_coverage(
    adj: LinkAdjacency, m: int, members: Sequence[int], rows: Rows
) -> tuple[dict[int, tuple[int, int]], int]:
    """Over the pairs of the sorted distinct vertices ``members``: per link,
    the lexicographically first pair monitoring it, and the mask of the
    links no pair monitors.  Only the members' kernel rows are read; those
    ``rows`` lacks are built into it."""
    rows = _route_rows(adj, members, rows)
    cert: dict[int, tuple[int, int]] = {}
    left = (1 << m) - 1
    for i, x in enumerate(members):
        row_x = rows[x]
        for y in members[i + 1 :]:
            new = (row_x[y] | rows[y][x]) & left
            left ^= new
            while new:
                low = new & -new
                cert[low.bit_length() - 1] = (x, y)
                new ^= low
    return cert, left


def is_mag_set(g: OrientedGraph, vertices: Iterable[int]) -> tuple[bool, frozenset[int]]:
    """Whether every arc is monitored by some pair within ``vertices``.

    Returns (ok, uncovered arc indices); uncovered is empty on success.
    Only the kernel rows of ``vertices`` are built.
    """
    members = sorted(set(vertices))
    for v in members:
        if not (0 <= v < g.n):
            raise OutOfRangeError(f"vertex {v} out of range")
    left = _set_coverage(g.out_links, g.m, members, [None] * g.n)[1]
    return not left, frozenset(a for a in range(g.m) if left >> a & 1)


class ForcedRule(Enum):
    SOURCE = "source"
    SINK = "sink"
    TWIN = "twin"
    COND_II = "cond_ii"
    COND_III = "cond_iii"


_SOURCE = (ForcedRule.SOURCE, None)
_SINK = (ForcedRule.SINK, None)


@dataclass(frozen=True)
class ForcedReport:
    """Vertices provably in every MAG-set, each with its rule and witness.

    Witness data: the twin partner for TWIN, the in-neighbor u for COND_II,
    the out-neighbor w for COND_III, None for SOURCE/SINK.
    """

    vertices: frozenset[int]
    reasons: dict[int, tuple[ForcedRule, Optional[int]]]


def _neighbourhoods(
    g: OrientedGraph,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Per vertex, its in- and out-neighbours as bitmasks, then as lists in
    increasing order (arcs are canonical, so appending keeps the order)."""
    ins, outs = [0] * g.n, [0] * g.n
    in_list: list[list[int]] = [[] for _ in range(g.n)]
    out_list: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        outs[u] |= 1 << v
        ins[v] |= 1 << u
        out_list[u].append(v)
        in_list[v].append(u)
    return ins, outs, in_list, out_list


def _bypass_reason(
    ins: Masks, outs: Masks, in_list: Lists, out_list: Lists, v: int
) -> Optional[tuple[ForcedRule, int]]:
    """COND_II with the first in-neighbour u of v that reaches every
    out-neighbour of v in at most two steps without passing through v; else
    COND_III with the first out-neighbour w reached that way from every
    in-neighbour of v; else None."""
    out_v = outs[v]
    for u in in_list[v]:
        reach = outs[u]
        for z in out_list[u]:
            if z != v:
                reach |= outs[z]
        if not out_v & ~reach:
            return ForcedRule.COND_II, u
    in_v = ins[v]
    for w in out_list[v]:
        reach = ins[w]
        for z in in_list[w]:
            if z != v:
                reach |= ins[z]
        if not in_v & ~reach:
            return ForcedRule.COND_III, w
    return None


def _forced_reasons(
    ins: Masks, outs: Masks, in_list: Lists, out_list: Lists, limit: Optional[int] = None
) -> dict[int, tuple[ForcedRule, Optional[int]]]:
    """The forcing rules over per-vertex neighbourhoods (as built by
    :func:`_neighbourhoods`): per forced vertex, its rule and witness.
    Stops once ``limit`` vertices are forced, if given."""
    keys = list(zip(ins, outs))
    twins: dict[tuple[int, int], list[int]] = {}
    if len(set(keys)) < len(keys):  # some vertices share both neighbourhoods
        for v, key in enumerate(keys):
            twins.setdefault(key, []).append(v)
    reasons: dict[int, tuple[ForcedRule, Optional[int]]] = {}
    for v, key in enumerate(keys):
        if not key[0]:
            if not key[1]:
                continue  # a vertex with no arcs monitors nothing and is in no minimum set
            reason = _SOURCE
        elif not key[1]:
            reason = _SINK
        else:
            group = twins.get(key, ())
            if len(group) > 1:
                reason = (ForcedRule.TWIN, group[1] if group[0] == v else group[0])
            elif (reason := _bypass_reason(ins, outs, in_list, out_list, v)) is None:
                continue
        reasons[v] = reason
        if len(reasons) == limit:
            break
    return reasons


def forced_vertices(g: OrientedGraph) -> ForcedReport:
    """Union of the forcing rules: sources/sinks, twins, and the two
    extremal-characterization conditions for internal vertices.  A vertex
    with no arcs is not forced."""
    reasons = _forced_reasons(*_neighbourhoods(g))
    return ForcedReport(frozenset(reasons), reasons)


def is_extremal(g: OrientedGraph) -> tuple[bool, Optional[int]]:
    """Whether every vertex is a source/sink or satisfies one of the two
    bypass conditions, i.e. the only MAG-set is all of V.

    Returns (True, None) or (False, violating vertex with least index).
    One vertex with no arcs is not extremal: its mag is 0.
    """
    if not g.is_weakly_connected():
        raise DisconnectedInputError("extremal test requires a weakly connected graph")
    if g.n == 1:
        return False, 0
    v = _first_unbypassed(*_neighbourhoods(g))
    return v is None, v


def _first_unbypassed(ins: Masks, outs: Masks, in_list: Lists, out_list: Lists) -> Optional[int]:
    """The least vertex that is neither a source, a sink, nor bypassed, over
    per-vertex neighbourhoods; None when the graph is extremal."""
    for v in range(len(ins)):
        if ins[v] and outs[v] and _bypass_reason(ins, outs, in_list, out_list, v) is None:
            return v
    return None


# ---------------------------------------------------------------------------
# Undirected analogue (MEG)


def edge_monitors_undirected(G: UndirectedGraph, x: int, y: int, e: int) -> bool:
    """True iff edge ``e`` lies on all shortest undirected x-y paths."""
    _check_query(G.n, x, y, e, G.m, "edge")
    return bool(_sole_route_row(G.out_links, x)[y] >> e & 1)
