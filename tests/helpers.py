"""Seeded random-graph generators and tiny brute-force oracles for tests."""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations
from typing import Sequence

from magsets import (
    UNREACHABLE,
    OrientedGraph,
    SpectrumResult,
    UndirectedGraph,
    forced_vertices,
    is_mag_set,
    mag_lower_bound,
    min_mag_set,
    orient,
    pair_table,
)
from magsets.cover import CoverProblem, CoverSolution, coverage_of


def random_oriented(rng: random.Random, n: int, p: float = 0.5) -> OrientedGraph:
    """Random orientation of G(n, p); may be disconnected."""
    arcs = []
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return OrientedGraph(n, tuple(arcs))


def random_connected_oriented(rng: random.Random, n: int, p: float = 0.5) -> OrientedGraph:
    while True:
        g = random_oriented(rng, n, p)
        if n <= 1 or (g.m > 0 and g.is_weakly_connected()):
            return g


def cycle_with_chord(n: int, head: int) -> OrientedGraph:
    """The directed n-cycle plus the arc (0, head), on which nothing is
    forced: the solve sweeps it for n <= 15 (or when given a stop) and
    branches over pairs above."""
    return OrientedGraph(n, tuple((i, (i + 1) % n) for i in range(n)) + ((0, head),))


def random_tree(rng: random.Random, n: int) -> UndirectedGraph:
    """Uniform-ish random tree: attach each vertex to a random earlier one."""
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return UndirectedGraph(n, edges)


def random_connected_undirected(rng: random.Random, n: int, extra: int = 2) -> UndirectedGraph:
    edges = set(random_tree(rng, n).edges)
    candidates = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return UndirectedGraph(n, tuple(sorted(edges)))


def brute_min_mag(g: OrientedGraph) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum MAG-set; only sane for n <= 9 or so."""
    if g.m == 0:
        return 0, ()
    for k in range(2, g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_mag_set(g, combo)[0]:
                return k, combo
    raise AssertionError("full vertex set must always monitor")


def brute_spectrum(G: UndirectedGraph) -> SpectrumResult:
    """The spectrum from a solve of every one of the 2^m orientations, each
    value with its least attaining mask."""
    first: dict[int, int] = {}
    for mask in range(1 << G.m):
        first.setdefault(min_mag_set(orient(G, mask)).size, mask)
    lo, hi = min(first), max(first)
    return SpectrumResult(lo, hi, frozenset(first), hi - lo, first[lo], first[hi], complete=True)


def automorphisms_by_permutation(G: UndirectedGraph) -> list[tuple[int, ...]]:
    """Every vertex permutation mapping G's edge set onto itself, from all
    n! permutations; only sane for n <= 7 or so."""
    edges = set(G.edges)
    return [
        p for p in permutations(range(G.n))
        if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in G.edges} == edges
    ]


def relabelled_mask(G: UndirectedGraph, p: Sequence[int], mask: int) -> int:
    """The mask of the orientation ``mask`` with every arc u->v replaced by
    p(u)->p(v), read off the built orientation."""
    image = 0
    for u, v in orient(G, mask).arcs:
        if p[u] > p[v]:
            image |= 1 << G.edge_index(p[u], p[v])
    return image


def canonical_masks(G: UndirectedGraph) -> list[int]:
    """The masks that are the least of their orbit under all of Aut(G) and
    reversal, by relabelling each mask with every automorphism."""
    full = (1 << G.m) - 1
    auts = automorphisms_by_permutation(G)
    return [
        mask for mask in range(1 << max(G.m - 1, 0))
        if all(min(x, x ^ full) >= mask for x in (relabelled_mask(G, p, mask) for p in auts))
    ]


def scan_work(G: UndirectedGraph) -> tuple[list[int], ...]:
    """The masks the spectrum scan of connected G (with an edge) looks up,
    forces, tests for extremality only, searches, and builds full rows for,
    from the brute values of the earlier masks.

    Only the least mask of each orbit under Aut(G) and reversal is looked
    up: the others have the value of a smaller mask.  With every value of
    the earlier masks known, a mask is forced only when its sources and
    sinks (or n - 1 on a complete graph) leave room below the least t with
    [t, n] all seen.  When that bound leaves room only for mag = n, the
    extremal test alone decides; otherwise the mask is searched only when
    its forced set is not all of V and [its lower bound, n - 1] is not all
    seen.  A search builds rows beyond its forced set F only when F does
    not cover and [|F| + 1, n - 1] is not all seen: otherwise it stops
    right after F alone.
    """
    canonical = canonical_masks(G)
    floor = G.n - 1 if G.m == G.n * (G.n - 1) // 2 else 2
    forced_masks, extremal, searched, completed, seen = [], [], [], [], set()
    for mask in canonical:
        g = orient(G, mask)
        top = G.n + 1
        while top - 1 in seen:
            top -= 1
        sources, sinks = g.sources_and_sinks()
        ends = max(floor, len(sources | sinks))
        if ends < top:
            forced_masks.append(mask)
            forced = forced_vertices(g).vertices
            if set(range(ends, G.n)) <= seen:
                extremal.append(mask)
            elif len(forced) < G.n and not set(range(mag_lower_bound(g, forced), G.n)) <= seen:
                searched.append(mask)
                if not is_mag_set(g, forced)[0] and not set(range(len(forced) + 1, G.n)) <= seen:
                    completed.append(mask)
        seen.add(min_mag_set(g).size)
    return canonical, forced_masks, extremal, searched, completed


def all_oriented_graphs(n: int):
    """Every orientation of every graph on n labelled vertices."""
    slots = list(combinations(range(n), 2))
    for state in _ternary(len(slots)):
        arcs = []
        for (i, j), s in zip(slots, state):
            if s == 1:
                arcs.append((i, j))
            elif s == 2:
                arcs.append((j, i))
        yield OrientedGraph(n, tuple(arcs))


def _ternary(k: int):
    for code in range(3**k):
        digits = []
        for _ in range(k):
            code, r = divmod(code, 3)
            digits.append(r)
        yield digits


# ---------------------------------------------------------------------------
# Deletion oracle: a link lies on every shortest x->y path exactly when
# removing it strictly increases d(x, y).  One BFS per (link, source).


def _bfs(adj: list[list[int]], source: int) -> list[float]:
    dist: list[float] = [UNREACHABLE] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distances_from_avoiding_arc(g: OrientedGraph, x: int, a: int) -> list[float]:
    """All distances from ``x`` in ``g`` with arc ``a`` removed."""
    adj = [list(ns) for ns in g.out_neighbors]
    u, v = g.arcs[a]
    adj[u].remove(v)
    return _bfs(adj, x)


def distance_avoiding_arc(g: OrientedGraph, x: int, y: int, a: int) -> float:
    """Shortest x->y distance in ``g`` with arc ``a`` removed (adjacency
    rebuilt from the remaining arcs)."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for b, (u, v) in enumerate(g.arcs):
        if b != a:
            adj[u].append(v)
    return _bfs(adj, x)[y]


def distances_from_avoiding_edge(G: UndirectedGraph, x: int, e: int) -> list[float]:
    """All distances from ``x`` in ``G`` with edge ``e`` removed."""
    adj = [list(ns) for ns in G.neighbors]
    u, v = G.edges[e]
    adj[u].remove(v)
    adj[v].remove(u)
    return _bfs(adj, x)


def deletion_arc_pairs(g: OrientedGraph) -> list[set[tuple[int, int]]]:
    """Per arc, the pairs x < y monitoring it in either direction."""
    base = [_bfs([list(ns) for ns in g.out_neighbors], x) for x in range(g.n)]
    arc_pairs: list[set[tuple[int, int]]] = [set() for _ in range(g.m)]
    for a in range(g.m):
        for x in range(g.n):
            avoid = distances_from_avoiding_arc(g, x, a)
            for y in range(g.n):
                if y != x and base[x][y] != UNREACHABLE and avoid[y] > base[x][y]:
                    arc_pairs[a].add((min(x, y), max(x, y)))
    return arc_pairs


def deletion_pair_table(g: OrientedGraph) -> list[list[int]]:
    """``table[x][y]``: the mask of the arcs the pair {x, y} monitors, as
    :func:`magsets.pair_table` lays it out."""
    table = [[0] * g.n for _ in range(g.n)]
    for a, pairs in enumerate(deletion_arc_pairs(g)):
        for x, y in pairs:
            table[x][y] |= 1 << a
            table[y][x] |= 1 << a
    return table


def undirected_deletion_pair_table(G: UndirectedGraph) -> list[list[int]]:
    """``table[x][y]``: the mask of the edges the pair {x, y} monitors, as
    :func:`magsets.pair_table` lays it out."""
    base = [_bfs([list(ns) for ns in G.neighbors], x) for x in range(G.n)]
    table = [[0] * G.n for _ in range(G.n)]
    for e in range(G.m):
        for x in range(G.n):
            avoid = distances_from_avoiding_edge(G, x, e)
            for y in range(x + 1, G.n):
                if base[x][y] != UNREACHABLE and avoid[y] > base[x][y]:
                    table[x][y] |= 1 << e
                    table[y][x] |= 1 << e
    return table


# ---------------------------------------------------------------------------
# Set-based forcing oracle: the rules written over arc and neighbour sets,
# one vertex pair at a time.  Returns rule names and witnesses.


def _set_bypasses(g: OrientedGraph, arcs: frozenset, v: int, u: int, w: int) -> bool:
    """Whether u reaches w in at most two steps without passing through v."""
    if (u, w) in arcs:
        return True
    return any(z != v and z != w and (z, w) in arcs for z in g.out_neighbors[u])


def _set_cond_ii(g: OrientedGraph, v: int, arcs: frozenset):
    outs = g.out_neighbors[v]
    return next((u for u in g.in_neighbors[v] if all(_set_bypasses(g, arcs, v, u, w) for w in outs)), None)


def _set_cond_iii(g: OrientedGraph, v: int, arcs: frozenset):
    ins = g.in_neighbors[v]
    return next((w for w in g.out_neighbors[v] if all(_set_bypasses(g, arcs, v, u, w) for u in ins)), None)


def set_forced_reasons(g: OrientedGraph) -> dict[int, tuple[str, int | None]]:
    """vertex -> (rule name, witness) by sources/sinks, twins, then the two
    bypass conditions, each vertex taking the first rule that applies.  A
    vertex with no arcs lies in no minimum MAG-set, so no rule forces it."""
    reasons: dict[int, tuple[str, int | None]] = {}
    sources, sinks = g.sources_and_sinks()
    isolated = sources & sinks
    sources, sinks = sources - isolated, sinks - isolated
    for v in sorted(sources):
        reasons[v] = ("source", None)
    for v in sorted(sinks):
        reasons.setdefault(v, ("sink", None))
    nbhd = [(frozenset(g.in_neighbors[v]), frozenset(g.out_neighbors[v])) for v in range(g.n)]
    for v in range(g.n):
        if v in reasons or v in isolated:
            continue
        for u in range(g.n):
            if u != v and nbhd[u] == nbhd[v]:
                reasons[v] = ("twin", u)
                break
    arcs = frozenset(g.arcs)
    for v in range(g.n):
        if v in reasons or v in isolated:
            continue
        u = _set_cond_ii(g, v, arcs)
        if u is not None:
            reasons[v] = ("cond_ii", u)
            continue
        w = _set_cond_iii(g, v, arcs)
        if w is not None:
            reasons[v] = ("cond_iii", w)
    return reasons


def set_is_extremal(g: OrientedGraph) -> tuple[bool, int | None]:
    """(True, None), or (False, least vertex that is neither a source, a sink,
    nor satisfies a bypass condition).  A vertex with no arcs is in no
    minimum MAG-set, so it is such a vertex."""
    sources, sinks = g.sources_and_sinks()
    arcs = frozenset(g.arcs)
    for v in range(g.n):
        if v in sources and v in sinks:
            return False, v
        if v in sources or v in sinks:
            continue
        if _set_cond_ii(g, v, arcs) is None and _set_cond_iii(g, v, arcs) is None:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# Reference cover searches: the sweep and branch-and-bound that recurse
# into every node, leaves and childless nodes included.  The library's
# searches must match them in size, witness, optimality and node count,
# budget stops included.


def mag_problem(g: OrientedGraph, forced: frozenset[int], lower: int) -> CoverProblem:
    """The MAG cover problem of ``g`` (with an arc): its whole pair table,
    seeded with ``forced`` and bounded below by ``lower``."""
    return CoverProblem(g.n, (1 << g.m) - 1, pair_table(g), forced, lower)


def brute_min_cover(problem: CoverProblem) -> int:
    """The fewest vertices of a superset of the forced set whose pairs
    cover every target, from the coverage of every vertex set; only sane
    for n <= 14 or so."""
    rows = problem.rows
    fmask = sum(1 << f for f in problem.forced)
    cov = [0] * (1 << problem.n)
    fewest = problem.n
    for s in range(1, 1 << problem.n):
        v = s.bit_length() - 1
        rest = s ^ 1 << v
        extra = 0
        for c in range(v):
            if rest >> c & 1:
                extra |= rows[v][c]
        cov[s] = cov[rest] | extra
        if cov[s] == problem.full_mask and s & fmask == fmask:
            fewest = min(fewest, s.bit_count())
    return fewest


class _Budget:
    __slots__ = ("left",)

    def __init__(self, max_nodes: int) -> None:
        if max_nodes <= 0:
            raise ValueError("node budget must be positive")
        self.left = max_nodes

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


class _BudgetStop(Exception):
    pass


class _Proven(Exception):
    pass


def solve_cover_sweep(problem: CoverProblem, max_nodes: int = 10_000_000) -> CoverSolution:
    """Smallest superset of the forced set covering everything."""
    budget = _Budget(max_nodes)
    forced = tuple(sorted(problem.forced))
    free = [v for v in range(problem.n) if v not in problem.forced]
    base = coverage_of(problem, forced)
    if base == problem.full_mask and len(forced) >= problem.lower_bound:
        return CoverSolution(len(forced), forced, True, 0, len(forced))
    rows = problem.rows
    with_forced = {v: 0 for v in free}
    for v in free:
        acc = 0
        row_v = rows[v]
        for f in forced:
            acc |= row_v[f]
        with_forced[v] = acc

    nodes = 0
    found: list[int] | None = None

    def rec(start: int, chosen: list[int], cov: int, remaining: int) -> bool:
        nonlocal nodes, found
        if remaining == 0:
            nodes += 1
            if not budget.spend():
                raise _BudgetStop
            if cov == problem.full_mask:
                found = list(chosen)
                return True
            return False
        for idx in range(start, len(free) - remaining + 1):
            v = free[idx]
            extra = with_forced[v]
            row_v = rows[v]
            for c in chosen:
                extra |= row_v[c]
            chosen.append(v)
            if rec(idx + 1, chosen, cov | extra, remaining - 1):
                return True
            chosen.pop()
        return False

    start_k = max(problem.lower_bound, len(forced))
    k = start_k  # a budget stop proves every smaller level empty
    try:
        for k in range(start_k, problem.n + 1):
            if rec(0, [], base, k - len(forced)):
                assert found is not None
                witness = tuple(sorted(forced + tuple(found)))
                return CoverSolution(k, witness, True, nodes, k)
    except _BudgetStop:
        fallback = tuple(range(problem.n))
        return CoverSolution(problem.n, fallback, False, nodes, k)
    finally:
        del rec  # rec refers to itself: unbind it so the search state is freed now
    # full vertex set always covers (callers only pose feasible problems)
    raise AssertionError("sweep exhausted without finding a cover")


def solve_cover_branch_bound(
    problem: CoverProblem,
    max_nodes: int = 10_000_000,
    upper_witness: Sequence[int] | None = None,
    exclusion: bool = True,
    stop: bool = True,
) -> CoverSolution:
    """Branch over the admissible pairs of a most-constrained uncovered
    target, starting from the known cover ``upper_witness`` (all n
    vertices when none is given).

    With ``exclusion``, a child that adds one vertex v (the other end of
    its pair is already chosen) bans v once it returns: every later
    sibling, and every node below one, skips a pair that would add a
    banned vertex.  A cover holding the chosen set and v but no vertex
    banned before v was searched for in that child, so the later ones can
    only re-enter sets already entered.  A node at least four vertices
    short of the best cover returns when some uncovered target has a
    banned vertex in every one of its pairs: no cover lies below it.

    With ``stop``, a cover no larger than the lower bound max(bound, |F|)
    is optimal: one known at the start (the root's, or ``upper_witness``)
    is returned after no node, and the first one found ends the search."""
    budget = _Budget(max_nodes)
    n = problem.n
    full = problem.full_mask
    forced = tuple(sorted(problem.forced))
    lower = max(problem.lower_bound, len(forced))
    best = sorted(upper_witness) if upper_witness is not None else list(range(n))
    root_cov = coverage_of(problem, forced)
    if root_cov == full and len(forced) < len(best):
        if not stop:
            return CoverSolution(len(forced), forced, True, 1, len(forced))  # the root is a cover
        best = list(forced)
    if stop and len(best) <= lower:
        return CoverSolution(len(best), tuple(best), True, 0, len(best))

    rows = problem.rows
    keys = [(x, y) for x in range(n) for y in range(x + 1, n)]
    # the most-constrained uncovered target is the first uncovered one in
    # this order of every target: fewest admissible pairs, ties to the
    # lowest index
    counts = [sum(1 for x, y in keys if rows[x][y] >> t & 1) for t in range(full.bit_length())]
    order = [1 << t for t in sorted(range(len(counts)), key=lambda t: (counts[t], t))]
    admissible: dict[int, list[tuple[int, int]]] = {}  # target bit -> its pairs, in lex order
    nodes = 0

    def rec(chosen: set[int], cov: int, banned: frozenset[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if not budget.spend():
            raise _BudgetStop
        if len(chosen) >= len(best):
            return
        if cov == full:
            best = sorted(chosen)
            if stop and len(best) <= lower:
                raise _Proven
            return
        uncovered = full & ~cov

        def pairs_of(bit: int) -> list[tuple[int, int]]:
            if bit not in admissible:
                admissible[bit] = [(x, y) for x, y in keys if rows[x][y] & bit]
            return admissible[bit]

        k, limit = len(chosen), len(best)
        if k + 4 <= limit:
            for bit in order:
                if uncovered & bit and all({x, y} & banned for x, y in pairs_of(bit)):
                    return
        for bit in order:
            if uncovered & bit:
                break
        pick_pairs = pairs_of(bit)
        for x, y in pick_pairs:
            adds = {x, y} - chosen
            if adds & banned or k + len(adds) >= limit:
                continue
            new = set(chosen)
            extra = 0
            for v in sorted(adds):
                row_v = rows[v]
                for c in new:
                    extra |= row_v[c]
                new.add(v)
            rec(new, cov | extra, banned)
            if exclusion and len(adds) == 1:
                banned = banned | adds
            limit = len(best)

    try:
        rec(set(forced), root_cov, frozenset())
    except _BudgetStop:
        return CoverSolution(len(best), tuple(best), False, nodes, lower)
    except _Proven:
        pass
    finally:
        del rec  # rec refers to itself: unbind it so the search state is freed now
    return CoverSolution(len(best), tuple(best), True, nodes, len(best))


def greedy_cover(problem: CoverProblem) -> tuple[int, ...]:
    """The greedy cover as a list search: the forced seed, then repeatedly
    the unchosen vertex whose rows to the chosen ones cover the most new
    targets (ties to the lowest index), until everything is covered and at
    least one pair is chosen."""
    rows = problem.rows
    full = problem.full_mask
    chosen = sorted(problem.forced)
    cov = coverage_of(problem, chosen)
    while cov != full or len(chosen) < 2:
        best_v, best_gain = -1, -1
        for v in range(problem.n):
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
    return tuple(chosen)
