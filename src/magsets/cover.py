"""Exact minimum cover-by-pairs engine.

Given a bitmask of targets per unordered vertex pair, find the smallest
vertex set M such that the union of the masks of pairs inside M covers
everything.  A problem holds the masks as one symmetric per-vertex table,
``rows[x][y]`` the mask of pair {x, y}, which the monitoring kernel builds
straight from its rows.  The engine follows from the problem: at most 15
vertices outside the forced set are swept, more are branched over; a
search told to give up at a level is swept, as only the sweep has levels.

* cardinality sweep -- enumerate all supersets of the forced set of size
  k, k+1, ... with incremental coverage;
* branch-and-bound  -- pick an uncovered target with the smallest
  admissible pair family, branch over its pairs, and ban from the later
  siblings each vertex a finished child added alone.

A greedy cover is built only when a search needs one: always as the
branch-and-bound incumbent, and as the sweep's answer only when its budget
runs out.  Branch-and-bound knows the lower bound max(bound, |F|): a greedy
that meets it is returned before any set-up, and the first cover found at
it ends the search.  Its set-up reads only the targets F leaves uncovered.
Tie-breaking is by lowest vertex index everywhere, so the witness is
reproducible bit-for-bit.

A search node is one candidate vertex set, counted as one unit of the
budget.  The sweep enters every set of the size being tried and counts
and tests it there.  In branch-and-bound, every child of a node that is
not a cover adds at least one vertex: the node's coverage is exactly that
of its set, so no pair inside the set holds an uncovered target.  So a
child one vertex short of the best cover so far is a leaf.  A node two
vertices short counts and tests its leaves itself: it walks its target's
pairs in order, tests its set plus the other end of each unbanned pair
with one end in the set, and returns at the first cover, which puts
every later sibling at the bound.  Every other child within the bound, a
two-vertex child of a node three short too, is entered and counted and
tested there; a leaf entered returns right after its cover test.

Branch-and-bound prunes sets it has already searched by exclusion
branching, the disjoint-subproblem rule of set-cover branching.  A child
that adds one vertex v, the other end of its pair being in the node's set
S, bans v once it returns: its later siblings and their subtrees skip
every pair that would add a banned vertex.  This is exact: a cover C
holding S and no banned vertex is found below the first pair of the
target that lies inside C, since no earlier sibling banned a vertex of C.
Nor does it change the answer: the search without the rule enters a
superset of the nodes in the same order, and the ones it adds hold a
banned vertex, so none of them improves the best cover.  So the same
witness comes out in no more nodes, and a budget that runs out holds a
cover no larger.  A pair with neither end in S bans nothing.

Bans can leave an uncovered target with a banned vertex in every one of
its pairs.  No cover lies below a node with such a target, so a node at
least four vertices short of the bound checks its uncovered targets and
returns when it finds one.  This too only skips nodes that hold no cover,
so the witness stays the same.  Nearer the bound a subtree is smaller
than the check.

A branch-and-bound node that branches keeps the gain list of its path:
``gain[v]`` is the OR of ``rows[v][c]`` over the c in its set.  A child's
coverage, or a leaf's cover test, reads one entry per added vertex instead
of ORing its rows to every chosen vertex.  A node two short builds no list:
each leaf it tests reads its parent's entry and ORs in the rows of the
node's own added vertices.  None of this changes the search: the nodes
counted, their order, the witnesses and the node at which an exhausted
budget stops are those of a search with the same bans and cuts that
enters every node and ORs the rows of each one's set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BadParamError

# the search-node budget of every solve that is not given one
DEFAULT_BUDGET = 10_000_000


def check_budget(max_nodes: int) -> None:
    """Reject a node budget below 1: every search enters at least one node."""
    if max_nodes <= 0:
        raise BadParamError("node budget must be positive")


@dataclass(frozen=True)
class CoverProblem:
    """``rows[x][y]`` is the target mask of pair {x, y}: a symmetric n x n
    table with a zero diagonal."""

    n: int
    full_mask: int
    rows: Sequence[Sequence[int]]
    forced: frozenset[int] = frozenset()
    lower_bound: int = 0

    @property
    def pair_masks(self) -> list[int]:
        """The masks of the pairs x < y, in lexicographic order."""
        return upper_triangle(self.rows)


def upper_triangle(rows: Sequence[Sequence[int]]) -> list[int]:
    """``rows[x][y]`` for every pair x < y, in lexicographic order."""
    return [mask for x, row in enumerate(rows) for mask in row[x + 1 :]]


@dataclass
class CoverSolution:
    """A cover of ``size`` vertices; ``lower`` is a proven lower bound on
    the optimum, equal to ``size`` when ``optimal``."""

    size: int
    witness: tuple[int, ...]
    optimal: bool
    nodes: int
    lower: int


def coverage_of(problem: CoverProblem, vertices: tuple[int, ...] | list[int]) -> int:
    rows = problem.rows
    cov = 0
    vs = sorted(vertices)
    for i, x in enumerate(vs):
        row_x = rows[x]
        for y in vs[i + 1 :]:
            cov |= row_x[y]
    return cov


def solve_cover_sweep(
    problem: CoverProblem, max_nodes: int = DEFAULT_BUDGET, stop: Optional[int] = None
) -> CoverSolution:
    """Smallest superset of the forced set covering everything, tried level
    by level from the lower bound.  With ``stop`` the sweep gives up before
    that level: the solution is then all n vertices, not optimal, with
    ``lower`` = ``stop``.  When the budget runs out, ``lower`` is the level
    it reached, since every smaller level has been searched in full."""
    check_budget(max_nodes)
    full = problem.full_mask
    forced = tuple(sorted(problem.forced))
    free = [v for v in range(problem.n) if v not in problem.forced]
    base = coverage_of(problem, forced)
    if base == full and len(forced) >= problem.lower_bound:
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
            if nodes > max_nodes:
                raise _Stop
            if cov == full:
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

    k = start_k = max(problem.lower_bound, len(forced))
    fallback = tuple(range(problem.n))
    try:
        for k in range(start_k, problem.n + 1 if stop is None else stop):
            if rec(0, [], base, k - len(forced)):
                assert found is not None
                witness = tuple(sorted(forced + tuple(found)))
                return CoverSolution(k, witness, True, nodes, k)
    except _Stop:
        return CoverSolution(problem.n, fallback, False, nodes, k)
    finally:
        del rec  # rec refers to itself: unbind it so the search state is freed now
    if stop is None:  # full vertex set always covers (callers only pose feasible problems)
        raise AssertionError("sweep exhausted without finding a cover")
    return CoverSolution(problem.n, fallback, False, nodes, stop)


class _Stop(Exception):
    """Unwinds a search whose budget ran out, or a branch-and-bound that
    found a cover at its lower bound."""


def _bit_counts(masks: Iterable[int], bits: Sequence[int]) -> list[int]:
    """For each bit position in ``bits``, how many masks have it set.

    The masks are summed as vectors of 1-bit counters with carry-save
    addition: ``counters[i]`` holds bit i of every position's count.
    """
    counters: list[int] = []
    for mk in masks:
        carry = mk
        for i, c in enumerate(counters):
            if not carry:
                break
            counters[i] = c ^ carry
            carry &= c
        if carry:
            counters.append(carry)
    return [sum((c >> t & 1) << i for i, c in enumerate(counters)) for t in bits]


def solve_cover_branch_bound(
    problem: CoverProblem,
    max_nodes: int = DEFAULT_BUDGET,
    upper_witness: Sequence[int] | None = None,
) -> CoverSolution:
    """Branch over the admissible pairs of a most-constrained uncovered
    target, starting from the known cover ``upper_witness`` (all n
    vertices when none is given), until a cover meets the lower bound.

    ``ban`` masks the vertices no pair may add: each one a finished
    earlier child of this node or of an ancestor added alone, or a leaf a
    node two short has tested.  A node holds its ``k`` vertices as the
    bitmask ``cmask`` and keeps ``gain[v] == OR of rows[v][c] over c in
    cmask``: a child adding x covers ``cov | gain[x]``, one adding x and y
    ``cov | gain[x] | gain[y] | rows[x][y]``.  A node builds its list from
    its parent's only when it branches; a node two short ORs the rows of
    its ``added`` vertices into the parent's entry.  The first uncovered
    target in ``order`` only moves forward along a path, so its position
    is handed down."""
    check_budget(max_nodes)
    n = problem.n
    full = problem.full_mask
    forced = tuple(sorted(problem.forced))
    lower = max(problem.lower_bound, len(forced))
    best = sorted(upper_witness) if upper_witness is not None else list(range(n))
    root_cov = coverage_of(problem, forced)
    if root_cov == full and len(forced) < len(best):
        best = list(forced)
    if len(best) <= lower:
        return CoverSolution(len(best), tuple(best), True, 0, len(best))

    rows = problem.rows
    # the most-constrained uncovered target is the first uncovered one in
    # this order of the targets the root leaves uncovered: fewest admissible
    # pairs, ties to the lowest index
    left = full & ~root_cov
    targets = [t for t in range(full.bit_length()) if left >> t & 1]
    counts = _bit_counts((m for x, row in enumerate(rows) for mk in row[x + 1 :] if (m := mk & left)), targets)
    order = [1 << t for _, t in sorted(zip(counts, targets))]
    # target bit -> its pairs in lex order as (x, y, both ends' bits)
    admissible: dict[int, list[tuple[int, int, int]]] = {}
    nodes = 0

    def admissible_of(bit: int) -> list[tuple[int, int, int]]:
        pairs = admissible.get(bit)
        if pairs is None:
            pairs = admissible[bit] = [
                (x, y, 1 << x | 1 << y) for x, row in enumerate(rows) for y in range(x + 1, n) if row[y] & bit
            ]
        return pairs

    def rec(
        k: int, cmask: int, cov: int, gain: list[int], added: tuple[int, ...], pos: int, ban: int
    ) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Stop
        limit = len(best)
        if k >= limit:
            return
        if cov == full:
            best = [v for v in range(n) if cmask >> v & 1]
            return
        if k + 1 >= limit:
            return  # every child adds a vertex, so none beats the bound
        uncovered = full & ~cov
        while not uncovered & order[pos]:
            pos += 1
        pick_pairs = admissible_of(order[pos])
        if k + 2 == limit:
            # every child within the bound adds one vertex and is a leaf:
            # count and test each here, in pair order, and stop at the first
            # cover, which puts every later sibling at the bound.  A tested
            # leaf is banned, so a later pair does not test it again.  The
            # list is the parent's, so the rows of this node's own vertices
            # are ORed in
            for x, y, xy in pick_pairs:
                if xy & ban or not xy & cmask:
                    continue
                v = y if cmask >> x & 1 else x
                nodes += 1
                if nodes > max_nodes:
                    raise _Stop
                gv = gain[v]
                for a in added:
                    gv |= rows[a][v]
                if cov | gv == full:
                    cmask |= 1 << v
                    best = [u for u in range(n) if cmask >> u & 1]
                    return
                ban |= 1 << v
            return
        if ban and k + 4 <= limit:
            # a target whose every pair holds a banned vertex can no longer
            # be covered, so no cover lies below this node
            for p in range(pos, len(order)):
                if uncovered & order[p]:
                    for _, _, xy in admissible_of(order[p]):
                        if not xy & ban:
                            break
                    else:
                        return
        for a in added:
            gain = [g | r for g, r in zip(gain, rows[a])]
        for x, y, xy in pick_pairs:
            if xy & ban:
                continue
            if cmask >> x & 1:
                if k + 1 < limit:
                    rec(k + 1, cmask | 1 << y, cov | gain[y], gain, (y,), pos, ban)
                    ban |= 1 << y
            elif cmask >> y & 1:
                if k + 1 < limit:
                    rec(k + 1, cmask | 1 << x, cov | gain[x], gain, (x,), pos, ban)
                    ban |= 1 << x
            elif k + 2 < limit:
                rec(k + 2, cmask | xy, cov | gain[x] | gain[y] | rows[x][y], gain, (x, y), pos, ban)
            limit = len(best)
            if limit <= lower:
                raise _Stop  # a cover at the lower bound is optimal

    fmask = sum(1 << f for f in forced)
    try:
        rec(len(forced), fmask, root_cov, [0] * n, forced, 0, 0)
    except _Stop:
        if len(best) > lower:  # the budget ran out
            return CoverSolution(len(best), tuple(best), False, nodes, lower)
    finally:
        del rec  # rec refers to itself: unbind it so the search state is freed now
    return CoverSolution(len(best), tuple(best), True, nodes, len(best))


def greedy_cover(problem: CoverProblem) -> tuple[int, ...]:
    """A valid cover: the forced seed, then repeatedly the vertex covering
    the most new targets (ties to the lowest index), until everything is
    covered and at least one pair is chosen.  ``gain[v]`` is the OR of
    ``rows[v][c]`` over the chosen c, updated once per pick."""
    rows = problem.rows
    full = problem.full_mask
    gain = [0] * problem.n
    cmask = 0
    for f in problem.forced:
        gain = [g | r for g, r in zip(gain, rows[f])]
        cmask |= 1 << f
    cov = coverage_of(problem, tuple(problem.forced))
    while cov != full or cmask.bit_count() < 2:
        uncovered = full & ~cov
        best_v, best_gain = -1, -1
        for v, gv in enumerate(gain):
            if cmask >> v & 1:
                continue
            new = (gv & uncovered).bit_count()
            if new > best_gain:
                best_v, best_gain = v, new
        cov |= gain[best_v]
        cmask |= 1 << best_v
        gain = [g | r for g, r in zip(gain, rows[best_v])]
    return tuple(v for v in range(problem.n) if cmask >> v & 1)


def sweeps(n: int, forced: int, stop: Optional[int] = None) -> bool:
    """Whether :func:`solve_cover` sweeps a problem on n vertices with
    ``forced`` forced: it does when at most 15 vertices are free, or when
    given a level ``stop``, which only the sweep honours."""
    return n - forced <= 15 or stop is not None


def solve_cover(
    problem: CoverProblem, max_nodes: int = DEFAULT_BUDGET, stop: Optional[int] = None
) -> CoverSolution:
    """Branch from the :func:`greedy_cover`, or sweep and fall back to it,
    as :func:`sweeps` picks from the problem and ``stop``.  A sweep gives up
    before level ``stop``; when its budget runs out first, the greedy is
    returned if it is smaller than all n vertices.  Branch-and-bound never
    returns a cover larger than the greedy it starts from."""
    if not sweeps(problem.n, len(problem.forced), stop):
        return solve_cover_branch_bound(problem, max_nodes, greedy_cover(problem))
    solution = solve_cover_sweep(problem, max_nodes, stop)
    if not solution.optimal and (stop is None or solution.lower < stop):
        greedy = greedy_cover(problem)
        if len(greedy) < solution.size:
            solution = CoverSolution(len(greedy), greedy, False, solution.nodes, solution.lower)
    return solution
