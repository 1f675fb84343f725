"""Hardness gadget constructions with desk-scale verification oracles.

Two reductions are generated here:

* monotone NAE-3SAT -> "does some orientation have mag = n" (undirected
  gadget: one triangle per clause, one vertex per variable, incidence
  edges);
* vertex cover -> "is there a MAG-set of size k + 2n + 2m" (oriented,
  acyclic gadget built on the vertex/edge incidence encoding).

Each verifier checks the decision-level iff between the gadget side and an
independent brute-force oracle for the source problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .cover import DEFAULT_BUDGET, check_budget
from .digraph import OrientedGraph, UndirectedGraph, _split
from .errors import (
    BadParamError,
    BudgetExceededError,
    InvalidInstanceError,
    ParseError,
    TooLargeError,
)
from .solver import min_mag_set
from .spectrum import DEFAULT_EDGE_CAP, mag_plus_at_least_n

# the caps of the brute-force oracles: 2^24 assignments or vertex subsets,
# and a vertex-cover gadget small enough to solve exactly
_MAX_NAE_VARS = 24
_MAX_VC_VERTICES = 24
_MAX_VC_SIZE = 12


@dataclass(frozen=True)
class Nae3SatInstance:
    """Monotone NAE-3SAT: clauses of exactly 3 distinct positive variables."""

    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 3 and self.clauses:
            raise InvalidInstanceError("a 3-clause needs at least 3 variables")
        for cl in self.clauses:
            if len(cl) != 3:
                raise InvalidInstanceError("every clause must have 3 distinct variables")
            if any(not 0 <= x < self.num_vars for x in cl):
                raise InvalidInstanceError("variable index out of range")


@dataclass(frozen=True)
class VertexCoverInstance:
    graph: UndirectedGraph
    k: int

    def __post_init__(self) -> None:
        if not (0 <= self.k <= self.graph.n):
            raise InvalidInstanceError("budget k must be in [0, n]")
        if not self.graph.is_connected():
            raise InvalidInstanceError("vertex cover instance must be connected")


@dataclass(frozen=True)
class ReductionArtifact:
    """A gadget graph plus per-vertex role labels and the target size."""

    graph: Union[UndirectedGraph, OrientedGraph]
    roles: dict[int, str]
    target: Optional[int] = None
    forced_roles: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# NAE-3SAT side


def nae3sat_to_graph(phi: Nae3SatInstance) -> ReductionArtifact:
    """Variable vertex per literal, triangle per clause, incidence edges.

    Indices: x_i = i, then c_{j,1..3} = n + 3j + (k-1).
    """
    n, m = phi.num_vars, len(phi.clauses)
    edges = []
    roles = {i: f"x{i + 1}" for i in range(n)}
    for j, clause in enumerate(phi.clauses):
        c = [n + 3 * j + k for k in range(3)]
        for k in range(3):
            roles[c[k]] = f"c{j + 1},{k + 1}"
        edges += [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]
        for k, x in enumerate(sorted(clause)):
            edges.append((x, c[k]))
    return ReductionArtifact(UndirectedGraph(n + 3 * m, tuple(edges)), roles)


def brute_nae3sat(phi: Nae3SatInstance) -> bool:
    """Exhaustive assignment check: every clause needs a True and a False."""
    if phi.num_vars > _MAX_NAE_VARS:
        raise TooLargeError(f"{phi.num_vars} variables exceeds the 2^{_MAX_NAE_VARS} cap")
    if not phi.clauses:
        return True
    for assignment in range(1 << phi.num_vars):
        ok = True
        for clause in phi.clauses:
            vals = [assignment >> x & 1 for x in clause]
            if all(vals) or not any(vals):
                ok = False
                break
        if ok:
            return True
    return False


def extract_nae_assignment(phi: Nae3SatInstance, oriented_gadget: OrientedGraph) -> list[bool]:
    """Valuation read off an extremal orientation: a variable is True when
    its vertex is a sink.  Diagnostic helper, not used by the verifier."""
    _, sinks = oriented_gadget.sources_and_sinks()
    return [i in sinks for i in range(phi.num_vars)]


def verify_nae_reduction(phi: Nae3SatInstance, max_edges: int = DEFAULT_EDGE_CAP) -> bool:
    """Does [some orientation of the gadget has mag = |V|] match the brute
    satisfiability verdict?  Evaluated per connected component (disjoint
    clause groups are independent on both sides), each within ``max_edges``."""
    if max_edges < 0:
        raise BadParamError(f"the edge cap must be non-negative, got {max_edges}")
    art = nae3sat_to_graph(phi)
    G = art.graph
    assert isinstance(G, UndirectedGraph)
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise InvalidInstanceError("every variable must appear in some clause")
    gadget_side = all(
        mag_plus_at_least_n(UndirectedGraph(len(verts), tuple(edges)), max_edges)
        for verts, edges, _ in _split(G.n, G.edges, G.components())
    )
    return gadget_side == brute_nae3sat(phi)


def parse_nae3sat(text: str) -> Nae3SatInstance:
    """Parse ``p nae3 <n> <m>`` followed by m lines of three 1-based ids
    terminated by 0."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("p nae3"):
        raise ParseError("missing 'p nae3 <n> <m>' header")
    parts = lines[0].split()
    if len(parts) != 4:
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"bad header: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} clause lines, got {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 4 or toks[-1] != "0":
            raise ParseError(f"clause line must be three ids then 0: {ln!r}")
        try:
            ids = [int(t) for t in toks[:3]]
        except ValueError:
            raise ParseError(f"bad clause line: {ln!r}") from None
        if any(i < 1 for i in ids):
            raise ParseError("variable ids are positive and 1-based")
        clauses.append(frozenset(i - 1 for i in ids))
    try:
        return Nae3SatInstance(n, tuple(clauses))
    except InvalidInstanceError as exc:
        raise ParseError(str(exc)) from exc


def write_nae3sat(phi: Nae3SatInstance) -> str:
    lines = [f"p nae3 {phi.num_vars} {len(phi.clauses)}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(x + 1) for x in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Vertex cover side


def vc_to_mag_instance(inst: VertexCoverInstance) -> ReductionArtifact:
    """Oriented gadget in vertex blocks v, e, f, g, a, b, c (in that order).

    Arcs: v_i -> e_j per incidence, e_j -> f_j, e_j -> g_j, a_i -> c_i,
    c_i -> b_i, c_i -> v_i, and a_i -> g_j per incidence.  The role set A
    (all a, b, f, g vertices) consists exactly of the sources and sinks.
    """
    G = inst.graph
    n, m = G.n, G.m
    if m == 0:
        raise InvalidInstanceError("instance needs at least one edge")
    v0, e0, f0, g0, a0, b0, c0 = 0, n, n + m, n + 2 * m, n + 3 * m, 2 * n + 3 * m, 3 * n + 3 * m
    roles = {}
    for i in range(n):
        roles[v0 + i] = f"v{i + 1}"
        roles[a0 + i] = f"a{i + 1}"
        roles[b0 + i] = f"b{i + 1}"
        roles[c0 + i] = f"c{i + 1}"
    for j in range(m):
        roles[e0 + j] = f"e{j + 1}"
        roles[f0 + j] = f"f{j + 1}"
        roles[g0 + j] = f"g{j + 1}"
    arcs = []
    for j, (u, w) in enumerate(G.edges):
        arcs += [(v0 + u, e0 + j), (v0 + w, e0 + j)]
        arcs += [(e0 + j, f0 + j), (e0 + j, g0 + j)]
        arcs += [(a0 + u, g0 + j), (a0 + w, g0 + j)]
    for i in range(n):
        arcs += [(a0 + i, c0 + i), (c0 + i, b0 + i), (c0 + i, v0 + i)]
    forced = frozenset(
        [a0 + i for i in range(n)]
        + [b0 + i for i in range(n)]
        + [f0 + j for j in range(m)]
        + [g0 + j for j in range(m)]
    )
    graph = OrientedGraph(4 * n + 3 * m, tuple(arcs))
    return ReductionArtifact(graph, roles, target=inst.k + 2 * n + 2 * m, forced_roles=forced)


def brute_vertex_cover(inst: VertexCoverInstance) -> tuple[bool, Optional[frozenset[int]]]:
    """Smallest-first exhaustive search for a cover of size <= k."""
    G = inst.graph
    if G.n > _MAX_VC_VERTICES:
        raise TooLargeError(f"{G.n} vertices exceeds the cap of {_MAX_VC_VERTICES}")
    for size in range(inst.k + 1):
        for cand in combinations(range(G.n), size):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in G.edges):
                return True, frozenset(chosen)
    return False, None


def verify_vc_reduction(inst: VertexCoverInstance, max_nodes: int = DEFAULT_BUDGET) -> bool:
    """Does [the gadget has a MAG-set of size <= k + 2n + 2m] match the
    brute vertex-cover verdict?  Raises :class:`BudgetExceededError` when
    the ``max_nodes`` search budget runs out before a MAG-set within the
    target is found."""
    check_budget(max_nodes)
    G = inst.graph
    if G.n + G.m > _MAX_VC_SIZE:
        raise TooLargeError(f"n + m = {G.n + G.m} exceeds the practical cap of {_MAX_VC_SIZE}")
    art = vc_to_mag_instance(inst)
    assert isinstance(art.graph, OrientedGraph) and art.target is not None
    result = min_mag_set(art.graph, max_nodes)
    if not result.optimal and result.size > art.target:
        raise BudgetExceededError(f"search budget exhausted before a MAG-set of size <= {art.target}")
    cover_exists, _ = brute_vertex_cover(inst)
    return (result.size <= art.target) == cover_exists


def extract_vertex_cover(
    inst: VertexCoverInstance, art: ReductionArtifact, coverage: dict[int, tuple[int, int]]
) -> frozenset[int]:
    """Map a gadget MAG-set certificate to a vertex cover.

    For each edge gadget the pair certifying its g-sink arc starts at the
    edge vertex itself, at an incident instance vertex, or at that vertex's
    c-companion; each case yields an incident instance vertex.
    """
    G = inst.graph
    n, m = G.n, G.m
    gadget = art.graph
    assert isinstance(gadget, OrientedGraph)
    c0 = 3 * n + 3 * m
    cover = set()
    for j, (u, w) in enumerate(G.edges):
        e, gj = n + j, n + 2 * m + j
        x, y = coverage[gadget.arc_index(e, gj)]
        start = x if y == gj else y
        if start == e:
            cover.add(min(u, w))
        elif start >= c0:
            cover.add(start - c0)
        else:
            cover.add(start)
    return frozenset(cover)
