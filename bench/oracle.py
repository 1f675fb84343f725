"""Answer checks that share no code with magsets.

Monitoring is tested by shortest-path counting: arc (u, v) lies on every
shortest x->y path iff d(x,u) + 1 + d(v,y) = d(x,y) and
sigma(x,u) * sigma(v,y) = sigma(x,y).  This is independent of the library's
deletion-BFS monitoring matrix.  Optimality is checked against the paper's
closed forms, a brute-force vertex cover for the hardness gadget, or an
answer captured in ``reference.json``.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations

from workloads import digest, parse


def _bfs_counts(adj: list[list[int]], s: int) -> tuple[list[int], list[int]]:
    dist = [-1] * len(adj)
    sigma = [0] * len(adj)
    dist[s], sigma[s] = 0, 1
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
            if dist[w] == dist[u] + 1:
                sigma[w] += sigma[u]
    return dist, sigma


class Monitoring:
    """Monitoring test by path counting; directed, or undirected when
    ``directed`` is False (an edge is then tried in both directions)."""

    def __init__(self, n: int, pairs: list[tuple[int, int]], directed: bool) -> None:
        self.directed = directed
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            self.out[u].append(v)
            self.inn[v].append(u)
            if not directed:
                self.out[v].append(u)
                self.inn[u].append(v)
        self._fwd: dict[int, tuple] = {}
        self._bwd: dict[int, tuple] = {}

    def fwd(self, x: int) -> tuple[list[int], list[int]]:
        if x not in self._fwd:
            self._fwd[x] = _bfs_counts(self.out, x)
        return self._fwd[x]

    def bwd(self, y: int) -> tuple[list[int], list[int]]:
        if y not in self._bwd:
            self._bwd[y] = _bfs_counts(self.inn, y)
        return self._bwd[y]

    def _on_all(self, x: int, y: int, u: int, v: int) -> bool:
        dx, sx = self.fwd(x)
        dy, sy = self.bwd(y)
        if dx[y] < 0 or dx[u] < 0 or dy[v] < 0:
            return False
        return dx[u] + 1 + dy[v] == dx[y] and sx[u] * sy[v] == sx[y]

    def monitors(self, x: int, y: int, u: int, v: int) -> bool:
        """Whether pair {x, y} monitors the arc (or edge) u-v."""
        if self._on_all(x, y, u, v) or self._on_all(y, x, u, v):
            return True
        if not self.directed:
            return self._on_all(x, y, v, u) or self._on_all(y, x, v, u)
        return False

    def uncovered(self, witness: list[int], pairs: list[tuple[int, int]], hints=None) -> list:
        """Arcs (or edges) no pair inside ``witness`` monitors.  ``hints`` maps
        a link index to a pair to try first (the program's certificate)."""
        member_set = set(witness)
        members = sorted(member_set)
        missing = []
        for i, (u, v) in enumerate(pairs):
            hint = (hints or {}).get(i)
            if hint and set(hint) <= member_set and hint[0] != hint[1] and self.monitors(*hint, u, v):
                continue
            if u in member_set and v in member_set and self.monitors(u, v, u, v):
                continue
            if not any(self.monitors(x, y, u, v) for x, y in combinations(members, 2)):
                missing.append((u, v))
        return missing


def brute_mag(n: int, arcs: list[tuple[int, int]]) -> int:
    """Smallest MAG-set size by exhaustive search (small n only)."""
    if not arcs:
        return 0
    mon = Monitoring(n, arcs, directed=True)
    full = (1 << len(arcs)) - 1
    mask = {}
    for x, y in combinations(range(n), 2):
        mask[(x, y)] = sum(1 << i for i, (u, v) in enumerate(arcs) if mon.monitors(x, y, u, v))
    for k in range(2, n + 1):
        for cand in combinations(range(n), k):
            cov = 0
            for p in combinations(cand, 2):
                cov |= mask[p]
            if cov == full:
                return k
    raise AssertionError("the whole vertex set always monitors every arc")


def min_vertex_cover(n: int, edges: list[tuple[int, int]]) -> int:
    for k in range(n + 1):
        for cand in combinations(range(n), k):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    return n


def _canonical_arcs(arcs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arc order of the program's certificate: by unordered pair."""
    return sorted(arcs, key=lambda a: (min(a), max(a)))


def expected_size(op) -> int:
    ref = op.ref
    if ref["kind"] == "vertex_cover":
        n, m = ref["n"], len(ref["edges"])
        return min_vertex_cover(n, [tuple(e) for e in ref["edges"]]) + 2 * n + 2 * m
    return ref["size"]


def check(op, rc: int, result: dict) -> list[str]:
    """Problems with one answer; empty when it is correct."""
    ref = op.ref
    if ref["kind"] == "pool" and digest(op.text) != ref["digest"]:
        return [f"input {op.key} differs from the one in reference.json"]
    if op.command == "spectrum":
        return _check_spectrum(op, rc, result)
    n, links = parse(op.text)
    directed = op.command == "mag"
    problems = []
    witness = result.get("witness", [])
    size = result.get("size")
    if size != len(set(witness)):
        problems.append(f"size {size} but {len(set(witness))} distinct witness vertices")
    if any(not (0 <= v < n) for v in witness):
        return problems + ["witness vertex out of range"]
    order = _canonical_arcs(links) if directed else sorted(links)
    hints = {int(a): tuple(p) for a, p in result.get("coverage", {}).items()}
    missing = Monitoring(n, links, directed).uncovered(witness, order, hints)
    if missing:
        problems.append(f"{len(missing)} links unmonitored, e.g. {missing[0]}")
    want = expected_size(op)
    proven = rc == 0 and result.get("optimal", True)
    if proven and ref.get("optimal", True) and size != want:
        problems.append(f"size {size}, expected {want}")
    elif proven and size > want:  # reference was only an upper bound
        problems.append(f"size {size} claimed optimal, but {want} is achievable")
    elif not proven and ref.get("optimal", True) and size is not None and size < want:
        problems.append(f"size {size} below the optimum {want}")
    if directed and (rc == 3) == result.get("optimal", True):
        problems.append(f"exit code {rc} disagrees with optimal={result.get('optimal')}")
    return problems


def _orientation(edges: list[tuple[int, int]], bits: str) -> list[tuple[int, int]]:
    """Bit i set reverses edge i (edges in sorted order), as the CLI prints."""
    return [(v, u) if b == "1" else (u, v) for (u, v), b in zip(sorted(edges), bits)]


def _check_spectrum(op, rc: int, result: dict) -> list[str]:
    want = op.ref["result"]
    problems = [f"{k}: got {result.get(k)!r}, expected {v!r}" for k, v in want.items() if result.get(k) != v]
    if rc != 0:
        problems.append(f"exit code {rc}")
    if problems:
        return problems
    n, edges = parse(op.text)
    for end, bits in (("mag_minus", result["witness_min"]), ("mag_plus", result["witness_max"])):
        got = brute_mag(n, _orientation(edges, bits))
        if got != result[end]:
            problems.append(f"witness orientation for {end} has mag {got}, not {result[end]}")
    return problems
