"""Seeded inputs for the three benchmark workloads.

Every op is one call of the command-line entry point on one generated
edge list.  ``build(workload, seed, ms, reference)`` returns the op list for
a seed; the same seed always gives the same inputs.

* ``families`` draws sizes and random trees/graphs from the seed and relies
  on the paper's closed forms for the expected answers, except for the
  girth-alternating orientations and random MEG graphs, which come from the
  fixed pool below with answers in ``reference.json``.
* ``search`` and ``spectrum`` pick, per stratum, a fixed number of members
  of a fixed pool (generated from ``POOL_SEED``), evenly spread over the
  stratum's cost order, so that every seed runs the same mix of easy, hard
  and budget-exhausting instances and the run time does not swing with the
  draw.  Vertex-cover gadgets in ``search`` are drawn freely: their answer,
  tau(G) + 2n + 2m, is computed by ``oracle``.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

POOL_SEED = 20240901
SEARCH_BUDGET = 20_000
DEFAULT_BUDGET = 10_000_000

# Per-stratum pick counts.  A search stratum is (cover regime, node class at
# the reference commit): the regime is the strategy the solver picks (sweep
# when at most 24 vertices are free), the class is easy (< 1000 nodes), mid
# (< 5000), hard, or out (budget exhausted).  A spectrum stratum is
# (kind, edge count).  The counts make branch-and-bound the bulk of the
# search time and put the hard and budget-bound instances in the top quarter
# of op latencies, so the tail percentile measures the search.
SEARCH_PICKS = {
    ("sweep", "easy"): 6, ("sweep", "mid"): 6, ("sweep", "hard"): 6, ("sweep", "out"): 4,
    ("bnb", "easy"): 10, ("bnb", "mid"): 10, ("bnb", "hard"): 11, ("bnb", "out"): 10,
}
SEARCH_GADGETS = 10
SPECTRUM_PICKS = {
    ("chord", 8): 5, ("chord", 9): 9, ("chord", 10): 6, ("chord", 11): 1,
    ("random", 8): 5, ("random", 9): 9, ("random", 10): 6, ("random", 11): 1,
}
SPECTRUM_FIXED = (2, 3)  # construction G_j for these j in every spectrum corpus
FAMILIES_POOL = 24  # per pooled kind
SPECTRUM_POOL = 16  # per stratum
SEARCH_POOL = {"n40": (40, 70, 160), "n50": (50, 85, 160)}  # n, m, candidates


@dataclass(frozen=True)
class Op:
    key: str  # stable identity of the input within its family or pool
    command: str  # mag | meg | spectrum
    text: str  # edge list handed to the program
    budget: int
    ref: dict  # expected answer, checked by oracle.check

    def argv(self, path: str) -> list[str]:
        args = [self.command, path, "--budget", str(self.budget)]
        if self.command == "spectrum":
            args += ["--threads", "1"]
        return args

    @property
    def orientations(self) -> int:
        """Orientations answered: one per mag op, 2^m per spectrum op."""
        if self.command == "mag":
            return 1
        if self.command == "spectrum":
            return 1 << int(self.text.split()[2])
        return 0


def edge_list(kind: str, n: int, pairs) -> str:
    pairs = list(pairs)
    return f"{kind} {n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    n = int(lines[0].split()[1])
    return n, [tuple(map(int, ln.split())) for ln in lines[1:] if ln]


# ---------------------------------------------------------------------------
# random graphs (the benchmark's own generators)


def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random recursive spanning tree plus uniform extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def random_orientation(rng: random.Random, edges) -> list[tuple[int, int]]:
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_bipartite(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random tree 2-coloured by depth parity, plus extra cross edges."""
    tree = random_tree(rng, n)
    depth = [0] * n
    for u, v in tree:
        depth[v] = depth[u] + 1
    edges = set(tree)
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (depth[u] + depth[v]) % 2:
            edges.add((u, v))
    return sorted(edges)


def cycle_with_chords(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def alternating_sources(rng: random.Random, n: int, k: int) -> list[int]:
    """k cycle positions, no two cyclically adjacent (a sink sits between)."""
    while True:
        pos = sorted(rng.sample(range(n), k))
        gaps = [(pos[(i + 1) % k] - pos[i]) % n for i in range(k)]
        if min(gaps) >= 2:
            return pos


# ---------------------------------------------------------------------------
# fixed pools (answers captured in reference.json)


def families_pool(ms) -> dict[str, tuple[str, str]]:
    """key -> (command, text) for the pooled members of ``families``."""
    rng = random.Random(f"{POOL_SEED}:families")
    pool = {}
    for i in range(FAMILIES_POOL):
        G = ms.UndirectedGraph(50, tuple(random_connected(rng, 50, 62)))
        g = ms.girth_alternating_orientation(G)
        pool[f"girth-{i:02d}"] = ("mag", edge_list("directed", g.n, g.arcs))
    for i in range(FAMILIES_POOL):
        pool[f"megrand-{i:02d}"] = ("meg", edge_list("undirected", 60, random_connected(rng, 60, 64)))
    return pool


def search_pool() -> dict[str, str]:
    """key -> directed edge list; more candidates than strata need, since the
    strata are assigned from the reference run."""
    pool = {}
    for kind, (n, m, count) in SEARCH_POOL.items():
        rng = random.Random(f"{POOL_SEED}:search:{kind}")
        for i in range(count):
            arcs = random_orientation(rng, random_connected(rng, n, m))
            pool[f"{kind}-{i:03d}"] = edge_list("directed", n, arcs)
    return pool


def spectrum_pool() -> dict[str, str]:
    pool = {}
    for kind, m in SPECTRUM_PICKS:
        rng = random.Random(f"{POOL_SEED}:spectrum:{kind}:{m}")
        for i in range(SPECTRUM_POOL):
            n = rng.randint(7, 9) if m < 10 else rng.randint(8, 10)
            make = cycle_with_chords if kind == "chord" else random_connected
            pool[f"{kind}{m}-{i:02d}"] = edge_list("undirected", n, make(rng, n, m))
    return pool


def spectrum_fixed(ms) -> dict[str, str]:
    """Members of every spectrum corpus: the paper's gap construction G_j."""
    out = {}
    for j in SPECTRUM_FIXED:
        G = ms.construction_gj(j)
        out[f"gj-{j}"] = edge_list("undirected", G.n, G.edges)
    return out


def strata(workload: str, pool: dict, reference: dict) -> dict[tuple, list[str]]:
    """Pool keys per stratum, each list ordered by the op's wall time when
    the reference was captured."""
    groups: dict[tuple, list] = {}
    for key in pool:
        entry = reference[workload].get(key)
        if entry is None:
            continue
        kind = key.split("-")[0]
        if workload == "search":
            nodes = entry["nodes"]
            cls = "easy" if nodes < 1000 else "mid" if nodes < 5000 else "hard"
            st = (entry["regime"], cls if entry["optimal"] else "out")
        else:
            st = (kind.rstrip("0123456789"), int(kind.lstrip("abcdefghijklmnopqrstuvwxyz")))
        groups.setdefault(st, []).append((entry["ms"], key))
    return {st: [key for _, key in sorted(members)] for st, members in groups.items()}


def _spread(rng: random.Random, members: list[str], count: int) -> list[str]:
    """``count`` members evenly spaced through the cost-ordered list from a
    random offset (systematic sampling): each seed draws other members, but
    the same spread of costs, so run time varies little between seeds."""
    step = len(members) / count
    start = rng.random() * step
    return [members[int(start + i * step)] for i in range(count)]


def _pick(rng: random.Random, workload: str, pool: dict, reference: dict, picks: dict) -> list[str]:
    groups = strata(workload, pool, reference)
    chosen = []
    for st, count in picks.items():
        members = groups.get(st, [])
        if len(members) < count:
            raise ValueError(f"{workload} pool stratum {st} has {len(members)} members, needs {count}")
        chosen += _spread(rng, members, count)
    return chosen


def _pooled(workload: str, key: str, command: str, text: str, budget: int, reference: dict) -> Op:
    entry = reference[workload][key]
    return Op(key, command, text, budget, dict(entry, kind="pool"))


# ---------------------------------------------------------------------------
# workloads


def families(seed: int, ms, reference: dict) -> list[Op]:
    rng = random.Random(f"families:{seed}")
    B = DEFAULT_BUDGET
    ops: list[Op] = []

    def mag(key: str, g, size: Optional[int] = None) -> None:
        text = edge_list("directed", g.n, g.arcs)
        if size is None:  # |sources u sinks|, counted from the arcs
            heads = {v for _, v in g.arcs}
            tails = {u for u, _ in g.arcs}
            size = sum(1 for v in range(g.n) if v not in heads or v not in tails)
        ops.append(Op(key, "mag", text, B, {"kind": "closed", "size": size}))

    for _ in range(7):
        n = rng.randint(25, 27)
        mag(f"transitive-{n}", ms.transitive_tournament(n), n)
        n = rng.randint(25, 27)
        mag(f"flipped-{n}", ms.flipped_tournament(n), n - 1)
        n = 2 * rng.randint(33, 37)
        mag(f"c1-{n}", ms.cycle_c1(n), 4)
        n = rng.randint(66, 74)
        d = rng.choice([d for d in range(1, n) if 2 * d != n])
        mag(f"c2-{n}-{d}", ms.cycle_c2(n, d), 3)
        n = rng.randint(66, 74)
        mag(f"c3-{n}", ms.cycle_c3(n, alternating_sources(rng, n, rng.randint(2, 6))))
    for _ in range(5):
        n = rng.randint(69, 71)
        mag(f"c0-{n}", ms.cycle_c0(n), 2)
    for _ in range(7):
        n = rng.randint(118, 122)
        T = ms.UndirectedGraph(n, tuple(random_tree(rng, n)))
        mag(f"tree-{n}", ms.rooted_tree_orientation(T, 0))
    for _ in range(8):
        n = rng.randint(55, 65)
        G = ms.UndirectedGraph(n, tuple(random_bipartite(rng, n, n // 2)))
        mag(f"bipartite-{n}", ms.bipartite_extremal_orientation(G), n)
    for _ in range(23):
        j = rng.randint(10, 20)
        G = ms.construction_gj(j)
        text = edge_list("undirected", G.n, G.edges)
        ops.append(Op(f"gj-{j}", "meg", text, B, {"kind": "closed", "size": j + 2}))
    pool = families_pool(ms)
    for prefix, count in (("girth", 8), ("megrand", 14)):
        keys = sorted(k for k in pool if k.startswith(prefix))
        for key in rng.sample(keys, count):
            command, text = pool[key]
            ops.append(_pooled("families", key, command, text, B, reference))
    rng.shuffle(ops)
    return ops


def search(seed: int, ms, reference: dict) -> list[Op]:
    rng = random.Random(f"search:{seed}")
    pool = search_pool()
    ops = [
        _pooled("search", key, "mag", pool[key], SEARCH_BUDGET, reference)
        for key in _pick(rng, "search", pool, reference, SEARCH_PICKS)
    ]
    for _ in range(SEARCH_GADGETS):
        n = rng.randint(8, 9)
        G = ms.UndirectedGraph(n, tuple(random_connected(rng, n, n + 3)))
        art = ms.vc_to_mag_instance(ms.VertexCoverInstance(G, 0))
        text = edge_list("directed", art.graph.n, art.graph.arcs)
        ref = {"kind": "vertex_cover", "n": G.n, "edges": [list(e) for e in G.edges]}
        ops.append(Op(f"vc-{n}-{G.m}", "mag", text, SEARCH_BUDGET, ref))
    rng.shuffle(ops)
    return ops


def spectrum(seed: int, ms, reference: dict) -> list[Op]:
    rng = random.Random(f"spectrum:{seed}")
    pool = spectrum_pool()
    ops = [
        _pooled("spectrum", key, "spectrum", pool[key], DEFAULT_BUDGET, reference)
        for key in _pick(rng, "spectrum", pool, reference, SPECTRUM_PICKS)
    ]
    for key, text in spectrum_fixed(ms).items():
        ops.append(_pooled("spectrum", key, "spectrum", text, DEFAULT_BUDGET, reference))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"families": families, "search": search, "spectrum": spectrum}


def build(workload: str, seed: int, ms, reference: dict) -> list[Op]:
    return WORKLOADS[workload](seed, ms, reference)
