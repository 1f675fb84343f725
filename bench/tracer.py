"""Spans around calls into magsets, recorded from outside the program.

``Tracer.install`` replaces public functions at the module attributes where
their callers look them up (for example ``solver.monitor_matrix``, which is
what the solver calls) with wrappers that record a span: name, start, end
and parent.  Spans stay in memory; ``write`` saves them at the end with each
span's self time (its duration minus the time its child spans cover).
Names a later version of the library no longer has are skipped.

The deletion-BFS methods run thousands of times per matrix, so they are not
kept as single spans: their calls and time are summed per name and their
time is charged to the enclosing span as child time.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

AVOID_BFS = "digraph.avoid_bfs"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")  # time covered by each span's children
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._solves: list[list[int]] = []  # per open solve: [greedy size, lower bound]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        t = perf_counter()
        self.stack.pop()
        self.end[i] = t
        dur = t - self.start[i]
        name = self.names[self.name_of[i]]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - self.child[i]
        if self.parent[i] >= 0:
            self.child[self.parent[i]] += dur

    def _charge_parent(self, dt: float) -> None:
        if self.stack:
            self.child[self.stack[-1]] += dt

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, hook=None, solve: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if solve:
                tracer._solves.append([0, 0])
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
                ctx = tracer._solves.pop() if solve else None
            if hook is not None:  # bookkeeping is kept out of the parent's self time
                t0 = perf_counter()
                hook(args, result, ctx)
                tracer._charge_parent(perf_counter() - t0)
            return result

        return traced

    def _leaf_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer._charge_parent(dt)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        fn = getattr(owner, attr, None)
        if owner is None or fn is None:
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper(fn))

    def install(self) -> None:
        mod = {n: sys.modules.get(f"magsets.{n}") for n in ("cli", "solver", "cover", "monitoring", "spectrum", "digraph")}
        span = self._span_wrapper
        plan = [
            ("cli", "parse_edge_list", "formats.parse_edge_list", None, False),
            ("cli", "min_mag_set", "solver.min_mag_set", self._on_solve, True),
            ("cli", "min_meg_set", "monitoring.min_meg_set", None, False),
            ("cli", "spectrum", "spectrum.spectrum", self._on_spectrum, False),
            ("spectrum", "min_mag_set", "solver.min_mag_set", self._on_spectrum_solve, True),
            ("spectrum", "orient", "spectrum.orient", None, False),
            ("solver", "monitor_matrix", "monitoring.monitor_matrix", None, False),
            ("solver", "forced_vertices", "monitoring.forced_vertices", None, False),
            ("solver", "greedy_mag_set", "solver.greedy_mag_set", self._on_greedy, False),
            ("solver", "mag_lower_bound", "solver.mag_lower_bound", self._on_bound, False),
            ("solver", "solve_cover", "cover.solve_cover", self._on_cover, False),
            ("cover", "solve_cover", "cover.solve_cover", self._on_cover, False),
            ("cover", "solve_cover_sweep", "cover.solve_cover_sweep", None, False),
            ("cover", "solve_cover_branch_bound", "cover.solve_cover_branch_bound", None, False),
            ("monitoring", "undirected_monitor_pair_masks", "monitoring.undirected_monitor_pair_masks", None, False),
        ]
        for module, attr, name, hook, solve in plan:
            self._patch(mod[module], attr, lambda fn, n=name, h=hook, s=solve: span(fn, n, h, s))
        digraph = mod["digraph"]
        for cls, attr in (("OrientedGraph", "distances_from_avoiding_arc"),
                          ("UndirectedGraph", "distances_from_avoiding_edge")):
            self._patch(getattr(digraph, cls, None), attr, lambda fn: self._leaf_wrapper(fn, AVOID_BFS))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- counts recorded at the boundaries ------------------------------------

    def _on_greedy(self, args, result, ctx) -> None:
        if self._solves:
            self._solves[-1][0] += len(result)

    def _on_bound(self, args, result, ctx) -> None:
        if self._solves:
            self._solves[-1][1] += result

    def _on_solve(self, args, result, ctx) -> None:
        if getattr(result, "optimal", False):
            greedy, bound = ctx
            self.counts["greedy_excess"] += greedy - result.size
            self.counts["bound_deficit"] += result.size - bound

    def _on_spectrum_solve(self, args, result, ctx) -> None:
        self.counts["orientations_evaluated"] += 1
        self._on_solve(args, result, ctx)

    def _on_spectrum(self, args, result, ctx) -> None:
        self.counts["orientations"] += 1 << args[0].m

    def _on_cover(self, args, result, ctx) -> None:
        problem = args[0]
        masks = problem.pair_masks
        masks = list(masks.values()) if hasattr(masks, "values") else list(masks)
        self.counts["cover_nodes"] += result.nodes
        self.counts["cover_exhausted"] += not result.optimal
        self.counts["monitored_cells"] += sum(m.bit_count() for m in masks)
        self.counts["cells"] += len(masks) * problem.full_mask.bit_length()

    # -- output --------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        c, t, s, k = self.calls, self.total, self.self_time, self.counts
        solves = c["solver.min_mag_set"]
        evaluated = k["orientations_evaluated"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "digraph.avoid_bfs_calls": c[AVOID_BFS],
            "digraph.avoid_bfs_s": t[AVOID_BFS],
            "monitoring.matrix_calls": c["monitoring.monitor_matrix"],
            "monitoring.matrix_s": t["monitoring.monitor_matrix"],
            "monitoring.matrix_per_solve": ratio(c["monitoring.monitor_matrix"], solves),
            "monitoring.forced_calls": c["monitoring.forced_vertices"],
            "monitoring.forced_s": t["monitoring.forced_vertices"],
            "monitoring.forced_per_solve": ratio(c["monitoring.forced_vertices"], solves),
            "monitoring.meg_masks_s": t["monitoring.undirected_monitor_pair_masks"],
            "monitoring.density": ratio(k["monitored_cells"], k["cells"]),
            "solver.solve_calls": solves,
            "solver.solve_s": t["solver.min_mag_set"] + t["monitoring.min_meg_set"],
            "solver.self_s": s["solver.min_mag_set"],
            "solver.greedy_s": t["solver.greedy_mag_set"],
            "solver.greedy_excess": k["greedy_excess"],
            "solver.bound_deficit": k["bound_deficit"],
            "cover.calls": c["cover.solve_cover"],
            "cover.s": t["cover.solve_cover"],
            "cover.nodes": k["cover_nodes"],
            "cover.nodes_per_s": ratio(k["cover_nodes"], t["cover.solve_cover"]),
            "cover.sweep_calls": c["cover.solve_cover_sweep"],
            "cover.bnb_calls": c["cover.solve_cover_branch_bound"],
            "cover.budget_exhausted": k["cover_exhausted"],
            "spectrum.orientations": k["orientations"],
            "spectrum.evaluated_frac": ratio(evaluated, k["orientations"]),
            "spectrum.orient_s": t["spectrum.orient"],
            "spectrum.per_orientation_ms": 1000 * ratio(t["spectrum.spectrum"], evaluated),
            "spectrum.self_s": s["spectrum.spectrum"],
            "formats.parse_s": t["formats.parse_edge_list"],
            "cli.self_s": s["cli.main"],
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path) -> None:
        """One line per span: id, name, start, end, parent id, self time."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tself_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                dur = self.end[i] - self.start[i]
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{dur - self.child[i]:.7f}\n")
