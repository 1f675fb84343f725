#!/usr/bin/env python3
"""Regenerate ``bench/reference.json``: answers for the pooled inputs.

    python3 bench/capture.py

Run from the repository root, at the commit whose answers are the reference.
Each pooled input goes through the same CLI call as in a benchmark run, and
its witness is checked by ``oracle`` before it is recorded.  For ``search``
the entry also keeps the node count and the cover regime (sweep when at most
24 vertices are free), from which ``workloads`` assigns the strata, and for
``search`` and ``spectrum`` the op's wall time here, by which ``workloads``
orders each stratum.  A benchmark run only reads the file.
"""
from __future__ import annotations

import json
import sys

import oracle
import run
import workloads
from workloads import DEFAULT_BUDGET, SEARCH_BUDGET, Op, digest


def answer(cli, command: str, text: str, budget: int, key: str) -> tuple[int, dict, dict, float]:
    path = run.OUT / "capture.txt"
    path.write_text(text)
    op = Op(key, command, text, budget, {})
    dt, rc, out = run.run_op(cli, op, str(path), None)
    if rc not in (0, 3):
        raise RuntimeError(f"{key}: exit {rc}")
    report = json.loads(out)
    return rc, report["result"], report["stats"], round(1000 * dt, 1)


def checked(op: Op, rc: int, result: dict) -> None:
    problems = oracle.check(op, rc, result)
    if problems:
        raise RuntimeError(f"{op.key}: {problems}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    ms = run.import_magsets()
    cli = sys.modules["magsets.cli"]
    from magsets.monitoring import forced_vertices

    ref: dict[str, dict] = {"families": {}, "search": {}, "spectrum": {}}
    for key, (command, text) in workloads.families_pool(ms).items():
        rc, result, _, _ = answer(cli, command, text, DEFAULT_BUDGET, key)
        entry = {"digest": digest(text), "size": result["size"]}
        checked(Op(key, command, text, DEFAULT_BUDGET, dict(entry, kind="pool")), rc, result)
        ref["families"][key] = entry

    for key, text in workloads.search_pool().items():
        rc, result, stats, ms_ = answer(cli, "mag", text, SEARCH_BUDGET, key)
        g = ms.parse_edge_list(text)
        free = g.n - len(forced_vertices(g).vertices)
        entry = {
            "digest": digest(text),
            "size": result["size"],
            "optimal": result["optimal"],
            "nodes": stats["nodes"],
            "regime": "sweep" if free <= 24 else "bnb",
            "ms": ms_,
        }
        checked(Op(key, "mag", text, SEARCH_BUDGET, dict(entry, kind="pool")), rc, result)
        ref["search"][key] = entry
        print(key, entry, file=sys.stderr)

    texts = dict(workloads.spectrum_pool(), **workloads.spectrum_fixed(ms))
    for key, text in texts.items():
        rc, result, _, ms_ = answer(cli, "spectrum", text, DEFAULT_BUDGET, key)
        entry = {"digest": digest(text), "result": result, "ms": ms_}
        checked(Op(key, "spectrum", text, DEFAULT_BUDGET, dict(entry, kind="pool")), rc, result)
        ref["spectrum"][key] = entry
        print(key, result["spectrum"], file=sys.stderr)

    out = run.BENCH / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
