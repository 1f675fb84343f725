#!/usr/bin/env python3
"""Seeded benchmark of the magsets command line: ``mag``, ``meg``, ``spectrum``.

    python3 bench/run.py --workload families|search|spectrum --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Each
op is one in-process ``magsets.cli.main([...])`` call on an edge-list file,
with its output captured.  The run

1. sets up several times (import, generate the seeded corpus, write the
   inputs) and reports the median as ``setup_s``;
2. runs passes over the whole corpus, one after another, for ``--seconds``
   (at least one pass);
3. checks every answer outside the timed region (``oracle.py``);
4. prints a run record, then one JSON line with the metrics: the
   end-to-end metrics with ``--trace 0``; with ``--trace 1`` an untraced and
   a traced pass, and the per-layer metrics from the traced one.

Exit status 1 when an answer is wrong, 2 when the library is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


def import_magsets():
    """A fresh import of the library from this checkout."""
    for name in [n for n in sys.modules if n == "magsets" or n.startswith("magsets.")]:
        del sys.modules[name]
    ms = importlib.import_module("magsets")
    importlib.import_module("magsets.cli")
    if Path(ms.__file__).resolve().parent != SRC / "magsets":
        raise ImportError(f"magsets imported from {ms.__file__}, not from this checkout")
    return ms


def setup(workload: str, seed: int, reference: dict, workdir: Path):
    ops = workloads.build(workload, seed, import_magsets(), reference)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i:03d}.txt"
        path.write_text(op.text)
        paths.append(str(path))
    return ops, paths


def run_op(cli, op, path: str, tracer: Tracer | None):
    """One CLI call: (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv(path))
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer:
        tracer.close(span)
    return dt, rc, out.getvalue()


def run_pass(cli, ops, paths, tracer=None):
    t0 = perf_counter()
    samples = [run_op(cli, op, path, tracer) for op, path in zip(ops, paths)]
    return perf_counter() - t0, samples


def verify(ops, passes) -> tuple[int, list[str]]:
    """(failed, messages) over every op of every pass."""
    failed = 0
    messages = []
    seen: dict[tuple[int, str], list[str]] = {}
    for _, samples in passes:
        for i, (op, (_, rc, out)) in enumerate(zip(ops, samples)):
            if rc not in (0, 3):
                problems = [f"exit {rc}"]
            else:
                try:
                    result = json.loads(out)["result"]
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc}"]
                else:
                    key = (i, json.dumps(result, sort_keys=True))
                    if key not in seen:
                        seen[key] = oracle.check(op, rc, result)
                    problems = seen[key]
            if problems:
                failed += 1
                messages.append(f"{op.key}: {'; '.join(problems)}")
    return failed, messages


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND samples above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND - 1e-9), 50)
    return pct, xs[max(0, math.ceil(pct * n / 100 - 1e-9) - 1)]


def end_to_end(ops, passes, setup_s: float) -> tuple[dict[str, float], float]:
    walls = [w for w, _ in passes]
    total = sum(walls)
    attempted = len(ops) * len(passes)
    unproven = sum(rc == 3 for _, samples in passes for _, rc, _ in samples)
    per_op = [statistics.median(s[i][0] for _, s in passes) for i in range(len(ops))]
    pct, tail_s = tail(per_op)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / total,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail_s,
        "orientations_per_s": len(passes) * sum(op.orientations for op in ops) / total,
        "proven_frac": 1 - unproven / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, pct


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "magsets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "magsets" / "__init__.py").is_file():
        print(f"error: no magsets package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())
    workdir = OUT / f"{args.workload}-{args.seed}"

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops, paths = setup(args.workload, args.seed, reference, workdir)
        setups.append(perf_counter() - t0)
    cli = sys.modules["magsets.cli"]

    passes = []
    tracer = None
    if args.trace:
        passes.append(run_pass(cli, ops, paths))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, paths, tracer))
        finally:
            tracer.uninstall()
    else:
        start = perf_counter()
        while True:
            passes.append(run_pass(cli, ops, paths))
            if perf_counter() - start + passes[-1][0] > args.seconds:
                break

    failed, messages = verify(ops, passes)
    attempted = len(ops) * len(passes)
    untraced = passes[:1] if args.trace else passes
    e2e, pct = end_to_end(ops, untraced, statistics.median(setups))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, listed = tracer.metrics(passes[1][0] / passes[0][0] - 1), spec["per_layer"]
    else:
        values, listed = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_digest": source_digest(),
        "corpus_digest": workloads.digest("".join(op.text for op in ops)),
        "ops": len(ops),
        "passes": len(passes),
        "tail_percentile": pct,
        "budget": sorted({op.budget for op in ops}),
        "setup_runs_s": setups,
        "failures": messages[:20],
        # every end-to-end metric, with failed_frac and unproven_frac, which
        # read 0 on most workloads and so are not BENCHMARK.json metrics
        "end_to_end": dict(
            {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
            failed_frac={"value": failed / attempted, "unit": "ratio"},
            unproven_frac={"value": 1 - e2e["proven_frac"], "unit": "ratio"},
        ),
        "op_ms": [[op.key, round(1000 * statistics.median(s[i][0] for _, s in untraced), 3)]
                  for i, op in enumerate(ops)],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.tsv")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "op_ms"}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
