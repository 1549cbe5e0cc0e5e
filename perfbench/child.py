"""One benchmark child process: set up, then measure or trace.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; never run by hand.
It calls one operation at a time and starts no threads of its own (BLAS
may start its own pool).  Everything it learns goes into one JSON file
named by ``--result``:

* ``setup``: set up the workload and stop; only the ready time counts.
* ``measure``: warm up, then run whole passes until ``--seconds`` have
  gone (at least ``MIN_PASSES``), timing each operation with tracing off.
* ``trace``: run traced passes and the per-layer probes.  ``--layers all``
  gives every per-layer metric of the default-threaded run; ``--layers
  blas1`` only the solver and Fekete metrics that the single-threaded
  baseline is recorded for.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import layers
import optdesign as od
import workloads as wl
from spans import Tracer, span_cost_us

MIN_PASSES = 3
PROBE_REPS = 3
SMOKE_OPS = {
    "interval-sweep": {"interval_s1", "interval_s2"},
    "grid-sweep": {"disk_s2"},
    "analysis": {"gv_interval17", "eq_arcsine", "oracle_interval_s3", "design_s4", "ks_midpoints"},
}


def blas_threads() -> dict:
    """Effective thread count of the OpenBLAS bundled with numpy and with scipy (read only)."""
    found = {}
    for mod, symbol in ((np, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        value = None
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                value = int(fn())
        found[mod.__name__] = value
    return found


def run_record() -> dict:
    return {
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "optdesign": str(Path(od.__file__).resolve().parent),
    }


def build(workload: str, seed: int, work: Path, smoke: bool):
    ops, analysis = wl.make_ops(workload, seed, work)
    if smoke:
        ops = [op for op in ops if op.name in SMOKE_OPS[workload]]
    return ops, analysis


def run_pass(ops, tracer: Tracer | None = None, group: int = 0, results: dict | None = None) -> dict:
    """Run every operation once; time each call and check its output after the clock stops."""
    walls, cpus = {}, {}
    failures = []
    for op in ops:
        ctx = tracer.span(op.layer, group, op=op.name) if tracer else nullcontext()
        err = out = None
        with ctx as rec:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, and the pass goes on
                err = f"{op.name}: {type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            if rec is not None and hasattr(out, "iterations"):
                rec["iters"] = out.iterations
        walls[op.name] = t1 - t0
        cpus[op.name] = c1 - c0
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"{op.name}: check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(err)
        elif results is not None:
            results[op.name] = out
    return {
        "wall": sum(walls.values()),
        "cpu": sum(cpus.values()),
        "op_wall": walls,
        "op_cpu": cpus,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
    }


def measure(args, ops) -> dict:
    wl.warm_up(ops)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(ops))
    return {
        "passes": [{k: p[k] for k in ("wall", "cpu", "op_wall", "op_cpu")} for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": {op.name: op.info for op in ops if op.info},
    }


def _solver_metrics(tracer: Tracer, cases, suffix: str) -> tuple[dict, dict]:
    """Median solve time and time per iteration of each traced case, and its iteration count."""
    metrics, iterations = {}, {}
    for name in cases:
        spans = [s for s in tracer.named(f"optimal.solve_s.{name}") if "iters" in s]
        if not spans:
            continue
        secs = statistics.median(s["end"] - s["start"] for s in spans)
        iterations[name] = spans[-1]["iters"]
        metrics[f"optimal.solve_s.{name}{suffix}"] = secs
        metrics[f"optimal.iter_us.{name}{suffix}"] = secs / max(iterations[name], 1) * 1e6
    return metrics, iterations


def trace(args) -> dict:
    """Traced passes of every workload, then the per-layer probes."""
    full = args.layers == "all"
    suffix = "" if full else layers.BLAS1
    tracer = Tracer(f"{args.workload}-{args.seed}-{args.layers}")
    names = wl.WORKLOADS if full else ("interval-sweep", "grid-sweep")
    built = {w: build(w, args.seed, Path(args.work), args.smoke) for w in names}
    for ops, _ in built.values():
        wl.warm_up(ops)

    passes, results, overhead = [], {}, None
    if full:
        # alternate untraced and traced passes of the named workload; their
        # difference is the tracing overhead
        ops = built[args.workload][0]
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            p = run_pass(ops)
            q = run_pass(ops, tracer, len(traced), results)
            plain.append(p["wall"])
            traced.append(q["wall"])
            passes += [p, q]
        overhead = statistics.median(traced) - statistics.median(plain)
    for w in names:
        if not full or w != args.workload:
            passes.append(run_pass(built[w][0], tracer, 0, results))

    cases = {c.name: c for w in ("interval-sweep", "grid-sweep") for c in wl.sweep_cases(w)}
    probes = layers.fekete_probes()
    if full:
        probes += layers.gram_probes(cases, results)
        probes += layers.analysis_probes(built["analysis"][1])
    probe_failures = []
    for metric, fn in probes:
        for rep in range(1 if args.smoke else PROBE_REPS):
            try:
                with tracer.span(metric, rep):
                    fn()
            except Exception as exc:  # counted as a failed operation
                probe_failures.append(f"{metric}: {type(exc).__name__}: {exc}")
                break

    metrics, iterations = _solver_metrics(tracer, cases, suffix)
    span_metrics = [m for m, _ in probes]
    if full:
        metrics.update({f"optimal.iters.{c}": k for c, k in iterations.items()})
        span_metrics += [f"cli.{c}_s" for c in layers.CLI_COMMANDS]
        span_metrics += ["asymptotics.distance_s", "asymptotics.probe_s"]
        # every pass rewrites the same artifact paths, so the tree holds one pass
        metrics["cli.bytes_written"] = wl.tree_bytes(built["analysis"][1].work / "out")
        metrics["trace.overhead_s"] = overhead
        metrics["trace.span_us"] = span_cost_us()
    for metric in span_metrics:
        value = tracer.metric(metric)
        if value is not None:
            metrics[metric + suffix] = value
    tracer.dump(Path(args.spans))
    return {
        "metrics": metrics,
        "iterations": iterations,
        "cases": {op.name: op.info for ops, _ in built.values() for op in ops if op.info},
        "attempted": sum(p["attempted"] for p in passes) + len(probes),
        "failed": sum(p["failed"] for p in passes) + len(probe_failures),
        "failures": sorted({f for p in passes for f in p["failures"]}) + probe_failures,
        "passes": len(passes),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--layers", choices=["all", "blas1"], default="all")
    ap.add_argument("--spans", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    out: dict = {}
    if args.mode == "trace":
        out.update(trace(args))
    else:
        ops, _ = build(args.workload, args.seed, Path(args.work), args.smoke)
        out["ready_wall"] = time.time()
        if args.mode == "measure":
            out.update(measure(args, ops))
    out["record"] = run_record()
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
