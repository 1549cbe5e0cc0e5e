"""Benchmark entry point: one closed-loop caller that runs a workload in child processes.

Run from the repository root:

    python3 perfbench/run.py --workload interval-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts ``SETUP_SAMPLES - 1`` children that only set
up (for the set-up time median) and then one child that measures whole
passes with tracing off; it prints the end-to-end metrics.  With
``--trace 1`` it starts one traced child with the machine's default BLAS
threading and one with ``OPENBLAS_NUM_THREADS=1`` set in that child's
environment only, and prints the per-layer metrics.

The line before the last is the run record (``{"record": ...}``); the
last line is the result object.  Exit code 2 means the benchmark could not
run at all (no ``src/optdesign`` next to it, or a child died); a failed
operation is counted in ``failed`` and does not change the exit code.
This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("interval-sweep", "grid-sweep", "analysis")
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0  # the whole run, children included, ends within this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPTDESIGN_THREADS")


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_env(blas1: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args, mode: str, work: Path, deadline: float, *, layers: str = "all", blas1: bool = False) -> dict:
    """Start one child, wait for it, and return its result with the parent-side spawn time."""
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work", str(work), "--result", str(result),
        "--layers", layers, "--spans", str(STATE / f"spans-{args.workload}-{layers}.jsonl"),
    ]
    if args.smoke:
        cmd.append("--smoke")
    spawn = time.time()
    proc = subprocess.Popen(cmd, env=child_env(blas1), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child exceeded the run budget") from None
    if code != 0 or not result.is_file():
        raise BenchError(f"{mode} child exited with code {code}")
    out = json.loads(result.read_text())
    out["spawn_wall"] = spawn
    return out


def measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup = []
    for k in range(samples - 1):
        r = run_child(args, "setup", work / f"setup{k}", deadline)
        setup.append(r["ready_wall"] - r["spawn_wall"])
    r = run_child(args, "measure", work / "measure", deadline)
    setup.append(r["ready_wall"] - r["spawn_wall"])
    walls = [p["wall"] for p in r["passes"]]
    cpus = [p["cpu"] for p in r["passes"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_frac": 1.0 - r["failed"] / r["attempted"],
    }
    record = {
        **r["record"],
        "setup_samples_s": setup,
        "pass_samples": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "op_wall_s": {op: [p["op_wall"][op] for p in r["passes"]] for op in r["passes"][0]["op_wall"]},
        "cases": r["cases"],
        "failures": r["failures"],
    }
    return {"attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}, record


def trace(args, work: Path, deadline: float) -> tuple[dict, dict]:
    default = run_child(args, "trace", work / "default", deadline)
    single = run_child(args, "trace", work / "blas1", deadline, layers="blas1", blas1=True)
    metrics = {**default["metrics"], **single["metrics"]}
    record = {
        **default["record"],
        "blas_threads_blas1": single["record"]["blas_threads"],
        "iterations_equal_blas1": default["iterations"] == single["iterations"],
        "iterations_blas1": single["iterations"],
        "traced_passes": default["passes"] + single["passes"],
        "cases": default["cases"],
        "failures": default["failures"] + single["failures"],
    }
    attempted = default["attempted"] + single["attempted"]
    failed = default["failed"] + single["failed"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def units(trace_mode: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_mode else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="a few cheap operations per workload (self-test)")
    args = ap.parse_args()
    if not (SRC / "optdesign" / "__init__.py").is_file():
        print(f"perfbench: no optdesign sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        result, record = (trace if args.trace else measure)(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit_of = units(bool(args.trace))
    missing = sorted(set(unit_of) - set(result["metrics"]))
    # a failed operation leaves its layers unmeasured; that run reports correct: false
    if missing and not args.smoke and not result["failed"]:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        thread_env={k: os.environ.get(k) for k in THREAD_VARS}, commit=git_commit(),
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
