"""Self-test of the benchmark itself; finishes in well under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names every metric the benchmark
reports, with valid names and units; runs a smoke size of each workload,
traced and untraced; feeds a deliberately corrupted solve to the output
checks and confirms they count it as failed; and confirms that the
benchmark refuses to run next to no ``src/optdesign``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import optdesign as od  # noqa: E402
import workloads as wl  # noqa: E402
from child import run_pass  # noqa: E402
from layers import per_layer_names  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    expect(all(NAME_RE.match(n) for n in names), "every name in BENCHMARK.json uses [A-Za-z0-9_.-]")
    expect(len(names) == len(set(names)), "every name in BENCHMARK.json is used once")
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    expect(all(UNIT_RE.match(u) for u in units), "every metric in BENCHMARK.json carries a unit")
    expect(tuple(w["name"] for w in spec["workloads"]) == WORKLOADS, "workloads match run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(),
           "per-layer metrics match layers.per_layer_names()")
    return spec


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_smoke(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, trace in [(w, 0) for w in WORKLOADS] + [("grid-sweep", 1)]:
        proc = run_bench(ROOT, workload, trace)
        tag = f"{workload} --trace {trace}"
        expect(proc.returncode == 0, f"{tag}: exit code 0")
        if proc.returncode != 0:
            print(proc.stderr[-2000:])
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == RESULT_KEYS, f"{tag}: last line has exactly {sorted(RESULT_KEYS)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{tag}: correct, none failed")
        metrics = result["metrics"]
        declared = per_layer if trace else end_to_end
        expect(all(NAME_RE.match(k) and v["unit"] == declared.get(k) for k, v in metrics.items()),
               f"{tag}: every metric is declared, well named and carries its unit")
        if not trace:
            expect(set(metrics) == set(end_to_end), f"{tag}: every end-to-end metric reported")
            expect(all(v["value"] > 0 for v in metrics.values()), f"{tag}: no end-to-end metric is 0")


def check_corruption() -> None:
    case = wl.sweep_cases("interval-sweep")[0]
    res = od.d_optimal(case.space, case.weight, case.s, epsilon=case.eps)
    expect(wl.check_solve(case, res) is None, f"{case.name}: genuine solve passes its checks")
    w = res.design.weights.copy()
    w[int(np.argmax(w))] *= 1.2
    bad = dataclasses.replace(res, design=od.make_design(res.design.points, w / w.sum()))
    reason = wl.check_solve(case, bad)
    expect(reason is not None, f"{case.name}: perturbed design weight is caught ({reason})")
    op = wl.Op("corrupted", "optimal.solve_s.corrupted", lambda: bad, lambda r: wl.check_solve(case, r))
    stats = run_pass([op, wl.solve_op(case)])
    expect(stats["failed"] == 1 and stats["attempted"] == 2, "the corrupted operation counts as failed")
    expect(stats["failed"] / stats["attempted"] > 0, "fail_frac > 0, so ok_frac < 1")


def check_bare_directory() -> None:
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=state))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "analysis", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/optdesign: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = check_spec()
    check_corruption()
    check_smoke(spec)
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
