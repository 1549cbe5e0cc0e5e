"""The benchmark's own output checks, run on the suite's side.

``perfbench/workloads.py`` records the log det of every sweep solve and
the delta_s of every Fekete and tfd run it times; a change that moved one
of them past its slack would otherwise first show as a failed benchmark
operation.  The module is imported read-only from its file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from optdesign import approx_fekete, cube, d_optimal, disk, gaussian_weight, interval, tfd_table, unit_weight


@pytest.fixture(scope="module")
def workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_sweep_solve_passes_its_benchmark_check(workloads):
    for name in ("interval-sweep", "grid-sweep"):
        for case in workloads.sweep_cases(name):
            res = d_optimal(case.space, case.weight, case.s, epsilon=case.eps)
            assert workloads.check_solve(case, res) is None


def test_fekete_and_tfd_delta_s_reach_their_recorded_values(workloads):
    ref, slack = workloads.REF_DELTA_S, 1.0 - workloads.REL_ROUND
    for key, space, weight, s in (
        ("fekete_interval_s16", interval(grid=401), unit_weight(), 16),
        ("fekete_disk_s12", disk(), gaussian_weight(), 12),
        ("fekete_cube2_s8", cube(2, per_axis=33), unit_weight(), 8),
    ):
        assert approx_fekete(space, weight, s).delta_s >= ref[key] * slack, key
    rows = tfd_table(interval(grid=201), unit_weight(), [1, 2, 4], epsilon=workloads.CLI_EPS)
    assert [r.s for r in rows] == [1, 2, 4]
    for r in rows:
        assert r.delta_s >= ref[f"tfd_s{r.s}"] * slack, r.s
