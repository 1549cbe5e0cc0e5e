"""The library and the CLI run on numpy alone; scipy serves only as a test oracle."""

import os
import subprocess
import sys
from pathlib import Path

import optdesign

_SCRIPT = r'''
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")


sys.meta_path.insert(0, RefuseScipy())

from pathlib import Path

import numpy as np

import optdesign as od
from optdesign import cli

out = Path(sys.argv[1])
for space, weight, s in [
    (od.interval(), od.unit_weight(), 16),
    (od.disk(), od.gaussian_weight(), 8),
    (od.cube(2), od.unit_weight(), 4),
]:
    res = od.d_optimal(space, weight, s)
    assert res.converged and res.mass_identity_residual <= 1e-8 * res.n

grid = od.interval(grid=101).grid
values = 1.0 + grid[:, 0].real ** 2
table = od.table_weight(grid, values)
assert np.array_equal(table.values(grid[::-1]), values[::-1])
(out / "table.json").write_text(od.weight_to_json(table))

merged = od.prune_and_merge(od.make_design([0.0, 0.01, 1.0], [0.25, 0.25, 0.5]), merge_radius=0.05)
assert merged.design.size == 2

runs = {
    "design": ["design", "--degree", "3", "--grid", "101", "--epsilon", "1e-4"],
    "gvalue": ["gvalue", "--design", str(out / "design" / "design.json"), "--grid", "101", "--weight", str(out / "table.json")],
    "fekete": ["fekete", "--degree", "2", "--grid", "101"],
    "equilibrium": ["equilibrium", "--target", "arcsine", "--tmax", "4"],
    "simulate": ["simulate", "--design", str(out / "design" / "design.json"), "--trials", "200", "--obs", "60"],
    "oracle": ["oracle", "--atoms", "4", "--degree", "2", "--grid", "51"],
    "tfd": ["tfd", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201"],
    "converge": ["converge", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201", "--tmax", "4"],
}
for name, argv in runs.items():
    assert cli.main([*argv, "--out", str(out / name)]) == 0, name

print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
'''


def test_solves_lookups_merges_and_every_cli_command_run_with_scipy_refused(tmp_path):
    src = str(Path(optdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
