"""The three benchmark workloads: their inputs, operations and output checks.

An operation is one call a user waits for (one certified solve, or one
CLI subcommand, or one diagnostic call).  Each operation returns a value
that its check inspects; the check returns ``None`` when the output is
right and a one-line reason when it is not.  Checks run outside the timed
region.

The seed only shuffles the case order in the two sweeps.  In ``analysis``
it generates the random cube design, the tabulated weight and the Monte
Carlo seed, so every seed gives a different but fully determined input.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import optdesign as od
from optdesign import cli

WORKLOADS = ("interval-sweep", "grid-sweep", "analysis")

# The acceptance set solves the interval at epsilon 1e-5, which costs about
# 78 s per pass under default BLAS threading; 1e-3 keeps a pass near 4 s so
# a run holds several passes.  The grid sweep keeps 1e-5.
INTERVAL_EPS = 1e-3
INTERVAL_DEGREES = (1, 2, 4, 8, 16)
GRID_EPS = 1e-5
CLI_EPS = 1e-3

# Monomial-normalized log det M of the certified design, recorded at the
# commit that introduced the benchmark.  Any two designs that pass the KW
# certificate gap <= eps * n lie within eps * n of the grid optimum
# (Atwood's bound), so a replacement solver must land within eps * n too.
REF_LOG_DET = {
    "interval_s1": -0.0019962105409855424,
    "interval_s2": -1.9123199416053611,
    "interval_s4": -10.059592401076822,
    "interval_s8": -43.16143527235904,
    "interval_s16": -176.0801800594891,
    "disk_s2": -7.158912902266216,
    "disk_s4": -23.75422739275795,
    "disk_s8": -84.24897112609841,
    "cube2_s4": -37.02560833371686,
    "cli_design_s4": -10.0593418663017,
}

# delta_s of the approximate Fekete points at the recording commit; a
# change may find a larger Vandermonde volume, never a smaller one.
REF_DELTA_S = {
    "fekete_interval_s16": 0.6248423060046281,
    "fekete_disk_s12": 0.38565064000461485,
    "fekete_cube2_s8": 0.800556736936226,
    "tfd_s1": 2.0,
    "tfd_s2": 1.2599210498948732,
    "tfd_s4": 0.9044561789986036,
}

REL_ROUND = 1e-12  # rounding slack on recorded floating-point references


@dataclass
class Op:
    """One operation of a pass.

    ``layer`` is the per-layer metric its span feeds; ``warm`` is a cheap
    call that starts the same code paths (the operation itself if None).
    """

    name: str
    layer: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    info: dict = field(default_factory=dict)
    warm: Callable[[], Any] | None = None


@dataclass
class SolveCase:
    name: str
    space: od.DesignSpace
    weight: od.WeightFunction
    s: int
    eps: float

    def info(self) -> dict:
        grid = self.space.grid
        real = bool(np.all(grid.imag == 0))
        return {
            "m": int(grid.shape[0]),
            "n": od.space_dimension(self.space.dimension, self.s),
            "eps": self.eps,
            "dtype": f"{grid.dtype} ({'real' if real else 'complex'} grid)",
        }


def check_solve(case: SolveCase, res: od.OptimalResult) -> str | None:
    """The certificate, the mass identity and log det, re-derived from the design."""
    n, eps = res.n, case.eps
    if not res.converged:
        return f"{case.name}: not converged after {res.iterations} iterations"
    if not -1e-8 * n <= res.kw_gap <= eps * n:
        return f"{case.name}: kw_gap {res.kw_gap!r} outside [-1e-8 n, eps n]"
    if res.mass_identity_residual > 1e-8 * n:
        return f"{case.name}: mass identity residual {res.mass_identity_residual!r}"
    ref = REF_LOG_DET[case.name]
    if abs(res.log_det - ref) > eps * n:
        return f"{case.name}: log_det {res.log_det!r} not within eps n of {ref!r}"
    # independent of the solver's bookkeeping: rebuild M from the returned
    # atoms and weights and evaluate K over the whole grid
    basis = od.basis_for_space(case.space, case.s)
    mm = od.moment_matrix(res.design, case.weight, case.s, basis)
    if abs(mm.log_det_monomial - ref) > eps * n:
        return f"{case.name}: returned design has log det {mm.log_det_monomial!r}, recorded {ref!r}"
    ev = od.orthonormal_factor(mm, case.weight)
    gap = float(np.max(od.christoffel_many(ev, case.space.grid))) - n
    # pruning atoms lighter than eps / (10 m) may raise the gap a little
    if not -1e-8 * n <= gap <= 2.0 * eps * n:
        return f"{case.name}: returned design has KW gap {gap!r} on the grid"
    return None


def solve_op(case: SolveCase) -> Op:
    return Op(
        name=case.name,
        layer=f"optimal.solve_s.{case.name}",
        run=lambda: od.d_optimal(case.space, case.weight, case.s, epsilon=case.eps),
        check=lambda res: check_solve(case, res),
        info=case.info(),
        warm=lambda: od.d_optimal(case.space, case.weight, case.s, epsilon=case.eps, max_iter=20),
    )


def sweep_cases(workload: str) -> list[SolveCase]:
    if workload == "interval-sweep":
        space, weight = od.interval(grid=401, spacing="chebyshev"), od.unit_weight()
        return [SolveCase(f"interval_s{s}", space, weight, s, INTERVAL_EPS) for s in INTERVAL_DEGREES]
    if workload == "grid-sweep":
        dk, gauss = od.disk(), od.gaussian_weight()
        cases = [SolveCase(f"disk_s{s}", dk, gauss, s, GRID_EPS) for s in (2, 4, 8)]
        cases.append(SolveCase("cube2_s4", od.cube(2, per_axis=33), od.unit_weight(), 4, GRID_EPS))
        return cases
    raise ValueError(f"{workload!r} is not a sweep")


# ---------------------------------------------------------------------------
# analysis: the post-solve toolchain, driven through the CLI on files


def _write_design(path: Path, points, weights, degree: int) -> None:
    design = od.make_design(points, weights)
    path.write_text(od.design_to_json(design, degree=degree) + "\n")


def _read_results(out: Path, name: str) -> dict:
    return json.loads((out / f"{name}.json").read_text())["results"]


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _closed_form_moment(target: str, k: int) -> float:
    """E x^k (E |z|^{2k} for wball) of the equilibrium measures the CLI tabulates."""
    if target == "arcsine":  # on [-1, 1]
        return 0.0 if k % 2 else math.comb(k, k // 2) / 2.0**k
    if target == "simplex":  # one-dimensional simplex [0, 1]: arcsine there
        return math.comb(2 * k, k) / 4.0**k
    if target == "wball":  # uniform on |z| <= 1/sqrt(2)
        return 0.5**k / (k + 1)
    raise ValueError(target)


class Analysis:
    """Inputs written at setup, and the ordered list of operations of a pass."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        rng = np.random.default_rng(seed)
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

        self.interval = od.interval(grid=401)
        self.disk = od.disk()
        self.cube = od.cube(2, per_axis=33)

        # 17 Chebyshev-Lobatto atoms (every 25th grid point): the arcsine design
        pts = self.interval.grid[::25]
        _write_design(self.inputs / "interval17.json", pts, np.full(17, 1 / 17), 16)
        m = self.disk.grid_size
        _write_design(self.inputs / "disk_uniform.json", self.disk.grid, np.full(m, 1 / m), 8)
        idx = np.sort(rng.choice(self.cube.grid_size, size=200, replace=False))
        w = rng.uniform(0.5, 1.5, size=200)
        _write_design(self.inputs / "cube200.json", self.cube.grid[idx], w / w.sum(), 4)
        x = math.sqrt(3 / 7)
        _write_design(self.inputs / "lobatto5.json", [-1.0, -x, 0.0, x, 1.0], np.full(5, 0.2), 4)
        self.table_values = rng.uniform(0.5, 1.5, size=m)
        table = od.table_weight(self.disk.grid, self.table_values)
        (self.inputs / "disk_table.json").write_text(od.weight_to_json(table) + "\n")
        self.sim_seed = int(rng.integers(0, 2**31 - 1))

        # closed-form designs for the direct diagnostic calls
        q = (np.arange(17) + 0.5) / 17
        self.midpoints = od.uniform_design(np.sin(math.pi * (q - 0.5)))
        self.gauss_cheb = od.uniform_design(np.cos(math.pi * (2 * np.arange(17) + 1) / 34))
        self.lobatto3 = od.make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
        self.arcsine = od.arcsine()

    # -- CLI helpers ------------------------------------------------------

    def _cli(self, name: str, argv: list[str]) -> Path:
        out = self.work / "out" / name
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"optdesign {argv[0]} exited with {code}")
        return out

    def _cli_op(self, name: str, argv: list[str], check: Callable[[Path], str | None]) -> Op:
        return Op(name=name, layer=f"cli.{argv[0]}_s", run=lambda: self._cli(name, argv), check=check)

    # -- checks -------------------------------------------------------------

    @staticmethod
    def _check_gvalue(n: int):
        def check(out: Path) -> str | None:
            g = _read_results(out, "gvalue")["g_value"]
            # KW: sum_k mu_k K(x_k) = n with atoms on the grid forces max K >= n
            return None if g >= n * (1 - 1e-9) else f"gvalue {g!r} < n = {n}"

        return check

    @staticmethod
    def _check_fekete(ref_key: str):
        def check(out: Path) -> str | None:
            delta = _read_results(out, "fekete")["delta_s"]
            ref = REF_DELTA_S[ref_key]
            return None if delta >= ref * (1 - REL_ROUND) else f"delta_s {delta!r} < recorded {ref!r}"

        return check

    @staticmethod
    def _check_equilibrium(target: str):
        def check(out: Path) -> str | None:
            rows = _csv_rows(out / "moments.csv")
            if len(rows) < 9:
                return f"{target}: {len(rows)} moment rows, expected 9"
            for row in rows:
                k = int(row["alpha"].split("|")[0])
                got, want = float(row["moment"]), _closed_form_moment(target, k)
                if abs(got - want) > 1e-9:
                    return f"{target}: moment {k} is {got!r}, closed form {want!r}"
            return None

        return check

    @staticmethod
    def _check_simulate(out: Path) -> str | None:
        rows = _csv_rows(out / "ratios.csv")
        ratios = [float(r["ratio"]) for r in rows]
        if len(ratios) != 5 or not all(0.9 <= r <= 1.1 for r in ratios):
            return f"variance ratios {ratios} outside [0.9, 1.1]"
        return None

    @staticmethod
    def _check_oracle(out: Path) -> str | None:
        err = _read_results(out, "oracle")["max_rel_err"]
        return None if err <= 1e-8 else f"oracle max_rel_err {err!r} > 1e-8"

    @staticmethod
    def _check_design(out: Path) -> str | None:
        r = _read_results(out, "certificate")
        n, ref = r["n"], REF_LOG_DET["cli_design_s4"]
        if not r["converged"] or not -1e-8 * n <= r["kw_gap"] <= CLI_EPS * n:
            return f"design certificate failed: gap {r['kw_gap']!r}, converged {r['converged']}"
        if r["mass_identity_residual"] > 1e-8 * n:
            return f"design mass identity residual {r['mass_identity_residual']!r}"
        if abs(r["log_det"] - ref) > CLI_EPS * n:
            return f"design log_det {r['log_det']!r} not within eps n of {ref!r}"
        return None

    @staticmethod
    def _check_tfd(out: Path) -> str | None:
        rows = _csv_rows(out / "tfd.csv")
        if [int(r["s"]) for r in rows] != [1, 2, 4]:
            return "tfd rows are not s = 1, 2, 4"
        for r in rows:
            delta, ref = float(r["delta_s"]), REF_DELTA_S[f"tfd_s{r['s']}"]
            if delta < ref * (1 - REL_ROUND):
                return f"tfd delta_{r['s']} {delta!r} < recorded {ref!r}"
            if not math.isfinite(float(r["gap"])):
                return "tfd gap is not finite"
        return None

    @staticmethod
    def _check_converge(out: Path) -> str | None:
        rows = _read_results(out, "converge")["rows"]
        if [r["s"] for r in rows] != [2, 4, 8]:
            return "converge rows are not s = 2, 4, 8"
        for r in rows:
            if not -1e-8 * r["n"] <= r["kw_gap"] <= CLI_EPS * r["n"]:
                return f"converge s={r['s']}: kw_gap {r['kw_gap']!r}"
            if not (0.0 <= r["ks_distance"] <= 1.0 and math.isfinite(r["moment_distance"])):
                return f"converge s={r['s']}: distances out of range"
        return None

    # -- the pass -----------------------------------------------------------

    def ops(self) -> list[Op]:
        i = str(self.inputs)
        disk = ["--domain", "disk", "--grid", "24", "--grid-angular", "80"]  # od.disk()'s grid
        cube = ["--domain", "cube", "--dimension", "2", "--grid", "33"]
        ops = [
            self._cli_op("gv_interval17", ["gvalue", "--design", f"{i}/interval17.json", "--grid", "401"],
                         self._check_gvalue(17)),
            self._cli_op("gv_disk_gauss", ["gvalue", *disk, "--weight", "gaussian", "--design",
                                           f"{i}/disk_uniform.json"], self._check_gvalue(9)),
            self._cli_op("gv_disk_table", ["gvalue", *disk, "--weight", f"{i}/disk_table.json", "--design",
                                           f"{i}/disk_uniform.json"], self._check_gvalue(9)),
            self._cli_op("gv_cube2", ["gvalue", *cube, "--design", f"{i}/cube200.json"], self._check_gvalue(15)),
            self._cli_op("fekete_interval_s16", ["fekete", "--degree", "16", "--grid", "401"],
                         self._check_fekete("fekete_interval_s16")),
            self._cli_op("fekete_disk_s12", ["fekete", *disk, "--weight", "gaussian", "--degree", "12"],
                         self._check_fekete("fekete_disk_s12")),
            self._cli_op("fekete_cube2_s8", ["fekete", *cube, "--degree", "8"], self._check_fekete("fekete_cube2_s8")),
        ]
        for target in ("arcsine", "simplex", "wball"):
            ops.append(self._cli_op(f"eq_{target}", ["equilibrium", "--target", target, "--tmax", "8"],
                                    self._check_equilibrium(target)))
        ops += [
            self._cli_op("simulate_lobatto5", ["simulate", "--design", f"{i}/lobatto5.json", "--trials", "10000",
                                               "--seed", str(self.sim_seed)], self._check_simulate),
            self._cli_op("oracle_interval_s3", ["oracle", "--degree", "3", "--atoms", "9"], self._check_oracle),
            self._cli_op("oracle_disk_s4", ["oracle", *disk, "--degree", "4", "--atoms", "8"], self._check_oracle),
            self._cli_op("design_s4", ["design", "--degree", "4", "--epsilon", str(CLI_EPS), "--grid", "201"],
                         self._check_design),
            self._cli_op("tfd_s124", ["tfd", "--degrees", "1,2,4", "--epsilon", str(CLI_EPS), "--grid", "201"],
                         self._check_tfd),
            self._cli_op("converge_s248", ["converge", "--degrees", "2,4,8", "--epsilon", str(CLI_EPS),
                                           "--grid", "201", "--target", "arcsine"], self._check_converge),
            Op("ks_midpoints", "asymptotics.distance_s",
               lambda: od.kolmogorov_distance(self.midpoints, self.arcsine),
               # equal masses at the arcsine quantile midpoints sit exactly 1/(2 (s+1)) away
               lambda v: None if abs(v - 0.5 / 17) <= 1e-12 else f"KS distance {v!r} != 1/34"),
            Op("moments_gauss_chebyshev", "asymptotics.distance_s",
               lambda: od.moment_distance(self.gauss_cheb, self.arcsine, t_max=8),
               # 17-point Gauss-Chebyshev quadrature is exact for the arcsine law up to degree 33
               lambda v: None if v <= 1e-9 else f"moment distance {v!r} of an exact quadrature"),
            Op("concavity_lobatto3", "asymptotics.probe_s",
               lambda: od.concavity_probe(self.interval, od.unit_weight(), 2, lambda z: np.real(z) ** 2,
                                          self.lobatto3, np.linspace(-1, 1, 9)),
               lambda v: None if v <= 1e-10 else f"second difference {v!r} > 0: f(t) not concave"),
        ]
        return ops


def make_ops(workload: str, seed: int, work: Path) -> tuple[list[Op], Any]:
    """Build a workload's operations; returns (ops, the analysis object or None)."""
    if workload == "analysis":
        analysis = Analysis(work / "analysis", seed)
        return analysis.ops(), analysis
    ops = [solve_op(c) for c in sweep_cases(workload)]
    random.Random(seed).shuffle(ops)
    return ops, None


def warm_up(ops: list[Op]) -> None:
    """Start the BLAS thread pools and fill lazy caches before timing.

    A solve runs a few iterations only; every other operation runs once.
    A failure here is left for the measured passes to count.
    """
    for op in ops:
        try:
            (op.warm or op.run)()
        except Exception:
            pass
