"""Per-layer probes: direct calls into each module of ``optdesign``.

Each probe is a zero-argument call whose inputs are prepared beforehand,
outside the timed region; the traced run times it under a span named
after the metric it feeds.  ``per_layer_names`` lists every per-layer
metric a full traced run reports, in the order ``BENCHMARK.json`` lists
them.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

import optdesign as od
from workloads import INTERVAL_DEGREES, Analysis

SWEEP_CASES = tuple(f"interval_s{s}" for s in INTERVAL_DEGREES) + ("disk_s2", "disk_s4", "disk_s8", "cube2_s4")
GV_CASES = ("gv_interval17", "gv_disk_gauss", "gv_disk_table", "gv_cube2")
FEKETE_CASES = ("interval_s16", "disk_s12", "cube2_s8")
EVAL_CASES = ("interval_s16", "disk_s8", "cube2_s8")  # the largest basis of each workload
ADMISSIBLE_CASES = ("interval_s16", "disk_s8", "gv_disk_table")
CLI_COMMANDS = ("design", "gvalue", "fekete", "tfd", "equilibrium", "converge", "simulate", "oracle")
BLAS1 = ".blas1"


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric of a full traced run."""
    out = []
    for c in SWEEP_CASES:
        out += [(f"optimal.iters.{c}", "count"), (f"optimal.iter_us.{c}", "us"), (f"optimal.solve_s.{c}", "s")]
    out += [(f"gram.moment_s.{c}", "s") for c in SWEEP_CASES + ("gv_disk_gauss",)]
    out += [(f"gram.christoffel_s.{c}", "s") for c in SWEEP_CASES + ("gv_disk_gauss",)]
    out += [(f"gram.factor_s.{c}", "s") for c in GV_CASES]
    out += [(f"basis.eval_s.{c}", "s") for c in EVAL_CASES]
    out += [(f"measure.admissible_s.{c}", "s") for c in ADMISSIBLE_CASES]
    out += [("measure.weight_s.table", "s"), ("measure.make_design_s", "s")]
    out += [(f"fekete.approx_s.{c}", "s") for c in FEKETE_CASES]
    out += [("simulate.regression_s", "s"), ("simulate.variance_check_s", "s")]
    out += [("asymptotics.distance_s", "s"), ("asymptotics.probe_s", "s"), ("equilibrium.moment_s", "s")]
    out += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS] + [("cli.bytes_written", "B")]
    out += [(f"optimal.solve_s.{c}{BLAS1}", "s") for c in SWEEP_CASES]
    out += [(f"optimal.iter_us.{c}{BLAS1}", "us") for c in SWEEP_CASES]
    out += [(f"fekete.approx_s.{c}{BLAS1}", "s") for c in FEKETE_CASES]
    out += [("trace.overhead_s", "s"), ("trace.span_us", "us")]
    return out


Probe = tuple[str, Callable[[], object]]


def fekete_probes() -> list[Probe]:
    problems = {
        "interval_s16": (od.interval(grid=401), od.unit_weight(), 16),
        "disk_s12": (od.disk(), od.gaussian_weight(), 12),
        "cube2_s8": (od.cube(2, per_axis=33), od.unit_weight(), 8),
    }
    return [(f"fekete.approx_s.{c}", partial(od.approx_fekete, *problems[c])) for c in FEKETE_CASES]


def _grid_design(space: od.DesignSpace, cache: dict) -> od.DiscreteDesign:
    # the solver's first iterate: uniform mass on every grid point
    if id(space) not in cache:
        cache[id(space)] = od.uniform_design(space.grid)
    return cache[id(space)]


def gram_probes(cases: dict, results: dict) -> list[Probe]:
    """The solver's per-iteration kernels, called from outside on each solved case.

    ``moment_matrix`` assembles over the whole grid (as every iteration
    does, basis evaluation included); ``christoffel_many`` evaluates the
    returned design's K over the whole grid.
    """
    probes, designs = [], {}
    for name, case in cases.items():
        if name not in results:
            continue
        basis = od.basis_for_space(case.space, case.s)
        grid_design = _grid_design(case.space, designs)
        mm = od.moment_matrix(results[name].design, case.weight, case.s, basis)
        ev = od.orthonormal_factor(mm, case.weight)
        probes.append((f"gram.moment_s.{name}", partial(od.moment_matrix, grid_design, case.weight, case.s, basis)))
        probes.append((f"gram.christoffel_s.{name}", partial(od.christoffel_many, ev, case.space.grid)))
    return probes


def analysis_probes(an: Analysis) -> list[Probe]:
    """Layers the post-solve toolchain leans on, fed the analysis inputs."""
    gauss, unit = od.gaussian_weight(), od.unit_weight()
    table = od.table_weight(an.disk.grid, an.table_values)
    gv = {
        "gv_interval17": ("interval17.json", an.interval, unit),
        "gv_disk_gauss": ("disk_uniform.json", an.disk, gauss),
        "gv_disk_table": ("disk_uniform.json", an.disk, table),
        "gv_cube2": ("cube200.json", an.cube, unit),
    }
    probes: list[Probe] = []
    for name in GV_CASES:
        fname, space, weight = gv[name]
        design, s = od.design_from_json((an.inputs / fname).read_text())
        basis = od.basis_for_space(space, s)
        mm = od.moment_matrix(design, weight, s, basis)
        if name == "gv_disk_gauss":
            ev = od.orthonormal_factor(mm, weight)
            probes.append((f"gram.moment_s.{name}", partial(od.moment_matrix, design, weight, s, basis)))
            probes.append((f"gram.christoffel_s.{name}", partial(od.christoffel_many, ev, space.grid)))
        probes.append((f"gram.factor_s.{name}", partial(od.orthonormal_factor, mm, weight)))

    bases = {
        "interval_s16": (an.interval, 16),
        "disk_s8": (an.disk, 8),
        "cube2_s8": (an.cube, 8),
    }
    for name in EVAL_CASES:
        space, s = bases[name]
        probes.append((f"basis.eval_s.{name}", partial(od.eval_basis_many, od.basis_for_space(space, s), space.grid)))
    admissible = {
        "interval_s16": (unit, an.interval, 16),
        "disk_s8": (gauss, an.disk, 8),
        "gv_disk_table": (table, an.disk, 8),
    }
    probes += [(f"measure.admissible_s.{c}", partial(od.check_admissible, *admissible[c])) for c in ADMISSIBLE_CASES]
    m = an.disk.grid_size
    probes.append(("measure.weight_s.table", partial(table.values, an.disk.grid)))
    probes.append(("measure.make_design_s", partial(od.make_design, an.disk.grid, np.full(m, 1.0 / m))))

    lobatto, s = od.design_from_json((an.inputs / "lobatto5.json").read_text())
    exp = od.RegressionExperiment(lobatto, s, np.ones(5), 0.1, 100, 10_000, an.sim_seed)
    probes.append(("simulate.regression_s", partial(od.simulate_regression, exp)))
    probes.append(("simulate.variance_check_s", partial(od.variance_identity_check, exp, lobatto.points)))
    probes.append(("equilibrium.moment_s", _moment_tables))
    return probes


def _moment_tables() -> list[float]:
    """The moment tables the equilibrium subcommand writes at tmax 8."""
    vals = [od.eq_moment(t, (k,)) for t in (od.arcsine(), od.simplex_measure(1)) for k in range(9)]
    wball = od.weighted_ball_measure(1)
    return vals + [od.eq_moment_mixed(wball, k, k) for k in range(9)]
