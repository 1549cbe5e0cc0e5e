"""Command-line interface.

Every subcommand writes its artifacts into --out, and this module is the
only one that turns results into text: the library returns data (its one
text format is the design and weight file, which it also reads).  JSON
artifacts embed the resolved configuration, package version, and a
timestamp (the only field allowed to vary between identical runs), and
hold complex numbers as [re, im] pairs; CSV artifacts embed the
configuration in leading comment lines.  Numbers are printed with 17
significant digits, '.' decimal separator, ',' field separator (' ' in
.dat plot files), an empty cell for a missing value, and LF line
endings.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import SweepRow, convergence_sweep
from .basis import arnoldi_basis, monomial_basis, multi_indices, space_dimension
from .equilibrium import (
    EquilibriumMeasure,
    arcsine,
    ball_measure,
    cube_measure,
    eq_cdf,
    eq_density,
    eq_moment,
    eq_moment_mixed,
    simplex_measure,
    weighted_ball_green,
    weighted_ball_measure,
)
from .fekete import TfdRow, approx_fekete, tfd_table
from .gram import SingularGramError, _christoffel_rows, _moment_rows, christoffel_many, orthonormal_factor
from .measure import (
    _fekete_rows,
    ball,
    cube,
    design_from_json,
    design_to_json,
    disk,
    gaussian_weight,
    interval,
    make_design,
    simplex,
    table_weight,
    unit_weight,
    weight_from_json,
    weighted_rows,
)
from .optimal import _grid_max, d_optimal, vdm_integral_christoffel, vdm_integral_det
from .simulate import RegressionExperiment, _check_settings, simulate_regression

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Every option once: its argparse settings and its default.  A --config
# value is checked against the same type and choices as the flag.
_OPTIONS = {
    "domain": {"type": str, "choices": ["interval", "cube", "ball", "simplex", "disk"], "default": "interval"},
    "dimension": {"type": int, "default": 1},
    "a": {"type": float, "default": 1.0},
    "grid": {"type": int, "default": 401, "help": "grid density (per-axis / radial count)"},
    "grid_angular": {"type": int, "default": 64},
    "spacing": {"type": str, "choices": ["chebyshev", "uniform"], "default": "chebyshev"},
    "weight": {"type": str, "default": "unit", "help": "unit, gaussian, or a weight JSON file path"},
    "seed": {"type": int, "default": 0},
    "out": {"type": str, "default": ".", "help": "output directory"},
    "design": {"type": str, "default": None, "help": "design JSON file; simulate solves for the optimal design without one"},
    "degree": {"type": int, "default": 2},
    "degrees": {"type": str, "default": "1,2,4,8", "help": "comma-separated degree list"},
    "target": {"type": str, "choices": ["arcsine", "cube", "ball", "simplex", "wball"], "default": "arcsine"},
    "tmax": {"type": int, "default": 6},
    "epsilon": {"type": float, "default": 1e-5},
    "max_iter": {"type": int, "default": None},
    "sigma": {"type": float, "default": 0.1},
    "obs": {"type": int, "default": 100},
    "trials": {"type": int, "default": 10000},
    "atoms": {"type": int, "default": 4},
}

_GRID = "domain dimension a grid grid_angular spacing weight"  # every grid command's options


def _command_defaults(cmd: str) -> dict:
    _, _, options, differing = _COMMANDS[cmd]
    return {key: differing.get(key, _OPTIONS[key]["default"]) for key in (*options.split(), "out")}


@functools.cache  # main() is called many times in one process; argparse keeps no state between parses
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="optdesign", description=__doc__)
    ap.add_argument("--version", action="version", version=f"optdesign {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, default in _command_defaults(cmd).items():
            spec = {k: v for k, v in _OPTIONS[key].items() if k != "default"}
            spec["help"] = " ".join(filter(None, [spec.get("help"), f"(default: {default})"]))
            p.add_argument("--" + key.replace("_", "-"), dest=key, **spec)
    return ap


def _check_config_value(key: str, value, default) -> None:
    spec = _OPTIONS[key]
    if value is None and default is None:
        return
    allowed = (int, float) if spec["type"] is float else spec["type"]
    if not isinstance(value, allowed) or isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be {spec['type'].__name__}, got {json.dumps(value)}")
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(f"config key {key!r} must be one of {spec['choices']}, got {json.dumps(value)}")


def _resolve_config(args: argparse.Namespace) -> dict:
    cmd = args.command
    resolved = _command_defaults(cmd)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value, resolved[key])
        resolved.update(file_cfg)
    resolved.update((key, val) for key, val in vars(args).items() if key in resolved and val is not None)
    resolved["command"] = cmd
    return resolved


def _make_space(cfg: dict):
    dom = cfg["domain"]
    if dom == "interval":
        return interval(a=cfg["a"], grid=cfg["grid"], spacing=cfg["spacing"])
    if dom == "cube":
        return cube(dimension=cfg["dimension"], a=cfg["a"], per_axis=cfg["grid"])
    if dom == "ball":
        return ball(dimension=cfg["dimension"], a=cfg["a"], radial=cfg["grid"], angular=cfg["grid_angular"])
    if dom == "simplex":
        return simplex(dimension=cfg["dimension"], a=cfg["a"], refine=cfg["grid"])
    if dom == "disk":
        return disk(a=cfg["a"], radial=cfg["grid"], angular=cfg["grid_angular"], spacing=cfg["spacing"])
    raise ValueError(f"unknown domain {dom!r}")


def _make_weight(cfg: dict):
    spec = cfg["weight"]
    if spec == "unit":
        return unit_weight()
    if spec == "gaussian":
        return gaussian_weight()
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"weight {spec!r} is neither a known kind nor a file")
    return weight_from_json(path.read_text())


def _make_target(cfg: dict) -> EquilibriumMeasure:
    if cfg["tmax"] < 0:  # every subcommand with a target compares moments up to --tmax
        raise ValueError(f"--tmax must be nonnegative, got {cfg['tmax']}")
    t = cfg["target"]
    if t == "arcsine":
        return arcsine(cfg["a"])
    if t == "cube":
        return cube_measure(cfg["dimension"], cfg["a"])
    if t == "ball":
        return ball_measure(cfg["dimension"], cfg["a"])
    if t == "simplex":
        return simplex_measure(cfg["dimension"], cfg["a"])
    if t == "wball":
        return weighted_ball_measure(cfg["dimension"])
    raise ValueError(f"unknown target {t!r}")


def _degree_list(cfg: dict) -> list[int]:
    raw = cfg["degrees"]
    vals = [int(v) for v in raw.split(",") if v.strip()]
    if not vals or any(v < 0 for v in vals) or len(set(vals)) < len(vals):  # a repeated degree repeats its solve
        raise ValueError(f"bad degree list {raw!r}")
    return vals


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return ("inf" if obj > 0 else "-inf") if math.isinf(obj) else float(obj)
    return obj


def _write_json(out: Path, name: str, cfg: dict, results: dict) -> None:
    payload = {
        "artifact": name,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _plain(cfg),
        "results": _plain(results),
    }
    (out / f"{name}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _csv_header(cfg: dict) -> str:
    canon = json.dumps(_plain(cfg), sort_keys=True, separators=(",", ":"))
    return f"# optdesign {__version__}\n# config {canon}\n"


def _cell(value) -> str:
    """Integers and strings as they are, None empty, any other number to 17 significant digits."""
    if not isinstance(value, float):  # floats, most cells, skip the other tests
        if value is None:
            return ""
        if isinstance(value, (int, str)):
            return str(value)
    return f"{value:.17g}"


def _lines(rows, sep: str) -> str:
    return "".join(sep.join(map(_cell, row)) + "\n" for row in rows)


def _write_csv(out: Path, name: str, cfg: dict, header, rows) -> None:
    (out / f"{name}.csv").write_text(_csv_header(cfg) + _lines([header, *rows], ","))


def _write_plot(out: Path, name: str, rows) -> None:
    (out / f"{name}.dat").write_text(_lines(rows, " "))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_design(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    res = d_optimal(space, weight, cfg["degree"], epsilon=cfg["epsilon"], max_iter=cfg["max_iter"])
    (out / "design.json").write_text(design_to_json(res.design, degree=cfg["degree"]) + "\n")
    _write_json(
        out,
        "certificate",
        cfg,
        {
            "n": res.n,
            "g_value": res.g_value,
            "g_argmax": res.g_argmax,
            "kw_gap": res.kw_gap,
            "log_det": res.log_det,
            "iterations": res.iterations,
            "converged": res.converged,
            "support_size": res.design.size,
            "support_K_min": float(np.min(res.support_K_values)),
            "support_K_max": float(np.max(res.support_K_values)),
            "mass_identity_residual": res.mass_identity_residual,
            "monotonicity_violation": res.monotonicity_violation,
        },
    )
    if not res.converged:
        print(f"design did not converge: KW gap {res.kw_gap:.3e} after {res.iterations} steps", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_design(cfg: dict):
    """The --design file's design and its degree, unless --degree overrides it."""
    design, file_degree = design_from_json(Path(cfg["design"]).read_text())
    return design, cfg["degree"] if cfg["degree"] is not None else file_degree


def _require_atoms(design, wvals: np.ndarray, s: int) -> int:
    """n, once n atoms carry positive mass and weight (``wvals``): with fewer M is singular, a bad input."""
    n = space_dimension(design.dimension, s)
    live = int(np.count_nonzero((design.weights > 0) & (wvals > 0)))
    if live < n:
        got = "" if live == design.size else f" (got {live} of {design.size} with positive mass and weight)"
        raise ValueError(f"need at least {n} atoms for degree {s}{got}")
    return n


def _cmd_gvalue(cfg: dict, out: Path) -> int:
    if not cfg["design"]:
        raise ValueError("gvalue needs --design pointing to a design JSON file")
    design, s = _load_design(cfg)
    space = _make_space(cfg)
    outside = np.flatnonzero(~space.membership(design.points))
    if outside.size:
        i = int(outside[0])
        at = np.real_if_close(design.points[i]).tolist()
        raise ValueError(f"design atom {i} at {at} lies outside the {space.kind} domain (a = {space.a:g})")
    weight = _make_weight(cfg)
    wvals = weight.values(design.points)
    n = _require_atoms(design, wvals, s)
    basis, grid_rows, _ = arnoldi_basis(space.grid, weight.values(space.grid), s)  # the solver's basis and rows
    ev = orthonormal_factor(_moment_rows(weighted_rows(basis, design.points, wvals), design.weights, basis), weight)
    gv = _grid_max(_christoffel_rows(grid_rows, ev.L), space.grid)
    _write_json(
        out,
        "gvalue",
        cfg,
        {"degree": s, "n": n, "g_value": gv.value, "argmax": gv.argmax, "grid_index": gv.index},
    )
    return EXIT_OK


def _cmd_fekete(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    res = approx_fekete(space, weight, cfg["degree"])
    _write_json(
        out,
        "fekete",
        cfg,
        {
            "degree": cfg["degree"],
            "points": res.points,
            "weighted_vdm_log": res.weighted_vdm_log,
            "delta_s": res.delta_s,
        },
    )
    _write_plot(out, "fekete_points", ([part for c in row for part in (c.real, c.imag)] for row in res.points))
    return EXIT_OK


def _cmd_tfd(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    rows = tfd_table(space, weight, _degree_list(cfg), epsilon=cfg["epsilon"], max_iter=cfg["max_iter"])
    _write_csv(out, "tfd", cfg, [f.name for f in fields(TfdRow)], map(astuple, rows))
    _write_plot(out, "tfd_gap", ((r.s, r.gap) for r in rows))
    return EXIT_OK


def _cmd_equilibrium(cfg: dict, out: Path) -> int:
    target = _make_target(cfg)
    alphas = multi_indices(target.dimension, cfg["tmax"])
    if target.kind == "weighted-ball":  # E |z^beta|^2, written under alpha = beta|beta
        moments = [("|".join(map(str, beta + beta)), eq_moment_mixed(target, beta, beta)) for beta in alphas]
    else:
        moments = [("|".join(map(str, alpha)), eq_moment(target, alpha)) for alpha in alphas]
    _write_csv(out, "moments", cfg, ("alpha", "moment"), moments)

    if target.dimension == 1 and target.kind != "weighted-ball":
        lo = 0.0 if target.kind == "simplex" else -target.a
        hi = target.a
        xs = np.linspace(lo, hi, 402)[:-1] + (hi - lo) / 802.0  # midpoints, avoid endpoints
        # as lists: Python floats format faster than numpy scalars
        rows = np.column_stack([xs, eq_density(target, xs), eq_cdf(target, xs)]).tolist()
        _write_csv(out, "density", cfg, ("x", "density", "cdf"), rows)
    if target.kind == "weighted-ball":
        rs = np.linspace(0.0, 1.2, 121)
        pts = np.zeros((rs.size, target.dimension))
        pts[:, 0] = rs  # the points (r, 0, ..., 0)
        _write_plot(out, "green", np.column_stack([rs, weighted_ball_green(pts, target.dimension)]).tolist())
    return EXIT_OK


def _cmd_converge(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    target = _make_target(cfg)
    report = convergence_sweep(
        space,
        weight,
        _degree_list(cfg),
        target,
        t_max=cfg["tmax"],
        epsilon=cfg["epsilon"],
        max_iter=cfg["max_iter"],
    )
    _write_csv(out, "converge", cfg, [f.name for f in fields(SweepRow)], map(astuple, report.rows))
    _write_json(out, "converge", cfg, asdict(report))
    _write_plot(out, "moment_vs_s", ((r.s, r.moment_distance) for r in report.rows))
    if all(r.ks_distance is not None for r in report.rows):
        _write_plot(out, "ks_vs_s", ((r.s, r.ks_distance) for r in report.rows))
    return EXIT_OK


def _cmd_simulate(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    if cfg["design"]:
        design, s = _load_design(cfg)
    else:
        s = cfg["degree"] if cfg["degree"] is not None else 1
        # refuse bad settings before the solve, not after it
        _check_settings(space_dimension(space.dimension, s), s, cfg["sigma"], cfg["obs"], cfg["trials"], cfg["seed"])
        design = d_optimal(space, weight, s, epsilon=cfg["epsilon"], max_iter=cfg["max_iter"]).design
    n = space_dimension(design.dimension, s)
    exp = RegressionExperiment(
        design=design,
        degree=s,
        theta=np.ones(n),
        sigma=cfg["sigma"],
        num_obs=cfg["obs"],
        trials=cfg["trials"],
        seed=cfg["seed"],
    )
    stats = simulate_regression(exp)
    pairs = functools.partial(np.asarray, dtype=complex)  # written as [re, im] pairs even where real
    columns = ("point", "empirical_var", "theoretical_var", "ratio")
    rows = [(pairs(r.point), r.empirical_var, r.theoretical_var, r.ratio) for r in stats.prediction]
    results = {
        "trials": stats.trials,
        "counts": stats.counts,
        "volume_proxy": stats.volume_proxy,
        **{key: pairs(getattr(stats, key)) for key in ("theta_mean", "empirical_cov", "theoretical_cov")},
        "prediction": [dict(zip(columns, row)) for row in rows],
    }
    _write_json(out, "simulate", cfg, results)
    _write_csv(out, "ratios", cfg, columns, ((";".join(map(_cell, point)), *rest) for point, *rest in rows))
    return EXIT_OK


def _cmd_oracle(cfg: dict, out: Path) -> int:
    space = _make_space(cfg)
    weight = _make_weight(cfg)
    s, atoms = cfg["degree"], max(cfg["atoms"], 0)
    # the grid's n Fekete points determine a degree-s fit; any further atoms sit mid-slice among the other points
    picks = _fekete_rows(space, unit_weight(), s)[3]
    rest = np.setdiff1d(np.arange(space.grid_size), picks)
    extra = min(max(atoms - len(picks), 0), rest.size)
    idx = np.unique(np.r_[picks[:atoms], rest[np.linspace(0, rest.size, 2 * extra + 1)[1::2].astype(int)]])
    pts = space.grid[idx]
    w = np.arange(1.0, idx.size + 1)
    design = make_design(pts, w / w.sum())
    wvals = weight.values(design.points)
    n = _require_atoms(design, wvals, s)
    # w / c leaves K as it is and scales each determinant by c^(-2sn): where w^(2sn) would leave the
    # float range, both sides run on a table divided by an exact power of two c (as basis._norm does)
    scale = 1.0
    with np.errstate(over="ignore", under="ignore"):
        if weight.kind == "table" and not 1e-250 < np.max(wvals) ** (2.0 * s * n) < math.inf:
            scale = math.ldexp(1.0, math.frexp(float(np.max(wvals)))[1])
            weight, wvals = table_weight(weight.table_points, weight.table_values / scale), wvals / scale
    basis = monomial_basis(space.dimension, s)
    mm = _moment_rows(weighted_rows(basis, design.points, wvals), design.weights, basis)
    det_main = math.exp(mm.log_det_monomial) if math.isfinite(mm.log_det_monomial) else 0.0
    det_oracle = vdm_integral_det(design, weight, s)
    rel_det = abs(det_main - det_oracle) / abs(det_oracle) if det_oracle else math.inf
    ev = orthonormal_factor(mm, weight)
    rows = []
    worst = rel_det
    probe = np.concatenate([design.points[:3], space.grid[[space.grid_size // 2]]])
    for z, k_main in zip(probe, christoffel_many(ev, probe)):
        k_oracle = vdm_integral_christoffel(design, weight, s, z)
        rel = abs(k_main - k_oracle) / abs(k_oracle) if k_oracle else abs(k_main)
        worst = max(worst, rel)
        rows.append({"point": np.asarray(z).reshape(-1), "christoffel": k_main, "oracle": k_oracle, "rel_err": rel})
    _write_json(
        out,
        "oracle",
        cfg,
        {
            "atoms": int(idx.size),
            "degree": s,
            "det_main": det_main,
            "det_oracle": det_oracle,
            "weight_divisor": scale,  # both determinants are those of the weight divided by it
            "rel_err_det": rel_det,
            "christoffel": rows,
            "max_rel_err": worst,
            "passed": bool(worst <= 1e-8),
        },
    )
    return EXIT_OK


# subcommand: (handler, help, the options it reads besides --out, the defaults that differ from _OPTIONS)
_COMMANDS = {
    "design": (_cmd_design, "solve a D-optimal design and certify it", f"{_GRID} degree epsilon max_iter", {}),
    "gvalue": (_cmd_gvalue, "G-value of a stored design over the domain grid", f"{_GRID} design degree",
               {"degree": None}),
    "fekete": (_cmd_fekete, "approximate weighted Fekete points", f"{_GRID} degree", {}),
    "tfd": (_cmd_tfd, "s-th order diameters vs Gram determinant roots", f"{_GRID} degrees epsilon max_iter", {}),
    "equilibrium": (_cmd_equilibrium, "tabulate an equilibrium measure", "dimension a target tmax", {}),
    "converge": (_cmd_converge, "weak-* convergence diagnostics across degrees",
                 f"{_GRID} degrees target tmax epsilon max_iter", {"degrees": "2,4,8"}),
    "simulate": (_cmd_simulate, "Monte Carlo check of the regression identities",
                 f"{_GRID} seed design degree sigma obs trials epsilon max_iter", {"degree": None, "epsilon": 1e-6}),
    "oracle": (_cmd_oracle, "cross-check determinants against brute-force sums", f"{_GRID} atoms degree", {}),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise OSError(f"output directory {out} is not writable")
        return _COMMANDS[args.command][0](cfg, out)
    except (SingularGramError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
