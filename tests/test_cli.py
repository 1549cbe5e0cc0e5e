"""Command-line interface: artifacts, config resolution, exit codes."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import ConditioningWarning, cube, design_from_json, design_to_json, disk, interval, make_design, table_weight
from optdesign import arnoldi_basis, g_value, gaussian_weight, moment_matrix, orthonormal_factor, unit_weight, weight_to_json
from optdesign import asymptotics, cli, fekete, gram, measure, optimal
from optdesign.cli import _build_parser, _make_space, _resolve_config, main


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main([*args, "--out", str(out)]), out


def test_design_writes_design_and_certificate(tmp_path):
    rc, out = run(
        tmp_path, "design", "--degree", "2", "--epsilon", "1e-3", "--grid", "201"
    )
    assert rc == 0
    design, degree = design_from_json((out / "design.json").read_text())
    assert degree == 2
    assert abs(design.weights.sum() - 1.0) < 1e-12
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["artifact"] == "certificate"
    assert cert["results"]["converged"] is True
    assert cert["results"]["kw_gap"] <= 1e-3 * 3
    assert cert["results"]["n"] == 3
    assert cert["config"]["degree"] == 2
    assert cert["config"]["grid"] == 201
    assert "version" in cert and "timestamp" in cert


def test_design_exit_three_when_budget_too_small(tmp_path):
    # one step fewer than the uncapped solve takes from the Fekete start
    rc, out = run(tmp_path, "design", "--degree", "12", "--epsilon", "1e-9")
    steps = json.loads((out / "certificate.json").read_text())["results"]["iterations"]
    assert rc == 0 and steps >= 1
    rc, out = run(tmp_path, "design", "--degree", "12", "--epsilon", "1e-9", "--max-iter", str(steps - 1))
    assert rc == 3
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["results"]["converged"] is False


def test_design_exit_three_when_no_newton_step_can_be_taken(tmp_path, capsys, monkeypatch):
    # a stalled solve ends uncertified at its Fekete start, as an exhausted budget does
    monkeypatch.setattr(optimal, "_newton_step", lambda *args: None)
    rc, out = run(tmp_path, "design", "--degree", "12", "--epsilon", "1e-9")
    assert rc == 3
    assert "design did not converge" in capsys.readouterr().err
    results = json.loads((out / "certificate.json").read_text())["results"]
    assert results["converged"] is False and results["iterations"] == 0


def test_design_exit_three_when_the_certificate_only_looks_valid(tmp_path, capsys, monkeypatch):
    # an injected fault inflates every K the solver computes by a relative
    # 1e-6: the gap test passes and the mass identity does not
    squared_norms = optimal._squared_norms
    monkeypatch.setattr(optimal, "_squared_norms", lambda Z: squared_norms(Z) * (1.0 + 1e-6))
    rc, out = run(tmp_path, "design", "--weight", "gaussian", "--a", "2", "--grid", "201", "--degree", "8")
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: certificate does not hold at iteration")
    assert not (out / "certificate.json").exists()


def test_gvalue_requires_design_file(tmp_path):
    rc, _ = run(tmp_path, "gvalue")
    assert rc == 2


def test_gvalue_reads_degree_from_design_file(tmp_path):
    rc, out = run(
        tmp_path, "design", "--degree", "1", "--epsilon", "1e-4", "--grid", "101"
    )
    assert rc == 0
    rc2, out2 = run(
        tmp_path, "gvalue", "--design", str(out / "design.json"), "--grid", "101"
    )
    assert rc2 == 0
    payload = json.loads((out2 / "gvalue.json").read_text())
    assert payload["results"]["degree"] == 1
    assert payload["results"]["g_value"] == pytest.approx(2.0, rel=1e-3)


def test_fekete_artifacts(tmp_path):
    rc, out = run(tmp_path, "fekete", "--degree", "2", "--grid", "101")
    assert rc == 0
    payload = json.loads((out / "fekete.json").read_text())
    pts = [complex(re, im) for (re, im) in (p[0] for p in payload["results"]["points"])]
    assert np.allclose(np.sort([p.real for p in pts]), [-1.0, 0.0, 1.0], atol=1e-12)
    dat = (out / "fekete_points.dat").read_text().strip().splitlines()
    assert len(dat) == 3 and len(dat[0].split()) == 2


def test_tfd_artifacts(tmp_path):
    rc, out = run(
        tmp_path, "tfd", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201"
    )
    assert rc == 0
    text = (out / "tfd.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# optdesign ")
    assert lines[1].startswith("# config ")
    assert lines[2] == "s,m_s,delta_s,gram_root,gap"
    assert len(lines) == 5 and text.endswith("\n")
    gaps = [float(line.split()[1]) for line in (out / "tfd_gap.dat").read_text().splitlines()]
    assert len(gaps) == 2 and all(g >= 0 for g in gaps)


def test_equilibrium_arcsine_artifacts(tmp_path):
    rc, out = run(tmp_path, "equilibrium", "--target", "arcsine", "--tmax", "4")
    assert rc == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[2] == "alpha,moment"
    moments = dict(line.split(",") for line in lines[3:])
    assert float(moments["2"]) == pytest.approx(0.5, abs=1e-9)
    assert float(moments["4"]) == pytest.approx(0.375, abs=1e-9)
    density = (out / "density.csv").read_text().splitlines()
    assert density[2] == "x,density,cdf"
    assert len(density) == 3 + 401


def test_equilibrium_weighted_ball_artifacts(tmp_path):
    rc, out = run(tmp_path, "equilibrium", "--target", "wball", "--tmax", "3")
    assert rc == 0
    lines = (out / "moments.csv").read_text().splitlines()
    moments = dict(line.split(",") for line in lines[3:])
    assert float(moments["1|1"]) == pytest.approx(0.25, rel=1e-9)
    green = (out / "green.dat").read_text().splitlines()
    assert len(green) == 121
    r, g = map(float, green[0].split())
    assert r == 0.0 and g == 0.0


def test_converge_artifacts(tmp_path):
    rc, out = run(
        tmp_path,
        "converge",
        "--degrees", "1,2",
        "--epsilon", "1e-3",
        "--grid", "201",
        "--tmax", "4",
    )
    assert rc == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[2] == "s,n,m_s,kw_gap,moment_distance,ks_distance"
    assert len(lines) == 5
    payload = json.loads((out / "converge.json").read_text())
    rows = payload["results"]["rows"]
    assert [r["s"] for r in rows] == [1, 2]
    assert all(r["ks_distance"] is not None for r in rows)
    assert payload["results"]["target_kind"] == "interval"
    assert len((out / "moment_vs_s.dat").read_text().splitlines()) == 2
    assert len((out / "ks_vs_s.dat").read_text().splitlines()) == 2


def test_converge_refuses_a_target_of_another_dimension_before_any_solve(tmp_path, capsys, monkeypatch):
    # the arcsine target is one-dimensional: the first degree used to be solved before its moments failed
    monkeypatch.setattr(asymptotics, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the check"))
    rc, out = run(tmp_path, "converge", "--domain", "cube", "--dimension", "2", "--grid", "9",
                  "--target", "arcsine", "--degrees", "1,2")
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "validation error: the interval target has dimension 1 but the cube grid has 2\n"
    assert not (out / "converge.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--domain", "disk", "--grid", "4", "--grid-angular", "8", "--target", "arcsine"],
         "the interval target is real but the disk grid is complex"),
        (["--domain", "ball", "--dimension", "2", "--grid", "4", "--target", "wball"],
         "the weighted-ball target is complex but the ball grid is real"),
        (["--domain", "interval", "--grid", "21", "--target", "wball"],
         "the weighted-ball target is complex but the interval grid is real"),
        (["--weight", "gaussian", "--a", "1.25", "--grid", "401"],
         "the interval target needs the unit weight, not the gaussian weight"),
        (["--domain", "disk", "--grid", "12", "--grid-angular", "32", "--target", "wball"],
         "the weighted-ball target needs the gaussian weight, not the unit weight"),
    ],
    ids=["disk-arcsine", "ball-wball", "interval-wball", "gaussian-arcsine", "unit-wball"],
)
def test_converge_refuses_a_target_of_the_other_field_before_any_solve(tmp_path, capsys, monkeypatch, argv, message):
    # the disk against the arcsine law used to report a moment distance of
    # 0.5, and the real grids against the weighted ball failed after the solve;
    # a weight other than the target's used to give distances to the wrong limit
    monkeypatch.setattr(asymptotics, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the check"))
    rc, out = run(tmp_path, "converge", *argv, "--degrees", "1,2", "--tmax", "2")
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (out / "converge.csv").exists()


@pytest.mark.parametrize("target", ["ball", "simplex"])
def test_equilibrium_tabulates_dimension_four(tmp_path, mp_dirichlet_moment, target):
    # dimension 4 used to be refused: every dimension shares one Dirichlet formula
    rc, out = run(tmp_path, "equilibrium", "--target", target, "--dimension", "4", "--tmax", "6")
    assert rc == 0
    cells = _cells(out / "moments.csv")
    assert len(cells) == 210  # the multi-indices of degree <= 6 in 4 variables
    for alpha, moment in cells:
        want = mp_dirichlet_moment(target, tuple(map(int, alpha.split("|"))))
        assert abs(float(moment) - float(want)) <= 1e-15


def test_equilibrium_tabulates_the_weighted_ball_in_c2(tmp_path):
    # it used to exit 2: mixed moments were defined for d = 1 only
    rc, out = run(tmp_path, "equilibrium", "--target", "wball", "--dimension", "2", "--tmax", "2")
    assert rc == 0
    moments = {alpha: float(m) for alpha, m in _cells(out / "moments.csv")}
    assert list(moments) == ["0|0|0|0", "1|0|1|0", "0|1|0|1", "2|0|2|0", "1|1|1|1", "0|2|0|2"]
    assert moments["1|0|1|0"] + moments["0|1|0|1"] == pytest.approx(1 / 3, abs=1e-15)  # E |z|^2
    assert moments["2|0|2|0"] + 2 * moments["1|1|1|1"] + moments["0|2|0|2"] == pytest.approx(1 / 8, abs=1e-15)
    green = [tuple(map(float, line.split())) for line in (out / "green.dat").read_text().splitlines()]
    assert len(green) == 121 and green[50] == (0.5, pytest.approx(0.25, abs=1e-15))


@pytest.mark.parametrize("target, dimension", [("wball", 200), ("ball", 343), ("simplex", 343)])
def test_equilibrium_dimension_past_the_gamma_range_is_a_validation_error(tmp_path, capsys, target, dimension):
    # Gamma of the Dirichlet parameters' sum overflows: it used to exit 3 with "math range error"
    rc, out = run(tmp_path, "equilibrium", "--target", target, "--dimension", str(dimension), "--tmax", "0")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: dimension {dimension} is out of range: Gamma(") and err.count("\n") == 1
    assert not (out / "moments.csv").exists()


def _cells(path):
    """The cells of a CSV artifact's rows, below its two comment lines and its header."""
    return [line.split(",") for line in path.read_text().splitlines()[3:]]


def test_artifacts_print_17_significant_digits_and_end_in_lf(tmp_path):
    runs = {
        "tfd": ["tfd", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201"],
        "converge": ["converge", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201", "--tmax", "4"],
        "ratios": ["simulate", "--domain", "disk", "--grid", "6", "--grid-angular", "12", "--degree", "1",
                   "--trials", "100", "--obs", "20"],
    }
    for name, argv in runs.items():
        rc, out = run(tmp_path / name, *argv)
        assert rc == 0
        rows = _cells(out / f"{name}.csv")
        assert rows
        for row in rows:
            if name == "ratios":  # the point: complex coordinates joined by ';'
                coords = row.pop(0).split(";")
                assert coords and all(format(complex(c), ".17g") == c for c in coords)
            assert all(f"{float(c):.17g}" == c for c in row if c)  # an empty cell is a missing value
        for path in out.iterdir():
            data = path.read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, path.name


def test_simulate_with_stored_design(tmp_path):
    rc, out = run(
        tmp_path, "design", "--degree", "2", "--epsilon", "1e-4", "--grid", "101"
    )
    assert rc == 0
    rc2, out2 = run(
        tmp_path,
        "simulate",
        "--design", str(out / "design.json"),
        "--trials", "200",
        "--obs", "60",
    )
    assert rc2 == 0
    payload = json.loads((out2 / "simulate.json").read_text())
    assert payload["results"]["trials"] == 200
    assert sum(payload["results"]["counts"]) == 60
    ratios = (out2 / "ratios.csv").read_text().splitlines()
    assert ratios[2] == "point,empirical_var,theoretical_var,ratio"


def test_oracle_subcommand_certifies_equivalence(tmp_path):
    rc, out = run(tmp_path, "oracle", "--atoms", "5", "--degree", "2", "--grid", "51")
    assert rc == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["results"]["passed"] is True
    assert payload["results"]["max_rel_err"] <= 1e-8


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree": 1, "grid": 101, "epsilon": 1e-3}))
    rc, out = run(tmp_path, "design", "--config", str(cfg), "--grid", "151")
    assert rc == 0
    echoed = json.loads((out / "certificate.json").read_text())["config"]
    assert echoed["degree"] == 1  # from the file
    assert echoed["grid"] == 151  # flag wins


def test_unknown_config_key_is_a_validation_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degrees": "1,2"}))  # wrong key for design
    rc, _ = run(tmp_path, "design", "--config", str(cfg))
    assert rc == 2


def test_domain_validation_errors(tmp_path):
    rc, _ = run(tmp_path, "design", "--grid", "1")
    assert rc == 2
    rc2, _ = run(tmp_path, "tfd", "--degrees", "2,-1")
    assert rc2 == 2


@pytest.mark.parametrize("flag", [["--max-iter", "-1"], ["--epsilon", "nan"]])
def test_bad_solver_budget_is_a_validation_error(tmp_path, flag):
    rc, out = run(tmp_path, "design", "--degree", "2", "--grid", "51", *flag)
    assert rc == 2
    assert not (out / "certificate.json").exists()


def test_weight_file_round_trip(tmp_path):
    from optdesign import weight_to_json, gaussian_weight

    wfile = tmp_path / "weight.json"
    wfile.write_text(weight_to_json(gaussian_weight()))
    rc, out = run(
        tmp_path,
        "design", "--degree", "1", "--epsilon", "1e-3", "--grid", "101",
        "--weight", str(wfile),
    )
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["config"]["weight"] == str(wfile)
    rc2, _ = run(tmp_path, "design", "--weight", "no-such-file.json")
    assert rc2 == 2


def test_weight_on_a_line_is_a_rank_validation_error(tmp_path, capsys):
    # a weight positive only on the diagonal x1 = x2 of the square: the 9
    # points there carry the quadratics in one variable, rank 3 of 6
    grid = cube(2, per_axis=9).grid
    wfile = tmp_path / "weight.json"
    wfile.write_text(weight_to_json(table_weight(grid, np.abs(grid[:, 0] - grid[:, 1]) < 1e-12)))
    rc, out = run(
        tmp_path, "design", "--domain", "cube", "--dimension", "2", "--grid", "9", "--degree", "2", "--weight", str(wfile)
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "validation error: degree-2 design infeasible: weighted Vandermonde rank 3 < 6 on positive-weight points\n"
    )
    assert not (out / "certificate.json").exists()


def test_table_weight_of_another_dimension_is_a_validation_error(tmp_path, capsys):
    wfile = tmp_path / "weight.json"
    wfile.write_text(weight_to_json(table_weight(cube(2, per_axis=9).grid, np.ones(81))))
    rc, out = run(tmp_path, "design", "--domain", "cube", "--grid", "9", "--degree", "2", "--weight", str(wfile))
    assert rc == 2
    assert capsys.readouterr().err == (
        "validation error: tabulated weight has 2 coordinates per point, queried with 1\n"
    )
    assert not (out / "certificate.json").exists()


def test_fine_unit_disk_design_converges(tmp_path):
    rc, out = run(tmp_path, "design", "--domain", "disk", "--grid", "32", "--grid-angular", "80", "--degree", "2")
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())["results"]
    assert cert["converged"] is True and cert["iterations"] <= 30


@pytest.mark.parametrize("target", ["arcsine", "cube", "ball", "simplex", "wball"])
@pytest.mark.parametrize("command", ["equilibrium", "converge"])
def test_negative_tmax_is_a_validation_error(tmp_path, capsys, command, target):
    grid = ["--grid", "51"] if command == "converge" else []  # equilibrium builds no grid
    rc, out = run(tmp_path, command, "--target", target, "--tmax", "-1", *grid)
    assert rc == 2
    assert capsys.readouterr().err == "validation error: --tmax must be nonnegative, got -1\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_is_a_validation_error(tmp_path, capsys, sigma):
    dfile = tmp_path / "design.json"
    dfile.write_text(design_to_json(make_design([-1.0, 1.0], [0.5, 0.5]), degree=1))
    rc, out = run(tmp_path, "simulate", "--design", str(dfile), "--sigma", sigma, "--trials", "10")
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: sigma must be nonnegative and finite, got {float(sigma)!r}\n"
    assert not any(out.iterdir())


def test_non_finite_sigma_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("d_optimal called before sigma was checked")

    monkeypatch.setattr(cli, "d_optimal", no_solve)
    rc, out = run(tmp_path, "simulate", "--degree", "8", "--sigma", "nan", "--trials", "10")
    assert rc == 2
    assert capsys.readouterr().err == "validation error: sigma must be nonnegative and finite, got nan\n"
    assert not any(out.iterdir())


def test_spacing_reaches_the_disk():
    args = ["design", "--domain", "disk", "--grid", "24", "--grid-angular", "80", "--spacing", "uniform"]
    space = _make_space(_resolve_config(_build_parser().parse_args(args)))
    assert np.array_equal(space.grid, disk(spacing="uniform").grid)
    assert not np.array_equal(space.grid, disk().grid)


def test_non_finite_table_weight_is_a_validation_error(tmp_path):
    wfile = tmp_path / "weight.json"
    wfile.write_text(json.dumps({"kind": "table", "points": [[[0.0, 0.0]]], "values": [math.nan]}))
    rc, _ = run(tmp_path, "design", "--weight", str(wfile))
    assert rc == 2


@pytest.mark.parametrize("command", ["fekete", "tfd"])
def test_exchange_passes_is_no_longer_an_option(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--grid", "51", "--exchange-passes", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --exchange-passes 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [("fekete", ["--degree", "0"]), ("tfd", ["--degrees", "0,1"])])
def test_degree_zero_diameter_is_a_validation_error_before_any_solve(tmp_path, capsys, monkeypatch, command, flags):
    # delta_0 is a 0-th root: fekete used to write "delta_s": NaN, and tfd
    # solved and then failed on a division by zero
    monkeypatch.setattr(fekete, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the degree check"))
    rc, out = run(tmp_path, command, "--grid", "51", *flags)
    assert rc == 2
    assert capsys.readouterr().err == "validation error: delta_s needs degree s >= 1, got 0\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["tfd", "converge"])
def test_repeated_degree_is_a_validation_error_before_any_solve(tmp_path, capsys, monkeypatch, command):
    # each listed degree is solved once: a repeated one wrote its row twice
    monkeypatch.setattr(fekete, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the degree check"))
    monkeypatch.setattr(asymptotics, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the degree check"))
    rc, out = run(tmp_path, command, "--degrees", "2,2", "--grid", "51", "--epsilon", "1e-3")
    assert rc == 2
    assert capsys.readouterr().err == "validation error: bad degree list '2,2'\n"
    assert not any(out.iterdir())


def test_gvalue_of_a_design_with_too_few_atoms_is_a_validation_error(tmp_path, capsys):
    # two atoms cannot carry a degree-2 fit (n = 3): refused as oracle refuses
    # them, not reported as a moment matrix that failed to factor
    dfile = tmp_path / "design.json"
    dfile.write_text(design_to_json(make_design([-1.0, 1.0], [0.5, 0.5]), degree=2))
    rc, out = run(tmp_path, "gvalue", "--design", str(dfile), "--grid", "51")
    assert rc == 2
    assert capsys.readouterr().err == "validation error: need at least 3 atoms for degree 2\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "domain, atoms, message",
    [
        (["--grid", "51"], [-1.0, 0.0, 2.0], "design atom 2 at [2.0] lies outside the interval domain (a = 1)"),
        (
            ["--domain", "disk", "--grid", "4", "--grid-angular", "8"],
            [0.0, 0.5, 1.2j, -0.5],
            "design atom 2 at [1.2j] lies outside the disk domain (a = 1)",
        ),
    ],
)
def test_gvalue_refuses_atoms_outside_the_domain(tmp_path, capsys, domain, atoms, message):
    # K evaluated off the domain gave a g-value (4.08 on the interval) that only looked valid
    dfile = tmp_path / "design.json"
    dfile.write_text(design_to_json(make_design(atoms, np.full(len(atoms), 1 / len(atoms))), degree=2))
    rc, out = run(tmp_path, "gvalue", "--design", str(dfile), *domain)
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (out / "gvalue.json").exists()


@pytest.mark.parametrize("command", ["gvalue", "oracle"])
def test_atoms_without_weight_are_a_validation_error(tmp_path, capsys, command):
    # a weight of 1 on the grid's first two points: of the five atoms only the first weighs anything, so the
    # degree-2 moment matrix is singular; refused as design refuses the weight, not as a failed factorization
    grid = interval(grid=21, spacing="chebyshev").grid
    wfile = tmp_path / "weight.json"
    wfile.write_text(weight_to_json(table_weight(grid, np.r_[1.0, 1.0, np.zeros(19)])))
    args = ["--grid", "21", "--weight", str(wfile), "--degree", "2"]
    if command == "gvalue":
        dfile = tmp_path / "design.json"
        dfile.write_text(design_to_json(make_design(grid[[0, 5, 10, 15, 20]], np.full(5, 0.2)), degree=2))
        args += ["--design", str(dfile)]
    else:
        args += ["--atoms", "5"]
    rc, out = run(tmp_path, command, *args)
    assert rc == 2
    assert capsys.readouterr().err == (
        "validation error: need at least 3 atoms for degree 2 (got 1 of 5 with positive mass and weight)\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("c", [1e100, 1e300, 1e-100])
def test_gvalue_and_concavity_probe_ignore_a_huge_or_tiny_constant_weight(tmp_path, c):
    # the one-shot Gram paths use the grid's Arnoldi basis under the weight, whose rows start from
    # (w / max w)^s, so w^(2s) is never formed: unit weight's results, without a RuntimeWarning
    space = interval(grid=21, spacing="chebyshev")
    design = make_design(space.grid[[0, 5, 10, 15, 20]], np.full(5, 0.2))
    dfile, wfile = tmp_path / "design.json", tmp_path / "weight.json"
    dfile.write_text(design_to_json(design, degree=2))
    weight = table_weight(space.grid, np.full(21, c))
    wfile.write_text(weight_to_json(weight))
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, args in ((unit_weight(), []), (weight, ["--weight", str(wfile)])):
            rc, out = run(tmp_path, "gvalue", "--design", str(dfile), "--grid", "21", *args)
            assert rc == 0
            probe = asymptotics.concavity_probe(space, w, 2, lambda x: x * x, design, [-0.1, 0.0, 0.1])
            results.append((json.loads((out / "gvalue.json").read_text())["results"]["g_value"], probe))
    (unit_g, unit_probe), (g, probe) = results
    assert g == pytest.approx(unit_g, rel=1e-12)
    # f_of_t is near -n s log c / m_s here, and its second difference keeps a few eps of that
    assert probe == pytest.approx(unit_probe, abs=1e-11)


def test_rank_deficient_fekete_weight_is_a_validation_error(tmp_path, capsys):
    from optdesign import interval, table_weight, weight_to_json

    grid = interval(grid=21, spacing="chebyshev").grid
    wfile = tmp_path / "weight.json"
    wfile.write_text(weight_to_json(table_weight(grid, np.r_[1.0, 1.0, np.zeros(19)])))
    rc, out = run(tmp_path, "fekete", "--grid", "21", "--degree", "2", "--weight", str(wfile))
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "validation error: degree-2 design infeasible: only 2 positive-weight grid points, need 3\n"
    assert not (out / "fekete.json").exists()


_GRID_DEFAULTS = {
    "domain": "interval", "dimension": 1, "a": 1.0, "grid": 401, "grid_angular": 64,
    "spacing": "chebyshev", "weight": "unit",
}

# the resolved defaults every artifact echoes, key for key and in order
_PINNED_DEFAULTS = {
    "design": {**_GRID_DEFAULTS, "degree": 2, "epsilon": 1e-5, "max_iter": None},
    "gvalue": {**_GRID_DEFAULTS, "design": None, "degree": None},
    "fekete": {**_GRID_DEFAULTS, "degree": 2},
    "tfd": {**_GRID_DEFAULTS, "degrees": "1,2,4,8", "epsilon": 1e-5, "max_iter": None},
    "equilibrium": {"dimension": 1, "a": 1.0, "target": "arcsine", "tmax": 6},
    "converge": {
        **_GRID_DEFAULTS, "degrees": "2,4,8", "target": "arcsine", "tmax": 6, "epsilon": 1e-5, "max_iter": None,
    },
    "simulate": {
        **_GRID_DEFAULTS, "seed": 0, "design": None, "degree": None, "sigma": 0.1, "obs": 100, "trials": 10000,
        "epsilon": 1e-6, "max_iter": None,
    },
    "oracle": {**_GRID_DEFAULTS, "atoms": 4, "degree": 2},
}


@pytest.mark.parametrize("command", list(_PINNED_DEFAULTS))
def test_resolved_defaults_are_pinned(command):
    cfg = _resolve_config(_build_parser().parse_args([command]))
    expected = {**_PINNED_DEFAULTS[command], "out": ".", "command": command}
    assert list(cfg.items()) == list(expected.items())


# the pairs a command once accepted and echoed into its artifacts without reading them
_UNREAD = [("equilibrium", key) for key in ("domain", "grid", "grid_angular", "spacing", "weight", "seed")] + [
    (command, "seed") for command in ("design", "gvalue", "fekete", "tfd", "converge", "oracle")
]


@pytest.mark.parametrize("command, key", _UNREAD)
def test_an_option_the_command_does_not_read_is_refused(tmp_path, capsys, command, key):
    value = cli._OPTIONS[key]["default"]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, flag, str(value))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc, _ = run(tmp_path, command, "--config", str(cfg))
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: unknown config keys: [{key!r}]\n"
    assert not (tmp_path / "out").exists()


_READ_SPACES = (  # between them these reach every grid option
    ["--grid", "21"],
    ["--domain", "disk", "--grid", "3", "--grid-angular", "8"],
    ["--domain", "cube", "--dimension", "2", "--grid", "5"],
)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_option_of_a_command_is_read(tmp_path, monkeypatch, command):
    # a config that records each key read from it by subscript (artifacts
    # iterate over every key, which does not count); an option no run of the
    # command reads would be echoed into its artifacts as if it had been used
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config", lambda args: Reads(resolve(args)))
    if command == "equilibrium":
        runs = [["--target", target, "--tmax", "2"] for target in ("arcsine", "wball")]
    elif command == "converge":
        targets = [["--target", "arcsine"], ["--weight", "gaussian", "--target", "wball"]]  # interval, disk
        runs = [[*flags, *target, "--degrees", "1,2", "--tmax", "2"] for flags, target in zip(_READ_SPACES, targets)]
    else:
        own = {"gvalue": [], "tfd": ["--degrees", "1,2"], "simulate": ["--degree", "1", "--obs", "9", "--trials", "9"]}
        runs = [[*flags, *own.get(command, ["--degree", "1"])] for flags in _READ_SPACES]
    for i, flags in enumerate(runs):
        if command == "gvalue":  # equal masses on the whole grid
            grid = _make_space(resolve(_build_parser().parse_args([command, *flags]))).grid
            design = tmp_path / f"design{i}.json"
            design.write_text(design_to_json(make_design(grid, np.full(len(grid), 1 / len(grid))), degree=1))
            flags = [*flags, "--design", str(design)]
        assert main([command, *flags, "--out", str(tmp_path / str(i))]) == 0
    assert set(cli._command_defaults(command)) - read == set()


def test_help_lists_each_default(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--epsilon EPSILON (default: 1e-06)" in help_text
    assert "--grid GRID grid density (per-axis / radial count) (default: 401)" in help_text


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("design", '{"grid": "401"}', "config key 'grid' must be int, got \"401\""),
        ("design", '{"degree": 2.5}', "config key 'degree' must be int, got 2.5"),
        ("design", '{"degree": true}', "config key 'degree' must be int, got true"),
        ("design", '{"epsilon": null}', "config key 'epsilon' must be float, got null"),
        ("design", '{"threads": "2"}', "unknown config keys: ['threads']"),
        ("fekete", '{"exchange_passes": 2}', "unknown config keys: ['exchange_passes']"),
        ("design", '{"out": 5}', "config key 'out' must be str, got 5"),
        ("design", '{"spacing": "random"}', "config key 'spacing' must be one of ['chebyshev', 'uniform'], got \"random\""),
        ("design", "5", "must hold a JSON object"),
        ("tfd", '{"degrees": 5}', "config key 'degrees' must be str, got 5"),
    ],
)
def test_ill_typed_config_value_is_a_validation_error(tmp_path, capsys, command, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    rc, out = run(tmp_path, command, "--config", str(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.endswith(message + "\n") and err.count("\n") == 1
    assert not out.exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    payload=st.dictionaries(st.sampled_from(sorted(cli._OPTIONS)), _JSON_VALUES, max_size=4),
)
def test_any_config_object_resolves_or_is_a_validation_error(command, payload):
    # main() turns ValueError into exit 2; any other exception would be a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(payload))
        try:
            cfg = _resolve_config(_build_parser().parse_args([command, "--config", str(path)]))
        except ValueError:
            return
    assert all(json.dumps(cfg[key]) == json.dumps(value) for key, value in payload.items())  # NaN too


def test_config_accepts_null_where_the_default_is_null_and_an_int_for_a_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": None, "a": 2, "degree": 1, "grid": 51, "epsilon": 1e-3}))
    rc, out = run(tmp_path, "design", "--config", str(cfg))
    assert rc == 0
    echoed = json.loads((out / "certificate.json").read_text())["config"]
    assert echoed["a"] == 2 and echoed["max_iter"] is None


@pytest.mark.parametrize(
    "command, flag, content, message",
    [
        ("gvalue", "--design", "{}", "design JSON has no 'points' key"),
        ("simulate", "--design", '{"points": [[[0.0, 0.0]]], "weights": [1.0]}', "design JSON has no 'dimension' key"),
        ("gvalue", "--design", '{"dimension": 1, "degree": 1, "points": [[[0.0]]], "weights": [1.0]}',
         "design JSON point 0 holds [0.0], not an [re, im] pair"),
        ("design", "--weight", '{"kind": "table"}', "weight JSON has no 'points' key"),
        ("design", "--weight", '{"kind": "table", "points": [[[0.0, "x"]]], "values": [1.0]}',
         'weight JSON point 0 holds [0.0, "x"], not an [re, im] pair'),
        ("design", "--weight", "[]", "weight JSON has no 'kind' key"),
        # four one-coordinate points in dimension 2, with two weights and with four
        *[("gvalue", "--design", json.dumps({"dimension": 2, "degree": 1, "weights": w,
                                             "points": [[[0.0, 0.0]], [[0.5, 0.0]], [[0.2, 0.0]], [[0.9, 0.0]]]}),
           "design JSON point 0 has 1 coordinates, expected 2") for w in ([0.5, 0.5], [0.25] * 4)],
        ("simulate", "--design", '{"dimension": 2, "degree": 1, "points": [[[0, 0], [1, 0]], [[0.5, 0]]], '
         '"weights": [0.5, 0.5]}', "design JSON point 1 has 1 coordinates, expected 2"),
        ("gvalue", "--design", '{"dimension": 0, "degree": 1, "points": [[]], "weights": [1]}',
         "design JSON 'dimension' must be at least 1, got 0"),
        ("gvalue", "--design", '{"dimension": 1, "degree": 1, "points": [[[0, 0]]], "weights": ["1"]}',
         "design JSON 'weights' must be a list of numbers"),
        ("design", "--weight", '{"kind": "table", "points": [[[0, 0], [1, 0]], [[0.5, 0]]], "values": [1, 2]}',
         "weight JSON point 1 has 1 coordinates, expected 2"),
        ("design", "--weight", '{"kind": "table", "points": [[[0, 0]]], "values": [{}]}',
         "weight JSON 'values' must be a list of numbers"),
    ],
)
def test_malformed_design_or_weight_file_is_a_validation_error(tmp_path, capsys, command, flag, content, message):
    path = tmp_path / "input.json"
    path.write_text(content)
    rc, out = run(tmp_path, command, "--grid", "51", flag, str(path))
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(out.iterdir())


def test_successive_calls_share_one_parser_and_resolve_their_own_flags(tmp_path):
    def config(out):
        header = (out / "moments.csv").read_text().splitlines()[1]
        return json.loads(header.removeprefix("# config "))

    assert _build_parser() is _build_parser()
    assert main(["equilibrium", "--target", "simplex", "--tmax", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(["equilibrium", "--out", str(tmp_path / "b")]) == 0
    first, second = config(tmp_path / "a"), config(tmp_path / "b")
    assert (first["target"], first["tmax"]) == ("simplex", 3)
    assert (second["target"], second["tmax"]) == ("arcsine", 6)
    assert first["out"] != second["out"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_simulate_refuses_a_seed_outside_the_philox_key_before_solving(tmp_path, capsys, monkeypatch, seed):
    # numpy used to refuse these only after the D-optimal solve, as a numerical failure
    monkeypatch.setattr(cli, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before checking the seed"))
    rc, out = run(tmp_path, "simulate", "--degree", "1", "--grid", "51", "--trials", "100", "--seed", seed)
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: seed must be in [0, 2^64), got {seed}\n"
    assert not (out / "simulate.json").exists()


def test_simulate_accepts_the_largest_seed(tmp_path):
    rc, out = run(tmp_path, "simulate", "--degree", "1", "--grid", "51", "--trials", "100", "--seed", str(2**64 - 1))
    assert rc == 0 and (out / "simulate.json").exists()


def _refuse_constant(name):
    raise ValueError(f"JSON artifact holds {name}")


_SPACES = {
    "interval": st.fixed_dictionaries({"grid": st.integers(2, 41)}),
    "disk": st.fixed_dictionaries({"grid": st.integers(2, 6), "grid-angular": st.integers(4, 12)}),
    "cube": st.fixed_dictionaries({"dimension": st.just(2), "grid": st.integers(2, 9)}),
    "simplex": st.fixed_dictionaries({"dimension": st.just(2), "grid": st.integers(1, 10)}),
    "ball": st.fixed_dictionaries(
        {"dimension": st.just(2), "grid": st.integers(2, 4), "grid-angular": st.integers(4, 10)}
    ),
}  # only grids the domain accepts: the strategy builds each one to lay a table weight or a design on it


@st.composite
def _small_runs(draw):
    """A small run of any solving or checking command: its command and flags, and the files it reads."""
    command = draw(st.sampled_from(["design", "fekete", "tfd", "gvalue", "converge", "simulate", "oracle"]))
    domain = draw(st.sampled_from(sorted(_SPACES)))
    flags = {"domain": domain, **draw(_SPACES[domain])}
    degrees = st.integers(0, 3) | st.integers(0, 14)  # most small grids admit only the low ones
    s = draw(degrees)
    if command in ("tfd", "converge"):  # a degree list without repeats, which are refused before any solve
        more = draw(st.lists(degrees.filter(lambda v: v != s), max_size=2, unique=True))
        flags.update({"degrees": ",".join(map(str, [s, *more])), "epsilon": "1e-3"})
    else:
        flags["degree"] = s
    if command == "converge":
        flags.update({"target": draw(st.sampled_from(["arcsine", "cube", "ball", "simplex", "wball"])),
                      "tmax": draw(st.integers(0, 4))})
    if command == "simulate":  # observation counts below n are refused
        flags.update({"epsilon": "1e-3", "obs": draw(st.integers(1, 40)), "trials": draw(st.integers(1, 50))})
    if command == "oracle":  # atom counts below n are refused, and large brute-force sums too
        flags["atoms"] = draw(st.integers(1, 8))
    files = {}
    args = [str(v) for key, v in flags.items() for v in ("--" + key, v)]
    grid = _make_space(_resolve_config(_build_parser().parse_args([command, *args]))).grid
    weight = draw(st.sampled_from(["unit", "gaussian", "table"]))
    if weight == "table":  # the grid's first k points weigh 1, the rest 0
        k = draw(st.integers(0, len(grid)))
        files["weight"] = weight_to_json(table_weight(grid, np.r_[np.ones(k), np.zeros(len(grid) - k)]))
    if command == "gvalue" or command == "simulate" and draw(st.booleans()):  # equal masses on k spread grid points
        k = draw(st.integers(1, min(len(grid), 20)))
        idx = np.unique(np.linspace(0, len(grid) - 1, k).round().astype(int))
        files["design"] = design_to_json(make_design(grid[idx], np.full(idx.size, 1.0 / idx.size)), degree=s)
    return command, args, weight, files


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_small_runs())
def test_small_runs_exit_cleanly_and_write_strict_json(case):
    # every run succeeds, or fails with exit 2 or 3 and one line; no
    # traceback, and no JSON artifact holding NaN or Infinity
    command, args, weight, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for key, text in files.items():
            (tmp / f"{key}.json").write_text(text)
            args = [*args, f"--{key}", str(tmp / f"{key}.json")]
        if weight != "table":
            args = [*args, "--weight", weight]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)  # degrees above 12 in dimension 2
            rc = main([command, *args, "--out", str(tmp / "out")])
        err = err.getvalue()
        if rc == 0:
            assert err == ""
        else:
            assert (rc, err.split(": ")[0]) in {(2, "validation error"), (3, "numerical failure")}
            assert err.count("\n") == 1 and err.endswith("\n")
        for path in (tmp / "out").glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


def _spy(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends each call's first point-set size (or None) to log."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        sizes = [len(a) for a in args if isinstance(a, np.ndarray) and a.ndim == 2]
        log.append(sizes[0] if sizes else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("kind", ["table", "gaussian"])
def test_gvalue_evaluates_each_point_set_once(tmp_path, monkeypatch, kind):
    # the benchmark's disk cases, equal masses on every grid point at degree 8: one weight lookup
    # per point set, and K on the grid read from the Arnoldi rows that built the basis, not from a
    # second evaluation.  Under the Gaussian weight K is constant on each ring of 80 points, so
    # these K and g_value's (from replayed rows) differ by rounding only, and both name the first
    # point of the ring where K peaks
    space = disk()
    m = space.grid_size
    design = make_design(space.grid, np.full(m, 1 / m))
    dfile, wfile = tmp_path / "design.json", tmp_path / "weight.json"
    dfile.write_text(design_to_json(design, degree=8))
    weight = gaussian_weight()
    if kind == "table":
        weight = table_weight(space.grid, np.random.default_rng(0).uniform(0.5, 1.5, size=m))
        wfile.write_text(weight_to_json(weight))
    lookups, arnoldi, replays = [], [], []
    _spy(monkeypatch, measure.WeightFunction, "_lookup", lookups)
    _spy(monkeypatch, cli, "arnoldi_basis", arnoldi)
    _spy(monkeypatch, measure, "_replay", replays)  # every weighted_rows evaluation
    rc, out = run(tmp_path, "gvalue", "--domain", "disk", "--grid", "24", "--grid-angular", "80",
                  "--weight", str(wfile) if kind == "table" else kind, "--design", str(dfile))
    assert rc == 0
    assert len(arnoldi) == 1 and len(replays) == 1  # the grid's rows, then the atoms' rows
    assert len(lookups) == (2 if kind == "table" else 0)
    monkeypatch.undo()
    basis = arnoldi_basis(space.grid, weight.values(space.grid), 8)[0]
    gv = g_value(orthonormal_factor(moment_matrix(design, weight, 8, basis), weight), space)
    results = json.loads((out / "gvalue.json").read_text())["results"]
    assert results["g_value"] == pytest.approx(gv.value, rel=1e-12) and results["grid_index"] == gv.index
    if kind == "gaussian":
        assert (gv.index - 1) % 80 == 0


def test_oracle_reads_k_at_its_probe_points_in_one_call(tmp_path, monkeypatch):
    calls = []
    _spy(monkeypatch, gram, "_christoffel_rows", calls)
    rc, out = run(tmp_path, "oracle", "--domain", "disk", "--grid", "24", "--grid-angular", "80",
                  "--degree", "4", "--atoms", "8")
    assert rc == 0 and calls == [4]  # three atoms and the middle grid point
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert results["passed"] is True and len(results["christoffel"]) == 4


@pytest.mark.parametrize("c", [1e100, 1e-100, 1e300])
def test_oracle_divides_a_huge_or_tiny_table_by_a_power_of_two(tmp_path, c):
    # w^(2sn) overflowed (1e100, 1e300) or underflowed (1e-100): the run warned and exited 3
    grid = interval(grid=21).grid
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1.0, c):
            wfile = tmp_path / f"weight{value}.json"
            wfile.write_text(weight_to_json(table_weight(grid, np.full(21, value))))
            rc, out = run(tmp_path, "oracle", "--grid", "21", "--weight", str(wfile), "--degree", "2", "--atoms", "5")
            assert rc == 0
            results.append(json.loads((out / "oracle.json").read_text())["results"])
    unit, scaled = results
    assert unit["weight_divisor"] == 1.0 and scaled["passed"] is True
    divisor = scaled["weight_divisor"]
    assert math.frexp(divisor)[0] == 0.5 and 0.5 <= c / divisor < 1.0  # an exact power of two
    # K does not see the scale; each determinant is unit weight's times (c / divisor)^(2 s n)
    for k_unit, k_scaled in zip(unit["christoffel"], scaled["christoffel"]):
        assert k_scaled["christoffel"] == pytest.approx(k_unit["christoffel"], rel=1e-12)
    assert math.log(scaled["det_main"]) == pytest.approx(math.log(unit["det_main"]) + 12 * math.log(c / divisor))


@pytest.mark.parametrize("weight", ["unit", "gaussian"])
def test_oracle_keeps_unit_and_gaussian_weights_as_they_are(tmp_path, weight):
    rc, out = run(tmp_path, "oracle", "--grid", "51", "--weight", weight, "--degree", "3", "--atoms", "7")
    assert rc == 0
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert results["weight_divisor"] == 1.0 and results["passed"] is True


@pytest.mark.parametrize(
    "atoms, weights, got",
    [([-1.0, 1.0], [0.5, 0.5], 2), ([-1.0, 0.0, 1.0], [0.98, 0.01, 0.01], 1)],
)
def test_simulate_refuses_fewer_observed_atoms_than_coefficients(tmp_path, capsys, atoms, weights, got):
    # at 10 observations the second design's apportioned counts are [10, 0, 0]
    dfile = tmp_path / "design.json"
    dfile.write_text(design_to_json(make_design(atoms, weights), degree=2))
    rc, out = run(tmp_path, "simulate", "--design", str(dfile), "--obs", "10", "--trials", "10")
    assert rc == 2
    assert capsys.readouterr().err == f"validation error: need at least 3 observed atoms for degree 2, got {got}\n"
    assert not any(out.iterdir())
