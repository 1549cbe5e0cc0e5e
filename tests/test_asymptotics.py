"""Perturbation identities and weak-* convergence diagnostics."""

import itertools
import math

import numpy as np
import pytest

from optdesign import (
    arcsine,
    basis_for_space,
    concavity_probe,
    convergence_sweep,
    degree_sum,
    disk,
    f_of_t,
    first_derivative_residual,
    gaussian_weight,
    interval,
    kolmogorov_distance,
    make_design,
    moment_distance,
    moment_matrix,
    table_weight,
    uniform_design,
    unit_weight,
    weighted_ball_measure,
)
from optdesign import asymptotics, gram, measure

SPACE = interval(a=1.0, grid=401, spacing="chebyshev")


def quantile_design(s):
    """s + 1 atoms at the arcsine quantile midpoints, equal masses."""
    q = (np.arange(s + 1) + 0.5) / (s + 1)
    return uniform_design(np.sin(math.pi * (q - 0.5)))


def test_kolmogorov_distance_of_quantile_designs():
    # equal masses at quantile midpoints sit exactly 1/(2(s+1)) from the cdf
    for s in (1, 2, 4, 8, 16):
        d = quantile_design(s)
        expect = 0.5 / (s + 1)
        assert kolmogorov_distance(d, arcsine()) == pytest.approx(expect, abs=1e-12)


def test_kolmogorov_distance_single_atom():
    d = make_design([0.0], [1.0])
    assert kolmogorov_distance(d, arcsine()) == pytest.approx(0.5, abs=1e-15)


def test_kolmogorov_distance_rejects_bad_designs():
    with pytest.raises(ValueError):
        kolmogorov_distance(make_design([0.5j], [1.0]), arcsine())
    with pytest.raises(ValueError):
        kolmogorov_distance(make_design([[0.1, 0.2]], [1.0]), arcsine())


def test_moment_distance_endpoint_design():
    # half mass at +-1: worst monomial up to degree 6 is x^6, 1 - 5/16
    d = make_design([-1.0, 1.0], [0.5, 0.5])
    assert moment_distance(d, arcsine(), t_max=6) == pytest.approx(11.0 / 16.0, abs=1e-9)


@pytest.mark.parametrize("target", [arcsine(), weighted_ball_measure()], ids=["arcsine", "wball"])
def test_moment_distance_rejects_a_negative_t_max(target):
    # a negative t_max compares no monomial: the distance would read 0
    with pytest.raises(ValueError, match="t_max must be nonnegative, got -3"):
        moment_distance(make_design([0.5], [1.0]), target, t_max=-3)


def test_moment_distance_uniform_ring_vs_weighted_ball():
    # 16th roots of unity scaled to |z| = 1/2; worst mixed moment is |z|^4
    z = 0.5 * np.exp(2j * math.pi * np.arange(16) / 16)
    d = uniform_design(z)
    expect = abs(0.5**4 - 0.5**2 / 3.0)  # 1/48
    assert moment_distance(d, weighted_ball_measure(), t_max=6) == pytest.approx(
        expect, abs=1e-12
    )


def test_moment_distance_in_c2_vanishes_on_an_exact_rule():
    # (|z_1|^2, |z_2|^2) = (x/2, (1 - x) y/2) maps the unit square onto the image of the uniform
    # measure on |z| <= 1/sqrt(2) in C^2, with density 2 (1 - x): 3-point Gauss-Legendre in x and y
    # integrates its moments of order <= 4 exactly, and 5 equal phases per coordinate average every
    # z^beta conj(z)^gamma with beta != gamma to 0
    t, w = np.polynomial.legendre.leggauss(3)
    nodes = list(zip((t + 1) / 2, w / 2))
    phases = np.exp(2j * math.pi * np.arange(5) / 5)
    atoms, masses = [], []
    for (x, wx), (y, wy) in itertools.product(nodes, repeat=2):
        radii = np.sqrt([x / 2, (1 - x) * y / 2])
        for p in itertools.product(phases, repeat=2):
            atoms.append(radii * p)
            masses.append(2 * (1 - x) * wx * wy / 25)
    target = weighted_ball_measure(2)
    assert moment_distance(make_design(atoms, masses), target, t_max=4) <= 1e-12
    assert moment_distance(make_design(0.9 * np.array(atoms), masses), target, t_max=4) > 1e-2


def test_convergence_sweep_refuses_a_weight_without_a_closed_form_limit(monkeypatch):
    monkeypatch.setattr(asymptotics, "d_optimal", lambda *args, **kwargs: pytest.fail("solved before the check"))
    space = interval(grid=21)
    with pytest.raises(ValueError, match="the interval target needs the unit weight, not the table weight"):
        convergence_sweep(space, table_weight(space.grid, np.ones(21)), [1], arcsine())


def test_f_of_t_at_zero_matches_unperturbed_matrix():
    design = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
    basis = basis_for_space(SPACE, 2)
    mm = moment_matrix(design, unit_weight(), 2, basis)
    m_s = degree_sum(1, 2)
    expect = -mm.log_det_monomial / (2.0 * m_s)
    assert f_of_t(SPACE, unit_weight(), 2, lambda z: 0.0, 0.0, design) == pytest.approx(
        expect, abs=1e-13
    )


def test_constant_field_gives_exactly_linear_f():
    # u = c shifts every weight equally: f(t) = f(0) + 2 c t, slope (d+1)/d * c
    design = make_design([-1.0, 1.0], [0.5, 0.5])
    u = lambda z: 0.7
    f0 = f_of_t(SPACE, unit_weight(), 1, u, 0.0, design)
    f1 = f_of_t(SPACE, unit_weight(), 1, u, 0.5, design)
    assert f1 - f0 == pytest.approx(2.0 * 0.7 * 0.5, abs=1e-12)
    assert first_derivative_residual(SPACE, unit_weight(), 1, u, design) < 1e-10


def test_derivative_identity_on_exact_classical_designs():
    fields = (lambda z: np.real(z), lambda z: np.real(z) ** 2)
    cases = (
        (1, make_design([-1.0, 1.0], [0.5, 0.5])),
        (2, make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))),
    )
    for s, design in cases:
        for u in fields:
            assert first_derivative_residual(SPACE, unit_weight(), s, u, design) < 1e-6


def test_concavity_on_exact_design():
    design = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
    worst = concavity_probe(
        SPACE, unit_weight(), 2, lambda z: np.real(z) ** 2, design, np.linspace(-1, 1, 9)
    )
    assert worst <= 1e-10


def test_concavity_probe_evaluates_the_atoms_once(monkeypatch):
    # the benchmark's probe: nine t values share one evaluation of the atoms' rows and weight,
    # and factor once each
    design = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
    u = lambda z: np.real(z) ** 2
    t_grid = np.linspace(-1, 1, 9)
    f = np.array([f_of_t(SPACE, unit_weight(), 2, u, t, design) for t in t_grid])
    calls = {"values": [], "_replay": [], "_factor": []}
    for owner, name in ((measure.WeightFunction, "values"), (measure, "_replay"), (gram, "_factor")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, log=calls[name]: log.append(args) or real(*args))
    worst = concavity_probe(SPACE, unit_weight(), 2, u, design, t_grid)
    atoms = [args for args in calls["values"] if len(args[1]) == design.size]
    assert len(atoms) == 1 and len(calls["_replay"]) == 1 and len(calls["_factor"]) == 9
    assert worst == max(f[:-2] - 2 * f[1:-1] + f[2:])  # the same values as one f_of_t per t


def test_concavity_probe_needs_three_points():
    design = make_design([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        concavity_probe(SPACE, unit_weight(), 1, lambda z: 0.0, design, [0.0, 1.0])


def _assembled_f(design, s, u_vals, t, gaussian):
    """f(t) from an explicit monomial assembly of sum mu_k w_k^(2s) exp(-2 s t u_k) conj(p) p^T, d = 1."""
    z = design.points[:, 0]
    P = z[:, None] ** np.arange(s + 1)
    w2s = np.exp(-2 * s * np.abs(z) ** 2) if gaussian else 1.0
    c = design.weights * w2s * np.exp(-2 * s * t * u_vals)
    M = (P.conj().T * c) @ P
    return -np.linalg.slogdet(M)[1] / (2.0 * degree_sum(1, s))


@pytest.mark.parametrize("t", [-1.0, -0.1, 0.3, 1.0])
def test_f_of_t_matches_an_explicit_monomial_assembly(t):
    # the perturbation enters as reweighted masses: M(mu, w e^(-tu)) = Z M(mu e^(-2stu) / Z, w)
    line = make_design(np.linspace(-0.9, 1.0, 5), [0.1, 0.3, 0.2, 0.25, 0.15])
    u = lambda z: np.real(z) ** 2 - 0.4 * np.real(z)
    u_vals = np.real(line.points[:, 0]) ** 2 - 0.4 * np.real(line.points[:, 0])
    got = f_of_t(SPACE, unit_weight(), 3, u, t, line)
    assert got == pytest.approx(_assembled_f(line, 3, u_vals, t, gaussian=False), abs=1e-12)
    ring = np.exp(2j * math.pi * np.arange(3) / 3)
    atoms = np.concatenate([[0.0], 0.5 * ring, 0.9 * ring * np.exp(1j * math.pi / 3)])
    disk_design = make_design(atoms, np.arange(1.0, 8.0) / 28.0)
    u = lambda z: np.real(z) ** 2 + 0.5 * np.imag(z)
    u_vals = atoms.real**2 + 0.5 * atoms.imag
    got = f_of_t(disk(radial=4, angular=12), gaussian_weight(), 3, u, t, disk_design)
    assert got == pytest.approx(_assembled_f(disk_design, 3, u_vals, t, gaussian=True), abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_f_of_t_refuses_a_non_finite_field(bad):
    design = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="non-finite"):
        f_of_t(SPACE, unit_weight(), 2, lambda z: bad if np.real(z) > 0 else 0.0, 0.3, design)


def test_perturbed_singular_matrix_raises():
    design = make_design([-1.0, 1.0], [0.5, 0.5])  # rank 2 < 3 at degree 2
    with pytest.raises(ArithmeticError):
        f_of_t(SPACE, unit_weight(), 2, lambda z: 0.0, 0.0, design)


def test_convergence_sweep_checks_t_max_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("d_optimal called before t_max was checked")

    monkeypatch.setattr(asymptotics, "d_optimal", no_solve)
    with pytest.raises(ValueError, match="t_max must be nonnegative, got -1"):
        convergence_sweep(interval(), unit_weight(), [8, 16], arcsine(), t_max=-1)


def test_convergence_sweep_rows(cached_solve):
    report = convergence_sweep(SPACE, unit_weight(), [2, 1], arcsine())
    assert report.space_kind == "interval" and report.target_kind == "interval"
    assert [r.s for r in report.rows] == [1, 2]
    for row, s in zip(report.rows, (1, 2)):
        assert row.n == s + 1
        assert row.m_s == s * (s + 1) // 2
        assert row.kw_gap == cached_solve("interval", s, 1e-5)[0].kw_gap  # the solve is deterministic
        assert row.ks_distance is not None


def test_convergence_sweep_complex_case_has_no_cdf_column():
    from optdesign import disk, gaussian_weight

    report = convergence_sweep(disk(), gaussian_weight(), [2], weighted_ball_measure(), t_max=4)
    assert report.rows[0].ks_distance is None
    assert report.rows[0].moment_distance < 0.1
