"""D-optimal solver, certificates, and brute-force cross-checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    AdmissibilityError,
    SingularGramError,
    basis_for_space,
    christoffel_many,
    cube,
    d_optimal,
    disk,
    g_value,
    gaussian_weight,
    interval,
    make_design,
    moment_matrix,
    orthonormal_factor,
    prune_and_merge,
    table_weight,
    unit_weight,
    vdm_integral_christoffel,
    vdm_integral_det,
)
from optdesign import optimal


def _without_orbits(space):
    return dataclasses.replace(space, params={k: v for k, v in space.params.items() if k != "orbits"})


def _grid_christoffel(res, space, weight, s):
    """K of the returned design on the grid and at its atoms, from the design alone."""
    mm = moment_matrix(res.design, weight, s, basis_for_space(space, s))
    ev = orthonormal_factor(mm, weight)
    return christoffel_many(ev, space.grid), christoffel_many(ev, res.design.points)


def test_two_point_optimum_on_interval(cached_solve):
    # the degree-1 optimum is half mass on each endpoint, det M = 1
    res, _ = cached_solve("interval", 1, 1e-5)
    merged = prune_and_merge(res.design, merge_radius=0.05).design
    assert merged.size == 2
    assert np.allclose(np.sort(merged.points[:, 0].real), [-1.0, 1.0], atol=1e-6)
    assert np.allclose(merged.weights, 0.5, atol=1e-4)
    assert res.log_det == pytest.approx(0.0, abs=1e-4)


def test_certificate_invariants_across_degrees(cached_solve):
    for kind, grid_size, degrees in (
        ("interval", 401, (1, 3, 5)),
        ("disk", 24 * 80 + 1, (2, 4)),
    ):
        for s in degrees:
            res, _ = cached_solve(kind, s, 1e-5)
            n = res.n
            assert res.converged
            assert -1e-8 * n <= res.kw_gap <= 1e-5 * n
            assert res.g_value == pytest.approx(n, rel=2e-5)
            assert res.mass_identity_residual <= 1e-8 * n
            assert res.monotonicity_violation <= 1e-10
            assert res.design.weights.min() >= res.epsilon / (10.0 * grid_size)
            assert abs(res.design.weights.sum() - 1.0) < 1e-12


def test_g_value_recomputed_from_returned_design(cached_solve):
    res, _ = cached_solve("interval", 3, 1e-5)
    space = interval(a=1.0, grid=401, spacing="chebyshev")
    basis = basis_for_space(space, 3)
    mm = moment_matrix(res.design, unit_weight(), 3, basis)
    ev = orthonormal_factor(mm, unit_weight())
    gv = g_value(ev, space)
    assert gv.value == pytest.approx(res.g_value, rel=1e-3)
    assert space.contains(gv.argmax)


def test_custom_init_reaches_the_same_optimum():
    # two starts may each sit a duality gap below the optimum, so the
    # determinants can differ by at most 2 * epsilon * n
    space = interval(grid=31)
    rng = np.random.default_rng(0)
    init = rng.uniform(0.5, 1.5, 31)
    base = d_optimal(space, unit_weight(), 2, epsilon=1e-6)
    other = d_optimal(space, unit_weight(), 2, epsilon=1e-6, init=init)
    assert base.log_det == pytest.approx(other.log_det, abs=1e-5)


def test_bad_init_rejected():
    space = interval(grid=21)
    with pytest.raises(ValueError):
        d_optimal(space, unit_weight(), 1, init=np.ones(5))
    with pytest.raises(ValueError):
        d_optimal(space, unit_weight(), 1, init=-np.ones(21))


def test_singular_init_raises():
    space = interval(grid=21)
    init = np.zeros(21)
    init[0] = init[-1] = 0.5  # two atoms cannot carry a degree-2 design
    with pytest.raises(SingularGramError):
        d_optimal(space, unit_weight(), 2, init=init)


def test_epsilon_must_be_positive():
    for epsilon in (0.0, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            d_optimal(interval(grid=21), unit_weight(), 1, epsilon=epsilon)


def test_negative_iteration_budget_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        d_optimal(interval(grid=21), unit_weight(), 1, max_iter=-1)


def test_zero_iteration_budget_certifies_the_starting_design():
    # the loop still evaluates K once, so the reported gap is a real one
    res = d_optimal(interval(grid=21), unit_weight(), 2, epsilon=1e-9, max_iter=0)
    assert res.iterations == 0 and not res.converged
    assert res.g_value >= res.n
    assert res.kw_gap == pytest.approx(res.g_value - res.n)
    assert np.all(res.support_K_values > 0)
    assert math.isfinite(res.log_det)


def test_infeasible_weight_raises_admissibility_error():
    space = interval(grid=21)
    weight = table_weight(space.grid, np.r_[1.0, 1.0, np.zeros(19)])
    with pytest.raises(AdmissibilityError):
        d_optimal(space, weight, 2)


def test_iteration_budget_reported_when_hit():
    res = d_optimal(interval(grid=51), unit_weight(), 2, epsilon=1e-9, max_iter=10)
    assert not res.converged
    assert res.iterations == 10
    assert res.kw_gap > 1e-9 * res.n


def test_gaussian_weight_moves_support_off_the_endpoints():
    # degree 1 under w = exp(-x^2): mass splits between +-1/2
    space = interval(grid=201)
    res = d_optimal(space, gaussian_weight(), 1, epsilon=1e-5)
    top = res.design.points[np.argsort(res.design.weights)[-2:], 0].real
    assert np.allclose(np.sort(np.abs(top)), 0.5, atol=0.02)


def test_weighted_disk_design_is_radially_symmetric(cached_solve):
    res, _ = cached_solve("disk", 2, 1e-5)
    z = res.design.points[:, 0]
    w = res.design.weights
    radii = np.round(np.abs(z), 9)
    for r in np.unique(radii):
        ring = w[radii == r]
        assert ring.max() - ring.min() < 1e-12
    # total mass on each ring matches the rotation-invariant optimum
    assert abs(w.sum() - 1.0) < 1e-12


def test_brute_force_det_two_atoms_closed_form():
    # det M = p q (a - b)^2 for two atoms at a, b with masses p, q
    design = make_design([0.3, -0.8], [0.6, 0.4])
    expect = 0.6 * 0.4 * (0.3 + 0.8) ** 2
    assert vdm_integral_det(design, unit_weight(), 1) == pytest.approx(expect, rel=1e-14)
    mm = moment_matrix(design, unit_weight(), 1, basis_for_space(interval(grid=5), 1, "monomial"))
    assert math.exp(mm.log_det) == pytest.approx(expect, rel=1e-13)


def test_brute_force_det_vanishes_without_enough_atoms():
    design = make_design([0.0, 1.0], [0.5, 0.5])
    assert vdm_integral_det(design, unit_weight(), 2) == 0.0
    with pytest.raises(SingularGramError):
        vdm_integral_christoffel(design, unit_weight(), 2, 0.5)


def test_brute_force_guard_refuses_huge_enumerations():
    design = make_design(np.linspace(-1, 1, 12), np.full(12, 1 / 12))
    with pytest.raises(ValueError):
        vdm_integral_det(design, unit_weight(), 9)


def test_orbit_compression_matches_the_per_point_solve(cached_solve, gauss_disk):
    # compression is exact: on 96 rings more than 40 orbits carry mass for
    # the first 200 steps, so both solves take only multiplicative steps,
    # the flat one on all 3841 points
    fine = disk(radial=96, angular=40)
    rings = d_optimal(fine, gaussian_weight(), 4, epsilon=1e-5, max_iter=200)
    points = d_optimal(_without_orbits(fine), gaussian_weight(), 4, epsilon=1e-5, max_iter=200)
    assert rings.iterations == points.iterations == 200
    assert points.log_det == pytest.approx(rings.log_det, abs=1e-12)
    assert np.array_equal(points.design.points, rings.design.points)
    # certified, both reach the optimum within epsilon * n; every atom of
    # the orbit design is an atom of the flat one, whose other atoms sit
    # where K < n at the optimum and carry only its multiplicative tail
    res, _ = cached_solve("disk", 4, 1e-5)
    flat = d_optimal(_without_orbits(gauss_disk), gaussian_weight(), 4, epsilon=1e-5)
    assert res.converged and flat.converged
    assert abs(flat.log_det - res.log_det) <= res.epsilon * res.n
    orbit_atoms = set(res.design.points[:, 0].tolist())
    assert orbit_atoms <= set(flat.design.points[:, 0].tolist())
    extra = np.array([z not in orbit_atoms for z in flat.design.points[:, 0].tolist()])
    mm = moment_matrix(res.design, gaussian_weight(), 4, basis_for_space(gauss_disk, 4))
    K_extra = christoffel_many(orthonormal_factor(mm, gaussian_weight()), flat.design.points[extra])
    assert np.all(K_extra < res.n)


def test_pruning_every_weight_is_a_numerical_error():
    # epsilon so large that the threshold epsilon / (10 m) exceeds every weight
    with pytest.raises(FloatingPointError, match="pruning threshold"):
        d_optimal(interval(grid=21), unit_weight(), 1, epsilon=1e3)


def test_underflowing_weight_power_is_a_singular_gram_error():
    # w^24 underflows far from the origin of [-30, 30]: rank is lost at the start
    with pytest.raises(SingularGramError, match="iteration 0 from a uniform start"):
        d_optimal(interval(a=30.0), gaussian_weight(), 12)


def test_centerless_disk_orbits_solve_without_warnings(cached_solve):
    # its rings are numbered from 1, so orbit id 0 has no points; the s = 2
    # optimum puts no mass on the center, and the solve takes one step fewer
    # than on the full disk and reaches the same design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = d_optimal(disk(include_center=False), gaussian_weight(), 2, epsilon=1e-5)
    full = cached_solve("disk", 2, 1e-5)[0]
    assert res.converged and res.iterations == full.iterations - 1
    assert res.log_det == pytest.approx(full.log_det, abs=1e-12)
    assert np.array_equal(res.design.points, full.design.points)


def test_tight_interval_and_fine_disk_take_a_tenth_of_the_multiplicative_steps(cached_solve):
    # the multiplicative update alone took 31,982 and 8,688 steps here
    res, _ = cached_solve("interval", 1, 1e-5)
    assert res.converged and res.iterations <= 3198
    fine = d_optimal(disk(radial=96, angular=40), gaussian_weight(), 2, epsilon=1e-5)
    assert fine.converged and fine.iterations <= 868


@pytest.mark.parametrize(
    "space, weight, s, epsilon",
    [
        (disk(), gaussian_weight(), 2, 1e-5),
        (disk(), gaussian_weight(), 8, 1e-5),
        (interval(grid=401), unit_weight(), 1, 1e-5),
        (interval(grid=401), unit_weight(), 4, 1e-5),
        (cube(2, per_axis=33), unit_weight(), 4, 1e-5),
    ],
    ids=["disk-s2", "disk-s8", "interval-s1", "interval-s4", "cube-s4"],
)
def test_newton_steps_never_lower_log_det(monkeypatch, space, weight, s, epsilon):
    taken = []

    def counted(*args):
        step = newton_step(*args)
        taken.append(step is not None)
        return step

    newton_step = optimal._newton_step
    monkeypatch.setattr(optimal, "_newton_step", counted)
    res = d_optimal(space, weight, s, epsilon=epsilon)
    assert res.converged and any(taken)
    assert res.monotonicity_violation <= 1e-10
    assert res.mass_identity_residual <= 1e-8 * res.n


def _hp_bound(gap, n):
    # Harman & Pronzato (2007): K below n * h(gap / n) excludes a point from every optimum
    e = gap / n
    return n * (1 + e / 2 - math.sqrt(e * (4 + e - 4 / n)) / 2)


@pytest.mark.parametrize("kind, s", [("interval", 1), ("interval", 5), ("disk", 2), ("disk", 8), ("cube", 4)])
def test_elimination_keeps_every_support_atom(cached_solve, cheb_interval, gauss_disk, kind, s):
    # the elimination rule, applied to the certified design on the full
    # grid, keeps every atom the solver returned (up to rounding: at an
    # exact optimum the bound is n and every atom has K = n)
    if kind == "cube":
        space, weight = cube(2, per_axis=33), unit_weight()
        res = d_optimal(space, weight, s, epsilon=1e-5)
    else:
        space, weight = (cheb_interval, unit_weight()) if kind == "interval" else (gauss_disk, gaussian_weight())
        res, _ = cached_solve(kind, s, 1e-5)
    K_grid, K_atoms = _grid_christoffel(res, space, weight, s)
    gap = max(float(K_grid.max()) - res.n, 0.0)
    assert gap <= 2 * res.epsilon * res.n
    assert np.all(K_atoms >= _hp_bound(gap, res.n) - 1e-12 * res.n)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(s=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), k=st.integers(-8, 8).filter(bool))
def test_scaling_the_weight_leaves_the_design_unchanged(s, seed, k):
    # w -> 2^k w multiplies det M by 2^(2 s k n) and nothing else; a power
    # of two scales every floating-point value exactly, so the design and
    # the certificate must come out the same
    space = interval(grid=41)
    values = np.random.default_rng(seed).uniform(0.5, 1.5, space.grid_size)
    base = d_optimal(space, table_weight(space.grid, values), s, epsilon=1e-6)
    scaled = d_optimal(space, table_weight(space.grid, values * 2.0**k), s, epsilon=1e-6)
    assert np.array_equal(base.design.points, scaled.design.points)
    assert np.allclose(base.design.weights, scaled.design.weights, rtol=0, atol=1e-12)
    assert scaled.kw_gap == pytest.approx(base.kw_gap, abs=1e-12 * base.n)
    assert scaled.log_det == pytest.approx(base.log_det + 2 * s * k * base.n * math.log(2), abs=1e-9)
    for res in (base, scaled):
        assert res.converged
        assert res.mass_identity_residual <= 1e-8 * res.n


def test_orbits_eliminated_by_mistake_come_back(monkeypatch):
    # a bound of n, far above Harman-Pronzato's, drops orbits the optimum
    # needs; the full-grid certificate catches it, every orbit comes back
    # (the live rows grow again) and the solve still reaches the optimum
    space = interval(grid=101)
    ref = d_optimal(space, unit_weight(), 3, epsilon=1e-6)
    rows = []
    evaluate = optimal._evaluate

    def recorded(R, *args):
        rows.append(R.shape[0])
        return evaluate(R, *args)

    monkeypatch.setattr(optimal, "_evaluate", recorded)
    monkeypatch.setattr(optimal, "_hp_bound", lambda gap, n: float(n))
    res = d_optimal(space, unit_weight(), 3, epsilon=1e-6)
    assert any(a < b == space.grid_size for a, b in zip(rows, rows[1:]))
    assert res.converged and abs(res.log_det - ref.log_det) <= res.epsilon * res.n
    K_grid, _ = _grid_christoffel(res, space, unit_weight(), 3)
    assert float(K_grid.max()) - res.n <= 2 * res.epsilon * res.n


def test_start_without_mass_on_the_optimal_support_still_certifies():
    # multiplicative steps cannot move mass onto a massless point; Newton
    # releases the endpoints because their K exceeds n
    init = np.ones(101)
    init[[0, -1]] = 0.0
    res = d_optimal(interval(grid=101), unit_weight(), 1, epsilon=1e-6, init=init)
    assert res.converged
    assert np.allclose(np.sort(res.design.points[:, 0].real), [-1.0, 1.0])
    assert np.allclose(res.design.weights, 0.5, atol=1e-6)
