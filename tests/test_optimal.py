"""D-optimal solver, certificates, and brute-force cross-checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from optdesign import (
    AdmissibilityError,
    SingularGramError,
    basis_for_space,
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
    # the same disk without recorded orbits iterates on all 1921 points
    res, _ = cached_solve("disk", 4, 1e-5)
    params = {k: v for k, v in gauss_disk.params.items() if k != "orbits"}
    flat = d_optimal(dataclasses.replace(gauss_disk, params=params), gaussian_weight(), 4, epsilon=1e-5)
    assert flat.iterations == res.iterations
    assert flat.log_det == pytest.approx(res.log_det, abs=1e-12)
    assert np.array_equal(flat.design.points, res.design.points)


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
    # optimum puts no mass on the center, and the solve takes as many
    # iterations as on the full disk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = d_optimal(disk(include_center=False), gaussian_weight(), 2, epsilon=1e-5)
    assert res.converged and res.iterations == cached_solve("disk", 2, 1e-5)[0].iterations
