"""D-optimal solver, certificates, and brute-force cross-checks."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optdesign import (
    AdmissibilityError,
    SingularGramError,
    approx_fekete,
    ball,
    basis_for_space,
    check_admissible,
    christoffel,
    christoffel_many,
    cube,
    custom_grid,
    d_optimal,
    degree_sum,
    disk,
    eval_basis,
    eval_basis_many,
    g_value,
    gaussian_weight,
    interval,
    make_design,
    moment_matrix,
    monomial_basis,
    orthonormal_factor,
    prune_and_merge,
    simplex,
    table_weight,
    unit_weight,
    vdm_integral_christoffel,
    vdm_integral_det,
)
from optdesign import optimal
from optdesign.measure import _greedy_rows, weighted_rows


def _without_orbits(space):
    return dataclasses.replace(space, orbits=None)


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


def test_g_argmax_follows_the_tie_rule_of_g_value():
    # K is 6 to 1e-15 at grid points 0, (0, 0), and 12, (0, 0.5): both name the lowest index
    space = simplex(2)
    res = d_optimal(space, unit_weight(), 2)
    gv = g_value(orthonormal_factor(moment_matrix(res.design, unit_weight(), 2, basis_for_space(space, 2)),
                                    unit_weight()), space)
    assert gv.index == 0
    assert np.array_equal(res.g_argmax, gv.argmax) and np.array_equal(res.g_argmax, space.grid[0])


def test_epsilon_must_be_positive():
    for epsilon in (0.0, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            d_optimal(interval(grid=21), unit_weight(), 1, epsilon=epsilon)


def test_negative_iteration_budget_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        d_optimal(interval(grid=21), unit_weight(), 1, max_iter=-1)


def test_zero_iteration_budget_certifies_the_starting_design():
    # the loop still evaluates K once, so the reported gap is a real one;
    # this solve takes 10 steps when it may
    res = d_optimal(cube(2, per_axis=33), unit_weight(), 4, epsilon=1e-9, max_iter=0)
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
    res = d_optimal(cube(2, per_axis=33), unit_weight(), 4, epsilon=1e-9, max_iter=5)
    assert not res.converged
    assert res.iterations == 5
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
    mm = moment_matrix(design, unit_weight(), 1, monomial_basis(1, 1))
    assert math.exp(mm.log_det) == pytest.approx(expect, rel=1e-13)


def test_brute_force_det_vanishes_without_enough_atoms():
    design = make_design([0.0, 1.0], [0.5, 0.5])
    assert vdm_integral_det(design, unit_weight(), 2) == 0.0
    with pytest.raises(SingularGramError):
        vdm_integral_christoffel(design, unit_weight(), 2, 0.5)


def _per_subset_oracles(design, weight, s, z):
    """det M and K(z) by the textbook sums, one determinant per index subset."""
    basis = monomial_basis(design.dimension, s)
    B = eval_basis_many(basis, design.points)
    c = weight.values(design.points) ** (2 * s) * design.weights
    n = B.shape[1]
    subsets = list(itertools.combinations(range(len(c)), n))
    det = sum(abs(np.linalg.det(B[list(S)])) ** 2 * np.prod(c[list(S)]) for S in subsets)
    row = eval_basis(basis, z)
    tot = sum(
        abs(np.linalg.det(np.vstack([row, B[list(S)]]))) ** 2 * np.prod(c[list(S)])
        for S in itertools.combinations(range(len(c)), n - 1)
    )
    return det, n / (math.factorial(n) * det) * math.factorial(n - 1) * float(weight(z)) ** (2 * s) * tot


@pytest.mark.parametrize("space, s, atoms", [(interval(), 3, 9), (disk(), 4, 8)], ids=["interval-s3", "disk-s4"])
def test_stacked_oracles_match_a_per_subset_loop(space, s, atoms):
    # nine evenly spread grid atoms at degree 3 on the interval, eight at degree 4 on the disk
    idx = np.unique(np.linspace(0, space.grid_size - 1, atoms).round().astype(int))
    w = np.arange(1.0, idx.size + 1)
    design = make_design(space.grid[idx], w / w.sum())
    for z in [*design.points[:3], space.grid[space.grid_size // 2]]:
        det, K = _per_subset_oracles(design, unit_weight(), s, z)
        assert vdm_integral_det(design, unit_weight(), s) == pytest.approx(det, rel=1e-13)
        assert vdm_integral_christoffel(design, unit_weight(), s, z) == pytest.approx(K, rel=1e-13)


_ORACLE_SPACES = {"interval": interval(), "disk": disk(), "cube": cube(2)}


@st.composite
def _small_designs(draw):
    """(space, weight, s, design, probe): n to 8 distinct grid atoms with random masses, and a grid point."""
    space = _ORACLE_SPACES[draw(st.sampled_from(sorted(_ORACLE_SPACES)))]
    s = draw(st.integers(1, 2 if space.dimension == 2 else 3))
    n = basis_for_space(space, s).n
    idx = draw(st.lists(st.integers(0, space.grid_size - 1), min_size=n, max_size=8, unique=True))
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(idx), max_size=len(idx))))
    weight = draw(st.sampled_from([unit_weight(), gaussian_weight()]))
    probe = space.grid[draw(st.integers(0, space.grid_size - 1))]
    return space, weight, s, make_design(space.grid[idx], mass / mass.sum()), probe


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_small_designs())
def test_gram_log_det_and_christoffel_match_the_brute_force_oracles(case):
    # on the plane n atoms need not be unisolvent (four on one grid line
    # put six on a conic); there det M = 0 and neither side has a relative error
    space, weight, s, design, probe = case
    basis = basis_for_space(space, s)
    assume(np.linalg.matrix_rank(eval_basis_many(monomial_basis(space.dimension, s), design.points)) == basis.n)
    mm = moment_matrix(design, weight, s, basis)
    # 1e-10 relative, widened by the forward error n cond(M) eps that the
    # Cholesky of M itself carries: a 4-atom interval design with cond(M)
    # 7e8 is off by 1.8e-8 in log det, while the oracle is exact to 5e-14
    tol = 1e-10 + basis.n * np.linalg.cond(mm.matrix) * np.finfo(float).eps
    assert mm.log_det_monomial == pytest.approx(math.log(vdm_integral_det(design, weight, s)), abs=tol)
    ev = orthonormal_factor(mm, weight)
    for z in (design.points[0], probe):
        assert christoffel(ev, z) == pytest.approx(vdm_integral_christoffel(design, weight, s, z), rel=tol)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_small_designs())
def test_gram_factor_error_follows_the_picked_rows_not_the_moment_matrix(case):
    # the factor is taken in the Lagrange basis of n greedily picked rows of
    # S = sqrt(mu) A, so its forward error is n cond(S[picks]) eps, about
    # the square root of the n cond(M) eps the test above allows
    space, weight, s, design, probe = case
    basis = basis_for_space(space, s)
    assume(np.linalg.matrix_rank(eval_basis_many(monomial_basis(space.dimension, s), design.points)) == basis.n)
    S = np.sqrt(design.weights)[:, None] * weighted_rows(basis, design.points, weight.values(design.points))
    tol = 1e-12 + basis.n * np.linalg.cond(S[_greedy_rows(S)]) * np.finfo(float).eps
    mm = moment_matrix(design, weight, s, basis)
    assert mm.log_det_monomial == pytest.approx(math.log(vdm_integral_det(design, weight, s)), abs=tol)
    ev = orthonormal_factor(mm, weight)
    for z in (design.points[0], probe):
        assert christoffel(ev, z) == pytest.approx(vdm_integral_christoffel(design, weight, s, z), rel=tol)


def test_found_case_log_det_matches_a_60_digit_determinant():
    # four interval atoms, two of them 0.008 apart: cond(M) ~ 1e9, and the
    # Cholesky of M was off by 3.8e-10 in log det
    mp = pytest.importorskip("mpmath")
    x = [-0.331, 0.876, 0.884, 0.992]
    design = make_design(x, np.full(4, 0.25))
    with mp.workdps(60):
        M = mp.matrix([[sum(mp.mpf(0.25) * mp.mpf(xk) ** (i + j) for xk in x) for j in range(4)] for i in range(4)])
        ref = float(mp.log(mp.det(M)))
    for basis, tol in ((monomial_basis(1, 3), 1e-13), (basis_for_space(interval(), 3), 1e-12)):
        assert moment_matrix(design, unit_weight(), 3, basis).log_det_monomial == pytest.approx(ref, abs=tol)


def test_brute_force_guard_refuses_huge_enumerations():
    design = make_design(np.linspace(-1, 1, 12), np.full(12, 1 / 12))
    with pytest.raises(ValueError):
        vdm_integral_det(design, unit_weight(), 9)


def test_orbit_compression_matches_the_per_point_solve(gauss_disk):
    # compression is exact: at epsilon 1e-7 the ring solve (6 steps) and the
    # solve on all 1921 points (14 steps) reach the same optimum (at 1e-5 the
    # ring solve stops a step earlier, 5e-9 below it in log det, inside the
    # n * epsilon its certificate allows); the flat one need not spread a
    # ring's mass evenly over it
    res = d_optimal(gauss_disk, gaussian_weight(), 4, epsilon=1e-7)
    flat = d_optimal(_without_orbits(gauss_disk), gaussian_weight(), 4, epsilon=1e-7)
    assert res.converged and flat.converged and flat.iterations > res.iterations > 0
    assert flat.log_det == pytest.approx(res.log_det, abs=1e-9)
    # every atom of the flat design sits on a ring of the orbit design, and
    # each ring carries the same total mass in both
    radii = np.round(np.abs(res.design.points[:, 0]), 9)
    flat_radii = np.round(np.abs(flat.design.points[:, 0]), 9)
    assert set(flat_radii.tolist()) <= set(radii.tolist())
    for r in np.unique(radii):
        assert flat.design.weights[flat_radii == r].sum() == pytest.approx(res.design.weights[radii == r].sum(), abs=1e-4)


@pytest.mark.parametrize("c", [1e100, 1e300, 1e-100])
def test_huge_and_tiny_constant_weights_certify_with_log_det_shifted_by_2_n_s_log_c(c):
    # the Arnoldi rows start from (w / max w)^s, so w^(2s) never has to be formed
    space, s, n = interval(grid=21), 2, 3
    base = d_optimal(space, unit_weight(), s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = d_optimal(space, table_weight(space.grid, np.full(21, c)), s)
    assert res.converged and res.iterations == base.iterations
    assert res.log_det == pytest.approx(base.log_det + 2 * n * s * math.log(c), rel=1e-14)


@pytest.mark.parametrize("a", [1e150, 1e160, 1e300])
def test_a_huge_interval_certifies_with_log_det_shifted_by_2_m_s_log_a(a):
    # column norms come from entries scaled by a power of two, so x^2 never overflows
    base = d_optimal(interval(grid=11), unit_weight(), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = d_optimal(interval(a=a, grid=11), unit_weight(), 2)
    assert res.converged and res.iterations == base.iterations
    assert res.log_det == pytest.approx(base.log_det + 2 * degree_sum(1, 2) * math.log(a), rel=1e-14)


@pytest.mark.parametrize("a", [1e-150, 1e-20, 1e-12, 1e-9, 1.0, 1e150])
def test_a_tiny_or_huge_interval_returns_the_scaled_unit_design(a):
    # atoms count as distinct beyond 1e-12 of the design's own scale, so
    # grid points 1e-151 apart stay two atoms
    res = d_optimal(interval(a=a, grid=11), unit_weight(), 2)
    assert res.converged
    assert np.allclose(res.design.points[:, 0].real / a, [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)
    assert np.allclose(res.design.weights, 1 / 3, rtol=0, atol=1e-12)
    if a <= 1.0:  # atoms closer than 1e-12 of that scale still coincide
        with pytest.raises(ValueError, match="atoms 0 and 1 coincide within"):
            make_design(a * np.array([1.0, 1.0 - 1e-13]), [0.5, 0.5])


def test_a_large_epsilon_still_returns_a_converged_design():
    # epsilon / (10 m) would exceed every weight; the threshold is capped at
    # 1 / (10 m), below the heaviest point's mass of at least 1 / m
    for grid, s, epsilon in ((11, 2, 50.0), (21, 1, 1e3)):
        res = d_optimal(interval(grid=grid), unit_weight(), s, epsilon=epsilon)
        assert res.converged and res.design.size >= 1
        assert res.design.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.design.weights >= 1.0 / (10.0 * grid))


@pytest.mark.parametrize(
    "a, grid, s",
    [(3.0, 401, 14), (3.0, 401, 16), (2.5, 401, 16), (1.25, 801, 24), (1.25, 801, 32), (30.0, 401, 12)],
    ids=lambda v: f"{v:g}",
)
def test_gaussian_intervals_certify_where_a_weight_blind_basis_lost_rank(a, grid, s):
    # rows w^s T_k on the bounding box lost rank on these grids (on [-30, 30]
    # w^24 underflows far from the origin); each grid still holds more than n
    # distinct points of positive weight, and the weighted Arnoldi rows see them
    space = interval(a=a, grid=grid)
    assert check_admissible(gaussian_weight(), space, s).passed
    res = d_optimal(space, gaussian_weight(), s)
    assert res.converged and res.kw_gap <= res.epsilon * res.n
    assert res.mass_identity_residual <= 1e-13


_STALLED_CASES = {
    "disk-s4": (disk(), gaussian_weight(), 4),
    "cube-s4": (cube(2, per_axis=33), unit_weight(), 4),
    "interval-s16": (interval(grid=401), unit_weight(), 16),
}


@pytest.mark.parametrize("space, weight, s", _STALLED_CASES.values(), ids=_STALLED_CASES.keys())
def test_a_newton_step_that_cannot_be_taken_ends_the_solve_uncertified(monkeypatch, space, weight, s):
    # no other step stands in: the solve stops at the Fekete start, as an
    # exhausted budget would, and counts no step it did not take
    start = d_optimal(space, weight, s, epsilon=1e-3, max_iter=0)
    monkeypatch.setattr(optimal, "_newton_step", lambda *args: None)
    res = d_optimal(space, weight, s, epsilon=1e-3)
    assert start.kw_gap > start.epsilon * start.n
    assert not res.converged and res.iterations == 0
    assert res.log_det == start.log_det and res.kw_gap == start.kw_gap
    assert np.array_equal(res.design.points, start.design.points)
    assert np.array_equal(res.design.weights, start.design.weights)


def test_centerless_disk_orbits_solve_without_warnings(gauss_disk):
    # the disk without its center keeps its ring ids 1, 2, ..., so orbit id 0
    # has no points; the s = 6 optimum puts no mass on the center, and the
    # solve takes steps on both grids and reaches the same design
    full_disk = gauss_disk
    centerless = dataclasses.replace(custom_grid(full_disk.grid[1:]), orbits=full_disk.orbits[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = d_optimal(centerless, gaussian_weight(), 6, epsilon=1e-5)
    full = d_optimal(full_disk, gaussian_weight(), 6, epsilon=1e-5)
    assert res.converged and res.iterations > 0 and full.iterations > 0
    assert res.log_det == pytest.approx(full.log_det, abs=1e-12)
    assert np.array_equal(res.design.points, full.design.points)


@pytest.mark.parametrize(
    "space, weight, s",
    [
        (disk(radial=16, angular=40), gaussian_weight(), 2),
        (disk(), gaussian_weight(), 8),
        (interval(grid=401), gaussian_weight(), 1),
        (interval(grid=401), gaussian_weight(), 4),
        (interval(grid=401), unit_weight(), 16),
        (cube(2, per_axis=33), unit_weight(), 4),
        (ball(2), unit_weight(), 8),
        (simplex(2), unit_weight(), 6),
    ],
    ids=["disk-s2", "disk-s8", "interval-s1", "interval-s4", "interval-s16", "cube-s4", "ball-s8", "simplex-s6"],
)
def test_newton_steps_never_lower_log_det(monkeypatch, space, weight, s):
    # every case takes at least one step from the Fekete start: the
    # Gaussian disk and the unit interval certify s = 2 and s = 1, 4 before
    # any step, so those degrees run on a coarser disk and under the
    # Gaussian weight
    taken = []

    def counted(*args):
        step = newton_step(*args)
        taken.append(step is not None)
        return step

    newton_step = optimal._newton_step
    monkeypatch.setattr(optimal, "_newton_step", counted)
    res = d_optimal(space, weight, s, epsilon=1e-5)
    assert res.converged and any(taken)
    assert res.monotonicity_violation <= 1e-10
    assert res.mass_identity_residual <= 1e-8 * res.n


@pytest.mark.parametrize(
    "space, weight, s",
    [(interval(grid=401), unit_weight(), 16), (disk(), gaussian_weight(), 8), (cube(2, per_axis=33), unit_weight(), 4)],
    ids=["interval-s16", "disk-s8", "cube-s4"],
)
def test_frame_log_det_of_a_trial_matches_a_full_reassembly(monkeypatch, space, weight, s):
    # log det M(q / sum q), read in the iterate's orthonormal frame, and the
    # iterate that frame advances to, against assembling and factoring M at
    # the trial masses from the solve's rows R, at every Newton step of the
    # solve (every orbit keeps its rows throughout); a trial that leaves fewer
    # than n points with mass has a singular M, and its frame log det must
    # fall below the iterate's so that the line search rejects it
    rng = np.random.default_rng(s)
    checked, singular = [], []
    evaluate, newton_step = optimal._evaluate, optimal._newton_step
    start = {}

    def recorded(R, row_orbit, counts, mass):
        start.update(R=R, row_orbit=row_orbit)
        return evaluate(R, row_orbit, counts, mass)

    def checked_step(it, counts, n):
        moving = (it.mass > 0) | (it.K > n)
        trial = optimal._frame(it, counts, moving)
        assert np.array_equal(it.row_orbit, start["row_orbit"])
        for t in (1.0, 0.25, 1e-3):
            # rescale the weighted orbits, weight some massless free ones, empty a few
            q = it.mass.copy()
            q[moving] *= np.exp(t * rng.standard_normal(np.count_nonzero(moving)))
            fresh = moving & (it.mass == 0)
            q[fresh] = t * rng.uniform(0, 1.0 / n, np.count_nonzero(fresh))
            q[np.flatnonzero(it.mass)[rng.random(np.count_nonzero(it.mass)) < 0.1 * t]] = 0.0
            log_det, C = trial(q)
            if counts[q > 0].sum() < n:
                singular.append(log_det < it.log_det)
                continue
            new = optimal._advance(it, q, log_det, C, counts)
            full = evaluate(start["R"], start["row_orbit"], counts, q / q.sum())
            assert np.array_equal(new.mass, full.mass)
            checked.append((log_det, full.log_det, new.K, full.K, (float(new.mass @ new.K) - n) / n))
        return newton_step(it, counts, n)

    monkeypatch.setattr(optimal, "_evaluate", recorded)
    monkeypatch.setattr(optimal, "_newton_step", checked_step)
    d_optimal(space, weight, s, epsilon=1e-5)
    assert len(checked) >= 9 and all(singular)
    for frame_log_det, full_log_det, K, full_K, mass_identity in checked:
        assert frame_log_det == pytest.approx(full_log_det, rel=1e-12)
        assert np.allclose(K, full_K, rtol=1e-10, atol=0)
        assert abs(mass_identity) <= 1e-11


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


def test_start_without_mass_on_the_optimal_support_still_certifies(monkeypatch):
    # the Fekete start carries mass on n points only; Newton frees the
    # massless orbits whose K exceeds n and gives them mass
    freed = []
    newton_step = optimal._newton_step

    def counted(it, *args):
        new = newton_step(it, *args)
        freed.append(new is not None and bool(np.any((it.mass == 0) & (new.mass > 0))))
        return new

    monkeypatch.setattr(optimal, "_newton_step", counted)
    for space, weight, s in [
        (cube(2, per_axis=33), unit_weight(), 4),
        (disk(), gaussian_weight(), 4),
        (interval(grid=401), unit_weight(), 10),
    ]:
        freed.clear()
        start = d_optimal(space, weight, s, epsilon=1e-6, max_iter=0)
        res = d_optimal(space, weight, s, epsilon=1e-6)
        assert res.converged and any(freed)
        atoms = {tuple(p) for p in res.design.points.tolist()}
        assert not atoms <= {tuple(p) for p in start.design.points.tolist()}


_START_CASES = (
    [(f"interval-s{s}", interval(grid=401), unit_weight(), s) for s in range(1, 17)]
    + [(f"disk-s{s}", disk(), gaussian_weight(), s) for s in (2, 4, 8)]
    + [(f"fine-disk-s{s}", disk(radial=96, angular=40), gaussian_weight(), s) for s in (2, 8)]
    + [(f"ball-s{s}", ball(2), unit_weight(), s) for s in (2, 4, 8)]
    + [(f"simplex-s{s}", simplex(2), unit_weight(), s) for s in (2, 4, 6)]
    + [(f"cube3-s{s}", cube(3, per_axis=9), unit_weight(), s) for s in (2, 3, 6)]
)


@pytest.mark.parametrize("space, weight, s", [c[1:] for c in _START_CASES], ids=[c[0] for c in _START_CASES])
def test_fekete_start_certifies_within_thirty_steps(space, weight, s):
    # multiplicative steps from the uniform measure took 467-12,563 steps on
    # the interval at this epsilon; fine-disk-s2 took 8,688
    res = d_optimal(space, weight, s, epsilon=1e-5)
    assert res.converged and res.iterations <= 30
    assert res.monotonicity_violation <= 1e-10
    assert res.mass_identity_residual <= 1e-8 * res.n


@pytest.mark.parametrize("space, weight, s", [c[1:] for c in _START_CASES], ids=[c[0] for c in _START_CASES])
def test_the_solver_starts_at_approx_fekete(space, weight, s):
    # one pick serves both: the start's log |VDM| is approx_fekete's, bit for bit
    start = d_optimal(space, weight, s, max_iter=0)
    assert start.fekete_log_vdm == approx_fekete(space, weight, s).weighted_vdm_log


def test_cube_orbit_solve_matches_the_per_point_solve():
    space = cube(2, per_axis=33)
    orbits = d_optimal(space, unit_weight(), 4, epsilon=1e-5)
    points = d_optimal(_without_orbits(space), unit_weight(), 4, epsilon=1e-5)
    assert orbits.converged and points.converged
    assert abs(orbits.log_det - points.log_det) <= orbits.epsilon * orbits.n
    # the symmetric design is symmetric: its atoms are closed under x <-> y
    # and sign flips
    atoms = {tuple(np.round(p.real, 12)) for p in orbits.design.points}
    assert atoms == {(sx * b, sy * a) for a, b in atoms for sx in (1, -1) for sy in (1, -1)}


@pytest.mark.parametrize("refine, s", [(24, 6), (36, 12)])
def test_simplex_orbit_solve_matches_the_per_point_solve(refine, s):
    space = simplex(2, refine=refine)
    orbits = d_optimal(space, unit_weight(), s, epsilon=1e-5)
    points = d_optimal(_without_orbits(space), unit_weight(), s, epsilon=1e-5)
    assert orbits.converged and points.converged
    assert orbits.mass_identity_residual <= 1e-12 * orbits.n
    assert abs(orbits.log_det - points.log_det) <= orbits.epsilon * orbits.n
    # the support is closed under the permutations of the barycentric integers
    k = np.rint(orbits.design.points.real * refine).astype(int)
    atoms = {tuple(b) for b in np.column_stack([k, refine - k.sum(axis=1)]).tolist()}
    assert atoms == {p for b in atoms for p in itertools.permutations(b)}


def test_orbits_that_are_not_symmetries_are_refused():
    # triples of neighbouring nodes share one mass: the solve certifies their
    # mean K (gap / n 3e-9), while K at single points stays 4e-3 n above n
    space = dataclasses.replace(interval(grid=201), orbits=np.arange(201) // 3)
    with pytest.raises(ValueError, match=r"^orbit \d+ is not a symmetry of the problem: K at its grid point \d+ "):
        d_optimal(space, unit_weight(), 6)


_TIGHT_CASES = {
    "simplex-s6": (simplex(2), unit_weight(), 6),
    "ball-s8": (ball(2), unit_weight(), 8),
    "interval-s16": (interval(grid=401), unit_weight(), 16),
    "cube-s4": (cube(2, per_axis=33), unit_weight(), 4),
}


@pytest.mark.parametrize("space, weight, s", _TIGHT_CASES.values(), ids=_TIGHT_CASES.keys())
def test_tight_tolerances_certify_in_a_few_newton_steps(space, weight, s):
    # below gap / n ~ 1e-9 a Newton step gains less than log det resolves;
    # it is kept when K still ascends along it or max K fell (first-order
    # vertex steps took 59, 143, 43 and 74 steps at epsilon 1e-12)
    loose = d_optimal(space, weight, s, epsilon=1e-9)
    tight = d_optimal(space, weight, s, epsilon=1e-12)
    for res in (loose, tight):
        assert res.converged and res.iterations <= 20
        assert res.monotonicity_violation <= 1e-12
        assert res.mass_identity_residual <= 1e-8 * res.n
    assert tight.log_det == pytest.approx(loose.log_det, abs=1e-12)


@pytest.mark.parametrize("space, weight, s", [c[1:] for c in _START_CASES], ids=[c[0] for c in _START_CASES])
def test_newton_finishes_every_start_case_at_any_tolerance(monkeypatch, space, weight, s):
    # every Newton step the solve asks for is taken, down to epsilon 1e-12
    newton, stalled = optimal._newton_step, []

    def spy(*args):
        new = newton(*args)
        stalled.append(new is None)
        return new

    monkeypatch.setattr(optimal, "_newton_step", spy)
    for epsilon, steps in ((1e-5, 30), (1e-12, 50)):
        res = d_optimal(space, weight, s, epsilon=epsilon)
        assert res.converged and res.iterations <= steps
        assert res.monotonicity_violation <= 1e-12
    assert not any(stalled)


def test_gaussian_weight_on_the_simplex_falls_back_to_single_points():
    # exp(-|x|^2) is not invariant under the vertex permutations, so the
    # recorded orbits cannot be used
    space = simplex(2)
    orbits, counts = optimal._symmetry_orbits(space, gaussian_weight().values(space.grid))
    assert np.array_equal(orbits, np.arange(space.grid_size)) and np.all(counts == 1)
    assert optimal._symmetry_orbits(space, unit_weight().values(space.grid))[1].size < space.grid_size


def _einsum_hessian(Z, row_orbit, counts):
    # H[o, p] = -tr(A_o A_p) / (c_o c_p), every orbit block A_o summed by einsum
    onehot = (row_orbit[:, None] == np.arange(counts.size)).astype(float)
    A = np.einsum("ro,ri,rj->oij", onehot, Z.conj(), Z)
    return -np.einsum("oij,pji->op", A, A).real / np.outer(counts, counts)


@pytest.mark.parametrize(
    "space, weight, s",
    [(disk(), gaussian_weight(), s) for s in (2, 4, 8)]
    + [(cube(2, per_axis=33), unit_weight(), 4), (_without_orbits(disk()), gaussian_weight(), 4)],
    ids=["disk-s2", "disk-s4", "disk-s8", "cube-s4", "orbit-free-disk-s4"],
)
def test_step_count_does_not_depend_on_how_the_hessian_is_rounded(monkeypatch, space, weight, s):
    # a singular KKT system let a 2e-16 change in H change the step count;
    # the ridge makes the Newton direction well defined (the orbit-free disk
    # took 31 steps with one Hessian and 19 with the other under a 1e-12
    # ridge, and 14 with both under the gap ridge)
    ref = d_optimal(space, weight, s, epsilon=1e-5)
    monkeypatch.setattr(optimal, "_orbit_hessian", _einsum_hessian)
    other = d_optimal(space, weight, s, epsilon=1e-5)
    assert ref.converged and other.converged
    assert other.iterations == ref.iterations
    assert other.log_det == pytest.approx(ref.log_det, abs=1e-9)


def _inflate_christoffel(monkeypatch):
    # an injected fault: every K the solver computes comes out a relative
    # 1e-6 too large, which the gap test tolerates at epsilon 1e-5 and the
    # mass identity sum(mass K) = n does not
    squared_norms = optimal._squared_norms
    monkeypatch.setattr(optimal, "_squared_norms", lambda Z: squared_norms(Z) * (1.0 + 1e-6))


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_certificate_that_only_looks_valid_is_refused(monkeypatch, a):
    _inflate_christoffel(monkeypatch)
    with pytest.raises(SingularGramError, match=r"^certificate does not hold at iteration \d+: mass identity residual"):
        d_optimal(interval(a=a, grid=201), gaussian_weight(), 8, epsilon=1e-5)


@pytest.mark.parametrize("failing_call, message", [(1, "moment matrix of the Fekete start is not positive definite"),
                                                   (2, "certificate does not hold")])
def test_a_failed_factor_is_refused_at_pivot_n(monkeypatch, failing_call, message):
    # every factor the solver takes is positive definite by construction; a failed one names pivot n
    factor, calls = optimal._factor, []

    def failing(R, coef):
        calls.append(1)
        return (None, -math.inf) if len(calls) == failing_call else factor(R, coef)

    monkeypatch.setattr(optimal, "_factor", failing)
    with pytest.raises(SingularGramError, match=f"^{message}") as err:
        d_optimal(interval(grid=201), unit_weight(), 4)
    assert err.value.pivot == 5


_FORMERLY_REFUSED = {
    "gauss-interval-a2-s8": (interval(a=2, grid=201), gaussian_weight(), 8),
    "gauss-interval-a3-s8": (interval(a=3, grid=201), gaussian_weight(), 8),
    "simplex-s8": (simplex(2), unit_weight(), 8),
    "simplex-s10": (simplex(2), unit_weight(), 10),
    "simplex-refine36-s12": (simplex(2, refine=36), unit_weight(), 12),
}


@pytest.mark.parametrize("space, weight, s", _FORMERLY_REFUSED.values(), ids=_FORMERLY_REFUSED.keys())
def test_formerly_refused_designs_certify(space, weight, s):
    # the Gram matrix of these weighted rows in the stabilized monomial basis
    # is too ill conditioned to keep the mass identity (off by 8e-6 to 5e-2,
    # or rank lost); in the Lagrange basis of the Fekete start it holds
    res = d_optimal(space, weight, s, epsilon=1e-5)
    assert res.converged and -1e-8 * res.n <= res.kw_gap <= res.epsilon * res.n
    assert res.mass_identity_residual <= 1e-12 * res.n


def _mp_gaussian_interval_certificate(res, space, s):
    """log det M and KW gap / n of a returned design under w = exp(-x^2) on a real grid.

    60-digit mpmath in the monomial basis, independent of numpy's LAPACK:
    M = sum_k mass_k r(x_k) r(x_k)^T with r(x) = w(x)^s (1, x, .., x^s),
    and K(x) = ||C^-1 r(x)||^2 from the Cholesky factor C of M by forward
    substitution.
    """
    mpmath = pytest.importorskip("mpmath")
    n = s + 1
    with mpmath.workdps(60):

        def row(x):
            x = mpmath.mpf(float(x.real))
            w_s = mpmath.exp(-s * x * x)
            return [w_s * x**i for i in range(n)]

        M = mpmath.zeros(n, n)
        for x, mass in zip(res.design.points[:, 0], res.design.weights):
            r = row(x)
            for i in range(n):
                for j in range(n):
                    M[i, j] += mpmath.mpf(float(mass)) * r[i] * r[j]
        C = mpmath.cholesky(M)

        def christoffel(x):
            y = []
            for i, ri in enumerate(row(x)):
                y.append((ri - mpmath.fsum(C[i, j] * y[j] for j in range(i))) / C[i, i])
            return mpmath.fsum(v * v for v in y)

        log_det = 2 * mpmath.fsum(mpmath.log(C[i, i]) for i in range(n))
        gap = max(christoffel(x) for x in space.grid[:, 0]) - n
        return float(log_det), float(gap / n)


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_gaussian_interval_certificate_matches_a_60_digit_oracle(a):
    space, s = interval(a=a, grid=201), 8
    res = d_optimal(space, gaussian_weight(), s, epsilon=1e-5)
    log_det, gap = _mp_gaussian_interval_certificate(res, space, s)
    assert abs(res.log_det - log_det) <= 1e-8
    assert abs(res.kw_gap / res.n - gap) <= 1e-9
