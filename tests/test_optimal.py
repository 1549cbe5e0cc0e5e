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
    ball,
    basis_for_space,
    check_admissible,
    christoffel,
    christoffel_many,
    cube,
    d_optimal,
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


def test_epsilon_must_be_positive():
    for epsilon in (0.0, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            d_optimal(interval(grid=21), unit_weight(), 1, epsilon=epsilon)


def test_negative_iteration_budget_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        d_optimal(interval(grid=21), unit_weight(), 1, max_iter=-1)


def test_zero_iteration_budget_certifies_the_starting_design():
    # the loop still evaluates K once, so the reported gap is a real one;
    # this solve takes 14 steps when it may
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
    res = d_optimal(cube(2, per_axis=33), unit_weight(), 4, epsilon=1e-9, max_iter=10)
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
    # the designs of `optdesign oracle --degree 3 --atoms 9` and of its disk case
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


def test_brute_force_guard_refuses_huge_enumerations():
    design = make_design(np.linspace(-1, 1, 12), np.full(12, 1 / 12))
    with pytest.raises(ValueError):
        vdm_integral_det(design, unit_weight(), 9)


def test_orbit_compression_matches_the_per_point_solve(gauss_disk):
    # compression is exact: the ring solve (9 steps) and the solve on all
    # 1921 points (37-109 steps, with the BLAS thread count) reach the same
    # optimum; the flat one need not spread a ring's mass evenly over it
    res = d_optimal(gauss_disk, gaussian_weight(), 4, epsilon=1e-5)
    flat = d_optimal(_without_orbits(gauss_disk), gaussian_weight(), 4, epsilon=1e-5)
    assert res.converged and flat.converged and flat.iterations > res.iterations > 0
    assert flat.log_det == pytest.approx(res.log_det, abs=1e-9)
    # every atom of the flat design sits on a ring of the orbit design, and
    # each ring carries the same total mass in both
    radii = np.round(np.abs(res.design.points[:, 0]), 9)
    flat_radii = np.round(np.abs(flat.design.points[:, 0]), 9)
    assert set(flat_radii.tolist()) <= set(radii.tolist())
    for r in np.unique(radii):
        assert flat.design.weights[flat_radii == r].sum() == pytest.approx(res.design.weights[radii == r].sum(), abs=1e-4)


def test_pruning_every_weight_is_a_numerical_error():
    # epsilon so large that the threshold epsilon / (10 m) exceeds every weight
    with pytest.raises(FloatingPointError, match="pruning threshold"):
        d_optimal(interval(grid=21), unit_weight(), 1, epsilon=1e3)


def test_underflowing_weight_power_is_an_admissibility_error():
    # w^24 underflows far from the origin of [-30, 30]: the weighted rows the
    # solver would factor have rank below n, so it refuses before any step
    space = interval(a=30.0)
    report = check_admissible(gaussian_weight(), space, 12)
    assert not report.passed and report.rank < report.required == 13
    assert report.positive_count >= 13  # w itself is positive at every grid point
    with pytest.raises(AdmissibilityError, match=f"weighted Vandermonde rank {report.rank} < 13"):
        d_optimal(space, gaussian_weight(), 12)


_VERTEX_CASES = {
    "disk-s4": (disk(), gaussian_weight(), 4),
    "cube-s4": (cube(2, per_axis=33), unit_weight(), 4),
    "interval-s16": (interval(grid=401), unit_weight(), 16),
}


@pytest.mark.parametrize("space, weight, s", _VERTEX_CASES.values(), ids=_VERTEX_CASES.keys())
def test_vertex_steps_alone_never_lower_log_det(monkeypatch, space, weight, s):
    # with Newton off every step is the Wynn-Fedorov vertex step, which only
    # scales the other masses down; elimination must drop only orbits the
    # step left massless (emptying orbits that still carried mass cost the
    # disk 0.26 in log det)
    start = d_optimal(space, weight, s, epsilon=1e-3, max_iter=0)
    monkeypatch.setattr(optimal, "_newton_step", lambda *args: None)
    res = d_optimal(space, weight, s, epsilon=1e-3)
    assert start.kw_gap > start.epsilon * start.n
    assert res.converged and res.iterations > 0 and res.kw_gap < start.kw_gap
    assert res.log_det > start.log_det
    assert res.monotonicity_violation <= 1e-12
    assert res.mass_identity_residual <= 1e-8 * res.n


def test_centerless_disk_orbits_solve_without_warnings(gauss_disk):
    # its rings are numbered from 1, so orbit id 0 has no points; the s = 6
    # optimum puts no mass on the center, and the solve takes steps on both
    # grids and reaches the same design
    centerless, full_disk = disk(include_center=False), gauss_disk
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
    # log det M(q / sum q), read in the iterate's orthonormal frame, against
    # assembling and factoring M at the trial masses from scratch, at every
    # Newton step of the solve (the live rows change between steps)
    rng = np.random.default_rng(s)
    checked = []
    newton_step = optimal._newton_step

    def checked_step(it, evaluate, counts, n):
        moving = (it.mass > 0) | (it.K > n)
        frame_log_det = optimal._frame_log_det(it, counts, moving)
        for t in (1.0, 0.25, 1e-3):
            # rescale the weighted orbits, weight some massless free ones, empty a few
            q = it.mass.copy()
            q[moving] *= np.exp(t * rng.standard_normal(np.count_nonzero(moving)))
            fresh = moving & (it.mass == 0)
            q[fresh] = t * rng.uniform(0, 1.0 / n, np.count_nonzero(fresh))
            q[np.flatnonzero(it.mass)[rng.random(np.count_nonzero(it.mass)) < 0.1 * t]] = 0.0
            full = evaluate(q / q.sum())
            assert not isinstance(full, int)
            checked.append((frame_log_det(q), full.log_det))
        return newton_step(it, evaluate, counts, n)

    monkeypatch.setattr(optimal, "_newton_step", checked_step)
    d_optimal(space, weight, s, epsilon=1e-5)
    assert len(checked) >= 9
    for frame_log_det, full_log_det in checked:
        assert frame_log_det == pytest.approx(full_log_det, rel=1e-12)


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


_REVIVAL_CASES = {
    "cube-s4": (cube(2, per_axis=33), unit_weight(), 4),
    "interval-s16": (interval(grid=401), unit_weight(), 16),
    "ball-s4": (ball(2), unit_weight(), 4),
}


def test_orbits_eliminated_by_mistake_come_back(monkeypatch):
    # a bound of n, far above Harman-Pronzato's, drops orbits the optimum
    # needs; the full-grid certificate catches it, every orbit comes back
    # (the live rows grow again) and the solve still reaches the optimum
    refs = {name: d_optimal(*case, epsilon=1e-6) for name, case in _REVIVAL_CASES.items()}
    rows = []
    evaluate = optimal._evaluate

    def recorded(R, *args):
        rows.append(R.shape[0])
        return evaluate(R, *args)

    monkeypatch.setattr(optimal, "_evaluate", recorded)
    monkeypatch.setattr(optimal, "_hp_bound", lambda gap, n: float(n))
    for name, (space, weight, s) in _REVIVAL_CASES.items():
        rows.clear()
        res = d_optimal(space, weight, s, epsilon=1e-6)
        assert any(a < b == rows[0] for a, b in zip(rows, rows[1:])), name
        assert res.converged and abs(res.log_det - refs[name].log_det) <= res.epsilon * res.n
        K_grid, _ = _grid_christoffel(res, space, weight, s)
        assert float(K_grid.max()) - res.n <= 2 * res.epsilon * res.n


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


def _einsum_hessian(Z, row_orbit, counts):
    # H[o, p] = -tr(A_o A_p) / (c_o c_p), every orbit block A_o summed by einsum
    onehot = (row_orbit[:, None] == np.arange(counts.size)).astype(float)
    A = np.einsum("ro,ri,rj->oij", onehot, Z.conj(), Z)
    return -np.einsum("oij,pji->op", A, A).real / np.outer(counts, counts)


@pytest.mark.parametrize(
    "space, weight, s",
    [(disk(), gaussian_weight(), s) for s in (2, 4, 8)] + [(cube(2, per_axis=33), unit_weight(), 4)],
    ids=["disk-s2", "disk-s4", "disk-s8", "cube-s4"],
)
def test_step_count_does_not_depend_on_how_the_hessian_is_rounded(monkeypatch, space, weight, s):
    # a singular KKT system let a 2e-16 change in H change the step count;
    # the ridge makes the Newton direction well defined
    ref = d_optimal(space, weight, s, epsilon=1e-5)
    monkeypatch.setattr(optimal, "_orbit_hessian", _einsum_hessian)
    other = d_optimal(space, weight, s, epsilon=1e-5)
    assert ref.converged and other.converged
    assert other.iterations == ref.iterations
    assert other.log_det == pytest.approx(ref.log_det, abs=1e-9)


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_certificate_that_only_looks_valid_is_refused(a):
    # w^16 spans 40-70 decades on [-a, a]: the iterate that passes the gap
    # test has lost the mass identity sum(mass K) = n to rounding
    with pytest.raises(SingularGramError, match="mass identity residual"):
        d_optimal(interval(a=a, grid=201), gaussian_weight(), 8, epsilon=1e-5)
