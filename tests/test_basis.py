"""Polynomial basis construction and evaluation."""

import math
import warnings

import numpy as np
import pytest

from optdesign import (
    ConditioningWarning,
    arnoldi_basis,
    basis_for_space,
    cube,
    custom_grid,
    degree_sum,
    disk,
    eval_basis,
    eval_basis_many,
    gaussian_weight,
    interval,
    monomial_basis,
    multi_indices,
    space_dimension,
)
from optdesign.basis import as_points


def test_space_dimension_matches_binomial():
    for d in (1, 2, 3, 5):
        for s in (0, 1, 2, 3, 7):
            assert space_dimension(d, s) == math.comb(s + d, d)


def test_space_dimension_rejects_bad_arguments():
    with pytest.raises(ValueError):
        space_dimension(0, 3)
    with pytest.raises(ValueError):
        space_dimension(2, -1)


def test_degree_sum_equals_enumerated_total():
    # oracle: add up the total degrees of the enumerated exponent tuples
    for d in (1, 2, 3):
        for s in (0, 1, 2, 5, 8):
            brute = sum(sum(alpha) for alpha in multi_indices(d, s))
            assert degree_sum(d, s) == brute


def test_multi_indices_graded_lex_order():
    idx = multi_indices(2, 2)
    assert idx == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    totals = [sum(a) for a in idx]
    assert totals == sorted(totals)


def test_monomial_evaluation_against_direct_powers():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        real = rng.standard_normal((11, d))
        for pts in (real, real + 1j * rng.standard_normal((11, d))):
            basis = monomial_basis(d, 3)
            vals = eval_basis_many(basis, pts)
            assert np.iscomplexobj(vals) == np.iscomplexobj(pts)
            for j, alpha in enumerate(basis.indices):
                direct = np.prod([pts[:, i] ** k for i, k in enumerate(alpha)], axis=0)
                assert np.allclose(vals[:, j], direct, rtol=1e-14, atol=1e-14)


def test_every_basis_carries_an_n_by_n_recurrence():
    for basis, dtype in (
        (basis_for_space(disk(), 3), np.complex128),
        (basis_for_space(interval(), 3), np.float64),
        (monomial_basis(2, 3), np.float64),
    ):
        assert basis.recurrence.shape == (basis.n, basis.n) and basis.recurrence.dtype == dtype
    assert np.array_equal(monomial_basis(2, 3).recurrence, np.eye(10))


def _check_against_qr(space, weight, s):
    # oracle: the Q factor of the weighted monomial Vandermonde, its column
    # phases set so that every leading coefficient is positive, as Arnoldi's are
    basis, rows, rank = arnoldi_basis(space.grid, weight.values(space.grid), s)
    assert rank == basis.n
    ws = weight.values(space.grid)[:, None] ** s
    Q, R = np.linalg.qr(ws * eval_basis_many(monomial_basis(space.dimension, s), space.grid))
    np.testing.assert_allclose(rows, Q * (R.diagonal() / np.abs(R.diagonal())), atol=1e-12)
    # replaying the recurrence reproduces the rows the build made
    np.testing.assert_allclose(ws * eval_basis_many(basis, space.grid), rows, atol=1e-13)
    return rows


def test_arnoldi_interval_rows_are_the_qr_factor_of_the_weighted_vandermonde():
    rows = _check_against_qr(interval(a=2.0, grid=41), gaussian_weight(), 5)
    assert rows.dtype == np.float64  # a real grid gives real rows


def test_arnoldi_complex_rows_are_the_qr_factor_of_the_weighted_vandermonde():
    # the disk's rotation symmetry makes some inner products real, so a
    # cloud without symmetry is checked too
    rng = np.random.default_rng(2)
    cloud = custom_grid(rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
    for space in (disk(radial=6, angular=12), cloud):
        rows = _check_against_qr(space, gaussian_weight(), 4)
        assert np.iscomplexobj(rows)
        np.testing.assert_allclose(rows.conj().T @ rows, np.eye(5), atol=1e-14)


def test_a_real_grid_basis_is_the_same_polynomials_at_complex_points():
    # the recurrence is real; at complex points it runs in complex arithmetic
    basis, mono = basis_for_space(interval(grid=33), 4), monomial_basis(1, 4)
    x = np.linspace(-0.9, 0.9, 5)
    coef = np.linalg.solve(eval_basis_many(mono, x).real, eval_basis_many(basis, x))
    z = np.array([0.3 + 0.4j, -0.5 - 0.2j, 1.1j])
    np.testing.assert_allclose(eval_basis_many(basis, z), eval_basis_many(mono, z) @ coef, rtol=1e-10, atol=1e-12)


def test_log_lead_shifts_determinant_to_monomial_scale():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, 4)).reshape(-1, 1)
    mono = np.linalg.slogdet(eval_basis_many(monomial_basis(1, 3), x))[1]
    space = interval(grid=33)
    stab_basis = basis_for_space(space, 3)
    stab = np.linalg.slogdet(eval_basis_many(stab_basis, x))[1]
    assert mono == pytest.approx(stab - stab_basis.log_lead, abs=1e-10)


_CLOUD = custom_grid(np.random.default_rng(4).uniform(-1, 1, (40, 2)) @ np.array([1.0, 1j]))  # no symmetry


@pytest.mark.parametrize("space, s", [(cube(2, per_axis=7), 3), (_CLOUD, 5)], ids=["cube", "complex-cloud"])
def test_log_lead_shifts_determinant_to_monomial_scale_in_two_and_complex_dimensions(space, s):
    basis = basis_for_space(space, s)
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.9, 0.9, (basis.n, space.dimension))
    if space.is_complex:
        z = z + 1j * rng.uniform(-0.5, 0.5, z.shape)
    mono = np.linalg.slogdet(eval_basis_many(monomial_basis(space.dimension, s), z))[1]
    assert mono == pytest.approx(np.linalg.slogdet(eval_basis_many(basis, z))[1] - basis.log_lead, abs=1e-9)


def test_log_lead_three_point_grid_value():
    # the orthonormal polynomials of {-1, 0, 1} have leading coefficients
    # 1/sqrt(3), 1/sqrt(2) and 1/sqrt(2/3), whose product is 1/2
    basis = basis_for_space(interval(grid=3), 2)
    assert basis.log_lead == pytest.approx(-math.log(2.0), abs=1e-14)


def test_eval_basis_single_point_matches_batch():
    basis = monomial_basis(2, 2)
    z = np.array([0.2, -0.4])
    assert np.array_equal(eval_basis(basis, z), eval_basis_many(basis, z.reshape(1, -1))[0])


def test_as_points_coercions_and_errors():
    assert as_points(0.5, 1).shape == (1, 1)
    assert as_points([1.0, 2.0, 3.0], 1).shape == (3, 1)
    assert as_points([1.0, 2.0], 2).shape == (1, 2)
    assert as_points(np.zeros((4, 3)), 3).shape == (4, 3)
    with pytest.raises(ValueError):
        as_points(0.5, 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((4, 3)), 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: as_points([1.0, 2.0, 3.0], 2), ValueError, "point of length 3 in dimension 2"),
        (lambda: as_points(np.zeros((2, 2, 2)), 2), ValueError, "cannot interpret array of shape (2, 2, 2) as points"),
        (lambda: space_dimension(60, 60), OverflowError, "basis size C(120,60) exceeds the integer range"),
    ],
)
def test_bad_points_and_sizes_are_refused_by_name(call, error, message):
    # no CLI input reaches these: the CLI builds a grid of d coordinates, and a size past 2^62 would
    # first need a grid or a degree table far beyond memory
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_high_degree_warns_but_still_builds():
    with pytest.warns(ConditioningWarning):
        basis = monomial_basis(1, 25)
    assert basis.n == 26


def test_arnoldi_basis_does_not_warn_at_high_degree():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rank = arnoldi_basis(cube(2, per_axis=41).grid, np.ones(41**2), 16)
    assert rank == 153


def test_arnoldi_rank_counts_every_collapsed_column():
    # on the diagonal x1 = x2 the columns x2, x1 x2 and x2^2 collapse; x1^2
    # comes after the first of them and does not
    grid = cube(2, per_axis=9).grid
    on_diagonal = np.abs(grid[:, 0] - grid[:, 1]) < 1e-12
    basis, rows, rank = arnoldi_basis(grid, on_diagonal.astype(float), 2)
    assert rank == 3
    assert np.array_equal(np.flatnonzero(np.abs(rows).max(axis=0) == 0), [2, 4, 5])
    assert math.isfinite(basis.log_lead)


@pytest.mark.parametrize("c", [1e300, 1e-300, 0.37])
def test_a_constant_weight_scales_the_rows_out_and_log_lead_by_n_s_log_c(c):
    # the rows are (w / max w)^s times the basis, so a constant weight leaves
    # them and the recurrence as they are and moves only log_lead
    grid, s = interval(grid=21).grid, 3
    unit, rows, _ = arnoldi_basis(grid, np.ones(21), s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis, scaled, rank = arnoldi_basis(grid, np.full(21, c), s)
    assert rank == 4 and basis.weight_scale == c
    np.testing.assert_array_equal(scaled, rows)
    np.testing.assert_array_equal(basis.recurrence, unit.recurrence)
    assert basis.log_lead == pytest.approx(unit.log_lead - 4 * s * math.log(c), rel=1e-15)
