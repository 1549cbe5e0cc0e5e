"""Polynomial basis construction and evaluation."""

import math

import numpy as np
import pytest

from optdesign import (
    ConditioningWarning,
    basis_for_space,
    degree_sum,
    eval_basis,
    eval_basis_many,
    interval,
    monomial_basis,
    multi_indices,
    space_dimension,
    stabilized_basis,
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
    pts = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    basis = monomial_basis(2, 3)
    vals = eval_basis_many(basis, pts)
    for j, alpha in enumerate(basis.indices):
        direct = pts[:, 0] ** alpha[0] * pts[:, 1] ** alpha[1]
        assert np.allclose(vals[:, j], direct, rtol=1e-14, atol=1e-14)


def test_stabilized_interval_rows_are_chebyshev_polynomials():
    # oracle: numpy's Chebyshev Vandermonde on the same points
    basis = stabilized_basis(
        1, 4, np.array([0.0]), np.array([1.0]), np.array([False])
    )
    x = np.linspace(-1.0, 1.0, 9)
    vals = eval_basis_many(basis, x.reshape(-1, 1))
    ref = np.polynomial.chebyshev.chebvander(x, 4)
    assert np.allclose(vals, ref, rtol=1e-14, atol=1e-14)


def test_stabilized_complex_rows_are_scaled_powers():
    c, h = 0.3 + 0.1j, 2.0
    basis = stabilized_basis(1, 3, np.array([c]), np.array([h]), np.array([True]))
    z = np.array([0.5 + 0.2j, -1.0 + 1.0j])
    vals = eval_basis_many(basis, z.reshape(-1, 1))
    u = (z - c) / h
    for k in range(4):
        assert np.allclose(vals[:, k], u**k, rtol=1e-14, atol=1e-14)


def test_log_lead_shifts_determinant_to_monomial_scale():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, 4)).reshape(-1, 1)
    mono = np.linalg.slogdet(eval_basis_many(monomial_basis(1, 3), x))[1]
    space = interval(grid=33)
    stab_basis = basis_for_space(space, 3)
    stab = np.linalg.slogdet(eval_basis_many(stab_basis, x))[1]
    assert mono == pytest.approx(stab - stab_basis.log_lead, abs=1e-10)


def test_log_lead_chebyshev_unit_interval_value():
    # leading coefficients 1, 1, 2, 4 for T_0..T_3 on [-1, 1]
    basis = stabilized_basis(1, 3, np.array([0.0]), np.array([1.0]), np.array([False]))
    assert basis.log_lead == pytest.approx(math.log(8.0), abs=1e-14)


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


def test_high_degree_warns_but_still_builds():
    with pytest.warns(ConditioningWarning):
        basis = monomial_basis(1, 25)
    assert basis.n == 26


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        stabilized_basis(1, 2, np.array([0.0]), np.array([0.0]), np.array([False]))
