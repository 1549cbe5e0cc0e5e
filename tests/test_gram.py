"""Moment matrices, Cholesky determinants, and Christoffel functions."""

import math

import numpy as np
import pytest

from optdesign import (
    SingularGramError,
    ball,
    basis_for_space,
    christoffel,
    christoffel_many,
    cube,
    disk,
    gaussian_weight,
    interval,
    make_design,
    moment_matrix,
    monomial_basis,
    orthonormal_factor,
    simplex,
    unit_weight,
)
from optdesign.basis import eval_basis_many
from optdesign.gram import _assemble, _cholesky_log_det, _christoffel_rows, _inverse_factor, _orbit_rows


def _random_design(rng, m, d=1, complex_atoms=False):
    pts = rng.uniform(-1, 1, (m, d))
    if complex_atoms:
        pts = pts + 1j * rng.uniform(-1, 1, (m, d))
    w = rng.uniform(0.1, 1.0, m)
    return make_design(pts, w / w.sum())


def test_moment_matrix_matches_direct_sum():
    # oracle: assemble entry by entry from the definition
    rng = np.random.default_rng(11)
    design = _random_design(rng, 6, complex_atoms=True)
    weight = gaussian_weight()
    s = 2
    basis = monomial_basis(1, s)
    mm = moment_matrix(design, weight, s, basis)
    z = design.points[:, 0]
    wv = np.exp(-np.abs(z) ** 2) ** (2 * s)
    direct = np.zeros((3, 3), dtype=complex)
    for i, ai in enumerate(basis.indices):
        for j, aj in enumerate(basis.indices):
            direct[i, j] = np.sum(design.weights * wv * np.conj(z ** ai[0]) * z ** aj[0])
    assert np.allclose(mm.matrix, direct, rtol=1e-13, atol=1e-15)
    assert np.allclose(mm.matrix, mm.matrix.conj().T)


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(5)
    design = _random_design(rng, 7, d=2)
    mm = moment_matrix(design, unit_weight(), 1, monomial_basis(2, 1))
    sign, ref = np.linalg.slogdet(mm.matrix)
    assert sign == pytest.approx(1.0)
    assert mm.log_det == pytest.approx(ref, abs=1e-12)
    assert mm.log_det_monomial == mm.log_det  # monomial basis shifts by zero


def test_singular_design_reports_minus_inf_then_raises():
    design = make_design([0.0, 1.0], [0.5, 0.5])
    mm = moment_matrix(design, unit_weight(), 2, monomial_basis(1, 2))
    assert mm.log_det == -math.inf
    with pytest.raises(SingularGramError) as err:
        orthonormal_factor(mm, unit_weight())
    assert err.value.pivot >= 1


def test_near_singular_design_is_refused():
    design = make_design([0.0, 1e-9, 1.0], [0.4, 0.3, 0.3])
    mm = moment_matrix(design, unit_weight(), 2, monomial_basis(1, 2))
    with pytest.raises(SingularGramError):
        orthonormal_factor(mm, unit_weight())


def test_refusal_matches_eigenvalue_reference():
    # reference decision from numpy's eigvalsh, independent of the factor:
    # accept iff lambda_min(M) clears n * 1e-14 * ||M||_2
    decisions = []
    for delta in np.logspace(-4, -8, 17):
        design = make_design([0.0, delta, 1.0], np.full(3, 1 / 3))
        mm = moment_matrix(design, unit_weight(), 2, monomial_basis(1, 2))
        eig = np.linalg.eigvalsh(mm.matrix)
        expected = eig[0] > 3 * 1e-14 * eig[-1]
        try:
            orthonormal_factor(mm, unit_weight())
            accepted = True
        except SingularGramError:
            accepted = False
        assert accepted == expected, delta
        decisions.append(accepted)
    assert True in decisions and False in decisions  # the sweep crosses the threshold


def test_christoffel_at_atoms_of_square_design():
    # for n atoms spanning the n-dimensional space, K(z_k) = 1 / mu_k
    design = make_design([-1.0, 0.1, 0.9], [0.2, 0.5, 0.3])
    mm = moment_matrix(design, unit_weight(), 2, monomial_basis(1, 2))
    ev = orthonormal_factor(mm, unit_weight())
    for z, mu in zip(design.points, design.weights):
        assert christoffel(ev, z) == pytest.approx(1.0 / mu, rel=1e-11)


def test_christoffel_trace_identity():
    # integrating K against its own design gives the space dimension
    rng = np.random.default_rng(2)
    design = _random_design(rng, 8, complex_atoms=True)
    weight = gaussian_weight()
    mm = moment_matrix(design, weight, 3, monomial_basis(1, 3))
    ev = orthonormal_factor(mm, weight)
    vals = christoffel_many(ev, design.points)
    assert float(design.weights @ vals) == pytest.approx(4.0, rel=1e-11)


def test_christoffel_batch_matches_singles():
    rng = np.random.default_rng(9)
    design = _random_design(rng, 5)
    mm = moment_matrix(design, unit_weight(), 1, monomial_basis(1, 1))
    ev = orthonormal_factor(mm, unit_weight())
    pts = np.array([[0.3], [-0.7], [1.0]])
    batch = christoffel_many(ev, pts)
    singles = [christoffel(ev, p) for p in pts]
    assert np.allclose(batch, singles, rtol=1e-15)
    assert np.all(batch > 0)


def test_dimension_mismatch_rejected():
    design = make_design([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        moment_matrix(design, unit_weight(), 1, monomial_basis(1, 1))


def _uniform_grid_factor(B, u):
    # inverse Cholesky factor of the uniform-mass moment matrix on the grid
    C, _, pivot = _cholesky_log_det(_assemble(B, u / B.shape[0]))
    assert pivot == 0
    return _inverse_factor(C)


def test_orbit_rows_keep_each_orbit_gram_block_and_mean_christoffel():
    space, s = disk(), 4
    B = eval_basis_many(basis_for_space(space, s), space.grid)
    u = gaussian_weight().values(space.grid) ** (2 * s)
    orbits = np.asarray(space.params["orbits"])
    counts = np.bincount(orbits)
    R, row_orbit = _orbit_rows(B, u, orbits, counts)
    assert np.bincount(row_orbit).max() <= B.shape[1]
    assert R.shape[0] == 1 + 24 * B.shape[1]  # the center keeps its one row
    L = _uniform_grid_factor(B, u)
    K = _christoffel_rows(B, L, u)
    K_rows = _christoffel_rows(R, L, 1.0)
    for o in range(counts.size):
        A = np.sqrt(u[orbits == o])[:, None] * B[orbits == o]
        Ro = R[row_orbit == o]
        block = A.conj().T @ A
        assert np.abs(Ro.conj().T @ Ro - block).max() <= 1e-12 * np.abs(block).max()
        assert K_rows[row_orbit == o].sum() / counts[o] == pytest.approx(K[orbits == o].mean(), rel=1e-12)


def test_real_rows_give_the_complex_christoffel_values_on_the_cube():
    space, s = cube(2, per_axis=9), 3
    B = eval_basis_many(basis_for_space(space, s), space.grid)
    assert np.iscomplexobj(B) and not np.any(B.imag)
    u = np.ones(B.shape[0])
    K_complex = _christoffel_rows(B, _uniform_grid_factor(B, u), u)
    L_real = _uniform_grid_factor(B.real, u)
    assert L_real.dtype == np.float64
    K_real = _christoffel_rows(B.real, L_real, u)
    assert np.allclose(K_real, K_complex, rtol=1e-12, atol=0)
    assert float(K_real.mean()) == pytest.approx(B.shape[1], rel=1e-12)


@pytest.mark.parametrize("space", [interval(), cube(2, per_axis=9), ball(2), simplex(2)], ids=lambda sp: sp.kind)
def test_one_shot_paths_run_real_on_real_grids(space):
    s = 3
    rng = np.random.default_rng(5)
    idx = rng.choice(space.grid_size, size=40, replace=False)
    w = rng.uniform(0.5, 1.5, 40)
    design = make_design(space.grid[idx], w / w.sum())
    basis = basis_for_space(space, s)
    mm = moment_matrix(design, gaussian_weight(), s, basis)
    ev = orthonormal_factor(mm, gaussian_weight())
    assert mm.matrix.dtype == np.float64 and ev.L.dtype == np.float64
    K = christoffel_many(ev, space.grid)
    assert K.dtype == np.float64
    # the complex path: the same rows held in complex dtype
    B = eval_basis_many(basis, design.points)
    assert np.iscomplexobj(B)
    C, log_det, _ = _cholesky_log_det(_assemble(B, design.weights * gaussian_weight().values(design.points) ** (2 * s)))
    L_complex = _inverse_factor(C)
    assert mm.log_det == pytest.approx(log_det, abs=1e-12)
    u = gaussian_weight().values(space.grid) ** (2 * s)
    K_complex = _christoffel_rows(eval_basis_many(basis, space.grid), L_complex, u)
    assert np.allclose(K, K_complex, rtol=1e-12, atol=0)
