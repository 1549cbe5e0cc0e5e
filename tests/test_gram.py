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
from optdesign import gram
from optdesign.basis import eval_basis_many
from optdesign.gram import (
    _assemble,
    _cholesky_log_det,
    _christoffel_rows,
    _inverse_factor,
    _orbit_hessian,
    _orbit_rows,
)
from optdesign.measure import weighted_rows


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


def test_orthonormal_factor_reuses_the_factor_of_moment_matrix(monkeypatch):
    # one factor path: moment_matrix factors once, in the Lagrange basis of
    # its picked rows, and orthonormal_factor only checks and hands it on
    rng = np.random.default_rng(4)
    design = _random_design(rng, 7, complex_atoms=True)
    mm = moment_matrix(design, gaussian_weight(), 2, monomial_basis(1, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("orthonormal_factor factored the moment matrix again")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    ev = orthonormal_factor(mm, gaussian_weight())
    assert ev.L is mm.L
    assert np.abs(ev.L @ mm.matrix @ ev.L.conj().T - np.eye(3)).max() <= 1e-13
    # fewer independent rows than n: the greedy pick reports where it stopped
    two = moment_matrix(make_design([0.0, 1.0], [0.5, 0.5]), unit_weight(), 2, monomial_basis(1, 2))
    assert two.L is None and two.pivot == 3
    # n picked rows whose factor fails: pivot n
    monkeypatch.setattr(gram, "_factor", lambda R, coef: (None, -math.inf))
    failed = moment_matrix(design, gaussian_weight(), 2, monomial_basis(1, 2))
    assert failed.L is None and failed.log_det == -math.inf and failed.pivot == 3


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


@pytest.mark.parametrize("coef_kind", ["scalar", "per_row"])
def test_assemble_complex_rows_matches_the_hermitian_product(coef_kind):
    # complex rows go through the real Gram matrix of their float64 view;
    # the result must be B^H diag(coef) B, and exactly Hermitian
    rng = np.random.default_rng(11)
    B = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    coef = 0.025 if coef_kind == "scalar" else rng.uniform(0.0, 1.0, 40)
    M = _assemble(B, coef)
    ref = (B.conj().T * coef) @ B
    assert M.dtype == np.complex128
    assert np.array_equal(M, M.conj().T)
    assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()
    # a real view of the same rows still takes the real path
    assert np.abs(_assemble(B.real, coef) - (B.real.T * coef) @ B.real).max() <= 1e-14 * np.abs(ref).max()


def _uniform_grid_factor(A):
    # inverse Cholesky factor of the uniform-mass moment matrix on the weighted rows A
    C, _ = _cholesky_log_det(_assemble(A, 1.0 / A.shape[0]))
    assert C is not None
    return _inverse_factor(C)


def _grid_rows(space, weight, s):
    return weighted_rows(basis_for_space(space, s), space.grid, weight.values(space.grid))


@pytest.mark.parametrize("space", [interval(), cube(2, per_axis=9), disk()], ids=lambda sp: sp.kind)
def test_weighted_rows_are_w_to_the_s_times_the_basis_values(space):
    s, weight = 4, gaussian_weight()
    A = _grid_rows(space, weight, s)
    B = eval_basis_many(basis_for_space(space, s), space.grid)
    assert A.dtype == (np.complex128 if space.is_complex else np.float64)
    assert np.allclose(A, weight.values(space.grid)[:, None] ** s * B, rtol=1e-14, atol=0)


def test_orbit_rows_keep_each_orbit_gram_block_and_mean_christoffel():
    space, s = disk(), 4
    A = _grid_rows(space, gaussian_weight(), s)
    orbits = space.orbits
    counts = np.bincount(orbits)
    R, row_orbit = _orbit_rows(A, orbits, counts)
    assert np.bincount(row_orbit).max() <= A.shape[1]
    assert R.shape[0] == 1 + 24 * A.shape[1]  # the center keeps its one row
    L = _uniform_grid_factor(A)
    K = _christoffel_rows(A, L)
    K_rows = _christoffel_rows(R, L)
    for o in range(counts.size):
        Ao = A[orbits == o]
        Ro = R[row_orbit == o]
        block = Ao.conj().T @ Ao
        assert np.abs(Ro.conj().T @ Ro - block).max() <= 1e-12 * np.abs(block).max()
        assert K_rows[row_orbit == o].sum() / counts[o] == pytest.approx(K[orbits == o].mean(), rel=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_orbit_rows_equal_one_qr_per_orbit_bit_for_bit(dtype):
    # orbits of sizes 1, 2, n + 2 and 2n + 1, their rows scattered over the grid
    rng = np.random.default_rng(11)
    n = 5
    orbits = rng.permutation(np.repeat(np.arange(30), rng.choice([1, 2, n + 2, 2 * n + 1], size=30)))
    counts = np.bincount(orbits)
    A = rng.standard_normal((orbits.size, n))
    if dtype is complex:
        A = A + 1j * rng.standard_normal((orbits.size, n))
    big = np.flatnonzero(counts > n)
    small = counts[orbits] <= n
    R = np.concatenate([A[small]] + [np.linalg.qr(A[orbits == o], mode="r") for o in big])
    ids = np.concatenate([orbits[small]] + [np.full(n, o) for o in big])
    got_R, got_ids = _orbit_rows(A, orbits, counts)
    assert np.array_equal(got_R, R) and np.array_equal(got_ids, ids)


@pytest.mark.parametrize("kind", ["disk", "cube"])
def test_orbit_hessian_is_minus_the_trace_of_orbit_block_products(kind):
    # H[o, p] = -tr(A_o A_p) / (c_o c_p) with A_o = Z_o^H Z_o, summed explicitly
    if kind == "disk":
        space, weight, s, picked = disk(), gaussian_weight(), 4, 12
        orbits = space.orbits
    else:
        space, weight, s, picked = cube(2, per_axis=9), unit_weight(), 3, 30
        orbits = np.arange(space.grid_size)  # every point its own orbit
    A = _grid_rows(space, weight, s)
    counts = np.bincount(orbits)
    R, row_orbit = _orbit_rows(A, orbits, counts)
    Z = R @ _uniform_grid_factor(A).conj().T
    rng = np.random.default_rng(3)
    perm = rng.permutation(Z.shape[0])  # rows in no particular orbit order
    Z, row_orbit = Z[perm], row_orbit[perm]
    free = rng.choice(counts.size, picked, replace=False)
    slot = np.full(counts.size, -1)
    slot[free] = np.arange(picked)
    rows = slot[row_orbit] >= 0
    H = _orbit_hessian(Z[rows], slot[row_orbit[rows]], counts[free])
    blocks = [Z[row_orbit == o].conj().T @ Z[row_orbit == o] for o in free]
    ref = -np.array([[np.trace(a @ b).real for b in blocks] for a in blocks]) / np.outer(counts[free], counts[free])
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


def test_real_rows_give_the_complex_christoffel_values_on_the_cube():
    space, s = cube(2, per_axis=9), 3
    A = _grid_rows(space, unit_weight(), s)
    assert A.dtype == np.float64
    B = A.astype(complex)
    K_complex = _christoffel_rows(B, _uniform_grid_factor(B))
    L_real = _uniform_grid_factor(A)
    assert L_real.dtype == np.float64
    K_real = _christoffel_rows(A, L_real)
    assert np.allclose(K_real, K_complex, rtol=1e-12, atol=0)
    assert float(K_real.mean()) == pytest.approx(A.shape[1], rel=1e-12)


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
    B = weighted_rows(basis, design.points, gaussian_weight().values(design.points)).astype(complex)
    C, log_det = _cholesky_log_det(_assemble(B, design.weights))
    L_complex = _inverse_factor(C)
    assert mm.log_det == pytest.approx(log_det, abs=1e-12)
    K_complex = _christoffel_rows(_grid_rows(space, gaussian_weight(), s).astype(complex), L_complex)
    assert np.allclose(K, K_complex, rtol=1e-12, atol=0)


def _failing_factorizations(n, dtype, rng):
    """Indefinite, singular and NaN matrices of order n, each named."""
    B = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex else 0)
    M = B @ B.conj().T
    cases = {"ones": np.ones((n, n), dtype=dtype)}  # rank one: the second pivot is exactly 0
    for k in (0, n // 2, n - 1):
        X = M.copy()
        X[k, k] = -abs(X[k, k])
        cases[f"negative-{k}"] = X
        X = M.copy()
        X[k, :] = X[:, k] = 0.0
        cases[f"zero-row-{k}"] = X
        X = M.copy()
        X[k, k] = np.nan
        cases[f"nan-diagonal-{k}"] = X
        X = M.copy()
        X[k, 0] = X[0, k] = np.nan
        cases[f"nan-offdiagonal-{k}"] = X
    cases["shifted"] = M - np.linalg.eigvalsh(M)[n // 3] * np.eye(n)
    return cases


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [5, 17, 45])
def test_cholesky_pivot_matches_lapack_potrf(n, dtype):
    # the factor's failure contract: no factor and log det -inf exactly where
    # scipy's potrf (the oracle here only) reports a pivot that lost
    # positivity, info > 0; its info is 0 for NaN entries, and log det is NaN
    sla = pytest.importorskip("scipy.linalg")
    cases = _failing_factorizations(n, dtype, np.random.default_rng(n))
    design = make_design([0.0, 1.0], [0.5, 0.5])
    cases["two-atom-design"] = moment_matrix(design, unit_weight(), 2, monomial_basis(1, 2)).matrix.astype(dtype)
    for name, M in cases.items():
        potrf = sla.get_lapack_funcs("potrf", dtype=M.dtype)
        _, info = potrf(M, lower=True, clean=True, overwrite_a=False)
        C, log_det = _cholesky_log_det(M)
        assert (C is None) == (info > 0), name
        if info > 0:
            assert log_det == -math.inf, name
        else:
            assert name.startswith("nan-") and math.isnan(log_det), name
