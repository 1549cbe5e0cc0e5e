"""Approximate Fekete points and diameter tables."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from optdesign import (
    AdmissibilityError,
    approx_fekete,
    arnoldi_basis,
    ball,
    basis_for_space,
    cube,
    disk,
    gaussian_weight,
    interval,
    simplex,
    sth_diameter,
    table_weight,
    tfd_table,
    unit_weight,
)
from optdesign import fekete, measure
from optdesign.measure import weighted_rows


def test_degree_one_interval_endpoints():
    # two points maximize |a - b|, so the diameter estimate is exactly 2
    res = approx_fekete(interval(grid=101), unit_weight(), 1)
    assert np.allclose(np.sort(res.points[:, 0].real), [-1.0, 1.0], atol=1e-15)
    assert res.delta_s == pytest.approx(2.0, rel=1e-12)


def test_degree_two_interval_three_points():
    # |(-1-0)(-1-1)(0-1)| = 2 over {-1, 0, 1}; m_s = 3
    res = approx_fekete(interval(grid=101), unit_weight(), 2)
    assert np.allclose(np.sort(res.points[:, 0].real), [-1.0, 0.0, 1.0], atol=1e-12)
    assert res.delta_s == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-10)


def _exhaustive_fekete(space, weight, s):
    """The best n-subset of the grid by enumeration: (weighted_vdm_log, its points in grid order)."""
    basis = basis_for_space(space, s)
    A = weighted_rows(basis, space.grid, weight.values(space.grid))
    subsets = np.array(list(itertools.combinations(range(space.grid_size), basis.n)))
    logs = np.linalg.slogdet(A[subsets])[1]
    k = int(np.argmax(logs))
    return float(logs[k]) - basis.log_lead, space.grid[subsets[k]]


def test_exchange_matches_exhaustive_on_small_grid():
    space = interval(grid=9)
    greedy = approx_fekete(space, unit_weight(), 2)
    exact_log, exact_points = _exhaustive_fekete(space, unit_weight(), 2)
    assert greedy.weighted_vdm_log == pytest.approx(exact_log, abs=1e-12)
    assert np.allclose(greedy.points, np.sort(exact_points, axis=0))


def test_weighted_disk_pair_sits_on_the_half_radius_circle():
    # maximize |z1 - z2| exp(-|z1|^2 - |z2|^2): antipodal points at |z| = 1/2
    res = approx_fekete(disk(radial=24, angular=16), gaussian_weight(), 1)
    z = res.points[:, 0]
    assert np.allclose(np.abs(z), 0.5, atol=1e-12)
    assert abs(z[0] + z[1]) < 1e-12
    assert res.weighted_vdm_log == pytest.approx(-0.5, abs=1e-12)  # log(1) - 2 * 0.25


def test_sth_diameter_is_the_fekete_root():
    space = interval(grid=51)
    assert sth_diameter(space, unit_weight(), 3) == pytest.approx(
        approx_fekete(space, unit_weight(), 3).delta_s, rel=1e-15
    )


def test_grid_too_small_for_the_degree():
    with pytest.raises(ValueError):
        approx_fekete(interval(grid=3), unit_weight(), 3)


def test_rank_deficient_weighted_grid_rejected():
    space = interval(grid=21)
    weight = table_weight(space.grid, np.r_[1.0, 1.0, np.zeros(19)])
    with pytest.raises(AdmissibilityError, match="only 2 positive-weight grid points, need 3"):
        approx_fekete(space, weight, 2)


def test_tfd_reads_delta_s_from_the_solve_start(monkeypatch):
    space = interval(grid=201)
    expected = [approx_fekete(space, unit_weight(), s).delta_s for s in (1, 2, 4)]
    monkeypatch.setattr(fekete, "approx_fekete", lambda *args, **kwargs: pytest.fail("tfd_table picked twice"))
    rows = tfd_table(space, unit_weight(), [1, 2, 4], epsilon=1e-3)
    assert [r.delta_s for r in rows] == expected  # bit for bit


def test_tfd_rows():
    rows = tfd_table(interval(a=1.0, grid=401, spacing="chebyshev"), unit_weight(), [2, 1])
    assert [r.s for r in rows] == [1, 2]
    for row in rows:
        assert row.gap == pytest.approx(abs(row.delta_s - row.gram_root), abs=1e-15)
        assert row.m_s == row.s * (row.s + 1) // 2
    # degree 1: delta = 2, gram root = det(I)^(1/2) = 1
    assert rows[0].delta_s == pytest.approx(2.0, rel=1e-9)
    assert rows[0].gram_root == pytest.approx(1.0, rel=1e-4)


def _weighted_vandermonde(space, weight, s, real=True):
    basis, A, _ = arnoldi_basis(space.grid, weight.values(space.grid), s)
    return (A if real else A.astype(complex)), basis


def _log_volume(A, sel, basis):
    return float(np.linalg.slogdet(A[sel])[1]) - basis.log_lead


@pytest.mark.parametrize("seed", range(20))
def test_greedy_rows_are_the_pivots_of_column_pivoted_qr(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(10, 200)), int(rng.integers(2, 12))
    A = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, (m, 1))
    if seed % 2:
        A = A + 1j * rng.standard_normal((m, n))
    _, _, piv = sla.qr(A.T, mode="economic", pivoting=True)
    assert measure._greedy_rows(A) == piv[:n].tolist()


@pytest.mark.parametrize("seed", range(20))
def test_greedy_rows_keep_the_rank_of_badly_scaled_rows(seed):
    # a row 1e10 times longer than the others and a near-copy of it (residual
    # 1e-6): residual norms downdated by |<a_i, q>|^2 instead of recomputed
    # leave the near-copy with rounding noise of order 1e4, above the other
    # rows' residuals of order 1, and such a pick took it or stopped at rank 2
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    A = np.array([1e10 * u, 1e10 * u + 1e-6 * rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3)])
    assert sorted(measure._greedy_rows(A)) == [0, 2, 3]


def _exchange_by_inverse(A, sel):
    # the exchange sweeps with a fresh inverse of the selection for every
    # slot, until a sweep swaps nothing
    sel = list(sel)
    improved = True
    while improved:
        improved = False
        for k in range(len(sel)):
            ratios = np.abs(A @ np.linalg.inv(A[sel])[:, k])
            j = int(np.argmax(ratios))
            if ratios[j] > 1.0 + 1e-10 and j != sel[k]:
                sel[k] = j
                improved = True
    return sel


@pytest.mark.parametrize(
    "space, weight, s",
    [
        (interval(grid=401), unit_weight(), 16),
        (disk(), gaussian_weight(), 12),
        (cube(2, per_axis=33), unit_weight(), 8),
        (simplex(2), unit_weight(), 6),
    ],
    ids=["interval_s16", "disk_s12", "cube2_s8", "simplex_s6"],
)
def test_rank_one_exchange_matches_the_per_swap_inverse(space, weight, s):
    A, basis = _weighted_vandermonde(space, weight, s)
    start = measure._greedy_rows(A)
    fast, _ = measure._exchange(A, list(start))
    slow = _exchange_by_inverse(A, start)
    assert _log_volume(A, fast, basis) == pytest.approx(_log_volume(A, slow, basis), abs=1e-12)
    assert _log_volume(A, fast, basis) >= _log_volume(A, start, basis)
    res = approx_fekete(space, weight, s)
    assert res.weighted_vdm_log == pytest.approx(_log_volume(A, fast, basis), abs=1e-12)


@pytest.mark.parametrize("space", [interval(), cube(2, per_axis=9), ball(2), simplex(2)], ids=lambda sp: sp.kind)
def test_approx_fekete_runs_real_on_real_grids(space, monkeypatch):
    s, seen = 3, []
    greedy = measure._greedy_rows

    def spy(A):
        seen.append(A.dtype)
        return greedy(A)

    monkeypatch.setattr(measure, "_greedy_rows", spy)
    res = approx_fekete(space, gaussian_weight(), s)
    assert seen == [np.dtype(np.float64)]
    # the complex path: the same rows held in complex dtype
    A, basis = _weighted_vandermonde(space, gaussian_weight(), s, real=False)
    assert np.iscomplexobj(A)
    sel, _ = measure._exchange(A, greedy(A))
    assert res.weighted_vdm_log == pytest.approx(_log_volume(A, sel, basis), abs=1e-12)
