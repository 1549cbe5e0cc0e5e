"""Design spaces, weights, discrete designs, and serialization."""

import json
import math

import numpy as np
import pytest

from optdesign import (
    ball,
    callable_weight,
    check_admissible,
    cube,
    custom_grid,
    design_from_json,
    design_to_json,
    disk,
    gaussian_weight,
    interval,
    make_design,
    prune_and_merge,
    simplex,
    table_weight,
    uniform_design,
    unit_weight,
    weight_from_json,
    weight_to_json,
)


def test_interval_chebyshev_nodes():
    sp = interval(a=2.0, grid=9)
    k = np.arange(9)
    expect = -2.0 * np.cos(np.pi * k / 8)
    assert np.allclose(sp.grid[:, 0].real, expect, atol=1e-15)
    assert sp.grid[0, 0] == -2.0 and sp.grid[-1, 0] == 2.0
    assert not sp.is_complex


def test_interval_uniform_spacing():
    sp = interval(grid=11, spacing="uniform")
    diffs = np.diff(sp.grid[:, 0].real)
    assert np.allclose(diffs, 0.2, atol=1e-15)
    with pytest.raises(ValueError):
        interval(spacing="log")
    with pytest.raises(ValueError):
        interval(grid=1)
    with pytest.raises(ValueError):
        interval(a=0.0)


def test_cube_grid_is_tensor_product():
    sp = cube(dimension=2, per_axis=5)
    assert sp.grid_size == 25
    assert all(sp.contains(p) for p in sp.grid)
    assert not sp.contains(np.array([1.5, 0.0]))


def test_ball_grid_inside_and_center():
    sp = ball(dimension=2, radial=6, angular=24)
    radii = np.linalg.norm(sp.grid.real, axis=1)
    assert radii.max() <= 1.0 + 1e-12
    assert radii.min() == 0.0
    sp3 = ball(dimension=3, radial=4, angular=24)
    assert np.linalg.norm(sp3.grid.real, axis=1).max() <= 1.0 + 1e-12
    one = ball(dimension=1)
    assert one.kind == "ball" and one.dimension == 1


def test_simplex_lattice_count_and_membership():
    for d, refine in ((1, 7), (2, 6), (3, 4)):
        sp = simplex(dimension=d, refine=refine)
        assert sp.grid_size == math.comb(refine + d, d)
        sums = sp.grid.real.sum(axis=1)
        assert sums.max() <= 1.0 + 1e-12 and sp.grid.real.min() >= -1e-15


def test_disk_grid_rotation_invariance():
    sp = disk(radial=5, angular=12)
    assert sp.grid_size == 5 * 12 + 1
    z = sp.grid[:, 0]
    rotated = z * np.exp(2j * np.pi / 12)
    # rotating by one angular step permutes the grid
    for zr in rotated:
        assert np.min(np.abs(z - zr)) < 1e-12
    orbits = sp.params["orbits"]
    counts = np.bincount(orbits)
    assert counts[0] == 1 and np.all(counts[1:] == 12)


def test_disk_radii_spacings():
    su = disk(radial=4, angular=8, spacing="uniform")
    ring = np.unique(np.round(np.abs(su.grid[:, 0]), 12))
    assert np.allclose(ring, [0.0, 0.25, 0.5, 0.75, 1.0])
    sc = disk(radial=4, angular=8, spacing="chebyshev")
    expect = np.sin(0.5 * np.pi * np.arange(1, 5) / 4)
    ringc = np.unique(np.round(np.abs(sc.grid[:, 0]), 12))
    assert np.allclose(ringc, np.concatenate([[0.0], expect]))
    with pytest.raises(ValueError):
        disk(angular=3)


def test_custom_grid_wraps_points():
    sp = custom_grid([0.0, 0.5, 1.0])
    assert sp.kind == "custom" and sp.grid.shape == (3, 1)
    assert sp.contains(123.0)  # default membership accepts everything


def test_custom_grid_rejects_repeated_points():
    with pytest.raises(ValueError, match="grid points 0 and 1 coincide"):
        custom_grid([0, 0, 1])
    with pytest.raises(ValueError, match="grid points 1 and 2 coincide"):
        custom_grid([[0.0, 1.0], [1.0, 0.5j], [1.0, 0.5j]])


def test_weight_values_unit_gaussian():
    pts = np.array([[0.0], [1.0], [0.5 + 0.5j]])
    assert np.allclose(unit_weight().values(pts), 1.0)
    expect = np.exp(-np.abs(pts[:, 0]) ** 2)
    assert np.allclose(gaussian_weight().values(pts), expect, rtol=1e-15)
    assert gaussian_weight()(1j) == pytest.approx(math.exp(-1.0))


def test_weight_phi_is_minus_log():
    w = gaussian_weight()
    assert w.phi(1.0) == pytest.approx(1.0)
    zero = table_weight([[0.0], [1.0]], [0.0, 2.0])
    assert zero.phi(0.0) == math.inf


def test_table_weight_lookup_and_errors():
    w = table_weight([0.0, 1.0], [0.5, 2.0])
    assert np.allclose(w.values([[1.0], [0.0]]), [2.0, 0.5])
    with pytest.raises(ValueError):
        w.values([[0.5]])  # off the table
    with pytest.raises(ValueError):
        table_weight([0.0], [-1.0])
    with pytest.raises(ValueError):
        table_weight([0.0, 1.0], [1.0])


def test_table_lookup_matches_the_brute_force_nearest_match():
    grid = disk().grid
    perm = np.random.default_rng(3).permutation(grid.shape[0])
    values = np.arange(grid.shape[0], dtype=float)
    w = table_weight(grid[perm], values)
    queries = grid + 1e-10 * (1 - 1j)  # within 1e-9 of a table point, not on it
    ref = w.table_points
    brute = [values[int(np.argmin(np.max(np.abs(ref - q[None, :]), axis=1)))] for q in queries]
    assert np.array_equal(w.values(queries), brute)
    with pytest.raises(ValueError, match="off its grid"):
        w.values(grid + 1e-8)


def test_callable_weight_rejects_negative_values():
    w = callable_weight(lambda z: float(np.real(z)))
    with pytest.raises(ValueError):
        w.values([[-1.0]])


def test_make_design_validation():
    with pytest.raises(ValueError):
        make_design([0.0, 1.0], [0.5, 0.6])  # mass 1.1
    with pytest.raises(ValueError):
        make_design([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError):
        make_design([0.5, 0.5], [0.5, 0.5])  # coincident atoms
    with pytest.raises(ValueError):
        make_design(np.zeros((0, 1)), [])
    d = make_design([0.0, 1.0], [0.5 + 1e-12, 0.5])
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_distinct_atoms_checked_without_a_pairwise_table():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (20_000, 2)) + 1j * rng.uniform(-1, 1, (20_000, 2))
    d = make_design(pts, np.full(20_000, 1 / 20_000))
    assert d.size == 20_000
    # the closest pair is named, with the same metric max_k |z_k - z'_k|
    pts[17] = pts[3] + 1e-13
    pts[900] = pts[40] + 5e-13j
    with pytest.raises(ValueError, match="atoms 3 and 17 coincide within 1e-12"):
        make_design(pts, np.full(20_000, 1 / 20_000))
    # 1e-12 apart in every coordinate: distinct under this metric
    assert make_design([[0.0, 0.0], [1.1e-12, 1.1e-12j]], [0.5, 0.5]).size == 2


def test_duplicate_pair_matches_the_pairwise_table():
    # the reference: the full m x m table of max_k |z_k - z'_k|, first minimum in row-major order
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.uniform(-1, 1, (200, 2)) + 1j * rng.uniform(-1, 1, (200, 2))
        for _ in range(3):
            i, j = rng.choice(200, size=2, replace=False)
            pts[j] = pts[i] + rng.uniform(0, 1e-12) * np.exp(2j * np.pi * rng.uniform(size=2)) / math.sqrt(2)
        dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
        np.fill_diagonal(dist, np.inf)
        a, b = np.unravel_index(int(np.argmin(dist)), dist.shape)
        with pytest.raises(ValueError, match=f"atoms {a} and {b} coincide within 1e-12"):
            make_design(pts, np.full(200, 1 / 200))


def test_uniform_design_weights():
    d = uniform_design([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(d.weights, 1.0 / 3.0)
    assert d.dimension == 2 and len(d) == 3


def test_prune_drops_light_atoms_and_reports_mass():
    d = make_design([-1.0, 0.0, 1.0], [0.499, 0.002, 0.499])
    res = prune_and_merge(d, weight_tol=0.01)
    assert res.design.size == 2
    assert res.dropped_mass == pytest.approx(0.002, abs=1e-15)
    assert np.allclose(res.design.weights, 0.5)


def test_merge_chains_to_weighted_barycenter():
    # 0.04 spacing chains three atoms through radius 0.05
    d = make_design([0.0, 0.04, 0.08, 1.0], [0.2, 0.3, 0.3, 0.2])
    res = prune_and_merge(d, merge_radius=0.05)
    assert res.design.size == 2
    bary = (0.0 * 0.2 + 0.04 * 0.3 + 0.08 * 0.3) / 0.8
    assert res.design.points[0, 0].real == pytest.approx(bary, abs=1e-15)
    assert res.design.weights[0] == pytest.approx(0.8, abs=1e-15)
    far = make_design([0.0, 1.0], [0.5, 0.5])
    same = prune_and_merge(far, merge_radius=0.05)
    assert same.design.size == 2


def test_prune_refuses_to_empty_the_design():
    d = make_design([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        prune_and_merge(d, weight_tol=0.9)


def test_admissibility_counts_and_rank():
    sp = interval(grid=21)
    rep = check_admissible(unit_weight(), sp, 3)
    assert rep.passed and rep.rank == 4

    few = table_weight(sp.grid, np.r_[1.0, np.zeros(20)])
    rep2 = check_admissible(few, sp, 1)
    assert not rep2.passed and rep2.positive_count == 1 and "positive-weight" in rep2.reason

    # the rank test runs in rescaled coordinates, so it is affine invariant:
    # two distinct points pass no matter how close they sit
    tiny = custom_grid([0.0, 1e-18])
    assert check_admissible(unit_weight(), tiny, 1).passed

    # collinear points are rank deficient under every affine map
    collinear = custom_grid([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [-0.3, -0.3]])
    rep3 = check_admissible(unit_weight(), collinear, 1)
    assert not rep3.passed and rep3.rank == 2 and "rank" in rep3.reason


def test_design_json_round_trip():
    d = make_design([0.5 + 0.25j, -1.0], [0.25, 0.75])
    text = design_to_json(d, degree=3)
    back, degree = design_from_json(text)
    assert degree == 3
    assert np.array_equal(back.points, d.points)
    assert np.array_equal(back.weights, d.weights)
    payload = json.loads(text)
    assert payload["points"][0][0] == [0.5, 0.25]


def test_weight_json_round_trip():
    for w in (unit_weight(), gaussian_weight(), table_weight([0.0, 1.0], [1.0, 2.0])):
        back = weight_from_json(weight_to_json(w))
        assert back.kind == w.kind
    pts = np.array([[0.3]])
    w = table_weight([0.0, 0.3], [1.0, 7.0])
    assert weight_from_json(weight_to_json(w)).values(pts)[0] == 7.0
    with pytest.raises(ValueError):
        weight_to_json(callable_weight(lambda z: 1.0))


def test_grids_are_read_only():
    sp = interval(grid=5)
    with pytest.raises(ValueError):
        sp.grid[0, 0] = 0.0
    d = uniform_design([0.0, 1.0])
    with pytest.raises(ValueError):
        d.weights[0] = 0.9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_values_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        table_weight([0.0, 1.0], [1.0, bad])
    w = callable_weight(lambda z: bad)
    with pytest.raises(ValueError, match="non-finite"):
        w.values([[0.5]])
