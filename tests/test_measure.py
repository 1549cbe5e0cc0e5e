"""Design spaces, weights, discrete designs, and serialization."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    ball,
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
from optdesign import measure
from optdesign.cli import main
from optdesign.measure import DiscreteDesign


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


@pytest.mark.parametrize("per_axis", [5, 33])
def test_cube_records_its_signed_permutation_orbits(per_axis):
    sp = cube(dimension=2, per_axis=per_axis)
    orbits = sp.orbits
    counts = np.bincount(orbits)
    half = (per_axis + 1) // 2  # folded node indices per axis
    assert counts.size == half * (half + 1) // 2
    assert set(counts.tolist()) == {1, 4, 8}
    x = np.round(sp.grid.real, 12)
    for o in range(counts.size):
        pts = {tuple(p) for p in x[orbits == o]}
        # closed under the axis swap and both sign flips
        assert pts == {(sx * b, sy * a) for a, b in pts for sx in (1, -1) for sy in (1, -1)}


@pytest.mark.parametrize("spacing", ["chebyshev", "uniform"])
def test_interval_records_its_mirror_orbits(spacing):
    sp = interval(a=2.0, grid=7, spacing=spacing)
    assert sp.orbits.tolist() == [0, 1, 2, 3, 2, 1, 0] == cube(1, per_axis=7).orbits.tolist()
    np.testing.assert_allclose(sp.grid[:, 0], -sp.grid[::-1, 0], atol=1e-15)


@pytest.mark.parametrize("dimension, per_axis", [(2, 33), (3, 9)])
def test_orbit_ids_number_sorted_keys_as_a_row_unique_does(dimension, per_axis):
    # the mixed-radix code of each sorted row orders the orbits as
    # np.unique(axis=0) orders the sorted rows, so the cube keeps its numbering
    k = np.arange(per_axis)
    folded = np.meshgrid(*([np.minimum(k, per_axis - 1 - k)] * dimension), indexing="ij")
    keys = np.stack([g.ravel() for g in folded], axis=1)
    expect = np.unique(np.sort(keys, axis=1), axis=0, return_inverse=True)[1].reshape(-1)
    assert np.array_equal(measure._orbit_ids(keys), expect)
    assert np.array_equal(cube(dimension, per_axis=per_axis).orbits, expect)


@pytest.mark.parametrize("dimension, refine, count", [(1, 7, 4), (2, 80, 574), (3, 12, 34)])
def test_simplex_records_its_barycentric_permutation_orbits(dimension, refine, count):
    # an orbit is one multiset of barycentric integers (k_1, ..., k_d, refine - sum k):
    # a partition of refine into at most d + 1 parts
    sp = simplex(dimension, a=2.0, refine=refine)
    k = np.rint(sp.grid.real * refine / 2.0).astype(int)
    bary = np.column_stack([k, refine - k.sum(axis=1)])
    orbits = sp.orbits
    assert np.bincount(orbits).size == count and orbits.max() == count - 1
    for o in range(count):
        members = {tuple(b) for b in bary[orbits == o].tolist()}
        assert members == set(itertools.permutations(next(iter(members))))


def test_ball_1d_carries_its_interval_mirror_orbits():
    sp = ball(1, a=1.5, radial=3, angular=16)
    x = sp.grid[:, 0].real
    assert np.array_equal(sp.orbits, interval(a=1.5, grid=sp.grid_size).orbits)
    for o in range(np.bincount(sp.orbits).size):
        assert np.allclose(np.sort(x[sp.orbits == o]), np.sort(-x[sp.orbits == o]), atol=1e-15)


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
        # the lattice in lexicographic order, which decides ties in the Fekete pick
        lattice = [k for k in itertools.product(range(refine + 1), repeat=d) if sum(k) <= refine]
        assert np.array_equal(sp.grid.real, np.array(lattice, dtype=float) * (1.0 / refine))
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
    orbits = sp.orbits
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
    assert sp.membership(np.array([[2.0], [1j]])).tolist() == [True, True]
    assert sp.a == 1.0 and custom_grid([[0.5, -2j], [0.1, 1.0]]).a == 2.0  # the largest coordinate modulus
    with pytest.raises(ValueError, match="at least one point"):
        custom_grid([])


@pytest.mark.parametrize("name", ["interval", "cube2", "cube3", "simplex2", "simplex3", "disk"])
def test_custom_grid_of_a_builders_grid_records_its_a(name):
    space = _BUILT[name]
    assert custom_grid(space.grid).a == pytest.approx(space.a, rel=1e-15)  # the disk's |r exp(i th)| rounds


def _one_point_member(space, p):
    """Each builder's membership rule for one point, written out."""
    tol = 1e-12 * max(1.0, space.a)
    x, real = p.real, bool(np.all(np.abs(p.imag) <= tol))
    if space.kind == "disk":
        return bool(abs(p[0]) <= space.a + tol)
    if space.kind == "ball":
        return real and math.sqrt(float(x @ x)) <= space.a + tol
    if space.kind == "simplex":
        return real and bool(np.all(x >= -tol)) and float(x.sum()) <= space.a + tol
    return real and bool(np.all(np.abs(x) <= space.a + tol))  # interval and cube


_BUILT = {
    "interval": interval(a=2.0, grid=9),
    "cube2": cube(2, per_axis=5),
    "cube3": cube(3, a=0.5, per_axis=3),
    "ball1": ball(1, radial=2, angular=16),
    "ball2": ball(2, radial=3, angular=12),
    "ball3": ball(3, a=2.0, radial=2, angular=12),
    "simplex2": simplex(2, refine=4),
    "simplex3": simplex(3, a=2.0, refine=3),
    "disk": disk(radial=3, angular=8),
}


@pytest.mark.parametrize("name", sorted(_BUILT))
def test_array_membership_matches_a_per_point_loop(name):
    space = _BUILT[name]
    g = space.grid
    # the grid, and copies pushed just outside its edges, below zero and off the real line
    pts = np.concatenate([g, g * (1 + 1e-9), g - 1e-9, g + 1e-9j])
    inside = space.membership(pts)
    assert inside.shape == (len(pts),) and inside.dtype == bool
    assert inside[: len(g)].all() and not inside.all()
    assert inside.tolist() == [space.contains(p) for p in pts] == [_one_point_member(space, p) for p in pts]


def test_custom_grid_rejects_repeated_points():
    with pytest.raises(ValueError, match="grid points 0 and 1 coincide"):
        custom_grid([0, 0, 1])
    with pytest.raises(ValueError, match="grid points 1 and 2 coincide"):
        custom_grid([[0.0, 1.0], [1.0, 0.5j], [1.0, 0.5j]])


def test_custom_grid_refuses_points_that_would_be_one_atom():
    # 1e-18 sat 1e-18 from the node 0 of 21 Chebyshev-Lobatto nodes: the grid was accepted and
    # the solve failed at its end, when make_design found the two atoms coincident
    with pytest.raises(ValueError, match="^grid points 10 and 21 coincide within 1e-12$"):
        custom_grid(np.r_[np.cos(np.pi * np.arange(21) / 20), 1e-18])
    assert custom_grid([0.0, 1e-18]).grid_size == 2  # the tolerance follows the scale of the points
    defaults = (interval(), cube(), ball(2), ball(3), simplex(2), disk())
    tiny = (interval(a=1e-150, grid=11), disk(a=1e-12, radial=3, angular=8))
    for space in (*_BUILT.values(), *defaults, *tiny):  # every builder grid stays legal
        assert custom_grid(space.grid).grid_size == space.grid_size


_NAN_DESIGN = '{"dimension": 1, "degree": 1, "points": [[[0.5, 0.0]], [[NaN, 0.0]]], "weights": [0.5, 0.5]}'


@pytest.mark.parametrize(
    "call, message",
    [
        (["fekete", "--domain", "cube", "--dimension", "0"], "cube dimension must be >= 1"),
        (["fekete", "--domain", "cube", "--grid", "1"], "cube needs a > 0 and per_axis >= 2"),
        (["fekete", "--domain", "ball", "--dimension", "4"], "ball grids are implemented for dimension <= 3"),
        (["fekete", "--domain", "ball", "--dimension", "2", "--a", "0"], "ball needs a > 0 and radial >= 2"),
        (["fekete", "--domain", "simplex", "--dimension", "4"], "simplex grids are implemented for dimension <= 3"),
        (["fekete", "--domain", "simplex", "--grid", "0"], "simplex needs a > 0 and refine >= 1"),
        (lambda: disk(spacing="log"), "unknown disk spacing 'log'"),  # --spacing offers only the known two
        (["gvalue", "--design", "{tmp}/nan.json"], "design JSON points must be finite"),
        (["fekete", "--weight", "{tmp}/kind.json"], "unknown weight kind 'uniform'"),
    ],
)
def test_bad_domains_and_files_are_refused_by_name(tmp_path, capsys, call, message):
    if callable(call):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
        return
    (tmp_path / "nan.json").write_text(_NAN_DESIGN)  # Python's json reads NaN
    (tmp_path / "kind.json").write_text('{"kind": "uniform"}')
    out = tmp_path / "out"
    assert main([*(arg.format(tmp=tmp_path) for arg in call), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(out.iterdir())


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


@pytest.mark.parametrize("complex_points", [False, True])
def test_merge_matches_a_pairwise_union_find(complex_points):
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, d = int(rng.integers(2, 30)), int(rng.integers(1, 3))
        centres = rng.standard_normal((m // 3 + 1, d)) + (1j * rng.standard_normal((m // 3 + 1, d)) if complex_points else 0)
        pts = centres[rng.integers(0, len(centres), m)] + 1e-3 * rng.standard_normal((m, d))
        w = rng.random(m)
        res = prune_and_merge(make_design(pts, w / w.sum()), merge_radius=0.01)
        # reference: union every pair within the radius, groups in order of their lowest member
        xy = pts.astype(complex).view(float)
        label = list(range(m))
        for i in range(m):
            for j in range(i + 1, m):
                if np.linalg.norm(xy[i] - xy[j]) <= 0.01:
                    old, new = label[j], label[i]
                    label = [new if v == old else v for v in label]
        groups = [np.flatnonzero(np.array(label) == g) for g in dict.fromkeys(label)]
        ref_w = np.array([w[g].sum() for g in groups]) / w.sum()
        ref_p = np.array([np.average(pts[g], axis=0, weights=w[g]) for g in groups])
        order = np.argsort(ref_p[:, 0].real, kind="stable")
        assert np.allclose(res.design.points, ref_p[order], rtol=0, atol=1e-14)
        assert np.allclose(res.design.weights, ref_w[order], rtol=0, atol=1e-15)


def test_make_design_refuses_nan_weights():
    with pytest.raises(ValueError, match="sum to nan"):
        make_design([0.0, 1.0], [math.nan, 1.0])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_points_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        make_design([bad, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        custom_grid([[0.0, bad], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        table_weight([0.0, 1.0], [1.0, 2.0]).values([[bad]])
    with pytest.raises(ValueError, match="finite"):
        table_weight([bad, 1.0], [1.0, 2.0]).values([[1.0]])


@pytest.mark.parametrize(
    "rows, k, n, dtype, calls",
    [
        (2501, 40, 30, float, 4),  # 833 rows per call: three full blocks and 2 rows
        (1000, 26, 26, complex, 3),  # the real 52 x 52 image: 369 rows per call
        (1, 40, 30, complex, 1),
        (100, 40, 30, float, 1),  # 1.2e5 multiply-adds: below the limit, one call
        (10**5, 5, 1, float, 3),  # one column goes to dgemv: 40000 rows per call
    ],
)
def test_matmul_keeps_each_blas_call_below_the_threading_size(monkeypatch, rows, k, n, dtype, calls):
    from optdesign import basis

    rng = np.random.default_rng(rows)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    A, B = draw(rows, k), draw(k, n)
    sizes = []
    matmul = np.matmul

    def record(a, b, **kw):
        sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", record)
    got = basis._matmul(A, B)
    monkeypatch.undo()
    assert len(sizes) == calls
    assert max(sizes) <= (basis._GEMV_MAX_MACS if n == 1 else basis._GEMM_MAX_MACS)
    assert got.dtype == np.result_type(A, B) and got.shape == (rows, n)
    np.testing.assert_allclose(got, A @ B, rtol=1e-12, atol=1e-12 * np.abs(A @ B).max())


# ---------------------------------------------------------------------------
# the neighbour search against brute-force O(m^2) oracles


@st.composite
def _point_sets(draw, step):
    """(m, d) complex points with exact duplicates, pairs step * (1 +- 1e-3) apart and shared grid coordinates."""
    d, complex_points, on_grid = draw(st.integers(1, 3)), draw(st.booleans()), draw(st.booleans())
    m = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coordinates():
        if on_grid:  # a tensor grid: points share coordinates, and some coincide
            return np.cos(np.pi * np.arange(5) / 4)[rng.integers(0, 5, (m, d))]
        return rng.uniform(-1, 1, (m, d))

    pts = coordinates() + (1j * coordinates() if complex_points else 0)
    pts = pts.astype(complex)
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, m, 2)
        pts[j] = pts[i]
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = *rng.integers(0, m, 2), rng.integers(0, d)
        phase = np.exp(2j * np.pi * rng.uniform()) if complex_points else rng.choice([-1.0, 1.0])
        pts[j] = pts[i]
        pts[j, k] += step * (1.0 + draw(st.sampled_from([-1e-3, 1e-3]))) * phase
    return pts


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), tol=st.sampled_from([0.0, 1e-12, 1e-3, 0.1]))
def test_require_distinct_names_the_brute_force_closest_pair(data, tol):
    pts = data.draw(_point_sets(tol))
    i, j = np.triu_indices(len(pts), 1)
    dist = np.max(np.abs(pts[i] - pts[j]), axis=1)  # every pair, in row-major order
    near = np.flatnonzero(dist <= tol)
    if not near.size:
        measure._require_distinct(pts, tol, "atoms")
        return
    k = near[np.argmin(dist[near])]  # the first minimum: ties go to the lowest (i, j)
    with pytest.raises(ValueError) as err:
        measure._require_distinct(pts, tol, "atoms")
    assert str(err.value) == f"atoms {i[k]} and {j[k]} coincide" + (f" within {tol}" if tol else "")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), copies=st.integers(0, 6), nudged=st.integers(0, 4), far=st.booleans())
def test_table_lookup_takes_the_brute_force_nearest_point(data, copies, nudged, far):
    ref = data.draw(_point_sets(1e-9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    queries = [ref[rng.integers(0, len(ref), copies)]]
    for _ in range(nudged):  # a table point moved 1e-9 (1 +- 1e-3) along one coordinate
        q = ref[rng.integers(0, len(ref))].copy()
        q[rng.integers(0, q.size)] += 1e-9 * (1.0 + data.draw(st.sampled_from([-1e-3, 1e-3]))) * np.exp(2j * np.pi * rng.uniform())
        queries.append(q[None])
    if far:
        queries.append(rng.uniform(-1, 1, (1, ref.shape[1])) + 0j)
    pts = np.concatenate(queries)
    values = np.arange(1.0, len(ref) + 1.0)
    table = table_weight(ref, values)
    # oracle: the Euclidean nearest table point (the first on ties), refused beyond 1e-9
    X, Y = ref.view(np.float64), pts.view(np.float64)
    gap = (X[None, :, :] - Y[:, None, :]).reshape(-1, X.shape[1])
    nearest = np.argmin(np.einsum("ij,ij->i", gap, gap).reshape(len(pts), len(ref)), axis=1)
    if np.all(np.max(np.abs(ref[nearest] - pts), axis=1) <= 1e-9):
        assert np.array_equal(table.values(pts), values[nearest])
    else:
        with pytest.raises(ValueError, match="off its grid"):
            table.values(pts)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), radius=st.sampled_from([1e-3, 0.05, 0.3]))
def test_merge_yields_the_brute_force_clusters(data, radius):
    pts = data.draw(_point_sets(radius))
    m = len(pts)
    w = np.random.default_rng(m).uniform(0.1, 1.0, m)
    # duplicates are allowed here: the design is built without make_design's check
    design = DiscreteDesign(points=pts, weights=w / w.sum())
    xy = pts.view(np.float64)
    i, j = np.triu_indices(m, 1)
    close = np.linalg.norm(xy[i] - xy[j], axis=1) <= radius
    label = list(range(m))
    for a, b in zip(i[close], j[close]):
        old, new = label[b], label[a]
        label = [min(old, new) if v in (old, new) else v for v in label]
    label = np.unique(label, return_inverse=True)[1]  # clusters in order of their lowest member
    mass = np.bincount(label, weights=design.weights)
    centre = np.stack([np.bincount(label, weights=design.weights * c) for c in xy.T], axis=1) / mass[:, None]
    order = np.argsort(centre[:, 0], kind="stable")
    try:
        expected = make_design(centre.view(complex)[order], mass[order] / mass[order].sum())
    except ValueError:  # two clusters share a barycentre
        with pytest.raises(ValueError, match="coincide"):
            prune_and_merge(design, merge_radius=radius)
        return
    got = prune_and_merge(design, merge_radius=radius).design
    assert np.array_equal(got.points, expected.points)
    assert np.array_equal(got.weights, expected.weights)


# ints beyond the float range and objects included: numpy raises OverflowError and TypeError on them
_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats(-2.0, 2.0) | st.text(max_size=2)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=1), kids, max_size=2),
    max_leaves=24,
)
# mostly point-shaped: lists of points, of pairs, of numbers, with any leaf mixed in
_NEAR_POINTS = st.lists(st.lists(st.lists(st.integers() | st.floats(-2.0, 2.0) | _JSON_VALUES, min_size=1, max_size=3),
                                 max_size=3), max_size=4)
_NEAR_NUMBERS = st.lists(st.integers() | st.floats(0.0, 1.0) | _JSON_VALUES, max_size=4)


def _decode(kind, payload):
    text = json.dumps(payload)
    return design_from_json(text) if kind == "design" else weight_from_json(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["design", "weight"]),
    payload=st.fixed_dictionaries({}, optional={
        "dimension": st.integers(-1, 3) | _JSON_VALUES,
        "degree": st.integers(0, 3) | _JSON_VALUES,
        "points": _NEAR_POINTS | _JSON_VALUES,
        "weights": _NEAR_NUMBERS | _JSON_VALUES,
        "values": _NEAR_NUMBERS | _JSON_VALUES,
    }),
)
def test_any_json_decodes_or_raises_value_error(kind, payload):
    try:
        _decode(kind, dict(payload, kind="table") if kind == "weight" else payload)
    except ValueError:
        pass


def _corrupt(data, node):
    """``node`` with one element somewhere in it replaced, wrapped in a list, unwrapped, dropped or doubled."""
    i = data.draw(st.integers(0, len(node) - 1))
    child = node[i]
    moves = ["leaf", "wrap", "drop", "double"] + (["unwrap", "deeper"] if isinstance(child, list) else [])
    move = data.draw(st.sampled_from(moves))
    if move == "leaf":
        child = data.draw(st.none() | st.booleans() | st.text(max_size=2) | st.just([]))
    elif move == "wrap":
        child = [child]
    elif move == "unwrap":
        child = child[0]
    elif move == "deeper":
        child = _corrupt(data, child)
    return node[:i] + ([] if move == "drop" else [child, child] if move == "double" else [child]) + node[i + 1:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(["design", "weight"]), d=st.integers(1, 3), m=st.integers(2, 4),
       target=st.sampled_from(["points", "weights"]))
def test_malformed_design_or_weight_json_raises_value_error(data, kind, d, m, target):
    # distinct points of d [re, im] pairs, weights summing to 1: the untouched file decodes
    points = [[[float(i), data.draw(st.floats(-1.0, 1.0))] for _ in range(d)] for i in range(m)]
    weights = [1.0 / m] * m
    if kind == "design":
        payload = {"dimension": d, "degree": 1, "points": points, "weights": weights}
    else:
        payload = {"kind": "table", "points": points, "values": weights}
    _decode(kind, payload)
    key = target if kind == "design" or target == "points" else "values"
    if key == "points":
        payload[key] = _corrupt(data, points)
    else:  # a weight that is not a number, or a nested list of weights
        i = data.draw(st.integers(0, m - 1))
        bad = data.draw(st.none() | st.booleans() | st.text(max_size=2) | st.just([weights[i]]))
        payload[key] = weights[:i] + [bad] + weights[i + 1:]
    with pytest.raises(ValueError):
        _decode(kind, payload)
