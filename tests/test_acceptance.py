"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single PASS/FAIL summary
line (run ``pytest -s`` to see them all).  Frozen expectations come from
independent oracles computed inside the tests: brute-force subset search
for the classical designs, quantile spacing for the Kolmogorov threshold,
combinatorial Vandermonde sums for determinants and Christoffel values.
"""

import itertools
import math
import time

import numpy as np
import pytest

from optdesign import (
    RegressionExperiment,
    arcsine,
    christoffel,
    concavity_probe,
    first_derivative_residual,
    gaussian_weight,
    interval,
    kolmogorov_distance,
    make_design,
    moment_distance,
    moment_matrix,
    monomial_basis,
    orthonormal_factor,
    prune_and_merge,
    simulate_regression,
    tfd_table,
    uniform_design,
    unit_weight,
    variance_identity_check,
    vdm_integral_christoffel,
    vdm_integral_det,
    weighted_ball_measure,
)
from optdesign.cli import main as cli_main


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    """Let _report bypass output capture so every summary line shows."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, label, ok, detail):
    line = f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPSYS is None:
        print(line, flush=True)
    else:
        with _CAPSYS.disabled():
            print(line, flush=True)


def _local_step(grid_x, target):
    """Spacing of the grid around the point nearest to target."""
    i = int(np.argmin(np.abs(grid_x - target)))
    lo = grid_x[max(i - 1, 0)]
    hi = grid_x[min(i + 1, grid_x.size - 1)]
    return max(hi - grid_x[i], grid_x[i] - lo)


def test_1_interval_certificates(cached_solve):
    worst_gap = worst_mass = worst_secs = 0.0
    ok = True
    for s in range(1, 9):
        res, secs = cached_solve("interval", s, 1e-5)
        n = res.n
        ok &= res.converged
        ok &= -1e-8 * n <= res.kw_gap <= 1e-5 * n
        ok &= res.mass_identity_residual <= 1e-8 * n
        ok &= secs < 10.0
        worst_gap = max(worst_gap, res.kw_gap / n)
        worst_mass = max(worst_mass, res.mass_identity_residual / n)
        worst_secs = max(worst_secs, secs)
    detail = (
        f"s=1..8: max gap/n {worst_gap:.2e}, max mass residual/n "
        f"{worst_mass:.2e}, max {worst_secs:.1f}s per degree"
    )
    _report(1, "interval optimality certificates", ok, detail)
    assert ok, detail


def test_2_classical_interval_designs(cached_solve, cheb_interval):
    # oracle first: enumerate equal-mass 3-subsets of a coarse grid; the
    # determinant of an n-atom degree-(n-1) design is |VDM|^2 prod(masses),
    # maximized at equal masses, so the subset search is exhaustive
    coarse = interval(grid=41).grid[:, 0].real
    best_det, best_atoms = -1.0, None
    for combo in itertools.combinations(range(coarse.size), 3):
        pts = coarse[list(combo)]
        vdm = (pts[1] - pts[0]) * (pts[2] - pts[0]) * (pts[2] - pts[1])
        det = vdm**2 / 27.0
        if det > best_det:
            best_det, best_atoms = det, pts
    assert np.allclose(best_atoms, [-1.0, 0.0, 1.0], atol=1e-12)
    assert best_det == pytest.approx(4.0 / 27.0, abs=1e-12)

    grid_x = cheb_interval.grid[:, 0].real
    ok = True
    notes = []

    res1, _ = cached_solve("interval", 1, 1e-6)
    two = prune_and_merge(res1.design, merge_radius=0.05).design
    ok &= two.size == 2
    for target, atom, w in zip((-1.0, 1.0), two.points[:, 0].real, two.weights):
        ok &= abs(atom - target) <= _local_step(grid_x, target)
        ok &= abs(w - 0.5) <= 1e-3
    notes.append(f"s=1 atoms {np.round(two.points[:, 0].real, 6).tolist()}")

    res2, _ = cached_solve("interval", 2, 1e-6)
    three = prune_and_merge(res2.design, merge_radius=0.05).design
    ok &= three.size == 3
    for target, atom, w in zip((-1.0, 0.0, 1.0), three.points[:, 0].real, three.weights):
        ok &= abs(atom - target) <= _local_step(grid_x, target)
        ok &= abs(w - 1.0 / 3.0) <= 1e-3
    mm = moment_matrix(three, unit_weight(), 2, monomial_basis(1, 2))
    det = math.exp(mm.log_det)
    det_err = abs(det - best_det)
    ok &= det_err <= 1e-6
    notes.append(f"s=2 det {det:.9f} vs oracle {best_det:.9f}")

    detail = "; ".join(notes)
    _report(2, "classical two- and three-point designs", ok, detail)
    assert ok, detail


def test_3_brute_force_equivalence():
    start = time.perf_counter()
    cases = [
        (make_design([-1.0, 0.2, 1.0], [0.5, 0.2, 0.3]), unit_weight(), 1, 0.37),
        (make_design([-1.0, -0.3, 0.4, 1.0], [0.3, 0.2, 0.2, 0.3]), unit_weight(), 2, 0.11),
        (
            make_design([-0.9, -0.2, 0.1, 0.6, 0.95], [0.25, 0.15, 0.2, 0.15, 0.25]),
            gaussian_weight(),
            2,
            -0.42,
        ),
        (
            make_design([0.5 + 0.1j, -0.4 + 0.6j, 0.1 - 0.8j, 0.7 + 0.0j], [0.3, 0.3, 0.2, 0.2]),
            gaussian_weight(),
            1,
            0.3 + 0.2j,
        ),
        (
            make_design(
                [[0.1, 0.2], [0.8, -0.5], [-0.7, 0.4], [0.3, 0.9], [-0.2, -0.6]],
                np.full(5, 0.2),
            ),
            unit_weight(),
            1,
            np.array([0.05, -0.15]),
        ),
        (
            make_design([-0.95, -0.4, 0.05, 0.5, 0.9], [0.22, 0.18, 0.2, 0.18, 0.22]),
            unit_weight(),
            3,
            0.77,
        ),
    ]
    worst = 0.0
    for design, weight, s, probe in cases:
        basis = monomial_basis(design.dimension, s)
        mm = moment_matrix(design, weight, s, basis)
        det_main = math.exp(mm.log_det)
        det_oracle = vdm_integral_det(design, weight, s)
        worst = max(worst, abs(det_main - det_oracle) / det_oracle)
        ev = orthonormal_factor(mm, weight)
        for z in (design.points[0], probe):
            k_main = christoffel(ev, z)
            k_oracle = vdm_integral_christoffel(design, weight, s, z)
            worst = max(worst, abs(k_main - k_oracle) / k_oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    detail = f"{len(cases)} designs, worst relative error {worst:.2e}, {elapsed:.1f}s"
    _report(3, "determinant and Christoffel brute-force equivalence", ok, detail)
    assert ok, detail


def test_4_arcsine_convergence_in_kolmogorov_distance(cached_solve):
    # oracle first: equal masses at the s+1 arcsine quantile midpoints sit
    # exactly 1/(2(s+1)) away, which calibrates the s=16 threshold of 0.1
    start = time.perf_counter()
    target = arcsine()
    for s in (2, 4, 8, 16):
        q = (np.arange(s + 1) + 0.5) / (s + 1)
        d = uniform_design(np.sin(math.pi * (q - 0.5)))
        assert kolmogorov_distance(d, target) == pytest.approx(0.5 / (s + 1), abs=1e-12)
    assert 0.5 / 17 <= 0.1

    # each solve is charged its own (possibly cached) time once, and the
    # rest of the check its wall time
    elapsed = time.perf_counter() - start
    ks = []
    for s in (2, 4, 8, 16):
        res, secs = cached_solve("interval", s, 1e-5)
        tick = time.perf_counter()
        ks.append(kolmogorov_distance(res.design, target))
        elapsed += secs + time.perf_counter() - tick
    decreasing = all(a > b for a, b in zip(ks, ks[1:]))
    ok = decreasing and ks[-1] <= 0.1 and elapsed < 120.0
    detail = (
        "KS " + " > ".join(f"{v:.4f}" for v in ks) + f", {elapsed:.1f}s"
    )
    _report(4, "arcsine convergence in Kolmogorov distance", ok, detail)
    assert ok, detail


def test_5_weighted_disk_moment_convergence(cached_solve, gauss_disk):
    # E|z|^2 cannot show convergence: scaling an interior optimum by z -> cz
    # gives log det M(c) = s(s+1) log c + log det sum mu_k p p* e^{-2s c^2|z_k|^2},
    # and since K = n = s+1 on the support, d/dc at c = 1 vanishes only if
    # s(s+1) = 4 s n E|z|^2, i.e. E|z|^2 = 1/4 at every degree.  Its error
    # (reported, not asserted) only shows where the grid's radii fall, so
    # the check is on the mixed moments up to order 6.
    assert gauss_disk.grid_size <= 2000
    target = weighted_ball_measure()
    elapsed = 0.0
    dists = []
    errs = []
    for s in (2, 4, 8):
        res, secs = cached_solve("disk", s, 1e-5)
        elapsed += secs
        dists.append(moment_distance(res.design, target, t_max=6))
        z = res.design.points[:, 0]
        moment = float(res.design.weights @ np.abs(z) ** 2)
        errs.append(abs(moment - 0.25))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    ok = decreasing and elapsed < 300.0
    detail = (
        "moment distance at s=2,4,8: "
        + ", ".join(f"{d:.3e}" for d in dists)
        + "; |E|z|^2 - 1/4|: "
        + ", ".join(f"{e:.2e}" for e in errs)
        + f"; {elapsed:.1f}s on {gauss_disk.grid_size} grid points"
    )
    _report(5, "weighted disk moment convergence", ok, detail)
    assert ok, detail


def test_6_diameter_sequences_bracket_and_tighten(cached_solve, cheb_interval):
    degrees = (2, 4, 8, 16)
    results = {s: cached_solve("interval", s, 1e-5)[0] for s in degrees}
    rows = tfd_table(cheb_interval, unit_weight(), degrees, optimal_results=results)
    by_s = {r.s: r for r in rows}
    bracketed = all(0.5 < v <= 2.0 for r in rows for v in (r.delta_s, r.gram_root))
    shrink = by_s[16].gap < by_s[2].gap / 3.0
    ok = bracketed and shrink
    detail = (
        f"gap s=2 {by_s[2].gap:.4f} -> s=16 {by_s[16].gap:.4f}; "
        f"delta_s in [{min(r.delta_s for r in rows):.3f}, {max(r.delta_s for r in rows):.3f}], "
        f"gram root in [{min(r.gram_root for r in rows):.3f}, {max(r.gram_root for r in rows):.3f}]"
    )
    _report(6, "diameter sequences bracket the limit and tighten", ok, detail)
    assert ok, detail


def test_7_perturbation_derivative_and_concavity(cached_solve, cheb_interval):
    fields = (
        ("constant", lambda z: 1.0),
        ("odd", lambda z: float(np.real(z))),
        ("quadratic", lambda z: float(np.real(z)) ** 2),
    )
    worst_resid = worst_second = -math.inf
    for s in (1, 2, 3):
        design = cached_solve("interval", s, 1e-6)[0].design
        for _, u in fields:
            resid = first_derivative_residual(cheb_interval, unit_weight(), s, u, design)
            worst_resid = max(worst_resid, resid)
            second = concavity_probe(
                cheb_interval, unit_weight(), s, u, design, np.linspace(-1.0, 1.0, 9)
            )
            worst_second = max(worst_second, second)
    ok = worst_resid <= 1e-5 and worst_second <= 1e-7
    detail = (
        f"max derivative residual {worst_resid:.2e}, "
        f"max second difference {worst_second:.2e}"
    )
    _report(7, "perturbation derivative and concavity identities", ok, detail)
    assert ok, detail


def test_8_regression_statistics():
    design = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))
    exp = RegressionExperiment(
        design=design,
        degree=2,
        theta=np.array([1.0, -2.0, 0.5]),
        sigma=0.1,
        num_obs=99,
        trials=10**4,
        seed=0,
    )
    stats = simulate_regression(exp)
    frob = float(
        np.linalg.norm(stats.empirical_cov - stats.theoretical_cov)
        / np.linalg.norm(stats.theoretical_cov)
    )
    check = variance_identity_check(exp, [-1.0, -0.5, 0.0, 0.5, 1.0])
    ratios = [row.ratio for row in check.rows]
    # the realized design is exactly uniform thirds, so at a support atom
    # the predicted variance is sigma^2 / m times the space dimension
    atom_var = check.rows[0].theoretical_var
    atom_exact = atom_var == pytest.approx(0.1**2 / 99 * 3.0, rel=1e-12)
    ok = (
        frob <= 0.05
        and check.passed
        and all(0.9 <= r <= 1.1 for r in ratios)
        and atom_exact
    )
    detail = (
        f"cov Frobenius error {frob:.3%}, ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )
    _report(8, "regression covariance and variance ratios", ok, detail)
    assert ok, detail


def test_9_cli_runs_are_reproducible(tmp_path):
    jobs = {
        "design": ["design", "--degree", "2", "--epsilon", "1e-3", "--grid", "201"],
        "tfd": ["tfd", "--degrees", "1,2", "--epsilon", "1e-3", "--grid", "201"],
        "equilibrium": ["equilibrium", "--target", "wball", "--tmax", "4"],
    }
    produced = {
        "design": ["design.json", "certificate.json"],
        "tfd": ["tfd.csv", "tfd_gap.dat"],
        "equilibrium": ["moments.csv", "green.dat"],
        "simulate": ["simulate.json", "ratios.csv"],
    }

    def run_all():
        # identical invocations, identical paths: only timestamps may move
        for name, argv in jobs.items():
            assert cli_main([*argv, "--out", str(tmp_path / name)]) == 0
        design_file = tmp_path / "design" / "design.json"
        argv = [
            "simulate", "--design", str(design_file),
            "--trials", "500", "--obs", "60", "--seed", "1",
        ]
        assert cli_main([*argv, "--out", str(tmp_path / "simulate")]) == 0

    def canon(path):
        data = path.read_bytes()
        if not path.name.endswith(".json"):
            return data
        return b"\n".join(l for l in data.splitlines() if b'"timestamp"' not in l)

    run_all()
    first = {
        f"{job}/{fname}": canon(tmp_path / job / fname)
        for job, files in produced.items()
        for fname in files
    }
    run_all()
    mismatched = [key for key, data in first.items() if canon(tmp_path / key) != data]
    ok = not mismatched
    checked = sum(len(v) for v in produced.values())
    detail = (
        f"{checked} artifacts byte-identical apart from timestamps"
        if ok
        else "differences in " + ", ".join(mismatched)
    )
    _report(9, "CLI artifact reproducibility", ok, detail)
    assert ok, detail
