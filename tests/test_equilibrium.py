"""Closed-form limiting measures: densities, moments, Green function."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import nquad, quad

import optdesign
from optdesign import (
    arcsine,
    ball_measure,
    cube_measure,
    eq_cdf,
    eq_density,
    eq_moment,
    eq_moment_mixed,
    simplex_measure,
    weighted_ball_green,
    weighted_ball_measure,
)


def test_arcsine_even_moments_are_central_binomial_ratios():
    m = arcsine()
    for k in range(6):
        expect = math.comb(2 * k, k) / 4.0**k
        assert eq_moment(m, (2 * k,)) == pytest.approx(expect, abs=1e-9)
        if k:
            assert eq_moment(m, (2 * k - 1,)) == pytest.approx(0.0, abs=1e-12)


def test_arcsine_scaling_in_the_radius():
    m = arcsine(a=2.0)
    assert eq_moment(m, (2,)) == pytest.approx(2.0, abs=1e-9)  # a^2 / 2


def test_arcsine_density_and_cdf():
    m = arcsine()
    assert eq_density(m, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert eq_density(m, 1.0) == math.inf
    assert eq_density(m, 1.5) == 0.0
    assert eq_cdf(m, -1.0) == 0.0 and eq_cdf(m, 1.0) == 1.0
    assert eq_cdf(m, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eq_cdf(m, 0.5) == pytest.approx(0.5 + math.asin(0.5) / math.pi, rel=1e-14)
    # density integrates to the cdf increment
    val, _ = quad(lambda x: eq_density(m, x), -0.9, 0.9)
    assert val == pytest.approx(eq_cdf(m, 0.9) - eq_cdf(m, -0.9), abs=1e-9)


def test_cube_moments_factorize():
    m = cube_measure(2)
    assert eq_moment(m, (2, 0)) == pytest.approx(0.5, abs=1e-9)
    assert eq_moment(m, (2, 2)) == pytest.approx(0.25, abs=1e-9)
    assert eq_moment(m, (1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_ball_moments_against_numeric_quadrature():
    # oracle: direct 2-d quadrature of x^2 times the boundary-singular density
    m = ball_measure(2)
    def integrand(r, th):
        x = r * math.cos(th)
        return x * x * m.norm_const / math.sqrt(1.0 - r * r) * r
    ref, _ = nquad(integrand, [(0.0, 1.0), (0.0, 2.0 * math.pi)])
    assert eq_moment(m, (2, 0)) == pytest.approx(ref, rel=1e-7)
    assert eq_moment(m, (0, 0)) == pytest.approx(1.0, abs=1e-9)
    assert eq_moment(m, (1, 1)) == pytest.approx(0.0, abs=1e-10)


def test_ball_dimension_three_mass():
    m = ball_measure(3)
    assert eq_moment(m, (0, 0, 0)) == pytest.approx(1.0, abs=1e-6)
    assert eq_moment(m, (2, 0, 0)) == pytest.approx(eq_moment(m, (0, 0, 2)), abs=1e-8)


def test_simplex_one_dimensional_is_arcsine_on_the_edge():
    m = simplex_measure(1)
    assert eq_moment(m, (1,)) == pytest.approx(0.5, abs=1e-9)
    assert eq_cdf(m, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert eq_cdf(m, 0.0) == 0.0 and eq_cdf(m, 1.0) == 1.0


def test_simplex_two_dimensional_moment_against_quadrature():
    m = simplex_measure(2)
    def integrand(x, y):
        g = (1.0 - x - y) * x * y
        return x * m.norm_const / math.sqrt(g)
    # nquad integrates ranges[0] innermost; its bounds see the outer variable
    ref, _ = nquad(integrand, [lambda y: (0.0, 1.0 - y), (0.0, 1.0)])
    assert eq_moment(m, (1, 0)) == pytest.approx(ref, rel=1e-6)
    assert eq_moment(m, (0, 0)) == pytest.approx(1.0, abs=1e-9)


def test_simplex_density_support():
    m = simplex_measure(2)
    assert eq_density(m, [0.2, 0.3]) > 0
    assert eq_density(m, [0.7, 0.6]) == 0.0
    assert eq_density(m, [0.0, 0.5]) == math.inf


def test_weighted_ball_uniform_radial_moments():
    # uniform on |z| <= 1/sqrt(2): E|z|^(2k) = (1/2)^k / (k+1)
    m = weighted_ball_measure()
    for k in range(1, 5):
        expect = 0.5**k / (k + 1)
        assert eq_moment_mixed(m, k, k) == pytest.approx(expect, rel=1e-10)
    assert eq_moment_mixed(m, 1, 1) == pytest.approx(0.25, rel=1e-10)
    assert eq_moment_mixed(m, 2, 1) == 0.0
    assert eq_moment(m, (3,)) == 0.0  # holomorphic moments vanish
    assert eq_moment(m, (0,)) == 1.0


def test_weighted_ball_density_is_constant_inside():
    m = weighted_ball_measure()
    inside = eq_density(m, 0.3 + 0.4j)  # |z| = 0.5 < 1/sqrt(2)
    assert inside == pytest.approx(m.norm_const)
    assert eq_density(m, 0.9) == 0.0
    area = math.pi * 0.5
    assert m.norm_const == pytest.approx(1.0 / area, rel=1e-10)


def test_green_function_values_and_continuity():
    r_star = math.sqrt(0.5)
    assert weighted_ball_green(0.0) == 0.0
    assert weighted_ball_green(0.5) == pytest.approx(0.25, abs=1e-15)
    inside = weighted_ball_green(r_star - 1e-12)
    outside = weighted_ball_green(r_star + 1e-12)
    assert inside == pytest.approx(outside, abs=1e-10)
    assert weighted_ball_green(1.0) == pytest.approx(0.5 + 0.5 * math.log(2.0), rel=1e-14)
    for r in np.linspace(0.0, 1.0, 21):
        assert weighted_ball_green(complex(r)) <= r * r + 1e-15


def test_moment_argument_validation():
    m = arcsine()
    with pytest.raises(ValueError):
        eq_moment(m, (1, 2))
    with pytest.raises(ValueError):
        eq_moment(m, (-1,))
    with pytest.raises(ValueError):
        eq_moment(m, (41,))
    with pytest.raises(ValueError):
        eq_moment_mixed(m, 1, 1)  # not a weighted-ball measure
    with pytest.raises(ValueError):
        eq_cdf(weighted_ball_measure(), 0.5)
    with pytest.raises(ValueError):
        arcsine(a=-1.0)


@pytest.mark.parametrize(
    "target, dimension, a, message",
    [
        ("cube", "0", "1", "cube needs dimension >= 1 and a > 0"),
        ("cube", "2", "0", "cube needs dimension >= 1 and a > 0"),
        ("ball", "0", "1", "ball needs dimension >= 1 and a > 0"),
        ("ball", "2", "0", "ball needs dimension >= 1 and a > 0"),
        ("simplex", "0", "1", "simplex needs dimension >= 1 and a > 0"),
        ("simplex", "2", "0", "simplex needs dimension >= 1 and a > 0"),
        ("wball", "0", "1", "dimension must be >= 1"),
    ],
)
def test_bad_target_dimension_or_radius_is_refused_by_name(tmp_path, capsys, target, dimension, a, message):
    from optdesign.cli import main

    out = tmp_path / "out"
    argv = ["equilibrium", "--target", target, "--dimension", dimension, "--a", a, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(out.iterdir())


def _gamma_ratio(num, den):
    """prod Gamma(num) / prod Gamma(den), through log-gamma."""
    return math.exp(sum(map(math.lgamma, num)) - sum(map(math.lgamma, den)))


def test_moment_tables_match_their_closed_forms_up_to_degree_forty():
    arc, sim, disk_m, wball = arcsine(), simplex_measure(2), ball_measure(2), weighted_ball_measure()
    worst = 0.0
    for k in range(41):
        want = 0.0 if k % 2 else math.comb(k, k // 2) / 2.0**k
        worst = max(worst, abs(eq_moment(arc, (k,)) - want))
        worst = max(worst, abs(eq_moment_mixed(wball, k // 2, k // 2) - 0.5 ** (k // 2) / (k // 2 + 1)))
        for a in range(k + 1):
            b = k - a
            # Dirichlet(1/2, 1/2, 1/2) on the unit simplex
            want = _gamma_ratio([1.5, a + 0.5, b + 0.5], [1.5 + k, 0.5, 0.5])
            worst = max(worst, abs(eq_moment(sim, (a, b)) - want))
            # density (1 - r^2)^(-1/2) / (2 pi) on the unit disk: radial times angular average
            want = 0.0
            if a % 2 == 0 and b % 2 == 0:
                radial = 0.5 * _gamma_ratio([k / 2 + 1, 0.5], [k / 2 + 1.5])
                want = radial * _gamma_ratio([(a + 1) / 2, (b + 1) / 2], [k / 2 + 1]) / math.pi
            worst = max(worst, abs(eq_moment(disk_m, (a, b)) - want))
    assert worst <= 1e-12


def _mp_arcsine_moments(k_max):
    """E x^k of the arcsine law on [-1, 1], k = 0 .. k_max, by 40-digit quadrature after x = sin(theta)."""
    with mpmath.workdps(40):
        return [mpmath.quad(lambda th: mpmath.sin(th) ** k, [-mpmath.pi / 2, mpmath.pi / 2]) / mpmath.pi
                for k in range(k_max + 1)]


def test_moments_match_a_forty_digit_mpmath_oracle(mp_dirichlet_moment):
    arc = _mp_arcsine_moments(20)
    worst = 0.0
    for k in range(21):
        worst = max(worst, abs(eq_moment(arcsine(), (k,)) - float(arc[k])))
    cases = [(ball_measure(2), "ball"), (ball_measure(3), "ball"), (simplex_measure(2), "simplex"),
             (simplex_measure(3), "simplex"), (cube_measure(2), "cube")]
    cases += [(f(d), kind) for d in (4, 5) for f, kind in ((ball_measure, "ball"), (simplex_measure, "simplex"))]
    for m, kind in cases:
        top = {2: 20, 3: 12}.get(m.dimension, 10)
        for alpha in optdesign.multi_indices(m.dimension, top):
            want = arc[alpha[0]] * arc[alpha[1]] if kind == "cube" else mp_dirichlet_moment(kind, alpha)
            worst = max(worst, abs(eq_moment(m, alpha) - float(want)))
    # the weighted ball is uniform on |z| <= 1/sqrt(2): radial moments E|z|^(2 beta)
    wball = weighted_ball_measure()
    with mpmath.workdps(40):
        r = mpmath.sqrt(mpmath.mpf(1) / 2)
        area = mpmath.quad(lambda t: t, [0, r])
        for beta in range(21):
            want = mpmath.quad(lambda t: t ** (2 * beta + 1), [0, r]) / area
            worst = max(worst, abs(eq_moment_mixed(wball, beta, beta) - float(want)))
    # in C^2 it is uniform on |z| <= 1/sqrt(2) too: E |z_1|^(2 b1) |z_2|^(2 b2), and no other mixed moment
    wball2 = weighted_ball_measure(2)
    for beta in optdesign.multi_indices(2, 6):
        worst = max(worst, abs(eq_moment_mixed(wball2, beta, beta) - float(_mp_c2_ball_moment(*beta))))
        for gamma_ in optdesign.multi_indices(2, 6 - sum(beta)):
            if gamma_ != beta:
                worst = max(worst, abs(eq_moment_mixed(wball2, beta, gamma_)))
    mixed = lambda *beta: eq_moment_mixed(wball2, beta, beta)
    worst = max(worst, abs(mixed(1, 0) + mixed(0, 1) - 1 / 3))  # E |z|^2
    worst = max(worst, abs(mixed(2, 0) + 2 * mixed(1, 1) + mixed(0, 2) - 1 / 8))  # E |z|^4
    assert worst <= 1e-15


def _mp_c2_ball_moment(b1, b2):
    """E |z_1|^(2 b1) |z_2|^(2 b2) under the uniform measure on |z| <= 1/sqrt(2) in C^2, to 40 digits.

    In polar coordinates the density is proportional to rho_1 rho_2 on rho_1^2 + rho_2^2 <= 1/2;
    rho_2 = sqrt(1/2 - rho_1^2) t maps that quarter disk to a rectangle with a polynomial integrand.
    """
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2

        def integral(b1, b2):
            f = lambda rho, t: rho ** (2 * b1 + 1) * (half - rho * rho) ** (b2 + 1) * t ** (2 * b2 + 1)
            return mpmath.quad(f, [0, mpmath.sqrt(half)], [0, 1], method="gauss-legendre")

        return integral(b1, b2) / integral(0, 0)


def _nested_sines(r, theta, power):
    """Points x_j = r_j sin(theta_j)^power, r_1 = r, r_(j+1) = r_j cos(theta_j)^power, and their Jacobian.

    One point per row of theta.  Power 1 maps angles in [-pi/2, pi/2]^d onto the ball of radius r,
    power 2 maps angles in [0, pi/2]^d onto the simplex of edge r; the remainder r_(d+1) carries the
    inverse-square-root boundary singularity of the ball and simplex densities, which the Jacobian cancels.
    """
    x, jac, r = np.empty_like(theta), np.ones(len(theta)), np.full(len(theta), r)
    for j, t in enumerate(theta.T):
        x[:, j] = r * np.sin(t) ** power
        jac *= r * power * np.sin(t) ** (power - 1) * np.cos(t)
        r = r * np.cos(t) ** power
    return x, jac


def _density_mass(m, nodes=24):
    """The integral of eq_density over the support, in angles that make the integrand smooth.

    A product Gauss-Legendre rule, not an adaptive one: a^2 - |x|^2 loses its relative accuracy near the
    boundary, and adaptive refinement chases that rounding noise until the density reads +inf there.
    """
    a, d, h = m.a, m.dimension, math.pi / 2
    lo = 0.0 if m.kind in ("simplex", "weighted-ball") else -h
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = np.array(list(itertools.product(lo + (h - lo) * (t + 1) / 2, repeat=d)))
    weights = np.prod(list(itertools.product(w * (h - lo) / 2, repeat=d)), axis=1)
    if m.kind in ("interval", "cube"):  # x_j = a sin(theta_j)
        x, jac = a * np.sin(theta), np.prod(a * np.cos(theta), axis=1)
    elif m.kind == "simplex":
        x, jac = _nested_sines(a, theta, 2)
    elif m.kind == "ball":
        x, jac = _nested_sines(a, theta, 1)
    else:  # weighted ball: the radii |z_j| fill the positive orthant, times a phase each, over the area element
        rho, jac = _nested_sines(math.sqrt(0.5), theta, 1)
        x = rho * np.exp(1j * (np.arange(d) + 0.5))
        jac *= np.prod(rho, axis=1) * (2.0 * math.pi) ** d
    return float(weights @ (eq_density(m, x) * jac))


@pytest.mark.parametrize(
    "kind, d",
    [("interval", 1)] + [(k, d) for k in ("cube", "ball", "simplex", "weighted-ball") for d in (1, 2, 3)],
)
def test_every_density_integrates_to_one(kind, d):
    # norm_const is read by eq_density alone: the moments are normalized by construction
    m = _MEASURES[kind](d, 1.5)
    assert _density_mass(m) == pytest.approx(1.0, abs=1e-8)


def test_import_loads_no_scipy_quadrature_or_special_functions():
    # nor numpy.polynomial: every constant and moment is a closed form, no quadrature rule is built
    src = str(Path(optdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, optdesign; print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_MEASURES = {
    "interval": lambda d, a: arcsine(a),
    "cube": cube_measure,
    "ball": ball_measure,
    "simplex": simplex_measure,
    "weighted-ball": lambda d, a: weighted_ball_measure(d),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_MEASURES)), d=st.integers(1, 3), a=st.sampled_from([0.5, 1.0, 2.5]))
def test_array_density_and_cdf_match_one_point_at_a_time_bit_for_bit(data, kind, d, a):
    d = 1 if kind == "interval" else d
    m = _MEASURES[kind](d, a)
    a = m.a
    # coordinates at random, on the support's edges and faces, and just off the real line
    coord = st.floats(-1.5 * a, 1.5 * a) | st.sampled_from([-a, 0.0, a, 0.5 * a, math.sqrt(0.5)])
    rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=12))
    imag = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-13, 1e-3, 0.4]), min_size=len(rows), max_size=len(rows)))
    edge, far = np.zeros(d), np.full(d, 2.0 * a)
    edge[0] = math.sqrt(0.5) if kind == "weighted-ball" else a
    pts = np.concatenate([np.array(rows, dtype=float).reshape(-1, d) + 1j * np.array(imag)[:, None], [edge, far]])
    dens = eq_density(m, pts)
    loop = np.array([eq_density(m, p) for p in pts])
    assert dens.shape == (len(pts),)
    assert np.array_equal(dens.view(np.uint64), loop.view(np.uint64))
    assert dens[-1] == 0.0 and dens[-2] == (m.norm_const if kind == "weighted-ball" else math.inf)
    if d == 1 and kind != "weighted-ball":
        cdf = eq_cdf(m, pts)
        assert np.array_equal(cdf.view(np.uint64), np.array([eq_cdf(m, p) for p in pts]).view(np.uint64))
    if kind == "weighted-ball":
        green = weighted_ball_green(pts, d)
        assert green.shape == (len(pts),)
        loop = np.array([weighted_ball_green(p, d) for p in pts])
        assert np.array_equal(green.view(np.uint64), loop.view(np.uint64))


def test_density_and_cdf_read_every_point():
    m = arcsine()
    assert np.array_equal(eq_density(m, [0.1, 0.2]), [eq_density(m, 0.1), eq_density(m, 0.2)])
    assert np.array_equal(eq_cdf(m, [0.1, 0.2]), [eq_cdf(m, 0.1), eq_cdf(m, 0.2)])
    assert isinstance(eq_density(m, [0.1]), float) and isinstance(eq_cdf(m, 0.1), float)


def test_weighted_ball_green_reads_every_point():
    # it used to return the value at the first point alone
    green = weighted_ball_green([0.1, 0.9])
    assert np.array_equal(green, [weighted_ball_green(0.1), weighted_ball_green(0.9)])
    assert green[0] == pytest.approx(0.01, rel=1e-15) and isinstance(weighted_ball_green(0.9), float)


def test_weighted_ball_green_takes_the_radius_without_squaring():
    # 1e200 squared overflows, while log r + 1/2 - log(1/sqrt 2) is finite: the radius must come without squares
    outside = 0.5 - math.log(math.sqrt(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = weighted_ball_green(1e200)
        huge = weighted_ball_green([[3e250 + 4e250j, 1e-300], [0.1, 0.2j]], 2)
    assert far == pytest.approx(math.log(1e200) + outside, rel=1e-15) and far == pytest.approx(461.36, abs=5e-3)
    assert huge[0] == pytest.approx(math.log(5e250) + outside, rel=1e-15)
    assert huge[1] == pytest.approx(0.05, rel=1e-15)


@pytest.mark.parametrize(
    "kind, d", [("interval", 1)] + [(k, d) for k in ("cube", "ball", "simplex") for d in (1, 2, 3)]
)
def test_density_scales_as_a_to_the_minus_d_with_the_support(kind, d):
    # the support was "within 1e-12 max(1, a)": arcsine(1e-150) read inf far outside its support,
    # and arcsine(1e160) read 0.0 at its centre, where the density is 1 / (pi a)
    unit = _MEASURES[kind](d, 1.0)
    rng = np.random.default_rng(d)
    lo = 0.0 if kind == "simplex" else -0.9
    inner = rng.uniform(lo, 0.9, (200, d))
    inner = inner[eq_density(unit, inner) > 0]  # points of the support, away from its edges
    if kind == "simplex":
        inner = inner[inner.sum(axis=1) < 0.9]
    e0 = np.eye(1, d)  # the point (1, 0, ..., 0); the rows below lie off every support, some barely
    outer = np.concatenate([1.5 * e0, -1.5 * e0, (1 + 1e-9) * e0, 1.5 * e0 + 1e-3j, 0.5 * e0 + 1e-9j])
    for a in (1e-100, 3.0, 1e100):
        m = _MEASURES[kind](d, a)
        np.testing.assert_allclose(eq_density(m, a * inner), a**-d * eq_density(unit, inner), rtol=1e-14, atol=0)
        assert np.all(eq_density(m, a * outer) == 0.0), a
    assert eq_density(arcsine(1e160), 0.0) == pytest.approx(1.0 / (math.pi * 1e160), rel=1e-14, abs=0)
    assert eq_density(arcsine(1e-150), 1e-13) == 0.0
