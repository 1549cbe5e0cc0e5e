"""Closed-form limiting measures: densities, moments, Green function."""

import math
import os
import subprocess
import sys
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


def _mp_dirichlet_moment(kind, alpha):
    """E x^alpha of the unit ball or simplex measure, from its Dirichlet-type Gamma formula, to 40 digits.

    Ball, density ~ (1 - |x|^2)^(-1/2): prod G((a_i+1)/2) / G(1/2) * G((d+1)/2) / G((|a|+d+1)/2), even a_i.
    Simplex, Dirichlet(1/2, ..., 1/2) in d + 1 parts: prod G(a_i+1/2) / G(1/2) * G((d+1)/2) / G((d+1)/2+|a|).
    """
    d, k = len(alpha), sum(alpha)
    with mpmath.workdps(40):
        g, half = mpmath.gamma, mpmath.mpf(1) / 2
        if kind == "ball":
            if any(j % 2 for j in alpha):
                return mpmath.mpf(0)
            return mpmath.fprod(g(half * (j + 1)) / g(half) for j in alpha) * g(half * (d + 1)) / g(half * (k + d + 1))
        return mpmath.fprod(g(j + half) / g(half) for j in alpha) * g(half * (d + 1)) / g(half * (d + 1) + k)


def test_moments_match_a_forty_digit_mpmath_oracle():
    arc = _mp_arcsine_moments(20)
    worst = 0.0
    for k in range(21):
        worst = max(worst, abs(eq_moment(arcsine(), (k,)) - float(arc[k])))
    cases = [(ball_measure(2), "ball"), (ball_measure(3), "ball"), (simplex_measure(2), "simplex"),
             (simplex_measure(3), "simplex"), (cube_measure(2), "cube")]
    for m, kind in cases:
        top = 20 if m.dimension < 3 else 12
        for alpha in optdesign.multi_indices(m.dimension, top):
            want = arc[alpha[0]] * arc[alpha[1]] if kind == "cube" else _mp_dirichlet_moment(kind, alpha)
            worst = max(worst, abs(eq_moment(m, alpha) - float(want)))
    # the weighted ball is uniform on |z| <= 1/sqrt(2): radial moments E|z|^(2 beta)
    wball = weighted_ball_measure()
    with mpmath.workdps(40):
        r = mpmath.sqrt(mpmath.mpf(1) / 2)
        area = mpmath.quad(lambda t: t, [0, r])
        for beta in range(21):
            want = mpmath.quad(lambda t: t ** (2 * beta + 1), [0, r]) / area
            worst = max(worst, abs(eq_moment_mixed(wball, beta, beta) - float(want)))
    assert worst <= 1e-15


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
