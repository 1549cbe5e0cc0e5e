"""Closed-form equilibrium measures and the weighted disk Green function.

Each supported space carries an explicit limiting density: the arcsine
law on an interval, its product form on the cube, inverse-square-root
boundary laws on the ball and simplex, and, for the Gaussian-weighted
complex ball, the uniform measure on the ball of radius 1/sqrt(2).
Their normalization constants and moments are Beta functions, evaluated
through ``math.gamma`` (the sine substitutions x = a sin(theta) turn every
integral into one), and every measure validates its own total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import as_points

_MAX_MOMENT_DEGREE = 40


def _beta(p: float, q: float) -> float:
    """B(p, q) = Gamma(p) Gamma(q) / Gamma(p + q), the integral of t^(p-1) (1-t)^(q-1) over [0, 1]."""
    # math.gamma, not exp(lgamma): the latter loses several ulp
    return math.gamma(p) * math.gamma(q) / math.gamma(p + q)


def _half_sin_power(k: int) -> float:
    """integral of sin(theta)^k over [0, pi/2]."""
    return 0.5 * _beta(0.5 * (k + 1), 0.5)


def _arcsine_moment(k: int) -> float:
    """E x^k under the arcsine law on [-1, 1]: C(k, k/2) / 2^k for even k."""
    return 0.0 if k % 2 else math.comb(k, k // 2) / 2.0**k


def _trig_moment(p: int, q: int) -> float:
    """integral of cos(theta)^p sin(theta)^q over [0, 2 pi]."""
    return 0.0 if p % 2 or q % 2 else 2.0 * _beta(0.5 * (p + 1), 0.5 * (q + 1))


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class EquilibriumMeasure:
    """A limiting measure with a closed-form density.

    ``kind`` is one of ``interval``, ``cube``, ``ball``, ``simplex``
    (unweighted, on the space of radius/edge ``a``) or ``weighted-ball``
    (Gaussian-weighted complex ball; always the unit radius problem).
    ``norm_const`` is the constant prefactor of the density.
    """

    kind: str
    dimension: int
    a: float
    norm_const: float


def arcsine(a: float = 1.0) -> EquilibriumMeasure:
    """The arcsine law on [-a, a]."""
    if a <= 0:
        raise ValueError("interval radius must be positive")
    m = EquilibriumMeasure("interval", 1, a, 1.0 / math.pi)
    _validate_mass(m)
    return m


def cube_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Product of per-coordinate arcsine laws on [-a, a]^d."""
    if dimension < 1 or a <= 0:
        raise ValueError("cube needs dimension >= 1 and a > 0")
    m = EquilibriumMeasure("cube", dimension, a, math.pi ** (-dimension))
    _validate_mass(m)
    return m


def ball_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Density C_d * a^-(d-1) * (a^2 - |x|^2)^(-1/2) on the ball of radius a."""
    if dimension < 1 or a <= 0:
        raise ValueError("ball needs dimension >= 1 and a > 0")
    if dimension > 3:
        raise ValueError("ball measures are implemented for dimension <= 3")
    if dimension == 1:
        return EquilibriumMeasure("ball", 1, a, arcsine(a).norm_const)
    total = _sphere_area(dimension) * _half_sin_power(dimension - 1)
    m = EquilibriumMeasure("ball", dimension, a, 1.0 / total)
    _validate_mass(m)
    return m


def simplex_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Density C_d * a^-((d-1)/2) * ((a - sum x) * prod x_i)^(-1/2) on the simplex."""
    if dimension < 1 or a <= 0:
        raise ValueError("simplex needs dimension >= 1 and a > 0")
    if dimension > 3:
        raise ValueError("simplex measures are implemented for dimension <= 3")
    total = math.prod(_beta(0.5, 0.5 * (dimension - j + 1)) for j in range(1, dimension + 1))
    m = EquilibriumMeasure("simplex", dimension, a, 1.0 / total)
    _validate_mass(m)
    return m


def weighted_ball_measure(dimension: int = 1) -> EquilibriumMeasure:
    """Uniform measure on the complex ball |z| <= 1/sqrt(2).

    This is the equilibrium measure of the unit complex ball under the
    weight w = exp(-|z|^2); the constant is one over the volume of the
    2d-real-dimensional ball of that radius.  For d = 1, every D-optimal
    design whose support lies inside the disk already has E|z|^2 = 1/4,
    the limit's value, at every degree (log det M is stationary under
    z -> cz), so convergence to this measure shows in the higher radial
    moments.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    vol = _sphere_area(2 * dimension) * 0.5**dimension / (2 * dimension)  # r^(2d) / (2d), r^2 = 1/2
    return EquilibriumMeasure("weighted-ball", dimension, 1.0, 1.0 / vol)


def _validate_mass(m: EquilibriumMeasure) -> None:
    total = eq_moment(m, (0,) * m.dimension)
    if abs(total - 1.0) > 1e-6:
        raise ArithmeticError(f"{m.kind} equilibrium density integrates to {total!r}")


def _one_or_many(values: np.ndarray):
    return float(values[0]) if values.size == 1 else values


def eq_density(m: EquilibriumMeasure, x):
    """Density at each point (w.r.t. Lebesgue measure on the support).

    A float for one point, an array for many.  Boundary singularities
    evaluate to +inf; points outside the support give 0.
    """
    pts = as_points(x, m.dimension)
    a, d = m.a, m.dimension
    tol = 1e-12 * max(1.0, a)
    # coordinates combine one column at a time, so a point's value does not depend on its company
    if m.kind == "weighted-ball":
        r = np.sqrt(reduce(np.add, (pts.real**2 + pts.imag**2).T))
        return _one_or_many(np.where(r <= math.sqrt(0.5) + tol, m.norm_const, 0.0))
    x_re = pts.real
    inside = np.all(np.abs(pts.imag) <= tol, axis=1)
    if m.kind in ("interval", "cube"):
        inside &= np.all(np.abs(x_re) <= a + tol, axis=1)
        g, scale = reduce(np.multiply, np.maximum(a * a - x_re * x_re, 0.0).T), 1.0
    elif m.kind == "ball":
        r2 = reduce(np.add, (x_re**2).T)
        inside &= r2 <= a * a + tol
        g, scale = a * a - r2, a ** (1 - d)
    elif m.kind == "simplex":
        ssum = reduce(np.add, x_re.T)
        inside &= np.all(x_re >= -tol, axis=1) & (ssum <= a + tol)
        g, scale = (a - ssum) * reduce(np.multiply, x_re.T), a ** (-0.5 * (d - 1))
    else:
        raise ValueError(f"unknown equilibrium kind {m.kind!r}")
    val = np.where(g > 0, m.norm_const * scale / np.sqrt(np.where(g > 0, g, 1.0)), math.inf)
    return _one_or_many(np.where(inside, val, 0.0))


def eq_cdf(m: EquilibriumMeasure, x):
    """Cumulative distribution of a one-dimensional equilibrium measure at each point's real part.

    A float for one point, an array for many.
    """
    if m.dimension != 1 or m.kind == "weighted-ball":
        raise ValueError("eq_cdf is defined for real one-dimensional measures only")
    t = as_points(x, 1)[:, 0].real
    u = np.clip((2.0 * t - m.a) / m.a if m.kind == "simplex" else t / m.a, -1.0, 1.0)  # simplex: arcsine law on [0, a]
    # math.asin per element: np.arcsin differs from it by up to 2 ulp
    return _one_or_many(0.5 + np.fromiter(map(math.asin, u), float, u.size) / math.pi)


def _moment(m: EquilibriumMeasure, alpha: tuple[int, ...]) -> float:
    a, d = m.a, m.dimension
    k_tot = sum(alpha)
    if m.kind in ("interval", "cube") or (m.kind == "ball" and d == 1):
        return math.prod(a**k * _arcsine_moment(k) for k in alpha)
    if m.kind == "ball":
        # x = a sin(phi) times a direction on the sphere, in polar or spherical angles
        ang = _trig_moment(alpha[0], alpha[1])
        if d == 3:
            ang *= 0.0 if alpha[2] % 2 else _beta(0.5 * (alpha[0] + alpha[1] + 2), 0.5 * (alpha[2] + 1))
        return m.norm_const * a**k_tot * _half_sin_power(k_tot + d - 1) * ang
    if m.kind == "simplex":
        # Dirichlet(1/2, ..., 1/2) integrals, one coordinate at a time
        num = math.prod(_beta(alpha[j - 1] + 0.5, 0.5 * (d - j + 1) + sum(alpha[j:])) for j in range(1, d + 1))
        return m.norm_const * a**k_tot * num
    if m.kind == "weighted-ball":
        # holomorphic moments vanish by rotational symmetry
        return 1.0 if k_tot == 0 else 0.0
    raise ValueError(f"unknown equilibrium kind {m.kind!r}")


def eq_moment(m: EquilibriumMeasure, alpha) -> float:
    """Moment of the monomial x^alpha, from its closed form in Beta functions.

    Exact up to a few roundings for |alpha| <= 40.
    """
    alpha = tuple(int(k) for k in np.atleast_1d(alpha))
    if len(alpha) != m.dimension:
        raise ValueError(f"alpha has length {len(alpha)}, expected {m.dimension}")
    if any(k < 0 for k in alpha):
        raise ValueError("moment exponents must be nonnegative")
    if sum(alpha) > _MAX_MOMENT_DEGREE:
        raise ValueError(f"moments are supported up to total degree {_MAX_MOMENT_DEGREE}")
    return _moment(m, alpha)


def eq_moment_mixed(m: EquilibriumMeasure, beta: int, gamma_: int) -> float:
    """Mixed moment E[z^beta conj(z)^gamma] of a weighted-ball measure (d = 1).

    Rotational symmetry kills every term except beta == gamma, which
    reduces to the radial moment E[|z|^(2 beta)].
    """
    if m.kind != "weighted-ball" or m.dimension != 1:
        raise ValueError("mixed moments are defined for the weighted complex ball, d = 1")
    if beta < 0 or gamma_ < 0 or beta + gamma_ > _MAX_MOMENT_DEGREE:
        raise ValueError("invalid mixed-moment exponents")
    if beta != gamma_:
        return 0.0
    return 0.5**beta / (beta + 1)  # uniform on |z| <= 1/sqrt(2)


def weighted_ball_green(z, dimension: int = 1):
    """Weighted Green function of the unit complex ball with w = exp(-|z|^2), at each point.

    Equals |z|^2 inside |z| <= 1/sqrt(2) and
    log|z| + 1/2 - log(1/sqrt(2)) outside; continuous across the circle
    and dominated by |z|^2 throughout the unit ball.  A float for one
    point, an array for many.
    """
    pts = as_points(z, dimension)
    r = np.sqrt(reduce(np.add, (pts.real**2 + pts.imag**2).T))  # as in eq_density
    r_star = math.sqrt(0.5)
    # math.log, not np.log: the two differ in the last bit on some inputs
    return _one_or_many(np.array([v * v if v <= r_star else math.log(v) + 0.5 - math.log(r_star) for v in r.tolist()]))
