"""Closed-form equilibrium measures and the weighted disk Green function.

Each supported space carries an explicit limiting density: the arcsine
law on an interval, its product form on the cube, inverse-square-root
boundary laws on the ball and simplex, and, for the Gaussian-weighted
complex ball, the uniform measure on the ball of radius 1/sqrt(2).
Each is the law of a Dirichlet vector u ~ Dirichlet(p) in suitable
coordinates (x_i^2 / a^2 on the interval, cube and ball, x_i / a on the
simplex, 2 |z_i|^2 on the weighted ball), so every moment is
E prod u_i^beta_i = B(p + beta) / B(p) and every density constant is
1 / (J B(p)), with B(p) = prod Gamma(p_i) / Gamma(sum p) and J the
Jacobian factor of the coordinate change, in any dimension.  Densities
are read in unit coordinates x / a on the support that the design
space's own domain rule (``measure._inside``) gives, at any scale a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import as_points
from .measure import _inside

_MAX_MOMENT_DEGREE = 40


def _multi_beta(p) -> float:
    """B(p) = prod Gamma(p_i) / Gamma(sum p), the normalizing constant of Dirichlet(p)."""
    # math.gamma, not exp(lgamma): the latter loses several ulp
    try:
        return math.prod(map(math.gamma, p)) / math.gamma(sum(p))
    except OverflowError:
        raise ValueError(f"dimension {len(p) - 1} is out of range: Gamma({sum(p):g}) overflows a double") from None


def _dirichlet_moment(p: tuple[float, ...], beta: tuple[int, ...]) -> float:
    """E prod u_i^beta_i for u ~ Dirichlet(p): B(p + beta) / B(p)."""
    return _multi_beta([q + b for q, b in zip(p, beta)]) / _multi_beta(p)


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
    """The arcsine law on [-a, a]: u = x^2 / a^2 is Beta(1/2, 1/2)."""
    if a <= 0:
        raise ValueError("interval radius must be positive")
    return EquilibriumMeasure("interval", 1, a, 1.0 / _multi_beta((0.5, 0.5)))


def cube_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Product of per-coordinate arcsine laws on [-a, a]^d."""
    if dimension < 1 or a <= 0:
        raise ValueError("cube needs dimension >= 1 and a > 0")
    return EquilibriumMeasure("cube", dimension, a, _multi_beta((0.5, 0.5)) ** -dimension)


def ball_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Density a^-(d-1) (a^2 - |x|^2)^(-1/2) / B(1/2, ..., 1/2) on the ball of radius a.

    (x_1^2, ..., x_d^2, a^2 - |x|^2) / a^2 is Dirichlet(1/2, ..., 1/2) in d + 1 parts.
    """
    if dimension < 1 or a <= 0:
        raise ValueError("ball needs dimension >= 1 and a > 0")
    return EquilibriumMeasure("ball", dimension, a, 1.0 / _multi_beta((0.5,) * (dimension + 1)))


def simplex_measure(dimension: int, a: float = 1.0) -> EquilibriumMeasure:
    """Density a^-((d-1)/2) ((a - sum x) prod x_i)^(-1/2) / B(1/2, ..., 1/2) on the simplex.

    (x_1, ..., x_d, a - sum x) / a is Dirichlet(1/2, ..., 1/2) in d + 1 parts.
    """
    if dimension < 1 or a <= 0:
        raise ValueError("simplex needs dimension >= 1 and a > 0")
    return EquilibriumMeasure("simplex", dimension, a, 1.0 / _multi_beta((0.5,) * (dimension + 1)))


def weighted_ball_measure(dimension: int = 1) -> EquilibriumMeasure:
    """Uniform measure on the complex ball |z| <= 1/sqrt(2).

    This is the equilibrium measure of the unit complex ball under the
    weight w = exp(-|z|^2).  (2|z_1|^2, ..., 2|z_d|^2, 1 - 2|z|^2) is
    Dirichlet(1, ..., 1) in d + 1 parts, and the map from z carries the
    Jacobian factor (pi/2)^d.  For d = 1, every D-optimal design whose
    support lies inside the disk already has E|z|^2 = 1/4, the limit's
    value, at every degree (log det M is stationary under z -> cz), so
    convergence to this measure shows in the higher radial moments.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return EquilibriumMeasure(
        "weighted-ball", dimension, 1.0, 1.0 / ((0.5 * math.pi) ** dimension * _multi_beta((1.0,) * (dimension + 1)))
    )


def _one_or_many(values: np.ndarray):
    return float(values[0]) if values.size == 1 else values


def eq_density(m: EquilibriumMeasure, x):
    """Density at each point (w.r.t. Lebesgue measure on the support).

    In unit coordinates u = x / a every density is a^-d norm_const / sqrt(g(u)),
    g = prod (1 - u_i^2) on the interval and cube, 1 - |u|^2 on the ball and
    (1 - sum u) prod u_i on the simplex, on the support ``measure._inside``
    gives; the weighted ball is constant on the complex ball of radius 1/sqrt(2).
    A float for one point, an array for many; +inf on a boundary singularity, 0 outside.
    """
    pts = as_points(x, m.dimension)
    if m.kind == "weighted-ball":
        return _one_or_many(np.where(_inside("disk", math.sqrt(0.5), pts), m.norm_const, 0.0))
    inside = _inside(m.kind, m.a, pts)
    u = pts.real / m.a
    # coordinates combine one column at a time, so a point's value does not depend on its company
    with np.errstate(over="ignore"):  # far outside the support, or a density beyond the float range
        if m.kind in ("interval", "cube"):
            g = reduce(np.multiply, np.maximum(1.0 - u * u, 0.0).T)
        elif m.kind == "ball":
            g = 1.0 - reduce(np.add, (u * u).T)
        else:
            g = (1.0 - reduce(np.add, u.T)) * reduce(np.multiply, u.T)
        scale = np.float64(m.a) ** -m.dimension * m.norm_const
        val = np.where(g > 0, scale / np.sqrt(np.where(g > 0, g, 1.0)), math.inf)
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


def _exponents(m: EquilibriumMeasure, *alphas) -> list[tuple[int, ...]]:
    """Each exponent as a tuple of m.dimension nonnegative ints; together of total degree <= 40."""
    out = [tuple(int(k) for k in np.atleast_1d(alpha)) for alpha in alphas]
    for alpha in out:
        if len(alpha) != m.dimension:
            raise ValueError(f"alpha has length {len(alpha)}, expected {m.dimension}")
        if any(k < 0 for k in alpha):
            raise ValueError("moment exponents must be nonnegative")
    if sum(map(sum, out)) > _MAX_MOMENT_DEGREE:
        raise ValueError(f"moments are supported up to total degree {_MAX_MOMENT_DEGREE}")
    return out


def eq_moment(m: EquilibriumMeasure, alpha) -> float:
    """Moment of the monomial x^alpha, a ratio of multivariate Beta functions.

    Exact up to a few roundings for |alpha| <= 40.
    """
    (alpha,) = _exponents(m, alpha)
    d, scale = m.dimension, m.a ** sum(alpha)
    if m.kind == "weighted-ball":  # z^alpha = z^alpha conj(z)^0
        return eq_moment_mixed(m, alpha, (0,) * d)
    if m.kind == "simplex":
        return scale * _dirichlet_moment((0.5,) * (d + 1), alpha + (0,))
    if any(k % 2 for k in alpha):
        return 0.0  # the interval, cube and ball are symmetric under x_i -> -x_i
    half = tuple(k // 2 for k in alpha)
    if m.kind == "ball":
        return scale * _dirichlet_moment((0.5,) * (d + 1), half + (0,))
    if m.kind in ("interval", "cube"):
        return scale * math.prod(_dirichlet_moment((0.5, 0.5), (k, 0)) for k in half)
    raise ValueError(f"unknown equilibrium kind {m.kind!r}")


def eq_moment_mixed(m: EquilibriumMeasure, beta, gamma_) -> float:
    """Mixed moment E[z^beta conj(z)^gamma] of a weighted-ball measure.

    ``beta`` and ``gamma_`` are multi-indices (plain ints when d = 1).
    Rotational symmetry in each coordinate kills every term except
    beta == gamma, which is E prod |z_i|^(2 beta_i) = 2^-|beta| B(p + beta) / B(p)
    with p = (1, ..., 1).
    """
    if m.kind != "weighted-ball":
        raise ValueError("mixed moments are defined for the weighted complex ball")
    beta, gamma_ = _exponents(m, beta, gamma_)
    if beta != gamma_:
        return 0.0
    return 0.5 ** sum(beta) * _dirichlet_moment((1.0,) * (m.dimension + 1), beta + (0,))


def weighted_ball_green(z, dimension: int = 1):
    """Weighted Green function of the unit complex ball with w = exp(-|z|^2), at each point.

    Equals |z|^2 inside |z| <= 1/sqrt(2) and
    log|z| + 1/2 - log(1/sqrt(2)) outside; continuous across the circle
    and dominated by |z|^2 throughout the unit ball.  A float for one
    point, an array for many.
    """
    pts = as_points(z, dimension)
    r = reduce(np.hypot, np.abs(pts).T)  # one column at a time, and no square to overflow
    r_star = math.sqrt(0.5)
    # math.log, not np.log: the two differ in the last bit on some inputs
    return _one_or_many(np.array([v * v if v <= r_star else math.log(v) + 0.5 - math.log(r_star) for v in r.tolist()]))
