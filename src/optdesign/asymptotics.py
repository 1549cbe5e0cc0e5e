"""Asymptotic identities and convergence diagnostics.

``f_of_t`` freezes an optimal design mu_s and perturbs the weight along
an external field u, w_t = w * exp(-t * u); the map
t -> -log det M(mu_s, w_t) / (2 m_s) is concave with derivative
(d+1)/d * integral of u against mu_s at t = 0; its probes evaluate the
atoms once and factor once per t.  ``convergence_sweep``
quantifies weak-* convergence of optimal designs toward the equilibrium
measure through moment and Kolmogorov distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import arnoldi_basis, degree_sum, multi_indices, space_dimension
from .equilibrium import EquilibriumMeasure, eq_cdf, eq_moment, eq_moment_mixed
from .gram import _moment_rows
from .measure import DesignSpace, DiscreteDesign, WeightFunction, weighted_rows
from .optimal import d_optimal

_FD_STEP = 1e-4  # step of first_derivative_residual's centered difference


def _field_values(u: Callable, mu_s: DiscreteDesign) -> np.ndarray:
    """Real parts of u at the atoms of mu_s; a scalar argument for one-dimensional designs."""
    d = mu_s.dimension
    vals = np.array([float(np.real(u(p[0] if d == 1 else p))) for p in mu_s.points])
    if not np.all(np.isfinite(vals)):
        raise ValueError("the field u returned a non-finite value")
    return vals


def _f_map(space: DesignSpace, weight: WeightFunction, s: int, u: Callable, mu_s: DiscreteDesign):
    """(t -> f_of_t, the field's values at the atoms), the grid basis and the atoms' rows evaluated once.

    w_t^(2s) = w^(2s) exp(-2 s t u), so M(mu, w_t) = Z M(nu, w) with the
    design nu = mu exp(-2 s t u) / Z: log det M(mu, w_t) is the unperturbed
    log det at the masses nu plus n log Z.  The masses are scaled from the
    largest log-mass down, so no exponential overflows.
    """
    u_vals = _field_values(u, mu_s)
    basis = arnoldi_basis(space.grid, weight.values(space.grid), s)[0]
    A = weighted_rows(basis, mu_s.points, weight.values(mu_s.points))
    with np.errstate(divide="ignore"):  # a massless atom has log-mass -inf
        log_mu = np.log(mu_s.weights)

    def f(t: float) -> float:
        log_mass = log_mu - 2.0 * s * t * u_vals
        top = float(log_mass.max())
        mass = np.exp(log_mass - top)
        total = float(mass.sum())
        mm = _moment_rows(A, mass / total, basis)
        if not math.isfinite(mm.log_det):
            raise ArithmeticError(f"perturbed moment matrix is singular at t={t}")
        log_det = mm.log_det_monomial + basis.n * (top + math.log(total))
        return -log_det / (2.0 * degree_sum(mu_s.dimension, s))

    return f, u_vals


def f_of_t(space: DesignSpace, weight: WeightFunction, s: int, u: Callable, t: float, mu_s: DiscreteDesign) -> float:
    """-log det M(mu_s, w * exp(-t u)) / (2 m_s), monomial normalization.

    ``u`` receives a scalar for one-dimensional spaces and a coordinate
    vector otherwise, and must return a finite real value.
    """
    return _f_map(space, weight, s, u, mu_s)[0](t)


def first_derivative_residual(
    space: DesignSpace, weight: WeightFunction, s: int, u: Callable, mu_s: DiscreteDesign
) -> float:
    """|centered difference of f_of_t at 0 - (d+1)/d * integral u d mu_s|."""
    f, u_vals = _f_map(space, weight, s, u, mu_s)
    fd = (f(_FD_STEP) - f(-_FD_STEP)) / (2.0 * _FD_STEP)
    d = space.dimension
    exact = (d + 1) / d * float(mu_s.weights @ u_vals)
    return abs(fd - exact)


def concavity_probe(
    space: DesignSpace, weight: WeightFunction, s: int, u: Callable, mu_s: DiscreteDesign, t_grid
) -> float:
    """Largest centered second difference of f_of_t over the grid interior.

    Concavity makes every second difference nonpositive, so the returned
    value should not exceed rounding error.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 3:
        raise ValueError("concavity probe needs at least three t values")
    f = _f_map(space, weight, s, u, mu_s)[0]
    fs = np.array([f(t) for t in t_grid])
    second = fs[:-2] - 2.0 * fs[1:-1] + fs[2:]
    return float(second.max())


def kolmogorov_distance(design: DiscreteDesign, target: EquilibriumMeasure) -> float:
    """sup_x |F_design(x) - F_target(x)| for one-dimensional real designs."""
    if design.dimension != 1:
        raise ValueError("Kolmogorov distance needs a one-dimensional design")
    x = design.points[:, 0]
    if np.any(np.abs(x.imag) > 1e-12):
        raise ValueError("Kolmogorov distance needs real atoms")
    order = np.argsort(x.real)
    xs = x.real[order]
    cum = np.cumsum(design.weights[order])
    F = eq_cdf(target, xs)
    below = np.abs(F - np.concatenate([[0.0], cum[:-1]]))
    above = np.abs(F - cum)
    return float(max(below.max(), above.max()))


def _check_t_max(t_max: int) -> None:
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")


def moment_distance(design: DiscreteDesign, target: EquilibriumMeasure, t_max: int = 6) -> float:
    """max over monomials of degree <= t_max of |design moment - target moment|.

    Real spaces range over monomials x^alpha; the weighted complex ball
    ranges over mixed monomials z^beta conj(z)^gamma, which see the
    angular structure that holomorphic moments miss.
    """
    _check_t_max(t_max)
    d = design.dimension
    if target.kind == "weighted-ball":
        pairs = [(b, g) for b in multi_indices(d, t_max) for g in multi_indices(d, t_max - sum(b))]
    else:
        pairs = [(alpha, (0,) * d) for alpha in multi_indices(d, t_max)]
    pts = design.points
    worst = 0.0
    for beta, gamma_ in pairs[1:]:  # the first pair is degree 0: both measures have mass 1
        vals = np.ones(design.size, dtype=complex)
        for i, (b, g) in enumerate(zip(beta, gamma_)):
            if b:
                vals *= pts[:, i] ** b
            if g:
                vals *= np.conj(pts[:, i]) ** g
        dm = complex(np.sum(design.weights * vals))
        tm = eq_moment_mixed(target, beta, gamma_) if target.kind == "weighted-ball" else eq_moment(target, beta)
        worst = max(worst, abs(dm - tm))
    return worst


@dataclass(frozen=True)
class SweepRow:
    s: int
    n: int
    m_s: int
    kw_gap: float
    moment_distance: float
    ks_distance: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-degree distances between optimal designs and the target measure."""

    rows: tuple[SweepRow, ...]
    space_kind: str
    weight_kind: str
    target_kind: str


def convergence_sweep(
    space: DesignSpace,
    weight: WeightFunction,
    s_values,
    target: EquilibriumMeasure,
    *,
    t_max: int = 6,
    epsilon: float = 1e-5,
    max_iter: int | None = None,
) -> ConvergenceReport:
    """Solve the optimal design per degree and measure its distances to the target."""
    _check_t_max(t_max)  # these before any solve
    if target.dimension != space.dimension:
        raise ValueError(
            f"the {target.kind} target has dimension {target.dimension} but the {space.kind} grid has {space.dimension}"
        )
    if (target.kind == "weighted-ball") != space.is_complex:
        fields = ("real", "complex")
        raise ValueError(
            f"the {target.kind} target is {fields[target.kind == 'weighted-ball']} "
            f"but the {space.kind} grid is {fields[space.is_complex]}"
        )
    need = "gaussian" if target.kind == "weighted-ball" else "unit"  # a table weight has no closed-form limit
    if weight.kind != need:
        raise ValueError(f"the {target.kind} target needs the {need} weight, not the {weight.kind} weight")
    rows = []
    one_dim_real = space.dimension == 1 and not space.is_complex
    for s in sorted(int(v) for v in s_values):
        opt = d_optimal(space, weight, s, epsilon=epsilon, max_iter=max_iter)
        md = moment_distance(opt.design, target, t_max=t_max)
        ks = kolmogorov_distance(opt.design, target) if one_dim_real else None
        rows.append(
            SweepRow(
                s=s,
                n=space_dimension(space.dimension, s),
                m_s=degree_sum(space.dimension, s),
                kw_gap=opt.kw_gap,
                moment_distance=md,
                ks_distance=ks,
            )
        )
    return ConvergenceReport(
        rows=tuple(rows),
        space_kind=space.kind,
        weight_kind=weight.kind,
        target_kind=target.kind,
    )
