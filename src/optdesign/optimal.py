"""D-optimal designs on grids via the multiplicative fixed-point iteration.

The update weight_i <- weight_i * K(x_i) / n is a fixed-point map whose
stationary points are exactly the D-optimal designs; it increases the
log-determinant monotonically, and the Kiefer-Wolfowitz gap
max_z K(z) - n certifies distance from optimality.  Brute-force oracles
re-derive the determinant and the Christoffel function from sums of
squared Vandermonde determinants, providing an independent check of the
matrix pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import eval_basis, eval_basis_many, monomial_basis, space_dimension
from .gram import ChristoffelEvaluator, SingularGramError, christoffel_many
from .gram import _assemble, _cholesky_log_det, _christoffel_rows, _inverse_factor, _orbit_rows
from .measure import (
    DesignSpace,
    DiscreteDesign,
    WeightFunction,
    basis_for_space,
    check_admissible,
    make_design,
)

_ORACLE_LIMIT = 10**7  # cap on the number of index tuples a brute-force sum may touch


class AdmissibilityError(ValueError):
    """The weight does not admit a nonsingular design on this grid."""


def _symmetry_orbits(space, u: np.ndarray, w0: np.ndarray):
    """Return (orbit id per point, orbit sizes) for the solver to iterate on.

    A space may record symmetry orbits of its grid (e.g. the rings of a
    disk).  If the weight values and the starting measure are constant on
    every orbit, the exact iteration stays orbit-constant forever, so the
    solver keeps one weight per orbit and averages K over each orbit.
    Otherwise (no recorded orbits, or u or w0 depend on more than the
    orbit) every point is its own orbit.
    """
    m = u.shape[0]
    trivial = np.arange(m), np.ones(m, dtype=np.intp)
    orbits = space.params.get("orbits") if space.params else None
    if orbits is None:
        return trivial
    _, orbits, counts = np.unique(orbits, return_inverse=True, return_counts=True)
    for vals in (u, w0):
        means = np.bincount(orbits, weights=vals) / counts
        if np.max(np.abs(vals - means[orbits])) > 1e-9 * max(np.max(np.abs(vals)), 1e-300):
            return trivial
    return orbits, counts


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of a D-optimal solve.

    ``log_det`` uses the monomial-basis normalization regardless of the
    internal evaluation basis.  ``mass_identity_residual`` and
    ``monotonicity_violation`` are the worst values of
    |sum_k w_k K(x_k) - n| and of any log-det decrease seen across all
    iterates; both should sit at rounding level.
    """

    design: DiscreteDesign
    log_det: float
    g_value: float
    g_argmax: np.ndarray
    kw_gap: float
    iterations: int
    converged: bool
    support_K_values: np.ndarray
    mass_identity_residual: float
    monotonicity_violation: float
    epsilon: float
    n: int


def d_optimal(
    space: DesignSpace,
    weight: WeightFunction,
    s: int,
    *,
    epsilon: float = 1e-5,
    max_iter: int | None = None,
    init: np.ndarray | None = None,
) -> OptimalResult:
    """Maximize det M over probability measures on the grid.

    Parameters
    ----------
    space, weight, s
        Design space (its grid is the optimization domain), weight
        function, and polynomial degree.
    epsilon
        Stop once the Kiefer-Wolfowitz gap max K - n falls below
        epsilon * n; must be positive and finite.
    max_iter
        Iteration cap, at least 0.  The default scales like
        1 / (epsilon * n), the first-order rate of the multiplicative
        update, so tighter tolerances automatically get a larger budget.
    init
        Optional starting weights over the grid (default uniform).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    report = check_admissible(weight, space, s)
    if not report.passed:
        raise AdmissibilityError(f"degree-{s} design infeasible: {report.reason}")
    basis = basis_for_space(space, s)
    n = basis.n
    grid = space.grid
    m = grid.shape[0]
    if max_iter is None:
        max_iter = min(1_000_000, 50 * m + math.ceil(4.0 / (epsilon * n)))
    B = eval_basis_many(basis, grid)
    u = weight.values(grid) ** (2 * s)

    if init is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(init, dtype=float).copy()
        if w.shape != (m,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("init must be a nonnegative weight vector over the grid")
        w /= w.sum()

    orbits, counts = _symmetry_orbits(space, u, w)
    # one weight per orbit, one Gram row set per orbit; exact under the
    # grid's symmetry, and it stops rounding noise from drifting along
    # det-flat angular modes
    R, row_orbit = _orbit_rows(B, u, orbits, counts)
    v = np.bincount(orbits, weights=w) / counts

    mass_resid = 0.0
    mono_viol = 0.0
    prev_log_det = -math.inf
    converged = False
    iterations = 0

    for it in range(max_iter + 1):
        C, log_det, pivot = _cholesky_log_det(_assemble(R, v[row_orbit]))
        if pivot:
            origin = "a uniform start" if init is None else "the initial design"
            raise SingularGramError(f"moment matrix lost rank at iteration {it} from {origin}", pivot)
        K = np.bincount(row_orbit, weights=_christoffel_rows(R, _inverse_factor(C), 1.0)) / counts
        mass_resid = max(mass_resid, abs(float((v * counts) @ K) - n))
        if prev_log_det > -math.inf:
            mono_viol = max(mono_viol, prev_log_det - log_det)
        prev_log_det = log_det
        gap = float(K.max()) - n
        if gap <= epsilon * n:
            converged = True
            break
        if it == max_iter:
            break
        v = v * K / n
        v /= v @ counts
        iterations = it + 1

    K, w = K[orbits], v[orbits]
    g_idx = int(np.argmax(K))
    g_val = float(K[g_idx])
    weight_tol = epsilon / (10.0 * m)
    keep = w >= weight_tol
    if not np.any(keep):
        raise FloatingPointError(f"every grid weight fell below the pruning threshold {weight_tol:.3e}")
    design = make_design(grid[keep], w[keep] / w[keep].sum())
    return OptimalResult(
        design=design,
        log_det=log_det - 2.0 * basis.log_lead,
        g_value=g_val,
        g_argmax=grid[g_idx].copy(),
        kw_gap=g_val - n,
        iterations=iterations,
        converged=converged,
        support_K_values=K[keep].copy(),
        mass_identity_residual=mass_resid,
        monotonicity_violation=max(0.0, mono_viol),
        epsilon=epsilon,
        n=n,
    )


class GValue(NamedTuple):
    value: float
    argmax: np.ndarray
    index: int


def g_value(ev: ChristoffelEvaluator, space: DesignSpace) -> GValue:
    """Maximum of the Christoffel function over the grid (ties: lowest index)."""
    K = christoffel_many(ev, space.grid)
    idx = int(np.argmax(K))
    return GValue(float(K[idx]), space.grid[idx].copy(), idx)


def _oracle_guard(count: float) -> None:
    if count > _ORACLE_LIMIT:
        raise ValueError(
            f"brute-force oracle would touch ~{count:.2e} index tuples "
            f"(limit {_ORACLE_LIMIT:.0e}); use fewer atoms or a lower degree"
        )


def vdm_integral_det(design: DiscreteDesign, weight: WeightFunction, s: int) -> float:
    """det M recomputed as a sum of squared Vandermonde determinants.

    Expands (1/n!) * sum over n-tuples of atoms of
    |VDM(z_1..z_n)|^2 * prod w(z_k)^(2s) * prod mu(z_k).  Tuples with a
    repeated atom vanish, and the surviving terms are symmetric, so the
    sum collapses to one term per n-subset; the arithmetic is exactly the
    textbook formula.  Everything runs in the monomial basis, independent
    of the Gram/Cholesky pipeline.
    """
    d = design.dimension
    n = space_dimension(d, s)
    m = design.size
    _oracle_guard(float(m) ** n)
    if m < n:
        return 0.0
    basis = monomial_basis(d, s)
    B = eval_basis_many(basis, design.points)
    wf = weight.values(design.points) ** (2 * s)
    mu = design.weights
    total = 0.0
    for combo in itertools.combinations(range(m), n):
        sub = B[list(combo), :]
        det = np.linalg.det(sub)
        total += float(abs(det) ** 2 * np.prod(wf[list(combo)]) * np.prod(mu[list(combo)]))
    return total


def vdm_integral_christoffel(design: DiscreteDesign, weight: WeightFunction, s: int, z) -> float:
    """K(z) recomputed from Vandermonde sums, bypassing the matrix inverse.

    Uses K(z) = n / Z_n * sum over (n-1)-tuples of atoms of
    |VDM(z, z_2..z_n)|^2 * w(z)^(2s) * prod w(z_k)^(2s) * prod mu(z_k)
    with Z_n = n! * det M, the determinant itself taken from
    :func:`vdm_integral_det`.
    """
    d = design.dimension
    n = space_dimension(d, s)
    m = design.size
    _oracle_guard(float(m) ** (n - 1))
    det = vdm_integral_det(design, weight, s)
    if det <= 0.0:
        raise SingularGramError("oracle Christoffel needs a nonsingular design", n)
    basis = monomial_basis(d, s)
    B = eval_basis_many(basis, design.points)
    wf = weight.values(design.points) ** (2 * s)
    mu = design.weights
    row_z = eval_basis(basis, z).reshape(1, -1)
    wz = float(weight(z)) ** (2 * s)
    total = 0.0
    for combo in itertools.combinations(range(m), n - 1):
        sub = np.vstack([row_z, B[list(combo), :]])
        det_v = np.linalg.det(sub)
        total += float(abs(det_v) ** 2 * np.prod(wf[list(combo)]) * np.prod(mu[list(combo)]))
    # ordered (n-1)-tuples of distinct atoms contribute (n-1)! times each subset
    total *= math.factorial(n - 1) * wz
    z_n = math.factorial(n) * det
    return n / z_n * total
