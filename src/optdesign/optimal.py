"""D-optimal designs on grids, certified by the Kiefer-Wolfowitz gap.

``d_optimal`` maximizes log det M over the masses of the grid's symmetry
orbits (every point is its own orbit when the grid records none).  The
gradient of log det in the mass of orbit o is its mean Christoffel value
K_o, and the Kiefer-Wolfowitz gap max K - n certifies distance from
optimality.  The solve runs in two phases:

1. Multiplicative steps mass_o <- mass_o * K_o / n, which never lower log
   det.  Each step also applies Harman & Pronzato's (2007) elimination:
   with e = gap / n and h(e) = 1 + e/2 - sqrt(e (4 + e - 4/n)) / 2, an
   orbit whose K is below n h(e) carries no mass in any optimum, so it is
   dropped and its Gram rows leave the assembly.
2. Once at most max(3 n, 40) orbits carry mass (or the orbit with the
   largest K carries none), active-set Newton steps on the masses over
   the simplex, with a backtracking line search on log det itself, so
   every accepted step raises it.  A step that cannot ascend is replaced
   by a multiplicative one.

Steps of both kinds count as iterations against ``max_iter``.  The
certificate is always taken on every orbit of the full grid: if an
eliminated orbit fails it, every orbit comes back and the solve goes on.

Brute-force oracles re-derive the determinant and the Christoffel
function from sums of squared Vandermonde determinants, providing an
independent check of the matrix pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import eval_basis, eval_basis_many, monomial_basis, space_dimension
from .gram import ChristoffelEvaluator, SingularGramError, christoffel_many
from .gram import (
    _assemble,
    _cholesky_log_det,
    _christoffel_rows,
    _inverse_factor,
    _orbit_hessian,
    _orbit_rows,
    _squared_norms,
)
from .measure import (
    DesignSpace,
    DiscreteDesign,
    WeightFunction,
    basis_for_space,
    check_admissible,
    make_design,
)

_ORACLE_LIMIT = 10**7  # cap on the number of index tuples a brute-force sum may touch
_NEWTON_ORBITS = 40  # Newton takes over once at most max(3 n, this) orbits carry mass
_ARMIJO = 1e-4  # share of its first-order gain a Newton step must realize in log det
_BACKTRACKS = 30  # step halvings before a Newton step is given up
_NEGLIGIBLE_MASS = 1e-12  # orbit masses at or below this count as zero in a Newton step


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


def _hp_bound(gap: float, n: int) -> float:
    """Harman-Pronzato (2007): a point with K below this is in no optimal support.

    The bound is n * h(e) with e = gap / n, the relative KW gap of the
    design at which K was evaluated.
    """
    e = max(gap, 0.0) / n
    return n * (1.0 + 0.5 * e - 0.5 * math.sqrt(e * (4.0 + e - 4.0 / n)))


class _Iterate(NamedTuple):
    """A design over the orbits and what the solver needs of it.

    ``mass`` holds the orbit masses (they sum to 1), ``Z = R L^H`` the
    orthonormalized rows of the orbits that were live at evaluation,
    ``row_orbit`` the orbit of each row of Z, and ``K`` the mean
    Christoffel value of each orbit (0 on orbits that were not live): the
    gradient of log det M in the masses.
    """

    mass: np.ndarray
    log_det: float
    L: np.ndarray
    Z: np.ndarray
    row_orbit: np.ndarray
    K: np.ndarray


def _evaluate(R: np.ndarray, row_orbit: np.ndarray, counts: np.ndarray, mass: np.ndarray) -> _Iterate | int:
    """The iterate at these orbit masses from the live rows R, or the failed Cholesky pivot."""
    C, log_det, pivot = _cholesky_log_det(_assemble(R, (mass / counts)[row_orbit]))
    if pivot:
        return pivot
    L = _inverse_factor(C)
    Z = R @ L.conj().T
    K = np.bincount(row_orbit, weights=_squared_norms(Z), minlength=counts.size) / counts
    return _Iterate(mass, log_det, L, Z, row_orbit, K)


def _newton_step(it: _Iterate, evaluate, counts: np.ndarray, n: int) -> _Iterate | None:
    """An active-set Newton step on the orbit masses, or None if it cannot ascend.

    The free orbits are those with mass, plus the massless live ones whose
    K exceeds n; a massless orbit stays fixed at 0 if the step would make
    its mass negative.  The step solves the KKT system of the quadratic
    model of log det on the free face under sum(mass) = 1.  The line
    search accepts the first step length whose log det rises, and by at
    least _ARMIJO of the first-order gain K . (trial - mass).
    """
    K = it.K
    # rounding-level masses that K says to shed are shed outright, so they
    # cannot stall the ratio test at a step of length ~0
    p = np.where((it.mass <= _NEGLIGIBLE_MASS) & (K < n), 0.0, it.mass)
    free = np.flatnonzero((p > 0) | (K > n))
    slot = np.full(K.size, -1)
    slot[free] = np.arange(free.size)
    rows = slot[it.row_orbit] >= 0
    H = _orbit_hessian(it.Z[rows], slot[it.row_orbit[rows]], counts[free])
    f = np.arange(free.size)  # positions in ``free`` still on the face
    while True:
        kkt = np.ones((f.size + 1, f.size + 1))
        kkt[:-1, :-1] = -H[np.ix_(f, f)]
        kkt[-1, -1] = 0.0
        try:
            sol = np.linalg.solve(kkt, np.append(K[free[f]], 0.0))[:-1]
        except np.linalg.LinAlgError:
            return None
        held = (p[free[f]] == 0) & (sol < 0)
        if not held.any():
            break
        f = f[~held]
    d = np.zeros_like(p)
    d[free[f]] = sol
    ascent = float(K @ d)
    if not (math.isfinite(ascent) and ascent > 0):
        return None
    shrink = np.flatnonzero(d < 0)
    ratios = p[shrink] / -d[shrink]
    t_max = min(1.0, float(ratios.min())) if shrink.size else 1.0
    # halve from the full step clipped onto the simplex, which empties every
    # orbit it overshoots at once; past the first face, step to that face
    # exactly (ratio test) and keep halving
    arc = [0.5**k for k in range(2 * _BACKTRACKS) if 0.5**k > t_max]
    for t in arc + [t_max * 0.5**k for k in range(_BACKTRACKS)]:
        trial = np.maximum(p + t * d, 0.0)
        if t == t_max < 1.0:
            trial[shrink[np.argmin(ratios)]] = 0.0  # the blocking orbit leaves the face exactly
        trial /= trial.sum()
        new = evaluate(trial)
        if not isinstance(new, int) and new.log_det > it.log_det + _ARMIJO * max(float(K @ (trial - p)), 0.0):
            return new
    return None


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
        Stop once the Kiefer-Wolfowitz gap max K - n over the whole grid
        falls below epsilon * n; must be positive and finite.
    max_iter
        Step cap, at least 0; multiplicative and Newton steps both count.
        The default scales like 1 / (epsilon * n), the first-order rate of
        the multiplicative update, so tighter tolerances automatically get
        a larger budget.
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
    # one mass per orbit, one Gram row set per orbit; exact under the
    # grid's symmetry, and it stops rounding noise from drifting along
    # det-flat angular modes
    R, row_orbit = _orbit_rows(B, u, orbits, counts)
    live = np.ones(counts.size, dtype=bool)
    live_R, live_row_orbit = R, row_orbit
    newton_at = max(3 * n, _NEWTON_ORBITS)

    def evaluate(mass):
        return _evaluate(live_R, live_row_orbit, counts, mass)

    def evaluate_or_raise(mass, step):
        new = evaluate(mass)
        if isinstance(new, int):
            origin = "a uniform start" if init is None else "the initial design"
            raise SingularGramError(f"moment matrix lost rank at iteration {step} from {origin}", new)
        return new

    def grid_christoffel(L):
        return np.bincount(row_orbit, weights=_christoffel_rows(R, L, 1.0), minlength=counts.size) / counts

    it = evaluate_or_raise(np.bincount(orbits, weights=w, minlength=counts.size), 0)
    mass_resid = 0.0
    mono_viol = 0.0
    converged = False
    steps = 0

    while True:
        mass_resid = max(mass_resid, abs(float(it.mass @ it.K) - n))
        gap = float(it.K.max()) - n
        if gap <= epsilon * n and not live.all() and float(grid_christoffel(it.L).max()) - n > epsilon * n:
            # an eliminated orbit fails the full-grid certificate: revive them all
            live[:] = True
            live_R, live_row_orbit = R, row_orbit
            it = evaluate_or_raise(it.mass, steps)
            gap = float(it.K.max()) - n
        if gap <= epsilon * n:
            converged = True
            break
        if steps == max_iter:
            break
        steps += 1
        out = live & (it.K < _hp_bound(gap, n))
        new = None
        if np.count_nonzero(it.mass) <= newton_at or it.mass[np.argmax(it.K)] == 0:
            new = _newton_step(it, evaluate, counts, n)
            if new is not None:
                out &= new.mass == 0
        if new is None:
            mass = it.mass * it.K / n
            mass[out] = 0.0
            mass /= mass.sum()
        dropped = out.any()
        if dropped:
            live &= ~out
            rows = live[row_orbit]
            live_R, live_row_orbit = R[rows], row_orbit[rows]
        if new is None:
            new = evaluate_or_raise(mass, steps)
        elif dropped:
            new = new._replace(K=np.where(live, new.K, 0.0))  # K describes live orbits only
        mono_viol = max(mono_viol, it.log_det - new.log_det)
        it = new

    K = it.K if live.all() else grid_christoffel(it.L)
    K, w = K[orbits], (it.mass / counts)[orbits]
    log_det = it.log_det
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
        iterations=steps,
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
