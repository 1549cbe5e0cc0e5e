"""D-optimal designs on grids, certified by the Kiefer-Wolfowitz gap.

``d_optimal`` maximizes log det M over the masses of the grid's symmetry
orbits (every point is its own orbit when the grid records none).  The
gradient of log det in the mass of orbit o is its mean Christoffel value
K_o, and the Kiefer-Wolfowitz gap max K - n certifies distance from
optimality.  Every solve starts at equal mass 1/n on the approximate
Fekete points of the weighted rows (Bos, De Marchi, Sommariva & Vianello
2010), spread evenly over each point's orbit.  D-optimal designs and
Fekete points share their limit, the equilibrium measure, and on the
interval the optimum is equal mass on the Fekete points, so the start is
close and carries at most n masses.

Each step is an active-set Newton step on the masses over the simplex,
with a backtracking line search on log det itself, so every accepted
step raises it.  The search reads each trial in the iterate's
orthonormal frame, one n x n Cholesky per trial, and assembles and
factors only the trial it accepts.  The KKT system adds 1e-12 of the
largest diagonal of -H to -H, which is only semidefinite, so the step
does not depend on rounding.  A Newton step that cannot ascend is
replaced by the Wynn-Fedorov vertex step toward the orbit with the
largest K, which raises log det whenever the gap is positive.  After
either step Harman & Pronzato's (2007) elimination applies: with
e = gap / n and h(e) = 1 + e/2 - sqrt(e (4 + e - 4/n)) / 2, an orbit
whose K is below n h(e) carries no mass in any optimum, so once the step
has left it massless it is dropped and its Gram rows leave the assembly.

The certificate is always taken on every orbit of the full grid: if an
eliminated orbit fails it, every orbit comes back and the solve goes on.
A certified iterate whose mass identity sum(mass K) = n or gap >= 0
fails by more than 1e-8 n is refused with ``SingularGramError``, not
returned.

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
from .gram import _assemble, _cholesky_log_det, _christoffel_rows, _inverse_factor, _orbit_hessian, _orbit_rows
from .measure import (
    _FEKETE_PASSES,
    DesignSpace,
    DiscreteDesign,
    WeightFunction,
    _admissibility,
    _exchange,
    _greedy_rows,
    _matmul,
    _squared_norms,
    basis_for_space,
    make_design,
    weighted_rows,
)

_ORACLE_LIMIT = 10**7  # cap on the number of index tuples a brute-force sum may touch
_ORACLE_BLOCK = 4096  # index subsets per stacked determinant call of a brute-force sum
_ARMIJO = 1e-4  # share of its first-order gain a Newton step must realize in log det
_BACKTRACKS = 30  # step halvings before a Newton step is given up
_NEGLIGIBLE_MASS = 1e-12  # orbit masses at or below this count as zero in a Newton step
_KKT_RIDGE = 1e-12  # share of the largest diagonal of -H added to its diagonal in the KKT solve
_CERTIFIED_TOL = 1e-8  # a certified design's mass identity residual and negative gap stay within this * n


class AdmissibilityError(ValueError):
    """The weight does not admit a nonsingular design on this grid."""


def _symmetry_orbits(space, wvals: np.ndarray):
    """Return (orbit id per point, orbit sizes) for the solver to iterate on.

    A space may record symmetry orbits of its grid (the rings of a disk,
    the signed axis permutations of a cube).  If the weight values are
    constant on every orbit, an orbit-constant iterate stays orbit-constant
    under every step, so the solver keeps one mass per orbit and averages K
    over each orbit.  Otherwise (no recorded orbits, or wvals depend on more
    than the orbit) every point is its own orbit.
    """
    m = wvals.shape[0]
    trivial = np.arange(m), np.ones(m, dtype=np.intp)
    orbits = space.params.get("orbits") if space.params else None
    if orbits is None:
        return trivial
    _, orbits, counts = np.unique(orbits, return_inverse=True, return_counts=True)
    means = np.bincount(orbits, weights=wvals) / counts
    if np.max(np.abs(wvals - means[orbits])) > 1e-9 * max(np.max(np.abs(wvals)), 1e-300):
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
    Z = _matmul(R, L.conj().T)
    K = np.bincount(row_orbit, weights=_squared_norms(Z), minlength=counts.size) / counts
    return _Iterate(mass, log_det, L, Z, row_orbit, K)


def _frame_log_det(it: _Iterate, counts: np.ndarray, moving: np.ndarray):
    """log det M at trial masses q, read in the orthonormal frame of an iterate.

    The iterate's L gives L M L^H = I and its rows Z = R L^H give
    L R_o^H R_o L^H = Z_o^H Z_o, so for masses q that differ from the
    iterate's only on the ``moving`` orbits

        log det M(q / sum q) = log det M + log det(I + E) - n log(sum q),
        E = sum_o (q_o - mass_o) / c_o Z_o^H Z_o,

    one n x n Cholesky per trial instead of a full re-assembly; -inf where
    I + E has no Cholesky factor.
    """
    rows = moving[it.row_orbit]
    Z, row_orbit = it.Z[rows], it.row_orbit[rows]
    n = Z.shape[1]

    def log_det(q: np.ndarray) -> float:
        E = _assemble(Z, ((q - it.mass) / counts)[row_orbit])
        E.flat[:: n + 1] += 1.0
        return it.log_det + _cholesky_log_det(E)[1] - n * math.log(float(q.sum()))

    return log_det


def _newton_step(it: _Iterate, evaluate, counts: np.ndarray, n: int) -> _Iterate | None:
    """An active-set Newton step on the orbit masses, or None if it cannot ascend.

    The free orbits are those with mass, plus the massless live ones whose
    K exceeds n; a massless orbit stays fixed at 0 if the step would make
    its mass negative.  The step solves the KKT system of the quadratic
    model of log det on the free face under sum(mass) = 1.  The line
    search accepts the first step length whose log det rises, and by at
    least _ARMIJO of the first-order gain K . (trial - mass).  It judges
    each trial in the iterate's frame (``_frame_log_det``) and evaluates
    only the trial that passes there, which must pass again.
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
    # -H is only semidefinite (rank n on the disk with up to 25 free orbits):
    # a small ridge picks one well-defined step instead of a rounding-driven one
    ridge = _KKT_RIDGE * float(np.max(-H.diagonal()))
    f = np.arange(free.size)  # positions in ``free`` still on the face
    while True:
        kkt = np.ones((f.size + 1, f.size + 1))
        kkt[:-1, :-1] = -H[np.ix_(f, f)]
        kkt[np.arange(f.size), np.arange(f.size)] += ridge
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
    frame_log_det = _frame_log_det(it, counts, (it.mass > 0) | (K > n))  # the free orbits and the shed ones
    for t in arc + [t_max * 0.5**k for k in range(_BACKTRACKS)]:
        q = np.maximum(p + t * d, 0.0)
        if t == t_max < 1.0:
            q[shrink[np.argmin(ratios)]] = 0.0  # the blocking orbit leaves the face exactly
        trial = q / q.sum()
        floor = it.log_det + _ARMIJO * max(float(K @ (trial - p)), 0.0)
        if frame_log_det(q) > floor:
            new = evaluate(trial)
            if not isinstance(new, int) and new.log_det > floor:
                return new
    return None


def d_optimal(
    space: DesignSpace,
    weight: WeightFunction,
    s: int,
    *,
    epsilon: float = 1e-5,
    max_iter: int | None = None,
) -> OptimalResult:
    """Maximize det M over probability measures on the grid.

    The solve starts at equal mass 1/n on the approximate Fekete points of
    the weighted rows (greedy pick plus exchange passes, as
    ``approx_fekete``), spread evenly over each point's symmetry orbit.

    Parameters
    ----------
    space, weight, s
        Design space (its grid is the optimization domain), weight
        function, and polynomial degree.
    epsilon
        Stop once the Kiefer-Wolfowitz gap max K - n over the whole grid
        falls below epsilon * n; must be positive and finite.
    max_iter
        Step cap, at least 0; Newton and vertex steps both count.  The
        default scales like 1 / (epsilon * n), the first-order rate of the
        vertex step that stands in when Newton cannot ascend, so tighter
        tolerances automatically get a larger budget.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    basis = basis_for_space(space, s)
    n = basis.n
    grid = space.grid
    m = grid.shape[0]
    wvals = weight.values(grid)
    A = weighted_rows(basis, grid, wvals)
    picks = _greedy_rows(A)
    report = _admissibility(A, picks)
    if not report.passed:
        raise AdmissibilityError(f"degree-{s} design infeasible: {report.reason}")
    if max_iter is None:
        max_iter = min(1_000_000, 50 * m + math.ceil(4.0 / (epsilon * n)))

    orbits, counts = _symmetry_orbits(space, wvals)
    picks = _exchange(A, picks, _FEKETE_PASSES)
    # one mass per orbit, one Gram row set per orbit; exact under the
    # grid's symmetry, and it stops rounding noise from drifting along
    # det-flat angular modes
    R, row_orbit = _orbit_rows(A, orbits, counts)
    live = np.ones(counts.size, dtype=bool)
    live_R, live_row_orbit = R, row_orbit

    def evaluate(mass):
        return _evaluate(live_R, live_row_orbit, counts, mass)

    def evaluate_or_raise(mass, step):
        new = evaluate(mass)
        if isinstance(new, int):
            raise SingularGramError(f"moment matrix lost rank at iteration {step} from the Fekete start", new)
        return new

    def grid_christoffel(L):
        return np.bincount(row_orbit, weights=_christoffel_rows(R, L), minlength=counts.size) / counts

    it = evaluate_or_raise(np.bincount(orbits[picks], minlength=counts.size) / n, 0)
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
        new = _newton_step(it, evaluate, counts, n)
        if new is None:  # Wynn-Fedorov vertex step toward the orbit with the largest K
            j = int(np.argmax(it.K))
            a = (it.K[j] - n) / (n * (it.K[j] - 1.0))
            mass = (1.0 - a) * it.mass
            mass[j] += a
            new = evaluate_or_raise(mass, steps)
        out = live & (it.K < _hp_bound(gap, n)) & (new.mass == 0)
        if out.any():
            live &= ~out
            rows = live[row_orbit]
            live_R, live_row_orbit = R[rows], row_orbit[rows]
            new = new._replace(K=np.where(live, new.K, 0.0))  # K describes live orbits only
        mono_viol = max(mono_viol, it.log_det - new.log_det)
        it = new

    K = it.K if live.all() else grid_christoffel(it.L)
    resid, gap = abs(float(it.mass @ K) - n), float(K.max()) - n
    if converged and (resid > _CERTIFIED_TOL * n or gap < -_CERTIFIED_TOL * n):
        # a certificate that only looks valid: rounding broke sum(mass K) = n
        weakest = 1 + int(np.argmax(np.abs(it.L.diagonal())))
        raise SingularGramError(
            f"certificate does not hold at iteration {steps}: mass identity residual {resid:.3e} "
            f"and KW gap {gap:.3e}, limits {_CERTIFIED_TOL * n:.1e} and {-_CERTIFIED_TOL * n:.1e} (n = {n})",
            weakest,
        )
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


def _subset_sum(B: np.ndarray, wf: np.ndarray, mu: np.ndarray, k: int, head: np.ndarray | None = None) -> float:
    """Sum over k-subsets S of rows of |det [head; B[S]]|^2 prod wf[S] prod mu[S], one det call per block of S."""
    combos = itertools.combinations(range(B.shape[0]), k)
    total = 0.0
    while len(idx := np.array(list(itertools.islice(combos, _ORACLE_BLOCK)), dtype=np.intp)):
        sub = B[idx]
        if head is not None:
            sub = np.concatenate([np.broadcast_to(head, (len(idx), 1, B.shape[1])), sub], axis=1)
        total += float(np.sum(np.abs(np.linalg.det(sub)) ** 2 * np.prod(wf[idx], axis=1) * np.prod(mu[idx], axis=1)))
    return total


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
    B = eval_basis_many(monomial_basis(d, s), design.points)
    return _subset_sum(B, weight.values(design.points) ** (2 * s), design.weights, n)


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
    total = _subset_sum(B, weight.values(design.points) ** (2 * s), design.weights, n - 1, eval_basis(basis, z))
    # ordered (n-1)-tuples of distinct atoms contribute (n-1)! times each subset
    total *= math.factorial(n - 1) * float(weight(z)) ** (2 * s)
    z_n = math.factorial(n) * det
    return n / z_n * total
