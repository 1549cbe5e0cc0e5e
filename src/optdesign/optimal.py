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
close and carries at most n masses.  The rows then move to the
Lagrange basis of those points, A <- A inv(A[picks]), where M starts
near I / n and stays well conditioned; they are assembled and factored
once per solve, and log det M gets 2 log |det A[picks]| back.

Each step is an active-set Newton step on the masses over the simplex,
with a backtracking line search on log det itself.  The search reads
each trial in the iterate's orthonormal frame, one n x n Cholesky
C C^H = I + E per trial, and the trial it accepts advances that frame
by C.  The KKT system adds rho = max(1e-12, 0.1 gap / n) times the
largest diagonal of -H to -H, which is only semidefinite, so the
bordered system [[-H + rho I, 1], [1^T, 0]] is nonsingular and its
direction d (sum d = 0) ascends: (K - n) . d = d^T (-H + rho I) d > 0
for d != 0.  Away from the optimum the ridge damps the step along the
det-flat directions of nearly collinear grid rows; it fades as the gap
closes (Li, Fukushima, Qi & Yamashita 2004).  A trial must raise log
det, unless the change is below what log det resolves (from gap / n of
about 1e-9): then it is kept if K still ascends along it or max K fell.
Only rounding can leave no step to take; the solve then ends
uncertified, as an exhausted step budget does.

The certificate is the iterate's K over every orbit, none of which ever
leaves the frame.  A certified iterate whose mass identity
sum(mass K) = n or gap >= 0 fails by more than 1e-8 n is refused with
``SingularGramError``, not returned; one where K at a grid point exceeds
its orbit's mean by more than 1e-8 n, with ``ValueError``: its recorded
orbits are not symmetries of the problem.

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

from .basis import _matmul, eval_basis, eval_basis_many, monomial_basis, space_dimension
from .gram import ChristoffelEvaluator, SingularGramError, _christoffel_rows, christoffel_many
from .gram import _assemble, _cholesky_log_det, _factor, _inverse_factor, _orbit_hessian, _orbit_rows
from .measure import (
    DesignSpace,
    DiscreteDesign,
    WeightFunction,
    _fekete_rows,
    _squared_norms,
    make_design,
)

_ORACLE_LIMIT = 10**7  # cap on the number of index tuples a brute-force sum may touch
_ORACLE_BLOCK = 4096  # index subsets per stacked determinant call of a brute-force sum
_ARMIJO = 1e-4  # share of its first-order gain a Newton step must realize in log det
_BACKTRACKS = 60  # rungs t = 1, 1/2, ... of the clipped-arc ladder; below the face no step is halved
_NEGLIGIBLE_MASS = 1e-12  # orbit masses at or below this count as zero in a Newton step
_KKT_RIDGE = 1e-12  # least share of the largest diagonal of -H added to its diagonal in the KKT solve
_GAP_RIDGE = 0.1  # the share grows to this times the relative KW gap gap / n away from the optimum
_RESOLUTION = 64 * np.finfo(float).eps  # log det changes within this * max(|log det|, 1) are rounding
_MAX_STEPS = 200  # default step cap; every measured solve certifies within 40 steps, at any epsilon
_CERTIFIED_TOL = 1e-8  # a certified design's mass identity residual and negative gap stay within this * n


def _symmetry_orbits(space, wvals: np.ndarray):
    """Return (orbit id per point, orbit sizes) for the solver to iterate on.

    A space may record symmetry orbits of its grid (the mirror pairs of an
    interval, the signed axis permutations of a cube, the rings of a disk,
    the vertex permutations of a simplex).  If the weight values are
    constant on every orbit, an orbit-constant iterate stays orbit-constant
    under every step, so the solver keeps one mass per orbit and averages K
    over each orbit.  Otherwise (no recorded orbits, or wvals depend on more
    than the orbit) every point is its own orbit.
    """
    m = wvals.shape[0]
    trivial = np.arange(m), np.ones(m, dtype=np.intp)
    if space.orbits is None:
        return trivial
    _, orbits, counts = np.unique(space.orbits, return_inverse=True, return_counts=True)
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
    iterates; both should sit at rounding level.  ``fekete_log_vdm`` is
    the start's log |det A[picks]| in the same normalization: the
    ``weighted_vdm_log`` of ``approx_fekete``.
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
    fekete_log_vdm: float


class _Iterate(NamedTuple):
    """A design over the orbits and what the solver needs of it.

    ``mass`` holds the orbit masses (they sum to 1), ``Z = R L^H`` the rows
    of every orbit orthonormalized by an inverse factor L with
    L M L^H = I, ``row_orbit`` the orbit of each row of Z (the same for the
    whole solve), and ``K`` the mean Christoffel value of each orbit: the
    gradient of log det M in the masses.
    """

    mass: np.ndarray
    log_det: float
    Z: np.ndarray
    row_orbit: np.ndarray
    K: np.ndarray


def _orbit_means(Z: np.ndarray, row_orbit: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean K of each orbit from its orthonormalized rows."""
    return np.bincount(row_orbit, weights=_squared_norms(Z), minlength=counts.size) / counts


def _evaluate(R: np.ndarray, row_orbit: np.ndarray, counts: np.ndarray, mass: np.ndarray) -> _Iterate:
    """The iterate at these orbit masses, assembled and factored from the rows R."""
    L, log_det, pivot = _factor(R, (mass / counts)[row_orbit])
    if pivot:
        raise SingularGramError(f"moment matrix of the Fekete start is not positive definite at pivot {pivot}", pivot)
    Z = _matmul(R, L.conj().T)
    return _Iterate(mass, log_det, Z, row_orbit, _orbit_means(Z, row_orbit, counts))


def _frame(it: _Iterate, counts: np.ndarray, moving: np.ndarray):
    """Trial masses q read in the orthonormal frame of an iterate.

    The iterate's rows Z = R L^H, with L M L^H = I, give
    L R_o^H R_o L^H = Z_o^H Z_o, so for masses q that differ from the
    iterate's only on the ``moving`` orbits

        L M(q) L^H = I + E,  E = sum_o (q_o - mass_o) / c_o Z_o^H Z_o,
        log det M(q / sum q) = log det M + log det(I + E) - n log(sum q):

    one n x n Cholesky C C^H = I + E per trial instead of a re-assembly.
    Returns trial(q) -> (log det M(q / sum q), C), with -inf and None
    where I + E has no Cholesky factor; ``_advance`` turns an accepted
    trial into the next iterate.
    """
    rows = moving[it.row_orbit]
    Z, row_orbit = it.Z[rows], it.row_orbit[rows]
    n = Z.shape[1]

    def trial(q: np.ndarray):
        E = _assemble(Z, ((q - it.mass) / counts)[row_orbit])
        E.flat[:: n + 1] += 1.0
        C, log_det, _ = _cholesky_log_det(E)
        return it.log_det + log_det - n * math.log(float(q.sum())), C

    return trial


def _advance(it: _Iterate, q: np.ndarray, log_det: float, C: np.ndarray, counts: np.ndarray) -> _Iterate:
    """The iterate at masses q / sum q, from the frame trial (log_det, C) of ``it`` at q.

    C^-1 L M(q) L^H C^-H = I, so the iterate's frame moves to
    L' = sqrt(sum q) C^-1 L and its rows to Z' = R L'^H = sqrt(sum q) Z C^-H:
    the rows are never re-factored.
    """
    total = float(q.sum())
    Ci = math.sqrt(total) * _inverse_factor(C)
    Z = _matmul(it.Z, Ci.conj().T)
    return _Iterate(q / total, log_det, Z, it.row_orbit, _orbit_means(Z, it.row_orbit, counts))


def _newton_step(it: _Iterate, counts: np.ndarray, n: int) -> _Iterate | None:
    """An active-set Newton step on the orbit masses, or None if it cannot ascend.

    The free orbits are those with mass, plus the massless ones whose
    K exceeds n; a massless orbit stays fixed at 0 if the step would make
    its mass negative.  The step solves the KKT system of the quadratic
    model of log det on the free face under sum(mass) = 1.  The line
    search accepts the first step length whose log det rises, and by at
    least _ARMIJO of the first-order gain K . (trial - mass); below log
    det's resolution, one along which K' still ascends or max K fell.  It
    reads each trial in the iterate's frame (``_frame``), and the trial it
    accepts advances that frame (``_advance``).
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
    # a ridge picks one well-defined step instead of a rounding-driven one, and
    # its gap share keeps the step from overshooting along the flat directions
    k = free.size
    kkt = np.ones((k + 1, k + 1))  # [[-H + ridge I, 1], [1^T, 0]], bordered by sum(step) = 0
    kkt[:k, :k] = -H
    ridge = max(_KKT_RIDGE, _GAP_RIDGE * (float(K.max()) - n) / n)
    kkt[np.arange(k), np.arange(k)] += ridge * float(np.max(-H.diagonal()))
    kkt[k, k] = 0.0
    rhs = np.append(K[free], 0.0)
    idx = np.arange(k + 1)  # the KKT rows still in play: positions in ``free`` on the face, the multiplier last
    while True:
        try:
            sol = np.linalg.solve(kkt[np.ix_(idx, idx)], rhs[idx])[:-1]
        except np.linalg.LinAlgError:  # nonsingular in exact arithmetic: -H + ridge I > 0
            return None
        f = idx[:-1]
        held = (p[free[f]] == 0) & (sol < 0)
        if not held.any():
            break
        idx = np.append(f[~held], k)
    d = np.zeros_like(p)
    d[free[f]] = sol
    ascent = float((K - n) @ d)  # = K . d, since sum(d) = 0, without summing n-sized terms to ~0
    if not (math.isfinite(ascent) and ascent > 0):
        return None
    shrink = np.flatnonzero(d < 0)
    ratios = p[shrink] / -d[shrink]
    t_max = min(1.0, float(ratios.min())) if shrink.size else 1.0
    # halve from the full step clipped onto the simplex, which empties every orbit
    # it overshoots at once, down to the first face, then step to that face exactly
    arc = [0.5**j for j in range(_BACKTRACKS) if 0.5**j > t_max]
    trial = _frame(it, counts, (it.mass > 0) | (K > n))  # the free orbits and the shed ones
    for t in arc + [t_max]:
        q = np.maximum(p + t * d, 0.0)
        if t == t_max < 1.0:
            q[shrink[np.argmin(ratios)]] = 0.0  # the blocking orbit leaves the face exactly
        floor = it.log_det + _ARMIJO * max(float(K @ (q / q.sum() - p)), 0.0)
        log_det, C = trial(q)
        if log_det > floor:
            return _advance(it, q, log_det, C, counts)
        if abs(log_det - it.log_det) <= _RESOLUTION * max(abs(it.log_det), 1.0):  # judged by K instead
            new = _advance(it, q, log_det, C, counts)
            if float((new.K - n) @ (new.mass - p)) > 0 or new.K.max() < K.max():
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
    the weighted rows (exactly those of ``approx_fekete``), spread evenly
    over each point's symmetry orbit.

    Parameters
    ----------
    space, weight, s
        Design space (its grid is the optimization domain), weight
        function, and polynomial degree.
    epsilon
        Stop once the Kiefer-Wolfowitz gap max K - n over the whole grid
        falls below epsilon * n; must be positive and finite.  The
        returned design drops points lighter than min(epsilon, 1) / (10 m).
    max_iter
        Cap on the Newton steps taken, at least 0.  The default, 200, does
        not depend on epsilon: every measured solve certifies within 40
        steps, down to epsilon 1e-12.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    max_iter = _MAX_STEPS if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    # the rows in the Lagrange basis of the picked points: M starts near I / n
    # and stays well conditioned, since the optimum is near the Fekete
    # points; det M in the basis of the Arnoldi rows is |det A[picks]|^2 times as large
    basis, wvals, A, picks, lagrange_log_det = _fekete_rows(space, weight, s)
    n = basis.n
    grid = space.grid
    m = grid.shape[0]

    orbits, counts = _symmetry_orbits(space, wvals)
    # one mass per orbit, one Gram row set per orbit; exact under the
    # grid's symmetry, and it stops rounding noise from drifting along
    # det-flat angular modes
    R, row_orbit = _orbit_rows(A, orbits, counts)
    it = _evaluate(R, row_orbit, counts, np.bincount(orbits[picks], minlength=counts.size) / n)
    mass_resid = mono_viol = 0.0
    steps = 0

    while True:
        gap = float(it.K.max()) - n
        mass_resid = max(mass_resid, abs(float(it.mass @ it.K) - n))
        converged = gap <= epsilon * n
        if converged or steps == max_iter or (new := _newton_step(it, counts, n)) is None:
            break  # certified, out of budget, or no Newton step to take
        steps += 1
        mono_viol = max(mono_viol, it.log_det - new.log_det)
        it = new

    if converged:  # the rows factored afresh at the certified masses check the certificate
        resid = abs(float(it.mass @ it.K) - n)
        L, _, pivot = _factor(R, (it.mass / counts)[row_orbit])
        if pivot or resid > _CERTIFIED_TOL * n or gap < -_CERTIFIED_TOL * n:  # rounding broke sum(mass K) = n
            weakest = n if pivot else 1 + int(np.argmax(np.abs(L.diagonal())))
            raise SingularGramError(
                f"certificate does not hold at iteration {steps}: mass identity residual {resid:.3e} "
                f"and KW gap {gap:.3e}, limits {_CERTIFIED_TOL * n:.1e} and {-_CERTIFIED_TOL * n:.1e} (n = {n})",
                weakest,
            )
        # K at every point: a grouping that is not a symmetry certifies only the orbit means
        K = _christoffel_rows(A, L)
        excess = K - (np.bincount(orbits, weights=K) / counts)[orbits]  # 0 on single-point orbits
        i = int(np.argmax(excess))
        if excess[i] > _CERTIFIED_TOL * n:
            raise ValueError(
                f"orbit {space.orbits[i]} is not a symmetry of the problem: K at its grid point {i} "
                f"{np.real_if_close(grid[i]).tolist()} exceeds the orbit's mean K by {excess[i]:.3e} (n = {n})"
            )
    K, w = it.K[orbits], (it.mass / counts)[orbits]
    g_idx = int(np.argmax(K))
    g_val = float(K[g_idx])
    keep = w >= min(epsilon, 1.0) / (10.0 * m)  # the heaviest point, at least 1 / m, always stays
    design = make_design(grid[keep], w[keep] / w[keep].sum())
    return OptimalResult(
        design=design,
        log_det=it.log_det + 2.0 * lagrange_log_det - 2.0 * basis.log_lead,
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
        fekete_log_vdm=lagrange_log_det - basis.log_lead,
    )


class GValue(NamedTuple):
    value: float
    argmax: np.ndarray
    index: int


def _grid_max(K: np.ndarray, grid: np.ndarray) -> GValue:
    """max K, at the lowest index within a relative 1e-12 of it: rounding never picks between symmetric points."""
    idx = int(np.argmax(K >= (1.0 - 1e-12) * K.max()))
    return GValue(float(K.max()), grid[idx].copy(), idx)


def g_value(ev: ChristoffelEvaluator, space: DesignSpace) -> GValue:
    """Maximum of the Christoffel function over the grid (ties: lowest index)."""
    return _grid_max(christoffel_many(ev, space.grid), space.grid)


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
