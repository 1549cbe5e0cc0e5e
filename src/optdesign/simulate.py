"""Monte Carlo validation of the design-based regression identities.

An experiment draws m observations apportioned across the design atoms,
fits the degree-s polynomial by least squares, and repeats over
independent trials.  The empirical covariance of the coefficient
estimates should match sigma^2 (V* V)^{-1}, and the per-point prediction
variance should match (sigma^2 / m) K(z) with K the Christoffel function
of the realized (apportioned) design, which must observe at least n
atoms.  Least squares on an atom observed c times sees that atom's noise
only through its sum, which for i.i.d. N(0, sigma^2) noise (complex:
(N + iN)/sqrt(2)) is exactly sqrt(c) sigma times one standard normal;
each trial therefore draws one normal per observed atom, not one per
observation, and the estimates keep their distribution.  All trials come
from one counter-based generator keyed by (seed, 0), so one seed
reproduces an experiment bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import eval_basis_many, monomial_basis, space_dimension
from .gram import _christoffel_rows, _moment_rows, orthonormal_factor
from .measure import DiscreteDesign, _matmul, _point_array, unit_weight


@dataclass(frozen=True)
class RegressionExperiment:
    """A repeated polynomial regression on a fixed design.

    ``theta`` holds the true coefficients in the monomial basis
    (graded lexicographic order); ``num_obs`` observations are split
    across the design atoms by largest-remainder apportionment.
    """

    design: DiscreteDesign
    degree: int
    theta: np.ndarray
    sigma: float
    num_obs: int
    trials: int
    seed: int

    def __post_init__(self):
        n = space_dimension(self.design.dimension, self.degree)
        th = np.asarray(self.theta, dtype=complex).reshape(-1)
        if th.shape[0] != n:
            raise ValueError(f"theta has length {th.shape[0]}, expected {n}")
        object.__setattr__(self, "theta", th)
        _check_settings(n, self.degree, self.sigma, self.num_obs, self.trials, self.seed)


def _check_settings(n: int, degree: int, sigma: float, num_obs: int, trials: int, seed: int) -> None:
    """Refuse a noise level, observation count, trial count or seed no degree-``degree`` experiment can use."""
    if not 0 <= seed < 2**64:  # a Philox key word
        raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma!r}")
    if num_obs < n:
        raise ValueError(f"need at least {n} observations for degree {degree}")
    if trials < 1:
        raise ValueError("at least one trial is required")


def apportion(weights, num_obs: int) -> np.ndarray:
    """Largest-remainder apportionment of num_obs slots to the weights.

    Ties in the fractional parts resolve toward the lowest index, so the
    split is deterministic.
    """
    w = np.asarray(weights, dtype=float)
    if num_obs < 0:
        raise ValueError("cannot apportion a negative count")
    quota = w * num_obs
    counts = np.floor(quota).astype(int)
    short = num_obs - int(counts.sum())
    if short > 0:
        frac = quota - counts
        order = np.lexsort((np.arange(w.size), -frac))
        counts[order[:short]] += 1
    return counts


def _trial_estimates(exp: RegressionExperiment, counts: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Least-squares estimates for every trial, stacked (trials, n); real when the design and theta are.

    ``P`` holds the monomial rows of the k atoms observed c > 0 times.  With W = diag(sqrt(c)) P
    and W = QR, the estimate is theta + sigma E conj(Q) R^-T, E holding each trial's k per-atom
    standard normal sums.  The draw is one (trials, parts, k) block: parts 1 for real noise, 2
    (real parts, then imaginary parts) for the complex noise a complex design gets.
    """
    pos = counts > 0
    complex_noise = bool(np.any(exp.design.points.imag))
    theta = exp.theta if complex_noise or np.any(exp.theta.imag) else exp.theta.real
    rng = np.random.Generator(np.random.Philox(key=np.array([exp.seed, 0], dtype=np.uint64)))
    E = rng.standard_normal((exp.trials, 2 if complex_noise else 1, P.shape[0]))
    E = (E[:, 0] + 1j * E[:, 1]) / math.sqrt(2.0) if complex_noise else E[:, 0]
    Q, R = np.linalg.qr(np.sqrt(counts[pos])[:, None] * P)
    # trsm threads even at n = 5, so R^-T is one small inverse, folded into the k x n map from E
    return theta + _matmul(E, exp.sigma * (Q.conj() @ np.linalg.inv(R).T))


@dataclass(frozen=True)
class PredictionRow:
    point: np.ndarray
    empirical_var: float
    theoretical_var: float

    @property
    def ratio(self) -> float:
        if self.theoretical_var == 0.0:
            return 1.0 if self.empirical_var == 0.0 else math.inf
        return self.empirical_var / self.theoretical_var


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregates of a simulated experiment.

    ``volume_proxy`` is det(V* V)^(-1/2), proportional to the volume of a
    fixed-level confidence ellipsoid for the coefficients.
    """

    theta_mean: np.ndarray
    empirical_cov: np.ndarray
    theoretical_cov: np.ndarray
    counts: np.ndarray
    volume_proxy: float
    prediction: tuple[PredictionRow, ...]
    trials: int


def _run(exp: RegressionExperiment, points: np.ndarray):
    """Run the trials; return the estimates, the observation counts, the
    apportioned design's moment matrix and K evaluator, and the prediction
    rows at ``points`` (k, d)."""
    counts = apportion(exp.design.weights, exp.num_obs)
    pos = counts > 0
    if (k := int(pos.sum())) < exp.theta.size:  # least squares on fewer atoms has no unique fit
        raise ValueError(f"need at least {exp.theta.size} observed atoms for degree {exp.degree}, got {k}")
    basis = monomial_basis(exp.design.dimension, exp.degree)
    A = eval_basis_many(basis, exp.design.points[pos])  # the observed atoms' rows: the fit's and the moment matrix's
    theta_hats = _trial_estimates(exp, counts, A)
    mm = _moment_rows(A, counts[pos] / exp.num_obs, basis)  # unit weight: A are the weighted rows
    ev = orthonormal_factor(mm, unit_weight())
    # plain transpose: sum_j p_j(z) theta_hat_j; one row per point, so each sum runs pairwise over the trials
    P = eval_basis_many(basis, points)
    vals = np.ascontiguousarray(_matmul(theta_hats, P.T).T)
    vals -= vals.mean(axis=1)[:, None]
    emp = np.sum((vals * vals.conj()).real, axis=1) / max(exp.trials - 1, 1)
    theo = exp.sigma**2 / exp.num_obs * _christoffel_rows(P, ev.L)  # unit weight: P are the weighted rows
    rows = tuple(
        PredictionRow(point=z, empirical_var=float(e), theoretical_var=float(t)) for z, e, t in zip(points, emp, theo)
    )
    return theta_hats, counts, mm, ev, rows


def simulate_regression(exp: RegressionExperiment) -> ExperimentStats:
    """Run the experiment and aggregate coefficient and prediction statistics.

    Aggregation uses numpy's fixed-order pairwise summation over the trial
    axis, so results are reproducible bit for bit for a given seed.
    """
    theta_hats, counts, mm, ev, rows = _run(exp, exp.design.points)
    mean = theta_hats.mean(axis=0)
    centered = theta_hats - mean[None, :]
    emp_cov = centered.T.conj() @ centered / max(exp.trials - 1, 1)
    # V* V = num_obs * M, and inv(M) = L* L
    theo_cov = exp.sigma**2 / exp.num_obs * (ev.L.conj().T @ ev.L)
    volume = math.exp(-0.5 * (mm.log_det + mm.n * math.log(exp.num_obs)))
    return ExperimentStats(
        theta_mean=mean,
        empirical_cov=emp_cov,
        theoretical_cov=theo_cov,
        counts=counts,
        volume_proxy=volume,
        prediction=rows,
        trials=exp.trials,
    )


@dataclass(frozen=True)
class VarianceCheck:
    rows: tuple[PredictionRow, ...]
    passed: bool


def variance_identity_check(exp: RegressionExperiment, eval_points) -> VarianceCheck:
    """Compare prediction variances with (sigma^2 / m) K(z) at given points.

    The check passes when every ratio lies in [0.9, 1.1] and the
    experiment ran at least 10^4 trials.
    """
    rows = _run(exp, _point_array(eval_points))[-1]
    ok = all(0.9 <= r.ratio <= 1.1 for r in rows) and exp.trials >= 10**4
    return VarianceCheck(rows=rows, passed=ok)
