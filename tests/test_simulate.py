"""Monte Carlo regression harness: apportionment, covariance, variance ratios."""

import math

import numpy as np
import pytest

from optdesign import (
    RegressionExperiment,
    apportion,
    disk,
    eval_basis_many,
    make_design,
    monomial_basis,
    simulate_regression,
    uniform_design,
    variance_identity_check,
)

THIRDS = make_design([-1.0, 0.0, 1.0], np.full(3, 1 / 3))


def experiment(**kw):
    args = dict(
        design=THIRDS,
        degree=2,
        theta=np.array([1.0, -2.0, 0.5]),
        sigma=0.1,
        num_obs=99,
        trials=2000,
        seed=42,
    )
    args.update(kw)
    return RegressionExperiment(**args)


def test_apportion_exact_and_remainder_cases():
    assert np.array_equal(apportion([0.25, 0.75], 4), [1, 3])
    # equal fractional remainders resolve toward the lowest index
    assert np.array_equal(apportion(np.full(3, 1 / 3), 4), [2, 1, 1])
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, 7)
    w /= w.sum()
    for n in (0, 1, 13, 250):
        counts = apportion(w, n)
        assert counts.sum() == n and np.all(counts >= 0)
    with pytest.raises(ValueError):
        apportion(w, -1)


def test_experiment_validation():
    with pytest.raises(ValueError):
        experiment(theta=np.ones(2))
    with pytest.raises(ValueError):
        experiment(sigma=-0.1)
    with pytest.raises(ValueError):
        experiment(num_obs=2)
    with pytest.raises(ValueError):
        experiment(trials=0)


def test_same_seed_reproduces_bitwise():
    a = simulate_regression(experiment(trials=50))
    b = simulate_regression(experiment(trials=50))
    assert np.array_equal(a.theta_mean, b.theta_mean)
    assert np.array_equal(a.empirical_cov, b.empirical_cov)
    assert a.to_json() == b.to_json()
    c = simulate_regression(experiment(trials=50, seed=43))
    assert not np.array_equal(a.theta_mean, c.theta_mean)


def test_estimates_are_unbiased_within_monte_carlo_error():
    stats = simulate_regression(experiment())
    se = np.sqrt(np.real(np.diag(stats.theoretical_cov)) / stats.trials)
    assert np.all(np.abs(stats.theta_mean - np.array([1.0, -2.0, 0.5])) < 6 * se)


def test_counts_and_volume_proxy():
    stats = simulate_regression(experiment())
    assert np.array_equal(stats.counts, [33, 33, 33])
    V = np.repeat(np.array([[1.0, -1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 33, axis=0)
    _, logdet = np.linalg.slogdet(V.T @ V)
    assert stats.volume_proxy == pytest.approx(math.exp(-0.5 * logdet), rel=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_theoretical_cov_matches_observation_gram_inverse(kind):
    if kind == "real":
        exp = experiment(design=make_design([-1.0, -0.3, 0.4, 1.0], [0.1, 0.4, 0.3, 0.2]), num_obs=37)
    else:
        grid = disk().grid[::97]
        exp = RegressionExperiment(
            design=uniform_design(grid), degree=3, theta=np.ones(4), sigma=0.3, num_obs=50, trials=2, seed=1
        )
    stats = simulate_regression(exp)
    # reference: sigma^2 inv(V* V) over the apportioned observation points
    reps = np.repeat(np.arange(exp.design.size), stats.counts)
    V = eval_basis_many(monomial_basis(exp.design.dimension, exp.degree), exp.design.points[reps])
    ref = exp.sigma**2 * np.linalg.inv(V.conj().T @ V)
    assert np.allclose(stats.theoretical_cov, ref, rtol=1e-12, atol=0)


def test_theoretical_cov_is_real_on_a_real_design_and_matches_the_complex_path():
    exp = experiment(design=make_design([-1.0, -0.3, 0.4, 1.0], [0.1, 0.4, 0.3, 0.2]), num_obs=37)
    stats = simulate_regression(exp)
    assert stats.theoretical_cov.dtype == np.float64
    # the complex path: the observation Gram matrix assembled in complex dtype
    reps = np.repeat(np.arange(exp.design.size), stats.counts)
    V = eval_basis_many(monomial_basis(1, exp.degree), exp.design.points[reps])
    assert np.iscomplexobj(V)
    C = np.linalg.cholesky(V.conj().T @ V / exp.num_obs)
    L = np.linalg.inv(C)
    ref = exp.sigma**2 / exp.num_obs * (L.conj().T @ L)
    assert np.allclose(stats.theoretical_cov, ref, rtol=1e-12, atol=0)


def test_theoretical_prediction_variance_at_support_atoms():
    # uniform thirds realized exactly: K(atom) = 3, so var = 3 sigma^2 / m
    stats = simulate_regression(experiment())
    for row in stats.prediction:
        assert row.theoretical_var == pytest.approx(0.01 / 99 * 3.0, rel=1e-10)


def test_variance_ratios_near_one_but_gate_requires_enough_trials():
    exp = experiment(trials=4000)
    check = variance_identity_check(exp, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert len(check.rows) == 5
    for row in check.rows:
        assert 0.9 <= row.ratio <= 1.1
    assert not check.passed  # the gate also demands >= 10^4 trials
    csv = check.to_csv()
    assert csv.splitlines()[0] == "point,empirical_var,theoretical_var,ratio"
    assert len(csv.splitlines()) == 6


def test_zero_noise_collapses_all_variances():
    exp = experiment(sigma=0.0, trials=10)
    stats = simulate_regression(exp)
    assert np.allclose(stats.empirical_cov, 0.0, atol=1e-28)
    assert np.allclose(stats.theta_mean, exp.theta, atol=1e-12)
    for row in stats.prediction:
        # centering identical estimates leaves rounding dust, never more
        assert row.empirical_var <= 1e-28 and row.theoretical_var == 0.0


def test_complex_design_produces_hermitian_covariance():
    z = 0.75 * np.exp(2j * math.pi * np.arange(4) / 4)
    exp = RegressionExperiment(
        design=uniform_design(z),
        degree=1,
        theta=np.array([1.0 + 0.5j, -0.25j]),
        sigma=0.05,
        num_obs=40,
        trials=400,
        seed=7,
    )
    stats = simulate_regression(exp)
    assert np.allclose(stats.empirical_cov, stats.empirical_cov.conj().T)
    eig = np.linalg.eigvalsh(stats.empirical_cov)
    assert eig.min() >= -1e-20
    assert np.all(np.isfinite([r.empirical_var for r in stats.prediction]))
