"""Monte Carlo regression harness: apportionment, covariance, variance ratios."""

import math
from dataclasses import fields

import numpy as np
import pytest

from optdesign import (
    ExperimentStats,
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
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"sigma must be nonnegative and finite, got {sigma!r}"):
            experiment(sigma=sigma)
    with pytest.raises(ValueError):
        experiment(num_obs=2)
    with pytest.raises(ValueError):
        experiment(trials=0)


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


def test_same_seed_reproduces_bitwise():
    a = simulate_regression(experiment(trials=50))
    b = simulate_regression(experiment(trials=50))
    for field in fields(ExperimentStats):
        if field.name != "prediction":
            assert _bits(getattr(a, field.name)) == _bits(getattr(b, field.name)), field.name
    assert len(a.prediction) == len(b.prediction) == 3
    for ra, rb in zip(a.prediction, b.prediction):
        for name in ("point", "empirical_var", "theoretical_var", "ratio"):
            assert _bits(getattr(ra, name)) == _bits(getattr(rb, name)), name
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
    V = eval_basis_many(monomial_basis(1, exp.degree), exp.design.points[reps]).astype(complex)
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


def unequal_counts_experiment(kind, trials):
    """Weights 0.1/0.4/0.3/0.2/0 at 37 observations: counts 4, 15, 11, 7 and one unobserved atom."""
    w = [0.1, 0.4, 0.3, 0.2, 0.0]
    if kind == "real":
        return experiment(design=make_design(np.linspace(-1.0, 1.0, 5), w), sigma=1.0, num_obs=37, trials=trials)
    z = 0.75 * np.exp(2j * math.pi * np.arange(5) / 5)
    return RegressionExperiment(
        design=make_design(z, w), degree=1, theta=np.array([1.0 + 0.5j, -0.25j]),
        sigma=1.0, num_obs=37, trials=trials, seed=7,
    )


def replicated_least_squares_inputs(exp):
    """The full m-row V and each trial's m noises: every observed atom's sum sqrt(c) sigma e, drawn
    as one (trials, parts, atoms observed) block from Philox(key=(seed, 0)), on its first
    replicate, with zeros on the other replicates."""
    counts = apportion(exp.design.weights, exp.num_obs)
    assert np.array_equal(counts, [4, 15, 11, 7, 0])
    observed = np.flatnonzero(counts)
    complex_noise = bool(np.any(exp.design.points.imag))
    rng = np.random.Generator(np.random.Philox(key=np.array([exp.seed, 0], dtype=np.uint64)))
    E = rng.standard_normal((exp.trials, 2 if complex_noise else 1, observed.size))
    E = (E[:, 0] + 1j * E[:, 1]) / math.sqrt(2.0) if complex_noise else E[:, 0]
    Y = np.zeros((exp.trials, exp.num_obs), dtype=E.dtype)
    first = np.cumsum(counts) - counts
    Y[:, first[observed]] = exp.sigma * np.sqrt(counts[observed]) * E
    reps = np.repeat(np.arange(exp.design.size), counts)
    V = eval_basis_many(monomial_basis(exp.design.dimension, exp.degree), exp.design.points[reps])
    return V, counts, Y


def observed_rows(exp, counts):
    """The monomial rows of the atoms observed at least once: the fit's rows, as the experiment passes them."""
    return eval_basis_many(monomial_basis(exp.design.dimension, exp.degree), exp.design.points[counts > 0])


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trial_noise_is_one_philox_draw_of_per_atom_sums(kind):
    from optdesign.simulate import _trial_estimates

    exp = unequal_counts_experiment(kind, trials=5)
    V, counts, Y = replicated_least_squares_inputs(exp)
    theta_hats = _trial_estimates(exp, counts, observed_rows(exp, counts))
    for t in range(exp.trials):
        ref = np.linalg.lstsq(V, V @ exp.theta + Y[t], rcond=None)[0]
        assert np.allclose(theta_hats[t], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_prediction_rows_match_a_per_point_loop(kind):
    from optdesign import christoffel_many, moment_matrix, orthonormal_factor, unit_weight
    from optdesign.simulate import _trial_estimates

    if kind == "real":
        exp, pts = experiment(trials=500), np.array([[-1.0], [-0.3], [0.0], [0.8]], dtype=complex)
    else:
        z = 0.75 * np.exp(2j * math.pi * np.arange(5) / 5)
        exp = RegressionExperiment(
            design=uniform_design(z), degree=2, theta=np.ones(3), sigma=0.2, num_obs=25, trials=500, seed=3,
        )
        pts = np.array([[0.1j], [0.5 - 0.2j], [-0.9]])
    rows = variance_identity_check(exp, pts).rows
    counts = apportion(exp.design.weights, exp.num_obs)
    theta_hats = _trial_estimates(exp, counts, observed_rows(exp, counts))
    basis = monomial_basis(1, exp.degree)
    pos = counts > 0
    ev = orthonormal_factor(
        moment_matrix(make_design(exp.design.points[pos], counts[pos] / counts.sum()), unit_weight(), exp.degree, basis),
        unit_weight(),
    )
    for row, z in zip(rows, pts):
        vals = theta_hats @ eval_basis_many(basis, z.reshape(1, -1))[0]
        emp = np.sum(np.abs(vals - vals.mean()) ** 2) / (exp.trials - 1)
        theo = exp.sigma**2 / exp.num_obs * christoffel_many(ev, z.reshape(1, -1))[0]
        assert row.empirical_var == pytest.approx(emp, rel=1e-13)
        assert row.theoretical_var == pytest.approx(theo, rel=1e-13)
        assert np.array_equal(row.point, z)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_many_trials_match_least_squares_and_stay_real_on_real_designs(kind):
    from optdesign.simulate import _trial_estimates

    exp = unequal_counts_experiment(kind, trials=4000)
    V, counts, Y = replicated_least_squares_inputs(exp)
    theta_hats = _trial_estimates(exp, counts, observed_rows(exp, counts))
    assert theta_hats.dtype == (np.float64 if kind == "real" else np.complex128)
    ref = np.linalg.lstsq(V, (V @ exp.theta)[:, None] + Y.T, rcond=None)[0].T
    np.testing.assert_allclose(theta_hats, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "atoms, weights, got",
    [([-1.0, 1.0], [0.5, 0.5], 2), ([-1.0, 0.0, 1.0], [0.98, 0.01, 0.01], 1)],
)
def test_fewer_observed_atoms_than_coefficients_are_refused_before_any_draw(monkeypatch, atoms, weights, got):
    # 10 observations put counts [10, 0, 0] on the second design; least squares had no unique fit
    from optdesign import simulate

    monkeypatch.setattr(simulate, "_trial_estimates", lambda *args: pytest.fail("drew before the check"))
    exp = experiment(design=make_design(atoms, weights), num_obs=10, trials=10)
    for run in (simulate_regression, lambda e: variance_identity_check(e, [0.5])):
        with pytest.raises(ValueError, match=f"^need at least 3 observed atoms for degree 2, got {got}$"):
            run(exp)


@pytest.mark.parametrize("empirical, theoretical, ratio", [(0.0, 0.0, 1.0), (1e-3, 0.0, math.inf), (2e-3, 1e-3, 2.0)])
def test_prediction_ratio_at_a_zero_theoretical_variance(empirical, theoretical, ratio):
    # a point where K vanishes predicts without noise: a ratio of 1 if none was seen either
    from optdesign.simulate import PredictionRow

    assert PredictionRow(np.zeros(1), empirical, theoretical).ratio == ratio


def test_simulate_evaluates_the_observed_atoms_once(monkeypatch):
    # the benchmark's 5-atom Lobatto design: the basis was built twice, the observed atoms' rows
    # evaluated twice (for the fit, then for the moment matrix), and their distinctness scanned again
    from optdesign import basis, measure, simulate

    x = math.sqrt(3 / 7)
    exp = experiment(design=make_design([-1.0, -x, 0.0, x, 1.0], np.full(5, 0.2)), degree=4, theta=np.ones(5),
                     num_obs=100, trials=200)
    calls = {"build": [], "replay": [], "scan": []}
    for owner, name, key in ((simulate, "monomial_basis", "build"), (basis, "_replay", "replay"),
                             (measure, "_replay", "replay"), (measure, "_near_pairs", "scan")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _log=calls[key], **k: _log.append(1) or _real(*a, **k))
    simulate_regression(exp)
    assert {key: len(log) for key, log in calls.items()} == {"build": 1, "replay": 2, "scan": 0}
