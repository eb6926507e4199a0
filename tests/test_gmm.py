import math

import numpy as np
import pytest

from dualsift import DegenerateFit, Gmm1d, GmmConfig, Orientation, fit_gmm1d, posteriors


def mixture_sample(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < 0.5
    values = np.where(pick, rng.normal(0.0, 0.1, n), rng.normal(2.0, 0.3, n))
    return values


def test_fit_recovers_known_mixture():
    values = mixture_sample()
    g = fit_gmm1d(values, GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    means = np.sort(g.means)
    assert abs(means[0] - 0.0) < 0.05 and abs(means[1] - 2.0) < 0.05
    assert abs(g.weights[0] - 0.5) < 0.05 and abs(g.weights[1] - 0.5) < 0.05
    assert g.clean_component == int(np.argmin(g.means))


def test_fit_loglik_nondecreasing():
    g = fit_gmm1d(mixture_sample(seed=3), GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    lls = g.log_likelihoods
    assert np.all(np.diff(lls) >= -1e-9 * np.maximum(1.0, np.abs(lls[:-1])))


def test_fit_degenerate_identical_values():
    with pytest.raises(DegenerateFit):
        fit_gmm1d(np.full(50, 3.3), GmmConfig(Orientation.SMALLER_MEAN_CLEAN))


def test_fit_degenerate_too_few():
    with pytest.raises(DegenerateFit):
        fit_gmm1d(np.array([0.0, 1.0, 2.0]), GmmConfig(Orientation.SMALLER_MEAN_CLEAN))


def test_fit_orientation_flag():
    values = mixture_sample(seed=5)
    g = fit_gmm1d(values, GmmConfig(Orientation.LARGER_MEAN_CLEAN))
    assert g.clean_component == int(np.argmax(g.means))


def test_fit_permutation_invariant():
    values = mixture_sample(seed=7)
    cfg = GmmConfig(Orientation.SMALLER_MEAN_CLEAN)
    a = fit_gmm1d(values, cfg)
    b = fit_gmm1d(values[::-1].copy(), cfg)
    np.testing.assert_allclose(a.means, b.means, atol=1e-9)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)


def test_fit_weights_sum_variance_floor():
    cfg = GmmConfig(Orientation.SMALLER_MEAN_CLEAN, variance_floor=1e-6)
    g = fit_gmm1d(np.concatenate([np.full(100, 1.0), np.full(100, 1.0 + 1e-9)]), cfg)
    assert abs(g.weights.sum() - 1.0) <= 1e-9
    assert (g.variances >= 1e-6).all()


def symmetric_gmm(clean=0):
    return Gmm1d(
        weights=np.array([0.5, 0.5]), means=np.array([0.0, 4.0]),
        variances=np.array([1.0, 1.0]), clean_component=clean,
        converged=True, iterations=1, log_likelihoods=np.array([0.0]))


def test_posterior_midpoint():
    assert posteriors(symmetric_gmm(), np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-12)


def test_posterior_derived_value():
    # densities at 0: exp(0) vs exp(-8); posterior 1/(1+e^-8)
    expected = 1.0 / (1.0 + math.exp(-8.0))
    assert expected == pytest.approx(0.99966, abs=1e-5)
    assert posteriors(symmetric_gmm(), np.array([0.0]))[0] == pytest.approx(expected, abs=1e-12)


def test_posterior_monotone_beyond_clean_mean():
    g = symmetric_gmm()
    grid = np.linspace(0.0, -20.0, 50)
    vals = posteriors(g, grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[-1] > 1.0 - 1e-12


def test_posterior_complement_sums_to_one():
    g = fit_gmm1d(mixture_sample(seed=11), GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    other = Gmm1d(g.weights, g.means, g.variances, 1 - g.clean_component,
                  g.converged, g.iterations, g.log_likelihoods)
    x = np.linspace(-1, 3, 101)
    np.testing.assert_allclose(posteriors(g, x) + posteriors(other, x), 1.0, atol=1e-12)


def test_posterior_rejects_non_finite():
    with pytest.raises(ValueError):
        posteriors(symmetric_gmm(), np.array([np.nan]))


def test_config_validation():
    with pytest.raises(ValueError):
        GmmConfig(Orientation.SMALLER_MEAN_CLEAN, max_iter=0)
    with pytest.raises(ValueError):
        GmmConfig(Orientation.SMALLER_MEAN_CLEAN, tol=0.0)
