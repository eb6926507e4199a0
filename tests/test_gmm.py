import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference
from dualsift import DegenerateFit, Gmm1d, GmmConfig, Orientation, fit_gmm1d, gmm, posteriors
from dualsift.scores import SCORE_RANGE


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


def test_fit_with_equal_quantiles_starts_from_the_extremes():
    # the 10th and 90th percentiles of 95 zeros and 5 ones are both 0; the
    # fit starts from the minimum and maximum instead, and finds both parts
    g = fit_gmm1d(np.r_[np.zeros(95), np.ones(5)], GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    np.testing.assert_allclose(g.means, [0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(g.weights, [0.95, 0.05], atol=1e-9)
    assert g.converged and g.clean_component == 0


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
    for size in (0, -5):
        with pytest.raises(ValueError, match="min_fit_size"):
            GmmConfig(Orientation.SMALLER_MEAN_CLEAN, min_fit_size=size)
    GmmConfig(Orientation.SMALLER_MEAN_CLEAN, min_fit_size=1)


# ------------------------------------------------------------ the log-sum-exp helper

def logaddexp(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return gmm._logaddexp(a, b, np.empty(a.size), np.empty((2, a.size)))


def test_logaddexp_equal_arguments_add_log_2():
    l = np.array([-745.0, -3.5, 0.0, 1e-300, 2.25, 7e300])
    assert np.array_equal(logaddexp(l, l), l + np.log(2.0))


def test_logaddexp_of_minus_inf_is_the_other_argument():
    other = np.array([-1e300, -2.5, 0.0, 3.75, 1e300])
    minus_inf = np.full(other.size, -np.inf)
    assert np.array_equal(logaddexp(other, minus_inf), other)
    assert np.array_equal(logaddexp(minus_inf, other), other)


def test_logaddexp_of_two_minus_inf_is_minus_inf():
    # the suite turns any RuntimeWarning into an error
    assert np.array_equal(logaddexp([-np.inf], [-np.inf]), [-np.inf])


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=50))
def test_logaddexp_matches_numpy(pairs):
    a, b = np.array(pairs).T
    np.testing.assert_allclose(logaddexp(a, b), np.logaddexp(a, b), rtol=1e-14)


# ------------------------------------------------- buffered EM against the oracles

MIN_FIT_SIZE = GmmConfig(Orientation.SMALLER_MEAN_CLEAN).min_fit_size


def oracle_grid(test):
    """The hypothesis grid both oracle comparisons run on: mixtures of
    MIN_FIT_SIZE..20000 points, optionally with one far outlier."""
    test = example(n=500, seed=3, outlier=False, max_iter=3,
                   orientation=Orientation.LARGER_MEAN_CLEAN)(test)
    test = example(n=500, seed=2, outlier=True, max_iter=1,
                   orientation=Orientation.SMALLER_MEAN_CLEAN)(test)
    test = example(n=20_000, seed=1, outlier=True, max_iter=100,
                   orientation=Orientation.LARGER_MEAN_CLEAN)(test)
    test = example(n=MIN_FIT_SIZE, seed=0, outlier=False, max_iter=100,
                   orientation=Orientation.SMALLER_MEAN_CLEAN)(test)
    test = given(n=st.integers(MIN_FIT_SIZE, 20_000), seed=st.integers(0, 2**32 - 1),
                 outlier=st.booleans(), max_iter=st.sampled_from([1, 3, 100]),
                 orientation=st.sampled_from(list(Orientation)))(test)
    return settings(max_examples=40, deadline=None)(test)


def oracle_values(n, seed, outlier):
    rng = np.random.default_rng(seed)
    first = rng.random(n) < rng.uniform(0.05, 0.95)
    values = np.where(first, rng.normal(0.0, rng.uniform(0.01, 1.0), n),
                      rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.01, 1.0), n))
    if outlier:
        values[rng.integers(n)] = 1e6
    return values


def assert_same_fit(got, want, values):
    for name in ("weights", "means", "variances", "log_likelihoods"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.iterations, got.converged, got.clean_component) == \
        (want.iterations, want.converged, want.clean_component)
    assert np.array_equal(posteriors(got, values), reference.posteriors(want, values))


@oracle_grid
def test_fit_and_posteriors_match_reference_bit_for_bit(n, seed, outlier, max_iter, orientation):
    values = oracle_values(n, seed, outlier)
    cfg = GmmConfig(orientation, max_iter=max_iter)
    assert_same_fit(fit_gmm1d(values, cfg), reference.fit_gmm1d(values, cfg), values)


def start(weights, means, variances):
    """A mixture to start EM from; only its three parameter arrays count."""
    return Gmm1d(np.array(weights, dtype=np.float64), np.array(means, dtype=np.float64),
                 np.array(variances, dtype=np.float64), clean_component=0, converged=True,
                 iterations=1, log_likelihoods=np.zeros(1))


@oracle_grid
def test_warm_fit_matches_reference_bit_for_bit(n, seed, outlier, max_iter, orientation):
    # a start drawn anywhere near the values: unequal weights, two of the
    # values as means, variances around the sample variance
    values = oracle_values(n, seed, outlier)
    cfg = GmmConfig(orientation, max_iter=max_iter)
    rng = np.random.default_rng([seed, 2])
    weight = rng.uniform(0.05, 0.95)
    init = start([weight, 1.0 - weight], np.sort(rng.choice(values, 2)),
                 np.maximum(np.var(values) * rng.uniform(0.1, 2.0, 2), cfg.variance_floor))
    assert_same_fit(fit_gmm1d(values, cfg, init=init),
                    reference.fit_gmm1d(values, cfg, init=init), values)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(MIN_FIT_SIZE, 5000), seed=st.integers(0, 2**32 - 1),
       outlier=st.booleans(), orientation=st.sampled_from(list(Orientation)))
def test_refit_from_a_converged_fit_starts_at_its_last_log_likelihood(n, seed, outlier,
                                                                       orientation):
    # a converged fit's parameters are the ones its last E step ran with, so
    # a refit that starts from them exactly repeats that log-likelihood
    values = oracle_values(n, seed, outlier)
    cfg = GmmConfig(orientation)
    g = fit_gmm1d(values, cfg)
    assume(g.converged)
    again = fit_gmm1d(values, cfg, init=g)
    assert again.log_likelihoods[0].tobytes() == g.log_likelihoods[-1].tobytes()


@pytest.mark.parametrize("weights, means, variances, match", [
    ([np.nan, 0.5], [0.0, 2.0], [1.0, 1.0], "finite"),
    ([0.5, 0.5], [0.0, np.inf], [1.0, 1.0], "finite"),
    ([0.5, 0.5], [0.0, 2.0], [1.0, -np.inf], "finite"),
    ([0.5, 0.5, 0.0], [0.0, 2.0], [1.0, 1.0], "two finite"),
    ([0.0, 1.0], [0.0, 2.0], [1.0, 1.0], "weights must be positive"),
    ([-0.5, 1.5], [0.0, 2.0], [1.0, 1.0], "weights must be positive"),
    ([0.5, 0.5], [0.0, 2.0], [1.0, 0.0], "variance_floor"),
    ([0.5, 0.5], [0.0, 2.0], [1e-7, 1.0], "variance_floor"),
])
def test_fit_rejects_a_start_it_cannot_use(weights, means, variances, match):
    with pytest.raises(ValueError, match=match):
        fit_gmm1d(mixture_sample(), GmmConfig(Orientation.SMALLER_MEAN_CLEAN),
                  init=start(weights, means, variances))


@pytest.mark.parametrize("max_iter", [1, 3, 100])
def test_warm_fit_never_writes_into_its_start(max_iter):
    # the previous round's fit is shared with the next round's; a write into
    # a read-only array raises, and the result shares no memory with the start
    cfg = GmmConfig(Orientation.SMALLER_MEAN_CLEAN, max_iter=max_iter)
    g = fit_gmm1d(mixture_sample(seed=13), cfg)
    arrays = (g.weights, g.means, g.variances)
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        a.setflags(write=False)
    warm = fit_gmm1d(mixture_sample(seed=14), cfg, init=g)
    assert [a.tobytes() for a in arrays] == before
    for got in (warm.weights, warm.means, warm.variances):
        assert not any(np.shares_memory(got, a) for a in arrays)


@oracle_grid
def test_fit_and_posteriors_close_to_sequential_sums(n, seed, outlier, max_iter, orientation):
    # The fits once summed left to right and called np.logaddexp. Both round
    # differently from the pairwise sums and the log1p form, by up to about
    # n ulps per sum, which EM carries from iteration to iteration; values near
    # zero (a mean, a log-likelihood, a small posterior) need an absolute bound.
    values = oracle_values(n, seed, outlier)
    cfg = GmmConfig(orientation, max_iter=max_iter)
    got, want = fit_gmm1d(values, cfg), reference.sequential_fit_gmm1d(values, cfg)
    close = dict(rtol=1e-9, atol=1e-9)
    for name in ("weights", "means", "variances", "log_likelihoods"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), **close, err_msg=name)
    assert (got.iterations, got.converged, got.clean_component) == \
        (want.iterations, want.converged, want.clean_component)
    np.testing.assert_allclose(posteriors(got, values),
                               reference.sequential_posteriors(want, values), **close)


# ------------------------------------------------------ invariance under a·x + b

FLIPPED = {Orientation.SMALLER_MEAN_CLEAN: Orientation.LARGER_MEAN_CLEAN,
           Orientation.LARGER_MEAN_CLEAN: Orientation.SMALLER_MEAN_CLEAN}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@oracle_grid
def test_posteriors_invariant_under_affine_maps(sign, n, seed, outlier, max_iter, orientation):
    # The EM updates commute with x -> a·x + b once the variance floor, an
    # absolute variance, is mapped to a²·floor with them. The stopping rule
    # does not: the map moves each log-likelihood by n·log|a| and the rule
    # compares its change with tol·|ll|, so a mapped fit may stop at another
    # iteration. A tol this small stops a fit only where the log-likelihood
    # repeats exactly, at a fixed point of the updates.
    rng = np.random.default_rng([seed, 1])
    a, b = sign * 2.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-10.0, 10.0)
    values = oracle_values(n, seed, outlier)
    cfg = GmmConfig(orientation, max_iter=max_iter, tol=np.finfo(np.float64).tiny)
    mapped_cfg = replace(cfg, orientation=orientation if a > 0 else FLIPPED[orientation],
                         variance_floor=a * a * cfg.variance_floor)
    mapped = a * values + b
    np.testing.assert_allclose(posteriors(fit_gmm1d(mapped, mapped_cfg), mapped),
                               posteriors(fit_gmm1d(values, cfg), values), rtol=1e-6, atol=1e-6)


def test_fit_and_posteriors_refuse_values_past_the_score_range():
    # up to SCORE_RANGE's 2^500 a bimodal sample fits and scores without a
    # warning, which pytest turns into an error; past it EM's squares would
    # overflow, so a fit, a warm fit and the posteriors refuse it by name
    values = mixture_sample(n=400, seed=5)
    cfg = GmmConfig(Orientation.SMALLER_MEAN_CLEAN)
    for scale in (1e-300, 1e150, 2.0 ** 500 / 10):
        g = fit_gmm1d(values * scale, cfg)
        fit_gmm1d(values * scale, cfg, init=g)
        assert np.isfinite(posteriors(g, values * scale)).all()
    g = fit_gmm1d(values, cfg)
    for refused in (lambda v: fit_gmm1d(v, cfg), lambda v: fit_gmm1d(v, cfg, init=g),
                    lambda v: posteriors(g, v)):
        with pytest.raises(ValueError, match=re.escape(f"must not exceed {SCORE_RANGE[1]:g}")):
            refused(values * 1e300)
