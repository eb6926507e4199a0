import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference

from dualsift import (
    Dataset,
    NoiseKind,
    NoiseSpec,
    Partition,
    ParseError,
    StrategyKind,
    SyntheticSpec,
    ThresholdStrategy,
    ToyClassifier,
    compute_posteriors,
    divide_cluster,
    divide_dataset,
    fuse_scores,
    generate_synthetic,
    inject_noise,
    load_sample_table,
    partition_by_label,
    purify,
    read_partition_file,
    resolve_threshold,
    score_dataset,
    selection_metrics,
    weighted_average_baseline,
    write_partition_file,
)
from dualsift import cli, division
from dualsift.data import ROW_BLOCK
from dualsift.division import MIN_COMPONENT_WEIGHT, PARTITION_TAGS, Tag
from dualsift.gmm import GmmConfig, Orientation, fit_gmm1d
from dualsift.metanet import MetaTrainConfig
from dualsift.pipeline import DistillParams, run_distillation
from dualsift.seeding import derive_seed, rng_from


# ----------------------------------------------------------------- strategies

def test_resolve_fixed_passthrough():
    assert resolve_threshold(ThresholdStrategy.fixed(0.5), np.array([0.1, 0.9])) == 0.5


def test_resolve_noise_rate():
    assert resolve_threshold(ThresholdStrategy.parse("noise:0.4"), np.array([])) == 0.4


def test_resolve_percentile_nearest_rank():
    values = np.arange(0.1, 1.05, 0.1)
    assert resolve_threshold(ThresholdStrategy.percentile(0.4), values) == pytest.approx(0.4)


def test_resolve_percentile_boundary():
    values = np.array([0.3, 0.9, 0.2, 0.6])
    assert resolve_threshold(ThresholdStrategy.percentile(1.0), values) == 0.9
    assert resolve_threshold(ThresholdStrategy.percentile(0.0), values) == 0.2


def test_resolve_percentile_without_finite_is_nan():
    # nothing to judge: a NaN cutoff, which every comparison fails
    for values in ([], [np.nan, np.nan], [np.inf, np.nan, -np.inf]):
        assert np.isnan(resolve_threshold(ThresholdStrategy.percentile(0.4), np.array(values)))


def test_strategy_parse():
    s = ThresholdStrategy.parse("percentile:0.36")
    assert s.kind is StrategyKind.PERCENTILE and s.value == 0.36
    assert ThresholdStrategy.parse("fixed:0.5").kind is StrategyKind.FIXED
    assert ThresholdStrategy.parse("noise:0.4") == ThresholdStrategy.fixed(0.4)
    with pytest.raises(ValueError):
        ThresholdStrategy.parse("quantile:0.4")
    with pytest.raises(ValueError):
        ThresholdStrategy.parse("fixed:1.5")


# -------------------------------------------------------------- divide_cluster

def test_divide_cluster_quadrants():
    pp = np.array([0.9, 0.9, 0.1, 0.1])
    ps = np.array([0.9, 0.1, 0.9, 0.1])
    pos, neg, unc = divide_cluster(pp, ps, 0.5, 0.5)
    np.testing.assert_array_equal(pos, [0])
    np.testing.assert_array_equal(neg, [3])
    np.testing.assert_array_equal(unc, [1, 2])


def test_divide_cluster_unanimous():
    pos, neg, unc = divide_cluster(np.ones(4), np.ones(4), 0.5, 0.5)
    assert pos.size == 4 and neg.size == 0 and unc.size == 0


def test_divide_cluster_boundary_tie_is_negative():
    pos, neg, unc = divide_cluster(np.array([0.5]), np.array([0.2]), 0.5, 0.5)
    np.testing.assert_array_equal(neg, [0])
    assert pos.size == 0 and unc.size == 0


def test_divide_cluster_nan_is_uncertain():
    pos, neg, unc = divide_cluster(np.array([np.nan, 0.9]), np.array([0.9, np.nan]), 0.5, 0.5)
    np.testing.assert_array_equal(unc, [0, 1])


@given(st.lists(st.floats(0, 1), min_size=1, max_size=30),
       st.floats(0, 1), st.floats(0, 1), st.data())
def test_divide_cluster_partitions(pp, t1, t2, data):
    ps = np.array(data.draw(st.lists(st.floats(0, 1), min_size=len(pp), max_size=len(pp))))
    pp = np.array(pp)
    pos, neg, unc = divide_cluster(pp, ps, t1, t2)
    combined = np.concatenate([pos, neg, unc])
    assert np.array_equal(np.sort(combined), np.arange(len(pp)))


@given(st.lists(st.floats(0, 1), min_size=1, max_size=30),
       st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.data())
def test_divide_cluster_monotone_in_t1(pp, t1_lo, t1_hi, t2, data):
    if t1_lo > t1_hi:
        t1_lo, t1_hi = t1_hi, t1_lo
    ps = np.array(data.draw(st.lists(st.floats(0, 1), min_size=len(pp), max_size=len(pp))))
    pp = np.array(pp)
    pos_lo, neg_lo, _ = divide_cluster(pp, ps, t1_lo, t2)
    pos_hi, neg_hi, _ = divide_cluster(pp, ps, t1_hi, t2)
    assert set(pos_hi) <= set(pos_lo)
    assert set(neg_lo) <= set(neg_hi)


def test_divide_cluster_extreme_thresholds():
    pp = np.array([0.2, 0.8, 0.5])
    ps = np.array([0.3, 0.9, 0.5])
    pos, _, _ = divide_cluster(pp, ps, 0.0, 0.0)
    assert pos.size == 3  # strictly positive posteriors all pass t=0
    pos, neg, _ = divide_cluster(pp, ps, 1.0, 1.0)
    assert pos.size == 0 and neg.size == 3


# ------------------------------------------------------------- dataset division

def posterior_table(pp, ps):
    from dualsift.scores import ScoreTable
    n = len(pp)
    t = ScoreTable.empty(n)
    t.loss_score[:] = 0.0
    t.sim_score[:] = 0.0
    t.posterior_loss[:] = pp
    t.posterior_sim[:] = ps
    return t


def two_class_dataset(noisy):
    n = len(noisy)
    rng = np.random.default_rng(1)
    return Dataset(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                   np.array(noisy), np.full(n, -1))


def test_divide_dataset_two_class_composition():
    noisy = [0, 0, 0, 0, 1, 1, 1, 1]
    ds = two_class_dataset(noisy)
    pp = [0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.1, 0.1]
    ps = [0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1]
    table = posterior_table(pp, ps)
    part = divide_dataset(table, partition_by_label(ds),
                          ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert part.positive_ids.size == 2
    assert part.negative_ids.size == 2
    assert part.uncertain_ids.size == 4


def test_divide_dataset_all_confident():
    ds = two_class_dataset([0, 0, 0, 0, 1, 1, 1, 1])
    table = posterior_table(np.ones(8), np.ones(8))
    part = divide_dataset(table, partition_by_label(ds),
                          ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert part.uncertain_ids.size == 0
    assert part.certain_ids.size == 8


def test_divide_dataset_nan_class_routes_uncertain():
    ds = two_class_dataset([0, 0, 0, 0, 1, 1, 1, 1])
    pp = np.array([0.9, 0.9, 0.1, 0.1, np.nan, np.nan, np.nan, np.nan])
    ps = np.array([0.9, 0.9, 0.1, 0.1, np.nan, np.nan, np.nan, np.nan])
    part = divide_dataset(posterior_table(pp, ps), partition_by_label(ds),
                          ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert set(part.uncertain_ids) == {4, 5, 6, 7}


def random_strategy(rng):
    # the ends of [0, 1] and ties at 0.5 as often as an interior value
    value = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
    return (ThresholdStrategy.fixed, ThresholdStrategy.percentile)[rng.integers(2)](value)


def holed(rng, n):
    """n posteriors on a coarse grid or uniform, with no, some or only NaN."""
    values = rng.integers(0, 5, n) / 4 if rng.random() < 0.5 else rng.random(n)
    values[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = np.nan
    return values


def test_division_and_cutoff_match_reference_on_posterior_tables():
    rng = rng_from(0, "division-oracle")
    for _ in range(400):
        k, n = int(rng.integers(1, 5)), int(rng.integers(0, 30))
        # labels below ``used`` only: classes from ``used`` up have empty clusters
        labels = rng.integers(0, rng.integers(1, k + 1), n)
        clusters = [np.flatnonzero(labels == c) for c in range(k)]
        table = posterior_table(holed(rng, n), holed(rng, n))
        if rng.random() < 0.5:
            table.posterior_sim[labels == rng.integers(k)] = np.nan
        table.fused[:] = holed(rng, n)
        strategy_loss, strategy_feat, strategy_fuse = (random_strategy(rng) for _ in range(3))

        got = divide_dataset(table, clusters, strategy_loss, strategy_feat)
        want = reference.divide_dataset(table, clusters, strategy_loss, strategy_feat)
        np.testing.assert_array_equal(got.codes, want)
        fused = table.fused[got.uncertain_ids]
        cut = resolve_threshold(strategy_fuse, fused)
        want_cut = reference.fuse_cutoff(strategy_fuse, fused)
        if np.isfinite(fused).any():
            assert cut == want_cut
        elif strategy_fuse.kind is StrategyKind.PERCENTILE:
            assert np.isnan(cut)
        np.testing.assert_array_equal(purify(table, got, cut, cut).codes,
                                      purify(table, Partition(want), want_cut, want_cut).codes)


def test_distillation_matches_reference_division():
    # K=1 (constant losses), empty clusters and constant features all give
    # degenerate fits, whose NaN posteriors reach division and the cutoff
    rng = rng_from(1, "division-oracle")
    for _ in range(300):
        k, n = int(rng.integers(1, 4)), int(rng.integers(8, 50))
        labels = rng.integers(0, rng.integers(1, k + 1), n)
        features = rng.normal(size=(n, 3))
        if rng.random() < 0.3:
            features[labels == 0] = 1.0
        dataset = Dataset(features, 3 * rng.normal(size=(n, k)), labels, np.full(n, -1))
        params = DistillParams(loss_strategy=random_strategy(rng),
                               sim_strategy=random_strategy(rng),
                               fuse_strategy=random_strategy(rng),
                               meta=MetaTrainConfig(epochs=2))
        result = run_distillation(dataset, params)

        want = reference.divide_dataset(result.table, partition_by_label(dataset),
                                        params.loss_strategy, params.sim_strategy)
        codes = result.partition.codes
        np.testing.assert_array_equal(np.where(codes <= Tag.N, codes, Tag.U), want)
        starved = not ((want == Tag.P).any() and (want == Tag.N).any())
        assert any(note.startswith("meta_starved:") for note in result.fallbacks) == starved
        cut = reference.fuse_cutoff(params.fuse_strategy, result.table.fused[want == Tag.U])
        np.testing.assert_array_equal(purify(result.table, Partition(want), cut, cut).codes, codes)


def same_distillation(a, b) -> bool:
    """Equal partitions, fallbacks and meta nets, and every table column
    bit for bit, NaNs included."""
    columns = ("loss_score", "sim_score", "posterior_loss", "posterior_sim", "fused")
    nets = (a.meta_net, b.meta_net)
    return (np.array_equal(a.partition.codes, b.partition.codes)
            and a.fallbacks == b.fallbacks
            and all(np.array_equal(getattr(a.table, c).view(np.uint64),
                                   getattr(b.table, c).view(np.uint64)) for c in columns)
            and (nets == (None, None) or None not in nets
                 and np.array_equal(nets[0].flat, nets[1].flat)))


def test_distillation_without_meta_init_starts_from_the_seeded_draw():
    # omitting previous, passing None and passing a previous pass that holds
    # the seeded draw itself and no fits give the same bits; a meta net
    # comes back exactly when no fallback fused the scores, and another
    # start moves the fused scores
    rng = rng_from(2, "division-oracle")
    seen = set()
    for _ in range(80):
        k, n = int(rng.integers(1, 4)), int(rng.integers(8, 50))
        labels = rng.integers(0, rng.integers(1, k + 1), n)
        dataset = Dataset(rng.normal(size=(n, 3)), 3 * rng.normal(size=(n, k)), labels,
                          np.full(n, -1))
        params = DistillParams(loss_strategy=random_strategy(rng),
                               sim_strategy=random_strategy(rng),
                               meta=MetaTrainConfig(epochs=3, seed=int(rng.integers(100))))
        seeded = ToyClassifier.initialize(2, params.meta_hidden, 1,
                                          seed=derive_seed(params.meta.seed, "meta-init"))
        default = run_distillation(dataset, params)
        assert same_distillation(default, run_distillation(dataset, params, previous=None))
        assert same_distillation(default, run_distillation(
            dataset, params, previous=replace(default, meta_net=seeded, mixtures={})))
        starved = any(note.startswith("meta_starved:") for note in default.fallbacks)
        assert (default.meta_net is None) == starved
        seen.add(starved)
        if not starved:
            other = ToyClassifier.initialize(2, params.meta_hidden, 1, seed=7)
            moved = run_distillation(dataset, params,
                                     previous=replace(default, meta_net=other, mixtures={}))
            assert not np.array_equal(moved.table.fused, default.table.fused,
                                      equal_nan=True)
    assert seen == {False, True}


UNTRAINED = ("meta_untrained:weighted_average:lambda=0.5:"
             "no epoch lowered the training BCE of the seeded start")


@pytest.mark.parametrize("seed", [0, 9])
def test_seeded_meta_net_that_no_epoch_improves_falls_back_to_the_average(tmp_path, seed):
    # at lr 1e100 the first step kills every hidden rectifier and no epoch
    # lowers the seeded draw's BCE; that draw must not fuse the scores (F1
    # 0.827 and 0.875 here, against 0.903 for the average)
    table = tmp_path / "table.csv"
    assert cli.main(["generate", "--k", "4", "--d", "8", "--n", "300", "--noise", "asym:0.3",
                     "--seed", "9", "-o", str(table)]) == 0
    dataset = load_sample_table(table)
    params = DistillParams(meta=MetaTrainConfig(lr=1e100, seed=seed))
    result = run_distillation(dataset, params)
    assert result.meta_net is None
    assert result.fallbacks == [UNTRAINED]
    average = weighted_average_baseline(result.table.posterior_loss, result.table.posterior_sim,
                                        0.5)
    assert np.array_equal(result.table.fused, average, equal_nan=True)
    assert selection_metrics(result.partition.clean_ids, dataset.clean_mask).f1 > 0.9
    # the same draw carried in from a previous pass is a trained net kept
    seeded = ToyClassifier.initialize(2, params.meta_hidden, 1,
                                      seed=derive_seed(seed, "meta-init"))
    kept = run_distillation(dataset, params, previous=replace(result, meta_net=seeded))
    assert kept.fallbacks == []
    assert np.array_equal(kept.meta_net.flat, seeded.flat)


@pytest.mark.parametrize("dims", [(2, 9, 1), (3, 10, 1), (2, 10, 2)])
def test_distillation_rejects_a_meta_init_of_other_dims(benchmark40, benchmark40_result, dims):
    with pytest.raises(ValueError, match="meta_init has dims"):
        run_distillation(benchmark40, DistillParams(), previous=replace(
            benchmark40_result, meta_net=ToyClassifier.initialize(*dims, seed=1)))


def test_compute_posteriors_fills_and_flags(benchmark40):
    clusters = partition_by_label(benchmark40)
    table = score_dataset(benchmark40, clusters)
    filled, notes, _ = compute_posteriors(table, clusters)
    assert notes == []
    assert np.isfinite(filled.posterior_loss).all()
    assert np.isfinite(filled.posterior_sim).all()
    assert ((filled.posterior_loss >= 0) & (filled.posterior_loss <= 1)).all()


def test_compute_posteriors_degenerate_class():
    # class 1 has constant scores in both spaces: no mixture, members stay NaN
    ds = two_class_dataset([0] * 10 + [1] * 10)
    from dualsift.scores import ScoreTable
    table = ScoreTable.empty(20)
    rng = np.random.default_rng(0)
    table.loss_score[:10] = np.concatenate([rng.normal(0, 0.05, 5), rng.normal(2, 0.1, 5)])
    table.sim_score[:10] = np.concatenate([rng.normal(0.9, 0.02, 5), rng.normal(0.2, 0.05, 5)])
    table.loss_score[10:] = 1.0
    table.sim_score[10:] = 0.5
    filled, notes, _ = compute_posteriors(table, partition_by_label(ds))
    assert len(notes) == 2 and all("class=1" in n for n in notes)
    assert np.isnan(filled.posterior_loss[10:]).all()
    assert np.isfinite(filled.posterior_loss[:10]).all()
    part = divide_dataset(filled, partition_by_label(ds),
                          ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert set(range(10, 20)) <= set(part.uncertain_ids)


def test_compute_posteriors_reports_collapsed_component():
    # 499 N(0,1) loss scores and one at 1e6: EM converges with one component
    # holding only the outlier; the caller, not the fit, rejects it
    from dualsift.scores import ScoreTable
    rng = np.random.default_rng(0)
    loss = np.append(rng.normal(size=499), 1e6)
    fit = fit_gmm1d(loss, GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    assert fit.converged and fit.weights.min() < MIN_COMPONENT_WEIGHT
    table = ScoreTable.empty(500)
    table.loss_score[:] = loss
    table.sim_score[:] = np.concatenate([rng.normal(0.9, 0.02, 250), rng.normal(0.2, 0.05, 250)])
    clusters = partition_by_label(two_class_dataset([0] * 500))
    filled, notes, _ = compute_posteriors(table, clusters)
    assert notes == ["gmm_degenerate:class=0:space=loss:component weight 0.002 below 0.01"]
    assert np.isnan(filled.posterior_loss).all()
    assert np.isfinite(filled.posterior_sim).all()
    part = divide_dataset(filled, clusters, ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert part.uncertain_ids.size == 500


def test_compute_posteriors_and_fuse_scores_leave_input_intact(benchmark40):
    # the output tables share the columns they do not write with their input
    def bits(table):
        return {name: column.tobytes() for name, column in vars(table).items()}

    clusters = partition_by_label(benchmark40)
    scored = score_dataset(benchmark40, clusters)
    scored_bits = bits(scored)
    filled, _, _ = compute_posteriors(scored, clusters)
    filled_bits = bits(filled)
    fused = fuse_scores(ToyClassifier.initialize(2, 10, 1, seed=0), filled)
    assert bits(scored) == scored_bits
    assert bits(filled) == filled_bits
    assert np.isfinite(fused.fused).all() and np.isnan(filled.fused).all()


# ------------------------------------------------------------ warm-started fits

def spy_starts(monkeypatch):
    """The ``init`` of each fit ``compute_posteriors`` runs, in call order."""
    starts = []
    real = division.fit_gmm1d

    def spy(values, config, init=None):
        starts.append(init)
        return real(values, config, init=init)
    monkeypatch.setattr(division, "fit_gmm1d", spy)
    return starts


def two_mixture_scores(rng, n):
    """``n`` loss scores and ``n`` similarity scores, each from two separated components."""
    half = n // 2
    loss = np.concatenate([rng.normal(0.1, 0.05, half), rng.normal(2.0, 0.3, n - half)])
    sim = np.concatenate([rng.normal(0.9, 0.02, half), rng.normal(0.2, 0.05, n - half)])
    return loss, sim


def mixture_table(rng, sizes):
    from dualsift.scores import ScoreTable
    table = ScoreTable.empty(sum(sizes))
    parts = [two_mixture_scores(rng, size) for size in sizes]
    table.loss_score[:] = np.concatenate([loss for loss, _ in parts])
    table.sim_score[:] = np.concatenate([sim for _, sim in parts])
    return table


KEYS = [(0, "loss"), (0, "feature"), (1, "loss"), (1, "feature")]


def test_compute_posteriors_starts_each_fit_from_the_given_mixture(monkeypatch):
    # every accepted fit is returned under its key, and a later pass starts
    # that cluster and space from it; omitting init, or passing None, is the
    # percentile start
    clusters = partition_by_label(two_class_dataset([0] * 300 + [1] * 200))
    rng = np.random.default_rng(3)
    first, second = mixture_table(rng, [300, 200]), mixture_table(rng, [300, 200])
    starts = spy_starts(monkeypatch)
    cold, _, fits = compute_posteriors(first, clusters)
    assert sorted(fits) == sorted(KEYS) and starts == [None] * 4
    warm, notes, warm_fits = compute_posteriors(second, clusters, init=fits)
    assert notes == [] and sorted(warm_fits) == sorted(KEYS)
    assert all(got is fits[key] for got, key in zip(starts[4:], KEYS))
    again, _, again_fits = compute_posteriors(second, clusters, init=None)
    assert starts[8:] == [None] * 4
    assert not np.array_equal(warm.posterior_loss, again.posterior_loss)
    assert sum(g.iterations for g in warm_fits.values()) < \
        sum(g.iterations for g in again_fits.values())


def test_rescaled_cluster_fits_from_the_percentiles(monkeypatch):
    # class 1's loss scores lie beyond SCORE_RANGE in the second pass and
    # are fit divided by a power of two: a fit in the undivided units must
    # not start it, and its own fit must not start the third pass
    clusters = partition_by_label(two_class_dataset([0] * 300 + [1] * 200))
    rng = np.random.default_rng(4)
    tables = [mixture_table(rng, [300, 200]) for _ in range(3)]
    tables[1].loss_score[300:] *= 2.0 ** 600
    starts = spy_starts(monkeypatch)
    _, _, first = compute_posteriors(tables[0], clusters)
    scaled, notes, second = compute_posteriors(tables[1], clusters, init=first)
    assert notes == [] and sorted(second) == sorted(KEYS[:2] + KEYS[3:])
    _, _, third = compute_posteriors(tables[2], clusters, init=second)
    assert sorted(third) == sorted(KEYS)
    assert [s is None for s in starts] == [True] * 4 + [False, False, True, False] \
        + [False, False, True, False]
    cold, _, _ = compute_posteriors(tables[1], clusters)
    assert np.array_equal(scaled.posterior_loss[300:], cold.posterior_loss[300:])
    assert np.isfinite(scaled.posterior_loss).all()


def test_cluster_after_a_degenerate_fit_fits_from_the_percentiles(monkeypatch):
    # the first pass rejects class 0's loss fit (a component holds one
    # outlier) and cannot fit class 1's identical similarities; the second
    # pass starts those two from the percentiles, the others from the first's fits
    clusters = partition_by_label(two_class_dataset([0] * 300 + [1] * 200))
    rng = np.random.default_rng(5)
    first, second = mixture_table(rng, [300, 200]), mixture_table(rng, [300, 200])
    first.loss_score[:300] = np.append(rng.normal(size=299), 1e6)
    first.sim_score[300:] = 0.5
    starts = spy_starts(monkeypatch)
    _, notes, fits = compute_posteriors(first, clusters)
    assert [note.split(":")[:3] for note in notes] == \
        [["gmm_degenerate", "class=0", "space=loss"], ["gmm_degenerate", "class=1", "space=feature"]]
    assert sorted(fits) == sorted([(0, "feature"), (1, "loss")])
    warm, _, _ = compute_posteriors(second, clusters, init=fits)
    assert [s is None for s in starts[4:]] == [True, False, False, True]
    cold, _, _ = compute_posteriors(second, clusters)
    assert np.array_equal(warm.posterior_loss[:300], cold.posterior_loss[:300])
    assert np.array_equal(warm.posterior_sim[300:], cold.posterior_sim[300:])


def test_distillation_passes_its_accepted_fits_on():
    # run_distillation returns every fit it accepted; without previous, with
    # None and with a previous pass that holds no meta net and no fits every
    # fit starts from the percentiles
    rng = rng_from(3, "division-oracle")
    for _ in range(40):
        k, n = int(rng.integers(1, 4)), int(rng.integers(8, 50))
        labels = rng.integers(0, rng.integers(1, k + 1), n)
        dataset = Dataset(rng.normal(size=(n, 3)), 3 * rng.normal(size=(n, k)), labels,
                          np.full(n, -1))
        params = DistillParams(meta=MetaTrainConfig(epochs=2))
        default = run_distillation(dataset, params)
        for previous in (None, replace(default, meta_net=None, mixtures={})):
            assert same_distillation(default, run_distillation(dataset, params,
                                                                 previous=previous))
        rejected = {(int(note.split(":")[1][6:]), note.split(":")[2][6:])
                    for note in default.fallbacks if note.startswith("gmm_degenerate:")}
        fitted = {(class_id, space) for class_id, ids in enumerate(partition_by_label(dataset))
                  if ids.size for space in ("loss", "feature")}
        assert set(default.mixtures) == fitted - rejected
        warm = run_distillation(dataset, params, previous=default)
        assert sorted(warm.mixtures) == sorted(default.mixtures)


def test_partition_invariant_under_affine_maps_of_the_scores():
    # compute_posteriors -> divide_dataset commutes with x -> a·x + b per
    # space, a > 0, away from threshold ties, once each variance floor is
    # mapped to a²·floor. The stopping rule is not affine invariant, so both
    # sides stop only at a fixed point (tol = tiny), as in test_gmm.py's
    # posterior property
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=8, n=1200, seed=5)),
                           NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=5))
    clusters = partition_by_label(dataset)
    table = score_dataset(dataset, clusters)
    loss_cfg, feat_cfg = (replace(c, tol=np.finfo(np.float64).tiny)
                          for c in (division.LOSS_GMM, division.FEAT_GMM))
    strategy = ThresholdStrategy.fixed(0.5)

    def divide(table, loss_cfg, feat_cfg):
        filled, notes, _ = compute_posteriors(table, clusters, loss_cfg, feat_cfg)
        assert notes == []
        return filled.posteriors, divide_dataset(filled, clusters, strategy, strategy).codes

    want, codes = divide(table, loss_cfg, feat_cfg)
    rng = rng_from(5, "affine-maps")
    for _ in range(20):
        (al, bl), (af, bf) = ((2.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-10.0, 10.0))
                              for _ in range(2))
        mapped = replace(table, loss_score=al * table.loss_score + bl,
                         sim_score=af * table.sim_score + bf)
        got, got_codes = divide(
            mapped, replace(loss_cfg, variance_floor=al * al * loss_cfg.variance_floor),
            replace(feat_cfg, variance_floor=af * af * feat_cfg.variance_floor))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        away = (np.abs(want - strategy.value) > 1e-5).all(axis=1)
        assert away.mean() > 0.99
        np.testing.assert_array_equal(got_codes[away], codes[away])


def test_huge_logits_select_as_in_range_ones():
    # at logits x 1e300 the loss scores' spread overflows when squared; each
    # cluster's scores are fit divided by a power of two instead. With the
    # largest |logit| at 1.79e308 a row's spread passes the float64 range,
    # and its loss is capped at the largest float
    base = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=8, n=600, seed=1)),
                        NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=1))
    f1 = {}
    top = 1.79e308 / np.abs(base.logits).max()
    for scale in (1e100, 1e300, top):
        dataset = base.with_representation(base.features, base.logits * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_distillation(dataset, DistillParams())
        assert result.fallbacks == []
        f1[scale] = selection_metrics(result.partition.clean_ids, dataset.clean_mask).f1
    assert abs(f1[1e300] - f1[1e100]) <= 0.01
    assert abs(f1[top] - f1[1e100]) <= 0.01


# ------------------------------------------------------------ partition object

@pytest.mark.parametrize("codes", [[256, 1, 259], [0, -256], [6], [-1]])
def test_partition_rejects_codes_outside_the_tags(codes):
    # 256 and 259 used to wrap to P and C in the int8 cast
    with pytest.raises(ValueError, match="Tag values"):
        Partition(np.array(codes))


@pytest.mark.parametrize("codes", [[0.5, 1.9], [0, np.nan], [np.inf], [1e30]])
def test_partition_rejects_codes_that_are_not_finite_integers(codes):
    # the int8 cast used to read [0.5, 1.9] as P, N
    with pytest.raises(ValueError, match="^partition codes must hold finite integers"):
        Partition(np.array(codes))


def test_partition_file_roundtrip(tmp_path):
    part = Partition([Tag.P, Tag.N, Tag.C, Tag.UN, Tag.DROPPED])
    path = tmp_path / "part.csv"
    write_partition_file(part, path)
    text = path.read_text()
    assert text == "0,P\n1,N\n2,C\n3,UN\n4,DROPPED\n"
    assert read_partition_file(path).tags() == ["P", "N", "C", "UN", "DROPPED"]


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK])
def test_partition_file_bytes_match_line_format_across_blocks(tmp_path, n):
    part = Partition(rng_from(n).integers(0, len(PARTITION_TAGS), n))
    path = tmp_path / "part.csv"
    write_partition_file(part, path)
    assert path.read_bytes() == "".join(f"{i},{t}\n" for i, t in enumerate(part.tags())).encode()


@pytest.mark.parametrize("text, match", [
    pytest.param("0,P\n1,X\n", "line 2", id="bad_tag"),
    pytest.param("0,P\n0,N\n", "line 2", id="duplicate_id"),
    pytest.param("0,P\n2,N\n", "0..1", id="gap"),
    pytest.param("-1,P\n0,N\n", "0..1", id="negative_id"),
])
def test_partition_file_rejects(tmp_path, text, match):
    path = tmp_path / "part.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=match):
        read_partition_file(path)


@given(st.lists(st.integers(0, len(PARTITION_TAGS) - 1), min_size=1, max_size=50))
def test_partition_file_roundtrip_codes(tmp_path_factory, codes):
    part = Partition(np.array(codes))
    path = tmp_path_factory.mktemp("part") / "part.csv"
    write_partition_file(part, path)
    np.testing.assert_array_equal(read_partition_file(path).codes, part.codes)


@settings(max_examples=50, deadline=None)
@given(codes=st.lists(st.integers(0, len(PARTITION_TAGS) - 1), min_size=1, max_size=1200),
       data=st.data())
def test_partition_fast_read_matches_line_parser_on_shuffled_files(tmp_path_factory, codes, data):
    order = data.draw(st.permutations(range(len(codes))))
    path = tmp_path_factory.mktemp("part") / "part.csv"
    path.write_bytes("".join(f"{i},{PARTITION_TAGS[codes[i]]}\n" for i in order).encode())
    fast = division._read_partition_numpy(path)
    assert fast is not None
    np.testing.assert_array_equal(fast.codes, division._read_partition_lines(path).codes)
    np.testing.assert_array_equal(fast.codes, codes)


@pytest.mark.parametrize("text, refused", [
    pytest.param("1,N\r\n0,P\r\n", False, id="crlf"),
    pytest.param("0,P\r1,N\r", False, id="cr"),
    pytest.param("0,P\n\n1,N\n", False, id="blank_line"),
    pytest.param("0,P\n1,N", False, id="no_final_newline"),
    pytest.param("0,P\n1,N\n2", True, id="unterminated_last_line"),
    pytest.param("+0,P\n1,N\n", False, id="sign"),
    pytest.param("0,P\n+,N\n", True, id="sign_alone"),
    pytest.param(" 0,P\n1, N\n", True, id="spaces"),
    pytest.param("00,P\n1,N\n", False, id="leading_zero"),
    pytest.param("0,P\n\u0661,N\n", True, id="non_ascii_digit"),
    pytest.param("0,P\n1,\u00dcN\n", True, id="non_ascii_tag"),
    pytest.param("0,P\n0,N\n", True, id="duplicate_id"),
    pytest.param("0,P\n1,X\n", True, id="unknown_tag"),
    pytest.param("0,p\n1,N\n", True, id="lower_case_tag"),
    pytest.param("0,P,N\n", True, id="three_fields"),
    pytest.param(",P\n", True, id="empty_id"),
    pytest.param("0,\n", True, id="empty_tag"),
    pytest.param("0,P\n2,N\n", True, id="gap"),
    pytest.param("0,P\n10,N\n", True, id="id_past_n"),
    pytest.param("-1,P\n0,N\n", True, id="negative_id"),
    pytest.param("", True, id="empty_file"),
    pytest.param("0,P\x00\n1,N\n", True, id="nul_after_tag"),
    pytest.param("0\x00,P\n1,N\n", True, id="nul_after_id"),
    pytest.param("0,DROPPEDXY\n", True, id="tag_past_eight_bytes"),
])
def test_partition_fast_read_leaves_irregular_files_to_line_parser(tmp_path, text, refused):
    """The numpy pass refuses exactly the ``refused`` files; what it reads
    equals the line parser's partition, and read_partition_file gives the
    line parser's partition or its error."""
    path = tmp_path / "part.csv"
    path.write_bytes(text.encode())
    fast = division._read_partition_numpy(path)
    assert (fast is None) == refused
    assert_partition_read_matches_line_parser(path)


def assert_partition_read_matches_line_parser(path):
    fast = division._read_partition_numpy(path)
    try:
        want = division._read_partition_lines(path)
    except ParseError as exc:
        assert fast is None
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            read_partition_file(path)
    else:
        if fast is not None:
            np.testing.assert_array_equal(fast.codes, want.codes)
        np.testing.assert_array_equal(read_partition_file(path).codes, want.codes)


# Bytes that may sit around an id or a tag: whitespace of every kind, signs,
# zeros, NUL, digit separators, and non-ASCII letters and digits.
HOSTILE_FIXES = ["", "", "", " ", "\t", "+", "-", "0", "00", "\x00", "_", "\x7f",
                 "\u00e9", "\u0661", "\u00a0", *map(chr, range(0x0b, 0x20))]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \t\n", "\x0b", "\x1e", "\x85",
             "\u2028"]


def trap(**kw):
    """An ``example`` of two clean lines, the first carrying ``kw``."""
    return example(**{"tags": ["P", "N"], "shuffle": 0, "fix": "", "where": 0,
                      "every_line": False, "hit": 0, "bad": None, "line_end": "\n",
                      "final_end": True, **kw})


@settings(max_examples=300, deadline=None)
@given(tags=st.lists(st.sampled_from(PARTITION_TAGS), min_size=1, max_size=6),
       shuffle=st.integers(0, 2**16), fix=st.sampled_from(HOSTILE_FIXES),
       where=st.integers(0, 3), every_line=st.booleans(), hit=st.integers(0, 5),
       bad=st.sampled_from([None] * 8 + ["id+1", "-id", "DROPPEDX", "DROPPEDXY", "p", ""]),
       line_end=st.sampled_from(LINE_ENDS), final_end=st.booleans())
@trap(fix="\x00", where=3)  # a bytes field drops a trailing NUL
@trap(fix="\x00", where=1)
@trap(fix="\x1f", where=1)  # loadtxt's int parser skips \x1c-\x1f
@trap(bad="DROPPEDXY")       # an S8 field cuts a longer tag to 8 bytes
def test_partition_read_matches_line_parser_on_hostile_bytes(
        tmp_path_factory, tags, shuffle, fix, where, every_line, hit, bad, line_end, final_end):
    """read_partition_file gives the line parser's codes or its exact error,
    and the numpy pass reads nothing the line parser reads otherwise.

    ``fix`` goes before or after the id or the tag of line ``hit``, or of
    every line, and ``bad`` replaces that line's id or tag, so that files
    both parsers accept are drawn as well as files they refuse."""
    n = len(tags)
    lines = []
    for row, i in enumerate(np.random.default_rng(shuffle).permutation(n)):
        fields = ["", str(i), "", ",", "", tags[i], ""]
        if row == hit % n and bad is not None:
            fields[1], fields[5] = {"id+1": (str(i + 1), tags[i]),
                                    "-id": (f"-{i}", tags[i])}.get(bad, (str(i), bad))
        if every_line or row == hit % n:
            fields[(0, 2, 4, 6)[where]] = fix
        lines.append("".join(fields) + line_end)
    text = "".join(lines)
    path = tmp_path_factory.mktemp("part") / "part.csv"
    path.write_bytes((text if final_end else text[:-len(line_end)]).encode())
    assert_partition_read_matches_line_parser(path)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(2, 5), n=st.integers(10, 300), kind=st.sampled_from(NoiseKind),
       rate=st.floats(0.0, 0.6), seed=st.integers(0, 2**16),
       fuse=st.sampled_from(["fixed:0.5", "percentile:0.3", "percentile:0.8"]),
       band=st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted))
def test_distillation_partition_invariants(k, n, kind, rate, seed, fuse, band):
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=k, d=8, n=n, seed=seed)),
                           NoiseSpec(kind, rate, seed=seed + 1))
    result = run_distillation(dataset, DistillParams(fuse_strategy=ThresholdStrategy.parse(fuse)))
    # the run purifies at one cut; a reject < accept band also exercises DROPPED
    banded = purify(result.table, result.partition, band[1], band[0])
    for part in (result.partition, banded):
        assert part.n_total == dataset.n
        clean, noisy, dropped = set(part.clean_ids), set(part.noisy_ids), set(part.dropped_ids)
        assert set(part.positive_ids) <= clean and set(part.negative_ids) <= noisy
        assert not clean & noisy and not clean & dropped and not noisy & dropped
        assert clean | noisy | dropped == set(range(dataset.n))
        tags = np.array(part.tags())
        for ids, members in [(part.positive_ids, ["P"]), (part.negative_ids, ["N"]),
                             (part.certain_ids, ["P", "N"]),
                             (part.uncertain_ids, ["U", "C", "UN", "DROPPED"]),
                             (part.clean_ids, ["P", "C"]), (part.noisy_ids, ["N", "UN"]),
                             (part.dropped_ids, ["DROPPED"])]:
            np.testing.assert_array_equal(ids, np.flatnonzero(np.isin(tags, members)))
