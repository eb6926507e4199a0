import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    partition_by_label,
    purify,
    read_partition_file,
    resolve_threshold,
    score_dataset,
    write_partition_file,
)
from dualsift import division
from dualsift.division import MIN_COMPONENT_WEIGHT, PARTITION_TAGS, Tag
from dualsift.gmm import GmmConfig, Orientation, fit_gmm1d
from dualsift.pipeline import DistillParams, run_distillation


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


def test_resolve_percentile_empty_errors():
    with pytest.raises(ValueError):
        resolve_threshold(ThresholdStrategy.percentile(0.4), np.array([]))


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


def test_compute_posteriors_fills_and_flags(benchmark40):
    clusters = partition_by_label(benchmark40)
    table = score_dataset(benchmark40, clusters)
    filled, notes = compute_posteriors(table, clusters)
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
    filled, notes = compute_posteriors(table, partition_by_label(ds))
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
    filled, notes = compute_posteriors(table, clusters)
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
    filled, _ = compute_posteriors(scored, clusters)
    filled_bits = bits(filled)
    fused = fuse_scores(ToyClassifier.initialize(2, 10, 1, seed=0), filled)
    assert bits(scored) == scored_bits
    assert bits(filled) == filled_bits
    assert np.isfinite(fused.fused).all() and np.isnan(filled.fused).all()


# ------------------------------------------------------------ partition object

@pytest.mark.parametrize("codes", [[256, 1, 259], [0, -256], [6], [-1]])
def test_partition_rejects_codes_outside_the_tags(codes):
    # 256 and 259 used to wrap to P and C in the int8 cast
    with pytest.raises(ValueError, match="Tag values"):
        Partition(np.array(codes))


def test_partition_validates_cover():
    with pytest.raises(ValueError):
        Partition.from_ids(n_total=3, positive_ids=np.array([0]), negative_ids=np.array([1]),
                           uncertain_ids=np.array([]))


def test_partition_file_roundtrip(tmp_path):
    part = Partition([Tag.P, Tag.N, Tag.C, Tag.UN, Tag.DROPPED])
    path = tmp_path / "part.csv"
    write_partition_file(part, path)
    text = path.read_text()
    assert text == "0,P\n1,N\n2,C\n3,UN\n4,DROPPED\n"
    assert read_partition_file(path).tags() == ["P", "N", "C", "UN", "DROPPED"]


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


@pytest.mark.parametrize("text", [
    pytest.param("1,N\r\n0,P\r\n", id="crlf"),
    pytest.param("0,P\r1,N\r", id="cr"),
    pytest.param("0,P\n\n1,N\n", id="blank_line"),
    pytest.param("0,P\n1,N", id="no_final_newline"),
    pytest.param("0,P\n1,N\n2", id="unterminated_last_line"),
    pytest.param("+0,P\n1,N\n", id="sign"),
    pytest.param("0,P\n+,N\n", id="sign_alone"),
    pytest.param(" 0,P\n1, N\n", id="spaces"),
    pytest.param("00,P\n1,N\n", id="leading_zero"),
    pytest.param("0,P\n\u0661,N\n", id="non_ascii_digit"),
    pytest.param("0,P\n1,\u00dcN\n", id="non_ascii_tag"),
    pytest.param("0,P\n0,N\n", id="duplicate_id"),
    pytest.param("0,P\n1,X\n", id="unknown_tag"),
    pytest.param("0,p\n1,N\n", id="lower_case_tag"),
    pytest.param("0,P,N\n", id="three_fields"),
    pytest.param(",P\n", id="empty_id"),
    pytest.param("0,\n", id="empty_tag"),
    pytest.param("0,P\n2,N\n", id="gap"),
    pytest.param("0,P\n10,N\n", id="id_past_n"),
    pytest.param("-1,P\n0,N\n", id="negative_id"),
    pytest.param("", id="empty_file"),
])
def test_partition_fast_read_leaves_irregular_files_to_line_parser(tmp_path, text):
    path = tmp_path / "part.csv"
    path.write_bytes(text.encode())
    assert division._read_partition_numpy(path) is None
    try:
        want = division._read_partition_lines(path)
    except ParseError as exc:
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            read_partition_file(path)
    else:
        np.testing.assert_array_equal(read_partition_file(path).codes, want.codes)


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
