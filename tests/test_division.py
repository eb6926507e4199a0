import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualsift import (
    Dataset,
    MetaNet,
    Partition,
    ParseError,
    StrategyKind,
    ThresholdStrategy,
    compute_posteriors,
    divide_cluster,
    divide_dataset,
    fuse_scores,
    partition_by_label,
    read_partition_file,
    resolve_threshold,
    score_dataset,
    write_partition_file,
)


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
    t.unscored_sim[:] = False
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
    table.unscored_sim[:] = False
    filled, notes = compute_posteriors(table, partition_by_label(ds))
    assert len(notes) == 2 and all("class=1" in n for n in notes)
    assert np.isnan(filled.posterior_loss[10:]).all()
    assert np.isfinite(filled.posterior_loss[:10]).all()
    part = divide_dataset(filled, partition_by_label(ds),
                          ThresholdStrategy.fixed(0.5), ThresholdStrategy.fixed(0.5))
    assert set(range(10, 20)) <= set(part.uncertain_ids)


def test_compute_posteriors_and_fuse_scores_leave_input_intact(benchmark40):
    # the output tables share the columns they do not write with their input
    def bits(table):
        return {name: column.tobytes() for name, column in vars(table).items()}

    clusters = partition_by_label(benchmark40)
    scored = score_dataset(benchmark40, clusters)
    scored_bits = bits(scored)
    filled, _ = compute_posteriors(scored, clusters)
    filled_bits = bits(filled)
    fused = fuse_scores(MetaNet.initialize(seed=0), filled)
    assert bits(scored) == scored_bits
    assert bits(filled) == filled_bits
    assert np.isfinite(fused.fused).all() and np.isnan(filled.fused).all()


# ------------------------------------------------------------ partition object

def test_partition_validates_cover():
    with pytest.raises(ValueError):
        Partition(n_total=3, positive_ids=np.array([0]), negative_ids=np.array([1]),
                  uncertain_ids=np.array([]))


def test_partition_validates_purified_consistency():
    with pytest.raises(ValueError):
        Partition(n_total=2, positive_ids=np.array([0]), negative_ids=np.array([1]),
                  uncertain_ids=np.array([]), clean_ids=np.array([1]),
                  noisy_ids=np.array([0]), dropped_ids=np.array([]))


def test_partition_file_roundtrip(tmp_path):
    part = Partition(
        n_total=5,
        positive_ids=np.array([0]), negative_ids=np.array([1]),
        uncertain_ids=np.array([2, 3, 4]),
        clean_ids=np.array([0, 2]), noisy_ids=np.array([1, 3]),
        dropped_ids=np.array([4]))
    path = tmp_path / "part.csv"
    write_partition_file(part, path)
    text = path.read_text()
    assert text == "0,P\n1,N\n2,C\n3,UN\n4,DROPPED\n"
    tags = read_partition_file(path)
    assert tags == {0: "P", 1: "N", 2: "C", 3: "UN", 4: "DROPPED"}


def test_partition_file_bad_tag(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("0,P\n1,X\n")
    with pytest.raises(ParseError, match="line 2"):
        read_partition_file(path)
