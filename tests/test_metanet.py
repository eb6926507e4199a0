import math

import numpy as np
import pytest

from dualsift import (
    MetaDataset,
    MetaStarved,
    MetaTrainConfig,
    ParseError,
    Partition,
    ToyClassifier,
    build_meta_dataset,
    fuse_scores,
    load_classifier_checkpoint,
    meta_loss_and_grads,
    meta_scores,
    purify,
    save_classifier_checkpoint,
    train_meta,
    weighted_average_baseline,
)
from dualsift.metanet import _mean_bce
from dualsift.pipeline import DistillParams
from dualsift.scores import ScoreTable
from dualsift.seeding import rng_from


def table_with(pp, ps, fused=None):
    n = len(pp)
    t = ScoreTable.empty(n)
    t.loss_score[:] = 0.0
    t.sim_score[:] = 0.0
    t.unscored_sim[:] = False
    t.posterior_loss[:] = pp
    t.posterior_sim[:] = ps
    if fused is not None:
        t.fused[:] = fused
    return t


def simple_partition(n, pos, neg):
    pos, neg = np.array(pos), np.array(neg)
    unc = np.setdiff1d(np.arange(n), np.union1d(pos, neg))
    return Partition(n_total=n, positive_ids=pos, negative_ids=neg, uncertain_ids=unc)


# -------------------------------------------------------------- meta dataset

def test_build_meta_dataset_labels():
    part = simple_partition(5, pos=[0, 1, 2], neg=[3, 4])
    table = table_with(np.linspace(0.1, 0.5, 5), np.linspace(0.9, 0.5, 5))
    meta = build_meta_dataset(part, table)
    assert meta.n == 5
    np.testing.assert_array_equal(meta.labels, [1, 1, 1, 0, 0])
    # inputs are the stored posteriors, no renormalization
    np.testing.assert_allclose(meta.inputs[:, 0], np.linspace(0.1, 0.5, 5))
    np.testing.assert_allclose(meta.inputs[:, 1], np.linspace(0.9, 0.5, 5))


def test_build_meta_dataset_starved():
    part = simple_partition(4, pos=[0, 1], neg=[])
    with pytest.raises(MetaStarved):
        build_meta_dataset(part, table_with(np.zeros(4), np.zeros(4)))


# ------------------------------------------------------------------- forward

def test_meta_forward_zero_params():
    net = ToyClassifier(w1=np.zeros((2, 4)), b1=np.zeros(4), w2=np.zeros(4)[:, None],
                        b2=np.zeros(1))
    assert meta_scores(net, np.array([[0.3, 0.8]]))[0] == pytest.approx(0.5, abs=1e-15)


def test_meta_forward_saturation():
    net = ToyClassifier(w1=np.zeros((2, 4)), b1=np.zeros(4), w2=np.zeros(4)[:, None],
                        b2=np.array([30.0]))
    assert meta_scores(net, np.array([[0.5, 0.5]]))[0] >= 1.0 - 1e-9


def test_meta_forward_hand_network():
    net = ToyClassifier(w1=np.array([[1.0], [0.0]]), b1=np.zeros(1),
                        w2=np.array([1.0])[:, None], b2=np.zeros(1))
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert expected == pytest.approx(0.73106, abs=1e-5)
    assert meta_scores(net, np.array([[1.0, 0.0]]))[0] == pytest.approx(expected, abs=1e-12)


def test_meta_forward_output_in_unit_interval():
    net = ToyClassifier.initialize(2, 10, 1, seed=3)
    rng = rng_from(0)
    out = meta_scores(net, rng.random((100, 2)))
    assert ((out > 0) & (out < 1)).all()


# ----------------------------------------------------------------------- bce

def test_bce_maximum_entropy():
    assert _mean_bce(np.array([0.5]), np.array([0.0])) == pytest.approx(math.log(2), abs=1e-12)
    assert _mean_bce(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_derived_value():
    assert _mean_bce(np.array([0.9]), np.array([1.0])) == pytest.approx(-math.log(0.9), abs=1e-12)
    assert -math.log(0.9) == pytest.approx(0.10536, abs=1e-5)


def test_bce_near_perfect():
    assert _mean_bce(np.array([1.0 - 1e-7]), np.array([1.0])) <= 2e-7


def test_bce_clamps_extremes():
    assert math.isfinite(_mean_bce(np.array([0.0]), np.array([1.0])))
    assert math.isfinite(_mean_bce(np.array([1.0]), np.array([0.0])))


# ------------------------------------------------------------------ training

def separable_meta(n=200, margin=0.2, seed=0):
    rng = rng_from(seed)
    rows = []
    while len(rows) < n:
        pair = rng.random(2)
        if abs(pair.sum() - 1.0) > margin:
            rows.append(pair)
    inputs = np.array(rows)
    labels = (inputs.sum(axis=1) > 1.0).astype(float)
    return MetaDataset(inputs=inputs, labels=labels)


def test_train_meta_separable_low_bce():
    # batch 16 on 200 records gives the step count the defaults produce on
    # pipeline-sized meta data
    data = separable_meta()
    net = train_meta(ToyClassifier.initialize(2, 10, 1, seed=1), data,
                     MetaTrainConfig(seed=2, batch_size=16))
    final = _mean_bce(meta_scores(net, data.inputs), data.labels)
    assert final < 0.1


def test_train_meta_epoch_bce_non_increasing_early():
    data = separable_meta(seed=5)
    cfg = MetaTrainConfig(seed=2)
    losses = []
    net = ToyClassifier.initialize(2, 10, 1, seed=1)
    for epochs in (1, 2, 3):
        trained = train_meta(net, data, MetaTrainConfig(lr=cfg.lr, epochs=epochs,
                                                        batch_size=cfg.batch_size, seed=cfg.seed))
        losses.append(_mean_bce(meta_scores(trained, data.inputs), data.labels))
    assert losses[1] <= losses[0] + 1e-12
    assert losses[2] <= losses[1] + 1e-12


def test_train_meta_deterministic():
    data = separable_meta(seed=9)
    cfg = MetaTrainConfig(seed=4)
    a = train_meta(ToyClassifier.initialize(2, 10, 1, seed=1), data, cfg)
    b = train_meta(ToyClassifier.initialize(2, 10, 1, seed=1), data, cfg)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)


def test_train_config_validation():
    with pytest.raises(ValueError):
        MetaTrainConfig(epochs=0)
    with pytest.raises(ValueError):
        MetaTrainConfig(lr=0.0)


@pytest.mark.parametrize("hidden", [0, -1])
def test_distill_params_rejects_bad_meta_hidden(hidden):
    with pytest.raises(ValueError, match="meta_hidden"):
        DistillParams(meta_hidden=hidden)


def test_meta_gradient_matches_finite_differences():
    rng = rng_from(12)
    net = ToyClassifier.initialize(2, 4, 1, seed=8)
    x = rng.random((16, 2))
    y = (rng.random(16) > 0.5).astype(float)
    _, grads = meta_loss_and_grads(net, x, y)
    step = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(net, name)
        analytic = grads[name]
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = meta_loss_and_grads(net, x, y)
            param[idx] = orig - step
            dn, _ = meta_loss_and_grads(net, x, y)
            param[idx] = orig
            fd = (up - dn) / (2 * step)
            err = abs(analytic[idx] - fd) / max(abs(analytic[idx]), abs(fd), 1e-8)
            assert err <= 1e-4, f"{name}{idx}: analytic {analytic[idx]} vs fd {fd}"


# -------------------------------------------------------------- fuse / purify

def test_fuse_scores_matches_forward():
    net = ToyClassifier.initialize(2, 6, 1, seed=3)
    pp = np.array([0.1, 0.9, np.nan])
    ps = np.array([0.2, 0.8, 0.5])
    fused = fuse_scores(net, table_with(pp, ps)).fused
    assert fused[0] == pytest.approx(meta_scores(net, np.array([[0.1, 0.2]]))[0], abs=1e-12)
    assert fused[1] == pytest.approx(meta_scores(net, np.array([[0.9, 0.8]]))[0], abs=1e-12)
    assert np.isnan(fused[2])


def test_purify_basic_split():
    part = simple_partition(4, pos=[0], neg=[1])
    table = table_with(np.zeros(4), np.zeros(4), fused=[0.0, 0.0, 0.9, 0.2])
    out = purify(table, part, 0.5, 0.5)
    assert set(out.clean_ids) == {0, 2}
    assert set(out.noisy_ids) == {1, 3}
    assert out.dropped_ids.size == 0


def test_purify_midband_dropped():
    part = simple_partition(3, pos=[0], neg=[1])
    table = table_with(np.zeros(3), np.zeros(3), fused=[0.0, 0.0, 0.5])
    out = purify(table, part, 0.8, 0.2)
    assert set(out.dropped_ids) == {2}
    assert set(out.clean_ids) == {0} and set(out.noisy_ids) == {1}


def test_purify_equal_thresholds_cover_everything():
    part = simple_partition(6, pos=[0, 1], neg=[2])
    table = table_with(np.zeros(6), np.zeros(6), fused=[0, 0, 0, 0.5, 0.51, 0.49])
    out = purify(table, part, 0.5, 0.5)
    judged = np.sort(np.concatenate([out.clean_ids, out.noisy_ids, out.dropped_ids]))
    np.testing.assert_array_equal(judged, np.arange(6))
    assert out.dropped_ids.size == 0
    assert np.intersect1d(out.clean_ids, out.noisy_ids).size == 0


def test_purify_nan_fused_goes_noisy_side():
    part = simple_partition(3, pos=[0], neg=[])
    table = table_with(np.zeros(3), np.zeros(3), fused=[0.0, np.nan, 0.9])
    out = purify(table, part, 0.5, 0.5)
    assert 1 in out.noisy_ids and 2 in out.clean_ids


def test_purify_certain_never_overturned():
    part = simple_partition(4, pos=[0], neg=[1])
    # fused scores disagree with the certain assignments; they must not move
    table = table_with(np.zeros(4), np.zeros(4), fused=[0.0, 1.0, 1.0, 0.0])
    out = purify(table, part, 0.5, 0.5)
    assert 0 in out.clean_ids and 1 in out.noisy_ids


def test_purify_invalid_thresholds():
    part = simple_partition(2, pos=[0], neg=[1])
    with pytest.raises(ValueError):
        purify(table_with(np.zeros(2), np.zeros(2), fused=[0, 0]), part, 0.2, 0.8)


# ------------------------------------------------------------------ baseline

def test_weighted_average_endpoints():
    assert weighted_average_baseline(0.8, 0.4, 1.0) == pytest.approx(0.8)
    assert weighted_average_baseline(0.8, 0.4, 0.0) == pytest.approx(0.4)
    assert weighted_average_baseline(0.8, 0.4, 0.5) == pytest.approx(0.6)


def test_weighted_average_invalid_lambda():
    with pytest.raises(ValueError):
        weighted_average_baseline(0.5, 0.5, 1.2)


# ---------------------------------------------------------------- checkpoint

def test_meta_checkpoint_roundtrip_exact(tmp_path):
    net = train_meta(ToyClassifier.initialize(2, 7, 1, seed=2), separable_meta(seed=3),
                     MetaTrainConfig(seed=5, epochs=3))
    path = tmp_path / "meta.txt"
    save_classifier_checkpoint(net, path)
    assert path.read_text().splitlines()[0] == "toyclassifier 2 7 1"
    back = load_classifier_checkpoint(path)
    for pa, pb in zip(net.params, back.params):
        np.testing.assert_array_equal(pa, pb)
    path.write_text("toyclassifier 2 0 1\n0.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_classifier_checkpoint(path)
