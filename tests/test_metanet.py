import math
import warnings

import numpy as np
import pytest

import reference
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
    meta_grads,
    meta_scores,
    purify,
    save_classifier_checkpoint,
    train_meta,
    weighted_average_baseline,
)
from dualsift import metanet
from dualsift.classifier import with_ones
from dualsift.data import ROW_BLOCK
from dualsift.division import Tag
from dualsift.metanet import MAX_PAIRS, _mean_bce, _sigmoid
from dualsift.pipeline import DistillParams
from dualsift.scores import ScoreTable
from dualsift.seeding import rng_from


def table_with(pp, ps, fused=None):
    n = len(pp)
    t = ScoreTable.empty(n)
    t.loss_score[:] = 0.0
    t.sim_score[:] = 0.0
    t.posterior_loss[:] = pp
    t.posterior_sim[:] = ps
    if fused is not None:
        t.fused[:] = fused
    return t


def simple_partition(n, pos, neg):
    codes = np.full(n, Tag.U)
    codes[np.array(pos, dtype=int)] = Tag.P
    codes[np.array(neg, dtype=int)] = Tag.N
    return Partition(codes)


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
    net = reference.network(w1=np.zeros((2, 4)), b1=np.zeros(4), w2=np.zeros(4)[:, None],
                            b2=np.zeros(1))
    assert meta_scores(net, np.array([[0.3, 0.8]]))[0] == pytest.approx(0.5, abs=1e-15)


def test_meta_forward_saturation():
    net = reference.network(w1=np.zeros((2, 4)), b1=np.zeros(4), w2=np.zeros(4)[:, None],
                            b2=np.array([30.0]))
    assert meta_scores(net, np.array([[0.5, 0.5]]))[0] >= 1.0 - 1e-9


def test_meta_forward_hand_network():
    net = reference.network(w1=np.array([[1.0], [0.0]]), b1=np.zeros(1),
                            w2=np.array([1.0])[:, None], b2=np.zeros(1))
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert expected == pytest.approx(0.73106, abs=1e-5)
    assert meta_scores(net, np.array([[1.0, 0.0]]))[0] == pytest.approx(expected, abs=1e-12)


def test_meta_forward_output_in_unit_interval():
    net = ToyClassifier.initialize(2, 10, 1, seed=3)
    rng = rng_from(0)
    out = meta_scores(net, rng.random((100, 2)))
    assert ((out > 0) & (out < 1)).all()


def test_sigmoid_matches_masked_form_bit_for_bit():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
                  800.0, -800.0, 1e308, -1e308, np.nan, -np.nan])
    z = np.concatenate([z, rng_from(0).normal(0.0, 40.0, 1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(z)
    assert got.view(np.uint64).tolist() == reference.sigmoid(z).view(np.uint64).tolist()


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
    np.testing.assert_array_equal(a.flat, b.flat)


def test_train_config_validation():
    with pytest.raises(ValueError):
        MetaTrainConfig(epochs=0)
    for patience in (0, -3):
        with pytest.raises(ValueError, match="patience"):
            MetaTrainConfig(patience=patience)
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
    # the loss comes from the oracle's loss form; the package computes none
    x1 = with_ones(x)
    grads = ToyClassifier(meta_grads(net, x1, y, *reference.step_buffers(net, x1)), net.dims)
    step = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(net, name)
        analytic = getattr(grads, name)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = reference.meta_loss_and_grads(net, x, y)
            param[idx] = orig - step
            dn, _ = reference.meta_loss_and_grads(net, x, y)
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


def posterior_table(n, seed=0):
    """Posteriors in [0, 1] with NaN in the loss column, the feature
    column, or both, on rows spread over every block."""
    rng = np.random.default_rng(seed)
    pp, ps = rng.random(n), rng.random(n)
    pp[rng.random(n) < 0.1] = np.nan
    ps[rng.random(n) < 0.1] = np.nan
    pp[::97] = ps[::89] = np.nan
    return table_with(pp, ps)


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 1])
def test_fuse_scores_matches_whole_array_oracle(n):
    net = ToyClassifier.initialize(2, DistillParams().meta_hidden, 1, seed=n)
    table = posterior_table(n, seed=n)
    got, want = fuse_scores(net, table).fused, reference.fuse_scores(net, table).fused
    assert np.isnan(got).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
def test_meta_scores_fill_one_row_block_at_a_time(n):
    # each block's scores are that block's own forward, bit for bit: the
    # reused buffers' first block, an exact multiple of ROW_BLOCK and a
    # partial last block; fuse_scores is this scorer over the posteriors
    net = ToyClassifier.initialize(2, DistillParams().meta_hidden, 1, seed=n)
    table = posterior_table(n, seed=n)
    pairs = table.posteriors
    scores = meta_scores(net, pairs)
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        assert scores[block].tobytes() == reference.meta_scores(net, pairs[block]).tobytes()
    assert fuse_scores(net, table).fused.tobytes() == scores.tobytes()
    missing = np.isnan(pairs).any(axis=1)
    assert missing[0] and np.isnan(scores[missing]).all()
    assert not np.isnan(scores[~missing]).any()


def test_fuse_memory_does_not_grow_with_rows(traced_extra, growth_per_row):
    net = ToyClassifier.initialize(2, DistillParams().meta_hidden, 1, seed=3)

    def extra(n):
        table, peak = traced_extra(fuse_scores, net, posterior_table(n))
        return peak - table.fused.nbytes
    # the whole-array pass held the pairs and the hidden layer: 117 bytes a row
    assert growth_per_row(extra) < 1


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


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


BCE_PREDS = (0.0, 1e-300, 1e-7, 0.5, 1.0 - 1e-7, 1.0, np.nan)


@pytest.mark.parametrize("label", [0.0, 1.0])
@pytest.mark.parametrize("pred", BCE_PREDS)
def test_bce_matches_clip_and_mean_bit_for_bit(pred, label):
    preds, labels = np.array([pred]), np.array([label])
    assert _bits(_mean_bce(preds, labels)) == _bits(reference.mean_bce(preds, labels))


def test_bce_matches_clip_and_mean_on_batches():
    grid = np.array([(p, y) for p in BCE_PREDS if not np.isnan(p) for y in (0.0, 1.0)])
    rng = rng_from(17)
    pairs = np.column_stack([rng.random(1000), (rng.random(1000) < 0.5).astype(float)])
    for batch in (grid, pairs, *pairs[:, None, :]):
        got = _mean_bce(batch[:, 0], batch[:, 1])
        assert _bits(got) == _bits(reference.mean_bce(batch[:, 0], batch[:, 1]))


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_train_meta_matches_per_batch_gather(batch_size):
    # 203 records leave a short last batch for sizes 7 and 64
    data = separable_meta(n=203, seed=6)
    cfg = MetaTrainConfig(seed=3, epochs=4, batch_size=batch_size)
    net = ToyClassifier.initialize(2, 10, 1, seed=1)
    got, want = train_meta(net, data, cfg), reference.train_meta(net, data, cfg)
    assert np.array_equal(got.flat, want.flat)


def uniform_meta(n, seed):
    inputs = rng_from(seed).random((n, 2))
    return MetaDataset(inputs=inputs, labels=(inputs.sum(axis=1) > 1.0).astype(float))


@pytest.mark.parametrize("n", [MAX_PAIRS + 1, 3 * MAX_PAIRS])
def test_train_meta_above_the_cap_trains_on_a_seeded_subsample(monkeypatch, n):
    data = uniform_meta(n, seed=n)
    cfg = MetaTrainConfig(seed=7, epochs=3, patience=3, batch_size=100)
    net = ToyClassifier.initialize(2, 10, 1, seed=1)
    keep = rng_from(cfg.seed, "meta-sample").choice(n, MAX_PAIRS, replace=False)
    want = reference.train_meta(net, MetaDataset(data.inputs[keep], data.labels[keep]), cfg)
    steps = []
    real = metanet.meta_loss_and_grads
    monkeypatch.setattr(metanet, "meta_loss_and_grads",
                        lambda *args: steps.append(args[1].shape[0]) or real(*args))
    got = train_meta(net, data, cfg)
    assert np.array_equal(got.flat, want.flat)
    # patience == epochs, so every epoch runs
    assert len(steps) == cfg.epochs * math.ceil(MAX_PAIRS / cfg.batch_size)
    assert sum(steps) == cfg.epochs * MAX_PAIRS
    assert not np.array_equal(got.flat, reference.train_meta(net, data, cfg).flat)


def test_train_meta_at_the_cap_uses_every_pair():
    data = uniform_meta(MAX_PAIRS, seed=1)
    cfg = MetaTrainConfig(seed=7, epochs=2, batch_size=100)
    net = ToyClassifier.initialize(2, 10, 1, seed=1)
    assert np.array_equal(train_meta(net, data, cfg).flat,
                          reference.train_meta(net, data, cfg).flat)


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
    np.testing.assert_array_equal(net.flat, back.flat)
    path.write_text("toyclassifier 2 0 1\n0.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_classifier_checkpoint(path)
