import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualsift import (
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    ThresholdStrategy,
    TrainConfig,
    derive_seed,
    distill_round,
    generate_synthetic,
    inject_noise,
    make_ensemble,
    selection_metrics,
    split_dataset,
    warmup,
)
from dualsift.classifier import (
    ToyClassifier,
    load_classifier_checkpoint,
    mixed_loss_and_grads,
    save_classifier_checkpoint,
    softmax_rows,
)
from dualsift.pipeline import DistillParams
from dualsift.semisup import ensemble_outputs
from dualsift.seeding import rng_from
from reference import co_guess, labeled_loss, refine_label, reg_loss, total_loss, unlabeled_loss


# ------------------------------------------------------------------ loss ops

def test_refine_label_endpoints():
    y = np.array([1.0, 0.0])
    p = np.array([0.2, 0.8])
    np.testing.assert_allclose(refine_label(y, 1.0, p), y)
    np.testing.assert_allclose(refine_label(y, 0.0, p), p)


def test_refine_label_derived():
    got = refine_label(np.array([1.0, 0.0]), 0.6, np.array([0.2, 0.8]))
    np.testing.assert_allclose(got, [0.68, 0.32], atol=1e-12)


@given(st.floats(0, 1), st.lists(st.floats(0.01, 1), min_size=2, max_size=6))
def test_refine_label_is_distribution(fused, raw):
    p = np.array(raw) / np.sum(raw)
    y = np.zeros(len(raw))
    y[0] = 1.0
    out = refine_label(y, fused, p)
    assert abs(out.sum() - 1.0) <= 1e-6
    assert (out >= -1e-12).all()


def test_co_guess_identity_and_symmetry():
    np.testing.assert_allclose(co_guess([np.array([0.3, 0.7])]), [0.3, 0.7])
    np.testing.assert_allclose(
        co_guess([np.array([1.0, 0.0]), np.array([0.0, 1.0])]), [0.5, 0.5])
    np.testing.assert_allclose(
        co_guess([np.array([0.6, 0.4]), np.array([0.2, 0.8])]), [0.4, 0.6])


def test_labeled_loss_values():
    onehot = np.array([[1.0, 0.0]])
    assert labeled_loss(onehot, onehot) == pytest.approx(0.0, abs=1e-6)
    uniform = np.full((1, 10), 0.1)
    target = np.zeros((1, 10))
    target[0, 4] = 1.0
    assert labeled_loss(uniform, target) == pytest.approx(math.log(10), abs=1e-9)
    assert labeled_loss(np.array([[0.7, 0.3]]), onehot) == pytest.approx(-math.log(0.7), abs=1e-12)
    assert -math.log(0.7) == pytest.approx(0.35667, abs=1e-5)


def test_labeled_loss_empty_warns():
    with pytest.warns(UserWarning):
        assert labeled_loss(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0


def test_unlabeled_loss_values():
    assert unlabeled_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])) == 0.0
    assert unlabeled_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(2.0)
    assert unlabeled_loss(np.array([[0.6, 0.4]]), np.array([[0.5, 0.5]])) == pytest.approx(0.02)
    assert unlabeled_loss(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0


def test_reg_loss_values():
    assert reg_loss(np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert expected == pytest.approx(0.14384, abs=1e-5)
    assert reg_loss(np.array([0.75, 0.25])) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.floats(0.01, 1), min_size=2, max_size=8))
def test_reg_loss_nonnegative(raw):
    p = np.array(raw) / np.sum(raw)
    assert reg_loss(p) >= -1e-12


def test_total_loss_weighting():
    assert total_loss(1.0, 2.0, 3.0, 0.0, 0.0) == 1.0
    assert total_loss(1.0, 2.0, 3.0, 30.0, 1.0) == 64.0
    assert total_loss(0.0, 0.0, 0.0, 30.0, 1.0) == 0.0


# ------------------------------------------------------------- classifier core

def test_classifier_forward_shapes():
    clf = ToyClassifier.initialize(4, 8, 3, seed=0)
    logits, hidden = clf.forward(np.zeros((5, 4)))
    assert logits.shape == (5, 3) and hidden.shape == (5, 8)
    probs = clf.probs(np.random.default_rng(0).normal(size=(5, 4)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_classifier_gradient_matches_finite_differences():
    rng = rng_from(21)
    clf = ToyClassifier.initialize(3, 5, 4, seed=13)
    xc = rng.normal(size=(6, 3))
    tc = rng.random((6, 4))
    tc /= tc.sum(axis=1, keepdims=True)
    xu = rng.normal(size=(4, 3))
    qu = rng.random((4, 4))
    qu /= qu.sum(axis=1, keepdims=True)
    _, grads = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
    step = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(clf, name)
        analytic = grads[name]
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig - step
            dn, _ = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig
            fd = (up - dn) / (2 * step)
            err = abs(analytic[idx] - fd) / max(abs(analytic[idx]), abs(fd), 1e-8)
            assert err <= 1e-4, f"{name}{idx}: analytic {analytic[idx]} vs fd {fd}"


def test_mixed_loss_matches_composed_ops():
    # the gradient engine's loss must equal the composition of the loss ops
    rng = rng_from(2)
    clf = ToyClassifier.initialize(3, 6, 4, seed=1)
    xc = rng.normal(size=(7, 3))
    tc = rng.random((7, 4))
    tc /= tc.sum(axis=1, keepdims=True)
    xu = rng.normal(size=(5, 3))
    qu = rng.random((5, 4))
    qu /= qu.sum(axis=1, keepdims=True)
    loss, _ = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
    pc, pu = clf.probs(xc), clf.probs(xu)
    mean_pred = np.vstack([pc, pu]).mean(axis=0)
    expected = total_loss(labeled_loss(pc, tc), unlabeled_loss(pu, qu),
                          reg_loss(mean_pred), 3.0, 1.0)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_classifier_checkpoint_roundtrip(tmp_path):
    clf = ToyClassifier.initialize(4, 6, 3, seed=11)
    path = tmp_path / "clf.txt"
    save_classifier_checkpoint(clf, path)
    back = load_classifier_checkpoint(path)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(clf, name), getattr(back, name))


# --------------------------------------------------------------------- warmup

def noiseless_data(n=1000, spread=0.05, seed=6):
    return generate_synthetic(SyntheticSpec(k=10, d=16, n=n, cluster_spread=spread, seed=seed))


def test_warmup_zero_epochs_identity():
    ds = noiseless_data(n=100)
    cfg = TrainConfig(seed=0)
    ens = make_ensemble(ds.feature_dim, ds.num_classes, cfg)
    out = warmup(ens, ds, 0, cfg.lr, seed=1)
    for a, b in zip(ens, out):
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.b2, b.b2)


def test_warmup_learns_separable_data():
    ds = noiseless_data()
    cfg = TrainConfig(seed=3)
    ens = make_ensemble(ds.feature_dim, ds.num_classes, cfg)
    ens = warmup(ens, ds, 10, cfg.lr, seed=derive_seed(cfg.seed, "warmup"), batch_size=cfg.batch_size)
    _, _, probs = ensemble_outputs(ens, ds.features)
    train_acc = (probs.argmax(axis=1) == ds.true_labels).mean()
    assert train_acc > 0.9


def test_warmup_deterministic():
    ds = noiseless_data(n=200)
    cfg = TrainConfig(seed=3)
    a = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, 2, cfg.lr, seed=9)
    b = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, 2, cfg.lr, seed=9)
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.w1, cb.w1)
        np.testing.assert_array_equal(ca.w2, cb.w2)


def test_warmup_members_distinct():
    ds = noiseless_data(n=200)
    cfg = TrainConfig(seed=3)
    ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, 1, cfg.lr, seed=9)
    assert not np.array_equal(ens[0].w1, ens[1].w1)


# -------------------------------------------------------------- distill rounds

def rate_matched_params(rate):
    return DistillParams(
        loss_strategy=ThresholdStrategy.percentile(rate),
        sim_strategy=ThresholdStrategy.percentile(rate),
        fuse_strategy=ThresholdStrategy.fixed(rate))


def test_distill_round_zero_noise_keeps_almost_everything():
    ds = generate_synthetic(SyntheticSpec(k=10, d=16, n=2000, seed=3))
    cfg = TrainConfig(seed=5)
    ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds,
                 cfg.warmup_epochs, cfg.lr, seed=derive_seed(cfg.seed, "warmup"),
                 batch_size=cfg.batch_size)
    result = distill_round(ens, ds, cfg, rate_matched_params(0.0), round_index=0)
    assert result.partition.clean_ids.size >= 0.95 * ds.n


def test_distill_round_f1_does_not_degrade(benchmark40):
    train, _, _, _ = split_dataset(benchmark40, 0.2, 1)
    rate = float((train.noisy_labels != train.true_labels).mean())
    cfg = TrainConfig(seed=1)
    ens = warmup(make_ensemble(train.feature_dim, train.num_classes, cfg), train,
                 cfg.warmup_epochs, cfg.lr, seed=derive_seed(cfg.seed, "warmup"),
                 batch_size=cfg.batch_size)
    f1s = []
    for r in range(3):
        result = distill_round(ens, train, cfg, rate_matched_params(rate), round_index=r)
        ens = result.ensemble
        f1s.append(selection_metrics(result.partition.clean_ids, train.clean_mask).f1)
    assert f1s[2] >= f1s[0] - 0.02


def test_distill_round_deterministic():
    ds = generate_synthetic(SyntheticSpec(k=5, d=8, n=600, seed=2))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=4))
    cfg = TrainConfig(seed=5, warmup_epochs=3)
    runs = []
    for _ in range(2):
        ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds,
                     cfg.warmup_epochs, cfg.lr, seed=derive_seed(cfg.seed, "warmup"),
                     batch_size=cfg.batch_size)
        result = distill_round(ens, ds, cfg, DistillParams(), round_index=0)
        runs.append(result)
    np.testing.assert_array_equal(runs[0].partition.clean_ids, runs[1].partition.clean_ids)
    np.testing.assert_array_equal(runs[0].partition.positive_ids, runs[1].partition.positive_ids)
    for ca, cb in zip(runs[0].ensemble, runs[1].ensemble):
        np.testing.assert_array_equal(ca.w1, cb.w1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(ensemble_size=0)


def test_softmax_rows_distribution():
    rng = rng_from(0)
    probs = softmax_rows(rng.normal(size=(40, 7)) * 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert (probs >= 0).all()
