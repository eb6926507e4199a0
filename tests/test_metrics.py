import numpy as np
import pytest
import reference

from dualsift import Dataset, SyntheticSpec, accuracy, generate_synthetic, selection_metrics
from dualsift.classifier import ToyClassifier
from dualsift.data import ROW_BLOCK
from dualsift.semisup import TrainConfig, make_ensemble


def test_perfect_selection():
    clean = np.array([True, False, True, False])
    rep = selection_metrics(np.array([0, 2]), clean)
    assert rep.precision == rep.recall == rep.f1 == 1.0
    assert rep.tp_rate == 1.0 and rep.tn_rate == 1.0
    assert rep.degenerate == ()


def test_counts_arithmetic():
    # TP=3 FP=1 FN=1 TN=1
    clean = np.array([True, True, True, True, False, False])
    rep = selection_metrics(np.array([0, 1, 2, 4]), clean)
    assert (rep.tp, rep.fp, rep.fn, rep.tn) == (3, 1, 1, 1)
    assert rep.precision == pytest.approx(0.75)
    assert rep.recall == pytest.approx(0.75)
    assert rep.f1 == pytest.approx(0.75)
    assert rep.tp + rep.fp + rep.tn + rep.fn == rep.n_total


def test_empty_selection_degenerate():
    clean = np.array([True, False])
    rep = selection_metrics(np.array([], dtype=int), clean)
    assert rep.recall == 0.0 and rep.precision == 0.0
    assert "precision" in rep.degenerate


def test_selection_permutation_invariant():
    rng = np.random.default_rng(0)
    clean = rng.random(50) > 0.4
    ids = rng.choice(50, size=20, replace=False)
    a = selection_metrics(ids, clean)
    b = selection_metrics(ids[::-1].copy(), clean)
    assert a == b


def test_selection_rates_in_unit_interval():
    rng = np.random.default_rng(3)
    for trial in range(50):
        clean = rng.random(30) > rng.random()
        ids = np.flatnonzero(rng.random(30) > rng.random())
        rep = selection_metrics(ids, clean)
        for v in (rep.precision, rep.recall, rep.f1, rep.tp_rate, rep.tn_rate):
            assert 0.0 <= v <= 1.0
        assert rep.f1 <= max(rep.precision, rep.recall) + 1e-12


@pytest.mark.parametrize("ids", [[0.9], [np.nan], [0.0, 1.5]])
def test_selection_id_that_is_not_a_finite_integer(ids):
    # 0.9 used to count as id 0
    with pytest.raises(ValueError, match="^selected ids must hold finite integers"):
        selection_metrics(np.array(ids), np.array([True, False]))


def test_selection_takes_integral_float_ids():
    rep = selection_metrics(np.array([1.0]), np.array([True, False]))
    assert (rep.tp, rep.fp, rep.n_selected) == (0, 1, 1)


def test_selection_id_out_of_range():
    with pytest.raises(ValueError):
        selection_metrics(np.array([5]), np.array([True, False]))


def oracle_ensemble(ds):
    # a classifier whose logits read the true class straight off the features
    k, d = ds.num_classes, ds.feature_dim
    clf = reference.network(w1=np.eye(d, d), b1=np.zeros(d),
                            w2=np.vstack([np.eye(k), np.zeros((d - k, k))]) * 50.0,
                            b2=np.zeros(k))
    return ToyClassifier.stack([clf])


def test_accuracy_oracle():
    ds = generate_synthetic(SyntheticSpec(k=4, d=8, n=200, cluster_spread=0.01, seed=2))
    assert accuracy(oracle_ensemble(ds), ds) == 1.0


def test_accuracy_constant_predictor_balanced():
    features = np.zeros((100, 2))
    logits = np.zeros((100, 2))
    true = np.array([0, 1] * 50)
    ds = Dataset(features, logits, true, true)
    clf = reference.network(w1=np.zeros((2, 2)), b1=np.zeros(2),
                            w2=np.zeros((2, 2)), b2=np.array([5.0, 0.0]))
    assert accuracy(ToyClassifier.stack([clf]), ds) == pytest.approx(0.5)


def test_accuracy_two_of_three():
    features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    true = np.array([0, 1, 1])
    ds = Dataset(features, np.zeros((3, 2)), true, true)
    clf = reference.network(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2) * 10, b2=np.zeros(2))
    assert accuracy(ToyClassifier.stack([clf]), ds) == pytest.approx(2 / 3)


def test_accuracy_requires_truth_and_samples():
    ds = Dataset(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2, dtype=int), np.array([-1, -1]))
    cfg = TrainConfig(seed=0)
    ens = make_ensemble(2, 2, cfg)
    with pytest.raises(ValueError):
        accuracy(ens, ds)
    empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        accuracy(ens, empty)


@pytest.mark.parametrize("n", [7, ROW_BLOCK + 5])
def test_accuracy_of_an_unstacked_network_is_its_one_member_stack(n):
    # an unstacked net reads as a one-member ensemble; it once failed on
    # numpy's "output parameter ... wrong number of dimensions"
    ds = generate_synthetic(SyntheticSpec(k=3, d=4, n=n, cluster_spread=2.0, seed=4))
    nets = [ToyClassifier.initialize(4, 8, 3, seed=s) for s in (1, 2)]

    def oracle(members):
        probs = sum(reference.softmax_rows(reference.forward(m, ds.features)[0]) for m in members)
        return float((probs.argmax(axis=1) == ds.true_labels).mean())
    assert accuracy(nets[0], ds) == accuracy(ToyClassifier.stack(nets[:1]), ds) == oracle(nets[:1])
    assert accuracy(ToyClassifier.stack(nets), ds) == oracle(nets)


def test_accuracy_memory_does_not_grow_with_rows(traced_extra, growth_per_row):
    ens = make_ensemble(16, 10, TrainConfig(seed=0))

    def extra(n):
        ds = generate_synthetic(SyntheticSpec(k=10, d=16, n=n, seed=1))
        return traced_extra(accuracy, ens, ds)[1]
    # the member means of the whole test set held 672 bytes a row
    assert growth_per_row(extra) < 1
