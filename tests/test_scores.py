import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualsift import Dataset, partition_by_label, score_dataset
from reference import cosine_similarity_score, cross_entropy_score


def naive_cross_entropy(logits, label):
    # independent oracle: direct softmax without stabilization
    probs = np.exp(logits) / np.exp(logits).sum()
    return -math.log(probs[label])


def test_cross_entropy_saturated():
    assert cross_entropy_score(np.array([30.0, 0.0, 0.0]), 0) <= 1e-9


def test_cross_entropy_uniform():
    assert cross_entropy_score(np.zeros(10), 3) == pytest.approx(math.log(10), abs=1e-12)


def test_cross_entropy_derived_value():
    logits = np.array([2.0, 0.0, 0.0])
    expected = naive_cross_entropy(logits, 0)
    assert expected == pytest.approx(0.23954, abs=1e-5)
    assert cross_entropy_score(logits, 0) == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy_score(np.zeros(3), 3)


def test_cross_entropy_non_finite():
    with pytest.raises(ValueError):
        cross_entropy_score(np.array([np.inf, 0.0]), 0)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100), st.data())
def test_cross_entropy_shift_invariance(logits, shift, data):
    logits = np.array(logits)
    label = data.draw(st.integers(0, len(logits) - 1))
    a = cross_entropy_score(logits, label)
    b = cross_entropy_score(logits + shift, label)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_cluster_with_zero_mean_embedding_scores_similarity_zero():
    # class 0's two embeddings cancel, so its centre is the zero vector
    ds = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, 1.0]]), np.zeros((3, 2)),
                 np.array([0, 0, 1]), np.full(3, -1))
    table = score_dataset(ds, partition_by_label(ds))
    assert table.sim_score[:2].tolist() == [0.0, 0.0]
    assert table.sim_score[2] == pytest.approx(1.0)


def test_cosine_self_similarity():
    v = np.array([0.3, -0.2, 5.0])
    assert cosine_similarity_score(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_similarity_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_analytic():
    got = cosine_similarity_score(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_cosine_zero_norm_convention():
    assert cosine_similarity_score(np.zeros(3), np.ones(3)) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity_score(np.ones(3), np.ones(4))


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.01, 100), st.floats(0.01, 100), st.data())
def test_cosine_scale_invariance(vec, alpha, beta, data):
    a = np.array(vec)
    b = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=len(vec), max_size=len(vec))))
    # keep both vectors clear of the zero-norm convention at every scale
    assume(np.linalg.norm(a) > 1e-3 and np.linalg.norm(b) > 1e-3)
    plain = cosine_similarity_score(a, b)
    scaled = cosine_similarity_score(alpha * a, beta * b)
    assert abs(plain - scaled) <= 1e-9


def hand_dataset():
    # two classes, two members each, hand-set logits and features
    features = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 3.0]])
    logits = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 30.0], [2.0, 0.0]])
    noisy = np.array([0, 0, 1, 1])
    return Dataset(features, logits, noisy, np.array([-1, -1, -1, -1]))


def test_score_dataset_matches_single_sample_ops():
    ds = hand_dataset()
    table = score_dataset(ds, partition_by_label(ds))
    centers = {0: np.array([1.0, 0.5]), 1: np.array([0.0, 2.0])}
    for i in range(4):
        expected_loss = cross_entropy_score(ds.logits[i], int(ds.noisy_labels[i]))
        expected_sim = cosine_similarity_score(ds.features[i], centers[int(ds.noisy_labels[i])])
        assert table.loss_score[i] == pytest.approx(expected_loss, abs=1e-12)
        assert table.sim_score[i] == pytest.approx(expected_sim, abs=1e-12)
    assert np.isnan(table.posterior_loss).all() and np.isnan(table.fused).all()


def test_score_dataset_self_center_similarity():
    features = np.tile(np.array([[0.5, 2.0]]), (6, 1))
    logits = np.zeros((6, 2))
    ds = Dataset(features, logits, np.zeros(6, dtype=int), np.full(6, -1))
    table = score_dataset(ds, partition_by_label(ds))
    np.testing.assert_allclose(table.sim_score[:6], 1.0, atol=1e-12)


def test_score_dataset_uniform_logits():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(5, 3)), np.zeros((5, 4)),
                 rng.integers(0, 4, 5), np.full(5, -1))
    table = score_dataset(ds, partition_by_label(ds))
    np.testing.assert_allclose(table.loss_score, math.log(4), atol=1e-12)


def test_score_dataset_deterministic_and_ordered(benchmark40):
    clusters = partition_by_label(benchmark40)
    a = score_dataset(benchmark40, clusters)
    b = score_dataset(benchmark40, clusters)
    np.testing.assert_array_equal(a.loss_score, b.loss_score)
    np.testing.assert_array_equal(a.sim_score, b.sim_score)
    assert a.n == benchmark40.n


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 5)),
                  elements=st.floats(-10, 10)),
       st.floats(-300, 300), st.floats(1, 10))
def test_similarities_invariant_to_cluster_scale(features, exponent, mantissa):
    norms = np.linalg.norm(features, axis=1)
    # keep every row and the centre clear of the zero-norm convention; the
    # exponent keeps the scaled values normal, so the scaling itself is exact
    assume(norms.min() > 0.1 and np.linalg.norm(features.mean(axis=0)) > 0.1)
    n = features.shape[0]

    def sims(x):
        ds = Dataset(x, np.zeros((n, 1)), np.zeros(n, dtype=int), np.zeros(n, dtype=int))
        return score_dataset(ds, partition_by_label(ds)).sim_score

    scaled = features * (mantissa * 10.0 ** exponent)
    np.testing.assert_allclose(sims(scaled), sims(features), rtol=1e-9, atol=1e-9)
