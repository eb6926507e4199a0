import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualsift import (
    NoiseKind,
    NoiseSpec,
    ParseError,
    SyntheticSpec,
    ThresholdStrategy,
    TrainConfig,
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
    apply_sgd_step,
    ensemble_outputs,
    load_classifier_checkpoint,
    mixed_grads,
    save_classifier_checkpoint,
    save_flat_params,
    softmax_rows,
    with_ones,
)
from dualsift import semisup
from dualsift.data import ROW_BLOCK
from dualsift.errors import NumericalError
from dualsift.metanet import meta_grads
from dualsift.pipeline import DistillParams
from dualsift.seeding import rng_from
import reference
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
    logits, hidden = reference.forward(clf, np.zeros((5, 4)))
    assert logits.shape == (5, 3) and hidden.shape == (5, 8)
    probs = softmax_rows(reference.forward(clf, np.random.default_rng(0).normal(size=(5, 4)))[0])
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
    # the loss comes from the oracle's loss form; the package computes none
    x1 = with_ones(np.concatenate([xc, xu]))
    grads = ToyClassifier(mixed_grads(clf, x1, 6, tc, qu, 3.0, 1.0,
                                      *reference.step_buffers(clf, x1)), clf.dims)
    step = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(clf, name)
        analytic = getattr(grads, name)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = reference.mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig - step
            dn, _ = reference.mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig
            fd = (up - dn) / (2 * step)
            err = abs(analytic[idx] - fd) / max(abs(analytic[idx]), abs(fd), 1e-8)
            assert err <= 1e-4, f"{name}{idx}: analytic {analytic[idx]} vs fd {fd}"


def test_mixed_loss_matches_composed_ops():
    # the oracle's loss, which the gradient checks difference, must equal
    # the composition of the loss ops
    rng = rng_from(2)
    clf = ToyClassifier.initialize(3, 6, 4, seed=1)
    xc = rng.normal(size=(7, 3))
    tc = rng.random((7, 4))
    tc /= tc.sum(axis=1, keepdims=True)
    xu = rng.normal(size=(5, 3))
    qu = rng.random((5, 4))
    qu /= qu.sum(axis=1, keepdims=True)
    loss, _ = reference.mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
    pc = softmax_rows(reference.forward(clf, xc)[0])
    pu = softmax_rows(reference.forward(clf, xu)[0])
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
    with pytest.raises(ValueError):
        save_classifier_checkpoint(ToyClassifier.stack([clf, clf]), path)
    with pytest.raises(ValueError):
        save_flat_params(path, ToyClassifier.stack([clf, clf]))
    # headers with a dimension below 1, or not three of them, are rejected
    # at the header line
    for header in ("toyclassifier 0 0 0", "toyclassifier -1 -1 1", "toyclassifier 4 0 3",
                   "toyclassifier 4 6"):
        bad = tmp_path / "bad.txt"
        bad.write_text(header + "\n0.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_classifier_checkpoint(bad)


@pytest.mark.parametrize("text, message", [
    ("", "empty checkpoint"),
    ("mlp 2 3 2\n0.5\n", "line 1: expected 'toyclassifier' checkpoint"),
    ("toyclassifier 2 3.0 2\n0.5\n", "line 1: invalid literal for int() with base 10: '3.0'"),
    ("toyclassifier 1 1 1\n0.5\nhalf\n", "line 3: could not convert string to float: 'half'"),
], ids=["empty", "wrong-tag", "non-integer-dims", "unparsable-value"])
def test_malformed_checkpoint_is_rejected(tmp_path, text, message):
    path = tmp_path / "clf.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_classifier_checkpoint(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
def test_checkpoint_value_with_underscore_or_non_ascii_digit_is_rejected(tmp_path, value):
    path = tmp_path / "clf.txt"
    save_classifier_checkpoint(ToyClassifier.initialize(2, 3, 2, seed=1), path)
    lines = path.read_text().splitlines()
    lines[4] = value
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 5: numeric field holds"):
        load_classifier_checkpoint(path)
    # a sign, surrounding ASCII whitespace, a bare trailing dot, CRLF and
    # blank lines still load
    lines[4] = " +1. "
    path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
    assert load_classifier_checkpoint(path).flat[3] == 1.0


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_checkpoint_non_finite_value_is_rejected(tmp_path, value):
    path = tmp_path / "clf.txt"
    save_classifier_checkpoint(ToyClassifier.initialize(2, 3, 2, seed=1), path)
    lines = path.read_text().splitlines()
    lines[4] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^line 5: non-finite float value$"):
        load_classifier_checkpoint(path)


def test_checkpoint_with_wrong_parameter_count_is_rejected(tmp_path):
    path = tmp_path / "clf.txt"
    save_classifier_checkpoint(ToyClassifier.initialize(2, 3, 2, seed=1), path)
    text = path.read_text()
    for body, count in ((text + "0.5\n", 18), (text.rsplit("\n", 2)[0] + "\n", 16)):
        path.write_text(body)
        with pytest.raises(ParseError, match=f"^expected 17 parameters, got {count}$"):
            load_classifier_checkpoint(path)


def test_checkpoint_writes_each_value_as_its_repr(tmp_path):
    # orjson writes null for non-finite values; they take the repr path
    flat = np.array([0.1, -0.0, 1e16, np.nan, 5e-324, -np.inf, 1e-4])
    path = tmp_path / "p.txt"
    save_flat_params(path, ToyClassifier(flat, (1, 2, 1)))
    values = [repr(float(v)) for v in flat]
    assert path.read_text() == "\n".join(["toyclassifier 1 2 1", *values]) + "\n"


# ---------------------------------------------------------------- flat layout

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def same_view(a, b) -> bool:
    """Both arrays read the same bytes the same way."""
    return (a.__array_interface__["data"] == b.__array_interface__["data"]
            and a.shape == b.shape and a.strides == b.strides)


def test_sgd_step_moves_every_view():
    single = ToyClassifier.initialize(3, 4, 2, seed=1)
    stacked = ToyClassifier.stack([ToyClassifier.initialize(3, 4, 2, seed=s) for s in (1, 2)])
    for clf in (single, stacked):
        lead = clf.flat.shape[:-1]
        assert clf.W1.shape == lead + (4, 4) and clf.W2.shape == lead + (5, 2)
        # each bias is its augmented matrix's last row, each weight the rows above
        assert same_view(clf.w1, clf.W1[..., :-1, :]) and same_view(clf.b1, clf.W1[..., -1, :])
        assert same_view(clf.w2, clf.W2[..., :-1, :]) and same_view(clf.b2, clf.W2[..., -1, :])
        before = clf.copy()
        grads = rng_from(3).normal(size=clf.flat.shape)
        apply_sgd_step(clf, grads, 0.5)
        step = ToyClassifier(grads, clf.dims)
        for name in ("W1", "W2", *PARAM_NAMES):
            assert np.shares_memory(getattr(clf, name), clf.flat)
            np.testing.assert_array_equal(
                getattr(clf, name), getattr(before, name) - 0.5 * getattr(step, name))


def test_member_is_a_view_and_copy_shares_nothing():
    stack = ToyClassifier.stack([ToyClassifier.initialize(3, 4, 2, seed=s) for s in (1, 2, 3)])
    for m in range(3):
        member = stack.member(m)
        assert member.flat.shape == stack.flat[m].shape
        assert np.shares_memory(member.flat, stack.flat[m])
        member.w2[1, 0] = 7.0 + m
        assert stack.w2[m, 1, 0] == 7.0 + m
        member.b1[2] = -3.0 - m
        assert stack.W1[m, -1, 2] == -3.0 - m
        for name in ("W1", "W2"):
            assert same_view(getattr(member, name), getattr(stack, name)[m])
    copy = stack.copy()
    np.testing.assert_array_equal(copy.flat, stack.flat)
    for name in ("flat", "W1", "W2", *PARAM_NAMES):
        assert not np.shares_memory(getattr(copy, name), stack.flat)


def test_checkpoint_of_each_stacked_member_reloads_bit_for_bit(tmp_path):
    ds = inject_noise(generate_synthetic(SyntheticSpec(k=3, d=5, n=60, seed=1)),
                      NoiseSpec(NoiseKind.SYMMETRIC, 0.2, seed=2))
    cfg = TrainConfig(seed=4, ensemble_size=3, hidden=6, warmup_epochs=1)
    stack = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    for m in range(cfg.ensemble_size):
        path = tmp_path / f"member_{m}.txt"
        save_classifier_checkpoint(stack.member(m), path)
        assert load_classifier_checkpoint(path).flat.tobytes() == stack.flat[m].tobytes()


def test_stacked_members_match_unstacked():
    # a stack runs each member's arithmetic unchanged, bit for bit
    rng = rng_from(8)
    members = [ToyClassifier.initialize(16, 12, 10, seed=s) for s in (1, 2, 3)]
    stack = ToyClassifier.stack(members)
    xc = rng.normal(size=(3, 8, 16))
    tc = rng.random((3, 8, 10))
    tc /= tc.sum(axis=-1, keepdims=True)
    xu = rng.normal(size=(3, 8, 16))
    qu = rng.random((3, 8, 10))
    qu /= qu.sum(axis=-1, keepdims=True)
    empty_t = np.zeros((3, 0, 10))
    logits, hidden = reference.forward(stack, xc)
    x1 = with_ones(np.concatenate([xc, xu], axis=-2))
    mixed = mixed_grads(stack, x1, 8, tc, qu, 3.0, 1.0, *reference.step_buffers(stack, x1))
    plain = mixed_grads(stack, x1[:, :8], 8, tc, empty_t, 0.0, 0.0,
                        *reference.step_buffers(stack, x1[:, :8]))
    for m, clf in enumerate(members):
        logits_m, hidden_m = reference.forward(clf, xc[m])
        np.testing.assert_array_equal(logits[m], logits_m)
        np.testing.assert_array_equal(hidden[m], hidden_m)
        np.testing.assert_array_equal(mixed[m], mixed_grads(
            clf, x1[m], 8, tc[m], qu[m], 3.0, 1.0, *reference.step_buffers(clf, x1[m])))
        np.testing.assert_array_equal(plain[m], mixed_grads(
            clf, x1[m, :8], 8, tc[m], empty_t[m], 0.0, 0.0,
            *reference.step_buffers(clf, x1[m, :8])))

    x = rng.normal(size=(20, 16))
    mean_logits, mean_hidden, mean_probs = ensemble_outputs(stack, x)
    outputs = [reference.forward(clf, x) for clf in members]
    np.testing.assert_array_equal(mean_logits, sum(lg for lg, _ in outputs) / 3)
    np.testing.assert_array_equal(mean_hidden, sum(h for _, h in outputs) / 3)
    np.testing.assert_array_equal(mean_probs, sum(softmax_rows(lg) for lg, _ in outputs) / 3)


@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
def test_ensemble_outputs_fill_one_row_block_at_a_time(n, members):
    # each block's rows are that block's own forward, bit for bit: the reused
    # buffers' first block, an exact multiple of ROW_BLOCK and a partial last
    # block; against one whole-array forward only the logits kernel's last
    # bits may move
    rng = np.random.default_rng(11)
    stack = ToyClassifier.stack([ToyClassifier.initialize(16, 64, 10, seed=m)
                                 for m in range(members)])
    x = rng.normal(size=(n, 16))
    mean_logits, mean_hidden, mean_probs = ensemble_outputs(stack, x)
    for start in range(0, x.shape[0], ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        logits, hidden = reference.forward(stack, x[block])
        assert same_bits(mean_logits[block], logits.mean(axis=0))
        assert same_bits(mean_hidden[block], hidden.mean(axis=0))
        assert same_bits(mean_probs[block], softmax_rows(logits).mean(axis=0))
    # a logit that cancels to near zero keeps the kernel's absolute error,
    # so the floor is 1e-12 of the largest entry
    logits, hidden = reference.forward(stack, x)
    for got, want in ((mean_logits, logits.mean(axis=0)), (mean_hidden, hidden.mean(axis=0)),
                      (mean_probs, softmax_rows(logits).mean(axis=0))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_representation_peak_memory_is_its_outputs_plus_a_few_blocks():
    # numpy reports its buffers to tracemalloc; a whole-split (M, N, H)
    # hidden stack alone would exceed the bound
    members, d, h, k, n = 2, 16, 64, 10, 16 * ROW_BLOCK
    stack = ToyClassifier.stack([ToyClassifier.initialize(d, h, k, seed=m)
                                 for m in range(members)])
    x = np.random.default_rng(12).normal(size=(n, d))
    outputs = n * (h + 2 * k) * 8
    block = members * ROW_BLOCK * (h + 2 * k) * 8
    tracemalloc.start()
    try:
        semisup.ensemble_representation(stack, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < outputs + 4 * block


def test_epoch_peak_memory_is_its_batch_plan_plus_a_gather_chunk_and_a_few_steps():
    # the ones-column gathers and the [h | 1] workspace must not scale with
    # the epoch: a whole-epoch gather, a ones-column copy of the features or
    # an [h | 1] buffer per step of a gather chunk would each exceed the bound.
    # The batch plan is the epoch's (steps, members, rows) index arrays.
    members, d, h, k, batch = 2, 16, 64, 10, 8
    n = 16 * ROW_BLOCK
    rng = np.random.default_rng(5)
    features = rng.normal(size=(n, d))
    order = rng.permutation(n)
    targets = rng.dirichlet(np.ones(k), n // 2)
    guesses = rng.dirichlet(np.ones(k), n - n // 2)
    stack = ToyClassifier.stack([ToyClassifier.initialize(d, h, k, seed=m)
                                 for m in range(members)])
    rngs = [rng_from(1, f"m{m}") for m in range(members)]
    rows = members * 2 * batch
    plan = (n // batch) * rows * 8
    gather = (ROW_BLOCK // batch) * rows * (d + 1 + k) * 8
    step = rows * (d + 1 + h + 1) * 8 + stack.flat.nbytes
    tracemalloc.start()
    try:
        semisup._train_epoch_mixed(stack, features, order[:n // 2], targets, order[n // 2:],
                                   guesses, 3.0, 1.0, 0.04, batch, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < plan + 2 * gather + 4 * step


# ---------------------------------------------- lean steps against the oracle

def same_bits(a, b) -> bool:
    """``array_equal`` with ``equal_nan``, and the sign of every zero too."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.array_equal(np.where(np.isnan(a), 0.0, a).view(np.uint64),
                          np.where(np.isnan(b), 0.0, b).view(np.uint64))


MIXED_CASES = ("warmup", "round", "no_labeled", "p_equals_targets", "nan", "p_equals_guesses",
               "zero_lambda_u", "underflowing_lambda_r", "subnormal_target")
# the signed-zero edges of the in-place gradient that need an unlabeled group
UNLABELED_EDGES = ("p_equals_guesses", "zero_lambda_u", "underflowing_lambda_r")


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(MIXED_CASES), plain=st.booleans(), stacked=st.booleans(),
       nc=st.integers(1, 9), nu=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(case="warmup", plain=True, stacked=True, nc=8, nu=1, seed=0)
@example(case="round", plain=False, stacked=True, nc=8, nu=8, seed=1)
@example(case="no_labeled", plain=False, stacked=False, nc=1, nu=5, seed=2)
@example(case="p_equals_targets", plain=True, stacked=True, nc=6, nu=1, seed=3)
@example(case="p_equals_targets", plain=False, stacked=False, nc=6, nu=4, seed=4)
@example(case="nan", plain=True, stacked=True, nc=5, nu=1, seed=5)
@example(case="nan", plain=False, stacked=True, nc=5, nu=3, seed=6)
@example(case="p_equals_guesses", plain=True, stacked=True, nc=3, nu=6, seed=7)
@example(case="zero_lambda_u", plain=False, stacked=False, nc=4, nu=5, seed=8)
@example(case="zero_lambda_u", plain=True, stacked=True, nc=2, nu=7, seed=9)
@example(case="underflowing_lambda_r", plain=False, stacked=True, nc=5, nu=2, seed=10)
@example(case="subnormal_target", plain=False, stacked=True, nc=6, nu=6, seed=11)
@example(case="subnormal_target", plain=True, stacked=False, nc=7, nu=1, seed=12)
def test_mixed_loss_matches_zero_buffer_oracle(case, plain, stacked, nc, nu, seed):
    # "plain" asks for the warm-up shape (no unlabeled group, lambda_r = 0)
    # where the case allows it, and pairs an unlabeled-group edge with a KL
    # weight that underflows; all four gradients must carry the oracle's
    # bits, NaN positions and the sign of every zero included
    rng = np.random.default_rng(seed)
    d, hidden, k = 5, 7, 4
    if stacked:
        clf = ToyClassifier.stack([ToyClassifier.initialize(d, hidden, k, seed=seed % 97 + m)
                                   for m in range(3)])
    else:
        clf = ToyClassifier.initialize(d, hidden, k, seed=seed % 97)
    lead = (3,) if stacked else ()
    lambda_u, lambda_r = 3.0, 1.0
    if case == "no_labeled":
        nc, lambda_r = 0, float(not plain)
    elif case in UNLABELED_EDGES:
        # 0.0 times a negative p - g is -0.0, and so is a KL term of 5e-324
        lambda_u = 0.0 if case == "zero_lambda_u" else lambda_u
        lambda_r = 5e-324 if plain or case == "underflowing_lambda_r" else lambda_r
    elif case == "warmup" or (plain and case != "round"):
        nu, lambda_u, lambda_r = 0, 0.0, 0.0
    xl = rng.normal(scale=3.0, size=lead + (nc, d))
    xu = rng.normal(scale=3.0, size=lead + (nu, d))
    if case == "warmup":
        targets = np.eye(k)[rng.integers(0, k, lead + (nc,))]
    else:
        targets = rng.dirichlet(np.ones(k), lead + (nc,))
    guesses = rng.dirichlet(np.ones(k), lead + (nu,))
    if case == "subnormal_target":
        # biases far below class 0's put the other classes' probabilities
        # below the normal range (class 1), at 0 (class 3) or either (class 2)
        clf.b2[...] = [0.0, -720.0, -740.0, -760.0]
    probs = reference.softmax_rows(reference.forward(clf, np.concatenate([xl, xu], axis=-2))[0])
    if case == "p_equals_targets":
        rows = rng.random(nc) < 0.5
        targets[..., rows, :] = probs[..., :nc, :][..., rows, :]
    if case == "p_equals_guesses":
        rows = rng.random(nu) < 0.5
        guesses[..., rows, :] = probs[..., nc:, :][..., rows, :]
    if case == "subnormal_target":
        # one subnormal step above p, p - t is -5e-324, and its quotient by
        # nc > 1 the -0.0 cross-entropy term; p * (gp - s) is -0.0 where p is 0
        p = probs[..., :nc, :]
        targets = np.where(p < 1e-300, np.nextafter(p, np.inf), targets)
    if case == "nan":
        for arr in (xl, targets, xu):
            if arr.size:
                arr.reshape(-1)[rng.integers(arr.size)] = np.nan
    with np.errstate(all="ignore"):
        x1 = with_ones(np.concatenate([xl, xu], axis=-2))
        grads = mixed_grads(clf, x1, nc, targets, guesses, lambda_u, lambda_r,
                            *reference.step_buffers(clf, x1))
        _, want_grads = reference.mixed_loss_and_grads(
            clf, xl, targets, xu, guesses, lambda_u, lambda_r)
    grads = ToyClassifier(grads, clf.dims)
    for name in ("w1", "b1", "w2", "b2"):
        assert same_bits(getattr(grads, name), want_grads[name]), name


def test_warmup_and_rounds_match_per_step_gather_oracle(monkeypatch):
    # warm-up steps take the plain cross-entropy branch, round steps the
    # general one, with and without the lambda_r term; every checkpoint and
    # partition must equal the oracle loop's
    ds = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=6, n=300, seed=2)),
                      NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=4))
    cfg = TrainConfig(seed=5, warmup_epochs=2, batch_size=7)
    no_reg = TrainConfig(seed=5, warmup_epochs=2, batch_size=7, lambda_r=0.0)

    def run():
        ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
        first, first_distilled = distill_round(ens, ds, cfg, DistillParams(), round_index=0)
        second, second_distilled = distill_round(first, ds, no_reg, DistillParams(),
                                                 round_index=1)
        return [ens, first, second], [first_distilled.partition, second_distilled.partition]

    got_nets, got_parts = run()
    monkeypatch.setattr(semisup, "_train_epoch_mixed", reference.train_epoch_mixed)
    want_nets, want_parts = run()
    for got, want in zip(got_nets, want_nets):
        assert same_bits(got.flat, want.flat)
    for got, want in zip(got_parts, want_parts):
        assert np.array_equal(got.codes, want.codes)


def test_stages_write_nothing_they_are_given():
    # each stage trains a copy, and a round reads the previous round's pass
    # (its partition, meta net, table and mixtures) without writing to it
    ds = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=6, n=300, seed=2)),
                      NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=4))
    cfg = TrainConfig(seed=5, warmup_epochs=2, batch_size=7)
    no_reg = TrainConfig(seed=5, warmup_epochs=2, batch_size=7, lambda_r=0.0)
    start = make_ensemble(ds.feature_dim, ds.num_classes, cfg)
    start_bits = start.flat.tobytes()
    ens = warmup(start, ds, cfg)
    assert start.flat.tobytes() == start_bits
    first, distilled = distill_round(ens, ds, cfg, DistillParams(), round_index=0)
    assert distilled.meta_net is not None and distilled.mixtures
    given = [first.flat, distilled.partition.codes, distilled.meta_net.flat,
             *(getattr(distilled.table, f.name) for f in fields(distilled.table))]
    for g in distilled.mixtures.values():
        given += [g.weights, g.means, g.variances, g.log_likelihoods]
    bits = [a.tobytes() for a in given]
    distill_round(first, ds, no_reg, DistillParams(), round_index=1, previous=distilled)
    assert [a.tobytes() for a in given] == bits


def test_steps_fill_and_return_the_gradient_buffer_they_are_given():
    # the trainers reuse one [h | 1] and one gradient network for every step
    # of an epoch: a step returns the very flat it was given, and leaves the
    # ones column of its h1 at 1.0
    rng = rng_from(9)
    stack = ToyClassifier.stack([ToyClassifier.initialize(5, 7, 4, seed=m) for m in range(2)])
    x1 = with_ones(rng.normal(size=(2, 9, 5)))
    targets, guesses = rng.dirichlet(np.ones(4), (2, 6)), rng.dirichlet(np.ones(4), (2, 3))
    meta = ToyClassifier.initialize(2, 4, 1, seed=3)
    mx1 = with_ones(rng.random((16, 2)))
    steps = [(stack, x1, lambda *ws: mixed_grads(stack, x1, 6, targets, guesses, 3.0, 1.0, *ws)),
             (stack, x1[:, :6], lambda *ws: mixed_grads(stack, x1[:, :6], 6, targets,
                                                         guesses[:, :0], 0.0, 0.0, *ws)),
             (meta, mx1, lambda *ws: meta_grads(meta, mx1, rng.random(16).round(), *ws))]
    for net, batch, step in steps:
        h1, grads = reference.step_buffers(net, batch)
        assert step(h1, grads) is grads.flat
        assert (h1[..., :-1] != 1.0).any() and (h1[..., -1] == 1.0).all()


def check_epoch_against_per_step_gather_oracle(n_lab, n_unl):
    """One epoch of 23 labeled and 17 unlabeled rows, cut to the first
    ``n_lab`` and ``n_unl``, must move the nets and the generators exactly
    as the oracle does."""
    rng = np.random.default_rng(7)
    d, k, members = 5, 4, 2
    features = rng.normal(size=(40, d))
    order = rng.permutation(40)
    lab_ids, unl_ids = order[:23][:n_lab], order[23:][:n_unl]
    targets = rng.dirichlet(np.ones(k), 23)[:n_lab]
    guesses = rng.dirichlet(np.ones(k), 17)[:n_unl]
    start = ToyClassifier.stack([ToyClassifier.initialize(d, 6, k, seed=m)
                                 for m in range(members)])
    nets, states = [], []
    for epoch in (semisup._train_epoch_mixed, reference.train_epoch_mixed):
        net = start.copy()
        rngs = [rng_from(3, f"m{m}") for m in range(members)]
        epoch(net, features, lab_ids, targets, unl_ids, guesses, 3.0, 1.0, 0.05, 6, rngs)
        nets.append(net)
        states.append([r.bit_generator.state for r in rngs])
    assert same_bits(nets[0].flat, nets[1].flat)
    assert not same_bits(nets[0].flat, start.flat)
    assert states[0] == states[1]


@pytest.mark.parametrize("empty", ["labeled", "unlabeled"])
def test_epoch_with_an_empty_group_matches_per_step_gather_oracle(empty):
    # the empty group draws nothing from the members' generators and adds
    # no rows to any step; the other group's batches cycle as usual
    check_epoch_against_per_step_gather_oracle(*((0, 17) if empty == "labeled" else (23, 0)))


@pytest.mark.parametrize("row_block", [16, 4])
def test_epoch_across_gather_chunks_matches_per_step_gather_oracle(monkeypatch, row_block):
    # ROW_BLOCK // batch_size steps are gathered at a time: 16 rows give
    # chunks of two steps and a short last one, 4 (below the batch) one step
    monkeypatch.setattr(semisup, "ROW_BLOCK", row_block)
    check_epoch_against_per_step_gather_oracle(23, 17)


# --------------------------------------------------------------------- warmup

def noiseless_data(n=1000, spread=0.05, seed=6):
    return generate_synthetic(SyntheticSpec(k=10, d=16, n=n, cluster_spread=spread, seed=seed))


def test_warmup_zero_epochs_identity():
    ds = noiseless_data(n=100)
    cfg = TrainConfig(seed=0, warmup_epochs=0)
    ens = make_ensemble(ds.feature_dim, ds.num_classes, cfg)
    out = warmup(ens, ds, cfg)
    for m in range(cfg.ensemble_size):
        np.testing.assert_array_equal(ens.w1[m], out.w1[m])
        np.testing.assert_array_equal(ens.b2[m], out.b2[m])


def test_warmup_learns_separable_data():
    ds = noiseless_data()
    cfg = TrainConfig(seed=3)
    ens = make_ensemble(ds.feature_dim, ds.num_classes, cfg)
    ens = warmup(ens, ds, cfg)
    _, _, probs = ensemble_outputs(ens, ds.features)
    train_acc = (probs.argmax(axis=1) == ds.true_labels).mean()
    assert train_acc > 0.9


def test_warmup_deterministic():
    ds = noiseless_data(n=200)
    cfg = TrainConfig(seed=3, warmup_epochs=2)
    a = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    b = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    for m in range(cfg.ensemble_size):
        np.testing.assert_array_equal(a.w1[m], b.w1[m])
        np.testing.assert_array_equal(a.w2[m], b.w2[m])


def test_warmup_members_distinct():
    ds = noiseless_data(n=200)
    cfg = TrainConfig(seed=3, warmup_epochs=1)
    ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    assert not np.array_equal(ens.w1[0], ens.w1[1])


# -------------------------------------------------------------- distill rounds

def rate_matched_params(rate):
    return DistillParams(
        loss_strategy=ThresholdStrategy.percentile(rate),
        sim_strategy=ThresholdStrategy.percentile(rate),
        fuse_strategy=ThresholdStrategy.fixed(rate))


def test_distill_round_zero_noise_keeps_almost_everything():
    ds = generate_synthetic(SyntheticSpec(k=10, d=16, n=2000, seed=3))
    cfg = TrainConfig(seed=5)
    ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    _, distilled = distill_round(ens, ds, cfg, rate_matched_params(0.0), round_index=0)
    assert distilled.partition.clean_ids.size >= 0.95 * ds.n


def test_distill_round_f1_does_not_degrade(benchmark40):
    train, _, _, _ = split_dataset(benchmark40, 0.2, 1)
    rate = float((train.noisy_labels != train.true_labels).mean())
    cfg = TrainConfig(seed=1)
    ens = warmup(make_ensemble(train.feature_dim, train.num_classes, cfg), train, cfg)
    f1s = []
    for r in range(3):
        ens, distilled = distill_round(ens, train, cfg, rate_matched_params(rate), round_index=r)
        f1s.append(selection_metrics(distilled.partition.clean_ids, train.clean_mask).f1)
    assert f1s[2] >= f1s[0] - 0.02


def test_distill_round_deterministic():
    ds = generate_synthetic(SyntheticSpec(k=5, d=8, n=600, seed=2))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=4))
    cfg = TrainConfig(seed=5, warmup_epochs=3)
    runs = []
    for _ in range(2):
        ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
        runs.append(distill_round(ens, ds, cfg, DistillParams(), round_index=0))
    parts = [distilled.partition for _, distilled in runs]
    np.testing.assert_array_equal(parts[0].clean_ids, parts[1].clean_ids)
    np.testing.assert_array_equal(parts[0].positive_ids, parts[1].positive_ids)
    for m in range(cfg.ensemble_size):
        np.testing.assert_array_equal(runs[0][0].w1[m], runs[1][0].w1[m])


def test_check_alive_names_the_member_past_the_limit():
    ens = make_ensemble(4, 3, TrainConfig(seed=1))
    x = rng_from(2).standard_normal((30, 4))
    semisup._check_alive(ens, x, "warm-up")
    ens.w2[1] *= 10 * semisup.MAX_ACTIVATION
    with pytest.raises(NumericalError, match="member 1 diverged after warm-up"):
        semisup._check_alive(ens, x, "warm-up")
    ens.w2[1] = np.nan
    with pytest.raises(NumericalError, match="member 1 .* nan exceeds"):
        semisup._check_alive(ens, x, "round 0")
    semisup._check_alive(ens, x[:0], "warm-up")  # no rows, nothing to check
    # the only diverged row lies in a partial last block
    ens = make_ensemble(4, 3, TrainConfig(seed=1))
    split = rng_from(3).standard_normal((ROW_BLOCK + 5, 4))
    split[-2] *= 1e8
    semisup._check_alive(ens, split[:ROW_BLOCK], "round 2")
    with pytest.raises(NumericalError, match="member 0 diverged after round 2"):
        semisup._check_alive(ens, split, "round 2")


def test_distill_round_raises_when_members_diverge():
    ds = generate_synthetic(SyntheticSpec(k=5, d=8, n=600, seed=2))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=4))
    cfg = TrainConfig(seed=5, warmup_epochs=3)
    ens = warmup(make_ensemble(ds.feature_dim, ds.num_classes, cfg), ds, cfg)
    hot = TrainConfig(seed=5, warmup_epochs=3, lr=100.0)
    with pytest.raises(NumericalError, match="diverged after round 0"):
        distill_round(ens, ds, hot, DistillParams(), round_index=0)
    # a step that overflows is caught in the epoch, under the round's name
    overflowing = TrainConfig(seed=5, warmup_epochs=3, lr=1e20)
    with pytest.raises(NumericalError, match="training diverged during round 2: overflow"):
        distill_round(ens, ds, overflowing, DistillParams(), round_index=2)


def test_warmup_checks_its_own_ensemble_whatever_rounds_is():
    # on this table a warm-up at lr=100 ends diverged without a float error;
    # warmup raises itself, though it leaves the rounds to its caller
    ds = generate_synthetic(SyntheticSpec(k=5, d=8, n=600, seed=2))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=4))
    hot = TrainConfig(seed=5, warmup_epochs=3, lr=100.0)
    assert hot.rounds > 0
    with pytest.raises(NumericalError, match="diverged after warm-up"):
        warmup(make_ensemble(ds.feature_dim, ds.num_classes, hot), ds, hot)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(ensemble_size=0)
    for name in ("lambda_u", "lambda_r"):
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(**{name: -3.0})
        TrainConfig(**{name: 0.0})


def test_softmax_rows_distribution():
    rng = rng_from(0)
    probs = softmax_rows(rng.normal(size=(40, 7)) * 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert (probs >= 0).all()
