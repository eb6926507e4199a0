"""Meta purification: fuse dual-space posteriors and re-judge uncertain samples.

A two-layer MLP (a :class:`ToyClassifier` with two inputs and one logistic
output) is trained on the certain set (positives labeled 1, negatives 0) to
map a posterior pair to a single fused score, which then splits the
uncertain set with an accept and a reject threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classifier import (PROB_CLAMP, ToyClassifier, apply_sgd_step, backward_folded,
                         ones_column_buffer, trap_divergence, with_ones)
from .division import Partition, Tag
from .errors import MetaStarved, check_fields
from .scores import ScoreTable
from .seeding import rng_from

# An epoch's training-set BCE must fall by more than this to reset early stopping.
MIN_DELTA = 1e-4
# Meta training reads a seeded uniform subsample of at most this many pairs.
# At fixed thresholds the certain set is linearly separable, so a net of a
# few dozen parameters learns no more from 85k pairs than from 8k.
MAX_PAIRS = 8192


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: exp(-z) for z >= 0, exp(z) below. The
    # minimum form of -|z| also keeps the sign bit of a NaN input.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def meta_scores(net: ToyClassifier, pairs: np.ndarray) -> np.ndarray:
    """Fused scores for a (n, 2) array of posterior pairs, forwarded through
    :meth:`ToyClassifier.forward_blocks`: the hidden layer never spans the
    array, and each score has the bits of a whole-array call. A NaN pair scores NaN."""
    scores = np.empty(pairs.shape[0])
    for rows, logits, _ in net.forward_blocks(pairs):
        scores[rows] = _sigmoid(logits[:, 0])
    return scores


@dataclass(frozen=True)
class MetaDataset:
    """Posterior pairs with binary cleanliness labels from the certain set."""

    inputs: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) in {0.0, 1.0}

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class MetaTrainConfig:
    lr: float = 0.2
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        check_fields(self, ("lr",), math.isfinite, "must be finite")
        check_fields(self, ("lr",), lambda v: v > 0, "must be positive")
        check_fields(self, ("epochs", "patience", "batch_size"), lambda v: v >= 1, "must be >= 1")


def build_meta_dataset(partition: Partition, table: ScoreTable) -> MetaDataset:
    """Certain-set records: positives labeled 1, negatives 0, in that order.

    Inputs are the stored posteriors, passed through unchanged.
    """
    if partition.positive_ids.size == 0 or partition.negative_ids.size == 0:
        raise MetaStarved(
            f"certain set has {partition.positive_ids.size} positives and "
            f"{partition.negative_ids.size} negatives")
    ids = np.concatenate([partition.positive_ids, partition.negative_ids])
    inputs = table.posteriors[ids]
    labels = np.concatenate([
        np.ones(partition.positive_ids.size),
        np.zeros(partition.negative_ids.size),
    ])
    return MetaDataset(inputs=inputs, labels=labels)


def _mean_bce(preds: np.ndarray, labels: np.ndarray) -> float:
    p = np.minimum(np.maximum(preds, PROB_CLAMP), 1.0 - PROB_CLAMP)
    terms = labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
    return float(-(terms.sum() / terms.size))


def meta_grads(net: ToyClassifier, x1: np.ndarray, labels: np.ndarray,
               h1: np.ndarray, grads: ToyClassifier) -> np.ndarray:
    """Analytic parameter gradients of the mean BCE over the batch, as ``grads.flat``.

    ``x1`` is the (n, 3) batch of posterior pairs ending in a ones column and
    ``labels`` its (n,) float64 labels; ``h1`` and ``grads`` are the caller's
    workspaces for :meth:`ToyClassifier.forward_folded` and :func:`backward_folded`.
    """
    logits, h1 = net.forward_folded(x1, h1)
    p = _sigmoid(logits[:, 0])
    return backward_folded(net, x1, h1, ((p - labels) / x1.shape[0])[:, None], grads)


# bench/tracing.py counts meta steps at this name
meta_loss_and_grads = meta_grads


def train_meta(net: ToyClassifier, data: MetaDataset, config: MetaTrainConfig) -> ToyClassifier:
    """Mini-batch SGD with seeded shuffling; keeps the lowest-BCE state seen.

    A dataset of more than ``MAX_PAIRS`` pairs is first replaced by a seeded
    uniform subsample of ``MAX_PAIRS`` of them, drawn without replacement;
    a smaller one is used whole. The ones column is appended to the pairs
    once, and the steps share their workspaces. Early-stops after
    ``patience`` epochs without an improvement of at least ``MIN_DELTA`` in
    the training BCE.
    Raises NumericalError when a step overflows or turns invalid.
    """
    if data.n == 0:
        raise ValueError("meta dataset is empty")
    if data.n > MAX_PAIRS:
        keep = rng_from(config.seed, "meta-sample").choice(data.n, MAX_PAIRS, replace=False)
        data = MetaDataset(inputs=data.inputs[keep], labels=data.labels[keep])
    rng = rng_from(config.seed, "meta-shuffle")
    pairs1 = with_ones(data.inputs)
    h1 = ones_column_buffer((min(config.batch_size, data.n), net.dims[1] + 1))
    grads = ToyClassifier(np.empty(net.flat.shape), net.dims)
    net = net.copy()
    best = net.copy()
    best_loss = _mean_bce(meta_scores(net, data.inputs), data.labels)
    stale = 0
    with trap_divergence("meta training"):
        for _ in range(config.epochs):
            order = rng.permutation(data.n)
            inputs, labels = pairs1[order], data.labels[order]
            for start in range(0, data.n, config.batch_size):
                batch = slice(start, start + config.batch_size)
                x1 = inputs[batch]
                step = meta_loss_and_grads(net, x1, labels[batch], h1[:x1.shape[0]], grads)
                apply_sgd_step(net, step, config.lr)
            epoch_loss = _mean_bce(meta_scores(net, data.inputs), data.labels)
            if epoch_loss < best_loss - MIN_DELTA:
                stale = 0
            else:
                stale += 1
            if epoch_loss < best_loss:
                best_loss = epoch_loss
                best = net.copy()
            if stale >= config.patience:
                break
    return best


def weighted_average_baseline(posterior_loss, posterior_sim, lam: float):
    """Fixed-weight fusion lam * P_loss + (1 - lam) * P_sim."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return lam * np.asarray(posterior_loss, dtype=np.float64) \
        + (1.0 - lam) * np.asarray(posterior_sim, dtype=np.float64)


def fuse_scores(net: ToyClassifier, table: ScoreTable) -> ScoreTable:
    """Fused score for every sample, certain-set members included: the
    :func:`meta_scores` of its posterior pair. Samples with a missing
    posterior in either space fuse to NaN and are later routed to the noisy
    side by :func:`purify`."""
    return replace(table, fused=meta_scores(net, table.posteriors))


def purify(table: ScoreTable, partition: Partition,
           accept_threshold: float, reject_threshold: float) -> Partition:
    """Split the uncertain set by fused score and assemble the final sets.

    Uncertain members with fused >= accept join the clean set, <= reject
    join the noisy set, and the open band in between is dropped (empty when
    the thresholds coincide). Members whose fused score is NaN cannot be
    judged and fall to the noisy side at any thresholds; a population with
    no finite fused score resolves to a NaN cutoff and goes there whole.
    Certain assignments are never overturned.
    """
    if accept_threshold < reject_threshold:
        raise ValueError("accept threshold must be >= reject threshold")
    su = partition.uncertain_ids
    fused = table.fused[su]
    finite = np.isfinite(fused)
    with np.errstate(invalid="ignore"):
        accept = finite & (fused >= accept_threshold)
        reject = ~finite | (fused <= reject_threshold)
    codes = partition.codes.copy()
    # accept == reject can put a fused value on both sides; accept wins
    codes[su] = np.where(accept, Tag.C, np.where(reject, Tag.UN, Tag.DROPPED))
    return Partition(codes)
