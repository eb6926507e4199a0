"""Meta purification: fuse dual-space posteriors and re-judge uncertain samples.

A two-layer MLP is trained on the certain set (positives labeled 1,
negatives 0) to map a posterior pair to a single fused score, which then
splits the uncertain set with an accept and a reject threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import load_flat_params, save_flat_params
from .division import Partition
from .errors import MetaStarved, NumericalError
from .scores import ScoreTable
from .seeding import rng_from

_PRED_CLAMP = 1e-7
_CHECKPOINT_TAG = "metanet"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class MetaNet:
    """Two-layer MLP: rectifier hidden layer, logistic sigmoid output."""

    w1: np.ndarray  # (2, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H,)
    b2: np.ndarray  # (1,)

    @classmethod
    def initialize(cls, hidden: int = 10, seed: int = 0) -> "MetaNet":
        """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
        rng = rng_from(seed)
        lim1 = 1.0 / np.sqrt(2.0)
        lim2 = 1.0 / np.sqrt(hidden)
        return cls(
            w1=rng.uniform(-lim1, lim1, size=(2, hidden)),
            b1=rng.uniform(-lim1, lim1, size=hidden),
            w2=rng.uniform(-lim2, lim2, size=hidden),
            b2=rng.uniform(-lim2, lim2, size=1),
        )

    @property
    def hidden(self) -> int:
        return self.b1.shape[0]

    def copy(self) -> "MetaNet":
        return MetaNet(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Fused scores for a (n, 2) batch of posterior pairs."""
        x = np.asarray(inputs, dtype=np.float64)
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        return _sigmoid(hidden @ self.w2 + self.b2[0])

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


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
    min_delta: float = 1e-4

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def build_meta_dataset(partition: Partition, table: ScoreTable) -> MetaDataset:
    """Certain-set records: positives labeled 1, negatives 0, in that order.

    Inputs are the stored posteriors, passed through unchanged.
    """
    if partition.positive_ids.size == 0 or partition.negative_ids.size == 0:
        raise MetaStarved(
            f"certain set has {partition.positive_ids.size} positives and "
            f"{partition.negative_ids.size} negatives")
    ids = np.concatenate([partition.positive_ids, partition.negative_ids])
    inputs = np.column_stack([table.posterior_loss[ids], table.posterior_sim[ids]])
    labels = np.concatenate([
        np.ones(partition.positive_ids.size),
        np.zeros(partition.negative_ids.size),
    ])
    return MetaDataset(inputs=inputs, labels=labels)


def _mean_bce(preds: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(preds, _PRED_CLAMP, 1.0 - _PRED_CLAMP)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())


def meta_loss_and_grads(net: MetaNet, inputs: np.ndarray, labels: np.ndarray):
    """Mean BCE over the batch plus analytic parameter gradients."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    z1 = x @ net.w1 + net.b1
    h = np.maximum(z1, 0.0)
    p = _sigmoid(h @ net.w2 + net.b2[0])
    loss = _mean_bce(p, y)
    dz2 = (p - y) / x.shape[0]
    grads = {
        "w2": h.T @ dz2,
        "b2": np.array([dz2.sum()]),
    }
    dh = np.outer(dz2, net.w2)
    dz1 = dh * (z1 > 0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def train_meta(net: MetaNet, data: MetaDataset, config: MetaTrainConfig) -> MetaNet:
    """Mini-batch SGD with seeded shuffling; keeps the lowest-BCE state seen.

    Early-stops after ``patience`` epochs without an improvement of at
    least ``min_delta`` in the full-data training BCE.
    """
    if data.n == 0:
        raise ValueError("meta dataset is empty")
    rng = rng_from(config.seed, "meta-shuffle")
    net = net.copy()
    best = net.copy()
    best_loss = _mean_bce(net.forward(data.inputs), data.labels)
    stale = 0
    for _ in range(config.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads = meta_loss_and_grads(net, data.inputs[batch], data.labels[batch])
            if not np.isfinite(loss):
                raise NumericalError(f"meta training produced non-finite loss {loss}")
            net.w1 -= config.lr * grads["w1"]
            net.b1 -= config.lr * grads["b1"]
            net.w2 -= config.lr * grads["w2"]
            net.b2 -= config.lr * grads["b2"]
        epoch_loss = _mean_bce(net.forward(data.inputs), data.labels)
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"meta training produced non-finite loss {epoch_loss}")
        if epoch_loss < best_loss - config.min_delta:
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


def fuse_scores(net: MetaNet, table: ScoreTable) -> ScoreTable:
    """Fused score for every sample, certain-set members included.

    Samples with a missing posterior in either space fuse to NaN and are
    later routed to the noisy side by :func:`purify`.
    """
    pairs = np.column_stack([table.posterior_loss, table.posterior_sim])
    return replace(table, fused=net.forward(pairs))


def purify(table: ScoreTable, partition: Partition,
           accept_threshold: float, reject_threshold: float) -> Partition:
    """Split the uncertain set by fused score and assemble the final sets.

    Uncertain members with fused >= accept join the clean set, <= reject
    join the noisy set, and the open band in between is dropped (empty when
    the thresholds coincide). Members whose fused score is NaN cannot be
    judged and fall to the noisy side. Certain assignments are never
    overturned.
    """
    if accept_threshold < reject_threshold:
        raise ValueError("accept threshold must be >= reject threshold")
    su = partition.uncertain_ids
    fused = table.fused[su]
    finite = np.isfinite(fused)
    with np.errstate(invalid="ignore"):
        promoted = su[finite & (fused >= accept_threshold)]
        demoted = su[~finite | (fused <= reject_threshold)]
    dropped = np.setdiff1d(su, np.union1d(promoted, demoted))
    # accept == reject can put a fused value in both sets; accept wins
    demoted = np.setdiff1d(demoted, promoted)
    return replace(
        partition,
        clean_ids=np.union1d(partition.positive_ids, promoted),
        noisy_ids=np.union1d(partition.negative_ids, demoted),
        dropped_ids=dropped,
    )


def save_meta_checkpoint(net: MetaNet, path: str | Path) -> None:
    save_flat_params(path, _CHECKPOINT_TAG, (2, net.hidden), net.params())


def load_meta_checkpoint(path: str | Path) -> MetaNet:
    def shapes_of(dims):
        if len(dims) != 2 or dims[0] != 2:
            raise ValueError(f"bad meta checkpoint dims {dims}")
        h = dims[1]
        return [(2, h), (h,), (h,), (1,)]

    _, arrays = load_flat_params(path, _CHECKPOINT_TAG, shapes_of)
    return MetaNet(*arrays)
