"""Two-layer rectifier MLP: the toy ensemble's members and the meta net.

Exposes both logits and the last hidden activations; the latter play the
role of the feature embedding when scoring with a live model. Parameters
may carry a leading member axis, ``w1 (M, D, H)``, ``b1 (M, H)``,
``w2 (M, H, K)``, ``b2 (M, K)``, in which case inputs are ``(M, n, D)``
stacks (or one ``(n, D)`` batch shared by every member) and every output
gains the same leading axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoints import load_flat_params, save_flat_params
from .errors import ParseError
from .seeding import rng_from

_CHECKPOINT_TAG = "toyclassifier"
_PROB_CLAMP = 1e-7


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ToyClassifier:
    w1: np.ndarray  # ([M,] D, H)
    b1: np.ndarray  # ([M,] H)
    w2: np.ndarray  # ([M,] H, K)
    b2: np.ndarray  # ([M,] K)

    @classmethod
    def initialize(cls, input_dim: int, hidden: int, num_classes: int, seed: int = 0) -> "ToyClassifier":
        """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
        rng = rng_from(seed)
        lim1 = 1.0 / np.sqrt(input_dim)
        lim2 = 1.0 / np.sqrt(hidden)
        return cls(
            w1=rng.uniform(-lim1, lim1, size=(input_dim, hidden)),
            b1=rng.uniform(-lim1, lim1, size=hidden),
            w2=rng.uniform(-lim2, lim2, size=(hidden, num_classes)),
            b2=rng.uniform(-lim2, lim2, size=num_classes),
        )

    @classmethod
    def stack(cls, members: list["ToyClassifier"]) -> "ToyClassifier":
        """One model whose parameters gain a leading member axis."""
        return cls(*(np.stack(group) for group in zip(*(m.params for m in members))))

    @property
    def params(self) -> tuple[np.ndarray, ...]:
        return self.w1, self.b1, self.w2, self.b2

    @property
    def input_dim(self) -> int:
        return self.w1.shape[-2]

    @property
    def hidden(self) -> int:
        return self.w1.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[-1]

    def member(self, m: int) -> "ToyClassifier":
        """Member ``m`` of a stacked model, as a view."""
        return ToyClassifier(*(p[m] for p in self.params))

    def copy(self) -> "ToyClassifier":
        return ToyClassifier(*(p.copy() for p in self.params))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (logits, hidden activations) for a ([M,] n, D) batch."""
        h = np.asarray(x, dtype=np.float64) @ self.w1
        h += self.b1[..., None, :]
        np.maximum(h, 0.0, out=h)
        logits = h @ self.w2
        logits += self.b2[..., None, :]
        return logits, h

    def probs(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(x)
        return softmax_rows(logits)


def ensemble_outputs(ensemble: ToyClassifier, x: np.ndarray):
    """Member-averaged (logits, hidden activations, softmax probabilities)."""
    logits, hidden = ensemble.forward(x)
    return logits.mean(axis=0), hidden.mean(axis=0), softmax_rows(logits).mean(axis=0)


def _backward(net: ToyClassifier, x: np.ndarray, h: np.ndarray, dlogits: np.ndarray) -> dict:
    """Parameter gradients given the loss gradient at the logits."""
    dz1 = (dlogits @ net.w2.swapaxes(-1, -2)) * (h > 0)
    return {
        "w2": h.swapaxes(-1, -2) @ dlogits,
        "b2": dlogits.sum(axis=-2),
        "w1": x.swapaxes(-1, -2) @ dz1,
        "b1": dz1.sum(axis=-2),
    }


def mixed_loss_and_grads(
    clf: ToyClassifier,
    x_labeled: np.ndarray, targets: np.ndarray,
    x_unlabeled: np.ndarray, guesses: np.ndarray,
    lambda_u: float, lambda_r: float,
):
    """Total loss and analytic gradients for one mixed batch.

    Loss = cross-entropy on the labeled group + lambda_u * mean squared
    error on the unlabeled group + lambda_r * KL(uniform || mean batch
    prediction). Either group may be empty. For a stacked model the batches
    are ``(M, n, ·)`` stacks and the loss is one value per member. A plain
    cross-entropy batch (no unlabeled group, lambda_r = 0) skips the
    probability-space terms, which are exactly zero there.
    """
    nc, nu = x_labeled.shape[-2], x_unlabeled.shape[-2]
    n_all = nc + nu
    if n_all == 0:
        raise ValueError("both batch groups are empty")
    if nc and nu:
        x = np.concatenate([x_labeled, x_unlabeled], axis=-2).astype(np.float64, copy=False)
    elif nc:
        x = np.asarray(x_labeled, dtype=np.float64)
    else:
        x = np.asarray(x_unlabeled, dtype=np.float64)
    logits, h = clf.forward(x)
    p = softmax_rows(logits)
    k = clf.num_classes
    rows = (-2, -1)

    loss = 0.0
    if nc:
        pc = np.maximum(p[..., :nc, :], _PROB_CLAMP)
        loss += -(targets * np.log(pc)).sum(axis=rows) / nc
        if not nu and not lambda_r:
            return loss, _backward(clf, x, h, (p - targets) / nc)

    dlogits = np.zeros_like(p)
    # gradient of terms that act through the probabilities
    gp = np.zeros_like(p)
    if nc:
        dlogits[..., :nc, :] += (p[..., :nc, :] - targets) / nc
    if nu:
        diff = p[..., nc:, :] - guesses
        loss += lambda_u * ((diff * diff).sum(axis=rows) / nu)
        gp[..., nc:, :] += lambda_u * 2.0 * diff / nu
    if lambda_r:
        mean_pred = p.sum(axis=-2, keepdims=True) / n_all
        clipped = np.maximum(mean_pred, _PROB_CLAMP)
        uniform = 1.0 / k
        loss += lambda_r * (uniform * (np.log(uniform) - np.log(clipped))).sum(axis=rows)
        gp += lambda_r * (-uniform / clipped) / n_all

    # softmax Jacobian-vector product, per row
    dlogits += p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    return loss, _backward(clf, x, h, dlogits)


def apply_sgd_step(clf: ToyClassifier, grads: dict, lr: float) -> None:
    clf.w1 -= lr * grads["w1"]
    clf.b1 -= lr * grads["b1"]
    clf.w2 -= lr * grads["w2"]
    clf.b2 -= lr * grads["b2"]


def save_classifier_checkpoint(clf: ToyClassifier, path: str | Path) -> None:
    if clf.w1.ndim != 2:
        raise ValueError("a checkpoint holds one network; save stacked members one at a time")
    save_flat_params(path, _CHECKPOINT_TAG,
                     (clf.input_dim, clf.hidden, clf.num_classes), list(clf.params))


def load_classifier_checkpoint(path: str | Path) -> ToyClassifier:
    def shapes_of(dims):
        if len(dims) != 3:
            raise ParseError(f"expected dimensions D H K, got {dims}", line=1)
        d, h, k = dims
        return [(d, h), (h,), (h, k), (k,)]

    _, arrays = load_flat_params(path, _CHECKPOINT_TAG, shapes_of)
    return ToyClassifier(*arrays)
