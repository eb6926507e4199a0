"""Two-layer rectifier MLP: the toy ensemble's members and the meta net.

Exposes both logits and the last hidden activations; the latter play the
role of the feature embedding when scoring with a live model. A network is
one float64 buffer ``flat`` of ``P = D*H + H + H*K + K`` values plus its
dimensions ``(D, H, K)``. ``w1 (D, H)``, ``b1 (H,)``, ``w2 (H, K)`` and
``b2 (K,)`` are views of it, laid out row-major one after another, the
order a checkpoint stores them in. Gradients come back as one array in the
same layout, so an SGD step is one subtraction. A stacked model's buffer
has a leading member axis, ``flat (M, P)``; its inputs are ``(M, n, D)``
stacks (or one ``(n, D)`` batch shared by every member) and every output
gains the same leading axis.
"""
from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .checkpoints import load_flat_params, save_flat_params
from .data import ROW_BLOCK
from .errors import NumericalError, ParseError
from .seeding import rng_from

_CHECKPOINT_TAG = "toyclassifier"
# Floor on a probability before its log (metanet's BCE) or the log's derivative.
PROB_CLAMP = 1e-7


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _block_sizes(dims: tuple[int, int, int]) -> tuple[int, int, int, int]:
    d, h, k = dims
    return d * h, h, h * k, k


class ToyClassifier:
    """``flat`` ([M,] P) with views ``w1``, ``b1``, ``w2``, ``b2`` into it."""

    def __init__(self, flat: np.ndarray, dims: tuple[int, int, int]):
        d, h, k = self.dims = tuple(dims)
        sizes = _block_sizes(self.dims)
        if flat.shape[-1:] != (sum(sizes),):
            raise ValueError(f"dimensions {self.dims} need {sum(sizes)} parameters, "
                             f"got shape {flat.shape}")
        self.flat = flat
        lead = flat.shape[:-1]
        ends = np.cumsum(sizes).tolist()
        self.w1 = flat[..., :ends[0]].reshape(*lead, d, h)
        self.b1 = flat[..., ends[0]:ends[1]]
        self.w2 = flat[..., ends[1]:ends[2]].reshape(*lead, h, k)
        self.b2 = flat[..., ends[2]:]

    @classmethod
    def initialize(cls, input_dim: int, hidden: int, num_classes: int, seed: int = 0) -> "ToyClassifier":
        """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
        rng = rng_from(seed)
        dims = (input_dim, hidden, num_classes)
        lims = (1.0 / np.sqrt(input_dim),) * 2 + (1.0 / np.sqrt(hidden),) * 2
        return cls(np.concatenate([rng.uniform(-lim, lim, size=size)
                                   for lim, size in zip(lims, _block_sizes(dims))]), dims)

    @classmethod
    def stack(cls, members: list["ToyClassifier"]) -> "ToyClassifier":
        """One model whose parameters gain a leading member axis."""
        return cls(np.stack([m.flat for m in members]), members[0].dims)

    @property
    def num_classes(self) -> int:
        return self.dims[2]

    def member(self, m: int) -> "ToyClassifier":
        """Member ``m`` of a stacked model, as a view."""
        return ToyClassifier(self.flat[m], self.dims)

    def copy(self) -> "ToyClassifier":
        return ToyClassifier(self.flat.copy(), self.dims)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (logits, hidden activations) for a ([M,] n, D) batch."""
        h = np.asarray(x, dtype=np.float64) @ self.w1
        h += self.b1[..., None, :]
        np.maximum(h, 0.0, out=h)
        logits = h @ self.w2
        logits += self.b2[..., None, :]
        return logits, h


def ensemble_outputs(ensemble: ToyClassifier, x: np.ndarray):
    """Member-averaged (logits, hidden activations, softmax probabilities).

    The members forward ``ROW_BLOCK`` rows of ``x`` at a time into the
    preallocated outputs, so no ``(M, N, ·)`` stack spans the whole input.
    """
    _, h, k = ensemble.dims
    n = x.shape[0]
    mean_logits, mean_hidden, mean_probs = np.empty((n, k)), np.empty((n, h)), np.empty((n, k))
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        logits, hidden = ensemble.forward(x[block])
        logits.mean(axis=0, out=mean_logits[block])
        hidden.mean(axis=0, out=mean_hidden[block])
        softmax_rows(logits).mean(axis=0, out=mean_probs[block])
    return mean_logits, mean_hidden, mean_probs


def _backward(net: ToyClassifier, x: np.ndarray, h: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """Parameter gradients given the loss gradient at the logits, laid out as ``net.flat``."""
    dz1 = (dlogits @ net.w2.swapaxes(-1, -2)) * (h > 0)
    lead = net.flat.shape[:-1]
    return np.concatenate([
        (x.swapaxes(-1, -2) @ dz1).reshape(*lead, -1),
        dz1.sum(axis=-2),
        (h.swapaxes(-1, -2) @ dlogits).reshape(*lead, -1),
        dlogits.sum(axis=-2),
    ], axis=-1)


def mixed_grads(
    clf: ToyClassifier,
    x_labeled: np.ndarray, targets: np.ndarray,
    x_unlabeled: np.ndarray, guesses: np.ndarray,
    lambda_u: float, lambda_r: float,
) -> np.ndarray:
    """Analytic parameter gradients of the mixed loss on one batch.

    Loss = cross-entropy on the labeled group + lambda_u * mean squared
    error on the unlabeled group + lambda_r * KL(uniform || mean batch
    prediction). Either group may be empty. For a stacked model the batches
    are ``(M, n, ·)`` stacks and the gradients gain the member axis. A plain
    cross-entropy batch (no unlabeled group, lambda_r = 0) skips the
    probability-space terms, which are exactly zero there.
    """
    nc, nu = x_labeled.shape[-2], x_unlabeled.shape[-2]
    n_all = nc + nu
    if n_all == 0:
        raise ValueError("both batch groups are empty")
    x = np.concatenate([x_labeled, x_unlabeled], axis=-2).astype(np.float64, copy=False)
    logits, h = clf.forward(x)
    p = softmax_rows(logits)
    if nc and not nu and not lambda_r:
        return _backward(clf, x, h, (p - targets) / nc)

    dlogits = np.zeros_like(p)
    # gradient of terms that act through the probabilities
    gp = np.zeros_like(p)
    if nc:
        dlogits[..., :nc, :] += (p[..., :nc, :] - targets) / nc
    if nu:
        gp[..., nc:, :] += lambda_u * 2.0 * (p[..., nc:, :] - guesses) / nu
    if lambda_r:
        mean_pred = p.sum(axis=-2, keepdims=True) / n_all
        gp += lambda_r * (-(1.0 / clf.num_classes) / np.maximum(mean_pred, PROB_CLAMP)) / n_all

    # softmax Jacobian-vector product, per row
    dlogits += p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    return _backward(clf, x, h, dlogits)


def apply_sgd_step(clf: ToyClassifier, grads: np.ndarray, lr: float) -> None:
    clf.flat -= lr * grads


@contextmanager
def trap_divergence(stage: str):
    """Raise NumericalError naming ``stage`` when a float op in the block overflows,
    divides by zero or turns invalid."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"training diverged during {stage}: {exc}") from None


def save_classifier_checkpoint(clf: ToyClassifier, path: str | Path) -> None:
    if clf.flat.ndim != 1:
        raise ValueError("a checkpoint holds one network; save stacked members one at a time")
    save_flat_params(path, _CHECKPOINT_TAG, clf.dims, clf.flat)


def load_classifier_checkpoint(path: str | Path) -> ToyClassifier:
    dims, flat = load_flat_params(path, _CHECKPOINT_TAG)
    if len(dims) != 3:
        raise ParseError(f"expected dimensions D H K, got {dims}", line=1)
    expected = sum(_block_sizes(dims))
    if flat.size != expected:
        raise ParseError(f"expected {expected} parameters, got {flat.size}")
    return ToyClassifier(flat, dims)
