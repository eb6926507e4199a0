"""Two-layer rectifier MLP: the toy ensemble's members and the meta net.

Exposes both logits and the last hidden activations; the latter play the
role of the feature embedding when scoring with a live model. A network is
one float64 buffer ``flat`` of ``P = D*H + H + H*K + K`` values plus its
dimensions ``(D, H, K)``. ``w1 (D, H)``, ``b1 (H,)``, ``w2 (H, K)`` and
``b2 (K,)`` are views of it, laid out row-major one after another, the
order a checkpoint stores them in: after a ``toyclassifier D H K`` header
line, one full-precision float per line. Row-major, ``w1`` followed by
``b1`` is the augmented matrix ``W1 = [w1; b1] (D+1, H)`` and ``w2``
followed by ``b2`` is ``W2 = [w2; b2] (H+1, K)``, views too, with ``b1``
and ``b2`` their last rows. The network computes with them on inputs that
end in a ones column (``x1 = [x | 1]``), so each bias rides inside its matmul:
``h = relu(x1 @ W1)`` fills the first H columns of an ``[h | 1]`` array and
``logits = [h | 1] @ W2``; the gradients are ``x1ᵀ·dz1`` and
``[h | 1]ᵀ·dlogits``, written straight into the two blocks of one array laid
out as ``flat``, so an SGD step is one subtraction. A stacked model's
buffer has a leading member axis, ``flat (M, P)``; its inputs are
``(M, n, ·)`` stacks (or one ``(n, ·)`` batch shared by every member) and
every output gains the same leading axis.
"""
from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .data import ROW_BLOCK, parse_number, read_text_lines, repr_rows
from .errors import NumericalError, ParseError
from .seeding import rng_from

_CHECKPOINT_TAG = "toyclassifier"
# Floor on a probability before its log (metanet's BCE) or the log's derivative.
PROB_CLAMP = 1e-7


def softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.exp(np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out), out=out)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _block_sizes(dims: tuple[int, int, int]) -> tuple[int, int, int, int]:
    d, h, k = dims
    return d * h, h, h * k, k


def ones_column_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` whose last column holds ones."""
    buf = np.empty(shape)
    buf[..., -1] = 1.0
    return buf


def with_ones(x: np.ndarray) -> np.ndarray:
    """``[x | 1]``: a ``(..., n, D)`` batch with a ones column appended, as float64."""
    x1 = ones_column_buffer(x.shape[:-1] + (x.shape[-1] + 1,))
    x1[..., :-1] = x
    return x1


class ToyClassifier:
    """``flat`` ([M,] P) with views ``W1``, ``W2`` and ``w1``, ``b1``, ``w2``, ``b2`` into it."""

    def __init__(self, flat: np.ndarray, dims: tuple[int, int, int]):
        self.dims = tuple(dims)
        size = sum(_block_sizes(self.dims))
        if flat.shape[-1:] != (size,):
            raise ValueError(f"dimensions {self.dims} need {size} parameters, "
                             f"got shape {flat.shape}")
        self.flat = flat
        (d, h, k), lead = self.dims, flat.shape[:-1]
        self.W1 = flat[..., :(d + 1) * h].reshape(lead + (d + 1, h))
        self.W2 = flat[..., (d + 1) * h:].reshape(lead + (h + 1, k))
        self.w1, self.b1 = self.W1[..., :-1, :], self.W1[..., -1, :]
        self.w2, self.b2 = self.W2[..., :-1, :], self.W2[..., -1, :]

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

    def forward_folded(self, x1: np.ndarray, h1: np.ndarray):
        """Returns (logits, ``h1``) for a ([M,] n, D+1) float64 batch whose last
        column is ones. ``h1`` is the caller's ``([M,] n, H+1)`` workspace: its
        first H columns receive the hidden activations, its last holds ones."""
        np.matmul(x1, self.W1, out=h1[..., :-1])
        # the rectifier keeps the ones column, and runs on the contiguous buffer
        np.maximum(h1, 0.0, out=h1)
        return h1 @ self.W2, h1

    def forward_blocks(self, x: np.ndarray):
        """Yields ``(rows, logits, [h | 1])`` of ``forward_folded([x[rows] | 1])``
        for each ``ROW_BLOCK``-row block of a (n, D) table. One ones-column
        input buffer and one ``[h | 1]`` workspace serve every block."""
        n, d = x.shape
        x1 = ones_column_buffer((min(n, ROW_BLOCK), d + 1))
        h1 = ones_column_buffer(self.flat.shape[:-1] + (x1.shape[0], self.dims[1] + 1))
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, min(n, start + ROW_BLOCK))
            size = rows.stop - start
            x1[:size, :-1] = x[rows]
            yield (rows, *self.forward_folded(x1[:size], h1[..., :size, :]))


def ensemble_outputs(ensemble: ToyClassifier, x: np.ndarray):
    """Member-averaged (logits, hidden activations, softmax probabilities).

    The members forward ``x`` through :meth:`ToyClassifier.forward_blocks`
    into the preallocated outputs, so no ``(M, N, ·)`` stack spans the whole
    input.
    """
    _, h, k = ensemble.dims
    n = x.shape[0]
    mean_logits, mean_hidden, mean_probs = np.empty((n, k)), np.empty((n, h)), np.empty((n, k))
    for rows, logits, h1 in ensemble.forward_blocks(x):
        logits.mean(axis=0, out=mean_logits[rows])
        h1[..., :-1].mean(axis=0, out=mean_hidden[rows])
        softmax_rows(logits).mean(axis=0, out=mean_probs[rows])
    return mean_logits, mean_hidden, mean_probs


def backward_folded(net: ToyClassifier, x1: np.ndarray, h1: np.ndarray,
                    dlogits: np.ndarray, grads: ToyClassifier) -> np.ndarray:
    """Parameter gradients, written into and returned as the ``flat`` of the
    caller's ``grads`` (a network laid out as ``net``), given the loss
    gradient at the logits of ``net.forward_folded(x1, h1)``."""
    np.matmul(h1.swapaxes(-1, -2), dlogits, out=grads.W2)
    dz1 = dlogits @ net.w2.swapaxes(-1, -2)
    dz1 *= (h1 > 0)[..., :-1]
    np.matmul(x1.swapaxes(-1, -2), dz1, out=grads.W1)
    return grads.flat


def mixed_grads(
    clf: ToyClassifier, x1: np.ndarray, nc: int, targets: np.ndarray, guesses: np.ndarray,
    lambda_u: float, lambda_r: float, h1: np.ndarray, grads: ToyClassifier,
) -> np.ndarray:
    """Analytic parameter gradients of the mixed loss on one batch, as ``grads.flat``.

    ``x1`` is the joint ([M,] n, D+1) batch, ending in a ones column: its
    first ``nc`` rows are the labeled group, with ``targets``, and the rest
    the unlabeled group, with ``guesses``. ``h1`` and ``grads`` are the
    caller's workspaces for :meth:`ToyClassifier.forward_folded` and
    :func:`backward_folded`. Loss = cross-entropy on the labeled group +
    lambda_u * mean squared error on the unlabeled group + lambda_r *
    KL(uniform || mean batch prediction). Either group may be empty. For a
    stacked model the batches are ``(M, n, ·)`` stacks and the gradients
    gain the member axis. A plain cross-entropy batch (no unlabeled group,
    lambda_r = 0) skips the probability-space terms, which are exactly zero
    there.
    """
    n_all = x1.shape[-2]
    nu = n_all - nc
    if n_all == 0:
        raise ValueError("both batch groups are empty")
    logits, h1 = clf.forward_folded(x1, h1)
    p = softmax_rows(logits, out=logits)
    if nc and not nu and not lambda_r:
        p -= targets
        p /= nc
        return backward_folded(clf, x1, h1, p, grads)

    # gradient of terms that act through the probabilities
    gp = np.zeros_like(p)
    if nu:
        gp[..., nc:, :] += lambda_u * 2.0 * (p[..., nc:, :] - guesses) / nu
    if lambda_r:
        mean_pred = p.sum(axis=-2, keepdims=True) / n_all
        gp += lambda_r * (-(1.0 / clf.num_classes) / np.maximum(mean_pred, PROB_CLAMP)) / n_all

    # softmax Jacobian-vector product, per row, in place; + 0.0 turns a -0.0
    # into the +0.0 a zero-filled sum gives, before the labeled rows' term
    gp -= (gp * p).sum(axis=-1, keepdims=True)
    gp *= p
    gp += 0.0
    if nc:
        gp[..., :nc, :] += (p[..., :nc, :] - targets) / nc
    return backward_folded(clf, x1, h1, gp, grads)


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


def save_flat_params(path: str | Path, tag: str, dims: tuple[int, ...],
                     flat: np.ndarray) -> None:
    """Write the header ``tag dims...``, then each value's repr on a line."""
    lines = [" ".join([tag] + [str(d) for d in dims]).encode(),
             *repr_rows(np.asarray(flat, dtype=np.float64).reshape(-1, 1))]
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def save_classifier_checkpoint(clf: ToyClassifier, path: str | Path) -> None:
    if clf.flat.ndim != 1:
        raise ValueError("a checkpoint holds one network; save stacked members one at a time")
    save_flat_params(path, _CHECKPOINT_TAG, clf.dims, clf.flat)


def load_classifier_checkpoint(path: str | Path) -> ToyClassifier:
    """Read a checkpoint; every parameter must be finite."""
    lines = read_text_lines(path)
    if not lines:
        raise ParseError("empty checkpoint")
    header = lines[0].split()
    if not header or header[0] != _CHECKPOINT_TAG:
        raise ParseError(f"expected {_CHECKPOINT_TAG!r} checkpoint", line=1)
    dims = tuple(parse_number(v, int, 1) for v in header[1:])
    if any(d < 1 for d in dims):
        raise ParseError(f"checkpoint dimensions must be >= 1, got {dims}", line=1)
    values = [parse_number(line, float, lineno)
              for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(dims) != 3:
        raise ParseError(f"expected dimensions D H K, got {dims}", line=1)
    expected = sum(_block_sizes(dims))
    if len(values) != expected:
        raise ParseError(f"expected {expected} parameters, got {len(values)}")
    return ToyClassifier(np.asarray(values, dtype=np.float64), dims)
