"""Scalar reference forms of the package's vectorised formulas.

The package computes scores and losses over whole arrays; these one-sample
versions are written independently so tests can compare the two. The
per-element sample-table writer is the byte oracle for the block writer.
"""
import warnings
from pathlib import Path

import numpy as np

from dualsift.data import Dataset, _expected_header

_NORM_EPS = 1e-12
_PROB_CLAMP = 1e-7


def cross_entropy_score(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of ``label``, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} outside [0, {logits.shape[0]})")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return max(float(lse - logits[label]), 0.0)


def cosine_similarity_score(feature: np.ndarray, center: np.ndarray) -> float:
    """Cosine similarity, 0 when either vector has (near) zero norm."""
    feature = np.asarray(feature, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if feature.shape != center.shape:
        raise ValueError("vector lengths differ")
    na, nb = np.linalg.norm(feature), np.linalg.norm(center)
    if na < _NORM_EPS or nb < _NORM_EPS:
        return 0.0
    return float(feature @ center / (na * nb))


def refine_label(y_noisy: np.ndarray, fused: float, p_ens: np.ndarray) -> np.ndarray:
    """Convex combination of the given one-hot label and the ensemble prediction."""
    if not 0.0 <= fused <= 1.0:
        raise ValueError(f"fused weight must lie in [0, 1], got {fused}")
    return fused * np.asarray(y_noisy, dtype=np.float64) \
        + (1.0 - fused) * np.asarray(p_ens, dtype=np.float64)


def co_guess(preds: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the member predictions, renormalized to sum 1."""
    if not preds:
        raise ValueError("need at least one prediction")
    mean = np.mean([np.asarray(p, dtype=np.float64) for p in preds], axis=0)
    return mean / mean.sum()


def labeled_loss(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy against (possibly soft) target distributions."""
    preds = np.atleast_2d(np.asarray(preds, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if preds.shape[0] == 0:
        warnings.warn("labeled loss over an empty set", stacklevel=2)
        return 0.0
    clipped = np.clip(preds, _PROB_CLAMP, None)
    return float(-(targets * np.log(clipped)).sum() / preds.shape[0])


def unlabeled_loss(preds: np.ndarray, guesses: np.ndarray) -> float:
    """Mean squared error between predictions and guessed distributions."""
    preds = np.atleast_2d(np.asarray(preds, dtype=np.float64))
    guesses = np.atleast_2d(np.asarray(guesses, dtype=np.float64))
    if preds.shape[0] == 0:
        return 0.0
    diff = guesses - preds
    return float((diff * diff).sum() / preds.shape[0])


def reg_loss(mean_pred: np.ndarray) -> float:
    """KL divergence from the uniform distribution to the mean prediction."""
    mean_pred = np.asarray(mean_pred, dtype=np.float64)
    k = mean_pred.shape[0]
    uniform = 1.0 / k
    clipped = np.clip(mean_pred, _PROB_CLAMP, None)
    return float((uniform * (np.log(uniform) - np.log(clipped))).sum())


def total_loss(l_labeled: float, l_unlabeled: float, l_reg: float,
               lambda_u: float, lambda_r: float) -> float:
    return l_labeled + lambda_u * l_unlabeled + lambda_r * l_reg


def write_sample_table(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset in the sample-table CSV format."""
    d, k = dataset.feature_dim, dataset.num_classes
    out = [",".join(_expected_header(d, k))]
    for i in range(dataset.n):
        cells = [str(i), str(int(dataset.noisy_labels[i])), str(int(dataset.true_labels[i]))]
        cells += [repr(float(v)) for v in dataset.features[i]]
        cells += [repr(float(v)) for v in dataset.logits[i]]
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
