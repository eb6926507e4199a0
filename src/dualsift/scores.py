"""Per-sample scores in loss space and feature space.

Loss space: cross-entropy between a sample's softmax prediction and its
noisy label (small loss suggests a clean label). Feature space: cosine
similarity to the mean embedding of the sample's noisy cluster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

# Norms below this are treated as zero vectors; similarity defaults to 0.
_NORM_EPS = 1e-12
# A cluster whose largest feature magnitude lies outside this range is first
# divided by a power of two: above it norms and dot products overflow, below
# it norms near the absolute _NORM_EPS floor. The division is exact, and
# cosines do not depend on scale.
_FEATURE_RANGE = (2.0 ** -20, 2.0 ** 500)
# A mixture fit squares score spreads, which overflow past about 2^511; a
# cluster's scores above this are fit divided by a power of two.
SCORE_RANGE = (0.0, 2.0 ** 500)
_MAX_LOSS = np.finfo(np.float64).max


@dataclass
class ScoreTable:
    """Per-sample scores and posteriors, aligned with sample ids.

    NaN marks an unset posterior or an unscored sample. Each ``posteriors``
    row is a sample's (loss-space, feature-space) pair, the meta net's input.
    Each stage derives its output with ``dataclasses.replace``, so tables
    share the arrays a stage does not set; no stage writes into a table it was given.
    """

    loss_score: np.ndarray
    sim_score: np.ndarray
    posteriors: np.ndarray  # (n, 2)
    fused: np.ndarray
    # read-through views of the two posterior columns
    posterior_loss = property(lambda self: self.posteriors[:, 0])
    posterior_sim = property(lambda self: self.posteriors[:, 1])

    @classmethod
    def empty(cls, n: int) -> "ScoreTable":
        return cls(*(np.full(shape, np.nan) for shape in (n, n, (n, 2), n)))

    @property
    def n(self) -> int:
        return self.loss_score.shape[0]


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    # a spread past the float64 range overflows; the cap ranks that row noisiest
    with np.errstate(over="ignore"):
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        return np.clip(lse - logits[np.arange(logits.shape[0]), labels], 0.0, _MAX_LOSS)


def in_range(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """``values``, divided by the power of two that brings its largest
    magnitude into [0.5, 1) when that lies outside ``bounds``."""
    peak = np.abs(values).max()
    if peak == 0 or bounds[0] <= peak <= bounds[1]:
        return values
    return np.ldexp(values, -np.frexp(peak)[1])


def _cosine_rows(features: np.ndarray, center: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1)
    cn = np.linalg.norm(center)
    if cn < _NORM_EPS:
        return np.zeros(features.shape[0])
    sims = features @ center / (np.maximum(norms, _NORM_EPS) * cn)
    sims[norms < _NORM_EPS] = 0.0
    return sims


def score_dataset(dataset: Dataset, clusters: list[np.ndarray]) -> ScoreTable:
    """Fill loss and similarity scores for every sample; posteriors stay unset.

    ``clusters`` are ``partition_by_label``'s id arrays; a cluster's centre is
    the mean of its members' embeddings. Empty clusters contribute nothing.
    Any sample not covered by the given clusters keeps NaN scores.
    """
    table = ScoreTable.empty(dataset.n)
    for ids in clusters:
        if ids.size == 0:
            continue
        features = in_range(dataset.features[ids], _FEATURE_RANGE)
        table.loss_score[ids] = _cross_entropy_rows(
            dataset.logits[ids], dataset.noisy_labels[ids])
        table.sim_score[ids] = _cosine_rows(features, features.mean(axis=0))
    return table
