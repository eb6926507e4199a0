"""Per-sample scores in loss space and feature space.

Loss space: cross-entropy between a sample's softmax prediction and its
noisy label (small loss suggests a clean label). Feature space: cosine
similarity to the mean embedding of the sample's noisy cluster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NoisyCluster
from .errors import NoCenter

# Norms below this are treated as zero vectors; similarity defaults to 0.
_NORM_EPS = 1e-12


@dataclass
class ScoreTable:
    """Per-sample scores and posteriors, aligned with sample ids.

    NaN marks an unset posterior or an unscored sample. ``unscored_sim``
    flags samples whose similarity could not be computed; downstream they
    are routed to the uncertain set. Each stage derives its output with
    ``dataclasses.replace``, so tables share the columns a stage does not
    set; no stage writes into a table it was given.
    """

    loss_score: np.ndarray
    sim_score: np.ndarray
    unscored_sim: np.ndarray
    posterior_loss: np.ndarray
    posterior_sim: np.ndarray
    fused: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "ScoreTable":
        scores = [np.full(n, np.nan) for _ in range(5)]
        return cls(scores[0], scores[1], np.ones(n, dtype=bool), *scores[2:])

    @property
    def n(self) -> int:
        return self.loss_score.shape[0]


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return np.maximum(lse - logits[np.arange(logits.shape[0]), labels], 0.0)


def class_center(features: np.ndarray, class_id: int) -> np.ndarray:
    """Arithmetic mean of the member embeddings of one noisy cluster."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise NoCenter(f"class {class_id} has no members")
    return features.mean(axis=0)


def _cosine_rows(features: np.ndarray, center: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1)
    cn = np.linalg.norm(center)
    if cn < _NORM_EPS:
        return np.zeros(features.shape[0])
    sims = features @ center / (np.maximum(norms, _NORM_EPS) * cn)
    sims[norms < _NORM_EPS] = 0.0
    return sims


def score_dataset(dataset: Dataset, clusters: list[NoisyCluster]) -> ScoreTable:
    """Fill loss and similarity scores for every sample; posteriors stay unset.

    Empty clusters contribute nothing. Any sample not covered by the given
    clusters keeps NaN scores and an unscored flag, which routes it to the
    uncertain set downstream.
    """
    table = ScoreTable.empty(dataset.n)
    for cluster in clusters:
        ids = cluster.member_ids
        if ids.size == 0:
            continue
        center = class_center(dataset.features[ids], cluster.class_id)
        table.loss_score[ids] = _cross_entropy_rows(
            dataset.logits[ids], dataset.noisy_labels[ids])
        table.sim_score[ids] = _cosine_rows(dataset.features[ids], center)
        table.unscored_sim[ids] = False
    return table
