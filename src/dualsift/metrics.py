"""Selection quality against ground truth, plus classification accuracy."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .classifier import ToyClassifier, softmax_rows
from .data import Dataset, integral


@dataclass(frozen=True)
class SelectionReport:
    precision: float
    recall: float
    f1: float
    tp_rate: float
    tn_rate: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_selected: int
    n_total: int
    degenerate: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "degenerate": list(self.degenerate)}


def selection_metrics(selected_ids: np.ndarray, clean_mask: np.ndarray) -> SelectionReport:
    """Score a clean-selected id set against the per-id clean flags.

    A sample counts as clean iff its noisy label equals its true label.
    Zero denominators yield 0 and are flagged instead of NaN.
    """
    clean = np.asarray(clean_mask, dtype=bool)
    n = clean.shape[0]
    selected = np.zeros(n, dtype=bool)
    ids = np.asarray(integral(selected_ids, "selected ids"), dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("selected id outside the truth range")
    selected[ids] = True
    tp = int((selected & clean).sum())
    fp = int((selected & ~clean).sum())
    fn = int((~selected & clean).sum())
    tn = int((~selected & ~clean).sum())

    degenerate = []

    def _rate(num, den, name):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    precision = _rate(tp, tp + fp, "precision")
    recall = _rate(tp, tp + fn, "recall")
    f1 = _rate(2.0 * precision * recall, precision + recall, "f1")
    tn_rate = _rate(tn, tn + fp, "tn_rate")
    return SelectionReport(
        precision=precision, recall=recall, f1=f1,
        tp_rate=recall, tn_rate=tn_rate,
        tp=tp, fp=fp, tn=tn, fn=fn,
        n_selected=int(selected.sum()), n_total=n,
        degenerate=tuple(degenerate),
    )


def accuracy(ensemble: ToyClassifier, dataset: Dataset) -> float:
    """Fraction of samples whose ensemble-averaged prediction hits the true label.

    An unstacked network reads as a one-member ensemble. Argmax ties break
    toward the lowest class index.
    """
    if dataset.n == 0:
        raise ValueError("empty test set")
    if not dataset.has_true_labels:
        raise ValueError("test set lacks true labels")
    hits = 0
    for rows, logits, _ in ensemble.forward_blocks(dataset.features):
        probs = softmax_rows(logits).reshape(-1, *logits.shape[-2:]).mean(axis=0)
        hits += int((probs.argmax(axis=1) == dataset.true_labels[rows]).sum())
    return hits / dataset.n
