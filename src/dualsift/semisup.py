"""Toy semi-supervised trainer driving multi-round sample distillation.

A small ensemble of MLP classifiers stands in for the co-teaching pair:
warm up on noisy labels, then per round score the data with the live
ensemble, divide and purify it, refine labels on the clean set, co-guess
pseudo-labels on the noisy set, and take one SGD epoch per member on the
combined loss.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ToyClassifier, apply_sgd_step, mixed_loss_and_grads, softmax_rows
from .data import Dataset
from .division import Partition
from .errors import NumericalError
from .pipeline import DistillParams, DistillResult, run_distillation
from .scores import ScoreTable
from .seeding import derive_seed, rng_from


@dataclass(frozen=True)
class TrainConfig:
    warmup_epochs: int = 10
    rounds: int = 5
    lr: float = 0.04
    # the squared-error penalty sums over all K classes per sample, so its
    # weight runs K times hotter than under a class-mean convention; 3.0
    # keeps the terms balanced at the benchmark's K=10
    lambda_u: float = 3.0
    lambda_r: float = 1.0
    ensemble_size: int = 2
    hidden: int = 64
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.warmup_epochs < 0 or self.rounds < 0:
            raise ValueError("epoch and round counts must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.ensemble_size < 1:
            raise ValueError("need at least one ensemble member")
        if self.hidden < 1 or self.batch_size < 1:
            raise ValueError("hidden and batch_size must be >= 1")


def make_ensemble(input_dim: int, num_classes: int, config: TrainConfig) -> list[ToyClassifier]:
    return [
        ToyClassifier.initialize(
            input_dim, config.hidden, num_classes,
            seed=derive_seed(config.seed, f"member-{m}"))
        for m in range(config.ensemble_size)
    ]


def ensemble_outputs(ensemble: list[ToyClassifier], x: np.ndarray):
    """Member-averaged (logits, hidden activations, softmax probabilities)."""
    logits_sum = hidden_sum = probs_sum = None
    for clf in ensemble:
        logits, hidden = clf.forward(x)
        probs = softmax_rows(logits)
        if logits_sum is None:
            logits_sum, hidden_sum, probs_sum = logits, hidden, probs
        else:
            logits_sum = logits_sum + logits
            hidden_sum = hidden_sum + hidden
            probs_sum = probs_sum + probs
    m = len(ensemble)
    return logits_sum / m, hidden_sum / m, probs_sum / m


def ensemble_representation(ensemble: list[ToyClassifier], x: np.ndarray):
    """Scoring snapshot: averaged logits, centered averaged embedding, averaged probs.

    The rectifier keeps raw activations in the positive orthant, which
    compresses all cosine similarities toward 1 and leaves the two mixture
    components barely separated; centering on the batch mean restores the
    spread.
    """
    logits, hidden, probs = ensemble_outputs(ensemble, x)
    return logits, hidden - hidden.mean(axis=0), probs


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator, steps: int) -> np.ndarray:
    """(steps, batch_size) index matrix cycling a fresh permutation."""
    perm = rng.permutation(n)
    return np.resize(perm, (steps, min(batch_size, n)))


def _train_epoch_mixed(clf, x_lab, targets, x_unl, guesses, lambda_u, lambda_r,
                       lr, batch_size, rng) -> None:
    # one epoch covers the union; labeled and unlabeled batches are drawn in
    # parallel each step, cycling the smaller group, so the update count
    # matches a plain epoch over the whole dataset
    nc, nu = x_lab.shape[0], x_unl.shape[0]
    steps = -(-(nc + nu) // batch_size) if nc + nu else 0
    lab_idx = _epoch_batches(nc, batch_size, rng, steps) if nc else None
    unl_idx = _epoch_batches(nu, batch_size, rng, steps) if nu else None
    empty_x = np.zeros((0, clf.input_dim))
    empty_t = np.zeros((0, clf.num_classes))
    for s in range(steps):
        xl, tl = (x_lab[lab_idx[s]], targets[lab_idx[s]]) if nc else (empty_x, empty_t)
        xu, qu = (x_unl[unl_idx[s]], guesses[unl_idx[s]]) if nu else (empty_x, empty_t)
        loss, grads = mixed_loss_and_grads(clf, xl, tl, xu, qu, lambda_u, lambda_r)
        if not np.isfinite(loss):
            raise NumericalError(f"training produced non-finite loss {loss}")
        apply_sgd_step(clf, grads, lr)


def warmup(ensemble: list[ToyClassifier], dataset: Dataset, epochs: int,
           lr: float, seed: int, batch_size: int = 8) -> list[ToyClassifier]:
    """Plain cross-entropy SGD on the noisy labels; returns a new ensemble.

    Each member shuffles with its own derived seed so the members stay
    decorrelated.
    """
    targets = _one_hot(dataset.noisy_labels, dataset.num_classes)
    out = []
    for m, clf in enumerate(ensemble):
        clf = clf.copy()
        rng = rng_from(derive_seed(seed, f"warmup-member-{m}"))
        for _ in range(epochs):
            _train_epoch_mixed(
                clf, dataset.features, targets,
                np.zeros((0, dataset.feature_dim)), np.zeros((0, dataset.num_classes)),
                0.0, 0.0, lr, batch_size, rng)
        out.append(clf)
    return out


@dataclass
class RoundResult:
    ensemble: list[ToyClassifier]
    partition: Partition
    table: ScoreTable
    fallbacks: list[str]


def distill_round(
    ensemble: list[ToyClassifier],
    dataset: Dataset,
    train_config: TrainConfig,
    params: DistillParams,
    round_index: int = 0,
) -> RoundResult:
    """One distillation iteration with a frozen scoring snapshot.

    Scores every sample with the member-averaged logits and hidden
    activations, runs division and purification on those scores, refines
    labels on the clean set with the fused score, co-guesses targets for
    the noisy set, and finally takes one SGD epoch per member on the
    combined loss against the frozen targets.
    """
    mean_logits, embedding, mean_probs = ensemble_representation(ensemble, dataset.features)
    derived = dataset.with_representation(embedding, mean_logits)
    result: DistillResult = run_distillation(derived, params)
    partition, table = result.partition, result.table

    clean_ids = partition.clean_ids
    noisy_ids = partition.noisy_ids
    fused = np.clip(table.fused[clean_ids], 0.0, 1.0)
    refined = fused[:, None] * _one_hot(dataset.noisy_labels[clean_ids], dataset.num_classes) \
        + (1.0 - fused)[:, None] * mean_probs[clean_ids]
    guessed = mean_probs[noisy_ids]
    guessed = guessed / guessed.sum(axis=1, keepdims=True)

    new_ensemble = []
    for m, clf in enumerate(ensemble):
        clf = clf.copy()
        rng = rng_from(derive_seed(train_config.seed, f"round-{round_index}-member-{m}"))
        _train_epoch_mixed(
            clf, dataset.features[clean_ids], refined,
            dataset.features[noisy_ids], guessed,
            train_config.lambda_u, train_config.lambda_r,
            train_config.lr, train_config.batch_size, rng)
        new_ensemble.append(clf)
    return RoundResult(new_ensemble, partition, table, result.fallbacks)
