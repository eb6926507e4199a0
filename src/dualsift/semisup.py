"""Toy semi-supervised trainer driving multi-round sample distillation.

A small ensemble of MLP classifiers, stacked into one model along a
leading member axis, stands in for the co-teaching pair: warm up on noisy
labels, then per round score the data with the live ensemble, divide and
purify it, refine labels on the clean set, co-guess pseudo-labels on the
noisy set, and take one SGD epoch per member on the combined loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ToyClassifier, apply_sgd_step, ensemble_outputs, mixed_loss_and_grads
from .data import ROW_BLOCK, Dataset, one_hot
from .errors import NumericalError, check_fields
from .pipeline import DistillParams, DistillResult, run_distillation
from .seeding import derive_seed, rng_from

# Largest |hidden activation| or |logit| a member may show on the train split
# after warm-up or a round. Healthy members stay near 10 (the 5k benchmark
# peaks at |h| 3.1 and |logit| 9.7); diverged ones pass 1e6 and keep going.
MAX_ACTIVATION = 1e4


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
        check_fields(self, ("lr", "lambda_u", "lambda_r"), math.isfinite, "must be finite")
        check_fields(self, ("lr",), lambda v: v > 0, "must be positive")
        check_fields(self, ("warmup_epochs", "rounds", "lambda_u", "lambda_r"),
                     lambda v: v >= 0, "must be non-negative")
        check_fields(self, ("ensemble_size", "hidden", "batch_size"),
                     lambda v: v >= 1, "must be >= 1")


def make_ensemble(input_dim: int, num_classes: int, config: TrainConfig) -> ToyClassifier:
    return ToyClassifier.stack([
        ToyClassifier.initialize(
            input_dim, config.hidden, num_classes,
            seed=derive_seed(config.seed, f"member-{m}"))
        for m in range(config.ensemble_size)
    ])


def ensemble_representation(ensemble: ToyClassifier, x: np.ndarray):
    """Scoring snapshot: averaged logits, centered averaged embedding, averaged probs.

    The rectifier keeps raw activations in the positive orthant, which
    compresses all cosine similarities toward 1 and leaves the two mixture
    components barely separated; centering on the batch mean restores the
    spread. The embedding is centered in place.
    """
    logits, hidden, probs = ensemble_outputs(ensemble, x)
    hidden -= hidden.mean(axis=0)
    return logits, hidden, probs


def _epoch_batches(n: int, batch_size: int, rngs: list[np.random.Generator],
                   steps: int) -> np.ndarray:
    """(steps, members, batch_size) indices; each member cycles a fresh
    permutation drawn from its own generator."""
    return np.stack([np.resize(rng.permutation(n), (steps, min(batch_size, n)))
                     for rng in rngs], axis=1)


def _check_alive(ensemble: ToyClassifier, x: np.ndarray, stage: str) -> None:
    """Raise NumericalError when a member's activations on ``x`` left the
    safe range (or stopped being finite)."""
    peaks = np.zeros(len(ensemble.flat))
    for start in range(0, x.shape[0], ROW_BLOCK):
        logits, hidden = ensemble.forward(x[start:start + ROW_BLOCK])
        # np.maximum keeps a NaN, which then fails the bound below
        peaks = np.maximum(peaks, np.maximum(np.abs(hidden).max(axis=(1, 2)),
                                             np.abs(logits).max(axis=(1, 2))))
    for m, peak in enumerate(peaks):
        if not peak <= MAX_ACTIVATION:
            raise NumericalError(
                f"member {m} diverged after {stage}: |activation| {peak:.3g} "
                f"exceeds {MAX_ACTIVATION:g}")


def _train_epoch_mixed(ensemble, features, lab_ids, targets, unl_ids, guesses,
                       lambda_u, lambda_r, lr, batch_size, rngs) -> None:
    # one epoch covers the union; labeled and unlabeled batches are drawn in
    # parallel each step, cycling the smaller group, so the update count
    # matches a plain epoch over the whole dataset; each member draws its
    # batches from its own generator, and one stacked step moves all members.
    # A group is its rows of ``features``, ``lab_ids`` or ``unl_ids``, with
    # one target or guess row per id. The batches are gathered from
    # ``features`` through the ids ROW_BLOCK // batch_size steps at a time,
    # so each step reads views and no copy spans the epoch. An empty group
    # draws nothing and gathers (steps, members, 0, ·) stacks.
    nc, nu = lab_ids.shape[0], unl_ids.shape[0]
    steps = -(-(nc + nu) // batch_size)
    lab_idx = _epoch_batches(nc, batch_size, rngs, steps)
    unl_idx = _epoch_batches(nu, batch_size, rngs, steps)
    chunk = max(1, ROW_BLOCK // batch_size)
    for first in range(0, steps, chunk):
        lab, unl = lab_idx[first:first + chunk], unl_idx[first:first + chunk]
        xl_all, tl_all = features[lab_ids[lab]], targets[lab]
        xu_all, qu_all = features[unl_ids[unl]], guesses[unl]
        for s in range(lab.shape[0]):
            loss, grads = mixed_loss_and_grads(ensemble, xl_all[s], tl_all[s], xu_all[s],
                                               qu_all[s], lambda_u, lambda_r)
            if not all(map(math.isfinite, loss.tolist())):
                raise NumericalError(f"training produced non-finite loss {loss}")
            apply_sgd_step(ensemble, grads, lr)


def warmup(ensemble: ToyClassifier, dataset: Dataset, config: TrainConfig) -> ToyClassifier:
    """Plain cross-entropy SGD on the noisy labels; returns a new ensemble.

    Runs ``config.warmup_epochs`` epochs. Each member shuffles with its own
    derived seed so the members stay decorrelated. Raises NumericalError
    when a member ends past ``MAX_ACTIVATION`` on the training set.
    """
    targets = one_hot(dataset.noisy_labels, dataset.num_classes)
    seed = derive_seed(config.seed, "warmup")
    rngs = [rng_from(seed, f"warmup-member-{m}") for m in range(len(ensemble.flat))]
    ensemble = ensemble.copy()
    all_ids, no_ids = np.arange(dataset.n), np.zeros(0, dtype=np.int64)
    for _ in range(config.warmup_epochs):
        _train_epoch_mixed(
            ensemble, dataset.features, all_ids, targets,
            no_ids, np.zeros((0, dataset.num_classes)),
            0.0, 0.0, config.lr, config.batch_size, rngs)
    _check_alive(ensemble, dataset.features, "warm-up")
    return ensemble


@dataclass
class RoundResult:
    ensemble: ToyClassifier
    # the round's distillation pass, for the next round to start from
    distilled: DistillResult


def distill_round(
    ensemble: ToyClassifier,
    dataset: Dataset,
    train_config: TrainConfig,
    params: DistillParams,
    round_index: int = 0,
    previous: DistillResult | None = None,
) -> RoundResult:
    """One distillation iteration with a frozen scoring snapshot.

    Scores every sample with the member-averaged logits and hidden
    activations, runs division and purification on those scores, refines
    labels on the clean set with the fused score, co-guesses targets for
    the noisy set, and finally takes one SGD epoch per member on the
    combined loss against the frozen targets. The pass warm-starts from
    ``previous`` (the previous round's ``distilled``), as ``run_distillation``
    describes. Raises NumericalError when a member ends past
    ``MAX_ACTIVATION`` on ``dataset``.
    """
    mean_logits, embedding, mean_probs = ensemble_representation(ensemble, dataset.features)
    derived = dataset.with_representation(embedding, mean_logits)
    result = run_distillation(derived, params, previous)
    partition, table = result.partition, result.table

    clean_ids = partition.clean_ids
    noisy_ids = partition.noisy_ids
    fused = np.clip(table.fused[clean_ids], 0.0, 1.0)
    refined = fused[:, None] * one_hot(dataset.noisy_labels[clean_ids], dataset.num_classes) \
        + (1.0 - fused)[:, None] * mean_probs[clean_ids]
    guessed = mean_probs[noisy_ids]
    guessed = guessed / guessed.sum(axis=1, keepdims=True)

    rngs = [rng_from(train_config.seed, f"round-{round_index}-member-{m}")
            for m in range(len(ensemble.flat))]
    ensemble = ensemble.copy()
    _train_epoch_mixed(
        ensemble, dataset.features, clean_ids, refined, noisy_ids, guessed,
        train_config.lambda_u, train_config.lambda_r,
        train_config.lr, train_config.batch_size, rngs)
    _check_alive(ensemble, dataset.features, f"round {round_index}")
    return RoundResult(ensemble, result)
