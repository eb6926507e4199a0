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

from .classifier import (ToyClassifier, apply_sgd_step, ensemble_outputs, mixed_grads,
                         ones_column_buffer, trap_divergence)
from .data import ROW_BLOCK, Dataset, one_hot
from .errors import NumericalError, check_fields
from .pipeline import DistillParams, DistillResult, run_distillation
from .seeding import derive_seed, rng_from

# Largest |hidden activation| or |logit| a member may show on the train split
# after warm-up or a round. Healthy members stay near 10 (the 5k benchmark
# peaks at |h| 3.1 and |logit| 9.7); diverged ones pass 1e6 and keep going.
MAX_ACTIVATION = 1e4

# bench/tracing.py counts ensemble steps at this name
mixed_loss_and_grads = mixed_grads


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
    spread. The embedding is centered in place; the pass checks nothing.
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
    """Raise NumericalError naming ``stage``, the stage that trained the ensemble,
    when a member's activations on ``x`` left the safe range (or stopped being finite)."""
    peaks = np.zeros(len(ensemble.flat))
    for _, logits, h1 in ensemble.forward_blocks(x):
        # [h | 1] is rectified, and its ones column stays below the bound;
        # np.maximum keeps a NaN, which then fails the bound below
        np.maximum(peaks, np.maximum(h1.max(axis=(1, 2)), np.abs(logits).max(axis=(1, 2))),
                   out=peaks)
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
    # one target or guess row per id. ROW_BLOCK // batch_size steps at a time,
    # each step's labeled then unlabeled rows are gathered from ``features``
    # through the ids into one joint batch of a ones-column buffer, so each
    # step reads views and no copy spans the epoch. The buffer and the
    # steps' [h | 1] and gradient workspaces are allocated once per epoch. An
    # empty group draws nothing and adds no rows.
    nc, nu = lab_ids.shape[0], unl_ids.shape[0]
    steps = -(-(nc + nu) // batch_size)
    lab_idx = _epoch_batches(nc, batch_size, rngs, steps)
    unl_idx = _epoch_batches(nu, batch_size, rngs, steps)
    members, nbl, nbu = lab_idx.shape[1:] + unl_idx.shape[2:]
    d = features.shape[1]
    chunk = max(1, ROW_BLOCK // batch_size)
    x1 = ones_column_buffer((min(chunk, steps), members, nbl + nbu, d + 1))
    h1 = ones_column_buffer((members, nbl + nbu, ensemble.dims[1] + 1))
    grads = ToyClassifier(np.empty(ensemble.flat.shape), ensemble.dims)
    for first in range(0, steps, chunk):
        lab, unl = lab_idx[first:first + chunk], unl_idx[first:first + chunk]
        x1_all = x1[:lab.shape[0]]
        x1_all[..., :nbl, :d] = features[lab_ids[lab]]
        x1_all[..., nbl:, :d] = features[unl_ids[unl]]
        tl_all, qu_all = targets[lab], guesses[unl]
        for s in range(lab.shape[0]):
            step = mixed_loss_and_grads(ensemble, x1_all[s], nbl, tl_all[s], qu_all[s],
                                        lambda_u, lambda_r, h1, grads)
            apply_sgd_step(ensemble, step, lr)


def _train_stage(ensemble: ToyClassifier, x: np.ndarray, stage: str, epochs: int,
                 *epoch_args) -> ToyClassifier:
    """A copy of ``ensemble`` after ``epochs`` of ``_train_epoch_mixed(copy, x, *epoch_args)``.
    Raises NumericalError naming ``stage`` when a float op overflows or turns
    invalid, or when a member ends past ``MAX_ACTIVATION`` on ``x``."""
    ensemble = ensemble.copy()
    with trap_divergence(stage):
        for _ in range(epochs):
            _train_epoch_mixed(ensemble, x, *epoch_args)
        _check_alive(ensemble, x, stage)
    return ensemble


def warmup(ensemble: ToyClassifier, dataset: Dataset, config: TrainConfig) -> ToyClassifier:
    """Plain cross-entropy SGD on the noisy labels for ``config.warmup_epochs``
    epochs, the stage ``warm-up`` of :func:`_train_stage`; returns a new
    ensemble and raises as that does, whatever ``config.rounds`` is. Each
    member shuffles with its own derived seed so the members stay decorrelated.
    """
    rngs = [rng_from(derive_seed(config.seed, "warmup"), f"warmup-member-{m}")
            for m in range(len(ensemble.flat))]
    return _train_stage(
        ensemble, dataset.features, "warm-up", config.warmup_epochs,
        np.arange(dataset.n), one_hot(dataset.noisy_labels, dataset.num_classes),
        np.zeros(0, dtype=np.int64), np.zeros((0, dataset.num_classes)),
        0.0, 0.0, config.lr, config.batch_size, rngs)


def distill_round(
    ensemble: ToyClassifier,
    dataset: Dataset,
    train_config: TrainConfig,
    params: DistillParams,
    round_index: int = 0,
    previous: DistillResult | None = None,
) -> tuple[ToyClassifier, DistillResult]:
    """One distillation iteration with a frozen scoring snapshot; returns
    ``(ensemble, distilled)``: a new ensemble and the round's distillation pass.

    Scores every sample with the member-averaged logits and hidden
    activations, runs division and purification on those scores, refines
    labels on the clean set with the fused score, co-guesses targets for
    the noisy set, and takes one SGD epoch per member on the combined loss
    against the frozen targets: the stage ``round {round_index}`` of
    :func:`_train_stage`, which names the errors it raises. The pass
    warm-starts from ``previous`` (the previous round's ``distilled``), as
    ``run_distillation`` describes. A float error while taking the snapshot
    is named after the previous stage.
    """
    with trap_divergence(f"round {round_index - 1}" if round_index else "warm-up"):
        mean_logits, embedding, mean_probs = ensemble_representation(ensemble, dataset.features)
    derived = dataset.with_representation(embedding, mean_logits)
    result = run_distillation(derived, params, previous)

    clean_ids, noisy_ids = result.partition.clean_ids, result.partition.noisy_ids
    fused = np.clip(result.table.fused[clean_ids], 0.0, 1.0)
    refined = fused[:, None] * one_hot(dataset.noisy_labels[clean_ids], dataset.num_classes) \
        + (1.0 - fused)[:, None] * mean_probs[clean_ids]
    guessed = mean_probs[noisy_ids]
    guessed = guessed / guessed.sum(axis=1, keepdims=True)

    rngs = [rng_from(train_config.seed, f"round-{round_index}-member-{m}")
            for m in range(len(ensemble.flat))]
    ensemble = _train_stage(
        ensemble, dataset.features, f"round {round_index}", 1,
        clean_ids, refined, noisy_ids, guessed, train_config.lambda_u, train_config.lambda_r,
        train_config.lr, train_config.batch_size, rngs)
    return ensemble, result
