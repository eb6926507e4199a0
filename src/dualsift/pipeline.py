"""Single-shot distillation: scores to posteriors to certain/uncertain to
purified clean/noisy sets, with total fallback behavior on degeneracies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import ToyClassifier
from .data import Dataset, partition_by_label
from .division import (
    Partition,
    ThresholdStrategy,
    compute_posteriors,
    divide_dataset,
    resolve_threshold,
)
from .errors import MetaStarved
from .gmm import GmmConfig, Orientation
from .metanet import (
    MetaTrainConfig,
    build_meta_dataset,
    fuse_scores,
    purify,
    train_meta,
    weighted_average_baseline,
)
from .scores import ScoreTable, score_dataset
from .seeding import derive_seed

FALLBACK_LAMBDA = 0.5


@dataclass(frozen=True)
class DistillParams:
    """Everything one division-plus-purification pass needs."""

    loss_gmm: GmmConfig = field(default_factory=lambda: GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    feat_gmm: GmmConfig = field(default_factory=lambda: GmmConfig(Orientation.LARGER_MEAN_CLEAN))
    loss_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    sim_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    fuse_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    meta: MetaTrainConfig = field(default_factory=MetaTrainConfig)
    meta_hidden: int = 10

    def __post_init__(self):
        if self.meta_hidden < 1:
            raise ValueError("meta_hidden must be >= 1")


@dataclass
class DistillResult:
    partition: Partition
    table: ScoreTable
    fallbacks: list[str]
    meta_net: ToyClassifier | None


def run_distillation(dataset: Dataset, params: DistillParams) -> DistillResult:
    """Score, divide, and purify one dataset snapshot.

    When the certain set lacks positives or negatives the meta classifier
    cannot be trained; fusion falls back to the equal-weight average and
    the report notes it.
    """
    clusters = partition_by_label(dataset)
    table = score_dataset(dataset, clusters)
    table, fallbacks = compute_posteriors(table, clusters, params.loss_gmm, params.feat_gmm)
    partition = divide_dataset(table, clusters, params.loss_strategy, params.sim_strategy)

    meta_net = None
    try:
        meta_data = build_meta_dataset(partition, table)
        net0 = ToyClassifier.initialize(2, params.meta_hidden, 1,
                                        seed=derive_seed(params.meta.seed, "meta-init"))
        meta_net = train_meta(net0, meta_data, params.meta)
        table = fuse_scores(meta_net, table)
    except MetaStarved as exc:
        fallbacks.append(f"meta_starved:weighted_average:lambda={FALLBACK_LAMBDA}:{exc}")
        table = replace(table, fused=weighted_average_baseline(
            table.posterior_loss, table.posterior_sim, FALLBACK_LAMBDA))

    su = partition.uncertain_ids
    fused_su = table.fused[su]
    finite = fused_su[np.isfinite(fused_su)]
    if finite.size:
        cut = resolve_threshold(params.fuse_strategy, finite)
    else:
        # nothing to judge; purify only merges the certain sets
        cut = 0.5
    partition = purify(table, partition, cut, cut)
    return DistillResult(partition, table, fallbacks, meta_net)
