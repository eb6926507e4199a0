"""Single-shot distillation: scores to posteriors to certain/uncertain to
purified clean/noisy sets, with total fallback behavior on degeneracies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .classifier import ToyClassifier
from .data import Dataset, partition_by_label
from .division import (
    FEAT_GMM,
    LOSS_GMM,
    Mixtures,
    Partition,
    ThresholdStrategy,
    compute_posteriors,
    divide_dataset,
    resolve_threshold,
)
from .errors import MetaStarved, check_fields
from .gmm import GmmConfig
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

    loss_gmm: GmmConfig = LOSS_GMM
    feat_gmm: GmmConfig = FEAT_GMM
    loss_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    sim_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    fuse_strategy: ThresholdStrategy = field(default_factory=lambda: ThresholdStrategy.fixed(0.5))
    meta: MetaTrainConfig = field(default_factory=MetaTrainConfig)
    meta_hidden: int = 10

    def __post_init__(self):
        check_fields(self, ("meta_hidden",), lambda v: v >= 1, "must be >= 1")


@dataclass
class DistillResult:
    partition: Partition
    table: ScoreTable
    fallbacks: list[str]
    # the trained meta net; None when the starved fallback fused the scores
    meta_net: ToyClassifier | None
    # the accepted fits of unscaled scores, by (class_id, space)
    mixtures: Mixtures


def run_distillation(dataset: Dataset, params: DistillParams,
                     meta_init: ToyClassifier | None = None,
                     gmm_init: Mixtures | None = None) -> DistillResult:
    """Score, divide, and purify one dataset snapshot.

    The meta net trains from ``meta_init`` when one is given (a previous
    pass's trained net, say) and from the seeded ``meta-init`` draw when
    not. Each cluster's fit in a space starts from ``gmm_init``'s mixture
    for it (a previous pass's ``mixtures``), as ``compute_posteriors``
    describes, and from the percentiles when there is none. When the
    certain set lacks positives or negatives the meta classifier cannot be
    trained; fusion falls back to the equal-weight average, the report
    notes it, and the result carries no meta net.
    """
    if meta_init is not None and meta_init.dims != (2, params.meta_hidden, 1):
        raise ValueError(f"meta_init has dims {meta_init.dims}, "
                         f"expected {(2, params.meta_hidden, 1)}")
    clusters = partition_by_label(dataset)
    table = score_dataset(dataset, clusters)
    table, fallbacks, mixtures = compute_posteriors(table, clusters, params.loss_gmm,
                                                    params.feat_gmm, gmm_init)
    partition = divide_dataset(table, clusters, params.loss_strategy, params.sim_strategy)

    try:
        meta_data = build_meta_dataset(partition, table)
        if meta_init is None:
            meta_init = ToyClassifier.initialize(
                2, params.meta_hidden, 1, seed=derive_seed(params.meta.seed, "meta-init"))
        meta_net = train_meta(meta_init, meta_data, params.meta)
        table = fuse_scores(meta_net, table)
    except MetaStarved as exc:
        meta_net = None
        fallbacks.append(f"meta_starved:weighted_average:lambda={FALLBACK_LAMBDA}:{exc}")
        table = replace(table, fused=weighted_average_baseline(
            table.posterior_loss, table.posterior_sim, FALLBACK_LAMBDA))

    cut = resolve_threshold(params.fuse_strategy, table.fused[partition.uncertain_ids])
    partition = purify(table, partition, cut, cut)
    return DistillResult(partition, table, fallbacks, meta_net, mixtures)
