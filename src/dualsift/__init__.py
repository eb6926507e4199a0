"""Dual-space sample distillation for learning with noisy labels."""

from .classifier import (
    ToyClassifier,
    ensemble_outputs,
    load_classifier_checkpoint,
    save_classifier_checkpoint,
)
from .data import (
    Dataset,
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_noise,
    load_sample_table,
    partition_by_label,
    split_dataset,
    write_sample_table,
)
from .division import (
    Partition,
    StrategyKind,
    ThresholdStrategy,
    compute_posteriors,
    divide_cluster,
    divide_dataset,
    read_partition_file,
    resolve_threshold,
    write_partition_file,
)
from .errors import DegenerateFit, FieldError, MetaStarved, NumericalError, ParseError
from .gmm import Gmm1d, GmmConfig, Orientation, fit_gmm1d, posteriors
from .metanet import (
    MetaDataset,
    MetaTrainConfig,
    build_meta_dataset,
    fuse_scores,
    meta_grads,
    meta_scores,
    purify,
    train_meta,
    weighted_average_baseline,
)
from .metrics import SelectionReport, accuracy, selection_metrics
from .pipeline import DistillParams, DistillResult, run_distillation
from .scores import ScoreTable, score_dataset
from .seeding import derive_seed, rng_from
from .semisup import (
    TrainConfig,
    distill_round,
    make_ensemble,
    warmup,
)

__version__ = "0.1.0"
