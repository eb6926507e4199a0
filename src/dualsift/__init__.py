"""Dual-space sample distillation for learning with noisy labels."""

from .classifier import ToyClassifier, load_classifier_checkpoint, save_classifier_checkpoint
from .data import (
    Dataset,
    NoiseKind,
    NoiseSpec,
    NoisyCluster,
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
from .errors import DegenerateFit, MetaStarved, NoCenter, NumericalError, ParseError
from .gmm import Gmm1d, GmmConfig, Orientation, fit_gmm1d, posteriors
from .metanet import (
    MetaDataset,
    MetaNet,
    MetaTrainConfig,
    build_meta_dataset,
    fuse_scores,
    load_meta_checkpoint,
    meta_loss_and_grads,
    purify,
    save_meta_checkpoint,
    train_meta,
    weighted_average_baseline,
)
from .metrics import SelectionReport, accuracy, selection_metrics
from .pipeline import DistillParams, DistillResult, run_distillation
from .scores import ScoreTable, class_center, score_dataset
from .seeding import derive_seed, rng_from
from .semisup import (
    RoundResult,
    TrainConfig,
    distill_round,
    ensemble_outputs,
    make_ensemble,
    warmup,
)

__version__ = "0.1.0"
