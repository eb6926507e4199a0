"""Command-line pipeline driver.

Subcommands: ``generate`` a synthetic noisy benchmark, ``distill`` a
sample table into a partition file plus JSON report, ``train`` the toy
semi-supervised loop with per-round reporting, and ``evaluate`` a
partition file against ground truth.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_noise,
    load_sample_table,
    split_dataset,
    write_sample_table,
)
from .division import ThresholdStrategy, write_partition_file, read_partition_file
from .errors import NumericalError, ParseError
from .gmm import GmmConfig, Orientation
from .metanet import MetaTrainConfig
from .metrics import selection_metrics
from .metrics import accuracy as ensemble_accuracy
from .pipeline import DistillParams, run_distillation
from .semisup import TrainConfig, distill_round, make_ensemble, warmup
from .classifier import save_classifier_checkpoint
from .seeding import derive_seed


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing: defaults, flat key=value config files, flag override

# config key -> field of the config class it sets; each such key takes its
# default from that field
_SPEC_KEYS = {"cluster_spread": "cluster_spread", "logit_sharpness": "logit_sharpness"}
_GMM_KEYS = {"gmm_max_iter": "max_iter", "gmm_tol": "tol",
             "variance_floor": "variance_floor", "min_fit_size": "min_fit_size"}
_META_KEYS = {"meta_lr": "lr", "meta_epochs": "epochs", "meta_batch": "batch_size",
              "meta_patience": "patience"}
_TRAIN_KEYS = {"warmup_epochs": "warmup_epochs", "rounds": "rounds", "lr": "lr",
               "lambda_u": "lambda_u", "lambda_r": "lambda_r", "ensemble": "ensemble_size",
               "hidden": "hidden", "batch_size": "batch_size"}
_STRATEGY_KEYS = ("loss_strategy", "sim_strategy", "fuse_strategy")


def _field_defaults(cls, keys: dict[str, str]) -> dict:
    default = {f.name: f.default for f in fields(cls)}
    return {key: default[name] for key, name in keys.items()}


def _kwargs(cfg: dict, keys: dict[str, str]) -> dict:
    return {name: cfg[key] for key, name in keys.items()}


_PARAMS = DistillParams()

GENERATE_DEFAULTS = {
    "k": 10, "d": 16, "n": 5000,
    **_field_defaults(SyntheticSpec, _SPEC_KEYS),
    "noise": "sym:0.4", "seed": 0,
}

DISTILL_DEFAULTS = {
    **{key: str(getattr(_PARAMS, key)) for key in _STRATEGY_KEYS},
    **_field_defaults(GmmConfig, _GMM_KEYS),
    **_field_defaults(MetaTrainConfig, _META_KEYS),
    "meta_hidden": _PARAMS.meta_hidden, "seed": 0,
}

TRAIN_DEFAULTS = {
    **DISTILL_DEFAULTS,
    **_field_defaults(TrainConfig, _TRAIN_KEYS),
    "test_fraction": 0.2,
}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def _coerce(raw: str, like) -> object:
    if isinstance(like, int) and not isinstance(like, bool):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def _effective_config(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            try:
                cfg[key] = _coerce(raw, defaults[key])
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_noise(text: str) -> NoiseSpec | None:
    if text == "none":
        return None
    try:
        kind_txt, _, rate_txt = text.partition(":")
        kind = {"sym": NoiseKind.SYMMETRIC, "asym": NoiseKind.ASYMMETRIC}[kind_txt]
        rate = float(rate_txt)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad noise spec {text!r}; expected sym:R, asym:R, or none") from exc
    return NoiseSpec(kind=kind, rate=rate)


def _distill_params(cfg: dict) -> DistillParams:
    gmm_kwargs = _kwargs(cfg, _GMM_KEYS)
    return DistillParams(
        loss_gmm=GmmConfig(Orientation.SMALLER_MEAN_CLEAN, **gmm_kwargs),
        feat_gmm=GmmConfig(Orientation.LARGER_MEAN_CLEAN, **gmm_kwargs),
        **{key: ThresholdStrategy.parse(cfg[key]) for key in _STRATEGY_KEYS},
        meta=MetaTrainConfig(**_kwargs(cfg, _META_KEYS), seed=derive_seed(cfg["seed"], "meta")),
        meta_hidden=cfg["meta_hidden"],
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _partition_sizes(partition) -> dict:
    return {
        "n": partition.n_total,
        "s_p": int(partition.positive_ids.size),
        "s_n": int(partition.negative_ids.size),
        "s_u": int(partition.uncertain_ids.size),
        "c": int(partition.clean_ids.size) if partition.purified else None,
        "u": int(partition.noisy_ids.size) if partition.purified else None,
        "dropped": int(partition.dropped_ids.size) if partition.purified else None,
    }


def _selection_or_none(partition, dataset: Dataset):
    if not dataset.has_true_labels:
        return None
    return selection_metrics(partition.clean_ids, dataset.clean_mask).to_dict()


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _effective_config(GENERATE_DEFAULTS, args)
    noise = _parse_noise(cfg["noise"])
    spec = SyntheticSpec(k=cfg["k"], d=cfg["d"], n=cfg["n"], **_kwargs(cfg, _SPEC_KEYS),
                         seed=derive_seed(cfg["seed"], "synthetic"))
    dataset = generate_synthetic(spec)
    if noise is not None:
        noise = replace(noise, seed=derive_seed(cfg["seed"], "noise"))
        dataset = inject_noise(dataset, noise)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sample_table(dataset, out)
    flipped = float((dataset.noisy_labels != dataset.true_labels).mean()) if dataset.n else 0.0
    print(f"wrote {out}: n={dataset.n} k={dataset.num_classes} d={dataset.feature_dim} "
          f"flipped={flipped:.4f}")
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    cfg = _effective_config(DISTILL_DEFAULTS, args)
    params = _distill_params(cfg)
    dataset = load_sample_table(args.input)
    result = run_distillation(dataset, params)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_partition_file(result.partition, outdir / "partition.csv")
    report = {
        "config": {**cfg, "input": str(args.input)},
        "sizes": _partition_sizes(result.partition),
        "selection": _selection_or_none(result.partition, dataset),
        "per_round": [],
        "accuracy": None,
        "fallbacks": result.fallbacks,
    }
    _write_report(report, outdir / "report.json")
    sizes = report["sizes"]
    print(f"wrote {outdir / 'partition.csv'} and {outdir / 'report.json'}: "
          f"|S_p|={sizes['s_p']} |S_n|={sizes['s_n']} |S_u|={sizes['s_u']} "
          f"|C|={sizes['c']} |U|={sizes['u']}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _effective_config(TRAIN_DEFAULTS, args)
    params = _distill_params(cfg)
    train_cfg = TrainConfig(**_kwargs(cfg, _TRAIN_KEYS), seed=cfg["seed"])
    dataset = load_sample_table(args.input)
    train_set, test_set, _, _ = split_dataset(dataset, cfg["test_fraction"], cfg["seed"])
    can_score = test_set.n > 0 and test_set.has_true_labels

    ensemble = make_ensemble(train_set.feature_dim, train_set.num_classes, train_cfg)
    ensemble = warmup(ensemble, train_set, train_cfg.warmup_epochs, train_cfg.lr,
                      derive_seed(train_cfg.seed, "warmup"), train_cfg.batch_size)
    warmup_acc = ensemble_accuracy(ensemble, test_set) if can_score else None

    per_round = []
    fallbacks: list[str] = []
    last_partition = None
    for r in range(train_cfg.rounds):
        result = distill_round(ensemble, train_set, train_cfg, params, round_index=r)
        ensemble = result.ensemble
        last_partition = result.partition
        fallbacks.extend(f"round={r}:{note}" for note in result.fallbacks)
        per_round.append({
            "round": r,
            "sizes": _partition_sizes(result.partition),
            "selection": _selection_or_none(result.partition, train_set),
            "accuracy": ensemble_accuracy(ensemble, test_set) if can_score else None,
        })

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for m, clf in enumerate(ensemble):
        save_classifier_checkpoint(clf, outdir / f"member_{m}.txt")
    report = {
        "config": {**cfg, "input": str(args.input)},
        "sizes": _partition_sizes(last_partition) if last_partition is not None else None,
        "selection": per_round[-1]["selection"] if per_round else None,
        "per_round": per_round,
        "accuracy": per_round[-1]["accuracy"] if per_round else warmup_acc,
        "warmup_accuracy": warmup_acc,
        "fallbacks": fallbacks,
    }
    _write_report(report, outdir / "report.json")
    print(f"wrote {outdir / 'report.json'}: warmup_accuracy={warmup_acc} "
          f"final_accuracy={report['accuracy']}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tags = read_partition_file(args.partition)
    truth = load_sample_table(args.truth)
    if not truth.has_true_labels:
        raise ParseError("truth file lacks true labels")
    if set(tags) != set(range(truth.n)):
        raise ParseError("partition ids do not match the truth file ids")
    selected = np.array(sorted(i for i, tag in tags.items() if tag in ("P", "C")),
                        dtype=np.int64)
    report = selection_metrics(selected, truth.clean_mask)
    print(json.dumps(_jsonable(report.to_dict()), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_config_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags override it")


def _add_distill_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--loss-strategy", dest="loss_strategy",
                     help="loss-space threshold strategy, e.g. fixed:0.5 noise:0.4 percentile:0.36")
    sub.add_argument("--sim-strategy", dest="sim_strategy",
                     help="feature-space threshold strategy")
    sub.add_argument("--fuse-strategy", dest="fuse_strategy",
                     help="fused-score threshold strategy (accept = reject cutoff)")
    sub.add_argument("--gmm-max-iter", dest="gmm_max_iter", type=int)
    sub.add_argument("--gmm-tol", dest="gmm_tol", type=float)
    sub.add_argument("--variance-floor", dest="variance_floor", type=float)
    sub.add_argument("--min-fit-size", dest="min_fit_size", type=int)
    sub.add_argument("--meta-lr", dest="meta_lr", type=float)
    sub.add_argument("--meta-epochs", dest="meta_epochs", type=int)
    sub.add_argument("--meta-batch", dest="meta_batch", type=int)
    sub.add_argument("--meta-patience", dest="meta_patience", type=int)
    sub.add_argument("--meta-hidden", dest="meta_hidden", type=int)
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsift",
        description="Dual-space sample distillation for noisy-label data",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic noisy benchmark")
    gen.add_argument("--k", type=int, help="class count")
    gen.add_argument("--d", type=int, help="feature dimension")
    gen.add_argument("--n", type=int, help="sample count")
    gen.add_argument("--cluster-spread", dest="cluster_spread", type=float)
    gen.add_argument("--logit-sharpness", dest="logit_sharpness", type=float)
    gen.add_argument("--noise", help="sym:R, asym:R, or none")
    gen.add_argument("--seed", type=int)
    gen.add_argument("-o", "--output", required=True)
    _add_config_option(gen)
    gen.set_defaults(func=cmd_generate)

    dis = subs.add_parser("distill", help="divide and purify one sample table")
    dis.add_argument("input")
    dis.add_argument("-o", "--output", required=True, help="output directory")
    _add_distill_options(dis)
    _add_config_option(dis)
    dis.set_defaults(func=cmd_distill)

    trn = subs.add_parser("train", help="warm up and run distillation rounds")
    trn.add_argument("input")
    trn.add_argument("-o", "--output", required=True, help="output directory")
    trn.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    trn.add_argument("--rounds", type=int)
    trn.add_argument("--lr", type=float)
    trn.add_argument("--lambda-u", dest="lambda_u", type=float)
    trn.add_argument("--lambda-r", dest="lambda_r", type=float)
    trn.add_argument("--ensemble", type=int)
    trn.add_argument("--hidden", type=int)
    trn.add_argument("--batch-size", dest="batch_size", type=int)
    trn.add_argument("--test-fraction", dest="test_fraction", type=float)
    _add_distill_options(trn)
    _add_config_option(trn)
    trn.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="score a partition file against ground truth")
    ev.add_argument("partition")
    ev.add_argument("truth")
    ev.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
