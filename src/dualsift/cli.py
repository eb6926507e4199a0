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

from .data import (
    Dataset,
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    check_number_text,
    generate_synthetic,
    inject_noise,
    load_sample_table,
    read_text_lines,
    split_dataset,
    write_sample_table,
)
from .division import (FEAT_GMM, LOSS_GMM, ThresholdStrategy, read_partition_file,
                       write_partition_file)
from .errors import FieldError, NumericalError, ParseError
from .gmm import GmmConfig
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
# configuration plumbing: defaults, flat key=value config files, flag override.
# Each config key is also the flag --<key with dashes>, read as its default's type.

# config key -> (owner, field): the key sets that field of the config class
# (or that argument of split_dataset), takes its default from it, and names a
# range error in it. In the subcommands' flag order.
_FIELDS = {
    "k": (SyntheticSpec, "k"), "d": (SyntheticSpec, "d"), "n": (SyntheticSpec, "n"),
    "cluster_spread": (SyntheticSpec, "cluster_spread"),
    "logit_sharpness": (SyntheticSpec, "logit_sharpness"),
    "loss_strategy": (DistillParams, "loss_strategy"),
    "sim_strategy": (DistillParams, "sim_strategy"),
    "fuse_strategy": (DistillParams, "fuse_strategy"),
    "gmm_max_iter": (GmmConfig, "max_iter"), "gmm_tol": (GmmConfig, "tol"),
    "variance_floor": (GmmConfig, "variance_floor"), "min_fit_size": (GmmConfig, "min_fit_size"),
    "meta_lr": (MetaTrainConfig, "lr"), "meta_epochs": (MetaTrainConfig, "epochs"),
    "meta_batch": (MetaTrainConfig, "batch_size"), "meta_patience": (MetaTrainConfig, "patience"),
    "meta_hidden": (DistillParams, "meta_hidden"),
    "warmup_epochs": (TrainConfig, "warmup_epochs"), "rounds": (TrainConfig, "rounds"),
    "lr": (TrainConfig, "lr"), "lambda_u": (TrainConfig, "lambda_u"),
    "lambda_r": (TrainConfig, "lambda_r"), "ensemble": (TrainConfig, "ensemble_size"),
    "hidden": (TrainConfig, "hidden"), "batch_size": (TrainConfig, "batch_size"),
    "test_fraction": (split_dataset, "test_fraction"),
}


def _parse_noise(text: str) -> NoiseSpec | None:
    if text == "none":
        return None
    kind_txt, _, rate_txt = text.partition(":")
    try:
        kind = {"sym": NoiseKind.SYMMETRIC, "asym": NoiseKind.ASYMMETRIC}[kind_txt]
        rate = float(rate_txt)
    except (KeyError, ValueError):
        raise ValueError(f"bad noise spec {text!r}; expected sym:R, asym:R, or none") from None
    return NoiseSpec(kind=kind, rate=rate)


# config key -> parser of its spec; the config keeps the text
_SPEC_PARSERS = {"noise": _parse_noise, "loss_strategy": ThresholdStrategy.parse,
                 "sim_strategy": ThresholdStrategy.parse, "fuse_strategy": ThresholdStrategy.parse}


def _defaults(*owners) -> dict:
    """Each key that sets a field of one of ``owners``, with the field's
    default; a spec key's as its text."""
    defaults = {}
    for key, (owner, name) in _FIELDS.items():
        if owner in owners:
            value = next(f.default for f in fields(owner) if f.name == name)
            defaults[key] = str(value) if key in _SPEC_PARSERS else value
    return defaults


def _kwargs(cfg: dict, owner) -> dict:
    """The fields of ``owner`` that config keys set, each spec parsed."""
    return {name: _SPEC_PARSERS.get(key, lambda text: text)(cfg[key])
            for key, (of, name) in _FIELDS.items() if of is owner}


GENERATE_DEFAULTS = {**_defaults(SyntheticSpec), "noise": "sym:0.4", "seed": 0}
DISTILL_DEFAULTS = {**_defaults(DistillParams, GmmConfig, MetaTrainConfig), "seed": 0}
TRAIN_DEFAULTS = {**DISTILL_DEFAULTS, **_defaults(TrainConfig), "test_fraction": 0.2}


def _value_reader(key: str, default):
    """The reader of ``key``'s flag (its argparse ``type``) and config-file
    value, as ``type(default)``. A number, and a spec's after the colon,
    must not hold ``_`` or a non-ASCII character: ``int`` and ``float``
    accept both, and no file parser does. A spec must also pass its key's
    parser; the text is kept, and parsed again where it is used. A number
    that does not parse gets argparse's own message, from a flag and a
    config line alike: ``invalid int value: 'x'``."""
    kind, parse = type(default), _SPEC_PARSERS.get(key)

    def read(text: str):
        try:
            if parse is not None:
                check_number_text(text.partition(":")[2])
                parse(text)
            elif kind is not str:
                check_number_text(text)
        except (ParseError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
    return read


def _read_config_file(path: str) -> dict[str, str]:
    try:
        lines = read_text_lines(path)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(f"{path}: line {lineno}: key {key!r} already set "
                             f"on line {first_line[key]}")
        values[key], first_line[key] = raw.strip(), lineno
    return values


def _effective_config(defaults: dict, args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags. Sets
    ``args.file_keys`` to the keys whose value the file gave."""
    cfg = dict(defaults)
    args.file_keys = set()
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            try:
                cfg[key] = _value_reader(key, defaults[key])(raw)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
            args.file_keys.add(key)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
            args.file_keys.discard(key)
    return cfg


def _field_error_text(exc: FieldError, args: argparse.Namespace) -> str:
    """A config class's range error under the config key or flag that set
    the field; under the field's own name when no key sets it."""
    key = next((key for key, of in _FIELDS.items() if of == (exc.owner, exc.field)), None)
    if key is None:
        return str(exc)
    if key in args.file_keys:
        return f"config key {key!r}: {exc.detail}"
    return f"argument --{key.replace('_', '-')}: {exc.detail}"


def _distill_params(cfg: dict) -> DistillParams:
    gmm_kwargs = _kwargs(cfg, GmmConfig)
    return DistillParams(
        loss_gmm=replace(LOSS_GMM, **gmm_kwargs), feat_gmm=replace(FEAT_GMM, **gmm_kwargs),
        meta=MetaTrainConfig(**_kwargs(cfg, MetaTrainConfig),
                             seed=derive_seed(cfg["seed"], "meta")),
        **_kwargs(cfg, DistillParams),
    )


def _write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _partition_sizes(partition) -> dict:
    return {
        "n": partition.n_total,
        "s_p": int(partition.positive_ids.size),
        "s_n": int(partition.negative_ids.size),
        "s_u": int(partition.uncertain_ids.size),
        "c": int(partition.clean_ids.size),
        "u": int(partition.noisy_ids.size),
        "dropped": int(partition.dropped_ids.size),
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
    spec = SyntheticSpec(**_kwargs(cfg, SyntheticSpec), seed=derive_seed(cfg["seed"], "synthetic"))
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
    train_cfg = TrainConfig(**_kwargs(cfg, TrainConfig), seed=cfg["seed"])
    # the split holds every row of the table, which is not kept beside it
    train_set, test_set, _, _ = split_dataset(load_sample_table(args.input),
                                              cfg["test_fraction"], cfg["seed"])
    if train_set.n == 0:
        raise FieldError(split_dataset, "test_fraction", f"leaves no training samples out of "
                         f"{test_set.n}, got {cfg['test_fraction']}")
    can_score = test_set.n > 0 and test_set.has_true_labels

    ensemble = make_ensemble(train_set.feature_dim, train_set.num_classes, train_cfg)
    ensemble = warmup(ensemble, train_set, train_cfg)
    warmup_acc = ensemble_accuracy(ensemble, test_set) if can_score else None

    per_round = []
    fallbacks: list[str] = []
    # each round's pass starts from the previous round's; the meta net of
    # round 0 and of a round after a starved one starts from the seeded draw
    distilled = None
    for r in range(train_cfg.rounds):
        start = "seeded" if getattr(distilled, "meta_net", None) is None else "previous_round"
        ensemble, distilled = distill_round(ensemble, train_set, train_cfg, params,
                                            round_index=r, previous=distilled)
        fallbacks.extend(f"round={r}:{note}" for note in distilled.fallbacks)
        per_round.append({
            "round": r,
            "meta_init": start,
            "sizes": _partition_sizes(distilled.partition),
            "selection": _selection_or_none(distilled.partition, train_set),
            "accuracy": ensemble_accuracy(ensemble, test_set) if can_score else None,
        })

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for m in range(train_cfg.ensemble_size):
        save_classifier_checkpoint(ensemble.member(m), outdir / f"member_{m}.txt")
    report = {
        "config": {**cfg, "input": str(args.input)},
        "sizes": _partition_sizes(distilled.partition) if distilled is not None else None,
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
    partition = read_partition_file(args.partition)
    truth = load_sample_table(args.truth)
    if not truth.has_true_labels:
        raise ParseError("truth file lacks true labels")
    if partition.n_total != truth.n:
        raise ParseError("partition ids do not match the truth file ids")
    report = selection_metrics(partition.clean_ids, truth.clean_mask)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

# help text of the flags that carry one, by config key
_HELP = {
    "k": "class count",
    "d": "feature dimension",
    "n": "sample count",
    "noise": "sym:R, asym:R, or none",
    "loss_strategy": "loss-space threshold strategy, e.g. fixed:0.5 noise:0.4 percentile:0.36",
    "sim_strategy": "feature-space threshold strategy",
    "fuse_strategy": "fused-score threshold strategy (accept = reject cutoff)",
}


def _add_config_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=_value_reader(key, default), help=_HELP.get(key))
    sub.add_argument("--config", help="flat key = value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsift",
        description="Dual-space sample distillation for noisy-label data",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic noisy benchmark")
    gen.add_argument("-o", "--output", required=True)
    _add_config_options(gen, GENERATE_DEFAULTS)
    gen.set_defaults(func=cmd_generate)

    for name, help_text, defaults, func in (
        ("distill", "divide and purify one sample table", DISTILL_DEFAULTS, cmd_distill),
        ("train", "warm up and run distillation rounds", TRAIN_DEFAULTS, cmd_train),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("input")
        sub.add_argument("-o", "--output", required=True, help="output directory")
        _add_config_options(sub, defaults)
        sub.set_defaults(func=func)

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
    except FieldError as exc:
        print(f"error: {_field_error_text(exc, args)}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size past memory, e.g. generate --d 3000000000
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
