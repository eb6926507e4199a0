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
from .division import ThresholdStrategy, write_partition_file, read_partition_file
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
# Each config key is also the flag --<key with dashes>, typed as its default.

# config key -> field of the config class it sets; each such key takes its
# default from that field, and a range error in the field names the key
_SPEC_KEYS = {"k": "k", "d": "d", "n": "n",
              "cluster_spread": "cluster_spread", "logit_sharpness": "logit_sharpness"}
_GMM_KEYS = {"gmm_max_iter": "max_iter", "gmm_tol": "tol",
             "variance_floor": "variance_floor", "min_fit_size": "min_fit_size"}
_META_KEYS = {"meta_lr": "lr", "meta_epochs": "epochs", "meta_batch": "batch_size",
              "meta_patience": "patience"}
_TRAIN_KEYS = {"warmup_epochs": "warmup_epochs", "rounds": "rounds", "lr": "lr",
               "lambda_u": "lambda_u", "lambda_r": "lambda_r", "ensemble": "ensemble_size",
               "hidden": "hidden", "batch_size": "batch_size"}
_PARAMS_KEYS = {"meta_hidden": "meta_hidden"}
_STRATEGY_KEYS = ("loss_strategy", "sim_strategy", "fuse_strategy")
_KEYS_OF = {SyntheticSpec: _SPEC_KEYS, GmmConfig: _GMM_KEYS, MetaTrainConfig: _META_KEYS,
            TrainConfig: _TRAIN_KEYS, DistillParams: _PARAMS_KEYS,
            split_dataset: {"test_fraction": "test_fraction"}}


def _field_defaults(cls, keys: dict[str, str]) -> dict:
    default = {f.name: f.default for f in fields(cls)}
    return {key: default[name] for key, name in keys.items()}


def _kwargs(cfg: dict, keys: dict[str, str]) -> dict:
    return {name: cfg[key] for key, name in keys.items()}


_PARAMS = DistillParams()

GENERATE_DEFAULTS = {
    **_field_defaults(SyntheticSpec, _SPEC_KEYS),
    "noise": "sym:0.4", "seed": 0,
}

DISTILL_DEFAULTS = {
    **{key: str(getattr(_PARAMS, key)) for key in _STRATEGY_KEYS},
    **_field_defaults(GmmConfig, _GMM_KEYS),
    **_field_defaults(MetaTrainConfig, _META_KEYS),
    **_field_defaults(DistillParams, _PARAMS_KEYS), "seed": 0,
}

TRAIN_DEFAULTS = {
    **DISTILL_DEFAULTS,
    **_field_defaults(TrainConfig, _TRAIN_KEYS),
    "test_fraction": 0.2,
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


def _value_type(kind: type, parse=None):
    """Read a flag or config value as ``kind``. Its number (a spec's, after
    the colon) must not hold ``_`` or a non-ASCII character: ``int`` and
    ``float`` accept both, and no file parser does. A spec must also pass
    ``parse``; the text is kept, and parsed again where it is used. A
    number that does not parse gets argparse's own message, from a flag
    and a config line alike: ``invalid int value: 'x'``."""
    def read(text: str):
        try:
            check_number_text(text.partition(":")[2] if kind is str else text)
            if parse is not None:
                parse(text)
        except (ParseError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
    return read


# config key -> parser of its spec; the spec keys of one subcommand share a parser
_SPEC_PARSERS = {"noise": _parse_noise,
                 **dict.fromkeys(_STRATEGY_KEYS, ThresholdStrategy.parse)}


def _value_types(defaults: dict) -> dict:
    """One subcommand's value readers, by declared type."""
    (parse,) = {_SPEC_PARSERS[key] for key, value in defaults.items() if type(value) is str}
    return {int: _value_type(int), float: _value_type(float), str: _value_type(str, parse)}


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
    readers = _value_types(defaults)
    args.file_keys = set()
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            try:
                cfg[key] = readers[type(defaults[key])](raw)
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
    key = next((key for key, name in _KEYS_OF.get(exc.owner, {}).items()
                if name == exc.field), None)
    if key is None:
        return str(exc)
    if key in args.file_keys:
        return f"config key {key!r}: {exc.detail}"
    return f"argument --{key.replace('_', '-')}: {exc.detail}"


def _distill_params(cfg: dict) -> DistillParams:
    gmm_kwargs = _kwargs(cfg, _GMM_KEYS)
    return DistillParams(
        loss_gmm=replace(_PARAMS.loss_gmm, **gmm_kwargs),
        feat_gmm=replace(_PARAMS.feat_gmm, **gmm_kwargs),
        **{key: ThresholdStrategy.parse(cfg[key]) for key in _STRATEGY_KEYS},
        meta=MetaTrainConfig(**_kwargs(cfg, _META_KEYS), seed=derive_seed(cfg["seed"], "meta")),
        **_kwargs(cfg, _PARAMS_KEYS),
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
    spec = SyntheticSpec(**_kwargs(cfg, _SPEC_KEYS), seed=derive_seed(cfg["seed"], "synthetic"))
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
    # the split holds every row of the table, which is not kept beside it
    train_set, test_set, _, _ = split_dataset(load_sample_table(args.input),
                                              cfg["test_fraction"], cfg["seed"])
    if train_set.n == 0:
        raise UsageError(f"test_fraction {cfg['test_fraction']} leaves no training "
                         f"samples out of {test_set.n}")
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
        result = distill_round(ensemble, train_set, train_cfg, params, round_index=r,
                               previous=distilled)
        ensemble, distilled = result.ensemble, result.distilled
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
    # a flag keeps its plain type; the parser converts it with that type's reader
    for kind, read in _value_types(defaults).items():
        sub.register("type", kind, read)
    for key, default in defaults.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                         help=_HELP.get(key))
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
