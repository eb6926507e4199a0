import argparse
import json
import os
import subprocess
import warnings

import numpy as np
import pytest

import reference
from dualsift import (
    Dataset,
    DistillParams,
    MetaStarved,
    MetaTrainConfig,
    ParseError,
    ToyClassifier,
    TrainConfig,
    derive_seed,
    load_classifier_checkpoint,
    load_sample_table,
    read_partition_file,
    save_classifier_checkpoint,
    split_dataset,
    write_sample_table,
)
from dualsift import cli, division, pipeline
from dualsift.cli import (
    DISTILL_DEFAULTS,
    GENERATE_DEFAULTS,
    TRAIN_DEFAULTS,
    _effective_config,
    build_parser,
    main,
)

REPORT_KEYS = {"config", "sizes", "selection", "per_round", "accuracy", "fallbacks"}


def run(args):
    return main([str(a) for a in args])


def small_benchmark(tmp_path, n=800, noise="sym:0.4", seed=3, spread=None):
    path = tmp_path / "data.csv"
    args = ["generate", "--k", 5, "--d", 8, "--n", n, "--noise", noise,
            "--seed", seed, "-o", path]
    if spread is not None:
        args += ["--cluster-spread", spread]
    assert run(args) == 0
    return path


# ------------------------------------------------------------------ defaults

def test_defaults_pinned():
    # derived from the config classes; a changed class default must fail here
    generate = {"k": 10, "d": 16, "n": 5000, "cluster_spread": 0.32,
                "logit_sharpness": 3.0, "noise": "sym:0.4", "seed": 0}
    distill = {
        "loss_strategy": "fixed:0.5", "sim_strategy": "fixed:0.5",
        "fuse_strategy": "fixed:0.5", "gmm_max_iter": 100, "gmm_tol": 1e-06,
        "variance_floor": 1e-06, "min_fit_size": 8, "meta_lr": 0.2, "meta_epochs": 30,
        "meta_batch": 64, "meta_patience": 5, "meta_hidden": 10, "seed": 0,
    }
    train = {**distill, "warmup_epochs": 10, "rounds": 5, "lr": 0.04, "lambda_u": 3.0,
             "lambda_r": 1.0, "ensemble": 2, "hidden": 64, "batch_size": 8,
             "test_fraction": 0.2}
    for got, want in ((GENERATE_DEFAULTS, generate), (DISTILL_DEFAULTS, distill),
                      (TRAIN_DEFAULTS, train)):
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


def flag(key):
    return "--" + key.replace("_", "-")


# a valid value other than the default, by the default's type
NON_DEFAULT = {int: "7", float: "0.125", str: "percentile:0.3"}


def non_default(key, defaults):
    # noise is the one string key that takes no threshold strategy
    return "asym:0.3" if key == "noise" else NON_DEFAULT[type(defaults[key])]


@pytest.mark.parametrize("name, defaults", [
    ("generate", GENERATE_DEFAULTS), ("distill", DISTILL_DEFAULTS),
    ("train", TRAIN_DEFAULTS), ("evaluate", {}),
])
def test_flags_are_config_keys(name, defaults):
    # one --<key with dashes> flag per config key, read as its default's type
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[name]
    options = [a for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    want = {flag(key) for key in defaults}
    if defaults:
        want |= {"-o", "--output", "--config"}
    assert {opt for a in options for opt in a.option_strings} == want
    by_dest = {a.dest: a for a in options}
    for key, default in defaults.items():
        assert by_dest[key].option_strings == [flag(key)]
        assert by_dest[key].default is None
        # the converter argparse applies to the flag's text
        read = sub._registry_get("type", by_dest[key].type, by_dest[key].type)
        assert type(read(non_default(key, defaults))) is type(default)
        with pytest.raises(argparse.ArgumentTypeError):
            read("1_0")


# subcommand -> (its arguments before the options, its config defaults)
COMMANDS = {"generate": (["generate"], GENERATE_DEFAULTS),
            "distill": (["distill", "DATA"], DISTILL_DEFAULTS),
            "train": (["train", "DATA"], TRAIN_DEFAULTS)}


# train's cases keep their bare key as id
@pytest.mark.parametrize("name, key", [
    pytest.param(name, key, id=key if name == "train" else f"{name}-{key}")
    for name, (_, defaults) in COMMANDS.items() for key in sorted(defaults)
])
def test_config_file_value_matches_flag(tmp_path, name, key):
    head, defaults = COMMANDS[name]
    raw = non_default(key, defaults)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    parse = build_parser().parse_args
    via_file = _effective_config(defaults, parse([*head, "-o", "out", "--config", str(cfg)]))
    via_flag = _effective_config(defaults, parse([*head, "-o", "out", flag(key), raw]))
    assert via_file == via_flag
    assert via_file[key] != defaults[key]
    assert type(via_file[key]) is type(defaults[key])


# ------------------------------------------------------------------- generate

def test_generate_row_count(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["generate", "--k", 10, "--d", 16, "--n", 5000,
                "--noise", "sym:0.4", "--seed", 1, "-o", out])
    assert code == 0
    ds = load_sample_table(out)
    assert ds.n == 5000 and ds.num_classes == 10 and ds.feature_dim == 16
    assert "flipped=" in capsys.readouterr().out


def test_generate_starts_no_child_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    assert run(["generate", "--n", 50_000, "--seed", 1, "-o", tmp_path / "g.csv"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.npz"]


def test_generate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["generate", "--k", 4, "--d", 4, "--n", 200,
                    "--noise", "asym:0.3", "--seed", 9, "-o", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_bad_noise_rate_usage_error(tmp_path):
    code = run(["generate", "--k", 4, "--d", 4, "--n", 50,
                "--noise", "sym:1.5", "--seed", 1, "-o", tmp_path / "x.csv"])
    assert code == 2


def test_generate_bad_noise_kind_usage_error(tmp_path):
    assert run(["generate", "--noise", "weird:0.2", "-o", tmp_path / "x.csv"]) == 2


def test_generate_none_noise_keeps_labels(tmp_path):
    out = tmp_path / "clean.csv"
    assert run(["generate", "--k", 3, "--d", 3, "--n", 60, "--noise", "none",
                "--seed", 2, "-o", out]) == 0
    ds = load_sample_table(out)
    np.testing.assert_array_equal(ds.noisy_labels, ds.true_labels)


# -------------------------------------------------------------------- distill

def test_distill_noiseless_small_uncertain(tmp_path, capsys):
    data = tmp_path / "clean.csv"
    assert run(["generate", "--k", 10, "--d", 16, "--n", 2000, "--noise", "none",
                "--cluster-spread", 0.05, "--seed", 4, "-o", data]) == 0
    outdir = tmp_path / "out"
    assert run(["distill", data, "-o", outdir,
                "--loss-strategy", "percentile:0.0",
                "--sim-strategy", "percentile:0.0",
                "--fuse-strategy", "noise:0.0"]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["sizes"]["s_u"] / report["sizes"]["n"] < 0.05
    # noiseless data starves the meta classifier of negatives; the report
    # must note the weighted-average fallback
    assert any("meta_starved" in note for note in report["fallbacks"])


def test_distill_untrained_meta_net_is_a_reported_fallback(tmp_path):
    data = tmp_path / "data.csv"
    assert run(["generate", "--k", 4, "--d", 8, "--n", 300, "--noise", "asym:0.3",
                "--seed", 9, "-o", data]) == 0
    outdir = tmp_path / "out"
    assert run(["distill", data, "-o", outdir, "--meta-lr", "1e100"]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["fallbacks"] == ["meta_untrained:weighted_average:lambda=0.5:"
                                   "no epoch lowered the training BCE of the seeded start"]


def test_distill_logits_past_the_float64_range_select_as_in_range_ones(tmp_path):
    # each logit at +-1.79e308 by its sign against the row mean: a row's
    # spread passes the float64 range, and the run used to warn "overflow
    # encountered in subtract" and exit 2 from the mixture fit. Each such loss
    # is capped at the largest float, which selects as the +-1e307 table does
    data = tmp_path / "g.csv"
    assert run(["generate", "--k", 4, "--d", 8, "--n", 600, "--noise", "sym:0.4",
                "--seed", 1, "-o", data]) == 0
    ds = load_sample_table(data)
    above = ds.logits >= ds.logits.mean(axis=1, keepdims=True)
    parts = []
    for top in (1.79e308, 1e307):
        table, outdir = tmp_path / f"{top:g}.csv", tmp_path / f"{top:g}"
        write_sample_table(ds.with_representation(ds.features, np.where(above, top, -top)), table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["distill", table, "-o", outdir]) == 0
        assert json.loads((outdir / "report.json").read_text())["fallbacks"] == []
        parts.append((outdir / "partition.csv").read_bytes())
    assert parts[0] == parts[1]


def test_distill_selection_only_with_truth(tmp_path):
    data = small_benchmark(tmp_path)
    ds = load_sample_table(data)
    hidden = Dataset(ds.features, ds.logits, ds.noisy_labels,
                     np.full(ds.n, -1, dtype=np.int64))
    blind = tmp_path / "blind.csv"
    write_sample_table(hidden, blind)
    out_truth, out_blind = tmp_path / "t", tmp_path / "b"
    assert run(["distill", data, "-o", out_truth]) == 0
    assert run(["distill", blind, "-o", out_blind]) == 0
    with_truth = json.loads((out_truth / "report.json").read_text())
    without = json.loads((out_blind / "report.json").read_text())
    assert with_truth["selection"] is not None and "f1" in with_truth["selection"]
    assert without["selection"] is None


def test_distill_deterministic(tmp_path):
    data = small_benchmark(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert run(["distill", data, "-o", outdir, "--seed", 7]) == 0
        outs.append(outdir)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "partition.csv").read_bytes() == (outs[1] / "partition.csv").read_bytes()


def test_distill_report_schema(tmp_path):
    data = small_benchmark(tmp_path)
    outdir = tmp_path / "out"
    assert run(["distill", data, "-o", outdir]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert REPORT_KEYS <= set(report)
    sizes = report["sizes"]
    assert {"n", "s_p", "s_n", "s_u", "c", "u", "dropped"} == set(sizes)
    assert sizes["s_p"] + sizes["s_n"] + sizes["s_u"] == sizes["n"]
    assert sizes["c"] + sizes["u"] + sizes["dropped"] == sizes["n"]
    assert isinstance(report["fallbacks"], list)
    assert report["per_round"] == [] and report["accuracy"] is None


def test_distill_partition_file_tags(tmp_path):
    data = small_benchmark(tmp_path)
    outdir = tmp_path / "out"
    assert run(["distill", data, "-o", outdir]) == 0
    lines = (outdir / "partition.csv").read_text().splitlines()
    assert len(lines) == 800
    tags = {line.split(",")[1] for line in lines}
    assert tags <= {"P", "N", "C", "UN", "DROPPED", "U"}


def test_distill_missing_input_is_data_error(tmp_path):
    assert run(["distill", tmp_path / "absent.csv", "-o", tmp_path / "o"]) == 3


TABLE_HEADER = b"id,noisy_label,true_label,feat_0,logit_0,logit_1\n"


def test_distill_id_past_int64_is_data_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_bytes(TABLE_HEADER + b"0,0,0,0.5,1.0,0.0\n99999999999999999999,1,1,1.5,-1.0,2.0\n")
    assert run(["distill", data, "-o", tmp_path / "o"]) == 3
    assert capsys.readouterr().err.startswith("error: line 3: ")


NOT_UTF8_TABLE = TABLE_HEADER + b"0,0,0,0.5,1.0,0.0\r1,1,1,1.5,-1.0,\xff2.0\n"


def test_distill_not_utf8_is_data_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(NOT_UTF8_TABLE)
    assert run(["distill", data, "-o", tmp_path / "o"]) == 3
    # the lone carriage return ends line 2, as in every other parse error
    assert capsys.readouterr().err.startswith("error: line 3: ")


@pytest.mark.parametrize("hidden", [0, -1])
def test_distill_bad_meta_hidden_usage_error(tmp_path, capsys, hidden):
    data = small_benchmark(tmp_path, n=600, noise="asym:0.3", seed=9)
    capsys.readouterr()
    assert run(["distill", data, "-o", tmp_path / "o", "--meta-hidden", hidden]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("patience", [0, -3])
def test_distill_bad_meta_patience_usage_error(tmp_path, capsys, patience):
    data = small_benchmark(tmp_path, n=600, noise="asym:0.3", seed=9)
    capsys.readouterr()
    assert run(["distill", data, "-o", tmp_path / "o", "--meta-patience", patience]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "patience" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [
    ("distill", "--gmm-tol"), ("distill", "--variance-floor"), ("distill", "--meta-lr"),
    ("train", "--lr"), ("train", "--lambda-u"), ("train", "--lambda-r"),
])
def test_non_finite_float_flag_usage_error(tmp_path, capsys, command, flag, value):
    data = small_benchmark(tmp_path, n=600, noise="asym:0.3", seed=9)
    capsys.readouterr()
    assert run([command, data, "-o", tmp_path / "o", flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--lambda-u", -3), ("train", "--lambda-r", -3),
    ("distill", "--min-fit-size", -5), ("distill", "--min-fit-size", 0),
])
def test_negative_weight_or_fit_size_usage_error(tmp_path, capsys, command, flag, value):
    # these used to exit 0: a negated loss term, or a fit of any size
    data = small_benchmark(tmp_path, n=600, noise="asym:0.3", seed=9)
    capsys.readouterr()
    assert run([command, data, "-o", tmp_path / "o", flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: must be")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------- train

def test_train_empty_train_split_usage_error(tmp_path, capsys):
    # 0.9 of 2 rows rounds to 2 test rows; this used to exit 0 with n 0
    # after two RuntimeWarnings
    path = tmp_path / "two.csv"
    write_sample_table(Dataset(np.eye(2), np.eye(2), [0, 1], [0, 1]), path)
    assert run(["train", path, "-o", tmp_path / "o", "--test-fraction", 0.9]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: argument --test-fraction: leaves no training samples out of 2, got 0.9"]
    assert not (tmp_path / "o").exists()


def test_train_rounds_zero_warmup_only(tmp_path):
    data = small_benchmark(tmp_path, n=400)
    outdir = tmp_path / "out"
    assert run(["train", data, "-o", outdir, "--rounds", 0,
                "--warmup-epochs", 2, "--seed", 5]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["per_round"] == []
    assert report["warmup_accuracy"] is not None
    assert report["accuracy"] == report["warmup_accuracy"]
    assert report["sizes"] is None


def test_train_per_round_series_shape(tmp_path):
    data = small_benchmark(tmp_path, n=600)
    outdir = tmp_path / "out"
    assert run(["train", data, "-o", outdir, "--rounds", 2,
                "--warmup-epochs", 2, "--seed", 5]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert len(report["per_round"]) == 2
    for i, entry in enumerate(report["per_round"]):
        assert entry["round"] == i
        assert entry["selection"] is not None and "f1" in entry["selection"]
        assert entry["accuracy"] is not None
    assert (outdir / "member_0.txt").exists() and (outdir / "member_1.txt").exists()


def test_train_benchmark_improves_over_warmup(train_run):
    report = train_run["report"]
    assert report["accuracy"] > report["warmup_accuracy"]
    assert len(report["per_round"]) == 5


def test_train_deterministic_reduced(tmp_path):
    data = small_benchmark(tmp_path, n=400)
    reports = []
    for name in ("t1", "t2"):
        outdir = tmp_path / name
        assert run(["train", data, "-o", outdir, "--rounds", 1,
                    "--warmup-epochs", 2, "--seed", 5]) == 0
        reports.append((outdir / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_train_config_file_with_flag_override(tmp_path):
    data = small_benchmark(tmp_path, n=400)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rounds = 1\nwarmup_epochs = 2\nseed = 5\n# comment\n")
    outdir = tmp_path / "out"
    assert run(["train", data, "-o", outdir, "--config", cfg, "--rounds", 0]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["config"]["rounds"] == 0          # flag wins
    assert report["config"]["warmup_epochs"] == 2   # file wins over default
    assert report["config"]["seed"] == 5


def test_train_unknown_config_key(tmp_path):
    data = small_benchmark(tmp_path, n=400)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert run(["train", data, "-o", tmp_path / "out", "--config", cfg]) == 2


@pytest.mark.parametrize("text, message", [
    (b"n = 50\n# again\nn = 40\n", "line 3: key 'n' already set on line 1"),
    (b"n = 50\n\nk = 4\xff\n", "line 3: 'utf-8' codec can't decode byte 0xff"),
    (b"n = 50\nk 4\n", "line 2: expected key = value"),
], ids=["key-twice", "non-utf8", "no-equals"])
def test_config_file_error_names_the_file_and_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    capsys.readouterr()
    assert run(["generate", "--config", cfg, "-o", tmp_path / "g.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {message}"), err
    assert not (tmp_path / "g.csv").exists()


def three_rounds_args(data, outdir):
    return ["train", data, "-o", outdir, "--rounds", 3, "--warmup-epochs", 2,
            "--seed", 5, "--test-fraction", 0.25]


def test_train_rounds_chain_meta_nets_as_the_reference(tmp_path):
    # each round's meta net starts from the previous round's trained net; the
    # member checkpoints carry the bits of a trainer that passes it by hand
    data = small_benchmark(tmp_path, n=600)
    outdir = tmp_path / "out"
    assert run(three_rounds_args(data, outdir)) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [entry["meta_init"] for entry in report["per_round"]] == \
        ["seeded", "previous_round", "previous_round"]
    assert report["fallbacks"] == []
    train_set = split_dataset(load_sample_table(data), 0.25, 5)[0]
    cfg = TrainConfig(warmup_epochs=2, rounds=3, seed=5)
    params = DistillParams(meta=MetaTrainConfig(seed=derive_seed(5, "meta")))
    want = reference.train_rounds(train_set, cfg, params, 3)
    cold = reference.train_rounds(train_set, cfg, params, 3, carry=False)
    for m in range(cfg.ensemble_size):
        got = load_classifier_checkpoint(outdir / f"member_{m}.txt")
        assert np.array_equal(got.flat, want.member(m).flat)
        assert not np.array_equal(got.flat, cold.member(m).flat)


def test_train_rounds_with_an_untrained_meta_net_fuse_as_the_reference(tmp_path):
    # no epoch lowers the BCE at this meta lr: each round fuses with the
    # average and hands no net on, so the next round trains the seeded draw
    data = tmp_path / "data.csv"
    assert run(["generate", "--k", 4, "--d", 8, "--n", 300, "--noise", "asym:0.3",
                "--seed", 9, "-o", data]) == 0
    outdir = tmp_path / "out"
    assert run(["train", data, "-o", outdir, "--rounds", 3, "--seed", 0,
                "--meta-lr", "1e100"]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [entry["meta_init"] for entry in report["per_round"]] == ["seeded"] * 3
    assert [note.split(":")[:2] for note in report["fallbacks"]] == \
        [[f"round={r}", "meta_untrained"] for r in range(3)]
    train_set = split_dataset(load_sample_table(data), 0.2, 0)[0]
    cfg = TrainConfig(rounds=3, seed=0)
    params = DistillParams(meta=MetaTrainConfig(lr=1e100, seed=derive_seed(0, "meta")))
    want = reference.train_rounds(train_set, cfg, params, 3)
    for m in range(cfg.ensemble_size):
        got = load_classifier_checkpoint(outdir / f"member_{m}.txt")
        assert np.array_equal(got.flat, want.member(m).flat)


def test_train_round_after_a_starved_round_starts_from_the_seeded_draw(tmp_path, monkeypatch):
    data = small_benchmark(tmp_path, n=600)
    calls, starts = [], []
    real_build, real_train = pipeline.build_meta_dataset, pipeline.train_meta

    def build(partition, table):
        calls.append(None)
        if len(calls) == 2:
            raise MetaStarved("forced in round 1")
        return real_build(partition, table)

    def train(net, meta_data, config):
        starts.append(net.flat.copy())
        return real_train(net, meta_data, config)

    monkeypatch.setattr(pipeline, "build_meta_dataset", build)
    monkeypatch.setattr(pipeline, "train_meta", train)
    outdir = tmp_path / "out"
    assert run(three_rounds_args(data, outdir)) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [entry["meta_init"] for entry in report["per_round"]] == \
        ["seeded", "previous_round", "seeded"]
    assert [note.split(":")[:2] for note in report["fallbacks"]] == \
        [["round=1", "meta_starved"]]
    seeded = ToyClassifier.initialize(2, DISTILL_DEFAULTS["meta_hidden"], 1,
                                      seed=derive_seed(derive_seed(5, "meta"), "meta-init"))
    assert len(starts) == 2
    for start in starts:
        assert np.array_equal(start, seeded.flat)


def test_distill_fits_from_the_percentiles_and_train_rounds_from_the_last_fits(
        tmp_path, monkeypatch):
    # 5 classes x 2 spaces fits per pass, none rejected; only train's rounds
    # after the first start from a previous fit
    data = small_benchmark(tmp_path, n=600)
    starts = []
    real = division.fit_gmm1d

    def spy(values, config, init=None):
        starts.append(init)
        return real(values, config, init=init)

    monkeypatch.setattr(division, "fit_gmm1d", spy)
    assert run(["distill", data, "-o", tmp_path / "out"]) == 0
    assert starts == [None] * 10
    starts.clear()
    assert run(three_rounds_args(data, tmp_path / "run")) == 0
    assert len(starts) == 30
    assert starts[:10] == [None] * 10 and None not in starts[10:]


@pytest.mark.parametrize("extra", [[], ["--rounds", 2, "--warmup-epochs", 2]])
def test_train_diverged_ensemble_is_numerical_error(tmp_path, capsys, extra):
    # lr 1000 blows the members up during warm-up; the run used to exit 0
    # near chance accuracy with logits up to 1.9e70
    data = tmp_path / "g.csv"
    assert run(["generate", "--k", 4, "--d", 8, "--n", 300, "--noise", "asym:0.3",
                "--seed", 9, "-o", data]) == 0
    assert run(["train", data, "-o", tmp_path / "out", "--lr", 1000, "--seed", 9, *extra]) == 4
    assert "diverged after warm-up" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "1e6", "error: training diverged during warm-up: overflow encountered in "),
    ("--meta-lr", "1e100", "error: training diverged during meta training: overflow "),
], ids=["ensemble", "meta"])
def test_train_overflowing_step_is_numerical_error(tmp_path, capsys, flag, value, message):
    # a step that overflows stops the run with exit 4 and no RuntimeWarning;
    # both runs used to warn "overflow encountered in matmul", and the meta
    # run went on to exit 0
    data = tmp_path / "g.csv"
    assert run(["generate", "--k", 4, "--d", 8, "--n", 300, "--noise", "asym:0.3",
                "--seed", 9, "-o", data]) == 0
    capsys.readouterr()
    assert run(["train", data, "-o", tmp_path / "out", flag, value, "--seed", 9]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- evaluate

def write_truth(tmp_path, clean_flags):
    # one feature, two classes; noisy label differs from true where not clean
    n = len(clean_flags)
    true = np.zeros(n, dtype=np.int64)
    noisy = np.array([0 if c else 1 for c in clean_flags], dtype=np.int64)
    ds = Dataset(np.zeros((n, 1)), np.zeros((n, 2)), noisy, true)
    path = tmp_path / "truth.csv"
    write_sample_table(ds, path)
    return path


def test_evaluate_perfect_match(tmp_path, capsys):
    truth = write_truth(tmp_path, [True, True, False, False])
    part = tmp_path / "part.csv"
    part.write_text("0,P\n1,C\n2,N\n3,UN\n")
    assert run(["evaluate", part, truth]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] == 1.0


def test_evaluate_hand_counts(tmp_path, capsys):
    truth = write_truth(tmp_path, [True, True, True, True, False, False])
    part = tmp_path / "part.csv"
    part.write_text("0,P\n1,P\n2,C\n3,N\n4,C\n5,UN\n")
    assert run(["evaluate", part, truth]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["tp"], report["fp"], report["fn"]) == (3, 1, 1)
    assert report["f1"] == pytest.approx(0.75)


def test_evaluate_id_mismatch(tmp_path):
    truth = write_truth(tmp_path, [True, False])
    part = tmp_path / "part.csv"
    part.write_text("0,P\n2,N\n")
    assert run(["evaluate", part, truth]) == 3


@pytest.mark.parametrize("true, message", [
    ([0, -1], "truth file lacks true labels"),
    ([0, 0, 0], "partition ids do not match the truth file ids"),
], ids=["unknown-label", "other-row-count"])
def test_evaluate_truth_that_cannot_judge_the_partition_is_data_error(
        tmp_path, capsys, true, message):
    n = len(true)
    truth = tmp_path / "truth.csv"
    write_sample_table(Dataset(np.zeros((n, 1)), np.zeros((n, 2)), np.zeros(n, dtype=np.int64),
                               np.array(true)), truth)
    part = tmp_path / "part.csv"
    part.write_text("0,P\n1,N\n")
    assert run(["evaluate", part, truth]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_not_utf8_truth_is_data_error(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(NOT_UTF8_TABLE)
    part = tmp_path / "part.csv"
    part.write_text("0,P\n1,N\n")
    assert run(["evaluate", part, truth]) == 3
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_evaluate_not_utf8_partition_is_data_error(tmp_path, capsys):
    truth = write_truth(tmp_path, [True, False])
    part = tmp_path / "part.csv"
    part.write_bytes(b"0,P\n1,\xffN\n")
    assert run(["evaluate", part, truth]) == 3
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("bad", ["1_0", "\u0661"])
def test_evaluate_partition_id_with_underscore_or_non_ascii_digit_is_data_error(
        tmp_path, capsys, bad):
    # int() reads 1_0 as 10 and the Arabic-Indic digit one as 1; either would
    # complete the 0..N-1 cover here
    n = int(bad) + 1
    part = tmp_path / "part.csv"
    part.write_text("".join(f"{i},N\n" for i in range(n - 1)) + f"{bad},N\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line {n}: numeric field holds"):
        read_partition_file(part)
    assert run(["evaluate", part, write_truth(tmp_path, [True] * n)]) == 3
    assert capsys.readouterr().err.startswith(f"error: line {n}: numeric field holds")


@pytest.mark.parametrize("cell", ["1_0.5", "\u0661.5"])
def test_evaluate_table_cell_with_underscore_or_non_ascii_digit_is_data_error(
        tmp_path, capsys, cell):
    truth = write_truth(tmp_path, [True, False])
    lines = truth.read_text().splitlines()
    lines[2] = ",".join([*lines[2].split(",")[:3], cell, *lines[2].split(",")[4:]])
    truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 3: numeric field holds"):
        load_sample_table(truth)
    part = tmp_path / "part.csv"
    part.write_text("0,P\n1,N\n")
    assert run(["evaluate", part, truth]) == 3
    assert capsys.readouterr().err.startswith("error: line 3: numeric field holds")


def _table_with_field(tmp_path, col, text):
    path = write_truth(tmp_path, [True, False])
    lines = path.read_text().splitlines()
    lines[2] = ",".join(text if i == col else cell for i, cell in enumerate(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_sample_table, path, 3


def _partition_with_id(tmp_path, text):
    path = tmp_path / "part.csv"
    path.write_text(f"0,N\n{text},N\n", encoding="utf-8")
    return read_partition_file, path, 2


def _checkpoint_with_line(tmp_path, index, text):
    path = tmp_path / "clf.txt"
    save_classifier_checkpoint(ToyClassifier.initialize(2, 3, 2, seed=1), path)
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_classifier_checkpoint, path, index + 1


@pytest.mark.parametrize("bad", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("make", [
    lambda tmp_path, bad: _table_with_field(tmp_path, 0, bad),
    lambda tmp_path, bad: _table_with_field(tmp_path, 1, bad),
    _partition_with_id,
    lambda tmp_path, bad: _checkpoint_with_line(tmp_path, 0, f"toyclassifier {bad} 3 2"),
    lambda tmp_path, bad: _checkpoint_with_line(tmp_path, 1, bad),
], ids=["table-id", "table-label", "partition-id", "checkpoint-header-dim", "checkpoint-value"])
def test_every_numeric_field_refuses_underscore_and_non_ascii_digit(tmp_path, make, bad):
    # int() and float() read 1_0 as 10 and the Arabic-Indic digit one as 1
    load, path, line = make(tmp_path, bad)
    with pytest.raises(ParseError, match=f"^line {line}: numeric field holds"):
        load(path)


@pytest.mark.parametrize("argv, config, named", [
    (["generate", "--n", "1_000"], None, "argument --n: numeric field holds '_'"),
    (["generate", "--n", "\u0661\u0660\u0660"], None, "argument --n: numeric field holds"),
    (["distill", "DATA", "--meta-lr", "0.1_0"], None, "argument --meta-lr:"),
    (["generate"], "n = 2_000\n", "config key 'n': numeric field holds '_'"),
    (["generate", "--noise", "sym:0.3_0"], None, "argument --noise:"),
    (["distill", "DATA", "--fuse-strategy", "fixed:\u0660.\u0665"], None,
     "argument --fuse-strategy:"),
], ids=["n-underscore", "n-arabic-indic", "meta-lr-underscore", "config-n-underscore",
        "noise-underscore", "fuse-strategy-arabic-indic"])
def test_cli_number_with_underscore_or_non_ascii_digit_is_usage_error(
        tmp_path, capsys, argv, config, named):
    # int() and float() read each of these; they used to exit 0
    data = small_benchmark(tmp_path, n=200)
    argv = [data if arg == "DATA" else arg for arg in argv]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", tmp_path / "run.cfg"]
    capsys.readouterr()
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert named in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["distill", "DATA", "--loss-strategy", "bogus"], None,
     "argument --loss-strategy: bad threshold strategy 'bogus'; "
     "expected fixed:T, noise:P, or percentile:P"),
    (["distill", "DATA", "--sim-strategy", "percentile:x"], None,
     "argument --sim-strategy: bad threshold strategy 'percentile:x'; "
     "expected fixed:T, noise:P, or percentile:P"),
    (["train", "DATA", "--fuse-strategy", "fixed:2"], None,
     "argument --fuse-strategy: strategy parameter must lie in [0, 1], got 2.0"),
    (["generate", "--noise", "sym:1.5"], None,
     "argument --noise: noise rate must lie in [0, 1], got 1.5"),
    (["generate", "--noise", "weird:0.2"], None,
     "argument --noise: bad noise spec 'weird:0.2'; expected sym:R, asym:R, or none"),
    (["train", "DATA"], "seed = 2\nloss_strategy = quantile:0.3\n",
     "error: config key 'loss_strategy': bad threshold strategy 'quantile:0.3'; "
     "expected fixed:T, noise:P, or percentile:P"),
], ids=["loss-strategy", "sim-strategy", "fuse-strategy", "noise-rate", "noise-kind",
        "config-loss-strategy"])
def test_bad_spec_names_its_flag_or_config_key(tmp_path, capsys, argv, config, message):
    # specs are read where the flag or config line is, so the error says which
    data = small_benchmark(tmp_path, n=200)
    argv = [data if arg == "DATA" else arg for arg in argv]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", tmp_path / "run.cfg"]
    capsys.readouterr()
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["train", "DATA", "--lr", "-1"], None, "error: argument --lr: must be positive, got -1.0"),
    (["train", "DATA", "--meta-lr", "-1"], None,
     "error: argument --meta-lr: must be positive, got -1.0"),
    (["distill", "DATA"], "gmm_tol = 0\n", "error: config key 'gmm_tol': must be positive, got 0.0"),
    (["generate", "--k", "12", "--n", "5"], None, "error: argument --n: must be >= k (12), got 5"),
    (["distill", "DATA", "--meta-hidden", "0"], None,
     "error: argument --meta-hidden: must be >= 1, got 0"),
    (["train", "DATA"], "ensemble = 0\nlr = 0.1\n",
     "error: config key 'ensemble': must be >= 1, got 0"),
    (["train", "DATA", "--test-fraction", "1.5"], None,
     "error: argument --test-fraction: must lie in [0, 1), got 1.5"),
    (["train", "DATA"], "test_fraction = -0.1\n",
     "error: config key 'test_fraction': must lie in [0, 1), got -0.1"),
    (["train", "DATA"], "test_fraction = 0.998\n",
     "error: config key 'test_fraction': leaves no training samples out of 200, got 0.998"),
], ids=["train-lr", "meta-lr", "config-gmm-tol", "spec-n", "meta-hidden", "config-ensemble",
        "test-fraction", "config-test-fraction", "config-empty-train-split"])
def test_range_error_names_its_flag_or_config_key(tmp_path, capsys, argv, config, message):
    # TrainConfig and MetaTrainConfig both call their field lr; the message
    # names the key that set the field
    data = small_benchmark(tmp_path, n=200)
    argv = [data if arg == "DATA" else arg for arg in argv]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", tmp_path / "run.cfg"]
    capsys.readouterr()
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
def test_generate_spread_past_the_float64_range_is_a_usage_error(tmp_path, capsys, from_file):
    # it used to exit 1 with a RuntimeWarning under warnings-as-errors, and
    # otherwise 2 with a message that named no flag
    argv = ["generate", "--n", 300, "--k", 3, "--d", 4, "-o", tmp_path / "spread.csv"]
    if from_file:
        (tmp_path / "run.cfg").write_text("cluster_spread = 1e308\n", encoding="utf-8")
        argv += ["--config", tmp_path / "run.cfg"]
        named = "config key 'cluster_spread'"
    else:
        argv += ["--cluster-spread", "1e308"]
        named = "argument --cluster-spread"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {named}: must keep the features finite, got 1e+308\n"
    assert not list(tmp_path.glob("spread.csv*"))


def test_range_error_from_a_flag_over_the_file_names_the_flag(tmp_path, capsys):
    data = small_benchmark(tmp_path, n=200)
    (tmp_path / "run.cfg").write_text("meta_lr = -2\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["distill", data, "--config", tmp_path / "run.cfg", "--meta-lr", "-3",
                "-o", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "error: argument --meta-lr: must be positive, got -3.0\n"


# a value that the field of each numeric config key refuses; seed has no range
REFUSED = {"k": "0", "d": "0", "n": "5", "cluster_spread": "0", "logit_sharpness": "0",
           "gmm_max_iter": "0", "gmm_tol": "0", "variance_floor": "0", "min_fit_size": "0",
           "meta_lr": "0", "meta_epochs": "0", "meta_batch": "0", "meta_patience": "0",
           "meta_hidden": "0", "warmup_epochs": "-1", "rounds": "-1", "lr": "0",
           "lambda_u": "-1", "lambda_r": "-1", "ensemble": "0", "hidden": "0",
           "batch_size": "0", "test_fraction": "1"}


@pytest.fixture(scope="module")
def range_table(tmp_path_factory):
    return small_benchmark(tmp_path_factory.mktemp("range"), n=200)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name, key", [
    pytest.param(name, key, id=f"{name}-{key}")
    for name, (_, defaults) in COMMANDS.items()
    for key, default in defaults.items() if type(default) is not str and key != "seed"
])
def test_every_numeric_key_names_its_range_error(tmp_path, capsys, range_table, name, key,
                                                 source):
    # a key mapped to another field, or to none, names the wrong flag or none
    head, defaults = COMMANDS[name]
    argv = [range_table if arg == "DATA" else arg for arg in head]
    if source == "flag":
        argv += [flag(key), REFUSED[key]]
        named = f"argument {flag(key)}"
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {REFUSED[key]}\n", encoding="utf-8")
        argv += ["--config", tmp_path / "run.cfg"]
        named = f"config key {key!r}"
    capsys.readouterr()
    assert run([*argv, "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ")
    assert err.endswith(f", got {type(defaults[key])(REFUSED[key])}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, raw, kind", [("n", "x", "int"), ("cluster_spread", "1e", "float")])
def test_config_number_that_does_not_parse_uses_argparse_wording(tmp_path, capsys, key, raw, kind):
    (tmp_path / "run.cfg").write_text(f"{key} = {raw}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", "--config", tmp_path / "run.cfg", "-o", tmp_path / "g.csv"]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r}: invalid {kind} value: {raw!r}\n"
    assert run(["generate", flag(key), raw, "-o", tmp_path / "g.csv"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument {flag(key)}: invalid {kind} value: {raw!r}")


def test_usage_error_exit_code():
    assert run(["nonsense"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize("stage", ["generate_synthetic", "split_dataset"])
def test_out_of_memory_is_usage_error(tmp_path, monkeypatch, capsys, stage):
    # the stage is patched to raise: a real allocation past memory would be
    # granted on a host that overcommits, and then run it out of memory
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    argv = (["generate", "--n", 50, "-o", tmp_path / "out" / "g.csv"] if stage == "generate_synthetic"
            else ["train", small_benchmark(tmp_path), "-o", tmp_path / "out"])
    monkeypatch.setattr(cli, stage, refuse)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB for an array\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["distill", ".", "-o", "out"], id="distill_directory_input"),
    pytest.param(["evaluate", ".", "."], id="evaluate_directory_inputs"),
    pytest.param(["generate", "--n", 50, "-o", "g.csv/x.csv"], id="generate_under_a_file"),
])
def test_unusable_path_is_data_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.csv").write_text("")
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
