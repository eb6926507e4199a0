import json

import numpy as np
import pytest

from dualsift import Dataset, load_sample_table, write_sample_table
from dualsift.cli import DISTILL_DEFAULTS, GENERATE_DEFAULTS, TRAIN_DEFAULTS, main

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


# ------------------------------------------------------------------- generate

def test_generate_row_count(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["generate", "--k", 10, "--d", 16, "--n", 5000,
                "--noise", "sym:0.4", "--seed", 1, "-o", out])
    assert code == 0
    ds = load_sample_table(out)
    assert ds.n == 5000 and ds.num_classes == 10 and ds.feature_dim == 16
    assert "flipped=" in capsys.readouterr().out


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


@pytest.mark.parametrize("hidden", [0, -1])
def test_distill_bad_meta_hidden_usage_error(tmp_path, capsys, hidden):
    data = small_benchmark(tmp_path, n=600, noise="asym:0.3", seed=9)
    capsys.readouterr()
    assert run(["distill", data, "-o", tmp_path / "o", "--meta-hidden", hidden]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# ---------------------------------------------------------------------- train

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


def test_usage_error_exit_code():
    assert run(["nonsense"]) == 2
    assert run([]) == 2
