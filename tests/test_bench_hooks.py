"""The benchmark in ``bench/`` reaches into the package by name: the tracer
wraps module attributes and the workloads import functions directly. A
refactor that renames or drops one of them must fail here, not silently
leave a layer untraced.
"""
import ast
import hashlib
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

from dualsift import (NoiseKind, NoiseSpec, SyntheticSpec, cli, division, generate_synthetic,
                      inject_noise, metanet, partition_by_label, pipeline, semisup,
                      write_sample_table)
from dualsift.metanet import MetaTrainConfig
from dualsift.pipeline import DistillParams, run_distillation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if hasattr(module, attr):
        return True
    # ``from dualsift import cli`` names a submodule of the package
    return hasattr(module, "__path__") and importlib.util.find_spec(f"{module_name}.{attr}") is not None


def test_every_traced_target_resolves():
    tracing = _load_by_path("tracing")
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not _resolves(f"dualsift.{module}", attr)]
    assert missing == []


def test_every_name_the_workloads_import_resolves():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dualsift")
                for alias in node.names]
    assert ("dualsift.classifier", "save_classifier_checkpoint") in imported
    assert ("dualsift.classifier", "load_classifier_checkpoint") in imported
    missing = [f"{module}.{name}" for module, name in imported if not _resolves(module, name)]
    assert missing == []


def test_traced_call_counts_follow_the_work(monkeypatch):
    # the tracer's gmm.fit_calls and metanet.steps count calls at these
    # attributes; a change that moves the work elsewhere must fail here
    calls = {"fit": 0, "step": 0}

    def counting(module, attr, key):
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(division, "fit_gmm1d", "fit")
    counting(metanet, "meta_loss_and_grads", "step")
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=8, n=600, seed=2)),
                           NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=5))
    meta = MetaTrainConfig(epochs=3, patience=4, batch_size=7)
    result = run_distillation(dataset, DistillParams(meta=meta))
    assert result.fallbacks == []
    clusters = [ids for ids in partition_by_label(dataset) if ids.size]
    assert calls["fit"] == 2 * len(clusters)
    pairs = result.partition.certain_ids.size
    assert calls["step"] == meta.epochs * math.ceil(pairs / meta.batch_size)


def test_tracer_observers_read_what_the_traced_calls_pass():
    # the tracer splits gmm.loss_fit_s from gmm.feature_fit_s by the
    # orientation of fit_gmm1d's second argument, and sums metanet.pairs
    # from build_meta_dataset's result.n; a change to either call must fail here
    tracing = _load_by_path("tracing")
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=8, n=600, seed=2)),
                           NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        result = pipeline.run_distillation(dataset, DistillParams())
        tracer.end_pass()
    finally:
        tracer.uninstall()
    spaces = [span[tracing._WORK]["space"] for span in tracer.spans
              if span[tracing._NAME] == "gmm.fit_gmm1d"]
    clusters = [ids for ids in partition_by_label(dataset) if ids.size]
    assert sorted(spaces) == sorted(["SMALLER_MEAN_CLEAN", "LARGER_MEAN_CLEAN"] * len(clusters))
    metrics = tracer.pass_metrics(0)
    assert metrics["metanet.pairs"] == result.partition.certain_ids.size > 0
    assert metrics["trace.unresolved_targets"] == 0


def test_trainer_step_counts_follow_the_batches(monkeypatch, tmp_path):
    # the tracer's classifier.sgd_steps counts calls at these attributes:
    # one per batch of a warm-up epoch over the train split, and one per
    # batch of the clean plus noisy sets in each round
    calls = {"grad": 0, "sgd": 0}
    round_starts = []

    def counting(module, attr, key):
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(semisup, "mixed_loss_and_grads", "grad")
    counting(semisup, "apply_sgd_step", "sgd")
    distill_round = cli.distill_round

    def marking(*args, **kwargs):
        round_starts.append(calls["grad"])
        return distill_round(*args, **kwargs)
    monkeypatch.setattr(cli, "distill_round", marking)

    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=4, d=6, n=250, seed=3)),
                           NoiseSpec(NoiseKind.SYMMETRIC, 0.3, seed=7))
    table = tmp_path / "table.csv"
    write_sample_table(dataset, table)
    warmup_epochs, batch = 3, 7
    assert cli.main(["train", str(table), "-o", str(tmp_path / "run"), "--rounds", "2",
                     "--warmup-epochs", str(warmup_epochs), "--batch-size", str(batch),
                     "--seed", "2"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    n_train = report["per_round"][0]["sizes"]["n"]
    assert calls["grad"] == calls["sgd"]
    assert round_starts[0] == warmup_epochs * math.ceil(n_train / batch)
    ends = round_starts[1:] + [calls["grad"]]
    for start, end, entry in zip(round_starts, ends, report["per_round"], strict=True):
        assert end - start == math.ceil((entry["sizes"]["c"] + entry["sizes"]["u"]) / batch)


def test_partition_surface_the_workloads_read(tmp_path):
    # distill_k100 fingerprints a Partition through these attributes and
    # hashes its tags() as the partition.csv bytes write_partition_file writes
    workloads = _load_by_path("workloads")
    dataset = inject_noise(generate_synthetic(SyntheticSpec(k=3, d=4, n=200, seed=4)),
                           NoiseSpec(NoiseKind.ASYMMETRIC, 0.3, seed=6))
    partition = run_distillation(dataset, DistillParams()).partition
    for attr in ("positive_ids", "negative_ids", "uncertain_ids", "clean_ids", "tags"):
        assert hasattr(partition, attr), attr
    path = tmp_path / "partition.csv"
    division.write_partition_file(partition, path)
    written = hashlib.sha256(path.read_bytes()).hexdigest()
    assert workloads._partition_text_sha256(partition) == written
