"""The benchmark's three workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop with one client: the next pass starts when
the previous one has ended. Inputs derive from the workload seed exactly as
``dualsift generate --seed SEED`` derives them, so a workload's table is the
one a user would get from the CLI with that seed.

- ``cli_flow``: README steps 1-3 (generate, distill, evaluate) run in-process
  through ``dualsift.cli.main``. Table write and two table loads dominate.
- ``distill_k100``: in-memory ``run_distillation`` plus ``selection_metrics``
  at K=100, D=128; no file I/O, so EM and meta training dominate.
- ``train_5k``: ``dualsift train`` on the canonical 5k table; per-step SGD
  overhead in the toy ensemble dominates.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from dualsift import cli, metrics, pipeline
from dualsift.classifier import load_classifier_checkpoint, save_classifier_checkpoint
from dualsift.data import (
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_noise,
    write_sample_table,
)
from dualsift.metanet import MetaTrainConfig
from dualsift.seeding import derive_seed

_DATASET_FIELDS = ("features", "logits", "noisy_labels", "true_labels")
_NOISE_KINDS = {"sym": NoiseKind.SYMMETRIC, "asym": NoiseKind.ASYMMETRIC}


@dataclass(frozen=True)
class Size:
    k: int
    d: int
    n: int
    noise: str
    rounds: int = 0

    def working_set_bytes(self) -> int:
        """Bytes of the dataset arrays: float64 features and logits, int64 labels."""
        return self.n * (self.d + self.k) * 8 + 2 * self.n * 8

    def describe(self) -> str:
        text = f"K={self.k} D={self.d} N={self.n} noise={self.noise}"
        return text + (f" rounds={self.rounds}" if self.rounds else "")


# "full" is the benchmark; "tiny" serves the smoke run only.
SIZES = {
    "cli_flow": {"full": Size(10, 16, 100_000, "sym:0.4"),
                 "tiny": Size(10, 16, 2_000, "sym:0.4")},
    "distill_k100": {"full": Size(100, 128, 100_000, "asym:0.3"),
                     "tiny": Size(20, 32, 4_000, "asym:0.3")},
    "train_5k": {"full": Size(10, 16, 5_000, "sym:0.4", rounds=5),
                 "tiny": Size(10, 16, 600, "sym:0.4", rounds=2)},
}


@dataclass
class PassOutcome:
    """What one pass's output checks found."""

    failures: list[str] = field(default_factory=list)
    fingerprint: dict | None = None
    quality: dict = field(default_factory=dict)


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _partition_text_sha256(partition) -> str:
    """sha256 of the partition in its ``partition.csv`` serialization."""
    text = "".join(f"{i},{tag}\n" for i, tag in enumerate(partition.tags()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _same_bits(a, b) -> bool:
    return all(getattr(a, f).shape == getattr(b, f).shape
               and getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in _DATASET_FIELDS)


def build_dataset(size: Size, seed: int):
    """The dataset ``dualsift generate`` writes for this size and seed."""
    kind, _, rate = size.noise.partition(":")
    noise = NoiseSpec(_NOISE_KINDS[kind], float(rate), seed=derive_seed(seed, "noise"))
    data = generate_synthetic(SyntheticSpec(k=size.k, d=size.d, n=size.n,
                                            seed=derive_seed(seed, "synthetic")))
    return inject_noise(data, noise)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _check_rc(failures: list[str], step: str, rc: int) -> None:
    if rc != 0:
        failures.append(f"{step} returned exit code {rc}")


def _sizes_fingerprint(sizes: dict) -> dict:
    return {key: sizes[key] for key in ("s_p", "s_n", "s_u", "c")}


class Workload:
    """One workload: ``setup`` builds the inputs, ``run`` is the timed pass,
    ``check`` verifies what the pass left behind and fingerprints it."""

    name: str

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, workdir

    def setup(self) -> None:
        """Build the inputs every pass reads."""

    def run(self, passdir: Path):
        raise NotImplementedError

    def check(self, output, passdir: Path, capture: dict | None) -> PassOutcome:
        """``capture`` holds the datasets a traced pass generated and loaded."""
        raise NotImplementedError


class CliFlow(Workload):
    name = "cli_flow"

    def run(self, passdir):
        s, seed = self.size, str(self.seed)
        table, out = passdir / "table.csv", passdir / "out"
        return {
            "generate": _run_cli(["generate", "--k", str(s.k), "--d", str(s.d),
                                  "--n", str(s.n), "--noise", s.noise, "--seed", seed,
                                  "-o", str(table)]),
            "distill": _run_cli(["distill", str(table), "-o", str(out), "--seed", seed]),
            "evaluate": _run_cli(["evaluate", str(out / "partition.csv"), str(table)]),
        }

    def check(self, output, passdir, capture):
        outcome = PassOutcome()
        failures = outcome.failures
        for step, (rc, _) in output.items():
            _check_rc(failures, step, rc)
        if failures:
            return outcome
        out = passdir / "out"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if json.loads(output["evaluate"][1]) != report["selection"]:
            failures.append("evaluate's selection differs from report.json's")
        if capture is not None:
            loads = capture["loaded"]
            if len(loads) != 2 or not all(_same_bits(capture["generated"], d) for d in loads):
                failures.append("a loaded table differs from the generated dataset")
        outcome.fingerprint = {"sha256": _sha256_files([out / "partition.csv"]),
                               **_sizes_fingerprint(report["sizes"])}
        outcome.quality = {"selection_f1": report["selection"]["f1"],
                           "clean_precision": report["selection"]["precision"]}
        return outcome


class DistillK100(Workload):
    name = "distill_k100"

    def setup(self):
        self.dataset = build_dataset(self.size, self.seed)
        self.params = pipeline.DistillParams(
            meta=MetaTrainConfig(seed=derive_seed(self.seed, "meta")))

    def run(self, passdir):
        result = pipeline.run_distillation(self.dataset, self.params)
        report = metrics.selection_metrics(result.partition.clean_ids, self.dataset.clean_mask)
        return result.partition, report

    def check(self, output, passdir, capture):
        p, report = output
        return PassOutcome(
            fingerprint={"sha256": _partition_text_sha256(p), "s_p": int(p.positive_ids.size),
                         "s_n": int(p.negative_ids.size), "s_u": int(p.uncertain_ids.size),
                         "c": int(p.clean_ids.size)},
            quality={"selection_f1": report.f1, "clean_precision": report.precision})


class Train5k(Workload):
    name = "train_5k"

    def setup(self):
        self.dataset = build_dataset(self.size, self.seed)
        self.table = self.workdir / "table.csv"
        write_sample_table(self.dataset, self.table)

    def run(self, passdir):
        return _run_cli(["train", str(self.table), "-o", str(passdir),
                         "--rounds", str(self.size.rounds), "--seed", str(self.seed)])

    def check(self, output, passdir, capture):
        outcome = PassOutcome()
        failures = outcome.failures
        _check_rc(failures, "train", output[0])
        if failures:
            return outcome
        members = sorted(passdir.glob("member_*.txt"))
        if not members:
            failures.append("train wrote no member checkpoints")
        for path in members:
            resaved = passdir / f"resaved_{path.name}"
            save_classifier_checkpoint(load_classifier_checkpoint(path), resaved)
            if resaved.read_bytes() != path.read_bytes():
                failures.append(f"{path.name} does not re-save byte-identical")
            resaved.unlink()
        if capture is not None:
            loads = capture["loaded"]
            if len(loads) != 1 or not _same_bits(self.dataset, loads[0]):
                failures.append("the loaded table differs from the generated dataset")
        report = json.loads((passdir / "report.json").read_text(encoding="utf-8"))
        outcome.fingerprint = {"sha256": _sha256_files(members),
                               **_sizes_fingerprint(report["sizes"])}
        outcome.quality = {"selection_f1": report["selection"]["f1"],
                           "clean_precision": report["selection"]["precision"],
                           "test_accuracy": report["accuracy"]}
        return outcome


WORKLOAD_TYPES = {w.name: w for w in (CliFlow, DistillK100, Train5k)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
