"""Shared fixtures; the canonical 40%-noise benchmark is built once per session."""
from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from dualsift import (
    NoiseKind,
    NoiseSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_noise,
    write_sample_table,
)
from dualsift.cli import main as cli_main
from dualsift.pipeline import DistillParams, run_distillation

BENCH_SEED = 1
BENCH_NOISE_SEED = 101
BENCH_SPEC = SyntheticSpec(k=10, d=16, n=5000, seed=BENCH_SEED)
BENCH_RATE = 0.4


@pytest.fixture(scope="session")
def benchmark40():
    """K=10, D=16, N=5000 synthetic benchmark with 40% symmetric noise."""
    dataset = generate_synthetic(BENCH_SPEC)
    return inject_noise(dataset, NoiseSpec(NoiseKind.SYMMETRIC, BENCH_RATE, seed=BENCH_NOISE_SEED))


@pytest.fixture(scope="session")
def benchmark40_result(benchmark40):
    """Single-shot distillation of the benchmark at default parameters."""
    return run_distillation(benchmark40, DistillParams())


@pytest.fixture(scope="session")
def benchmark40_csv(benchmark40, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "bench40.csv"
    write_sample_table(benchmark40, path)
    return path


@pytest.fixture(scope="session")
def train_run(benchmark40_csv, tmp_path_factory):
    """Full cmd_train run on the benchmark with defaults; returns report and runtime."""
    outdir = tmp_path_factory.mktemp("train_run")
    start = time.perf_counter()
    code = cli_main(["train", str(benchmark40_csv), "-o", str(outdir), "--seed", "1"])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    return {"outdir": outdir, "report": report, "seconds": elapsed}


def _traced_extra(fn, *args):
    """``fn(*args)`` and the most bytes it held at once beyond those held
    when it started, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_extra():
    return _traced_extra


@pytest.fixture
def growth_per_row():
    """``extra(n)``'s growth per added row from 20k to 80k rows, after one
    call at 1k rows pays the allocations a first call makes once."""
    def growth(extra):
        extra(1_000)
        return (extra(80_000) - extra(20_000)) / 60_000
    return growth
