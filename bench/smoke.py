#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark.

    python3 bench/smoke.py

Runs every workload at its tiny size on two seeds, untraced and traced, and
checks the result line against BENCHMARK.json's metrics, the output checks
(every pass correct), that the traced run fingerprints the same as the untraced one, and
that each layer the workload exercises shows work in the traced run. Last,
it checks that the benchmark refuses to run from a directory holding only
BENCHMARK.json and the benchmark's own files. Exits 0 when all checks hold.
It is not part of the package's test suite.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_out" / "smoke"
SEEDS = (1, 2)
TIMEOUT_S = 180

# Per-layer counters that must be positive in each workload's traced run.
EXPECTED_WORK = {
    "cli_flow": ("data.load_table_calls", "data.write_table_s", "data.generate_s",
                 "gmm.fit_calls", "division.write_partition_s", "division.read_partition_s",
                 "metanet.steps", "pipeline.distill_calls", "metrics.selection_s",
                 "cli.self_s"),
    "distill_k100": ("scores.score_s", "gmm.fit_calls", "gmm.em_iterations",
                     "division.divide_s", "metanet.pairs", "metanet.steps",
                     "pipeline.distill_calls", "metrics.selection_s"),
    "train_5k": ("data.load_table_calls", "classifier.sgd_steps", "classifier.us_per_step",
                 "semisup.warmup_s", "semisup.round_s", "semisup.represent_s",
                 "metrics.accuracy_s", "checkpoints.save_s", "pipeline.distill_calls"),
}


def run_bench(root: Path, workload: str, seed: int, trace: int, record: Path | None):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if record is not None:
        cmd += ["--record", str(record)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def check_run(spec: dict, workload: str, seed: int, trace: int, problems: list[str]) -> dict:
    label = f"{workload} seed={seed} trace={trace}"
    record_path = WORK / f"{workload}-{seed}-{trace}.json"
    done = run_bench(ROOT, workload, seed, trace, record_path)
    if done.returncode != 0:
        problems.append(f"{label}: exit code {done.returncode}\n{done.stderr}")
        return {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 3:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{done.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(reported) ^ set(declared))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m['value']!r}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if trace:
        for name in EXPECTED_WORK[workload]:
            if not record["metrics"][name]["value"] > 0:
                problems.append(f"{label}: {name} shows no work")
    return record


def check_refuses_without_package(problems: list[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "bench" / path.name)
    done = run_bench(bare, "distill_k100", 1, 0, None)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"ran without the package: exit {done.returncode}, "
                        f"stdout {done.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    for workload in EXPECTED_WORK:
        for seed in SEEDS:
            plain = check_run(spec, workload, seed, 0, problems)
            traced = check_run(spec, workload, seed, 1, problems)
            if plain and traced and plain["fingerprint"] != traced["fingerprint"]:
                problems.append(f"{workload} seed={seed}: traced fingerprint "
                                f"{traced['fingerprint']} != untraced {plain['fingerprint']}")
            print(f"{workload} seed={seed}: done", flush=True)
    check_refuses_without_package(problems)
    shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
