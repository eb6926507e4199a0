#!/usr/bin/env python3
"""Run one dualsift benchmark workload and print its metrics.

    python3 bench/run.py --workload cli_flow --seed 1 --seconds 50 --trace 0

Run it from anywhere; it imports the package from ``src/`` next to this
directory and refuses to run without it. Workloads: ``cli_flow``,
``distill_k100`` and ``train_5k`` (see ``workloads.py``); ``--workload all``
runs the three one after another. Each run is a closed loop: passes run
back to back, at least three, until the next one would end after
``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of fresh
processes that import the package and build the inputs), ``norm_wall_s``
(median pass), both in seconds at the reference host speed of
``calibrate.py``, ``peak_rss_mib`` (set-up plus the first pass),
``selection_f1`` and ``clean_precision``; it also prints the raw ``wall_s``
and set-up time, ``samples_per_s``, ``failed_fraction`` and, for
``train_5k``, ``test_accuracy``. ``--trace 1`` alternates traced and untraced passes
and reports the per-layer metrics of ``tracing.PER_LAYER`` (medians over the
traced passes) plus the tracing overhead.

Every pass's output is checked and fingerprinted; a pass that raises, exits
nonzero, fails a check or fingerprints differently from the first pass
counts as failed. The full record (environment, every pass, fingerprint)
is written under ``.bench_out/results/``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import envinfo

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

WORKLOADS = ("cli_flow", "distill_k100", "train_5k")
END_TO_END = (
    ("setup_s", "s"), ("norm_wall_s", "s"), ("peak_rss_mib", "MiB"),
    ("selection_f1", "ratio"), ("clean_precision", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="all runs each workload in its own process, one after another")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; canonical value 1")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure this long (at least three passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny serves the smoke run only")
    parser.add_argument("--record", type=Path, help="write the result record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import dualsift from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dualsift
    except ImportError as exc:
        sys.exit(f"error: cannot import dualsift from {src}: {exc}")
    if Path(dualsift.__file__).resolve().parent.parent != src:
        sys.exit(f"error: dualsift came from {dualsift.__file__}, not from {src}")


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the package and build the
    inputs, raw and at the reference host speed (``calibrate``), which is
    measured right before and right after each process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate.probe_speed()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * calibrate.speed(before + calibrate.probe_speed()))
    return times, scaled


def run_passes(workload, seconds: float, tracer, workdir: Path) -> list[dict]:
    """Closed loop of passes; with a tracer, even-numbered passes are traced.

    Without a tracer each pass runs under a ``calibrate.SpeedSampler``, and
    ``norm_wall_s`` is its time at the reference host speed; ``wall_s`` is
    its wall time without the sampler's slices.
    """
    from workloads import PassOutcome, fresh_dir

    passes: list[dict] = []
    reference = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 0
        passdir = fresh_dir(workdir / f"pass-{index}")
        output = error = None
        if traced:
            tracer.install()
            tracer.begin_pass(index)
        sampler = calibrate.SpeedSampler() if tracer is None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with sampler:
                output = workload.run(passdir)
        except Exception:  # a pass that raises is a failed pass; the loop goes on
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.end_pass()
                tracer.uninstall()
        if tracer is None:
            norm_wall = sampler.scaled(wall)
            wall -= sampler.sampled_seconds()
        else:
            norm_wall = None
        max_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is not None:
            outcome = PassOutcome(failures=[f"raised: {error.strip().splitlines()[-1]}"])
        else:
            outcome = workload.check(output, passdir, tracer.capture if traced else None)
        if outcome.fingerprint is not None:
            if reference is None:
                reference = outcome.fingerprint
            elif outcome.fingerprint != reference:
                outcome.failures.append("fingerprint differs from the first pass's")
        shutil.rmtree(passdir, ignore_errors=True)
        passes.append({"index": index, "traced": traced, "wall_s": wall,
                       "norm_wall_s": norm_wall,
                       "speed_slices": len(sampler.slices) if tracer is None else 0,
                       "max_rss_mib": max_rss_mib,
                       "failures": outcome.failures, "fingerprint": outcome.fingerprint,
                       "quality": outcome.quality})
        for failure in outcome.failures:
            print(f"pass {index} failed: {failure}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile above the median with at least ten values beyond it."""
    n = len(values)
    if n <= 20:
        return None
    pct = 100.0 * (1.0 - 10.0 / n)
    return pct, sorted(values)[math.ceil(pct / 100.0 * n) - 1]


def end_to_end(passes, setup_times, size) -> tuple[dict, dict]:
    """The gated metrics of ``END_TO_END`` and the ones only reported.

    Times are gated at the reference host speed (``calibrate``): the host's
    own drift would otherwise swamp the bounds. The raw medians are reported
    beside them. ``samples_per_s`` is N / ``wall_s`` exactly, so gating it
    too would count the same time twice; ``test_accuracy`` exists for
    ``train_5k`` only.
    """
    good = [p for p in passes if not p["failures"]]
    quality = good[0]["quality"] if good else {}
    wall = statistics.median(p["wall_s"] for p in passes)
    raw_setup, scaled_setup = setup_times
    values = {
        "setup_s": statistics.median(scaled_setup),
        "norm_wall_s": statistics.median(p["norm_wall_s"] for p in passes),
        # set-up plus one pass: later passes in the same process add allocator
        # growth that depends on how many passes the run fits
        "peak_rss_mib": passes[0]["max_rss_mib"],
        "selection_f1": quality.get("selection_f1", 0.0),
        "clean_precision": quality.get("clean_precision", 0.0),
    }
    reported = {"wall_s": wall, "raw_setup_s": statistics.median(raw_setup),
                "samples_per_s": size.n / wall}
    if "test_accuracy" in quality:
        reported["test_accuracy"] = quality["test_accuracy"]
    return values, reported


def print_end_to_end(values, reported, passes, setup_times, size) -> None:
    n = len(passes)
    print(f"  setup_s        {values['setup_s']:.4f} s          median of {len(setup_times[0])} "
          "fresh processes (imports + inputs), at reference speed")
    print(f"  raw setup_s    {reported['raw_setup_s']:.4f} s          the same, as timed")
    print(f"  norm_wall_s    {values['norm_wall_s']:.4f} s          median of {n} passes, "
          "at reference speed")
    print(f"  wall_s         {reported['wall_s']:.4f} s          median of {n} passes, as timed")
    tail = tail_percentile([p["wall_s"] for p in passes])
    print("  wall_s tail    " + (f"p{tail[0]:.1f} = {tail[1]:.4f} s over {n} passes" if tail
                                 else f"n/a: needs more than 20 passes, ran {n}"))
    print(f"  samples_per_s  {reported['samples_per_s']:.1f} samples/s  at N={size.n}")
    print(f"  peak_rss_mib   {values['peak_rss_mib']:.1f} MiB")
    print(f"  selection_f1   {values['selection_f1']:.6f}")
    print(f"  clean_precision {values['clean_precision']:.6f}")
    if "test_accuracy" in reported:
        print(f"  test_accuracy  {reported['test_accuracy']:.6f}  (ratio, held-out split)")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    codes = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    envinfo.cap_blas_threads()
    import_package()
    import tracing
    from workloads import SIZES, WORKLOAD_TYPES, fresh_dir

    size = SIZES[args.workload][args.size]
    kind = "probe" if args.setup_probe else "run"
    workdir = fresh_dir(OUT_DIR / "work" / f"{args.workload}-{kind}-{os.getpid()}")
    try:
        workload = WORKLOAD_TYPES[args.workload](size, args.seed, workdir)
        if args.setup_probe:
            workload.setup()
            return 0
        setup_times = ([], []) if args.trace else measure_setup(args)
        workload.setup()
        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(workload, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for p in passes if p["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{size.describe()}  closed loop, 1 client")
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracer.pass_metrics(p["index"]) for p in traced]
        values = tracing.summarize(per_pass, [p["wall_s"] for p in traced],
                                   [p["wall_s"] for p in passes if not p["traced"]])
        units = dict(tracing.PER_LAYER)
        values = {name: values[name] for name in units}
        for name, value in values.items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
        if tracer.unresolved:
            print(f"  unresolved trace targets: {', '.join(tracer.unresolved)}")
        reported = {}
    else:
        values, reported = end_to_end(passes, setup_times, size)
        units = dict(END_TO_END)
        print_end_to_end(values, reported, passes, setup_times, size)
    print(f"  failed_fraction {failed / len(passes):.4f}  ({failed} of {len(passes)} passes)")
    fingerprints = {json.dumps(p["fingerprint"], sort_keys=True) for p in passes
                    if p["fingerprint"] is not None}
    fingerprint = json.loads(fingerprints.pop()) if len(fingerprints) == 1 else None
    print(f"  fingerprint    {json.dumps(fingerprint, sort_keys=True)}")

    record = {
        "workload": args.workload, "size": args.size, "shape": size.describe(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.environment(ROOT, size.working_set_bytes()),
        "fingerprint": fingerprint, "passes": passes,
        "setup_times_s": {"raw": setup_times[0], "reference_speed": setup_times[1]},
        "failed_fraction": failed / len(passes), "reported": reported,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record_path = args.record or (OUT_DIR / "results" /
                                  f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"  record         {record_path}")
    print(json.dumps({"correct": failed == 0 and fingerprint is not None,
                      "attempted": len(passes), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
