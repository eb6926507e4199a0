"""Span tracing of dualsift's layers from outside the package.

The tracer replaces a public function at the module attribute its caller
looks up (``dualsift.division.fit_gmm1d`` is what ``compute_posteriors``
calls) with a wrapper that records one span per call: name, start, end,
parent span, pass id and whether it raised. Spans stay in memory; the
benchmark turns them into per-layer metrics when the run ends. The package
itself is not modified, and ``uninstall`` restores every attribute, so
untraced passes run the original functions.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("data", "scores", "gmm", "division", "metanet", "pipeline",
          "classifier", "semisup", "metrics", "checkpoints", "cli")

# (module the caller lives in, attribute the caller looks up, span name).
# The span name's prefix is the layer that defines the function.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "generate_synthetic", "data.generate_synthetic"),
    ("cli", "inject_noise", "data.inject_noise"),
    ("cli", "write_sample_table", "data.write_sample_table"),
    ("cli", "load_sample_table", "data.load_sample_table"),
    ("cli", "split_dataset", "data.split_dataset"),
    ("pipeline", "partition_by_label", "data.partition_by_label"),
    ("pipeline", "score_dataset", "scores.score_dataset"),
    ("division", "fit_gmm1d", "gmm.fit_gmm1d"),
    ("division", "posteriors", "gmm.posteriors"),
    ("pipeline", "compute_posteriors", "division.compute_posteriors"),
    ("pipeline", "divide_dataset", "division.divide_dataset"),
    ("cli", "write_partition_file", "division.write_partition_file"),
    ("cli", "read_partition_file", "division.read_partition_file"),
    ("pipeline", "build_meta_dataset", "metanet.build_meta_dataset"),
    ("pipeline", "train_meta", "metanet.train_meta"),
    ("metanet", "meta_loss_and_grads", "metanet.meta_loss_and_grads"),
    ("pipeline", "fuse_scores", "metanet.fuse_scores"),
    ("pipeline", "weighted_average_baseline", "metanet.weighted_average_baseline"),
    ("pipeline", "purify", "metanet.purify"),
    ("pipeline", "run_distillation", "pipeline.run_distillation"),
    ("cli", "run_distillation", "pipeline.run_distillation"),
    ("semisup", "run_distillation", "pipeline.run_distillation"),
    ("semisup", "mixed_loss_and_grads", "classifier.mixed_loss_and_grads"),
    ("semisup", "apply_sgd_step", "classifier.apply_sgd_step"),
    ("cli", "save_classifier_checkpoint", "classifier.save_classifier_checkpoint"),
    ("cli", "make_ensemble", "semisup.make_ensemble"),
    ("cli", "warmup", "semisup.warmup"),
    ("cli", "distill_round", "semisup.distill_round"),
    ("semisup", "ensemble_representation", "semisup.ensemble_representation"),
    ("cli", "selection_metrics", "metrics.selection_metrics"),
    ("metrics", "selection_metrics", "metrics.selection_metrics"),
    ("cli", "ensemble_accuracy", "metrics.accuracy"),
    ("classifier", "save_flat_params", "checkpoints.save_flat_params"),
)

# Per-layer metrics of one traced pass, in report order, with their units.
PER_LAYER = (
    ("data.write_table_s", "s"), ("data.load_table_s", "s"),
    ("data.load_table_calls", "count"), ("data.table_mib", "MiB"),
    ("data.generate_s", "s"),
    ("scores.score_s", "s"),
    ("gmm.fit_s", "s"), ("gmm.fit_calls", "count"), ("gmm.em_iterations", "count"),
    ("gmm.ns_per_point_iteration", "ns"), ("gmm.loss_fit_s", "s"),
    ("gmm.feature_fit_s", "s"), ("gmm.unconverged", "count"), ("gmm.posteriors_s", "s"),
    ("division.compute_posteriors_s", "s"), ("division.divide_s", "s"),
    ("division.write_partition_s", "s"), ("division.read_partition_s", "s"),
    ("metanet.pairs", "count"), ("metanet.build_s", "s"), ("metanet.train_s", "s"),
    ("metanet.steps", "count"), ("metanet.us_per_step", "us"), ("metanet.fuse_s", "s"),
    ("metanet.purify_s", "s"), ("metanet.starved", "count"),
    ("pipeline.distill_s", "s"), ("pipeline.distill_calls", "count"),
    ("classifier.sgd_steps", "count"), ("classifier.grad_s", "s"),
    ("classifier.update_s", "s"), ("classifier.us_per_step", "us"),
    ("semisup.warmup_s", "s"), ("semisup.round_s", "s"), ("semisup.represent_s", "s"),
    ("metrics.selection_s", "s"), ("metrics.accuracy_s", "s"),
    ("checkpoints.save_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.failures", "count") for layer in LAYERS),
    ("trace.spans", "count"), ("trace.unresolved_targets", "count"),
    ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

_NAME, _START, _END, _PARENT, _PASS, _ERROR, _WORK = range(7)


def _file_bytes(path) -> int:
    return os.stat(path).st_size


class Tracer:
    """In-memory span recorder installed around the package's public functions.

    ``capture`` holds the datasets the current pass generated and loaded, so
    the benchmark can compare them bit for bit after the pass.
    """

    def __init__(self, package: str = "dualsift"):
        self.spans: list[list] = []
        self.capture: dict = {}
        self._stack: list[int] = []
        self._pass_id: int | None = None
        self._saved: list[tuple] = []
        self._targets = []
        self.unresolved: list[str] = []
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"{package}.{module_name}")
            if hasattr(module, attr):
                self._targets.append((module, attr, span_name))
            else:
                self.unresolved.append(f"{module_name}.{attr}")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, span_name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._pass_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if observe is not None:
                span[_WORK] = observe(args, kwargs, result)
            return result

        return traced

    # -- passes -------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.capture = {"loaded": []}
        self._pass_id = pass_id
        self._stack.append(len(self.spans))
        self.spans.append(["pass", time.perf_counter(), 0.0, -1, pass_id, None, None])

    def end_pass(self) -> None:
        self.spans[self._stack.pop()][_END] = time.perf_counter()
        self._pass_id = None

    # -- work observed at span boundaries -------------------------------------

    def _observe_data_generate_synthetic(self, args, kwargs, result):
        self.capture["generated"] = result

    def _observe_data_inject_noise(self, args, kwargs, result):
        self.capture["generated"] = result

    def _observe_data_write_sample_table(self, args, kwargs, result):
        return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}

    def _observe_data_load_sample_table(self, args, kwargs, result):
        self.capture["loaded"].append(result)
        return {"bytes": _file_bytes(args[0] if args else kwargs["path"])}

    def _observe_gmm_fit_gmm1d(self, args, kwargs, result):
        values = args[0] if args else kwargs["values"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {"space": config.orientation.name, "points": len(values),
                "iterations": result.iterations, "converged": result.converged}

    def _observe_metanet_build_meta_dataset(self, args, kwargs, result):
        return {"pairs": result.n}

    # -- metrics ------------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (0 where a layer did not run)."""
        index = [i for i, s in enumerate(self.spans) if s[_PASS] == pass_id]
        spans = {i: self.spans[i] for i in index}
        child_time = defaultdict(float)
        for s in spans.values():
            if s[_PARENT] in spans:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        total, calls, self_time, failures = (defaultdict(float), defaultdict(int),
                                             defaultdict(float), defaultdict(int))
        works = defaultdict(list)
        for i, s in spans.items():
            name, dur = s[_NAME], s[_END] - s[_START]
            if name == "pass":
                continue
            layer = name.split(".", 1)[0]
            total[name] += dur
            calls[name] += 1
            self_time[layer] += dur - child_time[i]
            if s[_ERROR] is not None:
                failures[layer] += 1
            if s[_WORK]:
                works[name].append((dur, s[_WORK]))

        fits = works["gmm.fit_gmm1d"]
        point_iterations = sum(w["points"] * w["iterations"] for _, w in fits)
        table_bytes = [w["bytes"] for name in ("data.write_sample_table", "data.load_sample_table")
                       for _, w in works[name]]
        meta_steps = calls["metanet.meta_loss_and_grads"]
        sgd_steps = calls["classifier.mixed_loss_and_grads"]
        sgd_time = total["classifier.mixed_loss_and_grads"] + total["classifier.apply_sgd_step"]
        starved = sum(1 for s in spans.values()
                      if s[_NAME] == "metanet.build_meta_dataset" and s[_ERROR] == "MetaStarved")

        def per(numerator: float, denominator: float, scale: float) -> float:
            return numerator * scale / denominator if denominator else 0.0

        m = {
            "data.write_table_s": total["data.write_sample_table"],
            "data.load_table_s": total["data.load_sample_table"],
            "data.load_table_calls": calls["data.load_sample_table"],
            "data.table_mib": max(table_bytes, default=0) / 2**20,
            "data.generate_s": total["data.generate_synthetic"] + total["data.inject_noise"],
            "scores.score_s": total["scores.score_dataset"],
            "gmm.fit_s": total["gmm.fit_gmm1d"],
            "gmm.fit_calls": calls["gmm.fit_gmm1d"],
            "gmm.em_iterations": sum(w["iterations"] for _, w in fits),
            "gmm.ns_per_point_iteration": per(total["gmm.fit_gmm1d"], point_iterations, 1e9),
            "gmm.loss_fit_s": sum(d for d, w in fits if w["space"] == "SMALLER_MEAN_CLEAN"),
            "gmm.feature_fit_s": sum(d for d, w in fits if w["space"] == "LARGER_MEAN_CLEAN"),
            "gmm.unconverged": sum(1 for _, w in fits if not w["converged"]),
            "gmm.posteriors_s": total["gmm.posteriors"],
            "division.compute_posteriors_s": total["division.compute_posteriors"],
            "division.divide_s": total["division.divide_dataset"],
            "division.write_partition_s": total["division.write_partition_file"],
            "division.read_partition_s": total["division.read_partition_file"],
            "metanet.pairs": sum(w["pairs"] for _, w in works["metanet.build_meta_dataset"]),
            "metanet.build_s": total["metanet.build_meta_dataset"],
            "metanet.train_s": total["metanet.train_meta"],
            "metanet.steps": meta_steps,
            "metanet.us_per_step": per(total["metanet.train_meta"], meta_steps, 1e6),
            "metanet.fuse_s": total["metanet.fuse_scores"],
            "metanet.purify_s": total["metanet.purify"],
            "metanet.starved": starved,
            "pipeline.distill_s": total["pipeline.run_distillation"],
            "pipeline.distill_calls": calls["pipeline.run_distillation"],
            "classifier.sgd_steps": sgd_steps,
            "classifier.grad_s": total["classifier.mixed_loss_and_grads"],
            "classifier.update_s": total["classifier.apply_sgd_step"],
            "classifier.us_per_step": per(sgd_time, sgd_steps, 1e6),
            "semisup.warmup_s": total["semisup.warmup"],
            "semisup.round_s": total["semisup.distill_round"],
            "semisup.represent_s": total["semisup.ensemble_representation"],
            "metrics.selection_s": total["metrics.selection_metrics"],
            "metrics.accuracy_s": total["metrics.accuracy"],
            "checkpoints.save_s": total["checkpoints.save_flat_params"],
            "trace.spans": len(spans) - 1,
            "trace.unresolved_targets": len(self.unresolved),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
            m[f"{layer}.failures"] = failures[layer]
        return m


def summarize(per_pass: list[dict[str, float]], traced_walls: list[float],
              untraced_walls: list[float]) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes, plus the overhead."""
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["trace.traced_wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out
