"""Dual-space sample division.

Per noisy cluster, posteriors from the loss-space and feature-space
mixtures are thresholded independently; samples accepted in both spaces
become positives, rejected in both become negatives, and disagreements
form the uncertain set that purification later re-judges.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .data import NoisyCluster, read_text_lines
from .errors import DegenerateFit, ParseError
from .gmm import GmmConfig, Orientation, fit_gmm1d, posteriors
from .scores import ScoreTable

PARTITION_TAGS = ("P", "N", "U", "C", "UN", "DROPPED")


class StrategyKind(Enum):
    FIXED = "fixed"
    PERCENTILE = "percentile"


@dataclass(frozen=True)
class ThresholdStrategy:
    kind: StrategyKind
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"strategy parameter must lie in [0, 1], got {self.value}")

    @classmethod
    def fixed(cls, t: float) -> "ThresholdStrategy":
        return cls(StrategyKind.FIXED, t)

    @classmethod
    def percentile(cls, p: float) -> "ThresholdStrategy":
        return cls(StrategyKind.PERCENTILE, p)

    @classmethod
    def parse(cls, text: str) -> "ThresholdStrategy":
        """Parse 'fixed:0.5', 'noise:0.4', or 'percentile:0.36'.

        An estimated noise rate P is used as the cutoff itself, so 'noise:P'
        parses to the same strategy as 'fixed:P'.
        """
        try:
            name, raw = text.split(":", 1)
            name = name.strip()
            return cls(StrategyKind("fixed" if name == "noise" else name), float(raw))
        except ValueError as exc:
            raise ValueError(f"bad threshold strategy {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.value}"


def resolve_threshold(strategy: ThresholdStrategy, posteriors_list: np.ndarray) -> float:
    """Turn a strategy into a concrete cutoff for one posterior population.

    PERCENTILE uses the nearest-rank quantile sorted[ceil(p*n) - 1] with the
    1-based rank clamped to the valid range.
    """
    if strategy.kind is StrategyKind.FIXED:
        return strategy.value
    vals = np.sort(np.asarray(posteriors_list, dtype=np.float64).ravel())
    if vals.size == 0:
        raise ValueError("percentile strategy needs a non-empty posterior list")
    rank = int(np.ceil(strategy.value * vals.size))
    return float(vals[min(max(rank, 1), vals.size) - 1])


def divide_cluster(
    posterior_loss: np.ndarray,
    posterior_sim: np.ndarray,
    loss_threshold: float,
    sim_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split one cluster's members into (positive, negative, uncertain) indices.

    Positive requires strictly exceeding both thresholds, negative requires
    at-or-below both; everything else, including members with NaN
    posteriors, is uncertain.
    """
    pp = np.asarray(posterior_loss, dtype=np.float64)
    ps = np.asarray(posterior_sim, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        pos = (pp > loss_threshold) & (ps > sim_threshold)
        neg = (pp <= loss_threshold) & (ps <= sim_threshold)
    unc = ~(pos | neg)
    return np.flatnonzero(pos), np.flatnonzero(neg), np.flatnonzero(unc)


@dataclass(frozen=True)
class Partition:
    """Id sets produced by division and, later, purification.

    ``clean_ids``/``noisy_ids``/``dropped_ids`` are None until purification
    fills them. Positives are always a subset of the final clean set and
    negatives of the final noisy set.
    """

    n_total: int
    positive_ids: np.ndarray
    negative_ids: np.ndarray
    uncertain_ids: np.ndarray
    clean_ids: np.ndarray | None = None
    noisy_ids: np.ndarray | None = None
    dropped_ids: np.ndarray | None = None

    def __post_init__(self):
        for name in ("positive_ids", "negative_ids", "uncertain_ids",
                     "clean_ids", "noisy_ids", "dropped_ids"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.unique(np.asarray(arr, dtype=np.int64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        combined = np.concatenate([self.positive_ids, self.negative_ids, self.uncertain_ids])
        if combined.size != self.n_total or not np.array_equal(np.sort(combined), np.arange(self.n_total)):
            raise ValueError("positive/negative/uncertain must partition 0..N-1")
        purified_fields = (self.clean_ids, self.noisy_ids, self.dropped_ids)
        if any(a is not None for a in purified_fields) and any(a is None for a in purified_fields):
            raise ValueError("clean/noisy/dropped must be set together")
        if self.purified:
            if np.intersect1d(self.clean_ids, self.noisy_ids).size:
                raise ValueError("clean and noisy sets overlap")
            if not np.isin(self.positive_ids, self.clean_ids).all():
                raise ValueError("positives must stay in the clean set")
            if not np.isin(self.negative_ids, self.noisy_ids).all():
                raise ValueError("negatives must stay in the noisy set")
            judged = np.concatenate([self.clean_ids, self.noisy_ids, self.dropped_ids])
            if not np.array_equal(np.sort(judged), np.arange(self.n_total)):
                raise ValueError("clean/noisy/dropped must cover all ids")

    @property
    def purified(self) -> bool:
        return self.clean_ids is not None

    @property
    def certain_ids(self) -> np.ndarray:
        return np.union1d(self.positive_ids, self.negative_ids)

    def tags(self) -> list[str]:
        """Per-id assignment tag: P/N/U before purification, P/N/C/UN/DROPPED after."""
        tags = np.full(self.n_total, "U", dtype=object)
        if self.purified:
            tags[self.clean_ids] = "C"
            tags[self.noisy_ids] = "UN"
            tags[self.dropped_ids] = "DROPPED"
        tags[self.positive_ids] = "P"
        tags[self.negative_ids] = "N"
        return tags.tolist()


def compute_posteriors(
    table: ScoreTable,
    clusters: list[NoisyCluster],
    loss_config: GmmConfig | None = None,
    feat_config: GmmConfig | None = None,
) -> tuple[ScoreTable, list[str]]:
    """Fit per-cluster mixtures in both spaces and fill the posteriors.

    Degenerate fits leave that cluster's posteriors NaN in the affected
    space (routing its members to the uncertain set) and are reported in
    the returned notes.
    """
    loss_config = loss_config or GmmConfig(Orientation.SMALLER_MEAN_CLEAN)
    feat_config = feat_config or GmmConfig(Orientation.LARGER_MEAN_CLEAN)
    out = replace(table, posterior_loss=table.posterior_loss.copy(),
                  posterior_sim=table.posterior_sim.copy())
    notes: list[str] = []
    for cluster in clusters:
        ids = cluster.member_ids
        if ids.size == 0:
            continue
        try:
            g = fit_gmm1d(out.loss_score[ids], loss_config)
            out.posterior_loss[ids] = posteriors(g, out.loss_score[ids])
        except DegenerateFit as exc:
            notes.append(f"gmm_degenerate:class={cluster.class_id}:space=loss:{exc}")
        scored = ids[~out.unscored_sim[ids]]
        try:
            if scored.size == 0:
                raise DegenerateFit("no scored members")
            g = fit_gmm1d(out.sim_score[scored], feat_config)
            out.posterior_sim[scored] = posteriors(g, out.sim_score[scored])
        except DegenerateFit as exc:
            notes.append(f"gmm_degenerate:class={cluster.class_id}:space=feature:{exc}")
    return out, notes


def divide_dataset(
    table: ScoreTable,
    clusters: list[NoisyCluster],
    strategy_loss: ThresholdStrategy,
    strategy_feat: ThresholdStrategy,
) -> Partition:
    """Threshold posteriors per cluster and assemble the global partition.

    Thresholds are resolved independently per cluster over that cluster's
    finite posteriors. Clusters without usable posteriors in a space send
    all members to the uncertain set.
    """
    pos_parts, neg_parts, unc_parts = [], [], []
    for cluster in clusters:
        ids = cluster.member_ids
        if ids.size == 0:
            continue
        pp = table.posterior_loss[ids]
        ps = table.posterior_sim[ids]
        finite_pp = pp[np.isfinite(pp)]
        finite_ps = ps[np.isfinite(ps)]
        if finite_pp.size == 0 or finite_ps.size == 0:
            unc_parts.append(ids)
            continue
        t_loss = resolve_threshold(strategy_loss, finite_pp)
        t_sim = resolve_threshold(strategy_feat, finite_ps)
        pos, neg, unc = divide_cluster(pp, ps, t_loss, t_sim)
        pos_parts.append(ids[pos])
        neg_parts.append(ids[neg])
        unc_parts.append(ids[unc])

    def _cat(parts):
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    return Partition(
        n_total=table.n,
        positive_ids=_cat(pos_parts),
        negative_ids=_cat(neg_parts),
        uncertain_ids=_cat(unc_parts),
    )


def write_partition_file(partition: Partition, path: str | Path) -> None:
    """Newline-delimited ``id,tag`` serialization of the partition."""
    lines = [f"{i},{tag}" for i, tag in enumerate(partition.tags())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_partition_file(path: str | Path) -> dict[int, str]:
    """Parse an ``id,tag`` partition file into an id -> tag mapping."""
    mapping: dict[int, str] = {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected id,tag", line=lineno)
        try:
            sample_id = int(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        tag = parts[1].strip()
        if tag not in PARTITION_TAGS:
            raise ParseError(f"unknown tag {tag!r}", line=lineno)
        if sample_id in mapping:
            raise ParseError(f"duplicate id {sample_id}", line=lineno)
        mapping[sample_id] = tag
    if not mapping:
        raise ParseError("no assignments")
    return mapping
