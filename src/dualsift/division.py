"""Dual-space sample division.

Per noisy cluster, posteriors from the loss-space and feature-space
mixtures are thresholded independently; samples accepted in both spaces
become positives, rejected in both become negatives, and disagreements
form the uncertain set that purification later re-judges.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np

from .data import NoisyCluster, read_text_lines
from .errors import DegenerateFit, ParseError
from .gmm import GmmConfig, Orientation, fit_gmm1d, posteriors
from .scores import ScoreTable

# A fitted component lighter than this has collapsed onto a few outliers;
# its posteriors would split the cluster on them, not on label noise.
MIN_COMPONENT_WEIGHT = 0.01

# Each space's mixture settings: small loss is clean, large similarity is clean.
LOSS_GMM = GmmConfig(Orientation.SMALLER_MEAN_CLEAN)
FEAT_GMM = GmmConfig(Orientation.LARGER_MEAN_CLEAN)

PARTITION_TAGS = ("P", "N", "U", "C", "UN", "DROPPED")
# A sample's tag; its value is the sample's code in a Partition.
Tag = IntEnum("Tag", PARTITION_TAGS, start=0)
_TAG_CODES = {tag.name: tag.value for tag in Tag}


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
    """One read-only :class:`Tag` code per sample id 0..N-1.

    P/N are division's certain positives and negatives, U its unjudged
    uncertain ids, and C/UN/DROPPED the uncertain ids purification judged
    clean, noisy or mid-band. The id sets are views of the codes, so they
    cover 0..N-1, and positives stay clean and negatives noisy, by construction.
    """

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        # range-check before the cast, which would wrap 256 to 0
        if codes.ndim != 1 or ((codes < 0) | (codes >= len(Tag))).any():
            raise ValueError("partition codes must be a 1-D array of Tag values")
        codes = codes.astype(np.int8)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_ids(cls, n_total: int, positive_ids, negative_ids, uncertain_ids) -> "Partition":
        """Build from division's P/N/U id sets, which must cover 0..N-1 exactly once."""
        id_sets = [np.asarray(ids, dtype=np.int64).ravel()
                   for ids in (positive_ids, negative_ids, uncertain_ids)]
        flat = np.concatenate(id_sets)
        if flat.size != n_total or (flat.size and (flat.min() < 0 or flat.max() >= n_total)) \
                or not np.bincount(flat, minlength=n_total).all():
            raise ValueError("P/N/U must partition 0..N-1")
        codes = np.empty(n_total, dtype=np.int8)
        for tag, ids in zip((Tag.P, Tag.N, Tag.U), id_sets):
            codes[ids] = tag
        return cls(codes)

    def _having(self, *tags: Tag) -> np.ndarray:
        """Ascending ids whose tag is one of ``tags``."""
        wanted = np.zeros(len(Tag), dtype=bool)
        wanted[list(tags)] = True
        return np.flatnonzero(wanted[self.codes])

    n_total = property(lambda self: self.codes.size)
    positive_ids = property(lambda self: self._having(Tag.P))
    negative_ids = property(lambda self: self._having(Tag.N))
    certain_ids = property(lambda self: self._having(Tag.P, Tag.N))
    uncertain_ids = property(lambda self: self._having(Tag.U, Tag.C, Tag.UN, Tag.DROPPED))
    clean_ids = property(lambda self: self._having(Tag.P, Tag.C))
    noisy_ids = property(lambda self: self._having(Tag.N, Tag.UN))
    dropped_ids = property(lambda self: self._having(Tag.DROPPED))

    def tags(self) -> list[str]:
        """Per-id assignment tag: P/N/U before purification, P/N/C/UN/DROPPED after."""
        return np.array(PARTITION_TAGS, dtype=object)[self.codes].tolist()


def _checked_fit(values: np.ndarray, config: GmmConfig):
    """``fit_gmm1d``, with a collapsed component raised as :class:`DegenerateFit`."""
    g = fit_gmm1d(values, config)
    weight = float(g.weights.min())
    if weight < MIN_COMPONENT_WEIGHT:
        raise DegenerateFit(f"component weight {weight:.3g} below {MIN_COMPONENT_WEIGHT}")
    return g


def compute_posteriors(
    table: ScoreTable,
    clusters: list[NoisyCluster],
    loss_config: GmmConfig = LOSS_GMM,
    feat_config: GmmConfig = FEAT_GMM,
) -> tuple[ScoreTable, list[str]]:
    """Fit per-cluster mixtures in both spaces and fill the posteriors.

    Degenerate fits, and fits with a component lighter than
    ``MIN_COMPONENT_WEIGHT``, leave that cluster's posteriors NaN in the
    affected space (routing its members to the uncertain set) and are
    reported in the returned notes.
    """
    out = replace(table, posterior_loss=table.posterior_loss.copy(),
                  posterior_sim=table.posterior_sim.copy())
    notes: list[str] = []
    for cluster in clusters:
        ids = cluster.member_ids
        if ids.size == 0:
            continue
        try:
            g = _checked_fit(out.loss_score[ids], loss_config)
            out.posterior_loss[ids] = posteriors(g, out.loss_score[ids])
        except DegenerateFit as exc:
            notes.append(f"gmm_degenerate:class={cluster.class_id}:space=loss:{exc}")
        try:
            g = _checked_fit(out.sim_score[ids], feat_config)
            out.posterior_sim[ids] = posteriors(g, out.sim_score[ids])
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
    pos_parts, neg_parts, unc_parts = ([np.empty(0, dtype=np.int64)] for _ in range(3))
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
    return Partition.from_ids(table.n, np.concatenate(pos_parts), np.concatenate(neg_parts),
                              np.concatenate(unc_parts))


def write_partition_file(partition: Partition, path: str | Path) -> None:
    """Newline-delimited ``id,tag`` serialization of the partition."""
    lines = [f"{i},{tag}" for i, tag in enumerate(partition.tags())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_partition_file(path: str | Path) -> Partition:
    """Parse an ``id,tag`` partition file whose ids are exactly 0..N-1, in any order.

    One numpy pass over the bytes reads a file of strict ``digits,TAG\\n``
    lines; anything else goes to the line parser, which owns every error
    message.
    """
    partition = _read_partition_numpy(path)
    return _read_partition_lines(path) if partition is None else partition


_TAG_BYTES = [(np.frombuffer(tag.name.encode(), dtype=np.uint8), tag) for tag in Tag]


def _read_partition_numpy(path: str | Path) -> Partition | None:
    """The fast path of :func:`read_partition_file`; None where it cannot vouch
    for giving the line parser's result."""
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except (OSError, ValueError):
        return None
    ends, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
    n = ends.size
    if n == 0 or commas.size != n or ends[-1] != raw.size - 1:
        return None
    id_len, tag_len = commas - np.r_[0, ends[:-1] + 1], ends - commas - 1
    # one comma inside each line; a longer id has leading zeros or exceeds n - 1
    if id_len.min() < 1 or tag_len.min() < 1 or id_len.max() > len(str(n - 1)):
        return None
    ids, codes = np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int8)
    for place in range(1, id_len.max() + 1):
        rows = np.flatnonzero(id_len >= place)
        digits = raw[commas[rows] - place].astype(np.int64) - ord("0")
        if ((digits < 0) | (digits > 9)).any():
            return None
        ids[rows] += digits * 10 ** (place - 1)
    for name, tag in _TAG_BYTES:
        rows = np.flatnonzero(tag_len == name.size)
        match = (raw[commas[rows, None] + np.arange(1, name.size + 1)] == name).all(axis=1)
        codes[rows[match]] = tag
    if (codes < 0).any() or ids.max() >= n or not np.bincount(ids, minlength=n).all():
        return None
    by_id = np.empty(n, dtype=np.int8)
    by_id[ids] = codes
    return Partition(by_id)


def _read_partition_lines(path: str | Path) -> Partition:
    """Line-by-line parser; the error path of :func:`read_partition_file`."""
    mapping: dict[int, int] = {}
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
        code = _TAG_CODES.get(tag)
        if code is None:
            raise ParseError(f"unknown tag {tag!r}", line=lineno)
        if sample_id in mapping:
            raise ParseError(f"duplicate id {sample_id}", line=lineno)
        mapping[sample_id] = code
    if not mapping:
        raise ParseError("no assignments")
    # the ids are distinct, so they are exactly 0..N-1 when both ends are
    if min(mapping) != 0 or max(mapping) != len(mapping) - 1:
        raise ParseError(f"ids run {min(mapping)}..{max(mapping)}, not 0..{len(mapping) - 1}")
    n = len(mapping)
    return Partition(np.fromiter(map(mapping.__getitem__, range(n)), dtype=np.int8, count=n))
