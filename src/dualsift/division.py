"""Dual-space sample division.

Per noisy cluster, posteriors from the loss-space and feature-space
mixtures are thresholded independently; samples accepted in both spaces
become positives, rejected in both become negatives, and disagreements
form the uncertain set that purification later re-judges.

A partition file, one ``id,tag`` line per sample, is read like a sample
table: by ``data.loadtxt_rows`` and ``data.id_order``, or its line parser;
it is written like one too, through ``data.repr_rows`` in blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np

from .data import (ROW_BLOCK, id_order, integral, loadtxt_rows, parse_number, read_text_lines,
                   repr_rows)
from .errors import DegenerateFit, ParseError
from .gmm import Gmm1d, GmmConfig, Orientation, fit_gmm1d, posteriors
from .scores import SCORE_RANGE, ScoreTable, in_range

# A fitted component lighter than this has collapsed onto a few outliers;
# its posteriors would split the cluster on them, not on label noise.
MIN_COMPONENT_WEIGHT = 0.01

# Each space's mixture settings: small loss is clean, large similarity is clean.
LOSS_GMM = GmmConfig(Orientation.SMALLER_MEAN_CLEAN)
FEAT_GMM = GmmConfig(Orientation.LARGER_MEAN_CLEAN)

PARTITION_TAGS = ("P", "N", "U", "C", "UN", "DROPPED")
# A sample's tag; its value is the sample's code in a Partition.
Tag = IntEnum("Tag", PARTITION_TAGS, start=0)


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
        name, _, raw = text.partition(":")
        name = name.strip()
        try:
            kind = StrategyKind("fixed" if name == "noise" else name)
            value = float(raw)
        except ValueError:
            raise ValueError(f"bad threshold strategy {text!r}; expected fixed:T, "
                             "noise:P, or percentile:P") from None
        return cls(kind, value)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.value}"


def resolve_threshold(strategy: ThresholdStrategy, posteriors_list: np.ndarray) -> float:
    """Turn a strategy into a concrete cutoff for one posterior population.

    PERCENTILE uses the nearest-rank quantile sorted[ceil(p*n) - 1] of the n
    finite posteriors, the 1-based rank clamped to the valid range; with none
    there is nothing to judge, and the cutoff is NaN, which fails every comparison.
    """
    if strategy.kind is StrategyKind.FIXED:
        return strategy.value
    vals = np.asarray(posteriors_list, dtype=np.float64).ravel()
    vals = np.sort(vals[np.isfinite(vals)])
    if vals.size == 0:
        return np.nan
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
    posteriors and every member at a NaN threshold, is uncertain.
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
        codes = integral(self.codes, "partition codes")
        # range-check before the cast, which would wrap 256 to 0
        if codes.ndim != 1 or ((codes < 0) | (codes >= len(Tag))).any():
            raise ValueError("partition codes must be a 1-D array of Tag values")
        codes = codes.astype(np.int8)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

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


# A cluster's fit in one space, keyed by (class_id, space), space "loss" or "feature".
Mixtures = dict[tuple[int, str], Gmm1d]


def compute_posteriors(
    table: ScoreTable,
    clusters: list[np.ndarray],
    loss_config: GmmConfig = LOSS_GMM,
    feat_config: GmmConfig = FEAT_GMM,
    init: Mixtures | None = None,
) -> tuple[ScoreTable, list[str], Mixtures]:
    """Fit per-cluster mixtures in both spaces and fill the posteriors.

    A cluster's scores beyond ``SCORE_RANGE`` are fit divided by a power of
    two. Degenerate fits, and fits with a component lighter than
    ``MIN_COMPONENT_WEIGHT``, leave that cluster's posteriors NaN in the
    affected space (routing its members to the uncertain set) and are
    reported in the returned notes.

    Each fit starts from ``init``'s mixture for its cluster and space when
    there is one (a previous pass's fits, say), and from the percentiles
    when not. The returned mixtures hold every accepted fit of unscaled
    scores: a divided cluster's fit is in other units than its next
    scores, so it neither starts from a mixture nor passes one on.
    """
    init = init or {}
    out = replace(table, posteriors=table.posteriors.copy())
    spaces = (("loss", loss_config, out.loss_score, out.posterior_loss),
              ("feature", feat_config, out.sim_score, out.posterior_sim))
    notes: list[str] = []
    fits: Mixtures = {}
    for class_id, ids in enumerate(clusters):
        if ids.size == 0:
            continue
        for space, config, scores, posterior in spaces:
            key = (class_id, space)
            raw = scores[ids]
            values = in_range(raw, SCORE_RANGE)
            scaled = values is not raw  # in_range returns what it does not divide
            try:
                g = fit_gmm1d(values, config, init=None if scaled else init.get(key))
                weight = float(g.weights.min())
                if weight < MIN_COMPONENT_WEIGHT:
                    raise DegenerateFit(
                        f"component weight {weight:.3g} below {MIN_COMPONENT_WEIGHT}")
            except DegenerateFit as exc:
                notes.append(f"gmm_degenerate:class={class_id}:space={space}:{exc}")
                continue
            posterior[ids] = posteriors(g, values)
            if not scaled:
                fits[key] = g
    return out, notes, fits


def divide_dataset(
    table: ScoreTable,
    clusters: list[np.ndarray],
    strategy_loss: ThresholdStrategy,
    strategy_feat: ThresholdStrategy,
) -> Partition:
    """Threshold posteriors per cluster and assemble the global partition.

    Thresholds are resolved independently per cluster over that cluster's
    finite posteriors. A member with a NaN posterior, or of a cluster whose
    cutoff is NaN in a space, stays uncertain, as does an id no cluster covers.
    """
    codes = np.full(table.n, Tag.U, dtype=np.int8)
    for ids in clusters:
        pp, ps = table.posteriors[ids].T
        pos, neg, _ = divide_cluster(pp, ps, resolve_threshold(strategy_loss, pp),
                                     resolve_threshold(strategy_feat, ps))
        codes[ids[pos]] = Tag.P
        codes[ids[neg]] = Tag.N
    return Partition(codes)


_TAG_BYTES = np.array([tag.encode() for tag in PARTITION_TAGS], dtype=object)


def write_partition_file(partition: Partition, path: str | Path) -> None:
    """Newline-delimited ``id,tag`` serialization of the partition,
    ``ROW_BLOCK`` lines per write to keep memory flat."""
    codes = partition.codes
    with open(path, "wb") as fh:
        for start in range(0, codes.size, ROW_BLOCK):
            tags = _TAG_BYTES[codes[start:start + ROW_BLOCK]]
            ids = repr_rows(np.arange(start, start + tags.size)[:, None])
            fh.write(b"\n".join(map(b",".join, zip(ids, tags))) + b"\n")


def read_partition_file(path: str | Path) -> Partition:
    """Parse an ``id,tag`` partition file whose ids are exactly 0..N-1, in any order.

    One ``np.loadtxt`` pass reads a file of ``id,TAG`` lines with plain
    ASCII ids and tags; anything else goes to the line parser, which owns
    every error message.
    """
    partition = _read_partition_numpy(path)
    return _read_partition_lines(path) if partition is None else partition


# Every tag fits in 7 bytes, so a longer one cut to 8 matches none.
_PARTITION_ROW = np.dtype([("id", "i8"), ("tag", "S8")])


def _read_partition_numpy(path: str | Path) -> Partition | None:
    """The fast path of :func:`read_partition_file`; None where it cannot vouch
    for giving the line parser's result."""
    rows = loadtxt_rows(path, _PARTITION_ROW)
    order = None if rows is None else id_order(rows["id"])
    if order is None:
        return None
    codes = np.full(rows.size, -1, dtype=np.int8)
    for tag in Tag:
        codes[rows["tag"] == tag.name.encode()] = tag
    return None if (codes < 0).any() else Partition(codes[order])


def _read_partition_lines(path: str | Path) -> Partition:
    """Line-by-line parser; the error path of :func:`read_partition_file`."""
    mapping: dict[int, int] = {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected id,tag", line=lineno)
        sample_id = parse_number(parts[0], int, lineno)
        tag = parts[1].strip()
        code = Tag.__members__.get(tag)
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
