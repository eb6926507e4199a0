"""Data model, sample-table I/O, synthetic benchmarks, and noise injection.

The on-disk sample-table format is UTF-8 CSV with header
``id,noisy_label,true_label,feat_0..feat_{D-1},logit_0..logit_{K-1}``.
Floats are serialized with full round-trip precision and a true label of
-1 marks an absent ground truth.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError
from .seeding import rng_from

# Absolute stddev of the Gaussian jitter added to synthetic oracle logits.
# Kept small relative to the default logit_sharpness so the loss signal is
# informative but not perfectly separable.
LOGIT_JITTER = 1.0


class NoiseKind(Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class Dataset:
    """Columnar, immutable collection of samples.

    ``true_labels`` stores -1 for absent ground truth.
    """

    features: np.ndarray      # (N, D) float64
    logits: np.ndarray        # (N, K) float64
    noisy_labels: np.ndarray  # (N,) int64
    true_labels: np.ndarray   # (N,) int64, -1 where absent

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        noisy = np.ascontiguousarray(self.noisy_labels, dtype=np.int64)
        true = np.ascontiguousarray(self.true_labels, dtype=np.int64)
        if features.ndim != 2 or logits.ndim != 2:
            raise ValueError("features and logits must be 2-d arrays")
        n = features.shape[0]
        if logits.shape[0] != n or noisy.shape != (n,) or true.shape != (n,):
            raise ValueError("row counts disagree across columns")
        k = logits.shape[1]
        if k < 1 or features.shape[1] < 1:
            raise ValueError("need at least one class and one feature dimension")
        if n and (noisy.min() < 0 or noisy.max() >= k):
            raise ValueError("noisy label out of range")
        if n and (true.min() < -1 or true.max() >= k):
            raise ValueError("true label out of range")
        for name, arr in (("features", features), ("logits", logits)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        for name, arr in (("features", features), ("logits", logits),
                          ("noisy_labels", noisy), ("true_labels", true)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def has_true_labels(self) -> bool:
        """True when every sample carries a ground-truth label."""
        return self.n > 0 and bool((self.true_labels >= 0).all())

    @property
    def clean_mask(self) -> np.ndarray:
        """Per-sample flag: noisy label equals the true label."""
        if not self.has_true_labels:
            raise ValueError("dataset has no complete ground truth")
        return self.noisy_labels == self.true_labels

    def with_representation(self, features: np.ndarray, logits: np.ndarray) -> "Dataset":
        """Same samples, different embedding and score columns."""
        return Dataset(features, logits, self.noisy_labels, self.true_labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Re-indexed dataset holding ``indices`` in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx], self.logits[idx],
            self.noisy_labels[idx], self.true_labels[idx],
        )


@dataclass(frozen=True)
class NoisyCluster:
    """Samples sharing one noisy label value."""

    class_id: int
    member_ids: np.ndarray

    def __len__(self) -> int:
        return self.member_ids.size


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"noise rate must lie in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class SyntheticSpec:
    k: int
    d: int
    n: int
    cluster_spread: float = 0.32
    logit_sharpness: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.n < 0:
            raise ValueError("k, d must be positive and n non-negative")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        if self.cluster_spread <= 0:
            raise ValueError("cluster_spread must be positive")
        if self.logit_sharpness <= 0:
            raise ValueError("logit_sharpness must be positive")


def _class_centroids(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if d >= k:
        centroids = np.zeros((k, d))
        centroids[np.arange(k), np.arange(k)] = 1.0
        return centroids
    # More classes than dimensions: random unit rows are near-orthogonal
    # enough that cluster_spread still controls separability.
    mat = rng.standard_normal((k, d))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a deterministic toy benchmark with known-clean labels.

    Each sample sits near its class centroid with isotropic Gaussian spread
    and carries oracle logits pointing at the true class. Noisy labels start
    equal to the true labels; corrupt them with :func:`inject_noise`.
    """
    rng = rng_from(spec.seed)
    true = rng.integers(0, spec.k, size=spec.n)
    centroids = _class_centroids(spec.k, spec.d, rng)
    features = centroids[true] + spec.cluster_spread * rng.standard_normal((spec.n, spec.d))
    onehot = np.zeros((spec.n, spec.k))
    onehot[np.arange(spec.n), true] = 1.0
    logits = spec.logit_sharpness * onehot + LOGIT_JITTER * rng.standard_normal((spec.n, spec.k))
    return Dataset(features, logits, true.copy(), true.copy())


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> Dataset:
    """Corrupt a fraction of noisy labels, preserving the true labels.

    Symmetric noise redraws the label of round(rate * N) samples uniformly
    over all K classes, the original class included, so the expected flipped
    fraction is rate * (K - 1) / K. Asymmetric noise maps the affected
    labels to the cyclic successor class.
    """
    if not dataset.has_true_labels:
        raise ValueError("noise injection needs ground-truth labels to preserve")
    rng = rng_from(spec.seed)
    n, k = dataset.n, dataset.num_classes
    n_affected = int(round(spec.rate * n))
    chosen = rng.permutation(n)[:n_affected]
    noisy = dataset.noisy_labels.copy()
    if spec.kind is NoiseKind.SYMMETRIC:
        noisy[chosen] = rng.integers(0, k, size=n_affected)
    else:
        noisy[chosen] = (noisy[chosen] + 1) % k
    return Dataset(dataset.features, dataset.logits, noisy, dataset.true_labels)


def partition_by_label(dataset: Dataset) -> list[NoisyCluster]:
    """Split the sample ids into one cluster per noisy label value."""
    return [
        NoisyCluster(class_id=k, member_ids=np.flatnonzero(dataset.noisy_labels == k))
        for k in range(dataset.num_classes)
    ]


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Deterministic train/test split; returns (train, test, train_ids, test_ids)."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must lie in [0, 1)")
    rng = rng_from(seed, "test-split")
    perm = rng.permutation(dataset.n)
    n_test = int(round(test_fraction * dataset.n))
    test_ids = np.sort(perm[:n_test])
    train_ids = np.sort(perm[n_test:])
    return dataset.subset(train_ids), dataset.subset(test_ids), train_ids, test_ids


def _expected_header(d: int, k: int) -> list[str]:
    return (
        ["id", "noisy_label", "true_label"]
        + [f"feat_{i}" for i in range(d)]
        + [f"logit_{i}" for i in range(k)]
    )


def _parse_header(line: str) -> tuple[int, int]:
    cols = line.rstrip("\n").split(",")
    if cols[:3] != ["id", "noisy_label", "true_label"]:
        raise ParseError("header must start with id,noisy_label,true_label", line=1)
    d = sum(1 for c in cols[3:] if c.startswith("feat_"))
    k = len(cols) - 3 - d
    if d < 1 or k < 1:
        raise ParseError("header needs feat_* and logit_* columns", line=1)
    if cols != _expected_header(d, k):
        raise ParseError("feat_/logit_ columns malformed or out of order", line=1)
    return d, k


def load_sample_table(path: str | Path) -> Dataset:
    """Parse a sample-table CSV. Raises ParseError naming the bad line.

    One ``np.loadtxt`` pass reads every table the line parser would accept
    with identical values; anything else goes to the line parser, which
    owns every error message.
    """
    dataset = _load_sample_table_numpy(path)
    return _load_sample_table_lines(path) if dataset is None else dataset


# str.splitlines breaks lines at \x0b \x0c \x1c \x1d \x1e, loadtxt does not;
# loadtxt's number parsers skip \x1c-\x1f as whitespace, int() and float()
# do not. A table holding any of them takes the line parser.
_LOADTXT_UNSAFE = "\x0b\x0c\x1c\x1d\x1e\x1f"
_SCAN_CHUNK = 1 << 20


def _load_sample_table_numpy(path: str | Path) -> Dataset | None:
    """The fast path of :func:`load_sample_table`; None where it cannot vouch
    for giving the line parser's result."""
    try:
        with open(path, encoding="ascii") as fh:
            d, k = _parse_header(fh.readline())
            for chunk in iter(lambda: fh.read(_SCAN_CHUNK), ""):
                if any(c in chunk for c in _LOADTXT_UNSAFE):
                    return None
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    dtype = np.dtype([("id", "i8"), ("noisy", "i8"), ("true", "i8"), ("x", "f8", (d + k,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                               comments=None, ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None
    n = table.size
    ids, noisy, true, x = table["id"], table["noisy"], table["true"], table["x"]
    if (n == 0 or not np.isfinite(x).all() or noisy.min() < 0 or noisy.max() >= k
            or true.min() < -1 or true.max() >= k):
        return None
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(n)):
        return None
    return Dataset(x[order, :d], x[order, d:], noisy[order], true[order])


def _load_sample_table_lines(path: str | Path) -> Dataset:
    """Line-by-line reference parser; the error path of :func:`load_sample_table`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file")
    d, k = _parse_header(lines[0])
    rows = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if not rows:
        raise ParseError("no samples")
    n = len(rows)
    features = np.empty((n, d))
    logits = np.empty((n, k))
    noisy = np.empty(n, dtype=np.int64)
    true = np.empty(n, dtype=np.int64)
    ids = np.empty(n, dtype=np.int64)
    width = 3 + d + k
    for row_idx, (lineno, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, got {len(parts)}", line=lineno)
        try:
            ids[row_idx] = int(parts[0])
            noisy[row_idx] = int(parts[1])
            true[row_idx] = int(parts[2])
            floats = [float(p) for p in parts[3:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not all(math.isfinite(v) for v in floats):
            raise ParseError("non-finite float value", line=lineno)
        if not 0 <= noisy[row_idx] < k:
            raise ParseError(f"noisy_label {noisy[row_idx]} outside [0, {k})", line=lineno)
        if not -1 <= true[row_idx] < k:
            raise ParseError(f"true_label {true[row_idx]} outside [-1, {k})", line=lineno)
        features[row_idx] = floats[:d]
        logits[row_idx] = floats[d:]
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(n)):
        raise ParseError("sample ids must form 0..N-1 without gaps or duplicates")
    return Dataset(features[order], logits[order], noisy[order], true[order])


# Rows formatted per write; larger blocks raise peak memory.
_WRITE_BLOCK = 256


def write_sample_table(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset in the sample-table CSV format.

    Floats are written as their Python ``repr`` (shortest round-trip form);
    rows go out in blocks of ``_WRITE_BLOCK`` to keep memory flat.
    """
    d, k = dataset.feature_dim, dataset.num_classes
    row = "%d,%d,%d," + ",".join(["%r"] * (d + k)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_expected_header(d, k)) + "\n")
        for start in range(0, dataset.n, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            fh.write("".join(
                row % (i, y, t, *f, *g) for i, y, t, f, g in zip(
                    range(start, start + _WRITE_BLOCK),
                    dataset.noisy_labels[block].tolist(), dataset.true_labels[block].tolist(),
                    dataset.features[block].tolist(), dataset.logits[block].tolist())))
