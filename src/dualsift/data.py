"""Data model, sample-table I/O, synthetic benchmarks, and noise injection.

The on-disk sample-table format is UTF-8 CSV with header
``id,noisy_label,true_label,feat_0..feat_{D-1},logit_0..logit_{K-1}``.
Floats are serialized with full round-trip precision and a true label of
-1 marks an absent ground truth. Beside each table it writes, the writer
leaves a sidecar ``<table>.sidecar`` of five ``.npy`` records, the table's
arrays and then its block digest, which lets a later load skip the parse.
The block digest is the sha256 of the concatenated sha256 digests of the
table's 4 MiB blocks; the blocks of a larger table are hashed on a thread
pool while the calling thread reads or writes the arrays, and a writer
installs the sidecar only if the table's stat is as it left it. A record's
data is read only once its header fits the table and the file, and the
``<table>.npz`` of earlier versions is neither read nor removed.

Both text formats, tables and partition files, are read by one vouched
``np.loadtxt`` pass (:func:`loadtxt_rows`) and one id check (:func:`id_order`);
a file the pass refuses goes to its line parser, which owns every error.
Every line parser, the checkpoint reader's too, reads each numeric field
through :func:`parse_number`, the one rule for number text.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import orjson

from .errors import FieldError, ParseError, check_fields
from .seeding import rng_from

# Rows per block of every pass over a whole table outside per-cluster
# scoring (generate, table and partition writes, fusion, and in the trainer
# the ensemble's forward passes and its epoch gathers); larger blocks raise
# peak memory.
ROW_BLOCK = 1024

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
        noisy = np.ascontiguousarray(integral(self.noisy_labels, "noisy_labels"), dtype=np.int64)
        true = np.ascontiguousarray(integral(self.true_labels, "true_labels"), dtype=np.int64)
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
            # ROW_BLOCK rows at a time, so no (N, D) mask is held
            if not all(np.isfinite(arr[s:s + ROW_BLOCK]).all() for s in range(0, n, ROW_BLOCK)):
                raise ValueError(f"{name} must be finite")
        # read-only views: the caller's arrays keep their flags, nothing is copied
        for name, arr in (("features", features), ("logits", logits),
                          ("noisy_labels", noisy), ("true_labels", true)):
            arr = arr.view()
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
class NoiseSpec:
    kind: NoiseKind
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"noise rate must lie in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class SyntheticSpec:
    k: int = 10
    d: int = 16
    n: int = 5000
    cluster_spread: float = 0.32
    logit_sharpness: float = 3.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("k", "d"), lambda v: v >= 1, "must be >= 1")
        check_fields(self, ("n",), lambda v: v >= self.k, f"must be >= k ({self.k})")
        check_fields(self, ("cluster_spread", "logit_sharpness"), math.isfinite,
                     "must be finite")
        check_fields(self, ("cluster_spread", "logit_sharpness"), lambda v: v > 0,
                     "must be positive")


def _class_centroids(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if d >= k:
        centroids = np.zeros((k, d))
        centroids[np.arange(k), np.arange(k)] = 1.0
        return centroids
    # More classes than dimensions: random unit rows are near-orthogonal
    # enough that cluster_spread still controls separability.
    mat = rng.standard_normal((k, d))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(n, num_classes) float64 rows holding 1.0 at each label."""
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a deterministic toy benchmark with known-clean labels.

    Each sample sits near its class centroid with isotropic Gaussian spread
    and carries oracle logits pointing at the true class. Noisy labels start
    equal to the true labels; corrupt them with :func:`inject_noise`.
    """
    rng = rng_from(spec.seed)
    true = rng.integers(0, spec.k, size=spec.n)
    centroids = _class_centroids(spec.k, spec.d, rng)
    # the normals are drawn into the output arrays and shifted in place,
    # ROW_BLOCK rows at a time, so no second (N, D) or (N, K) array exists
    features = rng.standard_normal((spec.n, spec.d))
    with np.errstate(over="ignore"):  # an overflow is reported by Dataset's check below
        features *= spec.cluster_spread
    logits = rng.standard_normal((spec.n, spec.k))
    logits *= LOGIT_JITTER
    for start in range(0, spec.n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        features[block] += centroids[true[block]]
        logits[block] += spec.logit_sharpness * one_hot(true[block], spec.k)
    try:
        return Dataset(features, logits, true, true.copy())
    except ValueError:  # the spec's checks leave an overflowing spread as the one cause
        raise FieldError(SyntheticSpec, "cluster_spread",
                         f"must keep the features finite, got {spec.cluster_spread}") from None


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


def partition_by_label(dataset: Dataset) -> list[np.ndarray]:
    """One ascending id array per class: item ``k`` holds the ids of noisy label ``k``."""
    return [np.flatnonzero(dataset.noisy_labels == k) for k in range(dataset.num_classes)]


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Deterministic train/test split; returns (train, test, train_ids, test_ids)."""
    if not 0.0 <= test_fraction < 1.0:
        raise FieldError(split_dataset, "test_fraction",
                         f"must lie in [0, 1), got {test_fraction}")
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


def read_text_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, split by ``str.splitlines``.

    A byte that is not UTF-8 raises ParseError naming its line.
    """
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count their lines
        head = exc.object[:exc.start].decode("utf-8")
        raise ParseError(str(exc), line=len((head + ".").splitlines())) from exc


def check_number_text(text: str, line: int | None = None) -> None:
    """Raise ParseError, naming ``line`` if given, when ``text``, numeric
    fields only, holds ``_`` or a non-ASCII character.

    ``int`` and ``float`` read ``1_0`` as 10 and ``\u0661`` as 1; the numpy
    fast paths refuse both, and so must every line parser and the CLI.
    """
    if "_" in text or not text.isascii():
        bad = next(c for c in text if c == "_" or not c.isascii())
        raise ParseError(f"numeric field holds {bad!r}", line=line)


def parse_number(text: str, kind: type, line: int | None = None) -> int | float:
    """``kind(text)`` for ``kind`` ``int`` or ``float``, read by the rule of
    every text format: :func:`check_number_text` first, then a ``ValueError``
    becomes ParseError and a float must be finite. Each error names ``line``
    if given. Fields are read in order, so on a line with two faults the
    first faulty field's error is the one raised."""
    check_number_text(text, line)
    try:
        value = kind(text)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc
    if kind is float and not math.isfinite(value):
        raise ParseError("non-finite float value", line=line)
    return value


def integral(values, name: str) -> np.ndarray:
    """``values`` as an array, checked to cast to int64 exactly: a float
    that is not finite, not integral or past the int64 range raises
    ValueError naming ``name``, where the cast would truncate 1.7 to 1 or
    warn on NaN. Integral floats pass."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        ok = (np.trunc(arr) == arr) & (np.abs(arr) < 2.0 ** 63)
        if not ok.all():
            raise ValueError(f"{name} must hold finite integers, got {arr[~ok][0]}")
    return arr


def load_sample_table(path: str | Path) -> Dataset:
    """Parse a sample-table CSV. Raises ParseError naming the bad line.

    A sidecar that :func:`write_sample_table` left for the table's current
    bytes gives the arrays without a parse. Otherwise one ``np.loadtxt``
    pass reads every table the line parser would accept with identical
    values; anything else goes to the line parser, which owns every error
    message.
    """
    dataset = _load_sample_table_sidecar(path)
    if dataset is None:
        dataset = _load_sample_table_numpy(path)
    return _load_sample_table_lines(path) if dataset is None else dataset


# Bytes per block of the table digest; the blocks are hashed in parallel.
_DIGEST_BLOCK = 4 << 20


def _sidecar_path(path: str | Path) -> str:
    return os.fspath(path) + ".sidecar"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _block_sha256(path: str | Path, blocks: int, i: int) -> bytes:
    """The sha256 of block ``i`` of the ``blocks`` blocks of the file at
    ``path``, read through one ``_SCAN_CHUNK`` buffer; the last block runs to
    EOF, so bytes appended since the size was read are hashed too."""
    digest = hashlib.sha256()
    view = memoryview(bytearray(_SCAN_CHUNK))
    with open(path, "rb", buffering=0) as fh:
        fh.seek(i * _DIGEST_BLOCK)
        left = _DIGEST_BLOCK if i + 1 < blocks else math.inf
        while left and (got := fh.readinto(view[:min(left, len(view))])):
            digest.update(view[:got])
            left -= got
    return digest.digest()


@contextlib.contextmanager
def _table_digest(path: str | Path):
    """Yield a function that gives the block digest of the file at ``path``:
    the sha256 of the concatenated sha256 digests of its ``_DIGEST_BLOCK``-byte
    blocks, the last block running to EOF, so a file that grows while it is
    hashed does not give the digest of its first bytes.

    The blocks are hashed from entry on a thread pool of one thread per usable
    CPU, never more threads than blocks, each block's future carrying its
    digest or its error, and exit joins the pool; where that is one thread,
    the function hashes the file in the calling thread instead. It raises
    the first failing block's error; a thread that cannot start raises
    OSError on entry. :func:`_write_sidecar` checks the bytes read are its own."""
    blocks = max(1, -(-os.stat(path).st_size // _DIGEST_BLOCK))
    workers = min(blocks, _usable_cpus())
    block_sha256 = functools.partial(_block_sha256, path, blocks)
    if workers == 1:
        yield lambda: hashlib.sha256(b"".join(map(block_sha256, range(blocks)))).hexdigest()
        return
    # imported here: it costs a fresh process about 7 ms, which one-block tables never need
    from concurrent.futures import Future, ThreadPoolExecutor
    # each thread waits until every block is queued, so the pool starts
    # ``workers`` threads however soon the first blocks are hashed
    queued = Future()
    with ThreadPoolExecutor(workers, initializer=queued.result) as pool:
        try:
            digests = pool.map(block_sha256, range(blocks))
        except RuntimeError as exc:  # no thread to be had: a resource error
            raise OSError(f"cannot start a hashing thread: {exc}") from exc
        finally:
            queued.set_result(None)
        yield lambda: hashlib.sha256(b"".join(digests)).hexdigest()


def _read_record(fh, end: int, dtype, shape: tuple) -> np.ndarray:
    """The array of the ``.npy`` record at ``fh``'s position, its data read
    only once its header shows version 1.0, C order, ``dtype``, ``shape`` (a
    None dimension takes any size) and a size that fits before byte ``end``;
    otherwise, or if the file was cut short since, ValueError."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 record")
    got, fortran_order, got_dtype = np.lib.format.read_array_header_1_0(fh)
    count = math.prod(got)
    if fortran_order or got_dtype != dtype or len(got) != len(shape) \
            or any(want not in (None, size) for want, size in zip(shape, got)) \
            or not 0 <= count * got_dtype.itemsize <= end - fh.tell():
        raise ValueError("record does not fit the table")
    return np.fromfile(fh, got_dtype, count).reshape(got)


def _load_sample_table_sidecar(path: str | Path) -> Dataset | None:
    """The arrays of the table's sidecar; None unless it is a regular file
    owned by the table's owner, holds exactly the five records with the
    dtypes and the shapes the table's header gives, and names the block
    digest of the table's current bytes. The table is hashed while the
    records are read and checked."""
    sidecar = _sidecar_path(path)
    try:
        info = os.stat(sidecar)
        if not stat.S_ISREG(info.st_mode) or info.st_uid != os.stat(path).st_uid:
            return None
        with open(path, encoding="ascii") as fh:
            d, k = _parse_header(fh.readline())
        with _table_digest(path) as table_digest, open(sidecar, "rb") as fh:
            features = _read_record(fh, info.st_size, np.float64, (None, d))
            n = features.shape[0]
            logits = _read_record(fh, info.st_size, np.float64, (n, k))
            noisy = _read_record(fh, info.st_size, np.int64, (n,))
            true = _read_record(fh, info.st_size, np.int64, (n,))
            digest = _read_record(fh, info.st_size, np.dtype("U64"), ())
            # a header-only table must still fail as having no samples
            if n == 0 or fh.tell() != info.st_size:
                return None
            dataset = Dataset(features, logits, noisy, true)
            return dataset if digest.item() == table_digest() else None
    except (OSError, ValueError, ParseError):
        return None


# str.splitlines breaks lines at \x0b \x0c \x1c \x1d \x1e, loadtxt does not;
# loadtxt's number parsers skip \x1c-\x1f as whitespace, int() and float()
# do not; bytes fields drop a trailing \x00, str.strip() does not. A file
# holding any of them takes the line parser.
_LOADTXT_UNSAFE = "\x00\x0b\x0c\x1c\x1d\x1e\x1f"
# Characters or bytes per read of a whole-file scan or hash; a hashing thread's
# arena keeps its buffer, and 1 MiB ones raised peak RSS by about 1.5 MiB.
_SCAN_CHUNK = 1 << 18


def loadtxt_rows(path: str | Path, dtype: np.dtype, skiprows: int = 0) -> np.ndarray | None:
    """The comma-separated rows of an ASCII file as a ``dtype`` record array,
    read by one ``np.loadtxt`` pass; None for a file holding a non-ASCII or
    ``_LOADTXT_UNSAFE`` character or no rows, and for any row loadtxt refuses
    or warns about. Where it gives rows, a line parser reads the same values."""
    try:
        with open(path, encoding="ascii") as fh:
            for chunk in iter(lambda: fh.read(_SCAN_CHUNK), ""):
                if any(c in chunk for c in _LOADTXT_UNSAFE):
                    return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=skiprows,
                              comments=None, ndmin=1, encoding="ascii")
    except (OSError, UnicodeDecodeError, ValueError, Warning):
        return None
    return rows if rows.size else None


def id_order(ids: np.ndarray) -> np.ndarray | None:
    """The order that puts rows in id order (``order[i]`` is the row of id
    ``i``); None unless the int64 ``ids`` are exactly 0..N-1, each once."""
    n = ids.size
    if n and (ids.min() < 0 or ids.max() >= n) or not np.bincount(ids, minlength=n).all():
        return None
    order = np.empty(n, dtype=np.int64)
    order[ids] = np.arange(n)
    return order


def _load_sample_table_numpy(path: str | Path) -> Dataset | None:
    """The fast path of :func:`load_sample_table`; None where it cannot vouch
    for giving the line parser's result."""
    try:
        with open(path, encoding="ascii") as fh:
            d, k = _parse_header(fh.readline())
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    dtype = np.dtype([("id", "i8"), ("noisy", "i8"), ("true", "i8"), ("x", "f8", (d + k,))])
    table = loadtxt_rows(path, dtype, skiprows=1)
    order = None if table is None else id_order(table["id"])
    if order is None:
        return None
    x = table["x"]
    try:
        # Dataset refuses the non-finite values and labels the line parser does
        return Dataset(x[order, :d], x[order, d:], table["noisy"][order], table["true"][order])
    except ValueError:
        return None


def _load_sample_table_lines(path: str | Path) -> Dataset:
    """Line-by-line reference parser; the error path of :func:`load_sample_table`."""
    lines = read_text_lines(path)
    if not lines:
        raise ParseError("empty file")
    d, k = _parse_header(lines[0])
    rows = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if not rows:
        raise ParseError("no samples")
    labels = np.empty((len(rows), 3), dtype=np.int64)  # id, noisy_label, true_label
    values = np.empty((len(rows), d + k))                # features, then logits
    for row_idx, (lineno, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != 3 + d + k:
            raise ParseError(f"expected {3 + d + k} fields, got {len(parts)}", line=lineno)
        try:
            labels[row_idx] = [parse_number(p, int, lineno) for p in parts[:3]]
        except OverflowError as exc:  # an id or label past int64
            raise ParseError(str(exc), line=lineno) from exc
        values[row_idx] = [parse_number(p, float, lineno) for p in parts[3:]]
        _, noisy, true = labels[row_idx]
        if not 0 <= noisy < k:
            raise ParseError(f"noisy_label {noisy} outside [0, {k})", line=lineno)
        if not -1 <= true < k:
            raise ParseError(f"true_label {true} outside [-1, {k})", line=lineno)
    order = id_order(labels[:, 0])
    if order is None:
        raise ParseError("sample ids must form 0..N-1 without gaps or duplicates")
    return Dataset(values[order, :d], values[order, d:], labels[order, 1], labels[order, 2])


def write_sample_table(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset in the sample-table CSV format.

    Floats are written as their Python ``repr`` (shortest round-trip form),
    through :func:`repr_rows`; rows go out in blocks of ``ROW_BLOCK`` to
    keep memory flat.

    When the output is a regular file, the sidecar ``<path>.sidecar`` is then
    written beside it (see :func:`_write_sidecar`).
    """
    with open(path, "wb") as fh:
        fh.writelines(_table_chunks(dataset))
        fh.flush()
        written = os.fstat(fh.fileno())
    if stat.S_ISREG(written.st_mode):
        _write_sidecar(dataset, path, written)


def _table_chunks(dataset: Dataset):
    """The table's bytes: the header, then one chunk per ``ROW_BLOCK`` rows."""
    yield (",".join(_expected_header(dataset.feature_dim, dataset.num_classes)) + "\n").encode()
    for start in range(0, dataset.n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        noisy = dataset.noisy_labels[block]
        labels = repr_rows(np.column_stack(
            (np.arange(start, start + noisy.size), noisy, dataset.true_labels[block])))
        values = repr_rows(np.concatenate(
            (dataset.features[block], dataset.logits[block]), axis=1))
        yield b"\n".join(map(b",".join, zip(labels, values))) + b"\n"


def repr_rows(block: np.ndarray) -> list[bytes]:
    """Each row of a non-empty, C-contiguous 2-d int64 or float64 array as
    the ``repr`` of its values, comma-joined.

    orjson formats float64 with the shortest round-trip digits, as ``repr``
    does, but without ``repr``'s exponent form below 1e-4 and from 1e16 up,
    and as ``null`` when not finite. A row holding a nonzero magnitude below
    1e-4, one of 1e16 or more, or a non-finite value is formatted by
    ``repr`` instead.
    """
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    if block.dtype.kind == "f":
        mag = np.abs(block)
        for i in np.flatnonzero((((mag < 1e-4) & (mag > 0)) | ~(mag < 1e16)).any(axis=1)):
            rows[i] = ",".join(map(repr, block[i].tolist())).encode()
    return rows


def _write_sidecar(dataset: Dataset, path: str | Path, written: os.stat_result) -> None:
    """Save the dataset's arrays and the block digest of the closed table at
    ``path`` (see :func:`_table_digest`) as five ``np.save`` records, with the
    table's permission bits, to a temp file beside the table, then move it to
    ``<path>.sidecar``. The table is hashed while the arrays are written, and
    the digest goes in last. ``np.save`` writes an array to a real file from
    its buffer, so a sidecar costs no memory per row. The sidecar only spares
    a later load its parse, so one that cannot be written is left out.

    The digest is of the bytes on disk, which another writer may have
    replaced, so the sidecar is left out unless the table's device, inode,
    size and mtime after hashing are those of ``written``, its ``fstat``
    after the last write; a same-size rewrite in one timestamp tick passes."""
    tmp = None
    try:
        with _table_digest(path) as table_digest:
            fd, tmp = tempfile.mkstemp(prefix=f".{Path(path).name}.", suffix=".tmp",
                                       dir=Path(path).parent)
            with os.fdopen(fd, "wb") as fh:
                for arr in (dataset.features, dataset.logits, dataset.noisy_labels,
                            dataset.true_labels):
                    np.save(fh, arr, allow_pickle=False)
                np.save(fh, np.array(table_digest()), allow_pickle=False)
        info = os.stat(path)
        if any(getattr(info, key) != getattr(written, key)
               for key in ("st_dev", "st_ino", "st_size", "st_mtime_ns")):
            raise OSError(f"{path} changed after it was written")
        os.chmod(tmp, stat.S_IMODE(info.st_mode))
        os.replace(tmp, _sidecar_path(path))
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
