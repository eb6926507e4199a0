import os
import re
import stat
import threading
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference
from dualsift import (
    Dataset,
    FieldError,
    NoiseKind,
    NoiseSpec,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    inject_noise,
    load_sample_table,
    partition_by_label,
    split_dataset,
    write_sample_table,
)
from dualsift import data
from dualsift.cli import main
from dualsift.data import _load_sample_table_lines, _load_sample_table_numpy


def tiny_dataset(noisy, true=None, k=2, d=2):
    n = len(noisy)
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.normal(size=(n, d)),
        logits=rng.normal(size=(n, k)),
        noisy_labels=np.array(noisy),
        true_labels=np.array(true if true is not None else [-1] * n),
    )


# ---------------------------------------------------------------- file format

def test_load_roundtrip(tmp_path):
    ds = generate_synthetic(SyntheticSpec(k=3, d=4, n=20, seed=9))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.5, seed=1))
    path = tmp_path / "t.csv"
    write_sample_table(ds, path)
    back = load_sample_table(path)
    assert back.n == 20 and back.num_classes == 3 and back.feature_dim == 4
    np.testing.assert_array_equal(back.noisy_labels, ds.noisy_labels)
    np.testing.assert_array_equal(back.true_labels, ds.true_labels)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.logits, ds.logits)


def test_load_simple_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,noisy_label,true_label,feat_0,feat_1,logit_0,logit_1\n"
        "0,0,-1,0.5,1.0,2.0,0.0\n"
        "1,1,-1,1.5,-1.0,0.0,2.0\n"
        "2,0,-1,0.25,0.5,1.0,1.0\n")
    ds = load_sample_table(path)
    assert ds.n == 3 and ds.num_classes == 2 and ds.feature_dim == 2
    assert not ds.has_true_labels
    assert ds.true_labels[0] == -1


def test_load_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,noisy_label,true_label,feat_0,logit_0,logit_1\n")
    with pytest.raises(ParseError, match="no samples"):
        load_sample_table(path)


def test_load_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,noisy_label,true_label,feat_0,logit_0,logit_1\n"
        "0,0,-1,0.5,1.0,0.0\n"
        "1,1,-1,0.5,1.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_sample_table(path)


def test_load_label_out_of_range(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,noisy_label,true_label,feat_0,logit_0,logit_1\n"
        "0,2,-1,0.5,1.0,0.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_sample_table(path)


def test_load_non_finite(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,noisy_label,true_label,feat_0,logit_0,logit_1\n"
        "0,0,-1,nan,1.0,0.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_sample_table(path)


def test_load_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,label,feat_0,logit_0\n0,0,1.0,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_sample_table(path)


@pytest.mark.parametrize("text, message", [
    ("id,noisy_label,true_label,logit_0,logit_1\n0,0,0,1.0,0.0\n",
     "line 1: header needs feat_* and logit_* columns"),
    ("id,noisy_label,true_label,logit_0,feat_0,logit_1\n0,0,0,1.0,0.5,0.0\n",
     "line 1: feat_/logit_ columns malformed or out of order"),
    ("id,noisy_label,true_label,feat_0,logit_0,logit_1\n0,0,0,0.5,1.0,0.0\n1,1,2,0.5,0.0,1.0\n",
     "line 3: true_label 2 outside [-1, 2)"),
], ids=["no-feat-column", "columns-out-of-order", "true-label-past-k"])
def test_load_malformed_table_is_a_data_error(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_sample_table(path)
    assert main(["distill", str(path), "-o", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_duplicate_ids(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,noisy_label,true_label,feat_0,logit_0,logit_1\n"
        "0,0,-1,0.5,1.0,0.0\n"
        "0,1,-1,0.5,1.0,0.0\n")
    with pytest.raises(ParseError, match="0..N-1"):
        load_sample_table(path)


# ------------------------------------------------- loader against line parser

HEADER = b"id,noisy_label,true_label,feat_0,logit_0,logit_1\n"
ROW0 = b"0,0,-1,0.5,1.0,0.0"
ROW1 = b"1,1,0,1.5,-1.0,2.0"


def rows(*cells):
    return HEADER + b"".join(c + b"\n" for c in cells)


HOSTILE_TABLES = {
    "crlf": rows(ROW0, ROW1).replace(b"\n", b"\r\n"),
    "lone_cr": HEADER + ROW0 + b"\r" + ROW1 + b"\n",
    "form_feed_in_row": rows(b"0,0,-1,0.5,\x0c1.0,0.0", ROW1),
    "form_feed_at_row_end": rows(ROW0 + b"\x0c", ROW1),
    "unit_separator_in_cell": rows(b"0,0,-1,0.5\x1f,1.0,0.0", ROW1),
    "nul_in_cell": rows(b"0,0,-1,0.5\x00,1.0,0.0", ROW1),
    "nul_in_label": rows(b"0,0\x00,-1,0.5,1.0,0.0", ROW1),
    "nul_at_row_end": rows(ROW0 + b"\x00", ROW1),
    "nul_line": rows(ROW0, b"\x00", ROW1),
    "comment_line": rows(b"# note", ROW0, ROW1),
    "blank_middle": rows(ROW0, b"", ROW1),
    "whitespace_middle": rows(ROW0, b" \t ", ROW1),
    "blank_end": rows(ROW0, ROW1, b"", b""),
    "whitespace_end": rows(ROW0, ROW1, b"   "),
    "label_plus": rows(b"0,+1,-1,0.5,1.0,0.0", ROW1),
    "label_spaced": rows(b"0, 1 ,-1,0.5,1.0,0.0", ROW1),
    "id_decimal": rows(ROW0, b"1.0,1,0,1.5,-1.0,2.0"),
    "id_exponent": rows(ROW0, b"1e0,1,0,1.5,-1.0,2.0"),
    "id_past_int64": rows(ROW0, b"99999999999999999999,1,0,1.5,-1.0,2.0"),
    "float_underscore": rows(b"0,0,-1,1_0,1.0,0.0", ROW1),
    "float_arabic_digit": rows("0,0,-1,\u0661,1.0,0.0".encode(), ROW1),
    "float_nan": rows(b"0,0,-1,nan,1.0,0.0", ROW1),
    "float_inf": rows(b"0,0,-1,0.5,inf,0.0", ROW1),
    "float_minus_inf": rows(ROW0, b"1,1,0,1.5,-1.0,-inf"),
    "float_bare_dots": rows(b"0,0,-1,1.,.5,0.0", ROW1),
    "ragged": rows(ROW0, b"1,1,0,1.5,-1.0"),
    "unsorted_ids": rows(ROW1, ROW0),
    "duplicate_ids": rows(ROW0, ROW0),
    "header_only": HEADER,
    "empty": b"",
    "not_utf8": rows(ROW0, b"1,1,0,1.5,-1.0,\xff2.0"),
}


def outcome(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # the comparison covers the exception too
        return exc


def assert_same_outcome(path):
    """load_sample_table gives the line parser's arrays bit for bit, or its
    exception; the numpy path yields only where the line parser succeeds."""
    want = outcome(_load_sample_table_lines, path)
    got = outcome(load_sample_table, path)
    fast = _load_sample_table_numpy(path)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        assert fast is None
        return
    for ds in [got] if fast is None else [got, fast]:
        assert_bits_equal(ds, want)


def assert_bits_equal(got, want):
    assert isinstance(got, Dataset)
    for name in ("features", "logits", "noisy_labels", "true_labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("name", sorted(HOSTILE_TABLES))
def test_loader_matches_line_parser(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_bytes(HOSTILE_TABLES[name])
    assert_same_outcome(path)


CELL_ALPHABET = "0123456789+-.eE_ \t\x1f\x0bnaifx"


@settings(max_examples=300, deadline=None)
@given(label=st.text(CELL_ALPHABET, max_size=4), value=st.text(CELL_ALPHABET, max_size=6))
def test_loader_matches_line_parser_on_random_cells(tmp_path_factory, label, value):
    path = tmp_path_factory.mktemp("cells") / "t.csv"
    path.write_bytes(rows(f"0,{label},-1,{value},1.0,0.0".encode(), ROW1))
    assert_same_outcome(path)


def test_loader_takes_numpy_path_for_written_tables(tmp_path):
    ds = generate_synthetic(SyntheticSpec(k=3, d=4, n=50, seed=2))
    path = tmp_path / "t.csv"
    write_sample_table(ds, path)
    assert _load_sample_table_numpy(path) is not None


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(FINITE, min_size=3, max_size=30))
@example(values=[5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308,
                 -1.7976931348623157e308, 2.2250738585072014e-308])
def test_write_load_roundtrip_bit_exact(tmp_path_factory, values):
    n = len(values) // 3
    x = np.array(values[:3 * n]).reshape(n, 3)
    ds = Dataset(x[:, :1], x[:, 1:], np.zeros(n, dtype=int), np.full(n, -1))
    path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
    write_sample_table(ds, path)
    # the sidecar serves load_sample_table; the two parsers read the CSV
    for loader in (load_sample_table, _load_sample_table_numpy, _load_sample_table_lines):
        assert_bits_equal(loader(path), ds)


# ------------------------------------------------------------- writer oracle

EXTREMES = [5e-324, -0.0, 1e-5, 1e16, 1.7976931348623157e308]


def assert_writer_matches_oracle(ds, tmp_path):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_sample_table(ds, ours)
    reference.write_sample_table(ds, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_writer_matches_oracle_across_blocks(tmp_path, n):
    ds = inject_noise(generate_synthetic(SyntheticSpec(k=1 if n == 1 else 3, d=4, n=n, seed=n)),
                      NoiseSpec(NoiseKind.SYMMETRIC, 0.5, seed=1))
    assert_writer_matches_oracle(ds, tmp_path)


def test_writer_matches_oracle_on_extremes_single_columns(tmp_path):
    # D = K = 1, over more rows than one block
    values = np.tile(EXTREMES + [-v for v in EXTREMES], 30)
    ds = Dataset(values[:, None], values[::-1, None], np.zeros(values.size, dtype=int),
                 np.arange(values.size) % 2 - 1)
    assert_writer_matches_oracle(ds, tmp_path)


# repr's exponent edges, the extremes of float64, and signed zeros
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)),
               1.7976931348623157e308]
EDGES = st.sampled_from(EDGE_VALUES + [-v for v in EDGE_VALUES])


@st.composite
def datasets(draw, elements=FINITE, max_n=20):
    k, d, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, max_n))
    x = draw(hnp.arrays(np.float64, (n, d + k), elements=elements))
    noisy = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    true = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, k - 1)))
    return Dataset(x[:, :d], x[:, d:], noisy, true)


@settings(max_examples=200, deadline=None)
@given(ds=datasets(FINITE | EDGES, max_n=40))
def test_writer_bytes_equal_reference(tmp_path_factory, ds):
    assert_writer_matches_oracle(ds, tmp_path_factory.mktemp("oracle"))


def test_writer_matches_oracle_on_block_edges(tmp_path):
    # odd values on the last row of one block and the first of the next
    n = 2 * data.ROW_BLOCK + 1
    ds = generate_synthetic(SyntheticSpec(k=3, d=2, n=n, seed=7))
    features = ds.features.copy()
    for row in (0, data.ROW_BLOCK - 1, data.ROW_BLOCK, 2 * data.ROW_BLOCK - 1, n - 1):
        features[row] = EDGE_VALUES[row % len(EDGE_VALUES)], -5e-324
    assert_writer_matches_oracle(ds.with_representation(features, ds.logits), tmp_path)
    # the sidecar names the digest of every block written, not just the first
    with np.load(sidecar_of(tmp_path / "ours.csv")) as saved:
        assert saved["csv_sha256"].item() == data._file_sha256(tmp_path / "ours.csv")


# ------------------------------------------------------------------- sidecar

def sidecar_of(path):
    return Path(f"{path}.npz")


def written_table(tmp_path):
    ds = inject_noise(generate_synthetic(SyntheticSpec(k=3, d=4, n=40, seed=5)),
                      NoiseSpec(NoiseKind.SYMMETRIC, 0.5, seed=3))
    path = tmp_path / "t.csv"
    write_sample_table(ds, path)
    return ds, path


def refuse(path):
    raise AssertionError(f"{path} was parsed")


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_sidecar_load_equals_parse(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("sidecar") / "t.csv"
    write_sample_table(ds, path)
    assert sorted(os.listdir(path.parent)) == ["t.csv", "t.csv.npz"]
    assert (stat.S_IMODE(sidecar_of(path).stat().st_mode)
            == stat.S_IMODE(path.stat().st_mode))
    want = _load_sample_table_lines(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_load_sample_table_numpy", refuse)
        got = load_sample_table(path)
    assert_bits_equal(got, want)
    assert_bits_equal(got, ds)


def test_stale_sidecar_gives_the_parse_of_the_new_bytes(tmp_path):
    ds, path = written_table(tmp_path)
    text = path.read_text()
    # the last digit of row 0's last logit
    end = text.index("\n", text.index("\n") + 1) - 1
    path.write_text(text[:end] + str((int(text[end]) + 1) % 10) + text[end + 1:])
    got = load_sample_table(path)
    assert_bits_equal(got, _load_sample_table_lines(path))
    assert got.logits[0, -1] != ds.logits[0, -1]
    assert_bits_equal(ds.subset(np.arange(1, ds.n)), got.subset(np.arange(1, ds.n)))


@pytest.mark.parametrize("cell", [b"nan", None], ids=["nan_cell", "ragged_row"])
def test_table_broken_after_writing_raises_the_parse_error(tmp_path, cell):
    _, path = written_table(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    cells = lines[3].split(b",")  # line 4: row id 2
    lines[3] = b",".join(cells[:3] + [cell] + cells[4:]) if cell else b",".join(cells[:-1]) + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as with_sidecar:
        load_sample_table(path)
    sidecar_of(path).unlink()
    with pytest.raises(ParseError) as without_sidecar:
        load_sample_table(path)
    assert with_sidecar.value.line == without_sidecar.value.line == 4
    assert str(with_sidecar.value) == str(without_sidecar.value)


def save_sidecar(path, **arrays):
    with open(sidecar_of(path), "wb") as fh:
        np.savez(fh, **arrays)


def wrong_digest(path, saved):
    save_sidecar(path, **{**saved, "csv_sha256": np.array("0" * 64)})


def missing_key(path, saved):
    save_sidecar(path, **{k: v for k, v in saved.items() if k != "true_labels"})


def extra_key(path, saved):
    save_sidecar(path, **saved, ids=np.arange(saved["noisy_labels"].size))


def int32_labels(path, saved):
    save_sidecar(path, **{**saved, "noisy_labels": saved["noisy_labels"].astype(np.int32)})


def wrong_d(path, saved):
    save_sidecar(path, **{**saved, "features": saved["features"][:, 1:]})


def object_array(path, saved):
    save_sidecar(path, **{**saved, "true_labels": saved["true_labels"].astype(object)})


def truncated(path, saved):
    save_sidecar(path, **saved)
    whole = sidecar_of(path).read_bytes()
    sidecar_of(path).write_bytes(whole[:len(whole) // 2])


def directory(path, saved):
    sidecar_of(path).mkdir()


def foreign_owner(path, saved, monkeypatch):
    save_sidecar(path, **saved)
    real_stat = os.stat

    def owned_by_another(p, *args, **kwargs):
        info = real_stat(p, *args, **kwargs)
        if os.fspath(p).endswith(".npz"):
            return os.stat_result((*info[:4], info.st_uid + 1, *info[5:10]))
        return info

    monkeypatch.setattr(os, "stat", owned_by_another)


@pytest.mark.parametrize("spoil", [wrong_digest, missing_key, extra_key, int32_labels, wrong_d,
                                   object_array, truncated, directory, foreign_owner])
def test_rejected_sidecar_falls_back_to_the_parse(tmp_path, monkeypatch, spoil):
    ds, path = written_table(tmp_path)
    with np.load(sidecar_of(path)) as npz:
        saved = dict(npz)
    # shifted features would show if the spoiled sidecar were used
    saved["features"] = saved["features"] + 1.0
    sidecar_of(path).unlink()
    if spoil is foreign_owner:
        spoil(path, saved, monkeypatch)
    else:
        spoil(path, saved)
    parses = []
    real_parse = data._load_sample_table_numpy
    monkeypatch.setattr(data, "_load_sample_table_numpy",
                        lambda p: parses.append(p) or real_parse(p))
    assert_bits_equal(load_sample_table(path), ds)
    assert parses == [path]


def test_fifo_at_the_sidecar_path_is_not_opened(tmp_path):
    ds, path = written_table(tmp_path)
    sidecar_of(path).unlink()
    os.mkfifo(sidecar_of(path))
    # opening the fifo would block; the load runs in a daemon thread so the
    # test fails instead of hanging
    loaded = []
    loader = threading.Thread(target=lambda: loaded.append(load_sample_table(path)), daemon=True)
    loader.start()
    loader.join(timeout=60)
    assert not loader.is_alive()
    assert_bits_equal(loaded[0], ds)


def test_sidecar_that_cannot_be_written_is_left_out(tmp_path):
    ds, path = written_table(tmp_path)
    sidecar_of(path).unlink()
    sidecar_of(path).mkdir()
    write_sample_table(ds, path)
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "t.csv.npz"]
    assert sidecar_of(path).is_dir()
    assert_bits_equal(load_sample_table(path), ds)


def test_empty_table_still_has_no_samples(tmp_path):
    path = tmp_path / "t.csv"
    write_sample_table(Dataset(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int),
                               np.zeros(0, dtype=int)), path)
    with pytest.raises(ParseError, match="no samples"):
        load_sample_table(path)


def test_non_regular_output_gets_no_sidecar(tmp_path):
    ds, path = written_table(tmp_path)
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    # a writer that went on to read the fifo back would block; it runs in a
    # daemon thread so the test fails instead of hanging
    writer = threading.Thread(target=write_sample_table, args=(ds, fifo), daemon=True)
    writer.start()
    streamed = fifo.read_bytes()
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert streamed == path.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fifo.csv", "t.csv", "t.csv.npz"]


SIDECAR_ENTRIES = {"features": np.float64, "logits": np.float64, "noisy_labels": np.int64,
                   "true_labels": np.int64, "csv_sha256": np.dtype("<U64")}


def test_sidecar_written_by_savez_still_loads(tmp_path, monkeypatch):
    ds, path = written_table(tmp_path)
    sidecar_of(path).unlink()
    save_sidecar(path, **{name: getattr(ds, name) for name in data._SIDECAR_ARRAYS},
                 csv_sha256=np.array(data._file_sha256(path)))
    monkeypatch.setattr(data, "_load_sample_table_numpy", refuse)
    monkeypatch.setattr(data, "_load_sample_table_lines", refuse)
    assert_bits_equal(load_sample_table(path), ds)


@pytest.mark.parametrize("n", [0, 40])
def test_sidecar_members_are_the_bytes_savez_writes(tmp_path, n):
    ds, path = written_table(tmp_path)
    ds = ds.subset(np.arange(n))
    write_sample_table(ds, path)
    with np.load(sidecar_of(path), allow_pickle=False) as saved:
        assert sorted(saved.files) == sorted(SIDECAR_ENTRIES)
        for name, dtype in SIDECAR_ENTRIES.items():
            want = np.array(data._file_sha256(path)) if name == "csv_sha256" \
                else getattr(ds, name)
            assert (saved[name].dtype, saved[name].shape) == (dtype, want.shape)
            assert saved[name].tobytes() == want.tobytes()
        arrays = dict(saved)
    save_sidecar(tmp_path / "savez", **arrays)
    with zipfile.ZipFile(sidecar_of(path)) as ours, \
            zipfile.ZipFile(sidecar_of(tmp_path / "savez")) as theirs:
        assert ours.namelist() == theirs.namelist()
        for name in ours.namelist():
            assert ours.getinfo(name).compress_type == zipfile.ZIP_STORED
            assert ours.read(name) == theirs.read(name)


def test_write_memory_does_not_grow_with_rows(tmp_path, traced_extra, growth_per_row):
    def extra(n):
        ds = generate_synthetic(SyntheticSpec(k=10, d=16, n=n, seed=1))
        return traced_extra(write_sample_table, ds, tmp_path / "t.csv")[1]
    # the savez sidecar copied each array through tobytes: 122 bytes a row
    assert growth_per_row(extra) < 1


@pytest.mark.parametrize("column", ["features", "logits"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(column, bad):
    columns = dict(features=np.zeros((3, 2)), logits=np.zeros((3, 2)),
                   noisy_labels=np.zeros(3, dtype=int), true_labels=np.full(3, -1))
    columns[column][1, 0] = bad
    with pytest.raises(ValueError, match=f"{column} must be finite"):
        Dataset(**columns)


@pytest.mark.parametrize("column", ["noisy_labels", "true_labels"])
@pytest.mark.parametrize("bad", [0.5, 1.7, np.nan, np.inf])
def test_dataset_rejects_labels_that_are_not_finite_integers(column, bad):
    # the int64 cast used to truncate 1.7 to 1, and only warn on NaN
    columns = dict(features=np.zeros((3, 2)), logits=np.zeros((3, 2)),
                   noisy_labels=np.zeros(3), true_labels=np.full(3, -1.0))
    columns[column][1] = bad
    with pytest.raises(ValueError, match=f"^{column} must hold finite integers, got "):
        Dataset(**columns)


def test_dataset_takes_integral_float_labels():
    ds = Dataset(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    assert ds.noisy_labels.tolist() == [0, 1] and ds.true_labels.tolist() == [1, -1]


# ------------------------------------------------------------------ synthetic

def test_generate_deterministic():
    spec = SyntheticSpec(k=2, d=2, n=100, cluster_spread=0.1, seed=7)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)


def test_generate_zero_spread_limit():
    ds = generate_synthetic(SyntheticSpec(k=3, d=4, n=60, cluster_spread=1e-12, seed=2))
    centroids = np.zeros((3, 4))
    centroids[np.arange(3), np.arange(3)] = 1.0
    np.testing.assert_allclose(ds.features, centroids[ds.true_labels], atol=1e-9)


def test_generate_counts_partition_n():
    ds = generate_synthetic(SyntheticSpec(k=10, d=16, n=5000, seed=0))
    counts = np.bincount(ds.true_labels, minlength=10)
    assert counts.sum() == 5000
    assert ds.has_true_labels
    np.testing.assert_array_equal(ds.noisy_labels, ds.true_labels)


def test_generate_low_dim_centroids():
    ds = generate_synthetic(SyntheticSpec(k=8, d=3, n=80, cluster_spread=1e-12, seed=4))
    norms = np.linalg.norm(ds.features, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


@pytest.mark.parametrize("k, d", [(3, 5), (12, 4)], ids=["d_ge_k", "d_lt_k"])
@pytest.mark.parametrize("n", ["k", data.ROW_BLOCK - 1, data.ROW_BLOCK, data.ROW_BLOCK + 1,
                               3 * data.ROW_BLOCK + 1])
def test_generate_matches_whole_array_oracle(k, d, n):
    spec = SyntheticSpec(k=k, d=d, n=k if n == "k" else n, cluster_spread=0.7,
                         logit_sharpness=2.5, seed=11)
    assert_bits_equal(generate_synthetic(spec), reference.generate_synthetic(spec))


def test_generate_extra_memory_per_row_is_bounded(traced_extra, growth_per_row):
    def extra(n):
        ds, peak = traced_extra(generate_synthetic, SyntheticSpec(k=10, d=16, n=n, seed=1))
        return peak - sum(getattr(ds, name).nbytes for name in data._SIDECAR_ARRAYS)
    # room for int64 labels (8 bytes a row) and Dataset's finiteness mask
    # (D = 16 bytes a row); the whole-array expressions held 72 bytes a row
    assert growth_per_row(extra) <= 32


def test_generate_spread_past_the_float64_range_names_the_field():
    # the spec is finite, but 1e308 times a normal draw is not; this used to
    # warn "overflow encountered in multiply" and fail on the features
    spec = SyntheticSpec(k=3, d=4, n=300, cluster_spread=1e308, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError) as info:
            generate_synthetic(spec)
    assert (info.value.owner, info.value.field) == (SyntheticSpec, "cluster_spread")
    assert str(info.value) == "cluster_spread must keep the features finite, got 1e+308"
    wide = SyntheticSpec(k=3, d=4, n=300, cluster_spread=1e200, seed=1)
    assert_bits_equal(generate_synthetic(wide), reference.generate_synthetic(wide))


def test_generate_invalid_spec():
    with pytest.raises(ValueError):
        SyntheticSpec(k=5, d=2, n=3)
    with pytest.raises(ValueError):
        SyntheticSpec(k=2, d=2, n=10, cluster_spread=0.0)


# ---------------------------------------------------------------------- noise

def test_inject_zero_rate_identity():
    ds = generate_synthetic(SyntheticSpec(k=4, d=4, n=50, seed=3))
    out = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.0, seed=5))
    np.testing.assert_array_equal(out.noisy_labels, ds.noisy_labels)


def test_inject_symmetric_flip_fraction():
    # expected flipped fraction r(K-1)/K = 0.45 at r=0.5, K=10
    ds = generate_synthetic(SyntheticSpec(k=10, d=4, n=50000, seed=3))
    out = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.5, seed=11))
    flipped = (out.noisy_labels != out.true_labels).mean()
    assert abs(flipped - 0.45) < 0.01


def test_inject_symmetric_full_rate_two_classes():
    ds = generate_synthetic(SyntheticSpec(k=2, d=2, n=10000, seed=3))
    out = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 1.0, seed=11))
    flipped = (out.noisy_labels != out.true_labels).mean()
    assert abs(flipped - 0.5) < 0.02


def test_inject_asymmetric_cyclic():
    ds = generate_synthetic(SyntheticSpec(k=4, d=4, n=200, seed=3))
    out = inject_noise(ds, NoiseSpec(NoiseKind.ASYMMETRIC, 1.0, seed=11))
    np.testing.assert_array_equal(out.noisy_labels, (out.true_labels + 1) % 4)


def test_inject_preserves_everything_else():
    ds = generate_synthetic(SyntheticSpec(k=5, d=3, n=300, seed=3))
    out = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.7, seed=11))
    np.testing.assert_array_equal(out.features, ds.features)
    np.testing.assert_array_equal(out.logits, ds.logits)
    np.testing.assert_array_equal(out.true_labels, ds.true_labels)


def test_inject_deterministic():
    ds = generate_synthetic(SyntheticSpec(k=5, d=3, n=300, seed=3))
    spec = NoiseSpec(NoiseKind.SYMMETRIC, 0.4, seed=11)
    np.testing.assert_array_equal(
        inject_noise(ds, spec).noisy_labels, inject_noise(ds, spec).noisy_labels)


def test_inject_requires_truth():
    ds = tiny_dataset([0, 1, 0])
    with pytest.raises(ValueError):
        inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.5, seed=0))


def test_noise_invalid_rate():
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.SYMMETRIC, 1.5, seed=0)


# ------------------------------------------------------------------ clusters

def test_partition_by_label_basic():
    ds = tiny_dataset([0, 1, 0, 1])
    clusters = partition_by_label(ds)
    assert len(clusters) == 2
    np.testing.assert_array_equal(clusters[0], [0, 2])
    np.testing.assert_array_equal(clusters[1], [1, 3])


def test_partition_by_label_degenerate_class():
    ds = tiny_dataset([0, 0, 0], k=3)
    clusters = partition_by_label(ds)
    assert len(clusters[0]) == 3 and len(clusters[1]) == 0 and len(clusters[2]) == 0


def test_partition_by_label_empty_dataset():
    ds = Dataset(np.zeros((0, 2)), np.zeros((0, 3)),
                 np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    clusters = partition_by_label(ds)
    assert len(clusters) == 3 and all(len(c) == 0 for c in clusters)


def test_partition_by_label_disjoint_cover():
    ds = generate_synthetic(SyntheticSpec(k=7, d=3, n=400, seed=8))
    ds = inject_noise(ds, NoiseSpec(NoiseKind.SYMMETRIC, 0.6, seed=2))
    clusters = partition_by_label(ds)
    combined = np.concatenate(clusters)
    assert np.array_equal(np.sort(combined), np.arange(400))


def test_split_dataset_deterministic():
    ds = generate_synthetic(SyntheticSpec(k=3, d=3, n=100, seed=8))
    a = split_dataset(ds, 0.2, seed=5)
    b = split_dataset(ds, 0.2, seed=5)
    np.testing.assert_array_equal(a[3], b[3])
    assert a[1].n == 20 and a[0].n == 80
    assert np.intersect1d(a[2], a[3]).size == 0
