import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from dualsift import (
    Dataset,
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
        assert isinstance(ds, Dataset)
        for name in ("features", "logits", "noisy_labels", "true_labels"):
            a, b = getattr(ds, name), getattr(want, name)
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
    back = load_sample_table(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.logits.tobytes() == ds.logits.tobytes()


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


@pytest.mark.parametrize("column", ["features", "logits"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(column, bad):
    columns = dict(features=np.zeros((3, 2)), logits=np.zeros((3, 2)),
                   noisy_labels=np.zeros(3, dtype=int), true_labels=np.full(3, -1))
    columns[column][1, 0] = bad
    with pytest.raises(ValueError, match=f"{column} must be finite"):
        Dataset(**columns)


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
    assert [c.class_id for c in clusters] == [0, 1]
    np.testing.assert_array_equal(clusters[0].member_ids, [0, 2])
    np.testing.assert_array_equal(clusters[1].member_ids, [1, 3])


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
    combined = np.concatenate([c.member_ids for c in clusters])
    assert np.array_equal(np.sort(combined), np.arange(400))


def test_split_dataset_deterministic():
    ds = generate_synthetic(SyntheticSpec(k=3, d=3, n=100, seed=8))
    a = split_dataset(ds, 0.2, seed=5)
    b = split_dataset(ds, 0.2, seed=5)
    np.testing.assert_array_equal(a[3], b[3])
    assert a[1].n == 20 and a[0].n == 80
    assert np.intersect1d(a[2], a[3]).size == 0
