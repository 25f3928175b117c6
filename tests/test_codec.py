"""Varint/delta codec round-trip (SURVEY.md §5 unit tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade_ray.codec import delta_decode, delta_encode, varint_decode, varint_encode, varint_lengths


def test_varint_boundaries():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 2**31 - 1], dtype=np.uint64)
    assert varint_decode(varint_encode(vals)).tolist() == vals.tolist()


def test_varint_empty():
    assert varint_encode(np.zeros(0, np.uint64)) == b""
    assert varint_decode(b"").size == 0


def test_varint_count_check():
    data = varint_encode(np.array([5, 6], dtype=np.uint64))
    with pytest.raises(ValueError):
        varint_decode(data, count=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=500))
def test_varint_roundtrip_hypothesis(vals):
    arr = np.asarray(vals, dtype=np.uint64)
    assert varint_decode(varint_encode(arr), count=len(vals)).tolist() == vals


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=300))
def test_delta_roundtrip_hypothesis(ids):
    arr = np.sort(np.asarray(sorted(ids), dtype=np.int64))
    assert delta_decode(delta_encode(arr), count=len(ids)).tolist() == arr.tolist()


def test_varint_single_byte_density():
    # small deltas must stay 1 byte (the point of the encoding)
    vals = np.arange(100, dtype=np.uint64) % 128
    assert len(varint_encode(vals)) == 100


# -- the subset-only decoder against the former full-pass one -------------


def reference_varint_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """The former decoder: every 7-bit group position is a masked pass over
    all values."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if count is not None and buf.size == count:
        return buf.astype(np.uint64)
    ends = np.nonzero((buf & 0x80) == 0)[0]
    n = ends.size
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(n, dtype=np.uint64)
    for k in range(5):
        mask = lengths > k
        if not mask.any():
            break
        vals[mask] |= (buf[starts[mask] + k].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * k)
    if count is not None and n != count:
        raise ValueError(f"varint_decode: expected {count} values, got {n}")
    return vals


def _assert_decoders_agree(data: bytes, count: int | None) -> None:
    got, want = varint_decode(data, count), reference_varint_decode(data, count)
    assert got.dtype == want.dtype == np.uint64
    assert got.tobytes() == want.tobytes()


# 1- to 5-byte values, each byte length equally likely
_VALUE = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=0 if n == 1 else 1 << (7 * (n - 1)), max_value=(1 << (7 * n)) - 1)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_VALUE, max_size=300))
def test_decoder_matches_reference_hypothesis(vals):
    data = varint_encode(np.asarray(vals, dtype=np.uint64))
    _assert_decoders_agree(data, None)
    _assert_decoders_agree(data, len(vals))


def test_decoder_matches_reference_one_byte_fast_path():
    vals = np.arange(1000, dtype=np.uint64) % 128
    data = varint_encode(vals)
    assert len(data) == vals.size
    _assert_decoders_agree(data, vals.size)
    _assert_decoders_agree(data, None)


def test_decoder_matches_reference_empty():
    _assert_decoders_agree(b"", None)
    _assert_decoders_agree(b"", 0)
    with pytest.raises(ValueError, match="expected 2 values, got 0"):
        varint_decode(b"", count=2)


def test_decoder_matches_reference_on_shard_docs(built_index):
    import os

    import pyarrow.parquet as pq

    from splade_ray.codec import binary_concat

    index_dir, _ = built_index
    post = pq.read_table(os.path.join(index_dir, "postings", "shard-00000.postings.parquet"))
    data = binary_concat(post.column("docs").combine_chunks())
    nnz = int(post.column("df").to_numpy().sum())
    assert len(data) > nnz  # multi-byte deltas are present
    _assert_decoders_agree(data, nnz)


def test_decoder_rejects_truncated_buffer():
    data = varint_encode(np.array([5, 300], dtype=np.uint64))[:-1]
    assert reference_varint_decode(data).tolist() == [5]  # the silent loss
    with pytest.raises(ValueError, match="truncated buffer"):
        varint_decode(data)
    with pytest.raises(ValueError, match="truncated buffer"):
        varint_decode(data, count=2)


def test_decoder_rejects_values_over_five_bytes():
    data = bytes([0x81, 0x80, 0x80, 0x80, 0x80, 0x01, 0x07])  # 6-byte value, then 7
    assert reference_varint_decode(data).tolist() == [1, 7]  # high group dropped
    with pytest.raises(ValueError, match="value 0 is longer than the 5-byte cap"):
        varint_decode(data)


# -- varint length rule and the index table writer --------------------------


def test_varint_lengths_match_encoding():
    vals = np.array([0, 127, 128, 16383, 16384, 2**21, 2**28, 2**35 - 1], dtype=np.uint64)
    lens = varint_lengths(vals)
    assert lens.tolist() == [1, 1, 2, 2, 3, 4, 5, 5]
    assert varint_encode(vals, lens) == varint_encode(vals)
    assert len(varint_encode(vals)) == int(lens.sum())
    with pytest.raises(ValueError, match="5-byte cap"):
        varint_lengths(np.array([2**35], dtype=np.uint64))


def test_write_index_table_encodings(tmp_path):
    """Ascending flat integer columns are delta-bit-packed without a
    dictionary; every other column — nested list leaves included — keeps
    its dictionary pages; pages are zstd; the table round-trips."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from splade_ray.codec import write_index_table

    n = 50
    tbl = pa.table(
        {
            "local_id": pa.array(np.arange(n, dtype=np.int32)),
            "doc_id": pa.array(np.arange(n, dtype=np.int64) + 1000),
            "dl": pa.array((np.arange(n) * 7919 % 13).astype(np.int32)),
            "url": pa.array([f"u{i % 5}" for i in range(n)]),
            "fwd": pa.array([[1, 2, 3]] * n, type=pa.list_(pa.uint64())),
            "gaps": pa.array([None] + list(range(1, n)), type=pa.int64()),
        }
    )
    path = str(tmp_path / "t.parquet")
    write_index_table(tbl, path)
    assert pq.read_table(path).equals(tbl)
    md = pq.ParquetFile(path).metadata.row_group(0)
    enc = {md.column(i).path_in_schema: set(md.column(i).encodings) for i in range(md.num_columns)}
    assert {md.column(i).compression for i in range(md.num_columns)} == {"ZSTD"}
    for col in ("local_id", "doc_id"):
        assert "DELTA_BINARY_PACKED" in enc[col] and "RLE_DICTIONARY" not in enc[col], col
    for col in ("dl", "url", "fwd.list.element", "gaps"):  # unordered, string, nested, nulls
        assert "RLE_DICTIONARY" in enc[col] and "DELTA_BINARY_PACKED" not in enc[col], col
