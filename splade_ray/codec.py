"""Delta + varint (FOR-style) posting-list compression, fully vectorized.

The reference stores postings as raw ``int32`` / ``float32`` numpy arrays
(``/root/reference/src/indexing/sparse_index.py:207-215``).  At 10^12-doc
scale raw postings dominate storage and shuffle volume, so this engine
delta-encodes doc ids within each (shard, term) posting list (ascending by
construction — SURVEY.md §2.9) and varint-packs both the deltas and the term
frequencies, per the north rule ("delta+varint (FOR) compressed").

All kernels are numpy-vectorized (no per-value Python loop): encode scatters
7-bit groups by byte position; decode finds value boundaries from the
continuation bits with one nonzero + cumsum.

The parquet page format of every index table lives here too:
:func:`write_index_table` and :func:`write_index_dataset` are the only index
writers.  Pages are zstd (Arrow's default level), and the table writer also
delta-bit-packs (``DELTA_BINARY_PACKED``) each flat integer column whose
values ascend — postings ``term_id``, docs ``doc_id``/``local_id``, vocab
``term_id`` — where dictionary pages would store every distinct id again.
Readers need nothing: parquet records its codec per column chunk, so indexes
written with the older snappy pages still open, resume and merge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_MAX_BYTES = 5  # uint32 fits in 5 varint bytes


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Bytes per value of its LEB128 varint (1-5) as int64 — the one
    definition of the length rule.  Raises ``ValueError`` on a value
    >= 2**35 (it would be truncated at the 5-byte cap)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size and bool((v >> np.uint64(7 * _MAX_BYTES)).any()):
        raise ValueError("varint_encode: value >= 2**35 would be truncated (5-byte cap)")
    nbytes = np.ones(v.shape, dtype=np.int64)
    for k in range(1, _MAX_BYTES):
        nbytes += (v >= (1 << (7 * k))).astype(np.int64)
    return nbytes


def varint_encode(values: np.ndarray, nbytes: np.ndarray | None = None) -> bytes:
    """Encode a uint32/int array (values < 2**35) into LEB128 varints.
    ``nbytes``: the values' :func:`varint_lengths`, when the caller already
    holds them (it needs them for segment offsets)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if nbytes is None:
        nbytes = varint_lengths(v)
    if v.size == 0:
        return b""
    starts = np.zeros(v.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    total = int(starts[-1] + nbytes[-1])
    out = np.zeros(total, dtype=np.uint8)
    for k in range(_MAX_BYTES):
        mask = nbytes > k
        if not mask.any():
            break
        idx = starts[mask] + k
        chunk = ((v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[idx] = chunk | cont
    return out.tobytes()


def varint_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode LEB128 varints → uint64 array (callers cast down).

    The first 7-bit group of every value is one gather at the value
    starts; each later group touches only the values that still have
    bytes left, so a column of mostly 1-2 byte values costs little more
    than its boundary scan.  Raises ``ValueError`` on a buffer that ends
    inside a value, on a value longer than 5 bytes, and when ``count`` is
    given and differs from the number of values."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if count is not None and buf.size == count and (count == 0 or buf.max() < 0x80):
        # every value is a single byte: skip the boundary scan entirely —
        # the common case for tf columns
        return buf.astype(np.uint64)
    if buf.size == 0:
        if count:
            raise ValueError(f"varint_decode: expected {count} values, got 0")
        return np.zeros(0, dtype=np.uint64)
    last = buf < 0x80
    if not last[-1]:
        raise ValueError("varint_decode: truncated buffer, its last byte has the continuation bit set")
    ends = np.flatnonzero(last)
    n = ends.size
    if count is not None and n != count:
        raise ValueError(f"varint_decode: expected {count} values, got {n}")
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    vals = (buf[starts] & 0x7F).astype(np.uint64)
    more = np.flatnonzero(ends > starts)  # values with a byte at position k
    for k in range(1, _MAX_BYTES):
        if not more.size:
            return vals
        pos = starts[more] + k
        vals[more] |= (buf[pos] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
        more = more[ends[more] > pos]
    if more.size:
        raise ValueError(
            f"varint_decode: value {int(more[0])} is longer than the {_MAX_BYTES}-byte cap"
        )
    return vals


def delta_encode(sorted_ids: np.ndarray) -> bytes:
    """Delta + varint encode an ascending id array."""
    ids = np.ascontiguousarray(sorted_ids, dtype=np.int64)
    if ids.size == 0:
        return b""
    deltas = np.empty(ids.size, dtype=np.uint64)
    deltas[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
    return varint_encode(deltas)


def delta_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Inverse of :func:`delta_encode` → int64 ascending ids."""
    deltas = varint_decode(data, count)
    return np.cumsum(deltas.astype(np.int64))


def binary_concat(arr) -> bytes:
    """Concatenated payload bytes of an Arrow binary column (offset-safe):
    the per-term varint/f32 segments are value-aligned, so one buffer slice
    recovers the whole shard's payload for a single vectorized decode."""
    n = len(arr)
    if n == 0:
        return b""
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32, count=n + 1 + arr.offset)[arr.offset :]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0] : offs[-1]].tobytes()


def _ascends(col) -> bool:
    """A flat integer column without nulls whose values never decrease."""
    if not pa.types.is_integer(col.type) or col.null_count:
        return False
    v = col.to_numpy()
    return bool((v[1:] >= v[:-1]).all())


def _leaf_path(name: str, typ) -> str:
    """Parquet column path of a flat or list-typed Arrow field — the name a
    per-column ``use_dictionary`` list matches (a list column is matched
    only by its leaf path, ``terms.list.element``, never by ``terms``)."""
    while pa.types.is_list(typ) or pa.types.is_large_list(typ):
        name, typ = f"{name}.list.element", typ.value_type
    return name


def write_index_table(tbl: pa.Table, path: str) -> None:
    """Write one index table (postings, docs, vocab) as a parquet file:
    zstd pages, ascending flat integer columns delta-bit-packed, every
    other column with Arrow's default dictionary pages."""
    delta = [f.name for f, col in zip(tbl.schema, tbl.columns) if _ascends(col)]
    pq.write_table(
        tbl,
        path,
        compression="zstd",
        use_dictionary=[_leaf_path(f.name, f.type) for f in tbl.schema if f.name not in delta],
        column_encoding=dict.fromkeys(delta, "DELTA_BINARY_PACKED"),
    )


def write_index_dataset(ds, path: str) -> None:
    """Write a Ray Data stage output (``doc_terms``, term-major ``runs`` and
    ``dl``) as parquet files under ``path`` with zstd pages."""
    ds.write_parquet(path, compression="zstd")
