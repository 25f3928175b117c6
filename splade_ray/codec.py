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
"""

from __future__ import annotations

import numpy as np

_MAX_BYTES = 5  # uint32 fits in 5 varint bytes


def varint_encode(values: np.ndarray) -> bytes:
    """Encode a uint32/int array (values < 2**35) into LEB128 varints."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size and bool((values >> np.uint64(7 * 5)).any()):
        raise ValueError("varint_encode: value >= 2**35 would be truncated (5-byte cap)")

    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nbytes = np.ones(v.shape, dtype=np.int64)
    for k in range(1, _MAX_BYTES):
        nbytes += (v >= (1 << (7 * k))).astype(np.int64)
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
    import numpy as np
    import pyarrow as pa

    n = len(arr)
    if n == 0:
        return b""
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32, count=n + 1 + arr.offset)[arr.offset :]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0] : offs[-1]].tobytes()
