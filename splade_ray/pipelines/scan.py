"""Distributed ordered prefix sum (scan) and token-budget packing.

The scan is the classic two-pass distributed algorithm expressed on Ray
Data: sort → per-block partial totals → driver exclusive scan of the
block totals (block-count-sized, not data-sized) → broadcast offsets →
one streaming pass adding within-block cumulative sums.  The exchange is
ONE sort on the order key; the only driver-materialized state is one
(min_key, total) row per block.

Token-budget packing (``pack_bins``) rides the scan: bin_id =
⌊exclusive_cumsum(n_tokens) / capacity⌋ assigns documents to contiguous
fixed-token-budget training shards — the deterministic "sequential fill"
packing a 100-TB pre-training pipeline uses to cut shards of equal token
mass (greedy first-fit packing is inherently sequential; sequential fill
is its order-preserving distributed-friendly form).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from ..stages.encode import cached_ref


def _col_np(batch: pa.Table, col: str) -> np.ndarray:
    return batch.column(col).to_numpy(zero_copy_only=False)


def ordered_prefix_sum(ds: Dataset, value_col: str, order_col: str, out_col: str = "cum") -> Dataset:
    """Inclusive prefix sum of ``value_col`` in ``order_col`` order.

    Requires unique ``order_col`` values (asserted at the block level: the
    per-block min keys must be strictly increasing, which a sort of unique
    keys guarantees).  Returns the sorted dataset with ``out_col`` added.

    Scale shape: the sort is the one all-to-all; pass 1 ships one summary
    row per block to the driver; pass 2 is a streaming map with a
    broadcast (block-count-sized) offset table.
    """
    sds = ds.sort(order_col).materialize()
    # integer inputs accumulate exactly in int64; floats in float64
    sch = sds.schema()
    vtype = dict(zip(sch.names, sch.types))[value_col]
    acc = np.int64 if pa.types.is_integer(vtype) else np.float64

    def summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], type=pa.int64()),
                    "kmax": pa.array([], type=pa.int64()),
                    "t": pa.array([], type=pa.from_numpy_dtype(acc)),
                }
            )
        keys = _col_np(batch, order_col)  # sorted within the block
        vals = _col_np(batch, value_col).astype(acc)
        return pa.table(
            {
                "k": pa.array([np.int64(keys[0])]),
                "kmax": pa.array([np.int64(keys[-1])]),
                "t": pa.array([vals.sum()], type=pa.from_numpy_dtype(acc)),
            }
        )

    summ = sds.map_batches(summarize, batch_format="pyarrow", batch_size=None).to_pandas()
    mins = summ["k"].to_numpy()
    order = np.argsort(mins, kind="stable")
    mins, maxs, totals = mins[order], summ["kmax"].to_numpy()[order], summ["t"].to_numpy()[order].astype(acc)
    # block key ranges must be strictly increasing — a duplicate order key
    # spanning a block boundary makes per-row scan values ambiguous
    if mins.size > 1 and (maxs[:-1] >= mins[1:]).any():
        raise ValueError(f"duplicate {order_col} values across blocks — scan order is ambiguous")
    offsets = np.zeros(mins.size, dtype=acc)
    np.cumsum(totals[:-1], out=offsets[1:])
    ref = ray.put((mins, offsets))

    def add_scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array([], type=pa.from_numpy_dtype(acc)))
        bmins, boffs = cached_ref(ref)
        keys = _col_np(batch, order_col)
        pos = np.searchsorted(bmins, np.int64(keys[0]))
        if pos >= bmins.size or bmins[pos] != keys[0]:
            raise ValueError("batch does not start at a recorded block boundary")
        vals = _col_np(batch, value_col).astype(acc)
        cum = np.cumsum(vals) + boffs[pos]
        return batch.append_column(out_col, pa.array(cum))

    return sds.map_batches(add_scan, batch_format="pyarrow", batch_size=None)


def segmented_rank(
    ds: Dataset, seg_col: str, order_col: str, out_col: str = "rnk"
) -> Dataset:
    """Per-segment dense rank (1-based) of each row in ``order_col`` order
    within its ``seg_col`` group — the distributed ``row_number() OVER
    (PARTITION BY seg ORDER BY key)``.

    Requires ``order_col`` values unique within a segment.  ONE all-to-all
    (a (seg, key) range-partition sort) regardless of segment count — the
    per-segment-loop alternative pays one sort per segment.  Pass 1 ships
    one (seg, count, min_key, max_key) summary row per block × segment the
    block touches (segments × blocks, never rows); pass 2 is a streaming
    map with the broadcast offset table: within a block, rows of a segment
    are contiguous (the sort guarantees it), so the in-block rank is one
    arange per run."""
    sds = ds.sort([seg_col, order_col]).materialize()

    def summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "seg": pa.array([], type=batch.schema.field(seg_col).type),
                    "kmin": pa.array([], type=pa.int64()),
                    "kmax": pa.array([], type=pa.int64()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        segs = batch.column(seg_col).to_pandas().to_numpy()
        keys = _col_np(batch, order_col)
        # contiguous runs per segment (sorted within the block)
        cut = np.flatnonzero(segs[1:] != segs[:-1]) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(segs)]))
        return pa.table(
            {
                "seg": pa.array(segs[starts]),
                "kmin": pa.array(keys[starts].astype(np.int64)),
                "kmax": pa.array(keys[ends - 1].astype(np.int64)),
                "cnt": pa.array((ends - starts).astype(np.int64)),
            }
        )

    summ = sds.map_batches(summarize, batch_format="pyarrow", batch_size=None).to_pandas()
    if len(summ) == 0:
        return sds.map_batches(
            lambda b: b.append_column(out_col, pa.array([], type=pa.int64())),
            batch_format="pyarrow",
            batch_size=None,
        )
    summ = summ.sort_values(["seg", "kmin"], kind="mergesort", ignore_index=True)
    # per-segment key ranges must be strictly increasing across blocks — a
    # duplicate (seg, key) spanning a block boundary makes ranks ambiguous
    same = summ["seg"].to_numpy()[1:] == summ["seg"].to_numpy()[:-1]
    if same.any() and (summ["kmax"].to_numpy()[:-1][same] >= summ["kmin"].to_numpy()[1:][same]).any():
        raise ValueError(f"duplicate ({seg_col}, {order_col}) across blocks — rank is ambiguous")
    grp_off = summ.groupby("seg", sort=False)["cnt"].cumsum().to_numpy() - summ["cnt"].to_numpy()
    offsets = {
        (s, int(k)): int(o)
        for s, k, o in zip(summ["seg"].to_numpy(), summ["kmin"].to_numpy(), grp_off)
    }
    ref = ray.put(offsets)

    def add_rank(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array([], type=pa.int64()))
        offs = cached_ref(ref)
        segs = batch.column(seg_col).to_pandas().to_numpy()
        keys = _col_np(batch, order_col)
        cut = np.flatnonzero(segs[1:] != segs[:-1]) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(segs)]))
        rnk = np.empty(len(segs), dtype=np.int64)
        for s, e in zip(starts, ends):
            key = (segs[s], int(keys[s]))
            if key not in offs:
                raise ValueError("batch run does not start at a recorded block boundary")
            rnk[s:e] = offs[key] + np.arange(1, e - s + 1, dtype=np.int64)
        return batch.append_column(out_col, pa.array(rnk))

    return sds.map_batches(add_rank, batch_format="pyarrow", batch_size=None)


def pack_bins(
    ds: Dataset,
    value_col: str,
    order_col: str,
    capacity: int,
    bin_col: str = "bin_id",
) -> Dataset:
    """Sequential-fill packing: assign each row (in ``order_col`` order) to
    the fixed-budget bin its exclusive running total falls in —
    bin_id = ⌊(inclusive_cumsum − value) / capacity⌋."""
    scanned = ordered_prefix_sum(ds, value_col, order_col, out_col="__cum")

    def to_bin(batch: pa.Table) -> pa.Table:
        cum = _col_np(batch, "__cum")
        vals = _col_np(batch, value_col)
        bins = np.floor((cum - vals) / float(capacity)).astype(np.int64)
        return batch.drop_columns(["__cum"]).append_column(bin_col, pa.array(bins))

    return scanned.map_batches(to_bin, batch_format="pyarrow")
