"""Corpus statistics: per-term document frequency + global N / avgdl.

Reference analogue: pass-1 of the index build — per-shard
``np.bincount(indices, minlength=vocab)`` partials summed across shards
(``/root/reference/src/indexing/sparse_index.py:621-632``).  Ray-Data form:
partial df per batch inside ``map_batches`` (one output row per distinct
term per batch — the combiner), then a ``groupby(term).sum`` over the much
smaller partials (SURVEY.md §2.5 A1).  This is what keeps the df aggregate
from shuffling one row per posting.

Term ids are assigned by sorted term order on the driver (the vocab table is
aggregate-sized, not corpus-sized).  At 10^12-doc scale the vocab table
would instead stay distributed and term ids come from feature hashing — the
posting-build and query stages only ever consume the broadcast
``term -> (id, df)`` mapping, so swapping that in is localized here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

from ..util import block_tables


def df_partials(batch: pa.Table) -> pa.Table:
    """Partial document-frequency combiner: doc_terms batch → one
    (term, df) row per distinct term in the batch.  Terms are distinct
    within each row, so a flat occurrence count IS the per-batch df.
    Pure Arrow C++ (``value_counts``) — no Python-object round-trip."""
    flat = batch.column("terms").combine_chunks().flatten()
    if len(flat) == 0:
        return pa.table({"term": pa.array([], type=pa.string()), "df": pa.array([], type=pa.int64())})
    vc = pa.compute.value_counts(flat)
    return pa.table({"term": vc.field("values"), "df": vc.field("counts")})


def compute_vocab(doc_terms: Dataset, distributed: bool = False) -> pd.DataFrame:
    """df aggregate → vocab DataFrame (term, term_id, df) sorted by term.

    The distributed pass is only the combiner (one (term, df) row per
    distinct term per block — bounded by vocab × blocks, not corpus size);
    the final reduce runs in pandas on the driver, which beats a Ray
    groupby shuffle by seconds of fixed cost at this output size.  Set
    ``distributed=True`` when vocab × blocks outgrows driver memory
    (billion-term vocabularies) to keep the reduce as a Ray groupby."""
    partials = doc_terms.map_batches(df_partials, batch_format="pyarrow")
    if distributed:
        # COARSE term-hash buckets, never groupby(term) itself: Ray
        # finalizes every group in Python and terms are vocab-count.
        # Each bucket reduces all its terms in one Arrow-C++ group_by.
        from ..functions.hashing import hash_strings

        def bucketize(batch: pa.Table) -> pa.Table:
            h = hash_strings(batch.column("term").to_pylist())
            return batch.append_column(
                "term_bucket", pa.array((h % np.uint64(1024)).astype(np.int32))
            )

        def reduce_bucket(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return pa.schema([("term", pa.string()), ("df", pa.int64())]).empty_table()
            agg = g.group_by("term").aggregate([("df", "sum")])
            return pa.table({"term": agg.column("term"), "df": agg.column("df_sum")})

        vocab = (
            partials.map_batches(bucketize, batch_format="pyarrow")
            .groupby("term_bucket")
            .map_groups(reduce_bucket, batch_format="pyarrow")
            .to_pandas()
        )
        if "term" not in vocab.columns:  # zero-row input → schemaless frame
            vocab = pd.DataFrame({"term": pd.Series(dtype=object), "df": pd.Series(dtype=np.int64)})
        vocab = vocab.sort_values("term", kind="mergesort").reset_index(drop=True)
    else:
        # final reduce in Arrow C++ end to end — partials are vocab × blocks
        # rows of strings, and routing them through pandas materializes a
        # Python object per term occurrence (measured ~3x the reduce time)
        tabs = block_tables(partials)
        if not tabs:
            vocab = pd.DataFrame({"term": pd.Series(dtype=object), "df": pd.Series(dtype=np.int64)})
        else:
            agg = pa.concat_tables(tabs).group_by("term").aggregate([("df", "sum")])
            # UTF-8 bytewise sort == codepoint sort, matching pandas/SQL ORDER BY
            tbl = pa.table({"term": agg.column("term"), "df": agg.column("df_sum")}).sort_by("term")
            vocab = tbl.to_pandas()
    vocab["term_id"] = np.arange(len(vocab), dtype=np.int64)
    return vocab[["term", "term_id", "df"]]


def compute_stats_fused(
    doc_terms: Dataset,
    *,
    id_mode: str,
    with_buckets: bool,
    num_buckets: int,
    with_cf: bool = False,
) -> tuple[pd.DataFrame, np.ndarray, int]:
    """ONE pass over doc_terms serving both stage-4 aggregates: per-batch
    df partials (one (term, df) row per distinct term) AND the per-batch
    (bucket doc-counts, sum dl) summary, folded into the same output table
    via nullable columns (summary = the single row where ``sum_dl`` is
    valid).  Saves a full second dataset execution — the reduce itself is
    vocab-sized and runs in Arrow C++ on the driver.

    ``with_cf``: also sum the parallel ``tfs`` lists per term (collection
    frequency — the LM-Dirichlet smoothing denominator) in the SAME Arrow
    group_by, so plugging a language-model similarity costs no extra pass.

    Returns (vocab_df, bucket_counts, sum_dl); vocab_df has columns
    (term, df[, cf]) for ``id_mode='terms'`` or (term_id, df[, cf]) for
    ``'ids'``.
    """
    term_col = "tids" if id_mode == "ids" else "terms"
    key_name = "term_id" if id_mode == "ids" else "term"

    def partial(batch: pa.Table) -> pa.Table:
        flat = batch.column(term_col).combine_chunks().flatten()
        if len(flat):
            if with_cf:
                flat_tf = batch.column("tfs").combine_chunks().flatten().cast(pa.int64())
                g = pa.table({"k": flat, "v": flat_tf}).group_by("k").aggregate(
                    [("v", "count"), ("v", "sum")]
                )
                keys = g.column("k").combine_chunks()
                dfs = g.column("v_count").combine_chunks().cast(pa.int64())
                cfs = g.column("v_sum").combine_chunks().cast(pa.int64())
            else:
                vc = pa.compute.value_counts(flat)
                keys, dfs = vc.field("values"), vc.field("counts").cast(pa.int64())
                cfs = None
            if id_mode == "ids":
                # int64 key on EVERY partial: value_counts of list<int32>
                # yields int32 keys, while the all-empty-batch fallback below
                # is int64 — mixed partial schemas abort pa.concat_tables
                keys = keys.cast(pa.int64())
        else:
            keys = pa.array([], type=pa.int64() if id_mode == "ids" else pa.string())
            dfs = pa.array([], type=pa.int64())
            cfs = pa.array([], type=pa.int64())
        n = len(keys)
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        if with_buckets:
            b = batch.column("bucket").to_numpy(zero_copy_only=False)
            counts = np.bincount(b, minlength=num_buckets).astype(np.int64)
        else:
            counts = np.asarray([batch.num_rows], dtype=np.int64)
        cols = {
            key_name: pa.concat_arrays([keys, pa.nulls(1, keys.type)]),
            "df": pa.concat_arrays([dfs, pa.nulls(1, pa.int64())]),
        }
        if with_cf:
            cols["cf"] = pa.concat_arrays([cfs, pa.nulls(1, pa.int64())])
        cols["counts"] = pa.concat_arrays(
            [pa.nulls(n, pa.list_(pa.int64())), pa.array([counts.tolist()], type=pa.list_(pa.int64()))]
        )
        cols["sum_dl"] = pa.concat_arrays([pa.nulls(n, pa.int64()), pa.array([int(dl.sum())], type=pa.int64())])
        return pa.table(cols)

    tabs = block_tables(doc_terms.map_batches(partial, batch_format="pyarrow"))
    cf_cols = ["cf"] if with_cf else []
    if not tabs:
        key_dtype = np.int64 if id_mode == "ids" else object
        empty = pd.DataFrame(
            {key_name: pd.Series(dtype=key_dtype), "df": pd.Series(dtype=np.int64)}
            | {c: pd.Series(dtype=np.int64) for c in cf_cols}
        )
        return empty, np.zeros(num_buckets if with_buckets else 1, dtype=np.int64), 0
    full = pa.concat_tables(tabs)
    valid_df = pa.compute.is_valid(full.column("df"))
    vocab_rows = full.filter(valid_df).select([key_name, "df"] + cf_cols)
    summaries = full.filter(pa.compute.invert(valid_df))
    if vocab_rows.num_rows:
        agg = vocab_rows.group_by(key_name).aggregate([("df", "sum")] + [(c, "sum") for c in cf_cols])
        cols = {key_name: agg.column(key_name), "df": agg.column("df_sum")}
        for c in cf_cols:
            cols[c] = agg.column(f"{c}_sum")
        tbl = pa.table(cols).sort_by(key_name)
        vocab = tbl.to_pandas()
    else:
        key_dtype = np.int64 if id_mode == "ids" else object
        vocab = pd.DataFrame(
            {key_name: pd.Series(dtype=key_dtype), "df": pd.Series(dtype=np.int64)}
            | {c: pd.Series(dtype=np.int64) for c in cf_cols}
        )
    counts_mat = np.asarray(summaries.column("counts").to_pylist(), dtype=np.int64)
    bucket_counts = counts_mat.sum(axis=0)
    sum_dl = int(pa.compute.sum(summaries.column("sum_dl")).as_py() or 0)
    return vocab, bucket_counts, sum_dl


