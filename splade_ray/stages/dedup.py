"""Url dedup + deterministic local-index assignment (grouped stage).

Contract (SURVEY.md §3.2, mirrored by the oracle): one doc per url keeping
the max ``warc_ts`` row; global doc ids are the rank in
``(bucket = hash_strings(url) % num_buckets, url)`` order, realized as
``offset[bucket] + local_idx`` where ``local_idx`` is the url rank within
the bucket and the offsets are an exclusive prefix sum of per-bucket counts
computed on the driver (a tiny aggregate — the reference's equivalent
contract is rank-major/shard-major/row-minor position,
``src/indexing/sparse_index.py:642-656``).

The groupby(bucket) shuffle this rides on is the same exchange that dedup
needs anyway (all recrawls of a url share its bucket), so id assignment
costs no extra shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def reject_null_urls(urls) -> None:
    """Both dedup modes refuse a row without a url: dedup and doc ids are
    keyed on it.  ``null_count`` is array metadata, so this reads no data."""
    if urls.null_count:
        raise ValueError(f"{urls.null_count} input row(s) have a null url; every row needs a url")


def dedup_assign_group(group: pa.Table) -> pa.Table:
    """map_groups(pyarrow) over one bucket: drop url recrawls (keep max
    warc_ts), sort by url, emit local_idx.  Exact (url, warc_ts) ties are
    broken by content hash so the winner is deterministic regardless of
    the arrival order the shuffle produced (broadcast mode instead fails
    loudly on such ties — see EngineConfig.dedup_mode)."""
    from ..functions.hashing import hash_strings

    reject_null_urls(group.column("url"))
    urls = np.asarray(group.column("url").to_pylist(), dtype=object)
    ts = group.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    content = hash_strings(np.asarray(group.column("text").to_pylist(), dtype=object)).astype(np.int64)
    order = np.lexsort((content, -ts, urls))  # url asc, warc_ts desc, hash asc
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = urls[order][1:] != urls[order][:-1]
    final = order[keep]
    out = group.take(pa.array(final))
    return out.append_column(
        "local_idx", pa.array(np.arange(final.size, dtype=np.int64))
    )


def forward_stream_column(texts, tok) -> pa.Array:
    """Per-doc md5 token-hash stream as a binary column (u64 LE per token,
    in token order) — the forward index rows behind phrase verification.
    Hashing touches only the per-batch unique vocab (tokenize_md5)."""
    from .postings import _binary_from_segments

    th, _rows, dls = tok.tokenize_md5(texts)
    offsets = np.zeros(dls.size + 1, dtype=np.int64)
    np.cumsum(dls * 8, out=offsets[1:])
    return _binary_from_segments(th.tobytes(), offsets)


def dedup_encode_group(group: pa.Table, *, cfg) -> pa.Table:
    """Fused dedup + encode kernel (one bucket): the dedup groupby already
    co-locates every recrawl of a url, so tokenization rides the same
    exchange — no intermediate corpus materialization, no second read.
    Emits (bucket, local_idx, url, dl, terms, tfs); the global doc id
    (offset[bucket] + local_idx) is resolved at the postings stage from the
    per-bucket counts, keeping this stage embarrassingly parallel."""
    from .encode import apply_top_k_cap, cached_tokenizer, term_count_table

    deduped = dedup_assign_group(group)
    tok = cached_tokenizer(cfg)
    if cfg.vocab_mode == "hashed":
        from .encode import term_hash_table

        tids, tfs, dls = term_hash_table(deduped.column("text"), tok)
        tids, tfs = apply_top_k_cap(tids, tfs, cfg.doc_top_k)
        data = {"tids": tids, "tfs": tfs}
    else:
        terms, tfs, dls = term_count_table(deduped.column("text"), tok)
        terms, tfs = apply_top_k_cap(terms, tfs, cfg.doc_top_k)
        data = {"terms": terms, "tfs": tfs}
    if cfg.store_forward:
        data["fwd"] = forward_stream_column(deduped.column("text"), tok)
    return pa.table(
        {
            "bucket": deduped.column("bucket"),
            "local_idx": deduped.column("local_idx"),
            "url": deduped.column("url"),
            "dl": pa.array(dls),
            **data,
        }
    )


def compute_winners(input_paths, cfg, doc_id_base: int = 0):
    """Driver-side dedup winner table from a column-pruned (url, warc_ts)
    read: one row per url (max warc_ts) with its deterministic doc id —
    the rank in (hash(url) % num_buckets, url) order, same contract as the
    shuffle path and the oracle.

    The key table is ~50 B/url, so up to tens of millions of urls this is
    a driver reduce + ``ray.put`` broadcast; beyond that use
    ``dedup_mode="shuffle"`` (full-row exchange) — the trade documented in
    EngineConfig, auto-selected by ``resolve_dedup_mode``.  Returns
    ``(url_hashes u64[], winner_ts int64[], doc_ids int64[])`` aligned by
    position, sorted by hash.
    """
    import ray.data

    from ..functions.hashing import hash_strings
    from ..util import block_tables

    # url hashing runs in the WORKERS during the read (one vectorized pass
    # serves both bucket assignment — hash % num_buckets, same function as
    # ExtractStage.url_buckets / the numpy oracle — and the broadcast
    # lookup key); the driver then only runs C++ pyarrow kernels
    # (hash-aggregate + sort) over narrow columns, never materializing a
    # single Python url string (measured ~3 s of serial string churn at
    # 1.2M urls otherwise)
    def key_batch(batch: pa.Table) -> pa.Table:
        h = hash_strings(np.asarray(batch.column("url").to_pylist(), dtype=object))
        return pa.table(
            {
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts").cast(pa.int64()),
                "h": pa.array(h.view(np.int64)),
                "bucket": pa.array((h % np.uint64(cfg.num_buckets)).astype(np.int64)),
            }
        )

    tables = block_tables(
        ray.data.read_parquet(input_paths, columns=["url", "warc_ts"]).map_batches(
            key_batch, batch_format="pyarrow", batch_size=None  # whole blocks
        )
    )
    if not tables:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    narrow = pa.concat_tables(tables)
    reject_null_urls(narrow.column("url"))
    win = narrow.group_by("url").aggregate([("warc_ts", "max"), ("h", "one"), ("bucket", "one")])
    n = win.num_rows
    wts = win.column("warc_ts_max").to_numpy(zero_copy_only=False).astype(np.int64)
    h = win.column("h_one").to_numpy(zero_copy_only=False).view(np.uint64)
    order = (
        pa.compute.sort_indices(
            win, sort_keys=[("bucket_one", "ascending"), ("url", "ascending")]
        )
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    doc_ids = np.empty(n, dtype=np.int64)
    doc_ids[order] = np.arange(n, dtype=np.int64) + doc_id_base
    # broadcast url HASHES, not strings: three numpy arrays are zero-copy
    # out of the object store per worker, while a string index would
    # allocate |urls| Python objects in every worker process (measured as
    # an allocator stampede at high concurrency).  64-bit collisions are
    # birthday-negligible below ~1e8 urls — but a collision would make the
    # second url's winner unreachable in the searchsorted lookup and only
    # surface later as a misleading doc-id contiguity error, so detect it
    # HERE and fail with an accurate message.
    hs = np.argsort(h, kind="stable")
    h_sorted = h[hs]
    if h_sorted.size > 1 and (h_sorted[1:] == h_sorted[:-1]).any():
        dup_i = int(np.nonzero(h_sorted[1:] == h_sorted[:-1])[0][0])
        a = win.column("url")[int(hs[dup_i])].as_py()
        b = win.column("url")[int(hs[dup_i + 1])].as_py()
        raise ValueError(
            f"url hash collision between two distinct urls ({a!r} vs {b!r}): "
            "broadcast dedup cannot disambiguate them — use "
            "dedup_mode='shuffle' for this input"
        )
    return h_sorted, wts[hs], doc_ids[hs]


def dedup_broadcast_batch(batch: pa.Table, *, cfg, winners_ref, verify: bool = False, encode: bool = True) -> pa.Table:
    """map_batches TASK (broadcast dedup): extract text, drop rows that are
    not their url's winner (url, warc_ts) pair, attach the broadcast doc
    id, and (optionally) tokenize in place.  Full rows never enter an
    exchange — the winner table is the only thing that moved."""
    from .encode import apply_top_k_cap, cached_ref, cached_tokenizer, term_count_table
    from .extract import ExtractStage

    from ..functions.hashing import hash_strings

    win_h, wts, doc_ids = cached_ref(winners_ref)
    # filter LOSERS before html extraction: the winner test needs only
    # (url, warc_ts), so recrawl rows never pay the extraction kernel
    urls = np.asarray(batch.column("url").to_pylist(), dtype=object)
    h = hash_strings(urls)
    idx = np.searchsorted(win_h, h)
    idx = np.minimum(idx, win_h.size - 1)
    found = win_h[idx] == h
    ts = batch.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    keep = found & (wts[idx] == ts)
    ext = ExtractStage(cfg, verify=verify, compute_bucket=False)(batch.filter(pa.array(keep)))
    row_doc_ids = doc_ids[idx[keep]]
    if not encode:
        return pa.table(
            {
                "doc_id": pa.array(row_doc_ids),
                "url": ext.column("url"),
                "text": ext.column("text"),
                "lang": ext.column("lang"),
            }
        )
    tok = cached_tokenizer(cfg)
    if cfg.vocab_mode == "hashed":
        from .encode import term_hash_table

        tids, tfs, dls = term_hash_table(ext.column("text"), tok)
        tids, tfs = apply_top_k_cap(tids, tfs, cfg.doc_top_k)
        data = {"tids": tids, "tfs": tfs}
    else:
        terms, tfs, dls = term_count_table(ext.column("text"), tok)
        terms, tfs = apply_top_k_cap(terms, tfs, cfg.doc_top_k)
        data = {"terms": terms, "tfs": tfs}
    if cfg.store_forward:
        data["fwd"] = forward_stream_column(ext.column("text"), tok)
    return pa.table(
        {
            "doc_id": pa.array(row_doc_ids),
            "url": ext.column("url"),
            "dl": pa.array(dls),
            **data,
        }
    )
