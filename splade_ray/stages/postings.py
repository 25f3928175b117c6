"""Posting-list construction — the central shuffle (SURVEY.md §2.5 A2).

Reference analogue: the single-node two-pass counting-sort scatter
``_fill_postings`` (``/root/reference/src/indexing/sparse_index.py:591-658``)
that builds one giant CSC over the whole corpus in RAM.  The distributed
re-expression is **document sharding**: shard *s* owns the contiguous doc-id
range ``[s*shard_size, (s+1)*shard_size)`` and holds a complete mini-index
over its docs.  ``groupby("shard")`` is the only big exchange; the reference
kernel becomes the per-shard numpy kernel inside ``map_groups``.

Why this beats groupby(term) for the head-term skew problem: a term's
posting list within one shard can never exceed ``shard_size`` entries, so
stopword groups are bounded *by construction* — no salting needed — and
query-time top-k is a valid scatter-gather (doc sets are disjoint, so
per-shard exact top-k merge is globally exact).

Within each (shard, term) posting list doc ids ascend (stable counting
sort) and are delta+varint compressed (FOR); values are raw tfs (varint),
neural float32 impacts, or their uint8 quantization.  Nothing stored
depends on corpus statistics: readers compute impacts, and derive the
block-max zone bounds of pruned top-k, at read time
(pipelines/search.py).
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..codec import varint_encode, varint_lengths, write_index_table
from ..config import EngineConfig
from ..state.lineage import atomic_write_json, shard_is_valid, shard_manifest_path


def _binary_from_segments(data: bytes, byte_offsets: np.ndarray) -> pa.Array:
    """Zero-copy build of a binary column whose row i is
    data[byte_offsets[i]:byte_offsets[i+1]]."""
    return pa.Array.from_buffers(
        pa.binary(),
        len(byte_offsets) - 1,
        [None, pa.py_buffer(byte_offsets.astype(np.int32).tobytes()), pa.py_buffer(data)],
    )


_VOCAB_INDEX_CACHE: dict = {}


def _resolve_doc_ids(batch: pa.Table, cfg: EngineConfig, offsets_ref) -> np.ndarray:
    """Global doc id: already present (broadcast dedup assigned it), or
    offset[bucket] + local_idx (shuffle dedup; the deterministic assignment
    contract, SURVEY.md §3.2) with offsets broadcast via ray.put."""
    from .encode import cached_ref

    if "doc_id" in batch.column_names:
        return batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.asarray(cached_ref(offsets_ref), dtype=np.int64)
    buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
    local_idx = batch.column("local_idx").to_numpy(zero_copy_only=False)
    return offsets[buckets] + local_idx


def map_term_ids(batch: pa.Table, *, cfg: EngineConfig, vocab_terms_ref, offsets_ref) -> pa.Table:
    """map_batches(pyarrow) TASK: doc_terms rows → (shard, doc_id, url, dl,
    tids, tfs).  The vocab → term-id mapping is a ``ray.put`` broadcast,
    materialized into a ``pd.Index`` once per worker process (cached by
    object ref), not per batch."""
    from .encode import cached_ref

    key = vocab_terms_ref.hex() if isinstance(vocab_terms_ref, ray.ObjectRef) else id(vocab_terms_ref)
    vocab_index = _VOCAB_INDEX_CACHE.get(key)
    if vocab_index is None:
        while len(_VOCAB_INDEX_CACHE) >= 4:  # bound: workers outlive builds
            _VOCAB_INDEX_CACHE.pop(next(iter(_VOCAB_INDEX_CACHE)))
        vocab_index = _VOCAB_INDEX_CACHE[key] = pd.Index(cached_ref(vocab_terms_ref))
    terms = batch.column("terms").combine_chunks()
    # dictionary-encode so only per-batch UNIQUE terms are hashed into the
    # vocab index (vs. one Python string per posting)
    dic = terms.flatten().dictionary_encode()
    uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
    mapped = vocab_index.get_indexer(uniq).astype(np.int32)
    if (mapped < 0).any():
        raise ValueError(f"terms missing from vocab: {uniq[mapped < 0][:3]}")
    tids = mapped[dic.indices.to_numpy(zero_copy_only=False)]
    offsets = terms.offsets
    tids_col = pa.ListArray.from_arrays(offsets, pa.array(tids))
    doc_id = _resolve_doc_ids(batch, cfg, offsets_ref)
    shard = (doc_id // cfg.shard_size).astype(np.int32)
    cols = {
        "shard": pa.array(shard),
        "doc_id": pa.array(doc_id),
        "url": batch.column("url"),
        "dl": batch.column("dl"),
        "tids": tids_col,
        "tfs": batch.column("tfs"),
    }
    if "fwd" in batch.column_names:  # forward token-hash streams ride along
        cols["fwd"] = batch.column("fwd")
    return pa.table(cols)


def assign_ids_and_shard(batch: pa.Table, *, cfg: EngineConfig, offsets_ref) -> pa.Table:
    """Stateless map for encoders that already emit int term ids (the
    neural path): resolve doc ids and tag each row with its doc-shard
    before the groupby."""
    doc_id = _resolve_doc_ids(batch, cfg, offsets_ref)
    shard = (doc_id // cfg.shard_size).astype(np.int32)
    drop = [c for c in ("bucket", "local_idx", "doc_id") if c in batch.column_names]
    out = batch.drop_columns(drop)
    out = out.add_column(0, "doc_id", pa.array(doc_id))
    return out.add_column(0, "shard", pa.array(shard))


def build_shard_index(
    group: pa.Table,
    *,
    postings_dir: str,
    cfg: EngineConfig,
    stats_ref=None,
    weight_mode: str = "tf",
) -> pa.Table:
    """map_groups(pyarrow) kernel for one shard: counting-sort postings,
    compress, write two parquet files + a lineage record; returns the
    lineage row.  Idempotent: a shard whose files + manifest already match
    this input is skipped (resume path).

    ``weight_mode="tf"``: input rows carry int ``tfs``; postings store
    varint tfs.  ``weight_mode="f32"``: input rows carry float ``weights``
    (neural encoder impacts, reference CSR values —
    sparse_index.py:100-190); postings store raw float32 segments and the
    weight IS the impact.  ``stats_ref`` is accepted and ignored: the
    kernel needs no corpus statistics."""
    t0 = time.perf_counter()
    shard_id = int(group.column("shard")[0].as_py())
    n_rows = group.num_rows
    has_fwd = "fwd" in group.column_names
    if shard_is_valid(postings_dir, shard_id, n_rows, expect_fwd=has_fwd):
        rec = {"part_id": shard_id, "input_rows": n_rows, "skipped": True}
        return _lineage_row(rec)

    doc_id = group.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(doc_id, kind="stable")
    group = group.take(pa.array(order))
    doc_id = doc_id[order]
    # contiguous doc-id range within the shard (holes would break the
    # positional local-id contract); local ids are row positions so segment
    # builds with a doc_id_base > 0 still index docs tables positionally
    if n_rows and int(doc_id[-1]) - int(doc_id[0]) != n_rows - 1:
        raise ValueError(
            f"shard {shard_id}: doc ids not contiguous ({n_rows} rows spanning "
            f"[{int(doc_id[0])}, {int(doc_id[-1])}]). Most likely cause: input rows "
            "with duplicate (url, warc_ts) pairs under dedup_mode='broadcast' "
            "(two rows claimed the same doc id) — deduplicate the crawl input or "
            "use dedup_mode='shuffle'."
        )
    local = np.arange(n_rows, dtype=np.int32)
    dl = group.column("dl").to_numpy(zero_copy_only=False).astype(np.int32)

    tids_list = group.column("tids").combine_chunks()
    flat_tids = tids_list.flatten().to_numpy(zero_copy_only=False)
    val_col = "tfs" if weight_mode == "tf" else "weights"
    flat_vals = group.column(val_col).combine_chunks().flatten().to_numpy(zero_copy_only=False)
    row_lens = tids_list.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
    flat_local = np.repeat(local, row_lens)

    # counting sort by term; stable keeps ascending local doc order per term
    sort = np.argsort(flat_tids, kind="stable")
    p_tid = flat_tids[sort]
    p_local = flat_local[sort]
    p_vals = flat_vals[sort]

    doc_cols = {
        "local_id": pa.array(local),
        "doc_id": pa.array(doc_id),
        "url": group.column("url"),
        "dl": pa.array(dl),
    }
    if has_fwd:
        doc_cols["fwd"] = group.column("fwd")
    docs_tbl = pa.table(doc_cols)
    return encode_shard_postings(
        postings_dir=postings_dir,
        shard_id=shard_id,
        p_tid=p_tid,
        p_local=p_local,
        p_vals=p_vals,
        docs_tbl=docs_tbl,
        cfg=cfg,
        weight_mode=weight_mode,
        input_rows=n_rows,
        t0=t0,
        extra_manifest={"fwd": True} if has_fwd else None,
    )


def encode_shard_postings(
    *,
    postings_dir: str,
    shard_id: int,
    p_tid: np.ndarray,
    p_local: np.ndarray,
    p_vals: np.ndarray,
    docs_tbl: pa.Table,
    cfg: EngineConfig,
    weight_mode: str,
    input_rows: int,
    t0: float,
    extra_manifest: dict | None = None,
) -> pa.Table:
    """Shared encode+write path for shard builds AND segment merges: takes
    flat postings sorted by (term, doc asc) plus the shard's docs table,
    compresses and writes the two parquet files + manifest, returns the
    lineage row."""
    n_rows = input_rows
    post_file = f"shard-{shard_id:05d}.postings.parquet"
    docs_file = f"shard-{shard_id:05d}.docs.parquet"
    nnz = p_tid.size

    uniq_tids, seg_starts, seg_lens = np.unique(p_tid, return_index=True, return_counts=True)
    n_terms = uniq_tids.size

    # --- delta encode local doc ids per segment, one varint pass total ---
    deltas = np.empty(nnz, dtype=np.uint64)
    if nnz:
        d = p_local.astype(np.int64)
        deltas[0] = d[0]
        np.subtract(d[1:], d[:-1], out=deltas[1:].view(np.int64), casting="unsafe")
        deltas[seg_starts] = d[seg_starts]
    doc_lens = varint_lengths(deltas)
    doc_bytes = varint_encode(deltas, doc_lens)
    doc_offs = np.zeros(n_terms + 1, dtype=np.int64)
    if nnz:
        doc_offs[1:] = np.cumsum(np.add.reduceat(doc_lens, seg_starts))
    docs_col = _binary_from_segments(doc_bytes, doc_offs)

    if weight_mode == "tf":
        tf_u = p_vals.astype(np.uint64)
        tf_lens = varint_lengths(tf_u)
        val_bytes = varint_encode(tf_u, tf_lens)
        val_offs = np.zeros(n_terms + 1, dtype=np.int64)
        if nnz:
            val_offs[1:] = np.cumsum(np.add.reduceat(tf_lens, seg_starts))
        vals_col = _binary_from_segments(val_bytes, val_offs)
    elif weight_mode == "q8":
        # impact-quantized uint8 codes, fixed global scale (cfg.q8_scale):
        # w' = code * scale / 255 — the scorer and the oracle both use the
        # dequantized value, so scoring is exact w.r.t. the stored index
        wf = p_vals.astype(np.float64)
        codes = np.clip(np.round(wf / cfg.q8_scale * 255.0), 0, 255).astype(np.uint8)
        val_bytes = codes.tobytes()
        val_offs = np.r_[seg_starts, nnz].astype(np.int64) if nnz else np.zeros(n_terms + 1, np.int64)
        vals_col = _binary_from_segments(val_bytes, val_offs)
    else:
        p_w32 = p_vals.astype(np.float32)
        val_bytes = p_w32.tobytes()
        val_offs = (np.r_[seg_starts, nnz] * 4).astype(np.int64) if nnz else np.zeros(n_terms + 1, np.int64)
        vals_col = _binary_from_segments(val_bytes, val_offs)

    postings_tbl = pa.table(
        {
            # int64: sorted-vocab ids fit in int32 but hashed-vocab ids are
            # 63-bit; one dtype for both keeps the format uniform
            "term_id": pa.array(uniq_tids.astype(np.int64)),
            "df": pa.array(seg_lens.astype(np.int32)),
            "docs": docs_col,
            ("tfs" if weight_mode == "tf" else ("weights_q8" if weight_mode == "q8" else "weights")): vals_col,
        }
    )
    os.makedirs(postings_dir, exist_ok=True)
    checksum = zlib.crc32(doc_bytes) ^ zlib.crc32(val_bytes)
    for fname, tbl in ((post_file, postings_tbl), (docs_file, docs_tbl)):
        tmp = os.path.join(postings_dir, f".tmp-{fname}.{os.getpid()}")
        write_index_table(tbl, tmp)
        os.replace(tmp, os.path.join(postings_dir, fname))
    rec = {
        "part_id": shard_id,
        "input_rows": n_rows,
        "nnz": int(nnz),
        "n_terms": int(n_terms),
        "checksum": int(checksum),
        "files": [post_file, docs_file],
        "wall_time_s": round(time.perf_counter() - t0, 4),
        "skipped": False,
        **(extra_manifest or {}),
    }
    atomic_write_json(shard_manifest_path(postings_dir, shard_id), rec)
    return _lineage_row(rec)


def _lineage_row(rec: dict) -> pa.Table:
    return pa.table(
        {
            "part_id": pa.array([rec["part_id"]], type=pa.int32()),
            "input_rows": pa.array([rec["input_rows"]], type=pa.int64()),
            "nnz": pa.array([rec.get("nnz", 0)], type=pa.int64()),
            "checksum": pa.array([rec.get("checksum", 0)], type=pa.int64()),
            "wall_time_s": pa.array([rec.get("wall_time_s", 0.0)], type=pa.float64()),
            "skipped": pa.array([bool(rec.get("skipped", False))]),
        }
    )
