"""Segment merge: streaming multi-way merge of sorted term runs.

An incremental build writes each batch of new docs as its own *segment* —
an index dir built with ``doc_id_base`` = total docs so far (segments hold
disjoint, ascending doc-id ranges; cross-segment url dedup is the ingestion
pipeline's job).  A doc shard may span several segments when a batch
boundary falls inside it.  Merging k segments is a per-shard multi-way
merge of per-term posting runs: O(nnz) concatenation in term order — runs
are doc-ascending and disjoint, so no per-posting re-sort — with term ids
remapped to the merged vocab.  Postings store raw tfs, so nothing in them
depends on the corpus statistics: the merged df, N and avgdl (all change
when segments join) go to ``stats/`` and readers compute impacts from
them at load.

Reference analogue: ``load_shard_manifest`` + ``build_inverted_index_from_
shards`` (``/root/reference/src/indexing/sparse_index.py:455-658``) re-read
every CSR shard into RAM on one node; here each shard merges independently
(``ray.data.from_items`` over shard descriptors → ``map_batches``), so the
merge streams and scales with the cluster, and every output shard carries
the same manifest/lineage records as a fresh build (resume: a valid merged
shard is skipped).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..codec import binary_concat, varint_decode
from ..config import EngineConfig, DEFAULT_CONFIG
from ..stages.encode import cached_ref
from ..stages.postings import encode_shard_postings, _lineage_row
from ..state.lineage import atomic_write_json, config_hash, postings_shard_ids, read_json, shard_is_valid


def decode_postings_table(
    post: pa.Table, ids_only: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, str]:
    """Postings parquet table → (term_ids, seg_lens, local_ids, vals,
    weight_mode); two vectorized varint passes, mirrors the query-side load
    (pipelines/search.py ShardIndex).  ``ids_only=True`` skips the
    tf/weight column entirely (vals=None, mode="") — the purge-stats pass
    reads only (term_id, df, docs) and must not require value columns."""
    term_ids = post.column("term_id").to_numpy(zero_copy_only=False).astype(np.int64)
    seg_lens = post.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    nnz = int(seg_lens.sum())
    deltas = varint_decode(binary_concat(post.column("docs").combine_chunks()), nnz).astype(np.int64)
    csum = np.cumsum(deltas)
    seg_starts = np.zeros(seg_lens.size, dtype=np.int64)
    np.cumsum(seg_lens[:-1], out=seg_starts[1:])
    if nnz:
        prior = np.where(seg_starts > 0, csum[np.maximum(seg_starts - 1, 0)], 0)
        local = csum - np.repeat(prior, seg_lens)
    else:
        local = np.zeros(0, np.int64)
    if ids_only:
        return term_ids, seg_lens, local, None, ""
    if "tfs" in post.column_names:
        vals = varint_decode(binary_concat(post.column("tfs").combine_chunks()), nnz)
        mode = "tf"
    elif "weights_q8" in post.column_names:
        vals = np.frombuffer(binary_concat(post.column("weights_q8").combine_chunks()), dtype=np.uint8)
        mode = "q8"
    else:
        vals = np.frombuffer(binary_concat(post.column("weights").combine_chunks()), dtype=np.float32)
        mode = "f32"
    return term_ids, seg_lens, local, vals, mode


def _segment_shards(seg_dir: str) -> dict[int, str]:
    pdir = os.path.join(seg_dir, "postings")
    return {sid: pdir for sid in postings_shard_ids(pdir)}


class PurgeStatsStage:
    """Pass-1 kernel for a tombstone-purging merge: per shard descriptor,
    the SURVIVING corpus statistics — per-merged-term df partials (df =
    surviving posting count per term: one posting per (doc, term)) plus a
    summary row (surviving doc count, Σ dl).  Partials are vocab-bounded;
    the driver reduce is one np.add.at.  Same nullable-column fusion trick
    as stages/stats.compute_stats_fused.  Either argument may be a
    ``ray.put`` ref or the value itself."""

    def __init__(self, remaps_ref, del_ref):
        self.remaps_ref = remaps_ref
        self.del_ref = del_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        remaps, dels = cached_ref(self.remaps_ref), cached_ref(self.del_ref)
        out = []
        for row in batch.to_pylist():
            sid = int(row["shard"])
            tid_parts, tf_parts, n_docs, sum_dl = [], [], 0, 0
            for si, pdir in zip(row["seg_idx"], row["pdirs"]):
                docs = pq.read_table(
                    os.path.join(pdir, f"shard-{sid:05d}.docs.parquet"), columns=["url", "dl"]
                )
                delmask = pa.compute.is_in(
                    docs.column("url").combine_chunks(), value_set=dels
                ).to_numpy(zero_copy_only=False)
                keep_doc = ~delmask
                n_docs += int(keep_doc.sum())
                sum_dl += int(docs.column("dl").to_numpy(zero_copy_only=False)[keep_doc].sum())
                full_post = pq.read_table(os.path.join(pdir, f"shard-{sid:05d}.postings.parquet"))
                has_tfs = "tfs" in full_post.column_names
                post = full_post.select(["term_id", "df", "docs"] + (["tfs"] if has_tfs else []))
                # decode values only for raw-tf postings (cf needs them);
                # weight modes keep the cheap doc-id-only decode
                tids, lens, local, vals, _ = decode_postings_table(post, ids_only=not has_tfs)
                remap = remaps[si]
                if remap is not None:
                    tids = remap[tids]
                flat_tid = np.repeat(tids, lens)
                keep_mask = keep_doc[local]
                kept = flat_tid[keep_mask]
                tid_parts.append(kept)
                if has_tfs:
                    tf_parts.append(vals.astype(np.int64)[keep_mask])
            all_kept = np.concatenate(tid_parts) if tid_parts else np.zeros(0, np.int64)
            uniq, inv, cnt = np.unique(all_kept, return_inverse=True, return_counts=True)
            n = uniq.size
            if tf_parts:
                all_tf = np.concatenate(tf_parts)
                cf = np.bincount(inv, weights=all_tf.astype(np.float64), minlength=n).astype(np.int64)
            else:
                cf = np.zeros(n, dtype=np.int64)
            out.append(
                pa.table(
                    {
                        "tid": pa.concat_arrays([pa.array(uniq, type=pa.int64()), pa.nulls(1, pa.int64())]),
                        "df": pa.concat_arrays([pa.array(cnt.astype(np.int64)), pa.nulls(1, pa.int64())]),
                        "cf": pa.concat_arrays([pa.array(cf, type=pa.int64()), pa.nulls(1, pa.int64())]),
                        "n_docs": pa.concat_arrays([pa.nulls(n, pa.int64()), pa.array([n_docs], type=pa.int64())]),
                        "sum_dl": pa.concat_arrays([pa.nulls(n, pa.int64()), pa.array([sum_dl], type=pa.int64())]),
                    }
                )
            )
        return pa.concat_tables(out)


class MergeShardStage:
    """map_batches kernel over shard descriptors: merge one shard's posting
    runs from every segment that touches it.  With a non-empty delete set
    the merge PURGES tombstones: deleted docs' rows and postings are
    dropped and local ids compact — with the SURVIVING corpus statistics
    of :class:`PurgeStatsStage` in ``stats/``, exactly what a fresh build
    of the surviving corpus would store.  ``remaps_ref`` and ``del_ref``
    may be ``ray.put`` refs or the values themselves."""

    def __init__(
        self,
        postings_dir: str,
        cfg: EngineConfig,
        remaps_ref,
        weight_mode: str,
        stats_key: str = "",
        del_ref=None,
    ):
        self.postings_dir = postings_dir
        self.cfg = cfg
        self.remaps_ref = remaps_ref
        self.weight_mode = weight_mode
        self.stats_key = stats_key
        self.del_ref = del_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        remaps, dels = cached_ref(self.remaps_ref), cached_ref(self.del_ref)
        out = []
        for row in batch.to_pylist():
            out.append(self._merge_one(int(row["shard"]), row["seg_idx"], row["pdirs"], remaps, dels))
        return pa.concat_tables(out)

    def _merge_one(self, shard_id: int, seg_idx: list[int], pdirs: list[str], remaps, dels) -> pa.Table:
        t0 = time.perf_counter()
        # resume check from parquet METADATA only — a valid merged shard
        # must not pay for reading/decoding every segment again.  (Purging
        # merges skip this fast path: the expected row count is the
        # SURVIVOR count, unknown without reading the url columns.)
        total_rows = sum(
            pq.read_metadata(os.path.join(pdir, f"shard-{shard_id:05d}.docs.parquet")).num_rows
            for pdir in pdirs
        )
        if (dels is None or not len(dels)) and shard_is_valid(self.postings_dir, shard_id, total_rows):
            # row count alone is not enough for merges: term ids remap to
            # the MERGED vocab, which changes when the segment set changes
            # even if this shard's rows don't
            from ..state.lineage import read_json as _read_json, shard_manifest_path as _smp

            man = _read_json(_smp(self.postings_dir, shard_id)) or {}
            if man.get("stats_key") == self.stats_key:
                return _lineage_row({"part_id": shard_id, "input_rows": total_rows, "skipped": True})

        docs_tbls, run_tids, run_local, run_vals = [], [], [], []
        doc_off = 0
        for si, pdir in zip(seg_idx, pdirs):
            post = pq.read_table(os.path.join(pdir, f"shard-{shard_id:05d}.postings.parquet"))
            docs = pq.read_table(os.path.join(pdir, f"shard-{shard_id:05d}.docs.parquet"))
            tids, lens, local, vals, mode = decode_postings_table(post)
            if mode != self.weight_mode:
                raise ValueError(
                    f"shard {shard_id} in {pdir}: postings weight mode {mode!r}, "
                    f"merge expects {self.weight_mode!r}"
                )
            if mode == "q8":
                # decode returns raw uint8 codes; the encode kernel expects
                # WEIGHTS and re-quantizes — dequantize first so the
                # round-trip is exact (code -> w -> code)
                vals = vals.astype(np.float64) * (self.cfg.q8_scale / 255.0)
            remap = remaps[si]
            if remap is not None:
                tids = remap[tids]
            flat_tid_seg = np.repeat(tids, lens)
            if dels is not None and len(dels):
                # purge tombstones: drop deleted docs' rows + postings and
                # compact local ids so the merged shard is dense again
                delmask = pa.compute.is_in(
                    docs.column("url").combine_chunks(), value_set=dels
                ).to_numpy(zero_copy_only=False)
                if delmask.any():
                    keep_doc = ~delmask
                    newpos = np.cumsum(keep_doc) - 1
                    keep_post = keep_doc[local]
                    flat_tid_seg = flat_tid_seg[keep_post]
                    local = newpos[local[keep_post]]
                    vals = vals[keep_post]
                    docs = docs.filter(pa.array(keep_doc))
            run_tids.append(flat_tid_seg)
            run_local.append(local + doc_off)
            run_vals.append(vals)
            docs_tbls.append(docs)
            doc_off += docs.num_rows
        fwd_flags = {"fwd" in t.column_names for t in docs_tbls}
        if len(fwd_flags) != 1:
            raise ValueError(
                "mixed store_forward across segments: rebuild the older "
                "segments with the same config before merging"
            )

        flat_tid = np.concatenate(run_tids)
        flat_local = np.concatenate(run_local)
        flat_vals = np.concatenate(run_vals)
        # segments are ordered by doc range, so a stable term sort leaves
        # each term's runs concatenated in ascending-doc order — the
        # multi-way merge is this one stable counting sort
        order = np.argsort(flat_tid, kind="stable")

        docs_all = pa.concat_tables(docs_tbls)
        doc_cols = {
            "local_id": pa.array(np.arange(doc_off, dtype=np.int32)),
            "doc_id": docs_all.column("doc_id"),
            "url": docs_all.column("url"),
            "dl": docs_all.column("dl"),
        }
        has_fwd = "fwd" in docs_all.column_names
        if has_fwd:  # forward streams merge by concatenation (doc order)
            doc_cols["fwd"] = docs_all.column("fwd")
        docs_all = pa.table(doc_cols)
        return encode_shard_postings(
            postings_dir=self.postings_dir,
            shard_id=shard_id,
            p_tid=flat_tid[order],
            p_local=flat_local[order],
            p_vals=flat_vals[order],
            docs_tbl=docs_all,
            cfg=self.cfg,
            weight_mode=self.weight_mode,
            input_rows=doc_off,
            t0=t0,
            extra_manifest={"stats_key": self.stats_key, **({"fwd": True} if has_fwd else {})},
        )


def merge_segments(
    segment_dirs: list[str],
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    deletes: list[str] | None = None,
) -> dict:
    """Merge segment index dirs (disjoint ascending doc ranges, same
    config) into one index dir with merged stats + per-shard lineage.

    Tombstone purge: every segment's ``deletes.json`` (written by
    :func:`..search.apply_deletes`) plus the explicit ``deletes`` list is
    PURGED during the merge — deleted docs' rows and postings dropped and
    the merged df/N/avgdl recomputed over the SURVIVORS (one extra
    vocab-bounded stats pass, :class:`PurgeStatsStage`), so the output
    equals a fresh build of the surviving corpus (same urls, scores, and
    relative tie-break order; tested) and carries no ``deletes.json``."""
    cfg = cfg.validate()
    if not segment_dirs:
        raise ValueError("merge_segments needs at least one segment dir")
    del_set: set[str] = set(deletes or [])
    for d in segment_dirs:
        del_set |= set((read_json(os.path.join(d, "deletes.json")) or {}).get("urls", []))
    del_arr = pa.array(sorted(del_set), type=pa.string()) if del_set else None
    metas = [read_json(os.path.join(d, "stats", "meta.json")) for d in segment_dirs]
    encoders = {m.get("encoder", "bm25") for m in metas}
    vdts = {m.get("value_dtype", "tf") for m in metas}
    vmodes = {m.get("vocab_mode", "sorted") for m in metas}
    for what, seen in (("encoders", encoders), ("value dtypes", vdts), ("vocab modes", vmodes)):
        if len(seen) > 1:
            raise ValueError(f"mixed segment {what}: {sorted(seen, key=str)}")
    encoder = encoders.pop()
    if encoder == "bm25":
        weight_mode = "tf"
    elif metas[0].get("value_dtype") == "q8":
        weight_mode = "q8"
    else:
        weight_mode = "f32"

    n_docs = sum(m["n_docs"] for m in metas)
    sum_dl = sum(m["avgdl"] * m["n_docs"] for m in metas)
    meta = {
        "n_docs": n_docs,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
        "nnz": sum(m["nnz"] for m in metas),
        "encoder": encoder,
        "vocab_mode": vmodes.pop(),
        "value_dtype": vdts.pop(),
        "merged_from": [os.path.abspath(d) for d in segment_dirs],
    }
    if all("sum_dl" in m for m in metas):
        # exact token total (LM-Dirichlet stat) survives the merge
        meta["sum_dl"] = sum(int(m["sum_dl"]) for m in metas)

    # ---- merged vocab + per-segment term-id remaps ----
    vocabs = [pq.read_table(os.path.join(d, "stats", "vocab.parquet")).to_pandas() for d in segment_dirs]
    stats_dir = os.path.join(out_dir, "stats")
    os.makedirs(stats_dir, exist_ok=True)
    # cf (collection frequency, the LM-Dirichlet stat) merges by the same
    # per-term sum as df — only when every segment carries it
    cf_cols = ["cf"] if all("cf" in v.columns for v in vocabs) else []
    if "term" in vocabs[0].columns:  # sorted-string vocab: remap per segment
        merged = (
            pd.concat(vocabs, ignore_index=True)
            .groupby("term", sort=True, as_index=False)[["df"] + cf_cols]
            .sum()
        )
        merged["term_id"] = np.arange(len(merged), dtype=np.int64)
        merged = merged[["term", "term_id", "df"] + cf_cols]
        midx = pd.Index(merged["term"])
        remaps = [midx.get_indexer(v["term"]).astype(np.int64) for v in vocabs]
        key_df = merged["df"].to_numpy().astype(np.int64)
    else:  # global int ids (neural hashes or hashed bm25 vocab): no remap
        merged = (
            pd.concat(vocabs, ignore_index=True)
            .groupby("term_id", sort=True, as_index=False)[["df"] + cf_cols]
            .sum()
        )
        remaps = [None] * len(segment_dirs)
        key_df = merged["df"].to_numpy().astype(np.int64) if encoder == "bm25" else None
    # ---- shard descriptors: which segments touch which shard ----
    per_seg = [_segment_shards(d) for d in segment_dirs]
    items: dict[int, dict] = {}
    for si, shards in enumerate(per_seg):  # si ascending == doc-range order
        for sid, pdir in shards.items():
            rec = items.setdefault(sid, {"shard": sid, "seg_idx": [], "pdirs": []})
            rec["seg_idx"].append(si)
            rec["pdirs"].append(pdir)

    if del_arr is None or not items:
        # purging merges overwrite vocab/meta with survivor stats below —
        # writing the pre-purge versions first would be a wasted full write
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), os.path.join(stats_dir, "vocab.parquet"))
        atomic_write_json(os.path.join(stats_dir, "meta.json"), meta)

    remaps_ref = ray.put(remaps)
    # ---- tombstone purge, pass 1: surviving-corpus statistics ----
    if del_arr is not None and items:
        V = len(merged)
        df_new = np.zeros(V, dtype=np.int64)
        cf_new = np.zeros(V, dtype=np.int64)
        n_docs, sum_dl = 0, 0
        int_id_vocab = "term" not in merged.columns
        tid_index_sorted = merged["term_id"].to_numpy().astype(np.int64) if int_id_vocab else None
        parts = ray.data.from_items(list(items.values())).map_batches(
            PurgeStatsStage(remaps_ref, ray.put(del_arr)), batch_format="pyarrow", batch_size=1
        )
        for b in parts.iter_batches(batch_format="pyarrow"):
            if b.num_rows == 0:
                continue
            valid = pa.compute.is_valid(b.column("df"))
            vt = b.filter(valid)
            if vt.num_rows:
                pos = vt.column("tid").to_numpy(zero_copy_only=False)
                if int_id_vocab:
                    pos = np.searchsorted(tid_index_sorted, pos)
                np.add.at(df_new, pos, vt.column("df").to_numpy(zero_copy_only=False))
                np.add.at(cf_new, pos, vt.column("cf").to_numpy(zero_copy_only=False))
            st = b.filter(pa.compute.invert(valid))
            n_docs += int(sum(st.column("n_docs").to_pylist()))
            sum_dl += int(sum(st.column("sum_dl").to_pylist()))
        merged["df"] = df_new
        if weight_mode == "tf":
            merged["cf"] = cf_new
            meta["sum_dl"] = sum_dl
        meta["n_docs"] = n_docs
        meta["avgdl"] = (sum_dl / n_docs) if n_docs else 0.0
        meta["nnz"] = int(df_new.sum())
        meta["purged_deletes"] = len(del_set)
        pq.write_table(
            pa.Table.from_pandas(merged, preserve_index=False), os.path.join(stats_dir, "vocab.parquet")
        )
        atomic_write_json(os.path.join(stats_dir, "meta.json"), meta)
        if key_df is not None:
            key_df = df_new

    postings_dir = os.path.join(out_dir, "postings")
    os.makedirs(postings_dir, exist_ok=True)
    # fingerprint of the merge inputs: a resumed shard is only valid if it
    # was written for the SAME merged vocab and survivors (df/N/avgdl
    # stand in for the segment set), deletes, weight mode and config
    import hashlib as _hashlib
    import zlib as _zlib

    df_crc = _zlib.crc32(key_df.tobytes()) if key_df is not None else 0
    del_hash = _hashlib.sha256("|".join(sorted(del_set)).encode()).hexdigest()[:8] if del_set else "0"
    stats_key = _hashlib.sha256(
        f"{meta['n_docs']}|{meta['avgdl']:.9f}|{df_crc}|{del_hash}|{weight_mode}|{config_hash(cfg)}".encode()
    ).hexdigest()[:16]
    if items:
        lineage = (
            ray.data.from_items(list(items.values()))
            .map_batches(
                MergeShardStage(postings_dir, cfg, remaps_ref, weight_mode, stats_key, del_arr),
                batch_format="pyarrow",
                batch_size=1,
            )
            .to_pandas()
        )
    else:  # all segments are valid empty indexes
        lineage = pd.DataFrame({"part_id": [], "input_rows": [], "skipped": []})
    atomic_write_json(
        os.path.join(postings_dir, "_LINEAGE.json"),
        {"shards": lineage.sort_values("part_id").to_dict("records") if len(lineage) else []},
    )
    summary = {
        "out_dir": out_dir,
        "config_hash": config_hash(cfg),
        "n_shards": int(len(lineage)),
        "skipped_shards": int(lineage["skipped"].sum()) if len(lineage) else 0,
        **meta,
    }
    atomic_write_json(os.path.join(out_dir, "_MANIFEST.json"), summary)
    return summary
