"""End-to-end streaming inverted-index build (SURVEY.md §7 steps 1-4).

Pipeline (each stage a Ray Data transform; every arrow is streamed with
backpressure, never materialized on the driver):

1. ``read_parquet`` (column-pruned: html projected away right after
   extraction) → :class:`ExtractStage` → ``groupby(bucket)`` →
   :func:`dedup_encode_group` (fused dedup + tokenize; one exchange, no
   intermediate corpus) → ``write_parquet(doc_terms/)``
                                              [stage ``doc_terms``]
   (neural encoder: the deduped batches stream straight into the
   construct-once encoder actor pool — same single exchange, no
   intermediate corpus write)
2. df aggregate (partial combiner + driver reduce) → vocab; per-bucket
   counts + Σdl in one column-pruned pass → global stats + the doc-id
   prefix-sum inputs → ``stats/``           [stage ``stats``]
3. doc_terms → :func:`map_term_ids` tasks (resolves doc ids from the
   broadcast bucket offsets) → ``groupby(shard)``
   → :func:`build_shard_index` (per-shard counting-sort kernel, compressed
   write, lineage record) → ``postings/`` + ``postings/_LINEAGE.json``
                                              [stage ``postings``]

Every stage directory carries ``_SUCCESS.json``; re-running with the same
config skips completed stages, and the postings stage skips valid shards
(per-partition checkpoint resume, north rule).

Reference lifecycle being re-expressed: encode (``script/encode.py:38-69``)
+ index (``script/index.py:54-128``) — see SURVEY.md §3.1-3.2.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..codec import write_index_dataset, write_index_table
from ..config import EngineConfig, DEFAULT_CONFIG
from ..stages.dedup import (
    compute_winners,
    dedup_assign_group,
    dedup_broadcast_batch,
    dedup_encode_group,
)
from ..stages.extract import ExtractStage
from ..stages.neural import NeuralEncodeStage
from ..stages.postings import assign_ids_and_shard, build_shard_index, map_term_ids
from ..stages.stats import compute_stats_fused
from ..state.lineage import StageGuard, atomic_write_json, config_hash, read_json
from ..util import pool_size


def _parquet_files(input_paths) -> list[str]:
    paths = list(input_paths) if isinstance(input_paths, (list, tuple)) else [input_paths]
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
        else:
            files.append(p)
    return files


def _corpus_columns(input_paths, verify_extraction: bool = False) -> list[str]:
    import pyarrow.parquet as pq

    path = _parquet_files(input_paths)[0]
    names = set(pq.read_schema(path).names)
    cols = [c for c in ("url", "warc_ts", "html", "text", "lang") if c in names]
    if "html" in names and "text" in names and not verify_extraction:
        # text is derivable from html — reading both nearly doubles the
        # scanned bytes (text is ~48% of this corpus' compressed size), so
        # the redundant column rides along ONLY when the byte-identity
        # verification asked for it
        cols.remove("text")
    return cols


def _input_row_count(input_paths) -> int:
    """Total input rows from parquet FOOTERS only — a driver-side metadata
    scan (no data read), used to auto-pick the dedup strategy."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(input_paths))


def resolve_dedup_mode(input_paths, cfg: EngineConfig) -> str:
    """``auto`` → broadcast below ``broadcast_row_limit`` input rows (the
    winner table fits a ray.put broadcast), shuffle above (the 10^12-url
    path where even the key set must stay distributed)."""
    if cfg.dedup_mode != "auto":
        return cfg.dedup_mode
    return "broadcast" if _input_row_count(input_paths) <= cfg.broadcast_row_limit else "shuffle"


class IndexBuilder:
    def __init__(
        self,
        out_dir: str,
        cfg: EngineConfig = DEFAULT_CONFIG,
        verify_extraction: bool = False,
        doc_id_base: int = 0,
    ):
        """``doc_id_base``: first doc id of this segment — incremental
        builds (new crawl batches) continue numbering from the previous
        segment's total; segments over disjoint inputs then merge via
        :mod:`splade_ray.pipelines.merge` (term-run merge, north rule)."""
        self.out_dir = out_dir
        self.cfg = cfg.validate()
        self.cfg_hash = config_hash(cfg) + (f"+base{doc_id_base}" if doc_id_base else "")
        self.verify_extraction = verify_extraction
        self.doc_id_base = int(doc_id_base)
        self.timings: dict[str, float] = {}

    def _encode_pool(self, deduped):
        """Deduped corpus batches → the construct-once encoder actor pool
        (ONE deployment shape for both dedup modes; sized by concurrency ×
        ``cfg.neural_num_gpus``)."""
        # the package's one actor pool: the stage holds a loaded model, built once per actor
        return deduped.map_batches(
            NeuralEncodeStage,
            fn_constructor_args=(self.cfg,),
            batch_format="pyarrow",
            batch_size=self.cfg.read_batch_size,
            concurrency=pool_size(),
            **({"num_gpus": self.cfg.neural_num_gpus} if self.cfg.neural_num_gpus else {}),
        )

    # ---------- stage 1: extract + dedup + encode (fused) ----------
    def build_doc_terms(self, input_paths) -> str:
        """BM25 path: ONE execution — read → extract (html projected away)
        → groupby(bucket) → fused dedup+tokenize kernel → write.  The doc
        id is deferred (offset[bucket] + local_idx, offsets from the stats
        stage), so no barrier splits the pipeline here.

        Neural path: the encoder holds real model state, so the deduped
        batches stream into a construct-once actor pool (sized by
        ``concurrency`` × ``cfg.neural_num_gpus`` — the GPU deployment
        shape of the reference encode lifecycle, SURVEY.md §3.1) in the
        same execution."""
        dt_dir = os.path.join(self.out_dir, "doc_terms")
        guard = StageGuard(dt_dir, self.cfg_hash)
        if guard.done():
            return dt_dir
        # a crashed or config-changed prior run may have left parquet files
        # behind; write_parquet APPENDS new UUID-named files, so a dirty
        # stage dir would silently duplicate every row — clear it first
        # (the postings stage is per-shard atomic and resumes instead)
        import shutil

        shutil.rmtree(dt_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(self.out_dir, "corpus"), ignore_errors=True)
        t0 = time.perf_counter()
        cols = _corpus_columns(input_paths, self.verify_extraction)
        ds = ray.data.read_parquet(input_paths, columns=cols)
        neural = self.cfg.encoder == "neural"
        if resolve_dedup_mode(input_paths, self.cfg) == "broadcast":
            # dedup winners + doc ids from the narrow key side, broadcast
            # once — full rows never enter an exchange here
            winners_ref = ray.put(compute_winners(input_paths, self.cfg, self.doc_id_base))
            deduped = ds.map_batches(
                dedup_broadcast_batch,
                fn_kwargs={
                    "cfg": self.cfg,
                    "winners_ref": winners_ref,
                    "verify": self.verify_extraction,
                    "encode": not neural,
                },
                batch_format="pyarrow",
                batch_size=self.cfg.read_batch_size,
            )
            # neural: the deduped (doc_id, url, text) batches stream straight
            # into the encoder actor pool — no intermediate corpus
            # write+re-read (a full extra round-trip of the corpus bytes)
            encoded = self._encode_pool(deduped) if neural else deduped
        else:
            ds = ds.map_batches(
                ExtractStage(self.cfg, verify=self.verify_extraction),
                batch_format="pyarrow",
                batch_size=self.cfg.read_batch_size,
            )
            grouped = ds.groupby("bucket")
            if neural:
                encoded = self._encode_pool(grouped.map_groups(dedup_assign_group, batch_format="pyarrow"))
            else:
                encoded = grouped.map_groups(
                    functools.partial(dedup_encode_group, cfg=self.cfg), batch_format="pyarrow"
                )
        write_index_dataset(encoded, dt_dir)
        self.timings["doc_terms"] = time.perf_counter() - t0
        guard.commit()
        return dt_dir

    # ---------- stage 4: stats ----------
    def build_stats(self) -> str:
        dt_dir = os.path.join(self.out_dir, "doc_terms")
        stats_dir = os.path.join(self.out_dir, "stats")
        guard = StageGuard(stats_dir, self.cfg_hash)
        if guard.done():
            return stats_dir
        t0 = time.perf_counter()
        nb = self.cfg.num_buckets
        # mode-agnostic: the doc_terms schema says whether doc ids are still
        # deferred (shuffle mode writes a `bucket` column, broadcast doesn't)
        import pyarrow.parquet as pq

        schema_names = pq.read_schema(_parquet_files(dt_dir)[0]).names
        with_buckets = "bucket" in schema_names
        id_mode = "ids" if (self.cfg.encoder == "neural" or self.cfg.vocab_mode == "hashed") else "terms"
        # raw-tf postings also record per-term collection frequency (the
        # LM-Dirichlet denominator) — free inside the same fused group_by
        with_cf = "tfs" in schema_names
        # ONE fused pass: df partials + (bucket counts, sum dl) per batch
        # (two serial dataset executions here cost ~2 s of fixed overhead
        # each at 1M docs, dominating the vocab-sized reduce itself)
        stat_cols = (
            ["tids" if id_mode == "ids" else "terms", "dl"]
            + (["tfs"] if with_cf else [])
            + (["bucket"] if with_buckets else [])
        )
        vocab, bucket_counts, sum_dl = compute_stats_fused(
            ray.data.read_parquet(dt_dir, columns=stat_cols),
            id_mode=id_mode,
            with_buckets=with_buckets,
            num_buckets=nb,
            with_cf=with_cf,
        )
        if id_mode == "terms":
            vocab["term_id"] = np.arange(len(vocab), dtype=np.int64)
            vocab = vocab[["term", "term_id", "df"] + (["cf"] if with_cf else [])]
        n_docs = int(bucket_counts.sum())
        meta = {
            "n_docs": n_docs,
            "sum_dl": int(sum_dl),
            "avgdl": float(sum_dl / n_docs) if n_docs else 0.0,
            "nnz": int(vocab["df"].sum()),
            "encoder": self.cfg.encoder,
            "vocab_mode": self.cfg.vocab_mode,
            "value_dtype": self.cfg.neural_value_dtype if self.cfg.encoder == "neural" else "tf",
            # layout provenance: num_buckets=1 builds keep internal doc id
            # == url rank, the precondition index-sorted serving checks
            "num_buckets": self.cfg.num_buckets,
        }
        if with_buckets:
            # per-bucket doc counts: the tiny aggregate behind the
            # deterministic doc-id prefix sum (SURVEY.md §3.2)
            meta["bucket_counts"] = bucket_counts.tolist()
        os.makedirs(stats_dir, exist_ok=True)
        write_index_table(pa.Table.from_pandas(vocab, preserve_index=False), os.path.join(stats_dir, "vocab.parquet"))
        atomic_write_json(os.path.join(stats_dir, "meta.json"), meta)
        self.timings["stats"] = time.perf_counter() - t0
        guard.commit(**meta, vocab_size=len(vocab))
        return stats_dir

    # ---------- stage 5: postings ----------
    def build_postings(self) -> str:
        dt_dir = os.path.join(self.out_dir, "doc_terms")
        stats_dir = os.path.join(self.out_dir, "stats")
        postings_dir = os.path.join(self.out_dir, "postings")
        guard = StageGuard(postings_dir, self.cfg_hash)
        if guard.done():
            return postings_dir
        t0 = time.perf_counter()
        import pyarrow.parquet as pq

        meta = read_json(os.path.join(stats_dir, "meta.json"))
        if "bucket_counts" in meta:  # shuffle dedup: doc ids still deferred
            bucket_counts = np.asarray(meta["bucket_counts"], dtype=np.int64)
            offsets = np.zeros(self.cfg.num_buckets, dtype=np.int64)
            np.cumsum(bucket_counts[:-1], out=offsets[1:])
            offsets += self.doc_id_base
            offsets_ref = ray.put(offsets)
        else:  # broadcast dedup already assigned doc ids
            offsets_ref = None

        doc_terms = ray.data.read_parquet(dt_dir)
        if self.cfg.encoder == "neural":
            weight_mode = "q8" if self.cfg.neural_value_dtype == "q8" else "f32"
        else:
            weight_mode = "tf"
        kernel = functools.partial(
            build_shard_index, postings_dir=postings_dir, cfg=self.cfg, weight_mode=weight_mode
        )
        if self.cfg.encoder == "neural" or self.cfg.vocab_mode == "hashed":
            # doc_terms already carries int term ids (neural vocab ids or
            # hashed vocab) — no vocab string mapping stage at all
            sharded = doc_terms.map_batches(
                assign_ids_and_shard,
                fn_kwargs={"cfg": self.cfg, "offsets_ref": offsets_ref},
                batch_format="pyarrow",
                batch_size=self.cfg.read_batch_size,
            )
        else:
            terms = pq.read_table(os.path.join(stats_dir, "vocab.parquet"), columns=["term"]).column("term")
            vocab_terms_ref = ray.put(np.asarray(terms.to_pylist(), dtype=object))
            sharded = doc_terms.map_batches(
                map_term_ids,
                fn_kwargs={"cfg": self.cfg, "vocab_terms_ref": vocab_terms_ref, "offsets_ref": offsets_ref},
                batch_format="pyarrow",
                batch_size=self.cfg.read_batch_size,
            )
        lineage = sharded.groupby("shard").map_groups(kernel, batch_format="pyarrow")
        lineage_df = lineage.to_pandas()
        self.timings["postings"] = time.perf_counter() - t0
        atomic_write_json(
            os.path.join(postings_dir, "_LINEAGE.json"),
            {"shards": lineage_df.sort_values("part_id").to_dict("records")},
        )
        guard.commit(
            n_shards=int(len(lineage_df)),
            nnz=int(lineage_df["nnz"].sum()),
            skipped_shards=int(lineage_df["skipped"].sum()),
        )
        return postings_dir

    def _input_rows(self, input_paths) -> int:
        import pyarrow.parquet as pq

        paths = input_paths if isinstance(input_paths, (list, tuple)) else [input_paths]
        total = 0
        for p in paths:
            files = (
                [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
                if os.path.isdir(p)
                else [p]
            )
            total += sum(pq.read_metadata(f).num_rows for f in files)
        return total

    def _stage_bytes(self) -> dict[str, int]:
        """Parquet bytes on disk per stage directory — what each stage
        wrote, whether it ran now or was skipped on resume."""
        out = {}
        for stage in ("doc_terms", "stats", "postings"):
            d = os.path.join(self.out_dir, stage)
            names = os.listdir(d) if os.path.isdir(d) else []
            out[stage] = sum(os.path.getsize(os.path.join(d, f)) for f in names if f.endswith(".parquet"))
        return out

    def _build_empty(self) -> None:
        """Zero-row input: a valid empty index (empty vocab + stats, no
        postings shards) so downstream readers degrade to empty results."""
        stats_dir = os.path.join(self.out_dir, "stats")
        os.makedirs(stats_dir, exist_ok=True)
        if self.cfg.encoder == "neural":
            vocab = pa.table({"term_id": pa.array([], type=pa.int32()), "df": pa.array([], type=pa.int64())})
        else:
            vocab = pa.table(
                {
                    "term": pa.array([], type=pa.string()),
                    "term_id": pa.array([], type=pa.int64()),
                    "df": pa.array([], type=pa.int64()),
                }
            )
        write_index_table(vocab, os.path.join(stats_dir, "vocab.parquet"))
        atomic_write_json(
            os.path.join(stats_dir, "meta.json"),
            {"n_docs": 0, "avgdl": 0.0, "nnz": 0, "encoder": self.cfg.encoder},
        )
        postings_dir = os.path.join(self.out_dir, "postings")
        os.makedirs(postings_dir, exist_ok=True)
        atomic_write_json(os.path.join(postings_dir, "_LINEAGE.json"), {"shards": []})

    def build(self, input_paths) -> dict:
        t0 = time.perf_counter()
        if self._input_rows(input_paths) == 0:
            self._build_empty()
            summary = {
                "out_dir": self.out_dir,
                "config_hash": self.cfg_hash,
                "wall_time_s": round(time.perf_counter() - t0, 3),
                "timings": {},
                "bytes": self._stage_bytes(),
                "n_docs": 0,
                "avgdl": 0.0,
                "nnz": 0,
                "encoder": self.cfg.encoder,
            }
            atomic_write_json(os.path.join(self.out_dir, "_MANIFEST.json"), summary)
            return summary
        self.build_doc_terms(input_paths)
        self.build_stats()
        self.build_postings()
        total = time.perf_counter() - t0
        meta = read_json(os.path.join(self.out_dir, "stats", "meta.json")) or {}
        summary = {
            "out_dir": self.out_dir,
            "config_hash": self.cfg_hash,
            "wall_time_s": round(total, 3),
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "bytes": self._stage_bytes(),
            **meta,
        }
        atomic_write_json(os.path.join(self.out_dir, "_MANIFEST.json"), summary)
        return summary




def build_index(
    input_paths,
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    verify_extraction: bool = False,
    doc_id_base: int = 0,
) -> dict:
    return IndexBuilder(out_dir, cfg, verify_extraction, doc_id_base=doc_id_base).build(input_paths)
