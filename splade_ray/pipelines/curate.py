"""Resumable curated-corpus writer — the north rule's per-partition
lineage + checkpoint-resume contract applied to the data-curation output
path (the index build already has it; this gives the training-data
pipeline the same guarantee).

Shape: read → fused one-pass curation keep/score (``CurationStage``) →
ONE exchange on ``doc_id % n_partitions`` → each partition's kernel writes
its own parquet file (temp + ``os.replace``, atomic) plus a lineage JSON
``{config_hash, rows, file, wall_time_s}``.  A re-run under the same
config skips completed partitions BEFORE the exchange: the partition
filter runs inside the scan's ``map_batches``, so finished partitions'
rows never leave storage — at 100 TB a crash-resume re-reads only the
missing partitions' key ranges instead of re-shuffling the corpus.

Partition key is ``doc_id % n_partitions`` (SQL-trivial, so the driver
oracle can replay the full written output including partition ids).

Storage contract: ``out_dir`` must be visible to every worker under the
same path — a shared filesystem (NFS/FUSE-mounted object store) on a
multi-node cluster, or any local path single-node.  The parquet + lineage
writes happen INSIDE Ray tasks on whichever node runs the partition's
group; without a shared mount, partitions land on different nodes' local
disks and ``read_curated`` / crash-resume silently miss them.  (On object
stores without atomic rename, route the data files through
``Dataset.write_parquet`` and keep only the lineage JSONs here.)
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..state.lineage import atomic_write_json, read_json
from .textops import CurationStage

_SIGNAL_COLS = ["n_tokens", "dup_token_frac", "stopword_ratio", "max_run_len"]


def _cfg_hash(n_partitions: int, thresholds: dict) -> str:
    payload = json.dumps({"n_partitions": n_partitions, **thresholds}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _lineage_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "lineage", f"part-{pid:05d}.json")


def _part_valid(out_dir: str, pid: int, cfg_hash: str) -> bool:
    rec = read_json(_lineage_path(out_dir, pid))
    if rec is None or rec.get("config_hash") != cfg_hash:
        return False
    f = rec.get("file")
    return f is None or os.path.exists(os.path.join(out_dir, f))


def curate_corpus(
    input_path: str,
    out_dir: str,
    n_partitions: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    **thresholds,
) -> dict:
    """Run (or resume) the curated-corpus write.  Returns a summary dict
    ``{config_hash, n_partitions, rows_kept, built, skipped}``."""
    cfg_hash = _cfg_hash(n_partitions, thresholds)
    os.makedirs(os.path.join(out_dir, "parts"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "lineage"), exist_ok=True)
    todo = np.array(
        [pid for pid in range(n_partitions) if not _part_valid(out_dir, pid, cfg_hash)], dtype=np.int64
    )
    built = 0
    if todo.size:
        todo_sorted = np.sort(todo)

        def assign(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            pid = ids % n_partitions
            # resume pushdown: completed partitions' rows are dropped at
            # the scan, before any curation compute or exchange
            pos = np.searchsorted(todo_sorted, pid)
            pos_c = np.minimum(pos, todo_sorted.size - 1)
            keep = todo_sorted[pos_c] == pid
            return batch.append_column("part_id", pa.array(pid)).filter(pa.array(keep))

        def write_part(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return pa.table({"part_id": pa.array([], type=pa.int64()), "rows_kept": pa.array([], type=pa.int64())})
            t0 = time.perf_counter()
            pid = int(g.column("part_id")[0].as_py())
            order = pa.compute.sort_indices(g, sort_keys=[(id_col, "ascending")])
            g = g.take(order)
            fname = os.path.join("parts", f"part-{pid:05d}.parquet")
            full = os.path.join(out_dir, fname)
            tmp = f"{full}.tmp.{os.getpid()}"
            pq.write_table(g.drop_columns(["part_id"]), tmp)
            os.replace(tmp, full)
            atomic_write_json(
                _lineage_path(out_dir, pid),
                {
                    "config_hash": cfg_hash,
                    "rows": g.num_rows,
                    "file": fname,
                    "wall_time_s": round(time.perf_counter() - t0, 4),
                },
            )
            return pa.table({"part_id": pa.array([pid]), "rows_kept": pa.array([g.num_rows])})

        ds = rd.read_parquet(input_path, columns=[id_col, text_col])
        curated = ds.map_batches(assign, batch_format="pyarrow").map_batches(
            CurationStage(text_col=text_col, id_col=id_col, passthrough=(text_col, "part_id"), **thresholds),
            batch_format="pyarrow",
        )
        from .dedup import drop_empty_blocks

        done = drop_empty_blocks(
            curated.groupby("part_id").map_groups(write_part, batch_format="pyarrow")
        ).to_pandas()
        built = int(len(done))
        written = set(done["part_id"].tolist()) if built else set()
        # partitions whose every row was filtered out produce no group —
        # record them so resume doesn't redo them forever
        for pid in todo_sorted.tolist():
            if pid not in written:
                atomic_write_json(
                    _lineage_path(out_dir, pid),
                    {"config_hash": cfg_hash, "rows": 0, "file": None, "wall_time_s": 0.0},
                )
    recs = [read_json(_lineage_path(out_dir, pid)) for pid in range(n_partitions)]
    summary = {
        "config_hash": cfg_hash,
        "n_partitions": n_partitions,
        "rows_kept": int(sum(r["rows"] for r in recs)),
        "built": built,
        "skipped": n_partitions - int(todo.size),
    }
    atomic_write_json(os.path.join(out_dir, "_SUCCESS.json"), summary)
    return summary


def read_curated(out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """Read every written partition back as one Arrow table (small-result
    helper; at scale point ``ray.data.read_parquet`` at ``out_dir/parts``)."""
    parts_dir = os.path.join(out_dir, "parts")
    files = sorted(os.path.join(parts_dir, f) for f in os.listdir(parts_dir) if f.endswith(".parquet"))
    if not files:
        return pa.table({})
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])
