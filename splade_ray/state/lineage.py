"""Per-partition lineage + resumable-stage manifests (north rule).

The reference has no resume for encode/index — only Lightning training
checkpoints (``/root/reference/script/train.py:122-129``); its shard
manifests (``src/indexing/sparse_index.py:437-452``) record counts but are
never used to skip work.  This engine makes every build stage idempotent and
skippable:

- each stage directory gets a ``_SUCCESS.json`` recording the config hash,
  row counts and wall time; a re-run with the same config hash skips the
  stage entirely;
- the postings stage additionally writes one lineage record per shard
  (``{part_id, input_rows, nnz, checksum, wall_time_s}``); a re-run rebuilds
  only shards whose files or checksums are missing/stale.

All writes are atomic: temp file + ``os.replace``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from typing import Any


def config_hash(cfg) -> str:
    payload = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def atomic_write_json(path: str, obj: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True, default=str)
    os.replace(tmp, path)


def read_json(path: str) -> Any | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


class StageGuard:
    """Skip-or-run guard for one build stage directory."""

    def __init__(self, stage_dir: str, cfg_hash: str):
        self.stage_dir = stage_dir
        self.cfg_hash = cfg_hash
        self.success_path = os.path.join(stage_dir, "_SUCCESS.json")
        self._t0 = time.perf_counter()

    def done(self) -> dict | None:
        """Return the prior success record iff this stage already completed
        under the same config hash (=> safe to skip)."""
        rec = read_json(self.success_path)
        if rec is not None and rec.get("config_hash") == self.cfg_hash:
            return rec
        return None

    def commit(self, **extra) -> dict:
        rec = {
            "config_hash": self.cfg_hash,
            "wall_time_s": round(time.perf_counter() - self._t0, 3),
            "completed_at": time.time(),
            **extra,
        }
        atomic_write_json(self.success_path, rec)
        return rec


def postings_shard_ids(postings_dir: str) -> list[int]:
    """Ascending ids of the shards whose postings file is in ``postings_dir``."""
    return sorted(
        int(m.group(1))
        for f in os.listdir(postings_dir)
        if (m := re.match(r"shard-(\d+)\.postings\.parquet$", f))
    )


def shard_manifest_path(postings_dir: str, shard_id: int) -> str:
    return os.path.join(postings_dir, "manifest", f"shard-{shard_id:05d}.json")


def shard_is_valid(postings_dir: str, shard_id: int, expect_rows: int, expect_fwd: bool | None = None) -> bool:
    """True iff shard ``shard_id``'s files exist and its lineage record
    matches the expected input row count (same input ⇒ same output).
    ``expect_fwd`` additionally pins the forward-stream flag, so toggling
    ``store_forward`` re-materializes shards instead of skipping stale
    ones."""
    rec = read_json(shard_manifest_path(postings_dir, shard_id))
    if rec is None or rec.get("input_rows") != expect_rows:
        return False
    if expect_fwd is not None and bool(rec.get("fwd", False)) != expect_fwd:
        return False
    for f in rec.get("files", []):
        p = os.path.join(postings_dir, f)
        if not os.path.exists(p):
            return False
    return True
