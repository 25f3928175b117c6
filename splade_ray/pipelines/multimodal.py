"""Multimodal column plumbing: opaque binary payloads + typed metadata.

The sealed container has no image/audio codecs, so the *decode kernels* are
stubbed two ways (per the build brief):

- ``decoder="real"`` raises ``NotImplementedError`` — the marked slot where
  Pillow / torchaudio / PyAV decode goes on a real cluster;
- ``decoder="fake"`` (default in tests) parses this module's deterministic
  synthetic payload header and derives features from the payload bytes —
  so the *Ray-side plumbing* (schema, stage signature, batch sizing,
  output layout) is fully real and tested.

Stages run as Ray Data tasks (their state is configuration, built once on
the driver) with small batch sizes because each row carries a large
binary payload (memory-aware batching: large binary payloads need small
batches).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ray.data import Dataset

_MAGIC = b"SYNB"


def synth_media_table(n: int, kind: str = "image", seed: int = 5, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media table: (media_id, kind, payload: binary,
    width, height, duration_ms metadata columns).  Metadata AND payload
    body are closed-form arithmetic in (media_id, byte position) — no RNG
    anywhere — so a SQL oracle can regenerate everything the fake decoder
    derives from the bytes (per-chunk means)."""
    ids = np.arange(n, dtype=np.int64)
    widths = (64 + (ids * 211) % 1856).astype(np.int32)
    heights = (64 + (ids * 131) % 1016).astype(np.int32)
    durations = (500 + (ids * 977) % 59_500).astype(np.int32)
    j = np.arange(payload_bytes, dtype=np.int64)
    payloads = []
    for i in range(n):
        header = _MAGIC + struct.pack("<iii", int(widths[i]), int(heights[i]), int(durations[i]))
        body = ((int(ids[i]) * 131 + j * 31 + 7) % 256).astype(np.uint8).tobytes()
        payloads.append(header + body)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "kind": pa.array([kind] * n, type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def _parse_header(payload: bytes) -> tuple[int, int, int]:
    if payload[:4] != _MAGIC:
        raise ValueError("unknown payload format")
    return struct.unpack("<iii", payload[4:16])


class MediaDecodeStage:
    """map_batches(pyarrow) task: (media_id, payload) → decoded metadata +
    a fixed-dim feature vector.  ``feature_dim`` floats per row.

    ``decoder="real"`` is a WORKING Pillow-backed image decoder behind an
    import-try (this container has no codec libraries, so constructing it
    here raises a clear ImportError; the skip-if-no-PIL test exercises it
    where Pillow exists).  The decode cost lives in ``__call__`` per batch;
    ``__init__`` only checks that Pillow imports."""

    def __init__(self, decoder: str = "fake", feature_dim: int = 16):
        if decoder not in ("fake", "real"):
            raise ValueError(decoder)
        self.decoder = decoder
        self.feature_dim = feature_dim
        if decoder == "real":
            try:
                from PIL import Image  # noqa: F401
            except ImportError as e:
                raise ImportError(
                    "decoder='real' requires Pillow, which is not installed in "
                    "this container; use decoder='fake' for plumbing tests"
                ) from e
            self._pil_image = Image

    def _decode_real(self, payload: bytes) -> tuple[int, int, int, np.ndarray]:
        import io

        img = self._pil_image.open(io.BytesIO(payload)).convert("RGB")
        arr = np.asarray(img, dtype=np.float64)
        # features: per-cell mean intensity over a fixed grid — fixed dim
        # regardless of image size
        g = int(np.sqrt(self.feature_dim))
        h, w = arr.shape[:2]
        cells = [
            arr[i * h // g : (i + 1) * h // g, j * w // g : (j + 1) * w // g].mean()
            if (i + 1) * h // g > i * h // g and (j + 1) * w // g > j * w // g
            else 0.0
            for i in range(g)
            for j in range(g)
        ]
        feats = np.zeros(self.feature_dim)
        feats[: len(cells)] = cells
        return w, h, 0, feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, durs, feats = [], [], [], []
        for payload in batch.column("payload").to_pylist():
            if self.decoder == "real":
                w, h, d, f = self._decode_real(payload)
            else:
                w, h, d = _parse_header(payload)
                body = np.frombuffer(payload[16:], dtype=np.uint8)
                # deterministic "features": per-chunk means of payload bytes
                chunks = np.array_split(body.astype(np.float64), self.feature_dim)
                f = np.asarray([c.mean() if c.size else 0.0 for c in chunks])
            widths.append(w)
            heights.append(h)
            durs.append(d)
            feats.append(f)
        offs = np.arange(0, (len(feats) + 1) * self.feature_dim, self.feature_dim, dtype=np.int32)
        flat = np.concatenate(feats) if feats else np.zeros(0)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "width": pa.array(widths, type=pa.int32()),
                "height": pa.array(heights, type=pa.int32()),
                "duration_ms": pa.array(durs, type=pa.int32()),
                "features": pa.ListArray.from_arrays(pa.array(offs), pa.array(flat)),
            }
        )


class FrameSampleStage:
    """Video frame sampling plumbing: (media_id, payload, duration) → one
    row per sampled frame timestamp (flat_map-shaped output)."""

    def __init__(self, fps: float = 1.0, max_frames: int = 8, decoder: str = "fake"):
        if decoder == "real":
            raise NotImplementedError("real frame decode needs PyAV; use decoder='fake'")
        self.fps = fps
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ts_ms, fidx = [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(), batch.column("payload").to_pylist()):
            _, _, dur = _parse_header(payload)
            n = min(self.max_frames, max(1, int(dur / 1000.0 * self.fps)))
            stamps = np.linspace(0, dur, n, endpoint=False).astype(np.int64)
            ids.extend([mid] * n)
            ts_ms.extend(stamps.tolist())
            fidx.extend(range(n))
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(fidx, type=pa.int32()),
                "ts_ms": pa.array(ts_ms, type=pa.int64()),
            }
        )


def decode_media(ds: Dataset, batch_size: int = 64) -> Dataset:
    """Small batches: binary payload rows are wide, so batch bytes (not
    row count) set the memory envelope."""
    return ds.map_batches(MediaDecodeStage(decoder="fake"), batch_format="pyarrow", batch_size=batch_size)


def sample_frames(ds: Dataset, fps: float = 1.0, batch_size: int = 64) -> Dataset:
    return ds.map_batches(FrameSampleStage(fps=fps), batch_format="pyarrow", batch_size=batch_size)
