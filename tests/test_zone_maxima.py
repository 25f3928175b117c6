"""Block-max zone bounds derived at read time.

Shard builds used to store the per-(term, zone) max-impact table as two
postings columns (``zone_ids``, ``zone_maxs``); readers now derive it on
the first forced WAND query with ``search.zone_maxima``.  These tests keep
the build-time kernel as the reference and pin the derived table to it bit
for bit, check that tombstoning drops the cached table, and that indexes
written with the two columns still open and answer identically."""

import dataclasses
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from splade_ray.config import EngineConfig
from splade_ray.fixtures import generate_queries
from splade_ray.oracle import bm25_idf
from splade_ray.pipelines.search import IndexReader, ShardedSearcher, zone_maxima


def _build_time_zones(p_tid, p_local, w, zone_docs):
    """Reference: the zone kernel the shard build ran when it stored the
    table — flat postings sorted by (term, doc asc) → (list offsets,
    zone ids, zone maxima) of the ``zone_ids``/``zone_maxs`` columns."""
    uniq_tids = np.unique(p_tid)
    nnz = p_tid.size
    z_offs = np.zeros(uniq_tids.size + 1, dtype=np.int32)
    if nnz:
        zone = p_local.astype(np.int64) // zone_docs
        change = np.empty(nnz, dtype=bool)
        change[0] = True
        np.logical_or(np.diff(p_tid) != 0, np.diff(zone) != 0, out=change[1:])
        zstarts = np.nonzero(change)[0]
        zone_maxs = np.maximum.reduceat(w, zstarts)
        zone_ids = zone[zstarts].astype(np.int32)
        z_offs[1:] = np.searchsorted(p_tid[zstarts], uniq_tids, side="right").astype(np.int32)
    else:
        zone_maxs = np.zeros(0, dtype=np.float64)
        zone_ids = np.zeros(0, dtype=np.int32)
    return z_offs, zone_ids, zone_maxs


def _build_time_bm25(sh, reader, cfg):
    """Reference: the BM25 impact the shard build computed from the build
    stats (global df, N, avgdl) and integer doc lengths."""
    p_tid = np.repeat(sh.term_ids, np.diff(sh.term_ptr))
    idf = bm25_idf(reader.df[p_tid], reader.n_docs)
    tf_f = sh.post_tf.astype(np.int64).astype(np.float64)
    dl = sh.dl.astype(np.int32)
    return idf * tf_f * (cfg.k1 + 1.0) / (tf_f + cfg.k1 * (1.0 - cfg.b + cfg.b * dl[sh.post_local] / reader.avgdl))


def _assert_bit_identical(sh, w_ref):
    ref_offs, ref_ids, ref_max = _build_time_zones(
        np.repeat(sh.term_ids, np.diff(sh.term_ptr)), sh.post_local, w_ref, sh.zone_docs
    )
    zone_ptr, zids, zmax = sh._zone_maxima()
    np.testing.assert_array_equal(zone_ptr, ref_offs)
    np.testing.assert_array_equal(zids, ref_ids)
    assert zmax.dtype == np.float64
    assert zmax.tobytes() == np.asarray(ref_max, np.float64).tobytes()
    assert zmax.size > 0


def _views(index_dir, cfg):
    """(per-shard views, consolidated view) of one index under ``cfg``."""
    per_shard = IndexReader(index_dir, cfg, consolidate=False)
    merged = IndexReader(index_dir, cfg)
    assert len(per_shard.shards) > 1 and len(merged.shards) == 1
    return per_shard, merged


@pytest.mark.parametrize("zone_docs", [125, 1024], ids=["aligned", "misaligned"])
def test_bm25_zones_equal_build_kernel(built_index, zone_docs):
    """BM25 tf postings: per-shard views and the consolidated view, with
    zones that divide the 500-doc shards (125) and zones that straddle
    shard boundaries (1024)."""
    index_dir, small_cfg = built_index
    cfg = dataclasses.replace(small_cfg, zone_docs=zone_docs)
    for reader in _views(index_dir, cfg):
        for sh in reader.shards:
            _assert_bit_identical(sh, _build_time_bm25(sh, reader, cfg))


def test_lm_dirichlet_zones_equal_build_kernel(built_index):
    """A read-time similarity: the table is the kernel over the recomputed
    LM-Dirichlet weights, per shard and consolidated."""
    index_dir, small_cfg = built_index
    cfg = dataclasses.replace(small_cfg, scoring="lm_dirichlet")
    for reader in _views(index_dir, cfg):
        for sh in reader.shards:
            _assert_bit_identical(sh, sh.post_w.copy())


@pytest.mark.parametrize("value_dtype", ["f32", "q8"])
def test_neural_zones_equal_build_kernel(ray_session, web_pages_path, tmp_path, value_dtype):
    """Neural impacts (stored float32, or uint8 codes dequantized), with the
    default 1024-doc zones over 500-doc shards."""
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.merge import decode_postings_table

    cfg = EngineConfig(shard_size=500, num_buckets=16, encoder="neural", neural_value_dtype=value_dtype).validate()
    index_dir = str(tmp_path / "nidx")
    build_index(web_pages_path, index_dir, cfg)
    per_shard, merged = _views(index_dir, cfg)
    for sid, sh in enumerate(per_shard.shards):
        post = pq.read_table(os.path.join(index_dir, "postings", f"shard-{sid:05d}.postings.parquet"))
        _, _, _, vals, mode = decode_postings_table(post)
        assert mode == value_dtype
        w = vals.astype(np.float64) * (cfg.q8_scale / 255.0) if mode == "q8" else vals.astype(np.float64)
        _assert_bit_identical(sh, w)
    _assert_bit_identical(merged.shards[0], merged.shards[0].post_w.copy())


def test_mask_deletes_drops_cached_zones(built_index):
    """Forced WAND derives and caches the table; tombstoning the query's
    top hits must drop it, so the next forced WAND bounds with the zeroed
    weights — and still equals exhaustive."""
    index_dir, cfg = built_index
    reader = IndexReader(index_dir, cfg)
    (sh,) = reader.shards
    texts = generate_queries(8)["text"].to_pylist()
    encoded = [reader.encode_query(t) for t in texts]
    for qtids, qw in encoded:
        ex = sh.score_exhaustive(qtids, qw, 10)
        assert sh.score_wand(qtids, qw, 10, min_zone_mult=0)[0].tolist() == ex[0].tolist()
    before = sh._zone_maxima()
    assert sh._zone_maxima() is before  # cached between queries
    top = sorted({h[2] for t in texts for h in reader.search(t, 3)})
    assert sh.mask_deletes(pa.array(top, type=pa.string())) == len(top)
    for qtids, qw in encoded:
        ex = sh.score_exhaustive(qtids, qw, 10)
        pr = sh.score_wand(qtids, qw, 10, min_zone_mult=0)
        assert pr[0].tolist() == ex[0].tolist()
        np.testing.assert_allclose(pr[1], ex[1], rtol=1e-12)
    after = sh._zone_maxima()
    fresh = zone_maxima(sh.term_ptr, sh.post_local, sh.post_w, sh.zone_docs)
    for got, want in zip(after, fresh):
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(before[2], after[2])


def test_index_with_stored_zone_columns_answers_identically(built_index, tmp_path):
    """An index written with the two zone columns (the older postings
    format) opens and answers exactly like the same index without them:
    default search, forced WAND per shard, and sharded search."""
    index_dir, cfg = built_index
    reader = IndexReader(index_dir, cfg, consolidate=False)
    old_dir = str(tmp_path / "with_zone_columns")
    shutil.copytree(index_dir, old_dir)
    for sid, sh in enumerate(reader.shards):
        path = os.path.join(old_dir, "postings", f"shard-{sid:05d}.postings.parquet")
        post = pq.read_table(path)
        offs, zids, zmax = _build_time_zones(
            np.repeat(sh.term_ids, np.diff(sh.term_ptr)), sh.post_local, _build_time_bm25(sh, reader, cfg), cfg.zone_docs
        )
        post = post.append_column("zone_ids", pa.ListArray.from_arrays(pa.array(offs), pa.array(zids)))
        post = post.append_column("zone_maxs", pa.ListArray.from_arrays(pa.array(offs), pa.array(zmax)))
        pq.write_table(post, path)
    assert "zone_maxs" in pq.read_schema(os.path.join(old_dir, "postings", "shard-00000.postings.parquet")).names

    texts = generate_queries(12)["text"].to_pylist()
    new, old = IndexReader(index_dir, cfg), IndexReader(old_dir, cfg)
    old_shards = IndexReader(old_dir, cfg, consolidate=False)
    for text in texts:
        want = new.search(text, 10)
        assert old.search(text, 10) == want, text
        assert old.search(text, 10, method="wand") == want, text
        qtids, qw = new.encode_query(text)
        for a, b in zip(reader.shards + new.shards, old_shards.shards + old.shards):
            pa_, pb = a.score_wand(qtids, qw, 10, min_zone_mult=0), b.score_wand(qtids, qw, 10, min_zone_mult=0)
            assert pa_[0].tolist() == pb[0].tolist(), text
            assert pa_[1].tobytes() == pb[1].tobytes(), text
    ss = ShardedSearcher(old_dir, cfg, num_actors=2)
    try:
        for text in texts:
            assert ss.search(text, 10) == new.search(text, 10), text
            assert ss.search(text, 10, method="wand") == new.search(text, 10), text
    finally:
        ss.shutdown()
