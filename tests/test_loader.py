"""The serving-view loader (``ShardIndex.consolidated``) against the former
two-step load, kept here as the reference: a per-file ``ShardIndex`` load
of each shard (deletes masked per shard), then a scatter-merge of the
loaded shards into one view.  Every view array must be bit-identical, for
the consolidated view and for the per-shard views, across weight modes,
similarities, vocab modes, deletes, shard subsets, a global-stats
override and degenerate shard counts.  Also pins ``IndexReader.load_stats``,
the consolidation budget and the process-wide loader pool behind ``_pmap``."""

import dataclasses
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from splade_ray.codec import binary_concat as _binary_concat, varint_decode
from splade_ray.config import EngineConfig
from splade_ray.oracle import bm25_idf
from splade_ray.pipelines import search as S
from splade_ray.pipelines.search import IndexReader, ShardIndex, apply_deletes
from splade_ray.state.lineage import postings_shard_ids, read_json

SCORINGS = ("bm25", "lm_dirichlet", "lm_jm", "classic", "dfr_inl2", "ib_ll")
ARRAYS = (
    "term_ids", "term_ptr", "post_local", "post_w", "post_tf",
    "doc_ids", "dl", "fwd_stream", "fwd_ptr", "deleted_local",
)


class RefShard:
    """The former per-file shard load and scatter-merge, verbatim in its
    arithmetic (its varint decoder is pinned to the former one, bit for
    bit, by tests/test_codec.py)."""

    mask_deletes = ShardIndex.mask_deletes

    def __init__(self, postings_path, docs_path, df_global, n_docs, avgdl, cfg, cf_global=None, sum_dl=None):
        self.cfg = cfg
        post = pq.read_table(postings_path)
        docs = pq.read_table(docs_path)
        self.doc_ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
        self.urls = docs.column("url").combine_chunks()
        self.dl = docs.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        self.n_local = len(self.doc_ids)
        if "fwd" in docs.column_names:
            raw = _binary_concat(docs.column("fwd").combine_chunks())
            self.fwd_stream = np.frombuffer(raw, dtype=np.uint64)
            self.fwd_ptr = np.zeros(self.n_local + 1, dtype=np.int64)
            np.cumsum(self.dl.astype(np.int64), out=self.fwd_ptr[1:])
        else:
            self.fwd_stream = None
            self.fwd_ptr = None
        self.term_ids = post.column("term_id").to_numpy(zero_copy_only=False)
        seg_lens = post.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        self.term_ptr = np.zeros(seg_lens.size + 1, dtype=np.int64)
        np.cumsum(seg_lens, out=self.term_ptr[1:])
        nnz = int(self.term_ptr[-1])
        deltas = varint_decode(_binary_concat(post.column("docs").combine_chunks()), nnz).astype(np.int64)
        csum = np.cumsum(deltas)
        seg_starts = self.term_ptr[:-1]
        if nnz:
            prior = np.where(seg_starts > 0, csum[np.maximum(seg_starts - 1, 0)], 0)
            self.post_local = csum - np.repeat(prior, seg_lens)
        else:
            self.post_local = np.zeros(0, np.int64)
        self.avgdl = float(avgdl)
        self.post_tf = None

        def per_term(stat):
            if isinstance(stat, tuple):
                tid_index, vals = stat
                return vals[np.searchsorted(tid_index, self.term_ids)]
            return stat[self.term_ids]

        if "tfs" in post.column_names:
            tf = varint_decode(_binary_concat(post.column("tfs").combine_chunks()), nnz).astype(np.float64)
            self.post_tf = tf.astype(np.uint32)
            dl_post = self.dl[self.post_local]
            if cfg.scoring in ("lm_dirichlet", "lm_jm"):
                cf_post = np.repeat(per_term(cf_global), seg_lens).astype(np.float64)
                if cfg.scoring == "lm_jm":
                    lam = float(cfg.lam)
                    self.post_w = np.log1p((1.0 - lam) * tf * float(sum_dl) / (lam * cf_post * dl_post))
                else:
                    mu = float(cfg.mu)
                    w = np.log1p(tf * float(sum_dl) / (mu * cf_post)) + np.log(mu / (dl_post + mu))
                    self.post_w = np.maximum(w, 0.0)
            else:
                df_post = np.repeat(per_term(df_global), seg_lens).astype(np.float64)
                if cfg.scoring == "classic":
                    idf_c = 1.0 + np.log((float(n_docs) + 1.0) / (df_post + 1.0))
                    self.post_w = np.sqrt(tf) * idf_c * idf_c / np.sqrt(dl_post)
                elif cfg.scoring == "dfr_inl2":
                    tfn = tf * np.log2(1.0 + float(cfg.dfr_c) * avgdl / dl_post)
                    inf = tfn * np.log2((float(n_docs) + 1.0) / (df_post + 0.5))
                    self.post_w = inf / (tfn + 1.0)
                elif cfg.scoring == "ib_ll":
                    tfn = tf * np.log2(1.0 + float(cfg.dfr_c) * avgdl / dl_post)
                    lam_w = (df_post + 1.0) / (float(n_docs) + 1.0)
                    self.post_w = np.log1p(tfn / lam_w)
                else:
                    idf = bm25_idf(df_post, n_docs)
                    self.post_w = idf * tf * (cfg.k1 + 1.0) / (
                        tf + cfg.k1 * (1.0 - cfg.b + cfg.b * dl_post / avgdl)
                    )
        elif "weights_q8" in post.column_names:
            codes = np.frombuffer(_binary_concat(post.column("weights_q8").combine_chunks()), dtype=np.uint8)
            self.post_w = codes.astype(np.float64) * (cfg.q8_scale / 255.0)
        else:
            raw = _binary_concat(post.column("weights").combine_chunks())
            self.post_w = np.frombuffer(raw, dtype=np.float32).astype(np.float64)
        self.zone_docs = int(cfg.zone_docs)
        self._zones = None
        self.deleted_local = np.zeros(0, np.int64)

    @classmethod
    def merged(cls, shards, cfg):
        self = cls.__new__(cls)
        self.cfg = cfg
        self.doc_ids = np.concatenate([s.doc_ids for s in shards])
        self.urls = pa.concat_arrays([s.urls for s in shards])
        self.dl = np.concatenate([s.dl for s in shards])
        self.n_local = int(self.doc_ids.size)
        if all(s.fwd_stream is not None for s in shards):
            self.fwd_stream = np.concatenate([s.fwd_stream for s in shards])
            self.fwd_ptr = np.zeros(self.n_local + 1, dtype=np.int64)
            np.cumsum(self.dl.astype(np.int64), out=self.fwd_ptr[1:])
        else:
            self.fwd_stream = None
            self.fwd_ptr = None
        doc_offs = np.cumsum([0] + [s.n_local for s in shards][:-1])
        self.deleted_local = np.concatenate([s.deleted_local + off for s, off in zip(shards, doc_offs)]).astype(np.int64)
        all_tids = np.unique(np.concatenate([s.term_ids for s in shards]))
        n_terms = all_tids.size
        L_sum = np.zeros(n_terms, dtype=np.int64)
        shard_rows = []
        for s in shards:
            rows = np.searchsorted(all_tids, s.term_ids)
            shard_rows.append(rows)
            L_sum[rows] += np.diff(s.term_ptr)
        self.term_ids = all_tids
        self.term_ptr = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(L_sum, out=self.term_ptr[1:])
        nnz = int(self.term_ptr[-1])
        self.post_local = np.empty(nnz, dtype=np.int64)
        self.post_w = np.empty(nnz, dtype=np.float64)
        self.avgdl = shards[0].avgdl
        with_tf = all(s.post_tf is not None for s in shards)
        self.post_tf = np.empty(nnz, dtype=np.uint32) if with_tf else None
        run_off = np.zeros(n_terms, dtype=np.int64)
        for si, s in enumerate(shards):
            rows = shard_rows[si]
            seg_lens = np.diff(s.term_ptr)
            dest_start = self.term_ptr[rows] + run_off[rows]
            idx = (
                np.arange(s.post_local.size, dtype=np.int64)
                - np.repeat(s.term_ptr[:-1], seg_lens)
                + np.repeat(dest_start, seg_lens)
            )
            self.post_local[idx] = s.post_local + doc_offs[si]
            self.post_w[idx] = s.post_w
            if with_tf:
                self.post_tf[idx] = s.post_tf
            run_off[rows] += seg_lens
        self.zone_docs = int(cfg.zone_docs)
        self._zones = None
        return self


def reference_views(reader, index_dir, cfg, shard_ids=None, consolidate=True, deletes=None):
    """The views the former load built for ``reader``'s open, from the
    statistics ``reader`` scores with."""
    pdir = os.path.join(index_dir, "postings")
    ids = [s for s in postings_shard_ids(pdir) if shard_ids is None or s in shard_ids]
    shards = [
        RefShard(
            os.path.join(pdir, f"shard-{s:05d}.postings.parquet"),
            os.path.join(pdir, f"shard-{s:05d}.docs.parquet"),
            reader.df, reader.n_docs, reader.avgdl, cfg, cf_global=reader.cf, sum_dl=reader.sum_dl,
        )
        for s in ids
    ]
    if deletes is None:
        deletes = (read_json(os.path.join(index_dir, "deletes.json")) or {}).get("urls")
    if deletes:
        del_arr = pa.array(sorted(set(deletes)), type=pa.string())
        for sh in shards:
            sh.mask_deletes(del_arr)
    if consolidate and len(shards) > 1:
        shards = [RefShard.merged(shards, cfg)]
    return shards


def assert_same_views(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ARRAYS:
            a, b = getattr(g, name), getattr(w, name)
            if b is None:
                assert a is None, name
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert g.urls.equals(w.urls)
        assert (g.n_local, g.avgdl, g.zone_docs) == (w.n_local, w.avgdl, w.zone_docs)


def check_parity(index_dir, cfg, **kwargs) -> IndexReader:
    """Open ``index_dir`` consolidated and per shard; both must equal the
    reference view for view."""
    for consolidate in (True, False):
        reader = IndexReader(index_dir, cfg, consolidate=consolidate, **kwargs)
        want = reference_views(
            reader, index_dir, cfg, kwargs.get("shard_ids"), consolidate, kwargs.get("deletes")
        )
        assert_same_views(reader.shards, want)
    return reader


def _build(web_pages, out, cfg):
    from splade_ray.pipelines.build import build_index

    build_index(web_pages, out, cfg)
    return out


@pytest.fixture(scope="module")
def small_pages(ray_session, tmp_path_factory):
    from splade_ray.fixtures import write_web_pages

    path = str(tmp_path_factory.mktemp("loader") / "web.parquet")
    write_web_pages(path, 600)
    return path


@pytest.mark.parametrize("scoring", SCORINGS)
def test_loader_parity_similarities(built_index, scoring):
    index_dir, cfg = built_index
    reader = check_parity(index_dir, dataclasses.replace(cfg, scoring=scoring))
    assert len(reader.shards) > 1  # the per-shard pass really had several shards


def test_loader_parity_hashed_vocab(small_pages, tmp_path):
    cfg = EngineConfig(shard_size=200, num_buckets=4, vocab_mode="hashed").validate()
    out = _build(small_pages, str(tmp_path / "idx"), cfg)
    assert isinstance(check_parity(out, cfg).df, tuple)


@pytest.mark.parametrize("dtype", ["f32", "q8"])
def test_loader_parity_neural(small_pages, tmp_path, dtype):
    cfg = EngineConfig(shard_size=200, num_buckets=4, encoder="neural", neural_value_dtype=dtype).validate()
    out = _build(small_pages, str(tmp_path / "idx"), cfg)
    reader = check_parity(out, cfg)
    assert reader.shards[0].post_tf is None


def test_loader_parity_store_forward(small_pages, tmp_path):
    cfg = EngineConfig(shard_size=200, num_buckets=4, store_forward=True)
    out = _build(small_pages, str(tmp_path / "idx"), cfg)
    assert check_parity(out, cfg).shards[0].fwd_stream is not None


def test_loader_parity_deletes(built_index, tmp_path):
    index_dir, cfg = built_index
    out = str(tmp_path / "idx")
    shutil.copytree(index_dir, out)
    urls = IndexReader(out, cfg)._url_arr.to_pylist()
    apply_deletes(out, urls[3:900:37] + ["https://not-indexed.example/x"])
    reader = check_parity(out, cfg)
    assert reader.shards[0].deleted_local.size > 1
    check_parity(out, cfg, deletes=urls[::250])  # explicit deletes replace deletes.json


def test_loader_parity_shard_subset(built_index):
    index_dir, cfg = built_index
    check_parity(index_dir, cfg, shard_ids=[1, 3])
    check_parity(index_dir, cfg, shard_ids=[2])


@pytest.mark.parametrize("scoring", ["bm25", "lm_dirichlet"])
def test_loader_parity_global_stats(built_index, scoring):
    index_dir, cfg = built_index
    cfg = dataclasses.replace(cfg, scoring=scoring)
    own = IndexReader(index_dir, cfg)
    union = {
        "n_docs": own.n_docs + 50,
        "avgdl": own.avgdl * 1.25,
        "sum_dl": own.sum_dl + 999,
        "df": own.df + 3,
        "cf": own.cf + 5,
    }
    reader = check_parity(index_dir, cfg, global_stats=union)
    assert reader.n_docs == own.n_docs + 50


def test_loader_parity_one_shard(small_pages, tmp_path):
    cfg = EngineConfig(shard_size=1000, num_buckets=4)
    out = _build(small_pages, str(tmp_path / "idx"), cfg)
    reader = check_parity(out, cfg)
    assert len(reader.shards) == 1 and not reader.load_stats["consolidated"]


def test_loader_parity_zero_shards(ray_session, tmp_path):
    empty = pa.table(
        {
            "url": pa.array([], type=pa.string()),
            "warc_ts": pa.array([], type=pa.timestamp("us")),
            "text": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
        }
    )
    pq.write_table(empty, str(tmp_path / "empty.parquet"))
    cfg = EngineConfig(shard_size=200, num_buckets=4)
    out = _build(str(tmp_path / "empty.parquet"), str(tmp_path / "idx"), cfg)
    reader = check_parity(out, cfg)
    assert reader.shards == []
    assert (reader.load_stats["shards"], reader.load_stats["nnz"]) == (0, 0)


@pytest.mark.parametrize("consolidate", [True, False])
def test_load_stats_invariants(built_index, monkeypatch, consolidate):
    """nnz is the lineage's, and ``shards`` counts the postings files the
    open really read."""
    index_dir, cfg = built_index
    opened = []
    read = S._read_parquet
    monkeypatch.setattr(S, "_read_parquet", lambda path: opened.append(path) or read(path))
    lineage = read_json(os.path.join(index_dir, "postings", "_LINEAGE.json"))["shards"]
    for shard_ids in (None, [0, 2]):
        opened.clear()
        reader = IndexReader(index_dir, cfg, shard_ids=shard_ids, consolidate=consolidate)
        stats = reader.load_stats
        postings = sorted(p for p in opened if p.endswith(".postings.parquet"))
        rows = [r for r in lineage if shard_ids is None or r["part_id"] in shard_ids]
        assert stats["shards"] == len(postings) == len(rows) > 1
        assert stats["nnz"] == sum(r["nnz"] for r in rows) == sum(sh.post_w.size for sh in reader.shards)
        assert stats["postings_bytes"] == sum(os.path.getsize(p) for p in postings)
        assert stats["consolidated"] is consolidate
        assert len(reader.shards) == (1 if consolidate else stats["shards"])
        assert all(stats[k] >= 0.0 for k in ("vocab_s", "read_s", "layout_s", "decode_s"))


def test_consolidation_budget_threshold(built_index):
    """48 B per posting against the budget, decided before any decode: the
    same indexes consolidate as under the former load-then-merge path."""
    index_dir, cfg = built_index
    nnz = IndexReader(index_dir, cfg).load_stats["nnz"]
    at = IndexReader(index_dir, cfg, consolidate_budget_bytes=nnz * 48)
    over = IndexReader(index_dir, cfg, consolidate_budget_bytes=nnz * 48 - 1)
    assert at.load_stats["consolidated"] and len(at.shards) == 1
    assert not over.load_stats["consolidated"] and len(over.shards) == over.load_stats["shards"] > 1
    assert_same_views(over.shards, reference_views(over, index_dir, cfg, consolidate=False))


def test_loader_reads_paths(built_index):
    """Given parquet paths, the loader reads them itself into the same view."""
    index_dir, cfg = built_index
    reader = IndexReader(index_dir, cfg, deletes=[])
    pdir = os.path.join(index_dir, "postings")
    files = [
        (os.path.join(pdir, f"shard-{s:05d}.postings.parquet"), os.path.join(pdir, f"shard-{s:05d}.docs.parquet"))
        for s in postings_shard_ids(pdir)
    ]
    view = ShardIndex.consolidated(
        files, reader.df, reader.n_docs, reader.avgdl, cfg, cf_global=reader.cf, sum_dl=reader.sum_dl
    )
    assert_same_views([view], reader.shards)


@pytest.fixture(scope="module")
def bench_index(ray_session, tmp_path_factory):
    """A 4-shard index in the benchmark's layout (2048-doc shards)."""
    from splade_ray.fixtures import write_web_pages

    root = tmp_path_factory.mktemp("bench_layout")
    cfg = EngineConfig(shard_size=2048, zone_docs=32)
    out = _build(write_web_pages(str(root / "web.parquet"), 8192, seed=3), str(root / "idx"), cfg)
    assert len(postings_shard_ids(os.path.join(out, "postings"))) == 4
    return out, cfg


def _pool_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith(S._POOL_THREAD)}


@pytest.mark.parametrize("consolidate", [True, False])
def test_opens_reuse_one_loader_pool(bench_index, monkeypatch, consolidate):
    """Every shard read and decode of every open runs on the same <= 8
    pool threads: repeated opens start no new threads."""
    index_dir, cfg = bench_index
    seen = {"read": set(), "decode": set()}
    read, decode = S._read_parquet, S.varint_decode

    def read_shard(path):
        if "/postings/shard-" in path:  # not the vocab, which the open reads itself
            seen["read"].add(threading.current_thread())
        return read(path)

    monkeypatch.setattr(S, "_read_parquet", read_shard)
    monkeypatch.setattr(S, "varint_decode", lambda *a: seen["decode"].add(threading.current_thread()) or decode(*a))
    IndexReader(index_dir, cfg, consolidate=consolidate)
    pool = _pool_threads()
    assert 0 < len(pool) <= 8
    for _ in range(9):
        IndexReader(index_dir, cfg, consolidate=consolidate)
    assert _pool_threads() == pool
    assert seen["read"] and seen["decode"]
    assert seen["read"] | seen["decode"] <= pool


def test_nested_pmap_runs_inline():
    """A ``_pmap`` inside a pool item runs on that item's thread; with
    every pool thread busy on an outer item, waiting on the pool instead
    would never finish."""
    out = []

    def outer(i):
        me = threading.current_thread()
        return S._pmap(lambda j: (i, j, threading.current_thread() is me), range(4))

    t = threading.Thread(target=lambda: out.append(S._pmap(outer, range(16))), daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "nested _pmap did not finish"
    assert out == [[[(i, j, True) for j in range(4)] for i in range(16)]]


@pytest.mark.parametrize("stage", ["read", "decode"])
def test_item_error_propagates_and_next_open_works(bench_index, monkeypatch, stage):
    index_dir, cfg = bench_index
    want = IndexReader(index_dir, cfg)
    name = "_read_parquet" if stage == "read" else "varint_decode"
    real, calls = getattr(S, name), []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(f"{stage} failed")
        return real(*args)

    monkeypatch.setattr(S, name, flaky)
    with pytest.raises(OSError, match=f"{stage} failed"):
        IndexReader(index_dir, cfg)
    monkeypatch.setattr(S, name, real)
    assert_same_views(IndexReader(index_dir, cfg).shards, want.shards)


def test_forked_child_starts_without_a_pool():
    """Checked in a fresh interpreter: forking this one, with Ray's
    threads running, is not safe."""
    code = (
        "import os\n"
        "from splade_ray.pipelines import search as S\n"
        "S._pmap(abs, [-1, -2])\n"
        "assert S._POOL is not None\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if S._POOL is None else 3)\n"
        "assert os.waitpid(pid, 0)[1] == 0, 'child inherited the pool'\n"
        "assert S._POOL is not None\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=120)


def test_loader_rejects_fwd_stream_dl_mismatch(small_pages, tmp_path):
    """Forward-stream extents come from ``dl``: a docs table whose lengths
    disagree with its stream raises, also under ``python -O``."""
    cfg = EngineConfig(shard_size=200, num_buckets=4, store_forward=True)
    out = _build(small_pages, str(tmp_path / "idx"), cfg)
    reader = IndexReader(out, cfg)
    pdir = os.path.join(out, "postings")
    post = pq.read_table(os.path.join(pdir, "shard-00000.postings.parquet"))
    docs = pq.read_table(os.path.join(pdir, "shard-00000.docs.parquet"))
    dl = docs.column("dl").to_numpy(zero_copy_only=False).copy()
    dl[0] += 1
    docs = docs.set_column(docs.schema.get_field_index("dl"), "dl", pa.array(dl, docs.schema.field("dl").type))
    with pytest.raises(ValueError, match="fwd stream / dl mismatch"):
        ShardIndex.consolidated([(post, docs)], reader.df, reader.n_docs, reader.avgdl, cfg)
