"""Segment merge: merging two incremental segment builds must reproduce,
table-for-table, the index a single full build produces over the same
corpus (term runs merged, vocab remapped, stats/impacts recomputed)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from splade_ray.config import EngineConfig
from splade_ray.fixtures import vocabulary


def _synth_corpus(n: int) -> pa.Table:
    """Deterministic corpus with zero-padded disjoint urls so that a
    num_buckets=1 full build assigns doc ids in row order — the same ids
    segment-major numbering assigns."""
    vocab = vocabulary()
    urls, texts = [], []
    for i in range(n):
        urls.append(f"https://example.com/{i:06d}")
        words = [vocab[(i * 7 + j * j) % len(vocab)] for j in range(10 + i % 37)]
        texts.append(" ".join(words))
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_000, type=pa.timestamp("us")),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["en"] * n, type=pa.string()),
        }
    )


N, SPLIT = 2000, 1200


def _build_all(tmp, cfg):
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.merge import merge_segments

    corpus = _synth_corpus(N)
    paths = {}
    for name, tbl in (("full", corpus), ("a", corpus.slice(0, SPLIT)), ("b", corpus.slice(SPLIT))):
        p = str(tmp / f"{name}.parquet")
        pq.write_table(tbl, p)
        paths[name] = p
    build_index(paths["full"], str(tmp / "full"), cfg)
    build_index(paths["a"], str(tmp / "segA"), cfg, doc_id_base=0)
    build_index(paths["b"], str(tmp / "segB"), cfg, doc_id_base=SPLIT)
    summary = merge_segments([str(tmp / "segA"), str(tmp / "segB")], str(tmp / "merged"), cfg)
    return tmp, summary


@pytest.fixture(scope="module", params=["bm25", "neural", "neural_q8"])
def built(request, ray_session, tmp_path_factory):
    # shard_size=800: shard 1 (docs 800-1599) spans both segments — the
    # term-run merge path, not just file concatenation.  neural_q8 guards
    # the quantized round-trip: merge must dequantize codes before
    # re-encoding or every weight saturates.
    encoder = "neural" if request.param.startswith("neural") else "bm25"
    vdt = "q8" if request.param == "neural_q8" else "f32"
    cfg = EngineConfig(
        shard_size=800, num_buckets=1, encoder=encoder, neural_value_dtype=vdt
    ).validate()
    tmp = tmp_path_factory.mktemp(f"merge_{request.param}")
    return (*_build_all(tmp, cfg), cfg)


def test_merged_equals_full_tables(built):
    tmp, summary, cfg = built
    assert summary["n_docs"] == N
    fdir, mdir = str(tmp / "full" / "postings"), str(tmp / "merged" / "postings")
    files = sorted(f for f in os.listdir(fdir) if f.endswith(".parquet"))
    assert files == sorted(f for f in os.listdir(mdir) if f.endswith(".parquet"))
    assert any(f.startswith("shard-00001") for f in files)
    for f in files:
        tf, tm = pq.read_table(os.path.join(fdir, f)), pq.read_table(os.path.join(mdir, f))
        assert tf.equals(tm), f


def test_merged_stats_equal_full(built):
    tmp, _, cfg = built
    from splade_ray.state.lineage import read_json

    mf = read_json(str(tmp / "full" / "stats" / "meta.json"))
    mm = read_json(str(tmp / "merged" / "stats" / "meta.json"))
    for k in ("n_docs", "nnz", "encoder"):
        assert mf[k] == mm[k]
    assert mm["avgdl"] == pytest.approx(mf["avgdl"], rel=1e-12)
    vf = pq.read_table(str(tmp / "full" / "stats" / "vocab.parquet"))
    vm = pq.read_table(str(tmp / "merged" / "stats" / "vocab.parquet"))
    assert vf.to_pydict() == vm.to_pydict()


def test_merged_search_parity(built):
    tmp, _, cfg = built
    from splade_ray.pipelines.search import IndexReader

    rf = IndexReader(str(tmp / "full"), cfg)
    rm = IndexReader(str(tmp / "merged"), cfg)
    vocab = vocabulary()
    queries = [f"{vocab[3]} {vocab[40]}", f"{vocab[7]} {vocab[7]} {vocab[11]}", vocab[100]]
    for q in queries:
        assert rf.search(q, 10) == rm.search(q, 10), q
        assert rm.search(q, 10, method="wand") == rm.search(q, 10), q


def test_federated_equals_full(built):
    """Query-time federation over the two UNMERGED segments must be rank-
    AND score-identical to the single full build (bm25 only — federation
    recomputes BM25 impacts from union stats; neural impacts are stored,
    not recomputable)."""
    tmp, _, cfg = built
    if cfg.encoder != "bm25":
        import pytest as _pytest

        _pytest.skip("federation applies to bm25 tf builds")
    from splade_ray.pipelines.search import FederatedReader, IndexReader

    rf = IndexReader(str(tmp / "full"), cfg)
    fr = FederatedReader([str(tmp / "segA"), str(tmp / "segB")], cfg)
    assert fr.n_docs == rf.n_docs
    assert fr.avgdl == pytest.approx(rf.avgdl, rel=1e-15)
    vocab = vocabulary()
    queries = [
        f"{vocab[3]} {vocab[40]}",
        f"{vocab[7]} {vocab[7]} {vocab[11]}",
        vocab[100],
        f"{vocab[1]} {vocab[2]} {vocab[5]} {vocab[200]}",
        "zzznotaword",
    ]
    for q in queries:
        assert fr.search(q, 10) == rf.search(q, 10), q
        assert fr.search(q, 10, method="wand") == rf.search(q, 10), q


def test_merge_resume_skips_valid_shards(built):
    tmp, _, cfg = built
    from splade_ray.pipelines.merge import merge_segments
    from splade_ray.state.lineage import read_json

    again = merge_segments([str(tmp / "segA"), str(tmp / "segB")], str(tmp / "merged"), cfg)
    assert again["skipped_shards"] == again["n_shards"]
    lin = read_json(str(tmp / "merged" / "postings" / "_LINEAGE.json"))
    assert all(s["skipped"] for s in lin["shards"])


def test_merge_of_empty_segments(ray_session, tmp_path):
    """All-empty segments merge into a valid empty index (no crash)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.merge import merge_segments
    from splade_ray.pipelines.search import IndexReader

    cfg = EngineConfig(shard_size=800, num_buckets=1).validate()
    empty = pa.table(
        {
            "url": pa.array([], type=pa.string()),
            "warc_ts": pa.array([], type=pa.timestamp("us")),
            "text": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
        }
    )
    p = str(tmp_path / "e.parquet")
    pq_.write_table(empty, p)
    build_index(p, str(tmp_path / "segA"), cfg)
    build_index(p, str(tmp_path / "segB"), cfg, doc_id_base=0)
    summary = merge_segments([str(tmp_path / "segA"), str(tmp_path / "segB")], str(tmp_path / "m"), cfg)
    assert summary["n_docs"] == 0
    assert IndexReader(str(tmp_path / "m"), cfg).search("anything", 5) == []


def test_merge_purges_tombstones(ray_session, tmp_path_factory):
    """A merge with tombstones must equal a FRESH build of the surviving
    corpus: same urls+scores per query (survivor tie-break order is
    preserved), same n_docs/avgdl/nnz stats, deleted urls gone from every
    result, and no deletes.json carried into the merged dir."""
    import pyarrow.parquet as pq_

    from splade_ray.fixtures import generate_queries
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.merge import merge_segments
    from splade_ray.pipelines.search import IndexReader, apply_deletes
    from splade_ray.state.lineage import read_json

    cfg = EngineConfig(shard_size=800, num_buckets=1).validate()
    tmp = tmp_path_factory.mktemp("merge_purge")
    corpus = _synth_corpus(N)
    for name, tbl in (("a", corpus.slice(0, SPLIT)), ("b", corpus.slice(SPLIT))):
        pq_.write_table(tbl, str(tmp / f"{name}.parquet"))
    build_index(str(tmp / "a.parquet"), str(tmp / "segA"), cfg, doc_id_base=0)
    build_index(str(tmp / "b.parquet"), str(tmp / "segB"), cfg, doc_id_base=SPLIT)

    urls = corpus.column("url").to_pylist()
    deleted = [u for i, u in enumerate(urls) if i % 7 == 0]  # both segments, shard boundaries
    # half via each segment's deletes.json, half via the explicit param
    apply_deletes(str(tmp / "segA"), [u for u in deleted if u < urls[SPLIT]][: len(deleted) // 2])
    summary = merge_segments(
        [str(tmp / "segA"), str(tmp / "segB")], str(tmp / "merged"), cfg, deletes=deleted
    )

    survivors = corpus.filter(pa.array([i % 7 != 0 for i in range(N)]))
    pq_.write_table(survivors, str(tmp / "surv.parquet"))
    build_index(str(tmp / "surv.parquet"), str(tmp / "fresh"), cfg)

    fresh_meta = read_json(str(tmp / "fresh" / "stats" / "meta.json"))
    merged_meta = read_json(str(tmp / "merged" / "stats" / "meta.json"))
    assert merged_meta["n_docs"] == fresh_meta["n_docs"] == survivors.num_rows
    assert merged_meta["avgdl"] == pytest.approx(fresh_meta["avgdl"], rel=1e-12)
    assert merged_meta["nnz"] == fresh_meta["nnz"]
    assert summary["purged_deletes"] == len(deleted)
    assert not os.path.exists(str(tmp / "merged" / "deletes.json"))

    rm = IndexReader(str(tmp / "merged"), cfg)
    rf = IndexReader(str(tmp / "fresh"), cfg)
    dset = set(deleted)
    for q in generate_queries(30)["text"].to_pylist():
        got = [(u, round(s, 9)) for _d, s, u in rm.search(q, 10)]
        want = [(u, round(s, 9)) for _d, s, u in rf.search(q, 10)]
        assert got == want, q
        wand = [(u, round(s, 9)) for _d, s, u in rm.search(q, 10, method="wand")]
        assert wand == got, q
        assert not (dset & {u for u, _ in got}), q


def test_merge_needs_a_segment(tmp_path):
    from splade_ray.pipelines.merge import merge_segments

    with pytest.raises(ValueError, match="at least one segment"):
        merge_segments([], str(tmp_path / "m"), EngineConfig())


@pytest.mark.parametrize(
    "field, a, b",
    [("encoder", "bm25", "neural"), ("value_dtype", "tf", "f32"), ("vocab_mode", "sorted", "hashed")],
)
def test_merge_rejects_mixed_segments(tmp_path, field, a, b):
    """Segment metadata is read from disk, so a mismatch must raise a
    ValueError naming the field (not an ``assert`` that ``python -O``
    strips) before any vocab or postings is read."""
    from splade_ray.pipelines.merge import merge_segments
    from splade_ray.state.lineage import atomic_write_json

    segs = []
    for name, value in (("segA", a), ("segB", b)):
        os.makedirs(tmp_path / name / "stats")
        meta = {"n_docs": 1, "avgdl": 1.0, "nnz": 1, field: value}
        atomic_write_json(str(tmp_path / name / "stats" / "meta.json"), meta)
        segs.append(str(tmp_path / name))
    what = {"encoder": "encoders", "value_dtype": "value dtypes", "vocab_mode": "vocab modes"}[field]
    with pytest.raises(ValueError, match=f"mixed segment {what}"):
        merge_segments(segs, str(tmp_path / "m"), EngineConfig())
    assert not os.path.exists(tmp_path / "m")


@pytest.fixture(scope="module")
def fwd_mixed_segments(ray_session, tmp_path_factory):
    """Two segments sharing shard 0: segA stores forward streams, segB
    does not."""
    from splade_ray.pipelines.build import build_index

    tmp = tmp_path_factory.mktemp("merge_mixed_fwd")
    corpus = _synth_corpus(400)
    pq.write_table(corpus.slice(0, 200), str(tmp / "a.parquet"))
    pq.write_table(corpus.slice(200), str(tmp / "b.parquet"))
    cfg = EngineConfig(shard_size=800, num_buckets=1)
    fwd = EngineConfig(shard_size=800, num_buckets=1, store_forward=True)
    build_index(str(tmp / "a.parquet"), str(tmp / "segA"), fwd)
    build_index(str(tmp / "b.parquet"), str(tmp / "segB"), cfg, doc_id_base=200)
    return [str(tmp / s / "postings") for s in ("segA", "segB")], cfg


def test_merge_shard_rejects_weight_mode_mismatch(fwd_mixed_segments, tmp_path):
    """The postings weight mode is read from disk: a mismatch raises even
    under ``python -O``."""
    from splade_ray.pipelines.merge import MergeShardStage

    pdirs, cfg = fwd_mixed_segments
    stage = MergeShardStage(str(tmp_path / "out"), cfg, [None], weight_mode="f32")
    with pytest.raises(ValueError, match="weight mode 'tf', merge expects 'f32'"):
        stage._merge_one(0, [0], pdirs[:1], [None], None)


def test_merge_shard_rejects_mixed_store_forward(fwd_mixed_segments, tmp_path):
    from splade_ray.pipelines.merge import MergeShardStage

    pdirs, cfg = fwd_mixed_segments
    stage = MergeShardStage(str(tmp_path / "out"), cfg, [None, None], weight_mode="tf")
    with pytest.raises(ValueError, match="mixed store_forward across segments"):
        stage._merge_one(0, [0, 1], pdirs, [None, None], None)
