"""On-disk index format.  Every index table goes through
``codec.write_index_table`` / ``codec.write_index_dataset``: zstd pages,
ascending integer id columns delta-bit-packed, dictionary pages kept
everywhere else (nested ``doc_terms.terms`` included).  Indexes in the
older format — snappy pages, default dictionaries — must still serve,
and merge, exactly as the new ones do."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from splade_ray.config import EngineConfig
from splade_ray.fixtures import generate_queries, vocabulary

# shard 1 (docs 400-799) spans both segments: a term-run merge, not a copy
CFG = EngineConfig(shard_size=400, num_buckets=1).validate()
N, SPLIT = 900, 500

# ascending id columns per index table kind (file name prefix → columns)
DELTA_COLUMNS = {
    "vocab": {"term_id"},
    "postings": {"term_id"},
    "docs": {"doc_id", "local_id"},
}


def _corpus(n: int) -> pa.Table:
    """Zero-padded disjoint urls: a num_buckets=1 build numbers docs in
    row order, as segment-major numbering does."""
    vocab = vocabulary()
    texts = [" ".join(vocab[(i * 7 + j * j) % len(vocab)] for j in range(10 + i % 37)) for i in range(n)]
    return pa.table(
        {
            "url": pa.array([f"https://example.com/{i:06d}" for i in range(n)]),
            "warc_ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_000, type=pa.timestamp("us")),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * n),
        }
    )


def _files(index_dir: str) -> list[str]:
    return sorted(
        os.path.join(d, f) for d, _, names in os.walk(index_dir) for f in names if f.endswith(".parquet")
    )


def _chunks(path: str):
    """(column path, compression, encodings) of every column chunk."""
    md = pq.ParquetFile(path).metadata
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(rg).column(i)
            yield c.path_in_schema, c.compression, set(c.encodings)


def _rewrite_old_format(index_dir: str) -> None:
    """Rewrite every parquet file of an index with pyarrow's defaults
    (snappy pages, dictionary encoding everywhere): the format indexes
    were written in before the zstd writer."""
    for f in _files(index_dir):
        pq.write_table(pq.read_table(f), f)
        assert {comp for _, comp, _ in _chunks(f)} == {"SNAPPY"}


def _stage_parquet_bytes(index_dir: str) -> dict[str, int]:
    return {
        stage: sum(os.path.getsize(f) for f in _files(os.path.join(index_dir, stage)))
        for stage in ("doc_terms", "stats", "postings")
    }


@pytest.fixture(scope="module")
def fmt(ray_session, tmp_path_factory):
    """A full build, two segment builds (the first also rewritten in the
    old format), their merges and a term-major build of the full one."""
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.merge import merge_segments
    from splade_ray.pipelines.term_index import build_term_index

    tmp = tmp_path_factory.mktemp("index_format")
    corpus = _corpus(N)
    for name, tbl in (("full", corpus), ("a", corpus.slice(0, SPLIT)), ("b", corpus.slice(SPLIT))):
        pq.write_table(tbl, str(tmp / f"{name}.parquet"))
    summary = build_index(str(tmp / "full.parquet"), str(tmp / "full"), CFG)
    build_index(str(tmp / "a.parquet"), str(tmp / "segA"), CFG, doc_id_base=0)
    build_index(str(tmp / "b.parquet"), str(tmp / "segB"), CFG, doc_id_base=SPLIT)
    shutil.copytree(tmp / "segA", tmp / "segA_old")
    _rewrite_old_format(str(tmp / "segA_old"))
    merge_segments([str(tmp / "segA"), str(tmp / "segB")], str(tmp / "merged"), CFG)
    merge_segments([str(tmp / "segA_old"), str(tmp / "segB")], str(tmp / "merged_mixed"), CFG)
    build_term_index(str(tmp / "full" / "doc_terms"), str(tmp / "full" / "stats"), str(tmp / "term"), CFG)
    return tmp, summary


@pytest.mark.parametrize("index", ["full", "merged", "merged_mixed", "term"])
def test_index_files_are_zstd(fmt, index):
    tmp, _ = fmt
    files = _files(str(tmp / index))
    assert files
    for f in files:
        assert {comp for _, comp, _ in _chunks(f)} == {"ZSTD"}, f


@pytest.mark.parametrize("index", ["full", "merged", "merged_mixed"])
def test_ascending_ids_are_delta_packed(fmt, index):
    tmp, _ = fmt
    seen = set()
    for f in _files(str(tmp / index)):
        kind = os.path.basename(f).split(".")[-2 if "shard-" in f else 0]
        for col, _, enc in _chunks(f):
            if col in DELTA_COLUMNS.get(kind, ()):
                seen.add((kind, col))
                assert "DELTA_BINARY_PACKED" in enc, (f, col, enc)
                assert not enc & {"PLAIN_DICTIONARY", "RLE_DICTIONARY"}, (f, col, enc)
            elif col in ("url", "term"):  # string columns keep their dictionary pages
                assert "RLE_DICTIONARY" in enc, (f, col, enc)
    assert seen == {(k, c) for k, cols in DELTA_COLUMNS.items() for c in cols}


def test_doc_terms_nested_terms_keep_dictionary(fmt):
    tmp, _ = fmt
    files = _files(str(tmp / "full" / "doc_terms"))
    assert files
    for f in files:
        enc = {col: e for col, _, e in _chunks(f)}
        assert "RLE_DICTIONARY" in enc["terms.list.element"], f


def test_mixed_format_merge_equals_full_build(fmt):
    """One old-format segment and one new-format segment merge into the
    tables a full build writes."""
    tmp, _ = fmt
    for sub in ("postings", "stats"):
        full = sorted(f for f in os.listdir(tmp / "full" / sub) if f.endswith(".parquet"))
        assert full == sorted(f for f in os.listdir(tmp / "merged_mixed" / sub) if f.endswith(".parquet"))
        for f in full:
            want = pq.read_table(tmp / "full" / sub / f)
            assert pq.read_table(tmp / "merged_mixed" / sub / f).to_pydict() == want.to_pydict(), f


def test_old_format_index_serves_identically(built_index, tmp_path):
    from splade_ray.pipelines.search import IndexReader

    index_dir, cfg = built_index
    old = str(tmp_path / "old")
    shutil.copytree(index_dir, old)
    _rewrite_old_format(old)
    queries = generate_queries(40).column("text").to_pylist()
    for consolidate in (True, False):
        new_r = IndexReader(index_dir, cfg, consolidate=consolidate)
        old_r = IndexReader(old, cfg, consolidate=consolidate)
        assert len(new_r.shards) == len(old_r.shards)
        for a, b in zip(new_r.shards, old_r.shards):
            for name in ("post_local", "post_w", "post_tf", "doc_ids"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape), name
                assert x.tobytes() == y.tobytes(), name
            assert a.urls.equals(b.urls)
        ids = new_r._doc_index
        assert new_r.url_of(ids) == old_r.url_of(ids)
        for q in queries:
            assert new_r.search(q, 10) == old_r.search(q, 10), q
            assert new_r.search(q, 10, method="wand") == old_r.search(q, 10, method="wand"), q


def test_build_summary_counts_stage_bytes(fmt):
    """``bytes`` holds each stage's parquet bytes on disk, on a fresh build
    and on a resumed one whose stages all skip."""
    from splade_ray.pipelines.build import build_index

    tmp, summary = fmt
    full = str(tmp / "full")
    want = _stage_parquet_bytes(full)
    assert summary["bytes"] == want
    assert all(want.values())
    again = build_index(str(tmp / "full.parquet"), full, CFG)
    assert again["timings"] == {}
    assert again["bytes"] == want
