"""Term-major salted posting build (groupby(term) + skew-aware salting)
must be rank-identical to the doc-sharded index on the same corpus."""

import os

import numpy as np
import pytest

import ray.data

from splade_ray.pipelines.search import IndexReader
from splade_ray.pipelines.term_index import TermIndexReader, build_term_index, _salt_counts
from splade_ray.fixtures import generate_queries


def test_salt_counts_df_aware():
    df = np.array([10, 65536, 65537, 10_000_000])
    s = _salt_counts(df, 65536, 32)
    assert s.tolist() == [1, 1, 2, 32]


@pytest.fixture(scope="module")
def term_index(built_index, tmp_path_factory):
    index_dir, cfg = built_index
    out = str(tmp_path_factory.mktemp("term_idx"))
    summary = build_term_index(
        os.path.join(index_dir, "doc_terms"),
        os.path.join(index_dir, "stats"),
        out,
        cfg,
        salt_block_postings=200,  # small so head terms actually salt
        max_salts=8,
    )
    # the reader loads doc lengths from the build's dl sidecar itself —
    # no driver-side doc_terms scan
    reader = TermIndexReader(out, os.path.join(index_dir, "stats"), cfg)
    reader.load_doc_lengths()
    dt = ray.data.read_parquet(os.path.join(index_dir, "doc_terms"), columns=["doc_id", "dl"]).to_pandas()
    dt = dt.sort_values("doc_id")
    dl = np.zeros(summary["n_docs"], dtype=np.int64)
    dl[dt["doc_id"].to_numpy()] = dt["dl"].to_numpy()
    # breadcrumbs for the term-partitioned test
    reader._tdir, reader._stats_dir, reader._dl = out, os.path.join(index_dir, "stats"), dl
    return reader, summary


def test_dl_sidecar_equals_doc_terms_scan(term_index, built_index):
    """load_doc_lengths (dl sidecar) must produce the exact weights the
    driver-side doc_terms scan did."""
    index_dir, cfg = built_index
    full, _ = term_index
    other = TermIndexReader(full._tdir, full._stats_dir, cfg)
    other.set_doc_lengths(full._dl)
    assert np.array_equal(full.post_doc, other.post_doc)
    assert np.array_equal(full.post_w, other.post_w)


def test_head_terms_salted(term_index):
    _, summary = term_index
    assert summary["salted_terms"] > 0
    assert summary["max_salts"] > 1


def test_rank_identity_vs_doc_sharded(term_index, built_index):
    term_reader, _ = term_index
    index_dir, cfg = built_index
    doc_reader = IndexReader(index_dir, cfg)
    for text in generate_queries(40)["text"].to_pylist():
        expected = doc_reader.search(text, 10)
        got = term_reader.search(text, 10)
        assert [d for d, _, _ in expected] == [d for d, _ in got], text
        for (_, es, _), (_, gs) in zip(expected, got):
            assert gs == pytest.approx(es, rel=1e-9)


def test_term_partitioned_search_equals_full(term_index, built_index):
    """Two readers over disjoint term-id ranges must reproduce the full
    reader's ranking exactly when their partial scores are summed — the
    term-partitioned cluster query model."""
    from splade_ray.pipelines.term_index import search_term_partitioned

    full, _ = term_index
    _, cfg = built_index
    n_terms = full.df.size
    mid = n_terms // 2
    parts = []
    for rng in ((0, mid), (mid, n_terms + 1)):
        r = TermIndexReader(full._tdir, full._stats_dir, cfg, term_range=rng)
        r.set_doc_lengths(full._dl)
        parts.append(r)
    # partitions hold disjoint, complementary run sets
    assert parts[0].term_ids.size + parts[1].term_ids.size == full.term_ids.size
    for q in generate_queries(30)["text"].to_pylist():
        a = [(d, round(s, 9)) for d, s in full.search(q, 10)]
        b = [(d, round(s, 9)) for d, s in search_term_partitioned(parts, q, 10)]
        assert a == b, q


def test_term_index_wand_equals_exhaustive(term_index):
    """Block-max pruning on the term-major layout must be rank-identical
    to exhaustive (VERDICT r2 item #3), including at a tiny top_zones that
    forces real phase-2 pruning."""
    from splade_ray.pipelines.term_index import search_term_partitioned

    full, _ = term_index
    for q in generate_queries(40)["text"].to_pylist():
        a = [(d, round(s, 9)) for d, s in full.search(q, 10)]
        b = [(d, round(s, 9)) for d, s in full.search(q, 10, method="wand")]
        # flatness_frac=2.0 disables the flat short-circuit so phase-2
        # pruning genuinely runs at top_zones=2
        c = [(d, round(s, 9)) for d, s in search_term_partitioned([full], q, 10, method="wand", top_zones=2, flatness_frac=2.0, min_zone_mult=0)]
        assert a == b == c, q


def test_term_index_negative_k_fails_loudly(term_index):
    """A negative k raises instead of cutting the last hit off, on both
    methods; k == 0 answers []."""
    full, _ = term_index
    q = "w0001 w0002 w0093"
    assert full.search(q, 10)
    for method in ("exhaustive", "wand"):
        with pytest.raises(ValueError, match="k must be non-negative"):
            full.search(q, -1, method=method)
        assert full.search(q, 0, method=method) == []


@pytest.mark.parametrize("call", ["zone_bounds", "score_partial_terms", "score_pruned"])
def test_term_index_scoring_before_doc_lengths_raises(term_index, call):
    """A reader opened without ``set_doc_lengths`` / ``load_doc_lengths``
    has no posting weights: each scoring entry point raises (also under
    ``python -O``) instead of failing later on a ``None``."""
    from splade_ray.pipelines.term_index import score_pruned

    full, _ = term_index
    bare = TermIndexReader(full._tdir, full._stats_dir, full.cfg)
    tids, qw = full._query_terms("w0001 w0093")
    calls = {
        "zone_bounds": lambda: bare.zone_bounds(tids, qw),
        "score_partial_terms": lambda: bare.score_partial_terms(tids, qw),
        "score_pruned": lambda: score_pruned(bare, "w0001 w0093", 0.5),
    }
    with pytest.raises(RuntimeError, match="call set_doc_lengths"):
        calls[call]()


def test_term_partitioned_wand_equals_exhaustive(term_index, built_index):
    """Distributed block-max over term-range readers: per-reader zone
    bounds sum to the exact global bound, so pruning stays rank-identical
    even though each reader holds only part of every doc's score."""
    from splade_ray.pipelines.term_index import TermIndexReader, search_term_partitioned

    full, _ = term_index
    _, cfg = built_index
    n_terms = full.df.size
    mid = n_terms // 2
    parts = []
    for rng in ((0, mid), (mid, n_terms + 1)):
        r = TermIndexReader(full._tdir, full._stats_dir, cfg, term_range=rng)
        r.set_doc_lengths(full._dl)
        parts.append(r)
    for q in generate_queries(30)["text"].to_pylist():
        a = [(d, round(s, 9)) for d, s in search_term_partitioned(parts, q, 10)]
        b = [(d, round(s, 9)) for d, s in search_term_partitioned(parts, q, 10, method="wand")]
        c = [(d, round(s, 9)) for d, s in search_term_partitioned(parts, q, 10, method="wand", top_zones=2, flatness_frac=2.0, min_zone_mult=0)]
        assert a == b == c, q
