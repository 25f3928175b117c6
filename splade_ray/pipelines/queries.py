"""Operator showcase backing ``__ray_entry__.queries()``.

Each function takes ``sf_dir`` (a /root/testdata scale dir) and returns a
Dataset / DataFrame / Table whose column names exactly match the DuckDB
oracle SQL in ``__ray_entry__.oracle_sql()`` (the driver hash-compares
values after sorting columns by name).

Floats that cross the engine/DuckDB boundary are rounded to 6 decimals on
BOTH sides; ranking happens before rounding with the deterministic
``(-score, id)`` tie-break.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Mean, Min, Sum

from ..config import EngineConfig
from ..stages.encode import cached_ref
from .build import build_index
from .graph import _bucket, _build_vertex_table, _read, hits_top, label_propagation_table, pagerank_top
from .search import IndexReader, ShardedSearcher, ranges, select_topk

# root of every index and artifact the showcase caches across calls.  The
# name carries the postings format: indexes here hold no stored zone-bound
# columns, which code of the older zone-column format cannot load, so the
# two formats never share a cache directory.
CACHE_ROOT_NOZONE = "/tmp/splade_ray_cache/nozone"

# fixed BM25 query set over the documents vocabulary (includes a repeated
# token and an OOV token on purpose)
BM25_QUERIES: list[tuple[str, str]] = [
    ("q0", "spark join order"),
    ("q1", "window batch stream"),
    ("q2", "fast hash join"),
    ("q3", "the small table"),
    ("q4", "data data merge"),
    ("q5", "vector query scan"),
    ("q6", "zzznotaword spark"),
    ("q7", "customer line value"),
]
BM25_K = 10

# engine BM25 config for the documents corpus.  num_buckets=1 so internal
# doc-id order == url order == external doc_id order (urls are zero-padded
# doc://{id}) — then the engine's (-score, internal_id) tie-break is exactly
# the SQL oracle's (-score, doc_id).  Sharding (the scale axis) still splits
# the posting build; bucketing only partitions the dedup groupby, which this
# adapted corpus doesn't need (urls are unique by construction).
DOCS_CFG = EngineConfig(shard_size=2000, num_buckets=1)


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _n_docs(sf_dir: str) -> int:
    """The corpus' doc count, from the parquet footer."""
    return int(pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows)


def _emb(sf_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


# ---------------------------------------------------------- ranked rows
def _hit_rows(qid: str, hits, start: int = 1) -> list[tuple]:
    """The contract's ranked rows (query_id, rank, doc_id, score_r) of one
    query's (doc, score, url) hits, ranked from ``start``."""
    return [
        (qid, rank, int(url.removeprefix("doc://")), round(score, 6))
        for rank, (_d, score, url) in enumerate(hits, start)
    ]


def _ranked_rows(queries, search, *args, **kwargs) -> list[tuple]:
    """``_hit_rows`` of ``search(*q, *args, **kwargs)`` for every
    ``(query_id, *q)`` of ``queries``."""
    return [row for qid, *q in queries for row in _hit_rows(qid, search(*q, *args, **kwargs))]


def _ranked_frame(rows: list[tuple]) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score_r"])


@contextlib.contextmanager
def _sharded(index_dir: str, cfg: EngineConfig = DOCS_CFG, **kwargs):
    """A 2-actor ShardedSearcher over ``index_dir``, shut down on exit."""
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, **kwargs)
    try:
        yield ss
    finally:
        ss.shutdown()


# ------------------------------------------------------------------ BM25
def _documents_index_dir(sf_dir: str) -> str:
    # corpus_v2: corpus_input.parquet also carries source + n_chars
    # (collapse / rank-feature doc-values) — keep in the key so stale
    # cached corpora without them are never reused
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|{DOCS_CFG}|corpus_v2".encode()).hexdigest()[:12]
    return os.path.join(CACHE_ROOT_NOZONE, f"docs_index_{key}")


def _documents_corpus(batch: pa.Table) -> pa.Table:
    """documents rows → the web-pages corpus schema (see
    :func:`build_documents_index`)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "url": pa.array([f"doc://{i:010d}" for i in ids], type=pa.string()),
            "warc_ts": pa.array(np.zeros(len(batch), dtype=np.int64), type=pa.timestamp("us")),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
            "source": batch.column("source"),
            "n_chars": batch.column("n_chars"),
        }
    )


def build_documents_index(sf_dir: str) -> str:
    """Adapt the documents table to the web-pages corpus schema and build
    the inverted index (stage guards make repeat calls ~free).

    url = doc://{doc_id:010d} so lexicographic url order == numeric doc_id
    order — the engine's (-score, url-rank) tie-break then matches the SQL
    oracle's (-score, doc_id)."""
    out = _documents_index_dir(sf_dir)
    corpus_path = os.path.join(out, "corpus_input.parquet")
    if not os.path.exists(corpus_path):
        os.makedirs(out, exist_ok=True)
        tmp = corpus_path + ".tmp"
        _docs(sf_dir, columns=["doc_id", "text", "lang", "source", "n_chars"]).map_batches(
            _documents_corpus, batch_format="pyarrow"
        ).write_parquet(tmp)
        os.rename(tmp, corpus_path)
    build_index(corpus_path, out, DOCS_CFG)
    return out


def _config_index(sf_dir: str, cfg: EngineConfig) -> str:
    """The documents corpus indexed under ``cfg``, cached per ``(sf_dir,
    cfg)`` (stage guards make repeat calls ~free)."""
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|{cfg}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT_NOZONE, f"docs_cfg_{key}")
    corpus_path = os.path.join(build_documents_index(sf_dir), "corpus_input.parquet")
    build_index(corpus_path, out, cfg)
    return out


def _config_reader(sf_dir: str, cfg: EngineConfig) -> IndexReader:
    return IndexReader(_config_index(sf_dir, cfg), cfg)


def bm25_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — BM25 top-10, rank-identical to
    the pure-SQL BM25 oracle."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K))


def bm25_topk_page2(sf_dir: str) -> pd.DataFrame:
    """Deep pagination: page 2 (ranks 11-20) fetched via the search_after
    cursor — the last hit of page 1 feeds ``reader.search_after`` and the
    cursor is applied INSIDE each shard's scorer, so page 1 is never
    re-collected.  Oracle = the full ranking's rank 11..20 window.  One
    query routes through :class:`ShardedSearcher.search_after` to pin
    driver/sharded parity under the cursor mask."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    cursors: dict[str, tuple[float, int]] = {}
    for qid, text in BM25_QUERIES:
        page1 = reader.search(text, BM25_K)
        if len(page1) < BM25_K:
            continue  # no page 2 (oracle window is empty too)
        d, s, _u = page1[-1]
        cursors[qid] = (s, d)
        rows += _hit_rows(qid, reader.search_after(text, BM25_K, after=(s, d)), BM25_K + 1)
    if cursors:
        qid0, text0 = next((q, t) for q, t in BM25_QUERIES if q in cursors)
        with _sharded(index_dir) as ss:
            sharded = _hit_rows(qid0, ss.search_after(text0, BM25_K, after=cursors[qid0]), BM25_K + 1)
        assert sharded == [r for r in rows if r[0] == qid0], "sharded search_after diverged"
    return _ranked_frame(rows)


def bm25_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered retrieval: BM25 top-10 restricted to docs with
    ``lang = 'en'`` — the metadata-filter serving feature.  The allowed-url
    set comes from ONE column-pruned read of the documents table
    (doc_id, lang only) and is applied inside the scorer as a per-shard
    Arrow ``is_in`` mask before top-k selection (Lucene live-docs shape)."""
    import pyarrow.dataset as pads

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id"],
        filters=pads.field("lang") == "en",
    )
    allowed = pa.array(
        sorted(f"doc://{i:010d}" for i in tbl.column("doc_id").to_pylist()), type=pa.string()
    )
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search_filtered, BM25_K, allowed))


PREFIX_QUERIES: list[tuple[str, str]] = [
    ("p0", "s"),   # scan, slow, small, sort, spark, stream
    ("p1", "da"),  # data
    ("p2", "qu"),  # query
    ("p3", "c"),   # column, customer
    ("p4", "zz"),  # matches no vocab term → zero rows for p4
]

FUZZY_QUERIES: list[tuple[str, str]] = [
    ("f0", "spork"),    # spark (1 sub), spore?; misspelling with a real neighbor
    ("f1", "dat"),      # data/date (1 ins) + 3-letter subs
    ("f2", "quer"),     # query (1 ins)
    ("f3", "customer"), # exact hit + distance-1 neighbors
    ("f4", "zzznope"),  # nothing within distance 1 → zero rows for f4
]


def prefix_topk(sf_dir: str) -> pd.DataFrame:
    """Wildcard retrieval (``s*``, ``da*``, ...): each prefix expands to
    EVERY vocab term carrying it — a contiguous term-id range off the
    sorted vocab (two binary searches, Lucene-PrefixQuery shape) — scored
    with unit query weight and per-term idf through the unchanged BM25
    kernels.  One query routes through :class:`ShardedSearcher` to pin
    driver/sharded parity under expansion."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = _ranked_rows(PREFIX_QUERIES, reader.search_prefix, BM25_K)
    with _sharded(index_dir) as ss:
        sharded = _hit_rows(PREFIX_QUERIES[0][0], ss.search_prefix(PREFIX_QUERIES[0][1], BM25_K))
    assert sharded == [r for r in rows if r[0] == PREFIX_QUERIES[0][0]], "sharded prefix diverged"
    return _ranked_frame(rows)


NOT_TERMS: list[str] = ["data", "merge"]


def _similarity_topk(sf_dir: str, scoring: str) -> pd.DataFrame:
    """Top-10 of every BM25_QUERIES query, ranked by `_rounded_topk`,
    under read-time similarity ``scoring`` over the documents index."""
    import dataclasses

    reader = IndexReader(build_documents_index(sf_dir), dataclasses.replace(DOCS_CFG, scoring=scoring))
    return _ranked_frame(_ranked_rows(BM25_QUERIES, lambda text: _rounded_topk(reader, text)))


def lm_topk(sf_dir: str) -> pd.DataFrame:
    """LM-Dirichlet top-10 over the SAME stored index as `bm25_topk` —
    the similarity is plugged at READ time (Lucene Similarity seam): the
    reader recomputes per-posting impacts as
    max(0, ln(1 + tf·T/(mu·cf)) + ln(mu/(dl+mu))) from the raw-tf postings
    plus the stats stage's cf/sum_dl.  mu = 2000 (the EngineConfig
    default)."""
    return _similarity_topk(sf_dir, "lm_dirichlet")


def _rounded_topk(reader: IndexReader, text: str, k: int = None, margin: int = 50):
    """Top-k under the ROUND-6 score order ((-round(score, 6), doc_id)).

    The LM similarities compress score ranges enough that distinct docs
    land within fp epsilon of each other — a raw-float rank order then
    depends on the oracle's summation order (DuckDB aggregation is
    run-to-run order-unstable), so the contract for these queries ranks on
    the 6-decimal score, the same convention as collapse/diversified.  The
    engine fetches k+margin raw candidates and re-ranks rounded.  When the
    fetch comes back full and its last candidate still rounds to the kth
    re-ranked score, that tie class may extend past the fetch, so the
    re-rank could be wrong: raise rather than answer."""
    k = k or BM25_K
    cand = reader.search(text, k + margin)
    ranked = sorted(cand, key=lambda r: (-round(r[1], 6), r[0]))
    if len(cand) == k + margin and round(cand[-1][1], 6) == round(ranked[k - 1][1], 6):
        raise RuntimeError(
            f"_rounded_topk: the round-6 tie class at rank {k} reaches the end of the "
            f"{k + margin}-candidate fetch for {text!r}; raise margin ({margin})"
        )
    return ranked[:k]


def lm_jm_topk(sf_dir: str) -> pd.DataFrame:
    """Jelinek-Mercer query likelihood (Lucene LMJelinekMercerSimilarity,
    λ=0.1) plugged at read time over the SAME stored index as `bm25_topk`
    — per posting w = ln(1 + (1-λ)·tf·T/(λ·cf·dl)); see :func:`lm_topk`
    for the seam."""
    return _similarity_topk(sf_dir, "lm_jm")


def classic_topk(sf_dir: str) -> pd.DataFrame:
    """Lucene ClassicSimilarity (pre-8 TF-IDF) top-10 over the SAME stored
    index as `bm25_topk` — the third similarity on the READ-time seam:
    per posting w = sqrt(tf)·idf²/sqrt(dl) with idf = 1 + ln((N+1)/(df+1));
    query side multiplies by qtf (each query occurrence is its own
    TermQuery clause).  The historical lossy byte-encoded length norm is
    NOT reproduced: the contract is the exact 1/sqrt(dl)."""
    return _similarity_topk(sf_dir, "classic")


def dfr_topk(sf_dir: str) -> pd.DataFrame:
    """Lucene DFRSimilarity I(n)L2 top-10 over the SAME stored index as
    `bm25_topk` — the fourth similarity on the READ-time seam
    (divergence from randomness, Amati & van Rijsbergen 2002): per
    posting w = tfn·log2((N+1)/(df+0.5))/(tfn+1) with the H2 length
    normalization tfn = tf·log2(1 + c·avgdl/dl), c = 1."""
    return _similarity_topk(sf_dir, "dfr_inl2")


def ib_ll_topk(sf_dir: str) -> pd.DataFrame:
    """Lucene IBSimilarity (information-based, log-logistic distribution,
    LambdaDF, H2 normalization; Clinchant & Gaussier 2010) top-10 over
    the SAME stored index — the fifth similarity on the READ-time seam:
    per posting w = ln(1 + tfn·(N+1)/(df+1)) with
    tfn = tf·log2(1 + c·avgdl/dl)."""
    return _similarity_topk(sf_dir, "ib_ll")


MLT_SEEDS: list[tuple[str, int]] = [("m0", 0), ("m1", 7), ("m2", 23), ("m3", 41)]


ANALYZED_DOCS_CFG = EngineConfig(shard_size=2000, num_buckets=1, analyzer="light_en")
# query variants whose light_en stems land on corpus base terms:
# sparks->spark, joins->join, tables->tabl(==table), merging->merg(==merge),
# valued->valu(==value), hashes->hash, sorted->sort, queries->query; 'the',
# 'a', 'and', 'in' are stopped on both sides.
ANALYZED_QUERIES: list[tuple[str, str]] = [
    ("a0", "the sparks joins tables"),
    ("a1", "merging streams in windows"),
    ("a2", "a customer valued orders"),
    ("a3", "hashes and sorted queries"),
]


def analyzed_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — BM25 top-10 under the
    ``light_en`` analysis chain (the Lucene Analyzer seam: StopFilter
    before a minimal English stemmer, ``tokenizer.LIGHT_EN_RULES``).

    The index is BUILT with ``analyzer="light_en"`` so stop tokens never
    enter the postings: df, dl and avgdl are all post-analysis (Lucene
    norms count post-analysis positions), which shifts every BM25 score
    relative to the standard index — the oracle replays the identical
    stop list + ordered regexp_replace chain in SQL.  Query-side analysis
    rides the same Tokenizer, so inflected queries ('joins', 'merging',
    'queries') conflate onto the corpus stems."""
    reader = _config_reader(sf_dir, ANALYZED_DOCS_CFG)
    return _ranked_frame(_ranked_rows(ANALYZED_QUERIES, reader.search, BM25_K))


def more_like_this(sf_dir: str) -> pd.DataFrame:
    """More-like-this: each seed doc reduces to its 5 highest-tf·idf terms
    (idf off the index's global df; term-asc tie-break so SQL replays the
    selection), runs as a unit-weight BoW query through the BM25 kernels,
    and the seed itself is excluded from the ranking — the Lucene
    MoreLikeThis serving shape.  Seed texts come from k-bounded point
    reads of the corpus parquet (never a scan)."""
    import pyarrow.dataset as pads

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    corpus = os.path.join(index_dir, "corpus_input.parquet")
    seed_urls = {doc: f"doc://{doc:010d}" for _, doc in MLT_SEEDS}
    tbl = pads.dataset(corpus).to_table(
        columns=["url", "text"],
        filter=pads.field("url").isin(list(seed_urls.values())),
    )
    texts = dict(zip(tbl.column("url").to_pylist(), tbl.column("text").to_pylist()))
    rows = []
    for qid, doc in MLT_SEEDS:
        url = seed_urls[doc]
        rows += _hit_rows(qid, reader.more_like_this(texts[url], BM25_K, max_terms=5, exclude_url=url))
    return _ranked_frame(rows)


def bm25_topk_not(sf_dir: str) -> pd.DataFrame:
    """Boolean must_not retrieval: BM25 top-10 excluding every doc that
    contains 'data' or 'merge' (Lucene MUST_NOT — non-scoring exclusion
    resolved per shard from its own postings).  Surviving docs keep their
    EXACT unfiltered scores; the oracle anti-joins the same term set out
    of the shared scores CTE and re-ranks."""
    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search_not, BM25_K, exclude_terms=NOT_TERMS))


def fuzzy_topk(sf_dir: str) -> pd.DataFrame:
    """Fuzzy retrieval (Lucene FuzzyQuery, max_edits=1): each query term
    expands to EVERY vocab term within Levenshtein distance 1 — a
    vectorized DP over the length-banded dictionary — scored with unit
    query weight and per-term idf through the unchanged BM25 kernels.
    One query routes through :class:`ShardedSearcher.search_fuzzy` to pin
    driver/sharded parity under expansion."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = _ranked_rows(FUZZY_QUERIES, reader.search_fuzzy, BM25_K)
    with _sharded(index_dir) as ss:
        sharded = _hit_rows(FUZZY_QUERIES[0][0], ss.search_fuzzy(FUZZY_QUERIES[0][1], BM25_K))
    assert sharded == [r for r in rows if r[0] == FUZZY_QUERIES[0][0]], "sharded fuzzy diverged"
    return _ranked_frame(rows)


def index_segments(sf_dir: str) -> pd.DataFrame:
    """Segment/shard introspection (the `_cat/segments` shape): per shard
    its doc count, distinct-term count, posting count and token total,
    read off the LOADED index structures — and, because doc-id assignment
    is the deterministic (bucket, url) order with num_buckets=1 and
    shard_size=2000, the physical layout itself is SQL-replayable as
    doc_id // 2000."""
    import re as _re

    import pyarrow.parquet as pq

    index_dir = build_documents_index(sf_dir)
    pdir = os.path.join(index_dir, "postings")
    rows = []
    # read the ON-DISK layout (column-pruned footer reads), not the loaded
    # reader — IndexReader may consolidate shards into one serving view
    for f in sorted(os.listdir(pdir)):
        m = _re.match(r"shard-(\d+)\.docs\.parquet$", f)
        if not m:
            continue
        sid = int(m.group(1))
        docs = pq.read_table(os.path.join(pdir, f), columns=["dl"])
        post = pq.read_table(
            os.path.join(pdir, f"shard-{sid:05d}.postings.parquet"), columns=["df"]
        )
        rows.append(
            (
                sid,
                docs.num_rows,
                post.num_rows,
                int(pa.compute.sum(post.column("df")).as_py() or 0),
                int(pa.compute.sum(docs.column("dl")).as_py() or 0),
            )
        )
    return pd.DataFrame(rows, columns=["shard", "n_docs", "n_terms", "nnz", "sum_dl"])


def explain_scores(sf_dir: str) -> pd.DataFrame:
    """Lucene `explain` parity: per-term BM25 breakdown (qtf, tf, df, idf,
    contribution) of each query's top-1 doc, straight off the stored
    postings (tf from the raw-tf sidecar, one searchsorted per term).
    OOV / unmatched terms emit zero rows — the full explanation."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        hits = reader.search(text, 1)
        if not hits:
            continue
        doc = hits[0][0]
        ext_doc = int(hits[0][2].removeprefix("doc://"))
        for term, qtf, tf, df, idf, contrib in reader.explain(text, doc):
            rows.append((qid, ext_doc, term, int(qtf), tf, df, round(idf, 6), round(contrib, 6)))
    return pd.DataFrame(
        rows, columns=["query_id", "doc_id", "term", "qtf", "tf", "df", "idf_r", "contrib_r"]
    )


def collapse_topk(sf_dir: str) -> pd.DataFrame:
    """Field collapsing (Lucene grouping / ES collapse): the best BM25 hit
    per ``source`` value, sources ranked by their winner's (-score,
    doc_id), top 5 — served entirely by the shard owners (each ships
    |sources| cells, the match set never crosses the network)."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for rank, (src, doc, score, _u) in enumerate(ss.search_collapse(text, 5, "source"), 1):
                rows.append((qid, rank, src, doc, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "source", "doc_id", "score_r"])


def diversified_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, source, score_r) — diversified top-k (ES
    ``diversified_sampler`` + top hits, max_docs_per_value=2 on
    ``source``): at most 2 docs per source survive, survivors ranked by
    (-score, doc_id), top 10.  Shard owners each ship ≤ |sources|·2
    cells (their local per-source top-2, which provably contains every
    global per-source top-2) — the match set never crosses the network."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for rank, (doc, score, _u, src) in enumerate(
                ss.search_diversified(text, BM25_K, "source", per_value=2), 1
            ):
                rows.append((qid, rank, doc, src, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "source", "score_r"])


def boosted_topk(sf_dir: str) -> pd.DataFrame:
    """Rank-feature retrieval (Lucene FeatureField / ES rank_feature):
    BM25 plus 0.5·ln(1 + n_chars/1000) from the static doc-value, applied
    to matched docs inside the shard owners before local top-k."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(BM25_QUERIES, ss.search_boosted, BM25_K)
    return _ranked_frame(rows)


def distance_feature_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``distance_feature`` query on
    a numeric field: BM25 plus ``boost·pivot/(pivot + |n_chars − origin|)``
    (origin=300, pivot=100, boost=1.0) — docs near the origin length gain
    up to +1; the decay is the ES reciprocal shape.  Applied to matched
    docs inside the shard owners before local top-k."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(
            BM25_QUERIES, ss.search_boosted, BM25_K, boost=1.0, pivot=100.0, feature="distance", origin=300.0,
        )
    return _ranked_frame(rows)


def field_value_factor_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``function_score`` with
    ``field_value_factor`` (modifier=log1p, boost_mode=multiply): matched
    docs' BM25 scores are MULTIPLIED by ``ln(1 + n_chars/100)`` inside the
    shard owners before local top-k — longer docs amplified, the
    popularity-signal shape of the ES docs' canonical example."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(
            BM25_QUERIES, ss.search_boosted, BM25_K, boost=1.0, pivot=100.0, feature="fvf_log1p_mul",
        )
    return _ranked_frame(rows)


def _chunk_index_dir(sf_dir: str) -> str:
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|{DOCS_CFG}|chunks_v1".encode()).hexdigest()[:12]
    return os.path.join(CACHE_ROOT_NOZONE, f"docs_cidx_{key}")


def build_chunk_index(sf_dir: str) -> str:
    """Nested-document (Lucene block-join) corpus: each document is split
    into fixed token windows (window 16, stride 12 — the SAME deterministic
    chunking as :func:`doc_chunks` and its SQL oracle) and every chunk is
    indexed as its own child document.

    Child url = ``doc://{doc_id:010d}#c{chunk_idx:04d}`` so the engine's
    lexicographic url order == (parent, chunk_idx) order: all chunks of a
    parent are a contiguous internal doc-id block, exactly Lucene's
    parent/child block layout, and internal-id tie-breaks equal parent-id
    tie-breaks.  The ``parent`` doc-value column rides the corpus parquet
    for the collapse/join step."""
    from .textops import ChunkStage

    out = _chunk_index_dir(sf_dir)
    corpus_path = os.path.join(out, "corpus_input.parquet")
    if not os.path.exists(corpus_path):
        os.makedirs(out, exist_ok=True)
        chunker = ChunkStage(window=16, stride=12)

        def to_chunk_corpus(batch: pa.Table) -> pa.Table:
            ch = chunker(batch)
            ids = ch.column("doc_id").to_numpy(zero_copy_only=False)
            cix = ch.column("chunk_idx").to_numpy(zero_copy_only=False)
            urls = pa.array(
                [f"doc://{d:010d}#c{c:04d}" for d, c in zip(ids, cix)], type=pa.string()
            )
            # parent lang rides each chunk (doc_id is ascending within the
            # source parquet, so a searchsorted gather suffices)
            bids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            lang = batch.column("lang").take(pa.array(np.searchsorted(bids, ids)))
            n = len(ch)
            return pa.table(
                {
                    "url": urls,
                    "warc_ts": pa.array(np.zeros(n, dtype=np.int64), type=pa.timestamp("us")),
                    "text": ch.column("chunk_text"),
                    "lang": lang,
                    "parent": pa.array(ids.astype(np.int64), type=pa.int64()),
                }
            )

        tmp = corpus_path + ".tmp"
        _docs(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
            to_chunk_corpus, batch_format="pyarrow"
        ).write_parquet(tmp)
        os.rename(tmp, corpus_path)
    build_index(corpus_path, out, DOCS_CFG)
    return out


def block_join_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, chunk_idx, score_r) — nested block-join
    retrieval (Lucene ToParentBlockJoinQuery, ScoreMode.Max): BM25 scores
    the CHILD chunks (df/dl/avgdl are all chunk-corpus statistics — the
    nested-document model), each parent takes its best child's score, and
    parents are ranked by (-score, parent).  Served by the shard owners
    via the collapse kernel keyed on the ``parent`` doc-value: each actor
    ships |parents-with-matches| cells, child match sets never cross the
    network.  ``chunk_idx`` reports the winning child (Lucene's matching
    child hit)."""
    index_dir = build_chunk_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            # the collapse merge already ships one cell per matched parent;
            # rank parents on the 6-decimal score (the repo-wide compare
            # precision) so fp32-engine vs fp64-oracle epsilon can't flip
            # equal-score parents — ties break by parent id on both sides
            hits = ss.search_collapse(text, 1 << 30, "parent")
            ranked = sorted(hits, key=lambda h: (-round(h[2], 6), int(h[0])))[:BM25_K]
            for rank, (parent, _d, score, url) in enumerate(ranked, 1):
                cidx = int(url.rsplit("#c", 1)[1])
                rows.append((qid, rank, int(parent), cidx, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "chunk_idx", "score_r"])


def children_agg(sf_dir: str) -> pd.DataFrame:
    """(query_id, lang, n_chunks) — children aggregation (ES ``children``
    under a terms bucket) on the nested chunk index: counts of MATCHING
    CHILD chunks per parent ``lang`` (the parent attribute rides every
    child as a doc-value, Lucene's join-field denormalization).  Served
    by the shard owners' facet kernel — child match sets never leave
    them."""
    index_dir = build_chunk_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for lang, n in sorted(ss.facets(text, m=1, attr_col="lang").items()):
                rows.append((qid, lang, int(n)))
    return pd.DataFrame(rows, columns=["query_id", "lang", "n_chunks"])


SYNONYM_QUERIES: list[tuple[str, list[list[str]]]] = [
    ("y0", [["data", "index"], ["query"]]),
    ("y1", [["spark", "stream"]]),
    ("y2", [["merge", "sort", "zzznope"], ["customer"]]),
    ("y3", [["zzznope"]]),  # all-OOV → no groups survive → zero rows
]


def synonym_topk(sf_dir: str) -> pd.DataFrame:
    """Synonym retrieval (Lucene SynonymQuery): each group's member tfs
    SUM before BM25 saturation under idf(max member df) — blended-tf
    semantics the precomputed per-term impacts can't express, served from
    the raw-tf sidecar.  One query routes through
    :class:`ShardedSearcher.search_synonyms` for driver/sharded parity."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = _ranked_rows(SYNONYM_QUERIES, reader.search_synonyms, BM25_K)
    with _sharded(index_dir) as ss:
        qid0, groups0 = SYNONYM_QUERIES[0]
        sharded = _hit_rows(qid0, ss.search_synonyms(groups0, BM25_K))
    assert sharded == [r for r in rows if r[0] == qid0], "sharded synonym diverged"
    return _ranked_frame(rows)


STATS_TERMS: list[str] = ["data", "spark", "query", "merge", "customer", "zzznope"]


def term_stats(sf_dir: str) -> pd.DataFrame:
    """Lucene TermStatistics served off the STORED index: docFreq from the
    vocab, totalTermFreq from the fused stats pass's cf column — pure
    dictionary lookups, postings untouched.  OOV terms report (0, 0)."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = reader.term_stats(STATS_TERMS)
    return pd.DataFrame(rows, columns=["term", "df", "cf"])


def match_sorted_by_dl(sf_dir: str) -> pd.DataFrame:
    """Sort-by-field retrieval (Lucene SortField on a numeric doc-value):
    docs matching ANY query term ranked by document length DESC (doc_id
    ASC ties) — relevance never computed; each shard ships only its local
    top-k of the match set."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        for rank, (_d, dl, url) in enumerate(reader.search_sorted_by_dl(text, BM25_K), 1):
            rows.append((qid, rank, int(url.removeprefix("doc://")), int(dl)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "dl"])


def dismax_topk(sf_dir: str) -> pd.DataFrame:
    """Disjunction-max retrieval (Lucene DisjunctionMaxQuery, tie=0.3):
    per doc the BEST single query-term BM25 contribution plus 0.3 × the
    rest — one extra maximum.at scatter next to the exhaustive kernel's
    bincount.  One query routes through
    :class:`ShardedSearcher.search_dismax` to pin driver/sharded parity."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = _ranked_rows(BM25_QUERIES, reader.search_dismax, BM25_K, tie=0.3)
    with _sharded(index_dir) as ss:
        qid0, text0 = BM25_QUERIES[0]
        sharded = _hit_rows(qid0, ss.search_dismax(text0, BM25_K, tie=0.3))
    assert sharded == [r for r in rows if r[0] == qid0], "sharded dismax diverged"
    return _ranked_frame(rows)


# patterns restricted to the re/RE2 shared subset (classes, alternation,
# greedy quantifiers) so DuckDB's regexp_full_match replays the expansion
REGEXP_QUERIES: list[tuple[str, str]] = [
    ("x0", "s[a-z]*k"),     # stack-like: s…k
    ("x1", "(data|query)"),  # exact alternation
    ("x2", "m[ae]rge"),      # merge
    ("x3", "co[a-z]+"),      # column, customer, code, ...
    ("x4", "zz+x?"),         # matches no vocab term → zero rows for x4
]


def regexp_topk(sf_dir: str) -> pd.DataFrame:
    """Regexp retrieval (Lucene RegexpQuery): each pattern expands to
    EVERY vocab term that FULLY matches it (one compiled-regex dictionary
    scan — vocab-sized, not corpus-sized), scored with unit query weight
    and per-term idf through the unchanged BM25 kernels.  One query routes
    through :class:`ShardedSearcher.search_regexp` to pin driver/sharded
    parity under expansion."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = _ranked_rows(REGEXP_QUERIES, reader.search_regexp, BM25_K)
    with _sharded(index_dir) as ss:
        sharded = _hit_rows(REGEXP_QUERIES[0][0], ss.search_regexp(REGEXP_QUERIES[0][1], BM25_K))
    assert sharded == [r for r in rows if r[0] == REGEXP_QUERIES[0][0]], "sharded regexp diverged"
    return _ranked_frame(rows)


def bm25_topk_deleted(sf_dir: str) -> pd.DataFrame:
    """BM25 top-10 AFTER tombstone-deleting each query's unfiltered top-1
    doc (Lucene delete semantics: deleted docs excluded from every result,
    global df/idf/avgdl stats unchanged until a segment merge).  The SQL
    oracle filters the same doc set out of the shared BM25 scores CTE and
    re-ranks — remaining scores must be IDENTICAL to the unfiltered ones."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    del_urls = sorted({hits[0][2] for _, text in BM25_QUERIES if (hits := reader.search(text, 1))})
    deleted = IndexReader(index_dir, DOCS_CFG, deletes=del_urls)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, deleted.search, BM25_K))


def bm25_topk_merged_purged(sf_dir: str) -> pd.DataFrame:
    """The full incremental-index lifecycle under one oracle: the corpus
    is built as TWO segments (split at the midpoint, continued doc
    numbering), every 9th doc is tombstoned via ``apply_deletes``, and
    ``merge_segments`` PURGES the tombstones — so unlike
    `bm25_topk_deleted` (stats frozen until merge) the merged index's
    df/N/avgdl are the SURVIVORS' statistics.  The SQL oracle therefore
    recomputes BM25 over ``documents WHERE doc_id % 9 != 0`` from
    scratch; rank- and score-identity certifies segment build + tombstone
    + purge + merge end to end."""
    from .build import build_index
    from .merge import merge_segments
    from .search import apply_deletes

    base = build_documents_index(sf_dir)  # reuses the cached adapted corpus
    corpus_path = os.path.join(base, "corpus_input.parquet")
    root = os.path.join(base, "purge_merge")
    merged_dir = os.path.join(root, "merged")
    if not os.path.exists(os.path.join(merged_dir, "_MANIFEST.json")):
        n_rows = rd.read_parquet(corpus_path).count()
        split = n_rows // 2
        os.makedirs(root, exist_ok=True)
        full = rd.read_parquet(corpus_path).sort("url").materialize()
        a_path, b_path = os.path.join(root, "a.parquet"), os.path.join(root, "b.parquet")
        segs = full.split_at_indices([split])
        for ds_part, p in zip(segs, (a_path, b_path)):
            tmp = p + ".tmp"
            ds_part.write_parquet(tmp)
            os.rename(tmp, p)
        build_index(a_path, os.path.join(root, "segA"), DOCS_CFG, doc_id_base=0)
        build_index(b_path, os.path.join(root, "segB"), DOCS_CFG, doc_id_base=split)
        deleted = [f"doc://{i:010d}" for i in range(0, n_rows, 9)]
        apply_deletes(os.path.join(root, "segA"), deleted)
        merge_segments([os.path.join(root, "segA"), os.path.join(root, "segB")], merged_dir, DOCS_CFG)
    reader = IndexReader(merged_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K))


def search_snippets(sf_dir: str) -> pd.DataFrame:
    """Query-time snippet extraction over the BM25 top-5: per (query,
    hit) the best 12-token window — most query-term occurrence positions
    inside the window, earliest start on ties — plus the window's text.

    Scale shape: the hit set is k-bounded, so extraction is ONE
    broadcast-filtered ``map_batches`` over the docs table (candidate ids
    + per-query md5 term sets ride a single ``ray.put``); the corpus is
    never re-shuffled and non-candidate rows are dropped at the scan."""
    from ..functions.hashing import md5_u64
    from ..tokenizer import Tokenizer
    from .search import best_snippet_window

    W = 12
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    tok = Tokenizer()
    hits: list[tuple[str, int, int]] = []
    qhash: dict[str, np.ndarray] = {}
    for qid, text in BM25_QUERIES:
        qhash[qid] = np.unique(md5_u64(tok.tokenize(text)))
        for rank, (_d, _s, url) in enumerate(reader.search(text, 5), 1):
            hits.append((qid, rank, int(url.removeprefix("doc://"))))
    pair_docs: dict[str, set[int]] = {}
    for qid, _r, doc in hits:
        pair_docs.setdefault(qid, set()).add(doc)
    cand = np.unique(np.array([h[2] for h in hits], dtype=np.int64))
    ref = ray.put((cand, {q: (np.sort(np.array(sorted(d), dtype=np.int64)), qhash[q]) for q, d in pair_docs.items()}))

    def extract(batch: pa.Table) -> pa.Table:
        cand_ids, per_q = cached_ref(ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(cand_ids, ids)
        keep = (np.minimum(pos, cand_ids.size - 1) >= 0) & (cand_ids[np.minimum(pos, cand_ids.size - 1)] == ids)
        out_q, out_d, out_s, out_h, out_t = [], [], [], [], []
        if keep.any():
            sub = batch.filter(pa.array(keep))
            sids = sub.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            enc = Tokenizer().tokenize_codes(sub.column("text").combine_chunks())
            codes, rows, vocab, dls = enc
            vh = md5_u64(vocab.to_pylist())
            th = vh[codes] if codes.size else np.zeros(0, np.uint64)
            offs = np.zeros(dls.size + 1, dtype=np.int64)
            np.cumsum(dls, out=offs[1:])
            toks = vocab.take(pa.array(codes)) if codes.size else None
            for qid, (docs_sorted, qh) in per_q.items():
                p = np.searchsorted(docs_sorted, sids)
                inq = (np.minimum(p, docs_sorted.size - 1) >= 0) & (docs_sorted[np.minimum(p, docs_sorted.size - 1)] == sids)
                for ri in np.flatnonzero(inq):
                    lo, hi = offs[ri], offs[ri + 1]
                    s, end, nh = best_snippet_window(th[lo:hi], qh, W)
                    snippet = " ".join(toks.slice(lo + s, end - s).to_pylist()) if hi > lo else ""
                    out_q.append(qid); out_d.append(int(sids[ri])); out_s.append(s)
                    out_h.append(nh); out_t.append(snippet)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.string()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "start_tok": pa.array(out_s, type=pa.int64()),
                "n_hits": pa.array(out_h, type=pa.int64()),
                "snippet": pa.array(out_t, type=pa.string()),
            }
        )

    snips = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(extract, batch_format="pyarrow").to_pandas()
    ranks = pd.DataFrame(hits, columns=["query_id", "rank", "doc_id"])
    out = ranks.merge(snips, on=["query_id", "doc_id"], how="inner")
    return out[["query_id", "rank", "doc_id", "start_tok", "n_hits", "snippet"]].sort_values(
        ["query_id", "rank"], ignore_index=True
    )


def search_snippets_sharded(sf_dir: str) -> pd.DataFrame:
    """`search_snippets` routed ENTIRELY through the sharded serving path
    (:meth:`ShardedSearcher.snippets`): shard actors score their own
    partitions and fetch only their local top-k candidates' texts via
    k-bounded url-predicate parquet reads — no IndexReader over the whole
    index, no corpus scan.  Output (and SQL oracle) identical to
    `search_snippets`."""
    W = 12
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as searcher:
        rows = []
        for qid, text in BM25_QUERIES:
            for rank, (_d, _s, url, start, n_hits, snippet) in enumerate(
                searcher.snippets(text, k=5, W=W), 1
            ):
                rows.append((qid, rank, int(url.removeprefix("doc://")), start, n_hits, snippet))
    return pd.DataFrame(
        rows, columns=["query_id", "rank", "doc_id", "start_tok", "n_hits", "snippet"]
    ).sort_values(["query_id", "rank"], ignore_index=True)


def _ensure_doc_segments(sf_dir: str) -> tuple[str, str]:
    """Split the documents corpus in two halves (by url order) and build
    each as its own segment index with continued doc numbering; returns
    the two segment dirs (idempotent — guarded on segB's meta)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    base_dir = build_documents_index(sf_dir)
    corpus_path = os.path.join(base_dir, "corpus_input.parquet")
    out = os.path.join(base_dir, "segmented")
    a_idx, b_idx = os.path.join(out, "segA"), os.path.join(out, "segB")
    if not os.path.exists(os.path.join(b_idx, "stats", "meta.json")):
        corpus = pq.read_table(corpus_path)
        urls = corpus.column("url")
        n = corpus.num_rows
        split_url = sorted(urls.to_pylist())[n // 2]
        os.makedirs(out, exist_ok=True)
        a_path, b_path = os.path.join(out, "a.parquet"), os.path.join(out, "b.parquet")
        pq.write_table(corpus.filter(pc.less(urls, split_url)), a_path)
        pq.write_table(corpus.filter(pc.greater_equal(urls, split_url)), b_path)
        n_a = pq.read_metadata(a_path).num_rows
        build_index(a_path, a_idx, DOCS_CFG, doc_id_base=0)
        build_index(b_path, b_idx, DOCS_CFG, doc_id_base=n_a)
    return a_idx, b_idx


def segment_merge_topk(sf_dir: str) -> pd.DataFrame:
    """Incremental build: split the corpus into two segments, build each
    with continued doc numbering, merge the term runs
    (pipelines/merge.py), then answer the BM25 query set from the MERGED
    index.  Must be rank- and score-identical to the single-build SQL
    oracle — merge correctness is oracle-checked, not just tested."""
    from .merge import merge_segments

    a_idx, b_idx = _ensure_doc_segments(sf_dir)
    merged_dir = os.path.join(os.path.dirname(a_idx), "merged")
    if not os.path.exists(os.path.join(merged_dir, "_MANIFEST.json")):
        merge_segments([a_idx, b_idx], merged_dir, DOCS_CFG)
    reader = IndexReader(merged_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K))


def bm25_topk_federated(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — query-time federation over the
    two UNMERGED segment indexes (ES cross-index search with
    dfs_query_then_fetch): union df/n_docs/avgdl merged vocab-bounded at
    open, each segment scores under the global stats.  Must be rank- AND
    score-identical to the single-build SQL oracle — no physical merge."""
    from .search import FederatedReader

    a_idx, b_idx = _ensure_doc_segments(sf_dir)
    fr = FederatedReader([a_idx, b_idx], DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, fr.search, BM25_K))


def rescore_lm_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — rescoring API (ES ``rescore``,
    window 30, query_weight 1, rescore_weight 0.5): the BM25 top-window is
    re-scored with the LM-Dirichlet similarity over the SAME stored index
    (cross-similarity rescore) and the window re-ranked by the combined
    score.  The second query touches only the window docs
    (:meth:`IndexReader.scores_for_docs`) — the rescore cost is k-bounded,
    never a second full scan."""
    import dataclasses

    index_dir = build_documents_index(sf_dir)
    bm = IndexReader(index_dir, DOCS_CFG)
    lm = IndexReader(index_dir, dataclasses.replace(DOCS_CFG, scoring="lm_dirichlet"))
    rows = []
    for qid, text in BM25_QUERIES:
        window = bm.search(text, 30)
        if not window:
            continue
        lm_scores = lm.scores_for_docs(text, [d for d, _s, _u in window])
        combined = sorted(
            ((d, 1.0 * s + 0.5 * lm_scores[d], u) for d, s, u in window),
            key=lambda r: (-r[1], r[0]),
        )[:BM25_K]
        rows += _hit_rows(qid, combined)
    return _ranked_frame(rows)


def _term_major_reader(sf_dir: str):
    """A ``TermIndexReader`` over the term-major salted build of the
    documents index (rebuilt when absent or of an older format), with its
    doc lengths loaded."""
    from ..state.lineage import read_json
    from .term_index import TermIndexReader, build_term_index

    base = build_documents_index(sf_dir)
    tdir, stats = os.path.join(base, "term_index"), os.path.join(base, "stats")
    if (read_json(os.path.join(tdir, "_MANIFEST.json")) or {}).get("format") != 3:
        build_term_index(os.path.join(base, "doc_terms"), stats, tdir, DOCS_CFG, salt_block_postings=512, max_salts=8)
    reader = TermIndexReader(tdir, stats, DOCS_CFG)
    reader.load_doc_lengths()
    return reader


def _doc_topk_frame(queries, search) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) of ``search(text)``'s ``(doc id,
    score)`` hits for every ``(query_id, text)`` of ``queries``."""
    return _ranked_frame([
        (qid, rank, doc, round(score, 6))
        for qid, text in queries
        for rank, (doc, score) in enumerate(search(text), 1)
    ])


def bm25_topk_termindex(sf_dir: str) -> pd.DataFrame:
    """BM25 top-10 answered from the TERM-MAJOR salted index
    (groupby(term) shuffle + skew-aware salting, pipelines/term_index.py)
    — must be rank- and score-identical to the doc-sharded build and the
    SQL oracle."""
    reader = _term_major_reader(sf_dir)
    return _doc_topk_frame(BM25_QUERIES, lambda text: reader.search(text, BM25_K))


_FIELD_TITLE_TOKS = 8
_FIELD_BOOSTS = {"title": 2.0, "body": 1.0}


def _field_text(batch: pa.Table, field: str) -> pa.Table:
    """Deterministic multi-field projection of the documents corpus:
    title = the first 8 tokens, body = the rest — rebuilt as
    space-joined token strings so re-tokenizing a field yields exactly
    the SQL oracle's list-slice of the full token array.  All Arrow/numpy
    (token gather by flat index, binary_join); no per-token Python."""
    from ..tokenizer import Tokenizer

    import pyarrow.compute as pc

    enc = Tokenizer().tokenize_codes(batch.column("text").combine_chunks())
    if enc is None:
        raise NotImplementedError("field projection requires an invertible (char-class) token pattern")
    codes, _rows, vocab, dls = enc
    offs = np.zeros(dls.size + 1, dtype=np.int64)
    np.cumsum(dls, out=offs[1:])
    cut = np.minimum(offs[:-1] + _FIELD_TITLE_TOKS, offs[1:])
    starts, ends = (offs[:-1], cut) if field == "title" else (cut, offs[1:])
    lens = ends - starts
    idx = ranges(starts, lens)
    toks = vocab.take(pa.array(codes[idx])).cast(pa.string()) if idx.size else pa.array([], type=pa.string())
    loff = np.zeros(dls.size + 1, dtype=np.int64)
    np.cumsum(lens, out=loff[1:])
    lst = pa.LargeListArray.from_arrays(pa.array(loff, type=pa.int64()), toks)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "url": pa.array([f"doc://{i:010d}" for i in ids], type=pa.string()),
            "warc_ts": pa.array(np.zeros(len(batch), dtype=np.int64), type=pa.timestamp("us")),
            "text": pc.binary_join(lst, " "),
            "lang": batch.column("lang"),
        }
    )


def _field_reader(sf_dir: str, field: str) -> IndexReader:
    """Doc-sharded index over the ``field`` projection of the documents
    corpus (built once; num_buckets=1 keeps internal id == doc_id like
    the main documents index, and every doc keeps its id in every field,
    an empty field included)."""
    fdir = os.path.join(build_documents_index(sf_dir), f"field_{field}")
    corpus_path = os.path.join(fdir, "corpus_input.parquet")
    if not os.path.exists(corpus_path):
        os.makedirs(fdir, exist_ok=True)
        tmp = corpus_path + ".tmp"
        _docs(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
            _field_text, fn_kwargs={"field": field}, batch_format="pyarrow"
        ).write_parquet(tmp)
        os.rename(tmp, corpus_path)
    build_index(corpus_path, fdir, DOCS_CFG)
    return IndexReader(fdir, DOCS_CFG)


def _field_postings(r: IndexReader, term: str) -> tuple[np.ndarray, ...]:
    """(doc ids, tf, dl, BM25 impact) of ``term``'s postings in the field
    index ``r``, ascending by doc id."""
    tid = r.term_id.get(term)
    parts = [
        (sh.doc_ids[sh.post_local[s:e]], sh.post_tf[s:e].astype(np.float64), sh.dl[sh.post_local[s:e]], sh.post_w[s:e])
        for sh in r.shards
        for _qi, s, e, _row in sh._term_slices(np.asarray([] if tid is None else [tid], dtype=np.int64))
    ]
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(0), np.zeros(0)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _field_dl(r: IndexReader, docs: np.ndarray) -> np.ndarray:
    """Field lengths of the ascending doc ids ``docs`` in the field index
    ``r`` (0 where a doc is absent)."""
    out = np.zeros(docs.size)
    for sh in r.shards:
        if sh.n_local:
            pos = np.minimum(np.searchsorted(sh.doc_ids, docs), sh.n_local - 1)
            hit = sh.doc_ids[pos] == docs
            out[hit] = sh.dl[pos[hit]]
    return out


def search_fields(
    readers: dict[str, IndexReader],
    boosts: dict[str, float],
    text: str,
    k: int = 10,
    semantics: str = "most_fields",
    tie: float = 0.0,
) -> list[tuple[int, float]]:
    """Multi-field BM25 top-k over per-field doc-sharded indexes whose
    fields partition each doc's token stream, in ES ``multi_match``
    semantics:

    - ``most_fields``: Σ_f boost_f·BM25_f, each field scored with its own
      df/avgdl;
    - ``bm25f`` (Lucene ``BM25FQuery``): per term, the length-normalized
      boosted tfs Σ_f boost_f·tf_f/(1−b+b·dl_f/avgdl_f) share ONE
      saturation, with the whole-doc df;
    - ``cross_fields`` (Lucene ``BlendedTermQuery``): per term, each
      field's leg scores with df blended to max_f(df_f), and the legs
      combine as a dismax max + tie·(sum − max);
    - ``combined_fields`` (Lucene ``CombinedFieldQuery``): the fields merge
      into one pseudo-field (tf Σ_f boost_f·tf_f, dl Σ_f boost_f·dl_f,
      avgdl its mean) scored by one standard BM25.

    Each query term's postings are gathered per field as (doc id, tf, dl,
    impact) and combined over the matched docs only (np.unique +
    bincount): no array scales with the corpus.  Fields add up in
    ``boosts`` order and terms in np.unique order (most_fields: per field
    Σ_terms, then × boost, then Σ_fields), so scores are reproducible bit
    for bit.  (-score, doc_id) tie-break."""
    if semantics not in ("most_fields", "bm25f", "cross_fields", "combined_fields"):
        raise ValueError(f"unknown multi-field semantics {semantics!r}")
    fields = list(boosts)
    r0 = readers[fields[0]]
    n_docs, k1, b = r0.n_docs, r0.cfg.k1, r0.cfg.b
    toks = r0.tok.tokenize(text)
    if not toks:
        return []
    if semantics == "combined_fields":
        avgdlc = sum(boosts[f] * readers[f].sum_dl for f in fields) / n_docs if n_docs else 1.0
    uniq, qtfs = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    legs = [[_field_postings(readers[f], t) for f in fields] for t in uniq]
    if semantics == "most_fields":
        docs = [np.concatenate([leg[i][0] for leg in legs]) for i in range(len(fields))]
        cand, inv = np.unique(np.concatenate(docs), return_inverse=True)
        scores, offs = np.zeros(cand.size), np.cumsum([0] + [d.size for d in docs])
        for i, f in enumerate(fields):
            w = np.concatenate([leg[i][3] * float(qn) for leg, qn in zip(legs, qtfs)])
            scores += boosts[f] * np.bincount(inv[offs[i] : offs[i + 1]], weights=w, minlength=cand.size)
        top, top_scores = select_topk(cand, scores, k)
        return list(zip(top.tolist(), top_scores.tolist()))
    ids, contribs = [], []
    for leg, qn in zip(legs, qtfs):
        cand = np.unique(np.concatenate([g for g, *_ in leg]))
        if cand.size == 0:
            continue
        parts = [(f, np.searchsorted(cand, g), tf, dl, readers[f].avgdl) for f, (g, tf, dl, _w) in zip(fields, leg)]
        df = float(cand.size)
        if semantics == "cross_fields":
            df_blend = float(max(g.size for g, *_ in leg))
            idf = float(np.log1p((n_docs - df_blend + 0.5) / (df_blend + 0.5)))
            cur_max, cur_sum = np.zeros(cand.size), np.zeros(cand.size)
            for f, ix, tf, dl, avgdl in parts:
                w = np.zeros(cand.size)
                w[ix] = boosts[f] * idf * tf * (k1 + 1.0) / (tf + k1 * ((1.0 - b) + b * dl / avgdl))
                np.maximum(cur_max, w, out=cur_max)
                cur_sum += w
            contrib = float(qn) * (cur_max + tie * (cur_sum - cur_max))
        elif semantics == "bm25f":
            w = np.zeros(cand.size)
            for f, ix, tf, dl, avgdl in parts:
                w[ix] += boosts[f] * tf / ((1.0 - b) + b * dl / avgdl)
            idf = np.log1p((n_docs - df + 0.5) / (df + 0.5))
            contrib = float(qn) * idf * (k1 + 1.0) * w / (w + k1)
        else:  # combined_fields
            w, dlc = np.zeros(cand.size), np.zeros(cand.size)
            for f, ix, tf, _dl, _avgdl in parts:
                w[ix] += boosts[f] * tf
                dlc += boosts[f] * _field_dl(readers[f], cand)
            idf = np.log1p((n_docs - df + 0.5) / (df + 0.5))
            norm = (1.0 - b) + b * dlc / avgdlc
            contrib = float(qn) * idf * (k1 + 1.0) * w / (w + k1 * norm)
        ids.append(cand)
        contribs.append(contrib)
    if not ids:
        return []
    cand, inv = np.unique(np.concatenate(ids), return_inverse=True)
    top, top_scores = select_topk(cand, np.bincount(inv, weights=np.concatenate(contribs)), k)
    return list(zip(top.tolist(), top_scores.tolist()))


def _fields_topk(sf_dir: str, semantics: str, tie: float = 0.0) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — :func:`search_fields` top-10 of
    every BM25_QUERIES query under ``_FIELD_BOOSTS``."""
    boosts = _FIELD_BOOSTS
    readers = {f: _field_reader(sf_dir, f) for f in boosts}
    return _doc_topk_frame(BM25_QUERIES, lambda text: search_fields(readers, boosts, text, BM25_K, semantics, tie))


def bm25_fields_topk(sf_dir: str) -> pd.DataFrame:
    """Multi-field BM25 with field boosts (title×2.0 + body×1.0; title =
    first 8 tokens, body = the rest), ES ``most_fields``: per-field BM25
    with each field's own df/avgdl statistics, boosted and summed.  Rank-
    and score-identical to the per-field SQL BM25 oracle."""
    return _fields_topk(sf_dir, "most_fields")


def bm25f_topk(sf_dir: str) -> pd.DataFrame:
    """True BM25F (Robertson/Zaragoza 'simple BM25F'; Lucene
    ``BM25FQuery``): the per-field LENGTH-NORMALIZED boosted tfs are
    summed per (doc, term) FIRST and ONE shared saturation is applied to
    the combined value — contrast ``bm25_fields_topk``, which saturates
    per field.  idf uses the whole-document df (fields partition the
    token stream) over the shared corpus size."""
    return _fields_topk(sf_dir, "bm25f")


CROSS_FIELDS_TIE = 0.3


def cross_fields_topk(sf_dir: str) -> pd.DataFrame:
    """ES ``multi_match`` ``type: cross_fields`` (Lucene
    ``BlendedTermQuery``): each query TERM is scored per field with df
    blended to max_f(df_f) — a term rare in one field but common in
    another cannot dominate — and its per-field scores combine as a
    dismax, max + tie·(sum − max) (tie_breaker=CROSS_FIELDS_TIE); the
    per-term results sum over terms.  Per-field tf/dl/avgdl stay
    field-local and field boosts multiply the per-field leg."""
    return _fields_topk(sf_dir, "cross_fields", CROSS_FIELDS_TIE)


def bm25_topk_hashed(sf_dir: str) -> pd.DataFrame:
    """BM25 top-10 from a HASHED-VOCAB build (vocab_mode="hashed": term ids
    are 63-bit hashes, no term strings past the tokenizer — the 10^12-doc
    vocabulary path).  df/idf per term are identical to the sorted-vocab
    build, so this must match the same SQL oracle rank- and score-
    identically."""
    cfg = EngineConfig(shard_size=2000, num_buckets=1, vocab_mode="hashed")
    reader = _config_reader(sf_dir, cfg)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K))


PHRASE_QUERIES: list[tuple[str, str]] = [
    ("pq1", "order fast"),
    ("pq2", "stream column"),
    ("pq3", "big order scan"),
    ("pq4", "group slow spark"),
    ("pq5", "order order"),  # repeated-token phrase (qtf = 2)
    ("pq6", "zzz notaword"),  # OOV — empty result on both sides
]

PHRASE_DOCS_CFG = EngineConfig(shard_size=2000, num_buckets=1, store_forward=True)


def phrase_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — exact-phrase top-10 from a
    forward-enabled index (store_forward md5 token streams): boolean-AND
    candidates from the postings, adjacency verified against the streams,
    BM25 bag scoring; rank- and score-identical to the SQL oracle's
    substring-over-joined-tokens phrase filter."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(PHRASE_QUERIES, reader.search_phrase, BM25_K))


SPAN_QUERIES: list[tuple[str, str, int]] = [
    ("sq1", "order scan", 2),
    ("sq2", "fast key order", 3),
    ("sq3", "stream column", 0),  # slop=0 ≡ exact phrase
    ("sq4", "hash join batch", 6),
    ("sq5", "order zzznotaword", 1),  # OOV — empty on both sides
]


def span_near_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ordered span-near top-10
    (Lucene SpanNearQuery(inOrder=true, slop)) from the forward-enabled
    index: AND candidates from the postings, an in-order chain DP over the
    candidates' md5 token streams (latest-start segmented prefix max — one
    np.maximum.accumulate, no per-candidate loop), BM25 bag ranking."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SPAN_QUERIES, reader.search_span_near, BM25_K))


# (qid, include_text, exclude_term, slop) — ordered span-near minus an
# overlapping exclude term; nq4's exclude is OOV (≡ plain span-near) and
# nq5's include has an OOV token (empty on both sides)
SPAN_NOT_QUERIES: list[tuple[str, str, str, int]] = [
    ("nq1", "order scan", "table", 2),
    ("nq2", "fast key", "value", 3),
    ("nq3", "hash join", "a", 5),
    ("nq4", "stream column", "zzznotaword", 1),
    ("nq5", "order zzznotaword", "key", 1),
]


def span_not_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene ``SpanNotQuery`` top-10
    from the forward-enabled index: ordered span-near matches of the
    include terms whose span positions hold NO occurrence of the exclude
    term (a doc with every span poisoned does not match), BM25-bag-ranked
    over the include terms.  Same chain DP as span-near plus two
    searchsorted probes per completed span over the base-offset exclude
    positions — no per-span loop."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SPAN_NOT_QUERIES, reader.search_span_not, BM25_K))


# (qid, terms, max_gaps) — unordered all_of; iv5 has an OOV term (empty)
INTERVAL_QUERIES: list[tuple[str, str, int]] = [
    ("iv1", "scan order", 2),
    ("iv2", "key fast", 3),
    ("iv3", "column stream", 0),  # adjacency, either order
    ("iv4", "batch hash join", 5),
    ("iv5", "order zzznotaword", 1),
]


def intervals_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``intervals`` query,
    ``all_of(ordered: false, max_gaps)``: all terms within one window in
    ANY order with total internal gaps ≤ max_gaps (span_near is the
    ordered half).  Vectorized minimal-cover sweep over the candidates'
    forward streams (per-term segmented running max, one pass), BM25 bag
    ranking."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(INTERVAL_QUERIES, reader.search_intervals, BM25_K))


COMPLETION_PREFIXES: list[tuple[str, str]] = [
    ("c1", "s"),
    ("c2", "c"),
    ("c3", "b"),
    ("c4", "v"),
    ("c5", "a"),
    ("c6", "st"),
    ("c7", "zzz"),  # no completions
]

SPELL_TERMS: list[tuple[str, str]] = [
    ("m1", "ordr"),
    ("m2", "stram"),
    ("m3", "jion"),
    ("m4", "bip"),  # two candidates at different distances (big 1, dup 2)
    ("m5", "dat"),
    ("m6", "pert"),
    ("m7", "qqqqqqqq"),  # nothing within 2 edits
]


def suggest_completion(sf_dir: str) -> pd.DataFrame:
    """(sid, rank, term, cf, df) — completion suggester: prefix →
    dictionary terms ranked by collection frequency (two binary searches
    on the sorted vocab; postings untouched)."""
    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    rows = []
    for sid, prefix in COMPLETION_PREFIXES:
        for rank, (term, cf, df) in enumerate(reader.suggest_completion(prefix, 10), 1):
            rows.append((sid, rank, term, cf, df))
    return pd.DataFrame(rows, columns=["sid", "rank", "term", "cf", "df"])


def suggest_spelling(sf_dir: str) -> pd.DataFrame:
    """(sid, rank, term, dist, df) — term suggester / did-you-mean:
    misspelling → vocab candidates within 2 classical Levenshtein edits
    (vectorized DP over the length-banded dictionary), exact term
    excluded, ranked (distance, −df, term)."""
    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    rows = []
    for sid, term in SPELL_TERMS:
        for rank, (cand, dist, df) in enumerate(reader.suggest_spelling(term, 10, 2), 1):
            rows.append((sid, rank, cand, dist, df))
    return pd.DataFrame(rows, columns=["sid", "rank", "term", "dist", "df"])


PERC_QUERIES: list[tuple[str, str, str]] = [
    ("pc1", "order scan merge", "all"),
    ("pc2", "spark stream window", "all"),
    ("pc3", "dup zzznotaword", "all"),  # OOV conjunct — matches nothing
    ("pc4", "hash batch", "all"),
    ("pc5", "window dup", "any"),
    ("pc6", "zzznotaword column", "any"),  # only the live term can fire
]


PHRASE_SUGGEST_QUERIES: list[tuple[str, str]] = [
    ("dm0", "spakr joni ordr"),
    ("dm1", "window batch streem"),
    ("dm2", "fast hash join"),  # fully in-vocab -> identity
    ("dm3", "custoner lyne zzzzzzzz"),  # last token has no correction
]


def suggest_phrase(sf_dir: str) -> pd.DataFrame:
    """(sid, pos, token, suggestion, dist, df) — phrase / did-you-mean
    suggester (ES ``phrase`` suggester, term-by-term mode): every query
    token keeps itself when in-vocab (dist 0), otherwise takes the best
    correction within 2 classical Levenshtein edits by (distance asc, df
    desc, term asc) — the term suggester's ranking applied per position;
    tokens with no candidate keep themselves with dist = -1."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for sid, text in PHRASE_SUGGEST_QUERIES:
        for pos, t in enumerate(reader.tok.tokenize(text)):
            tid = reader.term_id.get(t)
            if tid is not None:
                rows.append((sid, pos, t, t, 0, int(reader.df[tid])))
                continue
            cands = reader.suggest_spelling(t, k=1, max_edits=2)
            if cands:
                st, d, df = cands[0]
                rows.append((sid, pos, t, st, int(d), int(df)))
            else:
                rows.append((sid, pos, t, t, -1, 0))
    return pd.DataFrame(rows, columns=["sid", "pos", "token", "suggestion", "dist", "df"])


MIXTURE_WEIGHTS = {"en": 1.0, "de": 0.5, "es": 0.25, "fr": 0.125, "zh": 0.0625}


def mixture_sample(sf_dir: str) -> pd.DataFrame:
    """(doc_id, lang) — training-mixture sampling: each language keeps a
    deterministic fraction of its docs (the temperature-weighted source
    mixing every pre-training pipeline runs before packing).  The accept
    test is the same multiplicative integer hash as ``dataset_splits``
    (u = (doc_id·K) mod 2^32; keep iff u < w·2^32) so the exact sample is
    SQL-replayable and shuffle-free — one streaming vectorized pass."""
    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    wmap = MIXTURE_WEIGHTS

    import pyarrow.compute as pc

    w_keys = pa.array(list(wmap.keys()), type=pa.string())
    w_vals = np.asarray(list(wmap.values()), dtype=np.float64)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        u = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        # dictionary gather instead of a per-row dict lookup: index_in maps
        # each lang to its weight slot (miss → weight 0)
        slot = (
            pc.fill_null(pc.index_in(batch.column("lang"), w_keys), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        w = np.where(slot >= 0, w_vals[np.maximum(slot, 0)], 0.0)
        thr = w * float(1 << 32)
        return batch.filter(pa.array(u.astype(np.float64) < thr))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def percolate_matches(sf_dir: str) -> pd.DataFrame:
    """(query_id, doc_id) — percolation (ES percolate / reverse search):
    six registered boolean queries matched against the streaming documents
    table.  Queries broadcast once (ray.put), docs stream through ONE
    map_batches pass: tokenize → distinct (doc, token) → searchsorted join
    on the compiled term table → per-(doc, query) matched-term count."""
    from .percolate import PercQuery, percolate

    qs = [PercQuery(qid, text, kind) for qid, text, kind in PERC_QUERIES]
    out = percolate(_docs(sf_dir, columns=["doc_id", "text"]), qs).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["query_id", "doc_id"], ignore_index=True)


def significant_terms(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, term, fg_df, bg_df, jlh_r) — significant-terms
    aggregation (ES significant_text, JLH) over each BM25 query's top-50
    hits: per-shard k-bounded foreground gather from the forward streams,
    vocab-bounded hash→term mapping, (fg%−bg%)·fg%/bg% scoring, top 10
    positive terms per query by (−jlh, term)."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        for rank, (term, fg_df, bg_df, jlh) in enumerate(reader.significant_terms(text, 50, 10), 1):
            rows.append((qid, rank, term, fg_df, bg_df, round(jlh, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "term", "fg_df", "bg_df", "jlh_r"])


def rare_terms(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, term, bg_df, fg_df) — rare-terms aggregation (ES
    rare_terms, sampler-bounded): long-tail terms (global df ≤ n_docs/5)
    present in each query's top-50 hits, ranked (df asc, term asc); the
    same k-bounded foreground gather as significant_terms."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        for rank, (term, bg_df, fg_df) in enumerate(reader.rare_terms(text, 50, reader.n_docs // 5, 10), 1):
            rows.append((qid, rank, term, bg_df, fg_df))
    return pd.DataFrame(rows, columns=["query_id", "rank", "term", "bg_df", "fg_df"])


NEAR_QUERIES: list[tuple[str, str, str, int]] = [
    ("nq1", "order", "scan", 3),
    ("nq2", "stream", "column", 2),
    ("nq3", "batch", "window", 5),
    ("nq4", "zzznotaword", "order", 2),  # OOV — empty on both sides
]


def near_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — proximity (NEAR/w) top-10 from
    the forward-enabled index: two-term AND candidates, min-gap verify over
    the merged occurrence positions, BM25 bag ranking."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(NEAR_QUERIES, reader.search_near, BM25_K))


NEURAL_DOCS_CFG = EngineConfig(shard_size=2000, num_buckets=1, encoder="neural")

# fixed path so the STATIC oracle SQL can read_parquet it; regenerated by
# neural_topk for whatever sf corpus the oracle is about to check
NEURAL_EXPANSION_SIDECAR = os.path.join(CACHE_ROOT_NOZONE, "neural_expansion.parquet")


def write_neural_expansion_sidecar(sf_dir: str, cfg: EngineConfig = NEURAL_DOCS_CFG) -> str:
    """Materialize the deterministic fake-MLM's expansion table —
    (term, j, tid, weight) for every distinct corpus token plus the
    contract query tokens (j=0 is the identity dim, weight 1.0) — so the
    SQL oracle can replay pooling → sparsify → BoW scoring as relational
    ops.  The table is the MODEL (token-level weights), not engine output:
    the oracle recomputes per-doc max-pool, top-k and score sums itself."""
    from ..stages.neural import expand_token_hashes
    from ..functions.hashing import hash_strings
    from ..tokenizer import Tokenizer

    base = build_documents_index(sf_dir)
    vocab = pq.read_table(os.path.join(base, "stats", "vocab.parquet"), columns=["term"])
    terms = set(vocab.column("term").to_pylist())
    tok = Tokenizer(cfg)
    for _qid, text in BM25_QUERIES:
        terms.update(tok.tokenize(text))
    terms_arr = np.asarray(sorted(terms), dtype=object)
    uh = hash_strings(terms_arr, seed=cfg.neural_seed)
    tids, weights = expand_token_hashes(uh, cfg)  # expansion-major: all j=0 first
    E, n = cfg.neural_expansions, terms_arr.size
    tbl = pa.table(
        {
            "term": pa.array(np.tile(terms_arr, E), type=pa.string()),
            "j": pa.array(np.repeat(np.arange(E, dtype=np.int32), n)),
            "tid": pa.array(tids.astype(np.int64)),
            "weight": pa.array(weights),
        }
    )
    os.makedirs(os.path.dirname(NEURAL_EXPANSION_SIDECAR), exist_ok=True)
    tmp = NEURAL_EXPANSION_SIDECAR + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, NEURAL_EXPANSION_SIDECAR)
    return NEURAL_EXPANSION_SIDECAR


def neural_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — SPLADE-style hash-expansion
    index + doc-only BoW top-10.  SQL-oracled via the expansion-table
    sidecar (:func:`write_neural_expansion_sidecar`): the oracle joins
    doc tokens to the token-level model table and replays max-pool,
    per-doc top-k sparsify and Σ qtf·w scoring relationally; the pytest
    rank-identity oracle in tests/test_neural.py stays as the second
    gate."""
    reader = _config_reader(sf_dir, NEURAL_DOCS_CFG)
    write_neural_expansion_sidecar(sf_dir, NEURAL_DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K, method="wand"))


def _external_ids(reader: IndexReader, docs: np.ndarray) -> list[int]:
    return [int(u.removeprefix("doc://")) for u in reader.url_of(np.asarray(docs, dtype=np.int64))]


def boolean_and_match(sf_dir: str) -> pd.DataFrame:
    """(query_id, doc_id) pairs where the doc contains EVERY query term —
    conjunctive boolean retrieval over the inverted index (postings
    intersection).  A query with an OOV term matches nothing."""
    from .metrics import conjunctive_match

    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        toks = set(reader.tok.tokenize(text))
        qtids, _ = reader.encode_query(text)
        docs = np.zeros(0, np.int64) if qtids.size < len(toks) else conjunctive_match(reader, text)
        for d in _external_ids(reader, docs):
            rows.append((qid, d))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"]).sort_values(
        ["query_id", "doc_id"], ignore_index=True
    )


def boolean_min_match(sf_dir: str) -> pd.DataFrame:
    """(query_id, doc_id) pairs where the doc matches AT LEAST 2 distinct
    query terms — disjunctive boolean retrieval with minimum_should_match=2
    (Lucene BooleanQuery OR floor).  Per shard one concatenated-postings
    bincount; contrast with `boolean_and_match`'s full intersection."""
    from .metrics import min_should_match

    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        for d in _external_ids(reader, min_should_match(reader, text, 2)):
            rows.append((qid, d))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"]).sort_values(
        ["query_id", "doc_id"], ignore_index=True
    )


def hybrid_topk(sf_dir: str) -> pd.DataFrame:
    """Hybrid sparse+dense retrieval via reciprocal-rank fusion: each text
    query's BM25 top-20 fuses with a paired dense query's brute-force
    cosine top-20 over the aligned embeddings table (vec_id == doc_id) —
    ``rrf(d) = Σ_lists 1/(60 + rank_d)``, fused top-10 with (-rrf, doc_id)
    ties.  The RRF constant 60 is the standard from Cormack et al.; both
    input rankings are the engine's already-oracle-checked paths, so the
    fusion layer is the only new code under test."""
    from .ann import brute_force_topk

    K_LIST, RRF_K0 = 20, 60
    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    emb, qrows, Q = _knn_queries(sf_dir, len(BM25_QUERIES))
    dense = brute_force_topk(emb, Q, k=K_LIST)
    rows = []
    for qi, (qid, text) in enumerate(BM25_QUERIES):
        rrf: dict[int, float] = {}
        for rank, (_d, _s, url) in enumerate(reader.search(text, K_LIST), 1):
            d = int(url.removeprefix("doc://"))
            rrf[d] = rrf.get(d, 0.0) + 1.0 / (RRF_K0 + rank)
        dq = dense[dense["query_idx"] == qi]
        for d, rank in zip(dq["vec_id"].tolist(), dq["rank"].tolist()):
            rrf[int(d)] = rrf.get(int(d), 0.0) + 1.0 / (RRF_K0 + int(rank))
        fused = sorted(rrf.items(), key=lambda kv: (-kv[1], kv[0]))[:BM25_K]
        rows.extend((qid, r, d, round(v, 6)) for r, (d, v) in enumerate(fused, 1))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "rrf_r"])


def _facet_counts(code_by_id: np.ndarray, ext: np.ndarray, n_values: int) -> np.ndarray:
    """Per-facet-value counts of the docs ``ext``; a doc id absent from
    documents.parquet (code -1) is in no bucket."""
    codes = code_by_id[ext]
    return np.bincount(codes[codes >= 0], minlength=n_values)


def search_facets(sf_dir: str) -> pd.DataFrame:
    """Faceted search counts: per query, the number of matching docs
    (>= 1 query term, i.e. the disjunctive candidate set) per ``lang``
    facet — the Lucene-facets aggregation over the match set rather than
    the top-k.  The doc->lang attribute rides ONE column-pruned read
    (dense doc_id positions -> one numpy gather per query; at cluster
    scale this is the per-shard doc-attribute column the facet module
    keeps alongside postings).  One query routes through
    :meth:`ShardedSearcher.facets` (per-actor counts, |facets| cells per
    actor to the driver) to pin driver/sharded parity."""
    from .metrics import min_should_match

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"])
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    # dictionary-encoded int codes, not an object array: the per-doc facet
    # attribute is 4 bytes/doc (the facet module's doc-values layout), and
    # per-query counting is one int gather + bincount
    enc = pc.dictionary_encode(tbl.column("lang").combine_chunks())
    vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    code_by_id = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int32)
    code_by_id[ids] = enc.indices.to_numpy(zero_copy_only=False).astype(np.int32)
    rows = []
    for qid, text in BM25_QUERIES:
        ext = np.asarray(_external_ids(reader, min_should_match(reader, text, 1)), dtype=np.int64)
        if ext.size == 0:
            continue
        counts = _facet_counts(code_by_id, ext, vocab.size)
        order = np.argsort(vocab.astype(str), kind="stable")
        rows.extend(
            (qid, str(vocab[i]), int(counts[i])) for i in order if counts[i] > 0
        )
    with _sharded(index_dir) as ss:
        q0, t0 = BM25_QUERIES[0]
        dist = ss.facets(t0, m=1)
    assert dist == {l: c for qid, l, c in rows if qid == q0}, "sharded facets diverged"
    return pd.DataFrame(rows, columns=["query_id", "lang", "n_docs"]).sort_values(
        ["query_id", "lang"], ignore_index=True
    )


def search_histogram(sf_dir: str) -> pd.DataFrame:
    """(query_id, bucket_lo, n_docs) — histogram aggregation (ES
    ``histogram``, interval 200 over the n_chars doc-value) of each
    query's disjunctive match set, served by the shard owners: each actor
    buckets its own matched docs, the driver sums |buckets| cells per
    actor — the match set never crosses the network."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for blo, n in ss.histogram(text, "n_chars", 200, 1):
                rows.append((qid, blo, n))
    return pd.DataFrame(rows, columns=["query_id", "bucket_lo", "n_docs"])


def build_sorted_documents_index(sf_dir: str) -> str:
    """Index-SORTED build (Lucene index sorting, sort = n_chars DESC):
    doc ids are assigned by sort-key rank, so the physical index order is
    the sort order and sort-by-field queries can early-terminate.

    The rank assignment is FULLY DISTRIBUTED — the composite sort key
    (n_chars DESC, doc_id ASC) packs into one monotone int64, rank =
    :func:`scan.ordered_prefix_sum` of ones over it (ONE sort exchange +
    one block-summary reduce + one streaming offset pass — the canonical
    distributed zip-with-index, and the same cost Lucene pays: index
    sorting reorders every flushed segment).  The original doc_id and the
    sort value ride the corpus as doc-value columns, so serving resolves
    hits with k-bounded point reads."""
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|{DOCS_CFG}|sorted_v2".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT_NOZONE, f"docs_sidx_{key}")
    corpus_path = os.path.join(out, "corpus_input.parquet")
    if not os.path.exists(corpus_path):
        os.makedirs(out, exist_ok=True)
        from .scan import ordered_prefix_sum

        def keyed(batch: pa.Table) -> pa.Table:
            did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            nch = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
            # monotone composite: (n_chars DESC, doc_id ASC) -> one int64.
            # Packing holds only for nch < 2^20 and did < 2^40 — fail
            # loudly instead of silently corrupting the sort order
            # (ADVICE r3): widen the packing before indexing bigger docs.
            if nch.size and (int(nch.max()) >= (1 << 20) or int(did.max()) >= (1 << 40)):
                raise ValueError(
                    "sorted-index composite key overflow: need n_chars < 2^20 "
                    f"and doc_id < 2^40, got max n_chars={int(nch.max())}, "
                    f"max doc_id={int(did.max())}"
                )
            skey = ((np.int64(1) << np.int64(20)) - nch) << np.int64(40) | did
            ones = np.ones(len(batch), dtype=np.int64)
            return batch.append_column("sort_key", pa.array(skey)).append_column(
                "one", pa.array(ones)
            )

        ranked = ordered_prefix_sum(
            _docs(sf_dir, columns=["doc_id", "text", "lang", "n_chars"]).map_batches(
                keyed, batch_format="pyarrow"
            ),
            "one",
            "sort_key",
            out_col="cum",
        )

        def to_corpus(batch: pa.Table) -> pa.Table:
            ranks = batch.column("cum").to_numpy(zero_copy_only=False).astype(np.int64) - 1
            urls = pa.array([f"doc://{r:010d}" for r in ranks], type=pa.string())
            n = len(batch)
            return pa.table(
                {
                    "url": urls,
                    "warc_ts": pa.array(np.zeros(n, dtype=np.int64), type=pa.timestamp("us")),
                    "text": batch.column("text"),
                    "lang": batch.column("lang"),
                    "orig_id": batch.column("doc_id"),
                    "n_chars": batch.column("n_chars"),
                }
            )

        tmp = corpus_path + ".tmp"
        ranked.map_batches(to_corpus, batch_format="pyarrow").write_parquet(tmp)
        os.rename(tmp, corpus_path)
    build_index(corpus_path, out, DOCS_CFG)
    return out


def sorted_index_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, n_chars) — sort-by-field retrieval with
    EARLY TERMINATION off the index-sorted build: the first 10 matching
    internal ids ARE the global (n_chars DESC, doc_id ASC) top-10, found
    by a k-way posting walk that stops at the 10th match (vs
    ``match_sorted_by_dl``, which collects per-shard top-k over the full
    match set).  Hits resolve to (orig doc_id, n_chars) via a k-bounded
    url-predicate point read of the corpus doc-values — the same pattern
    the sharded snippet path uses."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    index_dir = build_sorted_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    corpus = os.path.join(index_dir, "corpus_input.parquet")
    per_query: dict[str, list[int]] = {}
    all_urls: set[str] = set()
    for qid, text in BM25_QUERIES:
        hits, _touched = reader.search_index_ordered(text, BM25_K)
        per_query[qid] = hits
        all_urls.update(f"doc://{r:010d}" for r in hits)
    # pin driver/sharded parity under per-owner early termination
    with _sharded(index_dir) as ss:
        q0, t0 = BM25_QUERIES[0]
        assert ss.search_index_ordered(t0, BM25_K) == per_query[q0], (
            "sharded index-ordered walk diverged"
        )
    if all_urls:
        tbl = pads.dataset(corpus).to_table(
            columns=["url", "orig_id", "n_chars"],
            filter=pc.field("url").isin(sorted(all_urls)),
        )
        by_url = {
            u: (int(o), int(c))
            for u, o, c in zip(
                tbl.column("url").to_pylist(),
                tbl.column("orig_id").to_pylist(),
                tbl.column("n_chars").to_pylist(),
            )
        }
    else:
        by_url = {}
    rows = []
    for qid, _text in BM25_QUERIES:
        for rank, internal in enumerate(per_query.get(qid, []), 1):
            o, c = by_url[f"doc://{internal:010d}"]
            rows.append((qid, rank, o, c))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "n_chars"])


TERMS_AGG_SHARD_SIZE = 5  # per-shard bucket budget (small -> visible error bounds)
TERMS_AGG_TOP = 10


def terms_agg_shards(sf_dir: str) -> pd.DataFrame:
    """(term, doc_count, err_bound) — the ES ``terms`` aggregation's
    distributed approximation WITH its honesty contract: every shard
    returns only its local top-``shard_size`` terms by df, the
    coordinator sums counts over the shards that reported each candidate,
    and ``doc_count_error_upper_bound`` = Σ over non-reporting shards of
    that shard's smallest returned count (0 for a shard that returned
    its entire term list — it omitted nothing).  Top
    ``TERMS_AGG_TOP`` by (merged count desc, term asc).

    The per-shard dfs come straight off the postings segment lengths
    (zero decoding); term-asc tie-breaks are term-id order because the
    vocab is sorted.  Deterministic shard layout (doc_id // shard_size)
    makes the whole approximation — including the error bounds —
    SQL-replayable, which is the point: the oracle checks the
    approximation's exact contract, not just its happy path."""
    index_dir = build_documents_index(sf_dir)
    # consolidate=False: the aggregation's semantics are defined by the
    # PHYSICAL segment layout (one coordinator round per segment owner);
    # the consolidated in-memory view would collapse it to one shard
    reader = IndexReader(index_dir, DOCS_CFG, consolidate=False)
    S = TERMS_AGG_SHARD_SIZE
    per_shard: list[dict[int, int]] = []
    mins: list[tuple[int, bool]] = []  # (min reported count, shard was truncated)
    for sh in reader.shards:
        dfs = np.diff(sh.term_ptr)
        tids = sh.term_ids
        order = np.lexsort((tids, -dfs))[:S]
        top = {int(tids[i]): int(dfs[i]) for i in order}
        per_shard.append(top)
        truncated = tids.size > S
        mins.append((min(top.values()) if top else 0, truncated))
    cand = sorted(set().union(*[set(t) for t in per_shard]))
    rows = []
    for tid in cand:
        cnt = sum(t.get(tid, 0) for t in per_shard)
        err = sum(m for t, (m, trunc) in zip(per_shard, mins) if tid not in t and trunc)
        rows.append((str(reader.vocab_index[tid]), cnt, err))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return pd.DataFrame(rows[:TERMS_AGG_TOP], columns=["term", "doc_count", "err_bound"])


SAMPLER_QUERY = "stream order data"
SAMPLER_SHARD_SIZE = 100  # ES sampler.shard_size: top-scored docs kept per shard


def sampler_agg(sf_dir: str) -> pd.DataFrame:
    """(lang, n_docs, avg_chars_r) — the ES ``sampler`` aggregation:
    sub-aggregations run over only the top-``shard_size`` BM25-scored
    docs PER SHARD for the query (the "aggregate over the best matches
    only" budget device), here a per-lang doc_count + avg(n_chars).

    Like :func:`terms_agg_shards` the semantics are defined by the
    PHYSICAL segment layout (consolidate=False), and the deterministic
    doc-id assignment (shard = doc_id // shard_size) makes the per-shard
    sample cut itself SQL-replayable.  Each shard owner ships at most
    ``shard_size`` (doc, score) rows; attributes resolve via ONE
    column-pruned filtered read of the documents table — the sample is
    k·n_shards-bounded no matter the corpus size."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG, consolidate=False)
    qtids, qw = reader.encode_query(SAMPLER_QUERY)
    sample: list[np.ndarray] = []
    for sh in reader.shards:
        docs, _scores = sh.score_exhaustive(qtids, qw, SAMPLER_SHARD_SIZE)
        sample.append(docs)
    ids = np.unique(np.concatenate(sample)) if sample else np.zeros(0, np.int64)
    import pyarrow.dataset as pads

    docs_t = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"],
        filter=pads.field("doc_id").isin(ids.tolist()),  # pushed to the scan
    ).to_pandas()
    g = docs_t.groupby("lang", sort=True).agg(n_docs=("doc_id", "size"), avg_chars=("n_chars", "mean"))
    return pd.DataFrame(
        {
            "lang": g.index.to_numpy(),
            "n_docs": g["n_docs"].to_numpy().astype(np.int64),
            "avg_chars_r": np.round(g["avg_chars"].to_numpy(), 6),
        }
    )


RANDOM_SCORE_SEED = "rnd7"


def random_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — function_score random_score
    (ES seeded deterministic random ranking, used for sampled relevance
    audits): each matching doc (>= 1 query term) scores
    md5('seed|doc_id')/2^64 — an md5-replayable uniform in [0,1) — and the
    top 10 by (-score, doc_id) are returned.  Per-doc hashing is
    driver-free in spirit: the hash depends only on the doc id, so at
    scale each shard owner hashes its own match set and ships k rows."""
    from .metrics import min_should_match
    from ..functions.hashing import md5_u64

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        ext = np.asarray(_external_ids(reader, min_should_match(reader, text, 1)), dtype=np.int64)
        if ext.size == 0:
            continue
        h = md5_u64([f"{RANDOM_SCORE_SEED}|{d}" for d in ext])
        score = h.astype(np.float64) / float(2**64)
        order = np.lexsort((ext, -score))[:BM25_K]
        for rank, i in enumerate(order, 1):
            rows.append((qid, rank, int(ext[i]), round(float(score[i]), 6)))
    return _ranked_frame(rows)


def search_cardinality(sf_dir: str) -> pd.DataFrame:
    """(query_id, n_sources) — cardinality aggregation (ES ``cardinality``,
    exact flavor) over each query's disjunctive match set: the number of
    distinct ``source`` values among matching docs.  Each shard owner
    ships only its locally-seen value set (bounded by |sources|, not by
    the match size); the driver unions the keys — the same merge the
    facet module already performs, so the match set never crosses the
    network.  The approximate path for unbounded-cardinality fields is
    the HLL sketch (``approx_distinct_trigrams``)."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            f = ss.facets(text, m=1, attr_col="source")
            if f:
                rows.append((qid, len(f)))
    return pd.DataFrame(rows, columns=["query_id", "n_sources"])


PCTRANK_VALUES = (500, 1000, 1500)


def percentile_ranks(sf_dir: str) -> pd.DataFrame:
    """(query_id, value, pct) — percentile_ranks aggregation (ES
    ``percentile_ranks``, exact flavor): for each fixed n_chars value,
    the percentage of each query's matching docs (>= 1 term) whose
    n_chars is <= that value.  Per-shard counting shape: each owner
    ships |values| counters + its match size; here the doc-value gather
    rides the same column-pruned read as ``search_facets``."""
    from .metrics import min_should_match

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"])
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    nch = np.zeros(int(ids.max()) + 1 if ids.size else 0, dtype=np.int64)
    nch[ids] = tbl.column("n_chars").to_numpy(zero_copy_only=False)
    rows = []
    for qid, text in BM25_QUERIES:
        ext = np.asarray(_external_ids(reader, min_should_match(reader, text, 1)), dtype=np.int64)
        if ext.size == 0:
            continue
        vals = nch[ext]
        for v in PCTRANK_VALUES:
            pct = 100.0 * float((vals <= v).sum()) / float(vals.size)
            rows.append((qid, v, round(pct, 6)))
    return pd.DataFrame(rows, columns=["query_id", "value", "pct"])


INCR_DEDUP_CUT_FRAC = 0.8


def incremental_dedup_kept(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """(doc_id) — incremental-crawl ingestion dedup: the last 20% of doc
    ids play the NEW batch, the first 80% the already-indexed corpus.  A
    new doc is kept iff (a) no existing doc has identical text and (b) it
    is the smallest-id holder of its text within the new batch.

    Engine shape: :func:`splade_ray.pipelines.dedup.incremental_dedup`
    behind the same auto-switch as ``resolve_dedup_mode`` — broadcast of
    the existing fingerprint set (``ray.put`` once, 8 B/doc) while the
    existing corpus fits the limit, else the tag+union shuffle semi-join
    on coarse content-hash buckets (nothing corpus-sized on one node).
    ``mode`` forces a path for the broadcast==shuffle parity checks."""
    from .dedup import incremental_dedup
    from ..config import DEFAULT_CONFIG

    n_total = _n_docs(sf_dir)
    cut = int(n_total * INCR_DEDUP_CUT_FRAC)

    out = incremental_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]).filter(expr=f"doc_id < {cut}"),
        _docs(sf_dir, columns=["doc_id", "text"]).filter(expr=f"doc_id >= {cut}"),
        mode=mode,
        existing_rows=cut,
        broadcast_row_limit=DEFAULT_CONFIG.broadcast_row_limit,
    ).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def incremental_dedup_bloom(sf_dir: str) -> pd.DataFrame:
    """(doc_id) — :func:`incremental_dedup_kept` forced through the BLOOM
    path: a Bloom filter over the NEW batch's content hashes (16 bits/row,
    k=4) broadcasts at a quarter of the raw hash-set size and prunes the
    EXISTING side of the exchange to ≈ |true dups| + 0.24% FP rows — the
    10^12-doc corpus never moves; false positives die in the per-bucket
    TEXT semi-join, so the kept set (and the SQL oracle) is identical to
    the broadcast/shuffle modes."""
    return incremental_dedup_kept(sf_dir, mode="bloom")


def incremental_ingest_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — the FULL continuous-crawl
    ingestion loop, end-to-end: the first 80% of doc ids are the already
    indexed corpus (segment A); the last 20% arrive as a new crawl batch,
    pass through :func:`splade_ray.pipelines.dedup.incremental_dedup`
    (broadcast/shuffle auto-switch), and the survivors build a SECOND
    segment with continued doc numbering; queries then federate over both
    segments (no physical merge — the segment is searchable the moment it
    lands).  Must be rank- AND score-identical to a single BM25 build
    over (existing ∪ kept-new) — the oracle recomputes the dedup election
    and the union-corpus BM25 in SQL.

    This is the production shape at 10^12 docs: dedup exchange → segment
    build (both streaming) → query-time federation, nothing re-indexed."""
    base_dir = build_documents_index(sf_dir)
    corpus_path = os.path.join(base_dir, "corpus_input.parquet")
    out = os.path.join(base_dir, "incremental")
    a_idx, b_idx = os.path.join(out, "segA"), os.path.join(out, "segB")
    if not os.path.exists(os.path.join(b_idx, "stats", "meta.json")):
        import pyarrow.compute as pc

        kept = incremental_dedup_kept(sf_dir)["doc_id"].to_numpy()
        corpus = pq.read_table(corpus_path)
        ids = np.asarray(
            [int(u.removeprefix("doc://")) for u in corpus.column("url").to_pylist()],
            dtype=np.int64,
        )
        n_total = _n_docs(sf_dir)
        cut = int(n_total * INCR_DEDUP_CUT_FRAC)
        os.makedirs(out, exist_ok=True)
        a_path, b_path = os.path.join(out, "a.parquet"), os.path.join(out, "b.parquet")
        pq.write_table(corpus.filter(pa.array(ids < cut)), a_path)
        pq.write_table(corpus.filter(pa.array(np.isin(ids, kept))), b_path)
        n_a = pq.read_metadata(a_path).num_rows
        build_index(a_path, a_idx, DOCS_CFG, doc_id_base=0)
        build_index(b_path, b_idx, DOCS_CFG, doc_id_base=n_a)
    from .search import FederatedReader

    fr = FederatedReader([a_idx, b_idx], DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, fr.search, BM25_K))


UPSERT_SUFFIX = " update revision pass"


def upsert_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — document UPSERT lifecycle (ES
    ``_update`` / re-crawl refresh, pre-merge): every 10th doc is
    re-crawled with revised text (original + ``UPSERT_SUFFIX``).  The
    revisions land as a NEW segment; the stale versions are tombstoned in
    the base segment at query time (no rewrite of the base index), and
    federated search serves the union — the new revision is searchable
    the moment its segment lands, the stale version never surfaces.

    Statistics follow Lucene tombstone semantics: union df/n_docs/avgdl
    are frozen over BOTH versions until a physical merge purges the
    tombstones (`bm25_topk_merged_purged` certifies the post-merge half
    of the lifecycle).  The SQL oracle recomputes exactly that: stats
    over originals ∪ revisions, candidates restricted to live rows."""
    from .search import FederatedReader
    from ..state.lineage import read_json

    base = build_documents_index(sf_dir)
    corpus_path = os.path.join(base, "corpus_input.parquet")
    b_idx = os.path.join(base, "upsert", "segB")
    if not os.path.exists(os.path.join(b_idx, "stats", "meta.json")):
        corpus = pq.read_table(corpus_path)
        ids = np.asarray(
            [int(u.removeprefix("doc://")) for u in corpus.column("url").to_pylist()],
            dtype=np.int64,
        )
        upd = corpus.filter(pa.array(ids % 10 == 0))
        new_text = pc.binary_join_element_wise(upd.column("text"), UPSERT_SUFFIX, "")
        upd = upd.set_column(upd.schema.get_field_index("text"), "text", new_text)
        if "n_chars" in upd.column_names:
            upd = upd.set_column(
                upd.schema.get_field_index("n_chars"), "n_chars", pc.utf8_length(new_text).cast(pa.int64())
            )
        os.makedirs(os.path.dirname(b_idx), exist_ok=True)
        b_path = os.path.join(base, "upsert", "b.parquet")
        pq.write_table(upd, b_path)
        n_base = int(read_json(os.path.join(base, "stats", "meta.json"))["n_docs"])
        build_index(b_path, b_idx, DOCS_CFG, doc_id_base=n_base)

    stale_urls = pq.read_table(os.path.join(base, "upsert", "b.parquet"), columns=["url"])
    fr = FederatedReader([base, b_idx], DOCS_CFG, deletes=[stale_urls.column("url").to_pylist(), None])
    return _ranked_frame(_ranked_rows(BM25_QUERIES, fr.search, BM25_K))


PIT_SUFFIX = " point in time revision"


def pit_topk(sf_dir: str) -> pd.DataFrame:
    """(view, query_id, rank, doc_id, score_r) — ES point-in-time reads
    over the generations manifest (``state/generations.py``, Lucene
    ``segments_N``): generation 1 commits the base segment alone; an
    upsert of every 7th doc (text + ``PIT_SUFFIX``) builds a new segment
    and commits generation 2 = [base ⊕ tombstones, segB].  The PIT handle
    pins generation 1 and its reader is constructed AFTER generation 2
    committed — isolation lives in the immutable manifest, not in reader
    construction order.  'pit' rows therefore equal the pre-mutation BM25
    top-k; 'live' rows equal the post-upsert union under frozen union
    statistics (``upsert_topk`` semantics at modulus 7)."""
    from .search import FederatedReader
    from ..state.generations import commit_generation, latest_generation
    from ..state.lineage import read_json

    base = build_documents_index(sf_dir)
    b_idx = os.path.join(base, "pit", "segB")
    b_path = os.path.join(base, "pit", "b.parquet")
    if latest_generation(base) is None:
        commit_generation(base, [base])  # generation 1: the base commit point
    if not os.path.exists(os.path.join(b_idx, "stats", "meta.json")):
        corpus = pq.read_table(os.path.join(base, "corpus_input.parquet"))
        ids = np.asarray(
            [int(u.removeprefix("doc://")) for u in corpus.column("url").to_pylist()],
            dtype=np.int64,
        )
        upd = corpus.filter(pa.array(ids % 7 == 0))
        new_text = pc.binary_join_element_wise(upd.column("text"), PIT_SUFFIX, "")
        upd = upd.set_column(upd.schema.get_field_index("text"), "text", new_text)
        if "n_chars" in upd.column_names:
            upd = upd.set_column(
                upd.schema.get_field_index("n_chars"), "n_chars", pc.utf8_length(new_text).cast(pa.int64())
            )
        os.makedirs(os.path.dirname(b_idx), exist_ok=True)
        pq.write_table(upd, b_path)
        n_base = int(read_json(os.path.join(base, "stats", "meta.json"))["n_docs"])
        build_index(b_path, b_idx, DOCS_CFG, doc_id_base=n_base)
        stale = pq.read_table(b_path, columns=["url"]).column("url").to_pylist()
        commit_generation(base, [base, b_idx], deletes=[stale, None])
    live = FederatedReader.from_generation(base, DOCS_CFG)  # latest commit (gen 2)
    pit = FederatedReader.from_generation(base, DOCS_CFG, gen=1)  # pinned commit point
    rows = []
    # round-6 contract order (the lm/collapse convention): the mod-7
    # revision corpus produces fp-epsilon near-ties inside the top-10
    # (observed at sf0.1), so both sides rank on (-round6, doc_id)
    for view, reader in (("live", live), ("pit", pit)):
        for qid, text in BM25_QUERIES:
            for rank, (_doc, score, url) in enumerate(_rounded_topk(reader, text), 1):
                rows.append((view, qid, rank, int(url.removeprefix("doc://")), round(score, 6)))
    return pd.DataFrame(rows, columns=["view", "query_id", "rank", "doc_id", "score_r"])


COMPOSITE_PAGE_SIZE = 10


def composite_buckets(sf_dir: str) -> pd.DataFrame:
    """(page, lang, source, n_docs) — composite aggregation with after-key
    paging (ES ``composite``): ALL (lang, source) buckets of the corpus,
    streamed out in pages of ``COMPOSITE_PAGE_SIZE`` in composite-key
    order, each page resuming strictly after the previous page's last key
    (the ``after`` cursor).

    Engine shape: the bucket table is computed in ONE streaming pass —
    per-batch Arrow group_by partials (each block ships at most
    |lang|x|source| cells) reduced on the driver — then the after-key
    cursor pages over it exactly as a client would: every page re-applies
    ``key > after`` rather than slicing, so the cursor semantics (the
    bit that matters for resumable extraction at scale) are executed,
    not simulated."""
    ds = _docs(sf_dir, columns=["lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(["lang", "source"]).aggregate([("lang", "count")])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    buckets = (
        parts.groupby(["lang", "source"], sort=True)["lang_count"]
        .sum()
        .reset_index()
        .rename(columns={"lang_count": "n_docs"})
    )
    keys = list(buckets.itertuples(index=False, name=None))  # sorted (lang, source, n)
    rows = []
    after: tuple | None = None
    page = 0
    while True:
        if after is None:
            chunk = keys[:COMPOSITE_PAGE_SIZE]
        else:
            chunk = [t for t in keys if (t[0], t[1]) > after][:COMPOSITE_PAGE_SIZE]
        if not chunk:
            break
        rows.extend((page, lang, src, int(n)) for lang, src, n in chunk)
        after = (chunk[-1][0], chunk[-1][1])
        page += 1
    return pd.DataFrame(rows, columns=["page", "lang", "source", "n_docs"])


def events_moving_avg(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, mavg3) — date_histogram + moving-average pipeline
    aggregation (ES ``date_histogram`` + ``moving_fn``): daily event
    counts on a GAP-FREE day axis (empty days emit 0, the
    min_doc_count=0 contract) and a trailing 3-day mean including the
    current bucket.  One streaming pass of per-batch day-count partials
    (bounded by the date span per block); the pipeline stage runs on the
    bucket series, which is coordinator-sized by construction."""
    series = _day_series(sf_dir)
    mavg = series.rolling(3, min_periods=1).mean()
    return pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": series.to_numpy().astype("int64"),
            "mavg3": mavg.round(6).to_numpy(),
        }
    )


def matrix_stats(sf_dir: str) -> pd.DataFrame:
    """Per event_type matrix stats (ES ``matrix_stats``) between ``value``
    and hour-of-day: count, means, population variances, covariance and
    correlation.  One streaming pass: per-batch moment partials
    (n, Σx, Σy, Σx², Σy², Σxy) keyed by dictionary-encoded event_type —
    a fixed 6·|types| cells per block — summed on the driver; nothing
    shuffles.  Hour-of-day keeps the second moment small so the
    sum-of-squares form stays well-conditioned (the raw-epoch variant
    would need centered partials)."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "ts", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        dic = batch.column("event_type").combine_chunks().dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        types = dic.dictionary
        x = batch.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        y = pc.hour(batch.column("ts")).to_numpy(zero_copy_only=False).astype(np.float64)
        m = len(types)
        return pa.table(
            {
                "event_type": types,
                "n": np.bincount(codes, minlength=m).astype(np.int64),
                "sx": np.bincount(codes, weights=x, minlength=m),
                "sy": np.bincount(codes, weights=y, minlength=m),
                "sxx": np.bincount(codes, weights=x * x, minlength=m),
                "syy": np.bincount(codes, weights=y * y, minlength=m),
                "sxy": np.bincount(codes, weights=x * y, minlength=m),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("event_type", sort=True).sum().reset_index()
    n = agg["n"].to_numpy().astype(np.float64)
    mx, my = agg["sx"] / n, agg["sy"] / n
    vx = agg["sxx"] / n - mx * mx
    vy = agg["syy"] / n - my * my
    cov = agg["sxy"] / n - mx * my
    corr = cov / np.sqrt(vx * vy)
    return pd.DataFrame(
        {
            "event_type": agg["event_type"],
            "n": agg["n"].astype("int64"),
            "mean_value": mx.round(6),
            "var_value": vx.round(6),
            "mean_hour": my.round(6),
            "var_hour": vy.round(6),
            "cov_vh": cov.round(6),
            "corr_vh": corr.round(6),
        }
    )


def doc_term_vectors(sf_dir: str) -> pd.DataFrame:
    """(doc_id, term, tf, df) — term-vectors API (ES _termvectors): per-doc
    term stats for a fixed doc set, decoded k-bounded from the requested
    docs' forward streams only (one run-length pass per shard owner),
    df from the stored global stats."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    rows = reader.term_vectors(TERMVEC_DOC_IDS)
    return pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df"])


TERMVEC_DOC_IDS = [0, 1, 2, 5, 17, 123456789]  # last id unknown -> skipped


def decay_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — function-score retrieval with a
    gauss decay on the n_chars doc-value (ES function_score/gauss, origin
    1000, scale 500, decay 0.5): BM25 × exp(−(attr−origin)²/(2σ²)) inside
    the shard owners before local top-k."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(BM25_QUERIES, ss.search_decay, BM25_K, "n_chars", 1000.0, 500.0)
    return _ranked_frame(rows)


def top_hits_by_lang(sf_dir: str) -> pd.DataFrame:
    """(query_id, lang, rank, doc_id, score_r) — top-hits-per-bucket (ES
    terms agg + top_hits, size 3): each lang bucket's 3 best BM25 hits,
    served by the shard owners (≤ 3·|langs| cells per actor)."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for lang, rank, doc, score in ss.search_top_hits(text, "lang", 3):
                rows.append((qid, lang, rank, doc, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "lang", "rank", "doc_id", "score_r"])


PERCENTILE_QS = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]


def price_percentiles(sf_dir: str) -> pd.DataFrame:
    """(q, value) — EXACT distributed percentiles of lineitem
    l_extendedprice by iterative histogram refinement: O(buckets) cells
    per block per round, ~2-4 streaming scans total, never a global sort
    (percentile_disc semantics — rank max(1, ceil(q·n)))."""
    from .quantile import exact_percentiles

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"), columns=["l_extendedprice"])
    got = exact_percentiles(ds, "l_extendedprice", PERCENTILE_QS, buckets=256, gather_limit=20_000)
    return pd.DataFrame(got, columns=["q", "value"])


ADJ_FILTERS: list[tuple[str, str, int]] = [
    ("a_order", "order scan", 1),
    ("b_stream", "stream window", 2),
    ("c_spark", "spark merge", 1),
    ("d_oov", "zzznotaword", 1),  # matches nothing — absent from output
]


def adjacency_matrix(sf_dir: str) -> pd.DataFrame:
    """(name_a, name_b, n_docs) — adjacency-matrix aggregation (ES
    adjacency_matrix): pairwise co-match doc counts of named boolean
    filters, computed per shard owner as one boolean match matrix + one
    M×M matmul; M² cells per actor cross the network, never match sets."""
    with _sharded(build_documents_index(sf_dir)) as ss:
        rows = ss.adjacency_matrix(ADJ_FILTERS)
    return pd.DataFrame(rows, columns=["name_a", "name_b", "n_docs"]).sort_values(
        ["name_a", "name_b"], ignore_index=True
    )


def retrieval_metrics_at10(sf_dir: str) -> pd.DataFrame:
    """Per-query RR/Recall/nDCG @10 of the BM25 run against conjunctive-
    containment qrels (reference A5 metric semantics, binary relevance;
    queries without qrels dropped per M13)."""
    from .metrics import retrieval_metrics

    run = bm25_topk(sf_dir)[["query_id", "rank", "doc_id"]]
    qrels = boolean_and_match(sf_dir)
    out = retrieval_metrics(run, qrels, k=10)
    for c in ("rr_at_k", "recall_at_k", "ndcg_at_k"):
        out[c] = out[c].round(6)
    return out


# ------------------------------------------------------- text aggregates
def _doc_term_counts(batch: pa.Table) -> pa.Table:
    """(terms, dl) per doc of a text batch: the index build's df input."""
    from ..stages.encode import term_count_table
    from ..tokenizer import Tokenizer

    terms, _tfs, dls = term_count_table(batch.column("text").to_pylist(), Tokenizer())
    return pa.table({"terms": terms, "dl": pa.array(dls)})


def _corpus_vocab(sf_dir: str) -> pd.DataFrame:
    """The documents text's vocab table (term, df, ...) from the index
    build's df pass."""
    from ..stages.stats import compute_vocab

    return compute_vocab(_docs(sf_dir, columns=["text"]).map_batches(_doc_term_counts, batch_format="pyarrow"))


def term_df_top100(sf_dir: str) -> pd.DataFrame:
    """Top-100 terms by (df desc, term asc) over documents."""
    vocab = _corpus_vocab(sf_dir)
    vocab = vocab.sort_values(["df", "term"], ascending=[False, True], kind="mergesort").head(100)
    return vocab[["term", "df"]].reset_index(drop=True)


def token_counts(sf_dir: str) -> pd.DataFrame:
    from .textops import token_stats

    out = token_stats(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return out[["doc_id", "n_tokens"]].sort_values("doc_id", ignore_index=True)


def quality_scores(sf_dir: str) -> pd.DataFrame:
    from .textops import token_stats

    out = token_stats(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    out["mean_token_len"] = out["mean_token_len"].round(6)
    out["stopword_ratio"] = out["stopword_ratio"].round(6)
    return out[["doc_id", "n_tokens", "mean_token_len", "stopword_ratio"]].sort_values(
        "doc_id", ignore_index=True
    )


def doc_stats_by_lang(sf_dir: str) -> pd.DataFrame:
    out = (
        _docs(sf_dir, columns=["lang", "n_chars"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Mean("n_chars", alias_name="avg_chars"))
        .to_pandas()
    )
    out["avg_chars"] = out["avg_chars"].round(6)
    return out.sort_values("lang", ignore_index=True)


def lang_source_counts(sf_dir: str) -> pd.DataFrame:
    out = (
        _docs(sf_dir, columns=["lang", "source"])
        .groupby(["lang", "source"])
        .aggregate(Count(alias_name="n_docs"))
        .to_pandas()
    )
    return out.sort_values(["lang", "source"], ignore_index=True)


def top_docs_by_chars(sf_dir: str) -> pd.DataFrame:
    out = (
        _docs(sf_dir, columns=["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    return out[["doc_id", "n_chars"]]


def top_docs_per_lang(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Grouped top-k (the window-rank family: row_number() <= k per
    partition): top-k docs per lang by (n_chars desc, doc_id asc).
    Partial top-k inside every batch, final top-k over langs × k × blocks
    candidate rows — driver work is bounded by group count, never corpus
    size (the same partial+final discipline as running_stats)."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
        return pa.Table.from_pandas(df.groupby("lang", sort=False).head(k), preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
    out = parts.groupby("lang", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("lang").cumcount() + 1
    return out[["lang", "rank", "doc_id", "n_chars"]]


def chars_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles (p50/p90/p99 of n_chars per lang) via
    per-batch value counts: the shuffle carries one (lang, n_chars, count)
    row per distinct value per batch — bounded by value cardinality, not
    rows — and the driver interpolates percentile_cont semantics
    (linear, position (n-1)·q) from the merged counts.  The
    bounded-cardinality assumption is explicit: for unbounded continuous
    values swap the count table for a t-digest-style sketch."""
    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(["lang", "n_chars"]).size().rename("cnt").reset_index()
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    merged = parts.groupby(["lang", "n_chars"], sort=True)["cnt"].sum().reset_index()

    def q_of(vals: np.ndarray, cum: np.ndarray, q: float) -> float:
        n = cum[-1]
        p = (n - 1) * q
        lo, hi = int(np.floor(p)), int(np.ceil(p))
        v_lo = vals[np.searchsorted(cum, lo + 1)]
        v_hi = vals[np.searchsorted(cum, hi + 1)]
        return float(v_lo) + (p - lo) * (float(v_hi) - float(v_lo))

    rows = []
    for lang, g in merged.groupby("lang", sort=True):
        vals = g["n_chars"].to_numpy()
        cum = g["cnt"].to_numpy().cumsum()
        rows.append(
            (lang, *(round(q_of(vals, cum, q), 6) for q in (0.5, 0.9, 0.99)))
        )
    return pd.DataFrame(rows, columns=["lang", "p50", "p90", "p99"])


def docs_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP aggregate — (lang, source), (lang), () levels in ONE pass:
    the finest-grain cells are combiner partials (bounded by
    |langs|×|sources| per batch) and the coarser levels are derived from
    the merged cells driver-side, since the measures are additive.  NULL
    group keys mark rolled-up levels, as in SQL ROLLUP."""
    ds = _docs(sf_dir, columns=["lang", "source", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["lang", "source"], sort=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    fine = parts.groupby(["lang", "source"], sort=True).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")
    ).reset_index()
    by_lang = fine.groupby("lang", sort=True).agg(n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum")).reset_index()
    by_lang["source"] = None
    total = pd.DataFrame(
        {"lang": [None], "source": [None], "n_docs": [fine["n_docs"].sum()], "sum_chars": [fine["sum_chars"].sum()]}
    )
    out = pd.concat([fine, by_lang, total], ignore_index=True)[["lang", "source", "n_docs", "sum_chars"]]
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    return out.sort_values(["lang", "source"], ignore_index=True, na_position="first")


def source_lang_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot / crosstab: one row per source, one count column per language
    (fixed column set — pivots at scale are a bounded-cardinality reduce).

    Engine shape: per-batch pandas crosstab partials (the combiner — each
    batch emits at most |sources|×|langs| cells) summed on the driver; the
    corpus streams through one map_batches, nothing is shuffled."""
    langs = ["de", "en", "es", "fr", "zh"]
    ds = _docs(sf_dir, columns=["source", "lang"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(batch["source"], batch["lang"])
        ct["__total"] = ct.sum(axis=1)
        return ct.reset_index().melt(id_vars="source", var_name="lang", value_name="cnt")

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    merged = parts.groupby(["source", "lang"], sort=True)["cnt"].sum().unstack(fill_value=0)
    out = pd.DataFrame({"source": merged.index})
    for lang in langs:
        out[f"n_{lang}"] = merged[lang].to_numpy() if lang in merged else 0
    out["n_total"] = merged["__total"].to_numpy()
    return out.sort_values("source", ignore_index=True)


# ------------------------------------------------------------------ dedup
def dedup_exact_kept(sf_dir: str) -> pd.DataFrame:
    from .dedup import exact_dedup

    kept = exact_dedup(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return kept[["doc_id"]].sort_values("doc_id", ignore_index=True)


def exact_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """(id_a, id_b) pairs of distinct docs with byte-identical text: the
    coarse content-hash bucket exchange of ``exact_dedup`` (never
    groupby(content_hash), whose groups are corpus-count), then per bucket
    the collision emitter over equal hashes, text-verified."""
    from .ann import _empty
    from .dedup import _content_bucket, _sorted_pairs, _text_dup_pairs

    out = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_content_bucket, batch_format="pyarrow")
        .groupby("dedup_bucket")
        .map_groups(_text_dup_pairs, fn_kwargs={"text_col": "text", "id_col": "doc_id"}, batch_format="pyarrow")
        .to_pandas()
    )
    return _sorted_pairs(out, _empty(id_a=np.int64, id_b=np.int64))


# minhash_pairs and dedup_clusters consume the IDENTICAL pair set; memoize
# per sf_dir so a session running both (driver, bench) pays the LSH +
# verify once.  Pair-scale memory; deterministic, so order doesn't matter.
_MINHASH_PAIR_CACHE: dict[str, pd.DataFrame] = {}


def _minhash_pairs_for(sf_dir: str) -> pd.DataFrame:
    from .dedup import minhash_lsh_pairs

    key = os.path.abspath(sf_dir)
    if key not in _MINHASH_PAIR_CACHE:
        _MINHASH_PAIR_CACHE[key] = minhash_lsh_pairs(
            _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.5, bands=32
        )
    return _MINHASH_PAIR_CACHE[key].copy()


def minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """bands=32 (r=4) so LSH recall at the data's jaccard range (>=0.9) is
    1-(1-0.9^4)^32 ~ 1-1e-15 — the brute-force SQL oracle must match
    exactly, so the banding is sized for near-certain recall and the exact
    Jaccard verify discards the extra candidates."""
    out = _minhash_pairs_for(sf_dir)
    out["jaccard"] = out["jaccard"].round(6)
    return out


def dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Connected components over the exact-verified MinHash near-dup pairs
    (identical pair set to ``minhash_pairs``): every clustered doc with
    its canonical (min-id) representative and cluster size — the cluster
    election step of a dedup pipeline."""
    from .dedup import connected_components

    return connected_components(_minhash_pairs_for(sf_dir))


def dedup_clusters_dist(sf_dir: str) -> pd.DataFrame:
    """`dedup_clusters` FORCED through the distributed large-star/
    small-star path (coarse node-bucket exchanges, no driver edge list) —
    same pair set, same SQL oracle, so the driver gate certifies the
    distributed rounds produce the identical clustering the recursive-CTE
    transitive closure does."""
    from .dedup import connected_components

    return connected_components(_minhash_pairs_for(sf_dir), mode="distributed", nbuckets=32)


def dedup_near_kept(sf_dir: str) -> pd.DataFrame:
    """The near-dup pipeline's FINAL output: the corpus with every
    non-canonical cluster member suppressed (keep a doc iff it is its
    cluster's min-id representative, or clustered with nothing).  The
    cluster assignment is pair-scale, so the drop set broadcasts into one
    filtering map_batches over the corpus — at 100 TB this is exactly the
    tombstone-set shape (drop list ≪ corpus).  Returns (doc_id, lang,
    n_chars) of kept docs."""
    from .dedup import _member_filter, connected_components

    clusters = connected_components(_minhash_pairs_for(sf_dir))
    drop = np.sort(clusters.loc[clusters["doc_id"] != clusters["cluster_id"], "doc_id"].to_numpy(np.int64))
    out = (
        _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
        .map_batches(
            _member_filter,
            fn_kwargs={"col": "doc_id", "sorted_ref": ray.put(drop), "members": False},
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    return out.sort_values("doc_id", ignore_index=True)


def ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """EXACT n-gram Jaccard dedup (no LSH): the inverted-shingle-index
    all-pairs join — must equal both the brute-force SQL oracle AND
    minhash_pairs' LSH output on this data."""
    from .dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(_docs(sf_dir, columns=["doc_id", "text"]), threshold=0.5)
    out["jaccard"] = out["jaccard"].round(6)
    return out


def simhash_pairs(sf_dir: str) -> pd.DataFrame:
    from .dedup import simhash_near_dup_pairs

    return simhash_near_dup_pairs(_docs(sf_dir, columns=["doc_id", "text"]), max_hamming=3)


def embedding_near_dups(sf_dir: str) -> pd.DataFrame:
    from .dedup import embedding_near_dup_pairs

    out = embedding_near_dup_pairs(_emb(sf_dir), threshold=0.98)
    out["cosine"] = out["cosine"].round(6)
    return out


# ---------------------------------------------------------------- vectors
def _knn_queries(sf_dir: str, n: int = 5) -> tuple[rd.Dataset, pd.DataFrame, np.ndarray]:
    """The kNN query set: (the embeddings dataset, its ``n`` smallest-vec_id
    rows — the oracle's ``ORDER BY vec_id LIMIT n`` — and their float64
    query matrix)."""
    from .ann import _as_matrix, _smallest_id_rows

    ds = _emb(sf_dir)
    rows = _smallest_id_rows(ds, n, what="the kNN query set")
    return ds, rows.to_pandas(), _as_matrix(rows.column("embedding"))


def _knn_frame(out: pd.DataFrame, qrows: pd.DataFrame, *scores: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, <score>_r, ...) of a kNN result keyed
    by ``query_idx`` into ``qrows``, each of ``scores`` (default
    ``score``) rounded to 6 decimals."""
    scores = scores or ("score",)
    out["query_vec_id"] = qrows["vec_id"].to_numpy()[out["query_idx"].to_numpy()]
    for c in scores:
        out[f"{c}_r"] = out[c].round(6)
    return out[["query_vec_id", "rank", "vec_id", *(f"{c}_r" for c in scores)]]


def knn_cosine(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 of the first 5 vectors against the corpus
    (self-match included — SQL can reproduce it)."""
    from .ann import brute_force_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = brute_force_topk(ds, Q, k=10)
    return _knn_frame(out, qrows)


def knn_int8_rescore(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, coarse_r, score_r) — two-phase
    quantized kNN (ES ``int8`` quantized vectors + ``rescore_vector``
    oversample): phase 1 ranks the whole corpus by the per-vector-int8
    approximate cosine and keeps the top 30 (k=10 × oversample 3) per
    query; phase 2 fetches ONLY those candidates and re-ranks them with
    the exact float cosine.  The round-half-up quantization and the
    approximate-score arithmetic are SQL-replayable, so the oracle
    reproduces candidate sets, both scores, and the final ranking."""
    from .ann import quantized_rescore_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = quantized_rescore_topk(ds, Q, k=10, oversample=3)
    return _knn_frame(out, qrows, "coarse", "score")


def semdedup_kept(sf_dir: str) -> pd.DataFrame:
    """(vec_id, cluster, kept) — SemDeDup semantic dedup (Abbas et al.
    2023): deterministic k-means (k=4, 3 iterations, min-id seeding) over
    the embedding table, then within-cluster cosine >= 0.98 against any
    smaller-id cluster member drops a vector.  The oracle unrolls the
    same Lloyd iterations in SQL (as in ``kmeans_clusters``) and replays
    the drop rule as an EXISTS over within-cluster pairs."""
    from .dedup import semdedup

    return semdedup(_emb(sf_dir), k=4, iters=3, threshold=0.98)


def knn_cosine_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered vector search (ES ``knn`` with ``filter``): brute-force
    cosine top-10 of the first 5 query vectors against ONLY the corpus
    vectors with ``label = 3`` — a pre-filter, so the candidate mask is
    applied inside each scoring batch before the matmul (the ANN analogue
    of the metadata-filtered BM25 path ``bm25_topk_filtered``)."""
    import pyarrow.compute as pc

    from .ann import brute_force_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    filtered = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("label"), 3)), batch_format="pyarrow"
    )
    out = brute_force_topk(filtered, Q, k=10)
    return _knn_frame(out, qrows)


def knn_cosine_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF top-k with nprobe == n_clusters: probing every inverted list is
    an exhaustive scan, so the result must be EXACTLY the brute-force
    ranking — this puts the IVF routing/assign/partial-merge machinery
    under the same SQL oracle as knn_cosine (recall < 1 configurations are
    covered by the pytest recall-floor test)."""
    from .ann import IVFIndex

    ds, qrows, Q = _knn_queries(sf_dir)
    idx = IVFIndex(n_clusters=8, nprobe=8).fit_assign(ds, sample_fraction=0.5)
    out = idx.search(Q, k=10)
    return _knn_frame(out, qrows)


def knn_cosine_ivf_disk(sf_dir: str) -> pd.DataFrame:
    """IVF served from the ON-DISK partitioned layout (`IVFIndex.save` /
    `load`: one parquet directory per cluster; probe pruning = directory
    pruning, non-probed lists cost zero IO).  nprobe == n_clusters again
    makes it exhaustive, so the same brute-force SQL oracle applies —
    certifying the save/load/partition-read path end to end.

    The on-disk index is a PERSISTENT artifact (build once, serve many —
    the IVF contract): the fit+save cycle runs only when the cached index
    is absent (guarded on the manifest, written atomically last), every
    later call opens and probes the existing layout.  The exhaustive
    oracle holds regardless of which fit produced the lists."""
    from .ann import IVFIndex
    from ..state.lineage import read_json as _read_json

    ds, qrows, Q = _knn_queries(sf_dir)
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|ivf8".encode()).hexdigest()[:12]
    cache = os.path.join(CACHE_ROOT_NOZONE, f"ivf_disk_{key}")
    if _read_json(os.path.join(cache, "_MANIFEST.json")) is None:
        idx = IVFIndex(n_clusters=8, nprobe=8).fit_assign(ds, sample_fraction=0.5)
        idx.save(cache)
    disk = IVFIndex.load(cache)
    out = disk.search(Q, k=10)
    return _knn_frame(out, qrows)


def lang_id_preds(sf_dir: str) -> pd.DataFrame:
    from .textops import lang_id

    out = lang_id(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return out[["doc_id", "lang_pred"]].sort_values("doc_id", ignore_index=True)


def doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    from .textops import fingerprints

    out = fingerprints(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def doc_keywords(sf_dir: str) -> pd.DataFrame:
    """Per-doc top-5 keywords by tf-idf (distributed df reduce + broadcast
    scoring) — the keyword-extraction step of a curation pipeline."""
    from .textops import tfidf_top_terms

    out = tfidf_top_terms(_docs(sf_dir, columns=["doc_id", "text"]), k=5).to_pandas()
    out["tfidf"] = out["tfidf"].round(6)
    return out.sort_values(["doc_id", "rank"], ignore_index=True)


def doc_chunks(sf_dir: str) -> pd.DataFrame:
    """Overlapping token-window chunks (W=16, S=12) — the
    context-window splitting step of a pre-training data pipeline."""
    from .textops import chunk_tokens

    out = chunk_tokens(_docs(sf_dir, columns=["doc_id", "text"]), window=16, stride=12).to_pandas()
    return out.sort_values(["doc_id", "chunk_idx"], ignore_index=True)


def bigram_pmi(sf_dir: str) -> pd.DataFrame:
    """Top-30 token-bigram collocations by PMI (pair count ≥ 3) —
    vocabulary/phrase mining over the corpus."""
    import pyarrow.parquet as pq

    from .textops import bigram_pmi_top

    n_docs = _n_docs(sf_dir)
    width = None if n_docs > 100_000 else max(8, n_docs // 10_000)
    out = bigram_pmi_top(_docs(sf_dir, columns=["doc_id", "text"]), k=30, min_count=3, shuffle_width=width)
    out["pmi"] = out["pmi"].round(6)
    return out


def textrank_keywords(sf_dir: str) -> pd.DataFrame:
    """Top-30 corpus keywords by TextRank (PageRank over the undirected
    adjacent-token co-occurrence graph, 3 power iterations, d=0.85) — the
    iterations unroll into the SQL oracle like kmeans_clusters."""
    import pyarrow.parquet as pq

    from .textops import textrank_keywords as tr

    n_docs = _n_docs(sf_dir)
    width = None if n_docs > 100_000 else max(8, n_docs // 10_000)
    return tr(_docs(sf_dir, columns=["doc_id", "text"]), k=30, shuffle_width=width)


def packed_bins(sf_dir: str) -> pd.DataFrame:
    """Token-budget packing: sequential-fill docs (doc_id order) into
    256-token bins via the distributed ordered prefix sum."""
    import pyarrow.parquet as pq

    from .scan import pack_bins
    from .textops import token_stats

    counts = token_stats(_docs(sf_dir, columns=["doc_id", "text"])).select_columns(["doc_id", "n_tokens"])
    # data-proportional sort width (the scan's one all-to-all)
    n_docs = _n_docs(sf_dir)
    if n_docs <= 100_000:
        counts = counts.repartition(max(8, n_docs // 10_000))
    out = pack_bins(counts, "n_tokens", "doc_id", capacity=256).to_pandas()
    return out[["doc_id", "n_tokens", "bin_id"]].sort_values("doc_id", ignore_index=True)


def curation_kept(sf_dir: str) -> pd.DataFrame:
    """Docs surviving the fused one-pass curation filter (token count,
    dup-token fraction, stopword band, repetition run), with their
    signals."""
    from .textops import curation_filter

    out = curation_filter(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    out["dup_token_frac"] = out["dup_token_frac"].round(6)
    out["stopword_ratio"] = out["stopword_ratio"].round(6)
    return out.sort_values("doc_id", ignore_index=True)


def dup_spans(sf_dir: str) -> pd.DataFrame:
    """Exact repeated-passage detection (Lee et al. 2022 signal): per doc,
    the count/fraction of its 5-token spans that also appear verbatim in
    at least one OTHER document."""
    import pyarrow.parquet as pq

    from .textops import duplicate_spans

    # data-proportional sort-exchange width (footer row count — the
    # all-to-all costs O(width²) tasks, pure overhead at small inputs);
    # past ~100k docs the natural block count is already right
    n_docs = _n_docs(sf_dir)
    width = None if n_docs > 100_000 else max(8, n_docs // 10_000)
    out = duplicate_spans(_docs(sf_dir, columns=["doc_id", "text"]), window=5, shuffle_width=width).to_pandas()
    out["dup_frac"] = out["dup_frac"].round(6)
    return out.sort_values("doc_id", ignore_index=True)


def dedup_cut_spans(sf_dir: str) -> pd.DataFrame:
    """Exact substring dedup, CUT variant: tokens covered by a cross-doc
    duplicated 5-token span are removed everywhere except the span's
    canonical (min-doc_id) owner; returns per-doc kept/cut counts and the
    cleaned token stream."""
    import pyarrow.parquet as pq

    from .textops import cut_duplicate_spans

    n_docs = _n_docs(sf_dir)
    width = None if n_docs > 100_000 else max(8, n_docs // 10_000)
    out = cut_duplicate_spans(
        _docs(sf_dir, columns=["doc_id", "text"]), window=5, shuffle_width=width
    ).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def doc_perplexity(sf_dir: str) -> pd.DataFrame:
    """CCNet-style quality signal: per-doc cross-entropy / perplexity under
    the corpus's own unigram LM (combiner-reduced counts, broadcast
    log-prob table, one streaming scoring pass)."""
    from .textops import unigram_lm_scores

    out = unigram_lm_scores(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    out["cross_entropy"] = out["cross_entropy"].round(6)
    out["ppl"] = out["ppl"].round(6)
    return out.sort_values("doc_id", ignore_index=True)


def ccnet_buckets(sf_dir: str) -> pd.DataFrame:
    """(lang, bucket, n_docs, doc_id_sum, ppl_min_r, ppl_max_r) — CCNet's
    per-language perplexity bucketing (Wenzek et al. 2020): every language's
    docs are split into head/middle/tail TERCILES of the unigram-LM
    perplexity distribution (head = lowest perplexity = highest quality),
    exact ntile(3) semantics over (round(ppl, 6) ASC, doc_id ASC).

    Scale shape: one LM fit + scoring pass over the corpus (text dropped
    immediately after — the streamed intermediate is 4 narrow columns),
    then ONE segmented (lang, key) range-partition sort with block-summary
    rank assignment (:func:`splade_ray.pipelines.scan.segmented_rank` —
    driver state is one row per block×segment, never per doc; one
    all-to-all regardless of language count), a streaming ntile map with
    the broadcast per-language totals, and 3-bucket combiner partials.
    The sort key packs round(ppl·1e6) above doc_id and asserts both
    fields fit (ppl < 2^30 µunits, doc_id < 2^33) so an oversized value
    fails loudly.

    ``doc_id_sum`` fingerprints the exact bucket membership."""
    from .scan import segmented_rank
    from .textops import unigram_lm_scores

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    scored = unigram_lm_scores(ds, keep_cols=("lang",))

    def keyed(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ppl = batch.column("ppl").to_numpy(zero_copy_only=False)
        pplu = np.rint(np.round(ppl, 6) * 1e6).astype(np.int64)
        if did.size and (int(pplu.max()) >= (1 << 30) or int(did.max()) >= (1 << 33)):
            raise ValueError("ccnet bucket key overflow: ppl or doc_id out of packing range")
        return pa.table(
            {
                "lang": batch.column("lang"),
                "doc_id": pa.array(did),
                "ppl_r": pa.array(pplu / 1e6),
                "key": pa.array((pplu << 33) | did),
            }
        )

    sub = scored.map_batches(keyed, batch_format="pyarrow")
    ranked = segmented_rank(sub, "lang", "key", out_col="rnk")
    counts = {
        r["lang"]: int(r["count()"])
        for r in ranked.groupby("lang").count().to_pandas().to_dict("records")
    }
    counts_ref = ray.put(counts)

    def to_bucket(batch: pa.Table) -> pa.Table:
        nmap = cached_ref(counts_ref)
        langs = batch.column("lang").to_pandas().to_numpy()
        r = batch.column("rnk").to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.asarray([nmap[s] for s in langs], dtype=np.int64)
        q, rem = n // 3, n % 3
        head = rem * (q + 1)
        b = np.where(
            r <= head,
            (r - 1) // np.maximum(q + 1, 1),
            rem + (r - 1 - head) // np.maximum(q, 1),
        )
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ppl = batch.column("ppl_r").to_numpy(zero_copy_only=False)
        # per-(lang, bucket) combiner partial: count, id-sum, ppl min/max
        out = {"lang": [], "bucket": [], "n": [], "dsum": [], "pmin": [], "pmax": []}
        for lg in np.unique(langs):
            lm = langs == lg
            for bi in np.unique(b[lm]):
                m = lm & (b == bi)
                out["lang"].append(str(lg))
                out["bucket"].append(int(bi))
                out["n"].append(int(m.sum()))
                out["dsum"].append(int(did[m].sum()))
                out["pmin"].append(float(ppl[m].min()))
                out["pmax"].append(float(ppl[m].max()))
        return pa.table({k: pa.array(v) for k, v in out.items()})

    parts = ranked.map_batches(to_bucket, batch_format="pyarrow").to_pandas()
    names = ["head", "middle", "tail"]
    g = parts.groupby(["lang", "bucket"])
    agg = pd.DataFrame(
        {
            "n_docs": g["n"].sum(),
            "doc_id_sum": g["dsum"].sum(),
            "ppl_min_r": g["pmin"].min().round(6),
            "ppl_max_r": g["pmax"].max().round(6),
        }
    ).reset_index()
    agg = agg.sort_values(["lang", "bucket"], ignore_index=True)
    return pd.DataFrame(
        {
            "lang": agg["lang"],
            "bucket": [names[int(b)] for b in agg["bucket"]],
            "n_docs": agg["n_docs"].astype(int),
            "doc_id_sum": agg["doc_id_sum"].astype(int),
            "ppl_min_r": agg["ppl_min_r"].astype(float),
            "ppl_max_r": agg["ppl_max_r"].astype(float),
        }
    )


def approx_distinct_trigrams(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog sketch: approximate count of distinct token trigrams in
    the corpus (2^10 registers, md5-hash-replayable, combiner partials)."""
    from .textops import approx_distinct_trigrams as hll

    out = hll(_docs(sf_dir, columns=["doc_id", "text"]))
    out["estimate"] = out["estimate"].round(6)
    return out


def kmeans_clusters(sf_dir: str) -> pd.DataFrame:
    """Distributed Lloyd k-means (k=4, 3 iterations, deterministic init =
    the 4 smallest vec_ids): per-vector final assignment + squared
    distance — the iterative-algorithm showcase, SQL-replayable by
    unrolling the iterations."""
    from .ann import kmeans_assign

    out = kmeans_assign(_emb(sf_dir), k=4, iters=3).to_pandas()
    out["dist"] = out["dist"].round(6)
    return out.sort_values("vec_id", ignore_index=True)


def label_centroids(sf_dir: str) -> pd.DataFrame:
    """Vector aggregate: per-label element-wise centroid of the embedding
    column, long format (label, dim, centroid, n_vecs).

    List-typed columns can't ride Ray groupbys (Acero rejects them), so
    the shape is combiner partials: each batch reshapes the list array
    ZERO-COPY (flat values → (n, d) view), accumulates per-label sum
    matrices, and ships label×dim-bounded partials to a driver combine."""
    ds = _emb(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        n = len(emb)
        if n == 0:
            return pa.table(
                {
                    "label": pa.array([], type=pa.int64()),
                    "dim": pa.array([], type=pa.int64()),
                    "vsum": pa.array([], type=pa.float64()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        d = len(emb[0])
        mat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64).reshape(n, d)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        ulab, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((ulab.size, d), dtype=np.float64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv, minlength=ulab.size).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ulab, d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), ulab.size)),
                "vsum": pa.array(sums.ravel()),
                "cnt": pa.array(np.repeat(cnt, d)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["label", "dim"], sort=True).agg(vsum=("vsum", "sum"), cnt=("cnt", "sum")).reset_index()
    g["centroid"] = (g["vsum"] / g["cnt"]).round(6)
    g["n_vecs"] = g.pop("cnt").astype("int64")
    return g[["label", "dim", "centroid", "n_vecs"]]


_EMAIL_PAT = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
_PHONE_PAT = r"\+1-[0-9]{3}-[0-9]{4}"


def pii_redacted(sf_dir: str) -> pd.DataFrame:
    """PII scrubbing (C4-style cleanup): vectorized RE2 redaction of
    email/phone patterns in one streaming map_batches — counts plus the
    redacted text.  The synthetic corpus carries no PII, so each doc gets
    a deterministic contact line appended first (doc_id-derived, so the
    SQL oracle reconstructs the identical input)."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        contact = pa.array(
            [f" contact user{i}@example.com or +1-555-{i % 10000:04d}" for i in ids], type=pa.string()
        )
        txt = pc.binary_join_element_wise(pc.fill_null(batch.column("text"), ""), contact, "")
        n_emails = pc.count_substring_regex(txt, _EMAIL_PAT)
        n_phones = pc.count_substring_regex(txt, _PHONE_PAT)
        red = pc.replace_substring_regex(txt, _EMAIL_PAT, "<EMAIL>")
        red = pc.replace_substring_regex(red, _PHONE_PAT, "<PHONE>")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_emails": n_emails.cast(pa.int64()),
                "n_phones": n_phones.cast(pa.int64()),
                "redacted": red,
            }
        )

    out = ds.map_batches(stage, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def dataset_splits(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split assignment (80/10/10): one
    multiplicative-hash comparison per row, partition-invariant, no
    shuffle — the standard dataset-split op of a training-data pipeline."""
    ds = _docs(sf_dir, columns=["doc_id"])
    hi = np.uint64(4294967296)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids * np.uint64(1597334677)) % hi
        split = np.where(h * np.uint64(10) < hi * np.uint64(8), "train",
                         np.where(h * np.uint64(10) < hi * np.uint64(9), "val", "test"))
        return pa.table({"doc_id": batch.column("doc_id"), "split": pa.array(split, type=pa.string())})

    out = ds.map_batches(assign, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def cms_counts(sf_dir: str) -> pd.DataFrame:
    """Count-min-sketch term-frequency estimates (w=64 so collisions are
    visible) probed for every distinct term, with the exact counts and
    the sketch's one-sided overestimate."""
    from .textops import cms_term_counts

    return cms_term_counts(_docs(sf_dir, columns=["doc_id", "text"]), d=4, w=64)


def curated_corpus(sf_dir: str) -> pd.DataFrame:
    """Resumable partitioned curated-corpus WRITE (per-partition lineage +
    resume pushdown into the scan), verified by reading the written
    partitions back."""
    from .curate import curate_corpus, read_curated

    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    out_dir = os.path.join(CACHE_ROOT_NOZONE, f"curated_{key}")
    curate_corpus(os.path.join(sf_dir, "documents.parquet"), out_dir, n_partitions=16)
    t = read_curated(
        out_dir, columns=["doc_id", "n_tokens", "dup_token_frac", "stopword_ratio", "max_run_len"]
    ).to_pandas()
    t["part_id"] = (t["doc_id"] % 16).astype("int64")
    t["dup_token_frac"] = t["dup_token_frac"].round(6)
    t["stopword_ratio"] = t["stopword_ratio"].round(6)
    return t[["doc_id", "part_id", "n_tokens", "dup_token_frac", "stopword_ratio", "max_run_len"]].sort_values(
        "doc_id", ignore_index=True
    )


def repetition_scores(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition filters (dup-token fraction, top-bigram
    fraction, longest token run) — the classic pre-training quality
    signals, one vectorized map_batches pass."""
    from .textops import repetition_stats

    out = repetition_stats(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    out["dup_token_frac"] = out["dup_token_frac"].round(6)
    out["top_bigram_frac"] = out["top_bigram_frac"].round(6)
    return out.sort_values("doc_id", ignore_index=True)


# benchmark membership: Knuth multiplicative hash on doc_id, ~4% of docs
# (the same integer comparison the SQL oracle replays)
_BENCH_MULT, _BENCH_MOD = np.uint64(2654435761), np.uint64(4294967296)
_BENCH_THRESH = np.uint64(171798691)


def _bench_split(batch: pa.Table, keep_bench: bool) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        m = (ids * _BENCH_MULT) % _BENCH_MOD < _BENCH_THRESH
    return batch.filter(pa.array(m if keep_bench else ~m))


def contamination_overlap(sf_dir: str) -> pd.DataFrame:
    """Benchmark-decontamination check (GPT-3/PaLM style): fraction of each
    corpus doc's distinct token trigrams that appear in a held-out
    "benchmark" subset (a deterministic ~4% doc sample standing in for an
    eval suite).  Benchmark trigram set is a ray.put broadcast; the corpus
    side streams through one membership map_batches — no shuffle."""
    from functools import partial

    from .textops import contamination_check

    bench = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        partial(_bench_split, keep_bench=True), batch_format="pyarrow"
    )
    corpus = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        partial(_bench_split, keep_bench=False), batch_format="pyarrow"
    )
    out = contamination_check(corpus, bench).to_pandas()
    out["contamination"] = out["contamination"].round(6)
    return out.sort_values("doc_id", ignore_index=True)


# -------------------------------------------------------------- relational
def lineitem_agg(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped grouped aggregate: per-batch partial aggregation
    (the combiner) + a driver combine — the result is 6 rows, so a Ray
    groupby sort exchange would be pure overhead (same pattern as the df
    aggregate in stages/stats.py).

    Money is summed in exact integer 1e-4 units (prices/discounts are
    2-decimal values), so the result is bit-identical regardless of
    accumulation order — plain float64 summation at ~1e9 magnitude drifts
    past 6-decimal rounding depending on reduce order."""

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(batch["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        disc_pct = np.rint(batch["l_discount"].to_numpy() * 100.0).astype(np.int64)
        batch["revenue_e4"] = cents * (100 - disc_pct)
        g = batch.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_revenue_e4=("revenue_e4", "sum"),
            n_rows=("l_quantity", "size"),
        )
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        parts.groupby(["l_returnflag", "l_linestatus"], sort=True)
        .agg(sum_qty=("sum_qty", "sum"), sum_revenue_e4=("sum_revenue_e4", "sum"), n_rows=("n_rows", "sum"))
        .reset_index()
    )
    out["sum_qty"] = out["sum_qty"].round(6)
    out["sum_revenue"] = (out.pop("sum_revenue_e4") / 10000.0).round(6)
    out = out[["l_returnflag", "l_linestatus", "sum_qty", "sum_revenue", "n_rows"]]
    return out.sort_values(["l_returnflag", "l_linestatus"], ignore_index=True)


def order_priority_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q3-shaped LARGE⋈LARGE equi-join: lineitem ⋈ orders on
    orderkey, aggregated per (o_orderpriority, order month).

    Ray-Data-first fact⋈fact shape for 100 TB: both sides are projected
    at the read, tagged into one schema, and exchanged ONCE on ~256
    coarse orderkey-hash buckets (co-partitioning — an orderkey's order
    row and lineitem rows always share a bucket); the per-bucket kernel
    is one searchsorted probe + vectorized partial aggregation, so only
    group-cardinality-bounded partials leave the buckets and the joined
    row set is never materialized.  Revenue sums in exact integer 1e-4
    units (accumulation-order-proof); distinct-order counts are exact
    because each orderkey lives in exactly one bucket."""
    from ..functions.hashing import splitmix64

    nb = 256
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    items = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def tag_orders(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        month = (
            batch.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[M]")
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "jkey": pa.array(k),
                "bucket": pa.array((splitmix64(k.astype(np.uint64)) % np.uint64(nb)).astype(np.int32)),
                "side": pa.array(np.zeros(k.size, dtype=np.int8)),
                "prio": batch.column("o_orderpriority").cast(pa.string()),
                "month_us": pa.array(month),
                "rev_e4": pa.array(np.zeros(k.size, dtype=np.int64)),
            }
        )

    def tag_items(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        disc = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table(
            {
                "jkey": pa.array(k),
                "bucket": pa.array((splitmix64(k.astype(np.uint64)) % np.uint64(nb)).astype(np.int32)),
                "side": pa.array(np.ones(k.size, dtype=np.int8)),
                "prio": pa.nulls(k.size, pa.string()),
                "month_us": pa.array(np.zeros(k.size, dtype=np.int64)),
                "rev_e4": pa.array(cents * (100 - disc)),
            }
        )

    empty = pa.table(
        {
            "prio": pa.array([], type=pa.string()),
            "month_us": pa.array([], type=pa.int64()),
            "rev_e4": pa.array([], type=pa.int64()),
            "n_items": pa.array([], type=pa.int64()),
            "n_orders": pa.array([], type=pa.int64()),
        }
    )

    def bucket_agg(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty
        side = g.column("side").to_numpy(zero_copy_only=False)
        jkey = g.column("jkey").to_numpy(zero_copy_only=False)
        o = side == 0
        if not o.any() or o.all():
            return empty  # bucket holds only one side — no join output
        okeys = jkey[o]
        sidx = np.argsort(okeys, kind="stable")
        sorted_ok = okeys[sidx]
        prio = g.column("prio").to_pandas().to_numpy(dtype=object)[o][sidx]
        month = g.column("month_us").to_numpy(zero_copy_only=False)[o][sidx]
        lk = jkey[~o]
        rev = g.column("rev_e4").to_numpy(zero_copy_only=False)[~o]
        pos = np.searchsorted(sorted_ok, lk)
        pos_c = np.minimum(pos, sorted_ok.size - 1)
        match = sorted_ok[pos_c] == lk
        oidx = pos_c[match]
        rev_m = rev[match]
        pcode, pvals = pd.factorize(prio)
        mcode, mvals = pd.factorize(month)
        n_m = max(len(mvals), 1)
        comp = pcode[oidx].astype(np.int64) * n_m + mcode[oidx]
        ucomp, inv = np.unique(comp, return_inverse=True)
        rev_sum = np.zeros(ucomp.size, dtype=np.int64)
        np.add.at(rev_sum, inv, rev_m)
        n_items = np.bincount(inv, minlength=ucomp.size).astype(np.int64)
        # distinct orders per group: unique (group, order) pairs
        pair = np.unique(inv.astype(np.int64) * sorted_ok.size + oidx)
        n_orders = np.bincount((pair // sorted_ok.size).astype(np.int64), minlength=ucomp.size).astype(np.int64)
        return pa.table(
            {
                "prio": pa.array(pvals[(ucomp // n_m).astype(np.int64)], type=pa.string()),
                "month_us": pa.array(np.asarray(mvals)[(ucomp % n_m).astype(np.int64)]),
                "rev_e4": pa.array(rev_sum),
                "n_items": pa.array(n_items),
                "n_orders": pa.array(n_orders),
            }
        )

    tagged = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        items.map_batches(tag_items, batch_format="pyarrow")
    )
    # data-proportional exchange width (footer row counts): the union of
    # two reads carries 80+ small blocks into the sort otherwise
    import pyarrow.parquet as pq

    n_rows = sum(
        pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows for t in ("orders", "lineitem")
    )
    if n_rows <= 1_000_000:
        tagged = tagged.repartition(max(8, n_rows // 100_000))
    parts = tagged.groupby("bucket").map_groups(bucket_agg, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby(["prio", "month_us"], sort=True)
        .agg(rev_e4=("rev_e4", "sum"), n_items=("n_items", "sum"), n_orders=("n_orders", "sum"))
        .reset_index()
    )
    out["revenue"] = (out.pop("rev_e4") / 10000.0).round(6)
    out["order_month"] = pd.to_datetime(out.pop("month_us"), unit="us")
    out = out.rename(columns={"prio": "o_orderpriority"})
    out = out[["o_orderpriority", "order_month", "revenue", "n_items", "n_orders"]]
    return out.sort_values(["o_orderpriority", "order_month"], ignore_index=True)


def orders_by_segment(sf_dir: str) -> pd.DataFrame:
    """Broadcast hash join (dimension side as numpy arrays via ray.put —
    no Python dict rebuilt per worker) + partial aggregate per batch +
    driver combine (result is one row per market segment)."""
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]).to_pandas()
    seg_names, seg_codes = np.unique(cust["c_mktsegment"].to_numpy(), return_inverse=True)
    keys = cust["c_custkey"].to_numpy(np.int64)
    order = np.argsort(keys)
    seg_ref = ray.put((keys[order], seg_codes[order].astype(np.int64), len(seg_names)))

    def partial(batch: pa.Table) -> pa.Table:
        skeys, scodes, n_seg = cached_ref(seg_ref)
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(skeys, ck), skeys.size - 1)
        matched = skeys[idx] == ck  # inner-join semantics: orphan keys drop
        codes, price = scodes[idx[matched]], price[matched]
        return pa.table(
            {
                "n_orders": pa.array([np.bincount(codes, minlength=n_seg)]),
                "total_price": pa.array([np.bincount(codes, weights=price, minlength=n_seg)]),
            }
        )

    parts = (
        rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    n_orders = np.sum(np.stack(parts["n_orders"].to_numpy()), axis=0)
    total = np.sum(np.stack(parts["total_price"].to_numpy()), axis=0)
    out = pd.DataFrame(
        {"c_mktsegment": seg_names, "n_orders": n_orders.astype(np.int64), "total_price": np.round(total, 4)}
    )
    out = out[out["n_orders"] > 0]
    return out.sort_values("c_mktsegment", ignore_index=True)


def events_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window aggregate per event_type: per-batch partial
    (window, type) aggregation + driver combine (streaming-shaped; the
    window key count is tiny next to the event count)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["window_start"] = batch["ts"].dt.floor("h")
        g = batch.groupby(["window_start", "event_type"], sort=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        parts.groupby(["window_start", "event_type"], sort=True)
        .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        .reset_index()
    )
    out["sum_value"] = out["sum_value"].round(6)
    return out.sort_values(["window_start", "event_type"], ignore_index=True)


# ---------------------------------------------- extended operator family
def running_stats(sf_dir: str) -> pd.DataFrame:
    """Streaming count/mean/std/min/max of n_chars per lang — the
    partial+final custom aggregate of the reference's logit-stats harness
    (A4, script/experiment/logit_stats.py:18-61): per-batch partials
    (count, sum, sumsq, min, max) combine on the driver."""
    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("lang")["n_chars"]
        out = pd.DataFrame(
            {
                "n": g.size(),
                "s": g.sum(),
                "ss": (df.assign(sq=df["n_chars"].astype("float64") ** 2).groupby("lang")["sq"].sum()),
                "mn": g.min(),
                "mx": g.max(),
            }
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", sort=True)
    n = g["n"].sum()
    s = g["s"].sum()
    ss = g["ss"].sum()
    mean = s / n
    var = ss / n - mean**2
    out = pd.DataFrame(
        {
            "lang": n.index,
            "n_docs": n.to_numpy(),
            "mean_chars": mean.round(6).to_numpy(),
            "std_chars": np.sqrt(np.maximum(var, 0)).round(6).to_numpy(),
            "min_chars": g["mn"].min().to_numpy(),
            "max_chars": g["mx"].max().to_numpy(),
        }
    )
    return out.reset_index(drop=True)


# language-importance weights for the weighted_avg aggregation (integers so
# sum(w·v)/sum(w) is exact float64 regardless of accumulation order)
LANG_WEIGHTS = {"en": 1, "de": 2, "es": 2, "fr": 3, "zh": 5}


def weighted_avg_chars(sf_dir: str) -> pd.DataFrame:
    """(source, wavg_chars, w_sum) — ES ``weighted_avg`` aggregation: per
    source, the average of n_chars weighted by a language-importance
    table.  Per-batch partials carry (sum(w·v), sum(w)) per source — the
    combiner discipline of ``running_stats`` — and the 5-key weight
    lookup is a vectorized dictionary gather, never a per-row dict hit."""
    ds = _docs(sf_dir, columns=["source", "lang", "n_chars"])
    w_keys = pa.array(list(LANG_WEIGHTS), pa.string())
    w_vals = np.array([0] + list(LANG_WEIGHTS.values()), dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        idx = pc.fill_null(pc.index_in(batch.column("lang"), w_keys), -1).to_numpy(zero_copy_only=False)
        w = w_vals[idx.astype(np.int64) + 1]
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_numpy(zero_copy_only=False),
                "wv": w * batch.column("n_chars").to_numpy(zero_copy_only=False),
                "w": w,
            }
        )
        out = df.groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("source", sort=True).sum()
    return pd.DataFrame(
        {
            "source": g.index,
            "wavg_chars": (g["wv"] / g["w"]).round(6).to_numpy(),
            "w_sum": g["w"].to_numpy().astype(np.int64),
        }
    ).reset_index(drop=True)


def string_stats_text(sf_dir: str) -> pd.DataFrame:
    """1 row (count, min_length, max_length, avg_length, entropy) — ES
    ``string_stats`` (show_distribution-grade exactness) over the text
    field: length stats plus the Shannon entropy (base 2) of the corpus's
    character distribution.  Per-batch partials are (len stats, char-code
    frequency vector via one utf-32 reinterpret + np.unique) — fixed-size
    per block, merged on the driver; the text never crosses the network."""
    ds = _docs(sf_dir, columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        lens = np.array([len(t or "") for t in texts], dtype=np.int64)
        codes = np.frombuffer("".join(t or "" for t in texts).encode("utf-32-le"), dtype=np.uint32)
        vals, counts = np.unique(codes, return_counts=True)
        return pa.table(
            {
                "n": pa.array([int(lens.size)], pa.int64()),
                "sum_len": pa.array([int(lens.sum())], pa.int64()),
                "min_len": pa.array([int(lens.min()) if lens.size else 0], pa.int64()),
                "max_len": pa.array([int(lens.max()) if lens.size else 0], pa.int64()),
                "codes": pa.array([vals.astype(np.int64)], pa.list_(pa.int64())),
                "counts": pa.array([counts.astype(np.int64)], pa.list_(pa.int64())),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    codes = np.concatenate([np.asarray(c) for c in parts["codes"]])
    counts = np.concatenate([np.asarray(c) for c in parts["counts"]])
    freq = pd.Series(counts).groupby(codes).sum().to_numpy().astype(np.float64)
    p = freq / freq.sum()
    entropy = float(-(p * np.log2(p)).sum())
    n = int(parts["n"].sum())
    return pd.DataFrame(
        {
            "count": [n],
            "min_length": [int(parts["min_len"].min())],
            "max_length": [int(parts["max_len"].max())],
            "avg_length": [round(float(parts["sum_len"].sum()) / n, 6)],
            "entropy": [round(entropy, 6)],
        }
    )


def multi_terms_counts(sf_dir: str) -> pd.DataFrame:
    """(lang, source, doc_count, avg_chars) — ES ``multi_terms``
    aggregation: top-10 composite (lang, source) buckets by doc_count
    (ties by lang, source) with an avg sub-aggregation.  Per-batch
    partial groupby (count + sum partials) → one bounded driver combine,
    the ``running_stats`` combiner shape on a composite key."""
    ds = _docs(sf_dir, columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = (
            df.groupby(["lang", "source"], sort=False)["n_chars"]
            .agg(n="size", s="sum")
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["lang", "source"], sort=True).sum().reset_index()
    g = g.sort_values(["n", "lang", "source"], ascending=[False, True, True], kind="mergesort").head(10)
    return pd.DataFrame(
        {
            "lang": g["lang"].to_numpy(),
            "source": g["source"].to_numpy(),
            "doc_count": g["n"].to_numpy().astype(np.int64),
            "avg_chars": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


BOXPLOT_QS = (0.0, 0.25, 0.5, 0.75, 1.0)


def boxplot_chars(sf_dir: str) -> pd.DataFrame:
    """(lang, min_chars, q1_chars, median_chars, q3_chars, max_chars) — ES
    ``boxplot`` aggregation (exact flavor) per lang over n_chars:
    percentile_disc semantics (rank = max(1, ceil(q·n))) computed by
    grouped histogram-refinement selection — ~2-4 streaming count passes,
    O(groups·qs·buckets) partials per block, never a sort of the data."""
    from .quantile import grouped_exact_percentiles

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    trip = grouped_exact_percentiles(ds, "lang", "n_chars", list(BOXPLOT_QS))
    byg: dict[str, dict[float, int]] = {}
    for g, q, v in trip:
        byg.setdefault(g, {})[q] = int(v)
    rows = [
        (g, d[0.0], d[0.25], d[0.5], d[0.75], d[1.0]) for g, d in sorted(byg.items())
    ]
    return pd.DataFrame(
        rows, columns=["lang", "min_chars", "q1_chars", "median_chars", "q3_chars", "max_chars"]
    )


def mad_chars(sf_dir: str) -> pd.DataFrame:
    """(lang, median_chars, mad_chars) — ES ``median_absolute_deviation``
    (exact flavor) per lang: disc-median of |n_chars − disc-median|, two
    grouped histogram-refinement selections with the 5-entry median table
    broadcast into one derived-column streaming pass between them."""
    from .quantile import grouped_exact_percentiles

    ds = _docs(sf_dir, columns=["lang", "n_chars"])
    med = {g: v for g, _q, v in grouped_exact_percentiles(ds, "lang", "n_chars", [0.5])}
    m_keys = pa.array(list(med), pa.string())
    m_vals = np.array([np.nan] + [float(v) for v in med.values()], dtype=np.float64)

    def dev(batch: pa.Table) -> pa.Table:
        idx = pc.fill_null(pc.index_in(batch.column("lang"), m_keys), -1).to_numpy(zero_copy_only=False)
        m = m_vals[idx.astype(np.int64) + 1]
        d = np.abs(batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64) - m)
        return pa.table({"lang": batch.column("lang"), "dev": pa.array(d, pa.float64())})

    devs = ds.map_batches(dev, batch_format="pyarrow")
    mad = {g: v for g, _q, v in grouped_exact_percentiles(devs, "lang", "dev", [0.5])}
    rows = [(g, int(med[g]), int(mad[g])) for g in sorted(med)]
    return pd.DataFrame(rows, columns=["lang", "median_chars", "mad_chars"])


def deterministic_sample(sf_dir: str) -> pd.DataFrame:
    """Seed-keyed 10% row sample: keep doc where
    (doc_id * 2654435761) mod 2^32 < 0.1 * 2^32 — per-row deterministic
    RNG (reference K5/K6 seeded sampling without global state; the Knuth
    multiplier is the 'seed' and the SQL oracle reproduces it exactly)."""
    ds = _docs(sf_dir, columns=["doc_id"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        return batch.filter(pa.array(h < np.uint64(429496729)))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


STRATA_PERMILLE = {"en": 100, "de": 300, "es": 300, "fr": 500, "zh": 200}


def stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Per-stratum deterministic sampling (the training-data rebalancing
    op): keep a doc iff hash(doc_id)·1000 < 2^32·rate_permille[lang] —
    down-weights the head language, keeps more of the tail.  Fully
    vectorized: a multiplicative hash (different multiplier than
    deterministic_sample, so the two samples are decorrelated) and a
    dictionary-coded rate gather — no per-row Python; the comparison is
    pure integer arithmetic so the SQL oracle replays it exactly."""
    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    mult, mod = np.uint64(2246822519), np.uint64(4294967296)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids * mult) % mod
        dic = batch.column("lang").combine_chunks().dictionary_encode()
        uniq_rates = np.asarray(
            [STRATA_PERMILLE.get(v.as_py(), 0) for v in dic.dictionary], dtype=np.uint64
        )
        rates = uniq_rates[dic.indices.to_numpy(zero_copy_only=False)]
        return batch.filter(pa.array(h * np.uint64(1000) < mod * rates))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def rerank_overlap(sf_dir: str) -> pd.DataFrame:
    """Cross-encoder-style reranking (T7 scorer pattern,
    script/preprocess/score_cross_encoder.py): rescore the BM25 top-10 of
    each query with an interpretable pair scorer — # distinct query terms
    present in the doc — and re-rank by (overlap desc, bm25 desc, doc_id)."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        top = reader.search(text, BM25_K)
        if not top:
            continue
        qtids, _ = reader.encode_query(text)
        internal = np.asarray([d for d, _, _ in top], dtype=np.int64)
        overlap = np.zeros(internal.size, dtype=np.int64)
        for sh in reader.shards:
            for _, s, e, _ in sh._term_slices(qtids):
                overlap += np.isin(internal, sh.doc_ids[sh.post_local[s:e]])
        order = np.lexsort((internal, [-s for _, s, _ in top], -overlap))
        for rank, i in enumerate(order, 1):
            rows.append((qid, rank, int(top[i][2].removeprefix("doc://")), int(overlap[i])))
    return pd.DataFrame(rows, columns=["query_id", "rerank", "doc_id", "overlap"])


def pair_scores(sf_dir: str) -> pd.DataFrame:
    """Cross-encoder-style pair scoring with TEACHER-SCORE output (the
    reference's score_cross_encoder shape: (qid, doc_id, score) records,
    jsonl sidecar): teacher_score(q, d) = Σ_{t∈q∩d} qtf·idf / Σ_{t∈q}
    qtf·idf ∈ [0, 1] over the BM25 top-10 candidates — an interpretable,
    deterministic stand-in for the cross-encoder logit that the SQL oracle
    reproduces exactly.  Scores are also written as a jsonl sidecar (S9)."""
    import json as _json

    from ..oracle import bm25_idf

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        top = reader.search(text, BM25_K)
        if not top:
            continue
        qtids, qw = reader.encode_query(text)
        idf = bm25_idf(reader.df[qtids].astype(np.float64), reader.n_docs)
        den = float((qw * idf).sum())
        internal = np.asarray([d for d, _, _ in top], dtype=np.int64)
        num = np.zeros(internal.size, dtype=np.float64)
        for sh in reader.shards:
            for i, s, e, _ in sh._term_slices(qtids):
                num += np.isin(internal, sh.doc_ids[sh.post_local[s:e]]) * (qw[i] * idf[i])
        ext = np.asarray([int(u.removeprefix("doc://")) for _, _, u in top], dtype=np.int64)
        for d, n_ in zip(ext, num):
            rows.append((qid, int(d), round(n_ / den, 6)))
    out = pd.DataFrame(rows, columns=["query_id", "doc_id", "teacher_score"]).sort_values(
        ["query_id", "doc_id"], ignore_index=True
    )
    # S9 teacher-score sidecar (reference jsonl output shape)
    sidecar = os.path.join(index_dir, "pair_scores.jsonl")
    tmp = sidecar + ".tmp"
    with open(tmp, "w") as f:
        for r in out.itertuples(index=False):
            f.write(_json.dumps({"query_id": r.query_id, "doc_id": int(r.doc_id), "score": float(r.teacher_score)}) + "\n")
    os.replace(tmp, sidecar)
    return out


def doc_window(sf_dir: str) -> pd.DataFrame:
    """S3 sample window (skip/limit) as a first-class projection: rows
    [100, 150) of the documents table in doc_id order."""
    from ..util import sample_window

    out = sample_window(_docs(sf_dir, columns=["doc_id", "n_chars"]), "doc_id", skip=100, limit=50)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


def hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Hard-negative mining (J3/M14, script/preprocess/
    mine_hard_negatives.py:411-427): top-30 BM25 candidates per query,
    anti-join the positives (conjunctive qrels), keep the 10 hardest."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    qrels = boolean_and_match(sf_dir)
    pos = {q: set(g["doc_id"]) for q, g in qrels.groupby("query_id")}
    rows = []
    for qid, text in BM25_QUERIES:
        rank = 0
        for d, score, url in reader.search(text, 30):
            ext = int(url.removeprefix("doc://"))
            if ext in pos.get(qid, ()):  # anti-join
                continue
            rank += 1
            if rank > 10:
                break
            rows.append((qid, rank, ext))
    return pd.DataFrame(rows, columns=["query_id", "neg_rank", "doc_id"])


def langs_by_source(sf_dir: str) -> pd.DataFrame:
    """collect_set per group (D4): sorted distinct langs per source,
    serialized to a comma-joined string for stable comparison."""
    ds = _docs(sf_dir, columns=["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ds.map_batches(partial, batch_format="pyarrow").to_pandas().drop_duplicates()
    out = (
        pairs.groupby("source", sort=True)["lang"]
        .agg(lambda s: ",".join(sorted(set(s))))
        .rename("langs")
        .reset_index()
    )
    counts = _docs(sf_dir, columns=["source"]).groupby("source").count().to_pandas()
    counts = counts.rename(columns={"count()": "n_docs"})
    return out.merge(counts, on="source").sort_values("source", ignore_index=True)


def event_props_extract(sf_dir: str) -> pd.DataFrame:
    """Typed extraction from a semi-structured JSON props column (the
    log-enrichment shape): pull the integer ``k`` field out of
    ``props = '{"k": N}'`` with ONE vectorized RE2 ``extract_regex`` (no
    per-row json.loads), then a per-batch combiner + driver reduce over
    the |event_type|-bounded groups.  Rows with a missing/non-numeric
    ``k`` count as null (dropped from avg, counted in n_missing)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"])
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props").combine_chunks()
        ex = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        k = pc.struct_field(ex, "k").cast(pa.string())
        kv = pd.to_numeric(pd.Series(k.to_pandas()), errors="coerce")
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "k": kv,
            }
        )
        g = df.groupby("event_type", sort=False).agg(
            n=("k", "size"), n_k=("k", "count"), sum_k=("k", "sum")
        )
        return pa.table(
            {
                "event_type": pa.array(g.index.to_numpy(dtype=object), type=pa.string()),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "n_k": pa.array(g["n_k"].to_numpy(np.int64)),
                "sum_k": pa.array(g["sum_k"].to_numpy(np.float64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby("event_type", as_index=False)
        .agg(n_events=("n", "sum"), n_with_k=("n_k", "sum"), sum_k=("sum_k", "sum"))
        .sort_values("event_type", ignore_index=True)
    )
    out["avg_k"] = (out["sum_k"] / out["n_with_k"].where(out["n_with_k"] > 0)).round(6)
    out["n_missing"] = out["n_events"] - out["n_with_k"]
    out["sum_k"] = out["sum_k"].astype(np.int64)
    return out[["event_type", "n_events", "n_missing", "sum_k", "avg_k"]]


def event_sessions(sf_dir: str) -> pd.DataFrame:
    """Sessionization (streaming-shaped): per-user sessions split on >30 min
    gaps.  The exchange is a groupby on ~1k COARSE user-hash buckets (never
    the raw user_id — Ray finalizes each group in Python, and users are
    corpus-count); each bucket sessionizes ALL its users in one lexsort +
    segment-reduceat kernel.  Co-location invariant: one user's events land
    in one bucket."""
    from ..functions.hashing import splitmix64

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id", "value"])
    gap_us = np.int64(30 * 60 * 1_000_000)

    def bucketize(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (splitmix64(uid.astype(np.uint64)) % np.uint64(1024)).astype(np.int32)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "value": batch.column("value"),
                "bucket": pa.array(bucket),
            }
        )

    def sessionize_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.schema(
                [("user_id", pa.int64()), ("session_start", pa.int64()),
                 ("n_events", pa.int64()), ("sum_value", pa.float64())]
            ).empty_table()
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        val = g.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        brk = np.ones(uid.size, dtype=bool)
        brk[1:] = (np.diff(uid) != 0) | (np.diff(ts) > gap_us)
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:], uid.size]
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "session_start": pa.array(ts[starts]),
                "n_events": pa.array(ends - starts),
                "sum_value": pa.array(np.round(np.add.reduceat(val, starts), 6)),
            }
        )

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sessionize_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    out["session_start"] = pd.to_datetime(out["session_start"], unit="us")
    return out.sort_values(["user_id", "session_start"], ignore_index=True)


def _purchase_click_side(batch: pa.Table) -> pa.Table:
    """A batch's purchase (side 1) and click (side 0) events."""
    batch = batch.filter(pc.is_in(batch.column("event_type"), value_set=pa.array(["purchase", "click"])))
    side = pc.cast(pc.equal(batch.column("event_type"), "purchase"), pa.int8())
    return batch.drop_columns(["event_type"]).append_column("side", side)


def _purchase_click_sides(sf_dir: str) -> rd.Dataset:
    """ONE scan of events feeding both sides of the event-stream joins:
    purchases are left (side 1), clicks are right (side 0), everything
    else dropped — instead of two full reads + a union of the same file."""
    cols = ["event_id", "ts", "user_id", "event_type"]
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=cols)
    return ev.map_batches(_purchase_click_side, batch_format="pyarrow")


def events_asof(sf_dir: str) -> pd.DataFrame:
    """Backward as-of join: each purchase event matched with the same
    user's latest click at or before it (inner; tie on ts elects the max
    event_id) — the stream-enrichment op Ray Data has no primitive for.
    See :mod:`splade_ray.pipelines.asof` for the bucketed kernel."""
    from .asof import asof_join_backward

    out = asof_join_backward(
        _purchase_click_sides(sf_dir), key="user_id", ts="ts", id_col="event_id", side_col="side"
    ).to_pandas()
    out = out.rename(columns={"left_id": "event_id", "key": "user_id", "right_id": "click_event_id"})
    out["gap_us"] = (out["left_ts"] - out["right_ts"]).astype(np.int64)
    out = out[["event_id", "user_id", "click_event_id", "gap_us"]]
    return out.sort_values("event_id", ignore_index=True)


def events_asof_fwd(sf_dir: str) -> pd.DataFrame:
    """Forward as-of join: each purchase matched with the same user's
    EARLIEST click at or after it (inner; tie on ts elects the min
    event_id) — the mirror of events_asof via the negation reduction."""
    from .asof import asof_join_forward

    out = asof_join_forward(
        _purchase_click_sides(sf_dir), key="user_id", ts="ts", id_col="event_id", side_col="side"
    ).to_pandas()
    out = out.rename(columns={"left_id": "event_id", "key": "user_id", "right_id": "click_event_id"})
    out["gap_us"] = (out["right_ts"] - out["left_ts"]).astype(np.int64)
    out = out[["event_id", "user_id", "click_event_id", "gap_us"]]
    return out.sort_values("event_id", ignore_index=True)


def events_range_count(sf_dir: str) -> pd.DataFrame:
    """Trailing-window range join (counting form): per purchase, the
    number of the same user's clicks in the preceding hour (half-open
    window, LEFT semantics — zero-click purchases kept)."""
    from .asof import range_join_count

    out = range_join_count(
        _purchase_click_sides(sf_dir),
        key="user_id",
        ts="ts",
        id_col="event_id",
        window_us=3_600_000_000,
        side_col="side",
    ).to_pandas()
    out = out.rename(columns={"left_id": "event_id", "key": "user_id", "n_right": "n_clicks_1h"})
    return out.sort_values("event_id", ignore_index=True)


def meta_ingest(sf_dir: str) -> pd.DataFrame:
    """Training meta-row ingestion (M10/M11): synthesize a deterministic
    LISTWISE training table from documents (query mq{doc_id % 20}, label
    +1 on doc_id % 3 == 0, inline teacher score doc_id/4), normalize it
    through the schema-dispatched meta reader (md5-keyed subsample to 2
    pos / 3 neg per query), flatten to scalar rows.  The SQL oracle
    replays the same synthesis + md5 ranking."""
    from ..sources.meta import flatten_meta, normalize_meta_rows

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "qid": pa.array([f"mq{int(i) % 20}" for i in ids], type=pa.string()),
                "doc_id": pa.array(ids),
            }
        )

    def build_row(g: pa.Table) -> pa.Table:
        ids = np.sort(g.column("doc_id").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "query_id": pa.array([g.column("qid")[0].as_py()], type=pa.string()),
                "doc_ids": pa.array([[str(int(i)) for i in ids]], type=pa.list_(pa.string())),
                "labels": pa.array([[1.0 if i % 3 == 0 else 0.0 for i in ids]], type=pa.list_(pa.float64())),
                "scores": pa.array([[i * 0.25 for i in ids]], type=pa.list_(pa.float64())),
            }
        )

    rows = (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby("qid")
        .map_groups(build_row, batch_format="pyarrow")
    )
    norm = normalize_meta_rows(rows, num_positives=2, num_negatives=3, seed=13)
    out = flatten_meta(norm).to_pandas()
    out["score"] = out["score"].round(6)
    out = out[["query_id", "role", "slot", "doc_id", "score"]]
    return out.sort_values(["query_id", "role", "slot"], ignore_index=True)


def triplet_ingest(sf_dir: str) -> pd.DataFrame:
    """Training-triplet TSV ingestion (S2/M9) + seeded sampling (K6):
    synthesize a deterministic TSV from the documents table (every 7th doc
    becomes a 4-col triplet line, every 13th a 3-col line, plus malformed
    lines that must be skipped), parse it back distributed, subsample."""
    from ..sources.triplets import read_triplets, sample_training_pairs

    docs = _docs(sf_dir, columns=["doc_id", "text"]).to_pandas().head(2000)
    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    path = os.path.join(CACHE_ROOT_NOZONE, f"triplets_{key}.tsv")
    os.makedirs(CACHE_ROOT_NOZONE, exist_ok=True)
    if not os.path.exists(path):
        lines = []
        for i, (did, text) in enumerate(zip(docs["doc_id"], docs["text"])):
            words = text.split()[:6]
            q = " ".join(words[:3]) or "q"
            if i % 13 == 0:
                lines.append(f"{q}\t{' '.join(words[3:5])}\t{' '.join(words[4:6])}")
            elif i % 7 == 0:
                lines.append(f"qid{did}\t{q}\t{' '.join(words[3:5])}\t{' '.join(words[4:6])}")
            elif i % 97 == 0:
                lines.append("malformed line")
        tmp = path + ".tmp"
        open(tmp, "w").write("\n".join(lines))
        os.replace(tmp, path)
    parsed = read_triplets(path)
    sampled = sample_training_pairs(parsed, keep_fraction=0.5, seed=10).to_pandas()
    return sampled.sort_values(["query_id", "query"], ignore_index=True)


def events_sliding(sf_dir: str) -> pd.DataFrame:
    """Sliding 3-hour window advancing hourly, per event_type: each event
    contributes to the 3 windows covering it (replicate-then-aggregate —
    the standard shuffle-free sliding-window expansion); per-batch partials
    + driver combine as with the tumbling variant."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        base = batch["ts"].dt.floor("h")
        frames = []
        for off in (0, 1, 2):  # window [start, start+3h) covers floor(ts)-off
            f = batch[["event_type", "value"]].copy()
            f["window_start"] = base - pd.Timedelta(hours=off)
            frames.append(f)
        rep = pd.concat(frames)
        return (
            rep.groupby(["window_start", "event_type"], sort=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
            .reset_index()
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        parts.groupby(["window_start", "event_type"], sort=True)
        .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        .reset_index()
    )
    out["sum_value"] = out["sum_value"].round(6)
    return out.sort_values(["window_start", "event_type"], ignore_index=True)


# ---------------------------------------------- statistical / pipeline aggs


def ttest_langs(sf_dir: str) -> pd.DataFrame:
    """(lang_a, lang_b, t_r) — ES ``t_test`` aggregation (unpaired,
    heteroscedastic = Welch) of n_chars between every pair of languages:
    t = (m₁−m₂) / sqrt(v₁/n₁ + v₂/n₂) with sample variances.  One
    streaming pass of per-batch moment partials (n, Σx, Σx²) keyed by
    lang — fixed |langs|·3 cells per block — then the all-pairs t matrix
    on the driver (|langs|² cells).  Nothing shuffles."""
    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        dic = batch.column("lang").combine_chunks().dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        m = len(dic.dictionary)
        return pa.table(
            {
                "lang": dic.dictionary,
                "n": np.bincount(codes, minlength=m).astype(np.int64),
                "sx": np.bincount(codes, weights=x, minlength=m),
                "sxx": np.bincount(codes, weights=x * x, minlength=m),
            }
        )

    g = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang", sort=True)
        .sum()
    )
    langs = list(g.index)
    n = g["n"].to_numpy().astype(np.float64)
    mean = g["sx"].to_numpy() / n
    # sample variance from raw moments; hour-scale magnitudes keep the
    # sum-of-squares form well-conditioned at the 6-decimal contract
    var = (g["sxx"].to_numpy() - n * mean * mean) / (n - 1.0)
    rows = []
    for i in range(len(langs)):
        for j in range(i + 1, len(langs)):
            t = (mean[i] - mean[j]) / math.sqrt(var[i] / n[i] + var[j] / n[j])
            rows.append((langs[i], langs[j], round(float(t), 6)))
    return pd.DataFrame(rows, columns=["lang_a", "lang_b", "t_r"])


def bucket_pipeline_stats(sf_dir: str) -> pd.DataFrame:
    """(lang, doc_count, avg_chars_r, selected, is_max) — ES pipeline
    aggregations over a terms(lang) + avg(n_chars) bucket series:
    ``avg_bucket`` (the cross-bucket mean), ``bucket_selector`` (keep
    flag: bucket avg above the cross-bucket mean) and ``max_bucket``
    (is_max marks the winning bucket, ties by lang).  The bucket series
    is coordinator-sized by construction; partials are the
    ``running_stats`` combiner shape."""
    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        dic = batch.column("lang").combine_chunks().dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        m = len(dic.dictionary)
        return pa.table(
            {
                "lang": dic.dictionary,
                "n": np.bincount(codes, minlength=m).astype(np.int64),
                "sx": np.bincount(codes, weights=x, minlength=m),
            }
        )

    g = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang", sort=True)
        .sum()
    )
    avg = g["sx"].to_numpy() / g["n"].to_numpy()
    overall = float(avg.mean())
    imax = int(np.lexsort((np.asarray(g.index, dtype=object), -avg))[0])
    return pd.DataFrame(
        {
            "lang": g.index,
            "doc_count": g["n"].to_numpy().astype(np.int64),
            "avg_chars_r": np.round(avg, 6),
            "selected": avg > overall,
            "is_max": np.arange(len(avg)) == imax,
        }
    ).reset_index(drop=True)


def cumulative_cardinality_users(sf_dir: str) -> pd.DataFrame:
    """(day, new_users, cum_users) — ES ``cumulative_cardinality``
    pipeline aggregation (exact flavor) over a daily date_histogram of
    events: per day, the number of users seen for the FIRST time and the
    cumulative distinct-user count, on a gap-free day axis.

    Scale shape: per-batch (user → min/max day) partials, ONE hash
    exchange on user_id (`groupby.map_groups` — users co-locate, first
    day per user is a per-group min), then per-day first-seen counts
    re-aggregated as bounded partials; the cumulative sum runs on the
    coordinator-sized bucket series.  The raw event stream never
    re-crosses the network and no per-user table lands on the driver."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor_temporal(batch.column("ts"), unit="day"), pa.date32())
        t = pa.table({"user_id": batch.column("user_id"), "day": days})
        return t.group_by(["user_id"]).aggregate([("day", "min"), ("day", "max")])

    firsts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("day_min", alias_name="first_day"), Max("day_max", alias_name="last_day"))
    )

    def day_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"day": batch.column("first_day")})
        out = t.group_by(["day"]).aggregate([("day", "count")])
        # ride the axis hi-bound along as a zero-count row (the gap-free
        # day axis must span ALL event days, not just first-seen days)
        hi = pc.max(batch.column("last_day"))
        return pa.concat_tables(
            [out, pa.table({"day": pa.array([hi.as_py()], pa.date32()), "day_count": pa.array([0], pa.int64())})]
        )

    parts = firsts.map_batches(day_partial, batch_format="pyarrow").to_pandas()
    counts = parts.groupby("day", sort=True)["day_count"].sum()
    full = pd.date_range(counts.index.min(), counts.index.max(), freq="D").date
    series = counts.reindex(full, fill_value=0)
    return pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "new_users": series.to_numpy().astype("int64"),
            "cum_users": series.cumsum().to_numpy().astype("int64"),
        }
    )


def events_histogram_derivative(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, deriv) — date_histogram + ``derivative`` pipeline
    aggregation: daily event counts on a gap-free axis and the
    first-difference bucket series.  ES emits no derivative for the first
    bucket, so the result starts at the second day.  Same one-pass
    day-count partial shape as ``events_moving_avg``."""
    series = _day_series(sf_dir)
    out = pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": series.to_numpy().astype("int64"),
            "deriv": series.diff().to_numpy(),
        }
    ).iloc[1:]
    out["deriv"] = out["deriv"].astype("int64")
    return out.reset_index(drop=True)


# ------------------------------------------------- lifecycle / resilience


def snapshot_restore_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES snapshot/restore lifecycle:
    the built index is snapshotted into a content-addressed repository
    (incremental blobs + named manifest), restored into a FRESH directory
    with per-blob sha256 verification, and BM25 served from the restored
    copy — rank-identical to the live index, so the oracle is the plain
    BM25 SQL.  A second snapshot reuses every blob (the incremental
    contract), which this query asserts."""
    from ..state.snapshot import restore_index, snapshot_index

    index_dir = build_documents_index(sf_dir)
    repo = index_dir + "_snaprepo"
    m1 = snapshot_index(index_dir, repo, "s1")
    m2 = snapshot_index(index_dir, repo, "s2")
    if m2["reused_blobs"] != m2["n_files"]:
        raise AssertionError("second snapshot must reuse every blob")
    restored = index_dir + "_restored"
    shutil.rmtree(restored, ignore_errors=True)
    restore_index(repo, "s1", restored)

    reader = IndexReader(restored, DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, reader.search, BM25_K))


def bm25_topk_replicated(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — replicated sharded serving with
    MID-QUERY failover: every shard group runs 2 scorer replicas, one
    primary is killed between queries, and the searcher promotes the
    replica on ``RayActorError`` (ES replica promotion).  Results must be
    rank-identical to the plain BM25 oracle — failover is invisible."""
    index_dir = build_documents_index(sf_dir)
    rows = []
    with _sharded(index_dir, replication=2) as ss:
        for i, (qid, text) in enumerate(BM25_QUERIES):
            if i == 2:  # kill a primary mid-stream; queries must not notice
                ray.kill(ss.replica_groups[0][0])
            rows += _hit_rows(qid, ss.search(text, BM25_K))
    return _ranked_frame(rows)


QS_QUERIES: list[tuple[str, str]] = [
    ("qs0", "+spark join -order"),
    ("qs1", '"hash join" fast^2'),
    ("qs2", '+"window batch" stream'),
    ("qs3", "vector^3 query scan"),
    ("qs4", "+customer +value -zzznotaword"),  # OOV must_not is a no-op
    ("qs5", "+zzznotaword spark"),  # OOV must -> empty on both sides
    ("qs6", 'data^0.5 merge "small table"'),
]


def query_string_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene/ES ``query_string``
    retrieval: ``+must`` / ``-must_not`` / bare should terms, quoted
    phrases and ``^boost`` factors parsed by the engine's mini-grammar
    (``search.parse_query_string``) and composed per shard onto the
    existing BM25 / phrase kernels.  The SQL oracle is generated from the
    SAME parsed clause table, so grammar and scoring contract are pinned
    end-to-end: match = all musts ∧ (≥1 should when no musts) ∧ no
    must_nots; score = Σ boost·clause_bm25 over matched scoring clauses."""
    index_dir = _config_index(sf_dir, PHRASE_DOCS_CFG)
    reader = IndexReader(index_dir, PHRASE_DOCS_CFG)
    rows = _ranked_rows(QS_QUERIES, reader.search_query_string, BM25_K)
    # one query routes through the scatter-gather path to pin
    # driver/sharded parity under the clause composition
    with _sharded(index_dir, PHRASE_DOCS_CFG) as ss:
        sharded = _hit_rows(QS_QUERIES[1][0], ss.search_query_string(QS_QUERIES[1][1], BM25_K))
    assert sharded == [r for r in rows if r[0] == QS_QUERIES[1][0]], "sharded query_string diverged"
    return _ranked_frame(rows)


ROUTING_QUERIES: list[tuple[str, str, str]] = [
    ("r0", "spark join order", "src3"),
    ("r1", "window batch stream", "src7"),
    ("r2", "fast hash join", "src15"),
    ("r3", "data data merge", "src3"),
    ("r4", "customer line value", "src7"),
]


def _routed_segment(sf_dir: str, src: str) -> str:
    """Build (cached) the routed shard for one routing value: the corpus
    filtered to ``source == src`` at scan level (predicate pushdown — the
    routing key bounds what ever leaves storage), indexed standalone so
    its statistics are SHARD-LOCAL."""
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}|{DOCS_CFG}|routed|{src}".encode()
    ).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT_NOZONE, f"docs_ridx_{key}")
    cpath = os.path.join(out, "corpus_input.parquet")
    if not os.path.exists(cpath):
        os.makedirs(out, exist_ok=True)
        full = os.path.join(build_documents_index(sf_dir), "corpus_input.parquet")
        tmp = cpath + ".tmp"
        rd.read_parquet(full).filter(expr=f"source == '{src}'").write_parquet(tmp)
        os.rename(tmp, cpath)
    build_index(cpath, out, DOCS_CFG)
    return out


def routing_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES custom routing: docs are
    routed to shards by a key (here ``source``) and a routed query
    consults ONLY the owning shard, scored with SHARD-LOCAL statistics
    (per-shard idf / avgdl — the ES DEFAULT ``query_then_fetch``
    semantics, unlike the ``dfs_query_then_fetch`` union stats that
    ``bm25_topk_federated`` replays).  The oracle recomputes BM25 over
    each routing value's sub-corpus alone, so the shard-local-stats
    contract is value-checked, not just asserted.

    Scale shape: routing bounds a query's fan-out to one shard group no
    matter how many nodes the index spans — the standard multi-tenant /
    per-domain isolation pattern — and the routed build is a scan-level
    filter, so only the owning tenant's bytes ever leave storage."""
    rows = []
    for qid, text, src in ROUTING_QUERIES:
        reader = IndexReader(_routed_segment(sf_dir, src), DOCS_CFG)
        rows += _hit_rows(qid, reader.search(text, BM25_K))
    return _ranked_frame(rows)


MPP_QUERIES: list[tuple[str, str]] = [
    ("mp0", "hash jo"),
    ("mp1", "window ba"),
    ("mp2", "customer l"),
    ("mp3", "data zz"),  # no vocab term starts with zz -> empty on both sides
    ("mp4", "fast s"),  # broad prefix exercises the max_expansions=50 cap
]


def phrase_prefix_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``match_phrase_prefix``
    (search-as-you-type): the last token expands to the first 50 vocab
    terms with that prefix IN TERM ORDER (the ES max_expansions cap —
    replayed in SQL as row_number over the distinct corpus terms), a doc
    matches when head + any expansion occur consecutively, and matched
    docs rank by the head terms' BM25 bag score."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(MPP_QUERIES, reader.search_phrase_prefix, BM25_K))


def top_metrics_by_lang(sf_dir: str) -> pd.DataFrame:
    """(lang, doc_id, n_chars) — ES ``top_metrics`` aggregation: per lang
    bucket, the n_chars metric of the doc with the largest doc_id (sort
    doc_id DESC, the "latest doc's value" shape).  Per-batch ARGMAX
    partials — one (max-key row) per lang per block — then the same
    argmax over the bounded partial set on the driver; nothing shuffles
    and the metric column never leaves the block that owns the winner."""
    ds = _docs(sf_dir, columns=["lang", "doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        idx = df.groupby("lang", sort=False)["doc_id"].idxmax()
        return pa.Table.from_pandas(df.loc[idx], preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    win = parts.loc[parts.groupby("lang", sort=True)["doc_id"].idxmax()]
    return win.sort_values("lang", ignore_index=True)[["lang", "doc_id", "n_chars"]]


# wildcard (Lucene WildcardQuery) patterns: * = any run, ? = one char.
# Oracle-side each pattern translates to SQL LIKE (* -> %, ? -> _).
WILDCARD_QUERIES: list[tuple[str, str]] = [
    ("w0", "s?a*"),   # scan, small, spark
    ("w1", "*er*"),   # customer, filter, merge, order
    ("w2", "ta?le"),  # table
    ("w3", "zz*"),    # no matching terms -> empty on both sides
]


def wildcard_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene WildcardQuery top-10:
    the ``*``/``?`` glob expands against the sorted term dictionary with a
    literal-prefix range seek (two binary searches bound the scan — the
    FST prefix-seek shape) + one compiled-regex verify over the bounded
    slice, then scores as an expanded OR (unit weight, per-term idf)
    through the unchanged BM25 kernels."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(WILDCARD_QUERIES, reader.search_wildcard, BM25_K))


# boosting query: (query_id, positive text, negative text, negative_boost)
BOOSTING_QUERIES: list[tuple[str, str, str, float]] = [
    ("bq0", "spark join", "slow", 0.5),
    ("bq1", "window stream", "small", 0.4),
    ("bq2", "fast hash", "zzznotaword", 0.5),  # OOV negative demotes nothing
    ("bq3", "the table", "big", 0.25),
]


def boosting_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene/ES ``boosting`` query
    top-10: the positive clause's BM25 bag score, multiplied by
    ``negative_boost`` on docs that also match any negative-clause term
    (demotion, not exclusion — contrast ``bm25_topk_not``).  The demotion
    happens inside each shard's scorer before local top-k."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(BOOSTING_QUERIES, reader.search_boosting, BM25_K))


# span_first: (query_id, term, end) — term must occur at position < end
SPAN_FIRST_QUERIES: list[tuple[str, str, int]] = [
    ("sf0", "spark", 3),
    ("sf1", "table", 2),
    ("sf2", "value", 1),
    ("sf3", "zzznotaword", 5),  # OOV -> empty on both sides
]


def span_first_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene SpanFirstQuery top-10
    from the forward-enabled index: postings candidates, then a verify
    that reads ONLY the first ``end`` positions of each candidate's md5
    token stream (one flat gather); matches rank by the term's BM25."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SPAN_FIRST_QUERIES, reader.search_span_first, BM25_K))


# terms_set: (query_id, term list); per-doc minimum = 1 + (n_chars mod 3)
TERMS_SET_QUERIES: list[tuple[str, list[str]]] = [
    ("ts0", ["spark", "join", "order", "window"]),
    ("ts1", ["fast", "slow", "big", "small", "value"]),
    ("ts2", ["customer", "merge", "zzznotaword"]),
]


def terms_set_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``terms_set`` query with a
    per-doc ``minimum_should_match_field``: a doc matches when it holds at
    least ``1 + (n_chars mod 3)`` DISTINCT terms of the set (the corpus has
    no native msm field, so the minimum is synthesized from the n_chars
    doc-value — the SQL oracle replays the same expression), ranked by the
    unit-weight expanded-OR BM25 bag.  Served scatter-gather: each shard
    owner applies its own docs' minima from the attribute sidecar."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(TERMS_SET_QUERIES, ss.search_terms_set, BM25_K)
    return _ranked_frame(rows)


def extended_stats_chars(sf_dir: str) -> pd.DataFrame:
    """(lang, n_docs, min_chars, max_chars, sum_chars, avg_chars_r,
    sos_chars, var_r, std_r, std_lower_r, std_upper_r) — ES
    ``extended_stats`` aggregation per lang bucket: count/min/max/sum/avg
    plus sum-of-squares, POPULATION variance/std (the ES default) and the
    ±2σ std_deviation_bounds.  One per-batch combiner partial carries
    (n, sum, sumsq, min, max) per lang — five scalars per bucket per
    block, so the driver combine is bounded by |langs|·|blocks| no matter
    the corpus size."""
    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_numpy(zero_copy_only=False),
                "v": batch.column("n_chars").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("lang", sort=False)["v"]
        out = g.agg(n="count", s="sum", mn="min", mx="max").reset_index()
        out["ss"] = g.apply(lambda x: float(np.dot(x, x))).to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"), mn=("mn", "min"), mx=("mx", "max")
    )
    avg = g["s"] / g["n"]
    var = g["ss"] / g["n"] - avg * avg  # population variance (ES default)
    std = np.sqrt(np.maximum(var, 0.0))
    return pd.DataFrame(
        {
            "lang": g.index,
            "n_docs": g["n"].to_numpy().astype(np.int64),
            "min_chars": g["mn"].to_numpy().astype(np.int64),
            "max_chars": g["mx"].to_numpy().astype(np.int64),
            "sum_chars": g["s"].to_numpy().astype(np.int64),
            "avg_chars_r": avg.round(6).to_numpy(),
            "sos_chars": g["ss"].to_numpy().astype(np.int64),
            "var_r": var.round(6).to_numpy(),
            "std_r": std.round(6).to_numpy(),
            "std_lower_r": (avg - 2 * std).round(6).to_numpy(),
            "std_upper_r": (avg + 2 * std).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


def events_daily_pipeline(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, cum_n, diff_n, pct_r) — a date_histogram bucket
    series carrying THREE ES pipeline aggregations at once:
    ``cumulative_sum`` (running total), ``serial_diff`` lag 1 (first
    bucket coalesced to 0 on both sides), and ``normalize``/
    percent_of_sum (bucket share of the total, in percent).  The heavy
    pass is one per-batch day-count partial; the window math runs on the
    bounded bucket series (|days| rows), exactly where ES's pipeline aggs
    run — on the reduced bucket list, never the raw events."""
    series = _day_series(sf_dir)
    n = series.to_numpy().astype(np.int64)
    return pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": n,
            "cum_n": np.cumsum(n),
            "diff_n": np.diff(n, prepend=n[:1]),  # first bucket -> 0
            "pct_r": np.round(100.0 * n / n.sum(), 6),
        }
    ).reset_index(drop=True)


# ES range-agg bucket edges over n_chars: [0,200), [200,400), [400, inf)
RANGE_CHARS_EDGES: list[int] = [0, 200, 400]


def range_chars_agg(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_docs, avg_chars_r) — ES ``range`` aggregation over the
    n_chars doc-value with buckets [0,200), [200,400), [400,*): per-batch
    ``np.searchsorted`` against the edge list assigns buckets vectorized;
    (count, sum) partials combine on the driver (3 buckets × blocks)."""
    ds = _docs(sf_dir, columns=["n_chars"])
    edges = np.asarray(RANGE_CHARS_EDGES, dtype=np.int64)
    labels = [
        f"{lo}-{hi}" for lo, hi in zip(RANGE_CHARS_EDGES, RANGE_CHARS_EDGES[1:])
    ] + [f"{RANGE_CHARS_EDGES[-1]}-*"]

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("n_chars").to_numpy(zero_copy_only=False)
        b = np.searchsorted(edges, v, side="right") - 1
        n = np.bincount(b, minlength=len(labels))
        s = np.bincount(b, weights=v.astype(np.float64), minlength=len(labels))
        return pa.table(
            {"bucket": pa.array(labels), "n": pa.array(n, pa.int64()), "s": pa.array(s)}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("bucket", sort=False).sum().reindex(labels)
    g = g[g["n"] > 0]
    return pd.DataFrame(
        {
            "bucket": g.index,
            "n_docs": g["n"].to_numpy().astype(np.int64),
            "avg_chars_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


# ES filters agg: named filter -> predicate over the events table
FILTERS_AGG_SPECS: list[tuple[str, str]] = [
    ("clicks", "event_type = 'click'"),
    ("errors", "event_type = 'error'"),
    ("big", "value >= 50"),
]


def filters_agg_events(sf_dir: str) -> pd.DataFrame:
    """(name, n_events, avg_value_r) — ES ``filters`` aggregation: three
    NAMED filters evaluated in one streaming pass (filters may overlap, so
    this is not a groupby — each batch emits one (count, sum) partial per
    filter from vectorized boolean masks; the driver combines 3×blocks
    cells)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        masks = [et == "click", et == "error", v >= 50]
        return pa.table(
            {
                "name": pa.array([n for n, _ in FILTERS_AGG_SPECS]),
                "n": pa.array([int(m.sum()) for m in masks], pa.int64()),
                "s": pa.array([float(v[m].sum()) for m in masks]),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("name", sort=True).sum()
    return pd.DataFrame(
        {
            "name": g.index,
            "n_events": g["n"].to_numpy().astype(np.int64),
            "avg_value_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


# auto_date_histogram interval ladder (seconds) and bucket target
AUTO_HIST_LADDER: list[int] = [60, 300, 1800, 3600, 10800, 43200, 86400, 604800]
AUTO_HIST_TARGET: int = 12


def auto_date_histogram(sf_dir: str) -> pd.DataFrame:
    """(bucket_ts, interval_sec, n_events) — ES ``auto_date_histogram``:
    the interval is CHOSEN from a fixed ladder (1m, 5m, 30m, 1h, 3h, 12h,
    1d, 7d) as the smallest whose epoch-floored bucket count over the data
    span stays ≤ 12 buckets.  Pass 1 is a min/max-ts aggregate (combiner
    partials); pass 2 re-buckets with the chosen interval — the same
    two-phase shape ES uses when it downgrades the interval during
    reduction.  The SQL oracle replays the ladder choice from the same
    epoch-microsecond arithmetic."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])

    def minmax(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"lo": pa.array([int(us.min())]), "hi": pa.array([int(us.max())])})

    mm = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    iv = AUTO_HIST_LADDER[-1]
    for cand in AUTO_HIST_LADDER:
        w = cand * 1_000_000
        if hi // w - lo // w + 1 <= AUTO_HIST_TARGET:
            iv = cand
            break
    w = iv * 1_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        b, n = np.unique(us // w, return_counts=True)
        return pa.table({"b": pa.array(b, pa.int64()), "n": pa.array(n, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("b", sort=True)["n"].sum()
    return pd.DataFrame(
        {
            "bucket_ts": pd.to_datetime(g.index.to_numpy() * w, unit="us"),
            "interval_sec": np.full(len(g), iv, dtype=np.int64),
            "n_events": g.to_numpy().astype(np.int64),
        }
    ).reset_index(drop=True)


def rate_agg(sf_dir: str) -> pd.DataFrame:
    """(day_ts, n_events, count_per_hour_r, value_per_hour_r) — the ES
    ``rate`` aggregation inside a calendar date_histogram: per DAY
    bucket, doc-count and sum(value) are converted to a per-HOUR rate by
    dividing by the number of rate units in the bucket (24 for day→hour
    — ES converts to the requested unit, it does not extrapolate from
    the observed span).

    One pass of per-batch (day, count, sum) partials — fixed-size
    (≤ days-of-data rows per block) — then a driver-side merge; the
    bucket arithmetic is plain epoch-microsecond floor division,
    replayed by the SQL oracle via date_trunc."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"])
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = batch.column("value").to_numpy(zero_copy_only=False)
        keys, inv, cnt = np.unique(us // DAY_US, return_inverse=True, return_counts=True)
        sums = np.bincount(inv, weights=val, minlength=keys.size)
        return pa.table(
            {
                "d": pa.array(keys, pa.int64()),
                "n": pa.array(cnt, pa.int64()),
                "s": pa.array(sums, pa.float64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("d", sort=True).agg(n=("n", "sum"), s=("s", "sum"))
    return pd.DataFrame(
        {
            "day_ts": pd.to_datetime(g.index.to_numpy() * DAY_US, unit="us"),
            "n_events": g["n"].to_numpy().astype(np.int64),
            "count_per_hour_r": np.round(g["n"].to_numpy() / 24.0, 6),
            "value_per_hour_r": np.round(g["s"].to_numpy() / 24.0, 6),
        }
    )


def host_agg(sf_dir: str) -> pd.DataFrame:
    """(host, n_docs, n_changed, avg_chars_r) — Common-Crawl URL
    canonicalization + per-host rollup: each doc's (synthetic, messy)
    crawl URL — mixed-case hosts, explicit default ports, trailing
    slashes, ``utm_*`` tracking params, fragments — is canonicalized by
    the vectorized Arrow-RE2 chain in
    :func:`splade_ray.functions.urls.normalize_urls`, then docs roll up
    per canonical HOST with a changed-url counter.  The per-batch partial
    carries (count, changed, sum_chars) per host, so the driver combine is
    |hosts|·|blocks|-bounded.  The SQL oracle synthesizes the same messy
    URLs and replays the exact normalize chain in DuckDB's RE2."""
    from ..functions.urls import normalize_urls

    ds = _docs(sf_dir, columns=["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        srcs = batch.column("source").to_numpy(zero_copy_only=False)
        # messy-crawl fixture synthesis (per-row python is fine HERE: this
        # fabricates the test input; the kernel under test is vectorized)
        messy = pa.array(
            [
                ("https" if i % 2 == 0 else "http")
                + "://"
                + (f"{s.upper()}.Example.COM" if i % 3 == 0 else f"{s}.example.com")
                + (":443" if i % 2 == 0 and i % 5 == 0 else (":80" if i % 2 == 1 and i % 7 == 0 else ""))
                + f"/p/{i}"
                + ("/" if i % 4 == 0 else "")
                + (
                    f"?utm_source=feed&id={i % 10}"
                    if i % 6 == 0
                    else (f"?id={i % 10}&utm_medium=rss" if i % 6 == 3 else "")
                )
                + ("#ref" if i % 9 == 0 else "")
                for i, s in zip(ids, srcs)
            ],
            pa.string(),
        )
        norm = normalize_urls(messy)
        host = pc.extract_regex(norm, pattern=r"^[a-z][a-z0-9+.-]*://(?P<h>[^/:?#]+)").field("h")
        df = pd.DataFrame(
            {
                "host": host.to_numpy(zero_copy_only=False),
                "n": 1,
                "chg": pc.not_equal(messy, norm).to_numpy(zero_copy_only=False).astype(np.int64),
                "s": batch.column("n_chars").to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby("host", sort=False).sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("host", sort=True).sum()
    return pd.DataFrame(
        {
            "host": g.index,
            "n_docs": g["n"].to_numpy().astype(np.int64),
            "n_changed": g["chg"].to_numpy().astype(np.int64),
            "avg_chars_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


def reindex_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``_reindex`` with a script
    transform: the source index's corpus streams through a map_batches
    transform (keep ``lang = 'en'``, truncate each doc to its first 25
    tokens — all Arrow kernels: regex trim + split + list_slice +
    binary_join, no per-row Python) into a NEW index directory, and BM25
    serves from the destination.  df/N/avgdl are the TRANSFORMED corpus's
    own statistics, which is exactly what the SQL oracle recomputes over
    ``list_slice(tokens, 1, 25)`` of the en docs."""
    src_dir = build_documents_index(sf_dir)
    corpus_path = os.path.join(src_dir, "corpus_input.parquet")
    key = hashlib.sha256(f"{os.path.abspath(sf_dir)}|{DOCS_CFG}|reindex_v1".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT_NOZONE, f"docs_reidx_{key}")
    dst_corpus = os.path.join(out, "corpus_input.parquet")
    if not os.path.exists(dst_corpus):
        os.makedirs(out, exist_ok=True)

        def transform(batch: pa.Table) -> pa.Table:
            t = pc.utf8_lower(batch.column("text"))
            t = pc.replace_substring_regex(t, r"^[^a-z0-9]+|[^a-z0-9]+$", "")
            toks = pc.split_pattern_regex(t, "[^a-z0-9]+")
            t25 = pc.binary_join(pc.list_slice(toks, 0, 25), " ")
            cols = {name: batch.column(name) for name in batch.column_names}
            cols["text"] = t25
            return pa.table(cols)

        tmp = dst_corpus + ".tmp"
        (
            rd.read_parquet(corpus_path)
            .filter(expr="lang == 'en'")
            .map_batches(transform, batch_format="pyarrow")
            .write_parquet(tmp)
        )
        os.rename(tmp, dst_corpus)
    build_index(dst_corpus, out, DOCS_CFG)
    reader = IndexReader(out, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        # truncation makes identical 25-token docs, so exact score ties at
        # 6 decimals are EXPECTED — rank on rounded scores with doc-id
        # tie-break (the collapse/block_join convention).  The window
        # DOUBLES until the boundary rounded-tie group is provably inside
        # it (last fetched score rounds strictly below the kth rounded
        # score, or the match set is exhausted), so the selection is exact
        # at any scale, not a 2k heuristic.
        win = 2 * BM25_K
        while True:
            fetched = reader.search(text, win)
            cands = [(round(s, 6), int(u.removeprefix("doc://"))) for _d, s, u in fetched]
            cands.sort(key=lambda r: (-r[0], r[1]))
            if len(fetched) < win or (
                len(cands) > BM25_K and cands[-1][0] < cands[BM25_K - 1][0]
            ):
                break
            win *= 2
        for rank, (score_r, did) in enumerate(cands[:BM25_K], 1):
            rows.append((qid, rank, did, score_r))
    return _ranked_frame(rows)


# geo: events carry no coordinates, so a deterministic lattice is
# synthesized from event_id (0.5-degree offsets keep every point far from
# any tile/range boundary; both sides derive the SAME lattice)
GEO_ZOOM: int = 3  # 8x8 web-mercator tiles


def _geo_latlon(event_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = -60.0 + (event_id % 120).astype(np.float64) + 0.5
    lon = -180.0 + ((event_id * 7) % 360).astype(np.float64) + 0.5
    return lat, lon


def geotile_grid(sf_dir: str) -> pd.DataFrame:
    """(xtile, ytile, n_events, avg_value_r) — ES ``geotile_grid``
    aggregation at zoom 3: web-mercator tile keys from the synthesized
    event lattice, per-tile count + value average.  The mercator y uses
    the ln(tan+sec) form so DuckDB replays it verbatim; per-batch partials
    carry (count, sum) per tile — 64 cells max, combine is trivial."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"])
    n_tiles = 1 << GEO_ZOOM

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        lat, lon = _geo_latlon(eid)
        xt = np.floor((lon + 180.0) / 360.0 * n_tiles).astype(np.int64)
        rad = np.deg2rad(lat)
        yt = np.floor((1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / np.pi) / 2.0 * n_tiles).astype(np.int64)
        df = pd.DataFrame({"xtile": xt, "ytile": yt, "n": 1, "s": v})
        out = df.groupby(["xtile", "ytile"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["xtile", "ytile"], sort=True).sum().reset_index()
    return pd.DataFrame(
        {
            "xtile": g["xtile"].astype(np.int64),
            "ytile": g["ytile"].astype(np.int64),
            "n_events": g["n"].to_numpy().astype(np.int64),
            "avg_value_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    )


GEO_ORIGIN: tuple[float, float] = (48.5, 2.5)  # on the lattice, Paris-ish
GEO_RANGES_KM: list[float] = [1000.0, 3000.0, 8000.0]


def geo_distance_ranges(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_events) — ES ``geo_distance`` aggregation: events bucket
    by haversine distance (R=6371 km) from the origin into
    [0,1000), [1000,3000), [3000,8000), [8000,*) km rings.  Vectorized
    trig per batch, four-cell partials; the SQL oracle computes the same
    float64 haversine."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_id"])
    olat, olon = np.deg2rad(GEO_ORIGIN[0]), np.deg2rad(GEO_ORIGIN[1])
    edges = np.asarray(GEO_RANGES_KM)
    labels = ["0-1000", "1000-3000", "3000-8000", "8000-*"]

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        lat, lon = _geo_latlon(eid)
        rlat, rlon = np.deg2rad(lat), np.deg2rad(lon)
        a = np.sin((rlat - olat) / 2.0) ** 2 + np.cos(olat) * np.cos(rlat) * np.sin((rlon - olon) / 2.0) ** 2
        d = 2.0 * 6371.0 * np.arcsin(np.sqrt(a))
        b = np.searchsorted(edges, d, side="right")
        n = np.bincount(b, minlength=4)
        return pa.table({"bucket": pa.array(labels), "n": pa.array(n, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("bucket", sort=True)["n"].sum()
    g = g[g > 0]
    return pd.DataFrame({"bucket": g.index, "n_events": g.to_numpy().astype(np.int64)}).reset_index(
        drop=True
    )


def scripted_metric_agg(sf_dir: str) -> pd.DataFrame:
    """(lang, metric) — ES ``scripted_metric`` aggregation: an arbitrary
    user map/combine/reduce — here map = ``(n_chars % 7) * 2 + (doc_id %
    3)``, combine = per-batch per-lang sums, reduce = sum of partials —
    demonstrating the free-form combiner slot every per-batch partial in
    this file instantiates.  The oracle replays the script in SQL."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_numpy(zero_copy_only=False),
                "m": (nc % 7) * 2 + (ids % 3),
            }
        )
        return pa.Table.from_pandas(df.groupby("lang", sort=False).sum().reset_index(), preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", sort=True)["m"].sum()
    return pd.DataFrame({"lang": g.index, "metric": g.to_numpy().astype(np.int64)}).reset_index(drop=True)


def bucket_sort_page(sf_dir: str) -> pd.DataFrame:
    """(source, n_docs, avg_chars_r) — ES ``bucket_sort`` pipeline
    aggregation: the terms(source)/avg(n_chars) bucket series sorted by
    (avg DESC, source ASC), then ``from=5, size=5`` (page 2) — sort and
    truncation happen on the REDUCED bucket list (20 sources), after one
    per-batch (count, sum) combiner pass over the corpus."""
    ds = _docs(sf_dir, columns=["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_numpy(zero_copy_only=False),
                "n": 1,
                "s": batch.column("n_chars").to_numpy(zero_copy_only=False),
            }
        )
        return pa.Table.from_pandas(df.groupby("source", sort=False).sum().reset_index(), preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("source", sort=False).sum()
    out = pd.DataFrame(
        {
            "source": g.index,
            "n_docs": g["n"].to_numpy().astype(np.int64),
            "avg_chars_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    )
    out = out.sort_values(["avg_chars_r", "source"], ascending=[False, True], ignore_index=True)
    return out.iloc[5:10].reset_index(drop=True)


def moving_percentiles_daily(sf_dir: str) -> pd.DataFrame:
    """(day, p50_r) — ES ``moving_percentiles`` pipeline aggregation: the
    7-bucket trailing median of the daily-count date_histogram series
    (linear-interpolation percentile, the percentiles-agg default shape).
    Heavy pass = one per-batch day-count partial; the windowed quantile
    runs over the bounded bucket series."""
    series = _day_series(sf_dir)
    n = series.to_numpy().astype(np.float64)
    p50 = pd.Series(n).rolling(7, min_periods=1).quantile(0.5, interpolation="linear")
    return pd.DataFrame({"day": pd.to_datetime(series.index), "p50_r": p50.round(6).to_numpy()})


STOPWORD_DF_FRAC: float = 0.30


def stopword_discovery(sf_dir: str) -> pd.DataFrame:
    """(term, df, df_frac_r) — corpus-driven stopword discovery (the
    analyzer-building curation step): terms whose document frequency
    exceeds 30% of the corpus, ordered by (df DESC, term ASC).  One fused
    per-batch pass computes per-term distinct-doc partials (unique per
    batch, then a vocab-bounded combine) — the same A1 stats discipline as
    the index build's df pass."""
    vocab = _corpus_vocab(sf_dir)
    n_docs = _n_docs(sf_dir)
    frac = vocab["df"] / n_docs
    out = pd.DataFrame(
        {
            "term": vocab["term"][frac > STOPWORD_DF_FRAC],
            "df": vocab["df"][frac > STOPWORD_DF_FRAC].astype(np.int64),
            "df_frac_r": frac[frac > STOPWORD_DF_FRAC].round(6),
        }
    )
    return out.sort_values(["df", "term"], ascending=[False, True], ignore_index=True)


# deterministic synthetic link graph: doc i links to (i*3+1) % N and
# (i*7+2) % N (self-links dropped) — the web-graph fixture both sides derive
PAGERANK_DAMPING: float = 0.85
PAGERANK_ITERS: int = 3


def _link_edges(batch: pa.Table, n_docs: int) -> pa.Table:
    """A doc batch's fixture links (see :func:`_link_fixture_edges`)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    src = np.concatenate([ids, ids])
    dst = np.concatenate([(ids * 3 + 1) % n_docs, (ids * 7 + 2) % n_docs])
    keep = src != dst
    return pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})


def _link_fixture_edges(sf_dir: str, n_docs: int) -> "rd.Dataset":
    """The deterministic web-link fixture shared by the graph family:
    every doc links to (id·3+1) mod n and (id·7+2) mod n, self-loops
    dropped — (src, dst) int64 rows, streamed from the doc scan."""
    return _docs(sf_dir, columns=["doc_id"]).map_batches(
        _link_edges, fn_kwargs={"n_docs": n_docs}, batch_format="pyarrow"
    )


def _restart_rows(batch: pa.Table, lang: str | None = None) -> pa.Table:
    """(node, r0) restart weights of a doc batch: 1 on every doc, or only
    on the docs of ``lang``."""
    r0 = np.ones(batch.num_rows)
    if lang is not None:
        r0[~pc.fill_null(pc.equal(batch.column("lang"), lang), False).to_numpy(zero_copy_only=False)] = 0.0
    return pa.table({"node": batch.column("doc_id"), "r0": r0})


def _restart_weights(sf_dir: str, lang: str | None = None) -> "rd.Dataset":
    """(node, r0) over every doc: the uniform teleport vector, or the one
    concentrated on the docs of ``lang`` (the graph engine normalizes it)."""
    columns = ["doc_id"] if lang is None else ["doc_id", "lang"]
    return _docs(sf_dir, columns=columns).map_batches(_restart_rows, fn_kwargs={"lang": lang}, batch_format="pyarrow")


def _doc_nodes(sf_dir: str) -> "rd.Dataset":
    return _docs(sf_dir, columns=["doc_id"]).rename_columns({"doc_id": "node"})


def _node_frame(top: pd.DataFrame, **scores: str) -> pd.DataFrame:
    """(doc_id, score_r...) of a graph top-k frame, each ``out=col`` score
    rounded to 6 decimals."""
    return pd.DataFrame(
        {
            "doc_id": top["node"].to_numpy(np.int64),
            **{out: np.round(top[col].to_numpy(np.float64), 6) for out, col in scores.items()},
        }
    )


def link_pagerank(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """(doc_id, pr_r) — web-graph PageRank over a deterministic link
    fixture, 3 power iterations at damping 0.85 from the uniform start
    (every doc has out-degree >= 1, so no dangling-mass term).  Exactly
    :data:`PAGERANK_ITERS` iterations unroll into the SQL oracle's CTE
    chain (the ``kmeans_clusters`` discipline).  Returns the top 50 docs
    by (round-6 pr DESC, doc_id ASC), so the boundary is fp-stable
    against the SQL oracle.

    ``mode`` picks the executor of
    :func:`splade_ray.pipelines.graph.pagerank_top`: ``"dense"`` keeps the
    rank vector on the driver (one contribution pass per iteration),
    ``"vertex"`` keeps it as a node-hash-bucketed Dataset co-partitioned
    with the edge list (two bucket exchanges per iteration; the 10^10-node
    shape), ``"auto"`` switches on node count.  dense == vertex is pinned
    by tests/test_graph.py."""
    n_docs = _n_docs(sf_dir)
    top = pagerank_top(
        _restart_weights(sf_dir),
        _link_fixture_edges(sf_dir, n_docs),
        n_docs,
        50,
        decimals=6,
        iters=PAGERANK_ITERS,
        damping=PAGERANK_DAMPING,
        mode=mode,
    )
    return _node_frame(top, pr_r="rank").sort_values(["doc_id"], ignore_index=True)


# data-stream fixture: 5 daily backing indices; the range query touches
# days 1-2 only
DATASTREAM_DAYS: int = 5
DATASTREAM_SELECT: tuple[int, int] = (1, 3)  # [lo, hi) day window


def _ensure_datastream_segments(sf_dir: str) -> list[str]:
    """Partition the corpus into DATASTREAM_DAYS contiguous doc-id ranges
    ("daily backing indices" — day d holds doc_id·D//N == d, stamped
    warc_ts = 2024-03-01 + d days) and build each as its own segment index
    with continued doc numbering.  Idempotent on the last segment's meta."""
    base_dir = build_documents_index(sf_dir)
    corpus_path = os.path.join(base_dir, "corpus_input.parquet")
    out = os.path.join(base_dir, "datastream")
    dirs = [os.path.join(out, f"day{d}") for d in range(DATASTREAM_DAYS)]
    if not os.path.exists(os.path.join(dirs[-1], "stats", "meta.json")):
        corpus = pq.read_table(corpus_path)
        ids = np.asarray(
            [int(u.removeprefix("doc://")) for u in corpus.column("url").to_pylist()],
            dtype=np.int64,
        )
        n = _n_docs(sf_dir)
        day = ids * DATASTREAM_DAYS // n
        os.makedirs(out, exist_ok=True)
        base = 0
        day0 = np.datetime64("2024-03-01", "us").astype(np.int64)
        for d in range(DATASTREAM_DAYS):
            part = corpus.filter(pa.array(day == d))
            ts = np.full(part.num_rows, day0 + d * 86_400_000_000, dtype=np.int64)
            part = part.set_column(
                part.schema.get_field_index("warc_ts"),
                "warc_ts",
                pa.array(ts).cast(pa.timestamp("us")),
            )
            p = os.path.join(out, f"day{d}.parquet")
            pq.write_table(part, p)
            build_index(p, dirs[d], DOCS_CFG, doc_id_base=base)
            base += part.num_rows
    return dirs


def datastream_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES data-stream retrieval with
    index-level TIME PRUNING: the corpus lives as 5 daily backing indices
    and a warc_ts range filter selects days [1, 3) — only THOSE two
    segment directories are opened (the manifest-level pruning a crawl
    store does before any postings I/O; unselected days cost nothing).
    The survivors federate under union df/N/avgdl (dfs_query_then_fetch),
    so scores equal a from-scratch BM25 over exactly the in-range docs —
    which is what the SQL oracle recomputes."""
    from .search import FederatedReader

    dirs = _ensure_datastream_segments(sf_dir)
    lo, hi = DATASTREAM_SELECT
    fr = FederatedReader(dirs[lo:hi], DOCS_CFG)
    return _ranked_frame(_ranked_rows(BM25_QUERIES, fr.search, BM25_K))


def dsir_weights(sf_dir: str) -> pd.DataFrame:
    """Top-20 docs by DSIR importance weight (hashed unigram+bigram
    features, target = the English slice, source = the whole corpus) —
    the data-selection scoring pass of Xie et al. 2023."""
    from .textops import dsir_weights as _dsir

    return _dsir(_docs(sf_dir, columns=["doc_id", "text", "lang"]), target_lang="en", k=20)


def bool_prefix_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``match_bool_prefix``: the
    head tokens are independent should-clause BM25 terms (no position
    constraint, unlike ``phrase_prefix_topk``), the trailing token is a
    PrefixQuery under Lucene's default constant-score rewrite (+1.0 to
    any doc containing a term with the prefix; prefix-only docs still
    match)."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(MPP_QUERIES, reader.search_bool_prefix, BM25_K))


# (query ids to pin, in PINNED order — ES pinned query promotes the given
# ids to the head of the result list whether or not they match)
PINNED_DOC_IDS: list[int] = [7, 3]


def pinned_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, pinned, score_r) — ES ``pinned`` query:
    the two pinned doc ids occupy ranks 1-2 IN THE GIVEN ORDER (matching
    the query text or not; their ES scores are synthetic, reported here
    as 0), organic BM25 hits follow with the pinned ids excluded.  The
    organic fetch window doubles until k - |pinned| unpinned hits are
    inside it (or the match set is exhausted), so promotion never
    truncates the tail."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    pinned_urls = {f"doc://{i:010d}" for i in PINNED_DOC_IDS}
    rows = []
    need = BM25_K - len(PINNED_DOC_IDS)
    for qid, text in BM25_QUERIES:
        for rank, did in enumerate(PINNED_DOC_IDS, 1):
            rows.append((qid, rank, did, 1, 0.0))
        win = 2 * BM25_K
        while True:
            hits = reader.search(text, win)
            organic = [h for h in hits if h[2] not in pinned_urls]
            if len(organic) >= need or len(hits) < win:
                break
            win *= 2
        for rank, (_d, score, url) in enumerate(organic[:need], 1 + len(PINNED_DOC_IDS)):
            rows.append((qid, rank, int(url.removeprefix("doc://")), 0, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "pinned", "score_r"])


TOTAL_HITS_THRESHOLD = 200


def total_hits(sf_dir: str) -> pd.DataFrame:
    """(query_id, value, relation) — ES ``track_total_hits``: the
    disjunctive match count exact up to ``TOTAL_HITS_THRESHOLD``, else
    (threshold, 'gte') with shard visiting terminated early (a shard is
    never opened once the accumulated count strictly exceeds the
    threshold)."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        value, relation, _visited = reader.total_hits(text, TOTAL_HITS_THRESHOLD)
        rows.append((qid, value, relation))
    return pd.DataFrame(rows, columns=["query_id", "value", "relation"])


def rank_feature_sat_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``rank_feature`` with the
    SATURATION function (the rank_feature default): matched docs gain
    ``boost·S/(S + pivot)`` (boost=1.5, pivot=500) over the n_chars
    feature — bounded in [0, boost), monotone in S, applied inside the
    shard owners before local top-k (the log1p variant is ``boosted_topk``;
    this is the other canonical rank_feature shape)."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = _ranked_rows(
            BM25_QUERIES, ss.search_boosted, BM25_K, boost=1.5, pivot=500.0, feature="saturation",
        )
    return _ranked_frame(rows)


def msearch_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``_msearch``: the WHOLE
    query batch rides ONE RPC per shard group (queries encoded once on the
    driver, postings visited once per actor for the batch), results
    rank-identical to independent searches — the parity is asserted
    in-query against the per-query scatter path."""
    index_dir = build_documents_index(sf_dir)
    rows = []
    with _sharded(index_dir) as ss:
        texts = [t for _q, t in BM25_QUERIES]
        batched = ss.msearch(texts, BM25_K)
        single = ss.search(texts[0], BM25_K)
        assert batched[0] == single, "msearch diverged from per-query search"
        for (qid, _t), hits in zip(BM25_QUERIES, batched):
            rows += _hit_rows(qid, hits)
    return _ranked_frame(rows)


LINEAR_FUSE_K_LIST = 20
LINEAR_FUSE_W = (0.7, 0.3)  # (sparse, dense)


def linear_fusion_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, fused_r) — the ES ``linear`` retriever
    with min-max normalization: each text query's BM25 top-20 and its
    paired dense query's cosine top-20 (vec_id == query index, the
    ``hybrid_topk`` pairing) are min-max normalized WITHIN their own list
    (max==min collapses to 1.0), then fused as 0.7·sparse + 0.3·dense
    (absent → 0), top-10 by (-fused, doc_id).  Distinct from RRF: scores,
    not ranks, carry the signal."""
    from .ann import brute_force_topk

    w_sp, w_dn = LINEAR_FUSE_W
    reader = IndexReader(build_documents_index(sf_dir), DOCS_CFG)
    emb, qrows, Q = _knn_queries(sf_dir, len(BM25_QUERIES))
    dense = brute_force_topk(emb, Q, k=LINEAR_FUSE_K_LIST)
    rows = []
    for qi, (qid, text) in enumerate(BM25_QUERIES):
        fused: dict[int, float] = {}
        sp = [
            (int(url.removeprefix("doc://")), s)
            for _d, s, url in reader.search(text, LINEAR_FUSE_K_LIST)
        ]
        if sp:
            mx, mn = max(s for _d, s in sp), min(s for _d, s in sp)
            for d, s in sp:
                nv = 1.0 if mx == mn else (s - mn) / (mx - mn)
                fused[d] = fused.get(d, 0.0) + w_sp * nv
        dq = dense[dense["query_idx"] == qi]
        ds_, ss_ = dq["vec_id"].to_numpy(), dq["score"].to_numpy()
        if ds_.size:
            mx, mn = float(ss_.max()), float(ss_.min())
            for d, s in zip(ds_.tolist(), ss_.tolist()):
                nv = 1.0 if mx == mn else (s - mn) / (mx - mn)
                fused[int(d)] = fused.get(int(d), 0.0) + w_dn * nv
        top = sorted(fused.items(), key=lambda kv: (-round(kv[1], 9), kv[0]))[:BM25_K]
        rows.extend((qid, r, d, round(v, 6)) for r, (d, v) in enumerate(top, 1))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "fused_r"])


DATE_RANGE_EDGES = ("2024-01-08", "2024-01-20")


def date_range_agg(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_events, avg_value_r) — ES ``date_range`` aggregation
    over the event stream: [*, 01-08), [01-08, 01-20), [01-20, *) —
    vectorized int64-µs comparison per batch, (count, sum) partials
    combine on the driver (3 cells × blocks)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"])
    lo, hi = (np.datetime64(e, "us").astype(np.int64) for e in DATE_RANGE_EDGES)
    labels = [f"*-{DATE_RANGE_EDGES[0]}", f"{DATE_RANGE_EDGES[0]}-{DATE_RANGE_EDGES[1]}", f"{DATE_RANGE_EDGES[1]}-*"]

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        b = (t >= lo).astype(np.int64) + (t >= hi).astype(np.int64)
        n = np.bincount(b, minlength=3)
        s = np.bincount(b, weights=v, minlength=3)
        return pa.table({"bucket": pa.array(labels), "n": pa.array(n, pa.int64()), "s": pa.array(s)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("bucket", sort=False).sum().reindex(labels)
    g = g[g["n"] > 0]
    return pd.DataFrame(
        {
            "bucket": g.index,
            "n_events": g["n"].to_numpy().astype(np.int64),
            "avg_value_r": (g["s"] / g["n"]).round(6).to_numpy(),
        }
    ).reset_index(drop=True)


def geo_bounds_centroid(sf_dir: str) -> pd.DataFrame:
    """(n_events, min_lat, max_lat, min_lon, max_lon, centroid_lat_r,
    centroid_lon_r) — ES ``geo_bounds`` + ``geo_centroid`` in one pass
    over the synthesized event lattice: per-batch (min, max, sum, count)
    partials, a 7-cell driver combine — the bounding box and arithmetic
    centroid of the whole stream."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_id"])

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        lat, lon = _geo_latlon(eid)
        if eid.size == 0:
            return pa.table({k: pa.array([], type=pa.float64()) for k in
                             ["mnla", "mxla", "mnlo", "mxlo", "sla", "slo", "n"]})
        return pa.table(
            {
                "mnla": pa.array([float(lat.min())]),
                "mxla": pa.array([float(lat.max())]),
                "mnlo": pa.array([float(lon.min())]),
                "mxlo": pa.array([float(lon.max())]),
                "sla": pa.array([float(lat.sum())]),
                "slo": pa.array([float(lon.sum())]),
                "n": pa.array([float(eid.size)]),
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = p["n"].sum()
    return pd.DataFrame(
        {
            "n_events": [int(n)],
            "min_lat": [p["mnla"].min()],
            "max_lat": [p["mxla"].max()],
            "min_lon": [p["mnlo"].min()],
            "max_lon": [p["mxlo"].max()],
            "centroid_lat_r": [round(p["sla"].sum() / n, 6)],
            "centroid_lon_r": [round(p["slo"].sum() / n, 6)],
        }
    )


def change_point_day(sf_dir: str) -> pd.DataFrame:
    """(change_day, score_r, mean_before_r, mean_after_r) — ES
    ``change_point`` (step-change detection) over the daily-avg value
    series: for every day boundary t the least-squares split statistic
    ``n₁·n₂/(n₁+n₂)·(m₁−m₂)²`` over the daily means, argmax by
    (-round(score,9), day).  The daily series comes from (count, sum)
    partials — the change-point scan itself is O(days) on the driver,
    exactly the ES shape (the agg runs over a date_histogram's buckets,
    never the raw stream)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        day = t // 86_400_000_000
        df = pd.DataFrame({"day": day, "n": 1, "s": v})
        out = df.groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("day", sort=True).sum().reset_index()
    means = (g["s"] / g["n"]).to_numpy()
    n = means.size
    if n < 2:
        raise ValueError("change_point needs >= 2 daily buckets")
    pre = np.cumsum(means)
    total = pre[-1]
    t = np.arange(1, n, dtype=np.float64)  # split AFTER day index t-1
    m1 = pre[:-1] / t
    m2 = (total - pre[:-1]) / (n - t)
    score = t * (n - t) / n * (m1 - m2) ** 2
    best = int(np.lexsort((np.arange(score.size), -np.round(score, 9)))[0])
    day_us = int(g["day"].to_numpy()[best + 1]) * 86_400_000_000
    change_day = np.datetime64(day_us, "us").astype("datetime64[D]").astype(str)
    return pd.DataFrame(
        {
            "change_day": [change_day],
            "score_r": [round(float(score[best]), 6)],
            "mean_before_r": [round(float(m1[best]), 6)],
            "mean_after_r": [round(float(m2[best]), 6)],
        }
    )


def pca_project(sf_dir: str) -> pd.DataFrame:
    """(vec_id, pc1_r) — first-principal-component projection of every
    embedding (power iteration, 3 steps, v₀ = 1/√d, sign fixed by Σv > 0):
    the Gram/moment pass is ONE streaming read (d² combiner partials), the
    iteration runs on the tiny d×d driver matrix, the projection is a
    second streaming pass — the embedding-whitening axis a curation
    pipeline stratifies on.  SQL replays the same 3 unrolled steps."""
    from .ann import pca_power_project

    out = pca_power_project(_emb(sf_dir), iters=3)
    out["pc1_r"] = out["pc1"].round(6)
    return out[["vec_id", "pc1_r"]]


def knn_pq_adc(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, adist_r, dist_r) — product-quantized
    kNN with asymmetric-distance (ADC) candidate scan + exact rescore:
    4 subspaces × 16 centroids trained by the deterministic distributed
    Lloyd spec (2 iterations, smallest-id seeds), per-query LUTs broadcast
    once, ADC top-30 per query, exact-L2 re-rank to top-10 — the PQ half
    of IVF-PQ, the memory shape that fits 10¹² vectors in RAM (codes are
    m·log₂k bits instead of d·32)."""
    from .ann import pq_adc_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = pq_adc_topk(ds, Q, k=10, m_sub=4, ksub=16, iters=2, oversample=3)
    return _knn_frame(out, qrows, "adist", "dist")


SPAN_CONTAIN_QUERIES: list[tuple[str, str, str, int]] = [
    ("cq1", "order scan", "table", 4),
    ("cq2", "fast key", "value", 5),
    ("cq3", "hash join", "the", 6),
    ("cq4", "stream column", "zzznotaword", 3),
    ("cq5", "order zzznotaword", "key", 2),
]


def span_containing_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene ``SpanContainingQuery``
    top-10 from the forward-enabled index: ordered span-near matches of
    the BIG terms that HOLD at least one occurrence of the little term
    inside the span's positions (the inclusion dual of ``span_not_topk``
    — same chain DP, same two searchsorted probes, inverted survival
    test), BM25-bag-ranked over the big terms.  An OOV little term is
    contained nowhere ⇒ no hits; an OOV big term ⇒ no span ⇒ no hits."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SPAN_CONTAIN_QUERIES, reader.search_span_containing, BM25_K))


def span_within_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — Lucene ``SpanWithinQuery``
    top-10, the dual of :func:`span_containing_topk` over the SAME
    (big, little, slop) fixture: identical match set (docs where the
    little term sits inside an ordered big span) but the little span is
    the RETURNED query, so ranking is BM25 on the little term alone —
    containment is pure context.  Same chain DP + searchsorted probes;
    only the scoring bag changes."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SPAN_CONTAIN_QUERIES, reader.search_span_within, BM25_K))


def collapse_inner_hits(sf_dir: str) -> pd.DataFrame:
    """(query_id, value, group_rank, inner_rank, doc_id, score_r) — ES
    ``collapse`` WITH ``inner_hits``: top-3 source groups per query ranked
    by their winner's (-score, doc_id), each group expanded to its own
    top-2 docs — shard owners ship ≤ |values|·2 cells (the diversified
    election), the driver re-elects and ranks groups."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            for v, grank, irank, _d, score, url in ss.search_collapse_inner(
                text, n_groups=3, per_value=2, attr_col="source"
            ):
                rows.append((qid, v, grank, irank, int(url.removeprefix("doc://")), round(score, 6)))
    return pd.DataFrame(
        rows, columns=["query_id", "value", "group_rank", "inner_rank", "doc_id", "score_r"]
    )


FIS_ITEMS: list[str] = sorted(
    {
        "spark", "join", "order", "window", "batch", "stream", "fast", "hash",
        "the", "small", "table", "data", "merge", "vector", "query", "scan",
        "customer", "line", "value",
    }
)
FIS_TOP = 25


def _fis_cooccurrence(sf_dir: str) -> tuple[np.ndarray, int]:
    """Exact |items|×|items| co-occurrence counts + corpus size over the
    declared FIS item vocabulary — ONE boolean incidence matmul per
    batch, |items|² integer cells per partial regardless of batch size
    (the fixed-size-sketch shape; shared by ``frequent_item_sets`` and
    ``association_rules``)."""
    from ..tokenizer import Tokenizer

    m = len(FIS_ITEMS)
    item_pos = {t: i for i, t in enumerate(FIS_ITEMS)}
    tok = Tokenizer()

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        B = np.zeros((len(texts), m), dtype=np.float64)
        for r, t in enumerate(texts):
            for w in set(tok.tokenize(t or "")):
                j = item_pos.get(w)
                if j is not None:
                    B[r, j] = 1.0
        P = B.T @ B  # (m, m) co-occurrence counts
        return pa.table(
            {
                "i": pa.array(np.repeat(np.arange(m, dtype=np.int64), m)),
                "j": pa.array(np.tile(np.arange(m, dtype=np.int64), m)),
                "c": pa.array(P.ravel().astype(np.int64)),
                "n": pa.array(np.full(m * m, len(texts), dtype=np.int64)),
            }
        )

    P = np.zeros((m, m), dtype=np.int64)
    n_docs = 0
    for b in (
        _docs(sf_dir, columns=["text"]).map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        if not b.num_rows:
            continue
        bi = b.column("i").to_numpy(zero_copy_only=False)
        bj = b.column("j").to_numpy(zero_copy_only=False)
        np.add.at(P, (bi, bj), b.column("c").to_numpy(zero_copy_only=False))
        # iterated batches may concatenate several per-block partials —
        # count each partial's n exactly once via its (0, 0) cell
        first = (bi == 0) & (bj == 0)
        n_docs += int(b.column("n").to_numpy(zero_copy_only=False)[first].sum())
    return P, n_docs


def frequent_item_sets(sf_dir: str) -> pd.DataFrame:
    """(item_a, item_b, support, ratio_r) — ES ``frequent_item_sets``
    (pairwise, exact, over a declared item vocabulary): pairs of items
    co-occurring in at least 5% of docs, top-25 by (support desc, pair)."""
    items = np.asarray(FIS_ITEMS, dtype=object)
    m = items.size
    P, n_docs = _fis_cooccurrence(sf_dir)
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            s = int(P[i, j])
            if s * 20 >= n_docs:  # support/N >= 0.05, integer-exact
                rows.append((items[i], items[j], s, round(s / n_docs, 6)))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return pd.DataFrame(
        rows[:FIS_TOP], columns=["item_a", "item_b", "support", "ratio_r"]
    )


def knn_ivfpq(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, adist_r, dist_r) — IVF-PQ: the coarse
    k-means quantizer (k=4, 3 Lloyd iterations, the kmeans_clusters spec)
    prunes each query's scan to its 2 nearest clusters, the global 4×16
    PQ codebooks ADC-score the survivors, exact-L2 rescore re-ranks the
    top-30 to top-10 — coarse pruning × compact codes, the
    trillion-vector layout, with BOTH iterative trainings unrolled into
    one SQL oracle."""
    from .ann import ivfpq_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = ivfpq_topk(
        ds, Q, k=10, n_clusters=4, coarse_iters=3, nprobe=2, m_sub=4, ksub=16, iters=2, oversample=3
    )
    return _knn_frame(out, qrows, "adist", "dist")


# ES function_score with MULTIPLE filtered functions (score_mode=sum,
# boost_mode=multiply).  The spec is a module constant so the SQL oracle
# replays the same arithmetic term by term.
FUNCSCORE_FUNCTIONS: list[dict] = [
    # field_value_factor on n_chars, only for english docs
    {"kind": "fvf", "attr": "n_chars", "weight": 1.2, "div": 500.0, "filter": ("lang", "eq", "en")},
    # gauss decay on n_chars around 1200 chars, every doc
    {
        "kind": "gauss",
        "attr": "n_chars",
        "weight": 2.0,
        "origin": 1200.0,
        "scale": 600.0,
        "decay": 0.5,
        "filter": None,
    },
    # flat boost for the src1* source family
    {"kind": "weight", "weight": 0.5, "filter": ("source", "prefix", "src1")},
]
FUNCSCORE_MAX_BOOST: float = 2.5
FUNCSCORE_MIN_SCORE: float = 0.05


def function_score_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES ``function_score`` with THREE
    filtered functions combining under ``score_mode=sum`` (docs matching no
    function keep factor 1.0), the summed factor capped at ``max_boost``
    BEFORE ``boost_mode=multiply``, and a ``min_score`` cut on the final
    score.  All per-doc math runs inside the shard owners against their
    co-located doc-value sidecars (:meth:`ShardScorerActor.
    score_function_score`); only local top-k candidates reach the merge."""
    index_dir = build_documents_index(sf_dir)
    with _sharded(index_dir) as ss:
        rows = []
        for qid, text in BM25_QUERIES:
            hits = ss.search_function_score(
                text,
                BM25_K,
                FUNCSCORE_FUNCTIONS,
                max_boost=FUNCSCORE_MAX_BOOST,
                min_score=FUNCSCORE_MIN_SCORE,
            )
            rows += _hit_rows(qid, hits)
    return _ranked_frame(rows)


# boilerplate-template mining: signature = first TEMPLATE_SIG_TOKENS tokens
# with digit-bearing tokens collapsed to <num>
TEMPLATE_SIG_TOKENS: int = 8
TEMPLATE_TOP: int = 25


def template_signatures(sf_dir: str) -> pd.DataFrame:
    """(signature, n_docs, example_doc_id) — boilerplate/template mining
    over a web corpus: docs sharing the same shape of opening tokens (first
    8 tokens, digit-bearing tokens collapsed to ``<num>``) group into
    template clusters; the biggest clusters are the site templates /
    boilerplate families a curation pipeline strips or caps.  One
    vectorized tokenize pass emits per-batch (signature, count, min_id)
    partials; signatures exchange ONCE through a Ray groupby (key-balanced
    — no corpus-scale driver state) and the bounded top-25 list sorts on
    the driver."""
    from ..tokenizer import Tokenizer

    tok = Tokenizer()

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sigs = []
        for text in batch.column("text").to_pylist():
            ts = tok.tokenize(text)[:TEMPLATE_SIG_TOKENS]
            sigs.append(" ".join("<num>" if any(c.isdigit() for c in t) else t for t in ts))
        t = pa.table({"signature": pa.array(sigs, pa.string()), "doc_id": pa.array(ids)})
        return t.group_by(["signature"]).aggregate([("doc_id", "count"), ("doc_id", "min")])

    parts = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(partial, batch_format="pyarrow")
    agg = (
        parts.groupby("signature")
        .aggregate(Sum("doc_id_count"), Min("doc_id_min"))
        .to_pandas()
    )
    agg = agg.rename(columns={"sum(doc_id_count)": "n_docs", "min(doc_id_min)": "example_doc_id"})
    agg = agg.sort_values(
        ["n_docs", "signature"], ascending=[False, True], ignore_index=True
    ).head(TEMPLATE_TOP)
    agg["n_docs"] = agg["n_docs"].astype(np.int64)
    agg["example_doc_id"] = agg["example_doc_id"].astype(np.int64)
    return agg[["signature", "n_docs", "example_doc_id"]]


# HITS hubs & authorities over the PAGERANK link fixture
HITS_ITERS: int = 3
HITS_TOP: int = 30


def hits_scores(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """(doc_id, auth_r, hub_r) — HITS hubs & authorities (Kleinberg) over
    the deterministic link fixture shared with :func:`link_pagerank`,
    3 iterations with L1 normalization after each half-step from the
    all-ones hub start.  Top 30 by (round-9 auth DESC, doc_id).

    ``mode`` picks the executor of
    :func:`splade_ray.pipelines.graph.hits_top`: ``"dense"`` makes each
    half-step ONE edge-stream pass with the n-bounded score vector
    broadcast via ``ray.put``; ``"vertex"`` keeps both score vectors in a
    node-hash-bucketed Dataset, the L1 divisor (one scalar per half-step)
    the only driver state, folded into the next gather so each element
    divides exactly once — the dense arithmetic replayed distributively.
    dense == vertex pinned by tests/test_graph.py."""
    n_docs = _n_docs(sf_dir)
    top = hits_top(
        _doc_nodes(sf_dir),
        _link_fixture_edges(sf_dir, n_docs),
        n_docs,
        HITS_TOP,
        decimals=9,
        iters=HITS_ITERS,
        mode=mode,
    )
    return _node_frame(top, auth_r="auth", hub_r="hub").sort_values(["doc_id"], ignore_index=True)


# BPE vocabulary training: K merges over the corpus word-frequency table
BPE_MERGES: int = 6


def bpe_merges(sf_dir: str) -> pd.DataFrame:
    """(step, lhs, rhs, merged, pair_n) — byte-pair-encoding vocabulary
    training (Sennrich et al. 2016) over the corpus: the distributed pass
    is ONE fused tokenize+count sweep emitting per-batch (term, cf)
    partials (vocab-bounded — the A1 stats discipline); the merge loop
    then runs on the reduced word-frequency table, exactly where every
    BPE trainer runs it (the table is vocab-sized, not corpus-sized).
    Each merge picks the most frequent adjacent symbol pair
    (ties: count DESC, pair lexicographic ASC) and rewrites words with
    greedy left-to-right non-overlapping replacement — the same replace
    semantics the SQL oracle's ``replace()`` applies, so all
    ``BPE_MERGES`` steps replay exactly."""
    rows, _wlist = _bpe_train(_bpe_word_table(sf_dir), BPE_MERGES)
    return pd.DataFrame(rows, columns=["step", "lhs", "rhs", "merged", "pair_n"])


def _term_cf_partial(batch: pa.Table) -> pa.Table:
    """A text batch's (term, cf_sum) partial."""
    from ..stages.encode import term_count_table
    from ..tokenizer import Tokenizer

    terms, tfs, _dls = term_count_table(batch.column("text"), Tokenizer())
    t = pa.table({"term": pc.list_flatten(terms), "cf": pc.cast(pc.list_flatten(tfs), pa.int64())})
    return t.group_by(["term"]).aggregate([("cf", "sum")])


def _bpe_word_table(sf_dir: str) -> pd.Series:
    """word → corpus frequency, via one fused tokenize+count sweep with
    per-batch combiner partials (the A1 stats discipline)."""
    parts = _docs(sf_dir, columns=["text"]).map_batches(_term_cf_partial, batch_format="pyarrow").to_pandas()
    return parts.groupby("term", sort=True)["cf_sum"].sum()


def _bpe_train(
    words: pd.Series, n_merges: int
) -> tuple[list[tuple[int, str, str, str, int]], list[tuple[str, int]]]:
    """The merge loop over the vocab-bounded word table: returns the merge
    rows and the final rewritten word list."""
    # '|'-terminated symbol strings; tokens are [a-z0-9]+ so '|' is free
    wlist: list[tuple[str, int]] = [("|".join(w) + "|", int(c)) for w, c in words.items()]
    rows = []
    for step in range(1, n_merges + 1):
        pair_counts: dict[tuple[str, str], int] = {}
        for w, c in wlist:
            syms = w.split("|")[:-1]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
        if not pair_counts:  # every word is one symbol: vocabulary saturated
            break
        (a, b), cnt = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append((step, a, b, a + b, cnt))
        pat, rep = a + "|" + b + "|", a + b + "|"
        wlist = [(w.replace(pat, rep), c) for w, c in wlist]
    return rows, wlist


# MMR diversity re-ranking over the embedding corpus
MMR_QUERIES: int = 3
MMR_POOL: int = 20
MMR_K: int = 10
MMR_LAMBDA: float = 0.7


def mmr_rerank(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, mmr_r) — Maximal Marginal Relevance
    diversity re-ranking (Carbonell & Goldstein 1998): the candidate pool
    is the distributed brute-force cosine top-20 per query; the greedy
    selection (rank 1 = best relevance; rank i maximizes ``λ·rel −
    (1−λ)·max_sim_to_selected``) runs on the k-bounded pool on the driver
    — 20×20 similarity matrices, never corpus-scale.  Candidate
    embeddings are fetched with ONE id-filtered streaming pass.  Ties
    break on (round9 score DESC, vec_id ASC); all ten greedy steps unroll
    into the SQL oracle."""
    from .ann import brute_force_topk
    from .dedup import _member_filter

    ds, qrows, Q = _knn_queries(sf_dir, MMR_QUERIES)
    cand = brute_force_topk(ds, Q, k=MMR_POOL)

    want = np.unique(cand["vec_id"].to_numpy())
    emb_df = ds.map_batches(
        _member_filter,
        fn_kwargs={"col": "vec_id", "sorted_ref": ray.put(want), "members": True},
        batch_format="pyarrow",
    ).to_pandas()
    vec_of = {}
    for r in emb_df.itertuples(index=False):
        v = np.asarray(r.embedding, dtype=np.float64)
        n = np.linalg.norm(v)
        vec_of[int(r.vec_id)] = v / (n if n > 0 else 1.0)

    lam = MMR_LAMBDA
    rows = []
    qvids = qrows["vec_id"].to_numpy()
    for qi in range(len(qvids)):
        sub = cand[cand["query_idx"] == qi]
        ids_i = sub["vec_id"].to_numpy()
        rel = sub["score"].to_numpy().astype(np.float64)
        E = np.stack([vec_of[int(i)] for i in ids_i])
        S = E @ E.T
        maxsim = np.zeros(ids_i.size)
        taken = np.zeros(ids_i.size, dtype=bool)
        for rank in range(1, MMR_K + 1):
            mmr = lam * rel - (1.0 - lam) * maxsim
            mmr[taken] = -np.inf
            j = int(np.lexsort((ids_i, -np.round(mmr, 9)))[0])
            rows.append((int(qvids[qi]), rank, int(ids_i[j]), round(float(mmr[j]), 6)))
            taken[j] = True
            maxsim = np.maximum(maxsim, S[:, j])
    return pd.DataFrame(rows, columns=["query_vec_id", "rank", "vec_id", "mmr_r"])


BPE_TOP_SYMBOLS: int = 20


def bpe_encode(sf_dir: str) -> pd.DataFrame:
    """(symbol, freq) — the learned BPE vocabulary APPLIED back to the
    corpus: after the ``BPE_MERGES`` training steps every word is a
    sequence of merged symbols, and this reports the top-20 symbols by
    total corpus frequency (the subword distribution a tokenizer build
    ships).  The corpus pass and merge loop are shared with
    :func:`bpe_merges`; applying merges to unseen text is the same
    greedy-replace, so symbol frequencies derive from the final word
    table (word freq × symbol occurrences in the rewritten word)."""
    _rows, wlist = _bpe_train(_bpe_word_table(sf_dir), BPE_MERGES)
    freq: dict[str, int] = {}
    for w, c in wlist:
        for s in w.split("|")[:-1]:
            freq[s] = freq.get(s, 0) + c
    items = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:BPE_TOP_SYMBOLS]
    return pd.DataFrame(
        {"symbol": [s for s, _ in items], "freq": np.asarray([c for _, c in items], np.int64)}
    )


# ES variable_width_histogram: 1-D k-means buckets over a numeric field
VWH_BUCKETS: int = 4
VWH_ITERS: int = 3


def variable_width_histogram(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_docs, min_chars, max_chars, avg_chars_r) — ES
    ``variable_width_histogram`` over the n_chars doc-value, made
    deterministic as 1-D Lloyd k-means (k=4, 3 iterations; seeds = the 4
    smallest distinct values; assignment ties to the lower cluster;
    centroids rounded to 9 decimals each update so the fp boundary is
    stable).  Every pass is one streaming map_batches with k-cell combiner
    partials against broadcast centroids; the SQL oracle unrolls all
    three iterations over the (distinct value, count) table — weighted
    updates are identical arithmetic."""
    ds = _docs(sf_dir, columns=["n_chars"])

    def uniq_partial(batch: pa.Table) -> pa.Table:
        v = np.unique(batch.column("n_chars").to_numpy(zero_copy_only=False))
        return pa.table({"x": pa.array(v[: VWH_BUCKETS * 4])})

    seed_vals = np.unique(
        ds.map_batches(uniq_partial, batch_format="pyarrow").to_pandas()["x"].to_numpy()
    )
    cents = np.round(seed_vals[:VWH_BUCKETS].astype(np.float64), 9)

    def sweep(cents_now: np.ndarray, final: bool) -> pd.DataFrame:
        ref = ray.put(cents_now)

        def partial(batch: pa.Table) -> pa.Table:
            c = cached_ref(ref)
            x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
            d = (x[:, None] - c[None, :]) ** 2
            cl = np.argmin(d, axis=1)  # argmin takes the FIRST min: lower-cl ties
            n = np.bincount(cl, minlength=c.size)
            s = np.bincount(cl, weights=x, minlength=c.size)
            cols = {
                "cl": pa.array(np.arange(c.size, dtype=np.int64)),
                "n": pa.array(n.astype(np.int64)),
                "s": pa.array(s),
            }
            if final:
                mn = np.full(c.size, np.inf)
                mx = np.full(c.size, -np.inf)
                np.minimum.at(mn, cl, x)
                np.maximum.at(mx, cl, x)
                cols["mn"] = pa.array(mn)
                cols["mx"] = pa.array(mx)
            return pa.table(cols)

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        agg = {"n": "sum", "s": "sum"}
        if final:
            agg.update({"mn": "min", "mx": "max"})
        return parts.groupby("cl", sort=True).agg(agg)

    for _ in range(VWH_ITERS):
        g = sweep(cents, final=False)
        upd = np.where(g["n"].to_numpy() > 0, g["s"].to_numpy() / np.maximum(g["n"].to_numpy(), 1), cents)
        cents = np.round(upd, 9)
    g = sweep(cents, final=True)
    g = g[g["n"] > 0]
    return pd.DataFrame(
        {
            "bucket": g.index.to_numpy().astype(np.int64),
            "n_docs": g["n"].to_numpy().astype(np.int64),
            "min_chars": g["mn"].to_numpy().astype(np.int64),
            "max_chars": g["mx"].to_numpy().astype(np.int64),
            "avg_chars_r": np.round(g["s"].to_numpy() / g["n"].to_numpy(), 6),
        }
    ).reset_index(drop=True)


# filtered alias: days 2-4 of the datastream + lang = 'en'
ALIAS_NAME: str = "recent_en"
ALIAS_DAYS: tuple[int, int] = (2, 5)  # [lo, hi) of DATASTREAM_DAYS
ALIAS_LANG: str = "en"


def alias_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — ES FILTERED-ALIAS serving: the
    alias names 3 of the 5 daily backing indices plus a ``lang = 'en'``
    doc filter; queries address the alias, the resolver opens only its
    segments, and each segment applies the filter inside its own scorer
    (live-docs shape) under segment statistics — alias swaps / rollover
    stay invisible to the client.  The allow set comes from ONE
    column-pruned corpus read; the registry is an atomic ``aliases.json``
    beside the index (:mod:`splade_ray.state.aliases`)."""
    from ..state.aliases import get_alias, put_alias
    from .search import FederatedReader

    dirs = _ensure_datastream_segments(sf_dir)
    base = build_documents_index(sf_dir)
    lo, hi = ALIAS_DAYS
    put_alias(base, ALIAS_NAME, dirs[lo:hi], {"col": "lang", "op": "eq", "value": ALIAS_LANG})

    seg_dirs, filt = get_alias(base, ALIAS_NAME)
    fr = FederatedReader(seg_dirs, DOCS_CFG)
    corpus = pq.read_table(
        os.path.join(base, "corpus_input.parquet"), columns=["url", filt["col"]]
    )
    allow = corpus.filter(pc.equal(corpus.column(filt["col"]), filt["value"])).column("url")
    allow = pa.array(sorted(allow.to_pylist()), type=pa.string())
    return _ranked_frame(_ranked_rows(BM25_QUERIES, fr.search_filtered, BM25_K, allow_urls=allow))


def bucket_percentiles_stats(sf_dir: str) -> pd.DataFrame:
    """(p25_r, p50_r, p75_r, min_n, max_n, avg_r, sum_n) — ES
    ``percentiles_bucket`` + ``stats_bucket`` pipeline aggs over the daily
    event-count series: the heavy pass is the same per-batch day-count
    partial as the other date-histogram queries; the pipeline math runs on
    the bounded bucket list (linear-interpolation percentiles, the ES/
    numpy default).  One row out."""
    n = _day_series(sf_dir).to_numpy().astype(np.float64)
    if n.size == 0:
        raise ValueError(f"no daily buckets: the events table of {sf_dir} is empty")
    p25, p50, p75 = np.percentile(n, [25, 50, 75], method="linear")
    return pd.DataFrame(
        {
            "p25_r": [round(float(p25), 6)],
            "p50_r": [round(float(p50), 6)],
            "p75_r": [round(float(p75), 6)],
            "min_n": np.asarray([n.min()], np.int64),
            "max_n": np.asarray([n.max()], np.int64),
            "avg_r": [round(float(n.mean()), 6)],
            "sum_n": np.asarray([n.sum()], np.int64),
        }
    )


CONTAINMENT_THRESHOLD: float = 0.7


def containment_pairs(sf_dir: str) -> pd.DataFrame:
    """(id_a, id_b, inter, c_ab_r, c_ba_r) — exact directional 3-gram
    containment pairs at max(c_ab, c_ba) >= 0.7: the quote/excerpt
    detector jaccard misses (a short doc inside a long one)."""
    from .dedup import containment_pairs as _cp

    out = _cp(_docs(sf_dir, columns=["doc_id", "text"]), threshold=CONTAINMENT_THRESHOLD)
    out["c_ab_r"] = out["c_ab"].round(6)
    out["c_ba_r"] = out["c_ba"].round(6)
    return out[["id_a", "id_b", "inter", "c_ab_r", "c_ba_r"]]


def combined_fields_topk(sf_dir: str) -> pd.DataFrame:
    """ES ``combined_fields`` query (Lucene ``CombinedFieldQuery``): the
    fields merge into ONE pseudo-field *before* BM25 — per (doc, term)
    the combined tf is Σ_f boost_f·tf_f, the combined doc length is
    Σ_f boost_f·dl_f, avgdl is the mean combined length and df is the
    whole-document df — then a single standard BM25 saturation scores it.
    Contrast BM25F, which length-normalizes each field by its OWN
    dl/avgdl before summing."""
    return _fields_topk(sf_dir, "combined_fields")


def regional_revenue(sf_dir: str) -> pd.DataFrame:
    """(region_name, nation_name, revenue, n_items) — TPC-H-Q5-shaped
    star join: lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ nation ⋈ region,
    keeping only items whose customer and supplier share a nation, revenue
    per (region, nation).

    100-TB shape: the two FACT tables exchange ONCE on ~256 coarse
    orderkey-hash buckets (the ``order_priority_revenue`` co-partition);
    the DIMENSIONS never shuffle — customer and supplier key→nation
    arrays broadcast via ``ray.put`` and are resolved AT TAG TIME, so the
    fact rows enter the exchange already carrying their nation codes, and
    nation/region name resolution happens on the |nations|-bounded final
    partials.  (At a 10^9-customer design point the customer lookup
    outgrows broadcast and becomes a third tagged stream on custkey
    buckets first — the same tag+union machinery.)  Revenue sums in exact
    integer 1e-4 units; per-bucket kernel = one searchsorted probe +
    bincount partials, the joined row set never materializes."""
    from ..functions.hashing import splitmix64

    nb = 256
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    order_c = np.argsort(ck)
    cust_ref = ray.put((ck[order_c], cust["c_nationkey"].to_numpy(np.int64)[order_c]))
    supp = rd.read_parquet(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(np.int64)
    order_s = np.argsort(sk)
    supp_ref = ray.put((sk[order_s], supp["s_nationkey"].to_numpy(np.int64)[order_s]))

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"])
    items = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def tag_orders(batch: pa.Table) -> pa.Table:
        keys, nat = cached_ref(cust_ref)
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(keys, c), max(keys.size - 1, 0))
        hit = keys[pos] == c if keys.size else np.zeros(c.size, bool)
        k, pos = k[hit], pos[hit]
        return pa.table(
            {
                "jkey": pa.array(k),
                "bucket": pa.array((splitmix64(k.astype(np.uint64)) % np.uint64(nb)).astype(np.int32)),
                "side": pa.array(np.zeros(k.size, dtype=np.int8)),
                "nat": pa.array(nat[pos]),
                "rev_e4": pa.array(np.zeros(k.size, dtype=np.int64)),
            }
        )

    def tag_items(batch: pa.Table) -> pa.Table:
        keys, nat = cached_ref(supp_ref)
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        disc = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        pos = np.minimum(np.searchsorted(keys, s), max(keys.size - 1, 0))
        hit = keys[pos] == s if keys.size else np.zeros(s.size, bool)
        return pa.table(
            {
                "jkey": pa.array(k[hit]),
                "bucket": pa.array((splitmix64(k[hit].astype(np.uint64)) % np.uint64(nb)).astype(np.int32)),
                "side": pa.array(np.ones(int(hit.sum()), dtype=np.int8)),
                "nat": pa.array(nat[pos[hit]]),
                "rev_e4": pa.array((cents * (100 - disc))[hit]),
            }
        )

    empty = pa.table(
        {
            "nat": pa.array([], type=pa.int64()),
            "rev_e4": pa.array([], type=pa.int64()),
            "n_items": pa.array([], type=pa.int64()),
        }
    )

    def bucket_agg(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty
        side = g.column("side").to_numpy(zero_copy_only=False)
        jkey = g.column("jkey").to_numpy(zero_copy_only=False)
        nat = g.column("nat").to_numpy(zero_copy_only=False)
        o = side == 0
        if not o.any() or o.all():
            return empty
        okeys = jkey[o]
        sidx = np.argsort(okeys, kind="stable")
        sorted_ok = okeys[sidx]
        onat = nat[o][sidx]
        lk = jkey[~o]
        lnat = nat[~o]
        rev = g.column("rev_e4").to_numpy(zero_copy_only=False)[~o]
        pos = np.minimum(np.searchsorted(sorted_ok, lk), sorted_ok.size - 1)
        match = (sorted_ok[pos] == lk) & (onat[pos] == lnat)
        nm = lnat[match]
        rv = rev[match]
        un, inv = np.unique(nm, return_inverse=True)
        # int64 scatter-add (not float64 bincount weights): per-bucket sums
        # can exceed 2^53 e4-units at the 100-TB design point and the
        # exact-integer-revenue contract must hold there too
        acc = np.zeros(un.size, dtype=np.int64)
        np.add.at(acc, inv, rv)
        return pa.table(
            {
                "nat": pa.array(un.astype(np.int64)),
                "rev_e4": pa.array(acc),
                "n_items": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    tagged = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        items.map_batches(tag_items, batch_format="pyarrow")
    )
    n_rows = sum(
        pq.read_metadata(os.path.join(sf_dir, f"{t}.parquet")).num_rows for t in ("orders", "lineitem")
    )
    if n_rows <= 1_000_000:
        tagged = tagged.repartition(max(8, n_rows // 100_000))
    parts = tagged.groupby("bucket").map_groups(bucket_agg, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("nat", sort=True).agg(rev_e4=("rev_e4", "sum"), n_items=("n_items", "sum")).reset_index()
    nation = rd.read_parquet(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = rd.read_parquet(os.path.join(sf_dir, "region.parquet")).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    out = agg.merge(dim, left_on="nat", right_on="n_nationkey")
    out["revenue"] = (out["rev_e4"] / 10000.0).round(6)
    out = out.rename(columns={"r_name": "region_name", "n_name": "nation_name"})
    out = out[["region_name", "nation_name", "revenue", "n_items"]]
    return out.sort_values(["region_name", "nation_name"], ignore_index=True)


VOCAB_GROWTH_CHECKPOINTS: int = 10


def vocab_growth(sf_dir: str) -> pd.DataFrame:
    """(checkpoint, n_docs_seen, vocab_size) — Heaps'-law vocabulary
    growth curve: distinct terms seen after the first 10%, 20%, …, 100%
    of the corpus in deterministic doc_id order (the tokenizer-budget /
    corpus-diversity diagnostic of a training-data pipeline).

    The ordered-scan semantics distribute WITHOUT an ordered scan: the
    cumulative distinct count at checkpoint c equals |{terms whose FIRST
    occurrence doc ≤ c}|, so one streaming pass emits vocab-bounded
    (term → min doc_id) combiner partials per batch, a driver reduce
    takes the global min per term, and each checkpoint is a count over
    the first-occurrence histogram — no sort, no per-doc exchange."""
    from ..stages.encode import term_count_table
    from ..tokenizer import Tokenizer

    n_docs = _n_docs(sf_dir)

    def first_seen(batch: pa.Table) -> pa.Table:
        terms, _tfs, _dls = term_count_table(batch.column("text").to_pylist(), Tokenizer())
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tarr = terms.values.to_numpy(zero_copy_only=False).astype(object)
        reps = np.diff(terms.offsets.to_numpy(zero_copy_only=False))
        doc_of = np.repeat(ids, reps)
        # per-batch combiner: min doc per term (vocab-bounded partial)
        s = pd.Series(doc_of).groupby(pd.Series(tarr), sort=False).min()
        return pa.table({"term": pa.array(s.index.to_numpy(dtype=object), type=pa.string()),
                         "first_doc": pa.array(s.to_numpy(np.int64))})

    parts = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(first_seen, batch_format="pyarrow")
        .to_pandas()
    )
    first = parts.groupby("term", sort=False)["first_doc"].min().to_numpy()
    cps = np.arange(1, VOCAB_GROWTH_CHECKPOINTS + 1)
    seen = (cps * n_docs) // VOCAB_GROWTH_CHECKPOINTS  # docs 0..seen-1
    vocab = np.searchsorted(np.sort(first), seen)  # first_doc < seen
    return pd.DataFrame(
        {
            "checkpoint": cps.astype(np.int64),
            "n_docs_seen": seen.astype(np.int64),
            "vocab_size": vocab.astype(np.int64),
        }
    )


FUNNEL_STAGES: tuple[str, ...] = ("view", "click", "purchase")


def event_funnel(sf_dir: str) -> pd.DataFrame:
    """(stage, event_type, n_users, conversion_r) — ordered funnel
    analysis over the events stream: a user is at stage i when they have
    a strictly increasing timestamp chain view < click < purchase through
    stage i, each stage matched at its EARLIEST feasible timestamp (the
    greedy chain is optimal: matching the earliest feasible event never
    excludes a later chain).  conversion_r = n_users(stage) /
    n_users(previous stage).

    Distributed shape: only events whose type is in the funnel survive
    the projection; ONE ``groupby(user_id)`` co-locates each user's
    events, and the per-group kernel is a |stages|-pass vectorized min
    over the sorted timestamps — output is |stages| rows total."""
    stages = list(FUNNEL_STAGES)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type", "ts"])
    ev = ev.map_batches(
        lambda b: b.filter(pc.is_in(b.column("event_type"), value_set=pa.array(stages))),
        batch_format="pyarrow",
    )

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        reach = 0
        cur = None  # earliest feasible ts of the previous stage
        for st in stages:
            ts = g.loc[g["event_type"] == st, "ts"]
            if cur is not None:
                ts = ts[ts > cur]
            if ts.empty:
                break
            cur = ts.min()
            reach += 1
        return pd.DataFrame({"reach": [reach]})

    reached = ev.groupby("user_id").map_groups(chain, batch_format="pandas").to_pandas()
    counts = np.zeros(len(stages), dtype=np.int64)
    r = reached["reach"].to_numpy()
    for i in range(1, len(stages) + 1):
        counts[i - 1] = int((r >= i).sum())
    prev = np.concatenate([[counts[0]], counts[:-1]])
    conv = np.divide(counts, np.maximum(prev, 1), dtype=np.float64)
    conv[0] = 1.0
    return pd.DataFrame(
        {
            "stage": np.arange(1, len(stages) + 1, dtype=np.int64),
            "event_type": stages,
            "n_users": counts,
            "conversion_r": np.round(conv, 6),
        }
    )


def knn_bq_rescore(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, coarse_r, score_r) — two-phase
    BINARY-quantized kNN (ES ``bbq`` / 1-bit vectors + rescore): phase 1
    ranks the corpus by sign-bit agreement (dim − hamming over the sign
    bitplanes — ±1 inner product, SQL-replayable exactly since the coarse
    score is a small integer), keeps the top 30 per query by
    (−agree, vec_id); phase 2 fetches only those candidates and re-ranks
    with the exact float cosine."""
    from .ann import binary_rescore_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = binary_rescore_topk(ds, Q, k=10, oversample=3)
    return _knn_frame(out, qrows, "coarse", "score")


# substring (infix) queries against the trigram-indexed term dictionary
SUBSTRING_QUERIES: list[tuple[str, str]] = [
    ("sq0", "oin"),     # j-oin
    ("sq1", "indo"),    # w-indo-w
    ("sq2", "tream"),   # s-tream
    ("sq3", "zzznotasub"),
    ("sq4", "ata"),     # d-ata
]


def substring_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — infix dictionary queries (the
    ES ``wildcard`` FIELD type's ``*sub*`` shape): the needle expands via
    a char-trigram inverted map over the VOCAB (intersect the needle's
    trigram postings, verify containment on the bounded candidate set —
    never a full dictionary scan, unlike ``regexp_topk``), then scores as
    an expanded OR (unit weight, per-term idf) through the unchanged BM25
    kernels."""
    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    return _ranked_frame(_ranked_rows(SUBSTRING_QUERIES, reader.search_substring, BM25_K))


def user_retention(sf_dir: str) -> pd.DataFrame:
    """(cohort_week, week_offset, n_users) — cohort retention triangle:
    users grouped by first-activity week (Monday start), counted once per
    (cohort, weeks-since-cohort) cell they were active in.

    ONE exchange on user_id co-locates each user's events; the per-group
    kernel emits the user's distinct (cohort, offset) cells, and the
    final aggregate is bounded by weeks² — at 100 TB the heavy side
    (events) streams through the groupby, nothing else moves."""
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"])

    def cells(g: pd.DataFrame) -> pd.DataFrame:
        # epoch days; 1970-01-01 was a Thursday → Monday-start weeks
        days = g["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        weeks = days - ((days + 3) % 7)
        cw = weeks.min()
        offs = np.unique((weeks - cw) // 7)
        return pd.DataFrame({"cw": np.full(offs.size, cw, dtype=np.int64), "off": offs})

    cells_df = ev.groupby("user_id").map_groups(cells, batch_format="pandas").to_pandas()
    out = cells_df.groupby(["cw", "off"], sort=True).size().reset_index(name="n_users")
    return pd.DataFrame(
        {
            "cohort_week": pd.to_datetime(out["cw"].to_numpy(), unit="D"),
            "week_offset": out["off"].astype(np.int64),
            "n_users": out["n_users"].astype(np.int64),
        }
    )


WEIGHTED_SAMPLE_K: int = 50
_WS_MULT, _WS_MOD = np.uint64(3266489917), np.uint64(4294967296)


def weighted_sample(sf_dir: str) -> pd.DataFrame:
    """(doc_id, lang, n_chars, key_r) — weighted sampling WITHOUT
    replacement (Efraimidis–Spirakis A-ES, the importance-weighted
    training-data subsample): key = ln(u)/w with w = n_chars and u a
    per-row deterministic uniform from a multiplicative hash (a third
    multiplier, decorrelated from deterministic_sample and
    stratified_sample); the global top-50 keys ARE the weighted sample.
    Per-batch boundary-safe partial top-k partials merge on the driver —
    k-bounded exchange, the corpus never moves; the hash + log arithmetic
    replays exactly in SQL."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    k = WEIGHTED_SAMPLE_K

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        w = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(over="ignore"):
            h = (ids * _WS_MULT) % _WS_MOD
        u = (h.astype(np.float64) + 0.5) / 4294967296.0
        key = np.log(u) / np.maximum(w, 1.0)
        from .ann import _boundary_safe_topk

        part = _boundary_safe_topk(key, min(k, key.size))
        return pa.table(
            {
                "doc_id": pa.array(ids[part].astype(np.int64)),
                "lang": batch.column("lang").take(pa.array(part)),
                "n_chars": batch.column("n_chars").take(pa.array(part)),
                "key": pa.array(key[part]),
            }
        )

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # the repo's score-ranking convention: round(·, 9) then doc_id —
    # matches the SQL oracle's ORDER BY round(key, 9) DESC, doc_id
    cand["rk"] = cand["key"].round(9)
    cand = cand.sort_values(["rk", "doc_id"], ascending=[False, True], kind="mergesort").head(k)
    cand["key_r"] = cand["key"].round(6)
    return cand[["doc_id", "lang", "n_chars", "key_r"]].reset_index(drop=True)


_TRIANGLE_SCHEMA = pa.schema([("n_edges", pa.int64()), ("n_wedges", pa.int64()), ("n_triangles", pa.int64())])


def _canonical_edges(batch: pa.Table, nbuckets: int) -> pa.Table:
    """A fixture batch's links in the canonical a < b orientation,
    bucketed on the smaller endpoint."""
    src = batch.column("src").to_numpy(zero_copy_only=False)
    dst = batch.column("dst").to_numpy(zero_copy_only=False)
    a = np.minimum(src, dst)
    return pa.table({"a": a, "b": np.maximum(src, dst), "bucket": _bucket(a, nbuckets)})


def _wedge_rows(g: pa.Table, n_docs: int, nbuckets: int) -> pa.Table:
    """One a-bucket's distinct canonical edges (side 0) plus the wedges
    (x, y) at each a (side 1), every row bucketed on x for the closure
    probe."""
    a = g.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = g.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
    pair = np.unique(a * np.int64(n_docs) + b)
    a, b = pair // n_docs, pair % n_docs
    # wedges at the smallest vertex: all neighbor pairs (x < y) of a.
    # adjacency is (a, b-sorted) segments; pairs come from OFFSET
    # shifts (≤ max-degree iterations, not a per-node loop)
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    deg = np.diff(np.r_[starts, a.size])
    out_x, out_y = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for off in range(1, int(deg.max()) if deg.size else 0):
        idx = np.arange(a.size - off)
        same = a[idx] == a[idx + off]
        out_x.append(b[idx][same])
        out_y.append(b[idx + off][same])
    wx, wy = np.concatenate(out_x), np.concatenate(out_y)
    x = np.r_[a, wx]
    return pa.table(
        {
            "side": np.r_[np.zeros(a.size, np.int8), np.ones(wx.size, np.int8)],
            "x": x,
            "y": np.r_[b, wy],
            "bucket": _bucket(x, nbuckets),
            "n_edges": np.r_[np.ones(a.size, np.int64), np.zeros(wx.size, np.int64)],
        }
    )


def _closed_wedges(g: pa.Table, n_docs: int) -> pa.Table:
    """One x-bucket's (edge, wedge, triangle) counts: a wedge (x, y) closes
    when (x, y) is an edge — one searchsorted membership probe."""
    side = g.column("side").to_numpy(zero_copy_only=False)
    x = g.column("x").to_numpy(zero_copy_only=False).astype(np.int64)
    y = g.column("y").to_numpy(zero_copy_only=False).astype(np.int64)
    e = side == 0
    ekeys = np.sort(x[e] * np.int64(n_docs) + y[e])
    wkeys = x[~e] * np.int64(n_docs) + y[~e]
    pos = np.minimum(np.searchsorted(ekeys, wkeys), max(ekeys.size - 1, 0))
    hit = (ekeys[pos] == wkeys) if ekeys.size else np.zeros(wkeys.size, bool)
    n_edges = int(g.column("n_edges").to_numpy(zero_copy_only=False).sum())
    return pa.table([[n_edges], [int(wkeys.size)], [int(hit.sum())]], schema=_TRIANGLE_SCHEMA)


def link_triangles(sf_dir: str) -> pd.DataFrame:
    """(n_edges, n_wedges, n_triangles) — distributed triangle counting
    over the deterministic link fixture (the web-graph structure metric;
    same graph as ``link_pagerank``).

    Node-iterator shape with the canonical a<b<c orientation: canonical
    distinct edges exchange ONCE on their smaller endpoint (so wedges at
    a are generated where a's adjacency already lives), wedge rows
    (b, c) exchange on b against the same edge partitioning, and the
    per-bucket closure check is one searchsorted membership probe —
    wedge volume is Σ deg(a)², degree-bounded by the fixture, and the
    full edge list is never driver-resident."""
    nb = 64
    n_docs = _n_docs(sf_dir)
    edges = _link_fixture_edges(sf_dir, n_docs).map_batches(
        _canonical_edges, fn_kwargs={"nbuckets": nb}, batch_format="pyarrow"
    )
    tagged = edges.groupby("bucket").map_groups(
        _wedge_rows, fn_kwargs={"n_docs": n_docs, "nbuckets": nb}, batch_format="pyarrow"
    )
    counts = _read(
        tagged.groupby("bucket").map_groups(_closed_wedges, fn_kwargs={"n_docs": n_docs}, batch_format="pyarrow"),
        _TRIANGLE_SCHEMA,
    )
    return pd.DataFrame({c: [int(pc.sum(counts.column(c)).as_py() or 0)] for c in _TRIANGLE_SCHEMA.names})


def winnowing_fps(sf_dir: str) -> pd.DataFrame:
    """(doc_id, n_grams, n_fps, fp_digest) — MOSS winnowing fingerprints
    (k=3 token grams, window w=4, rightmost-min selection): per-doc
    fingerprint count + a mod-2^64 digest of the selected gram hashes
    that pins the exact selected set under the SQL replay."""
    from .textops import winnowing_fingerprints

    out = winnowing_fingerprints(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


SHINGLE_DOCS_CFG = EngineConfig(shard_size=2000, num_buckets=1, analyzer="shingle")
# ≥2-token queries: the shingle analyzer turns them into word-bigram terms
SHINGLE_QUERIES: list[tuple[str, str]] = [
    ("sh0", "spark join order"),
    ("sh1", "window batch stream"),
    ("sh2", "the small table"),
    ("sh3", "zzznotaword spark join"),
    ("sh4", "data data merge"),
]


def shingle_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — BM25 top-10 over a SHINGLE
    index (Lucene ``ShingleFilter`` min=max=2, output_unigrams=false):
    index-time analysis turns the token stream into word bigrams
    ("a_b"), so df/dl/avgdl are all bigram statistics and a two-word
    query matches only ADJACENT occurrences — the index-time phrase
    acceleration next to the position-verified ``phrase_topk`` (no
    positions needed at query time; the dictionary pays for it).  Query
    text rides the same analyzer chain."""
    reader = _config_reader(sf_dir, SHINGLE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SHINGLE_QUERIES, reader.search, BM25_K))


BIGRAM_LM_LAMBDA: float = 0.7


def bigram_perplexity(sf_dir: str) -> pd.DataFrame:
    """(doc_id, n_pairs, cross_entropy_r, ppl_r) — interpolated BIGRAM
    language-model quality scores (the order-2 step past
    ``doc_perplexity``'s unigram CCNet shape):
    P(w|v) = λ·c(vw)/c(v) + (1−λ)·c(w)/N with λ=0.7, per-doc
    cross-entropy = −mean ln P over its bigram positions; docs with < 2
    tokens are excluded (no bigram positions).

    Scale shape: the unigram table is a vocab-bounded combiner reduce +
    ``ray.put`` broadcast (the ``unigram_lm_scores`` discipline), but the
    BIGRAM table is NOT materialized anywhere — bigram occurrences
    exchange ONCE on ~256 coarse bigram-hash buckets (all occurrences of
    a bigram share a bucket, so its global count is computable
    in-bucket), each occurrence scores itself there, and per-(doc,
    bucket) partials re-aggregate on doc buckets (the ``dup_spans``
    two-exchange discipline — no corpus-sized broadcast, no driver
    reduce)."""
    from ..functions.hashing import splitmix64
    from ..tokenizer import Tokenizer
    from .textops import UnigramCountStage

    nb = 256
    lam = BIGRAM_LM_LAMBDA
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    # pass 1: vocab-bounded unigram counts (combiner partials + reduce)
    parts = [
        b
        for b in ds.map_batches(UnigramCountStage(), batch_format="pyarrow").iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    allh = np.concatenate([p.column("thash").to_numpy(zero_copy_only=False).view(np.uint64) for p in parts])
    allc = np.concatenate([p.column("cnt").to_numpy(zero_copy_only=False) for p in parts])
    uh, inv = np.unique(allh, return_inverse=True)
    uc = np.bincount(inv, weights=allc).astype(np.float64)
    n_total = float(uc.sum())
    uni_ref = ray.put((uh, uc))

    R = np.uint64(0x100000001B3)

    def occurrences(batch: pa.Table) -> pa.Table:
        tok = Tokenizer()
        th, rows, _dls = tok.tokenize_md5(batch.column("text").combine_chunks())
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if th.size < 2:
            return pa.table(
                {
                    "bh": pa.array(np.zeros(0, np.int64)),
                    "hprev": pa.array(np.zeros(0, np.int64)),
                    "hcur": pa.array(np.zeros(0, np.int64)),
                    "doc_id": pa.array(np.zeros(0, np.int64)),
                    "bucket": pa.array(np.zeros(0, np.int32)),
                }
            )
        adj = rows[1:] == rows[:-1]
        hp, hc = th[:-1][adj], th[1:][adj]
        docs = ids[rows[:-1][adj]]
        with np.errstate(over="ignore"):
            bh = hp * R + hc
        return pa.table(
            {
                "bh": pa.array(bh.view(np.int64)),
                "hprev": pa.array(hp.view(np.int64)),
                "hcur": pa.array(hc.view(np.int64)),
                "doc_id": pa.array(docs),
                "bucket": pa.array((splitmix64(bh) % np.uint64(nb)).astype(np.int32)),
            }
        )

    def score_bucket(g: pa.Table) -> pa.Table:
        uh_, uc_ = cached_ref(uni_ref)
        if g.num_rows == 0:
            return pa.table({"doc_id": pa.array(np.zeros(0, np.int64)),
                             "s_lnp": pa.array(np.zeros(0, np.float64)),
                             "n_pairs": pa.array(np.zeros(0, np.int64))})
        bh = g.column("bh").to_numpy(zero_copy_only=False).view(np.uint64)
        hp = g.column("hprev").to_numpy(zero_copy_only=False).view(np.uint64)
        hc = g.column("hcur").to_numpy(zero_copy_only=False).view(np.uint64)
        docs = g.column("doc_id").to_numpy(zero_copy_only=False)
        # global bigram count = in-bucket multiplicity (bucket owns the hash)
        ub, binv = np.unique(bh, return_inverse=True)
        cb = np.bincount(binv).astype(np.float64)[binv]
        cp = uc_[np.searchsorted(uh_, hp)]
        cw = uc_[np.searchsorted(uh_, hc)]
        lnp = np.log(lam * cb / cp + (1.0 - lam) * cw / n_total)
        # per-(doc) partial within this bucket, doc-sorted for determinism
        order = np.argsort(docs, kind="stable")
        sd, sl = docs[order], lnp[order]
        starts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
        return pa.table(
            {
                "doc_id": pa.array(sd[starts]),
                "s_lnp": pa.array(np.add.reduceat(sl, starts)),
                "n_pairs": pa.array(np.diff(np.r_[starts, sd.size]).astype(np.int64)),
            }
        )

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        s = g["s_lnp"].sum()
        np_ = int(g["n_pairs"].sum())
        ce = -s / np_ if np_ else 0.0
        return pd.DataFrame(
            {
                "doc_id": [int(g["doc_id"].iloc[0])],
                "n_pairs": [np_],
                "cross_entropy_r": [round(ce, 6)],
                "ppl_r": [round(math.exp(ce), 6)],
            }
        )

    occ = ds.map_batches(occurrences, batch_format="pyarrow")
    partials = occ.groupby("bucket").map_groups(score_bucket, batch_format="pyarrow")
    out = partials.groupby("doc_id").map_groups(finalize, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


PPR_RESTART: float = 0.15
PPR_ITERS: int = 3


def personalized_pagerank(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """(doc_id, ppr_r) — PERSONALIZED PageRank over the deterministic link
    fixture: the restart vector concentrates on the lang='en' seed set
    (uniform over seeds) instead of all nodes, 3 power iterations at
    damping 0.85 from the restart vector itself.  All iterations unroll
    into the SQL oracle.  Top 50 by (round-9 ppr DESC, doc_id ASC).

    The restart vector is a (node, r0) table built at tag time from the
    lang column (uniform over the seeds once the engine normalizes it; no
    seed means no ranking, not a division by zero); ``mode`` picks the
    executor of :func:`splade_ray.pipelines.graph.pagerank_top` — a
    driver-resident rank vector (``"dense"``) or r0 as a COLUMN of the
    bucketed vertex table with the restart mass added per bucket
    (``"vertex"``, where |seeds| is the one scalar the driver sees).
    dense == vertex pinned by tests/test_graph.py."""
    n_docs = _n_docs(sf_dir)
    top = pagerank_top(
        _restart_weights(sf_dir, "en"),
        _link_fixture_edges(sf_dir, n_docs),
        n_docs,
        50,
        decimals=9,
        iters=PPR_ITERS,
        damping=1.0 - PPR_RESTART,
        restart=PPR_RESTART,
        mode=mode,
    )
    return _node_frame(top, ppr_r="rank")


def serial_diff_events(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, diff7, norm_r) — ``serial_diff`` (lag 7) +
    ``normalize`` (min-max rescale) pipeline aggregations over the
    gap-free daily event counts (the seasonality-removal companion to
    ``events_moving_avg``).  The bucket series is coordinator-sized by
    construction; the corpus pass is the same bounded day-count combiner."""
    series = _day_series(sf_dir)
    n = series.to_numpy().astype(np.float64)
    lo, hi = (n.min(), n.max()) if n.size else (0.0, 0.0)
    norm = (n - lo) / (hi - lo) if hi > lo else np.zeros_like(n)
    out = pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": series.to_numpy(),
            "diff7": np.r_[np.zeros(min(7, n.size)), n[7:] - n[:-7]].astype(np.int64),
            "norm_r": np.round(norm, 6),
        }
    )
    # ES serial_diff emits nothing for incomplete lags — drop the first 7
    # buckets (normalize still sees the full series)
    return out.iloc[7:].reset_index(drop=True)


CHAR_BUDGET: int = 20_000


def char_budget_sample(sf_dir: str) -> pd.DataFrame:
    """(lang, doc_id, n_chars, cum_chars) — per-language token-budget
    selection (the training-mix allocation op): within each language,
    docs ordered by (n_chars DESC, doc_id ASC) are taken while the
    running char total stays ≤ 20k — a greedy budget fill.

    ONE groupby(lang) exchange of the PROJECTED (doc_id, n_chars) pairs
    co-locates each language; the per-group kernel is a sort + cumsum
    cut.  The text itself never moves — selection ships ids, and a real
    pipeline fetches the survivors by id afterwards (the
    ``search_snippets`` k-bounded-fetch discipline)."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True], kind="mergesort")
        cum = g["n_chars"].cumsum()
        keep = cum <= CHAR_BUDGET
        out = g.loc[keep, ["lang", "doc_id", "n_chars"]].copy()
        out["cum_chars"] = cum[keep].astype(np.int64)
        return out

    out = ds.groupby("lang").map_groups(fill, batch_format="pandas").to_pandas()
    return out.sort_values(["lang", "doc_id"], ignore_index=True)


def gopher_rules_kept(sf_dir: str) -> pd.DataFrame:
    """(doc_id, n_tokens, mean_wlen_r, req_hits, dup_frac_r,
    top_bigram_frac_r, max_run, kept) — the FULL Gopher quality-rule
    verdict (Rae et al. 2021 Table-A1 family, word-token flavor) in one
    fused streaming pass: word-count window, mean-word-length window,
    required-word floor, duplicate-token / top-bigram / longest-run
    repetition caps.  Extends the single-signal ``repetition_scores`` /
    fused ``curation_kept`` with the complete named rule set and
    per-rule signal columns."""
    from .textops import gopher_rules

    out = gopher_rules(_docs(sf_dir, columns=["doc_id", "text"])).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def doc_language_confidence(sf_dir: str) -> pd.DataFrame:
    """(doc_id, lang_pred, score1_r, score2_r, margin_r) — language-ID
    with CONFIDENCE: the top-2 stopword-profile scores and their margin
    (the threshold signal a routing/filtering pipeline uses to route
    low-confidence docs to a heavier model).  Same streaming pass as
    ``lang_id_preds`` with the detail flag on."""
    from .textops import LangIdStage

    out = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(LangIdStage(detail=True), batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    out["score1_r"] = out["score1"].round(6)
    out["score2_r"] = out["score2"].round(6)
    out["margin_r"] = out["margin"].round(6)
    return out[["doc_id", "lang_pred", "score1_r", "score2_r", "margin_r"]]


def knn_ivf_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered IVF vector search (ES ``knn`` + ``filter`` on the IVF
    path): the label=3 predicate applies INSIDE the probed-list scorer
    before ranking — with nprobe == n_clusters the probe is exhaustive,
    so the result must equal the filtered brute-force oracle exactly
    (filter-inside-probe ≡ pre-filter when every list is probed)."""
    import pyarrow.compute as _pc

    from .ann import IVFIndex

    ds, qrows, Q = _knn_queries(sf_dir)
    idx = IVFIndex(n_clusters=8, nprobe=8).fit_assign(ds, sample_fraction=0.5)
    out = idx.search(Q, k=10, filter_expr=lambda t: _pc.equal(t.column("label"), 3))
    return _knn_frame(out, qrows)


def ccnet_corpus_kept(sf_dir: str) -> pd.DataFrame:
    """(doc_id, lang, bucket, ppl_r) — the CCNet SELECTION composed end to
    end (Wenzek et al. 2020's pipeline, not just the bucketing): fit the
    corpus unigram LM, score per-doc perplexity, tercile per language,
    and KEEP the head bucket everywhere plus the middle bucket for the
    head language ('en') — the language-aware quality cut a production
    crawl applies before training.  Same segmented-rank machinery as
    ``ccnet_buckets`` (one range-partition sort, block-summary ranks);
    the keep rule is a streaming mask, output is the kept rows."""
    from .scan import segmented_rank
    from .textops import unigram_lm_scores

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    scored = unigram_lm_scores(ds, keep_cols=("lang",))

    def keyed(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ppl = batch.column("ppl").to_numpy(zero_copy_only=False)
        pplu = np.rint(np.round(ppl, 6) * 1e6).astype(np.int64)
        if did.size and (int(pplu.max()) >= (1 << 30) or int(did.max()) >= (1 << 33)):
            raise ValueError("ccnet key overflow: ppl or doc_id out of packing range")
        return pa.table(
            {
                "lang": batch.column("lang"),
                "doc_id": pa.array(did),
                "ppl_r": pa.array(pplu / 1e6),
                "key": pa.array((pplu << 33) | did),
            }
        )

    sub = scored.map_batches(keyed, batch_format="pyarrow")
    ranked = segmented_rank(sub, "lang", "key", out_col="rnk")
    counts = {
        r["lang"]: int(r["count()"])
        for r in ranked.groupby("lang").count().to_pandas().to_dict("records")
    }
    counts_ref = ray.put(counts)

    def keep_rows(batch: pa.Table) -> pa.Table:
        nmap = cached_ref(counts_ref)
        langs = batch.column("lang").to_pandas().to_numpy()
        r = batch.column("rnk").to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.asarray([nmap[s] for s in langs], dtype=np.int64)
        q, rem = n // 3, n % 3
        head = rem * (q + 1)
        b = np.where(
            r <= head,
            (r - 1) // np.maximum(q + 1, 1),
            rem + (r - 1 - head) // np.maximum(q, 1),
        )
        keep = (b == 0) | ((langs == "en") & (b == 1))
        names = np.asarray(["head", "middle", "tail"], dtype=object)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").filter(pa.array(keep)),
                "lang": batch.column("lang").filter(pa.array(keep)),
                "bucket": pa.array(names[b[keep]], type=pa.string()),
                "ppl_r": batch.column("ppl_r").filter(pa.array(keep)),
            }
        )

    out = ranked.map_batches(keep_rows, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


KNN_RADIUS: float = 0.25


def knn_radius(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, vec_id, score_r) — RADIUS vector search (ES ``knn``
    with ``similarity`` threshold): every corpus vector whose cosine with
    the query is ≥ 0.25, result size data-dependent (no top-k).  One
    streaming scan per the brute-force shape; only matches leave each
    batch, so the exchange is bounded by the match count, never the
    corpus.  Self-matches included (score 1.0)."""
    ds, qrows, Q = _knn_queries(sf_dir)
    qn = np.linalg.norm(Q, axis=1)
    qn[qn == 0] = 1.0
    q_ref = ray.put((Q, qn))
    qvid = qrows["vec_id"].to_numpy()

    def matches(batch: pa.Table) -> pa.Table:
        from .ann import _as_matrix

        Qm, qnv = cached_ref(q_ref)
        emb = _as_matrix(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        en = np.linalg.norm(emb, axis=1)
        en[en == 0] = 1.0
        sims = (emb @ Qm.T) / (en[:, None] * qnv[None, :])
        ri, qi = np.nonzero(sims >= KNN_RADIUS)  # (doc row, query col)
        return pa.table(
            {
                "query_idx": pa.array(qi.astype(np.int64)),
                "vec_id": pa.array(ids[ri]),
                "score": pa.array(sims[ri, qi]),
            }
        )

    out = ds.map_batches(matches, batch_format="pyarrow").to_pandas()
    out["query_vec_id"] = qvid[out["query_idx"].to_numpy()]
    out["score_r"] = out["score"].round(6)
    return out[["query_vec_id", "vec_id", "score_r"]].sort_values(
        ["query_vec_id", "vec_id"], ignore_index=True
    )


def label_prototypes(sf_dir: str) -> pd.DataFrame:
    """(label, rank, vec_id, score_r) — per-label PROTOTYPE selection (the
    class-balanced coreset step: for each label, the 5 member vectors
    closest by cosine to the label centroid).

    Two bounded passes: the centroid pass ships label×dim combiner
    partials (the ``label_centroids`` shape), the centroid matrix
    broadcasts via ``ray.put``, and the scoring pass ranks each vector
    against ITS OWN label's centroid only (one gather + row-wise dot,
    no |labels|-wide matmul) with boundary-safe per-batch top-5 partials
    per label — exchange is labels×5×blocks rows."""
    from .ann import _as_matrix, _boundary_safe_topk

    ds = _emb(sf_dir)

    def cpartial(batch: pa.Table) -> pa.Table:
        emb = _as_matrix(batch.column("embedding"))
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if emb.size == 0:
            return pa.table(
                {"label": pa.array(np.zeros(0, np.int64)), "dim": pa.array(np.zeros(0, np.int64)),
                 "vsum": pa.array(np.zeros(0, np.float64)), "cnt": pa.array(np.zeros(0, np.int64))}
            )
        ul, inv = np.unique(lab, return_inverse=True)
        d = emb.shape[1]
        sums = np.zeros((ul.size, d))
        np.add.at(sums, inv, emb)
        cnt = np.bincount(inv, minlength=ul.size).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), ul.size)),
                "vsum": pa.array(sums.reshape(-1)),
                "cnt": pa.array(np.repeat(cnt, d)),
            }
        )

    cp = ds.map_batches(cpartial, batch_format="pyarrow").to_pandas()
    agg = cp.groupby(["label", "dim"], sort=True).agg(vsum=("vsum", "sum"), cnt=("cnt", "sum")).reset_index()
    all_lab = np.unique(agg["label"].to_numpy(np.int64))
    d = int(agg["dim"].max()) + 1
    cent = agg["vsum"].to_numpy().reshape(all_lab.size, d)
    C = agg["cnt"].to_numpy(np.int64).reshape(all_lab.size, d)[:, 0]
    cent = cent / np.maximum(C, 1)[:, None]
    cn = np.linalg.norm(cent, axis=1)
    cn[cn == 0] = 1.0
    cent_ref = ray.put((all_lab, cent, cn))

    def score(batch: pa.Table) -> pa.Table:
        labs, cm, cnv = cached_ref(cent_ref)
        emb = _as_matrix(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if emb.size == 0:
            return pa.table(
                {"label": pa.array(np.zeros(0, np.int64)), "vec_id": pa.array(np.zeros(0, np.int64)),
                 "score": pa.array(np.zeros(0, np.float64))}
            )
        pos = np.searchsorted(labs, lab)
        en = np.linalg.norm(emb, axis=1)
        en[en == 0] = 1.0
        sims = (emb * cm[pos]).sum(axis=1) / (en * cnv[pos])
        out_l, out_i, out_s = [], [], []
        for li in np.unique(pos):
            m = pos == li
            col = sims[m]
            part = _boundary_safe_topk(col, min(5, col.size))
            out_l.append(np.full(part.size, labs[li]))
            out_i.append(ids[m][part])
            out_s.append(col[part])
        return pa.table(
            {
                "label": pa.array(np.concatenate(out_l).astype(np.int64)),
                "vec_id": pa.array(np.concatenate(out_i)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    cand = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    rows = []
    for lab, g in cand.groupby("label", sort=True):
        g = g.sort_values(["score", "vec_id"], ascending=[False, True], kind="mergesort").head(5)
        for rank, r in enumerate(g.itertuples(index=False), 1):
            rows.append((int(lab), rank, int(r.vec_id), round(float(r.score), 6)))
    return pd.DataFrame(rows, columns=["label", "rank", "vec_id", "score_r"])


AR_MIN_SUPPORT_PERMILLE: int = 30  # support/N >= 3%
AR_TOP: int = 25


def association_rules(sf_dir: str) -> pd.DataFrame:
    """(antecedent, consequent, support, confidence_r, lift_r) — pairwise
    association rules over the FIS item vocabulary (the market-basket
    step past ``frequent_item_sets``): for each DIRECTED pair a→b with
    support/N ≥ 3%, confidence = c(ab)/c(a) and
    lift = N·c(ab)/(c(a)·c(b)); top-25 by (lift DESC, antecedent,
    consequent).  Same one-matmul-per-batch co-occurrence partials —
    |items|² cells per block, nothing corpus-sized moves."""
    items = np.asarray(FIS_ITEMS, dtype=object)
    m = items.size
    P, n_docs = _fis_cooccurrence(sf_dir)
    rows = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            s = int(P[i, j])
            if s * 1000 < AR_MIN_SUPPORT_PERMILLE * n_docs:
                continue
            ca, cb = int(P[i, i]), int(P[j, j])
            if ca == 0 or cb == 0:
                continue
            conf = s / ca
            lift = (s * n_docs) / (ca * cb)
            rows.append((items[i], items[j], s, round(conf, 6), round(lift, 6), lift))
    rows.sort(key=lambda r: (-round(r[5], 9), r[0], r[1]))
    out = pd.DataFrame(
        [r[:5] for r in rows[:AR_TOP]],
        columns=["antecedent", "consequent", "support", "confidence_r", "lift_r"],
    )
    out["support"] = out["support"].astype(np.int64)
    return out


def funnel_latency(sf_dir: str) -> pd.DataFrame:
    """(n_converted, p50_r, p90_r, mean_r) — time-to-convert through the
    full view→click→purchase funnel (seconds from the stage-1 view to
    the stage-3 purchase along the earliest-feasible chain — the metric
    a growth pipeline reports next to ``event_funnel``'s counts).  Same
    one-exchange groupby(user) chain kernel; converted users ship one
    latency scalar each, percentiles interpolate on the bounded set."""
    stages = list(FUNNEL_STAGES)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type", "ts"])
    ev = ev.map_batches(
        lambda b: b.filter(pc.is_in(b.column("event_type"), value_set=pa.array(stages))),
        batch_format="pyarrow",
    )

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        cur = None
        first = None
        for st in stages:
            ts = g.loc[g["event_type"] == st, "ts"]
            if cur is not None:
                ts = ts[ts > cur]
            if ts.empty:
                return pd.DataFrame({"lat_s": []})
            cur = ts.min()
            if first is None:
                first = cur
        return pd.DataFrame({"lat_s": [(cur - first).total_seconds()]})

    lats = ev.groupby("user_id").map_groups(chain, batch_format="pandas").to_pandas()
    v = np.sort(lats["lat_s"].to_numpy(np.float64))
    if v.size == 0:
        return pd.DataFrame({"n_converted": [0], "p50_r": [0.0], "p90_r": [0.0], "mean_r": [0.0]})
    p50, p90 = np.percentile(v, [50, 90], method="linear")
    return pd.DataFrame(
        {
            "n_converted": np.asarray([v.size], np.int64),
            "p50_r": [round(float(p50), 6)],
            "p90_r": [round(float(p90), 6)],
            "mean_r": [round(float(v.mean()), 6)],
        }
    )


def label_scatter(sf_dir: str) -> pd.DataFrame:
    """(label, n_vecs, mean_dist_r, nearest_label, sep_r) — cluster
    quality diagnostics per label (the Davies-Bouldin ingredients):
    mean cosine DISTANCE (1 − cos) of members to their label centroid
    (intra-class scatter) and the nearest OTHER centroid by cosine with
    the separation distance.  Centroids from label×dim combiner
    partials; member distances re-use the prototype scoring pass, so
    everything exchanged is labels-bounded."""
    from .ann import _as_matrix

    ds = _emb(sf_dir)

    def cpartial(batch: pa.Table) -> pa.Table:
        emb = _as_matrix(batch.column("embedding"))
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if emb.size == 0:
            return pa.table(
                {"label": pa.array(np.zeros(0, np.int64)), "dim": pa.array(np.zeros(0, np.int64)),
                 "vsum": pa.array(np.zeros(0, np.float64)), "cnt": pa.array(np.zeros(0, np.int64))}
            )
        ul, inv = np.unique(lab, return_inverse=True)
        d = emb.shape[1]
        sums = np.zeros((ul.size, d))
        np.add.at(sums, inv, emb)
        cnt = np.bincount(inv, minlength=ul.size).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), ul.size)),
                "vsum": pa.array(sums.reshape(-1)),
                "cnt": pa.array(np.repeat(cnt, d)),
            }
        )

    cp = ds.map_batches(cpartial, batch_format="pyarrow").to_pandas()
    agg = cp.groupby(["label", "dim"], sort=True).agg(vsum=("vsum", "sum"), cnt=("cnt", "sum")).reset_index()
    labs = np.unique(agg["label"].to_numpy(np.int64))
    d = int(agg["dim"].max()) + 1
    cent = agg["vsum"].to_numpy().reshape(labs.size, d)
    C = agg["cnt"].to_numpy(np.int64).reshape(labs.size, d)[:, 0]
    cent = cent / np.maximum(C, 1)[:, None]
    cn = np.linalg.norm(cent, axis=1)
    cn[cn == 0] = 1.0
    cent_ref = ray.put((labs, cent, cn))

    def dpartial(batch: pa.Table) -> pa.Table:
        lb, cm, cnv = cached_ref(cent_ref)
        emb = _as_matrix(batch.column("embedding"))
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if emb.size == 0:
            return pa.table({"label": pa.array(np.zeros(0, np.int64)),
                             "dsum": pa.array(np.zeros(0, np.float64)),
                             "n": pa.array(np.zeros(0, np.int64))})
        pos = np.searchsorted(lb, lab)
        en = np.linalg.norm(emb, axis=1)
        en[en == 0] = 1.0
        dist = 1.0 - (emb * cm[pos]).sum(axis=1) / (en * cnv[pos])
        ul, inv = np.unique(pos, return_inverse=True)
        return pa.table(
            {
                "label": pa.array(lb[ul].astype(np.int64)),
                "dsum": pa.array(np.bincount(inv, weights=dist)),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    dp = ds.map_batches(dpartial, batch_format="pyarrow").to_pandas()
    stats = dp.groupby("label", sort=True).agg(dsum=("dsum", "sum"), n=("n", "sum")).reset_index()
    # centroid-to-centroid cosine: nearest other centroid per label
    cc = (cent @ cent.T) / (cn[:, None] * cn[None, :])
    np.fill_diagonal(cc, -np.inf)
    # ties: higher cosine first, then lower label id
    nearest = np.zeros(labs.size, dtype=np.int64)
    sep = np.zeros(labs.size)
    for i in range(labs.size):
        order = np.lexsort((labs, -np.round(cc[i], 9)))
        nearest[i] = labs[order[0]]
        sep[i] = 1.0 - cc[i, order[0]]
    out = pd.DataFrame(
        {
            "label": stats["label"].astype(np.int64),
            "n_vecs": stats["n"].astype(np.int64),
            "mean_dist_r": (stats["dsum"] / stats["n"]).round(6),
            "nearest_label": nearest,
            "sep_r": np.round(sep, 6),
        }
    )
    return out


COLBERT_DIM: int = 8


def _hash_token_vecs(terms) -> np.ndarray:
    """Deterministic per-token embedding (the fake-encoder convention of
    the neural path, vector flavor): v_d(t) = 2·md5_u64(f"{t}|{d}")/2^64 − 1
    — SQL-replayable from ``md5_number_lower`` exactly."""
    from ..functions.hashing import md5_u64

    terms = list(terms)
    out = np.empty((len(terms), COLBERT_DIM), dtype=np.float64)
    for d in range(COLBERT_DIM):
        out[:, d] = 2.0 * (md5_u64([f"{t}|{d}" for t in terms]) / 18446744073709551616.0) - 1.0
    return out


def colbert_maxsim_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — LATE-INTERACTION retrieval
    (ColBERT's MaxSim operator, Khattab & Zaharia 2020): every token has
    an embedding, and score(q, d) = Σ_{query tokens} qtf · max over d's
    tokens of cos(v_q, v_d) — token-level interaction instead of one
    pooled vector, the third retrieval family next to BM25 bags and
    dense single-vector kNN.  Token embeddings come from the
    deterministic hash encoder, so the whole scoring tree replays in SQL.

    Scale shape: per batch, token cosines touch only the per-batch
    UNIQUE vocab (one |vocab|×|qterms| matmul), a ``np.maximum.at``
    segment-max folds occurrences into per-(doc, qterm) maxima, and
    boundary-safe per-batch top-k partials merge on the driver —
    k-bounded exchange, embeddings never leave their batch."""
    from ..tokenizer import Tokenizer
    from .ann import _boundary_safe_topk

    tok = Tokenizer(DOCS_CFG)
    qids, quniq, qtfs = [], [], []
    for qid, text in BM25_QUERIES:
        toks = tok.tokenize(text)
        if not toks:
            continue
        u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        qids.append(qid)
        quniq.append(u)
        qtfs.append(c.astype(np.float64))
    Qv = _hash_token_vecs(np.concatenate(quniq))
    qn = np.linalg.norm(Qv, axis=1)
    qoff = np.r_[0, np.cumsum([len(u) for u in quniq])]
    q_ref = ray.put((Qv, qn, qoff, [c for c in qtfs]))

    def score(batch: pa.Table) -> pa.Table:
        Qvm, qnv, qo, qcs = cached_ref(q_ref)
        enc = Tokenizer(DOCS_CFG).tokenize_codes(batch.column("text").combine_chunks())
        assert enc is not None
        codes, rows, vocab, dls = enc
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows
        if codes.size == 0:
            return _partial_cb(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        Vb = _hash_token_vecs(vocab.to_pylist())
        vn = np.linalg.norm(Vb, axis=1)
        cos = (Vb @ Qvm.T) / (vn[:, None] * qnv[None, :])  # (|vocab|, total_qterms)
        M = np.full((n, cos.shape[1]), -np.inf)
        np.maximum.at(M, rows, cos[codes])
        has = dls > 0
        out_q, out_d, out_s = [], [], []
        for qi in range(len(qcs)):
            sl = M[:, qo[qi] : qo[qi + 1]]
            sc = np.where(has, sl @ qcs[qi], -np.inf)
            live = np.flatnonzero(has)
            col = sc[live]
            part = _boundary_safe_topk(col, min(BM25_K, col.size))
            out_q.append(np.full(part.size, qi, dtype=np.int64))
            out_d.append(ids[live][part])
            out_s.append(col[part])
        return _partial_cb(np.concatenate(out_q), np.concatenate(out_d), np.concatenate(out_s))

    def _partial_cb(q, d, s):
        return pa.table({"qi": pa.array(q), "doc_id": pa.array(d), "score": pa.array(s)})

    cand = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(score, batch_format="pyarrow")
        .to_pandas()
    )
    rows = []
    for qi, g in cand.groupby("qi", sort=True):
        g = g.assign(rk=g["score"].round(9)).sort_values(
            ["rk", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(BM25_K)
        for rank, r in enumerate(g.itertuples(index=False), 1):
            rows.append((qids[int(qi)], rank, int(r.doc_id), round(float(r.score), 6)))
    return _ranked_frame(rows)


SLOPPY_QUERIES: list[tuple[str, str, str, int]] = [
    ("sp1", "order", "scan", 3),
    ("sp2", "stream", "column", 4),
    ("sp3", "batch", "window", 6),
    ("sp4", "zzznotaword", "order", 2),  # OOV — empty
    ("sp5", "data", "merge", 1),  # adjacency-only (slop 1 ⇒ dist ≤ 2)
]


def sloppy_phrase_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — SLOPPY-phrase top-10 (Lucene
    ``PhraseQuery(slop)`` scoring shape for two terms): ordered pairs
    ``a … b`` with p_b − p_a ≤ slop+1, each weighted 1/distance into one
    saturated phrase frequency, score = (idf_a + idf_b)·BM25-sat(sf) —
    proximity contributes to the SCORE, not just the match set (contrast
    ``near_topk``'s binary verify + bag ranking)."""
    reader = _config_reader(sf_dir, PHRASE_DOCS_CFG)
    return _ranked_frame(_ranked_rows(SLOPPY_QUERIES, reader.search_sloppy, BM25_K))


def soft_dedup_weights(sf_dir: str) -> pd.DataFrame:
    """(doc_id, lang, weight_r) — SOFT deduplication (down-weight instead
    of drop, the SoftDeDup training-data shape): every doc in a near-dup
    cluster gets sampling weight 1/cluster_size, singletons weight 1.0 —
    total weight per duplicated content stays 1, so the training mix is
    dedup-equivalent in expectation without discarding any document.
    Cluster structure comes from the MinHash-LSH + connected-components
    pipeline; the pair-scale weight table broadcasts into one streaming
    map over the corpus (the ``dedup_near_kept`` tombstone-set shape)."""
    clusters = dedup_clusters(sf_dir)
    ck = clusters["doc_id"].to_numpy(np.int64)
    order = np.argsort(ck)
    w_ref = ray.put((ck[order], (1.0 / clusters["cluster_size"].to_numpy(np.float64))[order]))

    def weight(batch: pa.Table) -> pa.Table:
        keys, wv = cached_ref(w_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(keys, ids), max(keys.size - 1, 0))
        hit = (keys[pos] == ids) if keys.size else np.zeros(ids.size, bool)
        out = np.where(hit, wv[pos] if keys.size else 1.0, 1.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "weight_r": pa.array(np.round(out, 6)),
            }
        )

    out = _docs(sf_dir, columns=["doc_id", "lang"]).map_batches(weight, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def err_at10(sf_dir: str) -> pd.DataFrame:
    """(query_id, err_r) — Expected Reciprocal Rank @10 (Chapelle et al.
    2009, the cascade-model metric ES ``_rank_eval`` serves next to MRR):
    with binary relevance R = 0.5,
    ERR = Σ_r (1/r)·R·(1−R)^(#relevant above r).  Run = the BM25 top-10,
    qrels = the conjunctive-containment set (M13: queries without qrels
    drop).  The cascade product telescopes into a power of 0.5 counted by
    a prefix sum, so the whole metric replays in SQL."""
    run = bm25_topk(sf_dir)[["query_id", "rank", "doc_id"]]
    qrels = boolean_and_match(sf_dir)
    # vectorized cascade: rel flag via a semi-join, #relevant-above via a
    # per-query exclusive cumsum over rank order, contribution =
    # 0.5·0.5^above / rank summed per query (groupby-cumsum, no row loop)
    run = run.sort_values(["query_id", "rank"], ignore_index=True)
    rel = (
        run.merge(
            qrels[["query_id", "doc_id"]].drop_duplicates().assign(_rel=1), on=["query_id", "doc_id"], how="left"
        )["_rel"]
        .fillna(0)
        .to_numpy(np.int64)
    )
    above = run.assign(_rel=rel).groupby("query_id")["_rel"].cumsum().to_numpy() - rel
    contrib = rel * (0.5 * 0.5**above) / run["rank"].to_numpy()
    out = (
        run.assign(_c=contrib)
        .groupby("query_id", sort=True)["_c"]
        .sum()
        .reset_index(name="err")
    )
    # queries with no qrels at all drop (M13)
    out = out[out["query_id"].isin(set(qrels["query_id"]))]
    return pd.DataFrame(
        {"query_id": out["query_id"].to_numpy(), "err_r": np.round(out["err"].to_numpy(), 6)}
    ).reset_index(drop=True)


PRUNE_FRACTION: float = 0.5


def pruned_index_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — BM25 top-10 over a STATICALLY
    PRUNED index (Carmel et al. 2001): each query term keeps only its
    global top ⌈0.5·df⌉ postings by (impact DESC, doc ASC); the rest of
    the posting list never enters scoring.  Served off the term-major
    layout, where a term's postings are contiguous so the per-term
    global cut is local — the doc-sharded layout would need a shuffle to
    prune a term globally (the reason impact-ordered / pruned indexes
    are term-major in practice)."""
    from .term_index import score_pruned, _topk_list

    reader = _term_major_reader(sf_dir)
    return _doc_topk_frame(
        BM25_QUERIES, lambda text: _topk_list(*score_pruned(reader, text, PRUNE_FRACTION), BM25_K)
    )


def trending_terms(sf_dir: str) -> pd.DataFrame:
    """(term, df_early, df_late, logodds_r) — temporal term drift (the
    corpus-monitoring op): the corpus splits into early/late halves by
    doc_id, per-half document frequencies feed a smoothed log-odds ratio
    ln((df_late+0.5)/(n_late−df_late+0.5)) − ln((df_early+0.5)/(n_early−df_early+0.5)),
    and the top 20 rising terms by (logodds DESC, term ASC) with
    df_early+df_late ≥ 10 are reported.  One fused pass: per-batch
    per-half df partials (vocab-bounded combiners), a driver reduce —
    the A1 stats discipline with a time axis."""
    from ..stages.encode import term_count_table
    from ..tokenizer import Tokenizer

    n_docs = _n_docs(sf_dir)
    half = n_docs // 2  # docs 0..half-1 early, half.. late

    def partial(batch: pa.Table) -> pa.Table:
        terms, _tfs, _dls = term_count_table(batch.column("text").to_pylist(), Tokenizer())
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tarr = terms.values.to_numpy(zero_copy_only=False).astype(object)
        reps = np.diff(terms.offsets.to_numpy(zero_copy_only=False))
        doc_of = np.repeat(ids, reps)
        late = (doc_of >= half).astype(np.int64)
        df = pd.DataFrame({"term": tarr, "late": late})
        g = df.groupby(["term", "late"], sort=False).size().rename("c").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby(["term", "late"], sort=True)["c"].sum().unstack(fill_value=0)
    df_e = agg.get(0, pd.Series(0, index=agg.index)).to_numpy(np.float64)
    df_l = agg.get(1, pd.Series(0, index=agg.index)).to_numpy(np.float64)
    n_e, n_l = float(half), float(n_docs - half)
    lo = np.log((df_l + 0.5) / (n_l - df_l + 0.5)) - np.log((df_e + 0.5) / (n_e - df_e + 0.5))
    terms = agg.index.to_numpy(dtype=object)
    keep = (df_e + df_l) >= 10
    terms, df_e, df_l, lo = terms[keep], df_e[keep], df_l[keep], lo[keep]
    order = np.lexsort((terms, -np.round(lo, 9)))[:20]
    return pd.DataFrame(
        {
            "term": terms[order],
            "df_early": df_e[order].astype(np.int64),
            "df_late": df_l[order].astype(np.int64),
            "logodds_r": np.round(lo[order], 6),
        }
    )


RM3_FB_DOCS: int = 10
RM3_EXP_TERMS: int = 5
RM3_LAMBDA: float = 0.6


def rm3_topk(sf_dir: str) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r) — pseudo-relevance feedback
    (the RM3 query-expansion shape, Lavrenko & Croft): BM25 retrieves
    the top-10 feedback docs, expansion terms are the 5 highest
    w(t) = idf(t) · Σ_{d∈fb} tf(t,d)/dl(d) terms NOT in the original
    query (term-asc ties), and the reformulated query scores with
    weights 0.6·qtf on originals + 0.4·w/max_w on expansions through
    the unchanged BM25 kernels.

    Feedback texts come from k-bounded point reads of the corpus (the
    more_like_this discipline); every selection rule is deterministic,
    so the two-pass loop unrolls into one SQL oracle."""
    import pyarrow.dataset as pads

    from ..tokenizer import Tokenizer

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    corpus = os.path.join(index_dir, "corpus_input.parquet")
    tok = Tokenizer(DOCS_CFG)
    rows = []
    for qid, text in BM25_QUERIES:
        fb = reader.search(text, RM3_FB_DOCS)
        if not fb:
            continue
        urls = [u for _d, _s, u in fb]
        tbl = pads.dataset(corpus).to_table(
            columns=["url", "text"], filter=pads.field("url").isin(urls)
        )
        texts = dict(zip(tbl.column("url").to_pylist(), tbl.column("text").to_pylist()))
        # w(t) = idf · Σ tf/dl over the feedback docs
        acc: dict[str, float] = {}
        for u in urls:
            toks = tok.tokenize(texts[u])
            if not toks:
                continue
            dl = float(len(toks))
            uq, ct = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            for t, c in zip(uq, ct):
                acc[t] = acc.get(t, 0.0) + float(c) / dl
        qtoks = tok.tokenize(text)
        quniq, qtf = np.unique(np.asarray(qtoks, dtype=object), return_counts=True)
        qset = set(quniq)
        cand_terms = sorted(t for t in acc if t not in qset)
        if cand_terms:
            tids = reader.vocab_index.get_indexer(np.asarray(cand_terms, dtype=object))
            ok = tids >= 0
            terms_ok = np.asarray(cand_terms, dtype=object)[ok]
            dfv = reader.df[tids[ok]].astype(np.float64)
            idf = np.log1p((reader.n_docs - dfv + 0.5) / (dfv + 0.5))
            wv = idf * np.asarray([acc[t] for t in terms_ok])
            order = np.lexsort((terms_ok, -np.round(wv, 9)))[:RM3_EXP_TERMS]
            exp_terms, exp_w = terms_ok[order], wv[order]
        else:
            exp_terms, exp_w = np.zeros(0, object), np.zeros(0)
        max_w = float(exp_w.max()) if exp_w.size else 1.0
        # reformulated weights over term ids
        all_terms = np.concatenate([quniq, exp_terms])
        all_w = np.concatenate(
            [RM3_LAMBDA * qtf.astype(np.float64), (1.0 - RM3_LAMBDA) * exp_w / max_w]
        )
        tids = reader.vocab_index.get_indexer(all_terms)
        ok = tids >= 0
        qtids, qw = tids[ok].astype(np.int64), all_w[ok]
        o = np.argsort(qtids)
        qtids, qw = qtids[o], qw[o]
        for rank, (doc, score, _u) in enumerate(reader._topk(BM25_K, "score_exhaustive", qtids, qw, BM25_K), 1):
            rows.append((qid, rank, int(doc), round(float(score), 6)))
    return _ranked_frame(rows)


def anomaly_days(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, z_r, is_anomaly) — robust time-series anomaly
    detection over the gap-free daily event counts: robust z =
    (x − median) / (1.4826·MAD) with MAD the median absolute deviation,
    |z| > 2.5 flags the day (the monitoring op next to
    ``change_point_day``).  The bucket series is coordinator-sized; the
    corpus pass is the bounded day-count combiner."""
    series = _day_series(sf_dir)
    if series.empty:
        raise ValueError(f"no daily buckets: the events table of {sf_dir} is empty")
    n = series.to_numpy().astype(np.float64)
    med = float(np.median(n))
    mad = float(np.median(np.abs(n - med)))
    denom = 1.4826 * mad if mad > 0 else 1.0
    z = (n - med) / denom
    return pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": series.to_numpy(),
            "z_r": np.round(z, 6),
            "is_anomaly": np.abs(z) > 2.5,
        }
    )


MRL_COARSE_DIMS: int = 16


def knn_mrl_rescore(sf_dir: str) -> pd.DataFrame:
    """(query_vec_id, rank, vec_id, coarse_r, score_r) — MATRYOSHKA
    two-phase kNN (MRL truncation: the first dims of an MRL-trained
    embedding are themselves a valid lower-dim embedding): phase 1 ranks
    by cosine over only the FIRST 16 of 64 dims (4× cheaper scan /
    4× smaller hot index), keeps the top 30 per query by
    (−coarse, vec_id); phase 2 re-ranks the candidates with the
    full-dimension cosine — the third rescore family next to int8 and
    1-bit sign quantization."""
    from .ann import truncated_rescore_topk

    ds, qrows, Q = _knn_queries(sf_dir)
    out = truncated_rescore_topk(ds, Q, k=10, oversample=3, coarse_dims=MRL_COARSE_DIMS)
    return _knn_frame(out, qrows, "coarse", "score")


CLARITY_FB_DOCS: int = 10
CLARITY_MU: float = 0.0  # pure fb-doc mixture, uniform doc weights


def clarity_scores(sf_dir: str) -> pd.DataFrame:
    """(query_id, clarity_r) — query-performance prediction via the
    CLARITY score (Cronen-Townsend et al. 2002): KL divergence between
    the language model of the BM25 top-10 feedback set and the corpus
    LM — high clarity = focused result set, low = ambiguous query.
    P(t|R) = (1/|fb|)·Σ_d tf(t,d)/dl(d); P(t|C) = cf(t)/total_tokens;
    clarity = Σ_t P(t|R)·log2(P(t|R)/P(t|C)).  Feedback texts come from
    k-bounded point reads (the RM3 discipline); the corpus LM is the
    vocab-bounded unigram reduce."""
    import pyarrow.dataset as pads

    from ..tokenizer import Tokenizer

    index_dir = build_documents_index(sf_dir)
    reader = IndexReader(index_dir, DOCS_CFG)
    corpus = os.path.join(index_dir, "corpus_input.parquet")
    tok = Tokenizer(DOCS_CFG)
    # corpus LM: cf per term / total tokens (vocab-bounded combiner reduce)
    from .textops import UnigramCountStage
    from ..functions.hashing import md5_u64

    parts = [
        b
        for b in _docs(sf_dir, columns=["text"])
        .map_batches(UnigramCountStage(), batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    allh = np.concatenate([p.column("thash").to_numpy(zero_copy_only=False).view(np.uint64) for p in parts])
    allc = np.concatenate([p.column("cnt").to_numpy(zero_copy_only=False) for p in parts])
    uh, inv = np.unique(allh, return_inverse=True)
    uc = np.bincount(inv, weights=allc).astype(np.float64)
    total = float(uc.sum())
    rows = []
    for qid, text in BM25_QUERIES:
        fb = reader.search(text, CLARITY_FB_DOCS)
        if not fb:
            continue
        urls = [u for _d, _s, u in fb]
        tbl = pads.dataset(corpus).to_table(
            columns=["url", "text"], filter=pads.field("url").isin(urls)
        )
        texts = dict(zip(tbl.column("url").to_pylist(), tbl.column("text").to_pylist()))
        acc: dict[str, float] = {}
        nfb = len(urls)
        for u in urls:
            toks = tok.tokenize(texts[u])
            if not toks:
                continue
            dl = float(len(toks))
            uq, ct = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            for t, c in zip(uq, ct):
                acc[t] = acc.get(t, 0.0) + float(c) / dl / nfb
        terms = sorted(acc)
        th = md5_u64(terms)
        pos = np.searchsorted(uh, th)
        pc_ = uc[pos] / total  # every fb term exists in the corpus LM
        pr = np.asarray([acc[t] for t in terms])
        clarity = float(np.sum(pr * np.log2(pr / pc_)))
        rows.append((qid, round(clarity, 6)))
    return pd.DataFrame(rows, columns=["query_id", "clarity_r"])


def dow_seasonality(sf_dir: str) -> pd.DataFrame:
    """(dow, n_events, avg_per_day_r, lift_r) — day-of-week seasonality
    profile over the event stream (the decomposition companion to
    ``serial_diff_events``): per ISO weekday (1=Monday), total events,
    the per-occurring-day average on the gap-free axis, and the lift vs
    the overall daily mean.  Same bounded day-count combiner; the
    profile is 7 rows at any scale."""
    series = _day_series(sf_dir)
    dow = pd.to_datetime(series.index).dayofweek.to_numpy() + 1  # ISO 1..7
    n = series.to_numpy().astype(np.float64)
    rows = []
    for d in range(1, 8):
        m = dow == d
        if not m.any():
            continue
        avg = n[m].mean()
        rows.append((d, int(n[m].sum()), round(avg, 6), round(avg / n.mean(), 6)))
    return pd.DataFrame(rows, columns=["dow", "n_events", "avg_per_day_r", "lift_r"])


def _day_count_partial(batch: pa.Table, event_types: tuple[str, ...] | None) -> pa.Table:
    """One batch's ``(day[, et], day_count)`` partial of :func:`_daily_counts`."""
    days = pc.cast(pc.floor_temporal(batch.column("ts"), unit="day"), pa.date32())
    if event_types is None:
        return pa.table({"day": days}).group_by(["day"]).aggregate([("day", "count")])
    t = pa.table({"day": days, "et": batch.column("event_type")})
    t = t.filter(pc.is_in(t.column("et"), value_set=pa.array(event_types)))
    return t.group_by(["day", "et"]).aggregate([("day", "count")])


def _daily_counts(sf_dir: str, event_types: tuple[str, ...] | None = None) -> pd.DataFrame:
    """day → per-type event counts via the bounded day-count combiner
    (one ``(day[, type], count)`` partial per batch — the series is
    coordinator-sized at any corpus scale).  ``event_types=None`` counts
    everything into one ``n`` column."""
    cols = ["ts"] if event_types is None else ["ts", "event_type"]
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=cols)
    return ds.map_batches(
        _day_count_partial, fn_kwargs={"event_types": event_types}, batch_format="pyarrow"
    ).to_pandas()


def _day_series(sf_dir: str) -> pd.Series:
    """Daily event counts (int64) on a gap-free day axis from the first to
    the last event day — empty days count 0 (the date_histogram
    ``min_doc_count: 0`` contract); an empty events table gives an empty
    series."""
    parts = _daily_counts(sf_dir)
    if parts.empty:
        return pd.Series([], index=pd.Index([], dtype=object), dtype=np.int64)
    counts = parts.groupby("day", sort=True)["day_count"].sum()
    full = pd.date_range(counts.index.min(), counts.index.max(), freq="D").date
    return counts.reindex(full, fill_value=0).astype(np.int64)



def cumulative_sum_daily(sf_dir: str) -> pd.DataFrame:
    """(day, n_events, cum_n) — ES ``cumulative_sum`` pipeline aggregation
    over the daily date_histogram, gap-free axis (empty days emit a
    bucket and the running total carries through — the ES
    ``min_doc_count: 0`` + cumulative_sum shape).  One bounded day-count
    combiner pass; the prefix sum runs on the coordinator-sized series,
    exactly where ES's pipeline-agg reducer runs it."""
    series = _day_series(sf_dir)
    return pd.DataFrame(
        {
            "day": pd.to_datetime(series.index),
            "n_events": series.to_numpy(),
            "cum_n": series.to_numpy().cumsum(),
        }
    )


def bucket_script_ratio(sf_dir: str) -> pd.DataFrame:
    """(day, n_purchase, n_view, ratio_r) — ES ``bucket_script`` pipeline
    aggregation: a daily date_histogram with two ``filter`` sub-counts
    (purchase / view) and a per-bucket computed ratio, plus the
    ``bucket_selector`` convention that buckets whose denominator is 0
    drop.  The distributed pass ships (day, type, count) combiner
    partials filtered to the two types AT THE SCAN — the series is
    coordinator-sized, the script runs where ES runs it."""
    parts = _daily_counts(sf_dir, event_types=("purchase", "view"))
    pivot = (
        parts.groupby(["day", "et"], sort=True)["day_count"]
        .sum()
        .unstack(fill_value=0)
        .reindex(columns=["purchase", "view"], fill_value=0)
    )
    keep = pivot["view"] > 0
    pivot = pivot[keep]
    return pd.DataFrame(
        {
            "day": pd.to_datetime(pivot.index),
            "n_purchase": pivot["purchase"].to_numpy(np.int64),
            "n_view": pivot["view"].to_numpy(np.int64),
            "ratio_r": np.round(
                pivot["purchase"].to_numpy(np.float64) / pivot["view"].to_numpy(np.float64), 6
            ),
        }
    ).reset_index(drop=True)


ZIPF_TOP: int = 1000


def zipf_slope(sf_dir: str) -> pd.DataFrame:
    """(n_terms, slope_r, intercept_r) — Zipf's-law fit over the corpus
    term-frequency table: least-squares slope/intercept of ln(cf) against
    ln(rank) for the top :data:`ZIPF_TOP` terms by (cf DESC, term ASC) —
    the corpus-health diagnostic a tokenizer/quality pipeline tracks (a
    healthy web corpus sits near slope −1).  One fused tokenize+count
    sweep with per-batch (term, cf) combiner partials (the A1 stats
    discipline, vocab-bounded); the fit runs on the ZIPF_TOP-bounded
    head.  Matches DuckDB ``regr_slope``/``regr_intercept`` exactly
    (population-moment ratio)."""
    words = _bpe_word_table(sf_dir)  # term → cf, vocab-bounded
    head = words.reset_index().sort_values(
        ["cf_sum", "term"], ascending=[False, True], kind="mergesort"
    ).head(ZIPF_TOP)
    y = np.log(head["cf_sum"].to_numpy(np.float64))
    x = np.log(np.arange(1, len(head) + 1, dtype=np.float64))
    mx, my = x.mean(), y.mean()
    slope = ((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum()
    intercept = my - slope * mx
    return pd.DataFrame(
        {
            "n_terms": np.array([len(head)], dtype=np.int64),
            "slope_r": [round(float(slope), 6)],
            "intercept_r": [round(float(intercept), 6)],
        }
    )


_DEGREE_COUNT_SCHEMA = pa.schema([("indeg", pa.int64()), ("c", pa.int64())])


def _degree_counts(batch: pa.Table) -> pa.Table:
    d, c = np.unique(batch.column("outdeg").to_numpy(zero_copy_only=False).astype(np.int64), return_counts=True)
    return pa.table([d, c.astype(np.int64)], schema=_DEGREE_COUNT_SCHEMA)


def degree_hist(sf_dir: str) -> pd.DataFrame:
    """(indeg, n_nodes) — in-degree distribution of the deterministic
    link fixture (the first sanity plot of any web-graph build; nodes
    with no in-links are counted at indeg 0).  Reuses the graph engine's
    vertex-table construction keyed on the DESTINATION endpoint — one
    coarse-bucket exchange joins per-batch degree combiner partials to
    the node universe — then per-block (degree, count) histogram partials
    reduce on the driver (bounded by the number of DISTINCT degree
    values, not nodes)."""
    n_docs = _n_docs(sf_dir)
    vertex = _build_vertex_table(_restart_weights(sf_dir), _link_fixture_edges(sf_dir, n_docs), 8, key="dst")
    parts = _read(vertex.map_batches(_degree_counts, batch_format="pyarrow"), _DEGREE_COUNT_SCHEMA)
    out = parts.to_pandas().groupby("indeg", sort=True)["c"].sum().reset_index(name="n_nodes")
    return out.astype({"indeg": np.int64, "n_nodes": np.int64})


LPA_ITERS: int = 3
LPA_TOP: int = 20
_LABEL_COUNT_SCHEMA = pa.schema([("label", pa.int64()), ("c", pa.int64())])


def _label_counts(batch: pa.Table, nbuckets: int) -> pa.Table:
    label, c = np.unique(batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64), return_counts=True)
    return pa.table({"bkt": _bucket(label, nbuckets), "label": label, "c": c.astype(np.int64)})


def _top_labels(g: pa.Table, k: int) -> pa.Table:
    """One label-bucket's top-k communities by (size DESC, label ASC)."""
    df = g.to_pandas().groupby("label", as_index=False)["c"].sum()
    df = df.sort_values(["c", "label"], ascending=[False, True], kind="mergesort").head(k)
    return pa.table([df["label"].to_numpy(np.int64), df["c"].to_numpy(np.int64)], schema=_LABEL_COUNT_SCHEMA)


def label_propagation(sf_dir: str) -> pd.DataFrame:
    """(label, n_members) — synchronous Label Propagation community
    detection (Raghavan et al. 2007, the GraphX/GraphFrames LPA) over the
    UNDIRECTED link fixture, 3 synchronized rounds from labels = node
    ids; each node adopts its neighbors' most frequent label (ties:
    smallest).  Runs through the vertex-partitioned engine
    (:func:`splade_ray.pipelines.graph.label_propagation_table`): the
    label table is node-hash-bucketed, each round is two coarse-bucket
    exchanges with per-(destination, label) count partials pre-summed in
    the bucket.  Community sizes reduce through one label-bucket
    exchange with per-bucket top-20 partials — the driver sees ≤
    20·buckets rows.  Top 20 communities by (size DESC, label ASC)."""
    n_docs = _n_docs(sf_dir)
    labels = label_propagation_table(_doc_nodes(sf_dir), _link_fixture_edges(sf_dir, n_docs), iters=LPA_ITERS)
    cand = _read(
        labels.map_batches(_label_counts, fn_kwargs={"nbuckets": 8}, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_top_labels, fn_kwargs={"k": LPA_TOP}, batch_format="pyarrow"),
        _LABEL_COUNT_SCHEMA,
    ).to_pandas()
    top = cand.sort_values(["c", "label"], ascending=[False, True], kind="mergesort").head(LPA_TOP)
    return pd.DataFrame(
        {"label": top["label"].to_numpy(np.int64), "n_members": top["c"].to_numpy(np.int64)}
    ).reset_index(drop=True)


def _edge_weights(batch: pa.Table) -> pa.Table:
    """The fixture's deterministic link weights w = 1 + (src + dst) mod 3."""
    s = pc.add(batch.column("src"), batch.column("dst")).to_numpy(zero_copy_only=False)
    return batch.append_column("w", pa.array((1 + s % 3).astype(np.float64)))


def weighted_pagerank(sf_dir: str) -> pd.DataFrame:
    """(doc_id, pr_r) — WEIGHTED PageRank over the link fixture with
    deterministic edge weights ``w = 1 + (src + dst) mod 3``: the
    transition ships ``rank · w_edge / W_src`` (W = weighted
    out-strength) instead of the uniform 1/outdeg split — the
    link-quality-weighted crawl-frontier ranking.  Runs ONLY through the
    vertex-partitioned engine (edge weights ride the gather schema's
    ``w`` slot; out-strengths come from the same degree-combiner
    exchange), so this query keeps the distributed path in the driver's
    correctness gate at every scale.  3 iterations at damping 0.85,
    uniform start and restart; top 50 by (round-9 pr DESC, doc_id)."""
    n_docs = _n_docs(sf_dir)
    top = pagerank_top(
        _restart_weights(sf_dir),
        _link_fixture_edges(sf_dir, n_docs).map_batches(_edge_weights, batch_format="pyarrow"),
        n_docs,
        50,
        decimals=9,
        iters=PAGERANK_ITERS,
        damping=PAGERANK_DAMPING,
        weight_col="w",
        mode="vertex",
    )
    return _node_frame(top, pr_r="rank").sort_values(["doc_id"], ignore_index=True)
