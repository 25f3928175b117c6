"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (inverted-index build + BM25 top-k
search) on sf0.001.  ``queries()`` exposes one callable per implemented
operator family (SURVEY.md §2 + the training-data ops); ``oracle_sql()``
gives the DuckDB-equivalent SQL where the op is SQL-expressible (the BM25
oracle reimplements the full scoring pipeline in SQL).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# one shared tokenizer expression so engine regex and SQL stay in lockstep
_TOK_SQL = "list_filter(regexp_split_to_array(lower({col}), '[^a-z0-9]+'), x -> x <> '')"
_DOC_TOKS = _TOK_SQL.format(col="text")

# Oracle SQL fragments: the CTEs many oracles share, each written once.
# They are plain SQL text and import no engine scoring code (an oracle is
# worth something only while it is independent of the engine).  A fragment
# is whole lines with no leading or trailing newline; every composed oracle
# is pinned byte for byte by tests/test_oracle_pins.py.


def _query_terms(values: str, compact: bool = False) -> str:
    """qset (the query table), qterms (its tokens) and qtf (per-query term
    frequency)."""
    toks = f"SELECT query_id, unnest({_TOK_SQL.format(col='qtext')}) AS term FROM qset"
    qterms = f"qterms AS ({toks})," if compact else f"qterms AS (\n  {toks}\n),"
    return f"""qset(query_id, qtext) AS (VALUES {values}),
{qterms}
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),"""


_TF_DL = """tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),"""


def _corpus(src: str = "documents", lists: bool = False) -> str:
    """toks (one row per token of ``src``.text), tf and dl; ``lists`` also
    keeps each doc's token list as toksl for positional joins."""
    if lists:
        toks = (f"toksl AS (SELECT doc_id, {_DOC_TOKS} AS l FROM {src}),\n"
                "toks AS (SELECT doc_id, unnest(l) AS term FROM toksl),")
    else:
        toks = f"toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM {src}),"
    return f"{toks}\n{_TF_DL}"


_BM25_STATS = """stats AS (SELECT (SELECT count(*) FROM dl)::DOUBLE AS n_docs, (SELECT avg(dl) FROM dl) AS avgdl),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),"""


def _bm25_scores(name: str = "scores", pmatch: bool = False) -> str:
    """Σ qtf · BM25(k1=1.2, b=0.75) per (query, doc); ``pmatch`` keeps only
    the docs a positional match CTE named pmatch selected."""
    match = "\n  JOIN pmatch m ON m.query_id = q.query_id AND m.doc_id = tf.doc_id" if pmatch else ""
    return f"""{name} AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term{match}
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),"""


# expanded-OR BM25: every term of `expand` (query_id, term, df) scores with
# unit query weight and its own idf
_BM25_EXPAND_SCORES = """scores AS (
  SELECT e.query_id, tf.doc_id,
         sum(ln(1 + (s.n_docs - e.df + 0.5) / (e.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM expand e
  JOIN tf ON tf.term = e.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY e.query_id, tf.doc_id
),"""


def _ranked_cte(digits: int = 9, src: str = "scores", name: str = "ranked") -> str:
    """Per-query rank by score desc, doc id asc.  Scores compare rounded to
    ``digits`` so DuckDB's parallel float sums cannot flip tied docs."""
    return f"""{name} AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, {digits}) DESC, doc_id ASC) AS rank
  FROM {src}
)"""


def _top_rows(k: int = 10, sep: str = "\n", name: str = "ranked") -> str:
    """The contract's ranked rows: (query_id, rank, doc_id, score_r) to k."""
    return f"SELECT query_id, rank, doc_id, round(score, 6) AS score_r{sep}FROM {name} WHERE rank <= {k}"


def _ranked_tail(k: int = 10, digits: int = 9, src: str = "scores", sep: str = "\n", name: str = "ranked") -> str:
    """The ranked CTE and its top-k rows: the tail of every top-k oracle."""
    return f"{_ranked_cte(digits, src, name)}\n{_top_rows(k, sep, name)}"


# a gap-free calendar-day axis over [b.lo, b.hi]
_DAY_AXIS = """axis AS (
  SELECT CAST(unnest(generate_series(CAST((SELECT lo FROM b) AS TIMESTAMP),
                                     CAST((SELECT hi FROM b) AS TIMESTAMP),
                                     INTERVAL 1 DAY)) AS DATE) AS day
),"""
# events counted per calendar day (c), their day range (b) and the axis
_DAILY_EVENTS = f"""c AS (SELECT CAST(date_trunc('day', ts) AS DATE) AS day, count(*)::BIGINT AS n FROM events GROUP BY 1),
b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),
{_DAY_AXIS}"""


def _link_edges(name: str = "e0") -> str:
    """The link fixture: two out-links per doc, to (3·id + 1) mod n and
    (7·id + 2) mod n (n from a CTE named nn); self-links are not dropped."""
    return f"""{name} AS (
  SELECT doc_id AS src, (doc_id * 3 + 1) % (SELECT n FROM nn) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 7 + 2) % (SELECT n FROM nn) FROM documents
),"""


# exact-cosine rescore of the coarse top 30 (cand: query_vec_id, vec_id,
# qe, de, coarse, crank), ranked to 10
_VEC_RESCORE = """resc AS (
  SELECT query_vec_id, vec_id, coarse, list_cosine_similarity(qe, de) AS score
  FROM cand WHERE crank <= 30
),
ranked AS (
  SELECT query_vec_id, vec_id, coarse, score,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY round(score, 9) DESC, vec_id ASC) AS rank
  FROM resc
)
SELECT query_vec_id, rank, vec_id, round(coarse, 6) AS coarse_r, round(score, 6) AS score_r
FROM ranked WHERE rank <= 10 ORDER BY query_vec_id, rank"""

# each doc's token list (toks.l) and one row per token with its position
_TOKEN_POSITIONS = f"""toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toks),"""
# ... and each token's md5_number_lower hash, the rolling-hash input
_TOKEN_HASHES = f"""{_TOKEN_POSITIONS}
h AS (SELECT doc_id, i, CAST(md5_number_lower(tok) AS HUGEINT) AS th FROM flat),"""


def _chunks(toks: str, name: str) -> str:
    """Window-16, stride-12 token chunks of ``toks`` (doc_id, ts), as
    ``name`` (doc_id, chunk_idx, ct); an empty doc has no chunk."""
    return f"""base AS (
  SELECT doc_id, ts, len(ts) AS n,
         CASE WHEN len(ts) = 0 THEN 0
              ELSE 1 + CAST(ceil(greatest(len(ts) - 16, 0) / 12.0) AS INT) END AS n_chunks
  FROM {toks}
),
idx AS (SELECT doc_id, ts, n, unnest(generate_series(0, n_chunks - 1)) AS chunk_idx FROM base),
{name} AS (SELECT doc_id, chunk_idx, ts[chunk_idx*12 + 1 : least(chunk_idx*12 + 16, n)] AS ct FROM idx)"""


# language-model similarities: total tokens and collection frequency
_LM_STATS = """stats AS (SELECT (SELECT sum(dl) FROM dl) AS t_tokens),
cf AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY term),"""


def _similarity_sql(values: str, stats: str, freq: str, score: str, clamp: bool = False) -> str:
    """A read-time similarity oracle: ``score`` (a ``sum(...)`` over qtf q,
    tf, the ``freq`` table, dl and ``stats`` s) per (query, doc) over the
    standard corpus, ranked on 6 digits; ``clamp`` keeps positive sums only."""
    having = f"\n  HAVING {score} > 0" if clamp else ""
    return f"""
WITH {_query_terms(values)}
{_corpus()}
{stats}
scores AS (
  SELECT q.query_id, tf.doc_id,
         {score} AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN {freq} ON {freq}.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id{having}
),
{_ranked_tail(digits=6)}
"""


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents and run the
    fixed BM25 query set; returns the top-k result table."""
    from splade_ray.pipelines.queries import bm25_topk

    return bm25_topk("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from splade_ray.pipelines import queries as q

    def media_decode(sf_dir: str):
        """Decoded metadata + features, flattened to scalar rows (media_id,
        width, height, duration_ms, feat_idx, feat_value) — the synthetic
        payload bytes are closed-form, so the SQL oracle recomputes the
        per-chunk byte means the fake decoder extracts."""
        from splade_ray.pipelines.multimodal import decode_media, synth_media_table
        import ray.data as rd

        wide = decode_media(rd.from_arrow(synth_media_table(200))).to_pandas()
        rows = []
        for r in wide.itertuples(index=False):
            for fi, v in enumerate(r.features):
                rows.append((int(r.media_id), int(r.width), int(r.height), int(r.duration_ms), fi, round(float(v), 6)))
        import pandas as pd

        out = pd.DataFrame(
            rows, columns=["media_id", "width", "height", "duration_ms", "feat_idx", "feat_value"]
        ).sort_values(["media_id", "feat_idx"], ignore_index=True)
        for c in ("width", "height", "duration_ms", "feat_idx"):
            out[c] = out[c].astype("int32")
        return out

    def frame_sample(sf_dir: str):
        from splade_ray.pipelines.multimodal import sample_frames, synth_media_table
        import ray.data as rd

        return (
            sample_frames(rd.from_arrow(synth_media_table(100, kind="video")))
            .to_pandas()
            .sort_values(["media_id", "frame_idx"], ignore_index=True)
        )

    ops = {
        # inverted index + BM25 (flagship)
        "bm25_topk": q.bm25_topk,
        # wildcard expansion on the sorted vocab (Lucene PrefixQuery shape)
        "prefix_topk": q.prefix_topk,
        # fuzzy retrieval: Levenshtein<=1 vocab expansion (Lucene FuzzyQuery)
        "fuzzy_topk": q.fuzzy_topk,
        # regexp retrieval: full-match dictionary scan (Lucene RegexpQuery)
        "regexp_topk": q.regexp_topk,
        # wildcard retrieval: */? glob with a literal-prefix range seek
        "wildcard_topk": q.wildcard_topk,
        # match_bool_prefix: head BM25 should-clauses + constant-score
        # prefix on the trailing token (no position constraint)
        "bool_prefix_topk": q.bool_prefix_topk,
        # pinned query: given ids promoted to the head, organic tail
        "pinned_topk": q.pinned_topk,
        # track_total_hits: match count exact up to a threshold, else
        # (threshold, gte) with shard visiting terminated early
        "total_hits": q.total_hits,
        # boosting query: negative clause demotes (multiplies), not excludes
        "boosting_topk": q.boosting_topk,
        # terms_set: per-doc minimum_should_match from a doc-value field
        "terms_set_topk": q.terms_set_topk,
        # disjunction-max scoring (Lucene DisMax, tie_breaker=0.3)
        "dismax_topk": q.dismax_topk,
        # synonym groups: member tfs blend BEFORE saturation (SynonymQuery)
        "synonym_topk": q.synonym_topk,
        # per-term score breakdown of each query's top-1 doc (explain)
        "explain_scores": q.explain_scores,
        # per-shard physical layout (docs/terms/postings/tokens)
        "index_segments": q.index_segments,
        # field collapsing: best hit per source (Lucene grouping/collapse)
        "collapse_topk": q.collapse_topk,
        # diversified_sampler + top hits: at most 2 docs per source in the
        # final top-k (per-owner bounded per-source top-2 candidate ship)
        "diversified_topk": q.diversified_topk,
        # nested block-join: chunks indexed as child docs, parent takes its
        # best child's BM25 (ToParentBlockJoinQuery, ScoreMode.Max)
        "block_join_topk": q.block_join_topk,
        # children agg: matching CHILD chunk counts per parent lang
        "children_agg": q.children_agg,
        # rank-feature static boost: BM25 + 0.5*ln(1+n_chars/1000)
        "boosted_topk": q.boosted_topk,
        # distance_feature: BM25 + pivot/(pivot+|n_chars-origin|) additive
        "distance_feature_topk": q.distance_feature_topk,
        # function_score field_value_factor: BM25 * ln(1+n_chars/100)
        "field_value_factor_topk": q.field_value_factor_topk,
        # TermStatistics (df + totalTermFreq) served off the stored index
        "term_stats": q.term_stats,
        # sort-by-field: match set ranked by the dl doc-value, no scoring
        "match_sorted_by_dl": q.match_sorted_by_dl,
        # index sorting: sort-key doc ids + early-terminated posting walk
        "sorted_index_topk": q.sorted_index_topk,
        # term-major salted layout (groupby(term) + skew-aware salting)
        "bm25_topk_termindex": q.bm25_topk_termindex,
        # hashed-vocab build (feature-hashed term ids, no vocab strings)
        "bm25_topk_hashed": q.bm25_topk_hashed,
        # SPLADE-style hash-expansion encoder index (model scoring — no SQL
        # oracle; gated by the pytest rank-identity oracle instead)
        "neural_topk": q.neural_topk,
        # upsert lifecycle: revised docs land as a new segment, stale
        # versions tombstoned at query time, frozen union stats (pre-merge)
        "upsert_topk": q.upsert_topk,
        # point-in-time reads pinned to a generations-manifest commit
        # point (Lucene segments_N): pit view == pre-mutation top-k even
        # though its reader opens AFTER the upsert committed
        "pit_topk": q.pit_topk,
        # incremental segment build + term-run merge; must equal the
        # single-build BM25 oracle
        "segment_merge_topk": q.segment_merge_topk,
        # query-time federation over UNMERGED segments (dfs_query_then_fetch
        # union stats) — must equal the single-build oracle exactly
        "bm25_topk_federated": q.bm25_topk_federated,
        # ES custom routing: one owning shard per routing key, SHARD-LOCAL
        # stats (the query_then_fetch default) — oracle recomputes BM25
        # over each routing value's sub-corpus alone
        "routing_topk": q.routing_topk,
        # snapshot → content-addressed repo → sha256-verified restore →
        # serve from the restored copy; second snapshot reuses every blob
        "snapshot_restore_topk": q.snapshot_restore_topk,
        # 2-replica sharded serving with a primary killed mid-stream —
        # failover promotion must be rank-invisible
        "bm25_topk_replicated": q.bm25_topk_replicated,
        # exact-phrase retrieval from a forward-enabled (store_forward)
        # index: AND candidates + stream adjacency verify + BM25 ranking
        "phrase_topk": q.phrase_topk,
        # Lucene query_string grammar (+must/-not/should, phrases, boosts)
        # composed onto the BM25/phrase kernels; oracle generated from the
        # same parsed clause table
        "query_string_topk": q.query_string_topk,
        # match_phrase_prefix (search-as-you-type): last token expands to
        # the first 50 prefix terms in term order (the ES cap)
        "phrase_prefix_topk": q.phrase_prefix_topk,
        # proximity (NEAR/w) retrieval: min-gap verify over merged
        # occurrence positions in the forward streams
        "near_topk": q.near_topk,
        # ordered span-near with slop (SpanNearQuery): in-order chain DP
        # over the forward streams, latest-start segmented prefix max
        "span_near_topk": q.span_near_topk,
        # intervals all_of(ordered=false, max_gaps): the unordered half of
        # the positional pair (span_near is ordered=true)
        "intervals_topk": q.intervals_topk,
        # span-first (SpanFirstQuery): term within the first N positions,
        # verified against only the stream heads of the candidates
        "span_first_topk": q.span_first_topk,
        # span-not (SpanNotQuery): ordered span matches with no exclude-term
        # occurrence inside the span's positions
        "span_not_topk": q.span_not_topk,
        # span_containing: big span must HOLD the little term (span_not dual)
        "span_containing_topk": q.span_containing_topk,
        # SpanWithinQuery: same containment match set, little-term ranking
        "span_within_topk": q.span_within_topk,
        # collapse with inner_hits: top-3 groups, each with its top-2 docs
        "collapse_inner_hits": q.collapse_inner_hits,
        # frequent_item_sets (pairwise, exact): one incidence matmul/batch
        "frequent_item_sets": q.frequent_item_sets,
        # IVF-PQ: coarse probe pruning x ADC codes + exact rescore
        "knn_ivfpq": q.knn_ivfpq,
        # function_score with THREE filtered functions (score_mode=sum,
        # factor capped at max_boost, boost_mode=multiply, min_score cut)
        "function_score_topk": q.function_score_topk,
        # boilerplate/template mining: opening-token shape signatures
        "template_signatures": q.template_signatures,
        # HITS hubs & authorities (3 L1-normalized iterations, unrolled)
        "hits_scores": q.hits_scores,
        # the same HITS through the vertex-partitioned engine (both score
        # vectors bucketed; L1 divisors the only driver state)
        "hits_scores_dist": lambda sf: q.hits_scores(sf, mode="vertex"),
        # BPE vocabulary training: distributed word counts + K exact merges
        "bpe_merges": q.bpe_merges,
        # MMR diversity re-ranking of the cosine top-20 pool (greedy,
        # all ten steps unrolled into the SQL oracle)
        "mmr_rerank": q.mmr_rerank,
        # learned BPE vocab applied back to the corpus: top subword symbols
        "bpe_encode": q.bpe_encode,
        # exact directional n-gram containment (quote/excerpt detection)
        "containment_pairs": q.containment_pairs,
        # variable_width_histogram: deterministic 1-D k-means buckets
        "variable_width_histogram": q.variable_width_histogram,
        # filtered alias: 3 backing segments + lang filter, atomic registry
        "alias_topk": q.alias_topk,
        # percentiles_bucket + stats_bucket over the daily event series
        "bucket_percentiles_stats": q.bucket_percentiles_stats,
        # combined_fields: fields merged into ONE pseudo-field before BM25
        # (combined tf/dl/avgdl, whole-document df) — 4th multi-field mode
        "combined_fields_topk": q.combined_fields_topk,
        # TPC-H-Q5-shaped star join: fact⋈fact co-partition + broadcast
        # dims resolved at tag time; revenue per (region, nation)
        "regional_revenue": q.regional_revenue,
        # Heaps'-law vocab growth: distinct terms after each corpus decile
        # via first-occurrence (groupby(term).min(doc_id)) — no ordered scan
        "vocab_growth": q.vocab_growth,
        # ordered funnel (view < click < purchase ts chain) per user
        "event_funnel": q.event_funnel,
        # binary (1-bit sign) quantized coarse kNN + exact cosine rescore
        "knn_bq_rescore": q.knn_bq_rescore,
        # infix dictionary queries via a char-trigram vocab index
        # (ES wildcard-FIELD *sub* shape; no full dictionary scan)
        "substring_topk": q.substring_topk,
        # cohort retention triangle: first-activity week × week offset
        "user_retention": q.user_retention,
        # Efraimidis-Spirakis weighted sampling without replacement
        # (key = ln(u)/n_chars, deterministic per-row uniform)
        "weighted_sample": q.weighted_sample,
        # distributed triangle counting on the link fixture (a<b<c
        # node-iterator: edges keyed by smaller endpoint, wedge closure probe)
        "link_triangles": q.link_triangles,
        # MOSS winnowing fingerprints (k=3 grams, w=4 windows, rightmost
        # min) — per-doc count + mod-2^64 digest of the selected set
        "winnowing_fps": q.winnowing_fps,
        # shingle index (Lucene ShingleFilter min=max=2): word-bigram
        # terms, bigram df/dl/avgdl — index-time phrase acceleration
        "shingle_topk": q.shingle_topk,
        # interpolated bigram-LM quality (λ·bi + (1−λ)·uni backoff);
        # bigram table never materialized — occurrences score in-bucket
        "bigram_perplexity": q.bigram_perplexity,
        # personalized PageRank: restart mass on the lang='en' seed set,
        # 3 unrolled power iterations over the link fixture
        "personalized_pagerank": q.personalized_pagerank,
        # the same PPR through the vertex-partitioned engine (restart
        # vector = a column of the bucketed vertex table, no dense arrays)
        "personalized_pagerank_dist": lambda sf: q.personalized_pagerank(sf, mode="vertex"),
        # serial_diff (lag 7) + normalize pipeline aggs on daily counts
        "serial_diff_events": q.serial_diff_events,
        # per-language greedy char-budget fill (training-mix allocation)
        "char_budget_sample": q.char_budget_sample,
        # the FULL Gopher quality-rule verdict with per-rule signals
        "gopher_rules_kept": q.gopher_rules_kept,
        # lang-ID with top-2 profile scores + confidence margin
        "doc_language_confidence": q.doc_language_confidence,
        # ES knn+filter on the IVF path (filter inside the probed lists;
        # nprobe=all makes it ≡ the filtered brute-force oracle)
        "knn_ivf_filtered": q.knn_ivf_filtered,
        # CCNet selection composed end to end: LM fit -> ppl -> per-lang
        # terciles -> language-aware keep rule (head + en-middle)
        "ccnet_corpus_kept": q.ccnet_corpus_kept,
        # radius vector search (ES knn similarity threshold, no top-k)
        "knn_radius": q.knn_radius,
        # per-label prototypes: 5 members nearest their label centroid
        "label_prototypes": q.label_prototypes,
        # directed association rules: confidence + lift over the FIS items
        "association_rules": q.association_rules,
        # time-to-convert through the full funnel (seconds, percentiles)
        "funnel_latency": q.funnel_latency,
        # per-label scatter + nearest-centroid separation (DB ingredients)
        "label_scatter": q.label_scatter,
        # ColBERT MaxSim late interaction over hash token embeddings
        "colbert_maxsim_topk": q.colbert_maxsim_topk,
        # sloppy phrase: 1/distance-weighted pair frequency, BM25-saturated
        "sloppy_phrase_topk": q.sloppy_phrase_topk,
        # soft dedup: near-dup cluster members down-weighted 1/|cluster|
        "soft_dedup_weights": q.soft_dedup_weights,
        # Expected Reciprocal Rank @10 (cascade metric, rank_eval family)
        "err_at10": q.err_at10,
        # static index pruning (Carmel et al.): per-term global top-half
        # postings by impact, served off the term-major layout
        "pruned_index_topk": q.pruned_index_topk,
        # temporal term drift: early/late df log-odds, top rising terms
        "trending_terms": q.trending_terms,
        # RM3 pseudo-relevance feedback: fb-doc tf/dl·idf expansion terms
        # interpolated 0.6/0.4 with the original query, rescored
        "rm3_topk": q.rm3_topk,
        # robust-z (MAD) anomaly days over the gap-free daily series
        "anomaly_days": q.anomaly_days,
        # Matryoshka truncation: first-16-dims coarse scan + full rescore
        "knn_mrl_rescore": q.knn_mrl_rescore,
        # clarity score (QPP): KL(fb-doc LM ‖ corpus LM) per query
        "clarity_scores": q.clarity_scores,
        # day-of-week seasonality profile on the gap-free daily axis
        "dow_seasonality": q.dow_seasonality,
        # cumulative_sum pipeline agg over the gap-free daily histogram
        "cumulative_sum_daily": q.cumulative_sum_daily,
        # bucket_script ratio (purchase/view filter sub-counts per day,
        # zero-denominator buckets dropped per bucket_selector)
        "bucket_script_ratio": q.bucket_script_ratio,
        # Zipf's-law slope/intercept fit over the top-1000 term head
        "zipf_slope": q.zipf_slope,
        # link-fixture in-degree distribution via the graph engine's
        # vertex-table exchange (indeg-0 nodes included)
        "degree_hist": q.degree_hist,
        # weighted PageRank (rank·w/W transition) — vertex engine only
        "weighted_pagerank": q.weighted_pagerank,
        # synchronous label-propagation communities (3 rounds, undirected
        # fixture) — vertex engine, per-(node,label) count elections
        "label_propagation": q.label_propagation,
        # significant-terms aggregation (ES significant_text, JLH) over
        # each query's top-50 hits — k-bounded foreground per shard owner
        "significant_terms": q.significant_terms,
        # rare-terms aggregation: long-tail (df <= n_docs/5) foreground terms
        "rare_terms": q.rare_terms,
        # percolation (reverse search): broadcast query set, one streaming
        # map_batches pass over the documents table
        "percolate_matches": q.percolate_matches,
        # completion suggester: prefix -> top dictionary terms by cf
        "suggest_completion": q.suggest_completion,
        # term suggester / did-you-mean: Levenshtein<=2 vocab candidates
        "suggest_spelling": q.suggest_spelling,
        # multi-field BM25 with field boosts (per-field term-major indexes,
        # additive scatter-gather)
        "bm25_fields_topk": q.bm25_fields_topk,
        # true BM25F: field-normalized tfs combined BEFORE one saturation
        "bm25f_topk": q.bm25f_topk,
        # multi_match cross_fields (BlendedTermQuery): blended max-df idf,
        # per-term dismax over field legs with tie_breaker=0.3
        "cross_fields_topk": q.cross_fields_topk,
        # tombstone deletes: per-query top-1 removed, stats unchanged
        "bm25_topk_deleted": q.bm25_topk_deleted,
        # segments + tombstones + PURGING merge: stats recomputed over the
        # survivors (full incremental lifecycle under one oracle)
        "bm25_topk_merged_purged": q.bm25_topk_merged_purged,
        # boolean AND retrieval (postings intersection) + IR metrics
        "boolean_and_match": q.boolean_and_match,
        # disjunctive boolean with a minimum_should_match floor (OR >= 2)
        "boolean_min_match": q.boolean_min_match,
        # metadata-filtered retrieval (lang='en' live-docs mask in-scorer)
        "bm25_topk_filtered": q.bm25_topk_filtered,
        # boolean must_not: postings-resolved non-scoring exclusion
        "bm25_topk_not": q.bm25_topk_not,
        # more-like-this: seed doc -> top tf-idf terms -> BM25, seed excluded
        "more_like_this": q.more_like_this,
        # LM-Dirichlet similarity plugged at read time over the same index
        "lm_topk": q.lm_topk,
        # LM Jelinek-Mercer similarity (lambda=0.1) on the same seam
        "lm_jm_topk": q.lm_jm_topk,
        # Lucene ClassicSimilarity (pre-8 TF-IDF) on the same seam
        "classic_topk": q.classic_topk,
        # DFR I(n)L2 similarity (divergence from randomness) on the same
        # read-time seam over the same stored index
        "dfr_topk": q.dfr_topk,
        # IB log-logistic similarity (information-based) — fifth plug on
        # the same seam
        "ib_ll_topk": q.ib_ll_topk,
        # rescore API: BM25 top-30 window re-ranked by bm25 + 0.5*lm_dirichlet
        "rescore_lm_topk": q.rescore_lm_topk,
        # analysis chain: StopFilter + minimal English stemmer at index AND
        # query time (Lucene Analyzer seam; post-analysis df/dl/avgdl)
        "analyzed_topk": q.analyzed_topk,
        # deep pagination via search_after cursor (page 2 = ranks 11-20)
        "bm25_topk_page2": q.bm25_topk_page2,
        # faceted match-set counts per lang (Lucene-facets aggregation)
        "search_facets": q.search_facets,
        # histogram aggregation over the match set (n_chars, interval 200)
        "search_histogram": q.search_histogram,
        # exact cardinality agg: distinct sources in the match set
        "search_cardinality": q.search_cardinality,
        # seeded deterministic random ranking over the match set
        "random_topk": q.random_topk,
        # terms agg: per-shard top-S merge + doc_count_error_upper_bound
        "terms_agg_shards": q.terms_agg_shards,
        # sampler agg: sub-aggs over only the top-shard_size scored docs
        # per PHYSICAL shard (budget device; cut is SQL-replayable)
        "sampler_agg": q.sampler_agg,
        # phrase / did-you-mean suggester (per-position term correction)
        "suggest_phrase": q.suggest_phrase,
        # composite aggregation with after-key paging over (lang, source)
        "composite_buckets": q.composite_buckets,
        # exact percentile_ranks of n_chars over each match set
        "percentile_ranks": q.percentile_ranks,
        # incremental-crawl dedup: new batch vs existing corpus, broadcast
        # fingerprint set / shuffle semi-join auto-switch
        "incremental_dedup_kept": q.incremental_dedup_kept,
        # same kept set, forced through the Bloom-pruned exchange: a Bloom
        # over the NEW batch's hashes prunes the existing side to ~|dups|
        "incremental_dedup_bloom": q.incremental_dedup_bloom,
        # the FULL ingestion loop: dedup the new batch, build it as a
        # second segment (continued doc numbering), federate queries —
        # rank+score identical to one build over existing ∪ kept-new
        "incremental_ingest_topk": q.incremental_ingest_topk,
        # matrix_stats: per-type moments/covariance/correlation (events)
        "matrix_stats": q.matrix_stats,
        # date_histogram + moving_fn pipeline agg (gap-free day axis)
        "events_moving_avg": q.events_moving_avg,
        # adjacency matrix: pairwise co-match counts of named filters
        "adjacency_matrix": q.adjacency_matrix,
        # exact distributed percentiles (histogram-refinement selection)
        "price_percentiles": q.price_percentiles,
        # term-vectors API: per-doc (term, tf, df) off the forward streams
        "doc_term_vectors": q.doc_term_vectors,
        # function-score gauss decay on a numeric doc-value
        "decay_topk": q.decay_topk,
        # terms agg + top_hits(3): per-lang best hits from the shard owners
        "top_hits_by_lang": q.top_hits_by_lang,
        # hybrid sparse+dense reciprocal-rank fusion (BM25 ⊕ cosine kNN)
        "hybrid_topk": q.hybrid_topk,
        # ES linear retriever: min-max-normalized weighted score fusion
        "linear_fusion_topk": q.linear_fusion_topk,
        # rank_feature saturation function (boost·S/(S+pivot))
        "rank_feature_sat_topk": q.rank_feature_sat_topk,
        # _msearch: the whole query batch in ONE RPC per shard group
        "msearch_topk": q.msearch_topk,
        # date_range / geo_bounds+geo_centroid / change_point aggs
        "date_range_agg": q.date_range_agg,
        "geo_bounds_centroid": q.geo_bounds_centroid,
        "change_point_day": q.change_point_day,
        # first-principal-component projection (power iteration, 1 Gram pass)
        "pca_project": q.pca_project,
        # product-quantized ADC kNN + exact rescore (the PQ half of IVF-PQ)
        "knn_pq_adc": q.knn_pq_adc,
        # best-window snippet extraction over the BM25 top-5
        "search_snippets": q.search_snippets,
        "search_snippets_sharded": q.search_snippets_sharded,
        "retrieval_metrics_at10": q.retrieval_metrics_at10,
        # cross-encoder-style rerank + hard-negative mining (T7, J3/M14)
        "rerank_overlap": q.rerank_overlap,
        "hard_negatives": q.hard_negatives,
        # custom partial+final aggregate, seeded sampling, collect_set,
        # sessionization (A4, K5/K6, D4, streaming-shaped)
        "running_stats": q.running_stats,
        # weighted_avg agg: language-importance-weighted mean doc length
        "weighted_avg_chars": q.weighted_avg_chars,
        # string_stats agg: length stats + Shannon char entropy, exact
        "string_stats_text": q.string_stats_text,
        # multi_terms agg: top composite (lang, source) buckets + avg sub-agg
        "multi_terms_counts": q.multi_terms_counts,
        # boxplot agg (exact): per-lang five-number summary via grouped
        # histogram-refinement selection (no sort of the data)
        "boxplot_chars": q.boxplot_chars,
        # median_absolute_deviation agg (exact): two grouped selections
        "mad_chars": q.mad_chars,
        # t_test agg (welch): all-pairs lang comparison from moment partials
        "ttest_langs": q.ttest_langs,
        # top_metrics agg: per-lang metric of the max-doc_id doc (argmax
        # combiner partials)
        "top_metrics_by_lang": q.top_metrics_by_lang,
        # avg_bucket + bucket_selector + max_bucket pipeline aggs
        "bucket_pipeline_stats": q.bucket_pipeline_stats,
        # cumulative_cardinality pipeline agg (exact): first-seen-user
        # election via one user_id hash exchange, gap-free day axis
        "cumulative_cardinality_users": q.cumulative_cardinality_users,
        # date_histogram + derivative pipeline agg
        "events_histogram_derivative": q.events_histogram_derivative,
        # extended_stats agg: count/min/max/sum/avg/sos + population
        # variance/std + ±2σ bounds, five-scalar combiner partials
        "extended_stats_chars": q.extended_stats_chars,
        # cumulative_sum + serial_diff + normalize pipeline aggs on one
        # date_histogram bucket series
        "events_daily_pipeline": q.events_daily_pipeline,
        # range agg over the n_chars doc-value (vectorized searchsorted)
        "range_chars_agg": q.range_chars_agg,
        # filters agg: named overlapping filters, one streaming pass
        "filters_agg_events": q.filters_agg_events,
        # auto_date_histogram: ladder-chosen interval <= 12 buckets
        "auto_date_histogram": q.auto_date_histogram,
        # rate agg: calendar-month buckets converted to per-day rates by
        # the bucket's ACTUAL day count (ES rate semantics)
        "rate_agg": q.rate_agg,
        # geotile_grid agg at zoom 3 (web-mercator tiles, ln(tan+sec) form)
        "geotile_grid": q.geotile_grid,
        # geo_distance rings (haversine, R=6371 km) around a fixed origin
        "geo_distance_ranges": q.geo_distance_ranges,
        # scripted_metric: arbitrary map/combine/reduce over doc values
        "scripted_metric_agg": q.scripted_metric_agg,
        # bucket_sort pipeline agg: sort+paginate the reduced bucket list
        "bucket_sort_page": q.bucket_sort_page,
        # moving_percentiles: trailing 7-bucket median over the day series
        "moving_percentiles_daily": q.moving_percentiles_daily,
        # corpus-driven stopword discovery (df/N threshold, analyzer prep)
        "stopword_discovery": q.stopword_discovery,
        # web-graph PageRank, 3 power iterations over a synthetic link
        # fixture; each iteration one edge-partitioned contribution shuffle
        "link_pagerank": q.link_pagerank,
        # same ranks through the VERTEX-PARTITIONED engine (rank lives as
        # a node-hash-bucketed Dataset co-partitioned with edges — the
        # 10^10-node shape; pipelines/graph.py); same oracle as above
        "link_pagerank_dist": lambda sf: q.link_pagerank(sf, mode="vertex"),
        # data-stream retrieval: 5 daily backing indices, a warc_ts range
        # opens only days [1,3) — index-level time pruning + federation
        "datastream_topk": q.datastream_topk,
        # crawl-URL canonicalization (Arrow-RE2 chain) + per-host rollup
        "host_agg": q.host_agg,
        # _reindex with a script transform into a fresh index; BM25 serves
        # from the destination corpus's own statistics
        "reindex_topk": q.reindex_topk,
        "deterministic_sample": q.deterministic_sample,
        # per-stratum (lang) deterministic sampling — training-data rebalance
        "stratified_sample": q.stratified_sample,
        "langs_by_source": q.langs_by_source,
        "event_sessions": q.event_sessions,
        # typed extraction from the semi-structured JSON props column
        "event_props_extract": q.event_props_extract,
        # text aggregates
        "term_df_top100": q.term_df_top100,
        "token_counts": q.token_counts,
        "quality_scores": q.quality_scores,
        "doc_stats_by_lang": q.doc_stats_by_lang,
        "lang_source_counts": q.lang_source_counts,
        "top_docs_by_chars": q.top_docs_by_chars,
        # grouped top-k + exact distributed quantiles
        "top_docs_per_lang": q.top_docs_per_lang,
        "chars_quantiles": q.chars_quantiles,
        # dedup family
        "dedup_exact_kept": q.dedup_exact_kept,
        "exact_dup_pairs": q.exact_dup_pairs,
        "minhash_pairs": q.minhash_pairs,
        # exact set-similarity join (no LSH) — same oracle as minhash_pairs
        "ngram_jaccard": q.ngram_jaccard,
        # connected components + canonical-doc election over the verified
        # near-dup pair graph
        "dedup_clusters": q.dedup_clusters,
        # same clustering forced through the distributed large-star/
        # small-star rounds (no driver edge list) — same oracle
        "dedup_clusters_dist": q.dedup_clusters_dist,
        # the pipeline's FINAL artifact: corpus with non-canonical cluster
        # members suppressed (broadcast drop set — tombstone shape)
        "dedup_near_kept": q.dedup_near_kept,
        "simhash_pairs": q.simhash_pairs,
        "embedding_near_dups": q.embedding_near_dups,
        # similarity search
        "knn_cosine": q.knn_cosine,
        # filtered vector search: cosine top-k under a label pre-filter
        "knn_cosine_filtered": q.knn_cosine_filtered,
        # SemDeDup: k-means clusters, within-cluster cosine dedup
        "semdedup_kept": q.semdedup_kept,
        # IVF with nprobe == n_clusters: exhaustive, same oracle
        "knn_cosine_ivf": q.knn_cosine_ivf,
        # IVF from the on-disk per-cluster partition layout (save/load,
        # probe pruning = directory pruning) — same oracle again
        "knn_cosine_ivf_disk": q.knn_cosine_ivf_disk,
        # int8-quantized coarse scan + exact-cosine rescore (oversample 3)
        "knn_int8_rescore": q.knn_int8_rescore,
        # text analysis (heuristics)
        "lang_id_preds": q.lang_id_preds,
        "doc_fingerprints": q.doc_fingerprints,
        # per-doc top-5 tf-idf keywords (df reduce + broadcast scoring)
        "doc_keywords": q.doc_keywords,
        # Gopher-style repetition quality signals (dup tokens, top bigram,
        # longest run)
        "repetition_scores": q.repetition_scores,
        # fixed token-window chunking with overlap (context-window splitter)
        "doc_chunks": q.doc_chunks,
        # token-budget packing via distributed ordered prefix sum (scan)
        "packed_bins": q.packed_bins,
        # corpus collocations: top bigrams by PMI (coarse-bucket exchange)
        "bigram_pmi": q.bigram_pmi,
        # TextRank keywords: PageRank over the co-occurrence graph
        # (3 unrolled power iterations — the kmeans oracle trick)
        "textrank_keywords": q.textrank_keywords,
        # fused one-pass curation filter (keep/drop + signals)
        "curation_kept": q.curation_kept,
        # exact repeated-passage detection (cross-doc 5-token spans)
        "dup_spans": q.dup_spans,
        # exact substring dedup, cut variant (min-owner keeps its copy)
        "dedup_cut_spans": q.dedup_cut_spans,
        # per-doc perplexity under the corpus unigram LM (quality signal)
        "doc_perplexity": q.doc_perplexity,
        # CCNet per-language perplexity terciles (head/middle/tail)
        "ccnet_buckets": q.ccnet_buckets,
        # HyperLogLog distinct-trigram sketch (combiner-merged registers)
        "approx_distinct_trigrams": q.approx_distinct_trigrams,
        # pivot/crosstab: source rows x language count columns
        "source_lang_pivot": q.source_lang_pivot,
        # ROLLUP: (lang, source) / (lang) / () levels from one pass
        "docs_rollup": q.docs_rollup,
        # resumable partitioned curated-corpus write (read-back verified)
        "curated_corpus": q.curated_corpus,
        # deterministic 80/10/10 train/val/test assignment
        "dataset_splits": q.dataset_splits,
        # temperature-weighted per-language mixture sampling
        "mixture_sample": q.mixture_sample,
        # count-min-sketch term counts (additive-combiner sketch)
        "cms_counts": q.cms_counts,
        # DSIR importance weights (hashed n-gram features, target=en)
        "dsir_weights": q.dsir_weights,
        # per-label embedding centroids (vector aggregate, long format)
        "label_centroids": q.label_centroids,
        # distributed Lloyd k-means (iterative algorithm, unrolled oracle)
        "kmeans_clusters": q.kmeans_clusters,
        # regex PII scrubbing (emails/phones), counts + redacted text
        "pii_redacted": q.pii_redacted,
        # benchmark n-gram decontamination (broadcast trigram-set membership)
        "contamination_overlap": q.contamination_overlap,
        # relational / streaming-shaped
        "lineitem_agg": q.lineitem_agg,
        # large-large co-partitioned equi-join (orders x lineitem)
        "order_priority_revenue": q.order_priority_revenue,
        "orders_by_segment": q.orders_by_segment,
        "events_window": q.events_window,
        "events_sliding": q.events_sliding,
        # backward as-of join (purchase ⋈ same user's latest prior click)
        "events_asof": q.events_asof,
        # forward as-of join (purchase ⋈ same user's earliest later click)
        "events_asof_fwd": q.events_asof_fwd,
        # trailing-window range join (clicks in the hour before a purchase)
        "events_range_count": q.events_range_count,
        # training-triplet ingestion + seeded sampling (S2/M9/K6;
        # deterministic synthetic TSV — rows-only check)
        "triplet_ingest": q.triplet_ingest,
        # meta-row shape dispatch + inline-score alignment + md5-keyed
        # listwise subsample (M10/M11)
        "meta_ingest": q.meta_ingest,
        # multimodal plumbing (deterministic fake decoder)
        "media_decode": media_decode,
        "frame_sample": frame_sample,
        # S3 sample window (skip/limit projection) + cross-encoder-style
        # pair scoring with teacher-score output (reference
        # score_cross_encoder shape)
        "doc_window": q.doc_window,
        "pair_scores": q.pair_scores,
    }
    # §2.10 extension surface: every driver pipeline is reachable by name
    from splade_ray.registry import register_op

    for _name, _fn in ops.items():
        register_op(_name, _fn)
    return ops


# deterministic distributed Lloyd k-means (k=4, 3 iterations, min-id
# seeding) unrolled into SQL — shared by the kmeans_clusters and
# semdedup_kept oracles
_KMEANS_CTES = """
WITH ev AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
                   unnest(range(len(embedding))) AS dim FROM embeddings),
ids AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cl
        FROM embeddings ORDER BY vec_id LIMIT 4),
c0 AS (SELECT i.cl, e.dim, e.x AS c FROM ids i JOIN ev e USING (vec_id)),
d1 AS (SELECT ev.vec_id, c.cl, sum((ev.x - c.c) * (ev.x - c.c)) AS dist
       FROM ev JOIN c0 c USING (dim) GROUP BY 1, 2),
a1 AS (SELECT vec_id, cl, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn FROM d1),
c1 AS (SELECT a.cl, e.dim, avg(e.x) AS c FROM a1 a JOIN ev e USING (vec_id) WHERE a.rn = 1 GROUP BY 1, 2),
c1f AS (SELECT c0.cl, c0.dim, coalesce(c1.c, c0.c) AS c FROM c0 LEFT JOIN c1 USING (cl, dim)),
d2 AS (SELECT ev.vec_id, c.cl, sum((ev.x - c.c) * (ev.x - c.c)) AS dist
       FROM ev JOIN c1f c USING (dim) GROUP BY 1, 2),
a2 AS (SELECT vec_id, cl, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn FROM d2),
c2 AS (SELECT a.cl, e.dim, avg(e.x) AS c FROM a2 a JOIN ev e USING (vec_id) WHERE a.rn = 1 GROUP BY 1, 2),
c2f AS (SELECT c1f.cl, c1f.dim, coalesce(c2.c, c1f.c) AS c FROM c1f LEFT JOIN c2 USING (cl, dim)),
d3 AS (SELECT ev.vec_id, c.cl, sum((ev.x - c.c) * (ev.x - c.c)) AS dist
       FROM ev JOIN c2f c USING (dim) GROUP BY 1, 2),
a3 AS (SELECT vec_id, cl, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn FROM d3),
c3 AS (SELECT a.cl, e.dim, avg(e.x) AS c FROM a3 a JOIN ev e USING (vec_id) WHERE a.rn = 1 GROUP BY 1, 2),
c3f AS (SELECT c2f.cl, c2f.dim, coalesce(c3.c, c2f.c) AS c FROM c2f LEFT JOIN c3 USING (cl, dim)),
d4 AS (SELECT ev.vec_id, c.cl, sum((ev.x - c.c) * (ev.x - c.c)) AS dist
       FROM ev JOIN c3f c USING (dim) GROUP BY 1, 2),
a4 AS (SELECT vec_id, cl, dist, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn FROM d4)"""


def oracle_sql() -> dict[str, str]:
    from splade_ray.pipelines.queries import (
        BM25_QUERIES,
        COMPOSITE_PAGE_SIZE,
        TERMS_AGG_SHARD_SIZE,
        TERMS_AGG_TOP,
    )
    from splade_ray.pipelines.textops import LANG_PROFILES

    def _stop_list(lang: str) -> str:
        return ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))

    def _lang_score(lang: str) -> str:
        return f"len(list_filter(toks, x -> x IN ({_stop_list(lang)})))::DOUBLE / greatest(len(toks), 1)"

    # stopword-profile language id: the profile CTEs (base, m, s) and the
    # lang_pred election shared by lang_id_preds and doc_language_confidence
    lang_ctes = f"""WITH base AS (SELECT doc_id, coalesce(text, '') AS t FROM documents),
m AS (
  SELECT doc_id, length(t) AS nchar,
         length(t) - length(regexp_replace(t, '[가-힯]', '', 'g')) AS n_hangul,
         length(t) - length(regexp_replace(t, '[一-鿿]', '', 'g')) AS n_han,
         list_filter(regexp_split_to_array(lower(t), '\\s+'), x -> x <> '') AS toks
  FROM base
),
s AS (
  SELECT doc_id, nchar, n_hangul, n_han, len(toks) AS n_tok,
         {_lang_score('en')} AS s_en, {_lang_score('de')} AS s_de,
         {_lang_score('es')} AS s_es, {_lang_score('fr')} AS s_fr
  FROM m
)"""
    lang_pred = """  CASE
    WHEN nchar > 0 AND (n_hangul + n_han)::DOUBLE / greatest(nchar, 1) > 0.1
      THEN CASE WHEN n_hangul >= n_han THEN 'ko' ELSE 'zh' END
    WHEN n_tok = 0 THEN 'und'
    WHEN greatest(s_en, s_de, s_es, s_fr) <= 0.05 THEN 'und'
    WHEN s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
    WHEN s_de >= s_es AND s_de >= s_fr THEN 'de'
    WHEN s_es >= s_fr THEN 'es'
    ELSE 'fr'
  END AS lang_pred"""
    _LANG_ID_SQL = f"""
{lang_ctes}
SELECT doc_id,
{lang_pred}
FROM s ORDER BY doc_id
"""
    bm25_values = ", ".join(f"('{qid}', '{text}')" for qid, text in BM25_QUERIES)
    from splade_ray.pipelines.queries import (
        FUZZY_QUERIES,
        NEAR_QUERIES,
        PERC_QUERIES,
        PHRASE_QUERIES,
        PREFIX_QUERIES,
        SPAN_QUERIES,
    )
    from splade_ray.pipelines.queries import _FIELD_TITLE_TOKS as title_toks

    # the title (first tokens) / body (the rest) split of each doc, with
    # per-field tf and dl — shared by the multi-field BM25 oracles
    field_ctes = f"""base AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
f AS (
  SELECT doc_id, 'title' AS field, l[1:{title_toks}] AS fl FROM base
  UNION ALL
  SELECT doc_id, 'body', l[{title_toks + 1}:] FROM base
),
ftoks AS (SELECT doc_id, field, unnest(fl) AS term FROM f),
ftf AS (SELECT field, doc_id, term, count(*)::DOUBLE AS tf FROM ftoks GROUP BY 1, 2, 3),
fdl AS (SELECT field, doc_id, len(fl)::DOUBLE AS dl FROM f),"""

    phrase_values = ", ".join(f"('{qid}', '{text}')" for qid, text in PHRASE_QUERIES)
    # query_string clause table: generated through the ENGINE's parser so
    # the oracle pins the grammar, not a hand-transcription of it
    from splade_ray.pipelines.queries import QS_QUERIES, ROUTING_QUERIES
    from splade_ray.pipelines.search import parse_query_string

    routing_values = ", ".join(
        f"('{qid}', '{text}', '{src}')" for qid, text, src in ROUTING_QUERIES
    )

    qs_values = ", ".join(
        f"('{qid}', {cid}, '{role}', {boost}, {str(kind == 'phrase').upper()}, '{text}')"
        for qid, qs in QS_QUERIES
        for cid, (role, kind, text, boost) in enumerate(parse_query_string(qs))
    )
    from splade_ray.pipelines.queries import MPP_QUERIES

    mpp_values = ", ".join(
        f"('{qid}', '{t.rsplit(' ', 1)[0]}', '{t.rsplit(' ', 1)[1]}')" for qid, t in MPP_QUERIES
    )
    near_values = ", ".join(f"('{qid}', '{ta}', '{tb}', {w})" for qid, ta, tb, w in NEAR_QUERIES)

    def _span_row(qid: str, text: str, slop: int) -> str:
        ts = text.split()
        t3 = f"'{ts[2]}'" if len(ts) == 3 else "NULL"
        return f"('{qid}', '{ts[0]}', '{ts[1]}', {t3}, {slop})"

    span_values = ", ".join(_span_row(*sq) for sq in SPAN_QUERIES)
    from splade_ray.pipelines.queries import SPAN_NOT_QUERIES

    span_not_values = ", ".join(
        f"('{qid}', '{t.split()[0]}', '{t.split()[1]}', '{excl}', {slop})"
        for qid, t, excl, slop in SPAN_NOT_QUERIES
    )
    from splade_ray.pipelines.queries import INTERVAL_QUERIES

    interval_values = ", ".join(_span_row(*iq) for iq in INTERVAL_QUERIES)
    perc_values = ", ".join(f"('{qid}', '{text}', '{kind}')" for qid, text, kind in PERC_QUERIES)
    from splade_ray.pipelines.queries import COMPLETION_PREFIXES, SPELL_TERMS, TERMVEC_DOC_IDS

    completion_values = ", ".join(f"('{sid}', '{p}')" for sid, p in COMPLETION_PREFIXES)
    spell_values = ", ".join(f"('{sid}', '{t}')" for sid, t in SPELL_TERMS)
    from splade_ray.pipelines.queries import PHRASE_SUGGEST_QUERIES
    from splade_ray.tokenizer import Tokenizer as _Tok

    _ptok = _Tok()
    phrase_suggest_values = ", ".join(
        f"('{sid}', {pos}, '{t}')"
        for sid, text in PHRASE_SUGGEST_QUERIES
        for pos, t in enumerate(_ptok.tokenize(text))
    )
    termvec_values = ", ".join(f"({i})" for i in TERMVEC_DOC_IDS)
    from splade_ray.pipelines.queries import ADJ_FILTERS

    adj_values = ", ".join(f"('{n}', '{t}', {m})" for n, t, m in ADJ_FILTERS)
    # shared CTE chain: tokenized corpus + BM25 ranking + conjunctive qrels
    bm25_ctes = f"""
WITH {_query_terms(bm25_values)}
{_corpus()}
{_BM25_STATS}
{_bm25_scores()}
{_ranked_cte()},
nq AS (SELECT query_id, count(DISTINCT term) AS n_terms FROM qterms GROUP BY query_id),
qrels AS (
  SELECT m.query_id, m.doc_id
  FROM (SELECT q.query_id, t.doc_id, count(DISTINCT q.term) AS matched
        FROM qterms q JOIN tf t ON t.term = q.term GROUP BY 1, 2) m
  JOIN nq ON nq.query_id = m.query_id
  WHERE m.matched = nq.n_terms
)"""
    bm25 = f"""{bm25_ctes}
{_top_rows()}
"""
    # neural (hash-expansion) retrieval: join doc tokens to the sidecar
    # model table, replay max-pool → per-doc top-k sparsify → f32 impact
    # storage → doc-only BoW scoring.  OOV query tokens still hash to an
    # identity tid (the sidecar includes the query tokens), matching the
    # engine's encode_query_bow.
    from splade_ray.pipelines.queries import NEURAL_DOCS_CFG, NEURAL_EXPANSION_SIDECAR

    neural_sql = f"""
WITH qset(query_id, qtext) AS (VALUES {bm25_values}),
exp AS (SELECT term, j, tid, weight FROM read_parquet('{NEURAL_EXPANSION_SIDECAR}')),
qtoks AS (SELECT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS t FROM qset),
qbow AS (
  SELECT q.query_id, e.tid, count(*)::DOUBLE AS qtf
  FROM qtoks q JOIN exp e ON e.term = q.t AND e.j = 0
  GROUP BY 1, 2
),
dtoks AS (SELECT DISTINCT doc_id, t FROM (SELECT doc_id, unnest({_DOC_TOKS}) AS t FROM documents)),
pooled AS (
  SELECT d.doc_id, e.tid, max(e.weight) AS w
  FROM dtoks d JOIN exp e ON e.term = d.t
  GROUP BY 1, 2
),
kept AS (
  SELECT doc_id, tid, w FROM (
    SELECT doc_id, tid, w,
           row_number() OVER (PARTITION BY doc_id ORDER BY w DESC, tid ASC) AS rn
    FROM pooled WHERE w > {NEURAL_DOCS_CFG.min_weight}
  ) WHERE rn <= {NEURAL_DOCS_CFG.doc_top_k}
),
scores AS (
  SELECT q.query_id, k.doc_id, sum(q.qtf * CAST(k.w AS REAL)) AS score
  FROM qbow q JOIN kept k ON k.tid = q.tid
  GROUP BY 1, 2
),
{_ranked_tail()}
"""
    # analyzed BM25: the light_en chain (stop filter BEFORE the ordered
    # stem-rule chain — both defined once in splade_ray.tokenizer and
    # replayed here verbatim) applied to docs and queries; df/dl/avgdl are
    # post-analysis, so scores differ from the standard index by design
    from splade_ray.pipelines.queries import ANALYZED_QUERIES
    from splade_ray.tokenizer import LIGHT_EN_RULES, STOP_WORDS

    def _stem_sql(expr: str) -> str:
        for pat, rep in LIGHT_EN_RULES:
            expr = f"regexp_replace({expr}, '{pat}', '{rep}')"
        return expr

    stop_sql = ", ".join(f"'{w}'" for w in sorted(STOP_WORDS))
    an_values = ", ".join(f"('{qid}', '{text}')" for qid, text in ANALYZED_QUERIES)
    analyzed = f"""
WITH qset(query_id, qtext) AS (VALUES {an_values}),
qraw AS (SELECT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS t FROM qset),
qterms AS (SELECT query_id, {_stem_sql('t')} AS term FROM qraw WHERE t NOT IN ({stop_sql})),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
raw AS (SELECT doc_id, unnest({_DOC_TOKS}) AS t FROM documents),
toks AS (SELECT doc_id, {_stem_sql('t')} AS term FROM raw WHERE t NOT IN ({stop_sql})),
{_TF_DL}
{_BM25_STATS}
{_bm25_scores()}
{_ranked_tail()}
"""
    boolean_and = f"""{bm25_ctes}
SELECT query_id, doc_id FROM qrels ORDER BY query_id, doc_id
"""
    # filtered retrieval: the SAME corpus-wide BM25 scores (stats are the
    # full corpus's — the filter restricts candidates, not statistics,
    # exactly like a Lucene filter clause), re-ranked over lang='en' docs
    bm25_filtered = f"""{bm25_ctes}
SELECT query_id, rank, doc_id, round(score, 6) AS score_r
FROM (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY round(s.score, 9) DESC, s.doc_id ASC) AS rank
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
  WHERE d.lang = 'en'
)
WHERE rank <= 10
"""
    # must_not: anti-join the excluded-term doc set out of the SAME scores
    # CTE (exclusion is non-scoring; survivors keep identical scores)
    from splade_ray.pipelines.queries import NOT_TERMS

    not_list = ", ".join(f"'{t}'" for t in NOT_TERMS)
    bm25_not = f"""{bm25_ctes}
SELECT query_id, rank, doc_id, round(score, 6) AS score_r
FROM (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY round(s.score, 9) DESC, s.doc_id ASC) AS rank
  FROM scores s
  WHERE s.doc_id NOT IN (SELECT DISTINCT doc_id FROM toks WHERE term IN ({not_list}))
)
WHERE rank <= 10
"""
    boolean_min = f"""{bm25_ctes}
SELECT m.query_id, m.doc_id
FROM (SELECT q.query_id, t.doc_id, count(DISTINCT q.term) AS matched
      FROM qterms q JOIN tf t ON t.term = q.term GROUP BY 1, 2) m
WHERE m.matched >= 2 ORDER BY query_id, doc_id
"""
    # hybrid sparse+dense fusion: BM25 top-20 + cosine top-20 (query i's
    # dense twin is embedding vec_id=i), RRF with the standard k0=60
    qmap_values = ", ".join(f"('{qid}', {i})" for i, (qid, _) in enumerate(BM25_QUERIES))
    # each BM25 query's dense twin (embedding vec_id = query ordinal) and its
    # cosine to every embedding — hybrid_topk and linear_fusion_topk
    dense_sim = f"""qmap(query_id, qvec_id) AS (VALUES {qmap_values}),
qv AS (SELECT m.query_id, CAST(e.embedding AS DOUBLE[]) AS qe
       FROM qmap m JOIN embeddings e ON e.vec_id = m.qvec_id),
dsim AS (SELECT q.query_id, e.vec_id AS doc_id,
                list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS cs
         FROM qv q CROSS JOIN embeddings e),"""
    hybrid = f"""{bm25_ctes},
sparse AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank <= 20),
{dense_sim}
dense AS (SELECT query_id, doc_id, rank FROM (
            SELECT query_id, doc_id,
                   row_number() OVER (PARTITION BY query_id ORDER BY round(cs, 9) DESC, doc_id ASC) AS rank
            FROM dsim) WHERE rank <= 20),
fused AS (SELECT query_id, doc_id, sum(1.0 / (60 + rank)) AS rrf
          FROM (SELECT * FROM sparse UNION ALL SELECT * FROM dense)
          GROUP BY query_id, doc_id),
franked AS (SELECT query_id, doc_id, rrf,
                   row_number() OVER (PARTITION BY query_id ORDER BY round(rrf, 9) DESC, doc_id ASC) AS rank
            FROM fused)
SELECT query_id, rank, doc_id, round(rrf, 6) AS rrf_r
FROM franked WHERE rank <= 10
"""
    # faceted counts: the disjunctive candidate set (>= 1 matched term)
    # aggregated per lang facet — the match-set aggregation, not top-k
    facets = f"""{bm25_ctes}
SELECT m.query_id, d.lang, count(*)::BIGINT AS n_docs
FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
JOIN documents d ON d.doc_id = m.doc_id
GROUP BY m.query_id, d.lang ORDER BY m.query_id, d.lang
"""
    # wildcard expansion: every vocab term with the prefix scores with unit
    # query weight and its OWN idf (expanded-OR / Lucene PrefixQuery)
    prefix_values = ", ".join(f"('{qid}', '{p}')" for qid, p in PREFIX_QUERIES)
    prefix_sql = f"""
WITH pset(query_id, prefix) AS (VALUES {prefix_values}),
{_corpus()}
{_BM25_STATS}
expand AS (SELECT p.query_id, d.term, d.df FROM pset p JOIN df d ON d.term LIKE p.prefix || '%'),
{_BM25_EXPAND_SCORES}
{_ranked_tail()}
"""
    # LM-Dirichlet (Zhai-Lafferty, Lucene LMDirichletSimilarity clamp):
    # per matched term qtf·max(0, ln(1 + tf·T/(mu·cf)) + ln(mu/(dl+mu))),
    # cf = collection frequency, T = total tokens, mu = 2000
    lm_sql = _similarity_sql(bm25_values, _LM_STATS, "cf", """sum(q.qtf * greatest(0.0,
             ln(1 + tf.tf * s.t_tokens / (2000.0 * cf.cf))
             + ln(2000.0 / (dl.dl + 2000.0))))""", clamp=True)
    # LM Jelinek-Mercer (Lucene LMJelinekMercerSimilarity, lambda=0.1):
    # per matched term qtf·ln(1 + (1-l)·tf·T/(l·cf·dl))
    jm_sql = _similarity_sql(
        bm25_values, _LM_STATS, "cf",
        "sum(q.qtf * ln(1 + 0.9 * tf.tf * s.t_tokens / (0.1 * cf.cf * dl.dl)))",
    )
    # Lucene ClassicSimilarity (pre-8 TF-IDF): per matched term
    # qtf·sqrt(tf)·(1+ln((N+1)/(df+1)))²/sqrt(dl) — exact 1/sqrt(dl)
    # length norm (the historical lossy byte norm is not the contract)
    classic_sql = _similarity_sql(bm25_values, """stats AS (SELECT (SELECT count(*) FROM dl)::DOUBLE AS n_docs),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),""", "df", """sum(q.qtf * sqrt(tf.tf)
             * pow(1 + ln((s.n_docs + 1) / (df.df + 1)), 2)
             / sqrt(dl.dl))""")
    dfr_sql = _similarity_sql(bm25_values, _BM25_STATS, "df", """sum(q.qtf
             * (tf.tf * log2(1 + s.avgdl / dl.dl))
             * log2((s.n_docs + 1) / (df.df + 0.5))
             / ((tf.tf * log2(1 + s.avgdl / dl.dl)) + 1))""")
    ib_sql = _similarity_sql(bm25_values, _BM25_STATS, "df", """sum(q.qtf * ln(1 + (tf.tf * log2(1 + s.avgdl / dl.dl))
                            * (s.n_docs + 1) / (df.df + 1)))""")
    # fuzzy expansion: every vocab term within classical Levenshtein
    # distance 1 scores with unit query weight and its OWN idf (expanded-OR
    # / Lucene FuzzyQuery) — DuckDB's levenshtein() replays the engine's
    # vectorized DP exactly (both are sub/ins/del, no transposition)
    fuzzy_values = ", ".join(f"('{qid}', '{t}')" for qid, t in FUZZY_QUERIES)
    fuzzy_sql = f"""
WITH fset(query_id, qterm) AS (VALUES {fuzzy_values}),
{_corpus()}
{_BM25_STATS}
expand AS (SELECT f.query_id, d.term, d.df FROM fset f JOIN df d ON levenshtein(d.term, f.qterm) <= 1),
{_BM25_EXPAND_SCORES}
{_ranked_tail()}
"""
    # disjunction-max (Lucene DisMax, tie_breaker = 0.3): per doc the MAX
    # single-term contribution qtf·bm25(t) plus 0.3 × the rest
    dismax_sql = f"""
WITH {_query_terms(bm25_values)}
{_corpus()}
{_BM25_STATS}
contrib AS (
  SELECT q.query_id, tf.doc_id,
         q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS c
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id, max(c) + 0.3 * (sum(c) - max(c)) AS score
  FROM contrib GROUP BY query_id, doc_id
),
{_ranked_tail()}
"""
    # SynonymQuery: per (query, group) the member tfs SUM before the BM25
    # saturation, idf = blend over the group's max df; group scores add
    from splade_ray.pipelines.queries import SYNONYM_QUERIES

    syn_values = ", ".join(
        f"('{qid}', {gid}, '{t}')"
        for qid, groups in SYNONYM_QUERIES
        for gid, terms in enumerate(groups)
        for t in terms
    )
    synonym_sql = f"""
WITH yset(query_id, gid, term) AS (VALUES {syn_values}),
{_corpus()}
{_BM25_STATS}
gdf AS (
  SELECT y.query_id, y.gid, max(df.df) AS dfb
  FROM yset y JOIN df ON df.term = y.term GROUP BY y.query_id, y.gid
),
gtf AS (
  SELECT y.query_id, y.gid, tf.doc_id, sum(tf.tf) AS tfb
  FROM yset y JOIN tf ON tf.term = y.term GROUP BY y.query_id, y.gid, tf.doc_id
),
scores AS (
  SELECT g.query_id, g.doc_id,
         sum(ln(1 + (s.n_docs - d.dfb + 0.5) / (d.dfb + 0.5))
             * g.tfb * 2.2 / (g.tfb + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM gtf g
  JOIN gdf d ON d.query_id = g.query_id AND d.gid = g.gid
  JOIN dl ON dl.doc_id = g.doc_id
  CROSS JOIN stats s
  GROUP BY g.query_id, g.doc_id
),
{_ranked_tail()}
"""
    # explain: per-term breakdown of each query's top-1 doc; OOV /
    # unmatched terms emit zero rows via the LEFT JOINs
    explain_sql = f"""{bm25_ctes},
top1 AS (SELECT query_id, doc_id FROM ranked WHERE rank = 1),
brk AS (
  SELECT q.query_id, t1.doc_id, q.term, CAST(q.qtf AS BIGINT) AS qtf,
         CAST(coalesce(tf.tf, 0) AS BIGINT) AS tf,
         CAST(coalesce(df.df, 0) AS BIGINT) AS df,
         CASE WHEN df.df IS NULL THEN 0.0
              ELSE ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) END AS idf,
         CASE WHEN tf.tf IS NULL THEN 0.0
              ELSE q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                   * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) END AS contrib
  FROM qtf q
  JOIN top1 t1 ON t1.query_id = q.query_id
  LEFT JOIN df ON df.term = q.term
  LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = t1.doc_id
  LEFT JOIN dl ON dl.doc_id = t1.doc_id
  CROSS JOIN stats s
)
SELECT query_id, doc_id, term, qtf, tf, df,
       round(idf, 6) AS idf_r, round(contrib, 6) AS contrib_r
FROM brk
"""
    # BM25 scores and each doc's rank rs within its (query, source) —
    # the election input of collapse_topk and diversified_topk
    per_source = f"""WITH {_query_terms(bm25_values)}
{_corpus()}
{_BM25_STATS}
{_bm25_scores()}
per_src AS (
  SELECT sc.query_id, d.source, sc.doc_id, sc.score,
         row_number() OVER (PARTITION BY sc.query_id, d.source
                            ORDER BY round(sc.score, 6) DESC, sc.doc_id ASC) AS rs
  FROM scores sc JOIN documents d ON d.doc_id = sc.doc_id
),"""
    # field collapsing: best BM25 hit per source, sources ranked by the
    # winner's (-score, doc_id), top 5 per query
    collapse_sql = f"""
{per_source}
ranked AS (
  SELECT query_id, source, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM per_src WHERE rs = 1
)
SELECT query_id, rank, source, doc_id, round(score, 6) AS score_r
FROM ranked WHERE rank <= 5
"""
    # diversified_sampler: per-source cap of 2 (rs <= 2), survivors ranked
    # globally — same match-score CTEs as collapse, different election
    diversified_sql = f"""
{per_source}
ranked AS (
  SELECT query_id, doc_id, source, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM per_src WHERE rs <= 2
)
SELECT query_id, rank, doc_id, source, round(score, 6) AS score_r
FROM ranked WHERE rank <= 10
"""
    # upsert lifecycle (pre-merge): stats frozen over originals ∪ revisions
    # (rowid disambiguates the two versions of an updated doc), candidates
    # restricted to live rows (revision replaces its stale original)
    upsert_sql = f"""
WITH {_query_terms(bm25_values)}
f AS (
  SELECT doc_id, text, doc_id * 2 AS rowid, (doc_id % 10 != 0) AS live FROM documents
  UNION ALL
  SELECT doc_id, text || ' update revision pass' AS text, doc_id * 2 + 1 AS rowid, TRUE AS live
  FROM documents WHERE doc_id % 10 = 0
),
toks AS (SELECT rowid, unnest({_DOC_TOKS}) AS term FROM f),
tf AS (SELECT rowid, term, count(*)::DOUBLE AS tf FROM toks GROUP BY rowid, term),
dl AS (SELECT rowid, count(*)::DOUBLE AS dl FROM toks GROUP BY rowid),
{_BM25_STATS}
scores AS (
  SELECT q.query_id, f.doc_id, tf.rowid,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.rowid = tf.rowid
  JOIN f ON f.rowid = tf.rowid AND f.live
  CROSS JOIN stats s
  GROUP BY q.query_id, f.doc_id, tf.rowid
),
{_ranked_tail(digits=6)}
"""
    # point-in-time: live view = upsert semantics at modulus 7 (union
    # corpus, stale tombstoned, frozen union stats); pit view = plain BM25
    # over the pre-mutation corpus — the pinned generation-1 commit point
    pit_sql = f"""
WITH {_query_terms(bm25_values)}
f AS (
  SELECT doc_id, text, doc_id * 2 AS rowid, (doc_id % 7 != 0) AS live FROM documents
  UNION ALL
  SELECT doc_id, text || ' point in time revision' AS text, doc_id * 2 + 1 AS rowid, TRUE AS live
  FROM documents WHERE doc_id % 7 = 0
),
ltoks AS (SELECT rowid, unnest({_DOC_TOKS}) AS term FROM f),
ltf AS (SELECT rowid, term, count(*)::DOUBLE AS tf FROM ltoks GROUP BY rowid, term),
ldl AS (SELECT rowid, count(*)::DOUBLE AS dl FROM ltoks GROUP BY rowid),
lstats AS (SELECT (SELECT count(*) FROM ldl)::DOUBLE AS n_docs, (SELECT avg(dl) FROM ldl) AS avgdl),
ldf AS (SELECT term, count(*)::DOUBLE AS df FROM ltf GROUP BY term),
lscores AS (
  SELECT q.query_id, f.doc_id, ltf.rowid,
         sum(q.qtf * ln(1 + (s.n_docs - ldf.df + 0.5) / (ldf.df + 0.5))
             * ltf.tf * 2.2 / (ltf.tf + 1.2 * (0.25 + 0.75 * ldl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN ltf ON ltf.term = q.term
  JOIN ldf ON ldf.term = q.term
  JOIN ldl ON ldl.rowid = ltf.rowid
  JOIN f ON f.rowid = ltf.rowid AND f.live
  CROSS JOIN lstats s
  GROUP BY q.query_id, f.doc_id, ltf.rowid
),
{_ranked_cte(6, "lscores", "lranked")},
{_corpus()}
{_BM25_STATS}
{_bm25_scores()}
{_ranked_cte(6)}
SELECT 'live' AS view, query_id, rank, doc_id, round(score, 6) AS score_r
FROM lranked WHERE rank <= 10
UNION ALL
SELECT 'pit' AS view, query_id, rank, doc_id, round(score, 6) AS score_r
FROM ranked WHERE rank <= 10
"""
    # rank-feature boost: matched docs gain 0.5*ln(1 + n_chars/1000)
    boosted_sql = f"""
WITH {_query_terms(bm25_values)}
{_corpus()}
{_BM25_STATS}
{_bm25_scores()}
boosted AS (
  SELECT sc.query_id, sc.doc_id,
         sc.score + 0.5 * ln(1 + d.n_chars / 1000.0) AS score
  FROM scores sc JOIN documents d ON d.doc_id = sc.doc_id
),
{_ranked_tail(src="boosted")}
"""
    # distance_feature / field_value_factor: same BM25 chain as boosted_sql,
    # only the doc-value modifier differs (additive reciprocal decay vs
    # multiplicative log1p) — expressions mirror the engine's float tree
    distance_feature_sql = boosted_sql.replace(
        "sc.score + 0.5 * ln(1 + d.n_chars / 1000.0) AS score",
        "sc.score + 1.0 * 100.0 / (100.0 + abs(d.n_chars - 300.0)) AS score",
    )
    fvf_sql = boosted_sql.replace(
        "sc.score + 0.5 * ln(1 + d.n_chars / 1000.0) AS score",
        "sc.score * (1.0 * ln(1 + d.n_chars / 100.0)) AS score",
    )
    assert distance_feature_sql != boosted_sql and fvf_sql != boosted_sql, (
        "boosted_sql modifier line drifted — derived oracles would silently "
        "replay the rank_feature boost"
    )
    # TermStatistics: df = distinct docs carrying the term, cf = total
    # occurrences; OOV terms report (0, 0) via the LEFT JOIN
    from splade_ray.pipelines.queries import STATS_TERMS

    stats_values = ", ".join(f"('{t}')" for t in STATS_TERMS)
    term_stats_sql = f"""
WITH tset(term) AS (VALUES {stats_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY doc_id, term),
agg AS (SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS cf FROM tf GROUP BY term)
SELECT t.term, coalesce(a.df, 0)::BIGINT AS df, coalesce(a.cf, 0)::BIGINT AS cf
FROM tset t LEFT JOIN agg a ON a.term = t.term
"""
    # sort-by-field: disjunctive match set ordered by token count DESC
    match_sorted_sql = f"""
WITH qset(query_id, qtext) AS (VALUES {bm25_values}),
qterms AS (
  SELECT DISTINCT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM qset
),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY doc_id),
matched AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM qterms q JOIN (SELECT DISTINCT doc_id, term FROM toks) t ON t.term = q.term
),
ranked AS (
  SELECT m.query_id, m.doc_id, dl.dl,
         row_number() OVER (PARTITION BY m.query_id ORDER BY dl.dl DESC, m.doc_id ASC) AS rank
  FROM matched m JOIN dl ON dl.doc_id = m.doc_id
)
SELECT query_id, rank, doc_id, dl FROM ranked WHERE rank <= 10
"""
    # regexp expansion: every vocab term FULLY matching the pattern scores
    # with unit query weight and its OWN idf (expanded-OR / Lucene
    # RegexpQuery) — DuckDB's RE2 regexp_full_match replays Python
    # re.fullmatch exactly on the shared pattern subset used here
    from splade_ray.pipelines.queries import REGEXP_QUERIES

    # broadcast/shuffle/bloom incremental dedup share ONE oracle by
    # construction (identical kept-set contract) — a single constant so a
    # future edit cannot desynchronize the modes
    incr_dedup_sql = """
WITH n AS (SELECT CAST(floor(count(*) * 0.8) AS BIGINT) AS cut FROM documents),
newb AS (SELECT doc_id, text FROM documents, n WHERE doc_id >= n.cut),
oldb AS (SELECT DISTINCT text FROM documents, n WHERE doc_id < n.cut),
cand AS (SELECT doc_id, text FROM newb WHERE text NOT IN (SELECT text FROM oldb))
SELECT min(doc_id) AS doc_id FROM cand GROUP BY text ORDER BY doc_id
"""
    regexp_values = ", ".join(f"('{qid}', '{p}')" for qid, p in REGEXP_QUERIES)
    # wildcard: the engine's glob translates mechanically to SQL LIKE
    # (* -> %, ? -> _) so the oracle pins the same term-match set
    from splade_ray.pipelines.queries import WILDCARD_QUERIES

    def _glob_to_like(p: str) -> str:
        # Lucene wildcard -> SQL LIKE: * -> %, ? -> _; literal %, _ and \
        # in the glob are escaped so LIKE (ESCAPE '\') treats them verbatim
        esc = p.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        return esc.replace("*", "%").replace("?", "_")

    wildcard_values = ", ".join(
        f"('{qid}', '{_glob_to_like(p)}')" for qid, p in WILDCARD_QUERIES
    )
    wildcard_sql = f"""
WITH wset(query_id, pat) AS (VALUES {wildcard_values}),
{_corpus()}
{_BM25_STATS}
expand AS (SELECT w.query_id, d.term, d.df FROM wset w JOIN df d ON d.term LIKE w.pat ESCAPE '\'),
{_BM25_EXPAND_SCORES}
{_ranked_tail()}
"""
    # boosting query: positive-clause BM25, multiplied by negative_boost on
    # docs matching any negative-clause term
    from splade_ray.pipelines.queries import BOOSTING_QUERIES

    boosting_values = ", ".join(
        f"('{qid}', '{p}', '{n}', {nb})" for qid, p, n, nb in BOOSTING_QUERIES
    )
    boosting_sql = f"""
WITH bset(query_id, ptext, ntext, nb) AS (VALUES {boosting_values}),
pterms AS (SELECT query_id, unnest({_TOK_SQL.format(col="ptext")}) AS term FROM bset),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM pterms GROUP BY query_id, term),
nterms AS (SELECT DISTINCT query_id, unnest({_TOK_SQL.format(col="ntext")}) AS term FROM bset),
{_corpus()}
{_BM25_STATS}
negdoc AS (SELECT DISTINCT n.query_id, tf.doc_id FROM nterms n JOIN tf ON tf.term = n.term),
{_bm25_scores("scores0")}
scores AS (
  SELECT s0.query_id, s0.doc_id,
         s0.score * CASE WHEN nd.doc_id IS NOT NULL THEN b.nb ELSE 1.0 END AS score
  FROM scores0 s0
  JOIN bset b ON b.query_id = s0.query_id
  LEFT JOIN negdoc nd ON nd.query_id = s0.query_id AND nd.doc_id = s0.doc_id
),
{_ranked_tail()}
"""
    # span_first: term at token position < end, single-term BM25 ranking
    from splade_ray.pipelines.queries import SPAN_FIRST_QUERIES

    span_first_values = ", ".join(
        f"('{qid}', '{t}', {e})" for qid, t, e in SPAN_FIRST_QUERIES
    )
    span_first_sql = f"""
WITH fset(query_id, term, pend) AS (VALUES {span_first_values}),
{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
fmatch AS (
  SELECT DISTINCT f.query_id, f.term, fl.doc_id
  FROM fset f JOIN flat fl ON fl.tok = f.term AND fl.i < f.pend
),
scores AS (
  SELECT m.query_id, m.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score
  FROM fmatch m
  JOIN tf ON tf.doc_id = m.doc_id AND tf.term = m.term
  JOIN df ON df.term = m.term
  JOIN dl ON dl.doc_id = m.doc_id
  CROSS JOIN stats s
),
{_ranked_tail()}
"""
    # terms_set: per-doc minimum = 1 + (n_chars mod 3); unit-weight
    # expanded-OR BM25 over the set terms the doc holds
    from splade_ray.pipelines.queries import TERMS_SET_QUERIES

    terms_set_values = ", ".join(
        f"('{qid}', '{t}')" for qid, terms in TERMS_SET_QUERIES for t in terms
    )
    terms_set_sql = f"""
WITH tset(query_id, term) AS (VALUES {terms_set_values}),
{_corpus()}
{_BM25_STATS}
matched AS (
  SELECT t.query_id, tf.doc_id, count(DISTINCT t.term) AS n_matched
  FROM tset t JOIN tf ON tf.term = t.term GROUP BY 1, 2
),
keep AS (
  SELECT m.query_id, m.doc_id
  FROM matched m JOIN documents d ON d.doc_id = m.doc_id
  WHERE m.n_matched >= 1 + d.n_chars % 3
),
scores AS (
  SELECT t.query_id, tf.doc_id,
         sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM tset t
  JOIN tf ON tf.term = t.term
  JOIN df ON df.term = t.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY t.query_id, tf.doc_id
),
ranked AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY round(s.score, 9) DESC, s.doc_id ASC) AS rank
  FROM scores s JOIN keep k ON k.query_id = s.query_id AND k.doc_id = s.doc_id
)
{_top_rows()}
"""
    regexp_sql = f"""
WITH xset(query_id, pat) AS (VALUES {regexp_values}),
{_corpus()}
{_BM25_STATS}
expand AS (SELECT x.query_id, d.term, d.df FROM xset x JOIN df d ON regexp_full_match(d.term, x.pat)),
{_BM25_EXPAND_SCORES}
{_ranked_tail()}
"""
    # more-like-this: the seed doc's 5 highest-tf·idf terms (term-asc tie
    # break — the engine's selection is the same deterministic window) run
    # as a unit-weight BM25 query; the seed doc itself is excluded
    from splade_ray.pipelines.queries import MLT_SEEDS

    mlt_values = ", ".join(f"('{qid}', {doc})" for qid, doc in MLT_SEEDS)
    mlt_sql = f"""
WITH mset(query_id, seed_doc) AS (VALUES {mlt_values}),
{_corpus()}
{_BM25_STATS}
sel AS (
  SELECT m.query_id, m.seed_doc, tf.term,
         row_number() OVER (PARTITION BY m.query_id
           ORDER BY tf.tf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) DESC, tf.term ASC) AS r
  FROM mset m JOIN tf ON tf.doc_id = m.seed_doc JOIN df ON df.term = tf.term CROSS JOIN stats s
),
q AS (SELECT query_id, seed_doc, term FROM sel WHERE r <= 5),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  WHERE tf.doc_id != q.seed_doc
  GROUP BY q.query_id, tf.doc_id
),
{_ranked_tail()}
"""
    # purge merge: segments + tombstones (every 9th doc) + purging merge
    # == BM25 recomputed from scratch over the SURVIVING corpus (df/N/
    # avgdl are the survivors' — the contrast to bm25_topk_deleted below)
    assert bm25_ctes.count("FROM documents)") == 1
    bm25_purged = (
        bm25_ctes.replace("FROM documents)", "FROM documents WHERE doc_id % 9 != 0)")
        + f"""
{_top_rows()}
"""
    )
    # tombstone deletes: the engine removes each query's unfiltered top-1
    # url; the oracle drops the SAME doc set from the scores CTE and
    # re-ranks — remaining scores identical (stats untouched by deletes)
    bm25_deleted = f"""{bm25_ctes}
, del AS (SELECT DISTINCT doc_id FROM ranked WHERE rank = 1),
{_ranked_tail(src="scores WHERE doc_id NOT IN (SELECT doc_id FROM del)", name="ranked2")}
"""
    # snippet extraction over the BM25 top-5: best 12-token window by
    # query-term occurrence positions, earliest start on ties
    snippets = f"""{bm25_ctes}
, topk AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank <= 5),
qdist AS (SELECT DISTINCT query_id, term FROM qterms),
dtoks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents WHERE doc_id IN (SELECT doc_id FROM topk)),
flat2 AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM dtoks),
wl AS (SELECT doc_id, len(l) AS n FROM dtoks),
starts AS (
  SELECT t.query_id, t.rank, t.doc_id, unnest(range(greatest(w.n - 12 + 1, 1))) AS s
  FROM topk t JOIN wl w USING (doc_id)
),
hits2 AS (
  SELECT q.query_id, f.doc_id, f.i
  FROM flat2 f JOIN qdist q ON q.term = f.tok
),
sc AS (
  SELECT st.query_id, st.rank, st.doc_id, st.s, count(h.i) AS n_hits
  FROM starts st
  LEFT JOIN hits2 h ON h.query_id = st.query_id AND h.doc_id = st.doc_id
                   AND h.i >= st.s AND h.i < st.s + 12
  GROUP BY 1, 2, 3, 4
),
best AS (
  SELECT *, row_number() OVER (PARTITION BY query_id, doc_id ORDER BY n_hits DESC, s ASC) AS rn
  FROM sc
)
SELECT b.query_id, b.rank, b.doc_id, b.s AS start_tok, CAST(b.n_hits AS BIGINT) AS n_hits,
       array_to_string(d.l[b.s + 1 : least(b.s + 12, len(d.l))], ' ') AS snippet
FROM best b JOIN dtoks d USING (doc_id)
WHERE b.rn = 1 ORDER BY b.query_id, b.rank
"""
    metrics_at10 = f"""{bm25_ctes}
, nrel AS (SELECT query_id, count(*) AS n_rel FROM qrels GROUP BY 1),
hits AS (
  SELECT r.query_id, r.rank, CASE WHEN q.doc_id IS NOT NULL THEN 1 ELSE 0 END AS rel
  FROM ranked r LEFT JOIN qrels q ON r.query_id = q.query_id AND r.doc_id = q.doc_id
  WHERE r.rank <= 10
),
per AS (
  SELECT query_id,
         max(CASE WHEN rel = 1 THEN 1.0 / rank ELSE 0 END) AS rr,
         sum(rel) AS n_hit,
         sum(rel / log2(rank + 1.0)) AS dcg
  FROM hits GROUP BY 1
),
idcg AS (
  SELECT query_id, sum(1.0 / log2(i + 1.0)) AS idcg
  FROM (SELECT query_id, unnest(range(1, least(n_rel, 10) + 1)) AS i FROM nrel)
  GROUP BY 1
)
SELECT p.query_id,
       round(p.rr, 6) AS rr_at_k,
       round(p.n_hit / n.n_rel, 6) AS recall_at_k,
       round(p.dcg / i.idcg, 6) AS ndcg_at_k
FROM per p JOIN nrel n USING (query_id) JOIN idcg i USING (query_id)
ORDER BY p.query_id
"""
    # per-doc curation signals (token count, distinct and stopword fractions,
    # longest same-token run) shared by curation_kept and curated_corpus
    curation_ctes = f"""WITH {_TOKEN_POSITIONS}
base AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT tok) AS nd,
         avg(CASE WHEN tok IN ('the','a','and','of','to','in','is','that','it','for','on','with','as','are','was','at','be','this','have') THEN 1.0 ELSE 0.0 END) AS sr
  FROM flat GROUP BY doc_id
),
runs AS (SELECT doc_id, tok, i - ROW_NUMBER() OVER (PARTITION BY doc_id, tok ORDER BY i) AS g FROM flat),
runc AS (SELECT doc_id, count(*) AS rl FROM runs GROUP BY doc_id, tok, g),
mr AS (SELECT doc_id, max(rl) AS max_run FROM runc GROUP BY doc_id),
sig AS (
  SELECT b.doc_id, b.n_tokens,
         (b.n_tokens - b.nd) / CAST(b.n_tokens AS DOUBLE) AS dup,
         b.sr, m.max_run
  FROM base b JOIN mr m USING (doc_id)
)"""
    # the curation thresholds over sig
    curation_keep = """FROM sig
WHERE n_tokens >= 25 AND dup <= 0.6 AND sr >= 0.02 AND sr <= 0.12 AND max_run <= 2
ORDER BY doc_id"""
    # each doc's distinct trigram shingles and pairwise shingle overlap —
    # minhash_pairs (Jaccard) and containment_pairs
    shingle_overlap = f"""WITH toks AS (
  SELECT doc_id, u.term, u.ord
  FROM (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
       LATERAL (SELECT unnest(l) AS term, generate_subscripts(l, 1) AS ord) u
),
sh AS (
  SELECT DISTINCT doc_id,
         term || chr(1) || lead(term, 1) OVER w || chr(1) || lead(term, 2) OVER w AS shingle
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
),
sh2 AS (SELECT doc_id, shingle FROM sh WHERE shingle IS NOT NULL),
sizes AS (SELECT doc_id, count(*) AS n FROM sh2 GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
  FROM sh2 a JOIN sh2 b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)"""
    # CCNet perplexity terciles: each doc's unigram cross entropy under the
    # corpus's own token counts, ppl_r, and its per-lang ntile(3) bucket b
    # (1 head, 2 middle, 3 tail) — ccnet_buckets and ccnet_corpus_kept
    ccnet_ctes = f"""WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
flat AS (SELECT doc_id, unnest(l) AS tok FROM toks),
cnt AS (SELECT tok, count(*)::DOUBLE AS c FROM flat GROUP BY tok),
tot AS (SELECT (SELECT count(*) FROM flat)::DOUBLE AS n),
agg AS (
  SELECT f.doc_id, avg(-ln(c.c / t.n)) AS ce
  FROM flat f JOIN cnt c USING (tok) CROSS JOIN tot t GROUP BY f.doc_id
),
pp AS (
  SELECT d.lang, d.doc_id, round(exp(coalesce(a.ce, 0)), 6) AS ppl_r
  FROM documents d LEFT JOIN agg a USING (doc_id)
),
nt AS (
  SELECT lang, doc_id, ppl_r,
         ntile(3) OVER (PARTITION BY lang ORDER BY ppl_r ASC, doc_id ASC) AS b
  FROM pp
)"""
    oracles = {
        "bm25_topk": bm25,
        "prefix_topk": prefix_sql,
        "fuzzy_topk": fuzzy_sql,
        "regexp_topk": regexp_sql,
        "wildcard_topk": wildcard_sql,
        "boosting_topk": boosting_sql,
        "span_first_topk": span_first_sql,
        "terms_set_topk": terms_set_sql,
        "dismax_topk": dismax_sql,
        "synonym_topk": synonym_sql,
        "explain_scores": explain_sql,
        # deterministic doc-id assignment makes the PHYSICAL layout itself
        # SQL-checkable: shard = doc_id // shard_size (2000, num_buckets=1)
        "index_segments": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
tfp AS (SELECT doc_id // 2000 AS shard, doc_id, term FROM toks GROUP BY 1, 2, 3),
agg AS (SELECT shard, count(*) AS nnz, count(DISTINCT term) AS n_terms FROM tfp GROUP BY shard),
base AS (SELECT doc_id // 2000 AS shard, count(*) AS n_docs FROM documents GROUP BY 1),
tok_tot AS (SELECT doc_id // 2000 AS shard, count(*) AS sum_dl FROM toks GROUP BY 1)
SELECT b.shard, b.n_docs::BIGINT AS n_docs,
       coalesce(a.n_terms, 0)::BIGINT AS n_terms,
       coalesce(a.nnz, 0)::BIGINT AS nnz,
       coalesce(t.sum_dl, 0)::BIGINT AS sum_dl
FROM base b LEFT JOIN agg a USING (shard) LEFT JOIN tok_tot t USING (shard)
""",
        "collapse_topk": collapse_sql,
        "diversified_topk": diversified_sql,
        "upsert_topk": upsert_sql,
        "pit_topk": pit_sql,
        "boosted_topk": boosted_sql,
        "distance_feature_topk": distance_feature_sql,
        "field_value_factor_topk": fvf_sql,
        "term_stats": term_stats_sql,
        "match_sorted_by_dl": match_sorted_sql,
        "boolean_min_match": boolean_min,
        "bm25_topk_filtered": bm25_filtered,
        "bm25_topk_not": bm25_not,
        "more_like_this": mlt_sql,
        "lm_topk": lm_sql,
        # rescore: bm25 window (rank<=30) LEFT JOIN the LM-Dirichlet score,
        # combined 1.0*bm25 + 0.5*lm, window re-ranked
        "rescore_lm_topk": f"""{bm25_ctes}
, win AS (SELECT query_id, doc_id, score FROM ranked WHERE rank <= 30),
lstats AS (SELECT (SELECT sum(dl) FROM dl) AS t_tokens),
lcf AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY term),
lms AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * greatest(0.0,
             ln(1 + tf.tf * s.t_tokens / (2000.0 * lcf.cf))
             + ln(2000.0 / (dl.dl + 2000.0)))) AS lm_score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN lcf ON lcf.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN lstats s
  GROUP BY q.query_id, tf.doc_id
),
comb AS (
  SELECT w.query_id, w.doc_id, w.score + 0.5 * coalesce(l.lm_score, 0.0) AS score
  FROM win w LEFT JOIN lms l ON l.query_id = w.query_id AND l.doc_id = w.doc_id
),
{_ranked_tail(src="comb", name="rankedr")}
""",
        "lm_jm_topk": jm_sql,
        "classic_topk": classic_sql,
        "dfr_topk": dfr_sql,
        "ib_ll_topk": ib_sql,
        "analyzed_topk": analyzed,
        # nested block-join: BM25 over the chunk corpus (chunk-level
        # df/dl/avgdl — the nested-document model), parent = max child,
        # winning child reported with (-score, chunk_idx) tie-break,
        # parents ranked by (-score, doc_id); chunking CTE identical to
        # the doc_chunks oracle (window 16, stride 12)
        "block_join_topk": f"""
WITH {_query_terms(bm25_values, compact=True)}
dtoks AS (SELECT doc_id, {_DOC_TOKS} AS ts FROM documents),
{_chunks("dtoks", "chunks")},
ctoks AS (SELECT doc_id, chunk_idx, unnest(ct) AS term FROM chunks),
tf AS (SELECT doc_id, chunk_idx, term, count(*)::DOUBLE AS tf FROM ctoks GROUP BY 1, 2, 3),
dl AS (SELECT doc_id, chunk_idx, count(*)::DOUBLE AS dl FROM ctoks GROUP BY 1, 2),
{_BM25_STATS}
cscores AS (
  SELECT q.query_id, tf.doc_id, tf.chunk_idx,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id AND dl.chunk_idx = tf.chunk_idx
  CROSS JOIN stats s
  GROUP BY 1, 2, 3
),
best AS (
  SELECT query_id, doc_id, chunk_idx, score,
         row_number() OVER (PARTITION BY query_id, doc_id ORDER BY round(score, 6) DESC, chunk_idx ASC) AS rc
  FROM cscores
),
parents AS (
  SELECT query_id, doc_id, chunk_idx, score,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM best WHERE rc = 1
)
SELECT query_id, rank, doc_id, chunk_idx, round(score, 6) AS score_r
FROM parents WHERE rank <= 10
""",
        # children agg: matching chunks (>= 1 query term) per parent lang
        "children_agg": f"""
WITH qset(query_id, qtext) AS (VALUES {bm25_values}),
qterms AS (SELECT DISTINCT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM qset),
dtoks AS (SELECT doc_id, {_DOC_TOKS} AS ts FROM documents),
{_chunks("dtoks", "chunks")},
ctoks AS (SELECT DISTINCT doc_id, chunk_idx, unnest(ct) AS term FROM chunks),
m AS (SELECT DISTINCT q.query_id, c.doc_id, c.chunk_idx
      FROM qterms q JOIN ctoks c ON c.term = q.term)
SELECT m.query_id, d.lang, count(*)::BIGINT AS n_chunks
FROM m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
""",
        "search_facets": facets,
        # histogram agg: floor(n_chars/200) buckets over the disjunctive
        # match set (>= 1 query term)
        "search_histogram": f"""{bm25_ctes}
SELECT m.query_id, (d.n_chars // 200) * 200 AS bucket_lo, count(*)::BIGINT AS n_docs
FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
""",
        # seeded random_score: md5('seed|doc_id')/2^64 uniform per match
        "random_topk": f"""{bm25_ctes}
SELECT query_id, rank, doc_id, round(score, 6) AS score_r
FROM (
  SELECT m.query_id, m.doc_id,
         CAST(md5_number_lower('rnd7|' || m.doc_id) AS DOUBLE) / 18446744073709551616.0 AS score,
         row_number() OVER (
           PARTITION BY m.query_id
           ORDER BY CAST(md5_number_lower('rnd7|' || m.doc_id) AS DOUBLE) / 18446744073709551616.0 DESC,
                    m.doc_id ASC) AS rank
  FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
)
WHERE rank <= 10
""",
        # ES terms-agg distributed approximation incl. its error-bound
        # contract, replayed exactly: shard = doc_id // 2000 (the
        # deterministic physical layout), per-shard top-5 by (df desc,
        # term asc), merged count = sum over reporting shards, error =
        # sum of non-reporting TRUNCATED shards' smallest returned count
        "terms_agg_shards": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
sdf AS (SELECT doc_id // 2000 AS sh, term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY 1, 2),
nterm AS (SELECT sh, count(*) AS n_terms FROM sdf GROUP BY sh),
tops AS (SELECT *, row_number() OVER (PARTITION BY sh ORDER BY df DESC, term ASC) AS rn FROM sdf),
rep AS (SELECT sh, term, df FROM tops WHERE rn <= {TERMS_AGG_SHARD_SIZE}),
smin AS (SELECT r.sh, min(r.df) AS mincnt, (n.n_terms > {TERMS_AGG_SHARD_SIZE}) AS truncated
         FROM rep r JOIN nterm n USING (sh) GROUP BY r.sh, n.n_terms),
cand AS (SELECT DISTINCT term FROM rep),
allsh AS (SELECT DISTINCT sh FROM sdf),
merged AS (
  SELECT c.term,
         sum(coalesce(r.df, 0))::BIGINT AS doc_count,
         sum(CASE WHEN r.term IS NULL AND s.truncated THEN s.mincnt ELSE 0 END)::BIGINT AS err_bound
  FROM cand c CROSS JOIN allsh a
  LEFT JOIN rep r ON r.sh = a.sh AND r.term = c.term
  JOIN smin s ON s.sh = a.sh
  GROUP BY c.term
),
ranked AS (SELECT *, row_number() OVER (ORDER BY doc_count DESC, term ASC) AS rk FROM merged)
SELECT term, doc_count, err_bound FROM ranked WHERE rk <= {TERMS_AGG_TOP} ORDER BY rk
""",
        # sampler agg: per-shard (doc_id // 2000) top-100 BM25 docs for
        # the fixed query, then per-lang count + avg(n_chars) over the
        # union sample — the ES sampler budget contract replayed exactly
        "sampler_agg": f"""
WITH qterms AS (
  SELECT unnest({_TOK_SQL.format(col="'stream order data'")}) AS term
),
qtf AS (SELECT term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY term),
{_corpus()}
{_BM25_STATS}
scores AS (
  SELECT tf.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
),
cut AS (
  SELECT doc_id FROM (
    SELECT doc_id,
           row_number() OVER (PARTITION BY doc_id // 2000
                              ORDER BY round(score, 9) DESC, doc_id ASC) AS r
    FROM scores
  ) WHERE r <= 100
)
SELECT d.lang, count(*)::BIGINT AS n_docs, round(avg(d.n_chars), 6) AS avg_chars_r
FROM cut c JOIN documents d ON d.doc_id = c.doc_id
GROUP BY d.lang ORDER BY d.lang
""",
        # rate agg: per-hour rates from calendar-day buckets (24 units
        # per bucket; ES converts to the unit, no extrapolation)
        "rate_agg": """
WITH b AS (
  SELECT date_trunc('day', ts) AS day_ts,
         count(*)::BIGINT AS n_events, sum(value) AS s
  FROM events GROUP BY 1
)
SELECT day_ts, n_events,
       round(n_events::DOUBLE / 24, 6) AS count_per_hour_r,
       round(s / 24, 6) AS value_per_hour_r
FROM b ORDER BY day_ts
""",
        # index sorting: matched docs in (n_chars DESC, doc_id ASC) order,
        # first 10 — what the early-terminated walk returns
        "sorted_index_topk": f"""{bm25_ctes}
SELECT query_id, rank, doc_id, n_chars
FROM (
  SELECT m.query_id, m.doc_id, d.n_chars,
         row_number() OVER (PARTITION BY m.query_id ORDER BY d.n_chars DESC, m.doc_id ASC) AS rank
  FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
  JOIN documents d ON d.doc_id = m.doc_id
)
WHERE rank <= 10
""",
        # exact cardinality: distinct source values per match set
        "search_cardinality": f"""{bm25_ctes}
SELECT m.query_id, count(DISTINCT d.source)::BIGINT AS n_sources
FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1 ORDER BY 1
""",
        # exact percentile_ranks: % of matched docs with n_chars <= value
        "percentile_ranks": f"""{bm25_ctes}
SELECT query_id, value, round(pct, 6) AS pct FROM (
  SELECT m.query_id, v.value,
         100.0 * sum(CASE WHEN d.n_chars <= v.value THEN 1 ELSE 0 END) / count(*) AS pct
  FROM (SELECT DISTINCT q.query_id, t.doc_id FROM qterms q JOIN tf t ON t.term = q.term) m
  JOIN documents d ON d.doc_id = m.doc_id
  CROSS JOIN (VALUES (500), (1000), (1500)) v(value)
  GROUP BY 1, 2
) ORDER BY query_id, value
""",
        # incremental dedup: new batch (last 20% of ids) kept iff text is
        # unseen in the existing 80% and it is the min-id holder within
        # the batch
        "incremental_dedup_kept": incr_dedup_sql,
        "incremental_dedup_bloom": incr_dedup_sql,
        # full ingestion loop: BM25 over existing(80%) ∪ dedup-kept new(20%)
        # — same dedup election CTE as incremental_dedup_kept, then the
        # standard BM25 CTEs over the union corpus
        "incremental_ingest_topk": f"""
WITH n AS (SELECT CAST(floor(count(*) * 0.8) AS BIGINT) AS cut FROM documents),
newb AS (SELECT doc_id, text FROM documents, n WHERE doc_id >= n.cut),
oldb AS (SELECT doc_id, text FROM documents, n WHERE doc_id < n.cut),
cand AS (SELECT doc_id, text FROM newb WHERE text NOT IN (SELECT text FROM oldb)),
keptn AS (SELECT min(doc_id) AS doc_id FROM cand GROUP BY text),
corpus AS (
  SELECT doc_id, text FROM oldb
  UNION ALL
  SELECT d.doc_id, d.text FROM documents d JOIN keptn k ON k.doc_id = d.doc_id
),
{_query_terms(bm25_values, compact=True)}
{_corpus("corpus")}
{_BM25_STATS}
{_bm25_scores()}
{_ranked_tail()}
""",
        # composite agg paging: page = zero-based bucket ordinal / page size
        # in (lang, source) composite-key order — identical to the engine's
        # repeated after-key cursor application
        "composite_buckets": f"""
SELECT (row_number() OVER (ORDER BY lang, source) - 1) // {COMPOSITE_PAGE_SIZE} AS page,
       lang, source, count(*)::BIGINT AS n_docs
FROM documents GROUP BY lang, source ORDER BY lang, source
""",
        # date_histogram + trailing 3-day moving mean on a gap-free axis
        "events_moving_avg": """
WITH c AS (SELECT CAST(date_trunc('day', ts) AS DATE) AS day, count(*)::BIGINT AS n FROM events GROUP BY 1),
axis AS (
  SELECT CAST(unnest(generate_series(CAST((SELECT min(day) FROM c) AS TIMESTAMP),
                                     CAST((SELECT max(day) FROM c) AS TIMESTAMP),
                                     INTERVAL 1 DAY)) AS DATE) AS day
),
series AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n_events FROM axis a LEFT JOIN c USING (day))
SELECT CAST(day AS TIMESTAMP) AS day, n_events,
       round(avg(n_events) OVER (ORDER BY day ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS mavg3
FROM series ORDER BY day
""",
        # matrix stats: population moments; corr is scale-invariant so the
        # sample/population distinction cancels
        "matrix_stats": """
WITH b AS (SELECT event_type, value AS x, extract(hour FROM ts)::DOUBLE AS y FROM events)
SELECT event_type, count(*)::BIGINT AS n,
       round(avg(x), 6) AS mean_value, round(var_pop(x), 6) AS var_value,
       round(avg(y), 6) AS mean_hour, round(var_pop(y), 6) AS var_hour,
       round(covar_pop(x, y), 6) AS cov_vh, round(corr(x, y), 6) AS corr_vh
FROM b GROUP BY event_type ORDER BY event_type
""",
        "hybrid_topk": hybrid,
        # page 2 == the full ranking's rank 11..20 window
        "bm25_topk_page2": f"""{bm25_ctes}
SELECT query_id, rank, doc_id, round(score, 6) AS score_r
FROM ranked WHERE rank > 10 AND rank <= 20
""",
        "search_snippets": snippets,
        # the sharded serving path (actor-held shards + k-bounded text
        # fetches) must reproduce the identical snippet output
        "search_snippets_sharded": snippets,
        "bm25_topk_deleted": bm25_deleted,
        "bm25_topk_merged_purged": bm25_purged,
        # the term-major salted build must reproduce the same ranking
        "bm25_topk_termindex": bm25,
        # so must the hashed-vocab build (same df/idf per term)
        "bm25_topk_hashed": bm25,
        # merged segments must reproduce the single-build BM25 ranking
        "segment_merge_topk": bm25,
        "bm25_topk_federated": bm25,
        # restored-from-snapshot serving and replicated-failover serving
        # must both be rank-identical to the live single-index oracle
        "snapshot_restore_topk": bm25,
        "bm25_topk_replicated": bm25,
        # custom routing: BM25 with SHARD-LOCAL stats — n_docs/avgdl/df all
        # recomputed over the routing value's sub-corpus alone
        "routing_topk": f"""
WITH rset(query_id, qtext, src) AS (VALUES {routing_values}),
qterms AS (
  SELECT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM rset
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
toks AS (
  SELECT d.doc_id, d.source, unnest({_DOC_TOKS.replace("text", "d.text")}) AS term
  FROM documents d WHERE d.source IN (SELECT DISTINCT src FROM rset)
),
tf AS (SELECT doc_id, source, term, count(*)::DOUBLE AS tf FROM toks GROUP BY doc_id, source, term),
dl AS (SELECT doc_id, source, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id, source),
stats AS (SELECT source, count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl GROUP BY source),
df AS (SELECT source, term, count(*)::DOUBLE AS df FROM tf GROUP BY source, term),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM rset r
  JOIN qtf q ON q.query_id = r.query_id
  JOIN tf ON tf.term = q.term AND tf.source = r.src
  JOIN df ON df.term = q.term AND df.source = r.src
  JOIN dl ON dl.doc_id = tf.doc_id AND dl.source = r.src
  JOIN stats s ON s.source = r.src
  GROUP BY q.query_id, tf.doc_id
),
{_ranked_tail()}
""",
        # SPLADE-style hash-expansion retrieval: the deterministic model's
        # token-level expansion table (term, j, tid, weight) is a sidecar
        # written by the query (j=0 = identity dim); the oracle replays
        # max-pool per (doc, tid), per-doc top-k sparsify (weight DESC,
        # tid ASC ties), f32 impact storage (CAST AS REAL) and doc-only
        # BoW scoring Σ qtf·w relationally
        "neural_topk": neural_sql,
        # exact-phrase retrieval: same BM25 scoring restricted to docs whose
        # space-joined token stream contains the normalized phrase (tokens
        # are [a-z0-9]+, so single-space joining is collision-free)
        "phrase_topk": f"""
WITH pset(query_id, qtext) AS (VALUES {phrase_values}),
pnorm AS (
  SELECT query_id, ' ' || array_to_string({_TOK_SQL.format(col="qtext")}, ' ') || ' ' AS pat FROM pset
),
qterms AS (SELECT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM pset),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{_corpus(lists=True)}
{_BM25_STATS}
pmatch AS (
  SELECT p.query_id, j.doc_id
  FROM pnorm p JOIN (SELECT doc_id, ' ' || array_to_string(l, ' ') || ' ' AS s FROM toksl) j
    ON position(p.pat IN j.s) > 0
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}
""",
        # proximity retrieval: self-join of the positioned token table on
        # |i - j| <= w, then the shared BM25 CTE chain restricted to matches
        "near_topk": f"""
WITH nset(query_id, ta, tb, w) AS (VALUES {near_values}),
qterms AS (SELECT query_id, ta AS term FROM nset UNION ALL SELECT query_id, tb FROM nset),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT n.query_id, f1.doc_id
  FROM nset n
  JOIN flat f1 ON f1.tok = n.ta
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = n.tb AND abs(f1.i - f2.i) <= n.w
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}
""",
        # term vectors: per-doc tf for the fixed doc set + global df
        "doc_term_vectors": f"""
WITH ids(doc_id) AS (VALUES {termvec_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY term)
SELECT t.doc_id, t.term, t.tf, d.df
FROM tf t JOIN ids i ON i.doc_id = t.doc_id JOIN df d ON d.term = t.term
ORDER BY 1, 2
""",
        # gauss decay: the BM25 scores CTE times the same closed-form
        # exp(-(n_chars-origin)^2 / (2*sigma^2)) factor, re-ranked
        "decay_topk": f"""{bm25_ctes}
, dec AS (
  SELECT s.query_id, s.doc_id,
         s.score * exp(-pow(d.n_chars - 1000.0, 2) / (2.0 * (500.0 * 500.0 / (2.0 * ln(2.0))))) AS score
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
),
{_ranked_tail(src="dec", name="rankedd")}
""",
        # top_hits(3) under a lang terms agg over the scored match set
        "top_hits_by_lang": f"""{bm25_ctes}
, hits AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY round(s.score, 9) DESC, s.doc_id ASC) AS rank
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
)
SELECT query_id, lang, rank, doc_id, round(score, 6) AS score_r
FROM hits WHERE rank <= 3 ORDER BY 1, 2, 3
""",
        # adjacency matrix: distinct (filter, doc) matches self-joined on
        # doc, count per ordered name pair (diagonal = per-filter counts)
        "adjacency_matrix": f"""
WITH fset(name, qtext, m) AS (VALUES {adj_values}),
fterms AS (
  SELECT DISTINCT name, m, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM fset
),
dtoks AS (SELECT DISTINCT doc_id, term FROM (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents)),
fm AS (
  SELECT f.name, t.doc_id
  FROM fterms f JOIN dtoks t ON t.term = f.term
  GROUP BY f.name, f.m, t.doc_id
  HAVING count(*) >= f.m
)
SELECT a.name AS name_a, b.name AS name_b, count(*)::BIGINT AS n_docs
FROM fm a JOIN fm b ON b.doc_id = a.doc_id AND b.name >= a.name
GROUP BY 1, 2 ORDER BY 1, 2
""",
        # exact percentiles: quantile_disc over the same column
        "price_percentiles": """
WITH agg AS (
  SELECT quantile_disc(l_extendedprice, [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]) AS vals
  FROM lineitem
)
SELECT unnest([0.01, 0.25, 0.5, 0.75, 0.9, 0.99]) AS q, unnest(vals)::DOUBLE AS value
FROM agg ORDER BY q
""",
        # completion suggester: LIKE-prefix over the tokenized dictionary,
        # ranked by total term frequency (cf) then term
        "suggest_completion": f"""
WITH cset(sid, prefix) AS (VALUES {completion_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
vocab AS (SELECT term, count(*)::BIGINT AS cf, count(DISTINCT doc_id)::BIGINT AS df
          FROM toks GROUP BY term),
hits AS (
  SELECT c.sid, v.term, v.cf, v.df,
         row_number() OVER (PARTITION BY c.sid ORDER BY v.cf DESC, v.term ASC) AS rnk
  FROM cset c JOIN vocab v ON v.term LIKE c.prefix || '%'
)
SELECT sid, rnk AS rank, term, cf, df FROM hits WHERE rnk <= 10 ORDER BY 1, 2
""",
        # term suggester: levenshtein<=2 over the dictionary, exact term
        # excluded, (distance, -df, term) ranking
        # phrase / did-you-mean: per-position best correction (or self)
        "suggest_phrase": f"""
WITH pset(sid, pos, tok) AS (VALUES {phrase_suggest_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
vocab AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY term),
best AS (
  SELECT p.sid, p.pos, v.term, levenshtein(v.term, p.tok)::BIGINT AS dist, v.df,
         row_number() OVER (
           PARTITION BY p.sid, p.pos
           ORDER BY levenshtein(v.term, p.tok) ASC, v.df DESC, v.term ASC) AS rnk
  FROM pset p JOIN vocab v
    ON levenshtein(v.term, p.tok) <= 2 AND v.term <> p.tok
  WHERE p.tok NOT IN (SELECT term FROM vocab)
),
invocab AS (SELECT p.sid, p.pos, p.tok AS sug, CAST(0 AS BIGINT) AS dist, v.df
            FROM pset p JOIN vocab v ON v.term = p.tok)
SELECT p.sid, p.pos, p.tok AS token,
       coalesce(i.sug, b.term, p.tok) AS suggestion,
       coalesce(i.dist, b.dist, -1)::BIGINT AS dist,
       coalesce(i.df, b.df, 0)::BIGINT AS df
FROM pset p
LEFT JOIN invocab i USING (sid, pos)
LEFT JOIN (SELECT * FROM best WHERE rnk = 1) b USING (sid, pos)
ORDER BY sid, pos
""",
        "suggest_spelling": f"""
WITH sset(sid, qterm) AS (VALUES {spell_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
vocab AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY term),
hits AS (
  SELECT s.sid, v.term, levenshtein(v.term, s.qterm)::BIGINT AS dist, v.df,
         row_number() OVER (
           PARTITION BY s.sid
           ORDER BY levenshtein(v.term, s.qterm) ASC, v.df DESC, v.term ASC) AS rnk
  FROM sset s JOIN vocab v
    ON levenshtein(v.term, s.qterm) <= 2 AND v.term <> s.qterm
)
SELECT sid, rnk AS rank, term, dist, df FROM hits WHERE rnk <= 10 ORDER BY 1, 2
""",
        # percolation: distinct doc/query term membership join, conjunction
        # requires every distinct query term, disjunction at least one
        "percolate_matches": f"""
WITH pset(query_id, qtext, kind) AS (VALUES {perc_values}),
qterms AS (
  SELECT DISTINCT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM pset
),
nq AS (SELECT query_id, count(*) AS n FROM qterms GROUP BY query_id),
dt AS (SELECT DISTINCT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
m AS (
  SELECT q.query_id, d.doc_id, count(*) AS c
  FROM qterms q JOIN dt d ON d.term = q.term
  GROUP BY q.query_id, d.doc_id
)
SELECT m.query_id, m.doc_id
FROM m JOIN nq ON nq.query_id = m.query_id JOIN pset p ON p.query_id = m.query_id
WHERE (p.kind = 'all' AND m.c = nq.n) OR (p.kind = 'any' AND m.c >= 1)
ORDER BY 1, 2
""",
        # significant terms: top-50 BM25 docs per query as the foreground
        # sample, per-term distinct-doc counts vs global df, JLH score
        "significant_terms": f"""{bm25_ctes}
, topdocs AS (SELECT query_id, doc_id FROM ranked WHERE rank <= 50),
fgn AS (SELECT query_id, count(*)::DOUBLE AS n_fg FROM topdocs GROUP BY query_id),
fg AS (
  SELECT t.query_id, x.term, count(DISTINCT x.doc_id)::DOUBLE AS fg_df
  FROM topdocs t JOIN toks x ON x.doc_id = t.doc_id
  GROUP BY t.query_id, x.term
),
sig AS (
  SELECT f.query_id, f.term, f.fg_df, d.df AS bg_df,
         (f.fg_df / n.n_fg - d.df / s.n_docs) * (f.fg_df / n.n_fg) / (d.df / s.n_docs) AS jlh
  FROM fg f
  JOIN df d ON d.term = f.term
  JOIN fgn n ON n.query_id = f.query_id
  CROSS JOIN stats s
),
rankedt AS (
  SELECT query_id, term, fg_df, bg_df, jlh,
         row_number() OVER (PARTITION BY query_id ORDER BY jlh DESC, term ASC) AS trank
  FROM sig WHERE jlh > 0
)
SELECT query_id, trank AS rank, term, fg_df::BIGINT AS fg_df, bg_df::BIGINT AS bg_df,
       round(jlh, 6) AS jlh_r
FROM rankedt WHERE trank <= 10
""",
        # rare terms: foreground term presence in the top-50 sample, global
        # df filter at floor(n_docs/5), (df, term) ranking
        "rare_terms": f"""{bm25_ctes}
, topdocs AS (SELECT query_id, doc_id FROM ranked WHERE rank <= 50),
fg AS (
  SELECT t.query_id, x.term, count(DISTINCT x.doc_id)::BIGINT AS fg_df
  FROM topdocs t JOIN toks x ON x.doc_id = t.doc_id
  GROUP BY t.query_id, x.term
),
rt AS (
  SELECT f.query_id, f.term, d.df::BIGINT AS bg_df, f.fg_df,
         row_number() OVER (PARTITION BY f.query_id ORDER BY d.df ASC, f.term ASC) AS trank
  FROM fg f JOIN df d ON d.term = f.term CROSS JOIN stats s
  WHERE d.df <= floor(s.n_docs / 5)
)
SELECT query_id, trank AS rank, term, bg_df, fg_df FROM rt WHERE trank <= 10
""",
        # ordered span-near: brute-force in-order position joins (any
        # (p1<p2[<p3]) combo with span-(m-1) <= slop), then the shared BM25
        # CTE chain restricted to matches — the engine's chain DP must agree
        # match_phrase_prefix: expansion = first 50 prefix terms in term
        # order (row_number over distinct corpus tokens == the engine's
        # sorted-vocab slice); match = head then expansion adjacent;
        # score = head-term BM25 bag
        # track_total_hits: disjunctive match count capped at the
        # threshold, relation gte iff the true count strictly exceeds it
        "total_hits": f"""
WITH qset(query_id, qtext) AS (VALUES {bm25_values}),
qterms AS (SELECT DISTINCT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM qset),
toks AS (SELECT DISTINCT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
n AS (SELECT q.query_id, count(DISTINCT t.doc_id) AS cnt
      FROM qterms q JOIN toks t ON t.term = q.term GROUP BY q.query_id)
SELECT s.query_id,
       CAST(least(coalesce(n.cnt, 0), 200) AS BIGINT) AS value,
       CASE WHEN coalesce(n.cnt, 0) > 200 THEN 'gte' ELSE 'eq' END AS relation
FROM (SELECT DISTINCT query_id FROM qset) s LEFT JOIN n USING (query_id)
ORDER BY s.query_id
""",
        # match_bool_prefix: head tokens are independent should BM25
        # clauses (qtf-weighted), the trailing token a constant-score
        # prefix (+1.0 to any doc holding a term LIKE 'pre%'); prefix-only
        # docs still match (FULL join of the two clause sets)
        "bool_prefix_topk": f"""
WITH pset(query_id, head, pre) AS (VALUES {mpp_values}),
hterms AS (
  SELECT query_id, unnest({_TOK_SQL.format(col="head")}) AS term FROM pset
),
hq AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM hterms GROUP BY query_id, term),
{_corpus()}
{_BM25_STATS}
bm AS (
  SELECT h.query_id, tf.doc_id,
         sum(h.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM hq h
  JOIN tf ON tf.term = h.term
  JOIN df ON df.term = h.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY h.query_id, tf.doc_id
),
pdocs AS (
  SELECT DISTINCT p.query_id, t.doc_id FROM pset p JOIN toks t ON t.term LIKE p.pre || '%'
),
m AS (
  SELECT coalesce(b.query_id, pd.query_id) AS query_id,
         coalesce(b.doc_id, pd.doc_id) AS doc_id,
         coalesce(b.score, 0.0) + (CASE WHEN pd.doc_id IS NOT NULL THEN 1.0 ELSE 0.0 END) AS score
  FROM bm b FULL JOIN pdocs pd ON pd.query_id = b.query_id AND pd.doc_id = b.doc_id
),
{_ranked_cte(src="m")}
SELECT query_id, rank, doc_id, round(score, 6) AS score_r FROM ranked WHERE rank <= 10
""",
        # pinned query: the two pinned ids occupy ranks 1-2 in the GIVEN
        # order with synthetic score 0; organic BM25 (pinned ids excluded)
        # fills ranks 3..10
        "pinned_topk": bm25_ctes.replace("WHERE rank <= 10", "").replace(
            "ranked AS (",
            """org AS (SELECT query_id, doc_id, score FROM scores
       WHERE doc_id NOT IN (7, 3)),
ranked AS (""",
        ).replace("FROM scores\n),", "FROM org\n),")
        + """
SELECT * FROM (
  SELECT p.query_id, p.rank, p.doc_id, 1 AS pinned, 0.0 AS score_r
  FROM (SELECT query_id, 1 AS rank, 7 AS doc_id FROM qset
        UNION ALL SELECT query_id, 2, 3 FROM qset) p
  UNION ALL
  SELECT query_id, rank + 2 AS rank, doc_id, 0 AS pinned, round(score, 6) AS score_r
  FROM ranked WHERE rank <= 8
) ORDER BY query_id, rank
""",
        "phrase_prefix_topk": f"""
WITH pset(query_id, head, pre) AS (VALUES {mpp_values}),
toksl AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
toks AS (SELECT doc_id, unnest(l) AS term FROM toksl),
vocab AS (SELECT DISTINCT term FROM toks),
exp AS (
  SELECT query_id, term FROM (
    SELECT p.query_id, v.term,
           row_number() OVER (PARTITION BY p.query_id ORDER BY v.term) AS rn
    FROM pset p JOIN vocab v ON v.term LIKE p.pre || '%'
  ) WHERE rn <= 50
),
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT p.query_id, f1.doc_id
  FROM pset p
  JOIN flat f1 ON f1.tok = p.head
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.i = f1.i + 1
  JOIN exp e ON e.query_id = p.query_id AND e.term = f2.tok
),
{_TF_DL}
{_BM25_STATS}
scores AS (
  SELECT m.query_id, m.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score
  FROM pmatch m
  JOIN pset p ON p.query_id = m.query_id
  JOIN tf ON tf.doc_id = m.doc_id AND tf.term = p.head
  JOIN df ON df.term = p.head
  JOIN dl ON dl.doc_id = m.doc_id
  CROSS JOIN stats s
),
{_ranked_tail(sep=" ")}
""",
        # query_string composition: clause table from the engine's parser;
        # per-clause conjunctive term match (+ phrase substring verify over
        # the joined token string), must/should/must_not election,
        # boost-weighted clause-score sum
        "query_string_topk": f"""
WITH cl(query_id, cid, role, boost, is_phrase, ctext) AS (VALUES {qs_values}),
ctf AS (
  SELECT query_id, cid, term, count(*)::DOUBLE AS qtf
  FROM (SELECT query_id, cid, unnest({_TOK_SQL.format(col="ctext")}) AS term FROM cl)
  GROUP BY query_id, cid, term
),
cmeta AS (
  SELECT c.query_id, c.cid, c.role, c.boost,
         (SELECT count(*) FROM ctf t WHERE t.query_id = c.query_id AND t.cid = c.cid) AS n_terms
  FROM cl c
),
{_corpus(lists=True)}
{_BM25_STATS}
cscore AS (
  SELECT c.query_id, c.cid, tf.doc_id,
         sum(c.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score,
         count(DISTINCT tf.term) AS hit_terms
  FROM ctf c
  JOIN tf ON tf.term = c.term
  JOIN df ON df.term = c.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY c.query_id, c.cid, tf.doc_id
),
pnorm AS (
  SELECT query_id, cid, ' ' || array_to_string({_TOK_SQL.format(col="ctext")}, ' ') || ' ' AS pat
  FROM cl WHERE is_phrase
),
docstr AS (SELECT doc_id, ' ' || array_to_string(l, ' ') || ' ' AS s FROM toksl),
cmatch AS (
  SELECT sc.query_id, sc.cid, sc.doc_id, sc.score
  FROM cscore sc
  JOIN cmeta m ON m.query_id = sc.query_id AND m.cid = sc.cid
  LEFT JOIN pnorm p ON p.query_id = sc.query_id AND p.cid = sc.cid
  LEFT JOIN docstr j ON p.pat IS NOT NULL AND j.doc_id = sc.doc_id
  WHERE sc.hit_terms = m.n_terms AND (p.pat IS NULL OR position(p.pat IN j.s) > 0)
),
qmeta AS (SELECT query_id, count(*) FILTER (WHERE role = 'must') AS n_must FROM cl GROUP BY query_id),
agg AS (
  SELECT c.query_id, c.doc_id,
         sum(CASE WHEN m.role = 'must' THEN 1 ELSE 0 END) AS mh,
         sum(CASE WHEN m.role = 'should' THEN 1 ELSE 0 END) AS sh,
         sum(CASE WHEN m.role = 'not' THEN 1 ELSE 0 END) AS nh,
         sum(CASE WHEN m.role <> 'not' THEN m.boost * c.score ELSE 0 END) AS score
  FROM cmatch c JOIN cmeta m ON m.query_id = c.query_id AND m.cid = c.cid
  GROUP BY c.query_id, c.doc_id
),
ranked AS (
  SELECT a.query_id, a.doc_id, a.score,
         row_number() OVER (PARTITION BY a.query_id ORDER BY round(a.score, 9) DESC, a.doc_id ASC) AS rank
  FROM agg a JOIN qmeta q ON q.query_id = a.query_id
  WHERE a.nh = 0 AND ((q.n_must > 0 AND a.mh = q.n_must) OR (q.n_must = 0 AND a.sh > 0))
)
SELECT query_id, rank, doc_id, round(score, 6) AS score_r FROM ranked WHERE rank <= 10
""",
        "span_near_topk": f"""
WITH sset(query_id, t1, t2, t3, slop) AS (VALUES {span_values}),
qterms AS (
  SELECT query_id, t1 AS term FROM sset
  UNION ALL SELECT query_id, t2 FROM sset
  UNION ALL SELECT query_id, t3 FROM sset WHERE t3 IS NOT NULL
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM sset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2 AND f2.i > f1.i
  WHERE s.t3 IS NULL AND f2.i - f1.i - 1 <= s.slop
  UNION
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM sset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2 AND f2.i > f1.i
  JOIN flat f3 ON f3.doc_id = f2.doc_id AND f3.tok = s.t3 AND f3.i > f2.i
  WHERE s.t3 IS NOT NULL AND f3.i - f1.i - 2 <= s.slop
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}
""",
        # span-not: an ordered 2-term span within slop whose position range
        # holds no exclude-term occurrence; BM25 bag over include terms
        "span_not_topk": f"""
WITH sset(query_id, t1, t2, excl, slop) AS (VALUES {span_not_values}),
qterms AS (
  SELECT query_id, t1 AS term FROM sset
  UNION ALL SELECT query_id, t2 FROM sset
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM sset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2 AND f2.i > f1.i
  WHERE f2.i - f1.i - 1 <= s.slop
    AND NOT EXISTS (
      SELECT 1 FROM flat fe
      WHERE fe.doc_id = f1.doc_id AND fe.tok = s.excl AND fe.i BETWEEN f1.i AND f2.i
    )
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}
""",
        # intervals all_of(ordered=false, max_gaps): any-order window with
        # greatest(i..) - least(i..) + 1 - m <= g; BM25 bag over matches
        "intervals_topk": f"""
WITH iset(query_id, t1, t2, t3, g) AS (VALUES {interval_values}),
qterms AS (
  SELECT query_id, t1 AS term FROM iset
  UNION ALL SELECT query_id, t2 FROM iset
  UNION ALL SELECT query_id, t3 FROM iset WHERE t3 IS NOT NULL
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM iset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2
  WHERE s.t3 IS NULL
    AND greatest(f1.i, f2.i) - least(f1.i, f2.i) - 1 <= s.g
  UNION
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM iset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2
  JOIN flat f3 ON f3.doc_id = f2.doc_id AND f3.tok = s.t3
  WHERE s.t3 IS NOT NULL
    AND greatest(f1.i, f2.i, f3.i) - least(f1.i, f2.i, f3.i) - 2 <= s.g
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}
""",
        "boolean_and_match": boolean_and,
        "retrieval_metrics_at10": metrics_at10,
        "rerank_overlap": f"""{bm25_ctes}
, cand AS (SELECT query_id, doc_id, score FROM ranked WHERE rank <= 10),
ov AS (
  SELECT c.query_id, c.doc_id, c.score,
         count(DISTINCT CASE WHEN t.doc_id IS NOT NULL THEN q.term END) AS overlap
  FROM cand c
  JOIN qterms q ON q.query_id = c.query_id
  LEFT JOIN tf t ON t.term = q.term AND t.doc_id = c.doc_id
  GROUP BY c.query_id, c.doc_id, c.score
),
rr AS (
  SELECT query_id, doc_id, overlap,
         row_number() OVER (PARTITION BY query_id ORDER BY overlap DESC, round(score, 9) DESC, doc_id) AS rerank
  FROM ov
)
SELECT query_id, rerank, doc_id, overlap FROM rr ORDER BY query_id, rerank
""",
        # teacher-score pair scoring: idf-weighted query-term coverage of
        # each BM25 top-10 candidate, normalized to [0, 1]
        "pair_scores": f"""{bm25_ctes}
, cand AS (SELECT query_id, doc_id FROM ranked WHERE rank <= 10),
num AS (
  SELECT c.query_id, c.doc_id,
         sum(CASE WHEN t.doc_id IS NOT NULL
                  THEN q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) ELSE 0 END) AS num
  FROM cand c
  JOIN qtf q ON q.query_id = c.query_id
  JOIN df ON df.term = q.term
  CROSS JOIN stats s
  LEFT JOIN tf t ON t.term = q.term AND t.doc_id = c.doc_id
  GROUP BY 1, 2
),
den AS (
  SELECT q.query_id, sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS den
  FROM qtf q JOIN df ON df.term = q.term CROSS JOIN stats s GROUP BY 1
)
SELECT n.query_id, n.doc_id, round(n.num / d.den, 6) AS teacher_score
FROM num n JOIN den d USING (query_id) ORDER BY query_id, doc_id
""",
        # S3 sample window: rows [100, 150) in doc_id order
        "doc_window": """
SELECT doc_id, n_chars FROM documents ORDER BY doc_id OFFSET 100 LIMIT 50
""",
        "hard_negatives": f"""{bm25_ctes}
, cand AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank <= 30),
neg AS (
  SELECT c.query_id, c.doc_id, c.rank FROM cand c
  WHERE NOT EXISTS (SELECT 1 FROM qrels q WHERE q.query_id = c.query_id AND q.doc_id = c.doc_id)
),
rn AS (
  SELECT query_id, doc_id, row_number() OVER (PARTITION BY query_id ORDER BY rank) AS neg_rank
  FROM neg
)
SELECT query_id, neg_rank, doc_id FROM rn WHERE neg_rank <= 10 ORDER BY query_id, neg_rank
""",
        "running_stats": """
SELECT lang, count(*) AS n_docs, round(avg(n_chars), 6) AS mean_chars,
       round(stddev_pop(n_chars), 6) AS std_chars,
       min(n_chars) AS min_chars, max(n_chars) AS max_chars
FROM documents GROUP BY lang ORDER BY lang
""",
        "deterministic_sample": """
SELECT doc_id FROM documents
WHERE (doc_id * 2654435761) % 4294967296 < 429496729
ORDER BY doc_id
""",
        # per-lang rates in permille must stay in lockstep with
        # queries.STRATA_PERMILLE (pure integer comparison — exact replay)
        "stratified_sample": """
SELECT doc_id, lang FROM documents
WHERE (doc_id * 2246822519) % 4294967296 * 1000 < 4294967296 *
      CASE lang WHEN 'en' THEN 100 WHEN 'de' THEN 300 WHEN 'es' THEN 300
                WHEN 'fr' THEN 500 WHEN 'zh' THEN 200 ELSE 0 END
ORDER BY doc_id
""",
        "langs_by_source": """
WITH pairs AS (SELECT DISTINCT source, lang FROM documents),
l AS (SELECT source, string_agg(lang, ',' ORDER BY lang) AS langs FROM pairs GROUP BY source),
c AS (SELECT source, count(*) AS n_docs FROM documents GROUP BY source)
SELECT l.source, l.langs, c.n_docs FROM l JOIN c USING (source) ORDER BY source
""",
        "events_sliding": """
WITH rep AS (
  SELECT date_trunc('hour', ts) - INTERVAL (off) HOUR AS window_start, event_type, value
  FROM events, (SELECT unnest([0, 1, 2]) AS off)
)
SELECT window_start, event_type, count(*) AS n_events, round(sum(value), 6) AS sum_value
FROM rep GROUP BY 1, 2 ORDER BY 1, 2
""",
        # backward as-of join, deterministic tie-break (ts desc, id desc)
        # spelled out with row_number instead of ASOF JOIN so equal-ts
        # semantics are pinned
        "events_asof": """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
j AS (
  SELECT p.event_id, p.user_id, c.event_id AS click_event_id,
         CAST(date_diff('microsecond', c.ts, p.ts) AS BIGINT) AS gap_us,
         row_number() OVER (PARTITION BY p.event_id ORDER BY c.ts DESC, c.event_id DESC) AS rn
  FROM p JOIN c ON c.user_id = p.user_id AND c.ts <= p.ts
)
SELECT event_id, user_id, click_event_id, gap_us FROM j WHERE rn = 1 ORDER BY event_id
""",
        # forward as-of: earliest click at/after the purchase, min-id ties
        "events_asof_fwd": """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
j AS (
  SELECT p.event_id, p.user_id, c.event_id AS click_event_id,
         CAST(date_diff('microsecond', p.ts, c.ts) AS BIGINT) AS gap_us,
         row_number() OVER (PARTITION BY p.event_id ORDER BY c.ts ASC, c.event_id ASC) AS rn
  FROM p JOIN c ON c.user_id = p.user_id AND c.ts >= p.ts
)
SELECT event_id, user_id, click_event_id, gap_us FROM j WHERE rn = 1 ORDER BY event_id
""",
        # trailing-window range join (counting form): clicks in the
        # half-open hour (p.ts - 1h, p.ts] before each purchase; LEFT
        # semantics (count 0 kept)
        "events_range_count": """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT p.event_id, p.user_id, count(c.user_id) AS n_clicks_1h
FROM p LEFT JOIN c
  ON c.user_id = p.user_id AND c.ts > p.ts - INTERVAL 1 HOUR AND c.ts <= p.ts
GROUP BY p.event_id, p.user_id ORDER BY p.event_id
""",
        "event_sessions": """
WITH o AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT user_id, min(ts) AS session_start, count(*) AS n_events, round(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, sid ORDER BY user_id, session_start
""",
        "term_df_top100": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
SELECT term, df FROM df ORDER BY df DESC, term LIMIT 100
""",
        "token_counts": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
cnt AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id)
SELECT d.doc_id, coalesce(c.n, 0) AS n_tokens
FROM documents d LEFT JOIN cnt c USING (doc_id) ORDER BY d.doc_id
""",
        "quality_scores": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS tok FROM documents),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         avg(length(tok)) AS mtl,
         avg(CASE WHEN tok IN ('the','a','and','of','to','in','is','that','it','for','on','with','as','are','was','at','be','this','have') THEN 1.0 ELSE 0.0 END) AS sr
  FROM toks GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       round(coalesce(a.mtl, 0), 6) AS mean_token_len,
       round(coalesce(a.sr, 0), 6) AS stopword_ratio
FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id
""",
        "doc_stats_by_lang": """
SELECT lang, count(*) AS n_docs, round(avg(n_chars), 6) AS avg_chars
FROM documents GROUP BY lang ORDER BY lang
""",
        "lang_source_counts": """
SELECT lang, source, count(*) AS n_docs FROM documents GROUP BY lang, source ORDER BY lang, source
""",
        "top_docs_by_chars": """
SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id ASC LIMIT 20
""",
        # grouped top-k (window-rank family)
        "top_docs_per_lang": """
WITH r AS (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rank
  FROM documents
)
SELECT lang, rank, doc_id, n_chars FROM r WHERE rank <= 3 ORDER BY lang, rank
""",
        # weighted_avg: integer lang weights, one exact double division
        "weighted_avg_chars": """
SELECT source,
       round(sum(n_chars * w) / sum(w), 6) AS wavg_chars,
       sum(w)::BIGINT AS w_sum
FROM (SELECT source, n_chars,
             CASE lang WHEN 'en' THEN 1 WHEN 'de' THEN 2 WHEN 'es' THEN 2
                       WHEN 'fr' THEN 3 WHEN 'zh' THEN 5 ELSE 0 END AS w
      FROM documents)
GROUP BY source ORDER BY source
""",
        # string_stats: length stats + Shannon entropy of the character
        # distribution (base 2) over the whole text field
        "string_stats_text": """
WITH chars AS (
  SELECT unnest(string_split(text, '')) AS c FROM documents WHERE length(text) > 0
),
freq AS (SELECT c, count(*)::DOUBLE AS n FROM chars GROUP BY c),
tot AS (SELECT sum(n) AS t FROM freq),
lens AS (
  SELECT count(*)::BIGINT AS count, min(length(text))::BIGINT AS min_length,
         max(length(text))::BIGINT AS max_length,
         round(sum(length(text))::DOUBLE / count(*), 6) AS avg_length
  FROM documents
)
SELECT l.count, l.min_length, l.max_length, l.avg_length,
       round((SELECT -sum(n / t.t * log2(n / t.t)) FROM freq, tot t), 6) AS entropy
FROM lens l
""",
        # multi_terms: top composite buckets by doc_count (ties lang, source)
        "multi_terms_counts": """
SELECT lang, source, count(*)::BIGINT AS doc_count,
       round(sum(n_chars)::DOUBLE / count(*), 6) AS avg_chars
FROM documents GROUP BY lang, source
ORDER BY doc_count DESC, lang, source LIMIT 10
""",
        # boxplot (exact, percentile_disc rank = max(1, ceil(q*n)) — spelled
        # out with explicit row_number ranks, immune to quantile_disc
        # rounding semantics)
        "boxplot_chars": """
WITH r AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rk,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
)
SELECT lang,
       max(CASE WHEN rk = 1 THEN n_chars END)::BIGINT AS min_chars,
       max(CASE WHEN rk = greatest(1, ceil(0.25 * n)) THEN n_chars END)::BIGINT AS q1_chars,
       max(CASE WHEN rk = greatest(1, ceil(0.5 * n)) THEN n_chars END)::BIGINT AS median_chars,
       max(CASE WHEN rk = greatest(1, ceil(0.75 * n)) THEN n_chars END)::BIGINT AS q3_chars,
       max(CASE WHEN rk = n THEN n_chars END)::BIGINT AS max_chars
FROM r GROUP BY lang ORDER BY lang
""",
        # median_absolute_deviation (exact): disc-median of |x - disc-median|
        "mad_chars": """
WITH r AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rk,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
),
med AS (
  SELECT lang, max(CASE WHEN rk = greatest(1, ceil(0.5 * n)) THEN n_chars END)::BIGINT AS med
  FROM r GROUP BY lang
),
dev AS (
  SELECT d.lang, abs(d.n_chars - m.med) AS dv
  FROM documents d JOIN med m USING (lang)
),
r2 AS (
  SELECT lang, dv,
         row_number() OVER (PARTITION BY lang ORDER BY dv) AS rk,
         count(*) OVER (PARTITION BY lang) AS n
  FROM dev
)
SELECT r2.lang, any_value(m.med) AS median_chars,
       max(CASE WHEN rk = greatest(1, ceil(0.5 * n)) THEN dv END)::BIGINT AS mad_chars
FROM r2 JOIN med m ON m.lang = r2.lang
GROUP BY r2.lang ORDER BY r2.lang
""",
        # top_metrics agg: per-bucket metric of the max-sort-key doc
        "top_metrics_by_lang": """
SELECT lang, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY doc_id DESC) AS rn
  FROM documents
) WHERE rn = 1 ORDER BY lang
""",
        # extended_stats agg: population variance/std + ±2σ bounds
        "extended_stats_chars": """
SELECT lang, count(*)::BIGINT AS n_docs, min(n_chars)::BIGINT AS min_chars,
       max(n_chars)::BIGINT AS max_chars, sum(n_chars)::BIGINT AS sum_chars,
       round(avg(n_chars), 6) AS avg_chars_r,
       sum(n_chars * n_chars)::BIGINT AS sos_chars,
       round(var_pop(n_chars), 6) AS var_r,
       round(stddev_pop(n_chars), 6) AS std_r,
       round(avg(n_chars) - 2 * stddev_pop(n_chars), 6) AS std_lower_r,
       round(avg(n_chars) + 2 * stddev_pop(n_chars), 6) AS std_upper_r
FROM documents GROUP BY lang ORDER BY lang
""",
        # cumulative_sum + serial_diff(1) + normalize(percent_of_sum)
        # pipeline aggs on one gap-free date_histogram series
        "events_daily_pipeline": f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n FROM axis a LEFT JOIN c USING (day))
SELECT CAST(day AS TIMESTAMP) AS day, n AS n_events,
       sum(n) OVER (ORDER BY day)::BIGINT AS cum_n,
       coalesce(n - lag(n) OVER (ORDER BY day), 0)::BIGINT AS diff_n,
       round(100.0 * n / (SELECT sum(n) FROM s), 6) AS pct_r
FROM s ORDER BY day
""",
        # range agg over n_chars: [0,200), [200,400), [400,*)
        "range_chars_agg": """
WITH b AS (
  SELECT CASE WHEN n_chars < 200 THEN '0-200'
              WHEN n_chars < 400 THEN '200-400'
              ELSE '400-*' END AS bucket, n_chars
  FROM documents
)
SELECT bucket, count(*)::BIGINT AS n_docs, round(avg(n_chars), 6) AS avg_chars_r
FROM b GROUP BY bucket ORDER BY bucket
""",
        # filters agg: three named (overlapping) filters
        "filters_agg_events": """
SELECT 'big' AS name, count(*)::BIGINT AS n_events, round(avg(value), 6) AS avg_value_r
FROM events WHERE value >= 50
UNION ALL
SELECT 'clicks', count(*)::BIGINT, round(avg(value), 6) FROM events WHERE event_type = 'click'
UNION ALL
SELECT 'errors', count(*)::BIGINT, round(avg(value), 6) FROM events WHERE event_type = 'error'
ORDER BY name
""",
        # auto_date_histogram: smallest ladder interval with <= 12
        # epoch-floored buckets over the data span
        "auto_date_histogram": f"""
WITH b AS (SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi FROM events),
iv AS (
  SELECT CASE
    {" ".join(f"WHEN hi // ({s}::BIGINT * 1000000) - lo // ({s}::BIGINT * 1000000) + 1 <= 12 THEN {s}" for s in [60, 300, 1800, 3600, 10800, 43200, 86400])}
    ELSE 604800 END AS sec
  FROM b
)
SELECT make_timestamp((epoch_us(ts) // (iv.sec::BIGINT * 1000000)) * iv.sec::BIGINT * 1000000) AS bucket_ts,
       iv.sec::BIGINT AS interval_sec, count(*)::BIGINT AS n_events
FROM events, iv GROUP BY 1, 2 ORDER BY 1
""",
        # crawl-URL canonicalization + per-host rollup: the oracle
        # synthesizes the same messy URLs and replays the normalize chain
        # (lowercase scheme/host, default-port drop, trailing-slash strip,
        # utm_* param removal, fragment drop) in DuckDB's RE2
        "host_agg": """
WITH u AS (
  SELECT doc_id, n_chars,
    (CASE WHEN doc_id % 2 = 0 THEN 'https' ELSE 'http' END) || '://' ||
    (CASE WHEN doc_id % 3 = 0 THEN upper(source) || '.Example.COM'
          ELSE source || '.example.com' END) ||
    (CASE WHEN doc_id % 2 = 0 AND doc_id % 5 = 0 THEN ':443'
          WHEN doc_id % 2 = 1 AND doc_id % 7 = 0 THEN ':80' ELSE '' END) ||
    '/p/' || doc_id || (CASE WHEN doc_id % 4 = 0 THEN '/' ELSE '' END) ||
    (CASE WHEN doc_id % 6 = 0 THEN '?utm_source=feed&id=' || (doc_id % 10)
          WHEN doc_id % 6 = 3 THEN '?id=' || (doc_id % 10) || '&utm_medium=rss'
          ELSE '' END) ||
    (CASE WHEN doc_id % 9 = 0 THEN '#ref' ELSE '' END) AS url
  FROM documents
),
p AS (
  SELECT doc_id, n_chars, url,
    lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
    lower(regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1)) AS host,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]+:([0-9]+)', 1) AS port,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+([^?#]*)', 1) AS path,
    regexp_extract(url, '\\?([^#]*)', 1) AS query
  FROM u
),
n AS (
  SELECT doc_id, n_chars, url, host,
    scheme || '://' || host ||
    (CASE WHEN port = '' OR (scheme = 'http' AND port = '80')
               OR (scheme = 'https' AND port = '443') THEN ''
          ELSE ':' || port END) ||
    (CASE WHEN path = '' THEN '/' ELSE regexp_replace(path, '(.)/$', '\\1') END) ||
    (CASE WHEN q2 = '' THEN '' ELSE '?' || q2 END) AS norm_url
  FROM (SELECT *, regexp_replace(regexp_replace('&' || query, '&utm_[^&]*', '', 'g'),
                                 '^&', '') AS q2 FROM p)
)
SELECT host, count(*)::BIGINT AS n_docs,
       sum(CASE WHEN url <> norm_url THEN 1 ELSE 0 END)::BIGINT AS n_changed,
       round(avg(n_chars), 6) AS avg_chars_r
FROM n GROUP BY host ORDER BY host
""",
        # reindex with a script transform: BM25 over the DESTINATION
        # corpus (en docs truncated to their first 25 tokens) — stats are
        # the transformed corpus's own
        "reindex_topk": f"""
WITH {_query_terms(bm25_values)}
toksl AS (SELECT doc_id, list_slice({_DOC_TOKS}, 1, 25) AS l FROM documents WHERE lang = 'en'),
toks AS (SELECT doc_id, unnest(l) AS term FROM toksl),
{_TF_DL}
{_BM25_STATS}
{_bm25_scores()}
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score_r,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM scores
)
SELECT query_id, rank, doc_id, score_r
FROM ranked WHERE rank <= 10
""",
        # geotile_grid at zoom 3: the synthesized 0.5-degree lattice keeps
        # every point far from tile boundaries, so float64 trig agrees
        "geotile_grid": """
WITH g AS (
  SELECT event_id, value,
         -60.0 + (event_id % 120) + 0.5 AS lat,
         -180.0 + ((event_id * 7) % 360) + 0.5 AS lon
  FROM events
),
tl AS (
  SELECT CAST(floor((lon + 180.0) / 360.0 * 8) AS BIGINT) AS xtile,
         CAST(floor((1.0 - ln(tan(radians(lat)) + 1.0 / cos(radians(lat))) / pi()) / 2.0 * 8) AS BIGINT) AS ytile,
         value
  FROM g
)
SELECT xtile, ytile, count(*)::BIGINT AS n_events, round(avg(value), 6) AS avg_value_r
FROM tl GROUP BY xtile, ytile ORDER BY xtile, ytile
""",
        # geo_distance rings: haversine (R=6371 km) from (48.5, 2.5)
        "geo_distance_ranges": """
WITH g AS (
  SELECT radians(-60.0 + (event_id % 120) + 0.5) AS rlat,
         radians(-180.0 + ((event_id * 7) % 360) + 0.5) AS rlon
  FROM events
),
d AS (
  SELECT 2.0 * 6371.0 * asin(sqrt(
           sin((rlat - radians(48.5)) / 2.0) * sin((rlat - radians(48.5)) / 2.0)
           + cos(radians(48.5)) * cos(rlat)
             * sin((rlon - radians(2.5)) / 2.0) * sin((rlon - radians(2.5)) / 2.0)
         )) AS km
  FROM g
)
SELECT CASE WHEN km < 1000 THEN '0-1000' WHEN km < 3000 THEN '1000-3000'
            WHEN km < 8000 THEN '3000-8000' ELSE '8000-*' END AS bucket,
       count(*)::BIGINT AS n_events
FROM d GROUP BY 1 ORDER BY 1
""",
        # scripted_metric: the free-form map/combine/reduce slot
        "scripted_metric_agg": """
SELECT lang, sum((n_chars % 7) * 2 + (doc_id % 3))::BIGINT AS metric
FROM documents GROUP BY lang ORDER BY lang
""",
        # bucket_sort: page 2 (from=5, size=5) of the terms(source) series
        # sorted by the ROUNDED avg metric (both sides sort post-rounding)
        "bucket_sort_page": """
WITH g AS (SELECT source, count(*)::BIGINT AS n_docs, round(avg(n_chars), 6) AS avg_chars_r
           FROM documents GROUP BY source),
r AS (SELECT *, row_number() OVER (ORDER BY avg_chars_r DESC, source ASC) AS rk FROM g)
SELECT source, n_docs, avg_chars_r FROM r WHERE rk BETWEEN 6 AND 10 ORDER BY rk
""",
        # moving_percentiles: trailing 7-bucket linear-interp median
        "moving_percentiles_daily": f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::DOUBLE AS n FROM axis a LEFT JOIN c USING (day))
SELECT CAST(day AS TIMESTAMP) AS day,
       round(quantile_cont(n, 0.5) OVER (ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6) AS p50_r
FROM s ORDER BY day
""",
        # stopword discovery: df/N > 0.30 terms, (df DESC, term ASC)
        "stopword_discovery": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
dft AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents)
SELECT term, df, round(df / n.n, 6) AS df_frac_r
FROM dft, n WHERE df / n.n > 0.30 ORDER BY df DESC, term ASC
""",
        # PageRank: 3 unrolled power iterations (kmeans discipline), the
        # same deterministic link fixture, top-50 on rounded ranks
        "link_pagerank": f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
{_link_edges()}
e AS (SELECT src, dst FROM e0 WHERE src <> dst),
od AS (SELECT src, count(*)::DOUBLE AS d FROM e GROUP BY src),
r0 AS (SELECT doc_id, 1.0 / (SELECT n FROM nn) AS pr FROM documents),
c1 AS (SELECT e.dst, sum(r0.pr / od.d) AS s FROM e JOIN r0 ON r0.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r1 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c1.s, 0) AS pr FROM documents d LEFT JOIN c1 ON c1.dst = d.doc_id),
c2 AS (SELECT e.dst, sum(r1.pr / od.d) AS s FROM e JOIN r1 ON r1.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r2 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c2.s, 0) AS pr FROM documents d LEFT JOIN c2 ON c2.dst = d.doc_id),
c3 AS (SELECT e.dst, sum(r2.pr / od.d) AS s FROM e JOIN r2 ON r2.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r3 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c3.s, 0) AS pr FROM documents d LEFT JOIN c3 ON c3.dst = d.doc_id),
rk AS (SELECT doc_id, pr, row_number() OVER (ORDER BY round(pr, 6) DESC, doc_id ASC) AS rn FROM r3)
SELECT doc_id, round(pr, 6) AS pr_r FROM rk WHERE rn <= 50 ORDER BY doc_id
""",
        # data-stream time pruning: BM25 recomputed over exactly the docs
        # whose day index (doc_id*5//N) falls in the selected [1,3) window
        "datastream_topk": f"""
WITH {_query_terms(bm25_values)}
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
sel AS (SELECT doc_id, text FROM documents, nn WHERE doc_id * 5 // nn.n >= 1 AND doc_id * 5 // nn.n < 3),
toks AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')) AS term FROM sel),
{_TF_DL}
{_BM25_STATS}
{_bm25_scores()}
{_ranked_tail()}
""",
        # t_test agg (welch, unpaired): all lang pairs
        "ttest_langs": """
WITH g AS (SELECT lang, count(*)::DOUBLE AS n, avg(n_chars) AS m, var_samp(n_chars) AS v
           FROM documents GROUP BY lang)
SELECT a.lang AS lang_a, b.lang AS lang_b,
       round((a.m - b.m) / sqrt(a.v / a.n + b.v / b.n), 6) AS t_r
FROM g a JOIN g b ON a.lang < b.lang
ORDER BY lang_a, lang_b
""",
        # avg_bucket + bucket_selector + max_bucket pipeline aggs over
        # a terms(lang)/avg(n_chars) bucket series
        "bucket_pipeline_stats": """
WITH g AS (SELECT lang, count(*)::BIGINT AS doc_count, avg(n_chars) AS a FROM documents GROUP BY lang),
ov AS (SELECT avg(a) AS overall FROM g),
mx AS (SELECT lang FROM g ORDER BY a DESC, lang ASC LIMIT 1)
SELECT g.lang, g.doc_count, round(g.a, 6) AS avg_chars_r,
       g.a > (SELECT overall FROM ov) AS selected,
       g.lang = (SELECT lang FROM mx) AS is_max
FROM g ORDER BY g.lang
""",
        # cumulative_cardinality (exact): first-seen users per day,
        # cumulative distinct count, gap-free axis
        "cumulative_cardinality_users": f"""
WITH f AS (SELECT user_id, min(CAST(date_trunc('day', ts) AS DATE)) AS day FROM events GROUP BY user_id),
c AS (SELECT day, count(*)::BIGINT AS nu FROM f GROUP BY day),
b AS (SELECT CAST(min(date_trunc('day', ts)) AS DATE) AS lo,
             CAST(max(date_trunc('day', ts)) AS DATE) AS hi FROM events),
{_DAY_AXIS}
series AS (SELECT a.day, coalesce(c.nu, 0)::BIGINT AS new_users FROM axis a LEFT JOIN c USING (day))
SELECT CAST(day AS TIMESTAMP) AS day, new_users,
       sum(new_users) OVER (ORDER BY day)::BIGINT AS cum_users
FROM series ORDER BY day
""",
        # date_histogram + derivative (ES emits none for the first bucket)
        "events_histogram_derivative": """
WITH c AS (SELECT CAST(date_trunc('day', ts) AS DATE) AS day, count(*)::BIGINT AS n FROM events GROUP BY 1),
axis AS (
  SELECT CAST(unnest(generate_series(CAST((SELECT min(day) FROM c) AS TIMESTAMP),
                                     CAST((SELECT max(day) FROM c) AS TIMESTAMP),
                                     INTERVAL 1 DAY)) AS DATE) AS day
),
series AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n_events FROM axis a LEFT JOIN c USING (day)),
d AS (SELECT CAST(day AS TIMESTAMP) AS day, n_events,
             (n_events - lag(n_events) OVER (ORDER BY day))::BIGINT AS deriv
      FROM series)
SELECT day, n_events, deriv FROM d WHERE deriv IS NOT NULL ORDER BY day
""",
        # exact distributed quantiles (percentile_cont semantics)
        "chars_quantiles": """
SELECT lang,
       round(percentile_cont(0.5)  WITHIN GROUP (ORDER BY n_chars), 6) AS p50,
       round(percentile_cont(0.9)  WITHIN GROUP (ORDER BY n_chars), 6) AS p90,
       round(percentile_cont(0.99) WITHIN GROUP (ORDER BY n_chars), 6) AS p99
FROM documents GROUP BY lang ORDER BY lang
""",
        "dedup_exact_kept": """
SELECT doc_id FROM (
  SELECT doc_id, row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn FROM documents
) WHERE rn = 1 ORDER BY doc_id
""",
        "exact_dup_pairs": """
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM documents a JOIN documents b ON a.text = b.text AND a.doc_id < b.doc_id
ORDER BY id_a, id_b
""",
        # brute-force exact trigram-shingle Jaccard over ALL pairs — the
        # engine's LSH (bands=32, r=4) has ~1-1e-15 recall at this data's
        # jaccard range, and its exact verify discards false candidates,
        # so LSH output == brute force
        "minhash_pairs": f"""
{shingle_overlap}
SELECT id_a, id_b, round(i::DOUBLE / (sa.n + sb.n - i), 6) AS jaccard
FROM inter JOIN sizes sa ON sa.doc_id = id_a JOIN sizes sb ON sb.doc_id = id_b
WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.5
ORDER BY id_a, id_b
""",
        # recompute the 64-bit simhash signatures from md5_number_lower
        # token hashes (the engine uses the same MD5-derived hash), then
        # brute-force Hamming <= 3 over all pairs.  The engine's 4x16-bit
        # banding is EXACT for Hamming <= 3 (pigeonhole), so outputs match.
        "simhash_pairs": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
h AS (SELECT doc_id, md5_number_lower(term) AS th FROM toks),
votes AS (
  SELECT doc_id, b.bit,
         sum(CASE WHEN (th >> CAST(b.bit AS UBIGINT)) & 1 = 1 THEN 1 ELSE -1 END) AS vote
  FROM h, LATERAL (SELECT unnest(range(64)) AS bit) b
  GROUP BY doc_id, b.bit
),
sig0 AS (
  -- cast back to BIGINT: DuckDB sum(BIGINT) returns HUGEINT, and xor on
  -- sign-extended 128-bit values would add 64 phantom bits to bit_count
  SELECT doc_id,
         CAST(sum(CASE WHEN vote > 0 THEN
               CASE WHEN bit = 63 THEN -9223372036854775808 ELSE CAST(1 AS BIGINT) << CAST(bit AS INTEGER) END
             ELSE 0 END) AS BIGINT) AS s
  FROM votes GROUP BY doc_id
),
allsig AS (
  SELECT d.doc_id, coalesce(sig0.s, 0) AS s FROM documents d LEFT JOIN sig0 ON d.doc_id = sig0.doc_id
),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, bit_count(xor(a.s, b.s)) AS hd
  FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, CAST(hd AS BIGINT) AS hamming FROM p WHERE hd <= 3 ORDER BY id_a, id_b
""",
        # brute-force cosine over all pairs in float64 (embeddings stored
        # float32); the engine's banded hyperplane LSH + exact verify must
        # produce the same >= 0.98 pair set
        "embedding_near_dups": """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
p AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b, list_cosine_similarity(a.emb, b.emb) AS c
  FROM e a JOIN e b ON a.vec_id < b.vec_id
)
SELECT id_a, id_b, round(c, 6) AS cosine FROM p WHERE c >= 0.98 ORDER BY id_a, id_b
""",
        # embeddings are stored float32; cast to DOUBLE[] so the oracle's
        # cosine runs in float64 like the engine (float32 cosine drifts
        # ~1e-7, which flips 6-decimal rounding on nearly every row)
        "knn_cosine": """
WITH q AS (SELECT vec_id AS query_vec_id, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
scores AS (
  SELECT q.query_vec_id, e.vec_id, list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS score
  FROM q CROSS JOIN embeddings e
),
ranked AS (
  SELECT query_vec_id, vec_id, score,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY round(score, 9) DESC, vec_id ASC) AS rank
  FROM scores
)
SELECT query_vec_id, rank, vec_id, round(score, 6) AS score_r
FROM ranked WHERE rank <= 10 ORDER BY query_vec_id, rank
""",
        # int8-quantized coarse scan + exact rescore: round-half-up
        # per-vector quantization (floor(x·127/maxabs + 0.5)), approximate
        # cosine ((Qq·Dq)·(qmax/127)·(dmax/127)/(‖q‖‖d‖)) selects the top-30
        # candidates per query, exact cosine re-ranks them — the same float
        # expression trees as the engine, so candidate sets, both scores,
        # and the final ranking replay bit-for-bit at the rounding contract
        "knn_int8_rescore": f"""
WITH q0 AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
q1 AS (SELECT qid, qe,
              CASE WHEN list_max(list_transform(qe, x -> abs(x))) = 0 THEN 1.0
                   ELSE list_max(list_transform(qe, x -> abs(x))) END AS qmx,
              sqrt(list_inner_product(qe, qe)) AS qn0
       FROM q0),
qq AS (SELECT qid, qe, qmx, CASE WHEN qn0 = 0 THEN 1.0 ELSE qn0 END AS qn,
              list_transform(qe, x -> floor(x * (127.0 / qmx) + 0.5)) AS qv
       FROM q1),
d0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
d1 AS (SELECT vec_id, de,
              CASE WHEN list_max(list_transform(de, x -> abs(x))) = 0 THEN 1.0
                   ELSE list_max(list_transform(de, x -> abs(x))) END AS dmx,
              sqrt(list_inner_product(de, de)) AS dn0
       FROM d0),
dd AS (SELECT vec_id, de, dmx, CASE WHEN dn0 = 0 THEN 1.0 ELSE dn0 END AS dn,
              list_transform(de, x -> floor(x * (127.0 / dmx) + 0.5)) AS dv
       FROM d1),
coarse AS (
  SELECT q.qid AS query_vec_id, d.vec_id, q.qe, d.de,
         ((list_inner_product(d.dv, q.qv) * (q.qmx / 127.0)) * (d.dmx / 127.0)) / (q.qn * d.dn) AS coarse
  FROM qq q CROSS JOIN dd d
),
cand AS (
  SELECT query_vec_id, vec_id, qe, de, coarse,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY round(coarse, 9) DESC, vec_id ASC) AS crank
  FROM coarse
),
{_VEC_RESCORE}
""",
        # filtered kNN: same queries, corpus restricted BEFORE ranking
        "knn_cosine_filtered": """
WITH q AS (SELECT vec_id AS query_vec_id, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
scores AS (
  SELECT q.query_vec_id, e.vec_id, list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS score
  FROM q CROSS JOIN embeddings e WHERE e.label = 3
),
ranked AS (
  SELECT query_vec_id, vec_id, score,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY round(score, 9) DESC, vec_id ASC) AS rank
  FROM scores
)
SELECT query_vec_id, rank, vec_id, round(score, 6) AS score_r
FROM ranked WHERE rank <= 10 ORDER BY query_vec_id, rank
""",
        # revenue summed in exact integer 1e-4 units (2-decimal money data):
        # bit-identical to the engine regardless of accumulation order
        "lineitem_agg": """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 6) AS sum_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 6) AS sum_revenue,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
""",
        # large-large equi-join: same exact-integer revenue units as
        # lineitem_agg; month via date_trunc
        "order_priority_revenue": """
SELECT o.o_orderpriority, date_trunc('month', o.o_orderdate) AS order_month,
       round(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) / 10000.0, 6) AS revenue,
       count(*) AS n_items, count(DISTINCT o.o_orderkey) AS n_orders
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY 1, 2 ORDER BY 1, 2
""",
        "orders_by_segment": """
SELECT c.c_mktsegment, count(*) AS n_orders, round(sum(o.o_totalprice), 4) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
""",
        "events_window": """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       count(*) AS n_events, round(sum(value), 6) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
        # stopword-profile language heuristic, reproduced exactly: CJK
        # codepoint ratios via regexp_replace length deltas, per-language
        # stopword-hit ratios over whitespace tokens, first-max argmax in
        # profile order (en, de, es, fr), thresholds 0.1 / 0.05
        "lang_id_preds": _LANG_ID_SQL,
        # polynomial rolling hash over md5_number_lower token hashes,
        # folded mod 2^64 (matches FingerprintStage bit-for-bit)
        "doc_fingerprints": f"""
WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
f AS (
  SELECT doc_id,
         CASE WHEN len(l) = 0 THEN 0
              ELSE list_reduce(list_transform(l, t -> CAST(md5_number_lower(t) AS HUGEINT)),
                               (h, t) -> (h * 1099511628211 + t) % 18446744073709551616)
         END AS fp
  FROM toks
)
SELECT doc_id,
       CAST(CASE WHEN fp >= 9223372036854775808 THEN fp - 18446744073709551616 ELSE fp END AS BIGINT) AS fingerprint
FROM f ORDER BY doc_id
""",
        # per-doc tf-idf keywords: tfidf = tf * ln(n_docs / df), ties
        # (tfidf desc, term asc)
        "doc_keywords": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf * ln(s.n_docs / df.df) AS tfidf
  FROM tf JOIN df USING (term) CROSS JOIN stats s
),
ranked AS (
  SELECT doc_id, term, tfidf,
         row_number() OVER (PARTITION BY doc_id ORDER BY tfidf DESC, term ASC) AS rank
  FROM scored
)
SELECT doc_id, rank, term, round(tfidf, 6) AS tfidf
FROM ranked WHERE rank <= 5 ORDER BY doc_id, rank
""",
        # token-window chunking: W=16/S=12, 1-based inclusive list slices,
        # last window short, empty docs drop out via unnest of an empty series
        "doc_chunks": f"""
WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS ts FROM documents),
{_chunks("toks", "cut")}
SELECT doc_id, chunk_idx, len(ct) AS n_tokens, array_to_string(ct, ' ') AS chunk_text
FROM cut ORDER BY doc_id, chunk_idx
""",
        # bigram PMI: pmi = ln(c_ab·N²/(B·c_a·c_b)), same double evaluation
        # order as the engine; rank ties (pmi desc, term_a, term_b)
        "bigram_pmi": f"""
WITH {_TOKEN_POSITIONS}
uni AS (SELECT tok, count(*)::DOUBLE AS c FROM flat GROUP BY tok),
tot AS (SELECT (SELECT count(*) FROM flat)::DOUBLE AS n_tok,
               (SELECT sum(greatest(len(l) - 1, 0)) FROM toks)::DOUBLE AS n_bg),
bg AS (SELECT doc_id, tok AS a, lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS b FROM flat),
bgc AS (SELECT a, b, count(*)::DOUBLE AS c_ab FROM bg WHERE b IS NOT NULL GROUP BY a, b),
scored AS (
  SELECT a AS term_a, b AS term_b, CAST(c_ab AS BIGINT) AS pair_count,
         ln(c_ab * t.n_tok * t.n_tok / (t.n_bg * ua.c * ub.c)) AS pmi
  FROM bgc JOIN uni ua ON ua.tok = bgc.a JOIN uni ub ON ub.tok = bgc.b CROSS JOIN tot t
  WHERE c_ab >= 3
),
ranked AS (SELECT *, row_number() OVER (ORDER BY pmi DESC, term_a, term_b) AS rank FROM scored)
SELECT rank, term_a, term_b, pair_count, round(pmi, 6) AS pmi
FROM ranked WHERE rank <= 30 ORDER BY rank
""",
        # TextRank keywords: 3 power iterations of
        # r_i = 0.15 + 0.85·Σ_j (w_ij/deg_j)·r_j over the undirected
        # adjacent-token graph (self-pairs dropped), UNROLLED — symmetric
        # edges mean every node appears in each r_k, so plain JOINs suffice
        "textrank_keywords": f"""
WITH {_TOKEN_POSITIONS}
bg AS (SELECT doc_id, tok AS a, lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS b FROM flat),
bgc AS (SELECT a, b, count(*)::DOUBLE AS c FROM bg WHERE b IS NOT NULL AND a <> b GROUP BY a, b),
und AS (SELECT least(a, b) AS u, greatest(a, b) AS v, sum(c) AS w FROM bgc GROUP BY 1, 2),
edges AS (SELECT u AS src, v AS dst, w FROM und UNION ALL SELECT v AS src, u AS dst, w FROM und),
deg AS (SELECT src, sum(w) AS deg FROM edges GROUP BY src),
nodes AS (SELECT DISTINCT src AS term FROM edges),
r0 AS (SELECT term, 1.0 AS r FROM nodes),
r1 AS (SELECT e.dst AS term, 0.15 + 0.85 * sum(e.w / d.deg * p.r) AS r
       FROM edges e JOIN deg d ON d.src = e.src JOIN r0 p ON p.term = e.src GROUP BY e.dst),
r2 AS (SELECT e.dst AS term, 0.15 + 0.85 * sum(e.w / d.deg * p.r) AS r
       FROM edges e JOIN deg d ON d.src = e.src JOIN r1 p ON p.term = e.src GROUP BY e.dst),
r3 AS (SELECT e.dst AS term, 0.15 + 0.85 * sum(e.w / d.deg * p.r) AS r
       FROM edges e JOIN deg d ON d.src = e.src JOIN r2 p ON p.term = e.src GROUP BY e.dst),
ranked AS (SELECT term, r, row_number() OVER (ORDER BY r DESC, term ASC) AS rank FROM r3)
SELECT rank, term, round(r, 6) AS score_r FROM ranked WHERE rank <= 30 ORDER BY rank
""",
        # token-budget packing: bin = floor(exclusive running token total /
        # 256) in doc_id order (sequential-fill shard assignment)
        "packed_bins": f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
cnt AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id),
alld AS (SELECT d.doc_id, coalesce(c.n, 0) AS n_tokens FROM documents d LEFT JOIN cnt c USING (doc_id)),
s AS (
  SELECT doc_id, n_tokens,
         sum(n_tokens) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum
  FROM alld
)
SELECT doc_id, n_tokens, CAST(floor((cum - n_tokens) / 256.0) AS BIGINT) AS bin_id
FROM s ORDER BY doc_id
""",
        # Gopher repetition signals: distinct-token fraction, top bigram
        # (lead-window concat; tokens are [a-z0-9]+ so ' ' can't collide),
        # longest run via gaps-and-islands
        "repetition_scores": f"""
WITH {_TOKEN_POSITIONS}
base AS (SELECT doc_id, count(*) AS n_tokens, count(DISTINCT tok) AS nd FROM flat GROUP BY doc_id),
bg AS (SELECT doc_id, tok || ' ' || lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS b FROM flat),
bgc AS (SELECT doc_id, b, count(*) AS c FROM bg WHERE b IS NOT NULL GROUP BY doc_id, b),
topbg AS (SELECT doc_id, max(c) AS mc, sum(c) AS nb FROM bgc GROUP BY doc_id),
runs AS (SELECT doc_id, tok, i - ROW_NUMBER() OVER (PARTITION BY doc_id, tok ORDER BY i) AS g FROM flat),
runc AS (SELECT doc_id, count(*) AS rl FROM runs GROUP BY doc_id, tok, g),
mr AS (SELECT doc_id, max(rl) AS max_run FROM runc GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(b.n_tokens, 0) AS n_tokens,
       round(CASE WHEN coalesce(b.n_tokens, 0) = 0 THEN 0
                  ELSE (b.n_tokens - b.nd) / CAST(b.n_tokens AS DOUBLE) END, 6) AS dup_token_frac,
       round(coalesce(t.mc / CAST(t.nb AS DOUBLE), 0), 6) AS top_bigram_frac,
       coalesce(m.max_run, 0) AS max_run_len
FROM documents d
LEFT JOIN base b USING (doc_id) LEFT JOIN topbg t USING (doc_id) LEFT JOIN mr m USING (doc_id)
ORDER BY d.doc_id
""",
        # fused curation filter: same signal definitions as
        # repetition_scores/quality_scores, conjunction of thresholds
        "curation_kept": f"""
{curation_ctes}
SELECT doc_id, n_tokens, round(dup, 6) AS dup_token_frac,
       round(sr, 6) AS stopword_ratio, max_run AS max_run_len
{curation_keep}
""",
        # PII scrubbing replay: identical synthetic contact line + the same
        # RE2 patterns (DuckDB's regex engine is also RE2)
        "pii_redacted": r"""
WITH aug AS (
  SELECT doc_id,
         coalesce(text, '') || ' contact user' || doc_id || '@example.com or +1-555-' ||
         lpad((doc_id % 10000)::VARCHAR, 4, '0') AS txt
  FROM documents
)
SELECT doc_id,
       CAST(len(regexp_extract_all(txt, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(txt, '\+1-[0-9]{3}-[0-9]{4}')) AS BIGINT) AS n_phones,
       regexp_replace(regexp_replace(txt, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}', '<EMAIL>', 'g'),
                      '\+1-[0-9]{3}-[0-9]{4}', '<PHONE>', 'g') AS redacted
FROM aug ORDER BY doc_id
""",
        # Lloyd k-means unrolled: init = 4 smallest vec_ids, 3 centroid
        # updates (empty clusters carry the previous centroid), final
        # assignment; squared euclidean, min-cluster ties
        "kmeans_clusters": _KMEANS_CTES
        + """
SELECT vec_id, cl AS cluster, round(dist, 6) AS dist
FROM a4 WHERE rn = 1 ORDER BY vec_id
""",
        # SemDeDup: same unrolled k-means fit; a vector is dropped iff a
        # smaller-id vector in its cluster is >= 0.98 cosine-similar
        "semdedup_kept": _KMEANS_CTES
        + """
, asg AS (SELECT vec_id, cl FROM a4 WHERE rn = 1),
emb2 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
dropped AS (
  SELECT DISTINCT b.vec_id
  FROM asg a JOIN asg b ON a.cl = b.cl AND a.vec_id < b.vec_id
  JOIN emb2 ea ON ea.vec_id = a.vec_id
  JOIN emb2 eb ON eb.vec_id = b.vec_id
  WHERE list_cosine_similarity(ea.e, eb.e) >= 0.98
)
SELECT s.vec_id, s.cl AS cluster,
       CAST(CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM asg s LEFT JOIN dropped d USING (vec_id) ORDER BY s.vec_id
""",
        # vector aggregate: element-wise mean per label, long format
        "label_centroids": """
SELECT label::BIGINT AS label, dim, round(avg(v), 6) AS centroid,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM (SELECT label, unnest(embedding) AS v,
             unnest(range(len(embedding))) AS dim
      FROM embeddings)
GROUP BY 1, 2 ORDER BY 1, 2
""",
        # mixture sampling in lockstep with queries.mixture_sample
        "mixture_sample": """
SELECT doc_id, lang FROM documents
WHERE (doc_id * 2654435761) % 4294967296 <
      CASE lang WHEN 'en' THEN 4294967296.0 WHEN 'de' THEN 2147483648.0
                WHEN 'es' THEN 1073741824.0 WHEN 'fr' THEN 536870912.0
                WHEN 'zh' THEN 268435456.0 ELSE 0.0 END
ORDER BY doc_id
""",
        # split thresholds in lockstep with queries.dataset_splits
        "dataset_splits": """
SELECT doc_id,
       CASE WHEN (doc_id * 1597334677) % 4294967296 * 10 < 4294967296 * 8 THEN 'train'
            WHEN (doc_id * 1597334677) % 4294967296 * 10 < 4294967296 * 9 THEN 'val'
            ELSE 'test' END AS split
FROM documents ORDER BY doc_id
""",
        # count-min sketch replay: same 4 odd mix constants, w=64; one
        # UNION-ALL branch per sketch row, probe = distinct terms, est =
        # least over the 4 probed cells (always >= exact)
        "cms_counts": f"""
WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
flat AS (SELECT unnest(l) AS tok FROM toks),
h AS (SELECT tok, CAST(md5_number_lower(tok) AS HUGEINT) AS th FROM flat),
cells AS (
  SELECT 0 AS r, (th * 2685821657736338717) % 18446744073709551616 % 64 AS col, count(*) AS c FROM h GROUP BY 2
  UNION ALL SELECT 1, (th * 1181783497276652981) % 18446744073709551616 % 64, count(*) FROM h GROUP BY 2
  UNION ALL SELECT 2, (th * 2862933555777941757) % 18446744073709551616 % 64, count(*) FROM h GROUP BY 2
  UNION ALL SELECT 3, (th * 3202034522624059733) % 18446744073709551616 % 64, count(*) FROM h GROUP BY 2
),
ex AS (SELECT tok, count(*) AS exact_count, any_value(th) AS th FROM h GROUP BY tok),
pc AS (
  SELECT tok, exact_count,
         (th * 2685821657736338717) % 18446744073709551616 % 64 AS c0,
         (th * 1181783497276652981) % 18446744073709551616 % 64 AS c1,
         (th * 2862933555777941757) % 18446744073709551616 % 64 AS c2,
         (th * 3202034522624059733) % 18446744073709551616 % 64 AS c3
  FROM ex
)
SELECT pc.tok AS term, CAST(least(a.c, b.c, c.c, d.c) AS BIGINT) AS est_count,
       CAST(exact_count AS BIGINT) AS exact_count,
       CAST(least(a.c, b.c, c.c, d.c) - exact_count AS BIGINT) AS overestimate
FROM pc
JOIN cells a ON a.r = 0 AND a.col = pc.c0
JOIN cells b ON b.r = 1 AND b.col = pc.c1
JOIN cells c ON c.r = 2 AND c.col = pc.c2
JOIN cells d ON d.r = 3 AND d.col = pc.c3
ORDER BY term
""",
        # DSIR replay: hashed unigram (md5 % 1024) + bigram
        # ((md5_a·FNV + md5_b) mod 2^64 % 1024) feature buckets, Laplace
        # log-ratio of the target(lang=en)/source distributions, per-doc
        # feature-sum weights — same HUGEINT hash arithmetic as cms_counts
        "dsir_weights": f"""
WITH toks AS (SELECT doc_id, lang, {_DOC_TOKS} AS l FROM documents),
uni AS (SELECT doc_id, lang, CAST(md5_number_lower(unnest(l)) AS HUGEINT) % 1024 AS b FROM toks),
bigpos AS (SELECT doc_id, lang, l, unnest(range(1, len(l))) AS i FROM toks),
big AS (SELECT doc_id, lang,
          (CAST(md5_number_lower(l[i]) AS HUGEINT) * 1099511628211
           + CAST(md5_number_lower(l[i+1]) AS HUGEINT))
          % 18446744073709551616 % 1024 AS b FROM bigpos),
feats AS (SELECT doc_id, lang, b FROM uni UNION ALL SELECT doc_id, lang, b FROM big),
tot AS (SELECT count(*)::DOUBLE AS s_tot,
               sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::DOUBLE AS t_tot FROM feats),
cnts AS (SELECT b, count(*)::DOUBLE AS ns,
                sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::DOUBLE AS nt
         FROM feats GROUP BY b),
lr AS (SELECT b, ln((nt + 1.0) / (t_tot + 1024.0)) - ln((ns + 1.0) / (s_tot + 1024.0)) AS logr
       FROM cnts, tot),
w AS (SELECT doc_id, sum(logr) AS weight FROM feats JOIN lr USING (b) GROUP BY doc_id),
alldocs AS (SELECT d.doc_id, coalesce(w.weight, 0.0) AS weight
            FROM documents d LEFT JOIN w USING (doc_id)),
ranked AS (SELECT ROW_NUMBER() OVER (ORDER BY round(weight, 6) DESC, doc_id) AS rank,
                  doc_id, round(weight, 6) AS weight_r FROM alldocs)
SELECT rank, doc_id, weight_r FROM ranked WHERE rank <= 20 ORDER BY rank
""",
        # the curated WRITE read back: same signal CTEs as curation_kept
        # plus the partition id (doc_id % 16)
        "curated_corpus": f"""
{curation_ctes}
SELECT doc_id, doc_id % 16 AS part_id, n_tokens, round(dup, 6) AS dup_token_frac,
       round(sr, 6) AS stopword_ratio, max_run AS max_run_len
{curation_keep}
""",
        # trigram decontamination: rolling-hash trigrams from
        # md5_number_lower token hashes (same fold as the engine, mod 2^64),
        # benchmark = Knuth-hash 4% doc sample, LEFT JOIN membership
        "contamination_overlap": f"""
WITH {_TOKEN_HASHES}
tri AS (
  SELECT doc_id,
         (((th * 1099511628211 + lead(th) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 2) OVER w) % 18446744073709551616 AS trig,
         lead(th, 2) OVER w IS NOT NULL AS ok
  FROM h WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
tset AS (SELECT DISTINCT doc_id, trig FROM tri WHERE ok),
bench AS (SELECT DISTINCT trig FROM tset WHERE (doc_id * 2654435761) % 4294967296 < 171798691),
corp AS (SELECT * FROM tset WHERE (doc_id * 2654435761) % 4294967296 >= 171798691),
hits AS (
  SELECT c.doc_id, count(*) AS n_tri,
         CAST(sum(CASE WHEN b.trig IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_hit
  FROM corp c LEFT JOIN bench b ON c.trig = b.trig GROUP BY c.doc_id
)
SELECT d.doc_id, coalesce(t.n_tri, 0) AS n_trigrams, coalesce(t.n_hit, 0) AS n_hit,
       round(CASE WHEN coalesce(t.n_tri, 0) = 0 THEN 0
                  ELSE t.n_hit / CAST(t.n_tri AS DOUBLE) END, 6) AS contamination
FROM documents d LEFT JOIN hits t USING (doc_id)
WHERE (d.doc_id * 2654435761) % 4294967296 >= 171798691
ORDER BY d.doc_id
""",
        # exact repeated-passage detection: 5-token window hashes via the
        # same md5 fold mod 2^64; dup = span hash in >= 2 distinct docs
        "dup_spans": f"""
WITH {_TOKEN_HASHES}
w AS (
  SELECT doc_id,
         (((((((th * 1099511628211 + lead(th, 1) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 2) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 3) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 4) OVER w) % 18446744073709551616 AS wh,
         lead(th, 4) OVER w IS NOT NULL AS ok
  FROM h WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
ww AS (SELECT doc_id, wh FROM w WHERE ok),
dup AS (SELECT wh FROM ww GROUP BY wh HAVING count(DISTINCT doc_id) >= 2),
agg AS (
  SELECT ww.doc_id, count(*) AS n_windows,
         CAST(sum(CASE WHEN d.wh IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_windows
  FROM ww LEFT JOIN dup d USING (wh) GROUP BY ww.doc_id
)
SELECT doc_id, n_windows, n_dup_windows,
       round(n_dup_windows / CAST(n_windows AS DOUBLE), 6) AS dup_frac
FROM agg ORDER BY doc_id
""",
        # rollup levels with NULL markers, exactly as SQL ROLLUP emits them
        "docs_rollup": """
SELECT lang, source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY ROLLUP (lang, source)
ORDER BY lang NULLS FIRST, source NULLS FIRST
""",
        # pivot: fixed column set (conditional aggregation)
        "source_lang_pivot": """
SELECT source,
       CAST(sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS BIGINT) AS n_de,
       CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en,
       CAST(sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END) AS BIGINT) AS n_es,
       CAST(sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END) AS BIGINT) AS n_fr,
       CAST(sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END) AS BIGINT) AS n_zh,
       count(*) AS n_total
FROM documents GROUP BY source ORDER BY source
""",
        # HyperLogLog over md5 trigram hashes: idx = top 10 bits, rho =
        # leading zeros of the low 54 bits + 1 (bin() is minimal-width),
        # small-range linear-counting correction
        "approx_distinct_trigrams": f"""
WITH {_TOKEN_HASHES}
tri AS (
  SELECT (((th * 1099511628211 + lead(th) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 2) OVER w) % 18446744073709551616 AS trig,
         lead(th, 2) OVER w IS NOT NULL AS ok
  FROM h WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
reg AS (
  SELECT CAST(trig // 18014398509481984 AS BIGINT) AS idx,
         max(CASE WHEN trig % 18014398509481984 = 0 THEN 55
                  ELSE 55 - length(bin(CAST(trig % 18014398509481984 AS BIGINT))) END) AS rho
  FROM tri WHERE ok GROUP BY 1
),
agg AS (SELECT count(*) AS n_set, sum(pow(2.0, -rho)) AS s_set FROM reg),
est AS (
  SELECT 1024 - n_set AS v_zero,
         (0.7213 / (1.0 + 1.079 / 1024)) * 1024 * 1024 / (s_set + (1024 - n_set)) AS raw
  FROM agg
)
SELECT CAST(1024 AS BIGINT) AS m, CAST(v_zero AS BIGINT) AS v_zero,
       round(CASE WHEN raw <= 2560 AND v_zero > 0 THEN 1024 * ln(1024.0 / v_zero) ELSE raw END, 6) AS estimate
FROM est
""",
        # exact substring dedup, cut variant: same window fold; covered =
        # any dup-span start within the trailing W-1 positions; canonical
        # owner (min doc_id per span hash) keeps its copy
        "dedup_cut_spans": f"""
WITH {_TOKEN_HASHES}
w AS (
  SELECT doc_id, i AS s,
         (((((((th * 1099511628211 + lead(th, 1) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 2) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 3) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 4) OVER w) % 18446744073709551616 AS wh,
         lead(th, 4) OVER w IS NOT NULL AS ok
  FROM h WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
ww AS (SELECT doc_id, s, wh FROM w WHERE ok),
own AS (SELECT wh, count(DISTINCT doc_id) AS nd, min(doc_id) AS keeper FROM ww GROUP BY wh),
cuts AS (
  SELECT ww.doc_id, ww.s FROM ww JOIN own ON own.wh = ww.wh
  WHERE own.nd >= 2 AND ww.doc_id != own.keeper
),
cov AS (
  SELECT DISTINCT f.doc_id, f.i
  FROM flat f JOIN cuts c ON c.doc_id = f.doc_id AND f.i >= c.s AND f.i < c.s + 5
),
kept AS (
  SELECT f.doc_id, f.i, f.tok FROM flat f
  LEFT JOIN cov ON cov.doc_id = f.doc_id AND cov.i = f.i
  WHERE cov.i IS NULL
),
agg AS (
  SELECT doc_id, count(*) AS n_kept,
         string_agg(tok, ' ' ORDER BY i) AS cleaned
  FROM kept GROUP BY doc_id
)
SELECT t.doc_id, len(t.l) AS n_tokens,
       len(t.l) - coalesce(a.n_kept, 0) AS n_cut,
       coalesce(a.cleaned, '') AS cleaned_text
FROM toks t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
""",
        # corpus unigram-LM cross-entropy / perplexity per doc
        "doc_perplexity": f"""
WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
flat AS (SELECT doc_id, unnest(l) AS tok FROM toks),
cnt AS (SELECT tok, count(*)::DOUBLE AS c FROM flat GROUP BY tok),
tot AS (SELECT (SELECT count(*) FROM flat)::DOUBLE AS n),
agg AS (
  SELECT f.doc_id, count(*) AS n_tokens, avg(-ln(c.c / t.n)) AS ce
  FROM flat f JOIN cnt c USING (tok) CROSS JOIN tot t GROUP BY f.doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       round(coalesce(a.ce, 0), 6) AS cross_entropy,
       round(exp(coalesce(a.ce, 0)), 6) AS ppl
FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id
""",
        # CCNet per-language perplexity terciles: exact ntile(3) over
        # (round(ppl,6) ASC, doc_id ASC) per language — the same rounded
        # values the engine packs into its distributed-rank sort key
        "ccnet_buckets": f"""
{ccnet_ctes}
SELECT lang, CASE b WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END AS bucket,
       count(*) AS n_docs, sum(doc_id) AS doc_id_sum,
       round(min(ppl_r), 6) AS ppl_min_r, round(max(ppl_r), 6) AS ppl_max_r
FROM nt GROUP BY lang, b ORDER BY lang, b
""",
        # synthetic media metadata is closed-form in media_id, so the frame
        # sampler (n = min(8, max(1, trunc(dur/1000*fps))), timestamps
        # linspace endpoint=False truncated to ms) is pure SQL arithmetic
        "frame_sample": """
WITH ids AS (SELECT unnest(range(100)) AS media_id),
d AS (SELECT media_id, 500 + (media_id * 977) % 59500 AS dur FROM ids),
f AS (SELECT media_id, dur, least(8, greatest(1, CAST(trunc(dur / 1000.0) AS BIGINT))) AS nf FROM d)
SELECT media_id, CAST(u.i AS INTEGER) AS frame_idx,
       CAST(trunc(u.i * (CAST(dur AS DOUBLE) / nf)) AS BIGINT) AS ts_ms
FROM f, LATERAL (SELECT unnest(range(f.nf)) AS i) u
ORDER BY media_id, frame_idx
""",
        # rebuild the synthesized TSV lines from the documents table, parse
        # them (3-col lines get an md5-derived surrogate qid; the md5-keyed
        # 50% sample matches sample_training_pairs exactly)
        "triplet_ingest": """
WITH docs AS (
  SELECT doc_id, text, row_number() OVER (ORDER BY doc_id) - 1 AS i FROM documents
),
w AS (
  SELECT doc_id, i, (list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> ''))[1:6] AS ws
  FROM docs WHERE i < 2000
),
parts AS (
  SELECT doc_id, i,
         coalesce(nullif(array_to_string(ws[1:3], ' '), ''), 'q') AS q,
         array_to_string(ws[4:5], ' ') AS pos,
         array_to_string(ws[5:6], ' ') AS neg
  FROM w
),
trip AS (
  SELECT CASE WHEN i % 13 = 0 THEN 'h' || CAST(md5_number_lower(q) % 1000000000000 AS VARCHAR)
              ELSE 'qid' || CAST(doc_id AS VARCHAR) END AS query_id,
         q AS query, pos, neg
  FROM parts WHERE i % 13 = 0 OR i % 7 = 0
)
SELECT query_id, query, pos, neg FROM trip
WHERE md5_number_lower(query_id || chr(1) || query || chr(1) || '10') < CAST('9223372036854775808' AS UBIGINT)
ORDER BY query_id, query
""",
        # listwise meta-row ingestion: same synthetic listwise table
        # (label>0 = positive), subsampled to 2 pos / 3 neg per query by
        # md5(seed|qid|doc) rank with doc_id tie-break — the engine's
        # partition-order-independent replacement for the reference's
        # sequential rng.sample
        "meta_ingest": """
WITH d AS (
  SELECT doc_id, 'mq' || CAST(doc_id % 20 AS VARCHAR) AS qid,
         CASE WHEN doc_id % 3 = 0 THEN 1.0 ELSE 0.0 END AS label,
         doc_id * 0.25 AS sc
  FROM documents
),
ranked AS (
  SELECT qid, CAST(doc_id AS VARCHAR) AS doc_s, label, sc,
         row_number() OVER (
           PARTITION BY qid, (label > 0)
           ORDER BY md5_number_lower('13' || chr(1) || qid || chr(1) || CAST(doc_id AS VARCHAR)),
                    CAST(doc_id AS VARCHAR)
         ) AS rn
  FROM d
)
SELECT qid AS query_id,
       CASE WHEN label > 0 THEN 'pos' ELSE 'neg' END AS role,
       CAST(rn - 1 AS INTEGER) AS slot,
       doc_s AS doc_id,
       round(sc, 6) AS score
FROM ranked
WHERE (label > 0 AND rn <= 2) OR (label <= 0 AND rn <= 3)
ORDER BY query_id, role, slot
""",
    }
    # exact-join and exhaustive-IVF variants must reproduce the SAME
    # reference rankings as their sibling operators
    oracles["ngram_jaccard"] = oracles["minhash_pairs"]
    # connected components over the same verified pair set: transitive
    # min-label closure via recursive CTE (UNION dedups across rounds)
    _pairs_body = oracles["minhash_pairs"].rsplit("ORDER BY", 1)[0]
    cc_ctes = f"""WITH RECURSIVE p AS ({_pairs_body}),
edges AS (SELECT id_a AS a, id_b AS b FROM p UNION ALL SELECT id_b, id_a FROM p),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, lab) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.a, r.lab FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (SELECT node AS doc_id, min(lab) AS cluster_id FROM reach GROUP BY node)"""
    oracles["dedup_clusters"] = f"""
{cc_ctes}
SELECT doc_id, cluster_id, count(*) OVER (PARTITION BY cluster_id) AS cluster_size
FROM comp ORDER BY doc_id
"""
    # the distributed large-star/small-star path must produce the
    # identical clustering
    oracles["dedup_clusters_dist"] = oracles["dedup_clusters"]
    # near-dup suppression: keep docs that are not a non-canonical member
    oracles["dedup_near_kept"] = f"""
{cc_ctes}
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM comp WHERE doc_id <> cluster_id)
ORDER BY d.doc_id
"""
    # JSON props extraction: same RE2 pattern, nulls for missing k
    oracles["event_props_extract"] = r"""
WITH x AS (
  SELECT event_type,
         TRY_CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1) AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       count(*) AS n_events,
       count(*) - count(k) AS n_missing,
       CAST(coalesce(sum(k), 0) AS BIGINT) AS sum_k,
       round(avg(k), 6) AS avg_k
FROM x GROUP BY event_type ORDER BY event_type
"""
    oracles["knn_cosine_ivf"] = oracles["knn_cosine"]
    oracles["knn_cosine_ivf_disk"] = oracles["knn_cosine"]
    # multi-field BM25 with boosts: title = first 8 tokens, body = rest,
    # each field its own df/avgdl/n_docs statistics (dl from the list
    # length so zero-token fields still count toward n_docs/avgdl),
    # score = 2.0·BM25_title + 1.0·BM25_body
    oracles["bm25_fields_topk"] = f"""
WITH {_query_terms(bm25_values, compact=True)}
{field_ctes}
fstats AS (SELECT field, avg(dl) AS avgdl, count(*)::DOUBLE AS n_docs FROM fdl GROUP BY field),
fdf AS (SELECT field, term, count(*)::DOUBLE AS df FROM ftf GROUP BY 1, 2),
scores AS (
  SELECT q.query_id, t.doc_id,
         sum((CASE WHEN t.field = 'title' THEN 2.0 ELSE 1.0 END)
             * q.qtf * ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
             * t.tf * 2.2 / (t.tf + 1.2 * (0.25 + 0.75 * l.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN ftf t ON t.term = q.term
  JOIN fdf d ON d.term = q.term AND d.field = t.field
  JOIN fdl l ON l.doc_id = t.doc_id AND l.field = t.field
  JOIN fstats s ON s.field = t.field
  GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # true BM25F: per-field normalized boosted tfs SUM per (doc, term),
    # then one shared saturation; combined df == whole-document df since
    # title/body partition the token stream
    oracles["bm25f_topk"] = f"""
WITH {_query_terms(bm25_values, compact=True)}
{field_ctes}
fstats AS (SELECT field, avg(dl) AS avgdl FROM fdl GROUP BY field),
nstats AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
cdf AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM ftf GROUP BY term),
comb AS (
  SELECT q.query_id, t.doc_id, q.term, any_value(q.qtf) AS qtf,
         sum((CASE WHEN t.field = 'title' THEN 2.0 ELSE 1.0 END) * t.tf
             / (0.25 + 0.75 * l.dl / s.avgdl)) AS w
  FROM qtf q
  JOIN ftf t ON t.term = q.term
  JOIN fdl l ON l.doc_id = t.doc_id AND l.field = t.field
  JOIN fstats s ON s.field = t.field
  GROUP BY 1, 2, 3
),
scores AS (
  SELECT c.query_id, c.doc_id,
         sum(c.qtf * ln(1 + (n.n_docs - d.df + 0.5) / (d.df + 0.5))
             * 2.2 * c.w / (c.w + 1.2)) AS score
  FROM comb c JOIN cdf d ON d.term = c.term CROSS JOIN nstats n
  GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # multi_match cross_fields / BlendedTermQuery: per term, df is blended
    # as max_f(df_f) over the searched fields (shared idf over the corpus
    # size); each field leg keeps field-local tf/dl/avgdl and its boost;
    # the legs of one term combine as dismax max + 0.3*(sum - max); terms
    # sum weighted by query tf
    oracles["cross_fields_topk"] = f"""
WITH {_query_terms(bm25_values, compact=True)}
{field_ctes}
fstats AS (SELECT field, avg(dl) AS avgdl FROM fdl GROUP BY field),
nstats AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
fdf AS (SELECT field, term, count(*)::DOUBLE AS df FROM ftf GROUP BY 1, 2),
bdf AS (SELECT term, max(df) AS df FROM fdf GROUP BY term),
legs AS (
  SELECT q.query_id, q.term, t.doc_id,
         (CASE WHEN t.field = 'title' THEN 2.0 ELSE 1.0 END)
           * ln(1 + (n.n_docs - bd.df + 0.5) / (bd.df + 0.5))
           * t.tf * 2.2 / (t.tf + 1.2 * (0.25 + 0.75 * l.dl / s.avgdl)) AS leg
  FROM qtf q
  JOIN ftf t ON t.term = q.term
  JOIN fdl l ON l.doc_id = t.doc_id AND l.field = t.field
  JOIN fstats s ON s.field = t.field
  JOIN bdf bd ON bd.term = q.term
  CROSS JOIN nstats n
),
pterm AS (
  SELECT query_id, term, doc_id,
         max(leg) + 0.3 * (sum(leg) - max(leg)) AS ts
  FROM legs GROUP BY 1, 2, 3
),
scores AS (
  SELECT p.query_id, p.doc_id, sum(q.qtf * p.ts) AS score
  FROM pterm p JOIN qtf q ON q.query_id = p.query_id AND q.term = p.term
  GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # fake-decoder media features: per-256-byte-chunk means of the
    # closed-form payload bytes ((id*131 + j*31 + 7) mod 256), metadata
    # closed-form in media_id — pure SQL arithmetic
    oracles["media_decode"] = """
WITH ids AS (SELECT unnest(range(200)) AS media_id),
feats AS (
  SELECT media_id, CAST(u.j // 256 AS INTEGER) AS feat_idx,
         round(avg(CAST((media_id * 131 + u.j * 31 + 7) % 256 AS DOUBLE)), 6) AS feat_value
  FROM ids, LATERAL (SELECT unnest(range(4096)) AS j) u
  GROUP BY media_id, u.j // 256
)
SELECT media_id,
       CAST(64 + (media_id * 211) % 1856 AS INTEGER) AS width,
       CAST(64 + (media_id * 131) % 1016 AS INTEGER) AS height,
       CAST(500 + (media_id * 977) % 59500 AS INTEGER) AS duration_ms,
       feat_idx, feat_value
FROM feats ORDER BY media_id, feat_idx
"""
    # rank_feature saturation: same BM25 chain as boosted_sql, additive
    # bounded modifier boost·S/(S+pivot) (the ES rank_feature default)
    oracles["rank_feature_sat_topk"] = boosted_sql.replace(
        "sc.score + 0.5 * ln(1 + d.n_chars / 1000.0) AS score",
        "sc.score + 1.5 * (d.n_chars / (d.n_chars + 500.0)) AS score",
    )
    assert oracles["rank_feature_sat_topk"] != boosted_sql
    # _msearch is rank-identical to per-query search by contract — the
    # batched path replays the plain BM25 oracle
    oracles["msearch_topk"] = bm25
    # linear retriever: min-max normalize each list's top-20, weighted sum
    oracles["linear_fusion_topk"] = f"""{bm25_ctes},
sparse AS (SELECT query_id, doc_id, score FROM ranked WHERE rank <= 20),
snorm AS (
  SELECT query_id, doc_id,
         CASE WHEN max(score) OVER (PARTITION BY query_id) = min(score) OVER (PARTITION BY query_id)
              THEN 1.0
              ELSE (score - min(score) OVER (PARTITION BY query_id))
                   / (max(score) OVER (PARTITION BY query_id) - min(score) OVER (PARTITION BY query_id))
         END AS nv
  FROM sparse
),
{dense_sim}
dense AS (SELECT query_id, doc_id, cs FROM (
            SELECT query_id, doc_id, cs,
                   row_number() OVER (PARTITION BY query_id ORDER BY round(cs, 9) DESC, doc_id ASC) AS rank
            FROM dsim) WHERE rank <= 20),
dnorm AS (
  SELECT query_id, doc_id,
         CASE WHEN max(cs) OVER (PARTITION BY query_id) = min(cs) OVER (PARTITION BY query_id)
              THEN 1.0
              ELSE (cs - min(cs) OVER (PARTITION BY query_id))
                   / (max(cs) OVER (PARTITION BY query_id) - min(cs) OVER (PARTITION BY query_id))
         END AS nv
  FROM dense
),
fused AS (SELECT query_id, doc_id, sum(wnv) AS f FROM (
            SELECT query_id, doc_id, 0.7 * nv AS wnv FROM snorm
            UNION ALL SELECT query_id, doc_id, 0.3 * nv FROM dnorm)
          GROUP BY query_id, doc_id),
franked AS (SELECT query_id, doc_id, f,
                   row_number() OVER (PARTITION BY query_id ORDER BY round(f, 9) DESC, doc_id ASC) AS rank
            FROM fused)
SELECT query_id, rank, doc_id, round(f, 6) AS fused_r
FROM franked WHERE rank <= 10
"""
    oracles["date_range_agg"] = """
WITH b AS (
  SELECT CASE WHEN ts < TIMESTAMP '2024-01-08' THEN '*-2024-01-08'
              WHEN ts < TIMESTAMP '2024-01-20' THEN '2024-01-08-2024-01-20'
              ELSE '2024-01-20-*' END AS bucket,
         value
  FROM events
)
SELECT bucket, count(*)::BIGINT AS n_events, round(avg(value), 6) AS avg_value_r
FROM b GROUP BY bucket ORDER BY bucket
"""
    # geo_bounds + geo_centroid over the same event lattice as geotile_grid
    oracles["geo_bounds_centroid"] = """
WITH g AS (SELECT -60.0 + (event_id % 120) + 0.5 AS lat,
                  -180.0 + ((event_id * 7) % 360) + 0.5 AS lon
           FROM events)
SELECT count(*)::BIGINT AS n_events,
       min(lat) AS min_lat, max(lat) AS max_lat,
       min(lon) AS min_lon, max(lon) AS max_lon,
       round(avg(lat), 6) AS centroid_lat_r,
       round(avg(lon), 6) AS centroid_lon_r
FROM g
"""
    # change_point: least-squares split statistic over the daily-avg
    # series, argmax by (-round(score,9), day) — the change day is the
    # FIRST day of the new regime (split index + 1)
    oracles["change_point_day"] = """
WITH daily AS (SELECT date_trunc('day', ts) AS day, avg(value) AS v
               FROM events GROUP BY 1),
idx AS (SELECT day, v,
               row_number() OVER (ORDER BY day) AS t,
               count(*) OVER () AS n,
               sum(v) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS ps,
               sum(v) OVER () AS tot
        FROM daily),
sc AS (SELECT t,
              ps / t AS m1,
              (tot - ps) / (n - t) AS m2,
              (t * (n - t))::DOUBLE / n * (ps / t - (tot - ps) / (n - t))
                                        * (ps / t - (tot - ps) / (n - t)) AS score
       FROM idx WHERE t < n),
best AS (SELECT * FROM sc ORDER BY round(score, 9) DESC, t ASC LIMIT 1)
SELECT strftime(i.day, '%Y-%m-%d') AS change_day,
       round(b.score, 6) AS score_r,
       round(b.m1, 6) AS mean_before_r,
       round(b.m2, 6) AS mean_after_r
FROM best b JOIN idx i ON i.t = b.t + 1
"""
    # PCA: scatter matrix from the centered long form, 3 power-iteration
    # steps unrolled (v0 = 1/sqrt(d)), sign fixed by sum(v) > 0 — the same
    # deterministic spec as the engine's driver iteration
    _pca_steps = []
    for it in (1, 2, 3):
        prev = f"v{it - 1}"
        _pca_steps.append(
            f"w{it} AS (SELECT c.i, sum(c.c * v.v) AS w FROM cov c JOIN {prev} v ON v.i = c.j GROUP BY c.i),\n"
            f"v{it} AS (SELECT i, w / (SELECT sqrt(sum(w * w)) FROM w{it}) AS v FROM w{it})"
        )
    oracles["pca_project"] = f"""
WITH ev AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
                   unnest(range(len(embedding))) AS dim FROM embeddings),
mu AS (SELECT dim, avg(x) AS m FROM ev GROUP BY dim),
cx AS (SELECT e.vec_id, e.dim, e.x - mu.m AS x FROM ev e JOIN mu USING (dim)),
cov AS (SELECT a.dim AS i, b.dim AS j, sum(a.x * b.x) AS c
        FROM cx a JOIN cx b USING (vec_id) GROUP BY 1, 2),
v0 AS (SELECT dim AS i, 1.0 / sqrt((SELECT count(*) FROM mu)) AS v FROM mu),
{",".join(_pca_steps)},
sg AS (SELECT CASE WHEN (SELECT sum(v) FROM v3) < 0 THEN -1.0 ELSE 1.0 END AS s)
SELECT cx.vec_id, round(sum(cx.x * v3.v) * (SELECT s FROM sg), 6) AS pc1_r
FROM cx JOIN v3 ON v3.i = cx.dim
GROUP BY cx.vec_id ORDER BY cx.vec_id
"""
    # product quantization: per-subspace Lloyd (2 iterations, smallest-id
    # seeds, first-min ties, empty clusters keep their centroid) unrolled
    # like the kmeans oracle but partitioned by sub; ADC = LUT-join sum;
    # exact rescore replays the per-dim difference form (so self-matches
    # are exactly 0.0 on both sides)
    _pq_iters = []
    for it in (1, 2):
        prev = f"c{it - 1}"
        _pq_iters.append(
            f"""d{it} AS (SELECT e.vec_id, e.sub, c.cl, sum((e.x - c.c) * (e.x - c.c)) AS dist
       FROM sev e JOIN {prev} c ON c.sub = e.sub AND c.sdim = e.sdim
       GROUP BY 1, 2, 3),
a{it} AS (SELECT vec_id, sub, cl,
               row_number() OVER (PARTITION BY vec_id, sub ORDER BY dist, cl) AS rn FROM d{it}),
c{it}m AS (SELECT a.sub, a.cl, e.sdim, avg(e.x) AS c
        FROM a{it} a JOIN sev e ON e.vec_id = a.vec_id AND e.sub = a.sub
        WHERE a.rn = 1 GROUP BY 1, 2, 3),
c{it} AS (SELECT p.cl, p.sub, p.sdim, coalesce(m.c, p.c) AS c
       FROM {prev} p LEFT JOIN c{it}m m ON m.cl = p.cl AND m.sub = p.sub AND m.sdim = p.sdim)"""
        )
    # PQ codes (final assignment to the c2 codebook), the 5 query vectors,
    # their per-subspace distance LUT, and the top-30 ADC exact rescore
    pq_codes = """dfin AS (SELECT e.vec_id, e.sub, c.cl, sum((e.x - c.c) * (e.x - c.c)) AS dist
         FROM sev e JOIN c2 c ON c.sub = e.sub AND c.sdim = e.sdim
         GROUP BY 1, 2, 3),
codes AS (SELECT vec_id, sub, cl FROM (
            SELECT vec_id, sub, cl,
                   row_number() OVER (PARTITION BY vec_id, sub ORDER BY dist, cl) AS rn
            FROM dfin) WHERE rn = 1),
q AS (SELECT vec_id AS qid FROM embeddings ORDER BY vec_id LIMIT 5),"""
    pq_lut = """qs AS (SELECT q.qid, s.sub, s.sdim, s.x FROM q JOIN sev s ON s.vec_id = q.qid),
lut AS (SELECT qs.qid, c.sub, c.cl, sum((qs.x - c.c) * (qs.x - c.c)) AS l
        FROM qs JOIN c2 c ON c.sub = qs.sub AND c.sdim = qs.sdim
        GROUP BY 1, 2, 3),"""
    pq_rescore = """cand AS (SELECT qid, vec_id, adist,
                row_number() OVER (PARTITION BY qid ORDER BY round(adist, 9) ASC, vec_id ASC) AS crank
         FROM adist),
cand30 AS (SELECT * FROM cand WHERE crank <= 30),
exact AS (SELECT c.qid, c.vec_id, c.adist,
                 sum((a.x - b.x) * (a.x - b.x)) AS dist
          FROM cand30 c
          JOIN ev a ON a.vec_id = c.qid
          JOIN ev b ON b.vec_id = c.vec_id AND b.dim = a.dim
          GROUP BY 1, 2, 3),
final AS (SELECT qid, vec_id, adist, dist,
                 row_number() OVER (PARTITION BY qid ORDER BY round(dist, 9) ASC, vec_id ASC) AS rank
          FROM exact)
SELECT qid AS query_vec_id, rank, vec_id,
       round(adist, 6) AS adist_r, round(dist, 6) AS dist_r
FROM final WHERE rank <= 10 ORDER BY query_vec_id, rank"""
    oracles["knn_pq_adc"] = f"""
WITH ev AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
                   unnest(range(len(embedding))) AS dim FROM embeddings),
sev AS (SELECT vec_id, dim // 16 AS sub, dim % 16 AS sdim, x FROM ev),
ids AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cl
        FROM embeddings ORDER BY vec_id LIMIT 16),
c0 AS (SELECT i.cl, e.sub, e.sdim, e.x AS c FROM ids i JOIN sev e USING (vec_id)),
{",".join(_pq_iters)},
{pq_codes}
{pq_lut}
adist AS (SELECT l.qid, cd.vec_id, sum(l.l) AS adist
          FROM codes cd JOIN lut l ON l.sub = cd.sub AND l.cl = cd.cl
          GROUP BY 1, 2),
{pq_rescore}
"""
    # span_containing: the span_not chain with the exclusion flipped to an
    # inclusion requirement (EXISTS instead of NOT EXISTS)
    from splade_ray.pipelines.queries import SPAN_CONTAIN_QUERIES

    span_contain_values = ", ".join(
        f"('{qid}', '{t.split()[0]}', '{t.split()[1]}', '{little}', {slop})"
        for qid, t, little, slop in SPAN_CONTAIN_QUERIES
    )
    # ordered t1..t2 spans within slop that hold the little term, BM25 over
    # the matched docs — span_containing and span_within differ only in qtf
    contain_match = f"""{_corpus(lists=True)}
{_BM25_STATS}
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM toksl),
pmatch AS (
  SELECT DISTINCT s.query_id, f1.doc_id
  FROM sset s
  JOIN flat f1 ON f1.tok = s.t1
  JOIN flat f2 ON f2.doc_id = f1.doc_id AND f2.tok = s.t2 AND f2.i > f1.i
  WHERE f2.i - f1.i - 1 <= s.slop
    AND EXISTS (
      SELECT 1 FROM flat fe
      WHERE fe.doc_id = f1.doc_id AND fe.tok = s.little AND fe.i BETWEEN f1.i AND f2.i
    )
),
{_bm25_scores(pmatch=True)}
{_ranked_tail()}"""
    oracles["span_containing_topk"] = f"""
WITH sset(query_id, t1, t2, little, slop) AS (VALUES {span_contain_values}),
qterms AS (
  SELECT query_id, t1 AS term FROM sset
  UNION ALL SELECT query_id, t2 FROM sset
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
{contain_match}
"""
    # span_within: the span_containing match CTE verbatim, but the scored
    # bag is the little term alone (the returned query in Lucene's dual)
    oracles["span_within_topk"] = f"""
WITH sset(query_id, t1, t2, little, slop) AS (VALUES {span_contain_values}),
qtf AS (SELECT query_id, little AS term, 1.0::DOUBLE AS qtf FROM sset),
{contain_match}
"""
    # collapse + inner_hits: group election and group ranking both at the
    # repo-wide round-6 collapse convention
    oracles["collapse_inner_hits"] = f"""{bm25_ctes},
best AS (
  SELECT sc.query_id, d.source AS value, sc.doc_id, sc.score,
         row_number() OVER (PARTITION BY sc.query_id, d.source
                            ORDER BY round(sc.score, 6) DESC, sc.doc_id ASC) AS inner_rank
  FROM scores sc JOIN documents d ON d.doc_id = sc.doc_id
),
winners AS (SELECT query_id, value, doc_id, score FROM best WHERE inner_rank = 1),
granks AS (
  SELECT query_id, value,
         row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id ASC) AS group_rank
  FROM winners
)
SELECT b.query_id, b.value, g.group_rank, b.inner_rank, b.doc_id, round(b.score, 6) AS score_r
FROM best b JOIN granks g ON g.query_id = b.query_id AND g.value = b.value
WHERE g.group_rank <= 3 AND b.inner_rank <= 2
ORDER BY b.query_id, g.group_rank, b.inner_rank
"""
    # frequent_item_sets: exact pairwise supports over the declared item
    # vocabulary, min support 5% (integer-exact: support*20 >= N), top 25
    from splade_ray.pipelines.queries import FIS_ITEMS, FIS_TOP

    fis_values = ", ".join(f"('{t}')" for t in FIS_ITEMS)
    oracles["frequent_item_sets"] = f"""
WITH items(item) AS (VALUES {fis_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
dt AS (SELECT DISTINCT t.doc_id, t.term FROM toks t JOIN items i ON i.item = t.term),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
pairs AS (
  SELECT a.term AS item_a, b.term AS item_b, count(*)::BIGINT AS support
  FROM dt a JOIN dt b ON b.doc_id = a.doc_id AND b.term > a.term
  GROUP BY 1, 2
)
SELECT item_a, item_b, support, round(support::DOUBLE / n.n, 6) AS ratio_r
FROM pairs, n
WHERE support * 20 >= n.n
ORDER BY support DESC, item_a, item_b
LIMIT {FIS_TOP}
"""
    # IVF-PQ: the kmeans_clusters coarse unrolling (k=4, 3 iterations) and
    # the knn_pq_adc codebook unrolling composed — probe lists prune the
    # ADC candidate set, exact rescore replays the per-dim difference form
    _ivf_coarse = []
    for it in (1, 2, 3):
        prev = f"kc{it - 1}"
        _ivf_coarse.append(
            f"""kd{it} AS (SELECT e.vec_id, c.cl, sum((e.x - c.c) * (e.x - c.c)) AS dist
        FROM ev e JOIN {prev} c USING (dim) GROUP BY 1, 2),
ka{it} AS (SELECT vec_id, cl, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn FROM kd{it}),
kc{it}m AS (SELECT a.cl, e.dim, avg(e.x) AS c FROM ka{it} a JOIN ev e USING (vec_id)
         WHERE a.rn = 1 GROUP BY 1, 2),
kc{it} AS (SELECT p.cl, p.dim, coalesce(m.c, p.c) AS c
        FROM {prev} p LEFT JOIN kc{it}m m ON m.cl = p.cl AND m.dim = p.dim)"""
        )
    oracles["knn_ivfpq"] = f"""
WITH ev AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
                   unnest(range(len(embedding))) AS dim FROM embeddings),
sev AS (SELECT vec_id, dim // 16 AS sub, dim % 16 AS sdim, x FROM ev),
kids AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cl
         FROM embeddings ORDER BY vec_id LIMIT 4),
kc0 AS (SELECT i.cl, e.dim, e.x AS c FROM kids i JOIN ev e USING (vec_id)),
{",".join(_ivf_coarse)},
kdf AS (SELECT e.vec_id, c.cl, sum((e.x - c.c) * (e.x - c.c)) AS dist
        FROM ev e JOIN kc3 c USING (dim) GROUP BY 1, 2),
kassign AS (SELECT vec_id, cl AS kcl FROM (
              SELECT vec_id, cl, row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn
              FROM kdf) WHERE rn = 1),
pids AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cl
         FROM embeddings ORDER BY vec_id LIMIT 16),
c0 AS (SELECT i.cl, e.sub, e.sdim, e.x AS c FROM pids i JOIN sev e USING (vec_id)),
{",".join(_pq_iters)},
{pq_codes}
qev AS (SELECT q.qid, e.dim, e.x FROM q JOIN ev e ON e.vec_id = q.qid),
qkd AS (SELECT qe.qid, c.cl, sum((qe.x - c.c) * (qe.x - c.c)) AS dist
        FROM qev qe JOIN kc3 c USING (dim) GROUP BY 1, 2),
probes AS (SELECT qid, cl AS kcl FROM (
             SELECT qid, cl, row_number() OVER (PARTITION BY qid ORDER BY dist, cl) AS rn
             FROM qkd) WHERE rn <= 2),
{pq_lut}
adist AS (SELECT l.qid, cd.vec_id, sum(l.l) AS adist
          FROM codes cd
          JOIN kassign ka ON ka.vec_id = cd.vec_id
          JOIN probes p ON p.kcl = ka.kcl
          JOIN lut l ON l.qid = p.qid AND l.sub = cd.sub AND l.cl = cd.cl
          GROUP BY 1, 2),
{pq_rescore}
"""

    # function_score with multiple filtered functions: the shared BM25
    # scores join the documents doc-values; the factor arithmetic replays
    # FUNCSCORE_FUNCTIONS term by term (spec constants inlined — fvf
    # 1.2*ln(1+n/500) on lang=en, gauss 2.0*exp(...) on everything,
    # +0.5 for the src1* family), capped at max_boost before the multiply
    from splade_ray.pipelines.queries import FUNCSCORE_MAX_BOOST, FUNCSCORE_MIN_SCORE

    oracles["function_score_topk"] = f"""{bm25_ctes}
, fs AS (
  SELECT s.query_id, s.doc_id, s.score,
         (CASE WHEN d.lang = 'en' THEN 1.2 * ln(1 + d.n_chars / 500.0) ELSE 0 END
          + 2.0 * exp(-pow(d.n_chars - 1200.0, 2) / (2.0 * (600.0 * 600.0 / (2.0 * ln(2.0)))))
          + CASE WHEN d.source LIKE 'src1%' THEN 0.5 ELSE 0 END) AS factor
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
),
finals AS (
  SELECT query_id, doc_id, score * LEAST(factor, {FUNCSCORE_MAX_BOOST}) AS fscore FROM fs
  WHERE score * LEAST(factor, {FUNCSCORE_MAX_BOOST}) >= {FUNCSCORE_MIN_SCORE}
),
franked AS (
  SELECT query_id, doc_id, fscore,
         row_number() OVER (PARTITION BY query_id ORDER BY round(fscore, 9) DESC, doc_id ASC) AS rank
  FROM finals
)
SELECT query_id, rank, doc_id, round(fscore, 6) AS score_r
FROM franked WHERE rank <= 10
"""
    # template mining: first-8-token shape signature, digits -> <num>
    from splade_ray.pipelines.queries import TEMPLATE_SIG_TOKENS, TEMPLATE_TOP

    oracles["template_signatures"] = f"""
WITH sigs AS (
  SELECT doc_id,
         array_to_string(
           list_transform(({_DOC_TOKS})[1:{TEMPLATE_SIG_TOKENS}],
                          t -> CASE WHEN regexp_matches(t, '[0-9]') THEN '<num>' ELSE t END),
           ' ') AS signature
  FROM documents
)
SELECT signature, count(*)::BIGINT AS n_docs, min(doc_id) AS example_doc_id
FROM sigs GROUP BY 1
ORDER BY n_docs DESC, signature ASC
LIMIT {TEMPLATE_TOP}
"""
    # HITS: 3 iterations (a <- A^T h, h <- A a, L1-normalized after each
    # half-step) unrolled over the shared pagerank edge fixture
    from splade_ray.pipelines.queries import HITS_ITERS, HITS_TOP

    _hits = []
    prev_h = "h0"
    for it in range(1, HITS_ITERS + 1):
        _hits.append(
            f"""a{it}r AS (SELECT e.dst AS doc_id, sum(p.h) AS v FROM e JOIN {prev_h} p ON p.doc_id = e.src GROUP BY 1),
a{it} AS MATERIALIZED (SELECT d.doc_id, coalesce(r.v, 0) / (SELECT sum(v) FROM a{it}r) AS a
       FROM documents d LEFT JOIN a{it}r r ON r.doc_id = d.doc_id),
h{it}r AS (SELECT e.src AS doc_id, sum(p.a) AS v FROM e JOIN a{it} p ON p.doc_id = e.dst GROUP BY 1),
h{it} AS MATERIALIZED (SELECT d.doc_id, coalesce(r.v, 0) / (SELECT sum(v) FROM h{it}r) AS h
       FROM documents d LEFT JOIN h{it}r r ON r.doc_id = d.doc_id)"""
        )
        prev_h = f"h{it}"
    oracles["hits_scores"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
{_link_edges("edges")}
e AS MATERIALIZED (SELECT src, dst FROM edges WHERE src <> dst),
h0 AS (SELECT doc_id, 1.0 AS h FROM documents),
{",".join(_hits)},
hranked AS (
  SELECT a.doc_id, a.a, h.h,
         row_number() OVER (ORDER BY round(a.a, 9) DESC, a.doc_id ASC) AS rk
  FROM a{HITS_ITERS} a JOIN h{HITS_ITERS} h USING (doc_id)
)
SELECT doc_id, round(a, 6) AS auth_r, round(h, 6) AS hub_r
FROM hranked WHERE rk <= {HITS_TOP} ORDER BY doc_id
"""
    # BPE training: word-frequency table + BPE_MERGES exact merge steps;
    # replace() on |-terminated symbol strings is greedy left-to-right
    # non-overlapping — the same semantics as the engine's str.replace
    from splade_ray.pipelines.queries import BPE_MERGES

    _bpe = []
    for it in range(1, BPE_MERGES + 1):
        _bpe.append(
            f"""p{it} AS (
  SELECT syms[j] AS a, syms[j + 1] AS b, sum(cf)::BIGINT AS cnt
  FROM (SELECT unnest(generate_series(1, len(syms) - 2)) AS j, syms, cf
        FROM (SELECT string_split(w, '|') AS syms, cf FROM w{it - 1}))
  GROUP BY 1, 2
),
b{it} AS MATERIALIZED (SELECT a, b, cnt FROM p{it} ORDER BY cnt DESC, a ASC, b ASC LIMIT 1),
w{it} AS MATERIALIZED (SELECT replace(w, (SELECT a || '|' || b || '|' FROM b{it}),
                            (SELECT a || b || '|' FROM b{it})) AS w, cf FROM w{it - 1})"""
        )
    _bpe_out = " UNION ALL ".join(
        f"SELECT {it} AS step, a AS lhs, b AS rhs, a || b AS merged, cnt AS pair_n FROM b{it}"
        for it in range(1, BPE_MERGES + 1)
    )
    oracles["bpe_merges"] = f"""
WITH toks AS (SELECT unnest({_DOC_TOKS}) AS term FROM documents),
words AS (SELECT term, count(*)::BIGINT AS cf FROM toks GROUP BY term),
w0 AS (SELECT array_to_string(string_split(term, ''), '|') || '|' AS w, cf FROM words),
{",".join(_bpe)}
{_bpe_out}
ORDER BY step
"""
    # MMR: cosine top-20 candidate pool per query, greedy lambda-tradeoff
    # selection unrolled step by step (rank 1 = pure relevance)
    from splade_ray.pipelines.queries import MMR_K, MMR_LAMBDA, MMR_POOL, MMR_QUERIES

    _lam = MMR_LAMBDA
    _mu = 1.0 - MMR_LAMBDA
    _mmr = [
        f"""s1 AS MATERIALIZED (
  SELECT qid, vec_id, {_lam} * rel AS mmr, 1 AS rank FROM cand
  QUALIFY row_number() OVER (PARTITION BY qid ORDER BY round({_lam} * rel, 9) DESC, vec_id ASC) = 1
),
sel1 AS MATERIALIZED (SELECT qid, vec_id FROM s1)"""
    ]
    for it in range(2, MMR_K + 1):
        _mmr.append(
            f"""m{it} AS MATERIALIZED (
  SELECT c.qid, c.vec_id, c.rel, max(s.sim) AS ms
  FROM cand c
  ANTI JOIN sel{it - 1} x ON x.qid = c.qid AND x.vec_id = c.vec_id
  JOIN sims s ON s.qid = c.qid AND s.va = c.vec_id
  JOIN sel{it - 1} p ON p.qid = s.qid AND p.vec_id = s.vb
  GROUP BY 1, 2, 3
),
s{it} AS MATERIALIZED (
  SELECT qid, vec_id, {_lam} * rel - {_mu} * ms AS mmr, {it} AS rank FROM m{it}
  QUALIFY row_number() OVER (PARTITION BY qid ORDER BY round({_lam} * rel - {_mu} * ms, 9) DESC, vec_id ASC) = 1
),
sel{it} AS MATERIALIZED (SELECT qid, vec_id FROM sel{it - 1} UNION ALL SELECT qid, vec_id FROM s{it})"""
        )
    _mmr_out = " UNION ALL ".join(f"SELECT * FROM s{it}" for it in range(1, MMR_K + 1))
    oracles["mmr_rerank"] = f"""
WITH emb AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
q AS (SELECT vec_id AS qid, e AS qe FROM emb ORDER BY vec_id LIMIT {MMR_QUERIES}),
rel0 AS (SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.e) AS rel
         FROM q CROSS JOIN emb e),
cand AS MATERIALIZED (SELECT qid, vec_id, rel FROM rel0
         QUALIFY row_number() OVER (PARTITION BY qid ORDER BY round(rel, 9) DESC, vec_id ASC) <= {MMR_POOL}),
sims AS MATERIALIZED (SELECT a.qid, a.vec_id AS va, b.vec_id AS vb,
                list_cosine_similarity(ea.e, eb.e) AS sim
         FROM cand a JOIN cand b ON b.qid = a.qid
         JOIN emb ea ON ea.vec_id = a.vec_id
         JOIN emb eb ON eb.vec_id = b.vec_id),
{",".join(_mmr)}
SELECT qid AS query_vec_id, rank, vec_id, round(mmr, 6) AS mmr_r
FROM ({_mmr_out})
ORDER BY query_vec_id, rank
"""

    # directional containment: the minhash/jaccard brute-force shingle
    # chain with per-direction |inter|/|set| scoring
    from splade_ray.pipelines.queries import CONTAINMENT_THRESHOLD

    oracles["containment_pairs"] = f"""
{shingle_overlap}
SELECT id_a, id_b, i::BIGINT AS inter,
       round(i::DOUBLE / sa.n, 6) AS c_ab_r, round(i::DOUBLE / sb.n, 6) AS c_ba_r
FROM inter JOIN sizes sa ON sa.doc_id = id_a JOIN sizes sb ON sb.doc_id = id_b
WHERE GREATEST(i::DOUBLE / sa.n, i::DOUBLE / sb.n) >= {CONTAINMENT_THRESHOLD}
ORDER BY id_a, id_b
"""
    # BPE applied: final word table -> subword symbol frequencies
    from splade_ray.pipelines.queries import BPE_TOP_SYMBOLS

    oracles["bpe_encode"] = f"""
WITH toks AS (SELECT unnest({_DOC_TOKS}) AS term FROM documents),
words AS (SELECT term, count(*)::BIGINT AS cf FROM toks GROUP BY term),
w0 AS (SELECT array_to_string(string_split(term, ''), '|') || '|' AS w, cf FROM words),
{",".join(_bpe)},
syms AS (
  SELECT unnest(list_slice(string_split(w, '|'), 1, len(string_split(w, '|')) - 1)) AS symbol, cf
  FROM w{BPE_MERGES}
)
SELECT symbol, sum(cf)::BIGINT AS freq FROM syms GROUP BY 1
ORDER BY freq DESC, symbol ASC LIMIT {BPE_TOP_SYMBOLS}
"""
    # variable_width_histogram: unrolled 1-D Lloyd over the (distinct
    # value, count) table — weighted updates equal the engine's raw sums
    from splade_ray.pipelines.queries import VWH_BUCKETS, VWH_ITERS

    _vwh = []
    for it in range(1, VWH_ITERS + 1):
        prev = f"vc{it - 1}"
        _vwh.append(
            f"""va{it} AS MATERIALIZED (SELECT x, n, cl FROM (
  SELECT xs.x, xs.n, c.cl,
         row_number() OVER (PARTITION BY xs.x ORDER BY (xs.x - c.c) * (xs.x - c.c), c.cl) AS r
  FROM xs CROSS JOIN {prev} c) WHERE r = 1),
vc{it} AS MATERIALIZED (SELECT p.cl, round(coalesce(u.c, p.c), 9) AS c FROM {prev} p LEFT JOIN
  (SELECT cl, sum(x * n) / sum(n) AS c FROM va{it} GROUP BY cl) u ON u.cl = p.cl)"""
        )
    oracles["variable_width_histogram"] = f"""
WITH xs AS MATERIALIZED (SELECT n_chars::DOUBLE AS x, count(*)::BIGINT AS n FROM documents GROUP BY 1),
vc0 AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY x) - 1 AS cl, round(x, 9) AS c
  FROM (SELECT DISTINCT x FROM xs) ORDER BY x LIMIT {VWH_BUCKETS}),
{",".join(_vwh)},
fin AS (SELECT x, n, cl FROM (
  SELECT xs.x, xs.n, c.cl,
         row_number() OVER (PARTITION BY xs.x ORDER BY (xs.x - c.c) * (xs.x - c.c), c.cl) AS r
  FROM xs CROSS JOIN vc{VWH_ITERS} c) WHERE r = 1)
SELECT cl AS bucket, sum(n)::BIGINT AS n_docs,
       min(x)::BIGINT AS min_chars, max(x)::BIGINT AS max_chars,
       round(sum(x * n) / sum(n), 6) AS avg_chars_r
FROM fin GROUP BY cl ORDER BY bucket
"""
    # filtered alias: segment stats over days 2-4, lang filter applied at
    # scoring only (live-docs shape — never changes df/avgdl)
    from splade_ray.pipelines.queries import ALIAS_DAYS, ALIAS_LANG, DATASTREAM_DAYS as _DS_DAYS

    oracles["alias_topk"] = f"""
WITH {_query_terms(bm25_values)}
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
sel AS (SELECT doc_id, text, lang FROM documents, nn
        WHERE doc_id * {_DS_DAYS} // nn.n >= {ALIAS_DAYS[0]} AND doc_id * {_DS_DAYS} // nn.n < {ALIAS_DAYS[1]}),
{_corpus("sel")}
{_BM25_STATS}
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN sel ON sel.doc_id = tf.doc_id AND sel.lang = '{ALIAS_LANG}'
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
{_ranked_tail()}
"""
    # percentiles_bucket + stats_bucket over the gap-free daily series
    oracles["bucket_percentiles_stats"] = f"""
WITH {_DAILY_EVENTS}
s AS (SELECT coalesce(c.n, 0)::DOUBLE AS n FROM axis a LEFT JOIN c USING (day))
SELECT round(quantile_cont(n, 0.25), 6) AS p25_r,
       round(quantile_cont(n, 0.50), 6) AS p50_r,
       round(quantile_cont(n, 0.75), 6) AS p75_r,
       min(n)::BIGINT AS min_n, max(n)::BIGINT AS max_n,
       round(avg(n), 6) AS avg_r, sum(n)::BIGINT AS sum_n
FROM s
"""
    # combined_fields (Lucene CombinedFieldQuery): one pseudo-field —
    # combined tf = Σ_f boost·tf_f, combined dl = Σ_f boost·dl_f, avgdl
    # over combined lengths, df = whole-document df — then standard BM25
    oracles["combined_fields_topk"] = f"""
WITH {_query_terms(bm25_values, compact=True)}
{field_ctes}
cdl AS (SELECT doc_id, sum((CASE WHEN field = 'title' THEN 2.0 ELSE 1.0 END) * dl) AS dl
        FROM fdl GROUP BY doc_id),
cstats AS (SELECT avg(dl) AS avgdl, count(*)::DOUBLE AS n_docs FROM cdl),
ctf AS (SELECT doc_id, term, sum((CASE WHEN field = 'title' THEN 2.0 ELSE 1.0 END) * tf) AS tf
        FROM ftf GROUP BY 1, 2),
cdf AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM ftf GROUP BY term),
scores AS (
  SELECT q.query_id, t.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
             * t.tf * 2.2 / (t.tf + 1.2 * (0.25 + 0.75 * l.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN ctf t ON t.term = q.term
  JOIN cdf d ON d.term = q.term
  JOIN cdl l ON l.doc_id = t.doc_id
  CROSS JOIN cstats s
  GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # TPC-H-Q5 star join: revenue in exact integer 1e-4 units
    oracles["regional_revenue"] = """
SELECT r.r_name AS region_name, n.n_name AS nation_name,
       round(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) / 10000.0, 6) AS revenue,
       count(*) AS n_items
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey AND s.s_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
"""
    # Heaps'-law growth: distinct-so-far at decile c == terms whose first
    # occurrence precedes the c-th decile boundary (doc_id order)
    oracles["vocab_growth"] = f"""
WITH toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
ft AS (SELECT term, min(doc_id) AS first_doc FROM toks GROUP BY term),
n AS (SELECT count(*)::BIGINT AS n_docs FROM documents),
cp AS (SELECT unnest(range(1, 11)) AS checkpoint)
SELECT cp.checkpoint::BIGINT AS checkpoint,
       ((cp.checkpoint * n.n_docs) // 10)::BIGINT AS n_docs_seen,
       (SELECT count(*) FROM ft WHERE ft.first_doc < (cp.checkpoint * n.n_docs) // 10)::BIGINT AS vocab_size
FROM cp CROSS JOIN n ORDER BY 1
"""
    # each user's earliest view, then the first click after it, then the
    # first purchase after that
    funnel_steps = """WITH s1 AS (SELECT user_id, min(ts) AS t FROM events WHERE event_type = 'view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.ts > s1.t GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.ts > s2.t GROUP BY e.user_id),"""
    # ordered funnel: earliest-feasible greedy chain view < click < purchase
    oracles["event_funnel"] = f"""
{funnel_steps}
c AS (SELECT (SELECT count(*) FROM s1) AS c1, (SELECT count(*) FROM s2) AS c2,
             (SELECT count(*) FROM s3) AS c3)
SELECT * FROM (
  SELECT 1::BIGINT AS stage, 'view' AS event_type, c1::BIGINT AS n_users,
         round(1.0, 6) AS conversion_r FROM c
  UNION ALL
  SELECT 2, 'click', c2, round(c2 / greatest(c1, 1)::DOUBLE, 6) FROM c
  UNION ALL
  SELECT 3, 'purchase', c3, round(c3 / greatest(c2, 1)::DOUBLE, 6) FROM c
) ORDER BY stage
"""
    # binary-quantized coarse scan (sign-bit agreement = (dim + ±1·±1)/2,
    # exact small-integer arithmetic on both sides) + exact cosine rescore
    oracles["knn_bq_rescore"] = f"""
WITH q0 AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
qq AS (SELECT qid, qe,
              list_transform(qe, x -> CASE WHEN x > 0 THEN 1.0 ELSE -1.0 END) AS qs
       FROM q0),
dd AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de,
              list_transform(CAST(embedding AS DOUBLE[]), x -> CASE WHEN x > 0 THEN 1.0 ELSE -1.0 END) AS ds
       FROM embeddings),
coarse AS (
  SELECT q.qid AS query_vec_id, d.vec_id, q.qe, d.de,
         (len(q.qe) + list_inner_product(d.ds, q.qs)) / 2.0 AS coarse
  FROM qq q CROSS JOIN dd d
),
cand AS (
  SELECT query_vec_id, vec_id, qe, de, coarse,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY coarse DESC, vec_id ASC) AS crank
  FROM coarse
),
{_VEC_RESCORE}
"""
    # infix dictionary expansion: LIKE '%sub%' over the derived term set,
    # then the shared expanded-OR BM25 (unit weight, per-term idf)
    from splade_ray.pipelines.queries import SUBSTRING_QUERIES

    substring_values = ", ".join(f"('{qid}', '{s}')" for qid, s in SUBSTRING_QUERIES)
    oracles["substring_topk"] = f"""
WITH sset(query_id, sub) AS (VALUES {substring_values}),
{_corpus()}
{_BM25_STATS}
expand AS (SELECT s.query_id, d.term, d.df FROM sset s JOIN df d ON d.term LIKE '%' || s.sub || '%'),
{_BM25_EXPAND_SCORES}
{_ranked_tail()}
"""
    # cohort retention: Monday-start first-activity week, distinct users
    # per (cohort, week offset) cell
    oracles["user_retention"] = """
WITH f AS (SELECT user_id, min(CAST(date_trunc('week', ts) AS DATE)) AS cw
           FROM events GROUP BY user_id),
a AS (SELECT DISTINCT e.user_id, f.cw,
             datediff('week', f.cw, CAST(date_trunc('week', e.ts) AS DATE)) AS wk
      FROM events e JOIN f USING (user_id))
SELECT cw AS cohort_week, wk::BIGINT AS week_offset, count(*) AS n_users
FROM a GROUP BY 1, 2 ORDER BY 1, 2
"""
    # A-ES weighted sample: key = ln(u)/w, u from the multiplicative hash
    # (the engine computes the identical float64 expression)
    oracles["weighted_sample"] = """
WITH k AS (
  SELECT doc_id, lang, n_chars,
         ln(((doc_id * 3266489917) % 4294967296 + 0.5) / 4294967296.0)
           / greatest(n_chars, 1)::DOUBLE AS key
  FROM documents
),
ranked AS (SELECT *, row_number() OVER (ORDER BY round(key, 9) DESC, doc_id ASC) AS rn FROM k)
SELECT doc_id, lang, n_chars, round(key, 6) AS key_r FROM ranked WHERE rn <= 50
"""
    # triangle counting: canonical a<b edges, wedges at the smallest
    # vertex, closure via the third edge
    oracles["link_triangles"] = """
WITH n AS (SELECT count(*) AS nd FROM documents),
e0 AS (
  SELECT doc_id AS s, (doc_id * 3 + 1) % n.nd AS t FROM documents, n
  UNION ALL
  SELECT doc_id, (doc_id * 7 + 2) % n.nd FROM documents, n
),
e1 AS (SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b FROM e0 WHERE s <> t),
w AS (SELECT e1.a, e1.b, e2.b AS c FROM e1 JOIN e1 e2 ON e2.a = e1.a AND e2.b > e1.b),
t AS (SELECT count(*)::BIGINT AS n_triangles
      FROM w JOIN e1 e3 ON e3.a = w.b AND e3.b = w.c)
SELECT (SELECT count(*) FROM e1)::BIGINT AS n_edges,
       (SELECT count(*) FROM w)::BIGINT AS n_wedges,
       t.n_triangles
FROM t
"""
    # MOSS winnowing: trigram rolling hashes (the shared md5 fold mod
    # 2^64), packed key = (g mod 2^44)·2^20 + (2^20-1-pos) so a window
    # MIN is min-hash-then-rightmost, w=4 windows (short docs: one whole-
    # doc window), digest = wraparound sum of the selected gram hashes
    oracles["winnowing_fps"] = f"""
WITH {_TOKEN_HASHES}
tri AS (
  SELECT doc_id, i,
         (((th * 1099511628211 + lead(th) OVER w) % 18446744073709551616)
           * 1099511628211 + lead(th, 2) OVER w) % 18446744073709551616 AS g,
         lead(th, 2) OVER w IS NOT NULL AS ok
  FROM h WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
gr AS (SELECT doc_id, i AS pos, g FROM tri WHERE ok),
m AS (SELECT doc_id, count(*) AS m FROM gr GROUP BY doc_id),
k AS (SELECT doc_id, pos, g,
             (g % 17592186044416) * 1048576 + (1048575 - pos) AS key FROM gr),
wm AS (
  SELECT doc_id, pos,
         min(key) OVER (PARTITION BY doc_id ORDER BY pos
                        ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin
  FROM k
),
wins AS (
  SELECT w.doc_id, w.wmin FROM wm w JOIN m USING (doc_id)
  WHERE w.pos <= m.m - 4 OR (m.m < 4 AND w.pos = 0)
),
sel AS (SELECT DISTINCT doc_id, 1048575 - (wmin % 1048576) AS pos FROM wins),
fps AS (SELECT s.doc_id, g.g FROM sel s JOIN gr g ON g.doc_id = s.doc_id AND g.pos = s.pos),
agg AS (SELECT doc_id, count(*)::BIGINT AS n_fps,
               sum(g) % 18446744073709551616 AS dig
        FROM fps GROUP BY doc_id)
SELECT d.doc_id, coalesce(m.m, 0)::BIGINT AS n_grams, coalesce(a.n_fps, 0)::BIGINT AS n_fps,
       CAST(CASE WHEN coalesce(a.dig, 0) >= 9223372036854775808
                 THEN coalesce(a.dig, 0) - 18446744073709551616
                 ELSE coalesce(a.dig, 0) END AS BIGINT) AS fp_digest
FROM documents d LEFT JOIN m USING (doc_id) LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""
    # shingle index: word-bigram terms on BOTH sides, bigram df/dl/avgdl
    # (zero-shingle docs still count toward n_docs/avgdl)
    from splade_ray.pipelines.queries import SHINGLE_QUERIES

    shingle_values = ", ".join(f"('{qid}', '{t}')" for qid, t in SHINGLE_QUERIES)
    oracles["shingle_topk"] = f"""
WITH qset(query_id, qtext) AS (VALUES {shingle_values}),
ql AS (SELECT query_id, {_TOK_SQL.format(col="qtext")} AS l FROM qset),
qterms AS (
  SELECT query_id, unnest(list_transform(range(len(l) - 1), i -> l[i + 1] || '_' || l[i + 2])) AS term
  FROM ql
),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY query_id, term),
base AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
sh AS (SELECT doc_id, list_transform(range(len(l) - 1), i -> l[i + 1] || '_' || l[i + 2]) AS s FROM base),
toks AS (SELECT doc_id, unnest(s) AS term FROM sh),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY doc_id, term),
fdl AS (SELECT doc_id, len(s)::DOUBLE AS dl FROM sh),
stats AS (SELECT avg(dl) AS avgdl, count(*)::DOUBLE AS n_docs FROM fdl),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * fdl.dl / s.avgdl))) AS score
  FROM qtf q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN fdl ON fdl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
{_ranked_tail(sep=" ")}
"""
    # interpolated bigram LM: P(w|v) = 0.7·c(vw)/c(v) + 0.3·c(w)/N, per-doc
    # mean −ln P over bigram positions (docs with < 2 tokens excluded)
    oracles["bigram_perplexity"] = f"""
WITH {_TOKEN_POSITIONS}
uni AS (SELECT tok, count(*)::DOUBLE AS c FROM flat GROUP BY tok),
n AS (SELECT count(*)::DOUBLE AS n FROM flat),
pairs AS (
  SELECT doc_id, tok AS prev, lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS cur
  FROM flat QUALIFY cur IS NOT NULL
),
bi AS (SELECT prev, cur, count(*)::DOUBLE AS c FROM pairs GROUP BY 1, 2),
scored AS (
  SELECT p.doc_id, ln(0.7 * b.c / up.c + (1.0 - 0.7) * uc.c / n.n) AS lnp
  FROM pairs p
  JOIN bi b ON b.prev = p.prev AND b.cur = p.cur
  JOIN uni up ON up.tok = p.prev
  JOIN uni uc ON uc.tok = p.cur
  CROSS JOIN n
),
agg AS (SELECT doc_id, count(*) AS n_pairs, -avg(lnp) AS ce FROM scored GROUP BY doc_id)
SELECT doc_id, n_pairs, round(ce, 6) AS cross_entropy_r, round(exp(ce), 6) AS ppl_r
FROM agg ORDER BY doc_id
"""
    # personalized PageRank: restart vector uniform over the lang='en'
    # seed set, 3 unrolled power iterations at damping 0.85
    oracles["personalized_pagerank"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
seeds AS (SELECT doc_id FROM documents WHERE lang = 'en'),
ns AS (SELECT count(*)::DOUBLE AS k FROM seeds),
{_link_edges()}
e AS (SELECT src, dst FROM e0 WHERE src <> dst),
od AS (SELECT src, count(*)::DOUBLE AS d FROM e GROUP BY src),
r0 AS (SELECT d.doc_id, CASE WHEN s.doc_id IS NULL THEN 0.0 ELSE 1.0 / (SELECT k FROM ns) END AS pr
       FROM documents d LEFT JOIN seeds s USING (doc_id)),
c1 AS (SELECT e.dst, sum(r0.pr / od.d) AS s FROM e JOIN r0 ON r0.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r1 AS (SELECT r0.doc_id, 0.15 * r0.pr / 1.0 + 0.85 * coalesce(c1.s, 0) AS pr,
              r0.pr AS rv FROM r0 LEFT JOIN c1 ON c1.dst = r0.doc_id),
c2 AS (SELECT e.dst, sum(r1.pr / od.d) AS s FROM e JOIN r1 ON r1.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r2 AS (SELECT r1.doc_id, 0.15 * r1.rv + 0.85 * coalesce(c2.s, 0) AS pr,
              r1.rv FROM r1 LEFT JOIN c2 ON c2.dst = r1.doc_id),
c3 AS (SELECT e.dst, sum(r2.pr / od.d) AS s FROM e JOIN r2 ON r2.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r3 AS (SELECT r2.doc_id, 0.15 * r2.rv + 0.85 * coalesce(c3.s, 0) AS pr FROM r2 LEFT JOIN c3 ON c3.dst = r2.doc_id),
rk AS (SELECT doc_id, pr, row_number() OVER (ORDER BY round(pr, 9) DESC, doc_id ASC) AS rn FROM r3)
SELECT doc_id, round(pr, 6) AS ppr_r FROM rk WHERE rn <= 50 ORDER BY doc_id
"""
    # serial_diff(7) + min-max normalize over the gap-free daily series;
    # the first 7 buckets have no complete lag and are dropped
    oracles["serial_diff_events"] = f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n FROM axis a LEFT JOIN c USING (day)),
mm AS (SELECT min(n)::DOUBLE AS lo, max(n)::DOUBLE AS hi FROM s),
w AS (
  SELECT day, n,
         n - lag(n, 7) OVER (ORDER BY day) AS diff7,
         row_number() OVER (ORDER BY day) AS rn
  FROM s
)
SELECT w.day, w.n AS n_events, w.diff7::BIGINT AS diff7,
       round(CASE WHEN mm.hi > mm.lo THEN (w.n - mm.lo) / (mm.hi - mm.lo) ELSE 0.0 END, 6) AS norm_r
FROM w, mm WHERE w.rn > 7 ORDER BY w.day
"""
    # per-language greedy char-budget fill: take in (n_chars DESC, doc_id)
    # order while the running total stays within the 20k budget
    oracles["char_budget_sample"] = """
WITH ordered AS (
  SELECT lang, doc_id, n_chars,
         sum(n_chars) OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC
                            ROWS UNBOUNDED PRECEDING) AS cum_chars
  FROM documents
)
SELECT lang, doc_id, n_chars, cum_chars::BIGINT AS cum_chars
FROM ordered WHERE cum_chars <= 20000 ORDER BY lang, doc_id
"""
    # full Gopher rule set: word-count / mean-word-length windows,
    # required-word floor, dup-token / top-bigram / longest-run caps
    oracles["gopher_rules_kept"] = f"""
WITH t AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
flat AS (SELECT doc_id, unnest(l) AS tok, unnest(range(len(l))) AS i FROM t),
base AS (
  SELECT doc_id, len(l)::BIGINT AS n_tok,
         CASE WHEN len(l) = 0 THEN 0.0
              ELSE list_aggregate(list_transform(l, x -> length(x)::DOUBLE), 'sum') / len(l) END AS mwl
  FROM t
),
req AS (SELECT doc_id, count(*) FILTER (tok IN ('the', 'a', 'and', 'of', 'to'))::BIGINT AS req
        FROM flat GROUP BY doc_id),
dst AS (SELECT doc_id, count(DISTINCT tok)::DOUBLE AS nd, count(*)::DOUBLE AS nt FROM flat GROUP BY doc_id),
bg AS (SELECT doc_id, tok AS t0, lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS t1
       FROM flat QUALIFY t1 IS NOT NULL),
bgc AS (SELECT doc_id, max(c)::DOUBLE / sum(c) AS tb
        FROM (SELECT doc_id, t0, t1, count(*) AS c FROM bg GROUP BY 1, 2, 3) GROUP BY doc_id),
runs AS (SELECT doc_id, tok, i - row_number() OVER (PARTITION BY doc_id, tok ORDER BY i) AS g FROM flat),
mr AS (SELECT doc_id, max(c)::BIGINT AS max_run
       FROM (SELECT doc_id, count(*) AS c FROM runs GROUP BY doc_id, tok, g) GROUP BY doc_id)
SELECT b.doc_id, b.n_tok AS n_tokens, round(b.mwl, 6) AS mean_wlen_r,
       coalesce(r.req, 0) AS req_hits,
       round(coalesce((d.nt - d.nd) / d.nt, 0), 6) AS dup_frac_r,
       round(coalesce(g.tb, 0), 6) AS top_bigram_frac_r,
       coalesce(m.max_run, 0) AS max_run,
       (b.n_tok BETWEEN 20 AND 90 AND b.mwl BETWEEN 3.0 AND 10.0
        AND coalesce(r.req, 0) >= 2 AND coalesce((d.nt - d.nd) / d.nt, 0) <= 0.7
        AND coalesce(g.tb, 0) <= 0.06 AND coalesce(m.max_run, 0) <= 2) AS kept
FROM base b
LEFT JOIN req r USING (doc_id) LEFT JOIN dst d USING (doc_id)
LEFT JOIN bgc g USING (doc_id) LEFT JOIN mr m USING (doc_id)
ORDER BY b.doc_id
"""
    # lang-ID confidence: top-2 stopword-profile scores + margin (the
    # same profile CTEs as lang_id_preds)
    oracles["doc_language_confidence"] = f"""
{lang_ctes},
d AS (
  SELECT doc_id, nchar, n_hangul, n_han, n_tok, s_en, s_de, s_es, s_fr,
         list_sort([s_en, s_de, s_es, s_fr]) AS ls
  FROM s
)
SELECT doc_id,
{lang_pred},
  round(CASE WHEN n_tok = 0 THEN 0.0 ELSE ls[4] END, 6) AS score1_r,
  round(CASE WHEN n_tok = 0 THEN 0.0 ELSE ls[3] END, 6) AS score2_r,
  round(CASE WHEN n_tok = 0 THEN 0.0 ELSE ls[4] - ls[3] END, 6) AS margin_r
FROM d ORDER BY doc_id
"""
    oracles["knn_ivf_filtered"] = oracles["knn_cosine_filtered"]
    # CCNet end-to-end selection: same LM + ntile CTEs as ccnet_buckets,
    # keep head everywhere + middle for 'en'
    oracles["ccnet_corpus_kept"] = f"""
{ccnet_ctes}
SELECT doc_id, lang,
       CASE b WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END AS bucket,
       ppl_r
FROM nt WHERE b = 1 OR (lang = 'en' AND b = 2) ORDER BY doc_id
"""
    # radius search: every vector at cosine >= 0.25, no ranking cut
    oracles["knn_radius"] = """
WITH q AS (SELECT vec_id AS query_vec_id, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
s AS (
  SELECT q.query_vec_id, e.vec_id,
         list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS score
  FROM q CROSS JOIN embeddings e
)
SELECT query_vec_id, vec_id, round(score, 6) AS score_r
FROM s WHERE score >= 0.25 ORDER BY query_vec_id, vec_id
"""
    # each label's centroid (cent, norm cn), each vector's norm vn and its
    # dot product with its own label's centroid — label_prototypes, label_scatter
    label_centroids = """WITH ev AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
flatv AS (SELECT vec_id, label, unnest(e) AS x, unnest(range(len(e))) AS dim FROM ev),
cent AS (SELECT label, dim, avg(x) AS c FROM flatv GROUP BY label, dim),
cn AS (SELECT label, sqrt(sum(c * c)) AS n FROM cent GROUP BY label),
vn AS (SELECT vec_id, sqrt(list_inner_product(e, e)) AS n FROM ev),
dots AS (
  SELECT f.vec_id, f.label, sum(f.x * c.c) AS dot
  FROM flatv f JOIN cent c ON c.label = f.label AND c.dim = f.dim
  GROUP BY f.vec_id, f.label
),"""
    # per-label prototypes: cosine of each member to its label centroid,
    # top 5 per label by (round(score,9) DESC, vec_id)
    oracles["label_prototypes"] = f"""
{label_centroids}
s AS (
  SELECT d.label, d.vec_id, d.dot / (v.n * c.n) AS score
  FROM dots d JOIN vn v USING (vec_id) JOIN cn c USING (label)
),
ranked AS (
  SELECT label, vec_id, score,
         row_number() OVER (PARTITION BY label ORDER BY round(score, 9) DESC, vec_id ASC) AS rank
  FROM s
)
SELECT label::BIGINT AS label, rank, vec_id, round(score, 6) AS score_r
FROM ranked WHERE rank <= 5 ORDER BY label, rank
"""
    # directed association rules over the FIS incidence: conf = c(ab)/c(a),
    # lift = N·c(ab)/(c(a)·c(b)), support floor 3%, top-25 by lift
    oracles["association_rules"] = f"""
WITH items(item) AS (VALUES {fis_values}),
toks AS (SELECT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
dt AS (SELECT DISTINCT t.doc_id, t.term FROM toks t JOIN items i ON i.item = t.term),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
sing AS (SELECT term, count(*)::BIGINT AS c FROM dt GROUP BY term),
pairs AS (
  SELECT a.term AS antecedent, b.term AS consequent, count(*)::BIGINT AS support
  FROM dt a JOIN dt b ON b.doc_id = a.doc_id AND b.term <> a.term
  GROUP BY 1, 2
),
rules AS (
  SELECT p.antecedent, p.consequent, p.support,
         p.support::DOUBLE / sa.c AS conf,
         (p.support::DOUBLE * n.n) / (sa.c * sb.c) AS lift
  FROM pairs p
  JOIN sing sa ON sa.term = p.antecedent
  JOIN sing sb ON sb.term = p.consequent
  CROSS JOIN n
  WHERE p.support * 1000 >= 30 * n.n
)
SELECT antecedent, consequent, support, round(conf, 6) AS confidence_r, round(lift, 6) AS lift_r
FROM rules
ORDER BY round(lift, 9) DESC, antecedent, consequent
LIMIT 25
"""
    # funnel latency: seconds from the stage-1 view to the stage-3
    # purchase along the earliest-feasible chain, converting users only
    oracles["funnel_latency"] = f"""
{funnel_steps}
lat AS (SELECT epoch(s3.t) - epoch(s1.t) AS lat_s FROM s3 JOIN s1 USING (user_id))
SELECT count(*)::BIGINT AS n_converted,
       round(coalesce(quantile_cont(lat_s, 0.5), 0), 6) AS p50_r,
       round(coalesce(quantile_cont(lat_s, 0.9), 0), 6) AS p90_r,
       round(coalesce(avg(lat_s), 0), 6) AS mean_r
FROM lat
"""
    # per-label scatter: mean (1 − cos(member, centroid)) + the nearest
    # other centroid by cosine with its separation distance
    oracles["label_scatter"] = f"""
{label_centroids}
scat AS (
  SELECT d.label, count(*)::BIGINT AS n_vecs,
         avg(1.0 - d.dot / (v.n * c.n)) AS mean_dist
  FROM dots d JOIN vn v USING (vec_id) JOIN cn c USING (label)
  GROUP BY d.label
),
cc AS (
  SELECT a.label AS la, b.label AS lb,
         sum(a.c * b.c) / (any_value(na.n) * any_value(nb.n)) AS cos
  FROM cent a JOIN cent b ON b.dim = a.dim AND b.label <> a.label
  JOIN cn na ON na.label = a.label JOIN cn nb ON nb.label = b.label
  GROUP BY a.label, b.label
),
near AS (
  SELECT la AS label, lb AS nearest_label, 1.0 - cos AS sep,
         row_number() OVER (PARTITION BY la ORDER BY round(cos, 9) DESC, lb ASC) AS rn
  FROM cc
)
SELECT s.label::BIGINT AS label, s.n_vecs, round(s.mean_dist, 6) AS mean_dist_r,
       n.nearest_label::BIGINT AS nearest_label, round(n.sep, 6) AS sep_r
FROM scat s JOIN near n ON n.label = s.label AND n.rn = 1
ORDER BY s.label
"""
    # ColBERT MaxSim: hash token embeddings v_d(t) = 2·md5/2^64 − 1,
    # score = Σ_qterm qtf · max over the doc's distinct terms of cosine
    oracles["colbert_maxsim_topk"] = f"""
WITH qset(query_id, qtext) AS (VALUES {bm25_values}),
qterms AS (SELECT query_id, unnest({_TOK_SQL.format(col="qtext")}) AS term FROM qset),
qtf AS (SELECT query_id, term, count(*)::DOUBLE AS qtf FROM qterms GROUP BY 1, 2),
dterms AS (SELECT DISTINCT doc_id, unnest({_DOC_TOKS}) AS term FROM documents),
allt AS (SELECT DISTINCT term FROM qtf UNION SELECT DISTINCT term FROM dterms),
vec AS (
  SELECT term, dd.d AS dim,
         2.0 * (md5_number_lower(term || '|' || dd.d) / 18446744073709551616.0) - 1.0 AS x
  FROM allt, (SELECT unnest(range(8)) AS d) dd
),
nrm AS (SELECT term, sqrt(sum(x * x)) AS n FROM vec GROUP BY term),
cospair AS (
  SELECT a.term AS qt, b.term AS dt,
         sum(va.x * vb.x) / (any_value(na.n) * any_value(nb.n)) AS cos
  FROM (SELECT DISTINCT term FROM qtf) a
  JOIN vec va ON va.term = a.term
  JOIN (SELECT DISTINCT term FROM dterms) b ON true
  JOIN vec vb ON vb.term = b.term AND vb.dim = va.dim
  JOIN nrm na ON na.term = a.term
  JOIN nrm nb ON nb.term = b.term
  GROUP BY a.term, b.term
),
maxsim AS (
  SELECT cp.qt, d.doc_id, max(cp.cos) AS ms
  FROM dterms d JOIN cospair cp ON cp.dt = d.term
  GROUP BY cp.qt, d.doc_id
),
scores AS (
  SELECT q.query_id, m.doc_id, sum(q.qtf * m.ms) AS score
  FROM qtf q JOIN maxsim m ON m.qt = q.term
  GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # sloppy phrase: ordered pairs a…b with p_b − p_a ≤ slop+1 weighted
    # 1/distance into one saturated phrase frequency, idf summed per term
    from splade_ray.pipelines.queries import SLOPPY_QUERIES

    sloppy_values = ", ".join(f"('{qid}', '{a}', '{b}', {s})" for qid, a, b, s in SLOPPY_QUERIES)
    oracles["sloppy_phrase_topk"] = f"""
WITH qset(query_id, ta, tb, slop) AS (VALUES {sloppy_values}),
{_TOKEN_POSITIONS}
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM flat GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs, (SELECT avg(dl) FROM dl) AS avgdl),
df AS (SELECT tok, count(DISTINCT doc_id)::DOUBLE AS df FROM flat GROUP BY tok),
idf AS (
  SELECT q.query_id, q.slop,
         ln(1 + (s.n_docs - da.df + 0.5) / (da.df + 0.5))
           + ln(1 + (s.n_docs - db.df + 0.5) / (db.df + 0.5)) AS idf_sum
  FROM qset q JOIN df da ON da.tok = q.ta JOIN df db ON db.tok = q.tb CROSS JOIN stats s
),
pairs AS (
  SELECT q.query_id, fa.doc_id, sum(1.0 / (fb.i - fa.i)) AS sf
  FROM qset q
  JOIN flat fa ON fa.tok = q.ta
  JOIN flat fb ON fb.doc_id = fa.doc_id AND fb.tok = q.tb
             AND fb.i > fa.i AND fb.i - fa.i <= q.slop + 1
  GROUP BY q.query_id, fa.doc_id
),
scores AS (
  SELECT p.query_id, p.doc_id,
         i.idf_sum * p.sf * 2.2 / (p.sf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS score
  FROM pairs p
  JOIN idf i ON i.query_id = p.query_id
  JOIN dl ON dl.doc_id = p.doc_id
  CROSS JOIN stats s
),
{_ranked_tail(sep=" ")}
"""
    # soft dedup: transitive near-dup clusters (the dedup_clusters CTEs),
    # members weighted 1/|cluster|, singletons 1.0
    oracles["soft_dedup_weights"] = f"""
{cc_ctes},
cs AS (SELECT cluster_id, count(*)::DOUBLE AS n FROM comp GROUP BY cluster_id),
w AS (SELECT c.doc_id, 1.0 / s.n AS w FROM comp c JOIN cs s USING (cluster_id))
SELECT d.doc_id, d.lang, round(coalesce(w.w, 1.0), 6) AS weight_r
FROM documents d LEFT JOIN w USING (doc_id) ORDER BY d.doc_id
"""
    # ERR@10: cascade model with binary relevance R = 0.5 — the product
    # telescopes into 0.5^(relevant above r), counted by a window sum
    oracles["err_at10"] = f"""{bm25_ctes}
, hits AS (
  SELECT r.query_id, r.rank, CASE WHEN q.doc_id IS NOT NULL THEN 1 ELSE 0 END AS rel
  FROM ranked r LEFT JOIN qrels q ON r.query_id = q.query_id AND r.doc_id = q.doc_id
  WHERE r.rank <= 10
),
w AS (
  SELECT query_id, rank, rel,
         coalesce(sum(rel) OVER (PARTITION BY query_id ORDER BY rank
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev_rel
  FROM hits
),
per AS (
  SELECT query_id,
         sum(CASE WHEN rel = 1 THEN 0.5 * power(0.5, prev_rel) / rank ELSE 0 END) AS err
  FROM w GROUP BY query_id
)
SELECT query_id, round(err, 6) AS err_r FROM per
WHERE query_id IN (SELECT DISTINCT query_id FROM qrels)
ORDER BY query_id
"""
    # static pruning: per-term impacts ranked (round(w,9) DESC, doc ASC),
    # keep rank <= ceil(0.5·df), then the usual qtf-weighted sum
    oracles["pruned_index_topk"] = f"""
WITH {_query_terms(bm25_values, compact=True)}
{_corpus()}
{_BM25_STATS}
w AS (
  SELECT tf.term, tf.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl)) AS w
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats s
),
pr AS (
  SELECT term, doc_id, w,
         row_number() OVER (PARTITION BY term ORDER BY round(w, 9) DESC, doc_id ASC) AS rn,
         count(*) OVER (PARTITION BY term) AS dfn
  FROM w
),
kept AS (SELECT term, doc_id, w FROM pr WHERE rn <= ceil(0.5 * dfn)),
scores AS (
  SELECT q.query_id, k.doc_id, sum(q.qtf * k.w) AS score
  FROM qtf q JOIN kept k ON k.term = q.term GROUP BY 1, 2
),
{_ranked_tail(sep=" ")}
"""
    # temporal drift: early/late halves by doc_id, smoothed df log-odds
    oracles["trending_terms"] = f"""
WITH toks AS (SELECT doc_id, {_DOC_TOKS} AS l FROM documents),
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
dt AS (SELECT DISTINCT doc_id, unnest(l) AS term FROM toks),
h AS (
  SELECT term,
         sum(CASE WHEN doc_id < (SELECT n FROM nn) // 2 THEN 1 ELSE 0 END)::DOUBLE AS df_e,
         sum(CASE WHEN doc_id >= (SELECT n FROM nn) // 2 THEN 1 ELSE 0 END)::DOUBLE AS df_l
  FROM dt GROUP BY term
),
s AS (
  SELECT term, df_e, df_l,
         ln((df_l + 0.5) / ((SELECT n FROM nn) - (SELECT n FROM nn) // 2 - df_l + 0.5))
           - ln((df_e + 0.5) / ((SELECT n FROM nn) // 2 - df_e + 0.5)) AS lo
  FROM h WHERE df_e + df_l >= 10
),
ranked AS (
  SELECT term, df_e, df_l, lo,
         row_number() OVER (ORDER BY round(lo, 9) DESC, term ASC) AS rn
  FROM s
)
SELECT term, df_e::BIGINT AS df_early, df_l::BIGINT AS df_late, round(lo, 6) AS logodds_r
FROM ranked WHERE rn <= 20 ORDER BY rn
"""
    # RM3: fb = BM25 top-10; expansion w(t) = idf·Σ tf/dl over fb docs,
    # top-5 non-query terms; reformulated weights 0.6·qtf ∪ 0.4·w/max_w
    oracles["rm3_topk"] = f"""{bm25_ctes}
, fb AS (SELECT query_id, doc_id FROM ranked WHERE rank <= 10),
fbw AS (
  SELECT f.query_id, t.term, sum(t.tf / dl.dl) AS s
  FROM fb f JOIN tf t ON t.doc_id = f.doc_id JOIN dl ON dl.doc_id = f.doc_id
  GROUP BY 1, 2
),
exp0 AS (
  SELECT w.query_id, w.term,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) * w.s AS wv
  FROM fbw w JOIN df USING (term) CROSS JOIN stats s
  WHERE NOT EXISTS (SELECT 1 FROM qtf q WHERE q.query_id = w.query_id AND q.term = w.term)
),
expr AS (
  SELECT query_id, term, wv,
         row_number() OVER (PARTITION BY query_id ORDER BY round(wv, 9) DESC, term ASC) AS rn
  FROM exp0
),
expk AS (SELECT query_id, term, wv FROM expr WHERE rn <= 5),
mx AS (SELECT query_id, max(wv) AS mw FROM expk GROUP BY query_id),
qw2 AS (
  SELECT query_id, term, 0.6 * qtf AS w FROM qtf
  UNION ALL
  SELECT e.query_id, e.term, (1.0 - 0.6) * e.wv / m.mw FROM expk e JOIN mx m USING (query_id)
),
scores2 AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
  FROM qw2 q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
{_ranked_tail(src="scores2", sep=" ", name="ranked2")}
"""
    # robust-z anomaly days: (x − median)/(1.4826·MAD), |z| > 2.5 flags
    oracles["anomaly_days"] = f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n FROM axis a LEFT JOIN c USING (day)),
med AS (SELECT median(n::DOUBLE) AS m FROM s),
mad AS (SELECT median(abs(s.n - med.m)) AS d FROM s, med),
z AS (
  SELECT s.day, s.n,
         (s.n - med.m) / (CASE WHEN mad.d > 0 THEN 1.4826 * mad.d ELSE 1.0 END) AS z
  FROM s, med, mad
)
SELECT day, n AS n_events, round(z, 6) AS z_r, abs(z) > 2.5 AS is_anomaly
FROM z ORDER BY day
"""
    # Matryoshka rescore: coarse = cosine over the first 16 dims (MRL
    # prefix property), exact full-dim cosine re-ranks the top-30
    oracles["knn_mrl_rescore"] = f"""
WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
d AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
coarse AS (
  SELECT q.qid AS query_vec_id, d.vec_id, q.qe, d.de,
         list_cosine_similarity(q.qe[1:16], d.de[1:16]) AS coarse
  FROM q CROSS JOIN d
),
cand AS (
  SELECT query_vec_id, vec_id, qe, de, coarse,
         row_number() OVER (PARTITION BY query_vec_id ORDER BY round(coarse, 9) DESC, vec_id ASC) AS crank
  FROM coarse
),
{_VEC_RESCORE}
"""
    # clarity (QPP): KL between the fb-doc mixture LM and the corpus LM
    oracles["clarity_scores"] = f"""{bm25_ctes}
, fb AS (SELECT query_id, doc_id FROM ranked WHERE rank <= 10),
nfb AS (SELECT query_id, count(*)::DOUBLE AS n FROM fb GROUP BY query_id),
cf AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY term),
tot AS (SELECT count(*)::DOUBLE AS t FROM toks),
pr AS (
  SELECT f.query_id, t.term, sum(t.tf / dl.dl) / any_value(n.n) AS p
  FROM fb f
  JOIN tf t ON t.doc_id = f.doc_id
  JOIN dl ON dl.doc_id = f.doc_id
  JOIN nfb n ON n.query_id = f.query_id
  GROUP BY 1, 2
),
kl AS (
  SELECT pr.query_id, sum(pr.p * log2(pr.p / (cf.c / tot.t))) AS clarity
  FROM pr JOIN cf USING (term) CROSS JOIN tot
  GROUP BY pr.query_id
)
SELECT query_id, round(clarity, 6) AS clarity_r FROM kl ORDER BY query_id
"""
    # day-of-week profile: ISO weekday totals + per-day average + lift
    oracles["dow_seasonality"] = f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n FROM axis a LEFT JOIN c USING (day)),
ov AS (SELECT avg(n::DOUBLE) AS m FROM s)
SELECT isodow(day)::BIGINT AS dow, sum(n)::BIGINT AS n_events,
       round(avg(n::DOUBLE), 6) AS avg_per_day_r,
       round(avg(n::DOUBLE) / (SELECT m FROM ov), 6) AS lift_r
FROM s GROUP BY 1 ORDER BY 1
"""
    # cumulative_sum pipeline agg: gap-free day axis + running total
    oracles["cumulative_sum_daily"] = f"""
WITH {_DAILY_EVENTS}
s AS (SELECT a.day, coalesce(c.n, 0)::BIGINT AS n FROM axis a LEFT JOIN c USING (day))
SELECT CAST(day AS TIMESTAMP) AS day, n AS n_events,
       sum(n) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_n
FROM s ORDER BY day
"""
    # bucket_script: per-day purchase/view ratio, view=0 buckets dropped
    oracles["bucket_script_ratio"] = """
WITH c AS (
  SELECT CAST(date_trunc('day', ts) AS DATE) AS day,
         count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
         count(*) FILTER (event_type = 'view')::BIGINT AS n_view
  FROM events WHERE event_type IN ('purchase', 'view') GROUP BY 1
)
SELECT CAST(day AS TIMESTAMP) AS day, n_purchase, n_view,
       round(n_purchase::DOUBLE / n_view, 6) AS ratio_r
FROM c WHERE n_view > 0 ORDER BY day
"""
    # Zipf fit: ln(cf) ~ ln(rank) over the top-1000 term head
    oracles["zipf_slope"] = f"""
WITH toks AS (SELECT unnest({_DOC_TOKS}) AS term FROM documents),
cf AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY term),
rk AS (SELECT term, c, row_number() OVER (ORDER BY c DESC, term ASC) AS r FROM cf),
sel AS (SELECT ln(r::DOUBLE) AS x, ln(c) AS y FROM rk WHERE r <= 1000)
SELECT count(*)::BIGINT AS n_terms,
       round(regr_slope(y, x), 6) AS slope_r,
       round(regr_intercept(y, x), 6) AS intercept_r
FROM sel
"""
    # in-degree histogram of the link fixture (indeg-0 nodes included)
    oracles["degree_hist"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
{_link_edges()}
e AS (SELECT src, dst FROM e0 WHERE src <> dst),
ind AS (
  SELECT d.doc_id, count(e.dst)::BIGINT AS indeg
  FROM documents d LEFT JOIN e ON e.dst = d.doc_id GROUP BY d.doc_id
)
SELECT indeg, count(*)::BIGINT AS n_nodes FROM ind GROUP BY indeg ORDER BY indeg
"""
    # weighted PageRank: the link_pagerank CTE chain with w = 1+(src+dst)%3
    # edge weights and rank·w/W transitions; round-9 selection like PPR
    oracles["weighted_pagerank"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
{_link_edges()}
e AS (SELECT src, dst, (1 + (src + dst) % 3)::DOUBLE AS w FROM e0 WHERE src <> dst),
od AS (SELECT src, sum(w) AS wd FROM e GROUP BY src),
r0 AS (SELECT doc_id, 1.0 / (SELECT n FROM nn) AS pr FROM documents),
c1 AS (SELECT e.dst, sum(r0.pr / od.wd * e.w) AS s FROM e JOIN r0 ON r0.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r1 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c1.s, 0) AS pr FROM documents d LEFT JOIN c1 ON c1.dst = d.doc_id),
c2 AS (SELECT e.dst, sum(r1.pr / od.wd * e.w) AS s FROM e JOIN r1 ON r1.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r2 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c2.s, 0) AS pr FROM documents d LEFT JOIN c2 ON c2.dst = d.doc_id),
c3 AS (SELECT e.dst, sum(r2.pr / od.wd * e.w) AS s FROM e JOIN r2 ON r2.doc_id = e.src JOIN od ON od.src = e.src GROUP BY e.dst),
r3 AS (SELECT d.doc_id, 0.15 / (SELECT n FROM nn) + 0.85 * coalesce(c3.s, 0) AS pr FROM documents d LEFT JOIN c3 ON c3.dst = d.doc_id),
rk AS (SELECT doc_id, pr, row_number() OVER (ORDER BY round(pr, 9) DESC, doc_id ASC) AS rn FROM r3)
SELECT doc_id, round(pr, 6) AS pr_r FROM rk WHERE rn <= 50 ORDER BY doc_id
"""
    # label propagation: 3 synchronized rounds unrolled; per-round winner =
    # argmax neighbor-label count with (c DESC, label ASC) election
    oracles["label_propagation"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
{_link_edges()}
e AS (SELECT src, dst FROM e0 WHERE src <> dst),
e2 AS (SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e),
l0 AS (SELECT doc_id AS node, doc_id AS label FROM documents),
c1 AS (SELECT e2.dst AS node, l0.label, count(*)::BIGINT AS c FROM e2 JOIN l0 ON l0.node = e2.src GROUP BY 1, 2),
w1 AS (SELECT node, label FROM (SELECT node, label, row_number() OVER (PARTITION BY node ORDER BY c DESC, label ASC) AS rn FROM c1) WHERE rn = 1),
l1 AS (SELECT l0.node, coalesce(w1.label, l0.label) AS label FROM l0 LEFT JOIN w1 USING (node)),
c2 AS (SELECT e2.dst AS node, l1.label, count(*)::BIGINT AS c FROM e2 JOIN l1 ON l1.node = e2.src GROUP BY 1, 2),
w2 AS (SELECT node, label FROM (SELECT node, label, row_number() OVER (PARTITION BY node ORDER BY c DESC, label ASC) AS rn FROM c2) WHERE rn = 1),
l2 AS (SELECT l1.node, coalesce(w2.label, l1.label) AS label FROM l1 LEFT JOIN w2 USING (node)),
c3 AS (SELECT e2.dst AS node, l2.label, count(*)::BIGINT AS c FROM e2 JOIN l2 ON l2.node = e2.src GROUP BY 1, 2),
w3 AS (SELECT node, label FROM (SELECT node, label, row_number() OVER (PARTITION BY node ORDER BY c DESC, label ASC) AS rn FROM c3) WHERE rn = 1),
l3 AS (SELECT l2.node, coalesce(w3.label, l2.label) AS label FROM l2 LEFT JOIN w3 USING (node))
SELECT label, count(*)::BIGINT AS n_members
FROM l3 GROUP BY label ORDER BY n_members DESC, label ASC LIMIT 20
"""
    # the *_dist variants run the identical computation through the
    # vertex-partitioned graph engine — same contract, same oracle
    oracles["link_pagerank_dist"] = oracles["link_pagerank"]
    oracles["personalized_pagerank_dist"] = oracles["personalized_pagerank"]
    oracles["hits_scores_dist"] = oracles["hits_scores"]
    return oracles
