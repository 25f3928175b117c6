"""Engine configuration.

The reference (hyukkyukang/SPLADE) declares its physical constants in Hydra
configs (``config/encoding/_base.yaml``: batch 512, shard 100k docs, doc-vector
top-k 4096; ``config/testing/_base.yaml``: eval k-list [1,5,10,50,100]).  It
has *no* BM25 anywhere (doc-only query scoring is a plain bag-of-words dot
product, ``src/model/retriever/sparse/neural/splade.py:243-265``), so this
engine fixes ``k1=1.2, b=0.75`` itself and the pytest oracle uses the same
constants (see SURVEY.md §0).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """All knobs of the index build + query engine.

    Deterministic-contract fields (changing them changes doc ids / scores and
    therefore the oracle): ``num_buckets``, ``shard_size``, ``k1``, ``b``,
    ``token_pattern``.
    """

    # --- BM25 scoring (engine-defined; reference has none — SURVEY.md §0) ---
    k1: float = 1.2
    b: float = 0.75
    # similarity plugged at READ time over the same stored raw-tf postings
    # (Lucene Similarity seam): "bm25" (default), "lm_dirichlet" —
    # per-posting w = max(0, ln(1 + tf·T/(mu·cf)) + ln(mu/(dl+mu)))
    # (Zhai-Lafferty Dirichlet smoothing, Lucene LMDirichletSimilarity's
    # non-negative clamp) — or "lm_jm" (Jelinek-Mercer interpolation,
    # Lucene LMJelinekMercerSimilarity) —
    # w = ln(1 + (1-λ)·(tf/dl) / (λ·cf/T)), always positive for tf>0 —
    # or "classic" (Lucene pre-8 ClassicSimilarity / TFIDFSimilarity):
    # w = sqrt(tf)·(1 + ln((N+1)/(df+1)))²/sqrt(dl) —
    # or "dfr_inl2" (Lucene DFRSimilarity with BasicModelIn + AfterEffectL
    # + NormalizationH2, the I(n)L2 divergence-from-randomness config):
    # w = tfn·log2((N+1)/(df+0.5))/(tfn+1) with
    # tfn = tf·log2(1 + dfr_c·avgdl/dl), always positive for tf>0 —
    # or "ib_ll" (Lucene IBSimilarity, DistributionLL + LambdaDF + H2):
    # w = ln(1 + tfn·(N+1)/(df+1)) with the same tfn.
    # cf = collection frequency and T = total tokens, both from the stats
    # stage.  Zone maxima are re-derived from the recomputed impacts at
    # load so block-max WAND stays exact.
    scoring: str = "bm25"
    mu: float = 2000.0
    lam: float = 0.1
    dfr_c: float = 1.0

    # --- deterministic doc-id assignment (SURVEY.md §3.2 contract) ---
    # doc ids are assigned in (bucket, url) order where
    # bucket = hash_strings(url) % num_buckets; per-bucket counts -> exclusive
    # prefix sum on the driver -> offsets broadcast back.  The reference's
    # contract is "rank-major, shard-major, row-minor position"
    # (src/indexing/sparse_index.py:642-656); ours is the distributed
    # equivalent with an explicit, seed-free ordering rule.
    num_buckets: int = 64

    # --- index layout ---
    # Document-sharded index: shard s owns doc ids
    # [s*shard_size, (s+1)*shard_size).  Mirrors the reference's
    # shard_max_docs=100_000 (config/encoding/_base.yaml:22).  Head-term skew
    # is bounded by construction: no posting list within a shard exceeds
    # shard_size entries, so the groupby(shard) shuffle needs no salting.
    shard_size: int = 100_000
    # doc-range zone width for block-max pruning: per (term, zone) the
    # reader derives the max impact, giving safe *cross-term* upper bounds
    # (every posting of a doc lands in the same zone, unlike position-based
    # 128-posting blocks).  The scorer processes zones in descending
    # upper-bound order and stops when no zone can beat the running top-k.
    zone_docs: int = 1024

    # --- encoder plugin ---
    # "bm25": term-impact encoder (tokenize → tf, BM25 weights at posting
    # build).  "neural": SPLADE-style sparse term-expansion encoder
    # (stages/neural.py) — deterministic hash-expansion stand-in for the
    # reference MLM (vocab 30522, config/model/_base.yaml:2; seed 10,
    # config/config.yaml:2), doc-only BoW query scoring.
    encoder: str = "bm25"
    # --- term-id assignment for the BM25 encoder ---
    # "sorted": term ids are the rank in sorted term order; the vocab table
    # (term → id, df) is a driver-sized reduce — exact, right up to vocabs
    # of ~100M terms.  "hashed": term id = 63-bit hash of the term string;
    # NO term strings ever leave the tokenizer (doc_terms stores int ids,
    # stats aggregates ints, queries hash directly) — the 10^12-doc path
    # where the vocabulary itself is too large to sort on one node.
    # Collisions are birthday-negligible below ~10^8 distinct terms and
    # would only merge two terms' postings (BM25 degrades, nothing breaks).
    vocab_mode: str = "sorted"
    neural_vocab_size: int = 30522
    neural_expansions: int = 8
    neural_seed: int = 10
    # --- neural encoder backend ---
    # "hash": deterministic hash-expansion stand-in (no external deps).
    # "torch": real MLM-backed SPLADE encoder (HF MaskedLM + optional
    # checkpoint, bf16 on CUDA, optional torch.compile, special-token
    # exclusion) — mirrors the reference encode lifecycle
    # (src/model/pl_module/encode.py:39-130); requires torch+transformers.
    neural_backend: str = "hash"
    neural_model_name: str = "naver/splade-v3-distilbert"
    neural_checkpoint: str = ""
    neural_device: str = "cpu"
    neural_max_len: int = 256  # reference max seq len (dataset/_base.yaml:9-10)
    neural_torch_compile: bool = False
    # GPUs reserved per encoder actor (passed to map_batches num_gpus;
    # 0 = CPU pool).  Fractions pack several actors per device — the
    # reference runs one Lightning process per GPU (encode.py:66-74);
    # here the pool is sized cluster-wide by concurrency × num_gpus.
    neural_num_gpus: float = 0.0
    # posting-weight storage for the neural index (reference value_dtype,
    # config/encoding/_base.yaml:23): "f32" raw floats, or "q8" —
    # impact-quantized uint8 codes w/ a fixed global scale (4x smaller
    # postings; scoring is exact w.r.t. the dequantized weights, which the
    # oracle reproduces bit-for-bit)
    neural_value_dtype: str = "f32"
    q8_scale: float = 8.0

    # --- forward index (phrase queries) ---
    # When set, each doc's md5 token-hash stream (8 B/token, vocab-mode
    # independent) rides the doc_terms rows into the shard exchange and is
    # stored as a binary column of the per-shard docs table.  Enables
    # IndexReader.search_phrase: boolean-AND candidates from the inverted
    # postings, adjacency verified against the stream, BM25-scored.
    store_forward: bool = False

    # --- sparsification caps (reference defaults) ---
    # reference: sparse_top_k = 4096 of 30522 vocab
    # (config/encoding/_base.yaml:26); for the BM25 term-impact encoder the
    # per-doc distinct-term count is naturally <= doc length, but the cap is
    # enforced for parity with the neural encoder path.
    doc_top_k: int = 4096
    min_weight: float = 0.0

    # --- query defaults ---
    top_k: int = 10

    # --- tokenizer (pure-function; must match the DuckDB oracle exactly) ---
    # lowercase, then split on runs of non-[a-z0-9]; empty tokens dropped.
    token_pattern: str = "[a-z0-9]+"
    lowercase: bool = True
    # --- analysis chain (Lucene Analyzer seam) ---
    # "standard": tokens as-is.  "light_en": StopFilter (fixed English
    # stoplist, applied BEFORE stemming — Lucene's StandardAnalyzer order)
    # followed by a minimal suffix stemmer (Lucene EnglishMinimalStemFilter
    # flavor: ies→y, sses→ss, drop trailing s/ing/ed) defined as an ordered
    # regexp_replace chain so the DuckDB oracle replays it exactly.
    # Doc length (dl) counts post-stop tokens, matching Lucene norms that
    # count post-analysis positions.
    analyzer: str = "standard"

    # --- dedup strategy ---
    # "broadcast": dedup winners (url -> max warc_ts, doc_id) are computed
    # from a column-pruned (url, warc_ts) read and broadcast via ray.put;
    # full rows never enter an exchange before the shard groupby.  Right
    # whenever the url key set fits in a broadcast (<~50M urls).
    # "shuffle": groupby(bucket) sort exchange of the full rows (the
    # 10^12-doc path where the key set itself is distributed).
    # "auto" (default): count input rows from parquet footers (driver-side
    # metadata only) and pick broadcast below ``broadcast_row_limit``,
    # shuffle above — so a 10^12-url input can never silently take the
    # driver-broadcast path.
    # Assumption of "broadcast": (url, warc_ts) pairs are unique — true of
    # real crawls (fetch timestamps); violated duplicates fail loudly at
    # the postings contiguity check.
    dedup_mode: str = "auto"
    broadcast_row_limit: int = 30_000_000

    # --- execution sizing ---
    # 4096 measured ~2x faster than 8192 for the fused extract+dedup+
    # tokenize stage at BOTH 150k and 1.2M docs (more tasks than cores at
    # small corpora, and a per-task working set that stays cache-resident:
    # 4096 rows x ~2KB html ≈ 8 MB)
    read_batch_size: int = 4096
    query_batch_size: int = 32  # reference eval batch (testing/_base.yaml:4)

    def validate(self) -> "EngineConfig":
        assert self.k1 > 0 and 0.0 <= self.b <= 1.0
        assert self.num_buckets > 0 and self.shard_size > 0 and self.zone_docs > 0
        assert self.encoder in ("bm25", "neural")
        assert self.dedup_mode in ("auto", "broadcast", "shuffle")
        assert self.broadcast_row_limit > 0
        assert self.vocab_mode in ("sorted", "hashed")
        assert self.analyzer in ("standard", "light_en", "shingle")
        assert self.neural_value_dtype in ("f32", "q8") and self.q8_scale > 0
        assert self.neural_backend in ("hash", "torch")
        # the forward stream is the md5 token sequence — defined by the
        # tokenizer, not the encoder; the neural path has no token stream
        assert not (self.store_forward and self.encoder == "neural"), (
            "store_forward requires the bm25 encoder"
        )
        assert self.neural_vocab_size > 0 and self.neural_expansions >= 1
        # M3 optional-str normalization (reference dataset/utils.py:7-14):
        # "", "none", "null" (any case/whitespace) mean "no checkpoint"
        from .functions.normalize import normalize_optional_str

        object.__setattr__(self, "neural_checkpoint", normalize_optional_str(self.neural_checkpoint) or "")
        return self


DEFAULT_CONFIG = EngineConfig().validate()
