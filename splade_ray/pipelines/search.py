"""Query path: BM25 top-k over the document-sharded inverted index.

Reference analogue: ``score_query_postings`` — numba exhaustive accumulate
over postings + top-k (``/root/reference/src/indexing/sparse_index.py:
661-755``), queries encoded as bag-of-words counts (doc-only mode,
``src/model/retriever/sparse/neural/splade.py:243-265``).

Engine kernels (per shard, all numpy-vectorized):

- **exhaustive**: one ``np.bincount(local_ids, weights=qw·w)`` over the
  concatenated postings of the query's terms — the vectorized equivalent of
  the reference's accumulate loop — then an exact top-k with the
  deterministic ``(-score, doc_id)`` tie-break (:func:`select_topk`).  It
  samples every ⌊√(n/k)⌋-th of the view's n scores; a query whose postings
  are at least 3× that sample selects from the docs scoring at least the
  sample's k-th best (~√(n·k) candidates: a few hundred, not every scored
  doc); any other query, or a sample with fewer than k positive scores,
  selects from every nonzero score.
- **block-max pruned** (``method="wand"``): answered by the exhaustive
  kernel unless ``min_zone_mult=0`` forces zone-at-a-time dynamic pruning
  with per-(term, doc-zone) max impacts, derived from the loaded weights
  on the first pruned query; safe pruning (identical top-k, asserted in
  tests) with every step a numpy kernel.

Distribution: doc shards are disjoint, so per-shard exact top-k merge is
globally exact (scatter-gather).  :class:`QueryFront` writes each query
once — driver-side encode and merge around a shard-local *leg* that is an
:class:`IndexReader` method — and its two executors are:

- :class:`IndexReader` — runs the legs in process over its own shards;
  :class:`SearcherStage` wraps it as a ``map_batches`` actor pool where
  each actor holds the full (small) index: the single-node bench path.
- :class:`ShardedSearcher` — runs the legs on one ``@ray.remote`` scorer
  actor per shard group pinning its partition (reference T5 pattern:
  mmap'd postings + reusable buffers,
  ``src/model/pl_module/retrieval.py:146-162``), with replica failover;
  the multi-node path where no node holds the whole index.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..codec import binary_concat as _binary_concat, varint_decode
from ..config import EngineConfig, DEFAULT_CONFIG
from ..oracle import bm25_idf
from ..state.lineage import postings_shard_ids, read_json
from ..tokenizer import Tokenizer


def zone_maxima(
    term_ptr: np.ndarray, docs: np.ndarray, w: np.ndarray, zone_docs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(term, doc-zone) max impacts as a CSR over terms: ``zone_ptr``
    (one row per term of ``term_ptr``), the zone ids and ``zone_max`` (one
    entry per non-empty (term, zone) pair).

    Zones are aligned ``doc // zone_docs`` ranges: every posting of a doc
    lands in the same zone across terms, so summing the query terms' zone
    maxima bounds every doc in the zone.  ``docs`` ascend within each
    term's slice, so each (term, zone) run is contiguous and one
    ``maximum.reduceat`` builds the whole table."""
    zone = docs // zone_docs
    change = np.zeros(docs.size, dtype=bool)
    change[term_ptr[:-1][np.diff(term_ptr) > 0]] = True
    change[1:] |= np.diff(zone) != 0
    starts = np.flatnonzero(change)
    return np.searchsorted(starts, term_ptr).astype(np.int64), zone[starts], np.maximum.reduceat(w, starts)


def select_topk(keys: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best ``(key, score)`` pairs in ``(-score, key)`` order,
    for any ``k >= 0``: partition for the k-th score, keep every candidate
    scoring at least it, then lexsort the few kept — so a tie class
    straddling the k-th score is cut by key, never by partition order.
    The k-th score of ``k`` candidates is ``scores[-1]`` of the result."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if keys.size > k > 0:
        kth = -np.partition(-scores, k - 1)[k - 1]
        keep = scores >= kth
        keys, scores = keys[keep], scores[keep]
    order = np.lexsort((keys, -scores))[:k]
    return keys[order], scores[order]


def _n_postings(slices) -> int:
    """Σ slice lengths of :meth:`ShardIndex._term_slices` output."""
    return sum(e - s for _, s, e, _ in slices)


# Sampled top-k selection (ShardIndex._topk_from_scores): the sample takes
# every ⌊√(n/k)⌋-th score, when that stride is at least _MIN_STRIDE, and is
# used by a query with at least _POSTINGS_PER_SAMPLE postings per sampled
# score, past the measured crossover at 7,944 and 193,940 docs (BASELINE.md
# "Top-k selection")
_MIN_STRIDE = 2
_POSTINGS_PER_SAMPLE = 3


def _per_term(stat, tids: np.ndarray) -> np.ndarray:
    """A corpus statistic (df or cf) of each term id in ``tids``: ``stat``
    is a dense array indexed by term id (sorted vocab) or a
    ``(sorted_tids, values)`` pair (hashed-vocab term ids)."""
    if isinstance(stat, tuple):
        index, vals = stat
        return vals[np.searchsorted(index, tids)]
    return stat[tids]


def _impact_model(cfg: EngineConfig, term_ids, dl, df_global, n_docs, avgdl, cf_global, sum_dl):
    """Raw-tf impacts as ``(t, d, combine)``: per-term factors ``t`` (one
    per entry of ``term_ids``), per-doc factors ``d`` (one per entry of
    ``dl``) and ``combine(tf, t_post, d_post)`` over the factors repeated
    and gathered per posting.  Every log, sqrt and divide of a term or doc
    statistic runs once per term or doc, while each posting sees the same
    operations in the same order as the per-posting formula, so the
    weights are bit-identical to it (and to the oracle's)."""
    scoring = cfg.scoring
    if scoring in ("lm_dirichlet", "lm_jm"):
        # Language-model query likelihood over the SAME stored raw-tf
        # postings (the Lucene Similarity seam).
        # lm_dirichlet: w = max(0, ln(1 + tf·T/(mu·cf)) + ln(mu/(dl+mu)))
        #   — the non-negative clamp keeps every score-kernel invariant
        #   (bincount zero == unmatched).
        # lm_jm: w = ln(1 + (1-λ)·tf·T / (λ·cf·dl)) — positive for every
        #   stored posting (tf ≥ 1), so no clamp is needed.
        if cf_global is None or sum_dl is None:
            raise ValueError(
                f"{scoring} needs cf + sum_dl stats — rebuild the "
                "index (vocab.parquet cf column, meta.json sum_dl)"
            )
        cf = _per_term(cf_global, term_ids).astype(np.float64)
        total = float(sum_dl)
        if scoring == "lm_jm":
            lam = float(cfg.lam)
            return lam * cf, dl, lambda tf, t, d: np.log1p((1.0 - lam) * tf * total / (t * d))
        mu = float(cfg.mu)
        return (
            mu * cf,
            np.log(mu / (dl + mu)),
            lambda tf, t, d: np.maximum(np.log1p(tf * total / t) + d, 0.0),
        )
    df = _per_term(df_global, term_ids).astype(np.float64)
    n = float(n_docs)
    if scoring == "classic":
        # Lucene ClassicSimilarity (pre-8.0 TFIDFSimilarity):
        # w = sqrt(tf) · idf² / sqrt(dl) with idf = 1 + ln((N+1)/(df+1)).
        # idf appears SQUARED because Lucene multiplies the query weight
        # (idf·boost) by the doc-side weight (tf_norm·idf·lengthNorm); the
        # lossy byte-encoded norm of historical Lucene is deliberately NOT
        # reproduced (exact 1/sqrt(dl), documented contract).
        return 1.0 + np.log((n + 1.0) / (df + 1.0)), np.sqrt(dl), lambda tf, t, d: np.sqrt(tf) * t * t / d
    if scoring in ("dfr_inl2", "ib_ll"):
        # tfn = tf·log2(1 + c·avgdl/dl)  (NormalizationH2, shared), then
        # dfr_inl2 (Lucene DFRSimilarity I(n)L2): w = tfn·I/(tfn+1) with
        #   I = log2((N+1)/(df+0.5))  (BasicModelIn + AfterEffectL);
        # ib_ll (Lucene IBSimilarity LL + LambdaDF): w = ln(1 + tfn/λ_w)
        #   with λ_w = (df+1)/(N+1).
        # Both are positive for every stored posting: no clamp is needed.
        h2 = np.log2(1.0 + float(cfg.dfr_c) * avgdl / dl)
        if scoring == "dfr_inl2":

            def inl2(tf, t, d):
                tfn = tf * d
                return tfn * t / (tfn + 1.0)

            return np.log2((n + 1.0) / (df + 0.5)), h2, inl2
        return (df + 1.0) / (n + 1.0), h2, lambda tf, t, d: np.log1p(tf * d / t)
    k1, b = cfg.k1, cfg.b
    return bm25_idf(df, n_docs), k1 * (1.0 - b + b * dl / avgdl), lambda tf, t, d: t * tf * (k1 + 1.0) / (tf + d)


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_POOL_THREAD = "splade-load"


def _forget_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _pmap(fn, items) -> list:
    """``fn`` over ``items``, in order, on one process-wide pool of 8
    threads when there are several: parquet reads and the numpy decode
    kernels release the GIL, so shards load in parallel.  The pool is made
    on first use and reused by every later open, so the decode temporaries
    land in the same threads' malloc arenas each time instead of growing
    new ones per open.  A call from inside one of the pool's own threads
    runs its items inline (waiting on the pool there could deadlock it);
    a forked child starts without a pool."""
    global _POOL
    items = list(items)
    if len(items) <= 1 or threading.current_thread().name.startswith(_POOL_THREAD):
        return [fn(x) for x in items]
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=8, thread_name_prefix=_POOL_THREAD)
        pool = _POOL
    return list(pool.map(fn, items))


def _read_parquet(path: str) -> pa.Table:
    """One parquet file, decoded on the calling thread: the loader reads
    shards on threads of its own, which ``pq.read_table`` (dataset layer,
    Arrow's CPU pool) would serialize, at ~2x the cost per small file."""
    return pq.ParquetFile(path).read(use_threads=False)


def _read_shard(files) -> tuple[pa.Table, pa.Table]:
    """One shard's (postings, docs) tables from its two parquet paths;
    tables already read pass through."""
    return tuple(f if isinstance(f, pa.Table) else _read_parquet(f) for f in files)


class ShardIndex:
    """A serving view: the postings of one or more shards (ascending,
    disjoint doc ranges) decompressed into one CSC of numpy arrays
    (reference InvertedIndex shape, sparse_index.py:207-215).  Built only
    by :meth:`consolidated`.

    Two weight modes, detected from the postings schema: ``tfs`` (varint
    term frequencies → impacts computed at load under ``cfg.scoring``) or
    ``weights`` / ``weights_q8`` (neural impacts stored as float32 or
    uint8 codes).  The block-max zone bounds are not stored:
    :meth:`score_wand` derives them on its first pruned query."""

    def mask_deletes(self, del_urls: pa.Array) -> int:
        """Tombstone semantics (Lucene-style): zero the deleted docs'
        posting weights — they can never score, so every path (exhaustive's
        nonzero filter, WAND's re-derived zone bounds, phrase/near's
        candidate AND) excludes them exactly — while the GLOBAL statistics
        (df/idf/avgdl/n_docs) stay those of the build until a segment merge
        rewrites the index.  Returns the number of local docs deleted."""
        mask = pa.compute.is_in(self.urls, value_set=del_urls)
        local = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        if local.size == 0:
            return 0
        self.deleted_local = np.union1d(self.deleted_local, local.astype(np.int64))
        hit = np.isin(self.post_local, self.deleted_local)
        self.post_w[hit] = 0.0
        if self.post_tf is not None:
            self.post_tf[hit] = 0
        self._zones = None
        return int(local.size)

    @classmethod
    def consolidated(
        cls,
        shard_files: list,
        df_global: np.ndarray | tuple | None,
        n_docs: int,
        avgdl: float,
        cfg: EngineConfig,
        cf_global=None,
        sum_dl: int | None = None,
    ) -> "ShardIndex":
        """The one loader: a serving view over ``shard_files``, one
        ``(postings, docs)`` pair per shard in doc order, each a parquet
        path or an already-read table.  ``df_global`` / ``cf_global``: a
        dense array indexed by term id (sorted vocab) or ``(sorted_tids,
        values)`` (hashed-vocab ids).  Every posting is decoded once and
        written once, straight to its final offset:

        1. read the shards' tables (threads across shards);
        2. lay out the merged CSC from the ``term_id`` / ``df`` columns
           alone — O(terms), serial: a term's run from shard i lands after
           the runs of shards < i, which is ascending doc order;
        3. decode each shard's doc deltas and values, compute its impacts
           and assign them to their final offsets (threads across shards).

        Querying one view replaces a per-shard Python loop with single
        numpy kernels over the node's whole partition.  ``load_times``
        records the layout and decode seconds."""
        tables = _pmap(_read_shard, shard_files)
        t0 = time.perf_counter()
        posts = [p for p, _ in tables]
        docs = [d for _, d in tables]
        modes = [
            "tf" if "tfs" in p.column_names else "q8" if "weights_q8" in p.column_names else "f32"
            for p in posts
        ]
        tf_scoring = cfg.scoring in ("lm_dirichlet", "lm_jm", "classic", "dfr_inl2", "ib_ll")
        if tf_scoring and any(m != "tf" for m in modes):
            raise ValueError(f"{cfg.scoring} scoring needs raw-tf postings (weight_mode='tf')")
        self = cls.__new__(cls)
        self.cfg = cfg
        self.avgdl = float(avgdl)
        self.zone_docs = int(cfg.zone_docs)
        self._zones = None
        self.deleted_local = np.zeros(0, np.int64)
        self.select_stats = {"sampled": 0, "scan": 0}

        self.doc_ids = np.concatenate([d.column("doc_id").to_numpy(zero_copy_only=False) for d in docs])
        # urls stay an Arrow StringArray: zero Python strings at load —
        # only the k returned hits per query ever materialize a str
        url_type = docs[0].schema.field("url").type
        self.urls = pa.chunked_array([c for d in docs for c in d.column("url").chunks], url_type).combine_chunks()
        self.dl = np.concatenate([d.column("dl").to_numpy(zero_copy_only=False) for d in docs]).astype(np.float64)
        self.n_local = int(self.doc_ids.size)
        if all("fwd" in d.column_names for d in docs):
            # forward md5 token-hash streams (store_forward builds): one
            # flat u64 array; per-doc extents come from dl, which is the
            # exact token count of the same tokenization pass
            self.fwd_stream = np.concatenate(
                [np.frombuffer(_binary_concat(d.column("fwd").combine_chunks()), dtype=np.uint64) for d in docs]
            )
            self.fwd_ptr = np.zeros(self.n_local + 1, dtype=np.int64)
            np.cumsum(self.dl.astype(np.int64), out=self.fwd_ptr[1:])
            if self.fwd_ptr[-1] != self.fwd_stream.size:
                raise ValueError("fwd stream / dl mismatch")
        else:
            self.fwd_stream = None
            self.fwd_ptr = None

        # merged vocab rows + per-(shard, term) run offsets — O(posting
        # runs), never a dense (n_shards x n_terms) matrix, so memory stays
        # proportional to the postings even for a wide (hashed-id) vocab
        tids = [p.column("term_id").to_numpy(zero_copy_only=False) for p in posts]
        lens = [p.column("df").to_numpy(zero_copy_only=False).astype(np.int64) for p in posts]
        single = len(posts) == 1
        self.term_ids = tids[0] if single else np.unique(np.concatenate(tids))
        rows = [np.searchsorted(self.term_ids, t) for t in tids]
        run_sum = np.zeros(self.term_ids.size, dtype=np.int64)
        for r, n in zip(rows, lens):
            run_sum[r] += n
        self.term_ptr = np.zeros(self.term_ids.size + 1, dtype=np.int64)
        np.cumsum(run_sum, out=self.term_ptr[1:])
        filled = self.term_ptr[:-1].copy()  # next free offset per term
        seg_starts, shifts = [], []
        for r, n in zip(rows, lens):
            start = np.zeros(n.size, dtype=np.int64)
            np.cumsum(n[:-1], out=start[1:])
            seg_starts.append(start)
            shifts.append(filled[r] - start)  # shard offset -> view offset, per run
            filled[r] += n
        doc_offs = np.cumsum([0] + [d.num_rows for d in docs])
        nnz = int(self.term_ptr[-1])
        self.post_local = np.empty(nnz, dtype=np.int64)
        self.post_w = np.empty(nnz, dtype=np.float64)
        self.post_tf = np.empty(nnz, dtype=np.uint32) if all(m == "tf" for m in modes) else None
        if "tf" in modes:
            # a doc without postings (dl == 0) may get an inf/nan factor,
            # which no posting ever gathers
            with np.errstate(divide="ignore", invalid="ignore"):
                term_f, doc_f, combine = _impact_model(
                    cfg, self.term_ids, self.dl, df_global, n_docs, self.avgdl, cf_global, sum_dl
                )
        t1 = time.perf_counter()

        def decode(i: int) -> None:
            post, n, start = posts[i], lens[i], seg_starts[i]
            snnz = int(n.sum())
            dest = slice(None) if single else np.arange(snnz) + np.repeat(shifts[i], n)
            # deltas < 2**35, so the uint64 words read as int64 unchanged
            local = np.cumsum(varint_decode(_binary_concat(post.column("docs").combine_chunks()), snnz).view(np.int64))
            # the delta at a segment start is absolute: subtract the cumsum
            # just before each segment, and add the shard's first view doc
            prior = np.where(start > 0, local[np.maximum(start - 1, 0)], 0) - doc_offs[i]
            local -= np.repeat(prior, n)
            self.post_local[dest] = local
            if modes[i] == "tf":
                tf = varint_decode(_binary_concat(post.column("tfs").combine_chunks()), snnz)
                if self.post_tf is not None:
                    # raw tf kept (uint32, ¼ the weight array) — synonym
                    # scoring blends tf ACROSS terms before saturation,
                    # which the precomputed per-term impacts can't express
                    self.post_tf[dest] = tf
                tf = tf.astype(np.float64)
                self.post_w[dest] = combine(tf, np.repeat(term_f[rows[i]], n), doc_f[local])
            elif modes[i] == "q8":
                # quantized impact mode: dequantize uint8 codes (fixed scale)
                codes = np.frombuffer(_binary_concat(post.column("weights_q8").combine_chunks()), dtype=np.uint8)
                self.post_w[dest] = codes.astype(np.float64) * (cfg.q8_scale / 255.0)
            else:
                # neural impact mode: stored weights ARE the impacts
                raw = _binary_concat(post.column("weights").combine_chunks())
                self.post_w[dest] = np.frombuffer(raw, dtype=np.float32)

        _pmap(decode, range(len(posts)))
        self.load_times = {"layout_s": t1 - t0, "decode_s": time.perf_counter() - t1}
        return self

    def _term_slices(self, qtids: np.ndarray) -> list[tuple[int, int, int, int]]:
        """(query-term position, start, end, term row) for terms present."""
        # one searchsorted, then a loop over plain ints: queries carry a
        # handful of terms, where each further numpy call costs more than
        # the loop it would replace
        ids, ptr = self.term_ids, self.term_ptr
        n = ids.size
        pos = np.searchsorted(ids, qtids).tolist()
        return [
            (i, int(ptr[p]), int(ptr[p + 1]), p)
            for i, (p, t) in enumerate(zip(pos, qtids.tolist()))
            if p < n and ids[p] == t
        ]

    def accumulate(
        self, slices, qweights: np.ndarray | None = None, counts: bool = False, tf: bool = False
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(scores, counts) over the local docs from the query terms'
        posting ``slices`` (see :meth:`_term_slices`), in one pass over
        their concatenation:

        - scores: Σ_t qweights[t]·impact (raw tf when ``tf``), a float64
          vector; None when ``qweights`` is None.
        - counts: the number of distinct query terms each doc holds, with
          tombstoned docs zeroed; None unless ``counts``.

        Terms' postings hold each doc once, so one bincount of the
        concatenated ids is the distinct-term count."""
        pl = self.post_local
        ids = np.concatenate([pl[s:e] for _, s, e, _ in slices]) if slices else np.zeros(0, np.int64)
        scores = cnt = None
        if qweights is not None and not slices:
            scores = np.zeros(self.n_local, np.float64)  # bincount of nothing is int
        elif qweights is not None:
            src = self.post_tf if tf else self.post_w
            # most query terms weigh 1, and ×1.0 is exact: skip that multiply
            # (tested per term on Python floats — a numpy all() costs more)
            qw = qweights.tolist()
            w = np.concatenate([src[s:e] if qw[i] == 1 else src[s:e] * qweights[i] for i, s, e, _ in slices])
            scores = np.bincount(ids, weights=w, minlength=self.n_local)
        if counts:
            cnt = np.bincount(ids, minlength=self.n_local)
            if self.deleted_local.size:
                cnt[self.deleted_local] = 0
        return scores, cnt

    def _topk_from_scores(
        self, scores: np.ndarray, k: int, postings: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, scores) of the top ``k`` nonzero entries of the dense
        local ``scores``, in ``(-score, doc_id)`` order (:func:`select_topk`
        over local ids, which ascend with doc ids).

        The candidates come from one of two exact routes, counted in
        ``select_stats``:

        - ``sampled``: the k-th largest of every ⌊√(n/k)⌋-th of the n
          scores is the exact score of k real docs, so it is at most the
          true k-th score; when it is positive, the candidates are the
          docs scoring at least it — every doc tied with or above the
          k-th score; with spread scores about stride·k ≈ √(n·k) docs, as
          many as the sample holds, which balances the two partitions'
          cost.  Taken when the query's ``postings`` (Σ slice lengths;
          None when the caller has none, which always scans) are at least
          ``_POSTINGS_PER_SAMPLE`` times the sample size: below that the
          scan has too few nonzero scores to lose.
        - ``scan``: otherwise every nonzero score is a candidate."""
        n = scores.size
        lb = 0.0
        if postings is not None and k > 0:
            stride = math.isqrt(n // k)
            if stride >= _MIN_STRIDE and postings >= _POSTINGS_PER_SAMPLE * -(-n // stride):
                lb = -np.partition(-scores[::stride], k - 1)[k - 1]
        # a bool mask + flatnonzero is several times faster than nonzero()
        # reading the float64 vector itself
        if lb > 0:
            self.select_stats["sampled"] += 1
            cand = np.flatnonzero(scores >= lb)
        else:
            self.select_stats["scan"] += 1
            cand = np.flatnonzero(scores != 0)
        top, top_scores = select_topk(cand, scores[cand], k)
        return self.doc_ids[top], top_scores

    def score_exhaustive(
        self, qtids: np.ndarray, qweights: np.ndarray, k: int, allow: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k (global doc ids, float64 scores): one bincount over
        the concatenated postings of the query's terms — the vectorized
        form of the reference's accumulate loop (sparse_index.py:661-686).

        ``allow``: optional local boolean mask (len n_local) — docs outside
        it score 0 and so never reach the top-k (filtered search / the
        Lucene live-docs shape: the filter is checked inside the scorer,
        before top-k selection)."""
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        scores, _ = self.accumulate(slices, qweights)
        if allow is not None:
            scores = np.where(allow, scores, 0.0)
        return self._topk_from_scores(scores, k, _n_postings(slices))

    def score_bool_prefix(
        self, qtids: np.ndarray, qweights: np.ndarray, prefix_tids: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``match_bool_prefix`` scoring (ES): the full terms contribute
        their standard BM25 bag; the trailing prefix clause is Lucene's
        default constant-score rewrite — exactly +1.0 for any doc
        containing AT LEAST one term of the expansion, regardless of tf
        or how many expansion terms it holds.  A prefix-only doc still
        matches (score exactly 1.0)."""
        scores, _ = self.accumulate(self._term_slices(qtids), qweights)
        _, hit = self.accumulate(self._term_slices(prefix_tids), counts=True)
        scores[hit > 0] += 1.0
        return self._topk_from_scores(scores, k)

    def score_synonyms(
        self, groups: list[np.ndarray], idfs: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene SynonymQuery scoring: each group of synonym term ids acts
        as ONE pseudo-term — per doc its tf is the SUM of the members' tfs,
        saturated once through the BM25 tf norm under the group's blended
        idf (caller passes idf(max df), Lucene's blend).  Needs the raw tf
        sidecar — blending happens BEFORE saturation, which precomputed
        per-term impacts can't express.  Deleted docs' tfs are zeroed by
        mask_deletes, so the nonzero top-k filter stays exact."""
        if self.post_tf is None:
            raise ValueError("synonym scoring needs raw-tf postings (weight_mode='tf')")
        k1, b = float(self.cfg.k1), float(self.cfg.b)
        norm = k1 * (1.0 - b + b * self.dl / self.avgdl)
        scores = np.zeros(self.n_local, dtype=np.float64)
        for tids, idf in zip(groups, idfs):
            slices = self._term_slices(np.asarray(tids, dtype=np.int64))
            if not slices:
                continue
            tfd, _ = self.accumulate(slices, np.ones(len(tids)), tf=True)
            m = tfd > 0
            scores[m] += float(idf) * tfd[m] * (k1 + 1.0) / (tfd[m] + norm[m])
        return self._topk_from_scores(scores, k)

    def score_dismax(
        self, qtids: np.ndarray, qweights: np.ndarray, k: int, tie: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene DisjunctionMaxQuery scoring: per doc, the MAX single-term
        contribution plus ``tie`` × the sum of the others —
        score = max + tie·(sum − max).  One extra maximum.at scatter next
        to the existing bincount; contributions are ≥ 0 (tombstoned
        postings are zeroed), so the zero-initialized max array and the
        nonzero top-k filter stay exact."""
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        ssum, _ = self.accumulate(slices, qweights)
        smax = np.zeros(self.n_local, dtype=np.float64)
        for i, s, e, _ in slices:  # a term holds each doc once: a plain gather-max
            ids = self.post_local[s:e]
            smax[ids] = np.maximum(smax[ids], self.post_w[s:e] * qweights[i])
        scores = smax + tie * (ssum - smax)
        return self._topk_from_scores(scores, k, _n_postings(slices))

    def score_excluding(
        self, qtids: np.ndarray, qweights: np.ndarray, k: int, ex_tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k with a must_not clause (Lucene BooleanQuery MUST_NOT):
        docs carrying ANY excluded term are masked out of the score vector
        before selection.  The exclusion set comes from the shard's OWN
        postings — one concatenated-postings unique, no doc attribute or
        driver-side set needed — and never affects surviving docs' scores."""
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        scores, _ = self.accumulate(slices, qweights)
        _, ex = self.accumulate(self._term_slices(ex_tids), counts=True)
        scores[ex > 0] = 0.0
        return self._topk_from_scores(scores, k, _n_postings(slices))

    def score_after(
        self, qtids: np.ndarray, qweights: np.ndarray, k: int, after_score: float, after_doc: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k strictly AFTER a (score, doc_id) cursor in the
        (-score, doc_id) total order — the deep-pagination kernel
        (Elasticsearch search_after shape): docs at or before the cursor
        are masked out of the score vector before top-k selection, so page
        N+1 never re-materializes pages 1..N on the driver."""
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        scores, _ = self.accumulate(slices, qweights)
        keep = (scores < after_score) | ((scores == after_score) & (self.doc_ids > after_doc))
        scores = np.where(keep, scores, 0.0)
        return self._topk_from_scores(scores, k, _n_postings(slices))

    def phrase_topk(self, qtids: np.ndarray, qweights: np.ndarray, h_seq: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact phrase top-k within this shard: boolean-AND candidates
        from the inverted postings, adjacency verified against the forward
        md5 streams (one vectorized window-compare over the candidates'
        streams only), BM25-scored over the phrase bag.

        ``qtids``/``qweights`` are the phrase's UNIQUE term ids + counts;
        ``h_seq`` the md5 hash of each phrase token in order."""
        matched = self._phrase_match_locals(qtids, h_seq)
        if matched.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        return self._restricted_bag_topk(self._term_slices(qtids), qweights, matched, k)

    def _phrase_match_locals(self, qtids: np.ndarray, h_seq: np.ndarray) -> np.ndarray:
        """Local ids of docs whose forward stream holds the phrase tokens
        CONSECUTIVELY: boolean-AND candidates from the postings, then one
        vectorized window-compare over the candidates' md5 streams.  The
        matching half of :meth:`phrase_topk`, shared with the
        query_string composer."""
        if self.fwd_stream is None:
            raise ValueError("phrase search requires an index built with store_forward=True")
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:  # a phrase term has no postings here
            return np.zeros(0, np.int64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return cand
        # windows of length m over each candidate's stream, all at once
        m = h_seq.size
        starts, cidx = self._candidate_windows(cand, m)
        if starts.size == 0:
            return np.zeros(0, np.int64)
        ok = self.fwd_stream[starts] == h_seq[0]
        for j in range(1, m):
            if not ok.any():
                break
            ok &= self.fwd_stream[starts + j] == h_seq[j]
        return cand[np.unique(cidx[ok])]

    def phrase_prefix_topk(
        self,
        variants: list[tuple[np.ndarray, np.ndarray]],
        head_tids: np.ndarray,
        head_qw: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """match_phrase_prefix within this shard: a doc matches when ANY
        expansion variant (head tokens + one expansion term) occurs
        consecutively; matched docs rank by the BM25 bag score of the HEAD
        terms (the deterministic scoring contract the SQL oracle replays).
        ``variants`` = (unique term ids, md5 sequence) per expansion."""
        mask = np.zeros(self.n_local, dtype=bool)
        for qtids, h_seq in variants:
            mask[self._phrase_match_locals(qtids, h_seq)] = True
        matched = np.flatnonzero(mask)
        if matched.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        return self._restricted_bag_topk(self._term_slices(head_tids), head_qw, matched, k)

    def _qs_clause(self, c: dict) -> tuple[np.ndarray, np.ndarray]:
        """(score vector, match mask) over local docs for ONE query_string
        clause.  Term clauses match when the doc holds ALL the clause's
        tokens (single-token clauses: tf > 0); phrase clauses additionally
        verify consecutiveness against the forward streams.  The vector is
        the BM25 bag score of the clause's terms, zeroed outside the mask
        (Lucene: a clause scores only where it matches)."""
        qtids, qw = c["qtids"], c["qw"]
        slices = self._term_slices(qtids)
        vec, _ = self.accumulate(slices, qw)
        if c.get("h_seq") is not None:
            mask = np.zeros(self.n_local, dtype=bool)
            mask[self._phrase_match_locals(qtids, c["h_seq"])] = True
        elif qtids.size <= 1:
            mask = vec > 0.0
        else:  # multi-token bare clause: conjunctive bag over its tokens
            mask = np.zeros(self.n_local, dtype=bool)
            if len(slices) == qtids.size:
                mask[self._and_candidates(slices, qtids.size)] = True
        return np.where(mask, vec, 0.0), mask

    def score_query_string(self, spec: list[dict], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``query_string`` composition over this shard: MUST /
        SHOULD / MUST_NOT clauses of term and phrase kind with per-clause
        boosts.  Match set = AND of must masks (when musts exist, shoulds
        are optional — the Lucene BooleanQuery contract) else OR of should
        masks; must_not masks subtract and never score.  Score = Σ
        boost·clause_bm25 over the must+should clauses the doc matches."""
        scores = np.zeros(self.n_local, dtype=np.float64)
        must: np.ndarray | None = None
        should = np.zeros(self.n_local, dtype=bool)
        has_should = False
        excl = np.zeros(self.n_local, dtype=bool)
        for c in spec:
            if c["role"] == "not":
                excl |= self._qs_clause(c)[1]
                continue
            vec, mask = self._qs_clause(c)
            scores += vec * float(c["boost"])
            if c["role"] == "must":
                must = mask if must is None else (must & mask)
            else:
                has_should = True
                should |= mask
        if must is not None:
            allow = must
        elif has_should:
            allow = should
        else:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        if excl.any():
            allow = allow & ~excl
        return self._topk_from_scores(np.where(allow, scores, 0.0), k)

    def _and_candidates(self, slices, n_terms: int) -> np.ndarray:
        """Local ids of docs holding ALL ``n_terms`` query terms (per-term
        posting locals are distinct, so a full AND hit accumulates exactly
        n_terms)."""
        _, cnt = self.accumulate(slices, counts=True)  # tombstoned docs never match
        return np.flatnonzero(cnt == n_terms)

    def _candidate_windows(self, cand: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(global stream positions of every length-``m`` window start in the
        candidates' streams, owning candidate row) — one flat gather."""
        lens = self.fwd_ptr[cand + 1] - self.fwd_ptr[cand]
        nwin = np.maximum(lens - m + 1, 0)
        tot = int(nwin.sum())
        if tot == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        csum = np.cumsum(nwin)
        starts = (
            np.arange(tot, dtype=np.int64)
            - np.repeat(csum - nwin, nwin)
            + np.repeat(self.fwd_ptr[cand], nwin)
        )
        return starts, np.repeat(np.arange(cand.size, dtype=np.int64), nwin)

    def _restricted_bag_topk(self, slices, qweights: np.ndarray, matched: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """BM25 bag score over the query terms, restricted to ``matched``
        local docs; (-score, doc) tie-break."""
        if matched.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        scores, _ = self.accumulate(slices, qweights)
        mscores = scores[matched]
        kk = min(k, matched.size)
        order = np.lexsort((matched, -mscores))[:kk]
        return self.doc_ids[matched[order]], mscores[order]

    def near_topk(self, qtids: np.ndarray, qweights: np.ndarray, h_a: int, h_b: int, window: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Proximity (NEAR) top-k: docs where tokens ``h_a`` and ``h_b``
        (md5 hashes, distinct) occur within ``window`` token positions of
        each other, BM25-bag-ranked.  The minimal |i-j| between two label
        sets is always achieved by an adjacent pair in merged position
        order, so the verify is one diff over the candidates' merged
        occurrence lists."""
        if self.fwd_stream is None:
            raise ValueError("near search requires an index built with store_forward=True")
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        pos, cidx = self._candidate_windows(cand, 1)  # every token position
        tok = self.fwd_stream[pos]
        keep = (tok == np.uint64(h_a)) | (tok == np.uint64(h_b))
        pos, cidx, tok = pos[keep], cidx[keep], tok[keep]
        if pos.size < 2:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        # pos ascends within each candidate by construction
        same = cidx[1:] == cidx[:-1]
        cross = tok[1:] != tok[:-1]
        near = same & cross & (pos[1:] - pos[:-1] <= window)
        matched = cand[np.unique(cidx[:-1][near])]
        return self._restricted_bag_topk(slices, qweights, matched, k)

    def sloppy_topk(
        self,
        qtids: np.ndarray,
        h_a: int,
        h_b: int,
        slop: int,
        k: int,
        idf_sum: float,
        avgdl: float,
        k1: float,
        b: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sloppy-phrase top-k (the Lucene ``SloppyPhraseScorer`` shape
        for a two-term phrase): matches are ORDERED position pairs
        (p_a < p_b ≤ p_a + slop + 1); the phrase frequency weights each
        match by 1/(p_b − p_a) — closer pairs contribute more — and the
        doc scores with one BM25 saturation of that weighted frequency:
        ``(idf_a + idf_b) · sf·(k1+1)/(sf + k1·((1−b)+b·dl/avgdl))``.

        Vectorized: the AND-candidates' merged occurrence stream splits
        into the a/b position lists, two ``searchsorted`` probes bound
        each a-occurrence's admissible b-window, pairs expand by
        repeat+arange, and a candidate-equality mask kills pairs that
        would cross a doc boundary (global stream positions are close
        across adjacent docs)."""
        if self.fwd_stream is None:
            raise ValueError("sloppy search requires an index built with store_forward=True")
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        pos, cidx = self._candidate_windows(cand, 1)  # every token position
        tok = self.fwd_stream[pos]
        am = tok == np.uint64(h_a)
        bm = tok == np.uint64(h_b)
        apos, acid = pos[am], cidx[am]
        bpos, bcid = pos[bm], cidx[bm]
        if apos.size == 0 or bpos.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        # bpos ascends globally (stream order), so window probes are global
        lo = np.searchsorted(bpos, apos, side="right")
        hi = np.searchsorted(bpos, apos + np.int64(slop + 1), side="right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if tot == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        rep_a = np.repeat(np.arange(apos.size), cnt)
        excl = np.r_[0, np.cumsum(cnt)[:-1]]
        flat_b = np.repeat(lo, cnt) + (np.arange(tot) - np.repeat(excl, cnt))
        ok = bcid[flat_b] == acid[rep_a]  # no cross-doc pairs
        rep_a, flat_b = rep_a[ok], flat_b[ok]
        if rep_a.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        dist = (bpos[flat_b] - apos[rep_a]).astype(np.float64)
        sf = np.zeros(cand.size, dtype=np.float64)
        np.add.at(sf, acid[rep_a], 1.0 / dist)
        matched = np.flatnonzero(sf > 0)
        norm = (1.0 - b) + b * self.dl[cand[matched]] / avgdl
        sfm = sf[matched]
        scores = idf_sum * sfm * (k1 + 1.0) / (sfm + k1 * norm)
        kk = min(k, matched.size)
        local = cand[matched]
        order = np.lexsort((local, -scores))[:kk]
        return self.doc_ids[local[order]], scores[order]

    def span_near_topk(
        self, qtids: np.ndarray, qweights: np.ndarray, h_seq: np.ndarray, slop: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ordered span-near top-k (Lucene ``SpanNearQuery(inOrder=true,
        slop)``, reference query surface: sparse retrieval only — this is
        engine-parity beyond it): docs containing the span terms at
        positions p1 < … < pm with (pm − p1) − (m−1) ≤ slop,
        BM25-bag-ranked like :meth:`phrase_topk` (slop=0 ≡ exact phrase on
        repeat-free spans).

        Vectorized chain DP over the candidates' merged occurrence
        streams: for each occurrence of span term j, the latest admissible
        chain start is the strict-prefix max of term j−1's chain starts
        within the same candidate.  Global stream positions ascend across
        the occurrence list, so the per-candidate reset is one
        ``cidx·BIG`` offset on a single ``np.maximum.accumulate`` — no
        per-candidate loop."""
        if self.fwd_stream is None:
            raise ValueError("span-near search requires an index built with store_forward=True")
        m = int(h_seq.size)
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        pos, cidx = self._candidate_windows(cand, 1)  # every token position
        tok = self.fwd_stream[pos]
        keep = np.isin(tok, h_seq)
        pos, cidx, tok = pos[keep].astype(np.int64), cidx[keep], tok[keep]
        if pos.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        NEG = np.int64(-(1 << 62))
        BIG = np.int64(self.fwd_stream.size + 1)
        base = cidx * BIG
        # chain[i] = latest valid span start over chains ending at
        # occurrence i of term j (NEG = no chain)
        chain = np.where(tok == h_seq[0], pos, NEG)
        for j in range(1, m):
            v = np.where((tok == h_seq[j - 1]) & (chain > NEG // 2), chain + base, NEG)
            acc = np.maximum.accumulate(v)
            prev = np.empty_like(acc)
            prev[0] = NEG
            prev[1:] = acc[:-1]  # strict: an earlier occurrence only
            start = prev - base  # a leak from an earlier candidate goes < 0
            chain = np.where((tok == h_seq[j]) & (prev > NEG // 2) & (start >= 0), start, NEG)
        ok = (chain > NEG // 2) & (pos - chain <= np.int64(m - 1 + slop))
        matched = cand[np.unique(cidx[ok])]
        return self._restricted_bag_topk(slices, qweights, matched, k)

    def span_first_topk(
        self, qtids: np.ndarray, qweights: np.ndarray, h_term: int, end: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``SpanFirstQuery`` top-k: docs whose token stream holds
        the term at some position < ``end`` (a title/lead-paragraph
        restriction), BM25-bag-ranked with the usual (-score, doc)
        tie-break.  Candidates come from the inverted postings; the verify
        reads ONLY the first min(end, len) positions of each candidate's
        forward stream — one flat gather, no per-candidate loop."""
        if self.fwd_stream is None:
            raise ValueError("span-first search requires an index built with store_forward=True")
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        lens = self.fwd_ptr[cand + 1] - self.fwd_ptr[cand]
        nwin = np.minimum(lens, np.int64(end))
        tot = int(nwin.sum())
        if tot == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        csum = np.cumsum(nwin)
        starts = (
            np.arange(tot, dtype=np.int64)
            - np.repeat(csum - nwin, nwin)
            + np.repeat(self.fwd_ptr[cand], nwin)
        )
        cidx = np.repeat(np.arange(cand.size, dtype=np.int64), nwin)
        ok = self.fwd_stream[starts] == np.uint64(h_term)
        matched = cand[np.unique(cidx[ok])]
        return self._restricted_bag_topk(slices, qweights, matched, k)

    def span_not_topk(
        self,
        qtids: np.ndarray,
        qweights: np.ndarray,
        h_seq: np.ndarray,
        h_excl: int,
        slop: int,
        k: int,
        contain: bool = False,
        score_tids: np.ndarray | None = None,
        score_weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``SpanNotQuery`` top-k: docs holding at least one ordered
        span-near match of the include terms (positions p1 < … < pm with
        (pm − p1) − (m−1) ≤ slop, as :meth:`span_near_topk`) where NO
        occurrence of the exclude term falls inside that span's positions
        [p1, pm].  A doc with every include span poisoned by the exclude
        term does not match.  BM25-bag-ranked over the INCLUDE terms only.

        ``contain=True`` flips the filter into Lucene's
        ``SpanContainingQuery``: the span must HOLD at least one occurrence
        of the (little) term inside [p1, pm] — same DP, same searchsorted
        probes, inverted survival test.

        ``score_tids``/``score_weights`` override the RANKING bag (the
        match set is still driven by ``qtids``/``h_seq``): with
        ``contain=True`` and the little term as the scoring bag this is
        Lucene's ``SpanWithinQuery`` — the little span is returned (and
        scored) where it occurs inside a big span.

        Same chain DP as :meth:`span_near_topk`, but instead of stopping at
        "some chain completed", every completed span (start=chain, end=pos)
        is checked against the candidate's exclude occurrences with two
        ``np.searchsorted`` probes over the base-offset position keys — the
        occurrence stream is globally ascending, so per-candidate ranges
        never interleave and no per-span loop is needed."""
        if self.fwd_stream is None:
            raise ValueError("span-not search requires an index built with store_forward=True")
        m = int(h_seq.size)
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        pos, cidx = self._candidate_windows(cand, 1)  # every token position
        tok = self.fwd_stream[pos]
        keep = np.isin(tok, np.append(h_seq, np.uint64(h_excl)))
        pos, cidx, tok = pos[keep].astype(np.int64), cidx[keep], tok[keep]
        if pos.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        NEG = np.int64(-(1 << 62))
        BIG = np.int64(self.fwd_stream.size + 1)
        base = cidx * BIG
        chain = np.where(tok == h_seq[0], pos, NEG)
        for j in range(1, m):
            v = np.where((tok == h_seq[j - 1]) & (chain > NEG // 2), chain + base, NEG)
            acc = np.maximum.accumulate(v)
            prev = np.empty_like(acc)
            prev[0] = NEG
            prev[1:] = acc[:-1]  # strict: an earlier occurrence only
            start = prev - base  # a leak from an earlier candidate goes < 0
            chain = np.where((tok == h_seq[j]) & (prev > NEG // 2) & (start >= 0), start, NEG)
        ok = (chain > NEG // 2) & (pos - chain <= np.int64(m - 1 + slop))
        if not ok.any():
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        # exclude-overlap check: span survives iff no exclude occurrence has
        # a base-offset key in [start_key, end_key]
        ekeys = (pos + base)[tok == np.uint64(h_excl)]  # ascending by construction
        start_key = chain[ok] + base[ok]
        end_key = pos[ok] + base[ok]
        if contain:
            # Containment is monotone in span width, so per completed end
            # the WIDEST admissible span decides: its start is the SMALLEST
            # include-start position >= pos - (m-1+slop) (any first-term
            # occurrence at or before the DP's max start chains to this end
            # through the same intermediates, so only the slop bound binds).
            t1keys = (pos + base)[tok == h_seq[0]]
            lo_key = np.maximum(end_key - np.int64(m - 1 + slop), base[ok])
            idx = np.minimum(np.searchsorted(t1keys, lo_key, side="left"), t1keys.size - 1)
            wide_start = t1keys[idx]
            clean = np.searchsorted(ekeys, wide_start, side="left") != np.searchsorted(
                ekeys, end_key, side="right"
            )
        else:
            clean = np.searchsorted(ekeys, start_key, side="left") == np.searchsorted(
                ekeys, end_key, side="right"
            )
        matched = cand[np.unique(cidx[ok][clean])]
        if matched.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        if score_tids is not None:
            sslices = self._term_slices(score_tids)
            if len(sslices) < score_tids.size:
                return np.zeros(0, np.int64), np.zeros(0, np.float64)
            return self._restricted_bag_topk(sslices, score_weights, matched, k)
        return self._restricted_bag_topk(slices, qweights, matched, k)

    def intervals_topk(
        self, qtids: np.ndarray, qweights: np.ndarray, h_terms: np.ndarray, max_gaps: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unordered interval match (ES ``intervals`` query,
        ``all_of(ordered: false, max_gaps)``): docs holding ALL m
        (distinct) terms inside one window in ANY order with total
        internal gaps ≤ ``max_gaps`` — positions p_1..p_m with
        (max−min+1) − m ≤ max_gaps — BM25-bag-ranked like
        :meth:`span_near_topk` (which is the ordered=true half).

        Vectorized minimal-cover sweep: at each occurrence (a window END)
        the latest occurrence of every term so far is a segmented
        per-candidate running max, so the tightest window ending there is
        [min_j last_j, pos]; a doc matches iff ANY ending position yields
        width − m ≤ max_gaps.  Same ``cidx·BIG`` offset trick as the span
        chain DP — no per-candidate loop."""
        if self.fwd_stream is None:
            raise ValueError("intervals search requires an index built with store_forward=True")
        m = int(h_terms.size)
        if np.unique(h_terms).size != m:
            raise ValueError("intervals contract covers distinct terms only")
        slices = self._term_slices(qtids)
        if len(slices) < qtids.size:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        cand = self._and_candidates(slices, qtids.size)
        if cand.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        pos, cidx = self._candidate_windows(cand, 1)  # every token position
        tok = self.fwd_stream[pos]
        keep = np.isin(tok, h_terms)
        pos, cidx, tok = pos[keep].astype(np.int64), cidx[keep], tok[keep]
        if pos.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        NEG = np.int64(-(1 << 62))
        BIG = np.int64(self.fwd_stream.size + 1)
        base = cidx * BIG
        wmin: np.ndarray | None = None
        for j in range(m):
            acc = np.maximum.accumulate(np.where(tok == h_terms[j], pos + base, NEG))
            last = acc - base  # < 0 ⇒ latest occurrence is NEG or an earlier candidate's
            wmin = last if wmin is None else np.minimum(wmin, last)
        ok = (wmin >= 0) & (pos - wmin + 1 - np.int64(m) <= np.int64(max_gaps))
        matched = cand[np.unique(cidx[ok])]
        return self._restricted_bag_topk(slices, qweights, matched, k)

    def score_boosting(
        self,
        qtids: np.ndarray,
        qweights: np.ndarray,
        neg_tids: np.ndarray,
        negative_boost: float,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene/ES ``boosting`` query: the positive clause's BM25 bag
        score, MULTIPLIED by ``negative_boost`` on docs that match ANY
        negative-clause term (demotion, not exclusion — contrast
        :meth:`IndexReader.search_not`).  Multiplicative on a zero-safe
        score vector, so tombstoned / unmatched docs stay out of the
        top-k."""
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        scores, _ = self.accumulate(slices, qweights)
        _, neg = self.accumulate(self._term_slices(neg_tids), counts=True)
        scores[neg > 0] *= float(negative_boost)
        return self._topk_from_scores(scores, k, _n_postings(slices))

    def _zone_maxima(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`zone_maxima` of this view, derived on the first pruned
        :meth:`score_wand` and kept until :meth:`mask_deletes` changes the
        weights."""
        if self._zones is None:
            self._zones = zone_maxima(self.term_ptr, self.post_local, self.post_w, self.zone_docs)
        return self._zones

    def _gather_zones(self, slices, zones: np.ndarray, qweights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(local ids, query-weighted impacts) of every posting inside
        ``zones`` — one searchsorted + flat gather per query term for ALL
        zones at once (no per-chunk loop)."""
        pl, pw = self.post_local, self.post_w
        zd = self.zone_docs
        lo_doc, hi_doc = zones * zd, (zones + 1) * zd
        ids_parts, w_parts = [], []
        for i, s, e, _ in slices:
            seg = pl[s:e]
            lo = np.searchsorted(seg, lo_doc) + s
            hi = np.searchsorted(seg, hi_doc) + s
            lens = hi - lo
            tot = int(lens.sum())
            if tot == 0:
                continue
            csum = np.cumsum(lens)
            idx = np.arange(tot, dtype=np.int64) - np.repeat(csum - lens, lens) + np.repeat(lo, lens)
            ids_parts.append(pl[idx])
            w_parts.append(pw[idx] * qweights[i])
        if not ids_parts:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        return np.concatenate(ids_parts), np.concatenate(w_parts)

    def score_wand(
        self,
        qtids: np.ndarray,
        qweights: np.ndarray,
        k: int,
        top_zones: int = 32,
        fallback_frac: float = 0.5,
        min_zone_mult: float = 4.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block-max pruned top-k (two-phase vectorized WAND variant).

        Zones are aligned doc-id ranges, so a doc's *entire* score lies
        within its zone — scoring a zone over all query terms yields exact
        scores.  Phase 1 exact-scores the ``top_zones`` zones with the
        highest upper bounds (ub(z) = Σ_t qw_t · zone_max_t[z], the
        block-max WAND bound) to establish the kth-score threshold; phase 2
        scores only the remaining zones whose ub can still beat it — in ONE
        vectorized gather, not a zone-at-a-time walk.  When the bound
        distribution is flat (pruning keeps > ``fallback_frac`` of the
        zones), it answers exhaustively.  Identical top-k to exhaustive
        (tested).

        Pruning rarely pays: the pruned path ends in the same dense
        bincount + top-k pass over ``n_local`` docs that exhaustive makes,
        so it can only save per-posting work, and the bounds and zone
        gathers usually cost more than that.  Compared query by query on
        a 194k-doc index, WAND lost on a majority of the queries in every
        postings-per-zone bucket (BASELINE.md "WAND routing").  So with
        any nonzero ``min_zone_mult`` (the default) the query is answered
        by one :meth:`score_exhaustive` call before any bound work; pass
        ``min_zone_mult=0`` to force the pruning path."""
        if min_zone_mult:
            return self.score_exhaustive(qtids, qweights, k)
        slices = self._term_slices(qtids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)

        # zone upper bounds summed across query terms
        zone_ptr, zids, zone_max = self._zone_maxima()
        z_parts, ub_parts = [], []
        for i, _, _, p in slices:
            zs, ze = zone_ptr[p], zone_ptr[p + 1]
            z_parts.append(zids[zs:ze])
            ub_parts.append(zone_max[zs:ze] * qweights[i])
        allz = np.concatenate(z_parts)
        uz, inv = np.unique(allz, return_inverse=True)
        ub = np.bincount(inv, weights=np.concatenate(ub_parts))
        order = np.argsort(-ub, kind="stable")
        uz, ub = uz[order], ub[order]

        # flatness pre-check: the threshold can never exceed ub[0], so when
        # the median zone bound is already within 15% of the best, pruning
        # cannot discard a useful fraction — skip the bound machinery and
        # answer exhaustively (costs only the ub computation above)
        if uz.size > top_zones and ub[uz.size // 2] >= 0.85 * ub[0]:
            return self.score_exhaustive(qtids, qweights, k)

        # phase 1: exact scores of the best-bounded zones, candidate-scoped
        # (unique+bincount over <= top_zones·zone_docs docs — no dense
        # vector, no corpus-wide nonzero scan, so an eventual fallback has
        # wasted almost nothing)
        ids1, w1 = self._gather_zones(slices, uz[:top_zones], qweights)
        sel = None
        if uz.size > top_zones and ids1.size:
            cand, inv1 = np.unique(ids1, return_inverse=True)
            csc = np.bincount(inv1, weights=w1)
            if cand.size >= k > 0:
                t = select_topk(cand, csc, k)[1][-1]
                # ub >= t keeps boundary ties exact under (-score, doc_id)
                sel = ub[top_zones:] >= t
        if uz.size > top_zones:
            if sel is None or int(sel.sum()) > fallback_frac * (uz.size - top_zones):
                # flat bound distribution: pruning keeps most zones, and the
                # zone-indexed gather costs more than the plain contiguous
                # slices — answer with the exhaustive kernel instead
                return self.score_exhaustive(qtids, qweights, k)
            ids2, w2 = self._gather_zones(slices, uz[top_zones:][sel], qweights)
            ids1, w1 = np.concatenate([ids1, ids2]), np.concatenate([w1, w2])
        scores = np.bincount(ids1, weights=w1, minlength=self.n_local)
        return self._topk_from_scores(scores, k, ids1.size)


# Lucene query_string mini-syntax: optional +/- sign, quoted phrase or bare
# term, optional ^boost.  (AND/OR connectives are out of scope — the
# default_operator=OR grammar with explicit +/- occurrence flags.)
_QS_CLAUSE_RE = re.compile(r'([+\-]?)(?:"([^"]*)"|([^\s"]+?))(?:\^(\d+(?:\.\d+)?))?(?=\s|$)')


def parse_query_string(qstring: str) -> list[tuple[str, str, str, float]]:
    """Parse a Lucene ``query_string`` expression into (role, kind, text,
    boost) clauses — role ∈ {must, should, not}, kind ∈ {term, phrase}.
    Supported syntax: ``+required``, ``-prohibited``, bare optional terms,
    ``"quoted phrases"`` and ``clause^2.5`` boosts, whitespace-separated."""
    out = []
    for m in _QS_CLAUSE_RE.finditer(qstring):
        sign, phrase, term, boost = m.groups()
        role = {"+": "must", "-": "not"}.get(sign, "should")
        kind = "term" if phrase is None else "phrase"
        out.append((role, kind, phrase if term is None else term, float(boost or 1.0)))
    return out


class Hits(NamedTuple):
    """A shard-local leg's candidates: doc ids, scores, per-hit values (the
    grouping value of an election leg, the window of a snippet leg) and
    urls, which a shard actor fills in where the docs live; an in-process
    leg leaves them None so only the merged winners' urls are looked up."""

    docs: np.ndarray
    scores: np.ndarray
    vals: np.ndarray | list | None = None
    urls: list[str] | None = None


def _hits(cands) -> Hits:
    """One :class:`Hits` of per-shard ``(docs, scores[, vals])`` candidates."""
    if not cands:
        return Hits(np.zeros(0, np.int64), np.zeros(0, np.float64), np.zeros(0, object))
    if len(cands) == 1:  # a consolidated reader: the per-query hot path, no copy
        return Hits(*cands[0])
    return Hits(*(np.concatenate(c) for c in zip(*cands)))


def _check_k(k) -> None:
    """Reject a ``k`` no top-k can honour: a negative one would flow into
    ``np.partition`` and the ``[:k]`` slices and silently drop hits."""
    if not (type(k) is int or isinstance(k, np.integer)) or k < 0:  # bool is not int here
        raise ValueError(f"k must be a non-negative integer, got {k!r}")


def _topk_kernel(method: str) -> str:
    """The :class:`ShardIndex` top-k kernel a ``method`` names."""
    return "score_wand" if method == "wand" else "score_exhaustive"


class QueryFront:
    """The queries :class:`IndexReader` and :class:`ShardedSearcher` both
    serve, each written once: the driver side (encode, the early return on
    an empty query, the merge) lives here, and the shard-local side is an
    :class:`IndexReader` method, a *leg*, named by the query.  ``_legs``
    is the one executor: the reader runs a leg in process over its own
    shards, the sharded searcher runs it on every shard group's actor with
    replica failover.  Doc shards are disjoint, so merging the legs'
    per-shard exact results is globally exact.  ``reader`` is the
    :class:`IndexReader` holding the query-side state (vocab, tokenizer,
    dictionary expansions)."""

    reader: "IndexReader"

    def _legs(self, name: str, *args) -> list:
        """One result of leg ``name`` per shard group."""
        raise NotImplementedError

    def _urls(self, parts: list[Hits], docs, idx) -> list[str]:
        """Urls of the hits at positions ``idx`` of the legs' concatenated
        candidates (doc ids ``docs``): one batched lookup when the legs ran
        in process, else what the shard actors shipped."""
        if len(idx) == 0:
            return []
        if parts[0].urls is None:
            return self.url_of(docs)
        shipped = [u for p in parts for u in p.urls]
        return [shipped[i] for i in idx]

    def _merge_hits(self, parts: list[Hits], k: int) -> list[tuple[int, float, str]]:
        """Global (-score, doc_id) top-k of the legs' hits."""
        if not parts:
            return []
        if len(parts) == 1:  # in process: no copy on the per-query hot path
            d, s = parts[0].docs, parts[0].scores
        else:
            d = np.concatenate([p.docs for p in parts])
            s = np.concatenate([p.scores for p in parts])
        order = np.lexsort((d, -s))[:k]
        top = d[order]
        return list(zip(top.tolist(), s[order].tolist(), self._urls(parts, top, order)))

    def _topk(self, k: int, kernel: str, *args) -> list[tuple[int, float, str]]:
        """Top-k of the :class:`ShardIndex` kernel ``kernel`` run on every shard."""
        _check_k(k)
        return self._merge_hits(self._legs("_on_shards", kernel, *args), k)

    def _elect(self, parts: list[Hits], per_value: int, rounded: bool = True) -> dict:
        """Per grouping value, its ``per_value`` best candidates over every
        leg as (score, doc_id, url) in (-score, doc_id) order — the score
        compared at 6 decimals when ``rounded`` (the repo-wide compare
        precision, so engine and SQL oracle agree when two docs tie at 6
        decimals but differ at fp epsilon)."""
        pool: dict = {}
        pos = 0
        for p in parts:
            for s, d, v in zip(p.scores.tolist(), p.docs.tolist(), p.vals):
                pool.setdefault(v, []).append((s, d, pos))
                pos += 1
        key = (lambda c: (-round(c[0], 6), c[1])) if rounded else (lambda c: (-c[0], c[1]))
        won = {v: sorted(c, key=key)[:per_value] for v, c in pool.items()}
        flat = [c for cand in won.values() for c in cand]
        urls = iter(self._urls(parts, [c[1] for c in flat], [c[2] for c in flat]))
        return {v: [(s, d, next(urls)) for s, d, _p in cand] for v, cand in won.items()}

    def search(self, text: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """BM25 top-k, exhaustive or block-max pruned (``method="wand"``);
        ``method="phrase"`` is :meth:`search_phrase`.  ``k`` must be a
        non-negative integer (ValueError otherwise); ``k=0`` answers []."""
        _check_k(k)
        if k == 0:
            return []
        if method == "phrase":
            return self.search_phrase(text, k)
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        return self._topk(k, _topk_kernel(method), qtids, qw, k)

    def msearch(
        self, texts: list[str], k: int = 10, method: str = "exhaustive"
    ) -> list[list[tuple[int, float, str]]]:
        """Batched multi-search (ES ``_msearch``): every query is encoded
        once, then the WHOLE batch rides ONE leg per shard group — Q
        queries cost Q·shards scoring but only |groups| round trips on the
        sharded path.  Results equal Q independent :meth:`search` calls."""
        _check_k(k)
        if k == 0:
            return [[] for _ in texts]
        encoded = [self.reader.encode_query(t) for t in texts]
        live = [i for i, (qt, _) in enumerate(encoded) if qt.size > 0]
        out: list[list[tuple[int, float, str]]] = [[] for _ in texts]
        if not live:
            return out
        parts = self._legs("_leg_msearch", [encoded[i] for i in live], k, method)
        for bi, qi in enumerate(live):
            out[qi] = self._merge_hits([per_group[bi] for per_group in parts], k)
        return out

    def search_after(
        self, text: str, k: int = 10, after: tuple[float, int] | None = None
    ) -> list[tuple[int, float, str]]:
        """Deep pagination: the top-k strictly after the ``(score, doc_id)``
        cursor in the (-score, doc_id) total order (pass the last hit of
        the previous page).  ``after=None`` degrades to :meth:`search`.
        Per shard the cursor is applied INSIDE the scorer, so no page is
        ever re-collected — the search_after contract."""
        if after is None:
            return self.search(text, k)
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        return self._topk(k, "score_after", qtids, qw, k, float(after[0]), int(after[1]))

    def search_synonyms(self, groups: list[list[str]], k: int = 10) -> list[tuple[int, float, str]]:
        """Synonym retrieval (Lucene SynonymQuery): each group of terms
        scores as ONE pseudo-term — member tfs SUM before the BM25
        saturation, under idf(max member df) — and group scores add.
        Exhaustive only: blended-tf bounds aren't decomposable over the
        per-term zone maxima, so WAND is out of scope (Lucene
        likewise gives SynonymQuery its own scorer)."""
        g_tids, g_idf = self.reader._expand_synonym_groups(groups)
        if not g_tids:
            return []
        return self._topk(k, "score_synonyms", g_tids, g_idf, k)

    def search_dismax(self, text: str, k: int = 10, tie: float = 0.0) -> list[tuple[int, float, str]]:
        """Disjunction-max top-k (Lucene DisjunctionMaxQuery): each doc
        scores its BEST single query-term contribution plus ``tie`` × the
        rest, instead of the BM25 sum — the field-disjunction shape that
        stops multi-term coordination from drowning out a strong single
        match.  Exact per shard (the kernel sees every posting)."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        return self._topk(k, "score_dismax", qtids, qw, k, tie)

    def search_phrase(self, text: str, k: int = 10) -> list[tuple[int, float, str]]:
        """Exact-phrase top-k (requires a ``store_forward=True`` build):
        docs whose token stream contains the query tokens CONSECUTIVELY,
        ranked by the same BM25 bag score / (-score, doc) tie-break as
        :meth:`search`.  An OOV phrase token ⇒ no match anywhere ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.reader.tok.tokenize(text)
        if not toks:
            return []
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one phrase token is OOV
        return self._topk(k, "phrase_topk", qtids, qw, md5_u64(toks), k)

    def search_query_string(self, qstring: str, k: int = 10) -> list[tuple[int, float, str]]:
        """Lucene/ES ``query_string`` retrieval: ``+must``, ``-must_not``,
        bare should terms, ``"quoted phrases"`` and ``^boost`` factors,
        composed onto the existing BM25 / phrase kernels per shard.

        Contract: docs must satisfy every must clause (when none exist, at
        least one should clause) and no must_not clause; the score is the
        boost-weighted sum of the BM25 bag scores of the must+should
        clauses the doc matches, (-score, doc_id) ties.  A clause with an
        OOV token can never match: as a must that empties the result, as a
        should it's dropped, as a must_not it excludes nothing.  Phrase
        clauses need ``store_forward=True`` builds."""
        spec = self.reader.build_query_string_spec(qstring)
        if spec is None:
            return []
        return self._topk(k, "score_query_string", spec, k)

    def _search_expanded(self, qtids: np.ndarray, k: int, method: str) -> list[tuple[int, float, str]]:
        """Score an expanded-OR term-id set (unit query weight, per-term
        idf) through the unchanged kernels — shared by every dictionary
        expansion (prefix / fuzzy / regexp / wildcard / substring)."""
        if qtids.size == 0:
            return []
        return self._topk(k, _topk_kernel(method), qtids, np.ones(qtids.size, np.float64), k)

    def search_prefix(self, prefix: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """Wildcard top-k (``pre*``): the query expands to every vocab term
        with the prefix, each with unit query weight and its OWN idf
        (expanded-OR semantics), and scores through the unchanged BM25
        kernels — exhaustive or block-max pruned."""
        return self._search_expanded(self.reader.expand_prefix(prefix), k, method)

    def search_fuzzy(
        self, term: str, k: int = 10, max_edits: int = 1, method: str = "exhaustive"
    ) -> list[tuple[int, float, str]]:
        """Fuzzy top-k (Lucene FuzzyQuery shape): the term expands to every
        vocab term within ``max_edits`` Levenshtein distance, each scored
        with unit query weight and its OWN idf through the unchanged BM25
        kernels — identical expanded-OR semantics to :meth:`search_prefix`."""
        return self._search_expanded(self.reader.expand_fuzzy(term, max_edits), k, method)

    def search_regexp(self, pattern: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """Regexp top-k (Lucene RegexpQuery shape): the pattern expands to
        every fully-matching vocab term, each with unit query weight and
        its OWN idf — identical expanded-OR semantics to
        :meth:`search_prefix` / :meth:`search_fuzzy`."""
        return self._search_expanded(self.reader.expand_regexp(pattern), k, method)

    def search_wildcard(self, pattern: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """Wildcard top-k (Lucene WildcardQuery): ``*``/``?`` glob over
        the term dictionary, expanded-OR semantics identical to
        :meth:`search_prefix` / :meth:`search_regexp` — each matched term
        carries unit query weight and its OWN idf."""
        return self._search_expanded(self.reader.expand_wildcard(pattern), k, method)

    def search_substring(self, sub: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """Infix top-k (ES ``wildcard`` field ``*sub*`` shape): the needle
        expands through the trigram dictionary to every containing vocab
        term, each with unit query weight and its OWN idf — expanded-OR
        semantics identical to :meth:`search_prefix` etc., but the
        dictionary lookup is index-accelerated instead of a full scan."""
        return self._search_expanded(self.reader.expand_substring(sub), k, method)

    def _index_ordered(self, text: str, k: int) -> tuple[list[int], int]:
        """(first ``k`` matching internal doc ids in index order,
        postings touched) over every shard group's early-terminated walk."""
        qtids, _qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return [], 0
        parts = self._legs("_leg_index_ordered", qtids, k)
        return sorted(i for ids, _t in parts for i in ids)[:k], sum(t for _ids, t in parts)

    def search_collapse(self, text: str, k: int = 10, attr_col: str = "source") -> list[tuple[str, int, float, str]]:
        """Field collapsing (Lucene grouping / ES ``collapse``): the single
        best-scoring doc per ``attr_col`` value, values ranked by their
        winner's (-score, doc_id), top ``k`` values.  Shard owners each
        ship |values| cells; the match set itself never leaves them.
        Returns (value, doc_id, score, url) rows."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        best = self._elect(self._legs("_leg_elect", qtids, qw, attr_col, 1), 1)
        ranked = sorted(best.items(), key=lambda vc: (-round(vc[1][0][0], 6), vc[1][0][1]))[:k]
        return [(v, d, s, u) for v, [(s, d, u)] in ranked]

    def search_diversified(
        self, text: str, k: int = 10, attr_col: str = "source", per_value: int = 2
    ) -> list[tuple[int, float, str, str]]:
        """Diversified top-k (ES ``diversified_sampler`` + top hits): at
        most ``per_value`` docs per ``attr_col`` value survive, survivors
        ranked by (-score, doc_id), top ``k``.  Exact, because a value's
        global top ``per_value`` is a subset of the union of the per-shard
        top ``per_value`` sets the legs ship.  Returns (doc_id, score, url,
        value) rows."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        best = self._elect(self._legs("_leg_elect", qtids, qw, attr_col, per_value), per_value)
        rows = [(d, s, u, v) for v, cand in best.items() for s, d, u in cand]
        rows.sort(key=lambda r: (-round(r[1], 6), r[0]))
        return rows[:k]

    def search_collapse_inner(
        self, text: str, n_groups: int = 3, per_value: int = 2, attr_col: str = "source"
    ) -> list[tuple[str, int, int, int, float, str]]:
        """Field collapsing WITH inner_hits (ES ``collapse.inner_hits``):
        groups ranked by their winner's (-score, doc_id), top ``n_groups``
        groups each expanded to their own top ``per_value`` docs — exact by
        :meth:`search_diversified`'s argument.  Returns (value, group_rank,
        inner_rank, doc_id, score, url) rows."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        best = self._elect(self._legs("_leg_elect", qtids, qw, attr_col, per_value), per_value)
        groups = sorted(best.items(), key=lambda g: (-round(g[1][0][0], 6), g[1][0][1]))[:n_groups]
        return [
            (v, g, i, d, s, u) for g, (v, cand) in enumerate(groups, 1) for i, (s, d, u) in enumerate(cand, 1)
        ]

    def search_top_hits(self, text: str, attr_col: str = "lang", n: int = 3) -> list[tuple[str, int, int, float]]:
        """Top-hits-per-bucket (ES ``terms`` agg + ``top_hits``): for each
        ``attr_col`` value, the ``n`` best-scoring matched docs ((−score,
        doc) order).  Returns (value, rank, doc_id, score) rows, values
        sorted ascending."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        best = self._elect(self._legs("_leg_elect", qtids, qw, attr_col, n, False), n, rounded=False)
        return [(v, r, d, s) for v in sorted(best) for r, (s, d, _u) in enumerate(best[v], 1)]

    def search_boosted(
        self,
        text: str,
        k: int = 10,
        attr_col: str = "n_chars",
        boost: float = 0.5,
        pivot: float = 1000.0,
        feature: str = "rank_log1p",
        origin: float = 0.0,
    ) -> list[tuple[int, float, str]]:
        """Static-signal retrieval (Lucene FeatureField / ES
        distance_feature / function_score field_value_factor, selected by
        ``feature`` — see :meth:`IndexReader._leg_boosted`): BM25 with the
        doc-value modifier applied inside each shard before its top-k."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        parts = self._legs("_leg_boosted", qtids, qw, k, attr_col, boost, pivot, feature, origin)
        return self._merge_hits(parts, k)

    def search_terms_set(
        self, terms: list[str], k: int = 10, attr_col: str = "n_chars", mod: int = 3
    ) -> list[tuple[int, float, str]]:
        """``terms_set`` retrieval (ES terms_set query with a per-doc
        ``minimum_should_match_field``): docs containing at least
        ``1 + (doc_value mod mod)`` DISTINCT of ``terms`` rank by the
        unit-weight expanded-OR BM25 bag over the term set."""
        tids = []
        for t in terms:
            q, _ = self.reader.encode_query(t)
            if q.size:
                tids.append(int(q[0]))
        qtids = np.unique(np.asarray(tids, dtype=np.int64))
        if qtids.size == 0:
            return []
        return self._merge_hits(self._legs("_leg_terms_set", qtids, k, attr_col, mod), k)

    def search_decay(
        self, text: str, k: int = 10, attr_col: str = "n_chars", origin: float = 1000.0, scale: float = 500.0
    ) -> list[tuple[int, float, str]]:
        """Function-score retrieval with a gauss decay on a numeric
        doc-value (ES ``function_score``/``gauss``): BM25 × exp(−(attr −
        origin)²/(2σ²)), decay 0.5 at ``scale`` from ``origin``, applied
        inside each shard before its top-k."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        return self._merge_hits(self._legs("_leg_decay", qtids, qw, k, attr_col, origin, scale), k)

    def search_function_score(
        self,
        text: str,
        k: int,
        functions: list[dict],
        max_boost: float = 3.0,
        min_score: float = 0.0,
    ) -> list[tuple[int, float, str]]:
        """Multi-function ``function_score`` retrieval: each shard applies
        the filtered functions (score_mode=sum, factor capped at
        ``max_boost``, boost_mode=multiply, ``min_score`` cut) to its OWN
        matched docs before its top-k."""
        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        parts = self._legs("_leg_function_score", qtids, qw, k, functions, max_boost, min_score)
        return self._merge_hits(parts, k)

    def snippets(self, text: str, k: int = 5, W: int = 12, method: str = "exhaustive"):
        """Top-k + best-W-token-window snippets: each shard group scores
        its shards and reads only its own top-k hits' texts (k-bounded
        point reads), the merge keeps the global top-k — no corpus scan.
        Window rule identical to the ``search_snippets`` pipeline (shared
        ``best_snippet_window``).

        Returns [(doc_id, score, url, start_tok, n_hits, snippet)] in
        (-score, doc_id) order."""
        from ..functions.hashing import md5_u64

        qtids, qw = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        toks = self.reader.tok.tokenize(text)
        qh = np.unique(md5_u64(toks)) if toks else np.zeros(0, np.uint64)
        parts = self._legs("_leg_snippets", qtids, qw, qh, k, W, method)
        window = {d: w for p in parts for d, w in zip(p.docs.tolist(), p.vals)}
        return [(d, s, u, *window[d]) for d, s, u in self._merge_hits(parts, k)]

    def facets(self, text: str, m: int = 1, attr_col: str = "lang") -> dict[str, int]:
        """Faceted match-set counts: each shard counts its own matched docs
        per facet value (>= m distinct query terms) and the merge sums
        |facets| cells per shard group — the match set never leaves the
        shard owners."""
        qtids, _ = self.reader.encode_query(text)
        if qtids.size == 0:
            return {}
        return _sum_counts(self._legs("_leg_counts", qtids, m, attr_col))

    def histogram(self, text: str, attr_col: str = "n_chars", width: int = 200, m: int = 1) -> list[tuple[int, int]]:
        """Histogram aggregation (ES ``histogram``) over the disjunctive
        match set: each shard buckets its own matched docs by
        ``floor(doc_value / width)`` and the merge sums |buckets| cells per
        shard group.  Returns (bucket_lo, n_docs) rows in bucket order."""
        qtids, _ = self.reader.encode_query(text)
        if qtids.size == 0:
            return []
        total = _sum_counts(self._legs("_leg_counts", qtids, m, attr_col, width))
        return [(b * width, total[b]) for b in sorted(total)]

    def adjacency_matrix(self, filters: list[tuple[str, str, int]]) -> list[tuple[str, str, int]]:
        """Adjacency-matrix aggregation over named boolean filters
        (``(name, text, min_should_match)`` triples): (name_a, name_b,
        n_docs) rows for every a <= b pair with a nonzero intersection —
        the ES ``adjacency_matrix`` response shape (diagonal = per-filter
        counts).  Each shard group ships M² cells.  A filter with any
        OOV-only text matches nothing."""
        names, tid_sets, ms = [], [], []
        for name, text, m in filters:
            qtids, _ = self.reader.encode_query(text)
            names.append(name)
            tid_sets.append(qtids)
            ms.append(max(1, int(m)))
        total = sum(self._legs("_leg_adjacency", tid_sets, np.asarray(ms)))
        rows = []
        for i, na in enumerate(names):
            for j in range(i, len(names)):
                c = int(total[i, j])
                if c > 0:
                    rows.append((na, names[j], c))
        return rows


def _sum_counts(parts: list[dict]) -> dict:
    """Key-wise sum of the legs' count dicts."""
    total: dict = {}
    for part in parts:
        for key, n in part.items():
            total[key] = total.get(key, 0) + n
    return total


class IndexReader(QueryFront):
    """Loads index metadata + all shards of an index directory.

    ``consolidate``: load the shards as one CSC serving view
    (:meth:`ShardIndex.consolidated` over every shard) when the postings
    fit ``consolidate_budget_bytes`` — the single-node fast path.  The
    estimate is 48 B per posting from the shards' ``df`` sums, taken after
    the parquet reads and before any decode: twice the ~24 B a posting
    costs in the view, the margin of the former load-then-merge path, so
    the same indexes consolidate.  Past the budget (or with
    ``consolidate=False``) the loader runs once per shard; the multi-node
    deployment (:class:`ShardedSearcher`) never consolidates across nodes
    at all.

    ``load_stats``: what the open did — ``shards`` opened, ``nnz``,
    ``postings_bytes`` read, whether the view was ``consolidated``, and
    the seconds of its ``vocab_s``, ``read_s``, ``layout_s`` and
    ``decode_s`` phases (per-shard views sum theirs).

    ``select_stats``: the shards' top-k selections so far by route,
    ``{"sampled": n, "scan": n}`` (:meth:`ShardIndex._topk_from_scores`)."""

    def __init__(
        self,
        index_dir: str,
        cfg: EngineConfig | None = None,
        shard_ids: list[int] | None = None,
        consolidate: bool = True,
        consolidate_budget_bytes: int = 8 << 30,
        deletes: list[str] | None = None,
        global_stats: dict | None = None,
        corpus_path: str | None = None,
    ):
        """``deletes``: urls to tombstone at load (Lucene semantics — docs
        excluded from every result, global stats unchanged until merge).
        When None, the index's ``deletes.json`` (written by
        :func:`apply_deletes`) is honored if present.

        ``global_stats``: override the corpus-level stats this segment
        scores with — ``{"n_docs", "avgdl", "sum_dl", "df", "cf"?}`` with
        ``df``/``cf`` dense arrays ALIGNED to this index's own (sorted)
        vocab term ids.  This is the federation seam
        (:class:`FederatedReader`): a segment scoring under the UNION
        corpus stats is score-identical to the physically merged build.

        ``corpus_path``: the corpus parquet the index was built from (url,
        text, doc-value columns) — the doc-value sidecar of the attribute
        queries and the snippet texts.  Defaults to the
        ``corpus_input.parquet`` the documents-index adapter caches inside
        ``index_dir``, when present."""
        if corpus_path is None:
            cand = os.path.join(index_dir, "corpus_input.parquet")
            corpus_path = cand if os.path.exists(cand) else None
        self.corpus_path = corpus_path
        self._attr_cache: dict[str, list[np.ndarray]] = {}
        t0 = time.perf_counter()
        stats_dir = os.path.join(index_dir, "stats")
        meta = read_json(os.path.join(stats_dir, "meta.json"))
        self.n_docs = meta["n_docs"]
        self.avgdl = meta["avgdl"]
        self.encoder = meta.get("encoder", "bm25")
        self.vocab_mode = meta.get("vocab_mode", "sorted")
        self.sum_dl = meta.get("sum_dl")
        self.cf = None
        if self.encoder == "bm25":
            vocab = _read_parquet(os.path.join(stats_dir, "vocab.parquet"))
        if self.encoder == "bm25" and self.vocab_mode == "hashed":
            tid_index = vocab.column("term_id").to_numpy(zero_copy_only=False).astype(np.int64)
            dfv = vocab.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
            self.vocab_index, self.term_id, self.df = None, None, (tid_index, dfv)
            if "cf" in vocab.column_names:
                self.cf = (tid_index, vocab.column("cf").to_numpy(zero_copy_only=False).astype(np.int64))
        elif self.encoder == "bm25":
            terms = vocab.column("term").to_numpy(zero_copy_only=False)
            self.vocab_index = pd.Index(terms)
            # term -> vocab term id: the per-query lookup (a dict probe per
            # token costs far less than a pandas get_indexer call)
            self.term_id = dict(zip(terms, range(len(terms))))
            self.df = vocab.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
            if "cf" in vocab.column_names:
                self.cf = vocab.column("cf").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            self.vocab_index, self.term_id, self.df = None, None, None
        if global_stats is not None:
            if self.vocab_index is None:
                raise ValueError("global_stats override needs a sorted-vocab bm25 index")
            self.n_docs = int(global_stats["n_docs"])
            self.avgdl = float(global_stats["avgdl"])
            self.sum_dl = int(global_stats["sum_dl"])
            self.df = np.asarray(global_stats["df"], dtype=np.int64)
            if global_stats.get("cf") is not None:
                self.cf = np.asarray(global_stats["cf"], dtype=np.int64)
        self.cfg = cfg or DEFAULT_CONFIG
        self.tok = Tokenizer(self.cfg)

        pdir = os.path.join(index_dir, "postings")
        all_ids = postings_shard_ids(pdir)
        if shard_ids is not None:
            all_ids = [s for s in all_ids if s in set(shard_ids)]
        files = [
            (os.path.join(pdir, f"shard-{s:05d}.postings.parquet"), os.path.join(pdir, f"shard-{s:05d}.docs.parquet"))
            for s in all_ids
        ]
        t1 = time.perf_counter()
        tables = _pmap(_read_shard, files)
        t2 = time.perf_counter()
        nnz = sum(int(pa.compute.sum(post.column("df")).as_py() or 0) for post, _ in tables)
        merged = consolidate and len(tables) > 1 and nnz * 24 * 2 <= consolidate_budget_bytes

        def load(shard_tables: list) -> ShardIndex:
            return ShardIndex.consolidated(
                shard_tables, self.df, self.n_docs, self.avgdl, self.cfg, cf_global=self.cf, sum_dl=self.sum_dl
            )

        self.shards = [load(tables)] if merged else _pmap(lambda t: load([t]), tables)
        if deletes is None:
            deletes = (read_json(os.path.join(index_dir, "deletes.json")) or {}).get("urls")
        if deletes:
            del_arr = pa.array(sorted(set(deletes)), type=pa.string())
            for sh in self.shards:
                sh.mask_deletes(del_arr)
        self.load_stats = {
            "shards": len(files),
            "nnz": nnz,
            "postings_bytes": sum(os.path.getsize(post) for post, _ in files),
            "consolidated": merged,
            "vocab_s": t1 - t0,
            "read_s": t2 - t1,
            "layout_s": sum(sh.load_times["layout_s"] for sh in self.shards),
            "decode_s": sum(sh.load_times["decode_s"] for sh in self.shards),
        }
        # positional url lookup: doc_ids ascend within and across shards
        # (doc-sharded contract), so searchsorted over the concatenated id
        # array replaces the old per-doc Python dict (no |docs| dict
        # entries, no Python strings — urls stay Arrow until a hit returns)
        if self.shards:
            self._doc_index = np.concatenate([sh.doc_ids for sh in self.shards])
            self._url_arr = pa.concat_arrays([sh.urls for sh in self.shards])
        else:
            self._doc_index = np.zeros(0, np.int64)
            self._url_arr = pa.array([], type=pa.string())
        # zero-copy views of the url column's offsets and bytes: a hit's
        # url is one slice + decode, not an Arrow scalar
        arr = self._url_arr
        off_type = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        self._url_offs = np.frombuffer(arr.buffers()[1], dtype=off_type, count=arr.offset + len(arr) + 1)[arr.offset :]
        self._url_data = memoryview(arr.buffers()[2])

    @property
    def reader(self) -> "IndexReader":
        """The query-side state of this reader's queries: its own."""
        return self

    @property
    def select_stats(self) -> dict[str, int]:
        """Top-k selections by route, summed over the shards."""
        return {route: sum(sh.select_stats[route] for sh in self.shards) for route in ("sampled", "scan")}

    def _legs(self, name: str, *args) -> list:
        """In process: leg ``name`` over this reader's own shards, as the
        one shard group."""
        return [getattr(self, name)(*args)]

    # -- shard-local legs: run in process, or on a ShardScorerActor's reader

    def _on_shards(self, kernel: str, *args) -> Hits:
        """The leg of a plain top-k query: :class:`ShardIndex` kernel
        ``kernel`` on every shard, candidates concatenated."""
        return _hits([getattr(sh, kernel)(*args) for sh in self.shards])

    def _leg_msearch(self, encoded: list[tuple[np.ndarray, np.ndarray]], k: int, method: str) -> list[Hits]:
        """One top-k leg per encoded query, in one visit (postings stay hot
        across the batch)."""
        kernel = _topk_kernel(method)
        return [self._on_shards(kernel, qtids, qw, k) for qtids, qw in encoded]

    def _scored_shards(self, qtids: np.ndarray, qw: np.ndarray):
        """(shard position, shard, BM25 scores, postings scanned) of every
        shard holding a query term."""
        for si, sh in enumerate(self.shards):
            slices = sh._term_slices(qtids)
            if slices:
                yield si, sh, sh.accumulate(slices, qw)[0], _n_postings(slices)

    def _attr_for_shards(self, attr_col: str) -> list[np.ndarray]:
        """Per-shard doc-attribute arrays (aligned to local doc order),
        loaded ONCE per reader from a column-pruned corpus read and cached —
        the per-shard attribute column a facet module keeps alongside
        postings (at cluster scale this is a co-located sidecar file, not
        a corpus-wide read)."""
        if self.corpus_path is None:
            raise ValueError("doc-value queries need corpus_path")
        if attr_col not in self._attr_cache:
            tbl = pq.read_table(self.corpus_path, columns=["url", attr_col])
            cu = np.asarray(tbl.column("url").to_pylist(), dtype=object)
            ca = np.asarray(tbl.column(attr_col).to_pylist(), dtype=object)
            order = np.argsort(cu)
            cu, ca = cu[order], ca[order]
            per_shard = []
            for sh in self.shards:
                su = np.asarray(sh.urls.to_pylist(), dtype=object)
                pos = np.minimum(np.searchsorted(cu, su), max(cu.size - 1, 0))
                if cu.size == 0 or not (cu[pos] == su).all():
                    raise KeyError(
                        f"facet corpus {self.corpus_path} is missing indexed "
                        f"url(s): index/corpus mismatch"
                    )
                per_shard.append(ca[pos])
            self._attr_cache[attr_col] = per_shard
        return self._attr_cache[attr_col]

    def _leg_counts(self, qtids: np.ndarray, m: int, attr_col: str, width: int | None = None) -> dict:
        """Counts of this reader's docs matching >= ``m`` distinct query
        terms (the disjunctive match set, tombstone-aware) per
        ``attr_col`` value — or, given ``width``, per histogram bucket
        ``floor(value / width)`` of a numeric doc-value."""
        out: dict = {}
        for sh, attr in zip(self.shards, self._attr_for_shards(attr_col)):
            slices = sh._term_slices(qtids)
            if not slices:
                continue
            _, cnt = sh.accumulate(slices, counts=True)
            matched = cnt >= m
            if not matched.any():
                continue
            if width is None:
                keys = attr[matched].astype(str)
            else:
                keys = np.asarray(attr[matched], dtype=np.int64) // np.int64(width)
            vals, c = np.unique(keys, return_counts=True)
            for v, n in zip(vals.tolist(), c.tolist()):
                out[v] = out.get(v, 0) + n
        return out

    def _leg_elect(self, qtids: np.ndarray, qw: np.ndarray, attr_col: str, per_value: int, rounded: bool = True) -> Hits:
        """Per shard, the ``per_value`` best matched docs of each
        ``attr_col`` value — one lexsort by (value, -score, doc_id), the
        score compared at 6 decimals when ``rounded`` — with their values:
        the candidates of collapse, diversified, collapse_inner and
        top_hits.  A value's global winners are among the union of these,
        so the merge's election over them is exact."""
        attrs = self._attr_for_shards(attr_col)
        cands = []
        for si, sh, scores, _ in self._scored_shards(qtids, qw):
            nz = np.flatnonzero(scores)
            if nz.size == 0:
                continue
            vals = np.asarray([str(v) for v in attrs[si][nz]], dtype=object)
            docs, sc = sh.doc_ids[nz], scores[nz]
            order = np.lexsort((docs, -np.round(sc, 6) if rounded else -sc, vals))
            sv = vals[order]
            grp_start = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
            rank = np.arange(sv.size) - np.repeat(grp_start, np.diff(np.append(grp_start, sv.size)))
            keep = order[rank < per_value]
            cands.append((docs[keep], sc[keep], vals[keep]))
        return _hits(cands)

    def _leg_boosted(
        self,
        qtids: np.ndarray,
        qw: np.ndarray,
        k: int,
        attr_col: str,
        boost: float,
        pivot: float,
        feature: str = "rank_log1p",
        origin: float = 0.0,
    ) -> Hits:
        """Static-signal scoring functions over a numeric doc-value,
        applied to matched docs before the shard's top-k (the modifier
        never creates a match — zero scores stay zero, so tombstones and
        the nonzero filter are untouched):

        - ``rank_log1p`` (Lucene FeatureField / ES rank_feature):
          score += boost·ln(1 + attr/pivot)
        - ``distance`` (ES distance_feature on a numeric field):
          score += boost·pivot/(pivot + |attr − origin|)
        - ``fvf_log1p_mul`` (ES function_score field_value_factor,
          modifier=log1p, boost_mode=multiply):
          score *= boost·ln(1 + attr/pivot)
        - ``saturation`` (ES rank_feature, saturation function — the
          rank_feature default): score += boost·attr/(attr + pivot)
        """
        attrs = self._attr_for_shards(attr_col)
        cands = []
        for si, sh, scores, postings in self._scored_shards(qtids, qw):
            m = scores > 0
            fa = np.asarray(attrs[si], dtype=np.float64)
            if feature == "rank_log1p":
                scores[m] += boost * np.log1p(fa[m] / pivot)
            elif feature == "distance":
                scores[m] += boost * pivot / (pivot + np.abs(fa[m] - origin))
            elif feature == "fvf_log1p_mul":
                scores[m] *= boost * np.log1p(fa[m] / pivot)
            elif feature == "saturation":
                scores[m] += boost * (fa[m] / (fa[m] + pivot))
            else:
                raise ValueError(f"unknown boost feature: {feature!r}")
            cands.append(sh._topk_from_scores(scores, k, postings))
        return _hits(cands)

    def _leg_terms_set(self, qtids: np.ndarray, k: int, attr_col: str, mod: int) -> Hits:
        """``terms_set`` (ES terms_set with a per-DOC
        ``minimum_should_match_field``): a doc matches when it contains at
        least ``required`` DISTINCT of the query terms, where ``required =
        1 + (doc_value mod ``mod``)`` — the corpus carries no native msm
        field, so the per-doc minimum is synthesized from the numeric
        doc-value sidecar (the SQL oracle replays the same expression).
        Matched docs score the unit-weight expanded-OR BM25 bag (each term
        its own idf)."""
        attrs = self._attr_for_shards(attr_col)
        qw = np.ones(qtids.size, np.float64)
        cands = []
        for si, sh in enumerate(self.shards):
            slices = sh._term_slices(qtids)
            if not slices:
                continue
            scores, cnt = sh.accumulate(slices, qw, counts=True)
            required = 1 + (np.asarray(attrs[si], dtype=np.int64) % np.int64(mod))
            cands.append(sh._topk_from_scores(np.where(cnt >= required, scores, 0.0), k, _n_postings(slices)))
        return _hits(cands)

    def _leg_adjacency(self, filter_tids: list[np.ndarray], ms: np.ndarray) -> np.ndarray:
        """Adjacency-matrix aggregation (ES ``adjacency_matrix``): for M
        named boolean filters (filter i = "matches >= ms[i] distinct terms
        of filter_tids[i]"), the M×M matrix of co-match doc counts over
        this reader's shards — an n_local×M boolean match matrix per shard,
        then one M×M matmul."""
        m_filters = len(filter_tids)
        out = np.zeros((m_filters, m_filters), dtype=np.int64)
        for sh in self.shards:
            mat = np.zeros((sh.n_local, m_filters), dtype=np.int64)
            for fi, (tids, need) in enumerate(zip(filter_tids, ms)):
                slices = sh._term_slices(np.asarray(tids, dtype=np.int64))
                if slices:
                    mat[:, fi] = sh.accumulate(slices, counts=True)[1] >= int(need)
            out += mat.T @ mat
        return out

    def _leg_index_ordered(self, qtids: np.ndarray, k: int) -> tuple[list[int], int]:
        """First ``k`` matching internal doc ids in index order via a k-way
        posting merge that never visits postings past the k-th match, plus
        the postings touched.  Shards are walked in doc-range order and
        the walk stops at the k-th match."""
        if not self._ordered_layout_ok():
            raise ValueError(
                "search_index_ordered needs shards covering ascending "
                "disjoint doc-id ranges (a num_buckets=1 index-sorted "
                "build); this index's shard layout does not guarantee "
                "that, so 'first k in index order' would be wrong"
            )
        out: list[int] = []
        touched = 0
        for sh in self.shards:
            slices = sh._term_slices(qtids)
            if not slices:
                continue
            del_mask = None
            if sh.deleted_local.size:
                del_mask = np.zeros(sh.n_local, dtype=bool)
                del_mask[sh.deleted_local] = True
            ptrs = [s for _, s, e, _ in slices]
            ends = [e for _, s, e, _ in slices]
            while len(out) < k:
                nxt = -1
                for j in range(len(ptrs)):
                    if ptrs[j] < ends[j]:
                        d0 = int(sh.post_local[ptrs[j]])
                        if nxt < 0 or d0 < nxt:
                            nxt = d0
                if nxt < 0:
                    break
                for j in range(len(ptrs)):
                    if ptrs[j] < ends[j] and int(sh.post_local[ptrs[j]]) == nxt:
                        ptrs[j] += 1
                        touched += 1
                if del_mask is not None and del_mask[nxt]:
                    continue
                out.append(int(sh.doc_ids[nxt]))
            if len(out) >= k:
                break
        return out[:k], touched

    def _leg_decay(
        self, qtids: np.ndarray, qw: np.ndarray, k: int, attr_col: str, origin: float, scale: float
    ) -> Hits:
        """Function-score gauss decay (ES ``function_score`` /
        ``gauss``): matched docs' BM25 scores MULTIPLY by
        ``exp(−(attr − origin)² / (2·σ²))`` with ``σ = scale /
        sqrt(2·ln(1/0.5))`` (ES's decay=0.5-at-scale parametrization).
        Multiplicative, so zero stays zero and tombstones are untouched."""
        attrs = self._attr_for_shards(attr_col)
        sigma2 = scale * scale / (2.0 * np.log(2.0))
        cands = []
        for si, sh, scores, postings in self._scored_shards(qtids, qw):
            fa = np.asarray(attrs[si], dtype=np.float64)
            scores *= np.exp(-((fa - origin) ** 2) / (2.0 * sigma2))
            cands.append(sh._topk_from_scores(scores, k, postings))
        return _hits(cands)

    def _leg_function_score(
        self,
        qtids: np.ndarray,
        qw: np.ndarray,
        k: int,
        functions: list[dict],
        max_boost: float,
        min_score: float,
    ) -> Hits:
        """Multi-function ``function_score`` (ES): each function carries an
        optional doc-value filter; per matched doc the APPLICABLE function
        values combine with ``score_mode=sum`` (1.0 when none apply — ES's
        empty-functions neutral), the combined factor is capped at
        ``max_boost`` BEFORE ``boost_mode=multiply``, and hits under
        ``min_score`` are dropped before the shard's top-k.  Function
        kinds: ``fvf`` (weight·ln(1 + attr/div)), ``gauss`` (weight·exp(−(attr −
        origin)²/(2σ²)), decay-0.5-at-scale σ), ``weight`` (a constant).
        Filters: ``(col, 'eq'|'prefix', value)`` over doc-value columns."""
        attr_cols = {f["attr"] for f in functions if "attr" in f} | {
            f["filter"][0] for f in functions if f.get("filter")
        }
        attrs = {c: self._attr_for_shards(c) for c in attr_cols}
        cands = []
        for si, sh, scores, postings in self._scored_shards(qtids, qw):
            factor = np.zeros(sh.n_local, dtype=np.float64)
            applied = np.zeros(sh.n_local, dtype=bool)
            for f in functions:
                if f.get("filter"):
                    col, op, val = f["filter"]
                    fv = np.asarray(attrs[col][si], dtype=str)
                    if op == "eq":
                        m = fv == val
                    elif op == "prefix":
                        m = np.char.startswith(fv, val)
                    else:  # pragma: no cover - spec typo guard
                        raise ValueError(f"unknown filter op {op!r}")
                else:
                    m = np.ones(sh.n_local, dtype=bool)
                if f["kind"] == "fvf":
                    a = np.asarray(attrs[f["attr"]][si], dtype=np.float64)
                    v = f["weight"] * np.log1p(a / f["div"])
                elif f["kind"] == "gauss":
                    a = np.asarray(attrs[f["attr"]][si], dtype=np.float64)
                    sigma2 = f["scale"] * f["scale"] / (2.0 * np.log(1.0 / f["decay"]))
                    v = f["weight"] * np.exp(-((a - f["origin"]) ** 2) / (2.0 * sigma2))
                else:  # constant weight
                    v = np.full(sh.n_local, f["weight"])
                factor[m] += v[m]
                applied |= m
            factor[~applied] = 1.0
            scores *= np.minimum(factor, max_boost)
            scores[scores < min_score] = 0.0
            cands.append(sh._topk_from_scores(scores, k, postings))
        return _hits(cands)

    def _leg_snippets(
        self, qtids: np.ndarray, qw: np.ndarray, qh: np.ndarray, k: int, W: int, method: str = "exhaustive"
    ) -> Hits:
        """This reader's top-k, each hit with its best-window snippet
        ``(start_tok, n_hits, snippet)`` and url.  Texts come from a
        url-IN-hits parquet read (k-bounded rows; row groups without
        matches are pruned by column statistics)."""
        if self.corpus_path is None:
            raise ValueError("snippet serving needs corpus_path")
        import pyarrow.dataset as pads

        from ..functions.hashing import md5_u64

        d, s, _v, _u = self._on_shards(_topk_kernel(method), qtids, qw, k)
        # keep only the top-k — snippets for docs that cannot reach the
        # global top-k are wasted fetches
        order = np.lexsort((d, -s))[:k]
        d, s = d[order], s[order]
        if d.size == 0:
            return Hits(d, s, [], [])
        urls = self.url_of(d)
        tbl = pq.read_table(
            self.corpus_path, columns=["url", "text"], filters=pads.field("url").isin(urls)
        )
        text_of = dict(zip(tbl.column("url").to_pylist(), tbl.column("text").to_pylist()))
        missing = [u for u in urls if u not in text_of]
        if missing:
            # a top-k url absent from the corpus parquet means the index and
            # corpus_path have diverged (stale cache / rebuilt index) — fail
            # loudly rather than serve an empty snippet for a real hit
            raise KeyError(
                f"snippet corpus {self.corpus_path} is missing {len(missing)} "
                f"indexed url(s), e.g. {missing[0]!r}: index/corpus mismatch"
            )
        windows = []
        for u in urls:
            toks = self.tok.tokenize(text_of[u] or "")
            th = md5_u64(toks) if toks else np.zeros(0, np.uint64)
            st, en, nh = best_snippet_window(th, qh, W)
            windows.append((st, nh, " ".join(toks[st:en])))
        return Hits(d, s, windows, urls)

    # -- query-side state and in-process-only queries

    def url_of(self, doc_id):
        """Url of one internal doc id, or the list of urls of an array of
        ids (one searchsorted for the whole array, then one slice of the
        url bytes per id).  Raises ``KeyError`` on an id the loaded shards
        do not hold."""
        ids = np.atleast_1d(np.asarray(doc_id, dtype=np.int64))
        pos = np.searchsorted(self._doc_index, ids)
        hit = pos < self._doc_index.size
        hit[hit] = self._doc_index[pos[hit]] == ids[hit]
        if not hit.all():
            raise KeyError(int(ids[~hit][0]))
        data, offs = self._url_data, self._url_offs
        urls = [data[a:b].tobytes().decode() for a, b in zip(offs[pos].tolist(), offs[pos + 1].tolist())]
        if self._url_arr.null_count:  # a null url reads as None
            urls = [u if self._url_arr[p].is_valid else None for u, p in zip(urls, pos.tolist())]
        return urls if np.ndim(doc_id) else urls[0]

    def term_ids_of(self, toks: list[str]) -> list[int]:
        """Vocab term ids of the in-vocabulary tokens, in token order
        (out-of-vocabulary tokens dropped)."""
        get = self.term_id.get
        return [tid for t in toks if (tid := get(t)) is not None]

    def encode_query(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Bag-of-words query encoding (reference doc-only mode,
        splade.py:243-265): q_weight(t) = term count; unknown terms dropped
        (empty-postings path).  Neural indexes hash straight to term ids."""
        if self.encoder == "neural":
            from ..stages.neural import encode_query_bow

            return encode_query_bow(text, self.tok, self.cfg)
        if self.vocab_mode == "hashed":
            from ..functions.hashing import hash_strings

            toks = self.tok.tokenize(text)
            if not toks:
                return np.zeros(0, np.int64), np.zeros(0, np.float64)
            h = (hash_strings(np.asarray(toks, dtype=object)) >> np.uint64(1)).astype(np.int64)
            tid_index = self.df[0]
            idx = np.minimum(np.searchsorted(tid_index, h), max(tid_index.size - 1, 0))
            known = tid_index[idx] == h if tid_index.size else np.zeros(h.size, bool)
            h = h[known]
            if h.size == 0:
                return np.zeros(0, np.int64), np.zeros(0, np.float64)
            uniq, counts = np.unique(h, return_counts=True)
            return uniq, counts.astype(np.float64)
        counts: dict[int, int] = {}
        for tid in self.term_ids_of(self.tok.tokenize(text)):
            counts[tid] = counts.get(tid, 0) + 1
        tids = sorted(counts)
        return np.asarray(tids, np.int64), np.asarray([counts[t] for t in tids], np.float64)

    def search_not(
        self, text: str, k: int = 10, exclude_terms: list[str] | None = None
    ) -> list[tuple[int, float, str]]:
        """Boolean must_not top-k (Lucene ``must`` ⊕ ``must_not``): BM25
        over the query text, excluding every doc that contains ANY of
        ``exclude_terms``.  Exclusion is resolved per shard from its own
        postings (one unique over the excluded terms' doc lists) — no
        attribute column, no driver-side doc set — and excluded terms
        never contribute to scores (Lucene must_not is non-scoring)."""
        qtids, qw = self.encode_query(text)
        if qtids.size == 0:
            return []
        ex_tids = np.zeros(0, np.int64)
        if exclude_terms:
            ex, _ = self.encode_query(" ".join(exclude_terms))
            ex_tids = ex
        return self._topk(k, "score_excluding", qtids, qw, k, ex_tids)

    def _expand_synonym_groups(
        self, groups: list[list[str]]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per synonym group: vocab term ids of its members (OOV dropped)
        + the blended idf — Lucene SynonymQuery uses idf(max docFreq of
        the members).  Groups with no indexed member are dropped."""
        if self.vocab_index is None or self.df is None:
            raise ValueError("synonym queries need the sorted-string vocab + df stats")
        g_tids, g_idf = [], []
        for terms in groups:
            toks = [n for t in terms for n in self.tok.tokenize(t)]
            tids = np.unique(np.asarray(self.term_ids_of(toks), np.int64))
            if tids.size == 0:
                continue
            dfb = float(self.df[tids].max())
            g_tids.append(tids.astype(np.int64))
            g_idf.append(float(bm25_idf(np.asarray([dfb]), self.n_docs)[0]))
        return g_tids, np.asarray(g_idf, dtype=np.float64)

    def explain(self, text: str, doc_id: int) -> list[tuple[str, float, int, int, float, float]]:
        """Lucene ``explain`` shape: the per-term BM25 score breakdown of
        one (query, doc) pair — (term, qtf, tf, df, idf, contribution)
        rows, term-ascending.  Served off the stored postings: the doc's
        row in each query term's posting run is one searchsorted (postings
        ascend by doc id within a term run); tf comes from the raw-tf
        sidecar.  Terms the doc lacks contribute a (tf=0, contribution=0)
        row — the full explanation, not just the hits."""
        if self.vocab_index is None or self.df is None:
            raise ValueError("explain needs the sorted-string vocab + df stats")
        toks = self.tok.tokenize(text)
        if not toks:
            return []
        # locate the owning shard + local position
        sh = None
        for cand in self.shards:
            pos = int(np.searchsorted(cand.doc_ids, doc_id))
            if pos < cand.doc_ids.size and cand.doc_ids[pos] == doc_id:
                sh, local = cand, pos
                break
        if sh is None:
            raise KeyError(f"doc_id {doc_id} not in the loaded shards")
        if sh.post_tf is None:
            raise ValueError("explain needs raw-tf postings (weight_mode='tf')")
        qtf: dict[str, int] = {}
        for t in toks:
            qtf[t] = qtf.get(t, 0) + 1
        out = []
        for term in sorted(qtf):
            tid = self.term_id.get(term)
            if tid is None:
                out.append((term, float(qtf[term]), 0, 0, 0.0, 0.0))
                continue
            df = int(self.df[tid])
            idf = float(bm25_idf(np.asarray([float(df)]), self.n_docs)[0])
            slices = sh._term_slices(np.asarray([tid], dtype=np.int64))
            tf, contrib = 0, 0.0
            if slices:
                _, s, e, _ = slices[0]
                p = s + int(np.searchsorted(sh.post_local[s:e], local))
                if p < e and sh.post_local[p] == local:
                    tf = int(sh.post_tf[p])
                    contrib = float(qtf[term] * sh.post_w[p])
            out.append((term, float(qtf[term]), tf, df, idf, contrib))
        return out

    def term_stats(self, terms: list[str]) -> list[tuple[str, int, int]]:
        """Lucene TermStatistics off the STORED index: (term, docFreq,
        totalTermFreq) per normalized input term — df from the vocab, cf
        from the stats stage's fused collection-frequency pass.  Terms
        absent from the dictionary report (0, 0), Lucene's contract.
        Pure dictionary lookups; postings are never touched."""
        if self.vocab_index is None or self.df is None:
            raise ValueError("term_stats needs the sorted-string vocab + df stats")
        out = []
        for t in terms:
            norm = self.tok.tokenize(t)
            if len(norm) != 1:
                raise ValueError(f"term must normalize to one token, got {norm!r}")
            tid = self.term_id.get(norm[0])
            if tid is None:
                out.append((norm[0], 0, 0))
            else:
                cf = int(self.cf[tid]) if self.cf is not None else 0
                out.append((norm[0], int(self.df[tid]), cf))
        return out

    def collection_stats(self) -> dict[str, float]:
        """Lucene CollectionStatistics off the stored meta: docCount,
        sumTotalTermFreq (sum_dl), avgdl, distinct-term count and total
        postings (nnz)."""
        return {
            "n_docs": int(self.n_docs),
            "sum_dl": int(self.sum_dl) if self.sum_dl is not None else None,
            "avgdl": float(self.avgdl),
            "n_terms": int(len(self.vocab_index)) if self.vocab_index is not None else None,
            "nnz": int(self.df.sum()) if isinstance(self.df, np.ndarray) else None,
        }

    def search_sorted_by_dl(self, text: str, k: int = 10) -> list[tuple[int, int, str]]:
        """Sort-by-field retrieval (Lucene SortField over a numeric
        doc-value): docs matching ANY query term, ordered by document
        length DESC (doc_id ASC ties) instead of relevance — dl is the
        one numeric doc-value the index itself stores.  Each shard returns
        its local top-k only (match set never leaves the shard)."""
        qtids, _qw = self.encode_query(text)
        if qtids.size == 0:
            return []
        cands: list[tuple[np.ndarray, np.ndarray]] = []
        for sh in self.shards:
            slices = sh._term_slices(qtids)
            if not slices:
                continue
            local = np.flatnonzero(sh.accumulate(slices, counts=True)[1])
            if local.size == 0:
                continue
            dl = sh.dl[local]
            kk = min(k, local.size)
            top = np.lexsort((sh.doc_ids[local], -dl))[:kk]
            cands.append((sh.doc_ids[local[top]], dl[top]))
        if not cands:
            return []
        d = np.concatenate([c[0] for c in cands])
        v = np.concatenate([c[1] for c in cands])
        order = np.lexsort((d, -v))[:k]
        top = d[order]
        return list(zip(top.tolist(), v[order].tolist(), self.url_of(top)))

    def search_index_ordered(self, text: str, k: int = 10) -> tuple[list[int], int]:
        """Early-terminated retrieval on an INDEX-SORTED build (Lucene
        index sorting): when internal doc-id order IS the sort order
        (the corpus adapter assigned url ranks by the sort key), the
        first ``k`` matching internal ids are the exact global top-k —
        no scoring, no full postings scan.

        Shards partition ascending doc ranges, so they are walked in
        order and the walk stops as soon as ``k`` matches are found —
        typically inside the FIRST shard (the whole point of index
        sorting: the best docs are physically first).  Within a shard a
        k-way merge over the query terms' doc-sorted postings advances
        one match at a time; postings past the k-th match are never
        visited.  Returns (matched internal doc ids in index order,
        postings_touched) — the counter is the early-termination
        evidence the bench records."""
        return self._index_ordered(text, k)

    def _ordered_layout_ok(self) -> bool:
        """True iff shards cover strictly ascending disjoint doc-id ranges
        (each shard internally sorted) — the precondition of the ordered
        walk.  Checked directly from the loaded layout (stronger than a
        manifest flag: covers merged/bucketed indexes too) and cached."""
        ok = getattr(self, "_ordered_ok", None)
        if ok is None:
            ok = True
            prev_max = -1
            for sh in self.shards:
                ids = sh.doc_ids
                if ids.size == 0:
                    continue
                if int(ids[0]) <= prev_max or (ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1]))):
                    ok = False
                    break
                prev_max = int(ids[-1])
            self._ordered_ok = ok
        return ok

    def search_filtered(self, text: str, k: int = 10, allow_urls=None) -> list[tuple[int, float, str]]:
        """Filtered top-k: BM25 over only the docs whose url passes the
        metadata predicate — the standard filtered-search serving feature.
        ``allow_urls`` is an Arrow string array / list of allowed urls (the
        broadcast-lookup shape: one ``is_in`` over each shard's Arrow url
        column, no Python strings; at cluster scale the same mask would be
        a precomputed per-shard doc-attribute bitmap).  Scoring uses the
        exhaustive kernel — safe block-max pruning under an arbitrary
        filter needs filter-aware zone bounds, so WAND is out of scope for
        filtered queries (Lucene likewise checks live-docs inside the
        scorer)."""
        qtids, qw = self.encode_query(text)
        if qtids.size == 0:
            return []
        if not isinstance(allow_urls, pa.Array):
            allow_urls = pa.array(sorted(allow_urls), type=pa.string())
        cands = []
        for sh in self.shards:
            allow = pa.compute.is_in(sh.urls, value_set=allow_urls).to_numpy(zero_copy_only=False)
            cands.append(sh.score_exhaustive(qtids, qw, k, allow=allow))
        return self._merge_hits([_hits(cands)], k)

    def expand_prefix(self, prefix: str) -> np.ndarray:
        """Term-id range of vocab terms starting with ``prefix`` — the
        sorted-string vocab IS the term dictionary, so wildcard expansion
        (Lucene PrefixQuery) is two binary searches returning a CONTIGUOUS
        id range; no per-term lookup, no postings touched until scoring."""
        if self.vocab_index is None:
            raise ValueError(
                "prefix queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        norm = self.tok.tokenize(prefix)
        if len(norm) != 1:
            raise ValueError(f"prefix must normalize to one token, got {norm!r}")
        p = norm[0]
        lo = int(self.vocab_index.searchsorted(p, side="left"))
        hi = int(self.vocab_index.searchsorted(p + "\U0010ffff", side="left"))
        return np.arange(lo, hi, dtype=np.int64)

    def total_hits(self, text: str, threshold: int = 1000) -> tuple[int, str, int]:
        """ES ``track_total_hits``: the disjunctive match count, counted
        EXACTLY up to ``threshold`` — returns ``(count, 'eq', shards)``
        when the true count is at most the threshold, else
        ``(threshold, 'gte', shards)`` with counting terminated early:
        shards are visited in doc order and a shard is never OPENED once
        the accumulated count strictly exceeds the threshold (the
        collector's early-termination contract — on a 10^10-doc index a
        common term stops after the first few shards).  ``shards`` is the
        number of shards actually visited (the termination evidence)."""
        qtids, _ = self.encode_query(text)
        if qtids.size == 0:
            return 0, "eq", 0
        total, visited = 0, 0
        for sh in self.shards:
            if total > threshold:
                break
            visited += 1
            slices = sh._term_slices(qtids)
            if slices:
                total += int(np.count_nonzero(sh.accumulate(slices, counts=True)[1]))
        if total > threshold:
            return threshold, "gte", visited
        return total, "eq", visited

    def search_bool_prefix(self, text: str, k: int = 10) -> list[tuple[int, float, str]]:
        """``match_bool_prefix`` top-k (ES): every token but the LAST is a
        should-clause term scored by the standard BM25 bag; the last token
        becomes a PrefixQuery under Lucene's default constant-score
        rewrite, adding exactly 1.0 to any doc containing a term with that
        prefix (prefix-only docs still match).  Unlike
        :meth:`search_phrase_prefix` there is NO position constraint —
        the clauses are independent.  Tie-break (-score, doc_id)."""
        toks = self.tok.tokenize(text)
        if not toks:
            return []
        full, last = toks[:-1], toks[-1]
        if full:
            qtids, qw = self.encode_query(" ".join(full))
        else:
            qtids, qw = np.zeros(0, np.int64), np.zeros(0, np.float64)
        prefix_tids = self.expand_prefix(last)
        if qtids.size == 0 and prefix_tids.size == 0:
            return []
        return self._topk(k, "score_bool_prefix", qtids, qw, prefix_tids, k)

    def _vocab_codepoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted vocab as a padded (V, maxlen) uint32 codepoint matrix
        + per-term lengths, built ONCE per reader (numpy 'U' view — no
        per-term Python).  This is the fuzzy-expansion working set; it
        scales with the VOCAB, not the corpus."""
        cached = getattr(self, "_vocab_cp", None)
        if cached is None:
            arr = np.asarray(self.vocab_index.to_numpy(), dtype="U")
            maxlen = max(arr.dtype.itemsize // 4, 1)
            mat = np.ascontiguousarray(arr).view(np.uint32).reshape(len(arr), maxlen)
            lens = (mat != 0).sum(axis=1).astype(np.int64)
            cached = self._vocab_cp = (mat, lens)
        return cached

    def expand_fuzzy(self, term: str, max_edits: int = 1) -> np.ndarray:
        """Term ids of vocab terms within Levenshtein distance
        ``max_edits`` of ``term`` (Lucene FuzzyQuery expansion; classical
        distance — sub/ins/del, no transposition — so DuckDB's
        ``levenshtein`` replays it).  The DP runs VECTORIZED across every
        length-banded candidate at once: O(|term|·maxlen) numpy mins over
        the candidate axis, no per-term Python.  At a 10^9-term dictionary
        the band filter becomes a length+first-char bucket (or a
        Levenshtein automaton walk over the sorted dictionary, Lucene's
        trick); the kernel below is unchanged either way."""
        if self.vocab_index is None:
            raise ValueError(
                "fuzzy queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        norm = self.tok.tokenize(term)
        if len(norm) != 1:
            raise ValueError(f"fuzzy term must normalize to one token, got {norm!r}")
        q = norm[0]
        qc = np.array([ord(ch) for ch in q], dtype=np.uint32)
        L = qc.size
        mat, lens = self._vocab_codepoints()
        cand = np.flatnonzero(np.abs(lens - L) <= max_edits)
        if cand.size == 0:
            return np.zeros(0, np.int64)
        clens = lens[cand]
        Lc = int(clens.max())
        sub = mat[cand, :Lc]
        # row DP over query chars; each cell is a candidate-axis vector
        prev = np.broadcast_to(np.arange(Lc + 1, dtype=np.int64), (cand.size, Lc + 1)).copy()
        for i in range(1, L + 1):
            cur = np.empty_like(prev)
            cur[:, 0] = i
            for j in range(1, Lc + 1):
                cost = (sub[:, j - 1] != qc[i - 1]).astype(np.int64)
                cur[:, j] = np.minimum(
                    np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), prev[:, j - 1] + cost
                )
            prev = cur
        dist = prev[np.arange(cand.size), clens]
        return cand[dist <= max_edits].astype(np.int64)

    def expand_regexp(self, pattern: str) -> np.ndarray:
        """Term ids of vocab terms FULLY matching ``pattern`` (Lucene
        RegexpQuery semantics: implicit ^...$ anchoring).  One
        compiled-regex scan over the sorted dictionary — the working set is
        the VOCAB, not the corpus.  At a 10^9-term dictionary this becomes
        a literal-prefix seek that bounds the scan range + an automaton
        walk (Lucene's trick); the scoring kernel below is unchanged."""
        if self.vocab_index is None:
            raise ValueError(
                "regexp queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        hit = self.vocab_index.str.fullmatch(pattern)
        return np.flatnonzero(np.asarray(hit, dtype=bool)).astype(np.int64)

    def expand_wildcard(self, pattern: str) -> np.ndarray:
        """Term ids of vocab terms matching a Lucene ``WildcardQuery``
        pattern (``*`` = any sequence, ``?`` = exactly one char).  The
        literal prefix before the first wildcard bounds the dictionary
        scan to a CONTIGUOUS sorted-vocab range (two binary searches —
        the prefix-seek Lucene performs on its FST), then one compiled
        fnmatch-regex pass verifies the bounded slice.  The working set is
        a vocab RANGE, never the corpus — at a 10^9-term dictionary the
        range seek is what keeps ``ab*c?`` from scanning every term."""
        if self.vocab_index is None:
            raise ValueError(
                "wildcard queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        pat = pattern.lower()
        lit = re.split(r"[*?]", pat, maxsplit=1)[0]
        lo = int(self.vocab_index.searchsorted(lit, side="left")) if lit else 0
        hi = (
            int(self.vocab_index.searchsorted(lit + "\U0010ffff", side="left"))
            if lit
            else len(self.vocab_index)
        )
        if lo >= hi:
            return np.zeros(0, np.int64)
        # Lucene WildcardQuery semantics: ONLY * and ? are special; every
        # other char (incl. '[', regex metachars) is literal — so translate
        # by hand rather than fnmatch.translate, whose [seq] classes would
        # diverge from both Lucene and the SQL LIKE oracle.
        rx = "".join(
            ".*" if c == "*" else "." if c == "?" else re.escape(c) for c in pat
        )
        sl = self.vocab_index[lo:hi]
        hit = np.asarray(sl.str.fullmatch(rx), dtype=bool)
        return (np.flatnonzero(hit) + lo).astype(np.int64)

    def _trigram_dictionary(self) -> dict[str, np.ndarray]:
        """Char-trigram → sorted term-id postings over the VOCAB (the ES
        ``wildcard`` field / ngram-analyzer acceleration structure for
        infix matching).  Built once per reader and cached; the one-time
        build is vocab-bounded (a leading-wildcard ``*sub*`` otherwise
        scans the whole dictionary on every query).  At a 10^9-term
        dictionary this map is itself a small inverted index (≤ 46k ascii
        trigram keys) whose lists shard with the vocab."""
        cached = getattr(self, "_tri_dict", None)
        if cached is not None:
            return cached
        if self.vocab_index is None:
            raise ValueError(
                "substring queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        tri: dict[str, list[int]] = {}
        for tid, term in enumerate(self.vocab_index):
            if len(term) < 3:
                continue
            for j in range(len(term) - 2):
                tri.setdefault(term[j : j + 3], []).append(tid)
        out = {g: np.unique(np.asarray(ids, dtype=np.int64)) for g, ids in tri.items()}
        self._tri_dict = out
        return out

    def expand_substring(self, sub: str) -> np.ndarray:
        """Term ids of vocab terms CONTAINING ``sub`` (ES ``wildcard``
        field semantics for ``*sub*``): candidates come from intersecting
        the substring's trigram postings in the cached trigram dictionary
        (rarest list first), then one vectorized containment pass verifies
        only the candidates — the dictionary is never linearly scanned for
        patterns of length ≥ 3.  Shorter needles (no full trigram) fall
        back to the bounded full-vocab scan the regexp path uses."""
        if self.vocab_index is None:
            raise ValueError(
                "substring queries need the sorted-string vocab "
                "(encoder='bm25', vocab_mode='sorted')"
            )
        sub = sub.lower()
        if len(sub) < 3:
            hit = np.asarray(self.vocab_index.str.contains(sub, regex=False), dtype=bool)
            return np.flatnonzero(hit).astype(np.int64)
        tri = self._trigram_dictionary()
        grams = [sub[j : j + 3] for j in range(len(sub) - 2)]
        lists = []
        for g in grams:
            ids = tri.get(g)
            if ids is None or ids.size == 0:
                return np.zeros(0, np.int64)
            lists.append(ids)
        lists.sort(key=len)
        cand = lists[0]
        for ids in lists[1:]:
            cand = cand[np.isin(cand, ids, assume_unique=True)]
            if cand.size == 0:
                return np.zeros(0, np.int64)
        # trigram containment is necessary, not sufficient ("abcab" has the
        # grams of "abcabc" minus order) — verify the bounded candidate set
        sl = self.vocab_index[cand]
        hit = np.asarray(sl.str.contains(sub, regex=False), dtype=bool)
        return cand[hit].astype(np.int64)

    def search_boosting(
        self, positive: str, negative: str, negative_boost: float = 0.5, k: int = 10
    ) -> list[tuple[int, float, str]]:
        """Boosting-query top-k (Lucene ``BoostingQuery`` / ES
        ``boosting``): docs matching the positive clause rank by its BM25
        bag score, DEMOTED by ``negative_boost`` (multiplied, not
        excluded) when they also match any negative-clause term.  An OOV
        negative demotes nothing; tie-break (-score, doc_id) as always."""
        qtids, qw = self.encode_query(positive)
        if qtids.size == 0:
            return []
        neg_tids, _ = self.encode_query(negative)
        return self._topk(k, "score_boosting", qtids, qw, neg_tids, negative_boost, k)

    def scores_for_docs(self, text: str, doc_ids) -> dict[int, float]:
        """Exact per-doc scores of ``text`` under THIS reader's similarity
        for an explicit doc set — the rescore primitive (ES ``rescore``
        runs a second query over the top-window docs only): per shard one
        bincount over the query postings, then a gather of the requested
        docs.  Unmatched or unknown docs score 0.0; tombstoned docs 0.0."""
        qtids, qw = self.encode_query(text)
        docs = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        out = {int(d): 0.0 for d in docs}
        if qtids.size == 0 or docs.size == 0:
            return out
        for sh in self.shards:
            slices = sh._term_slices(qtids)
            if not slices:
                continue
            scores, _ = sh.accumulate(slices, qw)  # tombstoned docs' weights are zeroed
            for loc in np.flatnonzero(np.isin(sh.doc_ids, docs)):
                out[int(sh.doc_ids[loc])] = float(scores[loc])
        return out

    def suggest_completion(self, prefix: str, k: int = 10) -> list[tuple[str, int, int]]:
        """Completion suggester (ES ``completion`` over the term
        dictionary): vocab terms starting with ``prefix`` ranked by
        collection frequency desc (cf is the popularity weight), term asc
        tie-break.  Two binary searches on the sorted vocab + one top-k
        over the contiguous id range — postings never touched.  Returns
        (term, cf, df) rows."""
        if self.cf is None or self.vocab_index is None:
            raise ValueError("suggest_completion needs the sorted vocab with cf stats")
        tids = self.expand_prefix(prefix)
        if tids.size == 0:
            return []
        cf = np.asarray(self.cf)[tids]
        order = np.lexsort((tids, -cf))[: min(k, tids.size)]
        picked = tids[order]
        return [(str(self.vocab_index[int(t)]), int(np.asarray(self.cf)[int(t)]), int(self.df[int(t)])) for t in picked]

    def suggest_spelling(self, term: str, k: int = 10, max_edits: int = 2) -> list[tuple[str, int, int]]:
        """Term suggester / did-you-mean (ES ``term`` suggester,
        ``suggest_mode=always``): vocab candidates within ``max_edits``
        classical Levenshtein edits (sub/ins/del — DuckDB-replayable),
        the exact term excluded, ranked by (distance asc, df desc, term
        asc).  Distances come from nested :meth:`expand_fuzzy` rings, so
        the vectorized DP kernel is reused unchanged.  Returns (term,
        distance, df) rows."""
        if self.vocab_index is None:
            raise ValueError("suggest_spelling needs the sorted-string vocab")
        rings = [set(self.expand_fuzzy(term, e).tolist()) for e in range(max_edits + 1)]
        cands = sorted(rings[-1] - rings[0])  # distance >= 1 only
        if not cands:
            return []
        rows = []
        for tid in cands:
            dist = next(e for e in range(1, max_edits + 1) if tid in rings[e])
            rows.append((str(self.vocab_index[int(tid)]), dist, int(self.df[int(tid)])))
        rows.sort(key=lambda r: (r[1], -r[2], r[0]))
        return rows[:k]

    def _vocab_hash_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted md5 hashes of the vocab, permutation back to term ids) —
        built once per reader, vocab-bounded."""
        from ..functions.hashing import md5_u64

        vh = getattr(self, "_vocab_hash", None)
        if vh is None:
            hv = md5_u64(list(self.vocab_index))
            perm = np.argsort(hv, kind="stable")
            vh = self._vocab_hash = (hv[perm], perm)
        return vh

    def term_vectors(self, doc_ids: list[int]) -> list[tuple[int, str, int, int]]:
        """Term-vectors API (ES ``_termvectors`` / Lucene TermVectors):
        (doc_id, term, tf, df) rows for the requested docs, sorted by
        (doc_id, term).  k-bounded: only the requested docs' forward md5
        streams are decoded (one run-length pass per shard owner), hashes
        map to vocab terms through the cached vocab-hash table; df is the
        stored global stat.  Unknown doc ids are skipped (ES semantics:
        found=false).  Requires ``store_forward=True`` + sorted vocab."""
        if self.vocab_index is None:
            raise ValueError("term_vectors needs the sorted-string vocab")
        docs = np.unique(np.asarray(doc_ids, dtype=np.int64))
        hv_sorted, perm = self._vocab_hash_map()
        rows: list[tuple[int, str, int, int]] = []
        for sh in self.shards:
            if sh.fwd_stream is None:
                raise ValueError("term_vectors requires an index built with store_forward=True")
            loc = np.flatnonzero(np.isin(sh.doc_ids, docs))
            if loc.size == 0:
                continue
            pos, cidx = sh._candidate_windows(loc, 1)
            if pos.size == 0:
                continue
            order = np.lexsort((sh.fwd_stream[pos], cidx))
            tok, ci = sh.fwd_stream[pos][order], cidx[order]
            first = np.ones(tok.size, dtype=bool)
            first[1:] = (tok[1:] != tok[:-1]) | (ci[1:] != ci[:-1])
            starts = np.flatnonzero(first)
            tfs = np.diff(np.append(starts, tok.size))
            utok, uci = tok[starts], ci[starts]
            idx = np.minimum(np.searchsorted(hv_sorted, utok), hv_sorted.size - 1)
            known = hv_sorted[idx] == utok
            tids = perm[idx[known]]
            gdocs = sh.doc_ids[loc[uci[known]]]
            gtfs = tfs[known]
            for d, tid, tf in zip(gdocs, tids, gtfs):
                rows.append((int(d), str(self.vocab_index[int(tid)]), int(tf), int(self.df[int(tid)])))
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def mlt_terms(self, text: str, max_terms: int = 5) -> np.ndarray:
        """Lucene MoreLikeThis term selection: tokenize the seed text and
        keep the ``max_terms`` vocab terms with the highest tf·idf in the
        seed (idf = the index's BM25 idf off the global df vector), ties
        broken by term asc — fully deterministic so a SQL window function
        replays it.  Needs the sorted-string vocab (df aligned to it)."""
        if self.vocab_index is None or self.df is None:
            raise ValueError("more_like_this needs the sorted-string vocab + df stats")
        uniq, counts = self.encode_query(text)
        df = self.df[uniq].astype(np.float64)
        idf = np.log1p((self.n_docs - df + 0.5) / (df + 0.5))
        sc = counts * idf
        # uniq is ascending term-id == ascending term (sorted vocab): the
        # lexsort secondary key IS the term-asc tie-break
        order = np.lexsort((uniq, -sc))[:max_terms]
        return np.sort(uniq[order]).astype(np.int64)

    def more_like_this(
        self, text: str, k: int = 10, max_terms: int = 5, exclude_url: str | None = None
    ) -> list[tuple[int, float, str]]:
        """More-like-this: the seed text reduces to its ``max_terms``
        highest-tf·idf terms, which run as a unit-weight BoW query through
        the unchanged BM25 kernels; ``exclude_url`` (normally the seed
        itself) is dropped from the merged ranking (fetched k+1 deep so the
        page stays full) — the Lucene MoreLikeThis serving shape."""
        qtids = self.mlt_terms(text, max_terms)
        if qtids.size == 0:
            return []
        qw = np.ones(qtids.size, np.float64)
        kk = k + (1 if exclude_url is not None else 0)
        merged = self._topk(kk, "score_exhaustive", qtids, qw, kk)
        if exclude_url is not None:
            merged = [r for r in merged if r[2] != exclude_url][:k]
        return merged

    def build_query_string_spec(self, qstring: str) -> list[dict] | None:
        """Parse + vocab-encode a query_string into the shard kernels'
        clause spec (query-side state only — shared by the local and the
        scatter-gather serving paths).  None ⇔ the query can match nothing
        (an OOV must clause, or no scoring clause survives)."""
        from ..functions.hashing import md5_u64

        spec = []
        for role, kind, text, boost in parse_query_string(qstring):
            toks = self.tok.tokenize(text)
            if not toks:
                continue
            qtids, qw = self.encode_query(text)
            known_all = qtids.size > 0 and int(qw.sum()) == len(toks)
            if not known_all:
                if role == "must":
                    return None  # an unmatchable must clause empties the query
                continue  # OOV should never matches; OOV must_not excludes nothing
            spec.append(
                {
                    "role": role,
                    "qtids": qtids,
                    "qw": qw,
                    "boost": boost,
                    "h_seq": md5_u64(toks) if kind == "phrase" else None,
                }
            )
        return spec if any(c["role"] != "not" for c in spec) else None

    def search_phrase_prefix(
        self, text: str, k: int = 10, max_expansions: int = 50
    ) -> list[tuple[int, float, str]]:
        """match_phrase_prefix (ES search-as-you-type): the LAST token is
        a prefix; it expands to the first ``max_expansions`` vocab terms
        with that prefix IN TERM ORDER (the ES cap), and a doc matches
        when the head tokens + any expansion occur consecutively (forward
        streams verify, per variant).  Matched docs rank by the BM25 bag
        score of the HEAD terms — a deterministic scoring contract the
        SQL oracle replays exactly (ES's own phrase-freq scoring is
        expansion-dependent).  OOV head ⇒ no match anywhere ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("phrase_prefix takes >= 1 head token + a prefix")
        head, pre = toks[:-1], toks[-1]
        exp_tids = self.expand_prefix(pre)[:max_expansions]
        if exp_tids.size == 0:
            return []
        head_tids, head_qw = self.encode_query(" ".join(head))
        if head_tids.size == 0 or int(head_qw.sum()) != len(head):
            return []  # an OOV head token can never match
        variants = []
        for tid in exp_tids:
            term = str(self.vocab_index[int(tid)])
            seq = head + [term]
            qtids, _qw = self.encode_query(" ".join(seq))
            variants.append((qtids, md5_u64(seq)))
        return self._topk(k, "phrase_prefix_topk", variants, head_tids, head_qw, k)

    def search_near(self, term_a: str, term_b: str, window: int, k: int = 10) -> list[tuple[int, float, str]]:
        """Proximity top-k (requires ``store_forward=True``): docs where
        the two (distinct, single-token) terms occur within ``window``
        token positions, BM25-bag-ranked with the usual tie-break."""
        from ..functions.hashing import md5_u64

        ta, tb = self.tok.tokenize(term_a), self.tok.tokenize(term_b)
        if len(ta) != 1 or len(tb) != 1 or ta[0] == tb[0]:
            raise ValueError("near search takes two distinct single-token terms")
        qtids, qw = self.encode_query(f"{ta[0]} {tb[0]}")
        if qtids.size < 2:
            return []  # a term is OOV — no doc can satisfy the AND
        h = md5_u64([ta[0], tb[0]])
        return self._topk(k, "near_topk", qtids, qw, int(h[0]), int(h[1]), window, k)

    def search_sloppy(self, term_a: str, term_b: str, slop: int, k: int = 10) -> list[tuple[int, float, str]]:
        """Sloppy-phrase top-k (requires ``store_forward=True``): ordered
        pairs ``a … b`` within ``slop`` insertions, each weighted by
        1/distance into ONE saturated phrase frequency — the Lucene
        ``PhraseQuery(slop)`` scoring shape, vs :meth:`search_near`'s
        binary-match bag ranking.  idf is the summed per-term idf over
        the reader's global stats."""
        from ..functions.hashing import md5_u64

        ta, tb = self.tok.tokenize(term_a), self.tok.tokenize(term_b)
        if len(ta) != 1 or len(tb) != 1 or ta[0] == tb[0]:
            raise ValueError("sloppy search takes two distinct single-token terms")
        qtids, _qw = self.encode_query(f"{ta[0]} {tb[0]}")
        if qtids.size < 2:
            return []  # a term is OOV — no doc can satisfy the AND
        df = self.df[qtids].astype(np.float64)
        idf_sum = float(np.log1p((self.n_docs - df + 0.5) / (df + 0.5)).sum())
        h = md5_u64([ta[0], tb[0]])
        return self._topk(
            k, "sloppy_topk", qtids, int(h[0]), int(h[1]), slop, k, idf_sum, self.avgdl, self.cfg.k1, self.cfg.b
        )

    def search_span_near(self, text: str, slop: int, k: int = 10) -> list[tuple[int, float, str]]:
        """Ordered span-near top-k (requires ``store_forward=True``): the
        query tokens must appear IN ORDER with at most ``slop`` extra
        positions across the whole span; BM25-bag-ranked with the usual
        (-score, doc) tie-break.  ``slop=0`` ≡ :meth:`search_phrase` on
        repeat-free spans; an OOV span token ⇒ no match anywhere ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("span-near search needs at least two tokens")
        qtids, qw = self.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one span token is OOV
        h_seq = md5_u64(toks)
        return self._topk(k, "span_near_topk", qtids, qw, h_seq, slop, k)

    def search_span_not(
        self, text: str, exclude: str, slop: int, k: int = 10
    ) -> list[tuple[int, float, str]]:
        """Span-not top-k (Lucene ``SpanNotQuery``, requires
        ``store_forward=True``): ordered span-near of the query tokens
        (slop as :meth:`search_span_near`) with NO occurrence of the
        (single-token) exclude term inside the matching span's positions;
        BM25-bag-ranked over the include terms with the usual (-score, doc)
        tie-break.  An OOV include token ⇒ no match anywhere ⇒ []; an OOV
        exclude term excludes nothing (≡ plain span-near)."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("span-not search needs at least two include tokens")
        etoks = self.tok.tokenize(exclude)
        if len(etoks) != 1:
            raise ValueError(f"span-not takes one exclude term, got {etoks!r}")
        if etoks[0] in toks:
            raise ValueError("exclude term must differ from every include token")
        qtids, qw = self.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one include token is OOV
        h_seq = md5_u64(toks)
        h_excl = int(md5_u64(etoks)[0])
        return self._topk(k, "span_not_topk", qtids, qw, h_seq, h_excl, slop, k)

    def search_span_containing(
        self, text: str, little: str, slop: int, k: int = 10
    ) -> list[tuple[int, float, str]]:
        """Span-containing top-k (Lucene ``SpanContainingQuery``): the BIG
        span is the ordered span-near of the query tokens (slop as
        :meth:`search_span_near`), and a doc matches iff at least one big
        span HOLDS an occurrence of the (single-token) ``little`` term
        inside its positions; BM25-bag-ranked over the big terms.  An OOV
        little term can be contained nowhere ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("span-containing needs at least two big tokens")
        ltoks = self.tok.tokenize(little)
        if len(ltoks) != 1:
            raise ValueError(f"span-containing takes one little term, got {ltoks!r}")
        if ltoks[0] in toks:
            raise ValueError("little term must differ from every big token")
        qtids, qw = self.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one big token is OOV
        h_seq = md5_u64(toks)
        h_little = int(md5_u64(ltoks)[0])
        return self._topk(k, "span_not_topk", qtids, qw, h_seq, h_little, slop, k, True)

    def search_span_within(
        self, text: str, little: str, slop: int, k: int = 10
    ) -> list[tuple[int, float, str]]:
        """Span-within top-k (Lucene ``SpanWithinQuery``, the dual of
        :meth:`search_span_containing`): the match set is docs where the
        (single-token) ``little`` term occurs inside an ordered span-near
        match of the big ``text`` tokens — identical to span-containing —
        but the RETURNED query is the little span, so ranking is BM25 on
        the little term (the big span is pure containment context).  OOV
        little ⇒ []; OOV big token ⇒ no enclosing span ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("span-within needs at least two big tokens")
        ltoks = self.tok.tokenize(little)
        if len(ltoks) != 1:
            raise ValueError(f"span-within takes one little term, got {ltoks!r}")
        if ltoks[0] in toks:
            raise ValueError("little term must differ from every big token")
        qtids, qw = self.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one big token is OOV
        stids, sw = self.encode_query(ltoks[0])
        if stids.size == 0:
            return []  # OOV little term matches nowhere
        h_seq = md5_u64(toks)
        h_little = int(md5_u64(ltoks)[0])
        return self._topk(k, "span_not_topk", qtids, qw, h_seq, h_little, slop, k, True, stids, sw)

    def search_intervals(self, text: str, max_gaps: int, k: int = 10) -> list[tuple[int, float, str]]:
        """Unordered interval top-k (ES ``intervals`` / ``all_of(ordered:
        false, max_gaps)``, requires ``store_forward=True``): all query
        tokens (distinct) within one window in any order, total internal
        gaps ≤ ``max_gaps``; BM25-bag-ranked with the usual (-score, doc)
        tie-break.  An OOV token ⇒ all_of can never match ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(text)
        if len(toks) < 2:
            raise ValueError("intervals search needs at least two tokens")
        if len(set(toks)) != len(toks):
            raise ValueError("intervals contract covers distinct terms only")
        qtids, qw = self.encode_query(text)
        if qtids.size == 0 or int(qw.sum()) != len(toks):
            return []  # at least one interval token is OOV
        h_terms = md5_u64(toks)
        return self._topk(k, "intervals_topk", qtids, qw, h_terms, max_gaps, k)

    def search_span_first(self, term: str, end: int, k: int = 10) -> list[tuple[int, float, str]]:
        """Span-first top-k (Lucene ``SpanFirstQuery``, requires
        ``store_forward=True``): docs where the (single-token) term occurs
        at a token position strictly below ``end`` — the "match in the
        title / lead" restriction — BM25-ranked on the term with the usual
        (-score, doc) tie-break.  OOV term ⇒ no match anywhere ⇒ []."""
        from ..functions.hashing import md5_u64

        toks = self.tok.tokenize(term)
        if len(toks) != 1:
            raise ValueError(f"span-first takes one term, got {toks!r}")
        qtids, qw = self.encode_query(toks[0])
        if qtids.size == 0:
            return []
        h = int(md5_u64(toks)[0])
        return self._topk(k, "span_first_topk", qtids, qw, h, int(end), k)

    def significant_terms(
        self, text: str, k_docs: int = 50, k_terms: int = 10
    ) -> list[tuple[str, int, int, float]]:
        """Significant-terms aggregation (ES ``significant_text`` with a
        top-hits sampler): terms over-represented in the query's top
        ``k_docs`` BM25 hits vs the whole corpus, JLH-scored
        ((fg% − bg%)·fg%/bg%, positive scores only), top ``k_terms`` by
        (−jlh, term).  Returns (term, fg_df, bg_df, jlh) rows.

        Distributed shape: the foreground is k-bounded — each shard owner
        gathers only ITS members of the top-doc set from the forward md5
        streams and ships (hash, fg_df) partials; hashes map back to vocab
        term ids through one cached md5 pass over the vocab (vocab-bounded,
        never corpus-bounded).  Requires ``store_forward=True`` and a
        sorted (string) vocab."""
        fgset = self._foreground_terms(text, k_docs)
        if fgset is None:
            return []
        tids, fg_arr, n_fg = fgset
        fg = fg_arr.astype(np.float64)
        bg = self.df[tids].astype(np.float64)
        fgp, bgp = fg / n_fg, bg / float(self.n_docs)
        jlh = (fgp - bgp) * fgp / bgp
        keep = jlh > 0
        terms = self.vocab_index[tids[keep]]
        rows = sorted(
            zip(terms, fg_arr[keep], bg[keep], jlh[keep]),
            key=lambda r: (-r[3], r[0]),
        )[:k_terms]
        return [(str(t), int(f), int(b), float(j)) for t, f, b, j in rows]

    def _foreground_terms(self, text: str, k_docs: int) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(vocab tids, per-term distinct-doc counts, sample size) over the
        query's top ``k_docs`` hits — the shared foreground gather of the
        sampled-aggregation family (significant_terms / rare_terms).
        k-bounded: only the top docs' forward streams are decoded, one
        run-length pass per shard owner, hashes map back through the
        cached vocab-hash table.  None when the query matches nothing."""
        if self.vocab_index is None:
            raise ValueError("sampled term aggregations need a sorted-vocab BM25 index")
        top = self.search(text, k_docs)
        if not top:
            return None
        docs = np.asarray(sorted(d for d, _s, _u in top), dtype=np.int64)
        parts = []
        for sh in self.shards:
            if sh.fwd_stream is None:
                raise ValueError("sampled term aggregations require an index built with store_forward=True")
            loc = np.flatnonzero(np.isin(sh.doc_ids, docs))
            if loc.size == 0:
                continue
            pos, cidx = sh._candidate_windows(loc, 1)
            if pos.size == 0:
                continue
            # distinct (doc, hash) pairs only: fg_df counts DOCS, not tokens
            order = np.lexsort((sh.fwd_stream[pos], cidx))
            tok, ci = sh.fwd_stream[pos][order], cidx[order]
            first = np.ones(tok.size, dtype=bool)
            first[1:] = (tok[1:] != tok[:-1]) | (ci[1:] != ci[:-1])
            parts.append(tok[first])
        if not parts:
            return None
        hashes, fg_df = np.unique(np.concatenate(parts), return_counts=True)
        hv_sorted, perm = self._vocab_hash_map()
        idx = np.minimum(np.searchsorted(hv_sorted, hashes), hv_sorted.size - 1)
        known = hv_sorted[idx] == hashes
        return perm[idx[known]], fg_df[known], float(docs.size)

    def rare_terms(self, text: str, k_docs: int = 50, max_df: int = 50, k_terms: int = 10) -> list[tuple[str, int, int]]:
        """Rare-terms aggregation (ES ``rare_terms``, sampler-bounded like
        :meth:`significant_terms`): terms of the query's top ``k_docs``
        hits whose GLOBAL df is at most ``max_df``, ranked by (df asc,
        term asc).  Returns (term, bg_df, fg_df) rows — the long-tail dual
        of a terms aggregation (which surfaces heads)."""
        fgset = self._foreground_terms(text, k_docs)
        if fgset is None:
            return []
        tids, fg_df, _n_fg = fgset
        bg = self.df[tids]
        keep = bg <= max_df
        terms = self.vocab_index[tids[keep]]
        rows = sorted(zip(terms, bg[keep], fg_df[keep]), key=lambda r: (r[1], r[0]))[:k_terms]
        return [(str(t), int(b), int(f)) for t, b, f in rows]


class FederatedReader:
    """Query-time federation over multiple segment indexes (the ES
    cross-index / Lucene MultiReader shape with ``dfs_query_then_fetch``
    statistics): the union df/cf/n_docs/sum_dl are one vocab-bounded
    merge of the per-segment vocab tables, each segment then scores under
    the GLOBAL stats via :class:`IndexReader`'s ``global_stats`` seam.
    Because BM25 weights depend only on (tf, dl, global df, n_docs,
    avgdl), the merged top-k is rank- AND score-identical to a single
    build (or a physical :func:`~splade_ray.pipelines.merge.merge_segments`)
    of the union corpus — federation is the query-time dual of the
    physical merge, so segments can be searched the moment they land,
    no merge required."""

    def __init__(
        self,
        index_dirs: list[str],
        cfg: EngineConfig | None = None,
        deletes: list[list[str] | None] | None = None,
    ):
        """``deletes``: optional per-segment tombstone url lists applied at
        load (Lucene upsert semantics: a re-crawled url's STALE version is
        tombstoned in its old segment while the new revision lives in a
        later segment; union statistics stay frozen over both versions
        until a physical merge purges the tombstones)."""
        if not index_dirs:
            raise ValueError("federated search needs at least one segment index")
        if deletes is not None and len(deletes) != len(index_dirs):
            raise ValueError("deletes must have one (possibly None) entry per segment")
        vocabs, metas = [], []
        for d in index_dirs:
            stats_dir = os.path.join(d, "stats")
            meta = read_json(os.path.join(stats_dir, "meta.json"))
            if meta.get("encoder", "bm25") != "bm25" or meta.get("vocab_mode", "sorted") != "sorted":
                raise ValueError("federated search needs sorted-vocab bm25 segments")
            if meta.get("sum_dl") is None:
                raise ValueError(
                    "federated search needs sum_dl in every segment's meta "
                    "(weight_mode='tf' builds) for exact global avgdl"
                )
            metas.append(meta)
            vocabs.append(pq.read_table(os.path.join(stats_dir, "vocab.parquet")))
        n_docs = int(sum(m["n_docs"] for m in metas))
        sum_dl = int(sum(m["sum_dl"] for m in metas))
        avgdl = sum_dl / n_docs
        # union df/cf: one Arrow concat + group_by-sum (vocab-bounded, no
        # per-term Python — at vocab_mode="hashed" scale the dict loop this
        # replaces was seconds of driver time per open), then a vectorized
        # hash-gather back to each segment's vocab order
        with_cf = all("cf" in v.column_names for v in vocabs)
        cols = ["term", "df"] + (["cf"] if with_cf else [])
        union = pa.concat_tables([v.select(cols) for v in vocabs])
        aggs = [("df", "sum")] + ([("cf", "sum")] if with_cf else [])
        merged = union.group_by("term").aggregate(aggs)
        union_index = pd.Index(merged.column("term").to_pylist())
        m_df = merged.column("df_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        m_cf = (
            merged.column("cf_sum").to_numpy(zero_copy_only=False).astype(np.int64)
            if with_cf
            else None
        )
        self.readers = []
        for i, (d, v) in enumerate(zip(index_dirs, vocabs)):
            pos = union_index.get_indexer(v.column("term").to_pylist())
            gs = {
                "n_docs": n_docs,
                "avgdl": avgdl,
                "sum_dl": sum_dl,
                "df": m_df[pos],
                "cf": m_cf[pos] if with_cf else None,
            }
            self.readers.append(
                IndexReader(d, cfg, global_stats=gs, deletes=(deletes[i] if deletes else None))
            )
        self.n_docs = n_docs
        self.avgdl = avgdl

    @classmethod
    def from_generation(cls, root: str, cfg: "EngineConfig | None" = None, gen: int | None = None) -> "FederatedReader":
        """Open the index view committed as generation ``gen`` of ``root``
        (default: latest) — the ES point-in-time read path: the manifest
        (``state/generations.py``, Lucene ``segments_N``) names immutable
        segments + tombstones, so a reader pinned to an old generation is
        isolated from every later upsert/delete/merge commit no matter
        when it is constructed."""
        from ..state.generations import read_generation

        m = read_generation(root, gen)
        deletes = m.get("deletes")
        if deletes is not None and all(d is None for d in deletes):
            deletes = None
        return cls(m["segments"], cfg, deletes=deletes)

    def search(self, text: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float, str]]:
        """Merged top-k across all segments, usual (-score, doc)
        tie-break (doc ids are globally unique via doc_id_base).  Ranks,
        scores and urls are identical to the single build; the internal
        doc-id VALUES are per-build labels (Lucene semantics) — they
        coincide with the single build's only when each segment's
        doc_id_base equals the previous segments' deduplicated doc count
        (ties still order identically either way, because doc ids stay
        url-monotonic across ordered segments)."""
        hits = [h for r in self.readers for h in r.search(text, k, method=method)]
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]

    def search_filtered(self, text: str, k: int = 10, allow_urls=None) -> list[tuple[int, float, str]]:
        """Filtered federation (ES filtered-alias serving): each segment
        applies the allow mask inside its own scorer (live-docs shape,
        segment statistics unchanged), then the usual merged top-k."""
        hits = [h for r in self.readers for h in r.search_filtered(text, k, allow_urls=allow_urls)]
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]


class SearcherStage:
    """map_batches(pyarrow) actor-pool stage over a queries Dataset:
    (query_id, text) → top-k rows (query_id, rank, doc_id, url, score).
    Each actor loads the index once (``__init__``)."""

    def __init__(self, index_dir: str, k: int = 10, method: str = "exhaustive", cfg: EngineConfig | None = None):
        self.reader = IndexReader(index_dir, cfg)
        self.k = k
        self.method = method

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, urls, scores = [], [], [], [], []
        for qid, text in zip(batch.column("query_id").to_pylist(), batch.column("text").to_pylist()):
            for rank, (doc, score, url) in enumerate(self.reader.search(text, self.k, self.method), 1):
                qids.append(qid)
                ranks.append(rank)
                docs.append(doc)
                urls.append(url)
                scores.append(score)
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.string()),
                "rank": pa.array(ranks, type=pa.int32()),
                "doc_id": pa.array(docs, type=pa.int64()),
                "url": pa.array(urls, type=pa.string()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )


def apply_deletes(index_dir: str, urls: list[str]) -> int:
    """Record tombstone deletes for an index: merges ``urls`` into the
    index's ``deletes.json`` (atomic write).  Every subsequent
    :class:`IndexReader` / :class:`ShardedSearcher` load excludes them from
    all results; global statistics stay those of the build until a segment
    merge rewrites the index (standard tombstone semantics).  Returns the
    total tombstone count."""
    from ..state.lineage import atomic_write_json

    path = os.path.join(index_dir, "deletes.json")
    cur = (read_json(path) or {}).get("urls", [])
    merged = sorted(set(cur) | set(urls))
    atomic_write_json(path, {"urls": merged})
    return len(merged)


def best_snippet_window(th: np.ndarray, qh: np.ndarray, W: int) -> tuple[int, int, int]:
    """Best W-token window over one doc's md5 token stream: (start, end,
    n_hits) with the most query-term occurrence positions inside the
    window, earliest start on ties — the exact rule of the
    ``search_snippets`` pipeline (queries.py), shared by the snippet legs
    so both produce identical windows."""
    n = th.size
    if qh.size:
        ins = np.searchsorted(qh, th)
        ishit = (qh[np.minimum(ins, qh.size - 1)] == th).astype(np.int64)
    else:
        ishit = np.zeros(n, np.int64)
    csum = np.concatenate(([0], np.cumsum(ishit)))
    n_starts = max(n - W + 1, 1)
    wsum = csum[np.minimum(np.arange(n_starts) + W, n)] - csum[:n_starts]
    s = int(np.argmax(wsum)) if n else 0  # first max → earliest tie
    return s, min(s + W, n), int(wsum[s]) if n else 0


@ray.remote
class ShardScorerActor:
    """Pins one (or a few) shard partitions in an :class:`IndexReader` and
    runs its shard-local legs for a :class:`ShardedSearcher` — the
    reference T5 pattern (pinned postings + reusable buffers)."""

    def __init__(
        self,
        index_dir: str,
        shard_ids: list[int],
        cfg_kwargs: dict | None = None,
        corpus_path: str | None = None,
    ):
        cfg = EngineConfig(**(cfg_kwargs or {}))
        self.reader = IndexReader(index_dir, cfg, shard_ids=shard_ids, corpus_path=corpus_path)

    def leg(self, name: str, *args):
        """Run the reader's leg ``name``; every :class:`Hits` in its result
        leaves with its urls, looked up here where the docs live."""
        return _shipped(getattr(self.reader, name)(*args), self.reader.url_of)

    def score(self, qtids: np.ndarray, qw: np.ndarray, k: int, method: str = "exhaustive"):
        """The plain top-k leg (also the cheapest liveness probe)."""
        return self.leg("_on_shards", _topk_kernel(method), qtids, qw, k)


def _shipped(out, url_of):
    """A leg result as it leaves a shard actor: hits carry their urls."""
    if isinstance(out, list):
        return [_shipped(o, url_of) for o in out]
    if isinstance(out, Hits) and out.urls is None:
        return out._replace(urls=url_of(out.docs))
    return out


class ShardedSearcher(QueryFront):
    """Driver-side scatter-gather over per-shard scorer actors — the
    multi-node deployment shape (each actor would be scheduled on the node
    owning its partition).  Serves every :class:`QueryFront` query: the
    driver encodes and merges, the actors run the legs.

    ``replication > 1`` spawns that many identical scorer actors per shard
    group (on a real cluster: replicas pinned to distinct nodes); a query
    fans out to each group's primary and fails over per group to the next
    replica on ``RayActorError`` (ES replica-shard promotion), so results
    are identical whether or not a replica died."""

    def __init__(
        self,
        index_dir: str,
        cfg: EngineConfig = DEFAULT_CONFIG,
        num_actors: int | None = None,
        corpus_path: str | None = None,
        replication: int = 1,
    ):
        self.cfg = cfg
        shard_ids = postings_shard_ids(os.path.join(index_dir, "postings"))
        n = num_actors or min(len(shard_ids), 8)
        groups = [shard_ids[i::n] for i in range(n) if shard_ids[i::n]]
        # actors must score under the SAME config the index was built with
        # (k1/b/scoring) — a default-config actor would compute other
        # impacts and diverge from the local reader
        cfg_kwargs = dataclasses.asdict(cfg)
        self.replica_groups = [
            [
                ShardScorerActor.remote(index_dir, g, cfg_kwargs, corpus_path)
                for _ in range(max(1, replication))
            ]
            for g in groups
        ]
        self.actors = [reps[0] for reps in self.replica_groups]
        # query-side state (vocab) loaded once locally, no shards
        self.reader = IndexReader(index_dir, cfg, shard_ids=[])

    def _legs(self, name: str, *args) -> list:
        """Leg ``name`` on every shard group's actor, with replica failover."""
        return self._scatter(lambda a: a.leg.remote(name, *args))

    def _scatter(self, make_fut):
        """Call ``make_fut(actor)`` on each group's primary; on actor death
        retry the SAME call on the group's next live replica.  Exhausting a
        group's replicas re-raises (data loss is loud, never silent)."""
        futs = [(gi, 0, make_fut(reps[0])) for gi, reps in enumerate(self.replica_groups)]
        out = []
        for gi, ri, fut in futs:
            while True:
                try:
                    out.append(ray.get(fut))
                    break
                except ray.exceptions.RayActorError:
                    ri += 1
                    if ri >= len(self.replica_groups[gi]):
                        raise
                    fut = make_fut(self.replica_groups[gi][ri])
        return out

    def search_index_ordered(self, text: str, k: int = 10) -> list[int]:
        """Early-terminated sort-by-field retrieval (index-sorted builds):
        every owner walks its own doc-range shards and stops at its local
        k-th match, the driver merges ≤ k internal ids per actor by id
        (= index order) — the ids of
        :meth:`IndexReader.search_index_ordered`."""
        return self._index_ordered(text, k)[0]

    def shutdown(self):
        for reps in getattr(self, "replica_groups", [self.actors]):
            for a in reps:
                ray.kill(a)
        self.replica_groups = []
        self.actors = []
