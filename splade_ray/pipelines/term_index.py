"""Term-partitioned posting build — the groupby(term) shuffle with
skew-aware salting (north-star layout; alternate to the doc-sharded build).

The doc-sharded layout (stages/postings.py) bounds head-term posting lists
by construction and is the default.  This module implements the classic
term-major layout the reference's single-node CSC corresponds to
(``/root/reference/src/indexing/sparse_index.py:591-658`` — one posting
list per term over the whole corpus), distributed:

1. explode doc_terms → one (term_id, salt, doc_id, tf) row per posting —
   the wide exchange doc-sharding avoids, done here deliberately;
2. **salting**: salt = hash(doc_id) % S(term) where S(term) =
   ceil(df / salt_block_postings) from the df table (A1) — head terms
   (stopwords, df ≈ N) split into up to ``max_salts`` groups so no reducer
   receives an unbounded group; tail terms keep S=1 (no overhead);
3. ``groupby(term_id, salt)`` → per-group kernel sorts by doc id and
   emits one compressed run (delta+varint doc ids, varint tfs, min/max doc
   + count metadata);
4. a term's full posting list is the k-way merge of its salted runs —
   the scorer accumulates runs directly (score order is irrelevant for
   Σ qw·w), so no merge materialization is needed.

Query scoring over this layout is rank-identical to the doc-sharded
reader (tested) — same BM25 weights, same (-score, doc_id) tie-break.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..codec import binary_concat, varint_decode, varint_encode, write_index_dataset
from ..config import EngineConfig, DEFAULT_CONFIG
from ..functions.hashing import splitmix64
from ..oracle import bm25_idf
from ..state.lineage import atomic_write_json, read_json
from ..tokenizer import Tokenizer
from .search import select_topk, zone_maxima


def _salt_counts(df: np.ndarray, cfg_block: int, max_salts: int) -> np.ndarray:
    return np.clip((df + cfg_block - 1) // cfg_block, 1, max_salts).astype(np.int64)


def explode_postings(batch: pa.Table, *, salts_ref) -> pa.Table:
    """doc_terms rows → (term_id, salt, doc_id, tf) posting rows."""
    from ..stages.encode import cached_ref

    salts = cached_ref(salts_ref)  # int64[vocab]
    tids_list = batch.column("tids").combine_chunks()
    tids = tids_list.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    tfs = batch.column("tfs").combine_chunks().flatten().to_numpy(zero_copy_only=False)
    lens = tids_list.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
    doc_id = np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), lens)
    with np.errstate(over="ignore"):
        salt = (splitmix64(doc_id.astype(np.uint64)) % salts[tids].astype(np.uint64)).astype(np.int32)
    return pa.table(
        {
            "term_id": pa.array(tids.astype(np.int32)),
            "salt": pa.array(salt),
            # int64: global doc ids — this layout is the 10^12-doc design
            # point, int32 would wrap silently past 2^31 docs
            "doc_id": pa.array(doc_id.astype(np.int64)),
            "tf": pa.array(tfs.astype(np.int32)),
        }
    )


_RUN_SCHEMA = pa.schema(
    [
        ("term_id", pa.int32()),
        ("salt", pa.int32()),
        ("df", pa.int64()),
        ("min_doc", pa.int64()),
        ("max_doc", pa.int64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
    ]
)

_RUN_BUCKETS = 1024


def _run_bucket(batch: pa.Table, nbuckets: int = _RUN_BUCKETS) -> pa.Table:
    t = batch.column("term_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    s = batch.column("salt").to_numpy(zero_copy_only=False).astype(np.uint64)
    b = (splitmix64(t ^ splitmix64(s)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("run_bucket", pa.array(b))


def build_runs_in_bucket(group: pa.Table) -> pa.Table:
    """map_groups kernel for a COARSE run bucket: every (term_id, salt)
    run in the bucket, segmented with one lexsort.  A groupby keyed on
    (term_id, salt) itself would finalize vocab × salts groups in Python
    (the pathology the near-dup pipelines hit at pair scale); here Python
    runs once per OUTPUT run row only, for the varint encode."""
    if group.num_rows == 0:
        return _RUN_SCHEMA.empty_table()
    tid = group.column("term_id").to_numpy(zero_copy_only=False)
    salt = group.column("salt").to_numpy(zero_copy_only=False)
    doc = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    tf = group.column("tf").to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.lexsort((doc, salt, tid))
    tid, salt, doc, tf = tid[order], salt[order], doc[order], tf[order]
    bounds = np.r_[0, np.nonzero((np.diff(tid) != 0) | (np.diff(salt) != 0))[0] + 1, np.int64(tid.size)]
    starts, ends = bounds[:-1], bounds[1:]
    # first delta of each run is 0 relative to min_doc (stored as int64 in
    # the run row) — absolute ids never enter the varint, so the 2^35
    # varint cap bounds RUN WIDTH, not corpus size
    deltas = np.zeros(doc.size, dtype=np.uint64)
    if doc.size > 1:
        np.subtract(doc[1:], doc[:-1], out=deltas[1:].view(np.int64), casting="unsafe")
    deltas[starts] = 0
    docs_bin = [varint_encode(deltas[s:e]) for s, e in zip(starts, ends)]
    tfs_bin = [varint_encode(tf[s:e]) for s, e in zip(starts, ends)]
    return pa.table(
        {
            "term_id": pa.array(tid[starts].astype(np.int32)),
            "salt": pa.array(salt[starts].astype(np.int32)),
            "df": pa.array((ends - starts).astype(np.int64)),
            "min_doc": pa.array(doc[starts]),
            "max_doc": pa.array(doc[ends - 1]),
            "docs": pa.array(docs_bin, type=pa.binary()),
            "tfs": pa.array(tfs_bin, type=pa.binary()),
        }
    )


def build_term_index(
    doc_terms_dir: str,
    stats_dir: str,
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    salt_block_postings: int = 65536,
    max_salts: int = 32,
) -> dict:
    """Term-major index from an existing doc_terms + stats build (BM25
    mode).  Requires doc_terms with resolved doc ids (broadcast dedup)."""
    vocab = pq.read_table(os.path.join(stats_dir, "vocab.parquet"))
    meta = read_json(os.path.join(stats_dir, "meta.json"))
    terms = np.asarray(vocab.column("term").to_pylist(), dtype=object)
    df = vocab.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    salts = _salt_counts(df, salt_block_postings, max_salts)
    salts_ref = ray.put(salts)
    vocab_ref = ray.put(terms)

    from ..stages.postings import map_term_ids

    import shutil

    os.makedirs(out_dir, exist_ok=True)
    # write_parquet appends; clear any half-written runs from a prior crash
    shutil.rmtree(os.path.join(out_dir, "runs"), ignore_errors=True)
    runs = (
        ray.data.read_parquet(doc_terms_dir)
        .map_batches(
            map_term_ids,
            fn_kwargs={"cfg": cfg, "vocab_terms_ref": vocab_ref, "offsets_ref": None},
            batch_format="pyarrow",
            batch_size=cfg.read_batch_size,
        )
        .map_batches(explode_postings, fn_kwargs={"salts_ref": salts_ref}, batch_format="pyarrow")
        .map_batches(_run_bucket, batch_format="pyarrow")
        .groupby("run_bucket")
        .map_groups(build_runs_in_bucket, batch_format="pyarrow")
    )
    write_index_dataset(runs, os.path.join(out_dir, "runs"))
    # dl sidecar: (doc_id, dl) only — the BM25 length normalization a
    # reader needs at open, WITHOUT re-scanning doc_terms (whose tids/tfs
    # lists are ~50x the bytes) or staging the corpus-sized dense array
    # through the driver.  Streamed shard-parallel; readers scatter-fill
    # their dense slice worker-side (per-doc-range chunks at 10^10 docs).
    shutil.rmtree(os.path.join(out_dir, "dl"), ignore_errors=True)
    write_index_dataset(ray.data.read_parquet(doc_terms_dir, columns=["doc_id", "dl"]), os.path.join(out_dir, "dl"))
    summary = {
        "n_docs": meta["n_docs"],
        "avgdl": meta["avgdl"],
        "nnz": meta["nnz"],
        "max_salts": int(salts.max()),
        "salted_terms": int((salts > 1).sum()),
        "layout": "term-major-salted",
        # bump when the run encoding changes (2: first delta relative to
        # min_doc; 3: + dl sidecar) so cached builds in older formats
        # rebuild
        "format": 3,
    }
    atomic_write_json(os.path.join(out_dir, "_MANIFEST.json"), summary)
    return summary


class TermIndexReader:
    """Query-side reader over the salted term-major layout.

    Load decodes EVERY run in two vectorized passes (concatenated varint
    buffers, segment-reset cumsum for absolute doc ids — same pattern as
    the doc-sharded ShardIndex load) and ``set_doc_lengths`` precomputes
    float64 BM25 weights per posting.  Query scoring gathers the query
    terms' posting slices and accumulates with unique+bincount over the
    CANDIDATE docs only — no dense score vector over the global corpus, so
    the reader stays partition-scoped at 10^12-doc scale (each reader
    instance serves whatever runs live in its partition).  Exhaustive
    scoring only — rank-identical to the doc-sharded reader (tested)."""

    def __init__(
        self,
        term_index_dir: str,
        stats_dir: str,
        cfg: EngineConfig | None = None,
        term_range: tuple[int, int] | None = None,
    ):
        """``term_range=(lo, hi)``: load only the runs with lo <= term_id
        < hi — the term-PARTITIONED deployment, where each node owns a
        term-id range and a query fans out to the owners of its terms
        (see :func:`search_term_partitioned`)."""
        self.cfg = cfg or DEFAULT_CONFIG
        meta = read_json(os.path.join(term_index_dir, "_MANIFEST.json"))
        self.n_docs, self.avgdl = meta["n_docs"], meta["avgdl"]
        vocab = pq.read_table(os.path.join(stats_dir, "vocab.parquet"))
        self.vocab_index = pd.Index(vocab.column("term").to_numpy(zero_copy_only=False))
        self.df = vocab.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        runs = pq.read_table(os.path.join(term_index_dir, "runs"))
        if term_range is not None:
            lo, hi = term_range
            tid_col = runs.column("term_id")
            keep = pa.compute.and_(
                pa.compute.greater_equal(tid_col, pa.scalar(lo)), pa.compute.less(tid_col, pa.scalar(hi))
            )
            runs = runs.filter(keep)
        order = pa.compute.sort_indices(
            runs, sort_keys=[("term_id", "ascending"), ("salt", "ascending")]
        )
        runs = runs.take(order)
        run_tids = runs.column("term_id").to_numpy(zero_copy_only=False).astype(np.int64)
        run_df = runs.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        run_min = runs.column("min_doc").to_numpy(zero_copy_only=False).astype(np.int64)
        run_ptr = np.zeros(run_df.size + 1, dtype=np.int64)
        np.cumsum(run_df, out=run_ptr[1:])
        nnz = int(run_ptr[-1])
        # decode all runs at once: deltas are run-relative, so rebase each
        # run's cumsum by subtracting the cumsum just before its start and
        # adding its min_doc
        deltas = varint_decode(binary_concat(runs.column("docs").combine_chunks()), nnz).astype(np.int64)
        csum = np.cumsum(deltas)
        starts = run_ptr[:-1]
        if nnz:
            prior = np.where(starts > 0, csum[np.maximum(starts - 1, 0)], 0)
            self.post_doc = csum - np.repeat(prior, run_df) + np.repeat(run_min, run_df)
        else:
            self.post_doc = np.zeros(0, np.int64)
        self._tf = varint_decode(binary_concat(runs.column("tfs").combine_chunks()), nnz).astype(np.float64)
        # postings grouped by term: runs are term-sorted, so per-term slices
        # come from the first run of each distinct term
        change = np.ones(run_tids.size, dtype=bool)
        change[1:] = run_tids[1:] != run_tids[:-1]
        first_run = np.nonzero(change)[0]
        self.term_ids = run_tids[first_run]
        self.term_ptr = np.append(run_ptr[first_run], nnz)
        self._post_df = self.df[np.repeat(self.term_ids, np.diff(self.term_ptr))]
        self.post_w: np.ndarray | None = None
        self.tok = Tokenizer(self.cfg)
        self._term_index_dir = term_index_dir

    def load_doc_lengths(self):
        """Load the dl sidecar written by :func:`build_term_index`
        (format >= 3) and precompute BM25 weights — the reader-local path:
        2 int columns, column-pruned, scatter-filled where the reader
        runs, never staged through a driver DataFrame."""
        tbl = pq.read_table(os.path.join(self._term_index_dir, "dl"))
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        dl = np.zeros(int(ids.max()) + 1 if ids.size else 0, dtype=np.int64)
        dl[ids] = tbl.column("dl").to_numpy(zero_copy_only=False)
        self.set_doc_lengths(dl)

    def set_doc_lengths(self, dl: np.ndarray):
        """Precompute float64 BM25 weights per posting (identical formula
        to ShardIndex/oracle) — queries then only gather and accumulate.

        Also sorts each term's postings by GLOBAL doc id (a term's salted
        runs interleave doc ranges, so the raw concatenation isn't sorted)
        and builds per-(term, zone) block maxima over the final weights —
        the block-max WAND structures of the doc-sharded ShardIndex, on
        the term-major layout.  Zones are aligned ``doc_id // zone_docs``
        ranges, identical across readers, so a term-PARTITIONED deployment
        can sum per-reader zone bounds into exact global upper bounds."""
        cfg = self.cfg
        tidx = np.repeat(np.arange(self.term_ids.size, dtype=np.int64), np.diff(self.term_ptr))
        order = np.lexsort((self.post_doc, tidx))
        self.post_doc = self.post_doc[order]
        self._tf = self._tf[order]
        self._post_df = self._post_df[order]
        dlf = dl.astype(np.float64)
        idf = bm25_idf(self._post_df.astype(np.float64), self.n_docs)
        tf = self._tf
        self.post_w = idf * tf * (cfg.k1 + 1.0) / (
            tf + cfg.k1 * (1.0 - cfg.b + cfg.b * dlf[self.post_doc] / self.avgdl)
        )
        self._max_doc = int(self.post_doc.max()) if self.post_doc.size else 0
        # per-(term, zone) maxima: postings now sorted by (term, doc)
        self.zone_docs = int(cfg.zone_docs)
        self.zone_ptr, self.zone_zid, self.zone_max = zone_maxima(
            self.term_ptr, self.post_doc, self.post_w, self.zone_docs
        )
        # per-term flatness summary (zone-max median / max / count), built
        # ONCE here so queries can skip the full zone-bound union+bincount
        # when pruning cannot win (flat corpora) — the pre-check the
        # doc-sharded reader gained in round 2, without paying zone_bounds
        # first.  One lexsort over the zone table, O(#query terms) at
        # query time.
        nterm = self.term_ids.size
        seg_lens = np.diff(self.zone_ptr)
        if self.zone_max.size:
            owner = np.repeat(np.arange(nterm, dtype=np.int64), seg_lens)
            order = np.lexsort((self.zone_max, owner))
            zm_sorted = self.zone_max[order]
            mid = self.zone_ptr[:-1] + seg_lens // 2
            self.term_zone_med = np.where(seg_lens > 0, zm_sorted[np.minimum(mid, self.zone_max.size - 1)], 0.0)
            last = np.maximum(self.zone_ptr[1:] - 1, 0)
            self.term_zone_max = np.where(seg_lens > 0, zm_sorted[last], 0.0)
        else:
            self.term_zone_med = np.zeros(nterm, np.float64)
            self.term_zone_max = np.zeros(nterm, np.float64)
        self.term_zone_cnt = seg_lens

    def flatness(self, tids: np.ndarray, qw: np.ndarray) -> tuple[float, float, int]:
        """(Σ qw·zone-median, Σ qw·zone-max, max per-term zone count) over
        the query terms this reader holds — the O(#terms) proxy for the
        bound distribution's flatness.  Medians of sums are approximated
        by sums of medians; the proxy only decides whether to SKIP pruning
        (both paths stay exact), so the approximation cannot cost
        correctness."""
        slices = self._term_slices(tids)
        if not slices:
            return 0.0, 0.0, 0
        idx = np.asarray([p for _i, _s, _e, p in slices], dtype=np.int64)
        w = np.asarray([qw[i] for i, _s, _e, _p in slices], dtype=np.float64)
        return (
            float(self.term_zone_med[idx] @ w),
            float(self.term_zone_max[idx] @ w),
            int(self.term_zone_cnt[idx].max()),
        )

    def _query_terms(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        toks = self.tok.tokenize(text)
        if not toks:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        tids = self.vocab_index.get_indexer(uniq)
        known = tids >= 0
        return tids[known].astype(np.int64), counts[known].astype(np.float64)

    def _term_slices(self, tids: np.ndarray) -> list[tuple[int, int, int, int]]:
        """(query-term idx, posting start, posting end, local term pos) for
        each query term this reader holds."""
        pos = np.searchsorted(self.term_ids, tids)
        out = []
        for i in range(tids.size):
            p = pos[i]
            if p < self.term_ids.size and self.term_ids[p] == tids[i]:
                out.append((i, int(self.term_ptr[p]), int(self.term_ptr[p + 1]), int(p)))
        return out

    def _require_doc_lengths(self) -> None:
        if self.post_w is None:
            raise RuntimeError("TermIndexReader: call set_doc_lengths (or load_doc_lengths) first")

    def zone_bounds(self, tids: np.ndarray, qw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This reader's contribution to the per-zone score upper bound:
        Σ over its query terms of qw_t · zone_max_t[z].  Bounds from
        disjoint term ranges SUM to the exact global block-max bound."""
        self._require_doc_lengths()
        slices = self._term_slices(tids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        z_parts, ub_parts = [], []
        for i, _s, _e, p in slices:
            zs, ze = self.zone_ptr[p], self.zone_ptr[p + 1]
            z_parts.append(self.zone_zid[zs:ze])
            ub_parts.append(self.zone_max[zs:ze] * qw[i])
        allz = np.concatenate(z_parts)
        uz, inv = np.unique(allz, return_inverse=True)
        return uz, np.bincount(inv, weights=np.concatenate(ub_parts))

    def _gather_zones(self, slices, zones: np.ndarray, qw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(global doc ids, query-weighted impacts) of every posting inside
        ``zones`` — searchsorted + one flat gather per query term (postings
        per term are doc-sorted after set_doc_lengths)."""
        zd = self.zone_docs
        lo_doc, hi_doc = zones * zd, (zones + 1) * zd
        ids_parts, w_parts = [], []
        for i, s, e, _p in slices:
            seg = self.post_doc[s:e]
            lo = np.searchsorted(seg, lo_doc) + s
            hi = np.searchsorted(seg, hi_doc) + s
            lens = hi - lo
            tot = int(lens.sum())
            if tot == 0:
                continue
            csum = np.cumsum(lens)
            idx = np.arange(tot, dtype=np.int64) - np.repeat(csum - lens, lens) + np.repeat(lo, lens)
            ids_parts.append(self.post_doc[idx])
            w_parts.append(self.post_w[idx] * qw[i])
        if not ids_parts:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        return np.concatenate(ids_parts), np.concatenate(w_parts)

    # past this corpus size the reader accumulates candidate-scoped
    # (unique+bincount) instead of allocating a dense per-query score
    # vector — each term-range reader serves ONE partition at 10^12 docs,
    # so the dense path is the common case and is ~3x faster (bincount is
    # O(n) where unique pays a sort)
    DENSE_SCORE_LIMIT = 1 << 22

    def _accumulate(self, ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if ids.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        # gate on the MAX GLOBAL doc id, not n_docs: segment indexes built
        # with doc_id_base carry ids past n_docs, and bincount allocates
        # max(id)+1 slots
        max_doc = getattr(self, "_max_doc", None)
        if max_doc is not None and max_doc < self.DENSE_SCORE_LIMIT:
            scores = np.bincount(ids, weights=w, minlength=max_doc + 1)
            cand = np.nonzero(scores)[0]
            return cand, scores[cand]
        cand, inv = np.unique(ids, return_inverse=True)
        return cand, np.bincount(inv, weights=w)

    def score_zones(self, tids: np.ndarray, qw: np.ndarray, zones: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Zone-restricted partial scores (dense bincount within the
        partition, candidate-scoped past DENSE_SCORE_LIMIT)."""
        slices = self._term_slices(tids)
        if not slices or zones.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        ids, w = self._gather_zones(slices, zones, qw)
        return self._accumulate(ids, w)

    def score_partial(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """(candidate doc ids, PARTIAL scores) from the runs THIS reader
        holds — the per-partition contribution of a term-partitioned
        deployment.  Score order is irrelevant for Σ qw·w, so partials from
        disjoint term ranges sum exactly to the full score."""
        tids, qw = self._query_terms(text)
        return self.score_partial_terms(tids, qw)

    def score_partial_terms(self, tids: np.ndarray, qw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score_partial` on ALREADY-parsed query terms — lets the
        WAND flatness fallback reuse the parse instead of re-tokenizing."""
        self._require_doc_lengths()
        if tids.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        slices = self._term_slices(tids)
        if not slices:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        ids = np.concatenate([self.post_doc[s:e] for _, s, e, _ in slices])
        w = np.concatenate([self.post_w[s:e] * qw[i] for i, s, e, _ in slices])
        return self._accumulate(ids, w)

    def search(self, text: str, k: int = 10, method: str = "exhaustive") -> list[tuple[int, float]]:
        """Top-k over this reader's runs.  ``method="wand"`` uses the
        two-phase block-max pruning (rank-identical to exhaustive, tested);
        note it is exact only when this reader holds EVERY query term's
        runs (full term range) — a term-range reader must prune through
        :func:`search_term_partitioned`, which sums bounds across readers."""
        if method == "wand":
            return search_term_partitioned([self], text, k, method="wand")
        cand, scores = self.score_partial(text)
        return _topk_list(cand, scores, k)


def _merge_partials(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if len(parts) == 1:
        # each partial is already per-doc accumulated (unique candidates) —
        # a single-reader merge is the identity, and the unique+bincount
        # below costs more than the whole scoring pass (BENCH r4)
        return parts[0]
    ids = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0, np.int64)
    if ids.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    sc = np.concatenate([p[1] for p in parts])
    cand, inv = np.unique(ids, return_inverse=True)
    return cand, np.bincount(inv, weights=sc)


def _topk_list(cand: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    top, top_scores = select_topk(cand, scores, k)
    return list(zip(top.tolist(), top_scores.tolist()))


def search_term_partitioned(
    readers: list[TermIndexReader],
    text: str,
    k: int = 10,
    method: str = "exhaustive",
    top_zones: int = 32,
    fallback_frac: float = 0.5,
    flatness_frac: float = 0.85,
    min_zone_mult: float = 8.0,
) -> list[tuple[int, float]]:
    """Scatter-gather over TERM-partitioned readers (each holding a
    disjoint term-id range): per-partition partial scores sum exactly —
    unlike doc-sharded top-k merge, the gather must ADD contributions for
    the same doc before ranking.  This is the query model of the
    term-major layout on a cluster where each node owns a term range.

    ``method="wand"`` runs the two-phase block-max pruning DISTRIBUTED:
    zones are global aligned doc-id ranges identical across readers, so
    per-reader zone bounds (each reader's Σ qw·zone_max over ITS terms)
    sum to the exact global upper bound, and a doc's full score is the sum
    of the per-reader partials for its one zone.  Phase 1 exact-scores the
    ``top_zones`` best-bounded zones on every reader to establish the kth
    threshold; phase 2 scores only zones whose summed bound can still
    beat it.  Falls back to exhaustive when the bound distribution is flat
    (same rule as ShardIndex.score_wand).  Rank-identical to exhaustive."""
    if method == "wand":
        qterms = [r._query_terms(text) for r in readers]

        def exhaustive() -> list[tuple[int, float]]:
            # fallback reuses the parsed query terms — no re-tokenize
            cand, scores = _merge_partials(
                [r.score_partial_terms(t, w) for r, (t, w) in zip(readers, qterms)]
            )
            return _topk_list(cand, scores, k)

        # cheap flatness pre-check (O(#query terms), no zone materialize):
        # when the summed zone-median proxy is within ``flatness_frac`` of
        # the summed zone-max proxy the bound distribution is flat and
        # pruning cannot win — go straight to exhaustive without paying
        # zone_bounds.  ``min_zone_mult·top_zones`` is the ECONOMY guard:
        # zone gathers cost ~2× the dense bincount per posting touched
        # (BENCH r4: at 142 zones even 23% phase-1 coverage lost to
        # exhaustive), so pruning needs phase 1 under ~1/min_zone_mult of
        # the corpus before the machinery can pay for itself.  Pass 0 to
        # force the pruning path (tests).
        flat = [r.flatness(t, w) for r, (t, w) in zip(readers, qterms)]
        med_sum = sum(f[0] for f in flat)
        max_sum = sum(f[1] for f in flat)
        nzones = max((f[2] for f in flat), default=0)
        if nzones <= max(top_zones, min_zone_mult * top_zones) or med_sum >= flatness_frac * max_sum:
            return exhaustive()
        bounds = [r.zone_bounds(t, w) for r, (t, w) in zip(readers, qterms)]
        allz = np.concatenate([b[0] for b in bounds]) if bounds else np.zeros(0, np.int64)
        if allz.size == 0:
            return []
        uz, inv = np.unique(allz, return_inverse=True)
        ub = np.bincount(inv, weights=np.concatenate([b[1] for b in bounds]))
        order = np.argsort(-ub, kind="stable")
        uz, ub = uz[order], ub[order]
        if uz.size <= top_zones or ub[uz.size // 2] >= flatness_frac * ub[0]:
            return exhaustive()
        z1 = uz[:top_zones]
        cand1, sc1 = _merge_partials([r.score_zones(t, w, z1) for r, (t, w) in zip(readers, qterms)])
        sel = None
        if cand1.size >= k > 0:
            t_kth = select_topk(cand1, sc1, k)[1][-1]
            # ub >= t keeps boundary ties exact under the (-score, doc_id) rule
            sel = ub[top_zones:] >= t_kth
        if sel is None or int(sel.sum()) > fallback_frac * (uz.size - top_zones):
            return exhaustive()
        z2 = uz[top_zones:][sel]
        cand2, sc2 = _merge_partials([r.score_zones(t, w, z2) for r, (t, w) in zip(readers, qterms)])
        # a doc lives in exactly one zone → phase sets are disjoint
        cand = np.concatenate([cand1, cand2])
        return _topk_list(cand, np.concatenate([sc1, sc2]), k)
    cand, scores = _merge_partials([r.score_partial(text) for r in readers])
    return _topk_list(cand, scores, k)


def score_pruned(reader: "TermIndexReader", text: str, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """STATIC INDEX PRUNING scoring (Carmel et al. 2001): each query
    term's posting run is cut to its global top ⌈fraction·df⌉ postings by
    (round(impact, 9) DESC, doc ASC) before accumulation — the classic
    index-size/quality trade, exact per TERM because the term-major
    layout holds every term's postings contiguously (the doc-sharded
    layout cannot prune a term globally without a shuffle).  Returns the
    (candidates, scores) partial like :meth:`TermIndexReader.score_partial`."""
    reader._require_doc_lengths()
    tids, qw = reader._query_terms(text)
    if tids.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    slices = reader._term_slices(tids)
    if not slices:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    ids_parts, w_parts = [], []
    for i, s, e, _tid in slices:
        seg_doc = reader.post_doc[s:e]
        seg_w = reader.post_w[s:e]
        m = int(math.ceil(fraction * (e - s)))
        keep = np.lexsort((seg_doc, -np.round(seg_w, 9)))[:m]
        ids_parts.append(seg_doc[keep])
        w_parts.append(seg_w[keep] * qw[i])
    ids = np.concatenate(ids_parts)
    w = np.concatenate(w_parts)
    return reader._accumulate(ids, w)
