"""Similarity search over an embedding column (``list<float>``).

Every kNN scorer here runs one pipeline:

1. **Partial top-k.**  Each ``map_batches`` task scores its batch against
   the broadcast query state into an ``(n, q)`` matrix (higher is better)
   and emits, per query, every row scoring at least the batch's kth score
   (:func:`_boundary_safe_topk`).  An optional ``(n, q)`` allow mask keeps
   each query to its own probe lists.
2. **Merge.**  One ``groupby("query_idx").map_groups`` keeps each query's
   top k by ``(-score, vec_id)``.  The exchange moves O(queries · k ·
   batches) rows, never the corpus.
3. **Fetch and exact re-rank** (two-phase scorers only).  The merged
   ``k·oversample`` candidates' vectors come back in one broadcast-id
   filtered scan and are re-ranked on the exact cosine (descending) or
   squared L2 (ascending), compared at ``round(·, 9)`` like the SQL
   oracles, then ``vec_id``.

The scorers differ only in their phase-1 kernel:

- :func:`brute_force_topk`: exact cosine (the exactness baseline);
- :meth:`IVFIndex.search`: exact cosine over the ``nprobe`` probed lists;
- :func:`quantized_rescore_topk`: per-vector int8 approximate cosine;
- :func:`binary_rescore_topk`: sign-bit agreement (1-bit);
- :func:`truncated_rescore_topk`: cosine over a Matryoshka prefix;
- :func:`pq_adc_topk`: product-quantization asymmetric distance (ADC);
- :func:`ivfpq_topk`: ADC over the probed coarse clusters.

Alongside them: :func:`kmeans_assign` (deterministic Lloyd k-means),
:func:`pq_train` (PQ codebooks, the same Lloyd step per subspace) and
:func:`pca_power_project` (first principal component).  k-means and PQ
seed from the smallest-id vectors (:func:`_smallest_id_rows`).  Every Ray
Data kernel is a module-level function called with ``fn_kwargs``.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..stages.encode import cached_ref


def _as_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column without per-row
    Python objects: flatten the list values (offset-aware) and reshape.
    Requires a fixed embedding dim, which the schema guarantees."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = col.flatten()  # honors list offsets on sliced arrays
    values = flat.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    if values.size % n:
        raise ValueError("ragged embedding column: rows have differing dims")
    return values.reshape(n, values.size // n)


def _norms(m: np.ndarray) -> np.ndarray:
    """Row L2 norms with 0 read as 1, so a zero vector scores 0, not NaN
    (the same reduction as ``np.linalg.norm(m, axis=1)``)."""
    n = np.sqrt((m * m).sum(axis=1))
    n[n == 0] = 1.0
    return n


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / _norms(m)[:, None]


def _empty(**dtypes) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in dtypes.items()})


def _boundary_safe_topk(col: np.ndarray, kk: int) -> np.ndarray:
    """Candidate indices for a per-batch partial top-k: everything with
    score >= the kth score, not an arbitrary kk of them — keeps the global
    (-score, vec_id) tie-break exact at the boundary.  Kept apart from
    :func:`~splade_ray.pipelines.search.select_topk`: cosine and negated
    distance scores can be <= 0, so every entry is a candidate (BM25
    selection drops zero scores first), and the caller ranks the returned
    positions under its own keys, so nothing is sorted or cut to kk here."""
    if col.size <= kk:
        return np.arange(col.size)
    part = np.argpartition(-col, kk - 1)[:kk]
    kth = col[part].min()
    return np.nonzero(col >= kth)[0]


def _partial_topk_table(qidx: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "query_idx": pa.array(qidx.astype(np.int32)),
            "vec_id": pa.array(ids.astype(np.int64)),
            "score": pa.array(scores.astype(np.float64)),
        }
    )


# ------------------------------------------------------ the one kNN pipeline
def _partial_topk(batch: pa.Table, score_fn, state_ref, k: int, id_col: str, emb_col: str, filter_expr) -> pa.Table:
    """Phase 1 for one batch: ``score_fn(batch, state, emb_col)`` returns
    the ``(n, q)`` score matrix and an ``(n, q)`` allow mask or None; each
    query keeps the boundary-safe partial top-k of its allowed rows.
    ``filter_expr`` (an Arrow predicate over the batch, or None) drops rows
    before they are scored."""
    if filter_expr is not None:
        batch = batch.filter(filter_expr(batch))
    out_q, out_i, out_s = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)], [np.zeros(0)]
    if batch.num_rows:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        scores, allow = score_fn(batch, cached_ref(state_ref), emb_col)
        for qi in range(scores.shape[1]):
            rows = slice(None) if allow is None else allow[:, qi]
            col = scores[rows, qi]
            part = _boundary_safe_topk(col, min(k, col.size))
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[rows][part])
            out_s.append(col[part])
    return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))


def _merge_topk(g: pd.DataFrame, k: int, r9: bool) -> pd.DataFrame:
    """One query's top k of its partials by (-score, vec_id), ranked from 1.
    ``r9`` compares ROUND-9 scores, the candidate cut of the SQL oracles
    (``round(score, 9) DESC, vec_id``): a raw-float cut could resolve a
    last-ulp near-tie at the boundary differently than DuckDB."""
    key = g["score"].round(9) if r9 else g["score"]
    g = g.assign(_rk=key).sort_values(["_rk", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
    g = g.drop(columns="_rk").reset_index(drop=True)
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g


def _topk(ds: Dataset, score_fn, state, k: int, emb_col: str, id_col: str, r9: bool = False, filter_expr=None) -> pd.DataFrame:
    """Partial top-k + merge: (query_idx, vec_id, score, rank) rows, at
    most k per query (empty when nothing scored)."""
    partials = ds.map_batches(
        _partial_topk,
        fn_kwargs={
            "score_fn": score_fn,
            "state_ref": ray.put(state),
            "k": k,
            "id_col": id_col,
            "emb_col": emb_col,
            "filter_expr": filter_expr,
        },
        batch_format="pyarrow",
        batch_size=4096,
    )
    merged = partials.groupby("query_idx").map_groups(_merge_topk, fn_kwargs={"k": k, "r9": r9}, batch_format="pandas")
    return merged.to_pandas()


def _ranked(merged: pd.DataFrame) -> pd.DataFrame:
    """(query_idx, rank, vec_id, score) of a single-phase scorer."""
    if merged.empty:
        return _empty(query_idx=np.int32, rank=np.int64, vec_id=np.int64, score=np.float64)
    return merged.sort_values(["query_idx", "rank"], ignore_index=True)[["query_idx", "rank", "vec_id", "score"]]


def _fetch_rows(batch: pa.Table, ids_ref, id_col: str, emb_col: str) -> pa.Table:
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return batch.filter(pa.array(np.isin(ids, cached_ref(ids_ref)))).select([id_col, emb_col])


def _rescore_topk(
    ds: Dataset, Q: np.ndarray, score_fn, state, k: int, oversample: int, emb_col: str, id_col: str, l2: bool = False
) -> pd.DataFrame:
    """Every two-phase scorer: phase 1 keeps the top ``k·oversample``
    candidates per query on ``score_fn``'s coarse score (cut at round 9);
    phase 2 fetches ONLY those vectors (one broadcast-id filtered scan,
    bounded by the candidate count) and re-ranks them on the exact cosine
    (descending) or, with ``l2``, the exact squared L2 (ascending),
    compared at ``round(·, 9)``, then ``vec_id``.

    Returns (query_idx, rank, vec_id, coarse, score), or with ``l2``
    (query_idx, rank, vec_id, adist, dist) where ``adist`` is the
    negated coarse score; rank <= k."""
    coarse_col, exact_col = ("adist", "dist") if l2 else ("coarse", "score")
    cand = _topk(ds, score_fn, state, k * oversample, emb_col, id_col, r9=True)
    if cand.empty:
        return _empty(query_idx=np.int64, rank=np.int64, vec_id=np.int64, **{coarse_col: np.float64, exact_col: np.float64})
    cid = cand["vec_id"].to_numpy()
    fetched = ds.map_batches(
        _fetch_rows,
        fn_kwargs={"ids_ref": ray.put(np.unique(cid)), "id_col": id_col, "emb_col": emb_col},
        batch_format="pyarrow",
    )
    got = pa.concat_tables(list(fetched.iter_batches(batch_format="pyarrow", batch_size=None)))
    gid = got.column(id_col).to_numpy(zero_copy_only=False)
    by_id = np.argsort(gid)
    E = _as_matrix(got.column(emb_col))[by_id[np.searchsorted(gid, cid, sorter=by_id)]]
    qi = cand["query_idx"].to_numpy()
    if l2:
        dif = E - Q[qi]
        exact = np.sum(dif * dif, axis=1)
        key = np.round(exact, 9)
    else:
        exact = (E * Q[qi]).sum(axis=1) / (_norms(Q)[qi] * _norms(E))
        key = -np.round(exact, 9)
    order = np.lexsort((cid, key, qi))
    rank = np.arange(order.size) - np.searchsorted(qi[order], qi[order]) + 1  # 1 + position in its query
    keep = order[rank <= k]
    coarse = cand["score"].to_numpy()[keep]
    return pd.DataFrame(
        {
            "query_idx": qi[keep].astype(np.int64),
            "rank": rank[rank <= k],
            "vec_id": cid[keep],
            coarse_col: -coarse if l2 else coarse,
            exact_col: exact[keep],
        }
    )


# ------------------------------------------------------------- coarse kernels
def _cosine_scores(batch: pa.Table, Q: np.ndarray, emb_col: str):
    """Exact cosine against the unit query rows ``Q``."""
    return _normalize(_as_matrix(batch.column(emb_col))) @ Q.T, None


def _in_probes(cl: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """(n, q) mask: row i's cluster is in query q's probe list."""
    return (cl[:, None, None] == probes[None, :, :]).any(axis=2)


def _ivf_scores(batch: pa.Table, state, emb_col: str):
    Q, probes = state
    scores, _ = _cosine_scores(batch, Q, emb_col)
    return scores, _in_probes(batch.column("cluster").to_numpy(zero_copy_only=False), probes)


def _int8_quantize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector symmetric int8 quantization: scale s = maxabs/127 (1.0 for
    an all-zero vector), q = floor(x·127/maxabs + 0.5) — round-half-up so the
    SQL oracle's ``floor(x + 0.5)`` replays it bit-for-bit (numpy's banker's
    ``np.round`` would not)."""
    mx = np.abs(m).max(axis=1)
    mx[mx == 0] = 1.0
    q = np.floor(m * (127.0 / mx[:, None]) + 0.5)
    return q, mx


def _int8_scores(batch: pa.Table, state, emb_col: str):
    Qq, qmx, qnorm = state
    emb = _as_matrix(batch.column(emb_col))
    Dq, dmx = _int8_quantize(emb)
    dots = Dq @ Qq.T  # exact: int-valued floats < 2^53
    # association mirrors the SQL oracle: ((dot·qs)·ds)/(qn·dn)
    return ((dots * (qmx / 127.0)[None, :]) * (dmx / 127.0)[:, None]) / (qnorm[None, :] * _norms(emb)[:, None]), None


def _sign_scores(batch: pa.Table, Qs: np.ndarray, emb_col: str):
    emb = _as_matrix(batch.column(emb_col))
    return (emb.shape[1] + np.where(emb > 0, 1.0, -1.0) @ Qs.T) / 2.0, None  # integer-valued floats


def _prefix_cosine_scores(batch: pa.Table, state, emb_col: str):
    Qc, qcn = state
    Ec = _as_matrix(batch.column(emb_col))[:, : Qc.shape[1]]
    return (Ec @ Qc.T) / (_norms(Ec)[:, None] * qcn[None, :]), None


def _pq_encode(x: np.ndarray, cbs: np.ndarray) -> np.ndarray:
    """(n, m) PQ codes: each subspace slice's nearest codeword."""
    m, _, dsub = cbs.shape
    codes = np.empty((x.shape[0], m), dtype=np.int64)
    for si in range(m):
        codes[:, si], _ = _kmeans_dists(x[:, si * dsub : (si + 1) * dsub], cbs[si])
    return codes


def _pq_lut(Q: np.ndarray, cbs: np.ndarray) -> np.ndarray:
    """(q, m, ksub) ADC tables: lut[qi, si, c] = ||q_sub − cbs[si, c]||²."""
    m, _, dsub = cbs.shape
    diff = Q.reshape(Q.shape[0], m, 1, dsub) - cbs[None, :, :, :]
    return np.sum(diff * diff, axis=3)


def _adc(codes: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """(n, q) asymmetric distances, accumulated subspace by subspace (the
    SQL sum order is per-vector over sub — same-code vectors tie exactly
    either way)."""
    adist = np.zeros((codes.shape[0], lut.shape[0]), dtype=np.float64)
    for si in range(lut.shape[1]):
        adist += lut[:, si, codes[:, si]].T
    return adist


def _adc_scores(batch: pa.Table, state, emb_col: str):
    cbs, lut = state
    return -_adc(_pq_encode(_as_matrix(batch.column(emb_col)), cbs), lut), None  # negate: higher is better


def _ivfpq_scores(batch: pa.Table, state, emb_col: str):
    cent, cbs, lut, probes = state
    x = _as_matrix(batch.column(emb_col))
    coarse, _ = _kmeans_dists(x, cent)
    return -_adc(_pq_encode(x, cbs), lut), _in_probes(coarse, probes)


# --------------------------------------------------------------- the scorers
def brute_force_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Exact cosine top-k of each query row against the dataset.

    Returns (query_idx, rank, vec_id, score) sorted by (query_idx, rank).
    """
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    return _ranked(_topk(ds, _cosine_scores, Q, k, emb_col, id_col))


def quantized_rescore_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    oversample: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Two-phase quantized kNN (the ES ``int8_hnsw`` + ``rescore_vector``
    oversample shape, on a flat scan): phase 1 scores every vector with the
    cheap per-vector-int8 approximate cosine and keeps the global top
    ``k·oversample`` candidates per query; phase 2 re-ranks them with the
    exact float cosine.

    Approximate cosine of query q and doc d:
    ``(Qq·Dq) · (qmax/127) · (dmax/127) / (‖q‖·‖d‖)`` with Qq, Dq the
    round-half-up int8 codes — every arithmetic step is SQL-replayable, so
    the oracle reproduces both the candidate sets and the final ranking.

    Returns (query_idx, rank, vec_id, coarse, score) rows, rank ≤ k by
    (-exact, vec_id) over the candidates.
    """
    Q = np.asarray(queries, dtype=np.float64)
    Qq, qmx = _int8_quantize(Q)
    return _rescore_topk(ds, Q, _int8_scores, (Qq, qmx, _norms(Q)), k, oversample, emb_col, id_col)


def binary_rescore_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    oversample: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Two-phase BINARY-quantized kNN (the ES ``bbq``/1-bit shape on a flat
    scan): phase 1 scores every vector by sign-bit agreement with the query
    — ``agree = (dim + sign(d)·sign(q)) / 2`` with sign(x) = +1 if x > 0
    else −1, i.e. ``dim − hamming`` over the sign bitplanes — and keeps the
    global top ``k·oversample`` candidates per query by (−agree, vec_id);
    phase 2 re-ranks them with the exact float cosine.

    The coarse score is a small integer, so ties are pervasive — the
    boundary-safe partial top-k plus the (−score, vec_id) merge make the
    candidate cut globally deterministic, and the sign arithmetic replays
    exactly in SQL (±1 inner product).

    Returns (query_idx, rank, vec_id, coarse, score) rows, rank ≤ k by
    (−exact, vec_id) over the candidates.
    """
    Q = np.asarray(queries, dtype=np.float64)
    return _rescore_topk(ds, Q, _sign_scores, np.where(Q > 0, 1.0, -1.0), k, oversample, emb_col, id_col)


def truncated_rescore_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    oversample: int = 3,
    coarse_dims: int = 16,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Two-phase MATRYOSHKA kNN (MRL truncation): phase 1 scores every
    vector by cosine over only the first ``coarse_dims`` dimensions (the
    MRL property: a prefix of the embedding is itself an embedding) and
    keeps the global top ``k·oversample`` per query by (−coarse, vec_id);
    phase 2 re-ranks them with the full-dimension cosine.  At scale the
    hot scan touches ``coarse_dims/dim`` of the bytes.  Returns
    (query_idx, rank, vec_id, coarse, score)."""
    Q = np.asarray(queries, dtype=np.float64)
    Qc = Q[:, :coarse_dims]
    return _rescore_topk(ds, Q, _prefix_cosine_scores, (Qc, _norms(Qc)), k, oversample, emb_col, id_col)


def _kmeans_fit(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(sample.shape[0], size=min(n_clusters, sample.shape[0]), replace=False)]
    for _ in range(iters):
        d = sample @ centroids.T
        assign = np.argmax(d, axis=1)
        for c in range(centroids.shape[0]):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


def _assign_cluster(batch: pa.Table, c_ref, emb_col: str) -> pa.Table:
    emb = _normalize(_as_matrix(batch.column(emb_col)))
    cl = np.argmax(emb @ cached_ref(c_ref).T, axis=1).astype(np.int32)
    return batch.append_column("cluster", pa.array(cl))


def _keep_clusters(batch: pa.Table, clusters: list[int]) -> pa.Table:
    return batch.filter(pc.is_in(batch.column("cluster"), value_set=pa.array(clusters, type=pa.int32())))


def _tag_cluster(batch: pa.Table, cluster: int) -> pa.Table:
    # read_parquet may already recover the hive partition value
    # (sometimes as a string) — normalize to one int32 column
    if "cluster" in batch.column_names:
        batch = batch.drop_columns(["cluster"])
    return batch.append_column("cluster", pa.array(np.full(batch.num_rows, cluster, dtype=np.int32)))


class IVFIndex:
    """Driver-held coarse quantizer + a Ray Dataset of assigned vectors.

    ``fit`` samples the dataset for centroids (spherical k-means),
    ``assign`` adds a ``cluster`` column in map_batches (centroids
    broadcast), ``search`` probes the nprobe nearest lists only.
    """

    def __init__(self, n_clusters: int = 16, nprobe: int = 4, emb_col: str = "embedding", id_col: str = "vec_id"):
        self.n_clusters = n_clusters
        self.nprobe = nprobe
        self.emb_col = emb_col
        self.id_col = id_col
        self.centroids: np.ndarray | None = None
        self.assigned: Dataset | None = None
        self.lists_dir: str | None = None  # set by load(): on-disk partitioned lists

    def fit_assign(
        self,
        ds: Dataset,
        sample_fraction: float | None = None,
        seed: int = 11,
        max_fit_vectors: int = 1 << 18,
    ) -> "IVFIndex":
        """Fit centroids on a BOUNDED sample, then assign the full dataset.

        ``sample_fraction=None`` (default) derives the fraction from the
        dataset row count so at most ~``max_fit_vectors`` rows ever reach
        the driver — the centroid fit never concatenates the full corpus
        embedding matrix (at 100 TB that matrix is the corpus).  Pass an
        explicit fraction to override (tests use 1.0 for exactness)."""
        explicit_fraction = sample_fraction
        if sample_fraction is None:
            n = ds.count()
            sample_fraction = min(1.0, max_fit_vectors / max(n, 1))
        sample_ds = ds if sample_fraction >= 1.0 else ds.random_sample(sample_fraction, seed=seed)
        chunks = [
            _as_matrix(b.column(self.emb_col))
            for b in sample_ds.select_columns([self.emb_col]).iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        if not chunks:
            raise ValueError("IVFIndex.fit_assign: dataset has no vectors")
        sample = _normalize(np.concatenate(chunks))
        if explicit_fraction is None and sample.shape[0] > max_fit_vectors:
            # derived fraction overshot (count raced the sample): keep the
            # driver bounded via a deterministic stride subsample.  An
            # EXPLICIT fraction is honored verbatim — the docstring promises
            # exactness for callers that pass 1.0.
            stride = int(np.ceil(sample.shape[0] / max_fit_vectors))
            sample = sample[::stride]
        self.centroids = _kmeans_fit(sample, self.n_clusters, seed=seed)
        self.assigned = ds.map_batches(
            _assign_cluster,
            fn_kwargs={"c_ref": ray.put(self.centroids), "emb_col": self.emb_col},
            batch_format="pyarrow",
        ).materialize()
        return self

    def save(self, out_dir: str) -> dict:
        """Persist the index as the SCALE layout: one parquet partition
        directory per cluster (``lists/cluster=N/``) plus a centroid
        table.  At query time probe pruning becomes DIRECTORY pruning —
        only the ``nprobe`` probed lists' files are ever opened, which is
        the IVF contract at 100 TB (non-probed lists cost zero IO)."""
        if self.centroids is None or self.assigned is None:
            raise RuntimeError("IVFIndex.save: call fit_assign first")
        import os

        import pyarrow.parquet as pq

        os.makedirs(out_dir, exist_ok=True)
        # write_parquet APPENDS: clear any stale/half-written lists from a
        # prior save or crash-retry so load() never scores duplicate rows
        # (same guard as the term-index run writer).
        lists_dir = os.path.join(out_dir, "lists")
        if os.path.exists(lists_dir):
            import shutil

            shutil.rmtree(lists_dir)
        cent = self.centroids
        pq.write_table(
            pa.table(
                {
                    "cluster": pa.array(np.arange(cent.shape[0], dtype=np.int32)),
                    "centroid": pa.array(list(cent.astype(np.float64)), type=pa.list_(pa.float64())),
                }
            ),
            os.path.join(out_dir, "centroids.parquet"),
        )
        self.assigned.write_parquet(os.path.join(out_dir, "lists"), partition_cols=["cluster"])
        from ..state.lineage import atomic_write_json

        man = {
            "n_clusters": int(cent.shape[0]),
            "dim": int(cent.shape[1]),
            "nprobe": self.nprobe,
            "emb_col": self.emb_col,
            "id_col": self.id_col,
        }
        atomic_write_json(os.path.join(out_dir, "_MANIFEST.json"), man)
        return man

    @classmethod
    def load(cls, out_dir: str, nprobe: int | None = None) -> "IVFIndex":
        """Open a saved index: centroids in memory (k·d — driver-sized by
        construction), lists stay ON DISK and are read per probe."""
        import os

        import pyarrow.parquet as pq

        from ..state.lineage import read_json

        man = read_json(os.path.join(out_dir, "_MANIFEST.json"))
        self = cls(
            n_clusters=man["n_clusters"],
            nprobe=nprobe or man["nprobe"],
            emb_col=man["emb_col"],
            id_col=man["id_col"],
        )
        cent = pq.read_table(os.path.join(out_dir, "centroids.parquet"))
        order = np.argsort(cent.column("cluster").to_numpy(zero_copy_only=False))
        self.centroids = _as_matrix(cent.column("centroid").take(pa.array(order)))
        self.lists_dir = os.path.join(out_dir, "lists")
        return self

    def _probed_subset(self, probe_list: list[int]) -> Dataset:
        """Dataset of the probed clusters' vectors.  In-memory index:
        one filter over the assigned Dataset.  Disk index: read ONLY the
        probed partition directories (hive layout) — the cluster column is
        reattached from the directory name, and non-probed lists are never
        opened."""
        if self.assigned is not None:
            return self.assigned.map_batches(_keep_clusters, fn_kwargs={"clusters": probe_list}, batch_format="pyarrow")
        import os

        import ray.data as rd

        parts = [
            rd.read_parquet(d).map_batches(_tag_cluster, fn_kwargs={"cluster": c}, batch_format="pyarrow")
            for c in probe_list
            if os.path.isdir(d := os.path.join(self.lists_dir, f"cluster={c}"))
        ]
        if not parts:
            return rd.from_arrow(
                pa.table(
                    {
                        self.id_col: pa.array([], type=pa.int64()),
                        self.emb_col: pa.array([], type=pa.list_(pa.float32())),
                        "cluster": pa.array([], type=pa.int32()),
                    }
                )
            )
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def search(self, queries: np.ndarray, k: int = 10, filter_expr=None) -> pd.DataFrame:
        """Probe-and-score top-k; ``filter_expr`` (an Arrow compute
        predicate over the stored vector rows, e.g.
        ``lambda t: pc.equal(t.column("label"), 3)``) applies INSIDE the
        probed-list scorer BEFORE ranking — the ES ``knn``+``filter``
        semantics on the IVF path: non-probed lists still cost zero IO
        and filtered-out vectors never reach the matmul."""
        if self.centroids is None or (self.assigned is None and not self.lists_dir):
            raise RuntimeError("IVFIndex.search: call fit_assign or load first")
        Q = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(Q @ self.centroids.T), axis=1)[:, : self.nprobe]
        subset = self._probed_subset(sorted({int(c) for c in probe.reshape(-1)}))
        # per-query restriction to its own probe list happens in the scorer
        return _ranked(_topk(subset, _ivf_scores, (Q, probe), k, self.emb_col, self.id_col, filter_expr=filter_expr))


# ------------------------------------------------ distributed Lloyd k-means
def _kmeans_dists(x: np.ndarray, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared-euclidean assignment (min-cluster-index ties).  Per-cluster
    sequential dim reduction — matches the SQL oracle's per-dim sum fold
    more closely than a matmul identity."""
    k = cent.shape[0]
    dists = np.empty((x.shape[0], k), dtype=np.float64)
    for c in range(k):
        d = x - cent[c]
        dists[:, c] = np.sum(d * d, axis=1)
    assign = np.argmin(dists, axis=1)  # argmin takes the FIRST min
    return assign, dists[np.arange(x.shape[0]), assign]


def _smallest_id_batch(batch: pa.Table, n: int, id_col: str, columns: list[str] | None) -> pa.Table:
    """The ``n`` smallest-id rows of one batch (all when it has fewer)."""
    if columns is not None:
        batch = batch.select(columns)
    if batch.num_rows <= n:
        return batch
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return batch.take(pa.array(np.argsort(ids, kind="stable")[:n]))


def _smallest_id_rows(
    ds: Dataset, n: int, id_col: str = "vec_id", columns: list[str] | None = None, what: str = "dataset"
) -> pa.Table:
    """The ``n`` smallest-id rows in id order (the oracles' ``ORDER BY id
    LIMIT n`` seed) WITHOUT a distributed sort: one streaming pass of
    per-batch smallest-n partials, then a driver merge over <= n rows per
    batch.  Raises ``ValueError`` naming ``what`` on an empty dataset."""
    parts = [
        b
        for b in ds.map_batches(
            _smallest_id_batch,
            fn_kwargs={"n": n, "id_col": id_col, "columns": columns},
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    if not parts:
        raise ValueError(f"{what}: dataset has no vectors")
    rows = pa.concat_tables(parts)
    return rows.take(pa.array(np.argsort(rows.column(id_col).to_numpy(zero_copy_only=False), kind="stable")[:n]))


def _lloyd_partial(batch: pa.Table, cb_ref, emb_col: str) -> pa.Table:
    """One Lloyd half-step over ALL subspaces of (m_sub, k, dsub) codebooks
    in one visit (k-means is the m_sub = 1 case): emits (sub, cl, sdim)
    partial sums + counts — m·k·dsub = k·d cells per batch regardless of
    batch size."""
    cbs = cached_ref(cb_ref)
    m_sub, ksub, dsub = cbs.shape
    if batch.num_rows == 0:
        return pa.table(
            {c: pa.array([], type=pa.float64() if c == "s" else pa.int64()) for c in ("sub", "cl", "sdim", "s", "cnt")}
        )
    x = _as_matrix(batch.column(emb_col))
    codes = _pq_encode(x, cbs)
    ss, cnts = [], []
    for si in range(m_sub):
        sums = np.zeros((ksub, dsub), dtype=np.float64)
        np.add.at(sums, codes[:, si], x[:, si * dsub : (si + 1) * dsub])
        ss.append(sums.ravel())
        cnts.append(np.repeat(np.bincount(codes[:, si], minlength=ksub).astype(np.int64), dsub))
    return pa.table(
        {
            "sub": pa.array(np.repeat(np.arange(m_sub, dtype=np.int64), ksub * dsub)),
            "cl": pa.array(np.tile(np.repeat(np.arange(ksub, dtype=np.int64), dsub), m_sub)),
            "sdim": pa.array(np.tile(np.arange(dsub, dtype=np.int64), m_sub * ksub)),
            "s": pa.array(np.concatenate(ss)),
            "cnt": pa.array(np.concatenate(cnts)),
        }
    )


def _lloyd(ds: Dataset, cbs: np.ndarray, iters: int, emb_col: str) -> np.ndarray:
    """``iters`` full Lloyd iterations on (m_sub, k, dsub) codebooks, each
    ONE streaming stateless-task pass whose k·d-cell partials the driver
    sums; an empty cluster keeps its previous centroid."""
    m, k, _ = cbs.shape
    for _ in range(iters):
        sums = np.zeros_like(cbs)
        cnt = np.zeros((m, k), dtype=np.int64)
        for b in ds.map_batches(
            _lloyd_partial, fn_kwargs={"cb_ref": ray.put(cbs), "emb_col": emb_col}, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            if not b.num_rows:
                continue
            sub = b.column("sub").to_numpy(zero_copy_only=False)
            cl = b.column("cl").to_numpy(zero_copy_only=False)
            sdim = b.column("sdim").to_numpy(zero_copy_only=False)
            np.add.at(sums, (sub, cl, sdim), b.column("s").to_numpy(zero_copy_only=False))
            first = sdim == 0
            np.add.at(cnt, (sub[first], cl[first]), b.column("cnt").to_numpy(zero_copy_only=False)[first])
        nz = cnt > 0
        cbs = np.where(nz[:, :, None], sums / np.maximum(cnt, 1)[:, :, None], cbs)
    return cbs


def _kmeans_out(batch: pa.Table, cent_ref, id_col: str, emb_col: str) -> pa.Table:
    """Per-vector final assignment (id, cluster, dist)."""
    if batch.num_rows == 0:
        return pa.table(
            {id_col: pa.array([], pa.int64()), "cluster": pa.array([], pa.int64()), "dist": pa.array([], pa.float64())}
        )
    assign, best = _kmeans_dists(_as_matrix(batch.column(emb_col)), cached_ref(cent_ref))
    return pa.table({id_col: batch.column(id_col), "cluster": pa.array(assign.astype(np.int64)), "dist": pa.array(best)})


def kmeans_assign(
    ds,
    k: int = 4,
    iters: int = 3,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    return_centroids: bool = False,
):
    """Distributed Lloyd k-means with a DETERMINISTIC spec so the whole
    algorithm is SQL-replayable (the classic iterative-algorithm shape):

    - init: the ``k`` vectors with the smallest ids, in id order (found
      via a per-batch partial min-k + driver merge — no sort exchange);
    - ``iters`` full Lloyd iterations; squared-euclidean assignment with
      min-cluster-index ties; empty clusters keep their previous centroid;
    - returns the final per-vector assignment (id, cluster, dist).

    Scale shape: each iteration is ONE streaming stateless-task pass —
    centroids broadcast via ``ray.put``, per-batch partials are k·d rows
    (the combiner), the reduce is a driver sum over k·d cells.  No
    all-to-all anywhere; the corpus is read ``iters``+1 times (at 100 TB
    cache the upcast matrix columnar once and iterate over that)."""
    seed = _smallest_id_rows(ds, k, id_col, [id_col, emb_col], "kmeans_assign")
    # fewer vectors than requested clusters: every vector seeds its own
    # centroid
    cent = _lloyd(ds, _as_matrix(seed.column(emb_col))[None], iters, emb_col)[0]
    out = ds.map_batches(
        _kmeans_out,
        fn_kwargs={"cent_ref": ray.put(cent), "id_col": id_col, "emb_col": emb_col},
        batch_format="pyarrow",
    )
    if return_centroids:
        return out, cent
    return out


def pq_train(
    ds: Dataset,
    m_sub: int = 4,
    ksub: int = 16,
    iters: int = 2,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> np.ndarray:
    """Product-quantization codebooks (Jégou et al., TPAMI 2011): the
    embedding splits into ``m_sub`` contiguous subspaces and each trains
    its own ``ksub``-centroid Lloyd k-means — ALL subspaces in the SAME
    streaming pass per iteration (partials are (sub, cl, sdim) cells,
    m·k·dsub = k·d doubles per block, combined on the driver).

    Deterministic spec, SQL-replayable end-to-end: init = the ``ksub``
    smallest-id vectors' sub-slices (the :func:`kmeans_assign` seed);
    squared-L2 assignment with first-min (smallest cluster index) ties;
    empty clusters keep their previous centroid.  Returns (m_sub, ksub,
    dsub) codebooks."""
    x = _as_matrix(_smallest_id_rows(ds, ksub, id_col, [id_col, emb_col], "pq").column(emb_col))
    if x.shape[1] % m_sub:
        raise ValueError(f"pq: dim {x.shape[1]} not divisible by m_sub={m_sub}")
    dsub = x.shape[1] // m_sub
    # (ksub, m_sub, dsub) -> (m_sub, ksub, dsub)
    cbs = np.ascontiguousarray(x.reshape(x.shape[0], m_sub, dsub).transpose(1, 0, 2))
    return _lloyd(ds, cbs, iters, emb_col)


def pq_adc_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    m_sub: int = 4,
    ksub: int = 16,
    iters: int = 2,
    oversample: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Two-phase PQ kNN — the canonical 100-TB vector-serving shape
    (IVF-PQ's PQ half on a flat scan): train codebooks with
    :func:`pq_train`, then ONE streaming pass encodes each block's vectors
    to codes and scores them against the queries' per-centroid
    asymmetric-distance LUTs (||q_sub − c||², m·k cells per query,
    broadcast once) — the block never materializes float distances per
    dim, just an m-way LUT gather.  Phase 1 keeps the global top
    ``k·oversample`` per query by (adist asc, vec_id); phase 2 re-ranks
    them with the exact float L2.

    Returns (query_idx, rank, vec_id, adist, dist), rank ≤ k by
    (exact dist asc, vec_id)."""
    cbs = pq_train(ds, m_sub, ksub, iters, id_col, emb_col)
    Q = np.asarray(queries, dtype=np.float64)
    return _rescore_topk(ds, Q, _adc_scores, (cbs, _pq_lut(Q, cbs)), k, oversample, emb_col, id_col, l2=True)


def _moments(batch: pa.Table, emb_col: str) -> pa.Table:
    """(n, Σx, ΣxxT) of one batch as one (i, j, v, cnt, d) table: d² rows
    of the Gram matrix plus d rows with j == -1 carrying Σx at dim i and
    the count in cnt.  Every row carries the embedding dim d, so the
    driver needs no look at the data first; an empty batch emits no
    rows."""
    x = _as_matrix(batch.column(emb_col))
    d = x.shape[1]
    i = np.concatenate([np.repeat(np.arange(d, dtype=np.int64), d), np.arange(d, dtype=np.int64)])
    j = np.concatenate([np.tile(np.arange(d, dtype=np.int64), d), np.full(d, -1, dtype=np.int64)])
    vals = np.concatenate([(x.T @ x).ravel(), x.sum(axis=0)])
    cnt = np.concatenate([np.zeros(d * d, dtype=np.int64), np.full(d, x.shape[0], dtype=np.int64)])
    return pa.table(
        {"i": pa.array(i), "j": pa.array(j), "v": pa.array(vals), "cnt": pa.array(cnt), "d": pa.array(np.full(i.size, d))}
    )


def _project(batch: pa.Table, mv_ref, id_col: str, emb_col: str) -> pa.Table:
    mean, v = cached_ref(mv_ref)
    x = _as_matrix(batch.column(emb_col))
    pc1 = (x - mean) @ v if x.size else np.zeros(0, dtype=np.float64)
    return pa.table({id_col: batch.column(id_col), "pc1": pa.array(pc1)})


def pca_power_project(
    ds: Dataset,
    iters: int = 3,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """First principal component by power iteration over the scatter
    matrix, fully distributed and SQL-replayable:

    - ONE streaming pass accumulates the d×d Gram partials (n, Σx, ΣxxT —
      d² doubles per block, the moment-combiner shape), so the scatter
      matrix C = ΣxxT − n·mmT never touches a second corpus read;
    - ``iters`` power iterations on the TINY d×d driver matrix from
      v0 = 1/√d (deterministic — both sides replay the same 3 steps, so
      convergence is irrelevant to the contract);
    - sign fixed by Σv > 0 (a ``ValueError`` when |Σv| <= 1e-6, where fp
      could flip it);
    - a second streaming pass projects each centered vector onto v.

    Returns (vec_id, pc1) — the embedding-whitening / curation axis a
    training-data pipeline derives before stratifying by content spread;
    an empty dataset gives an empty frame."""
    G = sx = None
    n = 0
    for b in ds.map_batches(_moments, fn_kwargs={"emb_col": emb_col}, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        if not b.num_rows:
            continue
        if G is None:
            d = int(b.column("d")[0].as_py())
            G, sx = np.zeros((d, d), dtype=np.float64), np.zeros(d, dtype=np.float64)
        bi, bj, bv = (b.column(c).to_numpy(zero_copy_only=False) for c in ("i", "j", "v"))
        mk = bj >= 0
        np.add.at(G, (bi[mk], bj[mk]), bv[mk])
        np.add.at(sx, bi[~mk], bv[~mk])
        n += int(b.column("cnt").to_numpy(zero_copy_only=False)[~mk & (bi == 0)].sum())
    if n == 0:
        return _empty(vec_id=np.int64, pc1=np.float64)
    mean = sx / n
    C = G - n * np.outer(mean, mean)
    v = np.full(d, 1.0 / math.sqrt(d), dtype=np.float64)
    for _ in range(iters):
        w = C @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0:
            break
        v = w / nrm
    s = float(v.sum())
    if not abs(s) > 1e-6:
        raise ValueError(f"pca_power_project: sign rule degenerate (Σv = {s:.3g} ≈ 0)")
    if s < 0:
        v = -v
    out = ds.map_batches(
        _project,
        fn_kwargs={"mv_ref": ray.put((mean, v)), "id_col": id_col, "emb_col": emb_col},
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values(id_col, ignore_index=True)


def ivfpq_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_clusters: int = 4,
    coarse_iters: int = 3,
    nprobe: int = 2,
    m_sub: int = 4,
    ksub: int = 16,
    iters: int = 2,
    oversample: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """IVF-PQ: the coarse quantizer (the :func:`kmeans_assign` deterministic
    Lloyd spec) prunes the scan to ``nprobe`` probed clusters per query and
    the PQ/ADC LUT scores the survivors — the trillion-vector serving
    layout (coarse directory pruning × m·log₂k-bit codes).  Codebooks are
    GLOBAL (raw vectors, not residuals) so the whole algorithm stays
    SQL-replayable with the two already-proven unrollings composed.

    ONE candidate pass per query set: each block re-derives its vectors'
    coarse assignment from the broadcast centroids (the SemDeDup pattern —
    no assignment join), masks vectors outside the query's probe list, and
    ADC-scores the rest.  Phase 2 rescores the top ``k·oversample`` with
    the exact float L2.  Returns (query_idx, rank, vec_id, adist, dist)."""
    _, coarse_cent = kmeans_assign(
        ds, k=n_clusters, iters=coarse_iters, id_col=id_col, emb_col=emb_col, return_centroids=True
    )
    cbs = pq_train(ds, m_sub, ksub, iters, id_col, emb_col)
    Q = np.asarray(queries, dtype=np.float64)
    # probe list per query: nprobe nearest coarse centroids, (dist, cl) ties
    probes = np.empty((Q.shape[0], nprobe), dtype=np.int64)
    for qi in range(Q.shape[0]):
        dd = np.sum((coarse_cent - Q[qi]) ** 2, axis=1)
        probes[qi] = np.lexsort((np.arange(dd.size), dd))[:nprobe]
    state = (coarse_cent, cbs, _pq_lut(Q, cbs), probes)
    return _rescore_topk(ds, Q, _ivfpq_scores, state, k, oversample, emb_col, id_col, l2=True)
