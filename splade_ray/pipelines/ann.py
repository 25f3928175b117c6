"""Similarity search over an embedding column (``list<float>``).

Two paths per the build brief:

- **brute-force cosine top-k** (the exactness baseline): the query matrix is
  broadcast once (``ray.put``), each ``map_batches`` task does one
  numpy matmul against its batch and emits its per-batch partial top-k per
  query; a final ``groupby(query).map_groups`` merges partials.  Shuffle
  volume is O(num_queries · k · num_batches), never the corpus.
- **IVF (inverted-file) top-k** (the scale path): k-means centroids fitted
  on a driver-side sample, vectors assigned to their nearest centroid in
  ``map_batches``; a query probes only the ``nprobe`` nearest lists.  Same
  partial-top-k merge.  Exactness: IVF recall vs brute force is measured in
  tests, not assumed.

Tie-break everywhere: ``(-score, id)`` — deterministic like the BM25 path.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset


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


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


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


def _merge_topk(g: pd.DataFrame, k: int) -> pd.DataFrame:
    g = g.sort_values(["score", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
    g = g.reset_index(drop=True)
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g


def _merge_topk_r9(g: pd.DataFrame, k: int) -> pd.DataFrame:
    """Candidate-cut merge on ROUND-9 scores (the colbert_maxsim_topk
    convention): the SQL oracles cut with ``round(score, 9) DESC, vec_id``,
    so a raw-float cut could resolve a last-ulp near-tie at the boundary
    differently than DuckDB.  Used by the two-phase rescore families whose
    coarse scores are real-valued (MRL prefix cosine)."""
    g = g.assign(_rk=g["score"].round(9))
    g = g.sort_values(["_rk", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
    g = g.drop(columns="_rk").reset_index(drop=True)
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g


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
    q_ref = ray.put(Q)

    def score_batch(batch: pa.Table) -> pa.Table:
        Qm = ray.get(q_ref)
        emb = _normalize(_as_matrix(batch.column(emb_col)))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = emb @ Qm.T  # (n, q)
        kk = min(k, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(Qm.shape[0]):
            col = sims[:, qi]
            part = _boundary_safe_topk(col, kk)
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[part])
            out_s.append(col[part])
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    merged = partials.groupby("query_idx").map_groups(lambda g: _merge_topk(g, k), batch_format="pandas")
    out = merged.to_pandas().sort_values(["query_idx", "rank"], ignore_index=True)
    return out[["query_idx", "rank", "vec_id", "score"]]


def _int8_quantize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector symmetric int8 quantization: scale s = maxabs/127 (1.0 for
    an all-zero vector), q = floor(x·127/maxabs + 0.5) — round-half-up so the
    SQL oracle's ``floor(x + 0.5)`` replays it bit-for-bit (numpy's banker's
    ``np.round`` would not)."""
    mx = np.abs(m).max(axis=1)
    mx[mx == 0] = 1.0
    q = np.floor(m * (127.0 / mx[:, None]) + 0.5)
    return q, mx


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
    ``k·oversample`` candidates per query; phase 2 fetches ONLY those
    candidate vectors (one broadcast-id filtered scan, k-bounded) and
    re-ranks them with the exact float cosine.

    Approximate cosine of query q and doc d:
    ``(Qq·Dq) · (qmax/127) · (dmax/127) / (‖q‖·‖d‖)`` with Qq, Dq the
    round-half-up int8 codes — every arithmetic step is SQL-replayable, so
    the oracle reproduces both the candidate sets and the final ranking.

    Scale shape: phase 1 ships O(queries · k·oversample) rows per block and
    nothing else; phase 2's gather is bounded by the candidate-set size.
    Returns (query_idx, rank, vec_id, coarse, score) rows, rank ≤ k by
    (-exact, vec_id) over the candidates.
    """
    Q = np.asarray(queries, dtype=np.float64)
    Qq, qmx = _int8_quantize(Q)
    qnorm = np.sqrt((Q * Q).sum(axis=1))
    qnorm[qnorm == 0] = 1.0
    q_ref = ray.put((Qq, qmx, qnorm))
    kk_c = k * oversample

    def coarse_batch(batch: pa.Table) -> pa.Table:
        Qqm, qmxv, qnv = ray.get(q_ref)
        emb = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        Dq, dmx = _int8_quantize(emb)
        dnorm = np.sqrt((emb * emb).sum(axis=1))
        dnorm[dnorm == 0] = 1.0
        dots = Dq @ Qqm.T  # exact: int-valued floats < 2^53
        # association mirrors the SQL oracle: ((dot·qs)·ds)/(qn·dn)
        sims = ((dots * (qmxv / 127.0)[None, :]) * (dmx / 127.0)[:, None]) / (
            qnv[None, :] * dnorm[:, None]
        )
        kk = min(kk_c, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(Qqm.shape[0]):
            col = sims[:, qi]
            part = _boundary_safe_topk(col, kk)
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[part])
            out_s.append(col[part])
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(coarse_batch, batch_format="pyarrow", batch_size=4096)
    cand = (
        partials.groupby("query_idx")
        .map_groups(lambda g: _merge_topk_r9(g, kk_c), batch_format="pandas")
        .to_pandas()
    )
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    ids_ref = ray.put(cand_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(want, ids)
        pos = np.minimum(pos, max(want.size - 1, 0))
        hit = (want[pos] == ids) if want.size else np.zeros(ids.size, bool)
        return batch.filter(pa.array(hit)).select([id_col, emb_col])

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    by_id = dict(zip(got[id_col].to_numpy(), got[emb_col].to_numpy()))
    E = np.stack([np.asarray(by_id[v], dtype=np.float64) for v in cand["vec_id"]])
    enorm = np.sqrt((E * E).sum(axis=1))
    enorm[enorm == 0] = 1.0
    qi = cand["query_idx"].to_numpy()
    exact = (E * Q[qi]).sum(axis=1) / (qnorm[qi] * enorm)
    cand = cand.assign(exact=exact)
    out = []
    cand = cand.assign(_rk=cand["exact"].round(9))  # oracle ranks on round(score, 9)
    for g_qi, g in cand.groupby("query_idx", sort=True):
        g = g.sort_values(["_rk", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_idx": np.full(len(g), g_qi, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(),
                    "coarse": g["score"].to_numpy(),
                    "score": g["exact"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


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
    phase 2 fetches ONLY those candidates (one broadcast-id filtered scan)
    and re-ranks with the exact float cosine.

    The coarse score is a small integer, so ties are pervasive — the
    boundary-safe partial top-k plus the (−score, vec_id) merge make the
    candidate cut globally deterministic, and the sign arithmetic replays
    exactly in SQL (±1 inner product).  At the 1-bit design point the
    corpus-side codes are 64× smaller than f32: the coarse pass streams
    packed bitplanes, only candidate vectors' floats are ever re-read.

    Returns (query_idx, rank, vec_id, coarse, score) rows, rank ≤ k by
    (−exact, vec_id) over the candidates — same shape as
    :func:`quantized_rescore_topk`.
    """
    Q = np.asarray(queries, dtype=np.float64)
    Qs = np.where(Q > 0, 1.0, -1.0)
    qnorm = np.sqrt((Q * Q).sum(axis=1))
    qnorm[qnorm == 0] = 1.0
    q_ref = ray.put(Qs)
    kk_c = k * oversample

    def coarse_batch(batch: pa.Table) -> pa.Table:
        Qsm = ray.get(q_ref)
        emb = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        Ds = np.where(emb > 0, 1.0, -1.0)
        dim = emb.shape[1] if emb.size else Qsm.shape[1]
        agree = (dim + Ds @ Qsm.T) / 2.0  # integer-valued floats
        kk = min(kk_c, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(Qsm.shape[0]):
            col = agree[:, qi]
            part = _boundary_safe_topk(col, kk)
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[part])
            out_s.append(col[part])
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(coarse_batch, batch_format="pyarrow", batch_size=4096)
    cand = (
        partials.groupby("query_idx")
        .map_groups(lambda g: _merge_topk_r9(g, kk_c), batch_format="pandas")
        .to_pandas()
    )
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    ids_ref = ray.put(cand_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(want, ids)
        pos = np.minimum(pos, max(want.size - 1, 0))
        hit = (want[pos] == ids) if want.size else np.zeros(ids.size, bool)
        return batch.filter(pa.array(hit)).select([id_col, emb_col])

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    by_id = dict(zip(got[id_col].to_numpy(), got[emb_col].to_numpy()))
    E = np.stack([np.asarray(by_id[v], dtype=np.float64) for v in cand["vec_id"]])
    enorm = np.sqrt((E * E).sum(axis=1))
    enorm[enorm == 0] = 1.0
    qi = cand["query_idx"].to_numpy()
    exact = (E * Q[qi]).sum(axis=1) / (qnorm[qi] * enorm)
    cand = cand.assign(exact=exact)
    out = []
    cand = cand.assign(_rk=cand["exact"].round(9))  # oracle ranks on round(score, 9)
    for g_qi, g in cand.groupby("query_idx", sort=True):
        g = g.sort_values(["_rk", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_idx": np.full(len(g), g_qi, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(),
                    "coarse": g["score"].to_numpy(),
                    "score": g["exact"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


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
    phase 2 fetches only those candidates and re-ranks with the
    full-dimension cosine.  Same boundary-safe partial/merge discipline as
    :func:`quantized_rescore_topk`; at scale the hot scan touches
    ``coarse_dims/dim`` of the bytes.  Returns (query_idx, rank, vec_id,
    coarse, score)."""
    Q = np.asarray(queries, dtype=np.float64)
    Qc = Q[:, :coarse_dims]
    qcn = np.linalg.norm(Qc, axis=1)
    qcn[qcn == 0] = 1.0
    qnorm = np.linalg.norm(Q, axis=1)
    qnorm[qnorm == 0] = 1.0
    q_ref = ray.put((Qc, qcn))
    kk_c = k * oversample

    def coarse_batch(batch: pa.Table) -> pa.Table:
        Qcm, qcv = ray.get(q_ref)
        emb = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if emb.size == 0:
            return _partial_topk_table(np.zeros(0), np.zeros(0), np.zeros(0))
        Ec = emb[:, :coarse_dims]
        en = np.linalg.norm(Ec, axis=1)
        en[en == 0] = 1.0
        sims = (Ec @ Qcm.T) / (en[:, None] * qcv[None, :])
        kk = min(kk_c, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(Qcm.shape[0]):
            col = sims[:, qi]
            part = _boundary_safe_topk(col, kk)
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[part])
            out_s.append(col[part])
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(coarse_batch, batch_format="pyarrow", batch_size=4096)
    cand = (
        partials.groupby("query_idx")
        .map_groups(lambda g: _merge_topk_r9(g, kk_c), batch_format="pandas")
        .to_pandas()
    )
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    ids_ref = ray.put(cand_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(want, ids)
        pos = np.minimum(pos, max(want.size - 1, 0))
        hit = (want[pos] == ids) if want.size else np.zeros(ids.size, bool)
        return batch.filter(pa.array(hit)).select([id_col, emb_col])

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    by_id = dict(zip(got[id_col].to_numpy(), got[emb_col].to_numpy()))
    E = np.stack([np.asarray(by_id[v], dtype=np.float64) for v in cand["vec_id"]])
    enorm = np.linalg.norm(E, axis=1)
    enorm[enorm == 0] = 1.0
    qi = cand["query_idx"].to_numpy()
    exact = (E * Q[qi]).sum(axis=1) / (qnorm[qi] * enorm)
    cand = cand.assign(exact=exact)
    out = []
    cand = cand.assign(_rk=cand["exact"].round(9))  # oracle ranks on round(score, 9)
    for g_qi, g in cand.groupby("query_idx", sort=True):
        g = g.sort_values(["_rk", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_idx": np.full(len(g), g_qi, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(),
                    "coarse": g["score"].to_numpy(),
                    "score": g["exact"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


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
        c_ref = ray.put(self.centroids)
        emb_col, id_col = self.emb_col, self.id_col

        def assign(batch: pa.Table) -> pa.Table:
            C = ray.get(c_ref)
            emb = _normalize(_as_matrix(batch.column(emb_col)))
            cl = np.argmax(emb @ C.T, axis=1).astype(np.int32)
            return batch.append_column("cluster", pa.array(cl))

        self.assigned = ds.map_batches(assign, batch_format="pyarrow").materialize()
        return self

    def save(self, out_dir: str) -> dict:
        """Persist the index as the SCALE layout: one parquet partition
        directory per cluster (``lists/cluster=N/``) plus a centroid
        table.  At query time probe pruning becomes DIRECTORY pruning —
        only the ``nprobe`` probed lists' files are ever opened, which is
        the IVF contract at 100 TB (non-probed lists cost zero IO)."""
        assert self.centroids is not None and self.assigned is not None, "call fit_assign first"
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
            probe_set = pa.array(probe_list, type=pa.int32())
            return self.assigned.map_batches(
                lambda b: b.filter(pa.compute.is_in(b.column("cluster"), value_set=probe_set)),
                batch_format="pyarrow",
            )
        import os

        import ray.data as rd

        def tag(c: int):
            # read_parquet may already recover the hive partition value
            # (sometimes as a string) — normalize to one int32 column
            def _tag(b: pa.Table) -> pa.Table:
                if "cluster" in b.column_names:
                    b = b.drop_columns(["cluster"])
                return b.append_column("cluster", pa.array(np.full(b.num_rows, c, dtype=np.int32)))

            return _tag

        parts = []
        for c in probe_list:
            d = os.path.join(self.lists_dir, f"cluster={c}")
            if os.path.isdir(d):
                parts.append(rd.read_parquet(d).map_batches(tag(c), batch_format="pyarrow"))
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
        assert self.centroids is not None, "call fit_assign or load first"
        assert self.assigned is not None or getattr(self, "lists_dir", None), "call fit_assign or load first"
        Q = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(Q @ self.centroids.T), axis=1)[:, : self.nprobe]
        subset = self._probed_subset(sorted({int(c) for c in probe.reshape(-1)}))
        # per-query restriction to its own probe list happens in the scorer
        probe_ref = ray.put(probe)
        q_ref = ray.put(Q)
        emb_col, id_col = self.emb_col, self.id_col

        def score_batch(batch: pa.Table) -> pa.Table:
            if filter_expr is not None:
                batch = batch.filter(filter_expr(batch))
            if batch.num_rows == 0:
                return _partial_topk_table(np.zeros(0), np.zeros(0), np.zeros(0))
            Qm, Pr = ray.get(q_ref), ray.get(probe_ref)
            emb = _normalize(_as_matrix(batch.column(emb_col)))
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            cl = batch.column("cluster").to_numpy(zero_copy_only=False)
            sims = emb @ Qm.T
            out_q, out_i, out_s = [], [], []
            for qi in range(Qm.shape[0]):
                mask = np.isin(cl, Pr[qi])
                if not mask.any():
                    continue
                col = sims[mask, qi]
                sel_ids = ids[mask]
                part = _boundary_safe_topk(col, min(k, col.size))
                out_q.append(np.full(part.size, qi))
                out_i.append(sel_ids[part])
                out_s.append(col[part])
            if not out_q:
                return _partial_topk_table(np.zeros(0), np.zeros(0), np.zeros(0))
            return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

        partials = subset.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
        merged = partials.groupby("query_idx").map_groups(lambda g: _merge_topk(g, k), batch_format="pandas")
        out = merged.to_pandas().sort_values(["query_idx", "rank"], ignore_index=True)
        return out[["query_idx", "rank", "vec_id", "score"]]


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


def _kmeans_batch(batch: pa.Table, cent_ref, emit: str, id_col: str, emb_col: str) -> pa.Table:
    """One Lloyd half-step as a stateless TASK (no actor-pool startup):
    fit mode emits the per-batch (cluster, dim) partial sums + counts
    (≤ k·d rows per batch), output mode the per-vector assignments."""
    cent = ray.get(cent_ref) if not isinstance(cent_ref, np.ndarray) else cent_ref
    if batch.num_rows == 0:
        if emit == "fit":
            return pa.table({"cl": pa.array([], type=pa.int64()), "dim": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64()), "cnt": pa.array([], type=pa.int64())})
        return pa.table({id_col: pa.array([], type=pa.int64()), "cluster": pa.array([], type=pa.int64()),
                         "dist": pa.array([], type=pa.float64())})
    x = _as_matrix(batch.column(emb_col))
    assign, best = _kmeans_dists(x, cent)
    if emit == "fit":
        k, d = cent.shape
        sums = np.zeros((k, d), dtype=np.float64)
        np.add.at(sums, assign, x)
        cnt = np.bincount(assign, minlength=k).astype(np.int64)
        return pa.table(
            {
                "cl": pa.array(np.repeat(np.arange(k, dtype=np.int64), d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), k)),
                "s": pa.array(sums.ravel()),
                "cnt": pa.array(np.repeat(cnt, d)),
            }
        )
    return pa.table(
        {
            id_col: batch.column(id_col),
            "cluster": pa.array(assign.astype(np.int64)),
            "dist": pa.array(best),
        }
    )


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

    def min_k(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch.select([id_col, emb_col])
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        take = np.argsort(ids, kind="stable")[:k]
        return batch.select([id_col, emb_col]).take(pa.array(take))

    seed_tabs = [
        b for b in ds.map_batches(min_k, batch_format="pyarrow").iter_batches(batch_format="pyarrow") if b.num_rows
    ]
    if not seed_tabs:
        raise ValueError("kmeans_assign: dataset has no vectors")
    seed = pa.concat_tables(seed_tabs)
    order = np.argsort(seed.column(id_col).to_numpy(zero_copy_only=False), kind="stable")[:k]
    cent = _as_matrix(seed.column(emb_col).take(pa.array(order)))
    # fewer vectors than requested clusters: every vector seeds its own
    # centroid — clamp k so the combiner/reduce arrays match cent's shape
    k = cent.shape[0]
    for _ in range(iters):
        ref = ray.put(cent)
        sums = np.zeros_like(cent)
        cnt = np.zeros(k, dtype=np.int64)
        for b in ds.map_batches(
            _kmeans_batch,
            fn_kwargs={"cent_ref": ref, "emit": "fit", "id_col": id_col, "emb_col": emb_col},
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                cl = b.column("cl").to_numpy(zero_copy_only=False)
                dim = b.column("dim").to_numpy(zero_copy_only=False)
                np.add.at(sums, (cl, dim), b.column("s").to_numpy(zero_copy_only=False))
                first = dim == 0
                np.add.at(cnt, cl[first], b.column("cnt").to_numpy(zero_copy_only=False)[first])
        nz = cnt > 0
        cent = np.where(nz[:, None], sums / np.maximum(cnt, 1)[:, None], cent)
    ref = ray.put(cent)
    out = ds.map_batches(
        _kmeans_batch,
        fn_kwargs={"cent_ref": ref, "emit": "out", "id_col": id_col, "emb_col": emb_col},
        batch_format="pyarrow",
    )
    if return_centroids:
        return out, cent
    return out


def _pq_seed_codebooks(
    ds: Dataset, ksub: int, m_sub: int, id_col: str, emb_col: str
) -> np.ndarray:
    """Deterministic PQ init: the ``ksub`` smallest-id vectors, sliced into
    the ``m_sub`` contiguous subspaces (the same smallest-id convention as
    :func:`kmeans_assign`, so the SQL oracle seeds identically).  Returns
    (m_sub, ksub, dsub)."""

    def min_k(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= ksub:
            return batch.select([id_col, emb_col])
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        take = np.argsort(ids, kind="stable")[:ksub]
        return batch.select([id_col, emb_col]).take(pa.array(take))

    seed_tabs = [
        b
        for b in ds.map_batches(min_k, batch_format="pyarrow").iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not seed_tabs:
        raise ValueError("pq: dataset has no vectors")
    seed = pa.concat_tables(seed_tabs)
    order = np.argsort(seed.column(id_col).to_numpy(zero_copy_only=False), kind="stable")[:ksub]
    x = _as_matrix(seed.column(emb_col).take(pa.array(order)))
    if x.shape[1] % m_sub:
        raise ValueError(f"pq: dim {x.shape[1]} not divisible by m_sub={m_sub}")
    dsub = x.shape[1] // m_sub
    # (ksub, m_sub, dsub) -> (m_sub, ksub, dsub)
    return np.ascontiguousarray(x.reshape(x.shape[0], m_sub, dsub).transpose(1, 0, 2))


def _pq_fit_batch(batch: pa.Table, cb_ref, emb_col: str) -> pa.Table:
    """One PQ Lloyd half-step over ALL subspaces in one visit: emits
    (sub, cl, sdim) partial sums + counts — ≤ m·k·dsub = m·k·(d/m) = k·d
    cells per batch regardless of batch size."""
    cbs = ray.get(cb_ref) if not isinstance(cb_ref, np.ndarray) else cb_ref
    m_sub, ksub, dsub = cbs.shape
    if batch.num_rows == 0:
        return pa.table(
            {
                "sub": pa.array([], type=pa.int64()),
                "cl": pa.array([], type=pa.int64()),
                "sdim": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.float64()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
    x = _as_matrix(batch.column(emb_col))
    subs, cls_, sdims, ss, cnts = [], [], [], [], []
    for si in range(m_sub):
        xs = x[:, si * dsub : (si + 1) * dsub]
        assign, _ = _kmeans_dists(xs, cbs[si])
        sums = np.zeros((ksub, dsub), dtype=np.float64)
        np.add.at(sums, assign, xs)
        cnt = np.bincount(assign, minlength=ksub).astype(np.int64)
        subs.append(np.full(ksub * dsub, si, dtype=np.int64))
        cls_.append(np.repeat(np.arange(ksub, dtype=np.int64), dsub))
        sdims.append(np.tile(np.arange(dsub, dtype=np.int64), ksub))
        ss.append(sums.ravel())
        cnts.append(np.repeat(cnt, dsub))
    return pa.table(
        {
            "sub": pa.array(np.concatenate(subs)),
            "cl": pa.array(np.concatenate(cls_)),
            "sdim": pa.array(np.concatenate(sdims)),
            "s": pa.array(np.concatenate(ss)),
            "cnt": pa.array(np.concatenate(cnts)),
        }
    )


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
    smallest-id vectors' sub-slices; squared-L2 assignment with first-min
    (smallest cluster index) ties; empty clusters keep their previous
    centroid.  Returns (m_sub, ksub, dsub) codebooks."""
    cbs = _pq_seed_codebooks(ds, ksub, m_sub, id_col, emb_col)
    m, k_, dsub = cbs.shape
    for _ in range(iters):
        ref = ray.put(cbs)
        sums = np.zeros_like(cbs)
        cnt = np.zeros((m, k_), dtype=np.int64)
        for b in ds.map_batches(
            _pq_fit_batch, fn_kwargs={"cb_ref": ref, "emb_col": emb_col}, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
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
    ``k·oversample`` per query by (adist asc, vec_id); phase 2 fetches
    ONLY those candidates and re-ranks with the exact float L2.

    Returns (query_idx, rank, vec_id, adist, dist), rank ≤ k by
    (-exact-dist asc, vec_id)."""
    cbs = pq_train(ds, m_sub, ksub, iters, id_col, emb_col)
    m, k_, dsub = cbs.shape
    Q = np.asarray(queries, dtype=np.float64)
    # per-query LUT: lut[qi, si, c] = ||q_sub - cbs[si, c]||^2
    diff = Q.reshape(Q.shape[0], m, 1, dsub) - cbs[None, :, :, :]
    lut = np.sum(diff * diff, axis=3)  # (nq, m, ksub)
    state_ref = ray.put((cbs, lut))
    kk_c = k * oversample

    def adc_batch(batch: pa.Table) -> pa.Table:
        cb, lt = ray.get(state_ref)
        mm, kk_, ds_ = cb.shape
        x = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        codes = np.empty((x.shape[0], mm), dtype=np.int64)
        for si in range(mm):
            codes[:, si], _ = _kmeans_dists(x[:, si * ds_ : (si + 1) * ds_], cb[si])
        nq = lt.shape[0]
        out_q, out_i, out_s = [], [], []
        for qi in range(nq):
            # adist accumulates subspace-by-subspace (the SQL sum order is
            # per-vector over sub — same-code vectors tie exactly either way)
            adist = np.zeros(x.shape[0], dtype=np.float64)
            for si in range(mm):
                adist += lt[qi, si, codes[:, si]]
            part = _boundary_safe_topk(-adist, min(kk_c, ids.size))
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[part])
            out_s.append(-adist[part])  # negate: merge helpers rank DESC
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(adc_batch, batch_format="pyarrow", batch_size=4096)
    cand = (
        partials.groupby("query_idx")
        .map_groups(lambda g: _merge_topk_r9(g, kk_c), batch_format="pandas")
        .to_pandas()
    )
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    ids_ref = ray.put(cand_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(want, ids)
        pos = np.minimum(pos, max(want.size - 1, 0))
        hit = (want[pos] == ids) if want.size else np.zeros(ids.size, bool)
        return batch.filter(pa.array(hit)).select([id_col, emb_col])

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    by_id = dict(zip(got[id_col].to_numpy(), got[emb_col].to_numpy()))
    E = np.stack([np.asarray(by_id[v], dtype=np.float64) for v in cand["vec_id"]])
    qi = cand["query_idx"].to_numpy()
    dif = E - Q[qi]
    exact = np.sum(dif * dif, axis=1)
    cand = cand.assign(adist=-cand["score"].to_numpy(), dist=exact)
    out = []
    for g_qi, g in cand.groupby("query_idx", sort=True):
        g = g.assign(_rk=g["dist"].round(9)).sort_values(["_rk", "vec_id"], ascending=[True, True], kind="mergesort").head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_idx": np.full(len(g), g_qi, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(),
                    "adist": g["adist"].to_numpy(),
                    "dist": g["dist"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


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
    - sign fixed by Σv > 0 (asserted away from 0 so fp can't flip it);
    - a second streaming pass projects each centered vector onto v.

    Returns (vec_id, pc1) — the embedding-whitening / curation axis a
    training-data pipeline derives before stratifying by content spread."""
    first = ds.take_batch(1, batch_format="pyarrow")
    d = len(first[emb_col][0])

    # (n, Σx, ΣxxT) ride one partial table: d rows of (dim, sx, n) plus
    # d² rows of (i, j, g) would need two shapes — pack both as (i, j):
    # j == -1 rows carry Σx at dim i and the count in g2.
    def moments(batch: pa.Table) -> pa.Table:
        x = _as_matrix(batch.column(emb_col))
        if x.size == 0:
            x = np.zeros((0, d), dtype=np.float64)
        g = x.T @ x
        i = np.concatenate([np.repeat(np.arange(d, dtype=np.int64), d), np.arange(d, dtype=np.int64)])
        j = np.concatenate([np.tile(np.arange(d, dtype=np.int64), d), np.full(d, -1, dtype=np.int64)])
        vals = np.concatenate([g.ravel(), x.sum(axis=0)])
        cnt = np.concatenate([np.zeros(d * d, dtype=np.int64), np.full(d, x.shape[0], dtype=np.int64)])
        return pa.table({"i": pa.array(i), "j": pa.array(j), "v": pa.array(vals), "cnt": pa.array(cnt)})

    G = np.zeros((d, d), dtype=np.float64)
    sx = np.zeros(d, dtype=np.float64)
    n = 0
    for b in ds.map_batches(moments, batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        bi = b.column("i").to_numpy(zero_copy_only=False)
        bj = b.column("j").to_numpy(zero_copy_only=False)
        bv = b.column("v").to_numpy(zero_copy_only=False)
        mk = bj >= 0
        np.add.at(G, (bi[mk], bj[mk]), bv[mk])
        np.add.at(sx, bi[~mk], bv[~mk])
        zero = ~mk & (bi == 0)
        n += int(b.column("cnt").to_numpy(zero_copy_only=False)[zero].sum())
    if n == 0:
        return pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64), "pc1": pd.Series([], dtype=np.float64)})
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
    assert abs(s) > 1e-6, "pca sign rule degenerate (Σv ≈ 0) — pick another convention"
    if s < 0:
        v = -v
    mv_ref = ray.put((mean, v))

    def project(batch: pa.Table) -> pa.Table:
        mn, vv = ray.get(mv_ref)
        x = _as_matrix(batch.column(emb_col))
        pc1 = (x - mn) @ vv if x.size else np.zeros(0, dtype=np.float64)
        return pa.table({id_col: batch.column(id_col), "pc1": pa.array(pc1)})

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
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
    m, k_, dsub = cbs.shape
    Q = np.asarray(queries, dtype=np.float64)
    # probe list per query: nprobe nearest coarse centroids, (dist, cl) ties
    probes = np.empty((Q.shape[0], nprobe), dtype=np.int64)
    for qi in range(Q.shape[0]):
        dd = np.sum((coarse_cent - Q[qi]) ** 2, axis=1)
        probes[qi] = np.lexsort((np.arange(dd.size), dd))[:nprobe]
    diff = Q.reshape(Q.shape[0], m, 1, dsub) - cbs[None, :, :, :]
    lut = np.sum(diff * diff, axis=3)
    state_ref = ray.put((coarse_cent, cbs, lut, probes))
    kk_c = k * oversample

    def adc_probed(batch: pa.Table) -> pa.Table:
        cc, cb, lt, pr = ray.get(state_ref)
        mm, kk_, ds_ = cb.shape
        x = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        coarse, _ = _kmeans_dists(x, cc)
        codes = np.empty((x.shape[0], mm), dtype=np.int64)
        for si in range(mm):
            codes[:, si], _ = _kmeans_dists(x[:, si * ds_ : (si + 1) * ds_], cb[si])
        out_q, out_i, out_s = [], [], []
        for qi in range(lt.shape[0]):
            mask = np.isin(coarse, pr[qi])
            if not mask.any():
                continue
            adist = np.zeros(int(mask.sum()), dtype=np.float64)
            csel = codes[mask]
            for si in range(mm):
                adist += lt[qi, si, csel[:, si]]
            part = _boundary_safe_topk(-adist, min(kk_c, adist.size))
            out_q.append(np.full(part.size, qi))
            out_i.append(ids[mask][part])
            out_s.append(-adist[part])
        if not out_q:
            return _partial_topk_table(
                np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.float64)
            )
        return _partial_topk_table(np.concatenate(out_q), np.concatenate(out_i), np.concatenate(out_s))

    partials = ds.map_batches(adc_probed, batch_format="pyarrow", batch_size=4096)
    cand = (
        partials.groupby("query_idx")
        .map_groups(lambda g: _merge_topk_r9(g, kk_c), batch_format="pandas")
        .to_pandas()
    )
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    ids_ref = ray.put(cand_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(want, ids)
        pos = np.minimum(pos, max(want.size - 1, 0))
        hit = (want[pos] == ids) if want.size else np.zeros(ids.size, bool)
        return batch.filter(pa.array(hit)).select([id_col, emb_col])

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    by_id = dict(zip(got[id_col].to_numpy(), got[emb_col].to_numpy()))
    E = np.stack([np.asarray(by_id[v], dtype=np.float64) for v in cand["vec_id"]])
    qi = cand["query_idx"].to_numpy()
    dif = E - Q[qi]
    exact = np.sum(dif * dif, axis=1)
    cand = cand.assign(adist=-cand["score"].to_numpy(), dist=exact)
    out = []
    for g_qi, g in cand.groupby("query_idx", sort=True):
        g = g.assign(_rk=g["dist"].round(9)).sort_values(["_rk", "vec_id"], ascending=[True, True], kind="mergesort").head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_idx": np.full(len(g), g_qi, dtype=np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"].to_numpy(),
                    "adist": g["adist"].to_numpy(),
                    "dist": g["dist"].to_numpy(),
                }
            )
        )
    return pd.concat(out, ignore_index=True)
