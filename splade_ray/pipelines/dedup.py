"""Deduplication family over document tables (training-data pipeline ops).

Not present in the reference (its only set-ops are tiny in-memory dedups,
SURVEY.md §2.7); these are the web-scale operators a Common-Crawl pipeline
needs, each expressed Ray-Data-first:

- exact: content-hash bucket exchange + per-distinct-text min id
  (:func:`_elect_min_id`);
- MinHash + LSH, SimHash and hyperplane embedding LSH: one near-dup pair
  pipeline.  Each family computes per-doc band keys; :func:`_band_rows`
  explodes them to (band_id, band_hash, id, payload) rows, the rows
  exchange on coarse band buckets (:func:`_band_bucket`), and one
  collision emitter (:func:`_collision_pairs`) yields the candidate pairs
  of every multi-row segment.  The families differ only in the verify:
  exact n-gram Jaccard (MinHash), Hamming distance (SimHash), cosine
  (embedding);
- exact n-gram Jaccard and directional containment: one inverted-shingle
  set-similarity self-join (:func:`_self_join_pairs`, the exact path of
  *Distributed Streaming Set Similarity Join*), with each scorer passing
  only its length prefilter and its per-pair kernel.

Scale notes: every candidate-generation step is a bounded groupby on a
band/bucket key (heavily skewed buckets = exact-dup clusters, bounded by
cluster size, the data's own skew).  The MinHash verify is a co-partitioned
hash join: candidate pairs are semi-joined against the corpus to build a
(doc_id, shingle-set) table for only the referenced docs, then joined back
to the pairs on id_a/id_b and Jaccard-verified with a vectorized
segment-intersection kernel — no driver-side lookup tables, no per-pair
Python loop, so the verify scales with the pair count across the cluster.

Every Ray Data kernel is a module-level function called with
``fn_kwargs``; the two signature stages are constructed task instances.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import Dataset

from ..functions.hashing import hash_strings, hash_tokens_to_u64, shingle_hashes, splitmix64
from ..stages.encode import cached_ref
from ..tokenizer import Tokenizer
from ..util import block_tables, pool_size
from .ann import _as_matrix, _empty, _normalize

# Per-key reduces go through a COARSE bucketed exchange, never a groupby on
# the key itself: Ray finalizes each group with Python-level overhead, and
# pair-, hash- or band-keyed groups are tiny and astronomically many
# (measured 29 s for 850k pairs vs <1 s bucketed at sf0.1).  The bucket
# count only bounds Python calls per task — the shuffle itself is the same
# sort exchange either way.
_PAIR_BUCKETS = 1024

_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
_PAIR_JACCARD_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())])
_PAIR_CONTAINMENT_SCHEMA = pa.schema(
    [("id_a", pa.int64()), ("id_b", pa.int64()), ("inter", pa.int64()), ("c_ab", pa.float64()), ("c_ba", pa.float64())]
)
_PAIR_HAMMING_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("hamming", pa.int64())])
_PAIR_COSINE_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())])
_CLUSTER_SCHEMA = pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("cluster_size", pa.int64())])


def _perm_seeds(k: int) -> np.ndarray:
    return np.arange(1, k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _sorted_pairs(out: pd.DataFrame, empty: pd.DataFrame) -> pd.DataFrame:
    """A pair function's driver frame: one row per (id_a, id_b), sorted;
    ``empty`` (typed) when no pair survived."""
    if out.empty:
        return empty
    return out.drop_duplicates(["id_a", "id_b"], ignore_index=True).sort_values(["id_a", "id_b"], ignore_index=True)


def _member_filter(batch: pa.Table, col: str, sorted_ref, members: bool) -> pa.Table:
    """Keep the rows whose ``col`` value is (``members``) or is not in the
    broadcast sorted array — one vectorized ``searchsorted`` probe."""
    vals = batch.column(col).to_numpy(zero_copy_only=False)
    s = cached_ref(sorted_ref)
    if s.size:
        hit = s[np.minimum(np.searchsorted(s, vals), s.size - 1)] == vals
    else:
        hit = np.zeros(vals.size, bool)
    return batch.filter(pa.array(hit if members else ~hit))


# ---------------------------------------------------------------- exact dedup
def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = hash_strings(batch.column(text_col).to_pylist())
    return batch.append_column("content_hash", pa.array(h.astype(np.int64)))


def _content_bucket(batch: pa.Table, text_col: str = "text", nbuckets: int = _PAIR_BUCKETS) -> pa.Table:
    """``content_hash`` plus its coarse exchange bucket: equal texts always
    share a hash, so they always land in one bucket."""
    batch = add_content_hash(batch, text_col)
    h = batch.column("content_hash").to_numpy(zero_copy_only=False)
    return batch.append_column("dedup_bucket", pa.array((h.astype(np.uint64) % np.uint64(nbuckets)).astype(np.int32)))


def _elect_min_id(g: pd.DataFrame, text_col: str, id_col: str) -> pd.DataFrame:
    """One row per distinct text in the bucket: its min-id holder."""
    return g.sort_values(id_col, kind="mergesort").drop_duplicates(text_col, keep="first")


def _elect_new(g: pd.DataFrame, text_col: str, id_col: str) -> pd.DataFrame:
    """Ids of the bucket's new rows that win the min-id election among the
    new rows whose text no existing (``is_new == 0``) row holds; a bucket
    without ``is_new`` holds new rows only."""
    if "is_new" in g.columns:
        old_texts = g.loc[g["is_new"] == 0, text_col]
        g = g[g["is_new"] == 1]
        if len(old_texts):
            g = g[~g[text_col].isin(old_texts)]
    return _elect_min_id(g, text_col, id_col)[[id_col]]


def _text_dup_pairs(g: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(id_a, id_b) of every two rows of a content bucket with equal text:
    the collision emitter pairs equal hashes, and the text comparison drops
    hash-only collisions."""
    if g.num_rows == 0:
        return _PAIR_SCHEMA.empty_table()
    a, b = _collision_pairs(g, id_col, keys=("content_hash",))
    text = g.column(text_col).to_numpy(zero_copy_only=False)
    same = (text[a] == text[b]) & pd.notna(text[a])
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table({"id_a": pa.array(ids[a][same]), "id_b": pa.array(ids[b][same])})


def exact_dedup(ds: Dataset, text_col: str = "text", id_col: str = "doc_id", nbuckets: int = _PAIR_BUCKETS) -> Dataset:
    """One row per distinct text, keeping the min id.  The exchange is a
    groupby on COARSE hash buckets — never the raw content_hash, whose
    groups are corpus-count and each pay Ray's per-group Python finalize —
    and the per-bucket winner election is one pandas sort+drop_duplicates
    over the whole bucket.  Collision-proof: equal texts always share a
    hash (→ one bucket) while election keys on the text itself."""
    return (
        ds.map_batches(_content_bucket, fn_kwargs={"text_col": text_col, "nbuckets": nbuckets}, batch_format="pyarrow")
        .groupby("dedup_bucket")
        .map_groups(_elect_min_id, fn_kwargs={"text_col": text_col, "id_col": id_col}, batch_format="pandas")
        .drop_columns(["content_hash", "dedup_bucket"])
    )


# ------------------------------------------------------- incremental dedup
_BLOOM_SEEDS = _perm_seeds(4)


def _bloom_bits(batch: pa.Table, text_col: str, mbits: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(word index, bit index) of each row's k=4 bits in an ``mbits``-bit
    Bloom filter over its text hash."""
    h = hash_strings(batch.column(text_col).to_pylist())
    out = []
    for s in _BLOOM_SEEDS:
        idx = splitmix64(h ^ s) % np.uint64(mbits)
        out.append(((idx >> np.uint64(6)).astype(np.int64), idx & np.uint64(63)))
    return out


def _bloom_partial(batch: pa.Table, text_col: str, mbits: int) -> pa.Table:
    bits = np.zeros(mbits // 64, dtype=np.uint64)
    for word, bit in _bloom_bits(batch, text_col, mbits):
        np.bitwise_or.at(bits, word, np.uint64(1) << bit)
    return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})


def _bloom_prefilter(batch: pa.Table, text_col: str, mbits: int, bits_ref) -> pa.Table:
    bf = cached_ref(bits_ref)
    keep = np.ones(batch.num_rows, dtype=bool)
    for word, bit in _bloom_bits(batch, text_col, mbits):
        keep &= ((bf[word] >> bit) & np.uint64(1)).astype(bool)
    return batch.filter(pa.array(keep))


def _tag_side(batch: pa.Table, text_col: str, id_col: str, is_new: int, nbuckets: int) -> pa.Table:
    """One side of the shuffle semi-join: (id, text, is_new) rows with their
    content bucket; a side without ``id_col`` gets id -1."""
    n = batch.num_rows
    ids = batch.column(id_col).cast(pa.int64()) if id_col in batch.column_names else pa.array(np.full(n, -1, np.int64))
    side = pa.table({id_col: ids, text_col: batch.column(text_col), "is_new": pa.array(np.full(n, is_new, np.int8))})
    return _content_bucket(side, text_col, nbuckets)


def incremental_dedup(
    existing: Dataset,
    new: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    mode: str = "auto",
    existing_rows: int | None = None,
    broadcast_row_limit: int = 30_000_000,
    nbuckets: int = _PAIR_BUCKETS,
) -> Dataset:
    """Incremental-crawl ingestion dedup: rows of ``new`` kept iff (a) no
    row of ``existing`` has identical text and (b) they are the min-id
    holder of their text within ``new``.  Returns a Dataset of kept ids.

    Two executions behind one auto-switch (same contract as
    :func:`splade_ray.pipelines.build.resolve_dedup_mode`):

    * ``broadcast`` — the existing corpus's 64-bit content-hash
      fingerprint set (8 B/doc, the sidecar an incremental indexer keeps)
      is ``ray.put`` ONCE and the new batch streams through one
      membership filter; right for existing corpora whose fingerprint
      array fits a worker heap.
    * ``shuffle`` — the 10^12-doc path: BOTH sides are tagged and
      unioned, exchanged ONCE on COARSE content-hash buckets (equal
      texts always share a hash → one bucket), and each bucket runs a
      vectorized semi-join (drop new texts present among existing) +
      min-id election.  No corpus-sized object ever lands on one node.

    Both modes elect and semi-join on the TEXT itself (hash only routes
    the exchange / prunes the broadcast filter), the collision-proof
    convention of :func:`exact_dedup`.  ``auto`` picks broadcast when
    ``existing_rows`` (caller-supplied footer count, else a metadata
    ``existing.count()``) is at most ``broadcast_row_limit``."""
    if mode == "auto":
        n_existing = existing_rows if existing_rows is not None else existing.count()
        mode = "broadcast" if n_existing <= broadcast_row_limit else "shuffle"
    if mode not in ("broadcast", "shuffle", "bloom"):
        raise ValueError(f"unknown incremental dedup mode: {mode!r}")
    elect = {"text_col": text_col, "id_col": id_col}

    if mode == "broadcast":
        fps = (
            existing.map_batches(add_content_hash, fn_kwargs={"text_col": text_col}, batch_format="pyarrow")
            .select_columns(["content_hash"])
            .to_pandas()["content_hash"]
            .to_numpy()
        )
        fp_ref = ray.put(np.sort(fps.astype(np.int64)))
        return (
            new.map_batches(_content_bucket, fn_kwargs={"text_col": text_col, "nbuckets": nbuckets}, batch_format="pyarrow")
            .map_batches(
                _member_filter,
                fn_kwargs={"col": "content_hash", "sorted_ref": fp_ref, "members": False},
                batch_format="pyarrow",
            )
            .groupby("dedup_bucket")
            .map_groups(_elect_new, fn_kwargs=elect, batch_format="pandas")
        )

    if mode == "bloom":
        # The 10^12-existing × small-daily-crawl shape: the NEW batch is the
        # small side, so a Bloom filter over ITS content hashes (16 bits/row,
        # k=4 → FP ≈ 0.24%) broadcasts at 1/4 the size of the raw hash set
        # and PRUNES THE EXISTING SIDE of the exchange to ≈ |true dups| + FP
        # rows — the existing corpus never moves.  FPs only inflate the
        # exchange; the per-bucket TEXT semi-join below removes them, so the
        # kept set is bit-identical to shuffle mode (tested).  At cluster
        # scale the per-block bit arrays tree-reduce; here the driver ORs
        # the bounded partials.
        mbits = 1 << max(10, int(np.ceil(np.log2(max(1, 16 * new.count())))))
        bloom = {"text_col": text_col, "mbits": mbits}
        bits = np.zeros(mbits // 64, dtype=np.uint64)
        for blob in new.map_batches(_bloom_partial, fn_kwargs=bloom, batch_format="pyarrow").to_pandas()["bits"]:
            bits |= np.frombuffer(blob, dtype=np.uint64)
        existing = existing.map_batches(
            _bloom_prefilter, fn_kwargs={**bloom, "bits_ref": ray.put(bits)}, batch_format="pyarrow"
        )
        # fall through: the pruned existing side joins the shuffle exchange

    # shuffle: tag + union, ONE coarse-bucket exchange, per-bucket semi-join
    tag = {"text_col": text_col, "id_col": id_col, "nbuckets": nbuckets}
    tagged = new.map_batches(_tag_side, fn_kwargs={**tag, "is_new": 1}, batch_format="pyarrow").union(
        existing.map_batches(_tag_side, fn_kwargs={**tag, "is_new": 0}, batch_format="pyarrow")
    )
    return tagged.groupby("dedup_bucket").map_groups(_elect_new, fn_kwargs=elect, batch_format="pandas")


# ------------------------------------------------- shingles and band rows
def _row_shingles(h: np.ndarray, rows: np.ndarray, shingle_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling shingles over a FLAT token-hash stream, minus the windows
    that cross a row boundary: (uint64 shingle hashes, their rows), per row
    identical to ``shingle_hashes`` on that row's own tokens."""
    if h.size < shingle_n:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    head = rows[: h.size - shingle_n + 1]
    valid = head == rows[shingle_n - 1 :]
    return shingle_hashes(h, shingle_n)[valid], head[valid]


def _unique_shingle_rows(batch: pa.Table, shingle_n: int, text_col: str, id_col: str) -> pa.Table:
    """Explode one batch to unique (id, shingle-hash, set_size) rows — the
    front end of every exact set-similarity verify."""
    h, rows, _dls = Tokenizer().tokenize_hashes(batch.column(text_col))
    sh, srows = _row_shingles(h, rows, shingle_n)
    sh = sh.astype(np.int64)
    # per-doc unique: sort by (row, value), drop consecutive dups
    order = np.lexsort((sh, srows))
    sh, srows = sh[order], srows[order]
    if sh.size:
        keep = np.ones(sh.size, bool)
        keep[1:] = (srows[1:] != srows[:-1]) | (sh[1:] != sh[:-1])
        sh, srows = sh[keep], srows[keep]
    set_sizes = np.bincount(srows, minlength=batch.num_rows).astype(np.int64)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table({id_col: pa.array(ids[srows]), "shingle": pa.array(sh), "set_size": pa.array(set_sizes[srows])})


def _band_rows(keys: np.ndarray, ids: np.ndarray, id_col: str, **payload: np.ndarray) -> pa.Table:
    """One (band_id, band_hash, id, payload...) row per doc and band, from
    the ``(n, bands)`` band-key matrix: the one band explode of the LSH
    families.  A payload row (a scalar, or a vector stored as a list)
    rides along on each band row of its doc."""
    n, bands = keys.shape
    cols = {
        "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
        "band_hash": pa.array(keys.reshape(-1)),
        id_col: pa.array(np.repeat(ids, bands)),
    }
    for name, v in payload.items():
        v = np.repeat(v, bands, axis=0)
        if v.ndim == 2:
            offsets = np.arange(v.shape[0] + 1, dtype=np.int32) * v.shape[1]
            cols[name] = pa.ListArray.from_arrays(pa.array(offsets), pa.array(v.reshape(-1)))
        else:
            cols[name] = pa.array(v)
    return pa.table(cols)


def _band_bucket(batch: pa.Table, nbuckets: int = _PAIR_BUCKETS) -> pa.Table:
    bid = batch.column("band_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    bh = batch.column("band_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(bh ^ splitmix64(bid)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("band_bucket", pa.array(bucket))


def _collision_pairs(g: pa.Table, id_col: str, keys: tuple[str, ...] = ("band_id", "band_hash")) -> tuple[np.ndarray, np.ndarray]:
    """The one collision emitter: lexsort a bucket by (``keys``, id), keep
    one row per (segment, id), and return the positions in ``g`` of both
    rows of every pair inside a multi-row segment, the smaller id first.
    Only true collisions (one segment per near-dup cluster × band) reach
    the Python loop, so its trip count is collision clusters, not rows."""
    cols = [g.column(c).to_numpy(zero_copy_only=False) for c in (id_col, *reversed(keys))]
    order = np.lexsort(cols)
    cols = [c[order] for c in cols]
    starts = np.zeros(order.size, bool)
    starts[:1] = True
    for c in cols[1:]:
        starts[1:] |= c[1:] != c[:-1]
    keep = starts.copy()
    keep[1:] |= cols[0][1:] != cols[0][:-1]
    order, starts = order[keep], np.nonzero(starts[keep])[0]
    lens = np.diff(np.r_[starts, order.size])
    a, b = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s, ln in zip(starts[lens >= 2], lens[lens >= 2]):
        i, j = np.triu_indices(int(ln), k=1)
        a.append(s + i)
        b.append(s + j)
    return order[np.concatenate(a)], order[np.concatenate(b)]


# ---------------------------------------------------------------- minhash/LSH
class MinHashStage:
    """map_batches(pyarrow) task: (id, text) → (id, sig list<int64>).
    One FNV pass per token, then ``num_perm`` splitmix re-mixes (vectorized
    over all shingles of a doc)."""

    def __init__(self, num_perm: int = 128, shingle_n: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        self.num_perm = num_perm
        self.shingle_n = shingle_n
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()
        self.seeds = _perm_seeds(num_perm)

    def signature(self, text: str) -> np.ndarray:
        """Single-doc reference path (tests); the batch path below is the
        vectorized equivalent (identical values)."""
        toks = self.tok.tokenize(text or "")
        th = hash_strings(toks)
        sh = shingle_hashes(th, self.shingle_n)
        if sh.size == 0:
            return np.full(self.num_perm, np.iinfo(np.int64).max, dtype=np.int64)
        sig = np.empty(self.num_perm, dtype=np.int64)
        for k in range(self.num_perm):
            sig[k] = hash_tokens_to_u64(sh, int(self.seeds[k])).min().astype(np.int64)
        return sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        h, rows, _dls = self.tok.tokenize_hashes(batch.column(self.text_col))
        sig = np.full((n_rows, self.num_perm), np.iinfo(np.int64).max, dtype=np.int64)
        sh, srows = _row_shingles(h, rows, self.shingle_n)
        if sh.size:
            bounds = np.r_[0, np.nonzero(np.diff(srows))[0] + 1]
            urows = srows[bounds]
            for k in range(self.num_perm):
                m = hash_tokens_to_u64(sh, int(self.seeds[k]))
                sig[urows, k] = np.minimum.reduceat(m, bounds).astype(np.int64)
        offsets = np.arange(0, (n_rows + 1) * self.num_perm, self.num_perm, dtype=np.int32)
        col = pa.ListArray.from_arrays(pa.array(offsets), pa.array(sig.ravel()))
        return pa.table({self.id_col: batch.column(self.id_col), "sig": col})


def explode_bands(batch: pa.Table, bands: int, rows_per_band: int, id_col: str = "doc_id") -> pa.Table:
    """MinHash band rows: each band's key chains its ``rows_per_band``
    signature values through splitmix64."""
    n = len(batch)
    flat = batch.column("sig").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(n, -1)
    seg = flat[:, : bands * rows_per_band].astype(np.uint64).reshape(n, bands, rows_per_band)
    acc = np.zeros((n, bands), dtype=np.uint64)
    for j in range(rows_per_band):
        acc = splitmix64(acc ^ seg[:, :, j])
    return _band_rows(acc.astype(np.int64), batch.column(id_col).to_numpy(zero_copy_only=False), id_col)


def _pair_bucket(batch: pa.Table, nbuckets: int = _PAIR_BUCKETS) -> pa.Table:
    ia = batch.column("id_a").to_numpy(zero_copy_only=False).astype(np.uint64)
    ib = batch.column("id_b").to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(ia ^ splitmix64(ib)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("pair_bucket", pa.array(bucket))


def _pair_sorted(g: pa.Table):
    """lexsort a pair bucket by (id_a, id_b) and return the sorted key
    arrays, the order, the segment starts (one segment per distinct pair)
    and each segment's row count (the intersection size when a row is a
    shared shingle)."""
    ia = g.column("id_a").to_numpy(zero_copy_only=False)
    ib = g.column("id_b").to_numpy(zero_copy_only=False)
    order = np.lexsort((ib, ia))
    ia, ib = ia[order], ib[order]
    bounds = np.r_[0, np.nonzero((np.diff(ia) != 0) | (np.diff(ib) != 0))[0] + 1]
    cnt = np.diff(np.r_[bounds, ia.size]).astype(np.float64)
    return ia, ib, order, bounds, cnt


def _bucket_pair_unique(g: pa.Table) -> pa.Table:
    """One row per distinct (id_a, id_b) in the bucket — vectorized dedup."""
    if g.num_rows == 0:
        return _PAIR_SCHEMA.empty_table()
    ia, ib, _order, bounds, _cnt = _pair_sorted(g)
    return pa.table({"id_a": pa.array(ia[bounds]), "id_b": pa.array(ib[bounds])})


def _pair_set_sizes(g: pa.Table, order: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return tuple(g.column(c).to_numpy(zero_copy_only=False)[order][bounds].astype(np.float64) for c in ("n_a", "n_b"))


def _bucket_pair_jaccard(g: pa.Table, threshold: float) -> pa.Table:
    """Vectorized per-pair Jaccard over intersection rows: each input row is
    one shared shingle of (id_a, id_b), with both set sizes riding along.
    intersection = segment length; jaccard = |∩| / (n_a + n_b - |∩|)."""
    if g.num_rows == 0:
        return _PAIR_JACCARD_SCHEMA.empty_table()
    ia, ib, order, bounds, cnt = _pair_sorted(g)
    na, nb = _pair_set_sizes(g, order, bounds)
    jac = cnt / np.maximum(na + nb - cnt, 1.0)
    keep = jac >= threshold
    return pa.table(
        {"id_a": pa.array(ia[bounds][keep]), "id_b": pa.array(ib[bounds][keep]), "jaccard": pa.array(jac[keep])}
    )


def _bucket_pair_containment(g: pa.Table, threshold: float) -> pa.Table:
    """Vectorized per-pair DIRECTIONAL containment over intersection rows:
    c(a→b) = |∩|/|A|, c(b→a) = |∩|/|B|; a pair survives when either
    direction reaches ``threshold`` (quote/copy detection is asymmetric —
    a short doc fully inside a long one has high c(a→b) but low jaccard)."""
    if g.num_rows == 0:
        return _PAIR_CONTAINMENT_SCHEMA.empty_table()
    ia, ib, order, bounds, cnt = _pair_sorted(g)
    na, nb = _pair_set_sizes(g, order, bounds)
    c_ab = cnt / np.maximum(na, 1.0)
    c_ba = cnt / np.maximum(nb, 1.0)
    keep = np.maximum(c_ab, c_ba) >= threshold
    return pa.table(
        {
            "id_a": pa.array(ia[bounds][keep]),
            "id_b": pa.array(ib[bounds][keep]),
            "inter": pa.array(cnt[keep].astype(np.int64)),
            "c_ab": pa.array(c_ab[keep]),
            "c_ba": pa.array(c_ba[keep]),
        }
    )


def _score_pairs(rows: Dataset, scorer, threshold: float) -> pd.DataFrame:
    """Per-pair reduce of intersection rows through the coarse pair-bucket
    exchange: ``scorer`` segments each bucket with one lexsort and scores
    every pair vectorized (a pair-keyed groupby measured 136 s vs <2 s
    bucketed on the sf0.1 showcase)."""
    return (
        rows.map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(scorer, fn_kwargs={"threshold": threshold}, batch_format="pyarrow")
        .to_pandas()
    )


def drop_empty_blocks(ds: Dataset) -> Dataset:
    """Materialize and drop zero-row blocks.

    Ray's sort-shuffle emits SCHEMA-LESS empty blocks for empty partitions;
    map operators skip them (zero-row fast path) so they survive to the
    next all-to-all, and Acero hash joins abort on a left-side block with
    no columns.  Filtering uses only driver-side block metadata (num_rows)
    — no block data moves to the driver."""
    mat = ds.materialize()
    refs = [ref for bundle in mat.iter_internal_ref_bundles() for ref, meta in bundle.blocks if meta.num_rows]
    return rd.from_arrow_refs(refs) if refs else mat


def candidate_pairs_from_band_bucket(g: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Candidate pairs of a COARSE band bucket: every two docs sharing a
    (band_id, band_hash) segment, id_a < id_b."""
    if g.num_rows == 0:
        return _PAIR_SCHEMA.empty_table()
    a, b = _collision_pairs(g, id_col)
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table({"id_a": pa.array(ids[a]), "id_b": pa.array(ids[b])})


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` of every (start, len)."""
    cum = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=cum[1:])
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - cum, lens)


def _csr_pair_jaccard(batch: pa.Table, csr_ref, threshold: float) -> pa.Table:
    """Score a batch of pairs against the broadcast CSR of shingle sets."""
    if batch.num_rows == 0:
        return _PAIR_JACCARD_SCHEMA.empty_table()
    ids_s, starts_s, lens_s, flat_s = cached_ref(csr_ref)
    ia = batch.column("id_a").to_numpy(zero_copy_only=False)
    ib = batch.column("id_b").to_numpy(zero_copy_only=False)
    xa = np.minimum(np.searchsorted(ids_s, ia), ids_s.size - 1)
    xb = np.minimum(np.searchsorted(ids_s, ib), ids_s.size - 1)
    # a doc with an EMPTY shingle set has no CSR entry (it can still reach
    # a pair via colliding empty signatures) — zero-length it
    la = np.where(ids_s[xa] == ia, lens_s[xa], 0)
    lb = np.where(ids_s[xb] == ib, lens_s[xb], 0)
    n = batch.num_rows
    # (pair_row, shingle) rows for BOTH sides; per-side sets are unique, so
    # intersection = shingles seen twice within a pair
    rows = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la), np.repeat(np.arange(n, dtype=np.int64), lb)])
    sh = np.concatenate([flat_s[_gather_ranges(starts_s[xa], la)], flat_s[_gather_ranges(starts_s[xb], lb)]])
    o = np.lexsort((sh, rows))
    rows, sh = rows[o], sh[o]
    dup = (rows[1:] == rows[:-1]) & (sh[1:] == sh[:-1])
    inter = np.bincount(rows[1:][dup], minlength=n).astype(np.float64)
    jac = inter / np.maximum(la + lb - inter, 1.0)
    keep = jac >= threshold
    return pa.table({"id_a": pa.array(ia[keep]), "id_b": pa.array(ib[keep]), "jaccard": pa.array(jac[keep])})


def minhash_lsh_pairs(
    ds: Dataset,
    *,
    num_perm: int = 128,
    bands: int = 16,
    threshold: float = 0.7,
    shingle_n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    semi_broadcast_limit: int = 5_000_000,
    csr_broadcast_limit: int = 20_000_000,
) -> pd.DataFrame:
    """Near-duplicate pairs with exact n-gram Jaccard >= threshold.

    Returns a (id_a, id_b, jaccard) DataFrame — candidate sets are
    pair-scale, not corpus-scale, so a driver DataFrame is the right size.
    """
    empty = _empty(id_a=np.int64, id_b=np.int64, jaccard=np.float64)
    # distributed pair dedup (a pair can surface from several bands):
    # coarse pair-hash buckets + a vectorized per-bucket unique — never a
    # groupby on the pair itself.  Pair-scale shuffle only.  Everything
    # feeding a hash join stays batch_format="pyarrow": empty shuffle
    # partitions under pandas map_groups emit schema-LESS blocks that Ray's
    # map operators skip (zero-row fast path) but Acero rejects.
    pairs_ds = drop_empty_blocks(
        ds.map_batches(MinHashStage(num_perm, shingle_n, text_col, id_col), batch_format="pyarrow")
        .map_batches(
            explode_bands,
            fn_kwargs={"bands": bands, "rows_per_band": num_perm // bands, "id_col": id_col},
            batch_format="pyarrow",
        )
        .map_batches(_band_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(candidate_pairs_from_band_bucket, fn_kwargs={"id_col": id_col}, batch_format="pyarrow")
        .map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(_bucket_pair_unique, batch_format="pyarrow")
    )
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return empty

    # exact verify as a co-partitioned join pipeline over SCALAR columns
    # (Acero hash joins reject list payloads, and scalar rows shuffle
    # cheaper anyway):
    #   1. restrict the corpus to the docs referenced by any pair,
    #   2. explode each such doc to (doc_id, shingle, set_size) unique rows,
    #   3. pairs ⋈ shingles(id_a) → one row per a-side shingle, ⋈ shingles
    #      on (id_b, shingle) → intersection rows (carrying both set sizes),
    #   4. bucketed per-pair reduce: jaccard = n_rows / (n_a + n_b - n_rows).
    # Steps 3-4 only run past ``csr_broadcast_limit`` shingle rows: below
    # it the needed docs' shingle sets are ray.put once as a CSR and every
    # pair is scored vectorized inside map_batches over the pairs — no
    # joins, no exchange (each Acero join costs seconds of aggregator-actor
    # startup regardless of size).
    # No per-pair Python scoring loop anywhere; pairs with an empty
    # intersection never reach step 4 (their jaccard is 0 < threshold).
    #
    # Step 1 auto-selects its physical plan like the build's dedup stage:
    # below ``semi_broadcast_limit`` candidate pairs the id set is tiny, so
    # a ray.put broadcast + vectorized membership filter avoids
    # hash-shuffling the ENTIRE corpus (a left_semi join moves every row;
    # measured 4.7 s vs <1 s at 50k docs / 257 pairs); past the limit it
    # switches to the distributed semi-join.
    #
    # join parallelism proportional to the data, not the cluster: each
    # hash-join partition spins up an aggregator actor, and 20+ actors for
    # a few thousand rows is pure fixed overhead (measured ~6 s of join
    # time for 13k rows at npart=22 vs <2 s at npart=2)
    npart = max(2, min(pool_size(), n_pairs // 50_000 + 1))
    if n_pairs <= semi_broadcast_limit:
        id_tables = block_tables(pairs_ds)
        need = np.unique(np.concatenate([t.column(c).to_numpy(zero_copy_only=False) for c in ("id_a", "id_b") for t in id_tables]))
        docs_needed = ds.map_batches(
            _member_filter,
            fn_kwargs={"col": id_col, "sorted_ref": ray.put(need), "members": True},
            batch_format="pyarrow",
        )
    else:
        needed_ids = pairs_ds.select_columns(["id_a"]).rename_columns({"id_a": id_col}).union(
            pairs_ds.select_columns(["id_b"]).rename_columns({"id_b": id_col})
        )
        docs_needed = ds.join(needed_ids, "left_semi", num_partitions=npart, on=(id_col,))
    shingles = docs_needed.map_batches(
        _unique_shingle_rows,
        fn_kwargs={"shingle_n": shingle_n, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    ).materialize()

    # Physical-plan switch on the MEASURED shingle-row count of the
    # pair-referenced docs (not a guess): small enough to broadcast → score
    # every pair inside map_batches against a ray.put CSR of shingle sets,
    # with NO joins and no extra exchange; otherwise the distributed
    # two-join pipeline below.  160 MB of broadcast shingles ≈ 20M rows.
    if shingles.count() <= csr_broadcast_limit:
        sh_tabs = block_tables(shingles)
        if not sh_tabs:
            return empty
        all_ids = np.concatenate([t.column(id_col).to_numpy(zero_copy_only=False) for t in sh_tabs])
        all_sh = np.concatenate([t.column("shingle").to_numpy(zero_copy_only=False) for t in sh_tabs])
        order = np.argsort(all_ids, kind="stable")
        csr_ids, csr_lens = np.unique(all_ids[order], return_counts=True)
        csr_starts = np.zeros(csr_ids.size, dtype=np.int64)
        np.cumsum(csr_lens[:-1], out=csr_starts[1:])
        csr_ref = ray.put((csr_ids, csr_starts, csr_lens.astype(np.int64), all_sh[order]))
        out = pairs_ds.map_batches(
            _csr_pair_jaccard, fn_kwargs={"csr_ref": csr_ref, "threshold": threshold}, batch_format="pyarrow"
        ).to_pandas()
    else:
        # each side's id column takes the join key's name, so a join emits
        # no second id column: one row per (pair, a-side shingle) with n_a,
        # then only the shingles also in the b-side doc == intersection
        a_sh = pairs_ds.join(
            shingles.rename_columns({id_col: "id_a", "set_size": "n_a"}), "inner", num_partitions=npart, on=("id_a",)
        )
        inter_rows = a_sh.join(
            shingles.rename_columns({id_col: "id_b", "set_size": "n_b"}),
            "inner",
            num_partitions=npart,
            on=("id_b", "shingle"),
        )
        out = _score_pairs(inter_rows, _bucket_pair_jaccard, threshold)
    return _sorted_pairs(out, empty)


# ------------------------------------------------ exact set-similarity join
def _ordered_pair_rows(batch: pa.Table, min_size_ratio: float) -> pa.Table:
    """Keep each shared-shingle row once (id_a < id_b) and drop the pairs
    whose set sizes differ by more than ``min_size_ratio`` allows."""
    ia = batch.column("id_a").to_numpy(zero_copy_only=False)
    ib = batch.column("id_b").to_numpy(zero_copy_only=False)
    na = batch.column("n_a").to_numpy(zero_copy_only=False)
    nb = batch.column("n_b").to_numpy(zero_copy_only=False)
    return batch.filter(pa.array((ia < ib) & (np.minimum(na, nb) >= min_size_ratio * np.maximum(na, nb))))


def _self_join_pairs(
    ds: Dataset, scorer, threshold: float, min_size_ratio: float, shingle_n: int, text_col: str, id_col: str, empty
) -> pd.DataFrame:
    """The inverted-shingle set-similarity self-join: explode every doc to
    unique (doc_id, shingle, set_size) rows → self hash-join on shingle
    (a pair appears iff it shares >= 1 shingle) → the exact length
    prefilter → ``scorer`` per pair through the coarse pair-bucket exchange.
    All shuffles are scalar-keyed; hub shingles (stop-trigram clusters)
    bound each join key's fan-out by their df — the exact-join analogue of
    the LSH bucket skew, and the reason :func:`minhash_lsh_pairs` is the
    sub-quadratic path at corpus scale."""
    shingles = ds.map_batches(
        _unique_shingle_rows,
        fn_kwargs={"shingle_n": shingle_n, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    ).materialize()
    n_sh = shingles.count()
    if n_sh == 0:
        return empty
    # join parallelism proportional to the DATA, not the cluster — each
    # hash-join partition is an aggregator actor with seconds of fixed
    # startup (same sizing rule as the MinHash verify)
    npart = max(2, min(pool_size(), n_sh // 200_000 + 1))
    a = shingles.rename_columns({id_col: "id_a", "set_size": "n_a"})
    b = shingles.rename_columns({id_col: "id_b", "set_size": "n_b"})
    rows = a.join(b, "inner", num_partitions=npart, on=("shingle",)).map_batches(
        _ordered_pair_rows, fn_kwargs={"min_size_ratio": min_size_ratio}, batch_format="pyarrow"
    )
    return _sorted_pairs(_score_pairs(rows, scorer, threshold), empty)


def containment_pairs(
    ds: Dataset,
    *,
    threshold: float = 0.7,
    shingle_n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """EXACT directional n-gram containment pairs — the asymmetric dual of
    :func:`ngram_jaccard_pairs` for quote/excerpt/copy detection: a short
    document wholly contained in a long one scores c(short→long) ≈ 1 while
    its jaccard stays tiny.  Same self-join; no size prefilter exists for
    containment (|∩| can reach min(|A|,|B|) at any size ratio), so every
    co-shingled pair is scored."""
    empty = _empty(id_a=np.int64, id_b=np.int64, inter=np.int64, c_ab=np.float64, c_ba=np.float64)
    return _self_join_pairs(ds, _bucket_pair_containment, threshold, 0.0, shingle_n, text_col, id_col, empty)


def ngram_jaccard_pairs(
    ds: Dataset,
    *,
    threshold: float = 0.5,
    shingle_n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """EXACT n-gram Jaccard near-dup pairs — no LSH approximation anywhere:
    the sparse all-pairs join (a pair appears iff it shares >= 1 shingle,
    which any pair with jaccard > 0 does), i.e. the inverted-shingle-index
    formulation of exact set-similarity join; jaccard = |∩| / (n_a + n_b -
    |∩|).  Length prefilter (exact): jaccard <= min/max, so a pair whose
    set sizes differ by more than the threshold ratio never qualifies and
    is dropped before the per-pair reduce."""
    empty = _empty(id_a=np.int64, id_b=np.int64, jaccard=np.float64)
    return _self_join_pairs(ds, _bucket_pair_jaccard, threshold, threshold, shingle_n, text_col, id_col, empty)


# ------------------------------------------------------------------- simhash
class SimHashStage:
    """map_batches(pyarrow): (id, text) → (id, simhash int64).  64-bit
    weighted-bit signature, vectorized per batch with segmented reduceat.

    Token hashes are MD5-derived (``Tokenizer.tokenize_md5`` == DuckDB
    ``md5_number_lower``), so a SQL oracle can recompute the identical
    signatures and the hamming-pair output is hash-checkable end to end."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_texts = batch.num_rows
        th, _rows, dls = self.tok.tokenize_md5(batch.column(self.text_col))
        seg_starts = np.zeros(n_texts, dtype=np.int64)
        if n_texts > 1:
            seg_starts[1:] = np.cumsum(dls[:-1].astype(np.int64))
        out = np.zeros(n_texts, dtype=np.uint64)
        votes = np.zeros((n_texts, 64), dtype=np.int64)
        if th.size:
            # reduceat quirk: empty segments echo the element at the index
            # (and a trailing start == len raises) — clip, then zero them
            safe_starts = np.minimum(seg_starts, th.size - 1)
            for bit in range(64):
                bits = ((th >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2 - 1
                sums = np.add.reduceat(bits, safe_starts)
                sums[dls == 0] = 0
                votes[:, bit] = sums
        for bit in range(64):
            out |= (votes[:, bit] > 0).astype(np.uint64) << np.uint64(bit)
        return pa.table({self.id_col: batch.column(self.id_col), "simhash": pa.array(out.astype(np.int64))})


def simhash_signatures(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(SimHashStage(text_col, id_col), batch_format="pyarrow")


def _simhash_band_rows(batch: pa.Table, id_col: str) -> pa.Table:
    """Four 16-bit bands per signature (any pair with Hamming <= 3 agrees
    on at least one), the signature riding along."""
    h = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
    keys = (h[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64))) & np.uint64(0xFFFF)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return _band_rows(keys.astype(np.int64), ids, id_col, simhash=h.astype(np.int64))


def _hamming_pairs(g: pa.Table, max_hamming: int, id_col: str) -> pa.Table:
    """Band collisions within ``max_hamming`` bits, by one vectorized
    popcount over every candidate pair of the bucket."""
    if g.num_rows == 0:
        return _PAIR_HAMMING_SCHEMA.empty_table()
    a, b = _collision_pairs(g, id_col)
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    hs = g.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
    ham = np.unpackbits((hs[a] ^ hs[b]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1, dtype=np.int64)
    m = ham <= max_hamming
    return pa.table({"id_a": pa.array(ids[a][m]), "id_b": pa.array(ids[b][m]), "hamming": pa.array(ham[m])})


def simhash_near_dup_pairs(ds: Dataset, max_hamming: int = 3, text_col: str = "text", id_col: str = "doc_id") -> pd.DataFrame:
    """Candidate generation: 4 bands of 16 bits (any pair with Hamming <= 3
    must agree on >= 1 band); verify by popcount."""
    out = (
        simhash_signatures(ds, text_col, id_col)
        .map_batches(_simhash_band_rows, fn_kwargs={"id_col": id_col}, batch_format="pyarrow")
        .map_batches(_band_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(_hamming_pairs, fn_kwargs={"max_hamming": max_hamming, "id_col": id_col}, batch_format="pyarrow")
        .to_pandas()
    )
    return _sorted_pairs(out, _empty(id_a=np.int64, id_b=np.int64, hamming=np.int64))


# ------------------------------------------------- embedding cosine near-dup
def _hyperplane_band_rows(
    batch: pa.Table, seed: int, bands: int, planes_per_band: int, emb_col: str, id_col: str
) -> pa.Table:
    """Each band's code packs the signs of its ``planes_per_band`` random
    hyperplanes, drawn from ``default_rng(seed)`` at the batch's dim (so
    every batch draws the same planes); the unit vector rides along."""
    emb = _as_matrix(batch.column(emb_col))
    planes = np.random.default_rng(seed).standard_normal((emb.shape[1], bands * planes_per_band))
    bits = ((emb @ planes) > 0).reshape(len(emb), bands, planes_per_band).astype(np.int64)
    codes = (bits << np.arange(planes_per_band, dtype=np.int64)).sum(axis=2)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return _band_rows(codes, ids, id_col, unit=_normalize(emb))


def _cosine_pairs(g: pa.Table, threshold: float, id_col: str) -> pa.Table:
    """Band collisions with cosine >= threshold, by ONE gathered row-wise
    dot product over every candidate pair of the bucket."""
    if g.num_rows == 0:
        return _PAIR_COSINE_SCHEMA.empty_table()
    a, b = _collision_pairs(g, id_col)
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    U = _as_matrix(g.column("unit"))
    cos = np.einsum("ij,ij->i", U[a], U[b])
    m = cos >= threshold
    return pa.table({"id_a": pa.array(ids[a][m]), "id_b": pa.array(ids[b][m]), "cosine": pa.array(cos[m])})


def embedding_near_dup_pairs(
    ds: Dataset,
    *,
    threshold: float = 0.95,
    bands: int = 4,
    planes_per_band: int = 8,
    seed: int = 7,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Banded random-hyperplane LSH → exact cosine verify (pairs with
    cosine >= threshold).  A pair is a candidate if it agrees on ALL planes
    of ANY band (OR-of-ANDs, same shape as MinHash banding), so recall on
    high-cosine near-dups is 1-(1-p^r)^b instead of the single-bucket p^r.
    The exchange is a groupby on COARSE band-code buckets (never the raw
    (band_id, band_code), whose groups are corpus-count and mostly
    singletons), and each bucket verifies inline.  The unit vector rides
    the exchange (bands × dim floats per doc) — for very wide embeddings
    switch to a pair→vector join as in the MinHash verify."""
    kw = {"seed": seed, "bands": bands, "planes_per_band": planes_per_band, "emb_col": emb_col, "id_col": id_col}
    out = (
        ds.map_batches(_hyperplane_band_rows, fn_kwargs=kw, batch_format="pyarrow")
        .map_batches(_band_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(_cosine_pairs, fn_kwargs={"threshold": threshold, "id_col": id_col}, batch_format="pyarrow")
        .to_pandas()
    )
    return _sorted_pairs(out, _empty(id_a=np.int64, id_b=np.int64, cosine=np.float64))


# ---------------------------------------------------------------- SemDeDup
def _cluster_rows(batch: pa.Table, cent_ref, id_col: str, emb_col: str) -> pa.Table:
    """(bucket, cluster, id, unit vector) of each vector, its cluster
    bit-identical to the fit's own assignment kernel (same float reduction
    order, min-cluster-index ties)."""
    from .ann import _kmeans_dists

    emb = _as_matrix(batch.column(emb_col))
    cl = _kmeans_dists(emb, cached_ref(cent_ref))[0].astype(np.int64)
    unit = _normalize(emb)
    n, dim = unit.shape
    return pa.table(
        {
            "cl_bucket": pa.array((splitmix64(cl.astype(np.uint64)) % np.uint64(_PAIR_BUCKETS)).astype(np.int32)),
            "cl": pa.array(cl),
            id_col: pa.array(batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)),
            "unit": pa.ListArray.from_arrays(pa.array(np.arange(n + 1, dtype=np.int32) * dim), pa.array(unit.reshape(-1))),
        }
    )


def _cluster_keep(g: pa.Table, threshold: float, id_col: str) -> pa.Table:
    if g.num_rows == 0:
        return pa.schema([(id_col, pa.int64()), ("cluster", pa.int64()), ("kept", pa.int64())]).empty_table()
    cl = g.column("cl").to_numpy(zero_copy_only=False)
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    U = _as_matrix(g.column("unit"))
    order = np.lexsort((ids, cl))
    cl, ids, U = cl[order], ids[order], U[order]
    bounds = np.r_[0, np.nonzero(np.diff(cl) != 0)[0] + 1, np.int64(cl.size)]
    kept = np.ones(cl.size, dtype=np.int64)
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s < 2:
            continue
        # dropped iff any EARLIER (smaller-id) vector in the cluster is
        # >= threshold similar; ids ascend within the segment
        kept[s:e][np.triu(U[s:e] @ U[s:e].T >= threshold, k=1).any(axis=0)] = 0
    return pa.table({id_col: pa.array(ids), "cluster": pa.array(cl), "kept": pa.array(kept)})


def semdedup(
    ds: Dataset,
    *,
    k: int = 4,
    iters: int = 3,
    threshold: float = 0.98,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup by
    clustering the embedding space first, then running the quadratic
    cosine verify ONLY inside each cluster.

    - Cluster: the deterministic distributed Lloyd k-means of
      :func:`splade_ray.pipelines.ann.kmeans_assign` (min-id seeding,
      ``iters`` unrolled iterations — the whole fit is SQL-replayable).
      At production scale ``k`` is chosen ~n/1000 so every cluster stays
      matmul-sized; the fit cost is k·d combiner cells per block.
    - Verify: centroids broadcast once via ``ray.put``; ONE extra pass
      re-derives each vector's cluster inside ``map_batches`` (no join
      against the assignment — the fit is deterministic, recomputing is
      cheaper than shuffling n assignment rows), vectors exchange on
      ~1k COARSE cluster-hash buckets, and each cluster segment runs one
      unit-vector matmul.
    - Drop rule (deterministic): a vector is dropped iff some SMALLER-id
      vector in the SAME cluster has cosine >= threshold with it — the
      paper's keep-one-representative policy with id order standing in
      for its centroid-distance order, which makes the exact output
      reproducible in SQL (an EXISTS over within-cluster pairs).

    Returns (vec_id, cluster, kept 0/1) for every vector, id-sorted.
    """
    from .ann import kmeans_assign

    _, cent = kmeans_assign(ds, k=k, iters=iters, id_col=id_col, emb_col=emb_col, return_centroids=True)
    out = (
        ds.map_batches(
            _cluster_rows,
            fn_kwargs={"cent_ref": ray.put(cent), "id_col": id_col, "emb_col": emb_col},
            batch_format="pyarrow",
        )
        .groupby("cl_bucket")
        .map_groups(_cluster_keep, fn_kwargs={"threshold": threshold, "id_col": id_col}, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(id_col, ignore_index=True)


# ----------------------------------------------------- connected components
def connected_components(
    pairs,
    *,
    mode: str = "auto",
    driver_pair_limit: int = 5_000_000,
    nbuckets: int | None = None,
):
    """Near-dup CLUSTER assignment from a verified pair list: one row per
    clustered doc — (doc_id, cluster_id = min doc id reachable over the
    pair graph, cluster_size).  ``doc_id == cluster_id`` marks the
    canonical representative a dedup pipeline would keep.

    Two execution paths, auto-selected on the edge count (same pattern as
    ``resolve_dedup_mode``):

    - **driver** (pair list ≤ ``driver_pair_limit``): vectorized min-label
      propagation + pointer doubling over the edge arrays — the pair list
      is the output of the near-dup joins, usually the same size class
      those pipelines already return as driver DataFrames;
    - **distributed** (anything larger, or any :class:`Dataset` input):
      alternating large-star/small-star rounds (Kiveris et al. 2014) over
      coarse node-hash buckets — each round is ONE sort exchange +
      a lexsort-segmented numpy kernel per bucket (never a groupby on raw
      node ids; see ``_PAIR_BUCKETS`` for why), converging in
      O(log² diameter) rounds to per-component stars rooted at the
      component-min id.  No driver-side edge list anywhere, so a
      boilerplate-heavy corpus whose pair graph is corpus-scale still
      clusters.

    DataFrame in → DataFrame out (sorted by doc_id); Dataset in → Dataset
    out (unsorted, stream it onward).
    """
    if isinstance(pairs, Dataset):
        return connected_components_distributed(pairs, nbuckets=nbuckets)
    if mode not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(pairs) and (mode == "distributed" or (mode == "auto" and len(pairs) > driver_pair_limit)):
        edges = rd.from_pandas(pairs[["id_a", "id_b"]]).repartition(max(8, min(256, len(pairs) // 100_000 + 1)))
        out = connected_components_distributed(edges, nbuckets=nbuckets).to_pandas()
        return out.sort_values("doc_id", ignore_index=True)[["doc_id", "cluster_id", "cluster_size"]]
    return _connected_components_driver(pairs)


def _connected_components_driver(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver path: two ``np.minimum.at`` scatters and a gather per sweep;
    pointer doubling keeps the sweep count logarithmic in diameter."""
    if pairs.empty:
        return _empty(doc_id=np.int64, cluster_id=np.int64, cluster_size=np.int64)
    ea_ids = pairs["id_a"].to_numpy(np.int64)
    eb_ids = pairs["id_b"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([ea_ids, eb_ids]))
    ea = np.searchsorted(nodes, ea_ids)
    eb = np.searchsorted(nodes, eb_ids)
    lab = np.arange(nodes.size, dtype=np.int64)  # positions; nodes sorted → min pos == min id
    while True:
        prev = lab.copy()
        m = np.minimum(lab[ea], lab[eb])
        np.minimum.at(lab, ea, m)
        np.minimum.at(lab, eb, m)
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, prev):
            break
    cluster = nodes[lab]
    _uniq, inv, cnt = np.unique(cluster, return_inverse=True, return_counts=True)
    out = pd.DataFrame({"doc_id": nodes, "cluster_id": cluster, "cluster_size": cnt[inv].astype(np.int64)})
    return out.sort_values("doc_id", ignore_index=True)


# Large-star/small-star (Kiveris et al., "Connected Components in MapReduce
# and Beyond", 2014): edges-only iteration, no node-state table.  Each phase
# groups the (directed) edge list by a node key — through the COARSE bucket
# exchange, like every other per-key reduce in this module — and emits
# relabeled edges; the fixed point is one star per component, rooted at the
# component-min id (identical semantics to the driver path).
_CC_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])


def _cc_orient(batch: pa.Table) -> pa.Table:
    """(u, v) → (max, min) — the canonical child→parent orientation both
    phases emit, projected to (u, v).  Accepts (id_a, id_b) input columns so
    near-dup pair Datasets feed in directly (rename_columns chokes on
    pandas-block datasets).  Self-loops are KEPT: they mark singleton
    clusters (driver-path parity) and ride the iteration unchanged until
    the node gains a real neighbor, which drops them."""
    ucol, vcol = ("id_a", "id_b") if "id_a" in batch.column_names else ("u", "v")
    u = batch.column(ucol).to_numpy(zero_copy_only=False).astype(np.int64)
    v = batch.column(vcol).to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({"u": pa.array(np.maximum(u, v)), "v": pa.array(np.minimum(u, v))})


def _cc_both_directions(batch: pa.Table) -> pa.Table:
    u = batch.column("u").to_numpy(zero_copy_only=False)
    v = batch.column("v").to_numpy(zero_copy_only=False)
    return pa.table({"u": pa.array(np.concatenate([u, v])), "v": pa.array(np.concatenate([v, u]))})


def _cc_node_bucket(batch: pa.Table, nbuckets: int, col: str = "u") -> pa.Table:
    node = batch.column(col).to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(node) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("cc_bucket", pa.array(bucket))


def _cc_segments(g: pa.Table, key: str = "u", other: str = "v"):
    """lexsort the bucket's edges by (``key``, ``other``), collapse duplicate
    edges (copies emitted by different source groups always share their key
    node → one bucket → consecutive after the sort), and return the sorted
    key and other arrays with the per-key segment starts and lengths."""
    k = g.column(key).to_numpy(zero_copy_only=False)
    o = g.column(other).to_numpy(zero_copy_only=False)
    order = np.lexsort((o, k))
    k, o = k[order], o[order]
    keep = np.r_[True, (np.diff(k) != 0) | (np.diff(o) != 0)]
    k, o = k[keep], o[keep]
    bounds = np.r_[0, np.nonzero(np.diff(k))[0] + 1]
    seglen = np.diff(np.r_[bounds, k.size])
    return k, o, bounds, seglen


def _cc_large_star(g: pa.Table) -> pa.Table:
    """Group = all neighbors of each node u in the bucket (both directions
    were emitted).  m = min(Γ(u) ∪ {u}); emit (v, m) for v > u."""
    if g.num_rows == 0:
        return _CC_EDGE_SCHEMA.empty_table()
    u, v, bounds, seglen = _cc_segments(g)
    m = np.minimum(u[bounds], v[bounds])  # v sorted within segment → v[bounds] = min neighbor
    mm = np.repeat(m, seglen)
    mask = v > u  # parent m <= u < v, so never a self-loop
    out_u, out_v = v[mask], mm[mask]
    # isolated self-loop nodes (their COMPLETE neighbor set — both edge
    # directions land in this group — is just themselves) re-emit (u, u)
    # so the singleton survives the round; any real neighbor removes it
    solo = (seglen == 1) & (v[bounds] == u[bounds])
    if solo.any():
        s = u[bounds][solo]
        out_u, out_v = np.concatenate([out_u, s]), np.concatenate([out_v, s])
    return pa.table({"u": pa.array(out_u), "v": pa.array(out_v)})


def _cc_small_star(g: pa.Table) -> pa.Table:
    """Group = each node u with its SMALLER neighbors (edges oriented
    max→min).  m = min neighbor; emit (u, m) plus (v, m) for v ≠ m."""
    if g.num_rows == 0:
        return _CC_EDGE_SCHEMA.empty_table()
    u, v, bounds, seglen = _cc_segments(g)
    m = v[bounds]
    mm = np.repeat(m, seglen)
    mask = v != mm
    return pa.table(
        {
            "u": pa.array(np.concatenate([u[bounds], v[mask]])),
            "v": pa.array(np.concatenate([m, mm[mask]])),
        }
    )


def _cc_phase(edges: Dataset, kind: str, nbuckets: int) -> Dataset:
    mapped = edges.map_batches(_cc_both_directions if kind == "large" else _cc_orient, batch_format="pyarrow")
    kernel = _cc_large_star if kind == "large" else _cc_small_star
    return (
        mapped.map_batches(_cc_node_bucket, fn_kwargs={"nbuckets": nbuckets}, batch_format="pyarrow")
        .groupby("cc_bucket")
        .map_groups(kernel, batch_format="pyarrow")
    )


def _cc_checksum(batch: pa.Table) -> pa.Table:
    u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
    v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
    h = splitmix64(splitmix64(u) ^ v)
    return pa.table(
        {
            "cnt": pa.array([batch.num_rows], type=pa.int64()),
            "hsum": pa.array([int(h.sum(dtype=np.uint64))], type=pa.uint64()),
        }
    )


def _cc_stats(edges: Dataset) -> tuple[int, int]:
    """(row count, order-free 64-bit multiset checksum) in one streaming
    pass — equality across consecutive iterations certifies the fixed point
    (the iteration is a deterministic function of the edge multiset, and
    labels only decrease, so a repeat can never be a cycle)."""
    cnt, hsum = 0, 0
    for b in edges.map_batches(_cc_checksum, batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            cnt += int(pc.sum(b.column("cnt")).as_py() or 0)
            for x in b.column("hsum").to_pylist():
                hsum = (hsum + x) & 0xFFFFFFFFFFFFFFFF
    return cnt, hsum


def _cc_clusters(g: pa.Table) -> pa.Table:
    """A root bucket's star edges (child, root) → (doc_id, cluster_id,
    cluster_size) rows, including each root's own row."""
    if g.num_rows == 0:
        return _CLUSTER_SCHEMA.empty_table()
    root, child, bounds, seglen = _cc_segments(g, key="v", other="u")
    nonself = child != root  # self-loop star edge = singleton marker, not a member
    sizes = np.add.reduceat(nonself.astype(np.int64), bounds) + 1  # + the root itself
    csizes = np.repeat(sizes, seglen)[nonself]
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([child[nonself], root[bounds]])),
            "cluster_id": pa.array(np.concatenate([root[nonself], root[bounds]])),
            "cluster_size": pa.array(np.concatenate([csizes, sizes]).astype(np.int64)),
        }
    )


def connected_components_distributed(
    edges: Dataset, *, nbuckets: int | None = None, max_rounds: int = 64
) -> Dataset:
    """Large-star/small-star connected components over an edge Dataset with
    columns (id_a, id_b) or (u, v).  Returns a Dataset of
    (doc_id, cluster_id, cluster_size) — cluster_id = component-min id,
    exactly the driver path's labeling.  Per iteration: two coarse-bucket
    sort exchanges + one streaming checksum pass, each over the
    (monotonically shrinking-label) edge list; nothing edge-scale ever
    reaches the driver."""
    edges = edges.map_batches(_cc_orient, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(_CLUSTER_SCHEMA.empty_table())
    if nbuckets is None:
        nbuckets = int(max(32, min(_PAIR_BUCKETS, n_edges // 50_000)))
    prev: tuple[int, int] | None = None
    for _ in range(max_rounds):
        edges = _cc_phase(edges, "large", nbuckets)
        edges = _cc_phase(edges, "small", nbuckets).materialize()
        cur = _cc_stats(edges)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(f"connected_components_distributed: no fixed point in {max_rounds} rounds")
    # the exchange keys on the ROOT hash so every member of a cluster lands
    # in one bucket segment
    return (
        edges.map_batches(_cc_node_bucket, fn_kwargs={"nbuckets": nbuckets, "col": "v"}, batch_format="pyarrow")
        .groupby("cc_bucket")
        .map_groups(_cc_clusters, batch_format="pyarrow")
    )
