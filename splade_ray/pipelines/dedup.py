"""Deduplication family over document tables (training-data pipeline ops).

Not present in the reference (its only set-ops are tiny in-memory dedups,
SURVEY.md §2.7); these are the web-scale operators a Common-Crawl pipeline
needs, each expressed Ray-Data-first:

- exact: content-hash partition (``groupby(hash)``) + per-distinct-text min
  id — the hash-shuffle + per-group-first pattern;
- MinHash + LSH: shingle → k-permutation minhash (one string-hash pass,
  k cheap re-mixes) → band explode → ``groupby(band)`` candidate pairs →
  exact n-gram Jaccard verify;
- SimHash: 64-bit weighted-bit signature; near-dup candidates via 16-bit
  band buckets, verified by Hamming distance;
- embedding cosine near-dup: random-hyperplane signatures → band buckets →
  cosine verify.

Scale notes: every candidate-generation step is a bounded groupby on a
band/bucket key (heavily skewed buckets = exact-dup clusters, bounded by
cluster size, the data's own skew).  The MinHash verify is a co-partitioned
hash join: candidate pairs are semi-joined against the corpus to build a
(doc_id, shingle-set) table for only the referenced docs, then joined back
to the pairs on id_a/id_b and Jaccard-verified with a vectorized
segment-intersection kernel — no driver-side lookup tables, no per-pair
Python loop, so the verify scales with the pair count across the cluster.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset

from ..stages.encode import cached_ref
from ..util import block_tables, pool_size
from ..functions.hashing import hash_strings, hash_tokens_to_u64, shingle_hashes, splitmix64
from ..tokenizer import Tokenizer


# ---------------------------------------------------------------- exact dedup
_PAIR_BUCKETS = 1024


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = hash_strings(batch.column(text_col).to_pylist())
    return batch.append_column("content_hash", pa.array(h.astype(np.int64)))


def exact_dedup(ds: Dataset, text_col: str = "text", id_col: str = "doc_id", nbuckets: int = _PAIR_BUCKETS) -> Dataset:
    """One row per distinct text, keeping the min id.  The exchange is a
    groupby on COARSE hash buckets — never the raw content_hash, whose
    groups are corpus-count and each pay Ray's per-group Python finalize —
    and the per-bucket winner election is one pandas sort+drop_duplicates
    over the whole bucket.  Collision-proof: equal texts always share a
    hash (→ one bucket) while election keys on the text itself."""

    def bucketize(batch: pa.Table) -> pa.Table:
        batch = add_content_hash(batch, text_col)
        h = batch.column("content_hash").to_numpy(zero_copy_only=False)
        bucket = (h.astype(np.uint64) % np.uint64(nbuckets)).astype(np.int32)
        return batch.append_column("dedup_bucket", pa.array(bucket))

    def keep_first(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(id_col, kind="mergesort").drop_duplicates(text_col, keep="first")

    hashed = ds.map_batches(bucketize, batch_format="pyarrow")
    return (
        hashed.groupby("dedup_bucket")
        .map_groups(keep_first, batch_format="pandas")
        .drop_columns(["content_hash", "dedup_bucket"])
    )


# ------------------------------------------------------- incremental dedup
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

    def bucketize(batch: pa.Table) -> pa.Table:
        h = batch.column("content_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "hbucket", pa.array((splitmix64(h) % np.uint64(nbuckets)).astype(np.int32))
        )

    def elect(g: pd.DataFrame) -> pd.DataFrame:
        kept = g.sort_values(id_col, kind="mergesort").drop_duplicates(text_col, keep="first")
        return kept[[id_col]]

    if mode == "broadcast":
        def fingerprint(batch: pa.Table) -> pa.Table:
            h = hash_strings(batch.column(text_col).to_pylist())
            return pa.table({"h": pa.array(h.astype(np.int64))})

        fps = (
            existing.map_batches(fingerprint, batch_format="pyarrow")
            .to_pandas()["h"]
            .to_numpy()
        )
        fp_ref = ray.put(np.sort(fps.astype(np.int64)))

        def filter_new(batch: pa.Table) -> pa.Table:
            b = add_content_hash(batch, text_col)
            h = b.column("content_hash").to_numpy(zero_copy_only=False)
            fp = cached_ref(fp_ref)
            pos = np.minimum(np.searchsorted(fp, h), max(fp.size - 1, 0))
            dup_existing = (fp[pos] == h) if fp.size else np.zeros(h.size, bool)
            return b.filter(pa.array(~dup_existing))

        return (
            new.map_batches(filter_new, batch_format="pyarrow")
            .map_batches(bucketize, batch_format="pyarrow")
            .groupby("hbucket")
            .map_groups(elect, batch_format="pandas")
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
        n_new = new.count()
        mbits = 1 << max(10, int(np.ceil(np.log2(max(1, 16 * n_new)))))
        seeds = np.arange(1, 5, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

        def bloom_partial(batch: pa.Table) -> pa.Table:
            h = hash_strings(batch.column(text_col).to_pylist())
            bits = np.zeros(mbits // 64, dtype=np.uint64)
            for s in seeds:
                idx = splitmix64(h ^ s) % np.uint64(mbits)
                np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64), np.uint64(1) << (idx & np.uint64(63)))
            return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

        parts = new.map_batches(bloom_partial, batch_format="pyarrow").to_pandas()["bits"]
        bits = np.zeros(mbits // 64, dtype=np.uint64)
        for blob in parts:
            bits |= np.frombuffer(blob, dtype=np.uint64)
        bits_ref = ray.put(bits)

        def prefilter(batch: pa.Table) -> pa.Table:
            h = hash_strings(batch.column(text_col).to_pylist())
            bf = cached_ref(bits_ref)
            keep = np.ones(h.size, dtype=bool)
            for s in seeds:
                idx = splitmix64(h ^ s) % np.uint64(mbits)
                keep &= ((bf[(idx >> np.uint64(6)).astype(np.int64)] >> (idx & np.uint64(63))) & np.uint64(1)).astype(bool)
            return batch.filter(pa.array(keep))

        existing = existing.map_batches(prefilter, batch_format="pyarrow")
        # fall through: the pruned existing side joins the shuffle exchange

    # shuffle: tag + union, ONE coarse-bucket exchange, per-bucket semi-join
    def tag(is_new: int):
        def f(batch: pa.Table) -> pa.Table:
            b = add_content_hash(batch, text_col)
            ids = (
                b.column(id_col).cast(pa.int64())
                if id_col in b.column_names
                else pa.array(np.full(b.num_rows, -1, dtype=np.int64))
            )
            out = pa.table(
                {
                    id_col: ids,
                    text_col: b.column(text_col),
                    "content_hash": b.column("content_hash"),
                    "is_new": pa.array(np.full(b.num_rows, is_new, dtype=np.int8)),
                }
            )
            return bucketize(out)

        return f

    def semi_join_elect(g: pd.DataFrame) -> pd.DataFrame:
        newg = g[g["is_new"] == 1]
        old_texts = g.loc[g["is_new"] == 0, text_col]
        if len(old_texts):
            newg = newg[~newg[text_col].isin(old_texts)]
        return elect(newg)

    tagged = new.map_batches(tag(1), batch_format="pyarrow").union(
        existing.map_batches(tag(0), batch_format="pyarrow")
    )
    return tagged.groupby("hbucket").map_groups(semi_join_elect, batch_format="pandas")


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
        self.seeds = np.arange(1, num_perm + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

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
        h, rows, dls = self.tok.tokenize_hashes(batch.column(self.text_col))
        nsh = self.shingle_n
        sig = np.full((n_rows, self.num_perm), np.iinfo(np.int64).max, dtype=np.int64)
        if h.size >= nsh:
            # rolling shingles over the FLAT hash stream, then mask windows
            # that cross a row boundary — per-doc values are identical to
            # shingle_hashes on that doc's own tokens
            acc = shingle_hashes(h, nsh)
            valid = rows[: h.size - nsh + 1] == rows[nsh - 1 :]
            sh, srows = acc[valid], rows[: h.size - nsh + 1][valid]
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
    sig = batch.column("sig").combine_chunks()
    flat = sig.flatten().to_numpy(zero_copy_only=False).reshape(len(batch), -1)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    band_hashes = np.empty((len(batch), bands), dtype=np.int64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            seg = flat[:, b * rows_per_band : (b + 1) * rows_per_band].astype(np.uint64)
            acc = np.zeros(len(batch), dtype=np.uint64)
            for j in range(rows_per_band):
                acc = splitmix64(acc ^ seg[:, j])
            band_hashes[:, b] = acc.astype(np.int64)
    return pa.table(
        {
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), len(batch))),
            "band_hash": pa.array(band_hashes.reshape(-1)),
            id_col: pa.array(np.repeat(ids, bands)),
        }
    )


_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
_PAIR_JACCARD_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())])

# Per-(id_a, id_b) reduces go through a COARSE bucketed exchange, never a
# groupby on the pair itself: Ray finalizes each group with Python-level
# overhead, and pair-keyed groups are tiny and astronomically many (measured
# 29 s for 850k pairs vs <1 s bucketed at sf0.1).  The bucket count only
# bounds Python calls per task — the shuffle itself is the same sort
# exchange either way.
def _pair_bucket(batch: pa.Table, nbuckets: int = _PAIR_BUCKETS) -> pa.Table:
    ia = batch.column("id_a").to_numpy(zero_copy_only=False).astype(np.uint64)
    ib = batch.column("id_b").to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(ia ^ splitmix64(ib)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("pair_bucket", pa.array(bucket))


def _pair_sorted(g: pa.Table):
    """lexsort a bucket group by (id_a, id_b) and return the sorted key
    arrays plus the group-boundary indices (one segment per distinct pair)."""
    ia = g.column("id_a").to_numpy(zero_copy_only=False)
    ib = g.column("id_b").to_numpy(zero_copy_only=False)
    order = np.lexsort((ib, ia))
    ia, ib = ia[order], ib[order]
    bounds = np.r_[0, np.nonzero((np.diff(ia) != 0) | (np.diff(ib) != 0))[0] + 1]
    return ia, ib, order, bounds


def _bucket_pair_unique(g: pa.Table) -> pa.Table:
    """One row per distinct (id_a, id_b) in the bucket — vectorized dedup."""
    if g.num_rows == 0:
        return _PAIR_SCHEMA.empty_table()
    ia, ib, _order, bounds = _pair_sorted(g)
    return pa.table({"id_a": pa.array(ia[bounds]), "id_b": pa.array(ib[bounds])})


def _bucket_pair_jaccard(g: pa.Table, threshold: float) -> pa.Table:
    """Vectorized per-pair Jaccard over intersection rows: each input row is
    one shared shingle of (id_a, id_b), with both set sizes riding along.
    intersection = segment length; jaccard = |∩| / (n_a + n_b - |∩|)."""
    if g.num_rows == 0:
        return _PAIR_JACCARD_SCHEMA.empty_table()
    ia, ib, order, bounds = _pair_sorted(g)
    cnt = np.diff(np.r_[bounds, ia.size]).astype(np.float64)
    na = g.column("n_a").to_numpy(zero_copy_only=False)[order][bounds].astype(np.float64)
    nb = g.column("n_b").to_numpy(zero_copy_only=False)[order][bounds].astype(np.float64)
    jac = cnt / np.maximum(na + nb - cnt, 1.0)
    keep = jac >= threshold
    return pa.table(
        {"id_a": pa.array(ia[bounds][keep]), "id_b": pa.array(ib[bounds][keep]), "jaccard": pa.array(jac[keep])}
    )


def drop_empty_blocks(ds: Dataset) -> Dataset:
    """Materialize and drop zero-row blocks.

    Ray's sort-shuffle emits SCHEMA-LESS empty blocks for empty partitions;
    map operators skip them (zero-row fast path) so they survive to the
    next all-to-all, and Acero hash joins abort on a left-side block with
    no columns.  Filtering uses only driver-side block metadata (num_rows)
    — no block data moves to the driver."""
    import ray.data as _rd

    mat = ds.materialize()
    refs = []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
    if not refs:
        return mat
    return _rd.from_arrow_refs(refs)


def _band_bucket(batch: pa.Table, nbuckets: int = _PAIR_BUCKETS) -> pa.Table:
    bid = batch.column("band_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    bh = batch.column("band_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(bh ^ splitmix64(bid)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("band_bucket", pa.array(bucket))


def candidate_pairs_from_band_bucket(g: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Candidate pairs from every (band_id, band_hash) segment of a COARSE
    band bucket (see _PAIR_BUCKETS — a groupby keyed on the band hash
    itself pays Python-per-group finalize over ~docs×bands mostly-singleton
    groups).  Segmentation is one lexsort; only multi-row segments — true
    LSH collisions, one per near-dup cluster × band — reach the Python
    pair-emit loop, so its trip count is collision clusters, not rows."""
    if g.num_rows == 0:
        return _PAIR_SCHEMA.empty_table()
    bid = g.column("band_id").to_numpy(zero_copy_only=False)
    bh = g.column("band_hash").to_numpy(zero_copy_only=False)
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, bh, bid))
    bid, bh, ids = bid[order], bh[order], ids[order]
    bounds = np.r_[0, np.nonzero((np.diff(bid) != 0) | (np.diff(bh) != 0))[0] + 1, np.int64(bid.size)]
    lens = np.diff(bounds)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for s, ln in zip(bounds[:-1][lens >= 2], lens[lens >= 2]):
        a, b = np.triu_indices(int(ln), k=1)
        seg = ids[s : s + ln]  # lexsort put ids ascending within the segment → id_a < id_b
        out_a.append(seg[a])
        out_b.append(seg[b])
    if not out_a:
        return _PAIR_SCHEMA.empty_table()
    return pa.table({"id_a": pa.array(np.concatenate(out_a)), "id_b": pa.array(np.concatenate(out_b))})


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
    rows_per_band = num_perm // bands
    sigs = ds.map_batches(MinHashStage(num_perm, shingle_n, text_col, id_col), batch_format="pyarrow")
    banded = sigs.map_batches(
        lambda b: explode_bands(b, bands, rows_per_band, id_col), batch_format="pyarrow"
    )
    # distributed pair dedup (a pair can surface from several bands):
    # coarse pair-hash buckets + a vectorized per-bucket unique — never a
    # groupby on the pair itself (Python-per-group finalize, see
    # _PAIR_BUCKETS).  Pair-scale shuffle only.  Everything feeding a hash
    # join stays batch_format="pyarrow": empty shuffle partitions under
    # pandas map_groups emit schema-LESS blocks that Ray's map operators
    # skip (zero-row fast path) but Acero rejects.
    pairs_ds = drop_empty_blocks(
        banded.map_batches(_band_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(lambda g: candidate_pairs_from_band_bucket(g, id_col), batch_format="pyarrow")
        .map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(_bucket_pair_unique, batch_format="pyarrow")
    )
    empty = pd.DataFrame(
        {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64), "jaccard": pd.Series(dtype=np.float64)}
    )
    if pairs_ds.count() == 0:
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
    # a ray.put broadcast + vectorized np.isin filter avoids hash-shuffling
    # the ENTIRE corpus (a left_semi join moves every row; measured 4.7 s
    # vs <1 s at 50k docs / 257 pairs); past the limit it switches to the
    # distributed semi-join.
    n_pairs = pairs_ds.count()
    # join parallelism proportional to the data, not the cluster: each
    # hash-join partition spins up an aggregator actor, and 20+ actors for
    # a few thousand rows is pure fixed overhead (measured ~6 s of join
    # time for 13k rows at npart=22 vs <2 s at npart=2)
    npart = max(2, min(pool_size(), n_pairs // 50_000 + 1))
    if n_pairs <= semi_broadcast_limit:
        id_tables = block_tables(pairs_ds)
        need = np.unique(
            np.concatenate(
                [t.column("id_a").to_numpy(zero_copy_only=False) for t in id_tables]
                + [t.column("id_b").to_numpy(zero_copy_only=False) for t in id_tables]
            )
        )
        need_ref = ray.put(need)

        def semi_filter(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            wanted = cached_ref(need_ref)
            pos = np.searchsorted(wanted, ids)
            pos = np.minimum(pos, max(wanted.size - 1, 0))
            return batch.filter(pa.array(wanted[pos] == ids))

        docs_needed = ds.map_batches(semi_filter, batch_format="pyarrow")
    else:
        needed_ids = pairs_ds.select_columns(["id_a"]).rename_columns({"id_a": id_col}).union(
            pairs_ds.select_columns(["id_b"]).rename_columns({"id_b": id_col})
        )
        docs_needed = ds.join(needed_ids, "left_semi", num_partitions=npart, on=(id_col,))

    def explode_shingles(batch: pa.Table) -> pa.Table:
        tok = Tokenizer()
        n = batch.num_rows
        h, rows, _dls = tok.tokenize_hashes(batch.column(text_col))
        if h.size >= shingle_n:
            acc = shingle_hashes(h, shingle_n)
            valid = rows[: h.size - shingle_n + 1] == rows[shingle_n - 1 :]
            sh, srows = acc[valid].astype(np.int64), rows[: h.size - shingle_n + 1][valid]
        else:
            sh, srows = np.zeros(0, np.int64), np.zeros(0, np.int64)
        # per-doc unique: sort by (row, value), drop consecutive dups
        order = np.lexsort((sh, srows))
        sh, srows = sh[order], srows[order]
        if sh.size:
            keep = np.ones(sh.size, bool)
            keep[1:] = (srows[1:] != srows[:-1]) | (sh[1:] != sh[:-1])
            sh, srows = sh[keep], srows[keep]
        set_sizes = np.bincount(srows, minlength=n).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {id_col: pa.array(ids[srows]), "shingle": pa.array(sh), "set_size": pa.array(set_sizes[srows])}
        )

    shingles = docs_needed.map_batches(explode_shingles, batch_format="pyarrow").materialize()

    # Physical-plan switch on the MEASURED shingle-row count of the
    # pair-referenced docs (not a guess): small enough to broadcast → score
    # every pair inside map_batches against a ray.put CSR of shingle sets,
    # with NO joins and no extra exchange; otherwise the distributed
    # two-join pipeline below.  160 MB of broadcast shingles ≈ 20M rows.
    n_sh_rows = shingles.count()
    if n_sh_rows <= csr_broadcast_limit:
        sh_tabs = block_tables(shingles)
        if not sh_tabs:
            return empty
        all_ids = np.concatenate([t.column(id_col).to_numpy(zero_copy_only=False) for t in sh_tabs])
        all_sh = np.concatenate([t.column("shingle").to_numpy(zero_copy_only=False) for t in sh_tabs])
        order = np.argsort(all_ids, kind="stable")
        all_ids, all_sh = all_ids[order], all_sh[order]
        csr_ids, csr_lens = np.unique(all_ids, return_counts=True)
        csr_starts = np.zeros(csr_ids.size, dtype=np.int64)
        np.cumsum(csr_lens[:-1], out=csr_starts[1:])
        csr_ref = ray.put((csr_ids, csr_starts, csr_lens.astype(np.int64), all_sh))

        def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
            total = int(lens.sum())
            cum = np.zeros(lens.size, dtype=np.int64)
            np.cumsum(lens[:-1], out=cum[1:])
            return np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lens)

        def pair_jaccard_bcast(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _PAIR_JACCARD_SCHEMA.empty_table()
            ids_s, starts_s, lens_s, flat_s = cached_ref(csr_ref)
            ia = batch.column("id_a").to_numpy(zero_copy_only=False)
            ib = batch.column("id_b").to_numpy(zero_copy_only=False)
            hi = max(ids_s.size - 1, 0)
            xa = np.minimum(np.searchsorted(ids_s, ia), hi)
            xb = np.minimum(np.searchsorted(ids_s, ib), hi)
            if ids_s.size == 0:
                return _PAIR_JACCARD_SCHEMA.empty_table()
            # a doc with an EMPTY shingle set has no CSR entry (it can still
            # reach a pair via colliding empty signatures) — zero-length it
            la = np.where(ids_s[xa] == ia, lens_s[xa], 0)
            lb = np.where(ids_s[xb] == ib, lens_s[xb], 0)
            n = batch.num_rows
            # (pair_row, shingle) rows for BOTH sides; per-side sets are
            # unique, so intersection = shingles seen twice within a pair
            rows = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la),
                                   np.repeat(np.arange(n, dtype=np.int64), lb)])
            sh = np.concatenate([flat_s[_gather_ranges(starts_s[xa], la)],
                                 flat_s[_gather_ranges(starts_s[xb], lb)]])
            o = np.lexsort((sh, rows))
            rows, sh = rows[o], sh[o]
            dup = (rows[1:] == rows[:-1]) & (sh[1:] == sh[:-1])
            inter = np.bincount(rows[1:][dup], minlength=n).astype(np.float64)
            jac = inter / np.maximum(la + lb - inter, 1.0)
            keep = jac >= threshold
            return pa.table(
                {"id_a": pa.array(ia[keep]), "id_b": pa.array(ib[keep]), "jaccard": pa.array(jac[keep])}
            )

        out = pairs_ds.map_batches(pair_jaccard_bcast, batch_format="pyarrow").to_pandas()
    else:
        # one row per (pair, a-side shingle), n_a riding along
        a_sh = pairs_ds.join(
            shingles.rename_columns({"set_size": "n_a"}),
            "inner", num_partitions=npart, on=("id_a",), right_on=(id_col,),
        )
        if id_col in a_sh.columns():
            a_sh = a_sh.drop_columns([id_col])
        # keep only shingles also present in the b-side doc == intersection
        inter_rows = a_sh.join(
            shingles.rename_columns({"set_size": "n_b"}),
            "inner", num_partitions=npart, on=("id_b", "shingle"), right_on=(id_col, "shingle"),
        )

        out = (
            inter_rows.map_batches(_pair_bucket, batch_format="pyarrow")
            .groupby("pair_bucket")
            .map_groups(lambda g: _bucket_pair_jaccard(g, threshold), batch_format="pyarrow")
            .to_pandas()
        )
    if out.empty:
        return empty
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


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
      node ids; see ``_pair_bucket`` for why), converging in
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
    if len(pairs) == 0:
        return _connected_components_driver(pairs)  # typed empty frame
    if mode == "distributed" or (mode == "auto" and len(pairs) > driver_pair_limit):
        import ray.data as _rd

        edges = _rd.from_pandas(pairs[["id_a", "id_b"]]).repartition(
            max(8, min(256, len(pairs) // 100_000 + 1))
        )
        out = connected_components_distributed(edges, nbuckets=nbuckets).to_pandas()
        return out.sort_values("doc_id", ignore_index=True)[["doc_id", "cluster_id", "cluster_size"]]
    return _connected_components_driver(pairs)


def _connected_components_driver(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver path: two ``np.minimum.at`` scatters and a gather per sweep;
    pointer doubling keeps the sweep count logarithmic in diameter."""
    cols = {
        "doc_id": pd.Series(dtype=np.int64),
        "cluster_id": pd.Series(dtype=np.int64),
        "cluster_size": pd.Series(dtype=np.int64),
    }
    if pairs.empty:
        return pd.DataFrame(cols)
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


# --------------------------------------- distributed connected components
# Large-star/small-star (Kiveris et al., "Connected Components in MapReduce
# and Beyond", 2014): edges-only iteration, no node-state table.  Each phase
# groups the (directed) edge list by a node key — through the COARSE bucket
# exchange, like every other per-key reduce in this module — and emits
# relabeled edges; the fixed point is one star per component, rooted at the
# component-min id (identical semantics to the driver path).
_CC_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])


def _cc_orient(batch: pa.Table) -> pa.Table:
    """(u, v) → (max, min) — the canonical child→parent orientation both
    phases emit.  Accepts (id_a, id_b) input columns so
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


def _cc_node_bucket(batch: pa.Table, nbuckets: int) -> pa.Table:
    u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = (splitmix64(u) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("cc_bucket", pa.array(bucket))


def _cc_segments(g: pa.Table):
    """lexsort the bucket's (u, v) rows, collapse duplicate edges (copies
    emitted by different source groups always share their key node → one
    bucket → consecutive after the sort), and return per-u segment starts."""
    u = g.column("u").to_numpy(zero_copy_only=False)
    v = g.column("v").to_numpy(zero_copy_only=False)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.r_[True, (np.diff(u) != 0) | (np.diff(v) != 0)]
    u, v = u[keep], v[keep]
    bounds = np.r_[0, np.nonzero(np.diff(u))[0] + 1]
    seglen = np.diff(np.r_[bounds, u.size])
    return u, v, bounds, seglen


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
    mapped = edges.map_batches(
        _cc_both_directions if kind == "large" else _cc_orient, batch_format="pyarrow"
    )
    kernel = _cc_large_star if kind == "large" else _cc_small_star
    return (
        mapped.map_batches(_cc_node_bucket, fn_kwargs={"nbuckets": nbuckets}, batch_format="pyarrow")
        .groupby("cc_bucket")
        .map_groups(kernel, batch_format="pyarrow")
    )


def _cc_stats(edges: Dataset) -> tuple[int, int]:
    """(row count, order-free 64-bit multiset checksum) in one streaming
    pass — equality across consecutive iterations certifies the fixed point
    (the iteration is a deterministic function of the edge multiset, and
    labels only decrease, so a repeat can never be a cycle)."""

    def partial(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(splitmix64(u) ^ v)
        return pa.table(
            {
                "cnt": pa.array([batch.num_rows], type=pa.int64()),
                "hsum": pa.array([int(h.sum(dtype=np.uint64))], type=pa.uint64()),
            }
        )

    cnt, hsum = 0, 0
    for b in edges.map_batches(partial, batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            cnt += int(pa.compute.sum(b.column("cnt")).as_py() or 0)
            for x in b.column("hsum").to_pylist():
                hsum = (hsum + x) & 0xFFFFFFFFFFFFFFFF
    return cnt, hsum


def _cc_extract(edges: Dataset, nbuckets: int) -> Dataset:
    """Fixed-point star edges (child, root) → (doc_id, cluster_id,
    cluster_size) rows, including the root's own row.  Exchange keys on the
    ROOT hash so every member of a cluster lands in one bucket segment."""

    def bucket_root(batch: pa.Table) -> pa.Table:
        r = batch.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (splitmix64(r) % np.uint64(nbuckets)).astype(np.int32)
        return batch.append_column("cc_bucket", pa.array(bucket))

    def kernel(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "cluster_id": pa.array([], type=pa.int64()),
                    "cluster_size": pa.array([], type=pa.int64()),
                }
            )
        child = g.column("u").to_numpy(zero_copy_only=False)
        root = g.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((child, root))
        child, root = child[order], root[order]
        keep = np.r_[True, (np.diff(root) != 0) | (np.diff(child) != 0)]
        child, root = child[keep], root[keep]
        bounds = np.r_[0, np.nonzero(np.diff(root))[0] + 1]
        seglen = np.diff(np.r_[bounds, root.size])
        nonself = child != root  # self-loop star edge = singleton marker, not a member
        real_cnt = np.add.reduceat(nonself.astype(np.int64), bounds)
        sizes = real_cnt + 1  # + the root itself
        csizes = np.repeat(sizes, seglen)[nonself]
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([child[nonself], root[bounds]])),
                "cluster_id": pa.array(np.concatenate([root[nonself], root[bounds]])),
                "cluster_size": pa.array(np.concatenate([csizes, sizes]).astype(np.int64)),
            }
        )

    return (
        edges.map_batches(bucket_root, batch_format="pyarrow")
        .groupby("cc_bucket")
        .map_groups(kernel, batch_format="pyarrow")
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
    cols = edges.columns() or []  # None on schema-less (all-empty) datasets
    if "id_a" in cols:
        edges = edges.select_columns(["id_a", "id_b"])
    edges = edges.map_batches(_cc_orient, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        import ray.data as _rd

        return _rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "cluster_id": pa.array([], type=pa.int64()),
                    "cluster_size": pa.array([], type=pa.int64()),
                }
            )
        )
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
    return _cc_extract(edges, nbuckets)


def _unique_shingle_rows(
    batch: pa.Table, shingle_n: int, text_col: str, id_col: str
) -> pa.Table:
    """Explode one batch to unique (id, shingle-hash, set_size) rows — the
    shared front end of the exact set-similarity joins (jaccard and
    containment)."""
    tok = Tokenizer()
    n = batch.num_rows
    h, rows, _dls = tok.tokenize_hashes(batch.column(text_col))
    if h.size >= shingle_n:
        acc = shingle_hashes(h, shingle_n)
        valid = rows[: h.size - shingle_n + 1] == rows[shingle_n - 1 :]
        sh, srows = acc[valid].astype(np.int64), rows[: h.size - shingle_n + 1][valid]
    else:
        sh, srows = np.zeros(0, np.int64), np.zeros(0, np.int64)
    order = np.lexsort((sh, srows))
    sh, srows = sh[order], srows[order]
    if sh.size:
        keep = np.ones(sh.size, bool)
        keep[1:] = (srows[1:] != srows[:-1]) | (sh[1:] != sh[:-1])
        sh, srows = sh[keep], srows[keep]
    set_sizes = np.bincount(srows, minlength=n).astype(np.int64)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table(
        {id_col: pa.array(ids[srows]), "shingle": pa.array(sh), "set_size": pa.array(set_sizes[srows])}
    )


_PAIR_CONTAINMENT_SCHEMA = pa.schema(
    [
        ("id_a", pa.int64()),
        ("id_b", pa.int64()),
        ("inter", pa.int64()),
        ("c_ab", pa.float64()),
        ("c_ba", pa.float64()),
    ]
)


def _bucket_pair_containment(g: pa.Table, threshold: float) -> pa.Table:
    """Vectorized per-pair DIRECTIONAL containment over intersection rows:
    c(a→b) = |∩|/|A|, c(b→a) = |∩|/|B|; a pair survives when either
    direction reaches ``threshold`` (quote/copy detection is asymmetric —
    a short doc fully inside a long one has high c(a→b) but low jaccard)."""
    if g.num_rows == 0:
        return _PAIR_CONTAINMENT_SCHEMA.empty_table()
    ia, ib, order, bounds = _pair_sorted(g)
    cnt = np.diff(np.r_[bounds, ia.size]).astype(np.float64)
    na = g.column("n_a").to_numpy(zero_copy_only=False)[order][bounds].astype(np.float64)
    nb = g.column("n_b").to_numpy(zero_copy_only=False)[order][bounds].astype(np.float64)
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
    its jaccard stays tiny.  Same inverted-shingle self-join plan (explode
    → shingle hash-join → coarse pair-bucket exchange → vectorized per-pair
    scoring); no size pre-filter exists for containment (|∩| can reach
    min(|A|,|B|) at any size ratio), so every co-shingled pair is scored."""

    def explode_shingles(batch: pa.Table) -> pa.Table:
        return _unique_shingle_rows(batch, shingle_n, text_col, id_col)

    shingles = ds.map_batches(explode_shingles, batch_format="pyarrow").materialize()
    n_sh = shingles.count()
    npart = max(2, min(pool_size(), n_sh // 200_000 + 1))
    a = shingles.rename_columns({id_col: "id_a", "set_size": "n_a"})
    b = shingles.rename_columns({id_col: "id_b", "set_size": "n_b"})
    joined = a.join(b, "inner", num_partitions=npart, on=("shingle",))

    def keep_ordered(batch: pa.Table) -> pa.Table:
        ia = batch.column("id_a").to_numpy(zero_copy_only=False)
        ib = batch.column("id_b").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ia < ib))

    out = (
        joined.map_batches(keep_ordered, batch_format="pyarrow")
        .map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(lambda g: _bucket_pair_containment(g, threshold), batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "id_a": pd.Series(dtype=np.int64),
                "id_b": pd.Series(dtype=np.int64),
                "inter": pd.Series(dtype=np.int64),
                "c_ab": pd.Series(dtype=np.float64),
                "c_ba": pd.Series(dtype=np.float64),
            }
        )
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


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
    formulation of exact set-similarity join.

    Pipeline: explode every doc to unique (doc_id, shingle, set_size)
    rows → self hash-join on shingle (id_a < id_b kept) → per-pair
    groupby counts the intersection → jaccard = |∩| / (n_a + n_b - |∩|).
    All shuffles are scalar-keyed; hub shingles (stop-trigram clusters)
    bound each join key's fan-out by their df — the exact-join analogue of
    the LSH bucket skew, and the reason :func:`minhash_lsh_pairs` is the
    sub-quadratic path at corpus scale."""

    def explode_shingles(batch: pa.Table) -> pa.Table:
        return _unique_shingle_rows(batch, shingle_n, text_col, id_col)

    shingles = ds.map_batches(explode_shingles, batch_format="pyarrow").materialize()
    # join parallelism proportional to the DATA, not the cluster — each
    # hash-join partition is an aggregator actor with seconds of fixed
    # startup (same sizing rule as the MinHash verify above)
    n_sh = shingles.count()
    npart = max(2, min(pool_size(), n_sh // 200_000 + 1))
    a = shingles.rename_columns({id_col: "id_a", "set_size": "n_a"})
    b = shingles.rename_columns({id_col: "id_b", "set_size": "n_b"})
    joined = a.join(b, "inner", num_partitions=npart, on=("shingle",))

    def keep_ordered(batch: pa.Table) -> pa.Table:
        ia = batch.column("id_a").to_numpy(zero_copy_only=False)
        ib = batch.column("id_b").to_numpy(zero_copy_only=False)
        na = batch.column("n_a").to_numpy(zero_copy_only=False)
        nb = batch.column("n_b").to_numpy(zero_copy_only=False)
        # length filter (exact): jaccard <= min/max, so a pair whose set
        # sizes differ by more than the threshold ratio can never qualify
        # — dropped before the per-pair aggregate ever sees it
        ok = (ia < ib) & (np.minimum(na, nb) >= threshold * np.maximum(na, nb))
        return batch.filter(pa.array(ok))

    inter_rows = joined.map_batches(keep_ordered, batch_format="pyarrow")

    # per-pair reduce through the coarse pair-bucket exchange — a
    # pair-keyed groupby.aggregate finalizes per GROUP in Python, and at
    # ~1M distinct pairs that costs minutes (measured 136 s vs <2 s
    # bucketed on the sf0.1 showcase); the bucketed kernel segments each
    # bucket with one lexsort and scores every pair vectorized
    out = (
        inter_rows.map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(lambda g: _bucket_pair_jaccard(g, threshold), batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64), "jaccard": pd.Series(dtype=np.float64)}
        )
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


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


def simhash_near_dup_pairs(ds: Dataset, max_hamming: int = 3, text_col: str = "text", id_col: str = "doc_id") -> pd.DataFrame:
    """Candidate generation: 4 bands of 16 bits (any pair with Hamming <= 3
    must agree on >= 1 band); verify by popcount."""
    sigs = simhash_signatures(ds, text_col, id_col)

    def bands(batch: pa.Table) -> pa.Table:
        h = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        parts = [((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64) for b in range(4)]
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32), len(ids))),
                "band_hash": pa.array(np.stack(parts, axis=1).reshape(-1)),
                id_col: pa.array(np.repeat(ids, 4)),
                "simhash": pa.array(np.repeat(h.astype(np.int64), 4)),
            }
        )

    _SIM_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("hamming", pa.int64())])

    def pairs_in_band_bucket(g: pa.Table) -> pa.Table:
        # coarse bucket (see _PAIR_BUCKETS): segment by (band_id, band_hash)
        # with one lexsort; only multi-row segments — actual 16-bit-band
        # collisions — emit pairs, then ONE vectorized popcount over all
        if g.num_rows == 0:
            return _SIM_PAIR_SCHEMA.empty_table()
        bid = g.column("band_id").to_numpy(zero_copy_only=False)
        bh = g.column("band_hash").to_numpy(zero_copy_only=False)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        hs = g.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, bh, bid))
        bid, bh, ids, hs = bid[order], bh[order], ids[order], hs[order]
        keep = np.ones(bid.size, bool)  # defensive: one row per (segment, id)
        keep[1:] = (np.diff(bid) != 0) | (np.diff(bh) != 0) | (np.diff(ids) != 0)
        bid, bh, ids, hs = bid[keep], bh[keep], ids[keep], hs[keep]
        bounds = np.r_[0, np.nonzero((np.diff(bid) != 0) | (np.diff(bh) != 0))[0] + 1, np.int64(bid.size)]
        lens = np.diff(bounds)
        ai: list[np.ndarray] = []
        bi: list[np.ndarray] = []
        for s, ln in zip(bounds[:-1][lens >= 2], lens[lens >= 2]):
            a, b = np.triu_indices(int(ln), k=1)
            ai.append(s + a)
            bi.append(s + b)
        if not ai:
            return _SIM_PAIR_SCHEMA.empty_table()
        a = np.concatenate(ai)
        b = np.concatenate(bi)
        x = hs[a] ^ hs[b]
        ham = np.zeros(x.size, dtype=np.int64)
        while True:
            nz = x != 0
            if not nz.any():
                break
            ham[nz] += 1
            x = x & (x - np.uint64(1))
        return pa.table({"id_a": pa.array(ids[a]), "id_b": pa.array(ids[b]), "hamming": pa.array(ham)})

    out = (
        sigs.map_batches(bands, batch_format="pyarrow")
        .map_batches(_band_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(pairs_in_band_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
    out = out[out["hamming"] <= max_hamming].drop_duplicates(["id_a", "id_b"], ignore_index=True)
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


# ------------------------------------------------- embedding cosine near-dup
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
    Planes are broadcast once via ``ray.put``; the exchange is a groupby on
    COARSE band-code buckets (never the raw (band_id, band_code), whose
    groups are corpus-count and mostly singletons), and each bucket
    verifies inline: one lexsort segments the true code collisions, only
    multi-row segments emit pairs, and ONE gathered matmul scores every
    pair in the bucket.  The unit vector rides the exchange (bands × dim
    floats per doc) — for very wide embeddings switch to a pair→vector
    join as in the MinHash verify."""
    first = ds.take(1)[0]
    dim = len(first[emb_col])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, bands * planes_per_band))
    planes_ref = ray.put(planes)

    def bucketize(batch: pa.Table) -> pa.Table:
        from .ann import _as_matrix

        P = cached_ref(planes_ref)
        emb = _as_matrix(batch.column(emb_col))
        n = emb.shape[0]
        bits = (emb @ P) > 0
        codes = np.zeros((n, bands), dtype=np.int64)
        for b in range(bands):
            for j in range(planes_per_band):
                codes[:, b] |= bits[:, b * planes_per_band + j].astype(np.int64) << j
        norm = np.linalg.norm(emb, axis=1)
        norm[norm == 0] = 1.0
        unit = emb / norm[:, None]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        offs = np.arange(0, (n * bands + 1) * dim, dim, dtype=np.int32)
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "band_code": pa.array(codes.reshape(-1)),
                id_col: pa.array(np.repeat(ids, bands)),
                "unit": pa.ListArray.from_arrays(pa.array(offs), pa.array(np.repeat(unit, bands, axis=0).reshape(-1))),
            }
        )

    _EMB_PAIR_SCHEMA = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())]
    )

    def code_bucket(batch: pa.Table) -> pa.Table:
        bid = batch.column("band_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        bc = batch.column("band_code").to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (splitmix64(bc ^ splitmix64(bid)) % np.uint64(_PAIR_BUCKETS)).astype(np.int32)
        return batch.append_column("band_bucket", pa.array(bucket))

    def pairs_in_code_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _EMB_PAIR_SCHEMA.empty_table()
        bid = g.column("band_id").to_numpy(zero_copy_only=False)
        bc = g.column("band_code").to_numpy(zero_copy_only=False)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        U = (
            g.column("unit").combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .reshape(g.num_rows, -1)
        )
        order = np.lexsort((ids, bc, bid))
        bid, bc, ids, U = bid[order], bc[order], ids[order], U[order]
        keep = np.ones(bid.size, bool)  # defensive: one row per (segment, id)
        keep[1:] = (np.diff(bid) != 0) | (np.diff(bc) != 0) | (np.diff(ids) != 0)
        bid, bc, ids, U = bid[keep], bc[keep], ids[keep], U[keep]
        bounds = np.r_[0, np.nonzero((np.diff(bid) != 0) | (np.diff(bc) != 0))[0] + 1, np.int64(bid.size)]
        lens = np.diff(bounds)
        ai: list[np.ndarray] = []
        bi: list[np.ndarray] = []
        for s, ln in zip(bounds[:-1][lens >= 2], lens[lens >= 2]):
            a, b = np.triu_indices(int(ln), k=1)
            ai.append(s + a)
            bi.append(s + b)
        if not ai:
            return _EMB_PAIR_SCHEMA.empty_table()
        a = np.concatenate(ai)
        b = np.concatenate(bi)
        cos = np.einsum("ij,ij->i", U[a], U[b])
        m = cos >= threshold
        return pa.table(
            {"id_a": pa.array(ids[a][m]), "id_b": pa.array(ids[b][m]), "cosine": pa.array(cos[m])}
        )

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .map_batches(code_bucket, batch_format="pyarrow")
        .groupby("band_bucket")
        .map_groups(pairs_in_code_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64), "cosine": pd.Series(dtype=np.float64)}
        )
    return out.drop_duplicates(["id_a", "id_b"], ignore_index=True).sort_values(["id_a", "id_b"], ignore_index=True)


# ---------------------------------------------------------------- SemDeDup
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
    from .ann import _as_matrix, _kmeans_dists, kmeans_assign

    _, cent = kmeans_assign(
        ds, k=k, iters=iters, id_col=id_col, emb_col=emb_col, return_centroids=True
    )
    cent_ref = ray.put(cent)

    def assign_bucket(batch: pa.Table) -> pa.Table:
        C = cached_ref(cent_ref)
        emb = _as_matrix(batch.column(emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # bit-identical to the fit's own assignment kernel (same float
        # reduction order, min-cluster-index ties)
        cl, _ = _kmeans_dists(emb, C)
        cl = cl.astype(np.int64)
        norm = np.linalg.norm(emb, axis=1)
        norm[norm == 0] = 1.0
        unit = emb / norm[:, None]
        n, dim = unit.shape
        offs = np.arange(0, (n + 1) * dim, dim, dtype=np.int32)
        bucket = (splitmix64(cl.astype(np.uint64)) % np.uint64(_PAIR_BUCKETS)).astype(np.int32)
        return pa.table(
            {
                "cl_bucket": pa.array(bucket),
                "cl": pa.array(cl),
                id_col: pa.array(ids),
                "unit": pa.ListArray.from_arrays(pa.array(offs), pa.array(unit.reshape(-1))),
            }
        )

    schema = pa.schema([(id_col, pa.int64()), ("cluster", pa.int64()), ("kept", pa.int64())])

    def dedup_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return schema.empty_table()
        cl = g.column("cl").to_numpy(zero_copy_only=False)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        U = (
            g.column("unit").combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .reshape(g.num_rows, -1)
        )
        order = np.lexsort((ids, cl))
        cl, ids, U = cl[order], ids[order], U[order]
        bounds = np.r_[0, np.nonzero(np.diff(cl) != 0)[0] + 1, np.int64(cl.size)]
        kept = np.ones(cl.size, dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            ln = int(e - s)
            if ln < 2:
                continue
            S = U[s:e] @ U[s:e].T
            # dropped iff any EARLIER (smaller-id) vector in the cluster
            # is >= threshold similar; ids ascend within the segment
            drop = (np.triu(S >= threshold, k=1)).any(axis=0)
            kept[s:e][drop] = 0
        return pa.table({id_col: pa.array(ids), "cluster": pa.array(cl), "kept": pa.array(kept)})

    out = (
        ds.map_batches(assign_bucket, batch_format="pyarrow")
        .groupby("cl_bucket")
        .map_groups(dedup_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(id_col, ignore_index=True)
