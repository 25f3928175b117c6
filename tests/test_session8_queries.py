"""Session-8 invariants: multi-function function_score, MMR re-ranking,
BPE merge training, HITS, and template mining — each cross-checked against
an independent in-test reference (dense numpy / hand-computed), not just
the sf-scale SQL oracles."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def fixture_index(ray_session, tmp_path_factory):
    import pyarrow.compute as pc

    from splade_ray.config import EngineConfig
    from splade_ray.fixtures import write_web_pages
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.search import IndexReader

    root = tmp_path_factory.mktemp("s8idx")
    corpus = str(root / "web.parquet")
    out = str(root / "idx")
    cfg = EngineConfig(shard_size=400, num_buckets=4)
    write_web_pages(corpus, 1200)
    tbl = pq.read_table(corpus)
    tbl = tbl.append_column("n_chars", pc.utf8_length(tbl.column("text")).cast(pa.int64()))
    pq.write_table(tbl, corpus)
    build_index(corpus, out, cfg)
    return IndexReader(out, cfg), out, cfg, corpus


def _sharded(fixture_index, n=2):
    from splade_ray.pipelines.search import ShardedSearcher

    _reader, out, cfg, corpus = fixture_index
    return ShardedSearcher(out, cfg, num_actors=n, corpus_path=corpus)


def test_function_score_neutral_weight_is_plain_bm25(fixture_index):
    """A single unfiltered weight-1.0 function makes factor == 1.0 for every
    doc — function_score must reduce to the plain BM25 ranking."""
    reader, *_ = fixture_index
    ss = _sharded(fixture_index)
    try:
        for text in ("w0001 w0002", "w0100", "w0042 w0777 w0042"):
            plain = reader.search(text, 10)
            fs = ss.search_function_score(
                text, 10, [{"kind": "weight", "weight": 1.0, "filter": None}],
                max_boost=100.0, min_score=0.0,
            )
            assert [(d, u) for d, _s, u in fs] == [(d, u) for d, _s, u in plain]
            np.testing.assert_allclose(
                [s for _d, s, _u in fs], [s for _d, s, _u in plain], rtol=1e-12
            )
    finally:
        ss.shutdown()


def test_function_score_single_gauss_equals_search_decay(fixture_index):
    """One unfiltered gauss function with weight 1.0 is exactly the
    established search_decay kernel."""
    ss = _sharded(fixture_index)
    fn = [{
        "kind": "gauss", "attr": "n_chars", "weight": 1.0,
        "origin": 60.0, "scale": 30.0, "decay": 0.5, "filter": None,
    }]
    try:
        for text in ("w0001 w0002", "w0100 w0101"):
            via_fs = ss.search_function_score(text, 10, fn, max_boost=1e9, min_score=0.0)
            via_decay = ss.search_decay(text, 10, "n_chars", 60.0, 30.0)
            assert [(d, u) for d, _s, u in via_fs] == [(d, u) for d, _s, u in via_decay]
            np.testing.assert_allclose(
                [s for _d, s, _u in via_fs], [s for _d, s, _u in via_decay], rtol=1e-12
            )
    finally:
        ss.shutdown()


def test_function_score_max_boost_and_min_score(fixture_index):
    """The factor cap clamps scores to bm25*cap, and a huge min_score
    empties the result."""
    reader, *_ = fixture_index
    ss = _sharded(fixture_index)
    fn = [{"kind": "weight", "weight": 7.0, "filter": None}]
    try:
        text = "w0001 w0002"
        plain = {d: s for d, s, _u in reader.search(text, 1000)}
        capped = ss.search_function_score(text, 10, fn, max_boost=2.0, min_score=0.0)
        for d, s, _u in capped:
            np.testing.assert_allclose(s, plain[d] * 2.0, rtol=1e-12)
        assert ss.search_function_score(text, 10, fn, max_boost=2.0, min_score=1e9) == []
    finally:
        ss.shutdown()


def test_mmr_rerank_matches_dense_reference(ray_session, tmp_path):
    """mmr_rerank over a synthetic embedding table must equal an
    independent dense-numpy greedy MMR (same tie conventions)."""
    from splade_ray.pipelines.queries import MMR_K, MMR_LAMBDA, MMR_POOL, MMR_QUERIES, mmr_rerank

    rng = np.random.default_rng(11)
    n, d = 120, 8
    X = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                [r.astype(np.float32).tolist() for r in X], type=pa.list_(pa.float32())
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    got = mmr_rerank(str(tmp_path))

    # dense reference
    Xd = np.stack([np.asarray(r, dtype=np.float64) for r in tbl.column("embedding").to_pylist()])
    Xn = Xd / np.linalg.norm(Xd, axis=1, keepdims=True)
    lam = MMR_LAMBDA
    rows = []
    for qv in range(MMR_QUERIES):
        rel_all = Xn @ Xn[qv]
        pool = np.lexsort((np.arange(n), -np.round(rel_all, 9)))[:MMR_POOL]
        rel = rel_all[pool]
        S = Xn[pool] @ Xn[pool].T
        maxsim = np.zeros(pool.size)
        taken = np.zeros(pool.size, dtype=bool)
        for rank in range(1, MMR_K + 1):
            mmr = lam * rel - (1 - lam) * maxsim
            mmr[taken] = -np.inf
            j = int(np.lexsort((pool, -np.round(mmr, 9)))[0])
            rows.append((qv, rank, int(pool[j]), round(float(mmr[j]), 6)))
            taken[j] = True
            maxsim = np.maximum(maxsim, S[:, j])
    want = rows
    got_rows = list(
        got[["query_vec_id", "rank", "vec_id", "mmr_r"]].itertuples(index=False, name=None)
    )
    assert got_rows == want
    # selected ids are distinct per query and mmr is non-increasing
    for qv in range(MMR_QUERIES):
        sub = got[got["query_vec_id"] == qv]
        assert sub["vec_id"].nunique() == MMR_K
        assert (np.diff(sub["mmr_r"].to_numpy()) <= 1e-12).all()


def test_bpe_merges_hand_computed(ray_session, tmp_path):
    """banana/bandana corpus: merge 1 is (a,n)x4; merge 2 breaks the
    2-2 tie lexicographically to (an,a); counts follow the greedy
    left-to-right replace semantics."""
    from splade_ray.pipelines.queries import bpe_merges

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["banana", "bandana"]),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = bpe_merges(str(tmp_path))
    first = tuple(out.iloc[0][["lhs", "rhs", "merged", "pair_n"]])
    assert first == ("a", "n", "an", 4)
    second = tuple(out.iloc[1][["lhs", "rhs", "merged", "pair_n"]])
    assert second == ("an", "a", "ana", 2)


def test_bpe_merge_shrinks_symbol_stream(ray_session, tmp_path):
    """Replaying each merge over the word table must remove exactly
    pair_n symbols per step (the defining BPE invariant)."""
    from collections import Counter

    from splade_ray.pipelines.queries import bpe_merges

    texts = ["the quick brown fox", "the lazy dog dozed", "quick quick brown the"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = bpe_merges(str(tmp_path))
    words = Counter()
    for t in texts:
        for w in t.split():
            words[w] += 1
    wlist = [("|".join(w) + "|", c) for w, c in sorted(words.items())]
    for row in out.itertuples(index=False):
        before = sum((w.count("|")) * c for w, c in wlist)
        pat, rep = row.lhs + "|" + row.rhs + "|", row.merged + "|"
        wlist = [(w.replace(pat, rep), c) for w, c in wlist]
        after = sum((w.count("|")) * c for w, c in wlist)
        assert before - after == row.pair_n


@pytest.mark.parametrize("mode", ["dense", "vertex"])
def test_hits_scores_matches_dense_power_iterations(ray_session, tmp_path, mode):
    """hits_scores equals a dense-matrix HITS with the same L1-normalized
    half-steps on the same synthetic link graph, on both executors."""
    from splade_ray.pipelines.queries import HITS_ITERS, HITS_TOP, hits_scores

    n = 97
    tbl = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(["x"] * n)}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = hits_scores(str(tmp_path), mode=mode)

    A = np.zeros((n, n))
    ids = np.arange(n)
    for dst in ((ids * 3 + 1) % n, (ids * 7 + 2) % n):
        keep = ids != dst
        A[ids[keep], dst[keep]] += 1.0
    hub = np.ones(n)
    for _ in range(HITS_ITERS):
        auth = A.T @ hub
        auth /= auth.sum()
        hub = A @ auth
        hub /= hub.sum()
    order = np.lexsort((np.arange(n), -np.round(auth, 9)))[:HITS_TOP]
    want = sorted(
        (int(i), round(float(auth[i]), 6), round(float(hub[i]), 6)) for i in order
    )
    got_rows = list(got[["doc_id", "auth_r", "hub_r"]].itertuples(index=False, name=None))
    assert got_rows == want


def test_template_signatures_counts(ray_session, tmp_path):
    """Known template families: digit tokens collapse to <num> and the
    biggest family wins with its smallest doc_id as the example."""
    from splade_ray.pipelines.queries import template_signatures

    texts = (
        [f"error code {i} at line {i * 7} module alpha restarting now ok" for i in range(6)]
        + [f"user {i} logged in from host {i} session open fine today" for i in range(4)]
        + ["completely unique document text with no siblings at all here"]
    )
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = template_signatures(str(tmp_path))
    assert out.iloc[0]["signature"] == "error code <num> at line <num> module alpha"
    assert int(out.iloc[0]["n_docs"]) == 6 and int(out.iloc[0]["example_doc_id"]) == 0
    assert out.iloc[1]["signature"] == "user <num> logged in from host <num> session"
    assert int(out.iloc[1]["n_docs"]) == 4 and int(out.iloc[1]["example_doc_id"]) == 6


def test_containment_catches_what_jaccard_misses(ray_session, tmp_path):
    """A short doc embedded verbatim in a long one: c(short→long) == 1.0
    while jaccard stays under the 0.5 dedup threshold — plus a dense
    brute-force check of every reported pair."""
    from splade_ray.pipelines.dedup import containment_pairs, ngram_jaccard_pairs
    import ray.data as rd

    short = "alpha beta gamma delta epsilon zeta"
    long = short + " " + " ".join(f"filler{i} pad{i} word{i}" for i in range(20))
    other = "totally different content " + " ".join(f"x{i} y{i}" for i in range(10))
    tbl = pa.table(
        {"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array([short, long, other])}
    )
    ds = rd.from_arrow(tbl)
    cont = containment_pairs(ds, threshold=0.9)
    assert [(int(r.id_a), int(r.id_b)) for r in cont.itertuples()] == [(0, 1)]
    np.testing.assert_allclose(cont.iloc[0]["c_ab"], 1.0)
    jac = ngram_jaccard_pairs(ds, threshold=0.5)
    assert jac.empty  # jaccard misses the embedded copy

    # brute-force shingle sets agree on the intersection count
    def shingles(t):
        ts = t.split()
        return {tuple(ts[i : i + 3]) for i in range(len(ts) - 2)}

    sa, sb = shingles(short), shingles(long)
    assert int(cont.iloc[0]["inter"]) == len(sa & sb)


def test_bpe_encode_conserves_characters(ray_session, tmp_path):
    """Symbols partition the corpus characters: sum(freq · |symbol|) must
    equal the total token-character count, before and after merging."""
    from splade_ray.pipelines.queries import _bpe_train, _bpe_word_table, bpe_encode

    texts = ["aa ab aa ba", "ab aa bb aa", "ba bb ab aa"]
    tbl = pa.table({"doc_id": pa.array(range(3), pa.int64()), "text": pa.array(texts)})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = bpe_encode(str(tmp_path))
    total_chars = sum(len(w) for t in texts for w in t.split())
    assert int((out["freq"] * out["symbol"].str.len()).sum()) == total_chars

    # and the full (untruncated) symbol table from the train helper agrees
    _rows, wlist = _bpe_train(_bpe_word_table(str(tmp_path)), 6)
    freq: dict[str, int] = {}
    for w, c in wlist:
        for s in w.split("|")[:-1]:
            freq[s] = freq.get(s, 0) + c
    want = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert list(out.itertuples(index=False, name=None)) == want


def test_variable_width_histogram_matches_dense_lloyd(ray_session, tmp_path):
    """The streaming k-means bucketing equals a dense numpy Lloyd with the
    same seeds/ties/rounding."""
    from splade_ray.pipelines.queries import VWH_BUCKETS, VWH_ITERS, variable_width_histogram

    rng = np.random.default_rng(5)
    x = np.concatenate([rng.integers(10, 60, 200), rng.integers(300, 400, 150), rng.integers(900, 950, 50)])
    tbl = pa.table({"doc_id": pa.array(np.arange(x.size, dtype=np.int64)), "n_chars": pa.array(x.astype(np.int64))})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = variable_width_histogram(str(tmp_path))

    xd = x.astype(np.float64)
    cents = np.round(np.unique(xd)[:VWH_BUCKETS], 9)
    for _ in range(VWH_ITERS):
        cl = np.argmin((xd[:, None] - cents[None, :]) ** 2, axis=1)
        upd = cents.copy()
        for k in range(VWH_BUCKETS):
            if (cl == k).any():
                upd[k] = xd[cl == k].mean()
        cents = np.round(upd, 9)
    cl = np.argmin((xd[:, None] - cents[None, :]) ** 2, axis=1)
    rows = []
    for k in range(VWH_BUCKETS):
        m = cl == k
        if m.any():
            rows.append((k, int(m.sum()), int(xd[m].min()), int(xd[m].max()), round(float(xd[m].mean()), 6)))
    assert list(got.itertuples(index=False, name=None)) == rows


def test_alias_registry_roundtrip_and_unfiltered_identity(fixture_index, tmp_path):
    """aliases.json round-trips atomically; search_filtered with an
    allow-all mask equals plain federated search."""
    from splade_ray.pipelines.search import FederatedReader
    from splade_ray.state.aliases import get_alias, list_aliases, put_alias

    reader, out, cfg, corpus = fixture_index
    put_alias(str(tmp_path), "a1", [out], {"col": "lang", "op": "eq", "value": "en"})
    put_alias(str(tmp_path), "a2", [out, out], None)
    segs, filt = get_alias(str(tmp_path), "a1")
    assert segs == [out] and filt["value"] == "en"
    assert set(list_aliases(str(tmp_path))) == {"a1", "a2"}
    put_alias(str(tmp_path), "a1", [out], None)  # replace
    assert get_alias(str(tmp_path), "a1")[1] is None

    fr = FederatedReader([out], cfg)
    all_urls = pa.array(sorted(u for sh in reader.shards for u in sh.urls.to_pylist()))
    for text in ("w0001 w0002", "w0100"):
        assert fr.search_filtered(text, 10, allow_urls=all_urls) == fr.search(text, 10)
