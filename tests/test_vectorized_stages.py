"""Vectorized batch stages must equal their per-row reference paths on
mixed inputs (empty/None/CJK/repeat-token/digit rows) — the guard for the
Arrow-dictionary rewrites of minhash/simhash/langid/token-stats."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from splade_ray.functions.hashing import hash_strings, md5_u64
from splade_ray.pipelines.dedup import MinHashStage, SimHashStage
from splade_ray.pipelines.textops import FingerprintStage, LangIdStage, TokenStatsStage
from splade_ray.tokenizer import Tokenizer

TEXTS = [
    "the cat and the dog",
    "",
    "der die das und ist",
    "안녕하세요 세계 hello",
    "el la de que y",
    "le la les et de",
    "123 456 numbers 789",
    "one",
    None,
    "the the the",
    "漢字のテキストです中文",
]


@pytest.fixture(scope="module")
def batch():
    return pa.table(
        {"doc_id": pa.array(range(len(TEXTS)), type=pa.int64()), "text": pa.array(TEXTS, type=pa.string())}
    )


def test_langid_matches_per_row(batch):
    lid = LangIdStage()
    for row, t in zip(lid(batch).to_pylist(), TEXTS):
        exp = lid.predict(t or "")
        assert row["lang_pred"] == exp[0], t
        assert row["lang_score"] == pytest.approx(exp[1], abs=1e-12)


def test_minhash_matches_per_row(batch):
    mh = MinHashStage(num_perm=16)
    out = mh(batch)
    for i, t in enumerate(TEXTS):
        assert np.array_equal(mh.signature(t or ""), np.asarray(out.column("sig")[i].as_py())), t


def test_simhash_matches_per_row(batch):
    sh = SimHashStage()
    out = sh(batch).to_pylist()
    tok = Tokenizer()
    for i, t in enumerate(TEXTS):
        th = md5_u64(tok.tokenize(t or ""))
        ref = np.uint64(0)
        for b in range(64):
            bits = ((th >> np.uint64(b)) & np.uint64(1)).astype(np.int64) * 2 - 1
            ref |= np.uint64(bits.sum() > 0) << np.uint64(b)
        assert out[i]["simhash"] == ref.astype(np.int64), t


def test_token_stats_match_per_row(batch):
    r = TokenStatsStage()(batch).to_pandas()
    tok = Tokenizer()
    for i, t in enumerate(TEXTS):
        toks = tok.tokenize(t or "")
        assert r["n_tokens"][i] == len(toks)
        assert r["n_chars"][i] == len(t or "")
        if toks:
            assert r["mean_token_len"][i] == pytest.approx(np.mean([len(x) for x in toks]))


def test_fingerprint_chunk_invariant(batch):
    fp = FingerprintStage()
    whole = [r["fingerprint"] for r in fp(batch).to_pylist()]
    split = [r["fingerprint"] for r in fp(batch.slice(0, 5)).to_pylist()] + [
        r["fingerprint"] for r in fp(batch.slice(5)).to_pylist()
    ]
    assert whole == split


# ---- coarse-bucket pair kernels (pure numpy — no Ray needed) ----


def test_band_bucket_candidate_pairs_match_bruteforce():
    from splade_ray.pipelines.dedup import _PAIR_BUCKETS, candidate_pairs_from_band_bucket

    rng = np.random.default_rng(11)
    n = 400
    bid = rng.integers(0, 4, n).astype(np.int32)
    # few distinct hashes → plenty of multi-row segments
    bh = rng.integers(0, 25, n).astype(np.int64)
    ids = rng.integers(0, 10_000, n).astype(np.int64)
    g = pa.table({"band_id": pa.array(bid), "band_hash": pa.array(bh), "doc_id": pa.array(ids)})
    got = candidate_pairs_from_band_bucket(g)
    got_pairs = set(zip(got.column("id_a").to_pylist(), got.column("id_b").to_pylist()))
    want = set()
    for b, h in {(int(b), int(h)) for b, h in zip(bid, bh)}:
        seg = np.unique(ids[(bid == b) & (bh == h)])
        for i in range(seg.size):
            for j in range(i + 1, seg.size):
                want.add((int(seg[i]), int(seg[j])))
    assert got_pairs == want
    assert (got.column("id_a").to_numpy(zero_copy_only=False) < got.column("id_b").to_numpy(zero_copy_only=False)).all()
    # empty group
    assert candidate_pairs_from_band_bucket(g.slice(0, 0)).num_rows == 0


def test_bucket_pair_jaccard_segments():
    from splade_ray.pipelines.dedup import _bucket_pair_jaccard

    # two pairs: (1,2) with |∩|=3, sizes 4/5 → j=3/6; (3,4) |∩|=1, sizes 9/2 → j=0.1
    rows = {
        "id_a": [1] * 3 + [3],
        "id_b": [2] * 3 + [4],
        "n_a": [4] * 3 + [9],
        "n_b": [5] * 3 + [2],
    }
    g = pa.table({k: pa.array(v, type=pa.int64()) for k, v in rows.items()})
    out = _bucket_pair_jaccard(g, threshold=0.3)
    assert out.column("id_a").to_pylist() == [1] and abs(out.column("jaccard")[0].as_py() - 0.5) < 1e-12
    out_all = _bucket_pair_jaccard(g, threshold=0.05)
    assert out_all.num_rows == 2
    assert _bucket_pair_jaccard(g.slice(0, 0), threshold=0.5).num_rows == 0


def test_exact_dup_pairs_positive(ray_session, tmp_path):
    """The bucketed exact-dup path must emit transitive pair sets (one
    pair per duplicate-text combination), id_a < id_b."""
    import os

    import pyarrow.parquet as pq

    from splade_ray.pipelines.queries import exact_dup_pairs

    texts = ["alpha beta gamma", "delta", "alpha beta gamma", "epsilon", "delta", "alpha beta gamma", "unique one"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(7), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 7),
            "source": pa.array(["s"] * 7),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, os.path.join(tmp_path, "documents.parquet"))
    out = exact_dup_pairs(str(tmp_path))
    assert set(zip(out["id_a"], out["id_b"])) == {(0, 2), (0, 5), (2, 5), (1, 4)}


def test_minhash_verify_paths_equivalent(ray_session):
    """The CSR-broadcast verify (default at test scale) and the
    distributed join verify (forced via the injectable limits) must
    produce identical pairs."""
    import ray.data as rd

    from splade_ray.pipelines.dedup import minhash_lsh_pairs

    rng = np.random.default_rng(3)
    words = [f"tok{i}" for i in range(60)]
    base = [" ".join(rng.choice(words, 40)) for _ in range(40)]
    texts = list(base)
    for i in range(0, 12, 2):  # near-dups: perturb one token
        toks = base[i].split()
        toks[5] = "mutated"
        texts.append(" ".join(toks))
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts)})
    ds = rd.from_arrow(tbl).repartition(4)
    kw = dict(threshold=0.5, bands=32)
    fast = minhash_lsh_pairs(ds, **kw)
    slow = minhash_lsh_pairs(ds, **kw, csr_broadcast_limit=0, semi_broadcast_limit=0)
    assert len(fast) > 0  # the perturbed docs must actually pair up
    import pandas as pd

    pd.testing.assert_frame_equal(
        fast.round(9).reset_index(drop=True), slow.round(9).reset_index(drop=True), check_dtype=False
    )


def test_embedding_near_dup_positive(ray_session):
    """The coarse-bucketed hyperplane-LSH path must find every exact
    duplicate vector (all planes agree -> candidate guaranteed), report
    cosine ~1, and any extra pairs must be a subset of the brute-force
    threshold pairs with correct cosines."""
    import ray.data as rd

    from splade_ray.pipelines.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((30, 16))
    vecs = np.vstack([base, base[:6], base[6:10] + 0.01 * rng.standard_normal((4, 16))])
    ids = np.arange(vecs.shape[0], dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array([v.astype(np.float32) for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    got = embedding_near_dup_pairs(
        rd.from_arrow(tbl).repartition(3), threshold=0.99, emb_col="embedding", id_col="vec_id"
    )
    # brute force over the same float32-rounded vectors
    f32 = vecs.astype(np.float32).astype(np.float64)
    U = f32 / np.linalg.norm(f32, axis=1, keepdims=True)
    sims = U @ U.T
    a, b = np.triu_indices(len(ids), k=1)
    brute = {(int(x), int(y)): sims[x, y] for x, y in zip(a[sims[a, b] >= 0.99], b[sims[a, b] >= 0.99])}
    got_pairs = {(int(r.id_a), int(r.id_b)): r.cosine for r in got.itertuples()}
    # exact dups (30+i vs i) must all be found
    for i in range(6):
        assert (i, 30 + i) in got_pairs, f"exact dup ({i},{30+i}) missed"
    assert set(got_pairs) <= set(brute)
    for p, c in got_pairs.items():
        assert abs(c - brute[p]) < 1e-9


def test_distributed_vocab_equals_driver_reduce(ray_session):
    """compute_vocab(distributed=True) — the billion-term escape path,
    coarse term-hash buckets + per-bucket Arrow group_by — must equal the
    driver-reduce default exactly (term order, ids, dfs)."""
    import pandas as pd
    import ray.data as rd

    from splade_ray.stages.stats import compute_vocab

    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(200)]
    docs = [list(rng.choice(words, rng.integers(1, 30), replace=False)) for _ in range(300)]
    tbl = pa.table({"terms": pa.array(docs, type=pa.list_(pa.string()))})
    ds = rd.from_arrow(tbl).repartition(7)
    pd.testing.assert_frame_equal(compute_vocab(ds), compute_vocab(ds, distributed=True))
    # zero-row input: both paths must return the same well-formed empty vocab
    empty = rd.from_arrow(pa.table({"terms": pa.array([], type=pa.list_(pa.string()))}))
    pd.testing.assert_frame_equal(compute_vocab(empty), compute_vocab(empty, distributed=True))


def _brute_repetition(text: str):
    toks = Tokenizer().pattern.findall((text or "").lower())
    n = len(toks)
    if n == 0:
        return 0, 0.0, 0.0, 0
    dup = (n - len(set(toks))) / n
    bigrams = list(zip(toks, toks[1:]))
    top_bg = max((bigrams.count(b) for b in set(bigrams)), default=0) / max(len(bigrams), 1)
    best = run = 1
    for a, b in zip(toks, toks[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return n, dup, top_bg, best


def test_repetition_stage_matches_bruteforce(batch):
    from splade_ray.pipelines.textops import RepetitionStage

    out = RepetitionStage()(batch).to_pylist()
    for row, t in zip(out, TEXTS):
        n, dup, top_bg, best = _brute_repetition(t or "")
        assert row["n_tokens"] == n, t
        assert abs(row["dup_token_frac"] - dup) < 1e-12, t
        assert abs(row["top_bigram_frac"] - top_bg) < 1e-12, t
        assert row["max_run_len"] == (best if n else 0), t


def test_repetition_stage_chunk_invariant(batch):
    from splade_ray.pipelines.textops import RepetitionStage

    stage = RepetitionStage()
    whole = stage(batch).to_pylist()
    parts = [r for i in range(batch.num_rows) for r in stage(batch.slice(i, 1)).to_pylist()]
    assert whole == parts


def _brute_trigrams(text: str) -> set:
    toks = Tokenizer().pattern.findall((text or "").lower())
    hs = md5_u64(toks) if toks else np.zeros(0, np.uint64)
    R = np.uint64(0x100000001B3)
    out = set()
    with np.errstate(over="ignore"):
        for i in range(len(toks) - 2):
            out.add(int((hs[i] * R + hs[i + 1]) * R + hs[i + 2]))
    return out


def test_contamination_stage_matches_bruteforce():
    from splade_ray.pipelines.textops import ContaminationStage

    corpus = ["a b c d e", "a b c", "x y z w", "", "q q q q", None, "a b"]
    bench_texts = ["a b c d", "q q q"]
    bench = sorted(set().union(*[_brute_trigrams(t) for t in bench_texts]))
    stage = ContaminationStage(np.asarray(bench, dtype=np.uint64))
    tbl = pa.table(
        {"doc_id": pa.array(range(len(corpus)), type=pa.int64()), "text": pa.array(corpus, type=pa.string())}
    )
    out = stage(tbl).to_pylist()
    bset = set(bench)
    for row, t in zip(out, corpus):
        tri = _brute_trigrams(t or "")
        assert row["n_trigrams"] == len(tri), t
        assert row["n_hit"] == len(tri & bset), t
        exp = len(tri & bset) / len(tri) if tri else 0.0
        assert abs(row["contamination"] - exp) < 1e-12, t


def test_contamination_empty_benchmark():
    from splade_ray.pipelines.textops import ContaminationStage

    stage = ContaminationStage(np.zeros(0, np.uint64))
    tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()), "text": pa.array(["a b c d"], type=pa.string())})
    row = stage(tbl).to_pylist()[0]
    assert row["n_trigrams"] == 2 and row["n_hit"] == 0 and row["contamination"] == 0.0


def test_tfidf_top_terms_partition_invariant(ray_session):
    """Keyword extraction must not depend on batch/partition boundaries
    (global df broadcast + per-row selection only)."""
    import ray.data as rd

    from splade_ray.pipelines.textops import tfidf_top_terms

    texts = [t or "" for t in TEXTS] * 10
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())}
    )
    outs = []
    for nparts in (1, 7):
        ds = rd.from_arrow(tbl).repartition(nparts)
        df = tfidf_top_terms(ds, k=3).to_pandas().sort_values(["doc_id", "rank"], ignore_index=True)
        outs.append(df)
    assert outs[0].equals(outs[1])
    row0 = outs[0][outs[0].doc_id == 0]
    assert list(row0["rank"]) == [1, 2, 3]
    assert (row0["tfidf"] > 0).all()


def test_curation_stage_chunk_invariant_and_edges(batch):
    from splade_ray.pipelines.textops import CurationStage

    lax = CurationStage(min_tokens=2, max_dup_frac=0.9, min_stopword=0.0, max_stopword=1.0, max_run=3)
    whole = lax(batch).to_pylist()
    parts = [r for i in range(batch.num_rows) for r in lax(batch.slice(i, 1)).to_pylist()]
    assert whole == parts
    ids = {r["doc_id"] for r in whole}
    assert 1 not in ids and 8 not in ids  # empty / null rows fail min_tokens
    assert 9 in ids  # "the the the": dup 2/3, run 3 — inside the lax bounds
    strict_run = CurationStage(min_tokens=2, max_dup_frac=0.9, min_stopword=0.0, max_stopword=1.0, max_run=2)
    assert 9 not in {r["doc_id"] for r in strict_run(batch).to_pylist()}  # run of 3 > 2
    strict_dup = CurationStage(min_tokens=2, max_dup_frac=0.5, min_stopword=0.0, max_stopword=1.0, max_run=3)
    assert 9 not in {r["doc_id"] for r in strict_dup(batch).to_pylist()}  # dup 2/3 > 0.5


def test_chunk_stage_matches_bruteforce(batch):
    from splade_ray.pipelines.textops import ChunkStage

    st = ChunkStage(window=4, stride=3)
    out = st(batch).to_pylist()
    tok = Tokenizer()
    exp = []
    for i, t in enumerate(TEXTS):
        toks = tok.tokenize(t or "")
        start = 0
        ci = 0
        while toks and start < len(toks):
            ct = toks[start : start + 4]
            exp.append({"doc_id": i, "chunk_idx": ci, "n_tokens": len(ct), "chunk_text": " ".join(ct)})
            if start + 4 >= len(toks):
                break
            start += 3
            ci += 1
    assert out == exp


def test_chunk_stage_chunk_invariant(batch):
    """Row-independent: chunking per-row slices equals the whole batch."""
    from splade_ray.pipelines.textops import ChunkStage

    st = ChunkStage(window=5, stride=5)
    whole = st(batch).to_pylist()
    parts = []
    for i in range(batch.num_rows):
        parts.extend(st(batch.slice(i, 1)).to_pylist())
    assert whole == parts


def test_chunk_stage_edges():
    from splade_ray.pipelines.textops import ChunkStage

    st = ChunkStage(window=3, stride=2)
    # exact multiple: 5 tokens, W=3,S=2 -> chunks [0:3],[2:5]
    b = pa.table({"doc_id": pa.array([7], type=pa.int64()), "text": pa.array(["a b c d e"])})
    out = st(b).to_pylist()
    assert [r["chunk_text"] for r in out] == ["a b c", "c d e"]
    # shorter than window -> one short chunk; empty -> none
    b2 = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()), "text": pa.array(["xy", ""])})
    out2 = st(b2).to_pylist()
    assert out2 == [{"doc_id": 1, "chunk_idx": 0, "n_tokens": 1, "chunk_text": "xy"}]
    with pytest.raises(ValueError):
        ChunkStage(window=2, stride=3)


def test_bigram_pmi_matches_bruteforce(ray_session):
    import math
    from collections import Counter

    import ray.data as rd

    from splade_ray.pipelines.textops import bigram_pmi_top

    texts = [
        "new york is a big city",
        "new york new york",
        "the city of new york",
        "big apple big apple big apple",
        "",
        None,
        "apple pie and apple juice",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())})
    out = bigram_pmi_top(rd.from_arrow(t).repartition(3), k=5, min_count=2)
    tok = Tokenizer()
    uni, bg = Counter(), Counter()
    n_bg = 0
    for txt in texts:
        toks = tok.tokenize(txt or "")
        uni.update(toks)
        bg.update(zip(toks, toks[1:]))
        n_bg += max(len(toks) - 1, 0)
    n_tok = sum(uni.values())
    scored = [
        (math.log(c * n_tok * n_tok / (n_bg * uni[a] * uni[b])), a, b, c)
        for (a, b), c in bg.items()
        if c >= 2
    ]
    scored.sort(key=lambda r: (-r[0], r[1], r[2]))
    exp = scored[:5]
    got = list(out.itertuples(index=False))
    assert len(got) == len(exp)
    for g, (pmi, a, b, c) in zip(got, exp):
        assert (g.term_a, g.term_b, g.pair_count) == (a, b, c)
        assert g.pmi == pytest.approx(pmi, rel=1e-12)
    assert out["rank"].tolist() == list(range(1, len(exp) + 1))


def test_dup_spans_matches_bruteforce(ray_session):
    from collections import Counter

    import ray.data as rd

    from splade_ray.pipelines.textops import duplicate_spans

    texts = [
        "a b c d e f g h",          # shares a-b-c-d-e with doc 1
        "x a b c d e y z",
        "p q r s t u v w",          # unique
        "m m m m m m",              # within-doc repeats only (not cross-doc)
        "short one",                # < window tokens -> no row
        None,
        "x a b c d e y z",          # exact dup of doc 1 -> all windows dup
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())})
    out = (
        duplicate_spans(rd.from_arrow(t).repartition(3), window=5, n_buckets=7)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    tok = Tokenizer()
    W = 5
    docs = {i: tok.tokenize(x or "") for i, x in enumerate(texts)}
    owners: dict[tuple, set] = {}
    for i, toks in docs.items():
        for k in range(max(len(toks) - W + 1, 0)):
            owners.setdefault(tuple(toks[k : k + W]), set()).add(i)
    exp = []
    for i, toks in docs.items():
        wins = [tuple(toks[k : k + W]) for k in range(max(len(toks) - W + 1, 0))]
        if not wins:
            continue
        nd = sum(1 for w in wins if len(owners[w]) >= 2)
        exp.append((i, len(wins), nd, nd / len(wins)))
    exp.sort()
    got = [(r.doc_id, r.n_windows, r.n_dup_windows, r.dup_frac) for r in out.itertuples(index=False)]
    assert [(a, b, c) for a, b, c, _ in exp] == [(a, b, c) for a, b, c, _ in got]
    for (_, _, _, ef), (_, _, _, gf) in zip(exp, got):
        assert gf == pytest.approx(ef, abs=1e-12)
    # doc 3's within-doc repeats are NOT cross-doc dups; doc 4/None emit no row
    row3 = out[out.doc_id == 3].iloc[0]
    assert row3.n_dup_windows == 0
    assert set(out.doc_id) == {0, 1, 2, 3, 6}


def test_unigram_lm_scores_matches_bruteforce(ray_session):
    import math
    from collections import Counter

    import ray.data as rd

    from splade_ray.pipelines.textops import unigram_lm_scores

    texts = ["a a b c", "b c d", "", None, "a d d d"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())})
    out = (
        unigram_lm_scores(rd.from_arrow(t).repartition(2))
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    tok = Tokenizer()
    docs = [tok.tokenize(x or "") for x in texts]
    cnt = Counter()
    for d in docs:
        cnt.update(d)
    n = sum(cnt.values())
    assert len(out) == len(texts)
    for i, d in enumerate(docs):
        r = out[out.doc_id == i].iloc[0]
        assert r.n_tokens == len(d)
        ce = -sum(math.log(cnt[w] / n) for w in d) / len(d) if d else 0.0
        assert r.cross_entropy == pytest.approx(ce, rel=1e-12)
        assert r.ppl == pytest.approx(math.exp(ce), rel=1e-12)


def test_order_priority_revenue_edges(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from splade_ray.pipelines.queries import order_priority_revenue

    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3], type=pa.int64()),
            "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "1-URGENT"]),
            "o_orderdate": pa.array(
                [pd.Timestamp("2024-01-05"), pd.Timestamp("2024-01-20"), pd.Timestamp("2024-02-01")]
            ),
        }
    )
    # order 2 has no lineitems; orderkey 99 has no order (orphan, dropped)
    items = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 3, 99], type=pa.int64()),
            "l_extendedprice": pa.array([100.00, 50.50, 20.00, 7.00]),
            "l_discount": pa.array([0.10, 0.00, 0.05, 0.00]),
        }
    )
    pq.write_table(orders, str(tmp_path / "orders.parquet"))
    pq.write_table(items, str(tmp_path / "lineitem.parquet"))
    out = order_priority_revenue(str(tmp_path))
    assert out["o_orderpriority"].tolist() == ["1-URGENT", "1-URGENT", "2-HIGH"][:len(out)]
    # inner-join semantics: order 2 absent, orphan item absent
    assert len(out) == 2
    jan = out.iloc[0]
    assert jan.order_month == pd.Timestamp("2024-01-01")
    assert jan.n_items == 2 and jan.n_orders == 1
    assert jan.revenue == pytest.approx(100.0 * 0.9 + 50.5, abs=1e-9)
    feb = out.iloc[1]
    assert feb.order_month == pd.Timestamp("2024-02-01")
    assert feb.n_items == 1 and feb.n_orders == 1
    assert feb.revenue == pytest.approx(19.0, abs=1e-9)


def test_hll_sketch_accuracy_and_exactness(ray_session):
    import ray.data as rd

    from splade_ray.functions.hashing import md5_u64
    from splade_ray.pipelines.textops import _bitlen_u64, _row_trigrams, approx_distinct_trigrams

    # exact bit length on edge values
    vals = np.array([0, 1, 2, 3, 4, 2**53 - 1, 2**53, 2**54 - 1], dtype=np.uint64)
    assert _bitlen_u64(vals).tolist() == [0, 1, 2, 2, 3, 53, 54, 54]

    rng = np.random.default_rng(7)
    words = [f"w{i:04d}" for i in range(300)]
    texts = [" ".join(rng.choice(words, size=40)) for _ in range(200)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())})
    out = approx_distinct_trigrams(rd.from_arrow(t).repartition(4))

    # brute-force HLL over the same trigram hashes must agree EXACTLY
    tok = Tokenizer()
    th, rows, _ = tok.tokenize_md5(t.column("text").combine_chunks())
    trig, _tr = _row_trigrams(th, rows)
    regs = np.zeros(1024, dtype=np.int64)
    idx = (trig >> np.uint64(54)).astype(np.int64)
    w = trig & np.uint64(2**54 - 1)
    np.maximum.at(regs, idx, 55 - _bitlen_u64(w))
    alpha = 0.7213 / (1.0 + 1.079 / 1024)
    s = float(np.sum(np.power(2.0, -regs.astype(np.float64))))
    raw = alpha * 1024 * 1024 / s
    v0 = int(np.count_nonzero(regs == 0))
    exp = 1024 * np.log(1024 / v0) if (raw <= 2560 and v0 > 0) else raw
    assert out["v_zero"].iloc[0] == v0
    assert out["estimate"].iloc[0] == pytest.approx(exp, rel=1e-12)

    # and the estimate lands within ~5 sigma of the true distinct count
    n_true = len(np.unique(trig))
    assert abs(out["estimate"].iloc[0] - n_true) / n_true < 5 * 1.04 / np.sqrt(1024)


def test_cms_sketch_onesided_and_exact(ray_session):
    from collections import Counter

    import ray.data as rd

    from splade_ray.pipelines.textops import cms_term_counts

    rng = np.random.default_rng(5)
    words = [f"t{i}" for i in range(120)]
    texts = [" ".join(rng.choice(words, size=30)) for _ in range(60)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts)})
    out = cms_term_counts(rd.from_arrow(t).repartition(3), d=4, w=32)
    tok = Tokenizer()
    exact = Counter()
    for x in texts:
        exact.update(tok.tokenize(x))
    assert set(out["term"]) == set(exact)
    for r in out.itertuples(index=False):
        assert r.exact_count == exact[r.term]
        assert r.est_count >= r.exact_count  # CMS is one-sided
        assert r.overestimate == r.est_count - r.exact_count
    # with w=32 and 120 terms there MUST be visible collisions
    assert (out["overestimate"] > 0).any()


def test_cut_duplicate_spans_bruteforce(ray_session):
    import ray.data as rd

    from splade_ray.pipelines.textops import cut_duplicate_spans

    texts = [
        "a b c d e f g h",            # owner of a-b-c-d-e (min doc) — keeps it
        "x a b c d e y z",            # non-owner: positions 1..5 covered
        "p q r s t u v w",            # untouched
        "short",                      # < window: untouched, 1 token
        None,                         # empty
        "x a b c d e y z",            # exact dup of doc 1 (non-owner of all its spans)
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts)})
    out = (
        cut_duplicate_spans(rd.from_arrow(t).repartition(3), window=5, n_buckets=7)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    W = 5
    tok = Tokenizer()
    docs = {i: tok.tokenize(x or "") for i, x in enumerate(texts)}
    owners: dict[tuple, list] = {}
    for i, toks in docs.items():
        for k in range(max(len(toks) - W + 1, 0)):
            owners.setdefault(tuple(toks[k : k + W]), []).append(i)
    exp = {}
    for i, toks in docs.items():
        covered = [False] * len(toks)
        for k in range(max(len(toks) - W + 1, 0)):
            o = owners[tuple(toks[k : k + W])]
            if len(set(o)) >= 2 and i != min(o):
                for j in range(k, min(k + W, len(toks))):
                    covered[j] = True
        kept = [tk for tk, c in zip(toks, covered) if not c]
        exp[i] = (len(toks), sum(covered), " ".join(kept))
    assert len(out) == len(texts)
    for r in out.itertuples(index=False):
        n, cut, txt = exp[r.doc_id]
        assert (r.n_tokens, r.n_cut, r.cleaned_text) == (n, cut, txt), r.doc_id
    # doc 0 is the min owner → untouched; doc 1 loses its shared run; doc 5 loses everything
    assert out.loc[0, "n_cut"] == 0
    assert out.loc[1, "n_cut"] > 0
    assert out.loc[5, "n_cut"] == len(docs[5])
    assert out.loc[5, "cleaned_text"] == ""


def test_kmeans_assign_matches_numpy(ray_session):
    import ray.data as rd

    from splade_ray.pipelines.ann import kmeans_assign

    rng = np.random.default_rng(19)
    n, d, k, iters = 120, 8, 3, 3
    X = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids), "embedding": pa.array([r.astype(np.float32) for r in X], type=pa.list_(pa.float32()))})
    out = (
        kmeans_assign(rd.from_arrow(t).repartition(4), k=k, iters=iters)
        .to_pandas()
        .sort_values("vec_id", ignore_index=True)
    )
    # pure-numpy reference with the exact deterministic spec
    Xd = X.astype(np.float32).astype(np.float64)
    cent = Xd[:k].copy()
    for _ in range(iters):
        dist = ((Xd[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(dist, axis=1)
        for c in range(k):
            if (a == c).any():
                cent[c] = Xd[a == c].mean(axis=0)
    dist = ((Xd[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(dist, axis=1)
    best = dist[np.arange(n), a]
    assert out["cluster"].tolist() == a.tolist()
    np.testing.assert_allclose(out["dist"].to_numpy(), best, rtol=1e-9)
    assert len(set(out["cluster"])) == k


def test_kmeans_assign_fewer_vectors_than_k(ray_session):
    """n < k clamps to n singleton clusters instead of a broadcast crash
    (ADVICE r2): every vector seeds (and keeps) its own centroid."""
    import ray.data as rd

    from splade_ray.pipelines.ann import kmeans_assign

    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 4))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(3, dtype=np.int64)),
            "embedding": pa.array([r.astype(np.float32) for r in X], type=pa.list_(pa.float32())),
        }
    )
    out = kmeans_assign(rd.from_arrow(t), k=8, iters=2).to_pandas().sort_values("vec_id", ignore_index=True)
    assert out["cluster"].tolist() == [0, 1, 2]
    np.testing.assert_allclose(out["dist"].to_numpy(), 0.0, atol=1e-12)


def test_ivf_fit_default_is_bounded(ray_session):
    """Default fit_assign derives a bounded sample fraction (never the
    full corpus on the driver) and search still returns exact top-k at
    nprobe == n_clusters (probes every list)."""
    import ray.data as rd

    from splade_ray.pipelines.ann import IVFIndex, brute_force_topk

    rng = np.random.default_rng(9)
    n, d = 400, 8
    X = rng.standard_normal((n, d)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(X), type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(t).repartition(4)
    Q = rng.standard_normal((3, d))
    idx = IVFIndex(n_clusters=4, nprobe=4).fit_assign(ds, max_fit_vectors=64)
    got = idx.search(Q, k=5)
    want = brute_force_topk(ds, Q, k=5)
    pd.testing.assert_frame_equal(got, want)


def test_ivf_disk_layout_roundtrip_and_pruning(ray_session, tmp_path):
    """save/load round-trip: disk search == in-memory search; and probe
    pruning is DIRECTORY pruning — deleting a never-probed cluster's
    partition dir does not affect a low-nprobe search (its files are
    never opened)."""
    import shutil

    import ray.data as rd

    from splade_ray.pipelines.ann import IVFIndex

    rng = np.random.default_rng(31)
    n, d = 600, 8
    X = rng.standard_normal((n, d)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(X), type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(t).repartition(4)
    Q = rng.standard_normal((3, d))
    idx = IVFIndex(n_clusters=6, nprobe=6).fit_assign(ds, sample_fraction=1.0)
    out = str(tmp_path / "ivf")
    man = idx.save(out)
    assert man["n_clusters"] == 6
    disk = IVFIndex.load(out)
    pd.testing.assert_frame_equal(disk.search(Q, k=10), idx.search(Q, k=10))
    # directory pruning: nprobe=1 probes exactly one cluster per query;
    # removing a cluster NO query probes must not change anything
    disk1 = IVFIndex.load(out, nprobe=1)
    probed = {int(c) for c in np.argmax(_normalize_rows(Q) @ disk1.centroids.T, axis=1)}
    victim = next(c for c in range(6) if c not in probed)
    before = disk1.search(Q, k=5)
    shutil.rmtree(str(tmp_path / "ivf" / "lists" / f"cluster={victim}"))
    pd.testing.assert_frame_equal(disk1.search(Q, k=5), before)


def _normalize_rows(m):
    m = np.asarray(m, dtype=np.float64)
    nrm = np.linalg.norm(m, axis=1)
    nrm[nrm == 0] = 1.0
    return m / nrm[:, None]


def test_stats_fused_all_empty_batch_ids_mode(ray_session):
    """A batch whose tid lists are ALL empty must emit the same int64 key
    schema as non-empty batches (ADVICE r2: mixed int32/int64 partials
    abort pa.concat_tables)."""
    import ray.data as rd

    from splade_ray.stages.stats import compute_stats_fused

    empty_tids = pa.table(
        {
            "tids": pa.array([[], []], type=pa.list_(pa.int32())),
            "dl": pa.array([0, 0], type=pa.int64()),
        }
    )
    full_tids = pa.table(
        {
            "tids": pa.array([[1, 2, 2], [3]], type=pa.list_(pa.int32())),
            "dl": pa.array([3, 1], type=pa.int64()),
        }
    )
    ds = rd.from_arrow([empty_tids, full_tids])
    vocab, buckets, sum_dl = compute_stats_fused(ds, id_mode="ids", with_buckets=False, num_buckets=1)
    assert vocab["term_id"].tolist() == [1, 2, 3]
    assert vocab["df"].tolist() == [1, 2, 1]
    assert sum_dl == 4 and buckets.tolist() == [4]


def test_label_centroids_partition_invariant(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from splade_ray.pipelines.queries import label_centroids

    rng = np.random.default_rng(23)
    n, d = 60, 4
    X = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, 3, n)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array([r for r in X], type=pa.list_(pa.float32())),
            "label": pa.array(labels.astype(np.int32)),
        }
    )
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    out = label_centroids(str(tmp_path))
    for lab in np.unique(labels):
        exp = X[labels == lab].astype(np.float64).mean(axis=0)
        got = out[out.label == lab].sort_values("dim")["centroid"].to_numpy()
        np.testing.assert_allclose(got, np.round(exp, 6), atol=1e-6)
        assert (out[out.label == lab]["n_vecs"] == int((labels == lab).sum())).all()


def test_textrank_keywords_bruteforce(ray_session):
    """TextRank over a tiny corpus must equal a dense-matrix PageRank:
    undirected adjacent-token edges (self-pairs dropped), 3 iterations of
    r = 0.15 + 0.85·(W/deg) r from r=1, top-k by (rank desc, term asc)."""
    import ray.data as rd

    from splade_ray.pipelines.textops import textrank_keywords

    texts = [
        "alpha beta gamma alpha beta",
        "beta gamma delta",
        "alpha alpha epsilon beta",  # self-pair alpha-alpha must be dropped
        "zeta",  # isolated token: no edges, must be absent from the graph
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    got = textrank_keywords(ds, k=10, n_buckets=7)

    # brute force
    from collections import Counter

    tok = Tokenizer()
    pair: Counter = Counter()
    for t in texts:
        toks = tok.tokenize(t)
        for x, y in zip(toks, toks[1:]):
            if x != y:
                pair[(min(x, y), max(x, y))] += 1
    nodes = sorted({t for p in pair for t in p})
    idx = {t: i for i, t in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for (x, y), c in pair.items():
        W[idx[x], idx[y]] += c
        W[idx[y], idx[x]] += c
    deg = W.sum(axis=0)
    r = np.ones(n)
    for _ in range(3):
        r = 0.15 + 0.85 * (W / deg) @ r
    order = np.lexsort((np.asarray(nodes, dtype=object), -r))[:10]
    assert got["term"].tolist() == [nodes[i] for i in order]
    np.testing.assert_allclose(got["score_r"].to_numpy(), np.round(r[order], 6), atol=1e-6)
    assert "zeta" not in set(got["term"])


def _lazy_ref_stage_cases(batch, seg_dir):
    """(stage class, broadcast value, args after it, input table) for every
    stage that takes a broadcast: the stage must accept the value itself or
    a ``ray.put`` ref to it, resolved in ``__call__``."""
    import pyarrow.parquet as pq

    tok = Tokenizer()
    docs = [set(tok.tokenize(t or "")) for t in TEXTS]
    terms = np.asarray(sorted(set().union(*docs)), dtype=object)
    df = np.asarray([sum(t in d for d in docs) for t in terms], dtype=np.int64)
    th, _rows, _dls = tok.tokenize_md5(batch.column("text").combine_chunks())
    hashes, cnt = np.unique(th, return_counts=True)
    bench = np.unique(np.concatenate([np.asarray(sorted(_brute_trigrams(t)), dtype=np.uint64) for t in TEXTS[:3]]))

    vocab = pq.read_table(f"{seg_dir}/stats/vocab.parquet")
    remaps = [np.arange(vocab.num_rows, dtype=np.int64)[::-1].copy()]
    urls = pq.read_table(f"{seg_dir}/postings/shard-00000.docs.parquet", columns=["url"]).column("url")
    descriptors = pa.table({"shard": [0], "seg_idx": [[0]], "pdirs": [[f"{seg_dir}/postings"]]})

    from splade_ray.pipelines.merge import PurgeStatsStage
    from splade_ray.pipelines.textops import ContaminationStage, TfidfTopTermsStage, UnigramScoreStage

    return [
        (ContaminationStage, bench, (), batch),
        (UnigramScoreStage, (hashes, np.log(cnt / cnt.sum())), (), batch),
        (TfidfTopTermsStage, (terms, df), (len(TEXTS), 3), batch),
        (PurgeStatsStage, remaps, (urls.take(pa.array([0, 2])).combine_chunks(),), descriptors),
    ]


def test_stages_resolve_broadcast_refs_lazily(ray_session, batch, tmp_path):
    """A stage built from a ``ray.put`` ref keeps the ref (the stage ships
    to tasks as-is) and gives the same output as one built from the raw
    value."""
    import pyarrow.parquet as pq
    import ray

    from splade_ray.config import EngineConfig
    from splade_ray.pipelines.build import build_index

    corpus = pa.table(
        {
            "url": pa.array([f"https://example.com/{i}" for i in range(len(TEXTS))]),
            "warc_ts": pa.array(np.arange(len(TEXTS), dtype=np.int64), type=pa.timestamp("us")),
            "text": pa.array([t or "" for t in TEXTS], type=pa.string()),
            "lang": pa.array(["en"] * len(TEXTS)),
        }
    )
    pq.write_table(corpus, str(tmp_path / "c.parquet"))
    build_index(str(tmp_path / "c.parquet"), str(tmp_path / "seg"), EngineConfig(num_buckets=1))

    for cls, value, rest, table in _lazy_ref_stage_cases(batch, str(tmp_path / "seg")):
        ref = ray.put(value)
        from_ref = cls(ref, *rest)
        assert any(v is ref for v in vars(from_ref).values()), cls.__name__
        got = from_ref(table)
        want = cls(value, *rest)(table)
        assert got.num_rows > 0, cls.__name__
        assert got.equals(want), cls.__name__
