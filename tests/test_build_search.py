"""End-to-end oracle parity: Ray build + search vs the numpy oracle
(SURVEY.md §5.2) — doc ids exact, scores to 1e-9 relative, ties fixed by
(-score, doc_id)."""

import json
import math
import os
import re
import types

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade_ray.fixtures import generate_queries
from splade_ray.oracle import oracle_search
from splade_ray.pipelines.search import IndexReader, ShardedSearcher


@pytest.fixture(scope="module")
def reader(built_index):
    index_dir, cfg = built_index
    return IndexReader(index_dir, cfg)


def test_corpus_stats_match(reader, oracle_index):
    assert reader.n_docs == oracle_index.n_docs
    assert reader.avgdl == pytest.approx(oracle_index.avgdl, rel=1e-12)
    assert list(reader.vocab_index) == oracle_index.terms
    np.testing.assert_array_equal(reader.df, oracle_index.df)


def test_doc_meta_matches(built_index, oracle_index):
    """Dedup + deterministic doc-id assignment contract (oracle_doc_meta)."""
    index_dir, _ = built_index
    docs = []
    pdir = os.path.join(index_dir, "postings")
    for f in sorted(os.listdir(pdir)):
        if f.endswith(".docs.parquet"):
            docs.append(pq.read_table(os.path.join(pdir, f)))
    import pyarrow as pa

    tbl = pa.concat_tables(docs).sort_by("doc_id")
    assert tbl.column("url").to_pylist() == oracle_index.doc_ids
    np.testing.assert_array_equal(
        tbl.column("dl").to_numpy(zero_copy_only=False), oracle_index.dl
    )
    np.testing.assert_array_equal(
        tbl.column("doc_id").to_numpy(zero_copy_only=False),
        np.arange(oracle_index.n_docs),
    )


def test_rank_identity_exhaustive(reader, oracle_index):
    queries = generate_queries(100)
    for qid, text in zip(queries["query_id"].to_pylist(), queries["text"].to_pylist()):
        expected = oracle_search(oracle_index, text, 10)
        got = reader.search(text, 10, method="exhaustive")
        assert [d for d, _ in expected] == [d for d, _, _ in got], f"{qid}: {text}"
        for (_, es), (_, gs, _) in zip(expected, got):
            assert gs == pytest.approx(es, rel=1e-9)


def test_wand_equals_exhaustive(reader):
    queries = generate_queries(60)
    for text in queries["text"].to_pylist():
        for k in (3, 10, 100):
            ex = reader.search(text, k, method="exhaustive")
            wd = reader.search(text, k, method="wand")
            assert [d for d, _, _ in ex] == [d for d, _, _ in wd], text
            for (_, es, _), (_, ws, _) in zip(ex, wd):
                assert ws == pytest.approx(es, rel=1e-12)


def test_prefix_search_rank_identity(built_index, reader, oracle_index):
    """Wildcard expansion (contiguous sorted-vocab term range, unit weight
    per term) must be rank- and score-identical to the brute-force oracle;
    WAND must equal exhaustive under wide expansions; the sharded path must
    equal the local reader."""
    from splade_ray.oracle import oracle_prefix_search

    index_dir, cfg = built_index
    prefixes = ["w00", "w1", "w0093", "w", "zzzmissing"]
    for p in prefixes:
        expected = oracle_prefix_search(oracle_index, p, 10)
        got = reader.search_prefix(p, 10)
        assert [d for d, _ in expected] == [d for d, _, _ in got], p
        for (_, es), (_, gs, _) in zip(expected, got):
            assert gs == pytest.approx(es, rel=1e-9)
        assert reader.search_prefix(p, 10, method="wand") == got, p
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for p in prefixes[:3]:
            assert ss.search_prefix(p, 10) == reader.search_prefix(p, 10), p
    finally:
        ss.shutdown()


def test_fuzzy_search_rank_identity(built_index, reader, oracle_index):
    """Fuzzy expansion (vectorized Levenshtein DP over the length-banded
    vocab, unit weight per expanded term) must be rank- and score-identical
    to a brute-force oracle built on an INDEPENDENT textbook Levenshtein;
    WAND must equal exhaustive; the sharded path must equal the local
    reader.  max_edits=2 exercised too (the DP is edit-count generic)."""
    from splade_ray.oracle import oracle_fuzzy_search

    index_dir, cfg = built_index
    terms = ["w0093", "w009", "w00933", "x0093", "w1810", "zzzzzzzzz"]
    for t in terms:
        for me in (1, 2):
            expected = oracle_fuzzy_search(oracle_index, t, 10, max_edits=me)
            got = reader.search_fuzzy(t, 10, max_edits=me)
            assert [d for d, _ in expected] == [d for d, _, _ in got], (t, me)
            for (_, es), (_, gs, _) in zip(expected, got):
                assert gs == pytest.approx(es, rel=1e-9)
            assert reader.search_fuzzy(t, 10, max_edits=me, method="wand") == got, (t, me)
    with pytest.raises(ValueError):
        reader.expand_fuzzy("two tokens")
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for t in terms[:3]:
            assert ss.search_fuzzy(t, 10) == reader.search_fuzzy(t, 10), t
    finally:
        ss.shutdown()


def test_regexp_search_rank_identity(built_index, reader, oracle_index):
    """Regexp expansion (full-match dictionary scan, unit weight per
    matching term) must be rank- and score-identical to the brute-force
    re.fullmatch oracle; WAND must equal exhaustive; the sharded path must
    equal the local reader."""
    from splade_ray.oracle import oracle_regexp_search

    index_dir, cfg = built_index
    patterns = ["w00.*", "w[01]+", "w(0093|1810)", "w00?9.?", "zzz+"]
    for p in patterns:
        expected = oracle_regexp_search(oracle_index, p, 10)
        got = reader.search_regexp(p, 10)
        assert [d for d, _ in expected] == [d for d, _, _ in got], p
        for (_, es), (_, gs, _) in zip(expected, got):
            assert gs == pytest.approx(es, rel=1e-9)
        assert reader.search_regexp(p, 10, method="wand") == got, p
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for p in patterns[:3]:
            assert ss.search_regexp(p, 10) == reader.search_regexp(p, 10), p
    finally:
        ss.shutdown()


def test_dismax_rank_identity(built_index, reader, oracle_index):
    """DisMax (max + tie·rest) must equal a brute-force per-term-matrix
    oracle at tie 0.0 and 0.3; tie=1.0 must degrade exactly to the BM25
    sum; the sharded path must equal the local reader."""
    index_dir, cfg = built_index
    tok_cfg_queries = generate_queries(25)["text"].to_pylist()
    for text in tok_cfg_queries:
        qtids, qw = reader.encode_query(text)
        if qtids.size == 0:
            assert reader.search_dismax(text, 10) == []
            continue
        # brute-force: per-doc per-query-term contribution matrix
        contrib = np.zeros((oracle_index.n_docs, qtids.size))
        for j, (tid, w) in enumerate(zip(qtids, qw)):
            s, e = oracle_index.term_ptr[tid], oracle_index.term_ptr[tid + 1]
            contrib[oracle_index.post_doc_ids[s:e], j] = w * oracle_index.post_weights[s:e]
        for tie in (0.0, 0.3):
            scores = contrib.max(axis=1) + tie * (contrib.sum(axis=1) - contrib.max(axis=1))
            nz = np.nonzero(scores)[0]
            want = nz[np.lexsort((nz, -scores[nz]))][:10]
            got = reader.search_dismax(text, 10, tie=tie)
            assert [int(d) for d in want] == [d for d, _, _ in got], (text, tie)
            for wd, (_, gs, _) in zip(want, got):
                assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
        # tie=1.0 degrades to the BM25 sum (scores approx: max+(sum-max)
        # is a different float op order than the plain bincount sum)
        dm1, bm = reader.search_dismax(text, 10, tie=1.0), reader.search(text, 10)
        assert [d for d, _, _ in dm1] == [d for d, _, _ in bm], text
        for (_, a, _), (_, b, _) in zip(dm1, bm):
            assert a == pytest.approx(b, rel=1e-12)
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for text in tok_cfg_queries[:5]:
            assert ss.search_dismax(text, 10, tie=0.3) == reader.search_dismax(text, 10, tie=0.3)
    finally:
        ss.shutdown()


def test_synonym_rank_identity(built_index, reader, oracle_index):
    """SynonymQuery (blended tf before saturation, idf of the max member
    df) must equal a brute-force oracle over the raw token streams; a
    single-member group must equal plain unit-weight BM25 on that term;
    the sharded path must equal the local reader."""
    from collections import Counter

    cfg = built_index[1]
    tfs = [Counter(t) for t in oracle_index.tokens]
    df: Counter = Counter()
    for c in tfs:
        df.update(c.keys())
    dl = np.array([len(t) for t in oracle_index.tokens], dtype=np.float64)
    avgdl = dl.mean()
    n = oracle_index.n_docs
    group_sets = [
        [["w0001", "w0093"], ["w1810"]],
        [["w0002", "zzznope"]],
        [["w0005", "w0006", "w0007"]],
        [["zzznope"]],
    ]
    for groups in group_sets:
        scores = np.zeros(n)
        for terms in groups:
            present = [t for t in terms if t in df]
            if not present:
                continue
            dfb = max(df[t] for t in present)
            idf = np.log(1 + (n - dfb + 0.5) / (dfb + 0.5))
            for d in range(n):
                tfb = sum(tfs[d].get(t, 0) for t in present)
                if tfb:
                    scores[d] += idf * tfb * (cfg.k1 + 1) / (
                        tfb + cfg.k1 * (1 - cfg.b + cfg.b * dl[d] / avgdl)
                    )
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = reader.search_synonyms(groups, 10)
        assert [int(d) for d in want] == [d for d, _, _ in got], groups
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
    # singleton group == plain BM25 with unit query weight
    single = reader.search_synonyms([["w0093"]], 10)
    plain = reader.search("w0093", 10)
    assert [d for d, _, _ in single] == [d for d, _, _ in plain]
    for (_, a, _), (_, b, _) in zip(single, plain):
        assert a == pytest.approx(b, rel=1e-12)
    ss = ShardedSearcher(built_index[0], cfg, num_actors=2)
    try:
        assert ss.search_synonyms(group_sets[0], 10) == reader.search_synonyms(group_sets[0], 10)
    finally:
        ss.shutdown()


def test_term_stats_and_sort_by_dl(built_index, reader, oracle_index):
    """TermStatistics must equal brute-force df/cf counts over the raw
    token streams (OOV -> (0,0)); sort-by-field must return the disjunctive
    match set ordered by (dl desc, doc_id asc); tombstoned docs drop out."""
    from collections import Counter

    tfs = [Counter(t) for t in oracle_index.tokens]
    df: Counter = Counter()
    cf: Counter = Counter()
    for c in tfs:
        df.update(c.keys())
        cf.update(c)
    terms = ["w0001", "w0093", "zzznope"]
    got = reader.term_stats(terms)
    assert got == [(t, df.get(t, 0), cf.get(t, 0)) for t in terms]
    cs = reader.collection_stats()
    assert cs["n_docs"] == oracle_index.n_docs
    assert cs["sum_dl"] == sum(len(t) for t in oracle_index.tokens)
    for text in generate_queries(15)["text"].to_pylist():
        qterms = {t for t in reader.tok.tokenize(text) if t in df}
        matched = [d for d in range(oracle_index.n_docs) if qterms & set(tfs[d])]
        want = sorted(matched, key=lambda d: (-len(oracle_index.tokens[d]), d))[:10]
        got_s = reader.search_sorted_by_dl(text, 10)
        assert want == [d for d, _, _ in got_s], text
        for wd, (_, dl, _) in zip(want, got_s):
            assert dl == len(oracle_index.tokens[wd])
    # tombstones: delete the head of one result list, it must vanish
    index_dir, cfg = built_index
    text = generate_queries(1)["text"].to_pylist()[0]
    head = reader.search_sorted_by_dl(text, 10)
    if head:
        deleted = IndexReader(index_dir, cfg, deletes=[head[0][2]])
        assert head[0][0] not in [d for d, _, _ in deleted.search_sorted_by_dl(text, 10)]


def test_search_filtered_rank_identity(reader, oracle_index):
    """Filtered top-k must equal the oracle's full ranking restricted to
    the allowed doc set (filter-then-rank, not rank-then-filter)."""
    allowed = [d for d in range(oracle_index.n_docs) if d % 3 == 0]
    allowed_urls = [oracle_index.doc_ids[d] for d in allowed]
    allow_set = set(allowed)
    queries = generate_queries(30)
    for text in queries["text"].to_pylist():
        full = oracle_search(oracle_index, text, oracle_index.n_docs)
        want = [(d, s) for d, s in full if d in allow_set][:10]
        got = reader.search_filtered(text, 10, allowed_urls)
        assert [d for d, _ in want] == [d for d, _, _ in got], text
        for (_, es), (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(es, rel=1e-9)


def test_lm_dirichlet_rank_identity(built_index, oracle_index):
    """LM-Dirichlet similarity plugged at read time over the SAME stored
    index: ranking must equal an independent brute-force query-likelihood
    oracle over the raw token streams; WAND (re-derived zone maxima) must
    equal exhaustive; the sharded path must equal the local reader."""
    import dataclasses
    from collections import Counter

    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    lm_cfg = dataclasses.replace(cfg, scoring="lm_dirichlet")
    lm = IndexReader(index_dir, lm_cfg)
    mu = lm_cfg.mu
    tok = Tokenizer(lm_cfg)
    tfs = [Counter(t) for t in oracle_index.tokens]
    dl = np.array([len(t) for t in oracle_index.tokens], dtype=np.float64)
    T = float(dl.sum())
    cf: Counter = Counter()
    for c in tfs:
        cf.update(c)
    for text in generate_queries(25)["text"].to_pylist():
        qtf = Counter(t for t in tok.tokenize(text) if t in cf)
        scores = np.zeros(oracle_index.n_docs)
        for t, q in qtf.items():
            for d in range(oracle_index.n_docs):
                f = tfs[d].get(t, 0)
                if f:
                    w = np.log1p(f * T / (mu * cf[t])) + np.log(mu / (dl[d] + mu))
                    scores[d] += q * max(0.0, w)
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = lm.search(text, 10)
        assert [int(d) for d in want] == [d for d, _, _ in got], text
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
        assert lm.search(text, 10, method="wand") == got, text
    ss = ShardedSearcher(index_dir, lm_cfg, num_actors=2)
    try:
        for text in generate_queries(5)["text"].to_pylist():
            assert ss.search(text, 10) == lm.search(text, 10), text
    finally:
        ss.shutdown()


def test_lm_jm_rank_identity(built_index, oracle_index):
    """Jelinek-Mercer similarity on the same read-time seam: ranking must
    equal a brute-force interpolated query-likelihood oracle, and WAND
    (re-derived zone maxima) must equal exhaustive."""
    import dataclasses
    from collections import Counter

    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    jm_cfg = dataclasses.replace(cfg, scoring="lm_jm")
    jm = IndexReader(index_dir, jm_cfg)
    lam = jm_cfg.lam
    tok = Tokenizer(jm_cfg)
    tfs = [Counter(t) for t in oracle_index.tokens]
    dl = np.array([len(t) for t in oracle_index.tokens], dtype=np.float64)
    T = float(dl.sum())
    cf: Counter = Counter()
    for c in tfs:
        cf.update(c)
    for text in generate_queries(25)["text"].to_pylist():
        qtf = Counter(t for t in tok.tokenize(text) if t in cf)
        scores = np.zeros(oracle_index.n_docs)
        for t, q in qtf.items():
            for d in range(oracle_index.n_docs):
                f = tfs[d].get(t, 0)
                if f:
                    scores[d] += q * np.log1p((1 - lam) * f * T / (lam * cf[t] * dl[d]))
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = jm.search(text, 10)
        assert [int(d) for d in want] == [d for d, _, _ in got], text
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
        assert jm.search(text, 10, method="wand") == got, text


def test_dfr_inl2_rank_identity(built_index, oracle_index):
    """DFR I(n)L2 similarity on the same read-time seam: ranking must
    equal a brute-force divergence-from-randomness oracle (H2 tfn,
    I(n) information content, Laplace after-effect), and WAND
    (re-derived zone maxima) must equal exhaustive."""
    import dataclasses
    from collections import Counter

    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    d_cfg = dataclasses.replace(cfg, scoring="dfr_inl2")
    rd = IndexReader(index_dir, d_cfg)
    tok = Tokenizer(d_cfg)
    tfs = [Counter(t) for t in oracle_index.tokens]
    dl = np.array([len(t) for t in oracle_index.tokens], dtype=np.float64)
    avgdl = float(dl.mean())
    n_docs = oracle_index.n_docs
    df: Counter = Counter()
    for c in tfs:
        df.update(set(c))
    for text in generate_queries(25)["text"].to_pylist():
        qtf = Counter(t for t in tok.tokenize(text) if t in df)
        scores = np.zeros(n_docs)
        for t, q in qtf.items():
            for d in range(n_docs):
                f = tfs[d].get(t, 0)
                if f:
                    tfn = f * np.log2(1.0 + d_cfg.dfr_c * avgdl / dl[d])
                    inf = tfn * np.log2((n_docs + 1.0) / (df[t] + 0.5))
                    scores[d] += q * inf / (tfn + 1.0)
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = rd.search(text, 10)
        assert [int(d) for d in want] == [d for d, _, _ in got], text
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
        assert rd.search(text, 10, method="wand") == got, text


def test_ib_ll_rank_identity(built_index, oracle_index):
    """IB log-logistic similarity on the same read-time seam: ranking
    must equal a brute-force information-based oracle (H2 tfn, LambdaDF,
    -log of the log-logistic survival), and WAND (re-derived zone
    maxima) must equal exhaustive."""
    import dataclasses
    from collections import Counter

    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    i_cfg = dataclasses.replace(cfg, scoring="ib_ll")
    rd = IndexReader(index_dir, i_cfg)
    tok = Tokenizer(i_cfg)
    tfs = [Counter(t) for t in oracle_index.tokens]
    dl = np.array([len(t) for t in oracle_index.tokens], dtype=np.float64)
    avgdl = float(dl.mean())
    n_docs = oracle_index.n_docs
    df: Counter = Counter()
    for c in tfs:
        df.update(set(c))
    for text in generate_queries(25)["text"].to_pylist():
        qtf = Counter(t for t in tok.tokenize(text) if t in df)
        scores = np.zeros(n_docs)
        for t, q in qtf.items():
            for d in range(n_docs):
                f = tfs[d].get(t, 0)
                if f:
                    tfn = f * np.log2(1.0 + i_cfg.dfr_c * avgdl / dl[d])
                    lam_w = (df[t] + 1.0) / (n_docs + 1.0)
                    scores[d] += q * np.log1p(tfn / lam_w)
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = rd.search(text, 10)
        assert [int(d) for d in want] == [d for d, _, _ in got], text
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)
        assert rd.search(text, 10, method="wand") == got, text


def test_more_like_this_rank_identity(reader, oracle_index):
    """MLT must equal an independently computed oracle: top-5 seed terms
    by tf·idf (term-asc ties) expanded as a unit-weight query over the
    oracle's CSC postings, seed doc removed from the ranking."""
    from collections import Counter

    from splade_ray.oracle import bm25_idf

    for seed in (0, 3, 57, 200):
        toks = oracle_index.tokens[seed]
        text = " ".join(toks)
        tf = Counter(toks)
        scored = sorted(
            ((-(cnt * bm25_idf(np.array([oracle_index.df[oracle_index.term_to_id[t]]]),
                               oracle_index.n_docs)[0]), t) for t, cnt in tf.items())
        )
        sel = [oracle_index.term_to_id[t] for _, t in scored[:5]]
        scores = np.zeros(oracle_index.n_docs)
        for tid in sel:
            s, e = oracle_index.term_ptr[tid], oracle_index.term_ptr[tid + 1]
            scores[oracle_index.post_doc_ids[s:e]] += oracle_index.post_weights[s:e]
        scores[seed] = 0.0
        nz = np.nonzero(scores)[0]
        want = nz[np.lexsort((nz, -scores[nz]))][:10]
        got = reader.more_like_this(text, 10, max_terms=5, exclude_url=oracle_index.doc_ids[seed])
        assert [int(d) for d in want] == [d for d, _, _ in got], seed
        for wd, (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(float(scores[wd]), rel=1e-9)


def test_search_not_rank_identity(reader, oracle_index):
    """must_not must equal the oracle's full ranking with every doc
    containing an excluded term removed (non-scoring exclusion: survivors
    keep their exact scores), and degrade to plain search with no
    exclusions or OOV-only exclusions."""
    exclude = ["w0093", "w1810"]
    ex_set = set(exclude)
    for text in generate_queries(20)["text"].to_pylist():
        full = oracle_search(oracle_index, text, oracle_index.n_docs)
        want = [(d, s) for d, s in full if not (ex_set & set(oracle_index.tokens[d]))][:10]
        got = reader.search_not(text, 10, exclude_terms=exclude)
        assert [d for d, _ in want] == [d for d, _, _ in got], text
        for (_, es), (_, gs, _) in zip(want, got):
            assert gs == pytest.approx(es, rel=1e-9)
        assert reader.search_not(text, 10, exclude_terms=None) == reader.search(text, 10)
        assert reader.search_not(text, 10, exclude_terms=["zzzoov"]) == reader.search(text, 10)


def test_search_after_pagination(reader):
    """Walking the ranking in pages of 5 via search_after cursors must
    reconstruct exactly one search(k=25) — no dup, no gap — and a page
    requested past the end of the match set must come back empty."""
    for text in generate_queries(20)["text"].to_pylist():
        full = reader.search(text, 25)
        paged, cursor = [], None
        while len(paged) < 25:
            page = reader.search_after(text, 5, after=cursor)
            if not page:
                break
            paged.extend(page)
            cursor = (page[-1][1], page[-1][0])
        assert paged == full, text
        if cursor is not None and len(full) < 25:
            assert reader.search_after(text, 5, after=cursor) == [], text


def test_sharded_facets_brute_force(built_index, reader, web_pages_path, oracle_index):
    """Sharded facet counts (per-actor match-set counting) must equal a
    brute-force distinct-term-overlap count grouped by the corpus lang
    column — incl. the dedup winners' attribute alignment."""
    from collections import Counter

    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    # attr per INDEXED doc: oracle_index.tokens aligns with the deduped
    # corpus; recover lang by url through the raw fixture table
    raw = pq.read_table(web_pages_path, columns=["url", "lang"])
    lang_of = dict(zip(raw.column("url").to_pylist(), raw.column("lang").to_pylist()))
    tok = Tokenizer(cfg)
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=web_pages_path)
    try:
        for text, m in [("w0001 w0093 w0400", 1), ("w0001 w0093", 2)]:
            q = set(tok.tokenize(text))
            want = Counter(
                lang_of[oracle_index.doc_ids[d]]
                for d, toks in enumerate(oracle_index.tokens)
                if len(q & set(toks)) >= m
            )
            got = ss.facets(text, m=m)
            assert got == dict(want), (text, m)
    finally:
        ss.shutdown()


def test_sharded_collapse_brute_force(built_index, reader, web_pages_path, oracle_index):
    """Field collapsing must return, per attribute value, the best
    (-score, doc_id) doc of the full BM25 match set, values ranked by
    their winner — verified against a brute-force group-max over the
    oracle scores."""
    from splade_ray.oracle import oracle_search

    index_dir, cfg = built_index
    raw = pq.read_table(web_pages_path, columns=["url", "lang"])
    lang_of = dict(zip(raw.column("url").to_pylist(), raw.column("lang").to_pylist()))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=web_pages_path)
    try:
        for text in generate_queries(10)["text"].to_pylist():
            full = oracle_search(oracle_index, text, oracle_index.n_docs)
            best: dict[str, tuple[float, int]] = {}
            for d, s in full:
                v = lang_of[oracle_index.doc_ids[d]]
                prev = best.get(v)
                if prev is None or (-s, d) < (-prev[0], prev[1]):
                    best[v] = (s, d)
            want = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[1][1]))[:3]
            got = ss.search_collapse(text, 3, "lang")
            assert [(v, d) for v, (s, d) in want] == [(v, d) for v, d, _s, _u in got], text
            for (_, (es, _)), (_, _, gs, _) in zip(want, got):
                assert gs == pytest.approx(es, rel=1e-9)
    finally:
        ss.shutdown()


def test_sharded_diversified_brute_force(built_index, web_pages_path, oracle_index):
    """Diversified sampling (per-value cap 2) must equal a brute-force
    cap-2-per-value election over the full match set followed by a global
    (-score, doc_id) ranking."""
    from splade_ray.oracle import oracle_search

    index_dir, cfg = built_index
    raw = pq.read_table(web_pages_path, columns=["url", "lang"])
    lang_of = dict(zip(raw.column("url").to_pylist(), raw.column("lang").to_pylist()))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=web_pages_path)
    try:
        for text in generate_queries(10)["text"].to_pylist():
            full = oracle_search(oracle_index, text, oracle_index.n_docs)
            per_v: dict[str, list[tuple[float, int]]] = {}
            for d, s in sorted(full, key=lambda ds_: (-ds_[1], ds_[0])):
                v = lang_of[oracle_index.doc_ids[d]]
                if len(per_v.setdefault(v, [])) < 2:
                    per_v[v].append((s, d))
            want = sorted(
                ((s, d, v) for v, cand in per_v.items() for s, d in cand),
                key=lambda sdv: (-sdv[0], sdv[1]),
            )[:4]
            got = ss.search_diversified(text, 4, "lang", per_value=2)
            assert [(d, v) for _s, d, v in want] == [(d, v) for d, _s, _u, v in got], text
            for (es, _, _), (_, gs, _, _) in zip(want, got):
                assert gs == pytest.approx(es, rel=1e-9)
    finally:
        ss.shutdown()


def test_sharded_top_hits_brute_force(built_index, web_pages_path, oracle_index):
    """Top-hits-per-bucket must return, per attribute value, the first n
    docs of the full (-score, doc) ranking restricted to that value."""
    from splade_ray.oracle import oracle_search

    index_dir, cfg = built_index
    raw = pq.read_table(web_pages_path, columns=["url", "lang"])
    lang_of = dict(zip(raw.column("url").to_pylist(), raw.column("lang").to_pylist()))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=web_pages_path)
    try:
        for text in generate_queries(8)["text"].to_pylist():
            full = oracle_search(oracle_index, text, oracle_index.n_docs)
            want: dict[str, list[tuple[int, float]]] = {}
            for d, s in full:
                v = lang_of[oracle_index.doc_ids[d]]
                if len(want.setdefault(v, [])) < 3:
                    want[v].append((d, round(s, 9)))
            got = ss.search_top_hits(text, "lang", 3)
            flat = []
            for v in sorted(want):
                flat.extend((v, r, d, s) for r, (d, s) in enumerate(want[v], 1))
            assert [(v, r, d, round(s, 9)) for v, r, d, s in got] == flat, text
    finally:
        ss.shutdown()


def _nc_of_url(u: str) -> int:
    # url-derived so re-crawl rows (duplicate urls, different texts) carry
    # the SAME doc-value — the fixture corpus is pre-dedup
    return (len(u) * 131 + ord(u[-1])) % 997


@pytest.fixture(scope="module")
def numeric_corpus(web_pages_path, tmp_path_factory):
    """web_pages + a numeric n_chars doc-value column (the fixture corpus
    has none), for decay / histogram serving tests."""
    tbl = pq.read_table(web_pages_path, columns=["url", "text"])
    n_chars = pa.array([_nc_of_url(u) for u in tbl.column("url").to_pylist()], pa.int64())
    out = str(tmp_path_factory.mktemp("numcorp") / "corpus.parquet")
    pq.write_table(tbl.append_column("n_chars", n_chars), out)
    return out


def test_sharded_decay_brute_force(built_index, numeric_corpus, oracle_index):
    """Gauss function-score must equal oracle BM25 × the closed-form decay
    factor, re-ranked by (-score, doc)."""
    import numpy as np

    from splade_ray.oracle import oracle_search

    index_dir, cfg = built_index
    raw = pq.read_table(numeric_corpus, columns=["url", "n_chars"])
    nc_of = dict(zip(raw.column("url").to_pylist(), raw.column("n_chars").to_pylist()))
    origin, scale = 500.0, 200.0
    sigma2 = scale * scale / (2.0 * np.log(2.0))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=numeric_corpus)
    try:
        for text in generate_queries(8)["text"].to_pylist():
            full = oracle_search(oracle_index, text, oracle_index.n_docs)
            resc = [
                (d, s * float(np.exp(-((nc_of[oracle_index.doc_ids[d]] - origin) ** 2) / (2.0 * sigma2))))
                for d, s in full
            ]
            want = sorted(resc, key=lambda r: (-r[1], r[0]))[:10]
            got = ss.search_decay(text, 10, "n_chars", origin, scale)
            assert [d for d, _s, _u in got] == [d for d, _ in want], text
            for (gd, gs, _u), (wd, ws) in zip(got, want):
                assert gs == pytest.approx(ws, rel=1e-9), (text, gd, wd)
    finally:
        ss.shutdown()


def test_sharded_histogram_brute_force(built_index, numeric_corpus, oracle_index):
    """Histogram agg must equal brute-force floor(n_chars/width) counts
    over the any-term match set."""
    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    raw = pq.read_table(numeric_corpus, columns=["url", "n_chars"])
    nc_of = dict(zip(raw.column("url").to_pylist(), raw.column("n_chars").to_pylist()))
    tok = Tokenizer(cfg)
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=numeric_corpus)
    try:
        for text in generate_queries(6)["text"].to_pylist():
            q = set(tok.tokenize(text))
            want: dict[int, int] = {}
            for d, toks in enumerate(oracle_index.tokens):
                if q & set(toks):
                    b = (nc_of[oracle_index.doc_ids[d]] // 150) * 150
                    want[b] = want.get(b, 0) + 1
            got = ss.histogram(text, "n_chars", 150, 1)
            assert got == sorted(want.items()), text
    finally:
        ss.shutdown()


def test_adjacency_matrix_brute_force(built_index, oracle_index):
    """Pairwise filter co-match counts must equal brute-force set
    intersections over the oracle token lists (incl. min_should_match
    floors, the diagonal, and an OOV filter that vanishes)."""
    from splade_ray.tokenizer import Tokenizer

    index_dir, cfg = built_index
    tok = Tokenizer(cfg)
    filters = [
        ("a", "w0001 w0093", 1),
        ("b", "w0042 w0010", 2),
        ("c", "w0005", 1),
        ("d", "zzznotaword", 1),
    ]
    sets = {}
    for name, text, m in filters:
        q = set(tok.tokenize(text))
        sets[name] = {d for d, toks in enumerate(oracle_index.tokens) if len(q & set(toks)) >= m}
    want = []
    names = [f[0] for f in filters]
    for i, a in enumerate(names):
        for b in names[i:]:
            c = len(sets[a] & sets[b])
            if c:
                want.append((a, b, c))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        got = ss.adjacency_matrix(filters)
    finally:
        ss.shutdown()
    assert sorted(got) == sorted(want)
    assert not any("d" in (a, b) for a, b, _ in got)


def test_scores_for_docs_matches_search(reader):
    """The rescore primitive must return exactly the search scores for
    ranked docs, 0.0 for unmatched and unknown docs."""
    for text in generate_queries(10)["text"].to_pylist():
        top = reader.search(text, 10)
        if not top:
            assert reader.scores_for_docs(text, [0, 1]) == {0: 0.0, 1: 0.0}
            continue
        docs = [d for d, _s, _u in top]
        got = reader.scores_for_docs(text, docs + [10**9])
        for d, s, _u in top:
            assert got[d] == s, (text, d)
        assert got[10**9] == 0.0


def test_min_should_match_brute_force(reader, oracle_index):
    """Disjunctive boolean with a minimum_should_match floor must equal a
    brute-force distinct-term-overlap count over the oracle token lists,
    for every floor from 1 to beyond the query length (incl. OOV terms)."""
    from splade_ray.pipelines.metrics import min_should_match
    from splade_ray.tokenizer import Tokenizer

    tok = Tokenizer(oracle_index.config)
    for text in ["w0001 w0093 w0400", "w0001 zzzoov w0093", "zzzoov", ""]:
        q = set(tok.tokenize(text))
        for m in (1, 2, 3, 4):
            want = sorted(
                d for d, toks in enumerate(oracle_index.tokens) if len(q & set(toks)) >= m
            )
            got = min_should_match(reader, text, m).tolist()
            assert got == want, (text, m)


def test_sharded_equals_local(built_index, reader):
    index_dir, cfg = built_index
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for text in generate_queries(20)["text"].to_pylist():
            assert ss.search(text, 10) == reader.search(text, 10)
            # wand exercises zone metadata → catches actors scoring under a
            # different config than the index was built with
            assert ss.search(text, 10, method="wand") == reader.search(text, 10)
    finally:
        ss.shutdown()


def test_sharded_search_after_equals_local(built_index, reader):
    """The sharded deep-pagination path must return the same page as the
    local reader for every cursor position along the ranking."""
    index_dir, cfg = built_index
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        for text in generate_queries(8)["text"].to_pylist():
            full = reader.search(text, 15)
            cursor = None
            for start in range(0, 15, 5):
                page = reader.search_after(text, 5, after=cursor)
                assert ss.search_after(text, 5, after=cursor) == page, (text, start)
                assert page == full[start : start + 5], (text, start)
                if not page:
                    break
                cursor = (page[-1][1], page[-1][0])
    finally:
        ss.shutdown()


def test_tombstone_deletes(built_index, reader, tmp_path):
    """Tombstoned docs vanish from every path (exhaustive, WAND, sharded)
    while surviving docs keep their EXACT pre-delete scores (stats
    unchanged until merge — Lucene semantics); deletes.json written by
    apply_deletes is honored automatically at load."""
    import shutil

    from splade_ray.pipelines.search import apply_deletes

    index_dir, cfg = built_index
    queries = generate_queries(10)["text"].to_pylist()
    # delete each query's top-1 url
    del_urls = sorted({hits[0][2] for text in queries if (hits := reader.search(text, 3))})
    assert del_urls
    # param path
    deleted = IndexReader(index_dir, cfg, deletes=del_urls)
    for text in queries:
        before = {u: s for _d, s, u in reader.search(text, 20)}
        got = deleted.search(text, 10)
        wand = deleted.search(text, 10, method="wand")
        assert got == wand, text
        for _d, s, u in got:
            assert u not in del_urls, (text, u)
            assert s == pytest.approx(before[u], rel=1e-12)  # scores unchanged
    # file path: a copied index with deletes.json behaves identically
    idx2 = str(tmp_path / "idx_del")
    shutil.copytree(index_dir, idx2)
    assert apply_deletes(idx2, del_urls) == len(del_urls)
    auto = IndexReader(idx2, cfg)
    for text in queries[:4]:
        assert auto.search(text, 10) == deleted.search(text, 10), text
    # sharded serving path honors deletes.json too
    ss = ShardedSearcher(idx2, cfg, num_actors=2)
    try:
        for text in queries[:4]:
            assert ss.search(text, 10) == deleted.search(text, 10), text
    finally:
        ss.shutdown()


@pytest.fixture(scope="module")
def zoned_index(ray_session, tmp_path_factory):
    """A 4.6k-row crawl built with 32-doc zones: its consolidated view has
    well over top_zones zones, so a forced score_wand really prunes."""
    from splade_ray.config import EngineConfig
    from splade_ray.fixtures import write_web_pages
    from splade_ray.pipelines.build import build_index

    tmp = tmp_path_factory.mktemp("zoned")
    corpus = write_web_pages(str(tmp / "web.parquet"), 4600)
    cfg = EngineConfig(shard_size=2048, num_buckets=16, zone_docs=32)
    index_dir = str(tmp / "idx")
    build_index(corpus, index_dir, cfg)
    return index_dir, cfg


def test_wand_answers_exhaustively_unless_forced(zoned_index, monkeypatch):
    """By default score_wand answers tail-term, OOV-only, single-term and
    head queries with one score_exhaustive call, before gathering any
    zone, and equals it exactly; min_zone_mult=0 still forces the pruned
    path, rank-identical.  Both hold again after tombstoning, which
    rebuilds the zone CSR."""
    from splade_ray.pipelines import search as S

    calls = dict.fromkeys(("_gather_zones", "score_exhaustive"), 0)
    for name in calls:

        def spy(*args, _orig=getattr(S.ShardIndex, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(S.ShardIndex, name, spy)

    index_dir, cfg = zoned_index
    base = IndexReader(index_dir, cfg)
    vocab, df = base.vocab_index, base.df
    tail = [str(t) for t in vocab[np.flatnonzero(df <= 3)[:8]]]
    by_df = np.argsort(df, kind="stable")
    single = [str(vocab[i]) for i in by_df[np.linspace(by_df.size // 2, 0.9 * by_df.size, 8).astype(int)]]
    pairs = [f"{a} {b}" for a, b in zip(tail[::2], tail[1::2])]
    texts = pairs + ["zzznotaword qqqxyz"] + single
    head = " ".join(str(t) for t in vocab[by_df[-4:]])
    del_urls = sorted({h[2] for t in texts for h in base.search(t, 2)})
    assert del_urls
    deleted = IndexReader(index_dir, cfg, deletes=del_urls)
    for reader in (base, deleted):
        (sh,) = reader.shards
        assert -(-sh.n_local // sh.zone_docs) > 4 * 32
        for text in texts + [head]:
            calls.update(_gather_zones=0, score_exhaustive=0)
            wand = reader.search(text, 10, method="wand")
            scored = int(reader.encode_query(text)[0].size > 0)
            assert (calls["_gather_zones"], calls["score_exhaustive"]) == (0, scored), text
            assert wand == reader.search(text, 10), text
        for text in texts:
            qtids, qw = reader.encode_query(text)
            if not sh._term_slices(qtids):
                continue
            calls.update(_gather_zones=0, score_exhaustive=0)
            pr = sh.score_wand(qtids, qw, 10, min_zone_mult=0)
            assert calls["_gather_zones"] > 0 and calls["score_exhaustive"] == 0, text
            ex = sh.score_exhaustive(qtids, qw, 10)
            assert pr[0].tolist() == ex[0].tolist(), text
            np.testing.assert_allclose(pr[1], ex[1], rtol=1e-12)


def test_sharded_snippets(built_index, reader, web_pages_path):
    """Snippets on the sharded serving path: ranking identical to the
    local reader; windows follow the shared best-window rule (most query
    hits, earliest start) over the corpus text."""
    from splade_ray.functions.hashing import md5_u64
    from splade_ray.pipelines.search import best_snippet_window

    index_dir, cfg = built_index
    corpus = pq.read_table(web_pages_path, columns=["url", "text"])
    text_of = dict(zip(corpus.column("url").to_pylist(), corpus.column("text").to_pylist()))
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=web_pages_path)
    try:
        for text in generate_queries(12)["text"].to_pylist():
            got = ss.snippets(text, k=5, W=12)
            want = reader.search(text, 5)
            assert [(d, s, u) for d, s, u, *_ in got] == want, text
            toks_q = reader.tok.tokenize(text)
            qh = np.unique(md5_u64(toks_q))
            for d, s, u, start, n_hits, snip in got:
                toks = reader.tok.tokenize(text_of[u])
                st, en, nh = best_snippet_window(md5_u64(toks), qh, 12)
                assert (start, n_hits, snip) == (st, nh, " ".join(toks[st:en])), u
                assert n_hits >= 1  # a top-5 BM25 hit contains a query term
    finally:
        ss.shutdown()


def test_empty_and_oov_queries(reader):
    assert reader.search("", 10) == []
    assert reader.search("zzznotaword", 10) == []
    assert reader.search("...!!!", 10) == []


def _encode_via_get_indexer(reader, text):
    """Reference query encode: pandas get_indexer over the sorted vocab,
    then one np.unique."""
    toks = reader.tok.tokenize(text)
    if not toks:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    tids = reader.vocab_index.get_indexer(np.asarray(toks, dtype=object))
    tids = tids[tids >= 0]
    if tids.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, counts = np.unique(tids, return_counts=True)
    return uniq.astype(np.int64), counts.astype(np.float64)


def test_dict_encode_equals_get_indexer(built_index, reader):
    """The dict-probe encode returns the same sorted int64 term ids and
    float64 counts as the get_indexer encode, on the local reader and on a
    federated segment scoring under union statistics."""
    from splade_ray.pipelines.search import FederatedReader

    index_dir, cfg = built_index
    texts = generate_queries(60)["text"].to_pylist() + [
        "w0001 w0093 w0001 W0001 w0093 w0001",  # repeated tokens, case folded
        "zzznotaword qqqoov",  # OOV only
        "...!!! ,,, ???",  # punctuation only
        "",
        "   ",
        "w0001, zzznotaword; w0002!!",  # OOV and punctuation mixed in
    ]
    fed = FederatedReader([index_dir, index_dir], cfg)
    for r in (reader, fed.readers[0]):
        for text in texts:
            got, want = r.encode_query(text), _encode_via_get_indexer(r, text)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype, text
                np.testing.assert_array_equal(g, w, err_msg=text)


def test_batched_url_of_equals_per_hit(reader):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, reader.n_docs, 50).astype(np.int64)  # unsorted, repeats
    assert reader.url_of(ids) == [reader.url_of(int(i)) for i in ids]
    assert reader.url_of(ids.tolist()) == reader.url_of(ids)
    assert reader.url_of(np.zeros(0, np.int64)) == []
    assert isinstance(reader.url_of(np.int64(ids[0])), str)
    for absent in (-1, reader.n_docs + 5):
        with pytest.raises(KeyError):
            reader.url_of(absent)
        with pytest.raises(KeyError):
            reader.url_of(np.append(ids, absent))


def _topk_via_nonzero(sh, scores, k):
    """Reference top-k select: nonzero() over the float64 scores, then
    argpartition for the kth score."""
    nz = np.nonzero(scores)[0]
    if nz.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    kk = min(k, nz.size)
    cand = nz
    if nz.size > kk:
        part = np.argpartition(-scores[nz], kk - 1)[:kk]
        kth = scores[nz[part]].min()
        cand = nz[scores[nz] >= kth]
    order = cand[np.lexsort((cand, -scores[cand]))][:kk]
    return sh.doc_ids[order], scores[order]


def _term_slices_via_loop(sh, qtids):
    pos = np.searchsorted(sh.term_ids, qtids)
    out = []
    for i, tid in enumerate(qtids):
        p = pos[i]
        if p < sh.term_ids.size and sh.term_ids[p] == tid:
            out.append((i, int(sh.term_ptr[p]), int(sh.term_ptr[p + 1]), int(p)))
    return out


def test_shard_select_and_lookup_match_reference(reader):
    """_topk_from_scores equals the nonzero()/argpartition reference on
    vectors with zeroed (tombstoned) docs and a tie class straddling the
    kth score, on the scan route (no ``postings``) and with ``postings``
    passing the sampling gate; _term_slices equals the per-term loop,
    absent ids included."""
    sh = reader.shards[0]
    rng = np.random.default_rng(11)
    n = sh.n_local
    base = np.round(rng.random(n) * 10, 3)
    base[rng.random(n) < 0.4] = 0.0  # unmatched docs
    tied = np.flatnonzero(base)[[3, 17, 40, 41, 90]]
    sampled = sh.select_stats["sampled"]
    for k in (1, 3, 5, 10, n, n + 7):
        scores = base.copy()
        top = np.sort(scores)[::-1]
        scores[tied] = top[min(k, n) - 1] if k <= n else top[0]  # ties at the kth score
        scores[rng.choice(n, 25, replace=False)] = 0.0  # tombstones
        want = _topk_via_nonzero(sh, scores, k)
        for postings in (None, n):
            for g, w in zip(sh._topk_from_scores(scores, k, postings), want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
    assert sh.select_stats["sampled"] > sampled  # the sampled route ran
    for postings in (None, n):
        for g, w in zip(sh._topk_from_scores(np.zeros(n), 10, postings), _topk_via_nonzero(sh, np.zeros(n), 10)):
            assert g.dtype == w.dtype and g.size == w.size == 0
    absent = int(sh.term_ids.max()) + 1
    for qtids in (
        np.sort(rng.choice(sh.term_ids, 6, replace=False)),
        np.asarray([-1, int(sh.term_ids[0]), absent, absent + 1], np.int64),
        np.asarray([absent], np.int64),
        np.zeros(0, np.int64),
    ):
        got = sh._term_slices(qtids.astype(np.int64))
        assert got == _term_slices_via_loop(sh, qtids.astype(np.int64))
        assert all(type(x) is int for row in got for x in row)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 40),
    docs_per_k=st.integers(1, 160),
    extra=st.integers(0, 100),
    place=st.sampled_from(["any", "off_stride", "on_stride"]),
    levels=st.integers(1, 40),
    pct=st.integers(0, 100),
    negatives=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_topk_routes_match_reference_hypothesis(k, docs_per_k, extra, place, levels, pct, negatives, seed):
    """Both selection routes of _topk_from_scores equal the reference,
    and select_topk equals a full (-score, key) lexsort, over: ties from
    few score levels straddling the k-th score; zeros (tombstones and
    allow-masked docs); negative scores; k from 0 past the nonzero count;
    n under the sampling floor; positives only off the sample stride
    (the sample finds < k positives: scan) or only on it."""
    from splade_ray.pipelines import search as S

    rng = np.random.default_rng(seed)
    n = docs_per_k * max(k, 1) + extra
    stride = math.isqrt(n // k) if k else 0
    on = np.zeros(n, bool)
    on[:: max(stride, 1)] = True
    pos = {"any": np.arange(n), "on_stride": np.flatnonzero(on), "off_stride": np.flatnonzero(~on)}[place]
    scores = np.zeros(n)
    chosen = pos[rng.random(pos.size) * 100 < pct]
    scores[chosen] = rng.integers(1, levels + 1, chosen.size) / 4.0
    if negatives:
        neg = (scores == 0) & (rng.random(n) < 0.3)
        scores[neg] = -rng.integers(1, levels + 1, int(neg.sum())) / 8.0
    scores = np.where(rng.random(n) < 0.9, scores, 0.0)  # an allow mask
    keys = rng.permutation(n).astype(np.int64)
    order = np.lexsort((keys, -scores))[:k]
    for g, w in zip(S.select_topk(keys, scores, k), (keys[order], scores[order])):
        np.testing.assert_array_equal(g, w)
    if k == 0:
        return
    sh = types.SimpleNamespace(doc_ids=np.arange(n, dtype=np.int64) * 3 + 5, select_stats={"sampled": 0, "scan": 0})
    want = _topk_via_nonzero(sh, scores, k)
    for postings in (None, S._POSTINGS_PER_SAMPLE * n):  # no gate, an always-open gate
        got = S.ShardIndex._topk_from_scores(sh, scores, k, postings)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    # only the gated call may sample, and only when the sample holds k positives
    sampled = stride >= S._MIN_STRIDE and int((scores[::stride] > 0).sum()) >= k
    assert sh.select_stats == {"sampled": int(sampled), "scan": 2 - int(sampled)}
    if place == "off_stride" and stride >= S._MIN_STRIDE:
        assert not sampled


def test_topk_routes_end_to_end_parity(built_index, reader, monkeypatch):
    """Head (fixture mix) and tail-term queries through search,
    method="wand" and the forced pruned path (min_zone_mult=0), with and
    without deletes, on the consolidated view and per shard, give the
    same results as with the reference selection patched in — and the
    sampled route runs on every reader."""
    from splade_ray.pipelines import search as S

    index_dir, cfg = built_index
    head = generate_queries(40)["text"].to_pylist()
    tail_terms = [str(t) for t in reader.vocab_index[np.flatnonzero(reader.df <= 3)[:20]]]
    tail = [f"{a} {b}" for a, b in zip(tail_terms[::2], tail_terms[1::2])]
    del_urls = sorted({h[2] for t in head[:10] for h in reader.search(t, 2)})
    readers = [
        IndexReader(index_dir, cfg, consolidate=merged, deletes=dels)
        for merged in (True, False)
        for dels in ([], del_urls)
    ]

    def run_all():
        out = []
        for r in readers:
            for text in head + tail:
                qtids, qw = r.encode_query(text)
                for k in (1, 3, 10, 50):
                    out.append(r.search(text, k))
                    out.append(r.search(text, k, method="wand"))
                    if qtids.size:
                        out.append(r._topk(k, "score_wand", qtids, qw, k, 32, 0.5, 0))
        return out

    got = run_all()
    assert all(r.select_stats["sampled"] > 0 for r in readers)
    assert any(not r.shards[0].deleted_local.size for r in readers)
    assert any(r.shards[0].deleted_local.size for r in readers)
    monkeypatch.setattr(
        S.ShardIndex, "_topk_from_scores", lambda sh, scores, k, postings=None: _topk_via_nonzero(sh, scores, k)
    )
    assert run_all() == got


def test_select_stats_count_routes(built_index, reader, monkeypatch):
    """IndexReader.select_stats sums its shards' route counts: every
    selection is counted once, a tail-only pass never samples, and a head
    pass on the fixture samples at least once."""
    from splade_ray.pipelines import search as S

    index_dir, cfg = built_index
    calls = [0]
    orig = S.ShardIndex._topk_from_scores

    def spy(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(S.ShardIndex, "_topk_from_scores", spy)
    tail_terms = [str(t) for t in reader.vocab_index[np.flatnonzero(reader.df <= 3)[:20]]]
    tail = [f"{a} {b}" for a, b in zip(tail_terms[::2], tail_terms[1::2])]
    head = generate_queries(30)["text"].to_pylist()
    for merged in (True, False):
        r = IndexReader(index_dir, cfg, consolidate=merged)
        assert r.select_stats == {"sampled": 0, "scan": 0}
        calls[0] = 0
        for text in tail:
            r.search(text, 10)
            r.search(text, 10, method="wand")
        assert r.select_stats == {"sampled": 0, "scan": calls[0]} and calls[0] > 0
        for text in head:
            r.search(text, 3)
            r.msearch([text], 3, method="wand")
        stats = r.select_stats
        assert stats["sampled"] > 0 and stats["sampled"] + stats["scan"] == calls[0]
        assert stats == {route: sum(sh.select_stats[route] for sh in r.shards) for route in stats}


@pytest.mark.parametrize("bad", [-1, -10, 2.5, "3", None, True])
def test_bad_k_fails_loudly(parity_env, bad):
    """A negative or non-integer k raises ValueError on both executors,
    for search, method="wand" and msearch, instead of returning a
    truncated answer; so does a positional query's slop, window,
    max_gaps or end, naming the parameter."""
    local, ss, texts = parity_env
    text = texts["in_vocab"]
    for front in (local, ss):
        for call in (
            lambda: front.search(text, bad),
            lambda: front.search(text, bad, method="wand"),
            lambda: front.msearch([text, texts["tail"]], bad),
        ):
            with pytest.raises(ValueError, match="k must be a non-negative integer"):
                call()
        for name, call in (
            ("window", lambda: front.search_near("w0001", "w0002", bad)),
            ("slop", lambda: front.search_sloppy("w0001", "w0002", bad)),
            ("slop", lambda: front.search_span_near("w0001 w0002", bad)),
            ("slop", lambda: front.search_span_not("w0001 w0002", "w0093", bad)),
            ("slop", lambda: front.search_span_containing("w0001 w0002", "w0093", bad)),
            ("slop", lambda: front.search_span_within("w0001 w0002", "w0093", bad)),
            ("max_gaps", lambda: front.search_intervals(text, bad)),
            ("end", lambda: front.search_span_first("w0001", bad)),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {re.escape(repr(bad))}$"):
                call()


def test_k_zero_answers_empty(parity_env):
    """k == 0 answers [] on both executors, before any scoring."""
    local, ss, texts = parity_env
    for front in (local, ss):
        for text in texts.values():
            assert front.search(text, 0) == [] == front.search(text, 0, method="wand")
            assert front.search(text, np.int64(0)) == []
        assert front.msearch(list(texts.values()), 0) == [[]] * len(texts)
        assert front.search(texts["in_vocab"], np.int64(2)) == front.search(texts["in_vocab"], 2)


def test_sharded_equals_local_tail_queries(built_index, reader):
    """Selective queries (vocab-tail terms, OOV and punctuation mixed in)
    give the same hits on the sharded and the local path, single and
    batched."""
    index_dir, cfg = built_index
    tail = [str(t) for t in reader.vocab_index[np.flatnonzero(reader.df <= 3)[:40]]]
    texts = [f"{a} {b}" for a, b in zip(tail[::2], tail[1::2])] + [
        f"{tail[0]} zzznotaword",
        f"!!! {tail[1]} ...",
        f"{tail[2]} {tail[2]} {tail[3]}",
        "zzznotaword",
        "",
    ]
    ss = ShardedSearcher(index_dir, cfg, num_actors=2)
    try:
        want = [reader.search(t, 10) for t in texts]
        assert any(want) and not all(want)
        assert [ss.search(t, 10) for t in texts] == want
        assert [ss.search(t, 10, method="wand") for t in texts] == want
        assert ss.msearch(texts, 10) == want
    finally:
        ss.shutdown()


def _cursor(page):
    """The (score, doc_id) search_after cursor after ``page``'s last hit."""
    return (page[-1][1], page[-1][0]) if page else None


PARITY_FUNCTIONS = [
    {"kind": "fvf", "attr": "n_chars", "weight": 1.0, "div": 100.0},
    {"kind": "gauss", "attr": "n_chars", "weight": 2.0, "origin": 300.0, "scale": 100.0, "decay": 0.5,
     "filter": ("lang", "eq", "en")},
]

# every query QueryFront serves, as (searcher, query text) -> result
PARITY_QUERIES = {
    "search": lambda ss, t: ss.search(t, 10),
    "search_wand": lambda ss, t: ss.search(t, 10, method="wand"),
    "search_method_phrase": lambda ss, t: ss.search(t, 10, method="phrase"),
    "msearch": lambda ss, t: ss.msearch([t, "w0001", t], 10),
    "search_after": lambda ss, t: ss.search_after(t, 5, after=_cursor(ss.search(t, 3))),
    "search_synonyms": lambda ss, t: ss.search_synonyms([t.split(), ["w0010"]], 10),
    "search_dismax": lambda ss, t: ss.search_dismax(t, 10, 0.3),
    "search_phrase": lambda ss, t: ss.search_phrase(t, 10),
    "search_query_string": lambda ss, t: ss.search_query_string(t, 10),
    "search_prefix": lambda ss, t: ss.search_prefix(t.split()[0][:4] if t.split() else t, 10),
    "search_fuzzy": lambda ss, t: ss.search_fuzzy(t.split()[0] if t.split() else t, 10),
    "search_regexp": lambda ss, t: ss.search_regexp(t.split()[0][:4] + ".*" if t.split() else t, 10),
    "search_wildcard": lambda ss, t: ss.search_wildcard(t.split()[0][:3] + "*1" if t.split() else t, 10),
    "search_substring": lambda ss, t: ss.search_substring(t.split()[0][1:4] if t.split() else t, 10),
    "search_index_ordered": lambda ss, t: (
        ss.search_index_ordered(t, 10)[0] if isinstance(ss, IndexReader) else ss.search_index_ordered(t, 10)
    ),
    "search_collapse": lambda ss, t: ss.search_collapse(t, 5, "lang"),
    "search_diversified": lambda ss, t: ss.search_diversified(t, 10, "lang", 2),
    "search_collapse_inner": lambda ss, t: ss.search_collapse_inner(t, 3, 2, "lang"),
    "search_top_hits": lambda ss, t: ss.search_top_hits(t, "lang", 3),
    "search_boosted": lambda ss, t: ss.search_boosted(t, 10, feature="saturation", boost=1.5, pivot=500.0),
    "search_terms_set": lambda ss, t: ss.search_terms_set(t.split(), 10),
    "search_decay": lambda ss, t: ss.search_decay(t, 10, "n_chars", 300.0, 100.0),
    "search_function_score": lambda ss, t: ss.search_function_score(t, 10, PARITY_FUNCTIONS),
    "snippets": lambda ss, t: ss.snippets(t, 5, 12),
    "facets": lambda ss, t: ss.facets(t, 1),
    "histogram": lambda ss, t: ss.histogram(t, "n_chars", 150, 1),
    "adjacency_matrix": lambda ss, t: ss.adjacency_matrix([("a", t, 1), ("b", "w0001 w0093", 1)]),
    "search_not": lambda ss, t: ss.search_not(t, 10, exclude_terms=["w0093"]),
    "search_bool_prefix": lambda ss, t: ss.search_bool_prefix(t, 10),
    "search_boosting": lambda ss, t: ss.search_boosting(t, "w0093", 0.5, 10),
    "more_like_this": lambda ss, t: ss.more_like_this(t, 10, 3),
    "search_phrase_prefix": lambda ss, t: ss.search_phrase_prefix(f"{_words(t)[0]} w", 10),
    "search_near": lambda ss, t: ss.search_near(*_words(t)[:2], 40, 10),
    "search_sloppy": lambda ss, t: ss.search_sloppy(*_words(t)[:2], 40, 10),
    "search_span_near": lambda ss, t: ss.search_span_near(" ".join(_words(t)[:2]), 40, 10),
    "search_span_not": lambda ss, t: ss.search_span_not(" ".join(_words(t)[:2]), "w0093", 40, 10),
    "search_span_containing": lambda ss, t: ss.search_span_containing(" ".join(_words(t)[:2]), "w0093", 80, 10),
    "search_span_within": lambda ss, t: ss.search_span_within(" ".join(_words(t)[:2]), "w0093", 80, 10),
    "search_intervals": lambda ss, t: ss.search_intervals(t, 80, 10),
    "search_span_first": lambda ss, t: ss.search_span_first(_words(t)[0], 40, 10),
}


def _words(t: str) -> list[str]:
    """The query text's words, or the text itself twice when it has none."""
    return t.split() or [t, t]


@pytest.fixture(scope="module")
def parity_env(ray_session, small_cfg, web_pages_path, tmp_path_factory):
    """A forward-stream build of the fixture corpus (phrase queries need
    it), a corpus with a numeric doc-value, and the local reader and a
    two-actor sharded searcher over both."""
    import dataclasses

    from splade_ray.pipelines.build import build_index

    tmp = tmp_path_factory.mktemp("parity")
    cfg = dataclasses.replace(small_cfg, store_forward=True)
    index_dir = str(tmp / "idx")
    build_index(web_pages_path, index_dir, cfg)
    tbl = pq.read_table(web_pages_path, columns=["url", "text", "lang"])
    n_chars = pa.array([_nc_of_url(u) for u in tbl.column("url").to_pylist()], pa.int64())
    corpus = str(tmp / "corpus.parquet")
    pq.write_table(tbl.append_column("n_chars", n_chars), corpus)
    local = IndexReader(index_dir, cfg, corpus_path=corpus)
    tail = [str(t) for t in local.vocab_index[np.flatnonzero(local.df <= 3)[:2]]]
    texts = {
        "in_vocab": "w0001 w0002 w0093",
        "tail": " ".join(tail),
        "oov_only": "zzznotaword qqqxyz",
        "empty": "",
    }
    ss = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=corpus)
    yield local, ss, texts
    ss.shutdown()


def _outcome(fn):
    """A call's result, or its error's type and message."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - both executors must fail alike
        return type(e).__name__, str(e)


@pytest.mark.parametrize("kind", ["in_vocab", "tail", "oov_only", "empty"])
@pytest.mark.parametrize("query", sorted(PARITY_QUERIES))
def test_local_equals_sharded_every_query(parity_env, query, kind):
    """Every query of the shared query front gives the same answer in
    process (IndexReader) and scattered over two actors
    (ShardedSearcher)."""
    local, ss, texts = parity_env
    call, text = PARITY_QUERIES[query], texts[kind]
    want = _outcome(lambda: call(local, text))
    assert _outcome(lambda: call(ss, text)) == want
    if kind == "in_vocab" and query not in ("search_method_phrase", "search_phrase", "search_index_ordered"):
        assert want and not isinstance(want, tuple)  # the in-vocab case must produce hits


def test_lineage_records(built_index):
    index_dir, cfg = built_index
    lineage = json.load(open(os.path.join(index_dir, "postings", "_LINEAGE.json")))
    shards = lineage["shards"]
    assert len(shards) == 4  # 1940 docs / 500 shard_size
    assert sum(s["input_rows"] for s in shards) == 1940
    assert all(s["nnz"] > 0 for s in shards)
    assert all("checksum" in s for s in shards)


def test_dedup_modes_equivalent(web_pages_path, small_cfg, tmp_path, built_index):
    """Broadcast dedup (narrow-key winners + ray.put) and shuffle dedup
    (groupby(bucket) full-row exchange) must produce identical indexes —
    same doc ids, same postings tables."""
    import dataclasses

    import pyarrow.parquet as pq_

    from splade_ray.pipelines.build import build_index

    cfg_sh = dataclasses.replace(small_cfg, dedup_mode="shuffle")
    out = str(tmp_path / "shuffle_idx")
    build_index(web_pages_path, out, cfg_sh)
    # session-fixture index was built with the default (broadcast) mode
    base = os.path.join(built_index[0], "postings")
    got = os.path.join(out, "postings")
    files = sorted(f for f in os.listdir(base) if f.endswith(".parquet"))
    assert files == sorted(f for f in os.listdir(got) if f.endswith(".parquet"))
    for f in files:
        assert pq_.read_table(os.path.join(base, f)).equals(pq_.read_table(os.path.join(got, f))), f


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_null_url_rejected_in_both_dedup_modes(mode, tmp_path):
    """A row without a url has nothing to dedup or rank on: both dedup
    modes refuse a 50-row corpus holding one with the same ValueError."""
    import dataclasses

    from splade_ray.config import EngineConfig
    from splade_ray.fixtures import write_web_pages
    from splade_ray.pipelines.build import build_index

    tbl = pq.read_table(write_web_pages(str(tmp_path / "web.parquet"), 50))
    urls = tbl.column("url").to_pylist()
    urls[7] = None
    i = tbl.schema.get_field_index("url")
    path = str(tmp_path / "null_url.parquet")
    pq.write_table(tbl.set_column(i, "url", pa.array(urls, type=tbl.schema.field(i).type)), path)
    cfg = dataclasses.replace(EngineConfig(shard_size=16, num_buckets=4), dedup_mode=mode)
    with pytest.raises(ValueError, match="1 input row\\(s\\) have a null url"):
        build_index(path, str(tmp_path / "idx"), cfg)


def test_searcher_stage_batch_path(built_index, reader):
    """Distributed query processing: a queries Dataset through the
    SearcherStage actor pool must equal per-query reader.search."""
    import ray.data as rd

    from splade_ray.pipelines.search import SearcherStage

    index_dir, cfg = built_index
    queries = generate_queries(30)
    out = (
        rd.from_arrow(queries)
        .map_batches(
            SearcherStage,
            fn_constructor_args=(index_dir, 10, "exhaustive", cfg),
            batch_format="pyarrow",
            batch_size=8,
            concurrency=2,
        )
        .to_pandas()
        .sort_values(["query_id", "rank"], ignore_index=True)
    )
    rows = []
    for qid, text in zip(queries["query_id"].to_pylist(), queries["text"].to_pylist()):
        for rank, (doc, score, url) in enumerate(reader.search(text, 10), 1):
            rows.append((qid, rank, doc, url, score))
    import pandas as pd

    expected = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "url", "score"]).sort_values(
        ["query_id", "rank"], ignore_index=True
    )
    pd.testing.assert_frame_equal(out, expected, check_dtype=False)


def test_empty_corpus_builds_valid_empty_index(ray_session, small_cfg, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from splade_ray.pipelines.build import build_index

    empty = pa.table(
        {
            "url": pa.array([], type=pa.string()),
            "warc_ts": pa.array([], type=pa.timestamp("us")),
            "text": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
        }
    )
    p = str(tmp_path / "empty.parquet")
    pq_.write_table(empty, p)
    out = str(tmp_path / "empty_idx")
    summary = build_index(p, out, small_cfg)
    assert summary["n_docs"] == 0
    reader = IndexReader(out, small_cfg)
    assert reader.search("anything", 10) == []
    ss = ShardedSearcher(out, small_cfg)
    try:
        assert ss.search("anything", 10) == []
    finally:
        ss.shutdown()


def test_duplicate_url_ts_fails_loudly(ray_session, small_cfg, tmp_path):
    """Broadcast dedup assumes unique (url, warc_ts); exact duplicates must
    fail at the postings contiguity check with an actionable message."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from splade_ray.pipelines.build import build_index

    dup = pa.table(
        {
            "url": ["https://a/1", "https://a/1", "https://a/2"],
            "warc_ts": pa.array([5, 5, 7], type=pa.timestamp("us")),
            "text": ["same doc", "same doc", "other"],
            "lang": ["en"] * 3,
        }
    )
    p = str(tmp_path / "dup.parquet")
    pq_.write_table(dup, p)
    with pytest.raises(Exception, match="duplicate \\(url, warc_ts\\)"):
        build_index(p, str(tmp_path / "dup_idx"), small_cfg)


def test_auto_dedup_mode(web_pages_path, small_cfg, tmp_path, built_index):
    """dedup_mode='auto' routes on the parquet-footer row count: broadcast
    below broadcast_row_limit, shuffle above — and the forced-shuffle auto
    build must still produce the identical index (same doc ids/postings)."""
    import dataclasses

    import pyarrow.parquet as pq_

    from splade_ray.pipelines.build import build_index, resolve_dedup_mode

    cfg_auto = dataclasses.replace(small_cfg, dedup_mode="auto")
    assert resolve_dedup_mode(web_pages_path, cfg_auto) == "broadcast"
    tiny = dataclasses.replace(cfg_auto, broadcast_row_limit=10)
    assert resolve_dedup_mode(web_pages_path, tiny) == "shuffle"

    out = str(tmp_path / "auto_shuffle_idx")
    build_index(web_pages_path, out, tiny)
    # evidence the shuffle path actually ran: doc_terms carries the
    # deferred-id bucket column
    dt = sorted(
        f for f in os.listdir(os.path.join(out, "doc_terms")) if f.endswith(".parquet")
    )
    assert "bucket" in pq_.read_schema(os.path.join(out, "doc_terms", dt[0])).names
    base = os.path.join(built_index[0], "postings")
    got = os.path.join(out, "postings")
    files = sorted(f for f in os.listdir(base) if f.endswith(".parquet"))
    assert files == sorted(f for f in os.listdir(got) if f.endswith(".parquet"))
    for f in files:
        assert pq_.read_table(os.path.join(base, f)).equals(pq_.read_table(os.path.join(got, f))), f
