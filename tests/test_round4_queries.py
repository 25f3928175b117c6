"""Round-4 query-surface invariants: each new operator cross-checked
against an established kernel on the fixture index (not just the SQL
oracles at sf scale)."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def fixture_index(ray_session, tmp_path_factory):
    from splade_ray.config import EngineConfig
    from splade_ray.fixtures import write_web_pages
    from splade_ray.pipelines.build import build_index
    from splade_ray.pipelines.search import IndexReader

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("r4idx")
    corpus = str(root / "web.parquet")
    out = str(root / "idx")
    cfg = EngineConfig(shard_size=400, num_buckets=4, store_forward=True)
    write_web_pages(corpus, 1200)
    # the attr-sidecar path (terms_set) needs a numeric doc value
    tbl = pq.read_table(corpus)
    tbl = tbl.append_column("n_chars", pc.utf8_length(tbl.column("text")).cast(pa.int64()))
    pq.write_table(tbl, corpus)
    build_index(corpus, out, cfg)
    return IndexReader(out, cfg), out, cfg, corpus


def test_wildcard_equals_regexp(fixture_index):
    """A glob translates mechanically to an anchored regexp — both
    expansions must produce identical term-id sets and identical top-k."""
    reader, *_ = fixture_index
    for glob, rx in [("w00?5", "w00.5"), ("w01*", "w01.*"), ("*9", ".*9"), ("zz*", "zz.*")]:
        tg = reader.expand_wildcard(glob)
        tr = reader.expand_regexp(rx)
        assert tg.tolist() == tr.tolist(), glob
        assert reader.search_wildcard(glob, 10) == reader.search_regexp(rx, 10)


def test_wildcard_prefix_special_case(fixture_index):
    """`pre*` must equal the dedicated PrefixQuery expansion."""
    reader, *_ = fixture_index
    assert reader.expand_wildcard("w003*").tolist() == reader.expand_prefix("w003").tolist()
    assert reader.search_wildcard("w003*", 10) == reader.search_prefix("w003", 10)


def test_boosting_neutral_equals_search(fixture_index):
    """negative_boost=1.0 demotes nothing -> identical to plain BM25; an
    OOV negative likewise; nb=0 annihilates every doc matching the
    negative clause."""
    reader, *_ = fixture_index
    q = "w0001 w0012"
    assert reader.search_boosting(q, "w0005", 1.0, 10) == reader.search(q, 10)
    assert reader.search_boosting(q, "qqqqzzz", 0.5, 10) == reader.search(q, 10)
    demoted = reader.search_boosting(q, "w0001", 0.0, 10)
    kept_docs = {d for d, _, _ in demoted}
    for d, s, u in reader.search(q, 200):
        if d in kept_docs:
            # survivors must NOT match the negative term (score would be 0)
            assert reader.scores_for_docs("w0001", [d])[d] == 0.0


def test_span_first_wide_window_equals_term_match(fixture_index):
    """span_first with end >= max dl degenerates to the plain term match
    set (same docs, same scores)."""
    reader, *_ = fixture_index
    wide = reader.search_span_first("w0007", 10_000, 25)
    plain = reader.search("w0007", 25)
    assert wide == plain
    # end=1: strictly first-token matches, a subset of the plain match set
    first = reader.search_span_first("w0007", 1, 25)
    plain_docs = {d for d, _, _ in plain}
    assert {d for d, _, _ in first} <= plain_docs or len(plain) == 25


def test_terms_set_min_one_equals_expanded_or(fixture_index):
    """mod=1 forces required=1 for every doc -> identical to the
    unit-weight expanded-OR bag over the term set."""
    from splade_ray.pipelines.search import ShardedSearcher

    reader, out, cfg, corpus = fixture_index
    terms = ["w0001", "w0012", "w0033"]
    ss = ShardedSearcher(out, cfg, num_actors=2, corpus_path=corpus)
    try:
        got = ss.search_terms_set(terms, 10, attr_col="n_chars", mod=1)
    finally:
        ss.shutdown()
    tids = np.unique(
        np.concatenate([reader.encode_query(t)[0] for t in terms])
    ).astype(np.int64)
    want = reader._search_expanded(tids, 10, "exhaustive")
    assert [(d, round(s, 9)) for d, s, _ in got] == [(d, round(s, 9)) for d, s, _ in want]


def test_shard_wand_pruning_path_rank_identical(fixture_index):
    """Force the two-phase pruning machinery (min_zone_mult=0, tiny
    top_zones) on every shard and pin it rank- and score-identical to
    exhaustive — the economy guard must only REROUTE, never change
    results."""
    reader, *_ = fixture_index
    queries = ["w0001 w0012", "w0005", "w0033 w0007 w0001", "zzz w0002"]
    for q in queries:
        qtids, qw = reader.encode_query(q)
        if qtids.size == 0:
            continue
        for sh in reader.shards:
            ex = sh.score_exhaustive(qtids, qw, 10)
            pr = sh.score_wand(qtids, qw, 10, top_zones=1, min_zone_mult=0)
            assert ex[0].tolist() == pr[0].tolist(), q
            np.testing.assert_allclose(ex[1], pr[1], atol=1e-12)


def test_bool_prefix_invariants(fixture_index):
    """match_bool_prefix degenerations: a pure-prefix query scores every
    matching doc exactly 1.0 (constant-score rewrite) in doc order; an
    OOV prefix reduces to the head's plain BM25."""
    reader, *_ = fixture_index
    only_prefix = reader.search_bool_prefix("w000", 25)
    assert only_prefix, "prefix w000* must match"
    assert all(s == 1.0 for _, s, _ in only_prefix)
    docs = [d for d, _, _ in only_prefix]
    assert docs == sorted(docs)
    # OOV prefix -> head clause only
    got = reader.search_bool_prefix("w0001 w0012 qqqzz", 10)
    want = reader.search("w0001 w0012", 10)
    assert got == want
    # exact-term tail: every hit holding a w0007*-term gains exactly +1
    base = dict((d, s) for d, s, _ in reader.search("w0001", 2000))
    for d, s, _ in reader.search_bool_prefix("w0001 w0007", 25):
        b = base.get(d, 0.0)
        assert s in (b, b + 1.0)


def test_total_hits_early_termination(fixture_index):
    """track_total_hits must stop OPENING shards once the accumulated
    count strictly exceeds the threshold, and its (value, relation) must
    equal the exact brute-force count semantics."""
    from splade_ray.pipelines.search import IndexReader

    _reader, out, cfg, _corpus = fixture_index
    # physical layout (consolidate=False): early termination is about
    # shards never OPENED, which the consolidated single-CSC view hides
    reader = IndexReader(out, cfg, consolidate=False)
    n_shards = len(reader.shards)
    assert n_shards >= 2
    # a very common term with a tiny threshold: early termination must kick in
    value, relation, visited = reader.total_hits("w0001", 5)
    assert relation == "gte" and value == 5
    assert visited < n_shards, f"visited all {n_shards} shards despite tiny threshold"
    # exact mode: a huge threshold returns the true count over all shards
    v2, rel2, vis2 = reader.total_hits("w0001", 10**9)
    assert rel2 == "eq" and vis2 == n_shards
    import numpy as np
    qtids, _ = reader.encode_query("w0001")
    exact = 0
    for sh in reader.shards:
        sl = sh._term_slices(qtids)
        if sl:
            exact += int(np.unique(np.concatenate([sh.post_local[s:e] for _, s, e, _ in sl])).size)
    assert v2 == exact
    # OOV -> (0, eq, 0)
    assert reader.total_hits("zzzqqq", 5) == (0, "eq", 0)


def test_cross_fields_single_field_degenerates_to_fields_sum(ray_session, monkeypatch):
    """With ONE searched field, cross_fields' blended df == the field df,
    the per-term dismax collapses to the single leg, and the score must
    equal bm25_fields_topk's additive kernel exactly (both read the same
    per-field index through ``search_fields``: two semantics, one
    gather)."""
    from splade_ray.pipelines import queries as q

    monkeypatch.setattr(q, "_FIELD_BOOSTS", {"title": 2.0})
    sf = "/root/testdata/sf0.001"
    a = q.cross_fields_topk(sf).reset_index(drop=True)
    b = q.bm25_fields_topk(sf).reset_index(drop=True)
    assert a.columns.tolist() == b.columns.tolist()
    assert len(a) == len(b) and len(a) > 0
    assert (a["query_id"] == b["query_id"]).all()
    assert (a["rank"] == b["rank"]).all()
    assert (a["doc_id"] == b["doc_id"]).all()
    assert np.allclose(a["score_r"], b["score_r"], atol=2e-6)


def test_cross_fields_two_fields_dominates_dismax_leg(ray_session):
    """tie_breaker in (0,1): each doc's cross_fields score must lie between
    the pure-dismax floor (max leg per term) and the additive ceiling (sum
    of legs) — computed here by re-running the kernel at tie=0 and tie=1
    via the module constant."""
    from splade_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    mid = q.cross_fields_topk(sf)
    orig = q.CROSS_FIELDS_TIE
    try:
        q.CROSS_FIELDS_TIE = 0.0
        floor = q.cross_fields_topk(sf)
        q.CROSS_FIELDS_TIE = 1.0
        ceil = q.cross_fields_topk(sf)
    finally:
        q.CROSS_FIELDS_TIE = orig
    fl = floor.set_index(["query_id", "doc_id"])["score_r"]
    ce = ceil.set_index(["query_id", "doc_id"])["score_r"]
    for (qid, did), s in mid.set_index(["query_id", "doc_id"])["score_r"].items():
        if (qid, did) in fl.index:
            assert s >= fl.loc[(qid, did)] - 2e-6
        if (qid, did) in ce.index:
            assert s <= ce.loc[(qid, did)] + 2e-6
