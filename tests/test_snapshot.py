"""Snapshot/restore repository + replicated-serving failover tests."""

import os

import pytest

from splade_ray.pipelines.search import IndexReader, ShardedSearcher
from splade_ray.state.snapshot import restore_index, snapshot_index


def test_snapshot_restore_identity(built_index, tmp_path):
    """A restored index serves rank-identical results to the live one."""
    index_dir, cfg = built_index
    repo = str(tmp_path / "repo")
    m = snapshot_index(index_dir, repo, "s1")
    assert m["n_files"] > 0 and m["reused_blobs"] == 0
    dest = str(tmp_path / "restored")
    restore_index(repo, "s1", dest)
    live = IndexReader(index_dir, cfg)
    back = IndexReader(dest, cfg)
    for text in ("w0001 w0002", "w0010 w0500", "w0003 w4999 w0007"):
        assert live.search(text, 10) == back.search(text, 10)


def test_snapshot_incremental_reuse(built_index, tmp_path):
    """Second snapshot of an unchanged index re-uploads nothing."""
    index_dir, _ = built_index
    repo = str(tmp_path / "repo")
    snapshot_index(index_dir, repo, "a")
    m2 = snapshot_index(index_dir, repo, "b")
    assert m2["reused_blobs"] == m2["n_files"]


def test_snapshot_excludes_source(built_index, tmp_path):
    index_dir, _ = built_index
    repo = str(tmp_path / "repo")
    m = snapshot_index(index_dir, repo, "s")
    assert not any("corpus_input.parquet" in rel for rel in m["files"])


def test_restore_detects_corruption(built_index, tmp_path):
    """A flipped byte in a repository blob fails the restore loudly."""
    index_dir, _ = built_index
    repo = str(tmp_path / "repo")
    m = snapshot_index(index_dir, repo, "s1")
    victim = next(iter(m["files"].values()))["sha256"]
    blob = os.path.join(repo, "blobs", victim)
    data = bytearray(open(blob, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(blob, "wb").write(bytes(data))
    with pytest.raises(IOError, match="corrupt"):
        restore_index(repo, "s1", str(tmp_path / "restored"))


def test_replicated_failover_identical(ray_session, built_index):
    """Kill a primary mid-stream: the replica serves, results unchanged."""
    import ray

    index_dir, cfg = built_index
    baseline = ShardedSearcher(index_dir, cfg, num_actors=2)
    repl = ShardedSearcher(index_dir, cfg, num_actors=2, replication=2)
    try:
        texts = ["w0001 w0002", "w0010 w0500", "w0003 w0007", "w4999 w0002"]
        want = [baseline.search(t, 10) for t in texts]
        assert all(want)  # in-vocab queries must produce hits
        got = []
        for i, t in enumerate(texts):
            if i == 1:
                ray.kill(repl.replica_groups[0][0])
            got.append(repl.search(t, 10))
        assert got == want
    finally:
        baseline.shutdown()
        repl.shutdown()


@pytest.fixture(scope="module")
def failover_env(ray_session, built_index, web_pages_path, tmp_path_factory):
    """(index_dir, cfg, corpus with a numeric doc-value, unreplicated
    baseline searcher) for the per-query failover cases."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    index_dir, cfg = built_index
    tbl = pq.read_table(web_pages_path, columns=["url", "text", "lang"])
    n_chars = pa.array([len(u) * 7 % 500 for u in tbl.column("url").to_pylist()], pa.int64())
    corpus = str(tmp_path_factory.mktemp("failover") / "corpus.parquet")
    pq.write_table(tbl.append_column("n_chars", n_chars), corpus)
    baseline = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=corpus)
    yield index_dir, cfg, corpus, baseline
    baseline.shutdown()


def _second_page(ss):
    doc, score, _url = ss.search("w0001 w0002", 5)[-1]
    return ss.search_after("w0001 w0002", 5, after=(score, doc))


FAILOVER_CALLS = {
    "facets": lambda ss: ss.facets("w0001 w0093 w0400", m=1),
    "search_collapse": lambda ss: ss.search_collapse("w0001 w0093", 5, "lang"),
    "histogram": lambda ss: ss.histogram("w0001 w0093", "n_chars", 150, 1),
    "search_boosted": lambda ss: ss.search_boosted("w0001 w0012", 10),
    "search_prefix": lambda ss: ss.search_prefix("w001", 10),
    "search_after": _second_page,
    "snippets": lambda ss: ss.snippets("w0001 w0002", 5, 12),
}


@pytest.mark.parametrize("method", sorted(FAILOVER_CALLS))
def test_replicated_failover_every_query(failover_env, method):
    """Every query fans out through the replica failover: with group 0's
    primary dead, a replication=2 searcher answers exactly like the
    unreplicated baseline."""
    import ray

    index_dir, cfg, corpus, baseline = failover_env
    call = FAILOVER_CALLS[method]
    want = call(baseline)
    assert want  # in-vocab queries must produce hits
    repl = ShardedSearcher(index_dir, cfg, num_actors=2, corpus_path=corpus, replication=2)
    try:
        primary = repl.replica_groups[0][0]
        ray.kill(primary)
        # ray.kill is async — wait until the primary's death is visible
        with pytest.raises(ray.exceptions.RayActorError):
            while True:
                ray.get(primary.__ray_ready__.remote())
        assert call(repl) == want
    finally:
        repl.shutdown()


def test_replicas_exhausted_raises(ray_session, built_index):
    """Losing every replica of a shard group is loud, never silent."""
    import ray

    index_dir, cfg = built_index
    import numpy as np

    ss = ShardedSearcher(index_dir, cfg, num_actors=2, replication=2)
    try:
        qtids, qw = ss.reader.encode_query("w0001 w0002")
        for a in ss.replica_groups[0]:
            ray.kill(a)
            # ray.kill is async — wait until this replica's death is visible
            with pytest.raises(ray.exceptions.RayActorError):
                while True:
                    ray.get(a.score.remote(qtids, qw, 10, "exhaustive"))
        with pytest.raises(ray.exceptions.RayActorError):
            ss.search("w0001 w0002", 10)
    finally:
        ss.shutdown()
