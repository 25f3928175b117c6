"""Vertex-partitioned graph engine (pipelines/graph.py): engine vs a dense
numpy reference on random graphs, and dense == vertex mode equality for the
three showcase queries on the sf0.001 fixture."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.001"


def _random_graph(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    return src[keep], dst[keep]


def _dense_pagerank(n, src, dst, r0, iters, damping, alpha):
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    rank = r0.copy()
    for _ in range(iters):
        share = np.divide(rank, outdeg, out=np.zeros_like(rank), where=outdeg > 0)
        acc = np.zeros(n)
        np.add.at(acc, dst, share[src])
        rank = alpha * r0 + damping * acc
    return rank


@pytest.mark.parametrize("seed,n,m,nbuckets", [(7, 400, 2500, 5), (13, 37, 90, 3)])
def test_pagerank_table_vs_dense(ray_session, seed, n, m, nbuckets):
    from splade_ray.pipelines.graph import pagerank_table

    src, dst = _random_graph(seed, n, m)
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    r0 = np.full(n, 1.0 / n)
    nodes = rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(r0)})
    )
    out = (
        pagerank_table(nodes, edges, iters=3, damping=0.85, nbuckets=nbuckets)
        .to_pandas()
        .sort_values("node")
    )
    assert len(out) == n  # every node survives, linked or not
    want = _dense_pagerank(n, src, dst, r0, 3, 0.85, 0.15)
    got = np.zeros(n)
    got[out["node"].to_numpy()] = out["rank"].to_numpy()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_prepare_edges_counts_once(ray_session, monkeypatch):
    """One count() per edge list feeds both the coalesce gate and the
    bucket-count heuristic; a given bucket count is kept."""
    from ray.data import Dataset

    from splade_ray.pipelines.graph import _prepare_edges

    calls = []
    count = Dataset.count
    monkeypatch.setattr(Dataset, "count", lambda self: calls.append(1) or count(self))
    src, dst = _random_graph(5, 50, 300)
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)})).repartition(12)
    out, nb = _prepare_edges(edges, None)
    assert len(calls) == 1
    assert nb == 8 and out.num_blocks() == 4 and out.count() == src.size
    assert _prepare_edges(edges, 5)[1] == 5


def test_pagerank_table_personalized_restart(ray_session):
    from splade_ray.pipelines.graph import pagerank_table

    n = 300
    src, dst = _random_graph(21, n, 1500)
    seeds = np.arange(0, n, 7)
    r0 = np.zeros(n)
    r0[seeds] = 1.0 / seeds.size
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    nodes = rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(r0)})
    )
    out = (
        pagerank_table(nodes, edges, iters=3, damping=0.85, restart=0.15, nbuckets=4)
        .to_pandas()
        .sort_values("node")
    )
    want = _dense_pagerank(n, src, dst, r0, 3, 0.85, 0.15)
    got = np.zeros(n)
    got[out["node"].to_numpy()] = out["rank"].to_numpy()
    np.testing.assert_allclose(got, want, atol=1e-12)
    # restart mass lands even on nodes with no in-links
    no_in = np.setdiff1d(seeds, np.unique(dst))
    if no_in.size:
        assert (got[no_in] > 0).all()


def test_pagerank_table_weighted_vs_dense(ray_session):
    from splade_ray.pipelines.graph import pagerank_table

    n = 250
    src, dst = _random_graph(31, n, 1400)
    w = (1 + (src + dst) % 3).astype(np.float64)
    W = np.zeros(n)
    np.add.at(W, src, w)
    r0 = np.full(n, 1.0 / n)
    rank = r0.copy()
    for _ in range(3):
        share = np.divide(rank, W, out=np.zeros_like(rank), where=W > 0)
        acc = np.zeros(n)
        np.add.at(acc, dst, share[src] * w)
        rank = 0.15 * r0 + 0.85 * acc
    edges = rd.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst), "w": pa.array(w)})
    )
    nodes = rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(r0)})
    )
    out = (
        pagerank_table(nodes, edges, iters=3, damping=0.85, nbuckets=4, weight_col="w")
        .to_pandas()
        .sort_values("node")
    )
    got = np.zeros(n)
    got[out["node"].to_numpy()] = out["rank"].to_numpy()
    np.testing.assert_allclose(got, rank, atol=1e-12)


def test_hits_table_vs_dense(ray_session):
    from splade_ray.pipelines.graph import hits_table

    n = 350
    src, dst = _random_graph(5, n, 2000)
    hub = np.ones(n)
    auth = np.zeros(n)
    for _ in range(3):
        acc = np.zeros(n)
        np.add.at(acc, dst, hub[src])
        t = acc.sum()
        auth = acc / t if t > 0 else acc
        acc = np.zeros(n)
        np.add.at(acc, src, auth[dst])
        t = acc.sum()
        hub = acc / t if t > 0 else acc
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    nodes = rd.from_arrow(pa.table({"node": pa.array(np.arange(n, dtype=np.int64))}))
    out = hits_table(nodes, edges, iters=3, nbuckets=4).to_pandas().sort_values("node")
    assert len(out) == n
    ga = np.zeros(n)
    gh = np.zeros(n)
    ga[out["node"].to_numpy()] = out["auth"].to_numpy()
    gh[out["node"].to_numpy()] = out["hub"].to_numpy()
    np.testing.assert_allclose(ga, auth, atol=1e-12)
    np.testing.assert_allclose(gh, hub, atol=1e-12)


def test_label_propagation_vs_dense(ray_session):
    from collections import Counter

    from splade_ray.pipelines.graph import label_propagation_table

    n = 300
    src, dst = _random_graph(3, n, 900)
    s2 = np.concatenate([src, dst])
    d2 = np.concatenate([dst, src])
    label = np.arange(n, dtype=np.int64)
    for _ in range(3):
        newl = label.copy()
        order = np.argsort(d2, kind="stable")
        dd, ss = d2[order], s2[order]
        starts = np.r_[0, np.nonzero(np.diff(dd))[0] + 1]
        for i, st in enumerate(starts):
            en = starts[i + 1] if i + 1 < len(starts) else dd.size
            cnt = Counter(label[ss[st:en]])
            newl[dd[st]] = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        label = newl
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    nodes = rd.from_arrow(pa.table({"node": pa.array(np.arange(n, dtype=np.int64))}))
    out = (
        label_propagation_table(nodes, edges, iters=3, nbuckets=4)
        .to_pandas()
        .sort_values("node")
    )
    assert len(out) == n  # isolated nodes keep their own label
    got = np.zeros(n, dtype=np.int64)
    got[out["node"].to_numpy()] = out["label"].to_numpy()
    np.testing.assert_array_equal(got, label)


def test_topk_by_score_ties(ray_session):
    from splade_ray.pipelines.graph import topk_by_score

    # scores tie after rounding → node-id ascending breaks them
    node = np.arange(20, dtype=np.int64)
    score = np.where(node % 2 == 0, 0.5 + node * 1e-12, 0.1)
    ds = rd.from_arrow(pa.table({"node": pa.array(node), "rank": pa.array(score)})).repartition(3)
    top = topk_by_score(ds, "rank", 5, decimals=6)
    assert top["node"].tolist() == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("name", ["link_pagerank", "personalized_pagerank", "hits_scores"])
def test_query_modes_agree(ray_session, name):
    from splade_ray.pipelines import queries as q

    fn = getattr(q, name)
    a = fn(SF, mode="dense")
    b = fn(SF, mode="vertex")
    a = a.sort_values(list(a.columns), ignore_index=True)
    b = b.sort_values(list(b.columns), ignore_index=True)
    pd.testing.assert_frame_equal(a, b, check_exact=False, atol=1e-9)


def test_pagerank_top_executors_agree_weighted(ray_session):
    """Both executors of pagerank_top normalize the restart weights and
    apply the edge weights the same way (the weighted reference above);
    all-zero weights give an empty ranking on both."""
    from splade_ray.pipelines.graph import pagerank_top

    n = 120
    src, dst = _random_graph(17, n, 700)
    w = (1 + (src + dst) % 3).astype(np.float64)
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst), "w": pa.array(w)}))
    seeds = (np.arange(n) % 4 == 0).astype(np.float64)
    nodes = rd.from_arrow(pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(seeds)}))
    kw = dict(decimals=9, iters=3, damping=0.85, restart=0.15, weight_col="w")
    dense = pagerank_top(nodes, edges, n, 20, mode="dense", **kw)
    vertex = pagerank_top(nodes, edges, n, 20, mode="vertex", **kw)
    assert dense["node"].tolist() == vertex["node"].tolist()
    np.testing.assert_allclose(dense["rank"], vertex["rank"], atol=1e-12)
    zero = rd.from_arrow(pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(np.zeros(n))}))
    for mode in ("dense", "vertex"):
        assert len(pagerank_top(zero, edges, n, 20, mode=mode, **kw)) == 0


def test_pagerank_table_million_edges(ray_session):
    """Scale smoke: 1M edges / 400k nodes through the vertex engine —
    exercises real multi-bucket exchanges (nbuckets from the size
    heuristic) and the block-bounding logic, pinned against the dense
    reference."""
    from splade_ray.pipelines.graph import pagerank_table, topk_by_score

    n = 400_000
    src, dst = _random_graph(99, n, 1_000_000)
    r0 = np.full(n, 1.0 / n)
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)})).repartition(16)
    nodes = rd.from_arrow(
        pa.table({"node": pa.array(np.arange(n, dtype=np.int64)), "r0": pa.array(r0)})
    )
    vertex = pagerank_table(nodes, edges, iters=2, damping=0.85)
    want = _dense_pagerank(n, src, dst, r0, 2, 0.85, 0.15)
    # bounded verification: the global top-100 matches the dense ranking
    top = topk_by_score(vertex, "rank", 100, decimals=9)
    order = np.lexsort((np.arange(n), -np.round(want, 9)))[:100]
    np.testing.assert_array_equal(top["node"].to_numpy(), order)
    np.testing.assert_allclose(top["rank"].to_numpy(), want[order], atol=1e-12)


def test_auto_mode_resolution():
    from splade_ray.pipelines.graph import GRAPH_DENSE_MAX_NODES, _resolve_graph_mode

    assert _resolve_graph_mode("auto", 1000) == "dense"
    assert _resolve_graph_mode("auto", GRAPH_DENSE_MAX_NODES + 1) == "vertex"
    assert _resolve_graph_mode("vertex", 10) == "vertex"
    with pytest.raises(ValueError):
        _resolve_graph_mode("nope", 10)
