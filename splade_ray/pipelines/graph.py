"""The graph family's two executors: PageRank (uniform, personalized,
weighted), HITS and synchronous label propagation over an edge-list
Dataset.  :func:`_resolve_graph_mode` picks one on node count.

**dense** (to :data:`GRAPH_DENSE_MAX_NODES` nodes): the score vector is a
driver-resident n-float array.  Each power step is ONE pass over the edge
stream (:func:`_dense_mass`): the vector ships once via ``ray.put``, each
batch emits per-destination ``np.unique`` + ``bincount`` partials, and one
driver reduce turns them into the next n-vector.

**vertex** (any size): the score vector itself is distributed, a
``(node, …)`` Dataset hash-bucketed on node id and co-partitioned with
the edge list on the same buckets — a dense vector is an 80 GB
allocation per pass at a 10^10-node web graph.  One power step is two
coarse-bucket exchanges (the ``dedup_clusters_dist`` / ``asof``
tag+union discipline):

- **gather**: edge rows (bucketed on ``hash(src)``) union vertex rows
  (bucketed on ``hash(node)``, carrying the out-share ``rank/outdeg``
  computed at tag time) → per-bucket ``searchsorted`` lookup → per-
  destination contribution partials, pre-summed inside the bucket
  (combiner discipline — at most one row per (src-bucket, dst) leaves);
- **scatter**: contribution partials (bucketed on ``hash(dst)``) union
  vertex rows → per-node mass sum + teleport/restart add → the next
  vertex table, materialized so the next iteration starts from blocks
  in the object store, not a replayed lineage.

There only scalars (the restart total, HITS L1 norms) and the final
bounded top-k partials reach the driver.  The fp summation grouping differs between the
executors only in partial order; both rank on round-9/round-6 keys with
node-id tie-breaks (the house oracle convention), and dense == vertex is
pinned by tests at every fixture scale.

Reference parity: the reference engine has no graph operators; these
back the ``link_pagerank`` / ``personalized_pagerank`` /
``weighted_pagerank`` / ``hits_scores`` / ``label_propagation`` /
``degree_hist`` showcase queries (web-graph centrality and diagnostics
over the deterministic link fixture).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from ..functions.hashing import splitmix64
from ..stages.encode import cached_ref
from ..util import block_tables

__all__ = [
    "GRAPH_DENSE_MAX_NODES",
    "hits_table",
    "hits_top",
    "label_propagation_table",
    "pagerank_table",
    "pagerank_top",
    "topk_by_score",
]

# executor switch (the resolve_dedup_mode discipline): the dense
# driver-vector path is exact and cheap while the score vectors fit one
# heap.  Measured on a 4-CPU host at sf0.01 and sf0.1, both executors give
# hash-equal contract frames and dense takes 0.55-0.98 s per query against
# 3.9-8.6 s for vertex (two exchanges per step, each paying per-bucket task
# overhead), so dense serves every graph it can hold; past this node count
# only the vertex engine runs — nothing node- or edge-scale touches the
# driver there.
GRAPH_DENSE_MAX_NODES: int = 2_000_000


def _resolve_graph_mode(mode: str, n_nodes: int) -> str:
    if mode == "auto":
        return "dense" if n_nodes <= GRAPH_DENSE_MAX_NODES else "vertex"
    if mode not in ("dense", "vertex"):
        raise ValueError(f"unknown graph mode {mode!r}")
    return mode


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _bucket(node: np.ndarray, nbuckets: int) -> np.ndarray:
    return (splitmix64(node.astype(np.uint64)) % np.uint64(nbuckets)).astype(np.int32)


def _read(ds: Dataset, schema: pa.Schema) -> pa.Table:
    """``ds``'s rows, written by a kernel of ``schema``, as one table from
    one execution — typed even when no block holds a row (an empty
    Dataset's ``to_pandas()`` has no columns)."""
    tabs = block_tables(ds)
    return pa.concat_tables(tabs) if tabs else schema.empty_table()


def _tagged(schema: pa.Schema, side: int, **cols) -> pa.Table:
    """Rows of a union ``schema``: the given columns, ``side`` in its
    column (when the schema has one) and zeros in every other."""
    n = len(next(iter(cols.values())))
    return pa.table(
        {
            f.name: cols[f.name]
            if f.name in cols
            else np.full(n, side if f.name == "side" else 0, f.type.to_pandas_dtype())
            for f in schema
        },
        schema=schema,
    )


def _prepare_edges(edges: Dataset, nbuckets: int | None) -> tuple[Dataset, int]:
    """Materialize the edge list and count it once; that count both gates
    the coalesce and sizes the bucket count (when not given).

    Small inputs arrive over-partitioned (a parquet scan's block count
    reflects the source layout, not the data size) and every power-step
    exchange pays per-task scheduling for blocks × buckets tasks.  Coalesce
    tiny edge lists once up front; at scale blocks are data-sized and this
    no-ops."""
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= 2_000_000 and edges.num_blocks() > 4:
        edges = edges.repartition(4).materialize()
    if nbuckets is None:
        nbuckets = int(max(8, min(256, n_edges // 500_000 + 8)))
    return edges, nbuckets


def _bound_blocks(ds: Dataset, nbuckets: int) -> Dataset:
    """A groupby's output block count tracks its INPUT's, and each power
    step feeds the previous vertex table into two unions — left unchecked
    the vertex block count (and with it every later exchange's task count)
    roughly doubles per iteration.  One bounded repartition per iteration
    (vertex-sized, linear) pins it to the bucket count."""
    if ds.num_blocks() > 2 * nbuckets:
        return ds.repartition(nbuckets).materialize()
    return ds


def _exchange(left: Dataset, right: Dataset, kernel, **fn_kwargs) -> Dataset:
    """One coarse-bucket exchange: two ``bkt``-tagged streams meet in one
    ``kernel`` call per bucket."""
    return left.union(right).groupby("bkt").map_groups(kernel, fn_kwargs=fn_kwargs, batch_format="pyarrow")


_GATHER_SCHEMA = pa.schema(
    [("bkt", pa.int32()), ("side", pa.int8()), ("a", pa.int64()), ("b", pa.int64()), ("w", pa.float64())]
)
_SCATTER_SCHEMA = pa.schema(
    [
        ("bkt", pa.int32()),
        ("side", pa.int8()),
        ("node", pa.int64()),
        ("mass", pa.float64()),
        ("outdeg", pa.float64()),
        ("r0", pa.float64()),
    ]
)
_VERTEX_SCHEMA = pa.schema(
    [
        ("bkt", pa.int32()),
        ("node", pa.int64()),
        ("outdeg", pa.float64()),
        ("r0", pa.float64()),
        ("rank", pa.float64()),
    ]
)
_LPA_PARTIAL_SCHEMA = pa.schema(
    [("bkt", pa.int32()), ("side", pa.int8()), ("node", pa.int64()), ("label", pa.int64()), ("c", pa.int64())]
)
_LABEL_SCHEMA = pa.schema([("bkt", pa.int32()), ("node", pa.int64()), ("label", pa.int64())])
_MASS_SCHEMA = pa.schema([("node", pa.int64()), ("mass", pa.float64())])
_SUM_SCHEMA = pa.schema([("s", pa.float64())])


def _vertex_lookup(g: pa.Table, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bucket split on ``side``: the vertex rows (side 1) as row
    indices of ``g`` sorted stably by ``key``; the other rows' indices;
    and, for each other row, the position of its ``key`` in that order
    and whether it is there (keys outside the vertex set contribute
    nothing)."""
    is_v = _col(g, "side") == 1
    keys = _col(g, key)
    vrows = np.flatnonzero(is_v)
    vrows = vrows[np.argsort(keys[vrows], kind="stable")]
    orows = np.flatnonzero(~is_v)
    vkeys, okeys = keys[vrows], keys[orows]
    pos = np.minimum(np.searchsorted(vkeys, okeys), max(vkeys.size - 1, 0))
    hit = vkeys[pos] == okeys if vkeys.size else np.zeros(okeys.size, bool)
    return vrows, orows, pos, hit


def _out_degree_partial(
    batch: pa.Table, nbuckets: int, key: str = "src", weight_col: str | None = None
) -> pa.Table:
    """Per-batch out-degree combiner partials: one (node, mass) row per
    distinct ``key`` holding its edge count, or its weighted out-strength
    with ``weight_col``, tagged with the node's bucket."""
    node, inv = np.unique(_col(batch, key).astype(np.int64), return_inverse=True)
    w = _col(batch, weight_col).astype(np.float64) if weight_col is not None else None
    mass = np.bincount(inv, weights=w, minlength=node.size).astype(np.float64)
    return _tagged(_SCATTER_SCHEMA, 0, bkt=_bucket(node, nbuckets), node=node, mass=mass)


# ---------------------------------------------------------------- dense
def _contrib_partial(
    batch: pa.Table, ref, key_in: str, key_out: str, weight_col: str | None = None
) -> pa.Table:
    """One edge batch's contributions: Σ vec[key_in] (times the edge
    weight with ``weight_col``) per distinct ``key_out`` endpoint, the
    vector read once per worker through ``cached_ref``."""
    vec = cached_ref(ref)
    node, inv = np.unique(_col(batch, key_out), return_inverse=True)
    share = vec[_col(batch, key_in)]
    if weight_col is not None:
        share = share * _col(batch, weight_col)
    mass = np.bincount(inv, weights=share, minlength=node.size)
    return pa.table({"node": node, "mass": mass}, schema=_MASS_SCHEMA)


def _node_sums(t: pa.Table, n: int, val: str = "mass", rows=slice(None)) -> np.ndarray:
    """Σ ``val`` per node over ``rows`` of a (node, val) partial table:
    the driver reduce into an n-vector."""
    return np.bincount(_col(t, "node")[rows], weights=_col(t, val)[rows], minlength=n).astype(np.float64, copy=False)


def _dense_mass(
    edges: Dataset, vec: np.ndarray, key_in: str = "src", key_out: str = "dst", weight_col: str | None = None
) -> np.ndarray:
    """One dense power step's edge pass: ``vec`` summed from each edge's
    ``key_in`` endpoint into its ``key_out`` endpoint."""
    kw = {"ref": ray.put(vec), "key_in": key_in, "key_out": key_out, "weight_col": weight_col}
    parts = edges.map_batches(_contrib_partial, fn_kwargs=kw, batch_format="pyarrow")
    return _node_sums(_read(parts, _MASS_SCHEMA), vec.size)


def _dense_top(k: int, decimals: int, score_col: str, **cols: np.ndarray) -> pd.DataFrame:
    """Top-k nodes by (round(score, decimals) DESC, node ASC) of dense
    score vectors, one column each."""
    score = cols[score_col]
    order = np.lexsort((np.arange(score.size), -np.round(score, decimals)))[:k]
    return pd.DataFrame({"node": order.astype(np.int64), **{c: v[order] for c, v in cols.items()}})


def _l1_normalized(vec: np.ndarray) -> np.ndarray:
    tot = vec.sum()
    return vec / tot if tot > 0 else vec


# --------------------------------------------------------------- vertex
def _tag_edges_gather(
    batch: pa.Table, nbuckets: int, src_col: str, dst_col: str, weight_col: str | None = None
) -> pa.Table:
    """Edge rows for the gather union: bucketed on the SOURCE endpoint
    (where the rank share lives).  Edge rows carry their WEIGHT in the
    ``w`` slot (1.0 unweighted) — the gather kernel multiplies it into
    the source share, which is the weighted-PageRank transition
    ``rank · w_edge / W_src``."""
    src = _col(batch, src_col).astype(np.int64)
    dst = _col(batch, dst_col).astype(np.int64)
    ew = _col(batch, weight_col).astype(np.float64) if weight_col is not None else np.ones(src.size, np.float64)
    return _tagged(_GATHER_SCHEMA, 0, bkt=_bucket(src, nbuckets), a=src, b=dst, w=ew)


def _node_rows(batch: pa.Table, nbuckets: int) -> pa.Table:
    """Vertex rows of a (node, r0) table for the out-degree exchange."""
    node = _col(batch, "node").astype(np.int64)
    r0 = _col(batch, "r0").astype(np.float64)
    return _tagged(_SCATTER_SCHEMA, 1, bkt=_bucket(node, nbuckets), node=node, r0=r0)


def _hub_rows(batch: pa.Table, nbuckets: int) -> pa.Table:
    """HITS' start vertex table of a (node) table: hub = 1 in ``rank``,
    auth = 0 in ``r0``."""
    node = _col(batch, "node").astype(np.int64)
    return _tagged(_VERTEX_SCHEMA, 1, bkt=_bucket(node, nbuckets), node=node, rank=np.ones(node.size))


def _vertex_as_gather(batch: pa.Table, divisor: float = 1.0) -> pa.Table:
    """Vertex rows for the gather union, with the out-share
    ``rank / max(outdeg, 1) / divisor`` computed at tag time (vectorized,
    streaming — no per-bucket division).  PageRank divides by the
    out-degree; HITS' vertex rows hold outdeg 0 and divide by the
    previous half-step's L1 norm."""
    share = _col(batch, "rank") / np.maximum(_col(batch, "outdeg"), 1.0) / divisor
    return _tagged(_GATHER_SCHEMA, 1, bkt=batch.column("bkt"), a=batch.column("node"), w=share)


def _vertex_as_scatter(batch: pa.Table, carry: str = "r0") -> pa.Table:
    """Vertex rows for the scatter union; the ``carry`` column rides in
    ``r0`` (PageRank's restart column, or HITS' previous score)."""
    return _tagged(
        _SCATTER_SCHEMA,
        1,
        bkt=batch.column("bkt"),
        node=batch.column("node"),
        outdeg=batch.column("outdeg"),
        r0=batch.column(carry),
    )


def _gather_kernel(g: pa.Table, nbuckets: int) -> pa.Table:
    """One bucket of the gather exchange: look up each edge's source share
    and emit per-destination pre-summed contribution partials, already
    tagged with the DESTINATION bucket for the scatter exchange."""
    vrows, orows, pos, hit = _vertex_lookup(g, "a")
    w = _col(g, "w")
    dst = _col(g, "b")[orows[hit]]
    ud, inv = np.unique(dst, return_inverse=True)
    mass = np.bincount(inv, weights=w[vrows][pos[hit]] * w[orows[hit]], minlength=ud.size)
    return _tagged(_SCATTER_SCHEMA, 0, bkt=_bucket(ud, nbuckets), node=ud, mass=mass)


def _scatter_kernel(g: pa.Table, alpha: float, beta: float, degrees: bool = False) -> pa.Table:
    """One bucket of the scatter exchange: sum the partials' mass per node
    and apply ``rank' = alpha·r0 + beta·mass`` (uniform PageRank:
    alpha = 1−d with r0 = 1/n; personalized: alpha = restart over the
    seed-concentrated r0; HITS half-steps: alpha = 0, beta = 1).  With
    ``degrees`` the summed mass is the out-degree instead (the vertex
    table build: alpha = 1, beta = 0 keeps rank = r0)."""
    vrows, orows, pos, hit = _vertex_lookup(g, "node")
    acc = np.bincount(pos[hit], weights=_col(g, "mass")[orows[hit]], minlength=vrows.size)
    r0 = _col(g, "r0")[vrows]
    return _tagged(
        _VERTEX_SCHEMA,
        1,
        bkt=_col(g, "bkt")[vrows],
        node=_col(g, "node")[vrows],
        outdeg=acc if degrees else _col(g, "outdeg")[vrows],
        r0=r0,
        rank=alpha * r0 + beta * acc,
    )


def _power_step(
    vertex: Dataset,
    edges_g: Dataset,
    nbuckets: int,
    alpha: float,
    beta: float,
    divisor: float = 1.0,
    carry: str = "r0",
) -> Dataset:
    """One vertex power step: the gather exchange, then the scatter
    exchange into the next (materialized, block-bounded) vertex table."""
    gathered = _exchange(
        edges_g,
        vertex.map_batches(_vertex_as_gather, fn_kwargs={"divisor": divisor}, batch_format="pyarrow"),
        _gather_kernel,
        nbuckets=nbuckets,
    )
    nxt = _exchange(
        gathered,
        vertex.map_batches(_vertex_as_scatter, fn_kwargs={"carry": carry}, batch_format="pyarrow"),
        _scatter_kernel,
        alpha=alpha,
        beta=beta,
    )
    return _bound_blocks(nxt.materialize(), nbuckets)


def _tag_edges(
    edges: Dataset, nbuckets: int, src_col: str = "src", dst_col: str = "dst", weight_col: str | None = None
) -> Dataset:
    """The gather exchange's edge rows, materialized once for every step."""
    kw = {"nbuckets": nbuckets, "src_col": src_col, "dst_col": dst_col, "weight_col": weight_col}
    return edges.map_batches(_tag_edges_gather, fn_kwargs=kw, batch_format="pyarrow").materialize()


def _degree_streams(
    nodes: Dataset, edges: Dataset, nbuckets: int, weight_col: str | None = None, key: str = "src"
) -> tuple[Dataset, Dataset]:
    """The out-degree combiner partials of ``edges`` (side 0) and the
    vertex rows of a (node, r0) node table (side 1), both bucketed."""
    degrees = edges.map_batches(
        _out_degree_partial,
        fn_kwargs={"nbuckets": nbuckets, "key": key, "weight_col": weight_col},
        batch_format="pyarrow",
    )
    return degrees, nodes.map_batches(_node_rows, fn_kwargs={"nbuckets": nbuckets}, batch_format="pyarrow")


def _build_vertex_table(
    nodes: Dataset, edges: Dataset, nbuckets: int, weight_col: str | None = None, key: str = "src"
) -> Dataset:
    """(bkt, node, outdeg, r0, rank=r0) from a (node, r0) node table and a
    (src, dst[, weight]) edge list — out-degrees (weighted out-strengths
    when ``weight_col`` is given; in-degrees with ``key="dst"``) via
    per-batch combiner partials joined to the node set inside ONE bucket
    exchange."""
    streams = _degree_streams(nodes, edges, nbuckets, weight_col, key)
    vertex = _exchange(*streams, _scatter_kernel, alpha=1.0, beta=0.0, degrees=True)
    return _bound_blocks(vertex.materialize(), nbuckets)


def pagerank_table(
    nodes: Dataset,
    edges: Dataset,
    *,
    iters: int,
    damping: float,
    restart: float | None = None,
    nbuckets: int | None = None,
    weight_col: str | None = None,
) -> Dataset:
    """Distributed power iteration: returns a (node, rank) Dataset after
    ``iters`` steps of ``rank' = alpha·r0 + damping·(Σ incoming
    rank/outdeg)`` starting from ``rank = r0``.

    ``nodes``: (node:int64, r0:float64) — the teleport/restart
    distribution (uniform 1/n for classic PageRank; seed-concentrated for
    the personalized variant).  ``edges``: (src:int64, dst:int64),
    self-loop-free.  ``alpha`` is ``restart`` when given (PPR) else
    ``1 − damping``.  Nothing node- or edge-scale touches the driver."""
    edges, nbuckets = _prepare_edges(edges, nbuckets)
    alpha = (1.0 - damping) if restart is None else restart
    vertex = _build_vertex_table(nodes, edges, nbuckets, weight_col)
    edges_g = _tag_edges(edges, nbuckets, weight_col=weight_col)
    for _ in range(iters):
        vertex = _power_step(vertex, edges_g, nbuckets, alpha, damping)
    return vertex.select_columns(["node", "rank"])


def _abs_sum(batch: pa.Table, col: str) -> pa.Table:
    return pa.table({"s": [float(np.abs(_col(batch, col)).sum())]}, schema=_SUM_SCHEMA)


def _l1_total(ds: Dataset, col: str) -> float:
    """Σ|col| via per-block partials — one scalar to the driver."""
    parts = _read(ds.map_batches(_abs_sum, fn_kwargs={"col": col}, batch_format="pyarrow"), _SUM_SCHEMA)
    return float(_col(parts, "s").sum())


def _hits_final(batch: pa.Table, ta: float, th: float) -> pa.Table:
    return pa.table(
        {"node": batch.column("node"), "auth": _col(batch, "r0") / ta, "hub": _col(batch, "rank") / th}
    )


def hits_table(
    nodes: Dataset,
    edges: Dataset,
    *,
    iters: int,
    nbuckets: int | None = None,
) -> Dataset:
    """Distributed HITS (Kleinberg): returns (node, auth, hub) after
    ``iters`` full iterations (a ← A^T h then h ← A a, each half-step
    L1-normalized) from the all-ones hub start.

    Each half-step is one :func:`_power_step` (alpha = 0, beta = 1): the
    freshly gathered score lands in ``rank`` and the other one rides in
    ``r0``, so after a full iteration ``r0`` holds auth and ``rank`` hub.
    The normalization divisor is the only driver-resident state (one
    scalar per half-step, from per-block partial sums); it is FOLDED into
    the next half-step's gather shares rather than rewriting the vertex
    table, so each element is divided exactly once — the same arithmetic
    as the dense path.  ``nodes``: (node:int64) — the vertex universe
    (rows absent from every edge still emit auth = hub = 0)."""
    edges, nbuckets = _prepare_edges(edges, nbuckets)
    vertex = nodes.map_batches(_hub_rows, fn_kwargs={"nbuckets": nbuckets}, batch_format="pyarrow").materialize()
    fwd = _tag_edges(edges, nbuckets)
    rev = _tag_edges(edges, nbuckets, "dst", "src")
    ta, th = 1.0, 1.0
    for _ in range(iters):
        vertex = _power_step(vertex, fwd, nbuckets, 0.0, 1.0, th, "rank")  # a ← A^T h
        ta = _l1_total(vertex, "rank") or 1.0
        vertex = _power_step(vertex, rev, nbuckets, 0.0, 1.0, ta, "rank")  # h ← A a
        th = _l1_total(vertex, "rank") or 1.0
    return vertex.map_batches(_hits_final, fn_kwargs={"ta": ta, "th": th}, batch_format="pyarrow")


# ------------------------------------------------------- label propagation
def _pair_sums(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Σ c per distinct (x, y) pair, pairs in (x, y) order."""
    order = np.lexsort((y, x))
    x, y, c = x[order], y[order], c[order]
    new = np.ones(x.size, bool)
    new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    starts = np.flatnonzero(new)
    tot = np.add.reduceat(c, starts) if starts.size else c[:0]
    return x[starts], y[starts], tot


def _mirror(batch: pa.Table) -> pa.Table:
    src = pc.cast(batch.column("src"), pa.int64()).combine_chunks()
    dst = pc.cast(batch.column("dst"), pa.int64()).combine_chunks()
    return pa.table({"src": pa.concat_arrays([src, dst]), "dst": pa.concat_arrays([dst, src])})


def _label_rows(batch: pa.Table, nbuckets: int) -> pa.Table:
    node = _col(batch, "node").astype(np.int64)
    return _tagged(_LABEL_SCHEMA, 1, bkt=_bucket(node, nbuckets), node=node, label=node)


def _label_as_gather(batch: pa.Table) -> pa.Table:
    return _tagged(_GATHER_SCHEMA, 1, bkt=batch.column("bkt"), a=batch.column("node"), b=batch.column("label"))


def _label_as_scatter(batch: pa.Table) -> pa.Table:
    return _tagged(_LPA_PARTIAL_SCHEMA, 1, bkt=batch.column("bkt"), node=batch.column("node"), label=batch.column("label"))


def _lpa_gather_kernel(g: pa.Table, nbuckets: int) -> pa.Table:
    """One bucket of the LPA gather: look up each edge's source label and
    emit per-(destination, label) pre-summed count partials, tagged with
    the destination bucket."""
    vrows, orows, pos, hit = _vertex_lookup(g, "a")
    b = _col(g, "b")
    dst, lab, c = _pair_sums(b[orows[hit]], b[vrows][pos[hit]], np.ones(int(hit.sum()), np.int64))
    return _tagged(_LPA_PARTIAL_SCHEMA, 0, bkt=_bucket(dst, nbuckets), node=dst, label=lab, c=c)


def _lpa_scatter_kernel(g: pa.Table) -> pa.Table:
    """One bucket of the LPA scatter: sum (node, label) count partials and
    elect each node's new label by (count DESC, label ASC); nodes with no
    neighbor partials keep their current label.  Emits the next
    (bkt, node, label) vertex table rows."""
    vrows, orows, pos, hit = _vertex_lookup(g, "node")
    label = _col(g, "label")
    new_label = label[vrows]
    p, lab, tot = _pair_sums(pos[hit], label[orows[hit]], _col(g, "c")[orows[hit]])
    order = np.lexsort((lab, -tot, p))  # per vertex: count DESC, label ASC
    p, lab = p[order], lab[order]
    first = np.ones(p.size, bool)
    first[1:] = p[1:] != p[:-1]
    new_label[p[first]] = lab[first]
    return _tagged(_LABEL_SCHEMA, 1, bkt=_col(g, "bkt")[vrows], node=_col(g, "node")[vrows], label=new_label)


def label_propagation_table(
    nodes: Dataset,
    edges: Dataset,
    *,
    iters: int,
    nbuckets: int | None = None,
    symmetric: bool = True,
) -> Dataset:
    """Distributed synchronous Label Propagation (Raghavan et al. 2007,
    the GraphX/GraphFrames LPA): labels start as node ids; each iteration
    every node adopts the most frequent label among its neighbors
    (ties: smallest label; isolated nodes keep their label) — all nodes
    update simultaneously, so ``iters`` rounds unroll exactly into a SQL
    oracle.  Returns a (node, label) Dataset.

    Same two-exchange shape as :func:`pagerank_table` with the weighted
    sum swapped for a per-(node, label) count election — the label table
    is node-hash-bucketed, co-partitioned with edges; per-bucket partials
    are pre-summed per (destination, label) before the exchange.
    ``symmetric=True`` mirrors each directed edge (the usual undirected
    LPA neighborhood)."""
    if symmetric:
        edges = edges.map_batches(_mirror, batch_format="pyarrow")
    edges, nbuckets = _prepare_edges(edges, nbuckets)
    edges_g = _tag_edges(edges, nbuckets)
    vertex = nodes.map_batches(_label_rows, fn_kwargs={"nbuckets": nbuckets}, batch_format="pyarrow").materialize()
    for _ in range(iters):
        gathered = _exchange(
            edges_g, vertex.map_batches(_label_as_gather, batch_format="pyarrow"), _lpa_gather_kernel, nbuckets=nbuckets
        )
        nxt = _exchange(gathered, vertex.map_batches(_label_as_scatter, batch_format="pyarrow"), _lpa_scatter_kernel)
        vertex = _bound_blocks(nxt.materialize(), nbuckets)
    return vertex.select_columns(["node", "label"])


# ------------------------------------------------------------- top-k
def _topk_rows(batch: pa.Table, score_col: str, k: int, decimals: int) -> pa.Table:
    order = np.lexsort((_col(batch, "node"), -np.round(_col(batch, score_col), decimals)))[:k]
    return batch.take(order)


def topk_by_score(
    vertex: Dataset, score_col: str, k: int, *, decimals: int = 9
) -> pd.DataFrame:
    """Global top-k rows by (round(score, decimals) DESC, node ASC), every
    column kept — per-block partial top-k (boundary-safe on the rounded
    key) then a driver merge over the k·n_blocks-bounded partials."""
    tabs = block_tables(
        vertex.map_batches(
            _topk_rows, fn_kwargs={"score_col": score_col, "k": k, "decimals": decimals}, batch_format="pyarrow"
        )
    )
    if not tabs:
        return pd.DataFrame({"node": np.zeros(0, np.int64), score_col: np.zeros(0)})
    parts = pa.concat_tables(tabs).to_pandas()
    parts["_rk"] = parts[score_col].round(decimals)
    parts = parts.sort_values(["_rk", "node"], ascending=[False, True], kind="mergesort").head(k)
    return parts.drop(columns="_rk").reset_index(drop=True)


# ------------------------------------------------- the two executors
def _normalized_restart(batch: pa.Table, total: float) -> pa.Table:
    return pa.table({"node": batch.column("node"), "r0": _col(batch, "r0") / total})


def pagerank_top(
    nodes: Dataset,
    edges: Dataset,
    n_nodes: int,
    k: int,
    *,
    decimals: int,
    iters: int,
    damping: float,
    restart: float | None = None,
    weight_col: str | None = None,
    mode: str = "auto",
) -> pd.DataFrame:
    """Top-k (node, rank) by (round(rank, decimals) DESC, node ASC) of the
    PageRank :func:`pagerank_table` defines, on the executor ``mode``
    resolves to for ``n_nodes`` (node ids in [0, n_nodes)).

    ``nodes``: (node, r0) restart WEIGHTS; the restart distribution is
    r0 / Σr0.  With Σr0 = 0 there is nothing to restart on (an empty
    graph, or a personalization set with no member) and the ranking is
    empty."""
    empty = _dense_top(k, decimals, "rank", rank=np.zeros(0))
    alpha = (1.0 - damping) if restart is None else restart
    if _resolve_graph_mode(mode, n_nodes) == "vertex":
        total = _l1_total(nodes, "r0")
        if total == 0:
            return empty
        nodes = nodes.map_batches(_normalized_restart, fn_kwargs={"total": total}, batch_format="pyarrow")
        vertex = pagerank_table(
            nodes, edges, iters=iters, damping=damping, restart=restart, weight_col=weight_col
        )
        return topk_by_score(vertex, "rank", k, decimals=decimals)
    # the weights and the out-degrees from one execution: the vertex-table
    # build's tagged union, reduced on the driver instead of per bucket
    degrees, rows = _degree_streams(nodes, edges, 1, weight_col)
    t = _read(degrees.union(rows), _SCATTER_SCHEMA)
    is_v = _col(t, "side") == 1
    r0, outdeg = _node_sums(t, n_nodes, "r0", is_v), _node_sums(t, n_nodes, "mass", ~is_v)
    total = r0.sum()
    if total == 0:
        return empty
    r0 = r0 / total
    rank = r0
    for _ in range(iters):
        rank = alpha * r0 + damping * _dense_mass(edges, rank / np.maximum(outdeg, 1.0), weight_col=weight_col)
    return _dense_top(k, decimals, "rank", rank=rank)


def hits_top(
    nodes: Dataset, edges: Dataset, n_nodes: int, k: int, *, decimals: int, iters: int, mode: str = "auto"
) -> pd.DataFrame:
    """Top-k (node, auth, hub) by (round(auth, decimals) DESC, node ASC) of
    the HITS :func:`hits_table` defines, on the executor ``mode`` resolves
    to for ``n_nodes`` (node ids in [0, n_nodes))."""
    if _resolve_graph_mode(mode, n_nodes) == "vertex":
        top = topk_by_score(hits_table(nodes, edges, iters=iters), "auth", k, decimals=decimals)
        return top.reindex(columns=["node", "auth", "hub"])  # a graph with no node has no hub column
    hub, auth = np.ones(n_nodes), np.zeros(n_nodes)
    for _ in range(iters):
        auth = _l1_normalized(_dense_mass(edges, hub, "src", "dst"))  # a ← A^T h
        hub = _l1_normalized(_dense_mass(edges, auth, "dst", "src"))  # h ← A a
    return _dense_top(k, decimals, "auth", auth=auth, hub=hub)
