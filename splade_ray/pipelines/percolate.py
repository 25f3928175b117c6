"""Percolator: registered queries matched against a streaming document set
(the ES percolate / Lucene Monitor "reverse search" surface; the reference
engine stops at forward retrieval — reference/src/retrieval/sparse_index.py
— so this is serving-parity beyond it).

Distributed shape: the query set is the SMALL side (compiled once on the
driver, shipped with the task stage); documents stream through
one ``map_batches`` pass — no shuffle, no index, the 100-TB case is
documents ≫ queries and this stays one linear scan with backpressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CONFIG, EngineConfig
from ..tokenizer import Tokenizer


@dataclass(frozen=True)
class PercQuery:
    """One registered query: ``kind='all'`` requires every (distinct)
    token, ``kind='any'`` requires at least one."""

    query_id: str
    text: str
    kind: str = "all"


_EMPTY = pa.table({"query_id": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64())})


class PercolatorStage:
    """map_batches(pyarrow) task stage: (doc_id, text) → (query_id,
    doc_id) match rows.

    Query compilation happens once, in ``__init__`` on the driver; the
    compiled term table (query-set-bounded) ships with the stage to every
    task.  The per-batch path is one vectorized
    tokenize (md5 hashes), one distinct-(doc, token) dedupe, one
    searchsorted join against the compiled term table (a token hash shared
    by several queries expands by run length), and one (doc, query)
    counting pass — no Python loop over rows or queries."""

    def __init__(self, queries: list[PercQuery], cfg: EngineConfig = DEFAULT_CONFIG):
        from ..functions.hashing import md5_u64

        queries = list(queries)
        if not queries:
            raise ValueError("percolator needs at least one registered query")
        self.tok = Tokenizer(cfg)
        self.qids = np.asarray([q.query_id for q in queries], dtype=object)
        th_parts, tq_parts = [], []
        req = np.zeros(len(queries), np.int64)
        for qi, q in enumerate(queries):
            toks = sorted(set(self.tok.tokenize(q.text)))
            if not toks:
                raise ValueError(f"percolator query {q.query_id!r} has no tokens")
            if q.kind not in ("all", "any"):
                raise ValueError(f"unknown percolator kind {q.kind!r}")
            h = md5_u64(toks)
            th_parts.append(h)
            tq_parts.append(np.full(h.size, qi, np.int64))
            req[qi] = len(toks) if q.kind == "all" else 1
        th = np.concatenate(th_parts)
        tq = np.concatenate(tq_parts)
        perm = np.argsort(th, kind="stable")
        self.term_h, self.term_q = th[perm], tq[perm]
        self.req = req
        self.nq = len(queries)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hashes, rows, _dls = self.tok.tokenize_md5(batch.column("text").to_pylist())
        if hashes.size == 0:
            return _EMPTY
        order = np.lexsort((hashes, rows))
        h, r = hashes[order], rows[order]
        first = np.ones(h.size, bool)
        first[1:] = (h[1:] != h[:-1]) | (r[1:] != r[:-1])
        h, r = h[first], r[first]
        lo = np.searchsorted(self.term_h, h, side="left")
        hi = np.searchsorted(self.term_h, h, side="right")
        runs = hi - lo
        keep = runs > 0
        lo, runs, r = lo[keep], runs[keep], r[keep]
        tot = int(runs.sum())
        if tot == 0:
            return _EMPTY
        csum = np.cumsum(runs)
        idx = np.arange(tot, dtype=np.int64) - np.repeat(csum - runs, runs) + np.repeat(lo, runs)
        qi = self.term_q[idx]
        di = np.repeat(r, runs)
        # (doc, query, term) triples are distinct by construction
        # ((doc, hash) distinct × (hash, query) distinct), so a plain count
        # per (doc, query) IS the distinct matched-term count
        key = di * self.nq + qi
        ukey, cnt = np.unique(key, return_counts=True)
        ud, uq = ukey // self.nq, ukey % self.nq
        ok = cnt >= self.req[uq]
        return pa.table(
            {
                "query_id": pa.array(self.qids[uq[ok]], pa.string()),
                "doc_id": pa.array(doc_ids[ud[ok]]),
            }
        )


def percolate(
    ds,
    queries: list[PercQuery],
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int = 4096,
):
    """Match every registered query against every document in ``ds``
    (columns ``doc_id``, ``text``); returns a Dataset of (query_id,
    doc_id) rows.  Queries compile once, here on the driver."""
    return ds.map_batches(PercolatorStage(queries, cfg), batch_format="pyarrow", batch_size=batch_size)
