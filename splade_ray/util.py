"""Shared execution-sizing helpers."""

from __future__ import annotations

import ray


def pool_size(reserve: int = 2, fraction: float = 0.75) -> int:
    """Parallelism that leaves headroom for the read/write/shuffle stages
    sharing the cluster.  It sizes only two things: the neural encoder's
    actor pool (the one stage that holds a model) and the join partition
    count in ``pipelines.dedup``.  Every other stage runs as Ray Data tasks,
    which need no size.  A pool that reserves every CPU starves the
    upstream tasks and can stall the pipeline outright (observed: a
    concurrency=4 pool on a 4-CPU cluster deadlocks the read)."""
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        ncpu = 4
    return max(1, min(ncpu - reserve, int(ncpu * fraction)))


def sample_window(ds, key: str, skip: int, limit: int):
    """S3 sample window (reference ``base.py:268-279``: dataset slice
    [skip, skip+limit)) as a first-class projection over a DETERMINISTIC
    order: sort by ``key``, truncate to the first skip+limit rows with the
    streaming ``limit`` operator (only that prefix ever materializes), then
    drop the first ``skip`` with an order-preserving ``split_at_indices``.
    Row-position semantics over an unordered distributed dataset require
    the explicit sort key — there is no hidden "input order"."""
    head = ds.sort(key).limit(skip + limit)
    if skip <= 0:
        return head
    return head.split_at_indices([skip])[1]


def block_tables(ds) -> list:
    """Every non-empty output block of ``ds`` as a pyarrow table, from ONE
    execution.  ``Dataset.to_arrow_refs`` runs the plan and then calls
    ``schema()``, which for a plan ending in a UDF re-runs it as a second,
    ``limit(1)``-capped execution that cancels its pending map tasks on
    exit: twice the reads, and an early stop racing the first execution's
    block refs.  Zero-row blocks skip the map UDF (Ray fast path) and keep
    the raw read schema, so they are dropped here."""
    refs = [ref for bundle in ds.iter_internal_ref_bundles() for ref, _ in bundle.blocks]
    return [t for t in ray.get(refs) if t.num_rows]
