"""Per-layer metrics of a traced run.

:func:`install` wraps the program's layer boundaries with spans (from the
benchmark's side; see ``trace.py``).  After the workload has run,
:func:`measure` adds deterministic probe passes over the distinct queries
(which also give the tracing overhead), replays the build kernels on one
``read_batch_size`` batch in-process, and turns spans, counters and replays
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

import splade_ray.pipelines.build as build_mod
import splade_ray.pipelines.search as search_mod
from splade_ray.codec import binary_concat, varint_decode
from splade_ray.pipelines.search import SearcherStage
from splade_ray.stages.dedup import compute_winners, dedup_broadcast_batch
from splade_ray.stages.encode import term_count_table
from splade_ray.stages.postings import build_shard_index, map_term_ids
from splade_ray.state.lineage import read_json
from splade_ray.tokenizer import Tokenizer, extract_text_batch

from .lifecycle import CFG, K, Run, now, parquet_bytes
from .trace import ATTRS, END, NAME, START, Tracer

REPLAY_REPEATS = 5


class TimedSearcherStage(SearcherStage):
    """``SearcherStage`` that reports its construct time and the time of
    each ``__call__`` as extra columns (the actor runs in another process,
    out of the driver tracer's reach)."""

    def __init__(self, *args, **kwargs):
        t0 = time.perf_counter()
        super().__init__(*args, **kwargs)
        self.init_s = time.perf_counter() - t0
        self.calls = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(batch)
        ms = 1e3 * (time.perf_counter() - t0)
        self.calls += 1
        n = out.num_rows
        return (
            out.append_column("stage_init_s", pa.array([self.init_s] * n, type=pa.float64()))
            .append_column("call_no", pa.array([self.calls] * n, type=pa.int64()))
            .append_column("call_ms", pa.array([ms] * n, type=pa.float64()))
        )


def install(tracer: Tracer) -> None:
    """Spans at the layer boundaries the per-layer metrics name."""
    S = search_mod
    tracer.wrap(build_mod, "resolve_dedup_mode", "build.resolve_dedup_mode")
    tracer.wrap(build_mod, "compute_winners", "dedup.compute_winners")
    tracer.wrap(build_mod.IndexBuilder, "build_doc_terms", "build.doc_terms")
    tracer.wrap(build_mod.IndexBuilder, "build_stats", "build.stats")
    tracer.wrap(build_mod.IndexBuilder, "build_postings", "build.postings")
    tracer.wrap(S.IndexReader, "__init__", "search.load")
    tracer.wrap(S.ShardIndex, "consolidated", "search.consolidate")
    tracer.wrap(S.IndexReader, "search", "search.search")
    tracer.wrap(S.IndexReader, "encode_query", "search.encode")
    tracer.wrap(S.IndexReader, "url_of", "search.url_fetch")
    tracer.wrap(
        S.ShardIndex, "_term_slices", "search.term_lookup",
        on_call=lambda args, out: {"postings": sum(e - s for _i, s, e, _p in out)},
    )
    tracer.wrap(S.ShardIndex, "score_exhaustive", "search.score_exhaustive")
    tracer.wrap(
        S.ShardIndex, "_topk_from_scores", "search.topk_select",
        on_call=lambda args, out: {"touched": np.count_nonzero(args[1]) / max(args[1].size, 1)},
    )
    tracer.wrap(
        S.ShardIndex, "score_wand", "search.score_wand",
        on_call=lambda args, out: {"nzones": -(-args[0].n_local // args[0].zone_docs)},
    )
    tracer.wrap(
        S.ShardIndex, "_gather_zones", "search.gather_zones",
        on_call=lambda args, out: {"zones": int(len(args[2]))},
    )
    tracer.wrap(S.ShardedSearcher, "search", "sharded.search")
    tracer.wrap(S.ShardedSearcher, "_scatter", "sharded.scatter")


def probe_actor(run: Run, sharded) -> None:
    """Bare actor round trips against the live sharded searcher."""
    actor = sharded.actors[0]
    ray.get(actor.__ray_ready__.remote())
    rtts = []
    for _ in range(100):
        t0 = now()
        ray.get(actor.__ray_ready__.remote())
        rtts.append(now() - t0)
    run.info["actor_rtt_s"] = statistics.median(rtts)


def probe_passes(run: Run, tracer: Tracer) -> float:
    """One pass over the distinct queries per probe, so the counts they
    give repeat exactly for a seed: exhaustive, traced and untraced in
    alternating order (their p50 gap is the tracing overhead, in %), then
    WAND traced."""
    reader = run.reader
    untraced, traced = [], []
    for i, q in enumerate(run.queries):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enabled = on
            tracer.group = ("probe.exhaustive", i)
            t0 = now()
            reader.search(q, K)
            (traced if on else untraced).append(now() - t0)
    tracer.enabled = True
    for i, q in enumerate(run.queries):
        tracer.group = ("probe.wand", i)
        reader.search(q, K, method="wand")
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def _median_time(fn) -> float:
    fn()  # warm: caches, first-call imports
    times = []
    for _ in range(REPLAY_REPEATS):
        t0 = now()
        fn()
        times.append(now() - t0)
    return statistics.median(times)


def replay_kernels(run: Run) -> dict[str, tuple[float, str]]:
    """Build kernels timed in-process on one ``read_batch_size`` batch of
    the main corpus (the shard kernel on one full shard of it)."""
    bs = CFG.read_batch_size
    batch = run.corpus_table.slice(0, bs)
    html = batch.column("html").combine_chunks()
    tok = Tokenizer(CFG)
    winners = compute_winners(run.corpus, CFG)
    stats_dir = os.path.join(run.index, "stats")
    vocab = pq.read_table(os.path.join(stats_dir, "vocab.parquet"))
    vocab_terms = np.asarray(vocab.column("term").to_pylist(), dtype=object)
    meta = read_json(os.path.join(stats_dir, "meta.json"))
    stats = {
        "df": vocab.column("df").to_numpy(zero_copy_only=False).astype(np.int64),
        "n_docs": meta["n_docs"],
        "avgdl": meta["avgdl"],
    }
    doc_terms = pq.read_table(os.path.join(run.index, "doc_terms"))
    mapped = map_term_ids(doc_terms, cfg=CFG, vocab_terms_ref=vocab_terms, offsets_ref=None)
    shard0 = mapped.filter(pa.compute.equal(mapped.column("shard"), 0))
    post = pq.read_table(os.path.join(run.index, "postings", "shard-00000.postings.parquet"))
    raw_docs = binary_concat(post.column("docs").combine_chunks())
    n_values = int(post.column("df").to_numpy(zero_copy_only=False).sum())

    scratch = run.path("replay-postings")
    n_kernel = [0]

    def shard_kernel():
        out = f"{scratch}-{n_kernel[0]}"
        n_kernel[0] += 1
        build_shard_index(shard0, postings_dir=out, cfg=CFG, stats_ref=stats)
        shutil.rmtree(out)

    ms = 1e3
    return {
        "tokenizer.extract_ms_per_batch": (ms * _median_time(lambda: extract_text_batch(html)), "ms"),
        "encode.tokenize_ms_per_batch": (ms * _median_time(lambda: term_count_table(batch.column("text"), tok)), "ms"),
        "dedup.broadcast_ms_per_batch": (
            ms * _median_time(lambda: dedup_broadcast_batch(batch, cfg=CFG, winners_ref=winners)), "ms"
        ),
        "postings.map_term_ids_ms_per_batch": (
            ms * _median_time(
                lambda: map_term_ids(doc_terms.slice(0, bs), cfg=CFG, vocab_terms_ref=vocab_terms, offsets_ref=None)
            ),
            "ms",
        ),
        "postings.shard_kernel_ms_per_shard": (ms * _median_time(shard_kernel), "ms"),
        "codec.varint_decode_ns_per_value": (
            1e9 * _median_time(lambda: varint_decode(raw_docs, n_values)) / n_values, "ns"
        ),
    }


def _wand_stats(tracer: Tracer, groups) -> tuple[float, float]:
    """(share of score_wand calls that pruned instead of falling into
    score_exhaustive, share of zones scored) over ``groups``."""
    kids = tracer.children_map()
    calls = pruned = 0
    zones_total = zones_scored = 0
    for i in tracer.find("search.score_wand", groups):
        calls += 1
        nz = tracer.spans[i][ATTRS]["nzones"]
        child = [tracer.spans[c] for c in kids.get(i, [])]
        zones_total += nz
        if any(c[NAME] == "search.score_exhaustive" for c in child):
            zones_scored += nz
        else:
            pruned += 1
            zones_scored += sum(c[ATTRS]["zones"] for c in child if c[NAME] == "search.gather_zones")
    return pruned / max(calls, 1), zones_scored / max(zones_total, 1)


def measure(run: Run, tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Every per-layer metric of the run, name -> (value, unit), and the
    counts that describe the inputs (no optimisation moves them; they go to
    the run's record, not to the metrics)."""
    overhead_pct = probe_passes(run, tracer)
    tracer.enabled = False
    n = len(run.queries)
    exh = [("probe.exhaustive", i) for i in range(n)]
    wand = [("probe.wand", i) for i in range(n)]
    builds = [("build", i) for i in range(run.info["builds"])]
    sharded = sorted({s[4] for s in tracer.spans if isinstance(s[4], tuple) and s[4][0] == "sharded"})
    us, ms = 1e6, 1e3
    med = tracer.median_per_group

    def attr_values(name, groups, key):
        return [tracer.spans[i][ATTRS][key] for i in tracer.find(name, groups)]

    def span_median(name, scale=1.0):
        durs = [tracer.spans[i][END] - tracer.spans[i][START] for i in tracer.find(name)]
        return scale * statistics.median(durs) if durs else 0.0

    pruned_frac, zones_frac = _wand_stats(tracer, wand)
    touched = attr_values("search.topk_select", exh, "touched")
    lineage = read_json(os.path.join(run.index, "postings", "_LINEAGE.json"))["shards"]
    shard_nnz = [int(s["nnz"]) for s in lineage]
    meta = read_json(os.path.join(run.index, "stats", "meta.json"))
    vocab_rows = pq.read_metadata(os.path.join(run.index, "stats", "vocab.parquet")).num_rows
    batch = run.batch_out
    ing = run.ingest

    out = {
        # work that crosses processes, wall time (too noisy between runs on
        # a shared host to bound as an end-to-end metric)
        "build.docs_per_s": (run.values["build_docs_per_s"], "docs/s"),
        "batch.queries_per_s": (run.values["batch_qps"], "queries/s"),
        "ingest.docs_per_s": (run.values["ingest_docs_per_s"], "docs/s"),
        "sharded.search_p50_ms": (ms * statistics.median(run.lat["sharded"]), "ms"),
        # pipelines.build / stages.*
        "build.footer_scan_ms": (ms * med("build.resolve_dedup_mode", builds, use_self=False), "ms"),
        "dedup.winners_s": (med("dedup.compute_winners", builds, use_self=False), "s"),
        "build.doc_terms_s": (med("build.doc_terms", builds, use_self=False), "s"),
        "build.stats_s": (med("build.stats", builds, use_self=False), "s"),
        "build.postings_s": (med("build.postings", builds, use_self=False), "s"),
        **replay_kernels(run),
        "build.shard_nnz_skew": (max(shard_nnz) / statistics.median(shard_nnz), "ratio"),
        "build.doc_terms_bytes": (parquet_bytes(os.path.join(run.index, "doc_terms")), "bytes"),
        "build.postings_bytes": (parquet_bytes(os.path.join(run.index, "postings")), "bytes"),
        # pipelines.search
        "search.load_s": (med("search.load", ["serve.open"], use_self=False), "s"),
        "search.consolidate_s": (med("search.consolidate", ["serve.open"], use_self=False), "s"),
        "search.encode_us": (us * med("search.encode", exh), "us"),
        "search.term_lookup_us": (us * med("search.term_lookup", exh), "us"),
        "search.url_fetch_us": (us * med("search.url_fetch", exh), "us"),
        "search.merge_us": (us * med("search.search", exh), "us"),
        "search.accumulate_us": (us * med("search.score_exhaustive", exh), "us"),
        "search.topk_select_us": (us * med("search.topk_select", exh), "us"),
        "search.wand_self_us": (us * med("search.score_wand", wand), "us"),
        "search.wand_pruned_frac": (pruned_frac, "ratio"),
        "search.wand_zones_scored_frac": (zones_frac, "ratio"),
        "search.postings_scanned_per_query": (
            sum(attr_values("search.term_lookup", exh, "postings")) / n, "count"
        ),
        "search.docs_touched_frac": (statistics.fmean(touched) if touched else 0.0, "ratio"),
        # sharded and batch serving
        "sharded.scatter_us": (us * med("sharded.scatter", sharded, use_self=False), "us"),
        "sharded.actor_rtt_us": (us * run.info["actor_rtt_s"], "us"),
        "sharded.gather_us": (us * med("sharded.search", sharded), "us"),
        "batch.actor_start_s": (batch.column("stage_init_s")[0].as_py(), "s"),
        "batch.per_batch_ms": (
            statistics.median(
                {c: m for c, m in zip(batch.column("call_no").to_pylist(), batch.column("call_ms").to_pylist())}.values()
            ),
            "ms",
        ),
        # pipelines.merge, state.generations, FederatedReader
        "merge.merge_s": (statistics.median(run.lat["merge_s"]), "s"),
        "merge.bytes_rewritten": (run.lat["merge_bytes"][0], "bytes"),
        "generations.commit_ms": (span_median("generations.commit", ms), "ms"),
        "search.apply_deletes_ms": (span_median("search.apply_deletes", ms), "ms"),
        "federated.load_s": (statistics.median(run.lat["federated_load_s"]), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    counts = {
        "build.input_rows": run.info["input_rows"],
        "build.docs_out": meta["n_docs"],
        "stats.vocab_size": vocab_rows,
        "build.nnz": meta["nnz"],
        "build.shards": len(lineage),
        "federated.segments": ing.segments_seen,
    }
    return out, counts
