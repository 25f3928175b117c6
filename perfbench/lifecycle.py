"""Workloads of the repository benchmark.

Every workload runs the engine's whole lifecycle over its own seeded inputs,
from one client process on one core.  There is no request server: each
call waits for its reply, so the load is a closed loop with one client.

Set-up, before the first timed operation: generate the main corpus and its
numpy oracle, build it once (the first build sample; it also warms up the
process), open an ``IndexReader`` over it ``SETUP_REPEATS`` times (the
median open is ``setup_s``) and start a ``ShardedSearcher``.

Then one loop of steps.  A step is one operation of a phase:

- ``build``: one more bulk build of the main corpus (``build_index``);
- ``serve``: ``ROUND_QUERIES`` queries through local exhaustive, local WAND
  and ``ShardedSearcher`` in turn;
- ``batch``: one ``SearcherStage`` Ray Data job;
- ``ingest``: a segment lands with ``doc_id_base``, a generation is
  committed, a few urls are tombstoned and the live generation is queried
  through ``FederatedReader``; every ``MERGE_EVERY``-th step also merges
  the live indexes and queries them again.

Each workload gives ``--seconds`` to the phase it is about and runs every
other phase at its minimum (``MIN_STEPS``), with those steps spread over
the focus phase's time, so every metric is measured on every workload and
a slow spell of the host does not fall on one phase alone.
Every operation is checked: query results across modes, a seeded sample
against the numpy oracle, build outputs against the oracle and the
postings lineage.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from splade_ray.config import EngineConfig
from splade_ray.fixtures import VOCAB_SIZE, generate_web_pages_chunk, write_web_pages
from splade_ray.oracle import build_oracle_index, oracle_search
from splade_ray.pipelines.build import build_index
from splade_ray.pipelines.merge import merge_segments
from splade_ray.pipelines.search import (
    FederatedReader,
    IndexReader,
    SearcherStage,
    ShardedSearcher,
    apply_deletes,
)
from splade_ray.state.generations import commit_generation
from splade_ray.state.lineage import read_json

from .procs import settle

# Index layout of every benchmark index.  2048-doc shards give the main
# index several shards for the reader to consolidate; 32-doc zones give
# the consolidated ~8k-doc view more than the 128 zones at or below which
# score_wand always answers exhaustively, so the pruning path is reachable.
CFG = EngineConfig(shard_size=2048, zone_docs=32)
K = 10

MAIN_DOCS = 8192  # main corpus rows (~3% re-crawls)
SEGMENT_ROWS = 1024  # input rows per ingest segment
SETUP_REPEATS = 9
N_QUERIES = 200  # distinct queries per mix
ROUND_QUERIES = 25  # queries per mode in one serve step
INGEST_QUERIES = 100  # queries per ingest step (and after each merge)
BATCH_QUERIES = 500  # queries in one SearcherStage job
BATCH_SIZE = 100
ORACLE_SAMPLE = 20  # seeded sample of distinct queries checked against the oracle
MERGE_EVERY = 2  # every this many ingest steps, merge the live indexes
DELETES_PER_CYCLE = 3

PHASES = ("serve", "build", "batch", "ingest")
# least steps of each phase in a run: two passes of the query mix (400
# samples per mode), two more builds than the set-up makes (so
# build_docs_per_s is a median of at least three), one batch job, one
# merge group
MIN_STEPS = {"serve": 2 * N_QUERIES // ROUND_QUERIES, "build": 2, "batch": 1, "ingest": MERGE_EVERY}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mix: str  # "head" | "tail": the query mix of every serving mode
    focus: str  # the phase that runs for --seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build_bulk", "head", "build"),
        Workload("serve_tail", "tail", "serve"),
    )
}


def now() -> float:
    return time.perf_counter()


def parquet_bytes(path: str) -> int:
    """Bytes of the parquet files under ``path`` (manifests excluded: they
    carry wall times, so their size is not a function of the input)."""
    total = 0
    for d, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files if f.endswith(".parquet"))
    return total


# Both mixes are stratified: the seed draws the terms and the order, while
# the share of each query length and of the empty-answer queries is the
# same for every seed.


def head_queries(seed: int) -> list[str]:
    """The fixture query mix (``fixtures.generate_queries``): Zipf s=0.7
    over the 5k vocab, 2-8 terms, every 20th query with an added
    out-of-vocabulary term."""
    rng = np.random.default_rng(seed)
    p = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** -0.7
    cdf = np.cumsum(p / p.sum())
    lengths = np.resize(np.arange(2, 9), N_QUERIES)
    rng.shuffle(lengths)
    out = []
    for i, n in enumerate(lengths):
        ranks = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), VOCAB_SIZE - 1)
        toks = [f"w{t:04d}" for t in ranks] + ([f"zzzoov{i}"] if i % 20 == 7 else [])
        out.append(" ".join(toks))
    return out


def tail_queries(seed: int) -> list[str]:
    """Selective mix: 1-4 terms of vocab ranks 1500-4999, plus 5%
    OOV-only and 5% punctuation-only queries (both answer [])."""
    rng = np.random.default_rng(seed)
    n_empty = N_QUERIES // 20
    lengths = np.resize(np.arange(1, 5), N_QUERIES - 2 * n_empty)
    out = [f"zzzoov{i} qqqoov{i}" for i in range(n_empty)] + [" ,.;!? -- ... "] * n_empty
    out += [" ".join(f"w{t:04d}" for t in rng.integers(1500, VOCAB_SIZE, size=n)) for n in lengths]
    rng.shuffle(out)
    return out


def same_hits(a, b) -> bool:
    """Rank-identical top-k: the same (doc id, url) in the same order and
    scores equal to 1e-9."""
    return len(a) == len(b) and all(
        da == db and ua == ub and math.isclose(sa, sb, rel_tol=1e-9, abs_tol=1e-12)
        for (da, sa, ua), (db, sb, ub) in zip(a, b)
    )


class Oracle:
    """The numpy reference index over a corpus table."""

    def __init__(self, table: pa.Table):
        self.index = build_oracle_index(table, CFG)

    def check(self, query: str, hits, exclude=frozenset(), strict: bool = True) -> bool:
        """``strict``: doc ids, urls and scores equal the oracle's top-k
        (single builds share the oracle's doc-id contract).  Otherwise
        (segments number their docs per build) the hits' scores equal the
        oracle's top-k scores and each hit's url has that oracle score, which
        holds whatever order exact ties take."""
        urls = self.index.doc_ids
        ranked = [(d, s, urls[d]) for d, s in oracle_search(self.index, query, max(self.index.n_docs, 1))]
        ranked = [r for r in ranked if r[2] not in exclude]
        expect = ranked[:K]
        if strict:
            return same_hits(hits, expect)
        score_of = {u: s for _d, s, u in ranked}
        return len(hits) == len(expect) and all(
            math.isclose(h[1], e[1], rel_tol=1e-9)
            and h[2] in score_of
            and math.isclose(score_of[h[2]], h[1], rel_tol=1e-9)
            for h, e in zip(hits, expect)
        )


class Run:
    """State of one benchmark run: inputs, measurements, failures."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: str, tracer):
        self.w = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.work = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lat: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}  # end-to-end inputs
        self.info: dict = {}  # counts and provenance of this run
        self.queries = head_queries(seed) if workload.mix == "head" else tail_queries(seed)
        self.ref: dict[str, list] = {}  # exhaustive top-k per distinct query

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def settle(self) -> None:
        """Let the background work of the last Ray job drain (untimed)."""
        waited = settle()
        self.info["settle_s"] = self.info.get("settle_s", 0.0) + waited

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed op (traceback
        kept) and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.record(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None


# ---------------------------------------------------------------- build


def check_build(run: Run, summary: dict, index_dir: str, what: str) -> None:
    lineage = read_json(os.path.join(index_dir, "postings", "_LINEAGE.json"))["shards"]
    lineage_nnz = sum(int(s["nnz"]) for s in lineage)
    oracle = run.oracle.index
    ok = summary["n_docs"] == oracle.n_docs and summary["nnz"] == lineage_nnz == oracle.post_doc_ids.size
    run.record(ok, f"{what}: n_docs {summary['n_docs']} vs oracle {oracle.n_docs}, "
               f"nnz {summary['nnz']} vs lineage {lineage_nnz} vs oracle {oracle.post_doc_ids.size}")


class Builds:
    """Bulk builds of the main corpus.  The set-up makes the first; a build
    step makes one more.  Every build is a ``build_docs_per_s`` sample,
    must equal the oracle's dedup count and postings count, and must write
    the first build's shard checksums (the first index is the one served;
    later ones are removed)."""

    def __init__(self, run: Run):
        self.run = run
        self.rates: list[float] = []
        self.checksums = None
        self.n = 0

    def build(self, corpus: str) -> tuple[str, dict | None]:
        """One timed ``build_index`` of ``corpus`` into the next index dir."""
        run, i = self.run, self.n
        out = run.path(f"index-{i}")
        run.tracer.group = ("build", i)
        self.n += 1
        t0 = now()
        summary = run.attempt(f"build {i}", build_index, corpus, out, CFG)
        if summary is not None:
            self.rates.append(summary["n_docs"] / (now() - t0))
        return out, summary

    def check(self, out: str, summary: dict) -> None:
        check_build(self.run, summary, out, out)
        lineage = read_json(os.path.join(out, "postings", "_LINEAGE.json"))["shards"]
        sums = [(s["part_id"], s["checksum"]) for s in lineage]
        if self.checksums is None:
            self.checksums = sums
        else:
            self.run.record(sums == self.checksums, f"{out}: shard checksums differ from the first build")

    def setup(self) -> None:
        """Generate the main corpus and its numpy oracle, build it (the
        first build sample, the index that is served; also the process's
        warm-up), then open an ``IndexReader`` over it ``SETUP_REPEATS``
        times: the median open is ``setup_s``."""
        run = self.run
        corpus = write_web_pages(run.path("corpus"), MAIN_DOCS, seed=run.seed)
        table = pq.read_table(corpus)
        run.corpus, run.corpus_table = corpus, table
        run.oracle = Oracle(table)
        run.info["input_rows"] = table.num_rows
        run.settle()
        run.index, summary = self.build(corpus)
        if summary is not None:
            self.check(run.index, summary)
        run.settle()
        times = []
        for i in range(SETUP_REPEATS):
            run.tracer.group = ("setup", i)
            t0 = now()
            reader = IndexReader(run.index, CFG)
            times.append(now() - t0)
            run.record(reader.n_docs == run.oracle.index.n_docs, f"set-up {i}: reader holds {reader.n_docs} docs")
        run.values["setup_s"] = statistics.median(times)
        run.info["setup_repeats_s"] = times

    def step(self) -> None:
        out, summary = self.build(self.run.corpus)
        if summary is not None:
            self.check(out, summary)
            shutil.rmtree(out)

    def finish(self) -> None:
        run = self.run
        run.values["build_docs_per_s"] = statistics.median(self.rates)
        run.values["index_bytes_per_input_byte"] = parquet_bytes(run.index) / parquet_bytes(run.corpus)
        run.info["builds"] = self.n
        run.info["build_docs_per_s"] = self.rates


# ---------------------------------------------------------------- serve


def timed_queries(run: Run, mode: str, fn, queries: list[str], ref: dict, first: int = 0) -> list[float]:
    """One closed-loop pass over ``queries``.  Each result must be
    rank-identical to the reference for that query; the first call of a
    query sets it when ``ref`` has none.  ``first`` numbers the queries'
    trace groups."""
    lat = []
    for i, q in enumerate(queries, first):
        run.tracer.group = (mode, i)
        t0 = now()
        try:
            hits = fn(q)
        except Exception:
            run.record(False, f"{mode} {q!r}: {traceback.format_exc(limit=3)}")
            continue
        lat.append(now() - t0)
        expect = ref.setdefault(q, hits)
        run.record(same_hits(hits, expect), f"{mode} {q!r}: {hits[:2]} vs {expect[:2]}")
    return lat


class Serve:
    """Closed-loop queries over the main index: each step sends the next
    ``ROUND_QUERIES`` distinct queries through local exhaustive, local WAND
    and the sharded searcher in turn."""

    def __init__(self, run: Run):
        self.run = run
        run.tracer.group = "serve.open"
        run.reader = IndexReader(run.index, CFG)
        run.tracer.group = "sharded.open"
        t0 = now()
        self.sharded = ShardedSearcher(run.index, CFG, num_actors=1)
        # actors start asynchronously: wait until each has loaded its shards,
        # so the first timed query does not carry the actor start
        ray.get([a.__ray_ready__.remote() for a in self.sharded.actors])
        run.info["sharded_open_s"] = now() - t0
        reader, sharded = run.reader, self.sharded
        self.modes = [
            ("query", "exhaustive", lambda q: reader.search(q, K)),
            ("wand", "wand", lambda q: reader.search(q, K, method="wand")),
            ("sharded", "sharded", lambda q: sharded.search(q, K)),
        ]
        self.pos = 0

    def step(self) -> None:
        run, n = self.run, len(self.run.queries)
        qs = [run.queries[(self.pos + j) % n] for j in range(ROUND_QUERIES)]
        for key, mode, fn in self.modes:
            run.lat.setdefault(key, []).extend(timed_queries(run, mode, fn, qs, run.ref, first=self.pos))
        self.pos += ROUND_QUERIES

    def finish(self, on_sharded=None) -> None:
        """Check a seeded sample of the distinct queries against the oracle
        and stop the sharded searcher; ``on_sharded(run, searcher)`` runs
        while it is still up (traced runs probe it)."""
        run = self.run
        try:
            if on_sharded is not None:
                on_sharded(run, self.sharded)
        finally:
            self.sharded.shutdown()
        sample = np.random.default_rng(run.seed + 5).choice(len(run.queries), ORACLE_SAMPLE, replace=False)
        for j in sorted(sample):
            q = run.queries[j]
            run.record(q in run.ref and run.oracle.check(q, run.ref[q]), f"oracle {q!r}")


class Batch:
    """``SearcherStage`` Ray Data jobs over ``BATCH_QUERIES`` queries (the
    distinct mix repeated); every query's rows must equal the exhaustive
    reference."""

    def __init__(self, run: Run, stage_cls=SearcherStage):
        self.run = run
        self.stage_cls = stage_cls
        self.texts = [run.queries[i % len(run.queries)] for i in range(BATCH_QUERIES)]
        self.table = pa.table({"query_id": [str(i) for i in range(len(self.texts))], "text": self.texts})
        self.qps: list[float] = []

    def step(self) -> None:
        run = self.run
        run.tracer.group = ("batch", len(self.qps))
        t0 = now()
        with run.tracer.span("batch.job"):
            # materialize() first: streaming the output to the driver
            # (iter_batches / to_arrow_refs on the lazy dataset) measured 2-5x
            # slower and far less steady on one CPU
            ds = (
                ray.data.from_arrow(self.table)
                .map_batches(
                    self.stage_cls,
                    fn_constructor_args=(run.index, K, "exhaustive", CFG),
                    batch_format="pyarrow",
                    batch_size=BATCH_SIZE,
                    concurrency=1,
                )
                .materialize()
            )
            out = pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])
        self.qps.append(len(self.texts) / (now() - t0))
        got: dict[int, list] = {}
        rows = zip(*(out.column(c).to_pylist() for c in ("query_id", "rank", "doc_id", "score", "url")))
        for qid, _rank, doc, score, url in sorted(rows, key=lambda r: (int(r[0]), r[1])):
            got.setdefault(int(qid), []).append((doc, score, url))
        for i, q in enumerate(self.texts):
            # the first exhaustive call of a query sets its reference
            if q not in run.ref:
                run.ref[q] = run.reader.search(q, K)
            expect = run.ref[q]
            run.record(same_hits(got.get(i, []), expect), f"batch {q!r}")
        run.batch_out = out

    def finish(self) -> None:
        self.run.values["batch_qps"] = statistics.median(self.qps)
        self.run.info["batch_qps"] = self.qps


# ---------------------------------------------------------------- ingest


def segment_rows(seed: int, i: int) -> pa.Table:
    """Input rows of ingest segment ``i``: a slice of the fixture stream,
    minus re-crawls of urls that an earlier segment already holds (the
    fixture names a url by the row that first crawled it), so segments
    hold disjoint urls as the federation contract requires."""
    start = 1_000_000 + i * SEGMENT_ROWS
    tbl = generate_web_pages_chunk(start, SEGMENT_ROWS, seed=seed + 2)
    keep = [int(u.rsplit("/", 1)[1]) >= start for u in tbl.column("url").to_pylist()]
    return tbl.filter(pa.array(keep))


class Ingest:
    """The live generation of the ingest phase and what it should hold."""

    def __init__(self, run: Run):
        self.run = run
        self.root = run.path("ingest")
        os.makedirs(self.root, exist_ok=True)
        self.live: list[str] = []
        self.urls: dict[str, list[str]] = {}  # live index dir -> urls it holds
        self.tables: list[pa.Table] = []
        self.purged: set[str] = set()
        self.tombstoned: set[str] = set()
        self.next_base = 0
        self.landed = 0
        self.cycles = 0
        self.merges = 0
        self.wall = 0.0
        self.segments_seen: list[int] = []
        self.rng = np.random.default_rng(run.seed + 3)
        self.qpos = 0
        self.reader = None

    def query_live(self, tag) -> None:
        """Query the latest generation through FederatedReader, exhaustive
        and WAND, each result rank-identical across the two."""
        run = self.run
        run.tracer.group = ("federated.open", tag)
        t0 = now()
        with run.tracer.span("federated.load"):
            reader = FederatedReader.from_generation(self.root, CFG)
        run.lat.setdefault("federated_load_s", []).append(now() - t0)
        self.segments_seen.append(len(reader.readers))
        n = len(run.queries)
        qs = [run.queries[(self.qpos + j) % n] for j in range(INGEST_QUERIES)]
        ref: dict[str, list] = {}
        run.lat.setdefault("fed_query", []).extend(
            timed_queries(run, "fed_exhaustive", lambda q: reader.search(q, K), qs, ref, first=self.qpos)
        )
        run.lat.setdefault("fed_wand", []).extend(
            timed_queries(run, "fed_wand", lambda q: reader.search(q, K, method="wand"), qs, ref, first=self.qpos)
        )
        self.qpos += INGEST_QUERIES
        self.reader = reader

    def cycle(self) -> None:
        run, i = self.run, self.cycles
        run.tracer.group = ("cycle", i)
        tbl = segment_rows(run.seed, i)
        path = os.path.join(self.root, f"in-{i:04d}.parquet")
        pq.write_table(tbl, path)
        seg = os.path.join(self.root, f"seg-{i:04d}")
        with run.tracer.span("ingest.build"):
            summary = build_index(path, seg, CFG, doc_id_base=self.next_base)
        urls = sorted(set(tbl.column("url").to_pylist()))
        run.record(summary["n_docs"] == len(urls), f"segment {i}: {summary['n_docs']} docs vs {len(urls)} urls")
        self.next_base += summary["n_docs"]
        self.landed += summary["n_docs"]
        self.tables.append(tbl)
        self.live.append(seg)
        self.urls[seg] = urls
        with run.tracer.span("generations.commit"):
            commit_generation(self.root, self.live)
        run.record(True, f"commit {i}")
        # tombstone a few live urls, spread over the live indexes
        for _ in range(DELETES_PER_CYCLE):
            d = self.live[int(self.rng.integers(len(self.live)))]
            alive = [u for u in self.urls[d] if u not in self.tombstoned]
            if not alive:
                continue
            u = alive[int(self.rng.integers(len(alive)))]
            with run.tracer.span("search.apply_deletes"):
                total = apply_deletes(d, [u])
            self.tombstoned.add(u)
            expect = sum(1 for x in self.urls[d] if x in self.tombstoned)
            run.record(total == expect, f"apply_deletes {d}: {total} tombstones vs {expect}")
        self.query_live(i)
        self.cycles += 1

    def merge(self) -> None:
        run = self.run
        out = os.path.join(self.root, f"merged-{self.merges:03d}")
        run.tracer.group = ("merge", self.merges)
        t0 = now()
        with run.tracer.span("merge.merge_segments"):
            summary = merge_segments(self.live, out, CFG)
        run.lat.setdefault("merge_s", []).append(now() - t0)
        run.lat.setdefault("merge_bytes", []).append(parquet_bytes(out))
        self.purged |= self.tombstoned
        survivors = sorted(u for d in self.live for u in self.urls[d] if u not in self.tombstoned)
        self.tombstoned = set()
        run.record(summary["n_docs"] == len(survivors), f"merge {self.merges}: {summary['n_docs']} vs {len(survivors)}")
        self.live = [out]
        self.urls = {out: survivors}
        with run.tracer.span("generations.commit"):
            commit_generation(self.root, self.live)
        self.query_live(("merge", self.merges))
        self.merges += 1

    def step(self) -> None:
        t0 = now()
        self.cycle()
        if self.cycles % MERGE_EVERY == 0:
            self.merge()
        self.wall += now() - t0

    def finish(self) -> None:
        """The ingest rate, and the live generation against the oracle over
        every landed row not purged by a merge, tombstoned urls excluded."""
        run = self.run
        run.values["ingest_docs_per_s"] = self.landed / self.wall
        run.info.update(ingest_cycles=self.cycles, ingest_merges=self.merges, ingest_docs=self.landed)
        run.info["federated_segments"] = self.segments_seen
        table = pa.concat_tables(self.tables)
        keep = [u not in self.purged for u in table.column("url").to_pylist()]
        oracle = Oracle(table.filter(pa.array(keep)))
        rng = np.random.default_rng(run.seed + 7)
        for j in sorted(rng.choice(len(run.queries), ORACLE_SAMPLE, replace=False)):
            q = run.queries[j]
            hits = self.reader.search(q, K)
            run.record(oracle.check(q, hits, exclude=self.tombstoned, strict=False), f"ingest oracle {q!r}")
        run.ingest = self


# ---------------------------------------------------------------- loop


def run_workload(run: Run, stage_cls=SearcherStage, on_sharded=None) -> None:
    """Set-up, then the step loop: the focus phase runs until it has had
    ``run.seconds``, every phase runs at least ``MIN_STEPS``, and each step
    goes to the phase furthest behind (the focus by its share of the
    seconds, the others by their share of their minimum), so the other
    phases' steps are spread over the focus phase's time."""
    t0 = now()
    builds = Builds(run)
    builds.setup()
    serve = Serve(run)
    run.settle()
    run.info["setup_wall_s"] = now() - t0
    phases = {"serve": serve, "build": builds, "batch": Batch(run, stage_cls), "ingest": Ingest(run)}
    focus = run.w.focus
    spent = dict.fromkeys(PHASES, 0.0)
    steps = dict.fromkeys(PHASES, 0)
    log = run.info["step_log"] = []  # (phase, start s into the loop, seconds)
    loop_t0 = now()

    def progress(p: str) -> float:
        done = steps[p] / MIN_STEPS[p] if MIN_STEPS[p] else 1.0
        return min(done, spent[p] / run.seconds) if p == focus else done

    try:
        while True:
            # ingest steps come in whole merge groups
            behind = [p for p in PHASES if progress(p) < 1.0 or (p == "ingest" and steps[p] % MERGE_EVERY)]
            if not behind:
                break
            p = min(behind, key=progress)
            t1 = now()
            phases[p].step()
            spent[p] += now() - t1
            steps[p] += 1
            log.append((p, round(t1 - loop_t0, 3), round(now() - t1, 3)))
            if p != "serve":
                # a finished Ray Data job keeps its actors until the garbage
                # collector frees its dataset; measured: a build right after
                # merge_segments then waits ~20 s for the one CPU.  Collect
                # only once the job's background work has drained.
                run.settle()
                gc.collect()
                run.settle()
    finally:
        serve.finish(on_sharded)
    run.info.update(loop_wall_s=sum(spent.values()), phase_s=spent, steps=steps)
    for p in ("build", "batch", "ingest"):
        phases[p].finish()


# ---------------------------------------------------------------- metrics


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(p / 100.0 * len(s)) - 1))]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of this run, name -> (value, unit): the ones
    whose work stays in this process.  Work that crosses processes (builds,
    the batch job, ingest, sharded queries) runs on host CPUs shared with
    other tenants, and its wall time moved by up to 66% between two sets of
    runs of the same code, more than any bound may allow; its figures are
    per-layer metrics and are in the record."""
    ms = 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.info["samples"] = {k: len(v) for k, v in run.lat.items()}
    run.info["latency_ms"] = {
        k: {p: ms * percentile(v, p) for p in (50, 90, 95, 99, 100)} | {"mean": ms * statistics.fmean(v)}
        for k, v in run.lat.items()
        if k in ("query", "wand", "sharded", "fed_query", "fed_wand")
    }
    return {
        "setup_s": (run.values["setup_s"], "s"),
        "index_bytes_per_input_byte": (run.values["index_bytes_per_input_byte"], "ratio"),
        "query_p50_ms": (ms * statistics.median(run.lat["query"]), "ms"),
        "wand_p50_ms": (ms * statistics.median(run.lat["wand"]), "ms"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
    }
