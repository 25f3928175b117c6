"""Repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (``lifecycle.py``) drive the
engine's public APIs from this single process on one core, with Ray given
that one CPU.  Every operation is checked; the full record of the run
(metrics, counts, sample sizes, calibration probes, provenance, failures)
goes to ``perfbench/results/``, and the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``, spans recorded around the program's layers).  The exit code
is 1 when any operation raised or gave a wrong result, and 2 (with no
result printed) when the program under test is not beside ``perfbench/`` or
the workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="build_bulk or serve_tail (perfbench/lifecycle.py)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_ray() -> float:
    """Start a one-CPU local Ray cluster whose workers import from the
    checkout; returns the start time in seconds."""
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import pyarrow as pa
    import ray
    from ray.data import DataContext

    kwargs = dict(
        address="local",
        num_cpus=1,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 << 20,
    )
    temp_dir = os.path.join(ROOT, ".rt")
    # Ray's unix socket paths (~65 chars below the temp dir) must stay
    # under 108 bytes; a deeper checkout keeps Ray's default temp dir
    if len(temp_dir) <= 40:
        kwargs["_temp_dir"] = temp_dir
    t0 = time.perf_counter()
    ray.init(**kwargs)
    DataContext.get_current().enable_progress_bars = False
    # the client is one core too: Arrow's default pools run a thread per
    # host CPU, and those CPUs are shared with other tenants (the reader
    # opens behind setup_s use them); Ray's workers keep their defaults
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    return time.perf_counter() - t0


def stop_ray() -> None:
    """Shut Ray down and wait until every process this run started has
    ended; stragglers are killed after 30 s."""
    import ray

    from perfbench.procs import descendants

    ray.shutdown()
    deadline = time.time() + 30
    while left := descendants():
        if time.time() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "splade_ray", "__init__.py")):
        print("perfbench: no splade_ray package beside perfbench/; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import calib, layers, lifecycle
    from perfbench.trace import Tracer

    if args.workload not in lifecycle.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(lifecycle.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    t_run = time.perf_counter()
    ray_start_s = start_ray()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics: dict = {}
    fatal = None
    try:
        tracer = Tracer()
        run = lifecycle.Run(lifecycle.WORKLOADS[args.workload], args.seed, args.seconds, work, tracer)
        try:
            if args.trace:
                layers.install(tracer)
                tracer.enabled = True
                lifecycle.run_workload(run, layers.TimedSearcherStage, layers.probe_actor)
            else:
                lifecycle.run_workload(run)
            e2e = lifecycle.end_to_end(run)
            probes = calib.probes(work)
            if args.trace:
                layer_metrics, record["counts"] = layers.measure(run, tracer)
                metrics = {**layer_metrics, **{k: (v, _CALIB_UNITS[k]) for k, v in probes.items()}}
                record["span_totals"] = tracer.totals()
                record["traced_end_to_end"] = {k: v for k, (v, _u) in e2e.items()}
                tracer.dump(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-spans.json"))
            else:
                metrics = e2e
            record["calibration"] = probes
        except Exception:
            fatal = traceback.format_exc()
            print(fatal, file=sys.stderr)
        finally:
            tracer.unwrap_all()
        record.update(
            sizes={
                "main_docs": lifecycle.MAIN_DOCS,
                "setup_repeats": lifecycle.SETUP_REPEATS,
                "segment_rows": lifecycle.SEGMENT_ROWS,
                "merge_every": lifecycle.MERGE_EVERY,
                "distinct_queries": lifecycle.N_QUERIES,
                "batch_queries": lifecycle.BATCH_QUERIES,
                "config": {"shard_size": lifecycle.CFG.shard_size, "zone_docs": lifecycle.CFG.zone_docs},
            },
            values=run.values,
            info=run.info,
            failures=run.failures,
            provenance=calib.provenance(ROOT),
        )
        attempted, failed = run.attempted, run.failed
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)

    if fatal is not None:
        failed += 1
        attempted += 1
        record["fatal"] = fatal
    record.update(ray_start_s=ray_start_s, run_wall_s=time.perf_counter() - t_run)
    line = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = line
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    for msg in run.failures[:5]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


_CALIB_UNITS = {"calib.membw_gbps": "GB/s", "calib.cpu_probe_ms": "ms", "calib.ray_exec_floor_s": "s"}


if __name__ == "__main__":
    sys.exit(main())
