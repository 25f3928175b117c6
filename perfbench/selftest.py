"""Self-test of the benchmark: deterministic counts repeat exactly.

    python3 perfbench/selftest.py [--workload serve_tail] [--seed 1] [--other-seed 2]

Makes three traced runs of one workload from the root of a checkout: the
seed twice and another seed once.  The counts below are functions of the
inputs alone, so the two same-seed runs must report them identically, and
the other seed must change the inputs (different build and postings
counts).  Exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from spread import HERE, run_once

# every workload runs the whole lifecycle, so one workload covers them all
DETERMINISTIC = (
    "build.input_rows",
    "build.docs_out",
    "build.nnz",
    "stats.vocab_size",
    "build.shards",
    "federated.segments",
    "build.shard_nnz_skew",
    "build.doc_terms_bytes",
    "build.postings_bytes",
    "search.postings_scanned_per_query",
    "search.docs_touched_frac",
    "search.wand_pruned_frac",
    "search.wand_zones_scored_frac",
    "merge.bytes_rewritten",
)
SEED_DEPENDENT = ("build.nnz", "build.postings_bytes", "search.postings_scanned_per_query")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    """One traced run: its per-layer metric values and its input counts."""
    line = run_once(workload, seed, seconds, trace=1)
    with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace1.json")) as f:
        counts = json.load(f)["counts"]
    return {**{k: m["value"] for k, m in line["metrics"].items()}, **counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="serve_tail")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    runs = [traced_counts(args.workload, s, args.seconds) for s in (args.seed, args.seed, args.other_seed)]
    ok = True
    for name in DETERMINISTIC:
        a, b, c = (r[name] for r in runs)
        same = a == b
        ok &= same
        print(f"{name:36s} seed {args.seed}: {a!r} / {b!r} {'same' if same else 'DIFFERENT'};"
              f" seed {args.other_seed}: {c!r}")
    for name in SEED_DEPENDENT:
        changed = runs[0][name] != runs[2][name]
        ok &= changed
        print(f"seed changes {name}: {'yes' if changed else 'NO'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
