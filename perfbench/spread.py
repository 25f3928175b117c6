"""Run a workload over several seeds and check each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]
                                [--json OUT] [--against EARLIER.json]

Runs ``perfbench/run.py`` once per seed, one after another, from the root
of a checkout, and prints per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  Against the end-to-end bounds of
``BENCHMARK.json`` it marks a spread over its bound (``setup_s`` is exempt)
and, with ``--against``, a median worse than the earlier set's by more than
its bound.  ``--json`` writes the values and the summary out.  Exits 1 when
a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}-stderr.txt")
        with open(log, "w") as f:
            f.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}; stderr in {log}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    ap.add_argument("--against", default=None, help="a --json file of an earlier set of the same workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m for m in bench["end_to_end"]} if args.trace == 0 else {}
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["summary"]

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        line = run_once(args.workload, seed, seconds, args.trace)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {line['attempted']} failed {line['failed']}", file=sys.stderr, flush=True)
    summary = summarize(values)
    ok = True
    for name, s in summary.items():
        note = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            wide = name != "setup_s" and s["spread"] > bound
            note = f"  bound {bound:.2f}{'  SPREAD OVER BOUND' if wide else ''}"
            ok &= not wide
            if earlier and name in earlier:
                ref = earlier[name]["median"]
                worse = (s["median"] - ref) / ref * (1 if bounds[name]["better"] == "lower" else -1)
                note += f"  worse than earlier by {worse:+.4f}{'  SHIFT OVER BOUND' if worse > bound else ''}"
                ok &= worse <= bound
        print(f"{name:40s} median {s['median']:14.6g}  q1 {s['q1']:14.6g}  q3 {s['q3']:14.6g}"
              f"  spread {s['spread']:.4f}{note}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "seeds": args.seeds, "values": values,
                       "summary": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
