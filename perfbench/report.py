"""Write the benchmark's reports.

    python3 perfbench/report.py

``WHERE_TIME_GOES.md``: from the traced results in ``perfbench/results/``
(``*-trace1.json``, written by ``run.py --trace 1``), per workload, the self
time of every traced layer summed over the run, its share of all traced self
time, its call count, and the tracing overhead: the traced run's end-to-end
metrics next to the untraced run of the same seed, when there is one.

``STEADINESS.md``: from the sets of runs in ``perfbench/steadiness/``
(``<set>-<workload>.json``, written by ``spread.py --json``), per workload
and set, each end-to-end metric's median, quartiles and spread against its
bound, and how far each later set's median moved from the first set's.
"""

from __future__ import annotations

import argparse
import glob
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def workload_section(rec: dict, untraced: dict | None) -> list[str]:
    totals = rec["span_totals"]
    all_self = sum(t["self_s"] for t in totals.values()) or 1.0
    info = rec["info"]
    out = [
        f"## {rec['workload']} (seed {rec['seed']}, --seconds {rec['seconds']:g})",
        "",
        f"Ray start {rec['ray_start_s']:.2f} s; set-up {info['setup_wall_s']:.2f} s; loop time per phase: "
        + ", ".join(f"{k} {v:.2f} s ({info['steps'][k]} steps)" for k, v in info["phase_s"].items())
        + f". Traced spans cover {all_self:.2f} s of self time.",
        "",
        "| layer span | calls | self s | share of traced self time | total s |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        out.append(
            f"| `{name}` | {t['calls']} | {t['self_s']:.3f} | {100 * t['self_s'] / all_self:.1f}% | {t['total_s']:.3f} |"
        )
    traced = rec.get("traced_end_to_end", {})
    if untraced is not None and traced:
        out += ["", "Tracing overhead (traced minus untraced run, same seed):", "",
                "| end-to-end metric | untraced | traced | difference |", "|---|---:|---:|---:|"]
        for name, m in untraced["result"]["metrics"].items():
            if name in traced:
                u, t = m["value"], traced[name]
                out.append(f"| `{name}` ({m['unit']}) | {u:.4g} | {t:.4g} | {100 * (t - u) / u:+.1f}% |")
    metrics = rec["result"]["metrics"]
    if "trace.overhead_pct" in metrics:
        out += ["", f"Query-path overhead from the interleaved probe pass: "
                f"{metrics['trace.overhead_pct']['value']:+.1f}% on exhaustive p50."]
    return out + [""]


def steadiness() -> list[str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets: dict[str, dict[str, dict]] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "steadiness", "*.json"))):
        rec = load(path)
        sets.setdefault(rec["workload"], {})[os.path.basename(path).split("-")[0]] = rec
    lines = [
        "# Steadiness of the end-to-end metrics",
        "",
        "Generated by `python3 perfbench/report.py` from sets of runs made with",
        "`python3 perfbench/spread.py --workload W --seeds A-B --json perfbench/steadiness/SET-W.json`,",
        "one seed per run.  Spread: (q3 - q1) / median over the set's runs, with the quartiles of",
        "`statistics.quantiles(values, n=4)`.  Shift: how much worse a set's median is than the first",
        "set's, as a share of the first (negative: better).  `setup_s` is exempt from the spread check.",
        "",
    ]
    for workload, by_set in sorted(sets.items()):
        names = sorted(by_set)
        first = by_set[names[0]]["summary"]
        for name in names:
            rec = by_set[name]
            lines += [f"## {workload}, {name} (seeds {rec['seeds']}, --seconds {rec['seconds']:g})", "",
                      "| metric | bound | median | q1 | q3 | spread | shift vs first set |",
                      "|---|---:|---:|---:|---:|---:|---:|"]
            for m, sm in rec["summary"].items():
                if m not in metrics:
                    continue
                sign = 1 if metrics[m]["better"] == "lower" else -1
                shift = sign * (sm["median"] - first[m]["median"]) / first[m]["median"]
                lines.append(f"| `{m}` ({metrics[m]['unit']}) | {metrics[m]['bound']:.2f} | {sm['median']:.5g} |"
                             f" {sm['q1']:.5g} | {sm['q3']:.5g} | {sm['spread']:.3f} | {shift:+.3f} |")
            lines.append("")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    with open(os.path.join(HERE, "STEADINESS.md"), "w") as f:
        f.write("\n".join(steadiness()))
    latest: dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "results", "*-trace1.json")), key=os.path.getmtime):
        latest[load(path)["workload"]] = path
    lines = [
        "# Where the time goes",
        "",
        "Generated by `python3 perfbench/report.py` from traced runs (`perfbench/run.py --trace 1`).",
        "Self time is a span's duration minus the time its child spans cover; spans are recorded",
        "around the program's layers from the benchmark's side (`perfbench/layers.py`).  Time outside",
        "every span (Ray start, oracle checks, the benchmark's own bookkeeping) is not in the tables.",
        "",
    ]
    for workload in sorted(latest):
        rec = load(latest[workload])
        twin = latest[workload].replace("-trace1.json", "-trace0.json")
        lines += workload_section(rec, load(twin) if os.path.exists(twin) else None)
    with open(os.path.join(HERE, "WHERE_TIME_GOES.md"), "w") as f:
        f.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
