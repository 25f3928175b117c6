"""Mechanical driver-style contract sweep.

Runs EVERY ``__ray_entry__.queries()`` entry against one sf directory and
compares each result to its ``oracle_sql()`` through DuckDB, using the same
canonicalization as the driver / tests/test_entry_contract.py (columns
sorted by name, floats rounded to 1e-6, rows sorted).  Prints one JSON
object per run::

    python contract_sweep.py [sf_dir]          # default /root/testdata/sf0.01
    python contract_sweep.py /root/testdata/sf0.1

Output: {"sf_dir": ..., "ok": N, "fail": N, "queries": {name: {"rows": r,
"oracle_rows": r, "match": true|false|null, "frame_sha256": h, "wall_s": t,
"engine_s": t, "oracle_s": t, "err": ...}}}
(match=null: no SQL oracle — the driver's weaker rows-only gate).
``engine_s`` times the query call and ``oracle_s`` the DuckDB oracle;
``wall_s`` also covers canonicalizing and comparing the two frames.
``frame_sha256`` hashes the canonical result frame, so two sweeps of the
same sf directory hold identical results iff their hashes agree.

CONTRACT.md is generated from two runs of this script (sf0.01 + sf0.1).

Each query's name goes to stderr before it starts, and a query still
running after QUERY_TIMEOUT_S dumps every thread's stack to stderr and
exits the process non-zero: a stalled Ray execution fails loudly instead
of hanging the sweep.
"""

from __future__ import annotations

import faulthandler
import hashlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np
import pandas as pd

# ~5x the slowest query recorded (intervals_topk, 118 s in SWEEP_sf0.1.json)
QUERY_TIMEOUT_S = 600

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _to_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (np.ndarray, list)):
            df[c] = df[c].map(lambda v: tuple(np.round(np.asarray(v, dtype=float), 6).tolist()))
    return df.sort_values(list(df.columns), ignore_index=True)


def frame_sha256(canon: pd.DataFrame) -> str:
    """sha256 of a ``_canon`` frame's CSV text: independent of the row and
    column order the query returned, sensitive to any value past the
    1e-6 rounding."""
    return hashlib.sha256(canon.to_csv(index=False).encode()).hexdigest()


def _floor_cs(seconds: float) -> float:
    """Seconds rounded DOWN to 0.01, so a query's engine_s + oracle_s never
    exceeds its (rounded-to-nearest) wall_s."""
    return math.floor(seconds * 100) / 100


def _match(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    for c in got.columns:
        g, w = got[c], want[c]
        if pd.api.types.is_float_dtype(g):
            if not np.allclose(g.to_numpy(), w.to_numpy(dtype=float), atol=2e-6, equal_nan=True):
                return False
        elif g.tolist() != w.tolist():
            return False
    return True


def sweep(sf_dir: str, only: list[str] | None = None) -> dict:
    import duckdb

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    if only:
        queries = {k: v for k, v in queries.items() if k in set(only)}
    report: dict = {"sf_dir": sf_dir, "ok": 0, "fail": 0, "queries": {}}
    for name in sorted(queries):
        t0 = time.perf_counter()
        rec: dict = {
            "rows": None, "oracle_rows": None, "match": None, "frame_sha256": None, "wall_s": None,
            "engine_s": None, "oracle_s": None, "err": None,
        }
        print(f"  {name} ...", file=sys.stderr, flush=True)
        faulthandler.dump_traceback_later(QUERY_TIMEOUT_S, exit=True)
        try:
            got = _to_df(queries[name](sf_dir))
            rec["engine_s"] = _floor_cs(time.perf_counter() - t0)
            got = _canon(got)
            rec["rows"] = int(len(got))
            rec["frame_sha256"] = frame_sha256(got)
            if name in oracles:
                t1 = time.perf_counter()
                want = con.execute(oracles[name]).fetchdf()
                rec["oracle_s"] = _floor_cs(time.perf_counter() - t1)
                want = _canon(want)
                rec["oracle_rows"] = int(len(want))
                rec["match"] = _match(got, want)
                report["ok" if rec["match"] else "fail"] += 1
            else:
                report["ok"] += 1  # rows-only gate
        except Exception:
            rec["err"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            report["fail"] += 1
        finally:
            faulthandler.cancel_dump_traceback_later()
        rec["wall_s"] = round(time.perf_counter() - t0, 2)
        report["queries"][name] = rec
        status = "OK" if rec["err"] is None and rec["match"] is not False else "FAIL"
        print(
            f"  {name:<28} {status:<4} rows={rec['rows']} wall={rec['wall_s']}s"
            f" engine={rec['engine_s']}s oracle={rec['oracle_s']}s",
            file=sys.stderr,
        )
    return report


if __name__ == "__main__":
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:] or None  # optional query-name filter for spot-checks
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    out = sweep(sf_dir, only)
    print(json.dumps(out))
    ray.shutdown()
