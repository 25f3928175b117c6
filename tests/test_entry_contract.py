"""Driver-contract self-check: every ``queries()`` entry runs at sf0.001 and,
where an ``oracle_sql()`` entry exists, matches the DuckDB result
(row count + column names + order-insensitive values, floats to 1e-6) — the
same comparison the driver performs at sf0.01."""

import json
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return c


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


QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()


def test_oracle_keys_subset_of_queries():
    assert set(ORACLES) <= set(QUERIES)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_runs_and_matches_oracle(name, con):
    got = _canon(_to_df(QUERIES[name](SF_DIR)))
    assert len(got) >= 0  # runs with a stable schema
    if name not in ORACLES:
        # rows-only check (driver's weaker gate): non-empty where expected
        if name in ("minhash_pairs", "simhash_pairs", "embedding_near_dups"):
            return  # pair sets may legitimately be empty at tiny scale
        assert len(got) > 0
        return
    want = _canon(con.execute(ORACLES[name]).fetchdf())
    assert list(got.columns) == list(want.columns), f"{name}: column mismatch"
    assert len(got) == len(want), f"{name}: row count {len(got)} != {len(want)}"
    for c in got.columns:
        g, w = got[c], want[c]
        if pd.api.types.is_float_dtype(g):
            np.testing.assert_allclose(g.to_numpy(), w.to_numpy(dtype=float), atol=2e-6, err_msg=f"{name}.{c}")
        else:
            assert g.tolist() == w.tolist(), f"{name}.{c} values differ"


def test_entry_smoke():
    out = _to_df(entrymod.entry())
    assert len(out) > 0
    assert set(out.columns) == {"query_id", "rank", "doc_id", "score_r"}


def test_contract_md_matches_registry():
    """CONTRACT.md must name exactly queries().keys() with the right
    oracle flag — the staleness guard (ADVICE r3: the doc lagged the
    registry by three queries)."""
    import re

    path = os.path.join(os.path.dirname(__file__), "..", "CONTRACT.md")
    with open(path) as f:
        text = f.read()
    listed = dict(re.findall(r"^\| `([a-z0-9_]+)` \| (SQL|rows-only) \|", text, re.M))
    assert set(listed) == set(QUERIES), (
        f"CONTRACT.md stale: missing={sorted(set(QUERIES) - set(listed))}, "
        f"extra={sorted(set(listed) - set(QUERIES))} — regenerate per the header"
    )
    for name, flag in listed.items():
        want = "SQL" if name in ORACLES else "rows-only"
        assert flag == want, f"CONTRACT.md: {name} marked {flag}, registry says {want}"


SWEEPS = [
    os.path.join(os.path.dirname(__file__), "..", f"SWEEP_sf{sf}.json") for sf in ("0.01", "0.1")
]


@pytest.mark.parametrize("sweep", SWEEPS, ids=os.path.basename)
def test_sweep_matches_registry(sweep):
    """Each committed contract sweep (sf0.01 and sf0.1, the inputs of
    CONTRACT.md) names exactly queries().keys() and records no failure — a
    query added to or dropped from the registry makes the sweep stale."""
    with open(sweep) as f:
        report = json.load(f)
    swept = report["queries"]
    assert set(swept) == set(QUERIES), (
        f"{os.path.basename(sweep)} stale: missing={sorted(set(QUERIES) - set(swept))}, "
        f"extra={sorted(set(swept) - set(QUERIES))} — re-run contract_sweep.py"
    )
    assert report["fail"] == 0 and report["ok"] == len(QUERIES), (report["ok"], report["fail"])


def test_registry_exposes_all_ops(ray_session):
    import __ray_entry__ as e

    from splade_ray.registry import get_op, list_ops

    ops = e.queries()
    assert set(list_ops()) >= set(ops)
    assert get_op("bm25_topk") is ops["bm25_topk"]
