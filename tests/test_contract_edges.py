"""Contract queries on degenerate inputs the shipped corpora lack (a doc
with an empty field, a punctuation-only doc, an empty events table), and
the sweep's per-query result hash."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import contract_sweep
from splade_ray.pipelines import queries as q
from test_entry_contract import SF_DIR  # the sf0.001 contract corpus

MULTI_FIELD = ["bm25_fields_topk", "bm25f_topk", "combined_fields_topk", "cross_fields_topk"]


def test_frame_sha256_ignores_order_and_sees_1e6():
    df = pd.DataFrame(
        {"query_id": ["q0", "q0", "q1"], "rank": [1, 2, 1], "doc_id": [7, 3, 9], "score_r": [2.5, 1.25, 0.5]}
    )
    h = contract_sweep.frame_sha256(contract_sweep._canon(df))
    shuffled = df.iloc[[2, 0, 1]][["score_r", "doc_id", "query_id", "rank"]]
    assert contract_sweep.frame_sha256(contract_sweep._canon(shuffled)) == h
    moved = df.copy()
    moved.loc[1, "score_r"] += 1e-6
    assert contract_sweep.frame_sha256(contract_sweep._canon(moved)) != h


def test_sweep_times_engine_and_oracle_apart(ray_session):
    """Each query records the engine call and the DuckDB oracle apart;
    both fit inside its wall time (all three are kept to 0.01 s)."""
    report = contract_sweep.sweep(SF_DIR, only=["knn_cosine"])
    rec = report["queries"]["knn_cosine"]
    assert report["ok"] == 1 and rec["match"] is True
    assert rec["engine_s"] >= 0 and rec["oracle_s"] >= 0
    assert round(rec["engine_s"] + rec["oracle_s"], 2) <= rec["wall_s"]


def test_multi_field_queries_with_empty_and_punctuation_docs(ray_session, tmp_path):
    """One doc cut to 5 tokens (its body field is empty) and one to
    punctuation only (both fields empty): every multi-field query still
    matches its oracle, and no field index gains a term-major build."""
    sf = tmp_path / "sf"
    shutil.copytree(SF_DIR, sf)
    docs = pq.read_table(sf / "documents.parquet").to_pandas()
    docs.loc[docs["doc_id"] == 3, "text"] = "spark join order fast hash"
    docs.loc[docs["doc_id"] == 7, "text"] = "... !!! -- ?"
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), sf / "documents.parquet")

    base = q._documents_index_dir(str(sf))  # this corpus's cached indexes
    try:
        report = contract_sweep.sweep(str(sf), only=MULTI_FIELD)
        assert (report["ok"], report["fail"]) == (4, 0), report["queries"]
        got = q.bm25_fields_topk(str(sf))
        assert 3 in set(got["doc_id"]), "the short doc should rank for its own terms"
        for field in q._FIELD_BOOSTS:
            assert os.path.isdir(os.path.join(base, f"field_{field}", "postings"))
            assert not os.path.exists(os.path.join(base, f"field_{field}", "term_index"))
    finally:
        shutil.rmtree(base, ignore_errors=True)


DAY_SERIES = {
    "events_moving_avg": ["day", "n_events", "mavg3"],
    "events_histogram_derivative": ["day", "n_events", "deriv"],
    "events_daily_pipeline": ["day", "n_events", "cum_n", "diff_n", "pct_r"],
    "moving_percentiles_daily": ["day", "p50_r"],
    "bucket_percentiles_stats": None,  # percentiles of no buckets: ValueError
    "serial_diff_events": ["day", "n_events", "diff7", "norm_r"],
    "anomaly_days": None,  # median of no buckets: ValueError
    "dow_seasonality": ["dow", "n_events", "avg_per_day_r", "lift_r"],
    "cumulative_sum_daily": ["day", "n_events", "cum_n"],
}


@pytest.fixture(scope="module")
def no_events(tmp_path_factory):
    sf = tmp_path_factory.mktemp("no_events")
    schema = pq.read_schema(os.path.join(SF_DIR, "events.parquet")).remove_metadata()
    pq.write_table(schema.empty_table(), sf / "events.parquet")
    return str(sf)


@pytest.mark.parametrize("name", sorted(DAY_SERIES))
def test_day_series_on_empty_events(ray_session, no_events, name):
    """Each day-series query returns its empty frame, or names the empty
    events table in a ValueError where the statistic has no value."""
    if DAY_SERIES[name] is None:
        with pytest.raises(ValueError, match="events table"):
            getattr(q, name)(no_events)
        return
    out = getattr(q, name)(no_events)
    assert isinstance(out, pd.DataFrame)
    assert list(out.columns) == DAY_SERIES[name]
    assert len(out) == 0
