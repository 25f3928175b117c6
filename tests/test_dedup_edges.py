"""Near-duplicate pair functions and clustering on an empty input: each
returns an empty frame with its usual columns and dtypes, not a bare
``IndexError`` or float64 id columns."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

I, F = np.dtype(np.int64), np.dtype(np.float64)
PAIR = {"id_a": I, "id_b": I}


def _docs():
    import ray.data as rd

    return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))


def _emb():
    import ray.data as rd

    return rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()), "embedding": pa.array([], pa.list_(pa.float32()))})
    )


def _exact_dup_pairs(tmp_path):
    from splade_ray.pipelines.queries import exact_dup_pairs

    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}),
        os.path.join(tmp_path, "documents.parquet"),
    )
    return exact_dup_pairs(str(tmp_path))


CASES = {
    "minhash_lsh_pairs": (lambda d, _: d.minhash_lsh_pairs(_docs()), {**PAIR, "jaccard": F}),
    "ngram_jaccard_pairs": (lambda d, _: d.ngram_jaccard_pairs(_docs()), {**PAIR, "jaccard": F}),
    "containment_pairs": (
        lambda d, _: d.containment_pairs(_docs()),
        {**PAIR, "inter": I, "c_ab": F, "c_ba": F},
    ),
    "simhash_near_dup_pairs": (lambda d, _: d.simhash_near_dup_pairs(_docs()), {**PAIR, "hamming": I}),
    "embedding_near_dup_pairs": (lambda d, _: d.embedding_near_dup_pairs(_emb()), {**PAIR, "cosine": F}),
    "queries.exact_dup_pairs": (lambda d, tmp: _exact_dup_pairs(tmp), PAIR),
    "connected_components": (
        lambda d, _: d.connected_components(pd.DataFrame({"id_a": [], "id_b": []})),
        {"doc_id": I, "cluster_id": I, "cluster_size": I},
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_empty_input_gives_a_typed_empty_frame(ray_session, tmp_path, name):
    from splade_ray.pipelines import dedup

    run, dtypes = CASES[name]
    out = run(dedup, tmp_path)
    assert out.empty
    assert dict(out.dtypes) == dtypes


def test_empty_edge_dataset_gives_no_clusters(ray_session):
    import ray.data as rd

    from splade_ray.pipelines.dedup import connected_components

    edges = rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}))
    assert connected_components(edges).count() == 0
