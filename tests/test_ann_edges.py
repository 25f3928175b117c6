"""kNN scorers on degenerate inputs: an empty embeddings table, a filter
that keeps no vector, a degenerate PCA sign rule and an IVF index used
before it is fitted.  Every misuse raises an exception that survives
``python -O``."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

SCORE_COLS = ["query_idx", "rank", "vec_id", "score"]
COSINE_RESCORE_COLS = ["query_idx", "rank", "vec_id", "coarse", "score"]


def _ds(X, f64=False):
    import ray.data as rd

    n = len(X)
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(list(X), type=pa.list_(pa.float64() if f64 else pa.float32())),
                "label": pa.array(np.arange(n, dtype=np.int64) % 3),
            }
        )
    )


def _empty_ds():
    return _ds(np.zeros((0, 8)))


def _ivf_filtered_to_nothing(ann, Q):
    ds = _ds(np.random.default_rng(1).normal(size=(40, 8))).repartition(2)
    idx = ann.IVFIndex(n_clusters=2, nprobe=2).fit_assign(ds, sample_fraction=1.0)
    return idx.search(Q, k=5, filter_expr=lambda t: pc.equal(t.column("label"), 99))


EMPTY_RESULTS = {
    "brute_force_topk": (lambda ann, Q: ann.brute_force_topk(_empty_ds(), Q, k=5), SCORE_COLS),
    "quantized_rescore_topk": (lambda ann, Q: ann.quantized_rescore_topk(_empty_ds(), Q, k=5), COSINE_RESCORE_COLS),
    "binary_rescore_topk": (lambda ann, Q: ann.binary_rescore_topk(_empty_ds(), Q, k=5), COSINE_RESCORE_COLS),
    "truncated_rescore_topk": (
        lambda ann, Q: ann.truncated_rescore_topk(_empty_ds(), Q, k=5, coarse_dims=4),
        COSINE_RESCORE_COLS,
    ),
    "IVFIndex.search[filter keeps nothing]": (_ivf_filtered_to_nothing, SCORE_COLS),
}
NO_VECTORS = {
    "pq_adc_topk": lambda ann, Q: ann.pq_adc_topk(_empty_ds(), Q, k=5),
    "ivfpq_topk": lambda ann, Q: ann.ivfpq_topk(_empty_ds(), Q, k=5),
    "kmeans_assign": lambda ann, Q: ann.kmeans_assign(_empty_ds(), k=2),
}


@pytest.mark.parametrize("name", [*EMPTY_RESULTS, *NO_VECTORS])
def test_empty_result_is_an_empty_frame_or_a_named_error(ray_session, name):
    """An empty result is an empty frame with the scorer's usual columns,
    not a bare pandas ``KeyError``; the scorers that must train on the
    vectors keep their descriptive "no vectors" ``ValueError``."""
    from splade_ray.pipelines import ann

    Q = np.random.default_rng(2).normal(size=(2, 8))
    if name in NO_VECTORS:
        with pytest.raises(ValueError, match="no vectors"):
            NO_VECTORS[name](ann, Q)
        return
    run, cols = EMPTY_RESULTS[name]
    out = run(ann, Q)
    assert list(out.columns) == cols and len(out) == 0


def test_pca_power_project_on_empty_dataset(ray_session):
    """No row to read the dim from: the empty (vec_id, pc1) frame, not
    Ray's "The dataset is empty" error."""
    from splade_ray.pipelines.ann import pca_power_project

    out = pca_power_project(_empty_ds())
    assert list(out.columns) == ["vec_id", "pc1"] and len(out) == 0


def test_pca_degenerate_sign_rule_raises(ray_session):
    """Points on the line t·(1 + 1e-7, -1): the first component is that
    direction, whose coordinates sum to ~7e-8, so the Σv > 0 sign rule
    cannot be trusted and the call fails loudly."""
    from splade_ray.pipelines.ann import pca_power_project

    X = np.arange(1.0, 11.0)[:, None] * np.array([1.0 + 1e-7, -1.0])
    with pytest.raises(ValueError, match="sign rule degenerate"):
        pca_power_project(_ds(X, f64=True))


def test_ivf_save_before_fit_raises(tmp_path):
    from splade_ray.pipelines.ann import IVFIndex

    with pytest.raises(RuntimeError, match="call fit_assign first"):
        IVFIndex().save(str(tmp_path / "ivf"))


def test_ivf_search_before_fit_or_load_raises():
    from splade_ray.pipelines.ann import IVFIndex

    with pytest.raises(RuntimeError, match="call fit_assign or load first"):
        IVFIndex().search(np.ones((1, 8)), k=3)
