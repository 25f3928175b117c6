import os

import pytest

import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_cfg():
    from splade_ray.config import EngineConfig

    # small shards/buckets so a 2k-doc corpus exercises multiple of each;
    # zone_docs divides shard_size so the consolidated view's zones stay
    # aligned with the shards' (the neural test keeps the default 1024,
    # whose zones straddle shard boundaries)
    return EngineConfig(shard_size=500, num_buckets=16, zone_docs=125)


@pytest.fixture(scope="session")
def web_pages_path(tmp_path_factory):
    from splade_ray.fixtures import write_web_pages

    path = str(tmp_path_factory.mktemp("fixtures") / "web_pages.parquet")
    write_web_pages(path, 2000)
    return path


@pytest.fixture(scope="session")
def built_index(ray_session, small_cfg, web_pages_path, tmp_path_factory):
    """Index built once per test session; returned as (index_dir, cfg)."""
    from splade_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("index") / "idx")
    build_index(web_pages_path, out, small_cfg, verify_extraction=True)
    os.environ["GRAFT_TEST_INDEX"] = out
    return out, small_cfg


@pytest.fixture(scope="session")
def oracle_index(small_cfg, web_pages_path):
    import pyarrow.parquet as pq

    from splade_ray.oracle import build_oracle_index

    return build_oracle_index(pq.read_table(web_pages_path), small_cfg)
