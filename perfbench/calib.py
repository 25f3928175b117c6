"""Host calibration probes and run provenance.

Every result records these next to its metrics, so a slower host epoch
shows in the data: a memory-bandwidth probe, a fixed pure-Python CPU probe,
and the wall time of one no-op read -> map -> write Ray Data execution.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def membw_gbps() -> float:
    """Read+write bandwidth of a 32 MB array copy (median of 7)."""
    a = np.ones(4 << 20)
    b = np.empty_like(a)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.copyto(b, a)
        times.append(time.perf_counter() - t0)
    return 2 * a.nbytes / statistics.median(times) / 1e9


def cpu_probe_ms() -> float:
    """A fixed pure-Python loop (median of 5)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def ray_exec_floor_s(work_dir: str) -> float:
    """One no-op read -> map -> write Ray Data execution (after one
    unmeasured execution)."""
    import ray.data

    src = os.path.join(work_dir, "floor-in.parquet")
    pq.write_table(pa.table({"x": list(range(64))}), src)
    for i in range(2):
        t0 = time.perf_counter()
        ray.data.read_parquet(src).map_batches(lambda b: b, batch_format="pyarrow").write_parquet(
            os.path.join(work_dir, f"floor-out-{i}")
        )
    return time.perf_counter() - t0


def probes(work_dir: str) -> dict[str, float]:
    return {
        "calib.membw_gbps": membw_gbps(),
        "calib.cpu_probe_ms": cpu_probe_ms(),
        "calib.ray_exec_floor_s": ray_exec_floor_s(work_dir),
    }


def source_digest(root: str) -> str:
    """sha256 over the program's Python sources (a checkout without git
    history still names its code)."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "splade_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(root: str) -> dict:
    import pandas
    import ray

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": 1,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "numpy": np.__version__,
        "pyarrow": pa.__version__,
        "pandas": pandas.__version__,
    }
