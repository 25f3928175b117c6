"""Stage-shape guard: Ray Data stages run as tasks unless they hold real
per-process state.

A ``map_batches`` given a bare class starts an actor pool: seconds of fixed
startup per stage, and a pool sized by ``pool_size()`` can hold the only
CPU while an upstream ``repartition`` waits for it.  Stages whose state is
configuration, a ``Tokenizer`` or a broadcast ref are passed as a
constructed instance instead (a task), and read refs through
``stages.encode.cached_ref``.  This test scans ``splade_ray/`` with ``ast``
so a new pool, a per-call ``concurrency`` knob or a constructor-argument
site has to be added to the allowlists below on purpose."""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "splade_ray"

# classes allowed as an actor pool: each holds state that is expensive to
# build once per process (NeuralEncodeStage loads a model)
POOL_STAGES = {"NeuralEncodeStage"}
# (file relative to splade_ray/, enclosing function) allowed to pass
# fn_constructor_args / fn_constructor_kwargs
CONSTRUCTOR_SITES = {("pipelines/build.py", "_encode_pool")}


def _parsed():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG).as_posix(), ast.parse(path.read_text(), filename=str(path))


def _calls_with_scope(tree):
    """(call node, name of the innermost enclosing function) pairs."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    out.append((child, scope))
                visit(child, scope)

    visit(tree, "<module>")
    return out


def _is_map_batches(call):
    return isinstance(call.func, ast.Attribute) and call.func.attr == "map_batches"


def _class_names(tree):
    return {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}


def test_scan_sees_the_package():
    files = dict(_parsed())
    assert "pipelines/textops.py" in files and "pipelines/build.py" in files
    n_sites = sum(_is_map_batches(c) for t in files.values() for c, _ in _calls_with_scope(t))
    assert n_sites > 100  # the scan must not silently match nothing


def test_only_allowlisted_stages_run_as_actor_pools():
    classes = set().union(*(_class_names(t) for _, t in _parsed()))
    pools = []
    for rel, tree in _parsed():
        for call, _scope in _calls_with_scope(tree):
            if not (_is_map_batches(call) and call.args):
                continue
            fn = call.args[0]
            if isinstance(fn, ast.Name) and fn.id in classes:
                pools.append((rel, call.lineno, fn.id))
    assert {name for _, _, name in pools} <= POOL_STAGES, [p for p in pools if p[2] not in POOL_STAGES]
    assert pools, "the neural encoder pool disappeared: update POOL_STAGES"


def test_no_function_takes_a_concurrency_knob():
    found = []
    for rel, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if "concurrency" in {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}:
                    found.append((rel, node.lineno, node.name))
    assert not found, found


@pytest.mark.parametrize("kw", ["fn_constructor_args", "fn_constructor_kwargs"])
def test_constructor_args_only_at_allowlisted_sites(kw):
    sites = {
        (rel, scope)
        for rel, tree in _parsed()
        for call, scope in _calls_with_scope(tree)
        if any(k.arg == kw for k in call.keywords)
    }
    assert sites <= CONSTRUCTOR_SITES, sites - CONSTRUCTOR_SITES


def _nested_ray_gets(tree):
    """(line, function) of each ``ray.get`` call inside a function defined
    within another function (class bodies do not count as a level)."""
    out = []

    def visit(node, depth, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, depth + 1, getattr(child, "name", "<lambda>"))
                continue
            f = getattr(child, "func", None)
            if (
                depth >= 2
                and isinstance(child, ast.Call)
                and isinstance(f, ast.Attribute)
                and f.attr == "get"
                and isinstance(f.value, ast.Name)
                and f.value.id == "ray"
            ):
                out.append((child.lineno, name))
            visit(child, depth, name)

    visit(tree, 0, "<module>")
    return out


def test_batch_kernels_read_broadcasts_through_cached_ref():
    """A closure handed to ``map_batches`` / ``map_groups`` runs once per
    batch or bucket: ``ray.get`` there fetches the same broadcast every
    time, where ``cached_ref`` fetches it once per worker."""
    found = [(rel, *hit) for rel, tree in _parsed() for hit in _nested_ray_gets(tree)]
    assert not found, found


def test_nested_ray_get_scan_sees_a_closure():
    src = "def outer(ref):\n    def kernel(batch):\n        return ray.get(ref)\n    return kernel\n"
    assert _nested_ray_gets(ast.parse(src)) == [(3, "kernel")]
    assert _nested_ray_gets(ast.parse("def f(ref):\n    return ray.get(ref)\n")) == []


def _closure_kernels(tree):
    """(line, kernel) of each ``map_batches`` / ``map_groups`` call whose
    function is a lambda, a call (a closure factory) or a name bound by a
    ``def`` nested in another function: each such call ships a fresh
    function, and Ray counts every one as a new task type.  A constructed
    instance of a class defined at module level in the same file is a
    task stage, not a closure."""
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    nested = {
        inner.name
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    out = []
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("map_batches", "map_groups")
            and call.args
        ):
            continue
        fn = call.args[0]
        if isinstance(fn, ast.Call) and isinstance(fn.func, ast.Name) and fn.func.id in classes:
            continue
        if isinstance(fn, (ast.Lambda, ast.Call)) or (isinstance(fn, ast.Name) and fn.id in nested):
            out.append((call.lineno, ast.unparse(fn)[:40]))
    return sorted(out)


@pytest.mark.parametrize(
    "rel",
    [
        "pipelines/ann.py",
        "pipelines/dedup.py",
        "pipelines/merge.py",
        "pipelines/multimodal.py",
        "pipelines/percolate.py",
        "pipelines/term_index.py",
    ],
)
def test_kernels_are_module_level(rel):
    """Every Ray Data kernel in these pipelines is a module-level function
    (or a constructed module-level stage class); per-call values (a
    user's ``filter_expr`` included) travel in ``fn_kwargs``."""
    assert _closure_kernels(dict(_parsed())[rel]) == []


def test_closure_kernel_scan_sees_closures():
    src = (
        "def f(ds, k):\n"
        "    def kernel(b):\n"
        "        return b\n"
        "    ds.map_batches(kernel)\n"
        "    ds.map_batches(lambda b: b)\n"
        "    ds.groupby('q').map_groups(make(k))\n"
        "    ds.map_batches(module_kernel, fn_kwargs={'k': k})\n"
        "    ds.map_batches(Stage(k))\n"
        "    ds.map_batches(Local(k))\n"
        "    class Local:\n"
        "        pass\n"
        "class Stage:\n"
        "    def __call__(self, b):\n"
        "        return b\n"
    )
    assert [line for line, _ in _closure_kernels(ast.parse(src))] == [4, 5, 6, 9]


def test_no_to_arrow_refs():
    """``Dataset.to_arrow_refs`` runs the plan, then re-runs it under a
    ``limit(1)`` to read the schema; ``util.block_tables`` fetches the
    blocks from one execution."""
    found = [
        (rel, call.lineno)
        for rel, tree in _parsed()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "to_arrow_refs"
    ]
    assert not found, found


def test_build_starts_no_limit_capped_execution(ray_session, small_cfg, tmp_path, monkeypatch):
    """A build runs each of its plans once: no execution is a ``Limit``
    copy that Ray Data starts to learn a schema and then stops early,
    cancelling its pending map tasks."""
    from ray.data._internal.plan import ExecutionPlan

    from splade_ray.fixtures import write_web_pages
    from splade_ray.pipelines.build import build_index

    roots = []
    execute = ExecutionPlan.execute_to_iterator

    def spy(self, *args, **kwargs):
        roots.append(type(self._logical_plan.dag).__name__)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", spy)
    write_web_pages(str(tmp_path / "web.parquet"), 300)
    build_index(str(tmp_path / "web.parquet"), str(tmp_path / "idx"), small_cfg)
    assert roots and "Limit" not in roots, roots


def test_dedup_starts_no_limit_capped_execution(ray_session, monkeypatch):
    """The near-dup pair functions and the distributed clustering run each
    plan once: no ``take`` or schema lookup starts an early-stopped
    ``Limit`` execution, on either MinHash verify path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from splade_ray.pipelines.dedup import (
        connected_components_distributed,
        embedding_near_dup_pairs,
        minhash_lsh_pairs,
    )

    rng = np.random.default_rng(3)
    words = [f"tok{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(30)]
    texts += texts[:6]
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)), "text": pa.array(texts)})
    ).repartition(3)
    vecs = rng.standard_normal((20, 8))
    vecs = np.vstack([vecs, vecs[:4]])
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(vecs), dtype=np.int64)),
                "embedding": pa.array(list(vecs), type=pa.list_(pa.float64())),
            }
        )
    )

    roots = []
    execute = ExecutionPlan.execute_to_iterator

    def spy(self, *args, **kwargs):
        roots.append(type(self._logical_plan.dag).__name__)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", spy)
    fast = minhash_lsh_pairs(docs, threshold=0.5, bands=32)
    slow = minhash_lsh_pairs(docs, threshold=0.5, bands=32, csr_broadcast_limit=0, semi_broadcast_limit=0)
    near = embedding_near_dup_pairs(emb, threshold=0.99)
    clusters = connected_components_distributed(rd.from_pandas(fast)).to_pandas()
    assert len(fast) == len(slow) >= 6 and len(near) >= 4 and len(clusters) >= 12
    assert roots and "Limit" not in roots, roots
