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
