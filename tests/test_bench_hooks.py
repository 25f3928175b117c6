"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
callables by name (``perfbench.layers.install``).  A change that removes or
renames one of them breaks that run; this check makes it fail here instead,
and checks that every wrapped attribute is put back afterwards."""

import inspect

from perfbench.layers import install
from perfbench.trace import Tracer


def test_trace_hooks_wrap_and_restore():
    before = {}
    tracer = Tracer()
    try:
        install(tracer)
        patched = list(tracer._patches)
        assert patched, "install wrapped nothing"
        for owner, attr, static in patched:
            before[(owner, attr)] = static
            assert inspect.getattr_static(owner, attr) is not static, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.unwrap_all()
    for (owner, attr), static in before.items():
        assert inspect.getattr_static(owner, attr) is static, f"{owner.__name__}.{attr} not restored"
