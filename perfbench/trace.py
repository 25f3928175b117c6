"""Span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's layers by wrapping those
callables from the benchmark's side (:meth:`Tracer.wrap`) or by opening a
span around a direct call (:meth:`Tracer.span`); the program itself carries
no tracing code.  A span records its name, start and end
(``time.perf_counter``), the index of the span that was open when it began
(its parent), the id of the group it belongs to (one query, one build, one
ingest cycle) and optional attributes.  Spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time

NAME, START, END, PARENT, GROUP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.group = None
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.group, None])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (a module function, method or classmethod)
        by a wrapper that records one span per call while the tracer is
        enabled.  ``on_call(args, result)`` runs after the span closes, so
        the attributes it returns are not charged to the layer."""
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name) as idx:
                out = fn(*args, **kwargs)
            if on_call is not None:
                tracer.spans[idx][ATTRS] = on_call(args, out)
            return out

        setattr(owner, attr, staticmethod(traced) if isinstance(static, classmethod) else traced)
        self._patches.append((owner, attr, static))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - child[i] for i, s in enumerate(self.spans)]

    def totals(self) -> dict[str, dict]:
        """name -> {calls, total_s, self_s} over every recorded span."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += self_s
        return out

    def per_group(self, name: str, groups, use_self: bool = True) -> list[float]:
        """Summed (self or total) time of ``name`` spans in each of
        ``groups``; a group without such a span counts 0."""
        per = dict.fromkeys(groups, 0.0)
        for s, self_s in zip(self.spans, self.self_times()):
            if s[NAME] == name and s[GROUP] in per:
                per[s[GROUP]] += self_s if use_self else s[END] - s[START]
        return list(per.values())

    def median_per_group(self, name: str, groups, use_self: bool = True) -> float:
        vals = self.per_group(name, groups, use_self)
        return statistics.median(vals) if vals else 0.0

    def find(self, name: str, groups=None) -> list[int]:
        """Indexes of the ``name`` spans (optionally only in ``groups``)."""
        groups = None if groups is None else set(groups)
        return [
            i for i, s in enumerate(self.spans) if s[NAME] == name and (groups is None or s[GROUP] in groups)
        ]

    def children_map(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                out.setdefault(s[PARENT], []).append(i)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "group", "attrs"], "spans": self.spans}, f, default=str)
