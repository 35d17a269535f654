"""Outside-in tracing: spans recorded around calls into agentdag's layers.

Spans follow OpenTelemetry's span model without the dependency: a name, a
start and an end, the span that caused it and the op it belongs to. They are
kept in memory and written out as JSONL when the run ends. The benchmark
records them from its own files only, by rebinding the names a calling
module looks up (``orchestrator.check_topology``, ``corpus.parse_topology``,
...) and by proxying the injected policy, role and sandbox objects; no file
of the program is changed.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes

# (span id, op id) of the innermost open span of this thread or task.
_current: contextvars.ContextVar[tuple[int | None, int | None] | None] = \
    contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    def __init__(self, first_id: int = 1):
        self.spans: list[dict] = []
        self._ids = itertools.count(first_id)

    def span(self, name: str, fn, *, size=None):
        """``fn`` wrapped so that every call records one span named ``name``.

        ``size`` maps the call's result to a byte count kept on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            span_id = next(self._ids)
            op = parent[1] if parent else None
            token = _current.set((span_id, op))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _current.reset(token)
                record = {"name": name, "span_id": span_id,
                          "parent_id": parent[0] if parent else None,
                          "op": op, "start": start, "end": end}
                if size is not None and result is not None:
                    record["bytes"] = size(result)
                self.spans.append(record)
        return traced

    def op(self, op_id: int, fn):
        """Run ``fn()`` as the root span of op ``op_id``."""
        token = _current.set((None, op_id))
        try:
            return self.span("op", fn)()
        finally:
            _current.reset(token)

    def rebind(self, module, names: dict[str, str]) -> None:
        """Replace each global ``attr`` of ``module`` by a traced wrapper."""
        for attr, name in names.items():
            setattr(module, attr, self.span(name, getattr(module, attr)))

    def adopt(self, child_spans: list[dict], op: int) -> None:
        """Take in spans recorded by a child process, under the current span."""
        root_id = _current.get()[0]
        new_ids = {c["span_id"]: next(self._ids) for c in child_spans}
        for c in child_spans:
            self.spans.append(dict(c, span_id=new_ids[c["span_id"]], op=op,
                                   parent_id=new_ids.get(c["parent_id"], root_id)))

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                row = dict(s, start_ms=(s["start"] - origin) * 1e3,
                           end_ms=(s["end"] - origin) * 1e3)
                del row["start"], row["end"]
                handle.write(json.dumps(row) + "\n")


class Proxy:
    """Stands in for an injected adapter; ``method`` is the traced call."""

    def __init__(self, method: str, fn):
        setattr(self, method, fn)


class ContextPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor whose tasks run in the submitter's span context,
    so that role calls fanned out per layer keep their parent span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_table(spans: list[dict], ops: int) -> dict[str, dict]:
    """Per span name: calls, total and self seconds per op.

    Self time is a span's duration minus the part of its interval that its
    direct children cover; children run in other threads may overlap, so the
    covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "bytes": 0})
        duration = s["end"] - s["start"]
        clipped = ((max(a, s["start"]), min(b, s["end"]))
                   for a, b in children.get(s["span_id"], ()))
        covered = _union((a, b) for a, b in clipped if b > a)
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered
        row["bytes"] += s.get("bytes", 0)
    return {name: {"calls_per_op": r["calls"] / ops, "ms_per_op": r["total_s"] * 1e3 / ops,
                   "self_ms_per_op": r["self_s"] * 1e3 / ops, "calls": r["calls"],
                   "total_s": r["total_s"], "bytes": r["bytes"]}
            for name, r in sorted(table.items())}
