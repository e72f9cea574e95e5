"""In-memory span recording and the thin wrappers that time each layer.

The benchmark drives the program only through its public seams, so every
span here is recorded by the benchmark around a call *into* a layer: the
pipeline stages, the router, the coordinator's lock manager and each
worker request.  Nothing inside ``src/`` is instrumented.

A span is ``(span_id, parent_id, trace_id, name, start_s, end_s, error)``.
Parents come from a per-thread stack, so spans opened by the coordinator's
client threads nest under that thread's transaction span.  Spans stay in a
list until :meth:`SpanRecorder.write` dumps them at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

#: pipeline stage name -> layer span name (the module that does the work).
STAGE_LAYERS = {
    "extract": "workload.extract",
    "build_graph": "graph.build",
    "partition": "graph.partition",
    "explain": "explain.explain",
    "validate": "core.validate",
}


class _Span:
    __slots__ = ("recorder", "name", "trace_id", "span_id", "parent_id", "start")

    def __init__(self, recorder: "SpanRecorder", name: str, trace_id: object) -> None:
        self.recorder = recorder
        self.name = name
        self.trace_id = trace_id

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        parent = stack[-1] if stack else None
        self.parent_id = parent.span_id if parent is not None else None
        if self.trace_id is None and parent is not None:
            self.trace_id = parent.trace_id
        self.span_id = next(self.recorder._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(
            (
                self.span_id,
                self.parent_id,
                self.trace_id,
                self.name,
                self.start,
                end,
                exc_type is not None,
            )
        )


class SpanRecorder:
    """Collects spans from any thread; :meth:`write` dumps them as JSON."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace_id: object = None) -> _Span:
        """A context manager recording one span (trace id inherited if None)."""
        return _Span(self, name, trace_id)

    def write(self, path: Path, meta: dict) -> Path:
        """Write ``meta`` plus every recorded span to ``path``."""
        fields = ("id", "parent", "trace", "name", "start", "end", "error")
        payload = {
            "meta": meta,
            "spans": [dict(zip(fields, span)) for span in sorted(self.spans)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        return path


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullRecorder:
    """Stands in for :class:`SpanRecorder` in untraced runs."""

    _null = _NullSpan()

    def span(self, name: str, trace_id: object = None) -> _NullSpan:
        return self._null


# -- seam wrappers (installed only in traced runs) ----------------------------------------
class TracedRouter:
    """Times ``Router.route_transaction``; everything else passes through."""

    def __init__(self, router, recorder: SpanRecorder) -> None:
        self._router = router
        self._recorder = recorder

    def route_transaction(self, transaction):
        with self._recorder.span("routing.route"):
            return self._router.route_transaction(transaction)

    def __getattr__(self, name: str):
        return getattr(self._router, name)


class TracedLocks:
    """Times the coordinator's lock acquisition (the wait for writers ahead)."""

    def __init__(self, locks, recorder: SpanRecorder) -> None:
        self._locks = locks
        self._recorder = recorder

    def acquire(self, tokens):
        with self._recorder.span("storage.lock_wait"):
            return self._locks.acquire(tokens)

    def release(self, tokens) -> None:
        self._locks.release(tokens)


class _TracedHandle:
    def __init__(self, handle, recorder: SpanRecorder) -> None:
        self._handle = handle
        self._recorder = recorder

    def request(self, op: str, payload: object = None, timeout_s: float = 1.0) -> object:
        with self._recorder.span(f"storage.rpc.{op}"):
            return self._handle.request(op, payload, timeout_s=timeout_s)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


class TracedCluster:
    """Hands the coordinator worker handles whose requests are timed."""

    def __init__(self, cluster, recorder: SpanRecorder) -> None:
        self._cluster = cluster
        self._recorder = recorder

    def handle(self, partition: int) -> _TracedHandle:
        return _TracedHandle(self._cluster.handle(partition), self._recorder)

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)


class TracedCoordinator:
    """Opens one root span per transaction; its trace id is the txn id."""

    def __init__(self, coordinator, recorder: SpanRecorder) -> None:
        self._coordinator = coordinator
        self._recorder = recorder

    def execute_transaction(self, transaction, txn_id: str):
        with self._recorder.span("storage.txn", trace_id=txn_id):
            return self._coordinator.execute_transaction(transaction, txn_id)
