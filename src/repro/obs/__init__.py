"""Unified telemetry layer: metrics, span tracing, status rendering.

The subsystem is zero-dependency and deterministic by construction:

* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters/gauges/
  fixed-bucket histograms whose canonical-JSON snapshot is byte-stable
  across runs and array backends (wall-clock families are ``volatile`` and
  excluded from the default snapshot);
* :class:`~repro.obs.tracing.Tracer` — parent/child spans with ids drawn
  from :class:`~repro.utils.rng.SeededRng`, never from the clock;
* :mod:`repro.obs.status` — human-readable rendering of migration sessions
  and journal files for ``repro status`` / ``repro journal inspect``;
* :mod:`repro.obs.schema` — a minimal JSON-Schema validator used by CI to
  check exported snapshots against ``docs/metrics_schema.json``.

Components do not take a telemetry argument; they resolve the process-wide
:class:`Telemetry` bundle via :func:`get_telemetry` **at construction time**
and cache instrument handles.  The default bundle is a null singleton whose
instruments are shared no-ops, so uninstrumented runs pay one empty method
call per instrumentation point.  The CLI (or a test) installs an enabled
bundle with :func:`set_telemetry`/:func:`use_telemetry` *before* building
the objects it wants instrumented.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.clock import Stopwatch
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    RATE_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    nearest_rank,
    quantile,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer


class Telemetry:
    """A metrics registry and a tracer travelling together."""

    __slots__ = ("metrics", "tracer", "seed", "enabled")

    def __init__(self, metrics: MetricsRegistry, tracer: Tracer, seed: int = 0) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.seed = seed
        self.enabled = metrics.enabled or tracer.enabled

    @classmethod
    def create(cls, seed: int = 0) -> "Telemetry":
        """A fully enabled bundle whose span ids derive from ``seed``."""
        return cls(MetricsRegistry(), Tracer(seed), seed)


#: the shared disabled bundle installed by default.
NULL_TELEMETRY = Telemetry(NULL_REGISTRY, NULL_TRACER, 0)

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-wide telemetry bundle (the null bundle unless installed)."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` (or the null bundle for ``None``); returns the old one."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None):
    """Context manager that installs ``telemetry`` and restores the previous bundle."""
    previous = set_telemetry(telemetry)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


def trace_span(name: str, **attributes: object):
    """Open a span on the current bundle's tracer (no-op when disabled)."""
    return _current.tracer.span(name, **attributes)


def trace_event(name: str, **attributes: object) -> None:
    """Record an event on the current bundle's tracer (no-op when disabled)."""
    _current.tracer.event(name, **attributes)


__all__ = [
    "DEFAULT_BUCKETS",
    "RATE_BUCKETS",
    "SECONDS_BUCKETS",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Stopwatch",
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "trace_span",
    "trace_event",
    "nearest_rank",
    "quantile",
]
