"""Deterministic metrics: labeled counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds **families** keyed by name; each family owns
one series per label-value combination.  Three instrument kinds:

* **counter** — monotone float/int accumulator (``inc``);
* **gauge** — last-write-wins value (``set``/``add``);
* **histogram** — fixed upper-bound buckets with exact count/sum/min/max and
  bucket-derived p50/p95/p99 (the quantile is the upper bound of the bucket
  the cumulative count crosses, so it is a pure function of the counts).

Snapshots are canonical JSON (:func:`repro.utils.canonical_json.dumps_canonical`)
and **byte-stable**: families and series are emitted in sorted order, values
are plain JSON scalars, and nothing backend-specific (numpy scalars are
coerced at observation time) can leak in.  Two runs that observe the same
value sequence produce identical snapshot bytes on either array backend.

Wall-clock measurements are the one non-deterministic input the system has.
Families that record them are created with ``volatile=True`` and are
**excluded from the default snapshot** — ``snapshot(include_volatile=True)``
opts back in for live inspection — so the exported snapshot of a seeded run
is byte-identical run-to-run, which is what the resilience chaos CI compares.

The :data:`NULL_REGISTRY` implements the same surface as no-ops on shared
singletons, so uninstrumented runs pay one attribute lookup and an empty
method call per instrumentation point.
"""

from __future__ import annotations

from repro.utils.canonical_json import dumps_canonical


def nearest_rank(q: float, count: int) -> int:
    """The 1-based nearest rank ``ceil(q * count)``, clamped to ``[1, count]``.

    Computed in integers with ``q`` truncated to six decimals, so the rank
    never depends on how ``q * count`` rounds in floating point.

    >>> nearest_rank(0.99, 100), nearest_rank(0.99, 101), nearest_rank(0.5, 3)
    (99, 100, 2)
    """
    return max(1, min(count, -(-int(q * 1_000_000) * count // 1_000_000)))


def quantile(samples, q: float) -> float:
    """Nearest-rank ``q`` quantile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    return sorted(samples)[nearest_rank(q, len(samples)) - 1]


#: snapshot format marker and version; bump on breaking changes.
METRICS_FORMAT = "repro-metrics"
METRICS_FORMAT_VERSION = 1

#: powers-of-two buckets for message-count / latency-proxy style values.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0, 4096.0,
)

#: buckets for rates and fractions in [0, 1].
RATE_BUCKETS: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)

#: buckets for wall-clock seconds (volatile families only).
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """One monotone series of a counter family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self.value += amount

    def to_payload(self) -> dict:
        return {"value": self.value}


class Gauge:
    """One last-write-wins series of a gauge family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def add(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def to_payload(self) -> dict:
        return {"value": self.value}


class Histogram:
    """One fixed-bucket series of a histogram family.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket catches
    overflow.  Quantiles resolve to the upper bound of the bucket where the
    cumulative count crosses the quantile (the overflow bucket reports the
    exact observed maximum), so p50/p95/p99 are pure functions of the counts
    — deterministic whenever the observations are.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.min: float = 0.0
        self.max: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if self.count == 0:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (0 when empty)."""
        if self.count == 0:
            return 0.0
        # nearest_rank(q, count) observations lie at or below the answer.
        target = nearest_rank(q, self.count)
        cumulative = 0
        for index, observed in enumerate(self.bucket_counts):
            cumulative += observed
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max

    def to_payload(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "bucket_counts": list(self.bucket_counts),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All series of one named metric, one per label-value combination."""

    __slots__ = ("name", "kind", "help", "label_names", "volatile", "buckets", "_series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        volatile: bool = False,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.volatile = volatile
        self.buckets = tuple(float(bound) for bound in buckets)
        self._series: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def labels(self, **label_values: object):
        """The series for one label-value combination (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        series = self._series.get(key)
        if series is None:
            if self.kind == "histogram":
                series = Histogram(self.buckets)
            else:
                series = _KIND_CLASSES[self.kind]()
            self._series[key] = series
        return series

    # -- label-resolving conveniences (hot paths should hold a series ref) ---------
    def inc(self, amount: float = 1, **label_values: object) -> None:
        """Increment the counter series selected by ``label_values``."""
        self.labels(**label_values).inc(amount)

    def set(self, value: float, **label_values: object) -> None:
        """Set the gauge series selected by ``label_values``."""
        self.labels(**label_values).set(value)

    def observe(self, value: float, **label_values: object) -> None:
        """Observe into the histogram series selected by ``label_values``."""
        self.labels(**label_values).observe(value)

    def to_payload(self) -> dict:
        payload: dict = {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                dict(
                    {"labels": dict(zip(self.label_names, key))},
                    **series.to_payload(),
                )
                for key, series in sorted(self._series.items())
            ],
        }
        if self.kind == "histogram":
            payload["buckets"] = list(self.buckets)
        return payload


class MetricsRegistry:
    """Registry of metric families; the write side of the telemetry layer."""

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        volatile: bool,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, labels, volatile, buckets)
            self._families[name] = family
            return family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric family {name!r} already registered as "
                f"{family.kind}{family.label_names}, not {kind}{tuple(labels)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = (), volatile: bool = False
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help, labels, volatile)

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = (), volatile: bool = False
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, labels, volatile)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ) -> MetricFamily:
        """Get or create a fixed-bucket histogram family."""
        return self._family(name, "histogram", help, labels, volatile, buckets)

    def family_names(self, include_volatile: bool = False) -> list[str]:
        """Sorted names of the registered families."""
        return sorted(
            name
            for name, family in self._families.items()
            if include_volatile or not family.volatile
        )

    def snapshot(self, include_volatile: bool = False) -> dict:
        """Canonical-JSON-serialisable snapshot of every family.

        Volatile (wall-clock) families are excluded by default so the
        snapshot of a seeded run is byte-identical run-to-run.
        """
        return {
            "format": METRICS_FORMAT,
            "version": METRICS_FORMAT_VERSION,
            "families": {
                name: family.to_payload()
                for name, family in sorted(self._families.items())
                if include_volatile or not family.volatile
            },
        }

    def dumps(self, include_volatile: bool = False) -> str:
        """Canonical JSON text (sorted keys, trailing newline) of the snapshot."""
        return dumps_canonical(self.snapshot(include_volatile)) + "\n"


# ---------------------------------------------------------------------------
# Null implementations — shared no-op singletons.
# ---------------------------------------------------------------------------
class _NullSeries:
    """No-op counter/gauge/histogram; a single instance serves every series."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_SERIES = _NullSeries()


class _NullFamily:
    """No-op family; ``labels`` always resolves to the shared null series."""

    __slots__ = ()

    def labels(self, **label_values: object) -> _NullSeries:
        return _NULL_SERIES

    def inc(self, amount: float = 1, **label_values: object) -> None:
        pass

    def set(self, value: float, **label_values: object) -> None:
        pass

    def observe(self, value: float, **label_values: object) -> None:
        pass


_NULL_FAMILY = _NullFamily()


class NullMetricsRegistry(MetricsRegistry):
    """Uninstrumented mode: every family is the shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = (), volatile: bool = False):
        return _NULL_FAMILY

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = (), volatile: bool = False):
        return _NULL_FAMILY

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ):
        return _NULL_FAMILY


#: the process-wide no-op registry (see :mod:`repro.obs`).
NULL_REGISTRY = NullMetricsRegistry()
