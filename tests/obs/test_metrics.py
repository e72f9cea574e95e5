"""Unit tests for the deterministic metrics registry."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    RATE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.metrics import (
    METRICS_FORMAT,
    METRICS_FORMAT_VERSION,
    nearest_rank,
    quantile,
)

REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"


@pytest.mark.parametrize("q", [0.5, 0.99])
def test_nearest_rank_matches_the_formulas_it_replaced(q):
    """One rank rule for every quantile site.

    The references are the two formulas the rule replaced: the float
    ``ceil(q * n) - 1`` index of the migration pacer and the old resilience
    p99, and the histogram's integer target rank.
    """
    for n in range(1, 2001):
        pacer_index = max(0, math.ceil(q * n) - 1)
        histogram_rank = max(1, min(n, -(-int(q * 1_000_000) * n // 1_000_000)))
        assert nearest_rank(q, n) - 1 == pacer_index
        assert nearest_rank(q, n) == histogram_rank
        samples = list(range(n, 0, -1))
        assert quantile(samples, q) == sorted(samples)[pacer_index]


def test_quantile_of_nothing_is_zero():
    assert quantile([], 0.99) == 0.0


def test_counter_families_and_labels():
    registry = MetricsRegistry()
    family = registry.counter("requests", "requests by verb", labels=("verb",))
    family.inc(verb="get")
    family.inc(2, verb="get")
    family.inc(verb="put")
    payload = family.to_payload()
    assert payload["kind"] == "counter"
    assert payload["labels"] == ["verb"]
    assert [(row["labels"], row["value"]) for row in payload["series"]] == [
        ({"verb": "get"}, 3),
        ({"verb": "put"}, 1),
    ]


def test_label_set_is_enforced():
    registry = MetricsRegistry()
    family = registry.counter("c", labels=("a", "b"))
    with pytest.raises(ValueError):
        family.inc(a="x")  # missing b
    with pytest.raises(ValueError):
        family.inc(a="x", b="y", c="z")  # extra label


def test_family_redeclaration_must_agree():
    registry = MetricsRegistry()
    first = registry.counter("c", labels=("a",))
    assert registry.counter("c", labels=("a",)) is first  # idempotent
    with pytest.raises(ValueError):
        registry.gauge("c", labels=("a",))  # kind mismatch
    with pytest.raises(ValueError):
        registry.counter("c", labels=("b",))  # label mismatch


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth").labels()
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value == 3


def test_histogram_quantiles_are_bucket_upper_bounds():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0)).labels()
    for value in (0.5, 1.5, 1.5, 3.0, 7.0):
        histogram.observe(value)
    # cumulative counts [1, 3, 4, 5]; ceil(0.5*5)=3 -> bucket <=2.0
    assert histogram.quantile(0.50) == 2.0
    assert histogram.quantile(0.95) == 8.0
    payload = histogram.to_payload()
    assert payload["count"] == 5
    assert payload["bucket_counts"] == [1, 2, 1, 1, 0]
    assert payload["min"] == 0.5 and payload["max"] == 7.0


def test_histogram_overflow_bucket_reports_exact_max():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(1.0, 2.0)).labels()
    histogram.observe(100.0)
    histogram.observe(250.0)
    assert histogram.quantile(0.99) == 250.0


def test_volatile_families_are_excluded_from_default_snapshot():
    registry = MetricsRegistry()
    registry.counter("steady").inc()
    registry.histogram("wall_seconds", volatile=True).observe(0.123)
    assert registry.family_names() == ["steady"]
    assert registry.family_names(include_volatile=True) == ["steady", "wall_seconds"]
    assert "wall_seconds" not in registry.snapshot()["families"]
    assert "wall_seconds" in registry.snapshot(include_volatile=True)["families"]


def test_snapshot_bytes_are_a_pure_function_of_observations():
    def drive(registry: MetricsRegistry) -> None:
        registry.counter("ops", "operations", labels=("kind",)).inc(kind="read")
        registry.counter("ops", "operations", labels=("kind",)).inc(3, kind="write")
        histogram = registry.histogram("lat", buckets=DEFAULT_BUCKETS)
        for value in (1, 17, 4096, 9999):
            histogram.observe(value)

    first, second = MetricsRegistry(), MetricsRegistry()
    drive(first)
    drive(second)
    assert first.dumps() == second.dumps()
    snapshot = first.snapshot()
    assert snapshot["format"] == METRICS_FORMAT
    assert snapshot["version"] == METRICS_FORMAT_VERSION
    # canonical form: trailing newline, sorted keys, plain JSON scalars
    text = first.dumps()
    assert text.endswith("\n")
    assert json.loads(text) == snapshot


def test_numpy_scalars_are_coerced_at_observation_time():
    numpy = pytest.importorskip("numpy")
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=RATE_BUCKETS).labels()
    histogram.observe(numpy.float64(0.25))
    payload = histogram.to_payload()
    assert type(payload["sum"]) is float
    assert payload["sum"] == 0.25


def test_null_registry_is_inert_and_shared():
    assert NULL_REGISTRY.enabled is False
    family = NULL_REGISTRY.counter("anything", labels=("x",))
    assert family is NULL_REGISTRY.histogram("other")
    family.inc(x="whatever-label")  # label names are not even checked
    series = family.labels(bogus=1)
    series.inc()
    series.observe(5.0)
    assert series.value == 0
    assert NULL_REGISTRY.snapshot()["families"] == {}


_SNAPSHOT_SCRIPT = """
from repro.obs import Telemetry, use_telemetry
from repro.experiments.resilience import _run_scenario

with use_telemetry(Telemetry.create(seed=0)) as telemetry:
    _run_scenario(0, 1, 120, 200, 30)
    print(telemetry.metrics.dumps(), end="")
"""


def _snapshot_subprocess(backend: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["REPRO_ARRAY_BACKEND"] = backend
    env.pop("PYTHONHASHSEED", None)  # fresh salted hashing per process
    result = subprocess.run(
        [sys.executable, "-c", _SNAPSHOT_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_snapshot_byte_identical_across_processes_and_backends():
    """Two fresh processes — one per array backend — export identical bytes."""
    try:
        import numpy  # noqa: F401

        backends = ("numpy", "list")
    except ImportError:
        backends = ("list", "list")
    first = _snapshot_subprocess(backends[0])
    second = _snapshot_subprocess(backends[1])
    assert first == second
    families = json.loads(first)["families"]
    assert "migration.state_transitions" in families
    assert "twopc.attempts" in families
