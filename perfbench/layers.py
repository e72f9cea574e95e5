"""Span arithmetic shared by the benchmark run and the trace summary.

Spans are the tuples :class:`spans.SpanRecorder` records:
``(span_id, parent_id, trace_id, name, start_s, end_s, error)``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

ID, PARENT, TRACE, NAME, START, END, ERROR = range(7)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the smallest value with at least ``q`` of the
    samples at or below it); ``nan`` for no samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for an even count)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def duration(span: Sequence) -> float:
    """Seconds between a span's start and end."""
    return span[END] - span[START]


def self_times(spans: Iterable[Sequence]) -> dict[int, float]:
    """Span id -> self seconds: the span's duration minus the part of its
    interval that its children cover (overlapping children counted once)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(span[ID], ())):
            start = max(start, cursor)
            end = min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        result[span[ID]] = duration(span) - covered
    return result


def by_name(spans: Iterable[Sequence]) -> dict[str, list[Sequence]]:
    """Spans grouped by name."""
    groups: dict[str, list[Sequence]] = defaultdict(list)
    for span in spans:
        groups[span[NAME]].append(span)
    return groups


def per_trace_totals(spans: Iterable[Sequence], name: str) -> dict[object, float]:
    """Trace id -> summed seconds of the spans called ``name`` in it."""
    totals: dict[object, float] = defaultdict(float)
    for span in spans:
        if span[NAME] == name:
            totals[span[TRACE]] += duration(span)
    return totals

