"""Per-layer summary of a trace file written by ``run.py --trace 1``.

Usage (from the repository root)::

    python3 perfbench/summarize.py perfbench/out/trace-serve-tpcc-seed0.json

For every root span kind (``pipeline.plan``, ``setup``, ``routing.route``,
``storage.txn``) it lists the layers under it with their span count, p50
and p99 duration, and self time as a share of the roots' total duration.
For ``storage.txn`` it also checks that route, lock, RPC and coordinator
self time account for the transaction latency the driver measured.  The
tracing overhead is the difference between the traced run's end-to-end
numbers and those of an untraced run of the same workload and seed
(``--untraced``; by default the ``result-...-trace0.json`` next to the
trace file).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from layers import END, ID, NAME, PARENT, START, TRACE, duration, quantile, self_times

FIELDS = ("id", "parent", "trace", "name", "start", "end", "error")


def load(path: Path) -> tuple[dict, list[tuple]]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    spans = [tuple(span[field] for field in FIELDS) for span in payload["spans"]]
    # JSON turns tuple trace ids into lists; make them hashable again.
    spans = [
        span[:TRACE] + (tuple(span[TRACE]),) + span[TRACE + 1 :]
        if isinstance(span[TRACE], list)
        else span
        for span in spans
    ]
    return payload["meta"], spans


def roots_of(spans: list[tuple]) -> dict[int, tuple]:
    """Span id -> the root span above it (itself for a root)."""
    by_id = {span[ID]: span for span in spans}
    roots: dict[int, tuple] = {}
    for span in spans:
        chain = []
        current = span
        while current[ID] not in roots and current[PARENT] is not None:
            chain.append(current[ID])
            current = by_id[current[PARENT]]
        root = roots.get(current[ID], current)
        roots[current[ID]] = root
        for span_id in chain:
            roots[span_id] = root
    return roots


def layer_table(spans: list[tuple]) -> list[str]:
    """One block per root kind: each layer's count, p50/p99 and self share."""
    own = self_times(spans)
    roots = roots_of(spans)
    kinds: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        kinds[roots[span[ID]][NAME]].append(span)
    lines = []
    for kind in sorted(kinds):
        members = kinds[kind]
        base = sum(duration(span) for span in members if span[NAME] == kind)
        root_count = sum(1 for span in members if span[NAME] == kind)
        lines.append(
            f"\n[{kind}] base: total duration of {root_count} {kind} spans = {base:.3f} s"
        )
        lines.append(
            f"  {'layer':28} {'spans':>7} {'p50 ms':>10} {'p99 ms':>10} {'self s':>9} {'self share':>10}"
        )
        groups: dict[str, list[tuple]] = defaultdict(list)
        for span in members:
            groups[span[NAME]].append(span)
        for name in sorted(groups, key=lambda n: -sum(own[s[ID]] for s in groups[n])):
            durations = [duration(span) * 1000.0 for span in groups[name]]
            self_s = sum(own[span[ID]] for span in groups[name])
            share = self_s / base if base else 0.0
            lines.append(
                f"  {name:28} {len(durations):>7} {quantile(durations, 0.5):>10.3f} "
                f"{quantile(durations, 0.99):>10.3f} {self_s:>9.3f} {share:>9.1%}"
            )
    return lines


def txn_accounting(meta: dict, spans: list[tuple]) -> list[str]:
    """Mean per-transaction time by layer against the driver's latency."""
    txns = [
        span
        for span in spans
        if span[NAME] == "storage.txn" and not str(span[TRACE]).startswith("warm")
    ]
    if not txns:
        return []
    window_ids = {span[TRACE] for span in txns}
    window = [span for span in spans if span[TRACE] in window_ids]
    own = self_times(window)
    totals: dict[str, float] = defaultdict(float)
    for span in window:
        if span[NAME] != "storage.txn":
            totals[span[NAME]] += duration(span)
    totals["coordinator self"] = sum(own[span[ID]] for span in txns)
    txn_total = sum(duration(span) for span in txns)
    count = len(txns)
    lines = [
        f"\n[storage.txn accounting] base: mean txn span = {txn_total * 1000.0 / count:.3f} ms "
        f"over {count} window transactions"
    ]
    for name, total in sorted(totals.items(), key=lambda item: -item[1]):
        lines.append(
            f"  {name:28} {total * 1000.0 / count:>9.3f} ms/txn {total / txn_total:>9.1%}"
        )
    accounted = sum(totals.values())
    lines.append(
        f"  {'sum of layers':28} {accounted * 1000.0 / count:>9.3f} ms/txn "
        f"{accounted / txn_total:>9.1%}"
    )
    driver_ms = meta.get("detail", {}).get("latency_mean_ms")
    if driver_ms:
        lines.append(
            f"  layers account for {accounted * 1000.0 / count / driver_ms:.1%} of the "
            f"driver-measured latency (base: mean driver latency {driver_ms:.3f} ms)"
        )
    return lines


def overhead(meta: dict, untraced_path: Path) -> list[str]:
    """Traced minus untraced end-to-end numbers, as a share of the untraced."""
    if not untraced_path.exists():
        return [
            f"\ntracing overhead: no untraced result at {untraced_path}; run the same "
            "workload and seed with --trace 0 first"
        ]
    result = json.loads(untraced_path.read_text(encoding="utf-8"))
    settings = ("size", "seconds")
    if any(result[key] != meta[key] for key in settings):
        return [
            f"\ntracing overhead: {untraced_path.name} ran with "
            f"{ {key: result[key] for key in settings} }, the trace with "
            f"{ {key: meta[key] for key in settings} }; rerun it with the same settings"
        ]
    untraced = result["end_to_end"]
    lines = [f"\ntracing overhead (base: untraced run {untraced_path.name})"]
    for name, traced in sorted(meta["end_to_end"].items()):
        if name not in untraced:
            continue
        before = untraced[name]["value"]
        after = traced["value"]
        change = (after - before) / before if before else 0.0
        lines.append(
            f"  {name:28} untraced {before:>12.6g}  traced {after:>12.6g}  "
            f"{change:>+8.1%} {traced['unit']}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="trace-<workload>-seed<n>.json")
    parser.add_argument("--untraced", type=Path, default=None)
    args = parser.parse_args(argv)
    meta, spans = load(args.trace)
    untraced = args.untraced or args.trace.with_name(
        f"result-{meta['workload']}-seed{meta['seed']}-trace0.json"
    )
    spans.sort(key=lambda span: (span[START], span[END]))
    lines = [f"{meta['workload']} seed {meta['seed']}: {len(spans)} spans"]
    lines += layer_table(spans)
    lines += txn_accounting(meta, spans)
    lines += overhead(meta, untraced)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
