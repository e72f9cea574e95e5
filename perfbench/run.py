"""Benchmark entry point: one workload, one seed, one measuring window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-tpcc --seed 0 --seconds 20 --trace 0

Workloads: ``plan-tpcc`` and ``plan-epinions`` (trace -> plan, see
``plan_workloads.py``) and ``serve-tpcc`` (SQLite closed loop, see
``serve_workload.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs span recording around every layer's entry points,
reports the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json`` (summarise it with
``perfbench/summarize.py``).  Every run also writes its full result, with
sample counts, to ``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints ``"correct": false`` and exits with status 1.
``--size tiny`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path
from statistics import mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan-tpcc", "plan-epinions", "serve-tpcc")
#: measured on every run but reported among the per-layer metrics, without a
#: bound: on serve-tpcc their spread over ten seeds (21-47% for txn/s, up to
#: 51% for p99) exceeds the largest bound allowed, on a shared 2-vCPU host.
UNGATED = ("txn_per_s", "latency_p50_ms", "latency_p99_ms")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def recorded_plans(workload: str, size: str) -> dict:
    """Input seed -> recorded plan fingerprint (full size only)."""
    if size != "full":
        return {}
    recorded = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    return recorded.get(workload, {})


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The storage workers are ``spawn`` children, and starting one also starts
    multiprocessing's resource tracker, which would otherwise outlive this
    process by a moment.  The tracker ends once every holder of its pipe has
    closed it, so the workers go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def layer_metrics(spans: list, result: dict) -> dict:
    """The per-layer metrics, from the recorded spans."""
    from layers import (
        ERROR, ID, NAME, TRACE, by_name, duration, median, per_trace_totals, quantile, self_times,
    )
    from spans import STAGE_LAYERS

    groups = by_name(spans)
    metrics: dict = {}
    # Stage spans carry their plan's trace id, (input seed, repeat): the
    # median over one input's repeats, then the mean over inputs, as plan_s.
    for layer in (*STAGE_LAYERS.values(), "pipeline.plan_build"):
        per_input: dict = {}
        for span in groups[layer]:
            per_input.setdefault(span[TRACE][0], []).append(duration(span))
        metrics[f"{layer}_s"] = (mean(median(values) for values in per_input.values()), "s")
    plans = result["plans"]
    for name, key, unit in (
        ("graph.nodes", "graph_nodes", "count"),
        ("graph.edges", "graph_edges", "count"),
        ("graph.cut_weight", "graph_cut", "weight"),
        ("plan_distributed_fraction", "distributed_fraction", "ratio"),
    ):
        metrics[name] = (mean(plan.provenance.metrics[key] for plan in plans), unit)
    metrics["pipeline.plan_placements"] = (mean(len(plan) for plan in plans), "count")

    window = set(result.get("window_ids", ()))
    in_window = [s for s in spans if s[TRACE] in window] if window else []
    routes = in_window if window else groups["routing.route"]
    route_ms = [duration(s) * 1000.0 for s in routes if s[NAME] == "routing.route"]
    metrics["routing.route_ms"] = (sum(route_ms) / len(route_ms), "ms")

    zero_ms = (0.0, "ms")
    storage = {
        "storage.rpc_read_per_txn": (0.0, "rpc/txn"),
        "storage.rpc_read_ms": zero_ms,
        "storage.rpc_apply_per_txn": (0.0, "rpc/txn"),
        "storage.rpc_apply_ms": zero_ms,
        "storage.lock_wait_p50_ms": zero_ms,
        "storage.lock_wait_p99_ms": zero_ms,
        "storage.rpc_ok_fraction": (1.0, "ratio"),
        "storage.rpc_errors": (0, "count"),
        "storage.coordinator_self_ms": zero_ms,
        "storage.load_s": (0.0, "s"),
        "storage.start_s": (0.0, "s"),
    }
    if window:
        exact = set(result["exact_ids"])
        window_groups = by_name(in_window)
        for op in ("read", "apply"):
            rpcs = window_groups[f"storage.rpc.{op}"]
            exact_count = sum(1 for s in rpcs if s[TRACE] in exact)
            storage[f"storage.rpc_{op}_per_txn"] = (exact_count / len(exact), "rpc/txn")
            mean_ms = sum(duration(s) for s in rpcs) * 1000.0 / len(rpcs) if rpcs else 0.0
            storage[f"storage.rpc_{op}_ms"] = (mean_ms, "ms")
        lock_totals = per_trace_totals(in_window, "storage.lock_wait")
        lock_ms = [lock_totals.get(txn_id, 0.0) * 1000.0 for txn_id in window]
        storage["storage.lock_wait_p50_ms"] = (quantile(lock_ms, 0.50), "ms")
        storage["storage.lock_wait_p99_ms"] = (quantile(lock_ms, 0.99), "ms")
        rpcs = [s for s in in_window if s[NAME].startswith("storage.rpc.")]
        errors = sum(1 for s in rpcs if s[ERROR])
        storage["storage.rpc_ok_fraction"] = (1.0 - errors / len(rpcs), "ratio")
        storage["storage.rpc_errors"] = (errors, "count")
        own = self_times(in_window)
        txns = window_groups["storage.txn"]
        storage["storage.coordinator_self_ms"] = (
            sum(own[s[ID]] for s in txns) * 1000.0 / len(txns),
            "ms",
        )
        storage["storage.load_s"] = (median([duration(s) for s in groups["storage.load"]]), "s")
        storage["storage.start_s"] = (median([duration(s) for s in groups["storage.start"]]), "s")
    metrics.update(storage)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from plan_workloads import run_plan_workload
    from serve_workload import run_serve_workload
    from spans import NullRecorder, SpanRecorder

    recorder = SpanRecorder() if args.trace else NullRecorder()
    recorded = recorded_plans(args.workload, args.size)
    try:
        if args.workload == "serve-tpcc":
            result = run_serve_workload(
                args.seed, args.seconds, args.size, recorder, recorded, args.out_dir
            )
        else:
            result = run_plan_workload(
                args.workload, args.seed, args.seconds, args.size, recorder, recorded
            )
    finally:
        stop_child_processes()
    measured = dict(result["metrics"])
    failed_fraction = result["failed"] / result["attempted"]
    measured["ok_fraction"] = (1.0 - failed_fraction, "ratio")
    measured["peak_rss_mb"] = (peak_rss_mb(), "MB")
    end_to_end = {name: value for name, value in measured.items() if name not in UNGATED}
    if args.trace:
        chosen = layer_metrics(recorder.spans, result)
        chosen.update({name: measured[name] for name in UNGATED})
    else:
        chosen = end_to_end
    for name, (value, _) in chosen.items():
        if not math.isfinite(value):
            result["problems"].append(f"metric {name} is not a finite number: {value}")

    stem = f"{args.workload}-seed{args.seed}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in measured.items()},
        "failed_fraction": failed_fraction,
        "detail": result["detail"],
        "problems": result["problems"],
    }
    if args.trace:
        detail["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()}
        trace_path = recorder.write(args.out_dir / f"trace-{stem}.json", detail)
        print(f"spans: {len(recorder.spans)} written to {trace_path}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    scalars = {key: value for key, value in result["detail"].items() if not isinstance(value, list)}
    print(f"{args.workload} seed {args.seed} ({args.size}): {scalars}")
    print(
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_fraction {failed_fraction:.6f}, base: attempted)"
    )
    for name, (value, unit) in chosen.items():
        print(f"  {name:32} {value:>14.6g} {unit}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
