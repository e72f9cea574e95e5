"""The trace -> plan workloads (``plan-tpcc``, ``plan-epinions``).

A run builds the plans of several inputs (see :data:`INPUTS`).  For each, it
generates the ``repro run`` bundle (set-up), drives the pipeline stage by
stage with ``Pipeline.resume(state, stop_after=<stage>)`` and builds the
plan (``plan_s``).  The plan's deployed router (``deployment_strategy
("hash")`` plus the lookup table, as ``repro deploy`` builds it) then routes
every transaction of the trace in-process, without storage: that gives the
routed distributed fraction, routing throughput and per-transaction routing
latency.  Whole cycles over the inputs repeat while the next one fits in
the measuring window; there is always at least one.

TPC-C latency is that of NewOrder transactions, as TPC-C itself reports
it.  NewOrder routes ~7x slower than Payment and the two make up ~45% and
~43% of the mix, so the median over all transactions falls on the boundary
between the two modes and jumps between them from seed to seed.

Extraction replays statements on the bundle's database and mutates it, so
every plan starts from a freshly generated bundle.
"""

from __future__ import annotations

import gc
import math
import time
from statistics import mean

from layers import median, quantile
from spans import STAGE_LAYERS

#: workload -> (``repro run`` workload name, scale per size).
PLAN_WORKLOADS = {
    "plan-tpcc": ("tpcc", {"full": 2.0, "tiny": 0.25}),
    "plan-epinions": ("epinions", {"full": 2.0, "tiny": 0.25}),
}
#: transaction kind whose latency is reported (None: every transaction).
LATENCY_KIND = {"plan-tpcc": "new_order", "plan-epinions": None}
#: distinct inputs per run: run seed ``s`` builds the plans of ``repro run
#: --seed`` ``s*n`` .. ``s*n+n-1``.  Plan cost varies with the input (the
#: explain stage of one Epinions seed takes 3x another's), so a run reports
#: the mean over several inputs.  Six plans also spread the measurement over
#: about a minute, which averages out the host's drift: with three TPC-C
#: inputs (~25 s) the spread of plan_s over ten seeds was 10-23%, with six 6-10%.
INPUTS = {"plan-tpcc": 6, "plan-epinions": 6}
PARTITIONS = 2
TRAIN_FRACTION = 0.7
#: transactions routed per input (whole passes over the trace).
ROUTE_SAMPLES = {"full": 1000, "tiny": 200}


def cli_options(seed: int, hash_columns):
    """The options ``repro run`` uses: ``default_options`` plus the bundle's
    attribute-hashing columns."""
    from repro.core.config import default_options

    options = default_options(PARTITIONS, seed=seed)
    if hash_columns:
        options.hash_columns = hash_columns
    return options


def build_plan(recorder, options, database, training, test, trace_id, workload_name):
    """Run the five stages one by one, then build the plan.

    Returns ``(plan, seconds)``; each stage and the plan build get a span
    under one ``pipeline.plan`` span.
    """
    from repro.pipeline import STAGE_NAMES, Pipeline

    pipeline = Pipeline(options)
    state = pipeline.new_state(database, training, test)
    with recorder.span("pipeline.plan", trace_id=trace_id):
        started = time.perf_counter()
        for stage in STAGE_NAMES:
            with recorder.span(STAGE_LAYERS[stage]):
                run = pipeline.resume(state, stop_after=stage)
        with recorder.span("pipeline.plan_build"):
            plan = run.plan(created_by="perfbench", workload=workload_name)
        seconds = time.perf_counter() - started
    if state.completed != list(STAGE_NAMES):
        raise AssertionError(f"pipeline ran {state.completed}, expected {list(STAGE_NAMES)}")
    return plan, seconds


def check_plan(plan, recorded: dict | None, problems: list[str], label: str) -> None:
    """Byte-identical ``dumps``/``loads`` round trip and, when the seed has a
    recorded entry, the recorded fingerprint and distributed fraction."""
    from repro.pipeline import PartitionPlan

    text = plan.dumps()
    if PartitionPlan.loads(text).dumps() != text:
        problems.append(f"{label}: plan does not round-trip byte-identically")
    if recorded is None:
        return
    fingerprint = plan.content_fingerprint()
    if fingerprint != recorded["fingerprint"]:
        problems.append(
            f"{label}: fingerprint {fingerprint[:16]} != recorded {recorded['fingerprint'][:16]}"
        )
    fraction = plan.provenance.metrics["distributed_fraction"]
    if fraction != recorded["plan_distributed_fraction"]:
        problems.append(
            f"{label}: plan distributed fraction {fraction} != recorded "
            f"{recorded['plan_distributed_fraction']}"
        )


def deployed_router(plan, schema):
    """The router ``repro deploy`` builds for a plan."""
    from repro.routing.lookup import build_lookup_table
    from repro.routing.router import Router

    strategy = plan.deployment_strategy("hash")
    return Router(strategy, schema, build_lookup_table(strategy.assignment))


def inputs_digest(bundle) -> str:
    """SHA-256 over the generated statements (shows which inputs a seed made)."""
    import hashlib

    digest = hashlib.sha256()
    for transaction in bundle.workload.transactions:
        digest.update(repr(transaction.statements).encode("utf-8"))
    return digest.hexdigest()


def run_plan_workload(workload, seed, seconds, size, recorder, recorded: dict) -> dict:
    from repro.cli import WORKLOADS
    from repro.utils.rng import SeededRng
    from repro.workload.splitter import split_workload

    cli_name, scales = PLAN_WORKLOADS[workload]
    kind = LATENCY_KIND[workload]
    inputs = [seed * INPUTS[workload] + offset for offset in range(INPUTS[workload])]
    problems: list[str] = []
    setups: list[float] = []
    cycles: list[float] = []
    plan_s: dict[int, list[float]] = {seed: [] for seed in inputs}
    latencies_ms: dict[int, list[float]] = {seed: [] for seed in inputs}
    routed_fractions: dict[int, set[float]] = {seed: set() for seed in inputs}
    fingerprints: dict[int, set[str]] = {seed: set() for seed in inputs}
    plans: dict[int, object] = {}
    digests: dict[int, str] = {}
    routed = 0
    route_wall = 0.0
    window_start = time.perf_counter()
    while True:
        cycle = len(cycles)
        cycle_start = time.perf_counter()
        for input_seed in inputs:
            gc.collect()
            started = time.perf_counter()
            with recorder.span("setup", trace_id=(input_seed, cycle)):
                bundle = WORKLOADS[cli_name](scales[size], input_seed)
                training, test = split_workload(
                    bundle.workload, TRAIN_FRACTION, rng=SeededRng(input_seed)
                )
                options = cli_options(input_seed, bundle.hash_columns)
            setups.append(time.perf_counter() - started)
            digests.setdefault(input_seed, inputs_digest(bundle))
            plan, seconds_taken = build_plan(
                recorder, options, bundle.database, training, test, (input_seed, cycle), bundle.name
            )
            plan_s[input_seed].append(seconds_taken)
            check_plan(plan, recorded.get(str(input_seed)), problems, f"input {input_seed}")
            fingerprints[input_seed].add(plan.content_fingerprint())
            plans[input_seed] = plan

            router = deployed_router(plan, bundle.database.schema)
            transactions = bundle.workload.transactions
            # Drop the pipeline's artifacts first, so a collection of the
            # harness's own heap does not land in the routing latency tail.
            del bundle, training, test
            gc.collect()
            passes = math.ceil(ROUTE_SAMPLES[size] / len(transactions))
            distributed = 0
            route_start = time.perf_counter()
            for pass_index in range(passes):
                for number, transaction in enumerate(transactions):
                    with recorder.span("routing.route", trace_id=(input_seed, cycle, pass_index, number)):
                        started = time.perf_counter()
                        decisions = router.route_transaction(transaction)
                        latency_ms = (time.perf_counter() - started) * 1000.0
                    if kind is None or transaction.kind == kind:
                        latencies_ms[input_seed].append(latency_ms)
                    if pass_index == 0:
                        participants = set()
                        for decision in decisions:
                            participants.update(decision.partitions)
                        distributed += len(participants) > 1
            route_wall += time.perf_counter() - route_start
            routed += passes * len(transactions)
            routed_fractions[input_seed].add(distributed / len(transactions))
            del transactions, router
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - window_start
        if elapsed + median(cycles) > seconds:
            break
    for input_seed in inputs:
        for name, values in (
            ("fingerprint", fingerprints[input_seed]),
            ("routed distributed fraction", routed_fractions[input_seed]),
        ):
            if len(values) != 1:
                problems.append(f"input {input_seed}: {name} differs between repeats: {sorted(values)}")
    samples = [latencies_ms[input_seed] for input_seed in inputs]
    pooled = [latency for values in samples for latency in values]
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "plan_s": (mean(median(plan_s[input_seed]) for input_seed in inputs), "s"),
            "txn_per_s": (routed / route_wall, "txn/s"),
            "latency_p50_ms": (quantile(pooled, 0.50), "ms"),
            "latency_p99_ms": (quantile(pooled, 0.99), "ms"),
            "distributed_fraction": (
                mean(min(routed_fractions[input_seed]) for input_seed in inputs),
                "ratio",
            ),
        },
        "attempted": len(cycles) * len(inputs) + routed,
        "failed": 0,
        "problems": problems,
        "plans": [plans[input_seed] for input_seed in inputs],
        "detail": {
            "inputs": inputs,
            "cycles": len(cycles),
            "setup_s": setups,
            "plan_s": [plan_s[input_seed] for input_seed in inputs],
            "latency_kind": kind or "all",
            "latency_samples_per_input": [len(values) for values in samples],
            "plan_distributed_fraction": [
                plans[input_seed].provenance.metrics["distributed_fraction"] for input_seed in inputs
            ],
            "recommendation": [plans[input_seed].strategy for input_seed in inputs],
            "fingerprint": [plans[input_seed].content_fingerprint() for input_seed in inputs],
            "fingerprint_recorded": [str(input_seed) in recorded for input_seed in inputs],
            "inputs_digest": [digests[input_seed] for input_seed in inputs],
        },
    }
