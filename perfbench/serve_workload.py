"""The SQLite closed-loop workload (``serve-tpcc``).

Run seed ``s`` deploys ``inputs`` TPC-C instances one after the other, the
seeds ``s*inputs`` .. ``s*inputs+inputs-1``: throughput depends on the input
(how evenly a seed's plan spreads load over the two workers), so a run
averages over several.  Each deployment is one timed set-up: generate TPC-C
(8 warehouses, 2 districts, 8 customers per district, 40 items), train a
Schism plan on the first 600 transactions stage by stage, deploy it at k=2
the way ``repro deploy --storage sqlite`` does (``deployment_strategy
("hash")`` plus the lookup table), bulk-load the post-training database and
start the partition workers.  The stores keep their defaults: WAL
journaling with ``synchronous=FULL``.

Two closed-loop client threads (``ClosedLoopDriver``, no oracle) then run
that deployment's live transactions: one warm-up chunk, then chunks until
its share of the measuring window is over, at least ``exact`` of its
transactions ran and its share of ``latency_samples`` NewOrder latencies
was taken (so the run's p99 has ten samples beyond it).  The exact counts
(``distributed_fraction``, RPCs per transaction) are taken over the first
``exact`` window transactions of each deployment, a set that does not
depend on timing.

After its window each deployment's workers are stopped and its SQLite files
audited: each committed transaction's id is in the dedup table of exactly
the partitions it wrote, no aborted one is anywhere, and every stored tuple
is resident at a partition its routed placement names.
"""

from __future__ import annotations

import gc
import shutil
import sqlite3
import tempfile
import time
from pathlib import Path
from statistics import mean

from layers import median, quantile
from plan_workloads import build_plan, check_plan, cli_options, deployed_router, inputs_digest
from spans import SpanRecorder, TracedCluster, TracedCoordinator, TracedLocks, TracedRouter

SIZES = {
    "full": {
        "warehouses": 8, "train": 600, "live": 2000, "chunk": 100, "exact": 300,
        "latency_samples": 1000, "inputs": 4,
    },
    "tiny": {
        "warehouses": 2, "train": 150, "live": 250, "chunk": 50, "exact": 50,
        "latency_samples": 20, "inputs": 2,
    },
}
CLIENTS = 2
#: transaction kind whose latency is reported (see plan_workloads.py).
LATENCY_KIND = "new_order"


class Deployment:
    """One set-up: the plan, its router and the started cluster."""

    def __init__(self, bundle, plan, plan_s, router, cluster, live, directory) -> None:
        self.bundle = bundle
        self.plan = plan
        self.plan_s = plan_s
        self.router = router
        self.cluster = cluster
        self.live = live
        self.directory = directory

    def close(self) -> None:
        self.cluster.close()

    def remove(self) -> None:
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def generate(seed: int, size: str, num_transactions: int):
    """The TPC-C bundle: its first ``train`` transactions train the plan."""
    from repro.workloads import TpccConfig, generate_tpcc

    config = TpccConfig(
        warehouses=SIZES[size]["warehouses"],
        districts_per_warehouse=2,
        customers_per_district=8,
        items=40,
        seed=seed,
    )
    return generate_tpcc(config, num_transactions=num_transactions)


def train(recorder, seed: int, size: str, bundle, trace_id):
    """The plan trained on the bundle's first ``train`` transactions."""
    from repro.workload.trace import Workload

    training = Workload(
        f"{bundle.name}-train", bundle.workload.transactions[: SIZES[size]["train"]]
    )
    return build_plan(
        recorder,
        cli_options(seed, bundle.hash_columns),
        bundle.database,
        training,
        None,
        trace_id,
        bundle.name,
    )


def deploy(seed: int, size: str, directory: Path, recorder, index: int) -> Deployment:
    """Generate, train, load and start one deployment (the timed set-up)."""
    from repro.storage import SqliteStorageCluster

    config = SIZES[size]
    with recorder.span("setup", trace_id=f"setup-{index}"):
        with recorder.span("setup.generate"):
            bundle = generate(seed, size, config["train"] + config["live"])
        transactions = bundle.workload.transactions
        plan, plan_s = train(recorder, seed, size, bundle, (seed, index))
        router = deployed_router(plan, bundle.database.schema)
        with recorder.span("storage.load"):
            cluster = SqliteStorageCluster.from_database(
                directory, bundle.database, router.strategy
            )
        with recorder.span("storage.start"):
            cluster.start()
    return Deployment(
        bundle, plan, plan_s, router, cluster, transactions[config["train"] :], directory
    )


def write_participants(router, transaction) -> frozenset[int]:
    """Partitions a transaction's writes are applied on."""
    from repro.sqlparse.ast import is_write

    partitions: set[int] = set()
    for decision in router.route_transaction(transaction):
        if is_write(decision.statement):
            partitions.update(decision.partitions)
    return frozenset(partitions)


def audit(deployment: Deployment, executed: dict, outcomes: dict, problems: list[str]) -> None:
    """Dedup tables and tuple residency of the closed cluster's files."""
    from repro.storage.sqlite_store import APPLIED_TABLE

    cluster = deployment.cluster
    router = deployment.router
    expected: dict[int, set[str]] = {p: set() for p in range(cluster.num_partitions)}
    for txn_id, transaction in executed.items():
        if outcomes[txn_id].committed:
            for partition in write_participants(router, transaction):
                expected[partition].add(txn_id)
    for partition in range(cluster.num_partitions):
        connection = sqlite3.connect(str(cluster.paths[partition]))
        try:
            rows = connection.execute(
                f'SELECT txn_id, COUNT(*) FROM "{APPLIED_TABLE}" GROUP BY txn_id'
            ).fetchall()
        finally:
            connection.close()
        applied = {txn_id for txn_id, _ in rows}
        repeated = sum(1 for _, count in rows if count != 1)
        if repeated:
            problems.append(f"partition {partition}: {repeated} txn ids recorded more than once")
        missing = expected[partition] - applied
        if missing:
            problems.append(
                f"partition {partition}: {len(missing)} committed txns missing from the "
                f"dedup table, e.g. {sorted(missing)[:3]}"
            )
        unexpected = applied - expected[partition]
        if unexpected:
            problems.append(
                f"partition {partition}: {len(unexpected)} txn ids applied that did not "
                f"commit there, e.g. {sorted(unexpected)[:3]}"
            )
        store = cluster.open_store(partition)
        try:
            misplaced = [
                tuple_id
                for tuple_id in store.tuple_ids()
                if partition not in router.placement_of(tuple_id)
            ]
        finally:
            store.close()
        if misplaced:
            problems.append(
                f"partition {partition}: {len(misplaced)} tuples outside their routed "
                f"placement, e.g. {misplaced[:3]}"
            )


def serve(deployment: Deployment, seed: int, seconds: float, config: dict, recorder, run: dict) -> None:
    """Drive one deployment's live transactions through its measuring window."""
    from repro.storage import ClosedLoopDriver, StorageCoordinator

    if isinstance(recorder, SpanRecorder):
        coordinator = StorageCoordinator(
            TracedCluster(deployment.cluster, recorder),
            TracedRouter(deployment.router, recorder),
            seed=seed,
        )
        coordinator.locks = TracedLocks(coordinator.locks, recorder)
        target = TracedCoordinator(coordinator, recorder)
    else:
        target = StorageCoordinator(deployment.cluster, deployment.router, seed=seed)
    driver = ClosedLoopDriver(target, num_clients=CLIENTS)
    live = deployment.live
    chunk = config["chunk"]
    executed: dict = {}
    outcomes: dict = {}
    window_ids: list[str] = []
    latencies = 0

    def run_chunk(prefix: str, transactions) -> object:
        report = driver.run(transactions, txn_id_prefix=prefix)
        for offset, transaction in enumerate(transactions):
            executed[f"{prefix}-{offset}"] = transaction
        for outcome in report.outcomes:
            outcomes[outcome.txn_id] = outcome
        if report.committed + report.aborted != len(transactions):
            run["problems"].append(
                f"chunk {prefix}: {report.committed} committed plus {report.aborted} "
                f"aborted != {len(transactions)} attempted"
            )
        return report

    run_chunk(f"warm{seed}", live[:chunk])
    cursor = chunk
    window_start = time.perf_counter()
    while cursor < len(live):
        if (
            time.perf_counter() - window_start >= seconds
            and len(window_ids) >= config["exact"]
            and latencies >= config["latency_samples"]
        ):
            break
        batch = live[cursor : cursor + chunk]
        prefix = f"i{seed}c{cursor}"
        report = run_chunk(prefix, batch)
        window_ids.extend(f"{prefix}-{offset}" for offset in range(len(batch)))
        run["all_latencies_ms"].extend(report.latencies_ms)
        for outcome, latency_ms in zip(report.outcomes, report.latencies_ms):
            if executed[outcome.txn_id].kind == LATENCY_KIND:
                run["latencies_ms"].append(latency_ms)
                latencies += 1
        run["committed"] += report.committed
        run["wall"] += report.wall_s
        run["chunk_rates"].append(report.committed / report.wall_s)
        cursor += len(batch)
    run["exhausted"] += cursor >= len(live)
    deployment.close()

    if set(outcomes) != set(executed):
        run["problems"].append(
            f"input {seed}: {len(executed)} transactions attempted but "
            f"{len(outcomes)} outcomes recorded"
        )
    if len(window_ids) < config["exact"]:
        run["problems"].append(
            f"input {seed}: only {len(window_ids)} window transactions, fewer than "
            f"the {config['exact']} the exact counts need"
        )
    audit(deployment, executed, outcomes, run["problems"])
    exact_ids = window_ids[: config["exact"]]
    run["attempted"] += len(executed)
    run["aborted"] += sum(1 for outcome in outcomes.values() if not outcome.committed)
    run["distributed"] += sum(
        1 for txn_id in exact_ids if outcomes[txn_id].scope == "distributed"
    )
    run["exact_ids"].extend(exact_ids)
    run["window_ids"].extend(window_ids)


def run_serve_workload(seed, seconds, size, recorder, recorded, out_dir: Path) -> dict:
    config = SIZES[size]
    inputs = [seed * config["inputs"] + offset for offset in range(config["inputs"])]
    share = dict(config, latency_samples=-(-config["latency_samples"] // len(inputs)))
    run: dict = {
        "problems": [], "latencies_ms": [], "all_latencies_ms": [], "chunk_rates": [],
        "exact_ids": [], "window_ids": [], "committed": 0, "wall": 0.0, "attempted": 0,
        "aborted": 0, "distributed": 0, "exhausted": 0,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="sqlite-", dir=out_dir))
    setups: list[float] = []
    plans = []
    plan_times: list[float] = []
    digests = []
    deployment = None
    try:
        for index, input_seed in enumerate(inputs):
            gc.collect()
            started = time.perf_counter()
            deployment = deploy(input_seed, size, root / f"input-{input_seed}", recorder, index)
            setups.append(time.perf_counter() - started)
            plans.append(deployment.plan)
            plan_times.append(deployment.plan_s)
            check_plan(deployment.plan, recorded.get(str(input_seed)), run["problems"], f"input {input_seed}")
            digests.append(inputs_digest(deployment.bundle))
            serve(deployment, input_seed, seconds / len(inputs), share, recorder, run)
            deployment.remove()
            deployment = None
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(root, ignore_errors=True)
    latencies_ms = run["latencies_ms"]
    all_latencies_ms = run["all_latencies_ms"]
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "plan_s": (mean(plan_times), "s"),
            "txn_per_s": (run["committed"] / run["wall"], "txn/s"),
            "latency_p50_ms": (quantile(latencies_ms, 0.50), "ms"),
            "latency_p99_ms": (quantile(latencies_ms, 0.99), "ms"),
            "distributed_fraction": (run["distributed"] / len(run["exact_ids"]), "ratio"),
        },
        "attempted": run["attempted"],
        "failed": run["aborted"],
        "problems": run["problems"],
        "plans": plans,
        "exact_ids": run["exact_ids"],
        "window_ids": run["window_ids"],
        "detail": {
            "inputs": inputs,
            "setup_s": setups,
            "plan_s": plan_times,
            "clients": CLIENTS,
            "warmup_transactions": config["chunk"] * len(inputs),
            "window_transactions": len(run["window_ids"]),
            "window_s": run["wall"],
            "chunk_txn_per_s": run["chunk_rates"],
            "inputs_exhausted": run["exhausted"],
            "latency_kind": LATENCY_KIND,
            "latency_samples": len(latencies_ms),
            "latency_mean_ms": sum(all_latencies_ms) / len(all_latencies_ms),
            "latency_all_p50_ms": quantile(all_latencies_ms, 0.50),
            "latency_all_p99_ms": quantile(all_latencies_ms, 0.99),
            "plan_distributed_fraction": [
                plan.provenance.metrics["distributed_fraction"] for plan in plans
            ],
            "recommendation": [plan.strategy for plan in plans],
            "fingerprint": [plan.content_fingerprint() for plan in plans],
            "fingerprint_recorded": [str(input_seed) in recorded for input_seed in inputs],
            "inputs_digest": digests,
        },
    }
