"""Real-storage resilience under process kills: the chaos experiment.

A 2- and 4-partition TPC-C deployment runs on the **real** storage backend —
every partition a SQLite file owned by a worker process — under sustained
concurrent closed-loop clients, while the seeded
:class:`~repro.distributed.faults.FaultPlan` ``SIGKILL``\\ s two worker
processes at chosen commit ticks.  The supervisor must restart every killed
worker (WAL recovery on reopen) and the coordinator's retry/backoff/fallback
machinery must ride through the outage windows.  At the end the shared chaos
harness (:mod:`repro.experiments.chaos`) audits the files on disk row by row
against the oracle and gates on the storage checks: every planned kill fired
and was restarted, every transaction finished, and the lock-order witness
saw no out-of-order acquisition.

Each point measures its distributed-transaction fraction, so the run
doubles as a Figure-1-style wall-clock probe: the same workload deployed
via the Schism plan (few distributed transactions) and via hash partitioning
(many) at k=2 and k=4, recording throughput / latency / abort rate as that
fraction varies.  Wall-clock numbers are inherently volatile and are kept
out of the deterministic payload the bench harness records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.distributed.faults import FaultPlan, WorkerKill
from repro.experiments.chaos import (
    StorageChaosReport,
    deploy,
    scratch_directory,
    sqlite_deployment,
    tpcc_inputs,
)
from repro.obs import trace_span
from repro.storage import ClosedLoopDriver, RetryOptions


@dataclass(kw_only=True)
class StoragePointReport(StorageChaosReport):
    """One (strategy, partition count) deployment under the chaos schedule."""

    strategy: str
    num_partitions: int

    def to_payload(self) -> dict:
        """Deterministic summary for the bench report (no wall-clock fields)."""
        return {
            "label": self.label,
            "strategy": self.strategy,
            "num_partitions": self.num_partitions,
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "distributed_fraction": round(self.distributed_fraction, 6),
            "kills_fired": self.kills_fired,
            "restarts": self.restarts,
            **self.audit_payload(),
            "lock_order_out_of_order": self.lock_order_out_of_order,
        }


@dataclass
class StorageResilienceReport:
    """Outcome of the full storage-resilience sweep."""

    seed: int
    points: list[StoragePointReport] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        """Every acceptance failure across the sweep's points."""
        return [violation for point in self.points for violation in point.violations]

    @property
    def title(self) -> str:
        return f"Storage resilience under process kills (seed {self.seed})"

    def rows(self) -> list[tuple[str, str]]:
        return [
            (f"{point.label} {heading}", text)
            for point in self.points
            for heading, text in point.rows()
        ]

    def to_payload(self) -> dict:
        """Deterministic summary for ``BENCH_partitioner.json``."""
        return {
            "seed": self.seed,
            "points": [point.to_payload() for point in self.points],
            "violations": self.violations,
        }


def _run_point(
    label: str,
    strategy_name: str,
    num_partitions: int,
    seed: int,
    warehouses: int,
    training_transactions: int,
    live_transactions: int,
    num_clients: int,
    directory: Path,
    retry_options: RetryOptions,
) -> StoragePointReport:
    """Deploy one (strategy, k) point, drive it through the kills, audit it."""
    inputs = tpcc_inputs(seed, warehouses, training_transactions, live_transactions)
    strategy, router = deploy(
        inputs, strategy_name, num_partitions, "experiments.storage_resilience"
    )
    # Two kills per point: an early one on partition 0 and a mid-run one on
    # the last partition, pinned to cluster-wide commit counts — trigger
    # points the thread interleaving cannot move.
    faults = FaultPlan(
        seed=seed,
        worker_kills=(
            WorkerKill(partition=0, at_commit=max(3, live_transactions // 5)),
            WorkerKill(
                partition=num_partitions - 1, at_commit=max(6, live_transactions // 2)
            ),
        ),
    )
    point = StoragePointReport(
        label=label, strategy=strategy_name, num_partitions=num_partitions
    )
    with sqlite_deployment(
        point, directory / label, inputs, strategy, router, faults, retry_options, seed
    ) as (cluster, coordinator, injector):

        def on_commit(commits: int) -> None:
            for kill in injector.due_worker_kills(commits):
                cluster.kill_worker(kill.partition)

        driver = ClosedLoopDriver(
            coordinator, num_clients=num_clients, on_commit=on_commit
        )
        traffic = driver.run(inputs.live, txn_id_prefix=f"{label}-txn")
    point.record_traffic(traffic)
    return point


def run_storage_resilience(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 200,
    live_transactions: int = 80,
    num_clients: int = 4,
    partition_counts: tuple[int, ...] = (2, 4),
    directory: str | Path | None = None,
    retry_options: RetryOptions | None = None,
) -> StorageResilienceReport:
    """Run the storage-resilience sweep: (schism, hash) x ``partition_counts``.

    SQLite files live under ``directory`` (a fresh temporary directory when
    omitted, removed afterwards).  Every point endures two seeded worker
    kills; the report's :attr:`~StorageResilienceReport.violations` is the
    CI gate.
    """
    retry_options = retry_options or RetryOptions(timeout_ms=500, max_retries=4)
    report = StorageResilienceReport(seed=seed)
    with trace_span(
        "experiment.storage_resilience", seed=seed, warehouses=warehouses
    ), scratch_directory(directory, "repro-storage-") as base:
        for num_partitions in partition_counts:
            for strategy_name in ("schism", "hash"):
                report.points.append(
                    _run_point(
                        f"{strategy_name}-k{num_partitions}",
                        strategy_name,
                        num_partitions,
                        seed,
                        warehouses,
                        training_transactions,
                        live_transactions,
                        num_clients,
                        base,
                        retry_options,
                    )
                )
    return report
