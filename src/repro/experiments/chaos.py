"""The chaos harness shared by the three fault-injection experiments.

:mod:`~repro.experiments.resilience` (a simulated resize under faults),
:mod:`~repro.experiments.storage_resilience` (SQLite worker kills) and
:mod:`~repro.experiments.storage_migration` (a SQLite resize under kills)
differ only in the traffic loop they drive.  Everything around that loop
lives here:

* :func:`tpcc_inputs` builds the small TPC-C database and splits its trace
  into a training slice (for the planner) and a live slice (the traffic);
* :func:`schism_plan` and :func:`deploy` turn the training slice into a
  plan, a deployment strategy and its :class:`~repro.routing.router.Router`;
* :meth:`ChaosReport.audit` compares a cluster with the single-node
  **oracle** that mirrored every committed transaction, over a residency
  map read by :func:`memory_residency` (in-memory ``Cluster``) or
  :func:`sqlite_residency` (a closed SQLite cluster):

  - **lost updates** — a replica whose row differs from the oracle row;
  - **phantom rows** — a stored tuple the oracle does not have;
  - **unreachable tuples** — a stored tuple resident at none of the
    partitions its routed placement names;
  - **tuple conservation** — the cluster stores exactly the oracle's tuples;

* :class:`ChaosReport` and :class:`StorageChaosReport` hold the shared
  fields and the shared part of the ``violations`` gate; each scenario
  appends its own checks;
* :func:`scratch_directory` and :func:`sqlite_deployment` own the temporary
  files, the worker processes, the coordinator and its lock-order witness
  for the two storage scenarios;
* :func:`format_report` renders any of the reports.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.witness import WitnessedLockManager
from repro.catalog.tuples import TupleId
from repro.core.strategies import HashPartitioning
from repro.distributed.faults import FaultPlan
from repro.engine.database import Database
from repro.pipeline import Pipeline, SchismOptions
from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router
from repro.storage import (
    DriverReport,
    RetryOptions,
    SqliteStorageCluster,
    StorageCoordinator,
)
from repro.workload.trace import Workload
from repro.workloads import TpccConfig, generate_tpcc


@dataclass
class ChaosInputs:
    """The TPC-C database with its training and live transaction slices."""

    name: str
    database: Database
    training: Workload
    live: list


def tpcc_inputs(
    seed: int, warehouses: int, training_transactions: int, live_transactions: int
) -> ChaosInputs:
    """A small seeded TPC-C bundle split into training and live traffic.

    Every call builds a fresh database: the live traffic mutates it as the
    oracle, so two deployments must never share one.
    """
    config = TpccConfig(
        warehouses=warehouses,
        districts_per_warehouse=2,
        customers_per_district=8,
        items=40,
        seed=seed,
    )
    bundle = generate_tpcc(
        config, num_transactions=training_transactions + live_transactions
    )
    transactions = bundle.workload.transactions
    return ChaosInputs(
        name=bundle.name,
        database=bundle.database,
        training=Workload(f"{bundle.name}-train", transactions[:training_transactions]),
        live=transactions[training_transactions:],
    )


def schism_plan(inputs: ChaosInputs, num_partitions: int, created_by: str):
    """Run the pipeline on the training slice: ``(run, plan)``."""
    run = Pipeline(SchismOptions(num_partitions=num_partitions)).run(
        inputs.database, inputs.training
    )
    return run, run.plan(created_by=created_by, workload=inputs.name)


def deploy(
    inputs: ChaosInputs, strategy_name: str, num_partitions: int, created_by: str
):
    """``(strategy, router)`` for a ``"schism"`` or ``"hash"`` deployment."""
    if strategy_name == "schism":
        _, plan = schism_plan(inputs, num_partitions, created_by)
        strategy = plan.deployment_strategy("hash")
        lookup_table = build_lookup_table(strategy.assignment)
    else:
        strategy = HashPartitioning(num_partitions)
        lookup_table = None
    return strategy, Router(strategy, inputs.database.schema, lookup_table)


# -- the oracle audit -----------------------------------------------------------------


def memory_residency(cluster):
    """``(locations, read_row)`` of an in-memory :class:`Cluster`."""

    def read_row(partition: int, tuple_id: TupleId):
        return cluster.database(partition).get_row(tuple_id)

    return cluster.tuple_locations_map(), read_row


def sqlite_residency(cluster: SqliteStorageCluster):
    """``(locations, read_row)`` of a closed SQLite cluster, read from its files."""
    rows = {}
    for partition in range(cluster.num_partitions):
        store = cluster.open_store(partition)
        try:
            rows[partition] = {
                table.name: store.all_rows(table.name) for table in cluster.schema.tables
            }
        finally:
            store.close()
    locations: dict[TupleId, set[int]] = {}
    for partition, tables in rows.items():
        for table, keyed in tables.items():
            for key in keyed:
                locations.setdefault(TupleId(table, key), set()).add(partition)

    def read_row(partition: int, tuple_id: TupleId):
        return rows[partition][tuple_id.table].get(tuple(tuple_id.key))

    return locations, read_row


@dataclass(kw_only=True)
class ChaosReport:
    """The oracle audit every chaos scenario runs, and its part of the gate."""

    #: prefixes every violation (empty for single-run reports).
    label: str = ""
    lost_updates: int = 0
    phantom_rows: int = 0
    unreachable_tuples: int = 0
    tuple_conservation: bool = True

    def audit(self, oracle, router: Router, residency) -> None:
        """Count the audit failures of ``residency`` against ``oracle``."""
        locations, read_row = residency
        for tuple_id, resident in locations.items():
            oracle_row = oracle.get_row(tuple_id)
            if oracle_row is None:
                self.phantom_rows += 1
                continue
            for partition in resident:
                if read_row(partition, tuple_id) != oracle_row:
                    self.lost_updates += 1
            if not any(partition in resident for partition in router.placement_of(tuple_id)):
                self.unreachable_tuples += 1
        self.tuple_conservation = set(locations) == set(oracle.all_tuple_ids())

    def checks(self) -> list[str]:
        """Scenario-specific failures, appended after the audit's."""
        return []

    @property
    def violations(self) -> list[str]:
        """Every acceptance criterion this run failed (empty = pass)."""
        failures = []
        if self.lost_updates:
            failures.append(f"{self.lost_updates} lost updates")
        if self.phantom_rows:
            failures.append(f"{self.phantom_rows} phantom rows")
        if self.unreachable_tuples:
            failures.append(f"{self.unreachable_tuples} unreachable tuples")
        if not self.tuple_conservation:
            failures.append("tuple set not conserved")
        failures.extend(self.checks())
        prefix = f"{self.label}: " if self.label else ""
        return [prefix + failure for failure in failures]

    def audit_payload(self) -> dict:
        return {
            "lost_updates": self.lost_updates,
            "phantom_rows": self.phantom_rows,
            "unreachable_tuples": self.unreachable_tuples,
            "tuple_conservation": self.tuple_conservation,
        }

    def rows(self) -> list[tuple[str, str]]:
        """``(heading, text)`` lines for :func:`format_report`."""
        return [(
            "audits",
            f"{self.lost_updates} lost updates, {self.phantom_rows} phantom rows, "
            f"{self.unreachable_tuples} unreachable tuples, "
            f"conserved={self.tuple_conservation}",
        )]


@dataclass(kw_only=True)
class StorageChaosReport(ChaosReport):
    """A SQLite deployment driven by the closed-loop driver through worker kills."""

    #: traffic accounting.
    total: int = 0
    committed: int = 0
    aborted: int = 0
    distributed_fraction: float = 0.0
    #: chaos accounting.
    kills_planned: int = 0
    kills_fired: int = 0
    restarts: int = 0
    #: runtime lock-order witness; no executed acquisition may break the
    #: global sorted order.
    lock_acquisitions: int = 0
    lock_order_out_of_order: int = 0
    #: wall-clock and interleaving-dependent values (volatile; kept out of
    #: every payload).
    write_fast_fails: int = 0
    read_fallbacks: int = 0
    in_doubt_completed: int = 0
    wall_s: float = 0.0
    throughput_txn_s: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0

    def record_traffic(self, traffic: DriverReport) -> None:
        """Copy the driver's counts and wall-clock figures into the report."""
        self.total = traffic.total
        self.committed = traffic.committed
        self.aborted = traffic.aborted
        self.distributed_fraction = traffic.distributed_fraction
        self.write_fast_fails = traffic.write_fast_fails
        self.read_fallbacks = traffic.read_fallbacks
        self.in_doubt_completed = traffic.in_doubt_completed
        self.wall_s = traffic.wall_s
        self.throughput_txn_s = traffic.throughput_txn_s
        self.latency_p50_ms = traffic.latency_quantile(0.50)
        self.latency_p99_ms = traffic.latency_quantile(0.99)

    def checks(self) -> list[str]:
        failures = []
        if self.kills_fired != self.kills_planned:
            failures.append(f"{self.kills_fired}/{self.kills_planned} worker kills fired")
        if self.restarts < self.kills_fired:
            failures.append(f"{self.kills_fired} kills but only {self.restarts} restarts")
        if self.committed == 0:
            failures.append("no transaction committed")
        if self.committed + self.aborted != self.total:
            failures.append("run did not complete every transaction")
        if self.lock_order_out_of_order:
            failures.append(
                f"{self.lock_order_out_of_order} out-of-order lock acquisition(s) witnessed"
            )
        return failures

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("traffic", f"{self.total} txns, {self.committed} committed, "
             f"{self.aborted} aborted, distributed {self.distributed_fraction:.1%}"),
            ("kills", f"{self.kills_fired}/{self.kills_planned} worker kills fired, "
             f"{self.restarts} restarts"),
            *super().rows(),
            ("locks", f"{self.lock_acquisitions} acquisitions, "
             f"{self.lock_order_out_of_order} out of order"),
            ("volatile", f"{self.wall_s:.2f}s, {self.throughput_txn_s:.1f} txn/s, "
             f"p50 {self.latency_p50_ms:.1f} ms, p99 {self.latency_p99_ms:.1f} ms, "
             f"fallbacks {self.read_fallbacks}, fast-fails {self.write_fast_fails}, "
             f"in-doubt {self.in_doubt_completed}"),
        ]


@contextmanager
def scratch_directory(directory: str | Path | None, prefix: str):
    """``directory`` as a path, or a fresh temporary one removed afterwards."""
    if directory is not None:
        yield Path(directory)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as name:
        yield Path(name)


@contextmanager
def sqlite_deployment(
    report: StorageChaosReport,
    directory: Path,
    inputs: ChaosInputs,
    strategy,
    router: Router,
    faults: FaultPlan,
    retry_options: RetryOptions,
    seed: int,
):
    """Run a SQLite cluster of ``inputs`` for the ``with`` body, then audit it.

    Yields ``(cluster, coordinator, injector)``.  The coordinator mirrors
    every commit into ``inputs.database`` (the oracle) and its lock manager
    is wrapped in a :class:`WitnessedLockManager`, which certifies that the
    interleaving the run executed never acquired tokens out of the global
    sorted order.  On a clean exit the cluster is closed and the kill,
    restart, witness and audit figures land in ``report``.
    """
    injector = faults.build()
    report.kills_planned = len(faults.worker_kills)
    cluster = SqliteStorageCluster.from_database(
        directory, inputs.database, strategy
    ).start()
    try:
        coordinator = StorageCoordinator(
            cluster, router, oracle=inputs.database, retry_options=retry_options, seed=seed
        )
        witness = WitnessedLockManager(coordinator.locks)
        coordinator.locks = witness
        yield cluster, coordinator, injector
    finally:
        cluster.close()
    report.kills_fired = injector.statistics.workers_killed
    report.restarts = cluster.restart_count()
    report.lock_acquisitions = witness.acquisitions
    report.lock_order_out_of_order = witness.out_of_order
    report.audit(inputs.database, router, sqlite_residency(cluster))


def format_report(report) -> str:
    """Render a chaos report: its title, its rows, then the gate verdict."""
    rows = report.rows()
    width = max(len(heading) for heading, _ in rows)
    lines = [report.title]
    lines.extend(f"  {heading:<{width}} : {text}" for heading, text in rows)
    violations = report.violations
    if violations:
        lines.append("  FAIL:")
        lines.extend(f"    {violation}" for violation in violations)
    else:
        lines.append("  PASS")
    return "\n".join(lines)
