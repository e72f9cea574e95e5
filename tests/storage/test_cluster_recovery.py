"""End-to-end: supervised workers, routed transactions, crash recovery.

These tests spawn real worker processes (spawn start method) over real
SQLite files, SIGKILL one mid-run, and assert the retry/restart path keeps
every committed write — the tier-1 slice of what the storage-resilience
chaos experiment audits at scale.
"""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import HashPartitioning
from repro.distributed.cluster import Cluster
from repro.routing.router import Router
from repro.sqlparse.ast import SelectStatement, UpdateStatement, eq
from repro.storage import (
    ClosedLoopDriver,
    RetryOptions,
    SqliteMigrationBackend,
    SqliteStorageCluster,
    StorageCoordinator,
)
from repro.workload.trace import Transaction

ACCOUNT_IDS = (1, 2, 3, 4, 5)


def _debit(account_id: int, amount: int) -> UpdateStatement:
    return UpdateStatement(
        "account", {"bal": ("delta", -amount)}, where=eq("id", account_id)
    )


def _ids_on_distinct_partitions(strategy) -> tuple[int, int]:
    by_partition: dict[int, int] = {}
    for account_id in ACCOUNT_IDS:
        (partition,) = strategy.partitions_for_tuple(TupleId("account", (account_id,)))
        by_partition.setdefault(partition, account_id)
        if len(by_partition) == 2:
            break
    partitions = sorted(by_partition)
    assert len(partitions) == 2, "hash placement collapsed onto one partition"
    return by_partition[partitions[0]], by_partition[partitions[1]]


@pytest.fixture
def deployed(tmp_path, bank_database):
    # attribute hashing on the key column so single-key writes pin to one
    # partition (plain pk-hashing has no condition router and broadcasts).
    strategy = HashPartitioning(2, {"account": ("id",)})
    cluster = SqliteStorageCluster.from_database(tmp_path, bank_database, strategy)
    cluster.start()
    router = Router(strategy, bank_database.schema)
    coordinator = StorageCoordinator(
        cluster,
        router,
        oracle=bank_database,
        retry_options=RetryOptions(timeout_ms=500.0, max_retries=5),
        seed=0,
    )
    try:
        yield strategy, cluster, coordinator
    finally:
        cluster.close()


def _audit_against_oracle(cluster, oracle):
    """Every surviving SQLite row must equal the oracle's row, and vice versa."""
    seen: set[TupleId] = set()
    for partition in range(cluster.num_partitions):
        with cluster.open_store(partition) as store:
            for key, row in store.all_rows("account").items():
                tuple_id = TupleId("account", key)
                seen.add(tuple_id)
                assert row == oracle.get_row(tuple_id), f"lost update at {tuple_id}"
    assert seen == set(oracle.all_tuple_ids()), "tuple conservation violated"


def test_committed_writes_survive_a_worker_sigkill(deployed, bank_database):
    strategy, cluster, coordinator = deployed
    first, second = _ids_on_distinct_partitions(strategy)

    single = coordinator.execute_transaction(
        Transaction((_debit(first, 10),)), "txn-single"
    )
    assert single.status == "committed"
    assert single.scope == "single"

    distributed = coordinator.execute_transaction(
        Transaction((_debit(first, 5), _debit(second, 5))), "txn-distributed"
    )
    assert distributed.status == "committed"
    assert distributed.scope == "distributed"

    # SIGKILL the worker owning `first`; the next write must ride the
    # supervisor restart via the retry policy, not fail.
    (victim,) = strategy.partitions_for_tuple(TupleId("account", (first,)))
    cluster.kill_worker(victim)
    after_kill = coordinator.execute_transaction(
        Transaction((_debit(first, 7),)), "txn-after-kill"
    )
    assert after_kill.status == "committed"
    assert cluster.restart_count() >= 1

    reads = coordinator.execute_transaction(
        Transaction((SelectStatement(("account",), where=eq("id", first)),)),
        "txn-read",
    )
    assert reads.status == "committed"

    cluster.close()
    _audit_against_oracle(cluster, bank_database)


def test_closed_loop_driver_reports_every_transaction(deployed, bank_database):
    strategy, cluster, coordinator = deployed
    transactions = [
        Transaction((_debit(account_id, 1),), transaction_id=index)
        for index, account_id in enumerate(ACCOUNT_IDS * 4)
    ]
    kills: list[int] = []

    def chaos(commits: int) -> None:
        if commits == 4 and not kills:
            kills.append(commits)
            cluster.kill_worker(0)

    driver = ClosedLoopDriver(coordinator, num_clients=3, on_commit=chaos)
    report = driver.run(transactions, txn_id_prefix="drv")
    assert report.total == len(transactions)
    assert report.committed + report.aborted == report.total
    assert report.committed == report.total  # retries ride the restart
    assert kills == [4]
    assert cluster.restart_count() >= 1
    assert len(report.latencies_ms) == report.total
    payload = report.to_payload()
    assert payload["committed"] == report.committed
    assert "wall_s" not in payload  # wall-clock stays out of deterministic payloads

    cluster.close()
    _audit_against_oracle(cluster, bank_database)


def test_supervisor_restart_is_journaled(deployed):
    strategy, cluster, coordinator = deployed
    cluster.kill_worker(1)
    coordinator.execute_transaction(
        Transaction((_debit(_ids_on_distinct_partitions(strategy)[1], 1),)),
        "txn-probe",
    )
    events = cluster.supervisor.events
    kinds = {event["event"] for event in events}
    assert "start" in kinds
    assert "crash-detected" in kinds
    assert "restart" in kinds


@pytest.mark.storage
def test_cluster_refuses_to_shrink_away_rows(deployed):
    """Called directly, the cluster itself keeps a partition that holds rows."""
    _, cluster, _ = deployed
    doomed = cluster.paths[1]
    with pytest.raises(ValueError, match="partition 1 still stores"):
        cluster.shrink_to(1)
    assert cluster.num_partitions == 2
    assert doomed.exists()
    assert sum(cluster.handle(p).request("row_count") for p in range(2)) == 5
    # With the workers stopped, the count comes from the file itself.
    cluster.close()
    with pytest.raises(ValueError, match="partition 1 still stores"):
        cluster.shrink_to(1)
    assert doomed.exists()


def test_migration_backend_refuses_to_shrink_away_rows(deployed, bank_database):
    """A shrink removes only empty partitions, as on the in-memory cluster."""
    strategy, cluster, _ = deployed
    with pytest.raises(ValueError, match="still stores"):
        Cluster.from_database(bank_database, strategy).shrink_to(1)
    backend = SqliteMigrationBackend(cluster, migration_id="shrink")
    doomed = cluster.paths[1]
    with pytest.raises(ValueError, match="partition 1 still stores"):
        backend.shrink_to(1)
    # Refused before anything was removed: no file deleted, no row lost.
    assert cluster.num_partitions == 2
    assert doomed.exists()
    assert sum(cluster.handle(p).request("row_count") for p in range(2)) == 5
    # An empty partition goes.
    backend.grow_to(3)
    backend.shrink_to(2)
    assert cluster.num_partitions == 2
