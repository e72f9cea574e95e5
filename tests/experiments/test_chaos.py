"""Tests for the shared chaos harness and the two SQLite chaos scenarios."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.strategies import HashPartitioning
from repro.distributed import Cluster
from repro.experiments import run_storage_migration, run_storage_resilience
from repro.experiments.chaos import ChaosReport, memory_residency, sqlite_residency
from repro.routing import Router
from repro.storage import SqliteStorageCluster


class MemoryBackend:
    """Corrupts an in-memory :class:`Cluster` in place."""

    def __init__(self, database, strategy, tmp_path):
        self.cluster = Cluster.from_database(database, strategy)

    def set_balance(self, partition, tuple_id, balance):
        self.cluster.database(partition).storage(tuple_id.table).update(
            tuple_id.key, {"bal": balance}
        )

    def move(self, tuple_id, source, target):
        row = dict(self.cluster.database(source).get_row(tuple_id))
        self.cluster.database(source).storage(tuple_id.table).delete(tuple_id.key)
        self.cluster.database(target).insert_row(tuple_id.table, row)

    def residency(self):
        return memory_residency(self.cluster)


class SqliteBackend:
    """Corrupts the files of a closed :class:`SqliteStorageCluster`."""

    def __init__(self, database, strategy, tmp_path):
        self.cluster = SqliteStorageCluster.from_database(tmp_path, database, strategy)

    def _execute(self, partition, sql, parameters):
        connection = sqlite3.connect(self.cluster.paths[partition])
        try:
            with connection:
                return connection.execute(sql, parameters).fetchall()
        finally:
            connection.close()

    def set_balance(self, partition, tuple_id, balance):
        self._execute(
            partition, "UPDATE account SET bal = ? WHERE id = ?", (balance, *tuple_id.key)
        )

    def move(self, tuple_id, source, target):
        (row,) = self._execute(
            source, "SELECT id, name, bal FROM account WHERE id = ?", tuple_id.key
        )
        self._execute(source, "DELETE FROM account WHERE id = ?", tuple_id.key)
        self._execute(target, "INSERT INTO account (id, name, bal) VALUES (?, ?, ?)", row)

    def residency(self):
        return sqlite_residency(self.cluster)


@pytest.mark.parametrize("backend", [MemoryBackend, SqliteBackend], ids=["memory", "sqlite"])
def test_audit_counts_each_kind_of_damage(backend, bank_database, tmp_path):
    """An audit that counted nothing would pass every chaos run; this one can fail."""
    oracle = bank_database
    strategy = HashPartitioning(2)
    router = Router(strategy, oracle.schema)
    damaged = backend(oracle, strategy, tmp_path)
    homes = {
        tuple_id: next(iter(router.placement_of(tuple_id)))
        for tuple_id in oracle.all_tuple_ids()
    }
    stale, moved, phantom = sorted(homes, key=lambda tuple_id: tuple_id.key)[:3]

    damaged.set_balance(homes[stale], stale, -1)  # a lost update
    damaged.move(moved, homes[moved], 1 - homes[moved])  # off its placement
    oracle.storage("account").delete(phantom.key)  # the cluster still has it
    oracle.insert_row("account", {"id": 99, "name": "new", "bal": 0})  # never copied

    report = ChaosReport()
    report.audit(oracle, router, damaged.residency())
    assert report.lost_updates == 1
    assert report.phantom_rows == 1
    assert report.unreachable_tuples == 1
    assert report.tuple_conservation is False
    assert report.violations == [
        "1 lost updates",
        "1 phantom rows",
        "1 unreachable tuples",
        "tuple set not conserved",
    ]


@pytest.mark.storage
def test_storage_resilience_survives_worker_kills():
    report = run_storage_resilience(
        seed=0,
        warehouses=1,
        training_transactions=100,
        live_transactions=40,
        partition_counts=(2,),
    )
    assert report.violations == []
    assert [point.label for point in report.points] == ["schism-k2", "hash-k2"]
    assert all(point.kills_fired == 2 for point in report.points)


@pytest.mark.storage
def test_storage_migration_completes_the_resize_under_kills():
    report = run_storage_migration(
        seed=0, warehouses=1, training_transactions=100, live_transactions=48
    )
    assert report.violations == []
    assert report.final_state == "completed"
    assert report.copies_done == report.copies_planned > 0
    assert report.coordinator_deaths == report.migrator_reattaches == 1
