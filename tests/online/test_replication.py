"""Replication-aware online placement: read-hot drift ends in replica sets.

Acceptance criteria: after a read-hot drift, the replication-aware budgeted
adaptation (a) replicates the read-hot tuples, (b) keeps charging writes on
every replica (replication never makes writes free), (c) cuts the
distributed fraction of the drifted traffic at least 5x within a bounded
migration budget, and (d) is byte-deterministic across processes and across
the numpy/list array backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog.tuples import TupleId
from repro.core.cost import transaction_partitions
from repro.core.schism import start_online
from repro.pipeline import Pipeline, SchismOptions
from repro.experiments.online_drift import run_read_hot_drift
from repro.online import MonitorOptions, OnlineOptions, RepartitionOptions
from repro.sqlparse.ast import SelectStatement, UpdateStatement, eq
from repro.workload.rwsets import extract_access_trace
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess
from repro.workloads import generate_read_hot_skew

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

SMALL = dict(
    num_partitions=2,
    num_rows=400,
    transactions_per_phase=300,
    num_hot=4,
    migration_budget=60.0,
    seed=0,
)


@pytest.fixture(scope="module")
def acceptance_report():
    """The experiment at its documented defaults (the acceptance scenario)."""
    return run_read_hot_drift()


@pytest.fixture(scope="module")
def adapted_controller():
    """A small read-hot scenario run through the controller, post-adaptation."""
    bundle = generate_read_hot_skew(
        num_rows=SMALL["num_rows"],
        transactions_per_phase=SMALL["transactions_per_phase"],
        num_hot=SMALL["num_hot"],
        seed=SMALL["seed"],
    )
    database = bundle.database
    offline = Pipeline(SchismOptions(num_partitions=SMALL["num_partitions"])).run(
        database, bundle.training
    )
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=200, min_window_fill=50),
        repartition=RepartitionOptions(
            migration_cost_weight=0.25,
            imbalance=0.10,
            max_passes=12,
            migration_budget=SMALL["migration_budget"],
        ),
        batch_size=50,
        replication_min_read_fraction=0.85,
    )
    controller = start_online(
        offline.plan(), database, options, warm_up_trace=offline.state.training_trace
    )
    controller.observe(extract_access_trace(database, bundle.phases[1]), auto_adapt=False)
    record = controller.adapt()
    return controller, bundle, record


def test_distributed_fraction_drops_at_least_5x(acceptance_report):
    assert acceptance_report.drift_detected
    assert acceptance_report.improvement >= 5.0


def test_migration_budget_respected(acceptance_report):
    assert acceptance_report.migration_cost <= acceptance_report.migration_budget


def test_hot_tuples_end_replicated(acceptance_report):
    assert acceptance_report.hot_replicated >= acceptance_report.num_hot - 1
    assert acceptance_report.replica_copies > 0


def test_small_scenario_replicates_hot_tuples(adapted_controller):
    controller, bundle, record = adapted_controller
    assignment = controller.strategy.assignment
    replicated = [
        key
        for key in bundle.metadata["hot_keys"]
        if assignment.is_replicated(TupleId("usertable", (key,)))
    ]
    assert len(replicated) == SMALL["num_hot"]
    assert record.replicated_count >= SMALL["num_hot"]


def test_replicas_physically_resident(adapted_controller):
    controller, bundle, _ = adapted_controller
    for key in bundle.metadata["hot_keys"]:
        tuple_id = TupleId("usertable", (key,))
        placement = controller.strategy.assignment.partitions_of(tuple_id)
        assert placement is not None and len(placement) > 1
        for partition in placement:
            assert controller.cluster.has_tuple(tuple_id, partition)
        # The router's lookup table answers the same replica set.
        assert controller.router.lookup_table.get(tuple_id) == placement


def test_monitor_observed_read_hotness(adapted_controller, acceptance_report):
    """The monitor's decayed read/write split identifies the hot tuples."""
    controller, bundle, _ = adapted_controller
    monitor = controller.monitor
    for key in bundle.metadata["hot_keys"]:
        tuple_id = TupleId("usertable", (key,))
        assert monitor.read_count(tuple_id) > monitor.write_count(tuple_id)
        assert monitor.read_fraction(tuple_id) >= 0.8
    # An unseen tuple must not look replication-worthy.
    assert monitor.read_fraction(TupleId("usertable", (10**9,))) == 0.0
    assert acceptance_report.monitor_hot_read_fraction >= 0.9


def test_writes_still_charged_on_every_replica(adapted_controller):
    """Replication makes reads local; writes must keep touching all replicas."""
    controller, bundle, _ = adapted_controller
    key = bundle.metadata["hot_keys"][0]
    tuple_id = TupleId("usertable", (key,))
    placement = controller.strategy.partitions_for_tuple(tuple_id)
    assert len(placement) > 1
    write = UpdateStatement("usertable", {"field0": 1}, where=eq("ycsb_key", key))
    read = SelectStatement(("usertable",), where=eq("ycsb_key", key))
    write_access = TransactionAccess(
        Transaction((write,)),
        (StatementAccess(write, frozenset(), frozenset({tuple_id})),),
    )
    read_access = TransactionAccess(
        Transaction((read,)),
        (StatementAccess(read, frozenset({tuple_id}), frozenset()),),
    )
    # A write involves every replica (consistency); a lone read exactly one.
    assert transaction_partitions(controller.strategy, write_access) == placement
    assert len(transaction_partitions(controller.strategy, read_access)) == 1


def test_retention_hysteresis_keeps_paid_for_replicas(adapted_controller):
    """A replicated tuple missing the entry bar is retained at the lower bar.

    Raising the entry threshold above every tuple's read fraction models the
    decay-noise dip: with retention slack the replicas survive the next
    adaptation; the slack is what separates "keep" from "drop/re-copy churn".
    """
    controller, bundle, _ = adapted_controller
    hot_ids = [TupleId("usertable", (key,)) for key in bundle.metadata["hot_keys"]]
    assignment = controller.strategy.assignment
    assert all(assignment.is_replicated(tuple_id) for tuple_id in hot_ids)
    # No hot tuple passes an impossible entry bar...
    controller.options.replication_min_read_fraction = 1.0
    # ...but generous retention slack keeps the already-replicated ones in.
    controller.options.replication_retention_slack = 0.2
    candidates = set(controller.replication_candidates())
    for tuple_id in hot_ids:
        assert controller.maintainer.node_of(tuple_id) in candidates
    controller.adapt()
    assignment = controller.strategy.assignment
    assert all(assignment.is_replicated(tuple_id) for tuple_id in hot_ids)
    # Without the slack, the filter collapses them (the churn the hysteresis
    # exists to prevent).
    controller.options.replication_retention_slack = 0.0
    controller.adapt()
    assignment = controller.strategy.assignment
    assert not any(assignment.is_replicated(tuple_id) for tuple_id in hot_ids)


_DETERMINISM_SCRIPT = """
from repro.core.schism import start_online
from repro.pipeline import Pipeline, SchismOptions
from repro.online import MonitorOptions, OnlineOptions, RepartitionOptions
from repro.workload.rwsets import extract_access_trace
from repro.workloads import generate_read_hot_skew

bundle = generate_read_hot_skew(num_rows=400, transactions_per_phase=300, num_hot=4, seed=0)
database = bundle.database
offline = Pipeline(SchismOptions(num_partitions=2)).run(database, bundle.training)
options = OnlineOptions(
    monitor=MonitorOptions(window_size=200, min_window_fill=50),
    repartition=RepartitionOptions(
        migration_cost_weight=0.25, imbalance=0.10, max_passes=12, migration_budget=60.0
    ),
    batch_size=50,
    replication_min_read_fraction=0.85,
)
controller = start_online(
    offline.plan(), database, options, warm_up_trace=offline.state.training_trace
)
controller.observe(extract_access_trace(database, bundle.phases[1]), auto_adapt=False)
controller.adapt()
placements = sorted(
    (tuple_id, tuple(sorted(placement)))
    for tuple_id, placement in controller.strategy.assignment.placements.items()
)
print(repr(placements))
"""


def _run_scenario_subprocess(backend: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["REPRO_ARRAY_BACKEND"] = backend
    env.pop("PYTHONHASHSEED", None)  # fresh salted hashing per process
    result = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_byte_deterministic_across_processes_and_backends():
    """Two fresh processes — one per array backend — produce identical placements."""
    try:
        import numpy  # noqa: F401

        backends = ("numpy", "list")
    except ImportError:
        backends = ("list", "list")
    first = _run_scenario_subprocess(backends[0])
    second = _run_scenario_subprocess(backends[1])
    assert first == second
    assert b"usertable" in first
