"""Elastic partition scaling: grow/shrink round-trips keep every tuple reachable.

Acceptance criteria: the elastic policy demonstrably grows and shrinks
``num_partitions`` under load drift, the migration keeps zero tuples
unreachable (copy-before-drop per replica, wholesale routing swap), and a
grow/shrink round-trip conserves the stored tuple set exactly.
"""

from __future__ import annotations

import pytest

from repro.core.schism import start_online
from repro.pipeline import Pipeline, SchismOptions
from repro.experiments.online_drift import run_elastic_scaling
from repro.online import ElasticOptions, MonitorOptions, OnlineOptions, RepartitionOptions
from repro.workload.rwsets import extract_access_trace
from repro.workloads import generate_rotating_hotspot


def _audit_reachability(controller) -> int:
    """Stored tuples the deployed routing cannot reach (must always be 0)."""
    unreachable = 0
    for tuple_id in controller.cluster.all_tuple_ids():
        placement = controller.strategy.partitions_for_tuple(tuple_id)
        if not any(controller.cluster.has_tuple(tuple_id, part) for part in placement):
            unreachable += 1
    return unreachable


@pytest.fixture(scope="module")
def controller():
    bundle = generate_rotating_hotspot(
        num_rows=400,
        transactions_per_phase=300,
        num_phases=2,
        hot_window=150,
        seed=0,
    )
    database = bundle.database
    offline = Pipeline(SchismOptions(num_partitions=2)).run(database, bundle.training)
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=200, min_window_fill=50),
        repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
        batch_size=50,
    )
    online = start_online(
        offline.plan(), database, options, warm_up_trace=offline.state.training_trace
    )
    online.observe(extract_access_trace(database, bundle.phases[1]), auto_adapt=False)
    return online


def test_grow_shrink_round_trip(controller):
    before_tuples = set(controller.cluster.all_tuple_ids())
    assert _audit_reachability(controller) == 0

    grow = controller.resize(4)
    assert grow.grew
    assert controller.num_partitions == 4
    assert controller.cluster.num_partitions == 4
    assert controller.router.num_partitions == 4
    assert _audit_reachability(controller) == 0
    # Growth spreads data onto the new partitions.
    assert grow.migration.copies > 0
    assert any(controller.cluster.row_counts()[part] > 0 for part in (2, 3))

    shrink = controller.resize(2)
    assert not shrink.grew
    assert controller.num_partitions == 2
    assert controller.cluster.num_partitions == 2
    assert len(controller.cluster.partition_databases) == 2
    assert _audit_reachability(controller) == 0
    # The round trip conserves the stored tuple set exactly.
    assert set(controller.cluster.all_tuple_ids()) == before_tuples


def test_resize_plans_copy_before_drop(controller):
    for record in controller.resizes:
        steps = record.plan.steps
        first_drop = next(
            (index for index, step in enumerate(steps) if step.action == "drop"), None
        )
        if first_drop is not None:
            assert all(step.action == "copy" for step in steps[:first_drop])
            assert all(step.action == "drop" for step in steps[first_drop:])
        # Per-replica accounting matches the executed work.
        assert record.plan.replicas_added == len(record.plan.copies)
        assert record.plan.replicas_dropped == len(record.plan.drops)


def test_resize_pins_implicitly_routed_tuples(controller):
    """After a resize, every stored tuple has an explicit lookup entry."""
    assignment = controller.strategy.assignment
    for tuple_id in controller.cluster.all_tuple_ids():
        assert tuple_id in assignment
    # The lookup table agrees entry by entry (exact backends enumerate via
    # entries()), and no entry points past the shrunken cluster.
    entries = dict(controller.router.lookup_table.entries())
    assert set(entries) == set(assignment.placements)
    for tuple_id, placement in entries.items():
        assert placement == assignment.partitions_of(tuple_id)
        assert all(part < controller.num_partitions for part in placement)


def test_monitor_follows_resize(controller):
    stats = controller.monitor.window_stats()
    assert controller.monitor.strategy is controller.router.strategy
    assert stats.transactions > 0


def test_resize_to_same_count_rejected(controller):
    with pytest.raises(ValueError):
        controller.resize(controller.num_partitions)


def test_stale_smaller_plan_rejected_without_shrink_flag(controller):
    """Only the shrink path may execute a plan for fewer partitions."""
    from repro.online.migration import LiveMigrator, MigrationPlan

    stale = MigrationPlan(controller.num_partitions - 1)
    migrator = LiveMigrator(controller.cluster)
    with pytest.raises(ValueError):
        migrator.execute_copies(stale)
    # The shrink path says so explicitly and is accepted.
    migrator.execute_copies(stale, allow_fewer_partitions=True)


def test_observe_never_resizes_on_its_constant_rate():
    """observe() re-chunks to a fixed batch size, so its rate signal is a
    constant ~batch_size; elastic proposals must be suppressed there or a
    healthy cluster would be resized to fit a config value."""
    bundle = generate_rotating_hotspot(
        num_rows=300,
        transactions_per_phase=200,
        num_phases=2,
        hot_window=150,
        seed=0,
    )
    database = bundle.database
    offline = Pipeline(SchismOptions(num_partitions=4)).run(database, bundle.training)
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=200, min_window_fill=50),
        # With batch_size=50 the constant rate is ~50: ideal = 1 partition,
        # far below 4 * shrink_hysteresis — a live policy would shrink.
        elastic=ElasticOptions(enabled=True, target_rate_per_partition=50.0),
        batch_size=50,
    )
    online = start_online(
        offline.plan(), database, options, warm_up_trace=offline.state.training_trace
    )
    result = online.observe(extract_access_trace(database, bundle.phases[1]))
    assert result.resizes == []
    assert online.num_partitions == 4
    # The same feed through observe_batches (a real load signal) may resize.
    assert options.elastic.propose(50.0, 4) is not None


def test_elastic_policy_proposal_band():
    options = ElasticOptions(
        enabled=True,
        target_rate_per_partition=50.0,
        grow_hysteresis=1.3,
        shrink_hysteresis=0.6,
        min_partitions=2,
        max_partitions=8,
    )
    # Inside the dead band: no proposal.
    assert options.propose(rate=110.0, num_partitions=2) is None
    # Above the grow hysteresis: ceil(rate / target), clamped.
    assert options.propose(rate=300.0, num_partitions=2) == 6
    assert options.propose(rate=10_000.0, num_partitions=2) == 8
    # Below the shrink hysteresis: clamped at min_partitions.
    assert options.propose(rate=40.0, num_partitions=4) == 2
    assert options.propose(rate=10.0, num_partitions=2) is None  # already at min
    # Disabled policy never proposes.
    assert ElasticOptions(enabled=False).propose(rate=1e9, num_partitions=2) is None


def test_load_drift_grows_then_shrinks():
    """The end-to-end experiment: offered load rises then collapses."""
    report = run_elastic_scaling(
        num_rows=400,
        transactions_per_phase=600,
        high_batch=300,
        low_batch=30,
        target_rate_per_partition=50.0,
        seed=0,
    )
    assert report.grew
    assert report.shrank
    assert report.unreachable_tuples == 0
    assert report.partition_trajectory[0] > report.initial_partitions


# -- journaled sessions: crash/resume and cancel at the controller level -------------
def _fresh_controller(k=2):
    bundle = generate_rotating_hotspot(
        num_rows=300,
        transactions_per_phase=200,
        num_phases=1,
        hot_window=150,
        seed=3,
    )
    offline = Pipeline(SchismOptions(num_partitions=k)).run(bundle.database, bundle.training)
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=200, min_window_fill=50),
        repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
        batch_size=50,
    )
    return start_online(
        offline.plan(), bundle.database, options, warm_up_trace=offline.state.training_trace
    )


def test_begin_resize_session_survives_coordinator_death():
    from repro.distributed.faults import CoordinatorDeath, CoordinatorKill, FaultPlan
    from repro.online.migration import MemoryJournalSink

    controller = _fresh_controller()
    before_tuples = set(controller.cluster.all_tuple_ids())
    sink = MemoryJournalSink()
    injector = FaultPlan(
        seed=1, coordinator_kills=(CoordinatorKill(at_record=2),)
    ).build()
    session = controller.begin_resize(4, sink=sink, injector=injector, batch_size=16)
    with pytest.raises(CoordinatorDeath):
        session.run_to_completion()
    assert controller.resizes == []  # nothing recorded for the dead attempt

    resumed = controller.attach_session(sink.load(), sink=sink)
    record = resumed.run_to_completion()
    assert record is not None
    assert record.repartition is None  # planning context died with the crash
    assert controller.num_partitions == 4
    assert controller.monitor.strategy is controller.router.strategy
    assert _audit_reachability(controller) == 0
    assert set(controller.cluster.all_tuple_ids()) == before_tuples
    assert controller.resizes == [record]


def test_begin_resize_session_cancel_rolls_back():
    controller = _fresh_controller()
    before_tuples = set(controller.cluster.all_tuple_ids())
    session = controller.begin_resize(4, batch_size=16)
    # A few batches in (cluster already grown), change of plans: cancel.
    for _ in range(3):
        session.tick()
    assert controller.cluster.num_partitions == 4
    session.cancel()
    record = session.run_to_completion()
    assert record is None  # cancelled resizes record nothing
    assert session.journal.state == "cancelled"
    assert controller.num_partitions == 2
    assert controller.cluster.num_partitions == 2
    assert _audit_reachability(controller) == 0
    assert set(controller.cluster.all_tuple_ids()) == before_tuples
    assert controller.resizes == []
