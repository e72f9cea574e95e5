"""Tests for the experiment harness (scaled down to run quickly)."""

from repro.experiments import (
    FIGURE4_EXPERIMENTS,
    format_figure1,
    format_figure4,
    format_figure5,
    format_figure6,
    format_table1,
    run_figure1,
    run_figure4_experiment,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.experiments.figure4 import Figure4Experiment


def test_figure1_shape():
    rows = run_figure1(max_servers=5)
    assert len(rows) == 5
    # Single server: no distribution possible.
    assert rows[0].throughput_ratio == 1.0
    # With several servers distributed throughput is roughly half.
    for row in rows[1:]:
        assert 0.4 < row.throughput_ratio < 0.6
        assert row.distributed_latency_ms > row.single_partition_latency_ms
    assert "Figure 1" in format_figure1(rows)


def test_figure4_single_experiment_tpcc():
    experiment = next(e for e in FIGURE4_EXPERIMENTS if e.key == "tpcc-2w")
    row, result = run_figure4_experiment(experiment, scale=0.4, seed=1)
    assert row.partitions == 2
    assert row.hashing > row.schism_selected
    assert row.schism_range is not None
    assert row.manual is not None
    assert "tpcc-2w" in format_figure4([row])
    assert result.recommendation == row.recommendation


def test_figure4_random_falls_back_to_hashing():
    experiment = next(e for e in FIGURE4_EXPERIMENTS if e.key == "random")
    row, _result = run_figure4_experiment(experiment, scale=0.3, seed=0)
    assert row.recommendation in experiment.expected_recommendation


def test_figure4_experiment_definitions_cover_paper():
    keys = {experiment.key for experiment in FIGURE4_EXPERIMENTS}
    assert keys == {
        "ycsb-a",
        "ycsb-e",
        "tpcc-2w",
        "tpcc-2w-sampled",
        "tpcc-50w",
        "tpce",
        "epinions-2p",
        "epinions-10p",
        "random",
    }
    assert all(isinstance(e, Figure4Experiment) for e in FIGURE4_EXPERIMENTS)


def test_figure5_runtime_grows_with_graph_size():
    rows = run_figure5(
        partition_counts=(2, 8),
        graph_specs=(("small", 500, 2000), ("large", 2000, 10000)),
    )
    assert len(rows) == 4
    small = [row.seconds for row in rows if row.graph_name == "small"]
    large = [row.seconds for row in rows if row.graph_name == "large"]
    assert sum(large) > sum(small)
    assert "Figure 5" in format_figure5(rows)


def test_table1_reports_graph_sizes():
    rows = run_table1(scale=0.2)
    assert {row.dataset for row in rows} == {"epinions", "tpcc-50w", "tpce"}
    for row in rows:
        assert row.graph_nodes > 0
        assert row.graph_edges > 0
        assert row.graph_tuples <= row.database_tuples
    assert "Table 1" in format_table1(rows)


def test_figure6_scaling_shapes():
    fixed = run_figure6(machine_counts=(1, 2, 8), num_transactions=120)
    per_machine = run_figure6(
        machine_counts=(1, 2, 8), warehouses_per_machine=16, num_transactions=120
    )
    assert fixed[0].speedup == 1.0
    # The fixed-total configuration saturates well below linear at 8 machines...
    assert fixed[-1].speedup < 6.0
    # ...while growing the database with the cluster scales nearly linearly.
    assert per_machine[-1].speedup > 6.0
    assert per_machine[-1].speedup > fixed[-1].speedup
    assert "Figure 6" in format_figure6(fixed, per_machine)


def test_online_drift_adaptation_beats_full_repartition_on_cost():
    from repro.experiments import format_online_drift, run_online_drift

    report = run_online_drift(
        num_partitions=2,
        num_rows=600,
        transactions_per_phase=300,
        uniform_fraction=0.2,
        seed=0,
    )
    assert report.drift_detected
    assert report.distributed_before > report.distributed_budgeted
    # The budgeted adaptation approaches the full re-partition's quality at a
    # fraction of its migration volume.
    assert report.distributed_budgeted <= report.distributed_full + 0.10
    assert report.tuples_moved_budgeted < report.tuples_moved_full
    assert "budgeted" in format_online_drift(report)


def test_resilience_survives_faults_with_zero_loss():
    from repro.experiments import format_report, run_resilience

    report = run_resilience(
        seed=0,
        warehouses=1,
        training_transactions=120,
        live_transactions=200,
        migration_start=30,
    )
    # The acceptance criteria of the chaos scenario, all at once.
    assert report.violations == []
    assert report.final_partitions == 4
    assert report.coordinator_deaths == 2
    assert report.resumes == 2
    assert report.lost_updates == 0
    assert report.unreachable_tuples == 0
    assert report.tuple_conservation
    assert report.pacer_pauses + report.pacer_throttles > 0
    assert report.deterministic
    text = format_report(report)
    assert "PASS" in text and "lost updates" in text
