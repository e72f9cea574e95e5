"""Tests for the staged pipeline: run/stop/inject/resume/re-run semantics."""

import pytest

from repro.engine.database import Database
from repro.pipeline import (
    Pipeline,
    PipelineError,
    SchismOptions,
    STAGE_NAMES,
)
from repro.sqlparse.ast import SelectStatement, in_list
from repro.utils.rng import SeededRng
from repro.workload.rwsets import extract_access_trace
from repro.workload.trace import Workload


def clustered_workload(
    num_rows_per_cluster: int = 50, num_clusters: int = 2, transactions: int = 200
) -> Workload:
    """Transactions touch pairs of accounts from the same hidden cluster."""
    rng = SeededRng(0)
    workload = Workload("clustered")
    for _ in range(transactions):
        cluster = rng.randint(0, num_clusters - 1)
        base = cluster * num_rows_per_cluster
        first = base + rng.randint(0, num_rows_per_cluster - 1)
        second = base + rng.randint(0, num_rows_per_cluster - 1)
        workload.add_statements(
            [SelectStatement(("account",), where=in_list("id", sorted({first, second})))]
        )
    return workload


@pytest.fixture
def clustered_database(bank_schema):
    database = Database(bank_schema)
    for account_id in range(100):
        database.insert_row(
            "account", {"id": account_id, "name": f"user{account_id}", "bal": 0}
        )
    return database


def test_stage_names_are_the_five_paper_phases():
    assert STAGE_NAMES == ("extract", "build_graph", "partition", "explain", "validate")


def test_full_run_produces_all_artifacts(clustered_database):
    run = Pipeline(SchismOptions(num_partitions=2)).run(
        clustered_database, clustered_workload()
    )
    assert run.complete
    state = run.state
    assert state.completed == list(STAGE_NAMES)
    assert state.training_trace is not None and state.test_trace is not None
    assert state.tuple_graph is not None and state.assignment is not None
    assert state.explanation is not None and state.validation is not None
    assert state.graph_cut is not None and state.graph_cut >= 0
    assert state.timings.total >= state.timings.extraction > 0.0
    assert run.recommendation in ("range-predicates", "lookup-table")
    text = run.describe()
    assert "selected" in text and "extract" in text


def test_stop_after_partition_leaves_later_stages_unrun(clustered_database):
    pipeline = Pipeline(SchismOptions(num_partitions=2))
    run = pipeline.run(clustered_database, clustered_workload(), stop_after="partition")
    assert not run.complete
    assert run.state.assignment is not None
    assert run.state.explanation is None
    assert run.state.validation is None
    assert run.state.completed == ["extract", "build_graph", "partition"]
    with pytest.raises(PipelineError):
        run.plan()
    # Resuming finishes only the remaining stages.
    resumed = pipeline.resume(run.state)
    assert resumed.complete
    assert resumed.state.completed == list(STAGE_NAMES)


def test_unknown_stop_stage_is_rejected(clustered_database):
    with pytest.raises(ValueError):
        Pipeline(SchismOptions(num_partitions=2)).run(
            clustered_database, clustered_workload(transactions=10), stop_after="bogus"
        )


def test_injected_trace_skips_extraction(clustered_database):
    workload = clustered_workload()
    trace = extract_access_trace(clustered_database, workload)
    pipeline = Pipeline(SchismOptions(num_partitions=2))
    run = pipeline.run(
        clustered_database, workload, training_trace=trace, test_trace=trace
    )
    assert run.complete
    # The extract stage was satisfied by the injected artifacts, not executed.
    assert "extract" not in run.state.completed
    assert run.state.training_trace is trace
    assert run.state.test_trace is trace
    # Injecting only the training trace still runs extract (the test trace
    # must be resolved), but reuses the injected artifact for training.
    partial = pipeline.run(clustered_database, workload, training_trace=trace)
    assert "extract" in partial.state.completed
    assert partial.state.training_trace is trace
    assert partial.state.test_trace is trace


def test_injected_tuple_graph_skips_graph_build(clustered_database):
    workload = clustered_workload()
    pipeline = Pipeline(SchismOptions(num_partitions=2))
    first = pipeline.run(clustered_database, workload, stop_after="build_graph")
    cached_graph = first.state.tuple_graph
    run = pipeline.run(clustered_database, workload, tuple_graph=cached_graph)
    assert run.complete
    assert "build_graph" not in run.state.completed
    assert run.state.tuple_graph is cached_graph


def test_rerun_single_stage_with_changed_options(clustered_database):
    workload = clustered_workload()
    run = Pipeline(SchismOptions(num_partitions=2)).run(clustered_database, workload)
    old_assignment = run.state.assignment
    # Re-partition the same cached graph at k=4: downstream artifacts are
    # invalidated, upstream artifacts are reused.
    retuned = Pipeline(SchismOptions(num_partitions=4))
    state = retuned.run_stage("partition", run.state)
    assert state.assignment is not None and state.assignment is not old_assignment
    assert state.assignment.num_partitions == 4
    assert state.explanation is None and state.validation is None
    assert state.tuple_graph is run.state.tuple_graph
    final = retuned.resume(state)
    assert final.complete
    assert final.plan().num_partitions == 4


def test_plan_refuses_stale_artifacts_from_other_options(clustered_database):
    """Resuming a finished k=2 state under k=8 options skips every stage; the
    plan build must reject the mismatch instead of stamping the wrong k."""
    run = Pipeline(SchismOptions(num_partitions=2)).run(
        clustered_database, clustered_workload()
    )
    stale = Pipeline(SchismOptions(num_partitions=8)).resume(run.state)
    with pytest.raises(PipelineError, match="re-run the partition stage"):
        stale.plan()


def test_missing_inputs_raise_pipeline_error(clustered_database):
    pipeline = Pipeline(SchismOptions(num_partitions=2))
    state = pipeline.new_state(clustered_database)
    # No workload and no injected trace: extraction cannot run.
    with pytest.raises(PipelineError):
        pipeline.resume(state)
    # Partition without a graph: required input missing.
    with pytest.raises(PipelineError):
        pipeline.run_stage("partition", pipeline.new_state(clustered_database))


def test_options_validation_rejects_bad_range_fallback():
    with pytest.raises(ValueError):
        SchismOptions(num_partitions=2, range_fallback="bogus")
    with pytest.raises(ValueError):
        SchismOptions(num_partitions=2, lookup_default_policy="bogus")
    with pytest.raises(ValueError):
        SchismOptions(num_partitions=0)
