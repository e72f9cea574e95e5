"""The five paper phases as named, individually runnable pipeline stages.

Each :class:`Stage` declares which :class:`PipelineState` fields it needs
(``requires``) and which it fills in (``provides``).  The
:class:`~repro.pipeline.runner.Pipeline` runs stages in order, skipping any
whose outputs are already present — which is how callers inject precomputed
artifacts (a cached :class:`~repro.workload.rwsets.AccessTrace`, a prebuilt
tuple graph) or resume a partially run state.

Stage order (Section 2 of the paper)::

    extract -> build_graph -> partition -> explain -> validate
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.validation import ValidationResult, validate_strategies
from repro.core.strategies import (
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    PartitioningStrategy,
    RangePredicatePartitioning,
)
from repro.engine.database import Database
from repro.explain.explainer import Explainer, Explanation
from repro.graph.assignment import PartitionAssignment
from repro.graph.builder import TupleGraph, build_tuple_graph
from repro.graph.partitioner import GraphPartitioner, cut_weight
from repro.pipeline.config import PhaseTimings, SchismOptions
from repro.workload.rwsets import AccessTrace, extract_access_trace
from repro.workload.trace import Workload


class PipelineError(RuntimeError):
    """A stage was asked to run without its required inputs."""


@dataclass
class PipelineState:
    """Artifact store threaded through the stages.

    Everything a stage produces lands here; everything a stage consumes is
    read from here.  Fields left as ``None`` are artifacts not yet computed
    (or deliberately injected by the caller before running).
    """

    database: Database
    training_workload: Workload | None = None
    test_workload: Workload | None = None
    # -- artifacts, in stage order ---------------------------------------------------
    training_trace: AccessTrace | None = None
    test_trace: AccessTrace | None = None
    tuple_graph: TupleGraph | None = None
    assignment: PartitionAssignment | None = None
    graph_cut: float | None = None
    explanation: Explanation | None = None
    validation: ValidationResult | None = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: names of the stages that have actually executed (injected artifacts
    #: satisfy a stage without appearing here).
    completed: list[str] = field(default_factory=list)

    def artifacts_present(self) -> list[str]:
        """Names of the artifact fields currently filled in."""
        return [
            name
            for name in (
                "training_trace",
                "test_trace",
                "tuple_graph",
                "assignment",
                "graph_cut",
                "explanation",
                "validation",
            )
            if getattr(self, name) is not None
        ]


@dataclass(frozen=True)
class Stage:
    """One named pipeline phase with typed inputs and outputs."""

    name: str
    #: state fields that must be present before the stage can run.
    requires: tuple[str, ...]
    #: state fields the stage fills in.
    provides: tuple[str, ...]
    runner: Callable[[PipelineState, SchismOptions], None]

    def satisfied_by(self, state: PipelineState) -> bool:
        """Whether every output of this stage is already present."""
        return all(getattr(state, name) is not None for name in self.provides)

    def missing_inputs(self, state: PipelineState) -> list[str]:
        """Required state fields not yet present."""
        return [name for name in self.requires if getattr(state, name) is None]


# ---------------------------------------------------------------------------
# Stage runners
# ---------------------------------------------------------------------------
def _run_extract(state: PipelineState, options: SchismOptions) -> None:
    """Execute the workloads against the database, recording read/write sets."""
    if state.training_trace is None:
        if state.training_workload is None:
            raise PipelineError(
                "extract needs a training workload (or an injected training_trace)"
            )
        state.training_trace = extract_access_trace(
            state.database, state.training_workload
        )
    if state.test_trace is None:
        if state.test_workload is None:
            # The paper reuses the training trace for the smallest runs.
            state.test_trace = state.training_trace
        else:
            state.test_trace = extract_access_trace(
                state.database, state.test_workload
            )


def _run_build_graph(state: PipelineState, options: SchismOptions) -> None:
    """Build the tuple-access graph (sampling / coalescing / replication stars)."""
    assert state.training_trace is not None
    state.tuple_graph = build_tuple_graph(
        state.training_trace, state.database, options.graph
    )


def _run_partition(state: PipelineState, options: SchismOptions) -> None:
    """Run the multilevel min-cut partitioner and map nodes back to tuples."""
    assert state.tuple_graph is not None
    partitioner = GraphPartitioner(options.partitioner)
    # The CSR form is memoised on the TupleGraph, so a re-run of this
    # stage (e.g. with different partitioner options) reuses it.
    frozen_graph = state.tuple_graph.frozen()
    node_assignment = partitioner.partition(frozen_graph, options.num_partitions)
    state.assignment = state.tuple_graph.to_partition_assignment(
        node_assignment, options.num_partitions
    )
    state.graph_cut = cut_weight(frozen_graph, node_assignment)


def _run_explain(state: PipelineState, options: SchismOptions) -> None:
    """Train the decision tree over the WHERE attributes; extract rule sets."""
    assert state.assignment is not None
    if state.training_workload is None:
        raise PipelineError(
            "explain needs the training workload (attribute frequencies come "
            "from its statements, not from the extracted trace)"
        )
    explainer = Explainer(options.explainer)
    state.explanation = explainer.explain(
        state.assignment, state.database, state.training_workload
    )


def _run_validate(state: PipelineState, options: SchismOptions) -> None:
    """Compare the candidate strategies on the test trace and pick the winner."""
    assert state.assignment is not None
    assert state.explanation is not None
    assert state.training_trace is not None
    candidates = candidate_strategies(
        options, state.assignment, state.explanation, state.training_trace
    )
    state.validation = validate_strategies(
        candidates,
        state.test_trace,
        state.database,
        tie_tolerance=options.tie_tolerance,
        relative_tie_tolerance=options.relative_tie_tolerance,
        max_load_imbalance=options.max_load_imbalance,
    )


# ---------------------------------------------------------------------------
# Candidate construction
# ---------------------------------------------------------------------------
def candidate_strategies(
    options: SchismOptions,
    assignment: PartitionAssignment,
    explanation: Explanation,
    training_trace: AccessTrace,
) -> list[PartitioningStrategy]:
    """The strategies the final validation compares (Section 4.4)."""
    lookup_policy = options.lookup_default_policy
    if lookup_policy == "auto":
        lookup_policy = "replicate" if is_read_mostly(training_trace) else "hash"
    candidates: list[PartitioningStrategy] = [
        LookupTablePartitioning(options.num_partitions, assignment, lookup_policy),
        HashPartitioning(options.num_partitions),
        FullReplication(options.num_partitions),
    ]
    rule_sets = explanation.rule_sets()
    if rule_sets:
        candidates.insert(
            1,
            RangePredicatePartitioning(
                options.num_partitions, rule_sets, fallback=options.range_fallback
            ),
        )
    if options.hash_columns:
        candidates.append(
            HashPartitioning(options.num_partitions, options.hash_columns)
        )
    return candidates


def is_read_mostly(trace: AccessTrace, threshold: float = 0.1) -> bool:
    """True when fewer than ``threshold`` of tuple accesses are writes."""
    reads = 0
    writes = 0
    for access in trace:
        reads += len(access.read_set)
        writes += len(access.write_set)
    total = reads + writes
    if total == 0:
        return False
    return writes / total < threshold


#: the five stages, in execution order.
STAGES: tuple[Stage, ...] = (
    Stage(
        "extract",
        requires=(),
        provides=("training_trace", "test_trace"),
        runner=_run_extract,
    ),
    Stage(
        "build_graph",
        requires=("training_trace",),
        provides=("tuple_graph",),
        runner=_run_build_graph,
    ),
    Stage(
        "partition",
        requires=("tuple_graph",),
        provides=("assignment", "graph_cut"),
        runner=_run_partition,
    ),
    Stage(
        "explain",
        requires=("assignment",),
        provides=("explanation",),
        runner=_run_explain,
    ),
    Stage(
        "validate",
        requires=("assignment", "explanation", "training_trace", "test_trace"),
        provides=("validation",),
        runner=_run_validate,
    ),
)

STAGE_NAMES: tuple[str, ...] = tuple(stage.name for stage in STAGES)
STAGES_BY_NAME: dict[str, Stage] = {stage.name: stage for stage in STAGES}
