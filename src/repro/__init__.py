"""Schism: workload-driven database replication and partitioning (VLDB 2010).

A pure-Python reproduction of Curino, Jones, Zhang and Madden's Schism
system: it takes a database, a representative OLTP workload, and a number of
partitions, and produces a replication/partitioning strategy that minimises
distributed transactions while keeping partitions balanced.

Typical use::

    from repro import Pipeline, SchismOptions
    from repro.workloads import generate_tpcc

    bundle = generate_tpcc()
    run = Pipeline(SchismOptions(num_partitions=2)).run(bundle.database, bundle.workload)
    plan = run.plan(workload=bundle.name)
    plan.save("plan.json")           # the durable artifact
    print(plan.describe())

or, from a shell::

    python -m repro run --workload tpcc --partitions 2 --out plan.json
"""

from repro.core.schism import SchismOptions, start_online
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    PartitioningStrategy,
    RangePredicatePartitioning,
)
from repro.core.cost import CostReport, evaluate_strategy
from repro.core.validation import validate_strategies
from repro.engine.database import Database
from repro.pipeline import (
    PartitionPlan,
    PhaseTimings,
    Pipeline,
    PipelineRun,
    PipelineState,
    PlanDiff,
)
from repro.workload.trace import Transaction, Workload
from repro.workload.rwsets import extract_access_trace
from repro.workload.splitter import split_workload

__version__ = "2.0.0"

__all__ = [
    "CompositePartitioning",
    "CostReport",
    "Database",
    "FullReplication",
    "HashPartitioning",
    "LookupTablePartitioning",
    "PartitionPlan",
    "PartitioningStrategy",
    "PhaseTimings",
    "Pipeline",
    "PipelineRun",
    "PipelineState",
    "PlanDiff",
    "RangePredicatePartitioning",
    "SchismOptions",
    "Transaction",
    "Workload",
    "__version__",
    "evaluate_strategy",
    "extract_access_trace",
    "split_workload",
    "start_online",
    "validate_strategies",
]
