"""Schism's core: partitioning strategies, the cost model, validation, and the pipeline."""

from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    PartitioningStrategy,
    RangePredicatePartitioning,
    RoundRobinPartitioning,
    TablePolicy,
    hash_on,
    range_on,
    replicate,
)
from repro.core.cost import CostReport, evaluate_strategy
from repro.core.validation import ValidationResult, validate_strategies
from repro.core.schism import SchismOptions, start_online

__all__ = [
    "CompositePartitioning",
    "CostReport",
    "FullReplication",
    "HashPartitioning",
    "LookupTablePartitioning",
    "PartitioningStrategy",
    "RangePredicatePartitioning",
    "RoundRobinPartitioning",
    "SchismOptions",
    "TablePolicy",
    "ValidationResult",
    "evaluate_strategy",
    "hash_on",
    "range_on",
    "replicate",
    "start_online",
    "validate_strategies",
]
