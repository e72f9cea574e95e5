"""The default option bundle.

:func:`default_options` keeps the CLI and experiments short: it returns
:class:`~repro.core.schism.SchismOptions` with one seed threaded through
every stage, without the caller having to know every knob.
"""

from __future__ import annotations

from repro.core.schism import SchismOptions
from repro.explain.explainer import ExplainerOptions
from repro.graph.builder import GraphBuildOptions
from repro.graph.partitioner import PartitionerOptions


def default_options(num_partitions: int, seed: int = 0) -> SchismOptions:
    """Sensible defaults for laptop-scale workloads (full trace, no sampling)."""
    return SchismOptions(
        num_partitions=num_partitions,
        graph=GraphBuildOptions(seed=seed),
        partitioner=PartitionerOptions(seed=seed),
        explainer=ExplainerOptions(seed=seed),
    )
