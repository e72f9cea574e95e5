"""Experiment harness: one module per figure/table of the paper's evaluation.

Every experiment returns plain dataclasses/dicts and has a ``format_*``
helper that prints the same rows/series the paper reports, so the benchmark
suite and the examples can share them.  Scales default to laptop-friendly
sizes; pass ``scale`` or explicit configs to approach paper sizes.  The
three chaos experiments share one harness (:mod:`repro.experiments.chaos`)
and one formatter, :func:`format_report`.
"""

from repro.experiments.figure1 import Figure1Row, format_figure1, run_figure1
from repro.experiments.figure4 import (
    Figure4Row,
    format_figure4,
    run_figure4,
    run_figure4_experiment,
    FIGURE4_EXPERIMENTS,
)
from repro.experiments.figure5 import Figure5Row, format_figure5, run_figure5
from repro.experiments.figure6 import Figure6Row, format_figure6, run_figure6
from repro.experiments.online_drift import (
    ElasticScalingReport,
    OnlineDriftReport,
    ReadHotDriftReport,
    format_elastic_scaling,
    format_online_drift,
    format_read_hot_drift,
    run_elastic_scaling,
    run_online_drift,
    run_read_hot_drift,
)
from repro.experiments.chaos import format_report
from repro.experiments.resilience import ResilienceReport, run_resilience
from repro.experiments.storage_migration import (
    StorageMigrationReport,
    run_storage_migration,
)
from repro.experiments.storage_resilience import (
    StorageResilienceReport,
    run_storage_resilience,
)
from repro.experiments.table1 import Table1Row, format_table1, run_table1

#: the chaos experiments by ``repro bench --experiment`` name; each runner
#: takes ``seed`` and returns a report :func:`format_report` renders and
#: whose ``violations`` gate the run.
CHAOS_EXPERIMENTS = {
    "resilience": run_resilience,
    "storage-resilience": run_storage_resilience,
    "storage-migration": run_storage_migration,
}

__all__ = [
    "CHAOS_EXPERIMENTS",
    "FIGURE4_EXPERIMENTS",
    "ElasticScalingReport",
    "Figure1Row",
    "Figure4Row",
    "Figure5Row",
    "Figure6Row",
    "OnlineDriftReport",
    "ReadHotDriftReport",
    "ResilienceReport",
    "StorageMigrationReport",
    "StorageResilienceReport",
    "Table1Row",
    "format_elastic_scaling",
    "format_figure1",
    "format_figure4",
    "format_figure5",
    "format_figure6",
    "format_online_drift",
    "format_read_hot_drift",
    "format_report",
    "format_table1",
    "run_elastic_scaling",
    "run_figure1",
    "run_figure4",
    "run_figure4_experiment",
    "run_figure5",
    "run_figure6",
    "run_online_drift",
    "run_read_hot_drift",
    "run_resilience",
    "run_storage_migration",
    "run_storage_resilience",
    "run_table1",
]
