"""Deploying a partitioning decision as a live system (:func:`start_online`).

The offline pipeline lives in :mod:`repro.pipeline`: five named stages
(``extract -> build_graph -> partition -> explain -> validate``) producing a
serializable :class:`~repro.pipeline.plan.PartitionPlan`.  This module turns
such a plan into a running, self-adapting deployment.  ``SchismOptions`` and
``PhaseTimings`` live in :mod:`repro.pipeline.config` and are re-exported
here unchanged.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.pipeline.config import PhaseTimings, SchismOptions
from repro.pipeline.plan import PartitionPlan
from repro.workload.rwsets import AccessTrace

__all__ = [
    "PhaseTimings",
    "SchismOptions",
    "start_online",
]


def start_online(
    plan: PartitionPlan,
    database: Database,
    online_options: "OnlineOptions | None" = None,
    lookup_default_policy: str = "hash",
    warm_up_trace: AccessTrace | None = None,
):
    """Deploy a partitioning decision as a live, self-adapting system.

    Materialises the cluster from ``database`` under the fine-grained
    lookup-table placement of ``plan``, builds the router, and returns an
    :class:`~repro.online.controller.OnlineSchism` controller.  The
    controller closes the loop on live traffic (``observe`` /
    ``observe_batches``): it detects drift, re-partitions under a migration
    budget — widening read-hot tuples into **replica sets** when their
    decayed read/write ratio clears the ``OnlineOptions.replication_*``
    thresholds — and, when ``OnlineOptions.elastic`` is enabled, grows or
    shrinks ``num_partitions`` to follow the offered load.  Its live
    placement can be exported back as a plan at any time
    (:meth:`~repro.online.controller.OnlineSchism.export_plan`), closing
    the offline -> online -> artifact loop.

    Parameters
    ----------
    plan:
        The :class:`PartitionPlan` to deploy — fresh from a pipeline run or
        loaded from disk.
    database:
        The loaded database the cluster is materialised from.
    online_options:
        :class:`~repro.online.controller.OnlineOptions` for the loop
        (monitor/maintainer/repartition knobs, replication thresholds,
        elastic policy); defaults throughout when omitted.
    lookup_default_policy:
        Routing for tuples absent from the lookup table: ``"hash"``
        (default) or ``"replicate"``.  Note the *offline* pipeline defaults
        to ``"auto"``; online deployments default to ``"hash"`` because
        implicit full replication would make every later write to an
        untracked tuple a cluster-wide transaction.
    warm_up_trace:
        Optional trace to seed the monitor/maintainer with (the offline
        training trace, typically).  Without it the controller starts from
        an empty drift baseline — the common case for a plan loaded from a
        file, which deliberately does not embed the trace.

    The lookup strategy is always used for the online deployment — live
    migration updates per-tuple placements, which only the lookup table can
    express — regardless of which candidate won the offline validation.
    """
    # Imported here so the offline pipeline stays importable on its own.
    from repro.distributed.cluster import Cluster
    from repro.online.controller import OnlineOptions, OnlineSchism
    from repro.routing.lookup import build_lookup_table
    from repro.routing.router import Router

    online_options = online_options or OnlineOptions()
    strategy = plan.deployment_strategy(lookup_default_policy)
    cluster = Cluster.from_database(database, strategy)
    lookup_table = build_lookup_table(
        strategy.assignment, backend=online_options.lookup_backend
    )
    router = Router(strategy, database.schema, lookup_table)
    controller = OnlineSchism(cluster, router, online_options)
    controller.source_plan = plan
    if warm_up_trace is not None:
        controller.warm_up(warm_up_trace)
    else:
        controller.monitor.set_baseline()
    return controller
