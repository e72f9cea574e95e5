"""``python -m repro`` — drive the pipeline end-to-end from workload names.

Four subcommands around the :class:`~repro.pipeline.plan.PartitionPlan`
artifact:

* ``run``    — generate a named workload, run the staged pipeline, write the
  plan file (``--out``) and print its summary;
* ``deploy`` — load a plan file, materialise the cluster, start the online
  controller, stream the workload through it, report routing statistics, and
  optionally re-export the (possibly adapted) live placement as a new plan;
* ``diff``   — compare two plan files (moved/replicated tuples, strategy and
  partition-count changes);
* ``bench``  — run one of the paper's experiments and print its table.

Two observability surfaces ride alongside them: ``status`` renders the state
of a journaled migration (and ``journal inspect`` replays its journal into a
timeline), and ``run``/``deploy``/``bench`` accept ``--metrics-out`` to dump
a canonical-JSON metrics snapshot of everything the invocation did.

Examples::

    python -m repro run --workload simplecount --partitions 4 --out plan.json
    python -m repro diff plan.json plan.json
    python -m repro deploy plan.json --workload simplecount --export live.json
    python -m repro bench --experiment figure1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.core.config import default_options
from repro.core.schism import start_online
from repro.experiments.figure4 import FIGURE4_EXPERIMENTS
from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.pipeline import PartitionPlan, Pipeline
from repro.utils.rng import SeededRng
from repro.workload.rwsets import extract_access_trace
from repro.workload.splitter import split_workload
from repro.workloads import WorkloadBundle, generate_simplecount


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def _simplecount(scale: float, seed: int) -> WorkloadBundle:
    blocks = 5
    return generate_simplecount(
        num_rows=blocks * _scaled(300, scale),
        num_transactions=_scaled(2000, scale),
        num_blocks=blocks,
        seed=seed,
    )


#: the Figure-4 bundle factories, keyed by experiment name — one source of
#: truth for workload sizes shared by `repro run` and `repro bench`.
_FIGURE4_FACTORIES = {
    experiment.key: experiment.bundle_factory for experiment in FIGURE4_EXPERIMENTS
}

#: workload name -> factory(scale, seed).
WORKLOADS: dict[str, Callable[[float, int], WorkloadBundle]] = {
    "simplecount": _simplecount,
    "ycsb-a": _FIGURE4_FACTORIES["ycsb-a"],
    "ycsb-e": _FIGURE4_FACTORIES["ycsb-e"],
    "tpcc": _FIGURE4_FACTORIES["tpcc-2w"],
    "tpce": _FIGURE4_FACTORIES["tpce"],
    "epinions": _FIGURE4_FACTORIES["epinions-2p"],
    "random": _FIGURE4_FACTORIES["random"],
}


def _build_bundle(name: str, scale: float, seed: int) -> WorkloadBundle:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(sorted(WORKLOADS))}"
        )
    return factory(scale, seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    bundle = _build_bundle(args.workload, args.scale, args.seed)
    print(
        f"generated {bundle.name}: {bundle.database.row_count()} tuples, "
        f"{len(bundle.workload)} transactions"
    )
    train, test = split_workload(
        bundle.workload, args.train_fraction, rng=SeededRng(args.seed)
    )
    options = default_options(args.partitions, seed=args.seed)
    if bundle.hash_columns:
        options.hash_columns = bundle.hash_columns
    run = Pipeline(options).run(bundle.database, train, test)
    plan = run.plan(created_by="repro-cli", workload=bundle.name)
    print()
    print(plan.describe())
    if args.out:
        path = plan.save(args.out)
        print(f"\nwrote {path} ({len(plan)} placements, "
              f"fingerprint {plan.content_fingerprint()[:12]})")
    return 0


def _deploy_sqlite(args: argparse.Namespace, plan: PartitionPlan, bundle: WorkloadBundle) -> int:
    """Deploy a plan onto the real SQLite-backed cluster and drive the workload."""
    import tempfile
    import threading

    from repro.routing.lookup import build_lookup_table
    from repro.routing.router import Router
    from repro.storage import (
        ClosedLoopDriver,
        RetryOptions,
        SqliteStorageCluster,
        StorageCoordinator,
    )

    if args.adapt or args.export:
        raise SystemExit("--adapt/--export apply to the in-memory backend only")
    if args.resize is not None and args.resize <= 0:
        raise SystemExit("--resize must be a positive partition count")
    try:
        retry_options = RetryOptions(
            timeout_ms=args.timeout_ms,
            max_retries=args.max_retries,
            backoff_base_ms=args.backoff_base_ms,
        )
    except ValueError as error:
        raise SystemExit(f"invalid retry options: {error}")
    strategy = plan.deployment_strategy("hash")
    lookup_table = build_lookup_table(strategy.assignment)
    router = Router(strategy, bundle.database.schema, lookup_table)
    cleanup = None
    directory = args.storage_dir
    if directory is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-deploy-")
        directory = cleanup.name
    try:
        cluster = SqliteStorageCluster.from_database(
            directory, bundle.database, strategy
        ).start()
        try:
            row_counts = [
                cluster.handle(partition).request("row_count")
                for partition in range(cluster.num_partitions)
            ]
            print(
                f"\nmaterialised {cluster.num_partitions} SQLite partitions "
                f"under {directory}: row counts {row_counts}"
            )
            print(
                f"retry policy: timeout {retry_options.timeout_ms:.0f} ms, "
                f"{retry_options.max_retries} retries, backoff base "
                f"{retry_options.backoff_base_ms:.0f} ms"
            )
            coordinator = StorageCoordinator(
                cluster, router, retry_options=retry_options, seed=args.seed
            )
            session = None
            on_commit = None
            on_outcome = None
            if args.resize is not None:
                from repro.online.controller import MigrationPacer, PacingOptions
                from repro.online.migration import FileJournalSink
                from repro.storage import (
                    StorageMigrationSession,
                    StorageMigrator,
                    plan_storage_resize,
                )

                journal = plan_storage_resize(
                    cluster,
                    args.resize,
                    migration_id=f"cli-resize-{args.resize}-seed{args.seed}",
                    retry_options=retry_options,
                    seed=args.seed,
                )
                journal_path = Path(directory) / "resize.journal"
                sink = FileJournalSink(journal_path)
                sink.write(journal.dumps())
                pacer = MigrationPacer(PacingOptions(max_steps=16), volatile=True)
                migrator = StorageMigrator(
                    cluster,
                    router,
                    journal,
                    sink=sink,
                    batch_size=16,
                    locks=coordinator.locks,
                    retry_options=retry_options,
                    seed=args.seed,
                )
                session = StorageMigrationSession(migrator, pacer=pacer)
                tick_lock = threading.Lock()

                def on_commit(_commits: int) -> None:
                    with tick_lock:
                        if not session.done:
                            session.tick()

                on_outcome = pacer.record
                print(
                    f"live resize {journal.old_num_partitions} -> {args.resize} "
                    f"partitions: {len(journal.plan.copies)} copies, "
                    f"{len(journal.plan.drops)} drops, journal {journal_path}"
                )
            driver = ClosedLoopDriver(
                coordinator,
                num_clients=args.clients,
                on_commit=on_commit,
                on_outcome=on_outcome,
            )
            report = driver.run(bundle.workload.transactions)
            if session is not None:
                session.run_to_completion()
        finally:
            cluster.close()
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    print(
        f"streamed {report.total} transactions with {args.clients} clients: "
        f"{report.committed} committed, {report.aborted} aborted, "
        f"{report.distributed_fraction:.1%} distributed"
    )
    print(
        f"throughput {report.throughput_txn_s:.1f} txn/s (wall-clock), "
        f"p99 latency {report.latency_quantile(0.99):.1f} ms, "
        f"read fallbacks {report.read_fallbacks}, "
        f"in-doubt completed {report.in_doubt_completed}"
    )
    if session is not None:
        journal = session.journal
        print(
            f"resize {journal.old_num_partitions} -> {journal.new_num_partitions} "
            f"partitions {journal.state}: "
            f"copies {journal.copies_done}/{len(journal.plan.copies)}, "
            f"drops {journal.drops_done}/{len(journal.plan.drops)}, "
            f"{journal.records} journal records, "
            f"{session.ticks} ticks"
        )
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    plan = PartitionPlan.load(args.plan)
    print(f"loaded {args.plan}:")
    print(plan.describe())
    bundle = _build_bundle(args.workload, args.scale, args.seed)
    if args.storage == "sqlite":
        return _deploy_sqlite(args, plan, bundle)
    controller = start_online(plan, bundle.database)
    cluster = controller.cluster
    print(
        f"\nmaterialised {cluster.num_partitions} partitions: "
        f"row counts {cluster.row_counts()} (imbalance {cluster.imbalance():.2f})"
    )
    trace = extract_access_trace(bundle.database, bundle.workload)
    observation = controller.observe(trace, auto_adapt=args.adapt)
    stats = controller.monitor.window_stats()
    print(
        f"streamed {observation.transactions} transactions in "
        f"{observation.batches} batches: {stats.distributed_fraction:.1%} distributed, "
        f"load skew {stats.load_skew:.2f}"
    )
    drifted = sum(1 for report in observation.drift_reports if report.drifted)
    print(
        f"drift reports: {len(observation.drift_reports)} ({drifted} drifted), "
        f"adaptations: {len(observation.adaptations)}"
    )
    for record in observation.adaptations:
        print(f"  {record.describe()}")
    if args.export:
        exported = controller.export_plan(created_by="repro-cli deploy")
        exported.save(args.export)
        delta = plan.diff(exported)
        print(f"exported live placement to {args.export}")
        if delta.identical:
            print("live placement matches the deployed plan")
        else:
            print("live placement differs from the deployed plan:")
            for line in delta.describe().splitlines():
                print(f"  {line}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    old = PartitionPlan.load(args.old)
    new = PartitionPlan.load(args.new)
    diff = old.diff(new)
    print(diff.describe())
    if args.fail_on_change and not diff.identical:
        return 1
    return 0


def _bench_figure1(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure1, run_figure1

    return format_figure1(run_figure1())


def _bench_figure4(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure4, run_figure4

    return format_figure4(run_figure4(scale=args.scale, seed=args.seed))


def _bench_figure5(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure5, run_figure5

    return format_figure5(run_figure5(seed=args.seed))


def _bench_figure6(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure6, run_figure6

    fixed = run_figure6(seed=args.seed)
    per_machine = run_figure6(warehouses_per_machine=16, seed=args.seed)
    return format_figure6(fixed, per_machine)


def _bench_table1(args: argparse.Namespace) -> str:
    from repro.experiments import format_table1, run_table1

    return format_table1(run_table1(scale=args.scale, seed=args.seed))


def _bench_online_drift(args: argparse.Namespace) -> str:
    from repro.experiments import format_online_drift, run_online_drift

    return format_online_drift(run_online_drift(seed=args.seed))


def _bench_read_hot(args: argparse.Namespace) -> str:
    from repro.experiments.online_drift import format_read_hot_drift, run_read_hot_drift

    return format_read_hot_drift(run_read_hot_drift(seed=args.seed))


def _bench_elastic(args: argparse.Namespace) -> str:
    from repro.experiments.online_drift import format_elastic_scaling, run_elastic_scaling

    return format_elastic_scaling(run_elastic_scaling(seed=args.seed))


def _bench_chaos(args: argparse.Namespace) -> str:
    from repro.experiments import CHAOS_EXPERIMENTS, format_report

    report = CHAOS_EXPERIMENTS[args.experiment](seed=args.seed)
    text = format_report(report)
    if report.violations:
        # Chaos runs are a hard gate: a lost update, an unreachable tuple, an
        # unresumed crash or an unfired kill fails the invocation, not just
        # the printout.
        raise SystemExit(text)
    return text


BENCH_EXPERIMENTS: dict[str, Callable[[argparse.Namespace], str]] = {
    "figure1": _bench_figure1,
    "figure4": _bench_figure4,
    "figure5": _bench_figure5,
    "figure6": _bench_figure6,
    "table1": _bench_table1,
    "online-drift": _bench_online_drift,
    "read-hot-drift": _bench_read_hot,
    "elastic": _bench_elastic,
    "resilience": _bench_chaos,
    "storage-resilience": _bench_chaos,
    "storage-migration": _bench_chaos,
}


def cmd_bench(args: argparse.Namespace) -> int:
    print(BENCH_EXPERIMENTS[args.experiment](args))
    return 0


def _load_journal(path_text: str):
    """Load a migration journal from ``path_text``.

    Accepts either the journal file itself or a plan file, in which case the
    journal is looked up at its conventional sibling path (``<plan>.journal``).
    Anything that is not a parseable journal — a plan without a sibling
    journal, a non-JSON file — exits with a friendly message naming the path
    that was probed, never a traceback.
    """
    import json

    from repro.online.migration import (
        JournalFormatError,
        MigrationJournal,
        default_journal_path,
    )

    path = Path(path_text)
    if not path.exists():
        raise SystemExit(f"no such file: {path}")
    try:
        return MigrationJournal.loads(path.read_text(encoding="utf-8"))
    except (JournalFormatError, json.JSONDecodeError, UnicodeDecodeError):
        journal_path = default_journal_path(path)
        if journal_path.exists():
            try:
                return MigrationJournal.loads(journal_path.read_text(encoding="utf-8"))
            except (JournalFormatError, json.JSONDecodeError, UnicodeDecodeError) as error:
                raise SystemExit(
                    f"no journal found: {journal_path} exists but is not a "
                    f"readable migration journal ({error})"
                )
        raise SystemExit(
            f"no journal found: {path} is not a migration journal and nothing "
            f"exists at the probed sibling path {journal_path}"
        )


def cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.status import render_status

    print(render_status(_load_journal(args.path)))
    return 0


def cmd_journal_inspect(args: argparse.Namespace) -> int:
    from repro.obs.status import inspect_journal

    print(inspect_journal(_load_journal(args.path)))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Schism partitioning pipeline: run, deploy, diff, bench.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run the pipeline on a named workload and write a plan file"
    )
    run_parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS), help="workload name"
    )
    run_parser.add_argument("--partitions", type=int, required=True)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size multiplier"
    )
    run_parser.add_argument("--train-fraction", type=float, default=0.7)
    run_parser.add_argument("--out", default=None, help="where to write the plan JSON")
    run_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write a canonical-JSON metrics snapshot of the run here",
    )
    run_parser.set_defaults(handler=cmd_run)

    deploy_parser = subparsers.add_parser(
        "deploy", help="deploy a plan file and stream a workload through it"
    )
    deploy_parser.add_argument("plan", help="plan JSON written by `repro run`")
    deploy_parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS), help="workload name"
    )
    deploy_parser.add_argument("--seed", type=int, default=0)
    deploy_parser.add_argument("--scale", type=float, default=1.0)
    deploy_parser.add_argument(
        "--adapt", action="store_true", help="let the controller adapt on drift"
    )
    deploy_parser.add_argument(
        "--export", default=None, help="re-export the live placement as a plan file"
    )
    deploy_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write a canonical-JSON metrics snapshot of the deployment here",
    )
    deploy_parser.add_argument(
        "--storage",
        choices=("memory", "sqlite"),
        default="memory",
        help="cluster backend: in-memory simulation or real SQLite worker processes",
    )
    deploy_parser.add_argument(
        "--storage-dir",
        default=None,
        help="directory for the SQLite partition files (default: a temp dir)",
    )
    deploy_parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="closed-loop client threads for --storage sqlite",
    )
    deploy_parser.add_argument(
        "--timeout-ms",
        type=float,
        default=1000.0,
        help="per-attempt worker request deadline (sqlite backend)",
    )
    deploy_parser.add_argument(
        "--max-retries",
        type=int,
        default=4,
        help="retry budget per routed operation (sqlite backend)",
    )
    deploy_parser.add_argument(
        "--backoff-base-ms",
        type=float,
        default=25.0,
        help="base backoff before the first retry (sqlite backend)",
    )
    deploy_parser.add_argument(
        "--resize",
        type=int,
        default=None,
        metavar="K",
        help="live-resize the sqlite cluster to K partitions while the "
        "workload runs (journaled dual-write migration)",
    )
    deploy_parser.set_defaults(handler=cmd_deploy)

    diff_parser = subparsers.add_parser("diff", help="compare two plan files")
    diff_parser.add_argument("old")
    diff_parser.add_argument("new")
    diff_parser.add_argument(
        "--fail-on-change",
        action="store_true",
        help="exit 1 when the plans differ (for CI gates)",
    )
    diff_parser.set_defaults(handler=cmd_diff)

    bench_parser = subparsers.add_parser(
        "bench", help="run one of the paper's experiments and print its table"
    )
    bench_parser.add_argument(
        "--experiment", required=True, choices=sorted(BENCH_EXPERIMENTS)
    )
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--scale", type=float, default=1.0)
    bench_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write a canonical-JSON metrics snapshot of the experiment here",
    )
    bench_parser.set_defaults(handler=cmd_bench)

    status_parser = subparsers.add_parser(
        "status", help="render the state of a journaled migration"
    )
    status_parser.add_argument(
        "path", help="migration journal (or plan file with a sibling journal)"
    )
    status_parser.set_defaults(handler=cmd_status)

    journal_parser = subparsers.add_parser(
        "journal", help="inspect migration journal files"
    )
    journal_subparsers = journal_parser.add_subparsers(
        dest="journal_command", required=True
    )
    inspect_parser = journal_subparsers.add_parser(
        "inspect", help="replay a journal into a human-readable timeline"
    )
    inspect_parser.add_argument(
        "path", help="migration journal (or plan file with a sibling journal)"
    )
    inspect_parser.set_defaults(handler=cmd_journal_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--metrics-out`` is given, an enabled telemetry registry is
    installed *before* the handler constructs any instrumented objects (they
    resolve their metric handles at construction time) and the snapshot is
    written even when the handler exits via :class:`SystemExit` — the
    resilience gate must not suppress the evidence of the run it failed.
    """
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        return args.handler(args)
    previous = set_telemetry(Telemetry.create(seed=getattr(args, "seed", 0)))
    try:
        return args.handler(args)
    finally:
        snapshot = get_telemetry().metrics.dumps()
        Path(metrics_out).write_text(snapshot, encoding="utf-8")
        set_telemetry(previous)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
