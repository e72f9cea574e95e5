"""Live 2→4 resize on the real storage backend, under kills and load.

The tentpole chaos experiment for the storage migrator: a Schism-planned
TPC-C deployment runs on SQLite partition workers while a journaled
:class:`~repro.storage.migrator.StorageMigrator` resizes the cluster from
``old_partitions`` to ``new_partitions`` *during* closed-loop traffic.  The
fault schedule SIGKILLs two partition workers and the migration coordinator
itself mid-copy; the migration must resume from its durable journal (the
workers from the supervisor's restarts).  The shared chaos harness
(:mod:`repro.experiments.chaos`) audits the surviving SQLite files row by
row against the oracle and applies the storage checks; this scenario adds
its own: the resize completed every planned copy and drop, and the
coordinator kill fired and was re-attached from the journal.

Determinism is a design requirement — CI byte-compares two runs' metric
snapshots — and real thread interleavings are not deterministic, so the
run is shaped to make every **counted** quantity interleaving-independent:

* Live traffic is split into ``rounds`` segments separated by barriers
  (the driver joins its clients between segments).  Migration phase
  *transitions* — window open, routing flip, window close, partition
  drop/complete — only ever execute at a barrier, so the dual-write window
  membership is constant within any round and ``router.dual_writes`` /
  ``storage.transactions`` scopes are pure functions of the round split.
* In-round migration ticks run from the driver's commit hook under a lock,
  and only while the current phase has more than one full batch left —
  the tick that *would* finish a phase is deferred to the next barrier.
  Each tick advances the journal identically no matter which client thread
  runs it, so the journal trajectory depends only on the commit count.
* Worker kills fire at barriers (the :class:`FaultPlan`'s ``at_commit``
  reinterpreted as a barrier index), and the run waits for the supervisor
  to restart the victim before the next round starts — so no client ever
  observes a dead worker and ``storage.retries`` stays at zero.
* The coordinator kill raises :class:`CoordinatorDeath` inside a commit-
  hook tick; ticking stops (the "migration coordinator process" is dead)
  and the next barrier re-attaches a fresh :class:`StorageMigrator` from
  the journal the sink persisted *before* the kill fired.
* The :class:`~repro.online.controller.MigrationPacer` is wired to the
  driver's live latency/abort stream (``on_outcome``) but constructed
  ``volatile`` and, by default, with no SLO budgets — wall-clock-fed
  histograms stay out of the deterministic snapshot and every tick's
  budget is the full batch.  Passing ``p99_budget_ms``/``abort_budget``
  makes the pacer actually throttle under pressure, at the cost of
  byte-determinism (tests exercise that path; CI keeps the defaults).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.distributed.faults import (
    CoordinatorDeath,
    CoordinatorKill,
    FaultPlan,
    WorkerKill,
)
from repro.experiments.chaos import (
    StorageChaosReport,
    deploy,
    scratch_directory,
    sqlite_deployment,
    tpcc_inputs,
)
from repro.obs import trace_span
from repro.online.controller import MigrationPacer, PacingOptions
from repro.online.migration import FileJournalSink
from repro.storage import (
    ClosedLoopDriver,
    DriverReport,
    RetryOptions,
    StorageMigrationSession,
    StorageMigrator,
    plan_storage_resize,
)

#: how long (seconds) a barrier waits for a killed worker's replacement.
RESTART_WAIT_S = 30.0


@dataclass(kw_only=True)
class StorageMigrationReport(StorageChaosReport):
    """Outcome of one resize-under-chaos run."""

    seed: int
    old_partitions: int
    new_partitions: int
    #: migration accounting (from the final journal).
    final_state: str = "planned"
    copies_planned: int = 0
    drops_planned: int = 0
    copies_done: int = 0
    drops_done: int = 0
    journal_records: int = 0
    ticks: int = 0
    #: migration-coordinator chaos accounting.
    coordinator_kills_planned: int = 0
    coordinator_deaths: int = 0
    migrator_reattaches: int = 0

    def checks(self) -> list[str]:
        failures = []
        if self.final_state != "completed":
            failures.append(f"migration ended {self.final_state!r}")
        if self.copies_done != self.copies_planned:
            failures.append(f"{self.copies_done}/{self.copies_planned} copies executed")
        if self.drops_done != self.drops_planned:
            failures.append(f"{self.drops_done}/{self.drops_planned} drops executed")
        if self.coordinator_deaths != self.coordinator_kills_planned:
            failures.append(
                f"{self.coordinator_deaths}/{self.coordinator_kills_planned} "
                "coordinator kills fired"
            )
        if self.coordinator_deaths and not self.migrator_reattaches:
            failures.append("coordinator died but never re-attached")
        return super().checks() + failures

    @property
    def title(self) -> str:
        return (
            f"Live resize on real storage: {self.old_partitions} -> "
            f"{self.new_partitions} partitions under kills (seed {self.seed})"
        )

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("migration", f"{self.final_state}, copies {self.copies_done}/"
             f"{self.copies_planned}, drops {self.drops_done}/{self.drops_planned}, "
             f"journal records {self.journal_records}, ticks {self.ticks}"),
            ("coordinator", f"{self.coordinator_deaths}/{self.coordinator_kills_planned} "
             f"kills fired, {self.migrator_reattaches} re-attaches"),
            *super().rows(),
        ]

    def to_payload(self) -> dict:
        """Deterministic summary for the bench report (no wall-clock fields)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "old_partitions": self.old_partitions,
            "new_partitions": self.new_partitions,
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "distributed_fraction": round(self.distributed_fraction, 6),
            "final_state": self.final_state,
            "copies_planned": self.copies_planned,
            "drops_planned": self.drops_planned,
            "copies_done": self.copies_done,
            "drops_done": self.drops_done,
            "journal_records": self.journal_records,
            "worker_kills_fired": self.kills_fired,
            "coordinator_deaths": self.coordinator_deaths,
            "migrator_reattaches": self.migrator_reattaches,
            "restarts": self.restarts,
            **self.audit_payload(),
            "lock_order_out_of_order": self.lock_order_out_of_order,
            "violations": self.violations,
        }


def _split_rounds(transactions: list, rounds: int) -> list[list]:
    """Split the live slice into ``rounds`` near-equal contiguous segments."""
    size, remainder = divmod(len(transactions), rounds)
    segments, start = [], 0
    for index in range(rounds):
        end = start + size + (1 if index < remainder else 0)
        segments.append(transactions[start:end])
        start = end
    return segments


def run_storage_migration(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 200,
    live_transactions: int = 96,
    num_clients: int = 4,
    old_partitions: int = 2,
    new_partitions: int = 4,
    rounds: int = 4,
    batch_size: int = 4,
    coordinator_kill_record: int = 5,
    p99_budget_ms: float | None = None,
    abort_budget: float | None = None,
    directory: str | Path | None = None,
    retry_options: RetryOptions | None = None,
) -> StorageMigrationReport:
    """Resize a live Schism-deployed TPC-C cluster under the kill schedule.

    SQLite files (and the migration journal) live under ``directory`` — a
    fresh temporary directory when omitted, removed afterwards.  The
    report's :attr:`~StorageMigrationReport.violations` is the CI gate.
    """
    retry_options = retry_options or RetryOptions(timeout_ms=500, max_retries=4)
    old_k, new_k = old_partitions, new_partitions
    report = StorageMigrationReport(
        label=f"resize-{old_k}to{new_k}",
        seed=seed,
        old_partitions=old_k,
        new_partitions=new_k,
    )
    with trace_span(
        "experiment.storage_migration",
        seed=seed,
        old_partitions=old_k,
        new_partitions=new_k,
    ), scratch_directory(directory, "repro-storage-mig-") as base:
        inputs = tpcc_inputs(seed, warehouses, training_transactions, live_transactions)
        strategy, router = deploy(inputs, "schism", old_k, "experiments.storage_migration")
        faults = FaultPlan(
            seed=seed,
            coordinator_kills=(CoordinatorKill(at_record=coordinator_kill_record),),
            # at_commit doubles as the *barrier index* here: kill partition 0
            # after round 1 and the highest new partition after round 2.
            worker_kills=(
                WorkerKill(partition=0, at_commit=1),
                WorkerKill(partition=new_k - 1, at_commit=2),
            ),
        )
        report.coordinator_kills_planned = len(faults.coordinator_kills)
        with sqlite_deployment(
            report, base / "cluster", inputs, strategy, router, faults, retry_options, seed
        ) as (cluster, coordinator, injector):
            started = time.monotonic()
            # -- plan the resize and attach the journaled migrator ---------------
            journal = plan_storage_resize(
                cluster,
                new_k,
                migration_id=f"resize-{old_k}to{new_k}-seed{seed}",
                retry_options=retry_options,
                seed=seed,
            )
            report.copies_planned = len(journal.plan.copies)
            report.drops_planned = len(journal.plan.drops)
            sink = FileJournalSink(base / "resize.journal")
            sink.write(journal.dumps())
            pacer = MigrationPacer(
                PacingOptions(
                    max_steps=batch_size,
                    throttled_steps=max(1, batch_size // 2),
                    p99_latency_budget=p99_budget_ms,
                    abort_rate_budget=abort_budget,
                ),
                volatile=True,
            )

            def make_session(j) -> StorageMigrationSession:
                # The migrator shares the coordinator's (witnessed) lock
                # manager, so client commits and migration batches are
                # certified against one acquisition graph.
                migrator = StorageMigrator(
                    cluster,
                    router,
                    j,
                    sink=sink,
                    batch_size=batch_size,
                    injector=injector,
                    locks=coordinator.locks,
                    retry_options=retry_options,
                    seed=seed,
                )
                return StorageMigrationSession(migrator, pacer=pacer)

            holder = {"session": make_session(journal), "dead": False}
            tick_lock = threading.Lock()

            def reattach() -> None:
                """Restart the "migration coordinator" from the durable journal."""
                holder["session"] = make_session(sink.load())
                holder["dead"] = False
                report.migrator_reattaches += 1

            def in_round_safe(j) -> bool:
                """True while a tick cannot cross a phase boundary (see module doc)."""
                return (
                    j.state == "copying"
                    and j.copies_done + batch_size < len(j.plan.copies)
                ) or (
                    j.state == "dropping"
                    and j.drops_done + batch_size < len(j.plan.drops)
                )

            def on_commit(_commits: int) -> None:
                with tick_lock:
                    session = holder["session"]
                    if holder["dead"] or session.done:
                        return
                    if not in_round_safe(session.journal):
                        return
                    try:
                        session.tick()
                    except CoordinatorDeath:
                        holder["dead"] = True

            def barrier(index: int) -> None:
                """Between rounds: fire kills, revive the migrator, cross phases."""
                for kill in injector.due_worker_kills(index):
                    cluster.kill_worker(kill.partition)
                    deadline = time.monotonic() + RESTART_WAIT_S
                    while not cluster.supervisor.ping(kill.partition):
                        if time.monotonic() > deadline:
                            raise RuntimeError(
                                f"partition {kill.partition} not restarted at barrier {index}"
                            )
                        time.sleep(0.02)
                if holder["dead"]:
                    reattach()
                # Advance through any phase transition (window open, flip,
                # window close, resize finalisation) while no client traffic
                # is flowing, stopping as soon as the journal is back in
                # mid-phase territory.
                while True:
                    session = holder["session"]
                    if session.done or in_round_safe(session.journal):
                        return
                    try:
                        session.tick(idle=True)
                    except CoordinatorDeath:
                        reattach()

            driver = ClosedLoopDriver(
                coordinator,
                num_clients=num_clients,
                on_commit=on_commit,
                on_outcome=pacer.record,
            )

            # -- the run: barrier, round, barrier, round, ... then drain ---------
            # The rounds' counts and latencies pool into one report, so the
            # p99 is the run's p99, not a maximum over per-round p99s.
            traffic = DriverReport()
            barrier(0)  # opens the dual-write window before any live traffic
            for index, segment in enumerate(_split_rounds(inputs.live, rounds)):
                part = driver.run(segment, txn_id_prefix=f"live-r{index}")
                traffic.total += part.total
                traffic.committed += part.committed
                traffic.aborted += part.aborted
                traffic.distributed_total += part.distributed_total
                traffic.write_fast_fails += part.write_fast_fails
                traffic.read_fallbacks += part.read_fallbacks
                traffic.in_doubt_completed += part.in_doubt_completed
                traffic.latencies_ms += part.latencies_ms
                barrier(index + 1)
            while not holder["session"].done:
                try:
                    holder["session"].run_to_completion()
                except CoordinatorDeath:
                    reattach()

            final = holder["session"].journal
            report.final_state = final.state
            report.copies_done = final.copies_done
            report.drops_done = final.drops_done
            report.journal_records = final.records
            report.ticks = holder["session"].ticks
            report.coordinator_deaths = injector.statistics.coordinator_deaths
            traffic.wall_s = time.monotonic() - started
            report.record_traffic(traffic)
    return report
