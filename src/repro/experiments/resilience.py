"""Crash-safe live migration under faults: the resilience experiment.

An elastic 2 -> 4 resize runs **while** a sustained TPC-C workload commits
through the 2PC coordinator, one transaction at a time with retries, and a
seeded :class:`~repro.distributed.faults.FaultPlan` makes the run hostile: a
partition crashes mid-migration, messages drop with some probability, and
the migration coordinator is killed at chosen journal records (the journal
bytes survive in a sink; a fresh session resumes from them).  Every
committed transaction is mirrored into a single-node oracle, and the
in-memory cluster is audited against it by the shared chaos harness
(:mod:`repro.experiments.chaos`).  On top of the audit the run must show:

* **resize and resume** — the cluster ends at 4 partitions and every
  coordinator death was resumed from the journal;
* **pacing reacted** — the SLO pacer paused or throttled the migration while
  the fault-driven abort rate exceeded its budget;
* **byte determinism** — the whole scenario is a pure function of its seed:
  run twice, the final journal bytes and every counter must match exactly.

Wired into ``python -m repro bench --experiment resilience``, the
``run_bench.py`` harness and the ``chaos`` CI job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.schism import start_online
from repro.distributed.coordinator import TwoPhaseCommitCoordinator
from repro.distributed.faults import (
    CoordinatorDeath,
    CoordinatorKill,
    FaultPlan,
    NodeCrash,
)
from repro.experiments.chaos import (
    ChaosReport,
    memory_residency,
    schism_plan,
    tpcc_inputs,
)
from repro.obs import quantile, trace_span
from repro.online.controller import (
    MigrationPacer,
    OnlineOptions,
    PacingOptions,
)
from repro.online.migration import MemoryJournalSink
from repro.online.monitor import MonitorOptions
from repro.online.repartitioner import RepartitionOptions

#: the partition count the elastic resize grows the cluster to.
RESIZE_TARGET = 4


@dataclass(kw_only=True)
class ResilienceReport(ChaosReport):
    """Outcome of one crash-safe-migration-under-faults run."""

    seed: int
    initial_partitions: int
    final_partitions: int
    #: live-traffic accounting (committed / aborted attempts / gave up).
    transactions_committed: int = 0
    transactions_aborted: int = 0
    retries_exhausted: int = 0
    #: faults that actually fired.
    coordinator_deaths: int = 0
    resumes: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    migration_steps_deferred: int = 0
    #: pacing telemetry (pauses + throttles must be positive: the abort-rate
    #: budget is sized so the injected faults push traffic over it).
    pacer_pauses: int = 0
    pacer_throttles: int = 0
    pacer_resumes: int = 0
    p99_latency_quiet: float = 0.0
    p99_latency_during: float = 0.0
    #: journal accounting.
    journal_records: int = 0
    migration_copies: int = 0
    migration_drops: int = 0
    #: sha256 over the final journal bytes and every counter above; two runs
    #: with the same seed must produce the same fingerprint.
    fingerprint: str = ""
    #: set by :func:`run_resilience` after replaying the scenario.
    deterministic: bool = False

    def checks(self) -> list[str]:
        failures = []
        if self.final_partitions != RESIZE_TARGET:
            failures.append(f"resize did not complete (k={self.final_partitions})")
        if self.coordinator_deaths == 0:
            failures.append("no coordinator death was injected")
        if self.resumes < self.coordinator_deaths:
            failures.append("a coordinator death was not resumed")
        if self.pacer_pauses + self.pacer_throttles == 0:
            failures.append("pacing never reacted")
        if not self.deterministic:
            failures.append("run is not byte-deterministic")
        return failures

    @property
    def title(self) -> str:
        return (
            f"Resilience: {self.initial_partitions} -> {RESIZE_TARGET} elastic resize "
            f"under TPC-C load with injected faults (seed {self.seed})"
        )

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("partitions", f"{self.initial_partitions} -> {self.final_partitions}"),
            ("traffic", f"{self.transactions_committed} committed, "
             f"{self.transactions_aborted} aborted attempts "
             f"({self.retries_exhausted} exhausted retries)"),
            ("faults", f"{self.coordinator_deaths} coordinator deaths "
             f"(resumed {self.resumes}, journal records {self.journal_records}), "
             f"{self.messages_dropped} messages dropped, {self.messages_delayed} "
             f"delayed, {self.migration_steps_deferred} migration steps deferred"),
            ("migration", f"{self.migration_copies} copies, {self.migration_drops} drops"),
            ("pacing", f"{self.pacer_pauses} pauses, {self.pacer_throttles} throttles, "
             f"{self.pacer_resumes} resumes; p99 latency {self.p99_latency_quiet:.0f} "
             f"quiet -> {self.p99_latency_during:.0f} during migration"),
            *super().rows(),
            ("replay", f"deterministic={self.deterministic}"),
        ]

    def to_payload(self) -> dict:
        """The run's counters for the bench report."""
        return {
            "seed": self.seed,
            "transactions_committed": self.transactions_committed,
            "transactions_aborted": self.transactions_aborted,
            "coordinator_deaths": self.coordinator_deaths,
            "resumes": self.resumes,
            "journal_records": self.journal_records,
            "migration_copies": self.migration_copies,
            "migration_drops": self.migration_drops,
            "pacer_pauses": self.pacer_pauses,
            "pacer_throttles": self.pacer_throttles,
            "lost_updates": self.lost_updates,
            "unreachable_tuples": self.unreachable_tuples,
            "fingerprint": self.fingerprint,
        }


def _run_scenario(
    seed: int,
    warehouses: int,
    training_transactions: int,
    live_transactions: int,
    migration_start: int,
) -> ResilienceReport:
    """One deterministic pass of the hostile-resize scenario."""
    with trace_span("experiment.resilience", seed=seed, warehouses=warehouses):
        inputs = tpcc_inputs(seed, warehouses, training_transactions, live_transactions)
        run, plan = schism_plan(inputs, 2, "experiments.resilience")
        options = OnlineOptions(
            monitor=MonitorOptions(window_size=400, min_window_fill=100),
            repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
            pacing=PacingOptions(
                abort_rate_budget=0.10,
                p99_latency_budget=500.0,
                min_samples=16,
                max_steps=8,
                throttled_steps=2,
            ),
        )
        controller = start_online(
            plan, inputs.database, options, warm_up_trace=run.state.training_trace
        )
        # ``start_online`` copied every row into the cluster's partitions, so
        # the source database is an independent single-node replica of the
        # initial state: committing every successful transaction to it too
        # makes it the oracle the final audit compares against.
        oracle = inputs.database

        faults = FaultPlan(
            seed=seed,
            # One storage partition goes dark mid-migration; copies and drops
            # touching it defer, transactions on it abort-and-retry past the
            # window (each attempt advances the clock).  The outage is the
            # *transient* SLO pressure: the abort rate spikes over the pacer's
            # budget (pause), then healthy post-outage commits slide the window
            # back under it (throttle, then resume) so the migration completes.
            node_crashes=(NodeCrash(partition=1, at_tick=migration_start + 30, duration=60),),
            # The migration coordinator dies twice, at an early and a late
            # journal record; both times the journal sink has the bytes.
            coordinator_kills=(CoordinatorKill(at_record=3), CoordinatorKill(at_record=11)),
            message_drop_rate=0.0005,
            message_delay_rate=0.02,
            message_delay=4.0,
        )
        injector = faults.build()
        coordinator = TwoPhaseCommitCoordinator(controller.cluster, controller.router, injector)
        pacer = MigrationPacer(options.pacing)
        sink = MemoryJournalSink()

        report = ResilienceReport(
            seed=seed,
            initial_partitions=controller.num_partitions,
            final_partitions=controller.num_partitions,
        )
        quiet_latencies: list[float] = []
        during_latencies: list[float] = []
        session = None

        def tick_migration(idle: bool = False) -> None:
            nonlocal session
            if session is None or session.done:
                return
            try:
                session.tick(idle=idle)
            except CoordinatorDeath:
                report.coordinator_deaths += 1
                # The journal record that the kill targeted was persisted before
                # the death fired: resume a fresh session from the sink's bytes.
                session = controller.attach_session(
                    sink.load(), sink=sink, pacer=pacer, injector=injector
                )
                report.resumes += 1

        for index, transaction in enumerate(inputs.live):
            if index == migration_start:
                session = controller.begin_resize(
                    RESIZE_TARGET, sink=sink, pacer=pacer, injector=injector, batch_size=8
                )
            # The pacer observes every attempt (aborted retries included): the
            # final outcome alone would hide the abort pressure retries absorb.
            outcome = coordinator.execute_with_retries(transaction, observer=pacer.observe)
            if outcome.aborted:
                report.retries_exhausted += 1
            else:
                for statement in transaction.statements:
                    oracle.execute(statement)
                (during_latencies if session is not None and not session.done
                 else quiet_latencies).append(outcome.latency)
            tick_migration()
        # Traffic ended; finish the migration with *idle* ticks — there is no
        # live load left to protect, so the pacer releases any pause instead of
        # holding a frozen over-budget window forever.  Faults still apply.
        for _ in range(10_000):
            if session is None or session.done:
                break
            tick_migration(idle=True)

        report.transactions_committed = coordinator.statistics.transactions
        report.transactions_aborted = coordinator.statistics.aborts
        report.messages_dropped = injector.statistics.messages_dropped
        report.messages_delayed = injector.statistics.messages_delayed
        report.final_partitions = controller.num_partitions
        report.pacer_pauses = pacer.pauses
        report.pacer_throttles = pacer.throttles
        report.pacer_resumes = pacer.resumes
        report.p99_latency_quiet = quantile(quiet_latencies, 0.99)
        report.p99_latency_during = quantile(during_latencies, 0.99)
        if session is not None:
            report.migration_steps_deferred = session.report.faults_deferred
            report.journal_records = session.journal.records
            # cumulative across crash/resume cycles (a resumed session's own
            # report restarts at zero; the journal cursors do not).
            report.migration_copies = session.journal.copies_done
            report.migration_drops = session.journal.drops_done

        report.audit(oracle, controller.router, memory_residency(controller.cluster))

        digest = hashlib.sha256()
        digest.update((sink.text or "").encode("utf-8"))
        digest.update(
            repr(
                (
                    report.transactions_committed,
                    report.transactions_aborted,
                    report.retries_exhausted,
                    report.coordinator_deaths,
                    report.resumes,
                    report.messages_dropped,
                    report.messages_delayed,
                    report.migration_steps_deferred,
                    report.lost_updates,
                    report.phantom_rows,
                    report.unreachable_tuples,
                    report.tuple_conservation,
                    report.pacer_pauses,
                    report.pacer_throttles,
                    report.pacer_resumes,
                    report.p99_latency_quiet,
                    report.p99_latency_during,
                    report.journal_records,
                    report.migration_copies,
                    report.migration_drops,
                    report.final_partitions,
                )
            ).encode("utf-8")
        )
        report.fingerprint = digest.hexdigest()
    return report


def run_resilience(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 300,
    live_transactions: int = 400,
    migration_start: int = 50,
) -> ResilienceReport:
    """Run the hostile-resize scenario twice and verify byte determinism.

    The second pass exists purely to prove the whole run — fault draws,
    journal records, crash/resume points, final audits — is a function of
    ``seed``; its report must fingerprint identically to the first.
    """
    first = _run_scenario(
        seed, warehouses, training_transactions, live_transactions, migration_start
    )
    second = _run_scenario(
        seed, warehouses, training_transactions, live_transactions, migration_start
    )
    first.deterministic = first.fingerprint == second.fingerprint
    return first

