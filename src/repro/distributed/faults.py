"""Seeded fault injection for the distributed layer.

A :class:`FaultPlan` declares, up front and deterministically, everything
that will go wrong during a run: partitions that crash (and recover) at
chosen points of a logical clock, a message-loss/delay process, and
coordinator deaths pinned to specific migration-journal records.  Building
the plan yields a :class:`FaultInjector` whose randomness comes from
:meth:`repro.utils.rng.SeededRng.fork`, so a scenario driven single-threaded
replays byte-identically for a fixed seed — the property the resilience
experiment and the chaos CI job assert.

The clock is transaction-granular: the coordinator advances it once per
attempted transaction, and crash windows are expressed in those ticks.
Message faults are drawn per planned message in routing order, *before* any
statement executes, which models a 2PC prepare-phase failure: an aborted
transaction has zero side effects (the toy engine has no undo log, so the
injector refuses to let a doomed transaction touch storage at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_telemetry
from repro.utils.rng import SeededRng


class FaultError(RuntimeError):
    """Base class of every injected fault."""


class NodeUnavailable(FaultError):
    """A participant partition is crashed for the duration of this attempt."""

    def __init__(self, partition: int) -> None:
        super().__init__(f"partition {partition} is unavailable")
        self.partition = partition


class MessageDropped(FaultError):
    """A 2PC message was lost; the transaction aborts."""


class CoordinatorDeath(FaultError):
    """The migration coordinator process died at a chosen journal record.

    The journal bytes written so far survive; the harness resumes a fresh
    migrator from them (or cancels), which is exactly the crash-recovery
    path the journaled state machine exists for.
    """

    def __init__(self, state: str, record: int) -> None:
        super().__init__(f"coordinator killed at journal record {record} (state {state!r})")
        self.state = state
        self.record = record


@dataclass(frozen=True)
class NodeCrash:
    """One partition outage: down at ``at_tick`` for ``duration`` ticks."""

    partition: int
    at_tick: int
    duration: int

    def covers(self, tick: int) -> bool:
        """Whether the partition is down at ``tick``."""
        return self.at_tick <= tick < self.at_tick + self.duration


@dataclass(frozen=True)
class CoordinatorKill:
    """Kill the migrator when it persists its ``at_record``-th journal record."""

    at_record: int


@dataclass(frozen=True)
class WorkerKill:
    """``SIGKILL`` a real partition worker process at a seeded commit tick.

    Unlike :class:`NodeCrash` — a *simulated* outage window on the logical
    clock — this one kills an actual OS process owning a SQLite file.  The
    trigger is the cluster-wide committed-transaction count, which is a
    deterministic point of the workload even though wall-clock thread
    interleaving varies: the ``at_commit``-th commit fires the kill no
    matter which client thread lands it.
    """

    partition: int
    at_commit: int


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong, declared up front.

    ``message_drop_rate`` / ``message_delay_rate`` are per-message Bernoulli
    probabilities; a delayed message adds ``message_delay`` to the
    transaction's latency proxy instead of failing it.
    """

    seed: int = 0
    node_crashes: tuple[NodeCrash, ...] = ()
    coordinator_kills: tuple[CoordinatorKill, ...] = ()
    worker_kills: tuple[WorkerKill, ...] = ()
    message_drop_rate: float = 0.0
    message_delay_rate: float = 0.0
    message_delay: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.message_drop_rate < 1.0:
            raise ValueError("message_drop_rate must be in [0, 1)")
        if not 0.0 <= self.message_delay_rate < 1.0:
            raise ValueError("message_delay_rate must be in [0, 1)")

    def build(self) -> "FaultInjector":
        """Materialise the plan as a live injector."""
        return FaultInjector(self)


@dataclass
class FaultStatistics:
    """What the injector actually did (for reports and assertions)."""

    ticks: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    unavailability_hits: int = 0
    coordinator_deaths: int = 0
    workers_killed: int = 0


class FaultInjector:
    """Live fault source driven by a :class:`FaultPlan`.

    All randomness comes from one forked sub-stream of the plan's seed, so
    the sequence of fault outcomes is a pure function of (seed, call order).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.tick = 0
        self.statistics = FaultStatistics()
        self._rng = SeededRng(plan.seed).fork("faults")
        self._pending_kills = {kill.at_record for kill in plan.coordinator_kills}
        self._fired_kills: set[int] = set()
        self._pending_worker_kills = sorted(
            plan.worker_kills, key=lambda kill: (kill.at_commit, kill.partition)
        )
        self._injected = get_telemetry().metrics.counter(
            "faults.injected", "faults fired by kind", labels=("kind",)
        )

    # -- clock -------------------------------------------------------------------------
    def advance(self, ticks: int = 1) -> None:
        """Advance the logical clock (one tick per attempted transaction)."""
        self.tick += ticks
        self.statistics.ticks += ticks

    # -- node availability -------------------------------------------------------------
    def node_available(self, partition: int) -> bool:
        """Whether ``partition`` is up at the current tick."""
        for crash in self.plan.node_crashes:
            if crash.partition == partition and crash.covers(self.tick):
                return False
        return True

    def crashed_partitions(self) -> frozenset[int]:
        """Partitions down at the current tick."""
        return frozenset(
            crash.partition
            for crash in self.plan.node_crashes
            if crash.covers(self.tick)
        )

    def check_available(self, partition: int) -> None:
        """Raise :class:`NodeUnavailable` when ``partition`` is down."""
        if not self.node_available(partition):
            self.statistics.unavailability_hits += 1
            self._injected.inc(kind="node_unavailable")
            raise NodeUnavailable(partition)

    # -- messages ----------------------------------------------------------------------
    def deliver(self) -> float:
        """Attempt one message delivery; returns the injected delay.

        Raises :class:`MessageDropped` on loss.  One Bernoulli draw per
        configured fault process, in a fixed order, keeps the stream
        deterministic for a fixed call sequence.
        """
        plan = self.plan
        delay = 0.0
        if plan.message_drop_rate > 0.0 and self._rng.bernoulli(plan.message_drop_rate):
            self.statistics.messages_dropped += 1
            self._injected.inc(kind="message_dropped")
            raise MessageDropped("message lost")
        if plan.message_delay_rate > 0.0 and self._rng.bernoulli(plan.message_delay_rate):
            self.statistics.messages_delayed += 1
            self._injected.inc(kind="message_delayed")
            delay = plan.message_delay
        return delay

    # -- worker kills ------------------------------------------------------------------
    def due_worker_kills(self, commits: int) -> list[WorkerKill]:
        """Pop every :class:`WorkerKill` whose commit tick has been reached.

        Called by the closed-loop driver's commit hook with the cluster-wide
        commit count; each kill fires exactly once.  The caller performs the
        actual ``SIGKILL`` (the injector has no process handles) —
        :meth:`repro.storage.cluster.SqliteStorageCluster.kill_worker` is
        the intended target.
        """
        due: list[WorkerKill] = []
        while self._pending_worker_kills and self._pending_worker_kills[0].at_commit <= commits:
            due.append(self._pending_worker_kills.pop(0))
        for kill in due:
            self.statistics.workers_killed += 1
            self._injected.inc(kind="worker_killed")
        return due

    # -- coordinator death -------------------------------------------------------------
    def on_journal_record(self, state: str, record: int) -> None:
        """Called by the journaled migrator after persisting record ``record``.

        Fires a pending :class:`CoordinatorKill` exactly once; the journal
        bytes for ``record`` are already durable when this raises, so resume
        picks up from the state the exception names.
        """
        if record in self._pending_kills and record not in self._fired_kills:
            self._fired_kills.add(record)
            self.statistics.coordinator_deaths += 1
            self._injected.inc(kind="coordinator_death")
            raise CoordinatorDeath(state, record)
