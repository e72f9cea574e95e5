"""The :class:`OnlineSchism` controller: traffic in, placement deltas out.

Wiring of the online loop:

1. live transactions stream in as chunked batches (one code path with the
   offline trace pipeline, see :meth:`AccessTrace.iter_batches`);
2. each batch feeds the :class:`~repro.online.monitor.WorkloadMonitor`
   (statistics + drift detection) and the
   :class:`~repro.online.maintainer.IncrementalGraphMaintainer` (decayed
   graph deltas);
3. when the monitor reports drift, :meth:`OnlineSchism.adapt` freezes the
   maintained graph — with the read-hot tuples expanded into **replication
   stars** (decayed read/write ratios decide the candidates, mirroring the
   offline builder's §3.1 expansion) — warm-starts the
   :class:`~repro.online.repartitioner.BudgetedRepartitioner` from the
   deployed placement, and deploys the resulting replica sets: copies
   (one per added replica), then the routing update — an in-place entry
   delta for exact lookup backends, an atomic wholesale table swap
   otherwise — then drops of the stale replicas;
4. independently of cut drift, the **elastic policy**
   (:class:`ElasticOptions`) watches the monitor's decayed transaction
   rate and proposes growing or shrinking ``num_partitions``;
   :meth:`OnlineSchism.resize` re-seeds the k-way kernel at the new k and
   deploys through the same budgeted copy-before-drop path, pinning every
   tuple the lookup table routed implicitly (a resize changes the hash
   default policy's modulus, so implicit placements must become explicit
   or those tuples would become unreachable).

Tuples that the maintained graph has decayed out of keep their deployed
placement untouched (except during a resize, which must touch every
implicitly-routed tuple for the reachability reason above).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning, hash_home
from repro.distributed.cluster import Cluster
from repro.distributed.faults import FaultInjector
from repro.graph.assignment import PartitionAssignment
from repro.online.maintainer import IncrementalGraphMaintainer, MaintainerOptions
from repro.online.migration import (
    FileJournalSink,
    JournaledMigrator,
    LiveMigrator,
    MemoryJournalSink,
    MigrationJournal,
    MigrationPlan,
    MigrationReport,
    plan_migration,
)
from repro.obs import DEFAULT_BUCKETS, RATE_BUCKETS, get_telemetry, quantile
from repro.online.monitor import DriftReport, MonitorOptions, WorkloadMonitor
from repro.online.repartitioner import (
    BudgetedRepartitioner,
    RepartitionOptions,
    RepartitionResult,
    ReplicatedRepartitionResult,
    repartition_from_scratch,
)
from repro.routing.router import Router
from repro.workload.rwsets import AccessTrace
from repro.workload.trace import TransactionAccess, iter_chunks


@dataclass
class ElasticOptions:
    """Drift-triggered elastic scaling of ``num_partitions``.

    The policy watches the monitor's decayed transactions-per-epoch rate and
    sizes the cluster so each partition carries about
    ``target_rate_per_partition``: it proposes ``ceil(rate / target)``
    partitions, but only once the implied count leaves the
    ``[shrink_hysteresis * k, grow_hysteresis * k]`` dead band around the
    current ``k`` (hysteresis prevents flapping on noisy load).  Disabled by
    default — elasticity migrates data, so it must be an explicit choice.
    """

    #: master switch; when False :meth:`propose` never fires.
    enabled: bool = False
    #: desired decayed transactions-per-epoch load per partition.
    target_rate_per_partition: float = 100.0
    #: grow only when the ideal partition count exceeds ``k`` times this.
    grow_hysteresis: float = 1.3
    #: shrink only when the ideal partition count falls below ``k`` times this.
    shrink_hysteresis: float = 0.6
    #: never shrink below / grow above these bounds.
    min_partitions: int = 1
    max_partitions: int = 64
    #: suppress further resize proposals for this many batches after one.
    cooldown_batches: int = 4

    def __post_init__(self) -> None:
        if self.target_rate_per_partition <= 0:
            raise ValueError("target_rate_per_partition must be positive")
        if self.grow_hysteresis < 1.0:
            raise ValueError("grow_hysteresis must be at least 1.0")
        if not 0.0 < self.shrink_hysteresis < 1.0:
            raise ValueError("shrink_hysteresis must be in (0, 1)")
        if not 1 <= self.min_partitions <= self.max_partitions:
            raise ValueError("need 1 <= min_partitions <= max_partitions")

    def propose(self, rate: float, num_partitions: int) -> int | None:
        """The partition count the current load calls for (None = keep ``k``).

        >>> policy = ElasticOptions(enabled=True, target_rate_per_partition=100.0)
        >>> policy.propose(rate=450.0, num_partitions=2)
        5
        >>> policy.propose(rate=210.0, num_partitions=2)  # inside the dead band
        >>> policy.propose(rate=40.0, num_partitions=4)
        1
        """
        if not self.enabled:
            return None
        ideal = rate / self.target_rate_per_partition
        if (
            ideal > num_partitions * self.grow_hysteresis
            or ideal < num_partitions * self.shrink_hysteresis
        ):
            proposed = max(self.min_partitions, min(self.max_partitions, math.ceil(ideal)))
            if proposed != num_partitions:
                return proposed
        return None


@dataclass
class PacingOptions:
    """SLO-aware pacing of an in-flight migration.

    The pacer watches the live traffic's latency and abort-rate over sliding
    windows and converts them into a per-tick step budget for the journaled
    migrator: full speed while both stay inside budget, a throttled trickle
    when latency nears its budget, and a full pause — with exponential
    backoff — once either budget is exceeded.  Budgets default to ``None``
    (that signal unconstrained); a pacer with no budgets always grants
    ``max_steps``.
    """

    #: sliding window of committed-transaction latencies (p99 source).
    latency_window: int = 128
    #: sliding window of attempt outcomes (abort-rate source).
    abort_window: int = 256
    #: pause when the windowed p99 latency proxy exceeds this.
    p99_latency_budget: float | None = None
    #: pause when the windowed abort rate exceeds this.
    abort_rate_budget: float | None = None
    #: no pacing decisions until this many latency samples arrived.
    min_samples: int = 16
    #: throttle once p99 latency crosses this fraction of its budget.
    pressure_ratio: float = 0.75
    #: step budget granted per tick while traffic is healthy.
    max_steps: int = 64
    #: step budget granted per tick under pressure (but inside budget).
    throttled_steps: int = 8
    #: ticks the first pause lasts; doubles per consecutive over-budget
    #: decision up to ``backoff_max`` (exponential backoff), resets once
    #: the windows recover.
    backoff_initial: int = 1
    backoff_max: int = 16

    def __post_init__(self) -> None:
        if self.latency_window <= 0 or self.abort_window <= 0:
            raise ValueError("pacing windows must be positive")
        if self.min_samples <= 0:
            raise ValueError("min_samples must be positive")
        if not 0.0 < self.pressure_ratio <= 1.0:
            raise ValueError("pressure_ratio must be in (0, 1]")
        if self.abort_rate_budget is not None and not 0.0 < self.abort_rate_budget <= 1.0:
            raise ValueError("abort_rate_budget must be in (0, 1]")
        if self.p99_latency_budget is not None and self.p99_latency_budget <= 0.0:
            raise ValueError("p99_latency_budget must be positive")
        if self.max_steps <= 0 or self.throttled_steps <= 0:
            raise ValueError("step budgets must be positive")
        if self.throttled_steps > self.max_steps:
            raise ValueError("throttled_steps must not exceed max_steps")
        if not 1 <= self.backoff_initial <= self.backoff_max:
            raise ValueError("need 1 <= backoff_initial <= backoff_max")


@dataclass(frozen=True)
class PacerSnapshot:
    """Read-only view of a :class:`MigrationPacer`'s window state.

    What ``repro status`` renders and what tests assert on — the pacer's
    sliding windows and backoff state without reaching into private fields.
    """

    p99_latency: float
    abort_rate: float
    latency_samples: int
    abort_samples: int
    p99_latency_budget: float | None
    abort_rate_budget: float | None
    paused: bool
    pause_remaining: int
    backoff: int
    #: budget granted by the most recent :meth:`MigrationPacer.plan_steps`
    #: call (None before the first call).
    last_budget: int | None
    proceeds: int
    throttles: int
    pauses: int
    resumes: int


class MigrationPacer:
    """Turns live traffic health into a per-tick migration step budget.

    Feed it every :class:`~repro.distributed.coordinator.TransactionOutcome`
    via :meth:`observe`; each :meth:`plan_steps` call then answers "how many
    migration steps may run this tick" — 0 while paused.  Decision counters
    (``proceeds`` / ``throttles`` / ``pauses`` / ``resumes``) feed the
    resilience experiment's "pacing demonstrably reacted" assertion;
    :meth:`snapshot` exposes the whole window state read-only.
    """

    def __init__(
        self, options: PacingOptions | None = None, *, volatile: bool = False
    ) -> None:
        self.options = options or PacingOptions()
        self._latencies: deque[float] = deque(maxlen=self.options.latency_window)
        self._aborts: deque[int] = deque(maxlen=self.options.abort_window)
        self._backoff = self.options.backoff_initial
        self._pause_remaining = 0
        self._paused = False
        self._last_budget: int | None = None
        self.proceeds = 0
        self.throttles = 0
        self.pauses = 0
        self.resumes = 0
        metrics = get_telemetry().metrics
        # ``volatile=True`` keeps this pacer's histogram observations out of
        # deterministic metric snapshots — the real-storage migration feeds
        # it wall-clock latencies, which must never reach a byte-compared
        # export.  (The simulated pacer's inputs are virtual-time proxies,
        # so it stays in the default snapshot.)
        self._decisions = metrics.counter(
            "pacer.decisions",
            "pacing decisions per plan_steps call",
            labels=("decision",),
            volatile=volatile,
        )
        self._p99_histogram = metrics.histogram(
            "pacer.p99_latency",
            "windowed p99 latency proxy at each pacing decision",
            buckets=DEFAULT_BUCKETS,
            volatile=volatile,
        )
        self._abort_histogram = metrics.histogram(
            "pacer.abort_rate",
            "windowed abort rate at each pacing decision",
            buckets=RATE_BUCKETS,
            volatile=volatile,
        )

    def snapshot(self) -> PacerSnapshot:
        """The current window state as a read-only :class:`PacerSnapshot`."""
        return PacerSnapshot(
            p99_latency=self.p99_latency(),
            abort_rate=self.abort_rate(),
            latency_samples=len(self._latencies),
            abort_samples=len(self._aborts),
            p99_latency_budget=self.options.p99_latency_budget,
            abort_rate_budget=self.options.abort_rate_budget,
            paused=self._paused,
            pause_remaining=self._pause_remaining,
            backoff=self._backoff,
            last_budget=self._last_budget,
            proceeds=self.proceeds,
            throttles=self.throttles,
            pauses=self.pauses,
            resumes=self.resumes,
        )

    def observe(self, outcome) -> None:
        """Record one transaction attempt (committed or aborted)."""
        self._aborts.append(1 if outcome.aborted else 0)
        if not outcome.aborted:
            self._latencies.append(outcome.latency)

    def record(self, latency: float, aborted: bool = False) -> None:
        """Record a raw (latency, aborted) sample without an outcome object."""
        self._aborts.append(1 if aborted else 0)
        if not aborted:
            self._latencies.append(latency)

    def p99_latency(self) -> float:
        """Windowed p99 of the committed-transaction latency proxy."""
        return quantile(self._latencies, 0.99)

    def abort_rate(self) -> float:
        """Windowed fraction of attempts that aborted."""
        if not self._aborts:
            return 0.0
        return sum(self._aborts) / len(self._aborts)

    def _pressure(self) -> tuple[bool, bool]:
        """(over budget, near budget) for the current windows."""
        options = self.options
        if len(self._latencies) + sum(self._aborts) < options.min_samples:
            return False, False
        over = False
        near = False
        if options.p99_latency_budget is not None:
            p99 = self.p99_latency()
            if p99 > options.p99_latency_budget:
                over = True
            elif p99 > options.pressure_ratio * options.p99_latency_budget:
                near = True
        if options.abort_rate_budget is not None:
            if self.abort_rate() > options.abort_rate_budget:
                over = True
        return over, near

    def plan_steps(self, idle: bool = False) -> int:
        """Migration step budget for this tick (0 = paused).

        ``idle=True`` declares that no live traffic is flowing (a drain
        phase after the workload ended): with nothing to protect, the
        budget opens fully regardless of the frozen windows — otherwise a
        window that ended over budget would pause a drain forever, since
        no new observations can ever slide it back under.
        """
        self._p99_histogram.observe(self.p99_latency())
        self._abort_histogram.observe(self.abort_rate())
        budget, decision = self._decide(idle)
        self._decisions.inc(decision=decision)
        self._last_budget = budget
        return budget

    def _decide(self, idle: bool) -> tuple[int, str]:
        """(step budget, decision label) for this tick; mutates the windows."""
        if idle:
            if self._paused:
                self._paused = False
                self.resumes += 1
            self._pause_remaining = 0
            self._backoff = self.options.backoff_initial
            self.proceeds += 1
            return self.options.max_steps, "proceed"
        if self._pause_remaining > 0:
            self._pause_remaining -= 1
            self.pauses += 1
            return 0, "pause"
        over, near = self._pressure()
        if over:
            # Budget exceeded: pause, and double the next pause while the
            # pressure keeps coming back (exponential backoff).
            self.pauses += 1
            self._paused = True
            self._pause_remaining = self._backoff
            self._backoff = min(self.options.backoff_max, self._backoff * 2)
            return 0, "pause"
        if near:
            self.throttles += 1
            return self.options.throttled_steps, "throttle"
        if self._paused:
            self._paused = False
            self.resumes += 1
            decision = "resume"
        else:
            decision = "proceed"
        self._backoff = self.options.backoff_initial
        self.proceeds += 1
        return self.options.max_steps, decision


@dataclass
class OnlineOptions:
    """Configuration of the online adaptivity loop."""

    monitor: MonitorOptions = field(default_factory=MonitorOptions)
    maintainer: MaintainerOptions = field(default_factory=MaintainerOptions)
    repartition: RepartitionOptions = field(default_factory=RepartitionOptions)
    elastic: ElasticOptions = field(default_factory=ElasticOptions)
    #: SLO-aware migration pacing; None runs migrations unpaced.  When set,
    #: :meth:`OnlineSchism.begin_resize` builds a :class:`MigrationPacer`
    #: from it for every session that is not handed one explicitly.
    pacing: PacingOptions | None = None
    #: transactions per ingest batch (= one monitor/maintainer epoch).
    batch_size: int = 100
    #: migration cost per tuple: "tuples" (1 each) or "bytes" (schema row size).
    move_cost: str = "tuples"
    #: lookup-table backend rebuilt at swap time.
    lookup_backend: str = "dict"
    #: suppress re-adaptation for this many batches after an adaptation.
    cooldown_batches: int = 2
    #: widen read-hot tuples into replica sets during adaptation.  Candidates
    #: must clear every one of the three thresholds below.
    replication_enabled: bool = True
    #: minimum decayed read fraction for a tuple to be replication-worthy
    #: (0.9 mirrors the paper's "read-mostly" bar of < 10% writes).
    replication_min_read_fraction: float = 0.9
    #: at most this many tuples are star-expanded per adaptation.
    replication_max_candidates: int = 64
    #: minimum decayed access weight — cold tuples never earn a replica.
    replication_min_weight: float = 2.0
    #: retention hysteresis: a tuple that is *already replicated* stays a
    #: candidate down to ``replication_min_read_fraction`` minus this slack,
    #: so decay noise around the entry bar cannot trigger drop/re-copy churn
    #: of replicas the budget just paid for.  (The min-cut still consolidates
    #: retained candidates whose replicas stop earning their write cost.)
    replication_retention_slack: float = 0.05

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.move_cost not in ("tuples", "bytes"):
            raise ValueError("move_cost must be 'tuples' or 'bytes'")
        if not 0.0 <= self.replication_min_read_fraction <= 1.0:
            raise ValueError("replication_min_read_fraction must be in [0, 1]")
        if self.replication_max_candidates < 0:
            raise ValueError("replication_max_candidates must be non-negative")
        if self.replication_retention_slack < 0:
            raise ValueError("replication_retention_slack must be non-negative")


@dataclass
class AdaptationRecord:
    """Everything produced by one adaptation (re-partition + migration)."""

    trigger: DriftReport | None
    repartition: RepartitionResult | ReplicatedRepartitionResult
    plan: MigrationPlan
    migration: MigrationReport
    distributed_fraction_before: float
    distributed_fraction_after: float

    @property
    def replicated_count(self) -> int:
        """Tuples the adaptation left on more than one partition (0 = none)."""
        if isinstance(self.repartition, ReplicatedRepartitionResult):
            return self.repartition.replicated_count
        return 0

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        return (
            f"adaptation: moved {self.repartition.num_moved} nodes "
            f"(cost {self.repartition.migration_cost:.0f}, "
            f"{self.replicated_count} replicated), "
            f"cut {self.repartition.cut_before:.0f} -> {self.repartition.cut_after:.0f}, "
            f"distributed {self.distributed_fraction_before:.1%} -> "
            f"{self.distributed_fraction_after:.1%}"
        )


@dataclass
class ResizeRecord:
    """Everything produced by one elastic resize (grow or shrink)."""

    old_partitions: int
    new_partitions: int
    #: the decayed transaction rate that triggered the proposal (None when
    #: :meth:`OnlineSchism.resize` was called directly).
    trigger_rate: float | None
    #: None when the record comes from a migration resumed off a journal,
    #: where the planning-time repartition context no longer exists.
    repartition: ReplicatedRepartitionResult | None
    plan: MigrationPlan
    migration: MigrationReport
    #: previously implicitly-routed tuples pinned to explicit entries.
    tuples_pinned: int

    @property
    def grew(self) -> bool:
        """Whether the cluster gained partitions."""
        return self.new_partitions > self.old_partitions

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        direction = "grow" if self.grew else "shrink"
        return (
            f"resize ({direction}): {self.old_partitions} -> {self.new_partitions} "
            f"partitions, {self.migration.copies} copies, {self.migration.drops} drops, "
            f"{self.tuples_pinned} pinned"
        )


class MigrationSession:
    """One in-flight journaled resize the controller interleaves with traffic.

    Created by :meth:`OnlineSchism.begin_resize`, the session owns a
    :class:`~repro.online.migration.JournaledMigrator` and advances it one
    paced batch per :meth:`tick` — the call a traffic loop makes between
    transactions, so migration work and live load share one thread
    deterministically.  When a :class:`MigrationPacer` is attached, its
    step budget gates every tick (0 = the migration holds still while the
    SLO recovers).

    The session also owns *finalisation*: the first tick that observes a
    terminal journal state performs the controller bookkeeping the old
    synchronous ``resize`` did (monitor rebaseline, :class:`ResizeRecord`,
    cooldowns) — including when the terminal state was reached by a
    different process and this session merely resumed the journal.
    """

    def __init__(
        self,
        controller: "OnlineSchism",
        journal: MigrationJournal,
        *,
        trigger_rate: float | None = None,
        repartition: ReplicatedRepartitionResult | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> None:
        if journal.kind != "resize":
            raise ValueError("MigrationSession drives resize journals")
        self.controller = controller
        self.journal = journal
        self.trigger_rate = trigger_rate
        self.repartition = repartition
        self.pacer = pacer
        self.migrator = JournaledMigrator(
            controller.cluster,
            controller.router,
            journal,
            sink=sink,
            batch_size=batch_size or controller.migrator.batch_size,
            injector=injector,
        )
        self.record: ResizeRecord | None = None
        self.ticks = 0
        self.steps_executed = 0
        self._finalized = False
        if journal.is_terminal:
            self._finalize()

    @property
    def report(self) -> MigrationReport:
        """Execution report of (this attempt at) the migration."""
        return self.migrator.report

    @property
    def done(self) -> bool:
        """Whether the journal reached a terminal state."""
        return self.journal.is_terminal

    def tick(self, idle: bool = False) -> int:
        """Advance the migration by one paced batch; returns steps executed.

        ``idle=True`` tells the pacer no live traffic is flowing (drain
        phase), which releases any pause — see
        :meth:`MigrationPacer.plan_steps`.
        """
        if self.journal.is_terminal:
            self._finalize()
            return 0
        self.ticks += 1
        budget: int | None = None
        if self.pacer is not None:
            budget = self.pacer.plan_steps(idle=idle)
            if budget == 0:
                return 0
        tracer = get_telemetry().tracer
        with tracer.span(
            "migration.tick", state=self.journal.state, budget=budget
        ) as span:
            executed = self.migrator.step(budget)
            span.set_attribute("executed", executed)
        self.steps_executed += executed
        if self.journal.is_terminal:
            self._finalize()
        return executed

    def cancel(self) -> None:
        """Switch the migration onto the rollback branch (see the journal)."""
        self.migrator.cancel()

    def run_to_completion(self, max_ticks: int = 1_000_000) -> ResizeRecord | None:
        """Tick to a terminal state; the record (None when cancelled).

        There is no interleaved traffic here, so every tick is an *idle*
        tick: the pacer has nothing to protect and opens the full budget —
        the loop always terminates unless a fault injector keeps a
        required node down past ``max_ticks``.
        """
        for _ in range(max_ticks):
            if self.journal.is_terminal:
                break
            self.tick(idle=True)
        else:
            raise RuntimeError(
                f"migration did not terminate: {self.journal.progress_summary()}"
            )
        self._finalize()
        return self.record

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self.record = self.controller._finish_resize(self)


@dataclass
class ObservationResult:
    """Outcome of streaming a trace through the controller."""

    batches: int = 0
    transactions: int = 0
    drift_reports: list[DriftReport] = field(default_factory=list)
    adaptations: list[AdaptationRecord] = field(default_factory=list)
    resizes: list[ResizeRecord] = field(default_factory=list)


class OnlineSchism:
    """Controller closing the loop from live traffic back to placement.

    Feed it traffic with :meth:`observe` (fixed-size epochs) or
    :meth:`observe_batches` (caller-defined epochs, which lets the elastic
    policy see the offered load); it detects drift, adapts the placement
    under a migration budget (:meth:`adapt` — replication-aware: read-hot
    tuples widen into replica sets), and scales the partition count
    (:meth:`resize`) when the elastic policy proposes it.

    Parameters
    ----------
    cluster:
        The running shared-nothing cluster the data physically lives in.
        Resizes grow/shrink this cluster in place.
    router:
        The deployed router; its strategy must be a
        :class:`LookupTablePartitioning` (fine-grained placement is what
        live migration updates).  A resize republishes strategy and lookup
        table wholesale via :meth:`Router.replace_strategy`.
    options:
        Loop configuration (:class:`OnlineOptions`): monitor / maintainer /
        repartition knobs, the ``replication_*`` thresholds and the
        :class:`ElasticOptions` policy.
    """

    def __init__(
        self,
        cluster: Cluster,
        router: Router,
        options: OnlineOptions | None = None,
    ) -> None:
        if not isinstance(router.strategy, LookupTablePartitioning):
            raise TypeError("OnlineSchism requires a lookup-table routing strategy")
        if cluster.num_partitions != router.num_partitions:
            raise ValueError("cluster and router disagree on the number of partitions")
        self.cluster = cluster
        self.router = router
        #: the PartitionPlan this deployment came from (set by
        #: ``start_online``); :meth:`export_plan` carries its routing
        #: config forward so a deploy/export cycle with no adaptations
        #: round-trips the artifact.
        self.source_plan: "PartitionPlan | None" = None
        self.options = options or OnlineOptions()
        self.monitor = WorkloadMonitor(self.options.monitor, router.strategy)
        self.maintainer = IncrementalGraphMaintainer(self.options.maintainer)
        self.migrator = LiveMigrator(cluster)
        self.adaptations: list[AdaptationRecord] = []
        self.resizes: list[ResizeRecord] = []
        self._cooldown = 0
        self._elastic_cooldown = 0
        metrics = get_telemetry().metrics
        self._adapt_counter = metrics.counter(
            "online.adaptations", "drift-triggered placement adaptations"
        )
        self._resize_counter = metrics.counter(
            "online.resizes", "elastic resize migrations planned", labels=("direction",)
        )

    @property
    def strategy(self) -> LookupTablePartitioning:
        """The deployed fine-grained strategy (shared with the router)."""
        strategy = self.router.strategy
        assert isinstance(strategy, LookupTablePartitioning)
        return strategy

    @property
    def num_partitions(self) -> int:
        """Number of partitions of the deployed placement."""
        return self.router.num_partitions

    # -- ingest -----------------------------------------------------------------------
    def warm_up(self, trace: AccessTrace | Iterable[TransactionAccess]) -> None:
        """Seed monitor and maintainer from the training trace, then baseline.

        Gives the online loop the same starting knowledge the offline
        pipeline trained on: the maintained graph starts as the (decayed)
        training graph instead of empty, and the drift baseline reflects
        steady-state traffic.
        """
        accesses = trace.accesses if isinstance(trace, AccessTrace) else trace
        for batch in iter_chunks(accesses, self.options.batch_size):
            self.monitor.ingest_batch(batch)
            self.maintainer.apply_batch(batch)
        self.monitor.set_baseline()

    def observe(
        self,
        trace: AccessTrace | Iterable[TransactionAccess],
        auto_adapt: bool = True,
    ) -> ObservationResult:
        """Stream live traffic through the loop, adapting on drift.

        ``trace`` may be a recorded :class:`AccessTrace` or any iterable of
        transaction accesses (a live feed); it is consumed in
        ``batch_size`` chunks.  Because the re-chunking makes the monitor's
        transactions-per-epoch rate a constant (~``batch_size``), elastic
        proposals are **suppressed** here — a constant is not a load signal,
        and acting on it would resize the cluster to fit a config value.
        Feed :meth:`observe_batches` real arrival batches to drive
        elasticity.
        """
        accesses = trace.accesses if isinstance(trace, AccessTrace) else trace
        return self.observe_batches(
            iter_chunks(accesses, self.options.batch_size),
            auto_adapt,
            elastic=False,
        )

    def observe_batches(
        self,
        batches: Iterable[list[TransactionAccess]],
        auto_adapt: bool = True,
        elastic: bool = True,
    ) -> ObservationResult:
        """Stream pre-batched live traffic; each batch is one monitor epoch.

        The batch boundaries are the loop's notion of *time*: a live feed
        that hands over whatever arrived in a tick makes the monitor's
        transactions-per-epoch rate track the offered load, which is the
        signal the elastic policy scales ``num_partitions`` by.  ``elastic``
        gates those proposals; :meth:`observe` passes False because its
        fixed re-chunking produces a meaningless constant rate.
        """
        elastic_options = self.options.elastic if elastic else None
        result = ObservationResult()
        for batch in batches:
            self.monitor.ingest_batch(batch)
            self.maintainer.apply_batch(batch)
            result.batches += 1
            result.transactions += len(batch)
            # Elastic scaling watches offered load, not placement quality, so
            # it is checked regardless of the adaptation cooldown (with its
            # own, separate cooldown).
            if self._elastic_cooldown > 0:
                self._elastic_cooldown -= 1
            elif auto_adapt and elastic_options is not None:
                proposal = elastic_options.propose(
                    self.monitor.transaction_rate(), self.num_partitions
                )
                if proposal is not None:
                    result.resizes.append(
                        self.resize(proposal, trigger_rate=self.monitor.transaction_rate())
                    )
                    # The resize already re-partitioned and re-baselined at
                    # the new k; a same-batch adaptation would be redundant.
                    continue
            if self._cooldown > 0:
                self._cooldown -= 1
                continue
            report = self.monitor.check_drift()
            result.drift_reports.append(report)
            if report.drifted and auto_adapt:
                result.adaptations.append(self.adapt(report))
        return result

    # -- adaptation -------------------------------------------------------------------
    def current_node_assignment(self) -> tuple[list[int], list[float]]:
        """Warm-start node assignment + per-node move costs for the maintained graph.

        Each node maps to the (deterministically chosen) minimum partition of
        its tuple's deployed placement — including tuples placed by the
        lookup table's default policy, which is where they physically live.
        """
        strategy = self.strategy
        use_bytes = self.options.move_cost == "bytes"
        database = self.cluster.partition_databases[0]
        warm: list[int] = []
        costs: list[float] = []
        for tuple_id in self.maintainer.tuples():
            warm.append(min(strategy.partitions_for_tuple(tuple_id)))
            costs.append(float(database.tuple_byte_size(tuple_id)) if use_bytes else 1.0)
        return warm, costs

    def current_placements(
        self, tuples: list[TupleId], num_partitions: int | None = None
    ) -> tuple[list[frozenset[int]], list[float]]:
        """Deployed replica set + move cost per tuple, clamped to ``num_partitions``.

        The replica-aware counterpart of :meth:`current_node_assignment`.
        Clamping matters during a shrink: a tuple homed only on partitions
        being removed warm-starts at its post-shrink hash home (the physical
        copy is still planned from where the tuple actually lives).
        """
        k = self.num_partitions if num_partitions is None else num_partitions
        strategy = self.strategy
        use_bytes = self.options.move_cost == "bytes"
        database = self.cluster.partition_databases[0]
        placements: list[frozenset[int]] = []
        costs: list[float] = []
        for tuple_id in tuples:
            placement = frozenset(
                part for part in strategy.partitions_for_tuple(tuple_id) if part < k
            )
            if not placement:
                placement = hash_home(tuple_id, k)
            placements.append(placement)
            costs.append(float(database.tuple_byte_size(tuple_id)) if use_bytes else 1.0)
        return placements, costs

    def replication_candidates(self) -> list[int]:
        """Maintained-graph nodes the next adaptation will star-expand.

        Currently-replicated tuples qualify at a lower (retention) bar, so
        a replica set the budget just paid for is not collapsed by decay
        noise around the entry threshold — see
        ``OnlineOptions.replication_retention_slack``.
        """
        options = self.options
        if not options.replication_enabled or options.replication_max_candidates == 0:
            return []
        assignment = self.strategy.assignment
        retained = [
            node
            for node, tuple_id in enumerate(self.maintainer.tuples())
            if assignment.is_replicated(tuple_id)
        ]
        retention = max(
            0.0,
            options.replication_min_read_fraction - options.replication_retention_slack,
        )
        return self.maintainer.replication_candidates(
            min_read_fraction=options.replication_min_read_fraction,
            max_candidates=options.replication_max_candidates,
            min_weight=options.replication_min_weight,
            retained=retained,
            retention_read_fraction=retention,
        )

    def adapt(self, trigger: DriftReport | None = None) -> AdaptationRecord:
        """Re-partition with a migration budget and migrate the delta live.

        When the maintained graph holds read-hot (read-mostly) tuples, it is
        frozen with those tuples expanded into replication stars and the
        re-partitioner emits **replica sets**: a widened placement costs one
        migration copy per added replica, while writes to a replicated tuple
        keep involving all its replicas — so replication only wins where
        reads dominate.  Without candidates the legacy singleton path runs
        unchanged.

        Sequencing is copies -> routing update -> drops: while the routing
        state changes, every affected tuple is resident at both its old and
        new location, so reads routed under either placement succeed.  The
        plan and routing update touch only the maintained graph's tuples —
        O(drifted working set), not O(all deployed tuples) — unless the
        lookup backend cannot update in place (then a full rebuild + atomic
        swap is the only sound publication).
        """
        self._adapt_counter.inc()
        with get_telemetry().tracer.span("online.adapt", k=self.num_partitions) as span:
            record = self._adapt(trigger)
            span.set_attribute("tuples_changed", record.plan.tuples_changed)
            return record

    def _adapt(self, trigger: DriftReport | None) -> AdaptationRecord:
        before = self.monitor.window_stats().distributed_fraction
        repartitioner = BudgetedRepartitioner(self.options.repartition)
        candidates = self.replication_candidates()
        result: RepartitionResult | ReplicatedRepartitionResult
        if candidates:
            current, costs = self.current_placements(self.maintainer.tuples())
            csr, tuples, star = self.maintainer.freeze_replicated(
                candidates, [min(placement) for placement in current]
            )
            result = repartitioner.repartition_replicated(
                csr, star, current, self.num_partitions, costs
            )
            placements = result.placements
        else:
            csr, tuples = self.maintainer.freeze()
            warm, costs = self.current_node_assignment()
            result = repartitioner.repartition(csr, warm, self.num_partitions, costs)
            placements = [frozenset({part}) for part in result.assignment]
        target = PartitionAssignment(self.num_partitions)
        for node, tuple_id in enumerate(tuples):
            target.assign(tuple_id, placements[node])
        plan = plan_migration(self.strategy.partitions_for_tuple, target)
        table = self.router.lookup_table
        flip_mode = "delta" if table is not None and table.supports_update() else "swap"
        journal = MigrationJournal.for_plan(
            plan,
            kind="adapt",
            flip_mode=flip_mode,
            old_num_partitions=self.num_partitions,
            lookup_backend=self.options.lookup_backend,
            default_policy=self.strategy.default_policy,
        )
        migration = JournaledMigrator(
            self.cluster,
            self.router,
            journal,
            batch_size=self.migrator.batch_size,
        ).run()
        self.monitor.rebaseline(self.router.strategy)
        after = self.monitor.window_stats().distributed_fraction
        record = AdaptationRecord(trigger, result, plan, migration, before, after)
        self.adaptations.append(record)
        self._cooldown = self.options.cooldown_batches
        return record

    # -- elastic scaling --------------------------------------------------------------
    def resize(
        self, new_partitions: int, trigger_rate: float | None = None
    ) -> ResizeRecord:
        """Grow or shrink the cluster to ``new_partitions`` partitions, live.

        Convenience wrapper: opens a journaled session via
        :meth:`begin_resize` and drives it to completion in one call.  Use
        :meth:`begin_resize` directly to interleave the migration with live
        traffic (paced ticks), attach a journal sink for crash recovery, or
        inject faults.
        """
        session = self.begin_resize(new_partitions, trigger_rate=trigger_rate)
        record = session.run_to_completion()
        assert record is not None  # the session was never cancelled
        return record

    def begin_resize(
        self,
        new_partitions: int,
        *,
        trigger_rate: float | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> MigrationSession:
        """Plan a resize and return the journaled session that executes it.

        Re-seeds the k-way kernel at the new k (budgeted warm start from the
        clamped current placement, replication candidates included) and
        plans through the same copy-before-drop path as :meth:`adapt`, with
        two resize-specific obligations:

        * **every stored tuple the lookup table routed implicitly is pinned
          to an explicit entry**: the hash default policy's modulus changes
          with k, so an implicit placement computed at the old k would point
          at the wrong partition — the pin keeps every tuple reachable
          without moving it.  (The routing flip re-walks storage, so tuples
          inserted while the migration is in flight are pinned too.)
        * the routing state is republished by **atomic wholesale swap**
          (new strategy + new lookup table at the new k) regardless of
          backend: an in-place entry delta cannot express the modulus
          change, which invalidates every implicit placement at once.

        Growing adds the empty partitions *before* the copies (so data can
        land on them); shrinking removes the evacuated partitions only
        *after* the drops.  In between, reads routed under the old table
        find a resident replica, and the router's dual-write window carries
        writes to both placements of every in-flight tuple.

        ``sink`` makes every journal record durable (crash recovery picks
        up from the last persisted record via :meth:`attach_session`);
        ``pacer`` gates each tick's step budget by the live SLO (defaults
        to one built from ``options.pacing`` when that is set); ``injector``
        subjects migration steps and journal persists to the fault plan.
        """
        if new_partitions <= 0:
            raise ValueError("new_partitions must be positive")
        old_partitions = self.num_partitions
        if new_partitions == old_partitions:
            raise ValueError("resize to the current partition count is a no-op")
        self._resize_counter.inc(
            direction="grow" if new_partitions > old_partitions else "shrink"
        )
        with get_telemetry().tracer.span(
            "online.resize.plan", old_k=old_partitions, new_k=new_partitions
        ):
            return self._plan_resize(
                new_partitions,
                old_partitions,
                trigger_rate=trigger_rate,
                sink=sink,
                pacer=pacer,
                injector=injector,
                batch_size=batch_size,
            )

    def _plan_resize(
        self,
        new_partitions: int,
        old_partitions: int,
        *,
        trigger_rate: float | None,
        sink: MemoryJournalSink | FileJournalSink | None,
        pacer: MigrationPacer | None,
        injector: FaultInjector | None,
        batch_size: int | None,
    ) -> MigrationSession:
        repartitioner = BudgetedRepartitioner(self.options.repartition)
        candidates = self.replication_candidates()
        current, costs = self.current_placements(self.maintainer.tuples(), new_partitions)
        csr, tuples, star = self.maintainer.freeze_replicated(
            candidates, [min(placement) for placement in current]
        )
        result = repartitioner.repartition_replicated(
            csr, star, current, new_partitions, costs
        )
        target = PartitionAssignment(new_partitions)
        for node, tuple_id in enumerate(tuples):
            target.assign(tuple_id, result.placements[node])
        # Pin everything else where it lives (clamped); evacuees with no
        # surviving replica go to their new-k hash home.  One storage walk
        # supplies the physical locations for both the pinning loop and the
        # migration planning below.
        locations_of = self.cluster.tuple_locations_map()
        deployed = self.strategy.assignment
        tuples_pinned = 0
        for tuple_id in sorted(locations_of):
            if tuple_id in target:
                continue
            locations = locations_of[tuple_id]
            valid = frozenset(part for part in locations if part < new_partitions)
            if not valid:
                valid = hash_home(tuple_id, new_partitions)
            target.assign(tuple_id, valid)
            if tuple_id not in deployed:
                tuples_pinned += 1

        def physical_placement(tuple_id: TupleId) -> frozenset[int]:
            locations = locations_of.get(tuple_id)
            # A maintained tuple absent from the snapshot was deleted by live
            # traffic; fall back to its routed placement (the copy step will
            # no-op and report a skip).
            return locations or self.strategy.partitions_for_tuple(tuple_id)

        plan = plan_migration(physical_placement, target)
        journal = MigrationJournal.for_plan(
            plan,
            kind="resize",
            flip_mode="swap",
            old_num_partitions=old_partitions,
            new_num_partitions=new_partitions,
            lookup_backend=self.options.lookup_backend,
            default_policy=self.strategy.default_policy,
        )
        journal.tuples_pinned = tuples_pinned
        if pacer is None and self.options.pacing is not None:
            pacer = MigrationPacer(self.options.pacing)
        return MigrationSession(
            self,
            journal,
            trigger_rate=trigger_rate,
            repartition=result,
            sink=sink,
            pacer=pacer,
            injector=injector,
            batch_size=batch_size,
        )

    def attach_session(
        self,
        journal: MigrationJournal,
        *,
        trigger_rate: float | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> MigrationSession:
        """Resume (or take over) a journaled resize from its last record.

        The crash-recovery entry point: after a coordinator death, load the
        journal from its sink and hand it here — the new session re-opens
        the dual-write window appropriate to the journalled state and
        continues (or, after :meth:`MigrationSession.cancel`, rolls back).
        The planning-time repartition context died with the old coordinator,
        so a finished resumed session records ``repartition=None``.
        """
        if pacer is None and self.options.pacing is not None:
            pacer = MigrationPacer(self.options.pacing)
        return MigrationSession(
            self,
            journal,
            trigger_rate=trigger_rate,
            sink=sink,
            pacer=pacer,
            injector=injector,
            batch_size=batch_size,
        )

    def _finish_resize(self, session: MigrationSession) -> ResizeRecord | None:
        """Controller bookkeeping once a session's journal turns terminal."""
        journal = session.journal
        # Whether completed or rolled back, the routing strategy object may
        # have been republished: re-anchor the monitor and restart drift
        # tracking from the post-migration placement.
        self.monitor.rebaseline(self.router.strategy)
        self._elastic_cooldown = self.options.elastic.cooldown_batches
        self._cooldown = max(self._cooldown, self.options.cooldown_batches)
        if journal.state != "completed":
            return None
        record = ResizeRecord(
            journal.old_num_partitions,
            journal.new_num_partitions,
            session.trigger_rate,
            session.repartition,
            journal.plan,
            session.report,
            journal.tuples_pinned,
        )
        self.resizes.append(record)
        return record

    def export_plan(self, created_by: str = "online-export") -> "PartitionPlan":
        """The current live placement as a serializable :class:`PartitionPlan`.

        Closes the loop between offline and online: a deployment that has
        adapted (migrations, replica sets, resizes) can persist its state as
        the same artifact the offline pipeline produces — diffable against
        the originally deployed plan, re-deployable via ``start_online``.

        When the controller was deployed from a plan (``start_online`` sets
        :attr:`source_plan`) and **nothing has changed the placement** (no
        adaptations, no resizes), the plan's routing config — strategy
        name, default policies, hash columns, rule sets — is carried
        forward, so a deploy/export cycle round-trips the artifact
        identically.  Once the loop has adapted, the export instead
        describes the live deployment truthfully: a ``lookup-table`` plan
        with the router's actual default policy, because the offline rule
        sets no longer describe the adapted placements and rebuilding the
        offline winner from them would discard every migrated tuple.
        """
        from repro.pipeline.plan import PartitionPlan, PlanProvenance

        assignment = self.strategy.assignment
        stats = self.monitor.window_stats()
        provenance = PlanProvenance(
            created_by=created_by,
            metrics={
                "distributed_fraction": stats.distributed_fraction,
                "window_transactions": stats.transactions,
                "adaptations": len(self.adaptations),
                "resizes": len(self.resizes),
                "replicated_count": assignment.replicated_count,
            },
        )
        template = self.source_plan
        if (
            template is not None
            and template.num_partitions == self.num_partitions
            and not self.adaptations
            and not self.resizes
        ):
            return PartitionPlan(
                num_partitions=self.num_partitions,
                placements=dict(assignment.placements),
                strategy=template.strategy,
                lookup_default_policy=template.lookup_default_policy,
                range_fallback=template.range_fallback,
                rule_sets=dict(template.rule_sets),
                hash_columns=template.hash_columns,
                provenance=provenance,
            )
        return PartitionPlan(
            num_partitions=self.num_partitions,
            placements=dict(assignment.placements),
            strategy="lookup-table",
            lookup_default_policy=self.strategy.default_policy,
            provenance=provenance,
        )

    def preview_full_repartition(self) -> RepartitionResult:
        """What a from-scratch re-partition would do right now (not applied).

        Used by experiments and tests to compare the budgeted delta against
        the full-reshuffle baseline (labels aligned, so moves are genuine).
        """
        csr, _ = self.maintainer.freeze()
        warm, costs = self.current_node_assignment()
        return repartition_from_scratch(csr, warm, self.num_partitions, costs)

    def merged_assignment(
        self, tuples: list[TupleId], node_assignment: list[int]
    ) -> PartitionAssignment:
        """Full placement from a node assignment: deployed placements overridden.

        Public so that experiments can evaluate a previewed (not applied)
        re-partition exactly as :meth:`adapt` would deploy it.
        """
        return self.merged_placements(
            tuples, [frozenset({part}) for part in node_assignment]
        )

    def merged_placements(
        self, tuples: list[TupleId], placements: list[frozenset[int]]
    ) -> PartitionAssignment:
        """Full placement from per-tuple replica sets: deployed entries overridden.

        The replica-set counterpart of :meth:`merged_assignment`, used when
        the adaptation produced widened placements.
        """
        merged = PartitionAssignment(self.num_partitions)
        deployed = self.strategy.assignment
        for tuple_id in deployed:
            placement = deployed.partitions_of(tuple_id)
            assert placement is not None
            merged.assign(tuple_id, placement)
        for node, tuple_id in enumerate(tuples):
            merged.assign(tuple_id, placements[node])
        return merged
