"""Closed-loop load driver over the storage coordinator.

``num_clients`` worker threads pull transactions from a shared cursor and
execute them back-to-back (closed loop: a client issues its next transaction
the moment the previous one finishes), measuring wall-clock throughput,
latency quantiles, and abort rate.  Latencies are real time and therefore
**not** deterministic — they land in a ``volatile`` metric family excluded
from the default snapshot, while every count the audits rely on (commits,
aborts, fallbacks, restarts) stays exact.

Chaos plugs in through the ``on_commit`` hook: the driver calls it with the
global commit count after every commit, and the storage-resilience
experiment uses that to fire :class:`~repro.distributed.faults.WorkerKill`
entries at seeded commit ticks — deterministic trigger *points* even though
thread interleaving varies run to run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs import get_telemetry, quantile
from repro.storage.coordinator import StorageCoordinator, StorageOutcome
from repro.workload.trace import Transaction


@dataclass
class DriverReport:
    """Aggregate results of one closed-loop run."""

    total: int = 0
    committed: int = 0
    aborted: int = 0
    write_fast_fails: int = 0
    read_fallbacks: int = 0
    in_doubt_completed: int = 0
    distributed_committed: int = 0
    distributed_total: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    outcomes: list[StorageOutcome] = field(default_factory=list)

    @property
    def throughput_txn_s(self) -> float:
        """Committed transactions per wall-clock second."""
        return self.committed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def abort_rate(self) -> float:
        """Fraction of issued transactions that aborted."""
        return self.aborted / self.total if self.total else 0.0

    @property
    def distributed_fraction(self) -> float:
        """Fraction of issued transactions touching more than one partition."""
        return self.distributed_total / self.total if self.total else 0.0

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in milliseconds (nearest-rank)."""
        return quantile(self.latencies_ms, q)

    def to_payload(self) -> dict:
        """Deterministic summary (wall-clock fields rounded, kept separate)."""
        return {
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "write_fast_fails": self.write_fast_fails,
            "read_fallbacks": self.read_fallbacks,
            "in_doubt_completed": self.in_doubt_completed,
            "distributed_total": self.distributed_total,
            "distributed_committed": self.distributed_committed,
            "distributed_fraction": round(self.distributed_fraction, 6),
            "abort_rate": round(self.abort_rate, 6),
        }


class ClosedLoopDriver:
    """Runs a workload through the coordinator with concurrent clients."""

    def __init__(
        self,
        coordinator: StorageCoordinator,
        *,
        num_clients: int = 4,
        on_commit: Callable[[int], None] | None = None,
        on_outcome: Callable[[float, bool], None] | None = None,
    ) -> None:
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.coordinator = coordinator
        self.num_clients = num_clients
        self.on_commit = on_commit
        #: called with (latency_ms, aborted) after every transaction — the
        #: live SLO stream a MigrationPacer records to throttle under real
        #: contention.  Wall-clock values: route them only into volatile
        #: instruments.  May run concurrently from client threads.
        self.on_outcome = on_outcome
        self._latency = get_telemetry().metrics.histogram(
            "storage.txn_latency_ms",
            "wall-clock transaction latency in milliseconds",
            volatile=True,
        )

    def run(self, transactions: Sequence[Transaction], txn_id_prefix: str = "txn") -> DriverReport:
        """Execute ``transactions`` to completion; returns the report.

        Transaction ids are positional (``{prefix}-{index}``), so a given
        workload always produces the same id for the same transaction —
        which is what makes the dedup table meaningful across retries.
        """
        report = DriverReport(total=len(transactions))
        cursor_lock = threading.Lock()
        report_lock = threading.Lock()
        state = {"next": 0, "commits": 0}
        errors: list[BaseException] = []

        def next_index() -> int | None:
            with cursor_lock:
                index = state["next"]
                if index >= len(transactions):
                    return None
                state["next"] = index + 1
                return index

        def client() -> None:
            while True:
                index = next_index()
                if index is None:
                    return
                transaction = transactions[index]
                txn_id = f"{txn_id_prefix}-{index}"
                started = time.monotonic()
                try:
                    outcome = self.coordinator.execute_transaction(transaction, txn_id)
                except BaseException as error:  # surfaced after the join
                    with report_lock:
                        errors.append(error)
                    return
                latency_ms = (time.monotonic() - started) * 1000.0
                self._latency.observe(latency_ms)
                if self.on_outcome is not None:
                    self.on_outcome(latency_ms, not outcome.committed)
                commits_now = None
                with report_lock:
                    report.outcomes.append(outcome)
                    report.latencies_ms.append(latency_ms)
                    report.read_fallbacks += outcome.read_fallbacks
                    if outcome.scope == "distributed":
                        report.distributed_total += 1
                    if outcome.committed:
                        report.committed += 1
                        if outcome.in_doubt_completed:
                            report.in_doubt_completed += 1
                        if outcome.scope == "distributed":
                            report.distributed_committed += 1
                        state["commits"] += 1
                        commits_now = state["commits"]
                    else:
                        report.aborted += 1
                        if outcome.reason.startswith("write fast-fail"):
                            report.write_fast_fails += 1
                if commits_now is not None and self.on_commit is not None:
                    self.on_commit(commits_now)

        started = time.monotonic()
        threads = [
            threading.Thread(target=client, name=f"repro-client-{i}", daemon=True)
            for i in range(self.num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_s = time.monotonic() - started
        if errors:
            raise errors[0]
        return report
