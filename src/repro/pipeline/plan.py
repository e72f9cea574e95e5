"""The serializable :class:`PartitionPlan` artifact.

A plan is the *durable* product of a pipeline run: the per-tuple replica
sets, the range-rule sets of the explanation phase, the winning strategy,
and provenance (options, phase timings, cut/validation metrics).  It is what
downstream components consume — ``start_online`` deploys one,
``Cluster.from_database`` materialises one, ``python -m repro`` reads and
writes them as files — and what two runs are compared by (:meth:`PartitionPlan.diff`).

Serialisation is versioned JSON in a canonical form: entries are sorted, so
``save -> load -> save`` is byte-identical, and two runs of the same
deterministic pipeline (any array backend) produce placements with the same
:meth:`~PartitionPlan.content_fingerprint`.

>>> from repro.catalog.tuples import TupleId
>>> plan = PartitionPlan(2, {TupleId("users", (1,)): frozenset({0}),
...                          TupleId("users", (2,)): frozenset({0, 1})})
>>> reloaded = PartitionPlan.loads(plan.dumps())
>>> reloaded.dumps() == plan.dumps()
True
>>> plan.diff(reloaded).identical
True
>>> moved = PartitionPlan(2, {TupleId("users", (1,)): frozenset({1}),
...                           TupleId("users", (2,)): frozenset({0, 1})})
>>> diff = plan.diff(moved)
>>> diff.tuples_moved, diff.identical
(1, False)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    PartitioningStrategy,
    RangePredicatePartitioning,
)
from repro.explain.rules import RuleSet, rule_set_from_payload, rule_set_to_payload
from repro.graph.assignment import PartitionAssignment
from repro.utils.canonical_json import dumps_canonical, write_canonical

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.config import SchismOptions
    from repro.pipeline.stages import PipelineState

#: on-disk format marker and version; bump the version on breaking changes.
PLAN_FORMAT = "repro-partition-plan"
PLAN_FORMAT_VERSION = 1

#: strategies a plan can name as its winner and rebuild.
KNOWN_STRATEGIES = (
    "lookup-table",
    "range-predicates",
    "hashing",
    "attribute-hashing",
    "replication",
)

_SCALAR_TYPES = (bool, int, float, str, type(None))


class PlanFormatError(ValueError):
    """A plan file (or payload) is not something this version can read."""


def _check_scalar(value: object, context: str) -> object:
    if not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"{context}: cannot serialise {type(value).__name__} value {value!r}; "
            "plan keys and rule values must be JSON scalars"
        )
    return value


def _sort_token(value: object) -> tuple[str, object]:
    """Totally ordered token for mixed-type scalars (type name, then value)."""
    if isinstance(value, _SCALAR_TYPES) and value is not None:
        return (type(value).__name__, value)
    return (type(value).__name__, repr(value))


def _tuple_id_sort_key(tuple_id: TupleId) -> tuple:
    return (tuple_id.table, tuple(_sort_token(part) for part in tuple_id.key))


@dataclass
class PlanProvenance:
    """Where a plan came from: options, phase timings, quality metrics."""

    created_by: str = "repro.pipeline"
    workload: str | None = None
    #: serialized :class:`~repro.pipeline.config.SchismOptions` (empty for
    #: plans exported from a live controller).
    options: dict = field(default_factory=dict)
    #: per-phase wall-clock seconds — all five phases, extraction included.
    timings: dict = field(default_factory=dict)
    #: cut weight, graph sizes, per-candidate distributed fractions, ...
    metrics: dict = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line provenance report (phase timings include extraction)."""
        lines = [f"created by: {self.created_by}"]
        if self.workload:
            lines.append(f"workload: {self.workload}")
        if self.timings:
            canonical = (
                "extraction", "graph_build", "partitioning", "explanation", "validation",
            )
            ordered = [phase for phase in canonical if phase in self.timings]
            ordered += sorted(
                phase for phase in self.timings
                if phase not in canonical and phase != "total"
            )
            phases = ", ".join(
                f"{phase} {self.timings[phase]:.2f}s" for phase in ordered
            )
            total = self.timings.get(
                "total", sum(self.timings[phase] for phase in ordered)
            )
            lines.append(f"timings: {total:.2f}s ({phases})")
        if self.metrics:
            fingerprintable = {
                name: value
                for name, value in sorted(self.metrics.items())
                if not isinstance(value, dict)
            }
            if fingerprintable:
                lines.append(
                    "metrics: "
                    + ", ".join(f"{name}={value}" for name, value in fingerprintable.items())
                )
            candidates = self.metrics.get("candidate_fractions")
            if isinstance(candidates, dict):
                lines.append(
                    "candidates: "
                    + ", ".join(
                        f"{name} {fraction:.1%}"
                        for name, fraction in sorted(candidates.items())
                    )
                )
        return "\n".join(lines)


@dataclass
class PartitionPlan:
    """A versioned, serializable partitioning decision."""

    num_partitions: int
    #: per-tuple replica sets (singleton = placed, larger = replicated).
    placements: dict[TupleId, frozenset[int]]
    #: name of the winning strategy (see :data:`KNOWN_STRATEGIES`).
    strategy: str = "lookup-table"
    #: resolved routing policy for tuples absent from the placements.
    lookup_default_policy: str = "hash"
    #: fallback for tables without range rules.
    range_fallback: str = "replicate"
    #: per-table range-rule sets from the explanation phase.
    rule_sets: dict[str, RuleSet] = field(default_factory=dict)
    #: per-table columns of the attribute-hashing candidate (if any).
    hash_columns: dict[str, tuple[str, ...]] | None = None
    provenance: PlanProvenance = field(default_factory=PlanProvenance)
    version: int = PLAN_FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.strategy not in KNOWN_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {KNOWN_STRATEGIES}"
            )
        if self.lookup_default_policy not in ("hash", "replicate"):
            raise ValueError("lookup_default_policy must be 'hash' or 'replicate'")
        if self.range_fallback not in ("replicate", "hash"):
            raise ValueError("range_fallback must be 'replicate' or 'hash'")
        for tuple_id, placement in self.placements.items():
            if not placement:
                raise ValueError(f"tuple {tuple_id} has an empty replica set")
            for partition in placement:
                if not 0 <= partition < self.num_partitions:
                    raise ValueError(
                        f"partition {partition} out of range for {tuple_id}"
                    )

    # -- queries ----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.placements)

    @property
    def recommendation(self) -> str:
        """Name of the winning strategy."""
        return self.strategy

    @property
    def replicated_count(self) -> int:
        """Tuples placed on more than one partition."""
        return sum(1 for placement in self.placements.values() if len(placement) > 1)

    def partitions_of(self, tuple_id: TupleId) -> frozenset[int] | None:
        """Replica set of ``tuple_id`` (None when the plan does not place it)."""
        return self.placements.get(tuple_id)

    def to_assignment(self) -> PartitionAssignment:
        """The placements as a (mutable) :class:`PartitionAssignment`."""
        return PartitionAssignment(self.num_partitions, dict(self.placements))

    # -- strategy reconstruction -------------------------------------------------------
    def build_strategy(self, name: str | None = None) -> PartitioningStrategy:
        """Rebuild the winning strategy (or any named candidate) from the plan."""
        name = name or self.strategy
        if name == "lookup-table":
            return LookupTablePartitioning(
                self.num_partitions, self.to_assignment(), self.lookup_default_policy
            )
        if name == "range-predicates":
            if not self.rule_sets:
                raise PlanFormatError("plan carries no rule sets for range-predicates")
            return RangePredicatePartitioning(
                self.num_partitions, self.rule_sets, fallback=self.range_fallback
            )
        if name == "hashing":
            return HashPartitioning(self.num_partitions)
        if name == "attribute-hashing":
            if not self.hash_columns:
                raise PlanFormatError("plan carries no hash columns for attribute-hashing")
            return HashPartitioning(self.num_partitions, self.hash_columns)
        if name == "replication":
            return FullReplication(self.num_partitions)
        raise ValueError(f"unknown strategy {name!r}")

    def deployment_strategy(
        self, lookup_default_policy: str | None = None
    ) -> LookupTablePartitioning:
        """The fine-grained lookup strategy online deployment always uses.

        Live migration updates per-tuple placements, which only the lookup
        table can express — so deployment ignores which candidate won the
        offline validation.  ``lookup_default_policy`` overrides the plan's
        recorded policy (online deployments usually force ``"hash"``).
        """
        return LookupTablePartitioning(
            self.num_partitions,
            self.to_assignment(),
            lookup_default_policy or self.lookup_default_policy,
        )

    # -- serialisation ----------------------------------------------------------------
    def to_payload(self) -> dict:
        """Canonical JSON-serialisable payload (entries sorted)."""
        placements = []
        for tuple_id in sorted(self.placements, key=_tuple_id_sort_key):
            key = [
                _check_scalar(part, f"key of {tuple_id}") for part in tuple_id.key
            ]
            placements.append(
                [tuple_id.table, key, sorted(self.placements[tuple_id])]
            )
        rule_sets = {
            table: rule_set_to_payload(rule_set)
            for table, rule_set in sorted(self.rule_sets.items())
        }
        for table, payload in rule_sets.items():
            for rule in payload["rules"]:
                for condition in rule["conditions"]:
                    _check_scalar(condition[2], f"rule value of table {table}")
        hash_columns = (
            {table: list(columns) for table, columns in sorted(self.hash_columns.items())}
            if self.hash_columns
            else None
        )
        return {
            "format": PLAN_FORMAT,
            "version": self.version,
            "num_partitions": self.num_partitions,
            "strategy": self.strategy,
            "lookup_default_policy": self.lookup_default_policy,
            "range_fallback": self.range_fallback,
            "hash_columns": hash_columns,
            "placements": placements,
            "rule_sets": rule_sets,
            "provenance": {
                "created_by": self.provenance.created_by,
                "workload": self.provenance.workload,
                "options": self.provenance.options,
                "timings": self.provenance.timings,
                "metrics": self.provenance.metrics,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PartitionPlan":
        """Rebuild a plan from a parsed payload (inverse of :meth:`to_payload`)."""
        if payload.get("format") != PLAN_FORMAT:
            raise PlanFormatError(
                f"not a partition plan (format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version > PLAN_FORMAT_VERSION:
            raise PlanFormatError(
                f"plan version {version!r} is newer than supported "
                f"({PLAN_FORMAT_VERSION}); upgrade repro to read it"
            )
        placements: dict[TupleId, frozenset[int]] = {}
        for table, key, partitions in payload["placements"]:
            placements[TupleId(table, tuple(key))] = frozenset(
                int(part) for part in partitions
            )
        rule_sets = {
            table: rule_set_from_payload(rule_payload)
            for table, rule_payload in payload.get("rule_sets", {}).items()
        }
        raw_hash_columns = payload.get("hash_columns")
        hash_columns = (
            {table: tuple(columns) for table, columns in raw_hash_columns.items()}
            if raw_hash_columns
            else None
        )
        provenance_payload = payload.get("provenance", {})
        provenance = PlanProvenance(
            created_by=provenance_payload.get("created_by", "unknown"),
            workload=provenance_payload.get("workload"),
            options=provenance_payload.get("options", {}) or {},
            timings=provenance_payload.get("timings", {}) or {},
            metrics=provenance_payload.get("metrics", {}) or {},
        )
        return cls(
            num_partitions=int(payload["num_partitions"]),
            placements=placements,
            strategy=payload["strategy"],
            lookup_default_policy=payload.get("lookup_default_policy", "hash"),
            range_fallback=payload.get("range_fallback", "replicate"),
            rule_sets=rule_sets,
            hash_columns=hash_columns,
            provenance=provenance,
            version=version,
        )

    def dumps(self) -> str:
        """Canonical JSON text: sorted keys, sorted entries, trailing newline.

        Canonicalisation makes serialisation a pure function of the plan's
        content, so ``loads(dumps(plan)).dumps() == plan.dumps()`` holds
        byte-for-byte.  The text is emitted by the streaming canonical
        writer, byte-identical to ``json.dumps(payload, sort_keys=True,
        indent=1)`` (which forces the slow pure-Python encoder).
        """
        return dumps_canonical(self.to_payload()) + "\n"

    @classmethod
    def loads(cls, text: str) -> "PartitionPlan":
        """Parse a plan from JSON text."""
        return cls.from_payload(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the plan to ``path`` (canonical JSON); returns the path.

        Streams the canonical writer's chunks straight to the file instead
        of materialising the whole document as one string first — same
        bytes as ``path.write_text(self.dumps())``, bounded memory.
        """
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as fp:
            write_canonical(self.to_payload(), fp)
            fp.write("\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PartitionPlan":
        """Read a plan previously written by :meth:`save`."""
        return cls.loads(Path(path).read_text(encoding="utf-8"))

    def content_fingerprint(self) -> str:
        """SHA-256 over the plan's *decision* content (provenance excluded).

        Two pipeline runs with the same inputs produce the same fingerprint
        even though their provenance timings differ — this is the value to
        compare across processes and array backends.
        """
        payload = self.to_payload()
        payload["provenance"] = None
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- diff -------------------------------------------------------------------------
    def diff(self, other: "PartitionPlan") -> "PlanDiff":
        """What changed from ``self`` (old) to ``other`` (new)."""
        moved: list[tuple[TupleId, frozenset[int], frozenset[int]]] = []
        replicas_added = 0
        replicas_dropped = 0
        only_in_old: list[TupleId] = []
        only_in_new: list[TupleId] = []
        for tuple_id in sorted(
            set(self.placements) | set(other.placements), key=_tuple_id_sort_key
        ):
            before = self.placements.get(tuple_id)
            after = other.placements.get(tuple_id)
            if before is None:
                assert after is not None
                only_in_new.append(tuple_id)
                continue
            if after is None:
                only_in_old.append(tuple_id)
                continue
            if before != after:
                moved.append((tuple_id, before, after))
                replicas_added += len(after - before)
                replicas_dropped += len(before - after)
        # Routing-relevant configuration beyond the placements: a plan that
        # routes differently must never diff as identical.
        policy_changes: dict[str, tuple[object, object]] = {}
        for attribute in ("lookup_default_policy", "range_fallback", "hash_columns"):
            mine = getattr(self, attribute)
            theirs = getattr(other, attribute)
            if mine != theirs:
                policy_changes[attribute] = (mine, theirs)
        rules_changed = tuple(
            sorted(
                table
                for table in set(self.rule_sets) | set(other.rule_sets)
                if (
                    table not in self.rule_sets
                    or table not in other.rule_sets
                    or rule_set_to_payload(self.rule_sets[table])
                    != rule_set_to_payload(other.rule_sets[table])
                )
            )
        )
        return PlanDiff(
            moved=moved,
            only_in_old=only_in_old,
            only_in_new=only_in_new,
            replicas_added=replicas_added,
            replicas_dropped=replicas_dropped,
            strategy_change=(
                (self.strategy, other.strategy)
                if self.strategy != other.strategy
                else None
            ),
            partitions_change=(
                (self.num_partitions, other.num_partitions)
                if self.num_partitions != other.num_partitions
                else None
            ),
            policy_changes=policy_changes,
            rules_changed=rules_changed,
        )

    def describe(self) -> str:
        """Multi-line report of the plan (placements, strategy, provenance)."""
        lines = [
            f"partition plan v{self.version}: {self.num_partitions} partitions, "
            f"strategy {self.strategy}",
            f"placements: {len(self.placements)} tuples, "
            f"{self.replicated_count} replicated "
            f"(default policy: {self.lookup_default_policy})",
        ]
        if self.rule_sets:
            lines.append(
                "range rules for tables: " + ", ".join(sorted(self.rule_sets))
            )
        lines.append(self.provenance.describe())
        return "\n".join(lines)


@dataclass
class PlanDiff:
    """Differences between two plans (old -> new)."""

    #: tuples whose replica set changed: (tuple, old placement, new placement).
    moved: list[tuple[TupleId, frozenset[int], frozenset[int]]]
    only_in_old: list[TupleId]
    only_in_new: list[TupleId]
    #: replica copies the transition would create / drop.
    replicas_added: int
    replicas_dropped: int
    strategy_change: tuple[str, str] | None = None
    partitions_change: tuple[int, int] | None = None
    #: changed routing policies: attribute -> (old, new); covers
    #: lookup_default_policy, range_fallback and hash_columns.
    policy_changes: dict[str, tuple[object, object]] = field(default_factory=dict)
    #: tables whose range-rule sets were added, removed, or modified.
    rules_changed: tuple[str, ...] = ()

    @property
    def tuples_moved(self) -> int:
        """Number of tuples whose replica set changed."""
        return len(self.moved)

    @property
    def identical(self) -> bool:
        """Whether the two plans describe the same partitioning decision.

        Covers everything that affects routing: placements, the winning
        strategy, the partition count, the default policies/hash columns,
        and the range-rule sets.
        """
        return not (
            self.moved
            or self.only_in_old
            or self.only_in_new
            or self.strategy_change
            or self.partitions_change
            or self.policy_changes
            or self.rules_changed
        )

    def describe(self) -> str:
        """Multi-line report of the differences."""
        if self.identical:
            return "plans are identical: 0 moves"
        lines = [
            f"tuples moved: {self.tuples_moved} "
            f"(+{self.replicas_added}/-{self.replicas_dropped} replicas)",
            f"tuples only in old plan: {len(self.only_in_old)}",
            f"tuples only in new plan: {len(self.only_in_new)}",
        ]
        if self.strategy_change:
            lines.append(
                f"strategy changed: {self.strategy_change[0]} -> {self.strategy_change[1]}"
            )
        if self.partitions_change:
            lines.append(
                f"num_partitions changed: {self.partitions_change[0]} -> "
                f"{self.partitions_change[1]}"
            )
        for attribute, (old, new) in sorted(self.policy_changes.items()):
            lines.append(f"{attribute} changed: {old!r} -> {new!r}")
        if self.rules_changed:
            lines.append(
                "rule sets changed for tables: " + ", ".join(self.rules_changed)
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def build_plan(
    options: "SchismOptions",
    state: "PipelineState",
    created_by: str = "repro.pipeline",
    workload: str | None = None,
) -> PartitionPlan:
    """Assemble the plan artifact from a completed pipeline state."""
    from repro.pipeline.stages import PipelineError

    if state.assignment is None or state.validation is None or state.explanation is None:
        raise PipelineError(
            "cannot build a plan before partition/explain/validate have run "
            f"(artifacts present: {state.artifacts_present()})"
        )
    if state.assignment.num_partitions != options.num_partitions:
        raise PipelineError(
            f"state artifacts were computed for {state.assignment.num_partitions} "
            f"partitions but the options say {options.num_partitions}; re-run the "
            "partition stage (Pipeline.run_stage) before building a plan"
        )
    validation = state.validation
    lookup = validation.strategies.get("lookup-table")
    lookup_policy = (
        lookup.default_policy
        if isinstance(lookup, LookupTablePartitioning)
        else ("hash" if options.lookup_default_policy == "auto" else options.lookup_default_policy)
    )
    metrics: dict = {
        "distributed_fraction": validation.winner_report.distributed_fraction,
        "candidate_fractions": {
            name: report.distributed_fraction
            for name, report in validation.reports.items()
        },
        "replicated_count": state.assignment.replicated_count,
    }
    if state.graph_cut is not None:
        metrics["graph_cut"] = state.graph_cut
    if state.tuple_graph is not None:
        metrics["graph_nodes"] = state.tuple_graph.num_nodes
        metrics["graph_edges"] = state.tuple_graph.num_edges
        metrics["graph_tuples"] = state.tuple_graph.num_tuples
        metrics["graph_transactions"] = state.tuple_graph.num_transactions
    if workload is None and state.training_trace is not None:
        workload = state.training_trace.workload_name
    provenance = PlanProvenance(
        created_by=created_by,
        workload=workload,
        options=asdict(options),
        timings=state.timings.as_dict(),
        metrics=metrics,
    )
    return PartitionPlan(
        num_partitions=options.num_partitions,
        placements=dict(state.assignment.placements),
        strategy=validation.recommendation,
        lookup_default_policy=lookup_policy,
        range_fallback=options.range_fallback,
        rule_sets=state.explanation.rule_sets(),
        hash_columns=options.hash_columns,
        provenance=provenance,
    )
