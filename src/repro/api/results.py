"""Typed results returned by the session façade.

Every command of :class:`repro.api.Session` answers with one of these
dataclasses instead of a bare tuple or dict: callers (the CLI's ``--json``
mode, benchmarks, tests) read named fields, and each type renders itself
JSON-plain through ``as_dict()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.cluster.executor import WorkloadStats
from repro.cluster.latency import LatencyModel


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What one :meth:`repro.api.Session.ingest` call consumed."""

    events: int
    vertices: int
    edges: int
    seconds: float
    #: Total vertices assigned across the whole session after this ingest.
    assigned_total: int
    #: Explicit deletion events (edge + vertex removals) in the stream.
    removals: int = 0
    #: Worker processes that actually materialised shard replicas (the
    #: pool caps the request at ``partitions``, and a provisioning
    #: failure degrades to 1 = fully in-process; placement itself is
    #: always sequential).
    workers: int = 1
    #: Slowest worker's shard-replica materialisation time (0.0 when
    #: everything stayed in-process).
    shard_import_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["events_per_second"] = round(self.events_per_second, 1)
        return payload


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of executing one pattern query against the cluster."""

    query: str
    matches: int
    local_traversals: int
    remote_traversals: int
    #: The paper's metric for this one execution.
    remote_probability: float
    #: True when the answer never left a partition.
    fully_local: bool
    #: Modelled latency under the session's cost model.
    cost: float

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class WorkloadReport:
    """Aggregate outcome of a sampled query stream."""

    executions: int
    matches: int
    local_traversals: int
    remote_traversals: int
    #: P(a traversal crosses partitions) -- the paper's headline metric.
    remote_probability: float
    remote_per_query: float
    fully_local_rate: float
    mean_cost: float

    @classmethod
    def from_stats(
        cls, stats: WorkloadStats, model: LatencyModel
    ) -> "WorkloadReport":
        return cls(
            executions=stats.executions,
            matches=stats.matches,
            local_traversals=stats.ledger.local,
            remote_traversals=stats.ledger.remote,
            remote_probability=stats.remote_probability,
            remote_per_query=stats.remote_per_query,
            fully_local_rate=stats.fully_local_rate,
            mean_cost=stats.mean_cost(model),
        )

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class ResilienceReport:
    """Degradation and recovery, surfaced as data instead of warnings.

    Every counter is cumulative over the session's lifetime; the
    fault-matrix tests assert on these rather than parsing warning
    text.  A healthy parallel session reports all zeros (except the
    WAL counters when durability is on).
    """

    #: Worker pools spawned to replace a dead/closed predecessor (the
    #: first spawn of the session is not a respawn).
    worker_respawns: int = 0
    #: Parallel calls re-attempted after a worker crash/hang/timeout.
    call_retries: int = 0
    #: Parallel calls that exhausted their retry budget and degraded to
    #: in-process serial execution.
    serial_fallbacks: int = 0
    #: Refreshes that wanted a compact delta but had to rebroadcast a
    #: full snapshot (journal overflow/invalidations, version gaps).
    delta_full_fallbacks: int = 0
    #: Write-ahead-log records appended (0 with durability off).
    wal_records: int = 0
    #: Columnar checkpoints written (0 with durability off).
    wal_checkpoints: int = 0

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class ClusterStats:
    """One consistent snapshot of everything a session knows about itself:
    resident graph, balance/cut quality, engine throughput, and the
    partitioner's own diagnostic counters."""

    method: str
    partitions: int
    capacity: int | None
    vertices: int
    edges: int
    assigned: int
    sizes: list[int]
    #: ``None`` until the assignment is complete (cut is undefined while
    #: vertices are still buffered in the window).
    cut_fraction: float | None
    max_load: float
    replication_factor: float
    # -- streaming-engine aggregate (zero for offline methods) ----------
    engine_batches: int
    engine_events: int
    engine_seconds: float
    events_per_second: float
    peak_window_occupancy: int
    stage_seconds: dict[str, float]
    #: LOOM's group/single placement counters (``None`` for other methods).
    partitioner_counters: dict[str, int] | None
    #: Stream-matcher counters (``None`` for non-motif methods).
    matcher_counters: dict[str, int] | None
    #: Degradation/recovery counters (see :class:`ResilienceReport`).
    resilience: ResilienceReport = field(default_factory=ResilienceReport)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class RetractReport:
    """Outcome of explicitly deleting elements from a live cluster."""

    #: Vertices deleted (their remaining edges cascade with them).
    vertices_removed: int
    #: Edges deleted by explicit :class:`~repro.stream.events.EdgeRemoval`.
    edges_removed: int
    #: Edges that vanished implicitly with a deleted endpoint.
    cascaded_edges: int
    #: Partial motif matches the live matcher killed (0 when the method
    #: keeps no matcher, or when nothing was buffered).
    matches_retracted: int
    seconds: float
    #: Resident graph size after the retraction.
    resident_vertices: int
    resident_edges: int

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class RebalanceReport:
    """Delta of live-migrating the worst-placed vertices."""

    total_vertices: int
    #: Vertices whose best relocation met the gain threshold.
    candidates: int
    #: Vertices actually migrated (re-checked at move time).
    moved_vertices: int
    #: The caller's move budget (``None`` = unbounded single pass).
    max_moves: int | None
    cut_before: float
    cut_after: float
    max_load_before: float
    max_load_after: float
    #: Replicas dropped because a migrated primary landed on them.
    replicas_dropped: int

    @property
    def moved_fraction(self) -> float:
        if self.total_vertices == 0:
            return 0.0
        return self.moved_vertices / self.total_vertices

    def as_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["moved_fraction"] = round(self.moved_fraction, 4)
        return payload
