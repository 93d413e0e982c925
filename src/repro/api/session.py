"""The session façade: one owner for the partition → store → query loop.

The paper's end-to-end story -- stream edges in, match workload motifs,
place vertices, answer pattern queries with few inter-partition
traversals -- behind one public surface:

>>> from repro.api import Cluster, ClusterConfig
>>> from repro.workload import figure1_graph, figure1_workload
>>> config = ClusterConfig(partitions=2, method="loom", capacity=5,
...                        window_size=8, motif_threshold=0.6, seed=0)
>>> session = Cluster.open(config, workload=figure1_workload())
>>> _ = session.ingest(figure1_graph())
>>> session.run_workload(executions=50).remote_probability  # doctest: +SKIP
0.08

The session only sequences commands under its command lock; the state
lives in three collaborators: the :class:`~repro.api.ingest.IngestPipeline`
(store and partitioner), the :class:`~repro.api.supervisor.PoolSupervisor`
(worker pool and query execution) and the
:class:`~repro.api.durability.WalBinding` (durable log).
"""

from __future__ import annotations

import functools
import random
import threading
import time
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.api.config import ClusterConfig
from repro.api.durability import WalBinding
from repro.api.ingest import IngestPipeline
from repro.api.placement import rebalance
from repro.api.results import (
    ClusterStats,
    IngestReport,
    QueryResult,
    RebalanceReport,
    ResilienceReport,
    RetractReport,
    WorkloadReport,
)
from repro.api.supervisor import PoolSupervisor
from repro.cluster.executor import WorkloadStats
from repro.cluster.store import DistributedGraphStore
from repro.engine.pipeline import EngineStats, StatsHook
from repro.exceptions import ConcurrentSessionError, SessionError
from repro.graph.labelled import LabelledGraph, Vertex, _vertex_sort_key
from repro.obs import MetricsRegistry, SpanTracer, build_registry
from repro.partitioning.base import PartitionAssignment
from repro.replication.hotspot import HotspotReplicator, ReplicationReport
from repro.runtime.pool import WorkerPool
from repro.runtime.wal import DurableLog, RecoveryInfo
from repro.stream.events import StreamEvent
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload

#: Snapshot format identifier (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = "loom-repro/session/v1"

# Seed offsets of the façade's own derived RNGs (the ingest pipeline
# holds the stream and dataset ones).
WORKLOAD_SEED_OFFSET = 17
REPLICATION_SEED_OFFSET = 23
RETRY_SEED_OFFSET = 29

T = TypeVar("T")


def _locked(method: Callable[..., T]) -> Callable[..., T]:
    """Serialise a session command on the session's command lock.

    Cross-thread callers block until the running command finishes; a
    *same-thread* nested call -- a stats hook or signal handler calling
    back into the façade mid-command -- raises
    :class:`ConcurrentSessionError` instead of deadlocking.  Every
    command ends by committing the durable log, failed or not, so the
    log equals the store at every command boundary.
    """
    name = method.__name__

    @functools.wraps(method)
    def locked(self: Session, *args: Any, **kwargs: Any) -> T:
        ident = threading.get_ident()
        owner = self._command_owner
        # Only this thread can have set an owner tuple with its own
        # ident, so the read is race-free for the re-entrancy verdict.
        if owner is not None and owner[0] == ident:
            raise ConcurrentSessionError(
                f"session command {name!r} issued while {owner[1]!r} is "
                "still running on the same thread (a hook or signal "
                "handler called back into the session); issue commands "
                "from another thread to serialise instead"
            )
        with self._command_mutex:
            self._command_owner = (ident, name)
            if self.command_trace is not None:
                self.command_trace.append((name, ident))
            self._registry.inc("session.commands", command=name)
            try:
                with self._tracer.span(name):
                    try:
                        return method(self, *args, **kwargs)
                    finally:
                        self._durability.commit()
            finally:
                self._command_owner = None

    return locked


class Session:
    """A live simulated cluster: ingest, query, inspect, re-place, persist.

    Construct through :meth:`~repro.api.Cluster.open` /
    :meth:`~repro.api.Cluster.recover`.
    All randomness flows from ``config.seed`` (or explicitly passed
    ``rng``/``seed`` arguments), so equal configurations replay
    identically.  Thread-safe: commands serialise on the command lock;
    :meth:`close` takes no lock and is idempotent and signal-safe.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        workload: Workload | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self._latency = config.latency_model()
        self._registry = build_registry()
        self._tracer = SpanTracer(registry=self._registry)
        self._durability = WalBinding()
        self._pipeline = IngestPipeline(
            config,
            workload=workload,
            rng=rng,
            registry=self._registry,
            on_store=lambda store: self._durability.bind(
                store, config, fresh=True
            ),
            on_commit=self._durability.commit,
        )
        self._supervisor = PoolSupervisor(
            config.worker,
            partitions=config.partitions,
            registry=self._registry,
            seed=config.seed + RETRY_SEED_OFFSET,
        )
        self._recovery: RecoveryInfo | None = None
        # The command lock and its holder, (thread ident, command name);
        # ``close`` takes its own non-blocking mutex instead.
        self._command_mutex = threading.Lock()
        self._command_owner: tuple[int, str] | None = None
        self._close_mutex = threading.Lock()
        #: When set to a list, every command appends ``(name, thread
        #: ident)`` *while holding the lock* -- the observed serialised
        #: order concurrency tests replay against.
        self.command_trace: list[tuple[str, int]] | None = None

    @property
    def workload(self) -> Workload | None:
        """The workload the session partitions and samples for."""
        return self._pipeline.workload

    @property
    def store(self) -> DistributedGraphStore:
        """The incrementally maintained distributed store."""
        if self._pipeline.store is None:
            raise SessionError("nothing ingested yet: the store is empty")
        return self._pipeline.store

    @property
    def graph(self) -> LabelledGraph:
        """The resident data graph (grows with every ingest)."""
        return self.store.graph

    @property
    def assignment(self) -> PartitionAssignment:
        """The vertex -> partition assignment built so far."""
        return self.store.assignment

    @property
    def engine_stats(self) -> EngineStats:
        """Streaming-engine totals over every ingest and retract."""
        return self._pipeline.engine_stats

    @property
    def registry(self) -> MetricsRegistry:
        """The session's metrics registry (see :meth:`metrics`)."""
        return self._registry

    @property
    def tracer(self) -> SpanTracer:
        """The session's span tracer (one span per façade command)."""
        return self._tracer

    @property
    def is_complete(self) -> bool:
        """True when every resident vertex has been assigned."""
        store = self._pipeline.store
        return store is not None and store.is_complete

    @property
    def pool(self) -> WorkerPool | None:
        """The live :class:`~repro.runtime.pool.WorkerPool` (or None)."""
        return self._supervisor.pool

    @property
    def wal(self) -> DurableLog | None:
        """The live :class:`~repro.runtime.wal.DurableLog` (or None)."""
        return self._durability.log

    @property
    def recovery(self) -> RecoveryInfo | None:
        """What replay found, for a ``Cluster.recover`` session."""
        return self._recovery

    @property
    def resilience(self) -> ResilienceReport:
        """Cumulative degradation/recovery counters (also on :meth:`stats`)."""
        wal = self._durability
        return self._supervisor.resilience(wal.records, wal.checkpoints)

    def partition_of(self, vertex: Vertex) -> int | None:
        """The partition hosting ``vertex`` (``None`` if unassigned)."""
        return self.store.assignment.partition_of(vertex)

    def close(self) -> None:
        """Reap the worker pool and release the durable log.

        Idempotent, safe with every worker already dead, and the session
        stays usable serially; the WAL is flushed, so ``Cluster.recover``
        restores exactly the closed state.  Signal-safe: no command
        lock, and a re-entrant call mid-teardown returns at once.
        """
        if not self._close_mutex.acquire(blocking=False):
            return
        try:
            try:
                self._supervisor.close()
            finally:
                self._durability.release()
        finally:
            self._close_mutex.release()

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @_locked
    def checkpoint(self) -> int:
        """Force a durable columnar checkpoint now (truncating the op
        log); returns the checkpointed mutation-tick count."""
        return self._durability.checkpoint()

    @_locked
    def ingest(
        self,
        source: Sequence[StreamEvent] | LabelledGraph | str,
        *,
        size: int | None = None,
        graph: LabelledGraph | None = None,
        workload: Workload | None = None,
        stats_hooks: Sequence[StatsHook] = (),
        rng: random.Random | None = None,
        seed: int | None = None,
        workers: int | None = None,
    ) -> IngestReport:
        """Stream ``source`` -- stream events, a graph or a dataset name
        -- into the cluster and place every vertex; ``workers=N`` then
        primes a pool of shard replicas (placement is identical whatever
        ``N`` is).  See ``docs/api-reference.md``."""
        pipeline = self._pipeline
        if workload is not None:
            pipeline.adopt_workload(workload)
        events, source_graph = pipeline.resolve_source(
            source, size=size, graph=graph, rng=rng, seed=seed
        )
        began = time.perf_counter()
        vertices, edges, removals = pipeline.ingest(
            events, source_graph, stats_hooks
        )
        pool_workers, shard_import_seconds = self._supervisor.prime(
            self.store, workers
        )
        return IngestReport(
            events=len(events),
            vertices=vertices,
            edges=edges,
            seconds=time.perf_counter() - began,
            assigned_total=self.store.assignment.num_assigned,
            removals=removals,
            workers=pool_workers,
            shard_import_seconds=shard_import_seconds,
        )

    @_locked
    def query(
        self,
        pattern: PatternQuery | LabelledGraph,
        *,
        name: str = "adhoc",
        track_edges: bool = False,
        workers: int | None = None,
    ) -> QueryResult:
        """Execute one pattern query to completion, counting traversals;
        ``workers=N`` fans it out per partition, identically."""
        if not isinstance(pattern, PatternQuery):
            pattern = PatternQuery(name, pattern)
        self._pipeline.require_complete()
        (execution,) = self._supervisor.execute(
            self.store, [pattern], workers, track_edges
        )
        ledger = execution.ledger
        return QueryResult(
            query=pattern.name,
            matches=execution.matches,
            local_traversals=ledger.local,
            remote_traversals=ledger.remote,
            remote_probability=ledger.remote_probability,
            fully_local=execution.fully_local,
            cost=ledger.cost(self._latency),
        )

    @_locked
    def run_workload(
        self,
        workload: Workload | None = None,
        *,
        executions: int = 200,
        rng: random.Random | None = None,
        seed: int | None = None,
        track_edges: bool = False,
        workers: int | None = None,
    ) -> WorkloadReport:
        """Sample ``executions`` queries by frequency (from ``rng``, else
        a ``seed``-derived sampler) and execute them all; ``workers=N``
        runs one batched fan-out with an identical report."""
        target = self._pipeline.resolve_workload(workload)
        sampler = rng or self._pipeline.derived_rng(WORKLOAD_SEED_OFFSET, seed)
        # Sample once, outside the retry loop: a retried fan-out must
        # re-execute the identical query stream (the sampler is
        # stateful), and the serial path aggregates the same list --
        # field-identical reports whichever path answered.
        queries = list(target.sample_many(executions, sampler))
        stats = WorkloadStats()
        stats.ledger.track_edges = track_edges
        for execution in self._supervisor.execute(
            self.store, queries, workers, track_edges
        ):
            stats.observe(execution)
        return WorkloadReport.from_stats(stats, self._latency)

    @_locked
    def stats(self) -> ClusterStats:
        """One snapshot of graph, balance, engine and matcher counters."""
        return self._pipeline.stats(self.resilience)

    @_locked
    def metrics(self) -> dict[str, Any]:
        """One consistent metrics snapshot (``docs/observability.md``);
        cumulative sources are scraped in as absolute values, so
        repeated calls never double-count."""
        self._pipeline.scrape()
        registry = self._registry
        pool = self._supervisor.pool
        registry.set("pool.workers", 0 if pool is None else pool.worker_count)
        registry.set_value("wal.records", self._durability.records)
        registry.set_value("wal.checkpoints", self._durability.checkpoints)
        return registry.snapshot()

    @_locked
    def retract(
        self,
        *,
        vertices: Sequence[Vertex] = (),
        edges: Sequence[tuple[Vertex, Vertex]] = (),
    ) -> RetractReport:
        """Delete resident ``edges``, then ``vertices`` (cascading over
        their edges), validated up front: all or nothing."""
        self._pipeline.require_complete()
        return self._pipeline.retract(vertices, edges)

    @_locked
    def rebalance(
        self, *, max_moves: int | None = None, min_gain: int = 1
    ) -> RebalanceReport:
        """Live-migrate the worst-placed vertices and report the delta."""
        self._pipeline.require_complete()
        return rebalance(
            self.store,
            self._pipeline.partitioner,
            max_moves=max_moves,
            min_gain=min_gain,
        )

    @_locked
    def replicate(
        self,
        workload: Workload | None = None,
        *,
        budget: int | None = None,
        executions: int = 80,
        batch_size: int = 8,
        rng: random.Random | None = None,
        seed: int | None = None,
    ) -> ReplicationReport:
        """Run budgeted hotspot replication on top of the current placement
        (section 3.2's complementary mechanism).  Replicas live in the
        session's store and lower subsequent query costs."""
        target = self._pipeline.resolve_workload(workload)
        replicator = HotspotReplicator(
            self.store,
            budget=self.config.replication_budget if budget is None else budget,
            batch_size=batch_size,
        )
        sampler = rng or self._pipeline.derived_rng(REPLICATION_SEED_OFFSET, seed)
        # Each added copy ticks the store, so the next fan-out re-primes
        # the worker replicas (by delta replay of the ``r+`` ops).
        return replicator.run(target, executions=executions, rng=sampler)

    @_locked
    def snapshot(self) -> dict[str, Any]:
        """JSON-plain snapshot of config + resident graph + assignment.

        Read-only (a session is reloaded from its WAL directory by
        ``Cluster.recover``) and without replicas; the serve
        ``snapshot`` verb returns it.  The listings are sorted, so equal
        states give equal bytes whatever order their stores iterate in.
        """
        self._pipeline.require_complete()
        store = self.store
        graph = store.graph
        key = _vertex_sort_key
        return {
            "schema": SNAPSHOT_SCHEMA,
            "config": self.config.as_dict(),
            "capacity": store.assignment.capacity,
            "graph": {
                "vertices": sorted(
                    ([vertex, graph.label(vertex)] for vertex in graph.vertices()),
                    key=lambda pair: key(pair[0]),
                ),
                "edges": sorted(
                    ([u, v] for u, v in graph.edges()),
                    key=lambda pair: (key(pair[0]), key(pair[1])),
                ),
            },
            "assignment": sorted(
                ([v, p] for v, p in store.assignment.assigned().items()),
                key=lambda pair: key(pair[0]),
            ),
        }

    def __repr__(self) -> str:
        store = self._pipeline.store
        resident = 0 if store is None else store.graph.num_vertices
        return (
            f"Session(method={self.config.method!r}, "
            f"k={self.config.partitions}, |V|={resident}, "
            f"complete={self.is_complete})"
        )
